//! Ext-E: column redundancy vs stuck-at-closed defects: the complement of
//! Ext-A. Row spares cannot recover column kills (each extra row *adds*
//! column cross-section); spare columns with configurable routing can.

use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter,
};
use crate::experiments::mapping_cover;
use crate::shard::json::JsonValue;
use crate::table::{pct, Table};
use xbar_core::{column_redundancy_yield, FunctionMatrix, MapperKind};
use xbar_logic::bench_reg::find;

/// Ext-E as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct ExtColumnRedundancyExperiment;

const EXT_E_PARAMS: &[ParamSpec] = &[
    spec(
        "circuit",
        ParamKind::Str,
        "rd53",
        "registry circuit whose function matrix is swept",
    ),
    spec(
        "stuck-closed-fraction",
        ParamKind::F64,
        "0.4",
        "fraction of defects that are stuck-closed",
    ),
];

const RATES: [f64; 4] = [0.005, 0.01, 0.02, 0.03];
const SPARE_GRID: [(usize, usize); 5] = [(0, 0), (4, 0), (0, 4), (4, 4), (8, 8)];

impl Experiment for ExtColumnRedundancyExperiment {
    fn name(&self) -> &'static str {
        "ext_column_redundancy"
    }

    fn description(&self) -> &'static str {
        "Ext-E: joint row+column redundancy under stuck-closed defects — the remedy \
         row spares alone cannot provide"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        EXT_E_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let circuit = params.str("circuit");
        let info = find(circuit)
            .map_err(|_| ExpError::Usage(format!("--circuit: {circuit:?} is not registered")))?;
        let closed_fraction = params.f64("stuck-closed-fraction");
        if !(0.0..=1.0).contains(&closed_fraction) {
            return Err(ExpError::Usage(
                "--stuck-closed-fraction must be in [0, 1]".to_owned(),
            ));
        }
        let cover = mapping_cover(info, params.seed);
        let fm = FunctionMatrix::from_cover(&cover);
        reporter.line(format!(
            "circuit: {circuit} ({} rows x {} cols optimum), mixed defects: {:.0}% of defects \
             stuck-closed",
            fm.num_rows(),
            fm.num_cols(),
            closed_fraction * 100.0
        ));

        let headers: Vec<String> = std::iter::once("defect rate".to_owned())
            .chain(SPARE_GRID.iter().map(|(r, c)| format!("({r}r,{c}c)")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(
            "Ext-E — success rate % vs (spare rows, spare cols), EA + column routing",
            &header_refs,
        );
        let mut cells = Vec::new();
        for &rate in &RATES {
            let mut row = vec![format!("{:.1}%", rate * 100.0)];
            for &(sr, sc) in &SPARE_GRID {
                let y = column_redundancy_yield(
                    &fm,
                    rate,
                    closed_fraction,
                    sr,
                    sc,
                    params.samples,
                    MapperKind::Exact,
                    params.seed,
                );
                row.push(pct(y));
                cells.push((rate, sr, sc, y));
            }
            table.row(row);
        }
        reporter.table(&table);
        reporter.line("reading: under stuck-closed defects, spares of EITHER kind alone do not");
        reporter.line("help (extra rows add column-kill cross-section and vice versa); only joint");
        reporter.line("row+column redundancy recovers yield — quantifying the open problem the");
        reporter.line("paper's §VI identifies.");
        write_csv_if_requested(params, reporter, &table)?;

        let data = JsonValue::obj([
            ("circuit", JsonValue::str(circuit)),
            ("stuck_closed_fraction", JsonValue::f64(closed_fraction)),
            ("samples_per_cell", JsonValue::usize(params.samples)),
            (
                "cells",
                JsonValue::arr(cells.iter().map(|(rate, sr, sc, y)| {
                    JsonValue::obj([
                        ("defect_rate", JsonValue::f64(*rate)),
                        ("spare_rows", JsonValue::usize(*sr)),
                        ("spare_cols", JsonValue::usize(*sc)),
                        ("success_rate", JsonValue::f64(*y)),
                    ])
                })),
            ),
        ]);
        Ok(Artifact::new(data))
    }
}
