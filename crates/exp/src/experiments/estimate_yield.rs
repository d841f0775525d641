//! Yield estimation as a first-class experiment: one Monte Carlo yield
//! point for a circuit under a configurable defect regime, row
//! redundancy, and mapper — the building block the Ext-A/Ext-E sweeps
//! (and any future launcher-driven campaign) are made of.

use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter, CLUSTER_SIZE_PARAM, DEFECT_MODEL_PARAM, LINE_RATE_PARAM, RNG_STREAM_PARAM,
};
use crate::experiments::mapping_cover;
use crate::shard::json::JsonValue;
use crate::table::{pct, Table};
use xbar_core::{estimate_yield, FunctionMatrix, MapperKind, YieldConfig};
use xbar_logic::bench_reg::find;

/// `estimate_yield` as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct EstimateYieldExperiment;

const YIELD_PARAMS: &[ParamSpec] = &[
    spec(
        "circuit",
        ParamKind::Str,
        "rd53",
        "registry circuit whose function matrix is mapped",
    ),
    spec(
        "spare-rows",
        ParamKind::USize,
        "0",
        "spare horizontal lines beyond the optimum P+K",
    ),
    spec(
        "stuck-closed-fraction",
        ParamKind::F64,
        "0.0",
        "fraction of defects that are stuck-closed (0 = Table II regime)",
    ),
    spec(
        "mapper",
        ParamKind::Str,
        "hybrid",
        "mapping algorithm: `hybrid` (HBA) or `exact` (EA)",
    ),
    RNG_STREAM_PARAM,
    DEFECT_MODEL_PARAM,
    CLUSTER_SIZE_PARAM,
    LINE_RATE_PARAM,
];

/// Parses a `--mapper` value.
///
/// # Errors
///
/// Rejects anything but `hybrid` / `exact`.
pub fn parse_mapper(text: &str) -> Result<MapperKind, ExpError> {
    match text {
        "hybrid" => Ok(MapperKind::Hybrid),
        "exact" => Ok(MapperKind::Exact),
        other => Err(ExpError::Usage(format!(
            "--mapper: expected `hybrid` or `exact`, got {other:?}"
        ))),
    }
}

impl Experiment for EstimateYieldExperiment {
    fn name(&self) -> &'static str {
        "estimate_yield"
    }

    fn description(&self) -> &'static str {
        "Monte Carlo mapping-yield estimate for one circuit under a configurable \
         defect regime, row redundancy, and mapper"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        YIELD_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let circuit = params.str("circuit");
        let info = find(circuit)
            .map_err(|_| ExpError::Usage(format!("--circuit: {circuit:?} is not registered")))?;
        let stuck_closed_fraction = params.f64("stuck-closed-fraction");
        if !(0.0..=1.0).contains(&stuck_closed_fraction) {
            return Err(ExpError::Usage(
                "--stuck-closed-fraction must be in [0, 1]".to_owned(),
            ));
        }
        let mapper = parse_mapper(params.str("mapper"))?;
        if params.samples == 0 {
            return Err(ExpError::Usage("--samples must be at least 1".to_owned()));
        }
        let spare_rows = params.usize("spare-rows");

        let cover = mapping_cover(info, params.seed);
        let fm = FunctionMatrix::from_cover(&cover);
        let result = estimate_yield(
            &fm,
            &YieldConfig {
                defect_rate: params.defect_rate,
                stuck_closed_fraction,
                spare_rows,
                samples: params.samples,
                mapper,
                seed: params.seed,
                stream: params.sample_stream(),
                model: params.defect_model(),
            },
        );

        let mut table = Table::new(
            "Yield estimate",
            &[
                "circuit",
                "rows+spares x cols",
                "mapper",
                "defect rate",
                "stuck-closed",
                "successes",
                "samples",
                "yield %",
                "area",
                "overhead",
            ],
        );
        table.row([
            circuit.to_owned(),
            format!("{}+{} x {}", fm.num_rows(), spare_rows, fm.num_cols()),
            params.str("mapper").to_owned(),
            format!("{:.1}%", params.defect_rate * 100.0),
            format!("{:.0}%", stuck_closed_fraction * 100.0),
            result.successes.to_string(),
            result.samples.to_string(),
            pct(result.success_rate),
            result.area.to_string(),
            format!("{:.2}x", result.area_overhead),
        ]);
        reporter.table(&table);
        write_csv_if_requested(params, reporter, &table)?;

        let data = JsonValue::obj([
            ("circuit", JsonValue::str(circuit)),
            ("rows", JsonValue::usize(fm.num_rows())),
            ("cols", JsonValue::usize(fm.num_cols())),
            ("spare_rows", JsonValue::usize(spare_rows)),
            ("mapper", JsonValue::str(params.str("mapper"))),
            ("successes", JsonValue::usize(result.successes)),
            ("samples", JsonValue::usize(result.samples)),
            ("success_rate", JsonValue::f64(result.success_rate)),
            ("area", JsonValue::usize(result.area)),
            ("area_overhead", JsonValue::f64(result.area_overhead)),
        ]);
        Ok(Artifact::new(data))
    }
}
