//! Ext-C: ablation of the hybrid algorithm's design choices on the
//! Table II workload:
//!
//! * full HBA (greedy + backtracking + exact Munkres outputs);
//! * no backtracking (pure greedy minterms);
//! * greedy outputs (no Munkres);
//! * EA (bitset Hopcroft–Karp over all rows) and the Hopcroft–Karp
//!   feasibility bound.

use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter, RNG_STREAM_PARAM,
};
use crate::mc::monte_carlo_with;
use crate::shard::json::JsonValue;
use crate::table::{pct, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xbar_core::{CrossbarMatrix, DefectSampler, FunctionMatrix, HybridOptions, MatchEngine};
use xbar_logic::bench_reg::find;

/// Ext-C as a registry [`Experiment`].
#[derive(Debug, Clone, Copy)]
pub struct ExtAblationHbaExperiment;

const EXT_C_PARAMS: &[ParamSpec] = &[
    spec(
        "circuits",
        ParamKind::StrList,
        "rd53,sao2,rd73,clip,rd84,exp5",
        "registry circuits to ablate",
    ),
    RNG_STREAM_PARAM,
];

#[derive(Clone, Copy, Default)]
struct Counts {
    full: usize,
    no_backtrack: usize,
    greedy_outputs: usize,
    exact: usize,
    feasible: usize,
}

impl Experiment for ExtAblationHbaExperiment {
    fn name(&self) -> &'static str {
        "ext_ablation_hba"
    }

    fn description(&self) -> &'static str {
        "Ext-C: HBA ablation — what backtracking and the exact output stage buy, \
         against EA and the Hopcroft-Karp feasibility bound"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        EXT_C_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let mut table = Table::new(
            "Ext-C — success rate % by algorithm variant (stuck-open defects)",
            &[
                "name",
                "HBA full",
                "no backtrack",
                "greedy outputs",
                "EA",
                "feasible (HK bound)",
            ],
        );

        let mut circuit_counts = Vec::new();
        for name in params.list("circuits") {
            let info = find(name)
                .map_err(|_| ExpError::Usage(format!("--circuits: {name:?} is not registered")))?;
            let cover = info.cover(params.seed);
            let fm = FunctionMatrix::from_cover(&cover);
            let rows = fm.num_rows();
            let cols = fm.num_cols();

            // Per-worker engine (FM structure cached once) plus a reused
            // crossbar matrix: the five variant queries per sample share
            // one scratch set and allocate nothing. Decisions are
            // byte-identical to the old per-sample facade calls.
            let samples = monte_carlo_with(
                params.samples,
                params.seed ^ 0xAB1A,
                || {
                    let mut engine = MatchEngine::new();
                    engine.prepare_fm(&fm);
                    (engine, CrossbarMatrix::perfect(rows, cols))
                },
                |(engine, cm), _, seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    DefectSampler::new(params.sample_stream()).resample(
                        cm,
                        params.defect_rate,
                        &mut rng,
                    );
                    Counts {
                        full: usize::from(
                            engine
                                .hybrid_success_with(&fm, cm, HybridOptions::default())
                                .0,
                        ),
                        no_backtrack: usize::from(
                            engine
                                .hybrid_success_with(
                                    &fm,
                                    cm,
                                    HybridOptions {
                                        backtracking: false,
                                        ..HybridOptions::default()
                                    },
                                )
                                .0,
                        ),
                        greedy_outputs: usize::from(
                            engine
                                .hybrid_success_with(
                                    &fm,
                                    cm,
                                    HybridOptions {
                                        exact_outputs: false,
                                        ..HybridOptions::default()
                                    },
                                )
                                .0,
                        ),
                        exact: usize::from(engine.exact_success(&fm, cm).0),
                        feasible: usize::from(engine.feasible(&fm, cm)),
                    }
                },
            );
            let total = samples.len();
            let sum = samples.iter().fold(Counts::default(), |a, b| Counts {
                full: a.full + b.full,
                no_backtrack: a.no_backtrack + b.no_backtrack,
                greedy_outputs: a.greedy_outputs + b.greedy_outputs,
                exact: a.exact + b.exact,
                feasible: a.feasible + b.feasible,
            });
            table.row([
                name.clone(),
                pct(sum.full as f64 / total as f64),
                pct(sum.no_backtrack as f64 / total as f64),
                pct(sum.greedy_outputs as f64 / total as f64),
                pct(sum.exact as f64 / total as f64),
                pct(sum.feasible as f64 / total as f64),
            ]);
            circuit_counts.push((name.clone(), total, sum));
        }
        reporter.table(&table);
        reporter.line("reading: EA equals the feasibility bound by construction; the gap between");
        reporter.line(
            "\"no backtrack\" and \"HBA full\" is what Algorithm 1's backtracking step buys;",
        );
        reporter.line("the gap between \"greedy outputs\" and \"HBA full\" is what Munkres buys —");
        reporter.line(
            "the paper's §IV-B rationale (\"a single defect might discard a whole output\").",
        );
        write_csv_if_requested(params, reporter, &table)?;

        let data = JsonValue::obj([(
            "circuits",
            JsonValue::arr(circuit_counts.iter().map(|(name, total, sum)| {
                JsonValue::obj([
                    ("name", JsonValue::str(name.clone())),
                    ("samples", JsonValue::usize(*total)),
                    ("hba_full", JsonValue::usize(sum.full)),
                    ("no_backtrack", JsonValue::usize(sum.no_backtrack)),
                    ("greedy_outputs", JsonValue::usize(sum.greedy_outputs)),
                    ("exact", JsonValue::usize(sum.exact)),
                    ("feasible", JsonValue::usize(sum.feasible)),
                ])
            })),
        )]);
        Ok(Artifact::new(data))
    }
}
