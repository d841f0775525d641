//! Redundancy and yield analysis — the paper's first future-work item
//! (§VI): "exploring redundant crossbar areas might improve the defect
//! tolerance performance especially regarding stuck-at closed type
//! defects".
//!
//! A redundant crossbar has `P + K + spare` horizontal lines. Stuck-open
//! defects are absorbed by row re-assignment (as in Table II); stuck-closed
//! defects destroy a whole row (tolerable with spares) and a whole column
//! (fatal for any column the function matrix needs, since columns carry
//! fixed roles — the paper's optimum-size assumption keeps column roles
//! pinned to the CMOS driver).

use crate::engine::MatchEngine;
use crate::mapping::{map_exact, map_hybrid, MappingOutcome};
use crate::matrices::{
    CrossbarMatrix, DefectModelSpec, DefectSampler, FunctionMatrix, SampleStream,
};
use crate::stats::SuccessCount;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xbar_device::{Crossbar, DefectProfile};

/// Which mapper drives the yield estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapperKind {
    /// The paper's hybrid algorithm.
    Hybrid,
    /// The exact algorithm: a bitset Hopcroft–Karp matching over all rows.
    Exact,
}

impl MapperKind {
    /// Runs the selected mapper.
    #[must_use]
    pub fn run(self, fm: &FunctionMatrix, cm: &CrossbarMatrix) -> MappingOutcome {
        match self {
            MapperKind::Hybrid => map_hybrid(fm, cm),
            MapperKind::Exact => map_exact(fm, cm),
        }
    }

    /// Success of the selected mapper through a reusable [`MatchEngine`] —
    /// the allocation-free query Monte Carlo loops should use.
    #[must_use]
    pub fn succeeds_with(
        self,
        engine: &mut MatchEngine,
        fm: &FunctionMatrix,
        cm: &CrossbarMatrix,
    ) -> bool {
        match self {
            MapperKind::Hybrid => engine.hybrid_success(fm, cm).0,
            MapperKind::Exact => engine.exact_success(fm, cm).0,
        }
    }
}

/// Configuration of a yield experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldConfig {
    /// Per-crosspoint defect probability.
    pub defect_rate: f64,
    /// Fraction of defects that are stuck-closed (0.0 = Table II regime).
    pub stuck_closed_fraction: f64,
    /// Spare horizontal lines beyond the optimum `P + K`.
    pub spare_rows: usize,
    /// Monte Carlo sample count.
    pub samples: usize,
    /// Mapper under test.
    pub mapper: MapperKind,
    /// RNG seed.
    pub seed: u64,
    /// Defect sampling stream for the stuck-open-only regime (mixed
    /// stuck-open/stuck-closed sampling goes through device-level
    /// [`Crossbar`] construction, which is stream-independent).
    pub stream: SampleStream,
    /// Spatial defect model for the stuck-open-only regime (the
    /// stuck-closed path keeps its device-level i.i.d. semantics).
    pub model: DefectModelSpec,
}

/// Result of a yield experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldResult {
    /// Fraction of samples with a valid mapping.
    pub success_rate: f64,
    /// Samples mapped successfully.
    pub successes: usize,
    /// Total samples.
    pub samples: usize,
    /// Area of the (redundant) crossbar used.
    pub area: usize,
    /// Area overhead vs the optimum crossbar (1.0 = none).
    pub area_overhead: f64,
}

/// Estimates mapping yield for `fm` under the given defect regime and row
/// redundancy.
///
/// # Panics
///
/// Panics when `samples` is 0.
#[must_use]
pub fn estimate_yield(fm: &FunctionMatrix, config: &YieldConfig) -> YieldResult {
    assert!(config.samples > 0, "need at least one sample");
    let optimum_rows = fm.num_rows();
    let rows = optimum_rows + config.spare_rows;
    let cols = fm.num_cols();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // The same mergeable accumulator the sharded Monte Carlo coordinator
    // merges: integer counts, so single-process and sharded aggregation
    // share one code path and stay bit-identical.
    let mut counts = SuccessCount::new();
    let mut engine = MatchEngine::new();
    // The FM is the campaign constant: extract its one-column structure
    // once so every sample's adjacency build starts from the cache.
    engine.prepare_fm(fm);
    let mut cm_buf = CrossbarMatrix::perfect(rows, cols);
    let sampler = DefectSampler::with_model(config.stream, config.model);
    for _ in 0..config.samples {
        let success = if config.stuck_closed_fraction > 0.0 {
            // Stuck-closed defects need full device semantics (row/column
            // poisoning), which `from_crossbar` encodes.
            let profile = DefectProfile {
                rate: config.defect_rate,
                stuck_closed_fraction: config.stuck_closed_fraction,
            };
            let xbar = Crossbar::with_random_defects(rows, cols, profile, &mut rng);
            let cm = CrossbarMatrix::from_crossbar(&xbar);
            config.mapper.succeeds_with(&mut engine, fm, &cm)
        } else {
            // Stuck-open-only sampling reuses one matrix and the engine's
            // scratch: zero allocations per sample.
            sampler.resample(&mut cm_buf, config.defect_rate, &mut rng);
            config.mapper.succeeds_with(&mut engine, fm, &cm_buf)
        };
        counts.push(success);
    }
    let area = rows * cols;
    YieldResult {
        success_rate: counts.rate(),
        successes: counts.successes as usize,
        samples: config.samples,
        area,
        area_overhead: area as f64 / (optimum_rows * cols) as f64,
    }
}

/// Sweeps spare-row counts and returns `(spare, YieldResult)` per point —
/// the redundancy/yield trade-off curve.
#[must_use]
pub fn redundancy_sweep(
    fm: &FunctionMatrix,
    base: &YieldConfig,
    spares: &[usize],
) -> Vec<(usize, YieldResult)> {
    spares
        .iter()
        .map(|&spare| {
            let config = YieldConfig {
                spare_rows: spare,
                ..*base
            };
            (spare, estimate_yield(fm, &config))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_logic::{cube, Cover};

    fn sample_fm() -> FunctionMatrix {
        let cover = Cover::from_cubes(
            4,
            2,
            [
                cube("11-- 10"),
                cube("--11 10"),
                cube("1--0 01"),
                cube("-01- 01"),
                cube("0-0- 10"),
            ],
        )
        .expect("dims");
        FunctionMatrix::from_cover(&cover)
    }

    fn base_config() -> YieldConfig {
        YieldConfig {
            defect_rate: 0.15,
            stuck_closed_fraction: 0.0,
            spare_rows: 0,
            samples: 150,
            mapper: MapperKind::Exact,
            seed: 17,
            stream: SampleStream::V1,
            model: DefectModelSpec::default(),
        }
    }

    #[test]
    fn yield_improves_with_spare_rows() {
        let fm = sample_fm();
        let sweep = redundancy_sweep(&fm, &base_config(), &[0, 2, 4]);
        assert!(sweep[2].1.success_rate >= sweep[0].1.success_rate);
        assert!(
            sweep[2].1.success_rate > sweep[0].1.success_rate + 0.01,
            "4 spares should measurably help: {:?}",
            sweep
                .iter()
                .map(|(s, r)| (*s, r.success_rate))
                .collect::<Vec<_>>()
        );
        assert!(sweep[2].1.area_overhead > 1.0);
    }

    #[test]
    fn yield_degrades_with_defect_rate() {
        let fm = sample_fm();
        let low = estimate_yield(
            &fm,
            &YieldConfig {
                defect_rate: 0.05,
                ..base_config()
            },
        );
        let high = estimate_yield(
            &fm,
            &YieldConfig {
                defect_rate: 0.35,
                ..base_config()
            },
        );
        assert!(low.success_rate > high.success_rate);
    }

    #[test]
    fn stuck_closed_defects_are_much_harsher() {
        let fm = sample_fm();
        let open_only = estimate_yield(
            &fm,
            &YieldConfig {
                defect_rate: 0.08,
                ..base_config()
            },
        );
        let with_closed = estimate_yield(
            &fm,
            &YieldConfig {
                defect_rate: 0.08,
                stuck_closed_fraction: 0.5,
                ..base_config()
            },
        );
        assert!(
            with_closed.success_rate < open_only.success_rate,
            "stuck-closed must hurt: {} vs {}",
            with_closed.success_rate,
            open_only.success_rate
        );
    }

    /// Spare *rows* do not recover stuck-closed yield: every extra row adds
    /// crosspoints to each column, and a single stuck-closed device kills
    /// its whole column (columns have fixed roles). This is precisely why
    /// the paper's §VI calls for dedicated (column) redundancy for
    /// stuck-at-closed defects; Ext-A records the measured curve.
    #[test]
    fn spare_rows_do_not_recover_stuck_closed_yield() {
        let fm = sample_fm();
        let cfg = YieldConfig {
            defect_rate: 0.06,
            stuck_closed_fraction: 0.4,
            samples: 200,
            ..base_config()
        };
        let none = estimate_yield(&fm, &cfg);
        let spared = estimate_yield(
            &fm,
            &YieldConfig {
                spare_rows: 4,
                ..cfg
            },
        );
        assert!(
            spared.success_rate <= none.success_rate,
            "column kills grow with row count: {} vs {}",
            spared.success_rate,
            none.success_rate
        );
    }

    #[test]
    fn hybrid_yield_not_above_exact() {
        let fm = sample_fm();
        let cfg = base_config();
        let exact = estimate_yield(&fm, &cfg);
        let hybrid = estimate_yield(
            &fm,
            &YieldConfig {
                mapper: MapperKind::Hybrid,
                ..cfg
            },
        );
        assert!(hybrid.success_rate <= exact.success_rate + 1e-9);
    }
}
