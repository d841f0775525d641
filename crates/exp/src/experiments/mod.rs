//! Experiment implementations, one module per paper table/figure family
//! or extension study. Each module exposes its library functions plus a
//! unit struct implementing [`crate::experiment::Experiment`]; the
//! registry in [`crate::experiment::registry`] lists them all.

pub mod estimate_yield;
pub mod ext_ablation_hba;
pub mod ext_analog_validation;
pub mod ext_cluster_tolerance;
pub mod ext_column_redundancy;
pub mod ext_defect_scan;
pub mod ext_model_yield;
pub mod ext_multilevel_defects;
pub mod ext_yield_redundancy;
pub mod fig1;
pub mod fig2_fig4;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table1;
pub mod table2;

use xbar_logic::bench_reg::BenchmarkInfo;
use xbar_logic::{Cover, Pla};

// `EXACT_COVERS`: `(name, PLA text)` for every exact registry circuit's
// mapping cover, in registry order, written by `build.rs`.
include!(concat!(env!("OUT_DIR"), "/exact_covers.rs"));

/// The cover a mapper implements for a registry circuit:
/// [`BenchmarkInfo::mapping_cover`], without its minimizations for an
/// exact circuit. Those covers depend on nothing but the circuit, so the
/// build script derived them once and this parses the text on each call
/// (rd84's 255 cubes in about 0.13 ms, against 6 ms to minimize them);
/// twins are generated from `seed`.
pub(crate) fn mapping_cover(info: &BenchmarkInfo, seed: u64) -> Cover {
    match EXACT_COVERS.iter().find(|(name, _)| *name == info.name) {
        Some((_, pla)) => {
            Pla::parse(pla)
                .expect("build-time covers are valid PLA text")
                .on_set
        }
        None => info.mapping_cover(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_logic::bench_reg::{find, registry, BenchmarkSource};

    fn exact() -> impl Iterator<Item = &'static BenchmarkInfo> {
        registry()
            .iter()
            .filter(|info| info.source == BenchmarkSource::Exact)
    }

    #[test]
    fn build_time_covers_are_the_registry_mapping_covers() {
        let built: Vec<&str> = EXACT_COVERS.iter().map(|(name, _)| *name).collect();
        let names: Vec<&str> = exact().map(|info| info.name).collect();
        assert_eq!(built, names, "one build-time cover per exact circuit");
        for info in exact() {
            // `Cover` equality compares the dimensions and the cubes in order.
            for seed in [0, 1, 2018, u64::MAX] {
                assert_eq!(
                    mapping_cover(info, seed),
                    info.mapping_cover(seed),
                    "{} at seed {seed}",
                    info.name
                );
            }
        }
    }

    #[test]
    fn twins_still_come_from_the_registry() {
        let bw = find("bw").expect("registered");
        assert_eq!(mapping_cover(bw, 3), bw.mapping_cover(3));
        assert_ne!(mapping_cover(bw, 3), mapping_cover(bw, 4));
    }
}
