//! Shared workload builders for the Criterion benches (one bench target per
//! paper table/figure family; see `benches/`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use xbar_core::{CrossbarMatrix, DefectSampler, FunctionMatrix};
use xbar_logic::bench_reg::find;
use xbar_logic::Cover;

/// The circuits benchmarked in the Table II runtime columns, small → large.
pub const TABLE2_BENCH_CIRCUITS: &[&str] = &["rd53", "misex1", "rd73", "rd84", "ex1010", "alu4"];

/// A prepared mapping workload: the function matrix plus a deterministic
/// set of sampled defect maps.
#[derive(Debug, Clone)]
pub struct MappingWorkload {
    /// Circuit name.
    pub name: String,
    /// The cover being mapped.
    pub cover: Cover,
    /// Its function matrix.
    pub fm: FunctionMatrix,
    /// Pre-sampled crossbar matrices (so benches measure mapping only).
    pub defect_maps: Vec<CrossbarMatrix>,
}

/// Builds the workload for one registry circuit: `maps` defect maps at the
/// paper's 10% stuck-open rate.
///
/// # Panics
///
/// Panics when `name` is not in the registry.
#[must_use]
pub fn mapping_workload(name: &str, maps: usize, seed: u64) -> MappingWorkload {
    let info = find(name).expect("registered benchmark");
    let cover = info.mapping_cover(seed);
    let fm = FunctionMatrix::from_cover(&cover);
    let mut rng = StdRng::seed_from_u64(seed);
    let defect_maps = (0..maps)
        .map(|_| DefectSampler::v1().sample(fm.num_rows(), fm.num_cols(), 0.10, &mut rng))
        .collect();
    MappingWorkload {
        name: name.to_owned(),
        cover,
        fm,
        defect_maps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_for_all_bench_circuits() {
        for name in TABLE2_BENCH_CIRCUITS {
            let w = mapping_workload(name, 2, 1);
            assert_eq!(w.defect_maps.len(), 2);
            assert_eq!(w.fm.num_rows(), w.cover.len() + w.cover.num_outputs());
        }
    }
}
