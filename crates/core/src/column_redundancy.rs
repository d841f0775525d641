//! Column redundancy: the remedy for stuck-at-closed defects that row
//! spares cannot provide (§VI of the paper; quantified by Ext-A).
//!
//! A stuck-closed crosspoint kills its entire column. Column roles are
//! normally pinned (each vertical line is wired to a specific input driver
//! or output latch), but with spare columns and a configurable CMOS
//! periphery, *logical* columns can be routed to any functional *physical*
//! column. Mapping then has two degrees of freedom: the row permutation
//! (as in HBA/EA) and the logical→physical column assignment.
//!
//! The joint problem is NP-hard; this module uses the natural greedy
//! decomposition — route heavily-used logical columns to the cleanest
//! physical columns, then run the row mapper on the re-indexed crossbar
//! matrix, retrying with randomized column routes on failure.

use crate::bits;
use crate::mapping::RowAssignment;
use crate::matrices::{CrossbarMatrix, FunctionMatrix};
use crate::redundancy::MapperKind;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A mapping onto a crossbar with spare rows and spare columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundantMapping {
    /// FM row → physical row.
    pub row_assignment: RowAssignment,
    /// Logical column → physical column.
    pub column_assignment: Vec<usize>,
    /// Column routes tried before success.
    pub routes_tried: usize,
}

/// Maps `fm` onto a physical crossbar matrix that may be taller *and wider*
/// than the optimum: `cm.num_cols() ≥ fm.num_cols()` spare columns are used
/// to route around column-killing defects.
///
/// Returns `None` when no valid mapping was found within `max_routes`
/// column-route attempts (the first attempt is the greedy
/// cleanest-column route; subsequent ones are seeded random shuffles).
#[must_use]
pub fn map_with_column_redundancy(
    fm: &FunctionMatrix,
    cm: &CrossbarMatrix,
    mapper: MapperKind,
    max_routes: usize,
    seed: u64,
) -> Option<RedundantMapping> {
    let logical = fm.num_cols();
    let physical = cm.num_cols();
    if physical < logical || fm.num_rows() > cm.num_rows() {
        return None;
    }

    // Logical columns by descending usage; physical columns by ascending
    // defect count.
    let mut usage = vec![0usize; logical];
    for r in 0..fm.num_rows() {
        for (l, count) in usage.iter_mut().enumerate() {
            if fm.row(r).get(l) {
                *count += 1;
            }
        }
    }
    let defects: Vec<usize> = (0..physical)
        .map(|p| bits::count_all(cm.defect_plane(p)))
        .collect();
    let mut logical_order: Vec<usize> = (0..logical).collect();
    logical_order.sort_by_key(|&l| std::cmp::Reverse(usage[l]));
    let mut physical_order: Vec<usize> = (0..physical).collect();
    physical_order.sort_by_key(|&p| defects[p]);

    let mut rng = StdRng::seed_from_u64(seed);
    for attempt in 0..max_routes.max(1) {
        let mut column_assignment = vec![usize::MAX; logical];
        if attempt == 0 {
            for (rank, &l) in logical_order.iter().enumerate() {
                column_assignment[l] = physical_order[rank];
            }
        } else {
            let mut pool = physical_order.clone();
            pool.shuffle(&mut rng);
            for (l, slot) in column_assignment.iter_mut().enumerate() {
                *slot = pool[l];
            }
        }
        if let Some(row_assignment) = try_route(fm, cm, &column_assignment, mapper) {
            return Some(RedundantMapping {
                row_assignment,
                column_assignment,
                routes_tried: attempt + 1,
            });
        }
    }
    None
}

/// Re-indexes the CM through the column route and runs the row mapper.
fn try_route(
    fm: &FunctionMatrix,
    cm: &CrossbarMatrix,
    column_assignment: &[usize],
    mapper: MapperKind,
) -> Option<RowAssignment> {
    let mut routed = CrossbarMatrix::perfect(cm.num_rows(), fm.num_cols());
    for (l, &p) in column_assignment.iter().enumerate() {
        let plane = cm.defect_plane(p);
        for r in 0..cm.num_rows() {
            if bits::get_bit(plane, r) {
                routed.set_defective(r, l);
            }
        }
    }
    mapper.run(fm, &routed).assignment
}

/// Yield of the column-redundant mapping under a mixed defect regime:
/// `(spare_rows, spare_cols)` extra lines, `samples` Monte Carlo trials.
/// Returns the success fraction.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn column_redundancy_yield(
    fm: &FunctionMatrix,
    defect_rate: f64,
    stuck_closed_fraction: f64,
    spare_rows: usize,
    spare_cols: usize,
    samples: usize,
    mapper: MapperKind,
    seed: u64,
) -> f64 {
    use xbar_device::{Crossbar, DefectProfile};
    let rows = fm.num_rows() + spare_rows;
    let cols = fm.num_cols() + spare_cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut successes = 0usize;
    for _ in 0..samples {
        let profile = DefectProfile {
            rate: defect_rate,
            stuck_closed_fraction,
        };
        let xbar = Crossbar::with_random_defects(rows, cols, profile, &mut rng);
        let cm = CrossbarMatrix::from_crossbar(&xbar);
        if map_with_column_redundancy(fm, &cm, mapper, 4, seed ^ 0xC01).is_some() {
            successes += 1;
        }
    }
    successes as f64 / samples.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_device::{Crossbar, Defect};
    use xbar_logic::{cube, Cover};

    fn sample_fm() -> FunctionMatrix {
        let cover = Cover::from_cubes(
            3,
            2,
            [
                cube("11- 10"),
                cube("-01 10"),
                cube("0-0 01"),
                cube("-11 01"),
            ],
        )
        .expect("dims");
        FunctionMatrix::from_cover(&cover)
    }

    #[test]
    fn identity_width_behaves_like_plain_mapping() {
        let fm = sample_fm();
        let cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
        let mapping =
            map_with_column_redundancy(&fm, &cm, MapperKind::Exact, 4, 0).expect("clean maps");
        assert_eq!(mapping.routes_tried, 1);
        assert!(
            // Validity must be checked through the column route; with the
            // identity width the greedy route may still permute columns, so
            // re-check through the route.
            mapping.row_assignment.is_valid(&fm, &cm)
                || try_route(&fm, &cm, &mapping.column_assignment, MapperKind::Exact).is_some()
        );
    }

    #[test]
    fn spare_column_rescues_a_stuck_closed_column_kill() {
        let fm = sample_fm();
        // Physical fabric: optimum rows, one spare column. Stuck-closed in
        // column 0 (logical x1's home) of some row.
        let mut xbar = Crossbar::new(fm.num_rows() + 1, fm.num_cols() + 1);
        xbar.set_defect(2, 0, Defect::StuckClosed);
        let cm = CrossbarMatrix::from_crossbar(&xbar);
        // Without column redundancy this is unmappable: logical col 0 is
        // needed by minterm 0 but dead everywhere. (Plain mapping sees only
        // the first `logical` columns — the truncated CM.)
        let mut truncated = CrossbarMatrix::perfect(cm.num_rows(), fm.num_cols());
        for r in 0..cm.num_rows() {
            for c in 0..fm.num_cols() {
                if !cm.row(r).get(c) {
                    truncated.set_defective(r, c);
                }
            }
        }
        assert!(crate::mapping::map_exact(&fm, &truncated)
            .assignment
            .is_none());
        // With the spare column, routing recovers.
        let mapping = map_with_column_redundancy(&fm, &cm, MapperKind::Exact, 8, 1)
            .expect("spare column must rescue");
        assert!(
            !mapping.column_assignment.contains(&0),
            "the poisoned physical column 0 must be avoided"
        );
    }

    #[test]
    fn yield_with_column_spares_beats_rows_only_under_stuck_closed() {
        let fm = sample_fm();
        let rows_only = column_redundancy_yield(&fm, 0.06, 0.4, 4, 0, 150, MapperKind::Exact, 3);
        let both = column_redundancy_yield(&fm, 0.06, 0.4, 4, 4, 150, MapperKind::Exact, 3);
        assert!(
            both > rows_only,
            "column spares must add yield under stuck-closed: {both} vs {rows_only}"
        );
    }

    #[test]
    fn insufficient_fabric_returns_none() {
        let fm = sample_fm();
        let cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols() - 1);
        assert!(map_with_column_redundancy(&fm, &cm, MapperKind::Exact, 2, 0).is_none());
        let cm = CrossbarMatrix::perfect(fm.num_rows() - 1, fm.num_cols());
        assert!(map_with_column_redundancy(&fm, &cm, MapperKind::Exact, 2, 0).is_none());
    }
}
