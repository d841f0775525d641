//! # xbar-assign
//!
//! Assignment-problem substrate for the memristive-crossbar reproduction of
//! Tunali & Altun (DATE 2018).
//!
//! The paper's defect-tolerant mapping reduces output-row placement to a
//! minimum-cost assignment over the *matching matrix* and solves it with
//! Munkres' algorithm (their reference \[21\]); the exact algorithm (EA) does
//! the same for all rows. This crate provides:
//!
//! * [`munkres`] — `O(n²m)` Hungarian method on rectangular [`CostMatrix`]
//!   instances (rows ≤ cols), exact minimum cost; [`munkres_with_scratch`]
//!   is the allocation-free variant for hot loops;
//! * [`hopcroft_karp`] — `O(E√V)` maximum bipartite matching on
//!   [`BipartiteGraph`], the test oracle behind
//!   `xbar_core::reference::mapping_feasible`;
//! * [`hopcroft_karp_bitset`] / [`BitsetMatching`] — the same algorithm
//!   over *packed* `u64` adjacency rows, the engine behind the zero-cost
//!   (pure feasibility) mapping queries of `xbar-core`;
//! * [`brute_force_assignment`] — factorial oracle for tests;
//! * [`bits`] — the shared packed-`u64` bitset primitives every
//!   bit-parallel hot path (including `xbar_core`'s matching engine and
//!   column bitplanes) builds on.
//!
//! ## Example
//!
//! ```
//! use xbar_assign::{munkres, CostMatrix};
//!
//! // A 0/1 matching matrix: zero-cost assignment == valid mapping.
//! let m = CostMatrix::from_rows(2, 2, vec![0, 1, 1, 0]);
//! let sol = munkres(&m)?;
//! assert_eq!(sol.cost, 0);
//! # Ok::<(), xbar_assign::SolveAssignmentError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bits;
mod hopcroft_karp;
mod matrix;
mod munkres;

pub use hopcroft_karp::{
    adjacency_words, hopcroft_karp, hopcroft_karp_bitset, BipartiteGraph, BitsetMatching, Matching,
};
pub use matrix::CostMatrix;
pub use munkres::{
    brute_force_assignment, munkres, munkres_with_scratch, Assignment, MunkresScratch,
    SolveAssignmentError,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Munkres on a 0/1 feasibility matrix finds cost 0 exactly when
    /// Hopcroft–Karp finds a perfect matching.
    #[test]
    fn munkres_and_hopcroft_karp_agree_on_feasibility() {
        let mut state = 0x9e3779b97f4a7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..100 {
            let rows = (next() % 6 + 1) as usize;
            let cols = rows + (next() % 3) as usize;
            let density = 40 + next() % 50;
            let mut edges = Vec::new();
            let m = CostMatrix::from_fn(rows, cols, |r, c| {
                if next() % 100 < density {
                    edges.push((r, c));
                    0
                } else {
                    1
                }
            });
            let mut g = BipartiteGraph::new(rows, cols);
            for (r, c) in edges {
                g.add_edge(r, c);
            }
            let assignment_feasible = munkres(&m).expect("rows <= cols").cost == 0;
            let matching_perfect = hopcroft_karp(&g).is_perfect_on_left();
            assert_eq!(assignment_feasible, matching_perfect);
        }
    }

    /// Seeded property check (500 cases): the bitset Hopcroft–Karp finds a
    /// perfect left matching exactly when Munkres finds a zero-cost
    /// assignment of the 0/1 matrix — the equivalence the mapping engine
    /// relies on when it routes feasibility queries away from Munkres.
    #[test]
    fn bitset_hopcroft_karp_agrees_with_munkres_zero_cost() {
        let mut state = 0x5EED_CA5E_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = BitsetMatching::new();
        for case in 0..500 {
            // Push past one adjacency word every few cases.
            let cols = if case % 7 == 0 {
                64 + (next() % 30) as usize
            } else {
                1 + (next() % 10) as usize
            };
            let rows = 1 + (next() % cols.min(12) as u64) as usize;
            let density = 30 + next() % 65;
            let words = adjacency_words(cols);
            let mut adjacency = vec![0u64; rows * words];
            let m = CostMatrix::from_fn(rows, cols, |r, c| {
                if next() % 100 < density {
                    adjacency[r * words + c / 64] |= 1 << (c % 64);
                    0
                } else {
                    1
                }
            });
            let zero_cost = munkres(&m).expect("rows <= cols").cost == 0;
            let perfect = scratch.run(rows, cols, &adjacency) == rows;
            assert_eq!(zero_cost, perfect, "case {case}: {rows}x{cols}");
        }
    }
}
