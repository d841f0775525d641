//! # xbar-core
//!
//! The primary contribution of Tunali & Altun, *"Logic Synthesis and Defect
//! Tolerance for Memristive Crossbar Arrays"* (DATE 2018), reimplemented on
//! top of the workspace substrates:
//!
//! * [`TwoLevelLayout`] — the paper's area-cost and inclusion-ratio model
//!   (`area = (P + K)(2I + 2K)`, reproducing every Table I/II figure);
//! * [`synthesize_two_level`] — two-level synthesis with the dual
//!   (negated-circuit) optimization of §I;
//! * [`MultiLevelDesign`] — the multi-level design of §III (factored NAND
//!   networks on a single crossbar with connection columns);
//! * [`FunctionMatrix`] / [`CrossbarMatrix`] — the mapping formalism of
//!   Fig. 8, with stuck-open and stuck-closed defect semantics (§IV-A);
//! * [`map_hybrid`] — **HBA**, Algorithm 1: greedy minterm placement with
//!   single-level backtracking plus exact Munkres output assignment;
//! * [`map_exact`] — **EA**: the full matching problem, solved as a bitset
//!   maximum matching;
//! * [`MatchEngine`] — the reusable bitset matching engine behind both
//!   mappers, meant to be reused across a loop's calls: packed
//!   compatibility adjacency built word-parallel from the crossbar's
//!   column defect bitplanes (whole for EA, with a Hall fast-fail on
//!   empty candidate rows; on demand for HBA), with the FM structure
//!   cached per campaign ([`MatchEngine::prepare_fm`]), and zero
//!   per-sample heap allocation in Monte Carlo loops
//!   ([`reference`](mod@reference) keeps the dense originals as its test
//!   oracle);
//! * [`map_naive`] — the defect-unaware baseline of Fig. 7(a);
//! * [`program_two_level`] / [`verify_against_cover`] — execute a mapping
//!   on the simulated fabric and check functional correctness;
//! * [`estimate_yield`] / [`map_multilevel`] — the paper's two future-work
//!   items: redundancy/yield analysis and defect-tolerant multi-level
//!   mapping;
//! * [`map_with_column_redundancy`] — spare-column routing, the remedy for
//!   stuck-at-closed column kills that row spares cannot provide.
//!
//! ## Example: defect-tolerant mapping end to end
//!
//! ```
//! use xbar_core::{map_hybrid, program_two_level, verify_against_cover,
//!                 CrossbarMatrix, FunctionMatrix, VerifyMode};
//! use xbar_device::{Crossbar, DefectProfile};
//! use xbar_logic::{cube, Cover};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cover = Cover::from_cubes(3, 2,
//!     [cube("11- 10"), cube("-01 10"), cube("0-0 01"), cube("-11 01")])?;
//! let fm = FunctionMatrix::from_cover(&cover);
//!
//! // A 10%-defective optimum-size crossbar (6 × 10).
//! let mut rng = StdRng::seed_from_u64(7);
//! let xbar = Crossbar::with_random_defects(6, 10,
//!     DefectProfile::stuck_open_only(0.1), &mut rng);
//! let cm = CrossbarMatrix::from_crossbar(&xbar);
//!
//! if let Some(assignment) = map_hybrid(&fm, &cm).assignment {
//!     let mut machine = program_two_level(&cover, &assignment, xbar)?;
//!     assert_eq!(
//!         verify_against_cover(&mut machine, &cover, VerifyMode::Exhaustive, 0),
//!         None,
//!     );
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

/// Shared packed-`u64` bitset primitives (canonical implementation in
/// [`xbar_assign::bits`]; re-exported here so `xbar_core` code and
/// downstream crates address one audited helper set).
pub mod bits {
    pub use xbar_assign::bits::*;
}

mod column_redundancy;
pub mod digest;
mod engine;
mod layout;
mod mapping;
mod matrices;
mod multilevel;
mod redundancy;
pub mod stats;
mod synthesis;
mod verify;

pub use column_redundancy::{
    column_redundancy_yield, map_with_column_redundancy, RedundantMapping,
};
pub use digest::{content_key, fnv1a_128};
pub use engine::MatchEngine;
pub use layout::TwoLevelLayout;
pub use mapping::reference;
pub use mapping::{
    map_exact, map_hybrid, map_hybrid_with, map_naive, mapping_feasible, HybridOptions,
    MappingOutcome, MappingStats, RowAssignment,
};
pub use matrices::{
    row_compatible, BitRow, CrossbarMatrix, DefectModelKind, DefectModelSpec, DefectSampler,
    FunctionMatrix, SampleStream,
};
pub use multilevel::{map_multilevel, MultiLevelDesign, MultiLevelMapping};
pub use redundancy::{estimate_yield, redundancy_sweep, MapperKind, YieldConfig, YieldResult};
pub use stats::{Moments, SuccessCount};
pub use synthesis::{synthesize_two_level, SynthesisOptions, TwoLevelDesign};
pub use verify::{program_two_level, verify_against_cover, VerifyMode};
