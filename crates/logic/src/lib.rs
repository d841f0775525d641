//! # xbar-logic
//!
//! Two-level Boolean logic substrate for the memristive-crossbar
//! reproduction of Tunali & Altun, *"Logic Synthesis and Defect Tolerance
//! for Memristive Crossbar Arrays"* (DATE 2018).
//!
//! The paper maps espresso-minimized sums-of-products onto crossbar arrays.
//! This crate supplies everything up to (and including) that minimized SOP:
//!
//! * [`Cube`] / [`Cover`] — bit-packed multi-output product terms and
//!   sums-of-products, the source of the paper's *function matrix*;
//! * [`is_tautology`] / [`complement`] / [`complement_multi`] — the cube
//!   calculus behind minimization and the paper's dual (negated-circuit)
//!   optimization;
//! * [`minimize`] — an espresso-style EXPAND/IRREDUNDANT/REDUCE minimizer
//!   (the stand-in for espresso itself);
//! * [`Pla`] — reader/writer for the espresso PLA benchmark format;
//! * [`TruthTable`] — dense reference model for exhaustive checks;
//! * [`RandomSopSpec`] / [`CalibratedTwinSpec`] — the Monte Carlo workload
//!   generators of Fig. 6 and the statistical benchmark twins of Table II;
//! * [`bench_reg`] — the registry of the paper's benchmark circuits with all
//!   published statistics.
//!
//! ## Example
//!
//! ```
//! use xbar_logic::{Cover, cube, minimize, MinimizeOptions};
//!
//! // f = x̄0x̄1 + x̄0x1 collapses to x̄0.
//! let on = Cover::from_cubes(2, 1, [cube("00 1"), cube("01 1")])?;
//! let dc = Cover::new(2, 1);
//! let minimized = minimize(&on, &dc, MinimizeOptions::default());
//! assert_eq!(minimized.len(), 1);
//! # Ok::<(), xbar_logic::LogicError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bench_reg;
mod calculus;
mod cover;
mod cube;
mod error;
mod minimize;
pub mod pla;
mod random;
mod truth;

pub use calculus::{
    complement, complement_multi, cover_contains_cube, cover_contains_input_cube, is_tautology,
};
pub use cover::{cube, Cover};
pub use cube::{Cube, Phase, VarState};
pub use error::LogicError;
pub use minimize::{minimize, CoverCost, MinimizeOptions};
pub use pla::Pla;
pub use random::{CalibratedTwinSpec, LiteralDistribution, RandomSopSpec, FIG6_LITERAL_PROB};
pub use truth::{TruthTable, MAX_TRUTH_INPUTS};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Cube>();
        assert_send_sync::<crate::Cover>();
        assert_send_sync::<crate::TruthTable>();
        assert_send_sync::<crate::LogicError>();
    }
}
