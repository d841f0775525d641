//! # memristive-xbar-repro
//!
//! Umbrella crate for the reproduction of Tunali & Altun, *"Logic Synthesis
//! and Defect Tolerance for Memristive Crossbar Arrays"* (DATE 2018).
//!
//! The workspace is organised as one crate per subsystem; this crate
//! re-exports them for convenience and hosts the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`):
//!
//! * [`logic`] — cubes, covers, espresso-style minimization, PLA I/O,
//!   benchmark registry (`xbar-logic`);
//! * [`netlist`] — factoring and NAND technology mapping (`xbar-netlist`);
//! * [`device`] — memristor model and executable crossbar fabric
//!   (`xbar-device`);
//! * [`assign`] — Munkres and Hopcroft–Karp (`xbar-assign`);
//! * [`core`] — the paper's contribution: two-/multi-level synthesis, the
//!   defect model and the HBA/EA defect-tolerant mappers (`xbar-core`);
//! * [`exp`] — the Monte Carlo experiment harness (`xbar-exp`).
//!
//! ## Quickstart
//!
//! ```
//! use memristive_xbar_repro::core::{map_hybrid, CrossbarMatrix, FunctionMatrix};
//! use memristive_xbar_repro::logic::{cube, Cover};
//!
//! // f = x0·x1 + x̄2  mapped onto a defect-free optimum-size crossbar.
//! let cover = Cover::from_cubes(3, 1, [cube("11- 1"), cube("--0 1")])?;
//! let fm = FunctionMatrix::from_cover(&cover);
//! let cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
//! assert!(map_hybrid(&fm, &cm).is_success());
//! # Ok::<(), memristive_xbar_repro::logic::LogicError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use xbar_assign as assign;
pub use xbar_core as core;
pub use xbar_device as device;
pub use xbar_exp as exp;
pub use xbar_logic as logic;
pub use xbar_netlist as netlist;
