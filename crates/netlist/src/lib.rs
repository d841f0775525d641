//! # xbar-netlist
//!
//! Multi-level Boolean network substrate — the stand-in for Berkeley ABC in
//! the reproduction of Tunali & Altun (DATE 2018).
//!
//! The paper's multi-level crossbar design consumes a NAND-only netlist
//! ("we force ABC to use a set of NAND gates which have fan-in sizes 2 to
//! n"). This crate produces such netlists from two-level covers:
//!
//! * [`Network`] — NAND-only DAG with evaluation, depth/fan-in statistics
//!   and the [`MultiLevelCost`] crossbar area model (`rows = G + O`,
//!   `cols = 2I + C + 2O`, calibrated on the paper's Fig. 5 example);
//! * [`kernels`](crate::kernels()) / [`algebraic_divide`] — algebraic
//!   division and kernel extraction;
//! * [`factor_cover`] — good-factor style factoring (SOP → [`Expr`]);
//! * [`map_cover`] — polarity-aware NAND mapping with structural hashing
//!   and bounded fan-in;
//! * [`t481_analog`] / [`cordic_analog`] — structural analogs of the two
//!   Table I circuits that demonstrate the multi-level-wins crossover.
//!
//! ## Example
//!
//! ```
//! use xbar_logic::{cube, Cover};
//! use xbar_netlist::{map_cover, MapOptions, MultiLevelCost};
//!
//! // ac + ad + bc + bd factors to (a+b)(c+d) and maps to 4 NAND gates
//! // (two ORs, the combining NAND, one inverter).
//! let cover = Cover::from_cubes(4, 1,
//!     [cube("1-1- 1"), cube("1--1 1"), cube("-11- 1"), cube("-1-1 1")])?;
//! let net = map_cover(&cover, &MapOptions::default());
//! assert!(net.gate_count() <= 4);
//! assert_eq!(net.evaluate(0b0101), vec![true]); // a·c
//! # Ok::<(), xbar_logic::LogicError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod analogs;
mod factor;
pub mod kernels;
mod nand_map;
mod network;

pub use analogs::{cordic_analog, cordic_analog_reference, t481_analog, t481_analog_reference};
pub use factor::{factor_cover, factor_sop, Expr};
pub use kernels::{algebraic_divide, kernels, AlgCube, AlgSop, LiteralId};
pub use nand_map::{flat_expr, map_cover, map_exprs, MapOptions};
pub use network::{MultiLevelCost, NandGate, NetSignal, Network};
