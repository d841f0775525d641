//! # xbar-exp
//!
//! Experiment harness reproducing every table and figure of Tunali &
//! Altun (DATE 2018), unified behind the typed [`experiment::Experiment`]
//! API and the single `xbar` binary:
//!
//! * `xbar list` / `xbar describe <exp>` — the registry;
//! * `xbar run <exp> [--samples N --seed N --defect-rate F --quick
//!   --json --out DIR]` — any experiment, with a canonical
//!   machine-readable artifact;
//! * `xbar mc shard|coordinate` — fault-tolerant process-sharded Monte
//!   Carlo on this machine (watchdog timeouts, bounded concurrency,
//!   backoff retry, checkpoint/resume — see [`shard::coordinator`]); every
//!   `mc` verb describes its campaign with `xbar run table2`'s flags;
//! * `xbar mc launch` — multi-host dispatch through the same scheduler
//!   (`mc coordinate` is a launch over the fleet `local*N`): a
//!   pluggable transport (local subprocesses or an `ssh`-style command
//!   template), per-host health tracking with quarantine, and hedged
//!   re-dispatch of stragglers — see [`launch`];
//! * `xbar serve` / `xbar submit` — the yield-oracle service: a queued,
//!   cache-fronted daemon over the sharded engine, speaking
//!   newline-delimited JSON (`xbar-svc/1`) on a TCP socket — see
//!   [`service`].
//!
//! | Experiment | `xbar run …` |
//! |---|---|
//! | Table I (benchmark areas) | `table1` |
//! | Table II (HBA vs EA) | `table2` |
//! | Fig. 1 (device I-V) | `fig1` |
//! | Fig. 2/4 (state machines) | `fig2_fig4` |
//! | Fig. 3 (two-level example) | `fig3` |
//! | Fig. 5 (multi-level example) | `fig5` |
//! | Fig. 6 (area Monte Carlo) | `fig6` |
//! | Fig. 7 (defect mapping example) | `fig7` |
//! | Fig. 8 (matching matrices) | `fig8` |
//! | Ext-A (yield vs redundancy) | `ext_yield_redundancy` |
//! | Ext-B (multi-level defects) | `ext_multilevel_defects` |
//! | Ext-C (HBA ablations) | `ext_ablation_hba` |
//! | Ext-D (analog validation) | `ext_analog_validation` |
//! | Ext-E (column redundancy) | `ext_column_redundancy` |
//! | Ext-F (defect-map extraction) | `ext_defect_scan` |
//! | Yield estimation building block | `estimate_yield` |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod atomic;
mod cli;
pub mod experiment;
pub mod experiments;
pub mod launch;
mod mc;
pub mod service;
pub mod shard;
mod table;
#[cfg(test)]
mod totality;

pub use cli::{run_cli, ExpArgs};
pub use experiment::{
    find_experiment, registry, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter,
};
pub use mc::{
    monte_carlo, monte_carlo_range, monte_carlo_range_with, monte_carlo_with, sample_seed,
};
pub use shard::{McConfig, ShardSpec};
pub use table::{pct, secs, Table};
