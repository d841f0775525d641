//! Multi-host launcher: fault-tolerant remote dispatch over the sharded
//! Monte Carlo engine.
//!
//! The launcher is the one scheduler: it dispatches shards through a
//! [`Transport`] onto a fleet of named hosts, and `xbar mc coordinate` is
//! a launch over the implicit one-host fleet `local*N` — same campaign
//! vocabulary, run directory, checkpoints, lock, and deterministic retry
//! backoff:
//!
//! * [`transport`] — the dispatch abstraction ([`Transport`]/[`Flight`]),
//!   its two real implementations ([`LocalProc`] subprocesses and the
//!   [`Exec`] command template that covers `ssh` without new
//!   dependencies), and the deterministic fault injector ([`Faulty`]);
//! * [`pool`] — the [`HostPool`] with per-host health (healthy → suspect
//!   → quarantined → timed probation) and in-flight slot bounds;
//! * [`scheduler`] — the event loop: dispatch, watchdog deadlines,
//!   backoff retries, hedged re-dispatch of stragglers, torn-transfer
//!   detection on every returned stream, and one flat merge of the
//!   winning partials
//!   ([`merge_partials`](crate::shard::coordinator::merge_partials));
//! * [`cli`] — `xbar mc launch`.
//!
//! The hard invariant, pinned by tests and the CI loopback smoke: the
//! merged artifacts are **byte-identical** to a monolithic run under
//! every tolerated fault — dropped dispatches, mid-stream truncation,
//! host death mid-campaign, hung flights, duplicated hedge partials.

pub mod cli;
pub mod pool;
pub mod scheduler;
pub mod transport;

pub use pool::{parse_hosts, HostCount, HostHealth, HostPool, HostSpec};
pub use scheduler::{run_launch_with_report, LaunchConfig, LaunchReport};
pub use transport::{Exec, FaultKind, FaultPlan, Faulty, Flight, LocalProc, Transport, WorkerJob};
