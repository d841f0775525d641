//! The yield-oracle service: a queued, cache-fronted daemon over the
//! sharded Monte Carlo engine.
//!
//! `xbar serve` runs a long-lived daemon speaking newline-delimited JSON
//! ([`protocol`], schema `xbar-svc/1`) on a `std::net::TcpListener`;
//! `xbar submit` is the matching client. A submitted experiment request
//! flows through three layers:
//!
//! 1. **Cache** ([`cache`]): artifacts are content-addressed by the
//!    canonical deterministic `params` echo of the `xbar-artifact/1`
//!    envelope — byte-reproducibility makes a finished response valid
//!    forever, so a repeated submit is answered byte-identical from disk
//!    without spawning any work.
//! 2. **Queue** ([`queue`]): a FIFO job queue with bounded worker slots.
//!    Identical in-flight requests coalesce onto one job; otherwise an
//!    idle worker claims the oldest queued job.
//! 3. **Execution** ([`server`]): each job runs through the existing
//!    registry + sharded-coordinator machinery with a per-job run
//!    directory under the service work dir — the same run-directory
//!    claim, retry/timeout/resume semantics as `xbar mc coordinate`; the
//!    directory goes once the artifact is cached. Progress is
//!    streamed to waiting clients as periodic `progress` events, and the
//!    final response carries the scheduler's [`LaunchReport`] counters.
//!    A daemon killed mid-job leaves resumable shard checkpoints, and the
//!    kernel releases its claim on the run directory: restart it on the
//!    same work dir and resubmit.
//!
//! [`LaunchReport`]: crate::launch::LaunchReport

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{cache_key, ArtifactCache, CacheKey};
pub use client::submit_main;
pub use protocol::{Request, PROTOCOL};
pub use queue::{JobQueue, JobState};
pub use server::{serve_main, start, ServeOptions, ServiceHandle};
