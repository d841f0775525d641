//! The scheduler: the one event loop that dispatches shards, for both
//! `mc launch` and `mc coordinate` (a launch over the implicit fleet
//! `local*N`, see [`crate::shard::coordinator`]) and the service's
//! sharded jobs.
//!
//! It dispatches over transports onto a health-tracked host pool with the
//! deterministic [`backoff_delay`] retry schedule, per-flight watchdog
//! deadlines, and the checkpoint/resume run directory, claimed for the run
//! and removed only once the result is published; it handles the remote
//! failure modes on top:
//!
//! * a flight's result is *untrusted bytes*: every returned stream is
//!   parsed and re-validated with [`ShardPartial::validate_for`], so a
//!   torn transfer is detected exactly like a torn local write;
//! * failures are charged to the host that produced them; the
//!   [`HostPool`] quarantines hosts that fail repeatedly so a dead node
//!   cannot eat a shard's whole retry budget — except the last host not
//!   quarantined, so a fleet never stalls waiting out a probation;
//! * stragglers past [`LaunchConfig::hedge_after`] are re-dispatched on
//!   a *different* host — first valid partial wins, the loser is
//!   cancelled and discarded (the exact-tiling merge validation would
//!   reject its duplicate anyway).

use super::pool::{HostCount, HostPool, HostSpec};
use super::transport::{Transport, WorkerJob};
use crate::experiments::table2::CircuitAccum;
use crate::shard::coordinator::{backoff_delay, merge_partials, MergedResult, RunReport, Worker};
use crate::shard::partial::ShardPartial;
use crate::shard::run_dir::RunDir;
use crate::shard::{McConfig, ShardSpec};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The implicit one-host fleet `local*<slots>` that `mc coordinate` and
/// the service's default job executor run on; `slots` defaults to the
/// machine's available parallelism.
pub(crate) fn local_fleet(slots: Option<usize>) -> Vec<HostSpec> {
    vec![HostSpec {
        name: "local".to_owned(),
        slots: slots.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        }),
    }]
}

/// How often the scheduler polls flights when nothing has changed.
const POLL_INTERVAL: Duration = Duration::from_millis(4);

/// Launcher configuration: the coordinator knobs plus the fleet and its
/// health/hedging policy.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// The campaign every shard must agree on.
    pub config: McConfig,
    /// Number of sample-range shards.
    pub shards: usize,
    /// Attempts per shard (first run + retries) before giving up.
    pub max_attempts: usize,
    /// The worker every dispatch runs.
    pub worker: Worker,
    /// Parent directory for run directories (checkpoints and resume live
    /// in [`campaign_run_dir`](crate::shard::coordinator::campaign_run_dir)
    /// beneath it, shared with `mc coordinate`); created if missing, never
    /// removed.
    pub work_dir: PathBuf,
    /// Extra arguments appended to every worker invocation.
    pub extra_worker_args: Vec<String>,
    /// Keep the run directory and its checkpoints after a successful
    /// campaign; otherwise they go once the merged result is returned.
    pub keep_partials: bool,
    /// Per-attempt wall-clock deadline; `None` disables the watchdog.
    pub shard_timeout: Option<Duration>,
    /// Re-dispatch a flight still running after this long onto a
    /// different host (first valid partial wins); `None` disables
    /// hedging.
    pub hedge_after: Option<Duration>,
    /// Reuse valid checkpoints already in the run directory.
    pub resume: bool,
    /// Base delay of the exponential retry backoff.
    pub retry_base: Duration,
    /// The fleet.
    pub hosts: Vec<HostSpec>,
    /// Consecutive failures that quarantine a host.
    pub quarantine_after: usize,
    /// How long a quarantined host sits out before probation.
    pub probation: Duration,
}

/// Launch counters: the coordinator's [`RunReport`] plus the remote
/// dimensions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchReport {
    /// The coordinator-shaped counters (`spawned` counts dispatched
    /// flights).
    pub base: RunReport,
    /// Hedged duplicate dispatches for straggler shards.
    pub hedges: usize,
    /// Flights discarded without blame: hedge losers and late results
    /// for already-completed shards.
    pub discards: usize,
    /// Per-host dispatch counters, in fleet order.
    pub hosts: Vec<HostCount>,
}

/// A shard waiting (or backing off) for a dispatch slot.
#[derive(Debug, Clone, Copy)]
struct QueueItem {
    spec: ShardSpec,
    attempt: usize,
    ready_at: Instant,
}

/// One live flight.
struct FlightSlot {
    spec: ShardSpec,
    attempt: usize,
    host: usize,
    started: Instant,
    deadline: Option<Instant>,
    hedged: bool,
    flight: Box<dyn super::transport::Flight>,
}

struct Launcher<'a> {
    cfg: &'a LaunchConfig,
    transport: &'a dyn Transport,
    /// The CLI verb prefixed to progress notes on stderr.
    label: &'static str,
    run_dir: &'a RunDir,
    pool: HostPool,
    queue: VecDeque<QueueItem>,
    flights: Vec<FlightSlot>,
    /// The validated winning partial per shard.
    partials: Vec<Option<ShardPartial>>,
    report: LaunchReport,
    permanent: Vec<usize>,
    last_error: String,
}

impl Launcher<'_> {
    /// The worker invocation for one shard: `mc shard`, the campaign's
    /// own flags ([`McConfig::campaign_args`]) and the slice; every
    /// partial streams back over the worker's stdout.
    fn job_for(&self, spec: &ShardSpec) -> WorkerJob {
        let mut args = vec!["mc".to_owned(), "shard".to_owned()];
        args.extend(self.cfg.config.campaign_args());
        args.extend([
            "--shard-index".to_owned(),
            spec.index.to_string(),
            "--num-shards".to_owned(),
            spec.num_shards.to_string(),
        ]);
        args.extend(self.cfg.extra_worker_args.iter().cloned());
        WorkerJob {
            binary: self.cfg.worker.binary.clone(),
            args,
        }
    }

    /// Records a failed attempt for a shard with no surviving sibling
    /// flight: backoff retry while attempts remain, else permanent.
    fn note_shard_failure(&mut self, spec: ShardSpec, attempt: usize, error: &str) {
        self.last_error = format!("shard {} (attempt {attempt}): {error}", spec.index);
        eprintln!("{}: {}", self.label, self.last_error);
        if attempt < self.cfg.max_attempts {
            self.report.base.retries += 1;
            let delay = backoff_delay(
                self.cfg.config.seed,
                spec.index,
                attempt,
                self.cfg.retry_base,
            );
            self.queue.push_back(QueueItem {
                spec,
                attempt: attempt + 1,
                ready_at: Instant::now() + delay,
            });
        } else {
            self.permanent.push(spec.index);
        }
    }

    /// True when another live flight is still working on the shard.
    fn has_sibling(&self, shard: usize) -> bool {
        self.flights.iter().any(|f| f.spec.index == shard)
    }

    /// Dispatches one attempt of `spec` to the host at `host`. Returns
    /// true when a flight started.
    fn dispatch(&mut self, host: usize, spec: ShardSpec, attempt: usize, hedged: bool) -> bool {
        let job = self.job_for(&spec);
        self.pool.note_dispatch(host);
        let name = self.pool.name(host).to_owned();
        match self.transport.dispatch(&name, &job) {
            Ok(flight) => {
                self.report.base.spawned += 1;
                let now = Instant::now();
                self.flights.push(FlightSlot {
                    spec,
                    attempt,
                    host,
                    started: now,
                    deadline: self.cfg.shard_timeout.map(|t| now + t),
                    hedged,
                    flight,
                });
                true
            }
            Err(e) => {
                self.pool.note_failure(host);
                let error = format!("dispatch to {name} failed: {e}");
                if hedged || self.has_sibling(spec.index) {
                    // The primary flight is still working on the shard;
                    // the failed hedge costs the host, not the shard.
                    eprintln!("{}: shard {} hedge: {error}", self.label, spec.index);
                } else {
                    self.note_shard_failure(spec, attempt, &error);
                }
                false
            }
        }
    }

    /// Fills free host slots with due queue items.
    fn fill(&mut self) -> bool {
        let mut progressed = false;
        loop {
            let now = Instant::now();
            let Some(pos) = self.queue.iter().position(|item| item.ready_at <= now) else {
                break;
            };
            let Some(host) = self.pool.pick() else {
                break;
            };
            let item = self.queue.remove(pos).expect("position is in range");
            progressed = true;
            self.dispatch(host, item.spec, item.attempt, false);
        }
        self.report.base.max_inflight_observed = self
            .report
            .base
            .max_inflight_observed
            .max(self.flights.len());
        progressed
    }

    /// Cancels and discards every other flight still working on `shard`
    /// (the hedge losers once a winner landed).
    fn cancel_siblings(&mut self, shard: usize) {
        let mut index = 0;
        while index < self.flights.len() {
            if self.flights[index].spec.index == shard {
                let mut slot = self.flights.swap_remove(index);
                slot.flight.cancel();
                self.pool.note_discard(slot.host);
                self.report.discards += 1;
            } else {
                index += 1;
            }
        }
    }

    /// Handles one resolved flight.
    fn finish_flight(&mut self, mut slot: FlightSlot, result: Result<Vec<u8>, String>) {
        let host_name = self.pool.name(slot.host).to_owned();
        if self.partials[slot.spec.index].is_some() {
            // The shard is already done (a sibling won): whatever this
            // flight brought back is discarded unseen — the winner's
            // partial is checkpointed and merged, nothing else.
            self.pool.note_discard(slot.host);
            self.report.discards += 1;
            return;
        }
        let outcome = result.and_then(|bytes| {
            let text = String::from_utf8(bytes)
                .map_err(|e| format!("stream from {host_name} is not UTF-8: {e}"))?;
            let partial = ShardPartial::from_json(&text)
                .map_err(|e| format!("stream from {host_name}: {e}"))?;
            partial.validate_for(&self.cfg.config, &slot.spec)?;
            Ok((text, partial))
        });
        match outcome {
            Ok((text, partial)) => {
                // Checkpoint the winning partial in the run directory, so
                // `--resume` (by either verb) and the service restart flow
                // pick it up.
                if let Err(e) = self.run_dir.save(slot.spec.index, &text) {
                    eprintln!("{}: {e} (continuing)", self.label);
                }
                self.pool.note_success(slot.host);
                self.partials[slot.spec.index] = Some(partial);
                self.cancel_siblings(slot.spec.index);
            }
            Err(e) => {
                self.pool.note_failure(slot.host);
                if self.has_sibling(slot.spec.index) {
                    // A sibling is still flying: charge the host, let the
                    // sibling decide the shard's fate.
                    eprintln!(
                        "{}: shard {} ({}): {e}",
                        self.label,
                        slot.spec.index,
                        if slot.hedged { "hedge" } else { "primary" }
                    );
                } else {
                    self.note_shard_failure(slot.spec, slot.attempt, &e);
                }
            }
        }
        // `slot.flight` is dropped here; a resolved ProcFlight has
        // already been reaped.
        slot.flight.cancel();
    }

    /// Polls every flight: resolves exits, kills flights past the
    /// watchdog deadline.
    fn reap(&mut self) -> bool {
        let mut progressed = false;
        let mut index = 0;
        while index < self.flights.len() {
            if let Some(result) = self.flights[index].flight.poll() {
                let slot = self.flights.swap_remove(index);
                progressed = true;
                self.finish_flight(slot, result);
                continue;
            }
            let overdue = self.flights[index]
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline);
            if overdue {
                let mut slot = self.flights.swap_remove(index);
                progressed = true;
                slot.flight.cancel();
                self.report.base.timeouts += 1;
                let timeout = self
                    .cfg
                    .shard_timeout
                    .expect("a deadline implies a configured timeout");
                self.pool.note_failure(slot.host);
                if self.partials[slot.spec.index].is_some() || self.has_sibling(slot.spec.index) {
                    // The shard is covered elsewhere; the hung flight
                    // costs only the host that stalled it.
                    eprintln!(
                        "{}: shard {} straggler on {} hit the {timeout:?} watchdog \
                         deadline; flight killed",
                        self.label,
                        slot.spec.index,
                        self.pool.name(slot.host)
                    );
                } else {
                    self.note_shard_failure(
                        slot.spec,
                        slot.attempt,
                        &format!("hit the {timeout:?} watchdog deadline; flight killed"),
                    );
                }
            } else {
                index += 1;
            }
        }
        progressed
    }

    /// Re-dispatches stragglers: a flight past `hedge_after` whose shard
    /// has no sibling yet gets a duplicate on a *different* host.
    fn hedge(&mut self) -> bool {
        let Some(after) = self.cfg.hedge_after else {
            return false;
        };
        let now = Instant::now();
        let candidates: Vec<(ShardSpec, usize, usize)> = self
            .flights
            .iter()
            .filter(|f| {
                now.duration_since(f.started) >= after
                    && self.partials[f.spec.index].is_none()
                    && self
                        .flights
                        .iter()
                        .filter(|g| g.spec.index == f.spec.index)
                        .count()
                        == 1
            })
            .map(|f| (f.spec, f.attempt, f.host))
            .collect();
        let mut progressed = false;
        for (spec, attempt, straggler_host) in candidates {
            let Some(other) = self.pool.pick_filtered(&|i| i != straggler_host) else {
                continue;
            };
            if self.dispatch(other, spec, attempt, true) {
                self.report.hedges += 1;
                progressed = true;
                eprintln!(
                    "{}: shard {} straggling on {} — hedged onto {}",
                    self.label,
                    spec.index,
                    self.pool.name(straggler_host),
                    self.pool.name(other)
                );
            }
        }
        progressed
    }

    /// When nothing moved, how long to sleep: the short poll tick while
    /// flights are live, else until the earliest backoff expiry. The pool
    /// never quarantines its last available host, so a due item always
    /// finds one and the wait is never a probation.
    fn idle_wait(&self) -> Duration {
        if !self.flights.is_empty() {
            return POLL_INTERVAL;
        }
        self.queue
            .iter()
            .map(|item| item.ready_at)
            .min()
            .map_or(POLL_INTERVAL, |ready| {
                ready
                    .saturating_duration_since(Instant::now())
                    .max(POLL_INTERVAL)
            })
    }

    /// Kills and discards every live flight (fail-fast path; checkpoints
    /// on disk stay for `--resume`).
    fn abort_flights(&mut self) {
        for slot in &mut self.flights {
            slot.flight.cancel();
            self.pool.note_discard(slot.host);
        }
        self.flights.clear();
    }
}

/// Runs the campaign over the fleet and returns the merged result plus
/// the launch report. The merged artifact is byte-identical to a
/// monolithic run whatever faults occurred — every returned stream is
/// re-validated, duplicates cannot survive the exact-tiling merge, and
/// the statistics are integer-exact under any host assignment.
///
/// # Errors
///
/// Reports configuration problems, unwritable work directories, run
/// directories owned by a different campaign, and permanently failing
/// shards (with the last per-shard error, dispatch-level transport errors
/// included).
pub fn run_launch_with_report(
    cfg: &LaunchConfig,
    transport: &dyn Transport,
) -> Result<(MergedResult, LaunchReport), String> {
    run_scheduler(cfg, transport, "mc launch", |_, _| Ok(()))
}

/// [`run_launch_with_report`] with the CLI verb (`label`) that prefixes
/// the scheduler's progress notes on stderr, and `publish`, which writes
/// the result while the run directory is claimed. The directory goes
/// (unless `keep_partials`) only once `publish` succeeded; its error keeps
/// every checkpoint for `--resume`.
pub(crate) fn run_scheduler(
    cfg: &LaunchConfig,
    transport: &dyn Transport,
    label: &'static str,
    publish: impl FnOnce(&MergedResult, &LaunchReport) -> Result<(), String>,
) -> Result<(MergedResult, LaunchReport), String> {
    if cfg.shards == 0 {
        return Err("need at least one shard".to_owned());
    }
    if cfg.max_attempts == 0 {
        return Err("need at least one attempt per shard".to_owned());
    }
    if cfg.hosts.is_empty() {
        return Err("need at least one host".to_owned());
    }
    if cfg.quarantine_after == 0 {
        return Err("need a quarantine threshold of at least one failure".to_owned());
    }
    cfg.config.validate()?;
    let host_strings: Vec<String> = cfg.hosts.iter().map(HostSpec::render).collect();
    // Claimed until it is removed or this function returns: a concurrent
    // scheduler on the same campaign fails fast instead of racing on it.
    let run_dir = RunDir::claim(&cfg.work_dir, &cfg.config, cfg.shards, &host_strings)?;

    let specs = ShardSpec::partition(cfg.config.samples, cfg.shards);
    let mut launcher = Launcher {
        cfg,
        transport,
        label,
        run_dir: &run_dir,
        pool: HostPool::new(&cfg.hosts, cfg.quarantine_after, cfg.probation),
        queue: VecDeque::with_capacity(specs.len()),
        flights: Vec::new(),
        partials: vec![None; specs.len()],
        report: LaunchReport::default(),
        permanent: Vec::new(),
        last_error: String::new(),
    };

    let start = Instant::now();
    for spec in specs {
        // Empty shards (more shards than samples) need no dispatch.
        if spec.is_empty() {
            let circuits = cfg.config.circuits.iter();
            let empty = ShardPartial {
                config: cfg.config.clone(),
                spec,
                circuits: circuits.map(|c| (c.clone(), CircuitAccum::new())).collect(),
            };
            launcher.partials[spec.index] = Some(empty);
            continue;
        }
        // With `resume`, a valid checkpoint is reused, not recomputed.
        if let Some(partial) = cfg.resume.then(|| run_dir.checkpoint(&spec)).flatten() {
            launcher.partials[spec.index] = Some(partial);
            launcher.report.base.reused += 1;
        } else {
            launcher.queue.push_back(QueueItem {
                spec,
                attempt: 1,
                ready_at: start,
            });
        }
    }

    // The event loop: dispatch due work onto healthy hosts, poll flights,
    // hedge stragglers, sleep only when nothing moved. Terminates because
    // every shard either completes or exhausts its attempts (quarantine
    // never takes the last available host, so it cannot block dispatch).
    while launcher.permanent.is_empty()
        && (!launcher.queue.is_empty() || !launcher.flights.is_empty())
    {
        let filled = launcher.fill();
        let reaped = launcher.reap();
        let hedged = launcher.hedge();
        if !filled && !reaped && !hedged {
            std::thread::sleep(launcher.idle_wait());
        }
    }

    if !launcher.permanent.is_empty() {
        launcher.abort_flights();
        launcher.permanent.sort_unstable();
        launcher.permanent.dedup();
        let indices: Vec<String> = launcher.permanent.iter().map(ToString::to_string).collect();
        return Err(format!(
            "shard(s) {} failed permanently after {} attempt(s); last error: {}",
            indices.join(", "),
            cfg.max_attempts,
            launcher.last_error
        ));
    }

    launcher.report.hosts = launcher.pool.counts();
    let report = launcher.report;
    let partials: Vec<ShardPartial> = launcher
        .partials
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.ok_or_else(|| {
                format!(
                    "internal launcher invariant violated: shard {index} has no partial \
                     although scheduling reported the campaign complete — please report this bug"
                )
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let merged = merge_partials(&cfg.config, &partials)?;
    publish(&merged, &report)?;
    if !cfg.keep_partials {
        run_dir.remove();
    }
    Ok((merged, report))
}
