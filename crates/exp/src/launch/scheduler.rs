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
//!
//! The loop wakes on events: when a pass moves nothing, it waits for a
//! process-wide signal that a worker's exit raises, or for its earliest
//! timer (a watchdog deadline, a hedge threshold, a backoff expiry).

use super::pool::{HostCount, HostPool, HostSpec};
use super::transport::{Transport, WorkerJob, FLIGHT_EXITS};
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

/// The longest the loop waits while flights are live: the bound for a
/// flight that never raises [`FLIGHT_EXITS`] (a wrapped or injected one).
const POLL_INTERVAL: Duration = Duration::from_millis(4);
/// The first re-poll delay after a wake that resolved nothing. A worker
/// closes its pipes, which raises the signal, a moment before it can be
/// reaped, so the loop re-polls at this delay, doubling up to
/// [`POLL_INTERVAL`], before it blocks on the signal again.
const RECHECK_DELAY: Duration = Duration::from_micros(50);

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

    /// When nothing moved, how long the loop may wait for a flight to
    /// exit: until its earliest timer (a watchdog deadline, a hedge
    /// threshold, a backoff expiry), and while flights are live at most
    /// [`POLL_INTERVAL`]. A due item waits for a slot, which a flight's
    /// exit frees; the pool never quarantines its last available host, so
    /// with no flight live a due item always finds one.
    fn idle_wait(&self) -> Duration {
        let now = Instant::now();
        let hedge_after = self.cfg.hedge_after;
        let flight_timers = self
            .flights
            .iter()
            .flat_map(|f| [f.deadline, hedge_after.map(|after| f.started + after)]);
        let next_timer = flight_timers
            .flatten()
            .chain(self.queue.iter().map(|item| item.ready_at))
            .filter(|&at| at > now)
            .min();
        let until_timer = next_timer.map_or(POLL_INTERVAL, |at| at - now);
        if self.flights.is_empty() {
            until_timer
        } else {
            until_timer.min(POLL_INTERVAL)
        }
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
    // hedge stragglers, wait only when nothing moved. Terminates because
    // every shard either completes or exhausts its attempts (quarantine
    // never takes the last available host, so it cannot block dispatch).
    //
    // The signal's count is read before each pass, so a worker that exits
    // during the pass cuts the next wait short. A raise since the previous
    // pass may come from a worker that is not reapable yet: until the
    // loop has re-polled at a doubling `recheck` delay, it does not block
    // on the count it read after that raise.
    let mut last_seen = FLIGHT_EXITS.count();
    let mut recheck = None;
    while launcher.permanent.is_empty()
        && (!launcher.queue.is_empty() || !launcher.flights.is_empty())
    {
        let seen = FLIGHT_EXITS.count();
        if seen != last_seen {
            last_seen = seen;
            recheck = Some(RECHECK_DELAY);
        }
        let filled = launcher.fill();
        let reaped = launcher.reap();
        let hedged = launcher.hedge();
        if filled || reaped || hedged {
            continue;
        }
        let wait = launcher.idle_wait();
        if let Some(delay) = recheck {
            FLIGHT_EXITS.wait_past(seen, delay.min(wait));
            recheck = Some(delay * 2).filter(|next| *next < POLL_INTERVAL);
        } else {
            #[cfg(test)]
            tests::before_block();
            FLIGHT_EXITS.wait_past(seen, wait);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::pool::{DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
    use crate::launch::transport::Flight;
    use crate::shard::coordinator::{render_stats_json, run_monolithic, DEFAULT_RETRY_BASE};
    use crate::shard::run_shard;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use xbar_core::{DefectModelSpec, SampleStream};

    thread_local! {
        /// Runs just before the loop on this thread blocks on the flight
        /// signal (any wait that is not a re-poll after a wake).
        static BEFORE_BLOCK: RefCell<Option<Box<dyn Fn()>>> = const { RefCell::new(None) };
    }

    pub(super) fn before_block() {
        BEFORE_BLOCK.with(|hook| {
            if let Some(hook) = hook.borrow().as_ref() {
                hook();
            }
        });
    }

    /// A flight that ends the way a worker process does: after `running`
    /// polls it raises the signal (its pipes closed) and answers `None`,
    /// answers `None` to one more poll (not reapable yet), and then
    /// resolves. `ready` counts flights waiting for that last poll.
    struct ExitingFlight {
        running: usize,
        polls: usize,
        partial: Vec<u8>,
        ready: Arc<AtomicUsize>,
    }

    impl Flight for ExitingFlight {
        fn poll(&mut self) -> Option<Result<Vec<u8>, String>> {
            self.polls += 1;
            if self.polls <= self.running {
                return None;
            }
            match self.polls - self.running {
                1 => FLIGHT_EXITS.raise(),
                2 => {
                    self.ready.fetch_add(1, Ordering::SeqCst);
                }
                _ => {
                    self.ready.fetch_sub(1, Ordering::SeqCst);
                    return Some(Ok(std::mem::take(&mut self.partial)));
                }
            }
            None
        }

        fn cancel(&mut self) {}
    }

    /// Dispatches [`ExitingFlight`]s carrying each shard's real partial;
    /// shard `i` runs for `8 * (i % 3)` polls before its worker exits.
    struct ExitingTransport {
        partials: Vec<Vec<u8>>,
        ready: Arc<AtomicUsize>,
    }

    impl Transport for ExitingTransport {
        fn dispatch(&self, _host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String> {
            let at = job.args.iter().position(|a| a == "--shard-index");
            let index: usize = at
                .and_then(|at| job.args.get(at + 1))
                .and_then(|text| text.parse().ok())
                .ok_or("no --shard-index")?;
            Ok(Box::new(ExitingFlight {
                running: 8 * (index % 3),
                polls: 0,
                partial: self.partials[index].clone(),
                ready: Arc::clone(&self.ready),
            }))
        }
    }

    fn launch_config(tag: &str, shards: usize, slots: usize) -> LaunchConfig {
        let work_dir =
            std::env::temp_dir().join(format!("xbar-scheduler-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work_dir);
        LaunchConfig {
            config: McConfig {
                samples: shards,
                seed: 11,
                defect_rate: 0.1,
                stream: SampleStream::V1,
                model: DefectModelSpec::default(),
                circuits: vec!["rd53".to_owned()],
            },
            shards,
            max_attempts: 1,
            worker: Worker::xbar(PathBuf::from("unused")),
            work_dir,
            extra_worker_args: Vec::new(),
            keep_partials: false,
            shard_timeout: None,
            hedge_after: None,
            resume: false,
            retry_base: DEFAULT_RETRY_BASE,
            hosts: local_fleet(Some(slots)),
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            probation: DEFAULT_PROBATION,
        }
    }

    /// A worker closes its pipes, which raises the signal, a moment
    /// before it can be reaped, so the first poll after the wake can
    /// still answer `None`. The loop must poll such a flight again before
    /// it blocks; a loop that blocks on the count it read after the wake
    /// sleeps out its whole wait once per flight.
    #[test]
    fn a_wake_that_resolves_nothing_is_polled_again_before_blocking() {
        let cfg = launch_config("wake", 12, 2);
        let ready = Arc::new(AtomicUsize::new(0));
        let transport = ExitingTransport {
            partials: ShardSpec::partition(cfg.config.samples, cfg.shards)
                .iter()
                .map(|spec| run_shard(&cfg.config, spec).to_json().into_bytes())
                .collect(),
            ready: Arc::clone(&ready),
        };
        let blocks = Rc::new(Cell::new(0));
        let lost_wakes = Rc::new(Cell::new(0));
        BEFORE_BLOCK.with(|hook| {
            let (blocks, lost_wakes) = (Rc::clone(&blocks), Rc::clone(&lost_wakes));
            *hook.borrow_mut() = Some(Box::new(move || {
                blocks.set(blocks.get() + 1);
                if ready.load(Ordering::SeqCst) > 0 {
                    lost_wakes.set(lost_wakes.get() + 1);
                }
            }));
        });
        let outcome = run_launch_with_report(&cfg, &transport);
        BEFORE_BLOCK.with(|hook| hook.borrow_mut().take());
        let _ = std::fs::remove_dir_all(&cfg.work_dir);

        let (merged, report) = outcome.expect("the campaign completes");
        assert_eq!(report.base.spawned, 12);
        assert_eq!(report.base.max_inflight_observed, 2);
        assert_eq!(
            render_stats_json(&merged),
            render_stats_json(&run_monolithic(&cfg.config))
        );
        assert!(blocks.get() > 0, "running flights leave the loop idle");
        assert_eq!(
            lost_wakes.get(),
            0,
            "the loop blocked while an exited flight waited to be polled again"
        );
    }

    #[test]
    fn the_idle_wait_runs_to_the_earliest_timer() {
        let mut cfg = launch_config("idle", 2, 1);
        cfg.hedge_after = Some(Duration::from_secs(5));
        cfg.shard_timeout = Some(Duration::from_secs(9));
        let run_dir = RunDir::claim(&cfg.work_dir, &cfg.config, cfg.shards, &[]).expect("claims");
        let specs = ShardSpec::partition(cfg.config.samples, cfg.shards);
        let transport = ExitingTransport {
            partials: vec![Vec::new(); cfg.shards],
            ready: Arc::new(AtomicUsize::new(0)),
        };
        let mut launcher = Launcher {
            cfg: &cfg,
            transport: &transport,
            label: "test",
            run_dir: &run_dir,
            pool: HostPool::new(&cfg.hosts, cfg.quarantine_after, cfg.probation),
            queue: VecDeque::new(),
            flights: Vec::new(),
            partials: vec![None; cfg.shards],
            report: LaunchReport::default(),
            permanent: Vec::new(),
            last_error: String::new(),
        };
        let backoff = |ms| QueueItem {
            spec: specs[1],
            attempt: 2,
            ready_at: Instant::now() + Duration::from_millis(ms),
        };

        // No flight live: the wait runs to the backoff expiry, even past
        // the tick.
        launcher.queue.push_back(backoff(50));
        let wait = launcher.idle_wait();
        assert!(
            wait > POLL_INTERVAL && wait <= Duration::from_millis(50),
            "{wait:?}"
        );

        // A live flight: at most the tick, and a backoff due sooner wins.
        assert!(launcher.dispatch(0, specs[0], 1, false));
        assert_eq!(launcher.idle_wait(), POLL_INTERVAL);
        launcher.queue[0] = backoff(1);
        assert!(launcher.idle_wait() <= Duration::from_millis(1));

        // A due item waits for a slot; a passed timer is no timer.
        launcher.queue[0] = backoff(0);
        launcher.flights[0].deadline = Some(Instant::now());
        assert_eq!(launcher.idle_wait(), POLL_INTERVAL);
        drop(launcher);
        run_dir.remove();
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
    }
}
