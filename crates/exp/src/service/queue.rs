//! The daemon's FIFO job queue with coalescing.
//!
//! One [`JobQueue`] is shared (behind a mutex) by the accept loop's
//! connection threads (producers and waiters) and the bounded pool of
//! worker threads (consumers) — the worker-thread count *is* the slot
//! bound, so concurrency can never exceed `--max-inflight` by
//! construction; the queue just records the running count so the bound is
//! observable in `stats`. Nobody polls it: idle workers block on one
//! condvar until a job is queued or the queue drains, and connections
//! following a job block on another until a job settles
//! ([`JobQueue::wait_settled`]).
//!
//! Workers claim the FIFO head. The one refinement is **coalescing**: a
//! submit whose cache key matches a job already queued or running joins
//! that job instead of enqueueing a duplicate. The deterministic-artifact
//! contract makes the two requests indistinguishable, so running both
//! would be pure waste.
//!
//! The job table is bounded: it holds every queued or running job plus
//! the [`SETTLED_JOBS_KEPT`] most recently settled ones, and forgets
//! older settled jobs, so `status`, `result` and `cancel` of such an id
//! answer "no such job". The artifact cache, not the table, is the
//! durable record: resubmitting a retired job's request is a cache hit.
//! The `stats` counters are kept apart and count every request.

use crate::launch::LaunchReport;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Settled jobs the table remembers, in settle order; older settled ids
/// are retired (see the module doc).
pub const SETTLED_JOBS_KEPT: usize = 256;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the artifact is available (and cached).
    Done,
    /// Execution failed; see the error message.
    Failed,
    /// Cancelled while queued (explicitly or by shutdown).
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True for states a job can never leave.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// How a submit was answered — recorded per job and echoed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Answered from the artifact cache without any work.
    Hit,
    /// A fresh job was enqueued.
    Miss,
    /// Joined an identical job already queued or running.
    Coalesced,
}

impl CacheDisposition {
    /// Wire name of the disposition.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Coalesced => "coalesced",
        }
    }
}

/// What a worker thread needs to execute a job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job id.
    pub id: u64,
    /// Registry experiment name.
    pub experiment: String,
    /// Experiment argument words.
    pub args: Vec<String>,
}

/// An observable copy of a job's current state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Registry experiment name.
    pub experiment: String,
    /// Lifecycle state.
    pub state: JobState,
    /// How the submit was answered.
    pub cache: CacheDisposition,
    /// Failure message, for [`JobState::Failed`] / [`JobState::Cancelled`].
    pub error: Option<String>,
    /// The finished artifact document.
    pub artifact: Option<Arc<String>>,
    /// Coordinator run directory, once execution has planned one (lets
    /// progress reporting count shard checkpoints as they land).
    pub run_dir: Option<PathBuf>,
    /// Shard count of the coordinator run (0 for in-process execution).
    pub shards: usize,
    /// The scheduler's report, once a sharded job finished (`None` for
    /// in-process execution).
    pub report: Option<LaunchReport>,
    /// Milliseconds since the job started running (or was submitted, if
    /// still queued); frozen at completion.
    pub elapsed_ms: u64,
}

/// Daemon-wide counters, served verbatim as the `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Submits accepted (including cache hits and coalesced joins).
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Submits answered from the artifact cache.
    pub cache_hits: u64,
    /// Submits coalesced onto an identical in-flight job.
    pub coalesced: u64,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs currently waiting for a slot.
    pub queued: usize,
    /// Peak simultaneous running jobs observed.
    pub max_running_observed: usize,
    /// Shard workers spawned across all sharded jobs.
    pub shard_spawned: u64,
    /// Checkpointed shard partials reused across all sharded jobs.
    pub shard_reused: u64,
    /// Shard retry dispatches across all sharded jobs.
    pub shard_retries: u64,
    /// Shard watchdog timeouts across all sharded jobs.
    pub shard_timeouts: u64,
}

#[derive(Debug)]
struct JobEntry {
    id: u64,
    experiment: String,
    args: Vec<String>,
    key_name: String,
    key_document: String,
    state: JobState,
    cache: CacheDisposition,
    error: Option<String>,
    artifact: Option<Arc<String>>,
    run_dir: Option<PathBuf>,
    shards: usize,
    report: Option<LaunchReport>,
    submitted_at: Instant,
    started_at: Option<Instant>,
    finished_ms: Option<u64>,
    /// Threads inside [`JobQueue::wait_settled`] for this job.
    waiters: usize,
}

impl JobEntry {
    /// A job just queued by a submit that missed the cache.
    fn queued(id: u64, experiment: &str) -> Self {
        Self {
            id,
            experiment: experiment.to_owned(),
            args: Vec::new(),
            key_name: String::new(),
            key_document: String::new(),
            state: JobState::Queued,
            cache: CacheDisposition::Miss,
            error: None,
            artifact: None,
            run_dir: None,
            shards: 0,
            report: None,
            submitted_at: Instant::now(),
            started_at: None,
            finished_ms: None,
            waiters: 0,
        }
    }

    fn elapsed_ms(&self) -> u64 {
        if let Some(frozen) = self.finished_ms {
            return frozen;
        }
        let since = self.started_at.unwrap_or(self.submitted_at);
        u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn snapshot(&self) -> JobSnapshot {
        JobSnapshot {
            id: self.id,
            experiment: self.experiment.clone(),
            state: self.state,
            cache: self.cache,
            error: self.error.clone(),
            artifact: self.artifact.clone(),
            run_dir: self.run_dir.clone(),
            shards: self.shards,
            report: self.report.clone(),
            elapsed_ms: self.elapsed_ms(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Every queued or running job plus the newest settled ones, by id.
    jobs: HashMap<u64, JobEntry>,
    /// Queued job ids in arrival order.
    fifo: VecDeque<u64>,
    /// Settled job ids still in `jobs`, oldest first.
    settle_order: VecDeque<u64>,
    next_id: u64,
    draining: bool,
    stats: QueueStats,
}

impl Inner {
    /// Books job `id` as settled and retires what that pushes out.
    fn mark_settled(&mut self, id: u64) {
        self.settle_order.push_back(id);
        self.retire();
    }

    /// Retires settled jobs, oldest first, down to [`SETTLED_JOBS_KEPT`].
    /// A job whose waiters have not yet woken to see it settle is spared,
    /// and with it, to keep settle order, every job settled after it; the
    /// last such waiter retires them once it has its snapshot.
    fn retire(&mut self) {
        while self.settle_order.len() > SETTLED_JOBS_KEPT {
            let oldest = self.settle_order[0];
            if self.jobs.get(&oldest).is_some_and(|j| j.waiters > 0) {
                return;
            }
            self.settle_order.pop_front();
            self.jobs.remove(&oldest);
        }
    }

    fn record_cache_hit(&mut self, experiment: &str, artifact: Arc<String>) -> u64 {
        self.stats.submitted += 1;
        self.stats.cache_hits += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobEntry {
                state: JobState::Done,
                cache: CacheDisposition::Hit,
                artifact: Some(artifact),
                finished_ms: Some(0),
                ..JobEntry::queued(id, experiment)
            },
        );
        self.mark_settled(id);
        id
    }

    fn conclude(
        &mut self,
        id: u64,
        state: JobState,
        artifact: Option<Arc<String>>,
        error: Option<String>,
        report: Option<LaunchReport>,
    ) {
        match state {
            JobState::Done => self.stats.completed += 1,
            JobState::Failed => self.stats.failed += 1,
            _ => unreachable!("conclude is for terminal execution states"),
        }
        self.stats.running = self.stats.running.saturating_sub(1);
        if let Some(LaunchReport { base, .. }) = &report {
            self.stats.shard_spawned += base.spawned as u64;
            self.stats.shard_reused += base.reused as u64;
            self.stats.shard_retries += base.retries as u64;
            self.stats.shard_timeouts += base.timeouts as u64;
        }
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.finished_ms = Some(entry.elapsed_ms());
            entry.state = state;
            entry.artifact = artifact;
            entry.error = error;
            entry.report = report;
            self.mark_settled(id);
        }
    }

    /// Settles a job already taken off the FIFO as cancelled.
    fn cancel_queued(&mut self, id: u64, reason: &str) {
        self.stats.cancelled += 1;
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.state = JobState::Cancelled;
            entry.error = Some(reason.to_owned());
            entry.finished_ms = Some(entry.elapsed_ms());
            self.mark_settled(id);
        }
    }
}

/// The shared job queue. All methods are safe to call from any thread.
#[derive(Debug, Default)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    /// Signalled when a job is queued or the queue starts draining.
    work: Condvar,
    /// Signalled whenever jobs settle (finish, fail or are cancelled).
    settled: Condvar,
}

impl JobQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a job (or coalesces onto an identical live one). The key
    /// pair identifies the artifact the job will produce.
    pub fn submit(
        &self,
        experiment: &str,
        args: Vec<String>,
        key_name: &str,
        key_document: &str,
    ) -> (u64, CacheDisposition) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.stats.submitted += 1;
        // Coalesce: an identical request already queued or running will
        // produce this exact artifact; join it. (Both halves of the key
        // must match — the hash alone could collide.)
        if let Some(live) = inner.jobs.values().find(|j| {
            j.key_name == key_name
                && j.key_document == key_document
                && matches!(j.state, JobState::Queued | JobState::Running)
        }) {
            let id = live.id;
            inner.stats.coalesced += 1;
            return (id, CacheDisposition::Coalesced);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            JobEntry {
                args,
                key_name: key_name.to_owned(),
                key_document: key_document.to_owned(),
                ..JobEntry::queued(id, experiment)
            },
        );
        inner.fifo.push_back(id);
        inner.stats.queued = inner.fifo.len();
        self.work.notify_all();
        (id, CacheDisposition::Miss)
    }

    /// Records a submit answered straight from the artifact cache: the
    /// job is born [`JobState::Done`] with the cached artifact attached,
    /// so `status`/`result` work uniformly for it. Returns its snapshot.
    pub fn record_cache_hit(&self, experiment: &str, artifact: Arc<String>) -> JobSnapshot {
        let mut inner = self.inner.lock().expect("queue lock");
        let id = inner.record_cache_hit(experiment, artifact);
        inner.jobs[&id].snapshot()
    }

    /// Blocks until a job is queued, then claims the FIFO head (returning
    /// its spec, now marked running), or until the queue is draining with
    /// nothing left to run (returning `None` — the worker thread should
    /// exit).
    #[must_use]
    pub fn next_job(&self) -> Option<JobSpec> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(id) = inner.fifo.pop_front() {
                return Some(Self::claim(&mut inner, id));
            }
            if inner.draining {
                return None;
            }
            inner = self.work.wait(inner).expect("queue lock");
        }
    }

    fn claim(inner: &mut Inner, id: u64) -> JobSpec {
        inner.stats.queued = inner.fifo.len();
        inner.stats.running += 1;
        inner.stats.max_running_observed =
            inner.stats.max_running_observed.max(inner.stats.running);
        let entry = inner.jobs.get_mut(&id).expect("queued job exists");
        entry.state = JobState::Running;
        entry.started_at = Some(Instant::now());
        JobSpec {
            id,
            experiment: entry.experiment.clone(),
            args: entry.args.clone(),
        }
    }

    /// Records the coordinator run directory and shard count of a running
    /// job, so progress reporting can count checkpoints on disk.
    pub fn set_run_dir(&self, id: u64, run_dir: PathBuf, shards: usize) {
        let mut inner = self.inner.lock().expect("queue lock");
        if let Some(entry) = inner.jobs.get_mut(&id) {
            entry.run_dir = Some(run_dir);
            entry.shards = shards;
        }
    }

    /// Completes a running job with its artifact (and the scheduler's
    /// report, when it ran sharded).
    pub fn finish(&self, id: u64, artifact: Arc<String>, report: Option<LaunchReport>) {
        self.conclude(id, JobState::Done, Some(artifact), None, report);
    }

    /// Fails a running job.
    pub fn fail(&self, id: u64, error: String) {
        self.conclude(id, JobState::Failed, None, Some(error), None);
    }

    fn conclude(
        &self,
        id: u64,
        state: JobState,
        artifact: Option<Arc<String>>,
        error: Option<String>,
        report: Option<LaunchReport>,
    ) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.conclude(id, state, artifact, error, report);
        self.settled.notify_all();
    }

    /// Cancels a queued job. Running jobs are not interruptible (their
    /// worker owns child processes); terminal jobs are already settled.
    ///
    /// # Errors
    ///
    /// Reports an unknown (or retired) id or a job not in the queued
    /// state.
    pub fn cancel(&self, id: u64) -> Result<(), String> {
        let mut inner = self.inner.lock().expect("queue lock");
        let state = inner
            .jobs
            .get(&id)
            .map(|j| j.state)
            .ok_or_else(|| format!("no such job {id}"))?;
        if state != JobState::Queued {
            return Err(format!("job {id} is {}, not queued", state.as_str()));
        }
        inner.fifo.retain(|&q| q != id);
        inner.stats.queued = inner.fifo.len();
        inner.cancel_queued(id, "cancelled");
        self.settled.notify_all();
        Ok(())
    }

    /// A copy of a job's current state; `None` for an unknown or retired
    /// id.
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let inner = self.inner.lock().expect("queue lock");
        inner.jobs.get(&id).map(JobEntry::snapshot)
    }

    /// Blocks until job `id` settles or `timeout` passes, then returns its
    /// snapshot: terminal if it settled, still queued or running if the
    /// timeout came first. Returns `None` at once for an unknown or
    /// retired id. A job never retires under its waiter, however many
    /// others settle before the waiter wakes.
    #[must_use]
    pub fn wait_settled(&self, id: u64, timeout: Duration) -> Option<JobSnapshot> {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.jobs.get_mut(&id)?.waiters += 1;
        let (mut inner, _) = self
            .settled
            .wait_timeout_while(inner, timeout, |inner| !inner.jobs[&id].state.is_terminal())
            .expect("queue lock");
        let entry = inner.jobs.get_mut(&id).expect("waited-on jobs stay");
        entry.waiters -= 1;
        let snapshot = entry.snapshot();
        inner.retire();
        Some(snapshot)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().expect("queue lock").stats
    }

    /// Starts draining: queued jobs are cancelled (marked with `reason`),
    /// running jobs keep their slots until they finish, and worker
    /// threads observe `None` from [`JobQueue::next_job`] once idle.
    pub fn drain(&self, reason: &str) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.draining = true;
        while let Some(id) = inner.fifo.pop_front() {
            inner.cancel_queued(id, reason);
        }
        inner.stats.queued = 0;
        self.work.notify_all();
        self.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::HostCount;
    use crate::shard::coordinator::RunReport;
    use std::thread::JoinHandle;

    fn submit_simple(queue: &JobQueue, tag: &str) -> u64 {
        let (id, cache) = queue.submit("table2", vec![], tag, tag);
        assert_eq!(cache, CacheDisposition::Miss);
        id
    }

    #[test]
    fn workers_claim_jobs_in_fifo_order() {
        let queue = JobQueue::new();
        let a = submit_simple(&queue, "a");
        let b = submit_simple(&queue, "b");
        assert_eq!(queue.next_job().unwrap().id, a);
        assert_eq!(queue.next_job().unwrap().id, b);
    }

    #[test]
    fn identical_live_requests_coalesce_and_settle_together() {
        let queue = JobQueue::new();
        let id = submit_simple(&queue, "k");
        let (joined, cache) = queue.submit("table2", vec![], "k", "k");
        assert_eq!(joined, id);
        assert_eq!(cache, CacheDisposition::Coalesced);
        // Still coalesces while running.
        let spec = queue.next_job().expect("job");
        let (joined, _) = queue.submit("table2", vec![], "k", "k");
        assert_eq!(joined, id);
        // After completion a new identical submit is a fresh job (the
        // cache layer will answer it before it reaches the queue).
        queue.finish(spec.id, Arc::new("artifact".to_owned()), None);
        let (fresh, cache) = queue.submit("table2", vec![], "k", "k");
        assert_ne!(fresh, id);
        assert_eq!(cache, CacheDisposition::Miss);
        let stats = queue.stats();
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn cancel_only_affects_queued_jobs() {
        let queue = JobQueue::new();
        let id = submit_simple(&queue, "x");
        queue.cancel(id).expect("queued job cancels");
        assert_eq!(queue.snapshot(id).unwrap().state, JobState::Cancelled);
        assert!(queue.cancel(id).is_err(), "already cancelled");
        let running = submit_simple(&queue, "y");
        let _ = queue.next_job().expect("job");
        let err = queue.cancel(running).expect_err("running job refuses");
        assert!(err.contains("running"), "{err}");
        assert!(queue.cancel(999).is_err(), "unknown id");
    }

    #[test]
    fn drain_cancels_queued_work_and_releases_idle_workers() {
        let queue = Arc::new(JobQueue::new());
        let running = submit_simple(&queue, "r");
        let queued = submit_simple(&queue, "q");
        let spec = queue.next_job().expect("job");
        assert_eq!(spec.id, running);
        queue.drain("service shutting down");
        let snap = queue.snapshot(queued).unwrap();
        assert_eq!(snap.state, JobState::Cancelled);
        assert_eq!(snap.error.as_deref(), Some("service shutting down"));
        // An idle worker sees end-of-work immediately; the running job
        // keeps its slot until it settles.
        assert!(queue.next_job().is_none());
        assert_eq!(queue.snapshot(running).unwrap().state, JobState::Running);
        queue.finish(running, Arc::new("a".to_owned()), None);
        assert_eq!(queue.stats().running, 0);
    }

    #[test]
    fn next_job_blocks_until_work_arrives() {
        let queue = Arc::new(JobQueue::new());
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.next_job().map(|spec| spec.id))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!worker.is_finished(), "no work yet");
        let id = submit_simple(&queue, "late");
        assert_eq!(worker.join().expect("joins"), Some(id));
    }

    #[test]
    fn running_counters_track_claims_and_completions() {
        let queue = JobQueue::new();
        for tag in ["a", "b", "c"] {
            submit_simple(&queue, tag);
        }
        let s1 = queue.next_job().unwrap();
        let s2 = queue.next_job().unwrap();
        assert_eq!(queue.stats().running, 2);
        assert_eq!(queue.stats().queued, 1);
        let report = LaunchReport {
            base: RunReport {
                spawned: 3,
                reused: 1,
                retries: 2,
                timeouts: 1,
                max_inflight_observed: 2,
            },
            hosts: vec![HostCount {
                name: "alpha".to_owned(),
                dispatched: 3,
                completed: 3,
                ..HostCount::default()
            }],
            ..LaunchReport::default()
        };
        queue.finish(s1.id, Arc::new("x".to_owned()), Some(report.clone()));
        queue.fail(s2.id, "boom".to_owned());
        let stats = queue.stats();
        assert_eq!(stats.running, 0);
        assert_eq!(stats.max_running_observed, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.shard_spawned, 3);
        assert_eq!(stats.shard_reused, 1);
        assert_eq!(stats.shard_retries, 2);
        assert_eq!(stats.shard_timeouts, 1);
        assert_eq!(queue.snapshot(s1.id).unwrap().report, Some(report));
        assert_eq!(
            queue.snapshot(s2.id).unwrap().error.as_deref(),
            Some("boom")
        );
    }

    #[test]
    fn cache_hit_jobs_are_born_done() {
        let queue = JobQueue::new();
        let id = queue
            .record_cache_hit("table2", Arc::new("cached\n".to_owned()))
            .id;
        let snap = queue.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.cache, CacheDisposition::Hit);
        assert_eq!(
            snap.artifact.as_deref().map(String::as_str),
            Some("cached\n")
        );
        assert_eq!(queue.stats().cache_hits, 1);
    }

    /// Waits on job `id` from another thread with a 10 s timeout,
    /// returning the snapshot and how long the wait took. Returns once
    /// the waiter is registered, that is, blocked on the condvar.
    fn spawn_waiter(queue: &Arc<JobQueue>, id: u64) -> JoinHandle<(Option<JobSnapshot>, Duration)> {
        let waiter = {
            let queue = Arc::clone(queue);
            std::thread::spawn(move || {
                let start = Instant::now();
                let snap = queue.wait_settled(id, Duration::from_secs(10));
                (snap, start.elapsed())
            })
        };
        while queue.inner.lock().unwrap().jobs[&id].waiters == 0 {
            std::thread::yield_now();
        }
        waiter
    }

    #[test]
    fn every_terminal_transition_wakes_waiters() {
        type Transition = fn(&JobQueue, u64);
        let transitions: [(&str, bool, Transition, JobState); 4] = [
            (
                "finish",
                true,
                |q, id| q.finish(id, Arc::new("a".to_owned()), None),
                JobState::Done,
            ),
            (
                "fail",
                true,
                |q, id| q.fail(id, "boom".to_owned()),
                JobState::Failed,
            ),
            (
                "cancel",
                false,
                |q, id| q.cancel(id).expect("queued job cancels"),
                JobState::Cancelled,
            ),
            (
                "drain",
                false,
                |q, _| q.drain("service shutting down"),
                JobState::Cancelled,
            ),
        ];
        for (name, claim, transition, want) in transitions {
            let queue = Arc::new(JobQueue::new());
            let id = submit_simple(&queue, name);
            if claim {
                assert_eq!(queue.next_job().expect("job").id, id);
            }
            let waiter = spawn_waiter(&queue, id);
            transition(&queue, id);
            let (snap, waited) = waiter.join().expect("waiter returns");
            assert_eq!(snap.expect("known job").state, want, "{name}");
            assert!(
                waited < Duration::from_secs(1),
                "{name} woke late: {waited:?}"
            );
        }
    }

    #[test]
    fn a_wait_without_a_transition_returns_the_live_snapshot_at_its_timeout() {
        let queue = JobQueue::new();
        let id = submit_simple(&queue, "slow");
        let _ = queue.next_job().expect("job");
        let start = Instant::now();
        let snap = queue
            .wait_settled(id, Duration::from_millis(50))
            .expect("known job");
        assert!(start.elapsed() >= Duration::from_millis(50));
        assert_eq!(snap.state, JobState::Running);
        // A settled job answers at once, however long the timeout.
        queue.finish(id, Arc::new("a".to_owned()), None);
        let snap = queue
            .wait_settled(id, Duration::from_secs(3600))
            .expect("known job");
        assert_eq!(snap.state, JobState::Done);
    }

    #[test]
    fn waits_on_unknown_or_retired_ids_return_none_at_once() {
        let queue = JobQueue::new();
        let start = Instant::now();
        assert!(queue.wait_settled(7, Duration::from_secs(10)).is_none());
        let first = queue
            .record_cache_hit("table2", Arc::new("a".to_owned()))
            .id;
        for _ in 0..SETTLED_JOBS_KEPT {
            queue.record_cache_hit("table2", Arc::new("a".to_owned()));
        }
        assert!(queue.wait_settled(first, Duration::from_secs(10)).is_none());
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn settled_jobs_beyond_the_retention_bound_are_retired() {
        let queue = JobQueue::new();
        let running = submit_simple(&queue, "r");
        let queued = submit_simple(&queue, "q");
        assert_eq!(queue.next_job().expect("job").id, running);
        let hits: Vec<u64> = (0..SETTLED_JOBS_KEPT + 10)
            .map(|_| {
                queue
                    .record_cache_hit("table2", Arc::new("cached".to_owned()))
                    .id
            })
            .collect();
        for &id in &hits[..10] {
            assert!(queue.snapshot(id).is_none(), "hit {id} retired");
            assert_eq!(queue.cancel(id), Err(format!("no such job {id}")));
        }
        for &id in &hits[10..] {
            assert_eq!(queue.snapshot(id).expect("kept").state, JobState::Done);
        }
        // Live jobs are never retired, and identical submits still join
        // them.
        assert_eq!(queue.snapshot(running).unwrap().state, JobState::Running);
        assert_eq!(queue.snapshot(queued).unwrap().state, JobState::Queued);
        for (tag, live) in [("r", running), ("q", queued)] {
            let joined = queue.submit("table2", vec![], tag, tag);
            assert_eq!(joined, (live, CacheDisposition::Coalesced));
        }
        // The counters count every request, retired or not.
        let stats = queue.stats();
        assert_eq!(stats.submitted, 2 + hits.len() as u64 + 2);
        assert_eq!(stats.cache_hits, hits.len() as u64);
        assert_eq!(stats.coalesced, 2);
        // An executed job retires like a hit once enough jobs settle
        // after it, and the table never holds more than the bound.
        queue.finish(running, Arc::new("a".to_owned()), None);
        for _ in 0..2 * SETTLED_JOBS_KEPT {
            queue.record_cache_hit("table2", Arc::new("cached".to_owned()));
        }
        assert!(queue.snapshot(running).is_none());
        assert_eq!(queue.snapshot(queued).unwrap().state, JobState::Queued);
        let inner = queue.inner.lock().unwrap();
        assert_eq!(inner.settle_order.len(), SETTLED_JOBS_KEPT);
        assert_eq!(inner.jobs.len(), SETTLED_JOBS_KEPT + 1);
    }

    #[test]
    fn a_waiter_sees_its_job_settle_even_when_retirement_passes_it() {
        let queue = Arc::new(JobQueue::new());
        let id = submit_simple(&queue, "r");
        let _ = queue.next_job().expect("job");
        let waiter = spawn_waiter(&queue, id);
        // Settle the job and bury it under a full retention window in one
        // critical section, before the waiter can wake.
        {
            let mut inner = queue.inner.lock().unwrap();
            let artifact = Some(Arc::new("a".to_owned()));
            inner.conclude(id, JobState::Done, artifact, None, None);
            for _ in 0..SETTLED_JOBS_KEPT + 10 {
                inner.record_cache_hit("table2", Arc::new("cached".to_owned()));
            }
            assert!(inner.jobs.contains_key(&id), "spared for its waiter");
            queue.settled.notify_all();
        }
        let (snap, _) = waiter.join().expect("waiter returns");
        assert_eq!(snap.expect("still known").state, JobState::Done);
        // The waiter retired what it held back.
        assert!(queue.snapshot(id).is_none());
        assert_eq!(
            queue.inner.lock().unwrap().settle_order.len(),
            SETTLED_JOBS_KEPT
        );
    }
}
