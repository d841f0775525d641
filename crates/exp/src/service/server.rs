//! The `xbar serve` daemon: accept loop, worker pool, and job execution.
//!
//! Thread model: one accept thread blocks in `accept` and hands each
//! connection to a parked handler thread, starting a new handler only
//! when none is parked, so no connection waits behind another. A handler
//! answers one connection (requests are line-oriented and short-lived; a
//! `submit` with `wait` holds it until the job settles), then parks for
//! the next; at most `PARKED_HANDLERS` stay parked and the others exit.
//! A fixed pool of `--max-inflight` worker threads pulls jobs from the
//! shared [`JobQueue`] — the pool size *is* the concurrency bound. No
//! path polls. The accept thread wakes when a client connects, a parked
//! handler when it is handed a connection, an idle worker when a job is
//! queued, and a connection following a job when the job settles or its
//! next `progress` event is due (`PROGRESS_INTERVAL`), so a cache hit is
//! answered as soon as its connection is accepted and a cold job as soon
//! as its worker concludes.
//!
//! Shutdown — a `shutdown` request or [`ServiceHandle::shutdown_and_wait`]
//! — sets a flag, drains the queue (queued jobs are cancelled, running
//! ones finish) and wakes the accept thread with one connection to the
//! daemon's own address (loopback, when bound to an unspecified address);
//! the accept thread drops whatever it accepts from then on and exits.
//! [`ServiceHandle::wait`] joins it and the workers, then waits, for at
//! most `REPLY_DRAIN_LIMIT`, for connections still writing a reply — such
//! as the final line of a job that finished during the drain.
//!
//! Execution reuses the existing machinery end to end. `table2` (the
//! flagship Monte Carlo workload) runs through the one shard
//! [`scheduler`](crate::launch::scheduler) over the job fleet, resolved
//! once at start-up (`--launcher SPEC`, else the implicit local fleet
//! `local*<job-max-inflight>` that `xbar mc coordinate` runs on), with a
//! per-job run directory under `<work-dir>/jobs/<cache-key>/` — the same
//! run-directory claim, watchdog, retry, and resume semantics as
//! `xbar mc coordinate` — and the artifact is rebuilt from the merged
//! accumulators via [`table2_artifact_from_accums`], byte-identical to a
//! monolithic `xbar run` because the merge is integer-exact. Every other
//! experiment (and everything when `--in-process-jobs` is set) runs
//! in-process through [`Experiment::run`], which is the `xbar run` code
//! path itself. Either way the rendered artifact lands in the
//! [`ArtifactCache`] before the job is reported done.
//!
//! Failure semantics: a job's run directory goes only once its artifact
//! is cached. A daemon killed mid-job (SIGKILL, SIGTERM, power) leaves
//! shard checkpoints in the job's run directory, and the kernel drops
//! its claim on the directory as it dies; restarting the daemon on the
//! same `--work-dir` and resubmitting resumes from those checkpoints. A
//! client that disconnects mid-wait detaches from the job, which keeps
//! running and caches its artifact — resubmitting later is a cache hit.

use crate::experiment::{find_experiment, flag_value, ExpError, Experiment, Params, Reporter};
use crate::experiments::table2::table2_artifact_from_accums;
use crate::launch::pool::{DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
use crate::launch::scheduler::local_fleet;
use crate::launch::{
    parse_hosts, run_launch_with_report, FaultPlan, Faulty, HostSpec, LaunchConfig, LaunchReport,
    LocalProc, Transport,
};
use crate::service::cache::{cache_key, ArtifactCache, CacheKey};
use crate::service::protocol::{error_line, response, Request};
use crate::service::queue::{JobQueue, JobSnapshot, JobSpec, JobState};
use crate::shard::cli::{positive_num, positive_secs};
use crate::shard::coordinator::{campaign_run_dir, default_worker, Worker, DEFAULT_RETRY_BASE};
use crate::shard::json::JsonValue;
use crate::shard::run_dir::RunDir;
use crate::shard::McConfig;
use std::collections::VecDeque;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `progress` cadence of a connection following a job. The final
/// line does not wait for it: it goes out as soon as the job settles.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);
/// Pause after a failed `accept` (say, out of file descriptors) before
/// the next one; the idle accept path never sleeps.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);
/// How long a drained daemon waits for connections still writing a
/// reply, so a client that stopped reading cannot hold the exit.
const REPLY_DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// Connection handlers that stay parked for the next connection; a
/// handler that finishes when this many are parked exits.
const PARKED_HANDLERS: usize = 8;
/// The longest request line the daemon reads, newline included; a longer
/// one gets an `error` line and the connection closes.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// `xbar serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`--listen`, default `127.0.0.1:7878`; port 0 binds
    /// an ephemeral port, reported on stdout and via
    /// [`ServiceHandle::addr`]).
    pub listen: String,
    /// Service state root (`--work-dir`): the artifact cache lives in
    /// `cache/`, per-job run dirs in `jobs/`. Reusing a work
    /// dir across restarts keeps the cache and resumes interrupted jobs.
    pub work_dir: PathBuf,
    /// Worker slots — jobs executing simultaneously (`--max-inflight`,
    /// default: available parallelism).
    pub max_inflight: usize,
    /// Shards per sharded job (`--job-shards`, default 4).
    pub job_shards: usize,
    /// Worker-process cap *within* one job: the slot count of the
    /// implicit local fleet `local*N` (`--job-max-inflight`, default:
    /// available parallelism). Exclusive with `launcher_hosts`, whose
    /// slot counts are the cap.
    pub job_max_inflight: Option<usize>,
    /// Per-shard watchdog deadline (`--shard-timeout`, seconds).
    pub shard_timeout: Option<Duration>,
    /// Run every job in-process through the registry instead of spawning
    /// shard workers (`--in-process-jobs`) — no worker binary needed.
    pub in_process_jobs: bool,
    /// Extra arguments forwarded to every shard worker (`--worker-arg`,
    /// repeatable; the failure-injection smoke hooks live here).
    pub worker_args: Vec<String>,
    /// Dispatch sharded jobs over this fleet instead of the implicit
    /// local one (`--launcher SPEC`, same `name[*slots]` grammar as
    /// `xbar mc launch --hosts`). Nothing above the job executor
    /// changes; artifacts stay byte-identical.
    pub launcher_hosts: Option<Vec<HostSpec>>,
    /// Fault plans injected into the launcher transport
    /// (`--launcher-fault host=kind[@ordinal]`, repeatable; exists for
    /// the failure-injection smoke tests).
    pub launcher_faults: Vec<FaultPlan>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:7878".to_owned(),
            work_dir: std::env::temp_dir().join("xbar-svc"),
            max_inflight: std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get),
            job_shards: 4,
            job_max_inflight: None,
            shard_timeout: None,
            in_process_jobs: false,
            worker_args: Vec::new(),
            launcher_hosts: None,
            launcher_faults: Vec::new(),
        }
    }
}

/// Shared daemon state.
#[derive(Debug)]
struct ServiceState {
    options: ServeOptions,
    /// The bound listen address; the shutdown path connects to it.
    addr: SocketAddr,
    /// The fleet every sharded job runs on (see [`job_fleet`]).
    fleet: Vec<HostSpec>,
    queue: JobQueue,
    cache: ArtifactCache,
    jobs_dir: PathBuf,
    started: Instant,
    shutdown: AtomicBool,
    replies: Replies,
    handlers: Handlers,
}

/// Requests being answered right now. Connection threads are detached, so
/// the drain waits on this count to let every reply — a waiting client's
/// final line above all — reach its socket before the daemon exits.
#[derive(Debug, Default)]
struct Replies {
    count: Mutex<usize>,
    idle: Condvar,
}

impl Replies {
    /// Counts one reply until the returned guard drops.
    fn begin(&self) -> ReplyGuard<'_> {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        ReplyGuard(self)
    }

    /// Blocks until no reply is in flight or `limit` passes.
    fn wait_idle(&self, limit: Duration) {
        let count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self.idle.wait_timeout_while(count, limit, |n| *n > 0);
    }
}

struct ReplyGuard<'a>(&'a Replies);

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count -= 1;
        if *count == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// The connection handler threads. The accept thread hands a connection
/// to a parked handler, or starts a new one when none is parked; a
/// handler that finished its connection parks for the next one, or exits
/// when `PARKED_HANDLERS` are parked already or the accept thread is gone.
#[derive(Debug, Default)]
struct Handlers {
    lobby: Mutex<Lobby>,
    arrived: Condvar,
}

#[derive(Debug, Default)]
struct Lobby {
    /// Connections handed over, not yet taken by a handler.
    waiting: VecDeque<TcpStream>,
    /// Handlers parked for the next connection.
    parked: usize,
    /// Handler threads started so far (`stats`: `handlers_started`).
    started: u64,
    /// Set when the accept thread exits; parked handlers exit with it.
    closed: bool,
}

impl Handlers {
    fn lock(&self) -> MutexGuard<'_, Lobby> {
        self.lobby.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `stream` to a parked handler, or starts a handler for it.
    /// When the OS refuses the thread, the connection gets an `error`
    /// line and closes.
    fn hand_over(&self, state: &Arc<ServiceState>, stream: TcpStream) {
        let mut lobby = self.lock();
        lobby.waiting.push_back(stream);
        if lobby.parked >= lobby.waiting.len() {
            drop(lobby);
            self.arrived.notify_one();
            return;
        }
        drop(lobby);
        let state = Arc::clone(state);
        if let Err(e) = std::thread::Builder::new().spawn(move || handler_loop(&state)) {
            let stream = self.lock().waiting.pop_back();
            if let Some(mut stream) = stream {
                let message = format!("cannot start a connection handler: {e}");
                send(&mut stream, &error_line(&message));
            }
        }
    }

    /// Wakes every parked handler to exit; later ones exit instead of
    /// parking.
    fn close(&self) {
        self.lock().closed = true;
        self.arrived.notify_all();
    }
}

/// A handler thread: answers the connections it is handed, parking in
/// between, until [`Handlers`] lets it go.
fn handler_loop(state: &Arc<ServiceState>) {
    let handlers = &state.handlers;
    let mut lobby = handlers.lock();
    lobby.started += 1;
    loop {
        let Some(mut stream) = lobby.waiting.pop_front() else {
            if lobby.closed || lobby.parked >= PARKED_HANDLERS {
                return;
            }
            lobby.parked += 1;
            lobby = handlers
                .arrived
                .wait_while(lobby, |lobby| lobby.waiting.is_empty() && !lobby.closed)
                .unwrap_or_else(PoisonError::into_inner);
            lobby.parked -= 1;
            continue;
        };
        drop(lobby);
        handle_connection(state, &mut stream);
        // The connection closes with the lobby held, so a client that
        // reads its connection to the end and connects again finds this
        // handler parked.
        lobby = handlers.lock();
        drop(stream);
    }
}

/// A running service: bound address plus the handles needed to wait for
/// or force its shutdown. Dropping the handle does **not** stop the
/// daemon (threads are detached from the handle's lifetime until joined).
#[derive(Debug)]
pub struct ServiceHandle {
    state: Arc<ServiceState>,
    workers: Vec<JoinHandle<()>>,
    acceptor: JoinHandle<()>,
}

impl ServiceHandle {
    /// The bound listen address (resolves `--listen 127.0.0.1:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Blocks until a `shutdown` request arrives, then drains: running
    /// jobs finish (their artifacts land in the cache), queued jobs are
    /// cancelled, worker threads and the accept loop exit, and replies
    /// still being written get up to `REPLY_DRAIN_LIMIT` to finish.
    pub fn wait(self) {
        // The acceptor returns only once shutdown has been requested.
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        self.state.replies.wait_idle(REPLY_DRAIN_LIMIT);
    }

    /// Requests shutdown (as if a `shutdown` message arrived) and drains.
    pub fn shutdown_and_wait(self) {
        request_shutdown(&self.state);
        self.wait();
    }
}

/// Sets the shutdown flag, cancels queued jobs and wakes the blocking
/// acceptor with one connection to the daemon's own address (loopback of
/// the same family when bound to an unspecified one). Only the first call
/// acts.
fn request_shutdown(state: &ServiceState) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    state.queue.drain("service shutting down");
    let mut wake = state.addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    if let Err(e) = TcpStream::connect(wake) {
        eprintln!("xbar serve: cannot wake the accept loop at {wake}: {e}");
    }
}

/// Binds the listener and starts the daemon threads.
///
/// # Errors
///
/// Reports an unusable listen address or work directory.
pub fn start(options: ServeOptions) -> Result<ServiceHandle, String> {
    if options.max_inflight == 0 {
        return Err("need at least one worker slot".to_owned());
    }
    if options.job_shards == 0 {
        return Err("need at least one shard per job".to_owned());
    }
    let fleet = job_fleet(&options)?;
    fs::create_dir_all(&options.work_dir)
        .map_err(|e| format!("cannot create work dir {}: {e}", options.work_dir.display()))?;
    let cache = ArtifactCache::open(&options.work_dir.join("cache"))?;
    let jobs_dir = options.work_dir.join("jobs");
    fs::create_dir_all(&jobs_dir)
        .map_err(|e| format!("cannot create jobs dir {}: {e}", jobs_dir.display()))?;
    let listener = TcpListener::bind(&options.listen)
        .map_err(|e| format!("cannot bind {}: {e}", options.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;

    let state = Arc::new(ServiceState {
        options,
        addr,
        fleet,
        queue: JobQueue::new(),
        cache,
        jobs_dir,
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        replies: Replies::default(),
        handlers: Handlers::default(),
    });

    let workers = (0..state.options.max_inflight)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || worker_loop(&state))
        })
        .collect();
    let acceptor = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            accept_loop(&state, &listener);
            state.handlers.close();
        })
    };
    Ok(ServiceHandle {
        state,
        workers,
        acceptor,
    })
}

fn accept_loop(state: &Arc<ServiceState>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        // Once shutdown is requested, whatever was accepted — the wake-up
        // connection or a late client — is dropped, and the listener
        // closes with this thread.
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => state.handlers.hand_over(state, stream),
            Err(e) => {
                eprintln!("xbar serve: accept error: {e}");
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

fn worker_loop(state: &Arc<ServiceState>) {
    while let Some(spec) = state.queue.next_job() {
        execute_job(state, &spec);
    }
}

fn handle_connection(state: &Arc<ServiceState>, writer: &mut TcpStream) {
    let _ = writer.set_nodelay(true);
    let Ok(read_half) = writer.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        let mut capped = reader.by_ref().take(MAX_REQUEST_LINE as u64);
        match capped.read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => return, // closed, or the client vanished
            Ok(MAX_REQUEST_LINE) if bytes.last() != Some(&b'\n') => {
                let message = format!("request line longer than {MAX_REQUEST_LINE} bytes");
                send(writer, &error_line(&message));
                return;
            }
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&bytes) else {
            return; // not a text line
        };
        let line = line.trim_end_matches(['\r', '\n']);
        if line.trim().is_empty() {
            continue;
        }
        let reply_ok = match Request::parse(line) {
            Err(e) => send(writer, &error_line(&e)),
            Ok(request) => {
                let stop_after = matches!(request, Request::Shutdown);
                let ok = handle_request(state, writer, request);
                if stop_after {
                    return;
                }
                ok
            }
        };
        if !reply_ok {
            return; // client disconnected; detach from any job
        }
    }
}

/// Writes one response line; false when the client is gone.
fn send(writer: &mut TcpStream, line: &str) -> bool {
    writeln!(writer, "{line}").is_ok() && writer.flush().is_ok()
}

fn handle_request(state: &Arc<ServiceState>, writer: &mut TcpStream, request: Request) -> bool {
    let _reply = state.replies.begin();
    match request {
        Request::Submit {
            experiment,
            args,
            wait,
        } => handle_submit(state, writer, &experiment, args, wait),
        Request::Status { job } => {
            let line = match state.queue.snapshot(job) {
                None => error_line(&format!("no such job {job}")),
                Some(snap) => response("status", status_fields(&snap)),
            };
            send(writer, &line)
        }
        Request::ResultOf { job } => {
            let line = match state.queue.snapshot(job) {
                None => error_line(&format!("no such job {job}")),
                Some(snap) => result_or_error_line(&snap),
            };
            send(writer, &line)
        }
        Request::Cancel { job } => {
            let line = match state.queue.cancel(job) {
                Ok(()) => response("ok", vec![("job".to_owned(), JsonValue::u64(job))]),
                Err(e) => error_line(&e),
            };
            send(writer, &line)
        }
        Request::Stats => send(writer, &stats_line(state)),
        Request::Shutdown => {
            request_shutdown(state);
            send(writer, &response("ok", Vec::new()))
        }
    }
}

fn handle_submit(
    state: &Arc<ServiceState>,
    writer: &mut TcpStream,
    experiment: &str,
    args: Vec<String>,
    wait: bool,
) -> bool {
    let Some(exp) = find_experiment(experiment) else {
        return send(
            writer,
            &error_line(&format!(
                "unknown experiment {experiment:?} (see `xbar list`)"
            )),
        );
    };
    // Output routing is the client's business: the daemon produces one
    // canonical artifact per request, cached and served as bytes.
    if let Some(flag) = args
        .iter()
        .find(|a| ["--json", "--out", "--csv"].contains(&a.as_str()))
    {
        return send(
            writer,
            &error_line(&format!(
                "{flag} is not accepted by the service: output routing is client-side \
                 (use `xbar submit --wait` / `--out`)"
            )),
        );
    }
    let params = match Params::parse(exp.extra_params(), args.iter().cloned()) {
        Ok(params) => params,
        Err(e) => return send(writer, &error_line(&format!("bad parameters: {e}"))),
    };
    let key = cache_key(exp, &params);

    if let Some(artifact) = state.cache.lookup(&key) {
        let snap = state.queue.record_cache_hit(exp.name(), Arc::new(artifact));
        let submitted = response(
            "submitted",
            vec![
                ("job".to_owned(), JsonValue::u64(snap.id)),
                ("cache".to_owned(), JsonValue::str("hit")),
                ("state".to_owned(), JsonValue::str("done")),
            ],
        );
        if !send(writer, &submitted) {
            return false;
        }
        if wait {
            return send(writer, &result_or_error_line(&snap));
        }
        return true;
    }

    if state.shutdown.load(Ordering::SeqCst) {
        return send(writer, &error_line("service is shutting down"));
    }
    let (id, disposition) = state
        .queue
        .submit(exp.name(), args, &key.name, &key.document);
    let submitted = response(
        "submitted",
        vec![
            ("job".to_owned(), JsonValue::u64(id)),
            ("cache".to_owned(), JsonValue::str(disposition.as_str())),
            (
                "state".to_owned(),
                JsonValue::str(
                    state
                        .queue
                        .snapshot(id)
                        .map_or("queued", |s| s.state.as_str()),
                ),
            ),
        ],
    );
    if !send(writer, &submitted) {
        return false;
    }
    if wait {
        return stream_until_settled(state, writer, id);
    }
    true
}

/// Follows a job until it settles: a `progress` event at once and then
/// every [`PROGRESS_INTERVAL`] while it is queued or running, and the
/// final `result`/`error` line as soon as it settles. Progress counts the
/// shard partials already checkpointed in the job's coordinator run
/// directory — the same numbers [`LaunchReport`] summarizes at the end.
fn stream_until_settled(state: &Arc<ServiceState>, writer: &mut TcpStream, id: u64) -> bool {
    let mut snap = state.queue.snapshot(id);
    loop {
        let Some(current) = snap else {
            return send(writer, &error_line(&format!("job {id} vanished")));
        };
        if current.state.is_terminal() {
            return send(writer, &result_or_error_line(&current));
        }
        let (done, total) = shard_progress(&current);
        let progress = response(
            "progress",
            vec![
                ("job".to_owned(), JsonValue::u64(id)),
                ("state".to_owned(), JsonValue::str(current.state.as_str())),
                ("shards_done".to_owned(), JsonValue::usize(done)),
                ("shards".to_owned(), JsonValue::usize(total)),
                ("elapsed_ms".to_owned(), JsonValue::u64(current.elapsed_ms)),
            ],
        );
        if !send(writer, &progress) {
            return false; // client gone; the job keeps running
        }
        snap = state.queue.wait_settled(id, PROGRESS_INTERVAL);
    }
}

/// Counts checkpointed shards for a running sharded job.
fn shard_progress(snap: &JobSnapshot) -> (usize, usize) {
    let Some(run_dir) = &snap.run_dir else {
        return (0, snap.shards);
    };
    (RunDir::count_checkpoints(run_dir, snap.shards), snap.shards)
}

/// The final line for a settled job: `result` with the artifact (plus the
/// scheduler counters and per-host attribution when it ran sharded), or
/// `error`.
fn result_or_error_line(snap: &JobSnapshot) -> String {
    match snap.state {
        JobState::Done => {
            let artifact = snap.artifact.as_deref().map_or("", String::as_str);
            let mut fields = vec![
                ("job".to_owned(), JsonValue::u64(snap.id)),
                ("cache".to_owned(), JsonValue::str(snap.cache.as_str())),
            ];
            if let Some(report) = &snap.report {
                fields.extend(report_fields(report));
            }
            fields.push(("artifact".to_owned(), JsonValue::str(artifact)));
            response("result", fields)
        }
        JobState::Failed | JobState::Cancelled => error_line(&format!(
            "job {} {}: {}",
            snap.id,
            snap.state.as_str(),
            snap.error.as_deref().unwrap_or("no details")
        )),
        JobState::Queued | JobState::Running => error_line(&format!(
            "job {} is still {} (use status, or submit with wait)",
            snap.id,
            snap.state.as_str()
        )),
    }
}

fn status_fields(snap: &JobSnapshot) -> Vec<(String, JsonValue)> {
    let (done, total) = shard_progress(snap);
    let mut fields = vec![
        ("job".to_owned(), JsonValue::u64(snap.id)),
        (
            "experiment".to_owned(),
            JsonValue::str(snap.experiment.clone()),
        ),
        ("state".to_owned(), JsonValue::str(snap.state.as_str())),
        ("cache".to_owned(), JsonValue::str(snap.cache.as_str())),
        ("shards_done".to_owned(), JsonValue::usize(done)),
        ("shards".to_owned(), JsonValue::usize(total)),
        ("elapsed_ms".to_owned(), JsonValue::u64(snap.elapsed_ms)),
    ];
    if let Some(report) = &snap.report {
        fields.extend(report_fields(report));
    }
    if let Some(error) = &snap.error {
        fields.push(("error".to_owned(), JsonValue::str(error.clone())));
    }
    fields
}

/// A sharded job's report fields on `result` and `status` responses: the
/// scheduler counters, then the per-host dispatch attribution (`hosts`,
/// omitted when the fleet reported none).
fn report_fields(report: &LaunchReport) -> Vec<(String, JsonValue)> {
    let base = &report.base;
    let mut fields = vec![
        ("spawned".to_owned(), JsonValue::usize(base.spawned)),
        ("reused".to_owned(), JsonValue::usize(base.reused)),
        ("retries".to_owned(), JsonValue::usize(base.retries)),
        ("timeouts".to_owned(), JsonValue::usize(base.timeouts)),
    ];
    if !report.hosts.is_empty() {
        let hosts = report.hosts.iter().map(|h| {
            JsonValue::obj([
                ("host", JsonValue::str(h.name.clone())),
                ("dispatched", JsonValue::usize(h.dispatched)),
                ("completed", JsonValue::usize(h.completed)),
                ("failed", JsonValue::usize(h.failed)),
                ("quarantines", JsonValue::usize(h.quarantines)),
            ])
        });
        fields.push(("hosts".to_owned(), JsonValue::arr(hosts)));
    }
    fields
}

fn stats_line(state: &Arc<ServiceState>) -> String {
    let stats = state.queue.stats();
    let uptime = u64::try_from(state.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    response(
        "stats",
        vec![
            ("submitted".to_owned(), JsonValue::u64(stats.submitted)),
            ("completed".to_owned(), JsonValue::u64(stats.completed)),
            ("failed".to_owned(), JsonValue::u64(stats.failed)),
            ("cancelled".to_owned(), JsonValue::u64(stats.cancelled)),
            ("cache_hits".to_owned(), JsonValue::u64(stats.cache_hits)),
            ("coalesced".to_owned(), JsonValue::u64(stats.coalesced)),
            ("running".to_owned(), JsonValue::usize(stats.running)),
            ("queued".to_owned(), JsonValue::usize(stats.queued)),
            (
                "max_running_observed".to_owned(),
                JsonValue::usize(stats.max_running_observed),
            ),
            (
                "shard_spawned".to_owned(),
                JsonValue::u64(stats.shard_spawned),
            ),
            (
                "shard_reused".to_owned(),
                JsonValue::u64(stats.shard_reused),
            ),
            (
                "shard_retries".to_owned(),
                JsonValue::u64(stats.shard_retries),
            ),
            (
                "shard_timeouts".to_owned(),
                JsonValue::u64(stats.shard_timeouts),
            ),
            (
                "worker_slots".to_owned(),
                JsonValue::usize(state.options.max_inflight),
            ),
            (
                "cache_entries".to_owned(),
                JsonValue::usize(state.cache.len()),
            ),
            (
                "handlers_started".to_owned(),
                JsonValue::u64(state.handlers.lock().started),
            ),
            ("uptime_ms".to_owned(), JsonValue::u64(uptime)),
        ],
    )
}

fn execute_job(state: &Arc<ServiceState>, spec: &JobSpec) {
    match run_job(state, spec) {
        Ok((artifact, report)) => state.queue.finish(spec.id, Arc::new(artifact), report),
        Err(e) => state.queue.fail(spec.id, e),
    }
}

fn run_job(
    state: &Arc<ServiceState>,
    spec: &JobSpec,
) -> Result<(String, Option<LaunchReport>), String> {
    let exp = find_experiment(&spec.experiment).ok_or_else(|| {
        format!(
            "experiment {:?} vanished from the registry",
            spec.experiment
        )
    })?;
    let params = Params::parse(exp.extra_params(), spec.args.iter().cloned())
        .map_err(|e| format!("bad parameters: {e}"))?;
    let key = cache_key(exp, &params);

    // `table2` runs sharded over the job fleet (checkpoints, retry,
    // resume) unless the daemon was told to stay in-process. Every other
    // experiment runs through the registry directly — the exact `xbar
    // run` code path, so the artifact is byte-identical by construction.
    // A missing worker binary degrades to in-process too, so a daemon
    // started from an unusual location still serves.
    let sharded = !state.options.in_process_jobs && spec.experiment == "table2";
    let (artifact, report) = if sharded {
        match default_worker() {
            Ok(worker) => {
                let (artifact, report) =
                    run_sharded_table2(state, spec.id, exp, &params, &key, worker)?;
                (artifact, Some(report))
            }
            Err(e) => {
                eprintln!(
                    "xbar serve: no shard worker ({e}); running job {} in-process",
                    spec.id
                );
                (run_in_process(exp, &params)?, None)
            }
        }
    } else {
        (run_in_process(exp, &params)?, None)
    };

    // Cache before reporting done: once a client can observe "done", a
    // repeated submit must hit. Only then do a sharded job's checkpoints
    // go: until the store succeeds they are the only record of the work,
    // and a resubmit resumes from them.
    state.cache.store(&key, &artifact)?;
    if sharded {
        let _ = fs::remove_dir_all(state.jobs_dir.join(&key.name));
    }
    Ok((artifact, report))
}

fn run_in_process(exp: &dyn Experiment, params: &Params) -> Result<String, String> {
    let artifact = exp
        .run(params, &mut Reporter::quiet())
        .map_err(|e| match e {
            ExpError::Usage(m) => format!("bad parameters: {m}"),
            ExpError::Failed(m) => m,
        })?;
    Ok(artifact.render(exp, params))
}

/// The fleet every sharded job runs on: `--launcher SPEC`, else the
/// implicit local fleet `local*<job-max-inflight>`.
///
/// # Errors
///
/// Rejects `--job-max-inflight` together with `--launcher`: the launcher
/// fleet's slot counts are the cap, and silently ignoring N would lie.
fn job_fleet(options: &ServeOptions) -> Result<Vec<HostSpec>, String> {
    match (&options.launcher_hosts, options.job_max_inflight) {
        (Some(_), Some(_)) => Err("--job-max-inflight cannot be combined with --launcher \
             (the launcher fleet's slot counts cap each job)"
            .to_owned()),
        (Some(hosts), None) => Ok(hosts.clone()),
        (None, slots) => Ok(local_fleet(slots)),
    }
}

/// Runs a `table2` job through the scheduler over the job fleet and
/// rebuilds the canonical artifact from the merged accumulators. The
/// job's run directory persists (`keep_partials`) until [`run_job`] has
/// safely cached the artifact, so a daemon killed mid-job, or a job whose
/// store failed, resumes instead of restarting from sample zero. The
/// artifact is byte-identical whatever the fleet did.
fn run_sharded_table2(
    state: &Arc<ServiceState>,
    id: u64,
    exp: &dyn Experiment,
    params: &Params,
    key: &CacheKey,
    worker: Worker,
) -> Result<(String, LaunchReport), String> {
    let cfg = LaunchConfig {
        config: McConfig::from_params(params)?,
        shards: state.options.job_shards,
        max_attempts: 3,
        worker,
        work_dir: state.jobs_dir.join(&key.name),
        extra_worker_args: state.options.worker_args.clone(),
        keep_partials: true,
        shard_timeout: state.options.shard_timeout,
        hedge_after: None,
        resume: true,
        retry_base: DEFAULT_RETRY_BASE,
        hosts: state.fleet.clone(),
        quarantine_after: DEFAULT_QUARANTINE_AFTER,
        probation: DEFAULT_PROBATION,
    };
    state.queue.set_run_dir(
        id,
        campaign_run_dir(&cfg.work_dir, &cfg.config, cfg.shards),
        cfg.shards,
    );
    let transport: Box<dyn Transport> = if state.options.launcher_faults.is_empty() {
        Box::new(LocalProc)
    } else {
        Box::new(Faulty::new(
            LocalProc,
            state.options.launcher_faults.clone(),
        ))
    };
    let (merged, report) = run_launch_with_report(&cfg, &transport)?;
    let artifact = table2_artifact_from_accums(&merged.circuits, cfg.config.seed, exp, params)?;
    Ok((artifact, report))
}

fn serve_usage() -> String {
    "xbar serve: yield-oracle daemon over the sharded Monte Carlo engine\n\n\
     Speaks newline-delimited JSON (schema xbar-svc/1) on a TCP socket; use\n\
     `xbar submit` as the client. Artifacts are cached content-addressed in\n\
     the work dir, so repeated submissions are answered byte-identical\n\
     without re-running anything.\n\nflags:\n  \
     --listen ADDR        listen address (default 127.0.0.1:7878; port 0 picks\n                       \
     a free port, reported on stdout)\n  \
     --work-dir PATH      service state root: artifact cache + per-job run\n                       \
     dirs (default <temp>/xbar-svc; reuse it across\n                       \
     restarts to keep the cache and resume interrupted jobs)\n  \
     --max-inflight N     jobs executing at once (default: available\n                       \
     parallelism)\n  \
     --job-shards N       shards (worker processes) per sharded job (default 4)\n  \
     --job-max-inflight N live shard workers within one job: the slots of the\n                       \
     local fleet `local*N` (default: available parallelism;\n                       \
     not with --launcher)\n  \
     --shard-timeout S    per-shard watchdog seconds, fractional ok (default:\n                       \
     no watchdog)\n  \
     --in-process-jobs    run jobs in-process instead of spawning shard workers\n  \
     --worker-arg ARG     extra argument for every shard worker (repeatable;\n                       \
     used by fault-injection tests)\n  \
     --launcher SPEC      dispatch sharded jobs over this host fleet instead of\n                       \
     the local one (same `name[*slots],...` grammar as\n                       \
     `xbar mc launch --hosts`); artifacts stay\n                       \
     byte-identical\n  \
     --launcher-fault P   inject a transport fault `host=kind[@ordinal]`\n                       \
     (repeatable; used by the failure-injection smokes)"
        .to_owned()
}

fn parse_serve_args(argv: Vec<String>) -> Result<Option<ServeOptions>, String> {
    let mut options = ServeOptions::default();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || flag_value(&flag, &mut it);
        match flag.as_str() {
            "--listen" => options.listen = value()?,
            "--work-dir" => options.work_dir = PathBuf::from(value()?),
            "--max-inflight" => options.max_inflight = positive_num(&flag, &value()?)?,
            "--job-shards" => options.job_shards = positive_num(&flag, &value()?)?,
            "--job-max-inflight" => {
                options.job_max_inflight = Some(positive_num(&flag, &value()?)?);
            }
            "--shard-timeout" => options.shard_timeout = Some(positive_secs(&flag, &value()?)?),
            "--in-process-jobs" => options.in_process_jobs = true,
            "--worker-arg" => options.worker_args.push(value()?),
            "--launcher" => {
                options.launcher_hosts =
                    Some(parse_hosts(&value()?).map_err(|e| format!("{flag}: {e}"))?);
            }
            "--launcher-fault" => {
                let plan = FaultPlan::parse(&value()?).map_err(|e| format!("{flag}: {e}"))?;
                options.launcher_faults.push(plan);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    // Resolved again at start-up; rejecting here makes a contradictory
    // fleet a usage error (exit 2).
    job_fleet(&options)?;
    Ok(Some(options))
}

/// `xbar serve`: parses flags, starts the daemon, and blocks until a
/// `shutdown` request drains it. Returns the process exit code. The
/// first stdout line reports the bound address (`listening on HOST:PORT`)
/// so scripts driving `--listen 127.0.0.1:0` can discover the port.
#[must_use]
pub fn serve_main(argv: Vec<String>) -> i32 {
    crate::cli::run_verb(
        "xbar serve",
        serve_usage,
        parse_serve_args(argv),
        |options| {
            let work_dir = options.work_dir.clone();
            let slots = options.max_inflight;
            let handle = start(options).map_err(ExpError::Failed)?;
            // Ignore stdout write errors: a supervisor that read the address
            // off the first line and closed the pipe must not take the daemon
            // down with an EPIPE panic mid-serve.
            let mut stdout = std::io::stdout();
            let _ = writeln!(stdout, "xbar serve: listening on {}", handle.addr());
            let _ = writeln!(
                stdout,
                "xbar serve: {slots} worker slot(s), state in {}",
                work_dir.display()
            );
            let _ = stdout.flush();
            handle.wait();
            let _ = writeln!(std::io::stdout(), "xbar serve: drained, exiting");
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::protocol::PROTOCOL;
    use crate::service::queue::SETTLED_JOBS_KEPT;
    use crate::shard::json::Json;

    #[test]
    fn serve_args_parse_and_reject_degenerate_values() {
        let argv: Vec<String> = [
            "--listen",
            "127.0.0.1:0",
            "--work-dir",
            "/tmp/svc",
            "--max-inflight",
            "2",
            "--job-shards",
            "3",
            "--shard-timeout",
            "2.5",
            "--in-process-jobs",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "50",
            "--launcher",
            "alpha*2,beta",
            "--launcher-fault",
            "beta=die@1",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let options = parse_serve_args(argv).expect("parses").expect("not help");
        assert_eq!(options.listen, "127.0.0.1:0");
        assert_eq!(options.work_dir, PathBuf::from("/tmp/svc"));
        assert_eq!(options.max_inflight, 2);
        assert_eq!(options.job_shards, 3);
        assert_eq!(
            options.job_max_inflight, None,
            "the launcher fleet sets the cap"
        );
        assert_eq!(options.shard_timeout, Some(Duration::from_millis(2500)));
        assert!(options.in_process_jobs);
        assert_eq!(options.worker_args, ["--inject-slow-ms", "50"]);
        let hosts = options.launcher_hosts.expect("launcher fleet");
        assert_eq!(hosts.len(), 2);
        assert_eq!(hosts[0].name, "alpha");
        assert_eq!(hosts[0].slots, 2);
        assert_eq!(options.launcher_faults.len(), 1);
        assert_eq!(options.launcher_faults[0].host, "beta");

        assert!(parse_serve_args(vec!["--help".to_owned()])
            .expect("ok")
            .is_none());
        for words in [
            &["--max-inflight", "0"][..],
            &["--job-shards", "0"][..],
            &["--job-max-inflight", "0"][..],
            &["--launcher", "a", "--job-max-inflight", "2"][..],
            &["--shard-timeout", "0"][..],
            &["--shard-timeout", "soon"][..],
            &["--listen"][..],
            &["--launcher", ""][..],
            &["--launcher", "a*0"][..],
            &["--launcher-fault", "beta"][..],
            &["--launcher-fault", "beta=melt"][..],
            &["--frobnicate"][..],
        ] {
            let argv = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_serve_args(argv).is_err(), "{words:?} must fail");
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xbar-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn request_lines(addr: SocketAddr, request: &str, expect: usize) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{request}").expect("send");
        stream.flush().expect("flush");
        let reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for line in reader.lines() {
            lines.push(line.expect("read"));
            if lines.len() == expect {
                break;
            }
        }
        lines
    }

    /// End-to-end over a real socket, in-process jobs: submit runs the
    /// experiment, a repeat submit is a cache hit with identical bytes,
    /// and stats/errors/shutdown behave.
    #[test]
    fn service_round_trip_cache_hit_and_shutdown() {
        let work_dir = scratch("roundtrip");
        let handle = start(ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            work_dir: work_dir.clone(),
            max_inflight: 1,
            in_process_jobs: true,
            ..ServeOptions::default()
        })
        .expect("starts");
        let addr = handle.addr();

        let submit = Request::Submit {
            experiment: "table2".to_owned(),
            args: ["--quick", "--circuits", "rd53"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            wait: true,
        }
        .render();
        let assert_type = |line: &str, want: &str| {
            let doc = Json::parse(line).expect("parses");
            assert_eq!(doc.get("svc").and_then(Json::as_str), Some(PROTOCOL));
            assert_eq!(doc.get("type").and_then(Json::as_str), Some(want), "{line}");
        };

        // Cold: submitted (miss) ... progress* ... result.
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{submit}").expect("send");
        let mut lines = BufReader::new(stream.try_clone().expect("clone")).lines();
        let submitted = lines.next().expect("line").expect("read");
        assert_type(&submitted, "submitted");
        assert!(submitted.contains("\"cache\": \"miss\""), "{submitted}");
        let cold = loop {
            let line = lines.next().expect("line").expect("read");
            let doc = Json::parse(&line).expect("parses");
            match doc.get("type").and_then(Json::as_str) {
                Some("progress") => {}
                Some("result") => break line,
                other => panic!("unexpected {other:?}: {line}"),
            }
        };
        drop(lines);
        let artifact_of = |result_line: &str| -> String {
            Json::parse(result_line)
                .expect("parses")
                .get("artifact")
                .and_then(Json::as_str)
                .expect("artifact field")
                .to_owned()
        };
        let cold_artifact = artifact_of(&cold);
        assert!(
            cold_artifact.contains("\"schema\": \"xbar-artifact/1\""),
            "served artifact is the canonical envelope"
        );

        // Warm: answered from the cache, byte-identical, no new job run.
        let warm = request_lines(addr, &submit, 2);
        assert_type(&warm[0], "submitted");
        assert!(warm[0].contains("\"cache\": \"hit\""), "{}", warm[0]);
        assert_type(&warm[1], "result");
        assert_eq!(artifact_of(&warm[1]), cold_artifact, "cache serves bytes");

        // Stats reflect exactly one execution and one hit, and the line is
        // compact enough to grep.
        let stats = request_lines(addr, &Request::Stats.render(), 1);
        assert_type(&stats[0], "stats");
        assert!(stats[0].contains("\"cache_hits\": 1"), "{}", stats[0]);
        assert!(stats[0].contains("\"completed\": 1"), "{}", stats[0]);
        assert!(stats[0].contains("\"worker_slots\": 1"), "{}", stats[0]);

        // Unknown experiment and rejected output flags are clean errors.
        let bad = Request::Submit {
            experiment: "nope".to_owned(),
            args: Vec::new(),
            wait: false,
        };
        let err = request_lines(addr, &bad.render(), 1);
        assert_type(&err[0], "error");
        assert!(err[0].contains("unknown experiment"), "{}", err[0]);
        let routed = Request::Submit {
            experiment: "table2".to_owned(),
            args: vec!["--json".to_owned()],
            wait: false,
        };
        let err = request_lines(addr, &routed.render(), 1);
        assert!(err[0].contains("output routing"), "{}", err[0]);

        let ok = request_lines(addr, &Request::Shutdown.render(), 1);
        assert_type(&ok[0], "ok");
        handle.wait();
        let _ = fs::remove_dir_all(&work_dir);
    }

    /// A cold daemon on a work dir whose cache already holds the artifact
    /// answers without running anything — the cache is durable state, not
    /// a per-process memo.
    #[test]
    fn cache_survives_a_daemon_restart() {
        let work_dir = scratch("restart");
        let exp = find_experiment("table2").expect("registered");
        let args = vec![
            "--quick".to_owned(),
            "--circuits".to_owned(),
            "squar5".to_owned(),
        ];
        let params = Params::parse(exp.extra_params(), args.iter().cloned()).expect("parses");
        let key = cache_key(exp, &params);
        let cache = ArtifactCache::open(&work_dir.join("cache")).expect("open");
        cache
            .store(&key, "prior incarnation's artifact\n")
            .expect("store");

        let handle = start(ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            work_dir: work_dir.clone(),
            max_inflight: 1,
            in_process_jobs: true,
            ..ServeOptions::default()
        })
        .expect("starts");
        let lines = request_lines(
            handle.addr(),
            &Request::Submit {
                experiment: "table2".to_owned(),
                args,
                wait: true,
            }
            .render(),
            2,
        );
        assert!(lines[0].contains("\"cache\": \"hit\""), "{}", lines[0]);
        assert!(
            lines[1].contains("prior incarnation's artifact"),
            "{}",
            lines[1]
        );
        handle.shutdown_and_wait();
        let _ = fs::remove_dir_all(&work_dir);
    }

    #[test]
    fn the_drain_waits_for_replies_in_flight_up_to_its_limit() {
        let replies = Arc::new(Replies::default());
        let reply = replies.begin();
        // A reply that never finishes holds the drain only up to the limit.
        let start = Instant::now();
        replies.wait_idle(Duration::from_millis(50));
        assert!(start.elapsed() >= Duration::from_millis(50));
        // The last reply to finish releases the drain at once.
        let drain = {
            let replies = Arc::clone(&replies);
            std::thread::spawn(move || {
                let start = Instant::now();
                replies.wait_idle(Duration::from_secs(10));
                start.elapsed()
            })
        };
        drop(reply);
        assert!(drain.join().expect("drain returns") < Duration::from_secs(1));
    }

    /// The job table keeps only the newest `SETTLED_JOBS_KEPT` settled
    /// jobs: `status` and `result` of an older id are one `error` line,
    /// while its request stays a cache hit away.
    #[test]
    fn retired_jobs_answer_no_such_job() {
        let work_dir = scratch("retire");
        let exp = find_experiment("table2").expect("registered");
        let args: Vec<String> = ["--quick", "--circuits", "rd53"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let params = Params::parse(exp.extra_params(), args.iter().cloned()).expect("parses");
        ArtifactCache::open(&work_dir.join("cache"))
            .expect("open")
            .store(&cache_key(exp, &params), "cached artifact\n")
            .expect("store");
        let handle = start(ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            work_dir: work_dir.clone(),
            max_inflight: 1,
            in_process_jobs: true,
            ..ServeOptions::default()
        })
        .expect("starts");
        let addr = handle.addr();

        let submit = Request::Submit {
            experiment: "table2".to_owned(),
            args,
            wait: false,
        }
        .render();
        let hits = SETTLED_JOBS_KEPT + 1;
        let replies = request_lines(addr, &vec![submit; hits].join("\n"), hits);
        assert!(replies.iter().all(|l| l.contains("\"cache\": \"hit\"")));

        // Every reply to a request about the retired first job, read to
        // the end of the connection.
        let all_replies = |request: Request| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            writeln!(stream, "{}", request.render()).expect("send");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            BufReader::new(stream)
                .lines()
                .map(|line| line.expect("read"))
                .collect::<Vec<_>>()
        };
        for request in [Request::Status { job: 0 }, Request::ResultOf { job: 0 }] {
            let lines = all_replies(request);
            assert_eq!(lines.len(), 1, "{lines:?}");
            let doc = Json::parse(&lines[0]).expect("parses");
            assert_eq!(doc.get("type").and_then(Json::as_str), Some("error"));
            assert_eq!(
                doc.get("message").and_then(Json::as_str),
                Some("no such job 0")
            );
        }
        let newest = all_replies(Request::Status {
            job: hits as u64 - 1,
        });
        assert!(newest[0].contains("\"state\": \"done\""), "{newest:?}");

        handle.shutdown_and_wait();
        let _ = fs::remove_dir_all(&work_dir);
    }
}
