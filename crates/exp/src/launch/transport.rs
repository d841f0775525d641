//! The dispatch abstraction: "run this worker argv on that host and
//! stream the partial back on stdout".
//!
//! A [`Transport`] starts a [`Flight`] per dispatch; the flight is polled
//! (never blocked on) by the launch scheduler and resolves to the raw
//! bytes the worker wrote to stdout — a complete `xbar-mc-partial/1`
//! document on success, which the scheduler still validates with
//! [`crate::shard::partial::ShardPartial::validate_for`] because a
//! *transport-level* success says nothing about transfer integrity.
//! Between polls the scheduler waits on `FLIGHT_EXITS`, a signal that
//! every flight backed by a local process raises as its worker exits.
//!
//! Two real transports cover the practical space without new
//! dependencies: [`LocalProc`] runs the argv directly (production on one
//! machine, and the loopback test double for multi-host tests), and
//! [`Exec`] substitutes the argv into a user command template (`ssh`,
//! container runners, job-queue shims). [`Faulty`] wraps any transport
//! with deterministic fault injection for tests and CI.

use std::collections::HashMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The full worker invocation a transport must execute: binary plus every
/// argument (shard flags, injection passthrough). Transports
/// are worker-agnostic — they never interpret the argv, only run it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerJob {
    /// Worker binary path (as visible on the executing host).
    pub binary: PathBuf,
    /// Every argument after the binary, in order.
    pub args: Vec<String>,
}

impl WorkerJob {
    /// The argv as one token list: binary first, then the arguments.
    #[must_use]
    pub fn argv(&self) -> Vec<String> {
        let mut argv = vec![self.binary.to_string_lossy().into_owned()];
        argv.extend(self.args.iter().cloned());
        argv
    }
}

/// One in-progress dispatch. `poll` must never block: it returns `None`
/// while the dispatch is still running, and `Some(result)` exactly once
/// when it finished — `Ok(stdout bytes)` on a zero exit, `Err(message)`
/// otherwise. `cancel` kills the dispatch (hedge losers, watchdog
/// deadlines, fail-fast aborts); a cancelled flight need not resolve.
pub trait Flight: Send {
    /// Non-blocking progress check; `Some` at most once.
    fn poll(&mut self) -> Option<Result<Vec<u8>, String>>;
    /// Kills the dispatch and reaps whatever it can.
    fn cancel(&mut self);
}

/// Runs a [`WorkerJob`] on a named host. Implementations must be cheap to
/// share across the scheduler loop (`Send + Sync`); per-dispatch state
/// lives in the returned [`Flight`].
pub trait Transport: Send + Sync {
    /// Starts the job on `host`.
    ///
    /// # Errors
    ///
    /// An `Err` is a *dispatch* failure (host unreachable, spawn failed)
    /// and counts against the host's health exactly like a failed flight.
    fn dispatch(&self, host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String>;
}

impl Transport for Box<dyn Transport> {
    fn dispatch(&self, host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String> {
        self.as_ref().dispatch(host, job)
    }
}

/// The process-wide wake-up signal for flights: a count of worker exits
/// plus a condvar. A [`ProcFlight`]'s pipe readers raise it as their
/// pipes reach EOF, so a scheduler waiting on it wakes as soon as one of
/// its workers exits instead of at its next tick. Every scheduler in the
/// process shares it; one woken by another's worker just polls again.
pub(crate) struct FlightSignal {
    count: Mutex<u64>,
    raised: Condvar,
}

/// The one [`FlightSignal`] of this process.
pub(crate) static FLIGHT_EXITS: FlightSignal = FlightSignal {
    count: Mutex::new(0),
    raised: Condvar::new(),
};

impl FlightSignal {
    /// The number of raises so far.
    pub(crate) fn count(&self) -> u64 {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one raise and wakes every waiter.
    pub(crate) fn raise(&self) {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.raised.notify_all();
    }

    /// Blocks until the count differs from `seen` or `timeout` passes.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) {
        let count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self
            .raised
            .wait_timeout_while(count, timeout, |count| *count == seen);
    }
}

/// A flight backed by a local child process with piped stdout/stderr.
/// Each pipe is drained by its own reader thread, so a worker writing more
/// than a pipe buffer of output never waits for its scheduler to read;
/// the reader raises [`FLIGHT_EXITS`] when its pipe reaches EOF.
struct ProcFlight {
    child: Child,
    stdout: Option<JoinHandle<Vec<u8>>>,
    stderr: Option<JoinHandle<Vec<u8>>>,
    done: bool,
}

/// Reads `pipe` to its end on a new thread, then raises [`FLIGHT_EXITS`].
fn drain(mut pipe: impl Read + Send + 'static) -> std::io::Result<JoinHandle<Vec<u8>>> {
    std::thread::Builder::new().spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        FLIGHT_EXITS.raise();
        bytes
    })
}

impl ProcFlight {
    /// Starts `program` and its two pipe readers. A reader the OS refuses
    /// to start is a dispatch error: the child is killed and reaped (by
    /// `Drop`) before it returns.
    fn spawn(program: &str, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {program}: {e}"))?;
        let out_pipe = child.stdout.take().expect("piped stdout");
        let err_pipe = child.stderr.take().expect("piped stderr");
        let mut flight = Self {
            child,
            stdout: None,
            stderr: None,
            done: false,
        };
        let no_reader = |e| format!("cannot start a pipe reader for {program}: {e}");
        flight.stdout = Some(drain(out_pipe).map_err(no_reader)?);
        flight.stderr = Some(drain(err_pipe).map_err(no_reader)?);
        Ok(flight)
    }

    fn join_stdout(&mut self) -> Vec<u8> {
        self.stdout
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    fn join_stderr_tail(&mut self) -> String {
        let bytes = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        let text = String::from_utf8_lossy(&bytes);
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(3)..].join(" | ")
    }
}

impl Flight for ProcFlight {
    fn poll(&mut self) -> Option<Result<Vec<u8>, String>> {
        if self.done {
            return None;
        }
        match self.child.try_wait() {
            Ok(Some(status)) => {
                self.done = true;
                if status.success() {
                    Some(Ok(self.join_stdout()))
                } else {
                    let tail = self.join_stderr_tail();
                    Some(Err(format!("worker exited with {status}: {tail}")))
                }
            }
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                self.cancel_child();
                Some(Err(format!("wait failed: {e}")))
            }
        }
    }

    fn cancel(&mut self) {
        self.done = true;
        self.cancel_child();
    }
}

impl ProcFlight {
    fn cancel_child(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Killing closed the pipes, so the reader threads terminate; join
        // them to avoid leaking threads across a long campaign.
        let _ = self.stdout.take().map(JoinHandle::join);
        let _ = self.stderr.take().map(JoinHandle::join);
    }
}

impl Drop for ProcFlight {
    fn drop(&mut self) {
        if !self.done {
            self.cancel_child();
        }
    }
}

/// The subprocess transport: runs the worker argv directly on this
/// machine, ignoring the host name beyond bookkeeping. Production for a
/// single node — and, with a fleet of named "hosts", the loopback test
/// double every multi-host test and the CI smoke run on.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalProc;

impl Transport for LocalProc {
    fn dispatch(&self, _host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String> {
        let program = job.binary.to_string_lossy().into_owned();
        Ok(Box::new(ProcFlight::spawn(&program, &job.args)?))
    }
}

/// Quotes one token for `sh`: single quotes with the `'\''` escape, safe
/// for any byte sequence but a NUL.
fn sh_quote(token: &str) -> String {
    format!("'{}'", token.replace('\'', "'\\''"))
}

/// The command-template transport: each dispatch substitutes the worker
/// argv and host name into a user-supplied token list and runs the
/// result locally. This covers `ssh` (and any other remote runner)
/// without new dependencies:
///
/// ```text
/// --exec-arg ssh --exec-arg {host} --exec-arg {worker:sh}
/// ```
///
/// Substitution rules, per template token:
///
/// * a token exactly `{worker}` splices the argv as separate tokens;
/// * a token exactly `{worker:sh}` becomes one shell-quoted string
///   (`exec`-prefixed so the remote shell is replaced, not wrapped —
///   `cancel` then reaches the worker itself);
/// * `{host}` anywhere in a token is replaced by the host name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exec {
    template: Vec<String>,
}

impl Exec {
    /// Builds the transport from a command template.
    ///
    /// # Errors
    ///
    /// The template must be non-empty and contain `{worker}` or
    /// `{worker:sh}` exactly once — a template that never mentions the
    /// worker would run the same command for every shard.
    pub fn new(template: Vec<String>) -> Result<Self, String> {
        if template.is_empty() {
            return Err("exec template is empty".to_owned());
        }
        let placeholders = template
            .iter()
            .filter(|t| t.as_str() == "{worker}" || t.as_str() == "{worker:sh}")
            .count();
        if placeholders != 1 {
            return Err(format!(
                "exec template must contain `{{worker}}` or `{{worker:sh}}` exactly once \
                 (found {placeholders})"
            ));
        }
        Ok(Self { template })
    }

    /// The concrete argv a dispatch of `job` on `host` would run.
    #[must_use]
    pub fn render(&self, host: &str, job: &WorkerJob) -> Vec<String> {
        let mut argv = Vec::with_capacity(self.template.len() + job.args.len());
        for token in &self.template {
            match token.as_str() {
                "{worker}" => argv.extend(job.argv()),
                "{worker:sh}" => {
                    let quoted: Vec<String> = job.argv().iter().map(|t| sh_quote(t)).collect();
                    argv.push(format!("exec {}", quoted.join(" ")));
                }
                other => argv.push(other.replace("{host}", host)),
            }
        }
        argv
    }
}

impl Transport for Exec {
    fn dispatch(&self, host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String> {
        let argv = self.render(host, job);
        Ok(Box::new(ProcFlight::spawn(&argv[0], &argv[1..])?))
    }
}

/// What an injected fault does to the matched dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The dispatch itself fails (host unreachable).
    Drop,
    /// The flight starts but never completes (link stall / hung worker) —
    /// only a watchdog deadline or a hedged duplicate resolves the shard.
    Stall,
    /// The flight succeeds but returns only a prefix of the stream (torn
    /// transfer); partial validation must reject it.
    Truncate,
    /// The host dies: this dispatch and every later one on the host fail
    /// instantly (process death mid-campaign).
    Die,
}

impl FaultKind {
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "drop" => Ok(Self::Drop),
            "stall" => Ok(Self::Stall),
            "truncate" => Ok(Self::Truncate),
            "die" => Ok(Self::Die),
            other => Err(format!(
                "unknown fault kind {other:?} (drop|stall|truncate|die)"
            )),
        }
    }
}

/// One injected fault: on host `host`, the dispatch with per-host ordinal
/// `at` (0-based) is hit by `kind` — and for [`FaultKind::Die`], every
/// later dispatch too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Host the fault targets.
    pub host: String,
    /// What happens.
    pub kind: FaultKind,
    /// Per-host dispatch ordinal the fault fires at (0-based).
    pub at: usize,
}

impl FaultPlan {
    /// Parses the CLI grammar `host=kind[@ordinal]` (ordinal defaults
    /// to 0), e.g. `beta=die@1` or `alpha=truncate`.
    ///
    /// # Errors
    ///
    /// Reports a missing `=`, an unknown kind, or a malformed ordinal.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (host, rest) = text
            .split_once('=')
            .ok_or_else(|| format!("fault spec {text:?} missing `=` (host=kind[@ordinal])"))?;
        if host.is_empty() {
            return Err(format!("fault spec {text:?} names no host"));
        }
        let (kind, at) = match rest.split_once('@') {
            Some((kind, ordinal)) => (
                FaultKind::parse(kind)?,
                ordinal
                    .parse()
                    .map_err(|_| format!("fault ordinal {ordinal:?} is not a number"))?,
            ),
            None => (FaultKind::parse(rest)?, 0),
        };
        Ok(Self {
            host: host.to_owned(),
            kind,
            at,
        })
    }
}

/// A flight that never completes until cancelled (the injected stall).
#[derive(Debug)]
struct StallFlight;

impl Flight for StallFlight {
    fn poll(&mut self) -> Option<Result<Vec<u8>, String>> {
        None
    }
    fn cancel(&mut self) {}
}

/// Wraps an inner flight and chops its success bytes in half (a torn
/// stream: the connection dropped mid-transfer).
struct TruncateFlight {
    inner: Box<dyn Flight>,
}

impl Flight for TruncateFlight {
    fn poll(&mut self) -> Option<Result<Vec<u8>, String>> {
        match self.inner.poll() {
            Some(Ok(mut bytes)) => {
                bytes.truncate(bytes.len() / 2);
                Some(Ok(bytes))
            }
            other => other,
        }
    }
    fn cancel(&mut self) {
        self.inner.cancel();
    }
}

/// A fault-injecting transport wrapper: counts dispatches per host and
/// applies any matching [`FaultPlan`]; unmatched dispatches pass through
/// to the inner transport untouched. Deterministic — the ordinal counter
/// makes fault placement reproducible for a fixed dispatch order.
#[derive(Debug)]
pub struct Faulty<T> {
    inner: T,
    plans: Vec<FaultPlan>,
    counts: Mutex<HashMap<String, usize>>,
}

impl<T: Transport> Faulty<T> {
    /// Wraps `inner` with the given fault plans.
    #[must_use]
    pub fn new(inner: T, plans: Vec<FaultPlan>) -> Self {
        Self {
            inner,
            plans,
            counts: Mutex::new(HashMap::new()),
        }
    }
}

impl<T: Transport> Transport for Faulty<T> {
    fn dispatch(&self, host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String> {
        let ordinal = {
            let mut counts = self.counts.lock().expect("fault counter lock");
            let slot = counts.entry(host.to_owned()).or_insert(0);
            let ordinal = *slot;
            *slot += 1;
            ordinal
        };
        let hit = self.plans.iter().find(|plan| {
            plan.host == host
                && match plan.kind {
                    FaultKind::Die => ordinal >= plan.at,
                    _ => ordinal == plan.at,
                }
        });
        match hit.map(|plan| plan.kind) {
            Some(FaultKind::Drop) => Err(format!(
                "injected drop: dispatch {ordinal} to {host} never started"
            )),
            Some(FaultKind::Die) => Err(format!(
                "injected host death: {host} is gone (dispatch {ordinal})"
            )),
            Some(FaultKind::Stall) => Ok(Box::new(StallFlight)),
            Some(FaultKind::Truncate) => {
                let inner = self.inner.dispatch(host, job)?;
                Ok(Box::new(TruncateFlight { inner }))
            }
            None => self.inner.dispatch(host, job),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(args: &[&str]) -> WorkerJob {
        WorkerJob {
            binary: PathBuf::from("/bin/echo"),
            args: args.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    #[test]
    fn local_proc_streams_stdout_and_reports_failures() {
        let transport = LocalProc;
        let mut flight = transport
            .dispatch("anywhere", &job(&["hello"]))
            .expect("ok");
        let result = loop {
            if let Some(result) = flight.poll() {
                break result;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        assert_eq!(result.expect("succeeds"), b"hello\n");

        let fail = WorkerJob {
            binary: PathBuf::from("/bin/sh"),
            args: vec!["-c".to_owned(), "echo doomed >&2; exit 3".to_owned()],
        };
        let mut flight = transport.dispatch("anywhere", &fail).expect("spawns");
        let result = loop {
            if let Some(result) = flight.poll() {
                break result;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        let err = result.expect_err("non-zero exit is a flight failure");
        assert!(err.contains("doomed"), "stderr tail surfaces: {err}");
    }

    #[test]
    fn exec_template_substitutes_host_and_worker() {
        let exec = Exec::new(
            ["ssh", "-p", "22", "{host}", "{worker:sh}"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        )
        .expect("valid");
        let argv = exec.render("db-3", &job(&["--num-shards", "3", "it's"]));
        assert_eq!(argv[..4], ["ssh", "-p", "22", "db-3"]);
        assert_eq!(argv[4], "exec '/bin/echo' '--num-shards' '3' 'it'\\''s'");

        let spliced = Exec::new(vec!["{worker}".to_owned()]).expect("valid");
        assert_eq!(
            spliced.render("h", &job(&["a", "b"])),
            ["/bin/echo", "a", "b"]
        );

        assert!(Exec::new(vec![]).is_err(), "empty template");
        assert!(
            Exec::new(vec!["ssh".to_owned(), "{host}".to_owned()]).is_err(),
            "template without a worker placeholder"
        );
        assert!(
            Exec::new(vec!["{worker}".to_owned(), "{worker:sh}".to_owned()]).is_err(),
            "two worker placeholders"
        );
    }

    #[test]
    fn fault_plans_parse_the_cli_grammar() {
        assert_eq!(
            FaultPlan::parse("beta=die@1").expect("parses"),
            FaultPlan {
                host: "beta".to_owned(),
                kind: FaultKind::Die,
                at: 1
            }
        );
        assert_eq!(
            FaultPlan::parse("alpha=truncate").expect("parses").at,
            0,
            "ordinal defaults to 0"
        );
        for bad in ["beta", "=die", "beta=melt", "beta=die@soon"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn faulty_wrapper_hits_the_right_ordinals() {
        let plans = vec![
            FaultPlan::parse("a=drop@1").expect("parses"),
            FaultPlan::parse("b=die@1").expect("parses"),
        ];
        let faulty = Faulty::new(LocalProc, plans);
        // a: ordinal 0 passes, 1 drops, 2 passes again.
        assert!(faulty.dispatch("a", &job(&["x"])).is_ok());
        let err = faulty.dispatch("a", &job(&["x"])).err().expect("drop");
        assert!(err.contains("injected drop"), "{err}");
        assert!(faulty.dispatch("a", &job(&["x"])).is_ok());
        // b: ordinal 0 passes, then the host is dead for good.
        assert!(faulty.dispatch("b", &job(&["x"])).is_ok());
        for _ in 0..3 {
            let err = faulty.dispatch("b", &job(&["x"])).err().expect("dead");
            assert!(err.contains("host death"), "{err}");
        }
    }

    #[test]
    fn truncate_fault_halves_the_stream_and_stall_never_resolves() {
        let faulty = Faulty::new(
            LocalProc,
            vec![
                FaultPlan::parse("t=truncate@0").expect("parses"),
                FaultPlan::parse("s=stall@0").expect("parses"),
            ],
        );
        let mut flight = faulty
            .dispatch("t", &job(&["0123456789"]))
            .expect("dispatches");
        let bytes = loop {
            if let Some(result) = flight.poll() {
                break result.expect("flight succeeds");
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        assert_eq!(bytes, b"01234", "11 bytes with newline -> half = 5");

        let mut stalled = faulty.dispatch("s", &job(&["x"])).expect("dispatches");
        for _ in 0..5 {
            assert!(stalled.poll().is_none(), "a stall never completes");
        }
        stalled.cancel();
    }
}
