//! Process-level tests of the yield-oracle service: a real `xbar serve`
//! daemon on a real TCP socket, driven by real `xbar submit` processes.
//! Covers the core service promises end to end: the served artifact is
//! byte-identical to `xbar run --json`, a repeated submit is answered
//! from the artifact cache without any new work, concurrent submissions
//! never exceed the worker-slot bound, a daemon killed mid-job or a job
//! whose artifact cannot be cached leaves checkpoints a resubmit resumes
//! from, a waiting client cut off by a restart still gets its own
//! request's bytes, a request line nested past the JSON parser's bound
//! or longer than the daemon reads gets an `error` line, connection
//! handlers are reused between connections and never make one wait
//! behind another, and a shutdown drains running jobs to their waiting
//! clients before the daemon exits.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};
use xbar_core::{DefectModelSpec, SampleStream};
use xbar_exp::experiment::{find_experiment, Params};
use xbar_exp::service::{cache_key, ArtifactCache, Request};
use xbar_exp::shard::coordinator::campaign_run_dir;
use xbar_exp::shard::json::Json;
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::McConfig;

/// How long a daemon may take to exit after `--shutdown` before a test
/// kills it and fails.
const EXIT_LIMIT: Duration = Duration::from_secs(30);

fn xbar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xbar"))
}

/// A unique scratch directory per test (no tempfile crate in the
/// workspace).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar-service-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A running daemon plus the address it bound.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `xbar serve --listen 127.0.0.1:0 --work-dir <work_dir>` plus
    /// `extra` flags and reads the bound address off the first stdout
    /// line.
    fn start(work_dir: &PathBuf, extra: &[&str]) -> Self {
        Self::start_at(work_dir, "127.0.0.1:0", extra)
    }

    /// Starts a daemon on an explicit listen address (the bounce test
    /// must rebind the address a killed daemon just vacated).
    fn start_at(work_dir: &PathBuf, listen: &str, extra: &[&str]) -> Self {
        Self::try_start_at(work_dir, listen, extra).expect("daemon announces its address")
    }

    /// Fallible start: `None` when the daemon exits before announcing
    /// its address (e.g. the listen address is still in TIME_WAIT after
    /// a kill — callers retry).
    fn try_start_at(work_dir: &PathBuf, listen: &str, extra: &[&str]) -> Option<Self> {
        let mut child = xbar()
            .args(["serve", "--listen", listen, "--work-dir"])
            .arg(work_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let Some(Ok(first)) = lines.next() else {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        };
        let addr = first
            .rsplit("listening on ")
            .next()
            .expect("address after the marker")
            .trim()
            .to_owned();
        assert!(addr.contains(':'), "not an address: {first}");
        Some(Daemon { child, addr })
    }

    /// Runs one `xbar submit` against this daemon and returns its output.
    fn submit(&self, args: &[&str]) -> Output {
        xbar()
            .args(["submit", "--connect", &self.addr])
            .args(args)
            .output()
            .expect("run xbar submit")
    }

    /// Asks the daemon to drain and waits, for at most [`EXIT_LIMIT`],
    /// for a clean exit.
    fn shutdown(mut self) {
        let out = self.submit(&["--shutdown"]);
        assert!(out.status.success(), "shutdown: {out:?}");
        let status = self.wait_exit();
        assert!(status.success(), "daemon exit: {status:?}");
    }

    /// The daemon's exit status, once it exits; a daemon still running
    /// after [`EXIT_LIMIT`] is killed and the test fails.
    fn wait_exit(&mut self) -> ExitStatus {
        let deadline = Instant::now() + EXIT_LIMIT;
        loop {
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                return status;
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                panic!("the daemon did not exit within {EXIT_LIMIT:?} of --shutdown");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    /// A test that fails before [`Daemon::shutdown`] leaves no daemon
    /// behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn stdout_str(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr_str(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

/// The campaign the restart tests interrupt: on [`SLOWED_SHARDS`] it runs
/// long enough for a kill to land mid-job.
const SLOW_JOB: [&str; 5] = ["table2", "--samples", "30", "--circuits", "rd53"];

/// Daemon flags running each job as four serialized shards of at least
/// 400 ms each.
const SLOWED_SHARDS: [&str; 8] = [
    "--job-shards",
    "4",
    "--job-max-inflight",
    "1",
    "--worker-arg",
    "--inject-slow-ms",
    "--worker-arg",
    "400",
];

/// The run dir of a four-shard `table2` job on rd53 under `work_dir`: the
/// job dir is named by the cache key, the run dir inside it by the
/// campaign identity — both computed with the same library code the
/// daemon uses.
fn rd53_run_dir(work_dir: &Path, job: &[&str]) -> PathBuf {
    let exp = find_experiment("table2").expect("registered");
    let params = Params::parse(exp.extra_params(), job[1..].iter().map(|s| (*s).to_owned()))
        .expect("parses");
    let key = cache_key(exp, &params);
    let config = McConfig {
        samples: params.samples,
        seed: params.seed,
        defect_rate: params.defect_rate,
        stream: SampleStream::V1,
        model: DefectModelSpec::default(),
        circuits: vec!["rd53".to_owned()],
    };
    let job_dir = work_dir.join("jobs").join(&key.name);
    campaign_run_dir(&job_dir, &config, 4)
}

/// Where [`SLOW_JOB`]'s first checkpoint lands under `work_dir`.
fn slow_job_first_checkpoint(work_dir: &Path) -> PathBuf {
    rd53_run_dir(work_dir, &SLOW_JOB).join("partial-0.json")
}

/// Blocks until `partial` holds a complete shard checkpoint (at most 60 s).
fn wait_for_checkpoint(partial: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared at {}",
            partial.display()
        );
        if let Ok(text) = std::fs::read_to_string(partial) {
            if ShardPartial::from_json(&text).is_ok() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sends `kill -<name>` to `pid`.
fn signal(pid: u32, name: &str) {
    let sent = Command::new("kill")
        .args([&format!("-{name}"), &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success(), "kill -{name} {pid}");
}

/// Starts a full-speed daemon on `addr`, the address a killed daemon just
/// vacated, retrying while its socket drains.
fn restart_at(work_dir: &PathBuf, addr: &str) -> Daemon {
    let rebind_deadline = Instant::now() + Duration::from_secs(8);
    loop {
        if let Some(daemon) = Daemon::try_start_at(
            work_dir,
            addr,
            &["--job-shards", "4", "--job-max-inflight", "1"],
        ) {
            return daemon;
        }
        assert!(
            Instant::now() < rebind_deadline,
            "could not rebind {addr} after the bounce"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A stopped process, continued however the test leaves its scope, so a
/// failed assertion cannot strand it.
struct Stopped(u32);

impl Stopped {
    fn new(pid: u32) -> Self {
        signal(pid, "STOP");
        Stopped(pid)
    }
}

impl Drop for Stopped {
    fn drop(&mut self) {
        let _ = Command::new("kill")
            .args(["-CONT", &self.0.to_string()])
            .status();
    }
}

#[test]
fn served_artifact_is_byte_identical_to_xbar_run_and_repeats_hit_the_cache() {
    let work_dir = scratch("identity");
    let daemon = Daemon::start(&work_dir, &["--max-inflight", "2", "--job-shards", "2"]);

    // The reference bytes a client of `xbar run` would get.
    let reference = xbar()
        .args(["run", "table2", "--quick", "--circuits", "rd53", "--json"])
        .output()
        .expect("run xbar run");
    assert!(reference.status.success(), "{reference:?}");
    let reference = stdout_str(&reference);
    assert!(reference.contains("xbar-artifact/1"), "{reference}");

    let submit_args = ["table2", "--quick", "--circuits", "rd53", "--wait"];
    let cold = daemon.submit(&submit_args);
    assert!(cold.status.success(), "{cold:?}");
    assert_eq!(
        stdout_str(&cold),
        reference,
        "served artifact must be byte-identical to xbar run --json"
    );
    assert!(
        stderr_str(&cold).contains("cache miss"),
        "{}",
        stderr_str(&cold)
    );

    // Successful jobs clean their run directories up; only the cache
    // remains as durable state.
    let jobs_left = |dir: &PathBuf| {
        std::fs::read_dir(dir.join("jobs"))
            .map(|entries| entries.count())
            .unwrap_or(0)
    };
    assert_eq!(jobs_left(&work_dir), 0, "cold run dir cleaned after merge");

    let warm = daemon.submit(&submit_args);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(stdout_str(&warm), reference, "cache hit serves same bytes");
    assert!(
        stderr_str(&warm).contains("cache hit"),
        "{}",
        stderr_str(&warm)
    );
    assert_eq!(jobs_left(&work_dir), 0, "a hit never creates a run dir");

    let stats = daemon.submit(&["--stats"]);
    assert!(stats.status.success(), "{stats:?}");
    let stats = stdout_str(&stats);
    assert!(stats.contains("\"cache_hits\": 1"), "{stats}");
    assert!(stats.contains("\"completed\": 1"), "{stats}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn concurrent_submissions_never_exceed_the_worker_slot_bound() {
    let work_dir = scratch("slots");
    let conc_dir = work_dir.join("conc");
    // 2 worker slots, 1 shard per job, 1 live worker per job: at most two
    // shard workers can be alive at any instant, and every worker records
    // how many live siblings it sees.
    let daemon = Daemon::start(
        &work_dir,
        &[
            "--max-inflight",
            "2",
            "--job-shards",
            "1",
            "--job-max-inflight",
            "1",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "300",
            "--worker-arg",
            "--inject-concurrency-dir",
            "--worker-arg",
            conc_dir.to_str().expect("utf8 path"),
        ],
    );

    // Five concurrent clients with distinct seeds (distinct cache keys, so
    // nothing coalesces) all waiting for completion.
    let clients: Vec<_> = (0..5)
        .map(|i| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                xbar()
                    .args(["submit", "--connect", &addr])
                    .args(["table2", "--samples", "6", "--circuits", "rd53", "--wait"])
                    .args(["--seed", &format!("90{i}")])
                    .output()
                    .expect("run xbar submit")
            })
        })
        .collect();
    for client in clients {
        let out = client.join().expect("client thread");
        assert!(out.status.success(), "{out:?}");
        assert!(stdout_str(&out).contains("xbar-artifact/1"));
    }

    let observed = std::fs::read_to_string(conc_dir.join("observed.txt"))
        .expect("workers recorded live counts");
    let max_live = observed
        .lines()
        .map(|line| line.trim().parse::<usize>().expect("count"))
        .max()
        .expect("at least one worker ran");
    assert!(
        (1..=2).contains(&max_live),
        "worker-slot bound violated: {max_live} live workers\n{observed}"
    );

    let stats = stdout_str(&daemon.submit(&["--stats"]));
    assert!(stats.contains("\"completed\": 5"), "{stats}");
    assert!(
        stats.contains("\"max_running_observed\": 2")
            || stats.contains("\"max_running_observed\": 1"),
        "{stats}"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn daemon_killed_mid_job_resumes_from_checkpoints_after_restart() {
    let work_dir = scratch("resume");
    let submit_args = SLOW_JOB;
    let first_partial = slow_job_first_checkpoint(&work_dir);

    // Slow serialized shards so the kill lands mid-campaign.
    let mut daemon = Daemon::start(&work_dir, &SLOWED_SHARDS);
    let accepted = daemon.submit(&submit_args);
    assert!(accepted.status.success(), "{accepted:?}");

    // Wait for the first complete checkpoint, then SIGTERM the daemon —
    // no graceful drain, exactly like a supervisor timeout or reboot.
    wait_for_checkpoint(&first_partial);
    signal(daemon.child.id(), "TERM");
    let _ = daemon.child.wait();
    assert!(
        first_partial.exists(),
        "checkpoints must survive the daemon's death"
    );

    // Restart on the same work dir (full speed this time) and resubmit:
    // the dead daemon's run-directory lock died with it, so the surviving
    // partials must be reused and the artifact still byte-equal to a
    // monolithic run.
    let daemon = Daemon::start(&work_dir, &["--job-shards", "4", "--job-max-inflight", "1"]);
    let resumed = daemon.submit(&[&submit_args[..], &["--wait"]].concat());
    assert!(resumed.status.success(), "{resumed:?}");
    let note = stderr_str(&resumed);
    let reused: usize = note
        .split("reused ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no reused count in client note: {note}"));
    assert!(reused >= 1, "restart must reuse checkpoints: {note}");

    let reference = xbar()
        .args(["run"])
        .args(submit_args)
        .arg("--json")
        .output()
        .expect("run xbar run");
    assert_eq!(
        stdout_str(&resumed),
        stdout_str(&reference),
        "resumed artifact must be byte-identical to a monolithic run"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn a_job_whose_artifact_cannot_be_cached_keeps_its_checkpoints() {
    let work_dir = scratch("store");
    let daemon = Daemon::start(&work_dir, &["--job-shards", "4"]);
    let job = ["table2", "--samples", "40", "--circuits", "rd53"];
    let submit_args = [&job[..], &["--wait"]].concat();

    // A regular file where the cache dir was: the store fails after the
    // campaign has run.
    let cache = work_dir.join("cache");
    std::fs::remove_dir_all(&cache).expect("the daemon made its cache dir");
    std::fs::write(&cache, "").expect("a file in the cache dir's place");
    let failed = daemon.submit(&submit_args);
    assert_eq!(failed.status.code(), Some(1), "{failed:?}");
    let note = stderr_str(&failed);
    assert!(note.contains("cannot write cache artifact"), "{note}");
    let run_dir = rd53_run_dir(&work_dir, &job);
    for index in 0..4 {
        let partial = run_dir.join(format!("partial-{index}.json"));
        let text = std::fs::read_to_string(&partial).expect("the checkpoint survives");
        assert!(
            ShardPartial::from_json(&text).is_ok(),
            "{}",
            partial.display()
        );
    }

    // With the cache dir back, the resubmit merges the four checkpoints
    // without spawning a worker, and the cached job's run dir goes.
    std::fs::remove_file(&cache).expect("remove the file");
    std::fs::create_dir(&cache).expect("restore the cache dir");
    let resumed = daemon.submit(&submit_args);
    assert!(resumed.status.success(), "{resumed:?}");
    let note = stderr_str(&resumed);
    assert!(note.contains("spawned 0, reused 4"), "{note}");
    let reference = xbar()
        .arg("run")
        .args(job)
        .arg("--json")
        .output()
        .expect("run xbar run");
    assert_eq!(stdout_str(&resumed), stdout_str(&reference));
    assert!(!run_dir.exists(), "{}", run_dir.display());

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn protocol_errors_and_usage_errors_have_distinct_exit_codes() {
    let work_dir = scratch("errors");
    let daemon = Daemon::start(&work_dir, &["--in-process-jobs"]);

    // Daemon-side errors: clean exit 1 with the daemon's message.
    let unknown = daemon.submit(&["frobnicate", "--wait"]);
    assert_eq!(unknown.status.code(), Some(1), "{unknown:?}");
    assert!(
        stderr_str(&unknown).contains("unknown experiment"),
        "{}",
        stderr_str(&unknown)
    );
    let no_job = daemon.submit(&["--status", "999"]);
    assert_eq!(no_job.status.code(), Some(1), "{no_job:?}");
    assert!(
        stderr_str(&no_job).contains("no such job"),
        "{}",
        stderr_str(&no_job)
    );
    let routed = daemon.submit(&["table2", "--json"]);
    assert_eq!(routed.status.code(), Some(1), "{routed:?}");
    assert!(
        stderr_str(&routed).contains("output routing"),
        "{}",
        stderr_str(&routed)
    );

    // Client-side usage errors: exit 2 before anything touches the wire.
    let usage = daemon.submit(&["--status", "soon"]);
    assert_eq!(usage.status.code(), Some(2), "{usage:?}");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn launcher_mode_serves_byte_identical_artifacts_with_host_attribution() {
    let work_dir = scratch("launcher");
    // A 2-host loopback fleet with one host dying on its first dispatch:
    // the executor must fail over, attribute the work, and still serve
    // the canonical bytes.
    let daemon = Daemon::start(
        &work_dir,
        &[
            "--job-shards",
            "3",
            "--launcher",
            "alpha*3,beta",
            "--launcher-fault",
            "beta=die@0",
        ],
    );

    let reference = xbar()
        .args(["run", "table2", "--quick", "--circuits", "rd53", "--json"])
        .output()
        .expect("run xbar run");
    assert!(reference.status.success(), "{reference:?}");

    let served = daemon.submit(&["table2", "--quick", "--circuits", "rd53", "--wait"]);
    assert!(served.status.success(), "{served:?}");
    assert_eq!(
        stdout_str(&served),
        stdout_str(&reference),
        "launcher-run artifact must be byte-identical to xbar run --json"
    );
    let note = stderr_str(&served);
    assert!(
        note.contains("hosts ") && note.contains("alpha:"),
        "the completion note must attribute dispatches to hosts: {note}"
    );

    let stats = stdout_str(&daemon.submit(&["--stats"]));
    assert!(
        stats.contains("\"shard_spawned\": 3"),
        "launcher flights must reach the stats counters: {stats}"
    );
    assert!(
        stats.contains("\"shard_retries\": 1"),
        "the dead host costs exactly one shard retry: {stats}"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn waiting_client_survives_a_daemon_bounce_and_still_gets_identical_bytes() {
    let work_dir = scratch("bounce");
    let submit_args = SLOW_JOB;
    let first_partial = slow_job_first_checkpoint(&work_dir);

    // Slow serialized shards so the kill lands mid-campaign.
    let mut daemon = Daemon::start(&work_dir, &SLOWED_SHARDS);
    let addr = daemon.addr.clone();

    // A client waiting on the job while the daemon dies under it.
    let client = xbar()
        .args(["submit", "--connect", &addr])
        .args(submit_args)
        .arg("--wait")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn waiting client");

    // Wait for the first complete checkpoint, then SIGKILL — a hard
    // bounce, no drain, no goodbye on the client's connection.
    wait_for_checkpoint(&first_partial);
    signal(daemon.child.id(), "KILL");
    let _ = daemon.child.wait();

    // Rebind the same address at full speed; the new daemon has fresh
    // queue state, so the client's re-sent request is queued again and
    // resumes from the checkpoints.
    let daemon = restart_at(&work_dir, &addr);

    let out = client.wait_with_output().expect("client output");
    assert!(
        out.status.success(),
        "client must survive the bounce: {out:?}"
    );
    let note = stderr_str(&out);
    assert!(
        note.contains("reconnecting to follow job"),
        "the client must notice the outage: {note}"
    );
    assert!(
        note.contains("resubmitted as job"),
        "the bounced daemon lost its queue; the client resubmits: {note}"
    );

    let reference = xbar()
        .args(["run"])
        .args(submit_args)
        .arg("--json")
        .output()
        .expect("run xbar run");
    assert_eq!(
        stdout_str(&out),
        stdout_str(&reference),
        "bytes delivered across the bounce must equal a monolithic run"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn a_reconnecting_client_never_adopts_another_requests_job() {
    let work_dir = scratch("adopt");
    let first_partial = slow_job_first_checkpoint(&work_dir);
    let mut daemon = Daemon::start(&work_dir, &SLOWED_SHARDS);
    let addr = daemon.addr.clone();
    let client = xbar()
        .args(["submit", "--connect", &addr])
        .args(SLOW_JOB)
        .arg("--wait")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn waiting client");
    wait_for_checkpoint(&first_partial);

    // Freeze the client, then kill its daemon. Before the client can
    // notice, a restarted daemon serves another request, which takes the
    // job id the client was following: every daemon numbers from 0.
    let frozen = Stopped::new(client.id());
    signal(daemon.child.id(), "KILL");
    let _ = daemon.child.wait();
    let daemon = restart_at(&work_dir, &addr);
    let other = daemon.submit(&["table2", "--quick", "--circuits", "misex1", "--wait"]);
    assert!(other.status.success(), "{other:?}");
    drop(frozen);

    let out = client.wait_with_output().expect("client output");
    assert!(out.status.success(), "{out:?}");
    let reference = xbar()
        .args(["run"])
        .args(SLOW_JOB)
        .arg("--json")
        .output()
        .expect("run xbar run");
    assert_eq!(
        stdout_str(&out),
        stdout_str(&reference),
        "the client must print its own request's artifact"
    );
    assert_ne!(
        stdout_str(&out),
        stdout_str(&other),
        "the other request's artifact is not the client's"
    );
    let note = stderr_str(&out);
    assert!(
        note.contains("resubmitted as job"),
        "the client re-sends its own request: {note}"
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn a_line_nested_past_the_parsers_bound_gets_one_error_line() {
    let work_dir = scratch("nesting");
    let daemon = Daemon::start(&work_dir, &["--in-process-jobs"]);
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    // Nested far past the bound, and still shorter than the longest line
    // the daemon reads.
    let mut line = "[".repeat(60_000);
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send");
    // Closing the write half ends the connection once the line is answered.
    stream.shutdown(Shutdown::Write).expect("half-close");
    let replies: Vec<String> = std::io::BufReader::new(&stream)
        .lines()
        .collect::<Result<_, _>>()
        .expect("read replies");
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert!(replies[0].contains("\"type\": \"error\""), "{replies:?}");
    assert!(replies[0].contains("nest deeper"), "{replies:?}");

    let stats = daemon.submit(&["--stats"]);
    assert!(stats.status.success(), "the daemon must survive: {stats:?}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn shutdown_mid_job_still_delivers_the_artifact_to_a_waiting_client() {
    let work_dir = scratch("drain");
    let submit_args = ["table2", "--quick", "--circuits", "rd53"];
    // Slow serialized shards, so the shutdown lands while the job runs.
    let daemon = Daemon::start(
        &work_dir,
        &[
            "--job-shards",
            "2",
            "--job-max-inflight",
            "1",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "400",
        ],
    );
    let client = xbar()
        .args(["submit", "--connect", &daemon.addr])
        .args(submit_args)
        .arg("--wait")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn waiting client");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = stdout_str(&daemon.submit(&["--stats"]));
        if stats.contains("\"running\": 1") {
            break;
        }
        assert!(Instant::now() < deadline, "the job never started: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Drains the running job, then exits 0 (bounded by EXIT_LIMIT).
    daemon.shutdown();

    let out = client.wait_with_output().expect("client output");
    assert!(out.status.success(), "{out:?}");
    let note = stderr_str(&out);
    assert!(
        !note.contains("reconnecting"),
        "the final line must arrive before the daemon exits: {note}"
    );
    let reference = xbar()
        .args(["run"])
        .args(submit_args)
        .arg("--json")
        .output()
        .expect("run xbar run");
    assert_eq!(
        stdout_str(&out),
        stdout_str(&reference),
        "a job drained by shutdown must serve byte-identical bytes"
    );
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn a_daemon_on_an_unspecified_address_exits_after_shutdown() {
    let work_dir = scratch("wildcard");
    // The shutdown path wakes the blocking accept loop over loopback.
    let mut daemon = Daemon::start_at(&work_dir, "0.0.0.0:0", &["--in-process-jobs"]);
    let port = daemon.addr.rsplit(':').next().expect("port").to_owned();
    daemon.addr = format!("127.0.0.1:{port}");
    let stats = daemon.submit(&["--stats"]);
    assert!(stats.status.success(), "{stats:?}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

/// The `table2` campaign the handler tests answer from a primed cache.
const PRIMED: [&str; 4] = ["--quick", "--circuits", "misex1", "--seed"];

/// Stores `artifact` in `work_dir`'s cache as the answer to
/// `table2 <PRIMED> <seed>`, and returns that request's `submit` line.
fn prime_cache_hit(work_dir: &Path, seed: &str, artifact: &str) -> String {
    let args: Vec<String> = PRIMED
        .iter()
        .chain(&[seed])
        .map(|s| (*s).to_owned())
        .collect();
    let exp = find_experiment("table2").expect("registered");
    let params = Params::parse(exp.extra_params(), args.iter().cloned()).expect("parses");
    ArtifactCache::open(&work_dir.join("cache"))
        .expect("open the cache")
        .store(&cache_key(exp, &params), artifact)
        .expect("prime the cache");
    Request::Submit {
        experiment: "table2".to_owned(),
        args,
        wait: true,
    }
    .render()
}

fn connect(addr: &str) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).expect("connect"))
}

/// Sends one request line and reads `count` reply lines, each parsed.
fn exchange(conn: &mut BufReader<TcpStream>, line: &str, count: usize) -> Vec<Json> {
    writeln!(conn.get_mut(), "{line}").expect("send");
    (0..count)
        .map(|_| {
            let mut reply = String::new();
            conn.read_line(&mut reply).expect("read");
            Json::parse(&reply).unwrap_or_else(|e| panic!("{e}: {reply:?}"))
        })
        .collect()
}

fn reply_type(reply: &Json) -> &str {
    reply
        .get("type")
        .and_then(Json::as_str)
        .expect("typed reply")
}

/// The `stats` counter `key`.
fn stat(daemon: &Daemon, key: &str) -> u64 {
    let stats = stdout_str(&daemon.submit(&["--stats"]));
    let doc = Json::parse(&stats).expect("stats parse");
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no {key} in {stats}"))
}

#[test]
fn sequential_cache_hits_reuse_parked_handlers() {
    let work_dir = scratch("parked");
    let hit = prime_cache_hit(&work_dir, "5", "primed artifact\n");
    let daemon = Daemon::start(&work_dir, &["--in-process-jobs"]);
    for _ in 0..200 {
        // Each client reads its connection to the end. The handler closes
        // it from the lobby and parks before it lets the lobby go, so the
        // next connection finds that handler parked.
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        writeln!(stream, "{hit}").expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let replies: Vec<String> = BufReader::new(stream)
            .lines()
            .collect::<Result<_, _>>()
            .expect("read to the end");
        assert_eq!(replies.len(), 2, "{replies:?}");
        let result = Json::parse(&replies[1]).expect("reply parses");
        let artifact = result.get("artifact").and_then(Json::as_str);
        assert_eq!(artifact, Some("primed artifact\n"));
    }
    let started = stat(&daemon, "handlers_started");
    assert_eq!(
        started, 1,
        "200 sequential hits and a stats request started {started} handler threads"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn waiting_followers_never_make_a_cache_hit_wait() {
    let work_dir = scratch("followers");
    let hit = prime_cache_hit(&work_dir, "6", "primed artifact\n");
    // Two serialized shards of at least 300 ms each: the job runs for
    // 600 ms or more after its first follower submits.
    let daemon = Daemon::start(
        &work_dir,
        &[
            "--job-shards",
            "2",
            "--job-max-inflight",
            "1",
            "--worker-arg",
            "--inject-slow-ms",
            "--worker-arg",
            "300",
        ],
    );
    let slow = Request::Submit {
        experiment: "table2".to_owned(),
        args: SLOW_JOB[1..].iter().map(|s| (*s).to_owned()).collect(),
        wait: true,
    }
    .render();

    // Twelve followers of one job, each holding its connection (and its
    // handler) until the job settles.
    let (submitted, job_ids) = std::sync::mpsc::channel();
    let followers: Vec<_> = (0..12)
        .map(|_| {
            let (addr, slow, submitted) = (daemon.addr.clone(), slow.clone(), submitted.clone());
            std::thread::spawn(move || {
                let mut conn = connect(&addr);
                let first = exchange(&mut conn, &slow, 1).remove(0);
                assert_eq!(reply_type(&first), "submitted");
                let job = first.get("job").and_then(Json::as_u64).expect("job id");
                submitted.send(job).expect("report the job");
                for line in conn.lines() {
                    let line = line.expect("read");
                    let reply = Json::parse(&line).expect("reply parses");
                    match reply_type(&reply) {
                        "progress" => {}
                        "result" => {
                            let artifact = reply.get("artifact").and_then(Json::as_str);
                            return artifact.expect("artifact").to_owned();
                        }
                        other => panic!("unexpected {other}: {line}"),
                    }
                }
                panic!("the connection closed before the result");
            })
        })
        .collect();
    let jobs: Vec<u64> = job_ids.iter().take(12).collect();
    assert!(jobs.iter().all(|&job| job == jobs[0]), "{jobs:?}");

    // A cache hit sent while all twelve wait is answered before the job
    // settles.
    let mut conn = connect(&daemon.addr);
    let replies = exchange(&mut conn, &hit, 2);
    assert_eq!(reply_type(&replies[1]), "result");
    let status = Request::Status { job: jobs[0] }.render();
    let status = exchange(&mut conn, &status, 1).remove(0);
    let state = status.get("state").and_then(Json::as_str);
    assert!(
        matches!(state, Some("queued" | "running")),
        "the hit waited for the job: {status:?}"
    );
    drop(conn);

    let reference = xbar()
        .arg("run")
        .args(SLOW_JOB)
        .arg("--json")
        .output()
        .expect("run xbar run");
    for follower in followers {
        let artifact = follower.join().expect("follower thread");
        assert_eq!(artifact, stdout_str(&reference));
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn an_over_long_request_line_gets_one_error_line() {
    let work_dir = scratch("long-line");
    let hit = prime_cache_hit(&work_dir, "7", "primed artifact\n");
    let daemon = Daemon::start(&work_dir, &["--in-process-jobs"]);
    let stream = TcpStream::connect(&daemon.addr).expect("connect");
    // 2 MiB and no newline. The daemon stops reading long before the
    // end, so the writes fail once it closes the connection.
    let writer = {
        let mut stream = stream.try_clone().expect("clone");
        std::thread::spawn(move || {
            let chunk = vec![b'x'; 64 * 1024];
            for _ in 0..32 {
                if stream.write_all(&chunk).is_err() {
                    break;
                }
            }
        })
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("the error line");
    let reply = Json::parse(&line).expect("reply parses");
    assert_eq!(reply_type(&reply), "error", "{line}");
    assert!(line.contains("longer than"), "{line}");
    // Then the connection closes: the end of the stream, or a reset.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest));
    writer.join().expect("writer thread");

    let replies = exchange(&mut connect(&daemon.addr), &hit, 2);
    assert_eq!(reply_type(&replies[1]), "result");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
}
