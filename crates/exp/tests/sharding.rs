//! Process-level tests of the sharded Monte Carlo subsystem: the
//! fault-tolerant coordinator spawning real worker processes
//! (`CARGO_BIN_EXE_xbar` as `xbar mc shard`), killing hung workers at the
//! watchdog deadline, bounding in-flight concurrency, resuming from
//! checkpoints after a `kill -9` or across verbs, and always producing a
//! merged stats artifact byte-identical to the monolithic in-process run.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};
use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};
use xbar_exp::shard::coordinator::{
    campaign_run_dir, render_stats_json, run_coordinator_with_report, run_monolithic,
    CoordinatorConfig, Worker,
};
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::McConfig;

fn worker_binary() -> Worker {
    Worker::xbar(PathBuf::from(env!("CARGO_BIN_EXE_xbar")))
}

fn campaign() -> McConfig {
    McConfig {
        samples: 30,
        seed: 2018,
        defect_rate: 0.10,
        stream: SampleStream::V1,
        model: DefectModelSpec::default(),
        circuits: vec!["rd53".to_owned()],
    }
}

/// A unique scratch directory per test (no tempfile crate in the
/// workspace); see [`remove_work_dir`].
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xbar-shard-test-{}-{tag}", std::process::id()))
}

/// Removes a finished campaign's work dir, which the campaign itself
/// never removes: with its run directory gone it must be empty.
fn remove_work_dir(cfg: &CoordinatorConfig) {
    std::fs::remove_dir(&cfg.work_dir).expect("the campaign left only an empty work dir");
}

fn coordinator(tag: &str, shards: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        config: campaign(),
        shards,
        max_attempts: 3,
        worker: worker_binary(),
        work_dir: scratch(tag),
        extra_worker_args: Vec::new(),
        keep_partials: false,
        shard_timeout: None,
        max_inflight: None,
        resume: false,
        // Tiny backoff: retry-path tests stay fast without changing the
        // deterministic shape of the schedule.
        retry_base: Duration::from_millis(5),
    }
}

#[test]
fn sharded_runs_are_byte_identical_to_monolithic_across_shard_counts() {
    let mono = render_stats_json(&run_monolithic(&campaign()));
    for shards in [1usize, 2, 3, 7] {
        let cfg = coordinator(&format!("counts-{shards}"), shards);
        let (merged, _) = run_coordinator_with_report(&cfg).expect("coordinator run");
        assert_eq!(
            render_stats_json(&merged),
            mono,
            "{shards} worker processes must reproduce the monolithic artifact"
        );
        remove_work_dir(&cfg);
    }
}

#[test]
fn v2_campaigns_shard_byte_identically_too() {
    // The geometric-skip stream must survive the full process round-trip:
    // the coordinator forwards `--rng-stream v2` to every worker, partials
    // echo it, and the merged artifact is byte-identical to the
    // monolithic V2 run (which differs from the V1 artifact by design).
    let config = McConfig {
        stream: SampleStream::V2,
        ..campaign()
    };
    let mono = render_stats_json(&run_monolithic(&config));
    assert!(
        mono.contains("\"rng_stream\": \"v2\""),
        "V2 stats must declare their stream: {mono}"
    );
    let v1_mono = render_stats_json(&run_monolithic(&campaign()));
    assert_ne!(mono, v1_mono, "V2 draws different defect maps than V1");
    let mut cfg = coordinator("v2-stream", 3);
    cfg.config = config;
    let (merged, _) = run_coordinator_with_report(&cfg).expect("coordinator run");
    assert_eq!(render_stats_json(&merged), mono);
    remove_work_dir(&cfg);
}

#[test]
fn clustered_campaigns_shard_byte_identically_through_real_workers() {
    // The spatial defect model must survive the full process round-trip
    // exactly like the RNG stream: the coordinator forwards
    // `--defect-model clustered --cluster-size 3` to every worker,
    // partials echo the model, and the 3-shard merge is byte-identical to
    // the monolithic clustered run.
    let model = DefectModelSpec::new(DefectModelKind::Clustered, 3.0, 0.02).expect("valid spec");
    let config = McConfig {
        model,
        ..campaign()
    };
    let mono = render_stats_json(&run_monolithic(&config));
    assert!(
        mono.contains("\"defect_model\": \"clustered\""),
        "clustered stats must declare their model: {mono}"
    );
    assert!(
        mono.contains("\"cluster_size\": 3.0"),
        "clustered stats must pin the cluster size: {mono}"
    );
    assert_ne!(
        mono,
        render_stats_json(&run_monolithic(&campaign())),
        "clustering draws different defect maps than the i.i.d. model"
    );
    let mut cfg = coordinator("clustered-model", 3);
    cfg.config = config;
    let (merged, _) = run_coordinator_with_report(&cfg).expect("coordinator run");
    assert_eq!(
        render_stats_json(&merged),
        mono,
        "3 worker processes must reproduce the monolithic clustered artifact"
    );
    remove_work_dir(&cfg);
}

#[test]
fn empty_shards_need_no_workers_and_merge_cleanly() {
    // 7 shards over 4 samples: 3 shards are empty and must be synthesized
    // without spawning processes, with the artifact still byte-identical.
    let config = McConfig {
        samples: 4,
        ..campaign()
    };
    let mono = render_stats_json(&run_monolithic(&config));
    let mut cfg = coordinator("empty-shards", 7);
    cfg.config = config;
    let (merged, report) = run_coordinator_with_report(&cfg).expect("coordinator run");
    assert_eq!(render_stats_json(&merged), mono);
    assert_eq!(report.spawned, 4, "only non-empty shards spawn workers");
    remove_work_dir(&cfg);
}

#[test]
fn coordinator_retries_a_crashing_shard_and_still_matches() {
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let mut cfg = coordinator("fail-once", 3);
    let marker = cfg.work_dir.join("fail-once-marker");
    std::fs::create_dir_all(&cfg.work_dir).expect("scratch dir");
    cfg.extra_worker_args = vec![
        "--inject-fail-once".to_owned(),
        marker.to_string_lossy().into_owned(),
    ];
    let (merged, report) = run_coordinator_with_report(&cfg).expect("retry must recover");
    assert_eq!(render_stats_json(&merged), mono);
    assert!(report.retries >= 1, "{report:?}");
    let _ = std::fs::remove_file(&marker);
    let _ = std::fs::remove_dir(&cfg.work_dir);
}

#[test]
fn coordinator_retries_a_torn_partial_and_still_matches() {
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let mut cfg = coordinator("torn", 2);
    let marker = cfg.work_dir.join("torn-marker");
    std::fs::create_dir_all(&cfg.work_dir).expect("scratch dir");
    cfg.extra_worker_args = vec![
        "--inject-truncate-once".to_owned(),
        marker.to_string_lossy().into_owned(),
    ];
    let (merged, _) = run_coordinator_with_report(&cfg).expect("retry must recover");
    assert_eq!(render_stats_json(&merged), mono);
    let _ = std::fs::remove_file(&marker);
    let _ = std::fs::remove_dir(&cfg.work_dir);
}

#[test]
fn hung_worker_is_killed_at_the_deadline_and_retried() {
    // One worker hangs forever (first `--inject-hang-once` hit); the
    // watchdog must kill it at the deadline and the retry must finish the
    // shard, with the merged artifact still byte-identical.
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let mut cfg = coordinator("hang", 2);
    let marker = cfg.work_dir.join("hang-marker");
    std::fs::create_dir_all(&cfg.work_dir).expect("scratch dir");
    cfg.shard_timeout = Some(Duration::from_secs(3));
    cfg.extra_worker_args = vec![
        "--inject-hang-once".to_owned(),
        marker.to_string_lossy().into_owned(),
    ];
    let start = Instant::now();
    let (merged, report) = run_coordinator_with_report(&cfg).expect("watchdog must recover");
    assert_eq!(render_stats_json(&merged), mono);
    assert_eq!(report.timeouts, 1, "{report:?}");
    assert!(report.retries >= 1, "{report:?}");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "the watchdog must turn the hang into a bounded retry"
    );
    let _ = std::fs::remove_file(&marker);
    let _ = std::fs::remove_dir(&cfg.work_dir);
}

#[test]
fn slow_but_finishing_worker_is_not_killed() {
    // Workers sleep 150 ms but the deadline is far away: the watchdog
    // must not fire, and no retries happen.
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let mut cfg = coordinator("slow-ok", 2);
    cfg.shard_timeout = Some(Duration::from_secs(60));
    cfg.extra_worker_args = vec!["--inject-slow-ms".to_owned(), "150".to_owned()];
    let (merged, report) = run_coordinator_with_report(&cfg).expect("slow run");
    assert_eq!(render_stats_json(&merged), mono);
    assert_eq!(report.timeouts, 0, "{report:?}");
    assert_eq!(report.retries, 0, "{report:?}");
    assert_eq!(report.spawned, 2, "{report:?}");
    remove_work_dir(&cfg);
}

#[test]
fn inflight_workers_never_exceed_max_inflight() {
    // 5 shards, 2 slots, each worker slowed so lifetimes overlap. The
    // workers themselves record how many live-markers exist while they
    // run (`--inject-concurrency-dir`), so the bound is asserted from
    // inside the fleet, not from the coordinator's bookkeeping alone.
    let config = McConfig {
        samples: 10,
        ..campaign()
    };
    let mono = render_stats_json(&run_monolithic(&config));
    let mut cfg = coordinator("inflight", 5);
    cfg.config = config;
    cfg.max_inflight = Some(2);
    let obs_dir = cfg.work_dir.join("concurrency");
    cfg.extra_worker_args = vec![
        "--inject-slow-ms".to_owned(),
        "150".to_owned(),
        "--inject-concurrency-dir".to_owned(),
        obs_dir.to_string_lossy().into_owned(),
    ];
    let (merged, report) = run_coordinator_with_report(&cfg).expect("bounded run");
    assert_eq!(render_stats_json(&merged), mono);
    assert_eq!(
        report.max_inflight_observed, 2,
        "5 queued shards must saturate (but never exceed) the 2 slots: {report:?}"
    );
    let observed = std::fs::read_to_string(obs_dir.join("observed.txt")).expect("observations");
    let counts: Vec<usize> = observed
        .lines()
        .map(|line| line.parse().expect("count line"))
        .collect();
    assert_eq!(counts.len(), 5, "every worker samples once: {observed:?}");
    assert!(
        counts.iter().all(|&live| (1..=2).contains(&live)),
        "no worker may ever see more than --max-inflight live peers: {counts:?}"
    );
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn resume_reuses_valid_partials_and_schedules_only_the_rest() {
    // First run keeps its partials; then one is corrupted and one
    // deleted. `--resume` must reuse the intact checkpoint, re-run
    // exactly the two damaged shards, and reproduce the identical bytes.
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let mut cfg = coordinator("resume", 3);
    cfg.keep_partials = true;
    let (first, r1) = run_coordinator_with_report(&cfg).expect("first run");
    assert_eq!(render_stats_json(&first), mono);
    assert_eq!(r1.spawned, 3);
    assert_eq!(r1.reused, 0);

    let run_dir = campaign_run_dir(&cfg.work_dir, &cfg.config, cfg.shards);
    std::fs::write(run_dir.join("partial-1.json"), "{\n  \"schema\": \"tor").expect("corrupt");
    std::fs::remove_file(run_dir.join("partial-2.json")).expect("delete");

    cfg.resume = true;
    cfg.keep_partials = false;
    let (second, r2) = run_coordinator_with_report(&cfg).expect("resumed run");
    assert_eq!(
        render_stats_json(&second),
        mono,
        "a resumed campaign must merge to the identical artifact"
    );
    assert_eq!(r2.reused, 1, "{r2:?}");
    assert_eq!(r2.spawned, 2, "{r2:?}");
    remove_work_dir(&cfg);
}

#[test]
fn resume_after_coordinator_kill_finishes_the_campaign_with_identical_bytes() {
    // The real crash story: a coordinator process (xbar spawning itself
    // as `xbar mc shard`) is SIGKILLed mid-campaign, then a second
    // coordinator with --resume picks up the surviving checkpoints and
    // completes — byte-identical artifact, fewer spawns.
    let dir = scratch("kill-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let work = dir.join("work");
    std::fs::create_dir_all(&work).expect("scratch dir");
    let out = dir.join("merged.json");
    let mono = render_stats_json(&run_monolithic(&campaign()));

    // Serialized workers (--max-inflight 1), each slowed 400 ms, so
    // partials appear one by one and the kill lands mid-campaign.
    let campaign_flags = [
        "--samples",
        "30",
        "--circuits",
        "rd53",
        "--shards",
        "4",
        "--work-dir",
    ];
    let mut coordinator = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .arg("coordinate")
        .args(campaign_flags)
        .arg(&work)
        .args(["--max-inflight", "1", "--keep-partials"])
        .args(["--worker-arg", "--inject-slow-ms", "--worker-arg", "400"])
        .args(["--out".as_ref(), out.as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");

    // Wait for the first complete checkpoint, then SIGKILL the
    // coordinator (kill() is SIGKILL on unix).
    let run_dir = campaign_run_dir(&work, &campaign(), 4);
    let first_partial = run_dir.join("partial-0.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared before the deadline"
        );
        if coordinator.try_wait().expect("try_wait").is_some() {
            panic!("coordinator finished before it could be killed; slow the workers down");
        }
        if let Ok(text) = std::fs::read_to_string(&first_partial) {
            if ShardPartial::from_json(&text).is_ok() {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    coordinator.kill().expect("kill -9 the coordinator");
    let _ = coordinator.wait();
    // Let the orphaned in-flight worker finish writing its partial so the
    // resume below starts from a quiet directory.
    std::thread::sleep(Duration::from_millis(800));

    let out2 = dir.join("merged-resumed.json");
    let resumed = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .arg("coordinate")
        .args(campaign_flags)
        .arg(&work)
        .arg("--resume")
        .args(["--out".as_ref(), out2.as_os_str()])
        .output()
        .expect("spawn resumed coordinator");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        resumed.status.success(),
        "resume failed: {stdout}\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let report_line = stdout
        .lines()
        .find(|line| line.starts_with("coordinator:"))
        .expect("report line");
    // The report reads "coordinator: spawned 2 worker(s), reused 2
    // partial(s), ..." — the count follows its verb.
    let field = |key: &str| -> usize {
        let tokens: Vec<&str> = report_line
            .split([' ', ','])
            .filter(|t| !t.is_empty())
            .collect();
        tokens
            .windows(2)
            .find(|pair| pair[0] == key)
            .and_then(|pair| pair[1].parse().ok())
            .unwrap_or_else(|| panic!("no `{key}` count in {report_line:?}"))
    };
    assert!(
        field("reused") >= 1,
        "the killed run's checkpoints must be reused: {report_line:?}"
    );
    assert!(
        field("spawned") < 4,
        "resume must spawn fewer workers than a fresh campaign: {report_line:?}"
    );
    let merged = std::fs::read_to_string(&out2).expect("resumed artifact");
    assert_eq!(
        merged, mono,
        "kill -9 + --resume must still produce the monolithic bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `xbar mc <args>` on `campaign()`; returns the output whatever
/// the exit.
fn mc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .args(args)
        .args(["--samples", "30", "--circuits", "rd53"])
        .output()
        .expect("spawn xbar")
}

/// Runs `xbar mc <args>` on `campaign()` in 2 shards, asserting success;
/// returns its stdout.
fn xbar_mc(args: &[&str]) -> String {
    let out = mc(&[args, &["--shards", "2"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "xbar mc {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn launch_checkpoints_resume_under_coordinate_with_or_without_recorded_hosts() {
    // One run-directory contract across both verbs: a campaign
    // checkpointed by `mc launch` resumes under `mc coordinate --resume`
    // (whose fleet differs), and so does a hand-written manifest that
    // records no fleet at all. Either way the surviving checkpoint is
    // reused and the bytes equal the monolithic run.
    let dir = scratch("cross-verb");
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).to_str().expect("utf8 path").to_owned();
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let hand_written = "{\n  \"schema\": \"xbar-mc-campaign/1\",\n  \"seed\": 2018,\n  \
                        \"defect_rate\": 0.1,\n  \"samples\": 30,\n  \"shards\": 2,\n  \
                        \"rng_stream\": \"v1\",\n  \"circuits\": [\"rd53\"]\n}\n";

    for (tag, manifest) in [("launched", None), ("hand-written", Some(hand_written))] {
        let (work, out) = (path(tag), path(&format!("{tag}.json")));
        let fleet = ["launch", "--hosts", "alpha*2", "--keep-partials"];
        xbar_mc(&[&fleet[..], &["--work-dir", &work, "--out", &out]].concat());
        let run_dir = campaign_run_dir(&dir.join(tag), &campaign(), 2);
        let recorded = std::fs::read_to_string(run_dir.join("campaign.json")).expect("manifest");
        assert!(
            recorded.contains("\"hosts\": [\"alpha*2\"]"),
            "the launch records its fleet: {recorded}"
        );
        if let Some(text) = manifest {
            std::fs::write(run_dir.join("campaign.json"), text).expect("hand-write manifest");
        }
        std::fs::remove_file(run_dir.join("partial-1.json")).expect("delete a checkpoint");

        let report = xbar_mc(&["coordinate", "--resume", "--work-dir", &work, "--out", &out]);
        assert!(
            report.contains("reused 1 partial"),
            "{tag}: coordinate must reuse the launch's checkpoint: {report}"
        );
        assert_eq!(
            std::fs::read_to_string(&out).expect("resumed artifact"),
            mono,
            "{tag}: the cross-verb resume must merge to the monolithic bytes"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_coordinator_on_a_live_campaign_fails_fast() {
    // Two coordinators race for the same campaign: the first to lock
    // `coordinator.lock` wins and runs to completion; the second must
    // fail fast with a clear "campaign already running" error instead of
    // double-spawning workers or corrupting the run directory.
    let dir = scratch("second-coordinator");
    let _ = std::fs::remove_dir_all(&dir);
    let work = dir.join("work");
    std::fs::create_dir_all(&work).expect("scratch dir");
    let out = dir.join("merged.json");

    // Serialized workers, each slowed 400 ms, so the winner holds the
    // lock long enough for the contender to collide with it.
    let campaign_flags = [
        "--samples",
        "30",
        "--circuits",
        "rd53",
        "--shards",
        "4",
        "--work-dir",
    ];
    let mut winner = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .arg("coordinate")
        .args(campaign_flags)
        .arg(&work)
        .args(["--max-inflight", "1"])
        .args(["--worker-arg", "--inject-slow-ms", "--worker-arg", "400"])
        .args(["--out".as_ref(), out.as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn first coordinator");

    // Wait until the winner actually holds the run-dir lock: it writes
    // `campaign.json` only once the lock is held, whereas the lock file
    // exists before anyone holds it.
    let run_dir = campaign_run_dir(&work, &campaign(), 4);
    let manifest = run_dir.join("campaign.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !manifest.exists() {
        assert!(
            Instant::now() < deadline,
            "no campaign.json appeared before the deadline"
        );
        if winner.try_wait().expect("try_wait").is_some() {
            panic!(
                "first coordinator finished before the contender could run; slow the workers down"
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let out2 = dir.join("merged-second.json");
    let loser = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .arg("mc")
        .arg("coordinate")
        .args(campaign_flags)
        .arg(&work)
        .args(["--out".as_ref(), out2.as_os_str()])
        .output()
        .expect("run second coordinator");
    let stderr = String::from_utf8_lossy(&loser.stderr);
    assert!(
        !loser.status.success(),
        "the contender must lose the lock race: {stderr}"
    );
    assert!(
        stderr.contains("campaign already running"),
        "the loser must say why it stopped: {stderr}"
    );
    assert!(!out2.exists(), "the loser must not write an artifact");

    // The winner is unaffected by the collision: it finishes cleanly and
    // produces the monolithic bytes.
    let status = winner.wait().expect("first coordinator");
    assert!(
        status.success(),
        "the lock holder must still finish cleanly"
    );
    let merged = std::fs::read_to_string(&out).expect("winner artifact");
    assert_eq!(
        merged,
        render_stats_json(&run_monolithic(&campaign())),
        "the winner's artifact must be untouched by the losing contender"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_dir_claimed_by_a_different_campaign_is_rejected() {
    // Same (seed, samples, shards, stream) — so the same derived run
    // directory — but a different defect rate: the manifest check must
    // refuse to clobber the first campaign's partials.
    let mut cfg = coordinator("campaign-clash", 2);
    cfg.keep_partials = true;
    let _ = run_coordinator_with_report(&cfg).expect("first campaign");

    let mut other = coordinator("campaign-clash", 2);
    other.config.defect_rate = 0.25;
    let err = run_coordinator_with_report(&other).expect_err("must refuse");
    assert!(err.contains("different campaign"), "{err}");
    assert!(err.contains("defect_rate"), "{err}");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn permanently_failing_shard_surfaces_an_error_not_a_hang() {
    // Two shards failing on the one `local` host is six consecutive host
    // failures — past the quarantine threshold. The last available host
    // is never quarantined, so the shards' own attempt budgets end the
    // campaign instead of a 30 s probation.
    let mut cfg = coordinator("fail-always", 2);
    cfg.extra_worker_args = vec!["--inject-fail-always".to_owned()];
    let start = Instant::now();
    let err = run_coordinator_with_report(&cfg).expect_err("must give up");
    assert!(err.contains("failed permanently"), "{err}");
    assert!(err.contains("attempt"), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "a one-host fleet must never sit out a probation: {:?}",
        start.elapsed()
    );
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn missing_worker_binary_is_a_clear_error() {
    let mut cfg = coordinator("no-worker", 2);
    cfg.worker = Worker::xbar(PathBuf::from("/nonexistent/xbar"));
    let err = run_coordinator_with_report(&cfg).expect_err("must fail");
    assert!(err.contains("failed permanently"), "{err}");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn unknown_circuit_fails_before_spawning_anything() {
    let mut cfg = coordinator("bad-circuit", 2);
    cfg.config.circuits = vec!["not-a-circuit".to_owned()];
    let err = run_coordinator_with_report(&cfg).expect_err("must fail");
    assert!(err.contains("not-a-circuit"), "{err}");
}

fn utf8(path: &std::path::Path) -> &str {
    path.to_str().expect("utf8 path")
}

#[test]
fn results_inside_the_work_dir_land_and_the_work_dir_stays() {
    // `--out` and `--artifact` inside an existing, empty `--work-dir`:
    // each verb writes them, then removes its run directory and nothing
    // else, so the named work dir stays.
    let work = scratch("results-inside");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("scratch dir");
    let mono = render_stats_json(&run_monolithic(&campaign()));
    let table2 = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args([
            "run",
            "table2",
            "--json",
            "--samples",
            "30",
            "--circuits",
            "rd53",
        ])
        .output()
        .expect("spawn xbar run");
    assert!(table2.status.success(), "xbar run table2 failed");
    let artifact = work.join("artifact.json");
    for (verb, flags) in [
        ("coordinate", &["--shards", "3"][..]),
        (
            "launch",
            &[
                "--hosts",
                "alpha*2,beta",
                "--shards",
                "3",
                "--artifact",
                utf8(&artifact),
            ][..],
        ),
    ] {
        let out = work.join(format!("{verb}.json"));
        let done = mc(&[
            &[verb][..],
            flags,
            &["--work-dir", utf8(&work), "--out", utf8(&out)],
        ]
        .concat());
        assert!(
            done.status.success(),
            "mc {verb}: {}",
            String::from_utf8_lossy(&done.stderr)
        );
        assert_eq!(
            std::fs::read_to_string(&out).expect("--out"),
            mono,
            "{verb}"
        );
    }
    assert_eq!(
        std::fs::read(&artifact).expect("--artifact"),
        table2.stdout,
        "the launched artifact is `xbar run table2 --json`"
    );
    let runs: Vec<String> = std::fs::read_dir(&work)
        .expect("the work dir stays")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("run-"))
        .collect();
    assert!(runs.is_empty(), "run directories left behind: {runs:?}");
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn an_unwritable_out_keeps_every_checkpoint_for_resume() {
    // The run directory goes only once the result is written: a failed
    // `--out` leaves all of it, and `--resume` then spawns nothing.
    let dir = scratch("unwritable-out");
    let _ = std::fs::remove_dir_all(&dir);
    let work = dir.join("work");
    let shards = ["coordinate", "--shards", "3", "--work-dir", utf8(&work)];
    let missing = dir.join("missing").join("o.json");
    let failed = mc(&[&shards[..], &["--out", utf8(&missing)]].concat());
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert_eq!(failed.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    let run_dir = campaign_run_dir(&work, &campaign(), 3);
    assert!(run_dir.is_dir(), "the run directory must survive: {stderr}");

    let good = dir.join("o.json");
    let resumed = mc(&[&shards[..], &["--resume", "--out", utf8(&good)]].concat());
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        resumed.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        stdout.contains("spawned 0 worker(s), reused 3 partial(s)"),
        "every shard must be reused: {stdout}"
    );
    assert_eq!(
        std::fs::read_to_string(&good).expect("--out"),
        render_stats_json(&run_monolithic(&campaign()))
    );
    assert!(!run_dir.exists(), "written, the run directory goes");
    assert!(work.is_dir(), "the named work dir stays");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_default_work_dir_goes_after_success() {
    // Without `--work-dir` the verb chose `<temp>/xbar-mc`, so it removes
    // it again once the campaign's run directory is gone.
    let temp = scratch("default-work-dir");
    let _ = std::fs::remove_dir_all(&temp);
    std::fs::create_dir_all(&temp).expect("scratch dir");
    let out = temp.join("o.json");
    let done = Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args(["mc", "coordinate", "--shards", "2", "--out", utf8(&out)])
        .args(["--samples", "30", "--circuits", "rd53"])
        .env("TMPDIR", &temp)
        .output()
        .expect("spawn xbar");
    assert!(
        done.status.success(),
        "{}",
        String::from_utf8_lossy(&done.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&out).expect("--out"),
        render_stats_json(&run_monolithic(&campaign()))
    );
    assert!(!temp.join("xbar-mc").exists(), "the default work dir goes");
    let _ = std::fs::remove_dir_all(&temp);
}
