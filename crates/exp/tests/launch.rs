//! Process-level and property tests of the multi-host launcher: remote
//! dispatch over `Transport` implementations with injected faults
//! (torn streams, host death, stalls), host-health quarantine, hedged
//! straggler re-dispatch, and torn-transfer detection — all pinned to
//! one invariant: the merged stats artifact is byte-identical to the
//! monolithic in-process run, whatever the fleet did.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Duration;

use proptest::prelude::*;
use xbar_core::{DefectModelSpec, SampleStream};
use xbar_exp::experiments::table2::CircuitAccum;
use xbar_exp::launch::{
    parse_hosts, run_launch_with_report, Exec, FaultPlan, Faulty, LaunchConfig, LaunchReport,
    LocalProc,
};
use xbar_exp::sample_seed;
use xbar_exp::shard::coordinator::{render_stats_json, run_monolithic, Worker};
use xbar_exp::shard::partial::ShardPartial;
use xbar_exp::shard::{McConfig, ShardSpec};

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
    std::env::temp_dir().join(format!("xbar-launch-test-{}-{tag}", std::process::id()))
}

/// Removes a finished launch's work dir, which the launch itself never
/// removes: with its run directory gone it must be empty.
fn remove_work_dir(cfg: &LaunchConfig) {
    std::fs::remove_dir(&cfg.work_dir).expect("the launch left only an empty work dir");
}

/// A launch over the loopback fleet with test-friendly settings: the
/// `xbar` binary as worker, a scratch work dir, tiny retry backoff, and a
/// probation long enough that a quarantined host never returns within
/// the test.
fn launch(tag: &str, hosts: &str) -> LaunchConfig {
    LaunchConfig {
        config: campaign(),
        shards: 3,
        max_attempts: 3,
        worker: Worker::xbar(PathBuf::from(env!("CARGO_BIN_EXE_xbar"))),
        work_dir: scratch(tag),
        extra_worker_args: Vec::new(),
        keep_partials: false,
        shard_timeout: None,
        hedge_after: None,
        resume: false,
        retry_base: Duration::from_millis(5),
        hosts: parse_hosts(hosts).expect("host spec"),
        quarantine_after: 3,
        probation: Duration::from_secs(3600),
    }
}

fn monolithic() -> String {
    render_stats_json(&run_monolithic(&campaign()))
}

fn faults(specs: &[&str]) -> Faulty<LocalProc> {
    Faulty::new(
        LocalProc,
        specs
            .iter()
            .map(|s| FaultPlan::parse(s).expect("fault spec"))
            .collect(),
    )
}

fn host<'r>(report: &'r LaunchReport, name: &str) -> &'r xbar_exp::launch::HostCount {
    report
        .hosts
        .iter()
        .find(|h| h.name == name)
        .unwrap_or_else(|| panic!("host {name} missing from report: {:?}", report.hosts))
}

#[test]
fn loopback_fleet_is_byte_identical_to_monolithic_with_host_attribution() {
    let cfg = launch("loopback", "alpha*2,beta*2");
    let (merged, report) = run_launch_with_report(&cfg, &LocalProc).expect("launch");
    assert_eq!(
        render_stats_json(&merged),
        monolithic(),
        "a 2-host loopback launch must reproduce the monolithic artifact"
    );
    assert_eq!(report.base.spawned, 3, "one flight per shard, no retries");
    assert_eq!(report.base.retries, 0);
    assert_eq!(report.hedges, 0);
    assert_eq!(report.discards, 0);
    let dispatched: usize = report.hosts.iter().map(|h| h.dispatched).sum();
    let completed: usize = report.hosts.iter().map(|h| h.completed).sum();
    assert_eq!(dispatched, 3, "every dispatch is attributed to a host");
    assert_eq!(completed, 3);
    assert_eq!(
        report.hosts[0].name, "alpha",
        "counters stay in fleet order"
    );
    assert_eq!(report.hosts[1].name, "beta");
    remove_work_dir(&cfg);
}

#[test]
fn exec_template_transport_matches_monolithic() {
    // `{worker:sh}` through a real shell is the ssh-shaped path minus the
    // network: quoting, exec-replacement, and stdout streaming all real.
    let cfg = launch("exec", "alpha,beta");
    let transport = Exec::new(vec![
        "/bin/sh".to_owned(),
        "-c".to_owned(),
        "{worker:sh}".to_owned(),
    ])
    .expect("template");
    let (merged, _) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(render_stats_json(&merged), monolithic());
    remove_work_dir(&cfg);
}

#[test]
fn torn_stream_is_rejected_and_retried_to_identical_bytes() {
    let cfg = launch("torn", "alpha,beta");
    let transport = faults(&["alpha=truncate@0"]);
    let (merged, report) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(
        render_stats_json(&merged),
        monolithic(),
        "a truncated partial must never reach the merge"
    );
    assert!(
        report.base.retries >= 1,
        "the torn transfer costs a retry: {:?}",
        report.base
    );
    remove_work_dir(&cfg);
}

#[test]
fn host_death_mid_campaign_fails_over_to_the_survivor() {
    let cfg = launch("death", "alpha*3,beta");
    let transport = faults(&["beta=die@0"]);
    let (merged, report) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(
        render_stats_json(&merged),
        monolithic(),
        "losing a host must not change the merged bytes"
    );
    let beta = host(&report, "beta");
    assert!(beta.failed >= 1, "the dead host is blamed: {beta:?}");
    assert_eq!(beta.completed, 0, "a dead host completes nothing");
    assert_eq!(
        host(&report, "alpha").completed,
        3,
        "the survivor carries the campaign"
    );
    remove_work_dir(&cfg);
}

#[test]
fn quarantined_host_receives_no_further_shards() {
    let mut cfg = launch("quarantine", "good,bad");
    cfg.quarantine_after = 2;
    cfg.max_attempts = 5;
    let transport = faults(&["bad=die@0"]);
    let (merged, report) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(render_stats_json(&merged), monolithic());
    let bad = host(&report, "bad");
    assert_eq!(
        bad.dispatched, 2,
        "exactly `quarantine_after` strikes, then nothing: {bad:?}"
    );
    assert_eq!(bad.failed, 2);
    assert_eq!(bad.quarantines, 1, "one quarantine event");
    assert_eq!(bad.completed, 0);
    assert_eq!(
        host(&report, "good").completed,
        3,
        "every shard lands on the healthy host"
    );
    remove_work_dir(&cfg);
}

#[test]
fn a_fleet_whose_hosts_all_die_fails_permanently_without_waiting_out_probation() {
    // Both hosts die on their first dispatch. The first to reach the
    // threshold is quarantined for an hour; the survivor is the last
    // available host and is never quarantined, so the shards exhaust
    // their attempts on it and the campaign fails — it does not stall.
    let cfg = launch("all-dead", "alpha,beta");
    let transport = faults(&["alpha=die@0", "beta=die@0"]);
    let start = std::time::Instant::now();
    let err = run_launch_with_report(&cfg, &transport).expect_err("must give up");
    assert!(err.contains("failed permanently"), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "a dead fleet must fail well inside the {:?} probation, took {:?}",
        cfg.probation,
        start.elapsed()
    );
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
}

#[test]
fn hedged_straggler_wins_on_the_other_host_and_the_loser_is_discarded() {
    let mut cfg = launch("hedge", "alpha,beta");
    cfg.hedge_after = Some(Duration::from_millis(50));
    // Two shards, so nothing is left queued once the hedge lands: with a
    // third shard, alpha (freed when its stalled flight is cancelled) may
    // legitimately complete that one, depending on whether the hedge or
    // the queue gets beta's slot first.
    cfg.shards = 2;
    let transport = faults(&["alpha=stall@0"]);
    let (merged, report) = run_launch_with_report(&cfg, &transport).expect("launch");
    assert_eq!(
        render_stats_json(&merged),
        monolithic(),
        "the hedge winner's partial must merge to identical bytes"
    );
    assert!(report.hedges >= 1, "the stall forces a hedge: {report:?}");
    assert!(
        report.discards >= 1,
        "the stalled loser is cancelled and discarded: {report:?}"
    );
    assert_eq!(
        host(&report, "alpha").completed,
        0,
        "the stalled host never finishes its flight"
    );
    remove_work_dir(&cfg);
}

#[test]
fn host_spec_grammar_parses_slots_and_rejects_degenerate_fleets() {
    let fleet = parse_hosts("alpha*2,beta").expect("valid spec");
    assert_eq!(fleet.len(), 2);
    assert_eq!((fleet[0].name.as_str(), fleet[0].slots), ("alpha", 2));
    assert_eq!((fleet[1].name.as_str(), fleet[1].slots), ("beta", 1));
    assert_eq!(fleet[0].render(), "alpha*2");
    for bad in ["", "alpha*0", "alpha*many", "*2", "alpha,alpha"] {
        assert!(parse_hosts(bad).is_err(), "{bad:?} must be rejected");
    }
}

// ---------------------------------------------------------------------
// Properties: torn-transfer detection.
// ---------------------------------------------------------------------

/// Deterministic synthetic observation for global sample `i` (a pure
/// function of the per-sample seed) so the properties can afford many
/// cases without running the mapper.
fn observe(experiment_seed: u64, i: usize) -> (bool, f64, bool, f64) {
    let s = sample_seed(experiment_seed, i);
    let hba_ok = !s.is_multiple_of(3);
    let ea_ok = !s.is_multiple_of(5);
    let hba_secs = ((s >> 11) as f64 + 1.0) / 9.007_199_254_740_992e15;
    let ea_secs = ((s >> 23) as f64 + 1.0) / 9.007_199_254_740_992e15;
    (hba_ok, hba_secs, ea_ok, ea_secs)
}

fn fold(experiment_seed: u64, range: std::ops::Range<usize>) -> CircuitAccum {
    let mut accum = CircuitAccum::new();
    for i in range {
        let (hba_ok, hba_secs, ea_ok, ea_secs) = observe(experiment_seed, i);
        accum.push(hba_ok, hba_secs, ea_ok, ea_secs);
    }
    accum
}

fn synthetic_partials(samples: usize, shards: usize, seed: u64) -> Vec<ShardPartial> {
    let config = McConfig {
        samples,
        seed,
        ..campaign()
    };
    ShardSpec::partition(samples, shards)
        .into_iter()
        .map(|spec| ShardPartial {
            config: config.clone(),
            spec,
            circuits: vec![("rd53".to_owned(), fold(seed, spec.range()))],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a partial document (the torn-transfer
    /// shape the `truncate` fault injects) fails to parse — no prefix
    /// can masquerade as a complete partial and poison a merge.
    #[test]
    fn any_strict_prefix_of_a_partial_is_rejected(
        cut_choice in 0usize..1_000_000,
        seed in 0u64..u64::MAX,
    ) {
        let partials = synthetic_partials(17, 3, seed);
        let text = partials[1].to_json();
        let body = text.trim_end();
        let cut = cut_choice % body.len();
        prop_assert!(
            ShardPartial::from_json(&body[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte partial must not parse",
            body.len()
        );
    }
}

// ---------------------------------------------------------------------
// The CLI surface: `xbar mc launch` against `xbar run table2 --json`.
// ---------------------------------------------------------------------

fn xbar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args(args)
        .output()
        .expect("spawn xbar")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const CAMPAIGN_FLAGS: [&str; 8] = [
    "--samples",
    "30",
    "--seed",
    "2018",
    "--defect-rate",
    "0.1",
    "--circuits",
    "rd53,sqrt8",
];

#[test]
fn cli_launch_artifact_is_byte_identical_to_xbar_run_even_under_faults() {
    let dir = scratch("cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mono = xbar(&[&["run", "table2", "--json"], &CAMPAIGN_FLAGS[..]].concat());
    assert!(mono.status.success(), "monolithic run: {}", stderr(&mono));
    let canonical = stdout(&mono);

    // A clean 2-host loopback launch.
    let artifact = dir.join("clean-artifact.json");
    let clean = xbar(
        &[
            &[
                "mc",
                "launch",
                "--hosts",
                "alpha*2,beta",
                "--shards",
                "3",
                "--work-dir",
                dir.join("clean").to_str().expect("utf8"),
                "--out",
                dir.join("clean-stats.json").to_str().expect("utf8"),
                "--artifact",
                artifact.to_str().expect("utf8"),
            ],
            &CAMPAIGN_FLAGS[..],
        ]
        .concat(),
    );
    assert!(clean.status.success(), "clean launch: {}", stderr(&clean));
    assert_eq!(
        std::fs::read_to_string(&artifact).expect("artifact"),
        canonical,
        "the launched canonical artifact must match `xbar run table2 --json`"
    );
    assert!(
        stdout(&clean).contains("launcher: host alpha:"),
        "the report attributes work to hosts: {}",
        stdout(&clean)
    );

    // The same campaign with a host dying on its first dispatch and a
    // torn stream on the survivor — detection, quarantine, retries, and
    // still the identical bytes.
    let faulty_artifact = dir.join("faulty-artifact.json");
    let faulty = xbar(
        &[
            &[
                "mc",
                "launch",
                "--hosts",
                "alpha*2,beta",
                "--shards",
                "3",
                "--max-attempts",
                "5",
                "--quarantine-after",
                "2",
                "--inject-host-fault",
                "beta=die@0",
                "--inject-host-fault",
                "alpha=truncate@0",
                "--work-dir",
                dir.join("faulty").to_str().expect("utf8"),
                "--out",
                dir.join("faulty-stats.json").to_str().expect("utf8"),
                "--artifact",
                faulty_artifact.to_str().expect("utf8"),
            ],
            &CAMPAIGN_FLAGS[..],
        ]
        .concat(),
    );
    assert!(
        faulty.status.success(),
        "faulty launch: {}",
        stderr(&faulty)
    );
    assert_eq!(
        std::fs::read_to_string(&faulty_artifact).expect("artifact"),
        canonical,
        "host death plus a torn transfer must not change the artifact"
    );

    // A hedged straggler: one host stalls forever, the duplicate on the
    // other host wins, and the bytes still match.
    let hedge_artifact = dir.join("hedge-artifact.json");
    let hedged = xbar(
        &[
            &[
                "mc",
                "launch",
                "--hosts",
                "alpha,beta*2",
                "--shards",
                "3",
                "--hedge-after",
                "0.1",
                "--inject-host-fault",
                "alpha=stall@0",
                "--work-dir",
                dir.join("hedge").to_str().expect("utf8"),
                "--out",
                dir.join("hedge-stats.json").to_str().expect("utf8"),
                "--artifact",
                hedge_artifact.to_str().expect("utf8"),
            ],
            &CAMPAIGN_FLAGS[..],
        ]
        .concat(),
    );
    assert!(
        hedged.status.success(),
        "hedged launch: {}",
        stderr(&hedged)
    );
    assert_eq!(
        std::fs::read_to_string(&hedge_artifact).expect("artifact"),
        canonical,
        "the hedge winner must produce the identical artifact"
    );
    assert!(
        stderr(&hedged).contains("hedged onto"),
        "the straggler must actually be hedged: {}",
        stderr(&hedged)
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn cli_launch_speaks_xbar_run_table2_for_non_default_streams_and_models() {
    // The launch parses its campaign with `xbar run table2`'s own flags,
    // so a V2 composite-model campaign over a circuit subset yields the
    // exact `xbar run table2 --json` document, and the same merged stats
    // as the in-process coordinator.
    let dir = scratch("vocabulary");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let campaign = [
        "--samples",
        "24",
        "--seed",
        "5",
        "--rng-stream",
        "v2",
        "--defect-model",
        "composite",
        "--cluster-size",
        "1.5",
        "--line-rate",
        "0.01",
        "--circuits",
        "misex1,rd53",
    ];
    let path = |name: &str| dir.join(name).to_str().expect("utf8").to_owned();
    let mono = xbar(&[&["run", "table2", "--json"], &campaign[..]].concat());
    assert!(mono.status.success(), "monolithic run: {}", stderr(&mono));
    let single = xbar(
        &[
            &[
                "mc",
                "coordinate",
                "--in-process",
                "--out",
                &path("single.json"),
            ],
            &campaign[..],
        ]
        .concat(),
    );
    assert!(single.status.success(), "in-process: {}", stderr(&single));
    let launched = xbar(
        &[
            &["mc", "launch", "--hosts", "alpha*2", "--shards", "3"][..],
            &["--work-dir", &path("work"), "--out", &path("stats.json")],
            &["--artifact", &path("artifact.json")],
            &campaign,
        ]
        .concat(),
    );
    assert!(launched.status.success(), "launch: {}", stderr(&launched));
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("written");
    assert_eq!(read("artifact.json"), stdout(&mono));
    assert_eq!(read("stats.json"), read("single.json"));
    assert!(
        read("stats.json").contains("\"defect_model\": \"composite\""),
        "{}",
        read("stats.json")
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn cli_launch_rejects_bad_fleets_with_usage_not_panic() {
    for args in [
        &["mc", "launch"][..],
        &["mc", "launch", "--hosts", ""][..],
        &["mc", "launch", "--hosts", "a*0"][..],
        &[
            "mc",
            "launch",
            "--hosts",
            "a",
            "--inject-host-fault",
            "a=melt",
        ][..],
        &["mc", "launch", "--hosts", "a", "--hedge-after", "soon"][..],
        // Campaigns `xbar run table2` refuses are refused here too.
        &["mc", "launch", "--hosts", "a", "--defect-rate", "1.5"][..],
        &["mc", "launch", "--hosts", "a", "--circuits", "t481"][..],
        &["mc", "launch", "--hosts", "a", "--circuits", "rd53,rd53"][..],
    ] {
        let out = xbar(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "xbar {args:?} must exit 2: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("mc launch:"),
            "xbar {args:?} must explain itself: {}",
            stderr(&out)
        );
    }
}
