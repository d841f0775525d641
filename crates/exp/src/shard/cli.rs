//! CLI entry points for the sharded Monte Carlo subsystem (`xbar mc
//! shard` / `xbar mc coordinate`) and the parsing pieces every `mc` verb
//! shares: the campaign flags, which are `xbar run table2`'s own, parsed
//! by `Params::consume`; `SchedulingFlags` (`mc coordinate` and `mc
//! launch`); and the flag-value helpers (`xbar serve` too). Parsing is
//! `Result`-based: usage problems print help to stderr and return exit
//! code 2.

use super::coordinator::{
    default_work_dir, default_worker, render_stats_json, render_timing_table,
    run_coordinator_with_report, run_monolithic, CoordinatorConfig, MergedResult, RunReport,
    Worker, DEFAULT_RETRY_BASE,
};
use super::{partial::ShardPartial, run_shard, McConfig, ShardSpec};
use crate::cli::{out, outln, run_verb};
use crate::experiment::{flag_num, flag_value, ExpError, Params};
use crate::experiments::table2::TABLE2_PARAMS;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The campaign block of every `mc` verb's usage, rendered from the same
/// declarations `xbar describe table2` shows. Every `mc` verb feeds its
/// argv through [`Params::consume`] against [`TABLE2_PARAMS`] and
/// resolves the result with [`McConfig::from_params`], so a campaign is
/// described, validated and echoed exactly as `xbar run table2` would.
pub(crate) fn campaign_usage() -> String {
    format!(
        "campaign flags (those of `xbar run table2`):\n{}",
        Params::consume_usage(TABLE2_PARAMS)
    )
}

/// `text` as a count of at least one.
pub(crate) fn positive_num(flag: &str, text: &str) -> Result<usize, String> {
    match flag_num::<usize>(flag, text)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// `text` as (fractional) seconds.
pub(crate) fn flag_secs(flag: &str, text: &str) -> Result<Duration, String> {
    let secs: f64 = text
        .parse()
        .map_err(|_| format!("{flag}: expected seconds, got {text:?}"))?;
    Duration::try_from_secs_f64(secs)
        .map_err(|_| format!("{flag}: {secs} is not a representable duration"))
}

/// `text` as a strictly positive number of seconds: the one parser for
/// `--shard-timeout` (all verbs) and `--hedge-after`.
pub(crate) fn positive_secs(flag: &str, text: &str) -> Result<Duration, String> {
    let secs = flag_secs(flag, text)?;
    if secs.is_zero() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(secs)
}

/// The scheduling flags `mc coordinate` and `mc launch` share, with one
/// parser ([`SchedulingFlags::consume`]) and one usage block
/// ([`SCHEDULING_FLAGS_USAGE`]), so the two verbs cannot drift apart on
/// how a campaign is scheduled.
#[derive(Debug)]
pub(crate) struct SchedulingFlags {
    pub(crate) shards: usize,
    pub(crate) max_attempts: usize,
    pub(crate) shard_timeout: Option<Duration>,
    pub(crate) resume: bool,
    pub(crate) keep_partials: bool,
    pub(crate) out: PathBuf,
    pub(crate) work_dir: Option<PathBuf>,
    pub(crate) worker: Option<PathBuf>,
    pub(crate) worker_args: Vec<String>,
}

impl Default for SchedulingFlags {
    fn default() -> Self {
        Self {
            shards: 3,
            max_attempts: 3,
            shard_timeout: None,
            resume: false,
            keep_partials: false,
            out: PathBuf::from("MC_merged.json"),
            work_dir: None,
            worker: None,
            worker_args: Vec::new(),
        }
    }
}

/// The usage lines for the flags [`SchedulingFlags::consume`] accepts.
pub(crate) const SCHEDULING_FLAGS_USAGE: &str =
    "  --shards N         sample-range shards, one worker process each (default 3)\n  \
--max-attempts N   attempts per shard before giving up (default 3)\n  \
--shard-timeout S  kill a worker still running after S seconds and retry\n                     \
(fractional ok; default: no watchdog, wait forever)\n  \
--resume           reuse valid partials already in the run directory and\n                     \
schedule only missing or corrupt shards\n  \
--out PATH         merged stats artifact (default MC_merged.json)\n  \
--work-dir PATH    parent of the per-campaign run directory, shared by\n                     \
`mc coordinate` and `mc launch` (default: <temp>/xbar-mc;\n                     \
partials live in\n                     \
<work-dir>/run-seed<seed>-n<samples>-k<shards>-<stream>[-<model>])\n  \
--worker PATH      the xbar binary every shard runs, as `PATH mc shard ...`\n                     \
(default: the xbar binary next to this one)\n  \
--worker-arg ARG   extra argument appended to every worker invocation\n                     \
(repeatable; used by fault-injection tests and CI)\n  \
--keep-partials    keep partial files after the merge";

impl SchedulingFlags {
    /// Tries to consume one scheduling flag (plus its value from `it`);
    /// `Ok(false)` when `flag` is not a scheduling flag.
    ///
    /// # Errors
    ///
    /// Reports a missing or malformed value, or a zero count.
    pub(crate) fn consume(
        &mut self,
        flag: &str,
        it: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--shards" => self.shards = positive_num(flag, &flag_value(flag, it)?)?,
            "--max-attempts" => self.max_attempts = positive_num(flag, &flag_value(flag, it)?)?,
            "--shard-timeout" => {
                self.shard_timeout = Some(positive_secs(flag, &flag_value(flag, it)?)?);
            }
            "--resume" => self.resume = true,
            "--keep-partials" => self.keep_partials = true,
            "--out" => self.out = PathBuf::from(flag_value(flag, it)?),
            "--work-dir" => self.work_dir = Some(PathBuf::from(flag_value(flag, it)?)),
            "--worker" => self.worker = Some(PathBuf::from(flag_value(flag, it)?)),
            "--worker-arg" => self.worker_args.push(flag_value(flag, it)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The worker every shard runs: `--worker PATH` names an `xbar`
    /// binary (spawned as `PATH mc shard ...`), else [`default_worker`].
    ///
    /// # Errors
    ///
    /// Fails when no `--worker` was given and no default can be located.
    pub(crate) fn resolve_worker(&self) -> Result<Worker, String> {
        self.worker
            .clone()
            .map_or_else(default_worker, |path| Ok(Worker::xbar(path)))
    }

    /// The run directories' parent: `--work-dir`, else the default.
    pub(crate) fn resolve_work_dir(&self) -> PathBuf {
        self.work_dir.clone().unwrap_or_else(default_work_dir)
    }

    /// Prints the informational timing table and writes the merged stats
    /// artifact to `--out`: how every scheduling verb finishes.
    ///
    /// # Errors
    ///
    /// Reports an unwritable `--out` path.
    pub(crate) fn write_merged(&self, merged: &MergedResult) -> Result<(), ExpError> {
        out!("{}", render_timing_table(merged));
        crate::atomic::write_atomic(&self.out, render_stats_json(merged).as_bytes())
            .map_err(|e| ExpError::Failed(format!("cannot write {}: {e}", self.out.display())))?;
        outln!("wrote {}", self.out.display());
        Ok(())
    }
}

struct ShardArgs {
    campaign: Params,
    shard_index: usize,
    num_shards: usize,
    out: PathBuf,
    inject_fail_once: Option<PathBuf>,
    inject_fail_always: bool,
    inject_truncate_once: Option<PathBuf>,
    inject_hang_once: Option<PathBuf>,
    inject_slow_ms: u64,
    inject_concurrency_dir: Option<PathBuf>,
}

impl Default for ShardArgs {
    fn default() -> Self {
        Self {
            campaign: Params::defaults(TABLE2_PARAMS),
            shard_index: 0,
            num_shards: 1,
            out: PathBuf::from("partial-0.json"),
            inject_fail_once: None,
            inject_fail_always: false,
            inject_truncate_once: None,
            inject_hang_once: None,
            inject_slow_ms: 0,
            inject_concurrency_dir: None,
        }
    }
}

fn shard_usage() -> String {
    format!(
        "xbar mc shard: run one shard of a sharded Monte Carlo campaign\n\n{}\n\
         shard flags:\n  \
         --shard-index I    this shard's index (default 0)\n  \
         --num-shards N     shards in the campaign (default 1)\n  \
         --out PATH         partial-result output path (default partial-0.json);\n                     \
         `-` streams the partial to stdout (remote launch)\n\n\
         test-only failure injection:\n  \
         --inject-fail-once MARKER      exit 3 unless MARKER exists (created on the way out)\n  \
         --inject-fail-always           always exit 4\n  \
         --inject-truncate-once MARKER  write a torn partial once, then behave\n  \
         --inject-hang-once MARKER      hang forever unless MARKER exists (watchdog bait)\n  \
         --inject-slow-ms N             sleep N ms before running the shard\n  \
         --inject-concurrency-dir DIR   record live-worker counts into DIR/observed.txt",
        campaign_usage()
    )
}

fn parse_shard_args(args: Vec<String>) -> Result<Option<ShardArgs>, String> {
    let mut out = ShardArgs::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if out.campaign.consume(TABLE2_PARAMS, &flag, &mut it)? {
            continue;
        }
        let path = |it: &mut dyn Iterator<Item = String>| flag_value(&flag, it).map(PathBuf::from);
        match flag.as_str() {
            "--shard-index" => out.shard_index = flag_num(&flag, &flag_value(&flag, &mut it)?)?,
            "--num-shards" => out.num_shards = positive_num(&flag, &flag_value(&flag, &mut it)?)?,
            "--out" => out.out = path(&mut it)?,
            "--inject-fail-once" => out.inject_fail_once = Some(path(&mut it)?),
            "--inject-fail-always" => out.inject_fail_always = true,
            "--inject-truncate-once" => out.inject_truncate_once = Some(path(&mut it)?),
            "--inject-hang-once" => out.inject_hang_once = Some(path(&mut it)?),
            "--inject-slow-ms" => {
                out.inject_slow_ms = flag_num(&flag, &flag_value(&flag, &mut it)?)?
            }
            "--inject-concurrency-dir" => out.inject_concurrency_dir = Some(path(&mut it)?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    out.campaign = out.campaign.finish()?;
    Ok(Some(out))
}

/// Returns true exactly once per marker path: the caller whose exclusive
/// create makes the marker, however many workers race for it.
fn first_time(marker: &Path) -> bool {
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(marker)
    {
        Ok(_) => true,
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => false,
        Err(e) => panic!("cannot create marker {}: {e}", marker.display()),
    }
}

/// `xbar mc shard`: runs one contiguous slice of a campaign and writes a
/// self-describing partial file. Returns the process exit code.
#[must_use]
pub fn shard_main(argv: Vec<String>) -> i32 {
    let args = match parse_shard_args(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            outln!("{}", shard_usage());
            return 0;
        }
        Err(e) => {
            eprintln!("mc shard: {e}\n\n{}", shard_usage());
            return 2;
        }
    };
    if args.inject_fail_always {
        eprintln!("mc shard: injected permanent failure");
        return 4;
    }
    if let Some(marker) = &args.inject_fail_once {
        if first_time(marker) {
            eprintln!("mc shard: injected one-shot failure");
            return 3;
        }
    }
    if let Some(marker) = &args.inject_hang_once {
        if first_time(marker) {
            // A worker that never exits: the scheduler's watchdog must
            // kill it at --shard-timeout (there is nothing else to stop it).
            eprintln!("mc shard: injected hang (waiting to be killed)");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }

    let config = match McConfig::from_params(&args.campaign) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("mc shard: {e}");
            return 2;
        }
    };
    if args.shard_index >= args.num_shards {
        eprintln!(
            "mc shard: --shard-index {} out of range for --num-shards {}",
            args.shard_index, args.num_shards
        );
        return 2;
    }
    let spec = ShardSpec::partition(config.samples, args.num_shards)[args.shard_index];

    // Concurrency probe: hold a live-marker for the worker's lifetime and
    // record how many live markers exist, so a process-level test can
    // assert the scheduler's slot bound from *inside* the worker fleet.
    // O_APPEND keeps the short count lines atomic.
    let live_marker = args.inject_concurrency_dir.as_ref().map(|dir| {
        let _ = std::fs::create_dir_all(dir);
        let marker = dir.join(format!("live-{}", std::process::id()));
        let _ = std::fs::write(&marker, b"live\n");
        marker
    });
    if args.inject_slow_ms > 0 {
        std::thread::sleep(Duration::from_millis(args.inject_slow_ms));
    }
    if let Some(dir) = &args.inject_concurrency_dir {
        let live = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with("live-"))
                    .count()
            })
            .unwrap_or(0);
        use std::io::Write as _;
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("observed.txt"))
        {
            // One write per line: `writeln!` would issue the digits and
            // the newline as two appends, which concurrent workers can
            // interleave into a torn line.
            let _ = file.write_all(format!("{live}\n").as_bytes());
        }
    }

    let code = run_shard_to_file(&args, &config, spec);
    if let Some(marker) = live_marker {
        let _ = std::fs::remove_file(marker);
    }
    code
}

/// The worker's payload after all injection preambles: optionally write a
/// torn partial, otherwise fold the slice and write the real one. With
/// `--out -` the partial streams to stdout instead — the remote-launch
/// transport contract — so stdout carries *only* partial bytes (the
/// progress note is suppressed; the torn injection prints its truncated
/// prefix to stdout, exercising the receiver's torn-transfer detection).
fn run_shard_to_file(args: &ShardArgs, config: &McConfig, spec: ShardSpec) -> i32 {
    let stream_stdout = args.out.as_os_str() == "-";
    if let Some(marker) = &args.inject_truncate_once {
        if first_time(marker) {
            // A torn write: valid JSON prefix, no `complete` marker.
            let torn = "{\n  \"schema\": \"xbar-mc-partial/1\", \"trunc";
            if stream_stdout {
                print!("{torn}");
            } else if let Err(e) = std::fs::write(&args.out, torn) {
                eprintln!("mc shard: cannot write torn partial: {e}");
                return 1;
            }
            eprintln!("mc shard: injected torn partial");
            return 0;
        }
    }

    let partial: ShardPartial = run_shard(config, &spec);
    if stream_stdout {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        if let Err(e) = stdout
            .write_all(partial.to_json().as_bytes())
            .and_then(|()| stdout.flush())
        {
            eprintln!("mc shard: cannot stream partial to stdout: {e}");
            return 1;
        }
        eprintln!(
            "mc shard: shard {}/{} samples [{}, {}) -> stdout",
            spec.index, spec.num_shards, spec.start, spec.end
        );
        return 0;
    }
    // Atomic: a scheduler treats any file at this path as a checkpoint
    // candidate, so it must never observe a half-written partial (the
    // injected torn write above stays a plain write on purpose).
    if let Err(e) = crate::atomic::write_atomic(&args.out, partial.to_json().as_bytes()) {
        eprintln!("mc shard: cannot write {}: {e}", args.out.display());
        return 1;
    }
    outln!(
        "mc shard: shard {}/{} samples [{}, {}) -> {}",
        spec.index,
        spec.num_shards,
        spec.start,
        spec.end,
        args.out.display()
    );
    0
}

struct CoordinateArgs {
    campaign: Params,
    scheduling: SchedulingFlags,
    max_inflight: Option<usize>,
    in_process: bool,
}

impl Default for CoordinateArgs {
    fn default() -> Self {
        Self {
            campaign: Params::defaults(TABLE2_PARAMS),
            scheduling: SchedulingFlags::default(),
            max_inflight: None,
            in_process: false,
        }
    }
}

fn coordinate_usage() -> String {
    format!(
        "xbar mc coordinate: fault-tolerant sharded Monte Carlo over local worker processes\n\n\
         A launch over the implicit one-host fleet `local*<max-inflight>` with\n\
         hedging off; the merged output is byte-identical to a monolithic run.\n\n\
         {}\n\
         scheduling flags:\n\
         {SCHEDULING_FLAGS_USAGE}\n  \
         --max-inflight N   live workers at once (default: available parallelism)\n  \
         --in-process       run monolithically (no processes) through the same\n                     \
         accumulators; output is byte-identical to a sharded run",
        campaign_usage()
    )
}

fn parse_coordinate_args(args: Vec<String>) -> Result<Option<CoordinateArgs>, String> {
    let mut out = CoordinateArgs::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if out.scheduling.consume(&flag, &mut it)?
            || out.campaign.consume(TABLE2_PARAMS, &flag, &mut it)?
        {
            continue;
        }
        match flag.as_str() {
            "--max-inflight" => {
                out.max_inflight = Some(positive_num(&flag, &flag_value(&flag, &mut it)?)?);
            }
            "--in-process" => out.in_process = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    out.campaign = out.campaign.finish()?;
    Ok(Some(out))
}

/// One line of scheduling facts after a successful sharded run —
/// deliberately on stdout (not in the byte-compared artifact) so scripts
/// and CI can check how the campaign executed (e.g. that `--resume`
/// actually reused checkpoints).
fn print_report(report: &RunReport) {
    outln!(
        "coordinator: spawned {} worker(s), reused {} partial(s), {} retrie(s), \
         {} timeout(s), peak {} in flight",
        report.spawned,
        report.reused,
        report.retries,
        report.timeouts,
        report.max_inflight_observed
    );
}

/// `xbar mc coordinate`: partitions a campaign across local worker
/// processes (or runs it monolithically with `--in-process`), merges
/// partials, and writes the deterministic merged stats artifact. Returns
/// the process exit code.
#[must_use]
pub fn coordinate_main(argv: Vec<String>) -> i32 {
    let parsed = parse_coordinate_args(argv);
    run_verb("mc coordinate", coordinate_usage, parsed, |args| {
        let config = McConfig::from_params(&args.campaign).map_err(ExpError::Usage)?;
        let merged = if args.in_process {
            outln!(
                "running {} samples monolithically (same accumulators as sharded mode)",
                config.samples
            );
            run_monolithic(&config)
        } else {
            let scheduling = &args.scheduling;
            let coordinator = CoordinatorConfig {
                config: config.clone(),
                shards: scheduling.shards,
                max_attempts: scheduling.max_attempts,
                worker: scheduling.resolve_worker().map_err(ExpError::Usage)?,
                work_dir: scheduling.resolve_work_dir(),
                extra_worker_args: scheduling.worker_args.clone(),
                keep_partials: scheduling.keep_partials,
                shard_timeout: scheduling.shard_timeout,
                max_inflight: args.max_inflight,
                resume: scheduling.resume,
                retry_base: DEFAULT_RETRY_BASE,
            };
            outln!(
                "running {} samples across {} worker process(es) (seed {}, {:.0}% defects)",
                config.samples,
                coordinator.shards,
                config.seed,
                config.defect_rate * 100.0
            );
            let (merged, report) =
                run_coordinator_with_report(&coordinator).map_err(ExpError::Failed)?;
            print_report(&report);
            merged
        };
        args.scheduling.write_merged(&merged)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_once_marker_fires_for_exactly_one_of_many_racing_workers() {
        const WORKERS: usize = 8;
        // A racy check-then-create leaves a window microseconds wide, so
        // one round rarely exposes it; thousands do.
        const ROUNDS: usize = 2000;
        let dir = std::env::temp_dir().join(format!("xbar-marker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create");
        let marker = dir.join("once");
        let barrier = std::sync::Barrier::new(WORKERS);
        for round in 0..ROUNDS {
            let _ = std::fs::remove_file(&marker);
            let fired = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..WORKERS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            first_time(&marker)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("worker"))
                    .filter(|&fired| fired)
                    .count()
            });
            assert_eq!(
                fired, 1,
                "round {round}: {fired} workers took the once branch"
            );
            assert!(!first_time(&marker), "the marker stays spent");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_args_reject_malformed_flags_without_panicking() {
        for words in [
            &["--shard-index"][..],
            &["--shard-index", "x"][..],
            &["--samples", "nope"][..],
            &["--num-shards", "0"][..],
            &["--what"][..],
        ] {
            let argv = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_shard_args(argv).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn coordinate_args_parse_and_help_short_circuits() {
        let argv = ["--shards", "5", "--in-process", "--seed", "7"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let args = parse_coordinate_args(argv)
            .expect("parses")
            .expect("not help");
        assert_eq!(args.scheduling.shards, 5);
        assert!(args.in_process);
        assert_eq!(args.campaign.seed, 7);
        assert_eq!(args.scheduling.shard_timeout, None, "watchdog defaults off");
        assert_eq!(args.max_inflight, None, "inflight defaults to auto");
        assert!(!args.scheduling.resume);

        let help = parse_coordinate_args(vec!["--help".to_owned()]).expect("ok");
        assert!(help.is_none(), "--help short-circuits");
    }

    #[test]
    fn coordinate_args_parse_the_fault_tolerance_flags() {
        let argv = [
            "--shard-timeout",
            "2.5",
            "--max-inflight",
            "4",
            "--resume",
            "--worker-arg",
            "--inject-fail-once",
            "--worker-arg",
            "/tmp/marker",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let args = parse_coordinate_args(argv)
            .expect("parses")
            .expect("not help");
        assert_eq!(
            args.scheduling.shard_timeout,
            Some(Duration::from_millis(2500))
        );
        assert_eq!(args.max_inflight, Some(4));
        assert!(args.scheduling.resume);
        assert_eq!(
            args.scheduling.worker_args,
            ["--inject-fail-once", "/tmp/marker"]
        );
    }

    #[test]
    fn coordinate_args_reject_degenerate_fault_tolerance_values() {
        for words in [
            &["--shard-timeout", "0"][..],
            &["--shard-timeout", "-1"][..],
            &["--shard-timeout", "NaN"][..],
            &["--shard-timeout", "soon"][..],
            &["--max-inflight", "0"][..],
            &["--max-inflight", "lots"][..],
            &["--shards", "0"][..],
            &["--max-attempts", "0"][..],
            &["--worker-arg"][..],
        ] {
            let argv = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(parse_coordinate_args(argv).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn shard_args_parse_the_new_injection_hooks() {
        let argv = [
            "--inject-hang-once",
            "/tmp/hang",
            "--inject-slow-ms",
            "250",
            "--inject-concurrency-dir",
            "/tmp/conc",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let args = parse_shard_args(argv).expect("parses").expect("not help");
        assert_eq!(args.inject_hang_once, Some(PathBuf::from("/tmp/hang")));
        assert_eq!(args.inject_slow_ms, 250);
        assert_eq!(
            args.inject_concurrency_dir,
            Some(PathBuf::from("/tmp/conc"))
        );
        let bad = vec!["--inject-slow-ms".to_owned(), "soon".to_owned()];
        assert!(parse_shard_args(bad).is_err());
    }

    #[test]
    fn campaign_flags_parse_exactly_as_xbar_run_table2_on_both_entry_points() {
        let words = [
            "--defect-model",
            "clustered",
            "--cluster-size",
            "6",
            "--defect-rate",
            "0.25",
            "--circuits",
            "misex1,rd53",
        ];
        let argv: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
        let run = Params::parse(TABLE2_PARAMS, argv.clone()).expect("xbar run table2 parses");
        let shard = parse_shard_args(argv.clone())
            .expect("parses")
            .expect("not help");
        assert_eq!(shard.campaign, run);
        let coord = parse_coordinate_args(argv)
            .expect("parses")
            .expect("not help");
        assert_eq!(coord.campaign, run);
        let config = McConfig::from_params(&coord.campaign).expect("Table II circuits");
        assert_eq!(config.model.kind(), xbar_core::DefectModelKind::Clustered);
        assert_eq!(config.model.cluster_size(), 6.0);

        // What `xbar run table2` refuses, every mc verb refuses.
        for words in [
            &["--defect-model", "blobs"][..],
            &["--cluster-size", "0.5"][..],
            &["--cluster-size", "NaN"][..],
            &["--line-rate", "1.5"][..],
            &["--line-rate", "-0.1"][..],
            &["--defect-rate", "1.5"][..],
            &["--defect-rate", "-0.1"][..],
            &["--samples", "0"][..],
            &["--circuits", ""][..],
            &["--quick"][..],
            &["--json"][..],
        ] {
            let argv: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
            assert!(
                parse_shard_args(argv.clone()).is_err(),
                "{words:?} must fail"
            );
            assert!(parse_coordinate_args(argv).is_err(), "{words:?} must fail");
        }
        let repeated = parse_coordinate_args(vec!["--circuits".to_owned(), "rd53,rd53".to_owned()])
            .expect("parses")
            .expect("not help");
        let err = McConfig::from_params(&repeated.campaign).expect_err("must fail");
        assert!(err.contains("listed twice"), "{err}");
    }

    #[test]
    fn out_of_range_shard_index_is_exit_2() {
        let code = shard_main(
            ["--shard-index", "4", "--num-shards", "2"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        assert_eq!(code, 2);
    }
}
