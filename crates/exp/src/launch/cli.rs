//! `xbar mc launch`: the multi-host CLI over the launch scheduler.
//!
//! Parsing follows the `mc coordinate` conventions (usage problems print
//! help to stderr and return exit code 2) and reuses the shared
//! [`CampaignFlags`] and `SchedulingFlags`, so a launch describes its
//! campaign with exactly the coordinator's vocabulary plus the fleet
//! flags.

use super::pool::{parse_hosts, DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
use super::scheduler::{run_launch_with_report, LaunchConfig, LaunchReport};
use super::transport::{Exec, FaultPlan, Faulty, LocalProc, Transport};
use crate::experiment::{find_experiment, Params};
use crate::experiments::table2::table2_artifact_from_accums;
use crate::shard::cli::{
    flag_secs, flag_value, positive_num, positive_secs, SchedulingFlags, SCHEDULING_FLAGS_USAGE,
};
use crate::shard::coordinator::{render_stats_json, render_timing_table, DEFAULT_RETRY_BASE};
use crate::shard::{CampaignFlags, McConfig, CAMPAIGN_FLAGS_USAGE};
use std::path::PathBuf;
use std::time::Duration;

struct LaunchArgs {
    campaign: CampaignFlags,
    scheduling: SchedulingFlags,
    hosts: String,
    hedge_after: Option<Duration>,
    quarantine_after: usize,
    probation: Duration,
    artifact: Option<PathBuf>,
    exec_args: Vec<String>,
    faults: Vec<FaultPlan>,
}

impl Default for LaunchArgs {
    fn default() -> Self {
        Self {
            campaign: CampaignFlags::default(),
            scheduling: SchedulingFlags::default(),
            hosts: String::new(),
            hedge_after: None,
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            probation: DEFAULT_PROBATION,
            artifact: None,
            exec_args: Vec::new(),
            faults: Vec::new(),
        }
    }
}

fn launch_usage() -> String {
    format!(
        "xbar mc launch: fault-tolerant multi-host Monte Carlo dispatch\n\n\
         Shards the campaign over a fleet, streams partials back over a\n\
         transport, and merges through a per-host tree. The merged output is\n\
         byte-identical to a monolithic run under every tolerated fault.\n\nflags:\n\
         {CAMPAIGN_FLAGS_USAGE}\n\
         {SCHEDULING_FLAGS_USAGE}\n  \
         --hosts SPEC       the fleet (required): comma-separated `name[*slots]`\n                     \
         entries, e.g. `alpha*4,beta*2,gamma` (slots default 1)\n  \
         --hedge-after S    re-dispatch a straggling flight onto another host\n                     \
         after S seconds; first valid partial wins (default: off)\n  \
         --quarantine-after N  quarantine a host after N consecutive failures\n                     \
         (default {DEFAULT_QUARANTINE_AFTER})\n  \
         --probation S      quarantine sit-out before a host may be retried\n                     \
         (default 30; the last host not quarantined never is)\n  \
         --artifact PATH    also write the canonical experiment artifact\n                     \
         (byte-identical to `xbar run table2 --json`)\n  \
         --exec-arg TOKEN   remote command template token (repeatable). When\n                     \
         present, dispatch runs the rendered template instead of a local\n                     \
         subprocess: `{{host}}` expands to the host name, `{{worker}}` splices\n                     \
         the worker argv, `{{worker:sh}}` substitutes one shell-quoted\n                     \
         command string. E.g. `--exec-arg ssh --exec-arg {{host}}\n                     \
         --exec-arg {{worker:sh}}` dispatches over ssh.\n\n\
         test-only fault injection:\n  \
         --inject-host-fault SPEC  wrap the transport with an injected fault:\n                     \
         `host=drop|stall|truncate|die[@ordinal]` (repeatable)"
    )
}

fn parse_launch_args(args: Vec<String>) -> Result<Option<LaunchArgs>, String> {
    let mut out = LaunchArgs::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if out.campaign.consume(&flag, &mut it)? || out.scheduling.consume(&flag, &mut it)? {
            continue;
        }
        let mut value = || flag_value(&flag, &mut it);
        match flag.as_str() {
            "--hosts" => out.hosts = value()?,
            "--hedge-after" => out.hedge_after = Some(positive_secs(&flag, &value()?)?),
            "--quarantine-after" => out.quarantine_after = positive_num(&flag, &value()?)?,
            "--probation" => out.probation = flag_secs(&flag, &value()?)?,
            "--artifact" => out.artifact = Some(PathBuf::from(value()?)),
            "--exec-arg" => out.exec_args.push(value()?),
            "--inject-host-fault" => out.faults.push(FaultPlan::parse(&value()?)?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    if out.hosts.is_empty() {
        return Err("--hosts is required (e.g. --hosts alpha*2,beta)".to_owned());
    }
    Ok(Some(out))
}

/// The scheduling summary after a successful launch — on stdout, outside
/// the byte-compared artifacts, in the coordinator report's spirit so
/// scripts can assert how the campaign actually executed.
fn print_report(report: &LaunchReport) {
    println!(
        "launcher: dispatched {} flight(s), reused {} partial(s), {} retrie(s), \
         {} timeout(s), {} hedge(s), {} discard(s)",
        report.base.spawned,
        report.base.reused,
        report.base.retries,
        report.base.timeouts,
        report.hedges,
        report.discards
    );
    for host in &report.hosts {
        println!(
            "launcher: host {}: {} dispatched, {} ok, {} failed, {} quarantine(s)",
            host.name, host.dispatched, host.completed, host.failed, host.quarantines
        );
    }
}

/// The `xbar run table2`-equivalent argv for this campaign, so the
/// canonical artifact is rebuilt against the exact [`Params`] a
/// monolithic run of the same flags would parse.
fn table2_argv(flags: &CampaignFlags) -> Vec<String> {
    let mut argv = vec![
        "--samples".to_owned(),
        flags.samples.to_string(),
        "--seed".to_owned(),
        flags.seed.to_string(),
        "--defect-rate".to_owned(),
        // Shortest-round-trip text: parses back to the exact bits.
        format!("{:?}", flags.defect_rate),
        "--rng-stream".to_owned(),
        flags.stream.as_str().to_owned(),
    ];
    if flags.model_kind != xbar_core::DefectModelKind::Iid {
        argv.push("--defect-model".to_owned());
        argv.push(flags.model_kind.as_str().to_owned());
        argv.push("--cluster-size".to_owned());
        argv.push(format!("{:?}", flags.cluster_size));
        argv.push("--line-rate".to_owned());
        argv.push(format!("{:?}", flags.line_rate));
    }
    if let Some(circuits) = &flags.circuits {
        argv.push("--circuits".to_owned());
        argv.push(circuits.join(","));
    }
    argv
}

/// Rebuilds and writes the canonical `xbar-artifact/1` document for the
/// campaign, byte-identical to `xbar run table2 --json` with the same
/// flags (the merge is integer-exact, the rebuild path is shared with the
/// serving daemon).
fn write_canonical_artifact(
    path: &std::path::Path,
    flags: &CampaignFlags,
    merged: &crate::shard::coordinator::MergedResult,
) -> Result<(), String> {
    let exp = find_experiment("table2").ok_or("table2 vanished from the registry")?;
    let params = Params::parse(exp.extra_params(), table2_argv(flags))
        .map_err(|e| format!("rebuilding table2 parameters: {e}"))?;
    let artifact = table2_artifact_from_accums(&merged.circuits, merged.config.seed, exp, &params)?;
    crate::atomic::write_atomic(path, artifact.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `xbar mc launch`: shards a campaign over a fleet of hosts, merges the
/// streamed partials through the two-level tree, and writes the merged
/// stats artifact (plus, with `--artifact`, the canonical experiment
/// document). Returns the process exit code.
#[must_use]
pub fn launch_main(argv: Vec<String>) -> i32 {
    let args = match parse_launch_args(argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", launch_usage());
            return 0;
        }
        Err(e) => {
            eprintln!("mc launch: {e}\n\n{}", launch_usage());
            return 2;
        }
    };
    let hosts = match parse_hosts(&args.hosts) {
        Ok(hosts) => hosts,
        Err(e) => {
            eprintln!("mc launch: --hosts: {e}");
            return 2;
        }
    };
    let config: McConfig = args.campaign.clone().into_config();
    if let Err(e) = config.validate() {
        eprintln!("mc launch: {e}");
        return 2;
    }
    let scheduling = &args.scheduling;
    let worker = match scheduling.resolve_worker() {
        Ok(worker) => worker,
        Err(e) => {
            eprintln!("mc launch: {e}");
            return 2;
        }
    };
    let cfg = LaunchConfig {
        config: config.clone(),
        shards: scheduling.shards,
        max_attempts: scheduling.max_attempts,
        worker,
        work_dir: scheduling.resolve_work_dir(),
        extra_worker_args: scheduling.worker_args.clone(),
        keep_partials: scheduling.keep_partials,
        shard_timeout: scheduling.shard_timeout,
        hedge_after: args.hedge_after,
        resume: scheduling.resume,
        retry_base: DEFAULT_RETRY_BASE,
        hosts,
        quarantine_after: args.quarantine_after,
        probation: args.probation,
    };
    let transport: Box<dyn Transport> = if args.exec_args.is_empty() {
        Box::new(LocalProc)
    } else {
        match Exec::new(args.exec_args.clone()) {
            Ok(exec) => Box::new(exec),
            Err(e) => {
                eprintln!("mc launch: --exec-arg: {e}");
                return 2;
            }
        }
    };
    let transport: Box<dyn Transport> = if args.faults.is_empty() {
        transport
    } else {
        Box::new(Faulty::new(transport, args.faults.clone()))
    };

    println!(
        "launching {} samples as {} shard(s) over {} host(s) (seed {}, {:.0}% defects)",
        config.samples,
        cfg.shards,
        cfg.hosts.len(),
        config.seed,
        config.defect_rate * 100.0
    );
    let (merged, report) = match run_launch_with_report(&cfg, transport.as_ref()) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("mc launch: {e}");
            return 1;
        }
    };
    print_report(&report);
    print!("{}", render_timing_table(&merged));
    let out = &scheduling.out;
    if let Err(e) = crate::atomic::write_atomic(out, render_stats_json(&merged).as_bytes()) {
        eprintln!("mc launch: cannot write {}: {e}", out.display());
        return 1;
    }
    println!("wrote {}", out.display());
    if let Some(path) = &args.artifact {
        if let Err(e) = write_canonical_artifact(path, &args.campaign, &merged) {
            eprintln!("mc launch: {e}");
            return 1;
        }
        println!("wrote {}", path.display());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn launch_args_parse_the_fleet_and_policy_flags() {
        let args = parse_launch_args(argv(&[
            "--hosts",
            "alpha*2,beta",
            "--shards",
            "5",
            "--hedge-after",
            "0.5",
            "--quarantine-after",
            "2",
            "--probation",
            "1.5",
            "--exec-arg",
            "ssh",
            "--exec-arg",
            "{host}",
            "--exec-arg",
            "{worker:sh}",
            "--inject-host-fault",
            "beta=die@1",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(args.hosts, "alpha*2,beta");
        assert_eq!(args.scheduling.shards, 5);
        assert_eq!(args.hedge_after, Some(Duration::from_millis(500)));
        assert_eq!(args.quarantine_after, 2);
        assert_eq!(args.probation, Duration::from_millis(1500));
        assert_eq!(args.exec_args, ["ssh", "{host}", "{worker:sh}"]);
        assert_eq!(args.faults.len(), 1);

        assert!(parse_launch_args(argv(&["--help"])).expect("ok").is_none());
    }

    #[test]
    fn launch_args_require_hosts_and_reject_degenerate_values() {
        for words in [
            &[][..],
            &["--shards", "3"][..],
            &["--hosts", "a", "--quarantine-after", "0"][..],
            &["--hosts", "a", "--hedge-after", "0"][..],
            &["--hosts", "a", "--shard-timeout", "soon"][..],
            &["--hosts", "a", "--inject-host-fault", "a=explode"][..],
            &["--hosts", "a", "--what"][..],
        ] {
            assert!(parse_launch_args(argv(words)).is_err(), "{words:?}");
        }
    }

    #[test]
    fn table2_argv_round_trips_campaign_flags_into_params() {
        let flags = CampaignFlags {
            samples: 30,
            seed: 7,
            circuits: Some(vec!["rd53".to_owned()]),
            ..Default::default()
        };
        let exp = find_experiment("table2").expect("registered");
        let params = Params::parse(exp.extra_params(), table2_argv(&flags)).expect("parses");
        assert_eq!(params.samples, 30);
        assert_eq!(params.seed, 7);
        assert_eq!(params.list("circuits"), ["rd53"]);
        // The synthesized params resolve to exactly the launch's config.
        let config = flags.clone().into_config();
        assert_eq!(params.sample_stream(), config.stream);
        assert_eq!(params.defect_model(), config.model);
        assert!((params.defect_rate - config.defect_rate).abs() < f64::EPSILON);
    }
}
