//! `xbar mc launch`: the multi-host CLI over the launch scheduler.
//!
//! Parsing follows the `mc coordinate` conventions (usage problems print
//! help to stderr and return exit code 2) and reuses the shared campaign
//! flags (`xbar run table2`'s own, through `Params::consume`) and
//! `SchedulingFlags`, so a launch describes its campaign with exactly the
//! coordinator's vocabulary plus the fleet flags.

use super::pool::{parse_hosts, DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
use super::scheduler::{run_launch_with_report, LaunchConfig, LaunchReport};
use super::transport::{Exec, FaultPlan, Faulty, LocalProc, Transport};
use crate::cli::{outln, run_verb};
use crate::experiment::{find_experiment, flag_value, ExpError, Params};
use crate::experiments::table2::{table2_artifact_from_accums, TABLE2_PARAMS};
use crate::shard::cli::{
    campaign_usage, flag_secs, positive_num, positive_secs, SchedulingFlags, SCHEDULING_FLAGS_USAGE,
};
use crate::shard::coordinator::DEFAULT_RETRY_BASE;
use crate::shard::McConfig;
use std::path::PathBuf;
use std::time::Duration;

struct LaunchArgs {
    campaign: Params,
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
            campaign: Params::defaults(TABLE2_PARAMS),
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
         transport, and merges them. The merged output is byte-identical\n\
         to a monolithic run under every tolerated fault.\n\n\
         {}\n\
         scheduling flags:\n\
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
         `host=drop|stall|truncate|die[@ordinal]` (repeatable)",
        campaign_usage()
    )
}

fn parse_launch_args(args: Vec<String>) -> Result<Option<LaunchArgs>, String> {
    let mut out = LaunchArgs::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if out.scheduling.consume(&flag, &mut it)?
            || out.campaign.consume(TABLE2_PARAMS, &flag, &mut it)?
        {
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
    out.campaign = out.campaign.finish()?;
    Ok(Some(out))
}

/// The scheduling summary after a successful launch — on stdout, outside
/// the byte-compared artifacts, in the coordinator report's spirit so
/// scripts can assert how the campaign actually executed.
fn print_report(report: &LaunchReport) {
    outln!(
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
        outln!(
            "launcher: host {}: {} dispatched, {} ok, {} failed, {} quarantine(s)",
            host.name,
            host.dispatched,
            host.completed,
            host.failed,
            host.quarantines
        );
    }
}

/// Rebuilds and writes the canonical `xbar-artifact/1` document for the
/// campaign, byte-identical to `xbar run table2 --json` with the same
/// flags: `params` are the very flags that run would parse, the merge is
/// integer-exact, and the rebuild path is shared with the serving daemon.
fn write_canonical_artifact(
    path: &std::path::Path,
    params: &Params,
    merged: &crate::shard::coordinator::MergedResult,
) -> Result<(), String> {
    let exp = find_experiment("table2").ok_or("table2 vanished from the registry")?;
    let artifact = table2_artifact_from_accums(&merged.circuits, merged.config.seed, exp, params)?;
    crate::atomic::write_atomic(path, artifact.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `xbar mc launch`: shards a campaign over a fleet of hosts, merges the
/// streamed partials, and writes the merged stats artifact (plus, with
/// `--artifact`, the canonical experiment document). Returns the process
/// exit code.
#[must_use]
pub fn launch_main(argv: Vec<String>) -> i32 {
    let parsed = parse_launch_args(argv);
    run_verb("mc launch", launch_usage, parsed, |args| {
        let hosts =
            parse_hosts(&args.hosts).map_err(|e| ExpError::Usage(format!("--hosts: {e}")))?;
        let config = McConfig::from_params(&args.campaign).map_err(ExpError::Usage)?;
        let scheduling = &args.scheduling;
        let cfg = LaunchConfig {
            config: config.clone(),
            shards: scheduling.shards,
            max_attempts: scheduling.max_attempts,
            worker: scheduling.resolve_worker().map_err(ExpError::Usage)?,
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
            let exec = Exec::new(args.exec_args.clone())
                .map_err(|e| ExpError::Usage(format!("--exec-arg: {e}")))?;
            Box::new(exec)
        };
        let transport: Box<dyn Transport> = if args.faults.is_empty() {
            transport
        } else {
            Box::new(Faulty::new(transport, args.faults.clone()))
        };

        outln!(
            "launching {} samples as {} shard(s) over {} host(s) (seed {}, {:.0}% defects)",
            config.samples,
            cfg.shards,
            cfg.hosts.len(),
            config.seed,
            config.defect_rate * 100.0
        );
        let (merged, report) =
            run_launch_with_report(&cfg, transport.as_ref()).map_err(ExpError::Failed)?;
        print_report(&report);
        scheduling.write_merged(&merged)?;
        if let Some(path) = &args.artifact {
            write_canonical_artifact(path, &args.campaign, &merged).map_err(ExpError::Failed)?;
            outln!("wrote {}", path.display());
        }
        Ok(())
    })
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
            &["--hosts", "a", "--shards", "0"][..],
            &["--hosts", "a", "--max-attempts", "0"][..],
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
    fn launch_parses_its_campaign_exactly_as_xbar_run_table2() {
        // The `--artifact` document echoes these params, so they must be
        // the very params `xbar run table2` parses from the same flags.
        let campaign = [
            "--samples",
            "30",
            "--seed",
            "7",
            "--rng-stream",
            "v2",
            "--defect-model",
            "lines",
            "--line-rate",
            "0.125",
            "--circuits",
            "rd53",
        ];
        let args = parse_launch_args(argv(&[&["--hosts", "alpha*2"][..], &campaign].concat()))
            .expect("parses")
            .expect("not help");
        let exp = find_experiment("table2").expect("registered");
        let run = Params::parse(exp.extra_params(), argv(&campaign)).expect("parses");
        assert_eq!(args.campaign, run);
        let config = McConfig::from_params(&args.campaign).expect("Table II circuit");
        assert_eq!(config.circuits, ["rd53"]);
        assert_eq!(config.model, run.defect_model());
    }
}
