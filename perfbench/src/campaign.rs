//! `campaign_sharded`: sharded Monte Carlo campaigns over the 16 Table II
//! circuits at product defaults (V1 stream, defect rate 0.10), many
//! shards of modest size, alternating `xbar mc coordinate --max-inflight
//! 2` and `xbar mc launch --hosts local*2`, a fresh seed per campaign.
//!
//! Every worker process repays cover preparation, spawn, the partial
//! round-trip, validation and merge, so the `logic`, `shard` and
//! `launch` layers dominate and the engine does little. Each merged
//! result is checked byte for byte against `run_monolithic` for its seed,
//! computed after the timed region.
//!
//! Traced, the same campaigns run through the library entry points the
//! CLI calls (`run_coordinator_with_report`, and `run_launch_with_report`
//! over a [`TimingTransport`] around `LocalProc`), both on one seed so
//! their merged bytes compare directly.

use crate::metrics::circuit_metric;
use crate::product::{children_peak_rss_mb, read, run_timed, Ctx, SeedStream};
use crate::stats::{median, Summary};
use crate::timing::TimingTransport;
use crate::trace::{sum_named, write_csv, Span, Tracer};
use crate::Outcome;
use std::time::Instant;
use xbar_exp::experiments::table2::table2_circuit_names;
use xbar_exp::launch::pool::{DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
use xbar_exp::launch::{parse_hosts, run_launch_with_report, LaunchConfig, LocalProc};
use xbar_exp::shard::coordinator::{
    render_stats_json, run_coordinator_with_report, run_monolithic, CoordinatorConfig, Worker,
    DEFAULT_RETRY_BASE,
};
use xbar_exp::McConfig;
use xbar_logic::bench_reg::find;

/// Samples per campaign: modest, so the per-worker fixed costs dominate
/// and a run holds enough campaigns for a steady median.
pub const SAMPLES: usize = 240;
/// Shards per campaign (30 samples each).
pub const SHARDS: usize = 8;
/// Worker slots: `--max-inflight 2` and `--hosts local*2`.
const SLOTS: usize = 2;
const HOSTS: &str = "local*2";
const SETUP_RUNS: usize = 5;
const TRACED_PAIRS: usize = 2;

/// The two scheduler paths a campaign can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    Coordinate,
    Launch,
}

/// One campaign through the CLI: `(merged stats bytes, seconds)`.
fn cli(
    ctx: &Ctx,
    via: Via,
    samples: usize,
    shards: usize,
    seed: u64,
) -> Result<(String, f64), String> {
    let out = ctx.state.join("merged.json");
    let _ = std::fs::remove_file(&out);
    let path = match via {
        Via::Coordinate => ["coordinate", "--max-inflight", "2"],
        Via::Launch => ["launch", "--hosts", HOSTS],
    };
    let args: Vec<String> = ["mc"]
        .into_iter()
        .chain(path)
        .map(str::to_owned)
        .chain([
            "--samples".to_owned(),
            samples.to_string(),
            "--shards".to_owned(),
            shards.to_string(),
            "--seed".to_owned(),
            seed.to_string(),
            "--work-dir".to_owned(),
            ctx.state.join("mc").display().to_string(),
            "--out".to_owned(),
            out.display().to_string(),
        ])
        .collect();
    let (_, secs) = run_timed(ctx.xbar(&args))?;
    Ok((read(&out)?, secs))
}

fn config(samples: usize, seed: u64) -> McConfig {
    McConfig::with_default_circuits(samples, seed, 0.10)
}

fn reference(samples: usize, seed: u64) -> String {
    render_stats_json(&run_monolithic(&config(samples, seed)))
}

fn same_as_reference(text: &str, samples: usize, seed: u64, via: Via) -> Result<(), String> {
    if text == reference(samples, seed) {
        Ok(())
    } else {
        Err(format!(
            "{via:?} seed {seed}: merged stats differ from run_monolithic"
        ))
    }
}

/// Untraced run: set-up, then coordinate/launch pairs for the run length.
///
/// # Errors
///
/// Only when no measured pair succeeded.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut seeds = SeedStream::new(ctx.seed, 2);
    let mut setup = Vec::new();
    for _ in 0..SETUP_RUNS {
        let seed = seeds.product_seed();
        if let Some((text, secs)) = out.op(cli(ctx, Via::Coordinate, 1, 1, seed)) {
            out.check(same_as_reference(&text, 1, seed, Via::Coordinate));
            setup.push(secs);
        }
    }

    let mut campaigns: Vec<(Via, u64, String, f64)> = Vec::new();
    let mut pairs = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < ctx.seconds && out.failed < 3 {
        let mut pair = 0.0;
        let mut whole = true;
        for via in [Via::Coordinate, Via::Launch] {
            let seed = seeds.product_seed();
            match out.op(cli(ctx, via, SAMPLES, SHARDS, seed)) {
                Some((text, secs)) => {
                    pair += secs;
                    campaigns.push((via, seed, text, secs));
                }
                None => whole = false,
            }
        }
        if whole {
            pairs.push(pair);
        }
    }
    if pairs.is_empty() || setup.is_empty() {
        return Err("no coordinate/launch pair succeeded".into());
    }
    for (via, seed, text, _) in &campaigns {
        out.check(same_as_reference(text, SAMPLES, *seed, *via));
    }

    let circuit_samples = (table2_circuit_names().len() * SAMPLES) as f64;
    let latencies: Vec<f64> = campaigns.iter().map(|c| c.3 * 1e3).collect();
    for via in [Via::Coordinate, Via::Launch] {
        let ms: Vec<f64> = campaigns
            .iter()
            .filter(|c| c.0 == via)
            .map(|c| c.3 * 1e3)
            .collect();
        if let Some(s) = Summary::of(&ms) {
            out.note(format!("{via:?} campaign ms: {s}"));
        }
    }
    let pair = median(&pairs);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup));
    m.set("samples_per_s", 2.0 * circuit_samples / pair);
    m.set("requests_per_s", 2.0 / pair);
    m.set("latency_ms_p50", median(&latencies));
    m.set("cold_ms_p50", median(&latencies));
    m.set("peak_rss_mb", children_peak_rss_mb());
    Ok(())
}

/// Per-campaign launch timings derived from the flight log.
#[derive(Debug, Default)]
struct LaunchTimes {
    campaigns: f64,
    campaign_s: f64,
    flights: f64,
    flight_secs: Vec<f64>,
    busy_s: f64,
    idle_s: f64,
    first_dispatch_s: f64,
    merge_tail_s: f64,
    bytes: f64,
    failed: f64,
}

/// Traced run: cover preparation once, then coordinate and launch on the
/// same seed per pair, three-way byte comparison with `run_monolithic`.
///
/// # Errors
///
/// Reports an unusable host spec; campaign failures are counted instead.
pub fn run_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut seeds = SeedStream::new(ctx.seed, 2);
    let tracer = Tracer::new();
    let mut local = tracer.local();
    let hosts = parse_hosts(HOSTS)?;
    let worker = Worker::xbar(ctx.xbar.clone());
    let work_dir = ctx.state.join("mc");

    // What every shard worker repays before sampling: the covers of the
    // campaign's circuits, prepared here once with the same inputs.
    let seed0 = seeds.product_seed();
    let prep_root = local.open("logic.campaign_covers", None, None, 0);
    for name in table2_circuit_names() {
        let info = find(&name).map_err(|e| e.to_string())?;
        let s = local.open(
            "logic.mapping_cover",
            Some(info.name),
            Some(prep_root.id),
            0,
        );
        std::hint::black_box(info.mapping_cover(seed0));
        let secs = local.close(s);
        out.metrics
            .set(circuit_metric(info.name, "cover_prep_s"), secs);
    }
    let cover_prep = local.close(prep_root);
    out.metrics.set("logic.cover_prep_s", cover_prep);

    let mut launch = LaunchTimes::default();
    let (mut spawned, mut retries, mut timeouts) = (0.0, 0.0, 0.0);
    let (mut coordinated, mut coordinated_s) = (0.0, 0.0);
    for pair in 0..TRACED_PAIRS as u64 {
        let seed = if pair == 0 {
            seed0
        } else {
            seeds.product_seed()
        };
        let request = pair + 1;
        let coordinator = CoordinatorConfig {
            config: config(SAMPLES, seed),
            shards: SHARDS,
            max_attempts: 3,
            worker: worker.clone(),
            work_dir: work_dir.clone(),
            extra_worker_args: Vec::new(),
            keep_partials: false,
            shard_timeout: None,
            max_inflight: Some(SLOTS),
            resume: false,
            retry_base: DEFAULT_RETRY_BASE,
        };
        let span = local.open("shard.campaign", None, None, request);
        let coordinated_bytes =
            out.op(run_coordinator_with_report(&coordinator))
                .map(|(merged, report)| {
                    spawned += report.spawned as f64;
                    retries += report.retries as f64;
                    timeouts += report.timeouts as f64;
                    render_stats_json(&merged)
                });
        let secs = local.close(span);
        if coordinated_bytes.is_some() {
            coordinated += 1.0;
            coordinated_s += secs;
        }

        let launcher = LaunchConfig {
            config: config(SAMPLES, seed),
            shards: SHARDS,
            max_attempts: 3,
            worker: worker.clone(),
            work_dir: work_dir.clone(),
            extra_worker_args: Vec::new(),
            keep_partials: false,
            shard_timeout: None,
            hedge_after: None,
            resume: false,
            retry_base: DEFAULT_RETRY_BASE,
            hosts: hosts.clone(),
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            probation: DEFAULT_PROBATION,
        };
        let transport = TimingTransport::new(LocalProc);
        let start = Instant::now();
        let span = local.open("launch.campaign", None, None, request);
        let launched = out.op(run_launch_with_report(&launcher, &transport));
        let end = Instant::now();
        local.close(span);
        let records = transport.records();
        for r in &records {
            let open = tracer.ns_of(r.dispatched);
            local.record(Span {
                id: tracer.alloc_id(),
                parent: Some(span.id),
                request,
                thread: 0,
                name: "launch.flight",
                tag: None,
                start_ns: open,
                end_ns: r.finished.map_or(open, |f| tracer.ns_of(f)),
            });
        }
        let launched_bytes = launched.map(|(merged, _)| {
            let wall = (end - start).as_secs_f64();
            let secs: Vec<f64> = records.iter().filter_map(|r| r.seconds()).collect();
            let busy: f64 = secs.iter().sum();
            launch.campaigns += 1.0;
            launch.campaign_s += wall;
            launch.flights += records.len() as f64;
            launch.busy_s += busy;
            launch.idle_s += SLOTS as f64 * wall - busy;
            if let Some(first) = records.iter().map(|r| r.dispatched).min() {
                launch.first_dispatch_s += (first - start).as_secs_f64();
            }
            if let Some(last) = records.iter().filter_map(|r| r.finished).max() {
                launch.merge_tail_s += end.saturating_duration_since(last).as_secs_f64();
            }
            launch.bytes += records.iter().map(|r| r.bytes as f64).sum::<f64>();
            launch.failed += records.iter().filter(|r| r.failed).count() as f64;
            launch.flight_secs.extend(secs);
            render_stats_json(&merged)
        });

        let want = reference(SAMPLES, seed);
        for (via, got) in [
            (Via::Coordinate, coordinated_bytes),
            (Via::Launch, launched_bytes),
        ] {
            if let Some(got) = got {
                out.check(if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{via:?} seed {seed}: merged stats differ from run_monolithic"
                    ))
                });
            }
        }
    }
    drop(local);
    let spans = tracer.take();
    if let Err(e) = write_csv(&ctx.trace_file, &spans) {
        out.note(format!("cannot write spans: {e}"));
    }
    let (flight_total, flight_count) = sum_named(&spans, "launch.flight");
    out.note(format!(
        "{flight_count} flights, {flight_total:.3} s in flight"
    ));
    if let Some(s) = Summary::of(&launch.flight_secs) {
        out.note(format!("flight seconds: {s}"));
    }

    let m = &mut out.metrics;
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    m.set("shard.campaign_s", per(coordinated_s, coordinated));
    m.set("shard.spawned", per(spawned, coordinated));
    m.set("shard.retries", retries);
    m.set("shard.timeouts", timeouts);
    let n = launch.campaigns;
    m.set("launch.campaign_s", per(launch.campaign_s, n));
    m.set("launch.flights", per(launch.flights, n));
    if !launch.flight_secs.is_empty() {
        m.set("launch.flight_s_p50", median(&launch.flight_secs));
    }
    m.set("launch.flight_busy_s", per(launch.busy_s, n));
    m.set("launch.slot_idle_s", per(launch.idle_s, n));
    m.set("launch.first_dispatch_s", per(launch.first_dispatch_s, n));
    m.set("launch.merge_tail_s", per(launch.merge_tail_s, n));
    m.set("launch.stream_bytes", per(launch.bytes, n));
    m.set("launch.failed_flights", launch.failed);
    Ok(())
}
