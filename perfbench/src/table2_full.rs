//! `table2_full`: the paper's Table II through `xbar run table2 --json`,
//! all 16 circuits, V2 sampling stream, defect rate 0.10, one caller.
//!
//! Untraced, every run is one product process; each artifact is checked
//! for structure and the first is compared byte for byte with an
//! in-process `Experiment::run` of the same parameters.
//!
//! Traced, the benchmark repeats each CLI run in-process with spans
//! around every layer call, in `run_circuit_range_on`'s order: cover
//! preparation, `prepare_fm` per worker, then per sample `resample`,
//! `hybrid_success`, `exact_success`, driven by `monte_carlo_range_with`
//! (the public twin of the crate-private `monte_carlo_range_fold`, with
//! the same chunking and per-sample seeds). Its artifact must equal the
//! CLI's byte for byte, so the spans measured the product's computation.

use crate::metrics::circuit_metric;
use crate::product::{children_peak_rss_mb, run_timed, Ctx, SeedStream};
use crate::stats::median;
use crate::trace::{ancestor_tags, sum_named, totals_by_name, write_csv, LocalTrace, Open, Tracer};
use crate::Outcome;
use rand::SeedableRng;
use std::time::Instant;
use xbar_core::{CrossbarMatrix, DefectSampler, FunctionMatrix, MatchEngine};
use xbar_exp::experiments::table2::{
    mc_seed, resolve_circuit_subset, row_from_accum, table2_artifact_data, table2_circuit_names,
    CircuitAccum,
};
use xbar_exp::shard::json::Json;
use xbar_exp::{find_experiment, monte_carlo_range_with, Artifact, ExpArgs, Params, Reporter};
use xbar_logic::bench_reg::find;
use xbar_logic::Cover;

/// Monte Carlo samples per circuit in one measured run. Half the
/// ROADMAP's 2000: run times on a shared machine swing by a fifth from
/// one run to the next, and twice as many runs per measurement steady
/// the median, while sampling and mapping stay over four fifths of it.
pub const SAMPLES: usize = 1000;
/// Set-up runs: cover preparation and process start, almost no sampling.
const SETUP_RUNS: usize = 5;
/// Traced passes (each paired with one CLI run of the same seed).
const TRACED_PASSES: usize = 2;

fn flags(samples: usize, seed: u64) -> Vec<String> {
    [
        "--samples",
        &samples.to_string(),
        "--seed",
        &seed.to_string(),
        "--defect-rate",
        "0.1",
        "--rng-stream",
        "v2",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// One `xbar run table2 --json` process: `(artifact, seconds)`.
fn cli(ctx: &Ctx, samples: usize, seed: u64) -> Result<(String, f64), String> {
    let mut args = vec!["run".to_owned(), "table2".to_owned(), "--json".to_owned()];
    args.extend(flags(samples, seed));
    let (out, secs) = run_timed(ctx.xbar(&args))?;
    let text = String::from_utf8(out.stdout).map_err(|_| "artifact is not UTF-8".to_owned())?;
    Ok((text, secs))
}

fn params(samples: usize, seed: u64) -> Result<Params, String> {
    let exp = find_experiment("table2").ok_or("table2 is not registered")?;
    Params::parse(exp.extra_params(), flags(samples, seed)).map_err(|e| e.to_string())
}

/// The same run in-process through the registry.
fn reference(samples: usize, seed: u64) -> Result<String, String> {
    let exp = find_experiment("table2").ok_or("table2 is not registered")?;
    let params = params(samples, seed)?;
    let artifact = exp
        .run(&params, &mut Reporter::quiet())
        .map_err(|e| e.to_string())?;
    Ok(artifact.render(exp, &params))
}

/// Per-circuit `(name, hba_successes, ea_successes)` of a checked
/// artifact: right schema and parameters, the 16 circuits in registry
/// order, `samples` each, and `hba <= ea <= samples`.
fn checked_counts(
    text: &str,
    samples: usize,
    seed: u64,
) -> Result<Vec<(String, u64, u64)>, String> {
    let doc = Json::parse(text).map_err(|e| format!("artifact does not parse: {e}"))?;
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64);
    if doc.get("schema").and_then(Json::as_str) != Some("xbar-artifact/1")
        || doc.get("experiment").and_then(Json::as_str) != Some("table2")
    {
        return Err("artifact is not an xbar-artifact/1 table2 document".into());
    }
    let p = doc.get("params").ok_or("artifact has no params")?;
    if field(p, "samples") != Some(samples as u64) || field(p, "seed") != Some(seed) {
        return Err(format!(
            "artifact echoes other params than samples {samples} seed {seed}"
        ));
    }
    let circuits = doc
        .get("data")
        .and_then(|d| d.get("circuits"))
        .and_then(Json::as_arr)
        .ok_or("artifact has no circuits")?;
    let names = table2_circuit_names();
    if circuits.len() != names.len() {
        return Err(format!("{} circuits, want {}", circuits.len(), names.len()));
    }
    let mut counts = Vec::new();
    for (c, want) in circuits.iter().zip(&names) {
        let name = c.get("name").and_then(Json::as_str).unwrap_or("");
        let (n, hba, ea) = (
            field(c, "samples"),
            field(c, "hba_successes"),
            field(c, "ea_successes"),
        );
        match (n, hba, ea) {
            (Some(n), Some(h), Some(e))
                if name == want && n == samples as u64 && h <= e && e <= n =>
            {
                counts.push((name.to_owned(), h, e));
            }
            _ => {
                return Err(format!(
                    "circuit entry {name:?} (want {want:?}) fails its checks"
                ))
            }
        }
    }
    Ok(counts)
}

/// Untraced run: set-up, then timed product runs for the run length.
///
/// # Errors
///
/// Only when no measured run succeeded at all.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut seeds = SeedStream::new(ctx.seed, 1);
    let mut setup = Vec::new();
    for _ in 0..SETUP_RUNS {
        let seed = seeds.product_seed();
        if let Some((text, secs)) = out.op(cli(ctx, 1, seed)) {
            out.check(checked_counts(&text, 1, seed).map(drop));
            setup.push(secs);
        }
    }

    let mut runs = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < ctx.seconds && out.failed < 3 {
        let seed = seeds.product_seed();
        if let Some((text, secs)) = out.op(cli(ctx, SAMPLES, seed)) {
            runs.push((seed, text, secs));
        }
    }
    if runs.is_empty() || setup.is_empty() {
        return Err("no table2 run succeeded".into());
    }

    for (i, (seed, text, _)) in runs.iter().enumerate() {
        let verdict = checked_counts(text, SAMPLES, *seed).and_then(|_| {
            if i > 0 {
                return Ok(());
            }
            let want = reference(SAMPLES, *seed)?;
            if &want == text {
                Ok(())
            } else {
                Err(format!(
                    "seed {seed}: CLI artifact differs from in-process Experiment::run"
                ))
            }
        });
        out.check(verdict);
    }

    let secs: Vec<f64> = runs.iter().map(|r| r.2).collect();
    let per_run = median(&secs);
    let circuit_samples = (table2_circuit_names().len() * SAMPLES) as f64;
    out.note(format!(
        "{} runs of {} circuit-samples, median {per_run:.3} s",
        runs.len(),
        circuit_samples
    ));
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup));
    m.set("samples_per_s", circuit_samples / per_run);
    m.set("requests_per_s", 1.0 / per_run);
    m.set("latency_ms_p50", per_run * 1e3);
    m.set("cold_ms_p50", per_run * 1e3);
    m.set("peak_rss_mb", children_peak_rss_mb());
    Ok(())
}

/// One sample's outcome in the traced pass.
#[derive(Debug, Clone, Copy)]
struct Trial {
    hba_ok: bool,
    ea_ok: bool,
    hba_secs: f64,
    ea_secs: f64,
    checks: usize,
    backtracks: usize,
}

/// Per-worker state: the engine and crossbar `run_circuit_range_on`
/// keeps per worker, plus the worker's span buffer.
struct WorkerState<'t> {
    trace: LocalTrace<'t>,
    worker: Open,
    engine: MatchEngine,
    cm: CrossbarMatrix,
}

impl Drop for WorkerState<'_> {
    fn drop(&mut self) {
        self.trace.close(self.worker);
    }
}

/// Engine counters summed over a traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct EngineCounts {
    hba_successes: u64,
    ea_successes: u64,
    checks: u64,
    backtracks: u64,
}

fn traced_circuit(
    tracer: &Tracer,
    local: &mut LocalTrace<'_>,
    cover: &Cover,
    args: &ExpArgs,
    parent: u64,
    request: u64,
    counts: &mut EngineCounts,
) -> CircuitAccum {
    let fm = FunctionMatrix::from_cover(cover);
    let (rows, cols) = (fm.num_rows(), fm.num_cols());
    let sampler = DefectSampler::with_model(args.stream, args.model);
    let fold = local.open("mc.fold", None, Some(parent), request);
    let trials = monte_carlo_range_with(
        0..args.samples,
        mc_seed(args.seed),
        || {
            let mut trace = tracer.local();
            let worker = trace.open("mc.worker", None, Some(fold.id), request);
            let prep = trace.open("engine.prepare_fm", None, Some(worker.id), request);
            let mut engine = MatchEngine::new();
            engine.prepare_fm(&fm);
            trace.close(prep);
            WorkerState {
                trace,
                worker,
                engine,
                cm: CrossbarMatrix::perfect(rows, cols),
            }
        },
        |st, _, seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let w = Some(st.worker.id);
            let s = st.trace.open("sampler.resample", None, w, request);
            sampler.resample(&mut st.cm, args.defect_rate, &mut rng);
            st.trace.close(s);
            let h = st.trace.open("engine.hybrid_success", None, w, request);
            let (hba_ok, hs) = st.engine.hybrid_success(&fm, &st.cm);
            let hba_secs = st.trace.close(h);
            let e = st.trace.open("engine.exact_success", None, w, request);
            let (ea_ok, es) = st.engine.exact_success(&fm, &st.cm);
            let ea_secs = st.trace.close(e);
            Trial {
                hba_ok,
                ea_ok,
                hba_secs,
                ea_secs,
                checks: hs.compatibility_checks + es.compatibility_checks,
                backtracks: hs.backtracks + es.backtracks,
            }
        },
    );
    local.close(fold);
    let mut accum = CircuitAccum::new();
    for t in trials {
        accum.push(t.hba_ok, t.hba_secs, t.ea_ok, t.ea_secs);
        counts.hba_successes += u64::from(t.hba_ok);
        counts.ea_successes += u64::from(t.ea_ok);
        counts.checks += t.checks as u64;
        counts.backtracks += t.backtracks as u64;
    }
    accum
}

/// One traced Table II pass: the artifact it renders and its counters.
fn traced_pass(
    tracer: &Tracer,
    request: u64,
    samples: usize,
    seed: u64,
    counts: &mut EngineCounts,
) -> Result<String, String> {
    let exp = find_experiment("table2").ok_or("table2 is not registered")?;
    let params = params(samples, seed)?;
    let args = params.exp_args();
    let mut local = tracer.local();
    let root = local.open("table2.run", None, None, request);
    let names = resolve_circuit_subset(params.list("circuits")).map_err(|e| e.to_string())?;
    let mut rows = Vec::with_capacity(names.len());
    let mut accums = Vec::with_capacity(names.len());
    for name in &names {
        let info = find(name).map_err(|e| e.to_string())?;
        let c = local.open("circuit", Some(info.name), Some(root.id), request);
        let prep = local.open("logic.mapping_cover", Some(info.name), Some(c.id), request);
        let cover = info.mapping_cover(args.seed);
        local.close(prep);
        let accum = traced_circuit(tracer, &mut local, &cover, &args, c.id, request, counts);
        rows.push(row_from_accum(info, &cover, &accum));
        accums.push(accum);
        local.close(c);
    }
    let render = local.open("artifact.render", None, Some(root.id), request);
    let text = Artifact::new(table2_artifact_data(&rows, &accums)).render(exp, &params);
    local.close(render);
    local.close(root);
    Ok(text)
}

/// Traced run: CLI and traced pass on the same seeds, counts compared,
/// per-layer metrics from the spans (means per pass).
///
/// # Errors
///
/// Only when no traced pass succeeded.
pub fn run_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut seeds = SeedStream::new(ctx.seed, 1);
    let tracer = Tracer::new();
    let mut counts = EngineCounts::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let circuit_samples = (table2_circuit_names().len() * SAMPLES) as f64;
    for request in 0..TRACED_PASSES as u64 {
        let seed = seeds.product_seed();
        let Some((cli_text, cli_secs)) = out.op(cli(ctx, SAMPLES, seed)) else {
            continue;
        };
        let t0 = Instant::now();
        let Some(text) = out.op(traced_pass(&tracer, request, SAMPLES, seed, &mut counts)) else {
            continue;
        };
        let secs = t0.elapsed().as_secs_f64();
        let verdict = checked_counts(&cli_text, SAMPLES, seed).and_then(|want| {
            let got = checked_counts(&text, SAMPLES, seed)?;
            if got != want {
                return Err(format!(
                    "seed {seed}: traced success counts differ from the CLI's"
                ));
            }
            if text != cli_text {
                return Err(format!(
                    "seed {seed}: traced artifact differs from the CLI's"
                ));
            }
            Ok(())
        });
        out.check(verdict);
        untraced.push(circuit_samples / cli_secs);
        traced.push(circuit_samples / secs);
    }
    if traced.is_empty() {
        return Err("no traced table2 pass succeeded".into());
    }
    let spans = tracer.take();
    if let Err(e) = write_csv(&ctx.trace_file, &spans) {
        out.note(format!("cannot write spans: {e}"));
    }
    for (name, calls, total, own) in totals_by_name(&spans) {
        out.note(format!(
            "span {name:<24} calls {calls:>8} total {total:>9.4} s self {own:>9.4} s"
        ));
    }

    let passes = traced.len() as f64;
    let m = &mut out.metrics;
    let mean = |name: &str| sum_named(&spans, name).0 / passes;
    let calls = |name: &str| sum_named(&spans, name).1 as f64 / passes;
    m.set("logic.cover_prep_s", mean("logic.mapping_cover"));
    m.set("sampler.resample_s", mean("sampler.resample"));
    m.set("sampler.resample_calls", calls("sampler.resample"));
    m.set("engine.prepare_fm_s", mean("engine.prepare_fm"));
    m.set("engine.hba_s", mean("engine.hybrid_success"));
    m.set("engine.ea_s", mean("engine.exact_success"));
    m.set("engine.hba_calls", calls("engine.hybrid_success"));
    m.set("engine.ea_calls", calls("engine.exact_success"));
    m.set("engine.hba_successes", counts.hba_successes as f64 / passes);
    m.set("engine.ea_successes", counts.ea_successes as f64 / passes);
    m.set("engine.compat_checks", counts.checks as f64 / passes);
    m.set("engine.backtracks", counts.backtracks as f64 / passes);
    m.set("mc.fold_s", mean("mc.fold"));
    m.set("mc.busy_s", mean("mc.worker"));
    m.set("artifact.render_s", mean("artifact.render"));

    // Efficiency = busy / (wall x threads), summed over every fold.
    let mut capacity = 0.0;
    let mut folds = 0.0_f64;
    for fold in spans.iter().filter(|s| s.name == "mc.fold") {
        let workers = spans
            .iter()
            .filter(|s| s.name == "mc.worker" && s.parent == Some(fold.id))
            .count();
        capacity += fold.dur_ns() as f64 * 1e-9 * workers as f64;
        folds += 1.0;
    }
    let (busy, workers) = sum_named(&spans, "mc.worker");
    m.set("mc.threads", workers as f64 / folds.max(1.0));
    m.set(
        "mc.parallel_efficiency",
        if capacity > 0.0 { busy / capacity } else { 0.0 },
    );

    let tags = ancestor_tags(&spans, "circuit");
    for s in &spans {
        let Some(circuit) = tags.get(&s.id) else {
            continue;
        };
        let suffix = match s.name {
            "circuit" => "s",
            "logic.mapping_cover" => "cover_prep_s",
            "engine.hybrid_success" => "hba_s",
            "engine.exact_success" => "ea_s",
            _ => continue,
        };
        m.add(
            circuit_metric(circuit, suffix),
            s.dur_ns() as f64 * 1e-9 / passes,
        );
    }

    let (t, u) = (median(&traced), median(&untraced));
    m.set("trace.traced_samples_per_s", t);
    m.set("trace.untraced_samples_per_s", u);
    m.set("trace.overhead_ratio", t / u);
    Ok(())
}
