//! `oracle_mixed`: an `xbar serve` daemon at default settings, driven by
//! two closed-loop clients speaking `xbar-svc/1` with `wait: true`, one
//! connection per request (as `xbar submit` does).
//!
//! Each client sends a fixed number of requests whose mix is a pure
//! function of the seed: exactly one in twenty is a fresh small `table2`
//! campaign (a cold job that runs shard workers and writes the cache),
//! the rest repeat one of an eight-campaign working set primed during
//! set-up (cache reads). A fixed count, not a time window, keeps the
//! number of cold jobs — which dominate the run's time — equal across
//! seeds.
//!
//! Every hit must be byte-identical to its primed artifact, and every
//! cold artifact must equal an in-process `Experiment::run` of the same
//! parameters, computed after the timed region.

use crate::metrics::circuit_metric;
use crate::product::{children_peak_rss_mb, Ctx, SeedStream, PROCESS_LIMIT};
use crate::stats::{median, quantile, Summary};
use crate::trace::{write_csv, LocalTrace, Span, Tracer};
use crate::Outcome;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Stdio};
use std::time::{Duration, Instant};
use xbar_exp::service::Request;
use xbar_exp::shard::json::Json;
use xbar_exp::{find_experiment, Params, Reporter};
use xbar_logic::bench_reg::find;

/// Campaigns the working set repeats.
pub const WORKING_SET: usize = 8;
/// Concurrent clients (the machine's core count).
pub const CLIENTS: usize = 2;
/// Requests per client per second of configured run length.
pub const OPS_PER_CLIENT_PER_SECOND: usize = 100;
/// One request in this many is a cold job.
pub const COLD_EVERY: usize = 20;
/// The small circuits every campaign of this workload maps.
const CIRCUITS: [&str; 5] = ["rd53", "squar5", "bw", "inc", "misex1"];
const CAMPAIGN_SAMPLES: usize = 50;
const SETUP_RUNS: usize = 3;
const READ_TIMEOUT: Duration = Duration::from_secs(60);

fn submit_args(seed: u64) -> Vec<String> {
    [
        "--samples",
        &CAMPAIGN_SAMPLES.to_string(),
        "--seed",
        &seed.to_string(),
        "--circuits",
        &CIRCUITS.join(","),
    ]
    .map(str::to_owned)
    .to_vec()
}

/// The artifact `xbar run table2` renders for a workload campaign.
fn reference(seed: u64) -> Result<String, String> {
    let exp = find_experiment("table2").ok_or("table2 is not registered")?;
    let params = Params::parse(exp.extra_params(), submit_args(seed)).map_err(|e| e.to_string())?;
    let artifact = exp
        .run(&params, &mut Reporter::quiet())
        .map_err(|e| e.to_string())?;
    Ok(artifact.render(exp, &params))
}

/// A running daemon; stopped (and reaped) on drop if not shut down.
struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(ctx: &Ctx, work_dir: &std::path::Path) -> Result<Self, String> {
        let args = [
            "serve".to_owned(),
            "--listen".to_owned(),
            "127.0.0.1:0".to_owned(),
            "--work-dir".to_owned(),
            work_dir.display().to_string(),
        ];
        let mut child = ctx
            .xbar(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
        let mut daemon = Self {
            child: Some(child),
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            _stdout: stdout,
        };
        if addr.is_none() {
            daemon.kill();
            return Err(format!("daemon did not report its address: {line:?}"));
        }
        Ok(daemon)
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = (|| {
            let mut conn = Conn::open(self.addr)?;
            conn.send(&Request::Shutdown)?;
            conn.line()
        })();
        let deadline = Instant::now() + PROCESS_LIMIT;
        let mut child = self.child.take().expect("daemon not yet reaped");
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return reply.map(drop),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain in time".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One client connection speaking `xbar-svc/1`.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        let line = format!("{}\n", request.render());
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Json::parse(&line).map_err(|e| format!("bad reply {line:?}: {e}")),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// The client-side view of one submit.
struct Reply {
    /// Before connecting.
    start: Instant,
    /// When the `submitted` line arrived.
    submitted: Instant,
    /// When the `result` line arrived.
    finished: Instant,
    cache: String,
    job: u64,
    artifact: String,
    conn: Conn,
}

fn submit(addr: SocketAddr, seed: u64) -> Result<Reply, String> {
    let start = Instant::now();
    let mut conn = Conn::open(addr)?;
    conn.send(&Request::Submit {
        experiment: "table2".to_owned(),
        args: submit_args(seed),
        wait: true,
    })?;
    let mut submitted = None;
    loop {
        let doc = conn.line()?;
        let kind = doc.get("type").and_then(Json::as_str).unwrap_or("");
        match kind {
            "submitted" => submitted = Some(Instant::now()),
            "progress" => {}
            "result" => {
                return Ok(Reply {
                    start,
                    submitted: submitted.ok_or("result before submitted")?,
                    finished: Instant::now(),
                    cache: doc
                        .get("cache")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    job: doc.get("job").and_then(Json::as_u64).unwrap_or(0),
                    artifact: doc
                        .get("artifact")
                        .and_then(Json::as_str)
                        .ok_or("result without artifact")?
                        .to_owned(),
                    conn,
                });
            }
            "error" => {
                let msg = doc.get("message").and_then(Json::as_str).unwrap_or("?");
                return Err(format!("seed {seed}: daemon error: {msg}"));
            }
            other => return Err(format!("seed {seed}: unexpected reply type {other:?}")),
        }
    }
}

/// The job's own run time from a `status` reply on the same connection.
fn job_exec_ms(reply: &mut Reply) -> Result<f64, String> {
    reply.conn.send(&Request::Status { job: reply.job })?;
    let doc = reply.conn.line()?;
    doc.get("elapsed_ms")
        .and_then(Json::as_u64)
        .map(|ms| ms as f64)
        .ok_or_else(|| "status without elapsed_ms".into())
}

fn stats(addr: SocketAddr) -> Result<Json, String> {
    let mut conn = Conn::open(addr)?;
    conn.send(&Request::Stats)?;
    conn.line()
}

/// A planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Repeat working-set campaign `i`.
    Hit(usize),
    /// A fresh campaign with this seed.
    Cold(u64),
}

/// Working-set seeds and each client's request sequence for a run of
/// `seconds` seconds: a pure function of `seed`, with exactly one cold
/// job per [`COLD_EVERY`] requests.
#[must_use]
pub fn plan(seed: u64, seconds: f64) -> (Vec<u64>, Vec<Vec<Op>>) {
    let mut seeds = SeedStream::new(seed, 3);
    let working: Vec<u64> = (0..WORKING_SET).map(|_| seeds.product_seed()).collect();
    let ops = (OPS_PER_CLIENT_PER_SECOND as f64 * seconds)
        .round()
        .max(COLD_EVERY as f64) as usize;
    let clients = (0..CLIENTS)
        .map(|_| {
            let mut plan: Vec<Op> = (0..ops)
                .map(|_| Op::Hit(seeds.below(WORKING_SET as u64) as usize))
                .collect();
            let mut slots: Vec<usize> = (0..ops).collect();
            for i in 0..ops / COLD_EVERY {
                let j = i + seeds.below((ops - i) as u64) as usize;
                slots.swap(i, j);
                let mut cold = seeds.product_seed();
                while working.contains(&cold) {
                    cold = seeds.product_seed();
                }
                plan[slots[i]] = Op::Cold(cold);
            }
            plan
        })
        .collect();
    (working, clients)
}

/// Starts a daemon on a fresh state directory and primes the working
/// set: `(daemon, primed artifacts, seconds)`.
fn set_up(
    ctx: &Ctx,
    working: &[u64],
    out: &mut Outcome,
) -> Result<(Daemon, Vec<String>, f64), String> {
    let t0 = Instant::now();
    let dir = ctx.fresh_dir("svc")?;
    let daemon = Daemon::start(ctx, &dir)?;
    let mut primed = Vec::new();
    for &seed in working {
        let reply = out.op(submit(daemon.addr, seed)).ok_or("priming failed")?;
        if reply.cache != "miss" {
            out.check(Err(format!(
                "priming seed {seed} answered {:?}, want miss",
                reply.cache
            )));
        }
        primed.push(reply.artifact);
    }
    Ok((daemon, primed, t0.elapsed().as_secs_f64()))
}

/// One completed request.
struct Done {
    op: Op,
    /// Connect until the `submitted` line, ms.
    submitted_ms: f64,
    /// Connect until the `result` line, ms.
    latency_ms: f64,
    cache: String,
    artifact: String,
    exec_ms: Option<f64>,
}

/// Runs one client's plan. With a trace, records a span per request and
/// its two phases, and asks the daemon for each cold job's run time.
fn client(
    addr: SocketAddr,
    working: &[u64],
    plan: &[Op],
    mut trace: Option<(&Tracer, LocalTrace<'_>, u64)>,
) -> (Vec<Done>, Vec<String>) {
    let mut done = Vec::with_capacity(plan.len());
    let mut errors = Vec::new();
    for (i, &op) in plan.iter().enumerate() {
        let seed = match op {
            Op::Hit(k) => working[k],
            Op::Cold(s) => s,
        };
        let mut reply = match submit(addr, seed) {
            Ok(reply) => reply,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        let mut exec_ms = None;
        if let Some((tracer, local, id_base)) = &mut trace {
            let request = *id_base + i as u64;
            let root = tracer.alloc_id();
            let span = |id, parent, name, from, to| Span {
                id,
                parent,
                request,
                thread: 0,
                name,
                tag: None,
                start_ns: tracer.ns_of(from),
                end_ns: tracer.ns_of(to),
            };
            local.record(span(
                root,
                None,
                "service.request",
                reply.start,
                reply.finished,
            ));
            let phases = [
                ("service.submitted", reply.start, reply.submitted),
                ("service.result", reply.submitted, reply.finished),
            ];
            for (name, from, to) in phases {
                local.record(span(tracer.alloc_id(), Some(root), name, from, to));
            }
            if let Op::Cold(_) = op {
                match job_exec_ms(&mut reply) {
                    Ok(ms) => exec_ms = Some(ms),
                    Err(e) => errors.push(e),
                }
            }
        }
        let ms = |t: Instant| t.duration_since(reply.start).as_secs_f64() * 1e3;
        done.push(Done {
            op,
            submitted_ms: ms(reply.submitted),
            latency_ms: ms(reply.finished),
            cache: reply.cache,
            artifact: reply.artifact,
            exec_ms,
        });
    }
    (done, errors)
}

/// Runs the workload; `traced` adds spans, `status` probes for cold jobs
/// and the per-layer metrics.
///
/// # Errors
///
/// Reports a daemon that cannot be started or primed.
pub fn run(ctx: &Ctx, out: &mut Outcome, traced: bool) -> Result<(), String> {
    let (working, plans) = plan(ctx.seed, ctx.seconds);
    let tracer = Tracer::new();
    let mut setup = Vec::new();
    let mut live = None;
    let setups = if traced { 1 } else { SETUP_RUNS };
    for i in 0..setups {
        let (daemon, primed, secs) = set_up(ctx, &working, out)?;
        setup.push(secs);
        if i + 1 < setups {
            out.op(daemon.shutdown());
        } else {
            live = Some((daemon, primed));
        }
    }
    let (daemon, primed) = live.expect("at least one set-up");

    let t0 = Instant::now();
    let results: Vec<(Vec<Done>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let (working, addr) = (&working, daemon.addr);
                let trace = traced.then(|| (&tracer, tracer.local(), (c as u64 + 1) << 32));
                scope.spawn(move || client(addr, working, plan, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let daemon_stats = out.op(stats(daemon.addr));
    out.op(daemon.shutdown());

    let mut done = Vec::new();
    for (d, errors) in results {
        done.extend(d);
        for e in errors {
            out.op::<()>(Err(e));
        }
    }
    out.attempted += done.len() as u64;
    let mut references = BTreeMap::new();
    for d in &done {
        let verdict = match d.op {
            Op::Hit(k) if d.cache != "hit" => {
                Err(format!("repeat of working-set {k} answered {:?}", d.cache))
            }
            Op::Hit(k) if d.artifact != primed[k] => Err(format!(
                "hit on working-set {k} differs from its cold artifact"
            )),
            Op::Hit(_) => Ok(()),
            Op::Cold(seed) if d.cache != "miss" => {
                Err(format!("fresh seed {seed} answered {:?}", d.cache))
            }
            Op::Cold(seed) => match references.entry(seed).or_insert_with(|| reference(seed)) {
                Ok(want) if *want == d.artifact => Ok(()),
                Ok(_) => Err(format!(
                    "cold seed {seed}: artifact differs from Experiment::run"
                )),
                Err(e) => Err(e.clone()),
            },
        };
        out.check(verdict);
    }
    for (k, (&seed, artifact)) in working.iter().zip(&primed).enumerate() {
        out.check(match reference(seed) {
            Ok(want) if want == *artifact => Ok(()),
            Ok(_) => Err(format!(
                "primed working-set {k} differs from Experiment::run"
            )),
            Err(e) => Err(e),
        });
    }
    let latencies = |cold: bool| -> Vec<f64> {
        done.iter()
            .filter(|d| matches!(d.op, Op::Cold(_)) == cold)
            .map(|d| d.latency_ms)
            .collect()
    };
    let (hit_ms, cold_ms) = (latencies(false), latencies(true));
    let all_ms: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    if hit_ms.is_empty() || cold_ms.is_empty() {
        return Err("no cache hit or no cold request completed".into());
    }
    for (label, values) in [("hit", &hit_ms), ("cold", &cold_ms), ("all", &all_ms)] {
        if let Some(s) = Summary::of(values) {
            out.note(format!("{label} ms: {s}"));
        }
    }
    let cold_samples = (cold_ms.len() * CIRCUITS.len() * CAMPAIGN_SAMPLES) as f64;

    if !traced {
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup));
        m.set("samples_per_s", cold_samples / wall);
        m.set("requests_per_s", done.len() as f64 / wall);
        m.set("latency_ms_p50", median(&all_ms));
        m.set("cold_ms_p50", median(&cold_ms));
        m.set("peak_rss_mb", children_peak_rss_mb());
        return Ok(());
    }

    // Cover preparation the cold jobs' shard workers repay, prepared here
    // once with the same inputs.
    let mut local = tracer.local();
    let cold_seed = done.iter().find_map(|d| match d.op {
        Op::Cold(s) => Some(s),
        Op::Hit(_) => None,
    });
    let prep_root = local.open("logic.campaign_covers", None, None, 0);
    for name in CIRCUITS {
        let info = find(name).map_err(|e| e.to_string())?;
        let s = local.open(
            "logic.mapping_cover",
            Some(info.name),
            Some(prep_root.id),
            0,
        );
        std::hint::black_box(info.mapping_cover(cold_seed.unwrap_or_default()));
        let secs = local.close(s);
        out.metrics
            .set(circuit_metric(info.name, "cover_prep_s"), secs);
    }
    let prep = local.close(prep_root);
    drop(local);
    let spans = tracer.take();
    if let Err(e) = write_csv(&ctx.trace_file, &spans) {
        out.note(format!("cannot write spans: {e}"));
    }

    let m = &mut out.metrics;
    m.set("logic.cover_prep_s", prep);
    let hits = done.iter().filter(|d| matches!(d.op, Op::Hit(_)));
    let submitted: Vec<f64> = hits.clone().map(|d| d.submitted_ms).collect();
    let result: Vec<f64> = hits.map(|d| d.latency_ms - d.submitted_ms).collect();
    let mut sorted = hit_ms;
    sorted.sort_by(f64::total_cmp);
    m.set("service.hit_submitted_ms_p50", median(&submitted));
    m.set("service.hit_result_ms_p50", median(&result));
    m.set("service.hit_ms_p99", quantile(&sorted, 0.99));
    let exec: Vec<(f64, f64)> = done
        .iter()
        .filter_map(|d| d.exec_ms.map(|e| (e, d.latency_ms - e)))
        .collect();
    if !exec.is_empty() {
        m.set(
            "service.cold_exec_ms_p50",
            median(&exec.iter().map(|e| e.0).collect::<Vec<_>>()),
        );
        m.set(
            "service.cold_wait_ms_p50",
            median(&exec.iter().map(|e| e.1).collect::<Vec<_>>()),
        );
    }
    m.set("service.cold_submits", cold_ms.len() as f64);
    if let Some(s) = daemon_stats {
        let num = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        m.set("service.hits", num("cache_hits"));
        m.set("service.submits", num("submitted"));
        m.set(
            "service.cache_hit_ratio",
            num("cache_hits") / num("submitted").max(1.0),
        );
        m.set("service.coalesced", num("coalesced"));
        m.set("service.shard_spawned", num("shard_spawned"));
        m.set("service.max_running_observed", num("max_running_observed"));
    }
    Ok(())
}
