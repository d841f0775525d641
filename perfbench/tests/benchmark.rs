//! Tests of the benchmark's own machinery: the percentile rule, span
//! self-time arithmetic, the timing transport, the request plan, and the
//! metric catalogue against `BENCHMARK.json`.

use perfbench::metrics::{declared, Metrics};
use perfbench::oracle::{plan, Op, CLIENTS, COLD_EVERY, OPS_PER_CLIENT_PER_SECOND};
use perfbench::stats::{quantile, tail_per_mille, Summary};
use perfbench::timing::TimingTransport;
use perfbench::trace::{covered_ns, self_times, Span, Tracer};
use perfbench::WORKLOADS;
use std::path::PathBuf;
use xbar_exp::launch::pool::{DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
use xbar_exp::launch::{
    parse_hosts, run_launch_with_report, Flight, LaunchConfig, Transport, WorkerJob,
};
use xbar_exp::shard::coordinator::{render_stats_json, run_monolithic, Worker, DEFAULT_RETRY_BASE};
use xbar_exp::shard::json::Json;
use xbar_exp::shard::run_shard;
use xbar_exp::{McConfig, ShardSpec};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(tail_per_mille(10_000), Some(999));
    assert_eq!(tail_per_mille(9_999), Some(990));
    assert_eq!(tail_per_mille(1_000), Some(990));
    assert_eq!(tail_per_mille(999), Some(950));
    assert_eq!(tail_per_mille(200), Some(950));
    assert_eq!(tail_per_mille(100), Some(900));
    assert_eq!(tail_per_mille(40), Some(750));
    assert_eq!(tail_per_mille(39), None);
    assert_eq!(tail_per_mille(0), None);
}

#[test]
fn summary_reports_median_tail_and_count() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    let s = Summary::of(&values).expect("non-empty");
    assert_eq!(s.n, 1000);
    assert!((s.p50 - 500.5).abs() < 1e-9);
    let (pm, p99) = s.tail.expect("1000 samples carry a p99");
    assert_eq!(pm, 990);
    assert!((p99 - quantile(&values, 0.99)).abs() < 1e-9);
    assert_eq!(s.to_string(), "p50 500.500, p99 990.010 (n=1000)");
    let few = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
    assert_eq!(few.tail, None);
    assert_eq!(few.to_string(), "p50 2.000 (n=3)");
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn quantiles_interpolate_between_ranks() {
    let v = [1.0, 2.0, 3.0, 4.0];
    assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
    assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
    assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
}

#[test]
fn covered_time_is_the_union_of_child_intervals_clipped_to_the_parent() {
    assert_eq!(covered_ns(0, 100, &[]), 0);
    // Overlapping children count once; a child running past the parent's
    // end is clipped.
    assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 50), (90, 120)]), 50);
    // Two threads covering the whole parent in parallel: fully covered.
    assert_eq!(covered_ns(0, 100, &[(0, 100), (0, 100)]), 100);
    assert_eq!(covered_ns(50, 60, &[(0, 10), (70, 80)]), 0);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        request: 0,
        thread: 0,
        name: "x",
        tag: None,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_duration_minus_covered_children() {
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 40),
        span(2, Some(0), 30, 60),
        span(3, Some(1), 15, 20),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&0], 50, "children cover 10..60");
    assert_eq!(selfs[&1], 25, "grandchild 15..20 is only its parent's");
    assert_eq!(selfs[&2], 30);
    assert_eq!(selfs[&3], 5);
}

#[test]
fn local_traces_hand_their_spans_to_the_tracer_on_drop() {
    let tracer = Tracer::new();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut local = tracer.local();
                let outer = local.open("outer", None, None, 7);
                let inner = local.open("inner", Some("tag"), Some(outer.id), 7);
                local.close(inner);
                local.close(outer);
            });
        }
    });
    let spans = tracer.take();
    assert_eq!(spans.len(), 4);
    for inner in spans.iter().filter(|s| s.name == "inner") {
        let outer = spans
            .iter()
            .find(|s| Some(s.id) == inner.parent)
            .expect("parent recorded");
        assert_eq!(outer.thread, inner.thread);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.tag, Some("tag"));
        assert_eq!(inner.request, 7);
    }
}

/// A transport that computes each shard in-process and returns its
/// partial on the first poll.
struct InProcess(McConfig);

struct Ready(Option<Result<Vec<u8>, String>>);

impl Flight for Ready {
    fn poll(&mut self) -> Option<Result<Vec<u8>, String>> {
        self.0.take()
    }

    fn cancel(&mut self) {
        self.0 = None;
    }
}

impl Transport for InProcess {
    fn dispatch(&self, _host: &str, job: &WorkerJob) -> Result<Box<dyn Flight>, String> {
        let flag = |name: &str| -> usize {
            let at = job.args.iter().position(|a| a == name).expect("shard flag");
            job.args[at + 1].parse().expect("numeric shard flag")
        };
        let spec =
            ShardSpec::partition(self.0.samples, flag("--num-shards"))[flag("--shard-index")];
        let partial = run_shard(&self.0, &spec).to_json();
        Ok(Box::new(Ready(Some(Ok(partial.into_bytes())))))
    }
}

#[test]
fn timing_transport_logs_one_record_per_launcher_dispatch() {
    let config = McConfig {
        circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
        ..McConfig::with_default_circuits(24, 5, 0.10)
    };
    let work_dir: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "timing_transport"]
        .iter()
        .collect();
    let _ = std::fs::remove_dir_all(&work_dir);
    let launch = LaunchConfig {
        config: config.clone(),
        shards: 5,
        max_attempts: 3,
        worker: Worker::xbar(PathBuf::from("unused-by-this-transport")),
        work_dir,
        extra_worker_args: Vec::new(),
        keep_partials: false,
        shard_timeout: None,
        hedge_after: None,
        resume: false,
        retry_base: DEFAULT_RETRY_BASE,
        hosts: parse_hosts("alpha*2,beta").expect("valid fleet"),
        quarantine_after: DEFAULT_QUARANTINE_AFTER,
        probation: DEFAULT_PROBATION,
    };
    let transport = TimingTransport::new(InProcess(config.clone()));
    let (merged, report) = run_launch_with_report(&launch, &transport).expect("launch succeeds");
    let records = transport.records();
    assert_eq!(records.len(), report.base.spawned);
    assert_eq!(records.len(), 5);
    let dispatched: usize = report.hosts.iter().map(|h| h.dispatched).sum();
    assert_eq!(records.len(), dispatched);
    for r in &records {
        assert!(r.finished.is_some() && !r.failed && !r.cancelled, "{r:?}");
        assert!(r.bytes > 0 && r.seconds().expect("finished") >= 0.0);
    }
    assert_eq!(
        render_stats_json(&merged),
        render_stats_json(&run_monolithic(&config))
    );
}

#[test]
fn request_plan_is_a_pure_function_of_the_seed_with_exact_cold_share() {
    let (working, clients) = plan(42, 3.0);
    assert_eq!(plan(42, 3.0), (working.clone(), clients.clone()));
    assert_ne!(plan(43, 3.0).1, clients);
    assert_eq!(clients.len(), CLIENTS);
    let ops = 3 * OPS_PER_CLIENT_PER_SECOND;
    let mut cold_seeds = Vec::new();
    for ops_of_client in &clients {
        assert_eq!(ops_of_client.len(), ops);
        let cold: Vec<u64> = ops_of_client
            .iter()
            .filter_map(|op| match op {
                Op::Cold(seed) => Some(*seed),
                Op::Hit(k) => {
                    assert!(*k < working.len());
                    None
                }
            })
            .collect();
        assert_eq!(cold.len(), ops / COLD_EVERY);
        cold_seeds.extend(cold);
    }
    cold_seeds.sort_unstable();
    cold_seeds.dedup();
    assert_eq!(
        cold_seeds.len(),
        CLIENTS * ops / COLD_EVERY,
        "every cold job is fresh"
    );
    assert!(cold_seeds.iter().all(|s| !working.contains(s)));
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

#[test]
fn emitted_metric_names_match_benchmark_json() {
    let doc = benchmark_json();
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let want: Vec<(String, String, String)> = declared(traced)
            .into_iter()
            .map(|(n, u, b)| (n, u.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(listed(&doc, key), want, "{key}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn a_result_carries_exactly_the_declared_metrics() {
    let mut m = Metrics::default();
    for (name, ..) in declared(false) {
        m.set(name, 1.5);
    }
    let emitted = m.finish(false).expect("complete");
    assert_eq!(emitted.len(), declared(false).len());

    let mut missing = Metrics::default();
    missing.set("setup_s", 1.0);
    assert!(
        missing.finish(false).is_err(),
        "end-to-end metrics are all required"
    );

    let mut stray = Metrics::default();
    stray.set("engine.hba_s", 1.0);
    stray.set("not.declared", 1.0);
    assert!(stray.finish(true).is_err(), "undeclared names are rejected");

    let mut partial = Metrics::default();
    partial.set("engine.hba_s", 2.0);
    let layer = partial.finish(true).expect("untouched layers read 0");
    assert_eq!(layer.len(), declared(true).len());
    assert!(layer
        .iter()
        .all(|(n, _, v)| (*v == 2.0) == (n == "engine.hba_s")));
}
