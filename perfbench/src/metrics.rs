//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` declares the same names; a test keeps the two in
//! step. Every run emits every metric of its mode: the end-to-end set
//! untraced, the per-layer set traced. A per-layer metric whose layer the
//! workload does not call reads 0.

use std::collections::BTreeMap;
use xbar_exp::experiments::table2::table2_circuit_names;
use xbar_exp::shard::json::JsonValue;

/// `(name, unit, better)` of one declared metric.
pub type Declared = (String, &'static str, &'static str);

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("cold_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Layer-wide per-layer metrics (the per-circuit ones follow from the
/// Table II circuit list).
const LAYER: [(&str, &str, &str); 45] = [
    ("logic.cover_prep_s", "s", "lower"),
    ("sampler.resample_s", "s", "lower"),
    ("sampler.resample_calls", "count", "lower"),
    ("engine.prepare_fm_s", "s", "lower"),
    ("engine.hba_s", "s", "lower"),
    ("engine.ea_s", "s", "lower"),
    ("engine.hba_calls", "count", "lower"),
    ("engine.ea_calls", "count", "lower"),
    ("engine.hba_successes", "count", "higher"),
    ("engine.ea_successes", "count", "higher"),
    ("engine.compat_checks", "count", "lower"),
    ("engine.backtracks", "count", "lower"),
    ("mc.fold_s", "s", "lower"),
    ("mc.busy_s", "s", "lower"),
    ("mc.threads", "count", "higher"),
    ("mc.parallel_efficiency", "ratio", "higher"),
    ("artifact.render_s", "s", "lower"),
    ("shard.campaign_s", "s", "lower"),
    ("shard.spawned", "count", "lower"),
    ("shard.retries", "count", "lower"),
    ("shard.timeouts", "count", "lower"),
    ("launch.campaign_s", "s", "lower"),
    ("launch.flights", "count", "lower"),
    ("launch.flight_s_p50", "s", "lower"),
    ("launch.flight_busy_s", "s", "lower"),
    ("launch.slot_idle_s", "s", "lower"),
    ("launch.first_dispatch_s", "s", "lower"),
    ("launch.merge_tail_s", "s", "lower"),
    ("launch.stream_bytes", "bytes", "lower"),
    ("launch.failed_flights", "count", "lower"),
    ("service.hit_submitted_ms_p50", "ms", "lower"),
    ("service.hit_result_ms_p50", "ms", "lower"),
    ("service.hit_ms_p99", "ms", "lower"),
    ("service.hits", "count", "higher"),
    ("service.cold_exec_ms_p50", "ms", "lower"),
    ("service.cold_wait_ms_p50", "ms", "lower"),
    ("service.cold_submits", "count", "higher"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.submits", "count", "higher"),
    ("service.coalesced", "count", "higher"),
    ("service.shard_spawned", "count", "lower"),
    ("service.max_running_observed", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.traced_samples_per_s", "1/s", "higher"),
    ("trace.untraced_samples_per_s", "1/s", "higher"),
];

/// Per-circuit metric suffixes.
const PER_CIRCUIT: [(&str, &str, &str); 4] = [
    ("cover_prep_s", "s", "lower"),
    ("s", "s", "lower"),
    ("hba_s", "s", "lower"),
    ("ea_s", "s", "lower"),
];

/// The per-circuit metric name.
#[must_use]
pub fn circuit_metric(circuit: &str, suffix: &str) -> String {
    format!("circuit.{circuit}.{suffix}")
}

/// Every declared metric of a mode, in declaration order.
#[must_use]
pub fn declared(traced: bool) -> Vec<Declared> {
    if !traced {
        return END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_owned(), u, b))
            .collect();
    }
    let mut out: Vec<Declared> = LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u, b))
        .collect();
    for circuit in table2_circuit_names() {
        for (suffix, unit, better) in PER_CIRCUIT {
            out.push((circuit_metric(&circuit, suffix), unit, better));
        }
    }
    out
}

/// Metric values collected by a workload.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Sets a value; a later set of the same name overwrites it.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds to a value (starting from 0).
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.values.entry(name.into()).or_insert(0.0) += value;
    }

    /// Orders the values by the declared list of the mode. Per-layer
    /// metrics the workload did not touch read 0; a missing end-to-end
    /// metric, an undeclared name or a non-finite value is an error.
    ///
    /// # Errors
    ///
    /// Names the offending metric.
    pub fn finish(mut self, traced: bool) -> Result<Vec<(String, &'static str, f64)>, String> {
        let mut out = Vec::new();
        for (name, unit, _) in declared(traced) {
            let value = match self.values.remove(&name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            out.push((name, unit, value));
        }
        match self.values.keys().next() {
            Some(extra) => Err(format!("metric {extra} is not declared for this mode")),
            None => Ok(out),
        }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, &'static str, f64)]) -> String {
    JsonValue::obj([
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::u64(attempted)),
        ("failed", JsonValue::u64(failed)),
        (
            "metrics",
            JsonValue::obj(metrics.iter().map(|(name, unit, value)| {
                (
                    name.clone(),
                    JsonValue::obj([
                        ("value", JsonValue::f64(*value)),
                        ("unit", JsonValue::str(*unit)),
                    ]),
                )
            })),
        ),
    ])
    .render_compact()
}
