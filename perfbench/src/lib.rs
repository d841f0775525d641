//! End-to-end and per-layer benchmark of the `xbar` product.
//!
//! Three seeded workloads drive the product the way users do — the
//! `xbar` binary and its `xbar-svc/1` daemon — and check every output.
//! A separate traced run records spans around the benchmark's own calls
//! into each layer's public functions. See `README.md` for the metric
//! catalogue and how to run it.

pub mod campaign;
pub mod metrics;
pub mod oracle;
pub mod product;
pub mod stats;
pub mod table2_full;
pub mod timing;
pub mod trace;

use metrics::Metrics;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table2_full", "campaign_sharded", "oracle_mixed"];

/// What one run did: operations attempted and failed, metric values and
/// human-readable notes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Product operations (and traced passes) attempted.
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation; a failure is counted and noted.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.notes.push(format!("FAILED: {e}"));
                None
            }
        }
    }

    /// Records the verdict of checking an operation already counted by
    /// [`Outcome::op`]: a mismatch makes that operation failed.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.failed += 1;
            self.notes.push(format!("MISMATCH: {e}"));
        }
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}
