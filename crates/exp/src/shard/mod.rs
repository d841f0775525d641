//! Process-sharded Monte Carlo: split a sample range across worker
//! processes (or hosts) without changing a single statistic.
//!
//! Per-sample seeds depend only on `(experiment_seed, sample_index)`
//! ([`crate::sample_seed`]), so a contiguous slice of the sample range can
//! be reproduced by any process that knows the experiment configuration
//! and its [`ShardSpec`]. Each worker folds its slice into the mergeable
//! accumulators of [`xbar_core::stats`] and writes a self-describing
//! partial-result file ([`partial::ShardPartial`], hand-rolled JSON via
//! [`json`]); the [`coordinator`] is a fault-tolerant campaign runner —
//! bounded event-driven scheduling, watchdog timeouts for hung workers,
//! per-shard deterministic backoff retry, and checkpoint/resume over a
//! per-campaign run directory — that merges partials into output
//! **byte-identical** to a monolithic run for every integer-derived
//! statistic, whatever failures occurred along the way.
//!
//! Reproducibility contract (also documented in the README):
//!
//! * sample `i` is simulated from `sample_seed(mc_seed, i)` regardless of
//!   which process runs it;
//! * success counters are integers, so any shard layout merges to the
//!   exact monolithic counts and the stats artifact compares equal byte
//!   for byte across layouts;
//! * runtime moments (Welford) merge deterministically for a fixed layout
//!   but are wall-clock measurements, so they stay out of byte-compared
//!   artifacts.

pub mod cli;
pub mod coordinator;
pub mod json;
pub mod partial;

use crate::cli::ExpArgs;
use crate::experiments::table2::{run_circuit_range, table2_circuit_names, CircuitAccum};
use std::ops::Range;
use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};
use xbar_logic::bench_reg::find;

/// One contiguous slice of a Monte Carlo sample range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index in `0..num_shards`.
    pub index: usize,
    /// Total shard count of the partition this spec belongs to.
    pub num_shards: usize,
    /// First global sample index (inclusive).
    pub start: usize,
    /// Past-the-end global sample index.
    pub end: usize,
}

impl ShardSpec {
    /// Splits `0..samples` into `num_shards` contiguous shards; the first
    /// `samples % num_shards` shards carry one extra sample (the same
    /// chunking rule [`crate::monte_carlo`] uses for threads).
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`.
    #[must_use]
    pub fn partition(samples: usize, num_shards: usize) -> Vec<ShardSpec> {
        assert!(num_shards > 0, "need at least one shard");
        let base = samples / num_shards;
        let extra = samples % num_shards;
        (0..num_shards)
            .map(|index| {
                let start = index * base + index.min(extra);
                let end = start + base + usize::from(index < extra);
                ShardSpec {
                    index,
                    num_shards,
                    start,
                    end,
                }
            })
            .collect()
    }

    /// The global sample range this shard owns.
    #[must_use]
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Samples in this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the shard owns no samples (more shards than samples).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The experiment configuration every shard of a campaign must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Total Monte Carlo samples across all shards.
    pub samples: usize,
    /// Experiment seed (Table II derives its MC stream seed from this).
    pub seed: u64,
    /// Per-crosspoint stuck-open defect probability.
    pub defect_rate: f64,
    /// Defect sampling stream version. Every shard of a campaign must
    /// sample under the same stream or the merged statistics would mix
    /// two different defect distributions; the coordinator rejects
    /// partials whose echoed stream disagrees with the campaign spec.
    pub stream: SampleStream,
    /// Spatial defect model. Campaign identity exactly like `stream`: every
    /// shard must sample under the same model (and model parameters) or the
    /// merged statistics would mix defect distributions; the coordinator
    /// rejects partials whose echoed model disagrees with the campaign spec.
    pub model: DefectModelSpec,
    /// Registry circuits to simulate, in output order.
    pub circuits: Vec<String>,
}

impl McConfig {
    /// Configuration with the default Table II circuit set (V1 stream).
    #[must_use]
    pub fn with_default_circuits(samples: usize, seed: u64, defect_rate: f64) -> Self {
        Self {
            samples,
            seed,
            defect_rate,
            stream: SampleStream::V1,
            model: DefectModelSpec::default(),
            circuits: table2_circuit_names(),
        }
    }

    /// Checks every circuit name against the benchmark registry.
    ///
    /// # Errors
    ///
    /// Names the first unknown circuit.
    pub fn validate(&self) -> Result<(), String> {
        for name in &self.circuits {
            if find(name).is_err() {
                return Err(format!("unknown circuit {name:?} (not in the registry)"));
            }
        }
        if self.circuits.is_empty() {
            return Err("no circuits selected".to_owned());
        }
        Ok(())
    }

    /// The equivalent single-process experiment arguments.
    #[must_use]
    pub fn exp_args(&self) -> ExpArgs {
        ExpArgs {
            samples: self.samples,
            seed: self.seed,
            defect_rate: self.defect_rate,
            stream: self.stream,
            model: self.model,
            csv: None,
        }
    }
}

/// Campaign-level CLI flags shared by `mc shard`, `mc coordinate` and
/// `mc launch`, so they cannot drift apart on how a campaign is described.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignFlags {
    /// Total Monte Carlo samples (`--samples`, default 200).
    pub samples: usize,
    /// Experiment seed (`--seed`, default 2018).
    pub seed: u64,
    /// Stuck-open probability (`--defect-rate`, default 0.10).
    pub defect_rate: f64,
    /// Defect sampling stream (`--rng-stream`, default `v1`).
    pub stream: SampleStream,
    /// Spatial defect model kind (`--defect-model`, default `iid`).
    pub model_kind: DefectModelKind,
    /// Mean defect cluster size (`--cluster-size`, default 4).
    pub cluster_size: f64,
    /// Broken-line probability (`--line-rate`, default 0.02).
    pub line_rate: f64,
    /// Explicit circuit list (`--circuits`); `None` = the Table II set.
    pub circuits: Option<Vec<String>>,
}

impl Default for CampaignFlags {
    fn default() -> Self {
        Self {
            samples: 200,
            seed: 2018,
            defect_rate: 0.10,
            stream: SampleStream::V1,
            model_kind: DefectModelKind::Iid,
            cluster_size: DefectModelSpec::DEFAULT_CLUSTER_SIZE,
            line_rate: DefectModelSpec::DEFAULT_LINE_RATE,
            circuits: None,
        }
    }
}

/// The usage lines for the flags [`CampaignFlags::consume`] accepts.
pub const CAMPAIGN_FLAGS_USAGE: &str =
    "  --samples N        total campaign samples (default 200)\n  \
--seed N           experiment seed (default 2018)\n  \
--defect-rate F    stuck-open probability (default 0.10)\n  \
--rng-stream v1|v2 defect sampling stream (default v1)\n  \
--defect-model M   iid|clustered|lines|composite (default iid)\n  \
--cluster-size F   mean defect cluster size, >= 1 (default 4)\n  \
--line-rate F      broken-line probability in [0, 1] (default 0.02)\n  \
--circuits a,b     registry circuits (default: the Table II set)";

impl CampaignFlags {
    /// Tries to consume one campaign flag (plus its value from `it`);
    /// `Ok(false)` when `flag` is not a campaign flag.
    ///
    /// # Errors
    ///
    /// Reports a missing or malformed value (the CLI prints it with usage
    /// text and exits with code 2 — never a panic/backtrace).
    pub fn consume(
        &mut self,
        flag: &str,
        it: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        let value = |it: &mut dyn Iterator<Item = String>| cli::flag_value(flag, it);
        let float = |it: &mut dyn Iterator<Item = String>| -> Result<f64, String> {
            let text = value(it)?;
            text.parse()
                .map_err(|_| format!("{flag}: expected a float, got {text:?}"))
        };
        match flag {
            "--samples" => self.samples = cli::flag_num(flag, &value(it)?)?,
            "--seed" => self.seed = cli::flag_num(flag, &value(it)?)?,
            "--defect-rate" => {
                let rate = float(it)?;
                if !rate.is_finite() {
                    return Err(format!("{flag} must be finite"));
                }
                self.defect_rate = rate;
            }
            "--rng-stream" => self.stream = SampleStream::parse(&value(it)?)?,
            "--defect-model" => self.model_kind = DefectModelKind::parse(&value(it)?)?,
            "--cluster-size" => {
                let size = float(it)?;
                if !size.is_finite() || size < 1.0 {
                    return Err(format!("{flag} must be at least 1"));
                }
                self.cluster_size = size;
            }
            "--line-rate" => {
                let rate = float(it)?;
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err(format!("{flag} must be a probability in [0, 1]"));
                }
                self.line_rate = rate;
            }
            "--circuits" => {
                self.circuits = Some(value(it)?.split(',').map(str::to_owned).collect());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves into a campaign configuration (defaulting the circuit
    /// list to the Table II set).
    #[must_use]
    pub fn into_config(self) -> McConfig {
        let model = DefectModelSpec::new(self.model_kind, self.cluster_size, self.line_rate)
            .expect("consume() range-checked the model parameters");
        McConfig {
            samples: self.samples,
            seed: self.seed,
            defect_rate: self.defect_rate,
            stream: self.stream,
            model,
            circuits: self.circuits.unwrap_or_else(table2_circuit_names),
        }
    }
}

/// Runs one shard of the Table II workload in-process: folds the shard's
/// sample slice for every configured circuit.
///
/// # Panics
///
/// Panics when a circuit name is not registered (call
/// [`McConfig::validate`] first at process boundaries).
#[must_use]
pub fn run_shard(config: &McConfig, spec: &ShardSpec) -> partial::ShardPartial {
    let args = config.exp_args();
    let circuits = config
        .circuits
        .iter()
        .map(|name| {
            let info = find(name).expect("validated circuit name");
            (name.clone(), run_circuit_range(info, &args, spec.range()))
        })
        .collect::<Vec<(String, CircuitAccum)>>();
    partial::ShardPartial {
        config: config.clone(),
        spec: *spec,
        circuits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_the_range_exactly() {
        for (samples, shards) in [(0, 1), (0, 3), (1, 1), (10, 3), (10, 7), (10, 10), (3, 7)] {
            let parts = ShardSpec::partition(samples, shards);
            assert_eq!(parts.len(), shards);
            assert_eq!(parts[0].start, 0);
            for pair in parts.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "{samples}/{shards}");
            }
            assert_eq!(parts.last().unwrap().end, samples);
            let lens: Vec<usize> = parts.iter().map(ShardSpec::len).collect();
            let max = lens.iter().max().unwrap();
            let min = lens.iter().min().unwrap();
            assert!(max - min <= 1, "balanced: {lens:?}");
        }
    }

    #[test]
    fn partition_matches_monte_carlo_thread_chunking_shape() {
        // 101 samples, 4 shards: first 101 % 4 = 1 shard gets the extra.
        let parts = ShardSpec::partition(101, 4);
        assert_eq!(
            parts.iter().map(ShardSpec::len).collect::<Vec<_>>(),
            [26, 25, 25, 25]
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardSpec::partition(10, 0);
    }

    #[test]
    fn more_shards_than_samples_yields_empty_tails() {
        let parts = ShardSpec::partition(2, 5);
        assert_eq!(parts.iter().filter(|s| !s.is_empty()).count(), 2);
        assert_eq!(parts.iter().map(ShardSpec::len).sum::<usize>(), 2);
    }

    #[test]
    fn campaign_flags_consume_shared_flags_and_resolve_defaults() {
        let mut flags = CampaignFlags::default();
        let words = [
            "--samples",
            "50",
            "--seed",
            "9",
            "--defect-rate",
            "0.25",
            "--circuits",
            "rd53,bw",
        ];
        let mut it = words.iter().map(|s| (*s).to_owned());
        while let Some(flag) = it.next() {
            assert_eq!(
                flags.consume(&flag, &mut it),
                Ok(true),
                "{flag} must be consumed"
            );
        }
        let mut other = ["--shards".to_owned()].into_iter();
        assert_eq!(
            flags.consume("--shards", &mut other),
            Ok(false),
            "non-campaign flags are left for the caller"
        );
        let mut empty = std::iter::empty();
        let err = flags
            .consume("--samples", &mut empty)
            .expect_err("missing value is an error, not a panic");
        assert!(err.contains("needs a value"), "{err}");
        let mut bad = ["many".to_owned()].into_iter();
        let err = flags.consume("--samples", &mut bad).expect_err("must fail");
        assert!(err.contains("expected a number"), "{err}");
        let config = flags.into_config();
        assert_eq!(config.samples, 50);
        assert_eq!(config.seed, 9);
        assert_eq!(config.circuits, ["rd53", "bw"]);

        let defaulted = CampaignFlags::default().into_config();
        assert_eq!(defaulted.circuits, table2_circuit_names());
    }

    #[test]
    fn config_validation_names_the_bad_circuit() {
        let mut config = McConfig::with_default_circuits(10, 1, 0.1);
        assert!(config.validate().is_ok());
        config.circuits.push("no-such-circuit".to_owned());
        let err = config.validate().expect_err("must fail");
        assert!(err.contains("no-such-circuit"), "{err}");
    }
}
