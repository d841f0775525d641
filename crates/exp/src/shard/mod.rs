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
//!
//! A campaign ([`McConfig`]) has one vocabulary and one encoding. On the
//! command line it is `xbar run table2`'s flags, read by
//! `McConfig::from_params` and written for workers by
//! `McConfig::campaign_args`; in partials, the merged artifact and the
//! run-directory manifest it is the fields of
//! `McConfig::write_identity`, read back by `McConfig::read_identity`
//! and compared by `McConfig::mismatch`.

pub mod cli;
pub mod coordinator;
pub mod json;
pub mod partial;

use crate::cli::ExpArgs;
use crate::experiment::Params;
use crate::experiments::table2::{
    fold_circuits, resolve_circuit_subset, table2_circuit_names, CircuitAccum, CircuitJob,
};
use json::Json;
use std::fmt::Write as _;
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
    /// `samples % num_shards` shards carry one extra sample.
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

    /// The campaign `xbar run table2` would run with `params` — the one
    /// translation from flags to a campaign, used by every `xbar mc` verb
    /// and the service.
    ///
    /// # Errors
    ///
    /// Rejects a `--circuits` list that is not `all` or a Table II subset
    /// without repeats (the same message `xbar run table2` prints).
    ///
    /// # Panics
    ///
    /// Panics when `params` were not parsed against Table II's flags.
    pub(crate) fn from_params(params: &Params) -> Result<Self, String> {
        Ok(Self {
            samples: params.samples,
            seed: params.seed,
            defect_rate: params.defect_rate,
            stream: params.sample_stream(),
            model: params.defect_model(),
            circuits: resolve_circuit_subset(params.list("circuits")).map_err(|e| e.to_string())?,
        })
    }

    /// This campaign as `xbar run table2` flags — what every `xbar mc`
    /// worker is handed and parses back (the inverse of the crate's
    /// flags-to-campaign translation): floats in shortest-round-trip text,
    /// so they parse back to the exact bits, and model flags only for
    /// non-default models.
    #[must_use]
    pub fn campaign_args(&self) -> Vec<String> {
        let mut args = vec![
            "--samples".to_owned(),
            self.samples.to_string(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--defect-rate".to_owned(),
            format!("{:?}", self.defect_rate),
            "--rng-stream".to_owned(),
            self.stream.as_str().to_owned(),
        ];
        if !self.model.is_default() {
            args.push("--defect-model".to_owned());
            args.push(self.model.kind().as_str().to_owned());
            if self.model.uses_cluster() {
                args.push("--cluster-size".to_owned());
                args.push(format!("{:?}", self.model.cluster_size()));
            }
            if self.model.uses_lines() {
                args.push("--line-rate".to_owned());
                args.push(format!("{:?}", self.model.line_rate()));
            }
        }
        args.push("--circuits".to_owned());
        args.push(self.circuits.join(","));
        args
    }

    /// Checks the campaign by the rules its flags obey: a defect rate in
    /// `[0, 1]` and a non-empty list of Table II circuits without repeats.
    ///
    /// # Errors
    ///
    /// Names the first offending value.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.defect_rate) {
            return Err(format!(
                "defect rate {} is not a probability in [0, 1]",
                self.defect_rate
            ));
        }
        if self.circuits.is_empty() {
            return Err("no circuits selected".to_owned());
        }
        match resolve_circuit_subset(&self.circuits) {
            Ok(resolved) if resolved == self.circuits => Ok(()),
            Ok(_) => Err("circuit selector `all` must be resolved before running".to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Writes the identity fields every campaign document carries —
    /// shard partials, the merged stats artifact and the run-directory
    /// manifest — as `"key": value,` lines: `seed`, `defect_rate` and
    /// `samples` always, `rng_stream` and the defect-model fields only
    /// when non-default, so default campaigns keep the bytes they had
    /// before streams and models existed. Floats are written in
    /// shortest-round-trip form. [`McConfig::read_identity`] reads them
    /// back.
    pub(crate) fn write_identity(&self, out: &mut String) {
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"defect_rate\": {:?},", self.defect_rate);
        let _ = writeln!(out, "  \"samples\": {},", self.samples);
        if self.stream != SampleStream::V1 {
            let _ = writeln!(out, "  \"rng_stream\": \"{}\",", self.stream);
        }
        if !self.model.is_default() {
            let _ = writeln!(
                out,
                "  \"defect_model\": \"{}\",",
                self.model.kind().as_str()
            );
            if self.model.uses_cluster() {
                let _ = writeln!(out, "  \"cluster_size\": {:?},", self.model.cluster_size());
            }
            if self.model.uses_lines() {
                let _ = writeln!(out, "  \"line_rate\": {:?},", self.model.line_rate());
            }
        }
    }

    /// Reads the fields [`McConfig::write_identity`] writes out of a
    /// parsed document, with the document's own `circuits`. An absent
    /// `rng_stream` or model field means its default, which is also how
    /// documents from before streams and models existed read.
    ///
    /// # Errors
    ///
    /// Names a missing or mistyped field, or an unknown stream or model.
    pub(crate) fn read_identity(doc: &Json, circuits: Vec<String>) -> Result<Self, String> {
        let u64_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing u64 `{key}`"))
        };
        let str_or = |key: &str, default: &'static str| match doc.get(key) {
            None => Ok(default),
            Some(value) => value
                .as_str()
                .ok_or_else(|| format!("`{key}` is not a string")),
        };
        let f64_or = |key: &str, default: f64| match doc.get(key) {
            None => Ok(default),
            Some(value) => value
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number")),
        };
        Ok(Self {
            samples: usize::try_from(u64_field("samples")?)
                .map_err(|_| "`samples` exceeds usize".to_owned())?,
            seed: u64_field("seed")?,
            defect_rate: doc
                .get("defect_rate")
                .and_then(Json::as_f64)
                .ok_or("missing f64 `defect_rate`")?,
            stream: SampleStream::parse(str_or("rng_stream", SampleStream::V1.as_str())?)?,
            model: DefectModelSpec::new(
                DefectModelKind::parse(str_or("defect_model", DefectModelKind::Iid.as_str())?)?,
                f64_or("cluster_size", DefectModelSpec::DEFAULT_CLUSTER_SIZE)?,
                f64_or("line_rate", DefectModelSpec::DEFAULT_LINE_RATE)?,
            )?,
            circuits,
        })
    }

    /// How `found` differs from this campaign, field by field (`key found
    /// != expected`, floats compared bit for bit); `None` when both
    /// describe the same campaign. The one identity check behind both
    /// the partial validation and the run-directory manifest check.
    #[must_use]
    pub(crate) fn mismatch(&self, found: &McConfig) -> Option<String> {
        let mut diffs = Vec::new();
        if found.seed != self.seed {
            diffs.push(format!("seed {} != {}", found.seed, self.seed));
        }
        if found.samples != self.samples {
            diffs.push(format!("samples {} != {}", found.samples, self.samples));
        }
        if found.defect_rate.to_bits() != self.defect_rate.to_bits() {
            diffs.push(format!(
                "defect_rate {} != {}",
                found.defect_rate, self.defect_rate
            ));
        }
        if found.stream != self.stream {
            diffs.push(format!("rng_stream {} != {}", found.stream, self.stream));
        }
        if found.model != self.model {
            diffs.push(format!("defect_model {} != {}", found.model, self.model));
        }
        if found.circuits != self.circuits {
            diffs.push(format!(
                "circuits {:?} != {:?}",
                found.circuits, self.circuits
            ));
        }
        (!diffs.is_empty()).then(|| diffs.join(", "))
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

/// Runs one shard of the Table II workload in-process: folds the shard's
/// sample slice for every configured circuit, all circuits through one
/// worker pool.
///
/// # Panics
///
/// Panics when a circuit name is not registered (call
/// [`McConfig::validate`] first at process boundaries).
#[must_use]
pub fn run_shard(config: &McConfig, spec: &ShardSpec) -> partial::ShardPartial {
    let args = config.exp_args();
    let jobs: Vec<CircuitJob<'_>> = config
        .circuits
        .iter()
        .map(|name| CircuitJob::registry(find(name).expect("validated circuit name"), args.model))
        .collect();
    let circuits = config
        .circuits
        .iter()
        .cloned()
        .zip(fold_circuits(&jobs, &args, spec.range()))
        .map(|(name, (_, accum))| (name, accum))
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
    use crate::experiments::table2::TABLE2_PARAMS;

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

    fn table2_params(words: &[&str]) -> Params {
        Params::parse(TABLE2_PARAMS, words.iter().map(|s| (*s).to_owned())).expect("parses")
    }

    #[test]
    fn from_params_reads_the_campaign_xbar_run_table2_would_run() {
        let config = McConfig::from_params(&table2_params(&[
            "--samples",
            "50",
            "--seed",
            "9",
            "--defect-rate",
            "0.25",
            "--circuits",
            "rd53,bw",
        ]))
        .expect("a Table II subset");
        assert_eq!(config.samples, 50);
        assert_eq!(config.seed, 9);
        assert_eq!(config.circuits, ["rd53", "bw"]);

        let defaulted = McConfig::from_params(&table2_params(&[])).expect("defaults");
        assert_eq!(defaulted, McConfig::with_default_circuits(200, 2018, 0.10));

        for (circuits, needle) in [("rd53,rd53", "listed twice"), ("t481", "not a Table II")] {
            let err = McConfig::from_params(&table2_params(&["--circuits", circuits]))
                .expect_err("table2 refuses it, so every mc verb does");
            assert!(err.contains(needle), "{circuits}: {err}");
        }
    }

    /// Campaigns over every stream and model, with awkward floats.
    fn campaigns() -> Vec<McConfig> {
        let kinds = [
            DefectModelKind::Iid,
            DefectModelKind::Clustered,
            DefectModelKind::Lines,
            DefectModelKind::Composite,
        ];
        let mut out = Vec::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            for stream in [SampleStream::V1, SampleStream::V2] {
                out.push(McConfig {
                    samples: 33,
                    seed: u64::MAX - i as u64,
                    defect_rate: [0.1 + 0.2, 0.0, 1.0, 0.1][i],
                    stream,
                    model: DefectModelSpec::new(kind, 2.5, 0.1 + 0.2).expect("valid"),
                    circuits: vec!["misex1".to_owned(), "rd53".to_owned()],
                });
            }
        }
        out
    }

    #[test]
    fn every_campaign_round_trips_through_its_flags_and_its_documents() {
        for config in campaigns() {
            // Flags: what the scheduler hands a worker, the worker reads
            // back bit for bit.
            let args = config.campaign_args();
            let flags = McConfig::from_params(&table2_params(
                &args.iter().map(String::as_str).collect::<Vec<_>>(),
            ));
            assert_eq!(flags.expect("the worker accepts it"), config);

            // Documents: defaults are omitted, everything else reads back.
            let mut text = String::from("{\n");
            config.write_identity(&mut text);
            text.push_str("  \"end\": true\n}\n");
            let doc = Json::parse(&text).expect("valid JSON");
            let back = McConfig::read_identity(&doc, config.circuits.clone()).expect("reads");
            assert_eq!(back, config, "{text}");
            assert_eq!(back.defect_rate.to_bits(), config.defect_rate.to_bits());
            assert_eq!(
                text.contains("rng_stream"),
                config.stream != SampleStream::V1
            );
            for key in ["defect_model", "cluster_size", "line_rate"] {
                let used = match key {
                    "defect_model" => !config.model.is_default(),
                    "cluster_size" => config.model.uses_cluster(),
                    _ => config.model.uses_lines(),
                };
                assert_eq!(text.contains(key), used, "{key}: {text}");
            }
        }
        for (bad, needle) in [
            (r#""seed": 1, "rng_stream": "v9""#, "v9"),
            (r#""seed": 1, "rng_stream": 2"#, "not a string"),
            (r#""seed": 1, "defect_model": "blobs""#, "blobs"),
            (r#""seed": 1, "cluster_size": "big""#, "not a number"),
            (r#""seed": -1"#, "missing u64 `seed`"),
        ] {
            let text = format!("{{\"samples\": 2, \"defect_rate\": 0.1, {bad}}}");
            let doc = Json::parse(&text).expect("valid JSON");
            let err = McConfig::read_identity(&doc, Vec::new()).expect_err(bad);
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn mismatch_names_every_differing_field() {
        let config = McConfig::with_default_circuits(10, 1, 0.1);
        assert_eq!(config.mismatch(&config), None);
        let model = DefectModelSpec::new(DefectModelKind::Lines, 4.0, 0.5).expect("valid");
        let other = McConfig {
            seed: 2,
            stream: SampleStream::V2,
            model,
            ..config.clone()
        };
        let diff = config.mismatch(&other).expect("differs");
        for key in ["seed 2 != 1", "rng_stream v2 != v1", "defect_model"] {
            assert!(diff.contains(key), "{key}: {diff}");
        }
        assert!(!diff.contains("samples"), "{diff}");
    }

    #[test]
    fn config_validation_names_the_bad_circuit() {
        let mut config = McConfig::with_default_circuits(10, 1, 0.1);
        assert!(config.validate().is_ok());
        config.circuits.push("no-such-circuit".to_owned());
        let err = config.validate().expect_err("must fail");
        assert!(err.contains("no-such-circuit"), "{err}");

        // The library holds campaigns to the rules of their flags.
        let mut repeated = McConfig::with_default_circuits(10, 1, 0.1);
        repeated.circuits.push("rd53".to_owned());
        assert!(repeated.validate().is_err());
        let mut selector = McConfig::with_default_circuits(10, 1, 0.1);
        selector.circuits = vec!["all".to_owned()];
        assert!(selector.validate().is_err());
        for rate in [1.5, -0.1, f64::NAN] {
            let err = McConfig::with_default_circuits(10, 1, rate)
                .validate()
                .expect_err("not a probability");
            assert!(err.contains("[0, 1]"), "{err}");
        }
    }
}
