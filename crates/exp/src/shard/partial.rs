//! Self-describing partial results: what an `xbar mc shard` worker
//! streams, the scheduler checkpoints and merges.
//!
//! The document embeds the full experiment configuration and the shard's
//! slice, so a partial is verifiable on its own — the coordinator rejects
//! any partial whose configuration does not match the campaign before
//! merging. All accumulator fields round-trip **bit-exactly**: integers
//! are written as decimal `u64`s and floating-point state with Rust's
//! shortest-round-trip representation (the parser keeps number tokens as
//! raw text precisely so this holds; see [`super::json`]).

use super::json::{escape, Json};
use super::{McConfig, ShardSpec};
use crate::experiments::table2::{CircuitAccum, EA_TIMING_STRIDE};
use std::fmt::Write as _;
use xbar_core::stats::{Moments, SuccessCount};

/// Schema tag written into (and required from) every partial file.
pub const PARTIAL_SCHEMA: &str = "xbar-mc-partial/1";

/// The result of one shard: configuration echo, slice, and one accumulator
/// per circuit (in configuration order).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// The campaign configuration this shard ran under.
    pub config: McConfig,
    /// The slice this shard owns.
    pub spec: ShardSpec,
    /// `(circuit name, accumulator)` in `config.circuits` order.
    pub circuits: Vec<(String, CircuitAccum)>,
}

/// Writes an `f64` in shortest-round-trip form, guarding the NaN-free
/// invariant of the accumulators (JSON has no NaN/Infinity literal).
fn fmt_f64(value: f64) -> String {
    assert!(value.is_finite(), "accumulators must stay NaN/Inf-free");
    format!("{value:?}")
}

fn write_moments(out: &mut String, key: &str, m: &Moments) {
    let _ = write!(
        out,
        "\"{key}\": {{\"count\": {}, \"mean\": {}, \"m2\": {}}}",
        m.count,
        fmt_f64(m.mean),
        fmt_f64(m.m2)
    );
}

fn parse_moments(value: &Json, context: &str) -> Result<Moments, String> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| format!("{context}: missing `{key}`"))
    };
    Ok(Moments {
        count: field("count")?
            .as_u64()
            .ok_or_else(|| format!("{context}: `count` is not a u64"))?,
        mean: field("mean")?
            .as_f64()
            .ok_or_else(|| format!("{context}: `mean` is not a number"))?,
        m2: field("m2")?
            .as_f64()
            .ok_or_else(|| format!("{context}: `m2` is not a number"))?,
    })
}

impl ShardPartial {
    /// Full per-file validation: the configuration echo, the exact slice
    /// the scheduler expected this file to hold, and per circuit the
    /// counts that slice makes possible — `samples` folded trials,
    /// `hba_successes ≤ ea_successes ≤ samples` (an HBA success certifies
    /// EA), HBA timed on every trial and EA on the slice's multiples of
    /// [`EA_TIMING_STRIDE`]. Applied to every worker's output, to
    /// checkpoint files found by `--resume` and again at merge time — a
    /// stale, foreign, torn or impossible partial can never be merged.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn validate_for(&self, config: &McConfig, spec: &ShardSpec) -> Result<(), String> {
        if self.spec != *spec {
            return Err(format!(
                "partial describes shard {:?}, expected {:?}",
                self.spec, spec
            ));
        }
        if let Some(diff) = config.mismatch(&self.config) {
            return Err(format!(
                "config echo is not the campaign's ({diff}); a shard sampled under \
                 another campaign cannot merge into this one"
            ));
        }
        if self.circuits.len() != config.circuits.len() {
            return Err(format!(
                "{} circuit entries, campaign has {}",
                self.circuits.len(),
                config.circuits.len()
            ));
        }
        let expected: u64 = spec.len() as u64;
        let timed =
            (spec.end.div_ceil(EA_TIMING_STRIDE) - spec.start.div_ceil(EA_TIMING_STRIDE)) as u64;
        for ((name, accum), campaign_name) in self.circuits.iter().zip(&config.circuits) {
            if name != campaign_name {
                return Err(format!(
                    "circuit entry {name:?} out of order (expected {campaign_name:?})"
                ));
            }
            if accum.samples() != expected {
                return Err(format!(
                    "circuit {name:?} folded {} samples, range holds {expected}",
                    accum.samples()
                ));
            }
            let (hba, ea) = (accum.hba.successes, accum.ea.successes);
            if ea > expected {
                return Err(format!(
                    "circuit {name:?} claims ea_successes {ea} of {expected} samples"
                ));
            }
            if hba > ea {
                return Err(format!(
                    "circuit {name:?} claims hba_successes {hba} above ea_successes {ea}, \
                     but every HBA success is an EA success"
                ));
            }
            if accum.hba_time.count != expected {
                return Err(format!(
                    "circuit {name:?} has hba_time count {}, range holds {expected} samples",
                    accum.hba_time.count
                ));
            }
            if accum.ea_time.count != timed {
                return Err(format!(
                    "circuit {name:?} has ea_time count {}, range holds {timed} \
                     EA-timed samples",
                    accum.ea_time.count
                ));
            }
        }
        Ok(())
    }

    /// Renders the partial as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{PARTIAL_SCHEMA}\",");
        let _ = writeln!(out, "  \"experiment\": \"table2\",");
        self.config.write_identity(&mut out);
        let _ = writeln!(
            out,
            "  \"shard\": {{\"index\": {}, \"num_shards\": {}, \"start\": {}, \"end\": {}}},",
            self.spec.index, self.spec.num_shards, self.spec.start, self.spec.end
        );
        let _ = writeln!(out, "  \"circuits\": [");
        for (idx, (name, accum)) in self.circuits.iter().enumerate() {
            let comma = if idx + 1 < self.circuits.len() {
                ","
            } else {
                ""
            };
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"samples\": {}, \"hba_successes\": {}, \
                 \"ea_successes\": {}, ",
                escape(name),
                accum.samples(),
                accum.hba.successes,
                accum.ea.successes
            );
            write_moments(&mut out, "hba_time", &accum.hba_time);
            out.push_str(", ");
            write_moments(&mut out, "ea_time", &accum.ea_time);
            let _ = writeln!(out, "}}{comma}");
        }
        out.push_str("  ],\n");
        // Written last: a truncated file cannot carry it, and the parser
        // requires it, so torn writes are always detected.
        out.push_str("  \"complete\": true\n}\n");
        out
    }

    /// Parses and validates a partial result document.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON, a wrong schema tag, a missing `complete`
    /// marker (torn write), or missing/mistyped fields.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("malformed partial: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("partial missing `schema`")?;
        if schema != PARTIAL_SCHEMA {
            return Err(format!(
                "schema mismatch: got {schema:?}, expected {PARTIAL_SCHEMA:?}"
            ));
        }
        if doc.get("complete").and_then(Json::as_bool) != Some(true) {
            return Err("partial not marked complete (torn write?)".to_owned());
        }
        let shard = doc.get("shard").ok_or("partial missing `shard`")?;
        let shard_field = |key: &str| {
            shard
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("shard missing usize `{key}`"))
        };
        let spec = ShardSpec {
            index: shard_field("index")?,
            num_shards: shard_field("num_shards")?,
            start: shard_field("start")?,
            end: shard_field("end")?,
        };
        if spec.start > spec.end {
            return Err(format!(
                "shard range inverted: start {} > end {}",
                spec.start, spec.end
            ));
        }
        if spec.index >= spec.num_shards {
            return Err(format!(
                "shard index {} out of range for num_shards {}",
                spec.index, spec.num_shards
            ));
        }
        let circuit_values = doc
            .get("circuits")
            .and_then(Json::as_arr)
            .ok_or("partial missing `circuits` array")?;
        let mut circuits = Vec::with_capacity(circuit_values.len());
        for value in circuit_values {
            let name = value
                .get("name")
                .and_then(Json::as_str)
                .ok_or("circuit missing `name`")?
                .to_owned();
            let context = format!("circuit {name:?}");
            let count = |key: &str| {
                value
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{context}: missing u64 `{key}`"))
            };
            let samples = count("samples")?;
            let accum = CircuitAccum {
                hba: SuccessCount {
                    samples,
                    successes: count("hba_successes")?,
                },
                ea: SuccessCount {
                    samples,
                    successes: count("ea_successes")?,
                },
                hba_time: parse_moments(
                    value
                        .get("hba_time")
                        .ok_or_else(|| format!("{context}: missing `hba_time`"))?,
                    &context,
                )?,
                ea_time: parse_moments(
                    value
                        .get("ea_time")
                        .ok_or_else(|| format!("{context}: missing `ea_time`"))?,
                    &context,
                )?,
            };
            circuits.push((name, accum));
        }
        let names = circuits.iter().map(|(name, _)| name.clone()).collect();
        Ok(ShardPartial {
            config: McConfig::read_identity(&doc, names).map_err(|e| format!("partial {e}"))?,
            spec,
            circuits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};

    fn sample_partial() -> ShardPartial {
        let mut accum = CircuitAccum::new();
        accum.push(true, 1.25e-5, true, 3.5e-4);
        accum.push(false, 2.5e-5, true, 1.0 / 3.0);
        accum.push(false, 0.125, false, 7.7e-7);
        let mut other = CircuitAccum::new();
        other.push(true, 0.5, true, 0.25);
        ShardPartial {
            config: McConfig {
                samples: 100,
                seed: u64::MAX - 41, // above 2^53: must survive the file
                defect_rate: 0.1,
                stream: SampleStream::V1,
                model: DefectModelSpec::default(),
                circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
            },
            spec: ShardSpec {
                index: 1,
                num_shards: 3,
                start: 34,
                end: 67,
            },
            circuits: vec![("rd53".to_owned(), accum), ("misex1".to_owned(), other)],
        }
    }

    #[test]
    fn roundtrips_every_field_bitwise() {
        let partial = sample_partial();
        let json = partial.to_json();
        let back = ShardPartial::from_json(&json).expect("parses");
        assert_eq!(back, partial);
        // f64 state must be bit-identical, not just PartialEq-equal.
        let (_, a) = &partial.circuits[0];
        let (_, b) = &back.circuits[0];
        assert_eq!(a.hba_time.mean.to_bits(), b.hba_time.mean.to_bits());
        assert_eq!(a.hba_time.m2.to_bits(), b.hba_time.m2.to_bits());
        assert_eq!(a.ea_time.mean.to_bits(), b.ea_time.mean.to_bits());
        assert_eq!(a.ea_time.m2.to_bits(), b.ea_time.m2.to_bits());
        // Writing again produces the identical document.
        assert_eq!(back.to_json(), json);

        // The identity header is the shared campaign encoding: a default
        // campaign's partial keeps its pre-stream, pre-model bytes, and a
        // non-default one declares (and round-trips) its stream and model.
        for key in ["rng_stream", "defect_model", "cluster_size", "line_rate"] {
            assert!(!json.contains(key), "{key} leaked into a default partial");
        }
        let mut modeled = partial;
        modeled.config.stream = SampleStream::V2;
        modeled.config.model =
            DefectModelSpec::new(DefectModelKind::Composite, 2.0, 0.125).expect("valid");
        let json = modeled.to_json();
        assert!(json.contains("\"rng_stream\": \"v2\""), "{json}");
        assert!(json.contains("\"line_rate\": 0.125"), "{json}");
        let back = ShardPartial::from_json(&json).expect("parses");
        assert_eq!(back, modeled);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn zero_sample_shard_roundtrips_nan_free() {
        let partial = ShardPartial {
            config: McConfig {
                samples: 2,
                seed: 7,
                defect_rate: 0.1,
                stream: SampleStream::V1,
                model: DefectModelSpec::default(),
                circuits: vec!["rd53".to_owned()],
            },
            spec: ShardSpec {
                index: 4,
                num_shards: 5,
                start: 2,
                end: 2,
            },
            circuits: vec![("rd53".to_owned(), CircuitAccum::new())],
        };
        let back = ShardPartial::from_json(&partial.to_json()).expect("parses");
        assert_eq!(back, partial);
        let (_, accum) = &back.circuits[0];
        assert_eq!(accum.hba.rate(), 0.0);
        assert_eq!(accum.hba_time.mean(), 0.0);
        assert_eq!(accum.hba_time.variance(), 0.0);
    }

    #[test]
    fn all_failure_shard_roundtrips() {
        let mut accum = CircuitAccum::new();
        for _ in 0..5 {
            accum.push(false, 1e-6, false, 2e-6);
        }
        let mut partial = sample_partial();
        partial.circuits = vec![("rd53".to_owned(), accum)];
        partial.config.circuits = vec!["rd53".to_owned()];
        let back = ShardPartial::from_json(&partial.to_json()).expect("parses");
        assert_eq!(back, partial);
        assert_eq!(back.circuits[0].1.hba.successes, 0);
        assert_eq!(back.circuits[0].1.hba.rate(), 0.0);
    }

    #[test]
    fn validate_for_accepts_the_matching_slice_and_rejects_everything_else() {
        // A real shard: 33 samples folded into each circuit accumulator.
        let config = McConfig {
            samples: 100,
            seed: 9,
            defect_rate: 0.1,
            stream: SampleStream::V1,
            model: DefectModelSpec::default(),
            circuits: vec!["rd53".to_owned()],
        };
        let spec = ShardSpec {
            index: 1,
            num_shards: 3,
            start: 34,
            end: 67,
        };
        let partial = crate::shard::run_shard(&config, &spec);
        partial.validate_for(&config, &spec).expect("valid");

        let other_spec = ShardSpec { index: 0, ..spec };
        let err = partial
            .validate_for(&config, &other_spec)
            .expect_err("spec");
        assert!(err.contains("expected"), "{err}");

        let mut other_config = config.clone();
        other_config.seed = 10;
        let err = partial
            .validate_for(&other_config, &spec)
            .expect_err("seed");
        assert!(err.contains("seed"), "{err}");

        let mut other_config = config.clone();
        other_config.stream = SampleStream::V2;
        let err = partial
            .validate_for(&other_config, &spec)
            .expect_err("stream");
        assert!(err.contains("rng_stream"), "{err}");

        let mut short = partial.clone();
        short.circuits[0].1 = CircuitAccum::new();
        let err = short.validate_for(&config, &spec).expect_err("samples");
        assert!(err.contains("folded"), "{err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let json = sample_partial().to_json();
        for cut in [10, json.len() / 2, json.len() - 3] {
            let truncated = &json[..cut];
            assert!(
                ShardPartial::from_json(truncated).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn inconsistent_shard_ranges_are_rejected() {
        let inverted = sample_partial()
            .to_json()
            .replace("\"start\": 34, \"end\": 67", "\"start\": 67, \"end\": 34");
        let err = ShardPartial::from_json(&inverted).expect_err("must fail");
        assert!(err.contains("inverted"), "{err}");

        let bad_index = sample_partial().to_json().replace(
            "\"index\": 1, \"num_shards\": 3",
            "\"index\": 3, \"num_shards\": 3",
        );
        let err = ShardPartial::from_json(&bad_index).expect_err("must fail");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let json = sample_partial()
            .to_json()
            .replace(PARTIAL_SCHEMA, "other/9");
        let err = ShardPartial::from_json(&json).expect_err("must fail");
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn incomplete_marker_is_rejected() {
        let json = sample_partial()
            .to_json()
            .replace("\"complete\": true", "\"complete\": false");
        let err = ShardPartial::from_json(&json).expect_err("must fail");
        assert!(err.contains("complete"), "{err}");
    }
}
