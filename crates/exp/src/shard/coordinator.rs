//! The local campaign runner and the campaign plumbing every scheduler
//! shares: the worker, the merge, and the rendered artifacts (run
//! directories are `shard::run_dir`'s).
//!
//! [`run_coordinator_with_report`] is a launch over the implicit one-host
//! fleet `local*<max_inflight>` through [`LocalProc`], with hedging off:
//! the launcher's event loop ([`crate::launch::scheduler`]) does all
//! process supervision. What a coordinator run gets from it, in order of
//! defense:
//!
//! * **Bounded, event-driven scheduling** — at most
//!   [`CoordinatorConfig::max_inflight`] workers are ever live; a work
//!   queue feeds free slots as children exit, so one slow shard never
//!   serializes the campaign behind a lockstep retry round.
//! * **Watchdog timeouts** — with [`CoordinatorConfig::shard_timeout`]
//!   set, a worker that outlives its wall-clock deadline is killed and
//!   reaped, turning a hang into an ordinary retriable failure (without a
//!   timeout the scheduler waits indefinitely).
//! * **Backoff retry** — each shard retries independently up to
//!   [`CoordinatorConfig::max_attempts`] times, delayed by
//!   [`backoff_delay`]: exponential growth plus jitter that is a pure
//!   function of `(seed, shard, attempt)`, so retry schedules are
//!   reproducible — no wall-clock RNG. A one-host fleet is never
//!   quarantined, so this budget is the only limit.
//! * **Checkpoint/resume** — every campaign owns a run directory derived
//!   from its identity ([`campaign_run_dir`]) with a manifest of that
//!   identity; a directory holding a *different* campaign is rejected
//!   with a clear error instead of clobbered. With
//!   [`CoordinatorConfig::resume`], valid checkpoints found there are
//!   reused and only missing or corrupt shards are scheduled. `mc
//!   coordinate` and `mc launch` share one run-directory contract, so
//!   either verb resumes the other's checkpoints.
//! * **One owner per run directory** — a coordinator claims its run
//!   directory with a kernel lock held for the run, so a second
//!   coordinator on a live campaign fails fast; the kernel releases the
//!   claim when its holder exits, `kill -9` included.
//! * **Work is never lost** — the run directory goes only once the
//!   result is written (after the merge here, after `--out` for the CLI
//!   verbs), never with `keep_partials`, and the work dir never.
//!
//! The merged **stats artifact** ([`render_stats_json`]) contains only
//! integer-derived statistics, so it is byte-identical across shard
//! layouts, failure histories, and resumes — `--shards 7` with injected
//! crashes and a monolithic in-process run produce the same file.
//! Wall-clock runtime moments are merged too (deterministically for a
//! fixed layout) but reported separately ([`render_timing_table`]).

use super::partial::ShardPartial;
use super::{run_shard, McConfig, ShardSpec};
use crate::experiments::table2::{CircuitAccum, EA_TIMING_STRIDE};
use crate::launch::pool::{DEFAULT_PROBATION, DEFAULT_QUARANTINE_AFTER};
use crate::launch::scheduler::{local_fleet, run_scheduler, LaunchConfig};
use crate::launch::transport::LocalProc;
use crate::table::{pct, secs, Table};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

pub use super::run_dir::campaign_run_dir;

/// Schema tag of the merged stats artifact.
pub const MERGED_SCHEMA: &str = "xbar-mc-merged/1";

/// Default base delay of the exponential retry backoff.
pub const DEFAULT_RETRY_BASE: Duration = Duration::from_millis(100);

/// The worker a scheduler runs per shard: an `xbar` binary (which is its
/// own worker), invoked as `xbar mc shard <shard flags>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Worker {
    /// Path of the `xbar` binary.
    pub binary: PathBuf,
}

impl Worker {
    /// An `xbar` binary driven through `mc shard`.
    #[must_use]
    pub fn xbar(binary: PathBuf) -> Self {
        Self { binary }
    }
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The campaign every shard must agree on.
    pub config: McConfig,
    /// Number of worker processes / sample-range shards.
    pub shards: usize,
    /// Attempts per shard (first run + retries) before giving up.
    pub max_attempts: usize,
    /// The worker process spawned per shard.
    pub worker: Worker,
    /// Parent directory for run directories (created if missing, never
    /// removed); the campaign's checkpoints live in [`campaign_run_dir`]
    /// beneath it.
    pub work_dir: PathBuf,
    /// Extra arguments appended to every worker invocation (used by the
    /// failure-injection tests and CI smoke; empty in production).
    pub extra_worker_args: Vec<String>,
    /// Keep the run directory and its checkpoints after a successful
    /// campaign; otherwise they go once the merged result is returned.
    pub keep_partials: bool,
    /// Per-attempt wall-clock deadline: a worker still running after this
    /// long is killed, reaped, and retried. `None` (the default) disables
    /// the watchdog — the historical wait-forever behaviour.
    pub shard_timeout: Option<Duration>,
    /// Maximum live workers at any instant; `None` = the machine's
    /// available parallelism.
    pub max_inflight: Option<usize>,
    /// Reuse valid partials already present in the run directory and
    /// schedule only the missing or corrupt shards.
    pub resume: bool,
    /// Base delay of the exponential retry backoff (see
    /// [`backoff_delay`]).
    pub retry_base: Duration,
}

/// The default parent of run directories: stable across processes, so
/// `--resume` finds an earlier run's checkpoints; the verb that chose it
/// removes it once empty.
#[must_use]
pub fn default_work_dir() -> PathBuf {
    std::env::temp_dir().join("xbar-mc")
}

/// Per-run counters reported by [`run_coordinator_with_report`]:
/// scheduling facts (how the campaign was executed), deliberately
/// separate from the byte-compared stats artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Worker processes spawned (all attempts).
    pub spawned: usize,
    /// Shards satisfied from existing partials (`--resume`).
    pub reused: usize,
    /// Retry attempts scheduled after a failure.
    pub retries: usize,
    /// Workers killed at the watchdog deadline.
    pub timeouts: usize,
    /// Peak number of simultaneously live workers.
    pub max_inflight_observed: usize,
}

/// The merged campaign result: the configuration plus one merged
/// accumulator per circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedResult {
    /// Campaign configuration.
    pub config: McConfig,
    /// `(circuit, merged accumulator)` in configuration order.
    pub circuits: Vec<(String, CircuitAccum)>,
}

/// Locates the default worker: the `xbar` binary next to the currently
/// running executable (all experiment binaries live in the same Cargo
/// target directory), spawned as `xbar mc shard` — so when the current
/// executable *is* `xbar` the scheduler is self-contained.
///
/// # Errors
///
/// Reports the path it looked at when no `xbar` binary exists there.
pub fn default_worker() -> Result<Worker, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate current exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| "current exe has no parent directory".to_owned())?;
    let xbar = dir.join(format!("xbar{}", std::env::consts::EXE_SUFFIX));
    if xbar.is_file() {
        return Ok(Worker::xbar(xbar));
    }
    Err(format!(
        "no worker binary found: {} does not exist (build it with \
         `cargo build --release -p xbar-exp --bins`)",
        xbar.display()
    ))
}

/// Runs the whole campaign in-process (no worker processes) through the
/// same fold-and-merge code path the sharded run uses.
#[must_use]
pub fn run_monolithic(config: &McConfig) -> MergedResult {
    let whole = ShardSpec {
        index: 0,
        num_shards: 1,
        start: 0,
        end: config.samples,
    };
    let partial = run_shard(config, &whole);
    MergedResult {
        config: config.clone(),
        circuits: partial.circuits,
    }
}

/// Merges shard partials after validating that they belong to `config`
/// and tile its sample range exactly: each partial passes
/// [`ShardPartial::validate_for`] against its own slice, and together
/// they cover `0..samples` with no gap and no overlap. A duplicated shard,
/// such as a hedge loser's partial leaking into the merge input, cannot
/// tile and fails here.
///
/// Partials are merged in ascending `start` order, so the merge is
/// deterministic for a given shard layout.
///
/// # Errors
///
/// Rejects configuration mismatches, overlapping or missing sample
/// ranges, and circuit-list disagreements.
pub fn merge_partials(
    config: &McConfig,
    partials: &[ShardPartial],
) -> Result<MergedResult, String> {
    let mut ordered: Vec<&ShardPartial> = partials.iter().collect();
    ordered.sort_by_key(|p| p.spec.start);
    let mut cursor = 0usize;
    for partial in &ordered {
        partial
            .validate_for(config, &partial.spec)
            .map_err(|e| format!("shard {}: {e}", partial.spec.index))?;
        if partial.spec.start != cursor {
            return Err(format!(
                "sample range not tiled: expected a shard starting at {cursor}, \
                 found shard {} starting at {}",
                partial.spec.index, partial.spec.start
            ));
        }
        cursor = partial.spec.end;
    }
    if cursor != config.samples {
        return Err(format!(
            "sample range not covered: shards end at {cursor}, campaign has {} samples",
            config.samples
        ));
    }
    let mut circuits: Vec<(String, CircuitAccum)> = config
        .circuits
        .iter()
        .map(|name| (name.clone(), CircuitAccum::new()))
        .collect();
    for partial in &ordered {
        for ((_, merged), (_, piece)) in circuits.iter_mut().zip(&partial.circuits) {
            merged.merge(piece);
        }
    }
    Ok(MergedResult {
        config: config.clone(),
        circuits,
    })
}

// ---------------------------------------------------------------------------
// Deterministic retry backoff
// ---------------------------------------------------------------------------

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The delay before retrying `shard` after its `attempt`-th failed
/// attempt (1-based): `base · 2^(attempt-1)` (exponent capped at 6) plus
/// jitter in `[0, 100%)` of that step. The jitter is a pure function of
/// `(seed, shard, attempt)` — no wall-clock RNG — so a campaign's retry
/// schedule is reproducible while concurrent retries still de-correlate.
#[must_use]
pub fn backoff_delay(seed: u64, shard: usize, attempt: usize, base: Duration) -> Duration {
    let exponent = u32::try_from(attempt.saturating_sub(1).min(6)).expect("capped exponent");
    let step = base.saturating_mul(1 << exponent);
    let hash = splitmix64(
        seed ^ (shard as u64).rotate_left(32)
            ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    // 53 high bits -> a fraction in [0, 1).
    let frac = (hash >> 11) as f64 / (1u64 << 53) as f64;
    step.mul_f64(1.0 + frac)
}

// ---------------------------------------------------------------------------
// The local runner
// ---------------------------------------------------------------------------

/// Runs the sharded campaign on this machine: a launch over the implicit
/// fleet `local*<max_inflight>` (available parallelism when unset)
/// through [`LocalProc`], hedging off. At most `max_inflight` workers
/// live at once, each shard retried independently with deterministic
/// backoff, hung workers killed at the watchdog deadline, and (with
/// `resume`) valid partials from a previous run — by either verb —
/// reused instead of recomputed. The manifest records the fleet as
/// `"hosts": ["local*N"]`; the report is the launch report's
/// [`LaunchReport::base`](crate::launch::LaunchReport::base).
///
/// # Errors
///
/// Reports configuration problems, unwritable work directories, run
/// directories owned by a different campaign or claimed by a live
/// coordinator, and permanently failing shards (with the last per-shard
/// error).
pub fn run_coordinator_with_report(
    cfg: &CoordinatorConfig,
) -> Result<(MergedResult, RunReport), String> {
    if cfg.max_inflight == Some(0) {
        return Err("need at least one in-flight worker slot".to_owned());
    }
    let launch = LaunchConfig {
        config: cfg.config.clone(),
        shards: cfg.shards,
        max_attempts: cfg.max_attempts,
        worker: cfg.worker.clone(),
        work_dir: cfg.work_dir.clone(),
        extra_worker_args: cfg.extra_worker_args.clone(),
        keep_partials: cfg.keep_partials,
        shard_timeout: cfg.shard_timeout,
        hedge_after: None,
        resume: cfg.resume,
        retry_base: cfg.retry_base,
        hosts: local_fleet(cfg.max_inflight),
        quarantine_after: DEFAULT_QUARANTINE_AFTER,
        probation: DEFAULT_PROBATION,
    };
    run_scheduler(&launch, &LocalProc, "mc coordinate", |_, _| Ok(()))
        .map(|(merged, report)| (merged, report.base))
}

/// Renders the deterministic merged-stats artifact: **only**
/// integer-derived statistics, so the document is byte-identical for any
/// shard layout of the same campaign (the CI smoke job and the
/// equivalence proptest compare these bytes directly).
#[must_use]
pub fn render_stats_json(merged: &MergedResult) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{MERGED_SCHEMA}\",");
    let _ = writeln!(out, "  \"experiment\": \"table2\",");
    merged.config.write_identity(&mut out);
    let _ = writeln!(out, "  \"circuits\": [");
    for (idx, (name, accum)) in merged.circuits.iter().enumerate() {
        let comma = if idx + 1 < merged.circuits.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"samples\": {}, \"hba_successes\": {}, \
             \"hba_success_rate\": {:?}, \"ea_successes\": {}, \"ea_success_rate\": {:?}}}{comma}",
            super::json::escape(name),
            accum.samples(),
            accum.hba.successes,
            accum.hba.rate(),
            accum.ea.successes,
            accum.ea.rate(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the informational runtime summary (means/standard deviations
/// from the merged Welford moments) — wall-clock data, deliberately not
/// part of the byte-compared stats artifact.
#[must_use]
pub fn render_timing_table(merged: &MergedResult) -> String {
    let mut table = Table::new(
        &format!(
            "Merged Monte Carlo statistics (timing is wall-clock, informational; \
             EA timed on every {EA_TIMING_STRIDE}th trial)"
        ),
        &[
            "name",
            "samples",
            "HBA succ%",
            "EA succ%",
            "HBA mean s",
            "HBA std s",
            "EA mean s",
            "EA std s",
        ],
    );
    for (name, accum) in &merged.circuits {
        table.row([
            name.clone(),
            accum.samples().to_string(),
            pct(accum.hba.rate()),
            pct(accum.ea.rate()),
            secs(accum.hba_time.mean()),
            secs(accum.hba_time.std_dev()),
            secs(accum.ea_time.mean()),
            secs(accum.ea_time.std_dev()),
        ]);
    }
    table.to_ascii()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::stats::Moments;
    use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};

    fn config() -> McConfig {
        McConfig {
            samples: 20,
            seed: 5,
            defect_rate: 0.1,
            stream: SampleStream::V1,
            model: DefectModelSpec::default(),
            circuits: vec!["rd53".to_owned()],
        }
    }

    fn clustered_model() -> DefectModelSpec {
        DefectModelSpec::new(DefectModelKind::Clustered, 3.0, 0.02).expect("valid")
    }

    fn partials_for(config: &McConfig, shards: usize) -> Vec<ShardPartial> {
        ShardSpec::partition(config.samples, shards)
            .iter()
            .map(|spec| run_shard(config, spec))
            .collect()
    }

    #[test]
    fn merged_shards_match_the_monolithic_stats_artifact() {
        let config = config();
        let mono = render_stats_json(&run_monolithic(&config));
        for shards in [1usize, 2, 3, 7] {
            let merged = merge_partials(&config, &partials_for(&config, shards)).expect("merges");
            assert_eq!(
                render_stats_json(&merged),
                mono,
                "{shards} shards must be byte-identical"
            );
        }
    }

    #[test]
    fn merge_rejects_a_missing_shard() {
        let config = config();
        let mut partials = partials_for(&config, 3);
        partials.remove(1);
        let err = merge_partials(&config, &partials).expect_err("gap must fail");
        assert!(err.contains("not tiled"), "{err}");
    }

    #[test]
    fn merge_rejects_a_duplicated_shard() {
        let config = config();
        let mut partials = partials_for(&config, 3);
        let dup = partials[0].clone();
        partials.push(dup);
        assert!(merge_partials(&config, &partials).is_err());
    }

    #[test]
    fn merge_rejects_seed_mismatch() {
        let config = config();
        let mut partials = partials_for(&config, 2);
        partials[1].config.seed ^= 1;
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn merge_rejects_rng_stream_mismatch() {
        // A shard sampled under V2 holds statistics over different defect
        // maps; merging it into a V1 campaign would corrupt the artifact
        // silently, so the coordinator must refuse.
        let config = config();
        let mut partials = partials_for(&config, 2);
        partials[1].config.stream = SampleStream::V2;
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("rng_stream"), "{err}");
    }

    #[test]
    fn v2_merge_matches_v2_monolithic_and_declares_its_stream() {
        let config = McConfig {
            stream: SampleStream::V2,
            ..self::config()
        };
        let mono = render_stats_json(&run_monolithic(&config));
        assert!(mono.contains("\"rng_stream\": \"v2\""), "{mono}");
        let merged = merge_partials(&config, &partials_for(&config, 3)).expect("merges");
        assert_eq!(render_stats_json(&merged), mono);
    }

    #[test]
    fn merge_rejects_defect_model_mismatch() {
        // A shard sampled under a clustered model holds statistics over a
        // different spatial defect distribution; merging it into an i.i.d.
        // campaign would corrupt the artifact silently.
        let config = config();
        let mut partials = partials_for(&config, 2);
        partials[1].config.model = clustered_model();
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("defect_model"), "{err}");
    }

    #[test]
    fn modeled_merge_matches_modeled_monolithic_and_declares_its_model() {
        let config = McConfig {
            model: clustered_model(),
            ..self::config()
        };
        let mono = render_stats_json(&run_monolithic(&config));
        assert!(mono.contains("\"defect_model\": \"clustered\""), "{mono}");
        assert!(mono.contains("\"cluster_size\": 3.0"), "{mono}");
        assert!(!mono.contains("line_rate"), "clustered ignores line_rate");
        let merged = merge_partials(&config, &partials_for(&config, 3)).expect("merges");
        assert_eq!(render_stats_json(&merged), mono);
        // The default-model artifact never mentions the model at all.
        let default_json = render_stats_json(&run_monolithic(&self::config()));
        assert!(!default_json.contains("defect_model"), "{default_json}");
    }

    #[test]
    fn merge_rejects_out_of_order_circuit_entries() {
        let config = McConfig {
            circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
            ..self::config()
        };
        let mut partials = partials_for(&config, 2);
        partials[0].circuits.swap(0, 1);
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn merge_rejects_a_missing_circuit_entry() {
        let config = McConfig {
            circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
            ..self::config()
        };
        let mut partials = partials_for(&config, 2);
        partials[1].circuits.pop();
        let err = merge_partials(&config, &partials).expect_err("must fail");
        assert!(err.contains("circuit entries"), "{err}");
    }

    #[test]
    fn merge_rejects_sample_count_lies() {
        let config = config();
        let honest = partials_for(&config, 2);
        // Each lie edits shard 0's rd53 accumulator (10 samples, one of
        // them EA-timed); the error must name the field it got wrong.
        type Lie = fn(&mut CircuitAccum);
        let lies: [(&str, Lie); 7] = [
            ("folded", |a| {
                a.hba.samples += 1;
                a.ea.samples += 1;
            }),
            ("hba_successes", |a| {
                a.hba.successes = 15;
                a.ea.successes = 0;
            }),
            ("hba_successes", |a| a.hba.successes = a.ea.successes + 1),
            ("ea_successes", |a| a.ea.successes = a.samples() + 1),
            ("hba_time", |a| a.hba_time.count -= 1),
            ("ea_time", |a| a.ea_time.count += 1),
            ("ea_time", |a| a.ea_time = Moments::new()),
        ];
        for (field, lie) in lies {
            let mut partials = honest.clone();
            lie(&mut partials[0].circuits[0].1);
            let err = merge_partials(&config, &partials).expect_err(field);
            assert!(err.contains(field) && err.contains("rd53"), "{err}");
        }
    }

    #[test]
    fn empty_shards_merge_cleanly() {
        // More shards than samples: trailing shards are empty.
        let config = McConfig {
            samples: 2,
            ..self::config()
        };
        let merged = merge_partials(&config, &partials_for(&config, 5)).expect("merges");
        assert_eq!(merged.circuits[0].1.samples(), 2);
    }

    #[test]
    fn stats_json_is_parseable_and_has_rates() {
        let merged = run_monolithic(&config());
        let json = render_stats_json(&merged);
        let doc = super::super::json::Json::parse(&json).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(MERGED_SCHEMA)
        );
        let circuits = doc.get("circuits").and_then(|c| c.as_arr()).expect("arr");
        assert_eq!(circuits.len(), 1);
        assert!(circuits[0].get("hba_success_rate").is_some());
        let timing = render_timing_table(&merged);
        assert!(timing.contains("rd53"));
    }

    #[test]
    fn backoff_is_a_pure_function_of_seed_shard_and_attempt() {
        let base = Duration::from_millis(100);
        let delay = backoff_delay(7, 3, 1, base);
        assert_eq!(delay, backoff_delay(7, 3, 1, base), "deterministic");
        assert_ne!(delay, backoff_delay(7, 4, 1, base), "per-shard jitter");
        assert_ne!(delay, backoff_delay(8, 3, 1, base), "per-seed jitter");
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let base = Duration::from_millis(100);
        for attempt in 1..=6 {
            let step = base * (1 << (attempt - 1));
            for (seed, shard) in [(0u64, 0usize), (2018, 5), (u64::MAX, 31)] {
                let delay = backoff_delay(seed, shard, attempt, base);
                assert!(
                    delay >= step && delay < step * 2,
                    "attempt {attempt}: {delay:?} outside [{step:?}, {:?})",
                    step * 2
                );
            }
        }
        // The exponent is capped: huge attempt counts cannot overflow.
        assert!(backoff_delay(7, 3, 10_000, base) < base * 128);
    }
}
