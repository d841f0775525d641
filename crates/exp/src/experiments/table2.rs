//! Table II: success rate and runtime of HBA vs EA on optimum-size
//! crossbars with stuck-open defects.
//!
//! Aggregation runs through the mergeable accumulators in
//! [`xbar_core::stats`]: the single-process path folds every circuit's
//! whole sample range into one [`CircuitAccum`] per circuit, all circuits
//! through one worker pool; the process-sharded path (see
//! [`crate::shard`]) folds disjoint sub-ranges the same way in worker
//! processes and merges the partials — by construction the integer
//! statistics agree bit-for-bit.

use crate::cli::ExpArgs;
use crate::experiment::{
    spec, write_csv_if_requested, Artifact, ExpError, Experiment, ParamKind, ParamSpec, Params,
    Reporter, CLUSTER_SIZE_PARAM, DEFECT_MODEL_PARAM, LINE_RATE_PARAM, RNG_STREAM_PARAM,
};
use crate::mc::{available_workers, fold_jobs};
use crate::shard::json::JsonValue;
use crate::table::{pct, secs, Table};
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;
use xbar_core::stats::{Moments, SuccessCount};
use xbar_core::{
    CrossbarMatrix, DefectModelSpec, DefectSampler, FunctionMatrix, MatchEngine, TwoLevelLayout,
};
use xbar_logic::bench_reg::{find, registry, BenchmarkInfo};
use xbar_logic::Cover;

/// Measured results for one circuit, paired with the paper's numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Circuit name.
    pub name: String,
    /// Inputs.
    pub inputs: usize,
    /// Outputs.
    pub outputs: usize,
    /// Product count of the cover we mapped (published for twins, our
    /// minimizer's for exact circuits).
    pub products: usize,
    /// Our crossbar area `(P+O)(2I+2O)`.
    pub area: usize,
    /// The paper's published area.
    pub area_published: usize,
    /// Our inclusion ratio (0..1).
    pub inclusion_ratio: f64,
    /// Published inclusion ratio (0..1), when given.
    pub ir_published: Option<f64>,
    /// Measured HBA success rate (0..1).
    pub hba_success: f64,
    /// Mean HBA runtime per mapping attempt (seconds).
    pub hba_time: f64,
    /// Measured EA success rate (0..1).
    pub ea_success: f64,
    /// Mean EA runtime per attempt (seconds), measured on the trials whose
    /// global sample index is a multiple of [`EA_TIMING_STRIDE`] (0.0 when
    /// the range holds none).
    pub ea_time: f64,
    /// Published HBA `(success fraction, seconds)`.
    pub hba_published: Option<(f64, f64)>,
    /// Published EA `(success fraction, seconds)`.
    pub ea_published: Option<(f64, f64)>,
}

/// Mergeable per-circuit fold state for the Table II statistics: success
/// counters (integer, merge-exact) plus runtime moments (Welford, merged
/// with Chan's combination).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CircuitAccum {
    /// HBA success counter.
    pub hba: SuccessCount,
    /// EA success counter.
    pub ea: SuccessCount,
    /// HBA per-attempt runtime moments (seconds).
    pub hba_time: Moments,
    /// EA per-attempt runtime moments (seconds), over the trials whose
    /// global sample index is a multiple of [`EA_TIMING_STRIDE`].
    pub ea_time: Moments,
}

impl CircuitAccum {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one Monte Carlo trial in, timing both HBA and EA, for a
    /// caller that solves EA on every trial. Table II's own pooled fold
    /// solves and times EA only on the multiples of [`EA_TIMING_STRIDE`],
    /// so it folds the fields one by one instead.
    pub fn push(&mut self, hba_ok: bool, hba_secs: f64, ea_ok: bool, ea_secs: f64) {
        self.hba.push(hba_ok);
        self.ea.push(ea_ok);
        self.hba_time.push(hba_secs);
        self.ea_time.push(ea_secs);
    }

    /// Merges an accumulator folded over a disjoint sample range.
    pub fn merge(&mut self, other: &Self) {
        self.hba.merge(&other.hba);
        self.ea.merge(&other.ea);
        self.hba_time.merge(&other.hba_time);
        self.ea_time.merge(&other.ea_time);
    }

    /// Trials folded in.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.hba.samples
    }
}

/// Table II solves EA on every trial whose global sample index is a
/// multiple of this stride, and times it there only; elsewhere it solves
/// EA only when HBA fails. The subsample depends on the global index alone,
/// so it is the same under every shard layout, and the `EA time` column
/// stays an unbiased per-attempt mean.
pub const EA_TIMING_STRIDE: usize = 16;

/// The Monte Carlo seed Table II derives from the experiment seed (kept
/// stable since the first implementation so published statistics never
/// drift; shard workers must use the same derivation).
#[must_use]
pub fn mc_seed(experiment_seed: u64) -> u64 {
    experiment_seed ^ 0xBEEF
}

/// The layout facts a circuit's Table II row reads from its cover, kept
/// once the cover itself is gone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LayoutFacts {
    outputs: usize,
    products: usize,
    area: usize,
    inclusion_ratio: f64,
}

impl LayoutFacts {
    fn of(cover: &Cover) -> Self {
        let layout = TwoLevelLayout::of_cover(cover);
        Self {
            outputs: cover.num_outputs(),
            products: cover.len(),
            area: layout.area(),
            inclusion_ratio: layout.inclusion_ratio(cover),
        }
    }
}

/// One circuit of a pooled Table II fold ([`fold_circuits`]): its cover
/// and the defect model its samples are drawn under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CircuitJob<'a> {
    cover: CoverSource<'a>,
    model: DefectModelSpec,
}

#[derive(Debug, Clone, Copy)]
enum CoverSource<'a> {
    /// A registry circuit: a pool worker prepares its mapping cover and
    /// keeps only what the fold and the row read.
    Registry(&'a BenchmarkInfo),
    /// A cover the caller already holds.
    Given(&'a Cover),
}

impl<'a> CircuitJob<'a> {
    /// A registry circuit, sampled under `model`.
    pub(crate) fn registry(info: &'a BenchmarkInfo, model: DefectModelSpec) -> Self {
        Self {
            cover: CoverSource::Registry(info),
            model,
        }
    }

    /// A prepared cover, sampled under `model`.
    pub(crate) fn cover(cover: &'a Cover, model: DefectModelSpec) -> Self {
        Self {
            cover: CoverSource::Given(cover),
            model,
        }
    }
}

/// What a circuit's samples read while they fold. The pool drops it after
/// the circuit's last chunk.
struct PreparedCircuit {
    fm: FunctionMatrix,
    sampler: DefectSampler,
}

/// Folds the Table II trials with **global** sample indices `range` for
/// every job through one worker pool, and returns each job's layout facts
/// and accumulator in job order. The full sample count never appears
/// here: per-sample seeds depend only on `(mc_seed(args.seed), index)`, so
/// any contiguous partition of `0..samples` merges back to the monolithic
/// accumulators, and the worker count never shows in them.
///
/// Workers share the jobs as [`crate::mc`]'s pooled fold lays them out:
/// chunks in job order, each circuit's cover prepared once, on a worker,
/// overlapping the previous circuit's sampling, and dropped after its last
/// chunk. For a registry circuit that is [`BenchmarkInfo::mapping_cover`]:
/// two minimizations (the function and its complement) for an exact
/// circuit, milliseconds even for rd84; twins are generated, not
/// minimized. Every worker keeps one engine and one crossbar matrix across
/// circuits (the crossbar is resized when the circuit changes), so the hot
/// loop performs zero heap allocations. Sampling goes through the job's
/// stream-selected [`DefectSampler`]: under V1 it consumes the per-sample
/// RNG exactly like the original dense sampler, keeping the statistics
/// bit-identical to the pre-engine implementation; V2 pins its own golden
/// values. Non-default spatial models dispatch through the same handle, so
/// the i.i.d. hot path stays untouched.
///
/// HBA runs and is timed on every trial. An HBA success is a valid full
/// assignment, hence a perfect matching, so it certifies EA success; EA is
/// solved only when HBA fails, or on the timing subsample (see
/// [`EA_TIMING_STRIDE`]), where it is solved and timed whatever HBA
/// decided. Each call builds the candidate words it reads (HBA on demand,
/// EA the whole adjacency), so both times are per-attempt costs.
pub(crate) fn fold_circuits(
    jobs: &[CircuitJob<'_>],
    args: &ExpArgs,
    range: Range<usize>,
) -> Vec<(LayoutFacts, CircuitAccum)> {
    let facts: Vec<OnceLock<LayoutFacts>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let accums = fold_jobs(
        available_workers(),
        &vec![range; jobs.len()],
        mc_seed(args.seed),
        |j| {
            let registry_cover;
            let cover = match jobs[j].cover {
                CoverSource::Registry(info) => {
                    registry_cover = info.mapping_cover(args.seed);
                    &registry_cover
                }
                CoverSource::Given(cover) => cover,
            };
            facts[j]
                .set(LayoutFacts::of(cover))
                .expect("the pool prepares each job once");
            PreparedCircuit {
                fm: FunctionMatrix::from_cover(cover),
                sampler: DefectSampler::with_model(args.stream, jobs[j].model),
            }
        },
        || (MatchEngine::new(), CrossbarMatrix::perfect(0, 0)),
        |accum: &mut CircuitAccum, (engine, cm), circuit: &PreparedCircuit, index, seed| {
            let fm = &circuit.fm;
            if (cm.num_rows(), cm.num_cols()) != (fm.num_rows(), fm.num_cols()) {
                // A new circuit: resize the crossbar and warm the
                // engine's FM cache outside the timers (every query
                // revalidates that cache, so a same-shape switch is
                // still safe).
                *cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
                engine.prepare_fm(fm);
            }
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
            circuit.sampler.resample(cm, args.defect_rate, &mut rng);
            let t0 = Instant::now();
            let (hba_ok, _) = engine.hybrid_success(fm, cm);
            accum.hba_time.push(t0.elapsed().as_secs_f64());
            let ea_ok = if index % EA_TIMING_STRIDE == 0 {
                let t1 = Instant::now();
                let (ea_ok, _) = engine.exact_success(fm, cm);
                accum.ea_time.push(t1.elapsed().as_secs_f64());
                ea_ok
            } else {
                hba_ok || engine.exact_success(fm, cm).0
            };
            debug_assert!(!hba_ok || ea_ok, "HBA success must imply EA success");
            accum.hba.push(hba_ok);
            accum.ea.push(ea_ok);
        },
        |accum, piece| accum.merge(&piece),
    );
    facts
        .into_iter()
        .map(|facts| facts.into_inner().expect("the pool prepares every job"))
        .zip(accums)
        .collect()
}

/// The one job of a one-circuit [`fold_circuits`] call.
fn fold_one(
    job: CircuitJob<'_>,
    args: &ExpArgs,
    range: Range<usize>,
) -> (LayoutFacts, CircuitAccum) {
    fold_circuits(&[job], args, range)
        .pop()
        .expect("one job, one result")
}

/// Folds the Table II Monte Carlo trials with **global** sample indices
/// `range` for one circuit — a one-job call of the pooled fold behind
/// `xbar run table2`, and the shard-capable core of [`run_circuit`]. Any
/// contiguous partition of `0..samples` merges back to the monolithic
/// accumulator.
#[must_use]
pub fn run_circuit_range(
    info: &BenchmarkInfo,
    args: &ExpArgs,
    range: Range<usize>,
) -> CircuitAccum {
    fold_one(CircuitJob::registry(info, args.model), args, range).1
}

/// [`run_circuit_range`] with the cover already prepared: a one-job
/// pooled fold over a cover the caller holds.
#[must_use]
pub fn run_circuit_range_on(cover: &Cover, args: &ExpArgs, range: Range<usize>) -> CircuitAccum {
    fold_one(CircuitJob::cover(cover, args.model), args, range).1
}

/// Builds the report row for one circuit from its (possibly merged)
/// accumulator — the single aggregation path shared by the monolithic and
/// sharded runs.
#[must_use]
pub fn row_from_accum(info: &BenchmarkInfo, cover: &Cover, accum: &CircuitAccum) -> Table2Row {
    row_from_facts(info, LayoutFacts::of(cover), accum)
}

/// [`row_from_accum`] from the layout facts a pooled fold kept.
fn row_from_facts(info: &BenchmarkInfo, facts: LayoutFacts, accum: &CircuitAccum) -> Table2Row {
    Table2Row {
        name: info.name.to_owned(),
        inputs: info.inputs,
        outputs: facts.outputs,
        products: facts.products,
        area: facts.area,
        area_published: info.area,
        inclusion_ratio: facts.inclusion_ratio,
        ir_published: info.ir_percent.map(|p| p / 100.0),
        hba_success: accum.hba.rate(),
        hba_time: accum.hba_time.mean(),
        ea_success: accum.ea.rate(),
        ea_time: accum.ea_time.mean(),
        hba_published: info.hba.map(|(p, t)| (p / 100.0, t)),
        ea_published: info.ea.map(|(p, t)| (p / 100.0, t)),
    }
}

/// Runs the Table II experiment for one circuit.
#[must_use]
pub fn run_circuit(info: &BenchmarkInfo, args: &ExpArgs) -> Table2Row {
    let (facts, accum) = fold_one(
        CircuitJob::registry(info, args.model),
        args,
        0..args.samples,
    );
    row_from_facts(info, facts, &accum)
}

/// The circuits eligible for Table II (those with published HBA numbers),
/// in registry order — the default circuit set of the sharded runner.
#[must_use]
pub fn table2_circuit_names() -> Vec<String> {
    registry()
        .iter()
        .filter(|info| info.hba.is_some())
        .map(|info| info.name.to_owned())
        .collect()
}

/// Table II as a registry [`Experiment`]: HBA vs EA success rate and
/// runtime on optimum-size crossbars with stuck-open defects.
#[derive(Debug, Clone, Copy)]
pub struct Table2Experiment;

/// Table II's experiment flags — with `--samples --seed --defect-rate`,
/// the campaign vocabulary of `xbar run table2` and every `xbar mc` verb.
pub(crate) const TABLE2_PARAMS: &[ParamSpec] = &[
    spec(
        "circuits",
        ParamKind::StrList,
        "all",
        "comma-separated registry subset in run order, or `all` for the full Table II set",
    ),
    RNG_STREAM_PARAM,
    DEFECT_MODEL_PARAM,
    CLUSTER_SIZE_PARAM,
    LINE_RATE_PARAM,
];

/// Resolves a `--circuits` list (`all` or a subset) against the Table II
/// circuit set. A subset keeps the **user's order** — the same contract
/// as `xbar mc coordinate --circuits` — so the artifact's circuit array
/// lines up with the request.
///
/// # Errors
///
/// Names the first circuit that is not Table II-eligible or is repeated.
pub fn resolve_circuit_subset(selector: &[String]) -> Result<Vec<String>, ExpError> {
    let eligible = table2_circuit_names();
    if selector == ["all"] {
        return Ok(eligible);
    }
    for (i, name) in selector.iter().enumerate() {
        if !eligible.iter().any(|e| e == name) {
            return Err(ExpError::Usage(format!(
                "--circuits: {name:?} is not a Table II circuit (see `xbar describe table2`)"
            )));
        }
        if selector[..i].contains(name) {
            return Err(ExpError::Usage(format!(
                "--circuits: {name:?} listed twice"
            )));
        }
    }
    Ok(selector.to_vec())
}

impl Experiment for Table2Experiment {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn description(&self) -> &'static str {
        "Table II: HBA vs EA success rate and runtime on optimum-size crossbars \
         with stuck-open defects"
    }

    fn extra_params(&self) -> &'static [ParamSpec] {
        TABLE2_PARAMS
    }

    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
        let circuits = resolve_circuit_subset(params.list("circuits"))?;
        let args = params.exp_args();
        reporter.line(format!(
            "running {} samples/circuit at defect rate {:.0}% (seed {})...",
            args.samples,
            args.defect_rate * 100.0,
            args.seed
        ));
        // Fold every circuit in one pool, keeping the integer accumulators:
        // the artifact carries exact success counts, not rates
        // reconstructed from f64s.
        let infos: Vec<&BenchmarkInfo> = circuits
            .iter()
            .map(|name| find(name).expect("subset resolved against the registry"))
            .collect();
        let jobs: Vec<CircuitJob<'_>> = infos
            .iter()
            .map(|info| CircuitJob::registry(info, args.model))
            .collect();
        let (rows, accums): (Vec<Table2Row>, Vec<CircuitAccum>) = infos
            .iter()
            .zip(fold_circuits(&jobs, &args, 0..args.samples))
            .map(|(info, (facts, accum))| (row_from_facts(info, facts, &accum), accum))
            .unzip();

        let mut table = Table::new(
            &format!(
                "Table II — HBA vs EA on optimum-size crossbars \
                 (EA time measured on every {EA_TIMING_STRIDE}th trial)"
            ),
            &[
                "name",
                "I",
                "O",
                "P",
                "area",
                "area paper",
                "IR%",
                "IR% paper",
                "HBA Psucc%",
                "paper",
                "HBA time s",
                "paper",
                "EA Psucc%",
                "paper",
                "EA time s",
                "paper",
            ],
        );
        for r in &rows {
            table.row([
                r.name.clone(),
                r.inputs.to_string(),
                r.outputs.to_string(),
                r.products.to_string(),
                r.area.to_string(),
                r.area_published.to_string(),
                pct(r.inclusion_ratio),
                r.ir_published.map_or("-".into(), pct),
                pct(r.hba_success),
                r.hba_published.map_or("-".into(), |(p, _)| pct(p)),
                secs(r.hba_time),
                r.hba_published.map_or("-".into(), |(_, t)| secs(t)),
                pct(r.ea_success),
                r.ea_published.map_or("-".into(), |(p, _)| pct(p)),
                secs(r.ea_time),
                r.ea_published.map_or("-".into(), |(_, t)| secs(t)),
            ]);
        }
        reporter.table(&table);

        let max_ratio = rows
            .iter()
            .filter(|r| r.hba_time > 0.0)
            .map(|r| (r.ea_time / r.hba_time, &r.name))
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map_or_else(|| "-".to_owned(), |(x, name)| format!("{x:.1}, on {name}"));
        let worst_gap = rows
            .iter()
            .map(|r| r.ea_success - r.hba_success)
            .fold(0.0, f64::max);
        reporter.line(format!(
            "HBA vs EA runtime: EA/HBA time ratio up to {max_ratio} \
             (paper: 1–2 orders of magnitude on large circuits)"
        ));
        reporter.line(format!(
            "largest EA−HBA success gap: {:.0} percentage points (paper: up to ~15)",
            worst_gap * 100.0
        ));
        write_csv_if_requested(params, reporter, &table)?;

        Ok(Artifact::new(table2_artifact_data(&rows, &accums)))
    }
}

/// Builds the Table II artifact `data` block from report rows and their
/// accumulators: seed-deterministic statistics only (success counters are
/// integers, layout quantities are exact) — wall-clock runtimes stay in
/// the human table so the document is byte-identical across hosts, runs,
/// and shard layouts. Shared by [`Table2Experiment::run`] and the serving
/// daemon, which rebuilds the identical artifact from coordinator-merged
/// accumulators (the merge is integer-exact, so the bytes cannot differ).
///
/// # Panics
///
/// Panics when `rows` and `accums` disagree in length — they must come
/// from the same per-circuit fold.
#[must_use]
pub fn table2_artifact_data(rows: &[Table2Row], accums: &[CircuitAccum]) -> JsonValue {
    assert_eq!(rows.len(), accums.len(), "one accumulator per row");
    JsonValue::obj([(
        "circuits",
        JsonValue::arr(rows.iter().zip(accums).map(|(r, accum)| {
            JsonValue::obj([
                ("name", JsonValue::str(r.name.clone())),
                ("inputs", JsonValue::usize(r.inputs)),
                ("outputs", JsonValue::usize(r.outputs)),
                ("products", JsonValue::usize(r.products)),
                ("area", JsonValue::usize(r.area)),
                ("area_published", JsonValue::usize(r.area_published)),
                ("inclusion_ratio", JsonValue::f64(r.inclusion_ratio)),
                ("samples", JsonValue::u64(accum.samples())),
                ("hba_successes", JsonValue::u64(accum.hba.successes)),
                ("hba_success_rate", JsonValue::f64(accum.hba.rate())),
                ("ea_successes", JsonValue::u64(accum.ea.successes)),
                ("ea_success_rate", JsonValue::f64(accum.ea.rate())),
            ])
        })),
    )])
}

/// Rebuilds the rendered canonical Table II artifact from merged
/// per-circuit accumulators — the one reconstruction path shared by the
/// serving daemon and the multi-host launcher, so neither can drift from
/// the other (or from `xbar run table2`, whose artifact these bytes must
/// equal: the merge is integer-exact and the layout quantities are
/// seed-deterministic).
///
/// # Errors
///
/// Reports a circuit name missing from the benchmark registry.
pub fn table2_artifact_from_accums(
    circuits: &[(String, CircuitAccum)],
    seed: u64,
    exp: &dyn Experiment,
    params: &Params,
) -> Result<String, String> {
    let mut rows = Vec::with_capacity(circuits.len());
    let mut accums = Vec::with_capacity(circuits.len());
    for (name, accum) in circuits {
        let info = find(name).map_err(|e| format!("registry lookup for {name:?}: {e}"))?;
        let cover = info.mapping_cover(seed);
        rows.push(row_from_accum(info, &cover, accum));
        accums.push(*accum);
    }
    Ok(Artifact::new(table2_artifact_data(&rows, &accums)).render(exp, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_seed;
    use xbar_logic::bench_reg::find;

    fn quick_args() -> ExpArgs {
        ExpArgs {
            samples: 40,
            seed: 5,
            defect_rate: 0.10,
            ..ExpArgs::default()
        }
    }

    #[test]
    fn small_easy_circuit_maps_nearly_always() {
        // misex1: published 100%/100% at 10% defects.
        let row = run_circuit(find("misex1").expect("registered"), &quick_args());
        assert_eq!(row.area, 570);
        assert!(row.hba_success >= 0.9, "hba {}", row.hba_success);
        assert!(row.ea_success >= row.hba_success);
    }

    #[test]
    fn rd73_shows_the_hba_ea_gap_direction() {
        // Published: HBA 78%, EA 92% — EA must not be below HBA.
        let row = run_circuit(find("rd73").expect("registered"), &quick_args());
        assert!(row.ea_success >= row.hba_success);
        assert_eq!(row.area_published, 2600);
        assert_eq!(row.products, 127, "exact rd73 minimizes to 127 products");
    }

    #[test]
    fn hba_does_a_tenth_of_eas_work_on_a_large_circuit() {
        // The paper's HBA-vs-EA speed claim, stated on work rather than
        // wall-clock: over ex1010's first table2 samples HBA performs at
        // most a tenth of EA's row-compatibility checks.
        let args = quick_args();
        let cover = find("ex1010").expect("registered").mapping_cover(args.seed);
        let fm = FunctionMatrix::from_cover(&cover);
        let mut cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
        let mut engine = MatchEngine::new();
        let (mut hba, mut ea) = (0, 0);
        for i in 0..5 {
            let mut rng: rand::rngs::StdRng =
                rand::SeedableRng::seed_from_u64(sample_seed(mc_seed(args.seed), i));
            DefectSampler::v1().resample(&mut cm, args.defect_rate, &mut rng);
            hba += engine.hybrid_success(&fm, &cm).1.compatibility_checks;
            ea += engine.exact_success(&fm, &cm).1.compatibility_checks;
        }
        assert!(hba * 10 <= ea, "HBA {hba} vs EA {ea} compatibility checks");
    }

    #[test]
    fn sharded_ranges_merge_to_the_monolithic_accumulator_counts() {
        let info = find("rd53").expect("registered");
        let args = ExpArgs {
            samples: 30,
            ..quick_args()
        };
        let whole = run_circuit_range(info, &args, 0..30);
        let mut merged = CircuitAccum::new();
        for pair in [0usize, 7, 19, 30].windows(2) {
            merged.merge(&run_circuit_range(info, &args, pair[0]..pair[1]));
        }
        // Success decisions are seed-deterministic: integer-exact match.
        assert_eq!(merged.hba, whole.hba);
        assert_eq!(merged.ea, whole.ea);
        // Runtimes are wall-clock, but their counts must still line up.
        assert_eq!(merged.hba_time.count, whole.hba_time.count);
        assert_eq!(merged.ea_time.count, whole.ea_time.count);
    }

    #[test]
    fn table2_circuit_names_match_the_registry_filter() {
        let names = table2_circuit_names();
        assert!(names.iter().any(|n| n == "rd53"));
        assert_eq!(
            names.len(),
            registry().iter().filter(|i| i.hba.is_some()).count()
        );
    }
}
