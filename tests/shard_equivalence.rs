//! Property tests pinning the sharded Monte Carlo subsystem to the
//! monolithic path: for arbitrary sample counts and shard boundaries,
//! sharding-and-merging must reproduce a monolithic [`monte_carlo`] run
//! exactly — per-sample values, their order, and every aggregate
//! statistic that enters the byte-compared stats artifact — and partial
//! files must round-trip all accumulator state bit-exactly.

use memristive_xbar_repro::core::stats::Moments;
use memristive_xbar_repro::core::{DefectModelKind, DefectModelSpec, SampleStream};
use memristive_xbar_repro::exp::experiments::table2::{
    run_circuit_range, CircuitAccum, EA_TIMING_STRIDE,
};
use memristive_xbar_repro::exp::shard::coordinator::{
    merge_partials, render_stats_json, MergedResult,
};
use memristive_xbar_repro::exp::shard::partial::ShardPartial;
use memristive_xbar_repro::exp::shard::{run_shard, McConfig, ShardSpec};
use memristive_xbar_repro::exp::{monte_carlo, monte_carlo_range, sample_seed, ExpArgs};
use memristive_xbar_repro::logic::bench_reg::find;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Deterministic synthetic observation for global sample `i`: a pure
/// function of the per-sample seed, standing in for "run the mapper" so
/// the property can afford hundreds of cases. As with the mapper, an HBA
/// success is an EA success.
fn observe(experiment_seed: u64, i: usize) -> (bool, f64, bool, f64) {
    let s = sample_seed(experiment_seed, i);
    let hba_ok = !s.is_multiple_of(3);
    let ea_ok = hba_ok || !s.is_multiple_of(5);
    // Strictly positive, wide dynamic range, always finite.
    let hba_secs = ((s >> 11) as f64 + 1.0) / 9.007_199_254_740_992e15;
    let ea_secs = ((s >> 23) as f64 + 1.0) / 9.007_199_254_740_992e15;
    (hba_ok, hba_secs, ea_ok, ea_secs)
}

/// Folds the observations as Table II does: HBA timed on every trial, EA
/// only on the global indices that are multiples of `EA_TIMING_STRIDE`.
fn fold(experiment_seed: u64, range: std::ops::Range<usize>) -> CircuitAccum {
    let mut accum = CircuitAccum::new();
    for i in range {
        let (hba_ok, hba_secs, ea_ok, ea_secs) = observe(experiment_seed, i);
        accum.hba.push(hba_ok);
        accum.ea.push(ea_ok);
        accum.hba_time.push(hba_secs);
        if i % EA_TIMING_STRIDE == 0 {
            accum.ea_time.push(ea_secs);
        }
    }
    accum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Sharded `monte_carlo_range` calls concatenated in partition order
    /// are identical to one monolithic `monte_carlo` call: same values,
    /// same order, for any sample count and shard count.
    #[test]
    fn sharded_values_and_order_match_monolithic(
        samples in 0usize..150,
        shards in 1usize..10,
        seed in 0u64..u64::MAX,
    ) {
        let whole = monte_carlo(samples, seed, |i, s| (i, s));
        let mut stitched = Vec::with_capacity(samples);
        for spec in ShardSpec::partition(samples, shards) {
            stitched.extend(monte_carlo_range(spec.range(), seed, |i, s| (i, s)));
        }
        prop_assert_eq!(stitched, whole);
    }

    /// Folding each shard's slice and merging reproduces the monolithic
    /// fold: integer statistics exactly, the stats artifact byte for
    /// byte, and partial files round-trip every accumulator field
    /// bit-exactly along the way.
    #[test]
    fn sharded_accumulators_merge_to_the_monolithic_statistics(
        samples in 0usize..150,
        shards in 1usize..10,
        seed in 0u64..u64::MAX,
        defect_bits in 1u64..1000,
        stream_idx in 0usize..SampleStream::ALL.len(),
        model_idx in 0usize..DefectModelKind::ALL.len(),
        cluster_tenths in 10u32..200,
        line_millis in 0u32..=1000,
    ) {
        // Both streams and all four spatial models run through the
        // identical merge/round-trip path; V2 configs exercise the
        // `rng_stream` echo, non-default models the `defect_model` /
        // `cluster_size` / `line_rate` echoes (defaults omit them all to
        // stay byte-frozen).
        let model = DefectModelSpec::new(
            DefectModelKind::ALL[model_idx],
            f64::from(cluster_tenths) / 10.0,
            f64::from(line_millis) / 1000.0,
        ).expect("in-range parameters");
        let config = McConfig {
            samples,
            seed,
            defect_rate: defect_bits as f64 / 1000.0,
            stream: SampleStream::ALL[stream_idx],
            model,
            circuits: vec!["synthetic".to_owned()],
        };
        let mono = fold(seed, 0..samples);

        let partials: Vec<ShardPartial> = ShardSpec::partition(samples, shards)
            .into_iter()
            .map(|spec| {
                let partial = ShardPartial {
                    config: config.clone(),
                    spec,
                    circuits: vec![("synthetic".to_owned(), fold(seed, spec.range()))],
                };
                // Round-trip through the on-disk representation, so the
                // property covers writer + parser bit-exactness too.
                let back = ShardPartial::from_json(&partial.to_json()).expect("round-trips");
                prop_assert_eq!(&back, &partial);
                let (_, a) = &partial.circuits[0];
                let (_, b) = &back.circuits[0];
                prop_assert_eq!(a.hba_time.mean.to_bits(), b.hba_time.mean.to_bits());
                prop_assert_eq!(a.hba_time.m2.to_bits(), b.hba_time.m2.to_bits());
                Ok(back)
            })
            .collect::<Result<_, TestCaseError>>()?;

        let merged = merge_partials(&config, &partials).expect("valid partition merges");
        let (_, accum) = &merged.circuits[0];

        // Integer-derived statistics: exact.
        prop_assert_eq!(accum.hba, mono.hba);
        prop_assert_eq!(accum.ea, mono.ea);
        prop_assert_eq!(accum.hba_time.count, mono.hba_time.count);
        prop_assert_eq!(accum.ea_time.count, mono.ea_time.count);

        // The byte-compared artifact: identical for every shard layout.
        let mono_result = MergedResult {
            config: config.clone(),
            circuits: vec![("synthetic".to_owned(), mono)],
        };
        prop_assert_eq!(render_stats_json(&merged), render_stats_json(&mono_result));

        // Welford/Chan moments: merge-order-deterministic and equal to the
        // sequential fold up to floating-point rounding.
        prop_assert!((accum.hba_time.mean() - mono.hba_time.mean()).abs() <= 1e-12);
        prop_assert!((accum.ea_time.mean() - mono.ea_time.mean()).abs() <= 1e-12);
        prop_assert!(
            (accum.hba_time.variance() - mono.hba_time.variance()).abs()
                <= 1e-12 * (1.0 + mono.hba_time.variance())
        );
    }

    /// Welford merge is associative enough for re-merging merged shards
    /// (a two-level coordinator tree): integer stats stay exact.
    #[test]
    fn two_level_merges_keep_integer_stats_exact(
        samples in 1usize..120,
        split in 1usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let mono = fold(seed, 0..samples);
        let specs = ShardSpec::partition(samples, split + 1);
        // First merge shard pairs, then merge the pair-results.
        let mut top = CircuitAccum::new();
        for pair in specs.chunks(2) {
            let mut level = CircuitAccum::new();
            for spec in pair {
                level.merge(&fold(seed, spec.range()));
            }
            top.merge(&level);
        }
        prop_assert_eq!(top.hba, mono.hba);
        prop_assert_eq!(top.ea, mono.ea);
        prop_assert_eq!(top.samples(), mono.samples());
        prop_assert!((top.hba_time.mean() - mono.hba_time.mean()).abs() <= 1e-12);
    }
}

#[test]
fn moments_merge_handles_the_empty_shard_edge() {
    // 3 samples over 7 shards: four shards are empty, and their Moments
    // must merge as identities without producing NaN.
    let seed = 99;
    let mono = fold(seed, 0..3);
    let mut merged = CircuitAccum::new();
    for spec in ShardSpec::partition(3, 7) {
        merged.merge(&fold(seed, spec.range()));
    }
    assert_eq!(merged.hba, mono.hba);
    assert_eq!(merged.hba_time.count, 3);
    assert!(merged.hba_time.mean().is_finite());
    let empty = Moments::new();
    assert_eq!(empty.mean(), 0.0, "empty moments stay NaN-free");
}

/// Table II times EA on the trials whose global sample index is a multiple
/// of `EA_TIMING_STRIDE`, and HBA on every trial, whatever the range.
#[test]
fn ea_is_timed_on_global_indices_divisible_by_the_stride() {
    let info = find("rd53").expect("registered");
    let args = ExpArgs {
        samples: 70,
        seed: 5,
        defect_rate: 0.10,
        ..ExpArgs::default()
    };
    for (a, b) in [
        (0, 1),
        (0, 16),
        (0, 17),
        (1, 16),
        (5, 40),
        (17, 31),
        (16, 33),
        (30, 70),
    ] {
        let accum = run_circuit_range(info, &args, a..b);
        let timed = (a..b).filter(|i| i % EA_TIMING_STRIDE == 0).count();
        assert_eq!(accum.samples(), (b - a) as u64, "{a}..{b}");
        assert_eq!(accum.hba_time.count, (b - a) as u64, "{a}..{b}");
        assert_eq!(accum.ea_time.count, timed as u64, "{a}..{b}");
    }
}

/// A shard whose range holds no timed trial carries empty EA moments; its
/// partial still validates, round-trips byte for byte, and merges to the
/// monolithic counts.
#[test]
fn a_shard_without_timed_trials_validates_round_trips_and_merges() {
    let config = McConfig {
        samples: 31,
        seed: 5,
        defect_rate: 0.10,
        stream: SampleStream::V1,
        model: DefectModelSpec::default(),
        circuits: vec!["rd53".to_owned(), "misex1".to_owned()],
    };
    let specs = [
        ShardSpec {
            index: 0,
            num_shards: 2,
            start: 0,
            end: 17,
        },
        ShardSpec {
            index: 1,
            num_shards: 2,
            start: 17,
            end: 31,
        },
    ];
    let timed = |a: usize, b: usize| (a..b).filter(|i| i % EA_TIMING_STRIDE == 0).count() as u64;
    assert_eq!(timed(17, 31), 0, "the second shard holds no timed trial");
    let partials: Vec<ShardPartial> = specs.iter().map(|spec| run_shard(&config, spec)).collect();

    let untimed = &partials[1];
    for (name, accum) in &untimed.circuits {
        assert_eq!(accum.ea_time.count, 0, "{name}");
        assert_eq!(accum.hba_time.count, 14, "{name}");
    }
    untimed
        .validate_for(&config, &specs[1])
        .expect("a shard without timed trials validates");
    let text = untimed.to_json();
    let back = ShardPartial::from_json(&text).expect("round-trips");
    assert_eq!(&back, untimed);
    assert_eq!(back.to_json(), text);

    let merged = merge_partials(&config, &partials).expect("the two shards tile 0..31");
    let mono = run_shard(&config, &ShardSpec::partition(31, 1)[0]);
    for ((name, got), (_, want)) in merged.circuits.iter().zip(&mono.circuits) {
        assert_eq!(got.hba, want.hba, "{name}");
        assert_eq!(got.ea, want.ea, "{name}");
        assert_eq!(got.hba_time.count, want.hba_time.count, "{name}");
        assert_eq!(got.ea_time.count, want.ea_time.count, "{name}");
        assert_eq!(got.ea_time.count, timed(0, 31), "{name}");
    }
    let mono_result = MergedResult {
        config: config.clone(),
        circuits: mono.circuits,
    };
    assert_eq!(render_stats_json(&merged), render_stats_json(&mono_result));
}
