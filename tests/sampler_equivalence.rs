//! Property tests pinning the [`SampleStream::V2`] geometric-skip sampler
//! to the dense defect-map semantics: whatever shortcuts V2 takes through
//! the RNG, the matrix it produces must be indistinguishable from placing
//! the same defects one [`CrossbarMatrix::set_defective`] call at a time —
//! row words AND column bitplanes, word for word, across the 64-row plane
//! boundary. Both streams are pinned to their definitions too: V1 to one
//! `random_bool` per crosspoint, V2 to its threshold count and ln tail,
//! on both of its marking paths. V1/V2 divergence and in-place resample
//! identity are covered over arbitrary shapes too, and a batch draw
//! (`DefectSampler::resample_batch`, four-lane V1 kernel included) is
//! pinned to the same definitions map by map.

use memristive_xbar_repro::core::{
    CrossbarMatrix, DefectModelKind, DefectModelSpec, DefectSampler, SampleStream,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rebuilds `cm` defect-by-defect through the public mutation API and
/// returns the copy — the reference the word-parallel construction paths
/// must match exactly.
fn dense_reconstruction(cm: &CrossbarMatrix) -> CrossbarMatrix {
    let mut rebuilt = CrossbarMatrix::perfect(cm.num_rows(), cm.num_cols());
    for r in 0..cm.num_rows() {
        for c in 0..cm.num_cols() {
            if !cm.row(r).get(c) {
                rebuilt.set_defective(r, c);
            }
        }
    }
    rebuilt
}

/// The [`SampleStream::V1`] stream by its definition: one
/// `rng.random_bool(rate)` per crosspoint in row-major order, each hit
/// placed with [`CrossbarMatrix::set_defective`].
fn v1_by_definition(rows: usize, cols: usize, rate: f64, rng: &mut StdRng) -> CrossbarMatrix {
    let mut cm = CrossbarMatrix::perfect(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if rng.random_bool(rate) {
                cm.set_defective(r, c);
            }
        }
    }
    cm
}

/// The [`SampleStream::V2`] stream by its definition. With `q = 1 − rate`
/// and the thresholds `t_k = ⌊q^(k+1)·2³²⌋`, k = 0..63, built by the
/// iterated `f64` product, each `next_u64` gives two 32-bit draws, the low
/// half first. A draw decodes to the gap `#{k : raw < t_k}`, which at 64
/// becomes `max(64, ⌊ln((raw + 1)/2³²)/ln q⌋)`. Each gap skips that many
/// functional crosspoints in row-major order and places one defect with
/// [`CrossbarMatrix::set_defective`]; the draw whose gap reaches past the
/// last crosspoint ends the map. A rate of NaN, at most 0, or too small
/// to move `q` off 1 draws nothing and leaves the map perfect; a rate of
/// at least 1 draws nothing and fails every crosspoint.
fn v2_by_definition(rows: usize, cols: usize, rate: f64, rng: &mut StdRng) -> CrossbarMatrix {
    const TWO32: f64 = 4_294_967_296.0;
    let mut cm = CrossbarMatrix::perfect(rows, cols);
    let n = rows * cols;
    if n == 0 || rate.is_nan() || rate <= 0.0 || 1.0 - rate >= 1.0 {
        return cm;
    }
    if rate >= 1.0 {
        for cell in 0..n {
            cm.set_defective(cell / cols, cell % cols);
        }
        return cm;
    }
    let q = 1.0 - rate;
    let mut p = 1.0f64;
    let thresholds: Vec<u32> = (0..64)
        .map(|_| {
            p *= q;
            (p * TWO32) as u32
        })
        .collect();
    let gap = |raw: u32| {
        let count = thresholds.iter().filter(|&&t| raw < t).count();
        if count < 64 {
            return count;
        }
        let u = (f64::from(raw) + 1.0) / TWO32;
        ((u.ln() / q.ln()) as usize).max(64)
    };
    let mut next = 0; // the first crosspoint not yet decided
    loop {
        let wide = rng.next_u64();
        for raw in [wide as u32, (wide >> 32) as u32] {
            let g = gap(raw);
            if g >= n - next {
                return cm;
            }
            let cell = next + g;
            cm.set_defective(cell / cols, cell % cols);
            next = cell + 1;
        }
    }
}

fn assert_words_identical(a: &CrossbarMatrix, b: &CrossbarMatrix) -> Result<(), TestCaseError> {
    for r in 0..a.num_rows() {
        prop_assert_eq!(a.row(r), b.row(r), "row {} differs", r);
    }
    prop_assert_eq!(a.plane_words(), b.plane_words());
    for c in 0..a.num_cols() {
        prop_assert_eq!(
            a.defect_plane(c),
            b.defect_plane(c),
            "column {} bitplane differs",
            c
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// A V2-sampled matrix is bit-identical to its own dense
    /// reconstruction: the fast scatter/transpose construction paths and
    /// the per-cell mutation API agree on every row word and every plane
    /// word, for shapes on both sides of the 64-row and 64-column word
    /// boundaries.
    #[test]
    fn v2_sample_equals_dense_reconstruction(
        rows in 1usize..=100,
        cols in 1usize..=80,
        rate_millis in 0u64..=1000,
        seed in 0u64..u64::MAX,
    ) {
        let rate = rate_millis as f64 / 1000.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let cm = DefectSampler::v2().sample(rows, cols, rate, &mut rng);
        assert_words_identical(&cm, &dense_reconstruction(&cm))?;
    }

    /// The V1 sampler equals its definition: every row word and every
    /// plane word match the per-cell reference, and the generator ends in
    /// the same state, for shapes on both sides of the 64-row and
    /// 64-column word boundaries and for rates at and beyond the ends of
    /// `[0, 1]`, NaN included.
    #[test]
    fn v1_sample_equals_its_definition(
        rows in 0usize..=140,
        cols in 0usize..=140,
        rate_millis in 0u64..=1000,
        special in 0usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let rate = match special {
            0 => 0.0,
            1 => 1.0,
            2 => 1.5,
            3 => -0.25,
            4 => f64::NAN,
            _ => rate_millis as f64 / 1000.0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        let cm = DefectSampler::v1().sample(rows, cols, rate, &mut rng);
        let reference = v1_by_definition(rows, cols, rate, &mut reference_rng);
        assert_words_identical(&cm, &reference)?;
        prop_assert_eq!(rng, reference_rng, "the generator ends in another state");
    }

    /// The V2 sampler equals its definition on the linear-buffer path
    /// (up to 2¹⁵ crosspoints): every row word and every plane word match
    /// the per-defect reference, and the generator ends in the same state,
    /// for shapes on both sides of the 64-row and 64-column word
    /// boundaries, for the tail regime's rates (most gaps reach 64 at
    /// 10⁻⁴ and 0.003), and for rates at and beyond the ends of `[0, 1]`,
    /// NaN included. Consecutive cases change the rate, so each case also
    /// rebuilds the sampler's per-thread gap table.
    #[test]
    fn v2_sample_equals_its_definition(
        rows in 0usize..=140,
        cols in 0usize..=140,
        rate_millis in 0u64..=1000,
        special in 0usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let rate = match special {
            0 => 0.0,
            1 => 1.0,
            2 => 1.5,
            3 => f64::NAN,
            4 => 1e-4,
            5 => 0.003,
            6 => 0.9,
            7 => -0.25,
            8 => 1e-20,
            _ => rate_millis as f64 / 1000.0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        let cm = DefectSampler::v2().sample(rows, cols, rate, &mut rng);
        let reference = v2_by_definition(rows, cols, rate, &mut reference_rng);
        assert_words_identical(&cm, &reference)?;
        prop_assert_eq!(rng, reference_rng, "the generator ends in another state");
    }

    /// In-place V2 resample over an arbitrary dirty buffer (a prior draw
    /// of a different rate and stream) equals a fresh V2 sample from the
    /// same RNG state — the zero-allocation Monte Carlo path cannot leak
    /// state between trials.
    #[test]
    fn v2_resample_from_dirty_buffer_equals_fresh_sample(
        rows in 1usize..=100,
        cols in 1usize..=80,
        rate_millis in 0u64..=1000,
        seed in 0u64..u64::MAX,
    ) {
        let rate = rate_millis as f64 / 1000.0;
        let mut dirty = DefectSampler::v1().sample(
            rows,
            cols,
            0.5,
            &mut StdRng::seed_from_u64(seed ^ 0xD1B7),
        );
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        DefectSampler::v2().resample(&mut dirty, rate, &mut rng_a);
        let fresh = DefectSampler::v2().sample(rows, cols, rate, &mut rng_b);
        assert_words_identical(&dirty, &fresh)?;
    }

    /// Every spatial defect model keeps the row-word / column-bitplane
    /// transpose invariant: a sampled matrix is bit-identical to its own
    /// dense per-cell reconstruction, for shapes on both sides of the
    /// 64-row and 64-column word boundaries — and the in-place resample
    /// over a dirty buffer equals the fresh sample for every model too.
    #[test]
    fn every_model_sample_equals_dense_reconstruction(
        rows in 1usize..=100,
        cols in 1usize..=80,
        rate_millis in 0u64..=1000,
        cluster_tenths in 10u32..=120,
        line_millis in 0u32..=1000,
        model_idx in 0usize..DefectModelKind::ALL.len(),
        stream_idx in 0usize..SampleStream::ALL.len(),
        seed in 0u64..u64::MAX,
    ) {
        let spec = DefectModelSpec::new(
            DefectModelKind::ALL[model_idx],
            f64::from(cluster_tenths) / 10.0,
            f64::from(line_millis) / 1000.0,
        ).expect("in-range parameters");
        let sampler = DefectSampler::with_model(SampleStream::ALL[stream_idx], spec);
        let rate = rate_millis as f64 / 1000.0;
        let cm = sampler.sample(rows, cols, rate, &mut StdRng::seed_from_u64(seed));
        assert_words_identical(&cm, &dense_reconstruction(&cm))?;

        let mut dirty = DefectSampler::v1().sample(
            rows,
            cols,
            0.5,
            &mut StdRng::seed_from_u64(seed ^ 0xD1B7),
        );
        sampler.resample(&mut dirty, rate, &mut StdRng::seed_from_u64(seed));
        assert_words_identical(&dirty, &cm)?;
    }

    /// The composite model is *exactly* the clustered cell model followed
    /// by the line-fault fill on one RNG — no hidden reseeding or draw
    /// reordering between the layers.
    #[test]
    fn composite_equals_clustered_then_line_fill(
        rows in 1usize..=100,
        cols in 1usize..=80,
        rate_millis in 0u64..=1000,
        cluster_tenths in 10u32..=120,
        line_millis in 0u32..=1000,
        seed in 0u64..u64::MAX,
    ) {
        let cluster = f64::from(cluster_tenths) / 10.0;
        let line_rate = f64::from(line_millis) / 1000.0;
        let rate = rate_millis as f64 / 1000.0;
        let composite = DefectModelSpec::new(DefectModelKind::Composite, cluster, line_rate)
            .expect("in-range parameters");
        let cm = DefectSampler::with_model(SampleStream::V1, composite)
            .sample(rows, cols, rate, &mut StdRng::seed_from_u64(seed));

        let clustered = DefectModelSpec::new(DefectModelKind::Clustered, cluster, 0.0)
            .expect("in-range parameters");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut manual = DefectSampler::with_model(SampleStream::V1, clustered)
            .sample(rows, cols, rate, &mut rng);
        // The line layer by hand: one draw per row, then one per column.
        for r in 0..rows {
            if rng.random_bool(line_rate) {
                (0..cols).for_each(|c| manual.set_defective(r, c));
            }
        }
        for c in 0..cols {
            if rng.random_bool(line_rate) {
                (0..rows).for_each(|r| manual.set_defective(r, c));
            }
        }
        assert_words_identical(&cm, &manual)?;
    }

    /// The clustered renewal process hits its target long-run defect
    /// fraction: over a large plane the empirical rate converges to `rate`
    /// for any mean cluster size (the entry probability derivation is
    /// correct, not just plausible).
    #[test]
    fn clustered_empirical_rate_converges_to_the_target(
        rate_centis in 5u32..=50,
        cluster_tenths in 10u32..=80,
        seed in 0u64..u64::MAX,
    ) {
        let rate = f64::from(rate_centis) / 100.0;
        let cluster = f64::from(cluster_tenths) / 10.0;
        let spec = DefectModelSpec::new(DefectModelKind::Clustered, cluster, 0.0)
            .expect("in-range parameters");
        let (rows, cols) = (200, 200);
        let cm = DefectSampler::with_model(SampleStream::V1, spec)
            .sample(rows, cols, rate, &mut StdRng::seed_from_u64(seed));
        let observed = 1.0 - cm.functional_fraction();
        // Clustering inflates the variance of the occupancy fraction by
        // roughly (2·cluster − 1): bound the deviation at six of those
        // standard errors plus a small absolute floor.
        let cells = (rows * cols) as f64;
        let sd = (rate * (1.0 - rate) * (2.0 * cluster - 1.0) / cells).sqrt();
        prop_assert!(
            (observed - rate).abs() <= 6.0 * sd + 0.005,
            "target {rate}, cluster {cluster}: observed {observed} (sd {sd})"
        );
    }

    /// A batch draw equals the per-map draws it stands for: each of 0–9
    /// maps, drawn over a dirty buffer, equals its stream's definition
    /// (i.i.d. V1 and V2) or a per-map `resample` (the other models) from
    /// `StdRng::seed_from_u64(seeds[l])`, for shapes on both sides of the
    /// 64-row and 64-column word edges, zero-sized ones included, and for
    /// rates at and beyond the ends of `[0, 1]`, NaN included. On an AVX2
    /// host the i.i.d. V1 groups of two to four maps of one shape run the
    /// four-lane kernel; a group holding a mixed-shape batch's transposed
    /// last map, and every other model, take the per-map fallback.
    #[test]
    fn resample_batch_equals_each_maps_own_draw(
        maps in 0usize..=9,
        rows in 0usize..=140,
        cols in 0usize..=140,
        rate_millis in 0u64..=1000,
        special in 0usize..12,
        model_idx in 0usize..=DefectModelKind::ALL.len(),
        mixed in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let rate = match special {
            0 => 0.0,
            1 => 1.0,
            2 => 1.5,
            3 => -0.25,
            4 => f64::NAN,
            _ => rate_millis as f64 / 1000.0,
        };
        // `model_idx` past the last model picks i.i.d. V2.
        let sampler = match DefectModelKind::ALL.get(model_idx) {
            Some(&kind) => DefectSampler::with_model(
                SampleStream::V1,
                DefectModelSpec::new(kind, 2.5, 0.1).expect("in-range parameters"),
            ),
            None => DefectSampler::v2(),
        };
        let shape = |l: usize| if mixed && l + 1 == maps { (cols, rows) } else { (rows, cols) };
        let seeds: Vec<u64> = (0..maps as u64).map(|l| seed.wrapping_add(l)).collect();
        let mut dirty = StdRng::seed_from_u64(seed ^ 0xD1B7);
        let mut cms: Vec<CrossbarMatrix> = (0..maps)
            .map(|l| DefectSampler::v1().sample(shape(l).0, shape(l).1, 0.5, &mut dirty))
            .collect();
        sampler.resample_batch(&mut cms, rate, &seeds);
        for (l, (cm, &seed)) in cms.iter().zip(&seeds).enumerate() {
            let (r, c) = shape(l);
            let mut rng = StdRng::seed_from_u64(seed);
            let want = if sampler == DefectSampler::v1() {
                v1_by_definition(r, c, rate, &mut rng)
            } else if sampler == DefectSampler::v2() {
                v2_by_definition(r, c, rate, &mut rng)
            } else {
                sampler.sample(r, c, rate, &mut rng)
            };
            prop_assert_eq!(cm.num_rows(), r);
            prop_assert_eq!(cm.num_cols(), c);
            assert_words_identical(cm, &want)?;
        }
    }

    /// Both streams agree exactly on the expected defect density at the
    /// extremes (0 → perfect, 1 → all-defective), regardless of shape.
    #[test]
    fn streams_agree_at_rate_extremes(
        rows in 1usize..=100,
        cols in 1usize..=80,
        seed in 0u64..u64::MAX,
    ) {
        for stream in SampleStream::ALL {
            let sampler = DefectSampler::new(stream);
            let clean = sampler.sample(rows, cols, 0.0, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(clean.functional_fraction(), 1.0);
            let dead = sampler.sample(rows, cols, 1.0, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(dead.functional_fraction(), 0.0);
        }
    }
}

/// The V2 sampler equals its definition above 2¹⁵ crosspoints, where it
/// places each defect straight into the cleared matrix instead of the
/// linear buffer: single-row, single-column, multi-word-row and square
/// shapes, and the largest shape the linear buffer takes, across the
/// tail regime and dense rates. Each map is drawn into a dirty buffer, so
/// nothing of the previous map may survive.
#[test]
fn v2_large_maps_equal_their_definition() {
    let shapes = [
        (128, 256), // 2¹⁵ crosspoints: the linear buffer's largest
        (1, 32_769),
        (32_769, 1),
        (182, 181),
        (129, 260),
        (300, 120),
        (64, 513),
    ];
    let rates = [1e-4, 0.003, 0.01, 0.1, 0.5, 0.9];
    for (rows, cols) in shapes {
        let mut cm = DefectSampler::v1().sample(rows, cols, 0.5, &mut StdRng::seed_from_u64(7));
        for rate in rates {
            for seed in [1u64, 2018] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference_rng = rng.clone();
                DefectSampler::v2().resample(&mut cm, rate, &mut rng);
                let reference = v2_by_definition(rows, cols, rate, &mut reference_rng);
                let case = format!("{rows}x{cols} at {rate}, seed {seed}");
                assert!(cm == reference, "{case}: the maps differ");
                assert!(
                    rng == reference_rng,
                    "{case}: the generator ends in another state"
                );
            }
        }
    }
}
