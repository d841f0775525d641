//! Property tests pinning the bitset `MatchEngine` to the pre-refactor
//! dense mappers (kept under `core::reference`):
//!
//! * `map_hybrid` through the engine returns a **byte-identical**
//!   `MappingOutcome` (assignment *and* stats) on randomized FM/CM pairs,
//!   for every `HybridOptions` combination;
//! * EA through the engine succeeds exactly when the dense feasibility
//!   oracle says a mapping exists (EA ≡ feasibility), and any assignment it
//!   returns is valid;
//! * the scratch-reusing entry points agree with the one-shot facades;
//! * the bitplane-built packed adjacency equals the dense
//!   `row_compatible` adjacency word for word on random
//!   (FM, CM, defect-rate) triples;
//! * the success-only HBA entry points, which decide the exact output
//!   stage by a bitset matching instead of Munkres, return the reference's
//!   success and stats on covers with up to 16 outputs;
//! * the Hall fast-fail never changes an EA or feasibility answer
//!   relative to the full-construction engine, and HBA's on-demand
//!   candidate words match the reference at high defect rates too;
//! * on Table II's own covers and per-sample defect maps, including
//!   crossbars several 64-row words tall, HBA outcomes and EA decisions
//!   equal the dense reference sample for sample;
//! * Table II's EA counts, which take EA's answer from HBA successes off
//!   the timing subsample, equal solving EA on every sample under the
//!   non-i.i.d. defect models.

use memristive_xbar_repro::core::bits;
use memristive_xbar_repro::core::{
    map_hybrid, mapping_feasible, reference, row_compatible, CrossbarMatrix, DefectModelKind,
    DefectModelSpec, DefectSampler, FunctionMatrix, HybridOptions, MatchEngine, SampleStream,
};
use memristive_xbar_repro::exp::experiments::table2::{mc_seed, run_circuit_range};
use memristive_xbar_repro::exp::{sample_seed, ExpArgs};
use memristive_xbar_repro::logic::bench_reg::find;
use memristive_xbar_repro::logic::{Cover, Cube, Phase};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a randomized multi-output cover from packed generator state: each
/// cube gets random literals over `inputs` variables and a non-empty random
/// output membership over `outputs`.
fn random_cover(inputs: usize, outputs: usize, cubes: usize, seed: u64) -> Cover {
    let mut state = seed ^ 0xC0FE_BABE;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let cube_list: Vec<Cube> = (0..cubes)
        .map(|_| {
            let mut cube = Cube::universe(inputs, outputs);
            let mut any_literal = false;
            for var in 0..inputs {
                match next() % 3 {
                    0 => {
                        cube.set_literal(var, Phase::Positive);
                        any_literal = true;
                    }
                    1 => {
                        cube.set_literal(var, Phase::Negative);
                        any_literal = true;
                    }
                    _ => {}
                }
            }
            if !any_literal {
                cube.set_literal((next() % inputs as u64) as usize, Phase::Positive);
            }
            let mut any_output = false;
            for o in 0..outputs {
                let member = next() % 2 == 0;
                cube.set_output(o, member);
                any_output |= member;
            }
            if !any_output {
                cube.set_output((next() % outputs as u64) as usize, true);
            }
            cube
        })
        .collect();
    Cover::from_cubes(inputs, outputs, cube_list).expect("matching dims")
}

/// Samples a crossbar matrix for `fm` with `spare` extra rows.
fn random_cm(fm: &FunctionMatrix, spare: usize, rate: f64, seed: u64) -> CrossbarMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    DefectSampler::v1().sample(fm.num_rows() + spare, fm.num_cols(), rate, &mut rng)
}

const ALL_OPTIONS: [HybridOptions; 4] = [
    HybridOptions {
        backtracking: true,
        exact_outputs: true,
    },
    HybridOptions {
        backtracking: true,
        exact_outputs: false,
    },
    HybridOptions {
        backtracking: false,
        exact_outputs: true,
    },
    HybridOptions {
        backtracking: false,
        exact_outputs: false,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// The engine's HBA is byte-identical (assignment + stats) to the
    /// pre-refactor dense algorithm, across all option combinations, with
    /// one engine reused for the whole case.
    #[test]
    fn hybrid_outcomes_are_byte_identical(
        inputs in 2usize..6,
        outputs in 1usize..4,
        cubes in 1usize..8,
        spare in 0usize..3,
        rate in 0.0f64..0.35,
        seed in 0u64..1_000_000,
    ) {
        let cover = random_cover(inputs, outputs, cubes, seed);
        let fm = FunctionMatrix::from_cover(&cover);
        let cm = random_cm(&fm, spare, rate, seed);
        let mut engine = MatchEngine::new();
        for options in ALL_OPTIONS {
            let expected = reference::map_hybrid_with(&fm, &cm, options);
            let via_engine = engine.map_hybrid_with(&fm, &cm, options);
            prop_assert_eq!(&via_engine, &expected, "options {:?}", options);
        }
        // The facade and a reused engine agree with the default-options
        // reference as well.
        let expected = reference::map_hybrid(&fm, &cm);
        prop_assert_eq!(&map_hybrid(&fm, &cm), &expected);
        prop_assert_eq!(&engine.map_hybrid(&fm, &cm), &expected);
    }

    /// The success-only HBA path decides the exact output stage by a
    /// bitset matching of the output rows into the free CM rows, where
    /// `map_hybrid_with` solves the matching matrix with Munkres. On covers
    /// with many outputs, its success and stats equal the reference's for
    /// every option combination.
    #[test]
    fn success_only_hybrid_equals_reference_on_many_outputs(
        inputs in 2usize..6,
        outputs in 4usize..17,
        cubes in 1usize..8,
        spare in 0usize..4,
        rate in 0.0f64..0.35,
        seed in 0u64..1_000_000,
    ) {
        let cover = random_cover(inputs, outputs, cubes, seed.wrapping_add(0x16));
        let fm = FunctionMatrix::from_cover(&cover);
        let cm = random_cm(&fm, spare, rate, seed.wrapping_add(0x16));
        let mut engine = MatchEngine::new();
        for options in ALL_OPTIONS {
            let expected = reference::map_hybrid_with(&fm, &cm, options);
            prop_assert_eq!(
                engine.hybrid_success_with(&fm, &cm, options),
                (expected.is_success(), expected.stats),
                "options {:?}",
                options
            );
        }
    }

    /// EA ≡ feasibility: the engine's exact mapper succeeds exactly when
    /// the dense feasibility oracle finds a perfect matching, its
    /// assignments are valid, and every feasibility entry point agrees.
    #[test]
    fn exact_algorithm_equals_feasibility(
        inputs in 2usize..6,
        outputs in 1usize..4,
        cubes in 1usize..8,
        spare in 0usize..3,
        rate in 0.0f64..0.4,
        seed in 0u64..1_000_000,
    ) {
        let cover = random_cover(inputs, outputs, cubes, seed.wrapping_add(0xEA));
        let fm = FunctionMatrix::from_cover(&cover);
        let cm = random_cm(&fm, spare, rate, seed.wrapping_add(0xEA));
        let mut engine = MatchEngine::new();
        let feasible = reference::mapping_feasible(&fm, &cm);
        let ea = engine.map_exact(&fm, &cm);
        prop_assert_eq!(ea.is_success(), feasible, "EA must equal feasibility");
        prop_assert_eq!(reference::map_exact(&fm, &cm).is_success(), feasible);
        prop_assert_eq!(mapping_feasible(&fm, &cm), feasible);
        prop_assert_eq!(engine.feasible(&fm, &cm), feasible);
        if let Some(assignment) = ea.assignment {
            prop_assert!(assignment.is_valid(&fm, &cm));
        }
    }

    /// The word-parallel bitplane construction produces, word for word,
    /// the same packed adjacency the dense `row_compatible` probe sweep
    /// defines — including across the 64-row word boundary (wide spare
    /// range) and with unused top-word bits zero.
    #[test]
    fn bitplane_adjacency_equals_dense_adjacency(
        inputs in 2usize..6,
        outputs in 1usize..4,
        cubes in 1usize..8,
        spare in 0usize..70,
        rate in 0.0f64..0.6,
        seed in 0u64..1_000_000,
    ) {
        let cover = random_cover(inputs, outputs, cubes, seed.wrapping_add(0xB17));
        let fm = FunctionMatrix::from_cover(&cover);
        let cm = random_cm(&fm, spare, rate, seed.wrapping_add(0xB17));
        let r = cm.num_rows();
        let mut engine = MatchEngine::new();
        let (words, cand) = engine.build_adjacency(&fm, &cm);
        prop_assert_eq!(words, bits::words_for(r));
        prop_assert_eq!(cand.len(), fm.num_rows() * words);
        for f in 0..fm.num_rows() {
            let row = &cand[f * words..(f + 1) * words];
            for c in 0..words * 64 {
                let expect = c < r && row_compatible(fm.row(f), &cm.row(c));
                prop_assert_eq!(
                    bits::get_bit(row, c), expect,
                    "fm row {}, cm row {} (r = {})", f, c, r
                );
            }
        }
    }

    /// The Hall fast-fail is invisible in every observable: EA and
    /// feasibility of the fast-fail engine equal those of a
    /// full-construction engine — at defect rates high enough that empty
    /// candidate sets actually occur. HBA, which builds its candidate words
    /// on demand and has no fast-fail, returns the same outcome
    /// (assignment *and* stats) from both engines and the dense reference
    /// for every option combination, including when an output row has no
    /// candidate at all.
    #[test]
    fn hall_fast_fail_never_changes_outcomes(
        inputs in 2usize..6,
        outputs in 1usize..4,
        cubes in 1usize..8,
        spare in 0usize..3,
        rate in 0.2f64..0.9,
        seed in 0u64..1_000_000,
    ) {
        let cover = random_cover(inputs, outputs, cubes, seed.wrapping_add(0xFA57));
        let fm = FunctionMatrix::from_cover(&cover);
        let cm = random_cm(&fm, spare, rate, seed.wrapping_add(0xFA57));
        let mut fast = MatchEngine::new();
        let mut full = MatchEngine::new();
        full.set_fast_fail(false);
        for options in ALL_OPTIONS {
            let via_fast = fast.map_hybrid_with(&fm, &cm, options);
            let via_full = full.map_hybrid_with(&fm, &cm, options);
            prop_assert_eq!(&via_fast, &via_full, "fast vs full, options {:?}", options);
            prop_assert_eq!(
                &via_fast,
                &reference::map_hybrid_with(&fm, &cm, options),
                "fast vs dense reference, options {:?}",
                options
            );
            prop_assert_eq!(
                fast.hybrid_success_with(&fm, &cm, options),
                full.hybrid_success_with(&fm, &cm, options),
                "success-only fast vs full, options {:?}",
                options
            );
        }
        prop_assert_eq!(fast.exact_success(&fm, &cm), full.exact_success(&fm, &cm));
        prop_assert_eq!(fast.feasible(&fm, &cm), full.feasible(&fm, &cm));
    }
}

/// The mapping proptests above build at most 13 crossbar rows; Table II's
/// crossbars are several 64-row words tall. Replays table2's campaigns
/// (seed 2018: its covers, per-sample seeds and stream samplers) through
/// one reused engine and the dense reference: rd73 spans 3 words of CM
/// rows, exp5 3 words with 63 output rows, rd84 5 words with many
/// backtracks, and alu4 10 words. The dense EA (`reference::map_exact`,
/// Munkres over the full matching matrix) is too slow on rd84 and alu4
/// for a debug-build test, so their EA decisions are checked against the
/// dense feasibility oracle (`reference::mapping_feasible`) instead.
#[test]
fn engine_equals_reference_on_table2_campaigns() {
    let mut engine = MatchEngine::new();
    for (name, samples, rate, dense_ea) in [
        ("rd53", 20, 0.10, true),
        ("misex1", 20, 0.10, true),
        ("rd73", 10, 0.10, true),
        ("exp5", 6, 0.12, true),
        ("rd84", 4, 0.10, false),
        ("alu4", 2, 0.10, false),
    ] {
        let cover = find(name).expect("registered").mapping_cover(2018);
        let fm = FunctionMatrix::from_cover(&cover);
        let mut cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
        for stream in SampleStream::ALL {
            let sampler = DefectSampler::new(stream);
            for i in 0..samples {
                let mut rng = StdRng::seed_from_u64(sample_seed(mc_seed(2018), i));
                sampler.resample(&mut cm, rate, &mut rng);
                let expected = reference::map_hybrid(&fm, &cm);
                assert_eq!(
                    engine.map_hybrid(&fm, &cm),
                    expected,
                    "{name} [{stream}] sample {i}: HBA outcome"
                );
                assert_eq!(
                    engine.hybrid_success(&fm, &cm),
                    (expected.is_success(), expected.stats),
                    "{name} [{stream}] sample {i}: success-only HBA"
                );
                let ea_expected = if dense_ea {
                    reference::map_exact(&fm, &cm).is_success()
                } else {
                    reference::mapping_feasible(&fm, &cm)
                };
                assert_eq!(
                    engine.exact_success(&fm, &cm).0,
                    ea_expected,
                    "{name} [{stream}] sample {i}: EA decision"
                );
            }
        }
    }
}

/// Table II solves EA only when HBA fails or on its timing subsample, and
/// otherwise takes EA's success from HBA's. Table II's goldens pin only
/// the i.i.d. model, so under the clustered and lines models this replays
/// `run_circuit_range`'s campaigns and solves EA on every sample: the
/// success counts must agree. The model parameters are chosen so that
/// every campaign has HBA successes (certified) and failures (solved), and
/// the clustered ones have maps where only EA succeeds.
#[test]
fn table2_ea_counts_equal_solving_every_sample_on_non_iid_models() {
    const SAMPLES: usize = 96;
    let mut engine = MatchEngine::new();
    let mut ea_only = 0;
    for name in ["rd73", "exp5"] {
        let info = find(name).expect("registered");
        for (kind, cluster_size, line_rate) in [
            (
                DefectModelKind::Clustered,
                1.5,
                DefectModelSpec::DEFAULT_LINE_RATE,
            ),
            (
                DefectModelKind::Lines,
                DefectModelSpec::DEFAULT_CLUSTER_SIZE,
                0.005,
            ),
        ] {
            let model =
                DefectModelSpec::new(kind, cluster_size, line_rate).expect("in-range parameters");
            let args = ExpArgs {
                samples: SAMPLES,
                seed: 2018,
                defect_rate: 0.12,
                model,
                ..ExpArgs::default()
            };
            let accum = run_circuit_range(info, &args, 0..SAMPLES);

            let cover = info.mapping_cover(args.seed);
            let fm = FunctionMatrix::from_cover(&cover);
            let mut cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
            let sampler = DefectSampler::with_model(args.stream, model);
            let (mut hba, mut ea) = (0, 0);
            for i in 0..SAMPLES {
                let mut rng = StdRng::seed_from_u64(sample_seed(mc_seed(args.seed), i));
                sampler.resample(&mut cm, args.defect_rate, &mut rng);
                hba += u64::from(engine.hybrid_success(&fm, &cm).0);
                ea += u64::from(engine.exact_success(&fm, &cm).0);
            }
            let label = format!("{name} [{}]", kind.as_str());
            assert_eq!(accum.hba.successes, hba, "{label}: HBA successes");
            assert_eq!(accum.ea.successes, ea, "{label}: EA successes");
            assert!(
                0 < hba && hba < SAMPLES as u64,
                "{label}: the campaign must both certify and solve ({hba} HBA successes)"
            );
            ea_only += ea - hba;
        }
    }
    assert!(ea_only > 0, "some map must be one only EA can solve");
}
