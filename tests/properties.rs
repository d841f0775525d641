//! Property-based tests (proptest) over the core invariants of the whole
//! stack: cube calculus, minimization, factoring/mapping equivalence,
//! assignment optimality, and defect-tolerant mapping validity.

use memristive_xbar_repro::assign::{brute_force_assignment, munkres, CostMatrix};
use memristive_xbar_repro::core::{
    map_exact, map_hybrid, mapping_feasible, program_two_level, verify_against_cover,
    DefectModelKind, DefectModelSpec, DefectSampler, FunctionMatrix, MatchEngine, SampleStream,
    VerifyMode,
};
use memristive_xbar_repro::device::Crossbar;
use memristive_xbar_repro::logic::{
    complement, is_tautology, minimize, Cover, Cube, MinimizeOptions, Phase,
};
use memristive_xbar_repro::netlist::{factor_cover, map_cover, MapOptions};
use proptest::prelude::*;

/// Strategy: a random cube over `n` inputs driving output 0.
fn arb_cube(n: usize) -> impl Strategy<Value = Cube> {
    prop::collection::vec(prop::option::of(prop::bool::ANY), n).prop_map(move |phases| {
        let mut cube = Cube::universe(n, 1);
        let mut any = false;
        for (var, phase) in phases.iter().enumerate() {
            if let Some(p) = phase {
                cube.set_literal(var, Phase::from_bool(*p));
                any = true;
            }
        }
        if !any {
            cube.set_literal(0, Phase::Positive);
        }
        cube
    })
}

fn arb_cover(n: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    prop::collection::vec(arb_cube(n), 1..=max_cubes)
        .prop_map(move |cubes| Cover::from_cubes(n, 1, cubes).expect("matching dims"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Minimization preserves the function exactly.
    #[test]
    fn minimize_preserves_function(cover in arb_cover(5, 8)) {
        let dc = Cover::new(5, 1);
        let min = minimize(&cover, &dc, MinimizeOptions::default());
        for a in 0..32u64 {
            prop_assert_eq!(min.evaluate_output(a, 0), cover.evaluate_output(a, 0));
        }
        prop_assert!(min.len() <= cover.len());
    }

    /// f + f̄ is a tautology and f · f̄ is empty.
    #[test]
    fn complement_partitions_the_space(cover in arb_cover(5, 6)) {
        let comp = complement(&cover);
        for a in 0..32u64 {
            let f = cover.evaluate_output(a, 0);
            let g = comp.evaluate_output(a, 0);
            prop_assert!(f ^ g, "exactly one of f/f̄ at {:05b}", a);
        }
        let mut union = cover.clone();
        for c in comp.iter() {
            union.push(c.clone());
        }
        prop_assert!(is_tautology(&union));
    }

    /// Factoring and NAND mapping preserve the function.
    #[test]
    fn factoring_and_mapping_preserve_function(cover in arb_cover(6, 6)) {
        let expr = factor_cover(&cover);
        let net = map_cover(&cover, &MapOptions::default());
        for a in 0..64u64 {
            let expected = cover.evaluate_output(a, 0);
            prop_assert_eq!(expr.evaluate(a), expected, "expr at {:06b}", a);
            prop_assert_eq!(net.evaluate(a)[0], expected, "network at {:06b}", a);
        }
    }

    /// Bounded fan-in never changes the function and respects the bound.
    #[test]
    fn fanin_bound_safety(cover in arb_cover(6, 5), bound in 2usize..5) {
        let net = map_cover(&cover, &MapOptions { factoring: true, max_fanin: Some(bound) });
        prop_assert!(net.max_fanin() <= bound);
        for a in (0..64u64).step_by(3) {
            prop_assert_eq!(net.evaluate(a)[0], cover.evaluate_output(a, 0));
        }
    }

    /// Munkres is optimal (vs brute force) on small random matrices.
    #[test]
    fn munkres_optimality(
        rows in 1usize..5,
        extra_cols in 0usize..3,
        seed in 0u64..1000,
    ) {
        let cols = rows + extra_cols;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let m = CostMatrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 50) as i64
        });
        let fast = munkres(&m).expect("rows <= cols");
        let slow = brute_force_assignment(&m);
        prop_assert_eq!(fast.cost, slow.cost);
    }

    /// On random defect maps: EA succeeds iff a perfect matching exists;
    /// HBA success implies EA success; any returned assignment is valid and
    /// the programmed machine computes the function despite the defects.
    /// The implication also holds for the success-only entry points Table
    /// II calls, on both sampling streams under every defect model.
    #[test]
    fn mapping_invariants(cover in arb_cover(4, 5), seed in 0u64..500, rate in 0.0f64..0.3) {
        let fm = FunctionMatrix::from_cover(&cover);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let cm = DefectSampler::v1().sample(fm.num_rows(), fm.num_cols(), rate, &mut rng);

        let ea = map_exact(&fm, &cm);
        prop_assert_eq!(ea.is_success(), mapping_feasible(&fm, &cm));

        let hba = map_hybrid(&fm, &cm);
        if hba.is_success() {
            prop_assert!(ea.is_success());
        }
        for outcome in [hba, ea] {
            if let Some(assignment) = outcome.assignment {
                prop_assert!(assignment.is_valid(&fm, &cm));
                // Execute on a fabric with the same defect map.
                let mut xbar = Crossbar::new(fm.num_rows(), fm.num_cols());
                for r in 0..fm.num_rows() {
                    for c in 0..fm.num_cols() {
                        if !cm.row(r).get(c) {
                            xbar.set_defect(r, c, memristive_xbar_repro::device::Defect::StuckOpen);
                        }
                    }
                }
                let mut machine = program_two_level(&cover, &assignment, xbar).expect("fits");
                prop_assert_eq!(
                    verify_against_cover(&mut machine, &cover, VerifyMode::Exhaustive, 0),
                    None
                );
            }
        }

        let mut engine = MatchEngine::new();
        for stream in SampleStream::ALL {
            for kind in DefectModelKind::ALL {
                // The line rate follows the cell rate, so the lines and
                // composite models break lines as often as cells fail.
                let model =
                    DefectModelSpec::new(kind, DefectModelSpec::DEFAULT_CLUSTER_SIZE, rate)
                        .expect("in-range parameters");
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                let cm = DefectSampler::with_model(stream, model)
                    .sample(fm.num_rows(), fm.num_cols(), rate, &mut rng);
                let (hba_ok, _) = engine.hybrid_success(&fm, &cm);
                let (ea_ok, _) = engine.exact_success(&fm, &cm);
                prop_assert!(
                    !hba_ok || ea_ok,
                    "{} {}: HBA succeeded, EA failed",
                    stream,
                    kind.as_str()
                );
                prop_assert_eq!(ea_ok, mapping_feasible(&fm, &cm));
            }
        }
    }

    /// The two-level machine computes exactly the cover on clean fabric,
    /// regardless of row permutation.
    #[test]
    fn machine_is_permutation_invariant(cover in arb_cover(4, 4), perm_seed in 0u64..100) {
        use rand::seq::SliceRandom;
        let fm = FunctionMatrix::from_cover(&cover);
        let n = fm.num_rows();
        let mut rows: Vec<usize> = (0..n).collect();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(perm_seed);
        rows.shuffle(&mut rng);
        let assignment = memristive_xbar_repro::core::RowAssignment { fm_to_cm: rows };
        let mut machine = program_two_level(
            &cover,
            &assignment,
            Crossbar::new(n, fm.num_cols()),
        ).expect("fits");
        prop_assert_eq!(
            verify_against_cover(&mut machine, &cover, VerifyMode::Exhaustive, 0),
            None
        );
    }
}
