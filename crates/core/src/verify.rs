//! End-to-end verification: program a mapped design onto a (defective)
//! simulated crossbar and check it computes the right function.
//!
//! The paper validates mappings symbolically (row compatibility). This
//! module goes further: it executes the mapped design on the device
//! simulator, so a mapping bug or an unmodelled defect interaction shows up
//! as a functional mismatch.

use crate::mapping::RowAssignment;
use rand::prelude::*;
use rand::rngs::StdRng;
use xbar_device::{Crossbar, DeviceError, TwoLevelMachine};
use xbar_logic::{Cover, Phase};

/// Programs `cover` onto `xbar` according to `assignment`, producing a
/// ready-to-run [`TwoLevelMachine`]. The crossbar keeps its defects.
///
/// # Errors
///
/// Returns [`DeviceError`] when the crossbar's shape does not fit the
/// cover's layout or the assignment references out-of-range rows.
pub fn program_two_level(
    cover: &Cover,
    assignment: &RowAssignment,
    xbar: Crossbar,
) -> Result<TwoLevelMachine, DeviceError> {
    let mut machine = TwoLevelMachine::new(xbar, cover.num_inputs(), cover.num_outputs())?;
    for (i, cube) in cover.iter().enumerate() {
        let literals: Vec<_> = cube
            .literals()
            .map(|(var, phase)| (var, phase == Phase::Positive))
            .collect();
        let memberships: Vec<_> = cube.outputs().collect();
        machine.program_minterm(assignment.fm_to_cm[i], &literals, &memberships)?;
    }
    for k in 0..cover.num_outputs() {
        machine.program_output(assignment.fm_to_cm[cover.len() + k], k)?;
    }
    Ok(machine)
}

/// How a mapped machine is compared against its specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Evaluate all `2^I` assignments (used up to ~16 inputs).
    Exhaustive,
    /// Evaluate this many random assignments.
    Random(usize),
}

/// Checks that the machine computes exactly `cover`.
///
/// Returns the first mismatching assignment, or `None` when everything
/// agrees.
#[must_use]
pub fn verify_against_cover(
    machine: &mut TwoLevelMachine,
    cover: &Cover,
    mode: VerifyMode,
    seed: u64,
) -> Option<u64> {
    let n = cover.num_inputs();
    match mode {
        VerifyMode::Exhaustive => {
            assert!(n <= 20, "exhaustive verification limited to 20 inputs");
            (0..1u64 << n).find(|&a| machine.evaluate(a) != cover.evaluate(a))
        }
        VerifyMode::Random(samples) => {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..samples {
                let a = rng.random::<u64>() & ((1u64 << n.min(63)) - 1);
                if machine.evaluate(a) != cover.evaluate(a) {
                    return Some(a);
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{map_hybrid, map_naive};
    use crate::matrices::{CrossbarMatrix, FunctionMatrix};
    use xbar_device::{Defect, DefectProfile};
    use xbar_logic::{cube, Cover};

    fn fig8_cover() -> Cover {
        Cover::from_cubes(
            3,
            2,
            [
                cube("11- 10"),
                cube("-01 10"),
                cube("0-0 01"),
                cube("-11 01"),
            ],
        )
        .expect("dims")
    }

    #[test]
    fn clean_crossbar_program_and_verify() {
        let cover = fig8_cover();
        let fm = FunctionMatrix::from_cover(&cover);
        let cm = CrossbarMatrix::perfect(6, 10);
        let outcome = map_hybrid(&fm, &cm);
        let assignment = outcome.assignment.expect("clean maps");
        let mut machine =
            program_two_level(&cover, &assignment, Crossbar::new(6, 10)).expect("fits");
        assert_eq!(
            verify_against_cover(&mut machine, &cover, VerifyMode::Exhaustive, 0),
            None
        );
    }

    #[test]
    fn hybrid_mapping_is_functionally_correct_on_defective_fabric() {
        let cover = fig8_cover();
        let fm = FunctionMatrix::from_cover(&cover);
        let mut rng = StdRng::seed_from_u64(3);
        let mut verified = 0;
        for _ in 0..100 {
            let xbar =
                Crossbar::with_random_defects(6, 10, DefectProfile::stuck_open_only(0.1), &mut rng);
            let cm = CrossbarMatrix::from_crossbar(&xbar);
            let outcome = map_hybrid(&fm, &cm);
            if let Some(assignment) = outcome.assignment {
                let mut machine = program_two_level(&cover, &assignment, xbar).expect("fits");
                assert_eq!(
                    verify_against_cover(&mut machine, &cover, VerifyMode::Exhaustive, 0),
                    None,
                    "a valid mapping must compute the function despite defects"
                );
                verified += 1;
            }
        }
        assert!(verified > 50, "most 10%-defect samples should map");
    }

    #[test]
    fn naive_mapping_computes_wrong_outputs_on_defective_fabric() {
        let cover = fig8_cover();
        let fm = FunctionMatrix::from_cover(&cover);
        // Defect exactly where minterm 0 needs its x0 literal.
        let mut xbar = Crossbar::new(6, 10);
        xbar.set_defect(0, 0, Defect::StuckOpen);
        let cm = CrossbarMatrix::from_crossbar(&xbar);
        assert!(!map_naive(&fm, &cm).is_success());
        // Force-program the identity mapping anyway (what a defect-unaware
        // flow would do) and observe the wrong output.
        let identity = RowAssignment {
            fm_to_cm: (0..6).collect(),
        };
        let mut machine = program_two_level(&cover, &identity, xbar).expect("fits");
        let mismatch = verify_against_cover(&mut machine, &cover, VerifyMode::Exhaustive, 0);
        assert!(
            mismatch.is_some(),
            "the dropped literal must change the function"
        );
    }

    #[test]
    fn random_verification_mode_detects_the_same_bug() {
        let cover = fig8_cover();
        let mut xbar = Crossbar::new(6, 10);
        xbar.set_defect(0, 0, Defect::StuckOpen);
        let identity = RowAssignment {
            fm_to_cm: (0..6).collect(),
        };
        let mut machine = program_two_level(&cover, &identity, xbar).expect("fits");
        assert!(
            verify_against_cover(&mut machine, &cover, VerifyMode::Random(64), 11).is_some(),
            "64 random vectors over 3 inputs must hit the broken minterm"
        );
    }

    #[test]
    fn permuted_assignment_still_computes_the_function() {
        let cover = fig8_cover();
        // Arbitrary permutation of the 6 rows.
        let assignment = RowAssignment {
            fm_to_cm: vec![5, 3, 0, 2, 4, 1],
        };
        let mut machine =
            program_two_level(&cover, &assignment, Crossbar::new(6, 10)).expect("fits");
        assert_eq!(
            verify_against_cover(&mut machine, &cover, VerifyMode::Exhaustive, 0),
            None,
            "row order is irrelevant to the computed function"
        );
    }
}
