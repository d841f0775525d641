//! Multi-output covers (sums of products) built from [`Cube`]s.

use crate::cube::{Cube, Phase, VarState};
use crate::error::LogicError;
use std::fmt;

/// A multi-output sum-of-products: a list of [`Cube`]s over a common number
/// of inputs and outputs.
///
/// This is the object the paper calls the *function matrix* source: each
/// cube becomes a minterm (product) row with 1s at its literal columns and at
/// the membership column of every output it drives.
///
/// # Examples
///
/// ```
/// use xbar_logic::{Cover, Cube, Phase};
///
/// // f = x0·x1 + x̄2  (3 inputs, 1 output)
/// let mut cover = Cover::new(3, 1);
/// cover.push(
///     Cube::universe(3, 1)
///         .with_literal(0, Phase::Positive)
///         .with_literal(1, Phase::Positive),
/// );
/// cover.push(Cube::universe(3, 1).with_literal(2, Phase::Negative));
/// assert_eq!(cover.evaluate(0b011), vec![true]);
/// assert_eq!(cover.evaluate(0b100), vec![false]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Cover {
    num_inputs: usize,
    num_outputs: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// An empty cover (constant-0 for every output).
    #[must_use]
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        Self {
            num_inputs,
            num_outputs,
            cubes: Vec::new(),
        }
    }

    /// Builds a cover from cubes, validating that each cube has matching
    /// dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::DimensionMismatch`] if any cube disagrees on
    /// input/output counts.
    pub fn from_cubes(
        num_inputs: usize,
        num_outputs: usize,
        cubes: impl IntoIterator<Item = Cube>,
    ) -> Result<Self, LogicError> {
        let mut cover = Self::new(num_inputs, num_outputs);
        for cube in cubes {
            if cube.num_inputs() != num_inputs || cube.num_outputs() != num_outputs {
                return Err(LogicError::DimensionMismatch {
                    expected_inputs: num_inputs,
                    expected_outputs: num_outputs,
                    got_inputs: cube.num_inputs(),
                    got_outputs: cube.num_outputs(),
                });
            }
            cover.cubes.push(cube);
        }
        Ok(cover)
    }

    /// Parses a cover from espresso-style cube lines, e.g. `"1-0 1"`.
    ///
    /// Each line is `num_inputs` characters of `{0,1,-}`, optional
    /// whitespace, then `num_outputs` characters of `{0,1,~,4}` (espresso
    /// treats `1` as ON-set membership; everything else is ignored here).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ParsePla`] on malformed lines.
    pub fn parse_cubes(
        num_inputs: usize,
        num_outputs: usize,
        lines: &str,
    ) -> Result<Self, LogicError> {
        let mut cover = Self::new(num_inputs, num_outputs);
        for (lineno, line) in lines.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let cube =
                crate::pla::parse_cube_line(line, num_inputs, num_outputs).map_err(|message| {
                    LogicError::ParsePla {
                        line: lineno + 1,
                        message,
                    }
                })?;
            cover.cubes.push(cube);
        }
        Ok(cover)
    }

    /// Number of input variables.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of cubes (the paper's `P`, product count, when the cover is a
    /// minimized multi-output SOP).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True when the cover holds no cubes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The cubes of the cover.
    #[must_use]
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Iterates over the cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, Cube> {
        self.cubes.iter()
    }

    /// Appends a cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube's dimensions disagree with the cover's.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_inputs(), self.num_inputs, "cube input arity");
        assert_eq!(cube.num_outputs(), self.num_outputs, "cube output arity");
        self.cubes.push(cube);
    }

    /// Removes and returns the cube at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> Cube {
        self.cubes.remove(index)
    }

    /// Retains only cubes matching the predicate.
    pub fn retain(&mut self, f: impl FnMut(&Cube) -> bool) {
        self.cubes.retain(f);
    }

    /// Evaluates all outputs on a complete input assignment.
    #[must_use]
    pub fn evaluate(&self, assignment: u64) -> Vec<bool> {
        let mut out = vec![false; self.num_outputs];
        for cube in &self.cubes {
            if cube.evaluate(assignment) {
                for o in cube.outputs() {
                    out[o] = true;
                }
            }
        }
        out
    }

    /// Evaluates a single output on a complete input assignment.
    #[must_use]
    pub fn evaluate_output(&self, assignment: u64, output: usize) -> bool {
        self.cubes
            .iter()
            .any(|c| c.output(output) && c.evaluate(assignment))
    }

    /// The single-output restriction of the cover to `output`: cubes driving
    /// that output, with a 1-output output part.
    #[must_use]
    pub fn output_cover(&self, output: usize) -> Cover {
        let mut cover = Cover::new(self.num_inputs, 1);
        for cube in &self.cubes {
            if cube.output(output) {
                cover.cubes.push(cube.input_part());
            }
        }
        cover
    }

    /// Merges several single-output covers into one multi-output cover
    /// (no cube sharing; cubes are concatenated).
    ///
    /// # Panics
    ///
    /// Panics if any cover is not single-output or input arities disagree.
    #[must_use]
    pub fn from_single_outputs(covers: &[Cover]) -> Cover {
        assert!(!covers.is_empty(), "need at least one cover");
        let num_inputs = covers[0].num_inputs;
        let num_outputs = covers.len();
        let mut merged = Cover::new(num_inputs, num_outputs);
        for (o, cover) in covers.iter().enumerate() {
            assert_eq!(cover.num_inputs, num_inputs, "input arity mismatch");
            assert_eq!(cover.num_outputs, 1, "expected single-output covers");
            for cube in &cover.cubes {
                let mut c = Cube::universe(num_inputs, num_outputs);
                for (var, phase) in cube.literals() {
                    c.set_literal(var, phase);
                }
                for oo in 0..num_outputs {
                    c.set_output(oo, oo == o);
                }
                merged.cubes.push(c);
            }
        }
        merged
    }

    /// Merges identical input parts driving different outputs into shared
    /// multi-output cubes (the inverse of naive concatenation; reduces `P`).
    #[must_use]
    pub fn share_identical_products(&self) -> Cover {
        let mut merged: Vec<Cube> = Vec::with_capacity(self.cubes.len());
        'outer: for cube in &self.cubes {
            for existing in &mut merged {
                if same_input_part(existing, cube) {
                    for o in cube.outputs() {
                        existing.set_output(o, true);
                    }
                    continue 'outer;
                }
            }
            merged.push(cube.clone());
        }
        let mut cover = Cover::new(self.num_inputs, self.num_outputs);
        cover.cubes = merged;
        cover
    }

    /// Removes cubes whose input part is empty or which drive no output.
    pub fn drop_empty_cubes(&mut self) {
        self.cubes.retain(|c| !c.is_empty());
    }

    /// Removes cubes single-cube-contained in another cube of the cover.
    pub fn drop_contained_cubes(&mut self) {
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.cubes.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if self.cubes[j].contains(&self.cubes[i])
                    && (i > j || !self.cubes[i].contains(&self.cubes[j]))
                {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut idx = 0;
        self.cubes.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// Total literal count across all cubes (the NAND-plane switch count of
    /// the two-level crossbar implementation).
    #[must_use]
    pub fn total_literals(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Total number of (cube, output) membership pairs (the AND-plane switch
    /// count of the two-level crossbar implementation).
    #[must_use]
    pub fn total_output_memberships(&self) -> usize {
        self.cubes.iter().map(Cube::output_count).sum()
    }

    /// Returns the set of variables that actually appear as literals.
    #[must_use]
    pub fn support(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_inputs];
        for cube in &self.cubes {
            for (var, _) in cube.literals() {
                used[var] = true;
            }
        }
        (0..self.num_inputs).filter(|&v| used[v]).collect()
    }

    /// Truth-table equivalence against another cover (exhaustive over all
    /// `2^n` assignments).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or `num_inputs > 24` (exhaustive check
    /// would be too large).
    #[must_use]
    pub fn equivalent(&self, other: &Cover) -> bool {
        assert_eq!(self.num_inputs, other.num_inputs);
        assert_eq!(self.num_outputs, other.num_outputs);
        assert!(
            self.num_inputs <= 24,
            "exhaustive equivalence limited to 24 inputs"
        );
        for a in 0..1u64 << self.num_inputs {
            if self.evaluate(a) != other.evaluate(a) {
                return false;
            }
        }
        true
    }
}

/// True when both cubes constrain their input variables identically.
fn same_input_part(a: &Cube, b: &Cube) -> bool {
    debug_assert_eq!(a.num_inputs(), b.num_inputs());
    (0..a.num_inputs()).all(|v| match (a.var_state(v), b.var_state(v)) {
        (VarState::DontCare, VarState::DontCare) => true,
        (VarState::Literal(p), VarState::Literal(q)) => p == q,
        (VarState::Empty, VarState::Empty) => true,
        _ => false,
    })
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cover(inputs={}, outputs={}, cubes={})",
            self.num_inputs,
            self.num_outputs,
            self.cubes.len()
        )?;
        for cube in &self.cubes {
            writeln!(f, "  {cube}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for cube in &self.cubes {
            writeln!(f, "{cube}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Cover {
    type Item = &'a Cube;
    type IntoIter = std::slice::Iter<'a, Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

impl IntoIterator for Cover {
    type Item = Cube;
    type IntoIter = std::vec::IntoIter<Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.cubes.into_iter()
    }
}

/// Convenience constructor used pervasively in tests: builds a cube from an
/// espresso-style string such as `"1-0 01"`.
///
/// # Panics
///
/// Panics on malformed input (tests only; library code uses
/// [`Cover::parse_cubes`]).
#[must_use]
pub fn cube(spec: &str) -> Cube {
    let (inp, out) = match spec.split_once(' ') {
        Some((i, o)) => (i, o),
        None => (spec, ""),
    };
    let num_inputs = inp.chars().count();
    let num_outputs = out.chars().count().max(1);
    let mut c = Cube::universe(num_inputs, num_outputs);
    for (i, ch) in inp.chars().enumerate() {
        match ch {
            '1' => c.set_literal(i, Phase::Positive),
            '0' => c.set_literal(i, Phase::Negative),
            '-' | '2' => {}
            _ => panic!("bad input char {ch:?} in cube spec"),
        }
    }
    if out.is_empty() {
        c.set_output(0, true);
    } else {
        for (o, ch) in out.chars().enumerate() {
            c.set_output(o, ch == '1');
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_multi_output() {
        let cover = Cover::from_cubes(3, 2, [cube("11- 10"), cube("--0 01")]).expect("dims");
        assert_eq!(cover.evaluate(0b011), vec![true, true]);
        assert_eq!(cover.evaluate(0b111), vec![true, false]);
        assert_eq!(cover.evaluate(0b010), vec![false, true]);
    }

    #[test]
    fn output_cover_extracts_single_function() {
        let cover = Cover::from_cubes(3, 2, [cube("11- 10"), cube("--0 01"), cube("1-1 11")])
            .expect("dims");
        let f0 = cover.output_cover(0);
        assert_eq!(f0.len(), 2);
        assert_eq!(f0.num_outputs(), 1);
        assert!(f0.evaluate_output(0b011, 0));
    }

    #[test]
    fn share_identical_products_merges() {
        let cover = Cover::from_cubes(3, 2, [cube("11- 10"), cube("11- 01"), cube("0-- 10")])
            .expect("dims");
        let shared = cover.share_identical_products();
        assert_eq!(shared.len(), 2);
        assert!(shared.equivalent(&cover));
    }

    #[test]
    fn drop_contained_cubes_removes_redundant() {
        let mut cover =
            Cover::from_cubes(3, 1, [cube("1-- 1"), cube("11- 1"), cube("0-- 1")]).expect("dims");
        cover.drop_contained_cubes();
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn drop_contained_keeps_one_of_duplicates() {
        let mut cover = Cover::from_cubes(3, 1, [cube("1-- 1"), cube("1-- 1")]).expect("dims");
        cover.drop_contained_cubes();
        assert_eq!(cover.len(), 1);
    }

    #[test]
    fn from_single_outputs_concatenates() {
        let f0 = Cover::from_cubes(2, 1, [cube("1- 1")]).expect("dims");
        let f1 = Cover::from_cubes(2, 1, [cube("-1 1"), cube("00 1")]).expect("dims");
        let merged = Cover::from_single_outputs(&[f0, f1]);
        assert_eq!(merged.num_outputs(), 2);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.evaluate(0b00), vec![false, true]);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let err = Cover::from_cubes(3, 1, [Cube::universe(2, 1)]).unwrap_err();
        assert!(err.to_string().contains("dimension"));
    }

    #[test]
    fn literal_and_membership_totals() {
        let cover = Cover::from_cubes(3, 2, [cube("11- 10"), cube("--0 11")]).expect("dims");
        assert_eq!(cover.total_literals(), 3);
        assert_eq!(cover.total_output_memberships(), 3);
    }

    #[test]
    fn support_lists_used_variables() {
        let cover = Cover::from_cubes(4, 1, [cube("1--- 1"), cube("--0- 1")]).expect("dims");
        assert_eq!(cover.support(), vec![0, 2]);
    }
}
