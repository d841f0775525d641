//! Bit-packed multi-output cubes in espresso's positional notation.
//!
//! A [`Cube`] is a product term over `n` Boolean inputs together with the set
//! of outputs it drives. Each input variable occupies two bits:
//!
//! | bits (hi, lo) | meaning                         | literal |
//! |---------------|---------------------------------|---------|
//! | `01`          | variable must be 0              | `x̄`    |
//! | `10`          | variable must be 1              | `x`     |
//! | `11`          | variable unconstrained          | —       |
//! | `00`          | contradiction (empty cube)      | —       |
//!
//! The output part is a plain bitset: bit `j` set means the cube is part of
//! the sum-of-products for output `j`. This mirrors the function-matrix rows
//! of the paper (Fig. 8a): literal columns plus output-membership columns.

use std::fmt;

/// Phase of a literal inside a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// The variable appears complemented (`x̄`, variable must be 0).
    Negative,
    /// The variable appears uncomplemented (`x`, variable must be 1).
    Positive,
}

impl Phase {
    /// Phase corresponding to a required Boolean value.
    #[must_use]
    pub fn from_bool(value: bool) -> Self {
        if value {
            Phase::Positive
        } else {
            Phase::Negative
        }
    }

    /// The Boolean value this phase requires of its variable.
    #[must_use]
    pub fn as_bool(self) -> bool {
        matches!(self, Phase::Positive)
    }

    /// The opposite phase.
    #[must_use]
    pub fn inverted(self) -> Self {
        match self {
            Phase::Negative => Phase::Positive,
            Phase::Positive => Phase::Negative,
        }
    }
}

/// State of one input variable inside a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarState {
    /// Variable is absent from the product term (both phases allowed).
    DontCare,
    /// Variable appears as a literal with the given phase.
    Literal(Phase),
    /// Both phases forbidden; the cube is empty.
    Empty,
}

const BITS_PER_VAR: usize = 2;
const VARS_PER_WORD: usize = 64 / BITS_PER_VAR;

/// A product term over `num_inputs` variables driving a subset of
/// `num_outputs` outputs.
///
/// # Examples
///
/// ```
/// use xbar_logic::{Cube, Phase};
///
/// // x0 · x̄2, driving output 0 of a 3-input, 2-output function.
/// let cube = Cube::universe(3, 2)
///     .with_literal(0, Phase::Positive)
///     .with_literal(2, Phase::Negative)
///     .with_output(0, true)
///     .with_output(1, false);
/// assert_eq!(cube.literal_count(), 2);
/// assert!(cube.evaluate(0b001)); // x0=1, x1=0, x2=0
/// assert!(!cube.evaluate(0b101)); // x2=1 violates x̄2
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    num_inputs: u16,
    num_outputs: u16,
    /// Positional-notation input part, 2 bits per variable.
    inputs: Vec<u64>,
    /// Output membership bitset, 1 bit per output.
    outputs: Vec<u64>,
}

impl Cube {
    /// The cube with no literals (full don't-care input part) driving every
    /// output: the universal product term.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs` or `num_outputs` exceeds `u16::MAX`.
    #[must_use]
    pub fn universe(num_inputs: usize, num_outputs: usize) -> Self {
        assert!(num_inputs <= u16::MAX as usize, "too many inputs");
        assert!(num_outputs <= u16::MAX as usize, "too many outputs");
        let input_words = num_inputs.div_ceil(VARS_PER_WORD).max(1);
        let output_words = num_outputs.div_ceil(64).max(1);
        let mut inputs = vec![u64::MAX; input_words];
        // Clear padding above the last variable so Eq/Hash are canonical.
        let used = num_inputs * BITS_PER_VAR;
        mask_tail(&mut inputs, used);
        let mut outputs = vec![u64::MAX; output_words];
        mask_tail(&mut outputs, num_outputs);
        Self {
            num_inputs: num_inputs as u16,
            num_outputs: num_outputs as u16,
            inputs,
            outputs,
        }
    }

    /// A minterm cube: every variable is a literal matching the bits of
    /// `assignment` (bit `i` of `assignment` gives the value of variable `i`),
    /// driving the outputs whose bits are set in `outputs`.
    #[must_use]
    pub fn minterm(
        num_inputs: usize,
        assignment: u64,
        outputs: &[usize],
        num_outputs: usize,
    ) -> Self {
        let mut cube = Self::universe(num_inputs, num_outputs);
        for var in 0..num_inputs {
            cube.set_literal(var, Phase::from_bool(assignment >> var & 1 == 1));
        }
        for word in &mut cube.outputs {
            *word = 0;
        }
        for &out in outputs {
            cube.set_output(out, true);
        }
        cube
    }

    /// Number of input variables.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// Number of outputs of the enclosing function.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs as usize
    }

    /// State of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_inputs()`.
    #[must_use]
    pub fn var_state(&self, var: usize) -> VarState {
        assert!(var < self.num_inputs(), "variable index out of range");
        let word = var / VARS_PER_WORD;
        let shift = (var % VARS_PER_WORD) * BITS_PER_VAR;
        match self.inputs[word] >> shift & 0b11 {
            0b00 => VarState::Empty,
            0b01 => VarState::Literal(Phase::Negative),
            0b10 => VarState::Literal(Phase::Positive),
            _ => VarState::DontCare,
        }
    }

    /// Sets variable `var` to a literal of the given phase.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_inputs()`.
    pub fn set_literal(&mut self, var: usize, phase: Phase) {
        self.set_var_bits(var, if phase.as_bool() { 0b10 } else { 0b01 });
    }

    /// Removes any literal on `var`, making it don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_inputs()`.
    pub fn clear_literal(&mut self, var: usize) {
        self.set_var_bits(var, 0b11);
    }

    fn set_var_bits(&mut self, var: usize, bits: u64) {
        assert!(var < self.num_inputs(), "variable index out of range");
        let word = var / VARS_PER_WORD;
        let shift = (var % VARS_PER_WORD) * BITS_PER_VAR;
        self.inputs[word] = (self.inputs[word] & !(0b11 << shift)) | (bits << shift);
    }

    /// Builder-style [`set_literal`](Self::set_literal).
    #[must_use]
    pub fn with_literal(mut self, var: usize, phase: Phase) -> Self {
        self.set_literal(var, phase);
        self
    }

    /// Whether output `out` is driven by this cube.
    ///
    /// # Panics
    ///
    /// Panics if `out >= self.num_outputs()`.
    #[must_use]
    pub fn output(&self, out: usize) -> bool {
        assert!(out < self.num_outputs(), "output index out of range");
        self.outputs[out / 64] >> (out % 64) & 1 == 1
    }

    /// Adds or removes output `out` from the cube's output set.
    ///
    /// # Panics
    ///
    /// Panics if `out >= self.num_outputs()`.
    pub fn set_output(&mut self, out: usize, member: bool) {
        assert!(out < self.num_outputs(), "output index out of range");
        let word = out / 64;
        let bit = 1u64 << (out % 64);
        if member {
            self.outputs[word] |= bit;
        } else {
            self.outputs[word] &= !bit;
        }
    }

    /// Builder-style [`set_output`](Self::set_output).
    #[must_use]
    pub fn with_output(mut self, out: usize, member: bool) -> Self {
        self.set_output(out, member);
        self
    }

    /// The input part alone, as a cube of a single-output function: the
    /// form in which the cover calculus compares input parts.
    #[must_use]
    pub(crate) fn input_part(&self) -> Self {
        let mut cube = Self::universe(self.num_inputs(), 1);
        for (var, phase) in self.literals() {
            cube.set_literal(var, phase);
        }
        cube
    }

    /// Number of literals (constrained variables) in the input part.
    #[must_use]
    pub fn literal_count(&self) -> usize {
        // A variable contributes a literal when exactly one of its two bits
        // is set; full-DC contributes 0 and empty also has specific pattern.
        let mut count = 0usize;
        for var in 0..self.num_inputs() {
            if matches!(self.var_state(var), VarState::Literal(_)) {
                count += 1;
            }
        }
        count
    }

    /// Number of outputs driven by the cube.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over `(variable, phase)` pairs of the cube's literals.
    pub fn literals(&self) -> impl Iterator<Item = (usize, Phase)> + '_ {
        (0..self.num_inputs()).filter_map(|v| match self.var_state(v) {
            VarState::Literal(p) => Some((v, p)),
            _ => None,
        })
    }

    /// The literals of inputs `0..32`, one bit per input: bit `v` of the
    /// first (second) mask is set when input `v` appears as `x_v` (`x̄_v`).
    /// A few word operations, where [`Self::literals`] visits every input.
    pub(crate) fn low_literals(&self) -> (u32, u32) {
        let word = self.inputs[0];
        let (hi, lo) = (word >> 1 & LO_MASK, word & LO_MASK);
        (compress_even_bits(hi & !lo), compress_even_bits(lo & !hi))
    }

    /// Iterator over the indices of outputs driven by the cube.
    pub fn outputs(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_outputs()).filter(|&o| self.output(o))
    }

    /// True if the input part contains a contradiction (some variable has
    /// both phases forbidden) or the cube drives no output.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.has_empty_input_part() || self.outputs.iter().all(|&w| w == 0)
    }

    /// True if some variable of the input part is `00` (contradiction).
    #[must_use]
    pub fn has_empty_input_part(&self) -> bool {
        for var in 0..self.num_inputs() {
            if matches!(self.var_state(var), VarState::Empty) {
                return true;
            }
        }
        false
    }

    /// True if the input part has no literals at all.
    #[must_use]
    pub fn is_input_universe(&self) -> bool {
        self.literal_count() == 0 && !self.has_empty_input_part()
    }

    /// Whether `self` contains `other` as a cube (every minterm/output pair
    /// of `other` is also in `self`).
    #[must_use]
    pub fn contains(&self, other: &Self) -> bool {
        debug_assert_eq!(self.num_inputs, other.num_inputs);
        debug_assert_eq!(self.num_outputs, other.num_outputs);
        self.inputs
            .iter()
            .zip(&other.inputs)
            .all(|(a, b)| a & b == *b)
            && self
                .outputs
                .iter()
                .zip(&other.outputs)
                .all(|(a, b)| a & b == *b)
    }

    /// Cofactor of the cube with respect to a literal `var = phase`
    /// (Shannon cofactor). Returns `None` when the cube requires the
    /// opposite phase (the cofactor is empty).
    #[must_use]
    pub fn cofactor_literal(&self, var: usize, phase: Phase) -> Option<Self> {
        match self.var_state(var) {
            VarState::Empty => None,
            VarState::Literal(p) if p != phase => None,
            _ => {
                let mut cube = self.clone();
                cube.clear_literal(var);
                Some(cube)
            }
        }
    }

    /// Evaluates the input part on a complete assignment (bit `i` of
    /// `assignment` = value of variable `i`).
    #[must_use]
    pub fn evaluate(&self, assignment: u64) -> bool {
        for (var, phase) in self.literals() {
            if (assignment >> var & 1 == 1) != phase.as_bool() {
                return false;
            }
        }
        true
    }

    /// Number of minterms of the input part (2^(free variables)).
    #[must_use]
    pub fn input_minterm_count(&self) -> u128 {
        1u128 << (self.num_inputs() - self.literal_count()) as u32
    }
}

const LO_MASK: u64 = 0x5555_5555_5555_5555;

/// Packs the even bits of `x`, whose odd bits are clear, into 32 bits.
fn compress_even_bits(mut x: u64) -> u32 {
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF;
    x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
    x = (x | x >> 16) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// Clears all bits at positions `>= used_bits` across the word vector.
fn mask_tail(words: &mut [u64], used_bits: usize) {
    let full_words = used_bits / 64;
    let rem = used_bits % 64;
    if full_words < words.len() {
        if rem > 0 {
            words[full_words] &= (1u64 << rem) - 1;
            for w in &mut words[full_words + 1..] {
                *w = 0;
            }
        } else {
            for w in &mut words[full_words..] {
                *w = 0;
            }
        }
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube(")?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for Cube {
    /// Espresso-style textual form: one character per variable
    /// (`0`, `1` or `-`), a space, then one character per output
    /// (`1` = member, `0` = not).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for var in 0..self.num_inputs() {
            let c = match self.var_state(var) {
                VarState::DontCare => '-',
                VarState::Literal(Phase::Positive) => '1',
                VarState::Literal(Phase::Negative) => '0',
                VarState::Empty => '#',
            };
            write!(f, "{c}")?;
        }
        if self.num_outputs() > 0 {
            write!(f, " ")?;
            for out in 0..self.num_outputs() {
                write!(f, "{}", if self.output(out) { '1' } else { '0' })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_has_no_literals_and_all_outputs() {
        let u = Cube::universe(5, 3);
        assert_eq!(u.literal_count(), 0);
        assert_eq!(u.output_count(), 3);
        assert!(!u.is_empty());
        assert!(u.is_input_universe());
    }

    #[test]
    fn literal_roundtrip() {
        let mut c = Cube::universe(40, 1);
        c.set_literal(0, Phase::Positive);
        c.set_literal(33, Phase::Negative);
        assert_eq!(c.var_state(0), VarState::Literal(Phase::Positive));
        assert_eq!(c.var_state(33), VarState::Literal(Phase::Negative));
        assert_eq!(c.var_state(5), VarState::DontCare);
        assert_eq!(c.literal_count(), 2);
        c.clear_literal(0);
        assert_eq!(c.literal_count(), 1);
    }

    #[test]
    fn minterm_evaluates_only_its_assignment() {
        let m = Cube::minterm(4, 0b1010, &[0], 1);
        assert!(m.evaluate(0b1010));
        for a in 0..16u64 {
            if a != 0b1010 {
                assert!(!m.evaluate(a), "assignment {a:04b} should not match");
            }
        }
    }

    #[test]
    fn containment_is_reflexive_and_respects_literals() {
        let big = Cube::universe(4, 1).with_literal(0, Phase::Positive);
        let small = big.clone().with_literal(2, Phase::Negative);
        assert!(big.contains(&big));
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
    }

    #[test]
    fn output_containment_matters() {
        let both = Cube::universe(2, 2);
        let one = Cube::universe(2, 2).with_output(1, false);
        assert!(both.contains(&one));
        assert!(!one.contains(&both));
    }

    #[test]
    fn cofactor_literal_drops_matching_literal() {
        let c = Cube::universe(3, 1)
            .with_literal(0, Phase::Positive)
            .with_literal(1, Phase::Negative);
        let cof = c.cofactor_literal(0, Phase::Positive).expect("compatible");
        assert_eq!(cof.literal_count(), 1);
        assert!(c.cofactor_literal(0, Phase::Negative).is_none());
    }

    /// `low_literals` packs exactly what `literals` walks, for inputs below
    /// 32: every mix of literals, don't-cares and empty (`00`) inputs, on
    /// cubes up to 40 inputs wide.
    #[test]
    fn low_literals_pack_the_literal_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let inputs = rng.random_range(0..=40);
            let mut c = Cube::universe(inputs, 1);
            for var in 0..inputs {
                c.set_var_bits(var, rng.random_range(0..4));
            }
            let (mut pos, mut neg) = (0u32, 0u32);
            for (var, phase) in c.literals().filter(|&(var, _)| var < 32) {
                match phase {
                    Phase::Positive => pos |= 1 << var,
                    Phase::Negative => neg |= 1 << var,
                }
            }
            assert_eq!(c.low_literals(), (pos, neg), "{c}");
        }
    }

    #[test]
    fn display_matches_espresso_convention() {
        let c = Cube::universe(4, 2)
            .with_literal(0, Phase::Positive)
            .with_literal(3, Phase::Negative)
            .with_output(1, false);
        assert_eq!(c.to_string(), "1--0 10");
    }

    #[test]
    fn minterm_count() {
        let c = Cube::universe(5, 1).with_literal(0, Phase::Positive);
        assert_eq!(c.input_minterm_count(), 16);
    }
}
