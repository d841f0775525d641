//! Dense truth tables for exhaustively representable functions.
//!
//! Used to define the mathematically-specified MCNC benchmarks (`rd53`,
//! `sqrt8`, `squar5`, …) exactly, to cross-check the minimizer, and as the
//! reference model in property tests.

use crate::cover::Cover;
use crate::cube::Cube;
use crate::error::LogicError;

/// Hard cap on exhaustive truth tables (2^20 rows × outputs).
pub const MAX_TRUTH_INPUTS: usize = 20;

/// A dense multi-output truth table: one bitset of `2^n` entries per output.
///
/// # Examples
///
/// ```
/// use xbar_logic::TruthTable;
///
/// // 2-input XOR.
/// let xor = TruthTable::from_fn(2, 1, |a| vec![(a.count_ones() % 2) == 1])?;
/// assert!(xor.value(0b01, 0));
/// assert!(!xor.value(0b11, 0));
/// # Ok::<(), xbar_logic::LogicError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthTable {
    num_inputs: usize,
    num_outputs: usize,
    /// `bits[o]` holds 2^n bits for output `o`.
    bits: Vec<Vec<u64>>,
}

impl TruthTable {
    /// All-zero table.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::TooManyInputs`] when `num_inputs` exceeds
    /// [`MAX_TRUTH_INPUTS`].
    pub fn new(num_inputs: usize, num_outputs: usize) -> Result<Self, LogicError> {
        if num_inputs > MAX_TRUTH_INPUTS {
            return Err(LogicError::TooManyInputs {
                inputs: num_inputs,
                limit: MAX_TRUTH_INPUTS,
            });
        }
        let words = (1usize << num_inputs).div_ceil(64);
        Ok(Self {
            num_inputs,
            num_outputs,
            bits: vec![vec![0; words]; num_outputs],
        })
    }

    /// Builds a table by evaluating `f` on every assignment; `f` returns one
    /// bool per output.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::TooManyInputs`] when `num_inputs` exceeds
    /// [`MAX_TRUTH_INPUTS`].
    ///
    /// # Panics
    ///
    /// Panics if `f` returns the wrong number of outputs.
    pub fn from_fn(
        num_inputs: usize,
        num_outputs: usize,
        mut f: impl FnMut(u64) -> Vec<bool>,
    ) -> Result<Self, LogicError> {
        let mut table = Self::new(num_inputs, num_outputs)?;
        for a in 0..1u64 << num_inputs {
            let row = f(a);
            assert_eq!(row.len(), num_outputs, "wrong output arity from closure");
            for (o, &v) in row.iter().enumerate() {
                if v {
                    table.set(a, o, true);
                }
            }
        }
        Ok(table)
    }

    /// Builds the table of a cover by evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::TooManyInputs`] when the cover is too wide.
    pub fn from_cover(cover: &Cover) -> Result<Self, LogicError> {
        let mut table = Self::new(cover.num_inputs(), cover.num_outputs())?;
        for cube in cover.iter() {
            // Enumerate the cube's minterms instead of all assignments.
            let free: Vec<usize> = (0..cover.num_inputs())
                .filter(|&v| !matches!(cube.var_state(v), crate::cube::VarState::Literal(_)))
                .collect();
            let mut base = 0u64;
            for (var, phase) in cube.literals() {
                if phase.as_bool() {
                    base |= 1 << var;
                }
            }
            for combo in 0..1u64 << free.len() {
                let mut a = base;
                for (i, &var) in free.iter().enumerate() {
                    if combo >> i & 1 == 1 {
                        a |= 1 << var;
                    }
                }
                for o in cube.outputs() {
                    table.set(a, o, true);
                }
            }
        }
        Ok(table)
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

    /// Value of output `out` on `assignment`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    #[must_use]
    pub fn value(&self, assignment: u64, out: usize) -> bool {
        assert!(assignment < 1 << self.num_inputs, "assignment out of range");
        self.bits[out][(assignment / 64) as usize] >> (assignment % 64) & 1 == 1
    }

    /// Sets output `out` on `assignment`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn set(&mut self, assignment: u64, out: usize, v: bool) {
        assert!(assignment < 1 << self.num_inputs, "assignment out of range");
        let word = (assignment / 64) as usize;
        let bit = 1u64 << (assignment % 64);
        if v {
            self.bits[out][word] |= bit;
        } else {
            self.bits[out][word] &= !bit;
        }
    }

    /// The canonical (minterm) cover: one cube per ON minterm, sharing cubes
    /// across outputs that agree on the minterm.
    #[must_use]
    pub fn minterm_cover(&self) -> Cover {
        let mut cover = Cover::new(self.num_inputs, self.num_outputs);
        for a in 0..1u64 << self.num_inputs {
            let outs: Vec<usize> = (0..self.num_outputs)
                .filter(|&o| self.value(a, o))
                .collect();
            if !outs.is_empty() {
                cover.push(Cube::minterm(self.num_inputs, a, &outs, self.num_outputs));
            }
        }
        cover
    }

    /// Truth-table equivalence with a cover.
    #[must_use]
    pub fn matches_cover(&self, cover: &Cover) -> bool {
        if cover.num_inputs() != self.num_inputs || cover.num_outputs() != self.num_outputs {
            return false;
        }
        (0..1u64 << self.num_inputs).all(|a| {
            let got = cover.evaluate(a);
            (0..self.num_outputs).all(|o| got[o] == self.value(a, o))
        })
    }

    /// Per-output complement.
    #[must_use]
    pub fn complemented(&self) -> Self {
        let mut t = self.clone();
        let total = 1u64 << self.num_inputs;
        for o in 0..self.num_outputs {
            for a in 0..total {
                let v = self.value(a, o);
                t.set(a, o, !v);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::cube;

    #[test]
    fn from_fn_and_value() {
        let maj = TruthTable::from_fn(3, 1, |a| vec![a.count_ones() >= 2]).expect("small");
        assert!(maj.value(0b011, 0));
        assert!(!maj.value(0b001, 0));
    }

    #[test]
    fn from_cover_matches_evaluation() {
        let cover = Cover::from_cubes(4, 2, [cube("11-- 10"), cube("--01 01")]).expect("dims");
        let table = TruthTable::from_cover(&cover).expect("small");
        for a in 0..16u64 {
            let v = cover.evaluate(a);
            assert_eq!(table.value(a, 0), v[0]);
            assert_eq!(table.value(a, 1), v[1]);
        }
        assert!(table.matches_cover(&cover));
    }

    #[test]
    fn minterm_cover_is_equivalent() {
        let table = TruthTable::from_fn(4, 2, |a| vec![a % 3 == 0, a.count_ones() % 2 == 1])
            .expect("small");
        let cover = table.minterm_cover();
        assert!(table.matches_cover(&cover));
    }

    #[test]
    fn complement_flips_everything() {
        let t = TruthTable::from_fn(3, 1, |a| vec![a == 5]).expect("small");
        let c = t.complemented();
        for a in 0..8u64 {
            assert_eq!(c.value(a, 0), a != 5);
        }
    }

    #[test]
    fn too_many_inputs_is_error() {
        assert!(TruthTable::new(MAX_TRUTH_INPUTS + 1, 1).is_err());
    }
}
