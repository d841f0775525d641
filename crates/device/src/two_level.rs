//! Executable two-level (NAND–AND) crossbar machine — Figs. 2 and 3 of the
//! paper, with full defect semantics.
//!
//! Column layout (matching Fig. 8a's function matrix): `x_0..x_{I-1}`,
//! `x̄_0..x̄_{I-1}`, `O_0..O_{K-1}`, `Ō_0..Ō_{K-1}`. Rows host minterms and
//! output (inversion/latch) rows in any order — the defect-tolerant mapper
//! permutes them freely.

use crate::crossbar::{Crossbar, ProgramState};
use crate::error::DeviceError;
use crate::phases::TwoLevelPhase;

/// Column bookkeeping for a two-level crossbar: `2I + 2K` vertical lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnLayout {
    /// Number of function inputs `I`.
    pub num_inputs: usize,
    /// Number of function outputs `K`.
    pub num_outputs: usize,
}

impl ColumnLayout {
    /// Total vertical lines: `2I + 2K`.
    #[must_use]
    pub fn total_cols(&self) -> usize {
        2 * self.num_inputs + 2 * self.num_outputs
    }

    /// Column of literal `x_var` (positive) or `x̄_var` (negative).
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range.
    #[must_use]
    pub fn input_col(&self, var: usize, positive: bool) -> usize {
        assert!(var < self.num_inputs, "input var out of range");
        if positive {
            var
        } else {
            self.num_inputs + var
        }
    }

    /// Column collecting output `k` (`O_k`, the AND plane line).
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    #[must_use]
    pub fn output_col(&self, k: usize) -> usize {
        assert!(k < self.num_outputs, "output index out of range");
        2 * self.num_inputs + k
    }

    /// Column carrying the inverted output `Ō_k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    #[must_use]
    pub fn output_bar_col(&self, k: usize) -> usize {
        assert!(k < self.num_outputs, "output index out of range");
        2 * self.num_inputs + self.num_outputs + k
    }
}

/// Role of a horizontal line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowRole {
    /// Not used by the mapping.
    #[default]
    Unused,
    /// Hosts a minterm (NAND-plane product row).
    Minterm,
    /// Hosts the inversion/latch row of output `k`.
    Output(usize),
}

/// A programmed two-level crossbar ready to compute.
///
/// # Examples
///
/// ```
/// use xbar_device::{Crossbar, TwoLevelMachine};
///
/// // f = x0·x1 on a 2-input, 1-output crossbar (2 rows: minterm + output).
/// let xbar = Crossbar::new(2, 6);
/// let mut machine = TwoLevelMachine::new(xbar, 2, 1)?;
/// machine.program_minterm(0, &[(0, true), (1, true)], &[0])?;
/// machine.program_output(1, 0)?;
/// assert_eq!(machine.evaluate(0b11), vec![true]);
/// assert_eq!(machine.evaluate(0b01), vec![false]);
/// # Ok::<(), xbar_device::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelMachine {
    xbar: Crossbar,
    layout: ColumnLayout,
    row_roles: Vec<RowRole>,
}

/// Full record of one two-level computation, for inspection and the Fig. 2
/// state-trace experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevelTrace {
    /// Phases in execution order with a human-readable summary each.
    pub phases: Vec<(TwoLevelPhase, String)>,
    /// NAND result (`m̄_i`) of every minterm row, indexed by crossbar row.
    pub minterm_results: Vec<Option<bool>>,
    /// `f̄_k` per output.
    pub outputs_bar: Vec<bool>,
    /// `f_k` per output.
    pub outputs: Vec<bool>,
}

impl TwoLevelMachine {
    /// Wraps a crossbar whose width matches `2·num_inputs +
    /// 2·num_outputs`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ColumnCountMismatch`] otherwise.
    pub fn new(xbar: Crossbar, num_inputs: usize, num_outputs: usize) -> Result<Self, DeviceError> {
        let layout = ColumnLayout {
            num_inputs,
            num_outputs,
        };
        if xbar.cols() != layout.total_cols() {
            return Err(DeviceError::ColumnCountMismatch {
                expected: layout.total_cols(),
                got: xbar.cols(),
            });
        }
        let row_roles = vec![RowRole::Unused; xbar.rows()];
        Ok(Self {
            xbar,
            layout,
            row_roles,
        })
    }

    /// The column layout.
    #[must_use]
    pub fn layout(&self) -> &ColumnLayout {
        &self.layout
    }

    /// The underlying crossbar.
    #[must_use]
    pub fn crossbar(&self) -> &Crossbar {
        &self.xbar
    }

    /// Mutable access to the underlying crossbar (e.g. to inject defects
    /// after programming, for failure-injection tests).
    pub fn crossbar_mut(&mut self) -> &mut Crossbar {
        &mut self.xbar
    }

    /// Role of each row.
    #[must_use]
    pub fn row_roles(&self) -> &[RowRole] {
        &self.row_roles
    }

    fn check_row(&self, row: usize) -> Result<(), DeviceError> {
        if row >= self.xbar.rows() {
            return Err(DeviceError::RowOutOfRange {
                row,
                rows: self.xbar.rows(),
            });
        }
        if self.row_roles[row] != RowRole::Unused {
            return Err(DeviceError::RowAlreadyUsed { row });
        }
        Ok(())
    }

    /// Programs a minterm onto `row`: one active crosspoint per literal
    /// `(var, positive)` plus one per output membership in the AND plane.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] on bad row/variable/output indices or a row
    /// already in use.
    pub fn program_minterm(
        &mut self,
        row: usize,
        literals: &[(usize, bool)],
        memberships: &[usize],
    ) -> Result<(), DeviceError> {
        self.check_row(row)?;
        for &(var, _) in literals {
            if var >= self.layout.num_inputs {
                return Err(DeviceError::IndexOutOfRange {
                    kind: "input",
                    index: var,
                    limit: self.layout.num_inputs,
                });
            }
        }
        for &k in memberships {
            if k >= self.layout.num_outputs {
                return Err(DeviceError::IndexOutOfRange {
                    kind: "output",
                    index: k,
                    limit: self.layout.num_outputs,
                });
            }
        }
        for &(var, positive) in literals {
            let col = self.layout.input_col(var, positive);
            self.xbar.set_program(row, col, ProgramState::Active);
        }
        for &k in memberships {
            let col = self.layout.output_col(k);
            self.xbar.set_program(row, col, ProgramState::Active);
        }
        self.row_roles[row] = RowRole::Minterm;
        Ok(())
    }

    /// Programs the inversion/latch row of output `k` onto `row` (active
    /// crosspoints at `O_k` and `Ō_k`).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] on bad indices or a row already in use.
    pub fn program_output(&mut self, row: usize, k: usize) -> Result<(), DeviceError> {
        self.check_row(row)?;
        if k >= self.layout.num_outputs {
            return Err(DeviceError::IndexOutOfRange {
                kind: "output",
                index: k,
                limit: self.layout.num_outputs,
            });
        }
        self.xbar
            .set_program(row, self.layout.output_col(k), ProgramState::Active);
        self.xbar
            .set_program(row, self.layout.output_bar_col(k), ProgramState::Active);
        self.row_roles[row] = RowRole::Output(k);
        Ok(())
    }

    /// Runs the full seven-phase computation and returns `f_k` per output.
    pub fn evaluate(&mut self, inputs: u64) -> Vec<bool> {
        self.run(inputs, false).outputs
    }

    /// Runs the computation recording a full [`TwoLevelTrace`].
    pub fn trace(&mut self, inputs: u64) -> TwoLevelTrace {
        self.run(inputs, true)
    }

    fn run(&mut self, inputs: u64, record: bool) -> TwoLevelTrace {
        let i_count = self.layout.num_inputs;
        let k_count = self.layout.num_outputs;
        let mut phases: Vec<(TwoLevelPhase, String)> = Vec::new();
        let mut log = |phase: TwoLevelPhase, text: String| {
            if record {
                phases.push((phase, text));
            }
        };

        // INA: everything to R_OFF.
        self.xbar.initialize_all();
        log(
            TwoLevelPhase::Ina,
            "all functional memristors reset to R_OFF (logic 1)".into(),
        );

        // RI: latch inputs onto input columns (and complements).
        let mut latch: Vec<Option<bool>> = vec![None; self.xbar.cols()];
        for var in 0..i_count {
            let v = inputs >> var & 1 == 1;
            latch[self.layout.input_col(var, true)] = Some(v);
            latch[self.layout.input_col(var, false)] = Some(!v);
        }
        log(
            TwoLevelPhase::Ri,
            format!(
                "input latch receives x = {:0width$b} (LSB = x0)",
                inputs & ((1 << i_count) - 1),
                width = i_count
            ),
        );

        // Columns with a stuck-closed device are unusable: every value read
        // off them collapses to logic 0.
        let col_poisoned: Vec<bool> = (0..self.xbar.cols())
            .map(|c| self.xbar.col_has_stuck_closed(c))
            .collect();

        // CFM: copy latched values into active NAND-plane crosspoints.
        let mut copied = 0usize;
        for row in 0..self.xbar.rows() {
            if self.row_roles[row] != RowRole::Minterm {
                continue;
            }
            for col in 0..2 * i_count {
                if self.xbar.crosspoint(row, col).program == ProgramState::Active {
                    let value = if col_poisoned[col] {
                        false
                    } else {
                        latch[col].unwrap_or(true)
                    };
                    self.xbar.store_value(row, col, value);
                    copied += 1;
                }
            }
        }
        log(
            TwoLevelPhase::Cfm,
            format!("{copied} literal crosspoints configured from the input latch"),
        );

        // EVM: row NANDs, written into the AND plane.
        let mut minterm_results: Vec<Option<bool>> = vec![None; self.xbar.rows()];
        for (row, slot) in minterm_results.iter_mut().enumerate() {
            if self.row_roles[row] != RowRole::Minterm {
                continue;
            }
            let result = self.row_nand(row, 0, 2 * i_count);
            *slot = Some(result);
            for k in 0..k_count {
                let col = self.layout.output_col(k);
                if self.xbar.crosspoint(row, col).program == ProgramState::Active {
                    self.xbar.store_value(row, col, result);
                }
            }
        }
        log(
            TwoLevelPhase::Evm,
            format!(
                "minterm NAND results: {:?}",
                minterm_results
                    .iter()
                    .flatten()
                    .map(|&b| u8::from(b))
                    .collect::<Vec<_>>()
            ),
        );

        // EVR: wired-AND down each output column = f̄_k, stored into the
        // output row's O_k crosspoint.
        let mut outputs_bar = vec![true; k_count];
        for (k, out) in outputs_bar.iter_mut().enumerate() {
            let col = self.layout.output_col(k);
            let mut value = true; // empty AND = 1 (f with no minterms is 0)
            for row in 0..self.xbar.rows() {
                if self.row_roles[row] == RowRole::Minterm
                    && self.xbar.crosspoint(row, col).program == ProgramState::Active
                    && !self.xbar.stored_value(row, col)
                {
                    value = false;
                }
            }
            if col_poisoned[col] {
                value = false;
            }
            *out = value;
            if let Some(out_row) = self.output_row(k) {
                self.xbar.store_value(out_row, col, value);
            }
        }
        log(
            TwoLevelPhase::Evr,
            format!(
                "f̄ = {:?}",
                outputs_bar.iter().map(|&b| u8::from(b)).collect::<Vec<_>>()
            ),
        );

        // INR: output rows invert O_k into Ō_k. A stuck-closed anywhere in
        // the output row corrupts the row: it reads logic 0.
        let mut outputs = vec![false; k_count];
        for (k, out) in outputs.iter_mut().enumerate() {
            let col = self.layout.output_col(k);
            let bar_col = self.layout.output_bar_col(k);
            if let Some(out_row) = self.output_row(k) {
                let v = if self.xbar.row_has_stuck_closed(out_row) {
                    false
                } else {
                    self.xbar.stored_value(out_row, col)
                };
                let inverted = !v;
                self.xbar.store_value(out_row, bar_col, inverted);
                // SO reads the stored value back (defects at the Ō_k
                // crosspoint or column apply).
                let read = if col_poisoned[bar_col] {
                    false
                } else {
                    self.xbar.stored_value(out_row, bar_col)
                };
                *out = read;
            } else {
                // No output row mapped: the output cannot be observed.
                *out = false;
            }
        }
        log(
            TwoLevelPhase::Inr,
            format!(
                "f = {:?}",
                outputs.iter().map(|&b| u8::from(b)).collect::<Vec<_>>()
            ),
        );
        log(
            TwoLevelPhase::So,
            "outputs written to the output latch".into(),
        );

        TwoLevelTrace {
            phases,
            minterm_results,
            outputs_bar,
            outputs,
        }
    }

    /// NAND over the stored values of active crosspoints of `row` within
    /// `[col_from, col_to)`. A stuck-closed device anywhere on the row
    /// forces the result to logic 1 (the paper's §IV-A observation).
    fn row_nand(&self, row: usize, col_from: usize, col_to: usize) -> bool {
        if self.xbar.row_has_stuck_closed(row) {
            return true;
        }
        let mut conjunction = true;
        for col in col_from..col_to {
            if self.xbar.crosspoint(row, col).program == ProgramState::Active
                && !self.xbar.stored_value(row, col)
            {
                conjunction = false;
            }
        }
        // Disabled/stuck-open devices hold logic 1: neutral for AND.
        !conjunction
    }

    fn output_row(&self, k: usize) -> Option<usize> {
        self.row_roles.iter().position(|&r| r == RowRole::Output(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::Defect;

    /// Builds the paper's Fig. 3 function
    /// f = x0 + x1 + x2 + x3 + x4·x5·x6·x7 on an 8-input crossbar.
    fn fig3_machine() -> TwoLevelMachine {
        let xbar = Crossbar::new(6, 18);
        let mut m = TwoLevelMachine::new(xbar, 8, 1).expect("layout");
        for (row, var) in (0..4).enumerate() {
            m.program_minterm(row, &[(var, true)], &[0])
                .expect("program");
        }
        m.program_minterm(4, &[(4, true), (5, true), (6, true), (7, true)], &[0])
            .expect("program");
        m.program_output(5, 0).expect("program");
        m
    }

    #[test]
    fn fig3_function_is_computed_for_all_inputs() {
        let mut m = fig3_machine();
        for a in 0..256u64 {
            let expected = (a & 0b1111) != 0 || (a >> 4) & 0b1111 == 0b1111;
            assert_eq!(m.evaluate(a), vec![expected], "input {a:08b}");
        }
    }

    #[test]
    fn trace_records_the_seven_phases() {
        let mut m = fig3_machine();
        let trace = m.trace(0b0000_0001);
        let names: Vec<String> = trace.phases.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(names, ["INA", "RI", "CFM", "EVM", "EVR", "INR", "SO"]);
        assert_eq!(trace.outputs, vec![true]);
        assert_eq!(trace.outputs_bar, vec![false]);
    }

    #[test]
    fn multi_output_machine() {
        // O0 = x0·x1, O1 = x̄1 (3 rows: 2 minterms + ... 4 rows with outputs).
        let xbar = Crossbar::new(4, 8); // 2 inputs → 2*2 + 2*2 = 8 cols
        let mut m = TwoLevelMachine::new(xbar, 2, 2).expect("layout");
        m.program_minterm(0, &[(0, true), (1, true)], &[0])
            .expect("p");
        m.program_minterm(1, &[(1, false)], &[1]).expect("p");
        m.program_output(2, 0).expect("p");
        m.program_output(3, 1).expect("p");
        assert_eq!(m.evaluate(0b11), vec![true, false]);
        assert_eq!(m.evaluate(0b01), vec![false, true]);
        assert_eq!(m.evaluate(0b00), vec![false, true]);
    }

    #[test]
    fn stuck_open_on_used_literal_breaks_the_minterm() {
        let mut m = fig3_machine();
        // Row 4 is the 4-literal minterm; poison its x4 crosspoint.
        let col = m.layout().input_col(4, true);
        m.crossbar_mut().set_defect(4, col, Defect::StuckOpen);
        // x4..x7 = 1111, x0..x3 = 0: should be 1, but the stuck-open literal
        // reads R_OFF (1) during CFM... the literal is silently dropped, so
        // the minterm fires for x5x6x7 = 111 regardless of x4 — and the
        // function *still* returns 1 for all-ones. The observable failure is
        // on x4 = 0, x5..x7 = 1:
        let input = 0b1110_0000u64;
        assert_eq!(m.evaluate(input), vec![true], "defect drops the x4 literal");
        // A defect-free machine computes 0 there.
        let mut clean = fig3_machine();
        assert_eq!(clean.evaluate(input), vec![false]);
    }

    #[test]
    fn stuck_open_on_membership_kills_the_minterm() {
        let mut m = fig3_machine();
        let col = m.layout().output_col(0);
        m.crossbar_mut().set_defect(0, col, Defect::StuckOpen);
        // Minterm row 0 is x0: with the AND-plane crosspoint stuck open the
        // stored m̄ value is always 1, so x0 alone no longer drives f.
        assert_eq!(m.evaluate(0b0000_0001), vec![false]);
        // Other minterms still work.
        assert_eq!(m.evaluate(0b0000_0010), vec![true]);
    }

    #[test]
    fn stuck_closed_poisons_row_and_column() {
        let mut m = fig3_machine();
        // Stuck-closed on an *unused* crosspoint of minterm row 1 (column of
        // x̄7 = col 8+7): row NAND forced to 1, so minterm x1 stops firing.
        m.crossbar_mut().set_defect(1, 15, Defect::StuckClosed);
        assert_eq!(m.evaluate(0b0000_0010), vec![false], "row poisoned");
        // And the whole column 15 is unusable for everyone else (here no
        // other row used it, so only the row effect is observable).
        assert_eq!(m.evaluate(0b0000_0001), vec![true], "other rows fine");
    }

    #[test]
    fn stuck_closed_in_output_column_forces_constant() {
        let mut m = fig3_machine();
        let col = m.layout().output_col(0);
        // Unused row... all rows are used; put it on row 3's output column
        // crosspoint (row 3 = minterm x3, which has no membership there? it
        // does have membership. Use the output row's column crosspoint of an
        // unrelated row: row 2.
        m.crossbar_mut().set_defect(2, col, Defect::StuckClosed);
        // Column O_0 reads 0 always → f̄ = 0 → f = 1 constantly; but row 2's
        // NAND is also poisoned. Either way the function is broken:
        assert_eq!(m.evaluate(0), vec![true], "f stuck at 1");
        let mut clean = fig3_machine();
        assert_eq!(clean.evaluate(0), vec![false]);
    }

    #[test]
    fn column_count_mismatch_is_error() {
        let xbar = Crossbar::new(3, 10);
        assert!(TwoLevelMachine::new(xbar, 8, 1).is_err());
    }

    #[test]
    fn row_reuse_is_error() {
        let xbar = Crossbar::new(2, 6);
        let mut m = TwoLevelMachine::new(xbar, 2, 1).expect("layout");
        m.program_minterm(0, &[(0, true)], &[0]).expect("first");
        assert!(m.program_output(0, 0).is_err());
    }

    #[test]
    fn empty_function_outputs_zero() {
        let xbar = Crossbar::new(1, 6);
        let mut m = TwoLevelMachine::new(xbar, 2, 1).expect("layout");
        m.program_output(0, 0).expect("output row");
        assert_eq!(m.evaluate(0b11), vec![false], "no minterms → constant 0");
    }
}
