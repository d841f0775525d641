//! The crossbar fabric: a grid of memristive crosspoints with programming
//! states and manufacturing defects.

use crate::memristor::{Memristor, MemristorParams};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt;

/// Programming state of a crosspoint (§II-C of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgramState {
    /// The memristor may switch between `R_ON` and `R_OFF`.
    Active,
    /// The memristor is permanently kept in `R_OFF` (logic 1); used for
    /// every crosspoint the mapped function does not need.
    #[default]
    Disabled,
}

/// Manufacturing defect of a crosspoint (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Defect {
    /// Functional crosspoint.
    #[default]
    None,
    /// Always `R_OFF` (logic 1): indistinguishable from a disabled device,
    /// tolerable by mapping around it.
    StuckOpen,
    /// Always `R_ON` (logic 0): poisons its whole row (NAND evaluates to 1)
    /// and its whole column (wired-AND reads 0).
    StuckClosed,
}

/// Mix of defect kinds when sampling a defect map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectProfile {
    /// Per-crosspoint probability of *any* defect (i.i.d. uniform).
    pub rate: f64,
    /// Probability that a defect is stuck-closed (otherwise stuck-open).
    /// The paper's Table II experiments use 0.0 (stuck-open only).
    pub stuck_closed_fraction: f64,
}

impl DefectProfile {
    /// The paper's Table II regime: stuck-open only, at the given rate.
    #[must_use]
    pub fn stuck_open_only(rate: f64) -> Self {
        Self {
            rate,
            stuck_closed_fraction: 0.0,
        }
    }
}

/// One crosspoint: device + programming + defect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crosspoint {
    /// The memristive device at this junction.
    pub device: Memristor,
    /// Programming state chosen by the mapper.
    pub program: ProgramState,
    /// Manufacturing defect.
    pub defect: Defect,
}

/// A `rows × cols` memristive crossbar.
///
/// Rows are the horizontal lines (minterm/gate/output rows), columns the
/// vertical lines (input, connection and output-latch columns). The fabric
/// knows nothing about logic roles — those live in the machine layers
/// ([`crate::TwoLevelMachine`], [`crate::MultiLevelMachine`]).
///
/// # Examples
///
/// ```
/// use xbar_device::{Crossbar, Defect, ProgramState};
///
/// let mut xbar = Crossbar::new(4, 6);
/// xbar.set_program(0, 1, ProgramState::Active);
/// xbar.set_defect(2, 3, Defect::StuckClosed);
/// assert_eq!(xbar.crosspoint(0, 1).program, ProgramState::Active);
/// assert!(xbar.row_has_stuck_closed(2));
/// assert!(xbar.col_has_stuck_closed(3));
/// ```
#[derive(Clone, PartialEq)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    cells: Vec<Crosspoint>,
    params: MemristorParams,
}

impl Crossbar {
    /// A defect-free crossbar with every crosspoint disabled, using default
    /// device parameters.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_params(rows, cols, MemristorParams::default())
    }

    /// A defect-free crossbar with explicit device parameters.
    #[must_use]
    pub fn with_params(rows: usize, cols: usize, params: MemristorParams) -> Self {
        let cell = Crosspoint {
            device: Memristor::new(params),
            program: ProgramState::Disabled,
            defect: Defect::None,
        };
        Self {
            rows,
            cols,
            cells: vec![cell; rows * cols],
            params,
        }
    }

    /// Samples an i.i.d. defect map over a fresh crossbar (the Monte Carlo
    /// step of the paper's §V).
    #[must_use]
    pub fn with_random_defects(
        rows: usize,
        cols: usize,
        profile: DefectProfile,
        rng: &mut StdRng,
    ) -> Self {
        let mut xbar = Self::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.random_bool(profile.rate.clamp(0.0, 1.0)) {
                    let kind = if profile.stuck_closed_fraction > 0.0
                        && rng.random_bool(profile.stuck_closed_fraction.clamp(0.0, 1.0))
                    {
                        Defect::StuckClosed
                    } else {
                        Defect::StuckOpen
                    };
                    xbar.set_defect(r, c, kind);
                }
            }
        }
        xbar
    }

    /// Number of horizontal lines.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of vertical lines.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Area cost as defined by the paper: rows × cols.
    #[must_use]
    pub fn area(&self) -> usize {
        self.rows * self.cols
    }

    /// Device parameters shared by all crosspoints.
    #[must_use]
    pub fn params(&self) -> &MemristorParams {
        &self.params
    }

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "crosspoint out of range"
        );
        row * self.cols + col
    }

    /// The crosspoint at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn crosspoint(&self, row: usize, col: usize) -> &Crosspoint {
        &self.cells[self.index(row, col)]
    }

    /// Mutable crosspoint access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn crosspoint_mut(&mut self, row: usize, col: usize) -> &mut Crosspoint {
        let i = self.index(row, col);
        &mut self.cells[i]
    }

    /// Sets the programming state of one crosspoint.
    pub fn set_program(&mut self, row: usize, col: usize, state: ProgramState) {
        self.crosspoint_mut(row, col).program = state;
    }

    /// Sets the defect of one crosspoint.
    pub fn set_defect(&mut self, row: usize, col: usize, defect: Defect) {
        self.crosspoint_mut(row, col).defect = defect;
    }

    /// Number of active (programmed) crosspoints; the numerator of the
    /// paper's inclusion ratio.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.program == ProgramState::Active)
            .count()
    }

    /// Inclusion ratio `IR` = active crosspoints / area.
    #[must_use]
    pub fn inclusion_ratio(&self) -> f64 {
        self.active_count() as f64 / self.area() as f64
    }

    /// Whether a row contains any stuck-closed crosspoint (the row's NAND
    /// output is forced to logic 1 and the row is unusable).
    #[must_use]
    pub fn row_has_stuck_closed(&self, row: usize) -> bool {
        (0..self.cols).any(|c| self.crosspoint(row, c).defect == Defect::StuckClosed)
    }

    /// Whether a column contains any stuck-closed crosspoint (the column
    /// wired-AND reads logic 0 and the column is unusable).
    #[must_use]
    pub fn col_has_stuck_closed(&self, col: usize) -> bool {
        (0..self.rows).any(|r| self.crosspoint(r, col).defect == Defect::StuckClosed)
    }

    /// Counts defects by kind: `(stuck_open, stuck_closed)`.
    #[must_use]
    pub fn defect_counts(&self) -> (usize, usize) {
        let mut open = 0;
        let mut closed = 0;
        for cell in &self.cells {
            match cell.defect {
                Defect::StuckOpen => open += 1,
                Defect::StuckClosed => closed += 1,
                Defect::None => {}
            }
        }
        (open, closed)
    }

    /// The *effective* stored logic value of a crosspoint, accounting for
    /// defects: stuck-open always reads 1 (`R_OFF`), stuck-closed always 0.
    #[must_use]
    pub fn stored_value(&self, row: usize, col: usize) -> bool {
        let cell = self.crosspoint(row, col);
        match cell.defect {
            Defect::StuckOpen => true,
            Defect::StuckClosed => false,
            Defect::None => cell.device.logic_value(),
        }
    }

    /// Writes a logic value into a crosspoint, honouring programming state
    /// and defects: disabled and stuck-open devices stay at logic 1,
    /// stuck-closed at logic 0.
    pub fn store_value(&mut self, row: usize, col: usize, value: bool) {
        let i = self.index(row, col);
        let cell = &mut self.cells[i];
        match (cell.program, cell.defect) {
            (ProgramState::Active, Defect::None) => {
                // Logic 0 = R_ON = SET.
                cell.device.force(!value);
            }
            _ => { /* disabled or defective: state cannot change */ }
        }
    }

    /// Resets every functional active device to logic 1 (`R_OFF`) — the
    /// paper's INA phase.
    pub fn initialize_all(&mut self) {
        for cell in &mut self.cells {
            if cell.defect == Defect::None {
                cell.device.force(false);
            }
        }
    }
}

impl fmt::Debug for Crossbar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Crossbar {}x{} (area {})",
            self.rows,
            self.cols,
            self.area()
        )?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let cell = self.crosspoint(r, c);
                let ch = match (cell.program, cell.defect) {
                    (_, Defect::StuckOpen) => 'o',
                    (_, Defect::StuckClosed) => 'x',
                    (ProgramState::Active, _) => 'A',
                    (ProgramState::Disabled, _) => '.',
                };
                write!(f, "{ch}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn new_crossbar_is_clean_and_disabled() {
        let xbar = Crossbar::new(3, 4);
        assert_eq!(xbar.area(), 12);
        assert_eq!(xbar.active_count(), 0);
        assert_eq!(xbar.defect_counts(), (0, 0));
    }

    #[test]
    fn defect_rate_is_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        let xbar =
            Crossbar::with_random_defects(100, 100, DefectProfile::stuck_open_only(0.1), &mut rng);
        let (open, closed) = xbar.defect_counts();
        assert_eq!(closed, 0);
        assert!((800..1200).contains(&open), "≈10% of 10000, got {open}");
    }

    #[test]
    fn mixed_defects() {
        let mut rng = StdRng::seed_from_u64(11);
        let profile = DefectProfile {
            rate: 0.2,
            stuck_closed_fraction: 0.5,
        };
        let xbar = Crossbar::with_random_defects(50, 50, profile, &mut rng);
        let (open, closed) = xbar.defect_counts();
        assert!(
            open > 100 && closed > 100,
            "both kinds present: {open}/{closed}"
        );
    }

    #[test]
    fn stuck_open_reads_one_regardless_of_writes() {
        let mut xbar = Crossbar::new(2, 2);
        xbar.set_defect(0, 0, Defect::StuckOpen);
        xbar.set_program(0, 0, ProgramState::Active);
        xbar.store_value(0, 0, false);
        assert!(xbar.stored_value(0, 0), "stuck-open is always logic 1");
    }

    #[test]
    fn stuck_closed_reads_zero_regardless_of_writes() {
        let mut xbar = Crossbar::new(2, 2);
        xbar.set_defect(1, 1, Defect::StuckClosed);
        xbar.set_program(1, 1, ProgramState::Active);
        xbar.initialize_all();
        assert!(!xbar.stored_value(1, 1), "stuck-closed is always logic 0");
    }

    #[test]
    fn disabled_cell_ignores_writes() {
        let mut xbar = Crossbar::new(1, 1);
        xbar.store_value(0, 0, false);
        assert!(xbar.stored_value(0, 0), "disabled devices stay at logic 1");
    }

    #[test]
    fn active_cell_stores_and_initializes() {
        let mut xbar = Crossbar::new(1, 1);
        xbar.set_program(0, 0, ProgramState::Active);
        xbar.store_value(0, 0, false);
        assert!(!xbar.stored_value(0, 0));
        xbar.initialize_all();
        assert!(xbar.stored_value(0, 0));
    }

    #[test]
    fn inclusion_ratio() {
        let mut xbar = Crossbar::new(2, 5);
        xbar.set_program(0, 0, ProgramState::Active);
        xbar.set_program(1, 4, ProgramState::Active);
        assert!((xbar.inclusion_ratio() - 0.2).abs() < 1e-12);
    }
}
