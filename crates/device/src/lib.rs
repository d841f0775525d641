//! # xbar-device
//!
//! Memristor device model and executable crossbar fabric for the
//! reproduction of Tunali & Altun, *"Logic Synthesis and Defect Tolerance
//! for Memristive Crossbar Arrays"* (DATE 2018).
//!
//! The paper evaluates mappings on simulated crossbars; this crate is that
//! substrate, with more fidelity than the original (mappings can be
//! *executed* phase by phase on a defective fabric):
//!
//! * [`Memristor`] — threshold-switching device with abrupt and linear-drift
//!   models, and [`iv_sweep`] reproducing the Fig. 1 hysteresis loop;
//! * [`Crossbar`] — the fabric: programming states, stuck-open /
//!   stuck-closed defects ([`Defect`]), defect-map sampling
//!   ([`DefectProfile`]);
//! * [`TwoLevelMachine`] — the NAND–AND design of Figs. 2–3, executing the
//!   `INA → RI → CFM → EVM → EVR → INR → SO` state machine with full defect
//!   semantics;
//! * [`MultiLevelMachine`] — the multi-level design of Figs. 4–5 with
//!   per-gate `CFM → EVM → CR` cycles and connection columns;
//! * [`analog`] — nodal analysis of the resistive read path validating the
//!   digital NAND abstraction against sneak paths;
//! * [`scan_march`] / [`scan_cell_by_cell`] — defect-map extraction (march
//!   tests), producing the crossbar matrix the mappers consume.
//!
//! ## Example
//!
//! ```
//! use xbar_device::{Crossbar, TwoLevelMachine};
//!
//! // AND of two inputs on a 2-row crossbar.
//! let mut machine = TwoLevelMachine::new(Crossbar::new(2, 6), 2, 1)?;
//! machine.program_minterm(0, &[(0, true), (1, true)], &[0])?;
//! machine.program_output(1, 0)?;
//! assert_eq!(machine.evaluate(0b11), vec![true]);
//! # Ok::<(), xbar_device::DeviceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod analog;
mod crossbar;
mod error;
mod memristor;
mod multi_level;
mod phases;
mod scan;
mod two_level;

pub use crossbar::{Crossbar, Crosspoint, Defect, DefectProfile, ProgramState};
pub use error::DeviceError;
pub use memristor::{iv_sweep, IvPoint, Memristor, MemristorParams};
pub use multi_level::{
    Destination, GateRow, MultiLevelLayout, MultiLevelMachine, MultiLevelTrace, Signal,
};
pub use phases::{MultiLevelPhase, TwoLevelPhase};
pub use scan::{scan_cell_by_cell, scan_march, CellDiagnosis, ScanReport};
pub use two_level::{ColumnLayout, RowRole, TwoLevelMachine, TwoLevelTrace};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Crossbar>();
        assert_send_sync::<crate::TwoLevelMachine>();
        assert_send_sync::<crate::MultiLevelMachine>();
        assert_send_sync::<crate::DeviceError>();
    }
}
