//! Multi-level crossbar synthesis (§III) and its defect-tolerant mapping —
//! the second future-work item of the paper's §VI, implemented here.
//!
//! Synthesis: SOP → factored NAND network (via `xbar-netlist`) → gate/row
//! schedule + connection-column allocation → an executable
//! [`MultiLevelMachine`]. Mapping: gate rows are placed on a defective
//! fabric with the same compatibility rules as the two-level mapper,
//! extended with connection-column permutation retries (gate rows need
//! functional crosspoints at their fan-in *and* destination columns, and
//! which physical column hosts which connection net is itself a degree of
//! freedom).

use crate::matrices::{BitRow, CrossbarMatrix};
use rand::prelude::*;
use rand::rngs::StdRng;
use xbar_device::{
    Crossbar, Destination, DeviceError, MultiLevelLayout, MultiLevelMachine, Signal,
};
use xbar_logic::Cover;
use xbar_netlist::{map_cover, MapOptions, MultiLevelCost, NetSignal, Network};

/// A multi-level crossbar design: the network plus its column allocation.
#[derive(Debug, Clone)]
pub struct MultiLevelDesign {
    /// The NAND network (gates in topological order).
    pub network: Network,
    /// `connection_of_gate[g]` = connection column index allocated to gate
    /// `g`'s output, when it feeds other gates.
    pub connection_of_gate: Vec<Option<usize>>,
    /// Crossbar cost.
    pub cost: MultiLevelCost,
}

impl MultiLevelDesign {
    /// Synthesizes a multi-level design from a cover.
    #[must_use]
    pub fn synthesize(cover: &Cover, options: &MapOptions) -> Self {
        Self::from_network(map_cover(cover, options))
    }

    /// Wraps an existing network (e.g. a structural analog).
    #[must_use]
    pub fn from_network(network: Network) -> Self {
        let cost = MultiLevelCost::of(&network);
        // Allocate connection columns in gate order.
        let mut feeds_gate = vec![false; network.gate_count()];
        for gate in network.gates() {
            for &s in &gate.fanins {
                if let NetSignal::Gate(id) = s {
                    feeds_gate[id] = true;
                }
            }
        }
        let mut connection_of_gate = vec![None; network.gate_count()];
        let mut next = 0usize;
        for (g, &feeds) in feeds_gate.iter().enumerate() {
            if feeds {
                connection_of_gate[g] = Some(next);
                next += 1;
            }
        }
        debug_assert_eq!(next, cost.connections);
        Self {
            network,
            connection_of_gate,
            cost,
        }
    }

    /// Device layout of the design.
    #[must_use]
    pub fn device_layout(&self) -> MultiLevelLayout {
        MultiLevelLayout {
            num_inputs: self.network.num_inputs(),
            num_connections: self.cost.connections,
            num_outputs: self.network.num_outputs(),
        }
    }

    /// Area cost (rows × cols).
    #[must_use]
    pub fn area(&self) -> usize {
        self.cost.area()
    }

    /// The signals each gate row must touch, as a [`BitRow`] over the
    /// multi-level column layout, under a given connection-net → column
    /// permutation (`column_of_net[net] = physical connection column`).
    fn gate_row_bits(&self, g: usize, column_of_net: &[usize]) -> BitRow {
        let layout = self.device_layout();
        let mut row = BitRow::zeros(layout.total_cols());
        for &s in &self.network.gates()[g].fanins {
            match s {
                NetSignal::Literal { var, positive } => {
                    row.set(layout.input_col(var, positive), true);
                }
                NetSignal::Gate(id) => {
                    let net = self.connection_of_gate[id].expect("fan-in gates have nets");
                    row.set(layout.connection_col(column_of_net[net]), true);
                }
            }
        }
        if let Some(net) = self.connection_of_gate[g] {
            row.set(layout.connection_col(column_of_net[net]), true);
        }
        for k in 0..self.network.num_outputs() {
            if self.network.output(k) == Some(NetSignal::Gate(g)) {
                row.set(layout.output_col(k), true);
            }
        }
        row
    }

    /// Output-row bits (active at `O_k` and `Ō_k`).
    fn output_row_bits(&self, k: usize) -> BitRow {
        let layout = self.device_layout();
        let mut row = BitRow::zeros(layout.total_cols());
        row.set(layout.output_col(k), true);
        row.set(layout.output_bar_col(k), true);
        row
    }

    /// Builds the executable machine on a given fabric with a given row
    /// assignment and connection permutation. Use
    /// [`MultiLevelMapping::identity`] for a defect-free build.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError`] when the fabric shape does not fit.
    pub fn build_machine(
        &self,
        xbar: Crossbar,
        mapping: &MultiLevelMapping,
    ) -> Result<MultiLevelMachine, DeviceError> {
        let layout = self.device_layout();
        let mut machine = MultiLevelMachine::new(xbar, layout)?;
        for (g, gate) in self.network.gates().iter().enumerate() {
            let fanins: Vec<Signal> = gate
                .fanins
                .iter()
                .map(|&s| match s {
                    NetSignal::Literal { var, positive } => Signal::Input { var, positive },
                    NetSignal::Gate(id) => {
                        let net = self.connection_of_gate[id].expect("net allocated");
                        Signal::Connection(mapping.column_of_net[net])
                    }
                })
                .collect();
            let mut destinations = Vec::new();
            if let Some(net) = self.connection_of_gate[g] {
                destinations.push(Destination::Connection(mapping.column_of_net[net]));
            }
            for k in 0..self.network.num_outputs() {
                if self.network.output(k) == Some(NetSignal::Gate(g)) {
                    destinations.push(Destination::Output(k));
                }
            }
            machine.add_gate(mapping.gate_rows[g], fanins, destinations)?;
        }
        for k in 0..self.network.num_outputs() {
            machine.program_output_row(mapping.output_rows[k], k)?;
        }
        Ok(machine)
    }
}

/// A placement of a multi-level design onto physical rows/columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiLevelMapping {
    /// Physical row of each gate.
    pub gate_rows: Vec<usize>,
    /// Physical row of each output inversion row.
    pub output_rows: Vec<usize>,
    /// Physical connection column of each connection net.
    pub column_of_net: Vec<usize>,
    /// Connection-column permutations tried before success.
    pub permutations_tried: usize,
}

impl MultiLevelMapping {
    /// The defect-free identity placement.
    #[must_use]
    pub fn identity(design: &MultiLevelDesign) -> Self {
        Self {
            gate_rows: (0..design.network.gate_count()).collect(),
            output_rows: (design.network.gate_count()
                ..design.network.gate_count() + design.network.num_outputs())
                .collect(),
            column_of_net: (0..design.cost.connections).collect(),
            permutations_tried: 0,
        }
    }
}

/// Defect-tolerant multi-level mapping (the paper's future-work item):
/// greedy gate-row placement with single-level backtracking under up to
/// `max_permutations` random connection-column permutations.
///
/// `cm` must cover the multi-level column layout of `design`.
#[must_use]
pub fn map_multilevel(
    design: &MultiLevelDesign,
    cm: &CrossbarMatrix,
    max_permutations: usize,
    seed: u64,
) -> Option<MultiLevelMapping> {
    let g_count = design.network.gate_count();
    let k_count = design.network.num_outputs();
    if g_count + k_count > cm.num_rows() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut column_of_net: Vec<usize> = (0..design.cost.connections).collect();

    for attempt in 0..max_permutations.max(1) {
        if attempt > 0 {
            column_of_net.shuffle(&mut rng);
        }
        if let Some((gate_rows, output_rows)) = try_rows(design, cm, &column_of_net) {
            return Some(MultiLevelMapping {
                gate_rows,
                output_rows,
                column_of_net,
                permutations_tried: attempt + 1,
            });
        }
    }
    None
}

/// Greedy row placement with single-level backtracking (the HBA row loop,
/// reused for gate rows and then output rows).
fn try_rows(
    design: &MultiLevelDesign,
    cm: &CrossbarMatrix,
    column_of_net: &[usize],
) -> Option<(Vec<usize>, Vec<usize>)> {
    let g_count = design.network.gate_count();
    let k_count = design.network.num_outputs();
    let needs: Vec<BitRow> = (0..g_count)
        .map(|g| design.gate_row_bits(g, column_of_net))
        .chain((0..k_count).map(|k| design.output_row_bits(k)))
        .collect();

    let r = cm.num_rows();
    let cm_rows: Vec<BitRow> = (0..r).map(|t| cm.row(t)).collect();
    let mut occupant: Vec<Option<usize>> = vec![None; r];
    let mut row_of: Vec<usize> = vec![usize::MAX; needs.len()];
    for i in 0..needs.len() {
        let mut placed = false;
        for (t, slot) in occupant.iter_mut().enumerate() {
            if slot.is_none() && needs[i].fits_in(&cm_rows[t]) {
                *slot = Some(i);
                row_of[i] = t;
                placed = true;
                break;
            }
        }
        if placed {
            continue;
        }
        'steal: for t in 0..r {
            let Some(j) = occupant[t] else { continue };
            if !needs[i].fits_in(&cm_rows[t]) {
                continue;
            }
            for u in 0..r {
                if occupant[u].is_none() && needs[j].fits_in(&cm_rows[u]) {
                    occupant[u] = Some(j);
                    row_of[j] = u;
                    occupant[t] = Some(i);
                    row_of[i] = t;
                    placed = true;
                    break 'steal;
                }
            }
        }
        if !placed {
            return None;
        }
    }
    let (gates, outputs) = row_of.split_at(g_count);
    Some((gates.to_vec(), outputs.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_logic::cube;

    fn fig5_cover() -> Cover {
        Cover::from_cubes(
            8,
            1,
            [
                cube("1------- 1"),
                cube("-1------ 1"),
                cube("--1----- 1"),
                cube("---1---- 1"),
                cube("----1111 1"),
            ],
        )
        .expect("dims")
    }

    #[test]
    fn fig5_design_cost_and_machine() {
        let design = MultiLevelDesign::synthesize(&fig5_cover(), &MapOptions::default());
        assert_eq!(design.cost.rows, 3);
        assert_eq!(design.cost.cols, 19);
        let mapping = MultiLevelMapping::identity(&design);
        let xbar = Crossbar::new(design.cost.rows, design.cost.cols);
        let mut machine = design.build_machine(xbar, &mapping).expect("fits");
        let cover = fig5_cover();
        for a in 0..256u64 {
            assert_eq!(machine.evaluate(a), cover.evaluate(a), "input {a:08b}");
        }
    }

    #[test]
    fn multilevel_mapping_on_clean_fabric() {
        let design = MultiLevelDesign::synthesize(&fig5_cover(), &MapOptions::default());
        let cm = CrossbarMatrix::perfect(design.cost.rows, design.cost.cols);
        let mapping = map_multilevel(&design, &cm, 4, 0).expect("clean maps");
        assert_eq!(mapping.permutations_tried, 1);
    }

    #[test]
    fn multilevel_mapping_avoids_defects_and_stays_correct() {
        let design = MultiLevelDesign::synthesize(&fig5_cover(), &MapOptions::default());
        let cover = fig5_cover();
        let mut rng = StdRng::seed_from_u64(5);
        let mut mapped = 0;
        // One spare row to give the mapper room.
        let rows = design.cost.rows + 1;
        for _ in 0..60 {
            let xbar = Crossbar::with_random_defects(
                rows,
                design.cost.cols,
                xbar_device::DefectProfile::stuck_open_only(0.08),
                &mut rng,
            );
            let cm = CrossbarMatrix::from_crossbar(&xbar);
            if let Some(mapping) = map_multilevel(&design, &cm, 6, 1) {
                let mut machine = design.build_machine(xbar, &mapping).expect("fits");
                for a in (0..256u64).step_by(7) {
                    assert_eq!(
                        machine.evaluate(a),
                        cover.evaluate(a),
                        "defective-fabric multi-level mapping must stay correct"
                    );
                }
                mapped += 1;
            }
        }
        assert!(mapped > 30, "most samples should map, got {mapped}");
    }

    #[test]
    fn mapping_fails_when_rows_insufficient() {
        let design = MultiLevelDesign::synthesize(&fig5_cover(), &MapOptions::default());
        let cm = CrossbarMatrix::perfect(design.cost.rows - 1, design.cost.cols);
        assert!(map_multilevel(&design, &cm, 4, 0).is_none());
    }

    #[test]
    fn connection_permutation_rescues_a_blocked_column() {
        // Design with ≥2 connection nets; poison one connection column in
        // the row where the identity permutation would use it.
        let cover = Cover::from_cubes(4, 1, [cube("11-- 1"), cube("--11 1"), cube("1--1 1")])
            .expect("dims");
        let design = MultiLevelDesign::synthesize(&cover, &MapOptions::default());
        if design.cost.connections < 2 {
            // Factoring may collapse this; the permutation path is then
            // covered by the random test above.
            return;
        }
        let cm = CrossbarMatrix::perfect(design.cost.rows, design.cost.cols);
        assert!(map_multilevel(&design, &cm, 8, 2).is_some());
    }
}
