//! Registry of the MCNC/IWLS93 benchmark circuits used in the paper's
//! Tables I and II, with the published statistics and a synthesis path for
//! each.
//!
//! Three synthesis sources (see DESIGN.md §4):
//!
//! * [`BenchmarkSource::Exact`] — the function is mathematically defined
//!   (`rd53`, `rd73`, `rd84`, `sqrt8`, `squar5`); we build its truth table
//!   and minimize with our espresso-style minimizer. `clip` is a twin: the
//!   MCNC circuit is not the clamp [`exact_truth_table`] defines (see its
//!   registry entry).
//! * [`BenchmarkSource::Statistical`] — no public functional definition; a
//!   seeded random SOP with the published `I`/`O`/`P`/`IR`
//!   (a *statistical twin*, [`crate::random::CalibratedTwinSpec`]).
//! * [`BenchmarkSource::StructuralAnalog`] — `t481`/`cordic`: highly
//!   factorable functions whose role in Table I is the multi-level-wins
//!   crossover; the area driver uses the published product counts, and the
//!   multi-level flow uses a compact network analog built in `xbar-netlist`.

use crate::cover::Cover;
use crate::error::LogicError;
use crate::minimize::{minimize, MinimizeOptions};
use crate::random::CalibratedTwinSpec;
use crate::truth::TruthTable;

/// How a benchmark's cover is synthesized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkSource {
    /// Mathematically defined; synthesized exactly from its truth table.
    Exact,
    /// Statistical twin calibrated to published I/O/P/IR.
    Statistical,
    /// Structural analog (compact factorable form); the SOP twin is used
    /// where a cover is needed.
    StructuralAnalog,
}

/// Published per-circuit data from the paper (Tables I and II), plus our
/// synthesis source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkInfo {
    /// Circuit name as in the paper.
    pub name: &'static str,
    /// Input count `I`.
    pub inputs: usize,
    /// Output count `O`.
    pub outputs: usize,
    /// Published product count `P` (espresso-minimized).
    pub products: usize,
    /// Published inclusion ratio (percent), Table II only.
    pub ir_percent: Option<f64>,
    /// Published two-level area cost.
    pub area: usize,
    /// Published product count of the negated circuit (derived from Table I
    /// areas via area = (P'+O)(2I+2O)), when the paper reports it.
    pub neg_products: Option<usize>,
    /// Paper's Table I multi-level areas `(original, negation)`.
    pub multilevel_area: Option<(usize, usize)>,
    /// Paper's Table I two-level areas `(original, negation)`.
    pub twolevel_area: Option<(usize, usize)>,
    /// Published Table II HBA `(success %, runtime s)`.
    pub hba: Option<(f64, f64)>,
    /// Published Table II EA `(success %, runtime s)`.
    pub ea: Option<(f64, f64)>,
    /// Synthesis source.
    pub source: BenchmarkSource,
}

impl BenchmarkInfo {
    /// The two-level area implied by the paper's formula
    /// `(P + O) · (2I + 2O)`.
    #[must_use]
    pub fn formula_area(&self) -> usize {
        (self.products + self.outputs) * (2 * self.inputs + 2 * self.outputs)
    }

    /// Synthesizes the circuit's cover.
    ///
    /// Exact circuits ignore `seed`; twins use it. The returned cover always
    /// has the published input/output counts; its product count equals the
    /// published `P` for twins and is the minimizer's result for exact
    /// circuits (asserted close to published in tests).
    #[must_use]
    pub fn cover(&self, seed: u64) -> Cover {
        match self.source {
            BenchmarkSource::Exact => {
                exact_cover(self.name).expect("registry exact entries are synthesizable")
            }
            BenchmarkSource::Statistical | BenchmarkSource::StructuralAnalog => {
                self.twin_spec().generate_seeded(seed)
            }
        }
    }

    /// The cover a mapper should implement: for exact circuits this applies
    /// the paper's dual optimization (synthesize the complement too and
    /// keep the smaller — Table II prints dual implementations in bold;
    /// `sqrt8`'s published area 792 is its complement's).
    #[must_use]
    pub fn mapping_cover(&self, seed: u64) -> Cover {
        let direct = self.cover(seed);
        if self.source == BenchmarkSource::Exact {
            let dc = Cover::new(direct.num_inputs(), direct.num_outputs());
            let neg = minimize(
                &crate::calculus::complement_multi(&direct),
                &dc,
                MinimizeOptions::default(),
            );
            if neg.len() < direct.len() {
                return neg;
            }
        }
        direct
    }

    /// Statistical-twin spec with the published statistics (IR defaults to
    /// 20% when the paper gives none).
    #[must_use]
    pub fn twin_spec(&self) -> CalibratedTwinSpec {
        CalibratedTwinSpec {
            num_inputs: self.inputs,
            num_outputs: self.outputs,
            products: self.products,
            ir_percent: self.ir_percent.unwrap_or(20.0),
        }
    }

    /// Twin spec for the negated circuit when the paper reports its size.
    #[must_use]
    pub fn neg_twin_spec(&self) -> Option<CalibratedTwinSpec> {
        self.neg_products.map(|p| CalibratedTwinSpec {
            num_inputs: self.inputs,
            num_outputs: self.outputs,
            products: p,
            ir_percent: self.ir_percent.unwrap_or(20.0),
        })
    }
}

/// The full registry, in the paper's Table II order followed by the
/// Table-I-only circuits.
#[must_use]
pub fn registry() -> &'static [BenchmarkInfo] {
    use BenchmarkSource::{Exact, Statistical, StructuralAnalog};
    const R: &[BenchmarkInfo] = &[
        BenchmarkInfo {
            name: "rd53",
            inputs: 5,
            outputs: 3,
            products: 31,
            ir_percent: Some(33.0),
            area: 544,
            neg_products: Some(32),
            multilevel_area: Some((3000, 2000)),
            twolevel_area: Some((544, 560)),
            hba: Some((98.0, 0.001)),
            ea: Some((98.0, 0.001)),
            source: Exact,
        },
        BenchmarkInfo {
            name: "squar5",
            inputs: 5,
            outputs: 8,
            products: 25,
            ir_percent: Some(16.0),
            area: 858,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((100.0, 0.001)),
            ea: Some((100.0, 0.001)),
            source: Exact,
        },
        BenchmarkInfo {
            name: "bw",
            inputs: 5,
            outputs: 28,
            products: 22,
            ir_percent: Some(12.0),
            area: 3300,
            neg_products: Some(26),
            multilevel_area: Some((52875, 53110)),
            twolevel_area: Some((3300, 3564)),
            hba: Some((100.0, 0.002)),
            ea: Some((100.0, 0.003)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "inc",
            inputs: 7,
            outputs: 9,
            products: 30,
            ir_percent: Some(17.0),
            area: 1248,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((100.0, 0.001)),
            ea: Some((100.0, 0.002)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "misex1",
            inputs: 8,
            outputs: 7,
            products: 12,
            ir_percent: Some(19.0),
            area: 570,
            neg_products: Some(46),
            multilevel_area: Some((4836, 4161)),
            twolevel_area: Some((570, 1590)),
            hba: Some((100.0, 0.001)),
            ea: Some((100.0, 0.001)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "sqrt8",
            inputs: 8,
            outputs: 4,
            products: 29,
            ir_percent: Some(21.0),
            area: 792,
            neg_products: Some(38),
            multilevel_area: Some((2745, 3300)),
            twolevel_area: Some((1008, 792)),
            hba: Some((100.0, 0.001)),
            ea: Some((100.0, 0.002)),
            source: Exact,
        },
        BenchmarkInfo {
            name: "sao2",
            inputs: 10,
            outputs: 4,
            products: 58,
            ir_percent: Some(29.0),
            area: 1736,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((94.0, 0.001)),
            ea: Some((97.0, 0.003)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "rd73",
            inputs: 7,
            outputs: 3,
            products: 127,
            ir_percent: Some(34.0),
            area: 2600,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((78.0, 0.002)),
            ea: Some((92.0, 0.013)),
            source: Exact,
        },
        // Note: the MCNC "clip" circuit is NOT a plain saturating clamp (a
        // clamp minimizes to ~13 products, the MCNC circuit to 120), so the
        // registry uses a statistical twin; `exact_truth_table("clip")`
        // still provides the clamp as a standalone function.
        BenchmarkInfo {
            name: "clip",
            inputs: 9,
            outputs: 5,
            products: 120,
            ir_percent: Some(23.0),
            area: 3500,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((76.0, 0.005)),
            ea: Some((79.0, 0.082)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "rd84",
            inputs: 8,
            outputs: 4,
            products: 255,
            ir_percent: Some(33.0),
            area: 6216,
            neg_products: Some(293),
            multilevel_area: Some((48124, 20276)),
            twolevel_area: Some((6216, 7128)),
            hba: Some((82.0, 0.006)),
            ea: Some((89.0, 0.093)),
            source: Exact,
        },
        BenchmarkInfo {
            name: "ex1010",
            inputs: 10,
            outputs: 10,
            products: 284,
            ir_percent: Some(23.0),
            area: 11760,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((100.0, 0.003)),
            ea: Some((100.0, 0.062)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "table3",
            inputs: 14,
            outputs: 14,
            products: 175,
            ir_percent: Some(25.0),
            area: 10584,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((100.0, 0.004)),
            ea: Some((100.0, 0.032)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "misex3c",
            inputs: 14,
            outputs: 14,
            products: 197,
            ir_percent: Some(13.0),
            area: 11856,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((100.0, 0.003)),
            ea: Some((100.0, 0.035)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "exp5",
            inputs: 8,
            outputs: 63,
            products: 74,
            ir_percent: Some(10.0),
            area: 19454,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((65.0, 0.006)),
            ea: Some((80.0, 0.024)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "apex4",
            inputs: 9,
            outputs: 19,
            products: 436,
            ir_percent: Some(21.0),
            area: 25480,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((100.0, 0.008)),
            ea: Some((100.0, 0.173)),
            source: Statistical,
        },
        BenchmarkInfo {
            name: "alu4",
            inputs: 14,
            outputs: 8,
            products: 575,
            ir_percent: Some(19.0),
            area: 25652,
            neg_products: None,
            multilevel_area: None,
            twolevel_area: None,
            hba: Some((100.0, 0.008)),
            ea: Some((100.0, 0.284)),
            source: Statistical,
        },
        // Table I only:
        BenchmarkInfo {
            name: "con1",
            inputs: 7,
            outputs: 2,
            products: 9,
            ir_percent: None,
            area: 198,
            neg_products: Some(9),
            multilevel_area: Some((480, 527)),
            twolevel_area: Some((198, 198)),
            hba: None,
            ea: None,
            source: Statistical,
        },
        BenchmarkInfo {
            name: "b12",
            inputs: 15,
            outputs: 9,
            products: 43,
            ir_percent: None,
            area: 2496,
            neg_products: Some(34),
            multilevel_area: Some((7800, 2691)),
            twolevel_area: Some((2496, 2064)),
            hba: None,
            ea: None,
            source: Statistical,
        },
        BenchmarkInfo {
            name: "t481",
            inputs: 16,
            outputs: 1,
            products: 481,
            ir_percent: None,
            area: 16388,
            neg_products: Some(360),
            multilevel_area: Some((5760, 8034)),
            twolevel_area: Some((16388, 12274)),
            hba: None,
            ea: None,
            source: StructuralAnalog,
        },
        BenchmarkInfo {
            name: "cordic",
            inputs: 23,
            outputs: 2,
            products: 914,
            ir_percent: None,
            area: 45800,
            neg_products: Some(1191),
            multilevel_area: Some((9594, 10668)),
            twolevel_area: Some((45800, 59650)),
            hba: None,
            ea: None,
            source: StructuralAnalog,
        },
    ];
    R
}

/// Looks up a benchmark by name.
///
/// # Errors
///
/// Returns [`LogicError::UnknownBenchmark`] when the name is not in the
/// registry.
pub fn find(name: &str) -> Result<&'static BenchmarkInfo, LogicError> {
    registry()
        .iter()
        .find(|b| b.name == name)
        .ok_or_else(|| LogicError::UnknownBenchmark { name: name.into() })
}

/// Truth table of a mathematically defined benchmark, or `None` when the
/// function has no public definition.
#[must_use]
pub fn exact_truth_table(name: &str) -> Option<TruthTable> {
    let table = match name {
        // rdXX: outputs are the binary digits of the input's popcount
        // ("rate detection" counters).
        "rd53" => popcount_table(5, 3),
        "rd73" => popcount_table(7, 3),
        "rd84" => popcount_table(8, 4),
        // sqrt8: floor of the square root of the 8-bit operand.
        "sqrt8" => TruthTable::from_fn(8, 4, |a| {
            let r = (a as f64).sqrt().floor() as u64;
            (0..4).map(|b| r >> b & 1 == 1).collect()
        })
        .expect("8 inputs fits"),
        // squar5: low 8 bits of the 5-bit square (the MCNC circuit exposes
        // 8 outputs; see DESIGN.md §4).
        "squar5" => TruthTable::from_fn(5, 8, |a| {
            let sq = a * a;
            (0..8).map(|b| sq >> b & 1 == 1).collect()
        })
        .expect("5 inputs fits"),
        // clip: saturate a signed 9-bit value to a signed 5-bit range.
        "clip" => TruthTable::from_fn(9, 5, |a| {
            let signed = if a >> 8 & 1 == 1 {
                a as i64 - 512
            } else {
                a as i64
            };
            let clipped = signed.clamp(-16, 15) as u64 & 0x1F;
            (0..5).map(|b| clipped >> b & 1 == 1).collect()
        })
        .expect("9 inputs fits"),
        _ => return None,
    };
    Some(table)
}

fn popcount_table(inputs: usize, outputs: usize) -> TruthTable {
    TruthTable::from_fn(inputs, outputs, |a| {
        let c = a.count_ones() as u64;
        (0..outputs).map(|b| c >> b & 1 == 1).collect()
    })
    .expect("small popcount table")
}

/// Synthesizes an exact benchmark: truth table → minterm cover → heuristic
/// multi-output minimization.
///
/// # Errors
///
/// Returns [`LogicError::UnknownBenchmark`] when the function has no exact
/// definition.
pub fn exact_cover(name: &str) -> Result<Cover, LogicError> {
    let table = exact_truth_table(name)
        .ok_or_else(|| LogicError::UnknownBenchmark { name: name.into() })?;
    let on = table.minterm_cover();
    let dc = Cover::new(table.num_inputs(), table.num_outputs());
    let minimized = minimize(&on, &dc, MinimizeOptions::default());
    debug_assert!(table.matches_cover(&minimized));
    Ok(minimized)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_formula_reproduces_published_areas() {
        for info in registry() {
            let formula = info.formula_area();
            // misex3c is the one known paper arithmetic slip (11856 vs 11816).
            if info.name == "misex3c" {
                assert_eq!(formula, 11816);
            } else {
                assert_eq!(
                    formula, info.area,
                    "{}: formula {} != published {}",
                    info.name, formula, info.area
                );
            }
        }
    }

    #[test]
    fn find_known_and_unknown() {
        assert_eq!(find("rd53").expect("present").inputs, 5);
        assert!(find("nonesuch").is_err());
    }

    #[test]
    fn rd53_truth_table_is_popcount() {
        let t = exact_truth_table("rd53").expect("defined");
        assert!(t.value(0b10101, 0)); // popcount 3 → bit0 set
        assert!(t.value(0b10101, 1)); // bit1 of 3 set
        assert!(!t.value(0b10101, 2));
        assert!(t.value(0b11111, 0)); // 5 = 101
        assert!(t.value(0b11111, 2));
    }

    #[test]
    fn rd53_exact_cover_is_correct_and_near_published_size() {
        let info = find("rd53").expect("present");
        let cover = info.cover(0);
        let table = exact_truth_table("rd53").expect("defined");
        assert!(table.matches_cover(&cover));
        // Published espresso size is 31 products; our heuristic minimizer
        // should land within a small margin.
        assert!(
            (28..=38).contains(&cover.len()),
            "rd53 cover has {} products, expected ≈31",
            cover.len()
        );
    }

    #[test]
    fn exact_covers_match_their_truth_tables() {
        let exact = registry()
            .iter()
            .filter(|b| b.source == BenchmarkSource::Exact);
        for info in exact {
            let table = exact_truth_table(info.name).expect("exact entries are defined");
            assert!(
                table.matches_cover(&info.cover(0)),
                "{}: cover differs from its truth table",
                info.name
            );
            // The dual optimization may map the complement instead.
            let mapping = info.mapping_cover(0);
            assert!(
                table.matches_cover(&mapping) || table.complemented().matches_cover(&mapping),
                "{}: mapping cover is neither the function nor its complement",
                info.name
            );
        }
    }

    #[test]
    fn sqrt8_is_the_integer_square_root() {
        let t = exact_truth_table("sqrt8").expect("defined");
        for x in [0u64, 1, 4, 15, 16, 100, 255] {
            let expected = (x as f64).sqrt().floor() as u64;
            let got = (0..4).fold(0u64, |acc, b| acc | (u64::from(t.value(x, b)) << b));
            assert_eq!(got, expected, "sqrt({x})");
        }
    }

    #[test]
    fn clip_saturates() {
        let t = exact_truth_table("clip").expect("defined");
        // +100 clips to +15 (01111).
        let got = (0..5).fold(0u64, |acc, b| acc | (u64::from(t.value(100, b)) << b));
        assert_eq!(got, 0b01111);
        // -100 (512-100=412 unsigned) clips to -16 (10000).
        let got = (0..5).fold(0u64, |acc, b| acc | (u64::from(t.value(412, b)) << b));
        assert_eq!(got, 0b10000);
    }

    #[test]
    fn statistical_twin_has_published_dimensions() {
        let info = find("misex1").expect("present");
        let cover = info.cover(17);
        assert_eq!(cover.num_inputs(), 8);
        assert_eq!(cover.num_outputs(), 7);
        assert_eq!(cover.len(), 12);
    }

    #[test]
    fn sqrt8_mapping_cover_uses_the_dual() {
        let info = find("sqrt8").expect("present");
        let direct = info.cover(0);
        let mapping = info.mapping_cover(0);
        assert!(
            mapping.len() < direct.len(),
            "dual should be smaller: {} vs {}",
            mapping.len(),
            direct.len()
        );
    }

    #[test]
    fn rd53_mapping_cover_stays_direct() {
        let info = find("rd53").expect("present");
        assert_eq!(info.mapping_cover(0).len(), info.cover(0).len());
    }

    #[test]
    fn table2_entries_have_published_results() {
        let with_results = registry().iter().filter(|b| b.hba.is_some()).count();
        assert_eq!(with_results, 16, "Table II has 16 circuits");
    }
}
