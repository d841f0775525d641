//! Distribution tests of the [`SampleStream::V1`] and
//! [`SampleStream::V2`] samplers.
//!
//! `sampler_equivalence` pins both streams to their definitions draw for
//! draw; these tests check that the definitions draw the model they
//! claim: every crosspoint stuck-open independently with probability
//! `rate`.
//!
//! - **Gaps (V2).** In row-major order, the functional crosspoints before
//!   each defect number Geometric(`rate`), `P(G = g) = (1 − rate)^g ·
//!   rate`. A biased threshold, a wrong cutover to the logarithmic tail at
//!   gap 64, or a placement bias shows up as a Pearson χ² misfit.
//! - **Cells (V1 and V2).** Over many maps, each crosspoint's defect count
//!   is Binomial(maps, `rate`), and neighbouring crosspoints are
//!   co-defective at `rate²`: inside a row word, across the word edge at
//!   column 64, across a row end, inside a plane word, and across the
//!   plane-word edge at row 64. A conversion to the column planes that
//!   drops a column or leaks one row into the next fails these. The maps
//!   are read only through [`CrossbarMatrix::defect_plane`].
//!
//! [`SampleStream::V1`]: memristive_xbar_repro::core::SampleStream::V1
//! [`SampleStream::V2`]: memristive_xbar_repro::core::SampleStream::V2

use memristive_xbar_repro::core::{CrossbarMatrix, DefectSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gaps observed per rate.
const GAPS: usize = 40_000;
/// Fewest expected gaps per Pearson bin.
const MIN_EXPECTED: f64 = 10.0;
/// `Φ⁻¹(1 − 10⁻⁶)`: each rate's test fails a correct sampler on about
/// one seed in a million. The seeds are fixed, so the verdict repeats.
const Z_FALSE_ALARM: f64 = 4.753_424_308_822_899;
/// `Φ⁻¹(1 − 5·10⁻⁷)`: a two-sided z-test at this bound fails a correct
/// sampler on about one seed in a million.
const Z_TWO_SIDED: f64 = 4.891_638_475_698_59;

/// Appends the gaps of `cm` to `out`: in row-major order, the functional
/// crosspoints before each defect, counted from the crosspoint after the
/// previous defect (from the first crosspoint for the first defect). The
/// run after the last defect is cut short by the map's end, so it is left
/// out.
fn push_gaps(cm: &CrossbarMatrix, out: &mut Vec<u64>) {
    let cols = cm.num_cols();
    let mut next = 0usize;
    for r in 0..cm.num_rows() {
        for (w, &word) in cm.row(r).words().iter().enumerate() {
            let valid = (cols - 64 * w).min(64);
            let mask = if valid == 64 { !0 } else { (1u64 << valid) - 1 };
            let mut defects = !word & mask;
            while defects != 0 {
                let cell = r * cols + 64 * w + defects.trailing_zeros() as usize;
                out.push((cell - next) as u64);
                next = cell + 1;
                defects &= defects - 1;
            }
        }
    }
}

/// The lower edges of the Pearson bins for Geometric(`1 − q`) over
/// `total` gaps; the last bin is open. Each bin expects at least
/// [`MIN_EXPECTED`] gaps. Gaps below 64 (the threshold table's) and from
/// 64 up (the ln tail's) share no bin wherever both sides expect that
/// many, and the tail is cut into bins of about half its remaining mass.
fn bin_edges(q: f64, total: f64) -> Vec<u64> {
    let at_least = |g: u64| q.powf(g as f64); // P(G ≥ g)
    let expected = |lo: u64, hi: Option<u64>| total * (at_least(lo) - hi.map_or(0.0, at_least));
    let half = ((0.5f64.ln() / q.ln()).ceil() as u64).max(1);
    let mut candidates: Vec<u64> = (1..=64).collect();
    let mut edge = 64 + half;
    while expected(edge, None) >= MIN_EXPECTED {
        candidates.push(edge);
        edge += half;
    }
    let mut edges = vec![0];
    for edge in candidates {
        let lo = *edges.last().expect("starts at 0");
        let rest = if edge < 64 { Some(64) } else { None };
        if expected(lo, Some(edge)) >= MIN_EXPECTED && expected(edge, rest) >= MIN_EXPECTED {
            edges.push(edge);
        }
    }
    edges
}

/// Pearson's X² of `gaps` against Geometric(`rate`), its degrees of
/// freedom, and the Wilson–Hilferty quantile that a correct sampler
/// exceeds with probability 10⁻⁶.
fn chi_square(rate: f64, gaps: &[u64]) -> (f64, usize, f64) {
    let q = 1.0 - rate;
    let total = gaps.len() as f64;
    let edges = bin_edges(q, total);
    let mut observed = vec![0u64; edges.len()];
    for &g in gaps {
        observed[edges.partition_point(|&e| e <= g) - 1] += 1;
    }
    let at_least = |g: u64| q.powf(g as f64);
    let x2: f64 = observed
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            let beyond = edges.get(i + 1).map_or(0.0, |&e| at_least(e));
            let e = total * (at_least(edges[i]) - beyond);
            (o as f64 - e).powi(2) / e
        })
        .sum();
    let dof = edges.len() - 1;
    let h = 2.0 / (9.0 * dof as f64);
    let critical = dof as f64 * (1.0 - h + Z_FALSE_ALARM * h.sqrt()).powi(3);
    (x2, dof, critical)
}

/// The V2 gaps follow Geometric(`rate`) at 0.01 (about half the gaps come
/// from the ln tail), 0.1 and 0.5. The maps alternate a Table II-sized
/// shape (455 × 56, the linear-buffer path) and one above 2¹⁵ crosspoints
/// (301 × 300, the per-defect path). Cutting each map's last gap weights a
/// gap `g` by about `1 − (g − mean)/n` in an `n`-crosspoint map; here that
/// moves X² by less than one, against a standard deviation of 5 to 12.
#[test]
fn v2_gaps_follow_the_geometric_law() {
    for (rate, seed) in [(0.01, 1u64), (0.1, 2), (0.5, 3)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gaps = Vec::with_capacity(GAPS + 30_000);
        for (rows, cols) in [(455, 56), (301, 300)].into_iter().cycle() {
            if gaps.len() >= GAPS {
                break;
            }
            let cm = DefectSampler::v2().sample(rows, cols, rate, &mut rng);
            push_gaps(&cm, &mut gaps);
        }
        let tail = gaps.iter().filter(|&&g| g >= 64).count();
        let (x2, dof, critical) = chi_square(rate, &gaps);
        assert!(
            x2 <= critical,
            "rate {rate}: X² = {x2:.1} over {dof} degrees of freedom exceeds {critical:.1} \
             ({} gaps, {tail} of them at least 64)",
            gaps.len()
        );
    }
}

/// The defect map of `cm`, row-major, read from its column planes.
fn defect_cells(cm: &CrossbarMatrix, out: &mut [bool]) {
    let (rows, cols) = (cm.num_rows(), cm.num_cols());
    for c in 0..cols {
        let plane = cm.defect_plane(c);
        for r in 0..rows {
            out[r * cols + c] = plane[r / 64] >> (r % 64) & 1 == 1;
        }
    }
}

/// Disjoint pairs of neighbouring cells of a `rows × cols` map, as
/// row-major cell indices, one list per class. No cell is in two pairs of
/// one class, so under the i.i.d. model the pairs of a class are
/// co-defective independently, each with probability `rate²`. A class the
/// shape does not have is left out.
fn neighbour_pairs(rows: usize, cols: usize) -> Vec<(&'static str, Vec<(usize, usize)>)> {
    let cell = |r: usize, c: usize| r * cols + c;
    let (mut inside_word, mut word_edge, mut row_end) = (vec![], vec![], vec![]);
    let (mut inside_plane_word, mut plane_word_edge) = (vec![], vec![]);
    for r in 0..rows {
        for c in (1..cols).step_by(2) {
            inside_word.push((cell(r, c - 1), cell(r, c)));
        }
        for c in (64..cols).step_by(64) {
            word_edge.push((cell(r, c - 1), cell(r, c)));
        }
        if r + 1 < rows {
            row_end.push((cell(r, cols - 1), cell(r + 1, 0)));
            let vertical = (0..cols).map(|c| (cell(r, c), cell(r + 1, c)));
            if r % 2 == 0 {
                inside_plane_word.extend(vertical);
            } else if r % 64 == 63 {
                plane_word_edge.extend(vertical);
            }
        }
    }
    [
        ("horizontal inside a row word", inside_word),
        ("across the column 63/64 word edge", word_edge),
        ("across a row end", row_end),
        ("vertical inside a plane word", inside_plane_word),
        ("across the row 63/64 plane-word edge", plane_word_edge),
    ]
    .into_iter()
    .filter(|(_, pairs)| !pairs.is_empty())
    .collect()
}

/// Draws `maps` maps of `rows × cols` at `rate` from `sampler` and checks
/// the i.i.d. law cell by cell:
/// - (a) each crosspoint's defect count over the maps is
///   Binomial(`maps`, `rate`): Pearson's X² summed over every cell, one
///   degree of freedom per cell, against its Wilson–Hilferty quantile
///   that a correct sampler exceeds with probability 10⁻⁶;
/// - (b) for each class of [`neighbour_pairs`], the co-defect count over
///   the maps is Binomial(`maps · pairs`, `rate²`): a two-sided z-score
///   within [`Z_TWO_SIDED`].
fn check_cells_are_iid(sampler: DefectSampler, rows: usize, cols: usize, maps: u32, seed: u64) {
    let rate = 0.1;
    let classes = neighbour_pairs(rows, cols);
    let mut counts = vec![0u32; rows * cols];
    let mut co_defects = vec![0u64; classes.len()];
    let mut cells = vec![false; rows * cols];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cm = CrossbarMatrix::perfect(rows, cols);
    for _ in 0..maps {
        sampler.resample(&mut cm, rate, &mut rng);
        defect_cells(&cm, &mut cells);
        for (count, &defect) in counts.iter_mut().zip(&cells) {
            *count += u32::from(defect);
        }
        for ((_, pairs), co) in classes.iter().zip(&mut co_defects) {
            *co += pairs.iter().filter(|&&(a, b)| cells[a] && cells[b]).count() as u64;
        }
    }
    let shape = format!("{} {rows}x{cols}, seed {seed}", sampler.stream());

    let n = f64::from(maps);
    let variance = n * rate * (1.0 - rate);
    let x2: f64 = counts
        .iter()
        .map(|&k| (f64::from(k) - n * rate).powi(2) / variance)
        .sum();
    let dof = (rows * cols) as f64;
    let h = 2.0 / (9.0 * dof);
    let critical = dof * (1.0 - h + Z_FALSE_ALARM * h.sqrt()).powi(3);
    assert!(
        x2 <= critical,
        "{shape}: per-cell X² = {x2:.1} over {dof} degrees of freedom exceeds {critical:.1}"
    );

    let both = rate * rate;
    for ((class, pairs), &co) in classes.iter().zip(&co_defects) {
        let trials = n * pairs.len() as f64;
        let z = (co as f64 - trials * both) / (trials * both * (1.0 - both)).sqrt();
        assert!(
            z.abs() <= Z_TWO_SIDED,
            "{shape}: {co} co-defective pairs {class}, expected {:.0} (z = {z:.1})",
            trials * both
        );
    }
}

/// V1's cells are i.i.d. at the rate: at 130 × 70, whose rows split into
/// two words at column 64 and whose planes split at rows 64 and 128, and
/// at rd53's 34 × 16.
#[test]
fn v1_cells_are_independent_at_the_rate() {
    check_cells_are_iid(DefectSampler::v1(), 130, 70, 400, 11);
    check_cells_are_iid(DefectSampler::v1(), 34, 16, 1_000, 12);
}

/// V2's cells are i.i.d. at the rate, on the same shapes as V1 (the
/// linear-buffer path) and at 182 × 181, above 2¹⁵ crosspoints (the
/// per-defect path), whose rows and planes both span three words.
#[test]
fn v2_cells_are_independent_at_the_rate() {
    check_cells_are_iid(DefectSampler::v2(), 130, 70, 400, 21);
    check_cells_are_iid(DefectSampler::v2(), 34, 16, 1_000, 22);
    check_cells_are_iid(DefectSampler::v2(), 182, 181, 300, 23);
}
