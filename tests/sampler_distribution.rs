//! Distribution tests of the [`SampleStream::V2`] sampler.
//!
//! `sampler_equivalence` pins V2 to its definition draw for draw; these
//! tests check that the definition draws the model it claims: every
//! crosspoint stuck-open independently with probability `rate`. Then, in
//! row-major order, the functional crosspoints before each defect number
//! Geometric(`rate`), `P(G = g) = (1 − rate)^g · rate`. A biased threshold,
//! a wrong cutover to the logarithmic tail at gap 64, or a placement bias
//! shows up as a Pearson χ² misfit.
//!
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
