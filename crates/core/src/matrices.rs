//! The paper's mapping formalism (Fig. 8): function matrix, crossbar matrix
//! and row matching.
//!
//! * **Function matrix (FM)** — one bit-row per product (`FMm`) and per
//!   output (`FMo`) over the `2I + 2K` crossbar columns; a 1 marks a
//!   crosspoint the mapping must program as *active*.
//! * **Crossbar matrix (CM)** — one bit-row per physical horizontal line; a
//!   1 marks a *functional* crosspoint. Stuck-open defects are 0s.
//!   Stuck-closed defects poison their whole row (row forced all-0) and
//!   column (column cleared in every row).
//! * **Row matching** — `FM row r` fits `CM row c` iff every 1 of `r` lands
//!   on a 1 of `c` (0s of the FM may sit on either, since a stuck-open
//!   device is exactly a disabled device).

use crate::bits;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt;
use xbar_device::{Crossbar, Defect};
use xbar_logic::{Cover, Phase};

/// A packed bit-row over the crossbar columns, built on the shared
/// [`bits`] word helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRow {
    words: Vec<u64>,
    cols: usize,
}

impl BitRow {
    /// All-zero row.
    #[must_use]
    pub fn zeros(cols: usize) -> Self {
        Self {
            words: vec![0; bits::words_for(cols)],
            cols,
        }
    }

    /// All-one row.
    #[must_use]
    pub fn ones(cols: usize) -> Self {
        let mut row = Self::zeros(cols);
        row.fill_ones();
        row
    }

    /// Resets the row to all-ones without reallocating: whole words are
    /// written as `!0` and the partial top word is masked to `cols` bits.
    pub fn fill_ones(&mut self) {
        self.words.fill(0);
        bits::set_range(&mut self.words, self.cols);
    }

    /// The packed `u64` words backing the row (LSB-first; bit `c` of the
    /// row is bit `c % 64` of word `c / 64`). Unused top-word bits are 0.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bit at `col`.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of range.
    #[must_use]
    pub fn get(&self, col: usize) -> bool {
        assert!(col < self.cols, "column out of range");
        bits::get_bit(&self.words, col)
    }

    /// Sets bit `col`.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of range.
    pub fn set(&mut self, col: usize, value: bool) {
        assert!(col < self.cols, "column out of range");
        if value {
            bits::set_bit(&mut self.words, col);
        } else {
            bits::clear_bit(&mut self.words, col);
        }
    }

    /// Number of 1s.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        bits::count_all(&self.words)
    }

    /// Whether every 1 of `self` lands on a 1 of `other` — the paper's row
    /// matching rule (`self` an FM row, `other` a CM row).
    #[must_use]
    pub fn fits_in(&self, other: &BitRow) -> bool {
        debug_assert_eq!(self.cols, other.cols);
        bits::is_subset(&self.words, &other.words)
    }
}

impl fmt::Display for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in 0..self.cols {
            write!(f, "{}", u8::from(self.get(c)))?;
        }
        Ok(())
    }
}

/// The function matrix: `P` minterm rows followed by `K` output rows, over
/// `2I + 2K` columns ordered `x, x̄, O, Ō` (Fig. 8a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionMatrix {
    num_inputs: usize,
    num_outputs: usize,
    minterm_rows: Vec<BitRow>,
    output_rows: Vec<BitRow>,
    /// Literal/membership source for re-programming machines.
    cubes: Vec<CubeSpec>,
}

/// One cube as programmed: its `(input, phase)` literals and the outputs it
/// belongs to.
type CubeSpec = (Vec<(usize, bool)>, Vec<usize>);

impl FunctionMatrix {
    /// Builds the FM of a cover.
    #[must_use]
    pub fn from_cover(cover: &Cover) -> Self {
        let i = cover.num_inputs();
        let k = cover.num_outputs();
        let cols = 2 * i + 2 * k;
        let mut minterm_rows = Vec::with_capacity(cover.len());
        let mut cubes = Vec::with_capacity(cover.len());
        for cube in cover.iter() {
            let mut row = BitRow::zeros(cols);
            let mut literals = Vec::new();
            let mut memberships = Vec::new();
            for (var, phase) in cube.literals() {
                let positive = phase == Phase::Positive;
                row.set(if positive { var } else { i + var }, true);
                literals.push((var, positive));
            }
            for o in cube.outputs() {
                row.set(2 * i + o, true);
                memberships.push(o);
            }
            minterm_rows.push(row);
            cubes.push((literals, memberships));
        }
        let mut output_rows = Vec::with_capacity(k);
        for o in 0..k {
            let mut row = BitRow::zeros(cols);
            row.set(2 * i + o, true);
            row.set(2 * i + k + o, true);
            output_rows.push(row);
        }
        Self {
            num_inputs: i,
            num_outputs: k,
            minterm_rows,
            output_rows,
            cubes,
        }
    }

    /// Input count `I`.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Output count `K`.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of minterm rows `P`.
    #[must_use]
    pub fn num_minterms(&self) -> usize {
        self.minterm_rows.len()
    }

    /// Total FM rows: `P + K`.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.minterm_rows.len() + self.output_rows.len()
    }

    /// Column count: `2I + 2K`.
    #[must_use]
    pub fn num_cols(&self) -> usize {
        2 * self.num_inputs + 2 * self.num_outputs
    }

    /// The `FMm` rows.
    #[must_use]
    pub fn minterm_rows(&self) -> &[BitRow] {
        &self.minterm_rows
    }

    /// The `FMo` rows.
    #[must_use]
    pub fn output_rows(&self) -> &[BitRow] {
        &self.output_rows
    }

    /// Row by global index (minterms first, then outputs).
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> &BitRow {
        if row < self.minterm_rows.len() {
            &self.minterm_rows[row]
        } else {
            &self.output_rows[row - self.minterm_rows.len()]
        }
    }

    /// Literals and output memberships of minterm `i` (for programming a
    /// machine).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn minterm_program(&self, i: usize) -> (&[(usize, bool)], &[usize]) {
        let (lits, mems) = &self.cubes[i];
        (lits, mems)
    }
}

/// Versioned defect-sampling RNG streams.
///
/// The two streams draw the *same* defect model — every crosspoint
/// stuck-open independently with probability `rate` — but consume the
/// generator differently, so the same seed produces different (equally
/// valid) defect maps:
///
/// * [`SampleStream::V1`] — the original dense sweep: one uniform draw per
///   crosspoint in row-major order. **Frozen forever**: every pre-existing
///   golden pin, committed artifact, and shard byte-compare is defined
///   against this stream, so its RNG consumption must never change.
/// * [`SampleStream::V2`] — geometric skip: one draw per *defect* (the gap
///   to the next defective crosspoint is Geometric(`rate`)), O(defects)
///   instead of O(rows·cols) per trial. Has its own golden values.
///
/// Campaigns select a stream once (`--rng-stream`) and thread it through
/// every layer; artifacts echo it so results are attributable to the
/// stream that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SampleStream {
    /// Dense per-cell sweep (one uniform per crosspoint) — the frozen
    /// compatibility stream.
    #[default]
    V1,
    /// Geometric-skip sampling (one draw per defect) — the fast stream.
    V2,
}

impl SampleStream {
    /// Every stream, in version order.
    pub const ALL: [SampleStream; 2] = [SampleStream::V1, SampleStream::V2];

    /// Canonical lowercase name (`"v1"` / `"v2"`), as accepted by
    /// [`SampleStream::parse`] and echoed in artifacts.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            SampleStream::V1 => "v1",
            SampleStream::V2 => "v2",
        }
    }

    /// Parses a canonical stream name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `text` names no stream.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "v1" => Ok(SampleStream::V1),
            "v2" => Ok(SampleStream::V2),
            other => Err(format!(
                "unknown RNG stream {other:?} (expected \"v1\" or \"v2\")"
            )),
        }
    }
}

impl fmt::Display for SampleStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The spatial structure of a defect draw, selected per campaign via
/// `--defect-model` and threaded as typed identity exactly like
/// [`SampleStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DefectModelKind {
    /// Independent per-cell stuck-open defects — the paper's Table II
    /// model and the only kind the frozen V1/V2 streams draw. **Default.**
    #[default]
    Iid,
    /// Clustered cell defects: a seeded two-state (Markov) renewal process
    /// over the row-major cell order, parameterized by target rate and
    /// mean cluster size.
    Clustered,
    /// Line-correlated failures: whole broken wordlines/bitlines drawn
    /// per-row/per-column at the line rate (cell rate unused).
    Lines,
    /// Line faults layered over clustered cell defects (cluster size 1
    /// degenerates the cell layer to i.i.d.).
    Composite,
}

impl DefectModelKind {
    /// Every model kind, in declaration order.
    pub const ALL: [DefectModelKind; 4] = [
        DefectModelKind::Iid,
        DefectModelKind::Clustered,
        DefectModelKind::Lines,
        DefectModelKind::Composite,
    ];

    /// Canonical lowercase name, as accepted by
    /// [`DefectModelKind::parse`] and echoed in artifacts.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            DefectModelKind::Iid => "iid",
            DefectModelKind::Clustered => "clustered",
            DefectModelKind::Lines => "lines",
            DefectModelKind::Composite => "composite",
        }
    }

    /// Parses a canonical model name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `text` names no model.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "iid" => Ok(DefectModelKind::Iid),
            "clustered" => Ok(DefectModelKind::Clustered),
            "lines" => Ok(DefectModelKind::Lines),
            "composite" => Ok(DefectModelKind::Composite),
            other => Err(format!(
                "unknown defect model {other:?} (expected \"iid\", \"clustered\", \"lines\" or \"composite\")"
            )),
        }
    }
}

impl fmt::Display for DefectModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fully parameterized defect model: the campaign-identity value carried
/// through params, shard partials and the campaign manifest.
///
/// Construction normalizes parameters a kind does not use back to their
/// defaults ([`DefectModelSpec::DEFAULT_CLUSTER_SIZE`],
/// [`DefectModelSpec::DEFAULT_LINE_RATE`]), so two specs compare equal
/// exactly when they draw the same defect maps — `--cluster-size` passed
/// alongside `--defect-model lines` cannot create a phantom identity
/// mismatch between coordinator and worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectModelSpec {
    kind: DefectModelKind,
    cluster_size: f64,
    line_rate: f64,
}

impl Default for DefectModelSpec {
    fn default() -> Self {
        Self {
            kind: DefectModelKind::Iid,
            cluster_size: Self::DEFAULT_CLUSTER_SIZE,
            line_rate: Self::DEFAULT_LINE_RATE,
        }
    }
}

impl DefectModelSpec {
    /// Default mean cluster size (`--cluster-size`).
    pub const DEFAULT_CLUSTER_SIZE: f64 = 4.0;
    /// Default broken-line probability (`--line-rate`).
    pub const DEFAULT_LINE_RATE: f64 = 0.02;

    /// A validated, normalized spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `cluster_size` is not finite
    /// and `>= 1`, or `line_rate` is not finite in `[0, 1]`.
    pub fn new(kind: DefectModelKind, cluster_size: f64, line_rate: f64) -> Result<Self, String> {
        if !(cluster_size.is_finite() && cluster_size >= 1.0) {
            return Err(format!(
                "cluster size must be finite and >= 1, got {cluster_size}"
            ));
        }
        if !(line_rate.is_finite() && (0.0..=1.0).contains(&line_rate)) {
            return Err(format!(
                "line rate must be finite in [0, 1], got {line_rate}"
            ));
        }
        let uses_cluster = matches!(
            kind,
            DefectModelKind::Clustered | DefectModelKind::Composite
        );
        let uses_lines = matches!(kind, DefectModelKind::Lines | DefectModelKind::Composite);
        Ok(Self {
            kind,
            cluster_size: if uses_cluster {
                cluster_size
            } else {
                Self::DEFAULT_CLUSTER_SIZE
            },
            line_rate: if uses_lines {
                line_rate
            } else {
                Self::DEFAULT_LINE_RATE
            },
        })
    }

    /// The model kind.
    #[must_use]
    pub const fn kind(self) -> DefectModelKind {
        self.kind
    }

    /// Mean cluster size (meaningful for `clustered` / `composite`).
    #[must_use]
    pub const fn cluster_size(self) -> f64 {
        self.cluster_size
    }

    /// Broken-line probability (meaningful for `lines` / `composite`).
    #[must_use]
    pub const fn line_rate(self) -> f64 {
        self.line_rate
    }

    /// Whether this is the default i.i.d. model — the condition under
    /// which artifacts, partials and stats omit the model fields so every
    /// pre-model document stays byte-frozen.
    #[must_use]
    pub fn is_default(self) -> bool {
        self.kind == DefectModelKind::Iid
    }

    /// Whether the kind consumes `cluster_size`.
    #[must_use]
    pub const fn uses_cluster(self) -> bool {
        matches!(
            self.kind,
            DefectModelKind::Clustered | DefectModelKind::Composite
        )
    }

    /// Whether the kind consumes `line_rate`.
    #[must_use]
    pub const fn uses_lines(self) -> bool {
        matches!(
            self.kind,
            DefectModelKind::Lines | DefectModelKind::Composite
        )
    }
}

impl fmt::Display for DefectModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.uses_cluster(), self.uses_lines()) {
            (false, false) => f.write_str(self.kind.as_str()),
            (true, false) => write!(f, "{}(cluster-size {:?})", self.kind, self.cluster_size),
            (false, true) => write!(f, "{}(line-rate {:?})", self.kind, self.line_rate),
            (true, true) => write!(
                f,
                "{}(cluster-size {:?}, line-rate {:?})",
                self.kind, self.cluster_size, self.line_rate
            ),
        }
    }
}

/// The model-aware defect-sampling handle: the one seam every defect draw
/// goes through (engine loops, experiments, examples). A sampler
/// is a `Copy` value wrapping the chosen [`SampleStream`] and
/// [`DefectModelSpec`], which together fully determine RNG consumption,
/// so two samplers with the same pair are interchangeable mid-campaign.
/// Every draw fully overwrites the matrix (rows *and* column bitplanes),
/// so a (sampler, seed) pair reproduces bit-identical maps on any host.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DefectSampler {
    stream: SampleStream,
    model: DefectModelSpec,
}

impl DefectSampler {
    /// A sampler drawing the default i.i.d. model from `stream`.
    #[must_use]
    pub fn new(stream: SampleStream) -> Self {
        Self {
            stream,
            model: DefectModelSpec::default(),
        }
    }

    /// A sampler drawing `model`, with `stream` selecting the i.i.d. cell
    /// stream where the model has one (`iid` itself; the clustered and
    /// line processes define their own RNG consumption).
    #[must_use]
    pub fn with_model(stream: SampleStream, model: DefectModelSpec) -> Self {
        Self { stream, model }
    }

    /// The frozen compatibility sampler ([`SampleStream::V1`]).
    #[must_use]
    pub fn v1() -> Self {
        Self::new(SampleStream::V1)
    }

    /// The geometric-skip sampler ([`SampleStream::V2`]).
    #[must_use]
    pub fn v2() -> Self {
        Self::new(SampleStream::V2)
    }

    /// The stream this sampler draws from.
    #[must_use]
    pub const fn stream(self) -> SampleStream {
        self.stream
    }

    /// The defect model this sampler draws.
    #[must_use]
    pub const fn model(self) -> DefectModelSpec {
        self.model
    }

    /// Samples a fresh defect map of the given shape.
    #[must_use]
    pub fn sample(self, rows: usize, cols: usize, rate: f64, rng: &mut StdRng) -> CrossbarMatrix {
        let mut cm = CrossbarMatrix::perfect(rows, cols);
        self.resample(&mut cm, rate, rng);
        cm
    }

    /// Re-samples `cm` in place as a fresh defect map, reusing its row and
    /// plane buffers (zero allocation per trial). Consumes the RNG exactly
    /// like [`DefectSampler::sample`] on the same stream and model, so
    /// with the same generator state both produce bit-identical matrices.
    ///
    /// `rate` is the target *cell* defect rate; the `lines` model, which
    /// has no cell layer, ignores it. The `composite` model draws its
    /// clustered cells first and its line faults second, on one generator.
    pub fn resample(self, cm: &mut CrossbarMatrix, rate: f64, rng: &mut StdRng) {
        let model = self.model;
        match (model.kind(), self.stream) {
            (DefectModelKind::Iid, SampleStream::V1) => cm.resample_dense(rate, rng),
            (DefectModelKind::Iid, SampleStream::V2) => cm.resample_geometric(rate, rng),
            (DefectModelKind::Clustered, _) => {
                cm.resample_clustered(rate, model.cluster_size(), rng);
            }
            (DefectModelKind::Lines, _) => {
                cm.clear_defects();
                cm.apply_line_faults(model.line_rate(), rng);
            }
            (DefectModelKind::Composite, _) => {
                cm.resample_clustered(rate, model.cluster_size(), rng);
                cm.apply_line_faults(model.line_rate(), rng);
            }
        }
    }
}

/// The crossbar matrix: functional map of the physical array.
///
/// Alongside the row bitsets it maintains **column defect bitplanes**: one
/// packed `u64` bitset per column, bit `r` of plane `c` set exactly when
/// row `r` is *defective* (0) at column `c`. The planes are the transposed
/// complement of the rows, kept in sync by every mutator, so the matching
/// engine can build a whole compatibility-adjacency row as `AND` of
/// `!plane[c]` over an FM row's one-columns — word-parallel over CM *rows*
/// instead of one probe per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarMatrix {
    rows: Vec<BitRow>,
    cols: usize,
    /// Column defect bitplanes: `cols` bitsets of `plane_words` words.
    planes: Vec<u64>,
    /// Words per column plane: `bits::words_for(rows.len())`.
    plane_words: usize,
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3): bit `b`
/// of word `k` moves to bit `k` of word `b`, in `O(64·log 64)` word ops
/// via recursive block swaps — the word-parallel kernel behind
/// [`CrossbarMatrix::rebuild_planes`].
fn transpose64(a: &mut [u64; 64]) {
    // Hacker's Delight writes this for MSB-first rows; [`BitRow`] packs
    // LSB-first, so each step swaps the *high* half of `a[k]` with the
    // *low* half of `a[k + j]` (the mirrored exchange) to land on the
    // transpose rather than the anti-transpose.
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// The threshold that makes [`Rng::random_bool`]`(rate)` an integer
/// compare in the V1 sweep. `random_bool` returns true exactly when the
/// draw's top 53 bits, `k = next_u64() >> 11`, satisfy `k · 2⁻⁵³ < rate`.
/// Both sides are exact in `f64` (`k < 2⁵³`, and scaling by a power of two
/// rounds nothing), so for an integer `k` that is `k < ⌈rate · 2⁵³⌉`, the
/// value returned. A rate above 1 accepts every draw, and one below 0 or
/// NaN none, as `random_bool` does.
fn v1_threshold(rate: f64) -> u64 {
    const TWO53: f64 = 9_007_199_254_740_992.0; // 2^53
    if rate.is_nan() {
        return 0;
    }
    (rate.clamp(0.0, 1.0) * TWO53).ceil() as u64
}

impl CrossbarMatrix {
    /// A defect-free CM.
    #[must_use]
    pub fn perfect(rows: usize, cols: usize) -> Self {
        let plane_words = bits::words_for(rows);
        Self {
            rows: (0..rows).map(|_| BitRow::ones(cols)).collect(),
            cols,
            planes: vec![0; cols * plane_words],
            plane_words,
        }
    }

    /// Resets every crosspoint to functional (rows all-ones, planes zero)
    /// without reallocating — the prologue of every resample that marks
    /// only the defects (the V1 sweep and V2's small-matrix path overwrite
    /// every word instead). Row clearing is inlined (whole words, then the
    /// masked top word) instead of calling [`BitRow::fill_ones`] per row:
    /// the prologue runs once per Monte Carlo trial, so per-row call
    /// overhead is measurable.
    fn clear_defects(&mut self) {
        let full = self.cols / 64;
        let tail = self.cols % 64;
        let tail_mask = (1u64 << tail).wrapping_sub(1);
        for row in &mut self.rows {
            row.words[..full].fill(!0);
            if tail != 0 {
                row.words[full] = tail_mask;
            }
        }
        self.planes.fill(0);
    }

    /// The [`SampleStream::V1`] sweep: one uniform draw per crosspoint in
    /// row-major order, the crosspoint defective when
    /// `rng.random_bool(rate)` would return true. **Frozen** — every pre-V2
    /// golden value and shard byte-compare is defined against this exact
    /// RNG consumption. Each draw is compared as an integer against
    /// [`v1_threshold`] and packed into its row word without a branch;
    /// the column bitplanes are then rebuilt from the rows in one
    /// word-parallel transpose ([`Self::rebuild_planes`]).
    fn resample_dense(&mut self, rate: f64, rng: &mut StdRng) {
        let threshold = v1_threshold(rate);
        let cols = self.cols;
        for row in &mut self.rows {
            for (w, word) in row.words.iter_mut().enumerate() {
                let bits = (cols - w * 64).min(64);
                let mut defects = 0u64;
                for b in 0..bits {
                    defects |= u64::from(rng.next_u64() >> 11 < threshold) << b;
                }
                let mask = if bits == 64 { !0 } else { (1 << bits) - 1 };
                *word = !defects & mask;
            }
        }
        self.rebuild_planes();
    }

    /// The [`SampleStream::V2`] sweep: geometric skip over the row-major
    /// crosspoint sequence — one `u64` draw per *defect* instead of one
    /// per crosspoint, writing row bits and column bitplanes straight from
    /// the skip stream.
    ///
    /// The gap before each defect is Geometric(`rate`) by fixed-point
    /// inversion: with `q = 1 - rate`, a raw draw lies below
    /// `⌊q^k · 2^64⌋` with probability `q^k`, so the number of leading
    /// table entries above the draw *is* the gap. The table covers gaps up
    /// to 64; the `q^64` tail falls back to exact logarithmic inversion of
    /// the same draw, keeping the stream a pure function of the seed.
    fn resample_geometric(&mut self, rate: f64, rng: &mut StdRng) {
        let (rows, cols, pw) = (self.rows.len(), self.cols, self.plane_words);
        let n = rows * cols;
        // NaN-rejecting guard: no defects to draw (matches V1, where
        // `random_bool(rate <= 0)` never fires).
        if n == 0 || rate.is_nan() || rate <= 0.0 {
            self.clear_defects();
            return;
        }
        if rate >= 1.0 {
            self.clear_defects();
            for row in &mut self.rows {
                row.words.fill(0);
            }
            for c in 0..cols {
                bits::set_range(&mut self.planes[c * pw..(c + 1) * pw], rows);
            }
            return;
        }
        const TWO32: f64 = 4_294_967_296.0; // 2^32
        let q = 1.0 - rate;
        if q >= 1.0 {
            // rate below f64 resolution around 1.0 (< 2\u{207b}\u{2075}\u{00b3}): the expected
            // defect count is \u{2248} 0 for any real array; treat as defect-free
            // rather than divide by ln(1) = 0 below.
            self.clear_defects();
            return;
        }
        // Geometric-gap tables: `thresholds[k] = \u{230a}q^(k+1)\u{00b7}2\u{00b3}\u{00b2}\u{230b}` (padded
        // with four zeros so the branchless probe below never reads out of
        // bounds), and a top-byte jump table whose entry is the number of
        // thresholds above every draw with that top byte \u{2014} a lower bound
        // on the gap, exact for most draws.
        let mut thresholds = [0u32; 68];
        let mut p = 1.0f64;
        for t in &mut thresholds[..64] {
            p *= q;
            *t = (p * TWO32) as u32;
        }
        let mut lut = [0u8; 256];
        let mut j = 0usize;
        for b in (0..256usize).rev() {
            let max_raw = ((b as u32) << 24) | 0x00FF_FFFF;
            while j < 64 && thresholds[j] > max_raw {
                j += 1;
            }
            lut[b] = j as u8;
        }
        let ln_q = q.ln();
        // One gap per 32-bit sub-draw (low half first, two per `next_u64`),
        // which quantizes gap probabilities at 2\u{207b}\u{00b3}\u{00b2} \u{2014} immaterial
        // statistically, and simply part of the frozen V2 stream
        // definition. The gap is the count of thresholds above the draw
        // (they decrease, so "draw below threshold" holds on a prefix):
        // a 4-wide branchless probe from the jump table's lower bound
        // resolves it without data-dependent branches except in the rare
        // near-tail buckets where more than four thresholds share a top
        // byte.
        let gap_of = |raw: u32| -> usize {
            let lb = lut[(raw >> 24) as usize] as usize;
            let mut gap = lb
                + usize::from(raw < thresholds[lb])
                + usize::from(raw < thresholds[lb + 1])
                + usize::from(raw < thresholds[lb + 2])
                + usize::from(raw < thresholds[lb + 3]);
            if gap == lb + 4 {
                while gap < 64 && raw < thresholds[gap] {
                    gap += 1;
                }
            }
            if gap >= 64 {
                // Tail (the first 64 gaps don't cover the draw): exact
                // logarithmic inversion of the same draw. Only reachable
                // when raw < thresholds[63] = \u{230a}q\u{2076}\u{2074}\u{00b7}2\u{00b3}\u{00b2}\u{230b}, so frequent
                // only at low rates where defects (and draws) are rare.
                let u = (f64::from(raw) + 1.0) * (1.0 / TWO32);
                gap = ((u.ln() / ln_q) as usize).max(64);
            }
            gap
        };
        // `remaining` counts candidate crosspoints left, including the
        // current one. Both paths below consume the RNG identically (one
        // sub-draw per defect plus the terminating draw), so the stream
        // is shape-independent; only the marking differs.
        let mut remaining = n;
        // Fast path: matrices up to LINEAR_BITS crosspoints (every Table
        // II circuit) scatter defects branch-free into a linear row-major
        // bit buffer on the stack, then convert to row words and column
        // planes word-parallel \u{2014} the defect loop has no data-dependent
        // branches at all, and the matrix is fully overwritten so no
        // clearing pass is needed.
        const LINEAR_BITS: usize = 1 << 15; // 4 KiB stack buffer
        if n <= LINEAR_BITS {
            let mut lbuf = [0u64; LINEAR_BITS / 64 + 1]; // +1: probe pad
            let mut pos = usize::MAX; // wraps to the first gap on add
            'draws: loop {
                let wide = rng.next_u64();
                for raw in [wide as u32, (wide >> 32) as u32] {
                    let gap = gap_of(raw);
                    if gap >= remaining {
                        break 'draws;
                    }
                    remaining -= gap + 1;
                    pos = pos.wrapping_add(gap + 1);
                    lbuf[pos >> 6] |= 1u64 << (pos & 63);
                }
            }
            let rows_s: &mut [BitRow] = &mut self.rows;
            let planes_s: &mut [u64] = &mut self.planes;
            if cols <= 64 {
                // Single-word rows: realign each row's `cols` bits out of
                // the linear stream (unaligned double-word read), write
                // the row, and collect the per-row defect masks into a
                // 64\u{00d7}64 tile transposed into the column planes once per
                // row block.
                let full_mask = if cols == 64 {
                    !0u64
                } else {
                    (1u64 << cols) - 1
                };
                let mut bitpos = 0usize;
                for block in 0..pw {
                    let base = block * 64;
                    let upper = rows.min(base + 64) - base;
                    let mut tile = [0u64; 64];
                    for (i, row) in rows_s[base..base + upper].iter_mut().enumerate() {
                        let pair = u128::from(lbuf[bitpos >> 6])
                            | (u128::from(lbuf[(bitpos >> 6) + 1]) << 64);
                        let def = ((pair >> (bitpos & 63)) as u64) & full_mask;
                        row.words[0] = full_mask ^ def;
                        tile[i] = def;
                        bitpos += cols;
                    }
                    transpose64(&mut tile);
                    for (c2, word) in tile.iter().enumerate().take(cols) {
                        planes_s[c2 * pw + block] = *word;
                    }
                }
            } else {
                // Multi-word rows (wider than any Table II circuit):
                // realign per row word, then rebuild the planes with the
                // shared word-parallel transpose pass.
                let row_words = bits::words_for(cols);
                let top = cols % 64;
                let mut rowbase = 0usize;
                for row in rows_s.iter_mut() {
                    for (w, word) in row.words.iter_mut().enumerate() {
                        let bp = rowbase + w * 64;
                        let pair =
                            u128::from(lbuf[bp >> 6]) | (u128::from(lbuf[(bp >> 6) + 1]) << 64);
                        let mask = if w == row_words - 1 && top != 0 {
                            (1u64 << top) - 1
                        } else {
                            !0u64
                        };
                        *word = mask ^ (((pair >> (bp & 63)) as u64) & mask);
                    }
                    rowbase += cols;
                }
                self.rebuild_planes();
            }
        } else {
            // Large matrices: per-defect scatter against the cleared
            // matrix. The wrap loop's total iterations are bounded by
            // `rows` (r only advances), so this stays O(defects + rows).
            self.clear_defects();
            let rows_s: &mut [BitRow] = &mut self.rows;
            let planes_s: &mut [u64] = &mut self.planes;
            let (mut r, mut c) = (0usize, 0usize);
            'draws2: loop {
                let wide = rng.next_u64();
                for raw in [wide as u32, (wide >> 32) as u32] {
                    let gap = gap_of(raw);
                    if gap >= remaining {
                        break 'draws2;
                    }
                    remaining -= gap + 1;
                    c += gap;
                    while c >= cols {
                        c -= cols;
                        r += 1;
                    }
                    rows_s[r].words[c >> 6] &= !(1u64 << (c & 63));
                    planes_s[c * pw + (r >> 6)] |= 1u64 << (r & 63);
                    c += 1;
                }
            }
        }
    }

    /// The [`DefectModelKind::Clustered`] draw: an alternating renewal
    /// process over the row-major cell order. Good gaps are
    /// Geometric(`q_enter`), defect runs are `1 + Geometric(1/cluster)`
    /// (mean length `cluster`), with `q_enter` chosen so the long-run
    /// defect fraction is exactly `rate`. One `u64` draw per gap and one
    /// per run, O(defects + clusters) like the V2 skip stream. `cluster = 1`
    /// degenerates to an i.i.d. Bernoulli process, with RNG consumption of
    /// its own, distinct from the V1/V2 streams.
    fn resample_clustered(&mut self, rate: f64, cluster: f64, rng: &mut StdRng) {
        self.clear_defects();
        let n = self.rows.len() * self.cols;
        let rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        if n == 0 || rate <= 0.0 {
            return;
        }
        if rate >= 1.0 {
            self.mark_defective_span(0, n);
            return;
        }
        let cluster = cluster.max(1.0);
        let q_exit = 1.0 / cluster;
        // Renewal-exact stationarity: mean cycle = (1-q_enter)/q_enter
        // (gap) + cluster (run); defect fraction = cluster / cycle = rate.
        let q_enter = rate / (rate + cluster * (1.0 - rate));
        // Geometric(q) over {0, 1, ...} by exact logarithmic inversion of
        // a (0, 1] uniform; clamped to `n` so pathological draws cannot
        // overflow the position arithmetic.
        let mut geometric = |q: f64| -> usize {
            let u = 1.0 - rng.unit_f64();
            let g = u.ln() / (1.0 - q).ln();
            if g.is_finite() && g < n as f64 {
                g as usize
            } else {
                n
            }
        };
        let mut pos = 0usize;
        while pos < n {
            pos += geometric(q_enter);
            if pos >= n {
                break;
            }
            let run = (1 + geometric(q_exit)).min(n - pos);
            self.mark_defective_span(pos, run);
            pos += run;
        }
    }

    /// Marks the row-major linear span `[start, start + len)` defective,
    /// updating row words and column bitplanes together.
    fn mark_defective_span(&mut self, start: usize, len: usize) {
        let (cols, pw) = (self.cols, self.plane_words);
        let mut pos = start;
        let end = start + len;
        while pos < end {
            let (r, c) = (pos / cols, pos % cols);
            let seg = (cols - c).min(end - pos);
            let (rw, rb) = (r >> 6, 1u64 << (r & 63));
            for cc in c..c + seg {
                self.rows[r].words[cc >> 6] &= !(1u64 << (cc & 63));
                self.planes[cc * pw + rw] |= rb;
            }
            pos += seg;
        }
    }

    /// Layers [`DefectModelKind::Lines`] faults onto the current map
    /// without clearing it: each row then each column breaks independently
    /// with probability `line_rate` (one uniform per line, index order). A
    /// broken wordline is a single word fill over its [`BitRow`]; a broken
    /// bitline is a single fill over its column plane.
    fn apply_line_faults(&mut self, line_rate: f64, rng: &mut StdRng) {
        let rate = if line_rate.is_nan() {
            0.0
        } else {
            line_rate.clamp(0.0, 1.0)
        };
        let (rows, cols, pw) = (self.rows.len(), self.cols, self.plane_words);
        for r in 0..rows {
            if rng.random_bool(rate) {
                self.rows[r].words.fill(0);
                let (rw, rb) = (r >> 6, 1u64 << (r & 63));
                for c in 0..cols {
                    self.planes[c * pw + rw] |= rb;
                }
            }
        }
        for c in 0..cols {
            if rng.random_bool(rate) {
                let (cw, cb) = (c >> 6, !(1u64 << (c & 63)));
                for row in &mut self.rows {
                    row.words[cw] &= cb;
                }
                self.planes[c * pw..(c + 1) * pw].fill(0);
                bits::set_range(&mut self.planes[c * pw..(c + 1) * pw], rows);
            }
        }
    }

    /// Derives the CM from a device-level crossbar: stuck-open crosspoints
    /// become 0s; stuck-closed defects zero their whole row and clear their
    /// column everywhere (both lines are unusable, §IV-A).
    #[must_use]
    pub fn from_crossbar(xbar: &Crossbar) -> Self {
        let mut cm = Self::perfect(xbar.rows(), xbar.cols());
        for r in 0..xbar.rows() {
            for c in 0..xbar.cols() {
                if xbar.crosspoint(r, c).defect == Defect::StuckOpen {
                    cm.rows[r].set(c, false);
                }
            }
        }
        for r in 0..xbar.rows() {
            if xbar.row_has_stuck_closed(r) {
                cm.rows[r] = BitRow::zeros(xbar.cols());
            }
        }
        for c in 0..xbar.cols() {
            if xbar.col_has_stuck_closed(c) {
                for r in 0..xbar.rows() {
                    cm.rows[r].set(c, false);
                }
            }
        }
        cm.rebuild_planes();
        cm
    }

    /// Recomputes the column bitplanes from the row bitsets — a bit-matrix
    /// transpose of the complemented rows, processed as 64×64 tiles
    /// ([`transpose64`]) so the cost is a few word ops per tile rather
    /// than one scattered read-modify-write per defect. Used by the cold
    /// constructors and as the epilogue of the V1 sweep and of V2's
    /// multi-word-row path.
    fn rebuild_planes(&mut self) {
        let (rows, cols, pw) = (self.rows.len(), self.cols, self.plane_words);
        let row_words = bits::words_for(cols);
        let tail = cols % 64;
        for w in 0..row_words {
            // Complementing rows turns "functional" bits into "defect"
            // bits; the mask keeps phantom columns (bits `>= cols` in the
            // top word) from becoming phantom defects.
            let mask = if w == row_words - 1 && tail != 0 {
                (1u64 << tail).wrapping_sub(1)
            } else {
                !0
            };
            let tile_cols = cols.min((w + 1) * 64) - w * 64;
            for block in 0..pw {
                let base = block * 64;
                let upper = rows.min(base + 64);
                let mut tile = [0u64; 64];
                for (i, row) in self.rows[base..upper].iter().enumerate() {
                    tile[i] = !row.words[w] & mask;
                }
                transpose64(&mut tile);
                // After the transpose, `tile[b]` bit `i` = defect at
                // (base + i, w·64 + b): exactly plane word `block` of
                // column `w·64 + b`. Each (column, block) pair is written
                // exactly once across the two outer loops.
                for (b, &word) in tile[..tile_cols].iter().enumerate() {
                    self.planes[(w * 64 + b) * pw + block] = word;
                }
            }
        }
    }

    /// Number of physical rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Row accessor.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> &BitRow {
        &self.rows[row]
    }

    /// Words per column defect plane: `bits::words_for(num_rows())`.
    #[must_use]
    pub fn plane_words(&self) -> usize {
        self.plane_words
    }

    /// The defect bitplane of `col`: bit `r` set exactly when row `r` is
    /// defective (0) at that column. Bits at index `>= num_rows()` are 0.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of range.
    #[must_use]
    pub fn defect_plane(&self, col: usize) -> &[u64] {
        assert!(col < self.cols, "column out of range");
        &self.planes[col * self.plane_words..(col + 1) * self.plane_words]
    }

    /// All column defect bitplanes, concatenated (`num_cols()` slices of
    /// [`CrossbarMatrix::plane_words`] words each, in column order).
    #[must_use]
    pub fn defect_planes(&self) -> &[u64] {
        &self.planes
    }

    /// Marks a crosspoint defective (stuck-open) — test helper.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set_defective(&mut self, row: usize, col: usize) {
        self.rows[row].set(col, false);
        let pw = self.plane_words;
        bits::set_bit(&mut self.planes[col * pw..(col + 1) * pw], row);
    }

    /// Fraction of functional crosspoints.
    #[must_use]
    pub fn functional_fraction(&self) -> f64 {
        let total = self.rows.len() * self.cols;
        if total == 0 {
            return 1.0;
        }
        let ones: usize = self.rows.iter().map(BitRow::count_ones).sum();
        ones as f64 / total as f64
    }
}

/// The paper's row-matching rule: can FM row `fm` be hosted by CM row `cm`?
#[must_use]
pub fn row_compatible(fm: &BitRow, cm: &BitRow) -> bool {
    fm.fits_in(cm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xbar_logic::cube;

    /// The Fig. 8(a) function: O1 = x1x2 + x̄2x3, O2 = x̄1x̄3 + x2x3
    /// (3 inputs, 2 outputs, 4 minterms).
    fn fig8_cover() -> Cover {
        Cover::from_cubes(
            3,
            2,
            [
                cube("11- 10"),
                cube("-01 10"),
                cube("0-0 01"),
                cube("-11 01"),
            ],
        )
        .expect("dims")
    }

    #[test]
    fn fm_shape_matches_fig8() {
        let fm = FunctionMatrix::from_cover(&fig8_cover());
        assert_eq!(fm.num_rows(), 6);
        assert_eq!(fm.num_cols(), 10);
        assert_eq!(fm.num_minterms(), 4);
        // m1 = x1x2 driving O1: 1s at x1, x2, O1 columns (0, 1, 6).
        let m1 = fm.row(0);
        assert_eq!(m1.to_string(), "1100001000");
        // Output row O1: 1s at O1 (col 6) and Ō1 (col 8).
        assert_eq!(fm.row(4).to_string(), "0000001010");
        assert_eq!(fm.row(5).to_string(), "0000000101");
    }

    #[test]
    fn fm_minterm_program_roundtrip() {
        let fm = FunctionMatrix::from_cover(&fig8_cover());
        let (lits, mems) = fm.minterm_program(1);
        assert_eq!(lits, &[(1, false), (2, true)]);
        assert_eq!(mems, &[0]);
    }

    #[test]
    fn row_matching_rules() {
        let fm = FunctionMatrix::from_cover(&fig8_cover());
        let mut cm_row = BitRow::ones(10);
        assert!(row_compatible(fm.row(0), &cm_row));
        // Defect on an FM-needed column breaks the match...
        cm_row.set(0, false);
        assert!(!row_compatible(fm.row(0), &cm_row));
        // ...but not for rows that don't use that column.
        assert!(row_compatible(fm.row(2), &cm_row));
    }

    #[test]
    fn ones_fills_whole_words_and_masks_the_top() {
        for cols in [0usize, 1, 10, 63, 64, 65, 128, 130] {
            let row = BitRow::ones(cols);
            assert_eq!(row.count_ones(), cols, "cols = {cols}");
            for (w, &word) in row.words().iter().enumerate() {
                let expect = {
                    let mut v = 0u64;
                    for b in 0..64 {
                        if w * 64 + b < cols {
                            v |= 1 << b;
                        }
                    }
                    v
                };
                assert_eq!(word, expect, "cols = {cols}, word {w}");
            }
        }
    }

    #[test]
    fn words_accessor_matches_get() {
        let mut row = BitRow::zeros(70);
        row.set(3, true);
        row.set(69, true);
        assert_eq!(row.words(), &[1 << 3, 1 << 5]);
    }

    #[test]
    fn resample_matches_fresh_sampling_bit_for_bit() {
        let sampler = DefectSampler::v1();
        let mut rng_a = StdRng::seed_from_u64(33);
        let mut rng_b = StdRng::seed_from_u64(33);
        let mut reused = sampler.sample(9, 17, 0.4, &mut rng_a);
        let _ = sampler.sample(9, 17, 0.4, &mut rng_b);
        for _ in 0..5 {
            sampler.resample(&mut reused, 0.2, &mut rng_a);
            let fresh = sampler.sample(9, 17, 0.2, &mut rng_b);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn sampled_cm_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let cm = DefectSampler::v1().sample(60, 60, 0.1, &mut rng);
        let frac = cm.functional_fraction();
        assert!((0.87..0.93).contains(&frac), "≈90% functional, got {frac}");
    }

    #[test]
    fn stream_names_round_trip() {
        for stream in SampleStream::ALL {
            assert_eq!(SampleStream::parse(stream.as_str()), Ok(stream));
            assert_eq!(stream.to_string(), stream.as_str());
        }
        assert!(SampleStream::parse("v3").is_err());
        assert!(SampleStream::parse("V1").is_err(), "names are lowercase");
        assert_eq!(SampleStream::default(), SampleStream::V1);
        assert_eq!(DefectSampler::default().stream(), SampleStream::V1);
    }

    #[test]
    fn v1_handle_is_the_default_sampler_bit_for_bit() {
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let via_handle = DefectSampler::v1().sample(13, 11, 0.3, &mut rng_a);
        let via_default = DefectSampler::default().sample(13, 11, 0.3, &mut rng_b);
        assert_eq!(via_handle, via_default);
        // And the generators advanced identically.
        assert_eq!(rng_a, rng_b);
    }

    /// A generator whose every draw has top 53 bits `k`.
    struct Draws(u64);

    impl Rng for Draws {
        fn next_u64(&mut self) -> u64 {
            self.0 << 11
        }
    }

    /// The V1 threshold `t` sits exactly on `random_bool`'s edge: draw
    /// `t - 1` is accepted and draw `t` rejected. Random draws land on the
    /// edge with probability 2⁻⁵³ per rate, so only a direct test tells
    /// `⌈rate · 2⁵³⌉` from `⌊rate · 2⁵³⌋` at the rates where they differ.
    #[test]
    fn v1_threshold_sits_on_random_bools_edge() {
        const TWO53: u64 = 1 << 53;
        let ulp = 1.0 / TWO53 as f64;
        let mut rates = vec![
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            ulp,
            1.5 * ulp,
            2.0 * ulp,
            0.1,
            1.0 / 3.0,
            0.5,
            1.0 - ulp,
            1.0,
            1.5,
            -0.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..1000 {
            rates.push(rng.unit_f64());
            // A rate of exactly k · 2⁻⁵³, where draw k must be rejected.
            rates.push((rng.next_u64() >> 11) as f64 * ulp);
        }
        for rate in rates {
            let t = v1_threshold(rate);
            assert!(t <= TWO53, "rate {rate:e}: threshold {t}");
            if t > 0 {
                assert!(Draws(t - 1).random_bool(rate), "rate {rate:e}: {t} - 1");
            }
            if t < TWO53 {
                assert!(!Draws(t).random_bool(rate), "rate {rate:e}: {t}");
            }
        }
        assert_eq!(v1_threshold(f64::NAN), 0);
        assert_eq!(v1_threshold(-0.25), 0);
        assert_eq!(v1_threshold(1.5), TWO53);
    }

    #[test]
    fn v2_resample_matches_fresh_sampling_bit_for_bit() {
        let sampler = DefectSampler::v2();
        let mut rng_a = StdRng::seed_from_u64(33);
        let mut rng_b = StdRng::seed_from_u64(33);
        let mut reused = sampler.sample(9, 17, 0.4, &mut rng_a);
        let _ = sampler.sample(9, 17, 0.4, &mut rng_b);
        for _ in 0..5 {
            sampler.resample(&mut reused, 0.2, &mut rng_a);
            let fresh = sampler.sample(9, 17, 0.2, &mut rng_b);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn v2_sampled_cm_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let cm = DefectSampler::v2().sample(60, 60, 0.1, &mut rng);
        let frac = cm.functional_fraction();
        assert!((0.87..0.93).contains(&frac), "≈90% functional, got {frac}");
        // Low-rate regime exercises multi-chunk threshold scans.
        let cm = DefectSampler::v2().sample(200, 50, 0.01, &mut rng);
        let frac = cm.functional_fraction();
        assert!(
            (0.985..0.995).contains(&frac),
            "≈99% functional, got {frac}"
        );
    }

    #[test]
    fn v2_planes_stay_consistent_across_word_boundaries() {
        let mut rng = StdRng::seed_from_u64(9);
        for rows in [3usize, 64, 65, 130] {
            let cm = DefectSampler::v2().sample(rows, 12, 0.3, &mut rng);
            assert_planes_consistent(&cm);
        }
        let mut cm = DefectSampler::v2().sample(70, 9, 0.4, &mut rng);
        for _ in 0..3 {
            DefectSampler::v2().resample(&mut cm, 0.15, &mut rng);
            assert_planes_consistent(&cm);
        }
    }

    #[test]
    fn v2_rate_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        let perfect = DefectSampler::v2().sample(67, 10, 0.0, &mut rng);
        assert_eq!(perfect, CrossbarMatrix::perfect(67, 10));
        let dead = DefectSampler::v2().sample(67, 10, 1.0, &mut rng);
        assert_eq!(dead.functional_fraction(), 0.0);
        assert_planes_consistent(&dead);
        // A rate below f64 resolution around 1.0 degrades to defect-free
        // instead of dividing by ln(1) = 0.
        let tiny = DefectSampler::v2().sample(67, 10, 1e-20, &mut rng);
        assert_eq!(tiny, CrossbarMatrix::perfect(67, 10));
        // Degenerate shapes.
        let empty = DefectSampler::v2().sample(0, 10, 0.5, &mut rng);
        assert_eq!(empty.num_rows(), 0);
        let no_cols = DefectSampler::v2().sample(10, 0, 0.5, &mut rng);
        assert_eq!(no_cols.num_cols(), 0);
    }

    #[test]
    fn v2_differs_from_v1_on_the_same_seed() {
        // Not a contract — just a sanity check that the streams really do
        // consume the generator differently at realistic shapes.
        let mut rng_a = StdRng::seed_from_u64(2018);
        let mut rng_b = StdRng::seed_from_u64(2018);
        let v1 = DefectSampler::v1().sample(34, 16, 0.1, &mut rng_a);
        let v2 = DefectSampler::v2().sample(34, 16, 0.1, &mut rng_b);
        assert_ne!(v1, v2);
    }

    #[test]
    fn from_crossbar_translates_defects() {
        let mut xbar = Crossbar::new(3, 10);
        xbar.set_defect(0, 4, Defect::StuckOpen);
        xbar.set_defect(1, 7, Defect::StuckClosed);
        let cm = CrossbarMatrix::from_crossbar(&xbar);
        assert!(!cm.row(0).get(4), "stuck-open is a 0");
        assert!(cm.row(0).get(3));
        assert_eq!(cm.row(1).count_ones(), 0, "stuck-closed row is all-0");
        assert!(!cm.row(2).get(7), "stuck-closed column cleared everywhere");
        assert!(!cm.row(0).get(7));
    }

    /// Checks the bitplane invariant from first principles: bit `r` of
    /// plane `c` set exactly when row `r` has a 0 at column `c`, and all
    /// bits at row index `>= num_rows()` clear.
    fn assert_planes_consistent(cm: &CrossbarMatrix) {
        let pw = cm.plane_words();
        assert_eq!(pw, crate::bits::words_for(cm.num_rows()));
        assert_eq!(cm.defect_planes().len(), cm.num_cols() * pw);
        for c in 0..cm.num_cols() {
            let plane = cm.defect_plane(c);
            for bit in 0..pw * 64 {
                let expect = bit < cm.num_rows() && !cm.row(bit).get(c);
                assert_eq!(
                    crate::bits::get_bit(plane, bit),
                    expect,
                    "col {c}, row-bit {bit}"
                );
            }
        }
    }

    #[test]
    fn planes_track_every_mutator() {
        let mut rng = StdRng::seed_from_u64(9);
        // Perfect: all planes zero.
        assert_planes_consistent(&CrossbarMatrix::perfect(5, 10));
        // Crossing the 64-row word boundary.
        for rows in [3usize, 64, 65, 130] {
            let cm = DefectSampler::v1().sample(rows, 12, 0.3, &mut rng);
            assert_planes_consistent(&cm);
        }
        // In-place resampling keeps planes in sync.
        let mut cm = DefectSampler::v1().sample(70, 9, 0.4, &mut rng);
        for _ in 0..3 {
            DefectSampler::v1().resample(&mut cm, 0.15, &mut rng);
            assert_planes_consistent(&cm);
        }
        // Manual defects.
        cm.set_defective(69, 8);
        cm.set_defective(0, 0);
        assert_planes_consistent(&cm);
    }

    #[test]
    fn planes_track_from_crossbar_semantics() {
        let mut xbar = Crossbar::new(5, 10);
        xbar.set_defect(0, 4, Defect::StuckOpen);
        xbar.set_defect(1, 7, Defect::StuckClosed);
        let cm = CrossbarMatrix::from_crossbar(&xbar);
        assert_planes_consistent(&cm);
        // The stuck-closed column shows in every row of plane 7.
        let plane7 = cm.defect_plane(7);
        for r in 0..5 {
            assert!(crate::bits::get_bit(plane7, r));
        }
    }

    #[test]
    fn model_names_round_trip() {
        for kind in DefectModelKind::ALL {
            assert_eq!(DefectModelKind::parse(kind.as_str()), Ok(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!(DefectModelKind::parse("blobs").is_err());
        assert!(
            DefectModelKind::parse("Iid").is_err(),
            "names are lowercase"
        );
        assert_eq!(DefectModelKind::default(), DefectModelKind::Iid);
        assert!(DefectModelSpec::default().is_default());
        assert_eq!(DefectSampler::default().model(), DefectModelSpec::default());
    }

    #[test]
    fn spec_normalizes_unused_params_and_validates() {
        // Unused params snap back to defaults, so identity comparison
        // cannot be poisoned by a flag the model never reads.
        let lines = DefectModelSpec::new(DefectModelKind::Lines, 9.0, 0.05).expect("valid");
        assert_eq!(lines.cluster_size(), DefectModelSpec::DEFAULT_CLUSTER_SIZE);
        assert_eq!(lines.line_rate(), 0.05);
        let clustered = DefectModelSpec::new(DefectModelKind::Clustered, 9.0, 0.5).expect("valid");
        assert_eq!(clustered.cluster_size(), 9.0);
        assert_eq!(clustered.line_rate(), DefectModelSpec::DEFAULT_LINE_RATE);
        let iid = DefectModelSpec::new(DefectModelKind::Iid, 9.0, 0.5).expect("valid");
        assert!(iid.is_default());
        assert_eq!(iid, DefectModelSpec::default());
        // Validation.
        assert!(DefectModelSpec::new(DefectModelKind::Clustered, 0.5, 0.0).is_err());
        assert!(DefectModelSpec::new(DefectModelKind::Clustered, f64::NAN, 0.0).is_err());
        assert!(DefectModelSpec::new(DefectModelKind::Lines, 4.0, 1.5).is_err());
        assert!(DefectModelSpec::new(DefectModelKind::Lines, 4.0, f64::NAN).is_err());
        // Display names the kind and only the params the kind reads.
        assert_eq!(DefectModelSpec::default().to_string(), "iid");
        assert_eq!(clustered.to_string(), "clustered(cluster-size 9.0)");
        assert_eq!(lines.to_string(), "lines(line-rate 0.05)");
        let composite = DefectModelSpec::new(DefectModelKind::Composite, 2.0, 0.1).expect("valid");
        assert_eq!(
            composite.to_string(),
            "composite(cluster-size 2.0, line-rate 0.1)"
        );
    }

    #[test]
    fn default_model_handle_is_bit_identical_to_the_pre_model_sampler() {
        for stream in SampleStream::ALL {
            let mut rng_a = StdRng::seed_from_u64(2018);
            let mut rng_b = StdRng::seed_from_u64(2018);
            let via_model = DefectSampler::with_model(stream, DefectModelSpec::default())
                .sample(34, 16, 0.1, &mut rng_a);
            let direct = DefectSampler::new(stream).sample(34, 16, 0.1, &mut rng_b);
            assert_eq!(via_model, direct, "stream {stream}");
            assert_eq!(rng_a, rng_b);
        }
    }

    #[test]
    fn clustered_planes_stay_consistent_and_resample_matches_sample() {
        let spec = DefectModelSpec::new(DefectModelKind::Clustered, 3.0, 0.0).expect("valid");
        let sampler = DefectSampler::with_model(SampleStream::V1, spec);
        let mut rng = StdRng::seed_from_u64(11);
        for rows in [3usize, 64, 65, 130] {
            let cm = sampler.sample(rows, 12, 0.2, &mut rng);
            assert_planes_consistent(&cm);
        }
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut reused = sampler.sample(9, 17, 0.4, &mut rng_a);
        let _ = sampler.sample(9, 17, 0.4, &mut rng_b);
        for _ in 0..5 {
            sampler.resample(&mut reused, 0.2, &mut rng_a);
            let fresh = sampler.sample(9, 17, 0.2, &mut rng_b);
            assert_eq!(reused, fresh);
            assert_planes_consistent(&reused);
        }
    }

    #[test]
    fn clustered_hits_the_target_rate_and_clusters() {
        let spec = DefectModelSpec::new(DefectModelKind::Clustered, 5.0, 0.0).expect("valid");
        let sampler = DefectSampler::with_model(SampleStream::V1, spec);
        let mut rng = StdRng::seed_from_u64(2018);
        // Average the defect fraction over trials on a large array.
        let mut defect_frac = 0.0;
        let trials = 40;
        let mut cm = CrossbarMatrix::perfect(120, 100);
        for _ in 0..trials {
            sampler.resample(&mut cm, 0.1, &mut rng);
            defect_frac += 1.0 - cm.functional_fraction();
        }
        defect_frac /= f64::from(trials);
        assert!(
            (0.08..0.12).contains(&defect_frac),
            "target 10%, got {defect_frac}"
        );
    }

    #[test]
    fn clustered_rate_extremes() {
        let spec = DefectModelSpec::new(DefectModelKind::Clustered, 4.0, 0.0).expect("valid");
        let sampler = DefectSampler::with_model(SampleStream::V1, spec);
        let mut rng = StdRng::seed_from_u64(4);
        let perfect = sampler.sample(67, 10, 0.0, &mut rng);
        assert_eq!(perfect, CrossbarMatrix::perfect(67, 10));
        let dead = sampler.sample(67, 10, 1.0, &mut rng);
        assert_eq!(dead.functional_fraction(), 0.0);
        assert_planes_consistent(&dead);
        let empty = sampler.sample(0, 10, 0.5, &mut rng);
        assert_eq!(empty.num_rows(), 0);
    }

    #[test]
    fn line_faults_kill_whole_lines_only() {
        let spec = DefectModelSpec::new(DefectModelKind::Lines, 1.0, 0.3).expect("valid");
        let sampler = DefectSampler::with_model(SampleStream::V1, spec);
        let mut rng = StdRng::seed_from_u64(8);
        for (rows, cols) in [(9usize, 12usize), (70, 70), (130, 9)] {
            let cm = sampler.sample(rows, cols, 0.99, &mut rng);
            assert_planes_consistent(&cm);
            // The cell rate is unused: every defect belongs to a fully
            // broken row or column.
            let broken_rows: Vec<usize> =
                (0..rows).filter(|&r| cm.row(r).count_ones() == 0).collect();
            let broken_cols: Vec<usize> = (0..cols)
                .filter(|&c| (0..rows).all(|r| !cm.row(r).get(c)))
                .collect();
            for r in 0..rows {
                for c in 0..cols {
                    let defective = !cm.row(r).get(c);
                    let expected = broken_rows.contains(&r) || broken_cols.contains(&c);
                    assert_eq!(defective, expected, "({r}, {c})");
                }
            }
        }
        // line-rate 1 kills everything; 0 kills nothing.
        let all = DefectSampler::with_model(
            SampleStream::V1,
            DefectModelSpec::new(DefectModelKind::Lines, 1.0, 1.0).expect("valid"),
        )
        .sample(10, 10, 0.0, &mut rng);
        assert_eq!(all.functional_fraction(), 0.0);
        let none = DefectSampler::with_model(
            SampleStream::V1,
            DefectModelSpec::new(DefectModelKind::Lines, 1.0, 0.0).expect("valid"),
        )
        .sample(10, 10, 0.9, &mut rng);
        assert_eq!(none, CrossbarMatrix::perfect(10, 10));
    }

    #[test]
    fn composite_equals_cells_then_line_fill_sequentially() {
        let spec = DefectModelSpec::new(DefectModelKind::Composite, 3.0, 0.15).expect("valid");
        let composite = DefectSampler::with_model(SampleStream::V1, spec);
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let got = composite.sample(40, 22, 0.12, &mut rng_a);
        let clustered = DefectModelSpec::new(DefectModelKind::Clustered, 3.0, 0.0).expect("valid");
        let mut want =
            DefectSampler::with_model(SampleStream::V1, clustered).sample(40, 22, 0.12, &mut rng_b);
        // The line layer by hand: one draw per row, then one per column.
        for r in 0..40 {
            if rng_b.random_bool(0.15) {
                (0..22).for_each(|c| want.set_defective(r, c));
            }
        }
        for c in 0..22 {
            if rng_b.random_bool(0.15) {
                (0..40).for_each(|r| want.set_defective(r, c));
            }
        }
        assert_eq!(got, want);
        assert_eq!(rng_a, rng_b);
        assert_planes_consistent(&got);
    }

    #[test]
    fn perfect_cm_hosts_everything() {
        let fm = FunctionMatrix::from_cover(&fig8_cover());
        let cm = CrossbarMatrix::perfect(6, 10);
        for r in 0..fm.num_rows() {
            assert!(row_compatible(fm.row(r), cm.row(0)));
            let _ = r;
        }
    }
}
