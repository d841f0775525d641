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
use std::cell::RefCell;
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
        bits::set_range(&mut row.words, cols);
        row
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
}

impl FunctionMatrix {
    /// Builds the FM of a cover.
    #[must_use]
    pub fn from_cover(cover: &Cover) -> Self {
        let i = cover.num_inputs();
        let k = cover.num_outputs();
        let cols = 2 * i + 2 * k;
        let mut minterm_rows = Vec::with_capacity(cover.len());
        for cube in cover.iter() {
            let mut row = BitRow::zeros(cols);
            for (var, phase) in cube.literals() {
                let positive = phase == Phase::Positive;
                row.set(if positive { var } else { i + var }, true);
            }
            for o in cube.outputs() {
                row.set(2 * i + o, true);
            }
            minterm_rows.push(row);
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
/// Every draw fully overwrites the matrix's column bitplanes, its only
/// state, so a (sampler, seed) pair reproduces bit-identical maps on any
/// host.
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

    /// Re-samples `cm` in place as a fresh defect map, reusing its plane
    /// buffer (zero allocation per trial, but for V1's tiles above 512
    /// columns). Consumes the RNG exactly like [`DefectSampler::sample`]
    /// on the same stream and model, so with the same generator state
    /// both produce bit-identical matrices.
    ///
    /// `rate` is the target *cell* defect rate; the `lines` model, which
    /// has no cell layer, ignores it. The `composite` model draws its
    /// clustered cells first and its line faults second, on one generator.
    /// The i.i.d. V2 draw decodes through a gap table that each thread
    /// keeps for the last rate it sampled: a change of rate rebuilds it,
    /// in a few µs.
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

    /// The maps [`DefectSampler::resample_batch`] draws in one sweep: one
    /// per 64-bit lane of an AVX2 register.
    pub const BATCH: usize = 4;

    /// Re-samples every map of `cms` in place, each from its own seed:
    /// `cms[l]` comes out exactly as
    /// `self.resample(&mut cms[l], rate, &mut StdRng::seed_from_u64(seeds[l]))`
    /// would leave it, whatever the host.
    ///
    /// The maps go in groups of [`DefectSampler::BATCH`]. On an x86-64
    /// host with AVX2, detected at run time, an i.i.d. [`SampleStream::V1`]
    /// group of two or more maps of one shape is drawn in one sweep, each
    /// map's xoshiro256++ generator in its own lane. Every other group
    /// (another stream or model, mixed shapes, a lone map, another CPU)
    /// takes [`DefectSampler::resample`] map by map, and the scalar V1
    /// sweep stays the stream's definition.
    ///
    /// # Panics
    ///
    /// Panics when `cms` and `seeds` differ in length.
    pub fn resample_batch(self, cms: &mut [CrossbarMatrix], rate: f64, seeds: &[u64]) {
        assert_eq!(cms.len(), seeds.len(), "one seed per map");
        let dense_v1 = (self.model.kind(), self.stream) == (DefectModelKind::Iid, SampleStream::V1);
        for (group, seeds) in cms.chunks_mut(Self::BATCH).zip(seeds.chunks(Self::BATCH)) {
            let shape = (group[0].rows, group[0].cols);
            if dense_v1
                && group.len() > 1
                && group.iter().all(|cm| (cm.rows, cm.cols) == shape)
                && CrossbarMatrix::resample_dense_lanes(group, v1_threshold(rate), seeds)
            {
                continue;
            }
            for (cm, &seed) in group.iter_mut().zip(seeds) {
                self.resample(cm, rate, &mut StdRng::seed_from_u64(seed));
            }
        }
    }
}

/// The crossbar matrix: functional map of the physical array.
///
/// The map is stored as **column defect bitplanes** only: one packed
/// `u64` bitset per column, bit `r` of plane `c` set exactly when row `r`
/// is *defective* (0) at column `c`, and every bit at a row index
/// `>= num_rows()` clear. The matching engine builds a whole
/// compatibility-adjacency row as `AND` of `!plane[c]` over an FM row's
/// one-columns — word-parallel over CM *rows* instead of one probe per
/// row. The paper's rows (Fig. 8b) are built from the planes on demand by
/// [`CrossbarMatrix::row`], for the cold readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarMatrix {
    rows: usize,
    cols: usize,
    /// Column defect bitplanes: `cols` bitsets of `plane_words` words.
    planes: Vec<u64>,
    /// Words per column plane: `bits::words_for(rows)`.
    plane_words: usize,
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3): bit `b`
/// of word `k` moves to bit `k` of word `b`, in `O(64·log 64)` word ops
/// via recursive block swaps — the word-parallel kernel behind
/// [`CrossbarMatrix::store_tile`].
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

/// One SplitMix64 step: `StdRng::seed_from_u64` fills its four state
/// words with four of them, and so does each lane of
/// [`CrossbarMatrix::resample_dense_avx2`].
#[cfg(target_arch = "x86_64")]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 2³², the scale of the [`SampleStream::V2`] sub-draws.
const TWO32: f64 = 4_294_967_296.0;

/// A [`GapTable`] bucket is the draws sharing their top 12 bits.
const BUCKET_SHIFT: u32 = 20;

/// The flag bit of a [`GapTable`] bucket entry: the gap varies inside the
/// bucket, or reaches 64.
const WALK: u8 = 0x80;

/// The [`SampleStream::V2`] gap decoder of one rate.
///
/// A 32-bit sub-draw `raw` decodes to the gap `#{k : raw < t_k}` over the
/// 64 thresholds `t_k = ⌊q^(k+1)·2³²⌋`, `q = 1 − rate`, built by the
/// iterated `f64` product. A draw lies below `t_k` with probability
/// `q^(k+1)`, so the gap is Geometric(`rate`). At 64 the gap becomes
/// `max(64, ⌊ln((raw + 1)/2³²)/ln q⌋)`, the exact logarithmic inversion
/// of the same draw.
///
/// One load answers almost every draw. The table holds one `u8` per
/// 12-bit bucket of the draw: the gap at the bucket's last draw, which is
/// the bucket's smallest gap, since the thresholds decrease. The entry is
/// flagged with [`WALK`] when a threshold lies inside the bucket, so the
/// gap varies there, or when the gap reaches 64; a flagged draw walks the
/// thresholds upward from the entry's gap, then takes the ln tail. At most
/// 64 buckets hold a threshold, so outside the tail the walk is rare.
struct GapTable {
    /// `rate.to_bits()` of the rate the table decodes.
    rate_bits: u64,
    /// `t_k`, non-increasing in `k`.
    thresholds: [u32; 64],
    /// Per bucket `raw >> BUCKET_SHIFT`: the gap at its last draw, with
    /// [`WALK`] set where that gap does not answer every draw.
    buckets: [u8; 1 << (32 - BUCKET_SHIFT)],
    /// `ln q`, for the tail.
    ln_q: f64,
}

impl GapTable {
    /// A table no rate matches: NaN never reaches the decoder.
    const UNBUILT: Self = Self {
        rate_bits: f64::NAN.to_bits(),
        thresholds: [0; 64],
        buckets: [0; 1 << (32 - BUCKET_SHIFT)],
        ln_q: 0.0,
    };

    /// Rebuilds the table in place for `rate`, with `0 < rate` and
    /// `1 − rate < 1`.
    fn build(&mut self, rate: f64) {
        let q = 1.0 - rate;
        let mut p = 1.0f64;
        for t in &mut self.thresholds {
            p *= q;
            *t = (p * TWO32) as u32;
        }
        // From the top bucket down, `gap` counts the thresholds above the
        // bucket's last draw: that draw's gap.
        let mut gap = 0usize;
        for (b, entry) in self.buckets.iter_mut().enumerate().rev() {
            let first = (b as u32) << BUCKET_SHIFT;
            let last = first | ((1 << BUCKET_SHIFT) - 1);
            while gap < 64 && self.thresholds[gap] > last {
                gap += 1;
            }
            let walk = gap == 64 || self.thresholds[gap] > first;
            *entry = gap as u8 | if walk { WALK } else { 0 };
        }
        self.ln_q = q.ln();
        self.rate_bits = rate.to_bits();
    }

    /// The gap `raw` decodes to.
    #[inline]
    fn gap(&self, raw: u32) -> usize {
        let entry = self.buckets[(raw >> BUCKET_SHIFT) as usize];
        if entry & WALK == 0 {
            usize::from(entry)
        } else {
            self.walk(raw, usize::from(entry & !WALK))
        }
    }

    /// A flagged draw's gap: the thresholds above `raw` counted upward
    /// from `gap`, a lower bound, and the ln tail at 64.
    fn walk(&self, raw: u32, mut gap: usize) -> usize {
        while gap < 64 && raw < self.thresholds[gap] {
            gap += 1;
        }
        if gap < 64 {
            return gap;
        }
        let u = (f64::from(raw) + 1.0) * (1.0 / TWO32);
        ((u.ln() / self.ln_q) as usize).max(64)
    }
}

thread_local! {
    /// This thread's [`GapTable`], for the last rate it sampled. A change
    /// of rate rebuilds it (a few µs); every Monte Carlo loop holds its
    /// rate fixed, so one table per thread is enough. It is boxed on the
    /// thread's first V2 draw, so a thread that never draws V2 keeps an
    /// empty slot instead of 4.4 KB of table.
    static GAP_TABLE: RefCell<Option<Box<GapTable>>> = const { RefCell::new(None) };
}

/// Matrices up to this many crosspoints (every Table II circuit) draw V2
/// defects into a linear row-major bit buffer on the stack (4 KiB).
const LINEAR_BITS: usize = 1 << 15;

impl CrossbarMatrix {
    /// A defect-free CM.
    #[must_use]
    pub fn perfect(rows: usize, cols: usize) -> Self {
        let plane_words = bits::words_for(rows);
        Self {
            rows,
            cols,
            planes: vec![0; cols * plane_words],
            plane_words,
        }
    }

    /// Resets every crosspoint to functional without reallocating — the
    /// prologue of every resample that marks only the defects (the V1
    /// sweep and V2's linear-buffer path store every plane word instead).
    fn clear_defects(&mut self) {
        self.planes.fill(0);
    }

    /// Transposes `tile` into plane word `block` of the columns from
    /// `w·64` on. On entry, bit `b` of `tile[i]` is the defect at row
    /// `block·64 + i`, column `w·64 + b`. Tile rows past the last row must
    /// be 0. Bits of columns past the last are never stored, so they need
    /// no mask. The plane writer of the V1 sweep and of V2's linear buffer.
    fn store_tile(&mut self, w: usize, block: usize, tile: &mut [u64; 64]) {
        transpose64(tile);
        let (first, pw) = (w * 64, self.plane_words);
        // Now bit `i` of `tile[b]` is the defect at (block·64 + i,
        // w·64 + b): exactly plane word `block` of column `w·64 + b`.
        for (b, &word) in tile[..(self.cols - first).min(64)].iter().enumerate() {
            self.planes[(first + b) * pw + block] = word;
        }
    }

    /// The [`SampleStream::V1`] sweep: one uniform draw per crosspoint in
    /// row-major order, the crosspoint defective when
    /// `rng.random_bool(rate)` would return true. **Frozen** — every pre-V2
    /// golden value and shard byte-compare is defined against this exact
    /// RNG consumption. Each draw is compared as an integer against
    /// [`v1_threshold`] and packed into its row word without a branch. A
    /// row's words go straight into its 64-row block's tiles, one tile per
    /// row word, and each block's tiles are then transposed into the
    /// planes ([`Self::store_tile`]). The tiles live on the stack up to
    /// 512 columns.
    fn resample_dense(&mut self, rate: f64, rng: &mut StdRng) {
        let threshold = v1_threshold(rate);
        let (rows, cols) = (self.rows, self.cols);
        let row_words = cols.div_ceil(64);
        let mut stack = [[0u64; 64]; 8];
        let mut heap = Vec::new();
        let tiles: &mut [[u64; 64]] = if row_words <= stack.len() {
            &mut stack[..row_words]
        } else {
            heap.resize(row_words, [0; 64]);
            &mut heap
        };
        for block in 0..self.plane_words {
            let upper = rows.min(block * 64 + 64) - block * 64;
            for i in 0..upper {
                for (w, tile) in tiles.iter_mut().enumerate() {
                    let mut defects = 0u64;
                    for b in 0..(cols - w * 64).min(64) {
                        defects |= u64::from(rng.next_u64() >> 11 < threshold) << b;
                    }
                    tile[i] = defects;
                }
            }
            for (w, tile) in tiles.iter_mut().enumerate() {
                // In a short last block, the rows past the last still hold
                // the previous block's transposed words.
                tile[upper..].fill(0);
                self.store_tile(w, block, tile);
            }
        }
    }

    /// Draws `cms` (at most [`DefectSampler::BATCH`] maps of one shape)
    /// with [`Self::resample_dense_avx2`] when this host has AVX2, with
    /// `seeds[l]` seeding map `l`, and returns whether it did. The one
    /// place the workspace runs `unsafe` code.
    #[allow(unsafe_code)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    fn resample_dense_lanes(cms: &mut [CrossbarMatrix], threshold: u64, seeds: &[u64]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the kernel is safe code whose only precondition, the
            // AVX2 its `target_feature` names, was detected on this host
            // just now.
            unsafe { Self::resample_dense_avx2(cms, threshold, seeds) };
            return true;
        }
        false
    }

    /// The [`SampleStream::V1`] sweep of up to four maps of one shape at
    /// once, map `l` drawn from `seeds[l]` bit for bit as
    /// [`Self::resample_dense`] draws it from `StdRng::seed_from_u64`.
    ///
    /// Lane `l` of four 256-bit registers holds map `l`'s xoshiro256++
    /// state, seeded as `seed_from_u64` seeds it (four SplitMix64
    /// outputs), and every step advances the four generators together;
    /// AVX2 has no 64-bit rotate, so each rotate is two shifts and an OR.
    /// A crosspoint is defective when its draw's top 53 bits `k` lie below
    /// [`v1_threshold`]. Since `k < 2⁵³` and the threshold lies in
    /// `[0, 2⁵³]`, that is exactly the sign bit of `k − threshold`, which
    /// is shifted into the lane's row word from the top. After a row
    /// word's `m` draws, draw `b` sits at bit `64 − m + b`, so the word is
    /// shifted down by `64 − m` as it leaves its lane. The words land in
    /// each map's tiles, one per row word, stored per 64-row block by
    /// [`Self::store_tile`] as the scalar sweep stores them. Lanes past
    /// the last map draw from seed 0, and their words are dropped.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn resample_dense_avx2(cms: &mut [CrossbarMatrix], threshold: u64, seeds: &[u64]) {
        use std::arch::x86_64::{
            _mm256_add_epi64, _mm256_and_si256, _mm256_extract_epi64, _mm256_or_si256,
            _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_setzero_si256, _mm256_slli_epi64,
            _mm256_srli_epi64, _mm256_sub_epi64, _mm256_xor_si256,
        };
        const LANES: usize = DefectSampler::BATCH;
        let (maps, rows, cols) = (cms.len(), cms[0].rows, cms[0].cols);
        debug_assert!(maps <= LANES && maps == seeds.len());
        debug_assert!(cms.iter().all(|cm| (cm.rows, cm.cols) == (rows, cols)));
        // `words[k][l]`: state word `k` of lane `l`.
        let mut words = [[0u64; LANES]; 4];
        for l in 0..LANES {
            let mut seed = seeds.get(l).copied().unwrap_or(0);
            for word in &mut words {
                word[l] = splitmix64(&mut seed);
            }
        }
        let [mut s0, mut s1, mut s2, mut s3] =
            words.map(|w| _mm256_set_epi64x(w[3] as i64, w[2] as i64, w[1] as i64, w[0] as i64));
        let threshold = _mm256_set1_epi64x(threshold as i64);
        let sign = _mm256_set1_epi64x(i64::MIN);
        let row_words = cols.div_ceil(64);
        // Row `i` of map `l`'s tile of row word `w` is
        // `tiles[(l * row_words + w) * 64 + i]`.
        let mut tiles = vec![0u64; maps * row_words * 64];
        for block in 0..cms[0].plane_words {
            let upper = rows.min(block * 64 + 64) - block * 64;
            for i in 0..upper {
                for w in 0..row_words {
                    let m = (cols - w * 64).min(64);
                    let mut defects = _mm256_setzero_si256();
                    for _ in 0..m {
                        let sum = _mm256_add_epi64(s0, s3);
                        let rotated = _mm256_or_si256(
                            _mm256_slli_epi64::<23>(sum),
                            _mm256_srli_epi64::<41>(sum),
                        );
                        let draw = _mm256_add_epi64(rotated, s0);
                        let t = _mm256_slli_epi64::<17>(s1);
                        s2 = _mm256_xor_si256(s2, s0);
                        s3 = _mm256_xor_si256(s3, s1);
                        s1 = _mm256_xor_si256(s1, s2);
                        s0 = _mm256_xor_si256(s0, s3);
                        s2 = _mm256_xor_si256(s2, t);
                        s3 = _mm256_or_si256(
                            _mm256_slli_epi64::<45>(s3),
                            _mm256_srli_epi64::<19>(s3),
                        );
                        let below = _mm256_sub_epi64(_mm256_srli_epi64::<11>(draw), threshold);
                        defects = _mm256_or_si256(
                            _mm256_srli_epi64::<1>(defects),
                            _mm256_and_si256(below, sign),
                        );
                    }
                    let lanes = [
                        _mm256_extract_epi64::<0>(defects),
                        _mm256_extract_epi64::<1>(defects),
                        _mm256_extract_epi64::<2>(defects),
                        _mm256_extract_epi64::<3>(defects),
                    ];
                    for (l, lane) in lanes.into_iter().take(maps).enumerate() {
                        tiles[(l * row_words + w) * 64 + i] = (lane as u64) >> (64 - m);
                    }
                }
            }
            for (cm, tiles) in cms
                .iter_mut()
                .zip(tiles.chunks_exact_mut(row_words.max(1) * 64))
            {
                for (w, tile) in tiles.chunks_exact_mut(64).enumerate() {
                    let tile: &mut [u64; 64] = tile.try_into().expect("64-word chunks");
                    tile[upper..].fill(0);
                    cm.store_tile(w, block, tile);
                }
            }
        }
    }

    /// The [`SampleStream::V2`] sweep: geometric skip over the row-major
    /// crosspoint sequence — one 32-bit sub-draw per *defect* instead of
    /// one draw per crosspoint, decoded to the gap before the defect by
    /// this thread's [`GapTable`] (built on the first call at a rate).
    ///
    /// Each `next_u64` yields two sub-draws, the low half first. The draw
    /// whose gap reaches past the last crosspoint ends the sweep; it is
    /// consumed, and the rest of its `u64` is dropped. Both marking paths
    /// below consume the generator identically, so the stream depends on
    /// the seed, the rate and the crosspoint count only.
    fn resample_geometric(&mut self, rate: f64, rng: &mut StdRng) {
        let n = self.rows * self.cols;
        // NaN-rejecting guard: no defects to draw (matches V1, where
        // `random_bool(rate <= 0)` never fires). A rate below f64
        // resolution around 1.0 (< 2⁻⁵³) leaves `q = 1`: its expected
        // defect count is ≈ 0 for any real array, so it draws nothing
        // rather than divide by ln(1) = 0 in the tail.
        if n == 0 || rate.is_nan() || rate <= 0.0 || 1.0 - rate >= 1.0 {
            self.clear_defects();
            return;
        }
        if rate >= 1.0 {
            // With rows > 0, `set_range` writes every word of a plane.
            for plane in self.planes.chunks_exact_mut(self.plane_words) {
                bits::set_range(plane, self.rows);
            }
            return;
        }
        GAP_TABLE.with_borrow_mut(|slot| {
            let table = slot.get_or_insert_with(|| Box::new(GapTable::UNBUILT));
            if table.rate_bits != rate.to_bits() {
                table.build(rate);
            }
            if n <= LINEAR_BITS {
                self.scatter_linear(table, rng);
            } else {
                self.scatter_cells(table, rng);
            }
        });
    }

    /// V2's path for matrices up to [`LINEAR_BITS`] crosspoints: defects
    /// land branch-free in a linear row-major bit buffer on the stack,
    /// which is then cut into 64×64 tiles, one per (row word, 64-row
    /// block), each transposed into the planes ([`Self::store_tile`]).
    /// Every plane word is stored, so no clearing pass is needed.
    fn scatter_linear(&mut self, table: &GapTable, rng: &mut StdRng) {
        let (rows, cols) = (self.rows, self.cols);
        // One pad word past the last: the realignment below reads word
        // pairs. `remaining` counts the crosspoints left, the current one
        // included. The buffer word being filled lives in `word`, stored
        // whole after every defect: the word index only grows, so a word,
        // once left, is final.
        let mut lbuf = [0u64; LINEAR_BITS / 64 + 1];
        let mut remaining = rows * cols;
        let mut pos = usize::MAX; // wraps to the first gap on add
        let (mut at, mut word) = (0usize, 0u64);
        'draws: loop {
            let wide = rng.next_u64();
            for raw in [wide as u32, (wide >> 32) as u32] {
                let gap = table.gap(raw);
                if gap >= remaining {
                    break 'draws;
                }
                remaining -= gap + 1;
                pos = pos.wrapping_add(gap + 1);
                let (next, bit) = (pos >> 6, 1u64 << (pos & 63));
                word = if next == at { word | bit } else { bit };
                at = next;
                lbuf[at] = word;
            }
        }
        for w in 0..cols.div_ceil(64) {
            for block in 0..self.plane_words {
                let base = block * 64;
                let mut tile = [0u64; 64];
                for (i, defects) in tile[..rows.min(base + 64) - base].iter_mut().enumerate() {
                    // The row word's 64 bits, realigned out of the stream
                    // by an unaligned double-word read. Past the row's end
                    // they are the next row's, in tile columns that
                    // `store_tile` never stores.
                    let at = (base + i) * cols + w * 64;
                    let pair = u128::from(lbuf[at >> 6]) | (u128::from(lbuf[(at >> 6) + 1]) << 64);
                    *defects = (pair >> (at & 63)) as u64;
                }
                self.store_tile(w, block, &mut tile);
            }
        }
    }

    /// V2's path above [`LINEAR_BITS`] crosspoints: per-defect scatter
    /// against the cleared matrix. The wrap loop's total iterations are
    /// bounded by `rows` (`r` only advances), so this stays
    /// O(defects + rows).
    fn scatter_cells(&mut self, table: &GapTable, rng: &mut StdRng) {
        self.clear_defects();
        let (cols, pw) = (self.cols, self.plane_words);
        let mut remaining = self.rows * cols;
        let (mut r, mut c) = (0usize, 0usize);
        'draws: loop {
            let wide = rng.next_u64();
            for raw in [wide as u32, (wide >> 32) as u32] {
                let gap = table.gap(raw);
                if gap >= remaining {
                    break 'draws;
                }
                remaining -= gap + 1;
                c += gap;
                while c >= cols {
                    c -= cols;
                    r += 1;
                }
                self.planes[c * pw + (r >> 6)] |= 1u64 << (r & 63);
                c += 1;
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
        let n = self.rows * self.cols;
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

    /// Marks the row-major linear span `[start, start + len)` defective.
    fn mark_defective_span(&mut self, start: usize, len: usize) {
        let (cols, pw) = (self.cols, self.plane_words);
        let mut pos = start;
        let end = start + len;
        while pos < end {
            let (r, c) = (pos / cols, pos % cols);
            let seg = (cols - c).min(end - pos);
            let (rw, rb) = (r >> 6, 1u64 << (r & 63));
            for cc in c..c + seg {
                self.planes[cc * pw + rw] |= rb;
            }
            pos += seg;
        }
    }

    /// Layers [`DefectModelKind::Lines`] faults onto the current map
    /// without clearing it: each row then each column breaks independently
    /// with probability `line_rate` (one uniform per line, index order). A
    /// broken wordline sets one bit in every plane; a broken bitline fills
    /// its plane.
    fn apply_line_faults(&mut self, line_rate: f64, rng: &mut StdRng) {
        let rate = if line_rate.is_nan() {
            0.0
        } else {
            line_rate.clamp(0.0, 1.0)
        };
        let (rows, cols, pw) = (self.rows, self.cols, self.plane_words);
        for r in 0..rows {
            if rng.random_bool(rate) {
                for plane in self.planes.chunks_exact_mut(pw) {
                    plane[r >> 6] |= 1u64 << (r & 63);
                }
            }
        }
        for c in 0..cols {
            if rng.random_bool(rate) {
                bits::set_range(&mut self.planes[c * pw..(c + 1) * pw], rows);
            }
        }
    }

    /// Derives the CM from a device-level crossbar: stuck-open crosspoints
    /// become 0s; stuck-closed defects zero their whole row and clear their
    /// column everywhere (both lines are unusable, §IV-A).
    #[must_use]
    pub fn from_crossbar(xbar: &Crossbar) -> Self {
        let (rows, cols) = (xbar.rows(), xbar.cols());
        let mut cm = Self::perfect(rows, cols);
        let dead_cols: Vec<bool> = (0..cols).map(|c| xbar.col_has_stuck_closed(c)).collect();
        for r in 0..rows {
            let dead_row = xbar.row_has_stuck_closed(r);
            for (c, &dead_col) in dead_cols.iter().enumerate() {
                if dead_row || dead_col || xbar.crosspoint(r, c).defect == Defect::StuckOpen {
                    cm.set_defective(r, c);
                }
            }
        }
        cm
    }

    /// Number of physical rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Row `row` of the paper's CM (Fig. 8b), built from the planes: bit
    /// `c` is 1 exactly when the crosspoint is functional. A cold
    /// accessor, O(`num_cols()`) per call; the engine reads the planes.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> BitRow {
        assert!(row < self.rows, "row out of range");
        let mut out = BitRow::ones(self.cols);
        for (c, plane) in self.planes.chunks_exact(self.plane_words).enumerate() {
            if bits::get_bit(plane, row) {
                bits::clear_bit(&mut out.words, c);
            }
        }
        out
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

    /// Marks a crosspoint defective (stuck-open), one plane bit. The cold
    /// per-cell mutator: [`CrossbarMatrix::from_crossbar`], column
    /// redundancy's routed maps and hand-built test maps use it; the
    /// samplers write whole plane words.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set_defective(&mut self, row: usize, col: usize) {
        assert!(row < self.rows, "row out of range");
        let pw = self.plane_words;
        bits::set_bit(&mut self.planes[col * pw..(col + 1) * pw], row);
    }

    /// Fraction of functional crosspoints.
    #[must_use]
    pub fn functional_fraction(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            return 1.0;
        }
        (total - bits::count_all(&self.planes)) as f64 / total as f64
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

    /// The four-lane V1 kernel, called directly rather than through
    /// [`DefectSampler::resample_batch`]'s dispatch, draws every map of
    /// one to four as the scalar sweep draws it from its seed, over dirty
    /// buffers, on both sides of the 64-row and 64-column word edges.
    #[test]
    fn the_avx2_kernel_draws_each_map_as_the_scalar_sweep() {
        let shapes = [
            (1, 1),
            (5, 63),
            (64, 64),
            (65, 65),
            (130, 44),
            (70, 142),
            (0, 9),
            (9, 0),
        ];
        for (rows, cols) in shapes {
            for maps in 1..=DefectSampler::BATCH {
                for rate in [0.0, 0.1, 0.5, 1.0] {
                    let seeds: Vec<u64> = (0..maps as u64).map(|l| 1000 * l + 7).collect();
                    let mut dirty = StdRng::seed_from_u64(3);
                    let mut cms: Vec<CrossbarMatrix> = (0..maps)
                        .map(|_| DefectSampler::v1().sample(rows, cols, 0.5, &mut dirty))
                        .collect();
                    if !CrossbarMatrix::resample_dense_lanes(&mut cms, v1_threshold(rate), &seeds) {
                        eprintln!("skipped: this host has no AVX2");
                        return;
                    }
                    for (cm, &seed) in cms.iter().zip(&seeds) {
                        let want = DefectSampler::v1().sample(
                            rows,
                            cols,
                            rate,
                            &mut StdRng::seed_from_u64(seed),
                        );
                        assert!(
                            *cm == want,
                            "{rows}x{cols}, {maps} maps, rate {rate}, seed {seed}"
                        );
                        assert_planes_consistent(cm);
                    }
                }
            }
        }
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

    /// The gap table answers every draw it is asked about as the V2
    /// definition does: the thresholds `⌊q^(k+1)·2³²⌋` (iterated product)
    /// counted one by one, then the ln tail at 64. The draws are every
    /// bucket's first and last draw, every threshold and its neighbours,
    /// and a strided sweep of all 2³² draws.
    #[test]
    fn gap_table_decodes_like_the_definition() {
        let rates = [
            1e-9,
            1e-4,
            0.01,
            0.05,
            0.1,
            0.25,
            0.5,
            0.9,
            1.0 - 1.0 / f64::from(1u32 << 20),
        ];
        for rate in rates {
            let q = 1.0 - rate;
            let mut p = 1.0f64;
            let thresholds: Vec<u32> = (0..64)
                .map(|_| {
                    p *= q;
                    (p * TWO32) as u32
                })
                .collect();
            let reference = |raw: u32| {
                let count = thresholds.iter().filter(|&&t| raw < t).count();
                if count < 64 {
                    return count;
                }
                let u = (f64::from(raw) + 1.0) / TWO32;
                ((u.ln() / q.ln()) as usize).max(64)
            };
            let mut table = GapTable::UNBUILT;
            table.build(rate);
            let buckets = (0..1u32 << (32 - BUCKET_SHIFT)).flat_map(|b| {
                let first = b << BUCKET_SHIFT;
                [first, first | ((1 << BUCKET_SHIFT) - 1)]
            });
            let edges = thresholds
                .iter()
                .flat_map(|&t| [t.wrapping_sub(1), t, t.wrapping_add(1)]);
            let sweep = (0..=u32::MAX).step_by(32_771);
            for raw in buckets.chain(edges).chain(sweep) {
                assert_eq!(table.gap(raw), reference(raw), "rate {rate:e}, draw {raw}");
            }
        }
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

    /// Checks the planes' invariants from first principles: they span
    /// `num_cols() × plane_words()` words; every bit at a row index
    /// `>= num_rows()` is clear, which keeps the derived `Eq` a comparison
    /// of maps; and [`CrossbarMatrix::row`] reads the plane bits back, bit
    /// `c` of row `r` being 0 exactly when bit `r` of plane `c` is set,
    /// with no bit past the last column.
    fn assert_planes_consistent(cm: &CrossbarMatrix) {
        let (rows, cols, pw) = (cm.num_rows(), cm.num_cols(), cm.plane_words());
        assert_eq!(pw, crate::bits::words_for(rows));
        assert_eq!(cm.defect_planes().len(), cols * pw);
        for c in 0..cols {
            let plane = cm.defect_plane(c);
            for bit in rows..pw * 64 {
                assert!(
                    !crate::bits::get_bit(plane, bit),
                    "col {c}, padding bit {bit}"
                );
            }
        }
        for r in 0..rows {
            let row = cm.row(r);
            assert_eq!(row.cols(), cols);
            let mut functional = 0;
            for c in 0..cols {
                let defective = crate::bits::get_bit(cm.defect_plane(c), r);
                assert_eq!(row.get(c), !defective, "row {r}, col {c}");
                functional += usize::from(!defective);
            }
            assert_eq!(
                row.count_ones(),
                functional,
                "row {r}: bits past the last column"
            );
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
        // In-place resampling over a previous map.
        let mut cm = DefectSampler::v1().sample(70, 9, 0.4, &mut rng);
        for _ in 0..3 {
            DefectSampler::v1().resample(&mut cm, 0.15, &mut rng);
            assert_planes_consistent(&cm);
        }
        // Manual defects.
        cm.set_defective(69, 8);
        cm.set_defective(0, 0);
        assert_planes_consistent(&cm);
        // Broken lines, alone and over clustered cells, on both sides of
        // the 64-row word boundary.
        for kind in [DefectModelKind::Lines, DefectModelKind::Composite] {
            let spec = DefectModelSpec::new(kind, 3.0, 0.3).expect("valid");
            for rows in [64usize, 65] {
                let cm = DefectSampler::with_model(SampleStream::V1, spec)
                    .sample(rows, 12, 0.2, &mut rng);
                assert_planes_consistent(&cm);
            }
        }
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
            assert!(row_compatible(fm.row(r), &cm.row(0)));
            let _ = r;
        }
    }
}
