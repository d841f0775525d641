//! The bitset matching engine: the allocation-free hot path behind every
//! defect-mapping query.
//!
//! Monte Carlo defect studies (Table II, the yield/redundancy sweeps) run
//! `sample defects → map` millions of times. The original mappers rebuilt a
//! dense `i64` cost matrix per sample and re-evaluated `row_compatible`
//! O(n·r) times; PR 2's engine replaced the *solves* with `trailing_zeros`
//! walks over a packed adjacency but still built that adjacency with a
//! dense O(n·r) probe sweep per sample. This revision makes the *build*
//! word-parallel too:
//!
//! * **Bitplane construction** — [`CrossbarMatrix`] is stored as one
//!   packed defect bitplane per column (bit `r` of plane `c` set when CM
//!   row `r` is defective at column `c`), which
//!   [`DefectSampler::resample`](crate::DefectSampler::resample) writes
//!   directly. A whole adjacency row for FM row `f` is then
//!   `AND(!plane[j])` over `f`'s one-columns — O(|ones(f)| · r/64) word
//!   ops instead of `r` per-row probes.
//! * **FM campaign cache** — the FM side of a Monte Carlo campaign never
//!   changes, so [`MatchEngine::prepare_fm`] extracts the per-row
//!   one-column lists (plus counts and the minterm/output split) once and
//!   keys them by an exact copy of the matrix's words; every query
//!   revalidates by word comparison (O(FM words), negligible next to
//!   construction, collision-free by construction) and rebuilds only when
//!   handed a genuinely different matrix. Campaign loops should call
//!   `prepare_fm` once up front; correctness never depends on it.
//! * **Hall/degree fast-fail** — EA and [`MatchEngine::feasible`] build
//!   the whole adjacency, and construction stops at the first FM row whose
//!   candidate set is empty (a degree-0 Hall violation: no mapping can
//!   exist). They then report failure without running Hopcroft–Karp (see
//!   `MatchEngine::set_fast_fail` for the equivalence-testing knob).
//!
//! The solver layers:
//!
//! * **HBA** — greedy and backtracking scans as `trailing_zeros` walks
//!   over `free & candidates` words, built on demand: the greedy scan
//!   computes a minterm's candidate words only where free rows remain and
//!   stops at its first fit, backtracking builds the rows it reads whole,
//!   once per call, and the output stage builds the output rows whole.
//!   HBA never reads the rest of the adjacency, so it never builds it.
//!   The exact output stage asks whether the 0/1 matching matrix (output
//!   rows × free CM rows) has a zero-cost assignment, which by Hall/König
//!   holds exactly when the output rows have a perfect matching into the
//!   free rows. The success-only entry points
//!   ([`MatchEngine::hybrid_success`],
//!   [`MatchEngine::hybrid_success_with`]) decide it with the bitset
//!   Hopcroft–Karp over `candidates & free`; [`MatchEngine::map_hybrid_with`],
//!   which returns the assignment, solves the matrix with Munkres through
//!   reusable scratch, as the paper does. Decisions *and* [`MappingStats`]
//!   are bit-identical to the reference algorithm
//!   ([`crate::reference::map_hybrid_with`]) on both paths; the counters
//!   report what the dense scan would have checked, reconstructed from
//!   popcounts.
//! * **EA / feasibility** — a pure 0/1 matching problem, routed to the
//!   bitset Hopcroft–Karp of `xbar-assign` (Munkres remains the solver for
//!   genuinely weighted problems).
//!
//! All buffers (FM cache, adjacency, free-row bitset, occupancy, Munkres
//! workspace) live in the engine and are reused across calls, so a
//! sampling loop that also reuses its [`CrossbarMatrix`] performs zero
//! heap allocations per sample.
//!
//! The word-level helpers come from the shared [`crate::bits`] module.

use crate::bits::{
    clear_bit, count_all, count_through, first_and, get_bit, is_empty, matched_in, set_bit,
    set_range, words_for,
};
use crate::mapping::{HybridOptions, MappingOutcome, MappingStats, RowAssignment};
use crate::matrices::{CrossbarMatrix, FunctionMatrix};
use xbar_assign::{munkres_with_scratch, BitsetMatching, CostMatrix, MunkresScratch};

/// Sentinel for "no row".
const NONE: usize = usize::MAX;

/// Exact cache-validity check: does the cached flattened word copy match
/// `fm`'s current content? Word-sequence comparison over the same words a
/// hash would have to read anyway, so revalidation costs O(FM words) with
/// zero collision risk (a hash-keyed cache could silently reuse the wrong
/// FM structure on a collision).
fn fm_words_match(cached: &[u64], fm: &FunctionMatrix) -> bool {
    let mut offset = 0usize;
    for i in 0..fm.num_rows() {
        let words = fm.row(i).words();
        match cached.get(offset..offset + words.len()) {
            Some(slice) if slice == words => offset += words.len(),
            _ => return false,
        }
    }
    offset == cached.len()
}

/// Reusable mapping engine: cached FM structure, packed compatibility
/// adjacency, plus every scratch buffer the mappers need.
///
/// # Examples
///
/// ```
/// use xbar_core::{CrossbarMatrix, FunctionMatrix, MatchEngine};
/// use xbar_logic::{cube, Cover};
///
/// let cover = Cover::from_cubes(3, 1, [cube("11- 1"), cube("--0 1")])?;
/// let fm = FunctionMatrix::from_cover(&cover);
/// let cm = CrossbarMatrix::perfect(fm.num_rows(), fm.num_cols());
/// let mut engine = MatchEngine::new();
/// engine.prepare_fm(&fm); // optional: warm the campaign cache up front
/// assert!(engine.map_hybrid(&fm, &cm).is_success());
/// assert!(engine.map_exact(&fm, &cm).is_success());
/// assert!(engine.feasible(&fm, &cm));
/// # Ok::<(), xbar_logic::LogicError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MatchEngine {
    /// Whether an FM is cached at all.
    fm_cached: bool,
    /// Flattened copy of every cached FM row's words — the exact validity
    /// key for the campaign cache (compared, not hashed: see
    /// [`fm_words_match`]).
    fm_words: Vec<u64>,
    /// Cached FM minterm count `p`.
    fm_minterms: usize,
    /// Cached FM output count `k`.
    fm_outputs: usize,
    /// Cached FM total rows (`p + k`).
    fm_rows: usize,
    /// Flattened one-column indices of every cached FM row.
    one_cols: Vec<u32>,
    /// Row offsets into `one_cols` (`fm_rows + 1` entries).
    one_starts: Vec<u32>,
    /// FM rows of the current adjacency (`p + k`).
    n: usize,
    /// CM rows of the current adjacency.
    r: usize,
    /// Words per packed CM-row bitset.
    words: usize,
    /// Packed adjacency: `n` rows of `words` words; bit `c` of row `f` is
    /// set when FM row `f` fits CM row `c`. Only the rows the current
    /// query built are current: for EA and feasibility every row up to
    /// [`MatchEngine::empty_row`] (all of them when it is `None`), for
    /// HBA the rows marked in [`MatchEngine::built`]. The others hold
    /// stale words from an earlier query.
    cand: Vec<u64>,
    /// Set by each EA or feasibility build: the first FM row whose
    /// candidate set came out empty, when the Hall fast-fail stopped
    /// construction there; `None` means that build covered every row.
    empty_row: Option<usize>,
    /// Disables the Hall fast-fail (equivalence testing / ablation); the
    /// default (`false`) keeps it on.
    fast_fail_disabled: bool,
    /// FM rows whose whole `cand` row the current HBA call has built
    /// (bit `f` for FM row `f`), so each is built at most once per call.
    built: Vec<u64>,
    /// Unmatched CM rows during HBA (bits `0..r`).
    free: Vec<u64>,
    /// `occupant[cm_row]` = minterm hosted there, or [`NONE`].
    occupant: Vec<usize>,
    /// Assignment under construction (`fm_to_cm`).
    fm_to_cm: Vec<usize>,
    /// Unmatched-row list for the output stage.
    unmatched: Vec<usize>,
    /// Output rows' candidates restricted to the unmatched CM rows: the
    /// success-only output stage's matching adjacency (`k` rows of
    /// `words` words).
    output_cand: Vec<u64>,
    /// Greedy-output ablation bookkeeping.
    taken: Vec<bool>,
    /// Backing storage for the output-stage matching matrix.
    cost_data: Vec<i64>,
    /// Bitset Hopcroft–Karp scratch (EA / feasibility and the
    /// success-only HBA output stage).
    matcher: BitsetMatching,
    /// Munkres scratch (HBA output stage).
    munkres: MunkresScratch,
}

impl MatchEngine {
    /// An empty engine; buffers grow to fit the first query and are reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables the Hall fast-fail of EA and
    /// [`MatchEngine::feasible`] (on by default). Disabling it forces their
    /// full adjacency construction on every query — outcomes and stats are
    /// identical either way (pinned by the equivalence proptests); the knob
    /// exists for exactly that comparison. HBA builds its candidate words
    /// on demand and never runs the fast-fail.
    pub fn set_fast_fail(&mut self, enabled: bool) {
        self.fast_fail_disabled = !enabled;
    }

    /// Builds (or revalidates) the campaign cache for `fm`: per-row
    /// one-column lists, ones counts, and the minterm/output split, keyed
    /// by an exact copy of the matrix's words (compared word-for-word on
    /// every call — O(FM words), negligible next to construction, and
    /// immune to the collisions a hash key would admit). Queries call
    /// this implicitly, so it is never required for correctness — but a
    /// Monte Carlo loop should invoke it once before sampling so the
    /// intent ("this FM is the campaign constant") is visible at the call
    /// site.
    pub fn prepare_fm(&mut self, fm: &FunctionMatrix) {
        if self.fm_cached
            && self.fm_minterms == fm.num_minterms()
            && self.fm_outputs == fm.num_outputs()
            && fm_words_match(&self.fm_words, fm)
        {
            return;
        }
        self.fm_cached = true;
        self.fm_minterms = fm.num_minterms();
        self.fm_outputs = fm.num_outputs();
        self.fm_rows = fm.num_rows();
        self.fm_words.clear();
        self.one_cols.clear();
        self.one_starts.clear();
        self.one_starts.push(0);
        for i in 0..self.fm_rows {
            let words = fm.row(i).words();
            self.fm_words.extend_from_slice(words);
            for (w, &word) in words.iter().enumerate() {
                let mut x = word;
                while x != 0 {
                    self.one_cols
                        .push((w * 64 + x.trailing_zeros() as usize) as u32);
                    x &= x - 1;
                }
            }
            self.one_starts.push(self.one_cols.len() as u32);
        }
    }

    /// HBA with default options (see [`crate::map_hybrid`]). Byte-identical
    /// outcome to the reference algorithm.
    pub fn map_hybrid(&mut self, fm: &FunctionMatrix, cm: &CrossbarMatrix) -> MappingOutcome {
        self.map_hybrid_with(fm, cm, HybridOptions::default())
    }

    /// HBA with explicit [`HybridOptions`]. Byte-identical outcome
    /// (assignment and stats) to [`crate::reference::map_hybrid_with`].
    pub fn map_hybrid_with(
        &mut self,
        fm: &FunctionMatrix,
        cm: &CrossbarMatrix,
        options: HybridOptions,
    ) -> MappingOutcome {
        let (ok, stats) = self.run_hybrid(fm, cm, options, true);
        let assignment = ok.then(|| {
            let assignment = RowAssignment {
                fm_to_cm: self.fm_to_cm.clone(),
            };
            debug_assert!(assignment.is_valid(fm, cm));
            assignment
        });
        MappingOutcome { assignment, stats }
    }

    /// HBA success/stats without materialising the assignment — the
    /// zero-allocation variant for Monte Carlo success-rate loops. The
    /// exact output stage is decided by a bitset matching instead of a
    /// Munkres solve; success and stats equal [`MatchEngine::map_hybrid`]'s.
    pub fn hybrid_success(
        &mut self,
        fm: &FunctionMatrix,
        cm: &CrossbarMatrix,
    ) -> (bool, MappingStats) {
        self.run_hybrid(fm, cm, HybridOptions::default(), false)
    }

    /// [`MatchEngine::hybrid_success`] with explicit options.
    pub fn hybrid_success_with(
        &mut self,
        fm: &FunctionMatrix,
        cm: &CrossbarMatrix,
        options: HybridOptions,
    ) -> (bool, MappingStats) {
        self.run_hybrid(fm, cm, options, false)
    }

    /// EA: succeeds iff *any* valid mapping exists, solved as a bitset
    /// maximum matching (see [`crate::map_exact`]).
    pub fn map_exact(&mut self, fm: &FunctionMatrix, cm: &CrossbarMatrix) -> MappingOutcome {
        let (ok, stats) = self.run_exact(fm, cm);
        let assignment = ok.then(|| {
            let assignment = RowAssignment {
                fm_to_cm: self.fm_to_cm.clone(),
            };
            debug_assert!(assignment.is_valid(fm, cm));
            assignment
        });
        MappingOutcome { assignment, stats }
    }

    /// EA success/stats without materialising the assignment (zero
    /// allocation).
    pub fn exact_success(
        &mut self,
        fm: &FunctionMatrix,
        cm: &CrossbarMatrix,
    ) -> (bool, MappingStats) {
        self.run_exact(fm, cm)
    }

    /// Feasibility oracle: does any valid mapping exist? Equivalent to
    /// [`MatchEngine::map_exact`]`.is_success()` but skips stats and
    /// assignment extraction.
    pub fn feasible(&mut self, fm: &FunctionMatrix, cm: &CrossbarMatrix) -> bool {
        let n = fm.num_rows();
        if n > cm.num_rows() {
            return false;
        }
        self.prepare(fm, cm);
        if self.empty_row.is_some() {
            return false;
        }
        self.matcher.run(self.n, self.r, &self.cand) == n
    }

    /// Builds the **full** packed compatibility adjacency for `(fm, cm)` —
    /// no Hall fast-fail truncation — and returns `(words_per_row, rows)`:
    /// bit `c` of row `f` (at word `f * words_per_row + c / 64`) is set
    /// when FM row `f` fits CM row `c`. A test hook: the equivalence
    /// tests compare it against the dense `row_compatible` sweep. EA and
    /// feasibility build the same adjacency internally (modulo fast-fail
    /// truncation); HBA builds only the rows and words of it that it
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics when the column counts of `fm` and `cm` differ.
    pub fn build_adjacency(&mut self, fm: &FunctionMatrix, cm: &CrossbarMatrix) -> (usize, &[u64]) {
        let prev = self.fast_fail_disabled;
        self.fast_fail_disabled = true;
        self.prepare(fm, cm);
        self.fast_fail_disabled = prev;
        (self.words, &self.cand)
    }

    /// Checks that `fm` and `cm` fit together, warms the FM cache, records
    /// the adjacency's dimensions and sizes `cand`; builds no row.
    ///
    /// # Panics
    ///
    /// Panics when the column counts of `fm` and `cm` differ.
    fn bind(&mut self, fm: &FunctionMatrix, cm: &CrossbarMatrix) {
        assert_eq!(
            fm.num_cols(),
            cm.num_cols(),
            "column counts must match (FM {} vs CM {})",
            fm.num_cols(),
            cm.num_cols()
        );
        self.prepare_fm(fm);
        self.n = self.fm_rows;
        self.r = cm.num_rows();
        self.words = words_for(self.r);
        debug_assert_eq!(self.words, cm.plane_words());
        self.cand.resize(self.n * self.words, 0);
    }

    /// Builds the packed compatibility adjacency for `(fm, cm)` row by
    /// row (see [`MatchEngine::build_row`]). With the Hall fast-fail
    /// enabled, construction stops at the first FM row whose candidate set
    /// is empty (recorded in `empty_row`; later rows stay unbuilt).
    ///
    /// # Panics
    ///
    /// Panics when the column counts of `fm` and `cm` differ.
    fn prepare(&mut self, fm: &FunctionMatrix, cm: &CrossbarMatrix) {
        self.bind(fm, cm);
        self.empty_row = None;
        let words = self.words;
        let planes = cm.defect_planes();
        for f in 0..self.n {
            self.build_row(f, planes);
            if !self.fast_fail_disabled && is_empty(&self.cand[f * words..(f + 1) * words]) {
                self.empty_row = Some(f);
                return;
            }
        }
    }

    /// Writes FM row `f`'s whole candidate set into its `cand` row: all
    /// CM rows, `AND`ed with `!plane[j]` for every one-column `j` of `f` —
    /// word-parallel over CM rows, using the FM structure cached by
    /// [`MatchEngine::prepare_fm`].
    fn build_row(&mut self, f: usize, planes: &[u64]) {
        let words = self.words;
        let row = &mut self.cand[f * words..(f + 1) * words];
        set_range(row, self.r);
        let ones = &self.one_cols[self.one_starts[f] as usize..self.one_starts[f + 1] as usize];
        for &j in ones {
            let j = j as usize;
            let plane = &planes[j * words..(j + 1) * words];
            for (d, &p) in row.iter_mut().zip(plane) {
                *d &= !p;
            }
        }
    }

    /// [`MatchEngine::build_row`] unless the current HBA call already
    /// built row `f`.
    fn ensure_row(&mut self, f: usize, planes: &[u64]) {
        if !get_bit(&self.built, f) {
            self.build_row(f, planes);
            set_bit(&mut self.built, f);
        }
    }

    /// First free CM row that FM row `f` fits, without building `f`'s
    /// candidate row: a candidate word, `AND(!plane[j][w])` over `f`'s
    /// one-columns, is computed only where `free[w] != 0`, starting from
    /// the free word itself (which also masks the top word to `r` bits),
    /// and the scan stops at the first hit.
    fn first_free_fit(&self, f: usize, planes: &[u64]) -> Option<usize> {
        let words = self.words;
        let ones = &self.one_cols[self.one_starts[f] as usize..self.one_starts[f + 1] as usize];
        for (w, &free) in self.free.iter().enumerate() {
            if free == 0 {
                continue;
            }
            let mut word = free;
            for &j in ones {
                word &= !planes[j as usize * words + w];
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Algorithm 1 over bitplane candidate words, reproducing the
    /// reference implementation's decisions and [`MappingStats`] exactly.
    /// With `assign`, a success leaves the assignment in `self.fm_to_cm`.
    ///
    /// HBA reads only part of the adjacency, so it builds only that part.
    /// The greedy scan asks for the first free CM row each minterm fits,
    /// which [`MatchEngine::first_free_fit`] answers from the words that
    /// still hold free rows. Backtracking reads whole rows (the failing
    /// row and each occupant it probes), built at most once per call; the
    /// output stage builds the output rows whole.
    ///
    /// `assign` selects how the exact output stage is decided. With it,
    /// Munkres solves the matching matrix and its assignment completes
    /// `self.fm_to_cm`. Without it, only the decision is needed: the matrix
    /// has a zero-cost assignment exactly when the `k` output rows have a
    /// perfect matching into the unmatched CM rows (Hall/König), which the
    /// bitset Hopcroft–Karp decides over `candidates & free`. Both record
    /// the same stats, so the two paths differ only in `self.fm_to_cm`.
    fn run_hybrid(
        &mut self,
        fm: &FunctionMatrix,
        cm: &CrossbarMatrix,
        options: HybridOptions,
        assign: bool,
    ) -> (bool, MappingStats) {
        let mut stats = MappingStats::default();
        if fm.num_rows() > cm.num_rows() {
            return (false, stats);
        }
        self.bind(fm, cm);
        let planes = cm.defect_planes();
        let p = self.fm_minterms;
        let k = self.fm_outputs;
        let r = self.r;
        let words = self.words;
        self.built.clear();
        self.built.resize(words_for(self.n), 0);
        self.free.clear();
        self.free.resize(words, 0);
        set_range(&mut self.free, r);
        self.occupant.clear();
        self.occupant.resize(r, NONE);
        self.fm_to_cm.clear();
        self.fm_to_cm.resize(p + k, NONE);

        for i in 0..p {
            // First pass: unmatched CM rows, top to bottom. The dense scan
            // checks every free row up to and including the first fit.
            if let Some(t) = self.first_free_fit(i, planes) {
                stats.compatibility_checks += count_through(&self.free, t);
                clear_bit(&mut self.free, t);
                self.occupant[t] = i;
                self.fm_to_cm[i] = t;
                continue;
            }
            stats.compatibility_checks += count_all(&self.free);
            if !options.backtracking {
                return (false, stats);
            }
            // BACKTRACKING: steal a matched CM row whose occupant can be
            // re-homed to a free row (a length-2 alternating path). The
            // dense scan checks every *matched* row in order; candidates
            // additionally trigger an inner scan over the free rows.
            stats.backtracks += 1;
            self.ensure_row(i, planes);
            let mut placed = false;
            let mut scanned_to = 0usize; // matched rows below this were counted
            'steal: for w in 0..words {
                let mut x = !self.free[w] & self.cand[i * words + w];
                while x != 0 {
                    let t = w * 64 + x.trailing_zeros() as usize;
                    x &= x - 1;
                    stats.compatibility_checks += matched_in(&self.free, scanned_to, t + 1);
                    scanned_to = t + 1;
                    let j = self.occupant[t];
                    self.ensure_row(j, planes);
                    let cand_j = &self.cand[j * words..(j + 1) * words];
                    if let Some(u) = first_and(&self.free, cand_j) {
                        stats.compatibility_checks += count_through(&self.free, u);
                        clear_bit(&mut self.free, u);
                        self.occupant[u] = j;
                        self.fm_to_cm[j] = u;
                        self.occupant[t] = i;
                        self.fm_to_cm[i] = t;
                        placed = true;
                        break 'steal;
                    }
                    stats.compatibility_checks += count_all(&self.free);
                }
            }
            if !placed {
                stats.compatibility_checks += matched_in(&self.free, scanned_to, r);
                return (false, stats);
            }
        }

        // Output assignment over the unmatched CM rows.
        self.unmatched.clear();
        for w in 0..words {
            let mut x = self.free[w];
            while x != 0 {
                self.unmatched.push(w * 64 + x.trailing_zeros() as usize);
                x &= x - 1;
            }
        }
        if k > 0 {
            if self.unmatched.len() < k {
                return (false, stats);
            }
            for o in p..p + k {
                self.build_row(o, planes);
            }
            if options.exact_outputs {
                // The paper's choice: matching matrix FMo × CMu solved with
                // Munkres; zero cost certifies a valid mapping.
                stats.assignment_rows = k;
                stats.compatibility_checks += k * self.unmatched.len();
                if !assign {
                    self.output_cand.clear();
                    for o in 0..k {
                        let cand_o = &self.cand[(p + o) * words..(p + o + 1) * words];
                        self.output_cand
                            .extend(cand_o.iter().zip(&self.free).map(|(&c, &f)| c & f));
                    }
                    let matched = self.matcher.run(k, r, &self.output_cand);
                    return (matched == k, stats);
                }
                let mut data = std::mem::take(&mut self.cost_data);
                data.clear();
                for o in 0..k {
                    let cand_o = &self.cand[(p + o) * words..(p + o + 1) * words];
                    for &u in &self.unmatched {
                        data.push(i64::from(!get_bit(cand_o, u)));
                    }
                }
                let matrix = CostMatrix::from_rows_unchecked(k, self.unmatched.len(), data);
                let cost =
                    munkres_with_scratch(&matrix, &mut self.munkres).expect("k <= unmatched rows");
                if cost == 0 {
                    for (o, &u) in self.munkres.assignment().iter().enumerate() {
                        self.fm_to_cm[p + o] = self.unmatched[u];
                    }
                }
                self.cost_data = matrix.into_data();
                if cost != 0 {
                    return (false, stats);
                }
            } else {
                // Ablation: greedy first-fit output placement.
                self.taken.clear();
                self.taken.resize(self.unmatched.len(), false);
                for o in 0..k {
                    let cand_o = &self.cand[(p + o) * words..(p + o + 1) * words];
                    let mut placed = false;
                    for (ui, &u) in self.unmatched.iter().enumerate() {
                        if self.taken[ui] {
                            continue;
                        }
                        stats.compatibility_checks += 1;
                        if get_bit(cand_o, u) {
                            self.taken[ui] = true;
                            self.fm_to_cm[p + o] = u;
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        return (false, stats);
                    }
                }
            }
        }
        (true, stats)
    }

    /// EA over the packed adjacency: maximum bipartite matching via the
    /// bitset Hopcroft–Karp. Stats keep the reference semantics
    /// (`assignment_rows = n`, one compatibility check per FM×CM pair).
    /// When the Hall fast-fail recorded an empty candidate row, no perfect
    /// matching can exist and the Hopcroft–Karp solve is skipped outright
    /// (EA stats are a function of the dimensions alone, so they are
    /// unchanged).
    fn run_exact(&mut self, fm: &FunctionMatrix, cm: &CrossbarMatrix) -> (bool, MappingStats) {
        if fm.num_rows() > cm.num_rows() {
            return (false, MappingStats::default());
        }
        self.prepare(fm, cm);
        let (n, r) = (self.n, self.r);
        let stats = MappingStats {
            compatibility_checks: n * r,
            backtracks: 0,
            assignment_rows: n,
        };
        if self.empty_row.is_some() {
            return (false, stats);
        }
        if self.matcher.run(n, r, &self.cand) < n {
            return (false, stats);
        }
        self.fm_to_cm.clear();
        self.fm_to_cm
            .extend_from_slice(self.matcher.left_to_right());
        (true, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::{row_compatible, DefectSampler};
    use crate::reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xbar_logic::{cube, Cover};

    fn fig8_fm() -> FunctionMatrix {
        let cover = Cover::from_cubes(
            3,
            2,
            [
                cube("11- 10"),
                cube("-01 10"),
                cube("0-0 01"),
                cube("-11 01"),
            ],
        )
        .expect("dims");
        FunctionMatrix::from_cover(&cover)
    }

    #[test]
    fn engine_reproduces_reference_on_fig8_sweep() {
        let fm = fig8_fm();
        let mut engine = MatchEngine::new();
        engine.prepare_fm(&fm);
        let mut rng = StdRng::seed_from_u64(2018);
        for trial in 0..400 {
            let cm = DefectSampler::v1().sample(7, 10, 0.15, &mut rng);
            let expected = reference::map_hybrid(&fm, &cm);
            let got = engine.map_hybrid(&fm, &cm);
            assert_eq!(got, expected, "trial {trial}");
            let ea = engine.map_exact(&fm, &cm);
            assert_eq!(ea.is_success(), reference::mapping_feasible(&fm, &cm));
            assert_eq!(engine.feasible(&fm, &cm), ea.is_success());
            if let Some(a) = ea.assignment {
                assert!(a.is_valid(&fm, &cm));
            }
        }
    }

    #[test]
    fn engine_reproduces_reference_ablations() {
        let fm = fig8_fm();
        let mut engine = MatchEngine::new();
        let mut rng = StdRng::seed_from_u64(77);
        let variants = [
            HybridOptions {
                backtracking: false,
                exact_outputs: true,
            },
            HybridOptions {
                backtracking: true,
                exact_outputs: false,
            },
            HybridOptions {
                backtracking: false,
                exact_outputs: false,
            },
        ];
        for trial in 0..200 {
            let cm = DefectSampler::v1().sample(6, 10, 0.15, &mut rng);
            for options in variants {
                let expected = reference::map_hybrid_with(&fm, &cm, options);
                let got = engine.map_hybrid_with(&fm, &cm, options);
                assert_eq!(got, expected, "trial {trial}, {options:?}");
            }
        }
    }

    #[test]
    fn engine_survives_reuse_across_sizes() {
        let fm = fig8_fm();
        let mut engine = MatchEngine::new();
        // Large crossbar (crosses a word boundary), then small again.
        for rows in [6usize, 90, 6, 130, 7] {
            let cm = CrossbarMatrix::perfect(rows, 10);
            let outcome = engine.map_hybrid(&fm, &cm);
            assert!(outcome.is_success(), "rows = {rows}");
            assert_eq!(outcome, reference::map_hybrid(&fm, &cm), "rows = {rows}");
            assert!(engine.map_exact(&fm, &cm).is_success());
        }
    }

    #[test]
    fn too_small_crossbar_fails_without_preparing() {
        let fm = fig8_fm();
        let cm = CrossbarMatrix::perfect(4, 10);
        let mut engine = MatchEngine::new();
        assert!(!engine.map_hybrid(&fm, &cm).is_success());
        assert!(!engine.map_exact(&fm, &cm).is_success());
        assert!(!engine.feasible(&fm, &cm));
    }

    #[test]
    fn success_variants_agree_with_outcome_variants() {
        let fm = fig8_fm();
        let mut engine = MatchEngine::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let cm = DefectSampler::v1().sample(6, 10, 0.12, &mut rng);
            let (hba_ok, hba_stats) = engine.hybrid_success(&fm, &cm);
            let outcome = engine.map_hybrid(&fm, &cm);
            assert_eq!(hba_ok, outcome.is_success());
            assert_eq!(hba_stats, outcome.stats);
            let (ea_ok, ea_stats) = engine.exact_success(&fm, &cm);
            let exact = engine.map_exact(&fm, &cm);
            assert_eq!(ea_ok, exact.is_success());
            assert_eq!(ea_stats, exact.stats);
        }
    }

    #[test]
    fn adjacency_matches_dense_row_compatible() {
        let fm = fig8_fm();
        let mut engine = MatchEngine::new();
        let mut rng = StdRng::seed_from_u64(31);
        for rows in [6usize, 7, 64, 65, 100] {
            let cm = DefectSampler::v1().sample(rows, 10, 0.2, &mut rng);
            let (words, cand) = engine.build_adjacency(&fm, &cm);
            assert_eq!(words, words_for(rows));
            assert_eq!(cand.len(), fm.num_rows() * words);
            for f in 0..fm.num_rows() {
                let row = &cand[f * words..(f + 1) * words];
                for c in 0..words * 64 {
                    let expect = c < rows && row_compatible(fm.row(f), &cm.row(c));
                    assert_eq!(get_bit(row, c), expect, "rows {rows}, f {f}, c {c}");
                }
            }
        }
    }

    /// The FM content-hash cache must never leak structure between two
    /// different matrices — including ones with identical dimensions.
    #[test]
    fn fm_cache_revalidates_on_a_different_same_shape_fm() {
        let fm_a = fig8_fm();
        // Same I/O/product counts, different literal structure.
        let cover_b = Cover::from_cubes(
            3,
            2,
            [
                cube("0-1 10"),
                cube("1-0 10"),
                cube("-11 01"),
                cube("00- 01"),
            ],
        )
        .expect("dims");
        let fm_b = FunctionMatrix::from_cover(&cover_b);
        let mut engine = MatchEngine::new();
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..100 {
            let cm = DefectSampler::v1().sample(7, 10, 0.2, &mut rng);
            for fm in [&fm_a, &fm_b] {
                assert_eq!(
                    engine.map_hybrid(fm, &cm),
                    reference::map_hybrid(fm, &cm),
                    "interleaved FMs must not share cache entries"
                );
            }
        }
    }

    /// At defect rates high enough to produce empty candidate sets, the
    /// fast-fail engine and the full-construction engine agree on every
    /// EA outcome, stat, and assignment. HBA, which never fast-fails,
    /// equals the reference on the same maps, including those where an
    /// output row without a single candidate reaches the output stage.
    #[test]
    fn fast_fail_is_outcome_and_stats_invisible() {
        let fm = fig8_fm();
        let p = fm.num_minterms();
        let mut fast = MatchEngine::new();
        let mut full = MatchEngine::new();
        full.set_fast_fail(false);
        let mut rng = StdRng::seed_from_u64(99);
        let mut failures = 0;
        let mut empty_outputs = 0;
        for trial in 0..300 {
            let cm = DefectSampler::v1().sample(8, 10, 0.55, &mut rng);
            for options in [
                HybridOptions::default(),
                HybridOptions {
                    backtracking: false,
                    exact_outputs: true,
                },
                HybridOptions {
                    backtracking: true,
                    exact_outputs: false,
                },
            ] {
                let expected = reference::map_hybrid_with(&fm, &cm, options);
                assert_eq!(
                    fast.map_hybrid_with(&fm, &cm, options),
                    expected,
                    "trial {trial}, {options:?}"
                );
                assert_eq!(
                    fast.hybrid_success_with(&fm, &cm, options),
                    (expected.is_success(), expected.stats),
                    "trial {trial}, {options:?}"
                );
            }
            assert_eq!(fast.map_exact(&fm, &cm), full.map_exact(&fm, &cm));
            assert_eq!(fast.feasible(&fm, &cm), full.feasible(&fm, &cm));
            failures += usize::from(!full.feasible(&fm, &cm));
            let reached_outputs = reference::map_hybrid(&fm, &cm).stats.assignment_rows > 0;
            let (words, cand) = full.build_adjacency(&fm, &cm);
            let empty_output =
                (p..fm.num_rows()).any(|f| is_empty(&cand[f * words..(f + 1) * words]));
            empty_outputs += usize::from(reached_outputs && empty_output);
        }
        assert!(empty_outputs > 0, "sweep must reach an empty output row");
        assert!(failures > 50, "sweep must exercise the fast-fail path");
    }

    #[test]
    fn all_defective_crossbar_fast_fails_identically_to_reference() {
        let fm = fig8_fm();
        let mut cm = CrossbarMatrix::perfect(8, 10);
        let mut rng = StdRng::seed_from_u64(1);
        DefectSampler::v1().resample(&mut cm, 1.0, &mut rng);
        let mut engine = MatchEngine::new();
        assert_eq!(engine.map_hybrid(&fm, &cm), reference::map_hybrid(&fm, &cm));
        assert!(!engine.feasible(&fm, &cm));
        let (_, ea_stats) = engine.exact_success(&fm, &cm);
        assert_eq!(ea_stats.compatibility_checks, 6 * 8);
    }
}
