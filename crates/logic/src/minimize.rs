//! Espresso-style heuristic two-level minimization.
//!
//! The paper maps espresso-minimized MCNC PLAs onto crossbars; this module is
//! the stand-in for espresso. It implements the classic
//! EXPAND → IRREDUNDANT → REDUCE loop on multi-output covers:
//!
//! * **expand** raises literals (and output memberships) of each cube as long
//!   as the cube stays inside `ON ∪ DC` of every output it drives, then drops
//!   cubes swallowed by the expanded one;
//! * **irredundant** removes cubes (or output memberships) covered by the
//!   rest of the cover plus the DC set;
//! * **reduce** shrinks cubes to give the next expand pass freedom to escape
//!   local minima.
//!
//! All three steps ask one question: does a cube's input part lie inside a
//! per-output minterm set `X(o)`? EXPAND asks it of `ON(o) ∪ DC(o)`;
//! IRREDUNDANT and REDUCE of `DC(o)` plus the other live cubes driving `o`.
//! A function of at most `BITSET_MAX_INPUTS` (15) inputs answers it on
//! `2ⁿ`-bit minterm sets, where it is `cube & !X == 0` over the few words
//! the cube touches. There IRREDUNDANT and REDUCE never build `X(o)`: they
//! count, per output and minterm, the live cubes covering it, and a cube
//! lies inside `DC(o)` plus the *other* cubes driving `o` exactly when
//! every minterm it covers outside `DC(o)` is counted at least twice. The
//! counts fall as IRREDUNDANT drops memberships and REDUCE shrinks cubes.
//! Packing the cube a question asks about takes a few word operations
//! (`Cube::low_literals`), not a walk over its inputs. Wider functions
//! keep `X(o)` as a cover,
//! rebuilt from the other cubes per question, and answer through the
//! unate-recursive
//! [`cover_contains_input_cube`](crate::calculus::cover_contains_input_cube).
//! Both forms decide the same exact predicate, so the minimized cover is the
//! same, cube for cube and in the same order, whichever form answers.

use crate::calculus::cover_contains_input_cube;
use crate::cover::Cover;
use crate::cube::{Cube, Phase, VarState};

/// Widest function whose containment questions are answered on minterm
/// bitsets: one set of `2^15` minterms is 4 KiB. Every exact Table I/II
/// circuit has at most 9 inputs.
const BITSET_MAX_INPUTS: usize = 15;

/// Tuning knobs for [`minimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeOptions {
    /// Maximum number of EXPAND/IRREDUNDANT/REDUCE iterations.
    pub max_iterations: usize,
    /// Whether to run the REDUCE perturbation step (disable for speed).
    pub reduce: bool,
    /// Whether EXPAND may add output memberships (multi-output sharing).
    pub expand_outputs: bool,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        Self {
            max_iterations: 4,
            reduce: true,
            expand_outputs: true,
        }
    }
}

/// Cost of a cover in espresso's ordering: cube count first, then total
/// literal count, then output memberships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoverCost {
    /// Number of cubes (crossbar product rows).
    pub cubes: usize,
    /// Total input literals (NAND-plane switches).
    pub literals: usize,
    /// Total output memberships (AND-plane switches).
    pub memberships: usize,
}

impl CoverCost {
    /// Cost of a cover.
    #[must_use]
    pub fn of(cover: &Cover) -> Self {
        Self {
            cubes: cover.len(),
            literals: cover.total_literals(),
            memberships: cover.total_output_memberships(),
        }
    }
}

/// Heuristically minimizes `on` against the don't-care set `dc` (which may
/// be empty). Returns an equivalent (modulo DC) cover, typically much
/// smaller.
///
/// # Examples
///
/// ```
/// use xbar_logic::{minimize, Cover, cube, MinimizeOptions};
///
/// // Four minterms of x0 ⊕ nothing: together they form the cube "1-".
/// let on = Cover::from_cubes(2, 1, [cube("10 1"), cube("11 1")])?;
/// let dc = Cover::new(2, 1);
/// let min = minimize(&on, &dc, MinimizeOptions::default());
/// assert_eq!(min.len(), 1);
/// # Ok::<(), xbar_logic::LogicError>(())
/// ```
///
/// # Panics
///
/// Panics if `on` and `dc` dimensions disagree.
#[must_use]
pub fn minimize(on: &Cover, dc: &Cover, options: MinimizeOptions) -> Cover {
    minimize_with(on, dc, options, on.num_inputs() <= BITSET_MAX_INPUTS)
}

/// [`minimize`] with the oracle form picked by the caller: minterm bitsets
/// when `bitsets`, covers and tautology otherwise.
fn minimize_with(on: &Cover, dc: &Cover, options: MinimizeOptions, bitsets: bool) -> Cover {
    assert_eq!(on.num_inputs(), dc.num_inputs(), "ON/DC input arity");
    assert_eq!(on.num_outputs(), dc.num_outputs(), "ON/DC output arity");

    let mut oracle = Oracle::new(on, dc, bitsets);

    let mut current = on.clone();
    current.drop_empty_cubes();
    current.drop_contained_cubes();

    let mut best = current.clone();
    let mut best_cost = CoverCost::of(&best);

    for iteration in 0..options.max_iterations {
        expand(&mut current, &oracle, options.expand_outputs);
        irredundant(&mut current, &mut oracle);
        let cost = CoverCost::of(&current);
        if cost < best_cost {
            best = current.clone();
            best_cost = cost;
        } else if iteration > 0 {
            break;
        }
        if !options.reduce || iteration + 1 == options.max_iterations {
            if !options.reduce {
                break;
            }
            continue;
        }
        reduce(&mut current, &mut oracle);
    }
    best
}

/// The minimizer's containment oracle, in the form picked once per call.
/// Besides the fixed per-output sets it tracks the cover a pass of
/// IRREDUNDANT or REDUCE works on, from which it answers their `X(o)`.
enum Oracle {
    /// `2ⁿ`-bit minterm sets: `ON(o) ∪ DC(o)` per output, and the pass's
    /// counts.
    Bits {
        on_dc: Vec<Vec<u64>>,
        counts: Counts,
    },
    /// Single-output covers, queried through the tautology check; `X(o)`
    /// is rebuilt from the cached input parts of the pass's cubes.
    Covers {
        on_dc: Vec<Cover>,
        dc: Vec<Cover>,
        parts: Vec<Cube>,
    },
}

/// One `X(o)`, in the oracle's form.
enum Region<'a> {
    Bits(&'a [u64]),
    Cover(Cover),
}

impl Oracle {
    fn new(on: &Cover, dc: &Cover, bitsets: bool) -> Self {
        let inputs = on.num_inputs();
        let outputs = 0..on.num_outputs();
        if bitsets {
            assert!(inputs <= BITSET_MAX_INPUTS, "too many inputs for bitsets");
            let words = (1usize << inputs).div_ceil(64);
            let set_of = |covers: &[&Cover], o: usize| {
                let mut set = vec![0; words];
                for cube in covers.iter().flat_map(|c| c.iter()) {
                    if cube.output(o) {
                        InputPart::of(cube).insert_into(&mut set);
                    }
                }
                set
            };
            let dc_sets = outputs.clone().flat_map(|o| set_of(&[dc], o)).collect();
            Self::Bits {
                on_dc: outputs.map(|o| set_of(&[on, dc], o)).collect(),
                counts: Counts::new(words, dc_sets),
            }
        } else {
            let on_dc = outputs.clone().map(|o| {
                let mut cover = on.output_cover(o);
                for cube in dc.output_cover(o) {
                    cover.push(cube);
                }
                cover
            });
            Self::Covers {
                on_dc: on_dc.collect(),
                dc: outputs.map(|o| dc.output_cover(o)).collect(),
                parts: Vec::new(),
            }
        }
    }

    /// EXPAND's question: does the input part of `cube` lie inside
    /// `ON(o) ∪ DC(o)`?
    fn admits(&self, cube: &Cube, o: usize) -> bool {
        match self {
            Self::Bits { on_dc, .. } => InputPart::of(cube).inside(&on_dc[o]),
            Self::Covers { on_dc, .. } => cover_contains_input_cube(&on_dc[o], cube),
        }
    }

    /// Starts a pass of IRREDUNDANT or REDUCE over `cubes`, indexed in
    /// order, all live.
    fn load<'a>(&mut self, cubes: impl Iterator<Item = &'a Cube>) {
        match self {
            Self::Bits { counts, .. } => counts.load(cubes),
            Self::Covers { parts, .. } => *parts = cubes.map(Cube::input_part).collect(),
        }
    }

    /// Cube `idx` no longer drives output `o` (IRREDUNDANT dropped it).
    fn drop_output(&mut self, idx: usize, o: usize) {
        if let Self::Bits { counts, .. } = self {
            let part = counts.parts[idx];
            counts.uncount(o, part, None);
        }
    }

    /// Cube `idx` shrank to `cube` (REDUCE).
    fn refresh(&mut self, idx: usize, cube: &Cube) {
        match self {
            Self::Bits { counts, .. } => {
                let (old, new) = (counts.parts[idx], InputPart::of(cube));
                for o in cube.outputs() {
                    counts.uncount(o, old, Some(new));
                }
                counts.parts[idx] = new;
            }
            Self::Covers { parts, .. } => parts[idx] = cube.input_part(),
        }
    }

    /// IRREDUNDANT's and REDUCE's `X(o)` for the cube they check: `DC(o)`
    /// plus the input parts of `others`, every other live cube driving
    /// `o`. The bitset form reads it off its counts, which hold exactly
    /// those cubes, and never walks `others`.
    fn rest(&self, o: usize, others: impl Iterator<Item = usize>) -> Region<'_> {
        match self {
            Self::Bits { counts, .. } => Region::Bits(counts.shared(o)),
            Self::Covers { dc, parts, .. } => {
                let mut cover = Cover::new(dc[o].num_inputs(), 1);
                for j in others {
                    cover.push(parts[j].clone());
                }
                for cube in dc[o].iter() {
                    cover.push(cube.clone());
                }
                Region::Cover(cover)
            }
        }
    }
}

impl Region<'_> {
    /// Whether the input part of `cube` lies inside this set.
    fn contains(&self, cube: &Cube) -> bool {
        match self {
            Self::Bits(set) => InputPart::of(cube).inside(set),
            Self::Cover(cover) => cover_contains_input_cube(cover, cube),
        }
    }
}

/// The bitset form's view of the cover a pass of IRREDUNDANT or REDUCE
/// works on. Per output `o` and minterm it counts the live cubes that
/// drive `o` and cover the minterm. A cube driving `o` then lies inside
/// `DC(o)` plus the *other* live cubes driving `o` exactly when every
/// minterm it covers outside `DC(o)` is counted at least twice, so the
/// question stays one word test against `shared(o)`: `DC(o)` plus the
/// minterms counted twice. Dropping a membership or shrinking a cube
/// takes one count off each minterm it gives up.
struct Counts {
    /// Words per minterm set.
    words: usize,
    /// `DC(o)` for every output, one set after another.
    dc: Vec<u64>,
    /// `DC(o)` plus the minterms counted at least twice, laid out as `dc`.
    shared: Vec<u64>,
    /// One count per bit of `shared`.
    count: Vec<u32>,
    /// The input part of every cube of the pass, in cover order.
    parts: Vec<InputPart>,
}

impl Counts {
    fn new(words: usize, dc: Vec<u64>) -> Self {
        Self {
            words,
            shared: dc.clone(),
            count: vec![0; dc.len() * 64],
            dc,
            parts: Vec::new(),
        }
    }

    fn load<'a>(&mut self, cubes: impl Iterator<Item = &'a Cube>) {
        self.count.fill(0);
        self.parts.clear();
        for cube in cubes {
            let part = InputPart::of(cube);
            let word = part.word();
            for o in cube.outputs() {
                for w in part.words(self.words) {
                    let at = (o * self.words + w) * 64;
                    for_each_bit(word, |b| self.count[at + b] += 1);
                }
            }
            self.parts.push(part);
        }
        for (at, shared) in self.shared.iter_mut().enumerate() {
            let counts = &self.count[at * 64..][..64];
            let twice = (0..64)
                .filter(|&b| counts[b] >= 2)
                .fold(0, |set, b| set | 1 << b);
            *shared = self.dc[at] | twice;
        }
    }

    fn shared(&self, o: usize) -> &[u64] {
        &self.shared[o * self.words..][..self.words]
    }

    /// Takes one count of output `o` off every minterm of `part` that
    /// `kept`, a part inside it, does not cover: off all of `part` when
    /// `kept` is `None`.
    fn uncount(&mut self, o: usize, part: InputPart, kept: Option<InputPart>) {
        let word = part.word();
        for w in part.words(self.words) {
            let at = o * self.words + w;
            let counts = &mut self.count[at * 64..][..64];
            let (shared, dc) = (&mut self.shared[at], self.dc[at]);
            let gone = word & !kept.map_or(0, |k| k.word_at(w));
            for_each_bit(gone, |b| {
                counts[b] -= 1;
                if counts[b] == 1 {
                    *shared &= !(1 << b) | dc;
                }
            });
        }
    }
}

/// Calls `f` with the index of every set bit of `bits`, lowest first.
fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// A cube's input part packed for the bitset form: bit `v` of `pos`
/// (`neg`) is set when input `v` appears as `x_v` (`x̄_v`).
///
/// Minterm `a` of a set is bit `a % 64` of word `a / 64`, so inputs 0–5
/// pick a bit inside a word and inputs 6 and up pick the word.
#[derive(Clone, Copy)]
struct InputPart {
    pos: u32,
    neg: u32,
}

/// Per input `v < 6`: the bits of a word whose minterms have `x_v = 1`.
const WORD_PATTERN: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl InputPart {
    /// Packs `cube`, which has at most 32 inputs.
    fn of(cube: &Cube) -> Self {
        let (pos, neg) = cube.low_literals();
        Self { pos, neg }
    }

    /// The part's minterms within each word it touches. Below 6 inputs the
    /// single word's spare bits repeat the real minterms (inputs that do
    /// not exist are never constrained), so they never change an answer.
    fn word(self) -> u64 {
        let mut word = u64::MAX;
        for (v, pattern) in WORD_PATTERN.into_iter().enumerate() {
            if self.pos >> v & 1 == 1 {
                word &= pattern;
            } else if self.neg >> v & 1 == 1 {
                word &= !pattern;
            }
        }
        word
    }

    /// Indices of the words the part touches among `count`: those whose
    /// bits agree with every literal on inputs 6 and up.
    fn words(self, count: usize) -> impl Iterator<Item = usize> {
        let fixed = ((self.pos | self.neg) >> 6) as usize;
        let ones = (self.pos >> 6) as usize;
        let free = (count - 1) & !fixed;
        // Every subset of `free`, in increasing order.
        let mut next = Some(0);
        std::iter::from_fn(move || {
            let subset = next?;
            next = (subset != free).then(|| subset.wrapping_sub(free) & free);
            Some(ones | subset)
        })
    }

    /// The part's minterms within word `w`: [`Self::word`] if the part
    /// touches it, none otherwise.
    fn word_at(self, w: usize) -> u64 {
        let fixed = ((self.pos | self.neg) >> 6) as usize;
        let ones = (self.pos >> 6) as usize;
        if (w ^ ones) & fixed == 0 {
            self.word()
        } else {
            0
        }
    }

    fn insert_into(self, set: &mut [u64]) {
        let word = self.word();
        for w in self.words(set.len()) {
            set[w] |= word;
        }
    }

    fn inside(self, set: &[u64]) -> bool {
        let word = self.word();
        self.words(set.len()).all(|w| word & !set[w] == 0)
    }
}

/// EXPAND: raise each cube maximally, then drop cubes contained in others.
fn expand(cover: &mut Cover, oracle: &Oracle, expand_outputs: bool) {
    // Process cubes from most specific (most literals) to least; expanded
    // large cubes then swallow the rest.
    let mut order: Vec<usize> = (0..cover.len()).collect();
    let counts: Vec<usize> = cover.iter().map(Cube::literal_count).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));

    let mut cubes: Vec<Option<Cube>> = cover.iter().cloned().map(Some).collect();
    for &idx in &order {
        let Some(mut cube) = cubes[idx].take() else {
            continue;
        };
        // Output expansion first: crossbar area is `(P+O)(2I+2O)`, so
        // sharing a product row across outputs (reducing P) beats raising
        // literals (which only lowers IR). Raising literals first would
        // often block the sharing.
        if expand_outputs {
            raise_outputs(&mut cube, oracle);
        }
        // Then try clearing each literal, subject to every driven output.
        let literals: Vec<(usize, Phase)> = cube.literals().collect();
        for (var, phase) in literals {
            cube.clear_literal(var);
            if !cube.outputs().all(|o| oracle.admits(&cube, o)) {
                cube.set_literal(var, phase);
            }
        }
        // A raised input part may now fit additional outputs.
        if expand_outputs {
            raise_outputs(&mut cube, oracle);
        }
        // Swallow other cubes fully contained in the expanded cube.
        for other in cubes.iter_mut() {
            if let Some(c) = other {
                if cube.contains(c) {
                    *other = None;
                }
            }
        }
        cubes[idx] = Some(cube);
    }

    let ni = cover.num_inputs();
    let no = cover.num_outputs();
    *cover = Cover::from_cubes(ni, no, cubes.into_iter().flatten())
        .expect("dimensions preserved by expand");
}

/// Adds every output whose `ON ∪ DC` holds the cube's input part.
fn raise_outputs(cube: &mut Cube, oracle: &Oracle) {
    for o in 0..cube.num_outputs() {
        if !cube.output(o) && oracle.admits(cube, o) {
            cube.set_output(o, true);
        }
    }
}

/// IRREDUNDANT: remove cubes, or individual output memberships, that the
/// rest of the cover (plus DC) already covers.
fn irredundant(cover: &mut Cover, oracle: &mut Oracle) {
    // Drop the most specific (least useful) cubes first.
    let mut order: Vec<usize> = (0..cover.len()).collect();
    let counts: Vec<usize> = cover.iter().map(Cube::literal_count).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));

    // Input parts never change here, only output memberships.
    oracle.load(cover.iter());
    let mut cubes: Vec<Option<Cube>> = cover.iter().cloned().map(Some).collect();
    for &idx in &order {
        let Some(cube) = &cubes[idx] else {
            continue;
        };
        let mut kept = cube.clone();
        for o in cube.outputs() {
            // X(o): DC plus every other live cube driving o.
            let others = (0..cubes.len())
                .filter(|&j| j != idx && cubes[j].as_ref().is_some_and(|c| c.output(o)));
            if oracle.rest(o, others).contains(cube) {
                kept.set_output(o, false);
                oracle.drop_output(idx, o);
            }
        }
        if kept != *cube {
            cubes[idx] = (kept.output_count() > 0).then_some(kept);
        }
    }
    let ni = cover.num_inputs();
    let no = cover.num_outputs();
    *cover = Cover::from_cubes(ni, no, cubes.into_iter().flatten())
        .expect("dimensions preserved by irredundant");
}

/// REDUCE: shrink each cube to the smallest cube that still keeps the whole
/// cover covering the ON-set, giving the next EXPAND pass a different
/// starting point.
fn reduce(cover: &mut Cover, oracle: &mut Oracle) {
    let ni = cover.num_inputs();
    let no = cover.num_outputs();
    let mut cubes: Vec<Cube> = std::mem::replace(cover, Cover::new(ni, no))
        .into_iter()
        .collect();
    oracle.load(cubes.iter());
    for idx in 0..cubes.len() {
        // X(o) for every output the cube drives. Shrinking only sets
        // literals, so these sets hold while this cube shrinks.
        let rests: Vec<Region> = cubes[idx]
            .outputs()
            .map(|o| {
                oracle.rest(
                    o,
                    (0..cubes.len()).filter(|&j| j != idx && cubes[j].output(o)),
                )
            })
            .collect();
        let shrunk = &mut cubes[idx];
        for var in 0..ni {
            if !matches!(shrunk.var_state(var), VarState::DontCare) {
                continue;
            }
            for phase in [Phase::Positive, Phase::Negative] {
                // Restricting var to `phase` drops the half with var =
                // !phase; that is safe when the half lies inside every X(o).
                shrunk.set_literal(var, phase.inverted());
                if rests.iter().all(|rest| rest.contains(shrunk)) {
                    shrunk.set_literal(var, phase);
                    break;
                }
                shrunk.clear_literal(var);
            }
        }
        oracle.refresh(idx, &cubes[idx]);
    }
    *cover = Cover::from_cubes(ni, no, cubes).expect("dimensions preserved by reduce");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::cube;
    use crate::truth::TruthTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn minimize_default(on: &Cover) -> Cover {
        let dc = Cover::new(on.num_inputs(), on.num_outputs());
        minimize(on, &dc, MinimizeOptions::default())
    }

    #[test]
    fn merges_adjacent_minterms() {
        let on = Cover::from_cubes(
            3,
            1,
            [cube("000 1"), cube("001 1"), cube("010 1"), cube("011 1")],
        )
        .expect("dims");
        let min = minimize_default(&on);
        assert_eq!(min.len(), 1);
        assert_eq!(min.cubes()[0].literal_count(), 1);
        assert!(min.equivalent(&on));
    }

    #[test]
    fn preserves_function_exactly() {
        let table = TruthTable::from_fn(4, 1, |a| vec![(a * 7 + 3) % 5 < 2]).expect("small");
        let on = table.minterm_cover();
        let min = minimize_default(&on);
        assert!(
            table.matches_cover(&min),
            "minimized cover changed the function"
        );
        assert!(min.len() <= on.len());
    }

    #[test]
    fn multi_output_sharing_reduces_products() {
        // Both outputs contain the cube 11-; expand should share it.
        let on = Cover::from_cubes(3, 2, [cube("11- 10"), cube("11- 01"), cube("0-- 10")])
            .expect("dims");
        let min = minimize_default(&on);
        assert!(min.equivalent(&on));
        assert!(min.len() <= 2, "expected sharing, got {} cubes", min.len());
    }

    #[test]
    fn uses_dont_cares() {
        // ON = {00}, DC = {01, 10, 11}: minimal cover is the universe.
        let on = Cover::from_cubes(2, 1, [cube("00 1")]).expect("dims");
        let dc = Cover::from_cubes(2, 1, [cube("01 1"), cube("10 1"), cube("11 1")]).expect("dims");
        let min = minimize(&on, &dc, MinimizeOptions::default());
        assert_eq!(min.len(), 1);
        assert_eq!(min.cubes()[0].literal_count(), 0);
    }

    #[test]
    fn xor_is_not_collapsed() {
        let table = TruthTable::from_fn(3, 1, |a| vec![a.count_ones() % 2 == 1]).expect("small");
        let on = table.minterm_cover();
        let min = minimize_default(&on);
        // Parity has no mergeable minterms.
        assert_eq!(min.len(), 4);
        assert!(table.matches_cover(&min));
    }

    #[test]
    fn irredundant_removes_absorbed_cube() {
        let on =
            Cover::from_cubes(3, 1, [cube("1-- 1"), cube("-1- 1"), cube("11- 1")]).expect("dims");
        let min = minimize_default(&on);
        assert_eq!(min.len(), 2);
        assert!(min.equivalent(&on));
    }

    #[test]
    fn majority_of_three() {
        let table = TruthTable::from_fn(3, 1, |a| vec![a.count_ones() >= 2]).expect("small");
        let min = minimize_default(&table.minterm_cover());
        // Known minimum: ab + ac + bc.
        assert_eq!(min.len(), 3);
        assert_eq!(min.total_literals(), 6);
        assert!(table.matches_cover(&min));
    }

    /// A random cover: each input is a literal with probability
    /// `literal_p`, and each cube drives at least one output.
    fn random_cover(
        rng: &mut StdRng,
        inputs: usize,
        outputs: usize,
        cubes: usize,
        literal_p: f64,
    ) -> Cover {
        let mut cover = Cover::new(inputs, outputs);
        for _ in 0..cubes {
            let mut cube = Cube::universe(inputs, outputs);
            for var in 0..inputs {
                if rng.random_bool(literal_p) {
                    cube.set_literal(var, Phase::from_bool(rng.random_bool(0.5)));
                }
            }
            for o in 0..outputs {
                cube.set_output(o, rng.random_bool(0.5));
            }
            cube.set_output(rng.random_range(0..outputs), true);
            cover.push(cube);
        }
        cover
    }

    /// Whether `min` agrees with `on` on every minterm outside `dc`.
    fn agrees_outside_dc(on: &Cover, dc: &Cover, min: &Cover) -> bool {
        let [on, dc, min] = [on, dc, min].map(|c| TruthTable::from_cover(c).expect("small"));
        (0..1u64 << on.num_inputs()).all(|a| {
            (0..on.num_outputs()).all(|o| dc.value(a, o) || on.value(a, o) == min.value(a, o))
        })
    }

    /// A random ON cover over 1–12 inputs and 1–4 outputs, with a DC cover
    /// half of the time (empty otherwise).
    fn random_on_dc(rng: &mut StdRng) -> (Cover, Cover) {
        let inputs = rng.random_range(1..=12);
        let outputs = rng.random_range(1..=4);
        let literal_p = rng.random_range(0.2..0.9);
        let cubes = rng.random_range(1..=30);
        let on = random_cover(rng, inputs, outputs, cubes, literal_p);
        let dc = if rng.random_bool(0.5) {
            let cubes = rng.random_range(1..=4);
            random_cover(rng, inputs, outputs, cubes, literal_p)
        } else {
            Cover::new(inputs, outputs)
        };
        (on, dc)
    }

    /// REDUCE alone, on covers it can actually shrink: the next EXPAND
    /// would hide most minterms a faulty REDUCE drops.
    #[test]
    fn reduce_does_not_change_function() {
        let mut rng = StdRng::seed_from_u64(14);
        for case in 0..200 {
            let (on, dc) = random_on_dc(&mut rng);
            let [bits, covers] = [true, false].map(|bitsets| {
                let mut cover = on.clone();
                reduce(&mut cover, &mut Oracle::new(&on, &dc, bitsets));
                cover
            });
            assert_eq!(bits, covers, "case {case}, ON:\n{on}DC:\n{dc}");
            assert!(
                agrees_outside_dc(&on, &dc, &bits),
                "case {case}: REDUCE changed the function"
            );
        }
    }

    /// Both oracle forms decide the same exact predicate, so they must give
    /// the same cover, cube for cube and in order, under any options; and
    /// that cover must keep the function outside the DC set.
    #[test]
    fn bitset_and_tautology_oracles_minimize_identically() {
        let mut rng = StdRng::seed_from_u64(15);
        for case in 0..300 {
            let (on, dc) = random_on_dc(&mut rng);
            let options = MinimizeOptions {
                max_iterations: rng.random_range(0..=5),
                reduce: rng.random_bool(0.5),
                expand_outputs: rng.random_bool(0.5),
            };
            let min = minimize_with(&on, &dc, options, true);
            assert_eq!(
                min,
                minimize_with(&on, &dc, options, false),
                "case {case}, {options:?}, ON:\n{on}DC:\n{dc}"
            );
            assert!(
                agrees_outside_dc(&on, &dc, &min),
                "case {case}: minimized cover changed the function"
            );
        }
    }

    /// A dense random ON cover whose cubes overlap heavily: 40–120 cubes
    /// over 4–10 inputs and 1–8 outputs, with a DC cover half of the time.
    /// Below 6 inputs a minterm set is one word whose spare bits mirror
    /// the real minterms, and the counts cover those bits too.
    fn dense_on_dc(rng: &mut StdRng) -> (Cover, Cover) {
        let inputs = rng.random_range(4..=10);
        let outputs = rng.random_range(1..=8);
        let literal_p = rng.random_range(0.2..0.6);
        let cubes = rng.random_range(40..=120);
        let on = random_cover(rng, inputs, outputs, cubes, literal_p);
        let dc = if rng.random_bool(0.5) {
            let cubes = rng.random_range(1..=8);
            random_cover(rng, inputs, outputs, cubes, literal_p)
        } else {
            Cover::new(inputs, outputs)
        };
        (on, dc)
    }

    /// The bitset form keeps IRREDUNDANT's and REDUCE's `X(o)` as counts
    /// that every dropped membership and every shrunk cube updates. On
    /// dense covers, where both passes drop and shrink many overlapping
    /// cubes, each pass alone and the whole minimization must equal the
    /// tautology form, cube for cube, and keep the function.
    #[test]
    fn bitset_counts_follow_dense_covers() {
        let mut rng = StdRng::seed_from_u64(17);
        let (mut dropped, mut shrunk) = (0, 0);
        for case in 0..40 {
            let (on, dc) = dense_on_dc(&mut rng);
            // Each pass on the raw cover, where the overlap gives it the
            // most work, then REDUCE after IRREDUNDANT on one oracle.
            let [bits, covers] = [true, false].map(|bitsets| {
                let mut oracle = Oracle::new(&on, &dc, bitsets);
                let [mut irredundant_cover, mut reduced] = [on.clone(), on.clone()];
                irredundant(&mut irredundant_cover, &mut oracle);
                reduce(&mut reduced, &mut oracle);
                let mut both = irredundant_cover.clone();
                reduce(&mut both, &mut oracle);
                [irredundant_cover, reduced, both]
            });
            assert_eq!(bits, covers, "case {case}, ON:\n{on}DC:\n{dc}");
            for cover in &bits {
                assert!(
                    agrees_outside_dc(&on, &dc, cover),
                    "case {case}: a pass changed the function"
                );
            }
            let [irredundant_cover, reduced, _] = bits;
            dropped += on.total_output_memberships() - irredundant_cover.total_output_memberships();
            shrunk += reduced.total_literals() - on.total_literals();

            let options = MinimizeOptions {
                max_iterations: rng.random_range(1..=4),
                reduce: true,
                expand_outputs: rng.random_bool(0.5),
            };
            let min = minimize_with(&on, &dc, options, true);
            assert_eq!(
                min,
                minimize_with(&on, &dc, options, false),
                "case {case}, {options:?}, ON:\n{on}DC:\n{dc}"
            );
            assert!(agrees_outside_dc(&on, &dc, &min), "case {case}");
        }
        // The counts were exercised, not merely loaded.
        assert!(
            dropped > 1000 && shrunk > 1000,
            "dropped {dropped}, shrunk {shrunk}"
        );
    }

    /// Just above the cutoff `minimize` answers through the tautology
    /// check; the function must survive that path too.
    #[test]
    fn wide_function_keeps_its_function() {
        let inputs = BITSET_MAX_INPUTS + 1;
        let mut rng = StdRng::seed_from_u64(16);
        let on = random_cover(&mut rng, inputs, 2, 24, 0.5);
        let min = minimize(&on, &Cover::new(inputs, 2), MinimizeOptions::default());
        let table = TruthTable::from_cover(&on).expect("fits a truth table");
        assert!(
            table.matches_cover(&min),
            "minimized cover changed the function"
        );
        assert!(min.len() <= on.len());
    }

    #[test]
    fn cost_ordering() {
        let a = CoverCost {
            cubes: 3,
            literals: 10,
            memberships: 3,
        };
        let b = CoverCost {
            cubes: 3,
            literals: 9,
            memberships: 9,
        };
        let c = CoverCost {
            cubes: 2,
            literals: 50,
            memberships: 9,
        };
        assert!(c < b && b < a);
    }
}
