//! Hopcroft–Karp maximum bipartite matching, in two forms:
//!
//! * [`hopcroft_karp`] over adjacency lists — the test oracle. The exact
//!   algorithm (EA) of the paper succeeds iff a perfect matching of
//!   function-matrix rows into compatible crossbar rows exists, which
//!   Hopcroft–Karp decides directly; `xbar_core::reference::mapping_feasible`
//!   decides it this way from dense compatibility probes;
//! * [`BitsetMatching`] over packed `u64` adjacency rows — the solver
//!   behind the mapping engine's EA, feasibility queries and HBA output
//!   stage. It returns the adjacency-list solver's matching pair for pair.

use crate::bits::{clear_bit, first_and, set_range};
use std::collections::VecDeque;

/// A bipartite graph between `left_count` left vertices and `right_count`
/// right vertices, stored as left-side adjacency lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    left_count: usize,
    right_count: usize,
    adjacency: Vec<Vec<usize>>,
}

impl BipartiteGraph {
    /// An edgeless graph.
    #[must_use]
    pub fn new(left_count: usize, right_count: usize) -> Self {
        Self {
            left_count,
            right_count,
            adjacency: vec![Vec::new(); left_count],
        }
    }

    /// Builds the graph from a predicate: an edge `(l, r)` exists when
    /// `compatible(l, r)` is true.
    #[must_use]
    pub fn from_fn(
        left_count: usize,
        right_count: usize,
        mut compatible: impl FnMut(usize, usize) -> bool,
    ) -> Self {
        let mut g = Self::new(left_count, right_count);
        for l in 0..left_count {
            for r in 0..right_count {
                if compatible(l, r) {
                    g.add_edge(l, r);
                }
            }
        }
        g
    }

    /// Adds edge `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range vertices.
    pub fn add_edge(&mut self, left: usize, right: usize) {
        assert!(left < self.left_count, "left vertex out of range");
        assert!(right < self.right_count, "right vertex out of range");
        self.adjacency[left].push(right);
    }

    /// Number of left vertices.
    #[must_use]
    pub fn left_count(&self) -> usize {
        self.left_count
    }

    /// Number of right vertices.
    #[must_use]
    pub fn right_count(&self) -> usize {
        self.right_count
    }

    /// Neighbors of a left vertex.
    #[must_use]
    pub fn neighbors(&self, left: usize) -> &[usize] {
        &self.adjacency[left]
    }
}

/// A maximum matching: `left_to_right[l]` is the right vertex matched to
/// `l`, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// Right partner of each left vertex.
    pub left_to_right: Vec<Option<usize>>,
    /// Left partner of each right vertex.
    pub right_to_left: Vec<Option<usize>>,
    /// Number of matched pairs.
    pub size: usize,
}

impl Matching {
    /// True when every left vertex is matched.
    #[must_use]
    pub fn is_perfect_on_left(&self) -> bool {
        self.size == self.left_to_right.len()
    }
}

const NIL: usize = usize::MAX;

/// Computes a maximum matching in `O(E √V)`.
///
/// # Examples
///
/// ```
/// use xbar_assign::{hopcroft_karp, BipartiteGraph};
///
/// let mut g = BipartiteGraph::new(2, 2);
/// g.add_edge(0, 0);
/// g.add_edge(0, 1);
/// g.add_edge(1, 0);
/// let m = hopcroft_karp(&g);
/// assert_eq!(m.size, 2);
/// assert!(m.is_perfect_on_left());
/// ```
#[must_use]
pub fn hopcroft_karp(graph: &BipartiteGraph) -> Matching {
    let n = graph.left_count;
    let mut match_left = vec![NIL; n];
    let mut match_right = vec![NIL; graph.right_count];
    let mut dist = vec![0u32; n];

    loop {
        // BFS layering from free left vertices.
        let mut queue = VecDeque::new();
        const UNREACHED: u32 = u32::MAX;
        let mut found_augmenting_layer = false;
        for l in 0..n {
            if match_left[l] == NIL {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = UNREACHED;
            }
        }
        while let Some(l) = queue.pop_front() {
            for &r in graph.neighbors(l) {
                let next = match_right[r];
                if next == NIL {
                    found_augmenting_layer = true;
                } else if dist[next] == UNREACHED {
                    dist[next] = dist[l] + 1;
                    queue.push_back(next);
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }
        // DFS augmentation along layered paths.
        fn try_augment(
            l: usize,
            graph: &BipartiteGraph,
            match_left: &mut [usize],
            match_right: &mut [usize],
            dist: &mut [u32],
        ) -> bool {
            for i in 0..graph.neighbors(l).len() {
                let r = graph.neighbors(l)[i];
                let next = match_right[r];
                let ok = if next == NIL {
                    true
                } else if dist[next] == dist[l] + 1 {
                    try_augment(next, graph, match_left, match_right, dist)
                } else {
                    false
                };
                if ok {
                    match_left[l] = r;
                    match_right[r] = l;
                    return true;
                }
            }
            dist[l] = u32::MAX;
            false
        }
        for l in 0..n {
            if match_left[l] == NIL {
                try_augment(l, graph, &mut match_left, &mut match_right, &mut dist);
            }
        }
    }

    let size = match_left.iter().filter(|&&r| r != NIL).count();
    Matching {
        left_to_right: match_left
            .into_iter()
            .map(|r| if r == NIL { None } else { Some(r) })
            .collect(),
        right_to_left: match_right
            .into_iter()
            .map(|l| if l == NIL { None } else { Some(l) })
            .collect(),
        size,
    }
}

/// Number of `u64` words a packed adjacency row over `right` vertices
/// occupies (at least one, matching `BitRow`'s layout). Alias of
/// [`crate::bits::words_for`], kept under the matching-flavoured name.
#[must_use]
pub fn adjacency_words(right: usize) -> usize {
    crate::bits::words_for(right)
}

/// Reusable scratch + result buffers for [`hopcroft_karp_bitset`]-style
/// matching over *packed* adjacency rows.
///
/// The adjacency is `left` rows of [`adjacency_words`]`(right)` words each,
/// bit `r` of a row marking an edge to right vertex `r` — exactly the
/// candidate bitsets the mapping engine precomputes. Repeated calls reuse
/// every buffer, so a Monte Carlo loop pays zero allocations per solve.
///
/// The matching is the one [`hopcroft_karp`] returns for the same edges
/// listed in increasing right order, pair for pair: the word masks below
/// only skip bits whose visit could change nothing.
#[derive(Debug, Clone, Default)]
pub struct BitsetMatching {
    match_left: Vec<usize>,
    match_right: Vec<usize>,
    dist: Vec<u32>,
    queue: Vec<usize>,
    /// Free (unmatched) rights. An augmenting path ends at a free right
    /// and re-matches the matched rights along it, so each augment clears
    /// exactly one bit.
    free: Vec<u64>,
    /// BFS word mask: matched rights whose left is still unlabeled. A
    /// matched right is cleared the moment its left gets a layer, so each
    /// is expanded at most once per phase, in the same order as a plain
    /// scan (the first encounter labels). Free rights are never walked:
    /// the BFS only needs to know whether a labeled row reaches one,
    /// which `row & free` answers a word at a time.
    bfs_live: Vec<u64>,
    /// DFS word mask: rights whose matched left has not been proven dead
    /// (`dist = UNREACHED` after a failed augment) this phase. Skipping a
    /// dead left's right elides probes the plain scan would fail anyway,
    /// so the augmenting paths found are identical.
    dfs_live: Vec<u64>,
    size: usize,
}

const UNREACHED: u32 = u32::MAX;

impl BitsetMatching {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes a maximum matching over the packed adjacency and returns
    /// its size. `adjacency` must hold `left * adjacency_words(right)`
    /// words.
    ///
    /// # Panics
    ///
    /// Panics when `adjacency` is shorter than `left` packed rows.
    pub fn run(&mut self, left: usize, right: usize, adjacency: &[u64]) -> usize {
        let words = adjacency_words(right);
        assert!(
            adjacency.len() >= left * words,
            "adjacency needs {left} rows of {words} words"
        );
        self.match_left.clear();
        self.match_left.resize(left, NIL);
        self.match_right.clear();
        self.match_right.resize(right, NIL);
        self.dist.clear();
        self.dist.resize(left, 0);
        self.free.clear();
        self.free.resize(words, 0);
        set_range(&mut self.free, right);

        // Greedy first fit, which is exactly the first phase: every left
        // starts it free at layer 0, so its DFS can take only a free right
        // directly, the first one in its row.
        for l in 0..left {
            if let Some(r) = first_and(&adjacency[l * words..(l + 1) * words], &self.free) {
                self.match_left[l] = r;
                self.match_right[r] = l;
                clear_bit(&mut self.free, r);
            }
        }

        loop {
            // BFS layering from free left vertices over the matched
            // rights; a labeled row that reaches a free right means an
            // augmenting path exists.
            self.queue.clear();
            self.bfs_live.clear();
            self.bfs_live.resize(words, 0);
            set_range(&mut self.bfs_live, right);
            for (live, &free) in self.bfs_live.iter_mut().zip(&self.free) {
                *live &= !free;
            }
            let mut found_augmenting_layer = false;
            for l in 0..left {
                if self.match_left[l] == NIL {
                    self.dist[l] = 0;
                    self.queue.push(l);
                } else {
                    self.dist[l] = UNREACHED;
                }
            }
            let mut head = 0;
            while head < self.queue.len() {
                let l = self.queue[head];
                head += 1;
                let row = &adjacency[l * words..(l + 1) * words];
                for (w, &bits) in row.iter().enumerate() {
                    found_augmenting_layer |= bits & self.free[w] != 0;
                    let mut x = bits & self.bfs_live[w];
                    while x != 0 {
                        let r = w * 64 + x.trailing_zeros() as usize;
                        x &= x - 1;
                        // First encounter of an unlabeled left — its only
                        // in-edge is this right, so clearing the bit is
                        // exact, not heuristic.
                        let next = self.match_right[r];
                        self.dist[next] = self.dist[l] + 1;
                        self.queue.push(next);
                        clear_bit(&mut self.bfs_live, r);
                    }
                }
            }
            if !found_augmenting_layer {
                break;
            }
            // DFS augmentation along layered paths. `dfs_live` drops the
            // matched right of every left proven dead this phase.
            self.dfs_live.clear();
            self.dfs_live.resize(words, 0);
            set_range(&mut self.dfs_live, right);
            for l in 0..left {
                if self.match_left[l] == NIL {
                    self.augment(l, words, adjacency);
                }
            }
        }

        self.size = self.match_left.iter().filter(|&&r| r != NIL).count();
        self.size
    }

    /// Size of the most recent matching.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Right partner of each left vertex after [`BitsetMatching::run`]
    /// (`usize::MAX` = unmatched).
    #[must_use]
    pub fn left_to_right(&self) -> &[usize] {
        &self.match_left
    }

    /// Left partner of each right vertex after [`BitsetMatching::run`]
    /// (`usize::MAX` = unmatched).
    #[must_use]
    pub fn right_to_left(&self) -> &[usize] {
        &self.match_right
    }

    /// One layered DFS from left `l`; on success, flips the path and
    /// clears the free right it ends at.
    fn augment(&mut self, l: usize, words: usize, adjacency: &[u64]) -> bool {
        for w in 0..words {
            // `dfs_live` may lose bits during recursion; the stale snapshot
            // in `x` only costs a probe that fails the `dist` check,
            // exactly as the unmasked scan would.
            let mut x = adjacency[l * words + w] & self.dfs_live[w];
            while x != 0 {
                let r = w * 64 + x.trailing_zeros() as usize;
                x &= x - 1;
                let next = self.match_right[r];
                let ok = if next == NIL {
                    clear_bit(&mut self.free, r);
                    true
                } else if self.dist[next] == self.dist[l] + 1 {
                    self.augment(next, words, adjacency)
                } else {
                    false
                };
                if ok {
                    self.match_left[l] = r;
                    self.match_right[r] = l;
                    return true;
                }
            }
        }
        self.dist[l] = UNREACHED;
        // A dead left can only be entered through its matched right; skip
        // it for the rest of the phase.
        if self.match_left[l] != NIL {
            clear_bit(&mut self.dfs_live, self.match_left[l]);
        }
        false
    }
}

/// One-shot bitset Hopcroft–Karp over a packed adjacency (see
/// [`BitsetMatching`] for the layout), returning the same [`Matching`] type
/// as the adjacency-list solver.
///
/// # Examples
///
/// ```
/// use xbar_assign::hopcroft_karp_bitset;
///
/// // l0-{r0,r1}, l1-{r0}: the greedy l0→r0 must be undone.
/// let adjacency = [0b11u64, 0b01u64];
/// let m = hopcroft_karp_bitset(2, 2, &adjacency);
/// assert_eq!(m.size, 2);
/// assert!(m.is_perfect_on_left());
/// ```
#[must_use]
pub fn hopcroft_karp_bitset(left: usize, right: usize, adjacency: &[u64]) -> Matching {
    let mut scratch = BitsetMatching::new();
    scratch.run(left, right, adjacency);
    Matching {
        left_to_right: scratch
            .match_left
            .iter()
            .map(|&r| if r == NIL { None } else { Some(r) })
            .collect(),
        right_to_left: scratch
            .match_right
            .iter()
            .map(|&l| if l == NIL { None } else { Some(l) })
            .collect(),
        size: scratch.size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching_on_identity() {
        let g = BipartiteGraph::from_fn(4, 4, |l, r| l == r);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size, 4);
        for l in 0..4 {
            assert_eq!(m.left_to_right[l], Some(l));
        }
    }

    #[test]
    fn bottleneck_limits_matching() {
        // All three left vertices only reach right vertex 0.
        let g = BipartiteGraph::from_fn(3, 3, |_, r| r == 0);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size, 1);
        assert!(!m.is_perfect_on_left());
    }

    #[test]
    fn augmenting_path_is_found() {
        // l0-{r0,r1}, l1-{r0}: greedy l0→r0 must be undone.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size, 2);
        assert_eq!(m.left_to_right[1], Some(0));
        assert_eq!(m.left_to_right[0], Some(1));
    }

    #[test]
    fn empty_graph() {
        let m = hopcroft_karp(&BipartiteGraph::new(3, 3));
        assert_eq!(m.size, 0);
    }

    #[test]
    fn rectangular_graph() {
        let g = BipartiteGraph::from_fn(2, 5, |l, r| r == l + 3);
        let m = hopcroft_karp(&g);
        assert_eq!(m.size, 2);
        assert_eq!(m.right_to_left[3], Some(0));
        assert_eq!(m.right_to_left[4], Some(1));
    }

    #[test]
    fn matching_consistency() {
        let g = BipartiteGraph::from_fn(6, 6, |l, r| (l + r) % 3 != 0);
        let m = hopcroft_karp(&g);
        for (l, &r) in m.left_to_right.iter().enumerate() {
            if let Some(r) = r {
                assert_eq!(m.right_to_left[r], Some(l));
            }
        }
    }

    /// Packs a predicate into adjacency words and a `BipartiteGraph` at
    /// once.
    fn packed_and_dense(
        left: usize,
        right: usize,
        mut edge: impl FnMut(usize, usize) -> bool,
    ) -> (Vec<u64>, BipartiteGraph) {
        let words = adjacency_words(right);
        let mut adjacency = vec![0u64; left * words];
        let mut g = BipartiteGraph::new(left, right);
        for l in 0..left {
            for r in 0..right {
                if edge(l, r) {
                    adjacency[l * words + r / 64] |= 1 << (r % 64);
                    g.add_edge(l, r);
                }
            }
        }
        (adjacency, g)
    }

    /// The bitset solver returns the adjacency-list solver's matching,
    /// pair for pair, not just one of the same size: on small graphs and on
    /// graphs up to 264 rights (five words), at densities from 5% to 95%.
    #[test]
    fn bitset_variant_returns_the_dense_matching_on_random_graphs() {
        let mut state = 0xB17_5E7_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = BitsetMatching::new();
        for round in 0..1000 {
            let right = if round % 4 == 0 {
                1 + (next() % 264) as usize
            } else {
                1 + (next() % 12) as usize
            };
            let left = 1 + (next() % right as u64) as usize;
            let density = 5 + next() % 91;
            let (adjacency, g) = packed_and_dense(left, right, |_, _| next() % 100 < density);
            let dense = hopcroft_karp(&g);
            let label = format!("round {round}: left {left}, right {right}, density {density}%");
            assert_eq!(
                hopcroft_karp_bitset(left, right, &adjacency),
                dense,
                "{label}"
            );
            assert_eq!(scratch.run(left, right, &adjacency), dense.size, "{label}");
            let unwrap = |v: &[usize]| -> Vec<Option<usize>> {
                v.iter().map(|&x| (x != NIL).then_some(x)).collect()
            };
            assert_eq!(
                unwrap(scratch.left_to_right()),
                dense.left_to_right,
                "{label}"
            );
            assert_eq!(
                unwrap(scratch.right_to_left()),
                dense.right_to_left,
                "{label}"
            );
        }
    }

    #[test]
    fn bitset_scratch_reuse_shrinks_and_grows() {
        let mut scratch = BitsetMatching::new();
        let (big, _) = packed_and_dense(100, 130, |l, r| l == r);
        assert_eq!(scratch.run(100, 130, &big), 100);
        let (small, _) = packed_and_dense(2, 2, |l, r| l == r);
        assert_eq!(scratch.run(2, 2, &small), 2);
        assert_eq!(scratch.left_to_right(), &[0, 1]);
        assert_eq!(scratch.right_to_left(), &[0, 1]);
        assert_eq!(scratch.size(), 2);
    }

    #[test]
    fn bitset_empty_cases() {
        assert_eq!(hopcroft_karp_bitset(0, 0, &[]).size, 0);
        let adjacency = [0u64; 3];
        assert_eq!(hopcroft_karp_bitset(3, 3, &adjacency).size, 0);
    }
}
