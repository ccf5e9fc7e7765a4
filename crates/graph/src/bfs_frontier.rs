//! Level-synchronous, direction-optimizing multi-source BFS over bitset
//! frontiers — the one multi-source reach traversal of the workspace.
//!
//! A queue-based BFS ([`crate::bfs::BfsScratch`], which serves distance
//! balls) pays a per-node queue push/pop and a per-edge distance check.
//! The matching fixpoints, however, only ever ask a *set* question —
//! "which nodes have a non-empty ≤`b` path to this seed set?" — so the
//! traversal state can itself be sets: each BFS level is a [`BitSet`]
//! frontier, expanded level-by-level until `depth` levels have been swept
//! or the frontier empties.
//!
//! Two expansion strategies are chosen per level by estimated cost (the
//! classic direction-optimizing BFS of Beamer et al.):
//!
//! * **top-down** — iterate the frontier's members and scan their adjacency,
//!   the right shape while the frontier is sparse;
//! * **bottom-up** — sweep the *candidates* (nodes not yet in `out`,
//!   word-at-a-time, whole zero words skipped) and keep each one whose
//!   reverse adjacency touches the frontier, with early exit on the first
//!   hit — far cheaper once the frontier covers a large fraction of the
//!   graph, which multi-seed reach queries hit almost immediately.
//!
//! Both strategies produce identical visited sets, so the choice never
//! changes results (property-tested against the walk-set definition of
//! reach in `tests/substrate_properties.rs`).
//!
//! The traversal optionally takes an `allowed` set and then never visits,
//! inserts or expands a node outside it. Bounded simulation uses this for
//! **refresh memoization**: reach sets only shrink during refinement, so a
//! re-refresh may be restricted to the previously computed reach set — any
//! node on a still-valid path is itself still reachable, hence inside the
//! old reach set (see `expfinder-core`'s `EvalScratch`).

use crate::bfs::Direction;
use crate::bitset::BitSet;
use crate::cancel::CancelToken;
use crate::view::GraphView;
use crate::NodeId;

/// Reusable frontier-BFS state. Each frontier is kept in a **hybrid**
/// representation — a bitset (O(1) membership for bottom-up probes) plus
/// a member vector (O(|frontier|) iteration and clearing) — so the
/// per-level cost of a sparse level is proportional to the frontier, not
/// to `|V|/64` words. On a high-diameter traversal (a chain under an
/// unbounded bound is the worst case: |V| levels of one node each) a
/// per-level word sweep would turn the linear BFS quadratic.
#[derive(Clone, Debug, Default)]
pub struct FrontierScratch {
    visited: BitSet,
    frontier: BitSet,
    frontier_vec: Vec<NodeId>,
    next: BitSet,
    next_vec: Vec<NodeId>,
    /// Every node the last traversal marked in `visited` (seeds
    /// included), in visit order — enables the sparse reset below.
    touched: Vec<NodeId>,
}

impl FrontierScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch sized for traversals over `nodes` nodes that may touch
    /// all of them, so that none of its buffers grows mid-traversal.
    pub fn with_capacity(nodes: usize) -> Self {
        FrontierScratch {
            visited: BitSet::new(nodes),
            frontier: BitSet::new(nodes),
            frontier_vec: Vec::with_capacity(nodes),
            next: BitSet::new(nodes),
            next_vec: Vec::with_capacity(nodes),
            touched: Vec::with_capacity(nodes),
        }
    }

    /// Heap bytes the scratch keeps between traversals: three bitsets,
    /// and three member lists of up to `|V|` ids each (`touched` reaches
    /// `|V|` whenever a traversal covers the graph).
    pub fn retained_bytes(&self) -> usize {
        let sets = [&self.visited, &self.frontier, &self.next];
        let lists = [&self.frontier_vec, &self.next_vec, &self.touched];
        sets.iter().map(|s| s.words().len() * 8).sum::<usize>()
            + lists.iter().map(|l| l.capacity()).sum::<usize>() * std::mem::size_of::<NodeId>()
    }

    /// Make the scratch usable for graphs with `n` nodes.
    ///
    /// When the previous traversal touched only a small fraction of the
    /// graph, its marks are removed member-by-member via `touched` in
    /// `O(|touched|)` instead of zeroing whole bitsets in `O(|V|/64)` —
    /// so a scratch reused for many *small* traversals over a big graph
    /// (the fixpoint's memoized re-refreshes) pays for what it visited,
    /// not for the graph.
    fn ensure(&mut self, n: usize) {
        if self.visited.capacity() != n {
            self.visited = BitSet::new(n);
            self.frontier = BitSet::new(n);
            self.next = BitSet::new(n);
        } else if self.touched.len() < self.visited.words().len() {
            // sparse reset: the previous run marked exactly `touched` in
            // `visited`, the final frontier is a subset of it, and `next`
            // was emptied level-by-level during the traversal
            for &v in &self.touched {
                self.visited.remove(v);
                self.frontier.remove(v);
            }
            debug_assert!(self.visited.is_empty());
            debug_assert!(self.frontier.is_empty());
            debug_assert!(self.next.is_empty());
        } else {
            self.visited.clear();
            self.frontier.clear();
            self.next.clear();
        }
        self.frontier_vec.clear();
        self.next_vec.clear();
        self.touched.clear();
    }

    /// Multi-source bounded reach with the *non-empty path* semantics of
    /// bounded simulation: writes into `out` every node that has a path of
    /// length `1..=depth` (in direction `dir`, seen from the seeds) to
    /// some seed. `depth == u32::MAX` means unbounded.
    ///
    /// With `dir == Backward` this answers "which `v` can reach a seed
    /// within `depth` hops along forward edges?" (the traversal itself
    /// walks in-edges from the seeds). Seeds are *not* automatically
    /// members of `out`; a seed appears only if it has a genuine
    /// ≥1-length path to a seed (e.g. around a cycle), exactly the
    /// paper's "nonempty path ρ" requirement.
    ///
    /// With `allowed = Some(set)`, the traversal is restricted to that
    /// set: nodes outside it are never inserted into `out` nor expanded.
    /// This is only sound when `allowed` is known to be a superset of the
    /// true answer (every node on a qualifying path has a qualifying
    /// suffix path, so it lies in the answer itself) — the refresh-
    /// memoization invariant of the matching fixpoint.
    ///
    /// With `cancel`, the token is polled at every level boundary. When it
    /// fires the traversal stops early and returns the work done so far —
    /// `out` is then **torn** (a subset of the true answer) and the caller
    /// must discard it; the fixpoints do so by surfacing the cancellation
    /// before `out` is ever intersected into a match set.
    ///
    /// Returns the number of nodes marked visited (seeds included) — the
    /// traversal-work measure `EvalStats::bfs_nodes_visited` aggregates.
    #[allow(clippy::too_many_arguments)]
    pub fn multi_source_within<G: GraphView>(
        &mut self,
        g: &G,
        seeds: &BitSet,
        depth: u32,
        dir: Direction,
        allowed: Option<&BitSet>,
        cancel: Option<&CancelToken>,
        out: &mut BitSet,
    ) -> usize {
        self.traverse(g, seeds, depth, dir, allowed, cancel, out, None)
    }

    /// The traversal behind every public entry point. With `levels`, each
    /// node's shortest non-empty path length is written to
    /// `levels[node]` as it enters `out` (the level it is found at);
    /// nothing else of `levels` is touched, and `depth` must then fit a
    /// `u8`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn traverse<G: GraphView>(
        &mut self,
        g: &G,
        seeds: &BitSet,
        depth: u32,
        dir: Direction,
        allowed: Option<&BitSet>,
        cancel: Option<&CancelToken>,
        out: &mut BitSet,
        mut levels: Option<&mut [u8]>,
    ) -> usize {
        debug_assert!(levels.is_none() || depth <= u8::MAX as u32);
        out.clear();
        if depth == 0 || seeds.is_empty() {
            return 0;
        }
        let n = g.node_count();
        self.ensure(n);
        self.visited.union_with(seeds);
        self.frontier.union_with(seeds);
        self.frontier_vec.extend(seeds.iter());
        self.touched.extend_from_slice(&self.frontier_vec);
        let mut visited_count = seeds.count();

        let avg_deg = (g.edge_count() / n.max(1)).max(1);
        let rev = dir.opposite();
        let mut level = 0u32;
        while level < depth && !self.frontier_vec.is_empty() {
            // Frontier-round cancellation boundary: a level sweep is the
            // unit of abandonment. On fire, `out` stays torn — callers
            // discard it.
            if cancel.is_some_and(|c| c.is_cancelled()) {
                break;
            }
            // Cost estimate: top-down scans ~frontier × avg_deg edges;
            // bottom-up scans the remaining candidates with early exit.
            let candidates = match allowed {
                Some(a) => a.count().saturating_sub(out.count()),
                None => n - out.count(),
            };
            let top_down = self.frontier_vec.len().saturating_mul(avg_deg) <= candidates;
            // the path length of the nodes this level adds to `out`; read
            // only with `levels`, whose `depth` fits a `u8`
            let found_at = (level + 1) as u8;
            if top_down {
                for &u in &self.frontier_vec {
                    for &w in dir.neighbors(g, u) {
                        if allowed.is_some_and(|a| !a.contains(w)) {
                            continue;
                        }
                        if out.insert(w) {
                            if let Some(levels) = levels.as_deref_mut() {
                                levels[w.index()] = found_at;
                            }
                        }
                        if self.visited.insert(w) {
                            visited_count += 1;
                            self.next.insert(w);
                            self.next_vec.push(w);
                            self.touched.push(w);
                        }
                    }
                }
            } else {
                // Bottom-up: sweep candidate words (nodes not yet in
                // `out`, masked by `allowed`), keeping each candidate with
                // an edge from the frontier. Seeds not yet re-reached are
                // deliberately candidates: a seed enters `out` only via a
                // genuine ≥1-length path (e.g. around a cycle). The word
                // sweeps here are fine: this branch only runs on dense
                // levels, where the frontier itself is O(|V|).
                let out_words = out.words();
                let tail = n % 64;
                for wi in 0..out_words.len() {
                    let mut cand = !out_words[wi];
                    if let Some(a) = allowed {
                        cand &= a.words()[wi];
                    } else if wi == out_words.len() - 1 && tail != 0 {
                        cand &= (1u64 << tail) - 1;
                    }
                    while cand != 0 {
                        let bit = cand.trailing_zeros() as usize;
                        cand &= cand - 1;
                        let w = NodeId((wi * 64 + bit) as u32);
                        if rev
                            .neighbors(g, w)
                            .iter()
                            .any(|&p| self.frontier.contains(p))
                        {
                            self.next.insert(w);
                        }
                    }
                }
                // `out` could not be updated during the sweep (it defines
                // the candidate set being swept); fold in the discoveries
                // and split off the genuinely new nodes word-parallel.
                if let Some(levels) = levels.as_deref_mut() {
                    for w in self.next.iter() {
                        levels[w.index()] = found_at;
                    }
                }
                out.union_with(&self.next);
                self.next.subtract(&self.visited);
                visited_count += self.next.count();
                self.visited.union_with(&self.next);
                self.next_vec.extend(self.next.iter());
                self.touched.extend_from_slice(&self.next_vec);
            }
            // advance: the hybrid swap, then empty the new `next` (= the
            // just-expanded frontier) bit-by-bit via its member vector —
            // O(|frontier|), never a whole-bitset clear per level
            std::mem::swap(&mut self.frontier, &mut self.next);
            std::mem::swap(&mut self.frontier_vec, &mut self.next_vec);
            for &v in &self.next_vec {
                self.next.remove(v);
            }
            self.next_vec.clear();
            level = level.saturating_add(1);
        }
        visited_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::walk_reach;
    use crate::DiGraph;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Chain 0 → 1 → 2 → 3 → 4 plus a back edge 4 → 0.
    fn ring5() -> DiGraph {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node("x", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g.add_edge(ids[4], ids[0]);
        g
    }

    /// A chain `0 → 1 → … → len-1`.
    fn chain(len: u32) -> DiGraph {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..len).map(|_| g.add_node("x", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    fn seed_set(n: usize, members: &[u32]) -> BitSet {
        let mut s = BitSet::new(n);
        for &v in members {
            s.insert(NodeId(v));
        }
        s
    }

    /// The frontier BFS's answer next to [`walk_reach`]'s.
    fn both(g: &DiGraph, seeds: &BitSet, depth: u32, dir: Direction) -> (BitSet, BitSet) {
        let (want, want_visited) = walk_reach(g, seeds, depth, dir);
        let mut frontier = FrontierScratch::new();
        let mut b = BitSet::new(g.node_count());
        let vb = frontier.multi_source_within(g, seeds, depth, dir, None, None, &mut b);
        assert_eq!(want_visited, vb, "visited-work measure agrees");
        (want, b)
    }

    #[test]
    fn nonempty_path_semantics() {
        // 0 → 1 → 2, seeds = {2}: within depth 2, {0, 1} qualify; 2 itself
        // does not (no non-empty path back to a seed)
        let g = chain(3);
        let (want, got) = both(&g, &seed_set(3, &[2]), 2, Direction::Backward);
        assert_eq!(got, want);
        assert_eq!(got.to_vec(), vec![n(0), n(1)]);
    }

    #[test]
    fn seed_on_cycle_is_included_only_within_the_cycle_length() {
        // 0 → 1 → 0: seed {0} has a 2-step path back to itself
        let mut g = chain(2);
        g.add_edge(n(1), n(0));
        let seeds = seed_set(2, &[0]);
        let (_, got) = both(&g, &seeds, 2, Direction::Backward);
        assert_eq!(got.to_vec(), vec![n(0), n(1)], "seed reachable via cycle");
        // with depth 1 only the direct predecessor qualifies
        let (_, got) = both(&g, &seeds, 1, Direction::Backward);
        assert_eq!(got.to_vec(), vec![n(1)]);
    }

    #[test]
    fn depth_is_respected_exactly_in_both_directions() {
        // chain 0→1→2→3→4: seed {4} backward within 3 is {1,2,3}, not 0;
        // seed {0} forward within 1 is {1}
        let g = chain(5);
        let (_, got) = both(&g, &seed_set(5, &[4]), 3, Direction::Backward);
        assert_eq!(got.to_vec(), vec![n(1), n(2), n(3)]);
        let (_, got) = both(&g, &seed_set(5, &[0]), 1, Direction::Forward);
        assert_eq!(got.to_vec(), vec![n(1)]);
    }

    #[test]
    fn agrees_with_walk_reach_on_ring() {
        let g = ring5();
        for depth in [0u32, 1, 2, 3, u32::MAX] {
            for dir in [Direction::Forward, Direction::Backward] {
                for seed in 0..5u32 {
                    let mut seeds = BitSet::new(5);
                    seeds.insert(n(seed));
                    let (a, b) = both(&g, &seeds, depth, dir);
                    assert_eq!(a, b, "seed {seed} depth {depth} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn dense_seed_set_takes_bottom_up() {
        // every node seeded: level 1 frontier is the whole graph, which
        // forces the bottom-up branch; results must still match the oracle
        let g = ring5();
        let seeds = BitSet::full(5);
        let (a, b) = both(&g, &seeds, 3, Direction::Backward);
        assert_eq!(a, b);
        assert_eq!(a.count(), 5, "ring: everything re-reaches a seed");
    }

    #[test]
    fn restriction_to_superset_is_exact() {
        let g = ring5();
        let mut seeds = BitSet::new(5);
        seeds.insert(n(0));
        let mut s = FrontierScratch::new();
        let mut full = BitSet::new(5);
        s.multi_source_within(&g, &seeds, 3, Direction::Backward, None, None, &mut full);
        // shrink the seed set? here: same seeds, restricted to the old
        // reach set — the memoization shape — must reproduce the answer
        let mut restricted = BitSet::new(5);
        let visited = s.multi_source_within(
            &g,
            &seeds,
            3,
            Direction::Backward,
            Some(&full),
            None,
            &mut restricted,
        );
        assert_eq!(restricted, full);
        assert!(visited <= 5);
    }

    #[test]
    fn empty_seeds_and_zero_depth() {
        let g = ring5();
        let mut s = FrontierScratch::new();
        let mut out = BitSet::full(5); // stale content must be cleared
        assert_eq!(
            s.multi_source_within(
                &g,
                &BitSet::new(5),
                2,
                Direction::Forward,
                None,
                None,
                &mut out
            ),
            0
        );
        assert!(out.is_empty());
        let seeds = BitSet::full(5);
        assert_eq!(
            s.multi_source_within(&g, &seeds, 0, Direction::Forward, None, None, &mut out),
            0
        );
        assert!(out.is_empty());
    }

    #[test]
    fn unbounded_chain_costs_frontier_not_words_per_level() {
        // 60k-node chain under an unbounded bound: 60k levels of one
        // node each. Per-level work must track the frontier (hybrid
        // vec), not the bitset width — a word sweep per level would be
        // ~10⁹ operations and time this test out.
        let n = 60_000u32;
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node("x", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let mut seeds = BitSet::new(n as usize);
        seeds.insert(ids[(n - 1) as usize]);
        let mut s = FrontierScratch::new();
        let mut out = BitSet::new(n as usize);
        let visited = s.multi_source_within(
            &g,
            &seeds,
            u32::MAX,
            Direction::Backward,
            None,
            None,
            &mut out,
        );
        assert_eq!(out.count(), (n - 1) as usize, "everything reaches the tail");
        assert!(
            !out.contains(ids[(n - 1) as usize]),
            "no cycle back to seed"
        );
        assert_eq!(visited, n as usize);
    }

    #[test]
    fn sparse_reset_leaves_no_stale_marks() {
        // big graph, tiny traversals: reuse takes the sparse-reset path
        // (touched ≪ words), and every run must still start clean
        let n = 10_000u32;
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node("x", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let mut s = FrontierScratch::new();
        let mut out = BitSet::new(n as usize);
        for &(seed, depth) in &[(5000u32, 3u32), (100, 2), (5001, 4), (9999, 1), (0, 5)] {
            let mut seeds = BitSet::new(n as usize);
            seeds.insert(ids[seed as usize]);
            let va =
                s.multi_source_within(&g, &seeds, depth, Direction::Backward, None, None, &mut out);
            let (want, vb) = walk_reach(&g, &seeds, depth, Direction::Backward);
            assert_eq!(out, want, "seed {seed} depth {depth}");
            assert_eq!(va, vb, "work measure, seed {seed}");
        }
    }

    #[test]
    fn cancelled_token_stops_at_the_first_level_boundary() {
        let nn = 1_000u32;
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..nn).map(|_| g.add_node("x", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let mut seeds = BitSet::new(nn as usize);
        seeds.insert(ids[(nn - 1) as usize]);
        let token = CancelToken::new();
        token.cancel();
        let mut s = FrontierScratch::new();
        let mut out = BitSet::new(nn as usize);
        let visited = s.multi_source_within(
            &g,
            &seeds,
            u32::MAX,
            Direction::Backward,
            None,
            Some(&token),
            &mut out,
        );
        assert_eq!(visited, 1, "only the seed was marked before the abort");
        assert!(out.is_empty(), "no level was expanded");
        // a disarmed token changes nothing
        let calm = CancelToken::new();
        let full = s.multi_source_within(
            &g,
            &seeds,
            u32::MAX,
            Direction::Backward,
            None,
            Some(&calm),
            &mut out,
        );
        assert_eq!(full, nn as usize);
        assert_eq!(calm.checks(), 0, "disarmed polls are uncounted");
    }

    #[test]
    fn scratch_reuse_across_graph_sizes() {
        let small = ring5();
        let mut big = DiGraph::new();
        let ids: Vec<_> = (0..130).map(|_| big.add_node("x", [])).collect();
        for w in ids.windows(2) {
            big.add_edge(w[0], w[1]);
        }
        let mut s = FrontierScratch::new();
        let mut seeds = BitSet::new(130);
        seeds.insert(ids[129]);
        let mut out = BitSet::new(130);
        s.multi_source_within(
            &big,
            &seeds,
            u32::MAX,
            Direction::Backward,
            None,
            None,
            &mut out,
        );
        assert_eq!(out.count(), 129, "whole chain reaches the tail");
        // shrink back down: capacity mismatch must reset cleanly
        let mut seeds5 = BitSet::new(5);
        seeds5.insert(n(4));
        let mut out5 = BitSet::new(5);
        s.multi_source_within(
            &small,
            &seeds5,
            1,
            Direction::Backward,
            None,
            None,
            &mut out5,
        );
        assert_eq!(out5.to_vec(), vec![n(3)]);
    }
}
