//! Bounded breadth-first traversals with reusable scratch space.
//!
//! Bounded simulation evaluates pattern edges by asking "which nodes have a
//! non-empty path of length ≤ b to some node in this set?" — a multi-source
//! reverse BFS — and the result-graph builder asks for distance balls around
//! match nodes. Both run thousands of times per query, so the traversal
//! state (distance array, epoch marks, queue) lives in a [`BfsScratch`]
//! that is allocated once and reused; resetting costs O(1) via epochs.

use crate::bitset::BitSet;
use crate::view::GraphView;
use crate::NodeId;

/// Traversal direction: `Forward` follows out-edges, `Backward` in-edges.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    Forward,
    Backward,
}

impl Direction {
    /// The adjacency this direction traverses: out-edges for `Forward`,
    /// in-edges for `Backward`.
    #[inline]
    pub fn neighbors<G: GraphView>(self, g: &G, v: NodeId) -> &[NodeId] {
        match self {
            Direction::Forward => g.out_neighbors(v),
            Direction::Backward => g.in_neighbors(v),
        }
    }

    /// The opposite direction (used to test edges "into" a frontier).
    #[inline]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

/// Reusable BFS state. `dist[i]` is only meaningful when
/// `mark[i] == epoch`; bumping the epoch invalidates everything in O(1).
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    dist: Vec<u32>,
    mark: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
    touched: Vec<NodeId>,
}

impl BfsScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Make the scratch usable for graphs with `n` nodes.
    pub fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.mark.resize(n, 0);
        }
    }

    /// Heap bytes the scratch keeps between traversals.
    pub fn retained_bytes(&self) -> usize {
        let words = self.dist.capacity()
            + self.mark.capacity()
            + self.queue.capacity()
            + self.touched.capacity();
        words * 4
    }

    fn begin(&mut self, n: usize) {
        self.ensure(n);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // epoch wrapped: clear marks to avoid stale hits
            self.mark.iter_mut().for_each(|m| *m = u32::MAX);
            self.epoch = 1;
        }
        self.queue.clear();
        self.touched.clear();
    }

    #[inline]
    fn visit(&mut self, v: NodeId, d: u32) -> bool {
        let i = v.index();
        if self.mark[i] == self.epoch {
            return false;
        }
        self.mark[i] = self.epoch;
        self.dist[i] = d;
        self.touched.push(v);
        true
    }

    /// Single-source BFS up to `depth` hops. The returned [`Ball`] exposes
    /// every reached node (including the source at distance 0) and its
    /// shortest hop distance. `depth == u32::MAX` means unbounded.
    pub fn ball<'a, G: GraphView>(
        &'a mut self,
        g: &G,
        src: NodeId,
        depth: u32,
        dir: Direction,
    ) -> Ball<'a> {
        self.begin(g.node_count());
        self.visit(src, 0);
        self.queue.push(src);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let d = self.dist[u.index()];
            if d >= depth {
                continue;
            }
            for &w in dir.neighbors(g, u) {
                if self.visit(w, d + 1) {
                    self.queue.push(w);
                }
            }
        }
        Ball {
            touched: &self.touched,
            dist: &self.dist,
            mark: &self.mark,
            epoch: self.epoch,
        }
    }

    /// Multi-source bounded reach with the *non-empty path* semantics of
    /// bounded simulation: writes into `out` every node `v` that has a path
    /// of length `1..=depth` (in direction `dir`, seen from the seeds) to
    /// some seed.
    ///
    /// With `dir == Backward` this answers: "which `v` can reach a seed
    /// within `depth` hops along forward edges?" (the traversal itself walks
    /// in-edges from the seeds). Seeds are *not* automatically members of
    /// `out`; a seed appears only if it has a genuine ≥1-length path to a
    /// seed (e.g. around a cycle), exactly matching the paper's "nonempty
    /// path ρ" requirement.
    ///
    /// Returns the number of nodes marked visited (seeds included) — the
    /// traversal-work measure `EvalStats::bfs_nodes_visited` aggregates.
    pub fn multi_source_within<G: GraphView>(
        &mut self,
        g: &G,
        seeds: &BitSet,
        depth: u32,
        dir: Direction,
        out: &mut BitSet,
    ) -> usize {
        out.clear();
        if depth == 0 {
            return 0;
        }
        self.begin(g.node_count());
        for s in seeds.iter() {
            self.visit(s, 0);
            self.queue.push(s);
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let d = self.dist[u.index()];
            if d >= depth {
                continue;
            }
            for &w in dir.neighbors(g, u) {
                // w has a path of length d+1 ≥ 1 to a seed regardless of
                // whether BFS already visited it (possibly at distance 0 as
                // a seed itself) — that is what makes the non-empty-path
                // semantics exact.
                out.insert(w);
                if self.visit(w, d + 1) {
                    self.queue.push(w);
                }
            }
        }
        self.touched.len()
    }
}

/// Result view of a single-source BFS; borrows the scratch.
pub struct Ball<'a> {
    touched: &'a [NodeId],
    dist: &'a [u32],
    mark: &'a [u32],
    epoch: u32,
}

impl Ball<'_> {
    /// Nodes in visit (BFS) order, including the source.
    pub fn nodes(&self) -> &[NodeId] {
        self.touched
    }

    /// Iterate `(node, distance)` pairs in BFS order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.touched.iter().map(|&v| (v, self.dist[v.index()]))
    }

    /// Shortest hop distance to `v`, if `v` was reached.
    pub fn dist_of(&self, v: NodeId) -> Option<u32> {
        let i = v.index();
        (self.mark.get(i) == Some(&self.epoch)).then(|| self.dist[i])
    }

    /// Number of reached nodes (including the source).
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

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

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn forward_ball_bounded() {
        let g = ring5();
        let mut s = BfsScratch::new();
        let ball = s.ball(&g, n(0), 2, Direction::Forward);
        assert_eq!(ball.dist_of(n(0)), Some(0));
        assert_eq!(ball.dist_of(n(1)), Some(1));
        assert_eq!(ball.dist_of(n(2)), Some(2));
        assert_eq!(ball.dist_of(n(3)), None, "beyond depth");
        assert_eq!(ball.len(), 3);
    }

    #[test]
    fn backward_ball() {
        let g = ring5();
        let mut s = BfsScratch::new();
        let ball = s.ball(&g, n(0), 1, Direction::Backward);
        assert_eq!(ball.dist_of(n(4)), Some(1));
        assert_eq!(ball.dist_of(n(1)), None);
    }

    #[test]
    fn unbounded_ball_visits_cycle_once() {
        let g = ring5();
        let mut s = BfsScratch::new();
        let ball = s.ball(&g, n(2), u32::MAX, Direction::Forward);
        assert_eq!(ball.len(), 5);
        assert_eq!(ball.dist_of(n(1)), Some(4), "around the ring");
    }

    #[test]
    fn scratch_reuse_across_runs() {
        let g = ring5();
        let mut s = BfsScratch::new();
        {
            let ball = s.ball(&g, n(0), 4, Direction::Forward);
            assert_eq!(ball.dist_of(n(4)), Some(4));
        }
        // a second run must not see stale state
        let ball = s.ball(&g, n(3), 1, Direction::Forward);
        assert_eq!(ball.dist_of(n(4)), Some(1));
        assert_eq!(ball.dist_of(n(0)), None);
        assert_eq!(ball.len(), 2);
    }

    #[test]
    fn multi_source_nonempty_path_semantics() {
        // 0 → 1 → 2,  seeds = {2}: within depth 2, {0,1} qualify; 2 itself
        // does not (no non-empty path back to a seed).
        let mut g = DiGraph::new();
        let a = g.add_node("x", []);
        let b = g.add_node("x", []);
        let c = g.add_node("x", []);
        g.add_edge(a, b);
        g.add_edge(b, c);
        let mut seeds = BitSet::new(3);
        seeds.insert(c);
        let mut s = BfsScratch::new();
        let mut out = BitSet::new(3);
        s.multi_source_within(&g, &seeds, 2, Direction::Backward, &mut out);
        assert!(out.contains(a));
        assert!(out.contains(b));
        assert!(!out.contains(c));
    }

    #[test]
    fn multi_source_seed_on_cycle_included() {
        // 0 → 1 → 0: seed {0} has a 2-step path back to itself.
        let mut g = DiGraph::new();
        let a = g.add_node("x", []);
        let b = g.add_node("x", []);
        g.add_edge(a, b);
        g.add_edge(b, a);
        let mut seeds = BitSet::new(2);
        seeds.insert(a);
        let mut s = BfsScratch::new();
        let mut out = BitSet::new(2);
        s.multi_source_within(&g, &seeds, 2, Direction::Backward, &mut out);
        assert!(out.contains(a), "seed reachable from itself via cycle");
        assert!(out.contains(b));

        // with depth 1 only the direct predecessor qualifies
        s.multi_source_within(&g, &seeds, 1, Direction::Backward, &mut out);
        assert!(!out.contains(a));
        assert!(out.contains(b));
    }

    #[test]
    fn multi_source_depth_zero_is_empty() {
        let g = ring5();
        let seeds = BitSet::full(5);
        let mut s = BfsScratch::new();
        let mut out = BitSet::new(5);
        s.multi_source_within(&g, &seeds, 0, Direction::Backward, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_source_respects_depth_exactly() {
        // chain 0→1→2→3→4, seed {4}: depth 3 reaches {1,2,3}, not 0.
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node("x", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let mut seeds = BitSet::new(5);
        seeds.insert(ids[4]);
        let mut s = BfsScratch::new();
        let mut out = BitSet::new(5);
        s.multi_source_within(&g, &seeds, 3, Direction::Backward, &mut out);
        assert_eq!(out.to_vec(), vec![ids[1], ids[2], ids[3]]);
    }

    #[test]
    fn multi_source_forward_direction() {
        // chain 0→1→2; seeds {0}; forward within 1 = {1}.
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..3).map(|_| g.add_node("x", [])).collect();
        g.add_edge(ids[0], ids[1]);
        g.add_edge(ids[1], ids[2]);
        let mut seeds = BitSet::new(3);
        seeds.insert(ids[0]);
        let mut s = BfsScratch::new();
        let mut out = BitSet::new(3);
        s.multi_source_within(&g, &seeds, 1, Direction::Forward, &mut out);
        assert_eq!(out.to_vec(), vec![ids[1]]);
    }
}
