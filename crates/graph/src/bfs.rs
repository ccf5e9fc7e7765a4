//! Bounded single-source breadth-first traversals with reusable scratch
//! space, and the [`Direction`] every traversal walks in.
//!
//! The result-graph builder and the incremental maintainer ask for
//! distance balls around single nodes, thousands of times per query, so
//! the traversal state (distance array, epoch marks, queue) lives in a
//! [`BfsScratch`] that is allocated once and reused; resetting costs O(1)
//! via epochs. The set question bounded simulation asks — "which nodes
//! have a non-empty path of length ≤ b to some node in this set?" — is
//! answered by the frontier BFS of [`crate::bfs_frontier`].

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
}

/// Result view of a single-source BFS; borrows the scratch.
pub struct Ball<'a> {
    touched: &'a [NodeId],
    dist: &'a [u32],
    mark: &'a [u32],
    epoch: u32,
}

impl<'a> Ball<'a> {
    /// Nodes in visit (BFS) order, including the source first.
    pub fn nodes(&self) -> &'a [NodeId] {
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
pub(crate) mod tests {
    use super::*;
    use crate::{BitSet, DiGraph};

    /// The reference for every multi-source reach test in this crate, by
    /// definition: `v` qualifies iff some walk of length `1..=depth` in
    /// direction `dir`, seen from the seeds, joins `v` to a seed —
    /// computed by repeated one-step expansion of exact-length walk sets,
    /// no BFS. A shortest such walk has length ≤ `|V|`, so deeper levels
    /// add nothing. Also returns the traversal-work measure every
    /// multi-source BFS reports: the nodes it marks, `|seeds ∪ out|`.
    pub(crate) fn walk_reach<G: GraphView>(
        g: &G,
        seeds: &BitSet,
        depth: u32,
        dir: Direction,
    ) -> (BitSet, usize) {
        let n = g.node_count();
        let mut out = BitSet::new(n);
        if depth == 0 {
            return (out, 0);
        }
        let mut level = seeds.clone();
        for _ in 0..depth.min(n as u32) {
            let mut next = BitSet::new(n);
            for v in g.ids() {
                if dir
                    .opposite()
                    .neighbors(g, v)
                    .iter()
                    .any(|&w| level.contains(w))
                {
                    next.insert(v);
                }
            }
            out.union_with(&next);
            level = next;
        }
        let mut marked = out.clone();
        marked.union_with(seeds);
        let visited = if seeds.is_empty() { 0 } else { marked.count() };
        (out, visited)
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
    fn walk_reach_is_the_nonempty_path_definition() {
        // 0 → 1 → 2 → 0 with a tail 3 → 0
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node("x", [])).collect();
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 0)] {
            g.add_edge(ids[a], ids[b]);
        }
        let mut seeds = BitSet::new(4);
        seeds.insert(ids[0]);
        let reach = |depth, dir| walk_reach(&g, &seeds, depth, dir).0.to_vec();
        assert_eq!(reach(1, Direction::Backward), vec![ids[2], ids[3]]);
        assert_eq!(reach(2, Direction::Backward), vec![ids[1], ids[2], ids[3]]);
        // the seed re-reaches itself around the 3-cycle only
        assert_eq!(reach(3, Direction::Backward), ids);
        assert_eq!(
            reach(u32::MAX, Direction::Forward),
            vec![ids[0], ids[1], ids[2]]
        );
        assert_eq!(walk_reach(&g, &seeds, 2, Direction::Forward).1, 3);
        assert_eq!(
            walk_reach(&g, &seeds, 0, Direction::Forward),
            (BitSet::new(4), 0)
        );
    }
}
