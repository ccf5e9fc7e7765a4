//! The result graph `G_r` — how `M(Q,G)` is represented to users.
//!
//! Paper §II: "the GUI visualizes the query results expressed as result
//! graphs, in which each node is a match of a query node in Q, and each
//! edge (marked with an integer d) represents a shortest path with length
//! d corresponding to a query edge."
//!
//! Construction is two steps. **Collect**: for every pattern edge
//! `(u, u')` with bound `b` and every match `v` of `u`, a bounded forward
//! BFS collects the matches `v'` of `u'` within distance `1..=b`; each
//! such pair contributes an edge `(v, v')` weighted with the
//! shortest-path length ([`witness_arcs`], the one witness kernel). A
//! bound-1 pattern edge needs no BFS: its witnesses are `v`'s
//! out-neighbours, read off the adjacency the way the fixpoint refines
//! such edges. The arcs come out in `(pattern_edge, from, to)` order.
//! **Lay out**: the rows below.
//!
//! Who builds one: the views that show all of `G_r` — the shell, reports,
//! [`top_k`](crate::rank::top_k) — and the tests, which hold the ranking
//! to it. A ranked read does not: a cold read ranks from its candidates,
//! expanding only the rows its searches settle
//! ([`rank_candidates`](crate::rank::rank_candidates)), and the
//! incremental module keeps a registered pattern's arcs across updates
//! as per-node rows repaired per batch with the same witness kernel, and
//! ranks over those rows itself.
//!
//! Layout: `|E_r|` is smaller than `|V_r|` (most matches witness no
//! pattern edge themselves: over the repo benchmark's 528 pool patterns,
//! Σ|E_r| = 327k against Σ|V_r| = 868k), though one `G_r` may carry 7k
//! arcs, so nothing is allocated or hashed per node: `nodes` is the bitset
//! union of the match sets, already sorted, and the arcs are the rows a
//! cold read expands, over data-node ids — one arc vector cut into
//! per-node spans, found through a slot array — filled once, forward from
//! the arcs sorted by `(from, to)`, backward from them sorted by
//! `(to, from)`, one arc per pair at its lightest weight. A built `G_r`
//! is therefore ranked by the code that ranks a cold read, row for row.
//! What a build costs beyond its BFS balls is `O(|E_r| log |E_r|)` plus
//! the two slot arrays.

use crate::matchrel::MatchRelation;
use crate::rank::{RankScratch, Rows};
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::{BitSet, GraphView, NodeId};
use expfinder_pattern::Pattern;

/// One edge of the result graph.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ResultEdge {
    pub from: NodeId,
    pub to: NodeId,
    /// Shortest-path length in the data graph (the paper's `d` marking).
    pub weight: u32,
    /// Index of the pattern edge this match edge witnesses.
    pub pattern_edge: u32,
}

/// The result graph: match nodes and weighted match edges.
#[derive(Clone, Debug)]
pub struct ResultGraph {
    /// Data-graph ids of all result nodes, sorted ascending.
    nodes: Vec<NodeId>,
    /// All result edges (deduplicated per pattern edge).
    edges: Vec<ResultEdge>,
    /// The arcs of `G_r` (`Forward`) and the same arcs reversed
    /// (`Backward`), indexed by [`Direction`]: one per `(from, to)` pair
    /// at its minimal weight (the `d` markings).
    rows: [Rows; 2],
}

impl ResultGraph {
    /// Build `G_r` from a match relation, on a fresh scratch.
    pub fn build<G: GraphView>(g: &G, q: &Pattern, m: &MatchRelation) -> ResultGraph {
        Self::build_with(g, q, m, &mut RankScratch::new())
    }

    /// Build `G_r` on `scratch`: one [`witness_arcs`] per (pattern edge,
    /// source match), then the rows. The work is added to
    /// [`RankScratch::build_visits`].
    pub fn build_with<G: GraphView>(
        g: &G,
        q: &Pattern,
        m: &MatchRelation,
        scratch: &mut RankScratch,
    ) -> ResultGraph {
        let mut edges = Vec::new();
        for (ei, e) in q.edges().iter().enumerate() {
            let targets = m.matches(e.to);
            for v in m.matches(e.from).iter() {
                scratch.build_visits +=
                    witness_arcs(g, q, ei, v, targets, &mut scratch.bfs, &mut edges);
            }
        }
        // result nodes = union of all matches
        let union = m.sets().split_first().map(|(first, rest)| {
            let mut all = first.clone();
            rest.iter().for_each(|set| all.union_with(set));
            all.to_vec()
        });
        let nodes = union.unwrap_or_default();
        // every arc end is a result node, so the slots end at the last one
        let span = nodes.last().map_or(0, |v| v.index() + 1);
        let mut arcs: Vec<_> = (edges.iter())
            .map(|e| (e.from.0, e.to.0, e.weight))
            .collect();
        arcs.sort_unstable();
        let fwd = Rows::filled(span, &arcs);
        arcs.iter_mut().for_each(|a| *a = (a.1, a.0, a.2));
        arcs.sort_unstable();
        let rev = Rows::filled(span, &arcs);
        ResultGraph {
            nodes,
            edges,
            rows: [fwd, rev],
        }
    }

    /// All result nodes (data-graph ids, ascending).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// All result edges, ordered by `(pattern_edge, from, to)`.
    pub fn edges(&self) -> &[ResultEdge] {
        &self.edges
    }

    /// Number of result nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The arcs of `G_r` one way, for [`ResultArcs`](crate::ResultArcs).
    pub(crate) fn rows(&self, dir: Direction) -> &Rows {
        &self.rows[dir as usize]
    }
}

/// Append to `out` the arcs pattern edge `ei` of `q` contributes from the
/// source `v`: one per `w ∈ targets`, `w ≠ v`, at shortest distance
/// `1..=b` from `v`, weighted with that distance, in ascending `to` order.
/// A bound-1 edge reads `v`'s out-neighbours instead of running a BFS.
/// Returns the ball nodes visited plus the adjacency entries scanned.
/// The one witness kernel of `G_r`: a build runs it per source match, and
/// the incremental module per source whose ball an update batch touched.
/// A cold ranked read finds the same arcs a node at a time, every role of
/// the node in one ball ([`rank_candidates`](crate::rank::rank_candidates)).
pub fn witness_arcs<G: GraphView>(
    g: &G,
    q: &Pattern,
    ei: usize,
    v: NodeId,
    targets: &BitSet,
    bfs: &mut BfsScratch,
    out: &mut Vec<ResultEdge>,
) -> u64 {
    let depth = q.edges()[ei].bound.depth();
    let start = out.len();
    let visits = walk_ball(g, v, depth, Direction::Forward, bfs, |to, weight| {
        if targets.contains(to) {
            out.push(ResultEdge {
                from: v,
                to,
                weight,
                pattern_edge: ei as u32,
            })
        }
    });
    if out.len() - start > 1 {
        out[start..].sort_unstable_by_key(|e| e.to);
    }
    visits
}

/// Call `visit(w, d)` for every node `w ≠ v` at distance `d` in `1..=depth`
/// from `v` in direction `dir`: `v`'s adjacency list (minus `v` itself,
/// where a self-loop lists it) when `depth` is 1, a bounded BFS ball
/// otherwise. Returns the ball nodes visited plus the adjacency entries
/// scanned. The one walk both ways of finding `G_r`'s arcs take — a
/// [`witness_arcs`] per pattern edge, a cold read's row per node.
pub(crate) fn walk_ball<G: GraphView>(
    g: &G,
    v: NodeId,
    depth: u32,
    dir: Direction,
    bfs: &mut BfsScratch,
    mut visit: impl FnMut(NodeId, u32),
) -> u64 {
    if depth == 1 {
        let adj = dir.neighbors(g, v);
        adj.iter().filter(|&&w| w != v).for_each(|&w| visit(w, 1));
        return adj.len() as u64;
    }
    let ball = bfs.ball(g, v, depth, dir);
    // the source comes first, and is the one node at distance 0
    ball.iter().skip(1).for_each(|(w, d)| visit(w, d));
    ball.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsim::bounded_simulation;
    use crate::ResultArcs;
    use expfinder_graph::dijkstra::{DijkstraScratch, WeightedArcs, UNREACHABLE};
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_pattern::fixtures::fig1_pattern;

    fn fig1_result() -> (expfinder_graph::fixtures::Fig1, Pattern, ResultGraph) {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        (f, q, rg)
    }

    #[test]
    fn fig1_result_nodes() {
        let (f, _, rg) = fig1_result();
        let expected = {
            let mut v = vec![f.bob, f.walt, f.jean, f.mat, f.dan, f.pat, f.eva];
            v.sort();
            v
        };
        assert_eq!(rg.nodes(), &expected[..], "Example 2's G_r node set");
    }

    #[test]
    fn fig1_result_edge_weights() {
        let (f, _, rg) = fig1_result();
        let w = |a, b| {
            rg.edges()
                .iter()
                .find(|e| e.from == a && e.to == b)
                .map(|e| e.weight)
        };
        // SA→SD within 2
        assert_eq!(w(f.bob, f.dan), Some(1));
        assert_eq!(w(f.bob, f.mat), Some(1));
        assert_eq!(w(f.bob, f.pat), Some(2));
        assert_eq!(w(f.walt, f.dan), Some(2));
        assert_eq!(w(f.walt, f.mat), None, "Walt cannot reach Mat within 2");
        // SA→BA within 3
        assert_eq!(w(f.bob, f.jean), Some(3));
        assert_eq!(w(f.walt, f.jean), Some(2));
        // SD→ST within 2
        assert_eq!(w(f.dan, f.eva), Some(1));
        assert_eq!(w(f.mat, f.eva), Some(2));
        assert_eq!(w(f.pat, f.eva), Some(2));
        // BA→ST within 1
        assert_eq!(w(f.jean, f.eva), Some(1));
    }

    /// `dist(v, w)` (`Forward`) or `dist(w, v)` (`Backward`) inside `G_r`.
    fn dist(mut rg: &ResultGraph, dir: Direction, v: NodeId, w: NodeId) -> u64 {
        let mut s = DijkstraScratch::new();
        s.run(rg.one_way(dir), v.0);
        s.dist(w.0)
    }

    #[test]
    fn fig1_distances_match_example2() {
        let (f, _, rg) = fig1_result();
        let at = |w| dist(&rg, Direction::Forward, f.bob, w);
        assert_eq!(at(f.dan), 1);
        assert_eq!(at(f.mat), 1);
        assert_eq!(at(f.pat), 2);
        assert_eq!(at(f.jean), 3);
        assert_eq!(at(f.eva), 2, "via Dan");
        let at = |w| dist(&rg, Direction::Forward, f.walt, w);
        assert_eq!(at(f.dan), 2);
        assert_eq!(at(f.jean), 2);
        assert_eq!(at(f.eva), 3);
    }

    #[test]
    fn backward_adjacency_gives_distances_to() {
        let (f, _, rg) = fig1_result();
        assert_eq!(dist(&rg, Direction::Backward, f.eva, f.bob), 2);
        assert_eq!(dist(&rg, Direction::Backward, f.eva, f.jean), 1);
        assert_eq!(dist(&rg, Direction::Forward, f.eva, f.bob), UNREACHABLE);
    }

    #[test]
    fn empty_match_gives_empty_result_graph() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let empty = MatchRelation::empty(&q, f.graph.node_count());
        let rg = ResultGraph::build(&f.graph, &q, &empty);
        assert_eq!(rg.node_count(), 0);
        assert!(rg.edges().is_empty());
        for dir in [Direction::Forward, Direction::Backward] {
            assert_eq!(rg.rows(dir).node_count(), 0);
        }
    }
}
