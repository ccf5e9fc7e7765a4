//! The result graph `G_r` — how `M(Q,G)` is represented to users.
//!
//! Paper §II: "the GUI visualizes the query results expressed as result
//! graphs, in which each node is a match of a query node in Q, and each
//! edge (marked with an integer d) represents a shortest path with length
//! d corresponding to a query edge."
//!
//! Construction: for every pattern edge `(u, u')` with bound `b` and every
//! match `v` of `u`, a bounded forward BFS collects the matches `v'` of
//! `u'` within distance `1..=b`; each such pair contributes an edge
//! `(v, v')` weighted with the shortest-path length. Construction can be
//! parallelised across match nodes (std scoped threads) — an ablation
//! in E12. A request's [`CancelToken`] is polled once per source match, so
//! a deadline covers construction too ([`ResultGraph::build_cancellable`]).
//!
//! Layout: `|V_r|` is typically thousands while `|E_r|` is hundreds (most
//! matches witness no pattern edge themselves), so nothing is allocated or
//! hashed per node: `nodes` is the bitset union of the match sets, already
//! sorted, so the vector *is* the index (`local` is a binary search), and
//! both adjacencies are flat [`WeightedAdj`] arrays built by one sort +
//! dedup-to-minimum of the arcs each. What a build costs beyond its BFS
//! is proportional to `|E_r|`, plus one copy of the match sets.

use crate::fixpoint::Cancelled;
use crate::matchrel::MatchRelation;
use crate::parallel::run_items;
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::dijkstra::{dijkstra, WeightedAdj};
use expfinder_graph::{CancelToken, GraphView, NodeId};
use expfinder_pattern::{PNodeId, Pattern};

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

/// Options for result-graph construction.
#[derive(Copy, Clone, Debug)]
pub struct BuildOptions {
    /// Worker threads for the per-match BFS fan-out (1 = sequential).
    pub threads: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { threads: 1 }
    }
}

/// The result graph: match nodes, weighted match edges, and per-pattern
/// node membership.
#[derive(Clone, Debug)]
pub struct ResultGraph {
    /// Data-graph ids of all result nodes, sorted ascending; a node's
    /// position is its local index.
    nodes: Vec<NodeId>,
    /// All result edges (deduplicated per pattern edge).
    edges: Vec<ResultEdge>,
    /// Forward adjacency over *local* indices with minimal weights.
    fwd: WeightedAdj,
    /// Reverse adjacency over *local* indices with minimal weights.
    rev: WeightedAdj,
    /// For each pattern node, its matches (ascending).
    members: Vec<Vec<NodeId>>,
}

impl ResultGraph {
    /// Build `G_r` from a match relation (sequential).
    pub fn build<G: GraphView + Sync>(g: &G, q: &Pattern, m: &MatchRelation) -> ResultGraph {
        Self::build_with(g, q, m, BuildOptions::default())
    }

    /// Build `G_r` with explicit options.
    pub fn build_with<G: GraphView + Sync>(
        g: &G,
        q: &Pattern,
        m: &MatchRelation,
        opts: BuildOptions,
    ) -> ResultGraph {
        Self::build_cancellable(g, q, m, opts, None).expect("no cancel token supplied")
    }

    /// [`build_with`](Self::build_with), polling `cancel` once per source
    /// match of every pattern edge; a fired token aborts with
    /// [`Cancelled`] (zero stats — the fixpoint's work is the caller's to
    /// report).
    pub fn build_cancellable<G: GraphView + Sync>(
        g: &G,
        q: &Pattern,
        m: &MatchRelation,
        opts: BuildOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<ResultGraph, Cancelled> {
        let members: Vec<Vec<NodeId>> = q.ids().map(|u| m.matches_vec(u)).collect();
        let edges = collect_all_edges(g, q, m, &members, opts.threads, cancel)?;

        // result nodes = union of all matches
        let union = m.sets().split_first().map(|(first, rest)| {
            let mut all = first.clone();
            rest.iter().for_each(|set| all.union_with(set));
            all.to_vec()
        });
        let nodes = union.unwrap_or_default();
        let local = |v: NodeId| nodes.binary_search(&v).expect("edge endpoints are matches") as u32;
        let fwd: Vec<(u32, u32, u32)> = edges
            .iter()
            .map(|e| (local(e.from), local(e.to), e.weight))
            .collect();
        let rev = fwd.iter().map(|&(from, to, w)| (to, from, w)).collect();
        let n = nodes.len();
        let (fwd, rev) = (
            WeightedAdj::from_arcs(n, fwd),
            WeightedAdj::from_arcs(n, rev),
        );

        Ok(ResultGraph {
            nodes,
            edges,
            fwd,
            rev,
            members,
        })
    }

    /// All result nodes (data-graph ids, ascending).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// All result edges.
    pub fn edges(&self) -> &[ResultEdge] {
        &self.edges
    }

    /// Number of result nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Local index of a data node, if it is part of the result.
    pub fn local(&self, v: NodeId) -> Option<u32> {
        self.nodes.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Matches of pattern node `u` as data ids.
    pub fn matches_of(&self, u: PNodeId) -> Vec<NodeId> {
        self.members[u.index()].clone()
    }

    /// Shortest distances *from* `v` to all result nodes (weights are the
    /// `d` markings). Indexed by local index; `u64::MAX` = unreachable.
    pub fn dists_from(&self, v: NodeId) -> Option<Vec<u64>> {
        Some(dijkstra(&self.fwd, self.local(v)?))
    }

    /// Shortest distances *to* `v` from all result nodes.
    pub fn dists_to(&self, v: NodeId) -> Option<Vec<u64>> {
        Some(dijkstra(&self.rev, self.local(v)?))
    }
}

/// Collect into `out` the result edges witnessed by pattern edge `ei` for
/// the given source match nodes, polling `cancel` once per source.
fn collect_edges<G: GraphView>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
    (ei, sources): (usize, &[NodeId]),
    scratch: &mut BfsScratch,
    cancel: Option<&CancelToken>,
    out: &mut Vec<ResultEdge>,
) -> Result<(), Cancelled> {
    let e = &q.edges()[ei];
    let depth = e.bound.depth();
    let targets = m.matches(e.to);
    for &v in sources {
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(Cancelled::default());
        }
        let ball = scratch.ball(g, v, depth, Direction::Forward);
        for (w, d) in ball.iter() {
            if d >= 1 && targets.contains(w) {
                out.push(ResultEdge {
                    from: v,
                    to: w,
                    weight: d,
                    pattern_edge: ei as u32,
                });
            }
        }
    }
    Ok(())
}

/// Work-unit size for the parallel fan-out: small enough for load balance
/// across skewed degree distributions, large enough to amortize dispatch.
const PARALLEL_CHUNK: usize = 256;

/// Edge collection: every (pattern edge, chunk of the `members` of its
/// source node) pair is an independent [`run_items`] work item, run inline
/// on one scratch when that declines to fan out. Chunking *within* a
/// pattern edge is what makes the fan-out scale — patterns have few edges
/// but thousands of matches.
fn collect_all_edges<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
    members: &[Vec<NodeId>],
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<ResultEdge>, Cancelled> {
    let mut items: Vec<(usize, &[NodeId])> = Vec::new();
    for (ei, e) in q.edges().iter().enumerate() {
        let sources = members[e.from.index()].chunks(PARALLEL_CHUNK);
        items.extend(sources.map(|chunk| (ei, chunk)));
    }
    let mut out = Vec::new();
    let fanned = run_items(threads, &items, BfsScratch::new, |bfs, &item| {
        let mut edges = Vec::new();
        collect_edges(g, q, m, item, bfs, cancel, &mut edges).map(|()| edges)
    });
    match fanned {
        Some(chunks) => {
            for chunk in chunks {
                out.extend(chunk?);
            }
            // deterministic order regardless of thread interleaving
            out.sort_unstable_by_key(|e| (e.pattern_edge, e.from, e.to));
        }
        None => {
            let mut bfs = BfsScratch::new();
            for &item in &items {
                collect_edges(g, q, m, item, &mut bfs, cancel, &mut out)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsim::bounded_simulation;
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

    #[test]
    fn fig1_distances_match_example2() {
        let (f, _, rg) = fig1_result();
        let d = rg.dists_from(f.bob).unwrap();
        let at = |v: NodeId| d[rg.local(v).unwrap() as usize];
        assert_eq!(at(f.dan), 1);
        assert_eq!(at(f.mat), 1);
        assert_eq!(at(f.pat), 2);
        assert_eq!(at(f.jean), 3);
        assert_eq!(at(f.eva), 2, "via Dan");
        let d = rg.dists_from(f.walt).unwrap();
        let at = |v: NodeId| d[rg.local(v).unwrap() as usize];
        assert_eq!(at(f.dan), 2);
        assert_eq!(at(f.jean), 2);
        assert_eq!(at(f.eva), 3);
    }

    #[test]
    fn dists_to_is_reverse() {
        let (f, _, rg) = fig1_result();
        let to_eva = rg.dists_to(f.eva).unwrap();
        assert_eq!(to_eva[rg.local(f.bob).unwrap() as usize], 2);
        assert_eq!(to_eva[rg.local(f.jean).unwrap() as usize], 1);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let (f, q, rg) = fig1_result();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg_par = ResultGraph::build_with(&f.graph, &q, &m, BuildOptions { threads: 4 });
        assert_eq!(rg.nodes(), rg_par.nodes());
        let mut a = rg.edges().to_vec();
        let mut b = rg_par.edges().to_vec();
        a.sort_unstable_by_key(|e| (e.pattern_edge, e.from, e.to));
        b.sort_unstable_by_key(|e| (e.pattern_edge, e.from, e.to));
        assert_eq!(a, b);
    }

    #[test]
    fn matches_of_lists_pattern_node_members() {
        let (f, q, rg) = fig1_result();
        let sa = q.node_id("sa").unwrap();
        let mut got = rg.matches_of(sa);
        got.sort();
        let mut want = vec![f.bob, f.walt];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_match_gives_empty_result_graph() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let empty = MatchRelation::empty(&q, f.graph.node_count());
        let rg = ResultGraph::build(&f.graph, &q, &empty);
        assert_eq!(rg.node_count(), 0);
        assert!(rg.edges().is_empty());
        assert!(rg.dists_from(f.bob).is_none());
    }
}
