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

use crate::fixpoint::Cancelled;
use crate::matchrel::MatchRelation;
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::{dijkstra, CancelToken, GraphView, NodeId};
use expfinder_pattern::{PNodeId, Pattern};
use std::collections::HashMap;

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
    /// Data-graph ids of all result nodes, sorted ascending.
    nodes: Vec<NodeId>,
    /// Dense index of `nodes` (data id → local index).
    index: HashMap<NodeId, u32>,
    /// All result edges (deduplicated per pattern edge).
    edges: Vec<ResultEdge>,
    /// Forward adjacency over *local* indices with minimal weights.
    fwd: Vec<Vec<(NodeId, u64)>>,
    /// Reverse adjacency over *local* indices with minimal weights.
    rev: Vec<Vec<(NodeId, u64)>>,
    /// For each pattern node, the local indices of its matches.
    members: Vec<Vec<u32>>,
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
        // result nodes = union of all matches
        let mut nodes: Vec<NodeId> = Vec::new();
        for u in q.ids() {
            nodes.extend(m.matches(u).iter());
        }
        nodes.sort_unstable();
        nodes.dedup();
        let index: HashMap<NodeId, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();

        let edges = if opts.threads > 1 {
            collect_edges_parallel(g, q, m, opts.threads, cancel)?
        } else {
            let mut scratch = BfsScratch::new();
            let mut edges = Vec::new();
            for (ei, _) in q.edges().iter().enumerate() {
                collect_edges_for(g, q, m, ei, &mut scratch, cancel, &mut edges)?;
            }
            edges
        };

        // adjacency (over local indices) with minimal weight per pair
        let mut fwd: Vec<HashMap<NodeId, u64>> = vec![HashMap::new(); nodes.len()];
        let mut rev: Vec<HashMap<NodeId, u64>> = vec![HashMap::new(); nodes.len()];
        for e in &edges {
            let fi = index[&e.from] as usize;
            let ti = index[&e.to] as usize;
            let w = e.weight as u64;
            fwd[fi]
                .entry(NodeId(index[&e.to]))
                .and_modify(|x| *x = (*x).min(w))
                .or_insert(w);
            rev[ti]
                .entry(NodeId(index[&e.from]))
                .and_modify(|x| *x = (*x).min(w))
                .or_insert(w);
        }
        let fwd: Vec<Vec<(NodeId, u64)>> = fwd
            .into_iter()
            .map(|m| {
                let mut v: Vec<_> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        let rev: Vec<Vec<(NodeId, u64)>> = rev
            .into_iter()
            .map(|m| {
                let mut v: Vec<_> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();

        let members = q
            .ids()
            .map(|u| m.matches(u).iter().map(|v| index[&v]).collect())
            .collect();

        Ok(ResultGraph {
            nodes,
            index,
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
        self.index.get(&v).copied()
    }

    /// Matches of pattern node `u` as data ids.
    pub fn matches_of(&self, u: PNodeId) -> Vec<NodeId> {
        self.members[u.index()]
            .iter()
            .map(|&i| self.nodes[i as usize])
            .collect()
    }

    /// Shortest distances *from* `v` to all result nodes (weights are the
    /// `d` markings). Indexed by local index; `u64::MAX` = unreachable.
    pub fn dists_from(&self, v: NodeId) -> Option<Vec<u64>> {
        let local = self.local(v)?;
        Some(self.run_dijkstra(local, &self.fwd))
    }

    /// Shortest distances *to* `v` from all result nodes.
    pub fn dists_to(&self, v: NodeId) -> Option<Vec<u64>> {
        let local = self.local(v)?;
        Some(self.run_dijkstra(local, &self.rev))
    }

    fn run_dijkstra(&self, src: u32, adj: &[Vec<(NodeId, u64)>]) -> Vec<u64> {
        dijkstra::dijkstra(adj, NodeId(src))
    }
}

/// Collect the result edges witnessed by pattern edge `ei` for the given
/// source match nodes, polling `cancel` once per source.
#[allow(clippy::too_many_arguments)]
fn collect_edges_chunk<G: GraphView>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
    ei: usize,
    sources: &[NodeId],
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

/// Collect the result edges witnessed by pattern edge `ei`.
fn collect_edges_for<G: GraphView>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
    ei: usize,
    scratch: &mut BfsScratch,
    cancel: Option<&CancelToken>,
    out: &mut Vec<ResultEdge>,
) -> Result<(), Cancelled> {
    let sources: Vec<NodeId> = m.matches(q.edges()[ei].from).to_vec();
    collect_edges_chunk(g, q, m, ei, &sources, scratch, cancel, out)
}

/// Work-unit size for the parallel fan-out: small enough for load balance
/// across skewed degree distributions, large enough to amortize dispatch.
const PARALLEL_CHUNK: usize = 256;

/// Parallel edge collection: every (pattern edge, chunk of match nodes)
/// pair is an independent work item; workers pull items off a shared
/// counter and own their BFS scratch. Chunking *within* a pattern edge is
/// what makes this scale — patterns have few edges but thousands of
/// matches.
fn collect_edges_parallel<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<ResultEdge>, Cancelled> {
    let mut items: Vec<(usize, Vec<NodeId>)> = Vec::new();
    for ei in 0..q.edge_count() {
        let sources = m.matches_vec(q.edges()[ei].from);
        for chunk in sources.chunks(PARALLEL_CHUNK) {
            items.push((ei, chunk.to_vec()));
        }
    }
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let n_items = items.len();
    let items = &items;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut chunks: Vec<Result<Vec<ResultEdge>, Cancelled>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..threads.min(n_items) {
            let next = &next;
            handles.push(s.spawn(move || {
                let mut scratch = BfsScratch::new();
                let mut local: Vec<ResultEdge> = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n_items {
                        break;
                    }
                    let (ei, sources) = &items[i];
                    collect_edges_chunk(g, q, m, *ei, sources, &mut scratch, cancel, &mut local)?;
                }
                Ok(local)
            }));
        }
        for h in handles {
            chunks.push(h.join().expect("result-graph worker panicked"));
        }
    });
    let mut out: Vec<ResultEdge> = Vec::new();
    for chunk in chunks {
        out.extend(chunk?);
    }
    // deterministic order regardless of thread interleaving
    out.sort_unstable_by_key(|e| (e.pattern_edge, e.from, e.to));
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
