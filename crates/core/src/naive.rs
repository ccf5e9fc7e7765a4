//! Naive reference implementations for differential testing.
//!
//! These recompute the same greatest fixpoints with deliberately different,
//! simpler machinery (no counters, no shared BFS scratch, no worklists):
//! every pass re-checks every pair from scratch until nothing changes.
//! Slow — but independent, which is what a differential oracle needs:
//! candidates too are found by testing every node, never from a label
//! index. They judge every relation the one fixpoint engine computes:
//! simulation, bounded simulation, dual simulation, and the raw
//! (uncollapsed) fixpoint the incremental module persists — and, over a
//! relation, the result graph and the top-K ranking
//! ([`reference_result_graph`], [`reference_rank`]).

use crate::matchrel::MatchRelation;
use crate::rank::RankedMatch;
use expfinder_graph::bfs::Direction;
use expfinder_graph::{BitSet, GraphView, NodeId};
use expfinder_pattern::Pattern;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

fn candidate_sets<G: GraphView>(g: &G, q: &Pattern) -> Vec<BitSet> {
    let scan = |pn: &expfinder_pattern::PatternNode| crate::scan(g, &pn.predicate, g.ids());
    q.nodes().iter().map(scan).collect()
}

/// Reference graph simulation by repeated full re-checks.
pub fn naive_simulation<G: GraphView>(g: &G, q: &Pattern) -> MatchRelation {
    let mut sim = candidate_sets(g, q);
    loop {
        let mut changed = false;
        for e in q.edges() {
            debug_assert!(e.bound.is_one());
            let mut doomed = Vec::new();
            for v in sim[e.from.index()].iter() {
                let ok = g
                    .out_neighbors(v)
                    .iter()
                    .any(|&w| sim[e.to.index()].contains(w));
                if !ok {
                    doomed.push(v);
                }
            }
            for v in doomed {
                sim[e.from.index()].remove(v);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    MatchRelation::from_sets(sim, g.node_count())
}

/// Is there a non-empty path of length ≤ `depth` from `v` to a member of
/// `targets`, walking in direction `dir`? Independent BFS with its own
/// queue/visited map.
fn can_reach_within<G: GraphView>(
    g: &G,
    v: NodeId,
    targets: &BitSet,
    depth: u32,
    dir: Direction,
) -> bool {
    if depth == 0 {
        return false;
    }
    let mut dist: HashMap<NodeId, u32> = HashMap::new();
    let mut queue = VecDeque::new();
    // start from v's neighbours at distance 1 so v itself needs a real path
    for &w in dir.neighbors(g, v) {
        if targets.contains(w) {
            return true;
        }
        if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
            e.insert(1);
            queue.push_back(w);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        if d >= depth {
            continue;
        }
        for &w in dir.neighbors(g, u) {
            if targets.contains(w) {
                return true;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(d + 1);
                queue.push_back(w);
            }
        }
    }
    false
}

/// Remove from `sim[side]` every node with no non-empty path of length
/// ≤ `depth` in direction `dir` to a member of `sim[other]`; reports
/// whether anything went.
fn drop_unsupported<G: GraphView>(
    g: &G,
    sim: &mut [BitSet],
    side: usize,
    other: usize,
    depth: u32,
    dir: Direction,
) -> bool {
    let doomed: Vec<NodeId> = sim[side]
        .iter()
        .filter(|&v| !can_reach_within(g, v, &sim[other], depth, dir))
        .collect();
    for &v in &doomed {
        sim[side].remove(v);
    }
    !doomed.is_empty()
}

/// Reference raw bounded fixpoint: the greatest relation below the
/// caller's sets `sim` in which every member of `sim(u)` has, for each
/// pattern edge `(u, u')` with bound `b`, a non-empty path of length ≤ `b`
/// to a member of `sim(u')`. Repeated full re-checks with per-node
/// forward BFS; no early exit and no collapse — a set that empties stays
/// empty while the others refine on, which is the raw fixpoint
/// [`bounded_fixpoint_raw`](crate::bsim::bounded_fixpoint_raw) computes
/// without early exit.
pub fn naive_bounded_fixpoint<G: GraphView>(
    g: &G,
    q: &Pattern,
    mut sim: Vec<BitSet>,
) -> Vec<BitSet> {
    loop {
        let mut changed = false;
        for e in q.edges() {
            let (from, to) = (e.from.index(), e.to.index());
            let depth = e.bound.depth();
            changed |= drop_unsupported(g, &mut sim, from, to, depth, Direction::Forward);
        }
        if !changed {
            return sim;
        }
    }
}

/// Reference bounded simulation: [`naive_bounded_fixpoint`] from
/// predicate-tested candidates, collapsed to the empty relation when a
/// pattern node has no match.
pub fn naive_bounded_simulation<G: GraphView>(g: &G, q: &Pattern) -> MatchRelation {
    let sim = naive_bounded_fixpoint(g, q, candidate_sets(g, q));
    MatchRelation::from_sets(sim, g.node_count())
}

/// Reference bounded dual simulation by repeated full re-checks: for each
/// pattern edge `(u, u')` with bound `b`, a match of `u` needs a non-empty
/// ≤`b` path *to* a match of `u'` (forward BFS), and a match of `u'` one
/// *from* a match of `u` (backward BFS).
pub fn naive_dual_simulation<G: GraphView>(g: &G, q: &Pattern) -> MatchRelation {
    let mut sim = candidate_sets(g, q);
    loop {
        let mut changed = false;
        for e in q.edges() {
            let (from, to) = (e.from.index(), e.to.index());
            let depth = e.bound.depth();
            changed |= drop_unsupported(g, &mut sim, from, to, depth, Direction::Forward);
            changed |= drop_unsupported(g, &mut sim, to, from, depth, Direction::Backward);
        }
        if !changed {
            return MatchRelation::from_sets(sim, g.node_count());
        }
    }
}

/// Check that `m` actually *is* a valid bounded simulation relation (every
/// pair satisfies predicate + edge conditions). Used by property tests to
/// assert soundness independently of any matcher.
pub fn is_valid_bounded_relation<G: GraphView>(g: &G, q: &Pattern, m: &MatchRelation) -> bool {
    for (ui, pn) in q.nodes().iter().enumerate() {
        let u = expfinder_pattern::PNodeId(ui as u32);
        let compiled = pn.predicate.compile(g);
        for v in m.matches(u).iter() {
            if !compiled.eval(g.vertex(v)) {
                return false;
            }
            for e in q.out_edges(u) {
                let (targets, depth) = (m.matches(e.to), e.bound.depth());
                if !can_reach_within(g, v, targets, depth, Direction::Forward) {
                    return false;
                }
            }
        }
    }
    true
}

/// The reference `G_r`, built the plain way: per-node hash maps, one
/// queue BFS of its own per (pattern edge, source match). Shares no code
/// with `core::result_graph` or the graph crate's BFS.
pub struct ReferenceResultGraph {
    /// Every match of every pattern node, ascending, once.
    pub nodes: Vec<NodeId>,
    /// `(from, to, weight, pattern edge)`, one per witnessed pattern edge.
    pub edges: BTreeSet<(NodeId, NodeId, u32, u32)>,
    /// Adjacency over positions in `nodes`, minimal weight per pair.
    fwd: Vec<HashMap<usize, u64>>,
    rev: Vec<HashMap<usize, u64>>,
    index: HashMap<NodeId, usize>,
}

pub fn reference_result_graph<G: GraphView>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
) -> ReferenceResultGraph {
    let mut nodes: Vec<NodeId> = q.ids().flat_map(|u| m.matches_vec(u)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let index: HashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    let mut fwd: Vec<HashMap<usize, u64>> = vec![HashMap::new(); nodes.len()];
    let mut rev = fwd.clone();
    let mut edges = BTreeSet::new();
    for (ei, e) in q.edges().iter().enumerate() {
        for v in m.matches(e.from).iter() {
            for (w, d) in distances_within(g, v, e.bound.depth()) {
                if w != v && m.contains(e.to, w) {
                    edges.insert((v, w, d, ei as u32));
                    let (vi, wi, d) = (index[&v], index[&w], d as u64);
                    let slot = fwd[vi].entry(wi).or_insert(d);
                    *slot = (*slot).min(d);
                    let slot = rev[wi].entry(vi).or_insert(d);
                    *slot = (*slot).min(d);
                }
            }
        }
    }
    ReferenceResultGraph {
        nodes,
        edges,
        fwd,
        rev,
        index,
    }
}

/// Every node within `depth` hops of `v`, with its hop distance (`v`
/// itself at 0): a plain queue BFS over a hash map.
fn distances_within<G: GraphView>(g: &G, v: NodeId, depth: u32) -> HashMap<NodeId, u32> {
    let mut dist = HashMap::from([(v, 0)]);
    let mut queue = VecDeque::from([v]);
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        if d == depth {
            continue;
        }
        for &w in g.out_neighbors(u) {
            if let Entry::Vacant(slot) = dist.entry(w) {
                slot.insert(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// The reference top-K ranking: paper §II's `f(u_o, v)` computed the
/// plain way — over [`reference_result_graph`], two full-vector Dijkstras
/// and a scan of all of `V_r` per candidate, then a full sort. It shares
/// no code with `core::rank` / `core::result_graph` / `graph::dijkstra`,
/// so it can judge them — today's, and any rewrite of them.
pub fn reference_rank<G: GraphView>(
    g: &G,
    q: &Pattern,
    m: &MatchRelation,
    k: usize,
) -> Vec<RankedMatch> {
    const UNREACHABLE: u64 = u64::MAX;
    let ReferenceResultGraph {
        nodes,
        fwd,
        rev,
        index,
        ..
    } = reference_result_graph(g, q, m);

    let dijkstra = |adj: &[HashMap<usize, u64>], src: usize| {
        let mut dist = vec![UNREACHABLE; adj.len()];
        let mut heap = BinaryHeap::new();
        dist[src] = 0;
        heap.push(std::cmp::Reverse((0u64, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for (&w, &cost) in &adj[u] {
                if d + cost < dist[w] {
                    dist[w] = d + cost;
                    heap.push(std::cmp::Reverse((d + cost, w)));
                }
            }
        }
        dist
    };

    let uo = q.output().expect("ranked patterns have an output node");
    let mut out: Vec<RankedMatch> = m
        .matches(uo)
        .iter()
        .map(|v| {
            let local = index[&v];
            let (from, to) = (dijkstra(&fwd, local), dijkstra(&rev, local));
            let (mut sum, mut connected) = (0u64, 0usize);
            for i in (0..nodes.len()).filter(|&i| i != local) {
                if from[i] == UNREACHABLE && to[i] == UNREACHABLE {
                    continue;
                }
                connected += 1;
                sum += [from[i], to[i]]
                    .iter()
                    .filter(|&&d| d != UNREACHABLE)
                    .sum::<u64>();
            }
            let rank = if connected == 0 {
                f64::INFINITY
            } else {
                sum as f64 / connected as f64
            };
            RankedMatch { node: v, rank }
        })
        .collect();
    out.sort_by(|a, b| a.rank.total_cmp(&b.rank).then(a.node.cmp(&b.node)));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::DiGraph;
    use expfinder_pattern::fixtures::{fig1_pattern, fig1_pattern_simulation};
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};

    #[test]
    fn naive_bsim_reproduces_example1() {
        let f = collaboration_fig1();
        let m = naive_bounded_simulation(&f.graph, &fig1_pattern());
        assert_eq!(m.total_pairs(), 7);
    }

    #[test]
    fn naive_dual_needs_a_parent_within_the_bound() {
        // a → m → b plus an orphan b2: pattern a →(k) b
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let m = g.add_node("M", []);
        let b = g.add_node("B", []);
        let b2 = g.add_node("B", []);
        g.add_edge(a, m);
        g.add_edge(m, b);
        let pattern = |k| {
            PatternBuilder::new()
                .node("a", Predicate::label("A"))
                .node("b", Predicate::label("B"))
                .edge("a", "b", Bound::hops(k))
                .build()
                .unwrap()
        };
        let q = pattern(2);
        let (ub, bounded) = (q.node_id("b").unwrap(), naive_bounded_simulation(&g, &q));
        assert!(bounded.contains(ub, b2), "bounded keeps the orphan");
        let dual = naive_dual_simulation(&g, &q);
        assert_eq!(dual.matches_vec(ub), vec![b], "dual prunes the orphan");
        assert_eq!(dual.total_pairs(), 2);
        assert!(naive_dual_simulation(&g, &pattern(1)).is_empty());
        // the paper's team is parent-supported too
        let f = collaboration_fig1();
        let team = naive_dual_simulation(&f.graph, &fig1_pattern());
        assert_eq!(team, naive_bounded_simulation(&f.graph, &fig1_pattern()));
    }

    #[test]
    fn naive_raw_fixpoint_does_not_collapse() {
        // a → b and c with no successor: pattern a → b, c → b. `c` dies,
        // the raw fixpoint keeps (a, b); the relation is empty.
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_node("C", []);
        g.add_edge(a, b);
        let q = PatternBuilder::new()
            .node("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .node("c", Predicate::label("C"))
            .edge("a", "b", Bound::ONE)
            .edge("c", "b", Bound::ONE)
            .build()
            .unwrap();
        let raw = naive_bounded_fixpoint(&g, &q, candidate_sets(&g, &q));
        let sizes: Vec<usize> = raw.iter().map(BitSet::count).collect();
        assert_eq!(sizes, vec![1, 1, 0]);
        assert!(naive_bounded_simulation(&g, &q).is_empty());
    }

    #[test]
    fn naive_sim_fails_on_fig1() {
        let f = collaboration_fig1();
        let m = naive_simulation(&f.graph, &fig1_pattern_simulation());
        assert!(m.is_empty());
    }

    #[test]
    fn validity_checker_accepts_real_result() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = naive_bounded_simulation(&f.graph, &q);
        assert!(is_valid_bounded_relation(&f.graph, &q, &m));
    }

    #[test]
    fn validity_checker_rejects_bogus_pair() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let mut m = naive_bounded_simulation(&f.graph, &q);
        // force Fred into the SD matches: invalid before e1
        let sd = q.node_id("sd").unwrap();
        m.sets_mut()[sd.index()].insert(f.fred);
        assert!(!is_valid_bounded_relation(&f.graph, &q, &m));
    }
}
