//! Generators and the oracle shared by the equivalence suites (and, by
//! path, the runtime crate's `deadline_props`): compact raw encodings of
//! random graphs and patterns (the same shapes the workspace-level tests
//! use), the queue engine they are checked against, and the reference
//! ranking `core::rank` is checked against.
#![allow(dead_code)]

use expfinder_core::{evaluate, EvalOptions, EvalRequest, MatchRelation, RankedMatch, Semantics};
use expfinder_graph::bfs::{BfsScratch, Direction};
use expfinder_graph::{AttrValue, DiGraph, GraphView, NodeId};
use expfinder_pattern::{Bound, PNodeId, Pattern, PatternEdge, PatternNode, Predicate};
use proptest::prelude::*;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

#[derive(Clone, Debug)]
pub struct RawGraph {
    pub labels: Vec<u8>,
    pub exps: Vec<u8>,
    pub edges: Vec<(u8, u8)>,
}

pub fn raw_graph(max_nodes: usize) -> impl Strategy<Value = RawGraph> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0u8..3, n);
        let exps = proptest::collection::vec(0u8..3, n);
        let edges = proptest::collection::vec((0u8..n as u8, 0u8..n as u8), 0..n * 3);
        (labels, exps, edges).prop_map(|(labels, exps, edges)| RawGraph {
            labels,
            exps,
            edges,
        })
    })
}

pub fn build_graph(raw: &RawGraph) -> DiGraph {
    let mut g = DiGraph::new();
    for (l, e) in raw.labels.iter().zip(&raw.exps) {
        g.add_node(
            &format!("L{l}"),
            [("experience", AttrValue::Int(*e as i64))],
        );
    }
    for &(a, b) in &raw.edges {
        g.add_edge(NodeId(a as u32), NodeId(b as u32));
    }
    g
}

#[derive(Clone, Debug)]
pub struct RawPattern {
    pub labels: Vec<u8>,
    /// Threshold 0 ⇒ a pure-label predicate (index-eligible seed class);
    /// otherwise label ∧ experience ≥ t (ineligible).
    pub thresholds: Vec<u8>,
    pub edges: Vec<(u8, u8, u8)>, // from, to, bound (0 ⇒ unbounded)
}

pub fn raw_pattern() -> impl Strategy<Value = RawPattern> {
    (2usize..=4).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u8..3, n);
        let thresholds = proptest::collection::vec(0u8..3, n);
        let edges = proptest::collection::vec((0u8..n as u8, 0u8..n as u8, 0u8..4), 1..n * 2);
        (labels, thresholds, edges).prop_map(|(labels, thresholds, edges)| RawPattern {
            labels,
            thresholds,
            edges,
        })
    })
}

pub fn build_pattern(raw: &RawPattern, force_bound_one: bool) -> Pattern {
    let nodes: Vec<PatternNode> = raw
        .labels
        .iter()
        .zip(&raw.thresholds)
        .enumerate()
        .map(|(i, (l, t))| PatternNode {
            name: format!("v{i}"),
            predicate: if *t == 0 {
                Predicate::label(format!("L{l}"))
            } else {
                Predicate::label(format!("L{l}")).and(Predicate::attr_ge("experience", *t as i64))
            },
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for &(f, t, b) in &raw.edges {
        if f == t || !seen.insert((f, t)) {
            continue;
        }
        let bound = if force_bound_one {
            Bound::ONE
        } else if b == 0 {
            Bound::Unbounded
        } else {
            Bound::hops(b as u32)
        };
        edges.push(PatternEdge {
            from: PNodeId(f as u32),
            to: PNodeId(t as u32),
            bound,
        });
    }
    Pattern::from_parts(nodes, edges, Some(PNodeId(0))).expect("valid pattern")
}

/// The queue-based oracle: `FixpointEngine::Queue`, nothing attached.
pub fn oracle(g: &DiGraph, q: &Pattern, semantics: Semantics) -> MatchRelation {
    let req = EvalRequest {
        options: EvalOptions::queue(),
        ..EvalRequest::new(semantics)
    };
    evaluate(g, q, req).unwrap().0
}

/// The reference `G_r`, built the plain way: per-node hash maps, one BFS
/// per (pattern edge, source match). Shares no code with
/// `core::result_graph`.
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
    let mut bfs = BfsScratch::new();
    for (ei, e) in q.edges().iter().enumerate() {
        for v in m.matches(e.from).iter() {
            let ball = bfs.ball(g, v, e.bound.depth(), Direction::Forward);
            for (w, d) in ball.iter() {
                if d >= 1 && m.contains(e.to, w) {
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
