//! The one copy of the test generators and oracles, used here by
//! `rank_equivalence` and included by path from the workspace root's
//! `tests/differential.rs`, `tests/properties.rs`, `tests/concurrency.rs`,
//! `tests/batch.rs` and `tests/pipeline.rs`: compact raw encodings of random graphs and
//! patterns and the match oracle ([`oracle`]: `core::naive`). The
//! reference ranking `core::rank` is checked against lives in
//! `core::naive` too (`reference_rank`, `reference_result_graph`).
#![allow(dead_code)]

use expfinder_core::naive::{naive_bounded_simulation, naive_dual_simulation};
use expfinder_core::{MatchRelation, Semantics};
use expfinder_graph::{AttrValue, DiGraph, GraphView, NodeId};
use expfinder_pattern::{Bound, PNodeId, Pattern, PatternEdge, PatternNode, Predicate};
use proptest::prelude::*;

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

/// Raw label `l`'s string. Next to plain ones, the alphabet holds what a
/// pattern's text must decode or escape: non-ASCII, `"`, `\`, a tab, a
/// newline, and `),L(`, which once forged the old encoding's separators.
pub fn label(l: u8) -> &'static str {
    ["L0", "Müller", "a),L(b \"q\" \\ \t\n", "L3"][l as usize % 4]
}

pub fn build_graph(raw: &RawGraph) -> DiGraph {
    let mut g = DiGraph::new();
    for (l, e) in raw.labels.iter().zip(&raw.exps) {
        g.add_node(label(*l), [("experience", AttrValue::Int(*e as i64))]);
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
    /// otherwise label ∧ experience ≥ [`threshold_value`] (ineligible).
    /// Two nodes in three are pure-label, so that a pattern often chains
    /// two of them: only then can a reach-index entry be asked for a seed
    /// class that refinement already shrank.
    pub thresholds: Vec<u8>,
    pub edges: Vec<(u8, u8, u8)>, // from, to, bound (0 ⇒ unbounded)
}

pub fn raw_pattern() -> impl Strategy<Value = RawPattern> {
    (2usize..=4).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0u8..3, n);
        let threshold = prop_oneof![Just(0u8), Just(0u8), 1u8..6];
        let thresholds = proptest::collection::vec(threshold, n);
        let edges = proptest::collection::vec((0u8..n as u8, 0u8..n as u8, 0u8..4), 1..n * 2);
        (labels, thresholds, edges).prop_map(|(labels, thresholds, edges)| RawPattern {
            labels,
            thresholds,
            edges,
        })
    })
}

/// The bound a nonzero threshold code sets on `experience`: an int (1,
/// 2), an integral float (1.0, 2.0) or `-0.0` (5) — numbers whose text
/// once read back as another value.
pub fn threshold_value(t: u8) -> AttrValue {
    match t {
        1 | 2 => AttrValue::Int(t as i64),
        3 | 4 => AttrValue::Float((t - 2) as f64),
        _ => AttrValue::Float(-0.0),
    }
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
                Predicate::label(label(*l))
            } else {
                Predicate::label(label(*l))
                    .and(Predicate::attr_ge("experience", threshold_value(*t)))
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

/// One write to a graph built by [`build_graph`]: node adds and attribute
/// writes drop the label index, edge inserts keep it. Node operands wrap
/// onto the current node range.
#[derive(Clone, Debug)]
pub enum VertexOp {
    /// A node labelled [`label`]`(l)` with `experience = e`.
    Add(u8, u8),
    SetExperience(u8, u8),
    Insert(u8, u8),
}

pub fn vertex_ops() -> impl Strategy<Value = Vec<VertexOp>> {
    let op = prop_oneof![
        (0u8..4, 0u8..3).prop_map(|(l, e)| VertexOp::Add(l, e)),
        (0u8..64, 0u8..3).prop_map(|(v, e)| VertexOp::SetExperience(v, e)),
        (0u8..64, 0u8..64).prop_map(|(a, b)| VertexOp::Insert(a, b)),
    ];
    proptest::collection::vec(op, 1..8)
}

pub fn apply_vertex_op(g: &mut DiGraph, op: &VertexOp) {
    let node = |i: u8| NodeId((i as usize % g.node_count()) as u32);
    match *op {
        VertexOp::Add(l, e) => {
            g.add_node(label(l), [("experience", AttrValue::Int(e as i64))]);
        }
        VertexOp::SetExperience(v, e) => {
            g.set_attr(node(v), "experience", AttrValue::Int(e as i64))
        }
        VertexOp::Insert(a, b) => {
            let (a, b) = (node(a), node(b));
            g.add_edge(a, b);
        }
    }
}

/// `M(Q,G)` by the naive fixpoint that judges `semantics`, which shares
/// no code with the engine. Plain simulation is judged by
/// `naive_simulation` directly.
pub fn oracle<G: GraphView>(g: &G, q: &Pattern, semantics: Semantics) -> MatchRelation {
    match semantics {
        Semantics::Bounded => naive_bounded_simulation(g, q),
        Semantics::Dual => naive_dual_simulation(g, q),
    }
}
