//! Generators and the oracle shared by the equivalence suites (and, by
//! path, the runtime crate's `deadline_props`): compact raw encodings of
//! random graphs and patterns (the same shapes the workspace-level tests
//! use), and the queue engine they are checked against.
#![allow(dead_code)]

use expfinder_core::{evaluate, EvalOptions, EvalRequest, MatchRelation, Semantics};
use expfinder_graph::{AttrValue, DiGraph, NodeId};
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
