//! Generators shared by the workspace-level property suites: compact raw
//! encodings of random graphs and patterns.
#![allow(dead_code)]

use expfinder::pattern::{Bound, PNodeId, Pattern, PatternEdge, PatternNode, Predicate};
use expfinder::prelude::*;
use proptest::prelude::*;

/// A compact description of a random graph: labels per node + edge pairs.
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
        if a != b {
            g.add_edge(NodeId(a as u32), NodeId(b as u32));
        }
    }
    g
}

/// A compact description of a random pattern.
#[derive(Clone, Debug)]
pub struct RawPattern {
    pub labels: Vec<u8>,
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
            predicate: Predicate::label(format!("L{l}"))
                .and(Predicate::attr_ge("experience", *t as i64)),
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
