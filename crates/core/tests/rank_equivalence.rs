//! Ranking against an oracle that is not the code under test.
//!
//! `common::reference_rank` is an independent implementation of paper
//! §II's `f(u_o, v)` — its own hash-map `G_r`, its own full-vector
//! Dijkstra, a `|V_r|` scan per candidate, a full sort. `core::rank` and
//! `core::result_graph` must agree with it on node order and on every
//! rank **bit for bit**, through all public ranking functions, for every
//! `k`, on one thread or four, over the live graph or its CSR snapshot.
//! This is the safety net a rewrite of the ranking kernel lands against.
//!
//! The same oracle also hands out its `G_r` (`reference_result_graph`), so
//! the result graph is checked as a structure — node set, index, edge set,
//! membership — not only through the ranks read off it.

use expfinder_core::{
    bounded_simulation, rank_matches, rank_matches_top_k, rank_matches_top_k_cancellable,
    rank_value, top_k, BuildOptions, MatchRelation, RankedMatch, ResultGraph,
};
use expfinder_graph::dijkstra::UNREACHABLE;
use expfinder_graph::generate::{collaboration, erdos_renyi, CollabConfig, NodeSpec};
use expfinder_graph::{CsrGraph, DiGraph, GraphView, NodeId};
use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
use expfinder_pattern::{Bound, Pattern, PatternBuilder, PatternEdge, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

mod common;
use common::{reference_rank, reference_result_graph, ReferenceResultGraph};

/// Node order and rank bits, the two things a client can observe.
fn bits(list: &[RankedMatch]) -> Vec<(u32, u64)> {
    list.iter().map(|x| (x.node.0, x.rank.to_bits())).collect()
}

/// `q` with its first edge made unbounded (`*`).
fn with_unbounded_edge(q: &Pattern) -> Pattern {
    let mut edges: Vec<PatternEdge> = q.edges().to_vec();
    if let Some(e) = edges.first_mut() {
        e.bound = Bound::Unbounded;
    }
    Pattern::from_parts(q.nodes().to_vec(), edges, q.output()).expect("still a valid pattern")
}

/// `rg` is the reference's `G_r`: same sorted node set, the sorted vector
/// is the index, same edge set, same per-pattern-node membership.
fn assert_same_structure(
    rg: &ResultGraph,
    want: &ReferenceResultGraph,
    data_nodes: usize,
    q: &Pattern,
    m: &MatchRelation,
    what: &str,
) {
    assert_eq!(rg.nodes(), &want.nodes[..], "{what}: nodes");
    assert_eq!(rg.node_count(), want.nodes.len(), "{what}: node_count");
    assert!(
        rg.nodes().windows(2).all(|w| w[0] < w[1]),
        "{what}: sorted, once each"
    );
    for (i, &v) in rg.nodes().iter().enumerate() {
        assert_eq!(rg.local(v), Some(i as u32), "{what}: local({v:?})");
    }
    for v in (0..data_nodes as u32 + 2).map(NodeId) {
        if want.nodes.binary_search(&v).is_err() {
            assert_eq!(rg.local(v), None, "{what}: {v:?} is no result node");
            assert!(rg.dists_from(v).is_none() && rg.dists_to(v).is_none());
        }
    }
    let got: BTreeSet<_> = rg
        .edges()
        .iter()
        .map(|e| (e.from, e.to, e.weight, e.pattern_edge))
        .collect();
    assert_eq!(got.len(), rg.edges().len(), "{what}: an edge listed twice");
    assert_eq!(got, want.edges, "{what}: edges");
    for u in q.ids() {
        assert_eq!(rg.matches_of(u), m.matches_vec(u), "{what}: matches_of");
    }
}

/// Check every public ranking entry point, on `view`, against `want`
/// (the reference's full ranking), for every interesting `k`, and the
/// result graph itself against the reference's.
fn check<V: GraphView + Sync>(
    view: &V,
    q: &Pattern,
    m: &MatchRelation,
    want: &[RankedMatch],
    what: &str,
) {
    let want_rg = reference_result_graph(view, q, m);
    for threads in [1, 4] {
        let rg = ResultGraph::build_with(view, q, m, BuildOptions { threads });
        let what = &format!("{what}, {threads} threads");
        assert_same_structure(&rg, &want_rg, view.node_count(), q, m, what);
        let all = rank_matches(&rg, q, m).unwrap();
        assert_eq!(bits(&all), bits(want), "{what}: rank_matches");
        for x in want {
            let got = rank_value(&rg, x.node);
            assert_eq!(
                got.to_bits(),
                x.rank.to_bits(),
                "{what}: rank_value({:?})",
                x.node
            );
        }
        for k in [0, 1, 2, want.len(), want.len() + 3] {
            let expect = bits(&want[..k.min(want.len())]);
            let got = rank_matches_top_k(&rg, q, m, k).unwrap();
            assert_eq!(bits(&got), expect, "{what}: rank_matches_top_k k={k}");
            // the cancellable pair the engine calls, token disarmed
            let rg2 = ResultGraph::build_cancellable(view, q, m, BuildOptions { threads }, None)
                .expect("no token");
            let got = rank_matches_top_k_cancellable(&rg2, q, m, k, None).unwrap();
            assert_eq!(bits(&got), expect, "{what}: cancellable k={k}");
            let got = top_k(view, q, m, k).unwrap();
            assert_eq!(bits(&got), expect, "{what}: top_k k={k}");
        }
    }
}

/// Reference vs. `core` over live and CSR views of one graph.
fn differential(g: &DiGraph, q: &Pattern, what: &str) -> usize {
    let m = bounded_simulation(g, q).unwrap();
    let want = reference_rank(g, q, &m, usize::MAX);
    check(g, q, &m, &want, what);
    check(&CsrGraph::snapshot(g), q, &m, &want, what);
    want.len()
}

#[test]
fn ranking_is_bit_identical_to_the_reference() {
    let mut rng = StdRng::seed_from_u64(1701);
    let spec = NodeSpec::uniform(3, 4);
    let shapes = [
        PatternShape::Chain,
        PatternShape::Star,
        PatternShape::Tree,
        PatternShape::Cycle,
        PatternShape::Dag,
    ];
    let (mut ranked, mut infinite) = (0, 0);
    for trial in 0..6 {
        // sparse graphs leave candidates isolated, dense ones put them on
        // cycles through themselves
        let n = rng.gen_range(30..70);
        let g = erdos_renyi(&mut rng, n, n * (1 + trial % 4), &spec);
        for shape in shapes {
            let mut cfg = PatternConfig::new(shape, rng.gen_range(3..=4), spec.labels.clone());
            cfg.bound_range = (1, 3);
            cfg.extra_edges = trial % 2;
            let q = random_pattern(&mut rng, &cfg);
            let what = format!("trial {trial} {shape:?}");
            ranked += differential(&g, &q, &what);
            ranked += differential(&g, &with_unbounded_edge(&q), &format!("{what} *"));
        }
        // a pattern with no edges: every candidate is isolated, rank +∞,
        // ordered by node id alone
        let lone = PatternBuilder::new()
            .node_output("a", Predicate::label(spec.labels[0].clone()))
            .build()
            .unwrap();
        infinite += differential(&g, &lone, &format!("trial {trial} lone"));
    }
    // the paper's own shape: team leads ranked inside a collaboration network
    let g = collaboration(
        &mut rng,
        &CollabConfig {
            teams: 40,
            ..CollabConfig::default()
        },
    );
    let q = expfinder_pattern::fixtures::fig1_pattern();
    ranked += differential(&g, &q, "collaboration × fig1");
    assert!(
        ranked > 100 && infinite > 20,
        "vacuous: {ranked} ranked, {infinite} isolated"
    );
}

#[test]
fn candidate_on_a_cycle_through_itself() {
    // a ⇄ b under a →(≤1) b →(≤1) a: G_r has the cycle a → b → a, so the
    // backward and forward searches from `a` both come back to `a`; its
    // own distance stays 0 and it is not a member of V'_r
    let mut g = DiGraph::new();
    let a = g.add_node("A", []);
    let b = g.add_node("B", []);
    g.add_edge(a, b);
    g.add_edge(b, a);
    let q = PatternBuilder::new()
        .node_output("a", Predicate::label("A"))
        .node("b", Predicate::label("B"))
        .edge("a", "b", Bound::ONE)
        .edge("b", "a", Bound::ONE)
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    let want = reference_rank(&g, &q, &m, 5);
    assert_eq!(want.len(), 1);
    assert_eq!(want[0].rank, 2.0);
    assert_eq!(bits(&top_k(&g, &q, &m, 5).unwrap()), bits(&want));
    differential(&g, &q, "self cycle");
}

#[test]
fn empty_relation_gives_the_empty_graph() {
    let f = expfinder_graph::fixtures::collaboration_fig1();
    let q = expfinder_pattern::fixtures::fig1_pattern();
    let m = MatchRelation::empty(&q, f.graph.node_count());
    for threads in [1, 4] {
        let rg = ResultGraph::build_with(&f.graph, &q, &m, BuildOptions { threads });
        let want = reference_result_graph(&f.graph, &q, &m);
        assert!(want.nodes.is_empty() && want.edges.is_empty());
        assert_same_structure(&rg, &want, f.graph.node_count(), &q, &m, "empty");
        assert!(rank_matches(&rg, &q, &m).unwrap().is_empty());
    }
}

#[test]
fn one_data_node_in_two_roles_is_one_result_node() {
    // a → b → c under  a →(≤1) b1,  b2 →(≤1) c : `b` matches both B
    // nodes — the head of one pattern edge and the tail of another — and
    // must be one result node carrying the arcs of both roles
    let mut g = DiGraph::new();
    let a = g.add_node("A", []);
    let b = g.add_node("B", []);
    let c = g.add_node("C", []);
    g.add_edge(a, b);
    g.add_edge(b, c);
    let q = PatternBuilder::new()
        .node_output("a", Predicate::label("A"))
        .node("b1", Predicate::label("B"))
        .node("b2", Predicate::label("B"))
        .node("c", Predicate::label("C"))
        .edge("a", "b1", Bound::ONE)
        .edge("b2", "c", Bound::ONE)
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    let rg = ResultGraph::build(&g, &q, &m);
    assert_eq!(rg.nodes(), &[a, b, c]);
    assert_eq!(rg.dists_from(a).unwrap(), vec![0, 1, 2], "through b");
    assert_eq!(rg.dists_to(c).unwrap(), vec![2, 1, 0]);
    assert_eq!(rg.dists_from(c).unwrap(), vec![UNREACHABLE, UNREACHABLE, 0]);
    assert_eq!(rank_value(&rg, a), 1.5);
    differential(&g, &q, "two roles");
}

#[test]
fn two_pattern_edges_witnessed_by_one_arc() {
    // a → x → b, a → b under  a →(≤1) b1,  a →(≤2) b2 : both pattern edges
    // are witnessed by (a, b) — and the longer one by nothing shorter — so
    // `edges()` lists the pair once per pattern edge while the distance
    // structure holds one arc
    let mut g = DiGraph::new();
    let a = g.add_node("A", []);
    let x = g.add_node("X", []);
    let b = g.add_node("B", []);
    g.add_edge(a, x);
    g.add_edge(x, b);
    g.add_edge(a, b);
    let q = PatternBuilder::new()
        .node_output("a", Predicate::label("A"))
        .node("b1", Predicate::label("B"))
        .node("b2", Predicate::label("B"))
        .edge("a", "b1", Bound::ONE)
        .edge("a", "b2", Bound::hops(2))
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    let rg = ResultGraph::build(&g, &q, &m);
    let listed: Vec<_> = rg
        .edges()
        .iter()
        .map(|e| (e.from, e.to, e.weight, e.pattern_edge))
        .collect();
    assert_eq!(listed, vec![(a, b, 1, 0), (a, b, 1, 1)]);
    assert_eq!(rg.dists_from(a).unwrap(), vec![0, 1]);
    assert_eq!(rg.dists_to(b).unwrap(), vec![1, 0]);
    assert_eq!(rank_value(&rg, a), 1.0, "one neighbour at distance 1");
    differential(&g, &q, "shared arc");
}
