//! Ranking against an oracle that is not the code under test.
//!
//! `naive::reference_rank` is an independent implementation of paper
//! §II's `f(u_o, v)` — its own hash-map `G_r`, its own full-vector
//! Dijkstra, a `|V_r|` scan per candidate, a full sort. `core::rank` and
//! `core::result_graph` must agree with it on node order and on every
//! rank **bit for bit**, through all public ranking functions — the
//! ranks read off a built `G_r` and the ones a cold read computes from
//! its candidates, expanding rows on demand ([`rank_candidates`]) — for
//! every `k`, over the live graph or its CSR snapshot. This is the
//! safety net a rewrite of the ranking kernel lands against.
//!
//! The same oracle also hands out its `G_r` (`reference_result_graph`), so
//! the result graph is checked as a structure — node set and edge set —
//! not only through the ranks read off it. And the two rankers must do
//! the same search work: both read one arc per `(v, w)` pair, so they
//! settle the same nodes and relax the same arcs; only the heap pushes
//! may differ, as on-demand rows list their arcs in ball order.
//!
//! Every `G_r` [`check`] builds and ranks, in every test of this file,
//! goes through one shared [`RankScratch`], as a pooled read does: cases
//! whose graphs grow and shrink follow each other on it, so a BFS,
//! memoised row or search entry an earlier case left behind shows up as
//! a structure or a rank the reference does not have.

use expfinder_core::{
    bounded_simulation, rank_candidates, rank_matches_top_k, rank_matches_top_k_with, top_k,
    CancelToken, EvalError, MatchRelation, RankScratch, RankedMatch, ResultArcs, ResultGraph,
};
use expfinder_graph::bfs::Direction;
use expfinder_graph::dijkstra::{DijkstraScratch, DijkstraWork, UNREACHABLE};
use expfinder_graph::generate::{collaboration, erdos_renyi, CollabConfig, NodeSpec};
use expfinder_graph::{CsrGraph, DiGraph, GraphView, NodeId};
use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
use expfinder_pattern::{Bound, Pattern, PatternBuilder, PatternEdge, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{LazyLock, Mutex, MutexGuard};

mod common;
use expfinder_core::naive::{reference_rank, reference_result_graph, ReferenceResultGraph};

/// Node order and rank bits, the two things a client can observe.
fn bits(list: &[RankedMatch]) -> Vec<(u32, u64)> {
    list.iter().map(|x| (x.node.0, x.rank.to_bits())).collect()
}

/// Every result node's distance from (`Forward`) or to (`Backward`) `v`,
/// in node order.
fn dists(mut rg: &ResultGraph, dir: Direction, v: NodeId) -> Vec<u64> {
    let mut s = DijkstraScratch::new();
    s.run(rg.one_way(dir), v.0);
    rg.nodes().iter().map(|w| s.dist(w.0)).collect()
}

/// The whole ranking of `m` over `rg`.
fn rank_all(rg: &ResultGraph, q: &Pattern, m: &MatchRelation) -> Vec<RankedMatch> {
    rank_matches_top_k(rg, q, m, usize::MAX).unwrap()
}

/// Nodes settled and arcs relaxed between two readings of a scratch's
/// work: what the two rankers must agree on.
fn searched(before: DijkstraWork, after: DijkstraWork) -> (u64, u64) {
    (
        after.settled - before.settled,
        after.relaxed - before.relaxed,
    )
}

/// The one scratch every [`check`] of this file builds and ranks on.
fn shared_scratch() -> MutexGuard<'static, RankScratch> {
    static SHARED: LazyLock<Mutex<RankScratch>> = LazyLock::new(Mutex::default);
    // a failed case must not hide the others behind a poisoned lock
    SHARED.lock().unwrap_or_else(|e| e.into_inner())
}

/// `q` with its first edge made unbounded (`*`).
fn with_unbounded_edge(q: &Pattern) -> Pattern {
    let mut edges: Vec<PatternEdge> = q.edges().to_vec();
    if let Some(e) = edges.first_mut() {
        e.bound = Bound::Unbounded;
    }
    Pattern::from_parts(q.nodes().to_vec(), edges, q.output()).expect("still a valid pattern")
}

/// `rg` is the reference's `G_r`: same sorted node set, same edge set.
fn assert_same_structure(rg: &ResultGraph, want: &ReferenceResultGraph, what: &str) {
    assert_eq!(rg.nodes(), &want.nodes[..], "{what}: nodes");
    assert_eq!(rg.node_count(), want.nodes.len(), "{what}: node_count");
    assert!(
        rg.nodes().windows(2).all(|w| w[0] < w[1]),
        "{what}: sorted, once each"
    );
    let got: BTreeSet<_> = rg
        .edges()
        .iter()
        .map(|e| (e.from, e.to, e.weight, e.pattern_edge))
        .collect();
    assert_eq!(got.len(), rg.edges().len(), "{what}: an edge listed twice");
    assert_eq!(got, want.edges, "{what}: edges");
    assert!(
        rg.edges().iter().all(|e| e.from != e.to),
        "{what}: a self-arc"
    );
}

/// Check every public ranking entry point, on `view`, against `want`
/// (the reference's full ranking), for every interesting `k` and each of
/// `more_ks`; the result graph itself against the reference's; and the
/// search work of the two rankers against each other — all built and
/// ranked on the file's [`shared_scratch`].
fn check<V: GraphView>(
    view: &V,
    q: &Pattern,
    m: &MatchRelation,
    want: &[RankedMatch],
    what: &str,
    more_ks: &[usize],
) {
    let want_rg = reference_result_graph(view, q, m);
    let mut reused = shared_scratch();
    let rg = ResultGraph::build_with(view, q, m, &mut reused);
    assert_same_structure(&rg, &want_rg, what);
    assert_eq!(bits(&rank_all(&rg, q, m)), bits(want), "{what}: all ranked");
    let ks = [0, 1, 2, want.len(), want.len() + 3];
    for &k in ks.iter().chain(more_ks) {
        let expect = bits(&want[..k.min(want.len())]);
        let got = rank_matches_top_k(&rg, q, m, k).unwrap();
        assert_eq!(bits(&got), expect, "{what}: rank_matches_top_k k={k}");
        // built and ranked on a scratch the previous `k` already built,
        // ranked and expanded rows on
        let rg2 = ResultGraph::build_with(view, q, m, &mut reused);
        assert_same_structure(&rg2, &want_rg, what);
        let before = reused.work();
        let got = rank_matches_top_k_with(&rg2, q, m, k, &mut reused).unwrap();
        assert_eq!(bits(&got), expect, "{what}: rank_matches_top_k_with k={k}");
        let built = reused.work();
        // what a cold read calls: no `G_r` built, rows expanded on demand
        let got = rank_candidates(view, q, m, k, &mut reused, None).unwrap();
        assert_eq!(bits(&got), expect, "{what}: rank_candidates k={k}");
        assert_eq!(
            searched(built, reused.work()),
            searched(before, built),
            "{what}: on-demand settled and relaxed vs the built G_r's, k={k}"
        );
        let got = top_k(view, q, m, k).unwrap();
        assert_eq!(bits(&got), expect, "{what}: top_k k={k}");
    }
}

/// Reference vs. `core` over live and CSR views of one graph.
fn differential(g: &DiGraph, q: &Pattern, what: &str) -> usize {
    differential_at(g, q, what, &[])
}

/// [`differential`], checking each of `more_ks` too.
fn differential_at(g: &DiGraph, q: &Pattern, what: &str, more_ks: &[usize]) -> usize {
    let m = bounded_simulation(g, q).unwrap();
    let want = reference_rank(g, q, &m, usize::MAX);
    check(g, q, &m, &want, what, more_ks);
    check(&CsrGraph::snapshot(g), q, &m, &want, what, more_ks);
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
fn many_candidates_tie_at_the_kth_rank() {
    // under a →(≤2) b, an A with one B child is an isolated pair of G_r,
    // rank 1; an A with a B child and a B grandchild ranks 3/2. Twelve of
    // each, ids interleaved: every k cuts through a tie, and a 3/2
    // candidate entered early is pushed out by a later rank-1 one of
    // larger id
    let tie = 12;
    let mut g = DiGraph::new();
    for i in 0..2 * tie {
        let a = g.add_node("A", []);
        let b = g.add_node("B", []);
        g.add_edge(a, b);
        if i % 2 == 1 {
            let via = g.add_node("C", []);
            let far = g.add_node("B", []);
            g.add_edge(a, via);
            g.add_edge(via, far);
        }
    }
    let q = PatternBuilder::new()
        .node_output("a", Predicate::label("A"))
        .node("b", Predicate::label("B"))
        .edge("a", "b", Bound::hops(2))
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    let want = reference_rank(&g, &q, &m, usize::MAX);
    let ranks: Vec<f64> = want.iter().map(|x| x.rank).collect();
    assert_eq!(ranks, [[1.0; 12], [1.5; 12]].concat());
    let ks = [1, tie - 1, tie, tie + 1, 2 * tie - 1, 2 * tie, 2 * tie + 1];
    assert_eq!(differential_at(&g, &q, "ties", &ks), 2 * tie);

    // the searches give up on a candidate as soon as it provably cannot
    // beat the k-th entry: past the first candidate (rank 1, the least
    // any candidate can have), top 1 ranks no one, and expands no row
    let mut scratch = RankScratch::new();
    rank_candidates(&g, &q, &m, 1, &mut scratch, None).unwrap();
    assert_eq!(
        (scratch.ranked(), scratch.pruned()),
        (1, 2 * tie as u64 - 1)
    );
    assert_eq!((scratch.work().settled, scratch.expand_visits()), (3, 2));
    let before = (scratch.ranked(), scratch.pruned());
    rank_candidates(&g, &q, &m, tie, &mut scratch, None).unwrap();
    let pruned = scratch.pruned() - before.1;
    assert_eq!(scratch.ranked() - before.0 + pruned, 2 * tie as u64);
    assert!(
        pruned > 0,
        "a 3/2 candidate past a full top {tie} is pruned"
    );
}

#[test]
fn empty_relation_gives_the_empty_graph() {
    let f = expfinder_graph::fixtures::collaboration_fig1();
    let q = expfinder_pattern::fixtures::fig1_pattern();
    let m = MatchRelation::empty(&q, f.graph.node_count());
    let rg = ResultGraph::build_with(&f.graph, &q, &m, &mut shared_scratch());
    let want = reference_result_graph(&f.graph, &q, &m);
    assert!(want.nodes.is_empty() && want.edges.is_empty());
    assert_same_structure(&rg, &want, "empty");
    assert!(rank_all(&rg, &q, &m).is_empty());
    let ranked = rank_candidates(&f.graph, &q, &m, 5, &mut shared_scratch(), None);
    assert!(ranked.unwrap().is_empty());
}

#[test]
fn self_loops_and_two_cycles_give_no_self_arc() {
    // every node has a self-loop, and a ⇄ b, b ⇄ c, c ⇄ d form 2-cycles
    // (d is the one B). Under  x →(≤1) y,  y →(≤2) x,  x →(≤2) z  with x,
    // y over A, b and c match both ends of the bound-1 and the bound-2
    // edge, and `lone` (whose only other arc is lone → d) matches them
    // through its self-loop alone; G_r must still carry no arc from a
    // node to itself, and the ranks stay the reference's
    let mut g = DiGraph::new();
    let [a, b, c] = ["A", "A", "A"].map(|l| g.add_node(l, []));
    let d = g.add_node("B", []);
    let lone = g.add_node("A", []);
    for v in [a, b, c, d, lone] {
        g.add_edge(v, v);
    }
    for (v, w) in [(a, b), (b, c), (c, d)] {
        g.add_edge(v, w);
        g.add_edge(w, v);
    }
    g.add_edge(lone, d);
    let q = PatternBuilder::new()
        .node_output("x", Predicate::label("A"))
        .node("y", Predicate::label("A"))
        .node("z", Predicate::label("B"))
        .edge("x", "y", Bound::ONE)
        .edge("y", "x", Bound::hops(2))
        .edge("x", "z", Bound::hops(2))
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    let (x, y) = (q.node_id("x").unwrap(), q.node_id("y").unwrap());
    let both_ends: Vec<NodeId> = m
        .matches_vec(x)
        .into_iter()
        .filter(|&v| m.contains(y, v))
        .collect();
    assert_eq!(both_ends, [b, c, lone]);
    let rg = ResultGraph::build(&g, &q, &m);
    assert!(rg.edges().iter().all(|e| e.from != e.to));
    assert!(!rg.edges().is_empty());
    assert_eq!(differential(&g, &q, "self-loops"), m.matches(x).count());
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
    assert_eq!(dists(&rg, Direction::Forward, a), [0, 1, 2], "through b");
    assert_eq!(dists(&rg, Direction::Backward, c), [2, 1, 0]);
    assert_eq!(
        dists(&rg, Direction::Forward, c),
        [UNREACHABLE, UNREACHABLE, 0]
    );
    assert_eq!(
        bits(&rank_all(&rg, &q, &m)),
        bits(&[RankedMatch { node: a, rank: 1.5 }])
    );
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
    assert_eq!(dists(&rg, Direction::Forward, a), [0, 1]);
    assert_eq!(dists(&rg, Direction::Backward, b), [1, 0]);
    assert_eq!(
        bits(&rank_all(&rg, &q, &m)),
        bits(&[RankedMatch { node: a, rank: 1.0 }]),
        "one neighbour at distance 1"
    );
    differential(&g, &q, "shared arc");
}

#[test]
fn thousands_of_isolated_candidates_around_a_few_arcs() {
    // the benchmark's shape: |V_r| in the thousands and fifty arcs, so
    // almost every candidate reaches nothing, and the few that do sit
    // between long runs of ones that do not, all on one scratch
    let mut g = DiGraph::new();
    let people: Vec<NodeId> = (0..2100).map(|_| g.add_node("A", [])).collect();
    let leads: Vec<NodeId> = (0..20).map(|_| g.add_node("B", [])).collect();
    let heads: Vec<NodeId> = (0..10).map(|_| g.add_node("C", [])).collect();
    for (i, &b) in leads.iter().enumerate() {
        g.add_edge(b, people[i * 97 + 3]);
        g.add_edge(b, people[i * 89 + 50]);
    }
    for (i, &c) in heads.iter().enumerate() {
        g.add_edge(c, leads[2 * i]);
    }
    let q = PatternBuilder::new()
        .node_output("a", Predicate::label("A"))
        .node("b", Predicate::label("B"))
        .node("c", Predicate::label("C"))
        .edge("b", "a", Bound::ONE)
        .edge("c", "b", Bound::hops(2))
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    let rg = ResultGraph::build(&g, &q, &m);
    let candidates = m.matches(q.output().unwrap()).count();
    let arcs = rg.edges().len();
    assert!(
        candidates >= 2000 && arcs <= 50,
        "{candidates} candidates, {arcs} arcs"
    );

    let want = reference_rank(&g, &q, &m, usize::MAX);
    let reached = want.iter().filter(|x| x.rank.is_finite()).count();
    assert!(
        (20..100).contains(&reached),
        "{reached} candidates reach something"
    );
    // each isolated candidate settles itself once per direction; the rest
    // add at most a lead and its head per arc into them — on the built
    // `G_r` and on rows expanded on demand alike
    let mut scratch = RankScratch::new();
    let got = rank_matches_top_k_with(&rg, &q, &m, usize::MAX, &mut scratch).unwrap();
    assert_eq!(bits(&got), bits(&want));
    let mut on_demand = RankScratch::new();
    let got = rank_candidates(&g, &q, &m, usize::MAX, &mut on_demand, None).unwrap();
    assert_eq!(bits(&got), bits(&want));
    for work in [scratch.work(), on_demand.work()] {
        assert!(
            work.settled <= 2 * candidates as u64 + 2 * arcs as u64,
            "{} nodes settled for {candidates} candidates",
            work.settled
        );
    }
    differential(&g, &q, "isolated crowd");
}

#[test]
fn each_candidate_reaches_a_strict_subset_of_the_one_before() {
    // a chain A0 → A1 → … → A29 with a shortcut A_i → A_{i+2} at every
    // third node, ranked under a →(≤2) b over one label: candidates run in
    // id order and each reaches a strict superset of what the next one
    // reaches, so every forward run sets entries the next one must reset
    let mut g = DiGraph::new();
    let chain: Vec<NodeId> = (0..30).map(|_| g.add_node("A", [])).collect();
    for w in chain.windows(2) {
        g.add_edge(w[0], w[1]);
    }
    for i in (0..28).step_by(3) {
        g.add_edge(chain[i], chain[i + 2]);
    }
    let q = PatternBuilder::new()
        .node_output("a", Predicate::label("A"))
        .node("b", Predicate::label("A"))
        .edge("a", "b", Bound::hops(2))
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    let rg = ResultGraph::build(&g, &q, &m);
    let candidates = m.matches_vec(q.output().unwrap());
    assert_eq!(candidates, chain[..29]);
    let reach = |v: NodeId| -> BTreeSet<u32> {
        let mut s = DijkstraScratch::new();
        s.run((&rg).one_way(Direction::Forward), v.0);
        s.touched().iter().copied().collect()
    };
    for w in candidates.windows(2) {
        let (earlier, next) = (reach(w[0]), reach(w[1]));
        assert!(next.is_subset(&earlier) && next.len() < earlier.len());
    }
    differential(&g, &q, "shrinking reach");
}

#[test]
fn a_deeper_role_adds_no_arc_to_a_shallower_one() {
    // v → x → y and v → p → z, with x, y over B, z over C and p over D,
    // under  a1 →(≤1) b,  a2 →(≤3) c  and a1, a2 over A: `v` plays both
    // roles, so its forward row is one BFS at depth 3. `y` is a B at
    // distance 2 — a match of `b`, inside that ball — but only `a1 → b`
    // wants a B, and only within 1: the row must hold v → x (1) and
    // v → z (2) and no v → y, which would move f(v) from 3/2 to 5/3
    let mut g = DiGraph::new();
    let v = g.add_node("A", []);
    let [x, y] = ["B", "B"].map(|l| g.add_node(l, []));
    let z = g.add_node("C", []);
    let p = g.add_node("D", []);
    for (s, t) in [(v, x), (x, y), (v, p), (p, z)] {
        g.add_edge(s, t);
    }
    let q = PatternBuilder::new()
        .node_output("a1", Predicate::label("A"))
        .node("a2", Predicate::label("A"))
        .node("b", Predicate::label("B"))
        .node("c", Predicate::label("C"))
        .edge("a1", "b", Bound::ONE)
        .edge("a2", "c", Bound::hops(3))
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    let [a1, a2, b] = ["a1", "a2", "b"].map(|u| q.node_id(u).unwrap());
    assert!(m.contains(a1, v) && m.contains(a2, v) && m.contains(b, y));
    let rg = ResultGraph::build(&g, &q, &m);
    let from_v: BTreeSet<_> = (rg.edges().iter())
        .filter(|e| e.from == v)
        .map(|e| (e.to, e.weight))
        .collect();
    assert_eq!(from_v, BTreeSet::from([(x, 1), (z, 2)]));
    let want = reference_rank(&g, &q, &m, usize::MAX);
    assert_eq!(bits(&want), bits(&[RankedMatch { node: v, rank: 1.5 }]));
    differential(&g, &q, "two roles, two bounds");
}

#[test]
fn an_unbounded_edge_ranks_across_the_whole_graph() {
    // a chain of 40 nodes alternating A and B, closed into a cycle, under
    // a →(*) b and b →(≤1) a: every row of a `*` role is a BFS to the
    // end of the graph, both ways
    let mut g = DiGraph::new();
    let ring: Vec<NodeId> = (0..40)
        .map(|i| g.add_node(if i % 2 == 0 { "A" } else { "B" }, []))
        .collect();
    for i in 0..ring.len() {
        g.add_edge(ring[i], ring[(i + 1) % ring.len()]);
    }
    for shape in [true, false] {
        let mut b = PatternBuilder::new()
            .node_output("a", Predicate::label("A"))
            .node("b", Predicate::label("B"))
            .edge("a", "b", Bound::Unbounded);
        if shape {
            b = b.edge("b", "a", Bound::ONE);
        }
        let q = b.build().unwrap();
        let ranked = differential(&g, &q, &format!("unbounded, back edge {shape}"));
        assert_eq!(ranked, 20);
    }
}

#[test]
fn many_candidates_on_one_cycle_expand_each_row_once() {
    // a directed cycle of 60 A nodes under a →(≤2) a': every candidate's
    // searches settle every node of the cycle, yet a read expands each
    // node's row once per direction — a 3-node ball each way — where a
    // build runs one forward ball per node
    let n = 60;
    let mut g = DiGraph::new();
    let ring: Vec<NodeId> = (0..n).map(|_| g.add_node("A", [])).collect();
    for i in 0..n {
        g.add_edge(ring[i], ring[(i + 1) % n]);
    }
    let q = PatternBuilder::new()
        .node_output("a", Predicate::label("A"))
        .node("b", Predicate::label("A"))
        .edge("a", "b", Bound::hops(2))
        .build()
        .unwrap();
    let m = bounded_simulation(&g, &q).unwrap();
    assert_eq!(m.matches(q.output().unwrap()).count(), n);
    let mut built = RankScratch::new();
    let rg = ResultGraph::build_with(&g, &q, &m, &mut built);
    assert_eq!(built.build_visits(), 3 * n as u64);
    let mut scratch = RankScratch::new();
    let got = rank_candidates(&g, &q, &m, usize::MAX, &mut scratch, None).unwrap();
    assert_eq!(scratch.expand_visits(), 2 * built.build_visits());
    assert_eq!(scratch.work().settled, 2 * (n * n) as u64);
    let want = rank_all(&rg, &q, &m);
    assert_eq!(bits(&got), bits(&want));
    // a second read forgets the first one's rows and expands them again
    rank_candidates(&g, &q, &m, 1, &mut scratch, None).unwrap();
    assert_eq!(scratch.expand_visits(), 4 * built.build_visits());
    differential(&g, &q, "one cycle");
}

#[test]
fn big_and_small_graphs_alternate_on_one_scratch() {
    // a read on a small graph after one on a big graph (and back) on the
    // one shared scratch: a row the big read memoised at a node id the
    // small graph also has must not be read as the small graph's
    let mut rng = StdRng::seed_from_u64(4242);
    let spec = NodeSpec::uniform(2, 3);
    let mut ranked = 0;
    for trial in 0..8 {
        let n = if trial % 2 == 0 { 400 } else { 12 };
        let g = erdos_renyi(&mut rng, n, 3 * n, &spec);
        let mut cfg = PatternConfig::new(PatternShape::Chain, 3, spec.labels.clone());
        cfg.bound_range = (1, 3);
        let q = random_pattern(&mut rng, &cfg);
        ranked += differential(&g, &q, &format!("alternating trial {trial}, n {n}"));
    }
    assert!(ranked > 100, "vacuous: {ranked} ranked");
}

#[test]
fn a_fired_token_aborts_the_read_and_leaves_no_row_behind() {
    // a fuse at every cancellation point of an on-demand read — one per
    // candidate, one per row expanded — aborts it with no list; the next
    // reads on the same scratch, with no token — of another graph of the
    // same shape, whose rows differ at the node ids the aborted read
    // expanded, then of the aborted graph — are the reference's
    let team = |seed| {
        collaboration(
            &mut StdRng::seed_from_u64(seed),
            &CollabConfig {
                teams: 30,
                ..CollabConfig::default()
            },
        )
    };
    let (g, g1) = (team(77), team(78));
    let q = expfinder_pattern::fixtures::fig1_pattern();
    let m = bounded_simulation(&g, &q).unwrap();
    let want = bits(&reference_rank(&g, &q, &m, 3));
    let m1 = bounded_simulation(&g1, &q).unwrap();
    let want1 = bits(&reference_rank(&g1, &q, &m1, usize::MAX));
    let polls = {
        let token = CancelToken::after_checks(u64::MAX);
        let mut scratch = RankScratch::new();
        rank_candidates(&g, &q, &m, 3, &mut scratch, Some(&token)).unwrap();
        token.checks()
    };
    let candidates = m.matches(q.output().unwrap()).count() as u64;
    assert!(polls > candidates, "rows are cancellation points too");
    for fuse in 1..=polls + 1 {
        let mut scratch = shared_scratch();
        let token = CancelToken::after_checks(fuse);
        match rank_candidates(&g, &q, &m, 3, &mut scratch, Some(&token)) {
            Ok(got) => {
                assert_eq!(fuse, polls + 1, "a fuse inside the read must fire");
                assert_eq!(bits(&got), want);
            }
            Err(EvalError::Cancelled(_)) => assert!(fuse <= polls),
            Err(other) => panic!("fuse {fuse}: {other:?}"),
        }
        let other = rank_candidates(&g1, &q, &m1, usize::MAX, &mut scratch, None).unwrap();
        assert_eq!(bits(&other), want1, "fuse {fuse}: another graph after it");
        let again = rank_candidates(&g, &q, &m, 3, &mut scratch, None).unwrap();
        assert_eq!(bits(&again), want, "fuse {fuse}");
    }
}
