//! Matching core of ExpFinder.
//!
//! Implements the three matching semantics the paper discusses, the result
//! graph, and the top-K ranking that is new in the ExpFinder paper.
//!
//! **One evaluation entry point.** [`evaluate`] takes a graph, a pattern
//! and an [`EvalRequest`] — [`Semantics`], optional [`EvalScratch`],
//! optional [`ReachProvider`], optional [`CancelToken`] — and returns
//! `(MatchRelation, EvalStats)`. Everything else that evaluates is a
//! fixed request or a raw building block:
//!
//! * [`bounded_simulation`] — the paper's core semantics \[Fan et al.,
//!   PVLDB 2010\]: pattern edges with bound `k` map to non-empty paths of
//!   length ≤ `k`; computed as a greatest-fixpoint refinement whose step is
//!   a multi-source reverse bounded BFS (cubic worst case), or an
//!   adjacency intersection for a bound-1 edge;
//! * [`graph_simulation`] — plain graph simulation, which the paper
//!   computes with HHK's quadratic algorithm. It is bounded simulation with
//!   every bound 1, so the same kernel answers it: one matching kernel;
//! * [`dual_simulation`] — bounded simulation plus parent support;
//! * [`bounded_simulation_indexed`] — the reach-indexed serving shape the
//!   repo benchmark times directly (as does
//!   [`parallel_bounded_simulation_indexed`], the same call under the
//!   name the benchmark keeps);
//! * [`bsim::bounded_fixpoint_raw`] — the raw (uncollapsed) fixpoint
//!   `expfinder-incremental` persists its state from.
//!
//! **One fixpoint engine.** Every evaluation runs the delta-aware loop of
//! [`fixpoint`], on the calling thread. Its judge is [`naive`]:
//! simulation, bounded and dual simulation and the raw fixpoint by
//! repeated full re-checks, sharing no code with the engine.
//!
//! Beside them:
//!
//! * [`subgraph_isomorphism`] — the classical baseline the paper argues is
//!   too strict and too expensive (NP-complete);
//! * [`ResultGraph`] — matches as nodes, edges weighted by shortest-path
//!   length, exactly the result representation of \[PVLDB 2010\];
//! * [`rank_matches_top_k`] / [`top_k`] — the social-impact ranking
//!   `f(u_o, v) = (Σ dist(u,v) + Σ dist(v,u')) / |V'_r|` of paper §II;
//!   [`rank_candidates`] gives the same ranks without building `G_r`.
//!
//! The maximum match relation `M(Q,G)` is represented by
//! [`MatchRelation`]. Following the paper's definition, if any pattern
//! node ends up with no valid match the whole result is empty.

pub mod bsim;
pub mod dualsim;
pub mod eval;
pub mod fixpoint;
pub mod iso;
pub mod matchrel;
pub mod naive;
pub mod rank;
pub mod result_graph;

pub use bsim::{
    bounded_simulation, bounded_simulation_indexed, graph_simulation,
    parallel_bounded_simulation_indexed, EvalOptions, EvalStats,
};
pub use dualsim::dual_simulation;
pub use eval::{evaluate, EvalError, EvalRequest, Semantics};
pub use expfinder_graph::{CancelToken, ReachIndex, ReachProvider};
pub use fixpoint::{Cancelled, EvalScratch, PooledScratch, ScratchPool};
pub use iso::{subgraph_isomorphism, IsoOptions};
pub use matchrel::MatchRelation;
pub use rank::{
    rank_candidates, rank_matches_top_k, rank_matches_top_k_with, top_k, RankScratch, RankedMatch,
    ResultArcs,
};
pub use result_graph::ResultGraph;

use expfinder_graph::{BitSet, Class, GraphView, NodeId, Sym};
use expfinder_pattern::{PNodeId, Pattern, Predicate};
use std::fmt;
use std::sync::Arc;

/// Errors from the matching layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// [`graph_simulation`] was given a pattern with bounds > 1; use
    /// [`bounded_simulation`] for those.
    NotASimulationPattern,
    /// Ranking was requested for a pattern without an output node.
    NoOutputNode,
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::NotASimulationPattern => {
                write!(f, "pattern has bounds > 1; use bounded_simulation")
            }
            MatchError::NoOutputNode => write!(f, "pattern has no output node to rank"),
        }
    }
}

impl std::error::Error for MatchError {}

/// Collect the nodes of `g` satisfying each pattern node's predicate,
/// as bitsets indexed by pattern node — the seeding every matcher and the
/// incremental maintainer start from. On a view with a class memo
/// ([`GraphView::class_memo`]) a condition seeded before is one bitset
/// clone; on a view with a label index ([`GraphView::has_label_index`])
/// a predicate that implies a label tests only that label's class.
pub fn candidate_sets<G: GraphView>(g: &G, q: &Pattern) -> Vec<BitSet> {
    q.ids().map(|u| candidate_set_classed(g, q, u).0).collect()
}

/// [`candidate_sets`] plus, per pattern node, the [`Class`] the set *is*
/// — `Some` exactly when the set equals a class of `g`: the class of the
/// node's condition on a view with a class memo, or a bare label test's
/// class on a view without one. That is the eligibility marker of the
/// reach-index hook: a constraint whose seed set is still such a class
/// can have its first refresh served from a per-snapshot
/// [`ReachIndex`](expfinder_graph::ReachIndex) entry instead of a BFS.
pub(crate) fn candidate_sets_classed<G: GraphView>(
    g: &G,
    q: &Pattern,
) -> (Vec<BitSet>, Vec<Option<Class>>) {
    q.ids().map(|u| candidate_set_classed(g, q, u)).unzip()
}

/// The [`candidate_sets`] entry of one pattern node, plus the class
/// marker of [`candidate_sets_classed`]. The memo keys a condition by its
/// canonical text (its `Display`, which parses back to it), so every
/// pattern that repeats a condition reads the one class, on every
/// version that shares the vertex table. On a view without a memo a
/// condition is seeded by [`seed`] per query and left unclassed — unless
/// it is a bare label test, whose class the label index already holds.
fn candidate_set_classed<G: GraphView>(g: &G, q: &Pattern, u: PNodeId) -> (BitSet, Option<Class>) {
    let predicate = &q.nodes()[u.index()].predicate;
    let key = predicate.to_string();
    if let Some(memo) = g.class_memo() {
        let class = memo.class(&key, || seed(g, predicate));
        return ((**class.members()).clone(), Some(class));
    }
    let (set, label) = seed(g, predicate);
    let class = label.map(|label| Class::new(key.into(), Some(label), Arc::new(set.clone())));
    (set, class)
}

/// The nodes of `g` satisfying `predicate`, plus the label whose class
/// the set is when the predicate is that label's bare test. On a view
/// with a label index (`DiGraph`, `CsrGraph` and the compressed quotient
/// all have one) and a predicate that implies a label, only that label's
/// class is tested — against the *residual* predicate, the label conjunct
/// being proven by membership — so a pure-label node costs one bitset
/// clone and a label no node carries costs nothing. Without an index
/// every node is tested.
fn seed<G: GraphView>(g: &G, predicate: &Predicate) -> (BitSet, Option<Sym>) {
    let Some(label) = predicate.required_label().filter(|_| g.has_label_index()) else {
        return (scan(g, predicate, g.ids()), None);
    };
    let class = (g.interner().get(label)).and_then(|sym| Some((sym, g.nodes_with_label(sym)?)));
    let Some((sym, class)) = class else {
        // no node carries the label
        return (BitSet::new(g.node_count()), None);
    };
    debug_assert_eq!(class.capacity(), g.node_count());
    match predicate.residual_after_label(label) {
        // membership is the whole condition
        None => (class.clone(), Some(sym)),
        Some(residual) => (scan(g, &residual, class.iter()), None),
    }
}

/// The nodes among `nodes` that satisfy `predicate`, each tested on its
/// own: no index, which is how the naive oracle seeds.
pub(crate) fn scan<G: GraphView>(
    g: &G,
    predicate: &Predicate,
    nodes: impl Iterator<Item = NodeId>,
) -> BitSet {
    let compiled = predicate.compile(g);
    let mut set = BitSet::new(g.node_count());
    for v in nodes.filter(|&v| compiled.eval(g.vertex(v))) {
        set.insert(v);
    }
    set
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::{AttrValue, ClassMemo, CsrGraph, DiGraph, Interner, VertexData};
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::PatternBuilder;
    use std::cell::Cell;

    /// A `DiGraph` behind a view that counts `vertex()` calls and can hide
    /// the graph's label index.
    pub(crate) struct Probe<'a> {
        g: &'a DiGraph,
        indexed: bool,
        memoised: bool,
        vertex_calls: Cell<usize>,
    }

    impl<'a> Probe<'a> {
        /// The graph without its class memo, with or without its label
        /// index.
        pub(crate) fn new(g: &'a DiGraph, indexed: bool) -> Self {
            let vertex_calls = Cell::new(0);
            Probe {
                g,
                indexed,
                memoised: false,
                vertex_calls,
            }
        }

        /// The graph with its label index and its class memo.
        fn memoised(g: &'a DiGraph) -> Self {
            Probe {
                memoised: true,
                ..Probe::new(g, true)
            }
        }
    }

    impl GraphView for Probe<'_> {
        fn node_count(&self) -> usize {
            self.g.node_count()
        }
        fn edge_count(&self) -> usize {
            self.g.edge_count()
        }
        fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
            self.g.out_neighbors(v)
        }
        fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
            self.g.in_neighbors(v)
        }
        fn vertex(&self, v: NodeId) -> &VertexData {
            self.vertex_calls.set(self.vertex_calls.get() + 1);
            self.g.vertex(v)
        }
        fn interner(&self) -> &Interner {
            self.g.interner()
        }
        fn nodes_with_label(&self, label: Sym) -> Option<&BitSet> {
            self.g.nodes_with_label(label).filter(|_| self.indexed)
        }
        fn has_label_index(&self) -> bool {
            self.indexed
        }
        fn class_memo(&self) -> Option<&ClassMemo> {
            self.g.class_memo().filter(|_| self.memoised)
        }
    }

    /// Seeding reads a node's content only where the label index cannot
    /// answer: never for a pure-label predicate or a label no node
    /// carries, at most once per class member for a residual predicate.
    #[test]
    fn seeding_tests_only_the_class() {
        let mut g = DiGraph::new();
        for i in 0..400 {
            g.add_node(
                ["SA", "SD", "ST", "BA"][i % 4],
                [("experience", AttrValue::Int(i as i64 % 10))],
            );
        }
        g.intern("ghost"); // interned, carried by no node
        let n = g.node_count();
        let seed = |predicate: Predicate, indexed: bool| {
            let q = PatternBuilder::new().node("u", predicate).build().unwrap();
            let probe = Probe::new(&g, indexed);
            let sets = candidate_sets(&probe, &q);
            (sets, probe.vertex_calls.into_inner())
        };
        let cases = [
            (Predicate::label("SA"), 0, 100),
            (
                Predicate::label("SA").and(Predicate::attr_ge("experience", 5)),
                100,
                40,
            ),
            (Predicate::label("ghost"), 0, 0),
            (
                Predicate::label("nobody").and(Predicate::attr_ge("experience", 5)),
                0,
                0,
            ),
        ];
        for (predicate, calls, members) in cases {
            let (indexed, indexed_calls) = seed(predicate.clone(), true);
            let (plain, plain_calls) = seed(predicate.clone(), false);
            assert_eq!(
                indexed, plain,
                "{predicate}: the index changes cost, not membership"
            );
            assert_eq!(indexed[0].count(), members, "{predicate}");
            assert_eq!(indexed_calls, calls, "{predicate}");
            assert_eq!(
                plain_calls, n,
                "{predicate}: unindexed, every node is tested"
            );
        }
        // the live graph answers exactly like the indexed probe
        let q = PatternBuilder::new()
            .node("u", Predicate::label("SD"))
            .build()
            .unwrap();
        assert_eq!(
            candidate_sets(&g, &q),
            candidate_sets(&Probe::new(&g, true), &q)
        );
    }

    /// A condition the memo keeps is seeded once per vertex table: a
    /// clone after an edge update reads no node for it, while a bare
    /// label test keeps its label marker on a memo hit; an attribute
    /// write drops the memo and the condition is seeded again.
    #[test]
    fn a_memoised_condition_is_seeded_once_per_vertex_table() {
        let mut g = DiGraph::new();
        for i in 0..400 {
            g.add_node(
                ["SA", "SD"][i % 2],
                [("experience", AttrValue::Int(i as i64 % 10))],
            );
        }
        let q = PatternBuilder::new()
            .node(
                "u",
                Predicate::label("SA").and(Predicate::attr_ge("experience", 5)),
            )
            .node("w", Predicate::label("SD"))
            .build()
            .unwrap();
        let (first, classes) = candidate_sets_classed(&g, &q);
        assert_eq!(classes[0].as_ref().unwrap().label(), None);
        let sd = g.interner().get("SD");
        assert_eq!(classes[1].as_ref().unwrap().label(), sd);
        assert_eq!(g.class_memo().unwrap().len(), 2);

        let mut next = g.clone();
        next.add_edge(NodeId(0), NodeId(1));
        let probe = Probe::memoised(&next);
        let (again, classes) = candidate_sets_classed(&probe, &q);
        assert_eq!((again, probe.vertex_calls.get()), (first, 0));
        assert_eq!(
            classes[1].as_ref().unwrap().label(),
            sd,
            "the marker survives a hit"
        );

        next.set_attr(NodeId(0), "experience", AttrValue::Int(9));
        let probe = Probe::memoised(&next);
        let (after, _) = candidate_sets_classed(&probe, &q);
        assert!(
            probe.vertex_calls.get() > 0,
            "an attribute write drops the memo"
        );
        assert!(after[0].contains(NodeId(0)));
        assert!(
            !candidate_sets(&g, &q)[0].contains(NodeId(0)),
            "the old table keeps its own"
        );
    }

    /// One more distinct condition than the memo keeps still evaluates as
    /// the oracle does: the memo starts over and keeps the newcomer, so
    /// every condition is classed and its first refresh hits the index,
    /// and the memo never holds more than its cap.
    #[test]
    fn a_condition_past_the_memo_bound_starts_the_memo_over() {
        use crate::naive::naive_bounded_simulation;
        use expfinder_graph::digraph::MAX_CLASSES;
        use expfinder_graph::ReachIndex;
        use expfinder_pattern::Bound;
        let f = collaboration_fig1();
        let g = &f.graph;
        let memo = g.class_memo().unwrap();
        let index = ReachIndex::new(g.version());
        let bound = index.bind(g);
        let mut scratch = EvalScratch::new();
        for t in 0..=MAX_CLASSES as i64 {
            // a distinct condition per pattern; `sa` repeats one
            let q = PatternBuilder::new()
                .node("sa", Predicate::label("SA"))
                .node("sd", Predicate::attr_ge("experience", t - 200))
                .edge("sa", "sd", Bound::hops(2))
                .build()
                .unwrap();
            let (m, stats) =
                bounded_simulation_indexed(g, &q, EvalOptions, &mut scratch, Some(&bound));
            assert_eq!(
                m,
                naive_bounded_simulation(g, &q),
                "experience >= {}",
                t - 200
            );
            assert_eq!((stats.index_hits, stats.index_misses), (1, 0));
            assert!(memo.len() <= MAX_CLASSES);
        }
        // the 256th `sd` condition found `sa`'s and 255 others kept
        assert_eq!(memo.resets(), 1);
        assert_eq!(
            memo.len(),
            3,
            "the last two `sd` conditions and `sa`'s again"
        );
    }

    #[test]
    fn candidate_sets_match_indexed_and_plain() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let plain = candidate_sets(&Probe::new(&f.graph, false), &q);
        let live = candidate_sets(&f.graph, &q);
        let indexed = candidate_sets(&CsrGraph::snapshot(&f.graph), &q);
        assert_eq!(plain, live, "label index changes cost, not membership");
        assert_eq!(plain, indexed, "label index changes cost, not membership");
    }

    #[test]
    fn edgeless_pattern_is_candidate_filter() {
        let f = collaboration_fig1();
        let q = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .build()
            .unwrap();
        let sets = MatchRelation::from_sets(candidate_sets(&f.graph, &q), f.graph.node_count());
        let m = bounded_simulation(&f.graph, &q).unwrap();
        assert_eq!(m, sets);
        assert_eq!(dual_simulation(&f.graph, &q), sets);
        assert_eq!(m.total_pairs(), 2);
    }
}
