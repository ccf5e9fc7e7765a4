//! Matching core of ExpFinder.
//!
//! Implements the three matching semantics the paper discusses, the result
//! graph, and the top-K ranking that is new in the ExpFinder paper.
//!
//! **One evaluation entry point.** [`evaluate`] takes a graph, a pattern
//! and an [`EvalRequest`] — [`Semantics`], [`EvalOptions`], optional
//! [`EvalScratch`], optional [`ReachProvider`], optional [`CancelToken`],
//! thread budget — and returns `(MatchRelation, EvalStats)`. Everything
//! else that evaluates is a fixed request or a raw building block:
//!
//! * [`graph_simulation`] — plain graph simulation, quadratic-time
//!   (Henzinger–Henzinger–Kopke-style refinement with per-edge counters);
//! * [`bounded_simulation`] — the paper's core semantics \[Fan et al.,
//!   PVLDB 2010\]: pattern edges with bound `k` map to non-empty paths of
//!   length ≤ `k`; computed as a greatest-fixpoint refinement whose step is
//!   a multi-source reverse bounded BFS (cubic worst case);
//! * [`dual_simulation`] — bounded simulation plus parent support;
//! * [`bounded_simulation_indexed`] /
//!   [`parallel_bounded_simulation_indexed`] — the reach-indexed serving
//!   shapes the repo benchmark times directly;
//! * [`bsim::bounded_fixpoint_raw`] / [`sim::simulation_fixpoint`] — the
//!   raw (uncollapsed) fixpoints `expfinder-incremental` persists its
//!   state from.
//!
//! Beside them:
//!
//! * [`subgraph_isomorphism`] — the classical baseline the paper argues is
//!   too strict and too expensive (NP-complete);
//! * [`ResultGraph`] — matches as nodes, edges weighted by shortest-path
//!   length, exactly the result representation of \[PVLDB 2010\];
//! * [`rank_matches`] / [`top_k`] — the social-impact ranking
//!   `f(u_o, v) = (Σ dist(u,v) + Σ dist(v,u')) / |V'_r|` of paper §II.
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
pub mod parallel;
pub mod rank;
pub mod result_graph;
pub mod sim;

pub use bsim::{
    bounded_simulation, bounded_simulation_indexed, EvalOptions, EvalStats, FixpointEngine,
    PlanMode,
};
pub use dualsim::dual_simulation;
pub use eval::{evaluate, EvalError, EvalRequest, Semantics};
pub use expfinder_graph::{CancelToken, ReachIndex, ReachProvider};
pub use fixpoint::{Cancelled, EvalScratch, PooledScratch, ScratchPool};
pub use iso::{subgraph_isomorphism, IsoOptions};
pub use matchrel::MatchRelation;
pub use parallel::parallel_bounded_simulation_indexed;
pub use rank::{
    rank_matches, rank_matches_top_k, rank_matches_top_k_cancellable, rank_value, top_k,
    RankedMatch,
};
pub use result_graph::{BuildOptions, ResultGraph};
pub use sim::graph_simulation;

use std::fmt;

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
/// as bitsets indexed by pattern node. Shared by all matchers.
pub(crate) fn candidate_sets<G: expfinder_graph::GraphView>(
    g: &G,
    q: &expfinder_pattern::Pattern,
) -> Vec<expfinder_graph::BitSet> {
    q.ids().map(|u| candidate_set(g, q, u)).collect()
}

/// [`candidate_sets`] plus, per pattern node, the label symbol whose
/// class the set *is* — `Some(sym)` exactly when the indexed pure-label
/// path was taken, i.e. the candidate set equals `g`'s full class for
/// `sym`. That is the eligibility marker of the reach-index hook: a
/// constraint whose seed set is still such a class can have its first
/// refresh served from a per-snapshot
/// [`ReachIndex`](expfinder_graph::ReachIndex) entry instead of a BFS.
pub(crate) fn candidate_sets_classed<G: expfinder_graph::GraphView>(
    g: &G,
    q: &expfinder_pattern::Pattern,
) -> (
    Vec<expfinder_graph::BitSet>,
    Vec<Option<expfinder_graph::Sym>>,
) {
    let mut sets = Vec::with_capacity(q.node_count());
    let mut classes = Vec::with_capacity(q.node_count());
    for u in q.ids() {
        let (set, class) = candidate_set_classed(g, q, u);
        sets.push(set);
        classes.push(class);
    }
    (sets, classes)
}

/// The candidate set of one pattern node. When the view maintains a label
/// index (`CsrGraph` does) and the predicate implies a label, only that
/// label class is scanned — and only against the *residual* predicate
/// (the label conjunct is already proven by class membership), so a
/// pure-label node costs one bitset clone instead of a graph scan.
/// Without an index every node is tested against the full predicate.
pub(crate) fn candidate_set<G: expfinder_graph::GraphView>(
    g: &G,
    q: &expfinder_pattern::Pattern,
    u: expfinder_pattern::PNodeId,
) -> expfinder_graph::BitSet {
    candidate_set_classed(g, q, u).0
}

/// [`candidate_set`] plus the class marker of [`candidate_sets_classed`].
pub(crate) fn candidate_set_classed<G: expfinder_graph::GraphView>(
    g: &G,
    q: &expfinder_pattern::Pattern,
    u: expfinder_pattern::PNodeId,
) -> (expfinder_graph::BitSet, Option<expfinder_graph::Sym>) {
    let n = g.node_count();
    let pn = &q.nodes()[u.index()];
    let indexed = pn.predicate.required_label().and_then(|l| {
        let class = g
            .interner()
            .get(l)
            .and_then(|sym| g.nodes_with_label(sym).map(|c| (sym, c)));
        class.map(|(sym, c)| (sym, c, pn.predicate.residual_after_label(l)))
    });
    match indexed {
        Some((sym, class, None)) => {
            // membership is the whole condition
            debug_assert_eq!(class.capacity(), n);
            (class.clone(), Some(sym))
        }
        Some((_, class, Some(residual))) => {
            let compiled = residual.compile(g);
            let mut set = expfinder_graph::BitSet::new(n);
            for v in class.iter() {
                if compiled.eval(g.vertex(v)) {
                    set.insert(v);
                }
            }
            (set, None)
        }
        None => {
            let compiled = pn.predicate.compile(g);
            let mut set = expfinder_graph::BitSet::new(n);
            for v in g.ids() {
                if compiled.eval(g.vertex(v)) {
                    set.insert(v);
                }
            }
            (set, None)
        }
    }
}
