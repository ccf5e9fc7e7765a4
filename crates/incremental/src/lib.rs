//! Incremental maintenance of `M(Q,G)` under edge updates.
//!
//! Paper §II "Incremental Computation Module": given `Q`, `G`, cached
//! `M(Q,G)` and updates `ΔG`, compute `M(Q, G ⊕ ΔG)` by identifying the
//! *changes* ΔM without recomputing from scratch — "when ΔG is small, as
//! commonly found in practice, it is far more efficient". The module
//! implements the incremental evaluation strategy of \[Fan et al., SIGMOD
//! 2011\] with one maintainer, [`IncrementalBoundedSim`]. Plain graph
//! simulation is bounded simulation with every bound 1, so the same
//! maintainer serves it, and a one-hop support count reads the adjacency
//! list instead of running a BFS.
//!
//! Maintenance exploits monotonicity: an edge **insertion can only add**
//! matches (insertions shorten distances; handled by optimistic upstream
//! expansion followed by a verification fixpoint, which is what makes
//! cyclic mutual support correct), and an edge **deletion can only
//! remove** matches (deletions lengthen distances; handled by a removal
//! cascade). Work is localized to the *affected ball*
//! `ball_rev(x, b_max − 1) ∪ {x}` around a changed edge `(x, y)`, and
//! support is asked, never stored: `v ∈ sim(u)` is supported on a pattern
//! edge `e = (u, u')` when some `v' ∈ sim(u')` has `1 ≤ dist(v, v') ≤ b_e`,
//! which one walk of `v`'s `b_e`-ball answers.
//!
//! The maintainer persists the **raw** greatest-fixpoint sets (not the
//! all-or-nothing collapsed relation), so a query that currently fails is
//! still maintained cheaply and springs back to life the moment an
//! insertion revives the dead pattern node.
//!
//! Beside `M`, the maintainer keeps what ranking needs: the arcs of the
//! result graph `G_r` over the raw sets, as per-node rows, and the
//! ranking of the output node's matches by `f(u_o, v)`.
//! [`IncrementalBoundedSim::end_batch`] brings both up to date once per
//! update batch: it re-runs the bounded BFS only of the sources the
//! batch's affected balls and ΔM touched, and re-ranks only the
//! candidates a search of the rows connects to what changed.
//!
//! Exactness is enforced by differential tests: after every random update
//! sequence the maintained relation must equal a from-scratch recompute.

pub mod inc_bsim;

pub use inc_bsim::{IncrementalBoundedSim, RerankScratch};

use expfinder_graph::{EdgeUpdate, NodeId};
use expfinder_pattern::PNodeId;

/// Work counters for one maintenance call — the repo benchmark's
/// `incremental.affected_nodes` row and `examples/dynamic_network.rs`
/// report these to show *why* incremental wins (affected area ≪ |G|).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IncStats {
    /// Pairs added to the match sets.
    pub added: usize,
    /// Pairs removed from the match sets.
    pub removed: usize,
    /// Nodes in the affected area that were re-examined.
    pub affected_nodes: usize,
    /// Candidate pairs examined during optimistic expansion.
    pub tentative_pairs: usize,
    /// Sources whose `G_r` arcs a batch-end repair re-ran a BFS for.
    pub repair_sources: usize,
    /// `f(u_o, v)` values a batch end recomputed.
    pub rerank_candidates: usize,
    /// Nodes the batch-end search visited to find the candidates to
    /// re-rank, counted once per direction.
    pub search_visits: usize,
    /// Nodes the support walks returned: the reverse walks that find the
    /// members a pair can support, and the forward walks that check a
    /// member's support.
    pub walk_visits: usize,
}

impl IncStats {
    pub fn merge(&mut self, other: IncStats) {
        self.added += other.added;
        self.removed += other.removed;
        self.affected_nodes += other.affected_nodes;
        self.tentative_pairs += other.tentative_pairs;
        self.repair_sources += other.repair_sources;
        self.rerank_candidates += other.rerank_candidates;
        self.search_visits += other.search_visits;
        self.walk_visits += other.walk_visits;
    }
}

/// A single change to the match relation (the paper's ΔM element).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MatchDelta {
    pub pattern_node: PNodeId,
    pub data_node: NodeId,
    /// True = pair appeared, false = pair disappeared.
    pub added: bool,
}

/// The maintainer interface the engine and the repo benchmark's trace
/// drive [`IncrementalBoundedSim`] through.
pub trait Maintainer {
    /// Bring the maintained relation in line after `update` has already
    /// been applied to `g`. Returns the ΔM this update caused.
    fn on_update(&mut self, g: &expfinder_graph::DiGraph, update: EdgeUpdate) -> Vec<MatchDelta>;

    /// The maintained relation, collapsed to paper semantics.
    fn current(&self) -> expfinder_core::MatchRelation;

    /// `self.current().total_pairs()`, counted in place on the raw sets —
    /// sizing a relation must not cost a copy of it.
    fn total_pairs(&self) -> usize;

    /// Work counters accumulated since construction.
    fn stats(&self) -> IncStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::generate::random_updates;
    use expfinder_graph::DiGraph;
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `total_pairs` agrees with the collapsed relation's own count after
    /// every update of a random stream that also empties the graph (so the
    /// relation fails while some raw sets stay populated) and refills it.
    fn total_pairs_tracks_current(mut g: DiGraph, m: &mut dyn Maintainer) {
        let original: Vec<_> = g.edges().collect();
        let mut stream = random_updates(&mut StdRng::seed_from_u64(15), &g, 60, 0.5);
        let mut scratch = g.clone();
        for &up in &stream {
            scratch.apply(up);
        }
        stream.extend(scratch.edges().map(|(a, b)| EdgeUpdate::Delete(a, b)));
        stream.extend(original.iter().map(|&(a, b)| EdgeUpdate::Insert(a, b)));

        let (mut seen_empty, mut seen_matches) = (false, false);
        for up in stream {
            assert!(g.apply(up), "every generated update changes the graph");
            m.on_update(&g, up);
            let pairs = m.total_pairs();
            assert_eq!(pairs, m.current().total_pairs(), "after {up}");
            seen_empty |= pairs == 0;
            seen_matches |= pairs > 0;
        }
        assert!(seen_empty && seen_matches);
    }

    #[test]
    fn total_pairs_counts_in_place_bounded() {
        let g = collaboration_fig1().graph;
        let mut m = IncrementalBoundedSim::new(&g, &fig1_pattern());
        total_pairs_tracks_current(g, &mut m);
    }

    #[test]
    fn total_pairs_counts_in_place_bound_one() {
        let g = collaboration_fig1().graph;
        // (fig1_pattern as plain simulation fails on Fig. 1 by design)
        let q = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .node("sd", Predicate::label("SD"))
            .edge("sa", "sd", Bound::ONE)
            .build()
            .unwrap();
        let mut m = IncrementalBoundedSim::new(&g, &q);
        total_pairs_tracks_current(g, &mut m);
    }
}
