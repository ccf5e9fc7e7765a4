//! Incremental maintenance of `M(Q,G)` under edge updates.
//!
//! Paper §II "Incremental Computation Module": given `Q`, `G`, cached
//! `M(Q,G)` and updates `ΔG`, compute `M(Q, G ⊕ ΔG)` by identifying the
//! *changes* ΔM without recomputing from scratch — "when ΔG is small, as
//! commonly found in practice, it is far more efficient". The module
//! implements the incremental evaluation strategy of \[Fan et al., SIGMOD
//! 2011\] for both semantics:
//!
//! * [`IncrementalSim`] — plain graph simulation. Exploits monotonicity:
//!   an edge **insertion can only add** matches (handled by optimistic
//!   upstream expansion followed by a verification fixpoint, which is what
//!   makes cyclic mutual support correct), and an edge **deletion can only
//!   remove** matches (handled by an exact counter cascade).
//! * [`IncrementalBoundedSim`] — bounded simulation. The same
//!   monotonicity holds (insertions shorten distances, deletions lengthen
//!   them); maintenance localizes work to the *affected ball*
//!   `ball_rev(x, b_max − 1) ∪ {x}` around a changed edge `(x, y)` and
//!   keeps per-pattern-edge support counters
//!   `scnt[e][v] = |{v' ∈ sim(u') : 1 ≤ dist(v, v') ≤ b_e}|`.
//!
//! Both maintainers persist the **raw** greatest-fixpoint sets (not the
//! all-or-nothing collapsed relation), so a query that currently fails is
//! still maintained cheaply and springs back to life the moment an
//! insertion revives the dead pattern node.
//!
//! Exactness is enforced by differential tests: after every random update
//! sequence the maintained relation must equal a from-scratch recompute.

pub mod inc_bsim;
pub mod inc_sim;

pub use inc_bsim::IncrementalBoundedSim;
pub use inc_sim::IncrementalSim;

use expfinder_graph::{EdgeUpdate, NodeId};
use expfinder_pattern::PNodeId;

/// Work counters for one maintenance call — the experiment harness reports
/// these to show *why* incremental wins (affected area ≪ |G|).
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
}

impl IncStats {
    pub fn merge(&mut self, other: IncStats) {
        self.added += other.added;
        self.removed += other.removed;
        self.affected_nodes += other.affected_nodes;
        self.tentative_pairs += other.tentative_pairs;
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

/// Shared trait of the two maintainers, so the engine and experiment
/// harness can drive either uniformly.
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

/// Pair count of raw fixpoint sets under the all-or-nothing rule of
/// [`expfinder_core::MatchRelation::from_sets`]: one empty set empties
/// the whole relation.
fn collapsed_pairs(sets: &[expfinder_graph::BitSet]) -> usize {
    if sets.iter().any(|s| s.is_empty()) {
        0
    } else {
        sets.iter().map(|s| s.count()).sum()
    }
}

/// Apply a batch of updates to `g`, maintaining `m` along the way.
/// Returns the combined ΔM (per-update deltas concatenated; a pair that
/// flips twice appears twice, faithfully recording the history).
pub fn apply_batch<M: Maintainer>(
    g: &mut expfinder_graph::DiGraph,
    m: &mut M,
    updates: &[EdgeUpdate],
) -> Vec<MatchDelta> {
    let mut all = Vec::new();
    for &up in updates {
        if g.apply(up) {
            all.extend(m.on_update(g, up));
        }
    }
    all
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
    fn total_pairs_counts_in_place_simulation() {
        let g = collaboration_fig1().graph;
        // (fig1_pattern as plain simulation fails on Fig. 1 by design)
        let q = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .node("sd", Predicate::label("SD"))
            .edge("sa", "sd", Bound::ONE)
            .build()
            .unwrap();
        let mut m = IncrementalSim::new(&g, &q).unwrap();
        total_pairs_tracks_current(g, &mut m);
    }
}
