//! The reach index must be *invisible* except in work counters.
//!
//! Property tests pinning the PR-5 tentpole: evaluation backed by a
//! per-snapshot [`ReachIndex`] produces bit-identical match relations to
//! both the plain frontier engine and the queue oracle, for all three
//! matching semantics (plain simulation via its bound-1 bounded-sim
//! equivalent, bounded simulation, bounded dual simulation), on the live
//! `DiGraph` (where the provider is inert — no label classes) and on the
//! `CsrGraph` snapshot (where class-seeded first refreshes are served
//! from memoized entries), sequentially and in parallel — and across a
//! sequence of graph updates that forces the per-version index to be
//! invalidated and rebuilt between queries, exactly the engine's
//! invalidation rule.
//!
//! Pattern nodes alternate between *pure-label* predicates (index
//! eligible: the candidate set is the label class itself) and
//! label+attribute predicates (ineligible: the hook must fall back to
//! BFS), so both sides of the eligibility check are exercised.

use expfinder_core::{
    evaluate, graph_simulation, EvalRequest, EvalScratch, EvalStats, MatchRelation, ReachIndex,
    ReachProvider, Semantics,
};
use expfinder_graph::{CsrGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_pattern::Pattern;
use proptest::prelude::*;

mod common;
use common::*;

/// One evaluation with an optional reach provider: the frontier engine on
/// `scratch` with one thread, the parallel refinement above that.
fn indexed<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    semantics: Semantics,
    scratch: &mut EvalScratch,
    index: Option<&dyn ReachProvider>,
    threads: usize,
) -> (MatchRelation, EvalStats) {
    let req = EvalRequest {
        scratch: Some(scratch),
        index,
        threads,
        ..EvalRequest::new(semantics)
    };
    evaluate(g, q, req).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Index-backed bounded simulation ≡ frontier ≡ queue, sequential and
    /// parallel, DiGraph (inert provider) and CSR (live provider), with
    /// one scratch and one index shared across repeated queries.
    #[test]
    fn indexed_bsim_equals_both_engines(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let csr = CsrGraph::snapshot(&g);
        let mut scratch = EvalScratch::new();
        let queue_m = oracle(&g, &q, Semantics::Bounded);
        let (frontier_m, _) = indexed(&csr, &q, Semantics::Bounded, &mut scratch, None, 1);
        prop_assert_eq!(&frontier_m, &queue_m, "frontier vs queue");

        let idx = ReachIndex::new(csr.version());
        let bound = idx.bind(&csr);
        // twice: cold (entries built) then warm (entries reused)
        for round in 0..2 {
            let (m, stats) =
                indexed(&csr, &q, Semantics::Bounded, &mut scratch, Some(&bound), 1);
            prop_assert_eq!(&m, &queue_m, "indexed CSR, round {}", round);
            prop_assert_eq!(stats.index_hits + stats.index_misses > 0, q.edge_count() > 0,
                "provider consulted iff constrained");
        }
        let (mp, _) = indexed(&csr, &q, Semantics::Bounded, &mut scratch, Some(&bound), 3);
        prop_assert_eq!(&mp, &queue_m, "indexed parallel CSR");

        // on the live DiGraph the provider finds no classes: pure misses,
        // identical results
        let live_idx = ReachIndex::new(g.version());
        let live = live_idx.bind(&g);
        let (ml, stats) = indexed(&g, &q, Semantics::Bounded, &mut scratch, Some(&live), 1);
        prop_assert_eq!(&ml, &queue_m, "indexed DiGraph");
        prop_assert_eq!(stats.index_hits, 0, "no label classes on DiGraph");
        prop_assert_eq!(live_idx.len(), 0);
    }

    /// Same for dual simulation (both constraint directions) and for the
    /// bound-1 case, whose bounded-sim evaluation coincides with plain
    /// graph simulation — covering the third semantics.
    #[test]
    fn indexed_dual_and_sim_equal_both_engines(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let csr = CsrGraph::snapshot(&g);
        let mut scratch = EvalScratch::new();
        let idx = ReachIndex::new(csr.version());
        let bound = idx.bind(&csr);

        let q = build_pattern(&rp, false);
        let dual_oracle = oracle(&g, &q, Semantics::Dual);
        let (md, _) = indexed(&csr, &q, Semantics::Dual, &mut scratch, Some(&bound), 1);
        prop_assert_eq!(&md, &dual_oracle, "indexed dual CSR");
        let (mdp, _) = indexed(&csr, &q, Semantics::Dual, &mut scratch, Some(&bound), 2);
        prop_assert_eq!(&mdp, &dual_oracle, "indexed parallel dual CSR");

        let q1 = build_pattern(&rp, true);
        let sim_oracle = graph_simulation(&g, &q1).unwrap();
        let (ms, _) = indexed(&csr, &q1, Semantics::Bounded, &mut scratch, Some(&bound), 1);
        prop_assert_eq!(&ms, &sim_oracle, "bound-1 indexed ≡ plain simulation");
    }

    /// A stream of interleaved updates and queries, with the per-version
    /// index dropped and rebuilt whenever the version moves — the
    /// engine's invalidation rule. Every query must equal a fresh queue
    /// evaluation of the *current* graph.
    #[test]
    fn update_sequence_forces_index_invalidation(
        rg in raw_graph(12),
        rp in raw_pattern(),
        updates in proptest::collection::vec((0u8..12, 0u8..12, 0u8..2), 1..10),
    ) {
        let mut g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let n = g.node_count() as u8;
        let mut scratch = EvalScratch::new();

        let mut csr = CsrGraph::snapshot(&g);
        let mut idx = ReachIndex::new(csr.version());
        for (a, b, insert) in updates {
            let (x, y) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
            let up = if insert == 1 { EdgeUpdate::Insert(x, y) } else { EdgeUpdate::Delete(x, y) };
            g.apply(up);
            if csr.version() != g.version() {
                // version moved: rebuild snapshot + index (stale entries
                // must never be consulted — this is what the engine's
                // version-keyed cache slot enforces)
                csr = CsrGraph::snapshot(&g);
                idx = ReachIndex::new(csr.version());
            }
            let bound = idx.bind(&csr);
            let (m, _) = indexed(&csr, &q, Semantics::Bounded, &mut scratch, Some(&bound), 1);
            let oracle = oracle(&g, &q, Semantics::Bounded);
            prop_assert_eq!(&m, &oracle, "post-update query at version {}", g.version());
            // warm second query on the same version
            let (m2, _) = indexed(&csr, &q, Semantics::Bounded, &mut scratch, Some(&bound), 1);
            prop_assert_eq!(&m2, &oracle, "warm query at version {}", g.version());
        }
    }
}
