//! The frontier engine must be *invisible* except in speed.
//!
//! Property tests pinning the PR-4 tentpole: the delta-aware frontier
//! fixpoint (word-parallel BFS + refresh memoization + dirty-counter
//! skipping, `expfinder_core::fixpoint`) produces bit-identical match
//! relations to the original queue-based loops for all three matching
//! semantics, on arbitrary generated graphs and patterns, on both the
//! live `DiGraph` and its `CsrGraph` snapshot, and with one `EvalScratch`
//! reused across every query (stale caches between evaluations would be
//! caught here).

use expfinder_core::{
    evaluate, graph_simulation, EvalOptions, EvalRequest, EvalScratch, EvalStats, MatchRelation,
    PlanMode, Semantics,
};
use expfinder_graph::{BitSet, CsrGraph, GraphView};
use expfinder_pattern::Pattern;
use proptest::prelude::*;

mod common;
use common::*;

/// The frontier engine against a caller-owned scratch.
fn frontier<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    semantics: Semantics,
    options: EvalOptions,
    scratch: &mut EvalScratch,
) -> (MatchRelation, EvalStats) {
    let req = EvalRequest {
        options,
        scratch: Some(scratch),
        ..EvalRequest::new(semantics)
    };
    evaluate(g, q, req).unwrap()
}

/// The parallel refinement with `threads` workers.
fn parallel(
    g: &CsrGraph,
    q: &Pattern,
    semantics: Semantics,
    threads: usize,
) -> (MatchRelation, EvalStats) {
    let req = EvalRequest {
        threads,
        ..EvalRequest::new(semantics)
    };
    evaluate(g, q, req).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frontier bounded simulation ≡ queue bounded simulation, on the
    /// live adjacency and the CSR snapshot, both plan modes, with one
    /// scratch reused across all of it.
    #[test]
    fn frontier_bsim_equals_queue(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let csr = CsrGraph::snapshot(&g);
        let mut scratch = EvalScratch::new();
        let oracle = oracle(&g, &q, Semantics::Bounded);
        for plan in [PlanMode::Selective, PlanMode::DeclarationOrder] {
            let opts = EvalOptions::with_plan(plan);
            let (m, stats) = frontier(&g, &q, Semantics::Bounded, opts, &mut scratch);
            prop_assert_eq!(&m, &oracle, "DiGraph, {:?}", plan);
            prop_assert!(
                q.edge_count() == 0 || stats.refreshes >= 1,
                "constrained patterns must refresh"
            );
            let (mc, _) = frontier(&csr, &q, Semantics::Bounded, opts, &mut scratch);
            prop_assert_eq!(&mc, &oracle, "CsrGraph, {:?}", plan);
        }
    }

    /// Frontier dual simulation ≡ queue dual simulation, with scratch
    /// reuse, and the parallel paths agree too.
    #[test]
    fn frontier_dual_equals_queue(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let csr = CsrGraph::snapshot(&g);
        let mut scratch = EvalScratch::new();
        let oracle = oracle(&g, &q, Semantics::Dual);
        let opts = EvalOptions::default();
        let (m, _) = frontier(&g, &q, Semantics::Dual, opts, &mut scratch);
        prop_assert_eq!(&m, &oracle, "DiGraph");
        let (mc, _) = frontier(&csr, &q, Semantics::Dual, opts, &mut scratch);
        prop_assert_eq!(&mc, &oracle, "CsrGraph");
        prop_assert_eq!(&parallel(&csr, &q, Semantics::Dual, 2).0, &oracle, "parallel");
    }

    /// The scratch-backed plain simulation ≡ the allocating one, and the
    /// delta-aware raw fixpoint (no early exit) ≡ the queue raw fixpoint
    /// — the exact-GFP contract the incremental module persists.
    #[test]
    fn scratch_sim_and_raw_fixpoint_agree(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q1 = build_pattern(&rp, true);
        let mut scratch = EvalScratch::new();
        let plain = graph_simulation(&g, &q1).unwrap();
        let opts = EvalOptions::default();
        let (m, _) = frontier(&g, &q1, Semantics::Simulation, opts, &mut scratch);
        prop_assert_eq!(&m, &plain, "plain simulation");

        use expfinder_core::bsim::bounded_fixpoint_raw;
        let q = build_pattern(&rp, false);
        let cand: Vec<BitSet> = q
            .nodes()
            .iter()
            .map(|pn| {
                let compiled = pn.predicate.compile(&g);
                let mut set = BitSet::new(g.node_count());
                for v in g.ids().filter(|&v| compiled.eval(g.vertex(v))) {
                    set.insert(v);
                }
                set
            })
            .collect();
        let (raw_queue, _) =
            bounded_fixpoint_raw(&g, &q, cand.clone(), EvalOptions::queue(), false, &mut scratch, None)
                .unwrap();
        let (raw_frontier, _) =
            bounded_fixpoint_raw(&g, &q, cand, opts, false, &mut scratch, None).unwrap();
        prop_assert_eq!(&raw_frontier, &raw_queue, "raw GFP (early_exit = false)");
    }

    /// Parallel bounded simulation (now frontier-BFS workers with
    /// cross-round reach memoization) still equals the sequential oracle.
    #[test]
    fn parallel_bsim_with_memoization_equals_queue(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let oracle = oracle(&g, &q, Semantics::Bounded);
        let csr = CsrGraph::snapshot(&g);
        for threads in [2usize, 3] {
            let (m, stats) = parallel(&csr, &q, Semantics::Bounded, threads);
            prop_assert_eq!(&m, &oracle, "{} threads", threads);
            // raw self-loop edges are dropped by the builder, so a
            // pattern can end up edgeless — then zero refreshes is right
            prop_assert!(q.edge_count() == 0 || stats.refreshes >= 1);
        }
    }
}
