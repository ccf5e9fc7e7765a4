//! Batch and parallel-execution determinism tests.
//!
//! The parallel refinement path (CSR snapshot + round-based frontier
//! workers) and the batch executor must be *invisible* except in speed:
//!
//! * property tests: parallel sim / dualsim / bsim are bit-identical to
//!   the sequential fixpoints on arbitrary generated graphs and patterns,
//!   on both the live `DiGraph` and its `CsrGraph` snapshot;
//! * `query_batch` responses equal per-query sequential `run()` at the
//!   same `graph_version`;
//! * a batch racing `apply_updates` only ever observes consistent
//!   snapshots: every response equals a fresh sequential evaluation of
//!   the graph at the version the response reports.

use expfinder::core::{dual_simulation, evaluate, EvalRequest, MatchRelation, Semantics};
use expfinder::graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder::graph::GraphView;
use expfinder::pattern::fixtures::demo_queries;
use expfinder::pattern::Pattern;
use expfinder::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

mod common;
use common::*;

// ---------------------------------------------------------------------
// parallel refinement ≡ sequential fixpoint
// ---------------------------------------------------------------------

/// The parallel refinement with `threads` workers.
fn parallel<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    semantics: Semantics,
    threads: usize,
) -> MatchRelation {
    let req = EvalRequest {
        threads,
        ..EvalRequest::new(semantics)
    };
    evaluate(g, q, req).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel bounded simulation equals the sequential fixpoint, on the
    /// live adjacency and on the CSR snapshot, at several thread counts.
    #[test]
    fn parallel_bsim_equals_sequential(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let seq = bounded_simulation(&g, &q).unwrap();
        let csr = CsrGraph::snapshot(&g);
        for threads in [2usize, 4] {
            prop_assert_eq!(&parallel(&g, &q, Semantics::Bounded, threads), &seq);
            prop_assert_eq!(&parallel(&csr, &q, Semantics::Bounded, threads), &seq);
        }
    }

    /// Parallel plain simulation equals the sequential counter-based
    /// algorithm on bound-1 patterns.
    #[test]
    fn parallel_sim_equals_sequential(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, true);
        let seq = graph_simulation(&g, &q).unwrap();
        let csr = CsrGraph::snapshot(&g);
        prop_assert_eq!(&parallel(&g, &q, Semantics::Simulation, 3), &seq);
        prop_assert_eq!(&parallel(&csr, &q, Semantics::Simulation, 3), &seq);
    }

    /// Parallel dual simulation equals the sequential bidirectional
    /// fixpoint.
    #[test]
    fn parallel_dualsim_equals_sequential(rg in raw_graph(14), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let seq = dual_simulation(&g, &q);
        let csr = CsrGraph::snapshot(&g);
        prop_assert_eq!(&parallel(&g, &q, Semantics::Dual, 3), &seq);
        prop_assert_eq!(&parallel(&csr, &q, Semantics::Dual, 3), &seq);
    }

    /// A parallel-engine batch over a generated graph equals per-query
    /// sequential runs at the same version — the engine-level contract.
    #[test]
    fn batch_equals_sequential_runs(rg in raw_graph(12), rp in raw_pattern()) {
        let g = build_graph(&rg);
        let q = build_pattern(&rp, false);
        let par = ExpFinder::new(EngineConfig {
            exec: ExecConfig { threads: 2, batch_parallelism: 3 },
            ..EngineConfig::default()
        });
        let seq = ExpFinder::new(EngineConfig {
            exec: ExecConfig::sequential(),
            ..EngineConfig::default()
        });
        let hp = par.add_graph("g", g.clone()).unwrap();
        let hs = seq.add_graph("g", g).unwrap();
        let specs = vec![
            QuerySpec::pattern(q.clone()),
            QuerySpec::pattern(q.clone()).top_k(3),
            QuerySpec::pattern(q.clone()).prefer(Route::Direct),
        ];
        let batch = par.query_batch(&hp, specs, None);
        let singles = [
            seq.query(&hs).pattern(q.clone()).run().unwrap(),
            seq.query(&hs).pattern(q.clone()).top_k(3).run().unwrap(),
            seq.query(&hs).pattern(q).prefer(Route::Direct).run().unwrap(),
        ];
        for (i, single) in singles.iter().enumerate() {
            let b = batch[i].as_ref().unwrap();
            prop_assert_eq!(&*b.matches, &*single.matches, "slot {}", i);
            prop_assert_eq!(
                b.experts.iter().map(|x| x.node).collect::<Vec<_>>(),
                single.experts.iter().map(|x| x.node).collect::<Vec<_>>(),
                "slot {}", i
            );
        }
    }
}

// ---------------------------------------------------------------------
// engine-level batch contracts
// ---------------------------------------------------------------------

fn collab_graph(teams: usize, seed: u64) -> DiGraph {
    collaboration(
        &mut StdRng::seed_from_u64(seed),
        &CollabConfig {
            teams,
            team_size: 6,
            ..CollabConfig::default()
        },
    )
}

/// Batch responses on a quiescent graph equal fluent per-query runs.
#[test]
fn batch_matches_fluent_runs_on_static_graph() {
    let g = collab_graph(25, 17);
    let par = ExpFinder::new(EngineConfig {
        exec: ExecConfig {
            threads: 2,
            batch_parallelism: 4,
        },
        ..EngineConfig::default()
    });
    let seq = ExpFinder::new(EngineConfig {
        exec: ExecConfig::sequential(),
        ..EngineConfig::default()
    });
    let hp = par.add_graph("c", g.clone()).unwrap();
    let hs = seq.add_graph("c", g).unwrap();

    let queries = demo_queries();
    let specs: Vec<QuerySpec> = queries
        .iter()
        .map(|(_, q)| QuerySpec::pattern(q.clone()).top_k(3))
        .collect();
    let batch = par.query_batch(&hp, specs, None);
    assert_eq!(batch.len(), queries.len());
    for (i, (name, q)) in queries.iter().enumerate() {
        let b = batch[i].as_ref().unwrap();
        let s = seq.query(&hs).pattern(q.clone()).top_k(3).run().unwrap();
        assert_eq!(b.graph_version, s.graph_version, "{name}");
        assert_eq!(*b.matches, *s.matches, "{name}: matches diverge");
        assert_eq!(
            b.experts
                .iter()
                .map(|x| (x.node, x.rank))
                .collect::<Vec<_>>(),
            s.experts
                .iter()
                .map(|x| (x.node, x.rank))
                .collect::<Vec<_>>(),
            "{name}: ranking diverges"
        );
    }
}

/// Batches racing a writer observe only consistent snapshots: every
/// response equals a fresh sequential evaluation at its reported version.
#[test]
fn batch_racing_updates_stays_consistent() {
    const UPDATES: usize = 40;
    const ROUNDS: usize = 12;

    let base = collab_graph(15, 23);
    let queries = demo_queries();
    let updates = random_updates(&mut StdRng::seed_from_u64(51), &base, UPDATES, 0.5);

    // sequential ground truth for every (version, query) the graph can
    // pass through
    let mut expected: HashMap<(u64, usize), MatchRelation> = HashMap::new();
    {
        let mut g = base.clone();
        for (qi, (_, q)) in queries.iter().enumerate() {
            expected.insert((g.version(), qi), bounded_simulation(&g, q).unwrap());
        }
        for &up in &updates {
            if g.apply(up) {
                for (qi, (_, q)) in queries.iter().enumerate() {
                    expected.insert((g.version(), qi), bounded_simulation(&g, q).unwrap());
                }
            }
        }
    }

    let engine = Arc::new(ExpFinder::new(EngineConfig {
        exec: ExecConfig {
            threads: 2,
            batch_parallelism: 3,
        },
        ..EngineConfig::default()
    }));
    let h = engine.add_graph("live", base).unwrap();

    std::thread::scope(|s| {
        {
            let engine = Arc::clone(&engine);
            let h = h.clone();
            let updates = &updates;
            s.spawn(move || {
                for &up in updates {
                    engine.apply_updates(&h, &[up]).unwrap();
                    std::thread::yield_now();
                }
            });
        }
        {
            let engine = Arc::clone(&engine);
            let h = h.clone();
            let queries = &queries;
            let expected = &expected;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let specs: Vec<QuerySpec> = queries
                        .iter()
                        .map(|(_, q)| QuerySpec::pattern(q.clone()))
                        .collect();
                    let batch = engine.query_batch(&h, specs, None);
                    for (qi, result) in batch.iter().enumerate() {
                        let resp = result.as_ref().unwrap();
                        let truth = expected.get(&(resp.graph_version, qi)).unwrap_or_else(|| {
                            panic!(
                                "round {round} query {qi}: version {} was never \
                                     a real graph state",
                                resp.graph_version
                            )
                        });
                        assert_eq!(
                            *resp.matches, *truth,
                            "round {round} query {qi}: batch response diverges from \
                             sequential evaluation at version {}",
                            resp.graph_version
                        );
                    }
                }
            });
        }
    });

    // quiesced: batch equals a final fresh evaluation
    let final_batch = engine.query_batch(
        &h,
        queries
            .iter()
            .map(|(_, q)| QuerySpec::pattern(q.clone()))
            .collect(),
        None,
    );
    for (qi, (_, q)) in queries.iter().enumerate() {
        let truth = engine
            .read_graph(&h, |g| bounded_simulation(g, q).unwrap())
            .unwrap();
        assert_eq!(*final_batch[qi].as_ref().unwrap().matches, truth);
    }
}
