//! Concurrency tests: `ExpFinder` is `Send + Sync` with a fully `&self`
//! query path, so an `Arc<ExpFinder>` is shared across threads — the
//! production scenario of one engine serving many clients. These tests
//! hammer that contract:
//!
//! * many readers against one graph agree with sequential answers;
//! * readers racing a writer always observe a *consistent snapshot*:
//!   every response's matches *and ranked experts* equal a fresh
//!   single-threaded evaluation of the graph at the version the response
//!   reports — a ranked answer cached at one version is never served at
//!   another;
//! * readers on different graphs proceed independently while a writer
//!   updates a third graph.

use expfinder::graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder::pattern::fixtures::{demo_queries, fig1_pattern};
use expfinder::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

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

fn engine_with_collab() -> (Arc<ExpFinder>, GraphHandle) {
    let e = Arc::new(ExpFinder::default());
    let h = e.add_graph("c", collab_graph(30, 99)).unwrap();
    (e, h)
}

/// The engine type itself upholds the shareability contract.
#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExpFinder>();
    assert_send_sync::<Arc<ExpFinder>>();
    assert_send_sync::<GraphHandle>();
    assert_send_sync::<QueryResponse>();
}

#[test]
fn parallel_queries_agree() {
    let (engine, h) = engine_with_collab();
    let queries = demo_queries();

    // reference answers, sequential
    let reference: Vec<usize> = queries
        .iter()
        .map(|(_, q)| engine.evaluate(&h, q).unwrap().matches.total_pairs())
        .collect();

    // hammer the engine from 8 threads × 5 rounds × 3 queries each
    std::thread::scope(|s| {
        for t in 0..8 {
            let engine = &engine;
            let h = &h;
            let queries = &queries;
            let reference = &reference;
            s.spawn(move || {
                for round in 0..5 {
                    for (i, (_, q)) in queries.iter().enumerate() {
                        let got = engine.evaluate(h, q).unwrap().matches.total_pairs();
                        assert_eq!(got, reference[i], "thread {t} round {round} query {i}");
                    }
                }
            });
        }
    });

    // the cache took hits from all threads without corruption
    let stats = engine.read_path().cache_stats();
    assert!(stats.hits > 0);
    assert_eq!(stats.hits + stats.misses, 8 * 5 * 3 + 3);
}

#[test]
fn parallel_ranked_reports_agree() {
    let (engine, h) = engine_with_collab();
    let (_, q) = &demo_queries()[0];
    let reference = engine.find_experts(&h, q, 3).unwrap();
    let ref_ids: Vec<_> = reference.experts.iter().map(|e| e.node).collect();

    std::thread::scope(|s| {
        for _ in 0..6 {
            let engine = &engine;
            let h = &h;
            let ref_ids = &ref_ids;
            s.spawn(move || {
                let resp = engine.query(h).pattern(q.clone()).top_k(3).run().unwrap();
                let ids: Vec<_> = resp.experts.iter().map(|e| e.node).collect();
                assert_eq!(&ids, ref_ids);
            });
        }
    });
}

/// The headline requirement: N reader threads calling `evaluate` through
/// `Arc<ExpFinder>` while one writer applies `EdgeUpdate`s. Every result
/// a reader observes must equal a fresh single-threaded evaluation of the
/// graph at the version the engine reported for that result.
#[test]
fn readers_consistent_with_concurrent_writer() {
    const READERS: usize = 4;
    const UPDATES: usize = 60;

    let base = collab_graph(20, 7);
    let q = fig1_pattern();
    let updates = random_updates(&mut StdRng::seed_from_u64(41), &base, UPDATES, 0.5);

    // Precompute, single-threaded, the expected relation and top-3
    // experts (node order and rank bits) at *every* version the graph
    // will pass through.
    let experts_of = |list: &[expfinder::core::RankedMatch]| -> Vec<(NodeId, u64)> {
        list.iter().map(|x| (x.node, x.rank.to_bits())).collect()
    };
    let truth_at = |g: &DiGraph| {
        let m = bounded_simulation(g, &q).unwrap();
        let experts = experts_of(&top_k(g, &q, &m, 3).unwrap());
        (m, experts)
    };
    let mut expected: HashMap<u64, (MatchRelation, Vec<(NodeId, u64)>)> = HashMap::new();
    {
        let mut g = base.clone();
        expected.insert(g.version(), truth_at(&g));
        for &up in &updates {
            if g.apply(up) {
                expected.insert(g.version(), truth_at(&g));
            }
        }
    }

    let engine = Arc::new(ExpFinder::default());
    let h = engine.add_graph("live", base).unwrap();

    std::thread::scope(|s| {
        // one writer, applying updates one at a time
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
        // N readers, each validating every observation against the
        // precomputed truth for the version it was served
        for r in 0..READERS {
            let engine = Arc::clone(&engine);
            let h = h.clone();
            let q = q.clone();
            let expected = &expected;
            s.spawn(move || {
                let mut observed_versions = 0usize;
                for i in 0..120 {
                    let out = engine.query(&h).pattern(q.clone()).top_k(3).run().unwrap();
                    let (truth, experts) = expected.get(&out.graph_version).unwrap_or_else(|| {
                        panic!(
                            "reader {r} iteration {i}: version {} was never a \
                             real graph state",
                            out.graph_version
                        )
                    });
                    assert_eq!(
                        *out.matches, *truth,
                        "reader {r} iteration {i}: matches diverge from a fresh \
                         evaluation at version {}",
                        out.graph_version
                    );
                    assert_eq!(
                        &experts_of(&out.experts),
                        experts,
                        "reader {r} iteration {i}: experts diverge from a fresh \
                         ranking at version {}",
                        out.graph_version
                    );
                    observed_versions += 1;
                    if i % 10 == 0 {
                        std::thread::yield_now();
                    }
                }
                assert_eq!(observed_versions, 120);
            });
        }
    });

    // after the writer finishes, the engine agrees with the final truth
    let final_out = engine.evaluate(&h, &q).unwrap();
    let final_truth = engine
        .read_graph(&h, |g| bounded_simulation(g, &q).unwrap())
        .unwrap();
    assert_eq!(*final_out.matches, final_truth);
}

/// Readers of one graph are not blocked by a writer hammering another:
/// different graphs have independent locks. (Correctness check — both
/// workloads finish with exact answers.)
#[test]
fn independent_graphs_run_in_parallel() {
    let engine = Arc::new(ExpFinder::default());
    let ha = engine.add_graph("a", collab_graph(15, 1)).unwrap();
    let hb = engine.add_graph("b", collab_graph(15, 2)).unwrap();
    let q = fig1_pattern();
    let expect_a = engine.evaluate(&ha, &q).unwrap().matches.total_pairs();

    let updates = {
        let base = engine.snapshot(&hb).unwrap();
        random_updates(&mut StdRng::seed_from_u64(5), &base, 40, 0.5)
    };

    std::thread::scope(|s| {
        {
            let engine = Arc::clone(&engine);
            let hb = hb.clone();
            s.spawn(move || {
                for up in updates {
                    engine.apply_updates(&hb, &[up]).unwrap();
                }
            });
        }
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let ha = ha.clone();
            let q = q.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    let got = engine.evaluate(&ha, &q).unwrap().matches.total_pairs();
                    assert_eq!(got, expect_a, "graph `a` never changed");
                }
            });
        }
    });

    // graph b ended in a consistent state too
    let fresh = engine
        .read_graph(&hb, |g| bounded_simulation(g, &q).unwrap())
        .unwrap();
    assert_eq!(*engine.evaluate(&hb, &q).unwrap().matches, fresh);
}

#[test]
fn matchers_are_send_across_threads() {
    // match relations and result graphs move across thread boundaries
    let g = collab_graph(10, 5);
    let (_, q) = demo_queries().remove(0);
    let handle = std::thread::spawn(move || {
        let m = bounded_simulation(&g, &q).unwrap();
        let rg = ResultGraph::build(&g, &q, &m);
        (m.total_pairs(), rg.node_count())
    });
    let (pairs, nodes) = handle.join().unwrap();
    assert!(pairs >= nodes || pairs == 0);
}
