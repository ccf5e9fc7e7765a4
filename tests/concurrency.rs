//! Concurrency tests: both facades are `Send + Sync` with a fully `&self`
//! read path, so one `Arc` serves many threads — the production scenario
//! of one service answering many clients. These tests hammer that
//! contract, judging every answer by the naive oracle and the reference
//! ranking:
//!
//! * many readers against one graph get the oracle's answers;
//! * readers racing a writer — single ranked reads and batches, on the
//!   in-memory and on the durable facade — always observe a *consistent
//!   snapshot*: every response's matches *and ranked experts* equal the
//!   oracle's at the version the response reports, so a ranked answer
//!   cached at one version is never served at another;
//! * readers of one graph proceed while a writer updates another (each
//!   graph has its own write mutex, and on the durable facade its own
//!   log, which reads never touch).

use expfinder::engine::Catalog;
use expfinder::graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder::pattern::fixtures::{demo_queries, fig1_pattern};
use expfinder::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::oracle;
use expfinder::core::naive::reference_rank;

use expfinder::core::{RankedMatch, Semantics};

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

fn naive(g: &DiGraph, q: &Pattern) -> MatchRelation {
    oracle(g, q, Semantics::Bounded)
}

/// Node order and rank bits of the reference top-`k`.
fn ranked(g: &DiGraph, q: &Pattern, k: usize) -> Vec<(NodeId, u64)> {
    bits(&reference_rank(g, q, &naive(g, q), k))
}

fn bits(list: &[RankedMatch]) -> Vec<(NodeId, u64)> {
    list.iter().map(|x| (x.node, x.rank.to_bits())).collect()
}

fn engine_with_collab() -> (Arc<ExpFinder>, GraphHandle, DiGraph) {
    let e = Arc::new(ExpFinder::default());
    let g = collab_graph(30, 99);
    let h = e.add_graph("c", g.clone()).unwrap();
    (e, h, g)
}

/// Either facade behind the one read surface, with its edge write. Both
/// are boxed, so the two variants stay a pointer apart in size whatever
/// either facade grows.
enum Facade {
    Memory(Box<ExpFinder>),
    /// The runtime and its directory, removed on drop.
    Durable(Box<DurableExpFinder>, PathBuf),
}

impl Deref for Facade {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        match self {
            Facade::Memory(e) => e,
            Facade::Durable(rt, _) => rt,
        }
    }
}

impl Drop for Facade {
    fn drop(&mut self) {
        if let Facade::Durable(_, dir) = self {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Facade {
    /// An in-memory and a durable facade (in a fresh directory named
    /// after `tag`), each with a `threads` budget.
    fn both(threads: usize, tag: &str) -> [Facade; 2] {
        let engine = EngineConfig { threads };
        let dir = std::env::temp_dir().join(format!("expfinder_conc_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = RuntimeConfig {
            fsync: FsyncPolicy::Never,
            engine: engine.clone(),
            ..RuntimeConfig::default()
        };
        let rt = DurableExpFinder::open(&dir, config).unwrap();
        [
            Facade::Memory(Box::new(ExpFinder::new(engine))),
            Facade::Durable(Box::new(rt), dir),
        ]
    }

    fn add(&self, name: &str, g: DiGraph) -> GraphHandle {
        match self {
            Facade::Memory(e) => e.add_graph(name, g).unwrap(),
            Facade::Durable(rt, _) => {
                rt.add_graph(name, g).unwrap();
                rt.handle(name).unwrap()
            }
        }
    }

    fn update(&self, h: &GraphHandle, updates: &[EdgeUpdate]) {
        match self {
            Facade::Memory(e) => e.apply_updates(h, updates),
            Facade::Durable(rt, _) => rt.apply_updates(h.name(), updates),
        }
        .unwrap();
    }
}

/// Both facades uphold the shareability contract.
#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExpFinder>();
    assert_send_sync::<Arc<ExpFinder>>();
    assert_send_sync::<DurableExpFinder>();
    assert_send_sync::<Arc<DurableExpFinder>>();
    assert_send_sync::<GraphHandle>();
    assert_send_sync::<QueryResponse>();
}

#[test]
fn parallel_queries_agree() {
    let (engine, h, g) = engine_with_collab();
    let queries = demo_queries();
    let reference: Vec<MatchRelation> = queries.iter().map(|(_, q)| naive(&g, q)).collect();

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
                        let got = engine.query(h, &QuerySpec::pattern(q.clone())).unwrap();
                        assert_eq!(
                            *got.matches, reference[i],
                            "thread {t} round {round} query {i}"
                        );
                    }
                }
            });
        }
    });

    // the cache took hits from all threads without corruption
    let stats = engine.read_path().cache_stats();
    assert!(stats.get("hits") > 0);
    assert_eq!(stats.get("hits") + stats.get("misses"), 8 * 5 * 3);
}

#[test]
fn parallel_ranked_reports_agree() {
    let (engine, h, g) = engine_with_collab();
    let (_, q) = &demo_queries()[0];
    let reference = ranked(&g, q, 3);

    std::thread::scope(|s| {
        for _ in 0..6 {
            let engine = &engine;
            let h = &h;
            let reference = &reference;
            s.spawn(move || {
                let resp = engine
                    .query(h, &QuerySpec::pattern(q.clone()).top_k(3))
                    .unwrap();
                assert_eq!(&bits(&resp.experts), reference);
            });
        }
    });
}

/// The headline requirement, on both facades: reader threads — single
/// ranked reads and batches of every demo query — while one writer
/// applies updates one at a time. Every answer a reader observes equals
/// the oracle's relation and reference ranking of the graph at the
/// version the facade reported for it.
#[test]
fn readers_consistent_with_concurrent_writer() {
    const READERS: usize = 4;
    const UPDATES: usize = 60;
    const READS: usize = 60;

    let base = collab_graph(20, 7);
    let queries = demo_queries();
    let updates = random_updates(&mut StdRng::seed_from_u64(41), &base, UPDATES, 0.5);

    // single-threaded truth at every version the graph passes through;
    // both facades apply the same updates in the same order to a copy
    // of `base`, so they walk the same version sequence
    type Truth = Vec<(MatchRelation, Vec<(NodeId, u64)>)>;
    let truth_at = |g: &DiGraph| -> Truth {
        let each = |(_, q): &(_, Pattern)| (naive(g, q), ranked(g, q, 3));
        queries.iter().map(each).collect()
    };
    let mut expected: HashMap<u64, Truth> = HashMap::new();
    let mut g = base.clone();
    expected.insert(g.version(), truth_at(&g));
    for &up in &updates {
        if g.apply(up) {
            expected.insert(g.version(), truth_at(&g));
        }
    }

    for facade in Facade::both(2, "race") {
        let h = facade.add("live", base.clone());
        let check = |who: &str, qi: usize, out: &QueryResponse| {
            let version = out.graph_version;
            let truth = expected
                .get(&version)
                .unwrap_or_else(|| panic!("{who}: version {version} was never a real graph state"));
            let (matches, experts) = &truth[qi];
            assert_eq!(
                *out.matches, *matches,
                "{who}: matches at version {version}"
            );
            assert_eq!(
                bits(&out.experts),
                *experts,
                "{who}: experts at version {version}"
            );
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for up in &updates {
                    facade.update(&h, std::slice::from_ref(up));
                    std::thread::yield_now();
                }
            });
            for r in 0..READERS {
                let (facade, h, queries, check) = (&facade, &h, &queries, &check);
                s.spawn(move || {
                    for i in 0..READS {
                        let qi = i % queries.len();
                        if i % 2 == 0 {
                            let q = queries[qi].1.clone();
                            let out = facade.query(h, &QuerySpec::pattern(q).top_k(3)).unwrap();
                            check(&format!("reader {r} read {i}"), qi, &out);
                        } else {
                            let specs = queries
                                .iter()
                                .map(|(_, q)| QuerySpec::pattern(q.clone()).top_k(3));
                            let batch = facade.query_batch(h, specs.collect(), None);
                            for (qi, slot) in batch.iter().enumerate() {
                                check(
                                    &format!("reader {r} batch {i} slot {qi}"),
                                    qi,
                                    slot.as_ref().unwrap(),
                                );
                            }
                        }
                    }
                });
            }
        });

        // quiesced: the facade agrees with the final truth
        for (qi, (_, q)) in queries.iter().enumerate() {
            check(
                "final",
                qi,
                &facade
                    .query(&h, &QuerySpec::pattern(q.clone()).top_k(3))
                    .unwrap(),
            );
        }
    }
}

/// Readers of one graph are not blocked by a writer hammering another:
/// different graphs have independent write mutexes (and, durably,
/// independent logs). Both workloads finish with exact answers.
#[test]
fn independent_graphs_run_in_parallel() {
    let (a, b) = (collab_graph(15, 1), collab_graph(15, 2));
    let q = fig1_pattern();
    let expect_a = naive(&a, &q);
    let updates = random_updates(&mut StdRng::seed_from_u64(5), &b, 40, 0.5);

    for facade in Facade::both(1, "twograph") {
        let ha = facade.add("a", a.clone());
        let hb = facade.add("b", b.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                for chunk in updates.chunks(4) {
                    facade.update(&hb, chunk);
                }
            });
            for _ in 0..4 {
                let (facade, ha, q, expect_a) = (&facade, &ha, &q, &expect_a);
                s.spawn(move || {
                    for _ in 0..50 {
                        let got = facade.query(ha, &QuerySpec::pattern(q.clone())).unwrap();
                        assert_eq!(*got.matches, *expect_a, "graph `a` never changed");
                    }
                });
            }
        });

        // graph b ended in a consistent state too
        let fresh = facade.read_graph(&hb, |g| naive(g, &q)).unwrap();
        assert_eq!(
            *facade
                .query(&hb, &QuerySpec::pattern(q.clone()))
                .unwrap()
                .matches,
            fresh
        );
        if let Facade::Durable(rt, _) = &facade {
            assert_eq!(
                rt.wal_totals().get("appends"),
                updates.chunks(4).count() as u64
            );
        }
    }
}

#[test]
fn matchers_are_send_across_threads() {
    // match relations and result graphs move across thread boundaries
    let g = collab_graph(10, 5);
    let (_, q) = demo_queries().remove(0);
    let handle = std::thread::spawn(move || {
        let m = naive(&g, &q);
        let rg = ResultGraph::build(&g, &q, &m);
        (m.total_pairs(), rg.node_count())
    });
    let (pairs, nodes) = handle.join().unwrap();
    assert!(pairs >= nodes || pairs == 0);
}
