//! The runtime's headline read-path claim: queries run on published
//! immutable snapshots, so readers racing a writer (1) never block on
//! its log or write mutex and (2) always observe a *consistent* state — every
//! response's matches and ranked experts equal a fresh single-threaded
//! evaluation of the graph at the exact `graph_version` the response
//! reports.

use expfinder_core::{bounded_simulation, top_k, MatchError, RankedMatch};
use expfinder_engine::{EngineConfig, ExecConfig, Route};
use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder_graph::{DiGraph, NodeId};
use expfinder_pattern::fixtures::fig1_pattern;
use expfinder_runtime::{DurableExpFinder, FsyncPolicy, RuntimeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("expfinder_rt_conc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn runtime_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DurableExpFinder>();
    assert_send_sync::<Arc<DurableExpFinder>>();
}

/// N reader threads querying through `Arc<DurableExpFinder>` while one
/// writer streams single-update batches through the WAL.
/// Every observation is validated against a precomputed truth table
/// keyed by graph version.
#[test]
fn readers_consistent_with_concurrent_writer() {
    const READERS: usize = 4;
    const UPDATES: usize = 60;
    const READS_PER_READER: usize = 120;

    let dir = tmpdir("race");
    let base = collaboration(
        &mut StdRng::seed_from_u64(7),
        &CollabConfig {
            teams: 12,
            team_size: 6,
            ..CollabConfig::default()
        },
    );
    let q = fig1_pattern();
    let updates = random_updates(&mut StdRng::seed_from_u64(41), &base, UPDATES, 0.5);

    // The runtime applies the same updates to a clone of `base`
    // in the same order, so it walks the same version sequence — the
    // truth table covers every version a reader can be served.
    let experts_of = |list: &[RankedMatch]| -> Vec<(NodeId, u64)> {
        list.iter().map(|x| (x.node, x.rank.to_bits())).collect()
    };
    let truth_at = |g: &DiGraph| {
        let m = bounded_simulation(g, &q).unwrap();
        let experts = experts_of(&top_k(g, &q, &m, 3).unwrap());
        (m, experts)
    };
    let mut expected: HashMap<u64, _> = HashMap::new();
    {
        let mut g = base.clone();
        expected.insert(g.version(), truth_at(&g));
        for &up in &updates {
            if g.apply(up) {
                expected.insert(g.version(), truth_at(&g));
            }
        }
    }

    let rt = Arc::new(
        DurableExpFinder::open(
            &dir,
            RuntimeConfig {
                fsync: FsyncPolicy::Never,
                engine: EngineConfig {
                    exec: ExecConfig::sequential(),
                    ..EngineConfig::default()
                },
                ..RuntimeConfig::default()
            },
        )
        .unwrap(),
    );
    rt.add_graph("live", base).unwrap();

    std::thread::scope(|s| {
        {
            let rt = Arc::clone(&rt);
            let updates = &updates;
            s.spawn(move || {
                for &up in updates {
                    rt.apply_updates("live", &[up]).unwrap();
                    std::thread::yield_now();
                }
            });
        }
        for r in 0..READERS {
            let rt = Arc::clone(&rt);
            let q = q.clone();
            let expected = &expected;
            s.spawn(move || {
                for i in 0..READS_PER_READER {
                    let out = rt
                        .query_deadline(&rt.handle("live").unwrap(), &q, Some(3), Route::Auto, None)
                        .unwrap();
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
                    if i % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });

    // quiesced: the runtime agrees with the final truth
    let final_out = rt
        .query_deadline(&rt.handle("live").unwrap(), &q, None, Route::Auto, None)
        .unwrap();
    let final_truth: Result<_, MatchError> = rt
        .read_graph(&rt.handle("live").unwrap(), |g| bounded_simulation(g, &q))
        .unwrap();
    assert_eq!(*final_out.matches, final_truth.unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers on one graph do not serialize with readers of another: each
/// graph has its own log, and reads touch no log at all. Correctness check — both sides finish with exact
/// answers while racing.
#[test]
fn readers_of_one_graph_race_writers_of_another() {
    let dir = tmpdir("twograph");
    let mk = |seed| {
        collaboration(
            &mut StdRng::seed_from_u64(seed),
            &CollabConfig {
                teams: 8,
                team_size: 6,
                ..CollabConfig::default()
            },
        )
    };
    let hot: DiGraph = mk(1);
    let cold: DiGraph = mk(2);
    let q = fig1_pattern();
    let cold_truth = bounded_simulation(&cold, &q).unwrap();
    let updates = random_updates(&mut StdRng::seed_from_u64(3), &hot, 40, 0.5);

    let rt = Arc::new(
        DurableExpFinder::open(
            &dir,
            RuntimeConfig {
                fsync: FsyncPolicy::Never,
                engine: EngineConfig {
                    exec: ExecConfig::sequential(),
                    ..EngineConfig::default()
                },
                ..RuntimeConfig::default()
            },
        )
        .unwrap(),
    );
    rt.add_graph("hot", hot).unwrap();
    rt.add_graph("cold", cold).unwrap();

    std::thread::scope(|s| {
        {
            let rt = Arc::clone(&rt);
            let updates = &updates;
            s.spawn(move || {
                for chunk in updates.chunks(4) {
                    rt.apply_updates("hot", chunk).unwrap();
                }
            });
        }
        for _ in 0..3 {
            let rt = Arc::clone(&rt);
            let q = q.clone();
            let cold_truth = &cold_truth;
            s.spawn(move || {
                for _ in 0..50 {
                    let out = rt
                        .query_deadline(&rt.handle("cold").unwrap(), &q, None, Route::Auto, None)
                        .unwrap();
                    assert_eq!(*out.matches, *cold_truth, "cold graph never changed");
                }
            });
        }
    });

    let totals = rt.wal_totals();
    assert_eq!(totals.appends, updates.chunks(4).count() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
