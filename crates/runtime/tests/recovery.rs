//! Crash-recovery tests for [`DurableExpFinder`]: a runtime that goes
//! away without writing any snapshot must come back — via WAL replay —
//! to a state whose query answers are **bit-identical** to an in-memory
//! oracle that applied the same updates. (The out-of-process `kill -9`
//! variant lives in the server crate's `recovery_smoke` binary; these
//! tests cover the same replay machinery in-process.)

use expfinder_engine::Route;
use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::fixtures::demo_queries;
use expfinder_runtime::{DurableExpFinder, FsyncPolicy, RuntimeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("expfinder_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        fsync: FsyncPolicy::Never,
        ..RuntimeConfig::default()
    }
}

fn collab(seed: u64) -> DiGraph {
    collaboration(
        &mut StdRng::seed_from_u64(seed),
        &CollabConfig {
            teams: 6,
            team_size: 6,
            ..CollabConfig::default()
        },
    )
}

/// Every demo query must answer identically on the recovered runtime
/// and on the oracle graph.
fn assert_queries_match_oracle(rt: &DurableExpFinder, name: &str, oracle: &DiGraph) {
    let engine = expfinder_engine::ExpFinder::default();
    let h = engine.add_graph("oracle", oracle.clone()).unwrap();
    for (qname, q) in demo_queries() {
        let got = rt.evaluate(&rt.handle(name).unwrap(), &q).unwrap();
        let want = engine
            .query(&h)
            .pattern(q)
            .prefer(Route::Direct)
            .run()
            .unwrap();
        assert_eq!(
            *got.matches, *want.matches,
            "query {qname:?} diverged after recovery"
        );
    }
}

#[test]
fn replay_restores_updates_applied_before_the_crash() {
    let dir = tmpdir("basic");
    let base = collab(11);
    let updates = random_updates(&mut StdRng::seed_from_u64(12), &base, 40, 0.5);
    let batches: Vec<&[EdgeUpdate]> = updates.chunks(8).collect();

    {
        let rt = DurableExpFinder::open(&dir, config()).unwrap();
        rt.add_graph("c", base.clone()).unwrap();
        for batch in &batches {
            rt.apply_updates("c", batch).unwrap();
        }
        // dropped here with no snapshot/compaction: the .efg still
        // holds the *initial* graph, every batch lives only in the WAL
    }

    let rt = DurableExpFinder::open(&dir, config()).unwrap();
    let totals = rt.wal_totals();
    assert_eq!(totals.replayed_frames, batches.len() as u64);
    assert_eq!(totals.replayed_updates, updates.len() as u64);
    assert_eq!(totals.truncated_tails, 0);

    let mut oracle = base;
    for &up in &updates {
        oracle.apply(up);
    }
    assert_queries_match_oracle(&rt, "c", &oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_frame_is_dropped_and_the_rest_recovers() {
    let dir = tmpdir("torn");
    let base = collab(21);
    let updates = random_updates(&mut StdRng::seed_from_u64(22), &base, 30, 0.5);
    let batches: Vec<&[EdgeUpdate]> = updates.chunks(6).collect();

    {
        let rt = DurableExpFinder::open(&dir, config()).unwrap();
        rt.add_graph("c", base.clone()).unwrap();
        for batch in &batches {
            rt.apply_updates("c", batch).unwrap();
        }
    }

    // simulate a crash mid-append: chop the last 3 bytes off the log
    let wal_path = dir.join("c.wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.truncate(bytes.len() - 3);
    std::fs::write(&wal_path, &bytes).unwrap();

    let rt = DurableExpFinder::open(&dir, config()).unwrap();
    let totals = rt.wal_totals();
    assert_eq!(totals.truncated_tails, 1, "torn tail must be detected");
    assert_eq!(totals.replayed_frames, batches.len() as u64 - 1);

    // oracle state: everything except the torn final batch
    let mut oracle = base;
    for batch in &batches[..batches.len() - 1] {
        for &up in *batch {
            oracle.apply(up);
        }
    }
    assert_queries_match_oracle(&rt, "c", &oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_mid_stream_keeps_replay_convergent() {
    let dir = tmpdir("snapshot");
    let base = collab(31);
    let updates = random_updates(&mut StdRng::seed_from_u64(32), &base, 24, 0.5);
    let (first, second) = updates.split_at(12);

    {
        let rt = DurableExpFinder::open(&dir, config()).unwrap();
        rt.add_graph("c", base.clone()).unwrap();
        rt.apply_updates("c", first).unwrap();
        // rewrite .efg *without* truncating the WAL: recovery will
        // replay the full log onto the newer snapshot and must converge
        rt.snapshot("c").unwrap();
        rt.apply_updates("c", second).unwrap();
    }

    let rt = DurableExpFinder::open(&dir, config()).unwrap();
    assert_eq!(rt.wal_totals().replayed_frames, 2);

    let mut oracle = base;
    for &up in &updates {
        oracle.apply(up);
    }
    let edges = rt
        .read_graph(&rt.handle("c").unwrap(), |g| {
            let mut e: Vec<_> = g.edges().collect();
            e.sort_unstable();
            e
        })
        .unwrap();
    let mut oracle_edges: Vec<_> = oracle.edges().collect();
    oracle_edges.sort_unstable();
    assert_eq!(edges, oracle_edges);
    assert_queries_match_oracle(&rt, "c", &oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected ENOSPC that tears an append mid-frame must not poison
/// the run: the failed batch retries cleanly (the log self-healed), the
/// oracle checks still pass, and recovery after restart is exact.
#[test]
fn injected_enospc_mid_run_keeps_recovery_exact() {
    use expfinder_runtime::{FaultKind, FaultPlan};

    let dir = tmpdir("enospc");
    let base = collab(51);
    let updates = random_updates(&mut StdRng::seed_from_u64(52), &base, 40, 0.5);
    let batches: Vec<&[EdgeUpdate]> = updates.chunks(8).collect();

    {
        let rt = DurableExpFinder::open(&dir, config()).unwrap();
        rt.add_graph("c", base.clone()).unwrap();
        // tear the third append after 5 bytes, then report ENOSPC
        let inj = rt.fault_injector();
        inj.arm(FaultPlan::new().partial_write(2, 5, FaultKind::Enospc));
        let mut failures = 0;
        for batch in &batches {
            if rt.apply_updates("c", batch).is_err() {
                failures += 1;
                // the log truncated the torn frame: the retry must land
                rt.apply_updates("c", batch).unwrap();
            }
        }
        assert_eq!(failures, 1, "exactly the armed append fails");
        assert_eq!(rt.fault_totals().injected, 1);
        inj.disarm();
        assert_queries_match_oracle(&rt, "c", &{
            let mut g = base.clone();
            for &up in &updates {
                g.apply(up);
            }
            g
        });
    }

    let rt = DurableExpFinder::open(&dir, config()).unwrap();
    let totals = rt.wal_totals();
    assert_eq!(
        totals.truncated_tails, 0,
        "self-heal left no torn tail behind"
    );
    assert_eq!(totals.replayed_updates, updates.len() as u64);

    let mut oracle = base;
    for &up in &updates {
        oracle.apply(up);
    }
    assert_queries_match_oracle(&rt, "c", &oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_survives_restart_with_short_log() {
    let dir = tmpdir("compact");
    let base = collab(41);
    let updates = random_updates(&mut StdRng::seed_from_u64(42), &base, 24, 0.5);
    let (first, second) = updates.split_at(12);

    {
        let rt = DurableExpFinder::open(&dir, config()).unwrap();
        rt.add_graph("c", base.clone()).unwrap();
        rt.apply_updates("c", first).unwrap();
        rt.compact("c").unwrap();
        rt.apply_updates("c", second).unwrap();
    }

    let rt = DurableExpFinder::open(&dir, config()).unwrap();
    // only the post-compaction batch is in the log
    assert_eq!(rt.wal_totals().replayed_frames, 1);
    assert_eq!(rt.wal_totals().replayed_updates, second.len() as u64);

    let mut oracle = base;
    for &up in &updates {
        oracle.apply(up);
    }
    assert_queries_match_oracle(&rt, "c", &oracle);
    let _ = std::fs::remove_dir_all(&dir);
}
