//! Crash-recovery tests for [`DurableExpFinder`]: a runtime that goes
//! away without writing any snapshot must come back — via WAL replay —
//! to a state whose query answers are **bit-identical** to an in-memory
//! oracle that applied the same updates. A torn final frame is cut off
//! the file in place, a failed fsync seals the log until a reopen, and a
//! snapshot's bytes are fsynced before the rename that publishes them.
//! (A simulated crash at every I/O boundary of a durable write is the
//! root package's differential harness, `tests/differential.rs`; the
//! out-of-process `kill -9` of `serve` is the repo benchmark's smoke
//! run, which restarts both durable workloads and checks the recovered
//! answers against the naive oracle.)

use expfinder_engine::{QuerySpec, Route};
use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::fixtures::demo_queries;
use expfinder_runtime::{DurableExpFinder, FaultKind, FaultPlan, FsyncPolicy, IoOp, RuntimeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

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

fn fsync_always() -> RuntimeConfig {
    RuntimeConfig {
        fsync: FsyncPolicy::Always,
        ..RuntimeConfig::default()
    }
}

/// `base` with every update of `batches` applied.
fn applied(base: &DiGraph, batches: &[&[EdgeUpdate]]) -> DiGraph {
    let mut g = base.clone();
    for &up in batches.iter().copied().flatten() {
        g.apply(up);
    }
    g
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
        let got = rt
            .query(&rt.handle(name).unwrap(), &QuerySpec::pattern(q.clone()))
            .unwrap();
        let want = engine
            .query(&h, &QuerySpec::pattern(q).prefer(Route::Direct))
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
    assert_eq!(totals.get("replayed_frames"), batches.len() as u64);
    assert_eq!(totals.get("replayed_updates"), updates.len() as u64);
    assert_eq!(totals.get("truncated_tails"), 0);

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
    assert_eq!(
        totals.get("truncated_tails"),
        1,
        "torn tail must be detected"
    );
    assert_eq!(totals.get("replayed_frames"), batches.len() as u64 - 1);
    // the repair is on disk: the next append starts on a frame boundary
    let repaired = std::fs::metadata(&wal_path).unwrap().len();
    assert!(
        repaired < bytes.len() as u64,
        "torn tail left in place: {repaired} bytes, torn file was {}",
        bytes.len()
    );

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
    assert_eq!(rt.wal_totals().get("replayed_frames"), 2);

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
/// the run: the failed batch changed and published nothing (the append
/// comes before the graph is touched), it retries cleanly (the log
/// self-healed), the oracle checks still pass, and recovery after
/// restart is exact.
#[test]
fn injected_enospc_mid_run_keeps_recovery_exact() {
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
        let h = rt.handle("c").unwrap();
        for batch in &batches {
            let before = rt.latest(&h).unwrap();
            if rt.apply_updates("c", batch).is_err() {
                failures += 1;
                assert!(Arc::ptr_eq(&rt.latest(&h).unwrap(), &before));
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
        totals.get("truncated_tails"),
        0,
        "self-heal left no torn tail behind"
    );
    assert_eq!(totals.get("replayed_updates"), updates.len() as u64);

    let mut oracle = base;
    for &up in &updates {
        oracle.apply(up);
    }
    assert_queries_match_oracle(&rt, "c", &oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed fsync seals the log: the append whose fsync failed errors,
/// and so does every later one, with the sealed error — whether the
/// frame reached the disk is unknowable, so the writer never acks again.
/// A reopen recovers exactly the acknowledged prefix and takes appends
/// again.
#[test]
fn a_failed_fsync_seals_the_log_until_a_reopen() {
    let dir = tmpdir("seal");
    let base = collab(61);
    let updates = random_updates(&mut StdRng::seed_from_u64(62), &base, 18, 0.5);
    let batches: Vec<&[EdgeUpdate]> = updates.chunks(6).collect();

    {
        let rt = DurableExpFinder::open(&dir, fsync_always()).unwrap();
        rt.add_graph("c", base.clone()).unwrap();
        // the second append's fsync fails
        let plan = FaultPlan::new().fail_nth(IoOp::Fsync, 1, FaultKind::Eio);
        rt.fault_injector().arm(plan);
        rt.apply_updates("c", batches[0]).unwrap();
        assert!(rt.apply_updates("c", batches[1]).is_err());
        let refused = rt.apply_updates("c", batches[2]).unwrap_err();
        assert!(refused.to_string().contains("sealed"), "{refused}");
        assert_eq!(rt.fault_totals().injected, 1);
    }

    let rt = DurableExpFinder::open(&dir, fsync_always()).unwrap();
    assert_eq!(rt.wal_totals().get("replayed_frames"), 1);
    assert_queries_match_oracle(&rt, "c", &applied(&base, &batches[..1]));
    rt.apply_updates("c", batches[2]).unwrap();
    drop(rt);
    let rt = DurableExpFinder::open(&dir, fsync_always()).unwrap();
    assert_eq!(rt.wal_totals().get("replayed_frames"), 2);
    assert_queries_match_oracle(&rt, "c", &applied(&base, &[batches[0], batches[2]]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The I/O a snapshot and a compaction cross, in order. A rename
/// publishes only bytes an fsync has made durable, and an fsync of the
/// directory makes the rename itself durable. An in-process crash loses
/// no page cache, so no crash sweep can see a rename that overtakes its
/// fsync: the order is asserted here.
#[test]
fn snapshot_and_compaction_fsync_before_they_rename() {
    use IoOp::{Fsync, Rename, Write};

    let dir = tmpdir("order");
    let rt = DurableExpFinder::open(&dir, fsync_always()).unwrap();
    rt.add_graph("c", collab(71)).unwrap();
    let (name, q) = demo_queries().remove(0);
    rt.register_query("c", &name, q).unwrap();
    let faults = rt.fault_injector();
    faults.arm(FaultPlan::new());
    rt.snapshot("c").unwrap();
    // .efg body, its fsync, the rename, the directory's fsync
    assert_eq!(faults.op_log(), [Write, Fsync, Rename, Fsync]);
    faults.arm(FaultPlan::new());
    rt.compact("c").unwrap();
    // the snapshot, then the new log: header, one register record, its
    // fsync, the rename over the old log, the directory's fsync
    let swap = [Write, Write, Fsync, Rename, Fsync];
    assert_eq!(
        faults.op_log(),
        [&[Write, Fsync, Rename, Fsync][..], &swap].concat()
    );
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
    assert_eq!(rt.wal_totals().get("replayed_frames"), 1);
    assert_eq!(rt.wal_totals().get("replayed_updates"), second.len() as u64);

    let mut oracle = base;
    for &up in &updates {
        oracle.apply(up);
    }
    assert_queries_match_oracle(&rt, "c", &oracle);
    let _ = std::fs::remove_dir_all(&dir);
}
