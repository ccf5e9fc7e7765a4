//! Property tests for the deterministic fault-injection layer: whatever
//! single write fault (full, partial, ENOSPC, EIO, or simulated crash)
//! lands on whatever append, the log on disk must remain replayable and
//! must decode to exactly the appends that were acknowledged.
//!
//! The same loop covers `add_graph`, whose `.efg` write, WAL create and
//! catalog insert are one shard command: a fault at any I/O boundary it
//! crosses leaves no catalog entry and no file a restart would adopt,
//! and two racing adds of one name have exactly one winner.

use expfinder_engine::ExpFinderError;
use expfinder_graph::{DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_runtime::wal::{FsyncPolicy, Wal, WalError};
use expfinder_runtime::{
    DurableExpFinder, FaultInjector, FaultKind, FaultPlan, IoOp, RuntimeConfig,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Unique temp path per proptest case (cases run concurrently).
fn tmp_wal(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "expfinder_faultprop_{tag}_{}_{n}.wal",
        std::process::id()
    ))
}

const NODES: u32 = 12;

fn update_strategy() -> impl Strategy<Value = EdgeUpdate> {
    (proptest::bool::ANY, 0..NODES, 0..NODES).prop_map(|(ins, a, b)| {
        if ins {
            EdgeUpdate::Insert(NodeId(a), NodeId(b))
        } else {
            EdgeUpdate::Delete(NodeId(a), NodeId(b))
        }
    })
}

fn batches_strategy(max_batches: usize) -> impl Strategy<Value = Vec<Vec<EdgeUpdate>>> {
    proptest::collection::vec(
        proptest::collection::vec(update_strategy(), 0..8),
        1..max_batches,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A transient write failure (whole-frame or torn at any byte
    /// offset, ENOSPC or EIO) on any append self-heals: the failed
    /// batch is absent, the writer is *not* sealed, and every other
    /// append — including those issued after the fault — replays
    /// intact with contiguous sequence numbers.
    #[test]
    fn transient_write_fault_leaves_an_exact_prefix_log(
        batches in batches_strategy(10),
        fault_sel in 0u32..1000,
        partial_sel in 0usize..64,
        eio in proptest::bool::ANY,
    ) {
        let path = tmp_wal("transient");
        let faults = FaultInjector::disarmed();
        let mut wal =
            Wal::open_with_faults(&path, FsyncPolicy::Never, 0, faults.clone()).unwrap();

        let fault_idx = fault_sel as usize % batches.len();
        let kind = if eio { FaultKind::Eio } else { FaultKind::Enospc };
        // values past 47 mean "no torn bytes": fail the write outright
        let plan = if partial_sel < 48 {
            FaultPlan::new().partial_write(fault_idx as u64, partial_sel, kind)
        } else {
            FaultPlan::new().fail_nth(IoOp::Write, fault_idx as u64, kind)
        };
        faults.arm(plan);

        let mut acked: Vec<&Vec<EdgeUpdate>> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let res = wal.append(batch);
            if i == fault_idx {
                prop_assert!(res.is_err(), "the armed write fault must surface");
                prop_assert!(!wal.is_sealed(), "a plain write fault must not seal");
            } else {
                prop_assert!(res.is_ok(), "append {} failed: {:?}", i, res.err());
                acked.push(batch);
            }
        }
        faults.disarm();
        drop(wal);

        let (records, summary) = Wal::replay(&path).unwrap();
        prop_assert!(!summary.truncated_tail, "self-heal already truncated torn bytes");
        prop_assert_eq!(records.len(), acked.len());
        for (i, (rec, batch)) in records.iter().zip(&acked).enumerate() {
            prop_assert_eq!(rec.seq, i as u64 + 1);
            prop_assert_eq!(rec.as_updates().unwrap(), &batch[..]);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A simulated crash mid-append (torn frame of any length) seals
    /// the writer — further appends refuse with `WalError::Sealed` —
    /// and restart-time replay truncates the torn bytes and recovers
    /// exactly the acknowledged prefix.
    #[test]
    fn crash_mid_append_recovers_exactly_the_acked_prefix(
        batches in batches_strategy(10),
        fault_sel in 0u32..1000,
        torn in 0usize..48,
    ) {
        let path = tmp_wal("crash");
        let faults = FaultInjector::disarmed();
        let mut wal =
            Wal::open_with_faults(&path, FsyncPolicy::Never, 0, faults.clone()).unwrap();

        let fault_idx = fault_sel as usize % batches.len();
        // under Never the only boundaries are writes, so the global
        // boundary index and the append index coincide
        faults.arm(FaultPlan::new().crash_at_partial(fault_idx as u64, torn));

        for (i, batch) in batches.iter().enumerate().take(fault_idx) {
            prop_assert!(wal.append(batch).is_ok(), "pre-crash append {} failed", i);
        }
        let crashed = wal.append(&batches[fault_idx]);
        prop_assert!(crashed.is_err());
        prop_assert!(wal.is_sealed(), "a simulated crash must seal the writer");
        prop_assert!(
            matches!(wal.append(&batches[fault_idx]), Err(WalError::Sealed)),
            "a sealed writer must refuse further appends"
        );
        faults.disarm();
        drop(wal);

        let (records, _) = Wal::replay(&path).unwrap();
        prop_assert_eq!(records.len(), fault_idx, "replay must yield the acked prefix");
        for (i, (rec, batch)) in records.iter().zip(&batches).enumerate() {
            prop_assert_eq!(rec.seq, i as u64 + 1);
            prop_assert_eq!(rec.as_updates().unwrap(), &batch[..]);
        }
        // the repair is persistent: a second replay sees a clean log
        let (again, summary2) = Wal::replay(&path).unwrap();
        prop_assert!(!summary2.truncated_tail);
        prop_assert_eq!(again.len(), records.len());
        let _ = std::fs::remove_file(&path);
    }
}

/// A labelled path of `n` nodes — `n` tells two candidate graphs apart.
fn path_graph(n: u32) -> DiGraph {
    let mut g = DiGraph::new();
    for _ in 0..n {
        g.add_node("N", []);
    }
    for i in 1..n {
        g.add_edge(NodeId(i - 1), NodeId(i));
    }
    g
}

fn runtime(dir: &Path) -> DurableExpFinder {
    let config = RuntimeConfig {
        shards: 2,
        ..RuntimeConfig::default()
    };
    DurableExpFinder::open(dir, config).unwrap()
}

fn files_in(dir: &Path) -> Vec<String> {
    let names = dir.read_dir().unwrap();
    let mut names: Vec<String> = names
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// An `Eio` / `Enospc` at every I/O boundary `add_graph` crosses: the add
/// fails, the graph is neither listed nor resolvable, nothing on disk
/// would be adopted by `open`, and a disarmed retry succeeds and survives
/// a reopen. A simulated crash at the same boundaries runs no cleanup, so
/// a restart sees nothing or the complete graph — never a torn one.
#[test]
fn a_faulted_add_graph_leaves_no_trace() {
    let dir = tmp_wal("add_fault").with_extension("d");
    let g = path_graph(5);

    // count the boundaries of one clean add (fsync: Always)
    let boundaries = {
        let rt = runtime(&dir);
        rt.fault_injector().arm(FaultPlan::new());
        rt.add_graph("g", g.clone()).unwrap();
        let n = rt.fault_injector().boundaries();
        rt.fault_injector().disarm();
        rt.remove_graph("g").unwrap();
        n
    };
    assert!(files_in(&dir).is_empty(), "remove deletes both files");
    // .efg: write, fsync, rename, dir fsync; .wal: header write, fsync
    assert_eq!(boundaries, 6);

    for nth in 0..boundaries {
        for kind in [FaultKind::Eio, FaultKind::Enospc] {
            let rt = runtime(&dir);
            let inj = rt.fault_injector();
            inj.arm(FaultPlan {
                faults: vec![expfinder_runtime::faults::Fault {
                    op: None,
                    nth,
                    partial: None,
                    kind,
                }],
            });
            let err = rt.add_graph("g", g.clone()).unwrap_err();
            assert_eq!(inj.totals().injected, 1, "boundary {nth}: {err}");
            inj.disarm();
            assert!(rt.graph_names().is_empty(), "boundary {nth}");
            assert!(matches!(
                rt.handle("g"),
                Err(ExpFinderError::UnknownGraph(_))
            ));
            assert!(matches!(
                rt.apply_updates("g", &[]),
                Err(ExpFinderError::UnknownGraph(_))
            ));
            assert!(
                files_in(&dir).is_empty(),
                "boundary {nth}: {:?}",
                files_in(&dir)
            );
            drop(rt);
            assert!(runtime(&dir).graph_names().is_empty(), "nothing to adopt");

            // the failure was transient: the same add now succeeds
            let rt = runtime(&dir);
            rt.add_graph("g", g.clone()).unwrap();
            drop(rt);
            let rt = runtime(&dir);
            let h = rt.handle("g").unwrap();
            assert!(rt.read_graph(&h, |r| r.edges().eq(g.edges())).unwrap());
            rt.remove_graph("g").unwrap();
        }

        // a crash is not cleaned up after; recovery copes with what is left
        let rt = runtime(&dir);
        rt.fault_injector().arm(FaultPlan::new().crash_at(nth));
        rt.add_graph("g", g.clone()).unwrap_err();
        assert!(rt.graph_names().is_empty(), "an unacked add is not listed");
        drop(rt);
        let rt = runtime(&dir);
        if let Ok(h) = rt.handle("g") {
            assert!(nth >= 2, "adopted before the rename at boundary {nth}");
            assert!(rt.read_graph(&h, |r| r.edges().eq(g.edges())).unwrap());
            assert_eq!(rt.apply_updates("g", &[]).unwrap(), 0, "and is writable");
            rt.remove_graph("g").unwrap();
        }
        drop(rt);
        for stray in files_in(&dir) {
            std::fs::remove_file(dir.join(stray)).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two threads add the same name at once: under every interleaving
/// exactly one wins, the other sees `DuplicateGraph`, and what is on disk
/// — and listed — is the winner's graph, whole.
#[test]
fn racing_adds_of_one_name_have_exactly_one_winner() {
    let dir = tmp_wal("add_race").with_extension("d");
    let config = RuntimeConfig {
        shards: 2,
        fsync: FsyncPolicy::Never,
        ..RuntimeConfig::default()
    };
    for round in 0..24u32 {
        let rt = DurableExpFinder::open(&dir, config.clone()).unwrap();
        let candidates = [path_graph(3 + round), path_graph(40 + round)];
        let start = Barrier::new(2);
        let results: Vec<_> = std::thread::scope(|s| {
            let racers = candidates.each_ref().map(|g| {
                let (rt, start) = (&rt, &start);
                s.spawn(move || {
                    start.wait();
                    rt.add_graph("g", g.clone())
                })
            });
            racers.map(|r| r.join().unwrap()).into_iter().collect()
        });
        let winner = match (&results[0], &results[1]) {
            (Ok(_), Err(ExpFinderError::DuplicateGraph(_))) => &candidates[0],
            (Err(ExpFinderError::DuplicateGraph(_)), Ok(_)) => &candidates[1],
            other => panic!("round {round}: {other:?}"),
        };
        assert_eq!(rt.graph_names(), ["g"]);
        drop(rt);

        let rt = DurableExpFinder::open(&dir, config.clone()).unwrap();
        let h = rt.handle("g").unwrap();
        let same =
            |r: &DiGraph| r.node_count() == winner.node_count() && r.edges().eq(winner.edges());
        assert!(rt.read_graph(&h, same).unwrap(), "round {round}");
        rt.remove_graph("g").unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
