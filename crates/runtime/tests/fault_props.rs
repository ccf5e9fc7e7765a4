//! Property tests for the deterministic fault-injection layer: whatever
//! single write fault (full, partial, ENOSPC, EIO, or simulated crash)
//! lands on whatever append, the log on disk must remain replayable and
//! must decode to exactly the appends that were acknowledged.
//!
//! The same loop covers `add_graph`, whose `.efg` write, WAL create and
//! catalog insert happen under one lock: a fault at any I/O boundary it
//! crosses leaves no catalog entry and no file a restart would adopt, and
//! `remove_graph`: a fault at any boundary it crosses leaves the graph
//! listed, writable and on disk. Writes run on their callers' threads, so
//! the races the locks must order — two adds of one name, appends against
//! compaction, appends against a remove and re-add — are tested too, and
//! so is the one they must not: an add held inside its file I/O does not
//! hold up writes to another graph.

use expfinder_engine::ExpFinderError;
use expfinder_graph::{DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_runtime::faults::Fault;
use expfinder_runtime::wal::{FsyncPolicy, Wal, WalError};
use expfinder_runtime::{
    DurableExpFinder, FaultInjector, FaultKind, FaultPlan, IoOp, RuntimeConfig,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

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
    DurableExpFinder::open(dir, RuntimeConfig::default()).unwrap()
}

fn sorted_edges(g: &DiGraph) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort_unstable();
    edges
}

/// Fail global I/O boundary `nth` with `kind`.
fn fail_at(nth: u64, kind: FaultKind) -> FaultPlan {
    FaultPlan {
        faults: vec![Fault {
            op: None,
            nth,
            partial: None,
            kind,
        }],
    }
}

/// `n` one-update batches toggling the edges `(i, 3)` of a 4-node graph.
fn toggles(n: u32) -> Vec<Vec<EdgeUpdate>> {
    let batch = |i: u32| {
        let (a, b) = (NodeId(i % 3), NodeId(3));
        match (i / 3) % 2 {
            0 => vec![EdgeUpdate::Insert(a, b)],
            _ => vec![EdgeUpdate::Delete(a, b)],
        }
    };
    (0..n).map(batch).collect()
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
            inj.arm(fail_at(nth, kind));
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
            assert_eq!(
                rt.apply_updates("g", &[]).unwrap().applied,
                0,
                "and is writable"
            );
            rt.remove_graph("g").unwrap();
        }
        drop(rt);
        for stray in files_in(&dir) {
            std::fs::remove_file(dir.join(stray)).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `Eio` / `Enospc` at every I/O boundary `remove_graph` crosses: the
/// remove fails, and the graph stays listed, readable and writable, and
/// survives a reopen with its logged update; a disarmed retry then removes
/// it for good. A simulated crash at the same boundaries leaves a restart
/// the graph whole or absent.
#[test]
fn a_faulted_remove_graph_keeps_the_graph() {
    let dir = tmp_wal("remove_fault").with_extension("d");
    let g = path_graph(5);
    let up = EdgeUpdate::Insert(NodeId(4), NodeId(0));
    let mut want = g.clone();
    want.apply(up);
    let seeded = || {
        let rt = runtime(&dir);
        rt.add_graph("g", g.clone()).unwrap();
        rt.apply_updates("g", &[up]).unwrap();
        rt
    };
    let whole = |rt: &DurableExpFinder| {
        let h = rt.handle("g").unwrap();
        rt.read_graph(&h, |r| sorted_edges(r) == sorted_edges(&want))
            .unwrap()
    };

    // count the boundaries of one clean remove (fsync: Always)
    let boundaries = {
        let rt = seeded();
        rt.fault_injector().arm(FaultPlan::new());
        rt.remove_graph("g").unwrap();
        let n = rt.fault_injector().boundaries();
        rt.fault_injector().disarm();
        n
    };
    assert!(files_in(&dir).is_empty(), "remove deletes both files");
    // .efg unlink, dir fsync
    assert_eq!(boundaries, 2);

    for nth in 0..boundaries {
        for kind in [FaultKind::Eio, FaultKind::Enospc] {
            let rt = seeded();
            let inj = rt.fault_injector();
            inj.arm(fail_at(nth, kind));
            let err = rt.remove_graph("g").unwrap_err();
            assert_eq!(inj.totals().injected, 1, "boundary {nth}: {err}");
            inj.disarm();
            assert_eq!(rt.graph_names(), ["g"], "boundary {nth}: still listed");
            assert!(whole(&rt), "boundary {nth}: still readable");
            assert_eq!(
                rt.apply_updates("g", &[up]).unwrap().applied,
                0,
                "and writable"
            );
            drop(rt);

            let rt = runtime(&dir);
            assert!(whole(&rt), "boundary {nth}: survives reopen");
            // the failure was transient: a retry removes it for good
            rt.remove_graph("g").unwrap();
            drop(rt);
            assert!(runtime(&dir).graph_names().is_empty(), "boundary {nth}");
            assert!(
                files_in(&dir).is_empty(),
                "boundary {nth}: {:?}",
                files_in(&dir)
            );
        }

        // a crash is not cleaned up after; recovery copes with what is left
        let rt = seeded();
        rt.fault_injector().arm(FaultPlan::new().crash_at(nth));
        rt.remove_graph("g").unwrap_err();
        drop(rt);
        let rt = runtime(&dir);
        if rt.handle("g").is_ok() {
            assert!(whole(&rt), "boundary {nth}: reopened a torn graph");
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

/// One thread streams update batches while another compacts the same graph
/// a few times: under every interleaving no acked batch is lost to a log
/// swap, so a reopen finds the graph the whole stream produced. The stream
/// outlasts the compactions (each append fsyncs), so the last swap races
/// appends and no later snapshot can paper over a batch it dropped; each
/// batch inserts an edge of its own, so no later batch can either.
#[test]
fn compaction_racing_appends_loses_no_acked_batch() {
    let dir = tmp_wal("compact_race").with_extension("d");
    let batches: Vec<Vec<EdgeUpdate>> = (0..120)
        .map(|i| vec![EdgeUpdate::Insert(NodeId(i / 16), NodeId(i % 16))])
        .collect();
    let base = path_graph(16);
    let mut model = base.clone();
    for &up in batches.iter().flatten() {
        model.apply(up);
    }
    for round in 0..8 {
        let rt = runtime(&dir);
        rt.add_graph("g", base.clone()).unwrap();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let (rt, start, batches) = (&rt, &start, &batches);
            s.spawn(move || {
                start.wait();
                for batch in batches {
                    rt.apply_updates("g", batch).unwrap();
                }
            });
            s.spawn(move || {
                start.wait();
                for _ in 0..3 {
                    rt.compact("g").unwrap();
                }
            });
        });
        drop(rt);

        let rt = runtime(&dir);
        let h = rt.handle("g").unwrap();
        let got = rt.read_graph(&h, sorted_edges).unwrap();
        assert_eq!(got, sorted_edges(&model), "round {round}");
        rt.remove_graph("g").unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One thread streams update batches while another removes the graph and
/// re-adds the name: every apply is acked or refused as unknown, never
/// logged after its graph's files are gone, and after a reopen the new
/// graph holds exactly the batches acked by the new life — none of the old
/// graph's frames. The old graph's versions start far above anything the
/// new one reaches, so an ack's `graph_version` says which life took it.
#[test]
fn appends_racing_remove_and_readd_stay_with_their_life() {
    let dir = tmp_wal("remove_race").with_extension("d");
    let config = RuntimeConfig {
        fsync: FsyncPolicy::Never,
        ..RuntimeConfig::default()
    };
    let batches = toggles(24);
    let (old, fresh) = (path_graph(64), path_graph(4));
    let new_life = old.version();
    assert!(fresh.version() + (batches.len() as u64) < new_life);
    for round in 0..16 {
        let rt = DurableExpFinder::open(&dir, config.clone()).unwrap();
        rt.add_graph("g", old.clone()).unwrap();
        let start = Barrier::new(2);
        let acked: Vec<&Vec<EdgeUpdate>> = std::thread::scope(|s| {
            let (rt, start) = (&rt, &start);
            let writer = s.spawn(|| {
                start.wait();
                let mut acked = Vec::new();
                for batch in &batches {
                    match rt.apply_updates("g", batch) {
                        Ok(r) if r.graph_version < new_life => acked.push(batch),
                        Ok(_)
                        | Err(ExpFinderError::UnknownGraph(_))
                        | Err(ExpFinderError::StaleHandle(_)) => {}
                        Err(e) => panic!("round {round}: {e}"),
                    }
                }
                acked
            });
            s.spawn(|| {
                start.wait();
                rt.remove_graph("g").unwrap();
                rt.add_graph("g", fresh.clone()).unwrap();
            });
            writer.join().unwrap()
        });
        drop(rt);

        let mut model = fresh.clone();
        for &up in acked.iter().copied().flatten() {
            model.apply(up);
        }
        let rt = DurableExpFinder::open(&dir, config.clone()).unwrap();
        assert_eq!(rt.wal_totals().get("replayed_frames"), acked.len() as u64);
        let h = rt.handle("g").unwrap();
        let got = rt.read_graph(&h, sorted_edges).unwrap();
        assert_eq!(got, sorted_edges(&model), "round {round}");
        rt.remove_graph("g").unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graph `b`'s `add_graph` parks inside its `.efg` write. Meanwhile graph
/// `a` takes an update, a registration and a compaction, `b` is not
/// listed, and a write to `b` answers `UnknownGraph`; once released, `b`
/// is listed. Only a stall is bounded by a timeout, so it fails the test
/// instead of hanging it.
#[test]
fn an_add_parked_in_its_snapshot_write_stalls_no_other_graph() {
    let dir = tmp_wal("add_park").with_extension("d");
    let rt = runtime(&dir);
    rt.add_graph("a", path_graph(5)).unwrap();
    let pattern = expfinder_pattern::parser::parse(
        "node x* where label = \"N\"; node y where label = \"N\"; edge x -> y within 2;",
    )
    .unwrap();
    let inj = rt.fault_injector();
    inj.arm(FaultPlan::new().park_nth(IoOp::Write, 0));
    std::thread::scope(|s| {
        let adder = s.spawn(|| rt.add_graph("b", path_graph(8)));
        inj.wait_parked();
        let (tx, rx) = mpsc::channel();
        let rt = &rt;
        s.spawn(move || {
            let up = EdgeUpdate::Insert(NodeId(4), NodeId(0));
            let on_a = rt
                .apply_updates("a", &[up])
                .and_then(|_| rt.register_query("a", "q", pattern))
                .and_then(|()| rt.compact("a"));
            tx.send(on_a.map(|_| ())).unwrap();
        });
        let on_a = rx.recv_timeout(Duration::from_secs(60));
        if on_a.is_err() {
            inj.release();
            panic!("writes to `a` waited for the add of `b`");
        }
        on_a.unwrap().unwrap();
        assert_eq!(rt.graph_names(), ["a"], "`b` is listed only once durable");
        assert!(matches!(
            rt.apply_updates("b", &[]),
            Err(ExpFinderError::UnknownGraph(_))
        ));
        inj.release();
        adder.join().unwrap().unwrap();
    });
    inj.disarm();
    assert_eq!(rt.graph_names(), ["a", "b"]);
    drop(rt);
    let rt = runtime(&dir);
    assert_eq!(rt.graph_names(), ["a", "b"]);
    let h = rt.handle("a").unwrap();
    assert_eq!(rt.registered_queries(&h).unwrap(), ["q"]);
    assert!(rt
        .read_graph(&h, |g| g.has_edge(NodeId(4), NodeId(0)))
        .unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
