//! `chaos_smoke` — the crash-point torture harness behind the
//! `chaos-smoke` CI job (and `just chaos-smoke`).
//!
//! Drives the durable runtime's recovery invariant through *every*
//! injected I/O boundary, in process, using `runtime::faults`:
//!
//! 1. **Census** — run a fixed op script (updates / register / snapshot
//!    / compact / unregister) under `FsyncPolicy::Always` with an empty
//!    armed plan, counting the I/O boundaries it crosses (the census
//!    must find ≥ 50) and recording an oracle state after every op.
//! 2. **Crash sweep** — for each boundary `k`, replay the script on a
//!    fresh data dir with a crash armed at `k`, stop at the simulated
//!    crash, reopen the dir and assert the **recovery invariant**: the
//!    recovered state (edges + registered queries) is bit-identical to
//!    the oracle state after the acknowledged ops — `S_a`, or `S_{a+1}`
//!    when the in-flight frame survived intact (an in-process "crash"
//!    loses no page cache; every *acknowledged* op must survive, which
//!    both branches imply). Every maintained result must also equal a
//!    fresh from-scratch evaluation on the recovered graph.
//! 3. **Torn-write sweep** — repeat the sweep over every *write*
//!    boundary with a partial write (3 torn bytes) at the crash point,
//!    proving restart-time replay truncates torn frames.
//! 4. **Transient-fault scenarios** — an injected ENOSPC mid-run fails
//!    exactly one append, the retry lands (the log self-healed), and
//!    recovery is exact; a failed fsync seals the writer (subsequent
//!    appends refuse), and reopening the dir recovers the acknowledged
//!    prefix and accepts appends again.
//!
//! ```text
//! chaos_smoke [--log <file>] [--data-dir <dir>]
//! ```
//!
//! Data dirs of failed iterations are kept (under `--data-dir` when
//! given, else the temp dir) so CI can archive them as artifacts.

mod common;

use common::{options, Harness};
use expfinder_core::bounded_simulation;
use expfinder_engine::ExpFinderError;
use expfinder_graph::{DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_pattern::fixtures::fig1_pattern;
use expfinder_pattern::{parser, Pattern};
use expfinder_runtime::faults::CRASH_MARKER;
use expfinder_runtime::{DurableExpFinder, FaultKind, FaultPlan, FsyncPolicy, IoOp, RuntimeConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const GRAPH: &str = "g";

const Q2_DSL: &str = "node sd where label = \"SD\" and experience >= 2;";

/// One scripted operation against the runtime.
#[derive(Clone, Debug)]
enum Op {
    Updates(Vec<EdgeUpdate>),
    Register(&'static str),
    Unregister(&'static str),
    Snapshot,
    Compact,
}

/// The oracle state after a prefix of ops: sorted edge list plus the
/// sorted registered-query names. Durability is judged on exactly this.
type State = (Vec<(u32, u32)>, Vec<String>);

/// Deterministic xorshift64* — the harness must cross identically
/// numbered boundaries on every run, so no environmental randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A fixed pseudo-random edge-update batch over the fig1 node ids.
fn batch(rng: &mut Rng, n: usize, nodes: u32) -> Vec<EdgeUpdate> {
    (0..n)
        .map(|_| {
            let a = (rng.next() % nodes as u64) as u32;
            let mut b = (rng.next() % nodes as u64) as u32;
            if b == a {
                b = (b + 1) % nodes;
            }
            if rng.next() % 2 == 0 {
                EdgeUpdate::Insert(NodeId(a), NodeId(b))
            } else {
                EdgeUpdate::Delete(NodeId(a), NodeId(b))
            }
        })
        .collect()
}

/// The fixed op script every sweep iteration replays.
fn script(nodes: u32) -> Vec<Op> {
    let mut rng = Rng(0x5eed_cafe_f00d_d00d);
    let mut ops = Vec::new();
    let mut updates = |ops: &mut Vec<Op>, count: usize| {
        for _ in 0..count {
            ops.push(Op::Updates(batch(&mut rng, 2, nodes)));
        }
    };
    updates(&mut ops, 4);
    ops.push(Op::Register("q1"));
    updates(&mut ops, 3);
    ops.push(Op::Snapshot);
    updates(&mut ops, 3);
    ops.push(Op::Register("q2"));
    ops.push(Op::Compact);
    updates(&mut ops, 4);
    ops.push(Op::Unregister("q1"));
    updates(&mut ops, 2);
    ops
}

/// The pattern the script registers under `name`: q1 is the paper's
/// Fig. 1 team query.
fn pattern_of(name: &str) -> Pattern {
    match name {
        "q1" => fig1_pattern(),
        "q2" => parser::parse(Q2_DSL).expect("script DSL parses"),
        other => panic!("unknown registered query {other:?}"),
    }
}

fn apply(rt: &DurableExpFinder, op: &Op) -> Result<(), ExpFinderError> {
    match op {
        Op::Updates(ups) => rt.apply_updates(GRAPH, ups).map(|_| ()),
        Op::Register(name) => rt.register_query(GRAPH, name, pattern_of(name)),
        Op::Unregister(name) => rt.unregister_query(GRAPH, name),
        Op::Snapshot => rt.snapshot(GRAPH).map(|_| ()),
        Op::Compact => rt.compact(GRAPH).map(|_| ()),
    }
}

/// Advance the in-memory oracle mirror by one op.
fn mirror_apply(mirror: &mut (DiGraph, BTreeSet<String>), op: &Op) {
    match op {
        Op::Updates(ups) => {
            for &u in ups {
                mirror.0.apply(u);
            }
        }
        Op::Register(name) => {
            mirror.1.insert((*name).to_owned());
        }
        Op::Unregister(name) => {
            mirror.1.remove(*name);
        }
        // state-neutral: snapshot/compact reshape storage, not state
        Op::Snapshot | Op::Compact => {}
    }
}

fn sorted_edges(g: &DiGraph) -> Vec<(u32, u32)> {
    let mut e: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
    e.sort_unstable();
    e
}

fn mirror_state(mirror: &(DiGraph, BTreeSet<String>)) -> State {
    (sorted_edges(&mirror.0), mirror.1.iter().cloned().collect())
}

fn rt_state(rt: &DurableExpFinder) -> State {
    let h = rt.handle(GRAPH).expect("graph present after recovery");
    let edges = rt.read_graph(&h, sorted_edges).expect("graph readable");
    let regs = rt.registered_queries(&h).expect("registrations readable");
    (edges, regs)
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        fsync: FsyncPolicy::Always,
        ..RuntimeConfig::default()
    }
}

fn fresh_dir(base: &Path, tag: &str) -> PathBuf {
    let d = base.join(tag);
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Open a fresh runtime on `dir` and seed the base graph (injector
/// disarmed, so seeding crosses no counted boundary).
fn open_seeded(dir: &Path, base: &DiGraph) -> DurableExpFinder {
    let rt = DurableExpFinder::open(dir, config()).expect("open runtime");
    rt.add_graph(GRAPH, base.clone()).expect("seed graph");
    rt
}

/// Every maintained result on the recovered runtime must equal a fresh
/// from-scratch evaluation of its pattern on the recovered graph.
fn check_maintained_results(h: &mut Harness, rt: &DurableExpFinder, what: &str) {
    let g = rt.handle(GRAPH).expect("recovered graph");
    let graph = rt.read_graph(&g, DiGraph::clone).expect("graph readable");
    for name in rt.registered_queries(&g).expect("registered names") {
        let pattern = pattern_of(&name);
        let maintained = rt.registered_result(&g, &name).expect("maintained result");
        let fresh = bounded_simulation(&graph, &pattern).expect("fresh evaluation");
        let diverged = pattern
            .ids()
            .find(|&u| maintained.matches_vec(u) != fresh.matches_vec(u));
        h.check(
            &format!("{what}: maintained {name:?} matches a fresh evaluation"),
            diverged.is_none(),
            || format!("diverged at pattern node {diverged:?}"),
        );
    }
}

fn main() {
    let [log_flag, data_dir_flag] = options(["--log", "--data-dir"]);
    let base_dir = match &data_dir_flag {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("expfinder_chaos_smoke_{}", std::process::id())),
    };
    let _ = std::fs::create_dir_all(&base_dir);
    let mut h = Harness::new("chaos smoke", log_flag.as_deref());

    let base = expfinder_graph::fixtures::collaboration_fig1().graph;
    let nodes = base.node_count() as u32;
    let ops = script(nodes);

    // ---- phase 1: census — count boundaries, record oracle states ----
    h.say(&format!(
        "phase 1: census of {} ops under FsyncPolicy::Always",
        ops.len()
    ));
    let mut mirror = (base.clone(), BTreeSet::new());
    let mut states: Vec<State> = vec![mirror_state(&mirror)];
    let census_dir = fresh_dir(&base_dir, "census");
    let (boundaries, op_log) = {
        let rt = open_seeded(&census_dir, &base);
        let injector = rt.fault_injector();
        injector.arm(FaultPlan::new()); // pure boundary counter
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = apply(&rt, op) {
                h.check(&format!("census op {i} succeeds"), false, || e.to_string());
            }
            mirror_apply(&mut mirror, op);
            states.push(mirror_state(&mirror));
        }
        injector.disarm();
        h.check(
            "census run ends in the full-oracle state",
            rt_state(&rt) == *states.last().expect("nonempty"),
            || "runtime state diverged from the oracle mirror".to_owned(),
        );
        (injector.boundaries(), injector.op_log())
    };
    h.say(&format!(
        "census: {} I/O boundaries ({} writes, {} fsyncs, {} renames)",
        boundaries,
        op_log.iter().filter(|o| **o == IoOp::Write).count(),
        op_log.iter().filter(|o| **o == IoOp::Fsync).count(),
        op_log.iter().filter(|o| **o == IoOp::Rename).count(),
    ));
    h.check(
        "script crosses at least 50 injectable I/O boundaries",
        boundaries >= 50,
        || format!("only {boundaries}"),
    );
    let _ = std::fs::remove_dir_all(&census_dir);

    // ---- phases 2+3: crash at every boundary, then torn-write sweep ----
    let mut crash_points = 0usize;
    let mut plans: Vec<(String, FaultPlan)> = (0..boundaries)
        .map(|k| (format!("crash@{k}"), FaultPlan::new().crash_at(k)))
        .collect();
    plans.extend(
        op_log
            .iter()
            .enumerate()
            .filter(|(_, op)| **op == IoOp::Write)
            .map(|(k, _)| {
                (
                    format!("torn-crash@{k}"),
                    FaultPlan::new().crash_at_partial(k as u64, 3),
                )
            }),
    );
    h.say(&format!(
        "phase 2+3: sweeping {} crash points (every boundary + torn writes)",
        plans.len()
    ));
    for (tag, plan) in plans {
        let dir = fresh_dir(&base_dir, &tag);
        let mut mirror = (base.clone(), BTreeSet::new());
        let mut acked = 0usize;
        let mut crash_error = String::new();
        {
            let rt = open_seeded(&dir, &base);
            rt.fault_injector().arm(plan);
            for op in &ops {
                match apply(&rt, op) {
                    Ok(()) => {
                        mirror_apply(&mut mirror, op);
                        acked += 1;
                    }
                    Err(e) => {
                        crash_error = e.to_string();
                        break;
                    }
                }
            }
            let injected = rt.fault_totals().injected;
            if injected != 1 || !crash_error.contains(CRASH_MARKER) {
                h.check(
                    &format!("{tag}: the armed crash fired and surfaced"),
                    false,
                    || format!("injected={injected}, first error: {crash_error}"),
                );
                continue;
            }
            // the runtime drops here mid-life: the crash leaves the
            // writer sealed and possibly torn bytes on disk
        }
        let rt = DurableExpFinder::open(&dir, config()).expect("reopen after crash");
        let recovered = rt_state(&rt);
        // S_a (crashed frame torn/absent) or S_{a+1} (the in-flight
        // frame was complete; an in-process crash loses no page cache)
        let next = states.get(acked + 1).unwrap_or(&states[acked]);
        let ok = recovered == states[acked] || recovered == *next;
        h.check(
            &format!("{tag}: recovered state is an acked-prefix state (a={acked})"),
            ok,
            || {
                format!(
                    "recovered {recovered:?}\n  S_a     {:?}\n  S_a+1   {next:?}",
                    states[acked]
                )
            },
        );
        if ok {
            check_maintained_results(&mut h, &rt, &tag);
            crash_points += 1;
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    h.say(&format!(
        "crash sweep: {crash_points} crash points recovered cleanly"
    ));

    // ---- phase 4a: transient ENOSPC self-heals, retry lands ----
    h.say("phase 4a: transient ENOSPC on an append");
    {
        let dir = fresh_dir(&base_dir, "enospc");
        let mut rng = Rng(7);
        let batches: Vec<Vec<EdgeUpdate>> = (0..4).map(|_| batch(&mut rng, 2, nodes)).collect();
        let mut mirror = (base.clone(), BTreeSet::new());
        {
            let rt = open_seeded(&dir, &base);
            // tear the 2nd append after 4 bytes, then report ENOSPC
            rt.fault_injector()
                .arm(FaultPlan::new().partial_write(1, 4, FaultKind::Enospc));
            let mut failures = 0;
            for b in &batches {
                let op = Op::Updates(b.clone());
                if apply(&rt, &op).is_err() {
                    failures += 1;
                    h.check(
                        "enospc: the torn append retries cleanly",
                        apply(&rt, &op).is_ok(),
                        || "retry after self-heal failed".to_owned(),
                    );
                }
                mirror_apply(&mut mirror, &op);
            }
            h.check("enospc: exactly one append failed", failures == 1, || {
                format!("{failures} failures")
            });
            rt.fault_injector().disarm();
            h.check(
                "enospc: no op was lost in flight",
                rt_state(&rt) == mirror_state(&mirror),
                || "live state diverged".to_owned(),
            );
        }
        let rt = DurableExpFinder::open(&dir, config()).expect("reopen after enospc");
        h.check(
            "enospc: restart replays every acknowledged op",
            rt_state(&rt) == mirror_state(&mirror),
            || "recovered state diverged".to_owned(),
        );
        if h.failures == 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // ---- phase 4b: a failed fsync seals the writer ----
    h.say("phase 4b: fsync failure seals the writer");
    {
        let dir = fresh_dir(&base_dir, "fsync-seal");
        let mut rng = Rng(9);
        let batches: Vec<Vec<EdgeUpdate>> = (0..3).map(|_| batch(&mut rng, 2, nodes)).collect();
        let mut mirror = (base.clone(), BTreeSet::new());
        {
            let rt = open_seeded(&dir, &base);
            rt.fault_injector()
                .arm(FaultPlan::new().fail_nth(IoOp::Fsync, 1, FaultKind::Eio));
            let op0 = Op::Updates(batches[0].clone());
            h.check(
                "seal: append before the fault lands",
                apply(&rt, &op0).is_ok(),
                || "first append failed".to_owned(),
            );
            mirror_apply(&mut mirror, &op0);
            h.check(
                "seal: the append whose fsync fails errors out",
                apply(&rt, &Op::Updates(batches[1].clone())).is_err(),
                || "append with failed fsync reported success".to_owned(),
            );
            let refused = apply(&rt, &Op::Updates(batches[2].clone()));
            h.check(
                "seal: subsequent appends refuse with the sealed error",
                refused
                    .as_ref()
                    .is_err_and(|e| e.to_string().contains("sealed")),
                || format!("{refused:?}"),
            );
        }
        let rt = DurableExpFinder::open(&dir, config()).expect("reopen after seal");
        h.check(
            "seal: restart recovers exactly the acknowledged prefix",
            rt_state(&rt) == mirror_state(&mirror),
            || "recovered state diverged".to_owned(),
        );
        let op2 = Op::Updates(batches[2].clone());
        h.check(
            "seal: the reopened log accepts appends again",
            apply(&rt, &op2).is_ok(),
            || "append after reopen failed".to_owned(),
        );
        if h.failures == 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    if h.failures == 0 {
        h.say(&format!(
            "chaos smoke OK: {crash_points} crash points, ENOSPC self-heal, fsync sealing \
             — zero recovery-invariant violations"
        ));
        if data_dir_flag.is_none() {
            let _ = std::fs::remove_dir_all(&base_dir);
        }
    } else {
        let line = format!(
            "chaos smoke FAILED: {} check(s); surviving data dirs kept under {}",
            h.failures,
            base_dir.display()
        );
        h.fail(&line);
        std::process::exit(1);
    }
}
