//! One differential harness for the paper's contract (§II): every route,
//! backend, thread count, cache state, crash point and cancellation point
//! returns the `M(Q,G)` and the ranked experts of the naive fixpoint over
//! the same graph version.
//!
//! `facades_agree_with_the_model_on_every_op_script` drives a seeded
//! script of [`Op`]s through the in-memory `ExpFinder` and the
//! `DurableExpFinder` side by side, next to a plain [`Model`]: a
//! `DiGraph`, the registered set and the acked writes. The ops:
//!
//! * `AddSide` adds a second graph, or both facades refuse the duplicate;
//! * `Update` applies an edge batch between two direct reads of the
//!   step's pattern, and reads every registered pattern ranked right
//!   after it; `NoopUpdate` applies a batch of no-ops, which must
//!   publish nothing;
//! * `Register` / `Unregister` a standing query under one of two names;
//!   the case's patterns include the bound-1 variant of its first, so
//!   every case can register and query a plain-simulation pattern;
//! * `Query`: `Route::{Auto, Direct, Compressed}` × `top_k` ∈ {none, 2,
//!   64} × fuse ∈ {none, a zero deadline, `CancelToken::after_checks(n)`};
//!   a zero-deadline read is repeated with the caller's `after_checks(n)`
//!   token as well, which the deadline must fire at its first poll;
//! * `Batch` runs `query_batch` over the patterns, one slot with a zero
//!   per-slot deadline;
//! * `Compress` / `DropCompression`;
//! * `Hold` keeps both facades' latest snapshot, which must answer for
//!   its own version after every later write;
//! * `Snapshot` rewrites the durable side's `.efg`; `Compact` also swaps
//!   its log for one holding only the live registrations; `RemoveReadd`
//!   removes the graph and adds one under the same name (fresh id, every
//!   old handle stale);
//! * `Restart` reopens the durable side and rebuilds the in-memory side
//!   from the model, so both come back cold;
//! * `Crash { at, class, torn }` arms a simulated crash at the `at`-th
//!   I/O boundary of class [`CRASH_CLASSES`]`[class]` (a write, an fsync,
//!   a rename, or any), leaving `torn` bytes of a crashed write behind.
//!   It fires inside whichever later durable write reaches that boundary
//!   — an update, a registration, a snapshot or a compaction — and is
//!   judged as below;
//! * `Vertex` adds nodes and writes attributes on a copy of the model
//!   graph only (the facades take edge updates only), which resets the
//!   graph's label index.
//!
//! Each case draws `threads` ∈ {1, 2}, the width `Batch` fans out to,
//! and the durable side's `fsync` ∈ {`Never`, `Always`}, so that fsync
//! boundaries are reachable. After every step both facades
//! agree with each other on everything a client sees: answers, plans,
//! versions, update reports and hook frames, catalog and handle state,
//! and the cache, planner, rank and index counters. They also agree with
//! the model. At every model version [`check_every_request`] runs every
//! way of calling `core::evaluate`.
//!
//! The judges: `M(Q,G)` under simulation, bounded and dual simulation,
//! and the raw fixpoint the incremental module persists, are
//! `core::naive`'s. A ranked answer must equal `reference_rank` bit for
//! bit. No check takes `bounded_simulation`, `top_k` or `evaluate` as its
//! own truth.
//!
//! A crash is judged the same way wherever it fires: the crashed write
//! returns [`ExpFinderError::SimulatedCrash`] and the durable side has pushed no hook frame
//! for it; the harness reopens the directory as `Restart` does, and the
//! recovered graph and registered set must be the model's before the
//! write (`S_a`) or after it (`S_{a+1}`, when the crashed record reached
//! the log whole). The model takes the write only in the second case; the
//! in-memory side is rebuilt from the model, and the registered results
//! are held to `core::naive` as after every step. A crash still armed at
//! the next `Restart`, `AddSide` or `RemoveReadd`, or at the end of the
//! script, is disarmed and counted as unfired: the writes of
//! `add_graph` and `remove_graph` never crash here, because
//! `crates/runtime/tests/fault_props.rs` sweeps a fault over every
//! boundary they cross, and a crash between a remove and its re-add
//! would recover a state the model never held. The last case asserts
//! that crashes fired at a write, an fsync and a rename, and that both
//! `S_a` and `S_{a+1}` were recovered.
//!
//! A failing case is shrunk: ops are dropped one at a time while the
//! script still fails. The minimal case is printed as a test to paste
//! into this file, with its proptest case index. The vendored proptest
//! runner seeds each test from its name, so the same case fails on every
//! run.
//!
//! Fixed scenarios ride along: the ranked-answer slot's exact
//! `engine.rank` counts, a registered `G_r` that follows the sources ΔM adds and
//! removes, the quotient's index counters, the exhaustive Fig. 1 fuse
//! walk, the Fig. 1 pattern on every taken route, and one durable script
//! under `FsyncPolicy::Always` crashed at every I/O boundary it crosses,
//! and at every write again with torn bytes, each crash judged as above.

use expfinder::compress::CompressionMethod;
use expfinder::core::bsim::bounded_fixpoint_raw;
use expfinder::core::naive::{naive_bounded_fixpoint, naive_simulation, reference_rank};
use expfinder::core::{
    candidate_sets, evaluate, EvalRequest, EvalScratch, MatchRelation, RankedMatch, ReachIndex,
    ReachProvider, Semantics,
};
use expfinder::engine::{
    Catalog, EngineConfig, ExpFinder, ExpFinderError, GraphHandle, PlanRoute, QueryResponse,
    QuerySpec, Route, Snapshot, UpdateHook, UpdateReport,
};
use expfinder::graph::fixtures::collaboration_fig1;
use expfinder::graph::{AttrValue, BitSet, CsrGraph, DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder::pattern::fixtures::fig1_pattern;
use expfinder::pattern::{parser, Bound, Pattern, PatternBuilder, Predicate};
use expfinder::runtime::faults::Fault;
use expfinder::runtime::{
    CancelToken, DurableExpFinder, FaultKind, FaultPlan, FsyncPolicy, IoOp, RuntimeConfig,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe, PanicHookInfo};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::*;

/// Cases of the op-script property.
const CASES: u32 = 48;

/// The `route` and `top_k` operands of `Query` and `Batch`.
const ROUTES: [Route; 3] = [Route::Auto, Route::Direct, Route::Compressed];
const TOP_K: [Option<usize>; 3] = [None, Some(2), Some(64)];

/// The `class` operand of `Crash`: the boundary class it counts, `None`
/// for every boundary.
const CRASH_CLASSES: [Option<IoOp>; 4] = [
    Some(IoOp::Write),
    Some(IoOp::Fsync),
    Some(IoOp::Rename),
    None,
];

// ---------------------------------------------------------------------
// every way of calling `core::evaluate`
// ---------------------------------------------------------------------

/// Every way of calling `core::evaluate` on `g` for `q` returns the
/// oracle's relation: simulation (bounded simulation on `q`'s bound-1
/// variant, judged by `naive_simulation`, which must also equal
/// `naive_bounded_simulation` there), bounded and dual simulation on `q`,
/// each on the `DiGraph` and its `CsrGraph` snapshot,
/// × a fresh or the case's `reused` scratch × no index, a
/// cold or a warm `ReachIndex` bound to that view. A cold index hits and
/// misses alike on both views, and on both the raw fixpoint the
/// incremental module persists (`early_exit = false`) equals
/// `naive_bounded_fixpoint`'s.
fn check_every_request(g: &DiGraph, q: &Pattern, reused: &mut EvalScratch) {
    let csr = CsrGraph::snapshot(g);
    let simulation = q.as_simulation();
    let want = naive_simulation(g, &simulation);
    let bounded = oracle(g, &simulation, Semantics::Bounded);
    assert_eq!(want, bounded, "simulation is bound-1 bounded simulation");
    for (semantics, q, want) in [
        (Semantics::Bounded, &simulation, want),
        (Semantics::Bounded, q, oracle(g, q, Semantics::Bounded)),
        (Semantics::Dual, q, oracle(g, q, Semantics::Dual)),
    ] {
        let on_graph = every_request(g, g.version(), q, semantics, &want, reused);
        let on_csr = every_request(&csr, csr.version(), q, semantics, &want, reused);
        assert_eq!(
            on_graph, on_csr,
            "{semantics:?} {q}: cold index hits, misses"
        );
    }
    let want = naive_bounded_fixpoint(g, q, candidate_sets(g, q));
    assert_eq!(raw_fixpoint(g, q, reused), want, "raw fixpoint");
    assert_eq!(
        raw_fixpoint(&csr, q, reused),
        want,
        "raw fixpoint on the CSR"
    );
}

/// `q` under `semantics` on one view (at `version`), every request;
/// returns the cold index's `(hits, misses)` on a fresh scratch.
fn every_request<G: GraphView>(
    view: &G,
    version: u64,
    q: &Pattern,
    semantics: Semantics,
    want: &MatchRelation,
    reused: &mut EvalScratch,
) -> (usize, usize) {
    let mut cold = None;
    for reuse in [false, true] {
        let index = ReachIndex::new(version);
        let bound = index.bind(view);
        for (state, provider) in [
            ("none", None),
            ("cold", Some(&bound as &dyn ReachProvider)),
            ("warm", Some(&bound as &dyn ReachProvider)),
        ] {
            let mut fresh = EvalScratch::new();
            let req = EvalRequest {
                scratch: Some(if reuse { &mut *reused } else { &mut fresh }),
                index: provider,
                ..EvalRequest::new(semantics)
            };
            let (m, stats) = evaluate(view, q, req).unwrap();
            assert_eq!(&m, want, "{semantics:?}, reused {reuse}, {state} index");
            if (reuse, state) == (false, "cold") {
                cold = Some((stats.index_hits, stats.index_misses));
            }
        }
    }
    cold.expect("one cold run on a fresh scratch")
}

/// The raw bounded fixpoint over `view`'s candidate sets, run to the end.
fn raw_fixpoint<G: GraphView>(view: &G, q: &Pattern, scratch: &mut EvalScratch) -> Vec<BitSet> {
    let seeds = candidate_sets(view, q);
    let out = bounded_fixpoint_raw(view, q, seeds, false, scratch, None);
    out.expect("no cancel token").0
}

// ---------------------------------------------------------------------
// the two facades and the model
// ---------------------------------------------------------------------

/// A directory removed when dropped; unique per harness (tests and
/// shrinking runs open many).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        TempDir(std::env::temp_dir().join(format!("expfinder_differential_{pid}_{n}")))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig { threads }
}

fn runtime_config(threads: usize, fsync: FsyncPolicy) -> RuntimeConfig {
    RuntimeConfig {
        fsync,
        engine: engine_config(threads),
        ..RuntimeConfig::default()
    }
}

/// Every `(graph, report)` one facade's update hook has seen, in order.
type Frames = Arc<Mutex<Vec<(String, UpdateReport)>>>;

fn recording_hook(c: &Catalog) -> Frames {
    let frames = Frames::default();
    let sink = Arc::clone(&frames);
    let hook: UpdateHook = Arc::new(move |graph: &str, report: &UpdateReport| {
        let frame = (graph.to_owned(), report.clone());
        sink.lock().unwrap().push(frame);
    });
    c.set_update_hook(Some(hook));
    frames
}

/// What a client sees of a ranked answer: node order and rank bits.
fn bits(list: &[RankedMatch]) -> Vec<(NodeId, u64)> {
    list.iter().map(|x| (x.node, x.rank.to_bits())).collect()
}

/// The graph as its text document: labels, attributes and edges, but not
/// the version (a restart renumbers versions).
fn text(g: &DiGraph) -> String {
    let mut out = Vec::new();
    expfinder::graph::io::write_text(g, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// How a query may be cut short.
#[derive(Copy, Clone)]
enum Fuse {
    None,
    /// A zero deadline: the read answers 408 before it starts.
    Zero,
    /// Fire at the `n`-th cancellation point.
    After(u64),
    /// The caller's `after_checks(n)` token, `n` ≥ 2, with a zero
    /// deadline: the deadline is armed on that token, so the read answers
    /// 408 at the token's first poll.
    AfterAndZero(u64),
}

/// One read.
fn run(
    c: &Catalog,
    h: &GraphHandle,
    q: &Pattern,
    prefer: Route,
    top_k: Option<usize>,
    token: Option<Arc<CancelToken>>,
    deadline: Option<Duration>,
) -> Result<QueryResponse, ExpFinderError> {
    let mut spec = QuerySpec::pattern(q.clone()).prefer(prefer);
    if let Some(k) = top_k {
        spec = spec.top_k(k);
    }
    if let Some(t) = token {
        spec = spec.cancel_token(t);
    }
    if let Some(d) = deadline {
        spec = spec.deadline(d);
    }
    c.query(h, &spec)
}

/// What the facades must hold: the acked writes, applied to plain values.
struct Model {
    g: DiGraph,
    side: Option<DiGraph>,
    registered: BTreeMap<String, Pattern>,
    compressed: bool,
    /// Updates applied to `g` since it was added or recovered; each may
    /// copy at most two adjacency chunks of a graph a snapshot shares.
    applied: u64,
    held: Vec<Held>,
}

/// What a restart must bring back of `g`: the graph and its standing
/// queries.
type Acked = (DiGraph, BTreeMap<String, Pattern>);

impl Model {
    fn names(&self) -> Vec<String> {
        let side = self.side.as_ref().map(|_| "side".to_owned());
        std::iter::once("g".to_owned()).chain(side).collect()
    }

    fn acked(&self) -> Acked {
        (self.g.clone(), self.registered.clone())
    }
}

/// Both facades' snapshot of `g` at one version, and what it must answer.
struct Held {
    snaps: [Arc<Snapshot>; 2],
    graph: DiGraph,
    registered: Vec<(String, MatchRelation)>,
}

/// Both facades, held to the model. Index 0 is the in-memory engine, 1
/// the durable runtime.
struct Harness {
    engine: ExpFinder,
    rt: DurableExpFinder,
    handles: [GraphHandle; 2],
    frames: [Frames; 2],
    threads: usize,
    fsync: FsyncPolicy,
    model: Model,
    /// After a write an armed crash fired in: what the model would hold
    /// had the write been acked (`S_{a+1}`), until the restart judges it.
    crashed: Option<Acked>,
    /// Dropped after `rt`, which holds files in it.
    dir: TempDir,
}

/// The in-memory facade as `model` describes it, each facade's handle
/// of `g`, and a recording hook on each.
fn attach(
    model: &Model,
    rt: &DurableExpFinder,
    threads: usize,
) -> (ExpFinder, [GraphHandle; 2], [Frames; 2]) {
    let engine = ExpFinder::new(engine_config(threads));
    let h = engine.add_graph("g", model.g.clone()).unwrap();
    if let Some(side) = &model.side {
        engine.add_graph("side", side.clone()).unwrap();
    }
    for (name, q) in &model.registered {
        engine.register_query(&h, name, q.clone()).unwrap();
    }
    let frames = [recording_hook(&engine), recording_hook(rt)];
    (engine, [h, rt.handle("g").unwrap()], frames)
}

impl Harness {
    fn new(g: DiGraph, threads: usize) -> Harness {
        Harness::with_fsync(g, threads, FsyncPolicy::Never)
    }

    fn with_fsync(g: DiGraph, threads: usize, fsync: FsyncPolicy) -> Harness {
        let dir = TempDir::new();
        let rt = DurableExpFinder::open(&dir.0, runtime_config(threads, fsync)).unwrap();
        rt.add_graph("g", g.clone()).unwrap();
        let model = Model {
            g,
            side: None,
            registered: BTreeMap::new(),
            compressed: false,
            applied: 0,
            held: Vec::new(),
        };
        let (engine, handles, frames) = attach(&model, &rt, threads);
        Harness {
            engine,
            rt,
            handles,
            frames,
            threads,
            fsync,
            model,
            crashed: None,
            dir,
        }
    }

    /// The one read surface of each facade with its handle of `g`.
    fn reads(&self) -> [(&Catalog, &GraphHandle); 2] {
        let [a, b] = &self.handles;
        [(&self.engine, a), (&self.rt, b)]
    }

    /// Checks a response against the model: the naive relation, the
    /// reference ranking, the model's version.
    fn answers(&self, q: &Pattern, resp: &QueryResponse, top_k: Option<usize>) {
        let g = &self.model.g;
        let want = oracle(g, q, Semantics::Bounded);
        assert_eq!(*resp.matches, want, "M(Q,G) via {:?}", resp.plan.chosen);
        let ranked = top_k.map_or_else(Vec::new, |k| reference_rank(g, q, &want, k));
        assert_eq!(bits(&resp.experts), bits(&ranked), "experts");
        assert_eq!(resp.graph_version, g.version());
        TAKEN.with(|t| t.borrow_mut().insert(resp.plan.chosen.as_str()));
    }

    /// One query on both facades: they agree on everything a client
    /// sees, and an answer agrees with the model. `None` for an agreed
    /// 408.
    fn query(
        &self,
        q: &Pattern,
        prefer: Route,
        top_k: Option<usize>,
        fuse: Fuse,
    ) -> Option<QueryResponse> {
        let [a, b] = self.reads().map(|(c, h)| {
            let (token, deadline) = match fuse {
                Fuse::None => (None, None),
                Fuse::Zero => (None, Some(Duration::ZERO)),
                Fuse::After(n) => (Some(CancelToken::after_checks(n)), None),
                Fuse::AfterAndZero(n) => (Some(CancelToken::after_checks(n)), Some(Duration::ZERO)),
            };
            let out = run(c, h, q, prefer, top_k, token.clone(), deadline);
            if let (Fuse::AfterAndZero(_), Some(t)) = (fuse, token) {
                // the deadline fired the caller's token at its first poll
                assert_eq!((t.checks(), t.fired()), (1, 1), "caller's token");
            }
            out
        });
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let spent = matches!(fuse, Fuse::Zero | Fuse::AfterAndZero(_));
                assert!(!spent, "a spent budget answers 408");
                assert_eq!(*a.matches, *b.matches);
                assert_eq!(bits(&a.experts), bits(&b.experts));
                assert_eq!(a.plan.chosen, b.plan.chosen);
                assert_eq!(a.plan.planned, b.plan.planned);
                assert_eq!(a.plan.overridden, b.plan.overridden);
                assert_eq!(a.plan.candidates, b.plan.candidates);
                assert_eq!(a.graph_version, b.graph_version);
                self.answers(q, &a, top_k);
                Some(a)
            }
            (Err(a), Err(b)) => {
                assert!(matches!(a, ExpFinderError::DeadlineExceeded(_)), "{a}");
                assert!(matches!(b, ExpFinderError::DeadlineExceeded(_)), "{b}");
                assert_eq!(a.partial_stats(), b.partial_stats());
                None
            }
            (a, b) => {
                let (a, b) = (a.map(|r| r.plan.chosen), b.map(|r| r.plan.chosen));
                panic!("facades disagree: engine {a:?}, runtime {b:?}")
            }
        }
    }

    /// A ranked query that must answer.
    fn ranked(&self, q: &Pattern, prefer: Route, k: usize) -> QueryResponse {
        let resp = self.query(q, prefer, Some(k), Fuse::None);
        resp.expect("no fuse, no 408")
    }

    /// Every registered pattern, read ranked on both facades through the
    /// cache-and-registered route, on `Direct`, and as the slots of one
    /// `/batch` at k = 2 and one at k = 64 — every way a read reaches the
    /// maintained ranking.
    fn read_registered(&self) {
        let k = TOP_K[2].unwrap();
        for q in self.model.registered.values() {
            self.ranked(q, Route::Auto, k);
            self.ranked(q, Route::Direct, k);
        }
        let registered: Vec<Pattern> = self.model.registered.values().cloned().collect();
        for k in [2, k] {
            self.batch(&registered, Route::Auto, Some(k), usize::MAX);
        }
    }

    /// `query_batch` over `patterns` (one slot per fingerprint, so that
    /// concurrent slots never race for one cache entry); slot `zero`
    /// carries a zero deadline.
    fn batch(&self, patterns: &[Pattern], prefer: Route, top_k: Option<usize>, zero: usize) {
        let mut seen = BTreeSet::new();
        let distinct: Vec<&Pattern> = patterns
            .iter()
            .filter(|q| seen.insert(q.fingerprint()))
            .collect();
        let specs: Vec<QuerySpec> = distinct
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut spec = QuerySpec::pattern((*q).clone()).prefer(prefer);
                if let Some(k) = top_k {
                    spec = spec.top_k(k);
                }
                if i == zero {
                    spec = spec.deadline(Duration::ZERO);
                }
                spec
            })
            .collect();
        let [a, b] = self
            .reads()
            .map(|(c, h)| c.query_batch(h, specs.clone(), None));
        for (i, (a, b)) in a.into_iter().zip(b).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_ne!(i, zero, "a spent slot budget answers 408");
                    assert_eq!(*a.matches, *b.matches);
                    assert_eq!(bits(&a.experts), bits(&b.experts));
                    assert_eq!(a.graph_version, b.graph_version);
                    // concurrent slots feed one cost profile in either order
                    if self.threads == 1 {
                        assert_eq!(a.plan.chosen, b.plan.chosen);
                        assert_eq!(a.plan.candidates, b.plan.candidates);
                    }
                    self.answers(distinct[i], &a, top_k);
                }
                (Err(a), Err(b)) => {
                    assert_eq!(i, zero, "slot {i}: {a}");
                    assert_eq!(a.partial_stats(), Some(Default::default()));
                    assert_eq!(b.partial_stats(), Some(Default::default()));
                }
                (a, b) => panic!("slot {i}: facades disagree: {:?} / {:?}", a.err(), b.err()),
            }
        }
    }

    /// One durable write on the runtime. `None` when an armed crash fired
    /// in it: the write returned [`ExpFinderError::SimulatedCrash`] and
    /// pushed no hook frame, and `after` — what the model would hold had
    /// the write been acked — waits for [`Harness::restart`] to judge the
    /// recovery.
    fn durable<T>(
        &mut self,
        write: impl FnOnce(&DurableExpFinder) -> Result<T, ExpFinderError>,
        after: impl FnOnce(&Model) -> Acked,
    ) -> Option<Result<T, ExpFinderError>> {
        let frames = self.frames[1].lock().unwrap().len();
        match write(&self.rt) {
            Err(ExpFinderError::SimulatedCrash) => {
                assert_eq!(self.frames[1].lock().unwrap().len(), frames, "no frame");
                let at = self.rt.fault_injector().op_log().last().copied();
                let class = CRASH_CLASSES.iter().position(|&c| c == at);
                CRASHES.with(|t| t.borrow_mut().fired[class.expect("a boundary fired")] += 1);
                self.crashed = Some(after(&self.model));
                None
            }
            out => Some(out),
        }
    }

    /// One update batch through both write paths and the model: the same
    /// report from both, and the same frame in both hooks. A crashed
    /// batch leaves the model as it was.
    fn update(&mut self, batch: &[EdgeUpdate]) -> usize {
        let mut g = self.model.g.clone();
        let applied = batch.iter().filter(|&&up| g.apply(up)).count();
        let a = self.engine.apply_updates(&self.handles[0], batch);
        let b = self.durable(
            |rt| rt.apply_updates("g", batch),
            |m| (g.clone(), m.registered.clone()),
        );
        let Some(b) = b else { return 0 };
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a, b);
        self.model.g = g;
        self.model.applied += applied as u64;
        let model = (applied, batch.len(), self.model.g.version());
        assert_eq!((a.applied, a.attempted, a.graph_version), model);
        let frames = self.frames[0].lock().unwrap();
        assert_eq!(frames.last(), Some(&("g".to_owned(), a)));
        applied
    }

    /// A batch that changes nothing: an edge that is there inserted, one
    /// that is not deleted. Neither facade publishes.
    fn noop_update(&mut self) {
        let g = &self.model.g;
        let absent = g
            .ids()
            .flat_map(|a| g.ids().map(move |b| (a, b)))
            .find(|&(a, b)| !g.has_edge(a, b))
            .expect("the padding has no edges");
        let mut batch = vec![EdgeUpdate::Delete(absent.0, absent.1)];
        batch.extend(g.edges().next().map(|(a, b)| EdgeUpdate::Insert(a, b)));
        let before = self.reads().map(|(c, h)| c.latest(h).unwrap());
        assert_eq!(self.update(&batch), 0);
        for ((c, h), before) in self.reads().into_iter().zip(before) {
            assert!(Arc::ptr_eq(&c.latest(h).unwrap(), &before), "republished");
        }
    }

    /// Both facades succeed, or both refuse with the same error kind.
    fn both<T: Debug, U: Debug>(
        a: Result<T, ExpFinderError>,
        b: Result<U, ExpFinderError>,
    ) -> bool {
        match (&a, &b) {
            (Ok(_), Ok(_)) => true,
            (Err(x), Err(y)) if std::mem::discriminant(x) == std::mem::discriminant(y) => false,
            _ => panic!("facades disagree: {a:?} / {b:?}"),
        }
    }

    fn register(&mut self, name: &str, q: &Pattern) {
        let a = self
            .engine
            .register_query(&self.handles[0], name, q.clone());
        let b = self.durable(
            |rt| rt.register_query("g", name, q.clone()),
            |m| {
                let (g, mut registered) = m.acked();
                registered.insert(name.to_owned(), q.clone());
                (g, registered)
            },
        );
        if b.is_some_and(|b| Self::both(a, b)) {
            self.model.registered.insert(name.to_owned(), q.clone());
        }
    }

    fn unregister(&mut self, name: &str) {
        let a = self.engine.unregister_query(&self.handles[0], name);
        let b = self.durable(
            |rt| rt.unregister_query("g", name),
            |m| {
                let (g, mut registered) = m.acked();
                registered.remove(name);
                (g, registered)
            },
        );
        if b.is_some_and(|b| Self::both(a, b)) {
            self.model.registered.remove(name);
        }
    }

    /// Rewrite the durable side's `.efg`; the model does not move.
    fn snapshot(&mut self) {
        if let Some(out) = self.durable(|rt| rt.snapshot("g"), Model::acked) {
            out.unwrap();
        }
    }

    /// Fold the durable side's log into its `.efg`; the model does not
    /// move.
    fn compact(&mut self) {
        if let Some(out) = self.durable(|rt| rt.compact("g"), Model::acked) {
            out.unwrap();
        }
    }

    /// Arm a simulated crash at the `at`-th boundary of `class`, leaving
    /// `torn` bytes of a crashed write; a crash armed before it is
    /// counted as unfired.
    fn arm_crash(&mut self, at: u64, class: Option<IoOp>, torn: usize) {
        self.disarm_crash();
        self.rt.fault_injector().arm(FaultPlan {
            faults: vec![Fault {
                op: class,
                nth: at,
                partial: Some(torn),
                kind: FaultKind::Crash,
            }],
        });
    }

    /// Disarm a crash that has not fired, and count it.
    fn disarm_crash(&mut self) {
        let faults = self.rt.fault_injector();
        if faults.is_armed() {
            faults.disarm();
            CRASHES.with(|t| t.borrow_mut().unfired += 1);
        }
    }

    fn compress(&mut self) {
        let method = CompressionMethod::Bisimulation;
        let a = self.engine.compress(&self.handles[0], method).unwrap();
        assert_eq!(a, self.rt.compress("g", method).unwrap());
        self.model.compressed = true;
    }

    fn drop_compression(&mut self) {
        self.engine.drop_compression(&self.handles[0]).unwrap();
        self.rt.drop_compression("g").unwrap();
        self.model.compressed = false;
    }

    fn add_side(&mut self, side: &DiGraph) {
        self.disarm_crash();
        let a = self.engine.add_graph("side", side.clone());
        let b = self.rt.add_graph("side", side.clone());
        assert_eq!(Self::both(a, b), self.model.side.is_none());
        self.model.side = Some(side.clone());
    }

    /// Keep both facades' latest snapshot and what it must answer; the
    /// last three stay held.
    fn hold(&mut self) {
        let g = &self.model.g;
        let answer =
            |(name, q): (&String, &Pattern)| (name.clone(), oracle(g, q, Semantics::Bounded));
        let held = Held {
            snaps: self.reads().map(|(c, h)| c.latest(h).unwrap()),
            graph: g.clone(),
            registered: self.model.registered.iter().map(answer).collect(),
        };
        self.model.held.push(held);
        if self.model.held.len() > 3 {
            self.model.held.remove(0);
        }
    }

    /// Remove `g` on both sides and add `reborn` under the same name: the
    /// old handles are stale on every read, the name lists nothing in
    /// between, and the new graph has a fresh id.
    fn remove_and_readd(&mut self, reborn: DiGraph, q: &Pattern) {
        self.disarm_crash();
        let old = self.handles.clone();
        self.engine.remove_graph(&old[0]).unwrap();
        self.rt.remove_graph("g").unwrap();
        let side = self.model.side.as_ref().map(|_| "side".to_owned());
        for (c, h) in self.reads() {
            assert_eq!(c.graph_names(), Vec::from_iter(side.clone()));
            assert!(matches!(
                c.handle("g"),
                Err(ExpFinderError::UnknownGraph(_))
            ));
            assert_stale(c, h, q);
        }
        assert!(matches!(
            self.engine.remove_graph(&old[0]),
            Err(ExpFinderError::StaleHandle(_))
        ));
        assert!(matches!(
            self.rt.remove_graph("g"),
            Err(ExpFinderError::UnknownGraph(_))
        ));

        self.handles[0] = self.engine.add_graph("g", reborn.clone()).unwrap();
        self.rt.add_graph("g", reborn.clone()).unwrap();
        self.handles[1] = self.rt.handle("g").unwrap();
        self.model.g = reborn;
        self.model.registered.clear();
        self.model.compressed = false;
        self.model.applied = 0;
        for ((c, new), old) in self.reads().into_iter().zip(&old) {
            assert_ne!(new.id(), old.id(), "a fresh id");
            // the old handle stays dead though its name is live again
            assert_stale(c, old, q);
        }
    }

    /// Reopen the durable side's directory and rebuild the in-memory side
    /// from the model: every graph comes back as acked (its version
    /// renumbered), the registered queries too, compression does not
    /// (it is session state), and no handle from before addresses either.
    /// After a crash, `g` and its registered set come back as the model
    /// holds them (`S_a`) or as the crashed write would have left them
    /// (`S_{a+1}`), and the model follows.
    fn restart(mut self) -> Harness {
        if self.crashed.is_none() {
            self.disarm_crash();
        }
        let Harness {
            engine,
            rt,
            handles: old,
            threads,
            fsync,
            mut model,
            crashed,
            dir,
            ..
        } = self;
        drop((engine, rt));
        let rt = DurableExpFinder::open(&dir.0, runtime_config(threads, fsync)).unwrap();
        assert_eq!(rt.graph_names(), model.names());
        if let Some(after) = crashed {
            let h = rt.handle("g").unwrap();
            let got = (
                rt.read_graph(&h, text).unwrap(),
                rt.registered_queries(&h).unwrap(),
            );
            let state = |(g, registered): &Acked| (text(g), registered.keys().cloned().collect());
            let (before, next) = (state(&model.acked()), state(&after));
            CRASHES.with(|t| {
                let t = &mut *t.borrow_mut();
                let seen = match (before == next, got == before) {
                    (true, _) => &mut t.neutral,
                    (false, true) => &mut t.before,
                    (false, false) => &mut t.after,
                };
                *seen += 1;
            });
            if got != before {
                assert_eq!(got, next, "recovered neither S_a nor S_a+1");
                (model.g, model.registered) = after;
            }
        }
        let recovered = |name: &str, want: &DiGraph| {
            let got = rt.read_graph(&rt.handle(name).unwrap(), DiGraph::clone);
            let got = got.unwrap();
            assert_eq!(text(&got), text(want), "{name} recovered as acked");
            got
        };
        model.g = recovered("g", &model.g);
        model.side = model.side.as_ref().map(|side| recovered("side", side));
        model.compressed = false;
        model.applied = 0;
        let (engine, handles, frames) = attach(&model, &rt, threads);
        let facades: [&Catalog; 2] = [&engine, &rt];
        for c in facades {
            for h in &old {
                assert!(matches!(c.latest(h), Err(ExpFinderError::ForeignHandle(_))));
            }
        }
        Harness {
            engine,
            rt,
            handles,
            frames,
            threads,
            fsync,
            model,
            crashed: None,
            dir,
        }
    }

    /// `engine.rank` — the same on both facades, or the two read paths
    /// did different work for the same script — as `(computed, reused)`.
    fn rank_totals(&self) -> (u64, u64) {
        let [(a, _), (b, _)] = self.reads();
        let totals = a.read_path().rank_totals();
        assert_eq!(totals, b.read_path().rank_totals());
        (totals.get("computed"), totals.get("reused"))
    }

    /// Everything the facades report besides answers, held to each other
    /// and to the model.
    fn agree(&self) {
        let [(a, ha), (b, hb)] = self.reads();
        let model = &self.model;
        for c in [a, b] {
            assert_eq!(c.graph_names(), model.names());
        }
        let infos = a.graph_infos();
        assert_eq!(infos, b.graph_infos());
        let g = &model.g;
        let info = &infos[0];
        assert_eq!(
            (info.nodes, info.edges, info.version),
            (g.node_count(), g.edge_count(), g.version())
        );
        assert_eq!(
            (info.registered_queries, info.compressed),
            (model.registered.len(), model.compressed)
        );
        let names: Vec<String> = model.registered.keys().cloned().collect();
        assert_eq!(a.registered_queries(ha).unwrap(), names);
        assert_eq!(b.registered_queries(hb).unwrap(), names);
        for (name, q) in &model.registered {
            let want = oracle(g, q, Semantics::Bounded);
            assert_eq!(*a.registered_result(ha, name).unwrap(), want, "{name}");
            assert_eq!(*b.registered_result(hb, name).unwrap(), want, "{name}");
        }
        let stats = a.compression_stats(ha).unwrap();
        assert_eq!(stats, b.compression_stats(hb).unwrap());
        assert_eq!(stats.is_some(), model.compressed);

        for ((c, h), (_, theirs)) in [((a, ha), (b, hb)), ((b, hb), (a, ha))] {
            // no write moves a graph to another id
            let now = c.handle("g").unwrap();
            assert_eq!((now.id(), now.name()), (h.id(), "g"));
            let latest = c.latest(h).unwrap();
            assert_eq!(latest.version(), g.version());
            // publishing is O(Δ): untouched chunks stay shared
            assert!(latest.graph().chunk_copies() <= 2 * model.applied);
            assert!(matches!(
                c.latest(theirs),
                Err(ExpFinderError::ForeignHandle(_))
            ));
        }
        assert_eq!(
            *self.frames[0].lock().unwrap(),
            *self.frames[1].lock().unwrap()
        );
        let (ra, rb) = (a.read_path(), b.read_path());
        let (pa, pb) = (ra.planner_totals(), rb.planner_totals());
        for key in ["decisions", "overrides"] {
            assert_eq!(pa.get(key), pb.get(key), "{key}");
        }
        // concurrent batch slots read one cost profile in either order, and
        // whether a plan mispredicted depends on the hit rate it read
        if self.threads == 1 {
            assert_eq!(pa.get("mispredicts"), pb.get("mispredicts"));
        }
        assert_eq!(ra.cache_stats(), rb.cache_stats());
        self.rank_totals();
        assert_eq!(self.engine.index_totals(), self.rt.index_totals());
        assert_eq!(ra.index_counters(), rb.index_counters());

        // a held snapshot keeps answering for its own version
        for held in &model.held {
            for snap in &held.snaps {
                assert_eq!(snap.version(), held.graph.version());
                assert!(snap.graph().edges().eq(held.graph.edges()));
                let names: Vec<&String> = held.registered.iter().map(|(n, _)| n).collect();
                assert_eq!(snap.registered_queries().iter().collect::<Vec<_>>(), names);
                for (name, want) in &held.registered {
                    assert_eq!(**snap.registered_result(name).unwrap(), *want);
                }
            }
        }
    }
}

/// Every read there is, through a handle whose graph was removed.
fn assert_stale(c: &Catalog, h: &GraphHandle, q: &Pattern) {
    fn stale<T>(what: &str, r: Result<T, ExpFinderError>) {
        match r {
            Err(ExpFinderError::StaleHandle(name)) => assert_eq!(name, "g"),
            Err(e) => panic!("{what}: expected StaleHandle, got {e}"),
            Ok(_) => panic!("{what}: a removed graph answered"),
        }
    }
    assert!(!h.is_live());
    stale("latest", c.latest(h));
    stale("read_graph", c.read_graph(h, |g| g.version()));
    stale("snapshot", c.snapshot(h));
    stale("compression_stats", c.compression_stats(h));
    stale("registered_queries", c.registered_queries(h));
    stale("registered_result", c.registered_result(h, "q0"));
    stale("query", c.query(h, &QuerySpec::pattern(q.clone()).top_k(3)));
    let dsl = QuerySpec::dsl("node sa* where label = \"SA\";");
    stale("query (dsl)", c.query(h, &dsl));
    stale("estimate_cost", c.estimate_cost(h, q));
    for slot in c.query_batch(h, vec![QuerySpec::pattern(q.clone()); 2], None) {
        stale("query_batch", slot);
    }
}

// ---------------------------------------------------------------------
// the op script
// ---------------------------------------------------------------------

/// One step of a script. Operands are small integers, so that a printed
/// script is a Rust literal: an edge is `(insert, from, to)` over the
/// case graph's nodes, `pattern` and `name` index the case's patterns and
/// two query names, `route` and `top_k` index [`ROUTES`] and [`TOP_K`].
#[derive(Clone, Debug)]
enum Op {
    AddSide,
    Update(Vec<(bool, u8, u8)>),
    NoopUpdate,
    Register {
        name: u8,
        pattern: u8,
    },
    Unregister {
        name: u8,
    },
    /// `fuse`: 0 none, 1 a zero deadline (then again with the caller's
    /// `after_checks(pattern + 2)` token), `n` ≥ 2 fires at the `n - 1`-th
    /// cancellation point.
    Query {
        pattern: u8,
        route: u8,
        top_k: u8,
        fuse: u8,
    },
    /// Slot `zero` carries a zero deadline (none when out of range).
    Batch {
        route: u8,
        top_k: u8,
        zero: u8,
    },
    Compress,
    DropCompression,
    Hold,
    Snapshot,
    Compact,
    /// Re-add the case graph with its first `keep` edges.
    RemoveReadd {
        keep: u8,
    },
    Restart,
    /// `class` indexes [`CRASH_CLASSES`].
    Crash {
        at: u8,
        class: u8,
        torn: u8,
    },
    Vertex(Vec<VertexOp>),
}

fn op() -> impl Strategy<Value = Op> {
    let edges = || proptest::collection::vec((proptest::bool::ANY, 0u8..12, 0u8..12), 1..6);
    let query = || {
        // small fuses often fire inside `G_r` or the ranking of a read
        // whose relation comes from the cache
        let fuse = prop_oneof![Just(0u8), Just(0u8), Just(1u8), 2u8..12, 12u8..48];
        (0u8..3, 0u8..3, 0u8..3, fuse).prop_map(|(pattern, route, top_k, fuse)| Op::Query {
            pattern,
            route,
            top_k,
            fuse,
        })
    };
    let register = || (0u8..2, 0u8..3).prop_map(|(name, pattern)| Op::Register { name, pattern });
    let unregister = || (0u8..2).prop_map(|name| Op::Unregister { name });
    // a small `at`, so that the armed crash usually fires in the script;
    // a short frame may reach the file whole before the crash (`S_{a+1}`)
    let crash = || {
        let at = prop_oneof![Just(0u8), 0u8..3];
        (at, 0u8..4, 0u8..96).prop_map(|(at, class, torn)| Op::Crash { at, class, torn })
    };
    prop_oneof![
        Just(Op::AddSide),
        edges().prop_map(Op::Update),
        edges().prop_map(Op::Update),
        edges().prop_map(Op::Update),
        Just(Op::NoopUpdate),
        register(),
        register(),
        unregister(),
        unregister(),
        query(),
        query(),
        query(),
        query(),
        query(),
        (0u8..3, 0u8..3, 0u8..3).prop_map(|(route, top_k, zero)| Op::Batch { route, top_k, zero }),
        Just(Op::Compress),
        Just(Op::DropCompression),
        Just(Op::Hold),
        Just(Op::Snapshot),
        Just(Op::Compact),
        (0u8..40).prop_map(|keep| Op::RemoveReadd { keep }),
        Just(Op::Restart),
        crash(),
        crash(),
        crash(),
        vertex_ops().prop_map(Op::Vertex),
    ]
}

/// Everything one property case is: a replayable value.
#[derive(Clone, Debug)]
struct Case {
    graph: RawGraph,
    patterns: Vec<RawPattern>,
    threads: usize,
    fsync: FsyncPolicy,
    script: Vec<Op>,
}

thread_local! {
    /// The routes answers were taken on, on this test thread.
    static TAKEN: RefCell<BTreeSet<&'static str>> = const { RefCell::new(BTreeSet::new()) };
}

/// Registrations of an all-bound-1 (plain simulation) pattern, over every
/// case run.
static BOUND_ONE_REGISTRATIONS: AtomicUsize = AtomicUsize::new(0);

/// The crashes armed on one test thread, and how they ended.
#[derive(Debug, Default)]
struct Crashes {
    /// Fired, by the class of the boundary they fired at: write, fsync,
    /// rename.
    fired: [usize; 3],
    /// Disarmed before any write reached their boundary.
    unfired: usize,
    /// Recovered the state before the crashed write (`S_a`) / the state
    /// after it (`S_{a+1}`), where the two differ.
    before: usize,
    after: usize,
    /// Recovered from a write that moves no state (a snapshot, a
    /// compaction, a no-op batch).
    neutral: usize,
}

thread_local! {
    static CRASHES: RefCell<Crashes> = RefCell::default();
}

/// An `Update` operand as edge updates over the first `nodes` nodes.
fn edge_updates(batch: &[(bool, u8, u8)], nodes: u32) -> Vec<EdgeUpdate> {
    let edge = |&(insert, a, b): &(bool, u8, u8)| {
        let (a, b) = (NodeId(a as u32 % nodes), NodeId(b as u32 % nodes));
        if insert {
            EdgeUpdate::Insert(a, b)
        } else {
            EdgeUpdate::Delete(a, b)
        }
    };
    batch.iter().map(edge).collect()
}

/// Run `case`'s script on both facades and the model.
fn run_case(case: &Case) {
    let base = build_graph(&case.graph);
    let real = base.node_count() as u32;
    let mut patterns: Vec<Pattern> = case
        .patterns
        .iter()
        .map(|p| build_pattern(p, false))
        .collect();
    patterns.push(patterns[0].as_simulation());
    let pattern = |i: u8| &patterns[i as usize % patterns.len()];
    let mut scratch = EvalScratch::new();
    let mut h = Harness::with_fsync(base.clone(), case.threads, case.fsync);
    check_every_request(&h.model.g, pattern(0), &mut scratch);
    h.agree();

    for (step, op) in case.script.iter().enumerate() {
        let q = pattern(step as u8);
        let version = (h.handles[0].id(), h.model.g.version());
        match op {
            Op::AddSide => h.add_side(&base),
            Op::Update(batch) => {
                // a direct read on each side of the batch: state derived
                // for the old version and served at the new one shows;
                // and every registered pattern read ranked at the new
                // version, from the `G_r` arcs the batch repaired
                h.query(q, Route::Direct, None, Fuse::None);
                h.update(&edge_updates(batch, real));
                if h.crashed.is_none() {
                    h.read_registered();
                    h.query(q, Route::Direct, None, Fuse::None);
                }
            }
            Op::NoopUpdate => h.noop_update(),
            Op::Register { name, pattern: p } => {
                if pattern(*p).is_simulation() {
                    BOUND_ONE_REGISTRATIONS.fetch_add(1, Ordering::Relaxed);
                }
                h.register(&format!("q{name}"), pattern(*p))
            }
            Op::Unregister { name } => h.unregister(&format!("q{name}")),
            Op::Query {
                pattern: p,
                route,
                top_k,
                fuse,
            } => {
                let fuse = match fuse {
                    0 => Fuse::None,
                    1 => Fuse::Zero,
                    n => Fuse::After(*n as u64 - 1),
                };
                let (route, top_k) = (ROUTES[*route as usize], TOP_K[*top_k as usize]);
                h.query(pattern(*p), route, top_k, fuse);
                if matches!(fuse, Fuse::Zero) {
                    // a read that never starts changes nothing but the
                    // cancel totals, so the script's state is unchanged
                    let fuse = Fuse::AfterAndZero(*p as u64 + 2);
                    h.query(pattern(*p), route, top_k, fuse);
                }
            }
            Op::Batch { route, top_k, zero } => {
                let (route, top_k) = (ROUTES[*route as usize], TOP_K[*top_k as usize]);
                h.batch(&patterns, route, top_k, *zero as usize);
            }
            Op::Compress => h.compress(),
            Op::DropCompression => h.drop_compression(),
            Op::Hold => h.hold(),
            Op::Snapshot => h.snapshot(),
            Op::Compact => h.compact(),
            Op::RemoveReadd { keep } => {
                let mut raw = case.graph.clone();
                raw.edges.truncate(*keep as usize);
                h.remove_and_readd(build_graph(&raw), q);
            }
            Op::Restart => h = h.restart(),
            Op::Crash { at, class, torn } => {
                let class = CRASH_CLASSES[*class as usize];
                h.arm_crash(*at as u64, class, *torn as usize);
            }
            Op::Vertex(ops) => {
                // a copy of the model graph shares its vertex table and
                // label index until its first write
                let mut shadow = h.model.g.clone();
                for op in ops {
                    apply_vertex_op(&mut shadow, op);
                }
                check_every_request(&shadow, q, &mut scratch);
            }
        }
        if h.crashed.is_some() {
            h = h.restart();
        }
        h.agree();
        if (h.handles[0].id(), h.model.g.version()) != version || matches!(op, Op::Vertex(_)) {
            check_every_request(&h.model.g, q, &mut scratch);
        }
    }
    h.disarm_crash();
}

/// `case` as Rust source: `Debug` output with every sequence as `vec![..]`.
fn literal(case: &Case) -> String {
    let rust = |v: &dyn Debug| format!("{v:?}").replace('[', "vec![");
    let script: String = case
        .script
        .iter()
        .map(|op| format!("            {},\n", rust(op)))
        .collect();
    format!(
        "Case {{\n        graph: {},\n        patterns: {},\n        threads: {},\n        \
         fsync: FsyncPolicy::{:?},\n        script: vec![\n{script}        ],\n    }}",
        rust(&case.graph),
        rust(&case.patterns),
        case.threads,
        case.fsync
    )
}

/// Run `case`; on failure drop ops one at a time while the script still
/// fails, print the minimal case as a test, and fail with its message.
fn check_case(index: usize, case: Case) {
    if catch_unwind(AssertUnwindSafe(|| run_case(&case))).is_ok() {
        return;
    }
    // quiet while shrinking: only this thread's panics, which are expected
    let hook: Arc<dyn Fn(&PanicHookInfo) + Send + Sync> = Arc::from(std::panic::take_hook());
    let (shrinking, outer) = (std::thread::current().id(), Arc::clone(&hook));
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().id() != shrinking {
            outer(info);
        }
    }));
    let mut minimal = case;
    let mut i = 0;
    while i < minimal.script.len() {
        let mut shorter = minimal.clone();
        shorter.script.remove(i);
        if catch_unwind(AssertUnwindSafe(|| run_case(&shorter))).is_err() {
            minimal = shorter;
        } else {
            i += 1;
        }
    }
    std::panic::set_hook(Box::new(move |info| hook(info)));
    eprintln!(
        "proptest case {index} fails; shrunk to {} ops. Replay it with this test:\n\n\
         #[test]\nfn replay() {{\n    use Op::*;\n    use VertexOp::*;\n    run_case(&{});\n}}\n",
        minimal.script.len(),
        literal(&minimal)
    );
    run_case(&minimal);
    panic!("case {index} failed, but its shrunk script passes: the harness is nondeterministic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn facades_agree_with_the_model_on_every_op_script(
        graph in raw_graph(12),
        p0 in raw_pattern(),
        p1 in raw_pattern(),
        threads in 1usize..3,
        fsync in proptest::bool::ANY,
        script in proptest::collection::vec(op(), 6..20),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let index = CASE.fetch_add(1, Ordering::Relaxed);
        // one edge keeps the second pattern's answer rarely empty, so that
        // updates move it and a stale answer shows
        let mut p1 = p1;
        p1.edges.truncate(1);
        let fsync = if fsync { FsyncPolicy::Always } else { FsyncPolicy::Never };
        check_case(index, Case { graph, patterns: vec![p0, p1], threads, fsync, script });
        if index + 1 == CASES as usize {
            let taken = TAKEN.with(|t| t.borrow().clone());
            let all = ["cache", "compressed", "registered", "snapshot"];
            prop_assert_eq!(taken, BTreeSet::from(all), "routes the scripts took");
            let bound_one = BOUND_ONE_REGISTRATIONS.load(Ordering::Relaxed);
            eprintln!("all-bound-1 registrations over {CASES} cases: {bound_one}");
            prop_assert!(bound_one > 0, "no case registered a plain-simulation pattern");
            let crashes = CRASHES.with(RefCell::take);
            eprintln!("crashes over {CASES} cases: {crashes:?}");
            prop_assert!(crashes.fired.iter().all(|&n| n > 0), "a boundary class never crashed");
            prop_assert!(crashes.before > 0 && crashes.after > 0, "S_a or S_a+1 never recovered");
        }
    }
}

// ---------------------------------------------------------------------
// fixed scenarios
// ---------------------------------------------------------------------

/// Sixteen nodes, labels cycling over `A`, `B`, `C`, and `edges`.
fn abc_graph(edges: &[(u32, u32)]) -> DiGraph {
    let mut g = DiGraph::new();
    for i in 0..16 {
        g.add_node(["A", "B", "C"][i % 3], []);
    }
    for &(a, b) in edges {
        g.add_edge(NodeId(a), NodeId(b));
    }
    g
}

/// The ranked-answer slot, on both facades. Five `A` candidates reach a
/// `B` within two hops: 0, 9, 12 directly (rank 1), 3 and 6 through a `C`
/// (rank 2) — the `a1 → x → b1` shape whose direct edge `a1 → b1` can be
/// inserted without changing `M(Q,G)`.
#[test]
fn ranked_answers_are_cached_per_version_and_never_across() {
    let edges = [(0, 1), (3, 5), (5, 4), (6, 8), (8, 7), (9, 10), (12, 13)];
    let g = abc_graph(&edges);
    let q = PatternBuilder::new()
        .node_output("x", Predicate::label("A"))
        .node("y", Predicate::label("B"))
        .edge("x", "y", Bound::hops(2))
        .build()
        .unwrap();
    let mut h = Harness::new(g.clone(), 1);
    let totals = |computed, reused| (computed, reused);
    let rank_of = |resp: &QueryResponse, v: u32| {
        let hit = resp.experts.iter().find(|x| x.node == NodeId(v));
        hit.expect("a candidate").rank
    };

    // one version: 3 computes, 10 must recompute (3 of 5 is no prefix of
    // 10) and comes back complete, after which every k is a lookup
    assert_eq!(h.ranked(&q, Route::Auto, 3).experts.len(), 3);
    assert_eq!(h.rank_totals(), totals(1, 0));
    let all = h.ranked(&q, Route::Auto, 10);
    assert_eq!((all.experts.len(), all.plan.chosen), (5, PlanRoute::Cache));
    assert_eq!(h.rank_totals(), totals(2, 0));
    assert_eq!(h.ranked(&q, Route::Auto, 2).experts.len(), 2);
    assert_eq!(h.ranked(&q, Route::Auto, 40).experts.len(), 5);
    assert_eq!(h.rank_totals(), totals(2, 2));
    let unranked = h.query(&q, Route::Auto, None, Fuse::None).unwrap();
    assert!(unranked.experts.is_empty());
    assert_eq!(h.rank_totals(), totals(2, 2), "no top_k, no ranking");

    // a Direct request bypasses the cache, recomputes, and agrees
    let direct = h.ranked(&q, Route::Direct, 10);
    assert_eq!(direct.plan.chosen, PlanRoute::Snapshot);
    assert_eq!(h.rank_totals(), totals(3, 2));

    // batch slots are served from the list like single reads: the two
    // slots on each facade are lookups, and so is a single read after them
    let specs = || vec![QuerySpec::pattern(q.clone()).top_k(10); 2];
    for (c, hd) in h.reads() {
        for slot in c.query_batch(hd, specs(), None) {
            let slot = slot.unwrap();
            assert_eq!(slot.plan.chosen, PlanRoute::Cache);
            assert_eq!(bits(&slot.experts), bits(&all.experts));
        }
    }
    assert_eq!(h.rank_totals(), totals(3, 4));
    h.ranked(&q, Route::Auto, 10);
    assert_eq!(h.rank_totals(), totals(3, 5));

    // 3 → 4 shortens the witnessed path 3 → 5 → 4: M is untouched, the
    // G_r weight goes 2 → 1, and so does f(3). Reusing the ranked list
    // because "ΔM is empty" would be wrong; the version key prevents it.
    assert_eq!(rank_of(&all, 3), 2.0);
    h.update(&[EdgeUpdate::Insert(NodeId(3), NodeId(4))]);
    let after = h.ranked(&q, Route::Auto, 10);
    assert_eq!(*after.matches, *all.matches, "the update changed no match");
    assert_eq!(rank_of(&after, 3), 1.0, "but it changed a rank");
    assert_eq!(h.rank_totals(), totals(4, 5));

    // the same for a registered query, whose maintained relation is the
    // very same `Arc` across the update
    h.register("q0", &q);
    h.update(&[EdgeUpdate::Insert(NodeId(15), NodeId(14))]);
    let registered = h.ranked(&q, Route::Auto, 10);
    assert_eq!(registered.plan.chosen, PlanRoute::Registered);
    let cached = h.ranked(&q, Route::Auto, 10);
    assert_eq!(cached.plan.chosen, PlanRoute::Cache);
    assert_eq!(h.rank_totals(), totals(5, 6));
    assert_eq!(rank_of(&registered, 6), 2.0);
    h.update(&[EdgeUpdate::Insert(NodeId(6), NodeId(7))]);
    let after = h.ranked(&q, Route::Auto, 10);
    assert_eq!(after.plan.chosen, PlanRoute::Registered);
    assert_eq!(rank_of(&after, 6), 1.0);
    assert_eq!(h.rank_totals(), totals(6, 6));
    h.agree();

    // a graph removed and re-added under its name — here even at a version
    // number the cache has a ranked list for — never serves the old list
    let mut reborn_edges = edges[1..].to_vec();
    reborn_edges.push((15, 14));
    let reborn = abc_graph(&reborn_edges);
    assert_eq!(reborn.version(), g.version(), "same version, another graph");
    h.remove_and_readd(reborn, &q);
    assert_eq!(h.ranked(&q, Route::Auto, 10).experts.len(), 4);
    assert_eq!(h.rank_totals(), totals(7, 6));
    h.agree();

    // nor does the former life — its log, its standing query — come back
    // with a restart
    let mut h = h.restart();
    h.agree();
    assert_eq!(h.ranked(&q, Route::Auto, 10).experts.len(), 4);

    // registered again: 9 → 10 → 13 gives 9 a second target, then the
    // deletion of 10 → 13 takes that `G_r` arc away while M stands, and
    // f(9) goes 3/2 → 1. The ranked read at each version is assembled from
    // the maintained arcs, which the batch must have repaired.
    h.register("q0", &q);
    h.update(&[EdgeUpdate::Insert(NodeId(10), NodeId(13))]);
    let before = h.ranked(&q, Route::Auto, 10);
    assert_eq!(before.plan.chosen, PlanRoute::Registered);
    assert_eq!(rank_of(&before, 9), 1.5);
    h.update(&[EdgeUpdate::Delete(NodeId(10), NodeId(13))]);
    let after = h.ranked(&q, Route::Auto, 10);
    assert_eq!(after.plan.chosen, PlanRoute::Registered);
    assert_eq!(
        *after.matches, *before.matches,
        "the deletion changed no match"
    );
    assert_eq!(rank_of(&after, 9), 1.0);
    assert_eq!(h.rank_totals(), totals(3, 0));
    h.agree();
}

/// A registered pattern's `G_r` comes from arcs the write path repairs
/// once per batch. On the chain `x →(1) y →(1) z` every bound is 1, so an
/// update's affected ball is its tail alone: inserting 10 → 11 gives the
/// `B` node 10 its `C`, and ΔM then adds 10 to `y` and 9 (9 → 10) to `x`
/// — only ΔM tells the repair that 9's arcs now count. Deleting the edge
/// again removes both.
#[test]
fn registered_arcs_follow_the_sources_dm_adds_and_removes() {
    let chain = PatternBuilder::new()
        .node_output("x", Predicate::label("A"))
        .node("y", Predicate::label("B"))
        .node("z", Predicate::label("C"))
        .edge("x", "y", Bound::ONE)
        .edge("y", "z", Bound::ONE)
        .build()
        .unwrap();
    let mut h = Harness::new(abc_graph(&[(9, 10), (12, 13)]), 1);
    h.register("chain", &chain);
    assert!(h.ranked(&chain, Route::Auto, 10).experts.is_empty());
    h.update(&[EdgeUpdate::Insert(NodeId(10), NodeId(11))]);
    let added = h.ranked(&chain, Route::Auto, 10);
    assert_eq!(added.plan.chosen, PlanRoute::Registered);
    let experts: Vec<(NodeId, f64)> = added.experts.iter().map(|x| (x.node, x.rank)).collect();
    assert_eq!(experts, [(NodeId(9), 1.5)], "9 → 10 at 1, 9 → 11 at 2");
    h.update(&[EdgeUpdate::Delete(NodeId(10), NodeId(11))]);
    assert!(h.ranked(&chain, Route::Auto, 10).experts.is_empty());
    h.agree();
}

/// A registered pattern's ranking is re-ranked on the write side, only
/// where a batch can have moved it. On `a →(≤2) b →(≤2) c →(≤2) d` over
/// the chain a1 → b1 → c1 → x → d1, inserting c1 → d1 leaves `M` as it
/// is and changes one `G_r` arc two hops from the only candidate a1,
/// whose rank goes 7/3 → 2 while the list's order cannot change; the
/// deletion takes it back.
#[test]
fn registered_ranks_follow_an_arc_two_hops_from_the_candidate() {
    let q = PatternBuilder::new()
        .node_output("a", Predicate::label("A"))
        .node("b", Predicate::label("B"))
        .node("c", Predicate::label("C"))
        .node("d", Predicate::label("D"))
        .edge("a", "b", Bound::hops(2))
        .edge("b", "c", Bound::hops(2))
        .edge("c", "d", Bound::hops(2))
        .build()
        .unwrap();
    let mut g = DiGraph::new();
    let [a1, b1, c1, x, d1] = ["A", "B", "C", "X", "D"].map(|l| g.add_node(l, []));
    for (p, c) in [(a1, b1), (b1, c1), (c1, x), (x, d1)] {
        g.add_edge(p, c);
    }
    let mut h = Harness::new(g, 1);
    h.register("chain", &q);
    let rank = |h: &Harness| {
        let resp = h.ranked(&q, Route::Auto, 10);
        assert_eq!(resp.plan.chosen, PlanRoute::Registered);
        let experts: Vec<(NodeId, f64)> = resp.experts.iter().map(|x| (x.node, x.rank)).collect();
        h.read_registered();
        experts
    };
    assert_eq!(rank(&h), [(a1, 7.0 / 3.0)]);
    h.update(&[EdgeUpdate::Insert(c1, d1)]);
    assert_eq!(rank(&h), [(a1, 2.0)]);
    h.update(&[EdgeUpdate::Delete(c1, d1)]);
    assert_eq!(rank(&h), [(a1, 7.0 / 3.0)]);
    h.agree();
}

/// Every kind of change a batch end re-ranks from, one per batch. On
/// `a →(≤2) b →(≤2) c →(1) c2` ranked at `b`, each update moves `f(b1)`,
/// and only one search seed reaches b1: the head of an arc into it that
/// is added, removed or reweighted (the reweight also rewrites b1's
/// in-row, which b1's backward run reads); the node ΔM moves when c1
/// loses the loop it matches `c` by, which changes no stored arc but
/// takes b1 → c1 out of `G_r`; and the tail of an arc added out of b1,
/// whose head c4 reaches no candidate.
#[test]
fn registered_ranks_follow_every_seed_of_the_batch_end_search() {
    let q = PatternBuilder::new()
        .node("a", Predicate::label("A"))
        .node_output("b", Predicate::label("B"))
        .node("c", Predicate::label("C"))
        .node("c2", Predicate::label("C"))
        .edge("a", "b", Bound::hops(2))
        .edge("b", "c", Bound::hops(2))
        .edge("c", "c2", Bound::ONE)
        .build()
        .unwrap();
    let mut g = DiGraph::new();
    let [a1, a2, y, b1, b2, z, c1, c3, c4] =
        ["A", "A", "X", "B", "B", "X", "C", "C", "C"].map(|l| g.add_node(l, []));
    for (p, c) in [
        (a1, y),
        (y, b1),
        (a1, b2),
        (a2, b2),
        (b1, z),
        (z, c1),
        (b1, c3),
        (b2, c3),
        (c1, c1),
        (c3, c3),
        (c4, c4),
    ] {
        g.add_edge(p, c);
    }
    let mut h = Harness::new(g, 1);
    h.register("middle", &q);
    let rank_of_b1 = |h: &Harness| {
        let resp = h.ranked(&q, Route::Auto, 10);
        assert_eq!(resp.plan.chosen, PlanRoute::Registered);
        h.read_registered();
        let b1 = resp.experts.iter().find(|x| x.node == b1);
        b1.expect("b1 is ranked").rank
    };
    // a1 at 2, c3 at 1, c1 at 2
    assert_eq!(rank_of_b1(&h), 5.0 / 3.0);
    for (up, rank) in [
        (EdgeUpdate::Insert(a2, b1), 6.0 / 4.0),
        (EdgeUpdate::Delete(a2, b1), 5.0 / 3.0),
        (EdgeUpdate::Insert(a1, b1), 4.0 / 3.0),
        (EdgeUpdate::Delete(c1, c1), 2.0 / 2.0),
        (EdgeUpdate::Insert(z, c4), 4.0 / 3.0),
    ] {
        h.update(&[up]);
        assert_eq!(rank_of_b1(&h), rank, "after {up}");
    }
    h.agree();
}

/// A registered pattern's removals and rejections, on both facades. On
/// `w →(1) x →(≤2) y →(1) z` the chain w2 → x2 → y2 → z2 keeps the
/// relation alive. Inserting x3 → y3 gives x3 a `y` candidate, and the
/// closure admits (x, x3) and, upstream, (w, w3) on x3's support; y3 has
/// no `z`, so verification rejects x3 and then w3, which x3 alone
/// supported. Deleting y1 → z1 cuts y1's only `z`, and the removal
/// cascades across two pattern edges to x1 (two hops upstream, outside
/// the deletion's affected ball) and w1; inserting it back revives all
/// three.
#[test]
fn registered_removals_cascade_and_verification_rejects_a_tentative() {
    let q = PatternBuilder::new()
        .node_output("w", Predicate::label("W"))
        .node("x", Predicate::label("X"))
        .node("y", Predicate::label("Y"))
        .node("z", Predicate::label("Z"))
        .edge("w", "x", Bound::ONE)
        .edge("x", "y", Bound::hops(2))
        .edge("y", "z", Bound::ONE)
        .build()
        .unwrap();
    let mut g = DiGraph::new();
    let [w1, x1, m, y1, z1] = ["W", "X", "M", "Y", "Z"].map(|l| g.add_node(l, []));
    let [w2, x2, y2, z2] = ["W", "X", "Y", "Z"].map(|l| g.add_node(l, []));
    let [w3, x3, y3] = ["W", "X", "Y"].map(|l| g.add_node(l, []));
    for (p, c) in [
        (w1, x1),
        (x1, m),
        (m, y1),
        (y1, z1),
        (w2, x2),
        (x2, y2),
        (y2, z2),
        (w3, x3),
    ] {
        g.add_edge(p, c);
    }
    let mut h = Harness::new(g, 1);
    h.register("chain", &q);
    let matches = |h: &Harness, u: &str| {
        let [(a, ha), (b, hb)] = h.reads();
        let got = a.registered_result(ha, "chain").unwrap();
        assert_eq!(got, b.registered_result(hb, "chain").unwrap());
        got.matches_vec(q.node_id(u).unwrap())
    };
    assert_eq!(matches(&h, "w"), [w1, w2]);
    h.update(&[EdgeUpdate::Insert(x3, y3)]);
    assert_eq!(matches(&h, "w"), [w1, w2]);
    assert_eq!(matches(&h, "x"), [x1, x2]);
    h.read_registered();
    h.agree();
    h.update(&[EdgeUpdate::Delete(y1, z1)]);
    assert_eq!(matches(&h, "w"), [w2]);
    assert_eq!((matches(&h, "x"), matches(&h, "y")), (vec![x2], vec![y2]));
    h.read_registered();
    h.agree();
    h.update(&[EdgeUpdate::Insert(y1, z1)]);
    assert_eq!(matches(&h, "w"), [w1, w2]);
    h.agree();
}

/// The reach index survives a version: the bounded entry a read filled
/// is carried as a distance column, repaired, and thresholded by the next
/// version's read; the unbounded one is rebuilt. Over 3 → 5 and 6 → 8 → 7, inserting 5 → 7
/// pulls 3 into the `B` class's 2-ball (and its unbounded reach), and
/// deleting 8 → 7 takes 8's only tight successor, so 6 leaves both. An
/// entry carried unrepaired, or a delete left unrepaired, or an unbounded
/// entry carried at all, answers one of the reads wrong.
#[test]
fn carried_reach_entries_follow_an_insert_and_a_delete() {
    let star = |bound| {
        PatternBuilder::new()
            .node_output("x", Predicate::label("A"))
            .node("y", Predicate::label("B"))
            .edge("x", "y", bound)
            .build()
            .unwrap()
    };
    let (near, far) = (star(Bound::hops(2)), star(Bound::Unbounded));
    let mut h = Harness::new(abc_graph(&[(0, 1), (3, 5), (6, 8), (8, 7)]), 1);
    let read = |h: &Harness| {
        [&near, &far].map(|q| {
            let resp = h.query(q, Route::Direct, None, Fuse::None).unwrap();
            assert_eq!(resp.plan.chosen, PlanRoute::Snapshot);
            let x = q.node_id("x").unwrap();
            resp.matches
                .matches(x)
                .iter()
                .map(|v| v.0)
                .collect::<Vec<_>>()
        })
    };
    let counts = |h: &Harness| {
        let c = h.engine.read_path().index_counters();
        (
            c.get("built"),
            c.get("carried"),
            h.engine.index_totals().entries,
        )
    };
    assert_eq!(read(&h), [vec![0, 6], vec![0, 6]]);
    assert_eq!(counts(&h), (2, 0, 2), "one bounded and one unbounded entry");
    h.update(&[EdgeUpdate::Insert(NodeId(5), NodeId(7))]);
    assert_eq!(read(&h), [vec![0, 3, 6], vec![0, 3, 6]]);
    assert_eq!(
        counts(&h),
        (3, 1, 3),
        "the bounded entry thresholded, beside its carried column"
    );
    h.update(&[EdgeUpdate::Delete(NodeId(8), NodeId(7))]);
    assert_eq!(read(&h), [vec![0, 3], vec![0, 3]]);
    assert_eq!(counts(&h), (4, 2, 3));
    h.agree();
}

/// One pattern family read at forty distinct bounds, `A -(≤b)-> B` for b
/// in 1..=40, on a 60-node chain whose one `B` ends it, with updates in
/// between: every read on both facades equals the naive answer, and the
/// raw fixpoint naive's. An index entry answering for another bound, or
/// a carried entry left stale, shows.
#[test]
fn one_pattern_family_over_many_distinct_bounds() {
    let mut g = DiGraph::new();
    for i in 0..60 {
        let label = match i {
            59 => "B",
            i if i % 5 == 0 => "A",
            _ => "C",
        };
        g.add_node(label, []);
    }
    for i in 0..59 {
        g.add_edge(NodeId(i), NodeId(i + 1));
    }
    let star = |b| {
        PatternBuilder::new()
            .node_output("x", Predicate::label("A"))
            .node("y", Predicate::label("B"))
            .edge("x", "y", Bound::hops(b))
            .build()
            .unwrap()
    };
    let mut h = Harness::new(g, 1);
    let mut scratch = EvalScratch::new();
    let batches = [
        vec![EdgeUpdate::Insert(NodeId(12), NodeId(50))],
        vec![EdgeUpdate::Delete(NodeId(52), NodeId(53))],
        vec![
            EdgeUpdate::Insert(NodeId(53), NodeId(59)),
            EdgeUpdate::Delete(NodeId(12), NodeId(50)),
        ],
    ];
    for batch in std::iter::once(&vec![]).chain(&batches) {
        h.update(batch);
        for b in 1..=40 {
            let q = star(b);
            h.query(&q, Route::Direct, Some(3), Fuse::None).unwrap();
            let g = &h.model.g;
            let want = naive_bounded_fixpoint(g, &q, candidate_sets(g, &q));
            assert_eq!(raw_fixpoint(g, &q, &mut scratch), want, "bound {b}");
        }
    }
    h.agree();
}

/// A registered pattern with no output node ranks as an unregistered
/// one: `top_k` 0 and 2, on the cache route and on `Direct`, on both
/// facades, refuse with the same error before and after the
/// registration — the maintained (empty) ranking never answers.
#[test]
fn a_registered_pattern_without_an_output_node_ranks_as_an_unregistered_one() {
    let headless = PatternBuilder::new()
        .node("x", Predicate::label("A"))
        .node("y", Predicate::label("B"))
        .edge("x", "y", Bound::hops(2))
        .build()
        .unwrap();
    let mut h = Harness::new(abc_graph(&[(0, 1), (3, 5), (5, 4)]), 1);
    let outcomes = |h: &Harness| {
        let mut out = Vec::new();
        for (c, hd) in h.reads() {
            for prefer in [Route::Auto, Route::Direct] {
                for k in [0, 2] {
                    let read = run(c, hd, &headless, prefer, Some(k), None, None);
                    out.push(format!("{:?}", read.map(|r| r.experts)));
                }
            }
        }
        out
    };
    let unregistered = outcomes(&h);
    assert!(
        unregistered.iter().all(|o| o.contains("NoOutputNode")),
        "{unregistered:?}"
    );
    h.register("headless", &headless);
    assert_eq!(outcomes(&h), unregistered);
    let [(c, hd), _] = h.reads();
    let view = c.latest(hd).unwrap();
    assert!(view
        .registered(&headless.fingerprint())
        .unwrap()
        .ranking()
        .is_empty());
    h.agree();
}

/// `engine.index.{entries,bytes}` counts the quotient's reach index on
/// both facades: after `compress` and one bounded query on the
/// compressed route the totals are equal, and non-zero.
#[test]
fn index_totals_count_the_quotient_index_on_both_backends() {
    let g = abc_graph(&[(0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (1, 2)]);
    let q = PatternBuilder::new()
        .node_output("x", Predicate::label("A"))
        .node("y", Predicate::label("B"))
        .node("z", Predicate::label("C"))
        .edge("x", "y", Bound::hops(2))
        .edge("x", "z", Bound::hops(2))
        .build()
        .unwrap();
    let mut h = Harness::new(g, 1);
    h.compress();
    let resp = h.query(&q, Route::Compressed, None, Fuse::None).unwrap();
    assert_eq!(resp.plan.chosen, PlanRoute::Compressed);
    let totals = h.engine.index_totals();
    let hits = h.engine.read_path().index_counters().get("hits");
    assert!(
        hits > 0 && totals.entries > 0 && totals.bytes > 0,
        "{hits} hits, {totals:?}"
    );
    h.agree();
}

/// The budget covers the whole read: ranking polls the token per
/// candidate and per `G_r` row it expands. A fuse at every cancellation
/// point of a ranked Fig. 1 read, on a fresh pair of facades each time,
/// gives the exact experts or a 408 — never a truncated list — a
/// relation whose ranking was abandoned is cached, and an abandoned
/// ranking is not counted as computed.
#[test]
fn every_fuse_value_yields_the_exact_experts_or_408() {
    let (g, q) = (collaboration_fig1().graph, fig1_pattern());
    let want = bits(&reference_rank(
        &g,
        &q,
        &oracle(&g, &q, Semantics::Bounded),
        2,
    ));
    assert_eq!(want.len(), 2, "Bob, then Walt");
    let fresh = || Harness::new(g.clone(), 1);
    let ranked =
        |c: &Catalog, h: &GraphHandle, token| run(c, h, &q, Route::Auto, Some(2), token, None);

    // the cancellation points of the evaluation alone and of the whole
    // ranked read, counted with fuses that never fire
    let polls = |top_k| {
        let h = fresh();
        let [a, b] = h.reads().map(|(c, hd)| {
            let token = CancelToken::after_checks(u64::MAX);
            let out = run(
                c,
                hd,
                &q,
                Route::Auto,
                top_k,
                Some(Arc::clone(&token)),
                None,
            );
            out.unwrap();
            token.checks()
        });
        assert_eq!(a, b);
        a
    };
    let (eval_polls, all_polls) = (polls(None), polls(Some(2)));
    // Fig. 1: 2 candidates + 9 rows. Bob's searches expand the forward
    // rows of Bob, Dan, Mat, Pat, Jean and Eva and Bob's backward row;
    // Walt's add his own two and find the rest expanded
    assert_eq!(
        all_polls - eval_polls,
        11,
        "candidates and G_r rows are cancellation points"
    );

    // the work of the finished evaluation, as the last possible 408 reports it
    let finished = {
        let h = fresh();
        let (c, hd) = h.reads()[0];
        match ranked(c, hd, Some(CancelToken::after_checks(all_polls))) {
            Err(ExpFinderError::DeadlineExceeded(stats)) => stats,
            other => panic!("the last poll must fire, got {other:?}"),
        }
    };
    assert!(finished.refreshes >= q.edge_count());

    for fuse in 1..=all_polls + 1 {
        let h = fresh();
        for (c, hd) in h.reads() {
            match ranked(c, hd, Some(CancelToken::after_checks(fuse))) {
                Ok(resp) => {
                    assert_eq!(fuse, all_polls + 1, "a fuse inside the read must fire");
                    assert_eq!(bits(&resp.experts), want);
                }
                Err(ExpFinderError::DeadlineExceeded(stats)) => {
                    assert!(fuse <= all_polls);
                    let ranking = fuse > eval_polls;
                    // abandoned while ranking: the 408 carries the finished
                    // evaluation's work, and the finished relation is cached
                    assert_eq!(stats == finished, ranking, "fuse {fuse}: {stats:?}");
                    // an abandoned ranking is no computed list
                    let totals = c.read_path().rank_totals().read();
                    assert!(totals.iter().all(|(_, n)| *n == 0), "fuse {fuse}");
                    let again = ranked(c, hd, None).unwrap();
                    assert_eq!(bits(&again.experts), want, "fuse {fuse}: a truncated list");
                    assert_eq!(
                        again.plan.chosen == PlanRoute::Cache,
                        ranking,
                        "fuse {fuse}"
                    );
                    // nothing partial was stored: the follow-up ranked afresh
                    let totals = c.read_path().rank_totals();
                    let computed = (totals.get("computed"), totals.get("reused"));
                    assert_eq!(computed, (1, 0), "fuse {fuse}");
                }
                Err(other) => panic!("fuse {fuse}: unexpected error: {other}"),
            }
        }
        h.agree();
    }
}

/// The Fig. 1 query answers the paper's experts — Bob at 9/5, Walt at
/// 7/3 — on every route a read can take, on both facades.
#[test]
fn fig1_answers_alike_on_every_taken_route_of_both_facades() {
    let f = collaboration_fig1();
    let q = fig1_pattern();
    let mut taken = BTreeSet::new();
    let mut h = Harness::new(f.graph.clone(), 1);
    h.register("team", &q);
    let mut read = |h: &Harness, prefer| {
        let resp = h.ranked(&q, prefer, 2);
        let experts: Vec<_> = resp.experts.iter().map(|x| (x.node, x.rank)).collect();
        assert_eq!(experts, [(f.bob, 9.0 / 5.0), (f.walt, 7.0 / 3.0)]);
        assert_eq!(resp.matches.total_pairs(), 7);
        taken.insert(resp.plan.chosen.as_str());
        h.agree();
    };
    read(&h, Route::Auto); // registered
    read(&h, Route::Auto); // cache
    read(&h, Route::Direct); // snapshot
    h.compress();
    read(&h, Route::Compressed);
    let all = ["cache", "compressed", "registered", "snapshot"];
    assert_eq!(taken, BTreeSet::from(all));
}

/// Nodes whose labels hold what a pattern's text must escape or decode:
/// `a),L(b` (with `c`), `Müller` (with `experience = 3`), and the label
/// `A\u{1}k\u{2}i5` next to an `A` with `k = 5`, which once shared a
/// compression signature.
fn names_graph() -> DiGraph {
    let mut g = DiGraph::new();
    g.add_node("a),L(b", [("c", AttrValue::Int(1))]);
    g.add_node("Müller", [("experience", AttrValue::Int(3))]);
    g.add_node("A\u{1}k\u{2}i5", []);
    g.add_node("A", [("k", AttrValue::Int(5))]);
    g
}

/// A pattern's text is its cache key. These two once encoded alike, so
/// the second read at one version was served the first one's empty
/// relation from the cache.
#[test]
fn patterns_that_once_encoded_alike_take_two_cache_slots() {
    let h = Harness::new(names_graph(), 1);
    let split = r#"node a* where (label = "a") and (label = "b") and (has c);"#;
    let grouped = r#"node a* where (label = "a),L(b") and (has c);"#;
    let [split, grouped] = [split, grouped].map(|src| parser::parse(src).unwrap());
    let first = h.query(&split, Route::Auto, None, Fuse::None).unwrap();
    assert_eq!(first.matches.total_pairs(), 0);
    let second = h.query(&grouped, Route::Auto, None, Fuse::None).unwrap();
    assert_eq!(
        second.plan.chosen,
        PlanRoute::Snapshot,
        "evaluated, not cached"
    );
    assert_eq!(second.matches.total_pairs(), 1);
    let again = h.query(&grouped, Route::Auto, None, Fuse::None).unwrap();
    assert_eq!(again.plan.chosen, PlanRoute::Cache);
    h.agree();
}

/// An integral float and a non-ASCII label: both match, both register on
/// both facades (the durable one logs their text and checks that it
/// parses back to itself), and after a restart both read `registered`.
#[test]
fn an_integral_float_and_a_non_ascii_label_register_and_survive_a_restart() {
    let mut h = Harness::new(names_graph(), 1);
    let exp = parser::parse("node x* where experience >= 2.0;").unwrap();
    let muller = parser::parse(r#"node x* where label = "Müller";"#).unwrap();
    for q in [&exp, &muller] {
        let resp = h.query(q, Route::Direct, Some(2), Fuse::None).unwrap();
        assert_eq!(resp.matches.total_pairs(), 1, "{q}");
    }
    h.register("exp", &exp);
    h.register("muller", &muller);
    assert_eq!(h.model.registered.len(), 2, "both facades registered both");
    let h = h.restart();
    for q in [&exp, &muller] {
        let resp = h.query(q, Route::Auto, Some(2), Fuse::None).unwrap();
        assert_eq!(resp.plan.chosen, PlanRoute::Registered, "{q}");
        assert_eq!(resp.matches.total_pairs(), 1, "{q}");
    }
    h.agree();
}

/// The parser's nesting cap holds a pattern's printed text, which the
/// durable facade logs and re-parses: 64 nested `not`s print at the cap
/// (each `not` prints as `not (…)`), register on both facades and read
/// `registered` after a restart; 65 are refused by `parse`, so neither
/// facade sees them.
#[test]
fn a_condition_printed_at_the_nesting_cap_registers_and_survives_a_restart() {
    let text = |n: usize| format!("node x* where {}experience >= 2;", "not ".repeat(n));
    assert!(parser::parse(&text(65)).is_err());
    let q = parser::parse(&text(64)).unwrap();
    let mut h = Harness::new(names_graph(), 1);
    h.register("nots", &q);
    assert_eq!(h.model.registered.len(), 1, "both facades registered it");
    let h = h.restart();
    let resp = h.query(&q, Route::Auto, Some(2), Fuse::None).unwrap();
    assert_eq!(resp.plan.chosen, PlanRoute::Registered);
    assert_eq!(resp.matches.total_pairs(), 1);
    h.agree();
}

/// The compressed route answers as the direct one on a graph whose
/// labels hold the old signature separators.
#[test]
fn the_compressed_route_keeps_nodes_whose_content_only_printed_alike() {
    let mut h = Harness::new(names_graph(), 1);
    h.compress();
    let q = parser::parse(r#"node x* where label = "A";"#).unwrap();
    for prefer in [Route::Direct, Route::Compressed] {
        let resp = h.query(&q, prefer, Some(2), Fuse::None).unwrap();
        assert_eq!(resp.matches.total_pairs(), 1, "{prefer:?}");
    }
    let [(c, hd), _] = h.reads();
    assert_eq!(
        c.compression_stats(hd).unwrap().unwrap().compressed_nodes,
        4
    );
    h.agree();
}

/// A cold ranked read expands a node's `G_r` row once, at the deepest
/// bound of its roles. `v` plays `a1 →(≤1) b` and `a2 →(≤3) c`, and `y`
/// — a `b` match two hops out, inside that ball — must not become an
/// arc of `v` (it would move `f(v)` from 3/2 to 5/3): both facades rank
/// as the reference does.
#[test]
fn a_node_in_two_roles_ranks_by_each_roles_own_bound() {
    let mut g = DiGraph::new();
    let v = g.add_node("A", []);
    let [x, y] = ["B", "B"].map(|l| g.add_node(l, []));
    let z = g.add_node("C", []);
    let p = g.add_node("D", []);
    for (s, t) in [(v, x), (x, y), (v, p), (p, z)] {
        g.add_edge(s, t);
    }
    let q = PatternBuilder::new()
        .node_output("a1", Predicate::label("A"))
        .node("a2", Predicate::label("A"))
        .node("b", Predicate::label("B"))
        .node("c", Predicate::label("C"))
        .edge("a1", "b", Bound::ONE)
        .edge("a2", "c", Bound::hops(3))
        .build()
        .unwrap();
    let h = Harness::new(g, 1);
    for prefer in [Route::Direct, Route::Auto] {
        let resp = h.ranked(&q, prefer, 2);
        let experts: Vec<_> = resp.experts.iter().map(|x| (x.node, x.rank)).collect();
        assert_eq!(experts, [(v, 1.5)]);
    }
    h.agree();
}

// ---------------------------------------------------------------------
// every boundary of one durable script
// ---------------------------------------------------------------------

/// The second pattern the durable script registers: the senior developers.
const SENIOR_DEVELOPERS: &str = "node sd where label = \"SD\" and experience >= 2;";

/// Edge batches around a registration of the paper's Fig. 1 team query
/// (`q1`), a snapshot, a second registration (`q2`), a compaction and the
/// unregistration of `q1`. Every third edge deletes the one inserted two
/// before it, so that most batches move the graph.
fn durable_script() -> Vec<Op> {
    let pair = |i: u8| (i.wrapping_mul(37) ^ 11, i.wrapping_mul(91) ^ 29);
    let edge = |i: u8| match i % 3 {
        0 => (false, pair(i - 2)),
        _ => (true, pair(i)),
    };
    let mut edges = (1u8..).map(edge).map(|(insert, (a, b))| (insert, a, b));
    let mut updates = |count: usize| -> Vec<Op> {
        let batch = |_| Op::Update(edges.by_ref().take(2).collect());
        (0..count).map(batch).collect()
    };
    let register = |name, pattern| vec![Op::Register { name, pattern }];
    [
        updates(4),
        register(1, 0),
        updates(3),
        vec![Op::Snapshot],
        updates(3),
        register(2, 1),
        vec![Op::Compact],
        updates(4),
        vec![Op::Unregister { name: 1 }],
        updates(2),
    ]
    .concat()
}

/// The durable script under `FsyncPolicy::Always`, crashed at every I/O
/// boundary it crosses and at every write again with 3 torn bytes. A
/// census run, armed with an empty plan, counts the boundaries; each
/// crash run stops at the write the crash fires in, and the restart
/// judges it as in the op-script property.
#[test]
fn every_boundary_of_one_script_recovers() {
    let fig1 = collaboration_fig1().graph;
    let nodes = fig1.node_count() as u32;
    let patterns = [fig1_pattern(), parser::parse(SENIOR_DEVELOPERS).unwrap()];
    let script = durable_script();
    // the script with `plan` armed from its first op: the boundaries it
    // crossed, or `None` when a crash fired and recovered
    let run = |plan: FaultPlan| {
        let mut h = Harness::with_fsync(fig1.clone(), 1, FsyncPolicy::Always);
        h.rt.fault_injector().arm(plan);
        for op in &script {
            match op {
                Op::Update(batch) => {
                    h.update(&edge_updates(batch, nodes));
                }
                Op::Register { name, pattern } => {
                    h.register(&format!("q{name}"), &patterns[*pattern as usize])
                }
                Op::Unregister { name } => h.unregister(&format!("q{name}")),
                Op::Snapshot => h.snapshot(),
                Op::Compact => h.compact(),
                other => unreachable!("{other:?}"),
            }
            if h.crashed.is_some() {
                h.restart().agree();
                return None;
            }
        }
        h.agree();
        Some(h.rt.fault_injector().op_log())
    };

    let census = run(FaultPlan::new()).expect("an empty plan fires nothing");
    let count = |class| census.iter().filter(|&&op| op == class).count();
    let (writes, fsyncs, renames) = (count(IoOp::Write), count(IoOp::Fsync), count(IoOp::Rename));
    eprintln!(
        "durable script: {} boundaries ({writes} writes, {fsyncs} fsyncs, {renames} renames)",
        census.len()
    );
    assert!(census.len() >= 50, "only {} boundaries", census.len());

    let mut plans: Vec<FaultPlan> = (0..census.len() as u64)
        .map(|k| FaultPlan::new().crash_at(k))
        .collect();
    let torn = census
        .iter()
        .enumerate()
        .filter(|(_, &op)| op == IoOp::Write);
    plans.extend(torn.map(|(k, _)| FaultPlan::new().crash_at_partial(k as u64, 3)));
    let points = plans.len();
    for plan in plans {
        let at = plan.faults[0];
        assert!(run(plan).is_none(), "{at:?} never fired");
    }
    let crashes = CRASHES.with(RefCell::take);
    eprintln!("{points} crash points: {crashes:?}");
    assert_eq!(crashes.fired.iter().sum::<usize>(), points);
    assert_eq!(crashes.before + crashes.after + crashes.neutral, points);
    assert!(crashes.before > 0 && crashes.after > 0, "{crashes:?}");
}
