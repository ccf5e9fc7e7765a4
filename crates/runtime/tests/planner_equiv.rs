//! The parity script: one read path and one write path, two facades, no
//! daylight between them.
//!
//! A seeded op script drives the in-process engine and the durable
//! runtime through the *same* history — probe, update batch, probe,
//! `register`, probe, `compress`, probe, `unregister`, probe, drop the
//! compression, probe — where a probe is every `Route` preference ×
//! `top_k` ∈ {None, 3} × {no deadline, a zero-deadline fuse} over two
//! patterns. After every single query the two backends must agree on
//! `matches`, `experts`, the whole plan decision (`chosen`,
//! `planned`, `overridden`, `candidates`) and `graph_version`, or on the
//! same 408 with the same partial stats. Both run `ReadPath` over a
//! `Snapshot` the same `MaintainedGraph` published, so any disagreement
//! is a facade doing something of its own around them.
//!
//! The write side is held to the same standard: after every update batch
//! the two `UpdateReport`s are equal, the two update hooks have seen the
//! same `(graph, report)` sequence, and after every write of any kind
//! `graph_infos`, `registered_queries`, every `registered_result` and
//! `compression_stats` agree. No step is there to paper over a
//! difference — a same-version republish (register, compress, an
//! all-no-op batch) holds the same derived state on both sides.
//!
//! The older contract rides along: routing is an *optimization*, never a
//! semantic choice. Within a phase every preference returns the relation
//! the queue oracle computes over a model graph — cold (first read,
//! planner leans live) and warm (profile amortized, planner leans
//! snapshot; the graph is padded so the snapshot routes can win).
//!
//! Both facades are read through the same `&Catalog` — there is no
//! durable read method to call instead — so what this suite pins is that
//! the durable *writes* leave the one catalog in the state the in-memory
//! ones do. Handles are part of that state: a graph's id is stable across
//! updates, a handle from the other facade is `ForeignHandle`, and after a
//! remove → re-add the old handle is `StaleHandle` on every read while the
//! name is reusable under a fresh id (on the durable side also across a
//! reopen, with nothing of the former life replayed).
//!
//! The ranked-answer slot of the query cache rides the same script
//! (`ranked_answers_are_cached_per_version_and_never_across`): what it
//! serves equals a fresh `core::top_k`, single reads compute it as rarely
//! as the prefix rule allows, batch slots fill it without being served
//! from it, and it never outlives its graph version or its
//! graph — not even when an update leaves `M(Q,G)` unchanged.

use expfinder_compress::CompressionMethod;
use expfinder_core::{evaluate, top_k, EvalOptions, EvalRequest, MatchRelation, Semantics};
use expfinder_engine::{
    Catalog, EngineConfig, ExecConfig, ExpFinder, ExpFinderError, GraphHandle, PlanRoute,
    QueryResponse, QuerySpec, RankTotals, Route, UpdateHook, UpdateReport,
};
use expfinder_graph::{DiGraph, EdgeUpdate, GraphView, NodeId};
use expfinder_pattern::{Bound, Pattern, PatternBuilder, Predicate};
use expfinder_runtime::{DurableExpFinder, FsyncPolicy, RuntimeConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NODES: u32 = 16;

/// Inert padding target: large enough that an amortized (or
/// thread-divided) CSR build beats the live adjacency, so the snapshot
/// routes are reachable.
const PAD_SIZE: usize = 4096;

/// Unique temp dir per proptest case (cases run concurrently).
fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "expfinder_planprop_{tag}_{}_{n}",
        std::process::id()
    ))
}

fn engine_config(exec: ExecConfig) -> EngineConfig {
    EngineConfig {
        exec,
        ..EngineConfig::default()
    }
}

fn runtime_config(exec: ExecConfig) -> RuntimeConfig {
    RuntimeConfig {
        fsync: FsyncPolicy::Never,
        engine: engine_config(exec),
        ..RuntimeConfig::default()
    }
}

/// A graph with `NODES` nodes, labels cycling over three classes, and
/// the given edges (modulo the node count), padded with isolated `pad`
/// nodes up to `pad_to` elements.
fn graph_with_edges(edges: &[(u32, u32)], pad_to: usize) -> DiGraph {
    let mut g = DiGraph::new();
    for i in 0..NODES {
        g.add_node(["A", "B", "C"][i as usize % 3], []);
    }
    for &(a, b) in edges {
        g.add_edge(NodeId(a % NODES), NodeId(b % NODES));
    }
    while g.size() < pad_to {
        g.add_node("pad", []);
    }
    g
}

fn update_strategy() -> impl Strategy<Value = EdgeUpdate> {
    (proptest::bool::ANY, 0..NODES, 0..NODES).prop_map(|(ins, a, b)| {
        if ins {
            EdgeUpdate::Insert(NodeId(a), NodeId(b))
        } else {
            EdgeUpdate::Delete(NodeId(a), NodeId(b))
        }
    })
}

/// A small family over the three label classes: a single edge, a star
/// and a chain, with proptest-chosen hop bounds (bound 1 everywhere
/// makes the pattern a plain-simulation one, exercising that algorithm
/// family too).
fn pattern_for(kind: u8, b1: u32, b2: u32) -> Pattern {
    let base = PatternBuilder::new().node_output("x", Predicate::label("A"));
    match kind {
        0 => base
            .node("y", Predicate::label("B"))
            .edge("x", "y", Bound::hops(b1)),
        1 => base
            .node("y", Predicate::label("B"))
            .node("z", Predicate::label("C"))
            .edge("x", "y", Bound::hops(b1))
            .edge("x", "z", Bound::hops(b2)),
        _ => base
            .node("y", Predicate::label("B"))
            .node("z", Predicate::label("C"))
            .edge("x", "y", Bound::hops(b1))
            .edge("y", "z", Bound::hops(b2)),
    }
    .build()
    .unwrap()
}

/// `M(Q,G)` by the queue oracle, straight off the model graph.
fn oracle(g: &DiGraph, q: &Pattern) -> MatchRelation {
    let req = EvalRequest {
        options: EvalOptions::queue(),
        ..EvalRequest::new(Semantics::Bounded)
    };
    evaluate(g, q, req).unwrap().0
}

/// Every `(graph, report)` one facade's update hook has seen, in order.
type Frames = Arc<Mutex<Vec<(String, UpdateReport)>>>;

fn recording_hook() -> (Frames, UpdateHook) {
    let frames = Frames::default();
    let sink = Arc::clone(&frames);
    let hook: UpdateHook = Arc::new(move |graph: &str, report: &UpdateReport| {
        sink.lock()
            .unwrap()
            .push((graph.to_owned(), report.clone()));
    });
    (frames, hook)
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
    stale("registered_result", c.registered_result(h, "standing"));
    stale("query", c.query(h).pattern(q.clone()).top_k(3).run());
    stale(
        "query_deadline",
        c.query_deadline(h, q, None, Route::Auto, None),
    );
    stale("estimate_cost", c.estimate_cost(h, q));
    for slot in c.query_batch(h, vec![QuerySpec::pattern(q.clone()); 2], None) {
        stale("query_batch", slot);
    }
}

/// Both backends, built from one graph with one exec config, plus the
/// model graph the oracle runs on. Index 0 is the engine, 1 the runtime.
struct Pair {
    engine: ExpFinder,
    rt: DurableExpFinder,
    handles: [GraphHandle; 2],
    model: DiGraph,
    /// What the engine's and the runtime's update hook saw.
    frames: [Frames; 2],
    exec: ExecConfig,
    dir: PathBuf,
}

impl Pair {
    fn new(g: DiGraph, exec: ExecConfig, tag: &str) -> Pair {
        let engine = ExpFinder::new(engine_config(exec));
        let dir = tmpdir(tag);
        let rt = DurableExpFinder::open(&dir, runtime_config(exec)).unwrap();
        let (engine_frames, hook) = recording_hook();
        engine.set_update_hook(Some(hook));
        let (rt_frames, hook) = recording_hook();
        rt.set_update_hook(Some(hook));
        let handles = [
            engine.add_graph("g", g.clone()).unwrap(),
            rt.add_graph("g", g.clone())
                .and_then(|_| rt.handle("g"))
                .unwrap(),
        ];
        Pair {
            engine,
            rt,
            handles,
            model: g,
            frames: [engine_frames, rt_frames],
            exec,
            dir,
        }
    }

    /// The one read surface of each facade with its handle of `g`.
    fn reads(&self) -> [(&Catalog, &GraphHandle); 2] {
        let [a, b] = &self.handles;
        [(&self.engine, a), (&self.rt, b)]
    }

    /// One query on both backends; they must agree on everything a
    /// client can observe. Returns the (engine's) answer, `None` for an
    /// agreed deadline abort.
    fn query(
        &self,
        q: &Pattern,
        prefer: Route,
        top_k: Option<usize>,
        deadline: Option<Duration>,
    ) -> Option<QueryResponse> {
        let [a, b] = self
            .reads()
            .map(|(c, h)| c.query_deadline(h, q, top_k, prefer, deadline));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(*a.matches, *b.matches);
                assert_eq!(a.experts, b.experts);
                assert_eq!(a.plan.chosen, b.plan.chosen);
                assert_eq!(a.plan.planned, b.plan.planned);
                assert_eq!(a.plan.overridden, b.plan.overridden);
                assert_eq!(a.plan.candidates, b.plan.candidates);
                assert_eq!(a.graph_version, b.graph_version);
                assert_eq!(a.graph_version, self.model.version());
                Some(a)
            }
            (Err(a), Err(b)) => {
                assert!(matches!(a, ExpFinderError::DeadlineExceeded(_)), "{a}");
                assert_eq!(a.partial_stats(), b.partial_stats());
                None
            }
            (a, b) => {
                let (a, b) = (a.map(|r| r.plan.chosen), b.map(|r| r.plan.chosen));
                panic!("backends disagree: engine {a:?}, runtime {b:?}")
            }
        }
    }

    /// Every preference × `top_k` × deadline fuse over `patterns`; every
    /// answered query must return the oracle's relation.
    fn probe(&self, patterns: &[&Pattern], phase: &str) {
        for q in patterns {
            let want = oracle(&self.model, q);
            for prefer in [Route::Auto, Route::Direct, Route::Compressed] {
                for top_k in [None, Some(3)] {
                    let fused = self.query(q, prefer, top_k, Some(Duration::ZERO));
                    assert!(fused.is_none(), "{phase}: a spent budget answers 408");
                    let resp = self.query(q, prefer, top_k, None);
                    let resp = resp.expect("no deadline, no abort");
                    assert_eq!(*resp.matches, want, "{phase}: {prefer:?}");
                    assert!(resp.experts.len() <= top_k.unwrap_or(0));
                }
            }
        }
    }

    /// One update batch through both write paths and the model: the same
    /// report from both, and the same frame in both hooks.
    fn update(&mut self, batch: &[EdgeUpdate]) {
        let applied = batch.iter().filter(|&&up| self.model.apply(up)).count();
        let a = self
            .engine
            .apply_updates_traced(&self.handles[0], batch)
            .unwrap();
        let b = self.rt.apply_updates_traced("g", batch).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            (a.applied, a.attempted, a.graph_version),
            (applied, batch.len(), self.model.version())
        );
        let [engine_frames, rt_frames] = &self.frames;
        let engine_frames = engine_frames.lock().unwrap();
        assert_eq!(*engine_frames, *rt_frames.lock().unwrap());
        assert_eq!(engine_frames.last(), Some(&("g".to_owned(), a)));
        drop(engine_frames);
        self.state_agrees();
    }

    /// Everything the facades report about the graph besides answers,
    /// handle semantics included.
    fn state_agrees(&self) {
        let [(a, ha), (b, hb)] = self.reads();
        assert_eq!(a.graph_names(), ["g"]);
        assert_eq!(b.graph_names(), ["g"]);
        assert_eq!(a.graph_infos(), b.graph_infos());
        let names = a.registered_queries(ha).unwrap();
        assert_eq!(names, b.registered_queries(hb).unwrap());
        for name in &names {
            assert_eq!(
                a.registered_result(ha, name).unwrap(),
                b.registered_result(hb, name).unwrap()
            );
        }
        assert_eq!(
            a.compression_stats(ha).unwrap(),
            b.compression_stats(hb).unwrap()
        );
        for ((c, h), (_, theirs)) in [((a, ha), (b, hb)), ((b, hb), (a, ha))] {
            // no write moves a graph to another id: the handle resolved
            // when the graph was added is the one its name resolves to
            assert!(h.is_live());
            let now = c.handle("g").unwrap();
            assert_eq!((now.id(), now.name()), (h.id(), "g"));
            assert_eq!(c.latest(h).unwrap().version(), self.model.version());
            assert!(matches!(
                c.latest(theirs),
                Err(ExpFinderError::ForeignHandle(_))
            ));
        }
    }

    fn register(&self, name: &str, q: &Pattern) {
        self.engine
            .register_query(&self.handles[0], name, q.clone())
            .unwrap();
        self.rt.register_query("g", name, q.clone()).unwrap();
        self.state_agrees();
    }

    /// Remove `g` on both sides and add `reborn` under the same name: the
    /// old handles are stale on every read, the name lists nothing in
    /// between, and the new graph has a fresh id.
    fn remove_and_readd(&mut self, reborn: DiGraph, q: &Pattern) {
        let old = self.handles.clone();
        self.engine.remove_graph(&old[0]).unwrap();
        self.rt.remove_graph("g").unwrap();
        for (c, h) in self.reads() {
            assert!(c.graph_names().is_empty() && c.graph_infos().is_empty());
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
        self.model = reborn;
        for ((c, new), old) in self.reads().into_iter().zip(&old) {
            assert_ne!(new.id(), old.id(), "a fresh id");
            assert_ne!(new, old);
            // the old handle stays dead though its name is live again
            assert_stale(c, old, q);
        }
        self.state_agrees();
    }

    /// Shut the runtime down and open its directory again: the re-added
    /// graph comes back under its name — the graph, not its former life's
    /// log — and a handle from before the restart does not address it.
    fn reopen_runtime(self) -> Pair {
        let Pair { rt, exec, dir, .. } = self;
        drop(rt);
        let rt = DurableExpFinder::open(&dir, runtime_config(exec)).unwrap();
        assert_eq!(rt.graph_names(), ["g"]);
        let h = rt.handle("g").unwrap();
        assert!(h.is_live());
        let before = &self.handles[1];
        assert!(matches!(
            rt.latest(before),
            Err(ExpFinderError::ForeignHandle(_))
        ));
        let recovered = rt.read_graph(&h, DiGraph::clone).unwrap();
        assert!(recovered.edges().eq(self.model.edges()));
        assert_eq!(recovered.node_count(), self.model.node_count());
        assert!(rt.registered_queries(&h).unwrap().is_empty());
        Pair {
            handles: [self.handles[0].clone(), h],
            rt,
            dir,
            ..self
        }
    }

    /// A ranked `Auto` query on both backends, checked against a fresh
    /// `core::top_k` over the model: node order and rank bits.
    fn ranked(&self, q: &Pattern, prefer: Route, k: usize) -> QueryResponse {
        let resp = self.query(q, prefer, Some(k), None).expect("no deadline");
        let want = top_k(&self.model, q, &oracle(&self.model, q), k).unwrap();
        let bits = |l: &[expfinder_core::RankedMatch]| -> Vec<_> {
            l.iter().map(|x| (x.node, x.rank.to_bits())).collect()
        };
        assert_eq!(
            bits(&resp.experts),
            bits(&want),
            "top {k} at v{}",
            resp.graph_version
        );
        resp
    }

    /// Shut the runtime down, then delete its data dir.
    fn finish(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `engine.rank` — the same on both backends, or the two read paths
    /// did different work for the same script.
    fn rank_totals(&self) -> RankTotals {
        let [(a, _), (b, _)] = self.reads();
        let totals = a.read_path().rank_totals();
        assert_eq!(totals, b.read_path().rank_totals());
        totals
    }
}

/// The ranked-answer slot, on both facades. Five `A` candidates reach a
/// `B` within two hops: 0, 9, 12 directly (rank 1), 3 and 6 through a `C`
/// (rank 2) — the `a1 → x → b1` shape whose direct edge `a1 → b1` can be
/// inserted without changing `M(Q,G)`.
#[test]
fn ranked_answers_are_cached_per_version_and_never_across() {
    let exec = ExecConfig::sequential();
    let edges = [(0, 1), (3, 5), (5, 4), (6, 8), (8, 7), (9, 10), (12, 13)];
    let g = graph_with_edges(&edges, 0);
    let q = pattern_for(0, 2, 1);
    let mut pair = Pair::new(g.clone(), exec, "ranked");
    let totals = |computed, reused| RankTotals { computed, reused };
    let rank_of = |resp: &QueryResponse, v: u32| {
        let hit = resp.experts.iter().find(|x| x.node == NodeId(v));
        hit.expect("a candidate").rank
    };

    // one version: 3 computes, 10 must recompute (3 of 5 is no prefix of
    // 10) and comes back complete, after which every k is a lookup
    assert_eq!(pair.ranked(&q, Route::Auto, 3).experts.len(), 3);
    assert_eq!(pair.rank_totals(), totals(1, 0));
    let all = pair.ranked(&q, Route::Auto, 10);
    assert_eq!((all.experts.len(), all.plan.chosen), (5, PlanRoute::Cache));
    assert_eq!(pair.rank_totals(), totals(2, 0));
    assert_eq!(pair.ranked(&q, Route::Auto, 2).experts.len(), 2);
    assert_eq!(pair.ranked(&q, Route::Auto, 40).experts.len(), 5);
    assert_eq!(pair.rank_totals(), totals(2, 2));
    let unranked = pair.query(&q, Route::Auto, None, None).unwrap();
    assert!(unranked.experts.is_empty());
    assert_eq!(pair.rank_totals(), totals(2, 2), "no top_k, no ranking");

    // a Direct request bypasses the cache, recomputes, and agrees
    let direct = pair.ranked(&q, Route::Direct, 10);
    assert_eq!(direct.plan.chosen, PlanRoute::Snapshot);
    assert_eq!(*direct.matches, *all.matches);
    assert_eq!(pair.rank_totals(), totals(3, 2));

    // batch slots are not served from the list (they rank afresh, and
    // agree); a single read right after them still is
    let specs = || vec![QuerySpec::pattern(q.clone()).top_k(10); 2];
    let [a, b] = pair.reads().map(|(c, h)| c.query_batch(h, specs(), None));
    for (a, b) in a.into_iter().zip(b) {
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(
            (a.plan.chosen, b.plan.chosen),
            (PlanRoute::Cache, PlanRoute::Cache)
        );
        assert_eq!(a.experts, all.experts);
        assert_eq!(b.experts, all.experts);
    }
    assert_eq!(pair.rank_totals(), totals(5, 2));
    pair.ranked(&q, Route::Auto, 10);
    assert_eq!(pair.rank_totals(), totals(5, 3));

    // 3 → 4 shortens the witnessed path 3 → 5 → 4: M is untouched, the
    // G_r weight goes 2 → 1, and so does f(3). Reusing the ranked list
    // because "ΔM is empty" would be wrong; the version key prevents it.
    assert_eq!(rank_of(&all, 3), 2.0);
    pair.update(&[EdgeUpdate::Insert(NodeId(3), NodeId(4))]);
    let after = pair.ranked(&q, Route::Auto, 10);
    assert_eq!(*after.matches, *all.matches, "the update changed no match");
    assert_eq!(rank_of(&after, 3), 1.0, "but it changed a rank");
    assert_eq!(pair.rank_totals(), totals(6, 3));

    // the same for a registered query, whose maintained relation is the
    // very same `Arc` across the update
    pair.register("standing", &q);
    pair.update(&[EdgeUpdate::Insert(NodeId(15), NodeId(14))]);
    let registered = pair.ranked(&q, Route::Auto, 10);
    assert_eq!(registered.plan.chosen, PlanRoute::Registered);
    let cached = pair.ranked(&q, Route::Auto, 10);
    assert_eq!(cached.plan.chosen, PlanRoute::Cache);
    assert_eq!(pair.rank_totals(), totals(7, 4));
    assert_eq!(rank_of(&registered, 6), 2.0);
    pair.update(&[EdgeUpdate::Insert(NodeId(6), NodeId(7))]);
    let after = pair.ranked(&q, Route::Auto, 10);
    assert_eq!(after.plan.chosen, PlanRoute::Registered);
    assert_eq!(*after.matches, *registered.matches);
    assert_eq!(rank_of(&after, 6), 1.0);
    assert_eq!(pair.rank_totals(), totals(8, 4));

    // a graph removed and re-added under its name — here even at a version
    // number the cache has a ranked list for — never serves the old list
    let mut reborn_edges = edges[1..].to_vec();
    reborn_edges.push((15, 14));
    let reborn = graph_with_edges(&reborn_edges, 0);
    assert_eq!(
        reborn.version(),
        g.version(),
        "same version number, different graph"
    );
    pair.remove_and_readd(reborn, &q);
    assert_eq!(pair.ranked(&q, Route::Auto, 10).experts.len(), 4);
    assert_eq!(pair.rank_totals(), totals(9, 4));

    // nor does the former life — its log, its standing query — come back
    // with a restart
    let pair = pair.reopen_runtime();
    let [a, b] = pair
        .reads()
        .map(|(c, h)| c.query(h).pattern(q.clone()).top_k(10).run().unwrap());
    assert_eq!((a.experts.len(), &a.experts), (4, &b.experts));

    pair.finish();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn backends_agree_on_every_query_of_one_history(
        initial in proptest::collection::vec((0..NODES, 0..NODES), 4..40),
        updates in proptest::collection::vec(update_strategy(), 3..18),
        kind in 0u8..3,
        b1 in 1u32..4,
        b2 in 1u32..4,
        threads in 1usize..3,
    ) {
        let g = graph_with_edges(&initial, PAD_SIZE);
        let p = pattern_for(kind, b1, b2);
        let p2 = pattern_for((kind + 1) % 3, b2, b1);
        let patterns = [&p, &p2];
        // one thread: live → snapshot as reads amortize the build; two:
        // the SnapshotParallel candidate is in play from the first read
        let exec = ExecConfig { threads, batch_parallelism: 1 };

        let mut pair = Pair::new(g, exec, "parity");

        pair.probe(&patterns, "fresh");
        prop_assert_eq!(
            pair.engine.read_path().planner_totals(),
            pair.rt.read_path().planner_totals()
        );

        let (first, rest) = updates.split_at(updates.len() / 4);
        let (second, rest) = rest.split_at(rest.len() / 3);
        let (third, fourth) = rest.split_at(rest.len() / 2);
        pair.update(first);
        pair.probe(&patterns, "after updates");

        pair.update(second);
        pair.register("standing", &p);
        pair.probe(&patterns, "after register");

        pair.update(third);
        pair.engine.compress(&pair.handles[0], CompressionMethod::Bisimulation).unwrap();
        pair.rt.compress("g", CompressionMethod::Bisimulation).unwrap();
        pair.state_agrees();
        pair.probe(&patterns, "after compress");

        pair.engine.unregister_query(&pair.handles[0], "standing").unwrap();
        pair.rt.unregister_query("g", "standing").unwrap();
        pair.state_agrees();
        pair.probe(&patterns, "after unregister");

        pair.update(fourth);
        pair.engine.drop_compression(&pair.handles[0]).unwrap();
        pair.rt.drop_compression("g").unwrap();
        pair.state_agrees();
        pair.probe(&patterns, "after drop-compression");

        prop_assert_eq!(
            pair.engine.read_path().planner_totals(),
            pair.rt.read_path().planner_totals()
        );
        prop_assert_eq!(
            pair.engine.read_path().cache_stats(),
            pair.rt.read_path().cache_stats()
        );
        prop_assert_eq!(pair.engine.index_totals(), pair.rt.index_totals());

        // remove → re-add under the same name, with a standing query and a
        // log of four batches behind the old graph
        pair.register("standing", &p);
        let reborn = graph_with_edges(&initial[..initial.len() / 2], PAD_SIZE);
        pair.remove_and_readd(reborn, &p);
        pair.probe(&patterns, "after re-add");
        pair.update(first);
        pair.probe(&patterns, "re-added, after updates");

        // a restart recovers the new life only; plans may differ from here
        // on (the runtime's cost profile restarts cold), answers may not
        let pair = pair.reopen_runtime();
        for q in patterns {
            let want = oracle(&pair.model, q);
            for (c, h) in pair.reads() {
                prop_assert_eq!(&*c.query(h).pattern(q.clone()).run().unwrap().matches, &want);
            }
        }

        pair.finish();
    }
}

/// `engine.index.{entries,bytes}` counts the quotient's reach index on
/// both backends: after `compress` and one bounded query on the
/// compressed route the totals are equal, and non-zero.
#[test]
fn index_totals_count_the_quotient_index_on_both_backends() {
    let exec = ExecConfig::sequential();
    let g = graph_with_edges(&[(0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (1, 2)], 0);
    let q = pattern_for(1, 2, 2);

    let engine = ExpFinder::new(engine_config(exec));
    let h = engine.add_graph("g", g.clone()).unwrap();
    engine
        .compress(&h, CompressionMethod::Bisimulation)
        .unwrap();
    let a = engine
        .query_deadline(&h, &q, None, Route::Compressed, None)
        .unwrap();

    let dir = tmpdir("index_totals");
    let rt = DurableExpFinder::open(&dir, runtime_config(exec)).unwrap();
    rt.add_graph("g", g).unwrap();
    rt.compress("g", CompressionMethod::Bisimulation).unwrap();
    let b = rt
        .query_deadline(&rt.handle("g").unwrap(), &q, None, Route::Compressed, None)
        .unwrap();

    assert_eq!(a.plan.chosen, expfinder_engine::PlanRoute::Compressed);
    assert_eq!(b.plan.chosen, expfinder_engine::PlanRoute::Compressed);
    let (ta, tb) = (engine.index_totals(), rt.index_totals());
    assert!(ta.hits > 0 && ta.entries > 0 && ta.bytes > 0, "{ta:?}");
    assert_eq!(ta, tb, "one index_totals over the published snapshots");

    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}
