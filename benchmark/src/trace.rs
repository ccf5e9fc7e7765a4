//! The traced run: spans recorded **from outside the program**, around
//! the public calls a route handler makes, plus direct calls into the
//! lower crates where a layer is opaque from outside.
//!
//! Nothing in the product crates is instrumented (that is a later
//! change). Instead [`replay`] re-executes a lap in-process through the
//! same public items `server::routes` calls — `http::read_request`,
//! `wire::decode_*`, `Backend::*`, `wire::encode_*`, `Response::write_to`
//! — with a span around each, and [`decompose`] times the evaluator's
//! parts (`graph`, `core`, `incremental`, `compress`, `runtime::wal`)
//! on the same graph version and patterns. Spans stay in memory and are
//! written out once, at the end of the run.

use crate::stats::{mean, median};
use crate::workload::{object, Inputs, Op, OpKind, GRAPH_NAME, REGISTERED, TOP_K};
use expfinder_compress::maintain::MaintainedCompression;
use expfinder_compress::{compress_graph, CompressionMethod};
use expfinder_core::{
    bounded_simulation, bounded_simulation_indexed, parallel_bounded_simulation_indexed,
    rank_matches_top_k, EvalOptions, EvalScratch, ResultGraph,
};
use expfinder_engine::planner::PlanRoute;
use expfinder_engine::{ExpFinder, ExpFinderError, QuerySpec};
use expfinder_graph::{AttrValue, CsrGraph, DiGraph, GraphView, ReachIndex};
use expfinder_incremental::inc_bsim::IncrementalBoundedSim;
use expfinder_incremental::Maintainer;
use expfinder_runtime::wal::{FsyncPolicy, Wal};
use expfinder_runtime::{DurableExpFinder, RuntimeConfig};
use expfinder_server::http::{self as shttp, Response};
use expfinder_server::{wire, Backend};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span. Times are microseconds since the recorder began.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op in the replayed list; spans of one op share it.
    pub op_id: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Set on a *replica*: a part of span `replica_of` re-executed right
    /// after the op because it cannot be reached inside the real call
    /// (the DSL parse inside `wire::decode_query`). It counts as that
    /// span's child for self time and lies outside every op span.
    pub replica_of: Option<u32>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span recorder. Disabled, every call is a branch and
/// nothing else — that replay is the baseline `trace.overhead_pct` is
/// taken against.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let at = self.spans.len() as u32;
        let now = self.now_us();
        self.spans.push(Span {
            name,
            op_id,
            parent: self.stack.last().copied(),
            replica_of: None,
            start_us: now,
            end_us: now,
        });
        self.stack.push(at);
        Some(at)
    }

    /// Close the span `enter` returned, optionally renaming it (the
    /// route a query took is known only once it has answered).
    pub fn exit(&mut self, span: Option<u32>, rename: Option<&'static str>) {
        let Some(at) = span else { return };
        let now = self.now_us();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(at), "spans close innermost first");
        let s = &mut self.spans[at as usize];
        s.end_us = now;
        if let Some(name) = rename {
            s.name = name;
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name, op_id);
        let out = f();
        self.exit(span, None);
        out
    }

    /// Run `f` as a replica of part of span `of` (see [`Span::replica_of`]).
    pub fn replica<R>(
        &mut self,
        name: &'static str,
        op_id: u32,
        of: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        let of = of?;
        debug_assert!(self.stack.is_empty(), "replicas run between ops");
        let span = self.enter(name, op_id);
        let out = f();
        self.exit(span, None);
        if let Some(at) = span {
            self.spans[at as usize].replica_of = Some(of);
        }
        Some(out)
    }

    /// Self time of every span: its duration minus the part its child
    /// spans (and replicas of its parts) cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent.or(s.replica_of) {
                own[p as usize] -= s.duration_us();
            }
        }
        own.iter().map(|t| t.max(0.0)).collect()
    }

    /// Self-time samples grouped by span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_us()) {
            by_name.entry(s.name).or_default().push(own);
        }
        by_name
    }

    /// Σ duration of the direct children of op spans ÷ Σ op span
    /// duration: how much of a replayed request the spans account for.
    pub fn coverage(&self) -> f64 {
        let mut ops = 0.0;
        let mut children = 0.0;
        for s in &self.spans {
            match s.parent {
                None if s.replica_of.is_none() => ops += s.duration_us(),
                Some(p) if self.spans[p as usize].parent.is_none() => children += s.duration_us(),
                _ => {}
            }
        }
        if ops == 0.0 {
            0.0
        } else {
            children / ops
        }
    }

    /// Σ duration of op spans, seconds.
    pub fn op_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.replica_of.is_none())
            .map(Span::duration_us)
            .sum::<f64>()
            / 1e6
    }
}

fn engine_err(e: ExpFinderError) -> String {
    e.to_string()
}

/// What one handler replica yields: the bytes for the socket, its
/// decode span, and the DSL sources that span parsed.
type Handled = (Vec<u8>, Option<u32>, Vec<String>);

/// An in-process stand-in for one `serve`: the backend a route handler
/// would hold, driven through the handler's own public calls.
pub struct Replica {
    backend: Backend,
    durable: bool,
}

const MAX_BODY: usize = 16 * 1024 * 1024;
const READ_DEADLINE: Duration = Duration::from_secs(30);

impl Replica {
    /// A fresh backend shaped like `serve` boots it (in-memory engine,
    /// or the durable runtime on `data_dir` with one shard and fsync
    /// always), with the graph added, the 8 queries registered and an
    /// update hook that encodes the subscription frame the way the hub
    /// does for an unfiltered subscriber.
    pub fn boot(inputs: &Inputs, data_dir: Option<&Path>) -> Result<Replica, String> {
        let backend = match data_dir {
            None => Backend::Local(Arc::new(ExpFinder::default())),
            Some(dir) => {
                let config = RuntimeConfig {
                    shards: 1,
                    ..RuntimeConfig::default()
                };
                Backend::Durable(Arc::new(
                    DurableExpFinder::open(dir, config).map_err(engine_err)?,
                ))
            }
        };
        backend
            .add_graph(GRAPH_NAME, inputs.graph.clone())
            .map_err(engine_err)?;
        for (i, p) in inputs.patterns.iter().take(REGISTERED).enumerate() {
            backend
                .register_query(
                    GRAPH_NAME,
                    &crate::workload::registered_name(i),
                    p.pattern.clone(),
                )
                .map_err(engine_err)?;
        }
        backend.install_update_hook(Some(Arc::new(|_graph, report| {
            std::hint::black_box(wire::subscription_update_frame(report, None).to_string_compact());
        })));
        Ok(Replica {
            backend,
            durable: data_dir.is_some(),
        })
    }

    fn layer(&self, engine: &'static str, runtime: &'static str) -> &'static str {
        if self.durable {
            runtime
        } else {
            engine
        }
    }

    /// Handle one op the way its route handler does; returns the bytes
    /// that would go on the socket.
    pub fn handle(&self, rec: &mut Recorder, op_id: u32, op: &Op) -> Result<Vec<u8>, String> {
        let name = match op.kind {
            OpKind::Query => "op.query",
            OpKind::Batch => "op.batch",
            OpKind::Update => "op.update",
        };
        let op_span = rec.enter(name, op_id);
        let out = match op.kind {
            OpKind::Query => self.query(rec, op_id, op),
            OpKind::Batch => self.batch(rec, op_id, op),
            OpKind::Update => self.update(rec, op_id, op),
        };
        rec.exit(op_span, None);
        let (bytes, decode_span, dsls) = out?;
        // the DSL parse is buried inside wire::decode_*: time it again on
        // the same sources, as a replica charged to the decode span
        rec.replica("pattern.parse", op_id, decode_span, || {
            for dsl in &dsls {
                std::hint::black_box(expfinder_pattern::parser::parse(dsl).is_ok());
            }
        });
        Ok(bytes)
    }

    fn read_request(
        &self,
        rec: &mut Recorder,
        op_id: u32,
        op: &Op,
    ) -> Result<expfinder_graph::json::Value, String> {
        let req = rec
            .time("server.http.read_request", op_id, || {
                shttp::read_request(
                    &mut BufReader::new(&op.request[..]),
                    MAX_BODY,
                    READ_DEADLINE,
                )
            })
            .map_err(|e| e.to_string())?;
        rec.time("graph.json.parse", op_id, || wire::parse_body(&req.body))
            .map_err(|e| e.message)
    }

    fn respond(
        &self,
        rec: &mut Recorder,
        op_id: u32,
        status: u16,
        doc: &expfinder_graph::json::Value,
    ) -> Result<Vec<u8>, String> {
        let response = rec.time("graph.json.encode", op_id, || Response::json(status, doc));
        let mut out = Vec::with_capacity(response.body.len() + 128);
        rec.time("server.http.write_response", op_id, || {
            response.write_to(&mut out, true)
        })
        .map_err(|e| e.to_string())?;
        Ok(out)
    }

    fn query(&self, rec: &mut Recorder, op_id: u32, op: &Op) -> Result<Handled, String> {
        let body = self.read_request(rec, op_id, op)?;
        let decode_span = rec.enter("server.wire.decode_query", op_id);
        let q = wire::decode_query(&body);
        rec.exit(decode_span, None);
        let q = q.map_err(|e| e.message)?;
        rec.time("engine.estimate_cost", op_id, || {
            self.backend.estimate_cost(GRAPH_NAME, &q.pattern)
        })
        .map_err(engine_err)?;
        let eval_span = rec.enter("query", op_id);
        let resp = self
            .backend
            .query_deadline(GRAPH_NAME, &q.pattern, q.top_k, q.route, None);
        let route_name = match resp.as_ref().map(|r| r.plan.chosen) {
            Ok(PlanRoute::Cache) => self.layer("engine.query_hit", "runtime.query_hit"),
            Ok(PlanRoute::Registered) => {
                self.layer("engine.registered_hit", "runtime.registered_hit")
            }
            _ => self.layer("engine.query_miss", "runtime.query_miss"),
        };
        rec.exit(eval_span, Some(route_name));
        let resp = resp.map_err(engine_err)?;
        let encoded = rec
            .time("server.wire.encode_response", op_id, || {
                self.backend.read_graph(GRAPH_NAME, |g| {
                    wire::encode_query_response(&resp, &q.pattern, q.include_matches, |n| {
                        if (n.0 as usize) < g.node_count() {
                            g.attr_of(n, "name").and_then(|a| match a {
                                AttrValue::Str(s) => Some(s.clone()),
                                _ => None,
                            })
                        } else {
                            None
                        }
                    })
                })
            })
            .map_err(engine_err)?;
        let bytes = self.respond(rec, op_id, 200, &encoded)?;
        Ok((bytes, decode_span, vec![q.dsl]))
    }

    fn batch(&self, rec: &mut Recorder, op_id: u32, op: &Op) -> Result<Handled, String> {
        let body = self.read_request(rec, op_id, op)?;
        let decode_span = rec.enter("server.wire.decode_batch", op_id);
        let decoded = wire::decode_batch(&body);
        rec.exit(decode_span, None);
        let decoded = decoded.map_err(|e| e.message)?;
        let queries: Vec<&wire::QueryRequest> = decoded
            .queries
            .iter()
            .map(|d| d.as_ref().map_err(|e| e.message.clone()))
            .collect::<Result<_, _>>()?;
        let specs: Vec<QuerySpec> = queries
            .iter()
            .map(|q| {
                let spec = QuerySpec::pattern(q.pattern.clone()).prefer(q.route);
                match q.top_k {
                    Some(k) => spec.top_k(k),
                    None => spec,
                }
            })
            .collect();
        rec.time("engine.estimate_cost", op_id, || {
            queries.iter().try_for_each(|q| {
                self.backend
                    .estimate_cost(GRAPH_NAME, &q.pattern)
                    .map(|_| ())
            })
        })
        .map_err(engine_err)?;
        let results = rec
            .time(self.layer("engine.batch", "runtime.batch"), op_id, || {
                self.backend.query_batch_deadline(GRAPH_NAME, specs, None)
            })
            .map_err(engine_err)?;
        let encoded = rec.time("server.wire.encode_response", op_id, || {
            let slots = results
                .iter()
                .zip(&queries)
                .map(|(r, q)| {
                    let resp = r.as_ref().map_err(|e| e.to_string())?;
                    let doc =
                        wire::encode_query_response(resp, &q.pattern, q.include_matches, |_| None);
                    Ok(object(vec![("ok", doc)]))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok::<_, String>(object(vec![(
                "results",
                expfinder_graph::json::Value::Array(slots),
            )]))
        })?;
        let bytes = self.respond(rec, op_id, 200, &encoded)?;
        let dsls = queries.iter().map(|q| q.dsl.clone()).collect();
        Ok((bytes, decode_span, dsls))
    }

    fn update(&self, rec: &mut Recorder, op_id: u32, op: &Op) -> Result<Handled, String> {
        let body = self.read_request(rec, op_id, op)?;
        let ups = rec
            .time("server.wire.decode_updates", op_id, || {
                wire::decode_updates(&body)
            })
            .map_err(|e| e.message)?;
        let report = rec
            .time(
                self.layer("engine.apply_updates", "runtime.apply_updates"),
                op_id,
                || self.backend.apply_updates_traced(GRAPH_NAME, &ups),
            )
            .map_err(engine_err)?;
        let encoded = rec.time("server.wire.encode_response", op_id, || {
            wire::encode_update_report(&report)
        });
        let bytes = self.respond(rec, op_id, 200, &encoded)?;
        Ok((bytes, None, Vec::new()))
    }
}

/// Boot a replica, run the warm-up untraced, then `ops` under `rec`.
/// With a disabled recorder only whole-op wall time is taken; the
/// returned seconds are Σ op time either way.
pub fn replay(
    inputs: &Inputs,
    ops: &[Op],
    data_dir: Option<&Path>,
    rec: &mut Recorder,
) -> Result<f64, String> {
    let replica = Replica::boot(inputs, data_dir)?;
    let mut off = Recorder::new(false);
    for (i, op) in inputs.warmup.iter().enumerate() {
        replica.handle(&mut off, i as u32, op)?;
    }
    if rec.enabled {
        for (i, op) in ops.iter().enumerate() {
            std::hint::black_box(replica.handle(rec, i as u32, op)?);
        }
        Ok(rec.op_seconds())
    } else {
        let mut total = Duration::ZERO;
        for (i, op) in ops.iter().enumerate() {
            let t = Instant::now();
            std::hint::black_box(replica.handle(rec, i as u32, op)?);
            total += t.elapsed();
        }
        Ok(total.as_secs_f64())
    }
}

/// Milliseconds `DurableExpFinder::open` takes on a data dir holding the
/// replayed WAL (what a restart pays before it listens), `reps` times.
pub fn time_open(data_dir: &Path, reps: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let config = RuntimeConfig {
            shards: 1,
            ..RuntimeConfig::default()
        };
        let t = Instant::now();
        let rt = DurableExpFinder::open(data_dir, config).map_err(engine_err)?;
        out.push(t.elapsed().as_secs_f64() * 1e3);
        drop(rt);
    }
    Ok(out)
}

/// Direct-call timing samples, keyed by metric name (unit in the name).
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// How many pool patterns the decomposition evaluates.
const DECOMPOSE_PATTERNS: usize = 32;
/// Edge updates timed per maintained structure.
const DECOMPOSE_UPDATES: usize = 256;

/// Take the evaluator apart from outside: call `graph`, `core`,
/// `incremental`, `compress` and `runtime::wal` directly on `graph`
/// (the mirror at the end of the replayed lap) and on the patterns that
/// lap read. `scratch_dir` receives the `.efg` and WAL files.
pub fn decompose(inputs: &Inputs, graph: &DiGraph, lap: &[Op], scratch_dir: &Path) -> Samples {
    let mut s: Samples = BTreeMap::new();
    std::fs::create_dir_all(scratch_dir).expect("create the trace scratch dir");

    // -- graph: CSR build, .efg save/load, one edge update
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(CsrGraph::snapshot(graph));
        s.entry("graph.csr_build_ms").or_default().push(ms(t));
    }
    let efg = scratch_dir.join("decompose.efg");
    for _ in 0..3 {
        let t = Instant::now();
        expfinder_graph::io::save_json(graph, &efg).expect("save .efg");
        s.entry("graph.efg_save_ms").or_default().push(ms(t));
        let t = Instant::now();
        std::hint::black_box(expfinder_graph::io::load_json(&efg).expect("load .efg"));
        s.entry("graph.efg_load_ms").or_default().push(ms(t));
    }
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(graph.clone());
        s.entry("graph.clone_us").or_default().push(us(t));
    }
    let stream: Vec<_> = lap
        .iter()
        .flat_map(|op| op.updates.iter().copied())
        .take(DECOMPOSE_UPDATES)
        .collect();
    // the lap's own updates, undone and redone on a copy so each one
    // really changes the graph
    let mut g = graph.clone();
    for &up in stream.iter().rev() {
        g.apply(up.inverse());
    }
    let before = g.clone();
    for &up in &stream {
        let t = Instant::now();
        std::hint::black_box(g.apply(up));
        s.entry("graph.apply_update_us").or_default().push(us(t));
    }

    // -- core: the same fixpoint on every substrate, then result graph + rank
    let mut seen = std::collections::BTreeSet::new();
    let patterns: Vec<u32> = lap
        .iter()
        .flat_map(|op| op.patterns.iter().copied())
        .filter(|p| seen.insert(*p))
        .take(DECOMPOSE_PATTERNS)
        .collect();
    let csr = CsrGraph::snapshot(graph);
    let warm = ReachIndex::new(csr.version());
    let mut scratch = EvalScratch::default();
    for &p in &patterns {
        let q = &inputs.patterns[p as usize].pattern;
        let t = Instant::now();
        let m = bounded_simulation(graph, q).expect("bounded simulation");
        s.entry("core.bsim_live_ms").or_default().push(ms(t));
        s.entry("core.match_pairs")
            .or_default()
            .push(m.total_pairs() as f64);

        let cold = ReachIndex::new(csr.version());
        let t = Instant::now();
        std::hint::black_box(bounded_simulation_indexed(
            &csr,
            q,
            EvalOptions::default(),
            &mut scratch,
            Some(&cold.bind(&csr)),
        ));
        s.entry("core.bsim_csr_cold_ms").or_default().push(ms(t));
        // first pass fills the shared index, second is the warm number
        let bound = warm.bind(&csr);
        bounded_simulation_indexed(&csr, q, EvalOptions::default(), &mut scratch, Some(&bound));
        let t = Instant::now();
        std::hint::black_box(bounded_simulation_indexed(
            &csr,
            q,
            EvalOptions::default(),
            &mut scratch,
            Some(&bound),
        ));
        s.entry("core.bsim_csr_warm_ms").or_default().push(ms(t));
        let t = Instant::now();
        std::hint::black_box(
            parallel_bounded_simulation_indexed(&csr, q, 2, Some(&bound)).expect("parallel bsim"),
        );
        s.entry("core.parallel_bsim_ms").or_default().push(ms(t));

        let t = Instant::now();
        let rg = ResultGraph::build(graph, q, &m);
        s.entry("core.result_graph_ms").or_default().push(ms(t));
        let t = Instant::now();
        std::hint::black_box(rank_matches_top_k(&rg, q, &m, TOP_K).expect("rank"));
        s.entry("core.rank_ms").or_default().push(ms(t));
    }

    // -- incremental: ΔM repair of the 8 registered queries per edge update
    let mut g = before.clone();
    let mut maintainers: Vec<IncrementalBoundedSim> = inputs
        .patterns
        .iter()
        .take(REGISTERED)
        .map(|p| IncrementalBoundedSim::new(&g, &p.pattern))
        .collect();
    let affected_before: usize = maintainers.iter().map(|m| m.stats().affected_nodes).sum();
    let mut applied = 0usize;
    for &up in &stream {
        if !g.apply(up) {
            continue;
        }
        applied += 1;
        let t = Instant::now();
        for m in &mut maintainers {
            std::hint::black_box(m.on_update(&g, up));
        }
        s.entry("incremental.repair_us").or_default().push(us(t));
    }
    let affected: usize = maintainers.iter().map(|m| m.stats().affected_nodes).sum();
    s.entry("incremental.affected_nodes")
        .or_default()
        .push((affected - affected_before) as f64 / applied.max(1) as f64);

    // -- runtime::wal: append with and without fsync, replay
    let batches: Vec<&[expfinder_graph::EdgeUpdate]> = stream.chunks(4).collect();
    for (policy, metric) in [
        (FsyncPolicy::Always, "runtime.wal.append_fsync_us"),
        (FsyncPolicy::Never, "runtime.wal.append_nosync_us"),
    ] {
        let path = scratch_dir.join(format!("{metric}.wal"));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, policy, 0).expect("open wal");
        for batch in &batches {
            let t = Instant::now();
            wal.append(batch).expect("wal append");
            s.entry(metric).or_default().push(us(t));
        }
        drop(wal);
        if policy == FsyncPolicy::Never {
            for _ in 0..3 {
                let t = Instant::now();
                std::hint::black_box(Wal::replay(&path).expect("wal replay"));
                s.entry("runtime.wal.replay_ms").or_default().push(ms(t));
            }
        }
    }

    // -- compress: nothing on the wire builds a quotient, so `serve`
    // never takes this route; measured so the finding has numbers
    let t = Instant::now();
    let gc = compress_graph(&before, CompressionMethod::Bisimulation).expect("compress");
    s.entry("compress.build_ms").or_default().push(ms(t));
    let cs = gc.stats();
    s.entry("compress.ratio").or_default().push(
        (cs.compressed_nodes + cs.compressed_edges) as f64
            / (cs.original_nodes + cs.original_edges).max(1) as f64,
    );
    for &p in &patterns {
        let q = &inputs.patterns[p as usize].pattern;
        if gc.validate_pattern(q).is_err() {
            continue;
        }
        let t = Instant::now();
        let m = bounded_simulation(&gc, q).expect("bsim on the quotient");
        std::hint::black_box(gc.expand(&m));
        s.entry("compress.query_ms").or_default().push(ms(t));
    }
    let mut g = before;
    let mut mc =
        MaintainedCompression::new(&g, CompressionMethod::Bisimulation).expect("maintained");
    for &up in &stream {
        if !g.apply(up) {
            continue;
        }
        let t = Instant::now();
        mc.on_update(&g, up);
        s.entry("compress.maintain_us").or_default().push(us(t));
    }
    s
}

/// Write `trace-<workload>.json`: every span, the per-name self-time
/// summary, and the direct-call samples of [`decompose`].
pub fn write_trace(
    path: &Path,
    inputs: &Inputs,
    rec: &Recorder,
    samples: &Samples,
) -> std::io::Result<()> {
    let mut out = String::with_capacity(rec.spans.len() * 96 + 4096);
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"op_list_hash\":\"{:016x}\",\"time_unit\":\"us\",\n\"self_time_us\":{{",
        inputs.spec.name, inputs.seed, inputs.hash
    );
    for (i, (name, own)) in rec.self_by_name().iter().enumerate() {
        let _ = write!(
            out,
            "{}\n\"{name}\":{{\"n\":{},\"p50\":{:.3},\"mean\":{:.3},\"total\":{:.3}}}",
            if i == 0 { "" } else { "," },
            own.len(),
            median(own),
            mean(own),
            own.iter().sum::<f64>()
        );
    }
    out.push_str("},\n\"direct_calls\":{");
    for (i, (name, xs)) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n\"{name}\":{{\"n\":{},\"p50\":{:.4},\"mean\":{:.4}}}",
            if i == 0 { "" } else { "," },
            xs.len(),
            median(xs),
            mean(xs)
        );
    }
    out.push_str("},\n\"spans\":[");
    let opt = |v: Option<u32>| v.map_or("null".to_owned(), |x| x.to_string());
    for (i, s) in rec.spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"id\":{i},\"name\":\"{}\",\"op_id\":{},\"parent\":{},\"replica_of\":{},\"start\":{:.3},\"end\":{:.3}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.op_id,
            opt(s.parent),
            opt(s.replica_of),
            s.start_us,
            s.end_us
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_replicas() {
        let mut rec = Recorder::new(true);
        let op = rec.enter("op.query", 0);
        let decode = rec.enter("decode", 0);
        rec.exit(decode, None);
        let eval = rec.enter("query", 0);
        rec.exit(eval, Some("engine.query_hit"));
        rec.exit(op, None);
        rec.replica("pattern.parse", 0, decode, || ());
        // fix the clock readings so the arithmetic is exact
        let times = [(0.0, 100.0), (10.0, 40.0), (50.0, 90.0), (100.0, 120.0)];
        for (s, (a, b)) in rec.spans.iter_mut().zip(times) {
            s.start_us = a;
            s.end_us = b;
        }
        assert_eq!(rec.spans[2].name, "engine.query_hit");
        assert_eq!(rec.spans[3].replica_of, Some(1));
        assert_eq!(rec.spans[3].parent, None);
        let own = rec.self_times_us();
        assert_eq!(own, vec![30.0, 10.0, 40.0, 20.0]);
        assert!((rec.coverage() - 0.7).abs() < 1e-12);
        assert!((rec.op_seconds() - 100e-6).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.enter("op.query", 0);
        assert_eq!(s, None);
        rec.exit(s, None);
        assert_eq!(rec.time("x", 0, || 7), 7);
        assert_eq!(rec.replica("y", 0, None, || 1), None);
        assert!(rec.spans.is_empty());
    }
}
