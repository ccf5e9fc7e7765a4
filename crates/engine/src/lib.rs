//! The ExpFinder query engine — the system of Fig. 2 of the paper,
//! redesigned as a **shareable, handle-based service**.
//!
//! The engine is two types split along the line the type system can
//! enforce. [`Catalog`] is the read side: the name → graph map behind one
//! `RwLock`, the one [`ReadPath`], the update hook, and *every read* —
//! [`Catalog::query`] and [`Catalog::query_batch`], both of which take
//! [`QuerySpec`]s, the catalog listings and the metrics feeds.
//! [`ExpFinder`] is a `Catalog` (it [`Deref`]s to one) plus the writes,
//! all of them one primitive, [`ExpFinder::write`]: lock the graph's
//! [`MaintainedGraph`], run the operation, publish the next immutable
//! [`Snapshot`] into the graph's [`PublishedGraph`] slot. The durable
//! runtime is built *out of* these, not beside them: it wraps an
//! `ExpFinder`, derefs to the same `Catalog`, and adds its graphs with a
//! [`WriteLog`] attached, which those same writes append to first.
//!
//! Everything takes `&self`, so an `Arc<ExpFinder>` can serve many
//! threads at once: a read clones the latest snapshot `Arc` and holds no
//! lock while it evaluates, so readers never wait for a writer (nor a
//! writer for them), and [`ExpFinder::apply_updates`] serializes only
//! with other writers of that one graph.
//!
//! Graphs are addressed by cheap [`GraphHandle`]s returned from
//! [`ExpFinder::add_graph`] (or looked up with [`Catalog::handle`]).
//! A handle stays valid until its graph is removed; using it afterwards
//! yields [`ExpFinderError::StaleHandle`].
//!
//! Query routing follows paper §II and is implemented exactly once, in
//! [`ReadPath`]: (1) the results the snapshot's version has cached in
//! its [`Derived`] state, (2) registered
//! incrementally-maintained queries, and otherwise (3) the cost-based
//! [`planner`], which estimates the work of every applicable physical
//! route — the snapshot's own graph with its per-version reach index,
//! the compressed quotient when one exists and
//! the query is compression-safe — from the graph's [`CostProfile`] and
//! picks the cheapest; then one `expfinder_core::evaluate` call on the
//! winning substrate (bounded simulation, of which a 1-bounded pattern is
//! the plain-simulation case), and the top-K rank from the candidates —
//! or a prefix of the ranked answer the cached result already holds. The read path reads a published [`Snapshot`] and nothing else;
//! the catalog's part of a read is resolving the handle to its graph's
//! latest one ([`Catalog::handle`], [`Catalog::latest`]) — the same call
//! on both facades. Every
//! [`QueryResponse`] carries the full [`PlanDecision`], whose
//! [`PlanRoute`] `chosen` is the one report of how the read was
//! answered. Updates flow
//! through [`ExpFinder::apply_updates`] into the graph's
//! [`MaintainedGraph`] — the one write path of both facades — which
//! maintains the graph, its compressed counterpart and every registered
//! query in one pass and then publishes the next snapshot.
//!
//! One read runs on the calling thread: direct evaluation runs the one
//! fixpoint engine of `expfinder-core` over the snapshot's immutable
//! graph, consulting the reach index its version's [`Derived`] state
//! shares. The thread budget ([`EngineConfig::threads`]) is the width of
//! the scoped worker pool [`Catalog::query_batch`] drains a batch across;
//! [`EngineConfig::sequential`] drains it on the calling thread.
//!
//! ```
//! use expfinder_engine::{ExpFinder, QuerySpec, Route};
//! use expfinder_graph::fixtures::collaboration_fig1;
//! use expfinder_pattern::fixtures::fig1_pattern;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(ExpFinder::default());
//! let h = engine.add_graph("fig1", collaboration_fig1().graph).unwrap();
//! let spec = QuerySpec::pattern(fig1_pattern()).top_k(2).prefer(Route::Auto);
//! let resp = engine.query(&h, &spec).unwrap();
//! assert_eq!(resp.matches.total_pairs(), 7);
//! assert_eq!(resp.experts.len(), 2);
//! ```

pub mod planner;
pub mod read_path;
pub mod report;
pub mod shell;
pub mod state;

pub use planner::{CandidateCost, CostInputs, CostProfile, PlanContext, PlanDecision, PlanRoute};
pub use read_path::ReadPath;
pub use state::{
    CachedResult, Derived, LogRecord, MaintainedGraph, PublishedGraph, RegisteredView, Snapshot,
    WriteLog,
};

use expfinder_compress::{CompressError, CompressStats, CompressionMethod};
pub use expfinder_core::CancelToken;
use expfinder_core::{EvalStats, MatchError, MatchRelation, RankedMatch};
use expfinder_graph::io::GraphIoError;
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::parser::ParseError;
use expfinder_pattern::{Pattern, PatternError};
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, Weak};
use std::time::Duration;

/// Engine configuration: the batch fan-out width, its one setting. The
/// query cache has no setting: each graph version keeps at most
/// [`MAX_CACHED_RESULTS`](state::MAX_CACHED_RESULTS) results in its
/// [`Derived`] state, freed with the version.
///
/// `threads` defaults to [`std::thread::available_parallelism`];
/// [`EngineConfig::sequential`] sets it to 1 for fully sequential,
/// deterministic-schedule execution (the escape hatch tests use). Results
/// are bit-identical either way — every slot runs the same read.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The fan-out width of a [`Catalog::query_batch`]: at most this many
    /// workers drain its slots ([`ReadPath::query_batch`]). A single query
    /// always runs on the calling thread, so the budget never changes its
    /// plan, its cost estimate or its answer.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl EngineConfig {
    /// The default configuration with one thread everywhere.
    pub fn sequential() -> Self {
        EngineConfig { threads: 1 }
    }
}

/// The single error hierarchy of the public API: every layer's failure
/// (matching, compression, pattern assembly, the DSL parser, IO) is
/// collapsed into this enum via `From` conversions.
#[derive(Debug)]
pub enum ExpFinderError {
    UnknownGraph(String),
    DuplicateGraph(String),
    StaleHandle(String),
    ForeignHandle(String),
    InvalidGraphName(String),
    UnknownQuery(String),
    DuplicateQuery(String),
    Match(MatchError),
    Compress(CompressError),
    Pattern(PatternError),
    Parse(ParseError),
    GraphIo(GraphIoError),
    Io(std::io::Error),
    Storage(String),
    /// A crash the durable runtime's fault injector simulated: the write
    /// stopped where the process would have died.
    SimulatedCrash,
    DeadlineExceeded(EvalStats),
}

impl fmt::Display for ExpFinderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ExpFinderError::*;
        match self {
            UnknownGraph(g) => write!(f, "no graph named {g:?}"),
            DuplicateGraph(g) => write!(f, "graph {g:?} already exists"),
            StaleHandle(g) => write!(f, "graph handle {g:?} is stale (the graph was removed)"),
            ForeignHandle(g) => write!(
                f,
                "graph handle {g:?} belongs to a different ExpFinder instance"
            ),
            InvalidGraphName(g) => write!(
                f,
                "invalid graph name {g:?} (must be non-empty, without path separators or \"..\")"
            ),
            UnknownQuery(q) => write!(f, "no registered query named {q:?}"),
            DuplicateQuery(q) => write!(f, "query {q:?} already registered"),
            Match(e) => write!(f, "match error: {e}"),
            Compress(e) => write!(f, "compression error: {e}"),
            Pattern(e) => write!(f, "pattern error: {e}"),
            Parse(e) => write!(f, "pattern parse error: {e}"),
            GraphIo(e) => write!(f, "graph io error: {e}"),
            Io(e) => write!(f, "io error: {e}"),
            Storage(msg) => write!(f, "storage error: {msg}"),
            SimulatedCrash => write!(f, "simulated crash at injected I/O boundary"),
            DeadlineExceeded(_) => write!(f, "query deadline exceeded during evaluation"),
        }
    }
}

impl std::error::Error for ExpFinderError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        use ExpFinderError::*;
        match self {
            Match(e) => Some(e),
            Compress(e) => Some(e),
            Pattern(e) => Some(e),
            Parse(e) => Some(e),
            GraphIo(e) => Some(e),
            Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MatchError> for ExpFinderError {
    fn from(e: MatchError) -> Self {
        ExpFinderError::Match(e)
    }
}

impl From<CompressError> for ExpFinderError {
    fn from(e: CompressError) -> Self {
        ExpFinderError::Compress(e)
    }
}

impl From<PatternError> for ExpFinderError {
    fn from(e: PatternError) -> Self {
        ExpFinderError::Pattern(e)
    }
}

impl From<ParseError> for ExpFinderError {
    fn from(e: ParseError) -> Self {
        ExpFinderError::Parse(e)
    }
}

impl From<GraphIoError> for ExpFinderError {
    fn from(e: GraphIoError) -> Self {
        ExpFinderError::GraphIo(e)
    }
}

impl From<std::io::Error> for ExpFinderError {
    fn from(e: std::io::Error) -> Self {
        ExpFinderError::Io(e)
    }
}

impl ExpFinderError {
    /// The HTTP status code this error maps to on the wire.
    ///
    /// This is the **single** error→status mapping of the system: the
    /// `expfinder-server` crate uses it for every endpoint's error
    /// responses, and the shell's `batch` command reuses it when
    /// reporting per-slot failures, so a query that fails locally and
    /// one that fails over HTTP read the same way.
    pub fn http_status(&self) -> u16 {
        use ExpFinderError::*;
        match self {
            // the named resource does not exist (anymore)
            UnknownGraph(_) | UnknownQuery(_) | StaleHandle(_) => 404,
            // the named resource already exists
            DuplicateGraph(_) | DuplicateQuery(_) => 409,
            // a graph file that could not be read or written, like any
            // IO failure, is not the client's doing
            GraphIo(GraphIoError::Io(_)) => 500,
            // the request itself is malformed
            InvalidGraphName(_) | Pattern(_) | Parse(_) | GraphIo(_) => 400,
            // well-formed but unprocessable against this graph
            Match(_) | Compress(_) => 422,
            // the query's deadline fired mid-evaluation
            DeadlineExceeded(_) => 408,
            // server-side faults: cross-engine handles never come off the
            // wire, and IO/storage failures are not the client's doing
            ForeignHandle(_) | Io(_) | Storage(_) | SimulatedCrash => 500,
        }
    }

    /// Partial work counters carried by a deadline abort, if this error
    /// is one — what the server surfaces under `timings` in 408 bodies.
    pub fn partial_stats(&self) -> Option<EvalStats> {
        match self {
            ExpFinderError::DeadlineExceeded(stats) => Some(*stats),
            _ => None,
        }
    }
}

/// Routing preference for one query (input to the engine).
///
/// The route actually taken is the response's `plan.chosen`
/// ([`PlanRoute`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Route {
    /// Paper §II order: cache → registered → compressed → direct.
    #[default]
    Auto,
    /// Evaluate on the compressed graph when possible (skipping the
    /// cache and registered queries); falls back to direct evaluation if
    /// the graph is not compressed or the pattern is not
    /// compression-safe.
    Compressed,
    /// Force direct evaluation, bypassing cache, registered queries and
    /// the compressed graph.
    Direct,
}

/// Wall-clock breakdown of one read.
#[derive(Copy, Clone, Debug, Default)]
pub struct QueryTimings {
    /// Evaluating the match relation (including cache/registered hits).
    pub evaluate: Duration,
    /// Ranking the top `k`: from the candidates, expanding the `G_r`
    /// rows their searches reach, or copying a registered query's
    /// maintained prefix or the cached result's list (zero if no `top_k`).
    pub rank: Duration,
    /// End-to-end time inside the engine.
    pub total: Duration,
}

/// Everything one read returns.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Best-K matches of the output node (empty unless `top_k` was set).
    pub experts: Vec<RankedMatch>,
    /// The full match relation `M(Q,G)`.
    pub matches: Arc<MatchRelation>,
    /// The graph version the response corresponds to.
    pub graph_version: u64,
    /// Wall-clock breakdown.
    pub timings: QueryTimings,
    /// The planner's verdict: `chosen`, the route that produced the
    /// relation, the route it would have picked without a preference,
    /// and every costed candidate — the `timings.plan` object on the
    /// wire, whose `chosen` string is also the response's `route`.
    pub plan: PlanDecision,
}

/// Point-in-time summary of one managed graph, from
/// [`Catalog::graph_infos`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphInfo {
    pub name: String,
    pub nodes: usize,
    pub edges: usize,
    pub version: u64,
    /// Queries under incremental maintenance on this graph.
    pub registered_queries: usize,
    pub compressed: bool,
}

/// Maintained-result size of one registered query before and after an
/// update batch — the ΔM a serving client sees from `POST /updates`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisteredDelta {
    pub query: String,
    pub before_pairs: usize,
    pub after_pairs: usize,
}

impl RegisteredDelta {
    /// Signed match-pair delta (`after - before`).
    pub fn delta(&self) -> i64 {
        self.after_pairs as i64 - self.before_pairs as i64
    }
}

/// Observer of committed update batches, installed with
/// [`Catalog::set_update_hook`]. Called once per batch with the graph
/// name and the full traced [`UpdateReport`], *while the graph's write
/// mutex is still held* and after the batch's snapshot was published — so
/// hook invocations for one graph are totally ordered, carry
/// non-decreasing `graph_version`s, and a frame's version is already
/// readable when it arrives. Implementations must not block (the
/// server's subscription fan-out uses non-blocking queue sends) and must
/// not write to the same graph.
pub type UpdateHook = Arc<dyn Fn(&str, &UpdateReport) + Send + Sync>;

/// Result of [`ExpFinder::apply_updates`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// Updates that actually changed the graph (no-ops skipped).
    pub applied: usize,
    /// Updates submitted.
    pub attempted: usize,
    /// Graph version after the batch.
    pub graph_version: u64,
    /// Per-registered-query maintained sizes, sorted by query name.
    pub registered: Vec<RegisteredDelta>,
}

/// One managed graph: its stable catalog id, the slot readers load
/// snapshots from, and the write side that publishes into it (with a
/// durable graph's log). The mutex serializes writers of this graph only;
/// readers never take it.
struct GraphSlot {
    id: u64,
    /// The catalog name; every handle resolved by name shares it.
    name: Arc<str>,
    published: PublishedGraph,
    core: Mutex<MaintainedGraph>,
}

/// A cheap, clonable reference to one graph managed by an [`ExpFinder`].
///
/// Handles are obtained from [`ExpFinder::add_graph`] /
/// [`Catalog::handle`] and stay valid until the graph is removed;
/// afterwards every operation through them fails with
/// [`ExpFinderError::StaleHandle`]. Internally a handle holds a weak
/// reference to the graph slot, so the query path never touches the
/// catalog lock.
#[derive(Clone, Debug)]
pub struct GraphHandle {
    engine_id: u64,
    id: u64,
    name: Arc<str>,
    slot: Weak<GraphSlot>,
}

impl GraphHandle {
    /// The name the graph was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine-unique catalog id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True if the graph is still present in its engine.
    pub fn is_live(&self) -> bool {
        self.slot.strong_count() > 0
    }

    fn upgrade(&self) -> Result<Arc<GraphSlot>, ExpFinderError> {
        self.slot
            .upgrade()
            .ok_or_else(|| ExpFinderError::StaleHandle(self.name.to_string()))
    }

    fn owned_by(&self, engine_id: u64) -> Result<(), ExpFinderError> {
        if self.engine_id == engine_id {
            Ok(())
        } else {
            Err(ExpFinderError::ForeignHandle(self.name.to_string()))
        }
    }
}

impl PartialEq for GraphHandle {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for GraphHandle {}

impl std::hash::Hash for GraphHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl std::fmt::Display for GraphHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.name, self.id)
    }
}

/// The read side of an engine: the name → graph map, the one
/// [`ReadPath`] and the update hook. Every read of the system — by handle,
/// on the latest published [`Snapshot`] — is a method of this type, and
/// nothing here can change a graph. Both facades are built on it and
/// [`Deref`] to it: [`ExpFinder`] adds the writes, the durable runtime
/// wraps an `ExpFinder` whose graphs carry a [`WriteLog`] — so a durable
/// graph is read exactly like an in-memory one and has no write that skips
/// the log.
pub struct Catalog {
    /// Process-unique id of this engine instance; handles carry it so a
    /// handle from one engine cannot address another.
    engine_id: u64,
    graphs: RwLock<HashMap<Arc<str>, Arc<GraphSlot>>>,
    /// The shared read path: scratch pool, thread budget and the
    /// cumulative cache / planner / evaluation / cancellation counters.
    read: ReadPath,
    /// Observer of committed update batches (ΔM push fan-out).
    update_hook: RwLock<Option<UpdateHook>>,
    next_id: AtomicU64,
}

/// The ExpFinder system facade: a [`Catalog`] plus the writes. See the
/// [crate docs](crate) for the concurrency design; in short:
/// `Arc<ExpFinder>` + `&self` everywhere.
pub struct ExpFinder {
    config: EngineConfig,
    catalog: Catalog,
}

impl Deref for ExpFinder {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.catalog
    }
}

/// Point-in-time gauges of every managed graph's derived state, from
/// [`Catalog::index_totals`] — the gauge half of the `engine.index`
/// block of `GET /metrics` (its cumulative half is
/// [`ReadPath::index_counters`]), and of its `engine.cache` block (whose
/// cumulative half is [`ReadPath::cache_stats`]). `entries`/`bytes` are
/// live gauges over the indexes of the latest snapshots,
/// `classes`/`class_bytes` over the class memos of their graphs and
/// quotients, `resets` over both, and `cached_results` /
/// `cache_evictions` over the result memos of their versions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexTotals {
    /// Memoized entries currently held across all graphs.
    pub entries: usize,
    /// Bytes retained by those entries.
    pub bytes: usize,
    /// Condition classes the graphs' class memos hold
    /// ([`ClassMemo`](expfinder_graph::ClassMemo)).
    pub classes: usize,
    /// Bytes retained by those classes.
    pub class_bytes: usize,
    /// How often those indexes and memos started over at a cap
    /// ([`Memo`](expfinder_graph::Memo)).
    pub resets: u64,
    /// Query results the latest versions hold ([`Derived::cached`]).
    pub cached_results: usize,
    /// Results their result memos dropped when they started over.
    pub cache_evictions: u64,
}

/// Source of process-unique engine ids.
static ENGINE_IDS: AtomicU64 = AtomicU64::new(1);

// The whole point of the handle-based design: one engine, many threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExpFinder>();
    assert_send_sync::<GraphHandle>();
};

impl Default for ExpFinder {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl Catalog {
    /// Install (or, with `None`, remove) the [`UpdateHook`] observing
    /// every committed update batch: the same ΔM report
    /// [`ExpFinder::apply_updates`] returns to its caller.
    pub fn set_update_hook(&self, hook: Option<UpdateHook>) {
        *self
            .update_hook
            .write()
            .unwrap_or_else(PoisonError::into_inner) = hook;
    }

    /// The read path every query is answered through — the source of
    /// the cache / evaluation / planner / cancellation counters.
    pub fn read_path(&self) -> &ReadPath {
        &self.read
    }

    /// Resolve a handle to its graph slot, rejecting handles from other
    /// engines (their graphs are not this catalog's, and their ids alias
    /// this catalog's) and handles whose graph was removed.
    fn slot(&self, handle: &GraphHandle) -> Result<Arc<GraphSlot>, ExpFinderError> {
        handle.owned_by(self.engine_id)?;
        handle.upgrade()
    }

    fn handle_of(&self, slot: &Arc<GraphSlot>) -> GraphHandle {
        GraphHandle {
            engine_id: self.engine_id,
            id: slot.id,
            name: Arc::clone(&slot.name),
            slot: Arc::downgrade(slot),
        }
    }

    /// Look up the handle of a graph by name.
    pub fn handle(&self, name: &str) -> Result<GraphHandle, ExpFinderError> {
        match self
            .graphs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            Some(slot) => Ok(self.handle_of(slot)),
            None => Err(ExpFinderError::UnknownGraph(name.to_owned())),
        }
    }

    /// The catalog's half of a read: the latest published snapshot of the
    /// handle's graph. Everything after it is the [`ReadPath`].
    pub fn latest(&self, handle: &GraphHandle) -> Result<Arc<Snapshot>, ExpFinderError> {
        Ok(self.slot(handle)?.published.latest())
    }

    /// Names of all managed graphs (sorted).
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .graphs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .map(|n| n.to_string())
            .collect();
        names.sort();
        names
    }

    /// A summary of every managed graph (sorted by name) — the catalog
    /// view the serving layer exposes on `GET /graphs` and `/metrics`.
    pub fn graph_infos(&self) -> Vec<GraphInfo> {
        let graphs = self.graphs.read().unwrap_or_else(PoisonError::into_inner);
        let mut infos: Vec<GraphInfo> = graphs
            .values()
            .map(|slot| slot.published.latest().info(&slot.name))
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Run `f` against the graph of the latest published snapshot. No
    /// lock is held while `f` runs: a writer that commits meanwhile
    /// neither waits for `f` nor changes what it sees.
    pub fn read_graph<R>(
        &self,
        handle: &GraphHandle,
        f: impl FnOnce(&DiGraph) -> R,
    ) -> Result<R, ExpFinderError> {
        Ok(f(self.latest(handle)?.graph()))
    }

    /// An independent copy of the graph (for persistence and tests). It
    /// shares structure with the stored graph until either side is
    /// written to, so taking one is cheap.
    pub fn snapshot(&self, handle: &GraphHandle) -> Result<DiGraph, ExpFinderError> {
        self.read_graph(handle, |g| g.clone())
    }

    /// Compression statistics, if the graph is compressed.
    pub fn compression_stats(
        &self,
        handle: &GraphHandle,
    ) -> Result<Option<CompressStats>, ExpFinderError> {
        Ok(self.latest(handle)?.quotient().map(|gc| gc.stats()))
    }

    /// Names of queries registered on a graph (sorted).
    pub fn registered_queries(&self, handle: &GraphHandle) -> Result<Vec<String>, ExpFinderError> {
        Ok(self.latest(handle)?.registered_queries())
    }

    /// The incrementally-maintained result of a registered query, as the
    /// latest snapshot publishes it (shared, not copied).
    pub fn registered_result(
        &self,
        handle: &GraphHandle,
        query_name: &str,
    ) -> Result<Arc<MatchRelation>, ExpFinderError> {
        let snap = self.latest(handle)?;
        Ok(Arc::clone(snap.registered_result(query_name)?))
    }

    // ----------------------------- evaluation ----------------------------

    /// Answer one query against the latest snapshot of the handle's
    /// graph: routing, evaluation, result-graph construction and ranking
    /// all see that one snapshot, so the response is consistent even with
    /// concurrent writers. A spec's DSL text is parsed here, so a parse
    /// error is this call's error. Past a [`QuerySpec::deadline`], or once
    /// its [`QuerySpec::cancel_token`] fires, the evaluation abandons work
    /// at its next cancellation point and returns
    /// [`ExpFinderError::DeadlineExceeded`] with the partial
    /// [`EvalStats`].
    pub fn query(
        &self,
        handle: &GraphHandle,
        spec: &QuerySpec,
    ) -> Result<QueryResponse, ExpFinderError> {
        spec.read(|pattern| {
            let (top_k, prefer, token) = (spec.top_k, spec.prefer, spec.token.clone());
            let resolve = || self.latest(handle);
            self.read
                .query(resolve, pattern, top_k, prefer, spec.deadline, token)
        })
    }

    /// Estimate the planner cost (abstract work units) of evaluating
    /// `pattern` on `handle` right now, without evaluating anything —
    /// the server's admission-control hook
    /// ([`ReadPath::estimate_cost`]).
    pub fn estimate_cost(
        &self,
        handle: &GraphHandle,
        pattern: &Pattern,
    ) -> Result<f64, ExpFinderError> {
        Ok(self.read.estimate_cost(&*self.latest(handle)?, pattern))
    }

    /// Gauges summed over every managed graph's latest derived state:
    /// its reach indexes (direct and compressed), class memos and cached
    /// results — the gauge half of the `engine.index` and `engine.cache`
    /// blocks of `GET /metrics`.
    pub fn index_totals(&self) -> IndexTotals {
        let graphs = self.graphs.read().unwrap_or_else(PoisonError::into_inner);
        let latest = graphs.values().map(|slot| slot.published.latest());
        self.read.index_totals(latest)
    }

    /// Execute a whole batch of queries against one graph, draining them
    /// across a scoped pool of up to [`EngineConfig::threads`] workers — the
    /// workload shape of a production service (and of expert-finding
    /// benchmarks, which evaluate over *sets* of queries).
    ///
    /// Results come back in spec order, one `Result` per spec, so a single
    /// malformed DSL string fails its own slot without sinking the batch.
    /// Each query runs on the snapshot it grabbed and reports the
    /// `graph_version` it observed; every response individually equals a
    /// sequential [`Catalog::query`] at that version (property-tested),
    /// but a batch racing a writer may span versions.
    ///
    /// A `deadline` arms one [`CancelToken`] polled by every worker, so
    /// slots still running when the budget runs out come back as
    /// [`ExpFinderError::DeadlineExceeded`] while already-finished slots
    /// keep their results. A per-spec [`QuerySpec::deadline`] or
    /// [`QuerySpec::cancel_token`] gives its slot a token of its own,
    /// armed with the tighter of that deadline and what is left of the
    /// batch budget.
    ///
    /// ```
    /// use expfinder_engine::{ExpFinder, QuerySpec};
    /// use expfinder_graph::fixtures::collaboration_fig1;
    /// use expfinder_pattern::fixtures::fig1_pattern;
    ///
    /// let engine = ExpFinder::default();
    /// let h = engine.add_graph("fig1", collaboration_fig1().graph).unwrap();
    /// let specs = vec![
    ///     QuerySpec::pattern(fig1_pattern()).top_k(2),
    ///     QuerySpec::dsl("node sa* where label = \"SA\";"),
    /// ];
    /// let responses = engine.query_batch(&h, specs, None);
    /// assert_eq!(responses.len(), 2);
    /// assert_eq!(responses[0].as_ref().unwrap().experts.len(), 2);
    /// assert_eq!(responses[1].as_ref().unwrap().matches.total_pairs(), 2);
    /// ```
    pub fn query_batch(
        &self,
        handle: &GraphHandle,
        specs: Vec<QuerySpec>,
        deadline: Option<Duration>,
    ) -> Vec<Result<QueryResponse, ExpFinderError>> {
        // resolved per slot: a dead handle fails every slot, not the call
        self.read
            .query_batch(|| self.latest(handle), &specs, deadline)
    }
}

impl ExpFinder {
    pub fn new(config: EngineConfig) -> ExpFinder {
        let catalog = Catalog {
            engine_id: ENGINE_IDS.fetch_add(1, Ordering::Relaxed),
            graphs: RwLock::new(HashMap::new()),
            read: ReadPath::new(&config),
            update_hook: RwLock::new(None),
            next_id: AtomicU64::new(1),
        };
        ExpFinder { config, catalog }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The one write primitive: run `op` on the handle's graph under its
    /// write mutex and publish what it changed — also when `op` fails
    /// part-way — before the mutex is released. Every write below is this
    /// with a [`MaintainedGraph`] method for `op`, which appends to the
    /// graph's [`WriteLog`], if it has one, before it changes anything; the
    /// durable runtime's snapshot, compaction and removal run their file
    /// I/O here too. A write that took the mutex after its graph was
    /// removed answers [`ExpFinderError::StaleHandle`] and runs nothing.
    pub fn write<T>(
        &self,
        handle: &GraphHandle,
        op: impl FnOnce(&mut MaintainedGraph) -> Result<T, ExpFinderError>,
    ) -> Result<T, ExpFinderError> {
        self.commit(handle, op, |_| {})
    }

    /// [`ExpFinder::write`], then `committed` on its success, still under
    /// the write mutex.
    fn commit<T>(
        &self,
        handle: &GraphHandle,
        op: impl FnOnce(&mut MaintainedGraph) -> Result<T, ExpFinderError>,
        committed: impl FnOnce(&T),
    ) -> Result<T, ExpFinderError> {
        let slot = self.slot(handle)?;
        let mut core = slot.core.lock().unwrap_or_else(PoisonError::into_inner);
        let listed = self
            .graphs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(handle.name())
            .is_some_and(|now| Arc::ptr_eq(now, &slot));
        if !listed {
            return Err(ExpFinderError::StaleHandle(handle.name.to_string()));
        }
        let out = op(&mut core);
        // whatever `op` changed is published even when it failed part-way:
        // a durable graph has already logged it
        core.publish(&slot.published);
        if let Ok(out) = &out {
            committed(out);
        }
        out
    }

    // ------------------------------ catalog ------------------------------

    /// Register a data graph under a name, returning its handle. Names
    /// double as catalog file stems, so path-like names are rejected.
    pub fn add_graph(&self, name: &str, graph: DiGraph) -> Result<GraphHandle, ExpFinderError> {
        self.add_maintained(name, MaintainedGraph::new(graph))
    }

    /// [`ExpFinder::add_graph`] for a graph that already carries state:
    /// the first snapshot readers see holds `core`'s registered queries
    /// and quotient, and its writes append to `core`'s [`WriteLog`] (the
    /// durable runtime's recovery replays a WAL onto a [`MaintainedGraph`]
    /// offline, attaches the log and adds the result here, published
    /// once).
    pub fn add_maintained(
        &self,
        name: &str,
        mut core: MaintainedGraph,
    ) -> Result<GraphHandle, ExpFinderError> {
        validate_graph_name(name)?;
        let mut graphs = self.graphs.write().unwrap_or_else(PoisonError::into_inner);
        if graphs.contains_key(name) {
            return Err(ExpFinderError::DuplicateGraph(name.to_owned()));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let counters = Arc::clone(self.read.index_counters());
        let published = PublishedGraph::new(core.graph(), counters);
        core.publish(&published);
        let slot = Arc::new(GraphSlot {
            id,
            name: Arc::from(name),
            published,
            core: Mutex::new(core),
        });
        let handle = self.handle_of(&slot);
        graphs.insert(Arc::clone(&slot.name), slot);
        Ok(handle)
    }

    /// Remove a graph (and its compression and registered queries).
    /// Outstanding handles to it become stale.
    pub fn remove_graph(&self, handle: &GraphHandle) -> Result<(), ExpFinderError> {
        handle.owned_by(self.engine_id)?;
        let mut graphs = self.graphs.write().unwrap_or_else(PoisonError::into_inner);
        match graphs.get(handle.name()) {
            Some(slot) if slot.id == handle.id => {
                graphs.remove(handle.name());
                Ok(())
            }
            _ => Err(ExpFinderError::StaleHandle(handle.name.to_string())),
        }
    }

    // ---------------------------- compression ----------------------------

    /// Build (or rebuild) the compressed counterpart of a graph under
    /// the given equivalence.
    pub fn compress(
        &self,
        handle: &GraphHandle,
        method: CompressionMethod,
    ) -> Result<CompressStats, ExpFinderError> {
        self.write(handle, |core| core.compress(method))
    }

    /// Drop the compressed counterpart.
    pub fn drop_compression(&self, handle: &GraphHandle) -> Result<(), ExpFinderError> {
        self.write(handle, |core| {
            core.drop_compression();
            Ok(())
        })
    }

    // ------------------------- registered queries ------------------------

    /// Register a frequently-issued query for incremental maintenance
    /// (paper §II: "maintains the query results of a set of frequently
    /// issued queries (decided by the users)").
    pub fn register_query(
        &self,
        handle: &GraphHandle,
        query_name: &str,
        pattern: Pattern,
    ) -> Result<(), ExpFinderError> {
        self.write(handle, |core| core.register(query_name, pattern))
    }

    /// Drop a registered query.
    pub fn unregister_query(
        &self,
        handle: &GraphHandle,
        query_name: &str,
    ) -> Result<(), ExpFinderError> {
        self.write(handle, |core| core.unregister(query_name))
    }

    // ------------------------------ updates ------------------------------

    /// Apply edge updates to a graph, maintaining its compression and its
    /// registered queries along the way, on the caller's thread under that
    /// one graph's write mutex (readers are unaffected: they keep the
    /// snapshot they hold, and the next read sees the new one). The
    /// [`UpdateReport`] counts the updates that changed the graph
    /// (duplicates/no-ops are skipped) and carries the version after the
    /// batch and every registered query's maintained size before and
    /// after, all measured inside the same commit — the ΔM report
    /// `POST /graphs/{name}/updates` returns: [`MaintainedGraph::apply`],
    /// then publish, then the update hook.
    pub fn apply_updates(
        &self,
        handle: &GraphHandle,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ExpFinderError> {
        let hook = self
            .update_hook
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        self.commit(
            handle,
            |core| core.apply(updates),
            |report| {
                if let Some(hook) = &hook {
                    // still under the graph's write mutex: per-graph hook
                    // calls are totally ordered by commit
                    hook(handle.name(), report);
                }
            },
        )
    }
}

/// The longest graph name, in bytes: the longest file the durable runtime
/// derives from a name, `<name>.efg.tmp` or `<name>.wal.tmp`, then fits
/// the usual 255-byte file-name limit.
const MAX_GRAPH_NAME_BYTES: usize = 255 - ".efg.tmp".len();

/// Graph names double as catalog file stems (`<name>.efg`, and the
/// runtime's `<name>.wal`), so names that could escape the catalog
/// directory, or that no file system would take, are rejected up front on
/// both backends. Exported for the durable runtime, which reuses the same
/// name-as-file-stem convention.
pub fn validate_graph_name(name: &str) -> Result<(), ExpFinderError> {
    let bad = name.is_empty()
        || name.len() > MAX_GRAPH_NAME_BYTES
        || name.contains(['/', '\\', '\0'])
        || name == "."
        || name == ".."
        || name.contains("..");
    if bad {
        Err(ExpFinderError::InvalidGraphName(name.to_owned()))
    } else {
        Ok(())
    }
}

/// How one [`QuerySpec`] names its pattern.
#[derive(Clone, Debug)]
enum SpecSource {
    Pattern(Arc<Pattern>),
    Dsl(String),
}

/// One read request — the engine's only one: a pattern (or DSL text
/// parsed at execution time), an optional `top_k`, a routing preference,
/// and an optional deadline and cancellation token. [`Catalog::query`]
/// answers one; [`Catalog::query_batch`] fans a `Vec` of them out across
/// threads.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    source: SpecSource,
    pub(crate) top_k: Option<usize>,
    pub(crate) prefer: Route,
    pub(crate) deadline: Option<Duration>,
    pub(crate) token: Option<Arc<CancelToken>>,
}

impl QuerySpec {
    fn new(source: SpecSource) -> QuerySpec {
        QuerySpec {
            source,
            top_k: None,
            prefer: Route::Auto,
            deadline: None,
            token: None,
        }
    }

    /// A spec from an assembled pattern, owned or shared (a batch slot
    /// decoded off the wire shares the parse memo's pattern).
    pub fn pattern(pattern: impl Into<Arc<Pattern>>) -> QuerySpec {
        QuerySpec::new(SpecSource::Pattern(pattern.into()))
    }

    /// A spec from DSL text; parse errors surface when it is read (in its
    /// own slot, in a batch).
    pub fn dsl(dsl: impl Into<String>) -> QuerySpec {
        QuerySpec::new(SpecSource::Dsl(dsl.into()))
    }

    /// Also rank the output node's matches and return the best `k`.
    pub fn top_k(mut self, k: usize) -> QuerySpec {
        self.top_k = Some(k);
        self
    }

    /// Routing preference (default [`Route::Auto`]).
    pub fn prefer(mut self, route: Route) -> QuerySpec {
        self.prefer = route;
        self
    }

    /// Evaluation budget, measured from the moment the read starts (a
    /// batch worker picking the slot up): once it has elapsed, the
    /// evaluation abandons work at its next cancellation point and
    /// returns [`ExpFinderError::DeadlineExceeded`] carrying the partial
    /// [`EvalStats`]. In a batch with a batch-wide deadline the *tighter*
    /// of the two applies. No deadline (the default) costs a single
    /// relaxed atomic load per cancellation point.
    pub fn deadline(mut self, budget: Duration) -> QuerySpec {
        self.deadline = Some(budget);
        self
    }

    /// Poll a caller-supplied [`CancelToken`] at every cancellation
    /// point, so `cancel()` from another thread (a disconnected client,
    /// a supervisor, a deterministic test fuse) aborts the read with
    /// [`ExpFinderError::DeadlineExceeded`] carrying the partial stats.
    /// Composes with [`deadline`](Self::deadline), which is armed on this
    /// same token when it fires sooner than the token's own deadline: a
    /// read only ever tightens a caller's token. The token's check/fire counts are folded into
    /// [`ReadPath::cancel_totals`] when the read returns.
    pub fn cancel_token(mut self, token: Arc<CancelToken>) -> QuerySpec {
        self.token = Some(token);
        self
    }

    /// Run `read` on the spec's pattern, parsing its DSL text first
    /// ([`parser::parse_memoised`](expfinder_pattern::parser::parse_memoised)).
    pub(crate) fn read<R>(
        &self,
        read: impl FnOnce(&Pattern) -> Result<R, ExpFinderError>,
    ) -> Result<R, ExpFinderError> {
        match &self.source {
            SpecSource::Pattern(p) => read(p),
            SpecSource::Dsl(s) => read(&*expfinder_pattern::parser::parse_memoised(s)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_pattern::fixtures::fig1_pattern;

    fn engine_with_fig1() -> (ExpFinder, GraphHandle, expfinder_graph::fixtures::Fig1) {
        let f = collaboration_fig1();
        let e = ExpFinder::default();
        let h = e.add_graph("fig1", f.graph.clone()).unwrap();
        (e, h, f)
    }

    /// One `Route::Auto` read of `q`, without ranking.
    fn auto(e: &Catalog, h: &GraphHandle, q: &Pattern) -> Result<QueryResponse, ExpFinderError> {
        e.query(h, &QuerySpec::pattern(q.clone()))
    }

    #[test]
    fn evaluate_routes_direct_then_cache() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        let first = auto(&e, &h, &q).unwrap();
        assert_eq!(first.plan.chosen, PlanRoute::Snapshot);
        assert_eq!(first.matches.total_pairs(), 7);
        let second = auto(&e, &h, &q).unwrap();
        assert_eq!(second.plan.chosen, PlanRoute::Cache);
        assert_eq!(*second.matches, *first.matches);
        let stats = e.read_path().cache_stats();
        assert_eq!(stats.get("hits"), 1);
        assert_eq!(stats.get("misses"), 1);
    }

    #[test]
    fn simulation_pattern_answers_plain_simulation() {
        let (e, h, f) = engine_with_fig1();
        let q = fig1_pattern().as_simulation();
        let out = auto(&e, &h, &q).unwrap();
        assert_eq!(out.plan.chosen, PlanRoute::Snapshot);
        let want = expfinder_core::naive::naive_simulation(&f.graph, &q);
        assert_eq!(*out.matches, want, "bound-1 bounded simulation");
        assert!(out.matches.is_empty(), "paper: simulation fails on Fig. 1");
    }

    #[test]
    fn updates_invalidate_cache_via_version() {
        let (e, h, f) = engine_with_fig1();
        let q = fig1_pattern();
        let before = auto(&e, &h, &q).unwrap();
        assert_eq!(before.matches.total_pairs(), 7);
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let after = auto(&e, &h, &q).unwrap();
        assert_ne!(after.plan.chosen, PlanRoute::Cache, "version changed");
        assert_eq!(after.matches.total_pairs(), 8, "Fred joined");
        assert!(after.graph_version > before.graph_version);
    }

    #[test]
    fn compressed_route_preserves_results() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        let direct = auto(&e, &h, &q).unwrap().matches;
        let stats = e.compress(&h, CompressionMethod::Bisimulation).unwrap();
        assert!(stats.compressed_nodes <= stats.original_nodes);
        // the result is already cached for this version; ask for the
        // compressed route explicitly
        let out = e
            .query(&h, &QuerySpec::pattern(q).prefer(Route::Compressed))
            .unwrap();
        assert_eq!(out.plan.chosen, PlanRoute::Compressed);
        assert_eq!(*out.matches, *direct);
    }

    #[test]
    fn identity_attr_pattern_bypasses_compression() {
        let e = ExpFinder::default();
        let h = e.add_graph("fig1", collaboration_fig1().graph).unwrap();
        e.compress(&h, CompressionMethod::Bisimulation).unwrap();
        let q = expfinder_pattern::PatternBuilder::new()
            .node("bob", expfinder_pattern::Predicate::attr_eq("name", "Bob"))
            .build()
            .unwrap();
        let out = auto(&e, &h, &q).unwrap();
        assert_eq!(out.plan.chosen, PlanRoute::Snapshot, "not the quotient");
        assert_eq!(out.matches.total_pairs(), 1);
    }

    #[test]
    fn registered_query_is_maintained_and_preferred() {
        let (e, h, f) = engine_with_fig1();
        let q = fig1_pattern();
        e.register_query(&h, "team", q.clone()).unwrap();
        assert_eq!(e.registered_queries(&h).unwrap(), vec!["team"]);

        let out = auto(&e, &h, &q).unwrap();
        assert_eq!(out.plan.chosen, PlanRoute::Registered);
        assert_eq!(out.matches.total_pairs(), 7);

        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let maintained = e.registered_result(&h, "team").unwrap();
        assert_eq!(maintained.total_pairs(), 8);
        let out = auto(&e, &h, &q).unwrap();
        assert_eq!(out.plan.chosen, PlanRoute::Registered);
        assert_eq!(out.matches.total_pairs(), 8);
    }

    /// A reader holds no lock: a writer commits to completion while a
    /// `read_graph` closure is still running, and the closure goes on
    /// seeing the version it started with.
    #[test]
    fn a_reader_does_not_block_a_writer() {
        let (e, h, f) = engine_with_fig1();
        let insert = [EdgeUpdate::Insert(f.e1.0, f.e1.1)];
        let (before, inside, committed) = e
            .read_graph(&h, |g| {
                let before = (g.version(), g.has_edge(f.e1.0, f.e1.1));
                let writer = std::thread::scope(|s| {
                    s.spawn(|| e.apply_updates(&h, &insert).unwrap()).join()
                });
                let inside = (g.version(), g.has_edge(f.e1.0, f.e1.1));
                (before, inside, writer.unwrap())
            })
            .unwrap();
        assert_eq!(before, inside, "the held snapshot did not move");
        assert!(!inside.1);
        assert_eq!(committed.applied, 1);
        assert!(committed.graph_version > inside.0);
        let after = e.read_graph(&h, |g| (g.version(), g.has_edge(f.e1.0, f.e1.1)));
        assert_eq!(after.unwrap(), (committed.graph_version, true));
    }

    #[test]
    fn update_hook_sees_reports_in_order() {
        let (e, h, f) = engine_with_fig1();
        e.register_query(&h, "team", fig1_pattern()).unwrap();
        type SeenReports = Vec<(String, u64, Vec<RegisteredDelta>)>;
        let seen: Arc<Mutex<SeenReports>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        e.set_update_hook(Some(Arc::new(move |graph: &str, report: &UpdateReport| {
            sink.lock().unwrap_or_else(PoisonError::into_inner).push((
                graph.to_owned(),
                report.graph_version,
                report.registered.clone(),
            ));
        })));

        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        e.apply_updates(&h, &[EdgeUpdate::Delete(f.e1.0, f.e1.1)])
            .unwrap();

        let frames = seen.lock().unwrap_or_else(PoisonError::into_inner).clone();
        assert_eq!(frames.len(), 2);
        assert!(frames.iter().all(|(g, _, _)| g == "fig1"));
        assert!(frames[0].1 < frames[1].1, "versions strictly ordered");
        assert_eq!(frames[0].2.len(), 1, "ΔM present");
        assert_eq!(frames[0].2[0].delta(), 1);
        assert_eq!(frames[1].2[0].delta(), -1);

        e.set_update_hook(None);
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        assert_eq!(
            seen.lock().unwrap_or_else(PoisonError::into_inner).len(),
            2,
            "removed hook no longer fires"
        );
    }

    #[test]
    fn a_panicking_update_hook_leaves_the_graph_writable() {
        // the hook runs under the graph's write mutex, so its panic
        // poisons that lock; a poisoned lock hands its data on
        let (e, h, f) = engine_with_fig1();
        let (x, y) = f.e1;
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let first = Arc::clone(&fired);
        e.set_update_hook(Some(Arc::new(move |_: &str, _: &UpdateReport| {
            if !first.swap(true, Ordering::SeqCst) {
                panic!("update hook panics on its first call");
            }
        })));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.apply_updates(&h, &[EdgeUpdate::Insert(x, y)])
        }));
        assert!(panicked.is_err());

        let second = e.apply_updates(&h, &[EdgeUpdate::Insert(y, x)]).unwrap();
        assert_eq!(second.applied, 1);
        let both = e.read_graph(&h, |g| g.has_edge(x, y) && g.has_edge(y, x));
        assert!(both.unwrap(), "both batches applied");
        let got = e.query(&h, &QuerySpec::pattern(fig1_pattern())).unwrap();
        assert_eq!(got.graph_version, second.graph_version);
        let fresh = ExpFinder::default();
        let hf = fresh.add_graph("fig1", e.snapshot(&h).unwrap()).unwrap();
        let want = fresh
            .query(&hf, &QuerySpec::pattern(fig1_pattern()))
            .unwrap();
        assert_eq!(*got.matches, *want.matches);
        e.register_query(&h, "team", fig1_pattern()).unwrap();
        assert_eq!(e.registered_result(&h, "team").unwrap(), want.matches);
    }

    #[test]
    fn ranked_query_full_pipeline() {
        let (e, h, f) = engine_with_fig1();
        let report = e
            .query(&h, &QuerySpec::pattern(fig1_pattern()).top_k(1))
            .unwrap();
        assert_eq!(report.experts.len(), 1);
        assert_eq!(report.experts[0].node, f.bob);
        assert!((report.experts[0].rank - 1.8).abs() < 1e-12);
    }

    #[test]
    fn full_response() {
        let (e, h, f) = engine_with_fig1();
        let resp = e
            .query(&h, &QuerySpec::pattern(fig1_pattern()).top_k(2))
            .unwrap();
        assert_eq!(resp.matches.total_pairs(), 7);
        assert_eq!(resp.plan.chosen, PlanRoute::Snapshot);
        assert_eq!(resp.experts[0].node, f.bob);
        assert!(resp.timings.total >= resp.timings.rank);
    }

    #[test]
    fn dsl_spec_parses_at_read_time() {
        let (e, h, _) = engine_with_fig1();
        let resp = e
            .query(&h, &QuerySpec::dsl("node sa* where label = \"SA\";"))
            .unwrap();
        assert_eq!(resp.matches.total_pairs(), 2, "Bob and Walt");
        assert!(resp.experts.is_empty(), "no top_k requested");

        assert!(matches!(
            e.query(&h, &QuerySpec::dsl("node oops")),
            Err(ExpFinderError::Parse(_))
        ));
    }

    #[test]
    fn prefer_direct_skips_cache_and_registered() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        e.register_query(&h, "team", q.clone()).unwrap();
        let _ = auto(&e, &h, &q).unwrap(); // warm the cache
        let out = e
            .query(&h, &QuerySpec::pattern(q).prefer(Route::Direct))
            .unwrap();
        assert_eq!(out.plan.chosen, PlanRoute::Snapshot);
    }

    #[test]
    fn error_paths_and_stale_handles() {
        let e = ExpFinder::default();
        assert!(matches!(
            e.handle("ghost"),
            Err(ExpFinderError::UnknownGraph(_))
        ));
        let h = e.add_graph("g", DiGraph::new()).unwrap();
        assert!(matches!(
            e.add_graph("g", DiGraph::new()),
            Err(ExpFinderError::DuplicateGraph(_))
        ));
        assert!(matches!(
            e.registered_result(&h, "nope"),
            Err(ExpFinderError::UnknownQuery(_))
        ));
        assert!(h.is_live());
        // a writer that resolved the handle before the removal holds the
        // graph's slot while it waits for its mutex: once it locks, the
        // graph is unlisted, and the write runs nothing
        let racing = e.slot(&h).unwrap();
        e.remove_graph(&h).unwrap();
        assert!(matches!(
            e.apply_updates(&h, &[]),
            Err(ExpFinderError::StaleHandle(_))
        ));
        assert!(matches!(
            e.register_query(&h, "q", fig1_pattern()),
            Err(ExpFinderError::StaleHandle(_))
        ));
        assert!(racing.published.latest().registered_queries().is_empty());
        drop(racing);
        assert!(!h.is_live());
        assert!(matches!(
            e.remove_graph(&h),
            Err(ExpFinderError::StaleHandle(_))
        ));
        assert!(matches!(
            auto(&e, &h, &fig1_pattern()),
            Err(ExpFinderError::StaleHandle(_))
        ));
        // a new graph under the same name gets a fresh id; old handle
        // stays stale
        let h2 = e.add_graph("g", DiGraph::new()).unwrap();
        assert_ne!(h.id(), h2.id());
        assert!(matches!(
            auto(&e, &h, &fig1_pattern()),
            Err(ExpFinderError::StaleHandle(_))
        ));
    }

    #[test]
    fn compression_maintained_under_updates() {
        let (e, h, f) = engine_with_fig1();
        e.compress(&h, CompressionMethod::Bisimulation).unwrap();
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let q = fig1_pattern();
        let e2 = ExpFinder::default();
        let mut g2 = collaboration_fig1().graph;
        g2.add_edge(f.e1.0, f.e1.1);
        let h2 = e2.add_graph("fig1", g2).unwrap();
        let fresh = auto(&e2, &h2, &q).unwrap();
        let maintained = auto(&e, &h, &q).unwrap();
        assert_eq!(*maintained.matches, *fresh.matches);
        assert_eq!(maintained.plan.chosen, PlanRoute::Compressed);
    }

    #[test]
    fn foreign_handles_are_rejected() {
        let (a, ha, _) = engine_with_fig1();
        let b = ExpFinder::default();
        let hb = b.add_graph("fig1", collaboration_fig1().graph).unwrap();
        // B's graph has the id A's has: warm B's cache with it, so a read
        // resolving A's handle to B's graph would hit
        let _ = auto(&b, &hb, &fig1_pattern()).unwrap();

        assert!(matches!(
            auto(&b, &ha, &fig1_pattern()),
            Err(ExpFinderError::ForeignHandle(_))
        ));
        assert!(matches!(
            b.remove_graph(&ha),
            Err(ExpFinderError::ForeignHandle(_))
        ));
        assert!(matches!(
            b.query(&ha, &QuerySpec::pattern(fig1_pattern())),
            Err(ExpFinderError::ForeignHandle(_))
        ));
        // both engines still answer their own handles
        for (engine, handle) in [(&a, &ha), (&b, &hb)] {
            let out = auto(engine, handle, &fig1_pattern()).unwrap();
            assert_eq!(out.matches.total_pairs(), 7);
        }
    }

    #[test]
    fn path_like_graph_names_rejected() {
        let e = ExpFinder::default();
        for bad in ["", "..", "a/b", "a\\b", "../x", "x/..", "nul\0name"] {
            assert!(
                matches!(
                    e.add_graph(bad, DiGraph::new()),
                    Err(ExpFinderError::InvalidGraphName(_))
                ),
                "{bad:?} should be rejected"
            );
        }
        // ordinary names (including dots inside) are fine
        assert!(e.add_graph("fig.1-v2", DiGraph::new()).is_ok());
    }

    #[test]
    fn query_batch_matches_sequential_runs() {
        let (e, h, _) = engine_with_fig1();
        let specs = vec![
            QuerySpec::pattern(fig1_pattern()).top_k(2),
            QuerySpec::dsl("node sa* where label = \"SA\";"),
            QuerySpec::pattern(fig1_pattern()).prefer(Route::Direct),
        ];
        let batch = e.query_batch(&h, specs.clone(), None);
        assert_eq!(batch.len(), 3);
        for (i, spec) in specs.into_iter().enumerate() {
            let single = e.query_batch(&h, vec![spec], None).remove(0).unwrap();
            let b = batch[i].as_ref().unwrap();
            assert_eq!(*b.matches, *single.matches, "slot {i}");
            assert_eq!(
                b.experts.iter().map(|x| x.node).collect::<Vec<_>>(),
                single.experts.iter().map(|x| x.node).collect::<Vec<_>>()
            );
            assert_eq!(b.graph_version, single.graph_version);
        }
    }

    #[test]
    fn query_batch_isolates_per_slot_errors() {
        let (e, h, _) = engine_with_fig1();
        let specs = vec![
            QuerySpec::dsl("node oops"),
            QuerySpec::pattern(fig1_pattern()),
        ];
        let batch = e.query_batch(&h, specs, None);
        assert!(matches!(batch[0], Err(ExpFinderError::Parse(_))));
        assert_eq!(batch[1].as_ref().unwrap().matches.total_pairs(), 7);

        // stale handle fails every slot, not the call
        e.remove_graph(&h).unwrap();
        let batch = e.query_batch(&h, vec![QuerySpec::pattern(fig1_pattern())], None);
        assert!(matches!(batch[0], Err(ExpFinderError::StaleHandle(_))));
        // and an empty batch is a no-op
        assert!(e.query_batch(&h, Vec::new(), None).is_empty());
    }

    /// Admission compares the sequential estimate whatever the host's
    /// core count: on a graph where dividing the direct cost by four
    /// threads would undercut it, a 4-thread engine estimates the same.
    #[test]
    fn estimate_cost_does_not_depend_on_the_thread_budget() {
        use expfinder_graph::generate::{collaboration, CollabConfig};
        use rand::{rngs::StdRng, SeedableRng};
        let g = collaboration(
            &mut StdRng::seed_from_u64(43),
            &CollabConfig {
                teams: 125,
                ..CollabConfig::default()
            },
        );
        let q = fig1_pattern();
        let cost = |threads| {
            let e = ExpFinder::new(EngineConfig { threads });
            let h = e.add_graph("g", g.clone()).unwrap();
            e.estimate_cost(&h, &q).unwrap()
        };
        let direct = (g.size() * q.edge_count()) as f64;
        assert_eq!(cost(1), direct, "a cold graph costs size × pattern edges");
        assert_eq!(cost(4), direct);
    }

    #[test]
    fn parallel_exec_identical_to_sequential() {
        let f = collaboration_fig1();
        let seq = ExpFinder::new(EngineConfig::sequential());
        let par = ExpFinder::new(EngineConfig { threads: 4 });
        let hs = seq.add_graph("fig1", f.graph.clone()).unwrap();
        let hp = par.add_graph("fig1", f.graph.clone()).unwrap();
        let q = fig1_pattern();
        let rs = seq
            .query(&hs, &QuerySpec::pattern(q.clone()).top_k(3))
            .unwrap();
        let rp = par
            .query(&hp, &QuerySpec::pattern(q.clone()).top_k(3))
            .unwrap();
        assert_eq!(*rs.matches, *rp.matches);
        assert_eq!(rs.plan.chosen, rp.plan.chosen);
        assert_eq!(
            rs.experts
                .iter()
                .map(|x| (x.node, x.rank))
                .collect::<Vec<_>>(),
            rp.experts
                .iter()
                .map(|x| (x.node, x.rank))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn first_read_after_every_update_is_indexed_and_exact() {
        // an alternating update/read stream: every read is the first of
        // its version, goes direct on that snapshot's graph with a fresh
        // reach index, and must be exact and rank like a fresh engine
        use expfinder_core::naive::naive_bounded_simulation;
        let f = collaboration_fig1();
        let sequential = || ExpFinder::new(EngineConfig::sequential());
        let q = fig1_pattern();
        let run = |e: &ExpFinder, h: &GraphHandle| {
            e.query(
                h,
                &QuerySpec::pattern(q.clone()).prefer(Route::Direct).top_k(2),
            )
            .unwrap()
        };
        let ranked = |r: &QueryResponse| {
            r.experts
                .iter()
                .map(|x| (x.node, x.rank.to_bits()))
                .collect::<Vec<_>>()
        };
        let consulted = |e: &ExpFinder| {
            let t = e.read_path().index_counters();
            t.get("hits") + t.get("misses")
        };

        let e = sequential();
        let h = e.add_graph("fig1", f.graph.clone()).unwrap();
        let (insert, delete) = (
            EdgeUpdate::Insert(f.e1.0, f.e1.1),
            EdgeUpdate::Delete(f.e1.0, f.e1.1),
        );
        for (i, up) in [None, Some(insert), Some(delete), Some(insert)]
            .into_iter()
            .enumerate()
        {
            if let Some(up) = up {
                assert_eq!(e.apply_updates(&h, &[up]).unwrap().applied, 1);
            }
            let before = consulted(&e);
            let resp = run(&e, &h);
            assert!(consulted(&e) > before, "read {i} consulted the index");
            assert_eq!(resp.plan.chosen, PlanRoute::Snapshot);
            assert_eq!(resp.matches.total_pairs(), if i % 2 == 1 { 8 } else { 7 });
            let graph = e.snapshot(&h).unwrap();
            assert_eq!(
                *resp.matches,
                naive_bounded_simulation(&graph, &q),
                "read {i}"
            );
            let fresh = sequential();
            let hf = fresh.add_graph("fig1", graph).unwrap();
            assert_eq!(ranked(&resp), ranked(&run(&fresh, &hf)), "read {i}");
        }
    }

    #[test]
    fn reach_index_warms_and_is_carried_across_versions() {
        use expfinder_pattern::{Bound, PatternBuilder, Predicate};
        let f = collaboration_fig1();
        let e = ExpFinder::new(EngineConfig::sequential());
        let h = e.add_graph("fig1", f.graph.clone()).unwrap();
        // pure-label star: both constraints are class-seeded
        let q = PatternBuilder::new()
            .node("sa", Predicate::label("SA"))
            .node("sd", Predicate::label("SD"))
            .node("st", Predicate::label("ST"))
            .edge("sa", "sd", Bound::hops(2))
            .edge("sa", "st", Bound::hops(3))
            .build()
            .unwrap();
        let run = || {
            e.query(&h, &QuerySpec::pattern(q.clone()).prefer(Route::Direct))
                .unwrap()
        };

        let counters = e.read_path().index_counters();
        let [hits, built] = ["hits", "built"].map(|key| move || counters.get(key));
        let first = run(); // first read of the version builds the entries
        let t1 = e.index_totals();
        let (hits1, built1) = (hits(), built());
        assert!(hits1 >= 2, "class-seeded refreshes hit ({counters:?})");
        assert!(t1.entries >= 2 && t1.bytes > 0, "entries memoized ({t1:?})");

        let second = run(); // warm: same entries, more hits
        assert_eq!(*second.matches, *first.matches);
        let t2 = e.index_totals();
        let hits2 = hits();
        assert!(hits2 > hits1);
        assert_eq!(t2.entries, t1.entries, "no duplicate entries on reuse");

        // an update moves the version: the entries' distance columns are
        // carried, repaired, and thresholded by the new version's reads,
        // which must serve the new graph exactly — answers match a
        // from-scratch engine
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let after = run(); // first read of the new version: warm
        let fresh = ExpFinder::new(EngineConfig::sequential());
        let hf = fresh.add_graph("fig1", e.snapshot(&h).unwrap()).unwrap();
        let expect = fresh
            .query(&hf, &QuerySpec::pattern(q.clone()).prefer(Route::Direct))
            .unwrap();
        assert_eq!(*after.matches, *expect.matches, "carried entries repaired");
        let t3 = e.index_totals();
        assert!(hits() > hits2);
        let entries = t1.entries as u64;
        assert_eq!(built1, entries, "one build per entry");
        let carried = counters.get("carried");
        assert_eq!(carried, entries, "every bounded entry thresholded");
        assert_eq!(built(), built1, "the new version built nothing");
        assert_eq!(
            t3.entries,
            2 * t1.entries,
            "the old version's entries were replaced, not accumulated: the \
             new version's thresholded ones, and one carried column each"
        );
    }

    #[test]
    fn http_status_mapping_is_total_and_sane() {
        use std::error::Error as _;
        // every variant: its status, its exact message (HTTP error bodies
        // carry it) and whether it exposes an inner `source()`
        let parse = expfinder_pattern::parser::parse("node oops").unwrap_err();
        let cases: Vec<(ExpFinderError, u16, &str, bool)> = vec![
            (
                ExpFinderError::UnknownGraph("g".into()),
                404,
                "no graph named \"g\"",
                false,
            ),
            (
                ExpFinderError::UnknownQuery("q".into()),
                404,
                "no registered query named \"q\"",
                false,
            ),
            (
                ExpFinderError::StaleHandle("g".into()),
                404,
                "graph handle \"g\" is stale (the graph was removed)",
                false,
            ),
            (
                ExpFinderError::DuplicateGraph("g".into()),
                409,
                "graph \"g\" already exists",
                false,
            ),
            (
                ExpFinderError::DuplicateQuery("q".into()),
                409,
                "query \"q\" already registered",
                false,
            ),
            (
                ExpFinderError::InvalidGraphName("a/b".into()),
                400,
                "invalid graph name \"a/b\" (must be non-empty, without path \
                 separators or \"..\")",
                false,
            ),
            (
                ExpFinderError::ForeignHandle("g".into()),
                500,
                "graph handle \"g\" belongs to a different ExpFinder instance",
                false,
            ),
            (
                ExpFinderError::Storage("boom".into()),
                500,
                "storage error: boom",
                false,
            ),
            (
                ExpFinderError::DeadlineExceeded(EvalStats::default()),
                408,
                "query deadline exceeded during evaluation",
                false,
            ),
            (
                MatchError::NoOutputNode.into(),
                422,
                "match error: pattern has no output node to rank",
                true,
            ),
            (
                CompressError::NonSignatureAttr("id".into()).into(),
                422,
                "compression error: pattern predicate uses identity attribute \"id\" \
                 which the compressed graph does not preserve",
                true,
            ),
            (
                PatternError::EmptyPattern.into(),
                400,
                "pattern error: pattern has no nodes",
                true,
            ),
            (
                parse.into(),
                400,
                "pattern parse error: 1:10: expected ';', found end of input",
                true,
            ),
            (
                GraphIoError::Parse {
                    line: 3,
                    msg: "x".into(),
                }
                .into(),
                400,
                "graph io error: parse error at line 3: x",
                true,
            ),
            (std::io::Error::other("x").into(), 500, "io error: x", true),
            (
                ExpFinderError::SimulatedCrash,
                500,
                "simulated crash at injected I/O boundary",
                false,
            ),
        ];
        assert_eq!(cases.len(), 16, "one case per variant");
        for (e, status, msg, sourced) in cases {
            assert_eq!(e.http_status(), status, "{e}");
            assert_eq!(e.to_string(), msg);
            assert_eq!(e.source().is_some(), sourced, "{e}");
        }
    }

    #[test]
    fn a_graph_io_error_is_a_500_only_when_it_is_an_io_failure() {
        let full = std::io::Error::from(std::io::ErrorKind::StorageFull);
        let json = expfinder_graph::json::parse("{").unwrap_err();
        let parse = GraphIoError::Parse {
            line: 1,
            msg: "x".into(),
        };
        for (e, want) in [
            (GraphIoError::Io(full), 500),
            (GraphIoError::Json(json), 400),
            (parse, 400),
        ] {
            assert_eq!(ExpFinderError::from(e).http_status(), want);
        }
    }

    #[test]
    fn zero_deadline_aborts_and_leaves_engine_unpoisoned() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        let err = e
            .query(&h, &QuerySpec::pattern(q.clone()).deadline(Duration::ZERO))
            .unwrap_err();
        match &err {
            ExpFinderError::DeadlineExceeded(_) => {}
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert_eq!(err.http_status(), 408);
        assert!(err.partial_stats().is_some());
        assert!(
            e.read_path().cancel_totals().get("fired") >= 1,
            "fire transition drained"
        );
        // nothing was cached by the abort, and the next un-deadlined
        // query on the same engine matches a fresh evaluation
        let after = e.query(&h, &QuerySpec::pattern(q.clone())).unwrap();
        assert_ne!(after.plan.chosen, PlanRoute::Cache);
        let fresh = ExpFinder::default();
        let h2 = fresh.add_graph("fig1", collaboration_fig1().graph).unwrap();
        let expect = fresh.query(&h2, &QuerySpec::pattern(q)).unwrap();
        assert_eq!(*after.matches, *expect.matches);
    }

    #[test]
    fn a_deadline_never_loosens_a_tighter_caller_token() {
        let (e, h, _) = engine_with_fig1();
        let spec = || {
            QuerySpec::pattern(fig1_pattern())
                .cancel_token(CancelToken::with_deadline(Duration::ZERO))
                .deadline(Duration::from_secs(60))
        };
        match e.query(&h, &spec()) {
            Err(ExpFinderError::DeadlineExceeded(_)) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // a batch slot's own token under a looser batch-wide deadline
        let out = e.query_batch(&h, vec![spec()], Some(Duration::from_secs(60)));
        match &out[..] {
            [Err(ExpFinderError::DeadlineExceeded(_))] => {}
            other => panic!("expected one DeadlineExceeded slot, got {other:?}"),
        }
    }

    #[test]
    fn batch_deadline_zero_fails_every_slot_with_408() {
        let (e, h, _) = engine_with_fig1();
        let specs = vec![
            QuerySpec::pattern(fig1_pattern()),
            QuerySpec::dsl("node sa* where label = \"SA\";"),
        ];
        let out = e.query_batch(&h, specs, Some(Duration::ZERO));
        assert_eq!(out.len(), 2);
        for r in out {
            let err = r.unwrap_err();
            assert_eq!(err.http_status(), 408);
            assert!(err.partial_stats().is_some());
        }
        assert!(e.read_path().cancel_totals().get("fired") >= 1);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        let with = e
            .query(
                &h,
                &QuerySpec::pattern(q.clone()).deadline(Duration::from_secs(3600)),
            )
            .unwrap();
        assert_eq!(with.matches.total_pairs(), 7);
        assert_eq!(e.read_path().cancel_totals().get("fired"), 0);
        // a generous per-spec deadline in a batch is equally inert
        let out = e.query_batch(
            &h,
            vec![QuerySpec::pattern(q).deadline(Duration::from_secs(3600))],
            None,
        );
        assert_eq!(out[0].as_ref().unwrap().matches.total_pairs(), 7);
    }

    #[test]
    fn graph_infos_reflect_catalog_state() {
        let e = ExpFinder::default();
        assert!(e.graph_infos().is_empty());
        let h = e.add_graph("fig1", collaboration_fig1().graph).unwrap();
        e.add_graph("empty", DiGraph::new()).unwrap();
        e.register_query(&h, "team", fig1_pattern()).unwrap();
        e.compress(&h, CompressionMethod::Bisimulation).unwrap();

        let infos = e.graph_infos();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "empty", "sorted by name");
        assert_eq!(infos[0].nodes, 0);
        assert!(!infos[0].compressed);
        let fig1 = &infos[1];
        assert_eq!(fig1.name, "fig1");
        assert_eq!(fig1.nodes, 9);
        assert_eq!(fig1.registered_queries, 1);
        assert!(fig1.compressed);
        let v0 = fig1.version;

        let f = collaboration_fig1();
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        assert!(e.graph_infos()[1].version > v0);
    }

    #[test]
    fn updates_report_registered_deltas() {
        let (e, h, f) = engine_with_fig1();
        e.register_query(&h, "team", fig1_pattern()).unwrap();
        let report = e
            .apply_updates(
                &h,
                &[
                    EdgeUpdate::Insert(f.e1.0, f.e1.1),
                    // duplicate: a no-op that must not count as applied
                    EdgeUpdate::Insert(f.e1.0, f.e1.1),
                ],
            )
            .unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.attempted, 2);
        assert_eq!(report.registered.len(), 1);
        let d = &report.registered[0];
        assert_eq!(d.query, "team");
        assert_eq!(d.before_pairs, 7);
        assert_eq!(d.after_pairs, 8, "Fred joined the maintained result");
        assert_eq!(d.delta(), 1);
        assert_eq!(
            report.graph_version,
            e.read_graph(&h, |g| g.version()).unwrap()
        );
    }

    #[test]
    fn handles_are_cheap_and_comparable() {
        let (e, h, _) = engine_with_fig1();
        let h2 = h.clone();
        let h3 = e.handle("fig1").unwrap();
        assert_eq!(h, h2);
        assert_eq!(h, h3);
        assert_eq!(h.name(), "fig1");
        assert_eq!(format!("{h}"), format!("fig1#{}", h.id()));
    }

    #[test]
    fn every_response_carries_a_plan_decision() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        // cost-modeled evaluation: the direct route is the only candidate
        let first = e.query(&h, &QuerySpec::pattern(q.clone())).unwrap();
        assert_eq!(first.plan.chosen, PlanRoute::Snapshot);
        assert!(!first.plan.overridden);
        assert_eq!(
            first.plan.candidates[0].route,
            PlanRoute::Snapshot,
            "the direct route was costed: {:?}",
            first.plan.candidates
        );
        // exact short circuit: the cache hit is recorded without costing
        let second = e.query(&h, &QuerySpec::pattern(q.clone())).unwrap();
        assert_eq!(second.plan.chosen, PlanRoute::Cache);
        assert!(second.plan.candidates.is_empty());
        // a preference is recorded as an override, not a silent branch
        let forced = e
            .query(&h, &QuerySpec::pattern(q).prefer(Route::Direct))
            .unwrap();
        assert!(forced.plan.overridden);
        let t = e.read_path().planner_totals();
        assert_eq!(t.get("decisions"), 3);
        assert_eq!(t.get("overrides"), 1);
    }
}
