//! The ExpFinder query engine — the system of Fig. 2 of the paper,
//! redesigned as a **shareable, handle-based service**.
//!
//! The engine is two types split along the line the type system can
//! enforce. [`Catalog`] is the read side: the name → graph map behind one
//! `RwLock`, the one [`ReadPath`], the update hook, and *every read* —
//! [`Catalog::evaluate`], [`Catalog::find_experts`],
//! [`Catalog::query_deadline`], the fluent [`Catalog::query`] builder,
//! [`Catalog::query_batch`], the catalog listings and the metrics feeds.
//! [`ExpFinder`] is a `Catalog` (it [`Deref`]s to one) plus the unlogged
//! writes, all of them one primitive, [`ExpFinder::write`]: lock the
//! graph's [`MaintainedGraph`], run the operation, publish the next
//! immutable [`Snapshot`] into the graph's [`PublishedGraph`] slot. The
//! durable runtime is built *out of* these, not beside them: it wraps an
//! `ExpFinder`, derefs to the same `Catalog`, and exposes only writes
//! that append to a WAL before calling `ExpFinder::write`.
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
//! [`ReadPath`]: (1) the version-keyed result cache, (2) registered
//! incrementally-maintained queries, and otherwise (3) the cost-based
//! [`planner`], which estimates the work of every applicable physical
//! route — the live adjacency, the reach-indexed CSR snapshot
//! (sequential or parallel), the compressed quotient when one exists and
//! the query is compression-safe — from the graph's [`CostProfile`] and
//! picks the cheapest; then one `expfinder_core::evaluate` call on the
//! winning substrate (quadratic simulation for 1-bounded patterns, cubic
//! bounded simulation for the rest), the result graph and the top-K
//! rank — or a prefix of the ranked answer the cache slot already
//! holds. The read path reads a published [`Snapshot`] and nothing else;
//! the catalog's part of a read is resolving the handle to its graph's
//! latest one ([`Catalog::handle`], [`Catalog::latest`]) — the same call
//! on both facades. Every
//! [`QueryResponse`] carries the full [`PlanDecision`]. Updates flow
//! through [`ExpFinder::apply_updates`] into the graph's
//! [`MaintainedGraph`] — the one write path of both facades — which
//! maintains the graph, its compressed counterpart and every registered
//! query in one pass and then publishes the next snapshot.
//!
//! Execution is parallel by default ([`ExecConfig`]): direct evaluation
//! runs the parallel refinement of `expfinder-core` over an immutable
//! [`CsrGraph`](expfinder_graph::CsrGraph) snapshot that the read path
//! builds lazily once per graph version and shares through that
//! version's [`Derived`] state, and whole batches of queries are
//! drained across a scoped worker pool by [`Catalog::query_batch`].
//! Parallelism never changes answers — the refinement computes the same
//! greatest fixpoint — and `ExecConfig::sequential()` restores the fully
//! deterministic single-threaded schedule.
//!
//! ```
//! use expfinder_engine::{ExpFinder, Route};
//! use expfinder_graph::fixtures::collaboration_fig1;
//! use expfinder_pattern::fixtures::fig1_pattern;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(ExpFinder::default());
//! let h = engine.add_graph("fig1", collaboration_fig1().graph).unwrap();
//! let resp = engine
//!     .query(&h)
//!     .pattern(fig1_pattern())
//!     .top_k(2)
//!     .prefer(Route::Auto)
//!     .run()
//!     .unwrap();
//! assert_eq!(resp.matches.total_pairs(), 7);
//! assert_eq!(resp.experts.len(), 2);
//! ```

pub mod cache;
pub mod planner;
pub mod read_path;
pub mod report;
pub mod shell;
pub mod state;
pub mod storage;

pub use planner::{
    CandidateCost, CostInputs, CostProfile, PlanContext, PlanDecision, PlanRoute, PlannerTotals,
};
pub use read_path::ReadPath;
pub use state::{Derived, MaintainedGraph, PublishedGraph, Snapshot};

use expfinder_compress::{CompressError, CompressStats, CompressionMethod};
pub use expfinder_core::CancelToken;
use expfinder_core::{EvalStats, MatchError, MatchRelation, RankedMatch};
use expfinder_graph::io::GraphIoError;
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::parser::ParseError;
use expfinder_pattern::{Pattern, PatternError};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use thiserror::Error;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Cached query results kept per engine (LRU).
    pub cache_capacity: usize,
    /// Parallel execution knobs (per-query threads + batch fan-out).
    pub exec: ExecConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 64,
            exec: ExecConfig::default(),
        }
    }
}

/// Parallel execution configuration.
///
/// Both knobs default to [`std::thread::available_parallelism`]. Set
/// `threads: 1` for fully sequential, deterministic-schedule execution
/// (the escape hatch tests use); results are bit-identical either way —
/// the parallel refinement computes the same greatest fixpoint.
#[derive(Copy, Clone, Debug)]
pub struct ExecConfig {
    /// Worker threads *inside* one query: parallel sim/dualsim/bsim
    /// refinement over the CSR snapshot, and result-graph construction.
    /// `1` disables the parallel path; large graphs still evaluate over
    /// the CSR snapshot (sequential frontier engine, label-indexed
    /// seeding), while graphs too small to amortize a snapshot stay on
    /// the live adjacency whatever the budget.
    pub threads: usize,
    /// Queries evaluated concurrently by [`Catalog::query_batch`].
    pub batch_parallelism: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ExecConfig {
            threads: cores,
            batch_parallelism: cores,
        }
    }
}

impl ExecConfig {
    /// Fully sequential execution: one thread everywhere.
    pub fn sequential() -> Self {
        ExecConfig {
            threads: 1,
            batch_parallelism: 1,
        }
    }
}

/// The single error hierarchy of the public API: every layer's failure
/// (matching, compression, pattern assembly, the DSL parser, IO) is
/// collapsed into this enum via `#[from]` conversions.
#[derive(Debug, Error)]
pub enum ExpFinderError {
    #[error("no graph named {0:?}")]
    UnknownGraph(String),
    #[error("graph {0:?} already exists")]
    DuplicateGraph(String),
    #[error("graph handle {0:?} is stale (the graph was removed)")]
    StaleHandle(String),
    #[error("graph handle {0:?} belongs to a different ExpFinder instance")]
    ForeignHandle(String),
    #[error("invalid graph name {0:?} (must be non-empty, without path separators or \"..\")")]
    InvalidGraphName(String),
    #[error("no registered query named {0:?}")]
    UnknownQuery(String),
    #[error("query {0:?} already registered")]
    DuplicateQuery(String),
    #[error("query builder needs a pattern before run()")]
    MissingPattern,
    #[error("match error: {0}")]
    Match(#[from] MatchError),
    #[error("compression error: {0}")]
    Compress(#[from] CompressError),
    #[error("pattern error: {0}")]
    Pattern(#[from] PatternError),
    #[error("pattern parse error: {0}")]
    Parse(#[from] ParseError),
    #[error("graph io error: {0}")]
    GraphIo(#[from] GraphIoError),
    #[error("io error: {0}")]
    Io(#[from] std::io::Error),
    #[error("storage error: {0}")]
    Storage(String),
    #[error("query deadline exceeded during evaluation")]
    DeadlineExceeded(EvalStats),
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
            // the request itself is malformed
            InvalidGraphName(_) | MissingPattern | Pattern(_) | Parse(_) | GraphIo(_) => 400,
            // well-formed but unprocessable against this graph
            Match(_) | Compress(_) => 422,
            // the query's deadline fired mid-evaluation
            DeadlineExceeded(_) => 408,
            // server-side faults: cross-engine handles never come off the
            // wire, and IO/storage failures are not the client's doing
            ForeignHandle(_) | Io(_) | Storage(_) => 500,
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
/// Distinct from [`EvalRoute`], which reports the route actually taken.
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

/// How a query was answered — surfaced so the demo (and the tests) can
/// verify the routing described in §II.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EvalRoute {
    /// Served from the result cache.
    Cache,
    /// Served from a registered query's incrementally-maintained state.
    Registered,
    /// Evaluated on the compressed graph, then expanded.
    Compressed,
    /// Evaluated directly with the quadratic simulation algorithm.
    DirectSimulation,
    /// Evaluated directly with the cubic bounded-simulation algorithm.
    DirectBounded,
}

impl EvalRoute {
    /// The reported route of a plan: the exact and compressed routes name
    /// themselves, every direct substrate (live, snapshot, parallel)
    /// reports the algorithm the pattern selected.
    pub fn of(chosen: PlanRoute, simulation: bool) -> EvalRoute {
        match chosen {
            PlanRoute::Cache => EvalRoute::Cache,
            PlanRoute::Registered => EvalRoute::Registered,
            PlanRoute::Compressed => EvalRoute::Compressed,
            _ if simulation => EvalRoute::DirectSimulation,
            _ => EvalRoute::DirectBounded,
        }
    }
}

/// Wall-clock breakdown of one [`QueryBuilder::run`].
#[derive(Copy, Clone, Debug, Default)]
pub struct QueryTimings {
    /// Evaluating the match relation (including cache/registered hits).
    pub evaluate: Duration,
    /// Building the result graph and ranking (zero if no `top_k`).
    pub rank: Duration,
    /// End-to-end time inside the engine.
    pub total: Duration,
}

/// Everything one fluent query returns.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Best-K matches of the output node (empty unless `top_k` was set).
    pub experts: Vec<RankedMatch>,
    /// The full match relation `M(Q,G)`.
    pub matches: Arc<MatchRelation>,
    /// The route that produced the relation.
    pub route: EvalRoute,
    /// The graph version the response corresponds to.
    pub graph_version: u64,
    /// Wall-clock breakdown.
    pub timings: QueryTimings,
    /// The planner's verdict: chosen route, the route it would have
    /// picked without a preference, and every costed candidate — the
    /// `timings.plan` object on the wire.
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

/// Result of [`ExpFinder::apply_updates_traced`].
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
/// snapshots from, and the write side that publishes into it. The mutex
/// serializes writers of this graph only; readers never take it.
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
/// [`Deref`] to it: [`ExpFinder`] adds the unlogged writes, the durable
/// runtime wraps an `ExpFinder` and exposes only writes that append to its
/// WAL first — so a durable graph is read exactly like an in-memory one and
/// has no write that skips the log.
pub struct Catalog {
    /// Process-unique id of this engine instance; handles carry it so a
    /// handle from one engine cannot address another.
    engine_id: u64,
    graphs: RwLock<HashMap<Arc<str>, Arc<GraphSlot>>>,
    /// The shared read path: result cache, scratch pool, thread budget
    /// and the cumulative planner / evaluation / cancellation counters.
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

/// Cumulative cancellation totals, from [`ReadPath::cancel_totals`] —
/// the `engine.cancel` block of `GET /metrics`. Disarmed checks are not
/// counted (they are a single relaxed load by design); `checked` counts
/// armed polls, `fired` counts deadline/cancel transitions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CancelTotals {
    /// Armed cancellation polls performed inside evaluations.
    pub checked: u64,
    /// Tokens that fired (one per deadline-aborted evaluation).
    pub fired: u64,
}

/// Cumulative ranking totals, from [`ReadPath::rank_totals`] — the
/// `engine.rank` block of `GET /metrics`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RankTotals {
    /// Ranked answers computed: result graph built and ranked.
    pub computed: u64,
    /// Ranked answers served from the query cache's slot.
    pub reused: u64,
}

/// Point-in-time reach-index totals across every managed graph, from
/// [`Catalog::index_totals`] — the `engine.index` block of
/// `GET /metrics`. `hits`/`misses` are cumulative across the engine's
/// lifetime (they survive per-version invalidation); `entries`/`bytes`
/// are live gauges over the currently held indexes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexTotals {
    /// Class-seeded first refreshes served from an index entry.
    pub hits: u64,
    /// First refreshes that consulted a provider but ran the BFS.
    pub misses: u64,
    /// Memoized entries currently held across all graphs.
    pub entries: usize,
    /// Bytes retained by those entries.
    pub bytes: usize,
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
    /// every committed update batch. While a hook is installed, update
    /// batches are always traced — the hook sees the full ΔM report even
    /// when the caller used the untraced [`ExpFinder::apply_updates`].
    pub fn set_update_hook(&self, hook: Option<UpdateHook>) {
        *self.update_hook.write() = hook;
    }

    /// The read path every query is answered through — the source of
    /// the cache / evaluation / planner / cancellation counters.
    pub fn read_path(&self) -> &ReadPath {
        &self.read
    }

    /// Resolve a handle to its graph slot, rejecting handles from other
    /// engines (their ids would alias this engine's cache keys) and
    /// handles whose graph was removed.
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
        match self.graphs.read().get(name) {
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
        let mut names: Vec<String> = self.graphs.read().keys().map(|n| n.to_string()).collect();
        names.sort();
        names
    }

    /// A summary of every managed graph (sorted by name) — the catalog
    /// view the serving layer exposes on `GET /graphs` and `/metrics`.
    pub fn graph_infos(&self) -> Vec<GraphInfo> {
        let graphs = self.graphs.read();
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

    /// Start a fluent query against one graph:
    ///
    /// ```ignore
    /// let resp = engine.query(&h).pattern(p).top_k(10).run()?;
    /// ```
    pub fn query(&self, handle: &GraphHandle) -> QueryBuilder<'_> {
        QueryBuilder {
            catalog: self,
            handle: handle.clone(),
            pattern: None,
            top_k: None,
            prefer: Route::Auto,
            deadline: None,
            token: None,
        }
    }

    /// Evaluate a pattern on a graph, routing per paper §II.
    pub fn evaluate(
        &self,
        handle: &GraphHandle,
        pattern: &Pattern,
    ) -> Result<QueryResponse, ExpFinderError> {
        self.query_deadline(handle, pattern, None, Route::Auto, None)
    }

    /// The paper's headline operation: evaluate, rank by social impact,
    /// return the top-K experts for the pattern's output node.
    pub fn find_experts(
        &self,
        handle: &GraphHandle,
        pattern: &Pattern,
        k: usize,
    ) -> Result<QueryResponse, ExpFinderError> {
        self.query_deadline(handle, pattern, Some(k), Route::Auto, None)
    }

    /// One query on a borrowed pattern under an optional evaluation
    /// budget — the non-fluent twin of [`Catalog::query`]: once
    /// `deadline` has elapsed the evaluation abandons work at its next
    /// cancellation point and returns
    /// [`ExpFinderError::DeadlineExceeded`] with the partial
    /// [`EvalStats`].
    pub fn query_deadline(
        &self,
        handle: &GraphHandle,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        deadline: Option<Duration>,
    ) -> Result<QueryResponse, ExpFinderError> {
        let token = deadline.map(CancelToken::with_deadline);
        let cancel = token.as_deref();
        self.read
            .query(|| self.latest(handle), pattern, top_k, prefer, cancel)
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

    /// Reach-index totals: cumulative hits/misses plus live entry/byte
    /// gauges summed over every managed graph's per-version indexes
    /// (direct and compressed) — the `engine.index` block of
    /// `GET /metrics`.
    pub fn index_totals(&self) -> IndexTotals {
        let graphs = self.graphs.read();
        let latest = graphs.values().map(|slot| slot.published.latest());
        self.read.index_totals(latest)
    }

    /// Execute a whole batch of queries against one graph, draining them
    /// across a scoped worker pool of `exec.batch_parallelism` threads —
    /// the workload shape of a production service (and of expert-finding
    /// benchmarks, which evaluate over *sets* of queries).
    ///
    /// Results come back in spec order, one `Result` per spec, so a single
    /// malformed DSL string fails its own slot without sinking the batch.
    /// Each query runs on the snapshot it grabbed and reports the
    /// `graph_version` it observed; every response individually equals a
    /// sequential [`QueryBuilder::run`] at that version (property-tested),
    /// but a batch racing a writer may span versions. The thread budget
    /// is split between batch workers and per-query refinement
    /// ([`ReadPath::query_batch`]).
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
    /// let responses = engine.query_batch(&h, specs);
    /// assert_eq!(responses.len(), 2);
    /// assert_eq!(responses[0].as_ref().unwrap().experts.len(), 2);
    /// assert_eq!(responses[1].as_ref().unwrap().matches.total_pairs(), 2);
    /// ```
    pub fn query_batch(
        &self,
        handle: &GraphHandle,
        specs: Vec<QuerySpec>,
    ) -> Vec<Result<QueryResponse, ExpFinderError>> {
        self.query_batch_deadline(handle, specs, None)
    }

    /// [`Catalog::query_batch`] under one shared deadline: a single
    /// [`CancelToken`] armed with `deadline` is polled by every worker,
    /// so slots still running when the budget runs out come back as
    /// [`ExpFinderError::DeadlineExceeded`] while already-finished slots
    /// keep their results. A per-spec [`QuerySpec::deadline`] further
    /// tightens (never extends) the batch budget for its own slot.
    pub fn query_batch_deadline(
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
            read: ReadPath::new(config.cache_capacity, config.exec),
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
    /// part-way — before the mutex is released. Every write below is this with a [`MaintainedGraph`]
    /// method for `op`; the durable runtime calls it with the same
    /// methods and a WAL append for their `log` argument.
    pub fn write<T>(
        &self,
        handle: &GraphHandle,
        op: impl FnOnce(&mut MaintainedGraph) -> Result<T, ExpFinderError>,
    ) -> Result<T, ExpFinderError> {
        let slot = self.slot(handle)?;
        let mut core = slot.core.lock();
        let out = op(&mut core);
        core.publish(&slot.published);
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
    /// and quotient (the durable runtime's recovery replays a WAL onto a
    /// [`MaintainedGraph`] offline and adds the result here, published
    /// once).
    pub fn add_maintained(
        &self,
        name: &str,
        mut core: MaintainedGraph,
    ) -> Result<GraphHandle, ExpFinderError> {
        validate_graph_name(name)?;
        let mut graphs = self.graphs.write();
        if graphs.contains_key(name) {
            return Err(ExpFinderError::DuplicateGraph(name.to_owned()));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let published = PublishedGraph::new(id, core.graph());
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
        let mut graphs = self.graphs.write();
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
        self.write(handle, |core| {
            core.register(query_name, pattern, |_| Ok(()))
        })
    }

    /// Drop a registered query.
    pub fn unregister_query(
        &self,
        handle: &GraphHandle,
        query_name: &str,
    ) -> Result<(), ExpFinderError> {
        self.write(handle, |core| core.unregister(query_name, || Ok(())))
    }

    // ------------------------------ updates ------------------------------

    /// Apply edge updates to a graph, maintaining its compression and its
    /// registered queries along the way, on the caller's thread under that
    /// one graph's write mutex (readers are unaffected: they keep the
    /// snapshot they hold, and the next read sees the new one). Returns how
    /// many updates actually changed the graph (duplicates/no-ops are
    /// skipped).
    pub fn apply_updates(
        &self,
        handle: &GraphHandle,
        updates: &[EdgeUpdate],
    ) -> Result<usize, ExpFinderError> {
        Ok(self.apply_updates_inner(handle, updates, false)?.applied)
    }

    /// Like [`ExpFinder::apply_updates`], but also reports the graph
    /// version after the batch and the maintained-result size of every
    /// registered query before and after, all measured inside the same
    /// commit — the ΔM report `POST /graphs/{name}/updates` returns.
    pub fn apply_updates_traced(
        &self,
        handle: &GraphHandle,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ExpFinderError> {
        self.apply_updates_inner(handle, updates, true)
    }

    /// [`MaintainedGraph::apply`], then publish, then the hook.
    fn apply_updates_inner(
        &self,
        handle: &GraphHandle,
        updates: &[EdgeUpdate],
        trace: bool,
    ) -> Result<UpdateReport, ExpFinderError> {
        // an installed hook forces tracing so its frames always carry ΔM
        let hook = self.update_hook.read().clone();
        let trace = trace || hook.is_some();
        let slot = self.slot(handle)?;
        let mut core = slot.core.lock();
        let report = core.apply(updates, trace);
        // whatever the batch changed is published even when maintenance
        // failed part-way: a durable owner has already logged it
        core.publish(&slot.published);
        let report = report?;
        if let Some(hook) = &hook {
            // still under the graph's write mutex: per-graph hook calls
            // are totally ordered by commit
            hook(handle.name(), &report);
        }
        Ok(report)
    }
}

/// Graph names double as catalog file stems (`<name>.efg`, and the
/// runtime's `<name>.wal`), so names that could escape the catalog
/// directory are rejected up front. Exported for the shard runtime,
/// which reuses the same name-as-file-stem convention.
pub fn validate_graph_name(name: &str) -> Result<(), ExpFinderError> {
    let bad = name.is_empty()
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

/// Fluent request builder returned by [`Catalog::query`].
///
/// Chain [`pattern`](Self::pattern) (or [`dsl`](Self::dsl)), optionally
/// [`top_k`](Self::top_k) and [`prefer`](Self::prefer), then
/// [`run`](Self::run). The whole run — routing, evaluation, result-graph
/// construction and ranking — happens on one published snapshot of the
/// target graph, so the response is consistent even with concurrent
/// writers.
#[must_use = "QueryBuilder does nothing until .run()"]
pub struct QueryBuilder<'a> {
    catalog: &'a Catalog,
    handle: GraphHandle,
    pattern: Option<Result<Pattern, ExpFinderError>>,
    top_k: Option<usize>,
    prefer: Route,
    deadline: Option<Duration>,
    token: Option<Arc<CancelToken>>,
}

impl QueryBuilder<'_> {
    /// The pattern to evaluate.
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = Some(Ok(pattern));
        self
    }

    /// The pattern to evaluate, written in the text DSL. Parse errors
    /// surface at [`run`](Self::run).
    pub fn dsl(mut self, dsl: &str) -> Self {
        self.pattern = Some(expfinder_pattern::parser::parse(dsl).map_err(ExpFinderError::from));
        self
    }

    /// Also rank the output node's matches and return the best `k`.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Routing preference (default [`Route::Auto`]).
    pub fn prefer(mut self, route: Route) -> Self {
        self.prefer = route;
        self
    }

    /// Evaluation budget, measured from [`run`](Self::run): once it has
    /// elapsed, the evaluation abandons work at its next cancellation
    /// point and returns [`ExpFinderError::DeadlineExceeded`] carrying
    /// the partial [`EvalStats`]. No deadline (the default) costs a
    /// single relaxed atomic load per cancellation point.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Poll a caller-supplied [`CancelToken`] at every cancellation
    /// point, so `cancel()` from another thread (a disconnected client,
    /// a supervisor, a deterministic test fuse) aborts the run with
    /// [`ExpFinderError::DeadlineExceeded`] carrying the partial stats.
    /// Composes with [`deadline`](Self::deadline), which arms its budget
    /// on this same token. The token's check/fire counts are folded into
    /// [`ReadPath::cancel_totals`] when the run returns.
    pub fn cancel_token(mut self, token: Arc<CancelToken>) -> Self {
        self.token = Some(token);
        self
    }

    /// Execute the query.
    pub fn run(self) -> Result<QueryResponse, ExpFinderError> {
        let pattern = match self.pattern {
            None => return Err(ExpFinderError::MissingPattern),
            Some(Err(e)) => return Err(e),
            Some(Ok(p)) => p,
        };
        let token = match (self.token, self.deadline) {
            (Some(t), Some(d)) => {
                t.arm_deadline(d);
                Some(t)
            }
            (Some(t), None) => Some(t),
            (None, d) => d.map(CancelToken::with_deadline),
        };
        let (catalog, cancel) = (self.catalog, token.as_deref());
        let resolve = || catalog.latest(&self.handle);
        catalog
            .read
            .query(resolve, &pattern, self.top_k, self.prefer, cancel)
    }
}

/// How one [`QuerySpec`] names its pattern.
#[derive(Clone, Debug)]
pub(crate) enum SpecSource {
    Pattern(Pattern),
    Dsl(String),
}

/// One query of a batch: a pattern (or DSL text parsed at execution
/// time), an optional `top_k`, and a routing preference — the owned
/// counterpart of [`QueryBuilder`] that [`Catalog::query_batch`] can
/// fan out across threads.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    pub(crate) source: SpecSource,
    pub(crate) top_k: Option<usize>,
    pub(crate) prefer: Route,
    pub(crate) deadline: Option<Duration>,
}

impl QuerySpec {
    /// A spec from an assembled pattern.
    pub fn pattern(pattern: Pattern) -> QuerySpec {
        QuerySpec {
            source: SpecSource::Pattern(pattern),
            top_k: None,
            prefer: Route::Auto,
            deadline: None,
        }
    }

    /// A spec from DSL text; parse errors surface in the batch slot.
    pub fn dsl(dsl: impl Into<String>) -> QuerySpec {
        QuerySpec {
            source: SpecSource::Dsl(dsl.into()),
            top_k: None,
            prefer: Route::Auto,
            deadline: None,
        }
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

    /// Evaluation budget for this slot, measured from the moment the
    /// batch worker picks it up. Combined with a batch-wide deadline the
    /// *tighter* of the two applies.
    pub fn deadline(mut self, budget: Duration) -> QuerySpec {
        self.deadline = Some(budget);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_pattern::fixtures::fig1_pattern;

    /// Padding target for tests that want the planner's snapshot routes
    /// to win: large enough that an amortized (or thread-divided) CSR
    /// build beats the live adjacency.
    const PAD_SIZE: usize = 4096;

    fn engine_with_fig1() -> (ExpFinder, GraphHandle, expfinder_graph::fixtures::Fig1) {
        let f = collaboration_fig1();
        let e = ExpFinder::default();
        let h = e.add_graph("fig1", f.graph.clone()).unwrap();
        (e, h, f)
    }

    #[test]
    fn evaluate_routes_direct_then_cache() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        let first = e.evaluate(&h, &q).unwrap();
        assert_eq!(first.route, EvalRoute::DirectBounded);
        assert_eq!(first.matches.total_pairs(), 7);
        let second = e.evaluate(&h, &q).unwrap();
        assert_eq!(second.route, EvalRoute::Cache);
        assert_eq!(*second.matches, *first.matches);
        let stats = e.read_path().cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn simulation_pattern_routes_to_quadratic() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern().as_simulation();
        let out = e.evaluate(&h, &q).unwrap();
        assert_eq!(out.route, EvalRoute::DirectSimulation);
        assert!(out.matches.is_empty(), "paper: simulation fails on Fig. 1");
    }

    #[test]
    fn updates_invalidate_cache_via_version() {
        let (e, h, f) = engine_with_fig1();
        let q = fig1_pattern();
        let before = e.evaluate(&h, &q).unwrap();
        assert_eq!(before.matches.total_pairs(), 7);
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let after = e.evaluate(&h, &q).unwrap();
        assert_ne!(after.route, EvalRoute::Cache, "version changed");
        assert_eq!(after.matches.total_pairs(), 8, "Fred joined");
        assert!(after.graph_version > before.graph_version);
    }

    #[test]
    fn compressed_route_preserves_results() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        let direct = e.evaluate(&h, &q).unwrap().matches;
        let stats = e.compress(&h, CompressionMethod::Bisimulation).unwrap();
        assert!(stats.compressed_nodes <= stats.original_nodes);
        // the result is already cached for this version; ask for the
        // compressed route explicitly through the builder
        let out = e
            .query(&h)
            .pattern(q)
            .prefer(Route::Compressed)
            .run()
            .unwrap();
        assert_eq!(out.route, EvalRoute::Compressed);
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
        let out = e.evaluate(&h, &q).unwrap();
        assert_eq!(out.route, EvalRoute::DirectSimulation);
        assert_eq!(out.matches.total_pairs(), 1);
    }

    #[test]
    fn registered_query_is_maintained_and_preferred() {
        let (e, h, f) = engine_with_fig1();
        let q = fig1_pattern();
        e.register_query(&h, "team", q.clone()).unwrap();
        assert_eq!(e.registered_queries(&h).unwrap(), vec!["team"]);

        let out = e.evaluate(&h, &q).unwrap();
        assert_eq!(out.route, EvalRoute::Registered);
        assert_eq!(out.matches.total_pairs(), 7);

        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let maintained = e.registered_result(&h, "team").unwrap();
        assert_eq!(maintained.total_pairs(), 8);
        let out = e.evaluate(&h, &q).unwrap();
        assert_eq!(out.route, EvalRoute::Registered);
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
                    s.spawn(|| e.apply_updates_traced(&h, &insert).unwrap())
                        .join()
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
    fn update_hook_sees_traced_reports_in_order() {
        let (e, h, f) = engine_with_fig1();
        e.register_query(&h, "team", fig1_pattern()).unwrap();
        type SeenReports = Vec<(String, u64, Vec<RegisteredDelta>)>;
        let seen: Arc<parking_lot::Mutex<SeenReports>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        e.set_update_hook(Some(Arc::new(move |graph: &str, report: &UpdateReport| {
            sink.lock().push((
                graph.to_owned(),
                report.graph_version,
                report.registered.clone(),
            ));
        })));

        // untraced entry point: the hook forces tracing anyway
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        e.apply_updates(&h, &[EdgeUpdate::Delete(f.e1.0, f.e1.1)])
            .unwrap();

        let frames = seen.lock().clone();
        assert_eq!(frames.len(), 2);
        assert!(frames.iter().all(|(g, _, _)| g == "fig1"));
        assert!(frames[0].1 < frames[1].1, "versions strictly ordered");
        assert_eq!(frames[0].2.len(), 1, "ΔM present despite untraced call");
        assert_eq!(frames[0].2[0].delta(), 1);
        assert_eq!(frames[1].2[0].delta(), -1);

        e.set_update_hook(None);
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        assert_eq!(seen.lock().len(), 2, "removed hook no longer fires");
    }

    #[test]
    fn find_experts_full_pipeline() {
        let (e, h, f) = engine_with_fig1();
        let report = e.find_experts(&h, &fig1_pattern(), 1).unwrap();
        assert_eq!(report.experts.len(), 1);
        assert_eq!(report.experts[0].node, f.bob);
        assert!((report.experts[0].rank - 1.8).abs() < 1e-12);
    }

    #[test]
    fn builder_full_response() {
        let (e, h, f) = engine_with_fig1();
        let resp = e.query(&h).pattern(fig1_pattern()).top_k(2).run().unwrap();
        assert_eq!(resp.matches.total_pairs(), 7);
        assert_eq!(resp.route, EvalRoute::DirectBounded);
        assert_eq!(resp.experts[0].node, f.bob);
        assert!(resp.timings.total >= resp.timings.rank);
    }

    #[test]
    fn builder_dsl_and_missing_pattern() {
        let (e, h, _) = engine_with_fig1();
        let resp = e
            .query(&h)
            .dsl("node sa* where label = \"SA\";")
            .run()
            .unwrap();
        assert_eq!(resp.matches.total_pairs(), 2, "Bob and Walt");
        assert!(resp.experts.is_empty(), "no top_k requested");

        assert!(matches!(
            e.query(&h).run(),
            Err(ExpFinderError::MissingPattern)
        ));
        assert!(matches!(
            e.query(&h).dsl("node oops").run(),
            Err(ExpFinderError::Parse(_))
        ));
    }

    #[test]
    fn builder_prefer_direct_skips_cache_and_registered() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        e.register_query(&h, "team", q.clone()).unwrap();
        let _ = e.evaluate(&h, &q).unwrap(); // warm the cache
        let out = e.query(&h).pattern(q).prefer(Route::Direct).run().unwrap();
        assert_eq!(out.route, EvalRoute::DirectBounded);
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
        e.remove_graph(&h).unwrap();
        assert!(!h.is_live());
        assert!(matches!(
            e.remove_graph(&h),
            Err(ExpFinderError::StaleHandle(_))
        ));
        assert!(matches!(
            e.evaluate(&h, &fig1_pattern()),
            Err(ExpFinderError::StaleHandle(_))
        ));
        // a new graph under the same name gets a fresh id; old handle
        // stays stale
        let h2 = e.add_graph("g", DiGraph::new()).unwrap();
        assert_ne!(h.id(), h2.id());
        assert!(matches!(
            e.evaluate(&h, &fig1_pattern()),
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
        let fresh = e2.evaluate(&h2, &q).unwrap();
        let maintained = e.evaluate(&h, &q).unwrap();
        assert_eq!(*maintained.matches, *fresh.matches);
        assert_eq!(maintained.route, EvalRoute::Compressed);
    }

    #[test]
    fn foreign_handles_are_rejected() {
        let (a, ha, _) = engine_with_fig1();
        let b = ExpFinder::default();
        let hb = b.add_graph("fig1", collaboration_fig1().graph).unwrap();
        // warm B's cache with its own graph so any id aliasing would hit
        let _ = b.evaluate(&hb, &fig1_pattern()).unwrap();

        assert!(matches!(
            b.evaluate(&ha, &fig1_pattern()),
            Err(ExpFinderError::ForeignHandle(_))
        ));
        assert!(matches!(
            b.remove_graph(&ha),
            Err(ExpFinderError::ForeignHandle(_))
        ));
        assert!(matches!(
            b.query(&ha).pattern(fig1_pattern()).run(),
            Err(ExpFinderError::ForeignHandle(_))
        ));
        // both engines still answer their own handles
        assert_eq!(
            a.evaluate(&ha, &fig1_pattern())
                .unwrap()
                .matches
                .total_pairs(),
            7
        );
        assert_eq!(
            b.evaluate(&hb, &fig1_pattern())
                .unwrap()
                .matches
                .total_pairs(),
            7
        );
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
        let batch = e.query_batch(&h, specs.clone());
        assert_eq!(batch.len(), 3);
        for (i, spec) in specs.into_iter().enumerate() {
            let single = e.query_batch(&h, vec![spec]).remove(0).unwrap();
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
        let batch = e.query_batch(&h, specs);
        assert!(matches!(batch[0], Err(ExpFinderError::Parse(_))));
        assert_eq!(batch[1].as_ref().unwrap().matches.total_pairs(), 7);

        // stale handle fails every slot, not the call
        e.remove_graph(&h).unwrap();
        let batch = e.query_batch(&h, vec![QuerySpec::pattern(fig1_pattern())]);
        assert!(matches!(batch[0], Err(ExpFinderError::StaleHandle(_))));
        // and an empty batch is a no-op
        assert!(e.query_batch(&h, Vec::new()).is_empty());
    }

    #[test]
    fn parallel_exec_identical_to_sequential() {
        let f = collaboration_fig1();
        let seq = ExpFinder::new(EngineConfig {
            exec: ExecConfig::sequential(),
            ..EngineConfig::default()
        });
        let par = ExpFinder::new(EngineConfig {
            exec: ExecConfig {
                threads: 4,
                batch_parallelism: 4,
            },
            ..EngineConfig::default()
        });
        let hs = seq.add_graph("fig1", f.graph.clone()).unwrap();
        let hp = par.add_graph("fig1", f.graph.clone()).unwrap();
        let q = fig1_pattern();
        let rs = seq.query(&hs).pattern(q.clone()).top_k(3).run().unwrap();
        let rp = par.query(&hp).pattern(q.clone()).top_k(3).run().unwrap();
        assert_eq!(*rs.matches, *rp.matches);
        assert_eq!(rs.route, rp.route);
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
    fn csr_snapshot_rebuilt_after_updates() {
        // fig1 plus inert padding so the graph crosses the parallel-path
        // size threshold (a bare fig1 stays on the sequential path)
        let f = collaboration_fig1();
        let mut g = f.graph.clone();
        while g.size() < PAD_SIZE {
            g.add_node("pad", []);
        }
        let e = ExpFinder::new(EngineConfig {
            exec: ExecConfig {
                threads: 2,
                batch_parallelism: 1,
            },
            ..EngineConfig::default()
        });
        let h = e.add_graph("fig1", g).unwrap();
        let q = fig1_pattern();
        let before = e
            .query(&h)
            .pattern(q.clone())
            .prefer(Route::Direct)
            .run()
            .unwrap();
        assert_eq!(before.matches.total_pairs(), 7);
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        // the cached snapshot is stale by version; the next parallel query
        // must rebuild it and see Fred
        let after = e.query(&h).pattern(q).prefer(Route::Direct).run().unwrap();
        assert_eq!(after.matches.total_pairs(), 8, "snapshot was refreshed");
        assert!(after.graph_version > before.graph_version);
    }

    #[test]
    fn sequential_csr_path_correct_across_updates() {
        // big graph + fully sequential engine: the first read at a
        // version stays on the live adjacency, the second builds and
        // uses the snapshot (build-on-second-read) — answers must be
        // exact on every step of an alternating update/query stream
        let f = collaboration_fig1();
        let mut g = f.graph.clone();
        while g.size() < PAD_SIZE {
            g.add_node("pad", []);
        }
        let e = ExpFinder::new(EngineConfig {
            exec: ExecConfig::sequential(),
            ..EngineConfig::default()
        });
        let h = e.add_graph("fig1", g).unwrap();
        let q = fig1_pattern();
        let run = || {
            e.query(&h)
                .pattern(q.clone())
                .prefer(Route::Direct)
                .top_k(2)
                .run()
                .unwrap()
        };
        assert_eq!(run().matches.total_pairs(), 7, "first read (live)");
        assert_eq!(run().matches.total_pairs(), 7, "second read (snapshot)");
        assert_eq!(run().matches.total_pairs(), 7, "third read (snapshot)");
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        assert_eq!(run().matches.total_pairs(), 8, "post-update read (live)");
        assert_eq!(
            run().matches.total_pairs(),
            8,
            "post-update read (snapshot)"
        );
        e.apply_updates(&h, &[EdgeUpdate::Delete(f.e1.0, f.e1.1)])
            .unwrap();
        let resp = run();
        assert_eq!(resp.matches.total_pairs(), 7);
        assert_eq!(resp.experts[0].node, f.bob, "ranking agrees on every path");
    }

    #[test]
    fn reach_index_warms_and_invalidates_across_versions() {
        use expfinder_pattern::{Bound, PatternBuilder, Predicate};
        // fig1 plus inert padding so the CSR (and hence the index) path
        // engages on the sequential engine
        let f = collaboration_fig1();
        let mut g = f.graph.clone();
        while g.size() < PAD_SIZE {
            g.add_node("pad", []);
        }
        let e = ExpFinder::new(EngineConfig {
            exec: ExecConfig::sequential(),
            ..EngineConfig::default()
        });
        let h = e.add_graph("fig1", g).unwrap();
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
            e.query(&h)
                .pattern(q.clone())
                .prefer(Route::Direct)
                .run()
                .unwrap()
        };

        let first = run(); // live adjacency: no snapshot, no index
        assert_eq!(e.index_totals().hits, 0, "live route never consults it");
        let second = run(); // second sequential read builds CSR + index
        assert_eq!(*second.matches, *first.matches);
        let t1 = e.index_totals();
        assert!(t1.hits >= 2, "class-seeded refreshes hit ({t1:?})");
        assert!(t1.entries >= 2 && t1.bytes > 0, "entries memoized ({t1:?})");

        let third = run(); // warm: same entries, more hits
        assert_eq!(*third.matches, *first.matches);
        let t2 = e.index_totals();
        assert!(t2.hits > t1.hits);
        assert_eq!(t2.entries, t1.entries, "no duplicate entries on reuse");

        // an update moves the version: the stale index must never serve
        // the new graph — answers match a from-scratch engine
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let after_live = run(); // first read of the new version (live)
        let after_warm = run(); // second read: fresh CSR + fresh index
        assert_eq!(*after_warm.matches, *after_live.matches);
        let fresh = ExpFinder::new(EngineConfig {
            exec: ExecConfig::sequential(),
            ..EngineConfig::default()
        });
        let hf = fresh.add_graph("fig1", e.snapshot(&h).unwrap()).unwrap();
        let expect = fresh
            .query(&hf)
            .pattern(q.clone())
            .prefer(Route::Direct)
            .run()
            .unwrap();
        assert_eq!(*after_warm.matches, *expect.matches, "index invalidated");
        let t3 = e.index_totals();
        assert!(t3.hits > t2.hits);
        assert_eq!(
            t3.entries, t1.entries,
            "old version's entries were dropped, not accumulated"
        );
    }

    #[test]
    fn parallel_route_consults_the_index_with_identical_results() {
        let f = collaboration_fig1();
        let mut g = f.graph.clone();
        while g.size() < PAD_SIZE {
            g.add_node("pad", []);
        }
        let e = ExpFinder::new(EngineConfig {
            exec: ExecConfig {
                threads: 3,
                batch_parallelism: 1,
            },
            ..EngineConfig::default()
        });
        let h = e.add_graph("fig1", g.clone()).unwrap();
        let q = fig1_pattern();
        let r1 = e
            .query(&h)
            .pattern(q.clone())
            .prefer(Route::Direct)
            .run()
            .unwrap();
        let r2 = e
            .query(&h)
            .pattern(q.clone())
            .prefer(Route::Direct)
            .run()
            .unwrap();
        assert_eq!(*r1.matches, *r2.matches);
        assert_eq!(r1.matches.total_pairs(), 7);
        let t = e.index_totals();
        // fig1_pattern seeds carry attr predicates, but at least the
        // provider was consulted on the parallel route
        assert!(t.hits + t.misses > 0, "parallel route is wired ({t:?})");
    }

    #[test]
    fn http_status_mapping_is_total_and_sane() {
        let cases: Vec<(ExpFinderError, u16)> = vec![
            (ExpFinderError::UnknownGraph("g".into()), 404),
            (ExpFinderError::UnknownQuery("q".into()), 404),
            (ExpFinderError::StaleHandle("g".into()), 404),
            (ExpFinderError::DuplicateGraph("g".into()), 409),
            (ExpFinderError::DuplicateQuery("q".into()), 409),
            (ExpFinderError::InvalidGraphName("a/b".into()), 400),
            (ExpFinderError::MissingPattern, 400),
            (ExpFinderError::ForeignHandle("g".into()), 500),
            (ExpFinderError::Storage("boom".into()), 500),
            (ExpFinderError::DeadlineExceeded(EvalStats::default()), 408),
        ];
        for (e, want) in cases {
            assert_eq!(e.http_status(), want, "{e}");
        }
        // #[from] variants keep their class
        let parse = expfinder_pattern::parser::parse("node oops").unwrap_err();
        assert_eq!(ExpFinderError::from(parse).http_status(), 400);
        let io = std::io::Error::other("x");
        assert_eq!(ExpFinderError::from(io).http_status(), 500);
    }

    #[test]
    fn zero_deadline_aborts_and_leaves_engine_unpoisoned() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        let err = e
            .query(&h)
            .pattern(q.clone())
            .deadline(Duration::ZERO)
            .run()
            .unwrap_err();
        match &err {
            ExpFinderError::DeadlineExceeded(_) => {}
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert_eq!(err.http_status(), 408);
        assert!(err.partial_stats().is_some());
        assert!(
            e.read_path().cancel_totals().fired >= 1,
            "fire transition drained"
        );
        // nothing was cached by the abort, and the next un-deadlined
        // query on the same engine matches a fresh evaluation
        let after = e.query(&h).pattern(q.clone()).run().unwrap();
        assert_ne!(after.route, EvalRoute::Cache);
        let fresh = ExpFinder::default();
        let h2 = fresh.add_graph("fig1", collaboration_fig1().graph).unwrap();
        let expect = fresh.query(&h2).pattern(q).run().unwrap();
        assert_eq!(*after.matches, *expect.matches);
    }

    #[test]
    fn batch_deadline_zero_fails_every_slot_with_408() {
        let (e, h, _) = engine_with_fig1();
        let specs = vec![
            QuerySpec::pattern(fig1_pattern()),
            QuerySpec::dsl("node sa* where label = \"SA\";"),
        ];
        let out = e.query_batch_deadline(&h, specs, Some(Duration::ZERO));
        assert_eq!(out.len(), 2);
        for r in out {
            let err = r.unwrap_err();
            assert_eq!(err.http_status(), 408);
            assert!(err.partial_stats().is_some());
        }
        assert!(e.read_path().cancel_totals().fired >= 1);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let (e, h, _) = engine_with_fig1();
        let q = fig1_pattern();
        let with = e
            .query(&h)
            .pattern(q.clone())
            .deadline(Duration::from_secs(3600))
            .run()
            .unwrap();
        assert_eq!(with.matches.total_pairs(), 7);
        assert_eq!(e.read_path().cancel_totals().fired, 0);
        // a generous per-spec deadline in a batch is equally inert
        let out = e.query_batch(
            &h,
            vec![QuerySpec::pattern(q).deadline(Duration::from_secs(3600))],
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
    fn traced_updates_report_registered_deltas() {
        let (e, h, f) = engine_with_fig1();
        e.register_query(&h, "team", fig1_pattern()).unwrap();
        let report = e
            .apply_updates_traced(
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
        // the untraced path agrees on applied counts
        let n = e
            .apply_updates(&h, &[EdgeUpdate::Delete(f.e1.0, f.e1.1)])
            .unwrap();
        assert_eq!(n, 1);
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
        // cost-modeled evaluation: candidates present, live wins on tiny
        let first = e.query(&h).pattern(q.clone()).run().unwrap();
        assert_eq!(first.plan.chosen, PlanRoute::Live);
        assert!(!first.plan.overridden);
        assert!(
            first.plan.candidates.len() >= 2,
            "live and snapshot were costed: {:?}",
            first.plan.candidates
        );
        // exact short circuit: the cache hit is recorded without costing
        let second = e.query(&h).pattern(q.clone()).run().unwrap();
        assert_eq!(second.plan.chosen, PlanRoute::Cache);
        assert!(second.plan.candidates.is_empty());
        // a preference is recorded as an override, not a silent branch
        let forced = e.query(&h).pattern(q).prefer(Route::Direct).run().unwrap();
        assert!(forced.plan.overridden);
        let t = e.read_path().planner_totals();
        assert_eq!(t.decisions, 3);
        assert_eq!(t.overrides, 1);
    }

    #[test]
    fn planner_warms_into_the_snapshot_route_and_resets_on_update() {
        // the acceptance workload: repeated reads of one version migrate
        // live → snapshot as the build amortizes; an update batch resets
        // the window and the next read drops back to the live adjacency
        let f = collaboration_fig1();
        let mut g = f.graph.clone();
        while g.size() < PAD_SIZE {
            g.add_node("pad", []);
        }
        let e = ExpFinder::new(EngineConfig {
            exec: ExecConfig::sequential(),
            ..EngineConfig::default()
        });
        let h = e.add_graph("fig1", g).unwrap();
        let q = fig1_pattern();
        let run = || {
            e.query(&h)
                .pattern(q.clone())
                .prefer(Route::Direct)
                .run()
                .unwrap()
        };
        assert_eq!(run().plan.chosen, PlanRoute::Live, "cold first read");
        assert_eq!(run().plan.chosen, PlanRoute::Snapshot, "amortized");
        assert_eq!(run().plan.chosen, PlanRoute::Snapshot, "sunk build");
        e.apply_updates(&h, &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let post = run();
        assert_eq!(post.plan.chosen, PlanRoute::Live, "window reset");
        let snap = post
            .plan
            .candidates
            .iter()
            .find(|c| c.route == PlanRoute::Snapshot)
            .unwrap();
        assert!(
            snap.cost.is_infinite(),
            "stale snapshot has no amortization horizon"
        );
    }
}
