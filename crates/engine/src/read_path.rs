//! The read path — paper §II's query engine, implemented once.
//!
//! cache → registered (incremental) → plan → evaluate → result graph →
//! top-K rank (or the ranked answer the cache slot already holds), plus
//! the batch fan-out and the admission-control cost estimate, all live in
//! [`ReadPath`]. It reads one thing: a published [`Snapshot`] — one graph
//! at one version, immutable, with everything a query needs travelling
//! along. A facade's whole share of a read is the `resolve` closure it
//! passes, which upgrades a handle or looks a name up and clones the
//! latest snapshot `Arc`; no lock is held while the read runs.

use crate::cache::{CacheKey, CacheStats, Hit, QueryCache};
use crate::planner::{self, PlanContext, PlanDecision, PlanRoute, PlannerCounters};
use crate::{
    CancelTotals, EvalRoute, ExecConfig, ExpFinderError, IndexTotals, PlannerTotals, QueryResponse,
    QuerySpec, QueryTimings, RankTotals, Route, Snapshot, SpecSource,
};
use expfinder_core::{
    evaluate, rank_matches_top_k_cancellable, BuildOptions, CancelToken, EvalError, EvalRequest,
    EvalScratch, EvalStats, MatchRelation, RankedMatch, ResultGraph, ScratchPool, Semantics,
};
use expfinder_graph::GraphView;
use expfinder_pattern::Pattern;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock-free accumulator behind [`ReadPath::eval_totals`].
#[derive(Default)]
struct EvalTotals {
    refreshes: AtomicU64,
    removals: AtomicU64,
    refreshes_skipped: AtomicU64,
    bfs_nodes_visited: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
}

impl EvalTotals {
    fn add(&self, s: EvalStats) {
        self.refreshes
            .fetch_add(s.refreshes as u64, Ordering::Relaxed);
        self.removals
            .fetch_add(s.removals as u64, Ordering::Relaxed);
        self.refreshes_skipped
            .fetch_add(s.refreshes_skipped as u64, Ordering::Relaxed);
        self.bfs_nodes_visited
            .fetch_add(s.bfs_nodes_visited as u64, Ordering::Relaxed);
        self.index_hits
            .fetch_add(s.index_hits as u64, Ordering::Relaxed);
        self.index_misses
            .fetch_add(s.index_misses as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> EvalStats {
        EvalStats {
            refreshes: self.refreshes.load(Ordering::Relaxed) as usize,
            removals: self.removals.load(Ordering::Relaxed) as usize,
            refreshes_skipped: self.refreshes_skipped.load(Ordering::Relaxed) as usize,
            bfs_nodes_visited: self.bfs_nodes_visited.load(Ordering::Relaxed) as usize,
            index_hits: self.index_hits.load(Ordering::Relaxed) as usize,
            index_misses: self.index_misses.load(Ordering::Relaxed) as usize,
        }
    }
}

/// Lock-free accumulator behind [`ReadPath::cancel_totals`]: every
/// deadline-carrying query drains its token's counters here when it
/// finishes (successfully or by abort).
#[derive(Default)]
struct CancelCounters {
    checked: AtomicU64,
    fired: AtomicU64,
}

impl CancelCounters {
    fn drain(&self, token: &CancelToken) {
        self.checked.fetch_add(token.checks(), Ordering::Relaxed);
        self.fired.fetch_add(token.fired(), Ordering::Relaxed);
    }
}

/// Lock-free accumulator behind [`ReadPath::rank_totals`].
#[derive(Default)]
struct RankCounters {
    computed: AtomicU64,
    reused: AtomicU64,
}

/// What routing hands back to [`ReadPath::execute`]: the relation (with
/// the experts, when a cache hit's slot already determined the top K
/// asked for), how it was obtained, and the work that took.
type Routed = (Hit, PlanDecision, EvalStats);

/// The shared read path of both service facades. Owns everything a read
/// touches that is not the graph itself: the version-keyed result cache,
/// the pooled [`EvalScratch`]es (fluent queries, batch workers and HTTP
/// workers each check one out, so steady-state serving reuses BFS
/// frontiers, reach caches and counter buffers instead of allocating per
/// request), the cumulative planner / evaluation / cancellation counters
/// behind `GET /metrics`, and the thread budget.
pub struct ReadPath {
    exec: ExecConfig,
    cache: Mutex<QueryCache>,
    scratch: ScratchPool,
    planner: PlannerCounters,
    rank_totals: RankCounters,
    eval_totals: EvalTotals,
    cancel_totals: CancelCounters,
}

impl ReadPath {
    pub fn new(cache_capacity: usize, exec: ExecConfig) -> ReadPath {
        ReadPath {
            exec,
            cache: Mutex::new(QueryCache::new(cache_capacity)),
            scratch: ScratchPool::new(),
            planner: PlannerCounters::default(),
            rank_totals: RankCounters::default(),
            eval_totals: EvalTotals::default(),
            cancel_totals: CancelCounters::default(),
        }
    }

    /// Answer one query against the snapshot `resolve` hands out: routing,
    /// evaluation, result-graph construction and ranking all see that one
    /// state, with `exec.threads` workers for the parallel stages.
    /// `cancel` is polled at every cancellation point; a fired token
    /// aborts with [`ExpFinderError::DeadlineExceeded`] carrying the
    /// partial [`EvalStats`], and its check/fire counts are folded into
    /// [`ReadPath::cancel_totals`] either way.
    pub fn query(
        &self,
        resolve: impl FnOnce() -> Result<Arc<Snapshot>, ExpFinderError>,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryResponse, ExpFinderError> {
        let threads = self.exec.threads.max(1);
        let out = self.scratch.with(|scratch| {
            self.execute(
                resolve, pattern, top_k, prefer, threads, scratch, cancel, true,
            )
        });
        if let Some(t) = cancel {
            self.cancel_totals.drain(t);
        }
        out
    }

    /// Execute a whole batch of queries, draining them across a scoped
    /// worker pool of `exec.batch_parallelism` threads. Results come back
    /// in spec order, one `Result` per spec; each slot resolves its own
    /// snapshot — a graph removed mid-batch fails its remaining slots — and
    /// reports the `graph_version` it observed.
    ///
    /// The thread budget is split, not multiplied: with `w` batch workers
    /// active, each query refines with `exec.threads / w` (min 1) inner
    /// threads, so a batch never runs more than `threads + w` threads
    /// total — batch-level parallelism is the better lever when there are
    /// many queries, per-query parallelism when there is one.
    ///
    /// A `deadline` arms one [`CancelToken`] polled by every worker, so
    /// slots still running when the budget runs out come back as
    /// [`ExpFinderError::DeadlineExceeded`] while already-finished slots
    /// keep their results. A per-spec [`QuerySpec::deadline`] further
    /// tightens (never extends) the batch budget for its own slot.
    pub fn query_batch(
        &self,
        resolve: impl Fn() -> Result<Arc<Snapshot>, ExpFinderError> + Sync,
        specs: &[QuerySpec],
        deadline: Option<Duration>,
    ) -> Vec<Result<QueryResponse, ExpFinderError>> {
        if specs.is_empty() {
            return Vec::new();
        }
        let batch_token = deadline.map(CancelToken::with_deadline);
        let batch_cancel = batch_token.as_deref();
        let workers = self.exec.batch_parallelism.clamp(1, specs.len());
        let inner_threads = (self.exec.threads / workers).max(1);
        let indices: Vec<usize> = (0..specs.len()).collect();
        // one pooled EvalScratch per batch worker, reused across its slots
        let pairs = expfinder_core::parallel::run_items(
            workers,
            &indices,
            || self.scratch.take(),
            |scratch, &i| {
                let spec = &specs[i];
                (
                    i,
                    self.run_spec(&resolve, spec, inner_threads, scratch, batch_cancel),
                )
            },
        );
        let out = match pairs {
            Some(mut pairs) => {
                pairs.sort_by_key(|(i, _)| *i);
                pairs.into_iter().map(|(_, r)| r).collect()
            }
            None => {
                let threads = self.exec.threads.max(1);
                let mut scratch = self.scratch.take();
                specs
                    .iter()
                    .map(|sp| self.run_spec(&resolve, sp, threads, &mut scratch, batch_cancel))
                    .collect()
            }
        };
        if let Some(t) = &batch_token {
            self.cancel_totals.drain(t);
        }
        out
    }

    /// Resolve one [`QuerySpec`] (parsing its DSL if needed, so a parse
    /// error fails its own slot) and run it with the given inner-thread
    /// budget. A per-spec deadline becomes its own token, clipped to
    /// whatever remains of the batch budget; otherwise the shared batch
    /// token (if any) is polled directly.
    fn run_spec(
        &self,
        resolve: impl FnOnce() -> Result<Arc<Snapshot>, ExpFinderError>,
        spec: &QuerySpec,
        threads: usize,
        scratch: &mut EvalScratch,
        batch_cancel: Option<&CancelToken>,
    ) -> Result<QueryResponse, ExpFinderError> {
        let parsed;
        let pattern = match &spec.source {
            SpecSource::Pattern(p) => p,
            SpecSource::Dsl(s) => {
                parsed = expfinder_pattern::parser::parse(s)?;
                &parsed
            }
        };
        let own = spec.deadline.map(|d| {
            let budget = batch_cancel
                .and_then(CancelToken::remaining)
                .map_or(d, |left| left.min(d));
            CancelToken::with_deadline(budget)
        });
        let cancel = own.as_deref().or(batch_cancel);
        let out = self.execute(
            resolve,
            pattern,
            spec.top_k,
            spec.prefer,
            threads,
            scratch,
            cancel,
            false, // a batch slot fills the ranked slot but is not served from it
        );
        if let Some(t) = &own {
            self.cancel_totals.drain(t);
        }
        out
    }

    /// Resolve, evaluate, rank: the whole of one read, timed.
    ///
    /// `serve_held` says whether the ranked list the cache slot already
    /// holds may answer the read. Single reads pass `true`. Batch slots
    /// pass `false`: they rank afresh and only *fill* the slot. That is a
    /// staging decision, not a design one — served from the list, `/batch`
    /// throughput on a hot pool rises ~40×, and the repo benchmark's
    /// run-to-run spread bound (a quarter of the *parent commit's* median)
    /// cannot resolve a rate that far from its parent (CHANGES.md, PR 17).
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        resolve: impl FnOnce() -> Result<Arc<Snapshot>, ExpFinderError>,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        threads: usize,
        scratch: &mut EvalScratch,
        cancel: Option<&CancelToken>,
        serve_held: bool,
    ) -> Result<QueryResponse, ExpFinderError> {
        let started = Instant::now();
        let state = resolve()?;
        let fingerprint = pattern.fingerprint();
        let key = QueryCache::key_for(state.id, state.version(), &fingerprint);
        let slot = (&key, fingerprint.as_str(), top_k.filter(|_| serve_held));
        let ((matches, held), plan, stats) =
            self.route_and_eval(&state, pattern, slot, prefer, threads, scratch, cancel)?;
        let route = EvalRoute::of(plan.chosen, pattern.is_simulation());
        let evaluate_time = started.elapsed();

        let rank_started = Instant::now();
        let experts = match (top_k, held) {
            (None, _) => Vec::new(),
            (_, Some(held)) => {
                self.rank_totals.reused.fetch_add(1, Ordering::Relaxed);
                held
            }
            (Some(k), None) => {
                self.rank_totals.computed.fetch_add(1, Ordering::Relaxed);
                // rank over the CSR snapshot whenever this version has one;
                // building one merely to rank would cost more than it saves
                let derived = &state.derived;
                let ranked = match derived.csr_if_built() {
                    Some(csr) => rank(csr, pattern, &matches, k, threads, cancel),
                    None => rank(state.graph(), pattern, &matches, k, threads, cancel),
                };
                let experts = ranked.map_err(|e| match e {
                    EvalError::Pattern(e) => e.into(),
                    // the relation is finished and stays cached; the
                    // ranked list is all or nothing
                    EvalError::Cancelled(_) => ExpFinderError::DeadlineExceeded(stats),
                })?;
                let mut cache = self.cache.lock();
                cache.put_ranked(&key, &fingerprint, &experts, k);
                experts
            }
        };
        let rank_time = rank_started.elapsed();

        Ok(QueryResponse {
            experts,
            matches,
            route,
            graph_version: state.version(),
            timings: QueryTimings {
                evaluate: evaluate_time,
                rank: rank_time,
                total: started.elapsed(),
            },
            plan,
        })
    }

    /// Route and evaluate against one state. The exact-result short
    /// circuits (cache, registered) run first, in paper §II order;
    /// everything after them is decided by the cost-based [`planner`]
    /// from the graph's [`CostProfile`]. A non-`Auto` `prefer` takes no
    /// separate code path — the planner still produces its decision and
    /// records the override.
    #[allow(clippy::too_many_arguments)]
    fn route_and_eval(
        &self,
        state: &Snapshot,
        pattern: &Pattern,
        (key, fingerprint, top_k): (&CacheKey, &str, Option<usize>),
        prefer: Route,
        threads: usize,
        scratch: &mut EvalScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<Routed, ExpFinderError> {
        // a token that fired before evaluation even started (deadline
        // consumed upstream, or admission-level cancel) aborts here, with
        // zero work to report
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(ExpFinderError::DeadlineExceeded(EvalStats::default()));
        }
        let version = state.version();
        let exact = |route, hit| {
            let plan = PlanDecision::exact(route);
            self.planner.on_decision(&plan);
            (hit, plan, EvalStats::default())
        };

        if prefer == Route::Auto {
            // 1. cache (the fingerprint guards against key-hash collisions)
            if let Some(hit) = self.cache.lock().get(key, fingerprint, top_k) {
                return Ok(exact(PlanRoute::Cache, hit));
            }
            // 2. registered incremental state
            if let Some(matches) = state.registered(fingerprint) {
                self.cache
                    .lock()
                    .put(*key, fingerprint, Arc::clone(&matches));
                return Ok(exact(PlanRoute::Registered, (matches, None)));
            }
        }

        // 3. plan: cost every applicable physical route and take the
        // cheapest; only a `Direct` preference keeps the quotient out
        let derived = &state.derived;
        let mut plan = plan_routes(state, pattern, prefer != Route::Direct, threads);
        plan.apply_preference(prefer);

        // 4. evaluate on the chosen substrate. The snapshot and quotient
        // routes consult their per-version [`ReachIndex`], so on a warm
        // version every class-seeded first refresh is one bitset copy.
        // All routes compute the same greatest fixpoint. A fired token
        // surfaces as `Cancelled` before any torn state is cached or
        // applied (see `expfinder-core`), so an aborted evaluation leaves
        // scratch, cache and profile untouched.
        let mut req = EvalRequest {
            scratch: Some(scratch),
            cancel,
            threads: if plan.chosen == PlanRoute::SnapshotParallel {
                threads
            } else {
                1
            },
            ..EvalRequest::new(if pattern.is_simulation() {
                Semantics::Simulation
            } else {
                Semantics::Bounded
            })
        };
        let evaluated = match plan.chosen {
            PlanRoute::Compressed => {
                let gc = state
                    .quotient()
                    .expect("compressed candidate implies a maintained quotient");
                let bound = derived.quotient_reach.bind(gc);
                req.index = Some(&bound);
                evaluate(gc, pattern, req).map(|(m, stats)| (gc.expand(&m), stats))
            }
            PlanRoute::Snapshot | PlanRoute::SnapshotParallel => {
                let csr = derived.csr(state.graph(), &state.profile);
                let bound = derived.reach.bind(csr);
                req.index = Some(&bound);
                evaluate(csr, pattern, req)
            }
            // Live (Cache/Registered never reach this point)
            _ => evaluate(state.graph(), pattern, req),
        };
        let (m, stats) = match evaluated {
            Ok(t) => t,
            Err(EvalError::Pattern(e)) => return Err(e.into()),
            Err(EvalError::Cancelled(c)) => {
                // partial work still counts toward the totals, but never
                // into the graph's cost profile (it would skew the
                // planner's per-route estimates) and never into the cache
                self.planner.on_decision(&plan);
                self.eval_totals.add(c.stats);
                return Err(ExpFinderError::DeadlineExceeded(c.stats));
            }
        };
        state.profile.note_eval(version, &stats);
        if plan.mispredicted(&stats) {
            self.planner.on_mispredict();
        }
        self.planner.on_decision(&plan);
        self.eval_totals.add(stats);
        let matches = Arc::new(m);
        self.cache
            .lock()
            .put(*key, fingerprint, Arc::clone(&matches));
        Ok(((matches, None), plan, stats))
    }

    /// Estimate the planner cost (abstract work units) of evaluating
    /// `pattern` on `state` right now, without evaluating anything — the
    /// admission-control hook the server uses to reject queries that
    /// cannot fit their deadline budget (429) before they consume a
    /// worker. Runs the same deterministic cost model as a query and
    /// returns the cheapest candidate's cost. Deliberately does **not**
    /// consult the cache or registered results (peeking would skew their
    /// hit/miss counters), so the estimate is conservative: an
    /// exact-route hit costs less than reported here.
    pub fn estimate_cost(&self, state: &Snapshot, pattern: &Pattern) -> f64 {
        let threads = self.exec.threads.max(1);
        let plan = plan_routes(state, pattern, true, threads);
        plan.candidates
            .iter()
            .find(|c| c.route == plan.planned)
            .map_or(f64::INFINITY, |c| c.cost)
    }

    /// Reach-index totals: cumulative hits/misses plus live entry/byte
    /// gauges summed over the indexes (direct and quotient) `states`
    /// hold — the `engine.index` block of `GET /metrics`.
    pub fn index_totals(&self, states: impl IntoIterator<Item = Arc<Snapshot>>) -> IndexTotals {
        let mut totals = IndexTotals {
            hits: self.eval_totals.index_hits.load(Ordering::Relaxed),
            misses: self.eval_totals.index_misses.load(Ordering::Relaxed),
            entries: 0,
            bytes: 0,
        };
        for state in states {
            let derived = &state.derived;
            for ri in [&derived.reach, &derived.quotient_reach] {
                totals.entries += ri.len();
                totals.bytes += ri.bytes();
            }
        }
        totals
    }

    /// Cache hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    /// Entries currently held by the query cache.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// Cumulative evaluation-work counters (refreshes, skipped refreshes,
    /// BFS nodes visited, candidate removals, reach-index hits/misses)
    /// across every direct and compressed evaluation — the serving-path
    /// observability hook behind `GET /metrics`.
    pub fn eval_totals(&self) -> EvalStats {
        self.eval_totals.snapshot()
    }

    /// Cumulative planner counters — how many route decisions were made,
    /// how many were forced by a caller preference, and how many the
    /// evaluation then contradicted ([`PlanDecision::mispredicted`]) —
    /// the `engine.planner` block of `GET /metrics`.
    pub fn planner_totals(&self) -> PlannerTotals {
        self.planner.totals()
    }

    /// Ranked answers computed (result graph + ranking) and served from
    /// the cache slot instead — the `engine.rank` block of `GET /metrics`.
    pub fn rank_totals(&self) -> RankTotals {
        RankTotals {
            computed: self.rank_totals.computed.load(Ordering::Relaxed),
            reused: self.rank_totals.reused.load(Ordering::Relaxed),
        }
    }

    /// Cumulative cancellation counters — armed checks polled and tokens
    /// fired across every deadline-carrying evaluation — the
    /// `engine.cancel` block of `GET /metrics`.
    pub fn cancel_totals(&self) -> CancelTotals {
        CancelTotals {
            checked: self.cancel_totals.checked.load(Ordering::Relaxed),
            fired: self.cancel_totals.fired.load(Ordering::Relaxed),
        }
    }
}

/// Cost every physical route applicable to `pattern` on `state`. The
/// compressed quotient is a candidate only when one exists, the pattern
/// is compression-safe and `try_compressed` allows it.
fn plan_routes(
    state: &Snapshot,
    pattern: &Pattern,
    try_compressed: bool,
    threads: usize,
) -> PlanDecision {
    let compression_ratio = state
        .quotient()
        .filter(|gc| try_compressed && gc.validate_pattern(pattern).is_ok())
        .map(|gc| {
            let cs = gc.stats();
            let original = (cs.original_nodes + cs.original_edges).max(1);
            let quotient = (cs.compressed_nodes + cs.compressed_edges).max(1);
            quotient as f64 / original as f64
        });
    let inputs = state.profile.inputs(
        state.version(),
        state.graph().size(),
        state.derived.csr_if_built().is_some(),
    );
    let ctx = PlanContext {
        threads,
        pattern_edges: pattern.edge_count(),
        compression_ratio,
    };
    planner::plan(&inputs, &ctx)
}

/// Build the result graph over `view` and rank the output node's matches,
/// polling `cancel` per source match and per candidate.
fn rank<V: GraphView + Sync>(
    view: &V,
    pattern: &Pattern,
    matches: &MatchRelation,
    k: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<RankedMatch>, EvalError> {
    let opts = BuildOptions { threads };
    let rg = ResultGraph::build_cancellable(view, pattern, matches, opts, cancel)?;
    rank_matches_top_k_cancellable(&rg, pattern, matches, k, cancel)
}
