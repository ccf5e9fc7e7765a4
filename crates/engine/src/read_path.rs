//! The read path — paper §II's query engine, implemented once.
//!
//! cache → registered (incremental) → plan → evaluate → top-K rank from
//! the candidates (or the ranked answer the cached result already holds,
//! or a prefix of a registered query's maintained ranking), plus
//! the batch fan-out and the admission-control cost estimate, all live in
//! [`ReadPath`]. It reads one thing: a published [`Snapshot`] — one graph
//! at one version, immutable, with everything a query needs travelling
//! along, its version's cached results among it. A facade's whole share
//! of a read is the `resolve` closure it passes, which upgrades a handle
//! or looks a name up and clones the latest snapshot `Arc`; no lock is
//! held while the read runs.

use crate::planner::{self, PlanContext, PlanDecision, PlanRoute};
use crate::state::CachedResult;
use crate::{
    EngineConfig, ExpFinderError, IndexTotals, QueryResponse, QuerySpec, QueryTimings,
    RegisteredView, Route, Snapshot,
};
use expfinder_core::{
    evaluate, rank_candidates, CancelToken, EvalError, EvalRequest, EvalScratch, EvalStats,
    MatchError, MatchRelation, RankScratch, RankedMatch, ScratchPool, Semantics,
};
use expfinder_graph::reach_index::{self, IndexCounters};
use expfinder_graph::{Counters, GraphView};
use expfinder_pattern::Pattern;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `engine.cache`: lookups of a version's cached results answered and
/// not (a read preferring a route looks nothing up).
const CACHE: [&str; 2] = ["hits", "misses"];
const HITS: usize = 0;
const MISSES: usize = 1;

/// `engine.eval`: the work of every direct and compressed evaluation,
/// an aborted one's partial work included, in [`EvalStats`]' terms.
const EVAL: [&str; 4] = [
    "refreshes",
    "refreshes_skipped",
    "bfs_nodes_visited",
    "removals",
];

/// `engine.planner`: route decisions (one per read, exact short circuits
/// included), the ones a non-`Auto` preference forced, and the ones the
/// evaluation then contradicted ([`PlanDecision::mispredicted`]).
const PLANNER: [&str; 3] = ["decisions", "overrides", "mispredicts"];
const DECISIONS: usize = 0;
const OVERRIDES: usize = 1;
const MISPREDICTS: usize = 2;

/// `engine.rank`: ranked answers not served from the cached result
/// (ranked from the candidates, or a prefix of a registered query's
/// maintained ranking copied; one the deadline abandoned is not counted),
/// answers served from it, and the candidates the computed rankings ranked
/// to the end or gave up on once a lower bound on their `f` showed they
/// could not enter the top `k`.
const RANK: [&str; 4] = ["computed", "reused", "candidates", "pruned"];
const COMPUTED: usize = 0;
const REUSED: usize = 1;
const CANDIDATES: usize = 2;
const PRUNED: usize = 3;

/// `engine.cancel`: armed polls and tokens fired, drained from every
/// deadline-carrying read's token when it finishes (successfully or by
/// abort). A disarmed poll is one relaxed load and is not counted.
const CANCEL: [&str; 2] = ["checked", "fired"];

/// What routing hands back to [`ReadPath::execute`]: the relation (with
/// the experts, when a cache hit already determined the top K asked for),
/// the pattern's cached result at the read's version, which a ranking
/// computed afterwards fills, how the relation was obtained, and the
/// work that took.
type Routed = (
    (Arc<MatchRelation>, Option<Vec<RankedMatch>>),
    Arc<CachedResult>,
    PlanDecision,
    EvalStats,
);

/// The shared read path of both service facades. Owns everything a read
/// touches that is neither the graph nor its version's derived state:
/// the pooled [`EvalScratch`]es (single reads, batch workers and HTTP
/// workers each check one out, so steady-state serving reuses BFS
/// frontiers, reach caches, counter buffers and the result-graph and
/// ranking buffers instead of allocating per request), the cumulative
/// cache / evaluation / planner / rank / cancellation / index counters
/// behind `GET /metrics`, and the batch fan-out width.
pub struct ReadPath {
    /// [`EngineConfig::threads`], at least 1: the batch workers.
    threads: usize,
    scratch: ScratchPool,
    cache: Counters<2>,
    eval: Counters<4>,
    planner: Counters<3>,
    rank: Counters<4>,
    cancel: Counters<2>,
    /// What every reach index of every graph counts into, and what the
    /// reads count their index hits and misses into.
    index_counters: Arc<IndexCounters>,
}

impl ReadPath {
    pub fn new(config: &EngineConfig) -> ReadPath {
        ReadPath {
            threads: config.threads.max(1),
            scratch: ScratchPool::new(),
            cache: Counters::new(&CACHE),
            eval: Counters::new(&EVAL),
            planner: Counters::new(&PLANNER),
            rank: Counters::new(&RANK),
            cancel: Counters::new(&CANCEL),
            index_counters: Arc::new(reach_index::index_counters()),
        }
    }

    /// The counters a graph's reach indexes count into, handed to each
    /// graph the catalog adds: the cumulative half of the `engine.index`
    /// block of `GET /metrics`.
    pub fn index_counters(&self) -> &Arc<IndexCounters> {
        &self.index_counters
    }

    /// Answer one query against the snapshot `resolve` hands out, on the
    /// calling thread: routing, evaluation and ranking all see that one
    /// state. The read polls its own token — the caller's `token`, or a
    /// fresh one when it has only a `deadline` — with `deadline` armed on
    /// it; a fired token aborts with
    /// [`ExpFinderError::DeadlineExceeded`] carrying the partial
    /// [`EvalStats`], and its check/fire counts are folded into
    /// [`ReadPath::cancel_totals`] either way.
    pub fn query(
        &self,
        resolve: impl FnOnce() -> Result<Arc<Snapshot>, ExpFinderError>,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        deadline: Option<Duration>,
        token: Option<Arc<CancelToken>>,
    ) -> Result<QueryResponse, ExpFinderError> {
        let own = read_token(token, deadline, None);
        let cancel = own.as_deref();
        let out = self
            .scratch
            .with(|scratch| self.execute(resolve, pattern, top_k, prefer, scratch, cancel));
        if let Some(t) = cancel {
            self.drain(t);
        }
        out
    }

    /// Execute a whole batch of queries, draining them across a scoped
    /// pool of `w = threads` workers, clamped to `1..=specs.len()`.
    /// Results come back in spec order, one `Result` per spec; each slot
    /// resolves its own snapshot — a graph removed mid-batch fails its
    /// remaining slots — and reports the `graph_version` it observed.
    /// Each slot runs on one worker, so a batch never runs more than `w`
    /// threads.
    ///
    /// A `deadline` arms one [`CancelToken`] polled by every worker, so
    /// slots still running when the budget runs out come back as
    /// [`ExpFinderError::DeadlineExceeded`] while already-finished slots
    /// keep their results. A slot whose spec carries a deadline or a
    /// token polls a token of its own instead, armed with the tighter of
    /// its deadline and what is left of the batch budget.
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
        // one pooled EvalScratch per batch worker, reused across its slots
        let out = run_items(
            self.threads.clamp(1, specs.len()),
            specs.len(),
            || self.scratch.take(),
            |scratch, i| self.run_spec(&resolve, &specs[i], scratch, batch_cancel),
        );
        if let Some(t) = &batch_token {
            self.drain(t);
        }
        out
    }

    /// Resolve one [`QuerySpec`] (parsing its DSL if needed, so a parse
    /// error fails its own slot) and run it, polling the slot's own token
    /// ([`read_token`]) or else the batch token.
    fn run_spec(
        &self,
        resolve: impl FnOnce() -> Result<Arc<Snapshot>, ExpFinderError>,
        spec: &QuerySpec,
        scratch: &mut EvalScratch,
        batch_cancel: Option<&CancelToken>,
    ) -> Result<QueryResponse, ExpFinderError> {
        spec.read(|pattern| {
            let own = read_token(spec.token.clone(), spec.deadline, batch_cancel);
            let out = self.execute(
                resolve,
                pattern,
                spec.top_k,
                spec.prefer,
                scratch,
                own.as_deref().or(batch_cancel),
            );
            if let Some(t) = &own {
                self.drain(t);
            }
            out
        })
    }

    /// Resolve, evaluate, rank: the whole of one read, timed. A single
    /// read and a batch slot are the same read: either is answered from
    /// the ranked list its version's cached result holds when that list
    /// determines the top `top_k`, and either fills the list when it ranks.
    fn execute(
        &self,
        resolve: impl FnOnce() -> Result<Arc<Snapshot>, ExpFinderError>,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        scratch: &mut EvalScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryResponse, ExpFinderError> {
        let started = Instant::now();
        let state = resolve()?;
        let registered = state.registered(pattern.text());
        let ((matches, held), cached, plan, stats) =
            self.route_and_eval(&state, registered, pattern, top_k, prefer, scratch, cancel)?;
        let evaluate_time = started.elapsed();

        let rank_started = Instant::now();
        let experts = match (top_k, held) {
            (None, _) => Vec::new(),
            (_, Some(held)) => {
                self.rank.add(REUSED, 1);
                held
            }
            (Some(k), None) => {
                let ranking = scratch.rank_scratch();
                let before = (ranking.ranked(), ranking.pruned());
                let ranked = rank(&state, registered, pattern, &matches, k, ranking, cancel);
                let experts = ranked.map_err(|e| match e {
                    EvalError::Pattern(e) => e.into(),
                    // the relation is finished and stays cached; the
                    // ranked list is all or nothing
                    EvalError::Cancelled(_) => ExpFinderError::DeadlineExceeded(stats),
                })?;
                let ranking = scratch.rank_scratch();
                self.rank.add(COMPUTED, 1);
                self.rank.add(CANDIDATES, ranking.ranked() - before.0);
                self.rank.add(PRUNED, ranking.pruned() - before.1);
                cached.put_ranked(&experts, k);
                experts
            }
        };
        let rank_time = rank_started.elapsed();

        Ok(QueryResponse {
            experts,
            matches,
            graph_version: state.version(),
            timings: QueryTimings {
                evaluate: evaluate_time,
                rank: rank_time,
                total: started.elapsed(),
            },
            plan,
        })
    }

    /// Route and evaluate against one state, `registered` being its view
    /// of the pattern if it has one, and cache the relation in the state's
    /// [`Derived`](crate::Derived) results. The exact-result short
    /// circuits (cache, registered) run first, in paper §II order; a cache
    /// hit answers with the top `top_k` too when its ranked answer
    /// determines them;
    /// everything after them is decided by the cost-based [`planner`]
    /// from the graph's [`CostProfile`]. A non-`Auto` `prefer` takes no
    /// separate code path — the planner still produces its decision and
    /// records the override.
    #[allow(clippy::too_many_arguments)]
    fn route_and_eval(
        &self,
        state: &Snapshot,
        registered: Option<&RegisteredView>,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        scratch: &mut EvalScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<Routed, ExpFinderError> {
        // a token that fired before evaluation even started (deadline
        // consumed upstream, or admission-level cancel) aborts here, with
        // zero work to report
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(ExpFinderError::DeadlineExceeded(EvalStats::default()));
        }
        let derived = &state.derived;
        let text = pattern.text();
        let exact = |route, hit, cached| {
            let plan = PlanDecision::exact(route);
            self.decided(&plan);
            (hit, cached, plan, EvalStats::default())
        };

        if prefer == Route::Auto {
            // 1. cache
            if let Some(cached) = derived.cached(text) {
                self.cache.add(HITS, 1);
                let held = top_k.and_then(|k| cached.experts(k));
                let hit = (Arc::clone(cached.matches()), held);
                return Ok(exact(PlanRoute::Cache, hit, cached));
            }
            self.cache.add(MISSES, 1);
            // 2. registered incremental state
            if let Some(view) = registered {
                let matches = Arc::clone(view.matches());
                let cached = derived.cache(text, Arc::clone(&matches));
                return Ok(exact(PlanRoute::Registered, (matches, None), cached));
            }
        }

        // 3. plan: cost every applicable physical route and take the
        // cheapest; only a `Direct` preference keeps the quotient out
        let mut plan = plan_routes(state, pattern, prefer != Route::Direct);
        plan.apply_preference(prefer);

        // 4. evaluate on the chosen substrate — the snapshot's graph or
        // the quotient — with that substrate's per-version [`ReachIndex`],
        // so on a warm version every class-seeded first refresh is one
        // bitset copy. All routes compute the same greatest fixpoint. A
        // fired token surfaces as `Cancelled` before any torn state is
        // cached or applied (see `expfinder-core`), so an aborted
        // evaluation leaves scratch, cache and profile untouched.
        let mut req = EvalRequest {
            scratch: Some(scratch),
            cancel,
            ..EvalRequest::new(Semantics::Bounded)
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
            // Snapshot (Cache/Registered never reach this point)
            _ => {
                let bound = derived.reach.bind(state.graph());
                req.index = Some(&bound);
                evaluate(state.graph(), pattern, req)
            }
        };
        let (m, stats) = match evaluated {
            Ok(t) => t,
            Err(EvalError::Pattern(e)) => return Err(e.into()),
            Err(EvalError::Cancelled(c)) => {
                // partial work still counts toward the totals, but never
                // into the graph's cost profile (it would skew the
                // planner's per-route estimates) and never into the cache
                self.decided(&plan);
                self.count_eval(&c.stats);
                return Err(ExpFinderError::DeadlineExceeded(c.stats));
            }
        };
        state.profile.note_eval(&stats);
        if plan.mispredicted(&stats) {
            self.planner.add(MISPREDICTS, 1);
        }
        self.decided(&plan);
        self.count_eval(&stats);
        let matches = Arc::new(m);
        let cached = derived.cache(text, Arc::clone(&matches));
        Ok(((matches, None), cached, plan, stats))
    }

    /// Count one route decision, and its override if it has one.
    fn decided(&self, plan: &PlanDecision) {
        self.planner.add(DECISIONS, 1);
        if plan.overridden {
            self.planner.add(OVERRIDES, 1);
        }
    }

    /// Count one evaluation's work, whole or aborted.
    fn count_eval(&self, s: &EvalStats) {
        // in `EVAL`'s order
        let work = [
            s.refreshes,
            s.refreshes_skipped,
            s.bfs_nodes_visited,
            s.removals,
        ];
        for (i, n) in work.into_iter().enumerate() {
            self.eval.add(i, n as u64);
        }
        let index = &self.index_counters;
        index.add(reach_index::HITS, s.index_hits as u64);
        index.add(reach_index::MISSES, s.index_misses as u64);
    }

    /// Fold a finished read's token's poll and fire counts into
    /// `engine.cancel`.
    fn drain(&self, token: &CancelToken) {
        // in `CANCEL`'s order
        self.cancel.add(0, token.checks());
        self.cancel.add(1, token.fired());
    }

    /// Estimate the planner cost (abstract work units) of evaluating
    /// `pattern` on `state` right now, without evaluating anything — the
    /// admission-control hook the server uses to reject queries that
    /// cannot fit their deadline budget (429) before they consume a
    /// worker. Runs the same deterministic cost model as a query and
    /// returns the cheapest candidate's cost. Deliberately does **not**
    /// consult the cache or registered results (peeking would skew their
    /// hit/miss counters), so the estimate is conservative: an
    /// exact-route hit costs less than reported here. Every route runs on
    /// one thread, so the thread budget never enters it.
    pub fn estimate_cost(&self, state: &Snapshot, pattern: &Pattern) -> f64 {
        let plan = plan_routes(state, pattern, true);
        plan.candidates
            .iter()
            .find(|c| c.route == plan.planned)
            .map_or(f64::INFINITY, |c| c.cost)
    }

    /// The live gauges of `states`' derived state: entry/byte gauges
    /// summed over the reach indexes (direct and quotient) they hold,
    /// class/byte gauges over the class memos of their graphs and
    /// quotients, and the start-overs of both — the gauge half of the
    /// `engine.index` block of `GET /metrics` ([`ReadPath::index_counters`]
    /// is the rest) — and the results their versions cache and the
    /// entries those result memos dropped when they started over, the
    /// gauge half of `engine.cache` ([`ReadPath::cache_stats`]).
    pub fn index_totals(&self, states: impl IntoIterator<Item = Arc<Snapshot>>) -> IndexTotals {
        let mut totals = IndexTotals::default();
        for state in states {
            let derived = &state.derived;
            totals.cached_results += derived.results().len();
            totals.cache_evictions += derived.results().evicted();
            for ri in [&derived.reach, &derived.quotient_reach] {
                totals.entries += ri.len();
                totals.bytes += ri.bytes();
                totals.resets += ri.resets();
            }
            let quotient = state.quotient().and_then(|q| q.class_memo());
            for memo in state.graph().class_memo().into_iter().chain(quotient) {
                totals.classes += memo.len();
                totals.class_bytes += memo.bytes();
                totals.resets += memo.resets();
            }
        }
        totals
    }

    /// The `engine.cache` counters.
    pub fn cache_stats(&self) -> &Counters<2> {
        &self.cache
    }

    /// The `engine.eval` counters.
    pub fn eval_totals(&self) -> &Counters<4> {
        &self.eval
    }

    /// The `engine.planner` counters.
    pub fn planner_totals(&self) -> &Counters<3> {
        &self.planner
    }

    /// The `engine.rank` counters.
    pub fn rank_totals(&self) -> &Counters<4> {
        &self.rank
    }

    /// The `engine.cancel` counters.
    pub fn cancel_totals(&self) -> &Counters<2> {
        &self.cancel
    }
}

/// The token one read polls. A read with a caller `token` or a
/// `deadline` polls a token of its own — the caller's, or else a fresh one
/// — armed with the tighter of its deadline and whatever is left of the
/// `batch` budget. A caller's token is only ever tightened: one already
/// armed to fire sooner keeps its own deadline. A read with neither gets
/// `None` and polls the batch token (if any).
fn read_token(
    token: Option<Arc<CancelToken>>,
    deadline: Option<Duration>,
    batch: Option<&CancelToken>,
) -> Option<Arc<CancelToken>> {
    let left = batch.and_then(CancelToken::remaining);
    let budget = deadline.map(|d| left.map_or(d, |left| left.min(d)));
    match token {
        Some(t) => {
            if let Some(b) = budget.or(left) {
                if t.remaining().is_none_or(|r| b < r) {
                    t.arm_deadline(b);
                }
            }
            Some(t)
        }
        None => budget.map(CancelToken::with_deadline),
    }
}

/// Cost every physical route applicable to `pattern` on `state`. The
/// compressed quotient is a candidate only when one exists, the pattern
/// is compression-safe and `try_compressed` allows it.
fn plan_routes(state: &Snapshot, pattern: &Pattern, try_compressed: bool) -> PlanDecision {
    let compression_ratio = state
        .quotient()
        .filter(|gc| try_compressed && gc.validate_pattern(pattern).is_ok())
        .map(|gc| {
            let cs = gc.stats();
            let original = (cs.original_nodes + cs.original_edges).max(1);
            let quotient = (cs.compressed_nodes + cs.compressed_edges).max(1);
            quotient as f64 / original as f64
        });
    let inputs = state.profile.inputs(state.graph().size());
    let ctx = PlanContext {
        pattern_edges: pattern.edge_count(),
        compression_ratio,
    };
    planner::plan(&inputs, &ctx)
}

/// `f(worker, i)` for every `i < n`, in index order: the batch
/// executor's work queue. Up to `workers` scoped threads pull indices from
/// a shared counter, each owning one `W` built by `mk_worker` (reusable
/// scratch state); a lone worker runs inline, without a thread spawn.
fn run_items<R: Send, W>(
    workers: usize,
    n: usize,
    mk_worker: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, usize) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 {
        let mut worker = mk_worker();
        return (0..n).map(|i| f(&mut worker, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut worker = mk_worker();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        local.push((i, f(&mut worker, i)));
                    }
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("batch worker panicked"));
        }
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The best `k` matches of the output node. A pattern `state` has
/// registered — whatever route produced `matches` — is answered with a
/// copy of the prefix of its maintained ranking: no ranking, no
/// cancellation poll. Any other is ranked from its candidates on
/// `state`'s graph, on the read's pooled [`RankScratch`], which expands
/// only the `G_r` rows the candidates' searches reach and polls `cancel`
/// per candidate and per row.
fn rank(
    state: &Snapshot,
    registered: Option<&RegisteredView>,
    pattern: &Pattern,
    matches: &MatchRelation,
    k: usize,
    scratch: &mut RankScratch,
    cancel: Option<&CancelToken>,
) -> Result<Vec<RankedMatch>, EvalError> {
    let Some(view) = registered else {
        return rank_candidates(state.graph(), pattern, matches, k, scratch, cancel);
    };
    pattern
        .require_output()
        .map_err(|_| MatchError::NoOutputNode)?;
    let ranking = view.ranking();
    Ok(ranking[..k.min(ranking.len())].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_polls_its_own_token_armed_with_the_tighter_budget() {
        let minute = Duration::from_secs(60);
        let batch = CancelToken::with_deadline(minute);
        // neither a token nor a deadline: the read polls the batch token
        assert!(read_token(None, None, Some(&batch)).is_none());
        // a deadline alone: a fresh token, clipped to the batch budget
        let fresh = read_token(None, Some(Duration::from_secs(3600)), Some(&batch)).unwrap();
        assert!(fresh.remaining().unwrap() <= minute);
        // the caller's token is the one armed, with the tighter budget
        let caller = CancelToken::disarmed();
        let own = read_token(
            Some(Arc::clone(&caller)),
            Some(Duration::ZERO),
            Some(&batch),
        );
        assert!(Arc::ptr_eq(&own.unwrap(), &caller));
        assert_eq!(caller.remaining(), Some(Duration::ZERO));
        // a caller's token without a deadline takes what is left of the
        // batch budget, and stays unarmed outside a batch
        let caller = CancelToken::disarmed();
        read_token(Some(Arc::clone(&caller)), None, Some(&batch));
        assert!(caller.remaining().unwrap() <= minute);
        let caller = CancelToken::disarmed();
        read_token(Some(Arc::clone(&caller)), None, None);
        assert_eq!(caller.remaining(), None);
    }
}
