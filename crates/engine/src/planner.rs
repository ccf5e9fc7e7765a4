//! Cost-based route planner.
//!
//! The engine serves one logical operation — evaluate a pattern against
//! a graph — through several physical routes: the live adjacency, the
//! per-version CSR snapshot (sequential or parallel, both consulting the
//! per-version [`ReachIndex`](expfinder_graph::ReachIndex)), and the
//! maintained compressed quotient.
//! Until this module existed the choice was hard-coded: a size cutoff
//! decided whether a CSR could ever pay off, a "build on the second
//! sequential read" rule decided when to pay the snapshot build, and
//! compression always won when it was applicable. Every new route meant
//! another branch in every caller.
//!
//! The planner replaces those branches with one decision: fold the
//! statistics the engine already collects — per-graph read/update
//! frequency, reach-index hit rates, CSR build costs — into a
//! [`CostProfile`], estimate each candidate route's work in abstract
//! *work units*, and pick the cheapest. The estimates deliberately use
//! only deterministic inputs (graph size, pattern size, counters), never
//! wall-clock measurements, so a given workload history always produces
//! the same plan — which is what lets CI diff planner decisions against
//! a checked-in snapshot (`PLANS.json`). Measured costs (e.g. CSR build
//! nanos) are recorded in the profile for observability and misprediction
//! accounting, not for the decision itself.
//!
//! The model, in units of "adjacency work" (`size × pattern edges`):
//!
//! * **live** — the baseline: one fixpoint straight off the live
//!   adjacency, nothing to build.
//! * **snapshot** — the sequential CSR path: the same fixpoint at a
//!   [`CSR_EVAL_DISCOUNT`] (contiguous adjacency + label-indexed
//!   seeding), further discounted by the observed reach-index hit rate,
//!   plus the snapshot build amortized over the *observed* reads at this
//!   graph version. A version nobody has read yet amortizes over zero
//!   future reads — infinite per-query cost — so the first read of every
//!   version stays live and update-heavy streams never pay a build,
//!   while the second read predicts a read-heavy version and builds.
//! * **snapshot_parallel** — the CSR path with parallel refinement:
//!   the snapshot eval divided by the thread budget, plus the *full*
//!   build cost (parallel refinement requires the CSR, so its build is
//!   the price of parallelism, not an optional amortization).
//! * **compressed** — the fixpoint on the maintained quotient, scaled by
//!   the quotient/original size ratio, plus the match expansion.
//!
//! Exact-result routes (query cache, registered queries) are not costed:
//! they short-circuit before planning, and their decisions are recorded
//! as [`PlanDecision::exact`]. A non-`Auto` [`Route`](crate::Route)
//! preference no longer takes a separate code path either — the planner
//! still produces its decision, then records that the preference
//! overrode it (the `engine.planner.overrides` counter).

use expfinder_core::EvalStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Work-unit discount of evaluating on the CSR snapshot instead of the
/// live adjacency (contiguous edges + label-indexed candidate seeding).
pub const CSR_EVAL_DISCOUNT: f64 = 0.5;

/// Fraction of snapshot evaluation served for free by a reach-index hit
/// (a class-seeded first refresh becomes one bitset copy). Scaled by the
/// observed hit rate.
pub const INDEX_DISCOUNT: f64 = 0.8;

/// Fixed work units of building a CSR snapshot (allocation, setup) —
/// this is what keeps tiny graphs on the live adjacency: even a
/// perfectly amortized build never pays for itself below a few thousand
/// work units.
pub const CSR_BUILD_FIXED: f64 = 512.0;

/// Per-element (`|V| + |E|`) work units of building a CSR snapshot.
pub const CSR_BUILD_PER_ELEMENT: f64 = 0.25;

/// Work-unit discount of evaluating on the compressed quotient (smaller
/// graph, then a linear expansion), applied on top of the
/// quotient/original size ratio.
pub const COMPRESSED_EVAL_DISCOUNT: f64 = 0.5;

/// A physical evaluation route the planner can choose between (or
/// record, for the exact-result short circuits).
///
/// Wire strings (the `timings.plan` object of a query response):
/// `cache`, `registered`, `live`, `snapshot`, `snapshot_parallel`,
/// `compressed`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlanRoute {
    /// Exact result from the query cache (not costed).
    Cache,
    /// Exact result from a registered query's maintainer (not costed).
    Registered,
    /// Sequential fixpoint on the live adjacency.
    Live,
    /// Sequential fixpoint on the CSR snapshot, reach-indexed.
    Snapshot,
    /// Parallel refinement on the CSR snapshot, reach-indexed.
    SnapshotParallel,
    /// Fixpoint on the maintained compressed quotient, then expansion.
    Compressed,
}

impl PlanRoute {
    /// Stable wire string of this route.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanRoute::Cache => "cache",
            PlanRoute::Registered => "registered",
            PlanRoute::Live => "live",
            PlanRoute::Snapshot => "snapshot",
            PlanRoute::SnapshotParallel => "snapshot_parallel",
            PlanRoute::Compressed => "compressed",
        }
    }
}

/// One candidate route with its estimated cost in work units.
/// `f64::INFINITY` is a legal estimate ("this route cannot amortize its
/// setup on the observed workload") and is encoded as `"inf"` on the
/// wire.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CandidateCost {
    pub route: PlanRoute,
    pub cost: f64,
}

/// Deterministic, point-in-time inputs to [`plan`], extracted from a
/// graph's [`CostProfile`] (plus what the caller knows about the graph
/// and its snapshot state). Construct these directly to unit-test the
/// model against synthetic workload shapes.
#[derive(Copy, Clone, Debug)]
pub struct CostInputs {
    /// `|V| + |E|` of the graph.
    pub size: usize,
    /// Cost-modeled evaluations already completed at the current graph
    /// version — the amortization horizon for a snapshot build.
    pub reads_at_version: u64,
    /// Cumulative reach-index hits observed on this graph.
    pub index_hits: u64,
    /// Cumulative reach-index misses observed on this graph.
    pub index_misses: u64,
    /// A CSR snapshot for the current version already exists (its build
    /// is sunk cost).
    pub csr_fresh: bool,
}

impl CostInputs {
    /// Observed reach-index hit rate, `0.0` when nothing was observed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.index_hits + self.index_misses;
        if total == 0 {
            0.0
        } else {
            self.index_hits as f64 / total as f64
        }
    }
}

/// Per-query context the profile cannot know: thread budget, pattern
/// size, and whether a compression-safe quotient is available.
#[derive(Copy, Clone, Debug)]
pub struct PlanContext {
    /// Thread budget for parallel refinement.
    pub threads: usize,
    /// Pattern edge count (the per-constraint work multiplier).
    pub pattern_edges: usize,
    /// `Some(ratio)` when a maintained quotient exists, the pattern is
    /// compression-safe, and policy allows the compressed route; `ratio`
    /// is `|G_c| / |G|` clamped to `(0, 1]`.
    pub compression_ratio: Option<f64>,
}

/// The planner's verdict for one query: what it picked, what it would
/// have picked without a caller preference, and every candidate it
/// costed. Carried on [`QueryResponse`](crate::QueryResponse) and
/// encoded as the `timings.plan` wire object.
#[derive(Clone, Debug)]
pub struct PlanDecision {
    /// The route that was (or will be) evaluated.
    pub chosen: PlanRoute,
    /// The cheapest candidate — what the planner picked before any
    /// caller preference was applied.
    pub planned: PlanRoute,
    /// A non-`Auto` [`Route`](crate::Route) preference forced the
    /// decision (`chosen` may still coincide with `planned`).
    pub overridden: bool,
    /// Every costed candidate, in deterministic order (`live`,
    /// `snapshot`, `snapshot_parallel?`, `compressed?`). Empty for the
    /// exact-result short circuits.
    pub candidates: Vec<CandidateCost>,
    /// The reach-index hit rate the winning estimate assumed — the
    /// prediction checked by [`PlanDecision::mispredicted`].
    pub expected_hit_rate: f64,
}

impl PlanDecision {
    /// Decision for an exact-result route (cache / registered hit): no
    /// candidates were costed.
    pub fn exact(route: PlanRoute) -> PlanDecision {
        PlanDecision {
            chosen: route,
            planned: route,
            overridden: false,
            candidates: Vec::new(),
            expected_hit_rate: 0.0,
        }
    }

    /// Did the evaluation contradict the estimate that made the chosen
    /// route win? The one falsifiable prediction the model makes per
    /// query is the index discount: a snapshot route chosen on the
    /// strength of a warm hit rate (≥ 0.5) that then sees only misses
    /// was mispredicted. Deterministic — it compares counters, not
    /// wall-clock.
    pub fn mispredicted(&self, stats: &EvalStats) -> bool {
        matches!(
            self.chosen,
            PlanRoute::Snapshot | PlanRoute::SnapshotParallel
        ) && self.expected_hit_rate >= 0.5
            && stats.index_hits == 0
            && stats.index_misses > 0
    }

    /// Apply a caller route preference on top of the planned choice:
    /// `Direct` restricts to the direct candidates (compression was
    /// never costed for it), `Compressed` forces the quotient when one
    /// was costed and otherwise falls back to the planned direct route.
    pub fn apply_preference(&mut self, prefer: crate::Route) {
        match prefer {
            crate::Route::Auto => {}
            crate::Route::Direct => {
                self.overridden = true;
            }
            crate::Route::Compressed => {
                self.overridden = true;
                if self
                    .candidates
                    .iter()
                    .any(|c| c.route == PlanRoute::Compressed)
                {
                    self.chosen = PlanRoute::Compressed;
                }
            }
        }
    }
}

/// Estimate every candidate route's cost and pick the cheapest (ties
/// break toward the earlier candidate, so `live` wins an exact tie).
/// Purely deterministic in its inputs.
pub fn plan(inputs: &CostInputs, ctx: &PlanContext) -> PlanDecision {
    let base = inputs.size.max(1) as f64 * ctx.pattern_edges.max(1) as f64;
    let hit_rate = inputs.hit_rate();
    let build = CSR_BUILD_FIXED + CSR_BUILD_PER_ELEMENT * inputs.size as f64;
    let snapshot_eval = CSR_EVAL_DISCOUNT * (1.0 - INDEX_DISCOUNT * hit_rate) * base;

    let mut candidates = vec![
        CandidateCost {
            route: PlanRoute::Live,
            cost: base,
        },
        CandidateCost {
            route: PlanRoute::Snapshot,
            cost: if inputs.csr_fresh {
                snapshot_eval
            } else {
                // amortize over the observed reads at this version;
                // zero observed reads → infinite per-query build cost
                snapshot_eval + build / inputs.reads_at_version as f64
            },
        },
    ];
    if ctx.threads > 1 {
        candidates.push(CandidateCost {
            route: PlanRoute::SnapshotParallel,
            cost: snapshot_eval / ctx.threads as f64 + if inputs.csr_fresh { 0.0 } else { build },
        });
    }
    if let Some(ratio) = ctx.compression_ratio {
        candidates.push(CandidateCost {
            route: PlanRoute::Compressed,
            cost: COMPRESSED_EVAL_DISCOUNT * ratio.clamp(f64::MIN_POSITIVE, 1.0) * base,
        });
    }

    let planned = candidates
        .iter()
        .fold(None::<CandidateCost>, |best, &c| match best {
            Some(b) if b.cost <= c.cost => Some(b),
            _ => Some(c),
        })
        .expect("at least the live candidate exists")
        .route;
    PlanDecision {
        chosen: planned,
        planned,
        overridden: false,
        candidates,
        expected_hit_rate: hit_rate,
    }
}

/// Lock-free per-graph statistics the planner runs on: one per managed
/// graph, shared by every [`Snapshot`](crate::Snapshot) of it, so they
/// accumulate across versions. All counters are advisory — racy resets
/// across a version roll lose at most a read or two, which the model
/// tolerates.
#[derive(Debug, Default)]
pub struct CostProfile {
    /// Graph version the `reads_at_version` window belongs to.
    version: AtomicU64,
    reads_at_version: AtomicU64,
    reads_total: AtomicU64,
    update_batches: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    csr_builds: AtomicU64,
    csr_build_nanos: AtomicU64,
}

impl CostProfile {
    /// Extract the deterministic model inputs for a query at `version`
    /// against a graph of `size`, with `csr_fresh` saying whether a CSR
    /// snapshot for that version already exists.
    pub fn inputs(&self, version: u64, size: usize, csr_fresh: bool) -> CostInputs {
        let reads_at_version = if self.version.load(Ordering::Relaxed) == version {
            self.reads_at_version.load(Ordering::Relaxed)
        } else {
            0
        };
        CostInputs {
            size,
            reads_at_version,
            index_hits: self.index_hits.load(Ordering::Relaxed),
            index_misses: self.index_misses.load(Ordering::Relaxed),
            csr_fresh,
        }
    }

    /// Record one completed cost-modeled evaluation at `version` (cache
    /// and registered hits are not reads in the planner's sense — they
    /// never had a route choice to amortize against).
    pub fn note_eval(&self, version: u64, stats: &EvalStats) {
        if self.version.load(Ordering::Relaxed) != version {
            self.version.store(version, Ordering::Relaxed);
            self.reads_at_version.store(0, Ordering::Relaxed);
        }
        self.reads_at_version.fetch_add(1, Ordering::Relaxed);
        self.reads_total.fetch_add(1, Ordering::Relaxed);
        self.index_hits
            .fetch_add(stats.index_hits as u64, Ordering::Relaxed);
        self.index_misses
            .fetch_add(stats.index_misses as u64, Ordering::Relaxed);
    }

    /// Record one committed update batch (version moved).
    pub fn note_update_batch(&self) {
        self.update_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one measured CSR snapshot build. Observability only — the
    /// cost model stays deterministic by design.
    pub fn note_csr_build(&self, nanos: u64) {
        self.csr_builds.fetch_add(1, Ordering::Relaxed);
        self.csr_build_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Lifetime evaluations observed.
    pub fn reads_total(&self) -> u64 {
        self.reads_total.load(Ordering::Relaxed)
    }

    /// Lifetime update batches observed.
    pub fn update_batches(&self) -> u64 {
        self.update_batches.load(Ordering::Relaxed)
    }

    /// Lifetime CSR snapshot builds and their cumulative measured cost.
    pub fn csr_build_cost(&self) -> (u64, u64) {
        (
            self.csr_builds.load(Ordering::Relaxed),
            self.csr_build_nanos.load(Ordering::Relaxed),
        )
    }
}

/// Cumulative planner counters — the `engine.planner` block of
/// `GET /metrics`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlannerTotals {
    /// Plan decisions made (one per query, exact short circuits
    /// included).
    pub decisions: u64,
    /// Decisions forced by a non-`Auto` route preference.
    pub overrides: u64,
    /// Decisions whose winning estimate the evaluation then contradicted
    /// ([`PlanDecision::mispredicted`]).
    pub mispredicts: u64,
}

/// Lock-free accumulator behind [`PlannerTotals`], owned by each engine
/// (and each durable runtime).
#[derive(Debug, Default)]
pub struct PlannerCounters {
    decisions: AtomicU64,
    overrides: AtomicU64,
    mispredicts: AtomicU64,
}

impl PlannerCounters {
    /// Count one decision (and its override, if any).
    pub fn on_decision(&self, decision: &PlanDecision) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if decision.overridden {
            self.overrides.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one misprediction.
    pub fn on_mispredict(&self) {
        self.mispredicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time totals.
    pub fn totals(&self) -> PlannerTotals {
        PlannerTotals {
            decisions: self.decisions.load(Ordering::Relaxed),
            overrides: self.overrides.load(Ordering::Relaxed),
            mispredicts: self.mispredicts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: usize, pattern_edges: usize) -> PlanContext {
        PlanContext {
            threads,
            pattern_edges,
            compression_ratio: None,
        }
    }

    #[test]
    fn cold_first_read_stays_live() {
        // nobody has read this version: a snapshot build amortizes over
        // zero future reads, so the live adjacency must win
        let inputs = CostInputs {
            size: 100_000,
            reads_at_version: 0,
            index_hits: 0,
            index_misses: 0,
            csr_fresh: false,
        };
        let d = plan(&inputs, &ctx(1, 4));
        assert_eq!(d.planned, PlanRoute::Live);
        let snap = d
            .candidates
            .iter()
            .find(|c| c.route == PlanRoute::Snapshot)
            .unwrap();
        assert!(snap.cost.is_infinite(), "no amortization horizon");
    }

    #[test]
    fn second_read_builds_the_snapshot() {
        let inputs = CostInputs {
            size: 4096,
            reads_at_version: 1,
            index_hits: 0,
            index_misses: 0,
            csr_fresh: false,
        };
        let d = plan(&inputs, &ctx(1, 2));
        assert_eq!(d.planned, PlanRoute::Snapshot);
    }

    #[test]
    fn warm_class_seeded_workload_takes_the_reach_indexed_route() {
        // acceptance shape: many reads at this version, high observed
        // index hit rate, snapshot already built — the reach-indexed
        // snapshot route must win by a wide margin
        let inputs = CostInputs {
            size: 20_000,
            reads_at_version: 50,
            index_hits: 120,
            index_misses: 4,
            csr_fresh: true,
        };
        let d = plan(&inputs, &ctx(1, 3));
        assert_eq!(d.planned, PlanRoute::Snapshot);
        let snap = d
            .candidates
            .iter()
            .find(|c| c.route == PlanRoute::Snapshot)
            .unwrap();
        let live = d
            .candidates
            .iter()
            .find(|c| c.route == PlanRoute::Live)
            .unwrap();
        assert!(snap.cost < 0.5 * live.cost, "index discount applied");
        assert!(d.expected_hit_rate > 0.9);
    }

    #[test]
    fn update_heavy_stream_stays_on_live_adjacency() {
        // acceptance shape: every version is read at most once before
        // the next update batch invalidates it — the planner must never
        // pay a snapshot build
        let inputs = CostInputs {
            size: 50_000,
            reads_at_version: 0,
            index_hits: 3,
            index_misses: 40,
            csr_fresh: false,
        };
        let d = plan(&inputs, &ctx(1, 5));
        assert_eq!(d.planned, PlanRoute::Live);
    }

    #[test]
    fn small_graphs_never_pay_a_build() {
        // even with an amortization horizon, the fixed build cost dwarfs
        // a tiny graph's whole evaluation
        let inputs = CostInputs {
            size: 30,
            reads_at_version: 5,
            index_hits: 0,
            index_misses: 0,
            csr_fresh: false,
        };
        assert_eq!(plan(&inputs, &ctx(1, 3)).planned, PlanRoute::Live);
        // ... but a snapshot someone else already built is free to use
        let fresh = CostInputs {
            csr_fresh: true,
            ..inputs
        };
        assert_eq!(plan(&fresh, &ctx(1, 3)).planned, PlanRoute::Snapshot);
    }

    #[test]
    fn thread_budget_unlocks_the_parallel_route_on_big_graphs_only() {
        let big = CostInputs {
            size: 4096,
            reads_at_version: 0,
            index_hits: 0,
            index_misses: 0,
            csr_fresh: false,
        };
        let d = plan(&big, &ctx(4, 3));
        assert_eq!(
            d.planned,
            PlanRoute::SnapshotParallel,
            "parallel refinement pays its own build: {:?}",
            d.candidates
        );
        let tiny = CostInputs { size: 60, ..big };
        assert_eq!(plan(&tiny, &ctx(4, 3)).planned, PlanRoute::Live);
    }

    #[test]
    fn compression_wins_until_the_index_is_warm() {
        let cold = CostInputs {
            size: 1000,
            reads_at_version: 0,
            index_hits: 0,
            index_misses: 0,
            csr_fresh: false,
        };
        let c = PlanContext {
            threads: 1,
            pattern_edges: 3,
            compression_ratio: Some(0.6),
        };
        assert_eq!(plan(&cold, &c).planned, PlanRoute::Compressed);
        // a warm reach-indexed snapshot can out-bid the quotient — the
        // planner is allowed to skip compression when the index is hot
        let warm = CostInputs {
            reads_at_version: 10,
            index_hits: 99,
            index_misses: 1,
            csr_fresh: true,
            ..cold
        };
        assert_eq!(plan(&warm, &c).planned, PlanRoute::Snapshot);
    }

    #[test]
    fn preference_overrides_are_recorded_not_replanned() {
        let inputs = CostInputs {
            size: 1000,
            reads_at_version: 0,
            index_hits: 0,
            index_misses: 0,
            csr_fresh: false,
        };
        let c = PlanContext {
            threads: 1,
            pattern_edges: 2,
            compression_ratio: Some(0.5),
        };
        let mut d = plan(&inputs, &c);
        assert_eq!(d.planned, PlanRoute::Compressed);
        d.apply_preference(crate::Route::Compressed);
        assert!(d.overridden);
        assert_eq!(d.chosen, PlanRoute::Compressed);

        // Direct preference: the caller filtered compression out of the
        // context, so the planned route is already the direct winner
        let mut d = plan(&inputs, &ctx(1, 2));
        d.apply_preference(crate::Route::Direct);
        assert!(d.overridden);
        assert_eq!(d.chosen, PlanRoute::Live);
    }

    #[test]
    fn profile_windows_reads_per_version_and_accumulates_rates() {
        let p = CostProfile::default();
        let stats_hit = EvalStats {
            index_hits: 2,
            index_misses: 1,
            ..EvalStats::default()
        };
        assert_eq!(p.inputs(7, 100, false).reads_at_version, 0);
        p.note_eval(7, &stats_hit);
        p.note_eval(7, &stats_hit);
        let i = p.inputs(7, 100, false);
        assert_eq!(i.reads_at_version, 2);
        assert_eq!(i.index_hits, 4);
        assert!((i.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
        // a version roll resets the window but keeps the rates
        let i = p.inputs(8, 100, false);
        assert_eq!(i.reads_at_version, 0);
        assert_eq!(i.index_hits, 4);
        p.note_eval(8, &EvalStats::default());
        assert_eq!(p.inputs(8, 100, false).reads_at_version, 1);
        assert_eq!(p.reads_total(), 3);
        p.note_update_batch();
        assert_eq!(p.update_batches(), 1);
        p.note_csr_build(500);
        assert_eq!(p.csr_build_cost(), (1, 500));
    }

    #[test]
    fn counters_accumulate_decisions_overrides_and_mispredicts() {
        let c = PlannerCounters::default();
        let mut d = PlanDecision::exact(PlanRoute::Cache);
        c.on_decision(&d);
        d.overridden = true;
        c.on_decision(&d);
        c.on_mispredict();
        assert_eq!(
            c.totals(),
            PlannerTotals {
                decisions: 2,
                overrides: 1,
                mispredicts: 1
            }
        );
    }

    #[test]
    fn mispredict_requires_a_broken_index_promise() {
        let mut d = PlanDecision::exact(PlanRoute::Snapshot);
        d.expected_hit_rate = 0.9;
        let all_miss = EvalStats {
            index_misses: 5,
            ..EvalStats::default()
        };
        assert!(d.mispredicted(&all_miss));
        let some_hit = EvalStats {
            index_hits: 1,
            index_misses: 5,
            ..EvalStats::default()
        };
        assert!(!d.mispredicted(&some_hit));
        d.expected_hit_rate = 0.2;
        assert!(!d.mispredicted(&all_miss), "no warm promise was made");
        d.chosen = PlanRoute::Live;
        d.expected_hit_rate = 0.9;
        assert!(!d.mispredicted(&all_miss), "live made no index promise");
    }
}
