//! Cost-based route planner.
//!
//! The engine serves one logical operation — evaluate a pattern against
//! a graph — through a few physical routes: the published snapshot's
//! own graph with its per-version [`ReachIndex`](expfinder_graph::ReachIndex),
//! and the maintained compressed quotient.
//!
//! The planner makes that choice in one place: fold the statistics the
//! engine already collects — the graph's reach-index hit rate — into a
//! [`CostProfile`], estimate each candidate route's work in abstract
//! *work units*, and pick the cheapest. The estimates deliberately use
//! only deterministic inputs (graph size, pattern size, counters), never
//! wall-clock measurements, so a given workload history always produces
//! the same plan — which is what lets CI diff planner decisions against
//! a checked-in snapshot (`PLANS.json`).
//!
//! The model, in units of "adjacency work" (`size × pattern edges`):
//!
//! * **snapshot** — the direct route: one fixpoint over the snapshot's
//!   graph, discounted by the observed reach-index hit rate
//!   ([`INDEX_DISCOUNT`]).
//! * **compressed** — the fixpoint on the maintained quotient, scaled by
//!   the quotient/original size ratio, plus the match expansion.
//!
//! Every estimate is finite. Exact-result routes (query cache, registered
//! queries) are not costed:
//! they short-circuit before planning, and their decisions are recorded
//! as [`PlanDecision::exact`]. A non-`Auto` [`Route`](crate::Route)
//! preference no longer takes a separate code path either — the planner
//! still produces its decision, then records that the preference
//! overrode it (the `engine.planner.overrides` counter).

use expfinder_core::EvalStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fraction of direct evaluation served for free by a reach-index hit
/// (a class-seeded first refresh becomes one bitset copy). Scaled by the
/// observed hit rate.
pub const INDEX_DISCOUNT: f64 = 0.8;

/// Work-unit discount of evaluating on the compressed quotient (smaller
/// graph, then a linear expansion), applied on top of the
/// quotient/original size ratio.
pub const COMPRESSED_EVAL_DISCOUNT: f64 = 0.5;

/// A physical evaluation route the planner can choose between (or
/// record, for the exact-result short circuits).
///
/// Wire strings (the `timings.plan` object of a query response):
/// `cache`, `registered`, `snapshot`, `compressed`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlanRoute {
    /// Exact result from the query cache (not costed).
    Cache,
    /// Exact result from a registered query's maintainer (not costed).
    Registered,
    /// Fixpoint on the published snapshot's graph, reach-indexed.
    Snapshot,
    /// Fixpoint on the maintained compressed quotient, then expansion.
    Compressed,
}

impl PlanRoute {
    /// Stable wire string of this route.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanRoute::Cache => "cache",
            PlanRoute::Registered => "registered",
            PlanRoute::Snapshot => "snapshot",
            PlanRoute::Compressed => "compressed",
        }
    }
}

/// One candidate route with its estimated (finite) cost in work units.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CandidateCost {
    pub route: PlanRoute,
    pub cost: f64,
}

/// Deterministic, point-in-time inputs to [`plan`], extracted from a
/// graph's [`CostProfile`] (plus the graph's size). Construct these
/// directly to unit-test the model against synthetic workload shapes.
#[derive(Copy, Clone, Debug)]
pub struct CostInputs {
    /// `|V| + |E|` of the graph.
    pub size: usize,
    /// Cumulative reach-index hits observed on this graph.
    pub index_hits: u64,
    /// Cumulative reach-index misses observed on this graph.
    pub index_misses: u64,
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

/// Per-query context the profile cannot know: pattern size, and whether
/// a compression-safe quotient is available.
#[derive(Copy, Clone, Debug)]
pub struct PlanContext {
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
    /// Every costed candidate, in deterministic order (`snapshot`,
    /// `compressed?`). Empty for the exact-result short circuits.
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
    /// strength of a hit rate ≥ 0.5 (the share of first refreshes whose
    /// seed set was still a condition class) that then sees only misses was
    /// mispredicted. Deterministic — it compares counters, not
    /// wall-clock.
    pub fn mispredicted(&self, stats: &EvalStats) -> bool {
        self.chosen == PlanRoute::Snapshot
            && self.expected_hit_rate >= 0.5
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
/// break toward the earlier candidate, so the `snapshot` route wins an
/// exact tie). Purely deterministic in its inputs.
pub fn plan(inputs: &CostInputs, ctx: &PlanContext) -> PlanDecision {
    let base = inputs.size.max(1) as f64 * ctx.pattern_edges.max(1) as f64;
    let hit_rate = inputs.hit_rate();
    let direct = (1.0 - INDEX_DISCOUNT * hit_rate) * base;

    let mut candidates = vec![CandidateCost {
        route: PlanRoute::Snapshot,
        cost: direct,
    }];
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
        .expect("the direct candidate always exists")
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
/// accumulate across versions. The counters are advisory — concurrent
/// readers may add in any order, which the model tolerates.
#[derive(Debug, Default)]
pub struct CostProfile {
    index_hits: AtomicU64,
    index_misses: AtomicU64,
}

impl CostProfile {
    /// Extract the deterministic model inputs for a query against a graph
    /// of `size`.
    pub fn inputs(&self, size: usize) -> CostInputs {
        CostInputs {
            size,
            index_hits: self.index_hits.load(Ordering::Relaxed),
            index_misses: self.index_misses.load(Ordering::Relaxed),
        }
    }

    /// Record one completed cost-modeled evaluation's index counters
    /// (cache and registered hits never evaluate, so they are not
    /// recorded).
    pub fn note_eval(&self, stats: &EvalStats) {
        self.index_hits
            .fetch_add(stats.index_hits as u64, Ordering::Relaxed);
        self.index_misses
            .fetch_add(stats.index_misses as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pattern_edges: usize) -> PlanContext {
        PlanContext {
            pattern_edges,
            compression_ratio: None,
        }
    }

    fn inputs(size: usize, index_hits: u64, index_misses: u64) -> CostInputs {
        CostInputs {
            size,
            index_hits,
            index_misses,
        }
    }

    fn cost_of(d: &PlanDecision, route: PlanRoute) -> f64 {
        d.candidates.iter().find(|c| c.route == route).unwrap().cost
    }

    #[test]
    fn a_cold_first_read_goes_direct_at_full_cost() {
        // nothing observed yet: the direct route is the only candidate,
        // at the undiscounted `size × pattern edges`
        let d = plan(&inputs(100_000, 0, 0), &ctx(4));
        assert_eq!(d.planned, PlanRoute::Snapshot);
        assert_eq!(d.candidates.len(), 1);
        assert_eq!(cost_of(&d, PlanRoute::Snapshot), 400_000.0);
        assert_eq!(d.expected_hit_rate, 0.0);
    }

    #[test]
    fn a_warm_index_discounts_the_direct_route() {
        let cold = plan(&inputs(20_000, 0, 0), &ctx(3));
        let warm = plan(&inputs(20_000, 120, 4), &ctx(3));
        assert_eq!(warm.planned, PlanRoute::Snapshot);
        let (c, w) = (
            cost_of(&cold, PlanRoute::Snapshot),
            cost_of(&warm, PlanRoute::Snapshot),
        );
        assert!(w < 0.5 * c, "index discount applied: {w} vs {c}");
        assert!(warm.expected_hit_rate > 0.9);
    }

    #[test]
    fn every_estimate_is_finite() {
        let c = PlanContext {
            pattern_edges: 0,
            compression_ratio: Some(0.0),
        };
        for size in [0, 1, 60, 1 << 20] {
            for (hits, misses) in [(0, 0), (1, 0), (0, 1), (7, 3)] {
                let d = plan(&inputs(size, hits, misses), &c);
                assert_eq!(d.candidates.len(), 2);
                assert!(d.candidates.iter().all(|c| c.cost.is_finite()), "{d:?}");
            }
        }
    }

    #[test]
    fn compression_wins_until_the_index_is_warm() {
        let c = PlanContext {
            pattern_edges: 3,
            compression_ratio: Some(0.6),
        };
        assert_eq!(plan(&inputs(1000, 0, 0), &c).planned, PlanRoute::Compressed);
        // a warm reach index can out-bid the quotient — the planner is
        // allowed to skip compression when the index is hot
        assert_eq!(plan(&inputs(1000, 99, 1), &c).planned, PlanRoute::Snapshot);
    }

    #[test]
    fn preference_overrides_are_recorded_not_replanned() {
        let c = PlanContext {
            pattern_edges: 2,
            compression_ratio: Some(0.5),
        };
        let mut d = plan(&inputs(1000, 0, 0), &c);
        assert_eq!(d.planned, PlanRoute::Compressed);
        d.apply_preference(crate::Route::Compressed);
        assert!(d.overridden);
        assert_eq!(d.chosen, PlanRoute::Compressed);

        // Direct preference: the caller filtered compression out of the
        // context, so the planned route is already the direct winner
        let mut d = plan(&inputs(1000, 0, 0), &ctx(2));
        d.apply_preference(crate::Route::Direct);
        assert!(d.overridden);
        assert_eq!(d.chosen, PlanRoute::Snapshot);
    }

    #[test]
    fn profile_accumulates_index_rates_across_versions() {
        let p = CostProfile::default();
        let stats_hit = EvalStats {
            index_hits: 2,
            index_misses: 1,
            ..EvalStats::default()
        };
        assert_eq!(p.inputs(100).hit_rate(), 0.0);
        p.note_eval(&stats_hit);
        p.note_eval(&stats_hit);
        p.note_eval(&EvalStats::default());
        let i = p.inputs(100);
        assert_eq!((i.size, i.index_hits, i.index_misses), (100, 4, 2));
        assert!((i.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
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
        d.chosen = PlanRoute::Compressed;
        d.expected_hit_rate = 0.9;
        assert!(
            !d.mispredicted(&all_miss),
            "the quotient made no promise about the direct index"
        );
    }
}
