//! Parallel refinement — the multi-threaded evaluation path.
//!
//! All three matching semantics in this crate (plain simulation, bounded
//! simulation, bounded dual simulation) are greatest-fixpoint refinements:
//! starting from predicate candidate sets, per-pattern-edge constraints
//! repeatedly intersect a set with a reach-set computed by one bounded
//! multi-source BFS, until nothing shrinks. The greatest fixpoint of a
//! monotone operator on a finite lattice is *unique*, so the order in
//! which constraints are applied changes cost, never results — which is
//! exactly what makes the fixpoint safe to parallelise.
//!
//! The scheme here is round-based (Jacobi-style) chaotic iteration over a
//! frontier worklist:
//!
//! 1. all constraints start on the frontier;
//! 2. each round, workers pull constraints off a shared counter (the
//!    chunked work-queue idiom of [`crate::result_graph`]) and compute
//!    their reach-sets **in parallel** from the current sets — reads only;
//! 3. the intersections are applied sequentially (cheap, O(|V|/64) words
//!    per set), and every constraint whose *seed* set shrank joins the
//!    next frontier;
//! 4. repeat until the frontier is empty — i.e. a fixpoint.
//!
//! Within a round the reach-sets are computed from a snapshot that is a
//! superset of the final fixpoint, so every removal is sound; at
//! termination every constraint holds, so the result *is* the greatest
//! fixpoint — bit-identical to the sequential functions (property-tested
//! in `tests/batch.rs`). Candidate-set construction parallelises the same
//! way, one pattern node per work item, seeded from the label index when
//! the view provides one ([`GraphView::nodes_with_label`]).
//!
//! Workers run the direction-optimizing frontier BFS of
//! [`expfinder_graph::bfs_frontier`], and each constraint's reach set is
//! cached across rounds: sim sets only shrink during refinement, so a
//! re-computation may be restricted to the previous round's result — the
//! same refresh memoization the sequential frontier engine uses
//! ([`crate::fixpoint`]).

use crate::bsim::EvalStats;
use crate::eval::{evaluate, EvalError, EvalRequest, Semantics};
use crate::fixpoint::{Cancelled, Constraint};
use crate::matchrel::MatchRelation;
use crate::{candidate_set_classed, MatchError};
use expfinder_graph::bfs::Direction;
use expfinder_graph::bfs_frontier::FrontierScratch;
use expfinder_graph::{BitSet, CancelToken, GraphView, ReachProvider, Sym};
use expfinder_pattern::{PNodeId, Pattern};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parallel bounded simulation with work counters: identical results to
/// [`crate::bounded_simulation`], computed with `threads` workers (one
/// thread runs the sequential frontier engine), consulting a
/// per-snapshot [`ReachProvider`] during the first refinement round —
/// when every seed set is still its freshly seeded candidate set.
/// Bit-identical results with or without a provider. Never fails — the
/// `Result` is kept for signature parity with the sequential wrappers.
pub fn parallel_bounded_simulation_indexed<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    threads: usize,
    index: Option<&dyn ReachProvider>,
) -> Result<(MatchRelation, EvalStats), MatchError> {
    let req = EvalRequest {
        index,
        threads,
        ..EvalRequest::new(Semantics::Bounded)
    };
    evaluate(g, q, req).map_err(EvalError::uncancelled)
}

/// Candidate sets computed with `threads` workers, one pattern node per
/// work item, plus the per-pattern-node class markers of
/// [`crate::candidate_sets_classed`] (`Some(sym)` ⟺ that node's set is
/// exactly `g`'s label class for `sym`).
fn parallel_candidate_sets_classed<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    threads: usize,
) -> (Vec<BitSet>, Vec<Option<Sym>>) {
    let ids: Vec<PNodeId> = q.ids().collect();
    run_items(
        threads,
        &ids,
        || (),
        |_, &u| (u, candidate_set_classed(g, q, u)),
    )
    .map(|mut sets| {
        sets.sort_by_key(|(u, _)| u.index());
        sets.into_iter().map(|(_, (s, c))| (s, c)).unzip()
    })
    .unwrap_or_else(|| crate::candidate_sets_classed(g, q))
}

/// The parallel engine behind [`evaluate`]: forward (child-support)
/// constraints for the simulation flavours, plus the backward ones when
/// `dual`. `cancel` is polled at every round boundary and threaded into
/// each worker's BFS; a fired token aborts before the round's (possibly
/// torn) reach sets touch `sim` or the cache, so cancellation can never
/// corrupt results, and the partial [`EvalStats`] cover the completed
/// rounds.
pub(crate) fn refine<G: GraphView + Sync>(
    g: &G,
    q: &Pattern,
    dual: bool,
    threads: usize,
    index: Option<&dyn ReachProvider>,
    cancel: Option<&CancelToken>,
) -> Result<(MatchRelation, EvalStats), Cancelled> {
    let n = g.node_count();
    let (mut sim, classes) = parallel_candidate_sets_classed(g, q, threads);
    let mut stats = EvalStats::default();

    let mut constraints: Vec<Constraint> = Vec::new();
    for e in q.edges() {
        constraints.push(Constraint {
            constrained: e.from,
            seeds: e.to,
            depth: e.bound.depth(),
            dir: Direction::Backward,
        });
        if dual {
            constraints.push(Constraint {
                constrained: e.to,
                seeds: e.from,
                depth: e.bound.depth(),
                dir: Direction::Forward,
            });
        }
    }
    if constraints.is_empty() {
        return Ok((MatchRelation::from_sets(sim, n), stats));
    }

    // per-constraint reach cache: sim sets only shrink, so a later round
    // may restrict the BFS to the previous round's reach set
    let mut reach_cache: Vec<Option<BitSet>> = vec![None; constraints.len()];

    let mut frontier: Vec<usize> = (0..constraints.len()).collect();
    let mut first_round = true;
    while !frontier.is_empty() {
        // round-boundary cancellation point
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(Cancelled { stats });
        }
        // phase 1: reach-sets of the frontier, computed in parallel from
        // an immutable snapshot of the current sets (each worker reuses
        // one BFS scratch across its items). In the first round every
        // seed set is still its freshly seeded candidate set, so a
        // constraint seeded from a full label class can be served from
        // the per-snapshot reach index as one bitset copy (hit = true);
        // later rounds restrict the BFS to the cached reach set instead.
        let use_index = first_round;
        let reach_bfs = |scratch: &mut FrontierScratch, cid: usize, c: &Constraint| {
            let mut reach = BitSet::new(n);
            let visited = scratch.multi_source_within_cancel(
                g,
                &sim[c.seeds.index()],
                c.depth,
                c.dir,
                reach_cache[cid].as_ref(),
                cancel,
                &mut reach,
            );
            (reach, visited)
        };
        let reach_for = |scratch: &mut FrontierScratch, cid: usize| {
            let c = constraints[cid];
            if use_index {
                if let Some(provider) = index {
                    let hit = classes
                        .get(c.seeds.index())
                        .copied()
                        .flatten()
                        .and_then(|sym| provider.class_reach(sym, c.depth, c.dir));
                    return match hit {
                        Some(entry) => (cid, (*entry).clone(), 0, Some(true)),
                        None => {
                            let (reach, visited) = reach_bfs(scratch, cid, &c);
                            (cid, reach, visited, Some(false))
                        }
                    };
                }
            }
            let (reach, visited) = reach_bfs(scratch, cid, &c);
            (cid, reach, visited, None)
        };
        let mut reaches = run_items(threads, &frontier, FrontierScratch::new, |scratch, &cid| {
            reach_for(scratch, cid)
        })
        .unwrap_or_else(|| {
            let mut scratch = FrontierScratch::new();
            frontier
                .iter()
                .map(|&cid| reach_for(&mut scratch, cid))
                .collect()
        });
        // workers finish in any order, and phase 2 stops at the first set
        // it empties: apply in constraint order so the work counters (and
        // the planner's hit rate fed from them) do not depend on timing
        reaches.sort_unstable_by_key(|&(cid, ..)| cid);
        first_round = false;

        // the token may have fired mid-round: some reach sets are then
        // torn — abort before any of them are applied or cached
        if cancel.is_some_and(|t| t.is_cancelled()) {
            return Err(Cancelled { stats });
        }

        // phase 2: apply intersections; note which pattern nodes shrank
        let mut shrunk = vec![false; q.node_count()];
        for (cid, reach, visited, hit) in reaches {
            stats.refreshes += 1;
            stats.bfs_nodes_visited += visited;
            match hit {
                Some(true) => stats.index_hits += 1,
                Some(false) => stats.index_misses += 1,
                None => {}
            }
            let u = constraints[cid].constrained;
            let set = &mut sim[u.index()];
            let before = set.count();
            set.intersect_with(&reach);
            let after = set.count();
            if after < before {
                stats.removals += before - after;
                if set.is_empty() {
                    // some pattern node became unmatchable: M(Q,G) = ∅
                    return Ok((MatchRelation::empty(q, n), stats));
                }
                shrunk[u.index()] = true;
            }
            reach_cache[cid] = Some(reach);
        }

        // phase 3: next frontier = constraints whose seed set shrank
        frontier = (0..constraints.len())
            .filter(|&cid| shrunk[constraints[cid].seeds.index()])
            .collect();
    }

    Ok((MatchRelation::from_sets(sim, n), stats))
}

/// Map `f` over `items` with up to `threads` scoped workers pulling from a
/// shared counter — the one chunked work-queue idiom shared by the
/// parallel refinement, candidate seeding and the engine's batch
/// executor. Each worker owns one `W` built by `mk_worker` (reusable
/// scratch state; pass `|| ()` when none is needed). Results arrive in
/// worker-completion order — pair them with their item index when order
/// matters. Returns `None` when one inline pass is cheaper (a lone worker
/// or a lone item) — callers then run sequentially without paying a
/// thread spawn.
pub fn run_items<T: Sync, R: Send, W>(
    threads: usize,
    items: &[T],
    mk_worker: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, &T) -> R + Sync,
) -> Option<Vec<R>> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return None;
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<R> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            let mk_worker = &mk_worker;
            handles.push(s.spawn(move || {
                let mut worker = mk_worker();
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push(f(&mut worker, &items[i]));
                }
                local
            }));
        }
        for h in handles {
            out.extend(h.join().expect("parallel refinement worker panicked"));
        }
    });
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounded_simulation, dual_simulation, graph_simulation};
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::generate::{erdos_renyi, NodeSpec};
    use expfinder_graph::CsrGraph;
    use expfinder_pattern::fixtures::{fig1_pattern, fig1_pattern_simulation};
    use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn parallel<G: GraphView + Sync>(
        g: &G,
        q: &Pattern,
        semantics: Semantics,
        threads: usize,
    ) -> Result<MatchRelation, EvalError> {
        let req = EvalRequest {
            threads,
            ..EvalRequest::new(semantics)
        };
        evaluate(g, q, req).map(|(m, _)| m)
    }

    #[test]
    fn fig1_parallel_equals_sequential() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        for threads in [2, 4] {
            let par = parallel(&f.graph, &q, Semantics::Bounded, threads).unwrap();
            assert_eq!(par, bounded_simulation(&f.graph, &q).unwrap());
            let csr = CsrGraph::snapshot(&f.graph);
            let par_csr = parallel(&csr, &q, Semantics::Bounded, threads).unwrap();
            assert_eq!(par_csr, par, "CSR fast path agrees ({threads} threads)");
        }
    }

    #[test]
    fn simulation_rejects_bounded_patterns() {
        let f = collaboration_fig1();
        assert_eq!(
            parallel(&f.graph, &fig1_pattern(), Semantics::Simulation, 2).unwrap_err(),
            EvalError::Pattern(MatchError::NotASimulationPattern)
        );
        let qs = fig1_pattern_simulation();
        let m = parallel(&f.graph, &qs, Semantics::Simulation, 2).unwrap();
        assert_eq!(m, graph_simulation(&f.graph, &qs).unwrap());
    }

    #[test]
    fn random_graphs_all_semantics_agree() {
        let mut rng = StdRng::seed_from_u64(2607);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..15 {
            let g = erdos_renyi(&mut rng, 40, 160, &spec);
            let csr = CsrGraph::snapshot(&g);
            let mut cfg = PatternConfig::new(PatternShape::Dag, 4, spec.labels.clone());
            cfg.bound_range = (1, 3);
            cfg.extra_edges = 1;
            let q = random_pattern(&mut rng, &cfg);

            let seq_b = bounded_simulation(&g, &q).unwrap();
            let seq_d = dual_simulation(&g, &q);
            for threads in [2, 3] {
                assert_eq!(
                    parallel(&csr, &q, Semantics::Bounded, threads).unwrap(),
                    seq_b,
                    "trial {trial} bsim {threads}t"
                );
                assert_eq!(
                    parallel(&csr, &q, Semantics::Dual, threads).unwrap(),
                    seq_d,
                    "trial {trial} dual {threads}t"
                );
            }

            let qs = q.as_simulation();
            let seq_s = graph_simulation(&g, &qs).unwrap();
            assert_eq!(
                parallel(&csr, &qs, Semantics::Simulation, 3).unwrap(),
                seq_s,
                "trial {trial} sim"
            );
        }
    }

    #[test]
    fn candidate_sets_match_indexed_and_plain() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let csr = CsrGraph::snapshot(&f.graph);
        let plain = parallel_candidate_sets_classed(&f.graph, &q, 1).0;
        let indexed = parallel_candidate_sets_classed(&csr, &q, 4).0;
        assert_eq!(plain, indexed, "label index changes cost, not membership");
    }

    #[test]
    fn edgeless_pattern_is_candidate_filter() {
        let f = collaboration_fig1();
        let q = expfinder_pattern::PatternBuilder::new()
            .node("sa", expfinder_pattern::Predicate::label("SA"))
            .build()
            .unwrap();
        let m = parallel(&f.graph, &q, Semantics::Bounded, 2).unwrap();
        assert_eq!(m, bounded_simulation(&f.graph, &q).unwrap());
        assert_eq!(m.total_pairs(), 2);
    }
}
