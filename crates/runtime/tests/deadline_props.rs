//! Property tests for cooperative cancellation: a deadline firing at an
//! *arbitrary* cancellation point must leave either backend unpoisoned.
//!
//! The fuse token ([`CancelToken::after_checks`]) fires at an exact
//! armed check instead of racing a timer, so every refinement round of
//! every route is reachable deterministically. Whatever round the
//! evaluation was abandoned at, the very next un-deadlined query — cold,
//! then through the now-warm cache — must be bit-identical to the
//! independent oracle's fresh evaluation: on the in-memory engine
//! (sequential and parallel exec) and on the durable runtime, whose
//! published snapshot, cache and scratch pool it must not have touched.
//! Both facades live in this one suite because they run one `ReadPath`.
//!
//! The budget covers the whole read, not just the fixpoint: result-graph
//! construction polls the token per source match and ranking per
//! candidate. `every_fuse_value_yields_the_exact_experts_or_408` walks
//! the fuse through every one of those points on both facades — a ranked
//! answer is all or nothing, never a truncated list, and a relation whose
//! ranking was abandoned is still cached.

use expfinder_core::{RankedMatch, Semantics};
use expfinder_engine::{
    Catalog, EngineConfig, EvalRoute, ExecConfig, ExpFinder, ExpFinderError, GraphHandle,
    QuerySpec, RankTotals,
};
use expfinder_graph::fixtures::collaboration_fig1;
use expfinder_pattern::fixtures::fig1_pattern;
use expfinder_runtime::wal::FsyncPolicy;
use expfinder_runtime::{CancelToken, DurableExpFinder, RuntimeConfig};
use proptest::prelude::*;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Unique temp dir per proptest case (cases run concurrently).
fn tmpdir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("expfinder_deadlineprop_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// the raw graph / pattern generators and the queue oracle of the core
// equivalence suites — one copy, included here by path
#[path = "../../core/tests/common/mod.rs"]
mod common;
use common::*;

fn sequential() -> EngineConfig {
    EngineConfig {
        exec: ExecConfig::sequential(),
        ..EngineConfig::default()
    }
}

fn durable_config() -> RuntimeConfig {
    RuntimeConfig {
        fsync: FsyncPolicy::Never,
        engine: sequential(),
        ..RuntimeConfig::default()
    }
}

/// What a client can observe of a ranked answer: node order, rank bits.
fn bits(list: &[RankedMatch]) -> Vec<(u32, u64)> {
    list.iter().map(|x| (x.node.0, x.rank.to_bits())).collect()
}

/// One ranked Fig. 1 query per call on a fresh facade holding Fig. 1, so
/// every fuse value meets a cold cache. Either facade is read through the
/// same [`Catalog`].
fn walk_the_fuse<F: Deref<Target = Catalog>>(fresh: impl Fn() -> (F, GraphHandle)) {
    let run = |(c, h): &(F, GraphHandle), token: Option<&Arc<CancelToken>>, top_k| {
        let mut query = c.query(h).pattern(fig1_pattern());
        if let Some(k) = top_k {
            query = query.top_k(k);
        }
        if let Some(t) = token {
            query = query.cancel_token(Arc::clone(t));
        }
        query.run()
    };
    let (g, q) = (collaboration_fig1().graph, fig1_pattern());
    let want = bits(&reference_rank(
        &g,
        &q,
        &oracle(&g, &q, Semantics::Bounded),
        2,
    ));
    assert_eq!(want.len(), 2, "Bob, then Walt");

    // count the cancellation points of the evaluation alone and of the
    // whole ranked read with fuses that never fire
    let polls = |top_k| {
        let token = CancelToken::after_checks(u64::MAX);
        run(&fresh(), Some(&token), top_k).unwrap();
        token.checks()
    };
    let (eval_polls, all_polls) = (polls(None), polls(Some(2)));
    // Fig. 1: 8 source matches over the four pattern edges + 2 candidates
    assert_eq!(
        all_polls - eval_polls,
        10,
        "G_r and ranking are cancellation points"
    );

    // the work of the finished evaluation, as the last possible 408 reports it
    let last = CancelToken::after_checks(all_polls);
    let finished = match run(&fresh(), Some(&last), Some(2)) {
        Err(ExpFinderError::DeadlineExceeded(stats)) => stats,
        other => panic!("the last poll must fire, got {other:?}"),
    };
    assert!(finished.refreshes >= q.edge_count());

    for fuse in 1..=all_polls + 1 {
        let facade = fresh();
        let totals = || facade.0.read_path().rank_totals();
        match run(&facade, Some(&CancelToken::after_checks(fuse)), Some(2)) {
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
                let again = run(&facade, None, Some(2)).unwrap();
                assert_eq!(
                    bits(&again.experts),
                    want,
                    "fuse {fuse}: never a truncated list"
                );
                assert_eq!(again.route == EvalRoute::Cache, ranking, "fuse {fuse}");
                // nothing partial was stored: the follow-up ranked afresh
                let expect = RankTotals {
                    computed: 1 + ranking as u64,
                    reused: 0,
                };
                assert_eq!(totals(), expect, "fuse {fuse}");
            }
            Err(other) => panic!("fuse {fuse}: unexpected error: {other}"),
        }
    }
}

#[test]
fn every_fuse_value_yields_the_exact_experts_or_408() {
    // the in-memory engine
    walk_the_fuse(|| {
        let engine = ExpFinder::new(sequential());
        let h = engine.add_graph("g", collaboration_fig1().graph).unwrap();
        (engine, h)
    });

    // the durable runtime
    let dirs = std::cell::RefCell::new(Vec::new());
    walk_the_fuse(|| {
        let dir = tmpdir();
        dirs.borrow_mut().push(dir.clone());
        let rt = DurableExpFinder::open(&dir, durable_config()).unwrap();
        rt.add_graph("g", collaboration_fig1().graph).unwrap();
        let h = rt.handle("g").unwrap();
        (rt, h)
    });
    for dir in dirs.into_inner() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cancel at the `fuse`-th cancellation point, then re-query: the
    /// abandoned evaluation must not have leaked partial state into the
    /// cache, the scratch pool, the cost profile or the CSR snapshot.
    #[test]
    fn deadline_at_any_round_leaves_engine_unpoisoned(
        rg in raw_graph(12),
        rp in raw_pattern(),
        fuse in 1u64..48,
        parallel in proptest::bool::ANY,
    ) {
        let (g, q) = (build_graph(&rg), build_pattern(&rp, false));
        let oracle = oracle(&g, &q, Semantics::Bounded);
        let g_model = g.clone();

        let exec = if parallel {
            ExecConfig { threads: 3, batch_parallelism: 2 }
        } else {
            ExecConfig::sequential()
        };
        let engine = ExpFinder::new(EngineConfig { exec, ..EngineConfig::default() });
        let h = engine.add_graph("g", g).unwrap();

        // fire at an arbitrary cancellation point; a fuse longer than
        // the whole evaluation means the query completes — and then it
        // must already agree with the oracle
        let experts = bits(&reference_rank(&g_model, &q, &oracle, 3));
        let token = CancelToken::after_checks(fuse);
        match engine.query(&h).pattern(q.clone()).top_k(3).cancel_token(token).run() {
            Err(ExpFinderError::DeadlineExceeded(_)) => {}
            Ok(resp) => {
                prop_assert_eq!(&*resp.matches, &oracle);
                prop_assert_eq!(bits(&resp.experts), experts.clone());
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }

        // the next un-deadlined query is bit-identical to a fresh
        // evaluation — nothing partial was cached or left in scratch
        let after = engine.query(&h).pattern(q.clone()).top_k(3).run().unwrap();
        prop_assert_eq!(&*after.matches, &oracle);
        prop_assert_eq!(bits(&after.experts), experts);

        // and so is the cache hit that follows it
        let cached = engine.query(&h).pattern(q.clone()).run().unwrap();
        prop_assert_eq!(&*cached.matches, &oracle);

        // a zero batch budget deadlines every slot without poisoning
        // the batch scratch pool either
        let slots = engine.query_batch_deadline(
            &h,
            vec![QuerySpec::pattern(q.clone()), QuerySpec::pattern(q.clone())],
            Some(Duration::ZERO),
        );
        for slot in slots {
            match slot {
                Err(ExpFinderError::DeadlineExceeded(_)) => {}
                other => prop_assert!(false, "expected DeadlineExceeded, got {other:?}"),
            }
        }
        let final_run = engine.query(&h).pattern(q).run().unwrap();
        prop_assert_eq!(&*final_run.matches, &oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancel at the `fuse`-th cancellation point on a durable runtime,
    /// then re-query without a deadline: same answer as the oracle.
    #[test]
    fn deadline_at_any_round_leaves_runtime_unpoisoned(
        rg in raw_graph(10),
        rp in raw_pattern(),
        fuse in 1u64..40,
    ) {
        let (g, q) = (build_graph(&rg), build_pattern(&rp, false));
        let oracle = oracle(&g, &q, Semantics::Bounded);

        let dir = tmpdir();
        let rt = DurableExpFinder::open(&dir, durable_config()).unwrap();
        let experts = bits(&reference_rank(&g, &q, &oracle, 3));
        rt.add_graph("g", g).unwrap();
        let h = rt.handle("g").unwrap();

        let token = CancelToken::after_checks(fuse);
        match rt.query(&h).pattern(q.clone()).top_k(3).cancel_token(token).run() {
            Err(ExpFinderError::DeadlineExceeded(_)) => {}
            Ok(resp) => {
                prop_assert_eq!(&*resp.matches, &oracle);
                prop_assert_eq!(bits(&resp.experts), experts.clone());
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }

        let after = rt.find_experts(&h, &q, 3).unwrap();
        prop_assert_eq!(&*after.matches, &oracle);
        prop_assert_eq!(bits(&after.experts), experts);

        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
