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

use expfinder_core::Semantics;
use expfinder_engine::{EngineConfig, ExecConfig, ExpFinder, ExpFinderError, QuerySpec, Route};
use expfinder_runtime::wal::FsyncPolicy;
use expfinder_runtime::{CancelToken, DurableExpFinder, RuntimeConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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
        let token = CancelToken::after_checks(fuse);
        match engine.query(&h).pattern(q.clone()).cancel_token(token).run() {
            Err(ExpFinderError::DeadlineExceeded(_)) => {}
            Ok(resp) => prop_assert_eq!(&*resp.matches, &oracle),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }

        // the next un-deadlined query is bit-identical to a fresh
        // evaluation — nothing partial was cached or left in scratch
        let after = engine.query(&h).pattern(q.clone()).top_k(3).run().unwrap();
        prop_assert_eq!(&*after.matches, &oracle);

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
        let rt = DurableExpFinder::open(
            &dir,
            RuntimeConfig {
                shards: 1,
                fsync: FsyncPolicy::Never,
                exec: ExecConfig::sequential(),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        rt.add_graph("g", g).unwrap();

        let token = CancelToken::after_checks(fuse);
        match rt.query_cancellable("g", &q, None, Route::Auto, &token) {
            Err(ExpFinderError::DeadlineExceeded(_)) => {}
            Ok(resp) => prop_assert_eq!(&*resp.matches, &oracle),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }

        let after = rt.query("g", &q, Some(3), Route::Auto).unwrap();
        prop_assert_eq!(&*after.matches, &oracle);

        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
