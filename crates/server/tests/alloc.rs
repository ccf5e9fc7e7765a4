//! A query reply is written, not built: `wire::write_query_response`
//! into a `String` that already has room for the reply allocates
//! nothing, whatever the number of experts, when the match relation is
//! not asked for. A temporary per number, per name or per object shows
//! up as a count that grows with `k`.

use expfinder_core::{MatchRelation, RankedMatch};
use expfinder_engine::{CandidateCost, PlanDecision, PlanRoute, QueryResponse, QueryTimings};
use expfinder_graph::{BitSet, NodeId};
use expfinder_server::wire::write_query_response;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// The system allocator, counting the allocations each thread asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is torn down
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A reply of `k` experts with fractional, integral and infinite ranks,
/// a planned route with two candidates (one cost not finite) and
/// fractional timings.
fn response(k: u32) -> QueryResponse {
    let mut set = BitSet::new(k.max(1) as usize);
    for v in 0..k.max(1) {
        set.insert(NodeId(v));
    }
    QueryResponse {
        experts: (0..k)
            .map(|v| RankedMatch {
                node: NodeId(v),
                rank: match v % 3 {
                    0 => 1.0 + v as f64 / 7.0,
                    1 => v as f64,
                    _ => f64::INFINITY,
                },
            })
            .collect(),
        matches: Arc::new(MatchRelation::from_sets(vec![set], k.max(1) as usize)),
        graph_version: 42,
        timings: QueryTimings {
            evaluate: Duration::from_nanos(123_457),
            rank: Duration::from_nanos(98_765),
            total: Duration::from_nanos(333_333),
        },
        plan: PlanDecision {
            chosen: PlanRoute::Snapshot,
            planned: PlanRoute::Snapshot,
            overridden: false,
            candidates: vec![
                CandidateCost {
                    route: PlanRoute::Snapshot,
                    cost: 1234.5678,
                },
                CandidateCost {
                    route: PlanRoute::Compressed,
                    cost: f64::INFINITY,
                },
            ],
            expected_hit_rate: 0.5,
        },
    }
}

#[test]
fn a_reply_written_into_a_buffer_with_room_allocates_nothing() {
    let pattern = expfinder_pattern::parser::parse("node sa* where label = \"SA\";").unwrap();
    let names: Vec<String> = (0..100).map(|v| format!("Expert \"{v}\" é\n")).collect();
    for k in [0u32, 1, 10, 100] {
        let resp = response(k);
        let resolve = |n: NodeId| names.get(n.0 as usize).map(String::as_str);
        // the same reply once into a fresh buffer, to learn its length
        let mut sized = String::new();
        write_query_response(&mut sized, &resp, &pattern, false, resolve);
        let mut out = String::with_capacity(sized.len());
        let before = allocations();
        write_query_response(&mut out, &resp, &pattern, false, resolve);
        let made = allocations() - before;
        assert_eq!(out, sized);
        assert_eq!(
            made,
            0,
            "k = {k}: {made} allocations writing {} bytes",
            out.len()
        );
    }
    // the counter counts: the tree the harness times allocates per node
    let resp = response(10);
    let before = allocations();
    let tree = expfinder_server::wire::encode_query_response(&resp, &pattern, false, |_| None);
    assert!(allocations() - before > 10, "{tree:?}");
}
