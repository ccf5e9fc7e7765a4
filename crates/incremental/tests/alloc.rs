//! An update costs its affected area, not the graph: the bytes the
//! maintainer allocates inside `on_update` over a seeded update stream
//! are the same on a collaboration graph and on that graph padded with
//! 100 000 isolated nodes no pattern node can match. A per-update scratch
//! sized by `|V|` (a bitset, a distance array) shows up as a difference.
//!
//! `end_batch` runs between batches but is not measured: its
//! `RerankScratch` sizes two `|V|` Dijkstra arrays once, on first use.

use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder_graph::DiGraph;
use expfinder_incremental::{IncrementalBoundedSim, Maintainer, RerankScratch};
use expfinder_pattern::fixtures::fig1_pattern;
use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot is gone while the thread is torn down
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// Labels of the collaboration generator.
const LABELS: [&str; 7] = ["SA", "SD", "BA", "ST", "QA", "PM", "GD"];

/// Bytes allocated inside `on_update` while four patterns — the paper's
/// team pattern and three seeded ones, bounds 1–3 — are maintained over
/// 400 seeded updates in batches of 4, on a 1 600-person collaboration
/// graph with `pad` isolated `PAD` nodes appended.
fn on_update_bytes(pad: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(46);
    let cfg = CollabConfig {
        teams: 200,
        ..CollabConfig::default()
    };
    let mut g: DiGraph = collaboration(&mut rng, &cfg);
    // the stream is drawn before padding, so it never touches a pad node
    let updates = random_updates(&mut rng, &g, 400, 0.5);
    let labels: Vec<String> = LABELS.map(String::from).to_vec();
    let mut patterns = vec![fig1_pattern()];
    for shape in [PatternShape::Chain, PatternShape::Tree, PatternShape::Cycle] {
        let cfg = PatternConfig::new(shape, 4, labels.clone());
        patterns.push(random_pattern(&mut rng, &cfg));
    }
    for _ in 0..pad {
        g.add_node("PAD", []);
    }
    let mut incs: Vec<_> = (patterns.iter())
        .map(|q| IncrementalBoundedSim::new(&g, q))
        .collect();
    let mut rerank = RerankScratch::default();
    let mut bytes = 0;
    for batch in updates.chunks(4) {
        for &up in batch {
            assert!(g.apply(up), "{up} changes the graph");
            for inc in &mut incs {
                let before = allocated();
                let delta = inc.on_update(&g, up);
                bytes += allocated() - before;
                drop(delta);
            }
        }
        for inc in &mut incs {
            inc.end_batch(&g, &mut rerank);
        }
    }
    let moved = |inc: &IncrementalBoundedSim| inc.stats().added + inc.stats().removed > 0;
    assert!(incs.iter().any(moved), "the stream moves some match");
    bytes
}

#[test]
fn on_update_allocates_nothing_sized_by_the_graph() {
    let small = on_update_bytes(0);
    let padded = on_update_bytes(100_000);
    assert!(small > 0, "the count sees the maintainer's allocations");
    assert_eq!(small, padded, "bytes allocated inside on_update");
}
