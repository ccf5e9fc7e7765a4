//! Criterion benches for E12: design-choice ablations.

use criterion::{criterion_group, criterion_main, Criterion};
use expfinder_bench::*;
use expfinder_compress::{compress_graph, CompressionMethod};
use expfinder_core::{
    bounded_simulation, evaluate, BuildOptions, EvalOptions, EvalRequest, PlanMode, ResultGraph,
    Semantics,
};

fn bench_plan_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_mode");
    group.sample_size(10);
    let g = collab_graph(8_000, SEED);
    let q = collab_pattern();
    let with_plan = |plan| {
        let req = EvalRequest {
            options: EvalOptions::with_plan(plan),
            ..EvalRequest::new(Semantics::Bounded)
        };
        evaluate(&g, &q, req)
    };
    group.bench_function("selective", |b| b.iter(|| with_plan(PlanMode::Selective)));
    group.bench_function("declaration_order", |b| {
        b.iter(|| with_plan(PlanMode::DeclarationOrder))
    });
    group.finish();
}

fn bench_parallel_result_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("result_graph_threads");
    group.sample_size(10);
    let g = twitter_graph(30_000, SEED);
    let q = twitter_pattern();
    let m = bounded_simulation(&g, &q).unwrap();
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    group.bench_function("threads_1", |b| {
        b.iter(|| ResultGraph::build_with(&g, &q, &m, BuildOptions { threads: 1 }))
    });
    group.bench_function(format!("threads_{cores}"), |b| {
        b.iter(|| ResultGraph::build_with(&g, &q, &m, BuildOptions { threads: cores }))
    });
    group.finish();
}

fn bench_compression_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("compression_method");
    group.sample_size(10);
    let g = collab_graph(3_000, SEED);
    group.bench_function("bisimulation", |b| {
        b.iter(|| compress_graph(&g, CompressionMethod::Bisimulation).unwrap())
    });
    group.bench_function("simulation_equivalence", |b| {
        b.iter(|| compress_graph(&g, CompressionMethod::SimulationEquivalence).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_modes,
    bench_parallel_result_graph,
    bench_compression_methods
);
criterion_main!(benches);
