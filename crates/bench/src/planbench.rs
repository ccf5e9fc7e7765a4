//! Deterministic planner-decision snapshot (PR 6).
//!
//! Replays a fixed set of query scenarios against seeded workload graphs
//! and records every [`PlanDecision`] the cost-based planner makes — the
//! chosen route, the planned route before any preference override, and
//! each candidate's estimated cost. The planner is deterministic in its
//! inputs (graph sizes and read/hit counters; wall-clock never decides),
//! so the resulting document is bit-identical across runs and machines
//! and can be diffed against the checked-in `PLANS.json` in CI: a diff
//! means a planner behavior change that must be reviewed and the
//! snapshot regenerated (`just plan-snapshot`), not a flaky failure.
//!
//! Costs are rounded to integer work units before encoding, and an
//! unamortizable candidate (`+∞`, e.g. a CSR build on a version's first
//! read) is encoded as the string `"inf"` — the same convention the wire
//! protocol uses for `timings.plan`.

use crate::matchbench::{collab_team_star_pattern, twitter_audience_pattern};
use crate::{collab_graph, collab_pattern, json_obj as obj, twitter_graph, SEED};
use expfinder_compress::CompressionMethod;
use expfinder_engine::{
    EngineConfig, ExecConfig, ExpFinder, GraphHandle, PlanDecision, QueryResponse, Route,
};
use expfinder_graph::json::Value;
use expfinder_graph::{EdgeUpdate, NodeId};
use expfinder_pattern::Pattern;

fn prefer_str(prefer: Route) -> &'static str {
    match prefer {
        Route::Auto => "auto",
        Route::Compressed => "compressed",
        Route::Direct => "direct",
    }
}

/// Integer work units, or `"inf"` for an unamortizable candidate.
fn cost_value(cost: f64) -> Value {
    if cost.is_finite() {
        Value::Int(cost.round() as i64)
    } else {
        Value::Str("inf".into())
    }
}

fn plan_doc(plan: &PlanDecision) -> Value {
    let candidates: Vec<Value> = plan
        .candidates
        .iter()
        .map(|c| {
            obj(vec![
                ("route", Value::Str(c.route.as_str().to_owned())),
                ("cost", cost_value(c.cost)),
            ])
        })
        .collect();
    obj(vec![
        ("chosen", Value::Str(plan.chosen.as_str().to_owned())),
        ("planned", Value::Str(plan.planned.as_str().to_owned())),
        ("overridden", Value::Bool(plan.overridden)),
        ("candidates", Value::Array(candidates)),
    ])
}

/// Run one query and record its decision.
fn step(
    engine: &ExpFinder,
    h: &GraphHandle,
    pattern: &Pattern,
    prefer: Route,
    index: usize,
) -> (Value, QueryResponse) {
    let resp = engine
        .query(h)
        .pattern(pattern.clone())
        .prefer(prefer)
        .run()
        .expect("plan scenario query");
    let doc = obj(vec![
        ("step", Value::Int(index as i64)),
        ("prefer", Value::Str(prefer_str(prefer).to_owned())),
        ("plan", plan_doc(&resp.plan)),
    ]);
    (doc, resp)
}

/// One scenario: a fresh engine, one seeded graph, a scripted sequence
/// of queries (each `(pattern, prefer)`), with optional update batches
/// and compression between steps driven by the closure.
fn scenario(
    name: &str,
    exec: ExecConfig,
    graph: expfinder_graph::DiGraph,
    script: impl FnOnce(&ExpFinder, &GraphHandle, &mut Vec<Value>),
) -> Value {
    let engine = ExpFinder::new(EngineConfig {
        exec,
        ..EngineConfig::default()
    });
    let nodes = expfinder_graph::GraphView::node_count(&graph);
    let edges = expfinder_graph::GraphView::edge_count(&graph);
    let h = engine.add_graph(name, graph).expect("add scenario graph");
    let mut steps = Vec::new();
    script(&engine, &h, &mut steps);
    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("nodes", Value::Int(nodes as i64)),
        ("edges", Value::Int(edges as i64)),
        ("threads", Value::Int(exec.threads as i64)),
        ("steps", Value::Array(steps)),
    ])
}

/// Build the full plan-decision document. Purely deterministic: seeded
/// graphs, scripted query sequences, counter-driven cost estimates.
pub fn run_plan_bench() -> Value {
    let mut scenarios = Vec::new();

    // A version's first read never pays a CSR build: live wins, and the
    // snapshot candidate is reported as unamortizable.
    scenarios.push(scenario(
        "collab_cold_first_read",
        ExecConfig::sequential(),
        collab_graph(1500, SEED),
        |engine, h, steps| {
            steps.push(step(engine, h, &collab_pattern(), Route::Direct, 0).0);
        },
    ));

    // Repeated class-seeded reads on one version warm into the
    // reach-indexed snapshot route (`prefer=direct` bypasses the cache
    // so every step is a planned decision).
    scenarios.push(scenario(
        "collab_warm_class_seeded",
        ExecConfig::sequential(),
        collab_graph(1500, SEED),
        |engine, h, steps| {
            let q = collab_team_star_pattern();
            for i in 0..3 {
                steps.push(step(engine, h, &q, Route::Direct, i).0);
            }
        },
    ));

    // An update batch rolls the version: reads-per-version reset and the
    // planner drops back to live adjacency.
    scenarios.push(scenario(
        "collab_update_heavy",
        ExecConfig::sequential(),
        collab_graph(1500, SEED),
        |engine, h, steps| {
            let q = collab_team_star_pattern();
            steps.push(step(engine, h, &q, Route::Direct, 0).0);
            steps.push(step(engine, h, &q, Route::Direct, 1).0);
            // insert-then-delete of one pair applies at least one change
            // whether or not the generator emitted that edge, so the
            // version always rolls
            engine
                .apply_updates(
                    h,
                    &[
                        EdgeUpdate::Insert(NodeId(0), NodeId(1)),
                        EdgeUpdate::Delete(NodeId(0), NodeId(1)),
                    ],
                )
                .expect("update batch");
            steps.push(step(engine, h, &q, Route::Direct, 2).0);
        },
    ));

    // With a thread budget the parallel snapshot route can amortize its
    // build inside a single large query.
    scenarios.push(scenario(
        "twitter_parallel",
        ExecConfig {
            threads: 4,
            batch_parallelism: 1,
        },
        twitter_graph(5000, SEED),
        |engine, h, steps| {
            let q = twitter_audience_pattern();
            steps.push(step(engine, h, &q, Route::Direct, 0).0);
            steps.push(step(engine, h, &q, Route::Direct, 1).0);
        },
    ));

    // A compression-safe pattern on a compressed graph routes to the
    // quotient; `prefer=compressed` on a later step records an override.
    scenarios.push(scenario(
        "collab_compressed",
        ExecConfig::sequential(),
        collab_graph(1500, SEED),
        |engine, h, steps| {
            engine
                .compress(h, CompressionMethod::Bisimulation)
                .expect("compress scenario graph");
            let q = collab_team_star_pattern();
            steps.push(step(engine, h, &q, Route::Auto, 0).0);
            steps.push(step(engine, h, &q, Route::Compressed, 1).0);
        },
    ));

    // Exact routes short-circuit the planner: the second identical auto
    // query is a cache hit with no costed candidates.
    scenarios.push(scenario(
        "collab_cache_hit",
        ExecConfig::sequential(),
        collab_graph(1500, SEED),
        |engine, h, steps| {
            let q = collab_pattern();
            steps.push(step(engine, h, &q, Route::Auto, 0).0);
            steps.push(step(engine, h, &q, Route::Auto, 1).0);
        },
    ));

    obj(vec![
        ("bench", Value::Str("plan_decisions".to_owned())),
        (
            "note",
            Value::Str(
                "planner decisions on scripted scenarios; deterministic in graph sizes \
                 and read/hit counters, so any diff against the checked-in snapshot is \
                 a planner behavior change"
                    .to_owned(),
            ),
        ),
        ("seed", Value::Int(SEED as i64)),
        ("scenarios", Value::Array(scenarios)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_by_name<'a>(doc: &'a Value, name: &str) -> &'a Value {
        doc.field("scenarios")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|s| s.field("name").unwrap().as_str().unwrap() == name)
            .unwrap_or_else(|| panic!("scenario {name}"))
    }

    fn chosen(scenario: &Value, step: usize) -> String {
        scenario.field("steps").unwrap().as_array().unwrap()[step]
            .field("plan")
            .unwrap()
            .field("chosen")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned()
    }

    #[test]
    fn plan_bench_is_deterministic() {
        let a = run_plan_bench();
        let b = run_plan_bench();
        assert_eq!(a, b, "decisions must not depend on wall-clock");
        // and survives the hand-rolled JSON round trip
        let text = a.to_string_pretty();
        assert_eq!(expfinder_graph::json::parse(&text).unwrap(), a);
    }

    #[test]
    fn scenarios_pin_the_acceptance_routes() {
        let doc = run_plan_bench();

        let cold = scenario_by_name(&doc, "collab_cold_first_read");
        assert_eq!(chosen(cold, 0), "live", "first read never pays a build");

        let warm = scenario_by_name(&doc, "collab_warm_class_seeded");
        assert_eq!(chosen(warm, 0), "live");
        assert_eq!(chosen(warm, 1), "snapshot", "second read amortizes");
        assert_eq!(chosen(warm, 2), "snapshot");

        let updates = scenario_by_name(&doc, "collab_update_heavy");
        assert_eq!(
            chosen(updates, 2),
            "live",
            "version roll resets the amortization"
        );

        let compressed = scenario_by_name(&doc, "collab_compressed");
        assert_eq!(chosen(compressed, 0), "compressed");

        let cache = scenario_by_name(&doc, "collab_cache_hit");
        assert_eq!(chosen(cache, 1), "cache");
        let exact = cache.field("steps").unwrap().as_array().unwrap()[1]
            .field("plan")
            .unwrap();
        assert!(exact
            .field("candidates")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }
}
