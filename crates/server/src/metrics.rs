//! Lock-free serving metrics, exported as JSON on `GET /metrics`.
//!
//! Everything is plain atomics so the request hot path never takes a
//! lock: per-route request counters and latency histograms (fixed
//! log-spaced microsecond buckets), response counts by status class, an
//! in-flight gauge (RAII guard), and the connection and backpressure
//! [`Counters`] blocks. Graph versions are read live from the engine at
//! export time.

use crate::backend::Backend;
use expfinder_graph::json::Value;
use expfinder_graph::Counters;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds, in microseconds (plus an implicit
/// overflow bucket). Log-spaced to cover sub-ms cache hits through
/// multi-second batch drains.
pub const BUCKET_BOUNDS_US: [u64; 10] = [
    250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 500_000, 2_000_000,
];

/// The routes metrics are keyed by (one slot per endpoint family).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RouteKey {
    Healthz,
    Metrics,
    GraphsList,
    GraphAdd,
    Query,
    Batch,
    Updates,
    Register,
    Subscribe,
    Shutdown,
    /// Anything that did not resolve to a known route.
    Other,
}

impl RouteKey {
    pub const ALL: [RouteKey; 11] = [
        RouteKey::Healthz,
        RouteKey::Metrics,
        RouteKey::GraphsList,
        RouteKey::GraphAdd,
        RouteKey::Query,
        RouteKey::Batch,
        RouteKey::Updates,
        RouteKey::Register,
        RouteKey::Subscribe,
        RouteKey::Shutdown,
        RouteKey::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RouteKey::Healthz => "healthz",
            RouteKey::Metrics => "metrics",
            RouteKey::GraphsList => "graphs_list",
            RouteKey::GraphAdd => "graph_add",
            RouteKey::Query => "query",
            RouteKey::Batch => "batch",
            RouteKey::Updates => "updates",
            RouteKey::Register => "register",
            RouteKey::Subscribe => "subscribe",
            RouteKey::Shutdown => "shutdown",
            RouteKey::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

// `RouteKey::index` is the discriminant: `ALL` lists the keys in
// declaration order
const _: () = {
    let mut i = 0;
    while i < RouteKey::ALL.len() {
        assert!(RouteKey::ALL[i] as usize == i);
        i += 1;
    }
};

/// Counters for one route.
#[derive(Default)]
struct RouteStats {
    count: AtomicU64,
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    latency_sum_us: AtomicU64,
    latency_max_us: AtomicU64,
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    /// Admitted planner cost currently being evaluated on this route, in
    /// milli-work-units (fixed-point so the gauge stays a lock-free
    /// atomic). Fed by [`Metrics::admit_cost`], drained by its guard.
    cost_in_flight_milli: AtomicU64,
}

impl RouteStats {
    fn record(&self, status: u16, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_max_us.fetch_max(us, Ordering::Relaxed);
        let slot = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
    }

    fn to_json(&self) -> Value {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<Value> = BUCKET_BOUNDS_US
            .iter()
            .map(|b| Value::Int(*b as i64))
            .zip(self.buckets.iter())
            .map(|(le, c)| {
                obj(vec![
                    ("le_us", le),
                    ("count", Value::Int(c.load(Ordering::Relaxed) as i64)),
                ])
            })
            .chain(std::iter::once(obj(vec![
                ("le_us", Value::Str("inf".into())),
                (
                    "count",
                    Value::Int(self.buckets[BUCKET_BOUNDS_US.len()].load(Ordering::Relaxed) as i64),
                ),
            ])))
            .collect();
        obj(vec![
            ("count", Value::Int(count as i64)),
            (
                "cost_in_flight",
                Value::Float(self.cost_in_flight_milli.load(Ordering::Relaxed) as f64 / 1e3),
            ),
            (
                "status",
                obj(vec![
                    (
                        "2xx",
                        Value::Int(self.status_2xx.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "4xx",
                        Value::Int(self.status_4xx.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "5xx",
                        Value::Int(self.status_5xx.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            (
                "latency_us",
                obj(vec![
                    (
                        "sum",
                        Value::Int(self.latency_sum_us.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "max",
                        Value::Int(self.latency_max_us.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "mean",
                        Value::Float(if count == 0 {
                            0.0
                        } else {
                            self.latency_sum_us.load(Ordering::Relaxed) as f64 / count as f64
                        }),
                    ),
                    ("buckets", Value::Array(buckets)),
                ]),
            ),
        ])
    }
}

/// The server-wide metrics registry.
pub struct Metrics {
    started: Instant,
    routes: [RouteStats; RouteKey::ALL.len()],
    in_flight: AtomicU64,
    /// `connections`: connections accepted and closed.
    connections: Counters<2>,
    /// `server.shed`: connections refused with `503 + Retry-After`
    /// because `3 × workers` connections were live (load shedding, not an
    /// error).
    shed: Counters<1>,
    /// `server.deadline`: queries answered 408 because their deadline
    /// fired mid-evaluation (`enforced`), and queries answered 429 at
    /// admission because the planner's cost estimate did not fit the
    /// ceiling or the in-flight pool (`rejected`).
    deadline: Counters<2>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            routes: Default::default(),
            in_flight: AtomicU64::new(0),
            connections: Counters::new(&["opened", "closed"]),
            shed: Counters::new(&["shed"]),
            deadline: Counters::new(&["enforced", "rejected"]),
        }
    }
}

/// RAII in-flight marker: increments on creation, decrements on drop, so
/// the gauge is correct on every exit path (including panics unwinding
/// out of a handler).
pub struct InFlight<'a>(&'a Metrics);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII admitted-cost marker from [`Metrics::admit_cost`]: holds the
/// admitted work units on the route's in-flight cost gauge until the
/// query finishes (or unwinds).
pub struct CostInFlight<'a> {
    metrics: &'a Metrics,
    route: RouteKey,
    milli: u64,
}

impl Drop for CostInFlight<'_> {
    fn drop(&mut self) {
        self.metrics.routes[self.route.index()]
            .cost_in_flight_milli
            .fetch_sub(self.milli, Ordering::Relaxed);
    }
}

impl Metrics {
    /// Mark a request in flight for the lifetime of the returned guard.
    pub fn begin_request(&self) -> InFlight<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlight(self)
    }

    /// Record one completed request.
    pub fn record(&self, route: RouteKey, status: u16, elapsed: Duration) {
        self.routes[route.index()].record(status, elapsed);
    }

    pub fn connection_opened(&self) {
        self.connections.add(0, 1);
    }

    pub fn connection_closed(&self) {
        self.connections.add(1, 1);
    }

    /// Count one connection answered with the load-shedding 503.
    pub fn connection_shed(&self) {
        self.shed.add(0, 1);
    }

    /// Count one query answered 408 (deadline fired mid-evaluation).
    pub fn note_deadline_enforced(&self) {
        self.deadline.add(0, 1);
    }

    /// Count one query rejected 429 at admission.
    pub fn note_deadline_rejected(&self) {
        self.deadline.add(1, 1);
    }

    /// Admit `cost` work units onto `route`'s in-flight gauge for the
    /// lifetime of the returned guard (RAII, so the gauge is correct on
    /// every exit path). Non-finite and negative costs clamp to zero —
    /// they carry no admission weight.
    pub fn admit_cost(&self, route: RouteKey, cost: f64) -> CostInFlight<'_> {
        let milli = if cost.is_finite() && cost > 0.0 {
            (cost * 1e3).min(u64::MAX as f64 / 2.0) as u64
        } else {
            0
        };
        let slot = &self.routes[route.index()];
        slot.cost_in_flight_milli
            .fetch_add(milli, Ordering::Relaxed);
        CostInFlight {
            metrics: self,
            route,
            milli,
        }
    }

    /// Admitted planner cost currently in flight on `route`, in work
    /// units — the load input of the 429 admission check.
    pub fn cost_in_flight(&self, route: RouteKey) -> f64 {
        self.routes[route.index()]
            .cost_in_flight_milli
            .load(Ordering::Relaxed) as f64
            / 1e3
    }

    /// Admitted planner cost in flight across every route.
    pub fn total_cost_in_flight(&self) -> f64 {
        self.routes
            .iter()
            .map(|r| r.cost_in_flight_milli.load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e3
    }

    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Total requests recorded across all routes.
    pub fn total_requests(&self) -> u64 {
        self.routes
            .iter()
            .map(|r| r.count.load(Ordering::Relaxed))
            .sum()
    }

    /// The `GET /metrics` document. Graph versions, cache counters and
    /// cumulative evaluation-work counters come live from the backend so
    /// the exporter doubles as a serving-path profiler: cache hit rates
    /// and `EvalStats` wins (refresh skipping, BFS-node reduction) are
    /// visible without attaching a profiler. The durability block
    /// (`engine.wal`) is always present so dashboards see one schema —
    /// an in-memory backend exports zeroes — as are the
    /// fault-injection counters (`engine.faults`, zero unless a test
    /// armed the injector; `injected` accumulates, while the boundary
    /// counts restart at zero with each arming) and the load-shedding counter
    /// (`server.shed`). `subscriptions`
    /// is the push-streaming gauge block built by the server's
    /// subscription hub (live subscribers, frames pushed, slow-consumer
    /// disconnects).
    pub fn to_json(&self, backend: &Backend, subscriptions: Value) -> Value {
        let requests = RouteKey::ALL
            .iter()
            .map(|k| (k.name(), self.routes[k.index()].to_json()))
            .collect::<Vec<_>>();
        let read = backend.read_path();
        let index = backend.index_totals();
        let faults = backend.fault_totals();
        let engine_doc = obj(vec![
            (
                "cache",
                block(
                    read.cache_stats(),
                    vec![
                        ("evictions", Value::Int(index.cache_evictions as i64)),
                        ("entries", Value::Int(index.cached_results as i64)),
                    ],
                ),
            ),
            ("eval", block(read.eval_totals(), vec![])),
            (
                "index",
                block(
                    read.index_counters(),
                    vec![
                        ("entries", Value::Int(index.entries as i64)),
                        ("bytes", Value::Int(index.bytes as i64)),
                        ("classes", Value::Int(index.classes as i64)),
                        ("class_bytes", Value::Int(index.class_bytes as i64)),
                        ("resets", Value::Int(index.resets as i64)),
                    ],
                ),
            ),
            ("planner", block(read.planner_totals(), vec![])),
            ("rank", block(read.rank_totals(), vec![])),
            ("cancel", block(read.cancel_totals(), vec![])),
            ("wal", block(backend.wal_totals(), vec![])),
            (
                "faults",
                obj(vec![
                    ("injected", Value::Int(faults.injected as i64)),
                    ("writes", Value::Int(faults.writes as i64)),
                    ("fsyncs", Value::Int(faults.fsyncs as i64)),
                    ("renames", Value::Int(faults.renames as i64)),
                ]),
            ),
        ]);
        let graphs: Vec<Value> = backend
            .graph_infos()
            .into_iter()
            .map(|info| {
                obj(vec![
                    ("name", Value::Str(info.name)),
                    ("version", Value::Int(info.version as i64)),
                    ("nodes", Value::Int(info.nodes as i64)),
                    ("edges", Value::Int(info.edges as i64)),
                ])
            })
            .collect();
        obj(vec![
            (
                "uptime_ms",
                Value::Int(self.started.elapsed().as_millis() as i64),
            ),
            ("in_flight", Value::Int(self.in_flight() as i64)),
            ("connections", block(&self.connections, vec![])),
            (
                "server",
                block(
                    &self.shed,
                    vec![
                        ("deadline", block(&self.deadline, vec![])),
                        ("cost_in_flight", Value::Float(self.total_cost_in_flight())),
                    ],
                ),
            ),
            ("requests", obj(requests)),
            ("subscriptions", subscriptions),
            ("engine", engine_doc),
            ("graphs", Value::Array(graphs)),
        ])
    }
}

/// A [`Counters`] block as a JSON object: every counter under its key,
/// and `gauges` beside them.
pub(crate) fn block<const N: usize>(counters: &Counters<N>, gauges: Vec<(&str, Value)>) -> Value {
    let values = counters.read().map(|(key, n)| (key, Value::Int(n as i64)));
    obj(values.into_iter().chain(gauges).collect())
}

/// Build a JSON object from `(key, value)` pairs.
pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_engine::{ExpFinder, QuerySpec};
    use std::sync::Arc;

    fn local() -> Backend {
        Backend::Local(Arc::new(ExpFinder::default()))
    }

    fn subs() -> Value {
        crate::subscribe::SubscriptionHub::new(8).to_json()
    }

    #[test]
    fn histogram_buckets_and_classes() {
        let m = Metrics::default();
        m.record(RouteKey::Query, 200, Duration::from_micros(100));
        m.record(RouteKey::Query, 200, Duration::from_micros(900));
        m.record(RouteKey::Query, 404, Duration::from_micros(6_000));
        m.record(RouteKey::Query, 500, Duration::from_secs(10));
        assert_eq!(m.total_requests(), 4);

        let doc = m.to_json(&local(), subs());
        let q = doc.field("requests").unwrap().field("query").unwrap();
        assert_eq!(q.field("count").unwrap().as_i64().unwrap(), 4);
        let status = q.field("status").unwrap();
        assert_eq!(status.field("2xx").unwrap().as_i64().unwrap(), 2);
        assert_eq!(status.field("4xx").unwrap().as_i64().unwrap(), 1);
        assert_eq!(status.field("5xx").unwrap().as_i64().unwrap(), 1);
        let lat = q.field("latency_us").unwrap();
        assert_eq!(lat.field("max").unwrap().as_i64().unwrap(), 10_000_000);
        let buckets = lat.field("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), BUCKET_BOUNDS_US.len() + 1);
        // 100µs → ≤250 bucket; 900µs → ≤1000; 6ms → ≤10ms; 10s → overflow
        assert_eq!(buckets[0].field("count").unwrap().as_i64().unwrap(), 1);
        assert_eq!(buckets[2].field("count").unwrap().as_i64().unwrap(), 1);
        assert_eq!(buckets[5].field("count").unwrap().as_i64().unwrap(), 1);
        let inf = buckets.last().unwrap();
        assert_eq!(inf.field("le_us").unwrap().as_str().unwrap(), "inf");
        assert_eq!(inf.field("count").unwrap().as_i64().unwrap(), 1);
    }

    #[test]
    fn in_flight_gauge_is_raii() {
        let m = Metrics::default();
        assert_eq!(m.in_flight(), 0);
        {
            let _a = m.begin_request();
            let _b = m.begin_request();
            assert_eq!(m.in_flight(), 2);
        }
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn wal_and_fault_blocks_always_present() {
        // one metrics schema for both deployment shapes: an in-memory
        // backend exports the durability block as zeroes
        let doc = Metrics::default().to_json(&local(), subs());
        let wal = doc.field("engine").unwrap().field("wal").unwrap();
        for key in [
            "appends",
            "fsyncs",
            "bytes",
            "replayed_frames",
            "replayed_updates",
            "truncated_tails",
        ] {
            assert_eq!(wal.field(key).unwrap().as_i64().unwrap(), 0, "{key}");
        }
        let faults = doc.field("engine").unwrap().field("faults").unwrap();
        for key in ["injected", "writes", "fsyncs", "renames"] {
            assert_eq!(faults.field(key).unwrap().as_i64().unwrap(), 0, "{key}");
        }
        let server = doc.field("server").unwrap();
        assert_eq!(server.field("shed").unwrap().as_i64().unwrap(), 0);
    }

    #[test]
    fn shed_counter_exported() {
        let m = Metrics::default();
        m.connection_shed();
        m.connection_shed();
        let doc = m.to_json(&local(), subs());
        let server = doc.field("server").unwrap();
        assert_eq!(server.field("shed").unwrap().as_i64().unwrap(), 2);
    }

    #[test]
    fn graph_versions_exported_live() {
        let backend = local();
        backend
            .add_graph("g", expfinder_graph::fixtures::collaboration_fig1().graph)
            .unwrap();
        let m = Metrics::default();
        let doc = m.to_json(&backend, subs());
        let graphs = doc.field("graphs").unwrap().as_array().unwrap();
        assert_eq!(graphs.len(), 1);
        assert_eq!(graphs[0].field("name").unwrap().as_str().unwrap(), "g");
        assert_eq!(graphs[0].field("nodes").unwrap().as_i64().unwrap(), 9);
    }

    #[test]
    fn engine_cache_and_eval_counters_exported() {
        let engine = Arc::new(ExpFinder::default());
        let h = engine
            .add_graph("g", expfinder_graph::fixtures::collaboration_fig1().graph)
            .unwrap();
        let q = expfinder_pattern::fixtures::fig1_pattern();
        // miss + direct eval, then a hit
        for _ in 0..2 {
            engine.query(&h, &QuerySpec::pattern(q.clone())).unwrap();
        }
        let doc = Metrics::default().to_json(&Backend::Local(engine), subs());
        let cache = doc.field("engine").unwrap().field("cache").unwrap();
        assert_eq!(cache.field("hits").unwrap().as_i64().unwrap(), 1);
        assert_eq!(cache.field("misses").unwrap().as_i64().unwrap(), 1);
        assert_eq!(cache.field("entries").unwrap().as_i64().unwrap(), 1);
        let eval = doc.field("engine").unwrap().field("eval").unwrap();
        assert!(eval.field("refreshes").unwrap().as_i64().unwrap() >= 4);
        assert!(eval.field("bfs_nodes_visited").unwrap().as_i64().unwrap() > 0);
        assert!(eval.field("refreshes_skipped").unwrap().as_i64().unwrap() >= 0);
        assert!(eval.field("removals").unwrap().as_i64().unwrap() >= 0);
        // the reach-index block is always present (zeroes on a graph too
        // small for the snapshot fast path)
        let index = doc.field("engine").unwrap().field("index").unwrap();
        for key in [
            "hits", "misses", "built", "carried", "entries", "bytes", "resets",
        ] {
            assert!(index.field(key).unwrap().as_i64().unwrap() >= 0, "{key}");
        }
        // the evaluated query's node conditions are classes of the graph
        for key in ["classes", "class_bytes"] {
            assert!(index.field(key).unwrap().as_i64().unwrap() > 0, "{key}");
        }
        // planner counters: one decision per evaluate call above
        let planner = doc.field("engine").unwrap().field("planner").unwrap();
        assert_eq!(planner.field("decisions").unwrap().as_i64().unwrap(), 2);
        assert_eq!(planner.field("overrides").unwrap().as_i64().unwrap(), 0);
        assert_eq!(planner.field("mispredicts").unwrap().as_i64().unwrap(), 0);
    }

    /// `engine.cache.entries` counts the results the latest versions
    /// hold: a version an update replaced takes its results with it.
    #[test]
    fn cache_entries_are_the_latest_versions_results() {
        let engine = Arc::new(ExpFinder::default());
        let fig1 = expfinder_graph::fixtures::collaboration_fig1();
        let h = engine.add_graph("g", fig1.graph).unwrap();
        let q = expfinder_pattern::fixtures::fig1_pattern();
        engine.query(&h, &QuerySpec::pattern(q)).unwrap();
        let backend = Backend::Local(Arc::clone(&engine));
        let entries = || {
            let doc = Metrics::default().to_json(&backend, subs());
            let cache = doc.field("engine").unwrap().field("cache").unwrap();
            cache.field("entries").unwrap().as_i64().unwrap()
        };
        assert_eq!(entries(), 1);
        let (a, b) = fig1.e1;
        let report = engine
            .apply_updates(&h, &[expfinder_graph::EdgeUpdate::Insert(a, b)])
            .unwrap();
        assert_eq!(report.applied, 1, "a new version was published");
        assert_eq!(entries(), 0);
    }
}
