//! Lock-free serving metrics, exported as JSON on `GET /metrics`.
//!
//! Everything is plain atomics so the request hot path never takes a
//! lock: per-route request counters and latency histograms (fixed
//! log-spaced microsecond buckets), response counts by status class, an
//! in-flight gauge (RAII guard) and connection open/close counters.
//! Graph versions are read live from the engine at export time.

use crate::backend::Backend;
use expfinder_graph::json::Value;
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
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }
}

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
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    /// Connections refused with `503 + Retry-After` because the worker
    /// queue was full (load shedding, not an error).
    shed: AtomicU64,
    /// Queries answered 408 because their deadline fired mid-evaluation.
    deadline_enforced: AtomicU64,
    /// Queries answered 429 at admission: the planner's cost estimate
    /// did not fit the deadline budget or the in-flight load threshold.
    deadline_rejected: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            routes: Default::default(),
            in_flight: AtomicU64::new(0),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_enforced: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
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
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection answered with the load-shedding 503.
    pub fn connection_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one query answered 408 (deadline fired mid-evaluation).
    pub fn note_deadline_enforced(&self) {
        self.deadline_enforced.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one query rejected 429 at admission.
    pub fn note_deadline_rejected(&self) {
        self.deadline_rejected.fetch_add(1, Ordering::Relaxed);
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
    /// fault-injection counters (`engine.faults`, zero unless a chaos
    /// harness armed the injector) and the load-shedding counter
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
        let cache = read.cache_stats();
        let eval = read.eval_totals();
        let index = backend.index_totals();
        let planner = read.planner_totals();
        let rank = read.rank_totals();
        let cancel = read.cancel_totals();
        let wal = backend.wal_totals();
        let faults = backend.fault_totals();
        let engine_doc = obj(vec![
            (
                "cache",
                obj(vec![
                    ("hits", Value::Int(cache.hits as i64)),
                    ("misses", Value::Int(cache.misses as i64)),
                    ("evictions", Value::Int(cache.evictions as i64)),
                    ("entries", Value::Int(read.cache_len() as i64)),
                ]),
            ),
            (
                "eval",
                obj(vec![
                    ("refreshes", Value::Int(eval.refreshes as i64)),
                    (
                        "refreshes_skipped",
                        Value::Int(eval.refreshes_skipped as i64),
                    ),
                    (
                        "bfs_nodes_visited",
                        Value::Int(eval.bfs_nodes_visited as i64),
                    ),
                    ("removals", Value::Int(eval.removals as i64)),
                ]),
            ),
            (
                "index",
                obj(vec![
                    ("hits", Value::Int(index.hits as i64)),
                    ("misses", Value::Int(index.misses as i64)),
                    ("entries", Value::Int(index.entries as i64)),
                    ("bytes", Value::Int(index.bytes as i64)),
                ]),
            ),
            (
                "planner",
                obj(vec![
                    ("decisions", Value::Int(planner.decisions as i64)),
                    ("overrides", Value::Int(planner.overrides as i64)),
                    ("mispredicts", Value::Int(planner.mispredicts as i64)),
                ]),
            ),
            (
                "rank",
                obj(vec![
                    ("computed", Value::Int(rank.computed as i64)),
                    ("reused", Value::Int(rank.reused as i64)),
                ]),
            ),
            (
                "cancel",
                obj(vec![
                    ("checked", Value::Int(cancel.checked as i64)),
                    ("fired", Value::Int(cancel.fired as i64)),
                ]),
            ),
            (
                "wal",
                obj(vec![
                    ("appends", Value::Int(wal.appends as i64)),
                    ("fsyncs", Value::Int(wal.fsyncs as i64)),
                    ("bytes", Value::Int(wal.bytes as i64)),
                    ("replayed_frames", Value::Int(wal.replayed_frames as i64)),
                    ("replayed_updates", Value::Int(wal.replayed_updates as i64)),
                    ("truncated_tails", Value::Int(wal.truncated_tails as i64)),
                ]),
            ),
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
            (
                "connections",
                obj(vec![
                    (
                        "opened",
                        Value::Int(self.connections_opened.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "closed",
                        Value::Int(self.connections_closed.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            (
                "server",
                obj(vec![
                    ("shed", Value::Int(self.shed.load(Ordering::Relaxed) as i64)),
                    (
                        "deadline",
                        obj(vec![
                            (
                                "enforced",
                                Value::Int(self.deadline_enforced.load(Ordering::Relaxed) as i64),
                            ),
                            (
                                "rejected",
                                Value::Int(self.deadline_rejected.load(Ordering::Relaxed) as i64),
                            ),
                        ]),
                    ),
                    ("cost_in_flight", Value::Float(self.total_cost_in_flight())),
                ]),
            ),
            ("requests", obj(requests)),
            ("subscriptions", subscriptions),
            ("engine", engine_doc),
            ("graphs", Value::Array(graphs)),
        ])
    }
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
    use expfinder_engine::ExpFinder;
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
        engine.evaluate(&h, &q).unwrap();
        engine.evaluate(&h, &q).unwrap();
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
        for key in ["hits", "misses", "entries", "bytes"] {
            assert!(index.field(key).unwrap().as_i64().unwrap() >= 0, "{key}");
        }
        // planner counters: one decision per evaluate call above
        let planner = doc.field("engine").unwrap().field("planner").unwrap();
        assert_eq!(planner.field("decisions").unwrap().as_i64().unwrap(), 2);
        assert_eq!(planner.field("overrides").unwrap().as_i64().unwrap(), 0);
        assert_eq!(planner.field("mispredicts").unwrap().as_i64().unwrap(), 0);
    }
}
