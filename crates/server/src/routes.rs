//! Endpoint routing and handlers.
//!
//! | Method | Path                      | Action                                  |
//! |--------|---------------------------|-----------------------------------------|
//! | GET    | `/healthz`                | liveness probe                          |
//! | GET    | `/metrics`                | counters, latency histograms, versions  |
//! | GET    | `/graphs`                 | catalog listing                         |
//! | POST   | `/graphs`                 | add a graph (JSON graph document)       |
//! | POST   | `/graphs/{name}/query`    | one query                               |
//! | POST   | `/graphs/{name}/batch`    | a batch through `ExpFinder::query_batch`|
//! | POST   | `/graphs/{name}/updates`  | edge updates + ΔM report                |
//! | POST   | `/graphs/{name}/register` | register a query for maintenance        |
//! | POST   | `/graphs/{name}/subscribe`| push stream of ΔM update frames         |
//! | POST   | `/admin/shutdown`         | graceful drain (when enabled)           |
//!
//! Engine failures map to statuses through
//! [`ExpFinderError::http_status`] — the same mapping the shell's batch
//! reporting uses — so there is exactly one place deciding what a
//! `StaleHandle` costs on the wire.

use crate::http::{Request, Response};
use crate::metrics::{obj, CostInFlight, RouteKey};
use crate::server::{Inner, ServerConfig};
use crate::subscribe::Subscriber;
use crate::wire::{self, WireError};
use expfinder_engine::{ExpFinderError, QuerySpec};
use expfinder_graph::json::Value;
use expfinder_graph::{AttrValue, GraphView};
use std::sync::Arc;
use std::time::Duration;

/// What the connection loop should do with a dispatched request: every
/// route answers with one [`Response`] except `/subscribe`, which takes
/// over the connection as a long-lived chunked push stream.
pub(crate) enum Dispatch {
    /// Write this response; keep-alive as negotiated.
    Respond(Response),
    /// Switch the connection into subscription streaming: send the
    /// chunked head plus the encoded `hello` line, then relay frames from
    /// the hub until the stream ends (the connection always closes
    /// afterwards).
    Subscribe { hello: String, sub: Subscriber },
}

/// Resolve and handle one request. Returns the metrics key alongside the
/// dispatch so the caller can record latency per route family.
pub(crate) fn dispatch(inner: &Inner, req: &Request) -> (RouteKey, Dispatch) {
    // every route has at most three segments, so a fourth only marks a
    // path that no arm matches
    let mut slots = [""; 4];
    let n = slots
        .iter_mut()
        .zip(req.path.split('/').filter(|s| !s.is_empty()))
        .map(|(slot, segment)| *slot = segment)
        .count();
    let segments = &slots[..n];
    if let ("POST", ["graphs", name, "subscribe"]) = (req.method.as_str(), segments) {
        let dispatch = subscribe(inner, name, req)
            .unwrap_or_else(|e| Dispatch::Respond(Response::json(e.status, &e.body())));
        return (RouteKey::Subscribe, dispatch);
    }
    let (key, result): (RouteKey, Result<Response, WireError>) =
        match (req.method.as_str(), segments) {
            ("GET", ["healthz"]) => (RouteKey::Healthz, healthz(inner)),
            ("GET", ["metrics"]) => (
                RouteKey::Metrics,
                Ok(Response::json(
                    200,
                    &inner.metrics.to_json(&inner.backend, inner.subs.to_json()),
                )),
            ),
            ("GET", ["graphs"]) => (RouteKey::GraphsList, graphs_list(inner)),
            ("POST", ["graphs"]) => (RouteKey::GraphAdd, graph_add(inner, req)),
            ("POST", ["graphs", name, "query"]) => (RouteKey::Query, query(inner, name, req)),
            ("POST", ["graphs", name, "batch"]) => (RouteKey::Batch, batch(inner, name, req)),
            ("POST", ["graphs", name, "updates"]) => (RouteKey::Updates, updates(inner, name, req)),
            ("POST", ["graphs", name, "register"]) => {
                (RouteKey::Register, register(inner, name, req))
            }
            ("POST", ["admin", "shutdown"]) => (RouteKey::Shutdown, shutdown(inner)),
            // known paths with the wrong method → 405, anything else → 404
            (_, ["healthz" | "metrics" | "graphs"])
            | (_, ["graphs", _, "query" | "batch" | "updates" | "register" | "subscribe"])
            | (_, ["admin", "shutdown"]) => (
                RouteKey::Other,
                Err(WireError::new(
                    405,
                    format!("method {} not allowed on {}", req.method, req.path),
                )),
            ),
            _ => (
                RouteKey::Other,
                Err(WireError::new(404, format!("no route for {}", req.path))),
            ),
        };
    let resp = result.unwrap_or_else(|e| {
        let mut resp = Response::json(e.status, &e.body());
        // an admission rejection is backpressure, not an error: tell the
        // client when to come back, like the acceptor's shedding 503
        if e.status == 429 {
            resp.retry_after = Some(1);
        }
        resp
    });
    (key, Dispatch::Respond(resp))
}

/// Resolve the deadline one query actually runs under: the requested
/// budget (or the server default when none was sent), clamped to the
/// configured cap. A cap with no request still applies — `max_deadline_ms`
/// bounds every query on the server.
fn effective_deadline(config: &ServerConfig, requested: Option<u64>) -> Option<Duration> {
    let ms = match (
        requested.or(config.default_deadline_ms),
        config.max_deadline_ms,
    ) {
        (Some(r), Some(cap)) => Some(r.min(cap)),
        (Some(r), None) => Some(r),
        (None, cap) => cap,
    };
    ms.map(Duration::from_millis)
}

/// The 429 admission gate, which runs only when a cost ceiling is
/// configured: it calls `estimate` for the work's planner estimate and
/// rejects work whose estimate exceeds the ceiling — or would push the
/// admitted in-flight cost past the concurrency-weighted pool (`ceiling ×
/// workers`) — before it is evaluated. Admitted cost is held on the
/// route's in-flight gauge by the returned guard until evaluation ends.
/// Without a ceiling nothing is estimated and no guard is held.
fn admit<'a>(
    inner: &'a Inner,
    route: RouteKey,
    estimate: impl FnOnce() -> Result<f64, ExpFinderError>,
) -> Result<Option<CostInFlight<'a>>, WireError> {
    let Some(ceiling) = inner.config.admission_max_cost else {
        return Ok(None);
    };
    let est = estimate()?;
    let pool = ceiling * inner.config.workers.max(1) as f64;
    let in_flight = inner.metrics.total_cost_in_flight();
    if !est.is_finite() || est > ceiling || in_flight + est > pool {
        inner.metrics.note_deadline_rejected();
        return Err(WireError::new(
            429,
            format!(
                "rejected at admission: estimated cost {est:.0} work units \
                 (ceiling {ceiling:.0}, {in_flight:.0} already in flight)"
            ),
        ));
    }
    Ok(Some(inner.metrics.admit_cost(route, est)))
}

fn healthz(inner: &Inner) -> Result<Response, WireError> {
    let body = obj(vec![
        ("status", Value::Str("ok".into())),
        (
            "graphs",
            Value::Int(inner.backend.graph_names().len() as i64),
        ),
        ("in_flight", Value::Int(inner.metrics.in_flight() as i64)),
        ("draining", Value::Bool(inner.draining())),
    ]);
    Ok(Response::json(200, &body))
}

fn graphs_list(inner: &Inner) -> Result<Response, WireError> {
    let graphs: Vec<Value> = inner
        .backend
        .graph_infos()
        .iter()
        .map(wire::encode_graph_info)
        .collect();
    Ok(Response::json(
        200,
        &obj(vec![("graphs", Value::Array(graphs))]),
    ))
}

fn graph_add(inner: &Inner, req: &Request) -> Result<Response, WireError> {
    let body = wire::parse_body(&req.body)?;
    let (name, graph) = wire::decode_add_graph(&body)?;
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    let version = inner.backend.add_graph(&name, graph)?;
    let body = obj(vec![
        ("name", Value::Str(name)),
        ("nodes", Value::Int(nodes as i64)),
        ("edges", Value::Int(edges as i64)),
        ("graph_version", Value::Int(version as i64)),
    ]);
    Ok(Response::json(201, &body))
}

fn query(inner: &Inner, name: &str, req: &Request) -> Result<Response, WireError> {
    let body = wire::parse_body(&req.body)?;
    let q = wire::decode_query(&body)?;
    let deadline = effective_deadline(&inner.config, q.deadline_ms);
    // admission before evaluation, when a ceiling is configured: estimate
    // the work, reject what cannot fit (429), and hold the admitted cost
    // on the in-flight gauge while the query runs. The estimate resolves
    // the graph, so there an unknown name 404s; otherwise the read does.
    let estimate = || inner.backend.estimate_cost(name, &q.pattern);
    let _admitted = admit(inner, RouteKey::Query, estimate)?;
    let resp = inner
        .backend
        .query_deadline(name, &q.pattern, q.top_k, q.route, deadline)
        .map_err(|e| {
            if matches!(e, ExpFinderError::DeadlineExceeded(_)) {
                inner.metrics.note_deadline_enforced();
            }
            WireError::from(e)
        })?;
    // resolve expert display names on the latest snapshot, borrowed from
    // it while the reply is written; queries and updates may interleave,
    // but expert node ids are stable
    let mut body = String::with_capacity(reply_bytes(resp.experts.len()));
    inner.backend.read_graph(name, |g| {
        wire::write_query_response(&mut body, &resp, &q.pattern, q.include_matches, |n| {
            if (n.0 as usize) < g.node_count() {
                match g.attr_of(n, "name") {
                    Some(AttrValue::Str(s)) => Some(s.as_str()),
                    _ => None,
                }
            } else {
                None
            }
        })
    })?;
    Ok(Response::json_text(200, body))
}

/// Room for a query reply of `experts` rows — its plan and timings take
/// ~300 bytes, an unnamed expert row ~40 — so its buffer is sized once.
fn reply_bytes(experts: usize) -> usize {
    320 + 64 * experts
}

fn batch(inner: &Inner, name: &str, req: &Request) -> Result<Response, WireError> {
    let body = wire::parse_body(&req.body)?;
    let decoded = wire::decode_batch(&body)?;
    let deadline = effective_deadline(&inner.config, decoded.deadline_ms);
    // wire-level decode failures keep their slot, mirroring the engine's
    // per-slot Results: build specs only for well-formed slots. A slot's
    // own deadline is clamped to the server cap; the engine additionally
    // clips it to whatever remains of the batch budget.
    let cap = inner.config.max_deadline_ms;
    let specs: Vec<QuerySpec> = decoded
        .queries
        .iter()
        .filter_map(|d| d.as_ref().ok())
        .map(|q| {
            let mut spec = QuerySpec::pattern(q.pattern.clone()).prefer(q.route);
            if let Some(k) = q.top_k {
                spec = spec.top_k(k);
            }
            if let Some(ms) = q.deadline_ms {
                spec = spec.deadline(Duration::from_millis(cap.map_or(ms, |c| ms.min(c))));
            }
            spec
        })
        .collect();
    // admit the whole batch as one unit of work: the sum of the slots'
    // estimates competes for the same in-flight pool as single queries
    let estimate = || {
        let queries = decoded.queries.iter().filter_map(|d| d.as_ref().ok());
        queries
            .map(|q| inner.backend.estimate_cost(name, &q.pattern))
            .sum()
    };
    let _admitted = admit(inner, RouteKey::Batch, estimate)?;
    let results = inner.backend.query_batch_deadline(name, specs, deadline)?;
    let room = results
        .iter()
        .map(|r| reply_bytes(r.as_ref().map_or(0, |r| r.experts.len())))
        .sum();
    let mut engine_results = results.into_iter();
    let slots = decoded.queries.iter().map(|d| match d {
        Err(e) => Err(e.fields()),
        Ok(q) => match engine_results.next().expect("one result per spec") {
            Err(e) => {
                if matches!(e, ExpFinderError::DeadlineExceeded(_)) {
                    inner.metrics.note_deadline_enforced();
                }
                Err(WireError::from(e).fields())
            }
            Ok(resp) => Ok((resp, q)),
        },
    });
    let mut body = String::with_capacity(room);
    wire::write_batch_response(&mut body, slots);
    Ok(Response::json_text(200, body))
}

fn updates(inner: &Inner, name: &str, req: &Request) -> Result<Response, WireError> {
    let body = wire::parse_body(&req.body)?;
    let ups = wire::decode_updates(&body)?;
    let report = inner.backend.apply_updates_traced(name, &ups)?;
    Ok(Response::json(200, &wire::encode_update_report(&report)))
}

fn register(inner: &Inner, name: &str, req: &Request) -> Result<Response, WireError> {
    let body = wire::parse_body(&req.body)?;
    let qname = body
        .field("name")
        .and_then(|n| n.as_str())
        .map_err(|e| WireError::bad_request(e.to_string()))?
        .to_owned();
    let dsl = body
        .field("pattern")
        .and_then(|p| p.as_str())
        .map_err(|e| WireError::bad_request(e.to_string()))?;
    let pattern = expfinder_pattern::parser::parse_memoised(dsl)
        .map_err(|e| WireError::from(ExpFinderError::from(e)))?;
    inner
        .backend
        .register_query(name, &qname, Arc::unwrap_or_clone(pattern))?;
    let pairs = inner.backend.registered_result(name, &qname)?.total_pairs();
    let body = obj(vec![
        ("registered", Value::Str(qname)),
        ("pairs", Value::Int(pairs as i64)),
    ]);
    Ok(Response::json(201, &body))
}

/// Validate a subscription request and register it with the hub. The
/// body is optional: absent (or `{}`) subscribes to every registered
/// query; `{"queries":[...]}` narrows the pushed ΔM to those names,
/// each of which must already be registered (404 otherwise) — register
/// first, then subscribe. A draining server refuses new subscriptions
/// with 503 so the drain is not prolonged by fresh long-lived streams.
fn subscribe(inner: &Inner, name: &str, req: &Request) -> Result<Dispatch, WireError> {
    let filter = if req.body.is_empty() {
        None
    } else {
        wire::decode_subscribe(&wire::parse_body(&req.body)?)?
    };
    // resolves the graph too: unknown graph → 404 before any state change
    let registered = inner.backend.registered_queries(name)?;
    if let Some(keep) = &filter {
        for q in keep {
            if !registered.contains(q) {
                return Err(WireError::new(
                    404,
                    format!("no registered query {q:?} on graph {name:?}"),
                ));
            }
        }
    }
    if inner.draining() {
        return Err(WireError::new(503, "server is draining"));
    }
    let version = inner.backend.read_graph(name, |g| g.version())?;
    let sub = inner.subs.subscribe(name, filter.clone());
    let queries = filter.unwrap_or(registered);
    let hello = wire::ndjson_line(&wire::subscription_hello(name, version, &queries, sub.id));
    Ok(Dispatch::Subscribe { hello, sub })
}

fn shutdown(inner: &Inner) -> Result<Response, WireError> {
    if !inner.config.allow_remote_shutdown {
        return Err(WireError::new(
            403,
            "remote shutdown is disabled (start with --allow-shutdown)",
        ));
    }
    inner.request_shutdown();
    let mut resp = Response::json(202, &obj(vec![("draining", Value::Bool(true))]));
    resp.close = true;
    Ok(resp)
}
