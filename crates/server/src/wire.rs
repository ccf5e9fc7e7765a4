//! The JSON wire protocol: request decoding and response encoding.
//!
//! All bodies are JSON through `expfinder_graph::json` — the same
//! hand-rolled module the on-disk formats use, so the server adds no new
//! serialization dependency. Decoders return [`WireError`] with the HTTP
//! status the failure maps to; [`ExpFinderError`]s pass through
//! [`ExpFinderError::http_status`], the engine's single error→status
//! mapping.
//!
//! Request shapes (see `docs/PROTOCOL.md` for the full spec):
//!
//! * query:    `{"pattern": "<dsl>", "top_k": 5, "route": "auto",
//!   "include_matches": false}`
//! * batch:    `{"queries": [<query body>, ...]}`
//! * updates:  `{"updates": [{"op": "insert", "from": 0, "to": 3}, ...]}`
//! * register: `{"name": "team", "pattern": "<dsl>"}`
//! * subscribe: `{}` or `{"queries": ["team", ...]}` (see the
//!   subscription-frame encoders below for the pushed stream)
//! * add graph: `{"name": "g", "graph": {"nodes": [...], "edges": [...]}}`

use crate::metrics::obj;
use expfinder_core::EvalStats;
use expfinder_engine::{ExpFinderError, GraphInfo, QueryResponse, Route, UpdateReport};
use expfinder_graph::io::GraphDoc;
use expfinder_graph::json::{self, Value};
use expfinder_graph::{DiGraph, EdgeUpdate, NodeId};
use expfinder_pattern::{PNodeId, Pattern};
use std::sync::Arc;

/// A decode failure plus the status it answers with. A deadline abort
/// (408) additionally carries the partial [`EvalStats`] of the work the
/// engine completed before the budget ran out, encoded under the error
/// object's `"timings"` key.
#[derive(Debug)]
pub struct WireError {
    pub status: u16,
    pub message: String,
    /// Partial evaluation work, present only on deadline aborts.
    pub partial: Option<EvalStats>,
}

impl WireError {
    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError {
            status: 400,
            message: message.into(),
            partial: None,
        }
    }

    pub fn new(status: u16, message: impl Into<String>) -> WireError {
        WireError {
            status,
            message: message.into(),
            partial: None,
        }
    }

    /// The bare error object for this failure — [`error_fields`] plus,
    /// on a deadline abort, `"timings": {"partial": true, "eval": {...}}`
    /// so a 408 still reports how far evaluation got.
    pub fn fields(&self) -> Value {
        let mut fields = vec![
            ("status", Value::Int(self.status as i64)),
            ("message", Value::Str(self.message.clone())),
        ];
        if let Some(stats) = &self.partial {
            fields.push((
                "timings",
                obj(vec![
                    ("partial", Value::Bool(true)),
                    ("eval", encode_eval_stats(stats)),
                ]),
            ));
        }
        obj(fields)
    }

    /// The full error body: `{"error": <fields>}`.
    pub fn body(&self) -> Value {
        obj(vec![("error", self.fields())])
    }
}

impl From<ExpFinderError> for WireError {
    fn from(e: ExpFinderError) -> Self {
        WireError {
            status: e.http_status(),
            partial: e.partial_stats(),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

/// The bare error object: `{"status":…,"message":…}` (batch slots embed
/// it under their own `"error"` key).
pub fn error_fields(status: u16, message: &str) -> Value {
    obj(vec![
        ("status", Value::Int(status as i64)),
        ("message", Value::Str(message.to_owned())),
    ])
}

/// Encode an [`EvalStats`] block (shared by the 408 partial-work body
/// and nothing else on the wire — `/metrics` builds its own).
fn encode_eval_stats(stats: &EvalStats) -> Value {
    obj(vec![
        ("refreshes", Value::Int(stats.refreshes as i64)),
        (
            "refreshes_skipped",
            Value::Int(stats.refreshes_skipped as i64),
        ),
        (
            "bfs_nodes_visited",
            Value::Int(stats.bfs_nodes_visited as i64),
        ),
        ("removals", Value::Int(stats.removals as i64)),
    ])
}

/// The error body every endpoint uses: `{"error":{"status":…,"message":…}}`.
pub fn error_body(status: u16, message: &str) -> Value {
    obj(vec![("error", error_fields(status, message))])
}

/// Parse a request body as JSON (400 on syntax errors).
pub fn parse_body(body: &[u8]) -> Result<Value, WireError> {
    let text =
        std::str::from_utf8(body).map_err(|_| WireError::bad_request("body is not valid utf-8"))?;
    expfinder_graph::json::parse(text)
        .map_err(|e| WireError::bad_request(format!("invalid json: {e}")))
}

/// One decoded query request.
#[derive(Debug)]
pub struct QueryRequest {
    /// The parsed `pattern` field, shared with the process-wide parse
    /// memo (and with every other request that sent the same text).
    pub pattern: Arc<Pattern>,
    /// The `pattern` field as sent (serving reads only `pattern`).
    pub dsl: String,
    pub top_k: Option<usize>,
    pub route: Route,
    pub include_matches: bool,
    /// End-to-end evaluation budget in milliseconds; the server clamps
    /// it to its configured cap and enforces it cooperatively (408 when
    /// it fires mid-evaluation).
    pub deadline_ms: Option<u64>,
}

/// Decode `{"pattern": dsl, "top_k"?, "route"?, "include_matches"?,
/// "deadline_ms"?}`. The DSL is parsed here so the route handler has the
/// [`Pattern`] (its node names key the serialized match relation), through
/// [`parse_memoised`](expfinder_pattern::parser::parse_memoised): a text
/// sent before is not parsed again, and its pattern already carries the
/// printed text the engine's cache key shares.
pub fn decode_query(v: &Value) -> Result<QueryRequest, WireError> {
    let o = v
        .as_object()
        .map_err(|e| WireError::bad_request(e.to_string()))?;
    for key in o.keys() {
        if !matches!(
            key.as_str(),
            "pattern" | "top_k" | "route" | "include_matches" | "deadline_ms"
        ) {
            return Err(WireError::bad_request(format!("unknown field {key:?}")));
        }
    }
    let dsl = v
        .field("pattern")
        .and_then(|p| p.as_str())
        .map_err(|e| WireError::bad_request(e.to_string()))?
        .to_owned();
    let pattern = expfinder_pattern::parser::parse_memoised(&dsl)
        .map_err(|e| WireError::from(ExpFinderError::from(e)))?;
    let top_k = match o.get("top_k") {
        None | Some(Value::Null) => None,
        Some(k) => Some(
            k.as_usize()
                .map_err(|e| WireError::bad_request(e.to_string()))?,
        ),
    };
    let route = match o.get("route") {
        None | Some(Value::Null) => Route::Auto,
        Some(r) => decode_route(
            r.as_str()
                .map_err(|e| WireError::bad_request(e.to_string()))?,
        )?,
    };
    let include_matches = match o.get("include_matches") {
        None | Some(Value::Null) => false,
        Some(b) => b
            .as_bool()
            .map_err(|e| WireError::bad_request(e.to_string()))?,
    };
    let deadline_ms = decode_deadline_ms(o.get("deadline_ms"))?;
    Ok(QueryRequest {
        pattern,
        dsl,
        top_k,
        route,
        include_matches,
        deadline_ms,
    })
}

/// Decode an optional `deadline_ms` field (a non-negative integer; zero
/// is legal and means "already expired" — the query 408s immediately).
fn decode_deadline_ms(v: Option<&Value>) -> Result<Option<u64>, WireError> {
    match v {
        None | Some(Value::Null) => Ok(None),
        Some(d) => Ok(Some(
            d.as_usize()
                .map_err(|e| WireError::bad_request(format!("deadline_ms: {e}")))?
                as u64,
        )),
    }
}

pub fn decode_route(s: &str) -> Result<Route, WireError> {
    match s {
        "auto" => Ok(Route::Auto),
        "compressed" => Ok(Route::Compressed),
        "direct" => Ok(Route::Direct),
        other => Err(WireError::bad_request(format!(
            "unknown route {other:?} (auto|compressed|direct)"
        ))),
    }
}

/// A decoded batch request: the optional batch-wide deadline plus one
/// slot per query body.
#[derive(Debug)]
pub struct BatchRequest {
    /// Budget shared by the whole batch; every slot's own `deadline_ms`
    /// is additionally clipped to whatever remains of it.
    pub deadline_ms: Option<u64>,
    pub queries: Vec<Result<QueryRequest, WireError>>,
}

/// Decode `{"queries": [<query body>, ...], "deadline_ms"?}`; per-slot
/// decode errors are returned in-slot so one bad query cannot sink the
/// batch (mirroring `ExpFinder::query_batch`).
pub fn decode_batch(v: &Value) -> Result<BatchRequest, WireError> {
    let o = v
        .as_object()
        .map_err(|e| WireError::bad_request(e.to_string()))?;
    for key in o.keys() {
        if !matches!(key.as_str(), "queries" | "deadline_ms") {
            return Err(WireError::bad_request(format!("unknown field {key:?}")));
        }
    }
    let queries = v
        .field("queries")
        .and_then(|q| q.as_array())
        .map_err(|e| WireError::bad_request(e.to_string()))?;
    Ok(BatchRequest {
        deadline_ms: decode_deadline_ms(o.get("deadline_ms"))?,
        queries: queries.iter().map(decode_query).collect(),
    })
}

/// Decode `{"updates": [{"op","from","to"}, ...]}`.
pub fn decode_updates(v: &Value) -> Result<Vec<EdgeUpdate>, WireError> {
    let items = v
        .field("updates")
        .and_then(|u| u.as_array())
        .map_err(|e| WireError::bad_request(e.to_string()))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            // the canonical codec lives in expfinder_graph::io (shared
            // with the runtime's write-ahead log); the wire layer only
            // adds the slot index to the error
            expfinder_graph::io::update_from_json(item)
                .map_err(|e| WireError::bad_request(format!("update {i}: {e}")))
        })
        .collect()
}

/// Encode one [`EdgeUpdate`] (used by the client). Delegates to the
/// canonical codec in `expfinder_graph::io`.
pub fn encode_update(up: EdgeUpdate) -> Value {
    expfinder_graph::io::update_to_json(up)
}

/// Decode `{"name": g, "graph": GraphDoc}`.
pub fn decode_add_graph(v: &Value) -> Result<(String, DiGraph), WireError> {
    let name = v
        .field("name")
        .and_then(|n| n.as_str())
        .map_err(|e| WireError::bad_request(e.to_string()))?
        .to_owned();
    let doc = v
        .field("graph")
        .map_err(|e| WireError::bad_request(e.to_string()))?;
    let graph = GraphDoc::from_json_value(doc)
        .map_err(|e| WireError::bad_request(format!("graph document: {e}")))?
        .into_graph();
    Ok((name, graph))
}

/// Write a [`QueryResponse`] as its JSON reply, appended to `out`: the
/// `POST /query` body and each `/batch` slot's `ok` object, written once
/// into the response buffer with no tree in between.
///
/// The keys come in the order a [`Value::Object`] prints them (sorted):
/// `experts` (each `name`, `node`, `rank`), `graph_version`, `matches`,
/// `pairs`, `route`, then `timings` with `evaluate_ms`, `plan` (the
/// planner's [`PlanDecision`](expfinder_engine::PlanDecision):
/// `candidates` as `{cost, route}`, `chosen`, `overridden`, `planned`),
/// `rank_ms` and `total_ms`. `route` is the plan's `chosen` route, the
/// same string as `timings.plan.chosen`; which algorithm ran is the
/// pattern's (the client sent it). A rank that is not finite is the
/// string `"inf"`, and a cost that is not finite is `null`. The match
/// relation, keyed by pattern node name, is included only on request
/// (`include_matches`) — it can dwarf the rest of the reply on large
/// graphs. `resolve_name` maps an expert's node id to its `name`
/// attribute, borrowed from the graph that holds it.
///
/// Numbers and strings go through [`json`]'s append helpers, the
/// encodings `Value` itself writes, so without `include_matches` a
/// buffer with room for the reply sees no allocation.
pub fn write_query_response<N: AsRef<str>>(
    out: &mut String,
    resp: &QueryResponse,
    pattern: &Pattern,
    include_matches: bool,
    resolve_name: impl Fn(NodeId) -> Option<N>,
) {
    out.push_str("{\"experts\":[");
    for (i, x) in resp.experts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        if let Some(name) = resolve_name(x.node) {
            out.push_str("\"name\":");
            json::write_string(out, name.as_ref());
            out.push(',');
        }
        out.push_str("\"node\":");
        json::write_int(out, x.node.0 as i64);
        out.push_str(",\"rank\":");
        if x.rank.is_finite() {
            json::write_float(out, x.rank);
        } else {
            out.push_str("\"inf\"");
        }
        out.push('}');
    }
    out.push_str("],\"graph_version\":");
    json::write_int(out, resp.graph_version as i64);
    if include_matches {
        // keyed by node name in the sorted order an object prints in
        // (a pattern's node names are distinct)
        let mut ids: Vec<PNodeId> = pattern.ids().collect();
        ids.sort_unstable_by(|&a, &b| pattern.node(a).name.cmp(&pattern.node(b).name));
        out.push_str(",\"matches\":{");
        for (i, &u) in ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(out, &pattern.node(u).name);
            out.push_str(":[");
            for (j, v) in resp.matches.matches(u).iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_int(out, v.0 as i64);
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str(",\"pairs\":");
    json::write_int(out, resp.matches.total_pairs() as i64);
    out.push_str(",\"route\":");
    json::write_string(out, resp.plan.chosen.as_str());
    out.push_str(",\"timings\":{\"evaluate_ms\":");
    json::write_float(out, resp.timings.evaluate.as_secs_f64() * 1e3);
    out.push_str(",\"plan\":{\"candidates\":[");
    for (i, c) in resp.plan.candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cost\":");
        json::write_float(out, c.cost);
        out.push_str(",\"route\":");
        json::write_string(out, c.route.as_str());
        out.push('}');
    }
    out.push_str("],\"chosen\":");
    json::write_string(out, resp.plan.chosen.as_str());
    out.push_str(",\"overridden\":");
    out.push_str(if resp.plan.overridden {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"planned\":");
    json::write_string(out, resp.plan.planned.as_str());
    out.push_str("},\"rank_ms\":");
    json::write_float(out, resp.timings.rank.as_secs_f64() * 1e3);
    out.push_str(",\"total_ms\":");
    json::write_float(out, resp.timings.total.as_secs_f64() * 1e3);
    out.push_str("}}");
}

/// A [`QueryResponse`] as a [`Value`] tree: [`write_query_response`]'s
/// bytes parsed back, which is byte-exact (the tree prints those bytes
/// again). Serving never calls it; it is kept only because the repo
/// benchmark's trace harness (`benchmark/src/trace.rs`) times it as its
/// encode row. ROADMAP item 2a moves that harness and deletes this.
pub fn encode_query_response(
    resp: &QueryResponse,
    pattern: &Pattern,
    include_matches: bool,
    resolve_name: impl Fn(NodeId) -> Option<String>,
) -> Value {
    let mut out = String::new();
    write_query_response(&mut out, resp, pattern, include_matches, resolve_name);
    json::parse(&out).expect("a written reply is valid JSON")
}

/// Write a `/batch` reply, appended to `out`: `{"results": [...]}` with
/// one object per slot, in order — `{"ok": <reply>}` written by
/// [`write_query_response`] (no expert names), or `{"error": <fields>}`
/// with the slot's [`WireError::fields`].
pub fn write_batch_response<'a>(
    out: &mut String,
    slots: impl IntoIterator<Item = Result<(QueryResponse, &'a QueryRequest), Value>>,
) {
    out.push_str("{\"results\":[");
    for (i, slot) in slots.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match slot {
            Ok((resp, q)) => {
                out.push_str("{\"ok\":");
                write_query_response(out, &resp, &q.pattern, q.include_matches, |_| None::<&str>);
            }
            Err(fields) => {
                out.push_str("{\"error\":");
                fields.write_compact(out);
            }
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// Encode an [`UpdateReport`] (the `POST /updates` response).
pub fn encode_update_report(report: &UpdateReport) -> Value {
    let registered: Vec<(&str, Value)> = report
        .registered
        .iter()
        .map(|d| {
            (
                d.query.as_str(),
                obj(vec![
                    ("before_pairs", Value::Int(d.before_pairs as i64)),
                    ("after_pairs", Value::Int(d.after_pairs as i64)),
                    ("delta", Value::Int(d.delta())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("applied", Value::Int(report.applied as i64)),
        ("attempted", Value::Int(report.attempted as i64)),
        ("graph_version", Value::Int(report.graph_version as i64)),
        ("registered_delta", obj(registered)),
    ])
}

/// Decode a `POST /graphs/{name}/subscribe` body: `{}` or
/// `{"queries": ["team", ...]}`. Returns the optional filter — `None`
/// means "every registered query". An explicitly empty filter is
/// rejected: it would subscribe to nothing.
pub fn decode_subscribe(v: &Value) -> Result<Option<Vec<String>>, WireError> {
    let o = v
        .as_object()
        .map_err(|e| WireError::bad_request(e.to_string()))?;
    for key in o.keys() {
        if key != "queries" {
            return Err(WireError::bad_request(format!("unknown field {key:?}")));
        }
    }
    match o.get("queries") {
        None | Some(Value::Null) => Ok(None),
        Some(q) => {
            let names = q
                .as_array()
                .map_err(|e| WireError::bad_request(e.to_string()))?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_owned)
                        .map_err(|e| WireError::bad_request(e.to_string()))
                })
                .collect::<Result<Vec<String>, WireError>>()?;
            if names.is_empty() {
                return Err(WireError::bad_request(
                    "queries filter must not be empty (omit it to subscribe to all)",
                ));
            }
            Ok(Some(names))
        }
    }
}

// ------------------------- subscription frames -----------------------
//
// Every frame on a subscription stream is one JSON object with a
// `"frame"` discriminator: `hello` (first), `update` (one per committed
// batch), and the terminals `bye` (graceful) / `error` (abnormal).

/// One frame as a stream sends it: the compact document and its
/// terminating newline (`application/x-ndjson`), one chunk on the wire.
pub fn ndjson_line(frame: &Value) -> String {
    let mut line = frame.to_string_compact();
    line.push('\n');
    line
}

/// The `hello` frame opening every subscription stream.
pub fn subscription_hello(graph: &str, version: u64, queries: &[String], subscriber: u64) -> Value {
    obj(vec![
        ("frame", Value::Str("hello".into())),
        ("graph", Value::Str(graph.to_owned())),
        ("graph_version", Value::Int(version as i64)),
        (
            "queries",
            Value::Array(queries.iter().map(|q| Value::Str(q.clone())).collect()),
        ),
        ("subscriber", Value::Int(subscriber as i64)),
    ])
}

/// An `update` frame: the exact [`encode_update_report`] document under
/// `"report"` — byte-identical to the `POST /updates` response body for
/// the same batch, so a pushed frame and a polled response never
/// disagree. A filter narrows `registered_delta` to the subscriber's
/// query set; the batch-level fields are untouched.
pub fn subscription_update_frame(report: &UpdateReport, filter: Option<&[String]>) -> Value {
    let doc = match filter {
        None => encode_update_report(report),
        Some(keep) => encode_update_report(&UpdateReport {
            applied: report.applied,
            attempted: report.attempted,
            graph_version: report.graph_version,
            registered: report
                .registered
                .iter()
                .filter(|d| keep.contains(&d.query))
                .cloned()
                .collect(),
        }),
    };
    obj(vec![
        ("frame", Value::Str("update".into())),
        ("report", doc),
    ])
}

/// The graceful terminal frame (`reason` is `"drain"` on shutdown).
pub fn subscription_bye(reason: &str) -> Value {
    obj(vec![
        ("frame", Value::Str("bye".into())),
        ("reason", Value::Str(reason.to_owned())),
    ])
}

/// The abnormal terminal frame (`reason` is `"slow-consumer"` when the
/// subscriber's bounded queue overflowed).
pub fn subscription_error(reason: &str) -> Value {
    obj(vec![
        ("frame", Value::Str("error".into())),
        ("reason", Value::Str(reason.to_owned())),
    ])
}

/// Encode one [`GraphInfo`] catalog row.
pub fn encode_graph_info(info: &GraphInfo) -> Value {
    obj(vec![
        ("name", Value::Str(info.name.clone())),
        ("nodes", Value::Int(info.nodes as i64)),
        ("edges", Value::Int(info.edges as i64)),
        ("version", Value::Int(info.version as i64)),
        (
            "registered_queries",
            Value::Int(info.registered_queries as i64),
        ),
        ("compressed", Value::Bool(info.compressed)),
    ])
}

/// Encode a graph as the wire's `{"name", "graph"}` add-graph body (the
/// client-side counterpart of [`decode_add_graph`]).
pub fn encode_add_graph(name: &str, g: &DiGraph) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("graph", GraphDoc::from_graph(g).to_json_value()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_engine::QuerySpec;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::json::parse;
    use expfinder_graph::GraphView;

    #[test]
    fn query_request_decoding() {
        let v = parse(
            r#"{"pattern": "node a where label = \"SA\";", "top_k": 3,
                "route": "direct", "include_matches": true}"#,
        )
        .unwrap();
        let q = decode_query(&v).unwrap();
        assert_eq!(q.top_k, Some(3));
        assert_eq!(q.route, Route::Direct);
        assert!(q.include_matches);
        assert_eq!(q.pattern.node_count(), 1);

        // defaults
        let v = parse(r#"{"pattern": "node a where label = \"SA\";"}"#).unwrap();
        let q = decode_query(&v).unwrap();
        assert_eq!(q.top_k, None);
        assert_eq!(q.route, Route::Auto);
        assert!(!q.include_matches);

        // failures carry 400 statuses
        for bad in [
            r#"{"top_k": 3}"#,
            r#"{"pattern": 7}"#,
            r#"{"pattern": "node a;", "route": "warp"}"#,
            r#"{"pattern": "node a;", "top_k": -1}"#,
            r#"{"pattern": "node a;", "typo_field": 1}"#,
        ] {
            let e = decode_query(&parse(bad).unwrap()).unwrap_err();
            assert_eq!(e.status, 400, "{bad}");
        }
        // a DSL parse error maps through the engine's shared mapping
        let e = decode_query(&parse(r#"{"pattern": "node oops"}"#).unwrap()).unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("parse"), "{}", e.message);
    }

    /// A text decoded twice is parsed once: both requests share one
    /// pattern, and so does a batch slot that sends it again.
    #[test]
    fn a_pattern_sent_twice_is_parsed_once() {
        let v = parse(
            r#"{"pattern": "node twice* where label = \"SA\"; node b; edge twice -> b within 2;"}"#,
        )
        .unwrap();
        let (a, b) = (decode_query(&v).unwrap(), decode_query(&v).unwrap());
        assert!(Arc::ptr_eq(&a.pattern, &b.pattern));
        let batch = obj(vec![("queries", Value::Array(vec![v]))]);
        let slot = decode_batch(&batch).unwrap().queries.remove(0).unwrap();
        assert!(Arc::ptr_eq(&a.pattern, &slot.pattern));
    }

    #[test]
    fn updates_roundtrip() {
        let ups = vec![
            EdgeUpdate::Insert(NodeId(8), NodeId(3)),
            EdgeUpdate::Delete(NodeId(1), NodeId(2)),
        ];
        let body = obj(vec![(
            "updates",
            Value::Array(ups.iter().map(|&u| encode_update(u)).collect()),
        )]);
        let decoded = decode_updates(&body).unwrap();
        assert_eq!(decoded, ups);

        let e = decode_updates(&parse(r#"{"updates":[{"op":"upsert","from":1,"to":2}]}"#).unwrap())
            .unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("update 0"), "{}", e.message);
    }

    #[test]
    fn add_graph_roundtrip() {
        let g = collaboration_fig1().graph;
        let body = encode_add_graph("fig1", &g);
        let (name, decoded) = decode_add_graph(&body).unwrap();
        assert_eq!(name, "fig1");
        assert_eq!(decoded.node_count(), g.node_count());
        assert_eq!(decoded.edge_count(), g.edge_count());

        assert_eq!(
            decode_add_graph(&parse(r#"{"name":"x","graph":{"nodes":0}}"#).unwrap())
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn add_graph_with_an_edge_to_no_node_is_a_bad_request() {
        let body = parse(
            r#"{"name": "g", "graph": {"nodes": [{"label": "SA", "attrs": []}],
                "edges": [[0, 1]]}}"#,
        )
        .unwrap();
        let err = decode_add_graph(&body).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("outside 0..1"), "{}", err.message);
    }

    #[test]
    fn query_response_encoding() {
        use expfinder_engine::ExpFinder;
        use expfinder_pattern::fixtures::fig1_pattern;
        let engine = ExpFinder::default();
        let f = collaboration_fig1();
        let h = engine.add_graph("fig1", f.graph.clone()).unwrap();
        let q = fig1_pattern();
        let resp = engine
            .query(&h, &QuerySpec::pattern(q.clone()).top_k(2))
            .unwrap();
        let v = encode_query_response(&resp, &q, true, |n| {
            f.graph.attr_of(n, "name").and_then(|a| match a {
                expfinder_graph::AttrValue::Str(s) => Some(s.clone()),
                _ => None,
            })
        });
        assert_eq!(v.field("pairs").unwrap().as_i64().unwrap(), 7);
        assert_eq!(v.field("route").unwrap().as_str().unwrap(), "snapshot");
        let experts = v.field("experts").unwrap().as_array().unwrap();
        assert_eq!(experts.len(), 2);
        assert_eq!(
            experts[0].field("name").unwrap().as_str().unwrap(),
            "Bob",
            "{v:?}"
        );
        let matches = v.field("matches").unwrap().as_object().unwrap();
        assert_eq!(matches.len(), q.node_count());
        assert!(matches.contains_key("sa"), "{matches:?}");
        assert_eq!(matches["sa"].as_array().unwrap().len(), 2, "Bob and Walt");
        // every response's timings carries the planner decision
        let plan = v.field("timings").unwrap().field("plan").unwrap();
        assert_eq!(plan.field("chosen").unwrap().as_str().unwrap(), "snapshot");
        assert_eq!(plan.field("planned").unwrap().as_str().unwrap(), "snapshot");
        assert!(!plan.field("overridden").unwrap().as_bool().unwrap());
        let candidates = plan.field("candidates").unwrap().as_array().unwrap();
        assert!(!candidates.is_empty(), "{plan:?}");
        for c in candidates {
            assert!(c.field("route").unwrap().as_str().is_ok());
            let cost = c.field("cost").unwrap();
            assert!(matches!(cost, Value::Float(x) if x.is_finite()), "{cost:?}");
        }
        // round-trips through the parser (wire-safe)
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);

        // an exact route (cache hit) plans nothing but still reports
        let hit = engine
            .query(&h, &QuerySpec::pattern(q.clone()).top_k(2))
            .unwrap();
        let v2 = encode_query_response(&hit, &q, false, |_| None);
        let plan2 = v2.field("timings").unwrap().field("plan").unwrap();
        assert_eq!(plan2.field("chosen").unwrap().as_str().unwrap(), "cache");
        assert!(plan2
            .field("candidates")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());

        // without include_matches the field is absent
        let v = encode_query_response(&resp, &q, false, |_| None);
        assert!(v.field("matches").is_err());
    }

    /// One query answered on each of the four taken routes, encoded: the
    /// wire `route` is `timings.plan.chosen`, the route's `as_str`.
    #[test]
    fn route_is_the_plan_chosen_route_on_every_taken_route() {
        use expfinder_compress::CompressionMethod;
        use expfinder_engine::ExpFinder;
        use expfinder_pattern::fixtures::fig1_pattern;
        let engine = ExpFinder::default();
        let fig1 = engine
            .add_graph("fig1", collaboration_fig1().graph)
            .unwrap();
        let q = fig1_pattern();
        let run = |h, prefer| {
            engine
                .query(h, &QuerySpec::pattern(q.clone()).prefer(prefer))
                .unwrap()
        };

        engine.register_query(&fig1, "team", q.clone()).unwrap();
        let mut answers = vec![
            ("registered", run(&fig1, Route::Auto)),
            ("cache", run(&fig1, Route::Auto)),
            ("snapshot", run(&fig1, Route::Direct)),
        ];
        engine
            .compress(&fig1, CompressionMethod::Bisimulation)
            .unwrap();
        answers.push(("compressed", run(&fig1, Route::Compressed)));

        for (want, resp) in &answers {
            assert_eq!(resp.plan.chosen.as_str(), *want);
            assert_eq!(resp.matches.total_pairs(), 7, "{want}");
            let v = encode_query_response(resp, &q, false, |_| None);
            let route = v.field("route").unwrap().as_str().unwrap();
            let chosen = v.field("timings").unwrap().field("plan").unwrap();
            assert_eq!(route, chosen.field("chosen").unwrap().as_str().unwrap());
            assert_eq!(route, *want);
        }
    }

    #[test]
    fn subscribe_body_decoding() {
        assert_eq!(decode_subscribe(&parse("{}").unwrap()).unwrap(), None);
        assert_eq!(
            decode_subscribe(&parse(r#"{"queries":["team","sim"]}"#).unwrap()).unwrap(),
            Some(vec!["team".to_owned(), "sim".to_owned()])
        );
        for bad in [r#"{"queries":[]}"#, r#"{"queries":[7]}"#, r#"{"what":1}"#] {
            let e = decode_subscribe(&parse(bad).unwrap()).unwrap_err();
            assert_eq!(e.status, 400, "{bad}");
        }
    }

    #[test]
    fn subscription_frames_encode() {
        use expfinder_engine::{RegisteredDelta, UpdateReport};
        let hello = subscription_hello("g", 4, &["team".to_owned()], 9);
        assert_eq!(hello.field("frame").unwrap().as_str().unwrap(), "hello");
        assert_eq!(hello.field("graph_version").unwrap().as_i64().unwrap(), 4);
        assert_eq!(hello.field("subscriber").unwrap().as_i64().unwrap(), 9);

        let report = UpdateReport {
            applied: 1,
            attempted: 1,
            graph_version: 5,
            registered: vec![
                RegisteredDelta {
                    query: "team".into(),
                    before_pairs: 7,
                    after_pairs: 8,
                },
                RegisteredDelta {
                    query: "other".into(),
                    before_pairs: 1,
                    after_pairs: 1,
                },
            ],
        };
        // unfiltered: the report sub-document is exactly the /updates body
        let frame = subscription_update_frame(&report, None);
        assert_eq!(frame.field("frame").unwrap().as_str().unwrap(), "update");
        assert_eq!(
            frame.field("report").unwrap().to_string_compact(),
            encode_update_report(&report).to_string_compact()
        );
        // filtered: registered_delta narrowed, batch fields untouched
        let filter = vec!["team".to_owned()];
        let frame = subscription_update_frame(&report, Some(&filter));
        let doc = frame.field("report").unwrap();
        assert_eq!(doc.field("graph_version").unwrap().as_i64().unwrap(), 5);
        let delta = doc.field("registered_delta").unwrap();
        assert!(delta.field("team").is_ok());
        assert!(delta.field("other").is_err());

        assert_eq!(
            subscription_bye("drain")
                .field("reason")
                .unwrap()
                .as_str()
                .unwrap(),
            "drain"
        );
        assert_eq!(
            subscription_error("slow-consumer")
                .field("frame")
                .unwrap()
                .as_str()
                .unwrap(),
            "error"
        );
    }

    #[test]
    fn update_report_encoding() {
        use expfinder_engine::{RegisteredDelta, UpdateReport};
        let v = encode_update_report(&UpdateReport {
            applied: 1,
            attempted: 2,
            graph_version: 5,
            registered: vec![RegisteredDelta {
                query: "team".into(),
                before_pairs: 7,
                after_pairs: 8,
            }],
        });
        assert_eq!(v.field("applied").unwrap().as_i64().unwrap(), 1);
        let team = v.field("registered_delta").unwrap().field("team").unwrap();
        assert_eq!(team.field("delta").unwrap().as_i64().unwrap(), 1);
    }

    // ---------------- the writer against its oracle tree ----------------

    use expfinder_core::{MatchRelation, RankedMatch};
    use expfinder_engine::{CandidateCost, PlanDecision, PlanRoute, QueryTimings};
    use expfinder_graph::BitSet;
    use proptest::prelude::*;
    use std::time::Duration;

    /// The reply as a `Value` tree, built field by field: the encoding
    /// the server sent before the writer, kept as the writer's oracle.
    fn oracle(
        resp: &QueryResponse,
        pattern: &Pattern,
        include_matches: bool,
        resolve_name: impl Fn(NodeId) -> Option<String>,
    ) -> Value {
        let experts: Vec<Value> = resp
            .experts
            .iter()
            .map(|x| {
                let mut fields = vec![
                    ("node", Value::Int(x.node.0 as i64)),
                    (
                        "rank",
                        if x.rank.is_finite() {
                            Value::Float(x.rank)
                        } else {
                            Value::Str("inf".into())
                        },
                    ),
                ];
                if let Some(name) = resolve_name(x.node) {
                    fields.push(("name", Value::Str(name)));
                }
                obj(fields)
            })
            .collect();
        let candidates: Vec<Value> = resp
            .plan
            .candidates
            .iter()
            .map(|c| {
                obj(vec![
                    ("route", Value::Str(c.route.as_str().to_owned())),
                    ("cost", Value::Float(c.cost)),
                ])
            })
            .collect();
        let plan = obj(vec![
            ("chosen", Value::Str(resp.plan.chosen.as_str().to_owned())),
            ("planned", Value::Str(resp.plan.planned.as_str().to_owned())),
            ("overridden", Value::Bool(resp.plan.overridden)),
            ("candidates", Value::Array(candidates)),
        ]);
        let ms = |d: Duration| Value::Float(d.as_secs_f64() * 1e3);
        let mut fields = vec![
            ("pairs", Value::Int(resp.matches.total_pairs() as i64)),
            ("route", Value::Str(resp.plan.chosen.as_str().to_owned())),
            ("graph_version", Value::Int(resp.graph_version as i64)),
            ("experts", Value::Array(experts)),
            (
                "timings",
                obj(vec![
                    ("evaluate_ms", ms(resp.timings.evaluate)),
                    ("rank_ms", ms(resp.timings.rank)),
                    ("total_ms", ms(resp.timings.total)),
                    ("plan", plan),
                ]),
            ),
        ];
        if include_matches {
            let matches: Vec<(&str, Value)> = pattern
                .ids()
                .map(|u| {
                    let ids = resp.matches.matches_vec(u);
                    let ids = ids.into_iter().map(|v| Value::Int(v.0 as i64)).collect();
                    (pattern.node(u).name.as_str(), Value::Array(ids))
                })
                .collect();
            fields.push(("matches", obj(matches)));
        }
        obj(fields)
    }

    fn written(
        resp: &QueryResponse,
        pattern: &Pattern,
        include_matches: bool,
        resolve_name: impl Fn(NodeId) -> Option<String>,
    ) -> String {
        let mut out = String::new();
        write_query_response(&mut out, resp, pattern, include_matches, resolve_name);
        out
    }

    /// A pattern whose node names sort differently from their ids, so
    /// `matches` must be written in name order.
    fn zed_amy() -> Pattern {
        expfinder_pattern::parser::parse(
            "node zed* where label = \"SA\"; node amy; edge zed -> amy;",
        )
        .unwrap()
    }

    fn relation(sets: &[&[u32]], data_nodes: usize) -> Arc<MatchRelation> {
        let sets = sets
            .iter()
            .map(|ids| {
                let mut set = BitSet::new(data_nodes);
                for &v in *ids {
                    set.insert(NodeId(v));
                }
                set
            })
            .collect();
        Arc::new(MatchRelation::from_sets(sets, data_nodes))
    }

    fn expert(node: u32, rank: f64) -> RankedMatch {
        RankedMatch {
            node: NodeId(node),
            rank,
        }
    }

    /// A reply with every number shape the writer formats: an integral
    /// rank, −0.0, a tiny and a huge rank, an infinite one, a NaN cost,
    /// and names that need escapes or are not ASCII.
    fn golden_response() -> QueryResponse {
        QueryResponse {
            experts: vec![
                expert(3, 2.0),
                expert(0, -0.0),
                expert(7, 1e-7),
                expert(9, 1e21),
                expert(12, f64::INFINITY),
            ],
            matches: relation(&[&[0, 3, 7, 9, 12], &[1, 2]], 16),
            graph_version: 5,
            timings: QueryTimings {
                evaluate: Duration::from_nanos(1_953_125),
                rank: Duration::ZERO,
                total: Duration::from_millis(500),
            },
            plan: PlanDecision {
                chosen: PlanRoute::Snapshot,
                planned: PlanRoute::Compressed,
                overridden: true,
                candidates: vec![
                    CandidateCost {
                        route: PlanRoute::Snapshot,
                        cost: 12.5,
                    },
                    CandidateCost {
                        route: PlanRoute::Compressed,
                        cost: f64::NAN,
                    },
                ],
                expected_hit_rate: 0.0,
            },
        }
    }

    fn golden_name(n: NodeId) -> Option<String> {
        match n.0 {
            3 => Some("Bo \"b\" \\ x\n\u{1}".to_owned()),
            0 => Some("Zoë 中".to_owned()),
            _ => None,
        }
    }

    #[test]
    fn a_query_reply_is_these_bytes() {
        let resp = golden_response();
        let q = zed_amy();
        let golden = concat!(
            r#"{"experts":[{"name":"Bo \"b\" \\ x\n\u0001","node":3,"rank":2.0},"#,
            r#"{"name":"Zoë 中","node":0,"rank":-0.0},{"node":7,"rank":1e-7},"#,
            r#"{"node":9,"rank":1e21},{"node":12,"rank":"inf"}],"graph_version":5,"#,
            r#""matches":{"amy":[1,2],"zed":[0,3,7,9,12]},"pairs":7,"route":"snapshot","#,
            r#""timings":{"evaluate_ms":1.953125,"plan":{"candidates":[{"cost":12.5,"#,
            r#""route":"snapshot"},{"cost":null,"route":"compressed"}],"chosen":"snapshot","#,
            r#""overridden":true,"planned":"compressed"},"rank_ms":0.0,"total_ms":500.0}}"#,
        );
        assert_eq!(written(&resp, &q, true, golden_name), golden);
        assert_eq!(
            oracle(&resp, &q, true, golden_name).to_string_compact(),
            golden
        );
        // the harness's tree is the writer's bytes parsed back
        let tree = encode_query_response(&resp, &q, true, golden_name);
        assert_eq!(tree.to_string_compact(), golden);

        // no names, no matches, no experts, no candidates
        let bare = QueryResponse {
            experts: vec![],
            plan: PlanDecision::exact(PlanRoute::Cache),
            ..golden_response()
        };
        assert_eq!(
            written(&bare, &q, false, |_| None),
            concat!(
                r#"{"experts":[],"graph_version":5,"pairs":7,"route":"cache","#,
                r#""timings":{"evaluate_ms":1.953125,"plan":{"candidates":[],"#,
                r#""chosen":"cache","overridden":false,"planned":"cache"},"#,
                r#""rank_ms":0.0,"total_ms":500.0}}"#
            )
        );
    }

    #[test]
    fn a_batch_reply_is_these_bytes() {
        let q = QueryRequest {
            pattern: Arc::new(zed_amy()),
            dsl: String::new(),
            top_k: Some(1),
            route: Route::Auto,
            include_matches: true,
            deadline_ms: None,
        };
        let one = QueryResponse {
            experts: vec![expert(3, 2.0)],
            plan: PlanDecision::exact(PlanRoute::Registered),
            ..golden_response()
        };
        let mut out = String::new();
        write_batch_response(
            &mut out,
            [
                Err(WireError::bad_request("parse error: \"oops\"").fields()),
                Ok((one, &q)),
                Err(WireError::new(404, "no graph").fields()),
            ],
        );
        assert_eq!(
            out,
            concat!(
                r#"{"results":[{"error":{"message":"parse error: \"oops\"","status":400}},"#,
                r#"{"ok":{"experts":[{"node":3,"rank":2.0}],"graph_version":5,"#,
                r#""matches":{"amy":[1,2],"zed":[0,3,7,9,12]},"pairs":7,"route":"registered","#,
                r#""timings":{"evaluate_ms":1.953125,"plan":{"candidates":[],"#,
                r#""chosen":"registered","overridden":false,"planned":"registered"},"#,
                r#""rank_ms":0.0,"total_ms":500.0}}},"#,
                r#"{"error":{"message":"no graph","status":404}}]}"#
            )
        );
        let mut empty = String::new();
        write_batch_response(&mut empty, []);
        assert_eq!(empty, r#"{"results":[]}"#);
    }

    /// Floats of every class: non-finite, ±0.0, integral, tiny, huge and
    /// arbitrary bit patterns (subnormals and NaN payloads included).
    fn float() -> BoxedStrategy<f64> {
        prop_oneof![
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(-0.0),
            Just(0.0),
            (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
            (1i64..1000, -30i32..=30).prop_map(|(m, e)| m as f64 * 10f64.powi(e)),
            (0u64..=u64::MAX).prop_map(f64::from_bits),
        ]
        .boxed()
    }

    /// Names built from pieces that need escapes, ASCII and non-ASCII.
    fn name() -> BoxedStrategy<String> {
        const PIECES: [&str; 12] = [
            "a", "Bob", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\u{7f}", "Zoë", "中🦀",
        ];
        proptest::collection::vec(0..PIECES.len(), 0..6)
            .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
            .boxed()
    }

    fn route() -> BoxedStrategy<PlanRoute> {
        prop_oneof![
            Just(PlanRoute::Cache),
            Just(PlanRoute::Registered),
            Just(PlanRoute::Snapshot),
            Just(PlanRoute::Compressed),
        ]
        .boxed()
    }

    const DSLS: [&str; 3] = [
        "node sa* where label = \"SA\";",
        "node zed* where label = \"SA\"; node amy; edge zed -> amy;",
        "node m* where label = \"SA\"; node b; node a_1; edge m -> b within 2; edge b -> a_1;",
    ];
    const DATA_NODES: usize = 40;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The writer's bytes are the oracle tree's, for any reply.
        #[test]
        fn the_writer_writes_what_the_tree_printed(
            experts in proptest::collection::vec(
                (0u32..DATA_NODES as u32, float(), proptest::bool::ANY, name()), 0..12),
            plan in (route(), route(), proptest::bool::ANY,
                proptest::collection::vec((route(), float()), 0..=2)),
            shape in (0..DSLS.len(), proptest::collection::vec(
                proptest::collection::vec(0u32..DATA_NODES as u32, 0..8), 3)),
            version_and_times in (0u64..=u64::MAX, 0u64..10_000_000_000,
                0u64..10_000_000_000, 0u64..10_000_000_000),
            include_matches in proptest::bool::ANY,
        ) {
            let (dsl, sets) = shape;
            let q = expfinder_pattern::parser::parse(DSLS[dsl]).unwrap();
            let sets: Vec<&[u32]> = sets[..q.node_count()].iter().map(Vec::as_slice).collect();
            let (version, evaluate, rank, total) = version_and_times;
            let names: Vec<(NodeId, String)> = experts
                .iter()
                .filter(|e| e.2)
                .map(|e| (NodeId(e.0), e.3.clone()))
                .collect();
            let resp = QueryResponse {
                experts: experts.iter().map(|e| expert(e.0, e.1)).collect(),
                matches: relation(&sets, DATA_NODES),
                graph_version: version,
                timings: QueryTimings {
                    evaluate: Duration::from_nanos(evaluate),
                    rank: Duration::from_nanos(rank),
                    total: Duration::from_nanos(total),
                },
                plan: PlanDecision {
                    chosen: plan.0,
                    planned: plan.1,
                    overridden: plan.2,
                    candidates: plan
                        .3
                        .iter()
                        .map(|&(route, cost)| CandidateCost { route, cost })
                        .collect(),
                    expected_hit_rate: 0.0,
                },
            };
            let resolve = |n: NodeId| {
                names.iter().find(|(m, _)| *m == n).map(|(_, s)| s.clone())
            };
            let tree = oracle(&resp, &q, include_matches, resolve).to_string_compact();
            prop_assert_eq!(written(&resp, &q, include_matches, resolve), tree);
        }
    }
}
