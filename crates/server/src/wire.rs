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
use expfinder_engine::{
    ExpFinderError, GraphInfo, PlanDecision, QueryResponse, Route, UpdateReport,
};
use expfinder_graph::io::GraphDoc;
use expfinder_graph::json::Value;
use expfinder_graph::{DiGraph, EdgeUpdate, NodeId};
use expfinder_pattern::Pattern;
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

/// Encode the planner's [`PlanDecision`] for `timings.plan`: the chosen
/// and originally-planned routes, whether a caller preference overrode
/// the plan, and every candidate the planner costed with its (finite)
/// cost (empty for exact routes — cache and registered hits are never
/// planned).
pub fn encode_plan(plan: &PlanDecision) -> Value {
    let candidates: Vec<Value> = plan
        .candidates
        .iter()
        .map(|c| {
            obj(vec![
                ("route", Value::Str(c.route.as_str().to_owned())),
                ("cost", Value::Float(c.cost)),
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

/// Encode a [`QueryResponse`]. Its `route` is the plan's `chosen`
/// route, the same string as `timings.plan.chosen`; which algorithm ran
/// is the pattern's (the client sent it). The full match relation is
/// included only on request (`include_matches`) — it can dwarf the rest
/// of the response on large graphs. `resolve_name` maps a node id to its
/// `name` attribute for human-readable expert rows.
pub fn encode_query_response(
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
    let mut fields = vec![
        ("pairs", Value::Int(resp.matches.total_pairs() as i64)),
        ("route", Value::Str(resp.plan.chosen.as_str().to_owned())),
        ("graph_version", Value::Int(resp.graph_version as i64)),
        ("experts", Value::Array(experts)),
        (
            "timings",
            obj(vec![
                (
                    "evaluate_ms",
                    Value::Float(resp.timings.evaluate.as_secs_f64() * 1e3),
                ),
                (
                    "rank_ms",
                    Value::Float(resp.timings.rank.as_secs_f64() * 1e3),
                ),
                (
                    "total_ms",
                    Value::Float(resp.timings.total.as_secs_f64() * 1e3),
                ),
                ("plan", encode_plan(&resp.plan)),
            ]),
        ),
    ];
    if include_matches {
        let matches: Vec<(&str, Value)> = pattern
            .ids()
            .map(|u| {
                let ids: Vec<Value> = resp
                    .matches
                    .matches_vec(u)
                    .into_iter()
                    .map(|v| Value::Int(v.0 as i64))
                    .collect();
                (pattern.node(u).name.as_str(), Value::Array(ids))
            })
            .collect();
        fields.push(("matches", obj(matches)));
    }
    obj(fields)
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
}
