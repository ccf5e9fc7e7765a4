//! File storage for graphs.
//!
//! The paper's architecture stores "all the graphs and query results ... as
//! files". Two formats are provided:
//!
//! * a line-oriented **text format** (`.efg`, header `# expfinder-graph
//!   v1`): the durable runtime's snapshots, the shell's `load` / `save`, and
//! * **JSON** ([`GraphDoc`]): the `POST /graphs` document, for interchange.
//!
//! Both round-trip the complete graph: node order, labels, typed
//! attributes and edges. In both a repeated edge is one edge, and an
//! endpoint that is not a node is an error.

use crate::attrs::AttrValue;
use crate::digraph::{DiGraph, EdgeUpdate};
use crate::json::{self, JsonError, Value};
use crate::view::GraphView;
use crate::NodeId;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors raised by graph file IO.
#[derive(Debug)]
pub enum GraphIoError {
    Io(std::io::Error),
    /// Text-format parse failure with 1-based line number.
    Parse {
        line: usize,
        msg: String,
    },
    Json(JsonError),
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "io error: {e}"),
            GraphIoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphIoError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<std::io::Error> for GraphIoError {
    fn from(e: std::io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

impl From<JsonError> for GraphIoError {
    fn from(e: JsonError) -> Self {
        GraphIoError::Json(e)
    }
}

const HEADER: &str = "# expfinder-graph v1";

/// Percent-encode, byte by byte, the characters that would break the
/// whitespace-separated text format: `%`, `=` and any whitespace.
fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c == '%' || c == '=' || c.is_whitespace() {
            for b in c.encode_utf8(&mut [0; 4]).bytes() {
                out.push_str(&format!("%{b:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| "truncated escape".to_string())?;
            let v = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape %{hex}"))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "invalid utf8 after decode".into())
}

fn encode_value(v: &AttrValue) -> String {
    match v {
        AttrValue::Int(x) => format!("i:{x}"),
        AttrValue::Float(x) => format!("f:{x:?}"),
        AttrValue::Bool(x) => format!("b:{x}"),
        AttrValue::Str(x) => format!("s:{}", encode(x)),
    }
}

fn decode_value(s: &str) -> Result<AttrValue, String> {
    let (tag, body) = s
        .split_once(':')
        .ok_or_else(|| format!("bad value {s:?}"))?;
    match tag {
        "i" => body
            .parse::<i64>()
            .map(AttrValue::Int)
            .map_err(|e| format!("bad int {body:?}: {e}")),
        "f" => body
            .parse::<f64>()
            .map(AttrValue::Float)
            .map_err(|e| format!("bad float {body:?}: {e}")),
        "b" => body
            .parse::<bool>()
            .map(AttrValue::Bool)
            .map_err(|e| format!("bad bool {body:?}: {e}")),
        "s" => decode(body).map(AttrValue::Str),
        _ => Err(format!("unknown value tag {tag:?}")),
    }
}

/// Write `g` in the text format.
pub fn write_text<W: Write>(g: &DiGraph, w: &mut W) -> Result<(), GraphIoError> {
    writeln!(w, "{HEADER}")?;
    for v in g.ids() {
        let data = g.vertex(v);
        write!(w, "n {}", encode(g.interner().resolve(data.label())))?;
        for (k, val) in data.attrs() {
            write!(
                w,
                " {}={}",
                encode(g.interner().resolve(*k)),
                encode_value(val)
            )?;
        }
        writeln!(w)?;
    }
    for (a, b) in g.edges() {
        writeln!(w, "e {} {}", a.0, b.0)?;
    }
    Ok(())
}

/// Read a graph from the text format.
pub fn read_text<R: BufRead>(r: &mut R) -> Result<DiGraph, GraphIoError> {
    let mut g = DiGraph::new();
    let mut lineno = 0usize;
    let mut line = String::new();
    let parse_err = |lineno: usize, msg: String| GraphIoError::Parse { line: lineno, msg };
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_ascii_whitespace();
        match parts.next() {
            Some("n") => {
                let label_enc = parts
                    .next()
                    .ok_or_else(|| parse_err(lineno, "node missing label".into()))?;
                let label = decode(label_enc).map_err(|m| parse_err(lineno, m))?;
                let mut attrs: Vec<(String, AttrValue)> = Vec::new();
                for kv in parts {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| parse_err(lineno, format!("bad attr {kv:?}")))?;
                    let key = decode(k).map_err(|m| parse_err(lineno, m))?;
                    let val = decode_value(v).map_err(|m| parse_err(lineno, m))?;
                    attrs.push((key, val));
                }
                g.add_node(&label, attrs.iter().map(|(k, v)| (k.as_str(), v.clone())));
            }
            Some("e") => {
                let a: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad edge source".into()))?;
                let b: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad edge target".into()))?;
                let n = g.node_count();
                if a.max(b) as usize >= n {
                    let msg = format!("edge ({a},{b}) names a node outside 0..{n}");
                    return Err(parse_err(lineno, msg));
                }
                g.add_edge(NodeId(a), NodeId(b));
            }
            Some(other) => {
                return Err(parse_err(lineno, format!("unknown record {other:?}")));
            }
            None => {}
        }
    }
    Ok(g)
}

/// Encode one [`EdgeUpdate`] as its canonical JSON object
/// `{"op": "insert"|"delete", "from": a, "to": b}` — the shape the HTTP
/// wire protocol and the runtime's write-ahead log both store, defined
/// once here so the two layers can never drift apart.
pub fn update_to_json(up: EdgeUpdate) -> Value {
    let (op, from, to) = match up {
        EdgeUpdate::Insert(a, b) => ("insert", a, b),
        EdgeUpdate::Delete(a, b) => ("delete", a, b),
    };
    Value::Object(
        [
            ("op".to_owned(), Value::Str(op.to_owned())),
            ("from".to_owned(), Value::Int(from.0 as i64)),
            ("to".to_owned(), Value::Int(to.0 as i64)),
        ]
        .into_iter()
        .collect(),
    )
}

/// Decode the canonical update object written by [`update_to_json`].
pub fn update_from_json(v: &Value) -> Result<EdgeUpdate, JsonError> {
    let from = NodeId(v.field("from")?.as_u32()?);
    let to = NodeId(v.field("to")?.as_u32()?);
    match v.field("op")?.as_str()? {
        "insert" => Ok(EdgeUpdate::Insert(from, to)),
        "delete" => Ok(EdgeUpdate::Delete(from, to)),
        other => Err(JsonError {
            msg: format!("unknown op {other:?} (insert|delete)"),
            offset: None,
        }),
    }
}

/// Save in text format to `path`.
pub fn save_text(g: &DiGraph, path: impl AsRef<Path>) -> Result<(), GraphIoError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_text(g, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Load text format from `path`.
pub fn load_text(path: impl AsRef<Path>) -> Result<DiGraph, GraphIoError> {
    let mut r = BufReader::new(File::open(path)?);
    read_text(&mut r)
}

/// Document mirror of a graph (used for the JSON format).
pub struct GraphDoc {
    pub nodes: Vec<NodeDoc>,
    pub edges: Vec<(u32, u32)>,
}

/// One node in a [`GraphDoc`].
pub struct NodeDoc {
    pub label: String,
    pub attrs: Vec<(String, AttrValue)>,
}

/// Encode an attribute value in the externally-tagged form serde would
/// have used (`{"Int": 7}`), keeping the file format stable.
fn attr_to_json(v: &AttrValue) -> Value {
    let (tag, inner) = match v {
        AttrValue::Int(x) => ("Int", Value::Int(*x)),
        AttrValue::Float(x) => ("Float", Value::Float(*x)),
        AttrValue::Str(s) => ("Str", Value::Str(s.clone())),
        AttrValue::Bool(b) => ("Bool", Value::Bool(*b)),
    };
    Value::Object([(tag.to_owned(), inner)].into_iter().collect())
}

fn attr_from_json(v: &Value) -> Result<AttrValue, JsonError> {
    let map = v.as_object()?;
    let (tag, inner) = map.iter().next().ok_or_else(|| JsonError {
        msg: "empty attribute value".into(),
        offset: None,
    })?;
    match tag.as_str() {
        "Int" => Ok(AttrValue::Int(inner.as_i64()?)),
        "Float" => Ok(AttrValue::Float(inner.as_f64()?)),
        "Str" => Ok(AttrValue::Str(inner.as_str()?.to_owned())),
        "Bool" => Ok(AttrValue::Bool(inner.as_bool()?)),
        other => Err(JsonError {
            msg: format!("unknown attribute tag {other:?}"),
            offset: None,
        }),
    }
}

impl GraphDoc {
    /// Snapshot a graph into a serializable document.
    pub fn from_graph(g: &DiGraph) -> Self {
        let nodes = g
            .ids()
            .map(|v| {
                let data = g.vertex(v);
                NodeDoc {
                    label: g.interner().resolve(data.label()).to_owned(),
                    attrs: data
                        .attrs()
                        .iter()
                        .map(|(k, val)| (g.interner().resolve(*k).to_owned(), val.clone()))
                        .collect(),
                }
            })
            .collect();
        let edges = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        GraphDoc { nodes, edges }
    }

    /// Materialize the document as a graph.
    pub fn into_graph(self) -> DiGraph {
        let mut g = DiGraph::with_capacity(self.nodes.len());
        for nd in &self.nodes {
            g.add_node(
                &nd.label,
                nd.attrs.iter().map(|(k, v)| (k.as_str(), v.clone())),
            );
        }
        for (a, b) in self.edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    /// Encode as a JSON value.
    pub fn to_json_value(&self) -> Value {
        let nodes = self
            .nodes
            .iter()
            .map(|nd| {
                let attrs = nd
                    .attrs
                    .iter()
                    .map(|(k, v)| Value::Array(vec![Value::Str(k.clone()), attr_to_json(v)]))
                    .collect();
                Value::Object(
                    [
                        ("label".to_owned(), Value::Str(nd.label.clone())),
                        ("attrs".to_owned(), Value::Array(attrs)),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|&(a, b)| Value::Array(vec![Value::Int(a as i64), Value::Int(b as i64)]))
            .collect();
        Value::Object(
            [
                ("nodes".to_owned(), Value::Array(nodes)),
                ("edges".to_owned(), Value::Array(edges)),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// Decode from a JSON value. An edge whose endpoint is not a node of
    /// the document is an error; a repeated edge is one edge.
    pub fn from_json_value(v: &Value) -> Result<GraphDoc, JsonError> {
        let nodes = v
            .field("nodes")?
            .as_array()?
            .iter()
            .map(|nd| {
                let attrs = nd
                    .field("attrs")?
                    .as_array()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_array()?;
                        match pair {
                            [k, val] => Ok((k.as_str()?.to_owned(), attr_from_json(val)?)),
                            _ => Err(JsonError {
                                msg: "attribute pair must be [key, value]".into(),
                                offset: None,
                            }),
                        }
                    })
                    .collect::<Result<Vec<_>, JsonError>>()?;
                Ok(NodeDoc {
                    label: nd.field("label")?.as_str()?.to_owned(),
                    attrs,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let n = nodes.len();
        let edges = v
            .field("edges")?
            .as_array()?
            .iter()
            .map(|e| {
                let e = e.as_array()?;
                match e {
                    [a, b] => match (a.as_u32()?, b.as_u32()?) {
                        (a, b) if a.max(b) as usize >= n => Err(JsonError {
                            msg: format!("edge [{a}, {b}] names a node outside 0..{n}"),
                            offset: None,
                        }),
                        edge => Ok(edge),
                    },
                    _ => Err(JsonError {
                        msg: "edge must be [from, to]".into(),
                        offset: None,
                    }),
                }
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(GraphDoc { nodes, edges })
    }
}

/// Serialize to a JSON string.
pub fn to_json(g: &DiGraph) -> Result<String, GraphIoError> {
    Ok(GraphDoc::from_graph(g).to_json_value().to_string_compact())
}

/// Deserialize from a JSON string.
pub fn from_json(s: &str) -> Result<DiGraph, GraphIoError> {
    let doc = GraphDoc::from_json_value(&json::parse(s)?)?;
    Ok(doc.into_graph())
}

/// Save as JSON to `path`.
pub fn save_json(g: &DiGraph, path: impl AsRef<Path>) -> Result<(), GraphIoError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(to_json(g)?.as_bytes())?;
    w.flush()?;
    Ok(())
}

/// Load JSON from `path`.
pub fn load_json(path: impl AsRef<Path>) -> Result<DiGraph, GraphIoError> {
    let mut s = String::new();
    BufReader::new(File::open(path)?).read_to_string(&mut s)?;
    from_json(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> DiGraph {
        let mut g = DiGraph::new();
        let a = g.add_node(
            "SA",
            [
                ("experience", AttrValue::Int(7)),
                ("name", AttrValue::Str("Bob Smith".into())),
            ],
        );
        let b = g.add_node(
            "SD",
            [
                ("experience", AttrValue::Float(2.5)),
                ("active", AttrValue::Bool(true)),
            ],
        );
        let c = g.add_node("weird=label %", []);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        g
    }

    fn assert_graphs_equal(a: &DiGraph, b: &DiGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.ids() {
            assert_eq!(a.label_str(v), b.label_str(v), "label of {v}");
            let va = a.vertex(v);
            let vb = b.vertex(v);
            assert_eq!(va.attrs().len(), vb.attrs().len());
            for (k, val) in va.attrs() {
                let key = a.interner().resolve(*k);
                let other = b.attr_of(v, key).expect("attr present");
                assert!(val.loose_eq(other) || val.to_string() == other.to_string());
            }
        }
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn text_roundtrip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text(&mut std::io::Cursor::new(buf)).unwrap();
        assert_graphs_equal(&g, &g2);
    }

    #[test]
    fn text_keeps_any_string() {
        let mut g = DiGraph::new();
        for s in [
            "Müller",
            "中 文",
            "a\u{c}b",
            "tail\u{2003}",
            "%=\r\n\t",
            "\u{1}",
        ] {
            g.add_node(s, [("name", AttrValue::Str(s.into()))]);
        }
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text(&mut std::io::Cursor::new(buf)).unwrap();
        assert_graphs_equal(&g, &g2);
    }

    #[test]
    fn text_repeated_edge_is_one_edge() {
        let src = "# expfinder-graph v1\nn A\nn B\ne 0 1\ne 0 1\n";
        let g = read_text(&mut src.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
        let doc = r#"{"nodes":[{"label":"A","attrs":[]},{"label":"B","attrs":[]}],
                      "edges":[[0,1],[0,1]]}"#;
        assert_eq!(from_json(doc).unwrap().edge_count(), 1, "the JSON rule");
    }

    #[test]
    fn text_edge_out_of_range_names_its_line() {
        let src = "# expfinder-graph v1\nn A\ne 0 0\ne 0 1\n";
        match read_text(&mut src.as_bytes()) {
            Err(GraphIoError::Parse { line: 4, msg }) => assert!(msg.contains("0..1"), "{msg}"),
            other => panic!("expected a parse error at line 4, got {other:?}"),
        }
    }

    #[test]
    fn json_roundtrip() {
        let g = sample_graph();
        let s = to_json(&g).unwrap();
        let g2 = from_json(&s).unwrap();
        assert_graphs_equal(&g, &g2);
    }

    #[test]
    fn file_roundtrip() {
        let g = sample_graph();
        let dir = std::env::temp_dir();
        let p1 = dir.join("expfinder_io_test.efg");
        let p2 = dir.join("expfinder_io_test.json");
        save_text(&g, &p1).unwrap();
        save_json(&g, &p2).unwrap();
        assert_graphs_equal(&g, &load_text(&p1).unwrap());
        assert_graphs_equal(&g, &load_json(&p2).unwrap());
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }

    #[test]
    fn parse_error_reports_line() {
        let input = format!("{HEADER}\nn ok\nbogus record\n");
        let err = read_text(&mut std::io::Cursor::new(input.into_bytes())).unwrap_err();
        match err {
            GraphIoError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn edge_out_of_range_rejected() {
        let input = format!("{HEADER}\nn a\ne 0 9\n");
        let err = read_text(&mut std::io::Cursor::new(input.into_bytes())).unwrap_err();
        assert!(matches!(err, GraphIoError::Parse { line: 3, .. }));
    }

    #[test]
    fn json_edge_out_of_range_rejected() {
        let doc =
            |edges| format!(r#"{{"nodes": [{{"label": "a", "attrs": []}}], "edges": {edges}}}"#);
        for edges in ["[[0, 1]]", "[[1, 0]]"] {
            let err = from_json(&doc(edges)).unwrap_err();
            assert!(err.to_string().contains("outside 0..1"), "{edges}: {err}");
        }
        // a self-loop is a node's own edge, and a repeat collapses
        let g = from_json(&doc("[[0, 0], [0, 0]]")).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let input = format!("{HEADER}\n\n# comment\nn a\nn b\ne 0 1\n");
        let g = read_text(&mut std::io::Cursor::new(input.into_bytes())).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn escape_roundtrip() {
        for s in ["plain", "with space", "a=b", "100%", "tab\there", ""] {
            assert_eq!(decode(&encode(s)).unwrap(), s);
        }
    }

    #[test]
    fn update_json_roundtrip() {
        for up in [
            EdgeUpdate::Insert(NodeId(0), NodeId(7)),
            EdgeUpdate::Delete(NodeId(3), NodeId(3)),
        ] {
            let v = update_to_json(up);
            assert_eq!(update_from_json(&v).unwrap(), up);
            // wire-safe: survives a print/parse cycle
            let reparsed = json::parse(&v.to_string_compact()).unwrap();
            assert_eq!(update_from_json(&reparsed).unwrap(), up);
        }
        let bad = json::parse(r#"{"op":"upsert","from":1,"to":2}"#).unwrap();
        assert!(update_from_json(&bad).is_err());
        let missing = json::parse(r#"{"op":"insert","from":1}"#).unwrap();
        assert!(update_from_json(&missing).is_err());
    }

    #[test]
    fn float_text_roundtrip_exact() {
        let v = AttrValue::Float(0.1 + 0.2);
        let enc = encode_value(&v);
        match decode_value(&enc).unwrap() {
            AttrValue::Float(f) => assert_eq!(f, 0.1 + 0.2, "Debug float encoding is lossless"),
            other => panic!("wrong type {other:?}"),
        }
    }
}
