//! Pattern queries for ExpFinder.
//!
//! A pattern query `Q` (paper §II) is a small directed graph whose nodes
//! carry **search conditions** (predicates over labels and attributes,
//! e.g. `label = "SA" and experience >= 5`) and whose edges carry **bounds**
//! on path length: an edge `(u, u')` with bound `k` asks for a non-empty
//! path of length ≤ `k` in the data graph; bound `*` means any length.
//! One node may be designated the **output node** (marked `SA*` in the
//! paper's Fig. 1): only its matches are returned to the user and ranked.
//!
//! Patterns are built three ways: programmatically via [`PatternBuilder`],
//! from the text DSL via [`parser::parse`] (the substitute for the paper's
//! GUI "Pattern Builder" panel), or randomly via [`generate`] for
//! benchmarks.

pub mod builder;
pub mod fixtures;
pub mod generate;
pub mod parser;
pub mod predicate;

pub use builder::PatternBuilder;
pub use predicate::{CmpOp, CompiledPredicate, Predicate};

use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Identifier of a node inside one pattern. Dense: `0..node_count`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PNodeId(pub u32);

impl PNodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Bound on a pattern edge: the maximum length of the matching path.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Bound {
    /// Path of length `1..=k`. `Hops(1)` is ordinary edge-to-edge matching.
    Hops(u32),
    /// Any non-empty path (the paper's `*`).
    Unbounded,
}

impl Bound {
    /// Constructor that enforces `k ≥ 1` (a 0-hop "path" is meaningless).
    pub fn hops(k: u32) -> Bound {
        assert!(k >= 1, "bound must be at least 1 hop");
        Bound::Hops(k)
    }

    /// The edge-to-edge bound of plain graph simulation.
    pub const ONE: Bound = Bound::Hops(1);

    /// Depth limit to feed a BFS: `u32::MAX` for unbounded.
    #[inline]
    pub fn depth(self) -> u32 {
        match self {
            Bound::Hops(k) => k,
            Bound::Unbounded => u32::MAX,
        }
    }

    /// True if this is the simulation bound (1 hop).
    pub fn is_one(self) -> bool {
        self == Bound::Hops(1)
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Hops(k) => write!(f, "{k}"),
            Bound::Unbounded => write!(f, "*"),
        }
    }
}

/// A pattern node: a user-facing name plus its search condition.
#[derive(Clone, Debug)]
pub struct PatternNode {
    pub name: String,
    pub predicate: Predicate,
}

/// A pattern edge with its bound.
#[derive(Clone, Debug)]
pub struct PatternEdge {
    pub from: PNodeId,
    pub to: PNodeId,
    pub bound: Bound,
}

/// Errors detected when assembling or validating a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    DuplicateNodeName(String),
    UnknownNodeName(String),
    DuplicateEdge(String, String),
    EmptyPattern,
    NoOutputNode,
    SelfLoop(String),
    /// A node name, attribute key or value the DSL cannot write back, or
    /// a condition whose text would nest deeper than
    /// [`parser::MAX_DEPTH`] (see [`Pattern::fingerprint`]).
    Unspellable(String),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::DuplicateNodeName(n) => write!(f, "duplicate pattern node name {n:?}"),
            PatternError::UnknownNodeName(n) => write!(f, "unknown pattern node name {n:?}"),
            PatternError::DuplicateEdge(a, b) => write!(f, "duplicate pattern edge {a:?} -> {b:?}"),
            PatternError::EmptyPattern => write!(f, "pattern has no nodes"),
            PatternError::NoOutputNode => write!(f, "pattern has no output node"),
            PatternError::SelfLoop(n) => write!(f, "self-loop on pattern node {n:?}"),
            PatternError::Unspellable(what) => {
                write!(f, "{what} cannot be written in the pattern DSL")
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// A validated pattern query.
///
/// Invariants (enforced by [`PatternBuilder`] / [`parser::parse`]):
/// node names are unique, edges reference existing nodes, no duplicate
/// edges, no self-loops, the output node (if any) exists, and every node
/// name, attribute key and value can be written in the DSL, in text
/// nested at most [`parser::MAX_DEPTH`] deep.
#[derive(Clone, Debug)]
pub struct Pattern {
    nodes: Vec<PatternNode>,
    edges: Vec<PatternEdge>,
    /// `out_adj[u]` = indices into `edges` of edges leaving `u`.
    out_adj: Vec<Vec<u32>>,
    /// `in_adj[u]` = indices into `edges` of edges entering `u`.
    in_adj: Vec<Vec<u32>>,
    output: Option<PNodeId>,
    /// The DSL text, printed once where the pattern is assembled.
    text: Arc<str>,
}

impl Pattern {
    /// Assemble a pattern from parts, validating all invariants (unique
    /// node names, edge endpoints in range, no duplicate edges or
    /// self-loops, names and conditions the DSL can spell, conditions
    /// whose text nests at most [`parser::MAX_DEPTH`] deep). Most callers
    /// should prefer [`PatternBuilder`]; this constructor exists for
    /// programmatic generation.
    pub fn from_parts(
        nodes: Vec<PatternNode>,
        edges: Vec<PatternEdge>,
        output: Option<PNodeId>,
    ) -> Result<Pattern, PatternError> {
        if nodes.is_empty() {
            return Err(PatternError::EmptyPattern);
        }
        let mut seen = std::collections::HashSet::new();
        for n in &nodes {
            if !seen.insert(n.name.as_str()) {
                return Err(PatternError::DuplicateNodeName(n.name.clone()));
            }
            if !is_ident(&n.name) {
                let what = format!("node name {:?}", n.name);
                return Err(PatternError::Unspellable(what));
            }
            if let Some(what) = n.predicate.unspellable() {
                return Err(PatternError::Unspellable(what));
            }
            let depth = n.predicate.printed_depth();
            if depth > parser::MAX_DEPTH {
                let max = parser::MAX_DEPTH;
                let what = format!("condition nested {depth} levels deep, past {max},");
                return Err(PatternError::Unspellable(what));
            }
        }
        let mut out_adj = vec![Vec::new(); nodes.len()];
        let mut in_adj = vec![Vec::new(); nodes.len()];
        let mut seen_edges = std::collections::HashSet::new();
        for (i, e) in edges.iter().enumerate() {
            if e.from == e.to {
                return Err(PatternError::SelfLoop(nodes[e.from.index()].name.clone()));
            }
            if !seen_edges.insert((e.from, e.to)) {
                return Err(PatternError::DuplicateEdge(
                    nodes[e.from.index()].name.clone(),
                    nodes[e.to.index()].name.clone(),
                ));
            }
            out_adj[e.from.index()].push(i as u32);
            in_adj[e.to.index()].push(i as u32);
        }
        let text = dsl_text(&nodes, &edges, output);
        Ok(Pattern {
            nodes,
            edges,
            out_adj,
            in_adj,
            output,
            text,
        })
    }

    /// Number of pattern nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of pattern edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// |Q| = nodes + edges, as in the paper's complexity statements.
    pub fn size(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }

    /// All pattern nodes, indexable by [`PNodeId`].
    pub fn nodes(&self) -> &[PatternNode] {
        &self.nodes
    }

    /// All pattern edges.
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// The node with a given id.
    pub fn node(&self, u: PNodeId) -> &PatternNode {
        &self.nodes[u.index()]
    }

    /// Edges leaving `u`.
    pub fn out_edges(&self, u: PNodeId) -> impl Iterator<Item = &PatternEdge> {
        self.out_adj[u.index()]
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Edges entering `u`.
    pub fn in_edges(&self, u: PNodeId) -> impl Iterator<Item = &PatternEdge> {
        self.in_adj[u.index()]
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Indices (into [`Pattern::edges`]) of edges leaving `u`.
    pub fn out_edge_indices(&self, u: PNodeId) -> &[u32] {
        &self.out_adj[u.index()]
    }

    /// Indices (into [`Pattern::edges`]) of edges entering `u`.
    pub fn in_edge_indices(&self, u: PNodeId) -> &[u32] {
        &self.in_adj[u.index()]
    }

    /// Look up a node id by name.
    pub fn node_id(&self, name: &str) -> Option<PNodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| PNodeId(i as u32))
    }

    /// The designated output node, if any.
    pub fn output(&self) -> Option<PNodeId> {
        self.output
    }

    /// The output node or an error — ranking requires one.
    pub fn require_output(&self) -> Result<PNodeId, PatternError> {
        self.output.ok_or(PatternError::NoOutputNode)
    }

    /// Iterate node ids.
    pub fn ids(&self) -> impl Iterator<Item = PNodeId> {
        (0..self.nodes.len() as u32).map(PNodeId)
    }

    /// True if every bound is 1 hop — i.e. this is a plain graph
    /// simulation query (the special case noted in paper §II).
    pub fn is_simulation(&self) -> bool {
        self.edges.iter().all(|e| e.bound.is_one())
    }

    /// The largest finite bound, or `None` if there are unbounded edges.
    /// Incremental bounded simulation sizes its affected balls with this.
    pub fn max_bound(&self) -> Option<u32> {
        let mut max = 1;
        for e in &self.edges {
            match e.bound {
                Bound::Unbounded => return None,
                Bound::Hops(k) => max = max.max(k),
            }
        }
        Some(max)
    }

    /// Every attribute key mentioned by any predicate (used by the
    /// compression module to validate signature coverage).
    pub fn mentioned_attrs(&self) -> std::collections::BTreeSet<String> {
        let mut set = std::collections::BTreeSet::new();
        for n in &self.nodes {
            n.predicate.collect_attrs(&mut set);
        }
        set
    }

    /// The pattern's DSL text ([`Display`](fmt::Display)), printed once
    /// when it was assembled: a clone of it is an [`Arc`] clone. The
    /// engine keys its query cache and its registered-query routing on it.
    pub fn text(&self) -> &Arc<str> {
        &self.text
    }

    /// The pattern's identity: its DSL text ([`Pattern::text`]), which
    /// [`parser::parse`] reads back to a pattern of the same text.
    /// Patterns of equal text match the same nodes, so the engine's query
    /// cache and its registered-query routing key on it, and the durable
    /// runtime logs it.
    pub fn fingerprint(&self) -> String {
        self.text.to_string()
    }

    /// A copy of this pattern with every bound replaced by 1 hop — the
    /// plain-simulation version of the query, its text printed anew.
    pub fn as_simulation(&self) -> Pattern {
        let mut p = self.clone();
        for e in &mut p.edges {
            e.bound = Bound::ONE;
        }
        p.text = dsl_text(&p.nodes, &p.edges, p.output);
        p
    }
}

/// The DSL text of a pattern's parts: one `node` statement per node in id
/// order, then one `edge` statement per edge, each on its own line.
fn dsl_text(nodes: &[PatternNode], edges: &[PatternEdge], output: Option<PNodeId>) -> Arc<str> {
    let mut text = String::new();
    for (i, n) in nodes.iter().enumerate() {
        let star = if output == Some(PNodeId(i as u32)) {
            "*"
        } else {
            ""
        };
        let _ = writeln!(text, "node {}{} where {};", n.name, star, n.predicate);
    }
    for e in edges {
        let (from, to) = (&nodes[e.from.index()].name, &nodes[e.to.index()].name);
        let _ = writeln!(text, "edge {from} -> {to} within {};", e.bound);
    }
    text.into()
}

/// The pattern's DSL text, as printed when it was assembled.
impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// True if `s` is one DSL identifier: an ASCII letter or `_`, then
/// ASCII letters, digits and `_`.
fn is_ident(s: &str) -> bool {
    let mut bytes = s.bytes();
    bytes
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
        && bytes.all(|c| c.is_ascii_alphanumeric() || c == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_pattern() -> Pattern {
        PatternBuilder::new()
            .node_output("sa", Predicate::label("SA"))
            .node("sd", Predicate::label("SD"))
            .edge("sa", "sd", Bound::hops(2))
            .build()
            .unwrap()
    }

    #[test]
    fn accessors() {
        let p = two_node_pattern();
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.edge_count(), 1);
        assert_eq!(p.size(), 3);
        let sa = p.node_id("sa").unwrap();
        let sd = p.node_id("sd").unwrap();
        assert_eq!(p.output(), Some(sa));
        assert_eq!(p.out_edges(sa).count(), 1);
        assert_eq!(p.in_edges(sd).count(), 1);
        assert_eq!(p.in_edges(sa).count(), 0);
        assert!(p.node_id("nope").is_none());
        assert_eq!(p.max_bound(), Some(2));
        assert!(!p.is_simulation());
    }

    #[test]
    fn as_simulation_resets_bounds() {
        let p = two_node_pattern().as_simulation();
        assert!(p.is_simulation());
        assert_eq!(p.max_bound(), Some(1));
    }

    #[test]
    fn unbounded_max_bound_is_none() {
        let p = PatternBuilder::new()
            .node("a", Predicate::True)
            .node("b", Predicate::True)
            .edge("a", "b", Bound::Unbounded)
            .build()
            .unwrap();
        assert_eq!(p.max_bound(), None);
        assert!(!p.is_simulation());
    }

    #[test]
    fn fingerprint_stable_and_distinguishing() {
        let a = two_node_pattern();
        let b = two_node_pattern();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = PatternBuilder::new()
            .node_output("sa", Predicate::label("SA"))
            .node("sd", Predicate::label("SD"))
            .edge("sa", "sd", Bound::hops(3)) // different bound
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.to_string());
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let p = two_node_pattern();
        let text = p.to_string();
        let p2 = parser::parse(&text).unwrap();
        assert_eq!(p2.to_string(), text);
    }

    #[test]
    fn unspellable_names_keys_and_values_are_refused() {
        let build = |name: &str, pred: Predicate| PatternBuilder::new().node(name, pred).build();
        let refused =
            |r: Result<Pattern, PatternError>| matches!(r, Err(PatternError::Unspellable(_)));
        assert!(refused(build("a b", Predicate::True)));
        assert!(refused(build("Müller", Predicate::True)));
        assert!(refused(build("9a", Predicate::True)));
        assert!(refused(build("a", Predicate::has_attr("x-y"))));
        for key in ["label", "true", "not", "has"] {
            assert!(refused(build("a", Predicate::attr_eq(key, 1))), "{key}");
            assert!(refused(build("a", Predicate::contains(key, "x"))), "{key}");
            assert!(build("a", Predicate::has_attr(key)).is_ok(), "has {key}");
        }
        assert!(refused(build("a", Predicate::attr_ge("x", f64::NAN))));
        assert!(refused(build(
            "a",
            Predicate::attr_ge("x", f64::INFINITY).negate()
        )));
        // a keyword is a fine node name or key where the grammar expects one
        let ok = build(
            "node",
            Predicate::attr_eq("and", 1).and(Predicate::contains("or", "x")),
        );
        let p = ok.unwrap();
        assert_eq!(
            parser::parse(&p.to_string()).unwrap().to_string(),
            p.to_string()
        );
    }

    /// The printed text is held to the parser's nesting cap: each `not`
    /// prints as `not (…)`, two levels, and each operand of a connective
    /// over two or more in parentheses, one. So 64 nested `not`s print at
    /// the cap and read back; 65, or 64 as one operand of an `and`, would
    /// print past it and are refused — when parsed as well as when built,
    /// though their own text nests only 65 deep.
    #[test]
    fn a_condition_whose_text_would_nest_past_the_cap_is_refused() {
        let nots = |n: usize| (0..n).fold(Predicate::attr_eq("x", 1), |p, _| p.negate());
        let build = |pred: Predicate| PatternBuilder::new().node("a", pred).build();
        let refused =
            |r: Result<Pattern, PatternError>| matches!(r, Err(PatternError::Unspellable(_)));
        let p = build(nots(64)).unwrap();
        assert_eq!(
            parser::parse(&p.to_string()).unwrap().to_string(),
            p.to_string()
        );
        assert!(refused(build(nots(65))));
        assert!(refused(build(Predicate::And(vec![
            nots(64),
            Predicate::True
        ]))));
        assert!(build(Predicate::Or(vec![]).negate()).is_ok());
        let text = |n: usize| format!("node a where {}x = 1;", "not ".repeat(n));
        assert!(parser::parse(&text(64)).is_ok());
        let err = parser::parse(&text(65)).unwrap_err();
        assert!(err.msg.contains("nested 130 levels deep"), "{err}");
    }

    #[test]
    fn bound_invariants() {
        assert_eq!(Bound::hops(3).depth(), 3);
        assert_eq!(Bound::Unbounded.depth(), u32::MAX);
        assert!(Bound::ONE.is_one());
        assert_eq!(Bound::Unbounded.to_string(), "*");
    }

    #[test]
    #[should_panic(expected = "at least 1 hop")]
    fn zero_bound_panics() {
        let _ = Bound::hops(0);
    }

    #[test]
    fn mentioned_attrs_collected() {
        let p = PatternBuilder::new()
            .node(
                "a",
                Predicate::label("SA").and(Predicate::attr_ge("experience", 5)),
            )
            .node("b", Predicate::attr_eq("specialty", "DBA"))
            .edge("a", "b", Bound::ONE)
            .build()
            .unwrap();
        let attrs = p.mentioned_attrs();
        assert!(attrs.contains("experience"));
        assert!(attrs.contains("specialty"));
        assert_eq!(attrs.len(), 2, "label is not an attribute");
    }
}
