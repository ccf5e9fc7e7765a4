//! Search conditions on pattern nodes.
//!
//! A predicate is a boolean combination of label tests and attribute
//! comparisons, mirroring the paper's search conditions such as
//! `expertise = "system developer", experience >= 3 years`. Predicates are
//! written against *strings*; before matching they are [compiled] against a
//! specific graph's interner so that the per-node evaluation in the match
//! loop compares integer symbols only.
//!
//! [compiled]: Predicate::compile

use expfinder_graph::{AttrValue, GraphView, Quoted, Sym, VertexData};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operator in an attribute condition.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering result. `None` orderings (e.g.
    /// cross-type comparisons) fail every operator except `Ne`, which the
    /// paper's semantics never relies on; we keep `Ne` strict too —
    /// incomparable values satisfy nothing.
    fn apply(self, ord: Option<Ordering>) -> bool {
        match ord {
            None => false,
            Some(o) => match self {
                CmpOp::Eq => o == Ordering::Equal,
                CmpOp::Ne => o != Ordering::Equal,
                CmpOp::Lt => o == Ordering::Less,
                CmpOp::Le => o != Ordering::Greater,
                CmpOp::Gt => o == Ordering::Greater,
                CmpOp::Ge => o != Ordering::Less,
            },
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A search condition on one pattern node.
#[derive(Clone, Debug)]
pub enum Predicate {
    /// Matches every node.
    True,
    /// The node's label equals this string.
    Label(String),
    /// Attribute comparison; absent attributes satisfy nothing.
    Cmp {
        key: String,
        op: CmpOp,
        value: AttrValue,
    },
    /// The attribute exists (any value).
    HasAttr(String),
    /// String attribute contains a substring.
    Contains {
        key: String,
        needle: String,
    },
    And(Vec<Predicate>),
    Or(Vec<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    // -------- constructors (fluent style used throughout the repo) -------

    pub fn label(l: impl Into<String>) -> Predicate {
        Predicate::Label(l.into())
    }

    pub fn cmp(key: impl Into<String>, op: CmpOp, value: impl Into<AttrValue>) -> Predicate {
        Predicate::Cmp {
            key: key.into(),
            op,
            value: value.into(),
        }
    }

    pub fn attr_eq(key: impl Into<String>, value: impl Into<AttrValue>) -> Predicate {
        Predicate::cmp(key, CmpOp::Eq, value)
    }

    pub fn attr_ne(key: impl Into<String>, value: impl Into<AttrValue>) -> Predicate {
        Predicate::cmp(key, CmpOp::Ne, value)
    }

    pub fn attr_ge(key: impl Into<String>, value: impl Into<AttrValue>) -> Predicate {
        Predicate::cmp(key, CmpOp::Ge, value)
    }

    pub fn attr_gt(key: impl Into<String>, value: impl Into<AttrValue>) -> Predicate {
        Predicate::cmp(key, CmpOp::Gt, value)
    }

    pub fn attr_le(key: impl Into<String>, value: impl Into<AttrValue>) -> Predicate {
        Predicate::cmp(key, CmpOp::Le, value)
    }

    pub fn attr_lt(key: impl Into<String>, value: impl Into<AttrValue>) -> Predicate {
        Predicate::cmp(key, CmpOp::Lt, value)
    }

    pub fn has_attr(key: impl Into<String>) -> Predicate {
        Predicate::HasAttr(key.into())
    }

    pub fn contains(key: impl Into<String>, needle: impl Into<String>) -> Predicate {
        Predicate::Contains {
            key: key.into(),
            needle: needle.into(),
        }
    }

    /// `self AND other` (flattens nested conjunctions).
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), o) => {
                a.push(o);
                Predicate::And(a)
            }
            (s, Predicate::And(mut b)) => {
                b.insert(0, s);
                Predicate::And(b)
            }
            (s, o) => Predicate::And(vec![s, o]),
        }
    }

    /// `self OR other` (flattens nested disjunctions).
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::Or(mut a), Predicate::Or(b)) => {
                a.extend(b);
                Predicate::Or(a)
            }
            (Predicate::Or(mut a), o) => {
                a.push(o);
                Predicate::Or(a)
            }
            (s, Predicate::Or(mut b)) => {
                b.insert(0, s);
                Predicate::Or(b)
            }
            (s, o) => Predicate::Or(vec![s, o]),
        }
    }

    /// Logical negation.
    pub fn negate(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    // ------------------------------- analysis ----------------------------

    /// A label every satisfying node is guaranteed to carry, if the
    /// predicate implies one: a bare label test, or any label test inside
    /// a conjunction. Used to seed candidate sets from a graph's label
    /// index ([`GraphView::nodes_with_label`]) instead of scanning all
    /// nodes. Disjunctions and negations imply nothing.
    pub fn required_label(&self) -> Option<&str> {
        match self {
            Predicate::Label(l) => Some(l),
            Predicate::And(ps) => ps.iter().find_map(|p| p.required_label()),
            _ => None,
        }
    }

    /// The residual condition once `label` is already known to hold —
    /// what a label-indexed candidate scan still has to test per class
    /// member. `None` means the residual is vacuous: the class *is* the
    /// candidate set and no per-node evaluation is needed at all.
    ///
    /// Only top-level `label = L` conjuncts are stripped; a label buried
    /// deeper is merely re-tested (redundant, never wrong).
    pub fn residual_after_label(&self, label: &str) -> Option<Predicate> {
        match self {
            Predicate::Label(l) if l == label => None,
            Predicate::And(ps) => {
                let rest: Vec<Predicate> = ps
                    .iter()
                    .filter(|p| !matches!(p, Predicate::Label(l) if l == label))
                    .cloned()
                    .collect();
                match rest.len() {
                    0 => None,
                    1 => Some(rest.into_iter().next().expect("len checked")),
                    _ => Some(Predicate::And(rest)),
                }
            }
            other => Some(other.clone()),
        }
    }

    /// Collect every attribute key this predicate mentions.
    pub fn collect_attrs(&self, out: &mut BTreeSet<String>) {
        match self {
            Predicate::True | Predicate::Label(_) => {}
            Predicate::Cmp { key, .. }
            | Predicate::HasAttr(key)
            | Predicate::Contains { key, .. } => {
                out.insert(key.clone());
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_attrs(out);
                }
            }
            Predicate::Not(p) => p.collect_attrs(out),
        }
    }

    /// The first attribute key or value here the DSL cannot write back:
    /// a key that is no identifier, a compared or searched key that opens
    /// another atom (`label`, `true`, `not`, `has`), or a non-finite float.
    pub(crate) fn unspellable(&self) -> Option<String> {
        let bad = |k: &str, atom: bool| {
            let opens_atom = atom && matches!(k, "label" | "true" | "not" | "has");
            (!crate::is_ident(k) || opens_atom).then(|| format!("attribute key {k:?}"))
        };
        match self {
            Predicate::True | Predicate::Label(_) => None,
            Predicate::HasAttr(key) => bad(key, false),
            Predicate::Cmp {
                value: AttrValue::Float(v),
                ..
            } if !v.is_finite() => Some(format!("float {v}")),
            Predicate::Cmp { key, .. } | Predicate::Contains { key, .. } => bad(key, true),
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().find_map(Predicate::unspellable),
            Predicate::Not(p) => p.unspellable(),
        }
    }

    /// How deep `(` and `not` nest in this condition's [`Display`] text,
    /// as the parser counts them: a `not (p)` is two levels, and so is
    /// the `not (true)` of an empty `or`; each parenthesised operand of a
    /// connective over two or more is one.
    ///
    /// [`Display`]: fmt::Display
    pub(crate) fn printed_depth(&self) -> usize {
        match self {
            Predicate::Not(p) => 2 + p.printed_depth(),
            Predicate::Or(ps) if ps.is_empty() => 2,
            Predicate::And(ps) | Predicate::Or(ps) => match ps.as_slice() {
                [] => 0,
                [p] => p.printed_depth(),
                _ => 1 + ps.iter().map(Predicate::printed_depth).max().unwrap_or(0),
            },
            _ => 0,
        }
    }

    /// Compile against a graph's interner. Keys and labels the graph has
    /// never seen become `None` symbols, which fail (or for `Not`,
    /// trivially pass) without any string comparison at match time.
    pub fn compile<G: GraphView>(&self, g: &G) -> CompiledPredicate {
        let it = g.interner();
        let node = match self {
            Predicate::True => CNode::True,
            Predicate::Label(l) => CNode::Label(it.get(l)),
            Predicate::Cmp { key, op, value } => CNode::Cmp {
                key: it.get(key),
                op: *op,
                value: value.clone(),
            },
            Predicate::HasAttr(k) => CNode::HasAttr(it.get(k)),
            Predicate::Contains { key, needle } => CNode::Contains {
                key: it.get(key),
                needle: needle.clone(),
            },
            Predicate::And(ps) => CNode::And(ps.iter().map(|p| p.compile(g).0).collect()),
            Predicate::Or(ps) => CNode::Or(ps.iter().map(|p| p.compile(g).0).collect()),
            Predicate::Not(p) => CNode::Not(Box::new(p.compile(g).0)),
        };
        CompiledPredicate(node)
    }

    /// Convenience: evaluate directly (compiles on the fly; use
    /// [`Predicate::compile`] + [`CompiledPredicate::eval`] in loops).
    pub fn eval<G: GraphView>(&self, g: &G, v: expfinder_graph::NodeId) -> bool {
        self.compile(g).eval(g.vertex(v))
    }
}

/// The DSL text of a condition, which parses back to itself: every `and`
/// / `or` operand is parenthesised; one operand prints as itself, no
/// operands as `true` (`and`) or `not (true)` (`or`).
impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("true"),
            Predicate::Label(l) => write!(f, "label = {}", Quoted(l)),
            Predicate::Cmp { key, op, value } => write!(f, "{key} {op} {value}"),
            Predicate::HasAttr(k) => write!(f, "has {k}"),
            Predicate::Contains { key, needle } => write!(f, "{key} contains {}", Quoted(needle)),
            Predicate::And(ps) => operands(f, ps, " and ", "true"),
            Predicate::Or(ps) => operands(f, ps, " or ", "not (true)"),
            Predicate::Not(p) => write!(f, "not ({p})"),
        }
    }
}

fn operands(f: &mut fmt::Formatter<'_>, ps: &[Predicate], sep: &str, none: &str) -> fmt::Result {
    match ps {
        [] => f.write_str(none),
        [p] => write!(f, "{p}"),
        _ => ps.iter().enumerate().try_for_each(|(i, p)| {
            let sep = if i == 0 { "" } else { sep };
            write!(f, "{sep}({p})")
        }),
    }
}

/// A predicate with all strings resolved to one graph's symbols.
/// Evaluation touches only symbols and `AttrValue`s.
#[derive(Clone, Debug)]
pub struct CompiledPredicate(CNode);

#[derive(Clone, Debug)]
enum CNode {
    True,
    Label(Option<Sym>),
    Cmp {
        key: Option<Sym>,
        op: CmpOp,
        value: AttrValue,
    },
    HasAttr(Option<Sym>),
    Contains {
        key: Option<Sym>,
        needle: String,
    },
    And(Vec<CNode>),
    Or(Vec<CNode>),
    Not(Box<CNode>),
}

impl CompiledPredicate {
    /// Does `data` satisfy the condition?
    pub fn eval(&self, data: &VertexData) -> bool {
        Self::eval_node(&self.0, data)
    }

    fn eval_node(node: &CNode, data: &VertexData) -> bool {
        match node {
            CNode::True => true,
            CNode::Label(sym) => sym.is_some_and(|s| data.label() == s),
            CNode::Cmp { key, op, value } => key
                .and_then(|k| data.attr(k))
                .is_some_and(|actual| op.apply(actual.compare(value))),
            CNode::HasAttr(key) => key.and_then(|k| data.attr(k)).is_some(),
            CNode::Contains { key, needle } => key
                .and_then(|k| data.attr(k))
                .and_then(|a| a.as_str())
                .is_some_and(|s| s.contains(needle.as_str())),
            CNode::And(ps) => ps.iter().all(|p| Self::eval_node(p, data)),
            CNode::Or(ps) => ps.iter().any(|p| Self::eval_node(p, data)),
            CNode::Not(p) => !Self::eval_node(p, data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::DiGraph;

    fn graph() -> (DiGraph, expfinder_graph::NodeId, expfinder_graph::NodeId) {
        let mut g = DiGraph::new();
        let bob = g.add_node(
            "SA",
            [
                ("experience", AttrValue::Int(7)),
                ("specialty", AttrValue::Str("architecture".into())),
            ],
        );
        let dan = g.add_node(
            "SD",
            [
                ("experience", AttrValue::Int(3)),
                ("specialty", AttrValue::Str("programmer".into())),
            ],
        );
        (g, bob, dan)
    }

    #[test]
    fn label_predicate() {
        let (g, bob, dan) = graph();
        let p = Predicate::label("SA");
        assert!(p.eval(&g, bob));
        assert!(!p.eval(&g, dan));
    }

    #[test]
    fn unknown_label_is_false() {
        let (g, bob, _) = graph();
        assert!(!Predicate::label("CEO").eval(&g, bob));
    }

    #[test]
    fn comparison_operators() {
        let (g, bob, dan) = graph();
        assert!(Predicate::attr_ge("experience", 5).eval(&g, bob));
        assert!(!Predicate::attr_ge("experience", 5).eval(&g, dan));
        assert!(Predicate::attr_lt("experience", 5).eval(&g, dan));
        assert!(Predicate::attr_eq("experience", 7).eval(&g, bob));
        assert!(Predicate::attr_ne("experience", 7).eval(&g, dan));
        assert!(Predicate::attr_le("experience", 7).eval(&g, bob));
        assert!(Predicate::attr_gt("experience", 6).eval(&g, bob));
    }

    #[test]
    fn missing_attr_fails_all_cmps() {
        let (g, bob, _) = graph();
        assert!(!Predicate::attr_ge("salary", 0).eval(&g, bob));
        assert!(
            !Predicate::attr_ne("salary", 0).eval(&g, bob),
            "Ne on a missing attribute is false, not true"
        );
        assert!(!Predicate::has_attr("salary").eval(&g, bob));
        assert!(Predicate::has_attr("experience").eval(&g, bob));
    }

    #[test]
    fn cross_type_cmp_fails() {
        let (g, bob, _) = graph();
        assert!(!Predicate::attr_eq("experience", "7").eval(&g, bob));
        assert!(
            Predicate::attr_eq("experience", 7.0).eval(&g, bob),
            "int/float coerce"
        );
    }

    #[test]
    fn contains_predicate() {
        let (g, bob, dan) = graph();
        assert!(Predicate::contains("specialty", "arch").eval(&g, bob));
        assert!(!Predicate::contains("specialty", "arch").eval(&g, dan));
        assert!(
            !Predicate::contains("experience", "7").eval(&g, bob),
            "non-string attr"
        );
    }

    #[test]
    fn boolean_combinators() {
        let (g, bob, dan) = graph();
        let p = Predicate::label("SA").and(Predicate::attr_ge("experience", 5));
        assert!(p.eval(&g, bob));
        assert!(!p.eval(&g, dan));

        let q = Predicate::label("SD").or(Predicate::label("SA"));
        assert!(q.eval(&g, bob));
        assert!(q.eval(&g, dan));

        let r = Predicate::label("SA").negate();
        assert!(!r.eval(&g, bob));
        assert!(r.eval(&g, dan));
    }

    #[test]
    fn and_or_flattening() {
        let p = Predicate::label("a")
            .and(Predicate::label("b"))
            .and(Predicate::label("c"));
        match &p {
            Predicate::And(v) => assert_eq!(v.len(), 3),
            _ => panic!("expected flattened And"),
        }
        let q = Predicate::label("a")
            .or(Predicate::label("b"))
            .or(Predicate::label("c"));
        match &q {
            Predicate::Or(v) => assert_eq!(v.len(), 3),
            _ => panic!("expected flattened Or"),
        }
    }

    #[test]
    fn true_matches_everything() {
        let (g, bob, dan) = graph();
        assert!(Predicate::True.eval(&g, bob));
        assert!(Predicate::True.eval(&g, dan));
    }

    #[test]
    fn not_of_unknown_key_is_true() {
        // "not (salary >= 10)" holds for nodes without a salary
        let (g, bob, _) = graph();
        assert!(Predicate::attr_ge("salary", 10).negate().eval(&g, bob));
    }

    #[test]
    fn compiled_predicate_reusable() {
        let (g, bob, dan) = graph();
        let compiled = Predicate::label("SA").compile(&g);
        assert!(compiled.eval(g.vertex(bob)));
        assert!(!compiled.eval(g.vertex(dan)));
    }

    #[test]
    fn texts_distinguish() {
        let a = Predicate::attr_ge("experience", 5);
        let b = Predicate::attr_ge("experience", 6);
        let c = Predicate::attr_gt("experience", 5);
        let d = Predicate::attr_ge("experience", 5.0);
        assert_ne!(a.to_string(), b.to_string());
        assert_ne!(a.to_string(), c.to_string());
        assert_ne!(a.to_string(), d.to_string(), "an integral float is no int");
        assert_eq!(
            a.to_string(),
            Predicate::attr_ge("experience", 5).to_string()
        );
    }

    #[test]
    fn degenerate_connectives_print_as_their_meaning() {
        assert_eq!(Predicate::And(vec![]).to_string(), "true");
        assert_eq!(Predicate::Or(vec![]).to_string(), "not (true)");
        let one = Predicate::And(vec![Predicate::label("A")]);
        assert_eq!(one.to_string(), Predicate::label("A").to_string());
    }

    #[test]
    fn display_is_readable() {
        let p = Predicate::label("SA").and(Predicate::attr_ge("experience", 5));
        let s = p.to_string();
        assert!(s.contains("label = \"SA\""), "{s}");
        assert!(s.contains("experience >= 5"), "{s}");
    }

    #[test]
    fn required_label_analysis() {
        assert_eq!(Predicate::label("SA").required_label(), Some("SA"));
        assert_eq!(
            Predicate::label("SA")
                .and(Predicate::attr_ge("experience", 5))
                .required_label(),
            Some("SA")
        );
        assert_eq!(
            Predicate::attr_ge("experience", 5)
                .and(Predicate::label("SD"))
                .required_label(),
            Some("SD")
        );
        // disjunction and negation imply no single label
        assert_eq!(
            Predicate::label("SA")
                .or(Predicate::label("SD"))
                .required_label(),
            None
        );
        assert_eq!(Predicate::label("SA").negate().required_label(), None);
        assert_eq!(Predicate::True.required_label(), None);
    }
}
