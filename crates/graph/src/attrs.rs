//! Attribute values and string interning.
//!
//! Node content in ExpFinder graphs is a label (the "field" of an expert,
//! e.g. `SA`) plus a small set of typed attributes (`experience = 7`,
//! `specialty = "DBA"`, `name = "Bob"`). Labels and attribute keys repeat
//! across millions of nodes, so both are interned to `u32` symbols; pattern
//! predicates are compiled against a graph's interner before matching so
//! the hot loop compares integers, never strings.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// An interned string (label or attribute key). Only meaningful together
/// with the [`Interner`] that produced it.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Sym(pub u32);

impl Sym {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional string ↔ symbol table. One per graph.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<String>,
    map: HashMap<String, Sym>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.names.len()).expect("interner overflow"));
        self.names.push(s.to_owned());
        self.map.insert(s.to_owned(), sym);
        sym
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// The string behind a symbol. Panics on a foreign symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_str()))
    }
}

/// A typed attribute value.
///
/// Comparisons between `Int` and `Float` coerce the integer; all other
/// cross-type comparisons are undefined (`partial_cmp` returns `None`),
/// which predicates treat as "does not satisfy".
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

impl AttrValue {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compare two values for predicate evaluation. `None` means the
    /// comparison is meaningless (different, non-coercible types).
    pub fn compare(&self, other: &AttrValue) -> Option<Ordering> {
        use AttrValue::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Equality under the same coercion rules as [`AttrValue::compare`].
    pub fn loose_eq(&self, other: &AttrValue) -> bool {
        matches!(self.compare(other), Some(Ordering::Equal))
    }
}

/// A value as the pattern DSL writes it, which its lexer reads back to the
/// same value: a string [`Quoted`], a float with a fraction even when
/// integral (`2.0`, `-0.0`). Values of different types never print alike.
impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Float(v) if v.is_finite() && v.fract() == 0.0 => write!(f, "{v}.0"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{}", Quoted(s)),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A string as a pattern DSL literal, which the lexer reads back to it: in
/// `"`, with `"`, `\`, newline and tab escaped as `\"`, `\\`, `\n`, `\t` and
/// every other character raw. A run of quoted texts is injective.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' | '\\' => write!(f, "\\{c}")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrip_and_dedup() {
        let mut it = Interner::new();
        let a = it.intern("SA");
        let b = it.intern("SD");
        let a2 = it.intern("SA");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(it.resolve(a), "SA");
        assert_eq!(it.resolve(b), "SD");
        assert_eq!(it.len(), 2);
        assert_eq!(it.get("SA"), Some(a));
        assert_eq!(it.get("missing"), None);
    }

    #[test]
    fn interner_iter_order() {
        let mut it = Interner::new();
        it.intern("x");
        it.intern("y");
        let pairs: Vec<_> = it.iter().map(|(s, n)| (s.0, n.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn attr_compare_same_types() {
        assert_eq!(
            AttrValue::Int(3).compare(&AttrValue::Int(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            AttrValue::Str("a".into()).compare(&AttrValue::Str("a".into())),
            Some(Ordering::Equal)
        );
        assert_eq!(
            AttrValue::Bool(true).compare(&AttrValue::Bool(false)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn attr_compare_numeric_coercion() {
        assert_eq!(
            AttrValue::Int(3).compare(&AttrValue::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            AttrValue::Float(2.5).compare(&AttrValue::Int(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn attr_compare_cross_type_is_none() {
        assert_eq!(AttrValue::Int(1).compare(&AttrValue::Str("1".into())), None);
        assert_eq!(
            AttrValue::Bool(true).compare(&AttrValue::Int(1)),
            None,
            "bool does not coerce to int"
        );
        assert!(!AttrValue::Int(1).loose_eq(&AttrValue::Bool(true)));
    }

    #[test]
    fn value_texts_distinguish_types() {
        let text = |v: AttrValue| v.to_string();
        assert_eq!(text(AttrValue::Int(2)), "2");
        assert_eq!(text(AttrValue::Float(2.0)), "2.0");
        assert_eq!(text(AttrValue::Float(-0.0)), "-0.0");
        assert_eq!(text(AttrValue::Float(2.5)), "2.5");
        assert_eq!(text(AttrValue::Str("2".into())), "\"2\"");
        assert_eq!(text(AttrValue::Bool(true)), "true");
        assert_eq!(text(AttrValue::Str("true".into())), "\"true\"");
    }

    #[test]
    fn quoted_escapes_only_what_the_lexer_reads() {
        let q = |s: &str| Quoted(s).to_string();
        assert_eq!(q("a\"b\\c\nd\te"), r#""a\"b\\c\nd\te""#);
        assert_eq!(q("Müller\r\u{1}\0"), "\"Müller\r\u{1}\0\"");
        assert_eq!(q(""), "\"\"");
    }

    #[test]
    fn nan_float_compare_is_none() {
        assert_eq!(
            AttrValue::Float(f64::NAN).compare(&AttrValue::Float(1.0)),
            None
        );
    }
}
