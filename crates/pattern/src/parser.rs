//! Text DSL for pattern queries — the substitute for the paper's GUI
//! "Pattern Builder" (Fig. 4).
//!
//! Grammar (statements end with `;`, `#` starts a line comment):
//!
//! ```text
//! node sa* where label = "SA" and experience >= 5;
//! node sd  where label = "SD" and experience >= 2;
//! node ba  where label = "BA" and experience >= 3;
//! node st  where label = "ST" and experience >= 2;
//! edge sa -> sd within 2;
//! edge sa -> ba within 3;
//! edge sd -> st within 2;
//! edge ba -> st within 1;
//! ```
//!
//! * `*` after a node name marks the output node (the paper's `SA*`).
//! * `within k` is the bound; `within *` means unbounded; omitted = 1 hop.
//! * Conditions: `label = "..."`, `key op value` (`= != < <= > >=`),
//!   `key contains "..."`, `has key`, combined with `and`, `or`, `not`
//!   and parentheses. A missing `where` clause means "matches anything".
//! * Strings are UTF-8; `\"`, `\\`, `\n`, `\t` are the escapes. `5` is an
//!   integer, `5.0` a float. `parse` keeps the tree the text spells, so a
//!   pattern's `Display` text reads back to a pattern of the same text.
//! * A condition nests `(` and `not` at most [`MAX_DEPTH`] levels deep,
//!   combined; a deeper one is a [`ParseError`] at the opener that
//!   crosses the bound. The text a pattern prints is held to the same
//!   bound, and it nests deeper than the text it was parsed from — each
//!   `not` prints as `not (…)`, two levels, and each operand of an
//!   `and` / `or` in parentheses — so `parse` also refuses a condition
//!   whose printed text would cross it (65 nested `not`s, say).
//!
//! [`parse`] parses every call. [`parse_memoised`] answers a text it has
//! parsed before with the same shared pattern, from one process-wide memo:
//! parsing is pure, so its answers never go stale.

use crate::{Bound, CmpOp, Pattern, PatternBuilder, Predicate};
use expfinder_graph::{AttrValue, Memo};
use std::fmt;
use std::sync::{Arc, LazyLock};

/// Parse failure with 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub col: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// How deep `(` and `not` may nest in one condition, combined — the JSON
/// decoder's bound, so that a deep text fails to parse instead of
/// overflowing the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Star,
    Semi,
    LParen,
    RParen,
    Arrow,
    Op(CmpOp),
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Int(v) => write!(f, "integer {v}"),
            Tok::Float(v) => write!(f, "float {v}"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::Star => write!(f, "'*'"),
            Tok::Semi => write!(f, "';'"),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::Arrow => write!(f, "'->'"),
            Tok::Op(op) => write!(f, "'{op}'"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if c & 0xC0 != 0x80 {
            // a column is a character: UTF-8 continuation bytes add none
            self.col += 1;
        }
        Some(c)
    }

    /// Step over the bytes `keep` accepts; the text stepped over. Each
    /// caller's `keep` accepts only ASCII or stops only at ASCII, so both
    /// ends of the run are char boundaries.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &self.src[start..self.pos]
    }

    /// The character starting at byte `at`, for an error message.
    fn char_at(&self, at: usize) -> char {
        self.src[at..].chars().next().unwrap_or('?')
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    self.take_while(|c| c != b'\n');
                }
                _ => break,
            }
        }
    }

    fn next_tok(&mut self) -> Result<(Tok, usize, usize), ParseError> {
        self.skip_ws();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match c {
            b'*' => {
                self.bump();
                Tok::Star
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'-' => {
                self.bump();
                if self.peek() == Some(b'>') {
                    self.bump();
                    Tok::Arrow
                } else if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return self.lex_number(self.pos - 1, line, col);
                } else {
                    return Err(self.err("expected '->' or a negative number after '-'"));
                }
            }
            b'=' => {
                self.bump();
                Tok::Op(CmpOp::Eq)
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Op(CmpOp::Ne)
                } else {
                    return Err(self.err("expected '=' after '!'"));
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Op(CmpOp::Le)
                } else {
                    Tok::Op(CmpOp::Lt)
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Op(CmpOp::Ge)
                } else {
                    Tok::Op(CmpOp::Gt)
                }
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    s.push_str(self.take_while(|c| c != b'"' && c != b'\\'));
                    match self.bump() {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => break,
                        _ => match self.bump() {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            None => return Err(self.err("unterminated string")),
                            Some(_) => {
                                let c = self.char_at(self.pos - 1);
                                return Err(self.err(format!("bad escape \\{c}")));
                            }
                        },
                    }
                }
                Tok::Str(s)
            }
            c if c.is_ascii_digit() => return self.lex_number(self.pos, line, col),
            c if c.is_ascii_alphabetic() || c == b'_' => Tok::Ident(
                self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_')
                    .to_owned(),
            ),
            _ => {
                let c = self.char_at(self.pos);
                return Err(self.err(format!("unexpected character {c:?}")));
            }
        };
        Ok((tok, line, col))
    }

    /// A number whose text starts at byte `start` (its `-`, if any, is
    /// already consumed): digits, then optionally `.` and digits.
    fn lex_number(
        &mut self,
        start: usize,
        line: usize,
        col: usize,
    ) -> Result<(Tok, usize, usize), ParseError> {
        self.take_while(|c| c.is_ascii_digit());
        let is_float = self.peek() == Some(b'.');
        if is_float {
            self.bump();
            self.take_while(|c| c.is_ascii_digit());
        }
        let s = &self.src[start..self.pos];
        let tok = if is_float {
            Tok::Float(s.parse().map_err(|e| self.err(format!("bad float: {e}")))?)
        } else {
            Tok::Int(s.parse().map_err(|e| self.err(format!("bad int: {e}")))?)
        };
        Ok((tok, line, col))
    }
}

struct Parser {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
    /// `(` and `not` levels open around the current token.
    depth: usize,
}

impl Parser {
    fn cur(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        let (_, line, col) = &self.toks[self.pos];
        ParseError {
            line: *line,
            col: *col,
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.cur() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {want}, found {}", self.cur())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.cur().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err_here(format!("expected identifier, found {other}"))),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.cur(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    // pred := and_expr ( "or" and_expr )*
    fn pred(&mut self) -> Result<Predicate, ParseError> {
        self.chain("or", Self::and_expr, Predicate::Or)
    }

    // and_expr := unary ( "and" unary )*
    fn and_expr(&mut self) -> Result<Predicate, ParseError> {
        self.chain("and", Self::unary, Predicate::And)
    }

    /// `operand (kw operand)*`: one operand as itself, more as one
    /// connective over them; a parenthesised operand stays one operand.
    fn chain(
        &mut self,
        kw: &str,
        operand: fn(&mut Self) -> Result<Predicate, ParseError>,
        connective: fn(Vec<Predicate>) -> Predicate,
    ) -> Result<Predicate, ParseError> {
        let first = operand(self)?;
        if !self.is_kw(kw) {
            return Ok(first);
        }
        let mut operands = vec![first];
        while self.eat_kw(kw) {
            operands.push(operand(self)?);
        }
        Ok(connective(operands))
    }

    // unary := "not" unary | "(" pred ")" | atom
    fn unary(&mut self) -> Result<Predicate, ParseError> {
        let not = self.is_kw("not");
        if !not && *self.cur() != Tok::LParen {
            return self.atom();
        }
        if self.depth == MAX_DEPTH {
            let msg = format!("condition nested deeper than {MAX_DEPTH} levels");
            return Err(self.err_here(msg));
        }
        self.bump();
        self.depth += 1;
        let p = if not {
            self.unary().map(Predicate::negate)
        } else {
            self.pred()
                .and_then(|p| self.expect(&Tok::RParen).map(|()| p))
        };
        self.depth -= 1;
        p
    }

    fn value(&mut self) -> Result<AttrValue, ParseError> {
        match self.cur().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(AttrValue::Int(v))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(AttrValue::Float(v))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(AttrValue::Str(s))
            }
            Tok::Ident(s) if s == "true" => {
                self.bump();
                Ok(AttrValue::Bool(true))
            }
            Tok::Ident(s) if s == "false" => {
                self.bump();
                Ok(AttrValue::Bool(false))
            }
            other => Err(self.err_here(format!("expected a value, found {other}"))),
        }
    }

    fn atom(&mut self) -> Result<Predicate, ParseError> {
        if self.eat_kw("true") {
            return Ok(Predicate::True);
        }
        if self.eat_kw("has") {
            let key = self.expect_ident()?;
            return Ok(Predicate::has_attr(key));
        }
        if self.is_kw("label") {
            self.bump();
            match self.bump() {
                Tok::Op(CmpOp::Eq) => {}
                other => {
                    return Err(self.err_here(format!("expected '=' after label, found {other}")))
                }
            }
            match self.bump() {
                Tok::Str(s) => return Ok(Predicate::label(s)),
                other => return Err(self.err_here(format!("expected string label, found {other}"))),
            }
        }
        let key = self.expect_ident()?;
        if self.eat_kw("contains") {
            match self.bump() {
                Tok::Str(s) => return Ok(Predicate::contains(key, s)),
                other => {
                    return Err(
                        self.err_here(format!("expected string after contains, found {other}"))
                    )
                }
            }
        }
        match self.bump() {
            Tok::Op(op) => {
                let v = self.value()?;
                Ok(Predicate::cmp(key, op, v))
            }
            other => Err(self.err_here(format!(
                "expected comparison operator or 'contains' after {key:?}, found {other}"
            ))),
        }
    }

    fn parse_pattern(&mut self) -> Result<Pattern, ParseError> {
        let mut b = PatternBuilder::new();
        loop {
            if *self.cur() == Tok::Eof {
                break;
            }
            if self.eat_kw("node") {
                let name = self.expect_ident()?;
                let is_output = if *self.cur() == Tok::Star {
                    self.bump();
                    true
                } else {
                    false
                };
                let pred = if self.eat_kw("where") {
                    self.pred()?
                } else {
                    Predicate::True
                };
                self.expect(&Tok::Semi)?;
                b = if is_output {
                    b.node_output(name, pred)
                } else {
                    b.node(name, pred)
                };
            } else if self.eat_kw("edge") {
                let from = self.expect_ident()?;
                self.expect(&Tok::Arrow)?;
                let to = self.expect_ident()?;
                let bound = if self.eat_kw("within") {
                    match self.bump() {
                        Tok::Int(k) if k >= 1 => Bound::hops(k as u32),
                        Tok::Int(k) => {
                            return Err(self.err_here(format!("bound must be ≥ 1, got {k}")))
                        }
                        Tok::Star => Bound::Unbounded,
                        other => {
                            return Err(self.err_here(format!(
                                "expected a bound (integer or '*'), found {other}"
                            )))
                        }
                    }
                } else {
                    Bound::ONE
                };
                self.expect(&Tok::Semi)?;
                b = b.edge(from, to, bound);
            } else {
                return Err(self.err_here(format!(
                    "expected 'node' or 'edge' statement, found {}",
                    self.cur()
                )));
            }
        }
        b.build().map_err(|e| ParseError {
            line: 0,
            col: 0,
            msg: e.to_string(),
        })
    }
}

/// Parse a pattern from DSL text.
pub fn parse(src: &str) -> Result<Pattern, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lexer.next_tok()?;
        let eof = t.0 == Tok::Eof;
        toks.push(t);
        if eof {
            break;
        }
    }
    let mut parser = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    parser.parse_pattern()
}

/// Most texts the process-wide parse memo keeps before it starts over.
pub const MAX_MEMO_TEXTS: usize = 1024;

/// Most bytes of text the process-wide parse memo keeps before it starts
/// over; a longer text is parsed every time.
pub const MAX_MEMO_BYTES: usize = 1 << 20;

/// Parsed patterns keyed by the text they were parsed from, as sent: two
/// spellings of one pattern are two entries whose patterns print one text.
type ParseMemo = Memo<Box<str>, Arc<Pattern>>;

/// The pattern `src` spells, from `memo` or parsed outside its lock. A
/// text that fails to parse is not kept.
fn parse_through(memo: &ParseMemo, src: &str) -> Result<Arc<Pattern>, ParseError> {
    if let Some(p) = memo.get(src) {
        return Ok(p);
    }
    let parsed = Arc::new(parse(src)?);
    Ok(memo.insert(src.into(), parsed, src.len()))
}

/// [`parse`], memoised process-wide: a text parsed before is answered
/// with the same [`Arc`], so a server that sees a few texts over and over
/// parses each once. Errors are not memoised (the text is parsed again).
pub fn parse_memoised(src: &str) -> Result<Arc<Pattern>, ParseError> {
    static MEMO: LazyLock<ParseMemo> = LazyLock::new(|| Memo::new(MAX_MEMO_TEXTS, MAX_MEMO_BYTES));
    parse_through(&MEMO, src)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = r#"
        # the paper's Fig. 1 pattern
        node sa* where label = "SA" and experience >= 5;
        node sd  where label = "SD" and experience >= 2;
        node ba  where label = "BA" and experience >= 3;
        node st  where label = "ST" and experience >= 2;
        edge sa -> sd within 2;
        edge sa -> ba within 3;
        edge sd -> st within 2;
        edge ba -> st within 1;
    "#;

    #[test]
    fn parses_fig1_pattern() {
        let p = parse(FIG1).unwrap();
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.edge_count(), 4);
        assert_eq!(p.output(), p.node_id("sa"));
        let sa = p.node_id("sa").unwrap();
        let bounds: Vec<Bound> = p.out_edges(sa).map(|e| e.bound).collect();
        assert!(bounds.contains(&Bound::hops(2)));
        assert!(bounds.contains(&Bound::hops(3)));
    }

    #[test]
    fn default_bound_is_one() {
        let p = parse("node a; node b; edge a -> b;").unwrap();
        assert!(p.is_simulation());
    }

    #[test]
    fn unbounded_edge() {
        let p = parse("node a; node b; edge a -> b within *;").unwrap();
        assert_eq!(p.edges()[0].bound, Bound::Unbounded);
    }

    #[test]
    fn missing_where_means_true() {
        let p = parse("node a;").unwrap();
        assert!(matches!(
            p.node(p.node_id("a").unwrap()).predicate,
            Predicate::True
        ));
    }

    #[test]
    fn parses_boolean_structure() {
        let p =
            parse(r#"node a where (label = "X" or label = "Y") and not experience < 3;"#).unwrap();
        let pred = &p.node(p.node_id("a").unwrap()).predicate;
        match pred {
            Predicate::And(parts) => {
                assert!(matches!(parts[0], Predicate::Or(_)));
                assert!(matches!(parts[1], Predicate::Not(_)));
            }
            other => panic!("unexpected structure {other:?}"),
        }
    }

    #[test]
    fn parses_contains_has_bool_float_negative() {
        let p = parse(
            r#"node a where specialty contains "DBA" and has name
                 and score >= 2.5 and delta > -3 and active = true;"#,
        )
        .unwrap();
        let text = p.to_string();
        assert!(text.contains(r#"(specialty contains "DBA")"#), "{text}");
        assert!(text.contains("(has name)"), "{text}");
        assert!(text.contains("(score >= 2.5)"), "{text}");
        assert!(text.contains("(delta > -3)"), "{text}");
        assert!(text.contains("(active = true)"), "{text}");
    }

    fn value_of(p: &Pattern) -> &AttrValue {
        match &p.nodes()[0].predicate {
            Predicate::Cmp { value, .. } => value,
            other => panic!("not a comparison: {other:?}"),
        }
    }

    #[test]
    fn string_escapes() {
        let p = parse(r#"node a where name = "say \"hi\"\n\t\\";"#).unwrap();
        assert_eq!(value_of(&p), &AttrValue::Str("say \"hi\"\n\t\\".into()));
        let err = parse(r#"node a where name = "\é";"#).unwrap_err();
        assert!(err.msg.contains("bad escape \\é"), "{err}");
    }

    #[test]
    fn strings_are_utf8() {
        let p = parse(r#"node a where label = "Müller";"#).unwrap();
        assert_eq!(p.nodes()[0].predicate.required_label(), Some("Müller"));
        assert_eq!(p.to_string(), "node a where label = \"Müller\";\n");
        // a column counts characters, not bytes
        let err = parse("node a where label = \"é\" ?;").unwrap_err();
        assert_eq!((err.line, err.col), (1, 26), "{err}");
    }

    #[test]
    fn integral_floats_stay_floats() {
        for (src, value) in [
            ("2.0", 2.0),
            ("-0.0", -0.0),
            ("100000000000000000000.0", 1e20),
        ] {
            let p = parse(&format!("node a where x >= {src};")).unwrap();
            assert_eq!(value_of(&p), &AttrValue::Float(value));
            assert_eq!(p.to_string(), format!("node a where x >= {src};\n"));
        }
        let p = parse("node a where x >= -0.0;").unwrap();
        assert!(matches!(value_of(&p), AttrValue::Float(v) if v.is_sign_negative()));
    }

    #[test]
    fn a_parenthesised_operand_stays_one_operand() {
        let grouped = r#"node a where (label = "a),L(b") and (has c);"#;
        let flat = r#"node a where (label = "a") and (label = "b") and (has c);"#;
        let (g, f) = (parse(grouped).unwrap(), parse(flat).unwrap());
        assert_ne!(g.to_string(), f.to_string());
        let nested = "node a where ((has a) and (has b)) and (has c);\n";
        assert_eq!(parse(nested).unwrap().to_string(), nested);
    }

    #[test]
    fn error_locations() {
        let err = parse("node a where label != \"X\";").unwrap_err();
        assert_eq!(err.line, 1, "label only supports '=': {err}");

        let err = parse("node\n  123;").unwrap_err();
        assert_eq!(err.line, 2);

        let err = parse("node a; edge a -> ;").unwrap_err();
        assert!(err.msg.contains("identifier"), "{err}");
    }

    #[test]
    fn zero_bound_rejected() {
        let err = parse("node a; node b; edge a -> b within 0;").unwrap_err();
        assert!(err.msg.contains("≥ 1"), "{err}");
    }

    #[test]
    fn builder_errors_surface() {
        let err = parse("node a; edge a -> ghost;").unwrap_err();
        assert!(err.msg.contains("ghost"), "{err}");
    }

    #[test]
    fn unterminated_string() {
        let err = parse(r#"node a where label = "oops;"#).unwrap_err();
        assert!(err.msg.contains("unterminated"), "{err}");
    }

    /// `depth` levels of `(` and `not`, alternating, around one atom.
    fn nested(depth: usize) -> String {
        let opens: String = (0..depth)
            .map(|i| if i % 2 == 0 { "not " } else { "(" })
            .collect();
        format!("node a where {opens}x = 1{};", ")".repeat(depth / 2))
    }

    /// The nesting cap holds on a thread with a 2 MiB stack — the
    /// default for spawned threads, which 2 000 unchecked levels of
    /// parentheses overflow in a release build: at the cap the text
    /// parses; one level deeper, or 100 000 levels deeper, is an error at
    /// the opener that crossed it.
    #[test]
    fn nesting_deeper_than_the_cap_is_an_error() {
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                assert!(parse(&nested(MAX_DEPTH)).is_ok());
                for depth in [MAX_DEPTH + 1, 100_000] {
                    let err = parse(&nested(depth)).unwrap_err();
                    assert!(err.msg.contains("nested deeper"), "{err}");
                    assert_eq!(err.line, 1);
                    assert_eq!(err.col, nested(MAX_DEPTH).rfind("x = 1").unwrap() + 1);
                }
                let parens = format!("node a where {}x = 1;", "(".repeat(MAX_DEPTH + 1));
                assert!(parse(&parens).unwrap_err().msg.contains("nested deeper"));
            })
            .unwrap();
        run.join().unwrap();
    }

    #[test]
    fn comment_handling() {
        let p = parse("# leading comment\nnode a; # trailing\n# full line\nnode b;").unwrap();
        assert_eq!(p.node_count(), 2);
    }

    #[test]
    fn a_bad_text_is_not_memoised() {
        let memo = ParseMemo::new(8, 1 << 10);
        let first = parse_through(&memo, "node a; edge a -> ghost;").unwrap_err();
        assert_eq!((memo.len(), memo.bytes()), (0, 0));
        assert_eq!(
            parse_through(&memo, "node a; edge a -> ghost;").unwrap_err(),
            first
        );
        assert_eq!((memo.len(), memo.bytes()), (0, 0));
    }

    #[test]
    fn two_spellings_are_two_entries_of_one_text() {
        let memo = ParseMemo::new(8, 1 << 10);
        let a = parse_through(&memo, "node a*; node b; edge a -> b;").unwrap();
        let spelled = "# spelled out\nnode a* where true;\nnode b;\nedge a -> b within 1;";
        let b = parse_through(&memo, spelled).unwrap();
        assert_eq!(memo.len(), 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn parse_memoised_shares_one_pattern_per_text() {
        let text = "node memo_probe*; node b; edge memo_probe -> b within 2;";
        let a = parse_memoised(text).unwrap();
        assert_eq!(a.fingerprint(), parse(text).unwrap().fingerprint());
        assert!(parse_memoised("node a; edge a -> nowhere_else;").is_err());
        assert!(Arc::ptr_eq(&a, &parse_memoised(text).unwrap()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generate::{random_pattern, PatternConfig, PatternShape};
    use crate::{PNodeId, PatternNode};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Strings that broke the text before: non-ASCII, the lexer's four
    /// escapes, other control characters, and a label that looked like
    /// the old encoding's separators; then printable and ASCII runs.
    fn text() -> BoxedStrategy<String> {
        let ascii = proptest::collection::vec(0u8..0x80, 0..6);
        prop_oneof![
            Just("Müller".to_owned()),
            Just("a),L(b".to_owned()),
            Just("say \"hi\" \\ \t\n".to_owned()),
            "\\PC{0,8}",
            ascii.prop_map(|bytes| bytes.into_iter().map(char::from).collect()),
        ]
        .boxed()
    }

    /// Integral floats (which once printed as ints), `-0.0`, any finite
    /// float, any int, strings and bools.
    fn value() -> impl Strategy<Value = AttrValue> {
        let finite = |bits| match f64::from_bits(bits) {
            v if v.is_finite() => AttrValue::Float(v),
            _ => AttrValue::Float(0.5),
        };
        prop_oneof![
            (-1000i64..1000).prop_map(|v| AttrValue::Float(v as f64)),
            Just(AttrValue::Float(-0.0)),
            (0u64..=u64::MAX).prop_map(finite),
            (-1000i64..1000, 1i64..100).prop_map(|(n, d)| AttrValue::Float(n as f64 / d as f64)),
            (i64::MIN..=i64::MAX).prop_map(AttrValue::Int),
            text().prop_map(AttrValue::Str),
            proptest::bool::ANY.prop_map(AttrValue::Bool),
        ]
    }

    /// Keys, keywords that are fine where a key stands among them.
    fn key() -> impl Strategy<Value = String> {
        let keys = ["experience", "and", "or", "contains", "where", "_k9"];
        (0..keys.len()).prop_map(move |i| keys[i].to_owned())
    }

    /// Any condition tree up to `depth` connectives deep, connectives of
    /// 0 to 3 operands included.
    fn predicate(depth: u32) -> BoxedStrategy<Predicate> {
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let atom = prop_oneof![
            Just(Predicate::True),
            text().prop_map(Predicate::Label),
            (key(), 0..op.len(), value()).prop_map(move |(k, i, v)| Predicate::cmp(k, op[i], v)),
            key().prop_map(Predicate::HasAttr),
            (key(), text()).prop_map(|(k, s)| Predicate::contains(k, s)),
        ]
        .boxed();
        if depth == 0 {
            return atom;
        }
        let inner = predicate(depth - 1);
        prop_oneof![
            atom.clone(),
            atom,
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Predicate::And),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Predicate::Or),
            inner.prop_map(Predicate::negate),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `parse(display(p))` prints `display(p)` for every generated
        /// pattern: the text is a pattern's identity, so it must survive
        /// any label, string, number and connective tree.
        #[test]
        fn display_parse_roundtrip(
            seed in 0u64..10_000,
            nodes in 1usize..7,
            shape_idx in 0usize..5,
            extra in proptest::collection::vec(predicate(3), 6),
        ) {
            let shape = [
                PatternShape::Chain,
                PatternShape::Star,
                PatternShape::Tree,
                PatternShape::Cycle,
                PatternShape::Dag,
            ][shape_idx];
            let labels = ["SA", "a b", "x\"y", "Müller", "a),L(b", "\\\t\n\r\u{1}"];
            let mut cfg = PatternConfig::new(shape, nodes, labels.map(String::from).to_vec());
            cfg.extra_edges = 2;
            let p = random_pattern(&mut StdRng::seed_from_u64(seed), &cfg);
            let nodes = p.nodes().iter().zip(extra).map(|(n, extra)| PatternNode {
                name: n.name.clone(),
                predicate: n.predicate.clone().and(extra),
            });
            let p = Pattern::from_parts(nodes.collect(), p.edges().to_vec(), p.output()).unwrap();
            let text = p.to_string();
            let reparsed = parse(&text)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
            prop_assert_eq!(reparsed.to_string(), text);
            // `as_simulation` changes the bounds, so it must print anew:
            // its text is that of the same parts built with every bound 1
            let name = |u: PNodeId| p.node(u).name.clone();
            let mut b = PatternBuilder::new();
            for (i, n) in p.nodes().iter().enumerate() {
                b = if p.output() == Some(PNodeId(i as u32)) {
                    b.node_output(n.name.clone(), n.predicate.clone())
                } else {
                    b.node(n.name.clone(), n.predicate.clone())
                };
            }
            for e in p.edges() {
                b = b.edge(name(e.from), name(e.to), Bound::ONE);
            }
            prop_assert_eq!(p.as_simulation().text(), b.build().unwrap().text());
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_total_on_garbage(input in "\\PC{0,120}") {
            let _ = parse(&input);
        }

        /// Whitespace and comments are insignificant.
        #[test]
        fn whitespace_insensitive(extra_ws in 0usize..5) {
            let pad = " ".repeat(extra_ws);
            let src = format!(
                "node{pad} a*{pad} where label = \"X\";{pad}\n# c\nnode b;{pad}edge a -> b within 2;"
            );
            let p = parse(&src).unwrap();
            prop_assert_eq!(p.node_count(), 2);
            prop_assert_eq!(p.edge_count(), 1);
        }
    }
}
