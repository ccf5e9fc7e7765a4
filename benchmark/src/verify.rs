//! Correctness checks, all off the clock: the harness keeps its own
//! copy of the graph, applies every update it sent, and compares
//! sampled answers against `core::naive_bounded_simulation` + ranking.

use crate::workload::{Inputs, Op, OpKind, TOP_K};
use expfinder_core::naive::naive_bounded_simulation;
use expfinder_core::{top_k, RankedMatch};
use expfinder_graph::json::{self, Value};
use expfinder_graph::DiGraph;
use std::collections::HashMap;

/// What the oracle says one query must answer at one graph version.
#[derive(Clone, Debug)]
pub struct Expected {
    pub pairs: usize,
    pub experts: Vec<RankedMatch>,
}

/// The harness's copy of the served graph plus an oracle memo.
pub struct Mirror<'a> {
    inputs: &'a Inputs,
    graph: DiGraph,
    memo: HashMap<(u64, u32), Expected>,
    /// Oracle evaluations actually run (memo misses).
    pub evaluated: usize,
}

impl<'a> Mirror<'a> {
    pub fn new(inputs: &'a Inputs) -> Mirror<'a> {
        Mirror {
            inputs,
            graph: inputs.graph.clone(),
            memo: HashMap::new(),
            evaluated: 0,
        }
    }

    pub fn version(&self) -> u64 {
        self.graph.version()
    }

    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Apply an update op's edges; returns how many changed the graph.
    pub fn apply(&mut self, op: &Op) -> usize {
        op.updates.iter().filter(|&&u| self.graph.apply(u)).count()
    }

    /// The oracle's answer for pool pattern `p` at the current version.
    pub fn expected(&mut self, p: u32) -> Expected {
        let key = (self.graph.version(), p);
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        let pattern = &self.inputs.patterns[p as usize].pattern;
        let m = naive_bounded_simulation(&self.graph, pattern);
        let experts = top_k(&self.graph, pattern, &m, TOP_K).expect("pool patterns have an output");
        let expected = Expected {
            pairs: m.total_pairs(),
            experts,
        };
        self.evaluated += 1;
        self.memo.insert(key, expected.clone());
        expected
    }

    /// Check one single-query response document against the oracle.
    pub fn check_answer(&mut self, p: u32, doc: &Value) -> Result<(), String> {
        let version = self.version();
        let expected = self.expected(p);
        let got_version = doc
            .field("graph_version")
            .and_then(Value::as_i64)
            .map_err(|e| e.to_string())?;
        if got_version != version as i64 {
            return Err(format!(
                "pattern {p}: answered at version {got_version}, mirror is at {version}"
            ));
        }
        let pairs = doc
            .field("pairs")
            .and_then(Value::as_usize)
            .map_err(|e| e.to_string())?;
        if pairs != expected.pairs {
            return Err(format!(
                "pattern {p} @v{version}: {pairs} pairs, oracle says {}",
                expected.pairs
            ));
        }
        let experts = doc
            .field("experts")
            .and_then(Value::as_array)
            .map_err(|e| e.to_string())?;
        if experts.len() != expected.experts.len() {
            return Err(format!(
                "pattern {p} @v{version}: {} experts, oracle says {}",
                experts.len(),
                expected.experts.len()
            ));
        }
        for (i, (got, want)) in experts.iter().zip(&expected.experts).enumerate() {
            let node = got
                .field("node")
                .and_then(Value::as_i64)
                .map_err(|e| e.to_string())?;
            let rank = match got.field("rank").map_err(|e| e.to_string())? {
                Value::Str(s) if s == "inf" => f64::INFINITY,
                other => other.as_f64().map_err(|e| e.to_string())?,
            };
            let same_rank = rank == want.rank || (rank - want.rank).abs() <= 1e-9 * want.rank.abs();
            if node != i64::from(want.node.0) || !same_rank {
                return Err(format!(
                    "pattern {p} @v{version}: expert #{i} is node {node} rank {rank}, \
                     oracle says node {} rank {}",
                    want.node.0, want.rank
                ));
            }
        }
        Ok(())
    }
}

/// What the clocked loop kept of one op for the checks below.
#[derive(Debug, Default)]
pub struct Kept {
    /// HTTP status (0: transport failure).
    pub status: u16,
    /// Response body — of every update, and of the sampled reads.
    pub body: Option<Vec<u8>>,
}

/// Outcome of checking one op list.
#[derive(Debug, Default)]
pub struct Checked {
    /// Ops (by kind index, see `OpKind::ALL`) that failed a check here.
    pub mismatches: [usize; 3],
    /// Single answers compared with the oracle (a batch counts per slot).
    pub answers_checked: usize,
    pub messages: Vec<String>,
}

/// A response body as a JSON document.
pub fn parse_json(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-utf8 body".to_owned())?;
    json::parse(text).map_err(|e| e.to_string())
}

/// Walk `ops` in send order, advancing `mirror` through every update and
/// checking what was kept: update reports against the mirror's own
/// applied count and version, sampled query answers and batch slots
/// against the oracle. An op whose status is not 2xx was already counted
/// as failed by the caller and is skipped here (its updates, had they
/// been applied, would surface as a version mismatch on the next op).
pub fn check_ops(mirror: &mut Mirror<'_>, ops: &[Op], kept: &[Kept], stride: usize) -> Checked {
    let mut out = Checked::default();
    let mut slot = 0usize;
    let mut nth = [0usize; 3];
    for (op, kept) in ops.iter().zip(kept) {
        let ok = (200..300).contains(&kept.status);
        let kind = op.kind.index();
        nth[kind] += 1;
        let sampled = keeps_body(op.kind, nth[kind], stride);
        let result: Result<(), String> = match op.kind {
            OpKind::Update => {
                let applied = mirror.apply(op);
                match (&kept.body, ok) {
                    (Some(body), true) => parse_json(body).and_then(|doc| {
                        let field = |k: &str| {
                            doc.field(k)
                                .and_then(Value::as_i64)
                                .map_err(|e| e.to_string())
                        };
                        if field("applied")? != applied as i64
                            || field("attempted")? != op.updates.len() as i64
                            || field("graph_version")? != mirror.version() as i64
                        {
                            return Err(format!(
                                "update report {doc:?} disagrees with the mirror \
                                 (applied {applied}, version {})",
                                mirror.version()
                            ));
                        }
                        Ok(())
                    }),
                    _ => Ok(()),
                }
            }
            OpKind::Query => match (&kept.body, ok) {
                (Some(body), true) if sampled => parse_json(body).and_then(|doc| {
                    out.answers_checked += 1;
                    mirror.check_answer(op.patterns[0], &doc)
                }),
                _ => Ok(()),
            },
            OpKind::Batch => {
                let first = slot;
                slot += op.patterns.len();
                match (&kept.body, ok) {
                    (Some(body), true) => parse_json(body).and_then(|doc| {
                        let results = doc
                            .field("results")
                            .and_then(Value::as_array)
                            .map_err(|e| e.to_string())?;
                        if results.len() != op.patterns.len() {
                            return Err(format!(
                                "batch answered {} slots for {} queries",
                                results.len(),
                                op.patterns.len()
                            ));
                        }
                        for (i, (r, &p)) in results.iter().zip(&op.patterns).enumerate() {
                            // every slot must have succeeded; every
                            // stride-th is also compared with the oracle
                            let answer = r
                                .field("ok")
                                .map_err(|_| format!("batch slot {i} failed: {r:?}"))?;
                            if (first + i + 1) % stride == 0 {
                                out.answers_checked += 1;
                                mirror.check_answer(p, answer)?;
                            }
                        }
                        Ok(())
                    }),
                    _ => Ok(()),
                }
            }
        };
        if let Err(msg) = result {
            out.mismatches[kind] += 1;
            if out.messages.len() < 8 {
                out.messages.push(msg);
            }
        }
    }
    out
}

/// Whether the clocked loop must keep the body of the `nth` op of its
/// kind (1-based) for [`check_ops`]: every update (for the pushed-frame
/// identity check), every batch (all slots must be `ok`), and every
/// `stride`-th query.
pub fn keeps_body(kind: OpKind, nth_of_kind: usize, stride: usize) -> bool {
    match kind {
        OpKind::Update | OpKind::Batch => true,
        OpKind::Query => nth_of_kind % stride == 0,
    }
}
