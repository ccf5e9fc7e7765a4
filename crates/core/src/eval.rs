//! The one evaluation entry point.
//!
//! Every way of computing a match relation in this crate — two
//! semantics, with or without caller-owned scratch, a per-snapshot reach
//! index or a cancellation token — is one call: [`evaluate`] with an
//! [`EvalRequest`]. The paper-named wrappers ([`crate::graph_simulation`],
//! [`crate::bounded_simulation`], [`crate::dual_simulation`]) and the two
//! indexed wrappers are fixed requests.

use crate::bsim::EvalStats;
use crate::fixpoint::{Cancelled, EvalScratch};
use crate::matchrel::MatchRelation;
use crate::{bsim, dualsim, MatchError};
use expfinder_graph::{CancelToken, GraphView, ReachProvider};
use expfinder_pattern::Pattern;

/// Which match relation to compute. Plain graph simulation is
/// `Bounded` on a pattern whose every bound is one hop
/// ([`crate::graph_simulation`] checks that and requests it).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Semantics {
    /// Bounded simulation, the paper's core semantics ([`crate::bsim`]).
    Bounded,
    /// Bounded dual simulation ([`crate::dualsim`]).
    Dual,
}

/// Everything one evaluation can be given besides the graph and the
/// pattern. Only `semantics` changes the answer; every other field
/// changes cost or observability.
pub struct EvalRequest<'a> {
    pub semantics: Semantics,
    /// Reusable buffers for the fixpoint; `None` allocates a fresh
    /// scratch for this call.
    pub scratch: Option<&'a mut EvalScratch>,
    /// Per-snapshot reach provider consulted before class-seeded first
    /// refreshes fall back to BFS. Must be bound to the same snapshot as
    /// the graph; results are bit-identical with or without it.
    pub index: Option<&'a dyn ReachProvider>,
    /// Polled at every refresh boundary and inside each BFS; a fired
    /// token aborts with [`EvalError::Cancelled`] before any torn reach
    /// set is cached or applied, so scratch and index stay sound.
    pub cancel: Option<&'a CancelToken>,
}

impl EvalRequest<'_> {
    /// Nothing attached.
    pub fn new(semantics: Semantics) -> EvalRequest<'static> {
        EvalRequest {
            semantics,
            scratch: None,
            index: None,
            cancel: None,
        }
    }
}

/// Why [`evaluate`] returned no relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The pattern does not fit the requested semantics.
    Pattern(MatchError),
    /// The request's token fired; carries the partial work counters.
    Cancelled(Cancelled),
}

impl EvalError {
    /// The error of a request that carried no cancel token.
    pub(crate) fn uncancelled(self) -> MatchError {
        match self {
            EvalError::Pattern(e) => e,
            EvalError::Cancelled(_) => unreachable!("no cancel token supplied"),
        }
    }
}

impl From<MatchError> for EvalError {
    fn from(e: MatchError) -> Self {
        EvalError::Pattern(e)
    }
}

impl From<Cancelled> for EvalError {
    fn from(c: Cancelled) -> Self {
        EvalError::Cancelled(c)
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Pattern(e) => e.fmt(f),
            EvalError::Cancelled(c) => c.fmt(f),
        }
    }
}

impl std::error::Error for EvalError {}

/// Compute the maximum match relation `M(Q,G)` of `q` over `g` under
/// `req.semantics`, with work counters, by the one fixpoint engine of
/// [`crate::fixpoint`] (judged by [`crate::naive`]); the rest of the
/// request only decides how much work that takes and what is reused.
pub fn evaluate<G: GraphView>(
    g: &G,
    q: &Pattern,
    req: EvalRequest<'_>,
) -> Result<(MatchRelation, EvalStats), EvalError> {
    let EvalRequest {
        semantics,
        scratch,
        index,
        cancel,
    } = req;
    let mut own = None;
    let scratch = match scratch {
        Some(s) => s,
        None => own.insert(EvalScratch::new()),
    };
    Ok(match semantics {
        Semantics::Bounded => bsim::bounded_sequential(g, q, scratch, index, cancel)?,
        Semantics::Dual => dualsim::dual_sequential(g, q, scratch, index, cancel)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsim::{bounded_fixpoint_raw, EvalOptions};
    use crate::{
        bounded_simulation, bounded_simulation_indexed, candidate_sets, dual_simulation,
        graph_simulation, parallel_bounded_simulation_indexed,
    };
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::generate::{erdos_renyi, NodeSpec};
    use expfinder_graph::{CsrGraph, ReachIndex};
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Outcome = Result<(MatchRelation, EvalStats), MatchError>;

    /// `evaluate`, with its error narrowed the way the wrappers narrow it.
    fn eval(g: &CsrGraph, q: &Pattern, req: EvalRequest<'_>) -> Outcome {
        evaluate(g, q, req).map_err(EvalError::uncancelled)
    }

    /// Every retained wrapper is `evaluate` with one fixed request: same
    /// relation, same `EvalStats` (where the wrapper reports them), same
    /// error — and a disarmed token changes neither. The table is the
    /// cross product below: wrapper × index × threads (which the
    /// benchmark shim ignores), over a fixture and
    /// three random graph/pattern pairs, each also as its 1-bounded
    /// (simulation) variant.
    #[test]
    fn retained_wrappers_equal_their_requests() {
        let mut rng = StdRng::seed_from_u64(1601);
        let spec = NodeSpec::uniform(3, 4);
        let mut cases = vec![(collaboration_fig1().graph, fig1_pattern())];
        for shape in [PatternShape::Chain, PatternShape::Cycle, PatternShape::Dag] {
            let g = erdos_renyi(&mut rng, 40, 160, &spec);
            let mut cfg = PatternConfig::new(shape, 4, spec.labels.clone());
            cfg.bound_range = (1, 3);
            cfg.extra_edges = 1;
            cases.push((g, random_pattern(&mut rng, &cfg)));
        }
        let disarmed = CancelToken::disarmed();
        let base = |semantics| EvalRequest {
            cancel: Some(&disarmed),
            ..EvalRequest::new(semantics)
        };
        for (g, q) in &cases {
            let g = &CsrGraph::snapshot(g);
            let n = g.node_count();
            for q in &[q.clone(), q.as_simulation()] {
                let relation = |semantics| eval(g, q, base(semantics)).map(|(m, _)| m);
                // a fresh index per side: a warm entry is a hit either way
                let (ia, ib) = (ReachIndex::new(g.version()), ReachIndex::new(g.version()));
                let (ia, ib) = (ia.bind(g), ib.bind(g));
                let index = |on: bool, i| on.then_some(i as &dyn ReachProvider);

                let bounded = relation(Semantics::Bounded);
                let sim = if q.is_simulation() {
                    bounded.clone()
                } else {
                    Err(MatchError::NotASimulationPattern)
                };
                assert_eq!(graph_simulation(g, q), sim);
                assert_eq!(bounded_simulation(g, q), bounded);
                assert_eq!(Ok(dual_simulation(g, q)), relation(Semantics::Dual));

                for on in [false, true] {
                    let mut scratch = EvalScratch::new();
                    let got =
                        bounded_simulation_indexed(g, q, EvalOptions, &mut scratch, index(on, &ia));
                    let req = EvalRequest {
                        scratch: Some(&mut scratch),
                        index: index(on, &ib),
                        ..base(Semantics::Bounded)
                    };
                    assert_eq!(Ok(got), eval(g, q, req), "bounded_simulation_indexed");
                }
                let mut scratch = EvalScratch::new();
                let sets = candidate_sets(g, q);
                let (sets, stats) = bounded_fixpoint_raw(g, q, sets, true, &mut scratch, None)
                    .expect("no cancel token supplied");
                let got = (MatchRelation::from_sets(sets, n), stats);
                let req = base(Semantics::Bounded);
                assert_eq!(Ok(got), eval(g, q, req), "bounded_fixpoint_raw");
                for threads in [1, 2] {
                    let got = parallel_bounded_simulation_indexed(g, q, threads, Some(&ia));
                    let req = EvalRequest {
                        index: Some(&ib),
                        ..base(Semantics::Bounded)
                    };
                    assert_eq!(got, eval(g, q, req), "parallel_bounded_simulation_indexed");
                }
            }
        }
        assert_eq!(disarmed.checks(), 0, "a disarmed token counts nothing");
    }
}
