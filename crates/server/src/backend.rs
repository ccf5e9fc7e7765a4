//! The engine the server fronts: in-memory or durable.
//!
//! Every route handler talks to a [`Backend`] instead of a concrete
//! engine, so the same wire protocol serves two deployment shapes:
//!
//! * [`Backend::Local`] — the classic shareable [`ExpFinder`]: graphs
//!   live in memory and vanish with the process. This is what
//!   `Server::bind` builds and what the shell's `serve` command uses.
//! * [`Backend::Durable`] — a [`DurableExpFinder`]: the same engine with
//!   a WAL append in front of every write, so a restart replays the log
//!   (`serve --data-dir`).
//!
//! Both variants deref to the same [`Catalog`], so everything a request
//! reads or observes goes through one private `reads()` and is the same
//! code on both: resolve the name to a handle, call the catalog. Two arms
//! remain only where the deployments really differ — the three writes a
//! durable backend must log first (`add_graph`, `apply_updates_traced`,
//! `register_query`) and the two gauges only it has (`wal_totals`,
//! `fault_totals`, all-zero on a local backend so `/metrics` keeps one
//! shape).

use expfinder_core::MatchRelation;
use expfinder_engine::{
    Catalog, ExpFinder, ExpFinderError, GraphInfo, IndexTotals, QueryResponse, QuerySpec, ReadPath,
    Route, UpdateHook, UpdateReport,
};
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::Pattern;
use expfinder_runtime::{DurableExpFinder, FaultTotals, WalTotals};
use std::sync::Arc;
use std::time::Duration;

/// The serving backend — see the module docs. Cloning is cheap (both
/// variants are an `Arc`) and shares the underlying engine.
#[derive(Clone)]
pub enum Backend {
    /// In-memory engine (no durability; the seed deployment shape).
    Local(Arc<ExpFinder>),
    /// Durable runtime (WAL + snapshot per graph).
    Durable(Arc<DurableExpFinder>),
}

impl Backend {
    /// The one read surface of both deployments.
    fn reads(&self) -> &Catalog {
        match self {
            Backend::Local(e) => e,
            Backend::Durable(rt) => rt,
        }
    }

    /// Names of every managed graph, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        self.reads().graph_names()
    }

    /// Point-in-time summaries of every graph, sorted by name.
    pub fn graph_infos(&self) -> Vec<GraphInfo> {
        self.reads().graph_infos()
    }

    /// Add a graph; returns its initial published version. On the
    /// durable backend the graph is on disk before it is listed.
    pub fn add_graph(&self, name: &str, graph: DiGraph) -> Result<u64, ExpFinderError> {
        match self {
            Backend::Local(e) => {
                let handle = e.add_graph(name, graph)?;
                e.read_graph(&handle, |g| g.version())
            }
            Backend::Durable(rt) => rt.add_graph(name, graph),
        }
    }

    /// Run `f` against the named graph's latest published snapshot.
    pub fn read_graph<R>(
        &self,
        name: &str,
        f: impl FnOnce(&DiGraph) -> R,
    ) -> Result<R, ExpFinderError> {
        let c = self.reads();
        c.read_graph(&c.handle(name)?, f)
    }

    /// Evaluate one pattern under an optional end-to-end deadline:
    /// evaluation aborts cooperatively once the budget is spent and
    /// surfaces as [`ExpFinderError::DeadlineExceeded`] carrying the
    /// partial [`EvalStats`](expfinder_core::EvalStats).
    pub fn query_deadline(
        &self,
        name: &str,
        pattern: &Pattern,
        top_k: Option<usize>,
        prefer: Route,
        deadline: Option<Duration>,
    ) -> Result<QueryResponse, ExpFinderError> {
        let c = self.reads();
        c.query_deadline(&c.handle(name)?, pattern, top_k, prefer, deadline)
    }

    /// Evaluate a batch of specs against one graph under an optional
    /// batch-wide deadline shared by every slot (each spec may
    /// additionally carry its own, clipped to whatever remains of the
    /// batch budget). The graph is resolved up front so an unknown name
    /// fails the whole request (404) rather than every slot.
    pub fn query_batch_deadline(
        &self,
        name: &str,
        specs: Vec<QuerySpec>,
        deadline: Option<Duration>,
    ) -> Result<Vec<Result<QueryResponse, ExpFinderError>>, ExpFinderError> {
        let c = self.reads();
        Ok(c.query_batch_deadline(&c.handle(name)?, specs, deadline))
    }

    /// The planner's cost estimate (abstract work units) for evaluating
    /// `pattern` on the named graph right now — the admission-control
    /// input for the 429 path. Purely a read; nothing is evaluated.
    pub fn estimate_cost(&self, name: &str, pattern: &Pattern) -> Result<f64, ExpFinderError> {
        let c = self.reads();
        c.estimate_cost(&c.handle(name)?, pattern)
    }

    /// Apply edge updates with the full ΔM report. On the durable
    /// backend the batch is WAL-appended (and fsynced, by policy)
    /// before it is applied — when this returns `Ok` the updates
    /// survive a crash.
    pub fn apply_updates_traced(
        &self,
        name: &str,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ExpFinderError> {
        match self {
            Backend::Local(e) => e.apply_updates_traced(&e.handle(name)?, updates),
            Backend::Durable(rt) => rt.apply_updates_traced(name, updates),
        }
    }

    /// Register a query for incremental maintenance (WAL-logged on the
    /// durable backend, so it survives a restart).
    pub fn register_query(
        &self,
        name: &str,
        query_name: &str,
        pattern: Pattern,
    ) -> Result<(), ExpFinderError> {
        match self {
            Backend::Local(e) => e.register_query(&e.handle(name)?, query_name, pattern),
            Backend::Durable(rt) => rt.register_query(name, query_name, pattern),
        }
    }

    /// Names of the registered queries on one graph, sorted.
    pub fn registered_queries(&self, name: &str) -> Result<Vec<String>, ExpFinderError> {
        let c = self.reads();
        c.registered_queries(&c.handle(name)?)
    }

    /// Install (or clear, with `None`) the update hook the engine fires
    /// after every committed update batch — the feed for `/subscribe`
    /// push streams. One hook per backend: installing replaces any
    /// previous one, so the last server bound to a shared engine owns
    /// the fan-out.
    pub fn install_update_hook(&self, hook: Option<UpdateHook>) {
        self.reads().set_update_hook(hook)
    }

    /// The maintained result of a registered query, shared with the
    /// snapshot that publishes it.
    pub fn registered_result(
        &self,
        name: &str,
        query_name: &str,
    ) -> Result<Arc<MatchRelation>, ExpFinderError> {
        let c = self.reads();
        c.registered_result(&c.handle(name)?, query_name)
    }

    // ------------------------- metrics feeds ------------------------

    /// The one read path — the source of the cache, evaluation, planner
    /// and cancellation counters.
    pub fn read_path(&self) -> &ReadPath {
        self.reads().read_path()
    }

    pub fn index_totals(&self) -> IndexTotals {
        self.reads().index_totals()
    }

    /// Cumulative WAL counters — all zero on a [`Backend::Local`], so
    /// the `/metrics` document has the same shape in both deployments.
    pub fn wal_totals(&self) -> WalTotals {
        match self {
            Backend::Local(_) => WalTotals::default(),
            Backend::Durable(rt) => rt.wal_totals(),
        }
    }

    /// Fault-injection counters (boundaries crossed while armed, faults
    /// fired) — all zero on a [`Backend::Local`] and on any production
    /// durable deployment, where the injector stays disarmed.
    pub fn fault_totals(&self) -> FaultTotals {
        match self {
            Backend::Local(_) => FaultTotals::default(),
            Backend::Durable(rt) => rt.fault_totals(),
        }
    }
}
