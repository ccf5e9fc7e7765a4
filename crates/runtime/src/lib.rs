//! Durability for the engine: an event-sourced write-ahead log around an
//! [`ExpFinder`].
//!
//! Paper §II stores graphs "as files"; durability is a property of where a
//! graph lives, not a second engine. [`DurableExpFinder`] therefore *is*
//! an [`ExpFinder`] with a bracket around its writes. It owns one
//! (privately) and [`Deref`]s to its [`Catalog`], so the whole read side —
//! `handle`, `query`, `query_batch`, `graph_infos`, `estimate_cost`,
//! `read_path`, the update hook — is the in-memory engine's, the same
//! methods on the same type, not a copy that agrees by test. What this
//! crate declares is only the writes, and every one of them is **logged
//! before it happens**, on the caller's thread. Each durable graph's
//! [`MaintainedGraph`] carries its WAL ([`wal`]) as its
//! [`WriteLog`](expfinder_engine::WriteLog), so a durable write *is* the
//! engine's own write — `ExpFinder::apply_updates`, or `ExpFinder::write`
//! with the same method the in-memory facade passes: resolve the name in
//! the engine's catalog, take the graph's one write mutex, append the
//! record (fsync per policy), then maintain, publish and fire the update
//! hook exactly as in memory. One mutex per graph means a graph's log
//! order is its commit order. Cold start replays `<name>.wal` onto the
//! last `<name>.efg` snapshot; compaction rewrites the snapshot and
//! truncates the log.
//!
//! Because the wrapped engine is never handed out, the type guarantees a
//! durable graph has no write that skips the log; because the engine's
//! catalog is the only one, a graph is listed exactly when the engine
//! holds it — `add_graph` makes it durable first and inserts it last. One
//! runtime mutex serialises `add_graph` and `remove_graph`, and nothing
//! else takes it, so an add's file I/O stalls no write to another graph.
//!
//! The WAL is *event-sourced serving state*, not just graph history:
//! registered queries are logged as `register`/`unregister` records and
//! replayed in sequence order on cold start, so standing queries (and
//! the push subscriptions built on them) survive a restart. Compaction
//! re-seeds the truncated log with one register record per live query.
//!
//! Maintained compression works here too: [`DurableExpFinder::compress`]
//! builds the quotient through the engine, which then travels with every
//! published snapshot and is maintained through update batches.
//! Compression is *session* state, not WAL-logged: it is derived,
//! rebuildable on demand, and a restart comes back uncompressed.
//!
//! ```
//! use expfinder_engine::QuerySpec;
//! use expfinder_runtime::{DurableExpFinder, RuntimeConfig, FsyncPolicy};
//! use expfinder_graph::fixtures::collaboration_fig1;
//! use expfinder_pattern::fixtures::fig1_pattern;
//!
//! let dir = std::env::temp_dir().join(format!("ef-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = RuntimeConfig { fsync: FsyncPolicy::Never, ..RuntimeConfig::default() };
//! let rt = DurableExpFinder::open(&dir, config.clone()).unwrap();
//! rt.add_graph("fig1", collaboration_fig1().graph).unwrap();
//! rt.register_query("fig1", "team", fig1_pattern()).unwrap();
//! drop(rt);
//!
//! // reopen: the graph *and* its registered query are recovered, and are
//! // read through the same `Catalog` methods as an in-memory engine's
//! let rt = DurableExpFinder::open(&dir, config).unwrap();
//! let h = rt.handle("fig1").unwrap();
//! assert_eq!(rt.registered_queries(&h).unwrap(), vec!["team".to_owned()]);
//! let resp = rt.query(&h, &QuerySpec::pattern(fig1_pattern()).top_k(2)).unwrap();
//! assert_eq!(resp.experts.len(), 2);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod faults;
pub mod wal;

pub(crate) mod graph_log;

pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultTotals, IoOp};
pub use graph_log::CompactReport;
pub use wal::FsyncPolicy;

use crate::graph_log::{write_efg_atomic, GraphLog};
use crate::wal::Wal;
use expfinder_compress::{CompressStats, CompressionMethod};
pub use expfinder_core::CancelToken;
use expfinder_engine::{
    validate_graph_name, Catalog, EngineConfig, ExpFinder, ExpFinderError, MaintainedGraph,
    UpdateReport,
};
use expfinder_graph::{io as gio, Counters, DiGraph, EdgeUpdate};
use expfinder_pattern::Pattern;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// WAL metrics
// ---------------------------------------------------------------------

/// The `engine.wal` block of `GET /metrics`: WAL activity since the
/// runtime opened. `appends` counts frames (one per accepted update
/// batch or register/unregister record), `fsyncs` the `fsync` calls
/// those appends issued and `bytes` their frame bytes; `replayed_frames`
/// and `replayed_updates` count what cold start replayed, and
/// `truncated_tails` the logs whose torn tail replay cut off.
pub const WAL_KEYS: [&str; 6] = [
    "appends",
    "fsyncs",
    "bytes",
    "replayed_frames",
    "replayed_updates",
    "truncated_tails",
];

/// Count one appended frame of `frame_bytes` that issued `fsyncs`.
pub(crate) fn count_append(wal: &Counters<6>, frame_bytes: u64, fsyncs: u64) {
    // `appends`, `fsyncs`, `bytes`
    for (i, n) in [1, fsyncs, frame_bytes].into_iter().enumerate() {
        wal.add(i, n);
    }
}

// ---------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------

/// Knobs of one [`DurableExpFinder`]: what durability adds, plus the
/// configuration of the engine it wraps.
#[derive(Clone, Debug, Default)]
pub struct RuntimeConfig {
    /// Ignored. Writes run on the caller's thread, so there is no worker
    /// pool to size; the field is kept only so existing
    /// `RuntimeConfig { shards, .. }` literals compile.
    pub shards: usize,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// The wrapped engine's result-cache size and thread budget.
    pub engine: EngineConfig,
}

// ---------------------------------------------------------------------
// the facade
// ---------------------------------------------------------------------

/// The durable ExpFinder: the WAL bracket around an [`ExpFinder`]. It
/// [`Deref`]s to the engine's [`Catalog`], so every read — `handle`,
/// `query`, `query_batch`, `graph_infos`, `read_path`, … — *is* the
/// in-memory one, and it declares only writes: the engine's own, on
/// graphs whose log each of them appends to first. The wrapped engine is
/// never handed out. See the crate docs.
pub struct DurableExpFinder {
    engine: ExpFinder,
    /// Catalog directory holding `<name>.efg` / `<name>.wal`.
    dir: PathBuf,
    /// When every graph's WAL appends reach stable storage.
    fsync: FsyncPolicy,
    /// Serialises `add_graph` and `remove_graph`, across their file I/O;
    /// no write to an existing graph takes it.
    catalog: Mutex<()>,
    /// Shared with every graph's log.
    wal_counters: Arc<Counters<6>>,
    /// The fault-injection gate every durability-critical I/O site of
    /// this runtime routes through (disarmed in production — see
    /// [`faults`]); each WAL carries its own clone.
    faults: Arc<FaultInjector>,
}

impl Deref for DurableExpFinder {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.engine
    }
}

// one runtime, many threads — same contract as the engine
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DurableExpFinder>();
};

impl DurableExpFinder {
    /// Open (creating if needed) the catalog at `dir` and recover every
    /// graph: load `<name>.efg`, replay `<name>.wal` onto it (torn
    /// tails truncated), and take over its log. A `.wal` with no
    /// matching `.efg` is ignored — `add_graph` writes the snapshot
    /// before the log ever accepts a frame, so an orphan log belongs to
    /// a removed graph.
    pub fn open(
        dir: impl AsRef<Path>,
        config: RuntimeConfig,
    ) -> Result<DurableExpFinder, ExpFinderError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let rt = DurableExpFinder {
            engine: ExpFinder::new(config.engine),
            dir,
            fsync: config.fsync,
            catalog: Mutex::new(()),
            wal_counters: Arc::new(Counters::new(&WAL_KEYS)),
            faults: FaultInjector::disarmed(),
        };

        let mut names: Vec<String> = Vec::new();
        for entry in rt.dir().read_dir()? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "efg") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_owned());
                }
            }
        }
        names.sort();
        for name in names {
            rt.recover_graph(&name)?;
        }
        Ok(rt)
    }

    /// Cold-start one graph: load the snapshot, replay the WAL's records
    /// — update batches *and* register/unregister records — in sequence
    /// order onto a [`MaintainedGraph`] nobody can read yet and that has
    /// no log, so replay appends nothing; then attach the log and add the
    /// graph to the engine (one publish: the first snapshot readers see
    /// already carries the replayed graph and its registered queries).
    fn recover_graph(&self, name: &str) -> Result<(), ExpFinderError> {
        let graph = gio::load_text(self.efg_path(name))?;
        let (records, summary) = Wal::replay(self.wal_path(name))
            .map_err(|e| ExpFinderError::Storage(format!("wal replay for {name:?}: {e}")))?;
        // `replayed_frames`, `replayed_updates`, `truncated_tails`
        let replayed = [
            summary.frames,
            summary.updates,
            summary.truncated_tail as usize,
        ];
        for (i, n) in (3..).zip(replayed) {
            self.wal_counters.add(i, n as u64);
        }
        let log = GraphLog::open(self, name, records.last().map_or(0, |r| r.seq))?;
        let mut core = MaintainedGraph::new(graph);
        for rec in &records {
            graph_log::replay_op(&mut core, &rec.op)?;
        }
        core.attach_log(Box::new(log));
        self.engine.add_maintained(name, core)?;
        Ok(())
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn efg_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.efg"))
    }

    fn wal_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.wal"))
    }

    // --------------------------- catalog ---------------------------

    /// Add a graph; returns its initial version. Duplicate check →
    /// `.efg` snapshot (atomic) → WAL create → catalog insert, under the
    /// runtime's add/remove mutex: two racing adds of one name have
    /// exactly one winner, and the graph is listed and queryable only once
    /// it is durable; an I/O failure leaves neither a catalog entry nor a
    /// file `open` would adopt. Only another add or a remove waits for the
    /// `.efg` write: reads and writes to existing graphs never take that
    /// mutex.
    pub fn add_graph(&self, name: &str, graph: DiGraph) -> Result<u64, ExpFinderError> {
        // names become file stems: refuse path-like ones before any IO
        validate_graph_name(name)?;
        graph_log::add(self, name, graph)
    }

    /// Remove a graph and delete its files: the snapshot's unlink is made
    /// durable first, then the graph is unlisted and its log deleted, so a
    /// crash at any point leaves the graph whole or gone (an orphan
    /// `.wal` is ignored by `open`), and a failed remove leaves it listed,
    /// on disk and writable. Outstanding handles to it become stale.
    pub fn remove_graph(&self, name: &str) -> Result<(), ExpFinderError> {
        graph_log::remove(self, name)
    }

    // --------------------------- updates ---------------------------

    /// Apply edge updates: the engine's own [`ExpFinder::apply_updates`]
    /// — WAL append (fsynced per policy), apply, maintain registered
    /// queries, publish, update hook. Returns its ΔM report.
    pub fn apply_updates(
        &self,
        name: &str,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ExpFinderError> {
        self.engine.apply_updates(&self.handle(name)?, updates)
    }

    // ---------------------- registered queries ---------------------

    /// Register a query for incremental maintenance. The registration
    /// is durable: a `register` record (carrying the pattern's DSL
    /// source) is WAL-appended before the ack, and cold start replays it
    /// — the query, and any push subscription that names it, survives a
    /// restart.
    pub fn register_query(
        &self,
        name: &str,
        query_name: &str,
        pattern: Pattern,
    ) -> Result<(), ExpFinderError> {
        self.engine
            .register_query(&self.handle(name)?, query_name, pattern)
    }

    /// Drop a registered query. The removal is WAL-logged before it
    /// takes effect, so it survives a restart like the registration did.
    pub fn unregister_query(&self, name: &str, query_name: &str) -> Result<(), ExpFinderError> {
        self.engine
            .unregister_query(&self.handle(name)?, query_name)
    }

    // ------------------------- compression -------------------------

    /// Build (or rebuild) a maintained reachability-preserving
    /// compression of a graph and publish the quotient with the next
    /// snapshot. The quotient is session state — it is *not*
    /// WAL-logged, so a restart comes back uncompressed and `compress`
    /// must be called again.
    pub fn compress(
        &self,
        name: &str,
        method: CompressionMethod,
    ) -> Result<CompressStats, ExpFinderError> {
        self.engine.compress(&self.handle(name)?, method)
    }

    /// Drop a graph's maintained compression; subsequent snapshots
    /// publish without a quotient and the planner stops considering
    /// the compressed route.
    pub fn drop_compression(&self, name: &str) -> Result<(), ExpFinderError> {
        self.engine.drop_compression(&self.handle(name)?)
    }

    // ---------------------- snapshot / compact ---------------------

    /// Rewrite `<name>.efg` from the current graph (WAL untouched),
    /// inside the engine's write on the graph, so no write is in flight.
    pub fn snapshot(&self, name: &str) -> Result<PathBuf, ExpFinderError> {
        let path = self.efg_path(name);
        self.engine.write(&self.handle(name)?, |core| {
            write_efg_atomic(core.graph(), &path, &self.faults)?;
            Ok(path)
        })
    }

    /// Rewrite `<name>.efg`, then swap the WAL for one holding only the
    /// live queries' register records — the log's frames are folded into
    /// the snapshot. Both run inside one engine write on the graph, so no
    /// acked frame can land in the old log after the snapshot was taken
    /// and be dropped with it. A crash between the snapshot's rename and
    /// the log swap replays the full WAL onto the new snapshot, which
    /// converges to the same graph.
    pub fn compact(&self, name: &str) -> Result<CompactReport, ExpFinderError> {
        let snapshot = self.efg_path(name);
        self.engine.write(&self.handle(name)?, |core| {
            write_efg_atomic(core.graph(), &snapshot, &self.faults)?;
            let wal_bytes_dropped = core.restart_log()?;
            Ok(CompactReport {
                snapshot,
                wal_bytes_dropped,
            })
        })
    }

    // --------------------------- metrics ---------------------------

    /// Cumulative WAL activity: the [`WAL_KEYS`] counters.
    pub fn wal_totals(&self) -> &Counters<6> {
        &self.wal_counters
    }

    /// Fault-injection activity (`engine.faults` in `/metrics`): see
    /// [`FaultTotals`] for which counts are cumulative; all zeros
    /// unless a test armed a plan.
    pub fn fault_totals(&self) -> FaultTotals {
        self.faults.totals()
    }

    /// The fault-injection gate of this runtime, for test harnesses to
    /// arm ([`FaultInjector::arm`]). Production code never touches it —
    /// disarmed hooks cost one relaxed atomic load per I/O boundary.
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_engine::{PlanRoute, QuerySpec, Route};
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::GraphView;
    use expfinder_pattern::fixtures::{fig1_pattern, fig1_pattern_simulation};
    use std::sync::PoisonError;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("expfinder_rt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sequential_config() -> RuntimeConfig {
        RuntimeConfig {
            fsync: FsyncPolicy::Never,
            engine: EngineConfig::sequential(),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn updates_survive_reopen() {
        let dir = tmpdir("reopen");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            let report = rt
                .apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
                .unwrap();
            assert_eq!(report.applied, 1);
        } // clean-ish shutdown: no snapshot write, recovery must replay

        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(rt.graph_names(), vec!["fig1".to_owned()]);
        assert_eq!(rt.wal_totals().get("replayed_frames"), 1);
        assert_eq!(rt.wal_totals().get("replayed_updates"), 1);
        let mut oracle = f.graph.clone();
        oracle.apply(EdgeUpdate::Insert(x, y));
        let edges = rt
            .read_graph(&rt.handle("fig1").unwrap(), |g| g.edge_count())
            .unwrap();
        assert_eq!(edges, oracle.edge_count());
        let got = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(fig1_pattern()),
            )
            .unwrap();
        let engine = expfinder_engine::ExpFinder::default();
        let h = engine.add_graph("fig1", oracle).unwrap();
        let want = engine
            .query(&h, &QuerySpec::pattern(fig1_pattern()))
            .unwrap();
        assert_eq!(*got.matches, *want.matches);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_folds_wal_into_snapshot() {
        let dir = tmpdir("compact");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
                .unwrap();
            let report = rt.compact("fig1").unwrap();
            assert!(report.wal_bytes_dropped > 0);
            // post-compaction updates land in the truncated log
            rt.apply_updates("fig1", &[EdgeUpdate::Delete(x, y)])
                .unwrap();
        }
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.wal_totals().get("replayed_frames"),
            1,
            "only the post-compaction frame"
        );
        let edges = rt
            .read_graph(&rt.handle("fig1").unwrap(), |g| g.edge_count())
            .unwrap();
        assert_eq!(edges, f.graph.edge_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `<name>.efg` is the graph text format, on add and on compaction.
    #[test]
    fn snapshots_are_written_in_the_text_format() {
        let dir = tmpdir("efg_text");
        let f = collaboration_fig1();
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        let header = |what| {
            let body = std::fs::read_to_string(dir.join("fig1.efg")).unwrap();
            assert!(
                body.starts_with("# expfinder-graph v1\n"),
                "{what}: {body:.40}"
            );
        };
        header("add");
        rt.compact("fig1").unwrap();
        header("compact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registered_query_is_served_and_maintained() {
        let dir = tmpdir("registered");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        let q = fig1_pattern_simulation();
        rt.register_query("fig1", "team", q.clone()).unwrap();
        assert_eq!(
            rt.registered_queries(&rt.handle("fig1").unwrap()).unwrap(),
            vec!["team".to_owned()]
        );
        assert!(matches!(
            rt.register_query("fig1", "team", q.clone()),
            Err(ExpFinderError::DuplicateQuery(_))
        ));

        let r = rt
            .query(&rt.handle("fig1").unwrap(), &QuerySpec::pattern(q.clone()))
            .unwrap();
        assert_eq!(r.plan.chosen, PlanRoute::Registered);

        let before = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap()
            .total_pairs();
        let report = rt
            .apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        assert_eq!(report.registered.len(), 1);
        assert_eq!(report.registered[0].before_pairs, before);
        let after = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap()
            .total_pairs();
        assert_eq!(report.registered[0].after_pairs, after);

        // maintained result equals a fresh evaluation
        let fresh = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(q.clone()).prefer(Route::Direct),
            )
            .unwrap();
        let maintained = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap();
        assert_eq!(fresh.matches, maintained);

        rt.unregister_query("fig1", "team").unwrap();
        assert!(rt
            .registered_queries(&rt.handle("fig1").unwrap())
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registrations_survive_reopen() {
        let dir = tmpdir("reg_reopen");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            rt.register_query("fig1", "team", fig1_pattern()).unwrap();
            rt.register_query("fig1", "sim", fig1_pattern_simulation())
                .unwrap();
            rt.unregister_query("fig1", "sim").unwrap();
            rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
                .unwrap();
        } // no snapshot write: recovery must replay the query set

        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.registered_queries(&rt.handle("fig1").unwrap()).unwrap(),
            vec!["team".to_owned()],
            "register and unregister records both replayed"
        );
        // the recovered maintainer saw the post-registration update
        let maintained = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap();
        let fresh = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(fig1_pattern()).prefer(Route::Direct),
            )
            .unwrap();
        assert_eq!(fresh.matches, maintained);
        // a duplicate registration is still rejected after recovery
        assert!(matches!(
            rt.register_query("fig1", "team", fig1_pattern()),
            Err(ExpFinderError::DuplicateQuery(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registrations_survive_compaction() {
        let dir = tmpdir("reg_compact");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            rt.register_query("fig1", "team", fig1_pattern()).unwrap();
            rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
                .unwrap();
            // compaction truncates the log; the register record must be
            // re-seeded or the query would vanish on the next cold start
            rt.compact("fig1").unwrap();
        }
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.registered_queries(&rt.handle("fig1").unwrap()).unwrap(),
            vec!["team".to_owned()]
        );
        let maintained = rt
            .registered_result(&rt.handle("fig1").unwrap(), "team")
            .unwrap();
        let fresh = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(fig1_pattern()).prefer(Route::Direct),
            )
            .unwrap();
        assert_eq!(fresh.matches, maintained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_hook_fires_in_commit_order() {
        let dir = tmpdir("hook");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        rt.register_query("fig1", "team", fig1_pattern()).unwrap();
        type Frame = (String, u64, i64, std::thread::ThreadId);
        let seen: Arc<Mutex<Vec<Frame>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        rt.set_update_hook(Some(Arc::new(move |graph: &str, report: &UpdateReport| {
            let delta = report.registered.iter().map(|d| d.delta()).sum();
            let thread = std::thread::current().id();
            sink.lock().unwrap_or_else(PoisonError::into_inner).push((
                graph.to_owned(),
                report.graph_version,
                delta,
                thread,
            ));
        })));

        // the count-only entry point still produces frames carrying ΔM
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        rt.apply_updates("fig1", &[EdgeUpdate::Delete(x, y)])
            .unwrap();
        let frames = seen.lock().unwrap_or_else(PoisonError::into_inner).clone();
        assert_eq!(frames.len(), 2);
        assert!(frames[0].1 < frames[1].1, "commit order");
        assert_eq!(frames[0].2, 1);
        assert_eq!(frames[1].2, -1);
        // a durable write commits on the writer's own thread
        let me = std::thread::current().id();
        assert!(frames.iter().all(|f| f.3 == me), "hook ran off-thread");

        rt.set_update_hook(None);
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        assert_eq!(
            seen.lock().unwrap_or_else(PoisonError::into_inner).len(),
            2,
            "removed hook no longer fires"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_update_hook_leaves_the_graph_writable() {
        // the hook runs under the graph's one write mutex, so its panic
        // poisons it; a poisoned lock hands its data on
        let dir = tmpdir("hook_panic");
        let (x, y) = collaboration_fig1().e1;
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", collaboration_fig1().graph).unwrap();
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let first = Arc::clone(&fired);
        rt.set_update_hook(Some(Arc::new(move |_: &str, _: &UpdateReport| {
            if !first.swap(true, std::sync::atomic::Ordering::SeqCst) {
                panic!("update hook panics on its first call");
            }
        })));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
        }));
        assert!(panicked.is_err());

        let second = rt
            .apply_updates("fig1", &[EdgeUpdate::Insert(y, x)])
            .unwrap();
        assert_eq!(second.applied, 1);
        let h = rt.handle("fig1").unwrap();
        let both = rt.read_graph(&h, |g| g.has_edge(x, y) && g.has_edge(y, x));
        assert!(both.unwrap(), "both batches applied");
        let got = rt.query(&h, &QuerySpec::pattern(fig1_pattern())).unwrap();
        assert_eq!(got.graph_version, second.graph_version);
        let fresh = ExpFinder::default();
        let now = rt.read_graph(&h, DiGraph::clone).unwrap();
        let hf = fresh.add_graph("fig1", now).unwrap();
        let want = fresh
            .query(&hf, &QuerySpec::pattern(fig1_pattern()))
            .unwrap();
        assert_eq!(*got.matches, *want.matches);
        rt.register_query("fig1", "team", fig1_pattern()).unwrap();
        assert_eq!(rt.registered_result(&h, "team").unwrap(), want.matches);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_and_duplicate_graphs_error() {
        let dir = tmpdir("errors");
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert!(matches!(
            rt.handle("nope"),
            Err(ExpFinderError::UnknownGraph(_))
        ));
        assert!(matches!(
            rt.apply_updates("nope", &[]),
            Err(ExpFinderError::UnknownGraph(_))
        ));
        let f = collaboration_fig1();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let files = || ["fig1.efg", "fig1.wal"].map(|f| std::fs::read(dir.join(f)).unwrap());
        let before = files();
        assert!(matches!(
            rt.add_graph("fig1", f.graph.clone()),
            Err(ExpFinderError::DuplicateGraph(_))
        ));
        // the duplicate touched neither file, and the graph still answers
        assert_eq!(files(), before);
        let h = rt.handle("fig1").unwrap();
        assert!(rt.read_graph(&h, |g| g.has_edge(f.e1.0, f.e1.1)).unwrap());
        rt.apply_updates("fig1", &[EdgeUpdate::Delete(f.e1.0, f.e1.1)])
            .unwrap();
        assert!(!rt.read_graph(&h, |g| g.has_edge(f.e1.0, f.e1.1)).unwrap());
        assert!(matches!(
            rt.add_graph("../escape", f.graph.clone()),
            Err(ExpFinderError::InvalidGraphName(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_graph_deletes_files_and_frees_name() {
        let dir = tmpdir("remove");
        let f = collaboration_fig1();
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        rt.remove_graph("fig1").unwrap();
        assert!(!dir.join("fig1.efg").exists());
        assert!(!dir.join("fig1.wal").exists());
        assert!(rt.graph_names().is_empty());
        // the name is reusable, and the fresh graph has no replayed tail
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        let edges = rt
            .read_graph(&rt.handle("fig1").unwrap(), |g| g.edge_count())
            .unwrap();
        assert_eq!(edges, f.graph.edge_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_metrics_accumulate() {
        let dir = tmpdir("metrics");
        let f = collaboration_fig1();
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        let wal = rt.wal_totals();
        assert_eq!(wal.get("appends"), 1);
        assert!(wal.get("bytes") > 0);
        assert_eq!(wal.get("fsyncs"), 0, "FsyncPolicy::Never");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compression_serves_identical_matches_and_survives_updates() {
        let dir = tmpdir("compress");
        let f = collaboration_fig1();
        let (x, y) = f.e1;
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        rt.add_graph("fig1", f.graph.clone()).unwrap();
        assert_eq!(
            rt.compression_stats(&rt.handle("fig1").unwrap()).unwrap(),
            None
        );

        let stats = rt
            .compress("fig1", CompressionMethod::Bisimulation)
            .unwrap();
        assert!(stats.compressed_nodes <= stats.original_nodes);
        assert_eq!(
            rt.compression_stats(&rt.handle("fig1").unwrap()).unwrap(),
            Some(stats)
        );
        let infos = rt.graph_infos();
        assert!(infos.iter().any(|i| i.name == "fig1" && i.compressed));

        // a forced compressed route answers exactly like a direct one
        let via_quotient = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(fig1_pattern()).prefer(Route::Compressed),
            )
            .unwrap();
        assert_eq!(via_quotient.plan.chosen, PlanRoute::Compressed);
        let direct = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(fig1_pattern()).prefer(Route::Direct),
            )
            .unwrap();
        assert_eq!(*via_quotient.matches, *direct.matches);

        // the quotient is maintained through durable updates
        rt.apply_updates("fig1", &[EdgeUpdate::Insert(x, y)])
            .unwrap();
        let after_q = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(fig1_pattern()).prefer(Route::Compressed),
            )
            .unwrap();
        let after_d = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(fig1_pattern()).prefer(Route::Direct),
            )
            .unwrap();
        assert_eq!(*after_q.matches, *after_d.matches);

        rt.drop_compression("fig1").unwrap();
        assert_eq!(
            rt.compression_stats(&rt.handle("fig1").unwrap()).unwrap(),
            None
        );
        let dropped = rt
            .query(
                &rt.handle("fig1").unwrap(),
                &QuerySpec::pattern(fig1_pattern()).prefer(Route::Compressed),
            )
            .unwrap();
        assert_ne!(
            dropped.plan.chosen,
            PlanRoute::Compressed,
            "no quotient to route to"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compression_is_session_state_not_replayed() {
        let dir = tmpdir("compress_reopen");
        let f = collaboration_fig1();
        {
            let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
            rt.add_graph("fig1", f.graph.clone()).unwrap();
            rt.compress("fig1", CompressionMethod::Bisimulation)
                .unwrap();
            assert!(rt
                .compression_stats(&rt.handle("fig1").unwrap())
                .unwrap()
                .is_some());
        }
        let rt = DurableExpFinder::open(&dir, sequential_config()).unwrap();
        assert_eq!(
            rt.compression_stats(&rt.handle("fig1").unwrap()).unwrap(),
            None,
            "quotients are not WAL-logged; a restart comes back uncompressed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
