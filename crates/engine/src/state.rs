//! One graph's state: the [`MaintainedGraph`] its owner writes to, and the
//! immutable [`Snapshot`]s that owner publishes for readers.
//!
//! Paper §II hangs an incremental module and a compression module off
//! one graph store. [`MaintainedGraph`] is that store's write side — the
//! graph, its maintained quotient and its registered-query maintainers —
//! and holds the only copies of apply / register / unregister / compress /
//! drop-compression / publish. It is reached through one function,
//! [`ExpFinder::write`], under a per-graph mutex: the in-memory facade
//! calls that on the caller's thread, the durable runtime on the graph's
//! shard thread with a WAL append in front. Readers never see it:
//! they clone the latest `Arc<Snapshot>` out of the graph's
//! [`PublishedGraph`] slot and hold no lock while they evaluate.
//!
//! [`ExpFinder::write`]: crate::ExpFinder::write

use crate::planner::CostProfile;
use crate::{ExpFinderError, GraphInfo, RegisteredDelta, UpdateReport};
use expfinder_compress::maintain::MaintainedCompression;
use expfinder_compress::{CompressStats, CompressedGraph, CompressionMethod};
use expfinder_core::MatchRelation;
use expfinder_graph::{CsrGraph, DiGraph, EdgeUpdate, GraphView, ReachIndex};
use expfinder_incremental::{IncrementalBoundedSim, IncrementalSim, Maintainer};
use expfinder_pattern::Pattern;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What reads build lazily for one graph version and then share: the
/// CSR snapshot (built on the first read the planner sends there) and
/// the reach indexes over it and over the quotient (entries fill on first
/// use). One value serves exactly one version — a publish at a new
/// version starts a fresh one, and a publish that rebuilt or dropped the
/// quotient swaps in a fresh quotient index, which can happen without a
/// version bump — so nothing in it is ever stale.
pub struct Derived {
    version: u64,
    csr: OnceLock<Arc<CsrGraph>>,
    pub(crate) reach: Arc<ReachIndex>,
    pub(crate) quotient_reach: Arc<ReachIndex>,
}

impl Derived {
    pub fn new(version: u64) -> Derived {
        Derived {
            version,
            csr: OnceLock::new(),
            reach: Arc::new(ReachIndex::new(version)),
            quotient_reach: Arc::new(ReachIndex::new(version)),
        }
    }

    /// The graph version this state was derived from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The same CSR snapshot and direct index over a rebuilt quotient.
    pub fn with_fresh_quotient_reach(&self) -> Derived {
        Derived {
            version: self.version,
            csr: self.csr.clone(),
            reach: Arc::clone(&self.reach),
            quotient_reach: Arc::new(ReachIndex::new(self.version)),
        }
    }

    /// The CSR snapshot, built from `graph` on first use (concurrent
    /// first readers race, one build wins). Builds are timed into
    /// `profile` — observability only, the planner's estimates stay
    /// deterministic.
    pub(crate) fn csr(&self, graph: &DiGraph, profile: &CostProfile) -> &CsrGraph {
        self.csr.get_or_init(|| {
            let started = Instant::now();
            let csr = Arc::new(CsrGraph::snapshot(graph));
            profile.note_csr_build(started.elapsed().as_nanos() as u64);
            csr
        })
    }

    /// The CSR snapshot only if some earlier query already paid for it —
    /// its build is sunk cost, which the planner treats as free.
    pub(crate) fn csr_if_built(&self) -> Option<&CsrGraph> {
        self.csr.get().map(|csr| &**csr)
    }
}

/// A registered query as a snapshot carries it: name, route fingerprint
/// and the maintained relation at the snapshot's version.
pub struct RegisteredView {
    name: Arc<str>,
    fingerprint: Arc<str>,
    matches: Arc<MatchRelation>,
}

/// One immutable published state of a graph — the only thing the read
/// path reads. Everything a query needs travels together: the graph's
/// stable identity (cache-key id, [`CostProfile`]), the graph at one
/// version, that version's [`Derived`] state, the quotient and the
/// registered-query relations — a reader that grabbed the `Arc` keeps
/// evaluating on exactly this version while the owner publishes ten
/// newer ones.
pub struct Snapshot {
    /// Catalog id — the graph component of a cache key.
    pub(crate) id: u64,
    /// Shared by every snapshot of the graph, so the workload statistics
    /// the planner runs on accumulate across versions.
    pub(crate) profile: Arc<CostProfile>,
    /// Shares every adjacency chunk with the owner's live graph until the
    /// owner next writes to it (see [`expfinder_graph::digraph`]).
    graph: DiGraph,
    pub(crate) derived: Arc<Derived>,
    compressed: Option<Arc<CompressedGraph>>,
    /// Sorted by query name.
    registered: Vec<RegisteredView>,
}

impl Snapshot {
    /// The version every other accessor answers for.
    pub fn version(&self) -> u64 {
        self.graph.version()
    }

    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The maintained compressed quotient, if one was built.
    pub fn quotient(&self) -> Option<&CompressedGraph> {
        self.compressed.as_deref()
    }

    /// The maintained relation of the registered query whose pattern has
    /// this fingerprint, if there is one.
    pub fn registered(&self, fingerprint: &str) -> Option<Arc<MatchRelation>> {
        self.registered
            .iter()
            .find(|rv| &*rv.fingerprint == fingerprint)
            .map(|rv| Arc::clone(&rv.matches))
    }

    /// Names of the registered queries, sorted.
    pub fn registered_queries(&self) -> Vec<String> {
        self.registered
            .iter()
            .map(|rv| rv.name.to_string())
            .collect()
    }

    /// The maintained relation of the registered query of this name.
    pub fn registered_result(
        &self,
        query_name: &str,
    ) -> Result<&Arc<MatchRelation>, ExpFinderError> {
        self.registered
            .iter()
            .find(|rv| &*rv.name == query_name)
            .map(|rv| &rv.matches)
            .ok_or_else(|| ExpFinderError::UnknownQuery(query_name.to_owned()))
    }

    /// The catalog summary of this state under `name`.
    pub fn info(&self, name: &str) -> GraphInfo {
        GraphInfo {
            name: name.to_owned(),
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            version: self.version(),
            registered_queries: self.registered.len(),
            compressed: self.compressed.is_some(),
        }
    }
}

/// The slot a graph's owner publishes into and its readers load from.
/// The lock is held for one `Arc` clone (a reader) or one `Arc` store
/// (the owner) — never across evaluation, maintenance or IO.
pub struct PublishedGraph {
    latest: RwLock<Arc<Snapshot>>,
}

impl PublishedGraph {
    /// A slot holding `graph` as its first snapshot: no registered
    /// queries, no quotient, a fresh [`CostProfile`].
    pub fn new(id: u64, graph: &DiGraph) -> PublishedGraph {
        let first = Snapshot {
            id,
            profile: Arc::new(CostProfile::default()),
            graph: graph.clone(),
            derived: Arc::new(Derived::new(graph.version())),
            compressed: None,
            registered: Vec::new(),
        };
        PublishedGraph {
            latest: RwLock::new(Arc::new(first)),
        }
    }

    /// The latest published snapshot.
    pub fn latest(&self) -> Arc<Snapshot> {
        Arc::clone(&self.latest.read())
    }
}

/// A registered query on the write side: its pattern, the fingerprint the
/// read path routes by and the incremental maintainer of its result.
struct RegisteredQuery {
    pattern: Pattern,
    fingerprint: Arc<str>,
    maintainer: Box<dyn Maintainer + Send + Sync>,
    /// The collapsed relation as the last snapshot published it; `None`
    /// once an update changed the maintained sets. While it is `Some`,
    /// successive snapshots share the one `Arc` instead of re-collapsing
    /// (and re-copying) a relation that did not move.
    published: Option<Arc<MatchRelation>>,
}

/// What changed since the last publish that the graph version does not
/// show. Ordered: a later variant subsumes an earlier one.
#[derive(Copy, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
enum Unpublished {
    #[default]
    Nothing,
    /// The registered-query set.
    Views,
    /// The quotient was built, rebuilt or dropped.
    Quotient,
}

/// Recompress when maintenance drift exceeds this factor.
const RECOMPRESS_DRIFT: f64 = 2.0;

/// The write side of one graph: the authoritative mutable graph, its
/// maintained quotient and its registered queries. Whoever owns one has
/// exclusive access by construction (`&mut self`); what it changes
/// becomes visible to readers at the next [`MaintainedGraph::publish`].
pub struct MaintainedGraph {
    graph: DiGraph,
    compressed: Option<MaintainedCompression>,
    registered: BTreeMap<Arc<str>, RegisteredQuery>,
    unpublished: Unpublished,
}

impl MaintainedGraph {
    pub fn new(graph: DiGraph) -> MaintainedGraph {
        MaintainedGraph {
            graph,
            compressed: None,
            registered: BTreeMap::new(),
            unpublished: Unpublished::Nothing,
        }
    }

    /// The authoritative graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Every registered query's name and pattern, sorted by name (what
    /// the durable runtime re-seeds a compacted log with).
    pub fn registered_patterns(&self) -> impl Iterator<Item = (&str, &Pattern)> {
        self.registered
            .iter()
            .map(|(name, rq)| (&**name, &rq.pattern))
    }

    fn note(&mut self, change: Unpublished) {
        self.unpublished = self.unpublished.max(change);
    }

    /// Apply edge updates, maintaining the quotient and every registered
    /// query along the way (duplicates and no-ops are skipped). `trace`
    /// additionally sizes every registered query's maintained result
    /// before and after (counted in place) — the ΔM report.
    pub fn apply(
        &mut self,
        updates: &[EdgeUpdate],
        trace: bool,
    ) -> Result<UpdateReport, ExpFinderError> {
        let mut registered: Vec<RegisteredDelta> = Vec::new();
        if trace {
            registered.extend(self.registered.iter().map(|(name, rq)| RegisteredDelta {
                query: name.to_string(),
                before_pairs: rq.maintainer.total_pairs(),
                after_pairs: 0,
            }));
        }
        let mut applied = 0usize;
        for &up in updates {
            if !self.graph.apply(up) {
                continue;
            }
            applied += 1;
            if let Some(mc) = self.compressed.as_mut() {
                mc.on_update(&self.graph, up);
            }
            for rq in self.registered.values_mut() {
                // ΔM is exact on the maintained sets, so an empty one
                // means the published relation still stands
                if !rq.maintainer.on_update(&self.graph, up).is_empty() {
                    rq.published = None;
                }
            }
        }
        if let Some(mc) = self.compressed.as_mut() {
            mc.refresh(&self.graph);
            if mc.maybe_recompress(&self.graph, RECOMPRESS_DRIFT)? {
                self.note(Unpublished::Quotient);
            }
        }
        for (d, rq) in registered.iter_mut().zip(self.registered.values()) {
            d.after_pairs = rq.maintainer.total_pairs();
        }
        Ok(UpdateReport {
            applied,
            attempted: updates.len(),
            graph_version: self.graph.version(),
            registered,
        })
    }

    /// Register a query for incremental maintenance, seeding its
    /// maintainer from the current graph. `log` runs after every check
    /// has passed and before anything changes, so a durable owner can
    /// append its WAL record there: a registration it fails leaves no
    /// trace, one it logged cannot then be refused.
    pub fn register(
        &mut self,
        query_name: &str,
        pattern: Pattern,
        log: impl FnOnce(&Pattern) -> Result<(), ExpFinderError>,
    ) -> Result<(), ExpFinderError> {
        if self.registered.contains_key(query_name) {
            return Err(ExpFinderError::DuplicateQuery(query_name.to_owned()));
        }
        let maintainer: Box<dyn Maintainer + Send + Sync> = if pattern.is_simulation() {
            Box::new(IncrementalSim::new(&self.graph, &pattern)?)
        } else {
            Box::new(IncrementalBoundedSim::new(&self.graph, &pattern))
        };
        log(&pattern)?;
        let rq = RegisteredQuery {
            fingerprint: pattern.fingerprint().into(),
            pattern,
            maintainer,
            published: None,
        };
        self.registered.insert(query_name.into(), rq);
        self.note(Unpublished::Views);
        Ok(())
    }

    /// Drop a registered query; `log` as in [`MaintainedGraph::register`].
    pub fn unregister(
        &mut self,
        query_name: &str,
        log: impl FnOnce() -> Result<(), ExpFinderError>,
    ) -> Result<(), ExpFinderError> {
        if !self.registered.contains_key(query_name) {
            return Err(ExpFinderError::UnknownQuery(query_name.to_owned()));
        }
        log()?;
        self.registered.remove(query_name);
        self.note(Unpublished::Views);
        Ok(())
    }

    /// Build (or rebuild) the maintained compressed quotient.
    pub fn compress(&mut self, method: CompressionMethod) -> Result<CompressStats, ExpFinderError> {
        let mc = MaintainedCompression::new(&self.graph, method)?;
        let stats = mc.compressed().stats();
        self.compressed = Some(mc);
        self.note(Unpublished::Quotient);
        Ok(stats)
    }

    /// Drop the maintained quotient.
    pub fn drop_compression(&mut self) {
        self.compressed = None;
        self.note(Unpublished::Quotient);
    }

    /// Swap a fresh immutable snapshot into `slot` — the one publish rule
    /// of both facades. A new graph version gets a fresh [`Derived`]; an
    /// unchanged one keeps the previous snapshot's (registered set
    /// changed) or only swaps its quotient reach index (quotient built,
    /// rebuilt or dropped); and when nothing changed at all, nothing is
    /// published. Publishing costs `O(|ΔG|)`, not `O(|G|)`: the
    /// snapshot's graph is a clone that shares every adjacency chunk the
    /// batch did not touch, and a registered relation whose batch ΔM was
    /// empty is the previous snapshot's `Arc`. A reader holding an older
    /// snapshot keeps exactly its version — the owner's next write copies
    /// the chunks it touches instead of writing through.
    pub fn publish(&mut self, slot: &PublishedGraph) {
        let prev = slot.latest();
        let version = self.graph.version();
        let unpublished = std::mem::take(&mut self.unpublished);
        // the quotient is copied on publish: readers keep evaluating on
        // their snapshot's while the owner maintains its own
        let quotient = || {
            let mc = self.compressed.as_ref()?;
            Some(Arc::new(mc.compressed().clone()))
        };
        let (derived, compressed) = if prev.version() != version {
            prev.profile.note_update_batch();
            (Arc::new(Derived::new(version)), quotient())
        } else {
            match unpublished {
                Unpublished::Nothing => return,
                Unpublished::Views => (Arc::clone(&prev.derived), prev.compressed.clone()),
                Unpublished::Quotient => (
                    Arc::new(prev.derived.with_fresh_quotient_reach()),
                    quotient(),
                ),
            }
        };
        let registered = self
            .registered
            .iter_mut()
            .map(|(name, rq)| {
                let matches = rq
                    .published
                    .get_or_insert_with(|| Arc::new(rq.maintainer.current()));
                debug_assert_eq!(**matches, rq.maintainer.current(), "stale view of {name:?}");
                RegisteredView {
                    name: Arc::clone(name),
                    fingerprint: Arc::clone(&rq.fingerprint),
                    matches: Arc::clone(matches),
                }
            })
            .collect();
        let next = Snapshot {
            id: prev.id,
            profile: Arc::clone(&prev.profile),
            graph: self.graph.clone(),
            derived,
            compressed,
            registered,
        };
        *slot.latest.write() = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpFinder, Route};
    use expfinder_core::bounded_simulation;
    use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
    use expfinder_pattern::fixtures::fig1_pattern;
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Publishing is O(Δ) and still copy-on-write: a reader's snapshot
    /// keeps answering at its own version while the owner commits on,
    /// the owner's graph copies at most two adjacency chunks per applied
    /// update, a registered view no update moved is shared, not rebuilt,
    /// and a batch that applied nothing publishes nothing.
    #[test]
    fn held_snapshot_survives_commits_and_unmoved_views_are_shared() {
        let engine = ExpFinder::default();
        let base = collaboration(
            &mut StdRng::seed_from_u64(15),
            &CollabConfig {
                teams: 40,
                team_size: 8,
                ..CollabConfig::default()
            },
        );
        let updates = random_updates(&mut StdRng::seed_from_u64(16), &base, 160, 0.5);
        // no node carries this label, so no update can ever move the view
        let inert = PatternBuilder::new()
            .node("a", Predicate::label("no-such-label"))
            .node("b", Predicate::label("SD"))
            .edge("a", "b", Bound::hops(2))
            .build()
            .unwrap();
        let live = fig1_pattern();
        let view = |snap: &Snapshot, name: &str| Arc::clone(snap.registered_result(name).unwrap());

        let h = engine.add_graph("g", base.clone()).unwrap();
        engine.register_query(&h, "live", live.clone()).unwrap();
        engine.register_query(&h, "inert", inert).unwrap();
        let held = engine.latest(&h).unwrap();
        let held_want = bounded_simulation(&base, &live).unwrap();
        assert_eq!(*view(&held, "live"), held_want);

        let mut model = base.clone();
        let (mut applied, mut live_moved) = (0u64, false);
        let mut prev = Arc::clone(&held);
        for (i, batch) in updates.chunks(4).enumerate() {
            if i == 10 {
                engine.register_query(&h, "late", live.clone()).unwrap();
            }
            if i == 20 {
                engine.unregister_query(&h, "late").unwrap();
            }
            applied += engine.apply_updates(&h, batch).unwrap() as u64;
            for &up in batch {
                model.apply(up);
            }
            let now = engine.latest(&h).unwrap();
            assert_eq!(now.version(), model.version());
            assert!(Arc::ptr_eq(&view(&now, "inert"), &view(&prev, "inert")));
            let (a, b) = (view(&now, "live"), view(&prev, "live"));
            assert!(!Arc::ptr_eq(&a, &b) || *a == *b);
            live_moved |= !Arc::ptr_eq(&a, &b);
            prev = now;
        }
        assert!(live_moved, "the update stream never touched the live query");

        // a batch of no-ops publishes nothing at all
        let present = model.edges().next().unwrap();
        let noop = [EdgeUpdate::Insert(present.0, present.1)];
        assert_eq!(engine.apply_updates(&h, &noop).unwrap(), 0);
        let newest = engine.latest(&h).unwrap();
        assert!(Arc::ptr_eq(&newest, &prev));
        assert_eq!(newest.version(), model.version());

        // newest answers the new graph, the held snapshot its own
        let want = bounded_simulation(&model, &live).unwrap();
        assert_eq!(*view(&newest, "live"), want);
        assert_eq!(bounded_simulation(newest.graph(), &live).unwrap(), want);
        let got = engine.query_deadline(&h, &live, None, Route::Auto, None);
        assert_eq!(*got.unwrap().matches, want);
        assert_ne!(want, held_want, "the stream changed the answer");
        assert_eq!(held.version(), base.version());
        assert!(held.graph().edges().eq(base.edges()));
        assert_eq!(bounded_simulation(held.graph(), &live).unwrap(), held_want);
        assert_eq!(*view(&held, "live"), held_want);

        // O(Δ): every snapshot shared its untouched chunks with the owner
        assert!(applied > 0 && newest.graph().chunk_copies() <= 2 * applied);
    }
}
