//! One graph's state: the [`MaintainedGraph`] its owner writes to, and the
//! immutable [`Snapshot`]s that owner publishes for readers.
//!
//! Paper §II hangs an incremental module and a compression module off
//! one graph store. [`MaintainedGraph`] is that store's write side — the
//! graph, its maintained quotient and its registered-query maintainers,
//! each of which keeps its query's relation, `G_r` arcs and ranking, the
//! arcs repaired and the moved candidates re-ranked once per update
//! batch on one [`RerankScratch`] the graph's queries share — and holds
//! the only copies of apply / register / unregister / compress /
//! drop-compression / publish. A snapshot carries each registered
//! query's relation and ranking as `Arc`s, shared with the previous
//! snapshot while a batch moves neither, so a ranked read of a registered
//! query copies a prefix of the ranking and computes nothing. The write
//! side is reached through one function, [`ExpFinder::write`], under a
//! per-graph mutex, on the caller's thread. A durable graph carries its
//! [`WriteLog`] in the same place: every logged method appends its
//! [`LogRecord`] before it changes anything, under that one mutex, so the
//! log's order is the commit order. Readers never see the write side: they
//! clone the latest `Arc<Snapshot>` out of the graph's [`PublishedGraph`]
//! slot and hold no lock while they evaluate.
//!
//! [`ExpFinder::write`]: crate::ExpFinder::write

use crate::planner::CostProfile;
use crate::{ExpFinderError, GraphInfo, RegisteredDelta, UpdateReport};
use expfinder_compress::maintain::MaintainedCompression;
use expfinder_compress::{CompressStats, CompressedGraph, CompressionMethod};
use expfinder_core::{MatchRelation, RankedMatch};
use expfinder_graph::reach_index::{self, IndexCounters, ReachCarry};
use expfinder_graph::{DiGraph, EdgeUpdate, GraphView, Memo, ReachIndex};
use expfinder_incremental::{IncrementalBoundedSim, Maintainer, RerankScratch};
use expfinder_pattern::Pattern;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// The most query results one version keeps; one more makes its result
/// memo start over.
pub const MAX_CACHED_RESULTS: usize = 64;

/// What reads build lazily for one graph version and then share: the
/// reach indexes over the snapshot's graph and over the quotient (entries
/// fill on first use) and the query results (paper §II: "the query
/// engine directly returns M(Q,G) if it is already cached"), keyed by
/// pattern text ([`Pattern::text`]), so two patterns share a result
/// exactly when they print alike. One value describes exactly one
/// version, so nothing in it is ever stale, and it is freed with the last
/// snapshot of its version. A publish at a new version starts a new
/// one whose graph index is empty but holds the writer's [`ReachCarry`]
/// — the bounded distance columns readers swept at earlier versions,
/// repaired update by update, which its readers threshold — and whose
/// quotient index and results are empty; a publish that rebuilt or
/// dropped the quotient swaps in an empty quotient index, which can
/// happen without a version bump, and keeps the results, which do not
/// depend on the quotient.
pub struct Derived {
    version: u64,
    pub(crate) reach: Arc<ReachIndex>,
    pub(crate) quotient_reach: Arc<ReachIndex>,
    results: Arc<Memo<Arc<str>, Arc<CachedResult>>>,
}

impl Derived {
    /// `reach` as the graph index, an empty quotient index counting into
    /// the same counters, and no results.
    pub fn new(reach: ReachIndex) -> Derived {
        let version = reach.version();
        let quotient_reach = ReachIndex::counting(version, Arc::clone(reach.counters()));
        Derived {
            version,
            reach: Arc::new(reach),
            quotient_reach: Arc::new(quotient_reach),
            results: Arc::new(Memo::new(MAX_CACHED_RESULTS, usize::MAX)),
        }
    }

    /// The graph version this state was derived from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The same direct index and results, and a fresh quotient index for
    /// a rebuilt quotient.
    pub fn with_fresh_quotient_reach(&self) -> Derived {
        Derived {
            version: self.version,
            reach: Arc::clone(&self.reach),
            quotient_reach: Arc::new(ReachIndex::counting(
                self.version,
                Arc::clone(self.reach.counters()),
            )),
            results: Arc::clone(&self.results),
        }
    }

    /// The cached result of the pattern whose text this is.
    pub fn cached(&self, text: &str) -> Option<Arc<CachedResult>> {
        self.results.get(text)
    }

    /// Cache `matches` as the result of the pattern whose text this is,
    /// and return the result this version answers it with: an earlier
    /// one's, if there is one.
    pub fn cache(&self, text: &Arc<str>, matches: Arc<MatchRelation>) -> Arc<CachedResult> {
        let result = Arc::new(CachedResult {
            matches,
            ranked: Mutex::default(),
        });
        self.results.insert(Arc::clone(text), result, 0)
    }

    /// The cached results, for their gauges.
    pub fn results(&self) -> &Memo<Arc<str>, Arc<CachedResult>> {
        &self.results
    }
}

/// One pattern's cached result at one version: the relation and, once a
/// request has paid for it, the **ranked answer** — the top-`k` expert
/// list with the `k` it is the top of. It serves any `k' ≤ k` (top-k' is
/// a prefix of top-k under the total `(rank, node id)` order) and every
/// `k'` once complete. It needs no key of its own — `G_r`, and so every
/// rank, is a function of `(G, M)` only — but must never be carried to
/// another version, even when `M` did not move: an inserted edge can
/// shorten a witnessed path, changing a `G_r` weight and a rank with it.
pub struct CachedResult {
    matches: Arc<MatchRelation>,
    /// `(list, k)`: the best `k` matches of the output node; `k` is
    /// `usize::MAX` once the list is known to be complete.
    ranked: Mutex<Option<(Arc<[RankedMatch]>, usize)>>,
}

impl CachedResult {
    pub fn matches(&self) -> &Arc<MatchRelation> {
        &self.matches
    }

    /// The best `k` matches, if the ranked answer held determines them.
    pub fn experts(&self, k: usize) -> Option<Vec<RankedMatch>> {
        let ranked = self.ranked.lock().unwrap_or_else(PoisonError::into_inner);
        let (list, _) = ranked.as_ref().filter(|(_, held_k)| k <= *held_k)?;
        Some(list[..k.min(list.len())].to_vec())
    }

    /// Record the top-`k` list computed for this result, unless it holds
    /// a longer one already.
    pub fn put_ranked(&self, list: &[RankedMatch], k: usize) {
        let k = if list.len() < k { usize::MAX } else { k };
        let mut ranked = self.ranked.lock().unwrap_or_else(PoisonError::into_inner);
        if ranked.as_ref().is_none_or(|(_, held_k)| *held_k < k) {
            *ranked = Some((list.into(), k));
        }
    }
}

/// A registered query as a snapshot carries it: name, pattern text,
/// and the maintained relation and ranking at the snapshot's version.
pub struct RegisteredView {
    name: Arc<str>,
    text: Arc<str>,
    matches: Arc<MatchRelation>,
    ranking: Arc<[RankedMatch]>,
}

impl RegisteredView {
    /// The maintained relation, collapsed to paper semantics.
    pub fn matches(&self) -> &Arc<MatchRelation> {
        &self.matches
    }

    /// Every match of the output node with its `f(u_o, v)`, sorted by
    /// `(rank, node id)` — so the top `k` is its prefix. Empty when the
    /// relation is, or the pattern has no output node.
    pub fn ranking(&self) -> &[RankedMatch] {
        &self.ranking
    }
}

/// One immutable published state of a graph — the only thing the read
/// path reads. Everything a query needs travels together: the graph's
/// [`CostProfile`], the graph at one version, that version's [`Derived`]
/// state, the quotient and the registered-query relations — a reader
/// that grabbed the `Arc` keeps evaluating on exactly this version while
/// the owner publishes ten newer ones.
pub struct Snapshot {
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

    /// The registered query whose pattern has this DSL text
    /// ([`Pattern::text`]), if there is one — its relation and
    /// ranking, from one scan of the views.
    pub fn registered(&self, text: &str) -> Option<&RegisteredView> {
        self.registered.iter().find(|rv| &*rv.text == text)
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
    /// queries, no quotient, a fresh [`CostProfile`], and reach indexes
    /// counting into `counters`.
    pub fn new(graph: &DiGraph, counters: Arc<IndexCounters>) -> PublishedGraph {
        let first = Snapshot {
            profile: Arc::new(CostProfile::default()),
            graph: graph.clone(),
            derived: Arc::new(Derived::new(ReachIndex::counting(
                graph.version(),
                counters,
            ))),
            compressed: None,
            registered: Vec::new(),
        };
        PublishedGraph {
            latest: RwLock::new(Arc::new(first)),
        }
    }

    /// The latest published snapshot.
    pub fn latest(&self) -> Arc<Snapshot> {
        Arc::clone(&self.latest.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A registered query on the write side: its pattern, the DSL text the
/// read path routes by and the incremental maintainer of its result.
struct RegisteredQuery {
    pattern: Pattern,
    text: Arc<str>,
    maintainer: IncrementalBoundedSim,
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

/// One logged write of a [`MaintainedGraph`], as its [`WriteLog`] is
/// handed it.
#[derive(Copy, Clone, Debug)]
pub enum LogRecord<'a> {
    /// An edge-update batch, as submitted (no-ops included).
    Updates(&'a [EdgeUpdate]),
    /// A query registered under a name.
    Register(&'a str, &'a Pattern),
    /// A registered query dropped.
    Unregister(&'a str),
}

/// Where a durable graph's writes are recorded before they happen: the
/// durable runtime's write-ahead log. A [`MaintainedGraph`] without one
/// is an in-memory graph.
pub trait WriteLog: Send {
    /// Record `record`. An error refuses the write it stands for, which
    /// then changes nothing.
    fn append(&mut self, record: LogRecord<'_>) -> Result<(), ExpFinderError>;

    /// Compaction: start the log over holding exactly `live`, and return
    /// the bytes of records it dropped.
    fn restart(&mut self, live: &[LogRecord<'_>]) -> Result<u64, ExpFinderError>;
}

/// The write side of one graph: the authoritative mutable graph, its
/// maintained quotient and its registered queries. Whoever owns one has
/// exclusive access by construction (`&mut self`); what it changes
/// becomes visible to readers at the next [`MaintainedGraph::publish`].
pub struct MaintainedGraph {
    graph: DiGraph,
    compressed: Option<MaintainedCompression>,
    registered: BTreeMap<Arc<str>, RegisteredQuery>,
    /// What every registered query's batch end searches and ranks with.
    rerank: RerankScratch,
    /// The graph reach index of the snapshot this graph last published,
    /// which readers fill; the next batch carries its bounded sweeps.
    reach: Option<Arc<ReachIndex>>,
    /// Their distance columns, repaired after every update, and shared
    /// with every graph index this graph publishes for its readers to
    /// threshold while the columns describe that index's version.
    carry: Arc<Mutex<ReachCarry>>,
    unpublished: Unpublished,
    /// Where a durable graph's writes are appended first.
    log: Option<Box<dyn WriteLog>>,
}

impl MaintainedGraph {
    pub fn new(graph: DiGraph) -> MaintainedGraph {
        MaintainedGraph {
            graph,
            compressed: None,
            registered: BTreeMap::new(),
            rerank: RerankScratch::default(),
            reach: None,
            carry: Arc::default(),
            unpublished: Unpublished::Nothing,
            log: None,
        }
    }

    /// The authoritative graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Append every later write to `log` before it happens. Whatever was
    /// done before — a recovery's replay — is not appended again.
    pub fn attach_log(&mut self, log: Box<dyn WriteLog>) {
        self.log = Some(log);
    }

    fn append(&mut self, record: LogRecord<'_>) -> Result<(), ExpFinderError> {
        match &mut self.log {
            Some(log) => log.append(record),
            None => Ok(()),
        }
    }

    /// Start the log over holding one register record per registered
    /// query, sorted by name; the bytes it dropped (0 without a log).
    pub fn restart_log(&mut self) -> Result<u64, ExpFinderError> {
        let Some(log) = &mut self.log else {
            return Ok(0);
        };
        let live: Vec<LogRecord<'_>> = self
            .registered
            .iter()
            .map(|(name, rq)| LogRecord::Register(name, &rq.pattern))
            .collect();
        log.restart(&live)
    }

    fn note(&mut self, change: Unpublished) {
        self.unpublished = self.unpublished.max(change);
    }

    /// Apply edge updates, maintaining the quotient, every registered
    /// query and the carried reach-index entries along the way
    /// (duplicates and no-ops are skipped), then end the batch once for
    /// every registered query: its `G_r` arcs are repaired and its moved
    /// candidates re-ranked. The report sizes every registered query's
    /// maintained result before and after (counted in place) — the ΔM
    /// report. The batch is appended to the log before any of it is
    /// applied.
    pub fn apply(&mut self, updates: &[EdgeUpdate]) -> Result<UpdateReport, ExpFinderError> {
        self.append(LogRecord::Updates(updates))?;
        let mut registered: Vec<RegisteredDelta> = self
            .registered
            .iter()
            .map(|(name, rq)| RegisteredDelta {
                query: name.to_string(),
                before_pairs: rq.maintainer.total_pairs(),
                after_pairs: 0,
            })
            .collect();
        let version = self.graph.version();
        // held for the batch: a reader that finds it held sweeps instead
        let mut carry = reach_index::lock(&self.carry);
        match &self.reach {
            // the last published index, with whatever readers filled in
            Some(reach) if reach.version() == version => carry.begin(reach),
            // a batch before this one was not published yet: go on with it
            _ if carry.version() == Some(version) => {}
            _ => carry.clear(),
        }
        let mut applied = 0usize;
        for &up in updates {
            if !self.graph.apply(up) {
                continue;
            }
            applied += 1;
            carry.on_update(&self.graph, up);
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
        drop(carry);
        for rq in self.registered.values_mut() {
            rq.maintainer.end_batch(&self.graph, &mut self.rerank);
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
    /// maintainer from the current graph. The record is appended to the
    /// log after every check has passed and before anything changes: a
    /// registration the log refuses leaves no trace, one it took cannot
    /// then be refused.
    pub fn register(&mut self, query_name: &str, pattern: Pattern) -> Result<(), ExpFinderError> {
        if self.registered.contains_key(query_name) {
            return Err(ExpFinderError::DuplicateQuery(query_name.to_owned()));
        }
        let maintainer = IncrementalBoundedSim::new(&self.graph, &pattern);
        self.append(LogRecord::Register(query_name, &pattern))?;
        let rq = RegisteredQuery {
            text: pattern.text().clone(),
            pattern,
            maintainer,
            published: None,
        };
        self.registered.insert(query_name.into(), rq);
        self.note(Unpublished::Views);
        Ok(())
    }

    /// Drop a registered query, logged as in [`MaintainedGraph::register`].
    pub fn unregister(&mut self, query_name: &str) -> Result<(), ExpFinderError> {
        if !self.registered.contains_key(query_name) {
            return Err(ExpFinderError::UnknownQuery(query_name.to_owned()));
        }
        self.append(LogRecord::Unregister(query_name))?;
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
    /// of both facades. A new graph version gets a new [`Derived`], whose
    /// graph index starts empty and thresholds the columns the batch
    /// carried and repaired; an unchanged one keeps the previous snapshot's
    /// (registered set changed) or only swaps its quotient reach index
    /// (quotient built, rebuilt or dropped); and when nothing changed at
    /// all, nothing is published. Publishing costs `O(|ΔG|)`, not `O(|G|)`: the
    /// snapshot's graph is a clone that shares every adjacency chunk the
    /// batch did not touch, a registered relation whose batch ΔM was
    /// empty is the previous snapshot's `Arc`, and so is a registered
    /// ranking the batch's re-rank left as it was. A reader holding an older
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
            let counters = Arc::clone(prev.derived.reach.counters());
            let reach = ReachIndex::carried(version, counters, Arc::clone(&self.carry));
            (Arc::new(Derived::new(reach)), quotient())
        } else {
            match unpublished {
                Unpublished::Nothing => {
                    self.reach = Some(Arc::clone(&prev.derived.reach));
                    return;
                }
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
                    text: Arc::clone(&rq.text),
                    matches: Arc::clone(matches),
                    ranking: Arc::clone(rq.maintainer.ranking()),
                }
            })
            .collect();
        self.reach = Some(Arc::clone(&derived.reach));
        let next = Snapshot {
            profile: Arc::clone(&prev.profile),
            graph: self.graph.clone(),
            derived,
            compressed,
            registered,
        };
        *slot.latest.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpFinder, QuerySpec};
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
            applied += engine.apply_updates(&h, batch).unwrap().applied as u64;
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
        assert_eq!(engine.apply_updates(&h, &noop).unwrap().applied, 0);
        let newest = engine.latest(&h).unwrap();
        assert!(Arc::ptr_eq(&newest, &prev));
        assert_eq!(newest.version(), model.version());

        // newest answers the new graph, the held snapshot its own
        let want = bounded_simulation(&model, &live).unwrap();
        assert_eq!(*view(&newest, "live"), want);
        assert_eq!(bounded_simulation(newest.graph(), &live).unwrap(), want);
        let got = engine.query(&h, &QuerySpec::pattern(live.clone()));
        assert_eq!(*got.unwrap().matches, want);
        assert_ne!(want, held_want, "the stream changed the answer");
        assert_eq!(held.version(), base.version());
        assert!(held.graph().edges().eq(base.edges()));
        assert_eq!(bounded_simulation(held.graph(), &live).unwrap(), held_want);
        assert_eq!(*view(&held, "live"), held_want);

        // O(Δ): every snapshot shared its untouched chunks with the owner
        assert!(applied > 0 && newest.graph().chunk_copies() <= 2 * applied);
    }

    fn rel(n: usize) -> Arc<MatchRelation> {
        use expfinder_graph::BitSet;
        Arc::new(MatchRelation::from_sets(vec![BitSet::full(n)], n))
    }

    fn derived(version: u64) -> Derived {
        Derived::new(ReachIndex::counting(
            version,
            Arc::new(reach_index::index_counters()),
        ))
    }

    fn ranked(n: u32) -> Vec<RankedMatch> {
        let at = |i| RankedMatch {
            node: expfinder_graph::NodeId(i),
            rank: i as f64,
        };
        (0..n).map(at).collect()
    }

    /// A result is found again at its own graph and version only.
    #[test]
    fn hit_and_miss() {
        use expfinder_graph::fixtures::collaboration_fig1;
        let engine = ExpFinder::default();
        let fig1 = collaboration_fig1();
        let h = engine.add_graph("a", fig1.graph.clone()).unwrap();
        let other = engine.add_graph("b", fig1.graph).unwrap();
        let spec = QuerySpec::pattern(fig1_pattern());
        let read = |h| engine.query(h, &spec).unwrap();
        read(&h);
        read(&h);
        read(&other);
        let (a, b) = fig1.e1;
        let update = [EdgeUpdate::Insert(a, b)];
        engine.apply_updates(&h, &update).unwrap();
        read(&h);
        let stats = engine.read_path().cache_stats();
        assert_eq!((stats.get("hits"), stats.get("misses")), (1, 3));
        assert_eq!(engine.index_totals().cached_results, 2, "one per graph");
    }

    #[test]
    fn ranked_answer_serves_prefixes_and_never_guesses() {
        let text: Arc<str> = "node a;".into();
        let cached = derived(1).cache(&text, rel(9));
        assert_eq!(cached.experts(2), None, "nothing ranked yet");

        // a top-3 of more than 3 candidates determines top-0..=3 only
        cached.put_ranked(&ranked(3), 3);
        assert_eq!(cached.experts(2), Some(ranked(2)));
        assert_eq!(cached.experts(3), Some(ranked(3)));
        assert_eq!(cached.experts(4), None, "the 4th best is unknown");

        // a shorter list never replaces it; a longer one does, and a list
        // shorter than its k is complete: it serves every k
        cached.put_ranked(&ranked(1), 1);
        assert_eq!(cached.experts(3), Some(ranked(3)));
        cached.put_ranked(&ranked(5), 8);
        assert_eq!(cached.experts(4), Some(ranked(4)));
        assert_eq!(cached.experts(100), Some(ranked(5)));
        assert_eq!(cached.experts(0), Some(vec![]));
    }

    #[test]
    fn ranked_answer_lives_and_dies_with_its_slot() {
        let text: Arc<str> = "node a;".into();
        let d = derived(1);
        d.cache(&text, rel(9)).put_ranked(&ranked(2), 2);
        // cached again by the same pattern: same (G, M), the list stays
        let again = d.cache(&text, rel(9));
        assert_eq!(again.experts(2), Some(ranked(2)));
        // a rebuilt quotient keeps the version's results
        let requotiented = d.with_fresh_quotient_reach();
        assert!(Arc::ptr_eq(&requotiented.cached(&text).unwrap(), &again));
        // a different version is a different store
        assert!(derived(2).cached(&text).is_none());
        // a full memo starts over: the result is gone, and filling the
        // dropped slot brings nothing back
        for i in 0..MAX_CACHED_RESULTS {
            d.cache(&format!("node b{i};").into(), rel(9));
        }
        assert!(d.cached(&text).is_none());
        again.put_ranked(&ranked(3), 3);
        assert!(d.cached(&text).is_none());
        let results = d.results();
        assert_eq!((results.len(), results.resets()), (1, 1));
        assert_eq!(results.evicted(), MAX_CACHED_RESULTS as u64);
    }

    #[test]
    fn keys_are_pattern_texts() {
        // the text spells the condition tree, so patterns whose old
        // encodings collided take two slots
        use expfinder_pattern::parser::parse;
        let text = |src: &str| -> Arc<str> { parse(src).unwrap().text().clone() };
        let grouped = text(r#"node a where (label = "a),L(b") and (has c);"#);
        let split = text(r#"node a where (label = "a") and (label = "b") and (has c);"#);
        let d = derived(1);
        d.cache(&grouped, rel(1));
        assert!(d.cached(&split).is_none());
        d.cache(&split, rel(2));
        assert_eq!(d.results().len(), 2);
        assert_eq!(d.cached(&grouped).unwrap().matches().data_nodes(), 1);
        assert_eq!(d.cached(&split).unwrap().matches().data_nodes(), 2);
    }

    /// Results live as long as their version: once an update replaced the
    /// snapshot and no reader holds its answer, its relation is freed.
    #[test]
    fn a_superseded_versions_cached_relation_is_freed() {
        use expfinder_graph::fixtures::collaboration_fig1;
        let engine = ExpFinder::default();
        let fig1 = collaboration_fig1();
        let h = engine.add_graph("fig1", fig1.graph).unwrap();
        let resp = engine.query(&h, &QuerySpec::pattern(fig1_pattern()));
        let resp = resp.unwrap();
        let cached = Arc::downgrade(&resp.matches);
        let (a, b) = fig1.e1;
        let report = engine.apply_updates(&h, &[EdgeUpdate::Insert(a, b)]);
        assert_eq!(report.unwrap().applied, 1);
        assert!(cached.upgrade().is_some(), "the response still holds it");
        drop(resp);
        assert!(cached.upgrade().is_none(), "the old version kept it");
    }

    /// A reader holding a version the writer has moved past sweeps its
    /// own graph: the carried column of its key describes a later version
    /// and must not answer it. On 0(A) → 1(C) → 2(B) a read of
    /// `A -(≤2)-> B` leaves `B`'s backward column; the held version still
    /// has 1 → 2, which the next batch deletes, so a threshold of the
    /// moved column would drop `C -(≤1)-> B`'s one match.
    #[test]
    fn a_held_version_sweeps_once_the_carry_moved_past_it() {
        use expfinder_core::naive::naive_bounded_simulation;
        use expfinder_core::{bounded_simulation_indexed, EvalOptions, EvalScratch};
        use expfinder_graph::NodeId;
        let mut g = DiGraph::new();
        for label in ["A", "C", "B", "A"] {
            g.add_node(label, []);
        }
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let star = |from: &str, b| {
            PatternBuilder::new()
                .node_output("x", Predicate::label(from))
                .node("y", Predicate::label("B"))
                .edge("x", "y", Bound::hops(b))
                .build()
                .unwrap()
        };
        let engine = ExpFinder::default();
        let h = engine.add_graph("g", g).unwrap();
        engine.query(&h, &QuerySpec::pattern(star("A", 2))).unwrap();
        let insert = EdgeUpdate::Insert(NodeId(3), NodeId(1));
        engine.apply_updates(&h, &[insert]).unwrap();
        let held = engine.latest(&h).unwrap();
        engine
            .apply_updates(&h, &[EdgeUpdate::Delete(NodeId(1), NodeId(2))])
            .unwrap();

        let counters = engine.read_path().index_counters();
        let (built, carried) = (counters.get("built"), counters.get("carried"));
        let q = star("C", 1);
        let index = held.derived.reach.bind(held.graph());
        let mut scratch = EvalScratch::new();
        let (got, _) =
            bounded_simulation_indexed(held.graph(), &q, EvalOptions, &mut scratch, Some(&index));
        assert_eq!(got, naive_bounded_simulation(held.graph(), &q));
        assert!(!got.is_empty(), "the held version still has 1 → 2");
        assert_eq!(counters.get("built"), built + 1, "the held reader swept");
        assert_eq!(counters.get("carried"), carried);

        // the latest version's reader thresholds the same key
        let latest = engine.latest(&h).unwrap();
        let index = latest.derived.reach.bind(latest.graph());
        let (got, _) =
            bounded_simulation_indexed(latest.graph(), &q, EvalOptions, &mut scratch, Some(&index));
        assert_eq!(got, naive_bounded_simulation(latest.graph(), &q));
        assert_eq!(counters.get("carried"), carried + 1);
    }
}
