//! Class-reachability index, one per graph version, whose bounded
//! label-class entries the graph's owner carries into the next version.
//!
//! The matching fixpoints spend their time answering one question:
//! *which nodes have a non-empty path of length ≤ `b` (in direction `d`)
//! to some node of class `C`?* A class is a node condition's candidate
//! set ([`Class`]): a bare label test's, or any condition's the graph's
//! [`ClassMemo`](crate::ClassMemo) keeps, such as `label = "SA"` and
//! `experience >= 5`. When the seed set of a refinement constraint is
//! still the **full class** — which is exactly the state of every
//! constraint's first refresh on a freshly seeded query — the answer
//! depends only on `(C, b, d)` and the graph version, not on the query.
//! A serving workload that evaluates many queries against one graph
//! version therefore re-pays the same multi-source BFS over and over.
//!
//! [`ReachIndex`] memoizes those answers per version, keyed by the
//! class's canonical text: entries are built lazily on first use by
//! [`class_reach_sweep`] from the class's members — `b` level-synchronous
//! rounds over bitset frontiers, dense levels swept word-parallel — and
//! shared as `Arc<BitSet>` across queries, threads and HTTP connections. The
//! engine keeps one index per published graph version, bound to that
//! version's [`DiGraph`], so an entry never describes a
//! graph other than the one it is consulted for.
//!
//! ## Carried entries
//!
//! A bounded entry of a label class (`b` at most [`MAX_CARRIED_BOUND`])
//! also keeps each node's capped distance `d(w)`: the length of its
//! shortest non-empty path to (`Backward`) or from (`Forward`) the
//! class, with `b + 1` standing for "farther". Its reach set is `{w : d(w) ≤ b}`. A version
//! change does not drop these entries: [`ReachCarry`] takes them from
//! the index the owner last published, repairs them after every update
//! it applies, and hands them to the next version's index. The owner
//! keeps the distances, one column per `(label, direction)` capped at
//! the largest carried `b` (the other bounds' reach sets are thresholds
//! of it, so one repair serves them all); a reach set no update of a
//! batch flipped is shared by `Arc` with the previous version's index,
//! and a flipped one is copied once per batch.
//!
//! Write `D(w)` for 0 on the class and `d(w)` elsewhere, so that `d(t)`
//! is `1 + min D(h)` over the nodes `h` whose edge `t → h` (seen from the
//! class) can carry `t`'s path. An inserted edge `t → h` moves nothing
//! unless `1 + D(h) < d(t)`, and then lowers distances by a bounded
//! decrease from `t`. A deleted one moves nothing unless `h` was `t`'s
//! only tight neighbour (`d(t) = 1 + D(h)`); then every node whose path
//! ran through it lies within `b − 1` of `t`, the locality argument of
//! `IncrementalBoundedSim` ("Locality: the affected ball"), and the
//! repair recomputes that ball's distances from its boundary (reset and
//! relax). Unbounded entries, entries of the other classes and the
//! quotient's index are not carried: the next version rebuilds them on
//! first use.
//!
//! The index itself does not hold the graph (entries are built against
//! whatever [`GraphView`] the caller binds with [`ReachIndex::bind`]);
//! the caller guarantees the binding matches [`ReachIndex::version`] —
//! the engine's per-version snapshot is that guarantee.

use crate::attrs::Sym;
use crate::bfs::{BfsScratch, Direction};
use crate::bfs_frontier::FrontierScratch;
use crate::bitset::BitSet;
use crate::counters::Counters;
use crate::digraph::{Class, DiGraph, EdgeUpdate};
use crate::memo::Memo;
use crate::view::GraphView;
use crate::NodeId;
use std::sync::Arc;

/// Source of class-reach sets consulted by the matching fixpoint before
/// it falls back to a frontier BFS.
pub trait ReachProvider {
    /// The set of nodes with a non-empty path of length `1..=depth` (in
    /// direction `dir`, seen from the class) to some member of `class`.
    fn class_reach(&self, class: &Class, depth: u32, dir: Direction) -> Arc<BitSet>;
}

/// The largest bound whose entries are carried across versions: a carried
/// entry stores its capped distances one `u8` per node, `b + 1` meaning
/// "farther than `b`".
pub const MAX_CARRIED_BOUND: u32 = u8::MAX as u32 - 1;

/// Bounded multi-source reach for index-entry builds: one
/// direction-optimizing traversal of [`FrontierScratch`] — `depth`
/// level-synchronous rounds over hybrid bitset frontiers, where sparse
/// levels cost `O(|frontier|)` via the member list (keeping high-diameter
/// unbounded builds linear) and dense levels sweep the not-yet-reached
/// candidate words word-parallel with early exit. The traversal scratch
/// is confined to the build and dropped with it.
///
/// Writes into `out` (which must have capacity `g.node_count()`) every
/// node with a path of length `1..=depth` in direction `dir` to some
/// seed; a seed is included only via a genuine non-empty path (a cycle).
/// With `dist` (and `depth` at most [`MAX_CARRIED_BOUND`]), also refills
/// it with every node's capped distance: the length of its shortest such
/// path, or `depth + 1` where there is none within `depth` — the level
/// the sweep found the node at. Returns the number of nodes marked
/// visited (seeds included), the shared traversal-work measure.
pub fn class_reach_sweep<G: GraphView>(
    g: &G,
    seeds: &BitSet,
    depth: u32,
    dir: Direction,
    out: &mut BitSet,
    dist: Option<&mut Vec<u8>>,
) -> usize {
    let levels = dist.map(|dist| {
        assert!(
            depth <= MAX_CARRIED_BOUND,
            "bound {depth} has no u8 distances"
        );
        dist.clear();
        dist.resize(g.node_count(), depth as u8 + 1);
        dist.as_mut_slice()
    });
    FrontierScratch::new().traverse(g, seeds, depth, dir, None, None, out, levels)
}

/// An index key: `(class, bound, direction)`, the class by its canonical
/// text.
type Key = (Arc<str>, u32, Direction);

/// Most entries one version's readers keep built in its [`ReachIndex`].
pub const MAX_REACH_ENTRIES: usize = 1024;

/// Most bytes (reach sets and distances) one version's built entries
/// keep.
pub const MAX_REACH_BYTES: usize = 64 << 20;

/// The entries a [`ReachCarry`] hands to an index: keys and reach sets.
type Handed = Arc<[(Key, Arc<BitSet>)]>;

/// One entry a reader built.
#[derive(Debug)]
struct Entry {
    /// What the fixpoints consume.
    reach: Arc<BitSet>,
    /// The label and capped distances of a bounded label-class key, for
    /// the writer to carry the entry on; `None` for the other keys.
    carry: Option<(Sym, Vec<u8>)>,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.reach.words().len() * 8 + self.carry.as_ref().map_or(0, |(_, d)| d.len())
    }
}

/// The cumulative half of `GET /metrics`' `engine.index` block, shared
/// by a line of indexes — in the engine, every index of every graph it
/// serves, across versions — and by the read path that consults them.
/// Made by [`index_counters`]; its keys, in this order (the readers add
/// at [`HITS`] and [`MISSES`]):
///
/// * `hits` / `misses` — first refreshes whose seed set was still an
///   unshrunk condition class, served from an entry, and those that ran
///   the BFS instead (counted by the reader from its `EvalStats`);
/// * `built` — entries built by a full [`class_reach_sweep`] (two
///   readers racing on one key count two);
/// * `carried` — entries handed to a new version by
///   [`ReachCarry::successor`], shared or repaired.
pub type IndexCounters = Counters<4>;

pub const HITS: usize = 0;
pub const MISSES: usize = 1;
const BUILT: usize = 2;
const CARRIED: usize = 3;

/// A fresh [`IndexCounters`] block, all at zero.
pub const fn index_counters() -> IndexCounters {
    Counters::new(&["hits", "misses", "built", "carried"])
}

/// Memo table of class-reach sets for **one** graph version, keyed by
/// `(class, bound, direction)`. Entries are built lazily on first use and
/// handed out as shared `Arc<BitSet>`s; concurrent readers racing on a
/// missing entry may both build it (the first insert wins — entries for
/// one version are deterministic, so either result is the same set). The
/// built entries are a [`Memo`] capped at [`MAX_REACH_ENTRIES`] and
/// [`MAX_REACH_BYTES`], so a client that reads many distinct bounds
/// costs this version sweeps, not memory. An index may also start with
/// the entries a [`ReachCarry`] repaired.
#[derive(Debug)]
pub struct ReachIndex {
    /// Graph version the entries describe; the owner's invalidation key.
    version: u64,
    /// What a [`ReachCarry`] handed on: read without a lock, and shared
    /// with the neighbouring versions' indexes while no batch moves it.
    carried: Handed,
    /// Bytes the carried entries retain, the carry's distances included.
    carried_bytes: usize,
    /// What readers built at this version.
    built: Memo<Key, Arc<Entry>>,
    counters: Arc<IndexCounters>,
}

impl ReachIndex {
    /// An empty index for the graph version `version`, with counters of
    /// its own.
    pub fn new(version: u64) -> ReachIndex {
        ReachIndex::counting(version, Arc::new(index_counters()))
    }

    /// An empty index for `version` that counts into `counters`.
    pub fn counting(version: u64, counters: Arc<IndexCounters>) -> ReachIndex {
        ReachIndex {
            version,
            carried: Arc::new([]),
            carried_bytes: 0,
            built: Memo::new(MAX_REACH_ENTRIES, MAX_REACH_BYTES),
            counters,
        }
    }

    /// The graph version this index describes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The counters this index counts into.
    pub fn counters(&self) -> &Arc<IndexCounters> {
        &self.counters
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.carried.len() + self.built.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes retained by the memoized entries: bitsets and distances.
    pub fn bytes(&self) -> usize {
        self.carried_bytes + self.built.bytes()
    }

    /// How often this version's built entries started over.
    pub fn resets(&self) -> u64 {
        self.built.resets()
    }

    /// The entry for `(class, depth, dir)`, built against `g` from the
    /// class's members on first use. `g` **must** be the graph version
    /// this index was created for, and `class` one of its classes (the
    /// engine guarantees both by binding each snapshot's graph to that
    /// snapshot's index). Only a label class's bounded entry keeps the
    /// distances a [`ReachCarry`] needs to carry it.
    pub fn entry<G: GraphView>(
        &self,
        g: &G,
        class: &Class,
        depth: u32,
        dir: Direction,
    ) -> Arc<BitSet> {
        let key = (Arc::clone(class.key()), depth, dir);
        if let Some((_, hit)) = self.carried.iter().find(|(k, _)| *k == key) {
            return Arc::clone(hit);
        }
        if let Some(hit) = self.built.get(&key) {
            return Arc::clone(&hit.reach);
        }
        let carried = class.label().filter(|_| depth <= MAX_CARRIED_BOUND);
        let mut reach = BitSet::new(g.node_count());
        let mut dist = carried.map(|_| Vec::new());
        class_reach_sweep(g, class.members(), depth, dir, &mut reach, dist.as_mut());
        self.counters.add(BUILT, 1);
        let built = Arc::new(Entry {
            reach: Arc::new(reach),
            carry: carried.zip(dist),
        });
        let bytes = built.bytes();
        Arc::clone(&self.built.insert(key, built, bytes).reach)
    }

    /// Bind the index to the graph version it was built for, yielding the
    /// [`ReachProvider`] the matching fixpoints consume.
    pub fn bind<'a, G: GraphView>(&'a self, g: &'a G) -> BoundReachIndex<'a, G> {
        BoundReachIndex { index: self, g }
    }
}

/// A [`ReachIndex`] paired with the graph version its entries are built
/// against — the borrowed view one evaluation hands to the fixpoint.
pub struct BoundReachIndex<'a, G> {
    index: &'a ReachIndex,
    g: &'a G,
}

impl<G: GraphView> ReachProvider for BoundReachIndex<'_, G> {
    fn class_reach(&self, class: &Class, depth: u32, dir: Direction) -> Arc<BitSet> {
        self.index.entry(self.g, class, depth, dir)
    }
}

/// What [`ReachCarry`] did, cumulative over its life.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CarryStats {
    /// Entries handed to a new version as the batch found them.
    pub shared: u64,
    /// Entries handed to a new version after an update moved them.
    pub repaired: u64,
    /// Entries of a taken index that were not carried: unbounded,
    /// bounded beyond [`MAX_CARRIED_BOUND`], or of a class other than a
    /// label's.
    pub dropped: u64,
    /// Nodes the repairs visited: each node a decrease lowered, and each
    /// node of a deletion's ball plus each one its relaxation settled.
    pub repair_visits: u64,
}

/// A carried entry.
#[derive(Debug)]
struct Carried {
    key: Key,
    /// Shared with the indexes that hold the entry; copied when a batch
    /// first flips one of its bits.
    reach: Arc<BitSet>,
    /// Whether an update of the batch in progress moved one of its capped
    /// distances.
    moved: bool,
}

/// The carried entries of one `(label, direction)`. They differ only in
/// `b` (and in their key's text, if two texts test the one label), so
/// one distance column capped at their largest `b` serves them all: each
/// reach set is `{w : d(w) ≤ b}`.
#[derive(Debug)]
struct Group {
    label: Sym,
    dir: Direction,
    /// One more than the largest bound of `entries`.
    cap: u8,
    entries: Vec<Carried>,
}

impl Group {
    /// Node `v`'s distance went from `old` to `new`: flip the reach bits
    /// it crosses and mark the entries whose capped distance moved.
    fn moved(&mut self, v: NodeId, old: u8, new: u8) {
        for c in &mut self.entries {
            let cap = c.key.1 as u8 + 1;
            if old.min(cap) == new.min(cap) {
                continue;
            }
            c.moved = true;
            if (old < cap) != (new < cap) {
                let reach = Arc::make_mut(&mut c.reach);
                if new < cap {
                    reach.insert(v);
                } else {
                    reach.remove(v);
                }
            }
        }
    }
}

/// One group's distances in the node-major table.
struct Column<'a> {
    table: &'a mut [u8],
    stride: usize,
    col: usize,
}

impl Column<'_> {
    #[inline]
    fn get(&self, v: NodeId) -> u8 {
        self.table[v.index() * self.stride + self.col]
    }

    #[inline]
    fn set(&mut self, v: NodeId, d: u8) {
        self.table[v.index() * self.stride + self.col] = d;
    }
}

/// Reused traversal state of the repairs.
#[derive(Debug, Default)]
struct RepairScratch {
    ball: BfsScratch,
    /// FIFO of a decrease.
    queue: Vec<NodeId>,
    /// Tentative distances of a deletion's ball (meaningful on the ball).
    tentative: Vec<u8>,
    /// Bucket queue of a deletion's relaxation, by tentative distance.
    buckets: Vec<Vec<NodeId>>,
}

/// The bounded entries of one graph's reach index, carried by the graph's
/// writer from version to version: [`ReachCarry::begin`] takes the ones
/// readers built in the index the writer last published,
/// [`ReachCarry::on_update`] repairs all of them after every update the
/// writer applies, and [`ReachCarry::successor`] hands them to the new
/// version's index. Exact: after every update each carried entry equals a
/// fresh [`class_reach_sweep`] of the updated graph, distances included.
///
/// The distances stay with the writer (readers consume only the reach
/// sets), one column per `(label, direction)` in a node-major table —
/// every column's distance of a node in one row — so that screening an
/// update for all entries reads the two rows of its endpoints, and one
/// repair serves every bound of a label. A reach set is shared with the
/// published indexes and copied when a batch first flips one of its bits;
/// while a batch flips none and readers built nothing new, the next index
/// shares the previous one's list of carried entries. One value serves
/// one graph for its whole life, so the table and the repair scratch are
/// allocated once.
#[derive(Debug, Default)]
pub struct ReachCarry {
    /// The graph version the entries describe; `None` while nothing is
    /// carried.
    version: Option<u64>,
    groups: Vec<Group>,
    /// Group `i`'s capped distance of node `v` is at
    /// `v * groups.len() + i`.
    table: Vec<u8>,
    /// The entries as last handed on.
    handed: Handed,
    /// Entries of the taken index left behind, counted at the handoff.
    left: u64,
    scratch: RepairScratch,
    stats: CarryStats,
}

impl ReachCarry {
    /// Carry `index`'s bounded label-class entries from its version on:
    /// the ones this carry handed to `index` as they are, and the ones
    /// readers built in it. If `index` is not the one this carry last handed on,
    /// what it carried is dropped instead.
    pub fn begin(&mut self, index: &ReachIndex) {
        if self.version != Some(index.version) {
            self.clear();
            self.left = index.carried.len() as u64;
        } else {
            self.left = 0;
            debug_assert_eq!(self.handed.len(), index.carried.len());
        }
        for c in self.groups.iter_mut().flat_map(|g| &mut g.entries) {
            c.moved = false;
        }
        let mut built: Vec<(&Key, Sym, &Arc<BitSet>, &[u8])> = Vec::new();
        let taken = |key: &Key| {
            self.groups
                .iter()
                .any(|g| g.entries.iter().any(|c| c.key == *key))
        };
        let entries = index.built.entries();
        for (key, e) in &entries {
            match &e.carry {
                None => self.left += 1,
                // taken already by a batch that applied nothing
                Some(_) if taken(key) => {}
                Some((label, dist)) => built.push((key, *label, &e.reach, dist)),
            }
        }
        self.version = Some(index.version);
        let Some(&(_, _, _, first)) = built.first() else {
            return;
        };
        // one version, one graph: the same node count as the table's
        let n = first.len();
        let old = self.groups.len();
        debug_assert_eq!(self.table.len(), n * old);
        // a new group's column, or a larger cap's for an existing one,
        // comes from the reader's distances
        let mut sources: Vec<Option<&[u8]>> = vec![None; old];
        for (key, label, reach, dist) in built {
            let (b, dir) = (key.1, key.2);
            let i = match self
                .groups
                .iter()
                .position(|g| (g.label, g.dir) == (label, dir))
            {
                Some(i) => i,
                None => {
                    self.groups.push(Group {
                        label,
                        dir,
                        cap: 0,
                        entries: Vec::new(),
                    });
                    sources.push(None);
                    sources.len() - 1
                }
            };
            let group = &mut self.groups[i];
            if b as u8 + 1 > group.cap {
                group.cap = b as u8 + 1;
                sources[i] = Some(dist);
            }
            group.entries.push(Carried {
                key: key.clone(),
                reach: Arc::clone(reach),
                moved: false,
            });
        }
        if sources.iter().all(Option::is_none) {
            return;
        }
        let stride = sources.len();
        let mut table = Vec::with_capacity(n * stride);
        for v in 0..n {
            table.extend(sources.iter().enumerate().map(|(i, src)| match src {
                Some(dist) => dist[v],
                None => self.table[v * old + i],
            }));
        }
        self.table = table;
    }

    /// Carry nothing.
    pub fn clear(&mut self) {
        self.version = None;
        self.groups.clear();
        self.table.clear();
        self.handed = Arc::new([]);
        self.left = 0;
    }

    /// The graph version the carried entries describe, if any are.
    pub fn version(&self) -> Option<u64> {
        self.version
    }

    /// The carried entries as `(label, bound, direction)`, reach set and
    /// capped distances.
    pub fn entries(&self) -> impl Iterator<Item = ((Sym, u32, Direction), &BitSet, Vec<u8>)> {
        let stride = self.groups.len();
        let columns = self.groups.iter().enumerate();
        columns.flat_map(move |(i, g)| {
            g.entries.iter().map(move |c| {
                let cap = c.key.1 as u8 + 1;
                let column = self.table.iter().skip(i).step_by(stride);
                let key = (g.label, c.key.1, g.dir);
                (key, &*c.reach, column.map(|&d| d.min(cap)).collect())
            })
        })
    }

    /// Cumulative counts.
    pub fn stats(&self) -> CarryStats {
        self.stats
    }

    /// Repair every carried entry for `up`, which `g` has just applied
    /// (a no-op update must not be passed). `g` must be the graph the
    /// entries described before it.
    pub fn on_update(&mut self, g: &DiGraph, up: EdgeUpdate) {
        if self.version.is_none() {
            return;
        }
        let stride = self.groups.len();
        if self.table.len() != g.node_count() * stride {
            // nodes came or went under the entries: rebuild them instead
            self.clear();
            return;
        }
        let (x, y, insert) = match up {
            EdgeUpdate::Insert(x, y) => (x, y, true),
            EdgeUpdate::Delete(x, y) => (x, y, false),
        };
        let (lx, ly) = (g.vertex(x).label(), g.vertex(y).label());
        for (col, group) in self.groups.iter_mut().enumerate() {
            let (label, cap) = (group.label, group.cap);
            // `t`'s distance reads `h` across the edge, seen from the class
            let (t, h, lh) = match group.dir {
                Direction::Backward => (x, y, ly),
                Direction::Forward => (y, x, lx),
            };
            let column = Column {
                table: &mut self.table,
                stride,
                col,
            };
            let old = column.get(t);
            let via_h = if lh == label {
                1
            } else {
                column.get(h).saturating_add(1).min(cap)
            };
            // the cheap screens: most updates move no entry
            let unmoved = if insert {
                via_h >= old
            } else {
                old == cap || via_h != old
            };
            if unmoved {
                continue;
            }
            let class = g
                .nodes_with_label(label)
                .expect("a carried label has a class");
            let visits = if insert {
                decrease(g, class, group, column, t, via_h, &mut self.scratch)
            } else {
                reset_and_relax(g, class, group, column, t, &mut self.scratch)
            };
            self.stats.repair_visits += visits as u64;
        }
        self.version = Some(g.version());
    }

    /// The index for `version`, counting into `prev`'s counters: it
    /// starts with the carried entries when they describe `version`, and
    /// empty otherwise (and then nothing is carried any more). Its
    /// `bytes` include the distances the carry holds for it.
    pub fn successor(&mut self, version: u64, prev: &ReachIndex) -> ReachIndex {
        let mut next = ReachIndex::counting(version, Arc::clone(&prev.counters));
        if self.version != Some(version) {
            self.clear();
            return next;
        }
        let entries = || self.groups.iter().flat_map(|g| &g.entries);
        let (count, moved) = (entries().count(), entries().filter(|c| c.moved).count());
        self.stats.repaired += moved as u64;
        self.stats.shared += (count - moved) as u64;
        self.stats.dropped += std::mem::take(&mut self.left);
        let unchanged = self.handed.len() == count
            && self
                .handed
                .iter()
                .zip(entries())
                .all(|((_, reach), c)| Arc::ptr_eq(reach, &c.reach));
        if !unchanged {
            self.handed = entries()
                .map(|c| (c.key.clone(), Arc::clone(&c.reach)))
                .collect();
        }
        let n = self.table.len() / self.groups.len().max(1);
        let set_bytes = n.div_ceil(64) * 8;
        next.carried = Arc::clone(&self.handed);
        next.carried_bytes = self.table.len() + count * set_bytes;
        next.counters.add(CARRIED, count as u64);
        next
    }
}

/// An insertion lowered `t`'s distance to `new`: lower every distance
/// that reads it, breadth-first from `t` (unit steps, so first reached is
/// final).
fn decrease<G: GraphView>(
    g: &G,
    class: &BitSet,
    group: &mut Group,
    mut column: Column<'_>,
    t: NodeId,
    new: u8,
    scratch: &mut RepairScratch,
) -> usize {
    let (dir, cap) = (group.dir, group.cap);
    group.moved(t, column.get(t), new);
    column.set(t, new);
    let queue = &mut scratch.queue;
    queue.clear();
    // a class member's own distance feeds nobody: they read its 0
    if !class.contains(t) {
        queue.push(t);
    }
    let mut visits = 1;
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let step = column.get(u) + 1;
        if step >= cap {
            continue;
        }
        for &p in dir.neighbors(g, u) {
            let old = column.get(p);
            if step < old {
                group.moved(p, old, step);
                column.set(p, step);
                visits += 1;
                if !class.contains(p) {
                    queue.push(p);
                }
            }
        }
    }
    visits
}

/// A deletion took a tight neighbour of `t`. Unless another one is left,
/// recompute the distances of `t`'s ball of radius `cap − 2` (every node
/// whose capped path can have run through the edge) from the distances
/// just outside it, then relax inside it by a bucket queue over
/// `1..cap`.
fn reset_and_relax<G: GraphView>(
    g: &G,
    class: &BitSet,
    group: &mut Group,
    mut column: Column<'_>,
    t: NodeId,
    scratch: &mut RepairScratch,
) -> usize {
    let (dir, cap) = (group.dir, group.cap);
    // the capped distance a path through `w` gives the node before it
    let via = |column: &Column<'_>, w: NodeId| {
        if class.contains(w) {
            1
        } else {
            column.get(w).saturating_add(1).min(cap)
        }
    };
    let old = column.get(t);
    let down = dir.opposite();
    if down.neighbors(g, t).iter().any(|&z| via(&column, z) == old) {
        return 0;
    }
    let RepairScratch {
        ball,
        tentative,
        buckets,
        ..
    } = scratch;
    let ball = ball.ball(g, t, cap as u32 - 2, dir);
    if tentative.len() < g.node_count() {
        tentative.resize(g.node_count(), 0);
    }
    if buckets.len() <= cap as usize {
        buckets.resize_with(cap as usize + 1, Vec::new);
    }
    let inside = |w: NodeId| ball.dist_of(w).is_some();
    for &v in ball.nodes() {
        let mut best = cap;
        for &z in down.neighbors(g, v) {
            if class.contains(z) {
                best = 1;
                break;
            }
            if !inside(z) {
                best = best.min(via(&column, z));
            }
        }
        tentative[v.index()] = best;
        if best < cap {
            buckets[best as usize].push(v);
        }
    }
    let mut visits = ball.len();
    for k in 1..cap {
        let mut level = std::mem::take(&mut buckets[k as usize]);
        for &v in &level {
            if tentative[v.index()] != k || class.contains(v) || k + 1 >= cap {
                continue;
            }
            visits += 1;
            for &p in dir.neighbors(g, v) {
                if inside(p) && k + 1 < tentative[p.index()] {
                    tentative[p.index()] = k + 1;
                    buckets[k as usize + 1].push(p);
                }
            }
        }
        level.clear();
        buckets[k as usize] = level;
    }
    for &v in ball.nodes() {
        let (old, new) = (column.get(v), tentative[v.index()]);
        if old != new {
            group.moved(v, old, new);
            column.set(v, new);
        }
    }
    visits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::walk_reach as oracle;
    use crate::csr::CsrGraph;
    use crate::generate::{erdos_renyi, NodeSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The class of `label`'s bare test on `g`.
    fn label_class<G: GraphView>(g: &G, label: Sym) -> Class {
        let members = g.nodes_with_label(label).expect("a carried label");
        let key = format!("label = {}", crate::Quoted(g.interner().resolve(label)));
        Class::new(key.into(), Some(label), Arc::new(members.clone()))
    }

    /// Chain 0 → 1 → 2 → 3 → 4 plus a back edge 4 → 0.
    fn ring5() -> DiGraph {
        let mut g = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node("x", [])).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g.add_edge(ids[4], ids[0]);
        g
    }

    #[test]
    fn sweep_matches_walk_reach_on_ring() {
        let g = ring5();
        for depth in [0u32, 1, 2, 3, u32::MAX] {
            for dir in [Direction::Forward, Direction::Backward] {
                for seed in 0..5u32 {
                    let mut seeds = BitSet::new(5);
                    seeds.insert(n(seed));
                    let (want, want_visited) = oracle(&g, &seeds, depth, dir);
                    let mut got = BitSet::new(5);
                    let visited = class_reach_sweep(&g, &seeds, depth, dir, &mut got, None);
                    assert_eq!(got, want, "seed {seed} depth {depth} {dir:?}");
                    assert_eq!(visited, want_visited, "work measure agrees");
                }
            }
        }
    }

    #[test]
    fn sweep_matches_walk_reach_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(5005);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..12 {
            let g = erdos_renyi(&mut rng, 40 + trial, 180, &spec);
            let nn = g.node_count();
            // dense seed sets force the bottom-up branch
            for (lo, hi) in [(0u32, 3u32), (0, nn as u32 / 2), (0, nn as u32)] {
                let mut seeds = BitSet::new(nn);
                for i in lo..hi {
                    seeds.insert(n(i));
                }
                for depth in [1u32, 2, 4, u32::MAX] {
                    for dir in [Direction::Forward, Direction::Backward] {
                        let (want, _) = oracle(&g, &seeds, depth, dir);
                        let mut got = BitSet::new(nn);
                        class_reach_sweep(&g, &seeds, depth, dir, &mut got, None);
                        assert_eq!(got, want, "trial {trial} depth {depth} {dir:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_handles_empty_and_stale_out() {
        let g = ring5();
        let mut out = BitSet::full(5); // stale content must be cleared
        assert_eq!(
            class_reach_sweep(&g, &BitSet::new(5), 3, Direction::Forward, &mut out, None),
            0
        );
        assert!(out.is_empty());
        assert_eq!(
            class_reach_sweep(&g, &BitSet::full(5), 0, Direction::Forward, &mut out, None),
            0
        );
        assert!(out.is_empty());
    }

    #[test]
    fn index_builds_lazily_and_memoizes() {
        let mut g = DiGraph::new();
        let a = g.add_node("A", []);
        let b1 = g.add_node("B", []);
        let b2 = g.add_node("B", []);
        g.add_edge(a, b1);
        g.add_edge(b1, b2);
        let csr = CsrGraph::snapshot(&g);
        let idx = ReachIndex::new(csr.version());
        assert_eq!(idx.version(), csr.version());
        assert!(idx.is_empty());
        assert_eq!(idx.bytes(), 0);

        let class_b = label_class(&csr, g.interner().get("B").unwrap());
        let r = idx.entry(&csr, &class_b, 2, Direction::Backward);
        // nodes with a non-empty ≤2 path to some B: a (→b1, →→b2), b1 (→b2)
        assert_eq!(r.to_vec(), vec![a, b1]);
        assert_eq!(idx.len(), 1);
        assert!(idx.bytes() > 0);

        // second lookup returns the same shared entry
        let r2 = idx.entry(&csr, &class_b, 2, Direction::Backward);
        assert!(Arc::ptr_eq(&r, &r2));
        assert_eq!(idx.len(), 1);

        // distinct keys get distinct entries
        let fwd = idx.entry(&csr, &class_b, 2, Direction::Forward);
        assert_eq!(fwd.to_vec(), vec![b2], "forward reach from the B class");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn index_bound_to_a_digraph_answers_from_its_classes() {
        // the live graph carries its own label index, so an index bound to
        // it answers like one bound to a CSR snapshot
        let mut rng = StdRng::seed_from_u64(2525);
        let spec = NodeSpec::uniform(3, 4);
        let g = erdos_renyi(&mut rng, 60, 260, &spec);
        let idx = ReachIndex::new(g.version());
        let bound = idx.bind(&g);
        for label in &spec.labels {
            let class = label_class(&g, g.interner().get(label).unwrap());
            for dir in [Direction::Forward, Direction::Backward] {
                let got = bound.class_reach(&class, 2, dir);
                assert_eq!(
                    *got,
                    oracle(&g, class.members(), 2, dir).0,
                    "{label} {dir:?}"
                );
            }
        }
        assert_eq!(idx.len(), spec.labels.len() * 2);
    }

    /// A class that is no label's — here every node with an even id —
    /// gets entries like a label class, keyed by its text; only a label
    /// class's bounded entry keeps the distances a carry needs.
    #[test]
    fn a_condition_class_is_keyed_by_its_text_and_not_carried() {
        let g = ring5();
        let mut even = BitSet::new(5);
        for i in [0, 2, 4] {
            even.insert(n(i));
        }
        let class = Class::new("even".into(), None, Arc::new(even.clone()));
        let idx = ReachIndex::new(g.version());
        let got = idx.entry(&g, &class, 1, Direction::Backward);
        assert_eq!(*got, oracle(&g, &even, 1, Direction::Backward).0);
        let same = Class::new("even".into(), None, Arc::new(even));
        assert!(Arc::ptr_eq(
            &got,
            &idx.entry(&g, &same, 1, Direction::Backward)
        ));
        let label = label_class(&g, g.interner().get("x").unwrap());
        idx.entry(&g, &label, 1, Direction::Backward);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.bytes(), 2 * 8 + g.node_count(), "one set of distances");

        let mut carry = ReachCarry::default();
        carry.begin(&idx);
        let next = carry.successor(g.version(), &idx);
        assert_eq!(next.len(), 1, "the label class's entry alone is carried");
        assert_eq!(carry.stats().dropped, 1);
    }

    #[test]
    fn bound_provider_agrees_with_direct_bfs() {
        let mut rng = StdRng::seed_from_u64(31337);
        let spec = NodeSpec::uniform(3, 4);
        let g = erdos_renyi(&mut rng, 60, 260, &spec);
        let csr = CsrGraph::snapshot(&g);
        let idx = ReachIndex::new(csr.version());
        let bound = idx.bind(&csr);
        for label in &spec.labels {
            let class = label_class(&csr, g.interner().get(label).unwrap());
            for depth in [1u32, 3, u32::MAX] {
                for dir in [Direction::Forward, Direction::Backward] {
                    let got = bound.class_reach(&class, depth, dir);
                    let (want, _) = oracle(&g, class.members(), depth, dir);
                    assert_eq!(*got, want, "{label} depth {depth} {dir:?}");
                }
            }
        }
        assert_eq!(idx.len(), spec.labels.len() * 6);
    }

    /// A client that reads one class at many distinct bounds in one
    /// version: the built entries stay within both caps (the index starts
    /// over past them), and every answer, before and after a start-over,
    /// equals a fresh sweep.
    #[test]
    fn many_distinct_bounds_stay_within_the_caps() {
        let mut rng = StdRng::seed_from_u64(1414);
        let spec = NodeSpec::uniform(3, 4);
        let g = erdos_renyi(&mut rng, 40, 90, &spec);
        let class = label_class(&g, g.interner().get(&spec.labels[0]).unwrap());
        let idx = ReachIndex::new(g.version());
        for depth in 1..=700u32 {
            for dir in [Direction::Forward, Direction::Backward] {
                let got = idx.entry(&g, &class, depth, dir);
                let mut want = BitSet::new(g.node_count());
                class_reach_sweep(&g, class.members(), depth, dir, &mut want, None);
                assert_eq!(*got, want, "depth {depth} {dir:?}");
                assert!(idx.len() <= MAX_REACH_ENTRIES, "{} entries", idx.len());
                assert!(idx.bytes() <= MAX_REACH_BYTES, "{} bytes", idx.bytes());
            }
        }
        assert_eq!(idx.resets(), 1);
        assert_eq!(idx.counters().get("built"), 1400, "one sweep per key");
    }

    /// The capped distances of a sweep are the first depth at which the
    /// walk-set reference reaches each node.
    #[test]
    fn sweep_distances_are_the_first_level_each_node_is_reached() {
        let mut rng = StdRng::seed_from_u64(4242);
        let spec = NodeSpec::uniform(3, 4);
        for trial in 0..8 {
            let g = erdos_renyi(&mut rng, 30 + trial, 70, &spec);
            let nn = g.node_count();
            let mut seeds = BitSet::new(nn);
            for i in 0..nn as u32 / 3 {
                seeds.insert(n(i));
            }
            for depth in 1u32..=4 {
                for dir in [Direction::Forward, Direction::Backward] {
                    let mut got = BitSet::new(nn);
                    let mut dist = Vec::new();
                    class_reach_sweep(&g, &seeds, depth, dir, &mut got, Some(&mut dist));
                    assert_eq!(got, oracle(&g, &seeds, depth, dir).0);
                    for v in g.ids() {
                        let first = (1..=depth)
                            .find(|&k| oracle(&g, &seeds, k, dir).0.contains(v))
                            .unwrap_or(depth + 1);
                        assert_eq!(dist[v.index()] as u32, first, "{v:?} depth {depth} {dir:?}");
                    }
                }
            }
        }
    }

    /// A carried entry follows an insert that pulls a node into the ball
    /// and a delete that takes a node's only tight successor; an entry no
    /// update moved is handed on by `Arc`, an unbounded one is dropped,
    /// and the counters see the one build per key and every handoff.
    #[test]
    fn carried_entries_are_repaired_shared_or_dropped() {
        // 0 → 1 → 2 → 3(B), and a C node 4 nobody reaches
        let mut g = DiGraph::new();
        let ids: Vec<_> = ["A", "A", "A", "B", "C"]
            .iter()
            .map(|l| g.add_node(l, []))
            .collect();
        for w in ids[..4].windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let class = |l: &str| label_class(&g, g.interner().get(l).unwrap());
        let (b, c) = (class("B"), class("C"));
        let idx = ReachIndex::new(g.version());
        let near = idx.entry(&g, &b, 2, Direction::Backward);
        assert_eq!(near.to_vec(), vec![n(1), n(2)]);
        let quiet = idx.entry(&g, &c, 2, Direction::Backward);
        idx.entry(&g, &b, u32::MAX, Direction::Backward);
        assert_eq!(idx.counters().get("built"), 3);
        let fresh = |g: &DiGraph, class: &Class, depth| {
            let mut out = BitSet::new(g.node_count());
            let members = class.members();
            class_reach_sweep(g, members, depth, Direction::Backward, &mut out, None);
            out
        };

        let mut carry = ReachCarry::default();
        carry.begin(&idx);
        carry.begin(&idx); // a batch that applied nothing takes nothing twice
                           // 0 → 2 brings 0 within two hops of 3
        let up = EdgeUpdate::Insert(n(0), n(2));
        assert!(g.apply(up));
        carry.on_update(&g, up);
        // deleting 1 → 2 takes 1's only tight successor
        let up = EdgeUpdate::Delete(n(1), n(2));
        assert!(g.apply(up));
        carry.on_update(&g, up);
        assert_eq!(carry.version(), Some(g.version()));
        let next = carry.successor(g.version(), &idx);
        assert_eq!(carry.version(), Some(next.version()));

        let got = next.entry(&g, &b, 2, Direction::Backward);
        assert_eq!(*got, fresh(&g, &b, 2));
        assert_eq!(got.to_vec(), vec![n(0), n(2)]);
        let kept = next.entry(&g, &c, 2, Direction::Backward);
        assert!(Arc::ptr_eq(&kept, &quiet), "an unmoved entry is shared");
        assert!(Arc::ptr_eq(
            &idx.entry(&g, &b, 2, Direction::Backward),
            &near
        ));
        assert_eq!(
            near.to_vec(),
            vec![n(1), n(2)],
            "the old version's entry is untouched"
        );
        assert_eq!(next.len(), 2, "the unbounded entry was not carried");
        let stats = carry.stats();
        assert_eq!((stats.shared, stats.repaired, stats.dropped), (1, 1, 1));
        assert!(stats.repair_visits > 0);
        assert_eq!(next.counters().get("carried"), 2);
        assert!(next.bytes() >= 2 * (8 + g.node_count()));
        next.entry(&g, &b, u32::MAX, Direction::Backward);
        assert_eq!(
            next.counters().get("built"),
            4,
            "counters are shared by the line"
        );

        // a handoff that moved nothing shares the list of carried entries
        carry.begin(&next);
        let again = carry.successor(next.version(), &next);
        assert!(Arc::ptr_eq(&again.carried, &next.carried));
        assert_eq!(again.len(), 2, "the unbounded entry is not carried");

        // a carry that does not describe the version hands on nothing
        carry.begin(&next);
        assert!(g.apply(EdgeUpdate::Insert(n(3), n(4))));
        assert!(carry.successor(g.version(), &next).is_empty());
    }
}
