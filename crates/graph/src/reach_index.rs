//! Class-reachability index, one per graph version, and the bounded
//! distance columns the graph's writer carries from version to version.
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
//! ## Carried columns
//!
//! A bounded entry (`b` at most [`MAX_CARRIED_BOUND`]) that a reader
//! sweeps also keeps each node's capped distance `d(w)`: the length of its
//! shortest non-empty path to (`Backward`) or from (`Forward`) the class,
//! with `b + 1` standing for "farther". Its reach set is `{w : d(w) ≤ b}`.
//! [`ReachCarry`] takes those distances from the index the writer last
//! published — of label classes and condition classes alike — as one
//! column per distinct member set and direction, capped at the largest
//! bound read (a smaller bound's reach set is a threshold of the same
//! column, and two conditions with the same members share it), repairs
//! every column after each update the writer applies, and is shared with
//! the next version's index. A reader whose key that version's index has
//! not built yet thresholds the carried column instead of sweeping — but
//! only when the carry still describes the reader's version and no writer
//! holds it ([`Mutex::try_lock`]); otherwise it sweeps. So a reader never
//! waits for the writer and never answers from another version.
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
//! relax). Both repairs serve every column of a direction in one
//! traversal, a node's whole row at a time. Unbounded entries and the
//! quotient's index are not carried: each version rebuilds them on first
//! use.
//!
//! ## Expiry
//!
//! A column makes every later update pay its repair, read or not. At the
//! start of a batch the carry drops a column once the repair visits
//! charged to it since a reader last used it exceed the visits of the
//! sweep that built it — the ski-rental rule, which never pays more than
//! twice what the better choice in hindsight (keep repairing, or sweep
//! again on the next read) would have paid. The columns also stay within
//! [`MAX_REACH_BYTES`].
//!
//! The index itself does not hold the graph (entries are built against
//! whatever [`GraphView`] the caller binds with [`ReachIndex::bind`]);
//! the caller guarantees the binding matches [`ReachIndex::version`] —
//! the engine's per-version snapshot is that guarantee.

use crate::bfs::{BfsScratch, Direction};
use crate::bfs_frontier::FrontierScratch;
use crate::bitset::BitSet;
use crate::counters::Counters;
use crate::digraph::{Class, DiGraph, EdgeUpdate};
use crate::memo::Memo;
use crate::view::GraphView;
use crate::NodeId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Source of class-reach sets consulted by the matching fixpoint before
/// it falls back to a frontier BFS.
pub trait ReachProvider {
    /// The set of nodes with a non-empty path of length `1..=depth` (in
    /// direction `dir`, seen from the class) to some member of `class`.
    fn class_reach(&self, class: &Class, depth: u32, dir: Direction) -> Arc<BitSet>;
}

/// The largest bound whose entries are carried across versions: a carried
/// column stores its capped distances one `u8` per node, `b + 1` meaning
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
/// keep, and most bytes one graph's [`ReachCarry`] keeps.
pub const MAX_REACH_BYTES: usize = 64 << 20;

/// One entry a reader built or thresholded.
#[derive(Debug)]
struct Entry {
    /// What the fixpoints consume.
    reach: Arc<BitSet>,
    /// What a sweep of a bounded key leaves for the writer to carry on;
    /// `None` for an unbounded key and for one thresholded from the
    /// carry.
    swept: Option<Swept>,
}

/// A bounded sweep's by-products.
#[derive(Debug)]
struct Swept {
    members: Arc<BitSet>,
    /// Capped distances, as [`class_reach_sweep`] leaves them.
    dist: Vec<u8>,
    /// Nodes the sweep visited.
    visits: usize,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.reach.words().len() * 8 + self.swept.as_ref().map_or(0, |s| s.dist.len())
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
/// * `carried` — entries a reader thresholded from the writer's carried
///   columns ([`ReachCarry`]) instead of sweeping.
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
/// costs this version sweeps, not memory. An index the writer published
/// also holds the writer's [`ReachCarry`], which a bounded key's first
/// read thresholds when it can.
#[derive(Debug)]
pub struct ReachIndex {
    /// Graph version the entries describe; the owner's invalidation key.
    version: u64,
    /// What readers built or thresholded at this version.
    built: Memo<Key, Arc<Entry>>,
    /// The columns of the graph's writer, shared by every index it
    /// published.
    carry: Option<Arc<Mutex<ReachCarry>>>,
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
            built: Memo::new(MAX_REACH_ENTRIES, MAX_REACH_BYTES),
            carry: None,
            counters,
        }
    }

    /// An empty index for `version` that counts into `counters` and
    /// thresholds `carry`'s columns while they describe `version`.
    pub fn carried(
        version: u64,
        counters: Arc<IndexCounters>,
        carry: Arc<Mutex<ReachCarry>>,
    ) -> ReachIndex {
        ReachIndex {
            carry: Some(carry),
            ..ReachIndex::counting(version, counters)
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

    /// Number of memoized entries, plus the carry's columns (it locks
    /// the carry).
    pub fn len(&self) -> usize {
        self.built.len() + self.carry.as_ref().map_or(0, |c| lock(c).len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes retained by the memoized entries (bitsets and distances),
    /// plus the carry's (it locks the carry).
    pub fn bytes(&self) -> usize {
        self.built.bytes() + self.carry.as_ref().map_or(0, |c| lock(c).bytes())
    }

    /// How often this version's built entries started over.
    pub fn resets(&self) -> u64 {
        self.built.resets()
    }

    /// The entry for `(class, depth, dir)`, built against `g` on first
    /// use: thresholded from the carry's column if it can be, and swept
    /// from the class's members otherwise. `g` **must** be the graph
    /// version this index was created for, and `class` one of its classes
    /// (the engine guarantees both by binding each snapshot's graph to
    /// that snapshot's index). A bounded sweep keeps the distances a
    /// [`ReachCarry`] needs to carry it.
    pub fn entry<G: GraphView>(
        &self,
        g: &G,
        class: &Class,
        depth: u32,
        dir: Direction,
    ) -> Arc<BitSet> {
        let key = (Arc::clone(class.key()), depth, dir);
        if let Some(hit) = self.built.get(&key) {
            return Arc::clone(&hit.reach);
        }
        let bounded = (1..=MAX_CARRIED_BOUND).contains(&depth);
        let entry = match bounded.then(|| self.threshold(class, depth, dir)).flatten() {
            Some(reach) => {
                self.counters.add(CARRIED, 1);
                Entry {
                    reach: Arc::new(reach),
                    swept: None,
                }
            }
            None => {
                let mut reach = BitSet::new(g.node_count());
                let mut dist = bounded.then(Vec::new);
                let members = class.members();
                let visits = class_reach_sweep(g, members, depth, dir, &mut reach, dist.as_mut());
                self.counters.add(BUILT, 1);
                Entry {
                    reach: Arc::new(reach),
                    swept: dist.map(|dist| Swept {
                        members: Arc::clone(members),
                        dist,
                        visits,
                    }),
                }
            }
        };
        let bytes = entry.bytes();
        Arc::clone(&self.built.insert(key, Arc::new(entry), bytes).reach)
    }

    /// The carry's column for the key thresholded at `depth`, if no
    /// writer holds the carry and it describes this version.
    fn threshold(&self, class: &Class, depth: u32, dir: Direction) -> Option<BitSet> {
        let mut carry = self.carry.as_ref()?.try_lock().ok()?;
        carry.threshold(self.version, class, depth, dir)
    }

    /// Bind the index to the graph version it was built for, yielding the
    /// [`ReachProvider`] the matching fixpoints consume.
    pub fn bind<'a, G: GraphView>(&'a self, g: &'a G) -> BoundReachIndex<'a, G> {
        BoundReachIndex { index: self, g }
    }
}

/// `carry`, locked. If a holder panicked, a repair may have stopped
/// half way, so the columns are dropped and the lock made usable again (a
/// reader's `try_lock` fails on a poisoned lock, and it sweeps).
pub fn lock(carry: &Mutex<ReachCarry>) -> MutexGuard<'_, ReachCarry> {
    carry.lock().unwrap_or_else(|poisoned| {
        let mut columns = poisoned.into_inner();
        columns.clear();
        carry.clear_poison();
        columns
    })
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
    /// Swept entries taken on: as a new column, as a new key of a column
    /// with the same members, or as a larger bound for one.
    pub adopted: u64,
    /// Columns dropped because their repairs since a reader last used
    /// them cost more than the sweep that built them.
    pub expired: u64,
    /// Nodes the repairs visited: each node a decrease lowered, and each
    /// node of a deletion's ball plus each one its relaxation scanned.
    pub repair_visits: u64,
}

/// One carried column: the capped distances to or from one member set.
#[derive(Debug)]
struct Column {
    members: Arc<BitSet>,
    /// The texts of the conditions with these members that readers read.
    keys: Vec<Arc<str>>,
    /// One more than the largest bound the column answers.
    cap: u8,
    /// The column-major copy of the distances, which readers threshold;
    /// every repair writes it beside the node-major table.
    dist: Vec<u8>,
    /// Nodes the sweep that built the column visited.
    sweep_visits: u64,
    /// Repair visits charged to the column since a reader last used it.
    charged: u64,
}

impl Column {
    /// The capped distance a path through `w` gives the node before it.
    #[inline]
    fn via(&self, w: NodeId, d: u8) -> u8 {
        if self.members.contains(w) {
            1
        } else {
            d.saturating_add(1).min(self.cap)
        }
    }

    /// The radius of the ball a deletion can move: every node whose
    /// capped path can have run through the edge.
    #[inline]
    fn radius(&self) -> u32 {
        self.cap as u32 - 2
    }
}

/// The columns of one direction, whose distances of a node sit in one
/// row of a node-major table, so that screening an update for all of them
/// reads the two rows of its endpoints and one traversal repairs them
/// all.
#[derive(Debug)]
struct Side {
    dir: Direction,
    columns: Vec<Column>,
    /// Column `c`'s distance of node `v` at `v * columns.len() + c`.
    table: Vec<u8>,
}

impl Side {
    fn new(dir: Direction) -> Side {
        Side {
            dir,
            columns: Vec::new(),
            table: Vec::new(),
        }
    }

    /// Write node `v`'s distance in column `c`, in both layouts.
    #[inline]
    fn set(&mut self, v: NodeId, c: usize, d: u8) {
        self.table[v.index() * self.columns.len() + c] = d;
        self.columns[c].dist[v.index()] = d;
    }

    /// Rebuild the table from the columns' copies.
    fn relayout(&mut self, n: usize) {
        let stride = self.columns.len();
        self.table.clear();
        self.table.reserve(n * stride);
        for v in 0..n {
            self.table.extend(self.columns.iter().map(|c| c.dist[v]));
        }
    }
}

/// The index of `dir`'s side.
fn side_of(dir: Direction) -> usize {
    match dir {
        Direction::Forward => 0,
        Direction::Backward => 1,
    }
}

/// Reused traversal state of the repairs.
#[derive(Debug, Default)]
struct RepairScratch {
    ball: BfsScratch,
    /// FIFO of a decrease.
    queue: Vec<NodeId>,
    /// Whether a node is in `queue`.
    queued: Vec<bool>,
    /// The columns a deletion moves.
    affected: Vec<usize>,
    /// Per column of a row, the distance it passes to the nodes that read
    /// it (`u8::MAX`: none).
    feed: Vec<u8>,
    /// Bucket queue of a deletion's relaxation, by distance.
    buckets: Vec<Vec<NodeId>>,
    /// The level a deletion's relaxation last scanned a node at.
    done: Vec<u8>,
}

/// The bounded columns of one graph's reach index, carried by the graph's
/// writer from version to version: [`ReachCarry::begin`] takes the ones
/// readers swept in the index the writer last published,
/// [`ReachCarry::on_update`] repairs all of them after every update the
/// writer applies, and each index the writer publishes holds the carry
/// ([`ReachIndex::carried`]) for its readers to threshold. Exact: after
/// every update each column equals a fresh [`class_reach_sweep`] of the
/// updated graph at its bound.
///
/// One value serves one graph for its whole life, so its tables and the
/// repair scratch are allocated once.
#[derive(Debug)]
pub struct ReachCarry {
    /// The graph version the columns describe; `None` while nothing is
    /// carried.
    version: Option<u64>,
    /// Node count of that version.
    nodes: usize,
    /// Forward, then Backward.
    sides: [Side; 2],
    /// Each carried key's column within its direction's side.
    keys: HashMap<(Arc<str>, Direction), usize>,
    max_bytes: usize,
    scratch: RepairScratch,
    stats: CarryStats,
}

impl Default for ReachCarry {
    fn default() -> ReachCarry {
        ReachCarry {
            version: None,
            nodes: 0,
            sides: [
                Side::new(Direction::Forward),
                Side::new(Direction::Backward),
            ],
            keys: HashMap::new(),
            max_bytes: MAX_REACH_BYTES,
            scratch: RepairScratch::default(),
            stats: CarryStats::default(),
        }
    }
}

/// One carried column as [`ReachCarry::columns`] shows it.
#[derive(Debug)]
pub struct CarriedColumn<'a> {
    pub dir: Direction,
    /// The largest bound the column answers.
    pub bound: u32,
    pub members: &'a BitSet,
    /// The copy readers threshold.
    pub dist: &'a [u8],
    /// The same column as the repairs read it, from the node-major table.
    pub rows: Vec<u8>,
}

impl ReachCarry {
    /// Carry `index`'s bounded columns from its version on: drop the
    /// columns that expired, and take on what readers swept in `index`.
    /// If the columns do not describe `index`'s version, they are dropped
    /// first.
    pub fn begin(&mut self, index: &ReachIndex) {
        if self.version != Some(index.version) {
            self.clear();
            self.version = Some(index.version);
        }
        let mut moved = self.expire();
        let mut swept: Vec<(Key, Arc<Entry>)> = index
            .built
            .entries()
            .into_iter()
            .filter(|(_, e)| e.swept.is_some())
            .collect();
        // adopted in one order whatever the memo's
        swept.sort_by_key(|((text, b, dir), _)| (Arc::clone(text), *b, side_of(*dir)));
        for ((text, b, dir), entry) in swept {
            let s = entry.swept.as_ref().expect("filtered");
            if self.is_empty() {
                self.nodes = s.dist.len();
            }
            debug_assert_eq!(self.nodes, s.dist.len(), "one version, one node count");
            let i = side_of(dir);
            let found = self.sides[i]
                .columns
                .iter()
                .position(|c| same(&c.members, &s.members));
            let c = match found {
                Some(c) => c,
                None if self.bytes() + column_bytes(self.nodes) > self.max_bytes => continue,
                None => {
                    let columns = &mut self.sides[i].columns;
                    columns.push(Column {
                        members: Arc::clone(&s.members),
                        keys: Vec::new(),
                        cap: 0,
                        dist: Vec::new(),
                        sweep_visits: 0,
                        charged: 0,
                    });
                    columns.len() - 1
                }
            };
            let column = &mut self.sides[i].columns[c];
            // a sweep is a use
            column.charged = 0;
            let raised = b as u8 + 1 > column.cap;
            if raised {
                column.cap = b as u8 + 1;
                column.dist.clone_from(&s.dist);
                column.sweep_visits = s.visits as u64;
                moved[i] = true;
            }
            let named = !column.keys.contains(&text);
            if named {
                column.keys.push(Arc::clone(&text));
                self.keys.insert((text, dir), c);
            }
            if raised || named {
                self.stats.adopted += 1;
            }
        }
        for (side, moved) in self.sides.iter_mut().zip(moved) {
            if moved {
                side.relayout(self.nodes);
            }
        }
    }

    /// Drop every column whose repairs since a reader last used it cost
    /// more than the sweep that built it; returns the sides that lost one.
    fn expire(&mut self) -> [bool; 2] {
        let mut moved = [false; 2];
        for (side, moved) in self.sides.iter_mut().zip(&mut moved) {
            let before = side.columns.len();
            side.columns.retain(|c| c.charged <= c.sweep_visits);
            self.stats.expired += (before - side.columns.len()) as u64;
            *moved = side.columns.len() < before;
        }
        if moved.contains(&true) {
            self.keys.clear();
            for side in &self.sides {
                for (c, column) in side.columns.iter().enumerate() {
                    for key in &column.keys {
                        self.keys.insert((Arc::clone(key), side.dir), c);
                    }
                }
            }
        }
        moved
    }

    /// Carry nothing.
    pub fn clear(&mut self) {
        self.version = None;
        self.nodes = 0;
        for side in &mut self.sides {
            side.columns.clear();
            side.table.clear();
        }
        self.keys.clear();
    }

    /// The graph version the carried columns describe, if any do.
    pub fn version(&self) -> Option<u64> {
        self.version
    }

    /// The carried columns.
    pub fn columns(&self) -> impl Iterator<Item = CarriedColumn<'_>> {
        self.sides.iter().flat_map(|side| {
            let stride = side.columns.len();
            side.columns
                .iter()
                .enumerate()
                .map(move |(c, col)| CarriedColumn {
                    dir: side.dir,
                    bound: col.cap as u32 - 1,
                    members: &col.members,
                    dist: &col.dist,
                    rows: side.table.iter().skip(c).step_by(stride).copied().collect(),
                })
        })
    }

    /// Number of carried columns.
    pub fn len(&self) -> usize {
        self.sides.iter().map(|s| s.columns.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the columns retain: two layouts of each, and its member set.
    pub fn bytes(&self) -> usize {
        self.len() * column_bytes(self.nodes)
    }

    /// Cumulative counts.
    pub fn stats(&self) -> CarryStats {
        self.stats
    }

    /// `class`'s column thresholded at `depth`, when the columns describe
    /// `version` and one answers `depth` for `class`'s key: a use of the
    /// column.
    fn threshold(
        &mut self,
        version: u64,
        class: &Class,
        depth: u32,
        dir: Direction,
    ) -> Option<BitSet> {
        if self.version != Some(version) {
            return None;
        }
        let &c = self.keys.get(&(Arc::clone(class.key()), dir))?;
        let column = &mut self.sides[side_of(dir)].columns[c];
        if depth >= column.cap as u32 || !same(&column.members, class.members()) {
            return None;
        }
        column.charged = 0;
        Some(threshold(&column.dist, depth as u8))
    }

    /// Repair every carried column for `up`, which `g` has just applied
    /// (a no-op update must not be passed). `g` must be the graph the
    /// columns described before it.
    pub fn on_update(&mut self, g: &DiGraph, up: EdgeUpdate) {
        if self.version.is_none() {
            return;
        }
        if !self.is_empty() && self.nodes != g.node_count() {
            // nodes came or went under the columns: rebuild them instead
            self.clear();
            return;
        }
        let (x, y, insert) = match up {
            EdgeUpdate::Insert(x, y) => (x, y, true),
            EdgeUpdate::Delete(x, y) => (x, y, false),
        };
        for side in &mut self.sides {
            if side.columns.is_empty() {
                continue;
            }
            // `t`'s distance reads `h` across the edge, seen from the class
            let (t, h) = match side.dir {
                Direction::Backward => (x, y),
                Direction::Forward => (y, x),
            };
            let visits = if insert {
                lower(g, side, t, h, &mut self.scratch)
            } else {
                raise(g, side, t, h, &mut self.scratch)
            };
            self.stats.repair_visits += visits as u64;
        }
        self.version = Some(g.version());
    }
}

/// Whether two member sets are one.
fn same(a: &Arc<BitSet>, b: &Arc<BitSet>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// Bytes one column of a graph of `n` nodes retains.
fn column_bytes(n: usize) -> usize {
    2 * n + n.div_ceil(64) * 8
}

/// The reach set `{w : dist[w] ≤ depth}`, 8 distances per step: a
/// byte's top bit marks it at most `depth`, and one multiply gathers the
/// 8 top bits into 8 adjacent bits.
fn threshold(dist: &[u8], depth: u8) -> BitSet {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let ones = |b: u8| u64::from_ne_bytes([b; 8]);
    // `d ≤ depth` on bytes: with `lo` the low 7 bits, `(lo | 0x80) − k`
    // keeps its top bit exactly when `lo ≥ k`, and no byte borrows
    let at_most = |x: u64| {
        let (hi, lo) = (x & HIGH, (x & !HIGH) | HIGH);
        if depth < 0x80 {
            !((lo - ones(depth + 1)) | hi) & HIGH
        } else {
            let far = (lo - ones(depth - 0x7f)) & hi;
            !far & HIGH
        }
    };
    let words = dist
        .chunks(64)
        .map(|chunk| {
            let mut word = 0u64;
            for (i, bytes) in chunk.chunks(8).enumerate() {
                let mut eight = [u8::MAX; 8];
                eight[..bytes.len()].copy_from_slice(bytes);
                let marks = at_most(u64::from_le_bytes(eight)) >> 7;
                word |= (marks.wrapping_mul(GATHER) >> 56) << (8 * i);
            }
            word
        })
        .collect();
    BitSet::from_words(dist.len(), words)
}

/// An inserted edge `t → h` (seen from the class): lower `t`'s distance
/// in every column where the edge shortens it, then every distance that
/// reads a lowered one, breadth-first from `t`, a row at a time.
fn lower(g: &DiGraph, side: &mut Side, t: NodeId, h: NodeId, scratch: &mut RepairScratch) -> usize {
    let stride = side.columns.len();
    let (row_t, row_h) = (t.index() * stride, h.index() * stride);
    let mut moved = false;
    for c in 0..stride {
        let via = side.columns[c].via(h, side.table[row_h + c]);
        if via < side.table[row_t + c] {
            side.set(t, c, via);
            side.columns[c].charged += 1;
            moved = true;
        }
    }
    if !moved {
        return 0;
    }
    let RepairScratch {
        queue,
        queued,
        feed,
        ..
    } = scratch;
    if queued.len() < g.node_count() {
        queued.resize(g.node_count(), false);
    }
    queue.clear();
    queue.push(t);
    queued[t.index()] = true;
    let mut visits = 1;
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        queued[u.index()] = false;
        // a class member's own distance feeds nobody: they read its 0
        let row = u.index() * stride;
        feed.clear();
        feed.extend(side.columns.iter().enumerate().map(|(c, col)| {
            let step = side.table[row + c].saturating_add(1);
            if col.members.contains(u) || step >= col.cap {
                u8::MAX
            } else {
                step
            }
        }));
        if feed.iter().all(|&f| f == u8::MAX) {
            continue;
        }
        for &p in side.dir.neighbors(g, u) {
            let mut lowered = false;
            for (c, &step) in feed.iter().enumerate() {
                if step < side.table[p.index() * stride + c] {
                    side.set(p, c, step);
                    side.columns[c].charged += 1;
                    lowered = true;
                }
            }
            if lowered && !queued[p.index()] {
                queued[p.index()] = true;
                queue.push(p);
                visits += 1;
            }
        }
    }
    visits
}

/// A deleted edge `t → h` (seen from the class): in every column where
/// `h` was `t`'s only tight neighbour, recompute the distances of `t`'s
/// ball of the column's radius from the distances just outside it, then
/// relax inside it by a bucket queue — one ball and one relaxation for
/// all those columns, a row at a time.
fn raise(g: &DiGraph, side: &mut Side, t: NodeId, h: NodeId, scratch: &mut RepairScratch) -> usize {
    let stride = side.columns.len();
    let (row_t, row_h) = (t.index() * stride, h.index() * stride);
    let (dir, down) = (side.dir, side.dir.opposite());
    let RepairScratch {
        ball,
        affected,
        feed,
        buckets,
        done,
        ..
    } = scratch;
    affected.clear();
    affected.extend((0..stride).filter(|&c| {
        let (col, old) = (&side.columns[c], side.table[row_t + c]);
        old < col.cap && col.via(h, side.table[row_h + c]) == old
    }));
    // another tight neighbour keeps `t`'s distance
    for &z in down.neighbors(g, t) {
        if affected.is_empty() {
            return 0;
        }
        let row_z = z.index() * stride;
        affected
            .retain(|&c| side.columns[c].via(z, side.table[row_z + c]) != side.table[row_t + c]);
    }
    let Some(radius) = affected.iter().map(|&c| side.columns[c].radius()).max() else {
        return 0;
    };
    let top = radius as usize + 2;
    let ball = ball.ball(g, t, radius, dir);
    if done.len() < g.node_count() {
        done.resize(g.node_count(), 0);
    }
    if buckets.len() <= top {
        buckets.resize_with(top + 1, Vec::new);
    }
    let hop = |w: NodeId| ball.dist_of(w).unwrap_or(u32::MAX);
    // reset each moved column inside its radius to what the nodes just
    // outside give
    for &v in ball.nodes() {
        done[v.index()] = 0;
        let (hv, row) = (hop(v), v.index() * stride);
        let mut inside = false;
        for &c in affected.iter() {
            if hv <= side.columns[c].radius() {
                side.table[row + c] = side.columns[c].cap;
                inside = true;
            }
        }
        if !inside {
            continue;
        }
        for &z in down.neighbors(g, v) {
            let (hz, row_z) = (hop(z), z.index() * stride);
            for &c in affected.iter() {
                let col = &side.columns[c];
                let r = col.radius();
                if hv > r || (hz <= r && !col.members.contains(z)) {
                    continue;
                }
                let via = col.via(z, side.table[row_z + c]);
                side.table[row + c] = side.table[row + c].min(via);
            }
        }
        for &c in affected.iter() {
            if hv <= side.columns[c].radius() {
                let d = side.table[row + c];
                side.set(v, c, d);
                side.columns[c].charged += 1;
                if d < side.columns[c].cap {
                    buckets[d as usize].push(v);
                }
            }
        }
    }
    let mut visits = ball.len();
    for k in 1..top as u8 {
        let mut level = std::mem::take(&mut buckets[k as usize]);
        for &v in &level {
            if done[v.index()] == k {
                continue;
            }
            done[v.index()] = k;
            let (hv, row) = (hop(v), v.index() * stride);
            feed.clear();
            feed.extend(affected.iter().map(|&c| {
                let col = &side.columns[c];
                let live = hv <= col.radius() && side.table[row + c] == k;
                if live && !col.members.contains(v) && k + 1 < col.cap {
                    k + 1
                } else {
                    u8::MAX
                }
            }));
            if feed.iter().all(|&f| f == u8::MAX) {
                continue;
            }
            visits += 1;
            for &p in dir.neighbors(g, v) {
                let hp = hop(p);
                for (&c, &step) in affected.iter().zip(feed.iter()) {
                    let in_ball = hp <= side.columns[c].radius();
                    if in_ball && step < side.table[p.index() * stride + c] {
                        side.set(p, c, step);
                        side.columns[c].charged += 1;
                        buckets[step as usize].push(p);
                    }
                }
            }
        }
        level.clear();
        buckets[k as usize] = level;
    }
    visits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Sym;
    use crate::bfs::tests::walk_reach as oracle;
    use crate::csr::CsrGraph;
    use crate::generate::random_updates;
    use crate::generate::{erdos_renyi, NodeSpec};
    use rand::rngs::StdRng;
    use rand::Rng;
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

    /// A writer's carry, as the engine shares it with its indexes.
    fn shared() -> Arc<Mutex<ReachCarry>> {
        Arc::new(Mutex::new(ReachCarry::default()))
    }

    /// The index the writer holding `carry` publishes for `g` after
    /// `prev`.
    fn publish(g: &DiGraph, prev: &ReachIndex, carry: &Arc<Mutex<ReachCarry>>) -> ReachIndex {
        ReachIndex::carried(g.version(), Arc::clone(prev.counters()), Arc::clone(carry))
    }

    /// A class that is no label's — here every node with an even id —
    /// gets entries like a label class, keyed by its text, and is carried
    /// like one: two conditions whose classes have the same members share
    /// one column, and the next version thresholds every key it answers.
    #[test]
    fn a_condition_class_is_keyed_by_its_text_and_carried_by_its_members() {
        let g = ring5();
        let mut even = BitSet::new(5);
        for i in [0, 2, 4] {
            even.insert(n(i));
        }
        let class = Class::new("even".into(), None, Arc::new(even.clone()));
        let idx = ReachIndex::new(g.version());
        let got = idx.entry(&g, &class, 1, Direction::Backward);
        assert_eq!(*got, oracle(&g, &even, 1, Direction::Backward).0);
        let same = Class::new("even".into(), None, Arc::new(even.clone()));
        assert!(Arc::ptr_eq(
            &got,
            &idx.entry(&g, &same, 1, Direction::Backward)
        ));
        let twin = Class::new("twin".into(), None, Arc::new(even));
        idx.entry(&g, &twin, 2, Direction::Backward);
        let label = label_class(&g, g.interner().get("x").unwrap());
        idx.entry(&g, &label, 1, Direction::Backward);
        idx.entry(&g, &label, u32::MAX, Direction::Backward);
        assert_eq!(idx.len(), 4);
        assert_eq!(
            idx.bytes(),
            4 * 8 + 3 * g.node_count(),
            "three bounded sweeps keep distances"
        );

        let carry = shared();
        lock(&carry).begin(&idx);
        assert_eq!(lock(&carry).len(), 2, "one column per member set");
        assert_eq!(lock(&carry).stats().adopted, 3);
        let next = publish(&g, &idx, &carry);
        for (class, depth) in [(&class, 2), (&twin, 1), (&label, 1)] {
            let got = next.entry(&g, class, depth, Direction::Backward);
            assert_eq!(
                *got,
                oracle(&g, class.members(), depth, Direction::Backward).0
            );
        }
        assert_eq!(next.counters().get("carried"), 3);
        assert_eq!(
            next.counters().get("built"),
            4,
            "the next version swept nothing"
        );
        // past the column's bound, and unbounded, a reader sweeps
        next.entry(&g, &label, 2, Direction::Backward);
        next.entry(&g, &label, u32::MAX, Direction::Backward);
        assert_eq!(next.counters().get("built"), 6);
        assert_eq!(next.len(), 5 + 2, "five entries and two columns");
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

    /// A carried column follows an insert that pulls a node into the ball
    /// and a delete that takes a node's only tight successor; the next
    /// version's reader thresholds it, an unbounded entry is swept again,
    /// the old version's entries stay as they were, and the counters see
    /// one build per key and every threshold. An index the carry has moved
    /// past sweeps instead, on its own graph.
    #[test]
    fn carried_columns_follow_an_insert_and_a_delete() {
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
        let back = Direction::Backward;
        let idx = ReachIndex::new(g.version());
        let near = idx.entry(&g, &b, 2, back);
        assert_eq!(near.to_vec(), vec![n(1), n(2)]);
        let quiet = idx.entry(&g, &c, 2, back);
        idx.entry(&g, &b, u32::MAX, back);
        assert_eq!(idx.counters().get("built"), 3);
        let fresh = |g: &DiGraph, class: &Class, depth| oracle(g, class.members(), depth, back).0;

        let carry = shared();
        lock(&carry).begin(&idx);
        lock(&carry).begin(&idx); // a batch that applied nothing takes nothing twice
        assert_eq!(lock(&carry).stats().adopted, 2);
        // 0 → 2 brings 0 within two hops of 3
        let up = EdgeUpdate::Insert(n(0), n(2));
        assert!(g.apply(up));
        lock(&carry).on_update(&g, up);
        // deleting 1 → 2 takes 1's only tight successor
        let up = EdgeUpdate::Delete(n(1), n(2));
        assert!(g.apply(up));
        lock(&carry).on_update(&g, up);
        assert_eq!(lock(&carry).version(), Some(g.version()));
        let next = publish(&g, &idx, &carry);

        let got = next.entry(&g, &b, 2, back);
        assert_eq!(*got, fresh(&g, &b, 2));
        assert_eq!(got.to_vec(), vec![n(0), n(2)]);
        assert_eq!(*next.entry(&g, &c, 2, back), *quiet);
        assert_eq!(*next.entry(&g, &b, 1, back), fresh(&g, &b, 1));
        assert!(Arc::ptr_eq(&idx.entry(&g, &b, 2, back), &near));
        assert_eq!(
            near.to_vec(),
            vec![n(1), n(2)],
            "the old version's entry is untouched"
        );
        assert!(lock(&carry).stats().repair_visits > 0);
        assert_eq!(next.counters().get("carried"), 3);
        assert_eq!(
            next.counters().get("built"),
            3,
            "counters are shared by the line"
        );
        next.entry(&g, &b, u32::MAX, back);
        assert_eq!(
            next.counters().get("built"),
            4,
            "the unbounded entry is swept"
        );
        assert!(next.bytes() >= 2 * 2 * g.node_count());

        // the writer moves on: `next`'s readers sweep their own version
        let held = g.clone();
        lock(&carry).begin(&next);
        let up = EdgeUpdate::Insert(n(3), n(4));
        assert!(g.apply(up));
        lock(&carry).on_update(&g, up);
        let got = next.entry(&held, &c, 1, back);
        assert_eq!(*got, fresh(&held, &c, 1));
        assert_ne!(*got, fresh(&g, &c, 1), "the update moved the column");
        assert_eq!(next.counters().get("built"), 5);
        assert_eq!(next.counters().get("carried"), 3);
    }

    /// The ski-rental rule: a 254-bound column nobody reads is dropped
    /// once its repairs since it was built outgrow its sweep, while one a
    /// reader thresholds at every version stays through the same stream.
    #[test]
    fn an_unread_column_expires_and_a_read_one_stays() {
        let mut rng = StdRng::seed_from_u64(77);
        let spec = NodeSpec::uniform(2, 4);
        let mut g = erdos_renyi(&mut rng, 60, 150, &spec);
        let class = |l: &str| label_class(&g, g.interner().get(l).unwrap());
        let (unread, read) = (class(&spec.labels[0]), class(&spec.labels[1]));
        let (b, back) = (MAX_CARRIED_BOUND, Direction::Backward);
        let mut idx = ReachIndex::new(g.version());
        idx.entry(&g, &unread, b, back);
        idx.entry(&g, &read, b, back);
        let carry = shared();
        let updates = random_updates(&mut rng, &g, 400, 0.5);
        for batch in updates.chunks(4) {
            let mut writer = lock(&carry);
            writer.begin(&idx);
            for &up in batch {
                if g.apply(up) {
                    writer.on_update(&g, up);
                }
            }
            drop(writer);
            idx = publish(&g, &idx, &carry);
            let got = idx.entry(&g, &read, b, back);
            assert_eq!(*got, oracle(&g, read.members(), b, back).0);
        }
        lock(&carry).begin(&idx);
        let writer = lock(&carry);
        assert_eq!(writer.stats().expired, 1);
        let kept: Vec<_> = writer.columns().collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].members, &**read.members());
        assert_eq!(
            idx.counters().get("built"),
            2,
            "the read column was never swept again"
        );
        assert_eq!(idx.counters().get("carried"), 100);
    }

    /// The columns stay within the carry's byte cap: a swept entry whose
    /// column would cross it is not taken on, and its key is swept at the
    /// next version like any key nobody carries.
    #[test]
    fn the_columns_stay_within_the_byte_cap() {
        let mut rng = StdRng::seed_from_u64(88);
        let spec = NodeSpec::uniform(4, 4);
        let g = erdos_renyi(&mut rng, 40, 120, &spec);
        let classes: Vec<Class> = spec
            .labels
            .iter()
            .map(|l| label_class(&g, g.interner().get(l).unwrap()))
            .collect();
        let dirs = [Direction::Forward, Direction::Backward];
        let idx = ReachIndex::new(g.version());
        for class in &classes {
            for dir in dirs {
                idx.entry(&g, class, 2, dir);
            }
        }
        let carry = shared();
        let cap = 3 * column_bytes(g.node_count());
        lock(&carry).max_bytes = cap;
        lock(&carry).begin(&idx);
        assert_eq!(lock(&carry).len(), 3);
        assert!(lock(&carry).bytes() <= cap);
        let next = publish(&g, &idx, &carry);
        for class in &classes {
            for dir in dirs {
                let got = next.entry(&g, class, 2, dir);
                assert_eq!(*got, oracle(&g, class.members(), 2, dir).0);
            }
        }
        assert_eq!(next.counters().get("carried"), 3);
        assert_eq!(next.counters().get("built"), 8 + 5);
    }

    /// A holder that panicked may have left a repair half done: until the
    /// next lock a reader sweeps, and that lock drops the columns and
    /// makes the carry usable again.
    #[test]
    fn a_poisoned_carry_drops_its_columns() {
        let g = ring5();
        let class = label_class(&g, g.interner().get("x").unwrap());
        let back = Direction::Backward;
        let idx = ReachIndex::new(g.version());
        idx.entry(&g, &class, 2, back);
        let carry = shared();
        lock(&carry).begin(&idx);
        let next = publish(&g, &idx, &carry);
        let failed = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = carry.lock();
                panic!("a repair failed");
            })
            .join()
        });
        assert!(failed.is_err() && carry.is_poisoned());
        let got = next.entry(&g, &class, 1, back);
        assert_eq!(*got, oracle(&g, class.members(), 1, back).0);
        assert_eq!(next.counters().get("carried"), 0, "the reader swept");
        assert!(lock(&carry).is_empty());
        assert!(!carry.is_poisoned());
    }

    /// Thresholding 8 distances per step marks exactly the nodes at most
    /// the bound away, at every bound and every length's tail.
    #[test]
    fn threshold_marks_exactly_the_distances_within_the_bound() {
        let mut rng = StdRng::seed_from_u64(99);
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 200] {
            let dist: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
            for depth in 0..=MAX_CARRIED_BOUND as u8 {
                let mut want = BitSet::new(len);
                for i in (0..len).filter(|&i| dist[i] <= depth) {
                    want.insert(n(i as u32));
                }
                let got = threshold(&dist, depth);
                assert_eq!(got.capacity(), len);
                assert_eq!(got, want, "len {len} depth {depth}");
            }
        }
    }
}
