//! Query result cache.
//!
//! Paper §II: "the query engine directly returns M(Q,G) if it is already
//! cached". Keys combine the graph's catalog id, its version counter and
//! a `u64` digest of the pattern fingerprint
//! ([`Pattern::fingerprint_hash`]), so updates invalidate implicitly —
//! stale entries simply stop being requested and age out of the LRU.
//! Keying by id (not name) means a graph removed and re-added under the
//! same name can never be served stale results.
//!
//! A slot holds the relation and, once a request has paid for it, the
//! **ranked answer**: the top-`k` expert list with the `k` it is the top
//! of. It serves any `k' ≤ k` (top-k' is a prefix of top-k under the total
//! `(rank, node id)` order) and every `k'` once complete. It needs no key
//! of its own — `G_r`, and so every rank, is a function of `(G, M)` only,
//! and every change to `G` bumps the version — but must never be carried
//! across versions, even when `M` did not move: an inserted edge can
//! shorten a witnessed path, changing a `G_r` weight and a rank with it.
//!
//! Recency is tracked with a **generation counter** instead of an ordered
//! key list: every touch stamps the entry with a fresh generation and
//! appends `(generation, key)` to a queue. Eviction pops the queue front,
//! skipping stale entries whose recorded generation no longer matches the
//! map — amortized O(1) `get`/`put`/evict, versus the former O(n) vector
//! scans per touch. The queue is compacted once it outgrows the live
//! entries by a constant factor, keeping memory proportional to capacity.

use expfinder_core::{MatchRelation, RankedMatch};
use expfinder_pattern::Pattern;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cache key: graph catalog id, graph version, pattern fingerprint hash.
pub type CacheKey = (u64, u64, u64);

/// Hit/miss counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A cached relation stamped with its most recent touch generation and
/// the full fingerprint its key hash was derived from. The hash is only
/// an index: FNV-1a collisions are constructible by anyone who can
/// submit patterns, so every hit re-verifies the exact fingerprint —
/// a collision is a miss (and an overwriting `put` wins), never a
/// cross-pattern answer.
struct Slot {
    value: Arc<MatchRelation>,
    /// `(list, k)`: the best `k` matches of the output node; `k` is
    /// `usize::MAX` once the list is known to be complete.
    ranked: Option<(Arc<[RankedMatch]>, usize)>,
    gen: u64,
    fingerprint: String,
}

/// A hit: the relation and, if `top_k` was asked for and the slot's
/// ranked answer determines it, those experts.
pub type Hit = (Arc<MatchRelation>, Option<Vec<RankedMatch>>);

/// A bounded LRU cache of match relations.
pub struct QueryCache {
    capacity: usize,
    map: HashMap<CacheKey, Slot>,
    /// Touch log: `(generation, key)` in ascending generation order. An
    /// entry is live iff the map still records that generation for the
    /// key; everything else is a stale leftover of an earlier touch.
    recency: VecDeque<(u64, CacheKey)>,
    next_gen: u64,
    stats: CacheStats,
}

impl QueryCache {
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            recency: VecDeque::new(),
            next_gen: 0,
            stats: CacheStats::default(),
        }
    }

    /// Build the canonical key for a query. When the fingerprint string
    /// is already at hand, prefer [`QueryCache::key_for`].
    pub fn key(graph_id: u64, version: u64, pattern: &Pattern) -> CacheKey {
        Self::key_for(graph_id, version, &pattern.fingerprint())
    }

    /// Build the canonical key from an already-computed fingerprint.
    pub fn key_for(graph_id: u64, version: u64, fingerprint: &str) -> CacheKey {
        (
            graph_id,
            version,
            expfinder_pattern::hash_fingerprint(fingerprint),
        )
    }

    /// Look up; refreshes recency on a (fingerprint-verified) hit. A key
    /// whose slot holds a different fingerprint — a hash collision — is
    /// a miss.
    pub fn get(&mut self, key: &CacheKey, fingerprint: &str, top_k: Option<usize>) -> Option<Hit> {
        let gen = self.next_gen;
        match self.map.get_mut(key) {
            Some(slot) if slot.fingerprint == fingerprint => {
                self.stats.hits += 1;
                self.next_gen += 1;
                slot.gen = gen;
                let held = slot.ranked.as_ref().zip(top_k);
                let experts = held
                    .filter(|((_, held_k), k)| k <= held_k)
                    .map(|((list, _), k)| list[..k.min(list.len())].to_vec());
                let hit = (Arc::clone(&slot.value), experts);
                self.recency.push_back((gen, *key));
                self.maybe_compact();
                Some(hit)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting the least recently used
    /// entry if over capacity. Refreshing a slot of the same fingerprint
    /// keeps its ranked answer: same key, same `(G, M)`, same ranks.
    pub fn put(&mut self, key: CacheKey, fingerprint: &str, value: Arc<MatchRelation>) {
        let gen = self.next_gen;
        self.next_gen += 1;
        let kept = self.map.get(&key).filter(|s| s.fingerprint == fingerprint);
        let slot = Slot {
            value,
            ranked: kept.and_then(|s| s.ranked.clone()),
            gen,
            fingerprint: fingerprint.to_owned(),
        };
        self.map.insert(key, slot);
        self.recency.push_back((gen, key));
        while self.map.len() > self.capacity {
            let (g, k) = self
                .recency
                .pop_front()
                .expect("over-capacity map has touches");
            // stale touch: the key was touched again later (or evicted)
            if self.map.get(&k).is_some_and(|s| s.gen == g) {
                self.map.remove(&k);
                self.stats.evictions += 1;
            }
        }
        self.maybe_compact();
    }

    /// Record the top-`k` list computed for a slot that is still there
    /// (and still this pattern's), unless it already holds a longer one.
    pub fn put_ranked(&mut self, key: &CacheKey, fp: &str, list: &[RankedMatch], k: usize) {
        let k = if list.len() < k { usize::MAX } else { k };
        let slot = self.map.get_mut(key).filter(|s| s.fingerprint == fp);
        if let Some(slot) = slot.filter(|s| s.ranked.as_ref().is_none_or(|r| r.1 < k)) {
            slot.ranked = Some((list.into(), k));
        }
    }

    /// Drop stale touch-log entries once they outnumber live ones 4:1, so
    /// the log stays O(capacity) without per-operation scans.
    fn maybe_compact(&mut self) {
        if self.recency.len() > self.map.len() * 4 + 16 {
            let map = &self.map;
            self.recency
                .retain(|(g, k)| map.get(k).is_some_and(|s| s.gen == *g));
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::BitSet;

    fn rel(n: usize) -> Arc<MatchRelation> {
        Arc::new(MatchRelation::from_sets(vec![BitSet::full(n)], n))
    }

    fn k(id: u64, v: u64) -> CacheKey {
        (id, v, 0xfeed)
    }

    #[test]
    fn hit_and_miss() {
        let mut c = QueryCache::new(4);
        assert!(c.get(&k(1, 1), "fp", None).is_none());
        c.put(k(1, 1), "fp", rel(3));
        assert!(c.get(&k(1, 1), "fp", None).is_some());
        assert!(
            c.get(&k(1, 2), "fp", None).is_none(),
            "different version misses"
        );
        assert!(
            c.get(&k(2, 1), "fp", None).is_none(),
            "different graph id misses"
        );
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = QueryCache::new(2);
        c.put(k(1, 1), "fp", rel(1));
        c.put(k(2, 1), "fp", rel(1));
        // touch graph 1 so graph 2 becomes the oldest
        assert!(c.get(&k(1, 1), "fp", None).is_some());
        c.put(k(3, 1), "fp", rel(1));
        assert_eq!(c.len(), 2);
        assert!(c.get(&k(2, 1), "fp", None).is_none(), "2 evicted");
        assert!(c.get(&k(1, 1), "fp", None).is_some(), "1 survived");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn eviction_always_drops_the_oldest() {
        // churn well past capacity with interleaved touches: the survivor
        // set must always be the most recently touched `capacity` keys
        let mut c = QueryCache::new(3);
        for i in 0..50u64 {
            c.put(k(i, 1), "fp", rel(1));
            // keep key 0 hot for the first half
            if i < 25 {
                assert!(
                    c.get(&k(0, 1), "fp", None).is_some(),
                    "key 0 touched at {i}"
                );
            }
        }
        assert_eq!(c.len(), 3);
        assert!(c.get(&k(49, 1), "fp", None).is_some());
        assert!(c.get(&k(48, 1), "fp", None).is_some());
        assert!(c.get(&k(47, 1), "fp", None).is_some());
        assert!(c.get(&k(0, 1), "fp", None).is_none(), "went cold, evicted");
        // recency log stays bounded relative to capacity
        assert!(c.recency.len() <= c.map.len() * 4 + 16);
    }

    #[test]
    fn put_refreshes_existing() {
        let mut c = QueryCache::new(2);
        c.put(k(1, 1), "fp", rel(1));
        c.put(k(2, 1), "fp", rel(1));
        c.put(k(1, 1), "fp", rel(2)); // refresh 1
        c.put(k(3, 1), "fp", rel(1)); // evicts 2, not 1
        assert!(c.get(&k(1, 1), "fp", None).is_some());
        assert!(c.get(&k(2, 1), "fp", None).is_none());
    }

    #[test]
    fn clear_empties() {
        let mut c = QueryCache::new(2);
        c.put(k(1, 1), "fp", rel(1));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let mut c = QueryCache::new(0);
        c.put(k(1, 1), "fp", rel(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn hash_collision_is_a_miss_not_a_wrong_answer() {
        // same key hash, different fingerprints (the adversarial FNV
        // collision shape): the verified get never serves the other
        // pattern's relation
        let mut c = QueryCache::new(4);
        c.put(k(1, 1), "pattern-a", rel(1));
        assert!(
            c.get(&k(1, 1), "pattern-b", None).is_none(),
            "collision must miss"
        );
        assert_eq!(c.stats().misses, 1);
        // the colliding pattern may overwrite the slot; verification
        // then protects the original
        c.put(k(1, 1), "pattern-b", rel(2));
        assert!(c.get(&k(1, 1), "pattern-b", None).is_some());
        assert!(c.get(&k(1, 1), "pattern-a", None).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn keys_come_from_fingerprint_hashes() {
        use expfinder_pattern::fixtures::fig1_pattern;
        let q = fig1_pattern();
        let a = QueryCache::key(1, 7, &q);
        let b = QueryCache::key(1, 7, &q);
        assert_eq!(a, b);
        assert_eq!(a.2, q.fingerprint_hash());
        let sim = q.as_simulation();
        assert_ne!(QueryCache::key(1, 7, &sim), a, "bounds change the key");
    }

    fn ranked(n: u32) -> Vec<RankedMatch> {
        let at = |i| RankedMatch {
            node: expfinder_graph::NodeId(i),
            rank: i as f64,
        };
        (0..n).map(at).collect()
    }

    #[test]
    fn ranked_answer_serves_prefixes_and_never_guesses() {
        let mut c = QueryCache::new(4);
        let experts = |c: &mut QueryCache, top_k| c.get(&k(1, 1), "fp", top_k).unwrap().1;
        c.put(k(1, 1), "fp", rel(9));
        assert_eq!(experts(&mut c, Some(2)), None, "nothing ranked yet");

        // a top-3 of more than 3 candidates determines top-0..=3 only
        c.put_ranked(&k(1, 1), "fp", &ranked(3), 3);
        assert_eq!(experts(&mut c, Some(2)), Some(ranked(2)));
        assert_eq!(experts(&mut c, Some(3)), Some(ranked(3)));
        assert_eq!(experts(&mut c, Some(4)), None, "the 4th best is unknown");
        assert_eq!(experts(&mut c, None), None, "no top_k, no experts");

        // a shorter list never replaces it; a longer one does, and a list
        // shorter than its k is complete: it serves every k
        c.put_ranked(&k(1, 1), "fp", &ranked(1), 1);
        assert_eq!(experts(&mut c, Some(3)), Some(ranked(3)));
        c.put_ranked(&k(1, 1), "fp", &ranked(5), 8);
        assert_eq!(experts(&mut c, Some(4)), Some(ranked(4)));
        assert_eq!(experts(&mut c, Some(100)), Some(ranked(5)));
        assert_eq!(experts(&mut c, Some(0)), Some(vec![]));
    }

    #[test]
    fn ranked_answer_lives_and_dies_with_its_slot() {
        let mut c = QueryCache::new(2);
        c.put(k(1, 1), "fp", rel(9));
        c.put_ranked(&k(1, 1), "fp", &ranked(2), 2);
        // refreshed by the same pattern: same (G, M), the list stays
        c.put(k(1, 1), "fp", rel(9));
        assert_eq!(c.get(&k(1, 1), "fp", Some(2)).unwrap().1, Some(ranked(2)));
        // a different version or graph id is a different slot
        c.put(k(1, 2), "fp", rel(9));
        assert_eq!(c.get(&k(1, 2), "fp", Some(2)).unwrap().1, None);
        // overwritten by a colliding pattern: the list goes with it, and a
        // late fill for the old pattern is dropped
        c.put(k(1, 1), "other", rel(9));
        c.put_ranked(&k(1, 1), "fp", &ranked(2), 2);
        assert_eq!(c.get(&k(1, 1), "other", Some(2)).unwrap().1, None);
        // evicted: nothing to fill
        c.put(k(7, 7), "fp", rel(9));
        c.put(k(8, 8), "fp", rel(9));
        c.put_ranked(&k(1, 1), "other", &ranked(2), 2);
        assert!(c.get(&k(1, 1), "other", Some(2)).is_none());
        assert_eq!(c.len(), 2);
    }
}
