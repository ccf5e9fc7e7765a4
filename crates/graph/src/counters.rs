//! The one block of cumulative counters: a fixed list of key names and
//! one relaxed atomic per key. Every flat cumulative counter of
//! `GET /metrics` lives in a [`Counters`] — the read path's evaluation,
//! planner, rank, cancel and cache counts, the reach index's
//! ([`IndexCounters`](crate::reach_index::IndexCounters)), the durable
//! runtime's WAL activity, the server's connection and backpressure
//! counts and its subscription hub's — so a block's keys are written
//! once, where it is declared, and the exporter writes every block
//! alike from [`Counters::read`].
//!
//! The hot path counts with [`Counters::add`] by position: one relaxed
//! `fetch_add`, no lock. Readers ask for a key by name
//! ([`Counters::get`]) or for every `(key, value)` pair in declaration
//! order. A `clone` is a copy of the values as one read saw them.
//!
//! Gauges do not go here: a gauge (cache entries, index bytes, requests
//! in flight, live subscribers) moves both ways or is summed at read
//! time over whatever is live, so it has no cumulative slot to add to.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `N` named cumulative counters; see the module docs.
pub struct Counters<const N: usize> {
    keys: &'static [&'static str; N],
    values: [AtomicU64; N],
}

impl<const N: usize> Counters<N> {
    /// A block of `keys`, all at zero.
    pub const fn new(keys: &'static [&'static str; N]) -> Counters<N> {
        Counters {
            keys,
            values: [const { AtomicU64::new(0) }; N],
        }
    }

    /// Add `n` to the counter declared at position `i`.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.values[i].fetch_add(n, Relaxed);
    }

    /// The counter named `key`.
    ///
    /// # Panics
    ///
    /// If the block declares no `key`.
    pub fn get(&self, key: &str) -> u64 {
        let i = self.keys.iter().position(|k| *k == key);
        let i = i.unwrap_or_else(|| panic!("no counter {key:?} in {:?}", self.keys));
        self.values[i].load(Relaxed)
    }

    /// Every `(key, value)` pair, in declaration order.
    pub fn read(&self) -> [(&'static str, u64); N] {
        std::array::from_fn(|i| (self.keys[i], self.values[i].load(Relaxed)))
    }
}

impl<const N: usize> Clone for Counters<N> {
    fn clone(&self) -> Counters<N> {
        Counters {
            keys: self.keys,
            values: std::array::from_fn(|i| AtomicU64::new(self.values[i].load(Relaxed))),
        }
    }
}

impl<const N: usize> PartialEq for Counters<N> {
    fn eq(&self, other: &Counters<N>) -> bool {
        self.read() == other.read()
    }
}

impl<const N: usize> fmt::Debug for Counters<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.read()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_position_and_reads_by_name_in_order() {
        let c = Counters::new(&["hits", "misses"]);
        c.add(0, 2);
        c.add(1, 1);
        c.add(0, 3);
        assert_eq!(c.get("hits"), 5);
        assert_eq!(c.get("misses"), 1);
        assert_eq!(c.read(), [("hits", 5), ("misses", 1)]);
        let copy = c.clone();
        c.add(1, 1);
        assert_eq!(copy.get("misses"), 1, "a clone is a copy");
        assert_ne!(copy, c);
        assert_eq!(format!("{copy:?}"), r#"{"hits": 5, "misses": 1}"#);
    }

    #[test]
    #[should_panic(expected = "no counter \"hitz\"")]
    fn an_undeclared_key_panics() {
        Counters::new(&["hits"]).get("hitz");
    }

    #[test]
    fn a_static_block_counts_from_many_threads() {
        static C: Counters<1> = Counters::new(&["n"]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..1000).for_each(|_| C.add(0, 1)));
            }
        });
        assert_eq!(C.get("n"), 4000);
    }
}
