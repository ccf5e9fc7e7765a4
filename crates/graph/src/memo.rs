//! The one bounded memo: values built on first use and shared by key,
//! within a count cap and a byte cap. The class memo
//! ([`ClassMemo`](crate::ClassMemo)), a version's built reach-index
//! entries ([`ReachIndex`](crate::ReachIndex)), a version's cached query
//! results (the engine's `Derived` state) and the process-wide parse memo
//! (`expfinder_pattern::parser::parse_memoised`) all store through
//! [`Memo`], each with its own caps and one set of rules:
//!
//! * the caller builds a value outside the lock, after [`Memo::get`]
//!   missed, and [`Memo::insert`] returns the value to use: the first
//!   insert of a key wins a race;
//! * a value that alone costs more than the byte cap is not kept;
//! * a value that would take the memo past a cap makes it start over: it
//!   drops every entry and keeps the new one, so no early set of keys
//!   owns it for the life of its owner ([`Memo::resets`] counts these,
//!   [`Memo::evicted`] the entries they dropped).
//!
//! `Clone` gives an empty memo with the same caps: a memo caches its
//! owner's answers, and a copy made to be changed must not inherit them.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{PoisonError, RwLock};

/// A bounded map from keys to shared values; see the module docs.
#[derive(Debug)]
pub struct Memo<K, V> {
    max_len: usize,
    max_bytes: usize,
    entries: RwLock<HashMap<K, V>>,
    /// Sum of the kept entries' costs (written under the lock).
    bytes: AtomicUsize,
    resets: AtomicU64,
    evicted: AtomicU64,
}

impl<K, V> Memo<K, V> {
    /// An empty memo that keeps at most `max_len` entries costing at most
    /// `max_bytes` together.
    pub fn new(max_len: usize, max_bytes: usize) -> Memo<K, V> {
        Memo {
            max_len,
            max_bytes,
            entries: RwLock::new(HashMap::new()),
            bytes: AtomicUsize::new(0),
            resets: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of the kept entries' costs, as their inserts gave them.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Relaxed)
    }

    /// How often the memo started over.
    pub fn resets(&self) -> u64 {
        self.resets.load(Relaxed)
    }

    /// How many entries those start-overs dropped.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Relaxed)
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// The value kept for `key`.
    pub fn get<Q: Eq + Hash + ?Sized>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        entries.get(key).cloned()
    }

    /// Keep `value` under `key` at a cost of `bytes`, and return the
    /// value the memo answers `key` with: an earlier insert's, else
    /// `value`.
    pub fn insert(&self, key: K, value: V, bytes: usize) -> V {
        if bytes > self.max_bytes {
            return value;
        }
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(raced) = entries.get(&key) {
            return raced.clone();
        }
        let mut total = self.bytes() + bytes;
        if entries.len() >= self.max_len || total > self.max_bytes {
            self.evicted.fetch_add(entries.len() as u64, Relaxed);
            entries.clear();
            total = bytes;
            self.resets.fetch_add(1, Relaxed);
        }
        self.bytes.store(total, Relaxed);
        entries.insert(key, value.clone());
        value
    }

    /// A copy of every kept entry, in no particular order.
    pub fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        entries
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

impl<K, V> Clone for Memo<K, V> {
    fn clone(&self) -> Memo<K, V> {
        Memo::new(self.max_len, self.max_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Many distinct keys through a small memo: it never holds more than
    /// either cap, and a key inserted a moment ago is answered from it.
    #[test]
    fn both_caps_hold() {
        let memo = Memo::new(8, 100);
        for i in 0..200 {
            let cost = i % 30;
            assert_eq!(memo.insert(i, i * 2, cost), i * 2);
            assert_eq!(memo.get(&i), Some(i * 2), "{i} was just kept");
            assert!(memo.len() <= 8, "{} entries", memo.len());
            assert!(memo.bytes() <= 100, "{} bytes", memo.bytes());
        }
        assert!(memo.resets() > 0);
    }

    #[test]
    fn a_value_over_the_byte_cap_is_returned_but_not_kept() {
        let memo = Memo::new(8, 100);
        memo.insert("kept", 1, 60);
        assert_eq!(memo.insert("huge", 2, 101), 2);
        assert_eq!(memo.get("huge"), None);
        assert_eq!((memo.len(), memo.bytes(), memo.resets()), (1, 60, 0));
        assert_eq!(memo.get("kept"), Some(1), "nothing was dropped for it");
    }

    /// Past either cap the memo drops everything and keeps the newcomer,
    /// so the first keys do not own it.
    #[test]
    fn a_full_memo_starts_over_and_keeps_the_new_entry() {
        let memo = Memo::new(3, 100);
        for k in 0..3 {
            memo.insert(k, k, 10);
        }
        assert_eq!(memo.insert(3, 3, 10), 3);
        assert_eq!((memo.len(), memo.bytes(), memo.resets()), (1, 10, 1));
        assert_eq!(memo.evicted(), 3);
        assert_eq!((memo.get(&0), memo.get(&3)), (None, Some(3)));

        // the byte cap, well before the count cap
        memo.insert(4, 4, 80);
        assert_eq!(memo.insert(5, 5, 20), 5);
        assert_eq!((memo.len(), memo.bytes(), memo.resets()), (1, 20, 2));
        assert_eq!(memo.evicted(), 5, "3, then 4 beside it");
        assert_eq!(memo.get(&5), Some(5));

        // an earlier insert wins over a later one of the same key
        assert_eq!(memo.insert(5, 50, 20), 5);
        assert_eq!(memo.bytes(), 20);

        // a clone starts empty, with the same caps
        let copy = memo.clone();
        assert!(copy.is_empty());
        for k in 0..4 {
            copy.insert(k, k, 1);
        }
        assert_eq!((copy.len(), copy.resets()), (1, 1));
    }

    /// Threads racing on one shared key and on keys of their own, past
    /// both caps: every answer for a key is the value its first kept
    /// insert chose, which here is equal for every builder of the key.
    #[test]
    fn racing_threads_get_equal_values() {
        let memo: Memo<String, Arc<String>> = Memo::new(4, 64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let memo = &memo;
                s.spawn(move || {
                    for i in 0..200 {
                        let key = if i % 2 == 0 {
                            "shared".to_owned()
                        } else {
                            format!("t{t}-{i}")
                        };
                        let got = match memo.get(&key) {
                            Some(hit) => hit,
                            None => {
                                let built = Arc::new(key.repeat(2));
                                memo.insert(key.clone(), built, key.len())
                            }
                        };
                        assert_eq!(*got, key.repeat(2));
                        assert!(memo.len() <= 4 && memo.bytes() <= 64);
                    }
                });
            }
        });
        assert!(memo.len() <= 4);
    }
}
