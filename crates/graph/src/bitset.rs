//! Dense bitset over node ids.
//!
//! Every fixpoint in this workspace (simulation refinement, bounded
//! simulation candidate sets, partition refinement) operates on sets of
//! nodes of a fixed-size graph. A word-packed bitset gives O(1)
//! membership, cache-friendly iteration and cheap intersection — the
//! operations those fixpoints are made of.

use crate::NodeId;
use std::fmt;

const WORD_BITS: usize = 64;

/// Fixed-capacity set of node ids `0..len`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl BitSet {
    /// Empty set with capacity for ids `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
            count: 0,
        }
    }

    /// Set containing every id in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim_tail();
        s.count = len;
        s
    }

    fn trim_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Capacity (the universe size), not the number of members.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Number of members. O(1) — maintained incrementally.
    pub fn count(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.index();
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Insert; returns `true` if the member was new.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let i = v.index();
        debug_assert!(i < self.len, "id {i} out of bitset range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if *w & mask == 0 {
            *w |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Remove; returns `true` if the member was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let i = v.index();
        debug_assert!(i < self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if *w & mask != 0 {
            *w &= !mask;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Remove all members.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
        self.count = 0;
    }

    /// `self ← self ∩ other`. Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut count = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
            count += a.count_ones() as usize;
        }
        self.count = count;
    }

    /// `self ← self ∪ other`. Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut count = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
            count += a.count_ones() as usize;
        }
        self.count = count;
    }

    /// `self ← self \ other`. Panics if capacities differ.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut count = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
            count += a.count_ones() as usize;
        }
        self.count = count;
    }

    /// `|self ∩ other|` without materializing the intersection. Panics if
    /// capacities differ.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True if `self ⊆ other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// The backing 64-bit words (bit `i % 64` of word `i / 64` ⟺ member
    /// `i`). Exposed for word-at-a-time sweeps such as the
    /// direction-optimizing BFS; bits at or beyond `capacity()` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate members in ascending id order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect members into a vector (ascending order).
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut members = Vec::with_capacity(self.count);
        members.extend(self.iter());
        members
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|v| v.0)).finish()
    }
}

impl FromIterator<NodeId> for BitSet {
    /// Builds a set sized to fit the largest member (+1).
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let items: Vec<NodeId> = iter.into_iter().collect();
        let len = items.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut s = BitSet::new(len);
        for v in items {
            s.insert(v);
        }
        s
    }
}

/// Iterator over members of a [`BitSet`].
pub struct BitSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(NodeId((self.word_idx * WORD_BITS + bit) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(n(0)));
        assert!(s.insert(n(64)));
        assert!(s.insert(n(129)));
        assert!(!s.insert(n(64)), "double insert");
        assert_eq!(s.count(), 3);
        assert!(s.contains(n(129)));
        assert!(!s.contains(n(128)));
        assert!(s.remove(n(64)));
        assert!(!s.remove(n(64)));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(n(69)));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn full_does_not_overflow_capacity() {
        let s = BitSet::full(65);
        assert_eq!(s.iter().count(), 65);
        assert_eq!(s.iter().last(), Some(n(64)));
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        for i in [1u32, 5, 50, 99] {
            a.insert(n(i));
        }
        for i in [5u32, 50, 80] {
            b.insert(n(i));
        }
        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(inter.to_vec(), vec![n(5), n(50)]);
        assert_eq!(inter.count(), 2);

        let mut uni = a.clone();
        uni.union_with(&b);
        assert_eq!(uni.count(), 5);

        let mut diff = a.clone();
        diff.subtract(&b);
        assert_eq!(diff.to_vec(), vec![n(1), n(99)]);

        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(b.intersection_count(&a), 2);
        assert_eq!(a.intersection_count(&BitSet::new(100)), 0);

        assert!(inter.is_subset_of(&a));
        assert!(inter.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn iter_ascending_across_words() {
        let mut s = BitSet::new(200);
        let members = [0u32, 63, 64, 127, 128, 199];
        for &i in &members {
            s.insert(n(i));
        }
        let got: Vec<u32> = s.iter().map(|v| v.0).collect();
        assert_eq!(got, members);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [n(3), n(10)].into_iter().collect();
        assert_eq!(s.capacity(), 11);
        assert!(s.contains(n(10)));
        let empty: BitSet = std::iter::empty().collect();
        assert_eq!(empty.capacity(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn count_tracks_algebra() {
        let mut a = BitSet::full(10);
        let b = BitSet::new(10);
        a.intersect_with(&b);
        assert_eq!(a.count(), 0);
        assert!(a.is_empty());
    }
}
