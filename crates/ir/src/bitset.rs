//! Dense bit sets for dataflow analyses.

/// A fixed-capacity dense bit set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` elements.
    #[must_use]
    pub fn new(len: usize) -> BitSet {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`; returns true if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let new = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        new
    }

    /// Removes `i`; returns true if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Unions `other` into `self`; returns true if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// Removes every element of `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Makes `self` equal to `other` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(99));
        assert!(!s.insert(0), "double insert reports false");
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(50));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn union() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(1);
        b.insert(2);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn subtract_removes_exactly_the_other_set() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        for i in [0, 5, 64, 100, 129] {
            a.insert(i);
        }
        for i in [5, 63, 129] {
            b.insert(i);
        }
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 64, 100]);
        assert_eq!(b.count(), 3, "the subtrahend is untouched");
        a.subtract(&b);
        assert_eq!(a.count(), 3, "subtracting twice is a no-op");
        let mut c = BitSet::new(130);
        c.copy_from(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn iteration_order() {
        let mut s = BitSet::new(200);
        for i in [199, 0, 64, 65, 128] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 65, 128, 199]);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(5);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        BitSet::new(5).insert(5);
    }

    #[test]
    fn clear_and_empty() {
        let mut s = BitSet::new(70);
        s.insert(69);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }
}
