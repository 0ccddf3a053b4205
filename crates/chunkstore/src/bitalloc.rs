//! Bitmap-tree slot allocator (DESIGN.md §13).
//!
//! llfree-style two-level structure: a *child* bitmap with one bit per
//! chunk slot (64 slots per word, bit set = allocated) under a summary
//! tree in which a level-`k` bit is set iff the corresponding level-
//! `k-1` word is completely full. Find-first-free, alloc and free are
//! all O(tree depth) = O(log64 slots); the free count is folded into
//! the structure as a plain counter, so `free_count()` is an O(1) read.
//!
//! Crash-recoverable by construction: the only durable state is the
//! leaf bitmap itself. The summary levels and the counter are pure
//! functions of the leaf words and are rebuilt by [`BitAlloc::from_leaf`]
//! — there is no freelist, LRU chain or log whose loss could orphan a
//! slot. Padding bits past `len` are permanently set so the descent can
//! treat every word uniformly.

/// Multi-level bitmap allocator over `len` slots.
#[derive(Debug, Clone)]
pub struct BitAlloc {
    /// `levels[0]` is the leaf bitmap (bit set = slot allocated);
    /// `levels[k][i]` bit `j` is set iff child word
    /// `levels[k-1][i * 64 + j]` is completely full (or padding).
    levels: Vec<Vec<u64>>,
    len: usize,
    free: usize,
}

impl BitAlloc {
    /// An allocator over `len` slots, all free.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(64).max(1);
        let mut leaf = vec![0u64; words];
        for i in len..words * 64 {
            leaf[i / 64] |= 1 << (i % 64);
        }
        Self::from_leaf(leaf, len)
    }

    /// Rebuild the summary tree and the free counter from a leaf bitmap
    /// alone — the crash-recovery path: the leaves are the only state
    /// that needs to survive.
    ///
    /// Padding bits (indices `>= len`) must be set.
    pub fn from_leaf(leaf: Vec<u64>, len: usize) -> Self {
        assert_eq!(leaf.len(), len.div_ceil(64).max(1), "leaf word count");
        let mut free = 0usize;
        for (w, &word) in leaf.iter().enumerate() {
            let in_range = len.saturating_sub(w * 64).min(64);
            if in_range < 64 {
                assert_eq!(
                    word >> in_range,
                    u64::MAX >> in_range,
                    "padding bits past len must be set"
                );
            }
            free += in_range - (word & in_range_mask(in_range)).count_ones() as usize;
        }
        let mut levels = vec![leaf];
        while levels.last().unwrap().len() > 1 {
            let child = levels.last().unwrap();
            let mut up = vec![0u64; child.len().div_ceil(64)];
            for (i, w) in up.iter_mut().enumerate() {
                for j in 0..64 {
                    let ci = i * 64 + j;
                    if ci >= child.len() || child[ci] == u64::MAX {
                        *w |= 1 << j;
                    }
                }
            }
            levels.push(up);
        }
        BitAlloc { levels, len, free }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slots exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots — O(1), the counter is folded in-place.
    pub fn free_count(&self) -> usize {
        self.free
    }

    /// Allocated slots — O(1).
    pub fn allocated(&self) -> usize {
        self.len - self.free
    }

    /// Whether `slot` is currently allocated.
    pub fn is_allocated(&self, slot: usize) -> bool {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        self.levels[0][slot / 64] >> (slot % 64) & 1 == 1
    }

    /// The leaf bitmap (the only durable state).
    pub fn leaf_words(&self) -> &[u64] {
        &self.levels[0]
    }

    /// Allocate the lowest free slot: O(tree depth) descent choosing the
    /// first non-full child at every level, so the result is the
    /// deterministic find-first-free slot.
    pub fn alloc(&mut self) -> Option<usize> {
        if self.free == 0 {
            return None;
        }
        let mut wi = 0usize;
        for l in (1..self.levels.len()).rev() {
            let j = (!self.levels[l][wi]).trailing_zeros() as usize;
            debug_assert!(j < 64, "summary claims free space but word is full");
            wi = wi * 64 + j;
        }
        let j = (!self.levels[0][wi]).trailing_zeros() as usize;
        let slot = wi * 64 + j;
        debug_assert!(slot < self.len);
        self.free -= 1;
        let (mut wi, mut bit) = (wi, j);
        for l in 0..self.levels.len() {
            self.levels[l][wi] |= 1 << bit;
            if self.levels[l][wi] != u64::MAX || l + 1 == self.levels.len() {
                break;
            }
            // word became full: propagate the summary bit upward
            bit = wi % 64;
            wi /= 64;
        }
        Some(slot)
    }

    /// Free an allocated slot; panics on double free (allocation books
    /// out of balance are a logic error, not a recoverable condition).
    pub fn release(&mut self, slot: usize) {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        let (mut wi, mut bit) = (slot / 64, slot % 64);
        assert!(
            self.levels[0][wi] >> bit & 1 == 1,
            "double free of slot {slot}"
        );
        self.free += 1;
        for l in 0..self.levels.len() {
            let was_full = self.levels[l][wi] == u64::MAX;
            self.levels[l][wi] &= !(1 << bit);
            if !was_full || l + 1 == self.levels.len() {
                break;
            }
            // word was full: clear the summary bit upward
            bit = wi % 64;
            wi /= 64;
        }
    }

    /// Verify every summary bit against its child word and the folded
    /// counter against a leaf sweep. Test support for the consistency
    /// properties in `tests/bitalloc_model.rs`.
    #[doc(hidden)]
    pub fn assert_consistent(&self) {
        let mut free = 0usize;
        for slot in 0..self.len {
            if self.levels[0][slot / 64] >> (slot % 64) & 1 == 0 {
                free += 1;
            }
        }
        assert_eq!(free, self.free, "folded free counter out of sync");
        for l in 1..self.levels.len() {
            let (child, up) = {
                let (a, b) = self.levels.split_at(l);
                (&a[l - 1], &b[0])
            };
            for (i, &w) in up.iter().enumerate() {
                for j in 0..64 {
                    let ci = i * 64 + j;
                    let full = ci >= child.len() || child[ci] == u64::MAX;
                    assert_eq!(
                        w >> j & 1 == 1,
                        full,
                        "summary level {l} word {i} bit {j} out of sync"
                    );
                }
            }
        }
    }
}

fn in_range_mask(in_range: usize) -> u64 {
    if in_range == 64 {
        u64::MAX
    } else {
        (1u64 << in_range) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_find_first_free() {
        let mut a = BitAlloc::new(200);
        for i in 0..200 {
            assert_eq!(a.alloc(), Some(i));
        }
        assert_eq!(a.alloc(), None);
        assert_eq!(a.free_count(), 0);
        a.release(77);
        a.release(3);
        a.release(130);
        assert_eq!(a.free_count(), 3);
        // always the lowest free slot, regardless of release order
        assert_eq!(a.alloc(), Some(3));
        assert_eq!(a.alloc(), Some(77));
        assert_eq!(a.alloc(), Some(130));
        assert_eq!(a.alloc(), None);
    }

    #[test]
    fn deep_tree_padding_is_respected() {
        // three levels: 64 * 64 < len <= 64^3
        let len = 64 * 64 * 3 + 17;
        let mut a = BitAlloc::new(len);
        assert_eq!(a.levels.len(), 3);
        for i in 0..len {
            assert_eq!(a.alloc(), Some(i), "padding bit leaked into allocation");
        }
        assert_eq!(a.alloc(), None);
        a.assert_consistent();
        a.release(len - 1);
        assert_eq!(a.alloc(), Some(len - 1));
    }

    #[test]
    fn zero_and_one_slot_edges() {
        let mut zero = BitAlloc::new(0);
        assert_eq!(zero.alloc(), None);
        assert_eq!(zero.free_count(), 0);
        let mut one = BitAlloc::new(1);
        assert_eq!(one.alloc(), Some(0));
        assert_eq!(one.alloc(), None);
        one.release(0);
        assert_eq!(one.alloc(), Some(0));
    }

    #[test]
    fn from_leaf_rebuilds_summaries_and_counter() {
        // crash-recovery claim: mutate, serialize the leaves, rebuild,
        // and the allocator must be indistinguishable from the original.
        let len = 64 * 64 + 9;
        let mut a = BitAlloc::new(len);
        for _ in 0..1000 {
            a.alloc();
        }
        for s in (0..1000).step_by(3) {
            a.release(s);
        }
        let rebuilt = BitAlloc::from_leaf(a.leaf_words().to_vec(), len);
        rebuilt.assert_consistent();
        assert_eq!(rebuilt.free_count(), a.free_count());
        let (mut x, mut y) = (a, rebuilt);
        loop {
            let (sa, sb) = (x.alloc(), y.alloc());
            assert_eq!(sa, sb);
            if sa.is_none() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = BitAlloc::new(10);
        let s = a.alloc().unwrap();
        a.release(s);
        a.release(s);
    }
}
