//! Per-page dirty tracking within a cached chunk.
//!
//! A 256 KiB chunk holds 64 OS pages of 4 KiB ("The 256KB chunk includes
//! 64 pages (4KB)", §III-D); the write path marks pages dirty and the
//! eviction path ships only those pages. The page is always
//! [`PAGE_BYTES`]; the chunk size is configurable for the ablation sweeps,
//! so the bitmap is a small `Vec<u64>` rather than a single word.

use chunkstore::PAGE_BYTES;

/// A fixed-size bitmap of [`PAGE_BYTES`] pages.
///
/// ```
/// use chunkstore::PAGE_BYTES;
/// use fusemm::DirtyPages;
/// let mut d = DirtyPages::new(64);
/// d.mark_range(0, 2 * PAGE_BYTES); // bytes [0, 8K) → pages 0 and 1
/// d.mark(5);
/// assert_eq!(d.runs(), vec![(0, 2 * PAGE_BYTES), (5 * PAGE_BYTES, PAGE_BYTES)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirtyPages {
    words: Vec<u64>,
    pages: usize,
}

impl DirtyPages {
    pub fn new(pages: usize) -> Self {
        DirtyPages {
            words: vec![0; pages.div_ceil(64)],
            pages,
        }
    }

    pub fn mark(&mut self, page: usize) {
        assert!(page < self.pages, "page index out of range");
        self.words[page / 64] |= 1 << (page % 64);
    }

    /// Mark every page overlapping the byte range `[start, end)`.
    pub fn mark_range(&mut self, start: u64, end: u64) {
        assert!(start < end, "empty range");
        let first = (start / PAGE_BYTES) as usize;
        let last = ((end - 1) / PAGE_BYTES) as usize;
        for p in first..=last {
            self.mark(p);
        }
    }

    pub fn is_dirty(&self, page: usize) -> bool {
        assert!(page < self.pages);
        self.words[page / 64] & (1 << (page % 64)) != 0
    }

    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterate dirty page indices in order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.pages).filter(move |&p| self.is_dirty(p))
    }

    /// Coalesce dirty pages into maximal `(byte_offset, byte_len)` runs —
    /// the write-back messages sent to a benefactor.
    pub fn runs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut run: Option<(usize, usize)> = None; // (first, last)
        for p in self.iter() {
            match run {
                Some((first, last)) if p == last + 1 => run = Some((first, p)),
                Some((first, last)) => {
                    out.push((
                        first as u64 * PAGE_BYTES,
                        (last - first + 1) as u64 * PAGE_BYTES,
                    ));
                    run = Some((p, p));
                }
                None => run = Some((p, p)),
            }
        }
        if let Some((first, last)) = run {
            out.push((
                first as u64 * PAGE_BYTES,
                (last - first + 1) as u64 * PAGE_BYTES,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let mut d = DirtyPages::new(64);
        assert!(!d.any());
        d.mark(0);
        d.mark(63);
        assert!(d.is_dirty(0));
        assert!(d.is_dirty(63));
        assert!(!d.is_dirty(32));
        assert_eq!(d.count(), 2);
        d.clear();
        assert!(!d.any());
    }

    #[test]
    fn works_beyond_64_pages() {
        let mut d = DirtyPages::new(100);
        d.mark(64);
        d.mark(99);
        assert!(d.is_dirty(64));
        assert!(d.is_dirty(99));
        assert_eq!(d.count(), 2);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![64, 99]);
    }

    #[test]
    fn mark_range_covers_partial_pages() {
        let mut d = DirtyPages::new(64);
        // A range across the first page boundary touches pages 0 and 1.
        d.mark_range(PAGE_BYTES - 96, PAGE_BYTES + 4);
        assert!(d.is_dirty(0));
        assert!(d.is_dirty(1));
        assert_eq!(d.count(), 2);
    }

    #[test]
    fn runs_coalesce_adjacent_pages() {
        let mut d = DirtyPages::new(64);
        d.mark(1);
        d.mark(2);
        d.mark(3);
        d.mark(7);
        assert_eq!(
            d.runs(),
            vec![(PAGE_BYTES, 3 * PAGE_BYTES), (7 * PAGE_BYTES, PAGE_BYTES)]
        );
    }

    #[test]
    fn runs_empty_when_clean() {
        let d = DirtyPages::new(64);
        assert!(d.runs().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mark_out_of_range_panics() {
        let mut d = DirtyPages::new(8);
        d.mark(8);
    }
}
