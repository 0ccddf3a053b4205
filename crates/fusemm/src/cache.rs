//! The per-node chunk cache: LRU over `(file, chunk index)` entries with
//! per-page dirty bits.
//!
//! The cache itself is a passive data structure; [`crate::mount::Mount`]
//! drives it and charges virtual time. Capacity is counted in chunks
//! (64 MiB / 256 KiB = 256 entries at the paper's defaults).
//!
//! One replacement structure, two sizings (DESIGN.md §10): a segmented
//! LRU of probation/protected lists — a chunk enters on probation and is
//! promoted on its first re-reference, so a one-touch streaming scan
//! churns probation while the re-referenced working set survives in the
//! protected segment.
//!
//! * **plain LRU** (default) — the protected segment is empty
//!   (`protected_cap == 0`): nothing is ever promoted, probation is the
//!   one recency list and the victim is the least recently used,
//!   byte-identical to the paper-fidelity configuration;
//! * **segmented LRU** (`FuseConfig::seg_cache`) — the protected segment
//!   holds up to 4/5 of capacity.
//!
//! Victim selection is O(log n): recency is kept in ordered tick indexes
//! (`BTreeSet<(tick, key)>`), never by scanning the whole entry map. The
//! cache also tracks its dirty-chunk count (and high-water mark) so the
//! mount's write-back daemon can check dirty ratios in O(1); all dirty-bit
//! transitions must therefore go through [`ChunkCache::mark_dirty_range`] /
//! [`ChunkCache::clear_dirty`].

use crate::dirty::DirtyPages;
use chunkstore::{ChunkBuf, FileId};
use simcore::VTime;
use std::collections::{BTreeSet, HashMap};

/// One cached chunk.
#[derive(Debug)]
pub struct CacheEntry {
    /// The chunk as fetched, sharing its leaves with wherever it came
    /// from (a benefactor's stored copy, the zero chunk): a write copies
    /// the pages it dirties, and a write-back hands those pages on.
    pub data: ChunkBuf,
    pub dirty: DirtyPages,
    /// LRU tick of the last touch.
    pub last_use: u64,
    /// For asynchronously prefetched chunks: when the data is actually
    /// available; a hit earlier than this waits until `ready_at`.
    pub ready_at: VTime,
    /// Segmented mode: true once the entry has been re-referenced and
    /// promoted out of probation. Maintained by the cache.
    pub(crate) protected: bool,
}

/// Key: which chunk of which file.
pub type ChunkKey = (FileId, usize);

/// How deep the clean-first victim scan looks into each recency list
/// before giving up and taking the plain LRU victim (Linux's shrinker
/// uses the same bounded-scan idea). Keeps victim selection O(1)-ish
/// even when the cache is mostly dirty.
const CLEAN_SCAN_DEPTH: usize = 16;

/// LRU chunk cache (plain or segmented).
#[derive(Debug)]
pub struct ChunkCache {
    entries: HashMap<ChunkKey, CacheEntry>,
    capacity: usize,
    tick: u64,
    pages_per_chunk: usize,
    /// Max entries the protected segment may hold; `0` = plain LRU.
    protected_cap: usize,
    protected_len: usize,
    /// Recency index of probationary entries — every entry when the
    /// cache is unsegmented. Ticks are unique, so ordering is total and
    /// deterministic.
    probation: BTreeSet<(u64, ChunkKey)>,
    /// Recency index of protected entries (empty when unsegmented).
    protected: BTreeSet<(u64, ChunkKey)>,
    /// Chunks with at least one dirty page, and the high-water mark.
    dirty_count: usize,
    max_dirty: usize,
    /// Entries examined across all victim selections (the quadratic-path
    /// regression guard in tests).
    victim_scan_steps: u64,
}

impl ChunkCache {
    pub fn new(capacity_chunks: usize, pages_per_chunk: usize) -> Self {
        Self::build(capacity_chunks, pages_per_chunk, 0)
    }

    /// A segmented (probation/protected) cache; the protected segment
    /// holds up to 4/5 of capacity, probation always keeps >= 1 slot.
    pub fn new_segmented(capacity_chunks: usize, pages_per_chunk: usize) -> Self {
        let protected_cap = (capacity_chunks * 4 / 5).min(capacity_chunks.saturating_sub(1));
        Self::build(capacity_chunks, pages_per_chunk, protected_cap)
    }

    fn build(capacity_chunks: usize, pages_per_chunk: usize, protected_cap: usize) -> Self {
        assert!(capacity_chunks > 0, "cache needs at least one chunk");
        ChunkCache {
            entries: HashMap::with_capacity(capacity_chunks),
            capacity: capacity_chunks,
            tick: 0,
            pages_per_chunk,
            protected_cap,
            protected_len: 0,
            probation: BTreeSet::new(),
            protected: BTreeSet::new(),
            dirty_count: 0,
            max_dirty: 0,
            victim_scan_steps: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    pub fn contains(&self, key: &ChunkKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Is the entry in the protected segment? (false when missing or
    /// unsegmented.)
    pub fn is_protected(&self, key: &ChunkKey) -> bool {
        self.entries.get(key).map(|e| e.protected).unwrap_or(false)
    }

    /// Entries currently in the protected segment.
    pub fn protected_len(&self) -> usize {
        self.protected_len
    }

    /// Chunks with at least one dirty page.
    pub fn dirty_chunks(&self) -> usize {
        self.dirty_count
    }

    /// High-water mark of [`Self::dirty_chunks`] over the cache's life.
    pub fn max_dirty_chunks(&self) -> usize {
        self.max_dirty
    }

    /// Entries examined by victim selection so far (regression guard: must
    /// stay proportional to evictions, not evictions x capacity).
    pub fn victim_scan_steps(&self) -> u64 {
        self.victim_scan_steps
    }

    /// Touch and return an entry (LRU update; segmented mode promotes a
    /// probationary entry to the protected segment).
    pub fn get_mut(&mut self, key: &ChunkKey) -> Option<&mut CacheEntry> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        let was_protected = entry.protected;
        let promote = !was_protected && self.protected_cap > 0;
        if was_protected {
            self.protected.remove(&(entry.last_use, *key));
        } else {
            self.probation.remove(&(entry.last_use, *key));
        }
        entry.last_use = tick;
        entry.protected = was_protected || promote;
        if entry.protected {
            self.protected.insert((tick, *key));
        } else {
            self.probation.insert((tick, *key));
        }
        if promote {
            self.protected_len += 1;
            if self.protected_len > self.protected_cap {
                self.demote_protected_lru();
            }
        }
        self.entries.get_mut(key)
    }

    /// The protected segment overflowed: its LRU entry moves back to the
    /// MRU end of probation (classic SLRU demotion).
    fn demote_protected_lru(&mut self) {
        let &(old_tick, key) = self.protected.first().expect("protected is over cap");
        self.protected.remove(&(old_tick, key));
        self.protected_len -= 1;
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&key).expect("indexed entry exists");
        e.protected = false;
        e.last_use = tick;
        self.probation.insert((tick, key));
    }

    /// Peek without LRU update (used by flush scans).
    pub fn peek(&self, key: &ChunkKey) -> Option<&CacheEntry> {
        self.entries.get(key)
    }

    /// Peek mutably without LRU update. Callers must not change dirty
    /// bits through this — use [`Self::mark_dirty_range`] /
    /// [`Self::clear_dirty`] so the dirty-chunk count stays right.
    pub fn peek_mut(&mut self, key: &ChunkKey) -> Option<&mut CacheEntry> {
        self.entries.get_mut(key)
    }

    /// Insert a chunk; the caller must have made room first. New entries
    /// start clean and (in segmented mode) on probation.
    pub fn insert(&mut self, key: ChunkKey, data: ChunkBuf, ready_at: VTime) {
        assert!(!self.is_full(), "insert into a full cache");
        self.tick += 1;
        let prev = self.entries.insert(
            key,
            CacheEntry {
                data,
                dirty: DirtyPages::new(self.pages_per_chunk),
                last_use: self.tick,
                ready_at,
                protected: false,
            },
        );
        assert!(prev.is_none(), "duplicate cache insert");
        self.probation.insert((self.tick, key));
    }

    /// Mark `[start, end)` bytes of the entry dirty, keeping the cache's
    /// dirty-chunk count (and high-water mark) consistent.
    pub fn mark_dirty_range(&mut self, key: &ChunkKey, start: u64, end: u64, page_size: u64) {
        let e = self
            .entries
            .get_mut(key)
            .expect("mark_dirty_range on a missing entry");
        let was_dirty = e.dirty.any();
        e.dirty.mark_range(start, end, page_size);
        if !was_dirty && e.dirty.any() {
            self.dirty_count += 1;
            self.max_dirty = self.max_dirty.max(self.dirty_count);
        }
    }

    /// Mark one page of the entry dirty (test convenience).
    pub fn mark_dirty_page(&mut self, key: &ChunkKey, page: usize) {
        let e = self
            .entries
            .get_mut(key)
            .expect("mark_dirty_page on a missing entry");
        let was_dirty = e.dirty.any();
        e.dirty.mark(page);
        if !was_dirty {
            self.dirty_count += 1;
            self.max_dirty = self.max_dirty.max(self.dirty_count);
        }
    }

    /// Clear the entry's dirty bits (after a successful write-back).
    pub fn clear_dirty(&mut self, key: &ChunkKey) {
        if let Some(e) = self.entries.get_mut(key) {
            if e.dirty.any() {
                self.dirty_count -= 1;
            }
            e.dirty.clear();
        }
    }

    /// The least-recently-used key among entries for which `exclude` is
    /// false — victim selection that must not evict the working set
    /// currently being ensured (the data path's protection rule).
    /// Probation is drained before the protected segment.
    pub fn lru_key_excluding(
        &mut self,
        mut exclude: impl FnMut(&ChunkKey) -> bool,
    ) -> Option<ChunkKey> {
        let mut steps = 0u64;
        let found = self
            .probation
            .iter()
            .chain(self.protected.iter())
            .inspect(|_| steps += 1)
            .map(|&(_, k)| k)
            .find(|k| !exclude(k));
        self.victim_scan_steps += steps;
        found
    }

    /// Clean-first victim selection (segmented mode): prefer a *clean*
    /// entry near the cold end of probation, then of the protected
    /// segment, scanning at most [`CLEAN_SCAN_DEPTH`] entries per list;
    /// fall back to the plain LRU victim when everything cold is dirty.
    /// A clean victim means eviction ships nothing synchronously.
    pub fn victim_clean_first(
        &mut self,
        mut exclude: impl FnMut(&ChunkKey) -> bool,
    ) -> Option<ChunkKey> {
        let mut steps = 0u64;
        let mut clean = None;
        'lists: for list in [&self.probation, &self.protected] {
            for &(_, k) in list.iter().take(CLEAN_SCAN_DEPTH) {
                steps += 1;
                if exclude(&k) {
                    continue;
                }
                if !self.entries[&k].dirty.any() {
                    clean = Some(k);
                    break 'lists;
                }
            }
        }
        self.victim_scan_steps += steps;
        clean.or_else(|| self.lru_key_excluding(exclude))
    }

    /// Remove an entry, returning it (for write-back of its dirty pages).
    pub fn remove(&mut self, key: &ChunkKey) -> Option<CacheEntry> {
        let e = self.entries.remove(key)?;
        if e.protected {
            self.protected.remove(&(e.last_use, *key));
            self.protected_len -= 1;
        } else {
            self.probation.remove(&(e.last_use, *key));
        }
        if e.dirty.any() {
            self.dirty_count -= 1;
        }
        Some(e)
    }

    /// All keys belonging to `file` (flush / invalidate scans).
    pub fn keys_of_file(&self, file: FileId) -> Vec<ChunkKey> {
        let mut keys: Vec<ChunkKey> = self
            .entries
            .keys()
            .filter(|(f, _)| *f == file)
            .copied()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Keys of every dirty chunk, in LRU order (flush-all scans and the
    /// background flusher, which writes back oldest-first).
    pub fn dirty_keys(&self) -> Vec<ChunkKey> {
        let mut keyed: Vec<(u64, ChunkKey)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dirty.any())
            .map(|(k, e)| (e.last_use, *k))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, k)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: usize) -> ChunkKey {
        (FileId(1), i)
    }

    fn cache(cap: usize) -> ChunkCache {
        ChunkCache::new(cap, 64)
    }

    fn data() -> ChunkBuf {
        chunkstore::zero_chunk(256)
    }

    #[test]
    fn insert_and_get() {
        let mut c = cache(2);
        c.insert(key(0), data(), VTime::ZERO);
        assert!(c.contains(&key(0)));
        assert!(c.get_mut(&key(0)).is_some());
        assert!(c.get_mut(&key(1)).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_order_follows_touches() {
        let mut c = cache(3);
        c.insert(key(0), data(), VTime::ZERO);
        c.insert(key(1), data(), VTime::ZERO);
        c.insert(key(2), data(), VTime::ZERO);
        // Touch 0: now 1 is the LRU.
        c.get_mut(&key(0));
        assert_eq!(c.lru_key_excluding(|_| false), Some(key(1)));
        c.get_mut(&key(1));
        assert_eq!(c.lru_key_excluding(|_| false), Some(key(2)));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn insert_into_full_cache_panics() {
        let mut c = cache(1);
        c.insert(key(0), data(), VTime::ZERO);
        c.insert(key(1), data(), VTime::ZERO);
    }

    #[test]
    fn remove_frees_room() {
        let mut c = cache(1);
        c.insert(key(0), data(), VTime::ZERO);
        assert!(c.is_full());
        let e = c.remove(&key(0)).unwrap();
        assert!(!e.dirty.any());
        assert!(c.is_empty());
        c.insert(key(1), data(), VTime::ZERO);
    }

    #[test]
    fn file_and_dirty_scans() {
        let mut c = cache(4);
        c.insert((FileId(1), 0), data(), VTime::ZERO);
        c.insert((FileId(2), 0), data(), VTime::ZERO);
        c.insert((FileId(1), 3), data(), VTime::ZERO);
        assert_eq!(
            c.keys_of_file(FileId(1)),
            vec![(FileId(1), 0), (FileId(1), 3)]
        );
        assert!(c.dirty_keys().is_empty());
        c.mark_dirty_page(&(FileId(1), 3), 0);
        assert_eq!(c.dirty_keys(), vec![(FileId(1), 3)]);
    }

    #[test]
    fn dirty_count_tracks_transitions() {
        let mut c = cache(4);
        c.insert(key(0), data(), VTime::ZERO);
        c.insert(key(1), data(), VTime::ZERO);
        assert_eq!(c.dirty_chunks(), 0);
        c.mark_dirty_range(&key(0), 0, 8, 4);
        c.mark_dirty_range(&key(0), 16, 24, 4); // same chunk: still 1
        c.mark_dirty_page(&key(1), 2);
        assert_eq!(c.dirty_chunks(), 2);
        assert_eq!(c.max_dirty_chunks(), 2);
        c.clear_dirty(&key(0));
        assert_eq!(c.dirty_chunks(), 1);
        c.remove(&key(1));
        assert_eq!(c.dirty_chunks(), 0);
        assert_eq!(c.max_dirty_chunks(), 2, "high-water mark sticks");
    }

    #[test]
    fn segmented_promotion_and_demotion() {
        // cap 5 => protected_cap 4.
        let mut c = ChunkCache::new_segmented(5, 64);
        for i in 0..5 {
            c.insert(key(i), data(), VTime::ZERO);
        }
        assert_eq!(c.protected_len(), 0);
        // Re-reference 0..4: all promoted, 4th promotion demotes the
        // protected LRU (0) back to probation.
        for i in 0..5 {
            c.get_mut(&key(i));
        }
        assert_eq!(c.protected_len(), 4);
        assert!(!c.is_protected(&key(0)), "LRU demoted on overflow");
        for i in 1..5 {
            assert!(c.is_protected(&key(i)));
        }
    }

    #[test]
    fn segmented_scan_cannot_evict_protected_working_set() {
        let mut c = ChunkCache::new_segmented(4, 64);
        // Working set: chunks 0 and 1, re-referenced (protected).
        c.insert(key(0), data(), VTime::ZERO);
        c.insert(key(1), data(), VTime::ZERO);
        c.get_mut(&key(0));
        c.get_mut(&key(1));
        // One-touch scan through 100 chunks: victims always come from
        // probation, so the protected pair survives the whole scan.
        for i in 2..102 {
            if c.is_full() {
                let v = c.lru_key_excluding(|_| false).unwrap();
                assert!(v != key(0) && v != key(1), "scan evicted working set");
                c.remove(&v);
            }
            c.insert(key(i), data(), VTime::ZERO);
        }
        assert!(c.contains(&key(0)) && c.contains(&key(1)));
    }

    #[test]
    fn clean_first_victim_skips_dirty_cold_entries() {
        let mut c = ChunkCache::new_segmented(4, 64);
        for i in 0..4 {
            c.insert(key(i), data(), VTime::ZERO);
        }
        // Coldest two are dirty; 2 is the coldest *clean* entry.
        c.mark_dirty_page(&key(0), 0);
        c.mark_dirty_page(&key(1), 0);
        assert_eq!(c.victim_clean_first(|_| false), Some(key(2)));
        // All dirty: falls back to the true LRU.
        c.mark_dirty_page(&key(2), 0);
        c.mark_dirty_page(&key(3), 0);
        assert_eq!(c.victim_clean_first(|_| false), Some(key(0)));
    }

    #[test]
    fn victim_selection_stays_off_the_quadratic_path() {
        // The O(n)-scan regression guard: evicting half of a big cache
        // must examine ~one entry per eviction, not ~capacity per
        // eviction (the old full-map min_by_key scan).
        let cap = 1024;
        let mut c = cache(cap);
        for i in 0..cap {
            c.insert(key(i), data(), VTime::ZERO);
        }
        let evictions = cap / 2;
        for _ in 0..evictions {
            let v = c.lru_key_excluding(|_| false).unwrap();
            c.remove(&v);
        }
        let steps = c.victim_scan_steps();
        assert!(
            steps <= (evictions as u64) * 2,
            "victim selection scanned {steps} entries for {evictions} evictions"
        );
    }
}
