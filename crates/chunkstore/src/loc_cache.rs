//! Client-side chunk-location cache.
//!
//! A fetch without one pays a manager RPC just to learn where its chunks
//! live. Placement is almost always stable in steady state, so
//! a client can remember the resolution — `(file, chunk index)` → slot
//! state + home list — and skip the RPC on later fetches.
//!
//! Coherence rule (DESIGN.md §8): every cached resolution is stamped with
//! the manager's *placement epoch* at resolution time. The manager bumps
//! that epoch on any event that can change where authoritative copies
//! live — chunk materialization/COW, crash/recovery liveness flips,
//! failover re-homing, repair, reconcile, file deletion/linking. A lookup
//! whose stamp is older than the current epoch misses, and the next
//! resolution refreshes it. This models lease/epoch invalidation
//! piggybacked on the manager's heartbeat, which is why checking the
//! epoch itself is not charged as an RPC.

use crate::ids::{BenefactorId, ChunkId, FileId};
use parking_lot::Mutex;
use simcore::{Counter, StatsRegistry};
use std::collections::HashMap;
use std::sync::Arc;

/// A cached resolution for one `(file, chunk index)` target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CachedLoc {
    /// The slot was a hole / unmaterialized: reads materialize zeros.
    Zeros,
    /// A materialized chunk and its authoritative home list, in manager
    /// preference order.
    Chunk {
        chunk: ChunkId,
        homes: Vec<BenefactorId>,
    },
}

#[derive(Debug)]
struct Inner {
    map: HashMap<(FileId, usize), (u64, CachedLoc)>,
    /// Epoch the whole cache was last validated against; entries stamped
    /// older than the manager's current epoch are dropped on access.
    epoch: u64,
}

/// A per-client chunk-location cache (cheap to clone, shared state).
#[derive(Clone)]
pub struct LocationCache {
    inner: Arc<Mutex<Inner>>,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
}

impl LocationCache {
    pub fn new(stats: &StatsRegistry) -> Self {
        LocationCache {
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                epoch: 0,
            })),
            hits: stats.counter("store.loc_cache_hits"),
            misses: stats.counter("store.loc_cache_misses"),
            invalidations: stats.counter("store.loc_cache_invalidations"),
        }
    }

    /// Look up a target under the manager's current epoch. A stale stamp
    /// (any placement change since resolution) drops the whole cache —
    /// coarse, but epoch bumps are rare and correctness is trivial to
    /// argue: a hit implies *nothing* placement-affecting happened since
    /// the entry was written.
    pub(crate) fn lookup(&self, current_epoch: u64, key: (FileId, usize)) -> Option<CachedLoc> {
        let mut inner = self.inner.lock();
        if inner.epoch != current_epoch {
            if !inner.map.is_empty() {
                self.invalidations.inc();
            }
            inner.map.clear();
            inner.epoch = current_epoch;
        }
        match inner.map.get(&key) {
            Some((_, loc)) => {
                self.hits.inc();
                Some(loc.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// The sharded manager's lease gate (DESIGN.md §12): the client has
    /// no delegation authority from the owning shard, so a cached entry
    /// — even a fresh one — may not be used and the target must go to
    /// the shard. Replays `lookup`'s epoch-transition bookkeeping
    /// (invalidation counting + clear) and counts the forced miss, then
    /// drops the unusable entry so the shard's answer replaces it. With
    /// one shard and a held lease this path never runs, keeping counters
    /// bit-identical to the serial manager.
    pub(crate) fn note_unleased_miss(&self, current_epoch: u64, key: (FileId, usize)) {
        let mut inner = self.inner.lock();
        if inner.epoch != current_epoch {
            if !inner.map.is_empty() {
                self.invalidations.inc();
            }
            inner.map.clear();
            inner.epoch = current_epoch;
        }
        inner.map.remove(&key);
        self.misses.inc();
    }

    /// Record a fresh resolution made at `epoch`.
    pub(crate) fn insert(&self, epoch: u64, key: (FileId, usize), loc: CachedLoc) {
        let mut inner = self.inner.lock();
        if inner.epoch != epoch {
            inner.map.clear();
            inner.epoch = epoch;
        }
        inner.map.insert(key, (epoch, loc));
    }

    /// Number of live entries (tests).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
