//! Per-benefactor chain scheduling for the batched data paths
//! (DESIGN.md §8): entries bound for the same benefactor run serially,
//! chains on distinct benefactors run concurrently, and the whole batch is
//! drained min-cursor-first so resource requests are issued in
//! non-decreasing virtual time.

use super::AggregateStore;
use crate::error::Result;
use crate::ids::BenefactorId;
use simcore::VTime;

/// Reusable per-benefactor chain-grouping scratch for the batched
/// fetch/write drains. Flat Vecs keyed by benefactor index, recycled
/// across calls (taken from and returned to the store's mutex), so
/// steady-state batch planning allocates nothing — the previous code
/// built a fresh `BTreeMap` of `Vec`s per call and popped entries with
/// `remove(0)`.
#[derive(Debug, Default)]
pub(super) struct ChainScratch {
    /// Per-benefactor chain cursor (completion of its last entry).
    cursor: Vec<VTime>,
    /// Per-benefactor queued entry indices, in input order.
    queue: Vec<Vec<usize>>,
    /// Per-benefactor drain position into `queue` (O(1) pop-front).
    head: Vec<usize>,
    /// Benefactor indexes holding any queued entries this batch.
    active: Vec<usize>,
}

impl ChainScratch {
    /// Reset for a batch over a fleet of `n` benefactors.
    fn begin(&mut self, n: usize) {
        for &b in &self.active {
            self.queue[b].clear();
            self.head[b] = 0;
        }
        self.active.clear();
        if self.cursor.len() < n {
            self.cursor.resize(n, VTime::ZERO);
            self.queue.resize_with(n, Vec::new);
            self.head.resize(n, 0);
        }
    }

    fn push(&mut self, home: BenefactorId, i: usize) {
        let b = home.0;
        if self.queue[b].is_empty() {
            self.cursor[b] = VTime::ZERO;
            self.active.push(b);
        }
        self.queue[b].push(i);
    }

    /// Pop the entry whose chain start `max(cursor, ready[front])` is
    /// minimal, benefactor id breaking ties — the exact drain order the
    /// old per-call BTreeMap min-scan produced. Returns the entry's
    /// benefactor, index and chain start time.
    fn pop_min(&mut self, ready: &[VTime]) -> Option<(BenefactorId, usize, VTime)> {
        let mut best: Option<(VTime, usize)> = None;
        for &b in &self.active {
            if self.head[b] == self.queue[b].len() {
                continue;
            }
            let start = self.cursor[b].max(ready[self.queue[b][self.head[b]]]);
            if best.is_none_or(|k| (start, b) < k) {
                best = Some((start, b));
            }
        }
        let (start, b) = best?;
        let i = self.queue[b][self.head[b]];
        self.head[b] += 1;
        Some((BenefactorId(b), i, start))
    }
}

impl AggregateStore {
    /// Drain one batch. `queued` yields each entry to run with the
    /// benefactor its chain belongs to, or `None` for an entry no listed
    /// copy can serve right now: those run unchained, after the chains,
    /// in input order. A chain's cursor starts at ZERO and entry `i`
    /// starts at `max(cursor, ready[i])` — its resolution reply in hand
    /// and its chain predecessor complete — so with a uniform `ready`
    /// (serial manager, or shards=1 where every owner is shard 0) the
    /// drain is exactly the original shared-`t0` schedule; an unchained
    /// entry starts at `ready[i]` and so completes when the serial path
    /// would. `run(i, start)` performs the entry and returns its
    /// completion, which becomes its chain's cursor.
    pub(super) fn drain_chains(
        &self,
        fleet: usize,
        ready: &[VTime],
        queued: impl Iterator<Item = (usize, Option<BenefactorId>)>,
        mut run: impl FnMut(usize, VTime) -> Result<VTime>,
    ) -> Result<()> {
        let mut scratch = std::mem::take(&mut *self.chain_scratch.lock());
        scratch.begin(fleet);
        let mut unchained = Vec::new();
        for (i, home) in queued {
            match home {
                Some(home) => scratch.push(home, i),
                None => unchained.push(i),
            }
        }
        let mut unchained = unchained.into_iter();
        while let Some((home, i, start)) = scratch
            .pop_min(ready)
            .map(|(home, i, start)| (Some(home), i, start))
            .or_else(|| unchained.next().map(|i| (None, i, ready[i])))
        {
            let end = run(i, start)?;
            if let Some(home) = home {
                scratch.cursor[home.0] = end;
            }
        }
        *self.chain_scratch.lock() = scratch;
        Ok(())
    }
}
