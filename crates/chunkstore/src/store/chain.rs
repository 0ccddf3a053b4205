//! Per-benefactor chain scheduling for the two data-plane calls
//! (DESIGN.md §8): entries bound for the same benefactor run serially,
//! chains on distinct benefactors run concurrently, and the whole call is
//! drained min-cursor-first so resource requests are issued in
//! non-decreasing virtual time. A call of one entry is one chain of one.

use crate::error::Result;
use crate::ids::BenefactorId;
use simcore::VTime;
use std::cell::RefCell;

/// The working set of one `fetch_chunks` / `write_runs_batch` call: per
/// entry, who resolves it and when that reply is in hand; per benefactor,
/// its chain. Flat Vecs recycled across the calling thread's calls
/// ([`ChainScratch::take`] / [`ChainScratch::recycle`]), so a steady-state
/// call allocates only what it returns. Per thread, not per store: the
/// paper path issues one call per chunk from every rank, and a block one
/// rank's call grew, kept alive in that rank's heap until the store goes,
/// is enough to stop glibc trimming that heap behind it (EXPERIMENTS.md
/// "One store call per direction").
#[derive(Debug, Default)]
pub(super) struct ChainScratch {
    /// Per entry: the ring owner of its slot key (`None`: the serial
    /// manager) — `AggregateStore::owners_of`.
    pub(super) owners: Vec<Option<usize>>,
    /// Per entry: when its resolution reply is in hand —
    /// `AggregateStore::resolve_fan_out`.
    pub(super) ready: Vec<VTime>,
    /// Per-benefactor chain cursor (completion of its last entry).
    cursor: Vec<VTime>,
    /// Per-benefactor queued entry indices, in input order.
    queue: Vec<Vec<usize>>,
    /// Per-benefactor drain position into `queue` (O(1) pop-front).
    head: Vec<usize>,
    /// Benefactor indexes holding any queued entries this call.
    active: Vec<usize>,
    /// Entries no listed copy can serve right now, in input order.
    unchained: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<ChainScratch> = RefCell::default();
}

impl ChainScratch {
    /// The calling thread's scratch, for one call; [`Self::recycle`] hands
    /// it back (a call that fails simply leaves a fresh one behind).
    pub(super) fn take() -> Self {
        SCRATCH.take()
    }

    pub(super) fn recycle(self) {
        SCRATCH.set(self);
    }

    /// Group a call's entries over a fleet of `n` benefactors. `queued`
    /// yields each entry to run with the benefactor its chain belongs to,
    /// or `None` for an entry no listed copy can serve right now: those
    /// run unchained, after the chains, in input order.
    pub(super) fn plan(
        &mut self,
        n: usize,
        queued: impl Iterator<Item = (usize, Option<BenefactorId>)>,
    ) {
        for &b in &self.active {
            self.queue[b].clear();
            self.head[b] = 0;
        }
        self.active.clear();
        self.unchained.clear();
        if self.cursor.len() < n {
            self.cursor.resize(n, VTime::ZERO);
            self.queue.resize_with(n, Vec::new);
            self.head.resize(n, 0);
        }
        for (i, home) in queued {
            let Some(BenefactorId(b)) = home else {
                self.unchained.push(i);
                continue;
            };
            if self.queue[b].is_empty() {
                self.cursor[b] = VTime::ZERO;
                self.active.push(b);
            }
            self.queue[b].push(i);
        }
    }

    /// Pop the entry whose chain start `max(cursor, ready[front])` is
    /// minimal, benefactor id breaking ties. Returns the entry's
    /// benefactor, index and chain start time.
    fn pop_min(&mut self) -> Option<(usize, usize, VTime)> {
        let mut best: Option<(VTime, usize)> = None;
        for &b in &self.active {
            if self.head[b] == self.queue[b].len() {
                continue;
            }
            let start = self.cursor[b].max(self.ready[self.queue[b][self.head[b]]]);
            if best.is_none_or(|k| (start, b) < k) {
                best = Some((start, b));
            }
        }
        let (start, b) = best?;
        let i = self.queue[b][self.head[b]];
        self.head[b] += 1;
        Some((b, i, start))
    }

    /// Drain the planned call. A chain's cursor starts at ZERO and entry
    /// `i` starts at `max(cursor, ready[i])` — its resolution reply in
    /// hand and its chain predecessor complete — so with a uniform `ready`
    /// (serial manager, or shards=1 where every owner is shard 0) the
    /// drain is exactly the original shared-`t0` schedule; an unchained
    /// entry starts at `ready[i]` and so completes when a call for it
    /// alone would. `run(i, start)` performs the entry and returns its
    /// completion, which becomes its chain's cursor; the drain stops at
    /// the first entry that fails.
    pub(super) fn drain(
        &mut self,
        mut run: impl FnMut(usize, VTime) -> Result<VTime>,
    ) -> Result<()> {
        while let Some((b, i, start)) = self.pop_min() {
            self.cursor[b] = run(i, start)?;
        }
        for &i in &self.unchained {
            run(i, self.ready[i])?;
        }
        Ok(())
    }
}
