//! The write data plane: page write-back as one batch implementation —
//! the paper's per-chunk write is the batch of one — with one merged
//! parity ship per touched group (DESIGN.md §7, §8, §11, §15).

use super::chain::ChainScratch;
use super::meta::MgrOp;
use super::{copies, AggregateStore, BatchRuns, BatchWrite, PAGE_BYTES};
use crate::benefactor::Benefactor;
use crate::crc;
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, FileId};
use crate::manager::{FileMeta, Manager, Slot};
use crate::payload::{
    cut_runs, fold_sums, leaf_with, run_len, run_views, sum_of, zero_chunk, ChunkBuf, Leaf, PageRun,
};
use crate::rs::{gf_mul_acc, RsCode};
use crate::segments::segments;
use obs::Layer;
use simcore::VTime;
use std::collections::BTreeMap;

/// Dirty runs `(chunk offset, delta leaves)` for one parity member,
/// produced by one write's incremental encode: the owned form of a
/// [`PageRun`], cut on the same page grid as the write it came from.
type DeltaRuns = Vec<(u64, Vec<Leaf>)>;

/// What one erasure-coded entry contributes: its group's index in the
/// file and, per parity member, the delta runs of its dirty pages.
type EntryDeltas = (usize, Vec<DeltaRuns>);

/// The parity work of one `write_runs_batch` call, per touched (file,
/// group): the deltas of every contributing entry, merged by XOR when the
/// group ships. Linearity of RS over GF(2^8) makes the merge exact —
/// parity for the whole group ships once per call instead of once per
/// member, which is where RS(4, 2)'s 1.5× wire cost (vs 2× for
/// `replicas = 2`) comes from.
#[derive(Default)]
struct GroupDeltas {
    /// Per parity member, every contributed run as it arrived: the batch
    /// costs what was dirtied, never a chunk-sized accumulator.
    runs: Vec<DeltaRuns>,
    /// Entry indices that contributed: their reported completion folds in
    /// the parity ship (a write is durable when its redundancy is).
    contributors: Vec<usize>,
    /// Entries of the call that belong to the group and have not run yet.
    pending: usize,
    /// When the latest contributor was issued: the merged delta leaves the
    /// client then (DESIGN.md §15 — the deltas come from the vetted base,
    /// before the data lands, so nothing is waited for).
    issued: VTime,
}

impl GroupDeltas {
    /// Keep the per-parity delta runs of entry `i`, issued at `start`, for
    /// the group's one ship.
    fn absorb(&mut self, i: usize, start: VTime, deltas: Vec<DeltaRuns>) {
        self.runs.resize_with(deltas.len(), Vec::new);
        for (kept, runs) in self.runs.iter_mut().zip(deltas) {
            kept.extend(runs);
        }
        self.contributors.push(i);
        self.pending = self.pending.saturating_sub(1);
        self.issued = self.issued.max(start);
    }
}

/// A run's pieces with the chunk offset each starts at.
fn placed<'a>((off, pieces): PageRun<'a>) -> impl Iterator<Item = (u64, &'a Leaf)> {
    pieces.iter().scan(off, |pos, piece| {
        let at = *pos;
        *pos += piece.len() as u64;
        Some((at, piece))
    })
}

/// Coalesce one parity member's contributed runs into disjoint ones, one
/// per maximal interval of overlapping or touching runs. An interval one
/// run covers alone ships that run's leaves as they are; only where several
/// contributions meet (two members dirty at the same offsets) are they
/// XOR-merged, leaf by leaf, into pieces cut on the same page grid.
fn merge_runs(mut runs: DeltaRuns) -> DeltaRuns {
    let page = PAGE_BYTES;
    runs.sort_by_key(|(off, _)| *off);
    let mut merged = Vec::with_capacity(runs.len());
    let mut runs = runs.into_iter().peekable();
    while let Some((start, first)) = runs.next() {
        let mut end = start + run_len(&first);
        let mut met = Vec::new();
        while let Some(run) = runs.next_if(|(off, _)| *off <= end) {
            end = end.max(run.0 + run_len(&run.1));
            met.push(run);
        }
        if met.is_empty() {
            merged.push((start, first));
            continue;
        }
        let mut cells: Vec<Leaf> = segments(start, end - start, page)
            .map(|cell| leaf_with(cell.take, |_| ()))
            .collect();
        for (off, run) in std::iter::once(&(start, first)).chain(&met) {
            for (pos, piece) in placed((*off, run)) {
                // A contributed piece never straddles a page, so it falls
                // inside one cell.
                let cell = (pos / page - start / page) as usize;
                let at = (pos - start.max(pos / page * page)) as usize;
                let out = cells[cell].bytes_mut();
                // · 1: a plain XOR, at the kernel's width.
                gf_mul_acc(&mut out[at..at + piece.len()], piece, 1);
            }
        }
        merged.push((start, cells));
    }
    merged
}

/// `crc` — the digest of a `chunk_len`-byte chunk — after `runs` are
/// XOR-ed into it: `crc(M ⊕ D) = crc(M) ⊕ raw(D)`, one O(log chunk) splice
/// per run of the pieces' own sums — no byte of the chunk read, and a
/// piece's bytes only if nobody has digested them yet. Over the all-zeros
/// chunk the XOR *is* the write; runs never overlap (`validate_updates`
/// rejects any that do, `merge_runs` coalesces them), which the algebra
/// relies on.
fn splice_runs(crc: u64, chunk_len: u64, runs: &[PageRun<'_>]) -> u64 {
    runs.iter().fold(crc, |crc, &(off, pieces)| {
        crc::crc64_splice(crc, chunk_len, off, run_len(pieces), sum_of(pieces))
    })
}

/// Digest of a zero chunk with `runs` applied, computed without scanning
/// (or building) the chunk.
fn digest_of_runs(chunk_len: u64, runs: &[PageRun<'_>]) -> u64 {
    splice_runs(crc::crc64_zeros(chunk_len), chunk_len, runs)
}

/// A zero chunk with `runs` applied: the shared zero table un-shared, the
/// written leaves replaced — an unwritten page stays the one zero leaf.
fn fresh_chunk(chunk_len: u64, runs: &[PageRun<'_>]) -> ChunkBuf {
    let mut chunk = zero_chunk(chunk_len);
    for &run in runs {
        chunk.write_run(run, usize::MAX);
    }
    chunk
}

impl AggregateStore {
    /// Write back dirty pages of chunk `idx` (the paper's FUSE eviction
    /// path, §III-D): the one-entry [`Self::write_runs_batch`].
    pub fn write_runs(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        idx: usize,
        updates: &[PageRun<'_>],
    ) -> Result<VTime> {
        let updates = updates.to_vec();
        let entry = BatchRuns { file, idx, updates };
        Ok(self.write_runs_batch(t, client_node, &[entry])?[0])
    }

    /// [`Self::write_runs`] for a caller holding plain bytes: the one-entry
    /// [`Self::write_pages_batch`].
    pub fn write_pages(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        idx: usize,
        updates: &[(u64, &[u8])],
    ) -> Result<VTime> {
        let entry = BatchWrite { file, idx, updates };
        Ok(self.write_pages_batch(t, client_node, &[entry])?[0])
    }

    /// Write back dirty pages of every entry's chunk: *the* write path —
    /// the paper's per-chunk write-back is the batch of one.
    ///
    /// An entry's `updates` are `(offset_within_chunk, leaves)` runs
    /// ([`PageRun`]): whole-page pieces are handed to the benefactors,
    /// never copied. All three slot states are handled:
    ///
    /// * unmaterialized → materialize a fresh chunk (zeros + updates);
    /// * exclusive chunk → in-place page update;
    /// * shared chunk (checkpoint-linked) → copy-on-write: the benefactor
    ///   clones the chunk locally, the updates land on the clone, and the
    ///   file's slot is switched while the checkpoint keeps the original.
    ///
    /// Replication: the dirty bytes ship to **every** live copy (each
    /// transfer and SSD write is charged; completion is the slowest
    /// replica). A copy whose benefactor is dead is dropped from the
    /// chunk's home list — its on-disk bytes are stale from now on and
    /// are reclaimed when the benefactor reconciles on recovery. An entry
    /// only fails if *no* copy is on a live benefactor — or, under
    /// `verify_reads`, if it needs the chunk's current bytes (a partial
    /// overwrite, or any overwrite of a parity-group member) and no live
    /// copy still matches the recorded CRC ([`StoreError::ChunkCorrupt`]:
    /// the write would otherwise launder the rot into the new digest).
    ///
    /// Scheduling: one manager resolution covers the call, then the
    /// entries run as per-benefactor chains exactly like
    /// [`Self::fetch_chunks`] — entries bound for the same primary home
    /// chain serially (entry `i+1` ships when entry `i`'s replicas have
    /// all acknowledged), chains on distinct benefactors proceed
    /// concurrently from the resolution time, so a background flush
    /// scales with stripe width. Chains are drained min-cursor first,
    /// keeping resource requests in non-decreasing virtual time; an entry
    /// with no live home runs unchained from the resolution time. A
    /// parity group's merged delta ships once, when the last of its
    /// entries has been issued. Returns per-entry completion times in
    /// input order (a flush's completion is their max).
    ///
    /// Failure (DESIGN.md §15): the drain stops at the first entry that
    /// fails, and the parity of every entry that did land still ships —
    /// the error is returned after, not instead, so a retry of the call
    /// (whose deltas for the landed entries are zero) leaves no group
    /// behind its data.
    pub fn write_runs_batch(
        &self,
        t: VTime,
        client_node: usize,
        entries: &[BatchRuns<'_>],
    ) -> Result<Vec<VTime>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        for e in entries {
            self.validate_updates(&e.updates);
        }
        self.poll_faults(t);
        // The batch's own span and count are for a call of more than one
        // entry (DESIGN.md §9): a one-entry call is its entry's span alone.
        let sp = (entries.len() > 1).then(|| {
            self.batched_writes.inc();
            self.trace.span(Layer::Store, "store.write_batch", t)
        });
        if let Some(sp) = &sp {
            sp.arg("entries", entries.len() as u64);
        }

        // Resolution RPC(s): one per owning shard in shard mode — writes
        // are placement mutations and always reach the authoritative
        // shard, no lease shortcut — issued concurrently from `t`; one
        // serial manager RPC otherwise. `sc.ready[i]` is when entry `i`'s
        // resolution reply is in hand.
        let mut sc = ChainScratch::take();
        self.owners_of(entries.iter().map(|e| (e.file, e.idx)), &mut sc.owners);
        self.resolve_fan_out(t, client_node, MgrOp::Write, &mut sc, |_| true)?;

        // Group entries by the benefactor their bytes land on first (the
        // primary live home) and count each parity group's members.
        // Resolution here is advisory — it only shapes chains and the
        // parity moment; `write_pages_inner` re-resolves authoritatively
        // per entry. Entries with no live home at planning time (they
        // error, or — for holes — allocate wherever space remains) run
        // unchained from their resolution time, after the chains.
        let mut groups: BTreeMap<(FileId, usize), GroupDeltas> = BTreeMap::new();
        {
            let mgr = self.mgr.lock();
            let keys = entries.iter().enumerate().map(|(i, e)| {
                let meta = mgr.file(e.file).ok().filter(|m| e.idx < m.slots.len());
                if let Some(meta) = meta.filter(|m| m.parity > 0) {
                    let group = (e.file, meta.group_of_slot(e.idx));
                    groups.entry(group).or_default().pending += 1;
                }
                let home = meta.and_then(|meta| Self::primary_live_home(&mgr, meta, e.idx));
                (i, home)
            });
            sc.plan(mgr.benefactor_count(), keys);
        }
        let mut ends: Vec<VTime> = sc.ready.clone();
        let drained = sc.drain(|i, start| {
            let e = &entries[i];
            let esp = self.trace.span(Layer::Store, "store.write_pages", start);
            esp.arg("file", e.file.0).arg("idx", e.idx as u64);
            let (landed, deltas) =
                self.write_pages_inner(start, client_node, e.file, e.idx, &e.updates)?;
            ends[i] = landed;
            if let Some((group, deltas)) = deltas {
                let gd = groups.entry((e.file, group)).or_default();
                gd.absorb(i, start, deltas);
                if gd.pending == 0 {
                    let gd = std::mem::take(gd);
                    self.ship_group(client_node, e.file, group, gd, &mut ends)?;
                }
            }
            esp.finish(ends[i]);
            Ok(landed)
        });
        sc.recycle();
        // Whatever stopped the drain, the parity of every entry that
        // landed leaves before the error does.
        for ((file, group), gd) in groups {
            self.ship_group(client_node, file, group, gd, &mut ends)?;
        }
        drained?;
        if let Some(sp) = sp {
            sp.finish(ends.iter().copied().max().unwrap_or(t));
        }
        Ok(ends)
    }

    /// Ship `gd`'s XOR-merged parity — one delta per parity member for the
    /// whole group, so a full-group RS(4, 2) call puts k + m = 6 chunk
    /// transfers on the wire where `replicas = 2` puts 2k = 8 — from the
    /// moment its last contributor was issued, and fold the completion
    /// into every contributor's.
    fn ship_group(
        &self,
        client_node: usize,
        file: FileId,
        group: usize,
        gd: GroupDeltas,
        ends: &mut [VTime],
    ) -> Result<()> {
        if gd.contributors.is_empty() {
            return Ok(());
        }
        let merged: Vec<_> = gd.runs.into_iter().map(merge_runs).collect();
        let deltas: Vec<_> = merged.iter().map(|runs| run_views(runs)).collect();
        let pend = self.ship_parity_deltas(gd.issued, client_node, file, group, &deltas)?;
        for i in gd.contributors {
            ends[i] = ends[i].max(pend);
        }
        Ok(())
    }

    /// [`Self::write_runs_batch`] for a caller holding plain bytes: each
    /// entry's `(offset_within_chunk, bytes)` runs are cut into leaves on
    /// the page grid (the one copy they get) and take the same path.
    pub fn write_pages_batch(
        &self,
        t: VTime,
        client_node: usize,
        entries: &[BatchWrite<'_>],
    ) -> Result<Vec<VTime>> {
        let cut: Vec<_> = entries.iter().map(|e| cut_runs(e.updates)).collect();
        let runs = entries.iter().zip(&cut).map(|(e, cut)| BatchRuns {
            file: e.file,
            idx: e.idx,
            updates: run_views(cut),
        });
        self.write_runs_batch(t, client_node, &runs.collect::<Vec<_>>())
    }

    /// The benefactor a write to slot `idx` of `meta`'s file primarily
    /// lands on — the chain-grouping key for [`Self::write_runs_batch`].
    /// `None` when no listed home is alive; such entries run unchained.
    fn primary_live_home(mgr: &Manager, meta: &FileMeta, idx: usize) -> Option<BenefactorId> {
        match meta.slots[idx] {
            Slot::Unmaterialized => {
                copies::first_live(mgr, meta.homes_iter(idx), |_| true).map(|(_, h)| h)
            }
            Slot::Hole => copies::pick_destination(mgr, &[]),
            Slot::Chunk(c) => copies::trusted_copy(mgr, c, |_| true),
        }
    }

    fn validate_updates(&self, updates: &[PageRun<'_>]) {
        let dirty_bytes: u64 = updates.iter().map(|(_, d)| run_len(d)).sum();
        assert!(dirty_bytes > 0, "write_pages with no updates");
        // The digest splice and the parity deltas take the runs to be
        // disjoint: an overlap would record a CRC the stored bytes do not
        // have. Runs that arrive ascending (every fusemm caller's) are
        // vetted in this pass; any other order is sorted first.
        let mut ascending = true;
        let mut prev_end = 0;
        let page = PAGE_BYTES;
        for &(off, pieces) in updates {
            let end = off + run_len(pieces);
            assert!(end <= self.cfg.chunk_size, "update outside chunk");
            // Landing, splicing and the deltas all walk a run piece by
            // piece against the stored leaves: each piece inside one page.
            let fits = |(pos, piece): (u64, &Leaf)| pos % page + piece.len() as u64 <= page;
            assert!(
                placed((off, pieces)).all(fits),
                "run not cut on the page grid"
            );
            ascending &= off >= prev_end;
            prev_end = end;
        }
        if !ascending {
            let mut spans: Vec<(u64, u64)> = updates
                .iter()
                .map(|(off, d)| (*off, off + run_len(d)))
                .collect();
            spans.sort_unstable();
            assert!(
                spans.windows(2).all(|w| w[0].1 <= w[1].0),
                "overlapping updates"
            );
        }
    }

    /// One entry's write-back, post-resolution: `t` is its chain start.
    /// Returns when the data has landed on every live home and, for an
    /// erasure-coded slot, `(group, per-parity delta runs)` for the
    /// group's one merged ship.
    fn write_pages_inner(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        idx: usize,
        updates: &[PageRun<'_>],
    ) -> Result<(VTime, Option<EntryDeltas>)> {
        let dirty_bytes: u64 = updates.iter().map(|(_, d)| run_len(d)).sum();
        let chunk_len = self.cfg.chunk_size;
        let mut mgr = self.mgr.lock();
        let meta = self.slot_in(&mgr, file, idx)?;
        let slot = meta.slots[idx];
        let replicas = meta.replicas.max(1);
        // (k, m, group) when this slot belongs to a parity group. Note
        // this keys off the *owning* file: a checkpoint file holding a
        // linked reference to an encoded chunk has `parity = 0` and its
        // COW write produces a plain chunk, leaving the source group
        // untouched.
        let parity_cfg = (meta.parity > 0).then(|| {
            (
                meta.group_data,
                meta.parity,
                meta.group_of_slot(idx),
                idx % meta.group_data,
            )
        });

        // Resolve the live home set for this write and, for an overwrite,
        // the trusted copy its splice base is read from.
        let mut base = None;
        let (live_homes, target) = match slot {
            Slot::Unmaterialized => {
                let homes = meta.homes_of_slot(idx);
                let (live, dead): (Vec<BenefactorId>, Vec<BenefactorId>) =
                    homes.iter().partition(|&&h| mgr.benefactor(h).is_alive());
                if live.is_empty() {
                    return Err(StoreError::BenefactorDown(homes[0]));
                }
                // The dead homes' reservations move off their books: the
                // chunk materializes on the live subset only, and repair
                // re-replicates it elsewhere later.
                for h in dead {
                    mgr.benefactor_mut(h).release_slots(1);
                }
                (live, replicas)
            }
            Slot::Hole => {
                // Holes (zero regions inside linked checkpoint files)
                // carry no reservation and may sit in a file with no
                // stripe of its own; writing one allocates fresh space
                // wherever it fits — up to `replicas` distinct placeable
                // (non-quarantined) hosts.
                let mut picked = Vec::new();
                while picked.len() < replicas {
                    let Some(b) = copies::pick_destination(&mgr, &picked) else {
                        break;
                    };
                    picked.push(b);
                }
                if picked.is_empty() {
                    return Err(StoreError::OutOfSpace {
                        requested: chunk_len,
                        available: 0,
                    });
                }
                (picked, replicas)
            }
            // A materialized chunk's authoritative homes are the chunk
            // map (a linked slot's position in *this* file says nothing
            // about where the shared chunk actually lives).
            Slot::Chunk(c) => {
                let homes: Vec<BenefactorId> =
                    mgr.chunk_homes(c).expect("chunk has a home").to_vec();
                let (live, dead): (Vec<BenefactorId>, Vec<BenefactorId>) =
                    homes.iter().partition(|&&h| mgr.benefactor(h).is_alive());
                if live.is_empty() {
                    return Err(StoreError::BenefactorDown(homes[0]));
                }
                // The new digest — and an encoded write's parity deltas —
                // are spliced from the intended *current* bytes under
                // each dirty run, so those must come from a copy that can
                // be trusted: under `verify_reads`, one whose bytes still
                // match the recorded CRC. When none does, the write is
                // refused — before any state changes — rather than
                // launder the rot into the digest or the parity. Only an
                // unencoded overwrite of the whole chunk needs no base:
                // its digest is composed from the runs alone, no stored
                // byte is read, and it goes ahead whatever the copies
                // hold (it heals the chunk).
                if parity_cfg.is_some() || dirty_bytes < chunk_len {
                    let verify = self.cfg.verify_reads;
                    let clean = |h| !verify || copies::is_clean(&mgr, c, h);
                    let Some(trusted) = copies::trusted_copy(&mgr, c, clean) else {
                        return Err(StoreError::ChunkCorrupt {
                            chunk: c,
                            benefactor: live[0],
                        });
                    };
                    base = Some((c, trusted));
                }
                for h in dead {
                    mgr.remove_chunk_home(c, h);
                }
                let target = mgr.chunk_target(c).expect("chunk has a target");
                (live, target)
            }
        };

        // COW space check happens before any time is charged.
        if let Slot::Chunk(c) = slot {
            if mgr.chunk_refcount(c) > 1 {
                for &h in &live_homes {
                    if !mgr.benefactor(h).can_allocate_chunk(false) {
                        return Err(StoreError::OutOfSpace {
                            requested: chunk_len,
                            available: mgr.benefactor(h).free(),
                        });
                    }
                }
            }
        }

        // Digest of the *intended* post-write content, recorded in
        // metadata before any benefactor write lands — a torn write or
        // silent corruption on the media then disagrees with it. With a
        // base, the recorded digest is spliced run by run (O(dirty bytes
        // + log chunk), no full-chunk copy or rescan — and for a piece
        // that covers its page, the XOR of the two leaves' sums, no stored
        // byte read); without one the old content is zeros, or fully
        // overwritten, and the digest is composed from the runs alone.
        //
        // Erasure-coded write: every parity member of this slot's group
        // will absorb coef(p, member) · (old ⊕ new) over exactly the dirty
        // runs — O(dirty) parity work per write, never a group re-encode
        // (DESIGN.md §15). The products are taken here, straight from the
        // vetted base and before the write lands on it.
        let (new_crc, deltas) = {
            let base = base.map(|(c, h)| {
                let stored = mgr.benefactor(h).peek_chunk(c).expect("live copy present");
                (mgr.chunk_crc(c).expect("chunk without crc"), stored)
            });
            let new_crc = match base {
                Some((recorded, stored)) => updates.iter().fold(recorded, |crc, &run| {
                    let deltas =
                        placed(run).map(|(pos, new)| (new.len(), stored.delta_sum(pos, new)));
                    crc::crc64_splice(crc, chunk_len, run.0, run_len(run.1), fold_sums(deltas))
                }),
                None => digest_of_runs(chunk_len, updates),
            };
            let deltas = parity_cfg.map(|(k, m, group, member)| {
                let code = RsCode::shared(k, m);
                let zeros;
                let old = match base {
                    Some((_, stored)) => stored,
                    None => {
                        zeros = zero_chunk(chunk_len);
                        &zeros
                    }
                };
                let delta_of = |p, run: &PageRun<'_>| {
                    let delta = |(pos, new): (u64, &Leaf)| {
                        let old = old.piece(pos, new.len());
                        leaf_with(new.len(), |out| code.parity_delta(p, member, old, new, out))
                    };
                    (run.0, placed(*run).map(delta).collect())
                };
                let deltas: Vec<DeltaRuns> = (0..m)
                    .map(|p| updates.iter().map(|run| delta_of(p, run)).collect())
                    .collect();
                (group, deltas)
            });
            (new_crc, deltas)
        };

        let end = match slot {
            Slot::Unmaterialized | Slot::Hole => {
                // First write: the zero chunk with the written leaves
                // replaced, on every live copy. Unmaterialized slots
                // consume their fallocate reservation; hole writes
                // allocate unreserved space (checked above). Every home
                // holds the one table: a count bump per extra replica, a
                // move for the last.
                let consumes_reservation = matches!(slot, Slot::Unmaterialized);
                let mut handles =
                    std::iter::repeat_n(fresh_chunk(chunk_len, updates), live_homes.len());
                let c = mgr.new_chunk_id(live_homes.clone(), target, new_crc);
                let ship = |b: &mut Benefactor, at| {
                    let data = handles.next().expect("one handle per home");
                    b.store_chunk(at, c, data, dirty_bytes, consumes_reservation)
                        .end
                };
                let end =
                    self.ship_to_homes(&mut mgr, t, client_node, &live_homes, dirty_bytes, ship);
                mgr.set_slot(file, idx, Slot::Chunk(c));
                end
            }
            Slot::Chunk(c) if mgr.chunk_refcount(c) > 1 => {
                // COW: clone on each live copy's benefactor, then land the
                // updates on the clones.
                self.cow_clones.inc();
                let c_new = mgr.new_chunk_id(live_homes.clone(), target, new_crc);
                let ship = |b: &mut Benefactor, at| {
                    let cloned = b.clone_chunk(at, c, c_new);
                    b.update_chunk(cloned.end, c_new, updates).end
                };
                let end =
                    self.ship_to_homes(&mut mgr, t, client_node, &live_homes, dirty_bytes, ship);
                mgr.set_slot(file, idx, Slot::Chunk(c_new));
                mgr.decref_chunk(c);
                end
            }
            Slot::Chunk(c) => {
                mgr.set_chunk_crc(c, new_crc);
                let ship = |b: &mut Benefactor, at| b.update_chunk(at, c, updates).end;
                self.ship_to_homes(&mut mgr, t, client_node, &live_homes, dirty_bytes, ship)
            }
        };

        Ok((end, deltas))
    }

    /// Apply per-parity-member delta runs to group `group` of `file`:
    /// ship each member's delta to its parity benefactor, which XORs it
    /// into the stored content in place. Since `old ⊕ new` *is* the delta,
    /// the recorded CRC is spliced from the delta alone (`splice_runs`):
    /// no stored parity byte is read on the client side, and the digest
    /// is recorded before the bytes land, as for data. An unmaterialized
    /// parity slot materializes here — its old content is implicitly
    /// zeros, so the delta *is* the new content. A parity member whose
    /// home is dead is flagged stale and skipped: its content no longer
    /// reflects the data, and the repair sweep re-encodes it rather than
    /// trust it ever again.
    fn ship_parity_deltas(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        group: usize,
        deltas: &[Vec<PageRun<'_>>],
    ) -> Result<VTime> {
        let chunk_len = self.cfg.chunk_size;
        let mgr = &mut *self.mgr.lock();
        let mut end = t;
        let tasks: Vec<(usize, Slot, bool, BenefactorId)> = {
            let meta = mgr.file(file)?;
            (0..meta.parity)
                .map(|p| {
                    (
                        p,
                        meta.parity_slot(group, p),
                        meta.parity_is_stale(group, p),
                        meta.parity_home(group, p),
                    )
                })
                .collect()
        };
        for (p, slot, stale, reserve) in tasks {
            if stale {
                // Already invalid; applying more deltas cannot fix it.
                continue;
            }
            let runs = &deltas[p];
            let dirty: u64 = runs.iter().map(|(_, d)| run_len(d)).sum();
            let home = match slot {
                Slot::Unmaterialized => Some(reserve).filter(|&h| mgr.benefactor(h).is_alive()),
                Slot::Chunk(pc) => copies::trusted_copy(mgr, pc, |_| true),
                Slot::Hole => unreachable!("parity slots are never holes"),
            };
            let Some(home) = home else {
                mgr.set_parity_stale(file, group, p, true);
                continue;
            };
            let shipped = if let Slot::Chunk(pc) = slot {
                let crc = mgr.chunk_crc(pc).expect("chunk without crc");
                mgr.set_chunk_crc(pc, splice_runs(crc, chunk_len, runs));
                let ship = |b: &mut Benefactor, at| b.xor_chunk(at, pc, runs).end;
                self.ship_to_homes(mgr, t, client_node, &[home], dirty, ship)
            } else {
                // First delta materializes the member: old content is
                // zeros, so the delta is the content.
                let mut data = Some(fresh_chunk(chunk_len, runs));
                let c = mgr.new_chunk_id(vec![home], 1, digest_of_runs(chunk_len, runs));
                let ship = |b: &mut Benefactor, at| {
                    let data = data.take().expect("one home");
                    b.store_chunk(at, c, data, dirty, true).end
                };
                let stored = self.ship_to_homes(mgr, t, client_node, &[home], dirty, ship);
                mgr.set_parity_slot(file, group, p, Slot::Chunk(c));
                stored
            };
            end = end.max(shipped);
            self.stats.counter("store.parity_encodes").inc();
            self.stats.counter("store.parity_bytes").add(dirty);
        }
        Ok(end)
    }
}
