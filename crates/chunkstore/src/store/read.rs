//! The read data plane: chunk fetches as one batch implementation — the
//! paper's per-chunk fetch is the batch of one — over one failover /
//! verify / reconstruct retry loop (DESIGN.md §7, §8, §11, §15).

use super::chain::ChainScratch;
use super::meta::MgrOp;
use super::{copies, AggregateStore, ChunkPayload, RETRY_BACKOFF, RPC_BYTES};
use crate::error::{Result, StoreError};
use crate::ids::{BenefactorId, ChunkId, FileId};
use crate::loc_cache::{CachedLoc, LocationCache};
use crate::manager::{FileMeta, GroupRef, Manager, Slot};
use crate::payload::{zero_chunk, ChunkBuf};
use obs::{Layer, SpanGuard};
use simcore::VTime;

/// What `fetch_verified` hands back: the verified bytes plus the copy
/// they came from, for span labelling and degraded accounting.
struct FetchOutcome {
    end: VTime,
    data: ChunkBuf,
    home: BenefactorId,
    node: usize,
    degraded: bool,
}

impl AggregateStore {
    /// Fetch chunk `idx` of `file` to `client_node` (the paper's per-chunk
    /// fetch, §III-D): the one-entry, uncached [`Self::fetch_chunks`].
    pub fn fetch_chunk(
        &self,
        t: VTime,
        client_node: usize,
        file: FileId,
        idx: usize,
    ) -> Result<(VTime, ChunkPayload)> {
        let mut fetched = self.fetch_chunks(t, client_node, &[(file, idx)], None)?;
        Ok(fetched.pop().expect("one target, one payload"))
    }

    /// The file owning slot `idx`, or `OutOfBounds` past its last chunk.
    pub(super) fn slot_in<'m>(
        &self,
        mgr: &'m Manager,
        file: FileId,
        idx: usize,
    ) -> Result<&'m FileMeta> {
        let meta = mgr.file(file)?;
        if idx >= meta.slots.len() {
            return Err(StoreError::OutOfBounds {
                file,
                offset: idx as u64 * self.cfg.chunk_size,
                len: self.cfg.chunk_size,
                size: meta.size,
            });
        }
        Ok(meta)
    }

    /// Pull chunk `c` through [`Self::fetch_verified`] from `t` and close
    /// `sp` — the entry's `store.chunk_fetch` span — over the outcome.
    fn fetch_spanned(
        &self,
        sp: SpanGuard,
        t: VTime,
        client_node: usize,
        c: ChunkId,
        degraded: bool,
    ) -> Result<(VTime, ChunkPayload)> {
        let out = self.fetch_verified(t, client_node, c, degraded)?;
        sp.arg("benefactor", out.home.0 as u64)
            .arg("node", out.node as u64);
        if out.degraded {
            sp.arg("degraded", 1);
        }
        sp.finish(out.end);
        Ok((out.end, ChunkPayload::Data(out.data)))
    }

    /// One chunk pull: request message to the benefactor, SSD read there,
    /// chunk shipped back. Returns the response arrival and the bytes.
    fn pull_chunk(
        &self,
        t: VTime,
        client_node: usize,
        home: BenefactorId,
        c: ChunkId,
    ) -> (VTime, ChunkBuf) {
        let mgr = self.mgr.lock();
        let node = mgr.benefactor(home).node;
        let req = self.net.transfer_at(t, client_node, node, RPC_BYTES);
        let (grant, data) = mgr.benefactor(home).read_chunk(req.arrived, c);
        let resp = self
            .net
            .transfer_at(grant.end, node, client_node, self.cfg.chunk_size);
        self.bytes_to_clients.add(self.cfg.chunk_size);
        (resp.arrived, data)
    }

    /// The replica-scan / failover / backoff retry loop every fetched
    /// entry runs. `t` is when the caller is ready to issue the first
    /// benefactor request (post-resolution).
    ///
    /// The replica list is scanned in order and the read fails over to the
    /// first copy that is alive and reachable (counted in
    /// `store.failovers` / `store.degraded_reads`). Every attempt rescans
    /// the list: writes may have re-homed the chunk and recoveries may
    /// have revived a copy. With
    /// `verify_reads` set, arrived bytes are checked against the
    /// manager's CRC64; a mismatching copy is counted, dropped
    /// (`copies::drop_bad_copy`) and the scan continues from the moment
    /// the bad bytes arrived. When no serviceable copy is left the read
    /// backs off `RETRY_BACKOFF`, re-polls the fault plan and retries up
    /// to `fetch_retries` times; the final error is
    /// [`StoreError::ChunkCorrupt`] if any copy failed verification,
    /// [`StoreError::BenefactorDown`] otherwise. With verification off,
    /// timing and counters are identical to the pre-integrity retry loop.
    ///
    /// `degraded` marks a read the caller already knows is degraded (a
    /// non-primary pick at planning time) so `store.failovers` /
    /// `store.degraded_reads` count it even at rank 0.
    fn fetch_verified(
        &self,
        mut t: VTime,
        client_node: usize,
        c: ChunkId,
        degraded: bool,
    ) -> Result<FetchOutcome> {
        let mut attempts = 0;
        let mut known_bad: Vec<BenefactorId> = Vec::new();
        loop {
            let pick = {
                let mgr = self.mgr.lock();
                let homes = mgr.chunk_homes(c).expect("chunk without home");
                self.serviceable(&mgr, client_node, homes.iter().copied(), &known_bad)
                    .map(|(rank, h)| (rank, h, mgr.benefactor(h).node))
                    .ok_or(homes[0])
            };
            match pick {
                Ok((rank, home, home_node)) => {
                    let (arrived, data) = self.pull_chunk(t, client_node, home, c);
                    if self.cfg.verify_reads {
                        let expected = self.mgr.lock().chunk_crc(c).expect("chunk without crc");
                        if data.digest() != expected {
                            self.stats.counter("store.crc_mismatches").inc();
                            self.trace.instant(
                                Layer::Store,
                                format!("store.crc_mismatch c={} b={}", c.0, home.0),
                                arrived,
                            );
                            copies::drop_bad_copy(&mut self.mgr.lock(), c, home);
                            known_bad.push(home);
                            t = arrived;
                            continue;
                        }
                    }
                    let was_degraded =
                        degraded || rank > 0 || attempts > 0 || !known_bad.is_empty();
                    if was_degraded {
                        self.failovers.inc();
                        self.degraded_reads.inc();
                    }
                    return Ok(FetchOutcome {
                        end: arrived,
                        data,
                        home,
                        node: home_node,
                        degraded: was_degraded,
                    });
                }
                Err(primary) => {
                    // An erasure-coded member with no serviceable copy is
                    // reconstructed from its group's survivors right here
                    // in the retry loop — reconstruction *is* the
                    // failover (DESIGN.md §15). Only if too few members
                    // survive does the read fall back to backing off (a
                    // scheduled recovery may revive a survivor) and
                    // finally report `InsufficientSurvivors`.
                    let gref = self.mgr.lock().group_of_chunk(c);
                    if let Some(gref) = gref {
                        match self.reconstruct_member(t, client_node, gref, c) {
                            Ok(out) => return Ok(out),
                            Err(e) => {
                                if attempts >= self.cfg.fetch_retries {
                                    return Err(e);
                                }
                            }
                        }
                    } else if attempts >= self.cfg.fetch_retries {
                        return Err(match known_bad.last() {
                            Some(&b) => StoreError::ChunkCorrupt {
                                chunk: c,
                                benefactor: b,
                            },
                            None => StoreError::BenefactorDown(primary),
                        });
                    }
                    attempts += 1;
                    t += RETRY_BACKOFF;
                    self.poll_faults(t);
                }
            }
        }
    }

    /// The first of `homes` a read from `client_node` can be served by:
    /// alive, reachable and not in `skip` (copies that already failed
    /// verification), with its rank in the list.
    fn serviceable(
        &self,
        mgr: &Manager,
        client_node: usize,
        homes: impl IntoIterator<Item = BenefactorId>,
        skip: &[BenefactorId],
    ) -> Option<(usize, BenefactorId)> {
        copies::first_live(mgr, homes, |h| {
            !skip.contains(&h) && self.net.reachable(mgr.benefactor(h).node, client_node)
        })
    }

    /// Serve a read of group member `gref.member` (chunk `lost`) by
    /// pulling any `k` surviving members to the client and decoding
    /// (DESIGN.md §15). The `k` survivor reads run concurrently — the
    /// group invariant puts every member on a distinct benefactor — so
    /// degraded-read latency is one chunk fetch plus the client's fan-in,
    /// not `k` serial fetches. The decoded bytes are verified against the
    /// lost chunk's recorded CRC before they are served.
    fn reconstruct_member(
        &self,
        t: VTime,
        client_node: usize,
        gref: GroupRef,
        lost: ChunkId,
    ) -> Result<FetchOutcome> {
        let (survivors, primary, primary_node, expected) = {
            let mgr = self.mgr.lock();
            let survivors = copies::survivors_for(&mgr, gref)?;
            let primary = mgr.chunk_home(lost).expect("chunk without home");
            let expected = mgr.chunk_crc(lost).expect("chunk without crc");
            (survivors, primary, mgr.benefactor(primary).node, expected)
        };
        let mut end = t;
        let zeros = zero_chunk(self.cfg.chunk_size);
        let data = copies::decode_member(&survivors, &zeros, gref.member, |chunk, home| {
            let (arrived, data) = self.pull_chunk(t, client_node, home, chunk);
            end = end.max(arrived);
            data
        });
        // The decode must land exactly on the recorded digest; anything
        // else means a survivor lied and the store refuses to serve it.
        if data.digest() != expected {
            return Err(StoreError::ChunkCorrupt {
                chunk: lost,
                benefactor: primary,
            });
        }

        self.stats.counter("store.degraded_reconstructs").inc();
        self.failovers.inc();
        self.degraded_reads.inc();
        self.trace.instant(
            Layer::Store,
            format!("store.reconstruct c={} g={}", lost.0, gref.group),
            end,
        );
        Ok(FetchOutcome {
            end,
            data,
            home: primary,
            node: primary_node,
            degraded: true,
        })
    }

    /// Fetch every target chunk to `client_node`: *the* read path — the
    /// paper's per-chunk fetch is the batch of one. *All* targets resolve
    /// with one manager RPC (or none, when a [`LocationCache`] still holds
    /// valid resolutions), then the chunks are pulled with per-benefactor
    /// pipelining.
    ///
    /// Cost model (paper §III-D, DESIGN.md §8): a manager RPC resolves a
    /// chunk to a benefactor, then the client pulls it directly from that
    /// benefactor — request message, SSD read, data transfer back. Each
    /// benefactor's chain runs *serially* on that benefactor (chunk
    /// `i+1`'s request leaves when chunk `i`'s response arrives), but
    /// chains on distinct benefactors proceed concurrently from the
    /// resolution time. Shared resources (the client's NIC, each
    /// benefactor's SSD/NIC) still queue correctly because chains are
    /// issued in non-decreasing virtual-time order against the FIFO
    /// `Resource` registers. Per-chunk completion is its own response
    /// arrival, returned in input order.
    ///
    /// Fault semantics: every entry runs the same
    /// failover/verify/backoff retry loop (`fetch_verified`). A degraded
    /// pick counts a failover; a target with *no* serviceable copy at
    /// planning time runs the loop unchained from its resolution time,
    /// independently of its batch-mates, and completes when a call for it
    /// alone would.
    pub fn fetch_chunks(
        &self,
        t: VTime,
        client_node: usize,
        targets: &[(FileId, usize)],
        cache: Option<&LocationCache>,
    ) -> Result<Vec<(VTime, ChunkPayload)>> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        self.poll_faults(t);
        // The batch's own span and count are for a call of more than one
        // entry (DESIGN.md §9): a one-entry call is its entry's span alone.
        let sp = (targets.len() > 1).then(|| {
            self.batched_fetches.inc();
            self.trace.span(Layer::Store, "store.fetch_batch", t)
        });
        if let Some(sp) = &sp {
            sp.arg("targets", targets.len() as u64)
                .arg("client", client_node as u64);
        }

        // Resolve from the location cache where the epoch allows. In
        // shard mode a cached entry may only be used while the client
        // holds a live lease from the shard owning that target
        // (DESIGN.md §12) — an unleased target is forced to the shard
        // even when cached. A call without a cache (the paper path) has
        // nothing cached, asks the manager for every target and touches
        // no lease.
        let mut sc = ChainScratch::take();
        self.owners_of(targets.iter().copied(), &mut sc.owners);
        let cached: Vec<Option<CachedLoc>> = cache.map_or_else(Vec::new, |cache| {
            let epoch = self.mgr.lock().placement_epoch();
            let mut shards = self.shards.lock();
            let lookup = |(&key, &owner): (&(FileId, usize), &Option<usize>)| {
                let leased = owner.is_none_or(|o| {
                    let ss = shards.as_mut().expect("shard set installed");
                    ss.check_lease(o, client_node, t)
                });
                if !leased {
                    cache.note_unleased_miss(epoch, key);
                    return None;
                }
                cache.lookup(epoch, key)
            };
            targets.iter().zip(&sc.owners).map(lookup).collect()
        });
        let cached = |i: usize| cached.get(i).and_then(Option::as_ref);

        // One shared RPC covers every unresolved target — per owning
        // shard in shard mode, each issued concurrently from `t` (they
        // queue on *different* shard CPUs, which is the whole point).
        // Entry `i` may start its benefactor chain at `ready[i]`: its
        // owner's response arrival, or `t` when its shard was never
        // consulted (a leased cache hit). A fully cached call skips
        // every manager round-trip.
        self.resolve_fan_out(t, client_node, MgrOp::Fetch, &mut sc, |i| {
            cached(i).is_none()
        })?;

        // Plan each target: zeros (`None`), or a chunk pull — chained on
        // the benefactor serving it, or through the unchained retry loop
        // when no listed copy is serviceable right now. A target the
        // cache did not resolve reads the manager's answer (and leaves it
        // in the cache, if there is one).
        #[derive(Clone, Copy)]
        struct Pull {
            chunk: ChunkId,
            chain: Option<BenefactorId>,
            /// The pick is already a failover (not the primary copy).
            degraded: bool,
        }
        let plan: Vec<Option<Pull>> = {
            let mgr = self.mgr.lock();
            let epoch = mgr.placement_epoch();
            let pull = |chunk, homes: &[BenefactorId]| {
                let pick = self.serviceable(&mgr, client_node, homes.iter().copied(), &[]);
                Some(Pull {
                    chunk,
                    chain: pick.map(|(_, home)| home),
                    degraded: pick.is_some_and(|(rank, _)| rank > 0),
                })
            };
            let plan = targets.iter().enumerate().map(|(i, &(file, idx))| {
                Ok(match cached(i) {
                    Some(CachedLoc::Zeros) => None,
                    Some(CachedLoc::Chunk { chunk, homes }) => pull(*chunk, homes),
                    None => match self.slot_in(&mgr, file, idx)?.slots[idx] {
                        Slot::Unmaterialized | Slot::Hole => {
                            if let Some(cache) = cache {
                                cache.insert(epoch, (file, idx), CachedLoc::Zeros);
                            }
                            None
                        }
                        Slot::Chunk(chunk) => {
                            let homes = mgr.chunk_homes(chunk).expect("chunk without home");
                            if let Some(cache) = cache {
                                let homes = homes.to_vec();
                                cache.insert(epoch, (file, idx), CachedLoc::Chunk { chunk, homes });
                            }
                            pull(chunk, homes)
                        }
                    },
                })
            });
            let plan: Vec<Option<Pull>> = plan.collect::<Result<_>>()?;
            let queued = |(i, p): (usize, &Option<Pull>)| p.map(|pull| (i, pull.chain));
            sc.plan(
                mgr.benefactor_count(),
                plan.iter().enumerate().filter_map(queued),
            );
            plan
        };

        // Chains first, then the degraded fallbacks in input order, all
        // through the one retry loop (the chain's re-pick scans the same
        // live home list that planned it and, under `verify_reads`, fails
        // over when the arrived bytes don't match the recorded CRC). A
        // fallback starts from its entry's resolution time — no second
        // manager RPC — so a degraded entry completes when a call for it
        // alone would and counts under the same `degraded_reads` counter.
        let mut out: Vec<(VTime, ChunkPayload)> = sc
            .ready
            .iter()
            .map(|&resolved_at| (resolved_at, ChunkPayload::Zeros))
            .collect();
        let entry_span = |i: usize, start| {
            self.chunk_fetches.inc();
            let sp = self.trace.span(Layer::Store, "store.chunk_fetch", start);
            sp.arg("file", targets[i].0 .0)
                .arg("idx", targets[i].1 as u64);
            sp
        };
        sc.drain(|i, start| {
            let pull = plan[i].expect("zeros are never queued");
            let sp = entry_span(i, start);
            out[i] = self.fetch_spanned(sp, start, client_node, pull.chunk, pull.degraded)?;
            Ok(out[i].0)
        })?;
        // A hole: the manager's reply says "no data"; zeros are
        // materialized client-side for free, the moment it arrives.
        for (i, _) in plan.iter().enumerate().filter(|(_, p)| p.is_none()) {
            self.zero_fills.inc();
            entry_span(i, out[i].0).finish(out[i].0);
        }
        sc.recycle();
        if let Some(sp) = sp {
            // The batch completes when its slowest entry does.
            sp.finish(out.iter().map(|&(end, _)| end).max().unwrap_or(t));
        }
        Ok(out)
    }
}
