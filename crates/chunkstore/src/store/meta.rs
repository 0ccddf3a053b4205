//! The metadata plane: the manager RPC every operation pays, the sharded
//! placement manager (DESIGN.md §12), and manager high availability —
//! crash, cold reboot, standby takeover (DESIGN.md §16).

use super::chain::ChainScratch;
use super::{AggregateStore, FAILOVER_TIMEOUT, REPLAY_RECORD_CPU, RETRY_BACKOFF, RPC_BYTES};
use crate::error::{Result, StoreError};
use crate::ids::FileId;
use crate::shardmgr::{HashRing, ShardSet, DEFAULT_VNODES};
use obs::{Layer, SHARD_LANE_BASE};
use simcore::VTime;
use std::sync::Arc;

/// The three metadata-RPC flavours, split out per ISSUE 6 so bench
/// footers can show *what* the manager is being asked, not just how often.
#[derive(Clone, Copy, Debug)]
pub(super) enum MgrOp {
    /// Chunk-location resolution for reads.
    Fetch,
    /// Write-back resolution / placement mutation.
    Write,
    /// Namespace + allocation control plane (create/fallocate/open/
    /// delete/link).
    Place,
}

/// A crashed manager rank (DESIGN.md §16): when it died, and — with a
/// standby — the earliest virtual time the standby may complete takeover
/// (the crash, `FAILOVER_TIMEOUT`, then the journal replay).
#[derive(Clone, Copy, Debug)]
pub(super) struct Crashed {
    at: VTime,
    takeover_at: Option<VTime>,
}

/// Manager-HA runtime state: per manager rank (a single rank with the
/// serial manager), `Some` while it is down. Lazily sized on the first
/// manager fault, so fault-free runs never touch it.
pub(super) type MgrHa = Vec<Option<Crashed>>;

impl AggregateStore {
    /// Bump the aggregate RPC counter plus the per-op split (ISSUE 6
    /// satellite: `store_health` footers show fetch/write/place shares).
    fn count_mgr_rpc(&self, op: MgrOp) {
        self.mgr_rpcs.inc();
        match op {
            MgrOp::Fetch => self.mgr_rpc_fetch.inc(),
            MgrOp::Write => self.mgr_rpc_write.inc(),
            MgrOp::Place => self.mgr_rpc_place.inc(),
        }
    }

    /// Charge one metadata round-trip: to placement shard `shard`, or to
    /// the serial manager when `None`. The request and response are
    /// control-sized messages to the rank's node ([`ShardSet::node`] for a
    /// shard). A shard operation occupies the shard's FIFO metadata CPU —
    /// which is where client fan-in queues, and what extra shards
    /// relieve; the serial manager charges `mgr_cpu` without queueing. A
    /// crashed manager rank is retried on the same backoff schedule as
    /// benefactor failover — a scheduled recovery or standby takeover
    /// may land in between — before the op fails with
    /// [`StoreError::ManagerDown`]. The fault-free path is one rank-table
    /// len-check.
    fn meta_rpc(
        &self,
        t: VTime,
        client_node: usize,
        shard: Option<usize>,
        op: MgrOp,
    ) -> Result<VTime> {
        let rank = shard.unwrap_or(0);
        let mut t = t;
        let mut attempts = 0;
        // The probe also performs a due standby takeover.
        while !self.manager_rank_ready(rank, t) {
            if attempts >= self.cfg.fetch_retries {
                return Err(StoreError::ManagerDown(rank));
            }
            attempts += 1;
            t += RETRY_BACKOFF;
            self.poll_faults(t);
        }
        let node = match shard {
            Some(k) => self.shard_node(k).expect("shard set installed"),
            None => self.cfg.manager_node,
        };
        self.count_mgr_rpc(op);
        let sp = self.trace.span(Layer::Store, "store.mgr_rpc", t);
        sp.arg("client", client_node as u64);
        if let Some(k) = shard {
            sp.arg("shard", k as u64);
        }
        let req = self.net.transfer_at(t, client_node, node, RPC_BYTES);
        let done = match shard {
            Some(k) => self.shard_cpu(k, req.arrived),
            None => req.arrived + self.cfg.mgr_cpu,
        };
        let resp = self.net.transfer_at(done, node, client_node, RPC_BYTES);
        sp.finish(resp.arrived);
        Ok(resp.arrived)
    }

    /// Queue one metadata operation arriving at `arrived` on shard
    /// `shard`'s FIFO CPU; returns when it has been served.
    fn shard_cpu(&self, shard: usize, arrived: VTime) -> VTime {
        let grant = {
            let shards = self.shards.lock();
            let ss = shards.as_ref().expect("shard set installed");
            ss.count_rpc(shard);
            ss.cpu_grant(shard, arrived, self.cfg.mgr_cpu)
        };
        // The shard's CPU occupancy (queue wait + service) is *remote*
        // work — record it detached on the shard's lane, linked back to
        // this RPC span, so the trace DAG and critical path attribute it
        // to the manager tier.
        let cpu_sp = self.trace.causal_span(
            Layer::Store,
            "shardmgr.cpu",
            arrived,
            SHARD_LANE_BASE + shard as u32,
            self.trace.ctx(),
        );
        cpu_sp
            .arg("shard", shard as u64)
            .arg("queue_ns", grant.queued(arrived).as_nanos());
        cpu_sp.finish(grant.end);
        grant.end
    }

    // ----- sharded placement manager (DESIGN.md §12) ------------------------

    /// Install the sharded placement manager: shard `k` runs on
    /// `nodes[k]` and owns the keyspace the ring assigns it. Registers
    /// the per-shard RPC counters lazily, like the integrity set, so
    /// knobs-off stat snapshots do not grow keys. `seed` fixes the ring
    /// layout; cluster builds pass [`crate::shardmgr::DEFAULT_RING_SEED`].
    pub fn install_shards(&self, nodes: &[usize], seed: u64) {
        assert!(!nodes.is_empty(), "a shard set needs at least one rank");
        let per_shard = (0..nodes.len())
            .map(|k| self.stats.counter(&format!("store.shard_rpcs.s{k}")))
            .collect();
        let ring = HashRing::new(nodes.len(), DEFAULT_VNODES, seed);
        *self.shards.lock() = Some(ShardSet::new(ring, nodes, per_shard));
        self.register_shard_gauges(nodes.len());
    }

    /// Register per-shard queue-depth gauges (`store.shard_queue.s{k}` —
    /// CPU backlog at sample time, in pending mgr-CPU service units).
    /// Split from `register_gauges` because shards are installed after
    /// construction.
    fn register_shard_gauges(&self, nshards: usize) {
        if !self.sampler.is_enabled() {
            return;
        }
        for k in 0..nshards {
            let shards = Arc::clone(&self.shards);
            let mgr_cpu = self.cfg.mgr_cpu.as_nanos().max(1);
            self.sampler.register(
                &format!("store.shard_queue.s{k}"),
                Box::new(move |now| {
                    let guard = shards.try_lock()?;
                    let ss = guard.as_ref()?;
                    let backlog = ss.cpu_next_free(k).saturating_sub(now).as_nanos();
                    Some(backlog.div_ceil(mgr_cpu))
                }),
            );
        }
    }

    /// Number of installed placement shards (`0` = serial manager).
    pub fn shards_installed(&self) -> usize {
        self.shards.lock().as_ref().map_or(0, |s| s.len())
    }

    /// The node serving shard `k` — after a standby takeover, the
    /// standby's. `None` with no shard set installed.
    pub fn shard_node(&self, k: usize) -> Option<usize> {
        self.shards.lock().as_ref().map(|s| s.node(k))
    }

    /// Ring owner of a slot key, when shards are installed. Pure local
    /// computation — routing costs no RPC.
    pub fn shard_of_slot(&self, file: FileId, idx: usize) -> Option<usize> {
        self.shards
            .lock()
            .as_ref()
            .map(|s| s.ring().owner_of_slot(file, idx))
    }

    /// Per-shard CPU queue accounting: `(total queued time, RPCs served)`
    /// for each installed shard, in shard order. Empty with no shard set.
    /// Bench footers divide the pair into a mean queue delay.
    pub fn shard_cpu_stats(&self) -> Vec<(VTime, u64)> {
        let guard = self.shards.lock();
        let Some(ss) = guard.as_ref() else {
            return Vec::new();
        };
        (0..ss.len()).map(|k| ss.cpu_queue_stats(k)).collect()
    }

    /// Metadata round-trip for a namespace (control-plane) operation. The
    /// namespace has no per-chunk key to hash, so in shard mode it lives
    /// on shard 0 — the *root shard*; with no shard set this is the
    /// serial manager RPC.
    pub(super) fn namespace_rpc(&self, t: VTime, client_node: usize) -> Result<VTime> {
        let root = (self.shards_installed() > 0).then_some(0);
        self.meta_rpc(t, client_node, root, MgrOp::Place)
    }

    /// The ring owner of each slot key, into `owners`; all `None` with the
    /// serial manager (one owner: the manager itself).
    pub(super) fn owners_of(
        &self,
        keys: impl Iterator<Item = (FileId, usize)>,
        owners: &mut Vec<Option<usize>>,
    ) {
        let shards = self.shards.lock();
        owners.clear();
        owners.extend(keys.map(|(f, i)| shards.as_ref().map(|ss| ss.ring().owner_of_slot(f, i))));
    }

    /// The resolution fan-out shared by the fetch and write paths: one
    /// metadata RPC per distinct owner of the entries `needs` flags, in
    /// owner order, all issued concurrently from `t`. Fills `sc.ready`:
    /// per entry, when its resolution reply is in hand — its owner's
    /// response arrival, or `t` when that owner was never consulted.
    pub(super) fn resolve_fan_out(
        &self,
        t: VTime,
        client_node: usize,
        op: MgrOp,
        sc: &mut ChainScratch,
        needs: impl Fn(usize) -> bool,
    ) -> Result<()> {
        let ChainScratch { owners, ready, .. } = sc;
        ready.clear();
        ready.resize(owners.len(), t);
        // The least owner of a flagged entry past `done` (`None` sorts
        // first): a handful of owners at most, so the rescan beats a map
        // built per call.
        let next = |done: Option<Option<usize>>| {
            let flagged = (0..owners.len()).filter(|&i| needs(i)).map(|i| owners[i]);
            flagged.filter(|&o| Some(o) > done).min()
        };
        let mut owner = next(None);
        while let Some(o) = owner {
            let replied = self.meta_rpc(t, client_node, o, op)?;
            for (at, _) in ready.iter_mut().zip(owners.iter()).filter(|(_, &e)| e == o) {
                *at = replied;
            }
            owner = next(Some(o));
        }
        Ok(())
    }

    // ----- manager HA (DESIGN.md §16) ---------------------------------------

    /// Simulate a manager-rank crash or reboot (DESIGN.md §16) — the one
    /// liveness a metadata rank has. `rank` is the placement shard whose
    /// hosting process dies (rank 0 with the serial manager). A crash
    /// stops that rank answering metadata RPCs — only its keyspace:
    /// clients of other ranks, and clients answering placement from their
    /// location caches, never notice — and a client that must ask it sits
    /// in the retry/backoff loop. With `ha_standby` the rank's standby
    /// schedules a takeover at crash time + `FAILOVER_TIMEOUT` +
    /// journal-replay cost; without it the rank stays down until a
    /// scheduled `ManagerRecover` reboots it cold, which bumps the
    /// placement epoch. A reboot after the standby already took over just
    /// rejoins as the new standby (`promote_standby` parked its node
    /// there).
    pub fn set_manager_alive(&self, rank: usize, alive: bool, at: VTime) {
        let ranks = self.shards_installed().max(1).max(rank + 1);
        // Compute replay cost outside the HA lock (lock order: ha → mgr
        // is never taken; mgr and shards locks come after ha drops).
        let lane_records = self
            .mgr
            .lock()
            .journal()
            .map_or(0, |j| j.lane(rank.min(j.lanes() - 1)).records());
        let mut ha = self.ha.lock();
        if ha.len() < ranks {
            ha.resize(ranks, None);
        }
        if alive {
            if ha[rank].take().is_some() {
                drop(ha);
                // Cold restart: no pre-crash cached placement survives.
                self.mgr.lock().revoke_epoch(rank);
            }
        } else if ha[rank].is_none() {
            let takeover_at = self.cfg.ha_standby.then(|| {
                let replay = VTime::from_nanos(REPLAY_RECORD_CPU.as_nanos() * lane_records);
                at + FAILOVER_TIMEOUT + replay
            });
            ha[rank] = Some(Crashed { at, takeover_at });
        }
    }

    /// Is manager rank `rank` down right now? (Tests/benches.)
    pub fn manager_rank_down(&self, rank: usize) -> bool {
        self.ha.lock().get(rank).is_some_and(Option::is_some)
    }

    /// Is manager rank `rank` serving at `t`? Drives standby takeover:
    /// the first readiness probe at or past the takeover deadline
    /// performs the failover (journal replay + promotion + epoch bump)
    /// and reports the rank back up. Trivially true when no manager fault
    /// ever fired — the rank table stays empty.
    fn manager_rank_ready(&self, rank: usize, t: VTime) -> bool {
        let crashed = self.ha.lock().get(rank).copied().flatten();
        let takeover = match crashed.map(|c| c.takeover_at) {
            None => return true,
            Some(Some(due)) if t >= due => due,
            Some(_) => return false,
        };
        self.failover_manager(rank, takeover);
        true
    }

    /// Standby takeover of manager rank `rank` at `at` (DESIGN.md §16):
    /// unload the rank's journal lane as a superblock + log image,
    /// scan-and-repair and replay it (rebuilding slot bitmaps through
    /// `BitAlloc::from_leaf`), verify the replayed metadata against the
    /// live fleet, promote the standby to serving rank, and bump the
    /// placement epoch so no `LocationCache` can serve a pre-crash
    /// placement.
    fn failover_manager(&self, rank: usize, at: VTime) {
        let Some(crashed) = self.ha.lock()[rank].take() else {
            return; // a racing probe already promoted
        };
        // The real recovery path, not a shortcut: serialize the lane,
        // decode it back through scan-and-repair, replay, and verify the
        // replayed metadata one-sided against the live fleet.
        {
            let mgr = self.mgr.lock();
            let image = mgr
                .unload_journal(rank)
                .expect("HA standby requires journaling");
            let (sb, meta, repair) =
                crate::journal::load_image(&image).expect("self-written image decodes");
            assert!(!repair.torn, "a just-unloaded image has no torn tail");
            assert_eq!(sb.records, repair.records, "superblock counts its log");
            mgr.verify_replayed(&meta);
        }
        self.stats.counter("store.journal_replays").inc();
        self.stats.counter("store.mgr_failovers").inc();
        self.stats
            .counter("store.mgr_failover_us")
            .add((at - crashed.at).as_nanos() / 1_000);
        // Sharded mode: the standby's node now serves the rank. Serial
        // mode models the standby at the manager node.
        if let Some(ss) = self.shards.lock().as_mut() {
            ss.promote_standby(rank);
        }
        // No pre-crash cached placement survives the takeover.
        self.mgr.lock().revoke_epoch(rank);
        self.trace
            .instant(Layer::Fault, format!("store.mgr_failover m={rank}"), at);
    }

    /// Install a standby manager rank per shard: `nodes[k]` is shard
    /// `k`'s standby. Call after [`Self::install_shards`]; cluster
    /// builds wire this when `ha_standby` is set.
    pub fn set_standby_nodes(&self, nodes: &[usize]) {
        let mut guard = self.shards.lock();
        let ss = guard
            .as_mut()
            .expect("standbys require an installed shard set");
        assert_eq!(nodes.len(), ss.len(), "one standby per shard");
        for (k, &n) in nodes.iter().enumerate() {
            ss.set_standby(k, n);
        }
    }
}
