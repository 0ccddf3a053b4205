//! The metadata plane: the manager RPC every operation pays, the manager
//! ranks — the paper's one, or the sharded placement manager (DESIGN.md
//! §12) — and manager high availability: crash, cold reboot, standby
//! takeover (DESIGN.md §16).

use super::chain::ChainScratch;
use super::{AggregateStore, FAILOVER_TIMEOUT, REPLAY_RECORD_CPU, RETRY_BACKOFF, RPC_BYTES};
use crate::error::{Result, StoreError};
use crate::ids::FileId;
use crate::manager::Manager;
use crate::shardmgr::{Crashed, HashRing, ShardSet, DEFAULT_VNODES};
use obs::{Layer, SHARD_LANE_BASE};
use simcore::VTime;
use std::rc::Rc;

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

    /// Charge one metadata round-trip to manager rank `rank`. The request
    /// and response are control-sized messages to the rank's node
    /// ([`ShardSet::node`]). A crashed rank is retried on the same backoff
    /// schedule as benefactor failover — a scheduled recovery or standby
    /// takeover may land in between — before the op fails with
    /// [`StoreError::ManagerDown`].
    fn meta_rpc(&self, mut t: VTime, client_node: usize, rank: usize, op: MgrOp) -> Result<VTime> {
        let mut attempts = 0;
        // The probe also performs a due standby takeover.
        let node = loop {
            if let Some(node) = self.serving_node(rank, t) {
                break node;
            }
            if attempts >= self.cfg.fetch_retries {
                return Err(StoreError::ManagerDown(rank));
            }
            attempts += 1;
            t += RETRY_BACKOFF;
            self.poll_faults(t);
        };
        self.count_mgr_rpc(op);
        let sp = self.trace.span(Layer::Store, "store.mgr_rpc", t);
        sp.arg("client", client_node as u64);
        if self.sharded() {
            sp.arg("shard", rank as u64);
        }
        let req = self.net.transfer_at(t, client_node, node, RPC_BYTES);
        let done = self.mgr_cpu(rank, req.arrived);
        let resp = self.net.transfer_at(done, node, client_node, RPC_BYTES);
        sp.finish(resp.arrived);
        Ok(resp.arrived)
    }

    /// Serve one metadata operation arriving at `arrived` on rank `rank`'s
    /// CPU; returns when it has been served.
    fn mgr_cpu(&self, rank: usize, arrived: VTime) -> VTime {
        // The paper's manager charges its CPU without queueing (DESIGN.md
        // §12); a shard's RPCs queue FIFO on its CPU.
        if !self.sharded() {
            return arrived + self.cfg.mgr_cpu;
        }
        let grant = {
            let mgr = self.mgr.borrow();
            mgr.ranks().count_rpc(rank);
            mgr.ranks().cpu_grant(rank, arrived, self.cfg.mgr_cpu)
        };
        // The shard's CPU occupancy (queue wait + service) is *remote*
        // work — record it detached on the shard's lane, linked back to
        // this RPC span, so the trace DAG and critical path attribute it
        // to the manager tier.
        let cpu_sp = self.trace.causal_span(
            Layer::Store,
            "shardmgr.cpu",
            arrived,
            SHARD_LANE_BASE + rank as u32,
            self.trace.ctx(),
        );
        cpu_sp
            .arg("shard", rank as u64)
            .arg("queue_ns", grant.queued(arrived).as_nanos());
        cpu_sp.finish(grant.end);
        grant.end
    }

    // ----- manager ranks (DESIGN.md §12) -------------------------------------

    /// Is the manager sharded (`StoreConfig::manager_shards > 0`)? The
    /// paper's manager is the one rank of an unsharded store.
    fn sharded(&self) -> bool {
        self.cfg.manager_shards > 0
    }

    /// Place the manager ranks: rank `k` runs on `nodes[k]` and, sharded,
    /// owns the keyspace the ring assigns it. One node per configured
    /// rank — `StoreConfig::manager_shards`, or the paper's one manager
    /// when that is `0`; any other count is refused. `seed` fixes the
    /// ring layout; cluster builds pass [`crate::shardmgr::DEFAULT_RING_SEED`].
    /// Each shard counts its RPCs (`store.shard_rpcs.s{k}`, none for the
    /// paper's manager), registered here like the integrity set, so
    /// knobs-off stat snapshots do not grow keys.
    pub fn install_shards(&self, nodes: &[usize], seed: u64) {
        let ranks = self.cfg.manager_shards.max(1);
        assert_eq!(
            nodes.len(),
            ranks,
            "StoreConfig::manager_shards configures {ranks} manager rank(s); {} installed",
            nodes.len()
        );
        let per_shard = (0..self.cfg.manager_shards)
            .map(|k| self.stats.counter(&format!("store.shard_rpcs.s{k}")))
            .collect();
        let ring = HashRing::new(ranks, DEFAULT_VNODES, seed);
        self.mgr
            .borrow_mut()
            .install_ranks(ShardSet::new(ring, nodes, per_shard));
    }

    /// Register per-shard queue-depth gauges (`store.shard_queue.s{k}` —
    /// CPU backlog at sample time, in pending mgr-CPU service units; none
    /// for the paper's manager).
    pub(super) fn register_shard_gauges(&self) {
        for k in 0..self.cfg.manager_shards {
            let mgr = Rc::clone(&self.mgr);
            let mgr_cpu = self.cfg.mgr_cpu.as_nanos().max(1);
            self.sampler.register(
                &format!("store.shard_queue.s{k}"),
                Box::new(move |now| {
                    let mgr = mgr.try_borrow_mut().ok()?;
                    let backlog = mgr.ranks().cpu_next_free(k).saturating_sub(now).as_nanos();
                    Some(backlog.div_ceil(mgr_cpu))
                }),
            );
        }
    }

    /// Number of placement shards (`0` = the paper's manager).
    pub fn shards_installed(&self) -> usize {
        self.cfg.manager_shards
    }

    /// The node serving manager rank `k` — after a standby takeover, the
    /// standby's. `None` for a rank the store does not have.
    pub fn shard_node(&self, k: usize) -> Option<usize> {
        let mgr = self.mgr.borrow();
        (k < mgr.ranks().len()).then(|| mgr.ranks().node(k))
    }

    /// Ring owner of a slot key, when the manager is sharded. Pure local
    /// computation — routing costs no RPC.
    pub fn shard_of_slot(&self, file: FileId, idx: usize) -> Option<usize> {
        let mgr = self.mgr.borrow();
        self.sharded()
            .then(|| mgr.ranks().ring().owner_of_slot(file, idx))
    }

    /// Per-shard CPU queue accounting: `(total queued time, RPCs served)`
    /// for each shard, in shard order. Empty for the paper's manager.
    /// Bench footers divide the pair into a mean queue delay.
    pub fn shard_cpu_stats(&self) -> Vec<(VTime, u64)> {
        let mgr = self.mgr.borrow();
        (0..self.cfg.manager_shards)
            .map(|k| mgr.ranks().cpu_queue_stats(k))
            .collect()
    }

    /// Metadata round-trip for a namespace (control-plane) operation. The
    /// namespace has no per-chunk key to hash, so it lives on rank 0 —
    /// the paper's manager, or the *root shard*.
    pub(super) fn namespace_rpc(&self, t: VTime, client_node: usize) -> Result<VTime> {
        self.meta_rpc(t, client_node, 0, MgrOp::Place)
    }

    /// The ring owner of each slot key, into `owners` (rank 0, unhashed,
    /// for the paper's manager).
    pub(super) fn owners_of(
        &self,
        keys: impl Iterator<Item = (FileId, usize)>,
        owners: &mut Vec<usize>,
    ) {
        let mgr = self.mgr.borrow();
        let ring = mgr.ranks().ring();
        owners.clear();
        owners.extend(keys.map(|(f, i)| ring.owner_of_slot(f, i)));
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
        // The least owner of a flagged entry past `done`: a handful of
        // owners at most, so the rescan beats a map built per call.
        let next = |done: Option<usize>| {
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
    /// liveness a metadata rank has, kept in its rank record. A crash
    /// stops that rank answering metadata RPCs — only its keyspace:
    /// clients of other ranks, and clients answering placement from their
    /// location caches, never notice — and a client that must ask it sits
    /// in the retry/backoff loop. With `ha_standby` the rank's standby
    /// schedules a takeover at crash time + `FAILOVER_TIMEOUT` +
    /// the replay of the rank's journal lane; without it the rank stays
    /// down until a scheduled `ManagerRecover` reboots it cold, which bumps
    /// the placement epoch. A reboot after the standby already took over
    /// just rejoins as the new standby (`promote_standby` parked its node
    /// there).
    pub fn set_manager_alive(&self, rank: usize, alive: bool, at: VTime) {
        let mut mgr = self.mgr.borrow_mut();
        if alive {
            if mgr.ranks_mut().set_crashed(rank, None).is_some() {
                // Cold restart: no pre-crash cached placement survives.
                mgr.revoke_epoch(rank);
            }
        } else if mgr.ranks().crashed(rank).is_none() {
            let takeover_at = self.cfg.ha_standby.then(|| {
                let records = mgr.journal().lane(rank).records();
                at + FAILOVER_TIMEOUT + VTime::from_nanos(REPLAY_RECORD_CPU.as_nanos() * records)
            });
            mgr.ranks_mut()
                .set_crashed(rank, Some(Crashed { at, takeover_at }));
        }
    }

    /// Is manager rank `rank` down right now? (Tests/benches.)
    pub fn manager_rank_down(&self, rank: usize) -> bool {
        self.mgr.borrow().ranks().crashed(rank).is_some()
    }

    /// The node serving manager rank `rank` at `t`, or `None` while it is
    /// down. Drives standby takeover: the first probe at or past the
    /// takeover deadline performs the failover (journal replay +
    /// promotion + epoch bump) and finds the rank back up.
    fn serving_node(&self, rank: usize, t: VTime) -> Option<usize> {
        let mut mgr = self.mgr.borrow_mut();
        match mgr.ranks().crashed(rank) {
            None => {}
            Some(Crashed {
                at,
                takeover_at: Some(due),
            }) if t >= due => self.failover_manager(&mut mgr, rank, at, due),
            Some(_) => return None,
        }
        Some(mgr.ranks().node(rank))
    }

    /// Standby takeover at `at` of manager rank `rank`, crashed at
    /// `crashed_at` (DESIGN.md §16): unload the rank's journal lane as a
    /// superblock + log image, scan-and-repair and replay it, install the
    /// replay as the rank's keyspace of the manager's state — dropping
    /// what the crashed rank held in memory — promote the standby to
    /// serving rank, and bump the placement epoch so no `LocationCache`
    /// can serve a pre-crash placement.
    fn failover_manager(&self, mgr: &mut Manager, rank: usize, crashed_at: VTime, at: VTime) {
        let image = mgr.unload_journal(rank);
        let (sb, meta, repair) = crate::journal::load_image(&image, mgr.chunk_size())
            .expect("self-written image decodes");
        assert!(!repair.torn, "a just-unloaded image has no torn tail");
        assert_eq!(sb.records, repair.records, "superblock counts its log");
        meta.assert_consistent();
        mgr.install_replay(rank, meta.state);
        self.stats.counter("store.journal_replays").inc();
        self.stats.counter("store.mgr_failovers").inc();
        self.stats
            .counter("store.mgr_failover_us")
            .add((at - crashed_at).as_nanos() / 1_000);
        // The standby's node now serves the rank. The paper's manager has
        // no standby node: its standby is modelled at the manager's node.
        let ranks = mgr.ranks_mut();
        ranks.set_crashed(rank, None);
        ranks.promote_standby(rank);
        // No pre-crash cached placement survives the takeover.
        mgr.revoke_epoch(rank);
        self.trace
            .instant(Layer::Fault, format!("store.mgr_failover m={rank}"), at);
    }

    /// Install a standby manager rank per shard: `nodes[k]` is shard
    /// `k`'s standby. Call after [`Self::install_shards`]; cluster
    /// builds wire this when `ha_standby` is set.
    pub fn set_standby_nodes(&self, nodes: &[usize]) {
        let mut mgr = self.mgr.borrow_mut();
        let ranks = mgr.ranks_mut();
        assert_eq!(nodes.len(), ranks.len(), "one standby per shard");
        for (k, &n) in nodes.iter().enumerate() {
            ranks.set_standby(k, n);
        }
    }
}
