//! The manager ranks: the ring, and per rank its node, its standby, its
//! metadata CPU and its crash state — the one record of a rank. The
//! paper's manager is the set of one rank (DESIGN.md §12, §16).
//!
//! Which cached placement a client may use is not decided here: a
//! `LocationCache` entry is good while the manager's placement epoch has
//! not moved, whatever the manager's shape (DESIGN.md §8, §12). A rank's
//! cold restart or standby takeover bumps that epoch.

use super::ring::HashRing;
use simcore::{Counter, Resource, VTime};

/// A crashed manager rank (DESIGN.md §16): when it died, and — with a
/// standby — the earliest virtual time the standby may complete takeover
/// (the crash, the failover timeout, then the journal replay).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crashed {
    pub(crate) at: VTime,
    pub(crate) takeover_at: Option<VTime>,
}

/// One manager rank.
#[derive(Debug)]
struct ShardState {
    /// Cluster node the rank runs on: the one record of it, read by every
    /// RPC to the rank and swapped by a standby takeover.
    node: usize,
    /// Node of this rank's standby (manager HA, DESIGN.md §16); `None`
    /// when the rank runs without one.
    standby: Option<usize>,
    /// The rank's metadata CPU: a shard's RPCs queue FIFO here, which is
    /// where fan-in contention lives and what extra shards relieve.
    cpu: Resource,
    /// `Some` while the rank is down.
    crashed: Option<Crashed>,
}

/// The manager ranks: ring + per-rank state.
#[derive(Debug)]
pub struct ShardSet {
    ring: HashRing,
    shards: Vec<ShardState>,
    /// `store.shard_rpcs.s{k}` — per-shard RPC attribution; empty for the
    /// paper's manager, which counts none.
    per_shard_rpcs: Vec<Counter>,
}

impl ShardSet {
    pub fn new(ring: HashRing, nodes: &[usize], per_shard_rpcs: Vec<Counter>) -> Self {
        assert_eq!(ring.shards(), nodes.len(), "one node per ring shard");
        assert!(
            per_shard_rpcs.is_empty() || per_shard_rpcs.len() == nodes.len(),
            "one counter per shard, or none"
        );
        ShardSet {
            ring,
            shards: nodes
                .iter()
                .enumerate()
                .map(|(k, &node)| ShardState {
                    node,
                    standby: None,
                    cpu: Resource::new(format!("shardmgr.s{k}.cpu")),
                    crashed: None,
                })
                .collect(),
            per_shard_rpcs,
        }
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The node serving `shard`.
    pub fn node(&self, shard: usize) -> usize {
        self.shards[shard].node
    }

    /// Install a standby manager rank for `shard` on `node` (DESIGN.md
    /// §16). The standby holds no state of its own — at takeover it
    /// replays the rank's journal lane.
    pub fn set_standby(&mut self, shard: usize, node: usize) {
        self.shards[shard].standby = Some(node);
    }

    /// Promote `shard`'s standby: its node becomes the serving one and
    /// the crashed ex-primary's node takes the standby slot, so a later
    /// reboot rejoins as the new standby. No change when the shard has
    /// no standby.
    pub fn promote_standby(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        if let Some(standby) = s.standby {
            s.standby = Some(s.node);
            s.node = standby;
        }
    }

    /// Occupy the shard's CPU for one metadata operation arriving at
    /// `t_req`. The full grant is returned: the causal tracer needs the
    /// service *start* too, to split queueing from service in the
    /// `shardmgr.cpu` span.
    pub fn cpu_grant(&self, shard: usize, t_req: VTime, busy: VTime) -> simcore::Grant {
        self.shards[shard].cpu.acquire_at(t_req, busy)
    }

    /// Virtual time at which `shard`'s CPU next falls idle (gauge probe:
    /// backlog = `next_free - now`, clamped at zero).
    pub fn cpu_next_free(&self, shard: usize) -> VTime {
        self.shards[shard].cpu.next_free()
    }

    /// Total time RPCs spent queued for `shard`'s CPU, and how many were
    /// served (for mean-queue-delay reporting).
    pub fn cpu_queue_stats(&self, shard: usize) -> (VTime, u64) {
        let cpu = &self.shards[shard].cpu;
        (cpu.queued_total(), cpu.grants())
    }

    pub fn count_rpc(&self, shard: usize) {
        self.per_shard_rpcs[shard].inc();
    }

    /// Rank `shard`'s crash, while it is down.
    pub(crate) fn crashed(&self, shard: usize) -> Option<Crashed> {
        self.shards[shard].crashed
    }

    /// Record rank `shard` down (`Some`) or serving (`None`); returns what
    /// it replaces.
    pub(crate) fn set_crashed(&mut self, shard: usize, c: Option<Crashed>) -> Option<Crashed> {
        std::mem::replace(&mut self.shards[shard].crashed, c)
    }
}

#[cfg(test)]
mod tests {
    use super::super::ring::DEFAULT_VNODES;
    use super::*;
    use simcore::StatsRegistry;

    fn set(shards: usize) -> (ShardSet, StatsRegistry) {
        let stats = StatsRegistry::new();
        let rpcs = (0..shards)
            .map(|k| stats.counter(&format!("store.shard_rpcs.s{k}")))
            .collect();
        let ring = HashRing::new(shards, DEFAULT_VNODES, 5);
        let nodes: Vec<usize> = (0..shards).collect();
        (ShardSet::new(ring, &nodes, rpcs), stats)
    }

    #[test]
    fn rpc_counts_only_that_shard() {
        let (s, stats) = set(3);
        s.count_rpc(0);
        s.count_rpc(0);
        s.count_rpc(2);
        assert_eq!(stats.get("store.shard_rpcs.s0"), 2);
        assert_eq!(
            stats.get("store.shard_rpcs.s1"),
            0,
            "other shards untouched"
        );
        assert_eq!(stats.get("store.shard_rpcs.s2"), 1);
    }

    #[test]
    fn standby_promotion_swaps_ranks() {
        let (mut s, _) = set(2);
        s.promote_standby(0);
        assert_eq!(s.node(0), 0, "no standby installed: nothing moves");
        s.set_standby(0, 9);
        s.promote_standby(0);
        assert_eq!(s.node(0), 9, "standby now serves the shard");
        s.promote_standby(0);
        assert_eq!(s.node(0), 0, "ex-primary became the standby");
        assert_eq!(s.node(1), 1, "other shards untouched");
    }

    #[test]
    fn cpu_queues_fifo() {
        let (s, _) = set(1);
        let busy = VTime::from_micros(10);
        let a = s.cpu_grant(0, VTime::ZERO, busy).end;
        let b = s.cpu_grant(0, VTime::ZERO, busy).end;
        assert_eq!(a, busy);
        assert_eq!(b, busy * 2, "second op waits behind the first");
    }
}
