//! Per-shard runtime state: the shard's CPU and the lease table backing
//! client-side placement delegation.
//!
//! A **lease** is delegation authority: while client node `c` holds an
//! unexpired lease from shard `k`, it may answer placement questions for
//! `k`'s keyspace from its local `LocationCache` without a manager
//! round-trip. Leases are granted (and renewed) piggybacked on every
//! shard RPC response — no separate lease traffic — with a seed-stable
//! jittered expiry in virtual time so a fleet of clients does not renew
//! in lockstep yet identical runs expire identical leases.
//!
//! Revocation (`revoke_shard`) clears every lease the shard granted; the
//! store pairs it with a global placement-epoch bump, so no stale
//! `LocationCache` hit can survive a revoke (the `shardmgr_model`
//! proptest pins this). A rank *crash* deliberately does **not** revoke:
//! leased clients keep serving their cached resolutions for data that
//! lives on healthy benefactors, which is what confines the outage to
//! the dead shard's unleased keyspace.

use super::ring::HashRing;
use crate::bitalloc::BitSet;
use simcore::rng::child_seed;
use simcore::{Counter, Resource, VTime};

/// Lease bookkeeping counters, registered lazily by the store when the
/// sharded manager is installed (knobs-off snapshots must not grow keys).
#[derive(Clone, Debug)]
pub struct LeaseCounters {
    pub grants: Counter,
    pub renewals: Counter,
    pub revokes: Counter,
    pub expiries: Counter,
}

/// One placement-manager shard rank.
#[derive(Debug)]
struct ShardState {
    /// Cluster node the shard rank runs on.
    node: usize,
    /// Node of this shard's standby manager rank (manager HA, DESIGN.md
    /// §16); `None` when the shard runs without one.
    standby: Option<usize>,
    /// The shard's metadata CPU: RPCs queue FIFO here, which is where
    /// fan-in contention lives and what extra shards relieve.
    cpu: Resource,
    /// Clients holding a delegation: one bit per client node, with O(1)
    /// cardinality (same substrate as the slot allocator, DESIGN.md §13).
    held: BitSet,
    /// Client `c`'s lease expiry lives at `expiry[c]`, meaningful only
    /// while bit `c` is set in `held`. Flat and index-keyed: client ids
    /// are dense cluster node numbers.
    expiry: Vec<VTime>,
}

/// The installed shard fleet: ring + per-shard state + lease policy.
#[derive(Debug)]
pub struct ShardSet {
    ring: HashRing,
    shards: Vec<ShardState>,
    lease_ttl: VTime,
    seed: u64,
    counters: LeaseCounters,
    /// `store.shard_rpcs.s{k}` — per-shard RPC attribution.
    per_shard_rpcs: Vec<Counter>,
}

impl ShardSet {
    pub fn new(
        ring: HashRing,
        nodes: &[usize],
        lease_ttl: VTime,
        seed: u64,
        counters: LeaseCounters,
        per_shard_rpcs: Vec<Counter>,
    ) -> Self {
        assert_eq!(ring.shards(), nodes.len(), "one node per ring shard");
        assert_eq!(nodes.len(), per_shard_rpcs.len(), "one counter per shard");
        assert!(lease_ttl > VTime::ZERO, "leases must have a duration");
        ShardSet {
            ring,
            shards: nodes
                .iter()
                .enumerate()
                .map(|(k, &node)| ShardState {
                    node,
                    standby: None,
                    cpu: Resource::new(format!("shardmgr.s{k}.cpu")),
                    held: BitSet::new(),
                    expiry: Vec::new(),
                })
                .collect(),
            lease_ttl,
            seed,
            counters,
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

    pub fn node(&self, shard: usize) -> usize {
        self.shards[shard].node
    }

    /// Install a standby manager rank for `shard` on `node` (DESIGN.md
    /// §16). The standby holds no state of its own — at takeover it
    /// replays the shard's metadata journal.
    pub fn set_standby(&mut self, shard: usize, node: usize) {
        self.shards[shard].standby = Some(node);
    }

    pub fn standby_node(&self, shard: usize) -> Option<usize> {
        self.shards[shard].standby
    }

    /// Promote `shard`'s standby: it becomes the serving rank (its node
    /// is returned so the store can re-point the shard's RPC endpoint)
    /// and the crashed ex-primary's node takes the standby slot, so a
    /// later reboot rejoins as the new standby. `None` — and no state
    /// change — when the shard has no standby.
    pub fn promote_standby(&mut self, shard: usize) -> Option<usize> {
        let s = &mut self.shards[shard];
        let standby = s.standby?;
        s.standby = Some(s.node);
        s.node = standby;
        Some(standby)
    }

    /// Occupy the shard's CPU for one metadata operation arriving at
    /// `t_req`; returns when the operation's result is ready.
    pub fn cpu_done(&self, shard: usize, t_req: VTime, busy: VTime) -> VTime {
        self.cpu_grant(shard, t_req, busy).end
    }

    /// Like [`ShardSet::cpu_done`], but returns the full grant — the
    /// causal tracer needs the service *start* too, to split queueing
    /// from service in the `shardmgr.cpu` span.
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

    /// Does `client` hold an unexpired lease from `shard` at `now`?
    /// Expired leases are reaped (and counted) on consultation.
    pub fn check_lease(&mut self, shard: usize, client: usize, now: VTime) -> bool {
        let s = &mut self.shards[shard];
        if !s.held.contains(client) {
            return false;
        }
        if s.expiry[client] > now {
            true
        } else {
            s.held.remove(client);
            self.counters.expiries.inc();
            false
        }
    }

    /// Grant (or renew) `client`'s delegation from `shard` at `now` —
    /// piggybacked on the shard's RPC response. Expiry is `now + ttl`
    /// plus a seed-stable per-(shard, client) jitter of up to ttl/8, so
    /// renewals de-synchronize across the fleet without host randomness.
    pub fn grant_lease(&mut self, shard: usize, client: usize, now: VTime) {
        let jitter_span = (self.lease_ttl.as_nanos() / 8).max(1);
        let jitter = child_seed(child_seed(self.seed, shard as u64), client as u64) % jitter_span;
        let s = &mut self.shards[shard];
        let renewal = s.held.contains(client) && s.expiry[client] > now;
        if renewal {
            self.counters.renewals.inc();
        } else {
            self.counters.grants.inc();
        }
        if s.expiry.len() <= client {
            s.expiry.resize(client + 1, VTime::ZERO);
        }
        s.held.insert(client);
        s.expiry[client] = now + self.lease_ttl + VTime::from_nanos(jitter);
    }

    /// Revoke every lease `shard` has granted, returning how many fell.
    /// The caller (the store) pairs this with a placement-epoch bump so
    /// revoked clients cannot keep serving stale cached resolutions.
    pub fn revoke_shard(&mut self, shard: usize) -> usize {
        let n = self.shards[shard].held.clear();
        self.counters.revokes.add(n as u64);
        n
    }

    /// Leases currently on `shard`'s books — O(1) (expired-but-unreaped
    /// entries count until a `check_lease` consults them, exactly as the
    /// map-backed table behaved).
    pub fn leases_held(&self, shard: usize) -> usize {
        self.shards[shard].held.count()
    }
}

#[cfg(test)]
mod tests {
    use super::super::ring::DEFAULT_VNODES;
    use super::*;
    use simcore::StatsRegistry;

    fn set(shards: usize, ttl: VTime) -> (ShardSet, StatsRegistry) {
        let stats = StatsRegistry::new();
        let counters = LeaseCounters {
            grants: stats.counter("store.lease_grants"),
            renewals: stats.counter("store.lease_renewals"),
            revokes: stats.counter("store.lease_revokes"),
            expiries: stats.counter("store.lease_expiries"),
        };
        let rpcs = (0..shards)
            .map(|k| stats.counter(&format!("store.shard_rpcs.s{k}")))
            .collect();
        let ring = HashRing::new(shards, DEFAULT_VNODES, 5);
        let nodes: Vec<usize> = (0..shards).collect();
        (ShardSet::new(ring, &nodes, ttl, 5, counters, rpcs), stats)
    }

    #[test]
    fn lease_lifecycle_grant_renew_expire() {
        let ttl = VTime::from_secs(1);
        let (mut s, stats) = set(2, ttl);
        let t = VTime::from_millis(3);
        assert!(!s.check_lease(0, 9, t), "no lease yet");
        s.grant_lease(0, 9, t);
        assert_eq!(stats.get("store.lease_grants"), 1);
        assert!(s.check_lease(0, 9, t + VTime::from_millis(500)));
        assert!(!s.check_lease(1, 9, t), "leases are per shard");
        // A re-grant while valid is a renewal and pushes expiry out.
        s.grant_lease(0, 9, t + VTime::from_millis(500));
        assert_eq!(stats.get("store.lease_renewals"), 1);
        assert!(s.check_lease(0, 9, t + ttl + VTime::from_millis(400)));
        // Far future: expired, reaped, counted.
        assert!(!s.check_lease(0, 9, t + VTime::from_secs(10)));
        assert_eq!(stats.get("store.lease_expiries"), 1);
        assert_eq!(s.leases_held(0), 0);
    }

    #[test]
    fn expiry_jitter_is_seed_stable_and_bounded() {
        let ttl = VTime::from_secs(1);
        let (mut a, _) = set(4, ttl);
        let (mut b, _) = set(4, ttl);
        let t = VTime::ZERO;
        for client in 0..16 {
            a.grant_lease(2, client, t);
            b.grant_lease(2, client, t);
        }
        // Jitter is bounded below: every lease is still valid just short
        // of the base ttl. (Checked first — an expiry check *reaps* the
        // lease, so probe the early edge before the far horizon.)
        for client in 0..16 {
            assert!(b.check_lease(2, client, t + ttl - VTime::from_nanos(1)));
        }
        // Identical construction → identical expiry map: the lease edge
        // lands at the same virtual instant on every run, and everything
        // is dead past ttl + ttl/8.
        let near = t + ttl + VTime::from_nanos(ttl.as_nanos() / 16);
        let far = t + ttl + VTime::from_nanos(ttl.as_nanos() / 8);
        for client in 0..16 {
            assert_eq!(
                a.check_lease(2, client, near),
                b.check_lease(2, client, near)
            );
            assert!(!a.check_lease(2, client, far));
        }
    }

    #[test]
    fn revoke_clears_only_that_shard() {
        let (mut s, stats) = set(3, VTime::from_secs(5));
        let t = VTime::ZERO;
        s.grant_lease(0, 7, t);
        s.grant_lease(0, 8, t);
        s.grant_lease(1, 7, t);
        assert_eq!(s.revoke_shard(0), 2);
        assert_eq!(stats.get("store.lease_revokes"), 2);
        assert!(!s.check_lease(0, 7, t + VTime::from_millis(1)));
        assert!(
            s.check_lease(1, 7, t + VTime::from_millis(1)),
            "other shards' delegations survive"
        );
    }

    #[test]
    fn standby_promotion_swaps_ranks() {
        let (mut s, _) = set(2, VTime::from_secs(1));
        assert_eq!(s.promote_standby(0), None, "no standby installed");
        s.set_standby(0, 9);
        assert_eq!(s.promote_standby(0), Some(9));
        assert_eq!(s.node(0), 9, "standby now serves the shard");
        assert_eq!(s.standby_node(0), Some(0), "ex-primary becomes standby");
        assert_eq!(s.node(1), 1, "other shards untouched");
    }

    #[test]
    fn cpu_queues_fifo() {
        let (s, _) = set(1, VTime::from_secs(1));
        let busy = VTime::from_micros(10);
        let a = s.cpu_done(0, VTime::ZERO, busy);
        let b = s.cpu_done(0, VTime::ZERO, busy);
        assert_eq!(a, busy);
        assert_eq!(b, busy * 2, "second op waits behind the first");
    }
}
