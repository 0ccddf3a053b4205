//! Fault injection: the attached [`FaultPlan`] is applied at the top of
//! every timed store operation, so the fleet's state tracks the virtual
//! clock without a separate driver process (DESIGN.md §7).

use super::AggregateStore;
use crate::ids::BenefactorId;
use ::faults::{FaultEvent, FaultPlan};
use netsim::LinkFault;
use obs::Layer;
use simcore::rng::child_seed;
use simcore::VTime;

impl AggregateStore {
    /// Install a fault plan. Due events are applied at the top of every
    /// timed store operation, so the fleet's state tracks the virtual
    /// clock without a separate driver process.
    pub fn attach_faults(&self, plan: FaultPlan) {
        *self.faults.lock() = Some(plan);
    }

    /// Apply every scheduled fault due at or before `t`, then give the
    /// scrub daemon (when attached) a chance to run a due pass — faults
    /// first, so a pass at `t` sees the world as of `t`.
    pub fn poll_faults(&self, t: VTime) {
        // Sampler first, before any fault/scrub mutation: a sample at the
        // boundary sees the world as it was when the clock crossed it.
        self.sampler.poll(t);
        let due = match self.faults.lock().as_mut() {
            Some(plan) => plan.due(t),
            None => Vec::new(),
        };
        for fault in due {
            self.trace
                .instant(Layer::Fault, fault.event.describe(), fault.at);
            self.apply_fault(fault.event, fault.at);
        }
        self.poll_scrub(t);
    }

    fn apply_fault(&self, event: FaultEvent, at: VTime) {
        match event {
            FaultEvent::BenefactorCrash { benefactor } => {
                self.set_benefactor_alive(BenefactorId(benefactor), false);
            }
            FaultEvent::BenefactorRecover { benefactor } => {
                self.set_benefactor_alive(BenefactorId(benefactor), true);
            }
            // Degradation and partition are independent link properties:
            // each event edits its own and leaves the other as it was.
            FaultEvent::LinkDegrade {
                node,
                bw_divisor,
                extra_latency,
            } => self.edit_link(node, |link| {
                link.bw_divisor = bw_divisor;
                link.extra_latency = extra_latency;
            }),
            FaultEvent::LinkRestore { node } => self.edit_link(node, |link| {
                *link = LinkFault {
                    partitioned: link.partitioned,
                    ..LinkFault::default()
                }
            }),
            FaultEvent::Partition { node } => self.edit_link(node, |link| link.partitioned = true),
            FaultEvent::Heal { node } => self.edit_link(node, |link| link.partitioned = false),
            FaultEvent::SsdSlowdown { node, factor } => self.set_node_ssd_slowdown(node, factor),
            FaultEvent::SsdRestore { node } => self.set_node_ssd_slowdown(node, 1.0),
            FaultEvent::BitRot {
                benefactor,
                rate_bp,
                seed,
            } => self.apply_bit_rot(BenefactorId(benefactor), rate_bp, seed),
            FaultEvent::TornWrite { benefactor } => {
                self.mgr
                    .lock()
                    .benefactor_mut(BenefactorId(benefactor))
                    .arm_torn_write();
            }
            FaultEvent::CorruptionRate {
                benefactor,
                rate_bp,
                seed,
            } => {
                self.mgr
                    .lock()
                    .benefactor_mut(BenefactorId(benefactor))
                    .set_corruption_rate(rate_bp, seed);
            }
            FaultEvent::ShardCrash { shard } => self.set_shard_alive(shard, false),
            FaultEvent::ShardRecover { shard } => self.set_shard_alive(shard, true),
            FaultEvent::ManagerCrash { shard } => self.set_manager_alive(shard, false, at),
            FaultEvent::ManagerRecover { shard } => self.set_manager_alive(shard, true, at),
        }
    }

    /// Read-modify-write of `node`'s link-fault record.
    fn edit_link(&self, node: usize, edit: impl FnOnce(&mut LinkFault)) {
        let mut link = self.net.link_fault(node);
        edit(&mut link);
        self.net.set_link_fault(node, link);
    }

    /// Silent bit-rot: each chunk stored on `b` is corrupted with
    /// probability `rate_bp` basis points, scaled up by the SSD's consumed
    /// life — a worn device rots faster (PAPER.md Table I wear counters).
    /// Seed-stable per chunk id, so identical runs rot identical bytes.
    /// Data-only: no virtual time is charged.
    fn apply_bit_rot(&self, b: BenefactorId, rate_bp: u32, seed: u64) {
        let mut mgr = self.mgr.lock();
        let life = mgr.benefactor(b).ssd().wear().life_consumed;
        let effective_bp = (rate_bp as f64 * (1.0 + life)) as u64;
        for c in mgr.benefactor(b).chunk_ids() {
            let draw = child_seed(seed, c.0);
            if draw % 10_000 < effective_bp {
                let off = child_seed(draw, 1);
                mgr.benefactor_mut(b).corrupt_chunk(c, off);
            }
        }
    }

    fn set_node_ssd_slowdown(&self, node: usize, factor: f64) {
        let mgr = self.mgr.lock();
        for i in 0..mgr.benefactor_count() {
            let b = mgr.benefactor(BenefactorId(i));
            if b.node == node {
                b.ssd().set_slowdown(factor);
            }
        }
    }

    /// Simulate a benefactor failure (or decommission/recovery). Revival
    /// reconciles the benefactor's disk against the metadata: chunks that
    /// were re-homed while it was down are stale there and get dropped.
    pub fn set_benefactor_alive(&self, id: BenefactorId, alive: bool) {
        let mut mgr = self.mgr.lock();
        if mgr.benefactor(id).is_alive() == alive {
            return;
        }
        mgr.set_alive(id, alive);
        // Liveness changes serviceability: invalidate location caches.
        mgr.bump_placement_epoch();
        if alive {
            mgr.reconcile_recovered(id);
            self.benefactor_recoveries.inc();
        } else {
            self.benefactor_crashes.inc();
        }
    }
}
