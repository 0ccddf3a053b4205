//! Fault injection: the attached [`FaultPlan`] is applied at the top of
//! every timed store operation, so the fleet's state tracks the virtual
//! clock without a separate driver process (DESIGN.md §7).

use super::AggregateStore;
use crate::ids::BenefactorId;
use ::faults::{FaultEvent, FaultPlan};
use obs::Layer;
use simcore::rng::child_seed;
use simcore::VTime;

impl AggregateStore {
    /// Install a fault plan. Due events are applied at the top of every
    /// timed store operation, so the fleet's state tracks the virtual
    /// clock without a separate driver process. A plan that names a
    /// manager rank the store does not have is refused.
    pub fn attach_faults(&self, plan: FaultPlan) {
        let ranks = self.mgr.borrow().ranks().len();
        for fault in plan.events() {
            if let FaultEvent::ManagerCrash { shard } | FaultEvent::ManagerRecover { shard } =
                fault.event
            {
                assert!(
                    shard < ranks,
                    "the fault plan names manager rank {shard}, but the store has {ranks} rank(s)"
                );
            }
        }
        *self.faults.borrow_mut() = Some(plan);
    }

    /// Apply every scheduled fault due at or before `t`, then give the
    /// scrub daemon (when attached) a chance to run a due pass — faults
    /// first, so a pass at `t` sees the world as of `t`.
    pub fn poll_faults(&self, t: VTime) {
        // Sampler first, before any fault/scrub mutation: a sample at the
        // boundary sees the world as it was when the clock crossed it.
        self.sampler.poll(t);
        let due = match self.faults.borrow_mut().as_mut() {
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
            FaultEvent::BitRot {
                benefactor,
                rate_bp,
                seed,
            } => self.apply_bit_rot(BenefactorId(benefactor), rate_bp, seed),
            FaultEvent::TornWrite { benefactor } => {
                self.mgr
                    .borrow_mut()
                    .benefactor_mut(BenefactorId(benefactor))
                    .arm_torn_write();
            }
            FaultEvent::CorruptionRate {
                benefactor,
                rate_bp,
                seed,
            } => {
                self.mgr
                    .borrow_mut()
                    .benefactor_mut(BenefactorId(benefactor))
                    .set_corruption_rate(rate_bp, seed);
            }
            FaultEvent::ManagerCrash { shard } => self.set_manager_alive(shard, false, at),
            FaultEvent::ManagerRecover { shard } => self.set_manager_alive(shard, true, at),
        }
    }

    /// Silent bit-rot: each chunk stored on `b` is corrupted with
    /// probability `rate_bp` basis points, scaled up by the SSD's consumed
    /// life — a worn device rots faster (PAPER.md Table I wear counters).
    /// Seed-stable per chunk id, so identical runs rot identical bytes.
    /// Data-only: no virtual time is charged.
    fn apply_bit_rot(&self, b: BenefactorId, rate_bp: u32, seed: u64) {
        let mut mgr = self.mgr.borrow_mut();
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

    /// Simulate a benefactor failure (or decommission/recovery). Revival
    /// reconciles the benefactor's disk against the metadata: chunks that
    /// were re-homed while it was down are stale there and get dropped.
    pub fn set_benefactor_alive(&self, id: BenefactorId, alive: bool) {
        let mut mgr = self.mgr.borrow_mut();
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
