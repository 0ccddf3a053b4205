//! # faults — deterministic fault injection
//!
//! The paper's aggregate store must "survive benefactor failures": a
//! compute node's SSD partition disappears mid-run and the store either
//! fails the job cleanly (unreplicated data) or degrades and repairs
//! (replicated data). This crate describes *when and what* fails, as a
//! [`FaultPlan`]: a time-sorted list of events on the simulation's
//! virtual clock.
//!
//! Plans are **seed-stable**: randomized plans derive every choice from
//! an explicit seed through `simcore::rng::child_seed`, never from host
//! randomness, so the same seed reproduces the same crash schedule — and
//! therefore bit-identical virtual-time results — on every run.
//!
//! The plan itself is pure data. The aggregate store polls it at the top
//! of each timed operation (`AggregateStore::poll_faults`) and applies
//! due events to the fleet: benefactor and manager-rank liveness, and
//! media corruption.
//!
//! Every event is one the store applies in full. There is no link or
//! partition event: to the store, a partitioned benefactor is a crashed
//! one whose media are intact, which is exactly `crash` + `recover` (the
//! recovery reconciles whatever was re-homed meanwhile). A slow link or
//! SSD would only stretch virtual time, and no experiment asks for one,
//! so the plan has no event for it either.

use simcore::rng::child_seed;
use simcore::VTime;

/// One thing that goes wrong (or recovers) in the cluster.
///
/// Benefactors are addressed by their registration index (the store's
/// `BenefactorId` order); manager ranks by shard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Benefactor process dies: its chunks become unreachable.
    BenefactorCrash { benefactor: usize },
    /// The benefactor comes back with its SSD contents intact; the store
    /// reconciles any chunks that were re-homed while it was down.
    BenefactorRecover { benefactor: usize },
    /// Silent bit-rot on a benefactor: each chunk stored there flips a
    /// byte with probability `rate_bp` basis points (1/10000), scaled up
    /// by the device's accumulated wear (worn flash rots faster — the
    /// store reads `life_consumed` from the SSD's wear report and derates
    /// accordingly). Per-chunk decisions and flip offsets derive from
    /// `seed` through `child_seed`, so the same plan corrupts the same
    /// bytes on every run.
    BitRot {
        benefactor: usize,
        rate_bp: u32,
        seed: u64,
    },
    /// A crash in the middle of the benefactor's next chunk write: only
    /// the first half of each dirty run reaches the media, leaving the
    /// chunk half-new/half-old while the manager records the checksum of
    /// the intended content. One-shot — the write after next is clean.
    TornWrite { benefactor: usize },
    /// Persistent media degradation: from now on, every chunk write on
    /// this benefactor flips a stored byte with probability `rate_bp`
    /// basis points, drawn seed-stably per write. `rate_bp = 0` restores
    /// healthy behaviour.
    CorruptionRate {
        benefactor: usize,
        rate_bp: u32,
        seed: u64,
    },
    /// A placement-manager rank loses its in-memory metadata entirely
    /// (process crash, DESIGN.md §16). Only that rank's keyspace goes
    /// dark: clients' cached placements stay valid (no epoch moves) and
    /// every other rank keeps serving. With HA standby enabled the shard's standby rank
    /// replays the journaled metadata and takes over after the failover
    /// timeout; without it, clients retry until a recover event or
    /// exhaust into `StoreError::ManagerDown`.
    ManagerCrash { shard: usize },
    /// The crashed manager rank reboots cold: the placement epoch bumps,
    /// so no client serves a pre-crash cached placement; with HA standby
    /// the rebooted rank rejoins as the new standby.
    ManagerRecover { shard: usize },
}

impl FaultEvent {
    /// Short human-readable label, used for trace instants and logs.
    pub fn describe(&self) -> String {
        match self {
            FaultEvent::BenefactorCrash { benefactor } => {
                format!("fault.benefactor_crash b={benefactor}")
            }
            FaultEvent::BenefactorRecover { benefactor } => {
                format!("fault.benefactor_recover b={benefactor}")
            }
            FaultEvent::BitRot {
                benefactor,
                rate_bp,
                ..
            } => format!("fault.bit_rot b={benefactor} rate={rate_bp}bp"),
            FaultEvent::TornWrite { benefactor } => {
                format!("fault.torn_write b={benefactor}")
            }
            FaultEvent::CorruptionRate {
                benefactor,
                rate_bp,
                ..
            } => format!("fault.corruption_rate b={benefactor} rate={rate_bp}bp"),
            FaultEvent::ManagerCrash { shard } => format!("fault.mgr_crash m={shard}"),
            FaultEvent::ManagerRecover { shard } => format!("fault.mgr_recover m={shard}"),
        }
    }
}

/// A [`FaultEvent`] scheduled at a virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedFault {
    pub at: VTime,
    pub event: FaultEvent,
}

/// A time-sorted schedule of faults, consumed front to back.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<TimedFault>,
    cursor: usize,
}

impl FaultPlan {
    /// Build a plan from events in any order (stable-sorted by time, so
    /// same-instant events keep their insertion order).
    pub fn new(mut events: Vec<TimedFault>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events, cursor: 0 }
    }

    /// Remove and return every event due at or before `now`, in order.
    pub fn due(&mut self, now: VTime) -> Vec<TimedFault> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }

    /// When the next pending event fires, if any.
    pub fn next_at(&self) -> Option<VTime> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// The full schedule (delivered and pending), for reports.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Builder for fault plans, including seed-stable randomized schedules.
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    streams: u64,
    events: Vec<TimedFault>,
}

impl FaultPlanBuilder {
    pub fn new(seed: u64) -> Self {
        FaultPlanBuilder {
            seed,
            streams: 0,
            events: Vec::new(),
        }
    }

    /// Next value from the builder's deterministic choice stream.
    fn draw(&mut self) -> u64 {
        let v = child_seed(self.seed, self.streams);
        self.streams += 1;
        v
    }

    pub fn at(mut self, at: VTime, event: FaultEvent) -> Self {
        self.events.push(TimedFault { at, event });
        self
    }

    pub fn crash(self, at: VTime, benefactor: usize) -> Self {
        self.at(at, FaultEvent::BenefactorCrash { benefactor })
    }

    pub fn recover(self, at: VTime, benefactor: usize) -> Self {
        self.at(at, FaultEvent::BenefactorRecover { benefactor })
    }

    /// Schedule a bit-rot event: at `at`, every chunk on `benefactor`
    /// flips a byte with probability `rate_bp` basis points (wear-scaled
    /// when applied). The corruption pattern seed comes from the
    /// builder's deterministic choice stream.
    pub fn bit_rot(mut self, at: VTime, benefactor: usize, rate_bp: u32) -> Self {
        let seed = self.draw();
        self.at(
            at,
            FaultEvent::BitRot {
                benefactor,
                rate_bp,
                seed,
            },
        )
    }

    /// Arm a one-shot torn write on `benefactor` at `at`.
    pub fn torn_write(self, at: VTime, benefactor: usize) -> Self {
        self.at(at, FaultEvent::TornWrite { benefactor })
    }

    /// Crash manager rank `shard` at `at` (see [`FaultEvent::ManagerCrash`]).
    pub fn mgr_crash(self, at: VTime, shard: usize) -> Self {
        self.at(at, FaultEvent::ManagerCrash { shard })
    }

    /// Reboot manager rank `shard` at `at`, bumping the placement epoch.
    pub fn mgr_recover(self, at: VTime, shard: usize) -> Self {
        self.at(at, FaultEvent::ManagerRecover { shard })
    }

    /// Persistently degrade `benefactor` from `at`: each later chunk
    /// write there corrupts a stored byte with probability `rate_bp`
    /// basis points (0 restores healthy media).
    pub fn corruption_rate(mut self, at: VTime, benefactor: usize, rate_bp: u32) -> Self {
        let seed = self.draw();
        self.at(
            at,
            FaultEvent::CorruptionRate {
                benefactor,
                rate_bp,
                seed,
            },
        )
    }

    /// Schedule `count` benefactor crashes at seed-derived times inside
    /// `[window_start, window_end)`, each hitting a seed-derived victim
    /// out of `benefactors`. With `mttr` set, every victim recovers that
    /// long after its crash. Victims are drawn without replacement until
    /// the pool runs out (`count` is capped at `benefactors`).
    pub fn random_crashes(
        mut self,
        count: usize,
        benefactors: usize,
        window_start: VTime,
        window_end: VTime,
        mttr: Option<VTime>,
    ) -> Self {
        assert!(window_end > window_start, "empty crash window");
        assert!(benefactors > 0, "no benefactors to crash");
        let span = (window_end - window_start).as_nanos();
        let mut pool: Vec<usize> = (0..benefactors).collect();
        for _ in 0..count.min(benefactors) {
            let victim = pool.remove((self.draw() % pool.len() as u64) as usize);
            let at = window_start + VTime::from_nanos(self.draw() % span);
            self = self.crash(at, victim);
            if let Some(mttr) = mttr {
                self = self.recover(at + mttr, victim);
            }
        }
        self
    }

    pub fn build(self) -> FaultPlan {
        FaultPlan::new(self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_drains_in_order() {
        let mut plan = FaultPlanBuilder::new(1)
            .crash(VTime::from_secs(2), 0)
            .recover(VTime::from_secs(5), 0)
            .crash(VTime::from_secs(1), 1)
            .build();
        assert_eq!(plan.remaining(), 3);
        assert_eq!(plan.next_at(), Some(VTime::from_secs(1)));
        let due = plan.due(VTime::from_secs(2));
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].event, FaultEvent::BenefactorCrash { benefactor: 1 });
        assert_eq!(due[1].event, FaultEvent::BenefactorCrash { benefactor: 0 });
        assert!(plan.due(VTime::from_secs(2)).is_empty(), "no redelivery");
        assert_eq!(plan.remaining(), 1);
        assert_eq!(plan.due(VTime::from_secs(10)).len(), 1);
        assert_eq!(plan.next_at(), None);
    }

    #[test]
    fn manager_events_schedule_and_describe() {
        let mut plan = FaultPlanBuilder::new(7)
            .mgr_recover(VTime::from_secs(4), 1)
            .mgr_crash(VTime::from_secs(1), 1)
            .build();
        assert_eq!(plan.next_at(), Some(VTime::from_secs(1)), "sorted by time");
        let due = plan.due(VTime::from_secs(5));
        assert_eq!(due[0].event, FaultEvent::ManagerCrash { shard: 1 });
        assert_eq!(due[1].event, FaultEvent::ManagerRecover { shard: 1 });
        assert_eq!(due[0].event.describe(), "fault.mgr_crash m=1");
        assert_eq!(due[1].event.describe(), "fault.mgr_recover m=1");
        assert!(plan.due(VTime::from_secs(9)).is_empty(), "no redelivery");
    }

    #[test]
    fn same_instant_events_keep_insertion_order() {
        let t = VTime::from_secs(1);
        let mut plan = FaultPlanBuilder::new(0).crash(t, 3).recover(t, 3).build();
        let due = plan.due(t);
        assert_eq!(due[0].event, FaultEvent::BenefactorCrash { benefactor: 3 });
        assert_eq!(
            due[1].event,
            FaultEvent::BenefactorRecover { benefactor: 3 }
        );
    }

    #[test]
    fn corruption_events_are_seed_stable() {
        let mk = |seed| {
            FaultPlanBuilder::new(seed)
                .bit_rot(VTime::from_secs(1), 2, 500)
                .torn_write(VTime::from_secs(2), 1)
                .corruption_rate(VTime::from_secs(3), 0, 50)
                .build()
        };
        let a = mk(9);
        assert_eq!(a.events(), mk(9).events(), "same seed, same pattern");
        // The embedded corruption seeds come from the builder stream, so
        // a different builder seed changes them.
        assert_ne!(a.events(), mk(10).events());
        match a.events()[0].event {
            FaultEvent::BitRot {
                benefactor,
                rate_bp,
                seed,
            } => {
                assert_eq!((benefactor, rate_bp), (2, 500));
                assert_ne!(seed, 0, "pattern seed drawn from the stream");
            }
            _ => panic!("bit-rot first"),
        }
        assert!(a.events()[1].event.describe().contains("torn_write"));
        assert!(a.events()[2].event.describe().contains("corruption_rate"));
    }

    #[test]
    fn random_crashes_are_seed_stable_and_distinct() {
        let mk = |seed| {
            FaultPlanBuilder::new(seed)
                .random_crashes(
                    3,
                    8,
                    VTime::from_secs(1),
                    VTime::from_secs(9),
                    Some(VTime::from_secs(2)),
                )
                .build()
        };
        let a = mk(42);
        let b = mk(42);
        assert_eq!(a.events(), b.events(), "same seed, same plan");
        let c = mk(43);
        assert_ne!(a.events(), c.events(), "different seed, different plan");

        let victims: Vec<usize> = a
            .events()
            .iter()
            .filter_map(|e| match e.event {
                FaultEvent::BenefactorCrash { benefactor } => Some(benefactor),
                _ => None,
            })
            .collect();
        assert_eq!(victims.len(), 3);
        let mut dedup = victims.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "victims drawn without replacement");
        // Each crash has a matching recovery 2 s later.
        let recoveries = a
            .events()
            .iter()
            .filter(|e| matches!(e.event, FaultEvent::BenefactorRecover { .. }))
            .count();
        assert_eq!(recoveries, 3);
    }
}
