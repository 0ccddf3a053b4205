//! Property-based engine checking: determinism and causality under
//! arbitrary interleavings of compute, shared-resource use and barriers.

use proptest::prelude::*;
use simcore::{Engine, ProcCtx, Rendezvous, Resource, VTime};
use std::cell::RefCell;

#[derive(Clone, Copy, Debug)]
enum Step {
    Compute(u64),
    Device(u64),
    Barrier,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (1u64..1000).prop_map(Step::Compute),
        3 => (1u64..1000).prop_map(Step::Device),
        1 => Just(Step::Barrier),
    ]
}

fn run_schedule(n_procs: usize, steps: &[Vec<Step>]) -> (VTime, Vec<(usize, u64)>) {
    let dev = Resource::new("dev");
    let rv = Rendezvous::new(n_procs);
    let log = RefCell::new(Vec::new());
    let report = Engine::run(
        (0..n_procs)
            .map(|id| {
                let dev = dev.clone();
                let rv = rv.clone();
                let log = &log;
                let my_steps = steps[id].clone();
                move |ctx: &mut ProcCtx| {
                    for step in my_steps {
                        match step {
                            Step::Compute(ns) => ctx.advance(VTime::from_nanos(ns)),
                            Step::Device(ns) => {
                                ctx.yield_until_min();
                                let g = dev.acquire_at(ctx.now(), VTime::from_nanos(ns));
                                log.borrow_mut().push((id, g.start.as_nanos()));
                                ctx.advance_to(g.end);
                            }
                            Step::Barrier => rv.barrier(ctx, id, VTime::ZERO),
                        }
                    }
                    // Everyone must reach the final barrier.
                    rv.barrier(ctx, id, VTime::ZERO);
                }
            })
            .collect(),
    );
    (report.makespan, log.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any schedule: (1) identical reruns produce identical timing and
    /// device-access order; (2) device grants never overlap (FIFO
    /// serialization); (3) makespan is at least the device's busy time.
    #[test]
    fn schedules_are_deterministic_and_causal(
        raw in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 1..12), 2..5)
    ) {
        // Equalize barrier counts across processes (SPMD requirement):
        // strip barriers beyond the per-process minimum.
        let min_barriers = raw
            .iter()
            .map(|s| s.iter().filter(|x| matches!(x, Step::Barrier)).count())
            .min()
            .unwrap();
        let steps: Vec<Vec<Step>> = raw
            .iter()
            .map(|s| {
                let mut kept = 0;
                s.iter()
                    .filter(|x| {
                        if matches!(x, Step::Barrier) {
                            kept += 1;
                            kept <= min_barriers
                        } else {
                            true
                        }
                    })
                    .copied()
                    .collect()
            })
            .collect();
        let n = steps.len();

        let (m1, l1) = run_schedule(n, &steps);
        let (m2, l2) = run_schedule(n, &steps);
        prop_assert_eq!(m1, m2, "deterministic makespan");
        prop_assert_eq!(&l1, &l2, "deterministic device order");

        // Device grants are issued at non-decreasing start times.
        let starts: Vec<u64> = l1.iter().map(|&(_, t)| t).collect();
        prop_assert!(starts.windows(2).all(|w| w[0] <= w[1]),
            "FIFO grants: {starts:?}");

        // The total device busy time bounds the makespan from below.
        let busy: u64 = steps
            .iter()
            .flatten()
            .filter_map(|s| match s { Step::Device(ns) => Some(*ns), _ => None })
            .sum();
        prop_assert!(m1.as_nanos() >= busy);
    }
}
