//! Engine stress and edge-case tests beyond the in-crate unit tests.

use simcore::{Engine, ProcCtx, Rendezvous, Resolution, Resource, VTime};
use std::cell::{Cell, RefCell};

#[test]
fn hundred_processes_interleave_deterministically() {
    let run = || {
        let log = RefCell::new(Vec::new());
        let report = Engine::run(
            (0..100usize)
                .map(|id| {
                    let log = &log;
                    move |ctx: &mut ProcCtx| {
                        for step in 0..20u64 {
                            ctx.advance(VTime::from_nanos(((id as u64) * 7 + step * 13) % 29 + 1));
                            ctx.yield_until_min();
                            log.borrow_mut().push((id, ctx.now().as_nanos()));
                        }
                    }
                })
                .collect(),
        );
        (report.makespan, log.into_inner())
    };
    let (m1, l1) = run();
    let (m2, l2) = run();
    assert_eq!(m1, m2);
    assert_eq!(l1, l2);
    assert_eq!(l1.len(), 2000);
    // Log is sorted by (time, id): virtual-time ordering of shared access.
    let mut sorted = l1.clone();
    sorted.sort_by_key(|&(id, t)| (t, id));
    assert_eq!(l1, sorted);
}

#[test]
fn resource_contention_across_many_processes_conserves_busy_time() {
    let dev = Resource::new("dev");
    let dev2 = dev.clone();
    let n = 32usize;
    let per_op = VTime::from_micros(10);
    let report = Engine::run(
        (0..n)
            .map(|_| {
                let dev = dev2.clone();
                move |ctx: &mut ProcCtx| {
                    for _ in 0..10 {
                        ctx.yield_until_min();
                        let g = dev.acquire_at(ctx.now(), per_op);
                        ctx.advance_to(g.end);
                    }
                }
            })
            .collect(),
    );
    // One serial device: makespan is exactly total busy time.
    assert_eq!(dev.busy_total(), per_op * (n as u64 * 10));
    assert_eq!(report.makespan, dev.busy_total());
}

#[test]
fn nested_rendezvous_groups_do_not_interfere() {
    // Two disjoint 2-party rendezvous used by 4 processes, repeatedly.
    let a = Rendezvous::new(2);
    let b = Rendezvous::new(2);
    Engine::run(
        (0..4usize)
            .map(|id| {
                let rv = if id < 2 { a.clone() } else { b.clone() };
                let index = id % 2;
                move |ctx: &mut ProcCtx| {
                    for round in 0..50u64 {
                        ctx.advance(VTime::from_nanos(id as u64 + 1));
                        let sum: u64 = rv.sync(ctx, index, round, |clocks, vals| {
                            assert_eq!(vals.len(), 2);
                            let t = clocks.iter().copied().max().unwrap();
                            Resolution {
                                results: vec![vals.iter().sum(); 2],
                                release: vec![t; 2],
                            }
                        });
                        assert_eq!(sum, 2 * round);
                    }
                }
            })
            .collect(),
    );
}

#[test]
fn mixed_suspend_resume_chains() {
    // A token passes 0→1→2→…→9 via resume_other, accumulating time.
    let n = 10usize;
    let report = Engine::run(
        (0..n)
            .map(|id| {
                move |ctx: &mut ProcCtx| {
                    if id != 0 {
                        ctx.suspend_self();
                    }
                    ctx.advance(VTime::from_millis(1));
                    if id + 1 < n {
                        ctx.yield_until_min();
                        ctx.resume_other(id + 1, ctx.now());
                    }
                }
            })
            .collect(),
    );
    assert_eq!(report.finish_times[n - 1], VTime::from_millis(n as u64));
    assert_eq!(report.makespan, VTime::from_millis(n as u64));
}

#[test]
fn rendezvous_with_heterogeneous_arrival_spread() {
    let rv = Rendezvous::new(8);
    let report = Engine::run(
        (0..8usize)
            .map(|i| {
                let rv = rv.clone();
                move |ctx: &mut ProcCtx| {
                    ctx.advance(VTime::from_secs(i as u64));
                    rv.barrier(ctx, i, VTime::ZERO);
                    assert_eq!(ctx.now(), VTime::from_secs(7));
                }
            })
            .collect(),
    );
    assert_eq!(report.makespan, VTime::from_secs(7));
}

#[test]
fn context_switch_count_is_reported() {
    let report = Engine::run(
        (0..4usize)
            .map(|i| {
                move |ctx: &mut ProcCtx| {
                    for _ in 0..25 {
                        ctx.advance(VTime::from_nanos(i as u64 + 1));
                        ctx.yield_until_min();
                    }
                }
            })
            .collect(),
    );
    assert!(report.context_switches > 0);
}

/// 128 processes (the paper's full machine): per round, `yields` phased
/// yields and then, with `barrier`, one rendezvous. Returns the report and
/// an FNV-1a over the `(ProcId, VTime)` sequence in which the processes
/// came back holding the baton — the dispatch order, which no host-side
/// change to the engine may move.
fn storm_128(rounds: usize, yields: u64, barrier: bool) -> (simcore::EngineReport, u64) {
    const N: usize = 128;
    let rv = Rendezvous::new(N);
    let order = Cell::new(0xcbf2_9ce4_8422_2325u64);
    let report = Engine::run(
        (0..N)
            .map(|i| {
                let (rv, order) = (rv.clone(), &order);
                move |ctx: &mut ProcCtx| {
                    let record = |ctx: &ProcCtx| {
                        let mut h = order.get();
                        for word in [ctx.id() as u64, ctx.now().as_nanos()] {
                            for byte in word.to_le_bytes() {
                                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                            }
                        }
                        order.set(h);
                    };
                    for _ in 0..rounds {
                        for k in 0..yields {
                            ctx.advance(VTime::from_nanos(10 + (i as u64 + k) % 7));
                            ctx.yield_until_min();
                            record(ctx);
                        }
                        if barrier {
                            ctx.advance(VTime::from_nanos(7 * (i as u64 + 1)));
                            rv.barrier(ctx, i, VTime::from_micros(1));
                            record(ctx);
                        }
                    }
                }
            })
            .collect(),
    );
    (report, order.get())
}

// The constants below were recorded at the parent of ISSUE 15 (the
// `notify_all` engine), where `wakeups` did not exist: a schedule change
// fails here before it reaches the benchmark.

#[test]
fn yield_storm_128_wakes_once_per_handoff() {
    let (report, order) = storm_128(1, 40, false);
    assert_eq!(
        (report.context_switches, order),
        (5248, 15_102_535_234_243_523_257)
    );
}

#[test]
fn barrier_rounds_128_wake_once_per_handoff() {
    let (report, order) = storm_128(20, 0, true);
    assert_eq!(
        (report.context_switches, order),
        (5228, 5_791_552_117_292_989_349)
    );
}

#[test]
fn mixed_storm_128_wakes_once_per_handoff() {
    let (report, order) = storm_128(10, 4, true);
    assert_eq!(
        (report.context_switches, order),
        (7798, 12_812_632_645_234_431_941)
    );
}
