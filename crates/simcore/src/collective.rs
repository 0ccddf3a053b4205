//! Synchronous rendezvous between a fixed group of simulated processes.
//!
//! MPI-style collectives (barrier, broadcast, scatter, gather) are all
//! instances of one pattern: every participant arrives with a payload and
//! suspends; the *last* arriver resolves the exchange — computing each
//! participant's result value and release time, typically by charging
//! network resources — and resumes everyone. [`Rendezvous`] implements that
//! pattern; the `cluster` crate layers typed collectives on top.

use crate::engine::{ProcCtx, ProcId};
use crate::time::VTime;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

type Payload = Box<dyn Any>;

struct Slot {
    proc: ProcId,
    clock: VTime,
    payload: Option<Payload>,
    result: Option<Payload>,
}

struct RvState {
    // One entry per participant index; filled as processes arrive.
    slots: Vec<Option<Slot>>,
    arrived: usize,
    round: u64,
}

/// What the resolver hands back for every participant.
pub struct Resolution<R> {
    /// `results[i]` is returned from `sync` by participant `i`.
    pub results: Vec<R>,
    /// `release[i]` is participant `i`'s clock when `sync` returns.
    pub release: Vec<VTime>,
}

/// A reusable N-party rendezvous point.
///
/// All participants must call [`Rendezvous::sync`] with their participant
/// index (0..n) once per round, SPMD style. The closure passed by the last
/// arriver is the one that runs; all call sites must therefore pass
/// equivalent resolvers (as in MPI, where every rank executes the same
/// collective).
#[derive(Clone)]
pub struct Rendezvous {
    state: Rc<RefCell<RvState>>,
    n: usize,
}

impl Rendezvous {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "rendezvous needs at least one participant");
        Rendezvous {
            state: Rc::new(RefCell::new(RvState {
                slots: (0..n).map(|_| None).collect(),
                arrived: 0,
                round: 0,
            })),
            n,
        }
    }

    /// Arrive with `payload`; block until all `n` participants arrived; the
    /// last arriver runs `resolve(arrival_clocks, payloads)` and its output
    /// assigns every participant's result and release clock.
    ///
    /// `index` is the participant's rank within this rendezvous (not its
    /// global `ProcId`).
    pub fn sync<T, R, F>(&self, ctx: &mut ProcCtx, index: usize, payload: T, resolve: F) -> R
    where
        T: 'static,
        R: 'static,
        F: FnOnce(&[VTime], Vec<T>) -> Resolution<R>,
    {
        assert!(index < self.n, "participant index out of range");
        // Arrival is a shared-state action: order it in virtual time.
        ctx.yield_until_min();

        let is_last = {
            let mut st = self.state.borrow_mut();
            assert!(
                st.slots[index].is_none(),
                "participant {index} arrived twice in one round"
            );
            st.slots[index] = Some(Slot {
                proc: ctx.id(),
                clock: ctx.now(),
                payload: Some(Box::new(payload)),
                result: None,
            });
            st.arrived += 1;
            st.arrived == self.n
        };

        if !is_last {
            ctx.suspend_self();
            // Resumed: collect our result and clear our slot so we can
            // re-arrive for the next round.
            let mut st = self.state.borrow_mut();
            let slot = st.slots[index].take().expect("slot vanished");
            return *slot
                .result
                .expect("resolver did not set a result")
                .downcast::<R>()
                .expect("resolver produced result of the wrong type");
        }

        // We are the last arriver: run the resolver.
        let (clocks, payloads, procs) = {
            let mut st = self.state.borrow_mut();
            let mut clocks = Vec::with_capacity(self.n);
            let mut payloads = Vec::with_capacity(self.n);
            let mut procs = Vec::with_capacity(self.n);
            for slot in st.slots.iter_mut() {
                let slot = slot.as_mut().expect("all slots filled");
                clocks.push(slot.clock);
                procs.push(slot.proc);
                payloads.push(
                    *slot
                        .payload
                        .take()
                        .expect("payload taken twice")
                        .downcast::<T>()
                        .expect("participants disagreed on payload type"),
                );
            }
            (clocks, payloads, procs)
        };

        let resolution = resolve(&clocks, payloads);
        assert_eq!(resolution.results.len(), self.n, "one result per rank");
        assert_eq!(resolution.release.len(), self.n, "one release per rank");
        for (i, t) in resolution.release.iter().enumerate() {
            assert!(
                *t >= clocks[i],
                "release {t} precedes participant {i}'s arrival {}",
                clocks[i]
            );
        }

        // Distribute results; resume everyone else; take our own.
        let mut my_result: Option<R> = None;
        {
            let mut st = self.state.borrow_mut();
            for (i, result) in resolution.results.into_iter().enumerate() {
                if i == index {
                    my_result = Some(result);
                } else {
                    st.slots[i].as_mut().expect("slot").result = Some(Box::new(result));
                }
            }
            // Clear our own slot and close the round: arrivals for the
            // next round may begin immediately (each other participant
            // still drains its own result slot before it can re-arrive,
            // so a fast process can never resolve round k+1 against
            // stale round-k slots).
            st.slots[index] = None;
            st.arrived = 0;
            st.round += 1;
        }
        ctx.advance_to(resolution.release[index]);
        for (i, &proc) in procs.iter().enumerate() {
            if i != index {
                ctx.resume_other(proc, resolution.release[i]);
            }
        }
        my_result.expect("own result set above")
    }

    /// A plain barrier: all participants leave at the max arrival clock
    /// plus `overhead`.
    pub fn barrier(&self, ctx: &mut ProcCtx, index: usize, overhead: VTime) {
        let n = self.n;
        self.sync(ctx, index, (), move |clocks, _: Vec<()>| {
            let t = clocks.iter().copied().max().unwrap() + overhead;
            Resolution {
                results: vec![(); n],
                release: vec![t; n],
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn barrier_aligns_clocks() {
        let rv = Rendezvous::new(3);
        let report = Engine::run(
            (0..3)
                .map(|i| {
                    let rv = rv.clone();
                    move |ctx: &mut ProcCtx| {
                        ctx.advance(VTime::from_secs((i + 1) as u64));
                        rv.barrier(ctx, i, VTime::ZERO);
                        assert_eq!(ctx.now(), VTime::from_secs(3));
                    }
                })
                .collect(),
        );
        assert_eq!(report.makespan, VTime::from_secs(3));
    }

    #[test]
    fn barrier_overhead_applies() {
        let rv = Rendezvous::new(2);
        Engine::run(
            (0..2)
                .map(|i| {
                    let rv = rv.clone();
                    move |ctx: &mut ProcCtx| {
                        rv.barrier(ctx, i, VTime::from_micros(10));
                        assert_eq!(ctx.now(), VTime::from_micros(10));
                    }
                })
                .collect(),
        );
    }

    #[test]
    fn payloads_are_exchanged() {
        // "All-gather": everyone receives the sum of all payloads.
        let rv = Rendezvous::new(4);
        Engine::run(
            (0..4usize)
                .map(|i| {
                    let rv = rv.clone();
                    move |ctx: &mut ProcCtx| {
                        let sum: u64 = rv.sync(ctx, i, i as u64 * 10, |clocks, vals| {
                            let s: u64 = vals.iter().sum();
                            let t = clocks.iter().copied().max().unwrap();
                            Resolution {
                                results: vec![s; 4],
                                release: vec![t; 4],
                            }
                        });
                        assert_eq!(sum, 10 + 20 + 30);
                    }
                })
                .collect(),
        );
    }

    #[test]
    fn per_rank_release_times() {
        // Root releases immediately; others staggered (like a linear bcast).
        let rv = Rendezvous::new(3);
        Engine::run(
            (0..3usize)
                .map(|i| {
                    let rv = rv.clone();
                    move |ctx: &mut ProcCtx| {
                        rv.sync(ctx, i, (), |clocks, _: Vec<()>| {
                            let t0 = clocks.iter().copied().max().unwrap();
                            Resolution {
                                results: vec![(); 3],
                                release: (0..3)
                                    .map(|r| t0 + VTime::from_micros(100 * r as u64))
                                    .collect(),
                            }
                        });
                        assert_eq!(ctx.now(), VTime::from_micros(100 * i as u64));
                    }
                })
                .collect(),
        );
    }

    #[test]
    fn reusable_across_rounds() {
        let rv = Rendezvous::new(2);
        Engine::run(
            (0..2usize)
                .map(|i| {
                    let rv = rv.clone();
                    move |ctx: &mut ProcCtx| {
                        for round in 0..10u64 {
                            ctx.advance(VTime::from_nanos((i as u64 + 1) * 7));
                            let got: u64 = rv.sync(ctx, i, round, |clocks, vals| {
                                assert_eq!(vals, vec![round, round]);
                                let t = clocks.iter().copied().max().unwrap();
                                Resolution {
                                    results: vals,
                                    release: vec![t; 2],
                                }
                            });
                            assert_eq!(got, round);
                        }
                    }
                })
                .collect(),
        );
    }

    #[test]
    fn single_participant_rendezvous() {
        let rv = Rendezvous::new(1);
        Engine::run(vec![{
            let rv = rv.clone();
            move |ctx: &mut ProcCtx| {
                let v: u32 = rv.sync(ctx, 0, 42u32, |clocks, mut vals| Resolution {
                    results: vec![vals.remove(0)],
                    release: vec![clocks[0]],
                });
                assert_eq!(v, 42);
            }
        }]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn missing_participant_deadlocks() {
        let rv = Rendezvous::new(3);
        Engine::run(
            (0..2usize)
                .map(|i| {
                    let rv = rv.clone();
                    move |ctx: &mut ProcCtx| {
                        rv.barrier(ctx, i, VTime::ZERO);
                    }
                })
                .collect(),
        );
    }
}
