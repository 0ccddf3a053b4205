//! Conservative virtual-time process scheduler.
//!
//! Each simulated process (an MPI rank, a benefactor, a STREAM thread) runs
//! on its own host thread but holds a *baton*: exactly one process executes
//! at a time, and the engine always hands the baton to the runnable process
//! with the smallest `(virtual clock, process id)` pair. Any process that is
//! about to touch shared simulation state first waits until it holds the
//! global minimum clock ([`ProcCtx::yield_until_min`]), which guarantees
//! that shared resources and caches observe operations in virtual-time
//! order. The result is a deterministic, reproducible parallel-discrete-
//! event simulation without the complexity of full event inversion.
//!
//! Blocking coordination (collectives, rendezvous) uses
//! [`ProcCtx::suspend_self`] / [`ProcCtx::resume_other`]: a suspended
//! process is excluded from the minimum-clock computation and re-enters the
//! ready set at the virtual time chosen by its resumer, which is never in
//! the causal past because the resumer itself only acts while holding the
//! minimum clock.
//!
//! # Wake protocol
//!
//! All scheduler state sits behind one mutex; beside it every process has
//! its own wake slot (a `Condvar` only that process ever sleeps on). A
//! hand-off is one critical section on the yielding side: publish the new
//! state, `Shared::dispatch`, then sleep on its own slot under the same
//! guard. `dispatch` is the only place that wakes, and it wakes exactly
//! the process it just claimed, so a hand-off costs one wake and one sleep
//! however many processes exist. The wake cannot be lost: the sleeper
//! checks for `Running` under the mutex before every wait, and the claim
//! that makes it `Running` happens under the same mutex.
//!
//! `resume_other` wakes nobody. Invariant: *whenever the ready set is
//! non-empty, some process is `Running`.* Only the baton holder can make
//! another process `Ready`, and every path that gives the baton up (yield,
//! suspend, finish) goes through `dispatch`, which claims the ready set's
//! head — so the resumee is reached by a later `dispatch` and needs no
//! wake of its own. When a `dispatch` finds nothing ready while a process
//! is still suspended nothing could ever run again: that is a deadlock,
//! reported by a panic. Only a panicking process broadcasts — to every
//! slot, so that no peer stays asleep.

use crate::time::VTime;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Identifies a process within one [`Engine`] run.
pub type ProcId = usize;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Eligible to run at this clock.
    Ready(VTime),
    /// Currently holds the baton; the clock is the one it was granted at
    /// (a resumer may have advanced it while the process was parked).
    Running(VTime),
    /// Blocked waiting for a `resume_other` (e.g. inside a collective).
    Suspended(VTime),
    /// Returned from its body.
    Done(VTime),
}

struct Sched {
    states: Vec<State>,
    /// Mirror of every `Ready` entry in `states`, ordered by
    /// `(clock, id)`: min-ready and min-active queries are O(log n)
    /// `first()` reads instead of O(n) state sweeps, which is the
    /// per-yield hot path (ISSUE 7 host-speed pass; ISSUE 15's one wake
    /// per hand-off is its second half). `states` stays the source of
    /// truth; every Ready transition updates both.
    ready: BTreeSet<(VTime, ProcId)>,
    /// The process currently holding the baton, if any.
    running: Option<ProcId>,
    switches: u64,
    /// Slot wakes issued by `dispatch` (one per claim).
    wakeups: u64,
    poisoned: bool,
}

impl Sched {
    /// Flip `id` (not currently Ready) to Ready at `t`.
    fn make_ready(&mut self, id: ProcId, t: VTime) {
        self.states[id] = State::Ready(t);
        let inserted = self.ready.insert((t, id));
        debug_assert!(inserted, "process {id} was already in the ready set");
    }

    /// Flip a Ready process to Running (caller got it from `min_ready`
    /// or the ready set's head).
    fn claim(&mut self, id: ProcId, t: VTime) {
        let removed = self.ready.remove(&(t, id));
        debug_assert!(removed, "claimed process {id} was not in the ready set");
        self.states[id] = State::Running(t);
        self.running = Some(id);
        self.switches += 1;
    }

    /// The runnable process with the minimum `(clock, id)`, if any.
    fn min_ready(&self) -> Option<(ProcId, VTime)> {
        self.ready.first().map(|&(t, id)| (id, t))
    }

    /// Minimum clock over every *other* runnable process, when it is
    /// strictly behind `(my_clock, me)`. The caller holds the baton, so
    /// it is Running, never in the ready set.
    fn min_active_clock_excluding(&self, me: ProcId, my_clock: VTime) -> Option<(VTime, ProcId)> {
        debug_assert!(matches!(self.states[me], State::Running(_)));
        self.ready
            .first()
            .copied()
            .filter(|&(t, id)| (t, id) < (my_clock, me))
    }

    fn any_suspended(&self) -> bool {
        self.states.iter().any(|s| matches!(s, State::Suspended(_)))
    }
}

struct Shared {
    sched: Mutex<Sched>,
    /// One wake slot per process, indexed by `ProcId`.
    slots: Vec<Condvar>,
}

impl Shared {
    /// Hand the baton to the best ready process and wake it (caller must
    /// NOT be Running). Nothing ready with a process still suspended means
    /// nothing can ever run again: panic, which poisons the engine.
    fn dispatch(&self, sched: &mut Sched) {
        sched.running = None;
        if let Some((next, t)) = sched.min_ready() {
            sched.claim(next, t);
            sched.wakeups += 1;
            self.slots[next].notify_one();
        } else {
            assert!(
                !sched.any_suspended(),
                "virtual-time deadlock: every unfinished process is suspended \
                 (unmatched collective or rendezvous?)"
            );
        }
    }

    /// Sleep on `id`'s slot until a `dispatch` has claimed it; returns the
    /// clock it was granted at.
    fn wait_for_baton(&self, sched: &mut MutexGuard<'_, Sched>, id: ProcId) -> VTime {
        loop {
            assert!(!sched.poisoned, "engine poisoned by a panicking process");
            match sched.states[id] {
                State::Running(t) => return t,
                State::Ready(_) | State::Suspended(_) => {
                    assert!(
                        sched.running.is_some() || sched.ready.is_empty(),
                        "lost wake-up: processes are ready but nobody holds the baton"
                    );
                    self.slots[id].wait(sched);
                }
                State::Done(_) => unreachable!("done process rescheduled"),
            }
        }
    }
}

/// Per-process handle passed to a process body; all virtual-time operations
/// go through it.
pub struct ProcCtx {
    id: ProcId,
    clock: VTime,
    shared: Arc<Shared>,
}

impl ProcCtx {
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// This process's virtual clock.
    pub fn now(&self) -> VTime {
        self.clock
    }

    /// Advance the local clock by `dt`. Local computation touches no shared
    /// state, so this never yields and never takes the scheduler lock; the
    /// process is ordered against the others at its next
    /// [`ProcCtx::yield_until_min`].
    pub fn advance(&mut self, dt: VTime) {
        self.clock += dt;
    }

    /// Set the local clock directly; must not move backwards.
    pub fn advance_to(&mut self, t: VTime) {
        assert!(t >= self.clock, "clock may not move backwards");
        self.clock = t;
    }

    /// Block until this process holds the minimum `(clock, id)` among all
    /// non-suspended processes. Call before touching shared simulation
    /// state (resources, caches, stores) so mutations occur in virtual-time
    /// order.
    pub fn yield_until_min(&mut self) {
        let mut sched = self.shared.sched.lock();
        assert!(!sched.poisoned, "engine poisoned by a panicking process");
        if sched
            .min_active_clock_excluding(self.id, self.clock)
            .is_none()
        {
            return; // we are the minimum; keep the baton
        }
        // Someone is strictly behind us: hand over and wait. Whoever hands
        // the baton back claims the ready set's head, so we wake up as the
        // minimum and need not look again.
        sched.make_ready(self.id, self.clock);
        self.shared.dispatch(&mut sched);
        self.clock = self.shared.wait_for_baton(&mut sched, self.id);
        debug_assert!(sched
            .min_active_clock_excluding(self.id, self.clock)
            .is_none());
    }

    /// Park this process; returns once another process calls
    /// [`ProcCtx::resume_other`] for it, with the clock set by the resumer.
    pub fn suspend_self(&mut self) {
        let mut sched = self.shared.sched.lock();
        sched.states[self.id] = State::Suspended(self.clock);
        self.shared.dispatch(&mut sched);
        // Our resumer stores the release clock in our state when it flips
        // us to Ready; the claim carries it over.
        self.clock = self.shared.wait_for_baton(&mut sched, self.id);
    }

    /// Make a suspended process ready again at virtual time `at`.
    ///
    /// `at` must be at or after the resumee's suspension time, and the
    /// caller should itself hold the minimum clock (it just resolved a
    /// shared rendezvous), which keeps virtual time causal.
    pub fn resume_other(&self, other: ProcId, at: VTime) {
        assert_ne!(other, self.id, "use advance_to for the current process");
        let mut sched = self.shared.sched.lock();
        match sched.states[other] {
            State::Suspended(t) => {
                assert!(
                    at >= t,
                    "resume at {at} would move process {other} back from {t}"
                );
                sched.make_ready(other, at);
            }
            ref s => panic!("resume_other({other}): process is {s:?}, not Suspended"),
        }
        // No wake: we still hold the baton; the next dispatch reaches it.
    }

    fn finish(&mut self) {
        let mut sched = self.shared.sched.lock();
        sched.states[self.id] = State::Done(self.clock);
        self.shared.dispatch(&mut sched);
    }
}

/// Observer hooks invoked while a process holds the baton, so callbacks
/// fire in deterministic `(virtual clock, ProcId)` order. The observability
/// layer (`crates/obs`) implements this to bind trace lanes to engine
/// processes; the engine itself has no tracing dependency.
pub trait EngineObserver: Send + Sync {
    /// The process is about to execute its body on the current host thread.
    fn proc_started(&self, id: ProcId, t: VTime);
    /// The process body returned; `t` is its finish clock.
    fn proc_finished(&self, id: ProcId, t: VTime);
}

/// Outcome of an [`Engine::run`].
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Virtual finish time of each process, indexed by `ProcId`.
    pub finish_times: Vec<VTime>,
    /// max(finish_times): the simulated wall-clock of the whole job.
    pub makespan: VTime,
    /// Number of baton hand-offs (scheduling overhead metric).
    pub context_switches: u64,
    /// Host-thread wakes issued for them: one per hand-off, never a herd.
    pub wakeups: u64,
}

/// The simulation engine. Construct process bodies, run them to completion
/// in deterministic virtual-time order, and collect per-process times.
pub struct Engine;

impl Engine {
    /// Run `bodies` as simulated processes starting at virtual time zero.
    ///
    /// Bodies may borrow from the caller's stack (scoped threads). The call
    /// returns when every process body has returned. Panics in any body are
    /// propagated after poisoning the engine so no thread hangs.
    pub fn run<'env, F>(bodies: Vec<F>) -> EngineReport
    where
        F: FnOnce(&mut ProcCtx) + Send + 'env,
    {
        Self::run_with_observer(bodies, None)
    }

    /// Like [`Engine::run`], with observer callbacks at each process's
    /// start and finish. The callbacks run while the process holds the
    /// baton, so they occur in deterministic virtual-time order and on the
    /// process's own host thread (which lets an observer key thread-local
    /// state, e.g. trace lanes, by `ProcId`).
    pub fn run_with_observer<'env, F>(
        bodies: Vec<F>,
        observer: Option<Arc<dyn EngineObserver>>,
    ) -> EngineReport
    where
        F: FnOnce(&mut ProcCtx) + Send + 'env,
    {
        let n = bodies.len();
        assert!(n > 0, "engine needs at least one process");
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                states: vec![State::Ready(VTime::ZERO); n],
                ready: (0..n).map(|id| (VTime::ZERO, id)).collect(),
                running: None,
                switches: 0,
                wakeups: 0,
                poisoned: false,
            }),
            slots: (0..n).map(|_| Condvar::new()).collect(),
        });
        // Kick off: lowest id starts running.
        shared.dispatch(&mut shared.sched.lock());

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (id, body) in bodies.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let observer = observer.clone();
                handles.push(scope.spawn(move || {
                    let mut ctx = ProcCtx {
                        id,
                        clock: VTime::ZERO,
                        shared,
                    };
                    // Wait for the baton before the first action.
                    ctx.clock = ctx.shared.wait_for_baton(&mut ctx.shared.sched.lock(), id);
                    let guard = PoisonGuard {
                        shared: Arc::clone(&ctx.shared),
                    };
                    if let Some(obs) = &observer {
                        obs.proc_started(id, ctx.now());
                    }
                    body(&mut ctx);
                    if let Some(obs) = &observer {
                        obs.proc_finished(id, ctx.now());
                    }
                    // Still armed: finishing last beside a suspended peer
                    // is a deadlock, and its panic must wake that peer.
                    ctx.finish();
                    std::mem::forget(guard);
                }));
            }
            // Join manually so an original panic payload (not the generic
            // "a scoped thread panicked") reaches the caller. Secondary
            // "engine poisoned" panics from bystander processes are the
            // least interesting payloads, so prefer any other.
            let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
            for h in handles {
                if let Err(payload) = h.join() {
                    panics.push(payload);
                }
            }
            if !panics.is_empty() {
                let is_secondary = |p: &Box<dyn std::any::Any + Send>| {
                    p.downcast_ref::<String>()
                        .map(|s| s.contains("engine poisoned"))
                        .or_else(|| {
                            p.downcast_ref::<&str>()
                                .map(|s| s.contains("engine poisoned"))
                        })
                        .unwrap_or(false)
                };
                let idx = panics.iter().position(|p| !is_secondary(p)).unwrap_or(0);
                std::panic::resume_unwind(panics.swap_remove(idx));
            }
        });

        let sched = shared.sched.lock();
        let finish_times: Vec<VTime> = sched
            .states
            .iter()
            .map(|s| match s {
                State::Done(t) => *t,
                other => panic!("process did not finish: {other:?}"),
            })
            .collect();
        let makespan = finish_times.iter().copied().max().unwrap_or(VTime::ZERO);
        EngineReport {
            makespan,
            context_switches: sched.switches,
            wakeups: sched.wakeups,
            finish_times,
        }
    }
}

/// Panic guard: if a process body panics, poison the engine so every other
/// thread wakes up and unwinds instead of hanging. Forgotten on the normal
/// return path.
struct PoisonGuard {
    shared: Arc<Shared>,
}

impl Drop for PoisonGuard {
    fn drop(&mut self) {
        let mut sched = self.shared.sched.lock();
        sched.poisoned = true;
        self.shared.slots.iter().for_each(Condvar::notify_all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use std::sync::Arc;

    #[test]
    fn single_process_runs() {
        let report = Engine::run(vec![|ctx: &mut ProcCtx| {
            ctx.advance(VTime::from_secs(3));
        }]);
        assert_eq!(report.makespan, VTime::from_secs(3));
        assert_eq!(report.finish_times, vec![VTime::from_secs(3)]);
    }

    #[test]
    fn processes_interleave_in_virtual_time_order() {
        // Two processes append (id, now) to a shared log at 10ns steps with
        // different phases; the log must come out sorted by (time, id).
        let log: Arc<PMutex<Vec<(usize, VTime)>>> = Arc::new(PMutex::new(Vec::new()));
        let mk = |id: usize, start: u64, log: Arc<PMutex<Vec<(usize, VTime)>>>| {
            move |ctx: &mut ProcCtx| {
                ctx.advance(VTime::from_nanos(start));
                for _ in 0..50 {
                    ctx.yield_until_min();
                    log.lock().push((id, ctx.now()));
                    ctx.advance(VTime::from_nanos(10));
                }
            }
        };
        Engine::run(vec![
            Box::new(mk(0, 0, Arc::clone(&log))) as Box<dyn FnOnce(&mut ProcCtx) + Send>,
            Box::new(mk(1, 5, Arc::clone(&log))),
        ]);
        let log = log.lock();
        assert_eq!(log.len(), 100);
        let mut sorted = log.clone();
        sorted.sort_by_key(|&(id, t)| (t, id));
        assert_eq!(*log, sorted, "shared accesses must occur in vtime order");
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let log: Arc<PMutex<Vec<usize>>> = Arc::new(PMutex::new(Vec::new()));
            let mk = |id: usize, step: u64, log: Arc<PMutex<Vec<usize>>>| {
                move |ctx: &mut ProcCtx| {
                    for _ in 0..20 {
                        ctx.yield_until_min();
                        log.lock().push(id);
                        ctx.advance(VTime::from_nanos(step));
                    }
                }
            };
            Engine::run(vec![
                Box::new(mk(0, 7, Arc::clone(&log))) as Box<dyn FnOnce(&mut ProcCtx) + Send>,
                Box::new(mk(1, 11, Arc::clone(&log))),
                Box::new(mk(2, 13, Arc::clone(&log))),
            ]);
            Arc::try_unwrap(log).unwrap().into_inner()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }

    #[test]
    fn suspend_and_resume() {
        // Process 1 suspends; process 0 resumes it at t=100.
        let report = Engine::run(vec![
            Box::new(|ctx: &mut ProcCtx| {
                ctx.advance(VTime::from_nanos(50));
                ctx.yield_until_min();
                ctx.resume_other(1, VTime::from_nanos(100));
                ctx.advance(VTime::from_nanos(1));
            }) as Box<dyn FnOnce(&mut ProcCtx) + Send>,
            Box::new(|ctx: &mut ProcCtx| {
                ctx.suspend_self();
                assert_eq!(ctx.now(), VTime::from_nanos(100));
            }),
        ]);
        assert_eq!(report.finish_times[1], VTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn all_suspended_is_deadlock() {
        Engine::run(vec![
            Box::new(|ctx: &mut ProcCtx| ctx.suspend_self())
                as Box<dyn FnOnce(&mut ProcCtx) + Send>,
            Box::new(|ctx: &mut ProcCtx| ctx.suspend_self()),
        ]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn finish_with_suspended_peer_is_deadlock() {
        // The last runnable process finishes while its peer is still
        // suspended. The engine runs on a helper thread so that a hang is
        // a failing test here, not a stuck test binary.
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                Engine::run(vec![
                    Box::new(|ctx: &mut ProcCtx| ctx.suspend_self())
                        as Box<dyn FnOnce(&mut ProcCtx) + Send>,
                    Box::new(|ctx: &mut ProcCtx| ctx.advance(VTime::from_secs(1))),
                ])
            });
            let _ = tx.send(outcome);
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("engine hung instead of reporting the unmatched suspend");
        helper.join().unwrap();
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    #[should_panic]
    fn panic_in_body_propagates_without_hanging() {
        Engine::run(vec![
            Box::new(|ctx: &mut ProcCtx| {
                ctx.advance(VTime::from_secs(1));
                ctx.yield_until_min();
                panic!("worker exploded");
            }) as Box<dyn FnOnce(&mut ProcCtx) + Send>,
            Box::new(|ctx: &mut ProcCtx| {
                for _ in 0..1000 {
                    ctx.advance(VTime::from_millis(1));
                    ctx.yield_until_min();
                }
            }),
        ]);
    }

    #[test]
    fn ties_broken_by_process_id() {
        let log: Arc<PMutex<Vec<usize>>> = Arc::new(PMutex::new(Vec::new()));
        let mk = |id: usize, log: Arc<PMutex<Vec<usize>>>| {
            move |ctx: &mut ProcCtx| {
                ctx.yield_until_min();
                log.lock().push(id);
            }
        };
        // All at clock 0: must run 0, 1, 2.
        Engine::run(vec![
            Box::new(mk(0, Arc::clone(&log))) as Box<dyn FnOnce(&mut ProcCtx) + Send>,
            Box::new(mk(1, Arc::clone(&log))),
            Box::new(mk(2, Arc::clone(&log))),
        ]);
        assert_eq!(*log.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn makespan_is_max_finish() {
        let report = Engine::run(vec![
            Box::new(|ctx: &mut ProcCtx| ctx.advance(VTime::from_secs(1)))
                as Box<dyn FnOnce(&mut ProcCtx) + Send>,
            Box::new(|ctx: &mut ProcCtx| ctx.advance(VTime::from_secs(5))),
            Box::new(|ctx: &mut ProcCtx| ctx.advance(VTime::from_secs(2))),
        ]);
        assert_eq!(report.makespan, VTime::from_secs(5));
        assert_eq!(report.finish_times.len(), 3);
    }

    #[test]
    fn advance_to_moves_forward() {
        Engine::run(vec![|ctx: &mut ProcCtx| {
            ctx.advance_to(VTime::from_secs(2));
            assert_eq!(ctx.now(), VTime::from_secs(2));
        }]);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_to_rejects_past() {
        Engine::run(vec![|ctx: &mut ProcCtx| {
            ctx.advance(VTime::from_secs(2));
            ctx.advance_to(VTime::from_secs(1));
        }]);
    }
}
