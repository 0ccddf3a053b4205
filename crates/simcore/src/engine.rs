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
//! its own grant flag (an `AtomicBool` only that process ever clears) and
//! its host thread's handle. A hand-off is one critical section on the
//! yielding side: publish the new state, then `Shared::dispatch` claims
//! the ready set's head and sets its grant flag. Only after dropping the
//! guard does `dispatch` `unpark` that one thread; the yielder then parks
//! itself outside the lock until its own flag is set. The woken
//! process finds the lock free, so a hand-off costs one futex wake and
//! one futex sleep however many processes exist; a wake issued while the
//! lock is held would put the woken thread to sleep again on the mutex
//! until its waker let go. The wake cannot be lost: the flag
//! is set before the `unpark`, and a thread's park token outlives an
//! `unpark` that arrives before the `park` — the grantee finds the flag
//! already set or returns from `park` at once. A `park` that returns
//! without a grant (a stale token) re-checks the scheduler invariant below
//! under the lock and parks again.
//!
//! `resume_other` wakes nobody. Invariant: *whenever the ready set is
//! non-empty, some process is `Running`.* Only the baton holder can make
//! another process `Ready`, and every path that gives the baton up (yield,
//! suspend, finish) goes through `dispatch`, which claims the ready set's
//! head — so the resumee is reached by a later `dispatch` and needs no
//! wake of its own. When a `dispatch` finds nothing ready while a process
//! is still suspended nothing could ever run again: that is a deadlock,
//! reported by a panic. Only a panicking process wakes more than one
//! thread: it raises the poison flag and unparks every thread, so that no
//! peer stays asleep.

use crate::time::VTime;
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

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
    /// Thread wakes issued for `dispatch`'s claims (one per claim).
    wakeups: u64,
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
    /// One grant flag per process, indexed by `ProcId`: set by the
    /// `dispatch` that claims the process, cleared by its own
    /// `wait_for_baton`.
    grants: Vec<AtomicBool>,
    /// Every process's host thread, indexed by `ProcId`; published before
    /// the kick-off dispatch, so every wake finds it.
    threads: OnceLock<Vec<Thread>>,
    /// Raised by a panicking process; every waiter then unwinds.
    poisoned: AtomicBool,
}

impl Shared {
    /// Give the baton up (caller must NOT be Running): claim the best
    /// ready process and set its grant flag under the lock, release the
    /// lock, then wake that one thread. Nothing ready with a process still
    /// suspended means nothing can ever run again: panic, which poisons
    /// the engine.
    fn dispatch(&self, mut sched: MutexGuard<'_, Sched>) {
        sched.running = None;
        let Some((next, t)) = sched.min_ready() else {
            assert!(
                !sched.any_suspended(),
                "virtual-time deadlock: every unfinished process is suspended \
                 (unmatched collective or rendezvous?)"
            );
            return;
        };
        sched.claim(next, t);
        sched.wakeups += 1;
        self.grants[next].store(true, Ordering::Release);
        drop(sched);
        self.threads()[next].unpark();
    }

    fn threads(&self) -> &[Thread] {
        self.threads
            .get()
            .expect("threads are published before kick-off")
    }

    fn check_poison(&self) {
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "engine poisoned by a panicking process"
        );
    }

    /// Park until a `dispatch` has granted `id` the baton; returns the
    /// clock it was granted at.
    fn wait_for_baton(&self, id: ProcId) -> VTime {
        loop {
            self.check_poison();
            if self.grants[id].swap(false, Ordering::Acquire) {
                break;
            }
            std::thread::park();
            if !self.grants[id].load(Ordering::Acquire) {
                let sched = self.sched.lock();
                assert!(
                    sched.running.is_some() || sched.ready.is_empty(),
                    "lost wake-up: processes are ready but nobody holds the baton"
                );
            }
        }
        let sched = self.sched.lock();
        match sched.states[id] {
            State::Running(t) => {
                debug_assert!(sched.min_active_clock_excluding(id, t).is_none());
                t
            }
            s => unreachable!("granted process {id} is {s:?}"),
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
        self.shared.check_poison();
        let mut sched = self.shared.sched.lock();
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
        self.shared.dispatch(sched);
        self.clock = self.shared.wait_for_baton(self.id);
    }

    /// Park this process; returns once another process calls
    /// [`ProcCtx::resume_other`] for it, with the clock set by the resumer.
    pub fn suspend_self(&mut self) {
        let mut sched = self.shared.sched.lock();
        sched.states[self.id] = State::Suspended(self.clock);
        self.shared.dispatch(sched);
        // Our resumer stores the release clock in our state when it flips
        // us to Ready; the claim carries it over.
        self.clock = self.shared.wait_for_baton(self.id);
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
        self.shared.dispatch(sched);
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

/// Give the process one glibc heap that it keeps: every thread allocates
/// from the main arena, and freed memory stays in the heap instead of
/// going back to the kernel.
///
/// glibc gives each new thread an arena of its own so that threads
/// running at once do not contend on one heap lock. Engine threads never
/// run at once, and which process landed in which arena followed the
/// order in which the OS happened to start and retire the previous run's
/// threads, so a repetition's blocks could land in an arena that did not
/// yet have room for them: a process's peak resident set ratcheted up by
/// arena-sized steps, a different number of them from one run of the
/// same binary to the next. In one arena it follows the simulated
/// allocation order. Trimming the heap top, in turn, gave a repetition's
/// freed store back to the kernel for the next one to fault in again,
/// and how much it gave back depended on where a few long-lived blocks
/// happened to sit. Setting the trim threshold also stops glibc from
/// raising the mmap threshold (128 KiB in a fresh process) as large
/// mapped blocks are freed.
///
/// Called by every `Engine::run`, acts once per OS process, and reaches
/// every thread that allocates for the first time after it: all engine
/// threads.
fn one_kept_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            const M_TRIM_THRESHOLD: i32 = -1;
            const M_ARENA_MAX: i32 = -8;
            // SAFETY: `mallopt` takes two plain integers and only sets
            // allocator parameters; glibc serialises it against malloc.
            unsafe {
                mallopt(M_ARENA_MAX, 1);
                mallopt(M_TRIM_THRESHOLD, i32::MAX);
            }
        });
    }
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
        one_kept_heap();
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                states: vec![State::Ready(VTime::ZERO); n],
                ready: (0..n).map(|id| (VTime::ZERO, id)).collect(),
                running: None,
                switches: 0,
                wakeups: 0,
            }),
            grants: (0..n).map(|_| AtomicBool::new(false)).collect(),
            threads: OnceLock::new(),
            poisoned: AtomicBool::new(false),
        });

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (id, body) in bodies.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                let observer = observer.clone();
                handles.push(scope.spawn(move || {
                    let mut ctx = ProcCtx {
                        id,
                        clock: VTime::ZERO,
                        shared: Arc::clone(&shared),
                    };
                    // Wait for the baton before the first action.
                    ctx.clock = shared.wait_for_baton(id);
                    let guard = PoisonGuard(&shared);
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
            // Kick off once every thread can be woken: lowest id runs first.
            let threads = handles.iter().map(|h| h.thread().clone()).collect();
            shared
                .threads
                .set(threads)
                .expect("threads are published once");
            shared.dispatch(shared.sched.lock());
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
/// return path; it borrows the `Arc` its thread's closure owns, so
/// forgetting it keeps nothing alive.
struct PoisonGuard<'a>(&'a Shared);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        self.0.poisoned.store(true, Ordering::Release);
        self.0.threads().iter().for_each(Thread::unpark);
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

    /// Run `f` on a helper thread and wait at most `secs` for it, so that a
    /// hung engine is a failing test here, not a stuck test binary.
    fn within<R: Send + 'static>(
        secs: u64,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> std::thread::Result<R> {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(outcome);
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(secs))
            .expect("engine hung");
        helper.join().unwrap();
        outcome
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn finish_with_suspended_peer_is_deadlock() {
        // The last runnable process finishes while its peer is still
        // suspended.
        let outcome = within(10, || {
            Engine::run(vec![
                Box::new(|ctx: &mut ProcCtx| ctx.suspend_self())
                    as Box<dyn FnOnce(&mut ProcCtx) + Send>,
                Box::new(|ctx: &mut ProcCtx| ctx.advance(VTime::from_secs(1))),
            ])
        });
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn ping_pong_survives_grants_issued_before_park() {
        // Two processes a nanosecond apart hand the baton back and forth
        // 100 000 times. The grantee is often still on its way to `park`
        // when its grant and its unpark arrive.
        const ROUNDS: u64 = 50_000;
        let report = within(120, || {
            let mk = |start: u64| {
                move |ctx: &mut ProcCtx| {
                    ctx.advance(VTime::from_nanos(start));
                    for _ in 0..ROUNDS {
                        ctx.advance(VTime::from_nanos(2));
                        ctx.yield_until_min();
                    }
                }
            };
            Engine::run(vec![mk(0), mk(1)])
        })
        .expect("ping-pong panicked");
        assert!(report.context_switches >= 2 * ROUNDS, "{report:?}");
        assert_eq!(
            report.finish_times,
            vec![
                VTime::from_nanos(2 * ROUNDS),
                VTime::from_nanos(2 * ROUNDS + 1)
            ]
        );
    }

    #[test]
    fn panic_with_127_parked_peers_unwinds_every_thread() {
        // Odd processes suspend for good, even ones park Ready at 2 s, and
        // process 0 panics at 1 s: every peer must unwind, and the caller
        // must see process 0's payload, not a bystander's "poisoned".
        const N: usize = 128;
        let unwound = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&unwound);
        let outcome = within(60, move || {
            struct Exit(Arc<std::sync::atomic::AtomicUsize>);
            impl Drop for Exit {
                fn drop(&mut self) {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
            let bodies = (0..N)
                .map(|id| {
                    let exit = Exit(Arc::clone(&counter));
                    move |ctx: &mut ProcCtx| {
                        let _exit = exit;
                        if id == 0 {
                            ctx.advance(VTime::from_secs(1));
                            ctx.yield_until_min();
                            panic!("process 0 exploded");
                        } else if id % 2 == 1 {
                            ctx.suspend_self();
                        } else {
                            ctx.advance(VTime::from_secs(2));
                            ctx.yield_until_min();
                        }
                        unreachable!("process {id} ran past the panic");
                    }
                })
                .collect();
            Engine::run(bodies)
        });
        let payload = outcome.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"process 0 exploded"));
        assert_eq!(unwound.load(Ordering::Relaxed), N);
    }

    #[test]
    fn run_releases_its_scheduler() {
        let shared: Arc<PMutex<Option<std::sync::Weak<Shared>>>> = Arc::default();
        let slot = Arc::clone(&shared);
        Engine::run(vec![
            Box::new(move |ctx: &mut ProcCtx| {
                *slot.lock() = Some(Arc::downgrade(&ctx.shared));
                ctx.yield_until_min();
            }) as Box<dyn FnOnce(&mut ProcCtx) + Send>,
            Box::new(|ctx: &mut ProcCtx| ctx.suspend_self()),
            Box::new(|ctx: &mut ProcCtx| {
                ctx.yield_until_min();
                ctx.resume_other(1, ctx.now());
            }),
        ]);
        let weak = shared.lock().take().expect("body ran");
        assert!(weak.upgrade().is_none(), "Engine::run leaked its scheduler");
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
