//! Conservative virtual-time process scheduler.
//!
//! Each simulated process (an MPI rank, a benefactor, a STREAM thread) runs
//! on its own stack and holds a *baton*: exactly one process executes
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
//! # Switch protocol
//!
//! Every process runs on a stack of its own ([`stack`]) on the thread that
//! called [`Engine::run`], and that thread's own stack runs the scheduler:
//! one loop that claims the ready set's head, records it as
//! [`current_proc`] and switches onto its stack. The process runs until it
//! gives the baton up — a `yield_until_min` that finds someone strictly
//! behind it, a `suspend_self`, or the end of its body — and switches
//! back; the loop claims the next head. A hand-off is thus two stack
//! switches and two ready-set operations, with no lock, no futex and no
//! kernel. The schedule is the ready set's order, `(clock, id)`, alone.
//!
//! `resume_other` wakes nobody: it only puts the resumee into the ready
//! set, where a later claim of the loop reaches it. When the loop finds
//! nothing ready while a process is still suspended, nothing could ever run
//! again: that is a deadlock. After a deadlock, or after a body panicked,
//! the loop resumes every unfinished process once, whose pending yield or
//! suspend panics "engine poisoned" and unwinds its frames, and only then
//! does `Engine::run` panic with the deadlock or re-raise the body's
//! payload: no path out of `Engine::run` leaves a live frame on a process
//! stack, since bodies borrow the caller's data.

mod stack;

use crate::time::VTime;
use stack::Fiber;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Identifies a process within one [`Engine`] run.
pub type ProcId = usize;

thread_local! {
    static CURRENT: Cell<Option<ProcId>> = const { Cell::new(None) };
}

/// The engine process running on this thread: `Some` inside a process
/// body (of the innermost [`Engine::run`], when runs nest), `None` outside
/// every run.
pub fn current_proc() -> Option<ProcId> {
    CURRENT.get()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Eligible to run at this clock.
    Ready(VTime),
    /// Currently holds the baton; the clock is the one it was granted at
    /// (a resumer may have advanced it while the process was suspended).
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
    /// per-yield hot path. `states` stays the source of truth; every Ready
    /// transition updates both.
    ready: BTreeSet<(VTime, ProcId)>,
    switches: u64,
}

impl Sched {
    /// Flip `id` (not currently Ready) to Ready at `t`.
    fn make_ready(&mut self, id: ProcId, t: VTime) {
        self.states[id] = State::Ready(t);
        let inserted = self.ready.insert((t, id));
        debug_assert!(inserted, "process {id} was already in the ready set");
    }

    /// Flip the ready set's head to Running and return it, if anything is
    /// ready.
    fn claim_head(&mut self) -> Option<ProcId> {
        let (t, id) = self.ready.pop_first()?;
        self.states[id] = State::Running(t);
        self.switches += 1;
        Some(id)
    }

    /// The clock `id` was granted at by the claim that is running it.
    fn granted(&self, id: ProcId) -> VTime {
        match self.states[id] {
            State::Running(t) => {
                debug_assert!(self.min_active_clock_excluding(id, t).is_none());
                t
            }
            s => unreachable!("running process {id} is {s:?}"),
        }
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
}

/// Per-process handle passed to a process body; all virtual-time operations
/// go through it.
pub struct ProcCtx {
    id: ProcId,
    clock: VTime,
    sched: Rc<RefCell<Sched>>,
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
    /// state, so this never yields and never looks at the scheduler; the
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
        {
            let mut sched = self.sched.borrow_mut();
            if sched
                .min_active_clock_excluding(self.id, self.clock)
                .is_none()
            {
                return; // we are the minimum; keep the baton
            }
            // Someone is strictly behind us: hand over. The loop claims
            // the ready set's head, so we come back as the minimum and
            // need not look again.
            sched.make_ready(self.id, self.clock);
        }
        self.hand_off();
    }

    /// Suspend this process; returns once another process calls
    /// [`ProcCtx::resume_other`] for it, with the clock set by the resumer.
    pub fn suspend_self(&mut self) {
        self.sched.borrow_mut().states[self.id] = State::Suspended(self.clock);
        // Our resumer stores the release clock in our state when it flips
        // us to Ready; the claim carries it over.
        self.hand_off();
    }

    /// Switch back to the scheduler loop (the state says why); returns
    /// when a claim runs this process again, at the clock it was granted.
    fn hand_off(&mut self) {
        stack::suspend();
        self.clock = self.sched.borrow().granted(self.id);
    }

    /// Make a suspended process ready again at virtual time `at`.
    ///
    /// `at` must be at or after the resumee's suspension time, and the
    /// caller should itself hold the minimum clock (it just resolved a
    /// shared rendezvous), which keeps virtual time causal.
    pub fn resume_other(&self, other: ProcId, at: VTime) {
        assert_ne!(other, self.id, "use advance_to for the current process");
        let mut sched = self.sched.borrow_mut();
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
        // No switch: we still hold the baton; a later claim reaches it.
    }
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
}

/// Keep the process's freed heap memory in the heap instead of giving it
/// back to the kernel.
///
/// Trimming the heap top gave a repetition's freed store back to the
/// kernel for the next one to fault in again, and how much it gave back
/// depended on where a few long-lived blocks happened to sit, so a
/// process's peak resident set moved from one run of the same binary to
/// the next. Setting the trim threshold also stops glibc from raising the
/// mmap threshold (128 KiB in a fresh process) as large mapped blocks are
/// freed. Every engine process allocates on the thread that called
/// `Engine::run`, so a run needs no arena setting to stay in one heap.
///
/// Called by every `Engine::run`, acts once per OS process.
fn one_kept_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            const M_TRIM_THRESHOLD: i32 = -1;
            // SAFETY: `mallopt` takes two plain integers and only sets
            // allocator parameters; glibc serialises it against malloc.
            unsafe {
                mallopt(M_TRIM_THRESHOLD, i32::MAX);
            }
        });
    }
}

/// Hands a run's processes a cache of freed blocks of their own, as the
/// threads of their own they once ran on had.
///
/// glibc keeps a per-thread cache of recently freed small blocks (its
/// tcache: up to 7 blocks of each 16-byte size class up to 1 032 bytes),
/// which the heap counts as in use. On threads of their own, processes
/// started with an empty cache and gave its blocks back to the heap when
/// their threads exited. On the caller's thread a run would instead start
/// by reusing the blocks the caller freed last, and end by leaving its own
/// last blocks in the caller's cache for good: in-use blocks scattered
/// through the kept heap that stop their freed neighbours from merging,
/// so later set-ups grow the heap or map fresh memory — `ckpt_resilient`'s
/// peak RSS went 186.8 → 210–219 MiB and `seq_stream`'s minor faults
/// doubled. `take` allocates 7 blocks of each class, which empties the
/// cache into blocks held for the run; `give_back` does the same to what
/// the run left there, then frees the held blocks, which refill the cache
/// as the caller had it, and the run's last, which find the cache full
/// and go back to the heap. Plain `Vec` allocations do it; under another
/// allocator it is a thousand allocations to no effect.
struct CacheSwap {
    _blocks: Vec<Vec<u8>>,
}

impl CacheSwap {
    fn take() -> CacheSwap {
        const CLASSES: usize = 64;
        const PER_CLASS: usize = 7;
        CacheSwap {
            _blocks: (0..CLASSES * PER_CLASS)
                .map(|i| Vec::with_capacity(24 + 16 * (i / PER_CLASS)))
                .collect(),
        }
    }

    fn give_back(self) {
        let runs_last = CacheSwap::take();
        drop(self);
        drop(runs_last);
    }
}

/// Sets [`current_proc`] back to what it was when a run started, on the
/// way out of that run whether it returns or unwinds.
struct RestoreCurrent(Option<ProcId>);

impl Drop for RestoreCurrent {
    fn drop(&mut self) {
        CURRENT.set(self.0);
    }
}

/// The simulation engine. Construct process bodies, run them to completion
/// in deterministic virtual-time order, and collect per-process times.
pub struct Engine;

impl Engine {
    /// Run `bodies` as simulated processes starting at virtual time zero.
    ///
    /// Bodies run on the calling thread, each on a stack of its own, and
    /// may borrow from the caller's stack. The call returns when every
    /// process body has returned. A panic in any body, or a deadlock,
    /// reaches the caller after every other body has been unwound.
    pub fn run<'env, F>(bodies: Vec<F>) -> EngineReport
    where
        F: FnOnce(&mut ProcCtx) + 'env,
    {
        let n = bodies.len();
        assert!(n > 0, "engine needs at least one process");
        one_kept_heap();
        let sched = Rc::new(RefCell::new(Sched {
            states: vec![State::Ready(VTime::ZERO); n],
            ready: (0..n).map(|id| (VTime::ZERO, id)).collect(),
            switches: 0,
        }));
        let _restore = RestoreCurrent(current_proc());
        let callers_cache = CacheSwap::take();
        let mut fibers: Vec<Fiber> = bodies
            .into_iter()
            .enumerate()
            .map(|(id, body)| {
                let sched = Rc::clone(&sched);
                Fiber::new(move || {
                    let clock = sched.borrow().granted(id);
                    let mut ctx = ProcCtx { id, clock, sched };
                    body(&mut ctx);
                    ctx.sched.borrow_mut().states[id] = State::Done(ctx.clock);
                })
            })
            .collect();

        let mut panicked = None;
        loop {
            let Some(id) = sched.borrow_mut().claim_head() else {
                break;
            };
            CURRENT.set(Some(id));
            if let Some(Err(payload)) = fibers[id].resume() {
                panicked = Some(payload);
                break;
            }
        }
        let deadlock = panicked.is_none()
            && sched
                .borrow()
                .states
                .iter()
                .any(|s| !matches!(s, State::Done(_)));
        // Unwind every unfinished body before anything reaches the caller:
        // dropping an unfinished fiber resumes it into an "engine
        // poisoned" panic.
        for (id, fiber) in fibers.into_iter().enumerate() {
            CURRENT.set(Some(id));
            drop(fiber);
        }
        callers_cache.give_back();
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        assert!(
            !deadlock,
            "virtual-time deadlock: every unfinished process is suspended \
             (unmatched collective or rendezvous?)"
        );

        let sched = sched.borrow();
        let finish_times: Vec<VTime> = sched
            .states
            .iter()
            .map(|s| match s {
                State::Done(t) => *t,
                other => unreachable!("process did not finish: {other:?}"),
            })
            .collect();
        let makespan = finish_times.iter().copied().max().unwrap_or(VTime::ZERO);
        EngineReport {
            makespan,
            context_switches: sched.switches,
            finish_times,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let log = RefCell::new(Vec::new());
        let mk = |id: usize, start: u64| {
            let log = &log;
            move |ctx: &mut ProcCtx| {
                ctx.advance(VTime::from_nanos(start));
                for _ in 0..50 {
                    ctx.yield_until_min();
                    log.borrow_mut().push((id, ctx.now()));
                    ctx.advance(VTime::from_nanos(10));
                }
            }
        };
        Engine::run(vec![mk(0, 0), mk(1, 5)]);
        let log = log.into_inner();
        assert_eq!(log.len(), 100);
        let mut sorted = log.clone();
        sorted.sort_by_key(|&(id, t)| (t, id));
        assert_eq!(log, sorted, "shared accesses must occur in vtime order");
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let log = RefCell::new(Vec::new());
            let mk = |id: usize, step: u64| {
                let log = &log;
                move |ctx: &mut ProcCtx| {
                    for _ in 0..20 {
                        ctx.yield_until_min();
                        log.borrow_mut().push(id);
                        ctx.advance(VTime::from_nanos(step));
                    }
                }
            };
            Engine::run(vec![mk(0, 7), mk(1, 11), mk(2, 13)]);
            log.into_inner()
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
            }) as Box<dyn FnOnce(&mut ProcCtx)>,
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
            Box::new(|ctx: &mut ProcCtx| ctx.suspend_self()) as Box<dyn FnOnce(&mut ProcCtx)>,
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
                Box::new(|ctx: &mut ProcCtx| ctx.suspend_self()) as Box<dyn FnOnce(&mut ProcCtx)>,
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
        struct Exit<'a>(&'a Cell<usize>);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let outcome = within(60, || {
            let unwound = Cell::new(0);
            let bodies = (0..N)
                .map(|id| {
                    let exit = Exit(&unwound);
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
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Engine::run(bodies);
            }));
            (caught, unwound.get())
        })
        .expect("the run's panic is caught inside");
        let (caught, unwound) = outcome;
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"process 0 exploded"));
        assert_eq!(unwound, N);
    }

    #[test]
    fn run_releases_its_scheduler() {
        thread_local! {
            static SLOT: std::cell::RefCell<Option<std::rc::Weak<RefCell<Sched>>>> =
                const { std::cell::RefCell::new(None) };
        }
        Engine::run(vec![
            Box::new(|ctx: &mut ProcCtx| {
                // Bodies run on this thread, so its thread-locals are theirs.
                SLOT.set(Some(Rc::downgrade(&ctx.sched)));
                ctx.yield_until_min();
            }) as Box<dyn FnOnce(&mut ProcCtx)>,
            Box::new(|ctx: &mut ProcCtx| ctx.suspend_self()),
            Box::new(|ctx: &mut ProcCtx| {
                ctx.yield_until_min();
                ctx.resume_other(1, ctx.now());
            }),
        ]);
        let weak = SLOT.take().expect("body ran");
        assert!(weak.upgrade().is_none(), "Engine::run leaked its scheduler");
    }

    #[test]
    fn deadlock_reaches_the_caller_after_every_body_dropped() {
        const N: usize = 64;
        struct Exit<'a>(&'a Cell<usize>);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let outcome = within(60, || {
            let dropped = Cell::new(0);
            let bodies = (0..N)
                .map(|_| {
                    let exit = Exit(&dropped);
                    move |ctx: &mut ProcCtx| {
                        let _exit = exit;
                        ctx.suspend_self();
                        unreachable!("nobody resumes a process here");
                    }
                })
                .collect();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Engine::run(bodies);
            }));
            // Read when the panic reaches the caller: an `Exit` borrows
            // `dropped`, so none can be dropped later.
            (caught, dropped.get())
        })
        .expect("the run's panic is caught inside");
        let (caught, dropped_at_catch) = outcome;
        let payload = caught.expect_err("every process suspended is a deadlock");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("deadlock"), "{msg:?}");
        assert_eq!(dropped_at_catch, N);
    }

    #[test]
    fn nested_run_restores_the_current_process() {
        assert_eq!(current_proc(), None);
        let inner_order = RefCell::new(Vec::new());
        let log = &inner_order;
        Engine::run(vec![
            Box::new(|ctx: &mut ProcCtx| {
                assert_eq!(current_proc(), Some(0));
                ctx.advance(VTime::from_nanos(5));
                ctx.yield_until_min();
                assert_eq!(current_proc(), Some(0));
            }) as Box<dyn FnOnce(&mut ProcCtx) + '_>,
            Box::new(|ctx: &mut ProcCtx| ctx.advance(VTime::from_nanos(1))),
            Box::new(move |ctx: &mut ProcCtx| {
                ctx.advance(VTime::from_nanos(2));
                ctx.yield_until_min();
                let report = Engine::run(
                    (0..2)
                        .map(|id| {
                            move |inner: &mut ProcCtx| {
                                for step in 0..3 {
                                    inner.advance(VTime::from_nanos(1 + id as u64));
                                    inner.yield_until_min();
                                    assert_eq!(current_proc(), Some(id), "step {step}");
                                    log.borrow_mut().push(id);
                                }
                            }
                        })
                        .collect(),
                );
                assert!(report.context_switches > 2, "{report:?}");
                assert_eq!(current_proc(), Some(2));
                ctx.advance(VTime::from_nanos(10));
                ctx.yield_until_min();
                assert_eq!(current_proc(), Some(2));
            }),
        ]);
        assert_eq!(current_proc(), None);
        assert_eq!(inner_order.into_inner(), vec![0, 0, 1, 0, 1, 1]);
    }

    /// Recurses into the middle of the page below its 2 MiB process stack,
    /// then returns; run only by `guard_page_stops_a_runaway_process`, in a
    /// child process. With that page a guard, the child dies by SIGSEGV;
    /// were it ordinary memory, the child would exit 0.
    #[test]
    #[ignore = "dies by SIGSEGV; run in a child by guard_page_stops_a_runaway_process"]
    fn runaway_recursion_on_a_process_stack() {
        fn deeper(floor: usize) -> usize {
            let frame = std::hint::black_box([0u8; 256]);
            let here = frame.as_ptr() as usize;
            if here < floor {
                return here;
            }
            deeper(floor) + usize::from(frame[1])
        }
        Engine::run(vec![|_: &mut ProcCtx| {
            // A process's first frames take about 1 KiB, so its stack ends
            // at the end of this page; the guard page is 2 MiB below that.
            let first = std::hint::black_box([0u8; 1]);
            let top = (first.as_ptr() as usize | 4095) + 1;
            std::hint::black_box(deeper(top - (2 << 20) - 2048));
        }]);
    }

    #[test]
    fn guard_page_stops_a_runaway_process() {
        use std::os::unix::process::ExitStatusExt;
        const SIGSEGV: i32 = 11;
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--ignored",
                "--exact",
                "engine::tests::runaway_recursion_on_a_process_stack",
            ])
            .output()
            .expect("re-run the test binary");
        assert_eq!(
            out.status.signal(),
            Some(SIGSEGV),
            "{:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
    }

    #[test]
    #[should_panic]
    fn panic_in_body_propagates_without_hanging() {
        Engine::run(vec![
            Box::new(|ctx: &mut ProcCtx| {
                ctx.advance(VTime::from_secs(1));
                ctx.yield_until_min();
                panic!("worker exploded");
            }) as Box<dyn FnOnce(&mut ProcCtx)>,
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
        let log = RefCell::new(Vec::new());
        let mk = |id: usize| {
            let log = &log;
            move |ctx: &mut ProcCtx| {
                ctx.yield_until_min();
                log.borrow_mut().push(id);
            }
        };
        // All at clock 0: must run 0, 1, 2.
        Engine::run(vec![mk(0), mk(1), mk(2)]);
        assert_eq!(log.into_inner(), vec![0, 1, 2]);
    }

    #[test]
    fn makespan_is_max_finish() {
        let report = Engine::run(vec![
            Box::new(|ctx: &mut ProcCtx| ctx.advance(VTime::from_secs(1)))
                as Box<dyn FnOnce(&mut ProcCtx)>,
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
