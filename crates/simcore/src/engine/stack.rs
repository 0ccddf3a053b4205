//! Stackful processes: every `unsafe` of the engine lives here.
//!
//! A [`Fiber`] runs a closure on a stack of its own, on the thread that
//! resumes it. [`Fiber::resume`] switches from the caller's stack onto the
//! fiber's; [`suspend`], called on the fiber's stack, switches back, and
//! the next `resume` continues right after that call. A switch saves the
//! callee-saved registers of the x86_64 System V ABI — `rbx`, `rbp`,
//! `r12`–`r15`, MXCSR and the x87 control word — on the stack it leaves
//! and restores them from the one it enters; everything else a call may
//! clobber anyway. No kernel is involved, so a switch costs about as much
//! as a function call that misses a few cache lines.
//!
//! Stacks are 2 MiB, the default of a spawned Rust thread, each with a
//! `PROT_NONE` guard page below it: a runaway recursion faults there
//! instead of writing into a neighbour. They come from a process-wide
//! pool, so repeated runs neither map nor fault their stacks again.
//!
//! A fiber's body runs under `catch_unwind` inside the `extern "sysv64"`
//! entry, so no unwind ever reaches the trampoline below it. A fiber
//! dropped before it finished is resumed until it does: its pending
//! [`suspend`] panics "engine poisoned", and that panic unwinds its frames
//! (which may borrow the dropper's data) before the stack is reused.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "crates/simcore/src/engine/stack.rs: the engine's stack switch is written for x86_64 Linux only"
);

use parking_lot::Mutex;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::thread;

/// Usable bytes of one process stack: the default of a spawned thread.
const STACK_BYTES: usize = 2 << 20;
/// The guard page below it.
const PAGE: usize = 4096;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
}
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const MAP_FAILED: *mut u8 = !0 as *mut u8;

/// One mapped stack: the guard page at `base`, then `STACK_BYTES`.
struct Stack {
    base: NonNull<u8>,
}

// SAFETY: a `Stack` is the sole owner of its mapping; moving it to another
// thread (through the pool) moves that ownership, and no fiber runs on a
// stack that is in the pool.
unsafe impl Send for Stack {}

/// Stacks of finished fibers, kept mapped for the next run.
static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

impl Stack {
    fn take() -> Stack {
        if let Some(stack) = POOL.lock().pop() {
            return stack;
        }
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing; the `mprotect` covers its
        // first page, which this call owns.
        unsafe {
            let base = mmap(
                ptr::null_mut(),
                PAGE + STACK_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            assert!(base != MAP_FAILED, "mmap of a process stack failed");
            assert_eq!(
                mprotect(base, PAGE, PROT_NONE),
                0,
                "mprotect of a stack guard page failed"
            );
            Stack {
                base: NonNull::new(base).expect("mmap never maps page zero"),
            }
        }
    }

    /// One past the highest usable byte (16-byte aligned: it is page aligned).
    fn top(&self) -> *mut u8 {
        self.base.as_ptr().wrapping_add(PAGE + STACK_BYTES)
    }
}

/// What a fiber and its resumer share. Boxed by [`Fiber`], so its address
/// is fixed for the fiber's life; only ever touched through a raw pointer,
/// and never while the other side could be running.
struct Frame {
    /// The fiber's stack pointer while it is switched out.
    sp: *mut u8,
    /// The resumer's stack pointer while the fiber runs.
    back: *mut u8,
    /// The body until the fiber starts (its lifetime erased, see `Fiber::new`).
    body: Option<Box<dyn FnOnce()>>,
    /// The body's outcome, from when it returned or unwound until the
    /// resumer takes it.
    outcome: Option<thread::Result<()>>,
    /// Set by a drop of the unfinished fiber: its pending `suspend` panics.
    cancel: bool,
}

thread_local! {
    /// The frame of the fiber running on this thread; null on a thread's
    /// own stack.
    static CURRENT: Cell<*mut Frame> = const { Cell::new(ptr::null_mut()) };
}

/// A closure on a stack of its own, run in steps by [`Fiber::resume`].
/// Neither `Send` nor `Sync`: it runs on the thread that made it.
pub(super) struct Fiber<'a> {
    frame: NonNull<Frame>,
    stack: Option<Stack>,
    done: bool,
    _body: PhantomData<Box<dyn FnOnce() + 'a>>,
}

impl<'a> Fiber<'a> {
    pub(super) fn new(body: impl FnOnce() + 'a) -> Fiber<'a> {
        let body: Box<dyn FnOnce() + 'a> = Box::new(body);
        // SAFETY: only the lifetime changes. The body is run or dropped
        // before `'a` ends: `Drop` below finishes a started fiber and drops
        // the frame, and with it an unstarted body, and a `Fiber<'a>` cannot
        // outlive `'a`. (A leaked fiber never runs its body again.)
        let body: Box<dyn FnOnce()> = unsafe { std::mem::transmute(body) };
        let stack = Stack::take();
        let frame = NonNull::from(Box::leak(Box::new(Frame {
            sp: ptr::null_mut(),
            back: ptr::null_mut(),
            body: Some(body),
            outcome: None,
            cancel: false,
        })));
        // The first switch into the fiber pops what `switch` would have
        // saved: MXCSR and the x87 control word at their reset values,
        // r15, r14, r13, r12 (the frame), rbx, rbp, then returns into the
        // trampoline with the stack 16-byte aligned for its call.
        let initial: [usize; 8] = [
            0x1F80 | (0x037F << 32),
            0,
            0,
            0,
            frame.as_ptr() as usize,
            0,
            0,
            trampoline as *const () as usize,
        ];
        let sp = stack.top().wrapping_sub(16 + 8 * initial.len());
        // SAFETY: the eight words end 16 bytes below the top of a mapped,
        // writable stack that no one else uses, and `sp` is 8-aligned.
        unsafe {
            ptr::copy_nonoverlapping(initial.as_ptr(), sp.cast::<usize>(), initial.len());
            (*frame.as_ptr()).sp = sp;
        }
        Fiber {
            frame,
            stack: Some(stack),
            done: false,
            _body: PhantomData,
        }
    }

    /// Run the fiber until it calls [`suspend`] (`None`) or its body has
    /// returned or unwound (`Some` of that outcome; the fiber is finished
    /// and must not be resumed again).
    pub(super) fn resume(&mut self) -> Option<thread::Result<()>> {
        assert!(!self.done, "resumed a finished fiber");
        let frame = self.frame.as_ptr();
        let outer = CURRENT.replace(frame);
        // SAFETY: `frame` is live (owned by `self`), and `sp` is where the
        // fiber was set up or last switched out, on a stack `self` owns.
        // Nothing else touches the frame until the fiber switches back.
        let outcome = unsafe {
            switch(&raw mut (*frame).back, (*frame).sp);
            (*frame).outcome.take()
        };
        CURRENT.set(outer);
        self.done = outcome.is_some();
        outcome
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        // SAFETY: the frame is live until the `Box::from_raw` below; the
        // fiber is switched out, so nothing else touches it.
        let started = unsafe { (*self.frame.as_ptr()).body.is_none() };
        if started && !self.done {
            // SAFETY: as above.
            unsafe { (*self.frame.as_ptr()).cancel = true };
            while self.resume().is_none() {}
        }
        // SAFETY: the frame came from `Box::leak` in `new`, and the fiber
        // either never ran or has finished, so no stack refers to it.
        drop(unsafe { Box::from_raw(self.frame.as_ptr()) });
        POOL.lock()
            .push(self.stack.take().expect("a fiber owns its stack"));
    }
}

/// Switch the running fiber back to its resumer; returns when it is
/// resumed. Panics "engine poisoned" when that resume comes from a drop of
/// the unfinished fiber, and when no fiber is running on this thread.
pub(super) fn suspend() {
    let frame = CURRENT.get();
    assert!(!frame.is_null(), "suspend outside an engine process");
    // SAFETY: `CURRENT` is the frame of the fiber running on this stack,
    // set by its `resume`, which keeps it live until this switch returns.
    let cancel = unsafe {
        switch(&raw mut (*frame).sp, (*frame).back);
        (*frame).cancel
    };
    if cancel {
        panic!("engine poisoned: the run ended before this process finished");
    }
}

/// The first code a fiber runs (the trampoline calls it with the frame):
/// the body, then the last switch out. Owns nothing at that switch, so
/// nothing on the stack is left to drop.
extern "sysv64" fn entry(frame: *mut Frame) -> ! {
    // SAFETY: the frame is live while the fiber runs (see `resume`).
    let body = unsafe { (*frame).body.take() }.expect("a fiber starts once");
    let outcome = panic::catch_unwind(AssertUnwindSafe(body));
    // SAFETY: as above; the resumer never switches back in once it has
    // taken the outcome, so the `sp` written here is never used.
    unsafe {
        (*frame).outcome = Some(outcome);
        switch(&raw mut (*frame).sp, (*frame).back);
    }
    unreachable!("a finished fiber was resumed");
}

/// Reached by the first switch into a fiber, with the frame in `r12`. Its
/// call frame information marks the return address undefined, which ends
/// every backtrace and unwind here.
///
/// # Safety
///
/// Never called: only `switch` enters it, by returning into the initial
/// stack `Fiber::new` laid out.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        ".cfi_endproc",
        entry = sym entry,
    )
}

/// Save the callee-saved state on the current stack and its stack pointer
/// in `*save`, then switch to `to` and restore the state saved there.
///
/// # Safety
///
/// `save` must be writable, and `to` must be a stack pointer saved by this
/// function (or laid out like it by `Fiber::new`) on a stack that is still
/// mapped and not running.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}
