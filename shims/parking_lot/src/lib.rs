//! Offline stand-in for the `parking_lot` API, backed by `std::sync`.
//!
//! The workspace builds in environments with no crates.io access, so the
//! small slice of `parking_lot` the simulation kernel uses (a `Mutex`
//! whose `lock()` cannot fail) is provided here over the
//! standard-library primitives. Poisoning is deliberately ignored: a
//! panicking simulation process already aborts the test, and the paper
//! reproduction's locks protect plain data, not invariants that survive
//! unwinding.
//!
//! The simulator itself runs on one thread and holds its shared state in
//! `Rc`, `Cell` and `RefCell` (DESIGN.md §13 "One thread, no atomics"),
//! so what still uses this `Mutex` is the engine's process-wide pool of
//! process stacks (`simcore/src/engine/stack.rs`) and the engine tests'
//! logs. Every crate keeps its `parking_lot` dependency line all the same:
//! the frozen `examples/benchmark/Cargo.lock` records each crate's
//! dependency list, and dropping a line would rewrite it.

use std::fmt;
use std::sync::{self, PoisonError};

/// A mutex whose `lock()` returns the guard directly (no `Result`).
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`]: the standard library's.
pub use std::sync::MutexGuard;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }
}
