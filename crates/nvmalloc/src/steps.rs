//! `Steps` — the one place `nvmalloc` waits for its turn on the shared
//! store (DESIGN.md §4b): yield until this process holds the minimum
//! clock, run the step's store calls, advance the clock to their
//! completion. Element accesses, strided reads, flushes, namespace calls
//! and the bulk restart path all take their store calls through it.

use chunkstore::Result;
use simcore::{ProcCtx, VTime};

/// A chain of store calls whose next link starts where the previous one
/// completed.
pub(crate) struct Steps<'a> {
    ctx: &'a mut ProcCtx,
    /// Where the chain stands: the caller's clock, or ahead of it when the
    /// caller does not wait.
    pub(crate) t: VTime,
    /// Advance the caller's clock with the chain. Off for a background
    /// drain only: it books its resources from the caller's present and
    /// later yields change nothing, the daemon convention of DESIGN.md §4b.
    wait: bool,
    /// Steps taken (a span argument).
    pub(crate) taken: u64,
}

impl<'a> Steps<'a> {
    pub(crate) fn new(ctx: &'a mut ProcCtx, wait: bool) -> Self {
        let t = ctx.now();
        Steps {
            ctx,
            t,
            wait,
            taken: 0,
        }
    }

    /// Run `step` from where the chain stands, once this process holds the
    /// minimum clock; `step` returns its completion time and a result.
    pub(crate) fn step<R>(&mut self, step: impl FnOnce(VTime) -> Result<(VTime, R)>) -> Result<R> {
        self.ctx.yield_until_min();
        self.taken += 1;
        self.then(step)
    }

    /// Continue the step just taken with `more`, without yielding again: a
    /// short metadata call rides with the transfer next to it.
    pub(crate) fn then<R>(&mut self, more: impl FnOnce(VTime) -> Result<(VTime, R)>) -> Result<R> {
        let (t, out) = more(self.t)?;
        self.t = t;
        if self.wait {
            self.ctx.advance_to(t);
        }
        Ok(out)
    }
}
