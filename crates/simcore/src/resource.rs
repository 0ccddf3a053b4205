//! Shared, serially-reusable resources (a device, a link direction, a
//! bus) modelled as FIFO servers.
//!
//! A `Resource` owns a single piece of state: the virtual time at which it
//! next becomes free. A request arriving at `t_req` that keeps the resource
//! busy for `busy` is served over `[max(t_req, next_free), max(..)+busy)`.
//! Because the simulation engine runs processes in virtual-time order (see
//! [`crate::engine`]), requests reach a resource in non-decreasing request
//! time and this single register reproduces FIFO queueing exactly.

use crate::time::{Bandwidth, VTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Result of occupying a resource: when service began and ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    pub start: VTime,
    pub end: VTime,
}

impl Grant {
    /// How long the request waited in the queue before service.
    pub fn queued(&self, requested_at: VTime) -> VTime {
        self.start.saturating_sub(requested_at)
    }
}

#[derive(Debug, Default)]
struct ResourceState {
    next_free: VTime,
    busy_total: VTime,
    queued_total: VTime,
    grants: u64,
}

/// A FIFO-queued shared resource.
///
/// Cloning shares the underlying queue (it is an `Rc` internally), so a
/// device handed to several simulated processes contends correctly.
#[derive(Clone, Debug)]
pub struct Resource {
    name: Rc<str>,
    state: Rc<RefCell<ResourceState>>,
}

impl Resource {
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: Rc::from(name.into().into_boxed_str()),
            state: Rc::new(RefCell::new(ResourceState::default())),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Occupy the resource for `busy` starting no earlier than `t_req`.
    pub fn acquire_at(&self, t_req: VTime, busy: VTime) -> Grant {
        let mut s = self.state.borrow_mut();
        let start = t_req.max(s.next_free);
        let end = start + busy;
        s.next_free = end;
        s.busy_total += busy;
        s.queued_total += start.saturating_sub(t_req);
        s.grants += 1;
        Grant { start, end }
    }

    /// Occupy the resource to transfer `bytes` at `rate`, plus a fixed
    /// per-request `latency` that is part of the busy period (the device
    /// cannot serve others while seeking / during the access latency).
    pub fn transfer_at(&self, t_req: VTime, bytes: u64, rate: Bandwidth, latency: VTime) -> Grant {
        self.acquire_at(t_req, latency + rate.time_for(bytes))
    }

    /// Virtual time at which the resource next becomes idle.
    pub fn next_free(&self) -> VTime {
        self.state.borrow().next_free
    }

    /// Total busy time accumulated (for utilization reports).
    pub fn busy_total(&self) -> VTime {
        self.state.borrow().busy_total
    }

    /// Total time requests spent queued before service (for mean queue
    /// delay reports: divide by [`Resource::grants`]).
    pub fn queued_total(&self) -> VTime {
        self.state.borrow().queued_total
    }

    /// Number of grants served.
    pub fn grants(&self) -> u64 {
        self.state.borrow().grants
    }

    /// Forget all queueing history (used between benchmark repetitions).
    pub fn reset(&self) {
        *self.state.borrow_mut() = ResourceState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_fifo_and_back_to_back() {
        let r = Resource::new("dev");
        let g1 = r.acquire_at(VTime::from_secs(1), VTime::from_secs(2));
        assert_eq!(g1.start, VTime::from_secs(1));
        assert_eq!(g1.end, VTime::from_secs(3));

        // Arrives while busy: queued until g1 ends.
        let g2 = r.acquire_at(VTime::from_secs(2), VTime::from_secs(1));
        assert_eq!(g2.start, VTime::from_secs(3));
        assert_eq!(g2.end, VTime::from_secs(4));
        assert_eq!(g2.queued(VTime::from_secs(2)), VTime::from_secs(1));

        // Arrives after idle: starts immediately.
        let g3 = r.acquire_at(VTime::from_secs(10), VTime::from_secs(1));
        assert_eq!(g3.start, VTime::from_secs(10));
        assert_eq!(g3.queued(VTime::from_secs(10)), VTime::ZERO);
    }

    #[test]
    fn transfer_includes_latency_and_bandwidth() {
        let r = Resource::new("ssd");
        let g = r.transfer_at(
            VTime::ZERO,
            250_000_000,
            Bandwidth::mb_per_sec(250.0),
            VTime::from_micros(75),
        );
        assert_eq!(g.end, VTime::from_secs(1) + VTime::from_micros(75));
    }

    #[test]
    fn utilization_accounting() {
        let r = Resource::new("dev");
        r.acquire_at(VTime::ZERO, VTime::from_secs(1));
        r.acquire_at(VTime::ZERO, VTime::from_secs(2));
        assert_eq!(r.busy_total(), VTime::from_secs(3));
        assert_eq!(r.grants(), 2);
        assert_eq!(r.next_free(), VTime::from_secs(3));
        // First grant started immediately; second queued behind it.
        assert_eq!(r.queued_total(), VTime::from_secs(1));
        r.reset();
        assert_eq!(r.busy_total(), VTime::ZERO);
        assert_eq!(r.queued_total(), VTime::ZERO);
        assert_eq!(r.next_free(), VTime::ZERO);
    }

    #[test]
    fn clones_share_the_queue() {
        let r = Resource::new("dev");
        let r2 = r.clone();
        r.acquire_at(VTime::ZERO, VTime::from_secs(5));
        let g = r2.acquire_at(VTime::ZERO, VTime::from_secs(1));
        assert_eq!(g.start, VTime::from_secs(5));
    }
}
