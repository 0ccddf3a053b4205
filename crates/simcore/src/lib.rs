//! # simcore — deterministic virtual-time simulation kernel
//!
//! The NVMalloc reproduction replaces the paper's 128-core HAL cluster
//! with a deterministic software simulation. This crate is the kernel of
//! that simulation:
//!
//! * [`time`] — integer-nanosecond virtual time and bandwidth arithmetic;
//! * [`resource`] — FIFO-queued shared resources (an SSD, a NIC direction,
//!   a node's DRAM bus) with utilization accounting;
//! * [`engine`] — the conservative scheduler that runs simulated processes
//!   on stacks of their own on the calling thread, one at a time, in
//!   `(virtual clock, id)` order;
//! * [`collective`] — N-party rendezvous used to build MPI-style
//!   collectives;
//! * [`stats`] — named counters for the paper's traffic-volume tables;
//! * [`rng`] — hierarchical deterministic seeding.
//!
//! Everything above this crate (device models, the chunk store, the FUSE
//! layer, NVMalloc itself, workloads) carries *real bytes* through *real
//! code paths* while charging virtual time here, so functional results are
//! exact and timing results are reproducible.
//!
//! ```
//! use simcore::{Engine, ProcCtx, Resource, VTime};
//!
//! // Two processes contend for one device; the engine serializes their
//! // grants in virtual-time order, deterministically.
//! let dev = Resource::new("ssd");
//! let dev2 = dev.clone();
//! let report = Engine::run(vec![
//!     Box::new(move |ctx: &mut ProcCtx| {
//!         ctx.yield_until_min();
//!         let g = dev.acquire_at(ctx.now(), VTime::from_millis(3));
//!         ctx.advance_to(g.end);
//!     }) as Box<dyn FnOnce(&mut ProcCtx)>,
//!     Box::new(move |ctx: &mut ProcCtx| {
//!         ctx.yield_until_min();
//!         let g = dev2.acquire_at(ctx.now(), VTime::from_millis(3));
//!         ctx.advance_to(g.end);
//!     }),
//! ]);
//! assert_eq!(report.makespan, VTime::from_millis(6));
//! ```

pub mod collective;
pub mod engine;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use collective::{Rendezvous, Resolution};
pub use engine::{current_proc, Engine, EngineReport, ProcCtx, ProcId};
pub use resource::{Grant, Resource};
pub use stats::{Counter, Histogram, Percentiles, Snapshot, StatsRegistry};
pub use time::{bytes, Bandwidth, VTime};
