//! # shardmgr — the sharded placement manager
//!
//! The paper funnels every placement lookup through one metadata manager;
//! after the batched data path (DESIGN.md §8) that RPC is the last serial
//! choke point between a large client fleet and the store. This subsystem
//! partitions placement metadata across N manager *shard ranks*
//! (DESIGN.md §12):
//!
//! * [`ring`] — a deterministic consistent-hash ring mapping chunk- and
//!   slot-addressed keys to shards; clients compute owners locally and
//!   route `fetch_chunks` / `write_pages_batch` resolution directly to
//!   the owning shard's node.
//! * [`set`] — the installed fleet: per shard rank its node (the one
//!   record of where it runs), standby and FIFO metadata CPU, and its RPC
//!   counter.
//!
//! A client's `LocationCache` answers for both manager shapes under one
//! rule, the placement epoch (DESIGN.md §8): sharding changes who is
//! asked and where the RPC queues, never which cached answer is good.
//!
//! Everything defaults **off**: with `StoreConfig::manager_shards == 0`
//! the store keeps its serial single-manager path, byte-identical to the
//! pre-shard build. With one shard installed, a serial workload is still
//! bit-identical to the serial manager (the `bench fan_in` smoke gate
//! diffs exactly this); extra shards split the keyspace and the RPC
//! fan-in near-linearly.

pub mod ring;
pub mod set;

pub use ring::{HashRing, DEFAULT_VNODES};
pub use set::ShardSet;

/// Ring seed used by cluster builds. Fixed (not wall-clock, not host
/// randomness): ownership maps must be identical across runs and across
/// machines for committed bench expectations to diff clean.
pub const DEFAULT_RING_SEED: u64 = 0x5EED_0F1E_A5E5;
