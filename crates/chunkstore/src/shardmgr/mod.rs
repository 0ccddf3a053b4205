//! # shardmgr — the manager ranks
//!
//! The paper funnels every placement lookup through one metadata manager;
//! after the batched data path (DESIGN.md §8) that RPC is the last serial
//! choke point between a large client fleet and the store. This subsystem
//! describes the manager as a set of *ranks* and can partition placement
//! metadata across N of them (DESIGN.md §12):
//!
//! * [`ring`] — a deterministic consistent-hash ring mapping chunk- and
//!   slot-addressed keys to ranks; clients compute owners locally and
//!   route `fetch_chunks` / `write_pages_batch` resolution directly to
//!   the owning rank's node. The same ring picks each chunk-keyed
//!   journal record's lane (DESIGN.md §16), so a lane is its rank's
//!   keyspace.
//! * [`set`] — the ranks: per rank its node (the one record of where it
//!   runs), standby, metadata CPU and crash state, and its RPC counter.
//!
//! Every store holds one [`ShardSet`], in its `Manager`. With
//! `StoreConfig::manager_shards == 0` (the default) it is the paper's
//! manager: one rank, whose ring answers rank 0 without hashing and whose
//! CPU does not queue — byte-identical to the pre-shard build. With one
//! shard a serial workload is still bit-identical to it (the
//! `bench fan_in` smoke gate diffs exactly this); extra shards split the
//! keyspace and the RPC fan-in near-linearly.
//!
//! A client's `LocationCache` answers for both manager shapes under one
//! rule, the placement epoch (DESIGN.md §8): sharding changes who is
//! asked and where the RPC queues, never which cached answer is good.

pub mod ring;
pub mod set;

pub use ring::{HashRing, DEFAULT_VNODES};
pub(crate) use set::Crashed;
pub use set::ShardSet;

/// Ring seed used by cluster builds. Fixed (not wall-clock, not host
/// randomness): ownership maps must be identical across runs and across
/// machines for committed bench expectations to diff clean.
pub const DEFAULT_RING_SEED: u64 = 0x5EED_0F1E_A5E5;
