//! # chunkstore — the aggregate NVM store
//!
//! The distributed storage substrate of the paper (§II, "Background:
//! Aggregate NVM Store"): compute nodes run *benefactor* processes that
//! contribute their node-local SSDs to a *manager*, which presents a
//! unified, striped chunk store. Files are split into 256 KiB chunks,
//! placed round-robin over a per-file benefactor list; `posix_fallocate`
//! reserves space without moving data; chunks are reference-counted so
//! `ssdcheckpoint()` can *link* a variable's chunks into a restart file
//! and later writes copy-on-write.
//!
//! * [`ids`] — typed file/chunk/benefactor identifiers;
//! * [`bitalloc`] — llfree-style bitmap-tree slot allocator backing the
//!   benefactor/manager allocation path (DESIGN.md §13);
//! * [`benefactor`] — the SSD-backed chunk server;
//! * [`payload`] — a chunk's bytes as every layer holds them: a shared
//!   table of shared 4 KiB leaves (DESIGN.md §13);
//! * [`manager`] — metadata: allocation, striping, health, linking;
//! * [`store`] — the timed client-facing facade charging RPC, network and
//!   SSD costs;
//! * [`segments`] — the one chunk-boundary splitting iterator every layer
//!   above shares;
//! * [`loc_cache`] — client-side chunk-location cache (epoch-invalidated)
//!   feeding the batched, pipelined data path;
//! * [`crc`] — CRC-64/XZ chunk digests backing verified reads and the
//!   scrub daemon (DESIGN.md §11);
//! * [`rs`] — the GF(2^8) Reed-Solomon codec behind the erasure-coded
//!   redundancy tier (DESIGN.md §15);
//! * [`shardmgr`] — the manager ranks (DESIGN.md §12): the paper's one
//!   manager or N placement shards, one record per rank, a
//!   consistent-hash ring over placement keys, one FIFO CPU per shard;
//!   clients cache resolutions under the one epoch rule of
//!   [`loc_cache`], whatever the manager's shape;
//! * [`journal`] — crash-consistent manager metadata (DESIGN.md §16): a
//!   CRC-64-protected superblock plus an append-only, self-checksummed
//!   journal lane per manager rank, replayed by the standby on takeover.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod benefactor;
pub mod bitalloc;
pub mod crc;
pub mod error;
pub mod ids;
pub mod journal;
pub mod loc_cache;
pub mod manager;
pub mod payload;
pub mod rs;
pub mod segments;
pub mod shardmgr;
pub mod store;

pub use benefactor::Benefactor;
pub use bitalloc::BitAlloc;
pub use crc::crc64;
pub use error::{Result, StoreError};
pub use ids::{BenefactorId, ChunkId, FileId, IdMap};
pub use journal::{Journal, JournalSet, MetaState, Record, RepairStats, ShardMeta, Superblock};
pub use loc_cache::LocationCache;
pub use manager::{
    ChunkMeta, FileMeta, GroupRef, Manager, Member, PlacementPolicy, Slot, StripeSpec, StripeWidth,
};
pub use payload::{zero_chunk, ChunkBuf, Leaf, PageRun};
pub use rs::RsCode;
pub use segments::{segments, Segment, Segments};
pub use shardmgr::{HashRing, ShardSet, DEFAULT_RING_SEED};
pub use store::{
    AggregateStore, BatchRuns, BatchWrite, ChunkPayload, RepairReport, ScrubConfig, StoreConfig,
    PAGE_BYTES, QUARANTINE_MIN_SAMPLES, QUARANTINE_RATE,
};
