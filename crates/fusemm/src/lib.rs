//! # fusemm — the FUSE-equivalent client layer
//!
//! The paper mounts the aggregate NVM store on every compute node through
//! FUSE (`/mnt/aggregatenvm`) and bridges mmap's byte-granular accesses to
//! the store's 256 KiB chunks with a client-side cache (§III-D). This
//! crate implements that layer natively:
//!
//! * [`cache`] — the 64 MiB LRU chunk cache;
//! * [`dirty`] — 4 KiB page dirty bitmaps inside cached chunks;
//! * [`mount`] — the per-node mount: byte reads/writes, fetch-on-miss,
//!   sequential read-ahead, dirty-page-only eviction write-back, flush.
//!
//! The kernel FUSE module itself is an OS plumbing detail; what the
//! paper's evaluation measures is the caching logic, which lives here and
//! is exercised by the same workloads.

pub mod cache;
pub mod dirty;
pub mod mount;

#[cfg(test)]
mod mount_tests;

pub use cache::{CacheEntry, ChunkCache, ChunkKey};
pub use dirty::DirtyPages;
pub use mount::{FuseConfig, Mount, MountGauges, Pieces, ReadView, OP_OVERHEAD};
