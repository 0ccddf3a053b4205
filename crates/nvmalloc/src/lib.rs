//! # nvmalloc — the paper's core library
//!
//! NVMalloc lets applications explicitly allocate and manipulate memory
//! regions on a distributed NVM store, through familiar interfaces:
//!
//! ```text
//! nvmvar[] = ssdmalloc()   →  NvmClient::ssdmalloc  → NvmVec<T>
//! nvmvar[i] = x            →  NvmVec::set / write_slice
//! x = nvmvar[i]            →  NvmVec::get / read_slice / view
//! ssdfree(nvmvar)          →  NvmClient::ssdfree
//! ssdcheckpoint()          →  NvmClient::ssdcheckpoint
//! ```
//!
//! Under the covers, each allocation creates an internally-named file on
//! the aggregate store, `posix_fallocate`s it across a benefactor stripe
//! and "memory-maps" it: every element access routes through the node's
//! FUSE-equivalent chunk cache, exactly as the paper's mmap-over-FUSE
//! stack does. Checkpoints copy DRAM state but *link* NVM-variable chunks
//! (copy-on-write), making incremental checkpointing automatic.

pub mod client;
pub mod pod;
mod steps;
pub mod vec;

#[cfg(test)]
mod tests;

pub use client::{AllocOptions, Checkpoint, NvmClient, VarRecord};
pub use pod::{bytes_of, bytes_of_mut, Pod};
pub use vec::{NvmVariable, NvmVec, Pieces, View};
