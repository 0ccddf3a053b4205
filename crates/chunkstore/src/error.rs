//! Store error types.

use crate::ids::{BenefactorId, ChunkId, FileId};
use std::fmt;

/// Errors surfaced by the aggregate store.
///
/// Marked `#[non_exhaustive]` so downstream matchers must keep a wildcard
/// arm: as the store grows failure modes, mount-level callers degrade to a
/// generic I/O error for variants they don't know instead of failing.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// Lookup of an unknown file id or name.
    NoSuchFile,
    /// A file with this name already exists.
    FileExists(String),
    /// The selected benefactors cannot hold the requested size.
    OutOfSpace { requested: u64, available: u64 },
    /// The benefactor holding the needed chunk is marked dead.
    BenefactorDown(BenefactorId),
    /// Access beyond the fallocated size of a file.
    OutOfBounds {
        file: FileId,
        offset: u64,
        len: u64,
        size: u64,
    },
    /// Operation needs benefactors but none are registered/alive.
    NoBenefactors,
    /// The caller asked for more benefactors than exist.
    NotEnoughBenefactors { requested: usize, alive: usize },
    /// Every reachable copy of the chunk failed CRC verification — the
    /// store refuses to return unverified bytes (DESIGN.md §11).
    /// `benefactor` is the copy whose mismatch was detected last.
    ChunkCorrupt {
        chunk: ChunkId,
        benefactor: BenefactorId,
    },
    /// The manager rank serving this request crashed and the retry
    /// window ran out before a standby takeover or reboot (DESIGN.md
    /// §16). Only requests that must ask that rank fail — clients
    /// answering from their location caches and other ranks keep working.
    ManagerDown(usize),
    /// A parity group lost more members than its code can tolerate: fewer
    /// than k of the k+m members are readable, so the lost chunk cannot be
    /// reconstructed (DESIGN.md §15). Like `ChunkCorrupt`, this is the
    /// store refusing to guess — never returning unverifiable bytes.
    InsufficientSurvivors {
        file: FileId,
        group: usize,
        have: usize,
        need: usize,
    },
    /// A metadata change built from outside input — a file name, an
    /// explicit stripe list — would need a journal record over the frame
    /// cap (DESIGN.md §16); it is refused before anything changes.
    RecordTooLarge { bytes: usize, max: usize },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchFile => write!(f, "no such file"),
            StoreError::FileExists(name) => write!(f, "file exists: {name}"),
            StoreError::OutOfSpace {
                requested,
                available,
            } => write!(
                f,
                "out of NVM space: requested {}, available {}",
                simcore::bytes::human(*requested),
                simcore::bytes::human(*available)
            ),
            StoreError::BenefactorDown(b) => write!(f, "{b} is down"),
            StoreError::OutOfBounds {
                file,
                offset,
                len,
                size,
            } => write!(
                f,
                "{file}: access [{offset}, {}) beyond size {size}",
                offset + len
            ),
            StoreError::NoBenefactors => write!(f, "no alive benefactors"),
            StoreError::NotEnoughBenefactors { requested, alive } => {
                write!(f, "requested {requested} benefactors, only {alive} alive")
            }
            StoreError::ChunkCorrupt { chunk, benefactor } => write!(
                f,
                "{chunk} failed CRC verification on every reachable copy (last bad: {benefactor})"
            ),
            StoreError::ManagerDown(rank) => {
                write!(f, "manager rank#{rank} is down")
            }
            StoreError::InsufficientSurvivors {
                file,
                group,
                have,
                need,
            } => write!(
                f,
                "{file} parity group#{group}: only {have} of the {need} \
                 members needed for reconstruction survive"
            ),
            StoreError::RecordTooLarge { bytes, max } => write!(
                f,
                "metadata record of {bytes} bytes exceeds the {max}-byte journal frame"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parties_involved() {
        let e = StoreError::ChunkCorrupt {
            chunk: ChunkId(7),
            benefactor: BenefactorId(2),
        };
        let msg = e.to_string();
        assert!(msg.contains("chunk#7"), "{msg}");
        assert!(msg.contains("benefactor#2"), "{msg}");

        let e = StoreError::BenefactorDown(BenefactorId(4));
        assert!(e.to_string().contains("benefactor#4"));

        let e = StoreError::OutOfBounds {
            file: FileId(3),
            offset: 10,
            len: 5,
            size: 12,
        };
        let msg = e.to_string();
        assert!(msg.contains("file#3"), "{msg}");
        assert!(msg.contains("[10, 15)"), "{msg}");

        let e = StoreError::ManagerDown(1);
        assert!(e.to_string().contains("rank#1"), "{e}");

        let e = StoreError::InsufficientSurvivors {
            file: FileId(5),
            group: 3,
            have: 2,
            need: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("file#5"), "{msg}");
        assert!(msg.contains("group#3"), "{msg}");
        assert!(msg.contains("2 of the 4"), "{msg}");
    }
}
