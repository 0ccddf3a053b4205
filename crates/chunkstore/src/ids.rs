//! Typed identifiers for store objects.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A logical file on the aggregate store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FileId(pub u64);

/// A stored chunk (the unit of striping, 256 KiB by default).
/// Chunk ids are global — checkpoint files *link* to the very same chunk
/// ids as the memory-mapped variable they snapshot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChunkId(pub u64);

/// Index of a benefactor process within the store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BenefactorId(pub usize);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}
impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk#{}", self.0)
    }
}
impl fmt::Display for BenefactorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "benefactor#{}", self.0)
    }
}

/// The hasher of every map a data-path operation looks an id up in —
/// `ChunkId`, `FileId`, a `(FileId, chunk index)` — in place of SipHash,
/// whose keyed rounds buy resistance to chosen keys that a store handing
/// out its own counters does not need. One rotate, XOR and multiply per
/// word: the multiply carries every key bit into the top bits, where the
/// table takes its 7-bit tag, so keys that differ only in low bits (an
/// identity hash of a counter would give them all one tag) still spread.
/// No map iterated for an order that reaches a clock depends on it: each
/// such walk sorts (DESIGN.md §13 "One hash per id").
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// A 64-bit odd constant with well-spread bits (the golden ratio's).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(le));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MIX);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_ids_spread_over_tags_and_buckets() {
        let hash = |key: (FileId, usize)| BuildHasherDefault::<IdHasher>::default().hash_one(key);
        let hashes: Vec<u64> = (0..512).map(|i| hash((FileId(3), i))).collect();
        let tags: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        let buckets: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 511).collect();
        assert!(tags.len() > 100, "{} of 128 tags", tags.len());
        assert!(buckets.len() > 300, "{} of 512 buckets", buckets.len());
    }
}
