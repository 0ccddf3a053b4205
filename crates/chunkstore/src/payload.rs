//! A chunk's bytes as every layer holds them (DESIGN.md §13 "Payload
//! ownership"): a reference-counted table of reference-counted *leaves*,
//! one per page of the chunk. The page is the unit of copy — the same
//! 4 KiB `StoreConfig::page_size` the client's dirty bitmap counts in.

use crate::crc::crc64_absorb_raw;
use crate::rs::gf_mul_acc;
use crate::segments::segments;
use std::fmt;
use std::ops::Index;
use std::sync::{Arc, Mutex};

/// One page of a chunk (the chunk's last leaf is short when the chunk is
/// not a whole number of pages). One allocation; immutable while shared.
pub type Leaf = Arc<[u8]>;

/// A dirty run of one chunk, `(offset within the chunk, its bytes)`, the
/// bytes cut into leaves where the chunk's page grid cuts them: a run that
/// starts or ends inside a page has a short first or last piece. A piece
/// that covers a whole page lands on a benefactor as a pointer store.
pub type PageRun<'a> = (u64, &'a [Leaf]);

/// Bytes in a run's pieces.
pub(crate) fn run_len(pieces: &[Leaf]) -> u64 {
    pieces.iter().map(|p| p.len() as u64).sum()
}

/// A `len`-byte leaf filled by `fill` (which sees it zeroed).
pub(crate) fn leaf_with(len: usize, fill: impl FnOnce(&mut [u8])) -> Leaf {
    let mut leaf: Leaf = std::iter::repeat_n(0u8, len).collect();
    fill(Arc::get_mut(&mut leaf).expect("a fresh leaf is unshared"));
    leaf
}

/// `bytes`, which start `off` bytes into a chunk, cut into leaves where
/// the chunk's `page` grid cuts them: the one copy those bytes get.
fn cut(off: u64, bytes: &[u8], page: u64) -> Vec<Leaf> {
    segments(off, bytes.len() as u64, page)
        .map(|s| Leaf::from(&bytes[s.pos..s.pos + s.take]))
        .collect()
}

/// Cut byte runs into [`PageRun`] pieces on a `page` grid — what the
/// byte-slice write entry points do with their arguments.
pub(crate) fn cut_runs(page: u64, runs: &[(u64, &[u8])]) -> Vec<(u64, Vec<Leaf>)> {
    let cut_run = |&(off, bytes): &(u64, &[u8])| (off, cut(off, bytes, page));
    runs.iter().map(cut_run).collect()
}

/// Borrowed views of owned runs.
pub(crate) fn run_views(runs: &[(u64, Vec<Leaf>)]) -> Vec<PageRun<'_>> {
    runs.iter().map(|(off, d)| (*off, &d[..])).collect()
}

/// A chunk's payload. Handing one on — a fetch, a second replica, a cache
/// insert, a COW clone — bumps the table's count and copies nothing.
/// Whoever writes un-shares the table (one count bump per leaf) and then
/// only the leaves it touches: a write that covers a whole leaf replaces
/// it, a partial one copies that leaf first. So a fetched payload is a
/// snapshot, and bit rot on one replica cannot reach another copy — per
/// leaf.
#[derive(Clone)]
pub struct ChunkBuf {
    leaves: Arc<[Leaf]>,
    len: usize,
    page: usize,
}

/// The shared all-zero chunk of `len` bytes in `page`-byte leaves: what a
/// hole reads as, what a fresh chunk starts from and what an implicit-zero
/// parity-group member decodes from. Every leaf of it is the one
/// process-wide zero leaf of its length.
pub fn zero_chunk(len: u64, page: u64) -> ChunkBuf {
    static ZEROS: Mutex<Vec<ChunkBuf>> = Mutex::new(Vec::new());
    let mut zeros = ZEROS.lock().expect("zero-chunk table poisoned");
    let (ulen, upage) = (len as usize, page as usize);
    if let Some(z) = zeros.iter().find(|z| (z.len, z.page) == (ulen, upage)) {
        return z.clone();
    }
    let leaves = segments(0, len, page).map(|s| zero_leaf(s.take)).collect();
    let z = ChunkBuf::from_leaves(leaves, len, page);
    zeros.push(z.clone());
    z
}

/// The process-wide all-zero leaf of `len` bytes.
fn zero_leaf(len: usize) -> Leaf {
    static ZEROS: Mutex<Vec<Leaf>> = Mutex::new(Vec::new());
    let mut zeros = ZEROS.lock().expect("zero-leaf table poisoned");
    if let Some(z) = zeros.iter().find(|z| z.len() == len) {
        return Arc::clone(z);
    }
    let z = leaf_with(len, |_| ());
    zeros.push(Arc::clone(&z));
    z
}

impl ChunkBuf {
    /// A `len`-byte chunk over `leaves`: every leaf `page` bytes, the last
    /// one whatever is left.
    pub fn from_leaves(leaves: Vec<Leaf>, len: u64, page: u64) -> Self {
        assert!(len > 0 && page > 0, "empty chunk or zero page size");
        assert_eq!(
            leaves.len() as u64,
            len.div_ceil(page),
            "leaf count does not cover the chunk"
        );
        for (leaf, s) in leaves.iter().zip(segments(0, len, page)) {
            assert_eq!(leaf.len(), s.take, "leaf {} has the wrong size", s.idx);
        }
        ChunkBuf {
            leaves: leaves.into(),
            len: len as usize,
            page: page as usize,
        }
    }

    /// A chunk holding a copy of `bytes`, in `page`-byte leaves.
    pub fn from_bytes(bytes: &[u8], page: u64) -> Self {
        Self::from_leaves(cut(0, bytes, page), bytes.len() as u64, page)
    }

    /// Chunk length in bytes.
    #[allow(clippy::len_without_is_empty)] // never empty, by construction
    pub fn len(&self) -> usize {
        self.len
    }

    /// Leaf size in bytes (the last leaf may be shorter).
    pub fn page(&self) -> usize {
        self.page
    }

    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// The leaves holding `[off, off + len)`, which must start on a page
    /// boundary and end on one or at the chunk's end — a dirty-page run.
    pub fn leaves_of(&self, off: u64, len: u64) -> &[Leaf] {
        let (off, end) = (off as usize, (off + len) as usize);
        assert!(
            off.is_multiple_of(self.page) && (end.is_multiple_of(self.page) || end == self.len),
            "run is not whole pages"
        );
        &self.leaves[off / self.page..end.div_ceil(self.page)]
    }

    /// The first `len` bytes as a payload of their own: the whole leaves
    /// shared, a leaf `len` cuts copied short — the run a ragged last
    /// chunk of a file is written from.
    pub fn head(&self, len: usize) -> ChunkBuf {
        assert!(len > 0 && len <= self.len, "head outside the chunk");
        if len == self.len {
            return self.clone();
        }
        let mut leaves = self.leaves[..len.div_ceil(self.page)].to_vec();
        let keep = len - (leaves.len() - 1) * self.page;
        let cut = leaves.last_mut().expect("len > 0");
        if cut.len() != keep {
            *cut = Leaf::from(&cut[..keep]);
        }
        Self::from_leaves(leaves, len as u64, self.page as u64)
    }

    /// How many leaves this payload and `other` hold as the same
    /// allocation (inspection: what a write, rot or a tear left shared).
    pub fn shared_leaves(&self, other: &ChunkBuf) -> usize {
        let same = |(a, b): &(&Leaf, &Leaf)| Arc::ptr_eq(a, b);
        self.leaves.iter().zip(other.leaves()).filter(same).count()
    }

    /// `len` bytes at `pos`, which must lie inside one leaf — the stored
    /// bytes under one piece of a [`PageRun`].
    pub fn piece(&self, pos: u64, len: usize) -> &[u8] {
        let (leaf, within) = (pos as usize / self.page, pos as usize % self.page);
        &self.leaves[leaf][within..within + len]
    }

    /// Copy `out.len()` bytes starting at `off` into `out`.
    pub fn read(&self, off: usize, out: &mut [u8]) {
        assert!(off + out.len() <= self.len, "read outside chunk");
        for s in segments(off as u64, out.len() as u64, self.page as u64) {
            out[s.pos..s.pos + s.take]
                .copy_from_slice(&self.leaves[s.idx][s.within..s.within + s.take]);
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.leaves.concat()
    }

    /// CRC-64/XZ of the chunk: the raw register absorbed leaf to leaf,
    /// equal to `crc64` of the concatenation.
    pub fn digest(&self) -> u64 {
        !self
            .leaves
            .iter()
            .fold(!0u64, |crc, leaf| crc64_absorb_raw(crc, leaf))
    }

    /// Overwrite `bytes.len()` bytes at `off`.
    pub fn write(&mut self, off: usize, bytes: &[u8]) {
        assert!(off + bytes.len() <= self.len, "write outside chunk");
        if bytes.len() == self.len {
            // Nothing of the old table survives: don't un-share it first.
            *self = ChunkBuf::from_bytes(bytes, self.page as u64);
            return;
        }
        let table = Arc::make_mut(&mut self.leaves);
        for s in segments(off as u64, bytes.len() as u64, self.page as u64) {
            let (stored, new) = (&mut table[s.idx], &bytes[s.pos..s.pos + s.take]);
            if s.take == stored.len() {
                *stored = Leaf::from(new);
            } else {
                Arc::make_mut(stored)[s.within..s.within + s.take].copy_from_slice(new);
            }
        }
    }

    /// Land the first `limit` bytes of a run (all of it unless the write
    /// is torn): a piece that covers a whole leaf is handed over — the
    /// chunk and the writer share it from here on — a partial one is
    /// copied into a private copy of the leaf it falls in.
    pub fn write_run(&mut self, (off, pieces): PageRun<'_>, limit: usize) {
        self.land(off, pieces, limit, |stored, within, piece, take| {
            if take == stored.len() {
                *stored = Arc::clone(piece);
            } else {
                Arc::make_mut(stored)[within..within + take].copy_from_slice(&piece[..take]);
            }
        });
    }

    /// XOR the first `limit` bytes of a run into the chunk.
    pub fn xor_run(&mut self, (off, pieces): PageRun<'_>, limit: usize) {
        self.land(off, pieces, limit, |stored, within, piece, take| {
            // · 1: a plain XOR, at the kernel's width.
            gf_mul_acc(
                &mut Arc::make_mut(stored)[within..within + take],
                &piece[..take],
                1,
            );
        });
    }

    /// Walk a run's pieces over the leaves they fall in, up to `limit`
    /// bytes: `put(stored leaf, offset within it, piece, bytes to land)`.
    fn land(
        &mut self,
        off: u64,
        pieces: &[Leaf],
        limit: usize,
        mut put: impl FnMut(&mut Leaf, usize, &Leaf, usize),
    ) {
        let table = Arc::make_mut(&mut self.leaves);
        let (mut pos, mut left) = (off as usize, limit);
        for piece in pieces {
            if left == 0 {
                break;
            }
            assert!(pos + piece.len() <= self.len, "run outside chunk");
            let (stored, within) = (&mut table[pos / self.page], pos % self.page);
            assert!(
                within + piece.len() <= stored.len(),
                "run piece straddles a page boundary"
            );
            let take = piece.len().min(left);
            put(stored, within, piece, take);
            pos += piece.len();
            left -= take;
        }
    }

    /// Flip the byte at `at` (XOR 0xFF): bit rot.
    pub fn flip(&mut self, at: usize) {
        let leaf = &mut Arc::make_mut(&mut self.leaves)[at / self.page];
        Arc::make_mut(leaf)[at % self.page] ^= 0xFF;
    }

    /// Zero every byte from `at` on: the tail a torn fresh write never
    /// persisted. Leaves wholly past `at` become the shared zero leaf.
    pub fn zero_from(&mut self, at: usize) {
        let table = Arc::make_mut(&mut self.leaves);
        for s in segments(at as u64, (self.len - at) as u64, self.page as u64) {
            let stored = &mut table[s.idx];
            if s.take == stored.len() {
                *stored = zero_leaf(s.take);
            } else {
                Arc::make_mut(stored)[s.within..].fill(0);
            }
        }
    }
}

impl fmt::Debug for ChunkBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChunkBuf({} B in {} B leaves, crc {:016x})",
            self.len,
            self.page,
            self.digest()
        )
    }
}

impl Index<usize> for ChunkBuf {
    type Output = u8;

    fn index(&self, at: usize) -> &u8 {
        &self.leaves[at / self.page][at % self.page]
    }
}

impl PartialEq<[u8]> for ChunkBuf {
    fn eq(&self, bytes: &[u8]) -> bool {
        self.len == bytes.len()
            && segments(0, self.len as u64, self.page as u64)
                .all(|s| self.leaves[s.idx][..] == bytes[s.pos..s.pos + s.take])
    }
}

/// Same bytes, whatever the leaf size (tests and benches compare
/// payloads; nothing on a data path does).
impl PartialEq for ChunkBuf {
    fn eq(&self, other: &ChunkBuf) -> bool {
        *self == other.to_vec()[..]
    }
}

impl Eq for ChunkBuf {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc64;
    use proptest::prelude::*;

    const PAGE: u64 = 4096;

    #[test]
    fn zero_chunk_is_one_shared_leaf_per_length() {
        let z = zero_chunk(10_000, PAGE);
        assert_eq!(z.leaves().len(), 3);
        assert!(Arc::ptr_eq(&z.leaves()[0], &z.leaves()[1]));
        assert_eq!(z.leaves()[2].len(), 10_000 - 2 * 4096);
        assert!(z == vec![0u8; 10_000][..]);
        // A second handle, and a chunk of another length, reuse the leaf.
        let other = zero_chunk(256 * 1024, PAGE);
        assert!(Arc::ptr_eq(&z.leaves()[0], &other.leaves()[63]));
        assert!(Arc::ptr_eq(&z.leaves, &zero_chunk(10_000, PAGE).leaves));
        // A chunk smaller than a page is one leaf.
        assert_eq!(zero_chunk(256, PAGE).leaves().len(), 1);
    }

    #[test]
    fn whole_leaf_write_replaces_partial_write_copies_first() {
        let base = ChunkBuf::from_bytes(&[7u8; 3 * 4096], PAGE);
        let mut w = base.clone();
        w.write(4096, &[1u8; 4096]); // all of leaf 1
        w.write(8192 + 5, &[2u8; 3]); // inside leaf 2
        let shared = |i: usize| Arc::ptr_eq(&base.leaves()[i], &w.leaves()[i]);
        assert!(shared(0) && !shared(1) && !shared(2));
        assert!(base == [7u8; 3 * 4096][..], "the snapshot kept its bytes");
        assert_eq!((w[4095], w[4096], w[8192 + 4], w[8192 + 5]), (7, 1, 7, 2));
    }

    #[test]
    fn a_whole_page_piece_is_handed_over_a_torn_one_is_copied() {
        let run = cut_runs(PAGE, &[(4096, &[9u8; 8192][..])]);
        let mut stored = zero_chunk(4 * 4096, PAGE);
        stored.write_run((4096, &run[0].1), usize::MAX);
        assert!(Arc::ptr_eq(&stored.leaves()[1], &run[0].1[0]));
        assert!(Arc::ptr_eq(&stored.leaves()[2], &run[0].1[1]));
        // Torn at a byte count inside the second piece: the first is
        // still handed over, the straddled one lands by copy.
        let mut torn = zero_chunk(4 * 4096, PAGE);
        torn.write_run((4096, &run[0].1), 4096 + 100);
        assert!(Arc::ptr_eq(&torn.leaves()[1], &run[0].1[0]));
        assert!(!Arc::ptr_eq(&torn.leaves()[2], &run[0].1[1]));
        assert_eq!((torn[8192 + 99], torn[8192 + 100]), (9, 0));
    }

    #[test]
    fn head_shares_whole_leaves_and_copies_the_cut_one() {
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        let base = ChunkBuf::from_bytes(&bytes, PAGE);
        for len in [1, 100, 4096, 4097, 8192, 9_999, 10_000] {
            let head = base.head(len);
            assert!(head == bytes[..len], "head({len})");
            assert_eq!(head.leaves().len(), len.div_ceil(4096));
            // Every leaf `len` does not cut is the base's own allocation.
            assert_eq!(
                head.shared_leaves(&base),
                len / 4096 + usize::from(len == 10_000)
            );
        }
    }

    #[test]
    #[should_panic(expected = "head outside")]
    fn head_rejects_a_length_past_the_chunk() {
        ChunkBuf::from_bytes(&[1u8; 100], PAGE).head(101);
    }

    #[test]
    #[should_panic(expected = "leaf count")]
    fn from_leaves_rejects_a_missing_leaf() {
        ChunkBuf::from_leaves(vec![leaf_with(4096, |_| ())], 8192, PAGE);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn from_leaves_rejects_a_short_inner_leaf() {
        let leaves = vec![leaf_with(4000, |_| ()), leaf_with(4096, |_| ())];
        ChunkBuf::from_leaves(leaves, 8192, PAGE);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn from_leaves_rejects_a_long_last_leaf() {
        let leaves = vec![leaf_with(4096, |_| ()), leaf_with(4096, |_| ())];
        ChunkBuf::from_leaves(leaves, 8000, PAGE);
    }

    #[test]
    #[should_panic(expected = "empty chunk")]
    fn from_bytes_rejects_an_empty_chunk() {
        ChunkBuf::from_bytes(&[], PAGE);
    }

    #[test]
    #[should_panic(expected = "straddles a page boundary")]
    fn a_run_piece_cut_on_another_grid_is_rejected() {
        let run = cut_runs(8192, &[(0, &[1u8; 8192][..])]);
        zero_chunk(16_384, PAGE).write_run((0, &run[0].1), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "run outside chunk")]
    fn a_run_past_the_end_is_rejected() {
        let run = cut_runs(PAGE, &[(4096, &[1u8; 8192][..])]);
        zero_chunk(8192, PAGE).write_run((4096, &run[0].1), usize::MAX);
    }

    fn fill(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(13) ^ tag).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every mutator against a flat `Vec<u8>`: same bytes and digest
        /// after every step, and every earlier clone still reads what it
        /// read when it was taken.
        #[test]
        fn mutators_match_a_flat_model_and_clones_are_snapshots(
            len in prop_oneof![Just(256usize), Just(4096usize), Just(10_000usize), Just(256 * 1024usize)],
            ops in proptest::collection::vec((0u8..7, any::<u32>(), any::<u32>(), any::<u8>()), 1..14),
        ) {
            let mut flat = fill(len, 0x3C);
            let mut buf = ChunkBuf::from_bytes(&flat, PAGE);
            let mut snapshots: Vec<(ChunkBuf, Vec<u8>)> = Vec::new();
            for (op, a, b, tag) in ops {
                let off = a as usize % len;
                let n = 1 + b as usize % (len - off).min(20_000);
                let bytes = fill(n, tag);
                let run = cut_runs(PAGE, &[(off as u64, &bytes[..])]);
                let run = (off as u64, &run[0].1[..]);
                match op {
                    0 => {
                        buf.write(off, &bytes);
                        flat[off..off + n].copy_from_slice(&bytes);
                    }
                    1 | 2 => {
                        // a write-back run, whole or torn at half
                        let landed = if op == 1 { n } else { n / 2 };
                        buf.write_run(run, landed);
                        flat[off..off + landed].copy_from_slice(&bytes[..landed]);
                    }
                    3 => {
                        let landed = if tag % 2 == 0 { n } else { n / 2 };
                        buf.xor_run(run, landed);
                        for (x, d) in flat[off..off + landed].iter_mut().zip(&bytes) {
                            *x ^= d;
                        }
                    }
                    4 => {
                        // a whole dirty page, handed over
                        let page = off / PAGE as usize * PAGE as usize;
                        let n = (len - page).min(PAGE as usize);
                        let leaf: Leaf = fill(n, tag).into();
                        buf.write_run((page as u64, std::slice::from_ref(&leaf)), n);
                        prop_assert!(Arc::ptr_eq(&buf.leaves()[page / PAGE as usize], &leaf));
                        flat[page..page + n].copy_from_slice(&leaf);
                    }
                    5 => {
                        buf.flip(off);
                        flat[off] ^= 0xFF;
                    }
                    _ => {
                        if tag % 4 == 0 {
                            buf.zero_from(off);
                            flat[off..].fill(0);
                        }
                        snapshots.push((buf.clone(), flat.clone()));
                    }
                }
                prop_assert!(buf == flat[..], "bytes diverged after op {}", op);
                prop_assert_eq!(buf.digest(), crc64(&flat));
                prop_assert_eq!(buf.to_vec(), flat.clone());
                let mut window = vec![0u8; n];
                buf.read(off, &mut window);
                prop_assert_eq!(&window[..], &flat[off..off + n]);
                for (snap, was) in &snapshots {
                    prop_assert!(*snap == was[..], "a clone saw a later write");
                }
            }
        }
    }
}
