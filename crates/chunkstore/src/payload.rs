//! A chunk's bytes as every layer holds them (DESIGN.md §13 "Payload
//! ownership"): a reference-counted table of reference-counted *leaves*,
//! one per page of the chunk. The page — [`PAGE_BYTES`], the 4 KiB the
//! client's dirty bitmap counts in — is the unit of copy and the unit of
//! digest: a leaf carries the CRC-64 register of its own bytes, and every
//! chunk digest is a fold of its leaves' registers (DESIGN.md §11).

use crate::crc::{
    crc64_absorb_raw, crc64_absorb_raw_xor, crc64_advance_zeros, crc64_zeros, ZeroAdvance,
};
use crate::rs::gf_mul_acc;
use crate::segments::segments;
use crate::store::PAGE_BYTES;
use std::fmt;
use std::ops::{Deref, Index};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const PAGE: usize = PAGE_BYTES as usize;

/// "No sum stands": the value a leaf's register field holds until someone
/// asks for the sum, and again after any `&mut` access to the bytes. A
/// leaf whose true register is this value is digested on every ask.
const UNSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// What a leaf handle points at: one allocation, in the size class a bare
/// 4 KiB `Arc<[u8]>` has (16 bytes of counts, the body where it always
/// was, the register after it — 4 120 bytes, a 4 128-byte glibc chunk
/// either way; DESIGN.md §13 has what leaving the class costs).
#[repr(C)]
struct Block {
    bytes: [u8; PAGE],
    /// The zero-init raw CRC-64 register over the leaf's bytes, or
    /// [`UNSET`]. A pure function of bytes nobody can change while the
    /// block is shared, so whoever computes it first may leave it here
    /// for every other holder (`Relaxed`: it publishes nothing else).
    sum: AtomicU64,
}

/// What `Arc::make_mut` runs when a shared leaf is about to be written:
/// the private copy starts without a sum.
impl Clone for Block {
    fn clone(&self) -> Block {
        Block {
            bytes: self.bytes,
            sum: AtomicU64::new(UNSET),
        }
    }
}

/// One page of a chunk (the chunk's last leaf is short when the chunk is
/// not a whole number of pages). One allocation; immutable while shared.
/// Every handle to one block has the same length.
#[derive(Clone)]
pub struct Leaf {
    block: Arc<Block>,
    len: usize,
}

impl Leaf {
    /// A `len`-byte all-zero leaf (whose register, zero, stands).
    fn zeroed(len: usize) -> Leaf {
        assert!(len <= PAGE, "a leaf is at most one page");
        let block = Arc::new(Block {
            bytes: [0; PAGE],
            sum: AtomicU64::new(0),
        });
        Leaf { block, len }
    }

    /// Do the two handles share one allocation?
    pub fn ptr_eq(a: &Leaf, b: &Leaf) -> bool {
        Arc::ptr_eq(&a.block, &b.block)
    }

    /// The sum, if one stands.
    fn standing(&self) -> Option<u64> {
        Some(self.block.sum.load(Ordering::Relaxed)).filter(|&sum| sum != UNSET)
    }

    /// The zero-init raw CRC-64 register over the leaf's bytes: read if it
    /// stands, computed — and left standing — if not.
    pub(crate) fn sum(&self) -> u64 {
        self.standing().unwrap_or_else(|| {
            let sum = crc64_absorb_raw(0, self);
            self.set_sum(sum);
            sum
        })
    }

    /// Leave `sum` — which must be the register of the bytes as they are
    /// now — standing.
    fn set_sum(&self, sum: u64) {
        self.block.sum.store(sum, Ordering::Relaxed);
    }

    /// The bytes, for writing: un-shared first if anyone else holds them,
    /// and with no sum left standing over them. The only `&mut` the type
    /// gives out, so no mutator can keep a sum its bytes have outgrown.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        let block = Arc::make_mut(&mut self.block);
        *block.sum.get_mut() = UNSET;
        &mut block.bytes[..self.len]
    }
}

impl fmt::Debug for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sum = match self.standing() {
            Some(_) => "standing",
            None => "unset",
        };
        write!(f, "Leaf({} B, sum {sum})", self.len)
    }
}

impl Deref for Leaf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.block.bytes[..self.len]
    }
}

/// A leaf holding a copy of `bytes` (at most a page of them), digested
/// while they are hot.
impl From<&[u8]> for Leaf {
    fn from(bytes: &[u8]) -> Leaf {
        let leaf = match <&[u8; PAGE]>::try_from(bytes) {
            // A whole page goes straight into its block: one copy.
            Ok(page) => Leaf {
                block: Arc::new(Block {
                    bytes: *page,
                    sum: AtomicU64::new(UNSET),
                }),
                len: PAGE,
            },
            Err(_) => leaf_with(bytes.len(), |out| out.copy_from_slice(bytes)),
        };
        leaf.set_sum(crc64_absorb_raw(0, bytes));
        leaf
    }
}

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
    let mut leaf = Leaf::zeroed(len);
    fill(leaf.bytes_mut());
    leaf
}

/// `bytes`, which start `off` bytes into a chunk, cut into leaves where
/// the chunk's page grid cuts them: the one copy those bytes get.
fn cut(off: u64, bytes: &[u8]) -> Vec<Leaf> {
    segments(off, bytes.len() as u64, PAGE_BYTES)
        .map(|s| Leaf::from(&bytes[s.pos..s.pos + s.take]))
        .collect()
}

/// Cut byte runs into [`PageRun`] pieces on the page grid — what the
/// byte-slice write entry points do with their arguments.
pub(crate) fn cut_runs(runs: &[(u64, &[u8])]) -> Vec<(u64, Vec<Leaf>)> {
    let cut_run = |&(off, bytes): &(u64, &[u8])| (off, cut(off, bytes));
    runs.iter().map(cut_run).collect()
}

/// Borrowed views of owned runs.
pub(crate) fn run_views(runs: &[(u64, Vec<Leaf>)]) -> Vec<PageRun<'_>> {
    runs.iter().map(|(off, d)| (*off, &d[..])).collect()
}

/// The zero-init raw CRC-64 register of a concatenation, from each part's
/// `(length, register)`: a Horner fold, `acc = advance(acc, |part|) ⊕
/// register(part)`. Crossing a whole page — every step of a chunk digest
/// but a ragged last one — is eight table lookups.
pub(crate) fn fold_sums(parts: impl IntoIterator<Item = (usize, u64)>) -> u64 {
    static PAGE_ADVANCE: OnceLock<ZeroAdvance> = OnceLock::new();
    let page = PAGE_ADVANCE.get_or_init(|| ZeroAdvance::new(PAGE_BYTES));
    parts.into_iter().fold(0, |acc, (len, sum)| {
        let moved = match len {
            PAGE => page.apply(acc),
            _ => crc64_advance_zeros(acc, len as u64),
        };
        moved ^ sum
    })
}

/// [`fold_sums`] over leaves: the register of their concatenation, every
/// leaf digested at most once in its life.
pub(crate) fn sum_of(leaves: &[Leaf]) -> u64 {
    fold_sums(leaves.iter().map(|leaf| (leaf.len(), leaf.sum())))
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
}

/// The shared all-zero chunk of `len` bytes: what a hole reads as, what a
/// fresh chunk starts from and what an implicit-zero parity-group member
/// decodes from. Every leaf of it is the one process-wide zero leaf of its
/// length.
pub fn zero_chunk(len: u64) -> ChunkBuf {
    static ZEROS: Mutex<Vec<ChunkBuf>> = Mutex::new(Vec::new());
    let mut zeros = ZEROS.lock().expect("zero-chunk table poisoned");
    if let Some(z) = zeros.iter().find(|z| z.len == len as usize) {
        return z.clone();
    }
    let leaves = segments(0, len, PAGE_BYTES).map(|s| zero_leaf(s.take));
    let z = ChunkBuf::from_leaves(leaves.collect(), len);
    zeros.push(z.clone());
    z
}

/// The process-wide all-zero leaf of `len` bytes.
fn zero_leaf(len: usize) -> Leaf {
    static ZEROS: Mutex<Vec<Leaf>> = Mutex::new(Vec::new());
    let mut zeros = ZEROS.lock().expect("zero-leaf table poisoned");
    if let Some(z) = zeros.iter().find(|z| z.len() == len) {
        return z.clone();
    }
    let z = Leaf::zeroed(len);
    zeros.push(z.clone());
    z
}

impl ChunkBuf {
    /// A `len`-byte chunk over `leaves`: every leaf a whole page, the last
    /// one whatever is left.
    pub fn from_leaves(leaves: Vec<Leaf>, len: u64) -> Self {
        assert!(len > 0, "empty chunk");
        assert_eq!(
            leaves.len() as u64,
            len.div_ceil(PAGE_BYTES),
            "leaf count does not cover the chunk"
        );
        for (leaf, s) in leaves.iter().zip(segments(0, len, PAGE_BYTES)) {
            assert_eq!(leaf.len(), s.take, "leaf {} has the wrong size", s.idx);
        }
        ChunkBuf {
            leaves: leaves.into(),
            len: len as usize,
        }
    }

    /// A chunk holding a copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self::from_leaves(cut(0, bytes), bytes.len() as u64)
    }

    /// Chunk length in bytes.
    #[allow(clippy::len_without_is_empty)] // never empty, by construction
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// The leaves holding `[off, off + len)`, which must start on a page
    /// boundary and end on one or at the chunk's end — a dirty-page run.
    pub fn leaves_of(&self, off: u64, len: u64) -> &[Leaf] {
        let (off, end) = (off as usize, (off + len) as usize);
        assert!(
            off.is_multiple_of(PAGE) && (end.is_multiple_of(PAGE) || end == self.len),
            "run is not whole pages"
        );
        &self.leaves[off / PAGE..end.div_ceil(PAGE)]
    }

    /// The first `len` bytes as a payload of their own: the whole leaves
    /// shared, a leaf `len` cuts copied short — the run a ragged last
    /// chunk of a file is written from.
    pub fn head(&self, len: usize) -> ChunkBuf {
        assert!(len > 0 && len <= self.len, "head outside the chunk");
        if len == self.len {
            return self.clone();
        }
        let mut leaves = self.leaves[..len.div_ceil(PAGE)].to_vec();
        let keep = len - (leaves.len() - 1) * PAGE;
        let cut = leaves.last_mut().expect("len > 0");
        if cut.len() != keep {
            *cut = Leaf::from(&cut[..keep]);
        }
        Self::from_leaves(leaves, len as u64)
    }

    /// How many leaves this payload and `other` hold as the same
    /// allocation (inspection: what a write, rot or a tear left shared).
    pub fn shared_leaves(&self, other: &ChunkBuf) -> usize {
        let same = |(a, b): &(&Leaf, &Leaf)| Leaf::ptr_eq(a, b);
        self.leaves.iter().zip(other.leaves()).filter(same).count()
    }

    /// How many leaves have their sum standing (inspection: what the next
    /// digest will not read).
    pub fn standing_sums(&self) -> usize {
        let standing = |leaf: &&Leaf| leaf.standing().is_some();
        self.leaves.iter().filter(standing).count()
    }

    /// `len` bytes at `pos`, which must lie inside one leaf — the stored
    /// bytes under one piece of a [`PageRun`].
    pub fn piece(&self, pos: u64, len: usize) -> &[u8] {
        let (leaf, within) = (pos as usize / PAGE, pos as usize % PAGE);
        &self.leaves[leaf][within..within + len]
    }

    /// The zero-init raw CRC-64 register of `stored ⊕ new` over the bytes
    /// `piece` — one piece of a [`PageRun`], placed at `pos` — overwrites:
    /// what an overwrite splices into the recorded digest. A piece that
    /// covers its leaf whole is the XOR of two leaf sums and reads no
    /// stored byte; a partial one absorbs both sides' bytes.
    pub(crate) fn delta_sum(&self, pos: u64, piece: &Leaf) -> u64 {
        let stored = &self.leaves[pos as usize / PAGE];
        if piece.len() == stored.len() {
            stored.sum() ^ piece.sum()
        } else {
            crc64_absorb_raw_xor(0, self.piece(pos, piece.len()), piece)
        }
    }

    /// Copy `out.len()` bytes starting at `off` into `out`.
    pub fn read(&self, off: usize, out: &mut [u8]) {
        assert!(off + out.len() <= self.len, "read outside chunk");
        for s in segments(off as u64, out.len() as u64, PAGE_BYTES) {
            out[s.pos..s.pos + s.take]
                .copy_from_slice(&self.leaves[s.idx][s.within..s.within + s.take]);
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for leaf in self.leaves.iter() {
            out.extend_from_slice(leaf);
        }
        out
    }

    /// CRC-64/XZ of the chunk, equal to `crc64` of the concatenation:
    /// folded from the leaves' sums, so only a leaf nobody has digested
    /// since it last changed is read.
    pub fn digest(&self) -> u64 {
        crc64_zeros(self.len as u64) ^ sum_of(&self.leaves)
    }

    /// Overwrite `bytes.len()` bytes at `off`.
    pub fn write(&mut self, off: usize, bytes: &[u8]) {
        assert!(off + bytes.len() <= self.len, "write outside chunk");
        if bytes.len() == self.len {
            // Nothing of the old table survives: don't un-share it first.
            *self = ChunkBuf::from_bytes(bytes);
            return;
        }
        let table = Arc::make_mut(&mut self.leaves);
        for s in segments(off as u64, bytes.len() as u64, PAGE_BYTES) {
            let (stored, new) = (&mut table[s.idx], &bytes[s.pos..s.pos + s.take]);
            if s.take == stored.len() {
                *stored = Leaf::from(new);
            } else {
                stored.bytes_mut()[s.within..s.within + s.take].copy_from_slice(new);
            }
        }
    }

    /// Land the first `limit` bytes of a run (all of it unless the write
    /// is torn): a piece that covers a whole leaf is handed over — the
    /// chunk and the writer share it, sum and all, from here on — a
    /// partial one is copied into a private copy of the leaf it falls in.
    pub fn write_run(&mut self, (off, pieces): PageRun<'_>, limit: usize) {
        self.land(off, pieces, limit, |stored, within, piece, take| {
            if take == stored.len() {
                *stored = piece.clone();
            } else {
                stored.bytes_mut()[within..within + take].copy_from_slice(&piece[..take]);
            }
        });
    }

    /// XOR the first `limit` bytes of a run into the chunk. A standing sum
    /// survives a whole-leaf XOR by linearity: `sum ^= sum(piece)`.
    pub fn xor_run(&mut self, (off, pieces): PageRun<'_>, limit: usize) {
        self.land(off, pieces, limit, |stored, within, piece, take| {
            let kept = stored.standing().filter(|_| take == stored.len());
            // · 1: a plain XOR, at the kernel's width.
            gf_mul_acc(
                &mut stored.bytes_mut()[within..within + take],
                &piece[..take],
                1,
            );
            if let Some(sum) = kept {
                stored.set_sum(sum ^ piece.sum());
            }
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
            let (stored, within) = (&mut table[pos / PAGE], pos % PAGE);
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
        let leaf = &mut Arc::make_mut(&mut self.leaves)[at / PAGE];
        leaf.bytes_mut()[at % PAGE] ^= 0xFF;
    }

    /// Zero every byte from `at` on: the tail a torn fresh write never
    /// persisted. Leaves wholly past `at` become the shared zero leaf.
    pub fn zero_from(&mut self, at: usize) {
        let table = Arc::make_mut(&mut self.leaves);
        for s in segments(at as u64, (self.len - at) as u64, PAGE_BYTES) {
            let stored = &mut table[s.idx];
            if s.take == stored.len() {
                *stored = zero_leaf(s.take);
            } else {
                stored.bytes_mut()[s.within..].fill(0);
            }
        }
    }
}

impl fmt::Debug for ChunkBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChunkBuf({} B in {} B leaves, {} of {} sums standing)",
            self.len,
            PAGE,
            self.standing_sums(),
            self.leaves.len()
        )
    }
}

impl Index<usize> for ChunkBuf {
    type Output = u8;

    fn index(&self, at: usize) -> &u8 {
        &self.leaves[at / PAGE][at % PAGE]
    }
}

impl PartialEq<[u8]> for ChunkBuf {
    fn eq(&self, bytes: &[u8]) -> bool {
        self.len == bytes.len()
            && segments(0, self.len as u64, PAGE_BYTES)
                .all(|s| self.leaves[s.idx][..] == bytes[s.pos..s.pos + s.take])
    }
}

/// Same bytes (tests and benches compare payloads; nothing on a data path
/// does).
impl PartialEq for ChunkBuf {
    fn eq(&self, other: &ChunkBuf) -> bool {
        self.len == other.len
            && self
                .leaves
                .iter()
                .zip(other.leaves())
                .all(|(a, b)| a[..] == b[..])
    }
}

impl Eq for ChunkBuf {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc64;
    use proptest::prelude::*;

    #[test]
    fn a_leaf_block_stays_in_the_size_class_of_a_bare_page() {
        // Two counts + body + register: the 4 128-byte chunk glibc gives a
        // 4 112-byte `Arc<[u8]>` of one page (requests round up to 16n + 8).
        let class = |request: usize| (request + 8).next_multiple_of(16);
        assert_eq!(size_of::<Block>(), 4096 + 8);
        assert_eq!(class(16 + size_of::<Block>()), class(16 + 4096));
        // ... and a 64-leaf table stays the 1 040-byte block it was.
        assert_eq!(size_of::<Leaf>(), 16);
    }

    #[test]
    fn zero_chunk_is_one_shared_leaf_per_length() {
        let z = zero_chunk(10_000);
        assert_eq!(z.leaves().len(), 3);
        assert!(Leaf::ptr_eq(&z.leaves()[0], &z.leaves()[1]));
        assert_eq!(z.leaves()[2].len(), 10_000 - 2 * 4096);
        assert!(z == vec![0u8; 10_000][..]);
        // A second handle, and a chunk of another length, reuse the leaf.
        let other = zero_chunk(256 * 1024);
        assert!(Leaf::ptr_eq(&z.leaves()[0], &other.leaves()[63]));
        assert!(Arc::ptr_eq(&z.leaves, &zero_chunk(10_000).leaves));
        // A chunk smaller than a page is one leaf.
        assert_eq!(zero_chunk(256).leaves().len(), 1);
        // Zeros are born digested: a hole's digest reads nothing.
        assert_eq!(other.standing_sums(), 64);
        assert_eq!(other.digest(), crc64(&vec![0u8; 256 * 1024]));
    }

    #[test]
    fn whole_leaf_write_replaces_partial_write_copies_first() {
        let base = ChunkBuf::from_bytes(&[7u8; 3 * 4096]);
        let mut w = base.clone();
        w.write(4096, &[1u8; 4096]); // all of leaf 1
        w.write(8192 + 5, &[2u8; 3]); // inside leaf 2
        let shared = |i: usize| Leaf::ptr_eq(&base.leaves()[i], &w.leaves()[i]);
        assert!(shared(0) && !shared(1) && !shared(2));
        assert!(base == [7u8; 3 * 4096][..], "the snapshot kept its bytes");
        assert_eq!((w[4095], w[4096], w[8192 + 4], w[8192 + 5]), (7, 1, 7, 2));
    }

    #[test]
    fn a_whole_page_piece_is_handed_over_a_torn_one_is_copied() {
        let run = cut_runs(&[(4096, &[9u8; 8192][..])]);
        let mut stored = zero_chunk(4 * 4096);
        stored.write_run((4096, &run[0].1), usize::MAX);
        assert!(Leaf::ptr_eq(&stored.leaves()[1], &run[0].1[0]));
        assert!(Leaf::ptr_eq(&stored.leaves()[2], &run[0].1[1]));
        // Torn at a byte count inside the second piece: the first is
        // still handed over, the straddled one lands by copy.
        let mut torn = zero_chunk(4 * 4096);
        torn.write_run((4096, &run[0].1), 4096 + 100);
        assert!(Leaf::ptr_eq(&torn.leaves()[1], &run[0].1[0]));
        assert!(!Leaf::ptr_eq(&torn.leaves()[2], &run[0].1[1]));
        assert_eq!((torn[8192 + 99], torn[8192 + 100]), (9, 0));
    }

    #[test]
    fn head_shares_whole_leaves_and_copies_the_cut_one() {
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        let base = ChunkBuf::from_bytes(&bytes);
        for len in [1, 100, 4096, 4097, 8192, 9_999, 10_000] {
            let head = base.head(len);
            assert!(head == bytes[..len], "head({len})");
            assert_eq!(head.leaves().len(), len.div_ceil(4096));
            // Every leaf `len` does not cut is the base's own allocation.
            assert_eq!(
                head.shared_leaves(&base),
                len / 4096 + usize::from(len == 10_000)
            );
            assert_eq!(head.digest(), crc64(&bytes[..len]), "head({len})");
        }
    }

    #[test]
    #[should_panic(expected = "head outside")]
    fn head_rejects_a_length_past_the_chunk() {
        ChunkBuf::from_bytes(&[1u8; 100]).head(101);
    }

    #[test]
    #[should_panic(expected = "leaf count")]
    fn from_leaves_rejects_a_missing_leaf() {
        ChunkBuf::from_leaves(vec![leaf_with(4096, |_| ())], 8192);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn from_leaves_rejects_a_short_inner_leaf() {
        let leaves = vec![leaf_with(4000, |_| ()), leaf_with(4096, |_| ())];
        ChunkBuf::from_leaves(leaves, 8192);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn from_leaves_rejects_a_long_last_leaf() {
        let leaves = vec![leaf_with(4096, |_| ()), leaf_with(4096, |_| ())];
        ChunkBuf::from_leaves(leaves, 8000);
    }

    #[test]
    #[should_panic(expected = "empty chunk")]
    fn from_bytes_rejects_an_empty_chunk() {
        ChunkBuf::from_bytes(&[]);
    }

    #[test]
    #[should_panic(expected = "at most one page")]
    fn a_leaf_of_another_page_size_cannot_be_built() {
        leaf_with(8192, |_| ());
    }

    #[test]
    #[should_panic(expected = "straddles a page boundary")]
    fn a_run_piece_cut_on_another_grid_is_rejected() {
        // Cut for offset 0, landed 100 bytes in: the piece crosses a page.
        let run = cut_runs(&[(0, &[1u8; 4096][..])]);
        zero_chunk(16_384).write_run((100, &run[0].1), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "run outside chunk")]
    fn a_run_past_the_end_is_rejected() {
        let run = cut_runs(&[(4096, &[1u8; 8192][..])]);
        zero_chunk(8192).write_run((4096, &run[0].1), usize::MAX);
    }

    fn fill(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(13) ^ tag).collect()
    }

    /// Which leaves of `buf` have a sum standing.
    fn standing(buf: &ChunkBuf) -> Vec<bool> {
        let standing = |leaf: &Leaf| leaf.standing().is_some();
        buf.leaves().iter().map(standing).collect()
    }

    /// Every standing sum of `buf` is what a recompute gives.
    fn sums_are_true(buf: &ChunkBuf) -> bool {
        let ok = |leaf: &Leaf| {
            leaf.standing()
                .is_none_or(|sum| sum == crc64_absorb_raw(0, leaf))
        };
        buf.leaves().iter().all(ok)
    }

    #[test]
    fn each_mutator_clears_the_sum_it_outdates_and_no_other() {
        let bytes = fill(4 * 4096, 0x21);
        let digested = || {
            let buf = ChunkBuf::from_bytes(&bytes);
            assert_eq!(buf.standing_sums(), 4, "built from caller bytes");
            buf
        };
        let mut flat = bytes.clone();
        let check = |buf: &ChunkBuf, flat: &[u8], want: [bool; 4], what: &str| {
            assert_eq!(standing(buf), want, "{what}");
            assert!(sums_are_true(buf), "{what}");
            assert_eq!(buf.digest(), crc64(flat), "{what}");
            assert_eq!(buf.standing_sums(), 4, "{what}: the digest left every sum");
        };

        let mut buf = digested();
        buf.write(4096 + 7, &[1, 2, 3]);
        flat[4096 + 7..4096 + 10].copy_from_slice(&[1, 2, 3]);
        check(&buf, &flat, [true, false, true, true], "partial write");

        buf.flip(2 * 4096);
        flat[2 * 4096] ^= 0xFF;
        check(&buf, &flat, [true, true, false, true], "flip");

        buf.zero_from(3 * 4096 + 9);
        flat[3 * 4096 + 9..].fill(0);
        check(
            &buf,
            &flat,
            [true, true, true, false],
            "zero_from inside a leaf",
        );

        // A torn run: the first piece is handed over with the sum `cut`
        // gave it, the straddled leaf is copied into and loses its own,
        // the leaf past the tear keeps bytes and sum.
        let new = fill(3 * 4096, 0x77);
        let run = cut_runs(&[(4096, &new[..])]);
        buf.write_run((4096, &run[0].1), 4096 + 50);
        flat[4096..2 * 4096 + 50].copy_from_slice(&new[..4096 + 50]);
        check(&buf, &flat, [true, true, false, true], "torn write_run");

        // XOR of a whole leaf keeps a standing sum current by linearity;
        // a partial XOR (the torn half) clears.
        let delta = fill(2 * 4096, 0x0F);
        let run = cut_runs(&[(0, &delta[..])]);
        buf.xor_run((0, &run[0].1), 4096 + 10);
        for (x, d) in flat[..4096 + 10].iter_mut().zip(&delta) {
            *x ^= d;
        }
        check(
            &buf,
            &flat,
            [true, false, true, true],
            "xor_run, whole then torn",
        );

        // An unset sum stays unset under a whole-leaf XOR: nothing to keep.
        buf.flip(0);
        flat[0] ^= 0xFF;
        buf.xor_run((0, &run[0].1[..1]), usize::MAX);
        for (x, d) in flat[..4096].iter_mut().zip(&delta) {
            *x ^= d;
        }
        check(
            &buf,
            &flat,
            [false, true, true, true],
            "xor_run over an unset sum",
        );
    }

    #[test]
    fn a_clone_taken_before_a_write_keeps_its_leaves_and_their_sums() {
        let bytes = fill(3 * 4096, 0x5A);
        let base = ChunkBuf::from_bytes(&bytes);
        let mut w = base.clone();
        w.flip(4096);
        // The rot took a private, sum-less copy; the snapshot's leaf — and
        // the sum every other holder of it relies on — is untouched.
        assert_eq!(standing(&w), [true, false, true]);
        assert_eq!(standing(&base), [true, true, true]);
        assert_eq!(base.digest(), crc64(&bytes));
        assert_ne!(w.digest(), base.digest());
        assert_eq!(
            format!("{w:?}"),
            "ChunkBuf(12288 B in 4096 B leaves, 3 of 3 sums standing)"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every mutator against a flat `Vec<u8>`: same bytes and digest
        /// after every step — with whatever sums the previous step's
        /// digest left standing — on the mutated handle and on every
        /// earlier clone, which still reads what it read when it was
        /// taken.
        #[test]
        fn mutators_match_a_flat_model_and_clones_are_snapshots(
            len in prop_oneof![Just(256usize), Just(4096usize), Just(10_000usize), Just(256 * 1024usize)],
            ops in proptest::collection::vec((0u8..7, any::<u32>(), any::<u32>(), any::<u8>()), 1..14),
        ) {
            const PAGE: usize = super::PAGE;
            let mut flat = fill(len, 0x3C);
            let mut buf = ChunkBuf::from_bytes(&flat);
            let mut snapshots: Vec<(ChunkBuf, Vec<u8>)> = Vec::new();
            for (op, a, b, tag) in ops {
                let off = a as usize % len;
                let n = 1 + b as usize % (len - off).min(20_000);
                let bytes = fill(n, tag);
                let run = cut_runs(&[(off as u64, &bytes[..])]);
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
                        let page = off / PAGE * PAGE;
                        let n = (len - page).min(PAGE);
                        let leaf = Leaf::from(&fill(n, tag)[..]);
                        buf.write_run((page as u64, std::slice::from_ref(&leaf)), n);
                        prop_assert!(Leaf::ptr_eq(&buf.leaves()[page / PAGE], &leaf));
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
                prop_assert!(sums_are_true(&buf), "a sum outlived its bytes after op {}", op);
                prop_assert_eq!(buf.digest(), crc64(&flat));
                prop_assert_eq!(buf.standing_sums(), buf.leaves().len());
                prop_assert_eq!(buf.to_vec(), flat.clone());
                let mut window = vec![0u8; n];
                buf.read(off, &mut window);
                prop_assert_eq!(&window[..], &flat[off..off + n]);
                for (snap, was) in &snapshots {
                    prop_assert!(*snap == was[..], "a clone saw a later write");
                    prop_assert_eq!(snap.digest(), crc64(was), "a clone's sums saw a later write");
                }
            }
        }
    }
}
