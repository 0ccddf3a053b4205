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
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::{Deref, Index};
use std::rc::Rc;
use std::sync::OnceLock;

const PAGE: usize = PAGE_BYTES as usize;

/// "No sum stands": the value a leaf's register field holds until someone
/// asks for the sum, and again after any `&mut` access to the bytes. A
/// leaf whose true register is this value is digested on every ask.
const UNSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// What a leaf handle points at: one allocation, in the size class a bare
/// 4 KiB `Rc<[u8]>` has (16 bytes of counts, the body where it always
/// was, the register after it — 4 120 bytes, a 4 128-byte glibc chunk
/// either way; DESIGN.md §13 has what leaving the class costs).
#[repr(C)]
struct Block {
    bytes: [u8; PAGE],
    /// The zero-init raw CRC-64 register over the leaf's bytes, or
    /// [`UNSET`]. A pure function of bytes nobody can change while the
    /// block is shared, so whoever computes it first may leave it here
    /// for every other holder through a shared handle: a `Cell`, since
    /// every holder is on the one thread that runs the simulation.
    sum: Cell<u64>,
}

/// What `Rc::make_mut` runs when a shared leaf is about to be written:
/// the private copy starts without a sum.
impl Clone for Block {
    fn clone(&self) -> Block {
        Block {
            bytes: self.bytes,
            sum: Cell::new(UNSET),
        }
    }
}

/// One page of a chunk (the chunk's last leaf is short when the chunk is
/// not a whole number of pages). One allocation; immutable while shared.
/// Every handle to one block has the same length.
#[derive(Clone)]
pub struct Leaf {
    block: Rc<Block>,
    len: usize,
}

impl Leaf {
    /// A `len`-byte all-zero leaf (whose register, zero, stands).
    fn zeroed(len: usize) -> Leaf {
        assert!(len <= PAGE, "a leaf is at most one page");
        let block = Rc::new(Block {
            bytes: [0; PAGE],
            sum: Cell::new(0),
        });
        Leaf { block, len }
    }

    /// Do the two handles share one allocation?
    pub fn ptr_eq(a: &Leaf, b: &Leaf) -> bool {
        Rc::ptr_eq(&a.block, &b.block)
    }

    /// The sum, if one stands.
    fn standing(&self) -> Option<u64> {
        Some(self.block.sum.get()).filter(|&sum| sum != UNSET)
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
        self.block.sum.set(sum);
    }

    /// The bytes, for writing: un-shared first if anyone else holds them,
    /// and with no sum left standing over them. The only `&mut` the type
    /// gives out, so no mutator can keep a sum its bytes have outgrown.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        let block = Rc::make_mut(&mut self.block);
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
                block: Rc::new(Block {
                    bytes: *page,
                    sum: Cell::new(UNSET),
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
pub(crate) fn sum_of<'a>(leaves: impl IntoIterator<Item = &'a Leaf>) -> u64 {
    fold_sums(leaves.into_iter().map(|leaf| (leaf.len(), leaf.sum())))
}

/// A chunk's payload: the table of leaves it was built on or handed — its
/// *base*, shared with every payload cloned from it and never written
/// while shared — plus the leaves it has written since, each standing in
/// for the base's leaf at its index for this payload alone (DESIGN.md §13
/// "Payload ownership"). Handing a payload on — a fetch, a second replica,
/// a cache insert, a COW clone — bumps the base's count and copies
/// nothing. A mutator copies or replaces only the leaves it touches: a
/// write that covers a whole leaf replaces it, a partial one copies that
/// leaf first, and no other leaf's count moves. A payload that holds its
/// base alone folds its written leaves back in and then writes in place,
/// so no shadowed leaf outlives its last reader; over a shared base it
/// owns at most a quarter of the table, and a write that would own more
/// takes a table of its own first (one count bump per leaf it does not
/// own). So a fetched payload is a snapshot, and bit rot on one replica
/// cannot reach another copy — per leaf. The counts are not atomic, so a
/// payload stays on the thread that made it (DESIGN.md §13 "One thread,
/// no atomics"):
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<chunkstore::ChunkBuf>();
/// ```
#[derive(Clone)]
pub struct ChunkBuf {
    base: Rc<[Leaf]>,
    /// Where the written leaves stand, ascending: `owned[k]` is this
    /// payload's leaf `at[k]`. Empty while the base is this payload's
    /// alone — as soon as a mutator has run.
    at: Vec<u32>,
    owned: Vec<Leaf>,
    len: usize,
}

/// Over a shared base a payload owns at most `1 / OWNED_SHARE` of its
/// leaves: past that it takes a table of its own, a copy amortised over
/// the leaves already written, which keeps the owned set short to search
/// and bounds what shadowed leaves can keep alive.
const OWNED_SHARE: usize = 4;

/// The shared all-zero chunk of `len` bytes: what a hole reads as, what a
/// fresh chunk starts from and what an implicit-zero parity-group member
/// decodes from. Every leaf of it is the thread's one zero leaf of its
/// length.
pub fn zero_chunk(len: u64) -> ChunkBuf {
    thread_local! {
        static ZEROS: RefCell<Vec<ChunkBuf>> = const { RefCell::new(Vec::new()) };
    }
    ZEROS.with_borrow_mut(|zeros| {
        if let Some(z) = zeros.iter().find(|z| z.len == len as usize) {
            return z.clone();
        }
        let leaves = segments(0, len, PAGE_BYTES).map(|s| zero_leaf(s.take));
        let z = ChunkBuf::from_leaves(leaves.collect(), len);
        zeros.push(z.clone());
        z
    })
}

/// The thread's all-zero leaf of `len` bytes.
fn zero_leaf(len: usize) -> Leaf {
    thread_local! {
        static ZEROS: RefCell<Vec<Leaf>> = const { RefCell::new(Vec::new()) };
    }
    ZEROS.with_borrow_mut(|zeros| {
        if let Some(z) = zeros.iter().find(|z| z.len() == len) {
            return z.clone();
        }
        let z = Leaf::zeroed(len);
        zeros.push(z.clone());
        z
    })
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
            base: leaves.into(),
            at: Vec::new(),
            owned: Vec::new(),
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

    /// Leaf `i`: this payload's own if it wrote one there, else the base's.
    pub fn leaf(&self, i: usize) -> &Leaf {
        if !self.at.is_empty() {
            if let Ok(k) = self.at.binary_search(&(i as u32)) {
                return &self.owned[k];
            }
        }
        &self.base[i]
    }

    /// The leaves in chunk order, as [`Self::leaf`] gives them.
    pub fn leaves(&self) -> impl ExactSizeIterator<Item = &Leaf> + '_ {
        let mut owned = self.at.iter().zip(&self.owned).peekable();
        self.base.iter().enumerate().map(move |(i, base)| {
            match owned.next_if(|&(&at, _)| at as usize == i) {
                Some((_, leaf)) => leaf,
                None => base,
            }
        })
    }

    /// The leaves holding `[off, off + len)`, which must start on a page
    /// boundary and end on one or at the chunk's end — a dirty-page run.
    /// Borrowed where the run is wholly base or wholly written over it, as
    /// a run dirtied since the base was shared is; a run that is both (a
    /// page written in place, then the table shared by a view, then its
    /// neighbour written) comes back as a copy of its handles.
    pub fn leaves_of(&self, off: u64, len: u64) -> Cow<'_, [Leaf]> {
        let (off, end) = (off as usize, (off + len) as usize);
        assert!(
            off.is_multiple_of(PAGE) && (end.is_multiple_of(PAGE) || end == self.len),
            "run is not whole pages"
        );
        let (first, end) = (off / PAGE, end.div_ceil(PAGE));
        let lo = self.at.partition_point(|&at| (at as usize) < first);
        let hi = self.at.partition_point(|&at| (at as usize) < end);
        match hi - lo {
            0 => Cow::Borrowed(&self.base[first..end]),
            n if n == end - first => Cow::Borrowed(&self.owned[lo..hi]),
            _ => Cow::Owned((first..end).map(|i| self.leaf(i).clone()).collect()),
        }
    }

    /// How many leaves this payload has written over a base it shares
    /// (inspection: what a write copied, and what a fold has yet to take
    /// back).
    pub fn owned_leaves(&self) -> usize {
        self.owned.len()
    }

    /// The first `len` bytes as a payload of their own: the whole leaves
    /// shared, a leaf `len` cuts copied short — the run a ragged last
    /// chunk of a file is written from.
    pub fn head(&self, len: usize) -> ChunkBuf {
        assert!(len > 0 && len <= self.len, "head outside the chunk");
        if len == self.len {
            return self.clone();
        }
        let mut leaves: Vec<Leaf> = self.leaves().take(len.div_ceil(PAGE)).cloned().collect();
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
        self.leaves().zip(other.leaves()).filter(same).count()
    }

    /// How many leaves have their sum standing (inspection: what the next
    /// digest will not read).
    pub fn standing_sums(&self) -> usize {
        let standing = |leaf: &&Leaf| leaf.standing().is_some();
        self.leaves().filter(standing).count()
    }

    /// `len` bytes at `pos`, which must lie inside one leaf — the stored
    /// bytes under one piece of a [`PageRun`].
    pub fn piece(&self, pos: u64, len: usize) -> &[u8] {
        let (leaf, within) = (pos as usize / PAGE, pos as usize % PAGE);
        &self.leaf(leaf)[within..within + len]
    }

    /// The zero-init raw CRC-64 register of `stored ⊕ new` over the bytes
    /// `piece` — one piece of a [`PageRun`], placed at `pos` — overwrites:
    /// what an overwrite splices into the recorded digest. A piece that
    /// covers its leaf whole is the XOR of two leaf sums and reads no
    /// stored byte; a partial one absorbs both sides' bytes.
    pub(crate) fn delta_sum(&self, pos: u64, piece: &Leaf) -> u64 {
        let stored = self.leaf(pos as usize / PAGE);
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
                .copy_from_slice(&self.leaf(s.idx)[s.within..s.within + s.take]);
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for leaf in self.leaves() {
            out.extend_from_slice(leaf);
        }
        out
    }

    /// CRC-64/XZ of the chunk, equal to `crc64` of the concatenation:
    /// folded from the leaves' sums, so only a leaf nobody has digested
    /// since it last changed is read.
    pub fn digest(&self) -> u64 {
        crc64_zeros(self.len as u64) ^ sum_of(self.leaves())
    }

    /// Overwrite `bytes.len()` bytes at `off`.
    pub fn write(&mut self, off: usize, bytes: &[u8]) {
        assert!(off + bytes.len() <= self.len, "write outside chunk");
        if bytes.len() == self.len {
            // Nothing of the old payload survives: build a fresh one.
            *self = ChunkBuf::from_bytes(bytes);
            return;
        }
        self.prepare((off + bytes.len()).div_ceil(PAGE) - off / PAGE);
        for s in segments(off as u64, bytes.len() as u64, PAGE_BYTES) {
            let new = &bytes[s.pos..s.pos + s.take];
            if s.take == self.base[s.idx].len() {
                self.replace(s.idx, Leaf::from(new));
            } else {
                self.slot(s.idx).bytes_mut()[s.within..s.within + s.take].copy_from_slice(new);
            }
        }
    }

    /// Land the first `limit` bytes of a run (all of it unless the write
    /// is torn): a piece that covers a whole leaf is handed over — the
    /// chunk and the writer share it, sum and all, from here on — a
    /// partial one is copied into a private copy of the leaf it falls in.
    pub fn write_run(&mut self, (off, pieces): PageRun<'_>, limit: usize) {
        self.land(off, pieces, limit, |buf, idx, within, piece, take| {
            if take == buf.base[idx].len() {
                buf.replace(idx, piece.clone());
            } else {
                buf.slot(idx).bytes_mut()[within..within + take].copy_from_slice(&piece[..take]);
            }
        });
    }

    /// XOR the first `limit` bytes of a run into the chunk. A standing sum
    /// survives a whole-leaf XOR by linearity: `sum ^= sum(piece)`.
    pub fn xor_run(&mut self, (off, pieces): PageRun<'_>, limit: usize) {
        self.land(off, pieces, limit, |buf, idx, within, piece, take| {
            let stored = buf.slot(idx);
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
    /// bytes: `put(chunk, leaf index, offset within it, piece, bytes to
    /// land)`.
    fn land(
        &mut self,
        off: u64,
        pieces: &[Leaf],
        limit: usize,
        mut put: impl FnMut(&mut ChunkBuf, usize, usize, &Leaf, usize),
    ) {
        self.prepare(pieces.len());
        let (mut pos, mut left) = (off as usize, limit);
        for piece in pieces {
            if left == 0 {
                break;
            }
            assert!(pos + piece.len() <= self.len, "run outside chunk");
            let (idx, within) = (pos / PAGE, pos % PAGE);
            assert!(
                within + piece.len() <= self.base[idx].len(),
                "run piece straddles a page boundary"
            );
            let take = piece.len().min(left);
            put(self, idx, within, piece, take);
            pos += piece.len();
            left -= take;
        }
    }

    /// Flip the byte at `at` (XOR 0xFF): bit rot.
    pub fn flip(&mut self, at: usize) {
        self.prepare(1);
        self.slot(at / PAGE).bytes_mut()[at % PAGE] ^= 0xFF;
    }

    /// Zero every byte from `at` on: the tail a torn fresh write never
    /// persisted. Leaves wholly past `at` become the shared zero leaf.
    pub fn zero_from(&mut self, at: usize) {
        self.prepare(self.base.len() - at / PAGE);
        for s in segments(at as u64, (self.len - at) as u64, PAGE_BYTES) {
            if s.take == self.base[s.idx].len() {
                self.replace(s.idx, zero_leaf(s.take));
            } else {
                self.slot(s.idx).bytes_mut()[s.within..].fill(0);
            }
        }
    }

    /// Is the base this payload's alone? (No `Weak` handle is ever made.)
    fn holds_base_alone(&self) -> bool {
        Rc::strong_count(&self.base) == 1
    }

    /// Hold a table of this payload's own, owning no leaf over it: the
    /// written leaves folded back into the base if nobody else holds it,
    /// else into a copy of it (one count bump per leaf not owned). What a
    /// write-back that keeps its cache entry runs first, so the
    /// benefactor's copy it shared the base with lands in place.
    pub fn own_table(&mut self) {
        if let Some(table) = Rc::get_mut(&mut self.base) {
            for (at, leaf) in self.at.drain(..).zip(self.owned.drain(..)) {
                table[at as usize] = leaf;
            }
            return;
        }
        let mut owned = self.at.drain(..).zip(self.owned.drain(..)).peekable();
        let mut leaf = |(i, base): (usize, &Leaf)| match owned.next_if(|&(at, _)| at as usize == i)
        {
            Some((_, leaf)) => leaf,
            None => base.clone(),
        };
        let table: Rc<[Leaf]> = self.base.iter().enumerate().map(&mut leaf).collect();
        self.base = table;
    }

    /// Ready the payload for a mutator that touches up to `touched`
    /// leaves: a base held alone takes the written leaves back; a shared
    /// one that this payload would own more than its share of is traded
    /// for a table of its own.
    fn prepare(&mut self, touched: usize) {
        if self.holds_base_alone() || self.owned.len() + touched > self.base.len() / OWNED_SHARE {
            self.own_table();
        }
    }

    /// Leaf `idx` for a partial write, once [`Self::prepare`] has run: the
    /// base's handle if the base is this payload's alone, else an owned
    /// one — on first touch a second handle on the base's leaf, which
    /// `Leaf::bytes_mut` then copies.
    fn slot(&mut self, idx: usize) -> &mut Leaf {
        if self.holds_base_alone() {
            return &mut Rc::get_mut(&mut self.base).expect("held alone")[idx];
        }
        let k = match self.at.binary_search(&(idx as u32)) {
            Ok(k) => k,
            Err(k) => {
                self.at.insert(k, idx as u32);
                self.owned.insert(k, self.base[idx].clone());
                k
            }
        };
        &mut self.owned[k]
    }

    /// Put `leaf` at `idx`, once [`Self::prepare`] has run, without
    /// touching the leaf it replaces.
    fn replace(&mut self, idx: usize, leaf: Leaf) {
        if self.holds_base_alone() {
            Rc::get_mut(&mut self.base).expect("held alone")[idx] = leaf;
            return;
        }
        match self.at.binary_search(&(idx as u32)) {
            Ok(k) => self.owned[k] = leaf,
            Err(k) => {
                self.at.insert(k, idx as u32);
                self.owned.insert(k, leaf);
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
            self.base.len()
        )
    }
}

impl Index<usize> for ChunkBuf {
    type Output = u8;

    fn index(&self, at: usize) -> &u8 {
        &self.leaf(at / PAGE)[at % PAGE]
    }
}

impl PartialEq<[u8]> for ChunkBuf {
    fn eq(&self, bytes: &[u8]) -> bool {
        self.len == bytes.len()
            && segments(0, self.len as u64, PAGE_BYTES)
                .zip(self.leaves())
                .all(|(s, leaf)| leaf[..] == bytes[s.pos..s.pos + s.take])
    }
}

/// Same bytes (tests and benches compare payloads; nothing on a data path
/// does).
impl PartialEq for ChunkBuf {
    fn eq(&self, other: &ChunkBuf) -> bool {
        self.len == other.len
            && self
                .leaves()
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
        assert!(Leaf::ptr_eq(z.leaf(0), z.leaf(1)));
        assert_eq!(z.leaf(2).len(), 10_000 - 2 * 4096);
        assert!(z == vec![0u8; 10_000][..]);
        // A second handle, and a chunk of another length, reuse the leaf.
        let other = zero_chunk(256 * 1024);
        assert!(Leaf::ptr_eq(z.leaf(0), other.leaf(63)));
        assert!(Rc::ptr_eq(&z.base, &zero_chunk(10_000).base));
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
        let shared = |i: usize| Leaf::ptr_eq(base.leaf(i), w.leaf(i));
        assert!(shared(0) && !shared(1) && !shared(2));
        assert!(base == [7u8; 3 * 4096][..], "the snapshot kept its bytes");
        assert_eq!((w[4095], w[4096], w[8192 + 4], w[8192 + 5]), (7, 1, 7, 2));
    }

    #[test]
    fn an_8_byte_write_into_a_clone_owns_one_leaf_and_bumps_no_other_count() {
        let bytes = fill(64 * 4096, 0x11);
        let source = ChunkBuf::from_bytes(&bytes);
        let mut clone = source.clone();
        clone.write(5 * 4096 + 100, &[0xAB; 8]);
        assert_eq!((clone.owned_leaves(), source.owned_leaves()), (1, 0));
        assert_eq!(clone.shared_leaves(&source), 63);
        assert!(source == bytes[..], "the source kept its bytes");
        assert_eq!(source.digest(), crc64(&bytes));
        assert_eq!(
            (clone[5 * 4096 + 99], clone[5 * 4096 + 100]),
            (bytes[5 * 4096 + 99], 0xAB)
        );
        // The two share one table, and each of its leaves is held by that
        // table alone: the write moved no count but the copied leaf's.
        assert!(Rc::ptr_eq(&source.base, &clone.base));
        assert!(source
            .leaves()
            .all(|leaf| Rc::strong_count(&leaf.block) == 1));
        // Once the source goes, the next write folds the owned leaf back
        // and lands in place.
        drop(source);
        clone.write(7 * 4096, &[0xCD; 8]);
        assert_eq!(clone.owned_leaves(), 0);
        assert_eq!((clone[5 * 4096 + 100], clone[7 * 4096]), (0xAB, 0xCD));
    }

    #[test]
    fn a_clone_that_would_own_over_a_quarter_takes_a_table_of_its_own() {
        let bytes = fill(64 * 4096, 0x22);
        let source = ChunkBuf::from_bytes(&bytes);
        let mut clone = source.clone();
        for page in 0..16 {
            clone.write(page * 4096 + 1, &[1]);
        }
        assert_eq!(clone.owned_leaves(), 16);
        clone.write(16 * 4096 + 1, &[1]);
        assert_eq!(clone.owned_leaves(), 0, "the 17th leaf un-shared the table");
        assert!(!Rc::ptr_eq(&source.base, &clone.base));
        assert_eq!(clone.shared_leaves(&source), 64 - 17);
        assert!(source == bytes[..]);
    }

    #[test]
    fn leaves_of_borrows_a_run_that_is_all_owned_or_all_base() {
        let source = ChunkBuf::from_bytes(&fill(8 * 4096, 0x33));
        let mut buf = source.clone();
        buf.write(2 * 4096, &[9u8; 2 * 4096]); // leaves 2 and 3, owned
        let borrowed = |run: &Cow<'_, [Leaf]>| matches!(run, Cow::Borrowed(_));
        let owned = buf.leaves_of(2 * 4096, 2 * 4096);
        assert!(borrowed(&owned) && Leaf::ptr_eq(&owned[1], buf.leaf(3)));
        let base = buf.leaves_of(4 * 4096, 4 * 4096);
        assert!(borrowed(&base) && Leaf::ptr_eq(&base[0], source.leaf(4)));
        // Part owned, part base: a copy of the handles, in chunk order.
        let mixed = buf.leaves_of(4096, 2 * 4096);
        assert!(!borrowed(&mixed));
        assert!(Leaf::ptr_eq(&mixed[0], source.leaf(1)) && Leaf::ptr_eq(&mixed[1], buf.leaf(2)));
    }

    #[test]
    fn a_whole_page_piece_is_handed_over_a_torn_one_is_copied() {
        let run = cut_runs(&[(4096, &[9u8; 8192][..])]);
        let mut stored = zero_chunk(4 * 4096);
        stored.write_run((4096, &run[0].1), usize::MAX);
        assert!(Leaf::ptr_eq(stored.leaf(1), &run[0].1[0]));
        assert!(Leaf::ptr_eq(stored.leaf(2), &run[0].1[1]));
        // Torn at a byte count inside the second piece: the first is
        // still handed over, the straddled one lands by copy.
        let mut torn = zero_chunk(4 * 4096);
        torn.write_run((4096, &run[0].1), 4096 + 100);
        assert!(Leaf::ptr_eq(torn.leaf(1), &run[0].1[0]));
        assert!(!Leaf::ptr_eq(torn.leaf(2), &run[0].1[1]));
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
        buf.leaves().map(standing).collect()
    }

    /// Every standing sum of `buf` is what a recompute gives.
    fn sums_are_true(buf: &ChunkBuf) -> bool {
        let ok = |leaf: &Leaf| {
            leaf.standing()
                .is_none_or(|sum| sum == crc64_absorb_raw(0, leaf))
        };
        buf.leaves().all(ok)
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
        /// taken. Dropping the oldest clone runs every mutator over a base
        /// that has just become the handle's alone: after a mutator, such a
        /// base shadows no leaf, and a shared one at most a quarter.
        #[test]
        fn mutators_match_a_flat_model_and_clones_are_snapshots(
            len in prop_oneof![Just(256usize), Just(4096usize), Just(10_000usize), Just(256 * 1024usize)],
            ops in proptest::collection::vec((0u8..8, any::<u32>(), any::<u32>(), any::<u8>()), 1..14),
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
                        prop_assert!(Leaf::ptr_eq(buf.leaf(page / PAGE), &leaf));
                        flat[page..page + n].copy_from_slice(&leaf);
                    }
                    5 => {
                        buf.flip(off);
                        flat[off] ^= 0xFF;
                    }
                    6 => {
                        if tag % 4 == 0 {
                            buf.zero_from(off);
                            flat[off..].fill(0);
                        }
                        snapshots.push((buf.clone(), flat.clone()));
                    }
                    _ => {
                        // The oldest snapshot goes: the next mutator may
                        // find the base its own and fold.
                        if !snapshots.is_empty() {
                            snapshots.remove(0);
                        }
                    }
                }
                if op != 7 && Rc::strong_count(&buf.base) == 1 {
                    prop_assert_eq!(buf.owned_leaves(), 0, "a leaf shadowed in a base held alone");
                }
                prop_assert!(buf.owned_leaves() <= buf.leaves().len() / OWNED_SHARE);
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
