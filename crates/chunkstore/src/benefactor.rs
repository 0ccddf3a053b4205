//! The benefactor process: contributes a node-local SSD (or a partition of
//! it) to the aggregate store and serves chunk reads/writes from it.
//!
//! Benefactors store every chunk as an individual object ("benefactors
//! store chunks as individual files", §III-D). Space accounting follows
//! the manager's reservation protocol: a `posix_fallocate` on a striped
//! file reserves whole chunk slots here before any data moves.

use crate::bitalloc::BitAlloc;
use crate::ids::{ChunkId, IdMap};
use crate::payload::{run_len, ChunkBuf, PageRun};
use devices::Ssd;
use simcore::rng::child_seed;
use simcore::{Grant, VTime};

/// One benefactor's state: its SSD, its chunk objects and its space books.
///
/// Space accounting is a two-level bitmap tree ([`BitAlloc`]) over the
/// benefactor's chunk slots: every reservation and every materialized
/// chunk owns exactly one slot bit. Free space is the allocator's O(1)
/// folded counter, and the whole allocation state is recoverable from
/// the leaf bitmap alone (DESIGN.md §13).
#[derive(Debug)]
pub struct Benefactor {
    /// Cluster node hosting this benefactor (for network routing).
    pub node: usize,
    /// The contributed device.
    ssd: Ssd,
    /// Contributed capacity in bytes (≤ the SSD's size).
    capacity: u64,
    /// Slot allocator: one bit per chunk-sized slot of `capacity`.
    slots: BitAlloc,
    /// Slots reserved by fallocate but not yet materialized (LIFO).
    reserved: Vec<usize>,
    /// Materialized chunks currently stored, each bound to its slot.
    chunks: IdMap<ChunkId, (usize, ChunkBuf)>,
    alive: bool,
    /// Excluded from placement by the scrub daemon (DESIGN.md §11):
    /// existing copies stay readable and repairable-from, but no new
    /// chunk lands here.
    quarantined: bool,
    /// One-shot torn-write arm: the next chunk write persists only the
    /// first half of each dirty run (fault injection).
    torn_armed: bool,
    /// Persistent media degradation: probability (basis points) that a
    /// chunk write flips a stored byte, with its seed-stable draw stream.
    corrupt_rate_bp: u32,
    corrupt_seed: u64,
    corrupt_stream: u64,
    chunk_size: u64,
}

impl Benefactor {
    pub fn new(node: usize, ssd: Ssd, capacity: u64, chunk_size: u64) -> Self {
        Benefactor {
            node,
            ssd,
            capacity,
            slots: BitAlloc::new((capacity / chunk_size) as usize),
            reserved: Vec::new(),
            chunks: IdMap::default(),
            alive: true,
            quarantined: false,
            torn_armed: false,
            corrupt_rate_bp: 0,
            corrupt_seed: 0,
            corrupt_stream: 0,
            chunk_size,
        }
    }

    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Take the benefactor offline (simulated failure / decommission).
    ///
    /// Crate-internal: external callers go through `Manager::set_alive`,
    /// which also maintains the incremental alive/placeable sets.
    pub(crate) fn set_alive(&mut self, alive: bool) {
        self.alive = alive;
    }

    /// Whether the scrub daemon has excluded this benefactor from placement.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Crate-internal: external callers go through `Manager::set_quarantined`.
    pub(crate) fn set_quarantined(&mut self, quarantined: bool) {
        self.quarantined = quarantined;
    }

    /// Eligible to receive new chunks: online and not quarantined.
    pub fn is_placeable(&self) -> bool {
        self.alive && !self.quarantined
    }

    /// Arm a one-shot torn write: the next chunk write on this benefactor
    /// persists only the first half of each dirty run.
    pub fn arm_torn_write(&mut self) {
        self.torn_armed = true;
    }

    /// Install a persistent per-write corruption rate (basis points). Each
    /// subsequent chunk write draws from a seed-stable stream and, when the
    /// draw lands under the rate, flips one stored byte.
    pub fn set_corruption_rate(&mut self, rate_bp: u32, seed: u64) {
        self.corrupt_rate_bp = rate_bp;
        self.corrupt_seed = seed;
        self.corrupt_stream = 0;
    }

    /// Flip one stored byte of `id` (XOR 0xFF at `offset` mod chunk size).
    /// Returns false when the chunk is not present here. Data-only: no
    /// virtual time is charged — silent corruption is free by definition.
    pub fn corrupt_chunk(&mut self, id: ChunkId, offset: u64) -> bool {
        match self.chunks.get_mut(&id) {
            Some((_, data)) => {
                data.flip((offset % self.chunk_size) as usize);
                true
            }
            None => false,
        }
    }

    /// Apply the persistent corruption-rate draw after a chunk write.
    fn degrade_after_write(&mut self, id: ChunkId) {
        if self.corrupt_rate_bp == 0 {
            return;
        }
        let draw = child_seed(self.corrupt_seed, self.corrupt_stream);
        self.corrupt_stream += 1;
        if draw % 10_000 < self.corrupt_rate_bp as u64 {
            let off = child_seed(self.corrupt_seed, self.corrupt_stream);
            self.corrupt_stream += 1;
            self.corrupt_chunk(id, off % self.chunk_size);
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of capacity consumed by reservations + materialized chunks.
    /// O(1): the allocator's folded counter.
    pub fn used(&self) -> u64 {
        self.slots.allocated() as u64 * self.chunk_size
    }

    /// O(1): free slots × chunk size.
    pub fn free(&self) -> u64 {
        self.slots.free_count() as u64 * self.chunk_size
    }

    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The slot allocator itself (read-only; for consistency checks).
    pub fn slot_allocator(&self) -> &BitAlloc {
        &self.slots
    }

    /// Reserve `slots` chunk slots; the manager has already verified space.
    pub(crate) fn reserve_slots(&mut self, slots: u64) {
        for _ in 0..slots {
            let s = self.slots.alloc().expect("reservation beyond capacity");
            self.reserved.push(s);
        }
    }

    pub(crate) fn release_slots(&mut self, slots: u64) {
        assert!(
            self.reserved.len() as u64 >= slots,
            "slot accounting underflow"
        );
        for _ in 0..slots {
            let s = self.reserved.pop().unwrap();
            self.slots.release(s);
        }
    }

    /// Whether a chunk slot can be converted or newly allocated right now.
    pub(crate) fn can_allocate_chunk(&self, consumes_reservation: bool) -> bool {
        if consumes_reservation {
            !self.reserved.is_empty()
        } else {
            self.slots.free_count() > 0
        }
    }

    /// Materialize a chunk, charging the SSD for writing `payload_bytes`
    /// (which may be less than a full chunk when only dirty pages arrive).
    pub(crate) fn store_chunk(
        &mut self,
        t: VTime,
        id: ChunkId,
        mut data: ChunkBuf,
        payload_bytes: u64,
        consumes_reservation: bool,
    ) -> Grant {
        // Release-mode check: a payload of the wrong length would land its
        // later page runs past the end without a trace. (That its leaves
        // cover the length on the one page grid, `ChunkBuf` guarantees.)
        assert_eq!(data.len() as u64, self.chunk_size, "payload length");
        // A materialized chunk owns one slot bit: either the reservation's
        // (handed over here) or a freshly allocated one.
        let slot = if consumes_reservation {
            self.reserved.pop().expect("slot accounting underflow")
        } else {
            self.slots.alloc().expect("chunk store over capacity")
        };
        if self.torn_armed {
            // Torn write on a fresh materialization: the tail of the chunk
            // never reaches the media, leaving the pre-image (zeros).
            self.torn_armed = false;
            data.zero_from(data.len() / 2);
        }
        let prev = self.chunks.insert(id, (slot, data));
        assert!(prev.is_none(), "chunk {id} stored twice");
        self.degrade_after_write(id);
        self.ssd.write_at(t, payload_bytes)
    }

    /// Overwrite pages of an existing chunk, charging only the dirty bytes.
    /// Whole-page pieces are handed over, not copied ([`ChunkBuf::write_run`]).
    pub(crate) fn update_chunk(&mut self, t: VTime, id: ChunkId, updates: &[PageRun<'_>]) -> Grant {
        self.land_runs(t, id, updates, ChunkBuf::write_run)
    }

    /// XOR runs into an existing chunk — a parity delta applied where the
    /// parity lives. Charged, torn and degraded exactly like
    /// [`Self::update_chunk`] writing `old ⊕ delta`.
    pub(crate) fn xor_chunk(&mut self, t: VTime, id: ChunkId, deltas: &[PageRun<'_>]) -> Grant {
        self.land_runs(t, id, deltas, ChunkBuf::xor_run)
    }

    /// Land dirty runs on a stored chunk through `land(chunk, run, bytes
    /// that persist)`.
    fn land_runs(
        &mut self,
        t: VTime,
        id: ChunkId,
        runs: &[PageRun<'_>],
        land: impl Fn(&mut ChunkBuf, PageRun<'_>, usize),
    ) -> Grant {
        let torn = self.torn_armed;
        self.torn_armed = false;
        let (_, chunk) = self.chunks.get_mut(&id).expect("update of missing chunk");
        let mut bytes = 0u64;
        for &(off, pieces) in runs {
            let len = run_len(pieces) as usize;
            // Torn write: only the first half of each dirty run reaches the
            // media; the tail keeps the old bytes. The SSD is still charged
            // for the intended write — the failure is in durability, not time.
            let persisted = if torn { len / 2 } else { len };
            land(chunk, (off, pieces), persisted);
            bytes += len as u64;
        }
        self.degrade_after_write(id);
        self.ssd.write_at(t, bytes)
    }

    /// Read a whole chunk, charging the SSD. The payload shares the stored
    /// leaves; a later write here un-shares what it touches first, so it
    /// stays a snapshot.
    pub(crate) fn read_chunk(&self, t: VTime, id: ChunkId) -> (Grant, ChunkBuf) {
        let (_, data) = self.chunks.get(&id).expect("read of missing chunk");
        (self.ssd.read_at(t, self.chunk_size), data.clone())
    }

    /// Read a chunk without charging time (debugging/inspection).
    pub fn peek_chunk(&self, id: ChunkId) -> Option<&ChunkBuf> {
        self.chunks.get(&id).map(|(_, b)| b)
    }

    /// Drop a chunk and free its slot.
    pub(crate) fn drop_chunk(&mut self, id: ChunkId) {
        let (slot, _) = self.chunks.remove(&id).expect("dropping missing chunk");
        self.slots.release(slot);
    }

    /// Whether this benefactor currently stores `id`.
    pub fn has_chunk(&self, id: ChunkId) -> bool {
        self.chunks.contains_key(&id)
    }

    /// The slot `id` is materialized in, if stored here — what the
    /// metadata journal records so crash recovery can rebuild the slot
    /// bitmap (DESIGN.md §16).
    pub fn slot_of(&self, id: ChunkId) -> Option<usize> {
        self.chunks.get(&id).map(|(slot, _)| *slot)
    }

    /// Every chunk physically present on this benefactor, sorted (for
    /// deterministic reconcile/repair sweeps).
    pub fn chunk_ids(&self) -> Vec<ChunkId> {
        let mut ids: Vec<ChunkId> = self.chunks.keys().copied().collect();
        ids.sort_unstable_by_key(|c| c.0);
        ids
    }

    /// Duplicate a chunk's bytes into a new chunk id on this benefactor,
    /// charging a local SSD read + write (the server-side COW path used
    /// when a shared chunk is modified without the client holding all of
    /// its clean bytes). Host-side the two ids share every leaf until a
    /// write to either replaces it.
    pub(crate) fn clone_chunk(&mut self, t: VTime, src: ChunkId, dst: ChunkId) -> Grant {
        let (_, data) = self.chunks.get(&src).expect("clone of missing chunk");
        let data = data.clone();
        let slot = self.slots.alloc().expect("chunk store over capacity");
        let g_read = self.ssd.read_at(t, self.chunk_size);
        let prev = self.chunks.insert(dst, (slot, data));
        assert!(prev.is_none(), "clone target {dst} exists");
        self.ssd.write_at(g_read.end, self.chunk_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{cut_runs, run_views, Leaf};
    use devices::INTEL_X25E;
    use simcore::StatsRegistry;

    const CHUNK: u64 = 256 * 1024;

    fn bene(cap_chunks: u64) -> Benefactor {
        let ssd = Ssd::new("b0.ssd", INTEL_X25E, &StatsRegistry::new());
        Benefactor::new(0, ssd, cap_chunks * CHUNK, CHUNK)
    }

    fn zero_chunk() -> ChunkBuf {
        crate::payload::zero_chunk(CHUNK)
    }

    /// `update_chunk` with byte runs, cut the way `write_pages` cuts them.
    fn update(b: &mut Benefactor, id: ChunkId, runs: &[(u64, &[u8])]) {
        let cut = cut_runs(runs);
        b.update_chunk(VTime::ZERO, id, &run_views(&cut));
    }

    #[test]
    fn space_accounting_reserve_then_materialize() {
        let mut b = bene(4);
        b.reserve_slots(2);
        assert_eq!(b.used(), 2 * CHUNK);
        b.store_chunk(VTime::ZERO, ChunkId(1), zero_chunk(), CHUNK, true);
        assert_eq!(b.used(), 2 * CHUNK, "materialization keeps the slot");
        assert_eq!(b.chunk_count(), 1);
        assert_eq!(b.free(), 2 * CHUNK);
    }

    #[test]
    fn store_and_read_roundtrip() {
        let mut b = bene(4);
        b.reserve_slots(1);
        let mut data = zero_chunk();
        data.write(7, &[42]);
        b.store_chunk(VTime::ZERO, ChunkId(9), data, CHUNK, true);
        let (_, read) = b.read_chunk(VTime::ZERO, ChunkId(9));
        assert_eq!(read[7], 42);
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn store_chunk_rejects_a_short_payload() {
        let mut b = bene(2);
        let half = crate::payload::zero_chunk(CHUNK / 2);
        b.store_chunk(VTime::ZERO, ChunkId(1), half, CHUNK, false);
    }

    #[test]
    fn update_charges_only_dirty_bytes() {
        let mut b = bene(4);
        b.reserve_slots(1);
        b.store_chunk(VTime::ZERO, ChunkId(1), zero_chunk(), CHUNK, true);
        let before = b.ssd().bytes_written();
        let (_, snapshot) = b.read_chunk(VTime::ZERO, ChunkId(1));
        let page = cut_runs(&[(4096, &[1u8; 4096][..])]);
        b.update_chunk(VTime::ZERO, ChunkId(1), &run_views(&page));
        assert_eq!(b.ssd().bytes_written() - before, 4096);
        let (_, read) = b.read_chunk(VTime::ZERO, ChunkId(1));
        assert_eq!(read[4096], 1);
        assert_eq!(read[0], 0);
        assert_eq!(read[8192], 0);
        // The whole page was handed over, not copied; the earlier read is
        // a snapshot that still shares the 63 leaves nobody wrote.
        assert!(Leaf::ptr_eq(read.leaf(1), &page[0].1[0]));
        assert!(snapshot == vec![0u8; CHUNK as usize][..]);
        assert_eq!(snapshot.shared_leaves(&read), 63);
    }

    #[test]
    fn clone_chunk_copies_data() {
        let mut b = bene(4);
        b.reserve_slots(1);
        let mut data = zero_chunk();
        data.write(100, &[5]);
        b.store_chunk(VTime::ZERO, ChunkId(1), data, CHUNK, true);
        b.clone_chunk(VTime::ZERO, ChunkId(1), ChunkId(2));
        let (_, read) = b.read_chunk(VTime::ZERO, ChunkId(2));
        assert_eq!(read[100], 5);
        assert!(b.has_chunk(ChunkId(1)));
        assert_eq!(b.chunk_count(), 2);
        // Source and clone share every leaf only until a write to
        // either: the COW update and rot each stay on their own chunk.
        update(&mut b, ChunkId(2), &[(100, &[6u8])]);
        b.corrupt_chunk(ChunkId(1), 7);
        let (src, dst) = (b.peek_chunk(ChunkId(1)), b.peek_chunk(ChunkId(2)));
        let (src, dst) = (src.unwrap(), dst.unwrap());
        assert_eq!((src[100], src[7]), (5, 0xFF));
        assert_eq!((dst[100], dst[7]), (6, 0));
        // Both landed in leaf 0: each side has its own, the other 63 are
        // still one allocation each.
        assert_eq!(src.shared_leaves(dst), 63);
    }

    #[test]
    fn drop_chunk_frees_space() {
        let mut b = bene(2);
        b.reserve_slots(1);
        b.store_chunk(VTime::ZERO, ChunkId(1), zero_chunk(), CHUNK, true);
        assert_eq!(b.used(), CHUNK);
        b.drop_chunk(ChunkId(1));
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn slot_state_recoverable_from_leaf_bitmap() {
        // Crash-recovery claim (DESIGN.md §13): the leaf bitmap alone is
        // the allocation state — summaries and counters rebuild from it.
        let mut b = bene(8);
        b.reserve_slots(3);
        b.store_chunk(VTime::ZERO, ChunkId(1), zero_chunk(), CHUNK, true);
        b.store_chunk(VTime::ZERO, ChunkId(2), zero_chunk(), CHUNK, false);
        b.drop_chunk(ChunkId(1));
        b.release_slots(1);
        let live = b.slot_allocator();
        let rebuilt = BitAlloc::from_leaf(live.leaf_words().to_vec(), live.len());
        assert_eq!(rebuilt.free_count(), live.free_count());
        assert_eq!(rebuilt.allocated(), live.allocated());
        for s in 0..live.len() {
            assert_eq!(rebuilt.is_allocated(s), live.is_allocated(s));
        }
        rebuilt.assert_consistent();
    }

    #[test]
    fn can_allocate_checks() {
        let mut b = bene(1);
        assert!(b.can_allocate_chunk(false));
        assert!(!b.can_allocate_chunk(true), "no reservation yet");
        b.reserve_slots(1);
        assert!(b.can_allocate_chunk(true));
        assert!(!b.can_allocate_chunk(false), "capacity exhausted");
    }

    #[test]
    fn alive_flag() {
        let mut b = bene(1);
        assert!(b.is_alive());
        b.set_alive(false);
        assert!(!b.is_alive());
    }

    #[test]
    fn quarantine_blocks_placement_eligibility() {
        let mut b = bene(2);
        assert!(b.is_placeable());
        b.set_quarantined(true);
        assert!(b.is_quarantined());
        assert!(!b.is_placeable(), "quarantined benefactor is not placeable");
        assert!(b.is_alive(), "quarantine is not death");
        b.set_quarantined(false);
        assert!(b.is_placeable());
    }

    #[test]
    fn corrupt_chunk_flips_one_byte() {
        let mut b = bene(2);
        b.reserve_slots(1);
        b.store_chunk(VTime::ZERO, ChunkId(1), zero_chunk(), CHUNK, true);
        assert!(b.corrupt_chunk(ChunkId(1), 4096));
        let data = b.peek_chunk(ChunkId(1)).unwrap();
        assert_eq!(data[4096], 0xFF);
        assert_eq!(data[4095], 0);
        assert_eq!(data[4097], 0);
        // The rot took a private copy of the one leaf it hit: the shared
        // zero chunk (and every other holder of it) is untouched.
        assert!(zero_chunk() == vec![0u8; CHUNK as usize][..]);
        assert_eq!(zero_chunk().shared_leaves(data), 63);
        assert!(!b.corrupt_chunk(ChunkId(99), 0), "missing chunk untouched");
    }

    #[test]
    fn torn_store_drops_the_tail() {
        let mut b = bene(2);
        b.reserve_slots(1);
        b.arm_torn_write();
        let data = ChunkBuf::from_bytes(&vec![7u8; CHUNK as usize]);
        b.store_chunk(VTime::ZERO, ChunkId(1), data.clone(), CHUNK, true);
        let stored = b.peek_chunk(ChunkId(1)).unwrap();
        let half = CHUNK as usize / 2;
        assert_eq!(stored[half - 1], 7, "head persisted");
        assert_eq!(stored[half], 0, "tail torn back to the pre-image");
        assert_eq!(stored[CHUNK as usize - 1], 0);
        // The tear is on the stored copy alone: the writer's handle keeps
        // its bytes and still shares the half that landed.
        assert!(data == vec![7u8; CHUNK as usize][..]);
        assert_eq!(data.shared_leaves(stored), 32);
        // One-shot: the next write is whole.
        b.reserve_slots(1);
        let data = ChunkBuf::from_bytes(&vec![9u8; CHUNK as usize]);
        b.store_chunk(VTime::ZERO, ChunkId(2), data, CHUNK, true);
        assert_eq!(b.peek_chunk(ChunkId(2)).unwrap()[CHUNK as usize - 1], 9);
    }

    #[test]
    fn torn_update_keeps_old_tail_but_charges_full_write() {
        let mut b = bene(2);
        b.reserve_slots(1);
        b.store_chunk(VTime::ZERO, ChunkId(1), zero_chunk(), CHUNK, true);
        b.arm_torn_write();
        let before = b.ssd().bytes_written();
        let run = vec![3u8; 8192];
        update(&mut b, ChunkId(1), &[(0, &run)]);
        assert_eq!(
            b.ssd().bytes_written() - before,
            8192,
            "timing/wear charge is for the intended write"
        );
        let data = b.peek_chunk(ChunkId(1)).unwrap();
        assert_eq!(data[4095], 3, "first half of the run landed");
        assert_eq!(data[4096], 0, "second half kept the old bytes");
        // ... in the leaf it had: only the page that landed left the
        // shared zero chunk.
        assert_eq!(zero_chunk().shared_leaves(data), 63);
    }

    #[test]
    fn corruption_rate_is_seed_stable() {
        let run = |seed: u64| -> Vec<Vec<u8>> {
            let mut b = bene(8);
            b.set_corruption_rate(5_000, seed);
            (0..6)
                .map(|i| {
                    b.reserve_slots(1);
                    b.store_chunk(VTime::ZERO, ChunkId(i), zero_chunk(), CHUNK, true);
                    b.peek_chunk(ChunkId(i)).unwrap().to_vec()
                })
                .collect()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same corruption");
        let corrupted = a.iter().filter(|c| c.iter().any(|&x| x != 0)).count();
        assert!(corrupted > 0, "a 50% rate corrupts some of six writes");
        assert!(corrupted < 6, "…but not every write");
    }
}
