//! CRC64 checksums for chunk integrity (DESIGN.md §11, §13).
//!
//! Every materialized chunk's full 256 KiB content is summarized by a
//! CRC-64/XZ digest kept in the manager's chunk metadata. The reflected
//! ECMA-182 polynomial is the same one `xz` and the Linux kernel use, so
//! digests computed here are directly comparable with standard tooling.
//!
//! The store checksums every page it is handed and vets a whole chunk
//! before every partial overwrite under `verify_reads`, so this sits on
//! the data path and needs to run at memory-ish speed without pulling in
//! an external crate. (A page is run through it once: `payload.rs` keeps
//! each leaf's register beside its bytes and composes chunk digests from
//! those — "Incremental updates" below.) Two kernels sit behind every
//! entry point, picked by what the code can observe — the CPU and the
//! input length:
//!
//! * **carry-less-multiply fold** — on an `x86_64` with `pclmulqdq`
//!   (detected at run time), an input of two 128-byte blocks or more is
//!   folded 128 bytes per step: eight 16-byte accumulators, each moved
//!   1024 bits up the message by two multiplies with the constants
//!   `x^(1024+63) mod P` and `x^(1024−1) mod P` (derived from `POLY` at
//!   compile time) and XOR-ed with the next block. The incoming register
//!   rides in on the first 8 bytes. What is left — 128 bytes of fold
//!   state, congruent to everything folded so far, and the unfolded
//!   tail — is **finished by the table kernel from a zero register**: no
//!   Barrett reduction and no second set of constants. Its unaligned
//!   vector loads make it one of the crate's two functions outside safe
//!   Rust (the other is the GF(2^8) multiply in `rs.rs`; DESIGN.md §13).
//! * **table kernel** — compile-time slice-by-8 tables, in safe Rust: the
//!   portable kernel, the finisher of every fold, and the reference the
//!   tests hold the fold against. A slice-by-8 register is latency-bound
//!   (each step's eight table loads wait on the previous step's result,
//!   ~1.3 GiB/s), so an input of 2 KiB or more is cut into four equal
//!   8-byte-aligned **lanes** whose four independent registers advance in
//!   one loop (~3.9 GiB/s) and combine by linearity, `raw(s, A‖B) =
//!   advance(raw(s, A), |B|) ⊕ raw(0, B)`, with three
//!   [`crc64_advance_zeros`] steps of one lane length each (O(log lane),
//!   ~35 ns per set bit of the length). What is left after the lanes, and
//!   any input under 2 KiB (journal records, sub-page runs, a fold's
//!   finish), runs through the same function's one-register loop.
//!
//! ## Incremental updates
//!
//! CRC is linear over GF(2): for equal-length messages,
//! `crc(M ⊕ D) = crc(M) ⊕ raw(D)` where `raw` is the init-free,
//! xorout-free register. A partial overwrite of a chunk is the XOR of a
//! delta that is zero outside the dirty run, and leading zero bytes do
//! not move a zero raw register, so the whole-chunk digest can be
//! updated from just the dirty bytes: absorb `old ⊕ new` into a zero
//! register, advance it over the trailing zero bytes in O(log n) via
//! precomputed GF(2) shift operators ([`crc64_splice`]), and XOR into
//! the recorded digest. This turns the per-page write-back digest from
//! O(chunk) to O(dirty bytes) — the dominant host-time cost of the
//! simulator's write path (EXPERIMENTS.md, host-speed table).
//!
//! The same identity composes a digest from parts: `raw(0, A‖B) =
//! advance(raw(0, A), |B|) ⊕ raw(0, B)`, so the register of a chunk is a
//! Horner fold of its pages' registers, one advance-by-a-page per step
//! ([`ZeroAdvance`]: the O(log n) operator product for one fixed `n`
//! flattened into eight byte-indexed lookups), and
//! `crc64(M) = crc64_zeros(|M|) ⊕ raw(0, M)` puts the init and final
//! inversions back. `payload.rs` owns that fold.

/// Reflected ECMA-182 polynomial (CRC-64/XZ).
const POLY: u64 = 0xC96C_5795_D787_0F42;

const fn make_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u64; 256]; 8] = make_tables();

/// CRC-64/XZ digest of `data`.
pub fn crc64(data: &[u8]) -> u64 {
    !crc64_absorb_raw(!0u64, data)
}

/// Absorb `data` into a raw CRC register (no init inversion, no final
/// xor). `crc64(data) == !crc64_absorb_raw(!0, data)`.
pub fn crc64_absorb_raw(crc: u64, data: &[u8]) -> u64 {
    absorb(crc, data, None)
}

/// Absorb the byte-wise XOR of two equal-length slices into a raw CRC
/// register without materializing the XOR-ed buffer.
pub fn crc64_absorb_raw_xor(crc: u64, a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "xor absorb needs equal lengths");
    absorb(crc, a, Some(b))
}

/// Name of the kernel long inputs run through on this machine: the
/// carry-less-multiply fold, or the table kernel alone.
pub fn crc_kernel() -> &'static str {
    match fold_prefix(0, &[0; 2 * 128], None) {
        (_, 0) => "table",
        _ => "pclmulqdq",
    }
}

#[cfg(test)]
thread_local! {
    /// Payload bytes this thread's tests have run through either kernel:
    /// what "a second vet of an untouched chunk reads nothing" is
    /// counted in.
    pub(crate) static ABSORBED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The dispatch behind every entry point (module doc): fold what the
/// vector kernel can, finish — or do everything — with the table kernel.
#[inline]
fn absorb(crc: u64, a: &[u8], b: Option<&[u8]>) -> u64 {
    #[cfg(test)]
    ABSORBED.with(|n| n.set(n.get() + a.len() as u64));
    let (crc, done) = fold_prefix(crc, a, b);
    match b {
        Some(b) => absorb_table(crc, (&a[done..], &b[done..])),
        None => absorb_table(crc, &a[done..]),
    }
}

/// Run the fold kernel over the whole blocks of `a` (XOR the equally long
/// `b`) if this CPU has it and the input is worth it: the register after
/// that prefix and the prefix's length — `(crc, 0)` otherwise.
#[cfg(target_arch = "x86_64")]
fn fold_prefix(crc: u64, a: &[u8], b: Option<&[u8]>) -> (u64, usize) {
    if a.len() < 2 * clmul::BLOCK || !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return (crc, 0);
    }
    // SAFETY: `pclmulqdq` was detected just above; the kernel bounds
    // itself by the whole blocks `a` and `b` both hold.
    let (state, folded) = unsafe { clmul::fold(crc, a, b) };
    (absorb_table(0, &state[..]), folded)
}

#[cfg(not(target_arch = "x86_64"))]
fn fold_prefix(crc: u64, _: &[u8], _: Option<&[u8]>) -> (u64, usize) {
    (crc, 0)
}

/// The carry-less-multiply fold (module doc).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::POLY;
    use std::arch::x86_64::*;

    /// Bytes folded per step: eight 16-byte accumulators.
    pub(super) const BLOCK: usize = 128;

    /// `x^n mod P` as a reflected register (bit 63 is `x^0`): `n` rounds
    /// of the shift-and-reduce step the tables are built from.
    const fn x_pow_mod_p(n: usize) -> u64 {
        let mut r = 1u64 << 63;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        r
    }

    /// The fold constants. A 16-byte accumulator is `lo · x^64 + hi` (the
    /// low qword holds the earlier bytes), and a reflected carry-less
    /// product of two 64-bit values comes out one degree high, so moving
    /// it `8 · BLOCK` bits up the message multiplies `lo` by
    /// `x^(1024+64−1)` and `hi` by `x^(1024−1)`.
    pub(super) const FOLD_LO: u64 = x_pow_mod_p(8 * BLOCK + 63);
    pub(super) const FOLD_HI: u64 = x_pow_mod_p(8 * BLOCK - 1);

    /// Fold the whole [`BLOCK`]s of `a` (XOR `b`), with `crc` XOR-ed into
    /// the first 8 bytes, down to one block of state: 128 bytes whose raw
    /// CRC from a zero register equals the raw CRC of the folded prefix
    /// from `crc`. Returns the state and the prefix's length; panics if
    /// the slices do not both hold one whole block.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold(crc: u64, a: &[u8], b: Option<&[u8]>) -> ([u8; BLOCK], usize) {
        let blocks = a.len().min(b.map_or(usize::MAX, <[u8]>::len)) / BLOCK;
        assert!(blocks > 0, "fold needs one whole block");
        let load = |at: usize| {
            // SAFETY: every call below passes `at + 16 <= blocks * BLOCK`,
            // which is no longer than `a` or `b`: both unaligned 16-byte
            // loads stay inside their slices.
            unsafe {
                let x = _mm_loadu_si128(a.as_ptr().add(at).cast());
                match b {
                    Some(b) => _mm_xor_si128(x, _mm_loadu_si128(b.as_ptr().add(at).cast())),
                    None => x,
                }
            }
        };
        let k = _mm_set_epi64x(FOLD_HI as i64, FOLD_LO as i64);
        let mut acc: [__m128i; 8] = std::array::from_fn(|i| load(16 * i));
        acc[0] = _mm_xor_si128(acc[0], _mm_set_epi64x(0, crc as i64));
        for block in 1..blocks {
            for (i, x) in acc.iter_mut().enumerate() {
                let lo = _mm_clmulepi64_si128(*x, k, 0x00);
                let hi = _mm_clmulepi64_si128(*x, k, 0x11);
                *x = _mm_xor_si128(_mm_xor_si128(lo, hi), load(block * BLOCK + 16 * i));
            }
        }
        let mut state = [0u8; BLOCK];
        for (x, out) in acc.iter().zip(state.chunks_exact_mut(16)) {
            // SAFETY: `out` is exactly 16 bytes, one unaligned store.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), *x) };
        }
        (state, blocks * BLOCK)
    }
}

/// What the table kernel absorbs: a byte string it can cut and read as
/// little-endian words — a slice, or the XOR of two equal-length slices.
trait Input: Copy {
    fn len(self) -> usize;
    fn split_at(self, mid: usize) -> (Self, Self);
    /// The leading whole 8-byte words.
    fn words(self) -> impl Iterator<Item = u64>;
    /// The `len % 8` bytes after the last whole word.
    fn tail(self) -> impl Iterator<Item = u8>;
}

#[inline]
fn word(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("8-byte window"))
}

impl Input for &[u8] {
    fn len(self) -> usize {
        <[u8]>::len(self)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        <[u8]>::split_at(self, mid)
    }
    fn words(self) -> impl Iterator<Item = u64> {
        self.chunks_exact(8).map(word)
    }
    fn tail(self) -> impl Iterator<Item = u8> {
        self.chunks_exact(8).remainder().iter().copied()
    }
}

impl Input for (&[u8], &[u8]) {
    fn len(self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let ((a, a_rest), (b, b_rest)) = (self.0.split_at(mid), self.1.split_at(mid));
        ((a, b), (a_rest, b_rest))
    }
    fn words(self) -> impl Iterator<Item = u64> {
        self.0.words().zip(self.1.words()).map(|(x, y)| x ^ y)
    }
    fn tail(self) -> impl Iterator<Item = u8> {
        self.0.tail().zip(self.1.tail()).map(|(x, y)| x ^ y)
    }
}

/// Registers run side by side over a long input.
const LANES: usize = 4;

/// Shortest lane worth splitting for: below `LANES * LANE_MIN` bytes
/// (journal records, sub-2 KiB runs, a fold's finish) the register fold
/// costs more than the overlap saves and the one-register loop runs
/// alone.
const LANE_MIN: usize = 512;

/// The table kernel: lane split, fold and the one-register path for the
/// remainder and for short inputs (module doc).
#[inline]
fn absorb_table<I: Input>(mut crc: u64, data: I) -> u64 {
    let mut rest = data;
    let lane = (data.len() / LANES) & !7;
    if lane >= LANE_MIN {
        let (l0, r) = data.split_at(lane);
        let (l1, r) = r.split_at(lane);
        let (l2, r) = r.split_at(lane);
        let (l3, r) = r.split_at(lane);
        rest = r;
        let mut regs = [crc, 0, 0, 0];
        let words = l0.words().zip(l1.words()).zip(l2.words().zip(l3.words()));
        for ((w0, w1), (w2, w3)) in words {
            regs[0] = fold8(regs[0] ^ w0);
            regs[1] = fold8(regs[1] ^ w1);
            regs[2] = fold8(regs[2] ^ w2);
            regs[3] = fold8(regs[3] ^ w3);
        }
        let seam = |acc, r| crc64_advance_zeros(acc, lane as u64) ^ r;
        crc = regs.into_iter().reduce(seam).expect("LANES > 0");
    }
    for w in rest.words() {
        crc = fold8(crc ^ w);
    }
    for b in rest.tail() {
        crc = TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[inline]
fn fold8(crc: u64) -> u64 {
    TABLES[7][(crc & 0xFF) as usize]
        ^ TABLES[6][((crc >> 8) & 0xFF) as usize]
        ^ TABLES[5][((crc >> 16) & 0xFF) as usize]
        ^ TABLES[4][((crc >> 24) & 0xFF) as usize]
        ^ TABLES[3][((crc >> 32) & 0xFF) as usize]
        ^ TABLES[2][((crc >> 40) & 0xFF) as usize]
        ^ TABLES[1][((crc >> 48) & 0xFF) as usize]
        ^ TABLES[0][(crc >> 56) as usize]
}

/// GF(2) operator matrices: `ZERO_OPS[i]` maps a raw CRC register across
/// `2^i` zero bytes (column k is the image of register bit k). Built
/// once by squaring the one-byte step, zlib `crc_combine` style.
fn zero_ops() -> &'static [[u64; 64]; 64] {
    use std::sync::OnceLock;
    static OPS: OnceLock<Box<[[u64; 64]; 64]>> = OnceLock::new();
    OPS.get_or_init(|| {
        let mut step = [0u64; 64];
        // absorbing one zero byte: crc = T0[crc & 0xFF] ^ (crc >> 8)
        for (k, col) in step.iter_mut().enumerate() {
            *col = if k < 8 {
                TABLES[0][1usize << k]
            } else {
                1u64 << (k - 8)
            };
        }
        let mut ops = Box::new([[0u64; 64]; 64]);
        ops[0] = step;
        for i in 1..64 {
            let prev = ops[i - 1];
            for k in 0..64 {
                ops[i][k] = mat_vec(&prev, prev[k]);
            }
        }
        ops
    })
}

#[inline]
fn mat_vec(m: &[u64; 64], mut v: u64) -> u64 {
    let mut out = 0u64;
    let mut k = 0;
    while v != 0 {
        if v & 1 != 0 {
            out ^= m[k];
        }
        v >>= 1;
        k += 1;
    }
    out
}

/// Advance a raw CRC register across `n` zero bytes in O(log n).
pub fn crc64_advance_zeros(mut crc: u64, mut n: u64) -> u64 {
    let ops = zero_ops();
    let mut i = 0;
    while n != 0 {
        if n & 1 != 0 {
            crc = mat_vec(&ops[i], crc);
        }
        n >>= 1;
        i += 1;
    }
    crc
}

/// [`crc64_advance_zeros`] for one fixed `n` as eight byte-indexed table
/// lookups (16 KiB): the step of a fold that crosses the same distance
/// once per operand — a chunk digest composed from its pages' registers —
/// where a `mat_vec` per step would cost what absorbing the page does.
pub(crate) struct ZeroAdvance(Box<[[u64; 256]; 8]>);

impl ZeroAdvance {
    pub(crate) fn new(n: u64) -> Self {
        let mut t = Box::new([[0u64; 256]; 8]);
        for (i, lane) in t.iter_mut().enumerate() {
            for byte in 1..256usize {
                // Linear: a byte is the XOR of its lowest set bit and the rest.
                let low = byte & byte.wrapping_neg();
                lane[byte] = match byte ^ low {
                    0 => crc64_advance_zeros((byte as u64) << (8 * i), n),
                    rest => lane[rest] ^ lane[low],
                };
            }
        }
        ZeroAdvance(t)
    }

    #[inline]
    pub(crate) fn apply(&self, crc: u64) -> u64 {
        let t = &*self.0;
        t[0][(crc & 0xFF) as usize]
            ^ t[1][((crc >> 8) & 0xFF) as usize]
            ^ t[2][((crc >> 16) & 0xFF) as usize]
            ^ t[3][((crc >> 24) & 0xFF) as usize]
            ^ t[4][((crc >> 32) & 0xFF) as usize]
            ^ t[5][((crc >> 40) & 0xFF) as usize]
            ^ t[6][((crc >> 48) & 0xFF) as usize]
            ^ t[7][(crc >> 56) as usize]
    }
}

/// CRC-64/XZ of `n` zero bytes, in O(log n).
pub fn crc64_zeros(n: u64) -> u64 {
    !crc64_advance_zeros(!0u64, n)
}

/// The digest of a `len`-byte buffer after the `run` bytes at `off`
/// change, from the old digest and `delta` — the zero-init raw register of
/// `old bytes ⊕ new bytes` over the run — in O(log len): the register is
/// advanced over the trailing zeros of a delta that is zero outside the
/// run. `old` must be the digest of the buffer *with* the old bytes in
/// place.
pub fn crc64_splice(old: u64, len: u64, off: u64, run: u64, delta: u64) -> u64 {
    assert!(off + run <= len, "splice run out of range");
    old ^ crc64_advance_zeros(delta, len - off - run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One byte through the bitwise reference register, for cross-checking
    /// the tables and the lane split.
    fn bitwise_step(mut crc: u64, b: u8) -> u64 {
        crc ^= b as u64;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        crc
    }

    fn bitwise_raw(crc: u64, data: &[u8]) -> u64 {
        data.iter().fold(crc, |crc, &b| bitwise_step(crc, b))
    }

    fn pattern(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(131).wrapping_add(seed) % 251) as u8)
            .collect()
    }

    #[test]
    fn known_answer_vectors() {
        // CRC-64/XZ check value from the standard catalogue.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn every_length_and_alignment_across_the_lane_seams_matches_bitwise() {
        // From the one-register path through the first fold blocks and the
        // first lane splits: every length up to past four minimal lanes
        // (and so past three fold blocks), at every slice alignment, for
        // the digest, a non-zero starting register and the XOR form —
        // through the dispatching entry points and through the table
        // kernel called directly, which is the whole kernel where there
        // is no fold. The reference registers grow one byte per length.
        const SEED: u64 = 0x0123_4567_89AB_CDEF;
        let max = (LANES * LANE_MIN).max(3 * 128) + 17;
        let (a, b) = (pattern(max + 8, 1), pattern(max + 8, 2));
        for start in 0..8 {
            let (mut plain, mut seeded, mut xored) = (!0u64, SEED, SEED);
            for len in 0..=max {
                let (x, y) = (&a[start..start + len], &b[start..start + len]);
                let at = format!("start {start} len {len}");
                assert_eq!(crc64(x), !plain, "{at}");
                assert_eq!(absorb_table(!0, x), plain, "table, {at}");
                assert_eq!(crc64_absorb_raw(SEED, x), seeded, "{at}");
                assert_eq!(absorb_table(SEED, x), seeded, "table, {at}");
                assert_eq!(crc64_absorb_raw_xor(SEED, x, y), xored, "{at}");
                assert_eq!(absorb_table(SEED, (x, y)), xored, "table, {at}");
                plain = bitwise_step(plain, a[start + len]);
                seeded = bitwise_step(seeded, a[start + len]);
                xored = bitwise_step(xored, a[start + len] ^ b[start + len]);
            }
        }
        // Lane lengths with one set bit (a chunk) and with many.
        for len in [256 * 1024, 100_003] {
            let (x, y) = (pattern(len, 3), pattern(len, 4));
            let xor: Vec<u8> = x.iter().zip(&y).map(|(p, q)| p ^ q).collect();
            let (want, want_xor) = (bitwise_raw(SEED, &x), bitwise_raw(SEED, &xor));
            assert_eq!(crc64_absorb_raw(SEED, &x), want, "len {len}");
            assert_eq!(absorb_table(SEED, &x[..]), want, "table, len {len}");
            assert_eq!(crc64_absorb_raw_xor(SEED, &x, &y), want_xor, "len {len}");
            assert_eq!(
                absorb_table(SEED, (&x[..], &y[..])),
                want_xor,
                "table, len {len}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_the_zero_advance_of_their_unit_registers() {
        // Register 1 is x^63, and crossing n zero bytes multiplies by
        // x^(8n): x^(1024+63) and x^(1024−1) = x^(960+63).
        assert_eq!(clmul::FOLD_LO, crc64_advance_zeros(1, 128));
        assert_eq!(clmul::FOLD_HI, crc64_advance_zeros(1, 120));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 256 * 1024];
        let clean = crc64(&data);
        for pos in [0usize, 1, 4095, 131072, 256 * 1024 - 1] {
            data[pos] ^= 0x01;
            assert_ne!(crc64(&data), clean, "flip at {pos} undetected");
            data[pos] ^= 0x01;
        }
        assert_eq!(crc64(&data), clean);
    }

    #[test]
    fn zeros_matches_direct_scan() {
        for n in [0u64, 1, 7, 8, 9, 63, 64, 255, 256, 4096, 262_144, 1 << 20] {
            assert_eq!(crc64_zeros(n), crc64(&vec![0u8; n as usize]), "n {n}");
        }
    }

    #[test]
    fn advance_zeros_matches_absorbing_zero_bytes() {
        let data = pattern(123, 7);
        let raw = crc64_absorb_raw(0, &data);
        for n in [0usize, 1, 5, 64, 1000, 65536] {
            assert_eq!(
                crc64_advance_zeros(raw, n as u64),
                crc64_absorb_raw(raw, &vec![0u8; n]),
                "n {n}"
            );
        }
    }

    #[test]
    fn a_table_advance_is_the_matrix_advance() {
        for n in [1u64, 100, 4096, 262_144] {
            let table = ZeroAdvance::new(n);
            for crc in [0u64, 1, 0x80, !0, 0x0123_4567_89AB_CDEF, 1 << 63] {
                assert_eq!(table.apply(crc), crc64_advance_zeros(crc, n), "n {n}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn splice_matches_full_recompute(
            len in 1usize..(256 * 1024 + 1),
            off in any::<u32>(),
            run in any::<u32>(),
            seed in any::<u32>(),
        ) {
            let off = off as usize % len;
            let run = run as usize % (len - off + 1);
            let new_bytes = pattern(run, seed);
            let (len64, off64, run64) = (len as u64, off as u64, run as u64);
            // over arbitrary old content ...
            let mut buf = pattern(len, seed ^ 0x5A5A);
            let delta = crc64_absorb_raw_xor(0, &buf[off..off + run], &new_bytes);
            let spliced = crc64_splice(crc64(&buf), len64, off64, run64, delta);
            buf[off..off + run].copy_from_slice(&new_bytes);
            prop_assert_eq!(spliced, crc64(&buf), "len {} off {} run {}", len, off, run);
            // ... and over zeros, as freshly composed chunks are
            let mut fresh = vec![0u8; len];
            let delta = crc64_absorb_raw(0, &new_bytes);
            let spliced = crc64_splice(crc64_zeros(len64), len64, off64, run64, delta);
            fresh[off..off + run].copy_from_slice(&new_bytes);
            prop_assert_eq!(spliced, crc64(&fresh), "fresh len {} off {} run {}", len, off, run);
        }
    }

    #[test]
    fn successive_splices_compose_a_zero_based_chunk() {
        let len = 16384usize;
        let mut buf = vec![0u8; len];
        let mut digest = crc64_zeros(len as u64);
        for (off, run) in [(512usize, 1000usize), (9000, 4096), (16000, 384)] {
            let new_bytes = pattern(run, off as u32);
            let delta = crc64_absorb_raw(0, &new_bytes);
            digest = crc64_splice(digest, len as u64, off as u64, run as u64, delta);
            buf[off..off + run].copy_from_slice(&new_bytes);
        }
        assert_eq!(digest, crc64(&buf));
    }
}
