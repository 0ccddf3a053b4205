//! CRC64 checksums for chunk integrity (DESIGN.md §11, §13).
//!
//! Every materialized chunk's full 256 KiB content is summarized by a
//! CRC-64/XZ digest kept in the manager's chunk metadata. The reflected
//! ECMA-182 polynomial is the same one `xz` and the Linux kernel use, so
//! digests computed here are directly comparable with standard tooling.
//!
//! The implementation is table-driven with tables generated at compile
//! time — the store checksums whole chunks on every write-back, so this
//! sits on the data path and needs to run at memory-ish speed without
//! pulling in an external crate or `unsafe`. One kernel serves every
//! entry point:
//!
//! * **lane split** — a slice-by-8 register is latency-bound (each step's
//!   eight table loads wait on the previous step's result, ~1.3 GiB/s), so
//!   an input of 2 KiB or more is cut into four equal 8-byte-aligned lanes
//!   whose four independent registers advance in one loop; the loads of
//!   one lane hide the latency of the others (~3.9 GiB/s);
//! * **fold** — CRC is linear, `raw(s, A‖B) = advance(raw(s, A), |B|) ⊕
//!   raw(0, B)`, so the lane registers combine with three
//!   [`crc64_advance_zeros`] steps of one lane length each (O(log lane),
//!   ~35 ns per set bit of the length);
//! * **short-input path** — what is left after the lanes, and any input
//!   under 2 KiB (journal records, sub-page runs), runs through the same
//!   function's one-register loop: at those sizes the fold would cost
//!   more than the overlap saves.
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
    absorb(crc, data)
}

/// Absorb the byte-wise XOR of two equal-length slices into a raw CRC
/// register without materializing the XOR-ed buffer.
pub fn crc64_absorb_raw_xor(crc: u64, a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "xor absorb needs equal lengths");
    absorb(crc, (a, b))
}

/// Registers run side by side over a long input.
const LANES: usize = 4;

/// Shortest lane worth splitting for: below `LANES * LANE_MIN` bytes
/// (journal records, sub-2 KiB runs) the register fold costs more than
/// the overlap saves and the one-register loop runs alone.
const LANE_MIN: usize = 512;

/// What the kernel absorbs: a byte string it can cut and read as
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

/// The one kernel behind every entry point: lane split, fold and the
/// one-register path for the remainder and for short inputs (module doc).
#[inline]
fn absorb<I: Input>(mut crc: u64, data: I) -> u64 {
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

/// CRC-64/XZ of `n` zero bytes, in O(log n).
pub fn crc64_zeros(n: u64) -> u64 {
    !crc64_advance_zeros(!0u64, n)
}

/// Update the digest of a `len`-byte buffer after the bytes at
/// `[off, off + new.len())` change from `old_bytes` to `new_bytes`:
/// O(dirty + log len) instead of re-scanning the buffer. `old` must be
/// the digest of the buffer *with* `old_bytes` in place.
pub fn crc64_splice(old: u64, len: u64, off: u64, old_bytes: &[u8], new_bytes: &[u8]) -> u64 {
    assert_eq!(old_bytes.len(), new_bytes.len(), "splice run lengths");
    assert!(
        off + new_bytes.len() as u64 <= len,
        "splice run out of range"
    );
    let delta = crc64_absorb_raw_xor(0, old_bytes, new_bytes);
    old ^ crc64_advance_zeros(delta, len - off - new_bytes.len() as u64)
}

/// [`crc64_splice`] for the case where the old bytes are all zero
/// (freshly composed chunks): skips the XOR stream.
pub fn crc64_splice_fresh(old: u64, len: u64, off: u64, new_bytes: &[u8]) -> u64 {
    assert!(
        off + new_bytes.len() as u64 <= len,
        "splice run out of range"
    );
    let delta = crc64_absorb_raw(0, new_bytes);
    old ^ crc64_advance_zeros(delta, len - off - new_bytes.len() as u64)
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
        // From the one-register path through the first splits: every
        // length up to past four minimal lanes, at every slice alignment,
        // for the digest, a non-zero starting register and the XOR form.
        // The reference registers grow one byte per length.
        const SEED: u64 = 0x0123_4567_89AB_CDEF;
        let max = LANES * LANE_MIN + 17;
        let (a, b) = (pattern(max + 8, 1), pattern(max + 8, 2));
        for start in 0..8 {
            let (mut plain, mut seeded, mut xored) = (!0u64, SEED, SEED);
            for len in 0..=max {
                let (x, y) = (&a[start..start + len], &b[start..start + len]);
                assert_eq!(crc64(x), !plain, "start {start} len {len}");
                assert_eq!(crc64_absorb_raw(SEED, x), seeded, "start {start} len {len}");
                assert_eq!(
                    crc64_absorb_raw_xor(SEED, x, y),
                    xored,
                    "start {start} len {len}"
                );
                plain = bitwise_step(plain, a[start + len]);
                seeded = bitwise_step(seeded, a[start + len]);
                xored = bitwise_step(xored, a[start + len] ^ b[start + len]);
            }
        }
        // Lane lengths with one set bit (a chunk) and with many.
        for len in [256 * 1024, 100_003] {
            let (x, y) = (pattern(len, 3), pattern(len, 4));
            let xor: Vec<u8> = x.iter().zip(&y).map(|(p, q)| p ^ q).collect();
            assert_eq!(
                crc64_absorb_raw(SEED, &x),
                bitwise_raw(SEED, &x),
                "len {len}"
            );
            assert_eq!(
                crc64_absorb_raw_xor(SEED, &x, &y),
                bitwise_raw(SEED, &xor),
                "len {len}"
            );
        }
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
            // over arbitrary old content ...
            let mut buf = pattern(len, seed ^ 0x5A5A);
            let spliced = crc64_splice(
                crc64(&buf),
                len as u64,
                off as u64,
                &buf[off..off + run],
                &new_bytes,
            );
            buf[off..off + run].copy_from_slice(&new_bytes);
            prop_assert_eq!(spliced, crc64(&buf), "len {} off {} run {}", len, off, run);
            // ... and over zeros, as freshly composed chunks are
            let mut fresh = vec![0u8; len];
            let spliced =
                crc64_splice_fresh(crc64_zeros(len as u64), len as u64, off as u64, &new_bytes);
            fresh[off..off + run].copy_from_slice(&new_bytes);
            prop_assert_eq!(spliced, crc64(&fresh), "fresh len {} off {} run {}", len, off, run);
        }
    }

    #[test]
    fn splice_fresh_composes_zero_based_chunks() {
        let len = 16384usize;
        let mut buf = vec![0u8; len];
        let mut digest = crc64_zeros(len as u64);
        for (off, run) in [(512usize, 1000usize), (9000, 4096), (16000, 384)] {
            let new_bytes = pattern(run, off as u32);
            digest = crc64_splice_fresh(digest, len as u64, off as u64, &new_bytes);
            buf[off..off + run].copy_from_slice(&new_bytes);
        }
        assert_eq!(digest, crc64(&buf));
    }
}
