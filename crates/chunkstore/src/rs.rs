//! Deterministic GF(2^8) Reed-Solomon codec for parity-group striping
//! (DESIGN.md §15).
//!
//! Systematic RS(k, m): a parity group holds `k` data members and `m`
//! parity members; any `k` of the `k + m` survive-able members suffice to
//! reconstruct the rest. The generator is a Vandermonde matrix put in
//! systematic form by right-multiplying with the inverse of its top
//! `k × k` block — the top `k` rows are the identity (data members are
//! stored verbatim) and *every* `k`-row subset of the full `(k + m) × k`
//! matrix is invertible, which is exactly the MDS property the
//! degraded-read path relies on.
//!
//! Everything here is pure byte math over `GF(2^8)` with the standard
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11D) reduction polynomial: no clocks,
//! no randomness, no allocation beyond the caller's buffers — the codec
//! is bit-reproducible by construction, like the rest of the simulator.
//!
//! Parity is *linear* in the data: overwriting bytes `old` with `new` in
//! data member `j` moves parity member `p` by `coef(p, j) · (old ⊕ new)`
//! at the same offsets. [`RsCode::parity_delta`] exposes that product so
//! the store's write path can do O(dirty-bytes) incremental parity
//! updates instead of re-encoding whole groups, and splice the parity
//! chunk's CRC with the PR 7 `crc64_splice` machinery.
//!
//! Every slice product — encode, delta, decode — is one kernel,
//! `dst = [dst ⊕] c · (a [⊕ b])`, multiplying by the two 16-entry
//! split-nibble product tables of `c`: 32 bytes per `pshufb` step on an
//! `x86_64` with AVX2 (detected at run time), the same tables a byte at a
//! time for the tail of every call and on every other machine.

use std::cell::RefCell;
use std::rc::Rc;

/// GF(2^8) reduction polynomial (AES-adjacent 0x11D, the classic RS choice).
const GF_POLY: u16 = 0x11D;

/// exp/log tables for the multiplicative group generated by `x` (0x02),
/// and the split-nibble product tables the slice kernel multiplies with.
/// `EXP` is doubled so `exp[log a + log b]` needs no modular reduction.
struct GfTables {
    exp: [u8; 512],
    log: [u8; 256],
    /// `nibbles[c]` = the 16 products `c·x` for `x` in `0..16`, then the
    /// 16 products `c·(x << 4)`: multiplication distributes over XOR, so
    /// `c·x = nibbles[c][x & 15] ⊕ nibbles[c][16 + (x >> 4)]`.
    nibbles: [Nibbles; 256],
}

/// One coefficient's low-nibble and high-nibble product tables.
type Nibbles = [u8; 32];

fn gf_tables() -> &'static GfTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<GfTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = GfTables {
            exp: [0; 512],
            log: [0; 256],
            nibbles: [[0; 32]; 256],
        };
        let mut x: u16 = 1;
        for i in 0..255 {
            t.exp[i] = x as u8;
            t.log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= GF_POLY;
            }
        }
        for i in 255..512 {
            t.exp[i] = t.exp[i - 255];
        }
        let mul = |a: usize, b: usize| match (a, b) {
            (0, _) | (_, 0) => 0,
            _ => t.exp[t.log[a] as usize + t.log[b] as usize],
        };
        t.nibbles = std::array::from_fn(|c| {
            std::array::from_fn(|i| mul(c, if i < 16 { i } else { (i - 16) << 4 }))
        });
        t
    })
}

/// Multiply two field elements.
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = gf_tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse (`a` must be non-zero).
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no inverse in GF(2^8)");
    let t = gf_tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// `dst ^= c · src`, element-wise — the inner loop of encode/decode.
pub fn gf_mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    if c != 0 {
        mul_slice::<true>(dst, src, None, c);
    }
}

/// Name of the slice-multiply kernel this machine runs: the vector body,
/// or the nibble-table loop alone.
pub fn gf_kernel() -> &'static str {
    match vector_prefix::<false>(&mut [0; 32], &[0; 32], None, &[0; 32]) {
        0 => "table",
        _ => "avx2",
    }
}

/// The one slice kernel: `dst = [dst ⊕] c · (a [⊕ b])`, accumulating
/// with `ACC`. Whole 32-byte steps go to the vector body where the CPU
/// has one; the nibble-table loop finishes every call and is the whole
/// kernel elsewhere.
fn mul_slice<const ACC: bool>(dst: &mut [u8], a: &[u8], b: Option<&[u8]>, c: u8) {
    assert_eq!(dst.len(), a.len(), "gf multiply needs equal lengths");
    if let Some(b) = b {
        assert_eq!(dst.len(), b.len(), "gf multiply needs equal lengths");
    }
    let t = &gf_tables().nibbles[c as usize];
    let done = vector_prefix::<ACC>(dst, a, b, t);
    let b = b.map(|b| &b[done..]);
    mul_table::<ACC>(&mut dst[done..], &a[done..], b, t);
}

/// Run the vector body over the whole 32-byte steps of `dst` if this CPU
/// has it; returns the bytes covered — 0 where it does not run.
#[cfg(target_arch = "x86_64")]
fn vector_prefix<const ACC: bool>(
    dst: &mut [u8],
    a: &[u8],
    b: Option<&[u8]>,
    t: &Nibbles,
) -> usize {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return 0;
    }
    // SAFETY: AVX2 was detected just above; the body bounds itself by the
    // shortest of the slices, which `mul_slice` checked to be equal.
    unsafe { mul_avx2::<ACC>(dst, a, b, t) }
}

#[cfg(not(target_arch = "x86_64"))]
fn vector_prefix<const ACC: bool>(_: &mut [u8], _: &[u8], _: Option<&[u8]>, _: &Nibbles) -> usize {
    0
}

/// The nibble-table loop, a byte per step.
fn mul_table<const ACC: bool>(dst: &mut [u8], a: &[u8], b: Option<&[u8]>, t: &Nibbles) {
    for (i, (d, &x)) in dst.iter_mut().zip(a).enumerate() {
        let x = x ^ b.map_or(0, |b| b[i]);
        let product = t[(x & 15) as usize] ^ t[16 + (x >> 4) as usize];
        *d = if ACC { *d ^ product } else { product };
    }
}

/// The vector body: both nibble tables sit in registers and `pshufb`
/// looks up 32 bytes at once. Returns the bytes it covered — the whole
/// 32-byte steps of the shortest slice.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2<const ACC: bool>(
    dst: &mut [u8],
    a: &[u8],
    b: Option<&[u8]>,
    t: &Nibbles,
) -> usize {
    use std::arch::x86_64::*;
    let shortest = dst
        .len()
        .min(a.len())
        .min(b.map_or(usize::MAX, <[u8]>::len));
    let whole = shortest & !31;
    // SAFETY: `t` is 32 bytes, one unaligned 16-byte load per half. In
    // the loop `at + 32 <= whole`, and `whole` is no longer than `dst`,
    // `a` or `b`: every unaligned 32-byte load and the store stay inside
    // their slices.
    unsafe {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.as_ptr().add(16).cast()));
        let nibble = _mm256_set1_epi8(0x0F);
        for at in (0..whole).step_by(32) {
            let mut x = _mm256_loadu_si256(a.as_ptr().add(at).cast());
            if let Some(b) = b {
                x = _mm256_xor_si256(x, _mm256_loadu_si256(b.as_ptr().add(at).cast()));
            }
            let low = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, nibble));
            let high = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x, 4), nibble));
            let mut product = _mm256_xor_si256(low, high);
            let out = dst.as_mut_ptr().add(at).cast();
            if ACC {
                product = _mm256_xor_si256(product, _mm256_loadu_si256(out));
            }
            _mm256_storeu_si256(out, product);
        }
    }
    whole
}

/// Invert a `k × k` matrix over GF(2^8) by Gauss–Jordan elimination.
/// Panics when it is singular — every matrix the codec inverts is a
/// `k`-row subset of an MDS generator.
fn invert(mut a: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let k = a.len();
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..k).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..k {
        let pivot = (col..k)
            .find(|&r| a[r][col] != 0)
            .expect("k rows of an MDS generator are invertible");
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let pinv = gf_inv(a[col][col]);
        for x in a[col].iter_mut().chain(inv[col].iter_mut()) {
            *x = gf_mul(*x, pinv);
        }
        for row in 0..k {
            if row != col && a[row][col] != 0 {
                let f = a[row][col];
                for j in 0..k {
                    let (av, iv) = (a[col][j], inv[col][j]);
                    a[row][j] ^= gf_mul(f, av);
                    inv[row][j] ^= gf_mul(f, iv);
                }
            }
        }
    }
    inv
}

/// The row vector `row · mat`.
fn row_times(row: &[u8], mat: &[Vec<u8>]) -> Vec<u8> {
    (0..mat.len())
        .map(|j| {
            let cells = row.iter().zip(mat).map(|(&r, m)| gf_mul(r, m[j]));
            cells.fold(0, |acc, x| acc ^ x)
        })
        .collect()
}

/// A systematic RS(k, m) code. Members are indexed `0..k + m`: data
/// members are `0..k`, parity members are `k..k + m`.
#[derive(Clone, Debug)]
pub struct RsCode {
    k: usize,
    m: usize,
    /// Systematic Vandermonde generator, `(k + m) × k`, row-major. The
    /// top `k` rows are the identity.
    rows: Vec<Vec<u8>>,
}

impl RsCode {
    /// Build the RS(k, m) generator. Requires `k ≥ 1`, `m ≥ 0` and
    /// `k + m ≤ 256` (distinct evaluation points in GF(2^8)).
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1, "need at least one data member");
        assert!(k + m <= 256, "GF(2^8) has only 256 evaluation points");
        // Vandermonde: row i = [α_i^0, α_i^1, …, α_i^(k-1)] with α_i = i.
        // Any k rows are invertible because the α_i are distinct.
        let n = k + m;
        let v: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut row = vec![0u8; k];
                let mut p = 1u8;
                for cell in row.iter_mut() {
                    *cell = p;
                    p = gf_mul(p, i as u8);
                }
                // α_0 = 0 degenerates to [1, 0, 0, …] which is fine: it is
                // still linearly independent of every other row.
                row
            })
            .collect();
        // Systematic form via a *column* operation: right-multiply V by
        // the inverse of its top k×k block A, so the data rows become
        // A·A⁻¹ = I. Right-multiplication scales every k-row-subset
        // determinant by the same non-zero det(A⁻¹), so "every k rows
        // invertible" survives — unlike row-reduction, which mixes parity
        // rows with data rows and breaks the MDS property.
        let inv = invert(v[..k].to_vec());
        let rows: Vec<Vec<u8>> = v.iter().map(|r| row_times(r, &inv)).collect();
        for (i, row) in rows.iter().enumerate().take(k) {
            for (j, &c) in row.iter().enumerate() {
                debug_assert_eq!(c, u8::from(i == j), "top block must be identity");
            }
        }
        RsCode { k, m, rows }
    }

    /// The RS(k, m) code the store's write and decode paths share: built
    /// on first use, one per `(k, m)` for the life of the thread that runs
    /// the simulation.
    pub fn shared(k: usize, m: usize) -> Rc<RsCode> {
        thread_local! {
            static CODES: RefCell<Vec<Rc<RsCode>>> = const { RefCell::new(Vec::new()) };
        }
        CODES.with_borrow_mut(|codes| {
            if let Some(code) = codes.iter().find(|c| (c.k, c.m) == (k, m)) {
                return Rc::clone(code);
            }
            let code = Rc::new(RsCode::new(k, m));
            codes.push(Rc::clone(&code));
            code
        })
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// Generator coefficient of data member `j` in parity member `p`
    /// (`p` in `0..m`, `j` in `0..k`).
    #[inline]
    pub fn coef(&self, p: usize, j: usize) -> u8 {
        self.rows[self.k + p][j]
    }

    /// Full encode: compute parity member `p` from all `k` data slices
    /// (each `len` bytes; all slices must be the same length as `out`).
    pub fn encode_parity(&self, p: usize, data: &[&[u8]], out: &mut [u8]) {
        assert_eq!(data.len(), self.k);
        out.fill(0);
        for (j, d) in data.iter().enumerate() {
            gf_mul_acc(out, d, self.coef(p, j));
        }
    }

    /// Incremental parity: the delta to XOR into parity member `p` when
    /// data member `j` changes from `old` to `new` at the same offsets.
    /// Writes `coef(p, j) · (old ⊕ new)` into `out`.
    pub fn parity_delta(&self, p: usize, j: usize, old: &[u8], new: &[u8], out: &mut [u8]) {
        mul_slice::<false>(out, old, Some(new), self.coef(p, j));
    }

    /// The decode of members `want` from the `k` surviving members
    /// `present`: row `w`, column `r` is the coefficient of survivor
    /// `present[r]` in member `want[w]`. One matrix inversion per call —
    /// a caller that decodes leaf by leaf computes this once.
    pub fn decode_rows(&self, present: &[usize], want: &[usize]) -> Vec<Vec<u8>> {
        assert_eq!(
            present.len(),
            self.k,
            "reconstruction needs exactly k survivors"
        );
        // survivors = A · data, where row r of A is the generator row of
        // survivor r; A is k×k and invertible (MDS property). A wanted
        // member is `rows[idx] · data`, so it is the combination
        // `rows[idx] · A⁻¹` of the survivors.
        let generator_row = |idx: usize| {
            assert!(idx < self.k + self.m, "member index out of range");
            self.rows[idx].clone()
        };
        let inv = invert(present.iter().map(|&idx| generator_row(idx)).collect());
        want.iter()
            .map(|&idx| row_times(&generator_row(idx), &inv))
            .collect()
    }

    /// Reconstruct the missing members from any `k` survivors.
    ///
    /// `present` pairs each surviving member index (`0..k + m`) with its
    /// bytes; exactly `k` survivors must be supplied. `want` lists the
    /// member indices to rebuild; the rebuilt bytes are returned in the
    /// same order. All slices must share one length.
    pub fn reconstruct(&self, present: &[(usize, &[u8])], want: &[usize]) -> Vec<Vec<u8>> {
        let members: Vec<usize> = present.iter().map(|&(idx, _)| idx).collect();
        let len = present.first().map_or(0, |(_, d)| d.len());
        // k passes per wanted member, no intermediate.
        self.decode_rows(&members, want)
            .into_iter()
            .map(|coefs| {
                let mut out = vec![0u8; len];
                for (&(_, bytes), c) in present.iter().zip(coefs) {
                    gf_mul_acc(&mut out, bytes, c);
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schoolbook GF(2^8) multiply — the reference the tables are checked
    /// against.
    fn gf_mul_naive(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= (GF_POLY & 0xFF) as u8;
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn table_multiply_matches_schoolbook() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), gf_mul_naive(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn inverse_really_inverts() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn systematic_top_block_is_identity() {
        let code = RsCode::new(4, 2);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(code.rows[i][j], u8::from(i == j));
            }
        }
    }

    #[test]
    fn slice_kernel_matches_schoolbook_for_every_coefficient_length_and_offset() {
        // Lengths from nothing to past two vector steps plus a ragged
        // tail, at every slice alignment, in all four forms — through the
        // dispatching entry point and through the nibble-table loop called
        // directly, which is the whole kernel where there is no vector
        // body.
        const MAX: usize = 2 * 32 + 17;
        let a: Vec<u8> = (0..MAX + 8).map(|i| (i * 151 + 7) as u8).collect();
        let b: Vec<u8> = (0..MAX + 8).map(|i| (i * 59 + 201) as u8).collect();
        let seed: Vec<u8> = (0..MAX + 8).map(|i| (i * 13 + 99) as u8).collect();
        fn run(acc: bool, direct: bool, dst: &mut [u8], a: &[u8], b: Option<&[u8]>, c: u8) {
            let t = &gf_tables().nibbles[c as usize];
            match (acc, direct) {
                (false, false) => mul_slice::<false>(dst, a, b, c),
                (true, false) => mul_slice::<true>(dst, a, b, c),
                (false, true) => mul_table::<false>(dst, a, b, t),
                (true, true) => mul_table::<true>(dst, a, b, t),
            }
        }
        for c in 0..=255u8 {
            let product: Vec<u8> = (0..=255u8).map(|x| gf_mul_naive(c, x)).collect();
            for start in 0..8 {
                for len in 0..=MAX {
                    let at = start..start + len;
                    for (acc, xor) in [(false, false), (true, false), (false, true), (true, true)] {
                        let mut want = seed.clone();
                        for i in at.clone() {
                            let x = if xor { a[i] ^ b[i] } else { a[i] };
                            want[i] = product[x as usize] ^ if acc { seed[i] } else { 0 };
                        }
                        for direct in [false, true] {
                            let second = xor.then(|| &b[at.clone()]);
                            let mut got = seed.clone();
                            run(acc, direct, &mut got[at.clone()], &a[at.clone()], second, c);
                            assert_eq!(
                                got, want,
                                "c={c} start={start} len={len} acc={acc} xor={xor} direct={direct}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn gf_mul_acc_rejects_a_short_source() {
        gf_mul_acc(&mut [0u8; 64], &[1u8; 63], 7);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn parity_delta_rejects_mismatched_runs() {
        RsCode::new(4, 2).parity_delta(0, 1, &[1u8; 64], &[2u8; 40], &mut [0u8; 64]);
    }

    #[test]
    fn shared_code_is_built_once_per_shape() {
        let (a, b) = (RsCode::shared(4, 2), RsCode::shared(4, 2));
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(a.rows, RsCode::new(4, 2).rows);
        assert_eq!(RsCode::shared(2, 1).rows, RsCode::new(2, 1).rows);
    }

    #[test]
    fn encode_then_lose_any_two_members_reconstructs() {
        let code = RsCode::new(4, 2);
        let data: Vec<Vec<u8>> = (0..4u8)
            .map(|j| vec![j * 17 + 3, j ^ 0xA5, 0, 255])
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![vec![0u8; 4]; 2];
        for (p, out) in parity.iter_mut().enumerate() {
            code.encode_parity(p, &refs, out);
        }
        let member = |i: usize| -> &[u8] {
            if i < 4 {
                &data[i]
            } else {
                &parity[i - 4]
            }
        };
        // Every way to lose two of the six members; each survivor set
        // yields every member on request — the two lost ones, data or
        // parity, and the four it already holds.
        for lose_a in 0..6 {
            for lose_b in lose_a + 1..6 {
                let present: Vec<(usize, &[u8])> = (0..6)
                    .filter(|&i| i != lose_a && i != lose_b)
                    .map(|i| (i, member(i)))
                    .collect();
                let want = [lose_a, lose_b, 0, 1, 2, 3, 4, 5];
                let got = code.reconstruct(&present, &want);
                assert_eq!(got.len(), want.len());
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(g, member(*w), "lost {lose_a},{lose_b}, asked for {w}");
                }
            }
        }
    }

    #[test]
    fn incremental_delta_equals_reencode() {
        let code = RsCode::new(4, 2);
        let old: Vec<Vec<u8>> = (0..4u8).map(|j| vec![j + 1; 8]).collect();
        let mut new = old.clone();
        new[2][3] = 0x5A;
        new[2][4] = 0x00;
        let old_refs: Vec<&[u8]> = old.iter().map(|d| d.as_slice()).collect();
        let new_refs: Vec<&[u8]> = new.iter().map(|d| d.as_slice()).collect();
        for p in 0..2 {
            let mut before = vec![0u8; 8];
            let mut after = vec![0u8; 8];
            code.encode_parity(p, &old_refs, &mut before);
            code.encode_parity(p, &new_refs, &mut after);
            let mut delta = vec![0u8; 8];
            code.parity_delta(p, 2, &old[2], &new[2], &mut delta);
            for i in 0..8 {
                assert_eq!(before[i] ^ delta[i], after[i], "p={p} i={i}");
            }
        }
    }

    #[test]
    fn m_zero_is_a_plain_stripe() {
        let code = RsCode::new(3, 0);
        assert_eq!(code.m(), 0);
        // No parity rows; reconstruction of a data member from the other
        // data members is impossible and never requested — only the
        // degenerate "all present" case exists.
        let d0 = [1u8, 2, 3];
        let d1 = [4u8, 5, 6];
        let d2 = [7u8, 8, 9];
        let got = code.reconstruct(&[(0, &d0), (1, &d1), (2, &d2)], &[1]);
        assert_eq!(got[0], d1);
    }
}
