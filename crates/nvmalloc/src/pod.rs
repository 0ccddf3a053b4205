//! Plain-old-data marker for element types of NVM-resident variables.
//!
//! `ssdmalloc` hands the application a *typed* buffer over raw NVM bytes
//! (the paper's `nvmvar[]`). Conversions go `T → bytes` for writes, and
//! `bytes → T` for reads in one of two ways: in place, where
//! [`cast_slice`] finds the cached bytes aligned for `T` and a whole
//! number of them (a [`crate::View`] over the cache's own leaves), or
//! through a zero-initialized staging value. Every cast stays within the
//! invariants the `Pod` contract states.

/// Types that are valid for any bit pattern, contain no padding holes we
/// rely on, and can be byte-copied.
///
/// # Safety
///
/// Implementors must be `Copy`, have no invalid bit patterns, no pointers
/// and no drop glue. All primitive number types qualify.
pub unsafe trait Pod: Copy + 'static {
    /// The all-zero value (what unwritten NVM reads as).
    fn zeroed() -> Self {
        // SAFETY: the trait contract says all bit patterns are valid.
        unsafe { std::mem::zeroed() }
    }
}

macro_rules! impl_pod {
    ($($t:ty),*) => { $( unsafe impl Pod for $t {} )* };
}

impl_pod!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

/// View a slice of `T` as raw bytes.
pub fn bytes_of<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: Pod types are valid for byte-level inspection; the length
    // arithmetic cannot overflow because the slice already exists.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// View a mutable slice of `T` as raw bytes.
pub fn bytes_of_mut<T: Pod>(s: &mut [T]) -> &mut [u8] {
    // SAFETY: any byte pattern written is a valid T per the Pod contract.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// View raw bytes as a slice of `T`, where they sit: `None` unless
/// `bytes` starts at an address aligned for `T` and holds a whole number
/// of them.
pub(crate) fn cast_slice<T: Pod>(bytes: &[u8]) -> Option<&[T]> {
    let size = std::mem::size_of::<T>();
    let aligned = (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>());
    if size == 0 || !aligned || !bytes.len().is_multiple_of(size) {
        return None;
    }
    // SAFETY: the pointer is aligned for T and the length covers whole
    // elements inside `bytes`; every bit pattern is a valid T per the Pod
    // contract; the result borrows `bytes`, so nothing writes them meanwhile.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero() {
        assert_eq!(u64::zeroed(), 0);
        assert_eq!(f64::zeroed(), 0.0);
        assert_eq!(i32::zeroed(), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let xs: [u32; 3] = [1, 0x0203_0405, u32::MAX];
        let bytes = bytes_of(&xs);
        assert_eq!(bytes.len(), 12);
        let mut ys = [0u32; 3];
        bytes_of_mut(&mut ys).copy_from_slice(bytes);
        assert_eq!(xs, ys);
    }

    #[test]
    fn f64_bytes_roundtrip() {
        let xs = [1.5f64, -0.0, f64::INFINITY];
        let mut ys = [0f64; 3];
        bytes_of_mut(&mut ys).copy_from_slice(bytes_of(&xs));
        assert_eq!(xs[0], ys[0]);
        assert_eq!(xs[2], ys[2]);
        assert!(ys[1] == 0.0 && ys[1].is_sign_negative());
    }

    #[test]
    fn cast_slice_needs_alignment_and_whole_elements() {
        let xs = [1u64, 2, 3];
        let bytes = bytes_of(&xs);
        assert_eq!(cast_slice::<u64>(bytes), Some(&xs[..]));
        assert_eq!(
            cast_slice::<u32>(&bytes[4..]),
            Some(&[0u32, 2, 0, 3, 0][..])
        );
        assert_eq!(cast_slice::<u64>(&bytes[4..20]), None, "misaligned");
        assert_eq!(cast_slice::<u64>(&bytes[..12]), None, "a partial element");
        assert_eq!(cast_slice::<u64>(&bytes[..0]), Some(&[][..]));
    }

    #[test]
    fn empty_slices() {
        let xs: [u64; 0] = [];
        assert!(bytes_of(&xs).is_empty());
    }
}
