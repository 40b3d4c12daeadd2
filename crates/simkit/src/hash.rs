//! FNV-1a, the one non-cryptographic hash the workspace uses for
//! digests, cache-file names, checksums and seed derivation.
//!
//! The fold form continues from any hash state, so a digest over a
//! stream of fields is a chain of calls starting at [`FNV_OFFSET`]:
//!
//! ```
//! use simkit::hash::{fnv1a, FNV_OFFSET};
//!
//! let whole = fnv1a(FNV_OFFSET, b"beacon");
//! let split = fnv1a(fnv1a(FNV_OFFSET, b"bea"), b"con");
//! assert_eq!(whole, split);
//! assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
//! ```

/// The 64-bit FNV offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a over `bytes`, continuing from hash state `hash`.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
    }
}
