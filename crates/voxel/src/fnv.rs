//! The workspace's one 64-bit FNV-1a hasher.
//!
//! Every stable fingerprint in the workspace folds through [`Fnv64`]: the
//! baked-grid digest here, the facade's render-cache camera key, and the
//! conformance digests of `spnerf-testkit` (which re-exports this module's
//! items). Multi-byte values fold as little-endian bytes and floats by
//! their IEEE-754 bit patterns, so a digest match is bitwise equality and
//! 32- and 64-bit hosts agree. Every method is `#[inline]`, so callers in
//! other crates fold as if the hasher were local.

/// An incremental 64-bit FNV-1a hasher over little-endian byte streams.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::fnv::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_u64(42);
/// let a = h.finish();
/// assert_ne!(a, Fnv64::new().finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.state ^= *b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u32` (little-endian).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64`, so 32- and 64-bit hosts agree.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f32` by bit pattern.
    #[inline]
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Folds a string's UTF-8 bytes, length-prefixed.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

/// Formats a digest the way golden files and reports store it (`0x` + 16
/// lowercase hex digits).
pub fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}
