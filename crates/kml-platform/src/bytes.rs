//! Little-endian byte codecs and the two byte hashes — the workspace's one
//! copy of each.
//!
//! Every on-disk or in-memory format in the workspace (KMLMODEL, KMLDTREE,
//! KMLTRACE, `.kmlm`, the drift detector's state) is a flat little-endian
//! field sequence. [`Reader`] is the one bounds-checked decoder over such a
//! sequence: every read either yields the field or a [`Truncated`] saying
//! where the bytes ran out, and [`Reader::counted`] refuses an element
//! count the remaining bytes cannot hold *before* the caller allocates for
//! it — a length read from input is never trusted. The `put_*` functions
//! are the matching writers.
//!
//! Two hashes live beside them and must not be confused:
//!
//! - [`checksum_v1`] is the trailer of the four version-1 file formats. It
//!   has FNV-1a's shape and offset basis but multiplies by
//!   `0x1000_0000_01B3` — the FNV prime with one digit group misplaced —
//!   so it is **not** FNV-1a. Version-1 files exist with it, so it is
//!   frozen under this name; a format version 2 is the place to change it.
//! - [`Fnv1a`] is the real 64-bit FNV-1a (prime `0x100_0000_01B3`), used
//!   where no stored bytes depend on it: the reservoir's contents hash, the
//!   DST trace hash, test goldens.

/// A read ran past the end of the bytes: `wanted` bytes at `offset`, with
/// only `have` left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Byte offset of the failed read.
    pub offset: usize,
    /// Bytes the field (or counted run of elements) needed.
    pub wanted: usize,
    /// Bytes remaining at `offset`.
    pub have: usize,
}

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "truncated: wanted {} bytes at offset {}, {} remain",
            self.wanted, self.offset, self.have
        )
    }
}

impl std::error::Error for Truncated {}

/// Bounds-checked cursor over little-endian bytes.
///
/// # Example
///
/// ```
/// use kml_platform::bytes::{put_u32, Reader};
///
/// let mut buf = Vec::new();
/// put_u32(&mut buf, 7);
/// let mut r = Reader::new(&buf);
/// assert_eq!(r.u32(), Ok(7));
/// assert!(r.u8().is_err());
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn truncated(&self, wanted: usize) -> Truncated {
        Truncated {
            offset: self.pos,
            wanted,
            have: self.remaining(),
        }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than `n` remain; the cursor does not move.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let rest = &self.bytes[self.pos..];
        let head = rest.get(..n).ok_or_else(|| self.truncated(n))?;
        self.pos += n;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, _) = self.bytes[self.pos..]
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(*head)
    }

    /// Checks that `n` elements of `elem_bytes` each fit in the remaining
    /// bytes, and returns `n` — call it on every count read from input
    /// before reserving memory for that many elements.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if `n * elem_bytes` overflows or exceeds
    /// [`remaining`](Self::remaining).
    pub fn counted(&self, n: usize, elem_bytes: usize) -> Result<usize, Truncated> {
        match n.checked_mul(elem_bytes) {
            Some(total) if total <= self.remaining() => Ok(n),
            overflowed => Err(self.truncated(overflowed.unwrap_or(usize::MAX))),
        }
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`Truncated`] at the end of the bytes.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32` (bit pattern preserved).
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, Truncated> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64` (bit pattern preserved).
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }

    /// `n` little-endian `f64`s, [`counted`](Self::counted) before the
    /// vector is reserved.
    ///
    /// # Errors
    ///
    /// [`Truncated`] if fewer than `n * 8` bytes remain.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, Truncated> {
        let mut out = Vec::with_capacity(self.counted(n, 8)?);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

/// Appends `v` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`'s bit pattern little-endian.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`'s bit pattern little-endian.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Byte-at-a-time xor-then-multiply fold from the FNV offset basis — the
/// body both hashes share; they differ only in `PRIME`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorMulHash<const PRIME: u64>(u64);

impl<const PRIME: u64> XorMulHash<PRIME> {
    /// The empty hash (the FNV-1a 64-bit offset basis).
    pub fn new() -> Self {
        XorMulHash(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.update(bytes);
        h.finish()
    }

    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Folds `v` in as its eight little-endian bytes.
    pub fn fold_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl<const PRIME: u64> Default for XorMulHash<PRIME> {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit FNV-1a, as published (`""` hashes to the offset basis, `"a"` to
/// `0xaf63dc4c8601ec8c`).
pub type Fnv1a = XorMulHash<0x0000_0100_0000_01B3>;

/// Incremental form of [`checksum_v1`]. **Not FNV-1a**: the multiplier is
/// `0x1000_0000_01B3`, the FNV prime mistyped when format version 1 was
/// written, and every version-1 artifact carries it.
pub type ChecksumV1 = XorMulHash<0x0000_1000_0000_01B3>;

/// The version-1 file checksum of `bytes` (see [`ChecksumV1`]).
pub fn checksum_v1(bytes: &[u8]) -> u64 {
    ChecksumV1::of(bytes)
}

/// Appends [`checksum_v1`] of everything in `buf` — the trailer every
/// version-1 format ends with.
pub fn seal_v1(buf: &mut Vec<u8>) {
    let sum = checksum_v1(buf);
    put_u64(buf, sum);
}

/// Splits sealed bytes into the body and the checksum stored after it.
/// The caller compares that against [`checksum_v1`] of the body.
///
/// # Errors
///
/// [`Truncated`] if `bytes` is shorter than the 8-byte trailer.
pub fn split_seal(bytes: &[u8]) -> Result<(&[u8], u64), Truncated> {
    let (body, tail) = bytes.split_last_chunk::<8>().ok_or(Truncated {
        offset: 0,
        wanted: 8,
        have: bytes.len(),
    })?;
    Ok((body, u64::from_le_bytes(*tail)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325u64),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            assert_eq!(Fnv1a::of(input.as_bytes()), want, "fnv1a({input:?})");
        }
    }

    /// Recorded from the four hand-written `fnv1a` functions this module
    /// replaced (commit 1fb2a81): same inputs, not the published hashes.
    #[test]
    fn checksum_v1_matches_the_parent_commit() {
        assert_eq!(checksum_v1(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum_v1(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(checksum_v1(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn fold_u64_is_update_of_le_bytes_and_updates_chain() {
        let mut a = Fnv1a::new();
        a.fold_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.update(&[8, 7, 6, 5]);
        b.update(&[4, 3, 2, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn writers_and_reader_round_trip_bit_patterns() {
        let mut buf = vec![0xAB];
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, f32::from_bits(0x7FC0_0001)); // a NaN payload
        put_f64(&mut buf, -0.0);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok(0x7FC0_0001));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!((r.offset(), r.remaining()), (buf.len(), 0));
    }

    #[test]
    fn short_reads_report_where_and_leave_the_cursor() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5]);
        assert_eq!(r.take(2), Ok(&[1u8, 2][..]));
        let want = Truncated {
            offset: 2,
            wanted: 4,
            have: 3,
        };
        assert_eq!(r.u32(), Err(want));
        assert_eq!(r.take(4), Err(want));
        assert_eq!(r.take(usize::MAX).unwrap_err().have, 3);
        assert_eq!(r.take(3), Ok(&[3u8, 4, 5][..]));
        assert!(r.u8().is_err());
        assert_eq!(r.take(0), Ok(&[][..]));
    }

    #[test]
    fn counted_refuses_what_the_bytes_cannot_hold() {
        let bytes = [0u8; 64];
        let mut r = Reader::new(&bytes);
        r.take(8).unwrap();
        assert_eq!(r.counted(7, 8), Ok(7));
        assert_eq!(r.counted(0, 8), Ok(0));
        assert_eq!(
            r.counted(8, 8),
            Err(Truncated {
                offset: 8,
                wanted: 64,
                have: 56
            })
        );
        assert_eq!(r.counted(u32::MAX as usize, 8).unwrap_err().have, 56);
        assert_eq!(r.counted(usize::MAX, 2).unwrap_err().wanted, usize::MAX);
        assert_eq!(r.f64s(7).map(|v| v.len()), Ok(7));
        assert_eq!(r.remaining(), 0);
        assert_eq!(Reader::new(&bytes).f64s(9).unwrap_err().wanted, 72);
    }

    #[test]
    fn seal_and_split_are_inverses() {
        let mut buf = b"payload".to_vec();
        seal_v1(&mut buf);
        assert_eq!(buf.len(), 15);
        let (body, stored) = split_seal(&buf).unwrap();
        assert_eq!(body, b"payload");
        assert_eq!(stored, checksum_v1(b"payload"));
        assert!(split_seal(&buf[..7]).is_err());
    }
}
