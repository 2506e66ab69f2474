//! Bounds-checked little-endian encoding helpers shared by the snapshot
//! and WAL formats.
//!
//! Every read is validated against the remaining input and fails with
//! [`PersistError::Corrupt`] / [`PersistError::Truncated`] instead of
//! panicking — the bytes come off disks that crashed mid-write.

use crate::error::{PersistError, Result};

// ------------------------------------------------------------------ writing

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bit pattern (bit-exact round trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string (`len: u32` + bytes).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a `[u32]` slice verbatim (little-endian elements).
pub fn put_u32_slice(buf: &mut Vec<u8>, vs: &[u32]) {
    buf.reserve(vs.len() * 4);
    for &v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends an `[f64]` slice as raw bit patterns.
pub fn put_f64_slice(buf: &mut Vec<u8>, vs: &[f64]) {
    buf.reserve(vs.len() * 8);
    for &v in vs {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

// ------------------------------------------------------------------ reading

/// Bounds-checked little-endian cursor over a byte slice.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Offset of `bytes[0]` within the containing file, for error messages.
    base_offset: u64,
}

impl<'a> Cursor<'a> {
    /// Wraps a slice whose first byte sits at `base_offset` in the file.
    pub fn new(bytes: &'a [u8], base_offset: u64) -> Self {
        Cursor {
            bytes,
            pos: 0,
            base_offset,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Absolute file offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base_offset + self.pos as u64
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize, region: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                offset: self.offset(),
                region,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, region: &'static str) -> Result<u8> {
        Ok(self.take(1, region)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, region: &'static str) -> Result<u16> {
        let b = self.take(2, region)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, region: &'static str) -> Result<u32> {
        let b = self.take(4, region)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, region: &'static str) -> Result<u64> {
        let b = self.take(8, region)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, region: &'static str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(region)?))
    }

    /// Reads a `u64` and validates it as an element count: `count * width`
    /// must fit in the remaining input, which bounds allocations by the
    /// file size no matter what a corrupt header claims.
    pub fn count(&mut self, width: usize, region: &'static str) -> Result<usize> {
        let count = self.u64(region)? as usize;
        if count
            .checked_mul(width)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(PersistError::Corrupt {
                detail: format!(
                    "{region}: count {count} x {width} bytes exceeds the {} bytes left",
                    self.remaining()
                ),
            });
        }
        Ok(count)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, region: &'static str) -> Result<String> {
        self.str(region).map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string in place, for callers that
    /// store it in a form other than `String`.
    pub fn str(&mut self, region: &'static str) -> Result<&'a str> {
        let len = self.u32(region)? as usize;
        if len > self.remaining() {
            return Err(PersistError::Truncated {
                offset: self.offset(),
                region,
            });
        }
        let bytes = self.take(len, region)?;
        std::str::from_utf8(bytes).map_err(|e| PersistError::Corrupt {
            detail: format!("{region}: invalid UTF-8: {e}"),
        })
    }

    /// Reads `n` little-endian `u32`s.
    pub fn u32_vec(&mut self, n: usize, region: &'static str) -> Result<Vec<u32>> {
        let raw = self.take(n * 4, region)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads `n` `f64` bit patterns.
    pub fn f64_vec(&mut self, n: usize, region: &'static str) -> Result<Vec<f64>> {
        let raw = self.take(n * 8, region)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                f64::from_bits(u64::from_le_bytes([
                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                ]))
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_slices() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, 0.1 + 0.2);
        put_str(&mut buf, "BANKS");
        put_u32_slice(&mut buf, &[1, 2, 3]);
        put_f64_slice(&mut buf, &[1.5, -2.5]);

        let mut c = Cursor::new(&buf, 0);
        assert_eq!(c.u32("t").unwrap(), 7);
        assert_eq!(c.u64("t").unwrap(), u64::MAX - 1);
        assert_eq!(c.f64("t").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(c.string("t").unwrap(), "BANKS");
        assert_eq!(c.u32_vec(3, "t").unwrap(), vec![1, 2, 3]);
        assert_eq!(c.f64_vec(2, "t").unwrap(), vec![1.5, -2.5]);
        assert!(c.is_done());
    }

    #[test]
    fn truncated_reads_are_typed() {
        let mut c = Cursor::new(&[1, 2], 100);
        assert!(matches!(
            c.u32("header"),
            Err(PersistError::Truncated { offset: 100, .. })
        ));
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX / 2);
        let mut c = Cursor::new(&buf, 0);
        assert!(matches!(
            c.count(8, "postings"),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_utf8_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut c = Cursor::new(&buf, 0);
        assert!(matches!(
            c.string("label"),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
