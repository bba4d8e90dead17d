//! LEB128 variable-length integers and ZigZag signed mapping.
//!
//! The `.ttr3` event stream is dominated by small deltas (branch-table
//! indices of neighbouring events, target offsets of a few bytes), so
//! LEB128 packs the common case into one byte while still representing the
//! full `u64` range. Signed deltas go through ZigZag first so that small
//! negative values stay small.

use std::io::{self, Read, Write};

/// Writes `v` as unsigned LEB128 (1–10 bytes).
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_u64<W: Write + ?Sized>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads an unsigned LEB128 value.
///
/// # Errors
///
/// Returns `InvalidData` on an over-long encoding (more than 10 bytes or
/// bits beyond the 64th) and any I/O error — including `UnexpectedEof` on
/// truncation — from the underlying reader.
pub fn read_u64<R: Read + ?Sized>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        let payload = u64::from(b & 0x7F);
        // The 10th byte may only carry the top bit of a u64.
        if shift == 63 && payload > 1 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "LEB128 overflows u64"));
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "LEB128 too long"));
        }
    }
}

/// Maps a signed value to unsigned ZigZag (`0, -1, 1, -2, …` → `0, 1, 2,
/// 3, …`).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes `v` ZigZag-mapped as LEB128.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_i64<W: Write + ?Sized>(w: &mut W, v: i64) -> io::Result<()> {
    write_u64(w, zigzag(v))
}

/// Reads a ZigZag-mapped LEB128 value.
///
/// # Errors
///
/// Propagates [`read_u64`] errors.
pub fn read_i64<R: Read + ?Sized>(r: &mut R) -> io::Result<i64> {
    read_u64(r).map(unzigzag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_edge_values() {
        for v in [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            assert!(buf.len() <= 10);
            assert_eq!(read_u64(&mut buf.as_slice()).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn i64_round_trips_edge_values() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v).unwrap();
            assert_eq!(read_i64(&mut buf.as_slice()).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn zigzag_is_order_preserving_near_zero() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn rejects_overlong_encoding() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert!(read_u64(&mut buf.as_slice()).is_err());
        // 10 bytes whose last carries more than the top bit overflows.
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x7F);
        assert!(read_u64(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let buf = [0x80u8, 0x80];
        assert!(read_u64(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn small_values_pack_into_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 42).unwrap();
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_i64(&mut buf, -3).unwrap();
        assert_eq!(buf.len(), 1);
    }
}
