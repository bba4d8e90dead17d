//! Block compression schemes behind the `.ttr3` scheme byte.
//!
//! The container compresses its event blocks through a [`BlockScheme`];
//! the low 7 bits of the header's scheme byte name which one. The only
//! compressor shipped is a dependency-free greedy LZ77 (the repository
//! builds offline with no crates.io access); a real zstd binding would
//! drop in as a new row of [`SCHEMES`] without touching the container
//! layout.
//!
//! LZ payload layout (varints LEB128, see [`crate::varint`]):
//!
//! ```text
//! repeated:
//!   lit_len    LEB128   literal-run length (may be 0)
//!   literals   lit_len bytes
//!   — decoding stops when the output reaches raw_len —
//!   offset     LEB128   match distance, 1 ..= bytes produced so far
//!   match_len  LEB128   match length − 4 (minimum match is 4 bytes)
//! ```
//!
//! Matches may overlap their own output (offset < length replays a run),
//! exactly like LZ77. A compressed stream always ends with a literal run
//! (possibly empty), so the decoder's stop condition is unambiguous; any
//! leftover bytes after the output is complete are an error, as is any
//! length or offset that would step outside the declared `raw_len`.

use std::io;

/// Sanity cap on a block's decompressed size: bounds decoder allocation
/// on corrupt or adversarial frame headers.
pub const MAX_BLOCK_RAW: usize = 1 << 26;

/// One block compression scheme: a self-contained byte-block transform.
pub trait BlockScheme: Send + Sync {
    /// The scheme byte this codec claims in the `.ttr3` header (low 7
    /// bits).
    fn id(&self) -> u8;

    /// Short scheme name, as `tage_trace inspect` reports it.
    fn name(&self) -> &'static str;

    /// Compresses `raw`. Infallible: every byte string is representable
    /// (worst case a stored literal run slightly larger than the input).
    fn compress(&self, raw: &[u8]) -> Vec<u8>;

    /// Decompresses `comp`, which must expand to exactly `raw_len` bytes.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when `comp` is truncated, carries trailing
    /// garbage, or would step outside `raw_len` — corrupt input must
    /// never panic or over-allocate past [`MAX_BLOCK_RAW`].
    fn decompress(&self, comp: &[u8], raw_len: usize) -> io::Result<Vec<u8>>;
}

/// Shortest match the LZ compressor emits; shorter repeats stay literal.
const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 15;

/// Scheme 1: greedy hash-table LZ77 — one probe per position, matches
/// extended maximally, no entropy stage. Dependency-free stand-in for a
/// real compressor; typically 2–4× on `.ttr3` event records, whose varint
/// records repeat heavily across loop iterations.
pub struct LzScheme;

#[inline]
fn hash4(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

impl BlockScheme for LzScheme {
    fn id(&self) -> u8 {
        1
    }

    fn name(&self) -> &'static str {
        "lz"
    }

    fn compress(&self, raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(raw.len() / 2 + 16);
        if raw.is_empty() {
            return out;
        }
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut lit_start = 0usize;
        let mut pos = 0usize;
        while pos + MIN_MATCH <= raw.len() {
            let h = hash4(&raw[pos..]);
            let cand = table[h];
            table[h] = pos;
            if cand != usize::MAX && raw[cand..cand + MIN_MATCH] == raw[pos..pos + MIN_MATCH] {
                let mut len = MIN_MATCH;
                while pos + len < raw.len() && raw[cand + len] == raw[pos + len] {
                    len += 1;
                }
                varint_push(&mut out, (pos - lit_start) as u64);
                out.extend_from_slice(&raw[lit_start..pos]);
                varint_push(&mut out, (pos - cand) as u64);
                varint_push(&mut out, (len - MIN_MATCH) as u64);
                // Index the skipped positions too: records repeating at a
                // stride longer than the match still get found later.
                let stop = (pos + len).min(raw.len() - MIN_MATCH + 1);
                for p in pos + 1..stop {
                    table[hash4(&raw[p..])] = p;
                }
                pos += len;
                lit_start = pos;
            } else {
                pos += 1;
            }
        }
        varint_push(&mut out, (raw.len() - lit_start) as u64);
        out.extend_from_slice(&raw[lit_start..]);
        out
    }

    fn decompress(&self, comp: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
        if raw_len > MAX_BLOCK_RAW {
            return Err(invalid(format!("block of {raw_len} bytes exceeds the cap")));
        }
        let mut out = Vec::with_capacity(raw_len);
        let mut r = comp;
        if raw_len > 0 {
            loop {
                let lit = usize::try_from(crate::varint::read_u64(&mut r)?)
                    .map_err(|_| invalid("literal run exceeds usize".to_string()))?;
                if lit > raw_len - out.len() {
                    return Err(invalid(format!(
                        "literal run of {lit} overflows the declared {raw_len}-byte block"
                    )));
                }
                if lit > r.len() {
                    return Err(invalid("literal run truncated".to_string()));
                }
                out.extend_from_slice(&r[..lit]);
                r = &r[lit..];
                if out.len() == raw_len {
                    break;
                }
                let offset = usize::try_from(crate::varint::read_u64(&mut r)?)
                    .map_err(|_| invalid("match offset exceeds usize".to_string()))?;
                if offset == 0 || offset > out.len() {
                    return Err(invalid(format!(
                        "match offset {offset} outside the {} bytes produced",
                        out.len()
                    )));
                }
                let len = usize::try_from(crate::varint::read_u64(&mut r)?)
                    .ok()
                    .and_then(|l| l.checked_add(MIN_MATCH))
                    .ok_or_else(|| invalid("match length overflows".to_string()))?;
                if len > raw_len - out.len() {
                    return Err(invalid(format!(
                        "match of {len} overflows the declared {raw_len}-byte block"
                    )));
                }
                // Byte-at-a-time: matches may overlap their own output.
                let start = out.len() - offset;
                for src in start..start + len {
                    out.push(out[src]);
                }
            }
        }
        if !r.is_empty() {
            return Err(invalid(format!("{} trailing bytes after the block", r.len())));
        }
        Ok(out)
    }
}

/// LEB128 into a Vec (the Write path cannot fail on a Vec).
fn varint_push(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The scheme-byte registry: `(name, byte, codec)`. The `tage_lint`
/// doc-sync pass pins each row's name against the scheme table in
/// DESIGN.md §3b, so a new scheme cannot ship undocumented. It reads one
/// row per line, hence the layout.
#[rustfmt::skip]
pub const SCHEMES: &[(&str, u8, &'static dyn BlockScheme)] = &[
    ("lz", 1, &LzScheme),
];

/// Looks a scheme up by its scheme byte.
pub fn by_id(id: u8) -> Option<&'static dyn BlockScheme> {
    SCHEMES.iter().find(|(_, b, _)| *b == id).map(|(_, _, s)| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (no std RNG available offline).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn registry_is_consistent() {
        for &(name, byte, scheme) in SCHEMES {
            assert_eq!(scheme.id(), byte);
            assert_eq!(scheme.name(), name);
            assert_eq!(by_id(byte).map(|s| s.name()), Some(name));
        }
        // Byte 0 (stored blocks) is not a registered scheme.
        assert!(by_id(0).is_none());
        assert!(by_id(250).is_none());
    }

    #[test]
    fn lz_round_trips_varied_inputs() {
        let lz = LzScheme;
        let repetitive: Vec<u8> = b"abcabcabcabcx".iter().copied().cycle().take(5000).collect();
        let mut runs = vec![0u8; 300];
        runs.extend(noise(100, 7));
        runs.extend(vec![0xAAu8; 500]);
        for raw in [
            Vec::new(),
            vec![42],
            b"abc".to_vec(),
            repetitive,
            noise(4096, 1),
            runs,
        ] {
            let comp = lz.compress(&raw);
            let back = lz.decompress(&comp, raw.len()).unwrap();
            assert_eq!(back, raw, "round-trip failed for {}-byte input", raw.len());
        }
    }

    #[test]
    fn lz_compresses_repetitive_input() {
        let raw: Vec<u8> = b"0123456789abcdef".iter().copied().cycle().take(8192).collect();
        let comp = LzScheme.compress(&raw);
        assert!(comp.len() * 10 < raw.len(), "{} vs {}", comp.len(), raw.len());
    }

    #[test]
    fn overlapping_match_replays_a_run() {
        // "aaaa…" forces offset < match length: the match copies bytes it
        // itself produced.
        let raw = vec![b'a'; 1000];
        let comp = LzScheme.compress(&raw);
        assert!(comp.len() < 20);
        assert_eq!(LzScheme.decompress(&comp, 1000).unwrap(), raw);
    }

    #[test]
    fn corrupt_lz_streams_error_instead_of_panicking() {
        let lz = LzScheme;
        let raw: Vec<u8> = b"abcabcabcabc".iter().copied().cycle().take(400).collect();
        let good = lz.compress(&raw);
        // Truncations at every length.
        for cut in 0..good.len() {
            assert!(lz.decompress(&good[..cut], raw.len()).is_err(), "cut {cut}");
        }
        // Every single-byte flip either round-trips to an error or decodes
        // to the wrong (but bounded) output — never a panic.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x55;
            if let Ok(out) = lz.decompress(&bad, raw.len()) {
                assert_eq!(out.len(), raw.len());
            }
        }
        // Wrong declared length: both directions fail.
        assert!(lz.decompress(&good, raw.len() + 1).is_err());
        assert!(lz.decompress(&good, raw.len() - 1).is_err());
        // Oversized declared length is rejected before allocation.
        assert!(lz.decompress(&good, MAX_BLOCK_RAW + 1).is_err());
        // A match offset pointing before the start of the output.
        let mut bad = Vec::new();
        varint_push(&mut bad, 1);
        bad.push(b'x');
        varint_push(&mut bad, 9); // offset 9 > 1 byte produced
        varint_push(&mut bad, 0);
        assert!(lz.decompress(&bad, 10).is_err());
    }
}
