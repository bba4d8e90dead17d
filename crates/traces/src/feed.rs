//! Network/pipe ingestion: decode a trace from a non-seekable byte
//! stream.
//!
//! [`CodecRegistry::open`] assumes a path on disk; the prediction
//! server receives trace bytes over a socket. [`CodecRegistry::open_feed`]
//! closes that gap: it sniffs the first [`SNIFF_LEN`] bytes off the
//! stream, autodetects the codec (magic first, name-hint extension
//! second — the same precedence as file detection), splices the sniffed
//! prefix back in front of the reader, and asks the codec for a
//! streaming decoder via [`TraceCodec::open_stream`].
//!
//! Two codec families fall out:
//!
//! * **Streaming** (CSV): the layout decodes front-to-back, so the
//!   decoder wraps the live stream directly. Memory stays bounded by one
//!   capped line ([`crate::csv::MAX_CSV_LINE`]), and the *caller's*
//!   reader is pulled one block at a time — which is exactly how the
//!   server exerts backpressure (it simply does not read the socket
//!   while the simulation is busy).
//! * **Spooled** (`.ttr3`, CBP): the container's table/footer lives
//!   at the end, so the stream is copied to a temporary file under the
//!   caller's spool directory first, then opened through the ordinary
//!   path route. The spool file keeps the hinted file *name* (so
//!   [`file_meta`]-derived trace names match a direct [`CodecRegistry::open`]
//!   of the original file bit for bit) inside a process-unique
//!   directory, and is deleted when the decoder drops. Memory stays
//!   bounded; disk holds the trace once.

use crate::codec::{file_meta, CodecRegistry, TraceCodec, SNIFF_LEN};
use crate::decoder::{ContainerInfo, TraceDecoder};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::event::{EventBlock, EventSource, TraceEvent};

/// What [`TraceCodec::open_stream`] made of a live byte stream.
pub enum FeedOpen {
    /// The codec decodes front-to-back: a live streaming decoder.
    Streaming(Box<dyn TraceDecoder + Send>),
    /// The codec needs random access: the (untouched) reader comes
    /// back so the registry can spool it to disk.
    NeedsSpool(Box<dyn Read + Send>),
}

// ORDERING: a process-wide uniqueness counter for spool directory names;
// no other memory is published through it.
static SPOOL_SEQ: AtomicU64 = AtomicU64::new(0);

impl CodecRegistry {
    /// Detects a format from a byte prefix (up to [`SNIFF_LEN`] bytes)
    /// plus an optional file-name hint for magic-less formats — the
    /// stream-side twin of [`CodecRegistry::detect`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when no codec claims the prefix or the
    /// hinted extension.
    pub fn detect_prefix(
        &self,
        prefix: &[u8],
        name_hint: Option<&Path>,
    ) -> io::Result<&dyn TraceCodec> {
        let sniff = &prefix[..prefix.len().min(SNIFF_LEN)];
        if let Some(c) = self.codecs().find(|c| c.matches_magic(sniff)) {
            return Ok(c);
        }
        if let Some(c) = name_hint.and_then(|hint| self.by_extension(hint)) {
            return Ok(c);
        }
        let known: Vec<&str> = self.codecs().map(|c| c.name()).collect();
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "unrecognized trace stream ({} prefix bytes{}; known: {})",
                sniff.len(),
                name_hint
                    .map(|h| format!(", hint {}", h.display()))
                    .unwrap_or_default(),
                known.join(", ")
            ),
        ))
    }

    /// Opens a streaming decoder over a non-seekable byte stream:
    /// detect via [`CodecRegistry::detect_prefix`], then either wrap
    /// the live stream (streaming codecs) or spool it to a temporary
    /// file under `spool_dir` first (seek-requiring codecs). The
    /// `name_hint` doubles as the extension fallback for magic-less
    /// formats and the [`file_meta`] source for codecs that derive
    /// trace metadata from file names.
    ///
    /// # Errors
    ///
    /// Propagates detection, decode-header, and spool I/O errors.
    pub fn open_feed(
        &self,
        mut reader: Box<dyn Read + Send>,
        name_hint: Option<&Path>,
        spool_dir: &Path,
    ) -> io::Result<Box<dyn TraceDecoder + Send>> {
        let mut prefix = [0u8; SNIFF_LEN];
        let mut filled = 0;
        while filled < SNIFF_LEN {
            let n = reader.read(&mut prefix[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        let codec = self.detect_prefix(&prefix[..filled], name_hint)?;
        let (name, category) = match name_hint {
            Some(p) => file_meta(p),
            None => ("trace".to_string(), "TRACE".to_string()),
        };
        let sniffed: Vec<u8> = prefix[..filled].to_vec();
        let chained: Box<dyn Read + Send> = Box::new(io::Cursor::new(sniffed).chain(reader));
        match codec.open_stream(chained, name, category)? {
            FeedOpen::Streaming(d) => Ok(d),
            FeedOpen::NeedsSpool(rest) => spool_and_open(codec, rest, name_hint, spool_dir),
        }
    }
}

/// Copies the remaining stream to a uniquely named directory under
/// `spool_dir` (keeping the hinted file name so path-derived trace
/// metadata matches the original file), opens it through the codec's
/// path route, and wraps the decoder so the spool is deleted on drop.
fn spool_and_open(
    codec: &dyn TraceCodec,
    mut rest: Box<dyn Read + Send>,
    name_hint: Option<&Path>,
    spool_dir: &Path,
) -> io::Result<Box<dyn TraceDecoder + Send>> {
    // ORDERING: uniqueness counter only; see SPOOL_SEQ.
    let seq = SPOOL_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = spool_dir.join(format!("feed-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let file_name = name_hint
        .and_then(|p| p.file_name())
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "trace.bin".into());
    let path = dir.join(file_name);
    let open = (|| {
        let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
        io::copy(&mut rest, &mut f)?;
        f.flush()?;
        drop(f);
        codec.open(&path)
    })();
    match open {
        Ok(inner) => Ok(Box::new(SpooledDecoder { inner, dir })),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

/// A decoder over a spooled temporary file: pure delegation, plus
/// spool-file cleanup on drop.
struct SpooledDecoder {
    inner: Box<dyn TraceDecoder + Send>,
    dir: PathBuf,
}

impl Drop for SpooledDecoder {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl EventSource for SpooledDecoder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn category(&self) -> &str {
        self.inner.category()
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        self.inner.next_event()
    }

    fn next_block(&mut self, block: &mut EventBlock, max: usize) -> usize {
        self.inner.next_block(block, max)
    }

    fn skip(&mut self, n: u64) -> u64 {
        self.inner.skip(n)
    }
}

impl TraceDecoder for SpooledDecoder {
    fn format(&self) -> &'static str {
        self.inner.format()
    }

    fn container_info(&self) -> Option<ContainerInfo> {
        self.inner.container_info()
    }

    fn decode_error(&self) -> Option<&io::Error> {
        self.inner.decode_error()
    }

    fn expected_events(&self) -> Option<u64> {
        self.inner.expected_events()
    }

    fn remaining_events(&self) -> Option<u64> {
        self.inner.remaining_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::drain_checked;
    use workloads::suite::{by_name, Scale};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tage-feed-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_trace() -> workloads::event::Trace {
        by_name("INT01", Scale::Tiny).unwrap().generate()
    }

    fn encode(codec_name: &str) -> Vec<u8> {
        let r = CodecRegistry::standard();
        let mut buf = Vec::new();
        r.by_name(codec_name).unwrap().encode(&mut buf, &sample_trace()).unwrap();
        buf
    }

    fn spool_entries(dir: &Path) -> usize {
        std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
    }

    #[test]
    fn csv_feed_streams_without_spooling() {
        let spool = tmp("csv");
        let r = CodecRegistry::standard();
        let bytes = encode("csv");
        let mut d = r.open_feed(Box::new(io::Cursor::new(bytes)), None, &spool).unwrap();
        assert_eq!(d.format(), "csv");
        assert_eq!(d.name(), "INT01");
        // Nothing spooled: line-oriented text decodes off the live stream.
        assert_eq!(spool_entries(&spool), 0);
        let n = drain_checked(d.as_mut()).unwrap();
        assert_eq!(n, sample_trace().events.len() as u64);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn ttr3_feed_spools_and_cleans_up() {
        let spool = tmp("v3");
        let r = CodecRegistry::standard();
        let bytes = encode("ttr3");
        let mut d = r
            .open_feed(
                Box::new(io::Cursor::new(bytes)),
                Some(Path::new("INT01.ttr3")),
                &spool,
            )
            .unwrap();
        assert_eq!(d.format(), "ttr3");
        assert_eq!(d.name(), "INT01");
        assert_eq!(spool_entries(&spool), 1);
        let n = drain_checked(d.as_mut()).unwrap();
        assert_eq!(n, sample_trace().events.len() as u64);
        drop(d);
        // The spool directory is gone once the decoder drops.
        assert_eq!(spool_entries(&spool), 0);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn feed_decode_matches_direct_open() {
        // The feed route must replay the identical event stream the
        // path route produces, for every standard codec.
        let spool = tmp("match");
        let r = CodecRegistry::standard();
        let direct = sample_trace();
        for codec_name in ["ttr3", "csv", "cbp"] {
            let bytes = encode(codec_name);
            let hint = format!("INT01.{codec_name}");
            let mut d = r
                .open_feed(Box::new(io::Cursor::new(bytes)), Some(Path::new(&hint)), &spool)
                .unwrap();
            let mut events = Vec::new();
            while let Some(e) = d.next_event() {
                events.push(e);
            }
            crate::decoder::finish(d.as_ref()).unwrap();
            assert_eq!(events.len(), direct.events.len(), "codec {codec_name}");
            for (got, want) in events.iter().zip(direct.events.iter()) {
                assert_eq!(got.pc, want.pc, "codec {codec_name}");
                assert_eq!(got.taken, want.taken, "codec {codec_name}");
            }
        }
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn cbp_feed_needs_the_name_hint() {
        // CBP has no leading magic: without an extension hint the
        // stream is undetectable, with one it spools and decodes.
        let spool = tmp("cbp");
        let r = CodecRegistry::standard();
        let bytes = encode("cbp");
        assert!(r.open_feed(Box::new(io::Cursor::new(bytes.clone())), None, &spool).is_err());
        let mut d = r
            .open_feed(Box::new(io::Cursor::new(bytes)), Some(Path::new("INT01.cbp")), &spool)
            .unwrap();
        assert_eq!(d.format(), "cbp");
        assert_eq!(d.name(), "INT01");
        assert!(drain_checked(d.as_mut()).unwrap() > 0);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn garbage_stream_is_rejected() {
        let spool = tmp("garbage");
        let r = CodecRegistry::standard();
        let err =
            r.open_feed(Box::new(io::Cursor::new(b"not a trace".to_vec())), None, &spool);
        assert!(err.is_err());
        assert_eq!(spool_entries(&spool), 0);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn truncated_spooled_stream_fails_loudly() {
        let spool = tmp("trunc");
        let r = CodecRegistry::standard();
        let mut bytes = encode("ttr3");
        bytes.truncate(bytes.len() / 2);
        let err = r.open_feed(
            Box::new(io::Cursor::new(bytes)),
            Some(Path::new("INT01.ttr3")),
            &spool,
        );
        assert!(err.is_err());
        // The failed spool is cleaned up eagerly, not leaked.
        assert_eq!(spool_entries(&spool), 0);
        let _ = std::fs::remove_dir_all(&spool);
    }
}
