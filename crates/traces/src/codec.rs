//! The pluggable codec interface and the format-autodetecting registry.

use crate::decoder::TraceDecoder;
use std::io::{self, Read, Write};
use std::path::Path;
use workloads::event::{EventSource, Trace};

/// How many leading bytes [`CodecRegistry::detect`] hands to
/// [`TraceCodec::matches_magic`].
pub const SNIFF_LEN: usize = 16;

/// One on-disk trace format.
///
/// Encoding is an offline operation and works from a materialized
/// [`Trace`]; decoding is the hot ingestion path and must stream — the
/// returned [`EventSource`] may hold the static-branch table in memory but
/// never the event stream.
pub trait TraceCodec: Send + Sync {
    /// Short format name, e.g. `"ttr3"` (also the `--format` CLI token).
    fn name(&self) -> &'static str;

    /// One-line human description for CLI listings.
    fn description(&self) -> &'static str;

    /// File extensions (lower-case, no dot) this codec claims.
    fn extensions(&self) -> &'static [&'static str];

    /// Whether the first [`SNIFF_LEN`] bytes of a file identify this
    /// format. Formats without leading magic (CBP's header is a trailing
    /// footer) return `false` and are matched by extension instead.
    fn matches_magic(&self, prefix: &[u8]) -> bool;

    /// Whether decoding loses information ([`crate::CbpCodec`] carries
    /// neither µop padding nor load dependences).
    fn lossy(&self) -> bool {
        false
    }

    /// Serializes `trace` to `w`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if the trace is not representable (e.g. more
    /// static branches than CBP's 15-bit index can address) and any I/O
    /// error from the writer.
    fn encode(&self, w: &mut dyn Write, trace: &Trace) -> io::Result<()>;

    /// Encodes `source` in one pass. The default materializes the events
    /// and delegates to [`TraceCodec::encode`] — correct for any codec,
    /// with memory proportional to the trace; `.ttr3` overrides it to
    /// stream in bounded memory.
    ///
    /// Overrides must produce output byte-identical to encoding the
    /// materialized trace.
    ///
    /// # Errors
    ///
    /// As [`TraceCodec::encode`].
    fn encode_stream(&self, w: &mut dyn Write, source: &mut dyn EventSource) -> io::Result<()> {
        let name = source.name().to_string();
        let category = source.category().to_string();
        let mut events = Vec::new();
        while let Some(e) = source.next_event() {
            events.push(e);
        }
        self.encode(w, &Trace { name, category, events })
    }

    /// Opens `path` as a streaming event source. Codecs that do not embed
    /// trace metadata derive name/category from the file name (see
    /// [`file_meta`]).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for corrupt or mismatched content and any I/O
    /// error from opening or reading the file.
    fn open(&self, path: &Path) -> io::Result<Box<dyn TraceDecoder + Send>>;

    /// Opens a decoder over a *non-seekable* byte stream — the network
    /// ingestion entry point (see [`crate::feed`]). Codecs whose layout
    /// decodes front-to-back (CSV) override this and return
    /// [`FeedOpen::Streaming`]; formats that need random access (`.ttr3`'s
    /// table-at-end trailer, CBP's trailing footer) keep the default,
    /// which hands the reader back as [`FeedOpen::NeedsSpool`] so
    /// [`CodecRegistry::open_feed`] can spool it to disk first. The
    /// fallback name/category play the role [`file_meta`] plays in
    /// [`TraceCodec::open`] for codecs that do not embed metadata.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for corrupt header bytes and any I/O error
    /// from the reader.
    fn open_stream(
        &self,
        reader: Box<dyn Read + Send>,
        fallback_name: String,
        fallback_category: String,
    ) -> io::Result<crate::feed::FeedOpen> {
        let _ = (fallback_name, fallback_category);
        Ok(crate::feed::FeedOpen::NeedsSpool(reader))
    }
}

/// Derives `(name, category)` from a trace file name: the name is the file
/// stem, the category its leading alphabetic prefix upper-cased (so
/// `client02.ttr3` groups under `CLIENT` exactly like the synthetic suite).
/// Falls back to `("trace", "TRACE")` for unusable stems.
pub fn file_meta(path: &Path) -> (String, String) {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    if stem.is_empty() {
        return ("trace".to_string(), "TRACE".to_string());
    }
    let prefix: String =
        stem.chars().take_while(|c| c.is_ascii_alphabetic()).collect::<String>().to_uppercase();
    let category = if prefix.is_empty() { "TRACE".to_string() } else { prefix };
    (stem.to_string(), category)
}

/// The codec registry: autodetects a file's format by magic bytes first,
/// extension second.
pub struct CodecRegistry {
    codecs: Vec<Box<dyn TraceCodec>>,
}

impl CodecRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { codecs: Vec::new() }
    }

    /// The built-in formats: the native `.ttr3` container, CBP-style and
    /// CSV.
    pub fn standard() -> Self {
        let mut r = Self::new();
        r.register(Box::new(crate::ttr3::Ttr3Codec::default()));
        r.register(Box::new(crate::cbp::CbpCodec));
        r.register(Box::new(crate::csv::CsvCodec));
        r
    }

    /// Adds a codec (later registrations lose magic/extension ties).
    pub fn register(&mut self, codec: Box<dyn TraceCodec>) {
        self.codecs.push(codec);
    }

    /// All registered codecs.
    pub fn codecs(&self) -> impl Iterator<Item = &dyn TraceCodec> {
        self.codecs.iter().map(Box::as_ref)
    }

    /// Looks a codec up by its [`TraceCodec::name`].
    pub fn by_name(&self, name: &str) -> Option<&dyn TraceCodec> {
        self.codecs().find(|c| c.name() == name)
    }

    /// The codec claiming `path`'s extension, if any.
    pub fn by_extension(&self, path: &Path) -> Option<&dyn TraceCodec> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        self.codecs().find(|c| c.extensions().contains(&ext.as_str()))
    }

    /// Detects the format of an existing file: reads the first
    /// [`SNIFF_LEN`] bytes and asks each codec's magic matcher, falling
    /// back to the extension.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when no codec claims the file, plus any I/O
    /// error from reading the prefix.
    pub fn detect(&self, path: &Path) -> io::Result<&dyn TraceCodec> {
        let mut prefix = [0u8; SNIFF_LEN];
        let mut f = std::fs::File::open(path)?;
        let mut filled = 0;
        while filled < SNIFF_LEN {
            let n = f.read(&mut prefix[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        if let Some(c) = self.codecs().find(|c| c.matches_magic(&prefix[..filled])) {
            return Ok(c);
        }
        self.by_extension(path).ok_or_else(|| {
            let known: Vec<&str> = self.codecs().map(|c| c.name()).collect();
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: unrecognized trace format (known: {})", path.display(), known.join(", ")),
            )
        })
    }

    /// Detects the format of `path` and opens it as a streaming source.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecRegistry::detect`] and [`TraceCodec::open`]
    /// errors.
    pub fn open(&self, path: &Path) -> io::Result<Box<dyn TraceDecoder + Send>> {
        self.detect(path)?.open(path)
    }
}

impl Default for CodecRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn file_meta_splits_prefix() {
        assert_eq!(
            file_meta(Path::new("/tmp/CLIENT02.ttr3")),
            ("CLIENT02".to_string(), "CLIENT".to_string())
        );
        assert_eq!(
            file_meta(Path::new("ws7-recorded.csv")),
            ("ws7-recorded".to_string(), "WS".to_string())
        );
        assert_eq!(file_meta(Path::new("1234.cbp")), ("1234".to_string(), "TRACE".to_string()));
        assert_eq!(file_meta(Path::new("")), ("trace".to_string(), "TRACE".to_string()));
    }

    #[test]
    fn standard_registry_has_three_codecs() {
        let r = CodecRegistry::standard();
        let names: Vec<&str> = r.codecs().map(|c| c.name()).collect();
        assert_eq!(names, ["ttr3", "cbp", "csv"]);
        assert!(r.by_name("ttr3").is_some());
        assert!(r.by_name("ttr").is_none());
        assert!(r.by_name("nope").is_none());
    }

    #[test]
    fn extension_lookup_is_case_insensitive() {
        let r = CodecRegistry::standard();
        assert_eq!(r.by_extension(&PathBuf::from("x.TTR3")).unwrap().name(), "ttr3");
        assert!(r.by_extension(&PathBuf::from("x.ttr")).is_none());
        assert_eq!(r.by_extension(&PathBuf::from("x.csv")).unwrap().name(), "csv");
        assert!(r.by_extension(&PathBuf::from("x.bin")).is_none());
        assert!(r.by_extension(&PathBuf::from("noext")).is_none());
    }

    #[test]
    fn detect_rejects_unknown_files() {
        let dir = std::env::temp_dir().join(format!("tage-traces-detect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("garbage.bin");
        std::fs::write(&p, b"no codec claims this").unwrap();
        let r = CodecRegistry::standard();
        assert!(r.detect(&p).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
