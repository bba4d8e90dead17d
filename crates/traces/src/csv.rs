//! Plain-text CSV trace codec for hand-authored regression traces.
//!
//! ```text
//! # tage-traces csv v1
//! # name=CLIENT02
//! # category=CLIENT
//! pc,kind,taken,target,uops_before,load_addr
//! 0x400000,cond,1,0x400040,5,
//! 0x40000c,call,1,0x8000,2,0x10000000
//! ```
//!
//! Addresses are hex (`0x…`) or decimal; `kind` is one of `cond`, `jump`,
//! `ijump`, `call`, `ret`; `taken` is `0`/`1`; an empty `load_addr` means
//! no load dependence. `#` lines are comments; the `name=`/`category=`
//! comments are optional (the file name supplies them otherwise), so a
//! trace can be authored in any editor with nothing but the column header.
//! Lossless, streaming, line-at-a-time; a line longer than
//! [`MAX_CSV_LINE`] bytes is rejected before it is buffered whole.

use crate::decoder::TraceDecoder;
use crate::file_meta;
use simkit::predictor::BranchKind;
use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use workloads::event::{EventSource, Trace, TraceEvent};

/// First line every writer emits (also the sniffed magic).
pub const CSV_MAGIC_LINE: &str = "# tage-traces csv v1";

/// The required column header.
pub const CSV_HEADER: &str = "pc,kind,taken,target,uops_before,load_addr";

/// Cap on the bytes of a trace name or category [`encode`] writes (the
/// `.ttr3` header's string limit, so a CSV file always converts back).
pub const MAX_CSV_META: usize = u16::MAX as usize;

/// Cap on one line's bytes, newline excluded. The longest line [`encode`]
/// writes is a metadata comment of at most [`MAX_CSV_META`] bytes plus
/// its key, and event rows stay under 100 bytes. A longer line fails with
/// `InvalidData` after at most this many bytes plus one read buffer, so
/// input with no newline cannot grow a reader's memory without bound.
pub const MAX_CSV_LINE: usize = 1 << 20;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads the next line into `buf` with its `\n` stripped; `Ok(false)`
/// at end of input. Never buffers more than [`MAX_CSV_LINE`] bytes of one
/// line.
fn read_line_capped<B: BufRead>(r: &mut B, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(!buf.is_empty());
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > MAX_CSV_LINE {
            return Err(invalid(format!("csv line exceeds {MAX_CSV_LINE} bytes")));
        }
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(true);
        }
    }
}

fn line_str(buf: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(buf).map_err(|e| invalid(format!("csv line is not UTF-8: {e}")))
}

fn kind_token(k: BranchKind) -> &'static str {
    match k {
        BranchKind::Conditional => "cond",
        BranchKind::DirectJump => "jump",
        BranchKind::IndirectJump => "ijump",
        BranchKind::Call => "call",
        BranchKind::Return => "ret",
    }
}

fn token_kind(s: &str) -> io::Result<BranchKind> {
    Ok(match s {
        "cond" => BranchKind::Conditional,
        "jump" => BranchKind::DirectJump,
        "ijump" => BranchKind::IndirectJump,
        "call" => BranchKind::Call,
        "ret" => BranchKind::Return,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown branch kind token {other:?}"),
            ))
        }
    })
}

fn parse_u64(s: &str) -> io::Result<u64> {
    let r = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| io::Error::new(io::ErrorKind::InvalidData, format!("bad number {s:?}")))
}

/// Serializes `trace` as CSV.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn encode(w: &mut dyn Write, trace: &Trace) -> io::Result<()> {
    // Metadata lives in line-oriented, whitespace-trimmed comments: a
    // control character would desync the line structure and surrounding
    // whitespace would not survive the decoder's trim — either way the
    // value could silently change across a round trip, so reject it up
    // front (the lossless-convert contract).
    for (field, value) in [("name", &trace.name), ("category", &trace.category)] {
        if value.chars().any(|c| c.is_control()) || value.trim() != value.as_str() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("trace {field} {value:?} has control characters or edge whitespace"),
            ));
        }
        if value.len() > MAX_CSV_META {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("trace {field} of {} bytes exceeds {MAX_CSV_META}", value.len()),
            ));
        }
    }
    writeln!(w, "{CSV_MAGIC_LINE}")?;
    writeln!(w, "# name={}", trace.name)?;
    writeln!(w, "# category={}", trace.category)?;
    writeln!(w, "# events={}", trace.events.len())?;
    writeln!(w, "{CSV_HEADER}")?;
    for e in &trace.events {
        let load = e.load_addr.map(|a| format!("{a:#x}")).unwrap_or_default();
        writeln!(
            w,
            "{:#x},{},{},{:#x},{},{}",
            e.pc,
            kind_token(e.kind),
            u8::from(e.taken),
            e.target,
            e.uops_before,
            load
        )?;
    }
    Ok(())
}

/// A streaming CSV decoder: one line at a time, metadata parsed up front.
pub struct CsvReader<R> {
    name: String,
    category: String,
    reader: io::BufReader<R>,
    line: Vec<u8>,
    line_no: usize,
    /// From the writer's `# events=` comment; hand-authored files without
    /// it get no truncation check (nothing to check against).
    expected: Option<u64>,
    decoded: u64,
    error: Option<io::Error>,
}

impl<R: Read> CsvReader<R> {
    /// Parses comments and the column header; `fallback_name` /
    /// `fallback_category` apply when the file carries no `name=` /
    /// `category=` comments.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the column header is missing or wrong or
    /// a line exceeds [`MAX_CSV_LINE`], and any I/O error.
    pub fn new(reader: R, fallback_name: String, fallback_category: String) -> io::Result<Self> {
        let mut reader = io::BufReader::new(reader);
        let mut buf = Vec::new();
        let mut name = fallback_name;
        let mut category = fallback_category;
        let mut expected = None;
        let mut line_no = 0;
        loop {
            if !read_line_capped(&mut reader, &mut buf)? {
                return Err(invalid("missing csv column header".to_string()));
            }
            line_no += 1;
            let line = line_str(&buf)?.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                let comment = comment.trim();
                if let Some(v) = comment.strip_prefix("name=") {
                    name = v.to_string();
                } else if let Some(v) = comment.strip_prefix("category=") {
                    category = v.to_string();
                } else if let Some(v) = comment.strip_prefix("events=") {
                    expected = Some(parse_u64(v)?);
                }
                continue;
            }
            if line != CSV_HEADER {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected column header {CSV_HEADER:?}, found {line:?}"),
                ));
            }
            return Ok(Self {
                name,
                category,
                reader,
                line: buf,
                line_no,
                expected,
                decoded: 0,
                error: None,
            });
        }
    }

    fn parse_line(line: &str) -> io::Result<TraceEvent> {
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 6 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected 6 fields, found {}", fields.len()),
            ));
        }
        let taken = match fields[2] {
            "0" => false,
            "1" => true,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("taken must be 0 or 1, found {other:?}"),
                ))
            }
        };
        let uops = parse_u64(fields[4])?;
        let uops_before = u16::try_from(uops)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "uops_before exceeds u16"))?;
        Ok(TraceEvent {
            pc: parse_u64(fields[0])?,
            kind: token_kind(fields[1])?,
            taken,
            target: parse_u64(fields[3])?,
            uops_before,
            load_addr: if fields[5].is_empty() { None } else { Some(parse_u64(fields[5])?) },
        })
    }
}

impl<R: Read> EventSource for CsvReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn category(&self) -> &str {
        &self.category
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        if self.error.is_some() {
            return None;
        }
        loop {
            self.line_no += 1;
            let parsed = match read_line_capped(&mut self.reader, &mut self.line) {
                Ok(false) => return None,
                Ok(true) => line_str(&self.line).and_then(|line| {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        Ok(None)
                    } else {
                        Self::parse_line(line).map(Some)
                    }
                }),
                Err(e) => Err(e),
            };
            match parsed {
                Ok(None) => continue,
                Ok(Some(e)) => {
                    self.decoded += 1;
                    return Some(e);
                }
                Err(e) => {
                    self.error =
                        Some(io::Error::new(e.kind(), format!("line {}: {e}", self.line_no)));
                    return None;
                }
            }
        }
    }
}

impl<R: Read> TraceDecoder for CsvReader<R> {
    fn format(&self) -> &'static str {
        "csv"
    }

    fn decode_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn expected_events(&self) -> Option<u64> {
        self.expected
    }

    fn remaining_events(&self) -> Option<u64> {
        self.expected.map(|e| e.saturating_sub(self.decoded))
    }
}

/// The CSV [`crate::TraceCodec`].
pub struct CsvCodec;

impl crate::TraceCodec for CsvCodec {
    fn name(&self) -> &'static str {
        "csv"
    }

    fn description(&self) -> &'static str {
        "plain-text csv for hand-authored regression traces (lossless)"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["csv"]
    }

    fn matches_magic(&self, prefix: &[u8]) -> bool {
        // Writers emit the magic comment; hand-authored files may start
        // straight at the column header. Any valid file is longer than
        // either probe, so a full-probe prefix match is unambiguous.
        let probe = |p: &[u8]| prefix.len() >= p.len() && prefix.starts_with(p);
        probe(&CSV_MAGIC_LINE.as_bytes()[..CSV_MAGIC_LINE.len().min(crate::SNIFF_LEN)])
            || probe(b"pc,kind,taken")
    }

    fn encode(&self, w: &mut dyn Write, trace: &Trace) -> io::Result<()> {
        encode(w, trace)
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn TraceDecoder + Send>> {
        let (name, category) = file_meta(path);
        Ok(Box::new(CsvReader::new(std::fs::File::open(path)?, name, category)?))
    }

    fn open_stream(
        &self,
        reader: Box<dyn Read + Send>,
        fallback_name: String,
        fallback_category: String,
    ) -> io::Result<crate::feed::FeedOpen> {
        // Line-oriented text decodes off a live stream; in-file `name=` /
        // `category=` comments still win over the fallbacks.
        Ok(crate::feed::FeedOpen::Streaming(Box::new(CsvReader::new(
            reader,
            fallback_name,
            fallback_category,
        )?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::suite::{by_name, Scale};

    fn decode_str(s: &str) -> io::Result<Trace> {
        let mut r = CsvReader::new(s.as_bytes(), "fb".into(), "FB".into())?;
        let mut events = Vec::new();
        while let Some(e) = r.next_event() {
            events.push(e);
        }
        match r.error {
            Some(e) => Err(e),
            None => Ok(Trace { name: r.name.clone(), category: r.category.clone(), events }),
        }
    }

    #[test]
    fn suite_trace_round_trips_losslessly() {
        let t = by_name("MM05", Scale::Tiny).unwrap().generate();
        let mut buf = Vec::new();
        encode(&mut buf, &t).unwrap();
        let back = decode_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn hand_authored_minimal_file_parses() {
        let src = "pc,kind,taken,target,uops_before,load_addr\n\
                   0x100,cond,1,0x140,5,\n\
                   256,ret,1,0x108,2,0x1000\n";
        let t = decode_str(src).unwrap();
        assert_eq!(t.name, "fb");
        assert_eq!(t.category, "FB");
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].pc, 0x100);
        assert!(t.events[0].load_addr.is_none());
        assert_eq!(t.events[1].pc, 256);
        assert_eq!(t.events[1].kind, BranchKind::Return);
        assert_eq!(t.events[1].load_addr, Some(0x1000));
    }

    #[test]
    fn metadata_comments_override_fallback() {
        let src = "# tage-traces csv v1\n# name=WS09\n# category=WS\n\
                   pc,kind,taken,target,uops_before,load_addr\n";
        let t = decode_str(src).unwrap();
        assert_eq!(t.name, "WS09");
        assert_eq!(t.category, "WS");
        assert!(t.events.is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(decode_str("").is_err());
        assert!(decode_str("not,a,header\n").is_err());
        let bad_rows = [
            "0x100,cond,1,0x140,5", // 5 fields
            "0x100,weird,1,0x140,5,",
            "0x100,cond,yes,0x140,5,",
            "zzz,cond,1,0x140,5,",
            "0x100,cond,1,0x140,70000,", // uops > u16
        ];
        for row in bad_rows {
            let src = format!("pc,kind,taken,target,uops_before,load_addr\n{row}\n");
            assert!(decode_str(&src).is_err(), "row {row:?} should be rejected");
        }
    }

    #[test]
    fn control_characters_in_metadata_are_rejected() {
        // A newline would desync the line-oriented comments; edge
        // whitespace would not survive the decoder's trim. Both would
        // silently change metadata across a round trip.
        for name in ["bad\nname", " padded", "padded "] {
            let t = Trace { name: name.into(), category: "X".into(), events: vec![] };
            let mut buf = Vec::new();
            let err = encode(&mut buf, &t).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "name {name:?}");
        }
    }

    #[test]
    fn longest_metadata_round_trips_and_longer_is_rejected() {
        let longest = "N".repeat(MAX_CSV_META);
        let t = Trace { name: longest.clone(), category: longest, events: vec![] };
        let mut buf = Vec::new();
        encode(&mut buf, &t).unwrap();
        assert_eq!(decode_str(std::str::from_utf8(&buf).unwrap()).unwrap(), t);
        let t = Trace { name: "N".repeat(MAX_CSV_META + 1), category: "X".into(), events: vec![] };
        let err = encode(&mut Vec::new(), &t).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// 64 MiB of digits with no newline, counting the bytes pulled.
    struct NoNewline {
        left: u64,
        pulled: u64,
    }

    impl Read for NoNewline {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (buf.len() as u64).min(self.left) as usize;
            buf[..n].fill(b'7');
            self.left -= n as u64;
            self.pulled += n as u64;
            Ok(n)
        }
    }

    fn no_newline() -> NoNewline {
        NoNewline { left: 64 << 20, pulled: 0 }
    }

    /// What a capped reader may pull: the cap plus one `BufReader` buffer.
    const PULL_BOUND: u64 = MAX_CSV_LINE as u64 + 8 * 1024;

    #[test]
    fn overlong_header_line_fails_after_a_bounded_read() {
        let mut src = no_newline();
        let err = CsvReader::new(&mut src, "t".into(), "T".into()).err().expect("rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(src.pulled <= PULL_BOUND, "pulled {} bytes", src.pulled);
    }

    #[test]
    fn overlong_event_line_fails_after_a_bounded_read() {
        let mut src = no_newline();
        let header = format!("{CSV_HEADER}\n0x10,jump,1,0x20,0,\n");
        let mut r =
            CsvReader::new(header.as_bytes().chain(&mut src), "t".into(), "T".into()).unwrap();
        assert!(r.next_event().is_some());
        assert!(r.next_event().is_none());
        let err = r.decode_error().expect("overlong line recorded");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        drop(r);
        assert!(src.pulled <= PULL_BOUND, "pulled {} bytes", src.pulled);
    }

    #[test]
    fn declared_event_count_catches_clean_truncation() {
        // A writer-produced file truncated at a line boundary decodes to
        // a clean EOF; the `# events=` comment is what turns that into a
        // detectable error instead of a silently shorter simulation.
        let t = by_name("INT06", Scale::Tiny).unwrap().generate();
        let mut buf = Vec::new();
        encode(&mut buf, &t).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(text.lines().count() - 5).fold(
            String::new(),
            |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            },
        );
        let mut r = CsvReader::new(truncated.as_bytes(), "t".into(), "T".into()).unwrap();
        assert_eq!(r.expected_events(), Some(t.events.len() as u64));
        while r.next_event().is_some() {}
        assert!(r.error.is_none(), "clean truncation records no parse error");
        let err = crate::decoder::finish(&r).unwrap_err();
        assert!(err.to_string().contains("events short"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped_mid_stream() {
        let src = "pc,kind,taken,target,uops_before,load_addr\n\
                   \n# interlude\n0x10,jump,1,0x20,0,\n";
        let t = decode_str(src).unwrap();
        assert_eq!(t.events.len(), 1);
    }
}
