//! The native `.ttr3` binary trace container: streaming, LZ-compressed
//! event blocks, a seek index, and the static-branch table at the end.
//!
//! The table sits in a footer located by a fixed-size trailer, so the
//! writer streams events as they arrive and its peak memory is one block
//! buffer plus the static footprint, independent of the trace length.
//! Blocks are compressed through the [`crate::scheme`] registry named by
//! the header's scheme byte, and a block index between the frames and the
//! table lets a reader seek to any event in O(blocks).
//!
//! Layout (all multi-byte integers little-endian, varints LEB128):
//!
//! ```text
//! header:
//!   magic            8 bytes  "TAGETTR3"
//!   scheme           u8       registry scheme (low 7 bits, 1 = lz) |
//!                             TTR3_INDEX_FLAG (0x80); 0x81 is the only
//!                             byte written or accepted
//!   name             u16 len + UTF-8 bytes
//!   category         u16 len + UTF-8 bytes
//! block frames (repeated):
//!   event_count      u32      events in this block; 0 = end of blocks
//!   raw_len          u32      decompressed payload bytes
//!   comp_len         u32      on-disk payload bytes
//!   payload          comp_len bytes, scheme-compressed event records
//! block index:
//!   magic            8 bytes  "TAGEIDX3"
//!   block_count      u32      equals the number of frames
//!   per block:       frame_offset u64 (file offset of its frame header),
//!                    cum_events u64 (events in all earlier blocks)
//! branch table (branch_count entries, first-appearance order):
//!   pc_delta         ZigZag LEB128   pc − previous entry's pc (first: pc)
//!   kind             u8       0=cond 1=jump 2=ijump 3=call 4=ret
//!   taken_target     ZigZag LEB128   target − pc when taken
//!   nottaken_target  ZigZag LEB128   target − pc when not taken
//! trailer (28 bytes, fixed):
//!   branch_count     u32
//!   event_count      u64
//!   table_offset     u64      file offset of the branch table
//!   end magic        8 bytes  "TAGEEND3"
//! ```
//!
//! A decompressed block payload is a run of event records:
//!
//! ```text
//!   index_delta      ZigZag LEB128   site index − previous record's index
//!                                    (the baseline is 0 at every block start)
//!   flags            u8       bit0 taken, bit1 has_load,
//!                             bit2 target override, bits 3–7 zero
//!   uops_before      LEB128   (≤ 65535)
//!   [bit2] target    ZigZag LEB128   target − the site's default target
//!   [bit1] load_addr LEB128
//! ```
//!
//! Site indices refer to the footer table, and each site's default target
//! per direction is the first one observed. Events matching it (the
//! overwhelmingly common case) cost nothing; a divergent target rides an
//! explicit override, so the format is lossless for arbitrary event
//! streams. Blocks decode independently. The writer needs only `Write` (it
//! counts bytes to learn every offset); the reader needs `Read + Seek` to
//! fetch the footer before streaming blocks.

use crate::decoder::{ContainerInfo, TraceDecoder};
use crate::scheme::{self, BlockScheme, MAX_BLOCK_RAW};
use crate::varint;
use simkit::predictor::BranchKind;
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use workloads::event::{EventSource, Trace, TraceEvent};

/// Leading magic of a `.ttr3` file.
pub const TTR3_MAGIC: &[u8; 8] = b"TAGETTR3";

/// Trailing magic closing the fixed trailer.
pub const TTR3_END_MAGIC: &[u8; 8] = b"TAGEEND3";

/// Bit of the header scheme byte announcing the block-index section. The
/// compression scheme proper lives in the low 7 bits. Every file carries
/// the index, so readers reject a header without this bit.
pub const TTR3_INDEX_FLAG: u8 = 0x80;

/// Magic opening the block-index section.
pub const TTR3_INDEX_MAGIC: &[u8; 8] = b"TAGEIDX3";

/// Fixed trailer size: branch_count u32 + event_count u64 + table_offset
/// u64 + end magic.
pub const TTR3_TRAILER_LEN: u64 = 4 + 8 + 8 + 8;

/// Default decompressed-block flush threshold. Small enough that the
/// writer's working set stays cache-resident, large enough that the LZ
/// scheme sees whole loop periods.
pub const DEFAULT_BLOCK_RAW: usize = 64 * 1024;

/// Cap on events per block (second flush trigger, bounds the frame field).
pub const MAX_BLOCK_EVENTS: u32 = 1 << 20;

/// Decoder cap on static-branch-table entries: bounds `open` memory on
/// corrupt or adversarial trailers.
pub const MAX_BRANCH_TABLE: u32 = 1 << 24;

const FLAG_TAKEN: u8 = 1 << 0;
const FLAG_LOAD: u8 = 1 << 1;
const FLAG_TARGET: u8 = 1 << 2;

fn kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::Conditional => 0,
        BranchKind::DirectJump => 1,
        BranchKind::IndirectJump => 2,
        BranchKind::Call => 3,
        BranchKind::Return => 4,
    }
}

fn code_kind(c: u8) -> io::Result<BranchKind> {
    Ok(match c {
        0 => BranchKind::Conditional,
        1 => BranchKind::DirectJump,
        2 => BranchKind::IndirectJump,
        3 => BranchKind::Call,
        4 => BranchKind::Return,
        other => return Err(bad(format!("invalid branch kind code {other}"))),
    })
}

fn write_str(w: &mut dyn Write, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "string exceeds 64KiB"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)
}

fn read_str(r: &mut dyn Read) -> io::Result<String> {
    let mut len = [0u8; 2];
    r.read_exact(&mut len)?;
    let mut buf = vec![0u8; u16::from_le_bytes(len) as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The block scheme a header scheme byte names, if this container accepts
/// the byte: a registered scheme with [`TTR3_INDEX_FLAG`] set.
fn indexed_scheme(byte: u8) -> Option<&'static dyn BlockScheme> {
    if byte & TTR3_INDEX_FLAG == 0 {
        return None;
    }
    scheme::by_id(byte & !TTR3_INDEX_FLAG)
}

/// One static-branch-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TableEntry {
    pc: u64,
    kind: BranchKind,
    taken_target: u64,
    nottaken_target: u64,
}

impl TableEntry {
    fn default_target(&self, taken: bool) -> u64 {
        if taken {
            self.taken_target
        } else {
            self.nottaken_target
        }
    }
}

/// Encodes one event record (index delta + flags + fields) against its
/// site entry.
fn encode_event_record(
    w: &mut dyn Write,
    site: &TableEntry,
    index: usize,
    prev_index: &mut i64,
    e: &TraceEvent,
) -> io::Result<()> {
    let default = site.default_target(e.taken);
    let mut flags = 0u8;
    if e.taken {
        flags |= FLAG_TAKEN;
    }
    if e.load_addr.is_some() {
        flags |= FLAG_LOAD;
    }
    if e.target != default {
        flags |= FLAG_TARGET;
    }
    varint::write_i64(w, index as i64 - *prev_index)?;
    w.write_all(&[flags])?;
    varint::write_u64(w, u64::from(e.uops_before))?;
    if flags & FLAG_TARGET != 0 {
        varint::write_i64(w, e.target.wrapping_sub(default) as i64)?;
    }
    if let Some(addr) = e.load_addr {
        varint::write_u64(w, addr)?;
    }
    *prev_index = index as i64;
    Ok(())
}

/// Decodes one event record against `table` — the inverse of
/// [`encode_event_record`].
fn decode_event_record(
    r: &mut dyn Read,
    table: &[TableEntry],
    prev_index: &mut i64,
) -> io::Result<TraceEvent> {
    let index = prev_index.wrapping_add(varint::read_i64(r)?);
    let site = usize::try_from(index)
        .ok()
        .and_then(|i| table.get(i))
        .copied()
        .ok_or_else(|| bad(format!("event site index {index} outside the branch table")))?;
    *prev_index = index;
    let mut byte = [0u8; 1];
    r.read_exact(&mut byte)?;
    let flags = byte[0];
    if flags & !(FLAG_TAKEN | FLAG_LOAD | FLAG_TARGET) != 0 {
        return Err(bad(format!("invalid event flags {flags:#04x}")));
    }
    let taken = flags & FLAG_TAKEN != 0;
    let uops = varint::read_u64(r)?;
    let uops_before =
        u16::try_from(uops).map_err(|_| bad("uops_before exceeds u16".to_string()))?;
    let mut target = site.default_target(taken);
    if flags & FLAG_TARGET != 0 {
        target = target.wrapping_add(varint::read_i64(r)? as u64);
    }
    let load_addr =
        if flags & FLAG_LOAD != 0 { Some(varint::read_u64(r)?) } else { None };
    Ok(TraceEvent { pc: site.pc, kind: site.kind, taken, target, uops_before, load_addr })
}

/// Writer-side summary returned by [`Ttr3Writer::finish`]: the bounded-
/// memory recording evidence (`peak_block_raw`) plus the compression
/// ledger feeding `inspect`/EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ttr3Summary {
    /// Events written.
    pub events: u64,
    /// Static-branch-table entries.
    pub static_branches: usize,
    /// Blocks flushed.
    pub blocks: u64,
    /// Total decompressed payload bytes.
    pub raw_bytes: u64,
    /// Total compressed payload bytes.
    pub comp_bytes: u64,
    /// Largest decompressed block buffer held at any point — the writer's
    /// peak transient allocation besides the static table.
    pub peak_block_raw: usize,
}

struct CountingWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct SiteSlot {
    pc: u64,
    kind: u8,
    taken_target: Option<u64>,
    nottaken_target: Option<u64>,
}

impl SiteSlot {
    fn entry(&self) -> io::Result<TableEntry> {
        Ok(TableEntry {
            pc: self.pc,
            kind: code_kind(self.kind)?,
            taken_target: self.taken_target.unwrap_or(self.pc),
            nottaken_target: self.nottaken_target.unwrap_or(self.pc),
        })
    }
}

/// A single-pass, bounded-memory `.ttr3` encoder. Push events as they
/// arrive; memory held is one block buffer (~[`DEFAULT_BLOCK_RAW`]) plus
/// the growing static-branch table and 16 bytes of index per block, never
/// the event stream.
pub struct Ttr3Writer<W: Write> {
    out: CountingWriter<W>,
    scheme: &'static dyn BlockScheme,
    site_index: HashMap<(u64, u8), u32>,
    table: Vec<SiteSlot>,
    raw: Vec<u8>,
    block_events: u32,
    prev_index: i64,
    block_target: usize,
    summary: Ttr3Summary,
    // One `(frame_offset, cum_events)` pair per flushed block, written as
    // the block-index section by `finish`.
    block_index: Vec<(u64, u64)>,
}

impl<W: Write> Ttr3Writer<W> {
    /// Writes the header and prepares for streaming. `scheme_id` must be a
    /// registered scheme with [`TTR3_INDEX_FLAG`] set, which today means
    /// `1 | TTR3_INDEX_FLAG` (lz blocks, as [`Ttr3Codec::default`] uses).
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for any other scheme byte or an over-long
    /// name/category, plus any writer I/O error.
    pub fn new(writer: W, name: &str, category: &str, scheme_id: u8) -> io::Result<Self> {
        let scheme = indexed_scheme(scheme_id).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "scheme byte {scheme_id:#04x} is not a registered scheme with the index flag"
                ),
            )
        })?;
        let mut out = CountingWriter { inner: writer, written: 0 };
        out.write_all(TTR3_MAGIC)?;
        out.write_all(&[scheme_id])?;
        write_str(&mut out, name)?;
        write_str(&mut out, category)?;
        Ok(Self {
            out,
            scheme,
            site_index: HashMap::new(),
            table: Vec::new(),
            raw: Vec::with_capacity(DEFAULT_BLOCK_RAW + 64),
            block_events: 0,
            prev_index: 0,
            block_target: DEFAULT_BLOCK_RAW,
            summary: Ttr3Summary::default(),
            block_index: Vec::new(),
        })
    }

    /// Overrides the block flush threshold (mainly for tests; clamped to
    /// at least one event per block by construction).
    pub fn with_block_target(mut self, bytes: usize) -> Self {
        self.block_target = bytes.max(1);
        self
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the static footprint exceeds
    /// [`MAX_BRANCH_TABLE`] and any writer I/O error from a block flush.
    pub fn push(&mut self, e: &TraceEvent) -> io::Result<()> {
        let key = (e.pc, kind_code(e.kind));
        let index = match self.site_index.get(&key) {
            Some(&i) => i as usize,
            None => {
                if self.table.len() as u64 >= u64::from(MAX_BRANCH_TABLE) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "static branch count exceeds the table cap",
                    ));
                }
                let i = self.table.len();
                self.site_index.insert(key, i as u32);
                self.table.push(SiteSlot {
                    pc: key.0,
                    kind: key.1,
                    taken_target: None,
                    nottaken_target: None,
                });
                i
            }
        };
        let slot = &mut self.table[index];
        let side = if e.taken { &mut slot.taken_target } else { &mut slot.nottaken_target };
        // First-observed target per side becomes the decoder's default —
        // including for this very event, which therefore needs no override.
        side.get_or_insert(e.target);
        let entry = slot.entry()?;
        encode_event_record(&mut self.raw, &entry, index, &mut self.prev_index, e)?;
        self.block_events += 1;
        self.summary.events += 1;
        if self.raw.len() >= self.block_target || self.block_events >= MAX_BLOCK_EVENTS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_events == 0 {
            return Ok(());
        }
        // Absolute offset of this frame's header, and the events that
        // precede the block (summary.events already counts this block's
        // events).
        self.block_index
            .push((self.out.written, self.summary.events - u64::from(self.block_events)));
        self.summary.peak_block_raw = self.summary.peak_block_raw.max(self.raw.len());
        let comp = self.scheme.compress(&self.raw);
        self.out.write_all(&self.block_events.to_le_bytes())?;
        self.out.write_all(&(self.raw.len() as u32).to_le_bytes())?;
        self.out.write_all(&(comp.len() as u32).to_le_bytes())?;
        self.out.write_all(&comp)?;
        self.summary.blocks += 1;
        self.summary.raw_bytes += self.raw.len() as u64;
        self.summary.comp_bytes += comp.len() as u64;
        self.raw.clear();
        self.block_events = 0;
        self.prev_index = 0;
        Ok(())
    }

    /// Flushes the final block and writes the block index, the footer
    /// table and the trailer.
    ///
    /// # Errors
    ///
    /// Any writer I/O error.
    pub fn finish(mut self) -> io::Result<Ttr3Summary> {
        self.flush_block()?;
        self.out.write_all(&0u32.to_le_bytes())?;
        self.out.write_all(TTR3_INDEX_MAGIC)?;
        self.out.write_all(&(self.block_index.len() as u32).to_le_bytes())?;
        for (frame_offset, cum_events) in &self.block_index {
            self.out.write_all(&frame_offset.to_le_bytes())?;
            self.out.write_all(&cum_events.to_le_bytes())?;
        }
        let table_offset = self.out.written;
        let mut prev_pc = 0u64;
        for slot in &self.table {
            let t = slot.entry()?;
            varint::write_i64(&mut self.out, t.pc.wrapping_sub(prev_pc) as i64)?;
            self.out.write_all(&[kind_code(t.kind)])?;
            varint::write_i64(&mut self.out, t.taken_target.wrapping_sub(t.pc) as i64)?;
            varint::write_i64(&mut self.out, t.nottaken_target.wrapping_sub(t.pc) as i64)?;
            prev_pc = t.pc;
        }
        self.out.write_all(&(self.table.len() as u32).to_le_bytes())?;
        self.out.write_all(&self.summary.events.to_le_bytes())?;
        self.out.write_all(&table_offset.to_le_bytes())?;
        self.out.write_all(TTR3_END_MAGIC)?;
        self.out.flush()?;
        self.summary.static_branches = self.table.len();
        Ok(self.summary)
    }
}

/// Serializes a materialized trace as `.ttr3` under the given scheme byte
/// (see [`Ttr3Writer::new`]).
///
/// # Errors
///
/// Propagates [`Ttr3Writer`] errors.
pub fn encode(w: &mut dyn Write, trace: &Trace, scheme_id: u8) -> io::Result<Ttr3Summary> {
    let mut writer = Ttr3Writer::new(w, &trace.name, &trace.category, scheme_id)?;
    for e in &trace.events {
        writer.push(e)?;
    }
    writer.finish()
}

/// A streaming `.ttr3` decoder: reads the footer up front (one seek),
/// then streams blocks, holding one decompressed block at a time.
pub struct Ttr3Reader<R> {
    name: String,
    category: String,
    table: Vec<TableEntry>,
    scheme: &'static dyn BlockScheme,
    info: ContainerInfo,
    reader: R,
    remaining: u64,
    total: u64,
    block: Vec<u8>,
    block_pos: usize,
    block_left: u32,
    prev_index: i64,
    error: Option<io::Error>,
    // One `(frame_offset, cum_events)` pair per block, validated entry by
    // entry against the open-time frame-chain walk — `skip` can therefore
    // never mis-seek on a corrupt index (corruption fails at open).
    block_index: Vec<(u64, u64)>,
}

impl<R: Read + Seek> Ttr3Reader<R> {
    /// Reads the header, trailer, block index and footer table, validates
    /// the block frame chain, and leaves the reader positioned at the
    /// first block.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on bad leading/trailing magic, a scheme byte
    /// that is unregistered or lacks [`TTR3_INDEX_FLAG`], an oversized
    /// branch table or block frame, a block index disagreeing with the
    /// frame chain, a frame chain that does not land exactly on the
    /// footer, or a block-frame event total disagreeing with the trailer —
    /// plus any I/O error.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != TTR3_MAGIC {
            return Err(bad("bad .ttr3 magic".to_string()));
        }
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        let scheme = indexed_scheme(byte[0]).ok_or_else(|| {
            bad(format!(
                "unsupported .ttr3 scheme byte {:#04x} (needs a registered scheme with the \
                 index flag)",
                byte[0]
            ))
        })?;
        let name = read_str(&mut reader)?;
        let category = read_str(&mut reader)?;
        let events_start = reader.stream_position()?;

        let file_len = reader.seek(SeekFrom::End(0))?;
        if file_len < events_start + 4 + TTR3_TRAILER_LEN {
            return Err(bad("file too short for a .ttr3 trailer".to_string()));
        }
        let trailer_start = file_len - TTR3_TRAILER_LEN;
        reader.seek(SeekFrom::Start(trailer_start))?;
        let mut n32 = [0u8; 4];
        let mut n64 = [0u8; 8];
        reader.read_exact(&mut n32)?;
        let branch_count = u32::from_le_bytes(n32);
        reader.read_exact(&mut n64)?;
        let total = u64::from_le_bytes(n64);
        reader.read_exact(&mut n64)?;
        let table_offset = u64::from_le_bytes(n64);
        reader.read_exact(&mut magic)?;
        if &magic != TTR3_END_MAGIC {
            return Err(bad("bad .ttr3 end magic".to_string()));
        }
        if branch_count > MAX_BRANCH_TABLE {
            return Err(bad(format!("branch table of {branch_count} entries exceeds the cap")));
        }
        if table_offset < events_start + 4 || table_offset > trailer_start {
            return Err(bad(format!("table offset {table_offset} outside the file body")));
        }

        reader.seek(SeekFrom::Start(table_offset))?;
        // The count is untrusted until the table bytes actually decode:
        // cap the up-front allocation.
        let mut table = Vec::with_capacity((branch_count as usize).min(1 << 16));
        let mut prev_pc = 0u64;
        for _ in 0..branch_count {
            let pc = prev_pc.wrapping_add(varint::read_i64(&mut reader)? as u64);
            reader.read_exact(&mut byte)?;
            let kind = code_kind(byte[0])?;
            let taken_target = pc.wrapping_add(varint::read_i64(&mut reader)? as u64);
            let nottaken_target = pc.wrapping_add(varint::read_i64(&mut reader)? as u64);
            table.push(TableEntry { pc, kind, taken_target, nottaken_target });
            prev_pc = pc;
        }
        if reader.stream_position()? != trailer_start {
            return Err(bad("branch table does not end at the trailer".to_string()));
        }

        // Walk the frame chain once (headers only, payloads skipped) to
        // validate it and collect the block/compression vitals — and the
        // ground-truth block offsets the index is checked against.
        reader.seek(SeekFrom::Start(events_start))?;
        let mut info = ContainerInfo {
            scheme_id: scheme.id(),
            scheme: scheme.name(),
            blocks: 0,
            raw_bytes: 0,
            comp_bytes: 0,
            index_bytes: 0,
        };
        let mut frame_events = 0u64;
        let mut block_index: Vec<(u64, u64)> = Vec::new();
        loop {
            let frame_offset = reader.stream_position()?;
            let (events, raw_len, comp_len) = read_frame(&mut reader)?;
            if events == 0 {
                break;
            }
            block_index.push((frame_offset, frame_events));
            info.blocks += 1;
            info.raw_bytes += u64::from(raw_len);
            info.comp_bytes += u64::from(comp_len);
            frame_events += u64::from(events);
            let pos = reader.stream_position()?;
            if u64::from(comp_len) > table_offset.saturating_sub(pos) {
                return Err(bad(format!("block payload of {comp_len} bytes overruns the table")));
            }
            reader.seek(SeekFrom::Current(i64::from(comp_len)))?;
        }
        // The index section sits right after the frame sentinel. It must
        // agree with the walk exactly — a corrupt or truncated index fails
        // the open loudly instead of mis-seeking later.
        reader.read_exact(&mut magic)?;
        if &magic != TTR3_INDEX_MAGIC {
            return Err(bad("bad .ttr3 block-index magic".to_string()));
        }
        reader.read_exact(&mut n32)?;
        let count = u32::from_le_bytes(n32);
        if u64::from(count) != info.blocks {
            return Err(bad(format!(
                "block index declares {count} blocks, the frame chain holds {}",
                info.blocks
            )));
        }
        for (i, &(frame_offset, cum_events)) in block_index.iter().enumerate() {
            reader.read_exact(&mut n64)?;
            let idx_offset = u64::from_le_bytes(n64);
            reader.read_exact(&mut n64)?;
            let idx_events = u64::from_le_bytes(n64);
            if (idx_offset, idx_events) != (frame_offset, cum_events) {
                return Err(bad(format!(
                    "block index entry {i} ({idx_offset}, {idx_events}) disagrees with the \
                     frame chain ({frame_offset}, {cum_events})"
                )));
            }
        }
        info.index_bytes = 8 + 4 + 16 * u64::from(count);
        if reader.stream_position()? != table_offset {
            return Err(bad("block index does not end at the branch table".to_string()));
        }
        if frame_events != total {
            return Err(bad(format!(
                "block frames hold {frame_events} events, trailer declares {total}"
            )));
        }
        reader.seek(SeekFrom::Start(events_start))?;

        Ok(Self {
            name,
            category,
            table,
            scheme,
            info,
            reader,
            remaining: total,
            total,
            block: Vec::new(),
            block_pos: 0,
            block_left: 0,
            prev_index: 0,
            error: None,
            block_index,
        })
    }

    /// Static-branch-table size.
    pub fn static_branches(&self) -> usize {
        self.table.len()
    }

    fn refill_block(&mut self) -> io::Result<()> {
        if self.block_pos != self.block.len() {
            return Err(bad(format!(
                "{} undecoded bytes left at the end of a block",
                self.block.len() - self.block_pos
            )));
        }
        let (events, raw_len, comp_len) = read_frame(&mut self.reader)?;
        if events == 0 {
            // remaining > 0 here (next_event checks first); the count
            // shortfall is reported through remaining_events/finish.
            self.block_left = 0;
            return Err(bad("block chain ended before the declared event count".to_string()));
        }
        let mut comp = vec![0u8; comp_len as usize];
        self.reader.read_exact(&mut comp)?;
        self.block = self.scheme.decompress(&comp, raw_len as usize)?;
        self.block_pos = 0;
        self.block_left = events;
        self.prev_index = 0;
        Ok(())
    }

    fn decode_event(&mut self) -> io::Result<TraceEvent> {
        if self.block_left == 0 {
            self.refill_block()?;
        }
        let mut slice = &self.block[self.block_pos..];
        let before = slice.len();
        let e = decode_event_record(&mut slice, &self.table, &mut self.prev_index)?;
        self.block_pos += before - slice.len();
        self.block_left -= 1;
        Ok(e)
    }
}

fn read_frame<R: Read>(r: &mut R) -> io::Result<(u32, u32, u32)> {
    let mut n32 = [0u8; 4];
    r.read_exact(&mut n32)?;
    let events = u32::from_le_bytes(n32);
    if events == 0 {
        return Ok((0, 0, 0));
    }
    r.read_exact(&mut n32)?;
    let raw_len = u32::from_le_bytes(n32);
    r.read_exact(&mut n32)?;
    let comp_len = u32::from_le_bytes(n32);
    if events > MAX_BLOCK_EVENTS {
        return Err(bad(format!("block of {events} events exceeds the cap")));
    }
    if raw_len as usize > MAX_BLOCK_RAW {
        return Err(bad(format!("block of {raw_len} raw bytes exceeds the cap")));
    }
    if comp_len as usize > MAX_BLOCK_RAW + (MAX_BLOCK_RAW >> 3) {
        return Err(bad(format!("block of {comp_len} compressed bytes exceeds the cap")));
    }
    Ok((events, raw_len, comp_len))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl<R: Read + Seek> EventSource for Ttr3Reader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn category(&self) -> &str {
        &self.category
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        if self.remaining == 0 || self.error.is_some() {
            return None;
        }
        match self.decode_event() {
            Ok(e) => {
                self.remaining -= 1;
                Some(e)
            }
            Err(e) => {
                // EventSource has no error channel; record the failure and
                // end the stream so TraceDecoder::decode_error surfaces it.
                self.error = Some(e);
                None
            }
        }
    }

    fn skip(&mut self, n: u64) -> u64 {
        let n = n.min(self.remaining);
        if n == 0 || self.error.is_some() {
            return 0;
        }
        let start = self.total - self.remaining;
        let target = start + n;
        // Events decoded so far sit `block_left` short of the current
        // block's end; a target past that end is reached by seeking
        // straight to the frame holding it (the index was validated
        // against the frame chain at open), never by decompressing the
        // blocks in between.
        if target > start + u64::from(self.block_left) {
            let i = self.block_index.partition_point(|&(_, cum)| cum <= target) - 1;
            let (frame_offset, cum_events) = self.block_index[i];
            if let Err(e) = self.reader.seek(SeekFrom::Start(frame_offset)) {
                self.error = Some(e);
                return 0;
            }
            self.block.clear();
            self.block_pos = 0;
            self.block_left = 0;
            self.prev_index = 0;
            self.remaining = self.total - cum_events;
        }
        // Decode-discard the within-block remainder to land exactly on
        // `target`.
        while self.total - self.remaining < target {
            if self.next_event().is_none() {
                break;
            }
        }
        (self.total - self.remaining) - start
    }
}

impl<R: Read + Seek> TraceDecoder for Ttr3Reader<R> {
    fn format(&self) -> &'static str {
        "ttr3"
    }

    fn container_info(&self) -> Option<ContainerInfo> {
        Some(self.info)
    }

    fn decode_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn expected_events(&self) -> Option<u64> {
        Some(self.total)
    }

    fn remaining_events(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

/// The `.ttr3` [`crate::TraceCodec`]. Carries the header scheme byte used
/// for encoding (see [`Ttr3Writer::new`]); decoding reads whatever the
/// file names.
pub struct Ttr3Codec {
    /// Scheme byte for `encode`/`encode_stream` output.
    pub scheme_id: u8,
}

impl Default for Ttr3Codec {
    /// LZ blocks with the seek index: the one scheme byte the container
    /// writes and reads.
    fn default() -> Self {
        Self { scheme_id: 1 | TTR3_INDEX_FLAG }
    }
}

impl crate::TraceCodec for Ttr3Codec {
    fn name(&self) -> &'static str {
        "ttr3"
    }

    fn description(&self) -> &'static str {
        "native .ttr3: streaming LZ-block container with a seek index (lossless)"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["ttr3"]
    }

    fn matches_magic(&self, prefix: &[u8]) -> bool {
        prefix.starts_with(TTR3_MAGIC)
    }

    fn encode(&self, w: &mut dyn Write, trace: &Trace) -> io::Result<()> {
        encode(w, trace, self.scheme_id).map(|_| ())
    }

    fn encode_stream(&self, w: &mut dyn Write, source: &mut dyn EventSource) -> io::Result<()> {
        // Single pass: the table lives in the footer, so events stream
        // straight into blocks.
        let mut writer = Ttr3Writer::new(w, source.name(), source.category(), self.scheme_id)?;
        while let Some(e) = source.next_event() {
            writer.push(&e)?;
        }
        writer.finish().map(|_| ())
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn TraceDecoder + Send>> {
        let f = std::fs::File::open(path)?;
        Ok(Box::new(Ttr3Reader::new(io::BufReader::new(f))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use workloads::suite::{by_name, Scale};

    const NATIVE: u8 = 1 | TTR3_INDEX_FLAG;

    fn encode_vec(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(&mut buf, t, NATIVE).unwrap();
        buf
    }

    fn encode_blocks(t: &Trace, block_target: usize) -> (Vec<u8>, Ttr3Summary) {
        let mut buf = Vec::new();
        let mut w = Ttr3Writer::new(&mut buf, &t.name, &t.category, NATIVE)
            .unwrap()
            .with_block_target(block_target);
        for e in &t.events {
            w.push(e).unwrap();
        }
        let summary = w.finish().unwrap();
        (buf, summary)
    }

    fn decode_vec(buf: Vec<u8>) -> io::Result<Trace> {
        let mut r = Ttr3Reader::new(Cursor::new(buf))?;
        let name = r.name.clone();
        let category = r.category.clone();
        let mut events = Vec::new();
        while let Some(e) = r.next_event() {
            events.push(e);
        }
        crate::decoder::finish(&r)?;
        Ok(Trace { name, category, events })
    }

    #[test]
    fn suite_trace_round_trips_losslessly() {
        let t = by_name("INT02", Scale::Tiny).unwrap().generate();
        assert_eq!(decode_vec(encode_vec(&t)).unwrap(), t);
    }

    #[test]
    fn multi_block_trace_round_trips() {
        // A tiny block target forces many blocks, exercising the per-block
        // prev_index reset and the frame chain walk.
        let t = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
        let (buf, summary) = encode_blocks(&t, 128);
        assert!(summary.blocks > 10, "only {} blocks", summary.blocks);
        assert_eq!(summary.events, t.events.len() as u64);
        assert!(summary.peak_block_raw < 256, "peak {}", summary.peak_block_raw);
        let mut r = Ttr3Reader::new(Cursor::new(buf)).unwrap();
        let info = r.container_info().unwrap();
        assert_eq!(info.blocks, summary.blocks);
        assert_eq!(info.raw_bytes, summary.raw_bytes);
        assert_eq!(info.comp_bytes, summary.comp_bytes);
        assert_eq!(info.scheme, "lz");
        let mut events = Vec::new();
        while let Some(e) = r.next_event() {
            events.push(e);
        }
        crate::decoder::finish(&r).unwrap();
        assert_eq!(events, t.events);
    }

    #[test]
    fn writer_memory_is_bounded_by_the_block_target() {
        // The bounded-memory claim: the writer's transient buffer peaks
        // near the flush threshold no matter how many events stream
        // through (here ~40× the threshold's worth).
        let t = by_name("MM01", Scale::Small).unwrap().generate();
        let (_, summary) = encode_blocks(&t, 1024);
        assert!(summary.raw_bytes > 40 * 1024, "trace too small: {}", summary.raw_bytes);
        // One event record never exceeds ~32 bytes, so the buffer peaks
        // just past the threshold.
        assert!(summary.peak_block_raw < 1024 + 64, "peak {}", summary.peak_block_raw);
    }

    #[test]
    fn reencoding_a_decoded_stream_is_byte_identical() {
        // decode → re-encode must reproduce the file byte for byte: the
        // property CI's `ttr3 -> csv -> ttr3` cmp rests on.
        for name in ["WS01", "CLIENT01"] {
            let t = by_name(name, Scale::Tiny).unwrap().generate();
            let first = encode_vec(&t);
            let back = decode_vec(first.clone()).unwrap();
            assert_eq!(encode_vec(&back), first, "{name}");
        }
    }

    #[test]
    fn lz_blocks_beat_their_raw_payload() {
        // The point of the scheme: on the suite fixtures the compressed
        // payload comes in at ≤ 0.7× the raw event records, losslessly.
        for name in ["CLIENT01", "MM01", "INT02", "WS01"] {
            let t = by_name(name, Scale::Tiny).unwrap().generate();
            let mut buf = Vec::new();
            let s = encode(&mut buf, &t, NATIVE).unwrap();
            assert!(
                s.comp_bytes * 10 <= s.raw_bytes * 7,
                "{name}: lz {} bytes vs raw {} bytes",
                s.comp_bytes,
                s.raw_bytes
            );
            assert_eq!(decode_vec(buf).unwrap(), t, "{name}");
        }
    }

    #[test]
    fn raw_payload_is_compact() {
        // The event records alone, before LZ: a fixed-width record codec
        // (8-byte magic, two u32-length-prefixed strings and a u64 event
        // count, then 21 bytes per event — pc, target, kind, taken, µops,
        // load flag — plus 8 per load address) is more than 3× larger.
        let t = by_name("MM01", Scale::Tiny).unwrap().generate();
        let mut buf = Vec::new();
        let packed = encode(&mut buf, &t, NATIVE).unwrap().raw_bytes as f64;
        let loads = t.events.iter().filter(|e| e.load_addr.is_some()).count();
        let v1 = (8 + 4 + t.name.len() + 4 + t.category.len() + 8 + 21 * t.events.len() + 8 * loads)
            as f64;
        assert!(packed < v1 / 3.0, "packed {packed} bytes vs fixed-width {v1} bytes");
    }

    #[test]
    fn unconditional_and_divergent_target_events_round_trip() {
        let t = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
        assert!(t.events.iter().any(|e| !e.kind.is_conditional()));
        assert_eq!(decode_vec(encode_vec(&t)).unwrap(), t);
    }

    #[test]
    fn divergent_targets_use_overrides() {
        // Same (pc, taken) with two different targets: the second event
        // must survive via the override path.
        let mk = |target| TraceEvent {
            pc: 0x100,
            kind: BranchKind::IndirectJump,
            taken: true,
            target,
            uops_before: 3,
            load_addr: None,
        };
        let t = Trace {
            name: "ind".into(),
            category: "TEST".into(),
            events: vec![mk(0x8000), mk(0x9000), mk(0x8000)],
        };
        assert_eq!(decode_vec(encode_vec(&t)).unwrap(), t);
    }

    #[test]
    fn extreme_addresses_round_trip() {
        let mk = |pc, target| TraceEvent {
            pc,
            kind: BranchKind::Conditional,
            taken: pc % 2 == 0,
            target,
            uops_before: u16::MAX,
            load_addr: Some(u64::MAX),
        };
        let t = Trace {
            name: "edge".into(),
            category: "TEST".into(),
            events: vec![mk(0, u64::MAX), mk(u64::MAX, 0), mk(1 << 63, 1)],
        };
        assert_eq!(decode_vec(encode_vec(&t)).unwrap(), t);
    }

    #[test]
    fn rejects_out_of_range_event_index() {
        let t = Trace {
            name: "x".into(),
            category: "X".into(),
            events: vec![TraceEvent {
                pc: 4,
                kind: BranchKind::Conditional,
                taken: true,
                target: 8,
                uops_before: 0,
                load_addr: None,
            }],
        };
        let mut buf = encode_vec(&t);
        // The single 3-byte record (index delta, flags, µops) is too short
        // for an LZ match, so the payload is one literal run: a length byte
        // then the raw record. Bump the index delta past the table.
        let frame = 8 + 1 + 2 + t.name.len() + 2 + t.category.len();
        let raw_len = u32::from_le_bytes(buf[frame + 4..frame + 8].try_into().unwrap());
        assert_eq!(raw_len, 3);
        assert_eq!(buf[frame + 12], 3, "payload is one literal run");
        assert_eq!(buf[frame + 13], 0, "index delta of the only record");
        buf[frame + 13] = 0x04; // zigzag(2)
        let err = decode_vec(buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("outside the branch table"), "{err}");
    }

    #[test]
    fn rejects_bad_magic_scheme_trailer_and_oversized_table() {
        let t = by_name("WS01", Scale::Tiny).unwrap().generate();
        let good = encode_vec(&t);
        // Leading magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Ttr3Reader::new(Cursor::new(bad_magic)).is_err());
        // Unregistered scheme byte.
        let mut bad_scheme = good.clone();
        bad_scheme[8] = 200;
        assert!(Ttr3Reader::new(Cursor::new(bad_scheme)).is_err());
        // Clipped trailer magic.
        let mut bad_end = good.clone();
        let n = bad_end.len();
        bad_end[n - 1] ^= 0xFF;
        assert!(Ttr3Reader::new(Cursor::new(bad_end)).is_err());
        // A trailer claiming a huge branch table is rejected before any
        // allocation of that size.
        let mut huge = encode_vec(&Trace { name: "x".into(), category: "X".into(), events: vec![] });
        let n = huge.len();
        huge[n - 28..n - 24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Ttr3Reader::new(Cursor::new(huge)).is_err());
        // Truncations anywhere must error at open or at finish — never
        // panic, never silently succeed.
        for frac in 1..8 {
            let cut = good.len() * frac / 8;
            let r = decode_vec(good[..cut].to_vec());
            assert!(r.is_err(), "truncation to {cut} bytes went unnoticed");
        }
    }

    #[test]
    fn retired_layouts_fail_with_invalid_data() {
        let good = encode_vec(&by_name("WS01", Scale::Tiny).unwrap().generate());
        // The v2 container's magic differed from this one in the version
        // digit; no registered codec claims it.
        let mut v2 = good.clone();
        v2[7] = b'2';
        // Scheme byte 0 (the stored-block scheme) and an index-less lz
        // header (flag bit clear).
        let mut stored = good.clone();
        stored[8] = 0;
        let mut unindexed = good.clone();
        unindexed[8] = 1;
        for (label, bytes) in [("v2 magic", &v2), ("scheme 0", &stored), ("no index", &unindexed)] {
            let err = Ttr3Reader::new(Cursor::new(bytes.clone())).err().expect(label);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{label}: {err}");
        }
        let registry = crate::CodecRegistry::standard();
        let err = registry.detect_prefix(&v2, None).err().expect("v2 magic is unclaimed");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The writer accepts the one native byte and nothing else.
        for byte in [0u8, 1, TTR3_INDEX_FLAG, 2 | TTR3_INDEX_FLAG, 0xFF] {
            let err = Ttr3Writer::new(Vec::new(), "x", "X", byte).err().expect("rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "byte {byte:#04x}");
        }
        assert!(Ttr3Writer::new(Vec::new(), "x", "X", NATIVE).is_ok());
    }

    #[test]
    fn container_reports_its_scheme_and_index() {
        let t = by_name("INT02", Scale::Tiny).unwrap().generate();
        let (buf, _) = encode_blocks(&t, 256);
        let r = Ttr3Reader::new(Cursor::new(buf)).unwrap();
        let info = r.container_info().unwrap();
        // The flag is masked out of the reported scheme byte.
        assert_eq!(info.scheme_id, 1);
        assert_eq!(info.scheme, "lz");
        assert!(info.blocks > 1);
        assert_eq!(info.index_bytes, 8 + 4 + 16 * info.blocks);
    }

    #[test]
    fn seek_skip_lands_exactly_where_decode_discard_does() {
        let t = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
        let total = t.events.len() as u64;
        let (buf, _) = encode_blocks(&t, 200);
        // The reference walk discards events one `next_event` at a time,
        // never touching the index.
        let walk = |r: &mut Ttr3Reader<Cursor<Vec<u8>>>, n: u64| {
            let mut k = 0;
            while k < n && r.next_event().is_some() {
                k += 1;
            }
            k
        };
        // Offsets straddling block boundaries, plus the degenerate ends.
        for n in [0, 1, 7, 50, 51, 52, total / 2, total - 1, total, total + 10] {
            let mut seeker = Ttr3Reader::new(Cursor::new(buf.clone())).unwrap();
            let mut walker = Ttr3Reader::new(Cursor::new(buf.clone())).unwrap();
            assert_eq!(seeker.skip(n), walk(&mut walker, n), "skip count at n={n}");
            let rest: Vec<_> = std::iter::from_fn(|| seeker.next_event()).collect();
            let expect: Vec<_> = std::iter::from_fn(|| walker.next_event()).collect();
            assert!(seeker.decode_error().is_none(), "decode error at n={n}");
            assert_eq!(rest, expect, "stream mismatch after skip({n})");
            assert_eq!(rest.len() as u64, total.saturating_sub(n.min(total)));
        }
        // Repeated short skips interleaved with decoding also line up.
        let mut seeker = Ttr3Reader::new(Cursor::new(buf.clone())).unwrap();
        let mut walker = Ttr3Reader::new(Cursor::new(buf)).unwrap();
        loop {
            assert_eq!(seeker.skip(37), walk(&mut walker, 37));
            let (a, b) = (seeker.next_event(), walker.next_event());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(seeker.decode_error().is_none());
    }

    #[test]
    fn corrupt_or_truncated_index_fails_at_open() {
        let t = by_name("WS01", Scale::Tiny).unwrap().generate();
        let (good, _) = encode_blocks(&t, 256);
        let r = Ttr3Reader::new(Cursor::new(good.clone())).unwrap();
        let index_bytes = r.info.index_bytes as usize;
        drop(r);
        // The index section sits right before the branch table; locate it
        // through the trailer's table offset.
        let table_offset = u64::from_le_bytes(
            good[good.len() - 16..good.len() - 8].try_into().unwrap(),
        ) as usize;
        let index_start = table_offset - index_bytes;
        assert_eq!(&good[index_start..index_start + 8], TTR3_INDEX_MAGIC);
        // Flip bytes across the magic, the count, and every entry: each
        // single-byte corruption must be rejected at open, loudly.
        for at in index_start..table_offset {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(
                Ttr3Reader::new(Cursor::new(bad)).is_err(),
                "corrupt index byte at {at} went unnoticed"
            );
        }
        // A file whose index section was cut out entirely (with the
        // trailer's table offset re-pointed so the rest still lines up):
        // the section is missing, so the open fails.
        let mut gutted = Vec::new();
        gutted.extend_from_slice(&good[..index_start]);
        gutted.extend_from_slice(&good[table_offset..]);
        let n = gutted.len();
        gutted[n - 16..n - 8]
            .copy_from_slice(&((table_offset - index_bytes) as u64).to_le_bytes());
        assert!(Ttr3Reader::new(Cursor::new(gutted)).is_err());
    }
}
