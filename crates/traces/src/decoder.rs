//! The streaming-decoder trait layered on [`EventSource`].
//!
//! [`EventSource::next_event`] has no error channel — the simulation engine
//! treats `None` as end-of-stream. A decoder hitting corrupt bytes
//! mid-stream must therefore end the stream *and* record what went wrong;
//! [`TraceDecoder::decode_error`] lets callers distinguish a clean EOF from
//! a truncated simulation after the pass completes.

use std::io;
use workloads::event::EventSource;

/// Container-level vitals of a block-structured trace file, for
/// `tage_trace inspect`: which compression scheme the file carries and
/// how well it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContainerInfo {
    /// The compression-scheme byte from the container header (feature
    /// flags masked off).
    pub scheme_id: u8,
    /// The scheme's registry name (e.g. `"lz"`).
    pub scheme: &'static str,
    /// Number of event blocks.
    pub blocks: u64,
    /// Total decompressed payload bytes across all blocks.
    pub raw_bytes: u64,
    /// Total on-disk payload bytes across all blocks.
    pub comp_bytes: u64,
    /// On-disk bytes of the seekable block-index section.
    pub index_bytes: u64,
}

impl ContainerInfo {
    /// Compressed/raw payload ratio (1.0 when empty).
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.comp_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// A streaming trace decoder: an [`EventSource`] with error reporting and
/// optional size metadata.
pub trait TraceDecoder: EventSource {
    /// Codec name that produced this decoder (e.g. `"ttr3"`).
    fn format(&self) -> &'static str;

    /// Block/compression vitals, for formats with a block structure.
    fn container_info(&self) -> Option<ContainerInfo> {
        None
    }

    /// The decode error that ended the stream early, if any. Checked after
    /// draining the source; `None` means the stream ended cleanly.
    fn decode_error(&self) -> Option<&io::Error> {
        None
    }

    /// Total events the container claims, when the format records it.
    fn expected_events(&self) -> Option<u64> {
        None
    }

    /// Events not yet decoded, when the format records a total.
    fn remaining_events(&self) -> Option<u64> {
        None
    }
}

/// Drains `decoder`, returning the event count or the recorded decode
/// error. Used by `tage_trace inspect` and the post-simulation integrity
/// check.
///
/// # Errors
///
/// Returns the decoder's recorded error when the stream ended on corrupt
/// input, and `InvalidData` when the container promised more events than it
/// delivered.
pub fn drain_checked<D: TraceDecoder + ?Sized>(decoder: &mut D) -> io::Result<u64> {
    let mut n = 0u64;
    while decoder.next_event().is_some() {
        n += 1;
    }
    finish(decoder)?;
    Ok(n)
}

/// Post-stream integrity check: surfaces a recorded decode error or an
/// event-count shortfall after the caller drained `decoder` itself (e.g.
/// through `pipeline::simulate_source`).
///
/// # Errors
///
/// See [`drain_checked`].
pub fn finish<D: TraceDecoder + ?Sized>(decoder: &D) -> io::Result<()> {
    if let Some(e) = decoder.decode_error() {
        return Err(io::Error::new(e.kind(), format!("{}: {e}", decoder.format())));
    }
    if let Some(left) = decoder.remaining_events() {
        if left > 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("stream ended {left} events short of the declared count"),
            ));
        }
    }
    Ok(())
}
