//! External-trace ingestion: pluggable codecs behind format autodetection.
//!
//! Every number the repro produces comes from the synthetic 40-trace
//! suite; this crate is the gateway for *recorded* branch streams. It
//! layers strictly above `workloads` and below the harness:
//!
//! * [`codec`] — the [`TraceCodec`] trait (encode a [`Trace`], open a
//!   streaming decoder) and the [`CodecRegistry`] that autodetects a
//!   file's format by magic bytes first, extension second;
//! * [`decoder`] — [`TraceDecoder`], the streaming-decoder contract:
//!   an [`EventSource`](workloads::EventSource) plus error reporting, so
//!   corrupt input ends a simulation detectably instead of silently;
//! * [`ttr3`] — the native `.ttr3` container: LEB128-packed event records
//!   in LZ-compressed blocks, a seek index, and a deduplicated
//!   static-branch table at the end, so recording streams in bounded
//!   memory; lossless;
//! * [`scheme`] — the [`BlockScheme`] registry behind the `.ttr3` scheme
//!   byte: a dependency-free LZ77, open for a real zstd;
//! * [`cbp`] — the `cbp-experiments` branch-table + 16-bit entry layout
//!   (sans zstd), for interop with externally recorded traces;
//! * [`csv`] — plain text for hand-authored regression traces.
//!
//! Decoders hold the static-branch table in memory and nothing else, so
//! ingestion memory is bounded by the static footprint, never the trace
//! length — the same property that makes `pipeline::simulate_source`
//! usable on arbitrarily long streams.
//!
//! # Example
//!
//! ```
//! use traces::{CodecRegistry, TraceCodec};
//! use workloads::EventSource;
//! use workloads::suite::{by_name, Scale};
//!
//! let dir = std::env::temp_dir().join("traces-doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("INT05.ttr3");
//!
//! // Record a synthetic trace, then reopen it via autodetection.
//! let trace = by_name("INT05", Scale::Tiny).unwrap().generate();
//! let registry = CodecRegistry::standard();
//! let mut file = std::fs::File::create(&path).unwrap();
//! registry.by_name("ttr3").unwrap().encode(&mut file, &trace).unwrap();
//! drop(file);
//!
//! let mut source = registry.open(&path).unwrap();
//! assert_eq!(source.name(), "INT05");
//! assert_eq!(source.collect_trace(), trace);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod cbp;
pub mod codec;
pub mod csv;
pub mod decoder;
pub mod feed;
pub mod scheme;
pub mod ttr3;
pub mod varint;

pub use cbp::{CbpCodec, CbpReader};
pub use codec::{file_meta, CodecRegistry, TraceCodec, SNIFF_LEN};
pub use csv::{CsvCodec, CsvReader};
pub use decoder::{drain_checked, finish, ContainerInfo, TraceDecoder};
pub use feed::FeedOpen;
pub use scheme::{BlockScheme, LzScheme, SCHEMES};
pub use ttr3::{Ttr3Codec, Ttr3Reader, Ttr3Summary, Ttr3Writer, TTR3_INDEX_FLAG};
