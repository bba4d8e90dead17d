//! Property tests: codec round-trips on arbitrary event streams, and
//! corrupt-input fuzzing (decoders must reject, never panic).

use proptest::collection::vec;
use proptest::prelude::*;
use simkit::predictor::BranchKind;
use std::io::Cursor;
use traces::{CbpReader, CsvReader, TraceDecoder, Ttr3Reader, TTR3_INDEX_FLAG};
use workloads::event::{EventSource, Trace, TraceEvent};

fn kind_of(code: u8) -> BranchKind {
    match code % 5 {
        0 => BranchKind::Conditional,
        1 => BranchKind::DirectJump,
        2 => BranchKind::IndirectJump,
        3 => BranchKind::Call,
        _ => BranchKind::Return,
    }
}

/// Builds an event from one strategy sample. Targets derive from
/// `(pc, taken)` the way the synthetic generator's do, which keeps the
/// stream inside what the (lossy) CBP layout can represent; the TTR/CSV
/// properties additionally perturb targets via `toff` to exercise the
/// override path.
fn event(
    (pc, kind, taken): (u64, u8, bool),
    (toff, uops, load_code): (u64, u16, u64),
    divergent_targets: bool,
) -> TraceEvent {
    let base = pc.wrapping_add(if taken { 0x40 } else { 8 });
    TraceEvent {
        pc,
        kind: kind_of(kind),
        taken,
        target: if divergent_targets { base.wrapping_add(toff) } else { base },
        uops_before: uops,
        load_addr: (load_code != 0).then(|| 0x10_0000_0000 + load_code),
    }
}

fn trace_of(events: Vec<TraceEvent>) -> Trace {
    Trace { name: "PROP01".into(), category: "PROP".into(), events }
}

/// The `.ttr3` header scheme byte: lz blocks with the seek index.
const NATIVE: u8 = 1 | TTR3_INDEX_FLAG;

type RawEvent = ((u64, u8, bool), (u64, u16, u64));

fn event_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    vec(
        ((0u64..1 << 20, 0u8..5, any::<bool>()), (0u64..64, 0u16..2048, 0u64..4)),
        0usize..200,
    )
}

fn drain<D: TraceDecoder>(mut d: D) -> Result<Trace, String> {
    let mut events = Vec::new();
    while let Some(e) = d.next_event() {
        events.push(e);
    }
    match traces::finish(&d) {
        Ok(()) => {
            Ok(Trace { name: d.name().to_string(), category: d.category().to_string(), events })
        }
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #[test]
    fn csv_round_trips_losslessly(raw in event_strategy()) {
        let t = trace_of(raw.into_iter().map(|(a, b)| event(a, b, true)).collect());
        let mut buf = Vec::new();
        traces::csv::encode(&mut buf, &t).unwrap();
        let back =
            drain(CsvReader::new(buf.as_slice(), "fb".into(), "FB".into()).unwrap()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn cbp_preserves_the_representable_fields(raw in event_strategy()) {
        // CBP carries no uops/loads and one target per (site, direction):
        // generate generator-shaped targets and assert the representable
        // fields round-trip exactly.
        let t = trace_of(raw.into_iter().map(|(a, b)| event(a, b, false)).collect());
        let mut buf = Vec::new();
        traces::cbp::encode(&mut buf, &t).unwrap();
        let back =
            drain(CbpReader::new(Cursor::new(buf), "t".into(), "T".into()).unwrap()).unwrap();
        prop_assert_eq!(back.events.len(), t.events.len());
        for (a, b) in back.events.iter().zip(&t.events) {
            prop_assert_eq!(a.pc, b.pc);
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.taken, b.taken);
            prop_assert_eq!(a.target, b.target);
            prop_assert!(a.load_addr.is_none());
        }
    }

    #[test]
    fn ttr3_arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0usize..256)) {
        // Arbitrary bytes: open may fail (expected) but must not panic,
        // and a decoder that does open must fail or finish cleanly.
        if let Ok(r) = Ttr3Reader::new(Cursor::new(bytes)) {
            let _ = drain(r);
        }
    }

    #[test]
    fn cbp_fuzz_never_panics(bytes in vec(any::<u8>(), 0usize..256)) {
        if let Ok(r) = CbpReader::new(Cursor::new(bytes), "t".into(), "T".into()) {
            let _ = drain(r);
        }
    }

    #[test]
    fn csv_fuzz_never_panics(bytes in vec(any::<u8>(), 0usize..256)) {
        if let Ok(r) = CsvReader::new(bytes.as_slice(), "t".into(), "T".into()) {
            let _ = drain(r);
        }
    }

    #[test]
    fn ttr3_round_trips_losslessly(raw in event_strategy()) {
        let t = trace_of(raw.into_iter().map(|(a, b)| event(a, b, true)).collect());
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, NATIVE).unwrap();
        let back = drain(Ttr3Reader::new(Cursor::new(buf)).unwrap()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn truncated_ttr3_block_is_rejected_not_silently_short(cut in 1usize..200) {
        // Truncation lands anywhere: in the trailer, the footer table, a
        // block payload, or a frame header. Every case must surface as an
        // open error or through traces::finish — never a panic, never a
        // silently short stream.
        let t = trace_of(
            (0..60)
                .map(|i| event((0x3000 + i * 16, (i % 5) as u8, i % 3 == 0), (0, 5, i % 2), true))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, NATIVE).unwrap();
        let cut = cut.min(buf.len() - 1);
        buf.truncate(buf.len() - cut);
        let failed = match Ttr3Reader::new(Cursor::new(buf)) {
            Err(_) => true,
            Ok(r) => drain(r).is_err(),
        };
        prop_assert!(failed, "truncation by {cut} bytes went unnoticed");
    }

    #[test]
    fn flipped_byte_in_ttr3_never_panics(pos in 0usize..8192, val in any::<u8>()) {
        // Covers the corrupt-block cases by position: a flip in the scheme
        // byte (bad scheme), a frame length field (length overflow), or a
        // compressed payload (corrupt LZ stream).
        let t = trace_of(
            (0..60)
                .map(|i| event((0x4000 + i * 12, (i % 5) as u8, i % 2 == 0), (i, 7, 1), true))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, NATIVE).unwrap();
        let pos = pos % buf.len();
        buf[pos] = val;
        if let Ok(r) = Ttr3Reader::new(Cursor::new(buf)) {
            let _ = drain(r);
        }
    }

    #[test]
    fn ttr3_frame_length_overflow_is_rejected(raw_len in any::<u32>(), comp_len in any::<u32>()) {
        // Overwrite the first frame's length fields with arbitrary values:
        // the frame-chain validation (or block decode) must reject any
        // combination that disagrees with the payload, without panicking
        // or over-allocating.
        let t = trace_of(
            (0..60)
                .map(|i| event((0x5000 + i * 8, 0, i % 2 == 0), (i, 3, 0), true))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, NATIVE).unwrap();
        // Header: magic(8) + scheme(1) + name(2+6) + category(2+4); the
        // frame starts right after, with raw_len/comp_len at +4 and +8.
        let frame = 8 + 1 + 2 + t.name.len() + 2 + t.category.len();
        buf[frame + 4..frame + 8].copy_from_slice(&raw_len.to_le_bytes());
        buf[frame + 8..frame + 12].copy_from_slice(&comp_len.to_le_bytes());
        if let Ok(r) = Ttr3Reader::new(Cursor::new(buf.clone())) {
            if let Ok(back) = drain(r) {
                // Only the original lengths can decode the original data.
                prop_assert_eq!(back, t);
            }
        }
    }

    #[test]
    fn ttr3_header_fuzz_never_panics(bytes in vec(any::<u8>(), 0usize..256)) {
        let mut buf = b"TAGETTR3\x81".to_vec();
        buf.extend(&bytes);
        if let Ok(r) = Ttr3Reader::new(Cursor::new(buf)) {
            let _ = drain(r);
        }
    }

    #[test]
    fn indexed_skip_matches_decode_discard(raw in event_strategy(), s in 0u64..250) {
        // The index seek must land where a plain `next_event` loop does:
        // after skipping `s`, both readers produce the same suffix, and it
        // is the encoded trace's own suffix.
        let t = trace_of(raw.into_iter().map(|(a, b)| event(a, b, true)).collect());
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, NATIVE).unwrap();
        let mut seeker = Ttr3Reader::new(Cursor::new(buf.clone())).unwrap();
        let mut walker = Ttr3Reader::new(Cursor::new(buf)).unwrap();
        let skipped = seeker.skip(s);
        let mut walked = 0u64;
        while walked < s && walker.next_event().is_some() {
            walked += 1;
        }
        prop_assert_eq!(skipped, walked);
        prop_assert_eq!(skipped, s.min(t.events.len() as u64));
        let rest: Vec<_> = std::iter::from_fn(|| seeker.next_event()).collect();
        let expect: Vec<_> = std::iter::from_fn(|| walker.next_event()).collect();
        prop_assert!(seeker.decode_error().is_none());
        prop_assert!(walker.decode_error().is_none());
        prop_assert_eq!(&rest, &expect);
        prop_assert_eq!(rest.as_slice(), &t.events[skipped as usize..]);
    }

    #[test]
    fn corrupt_index_footer_fails_loudly_never_misseeks(
        pos in 0usize..4096, val in any::<u8>(), s in 0u64..100,
    ) {
        // A flipped byte at or after the `TAGEIDX3` footer (the index, the
        // branch table, or the trailer) must either fail at open / during
        // the stream — or leave a reader whose seek still lands exactly
        // where decode-discard would. A silently wrong position is the one
        // forbidden outcome.
        let t = trace_of(
            (0..80)
                .map(|i| event((0x6000 + i * 16, (i % 5) as u8, i % 3 == 0), (i, 5, i % 2), true))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, NATIVE).unwrap();
        let idx = buf
            .windows(8)
            .position(|w| w == traces::ttr3::TTR3_INDEX_MAGIC)
            .expect("indexed file carries the footer magic");
        let pos = idx + pos % (buf.len() - idx);
        let clean = buf[pos] == val;
        buf[pos] = val;
        if let Ok(mut fast) = Ttr3Reader::new(Cursor::new(buf.clone())) {
            let skipped = fast.skip(s);
            let mut via_seek = Vec::new();
            while let Some(e) = fast.next_event() {
                via_seek.push(e);
            }
            // Decode-discard over the *same* bytes (open is deterministic,
            // so the second open must succeed too): advance one event at a
            // time without ever touching the index.
            let mut slow = Ttr3Reader::new(Cursor::new(buf)).unwrap();
            let mut slow_skipped = 0u64;
            while slow_skipped < s && slow.next_event().is_some() {
                slow_skipped += 1;
            }
            let mut via_decode = Vec::new();
            while let Some(e) = slow.next_event() {
                via_decode.push(e);
            }
            if fast.decode_error().is_none() && slow.decode_error().is_none() {
                prop_assert_eq!(skipped, slow_skipped, "flip at byte {pos}");
                prop_assert_eq!(&via_seek, &via_decode, "seek diverged from decode-discard after flipping byte {pos}");
            }
            if clean {
                // A no-op flip must behave like the pristine file.
                prop_assert_eq!(skipped, s.min(80));
                prop_assert!(fast.decode_error().is_none());
                prop_assert_eq!(via_seek.as_slice(), &t.events[skipped as usize..]);
            }
        }
    }

    #[test]
    fn truncated_index_footer_is_rejected_not_misseeked(cut in 1usize..300) {
        // Truncation anywhere in an *indexed* file — index entries, the
        // footer magic, the branch table, or the trailer — must fail at
        // open or through `finish`, and a pre-failure `skip` must never
        // report progress it did not make.
        let t = trace_of(
            (0..80)
                .map(|i| event((0x7000 + i * 12, (i % 5) as u8, i % 2 == 0), (i, 3, 1), true))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, NATIVE).unwrap();
        let cut = cut.min(buf.len() - 1);
        buf.truncate(buf.len() - cut);
        let failed = match Ttr3Reader::new(Cursor::new(buf)) {
            Err(_) => true,
            Ok(r) => drain(r).is_err(),
        };
        prop_assert!(failed, "index-footer truncation by {cut} bytes went unnoticed");
    }
}
