//! Golden-fixture tests: checked-in files in each format must decode to
//! the known trace, and re-encoding the known trace must reproduce the
//! files byte for byte (pinning the on-disk layouts — an intentional
//! format change regenerates with `TAGE_WRITE_FIXTURES=1 cargo test -p
//! tage-traces --test golden` and shows up as a fixture diff in review).

use simkit::predictor::BranchKind;
use std::path::PathBuf;
use traces::CodecRegistry;
use workloads::event::{EventSource, Trace, TraceEvent};

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// The fixture: a hand-written stream exercising every branch kind, both
/// directions, load dependences, and a divergent indirect target.
fn fixture_trace() -> Trace {
    let ev = |pc: u64, kind, taken, target: u64, uops: u16, load: Option<u64>| TraceEvent {
        pc,
        kind,
        taken,
        target,
        uops_before: uops,
        load_addr: load,
    };
    use BranchKind::*;
    Trace {
        name: "GOLD01".into(),
        category: "GOLD".into(),
        events: vec![
            ev(0x40_0000, Conditional, true, 0x40_0040, 5, None),
            ev(0x40_0010, Conditional, false, 0x40_0018, 3, Some(0x10_0000_0040)),
            ev(0x40_0000, Conditional, true, 0x40_0040, 6, None),
            ev(0x40_0020, Call, true, 0x41_0000, 2, None),
            ev(0x41_0000, Return, true, 0x40_0028, 2, None),
            ev(0x40_0030, DirectJump, true, 0x40_0100, 1, None),
            ev(0x40_0110, IndirectJump, true, 0x42_0000, 4, None),
            ev(0x40_0110, IndirectJump, true, 0x43_0000, 4, None), // divergent target
            ev(0x40_0010, Conditional, true, 0x40_0050, 3, Some(0x10_0000_1000)),
            ev(0x40_0000, Conditional, false, 0x40_0008, 5, None),
        ],
    }
}

fn encode_with(codec_name: &str, trace: &Trace) -> Vec<u8> {
    let registry = CodecRegistry::standard();
    let codec = registry.by_name(codec_name).unwrap();
    let mut buf = Vec::new();
    codec.encode(&mut buf, trace).unwrap();
    buf
}

fn fixture_path(codec_name: &str) -> PathBuf {
    let registry = CodecRegistry::standard();
    let ext = registry.by_name(codec_name).unwrap().extensions()[0];
    data_dir().join(format!("GOLD01.{ext}"))
}

fn maybe_write_fixtures() -> bool {
    if std::env::var_os("TAGE_WRITE_FIXTURES").is_none() {
        return false;
    }
    std::fs::create_dir_all(data_dir()).unwrap();
    let t = fixture_trace();
    for name in ["ttr3", "cbp", "csv"] {
        std::fs::write(fixture_path(name), encode_with(name, &t)).unwrap();
    }
    true
}

fn decode_fixture(codec_name: &str) -> Trace {
    let registry = CodecRegistry::standard();
    let mut src = registry.open(&fixture_path(codec_name)).unwrap();
    assert_eq!(src.format(), codec_name, "autodetection picked the wrong codec");
    let mut events = Vec::new();
    while let Some(e) = src.next_event() {
        events.push(e);
    }
    traces::finish(src.as_ref()).unwrap();
    Trace { name: src.name().to_string(), category: src.category().to_string(), events }
}

#[test]
fn ttr3_fixture_decodes_and_reencodes_byte_identically() {
    if maybe_write_fixtures() {
        return;
    }
    let expected = fixture_trace();
    assert_eq!(decode_fixture("ttr3"), expected);
    let on_disk = std::fs::read(fixture_path("ttr3")).unwrap();
    assert_eq!(encode_with("ttr3", &expected), on_disk, "the .ttr3 byte layout changed");
}

#[test]
fn csv_fixture_decodes_and_reencodes_byte_identically() {
    if maybe_write_fixtures() {
        return;
    }
    let expected = fixture_trace();
    assert_eq!(decode_fixture("csv"), expected);
    let on_disk = std::fs::read(fixture_path("csv")).unwrap();
    assert_eq!(encode_with("csv", &expected), on_disk, "the csv layout changed");
}

#[test]
fn cbp_fixture_decodes_representable_fields_and_reencodes_byte_identically() {
    if maybe_write_fixtures() {
        return;
    }
    let expected = fixture_trace();
    let decoded = decode_fixture("cbp");
    // Name/category come from the file name; uops/loads are synthesized
    // (lossy format) — compare the representable per-event fields.
    assert_eq!(decoded.name, "GOLD01");
    assert_eq!(decoded.category, "GOLD");
    assert_eq!(decoded.events.len(), expected.events.len());
    for (i, (a, b)) in decoded.events.iter().zip(&expected.events).enumerate() {
        assert_eq!((a.pc, a.kind, a.taken), (b.pc, b.kind, b.taken), "event {i}");
        if i != 7 {
            // Event 7's divergent indirect target is the one field the
            // single-target-per-site layout cannot carry.
            assert_eq!(a.target, b.target, "event {i}");
        }
    }
    let on_disk = std::fs::read(fixture_path("cbp")).unwrap();
    assert_eq!(encode_with("cbp", &expected), on_disk, "the cbp byte layout changed");
}

#[test]
fn fixtures_are_present_in_the_repo() {
    if maybe_write_fixtures() {
        return;
    }
    for name in ["ttr3", "cbp", "csv"] {
        let p = fixture_path(name);
        assert!(p.exists(), "missing checked-in fixture {}", p.display());
    }
}
