//! End-to-end tests of the external-trace subsystem: `tage_trace record`
//! semantics → codec round-trips → `tage_exp trace` matrix, pinned to a
//! checked-in golden table (the same table CI diffs the real binaries
//! against).

use harness::trace_mode::{self, record_trace};
use pipeline::PipelineConfig;
use std::path::{Path, PathBuf};
use traces::CodecRegistry;
use workloads::event::EventSource;
use workloads::suite::{by_name, Scale};
use workloads::TraceSpec;

/// The two suite traces the golden run records (small, two categories).
const NAMES: [&str; 2] = ["CLIENT01", "MM01"];

fn specs() -> Vec<TraceSpec> {
    NAMES.iter().map(|n| by_name(n, Scale::Tiny).unwrap()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tage-trace-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record_ttr(dir: &Path) -> Vec<PathBuf> {
    let codec = traces::Ttr3Codec::default();
    specs().iter().map(|s| record_trace(&s.generate(), &codec, dir).unwrap()).collect()
}

fn golden_table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/trace_mode_expected.txt")
}

#[test]
fn recorded_ttr_run_is_bit_identical_to_synthetic() {
    // The acceptance contract: `tage_trace record` of a synthetic suite
    // followed by `tage_exp trace` on the recorded files reproduces the
    // direct synthetic run's reports exactly — every counter, every table
    // cell.
    let dir = temp_dir("bitident");
    let files = record_ttr(&dir);
    let cfg = PipelineConfig::default();
    let direct = trace_mode::run_specs(&specs(), &cfg, Some(3)).unwrap();
    let recorded = trace_mode::run_files(&files, &cfg, Some(2)).unwrap();
    for ((n1, a), (n2, b)) in direct.iter().zip(&recorded) {
        assert_eq!(n1, n2);
        assert_eq!(a.reports, b.reports, "{n1} diverged between synthetic and recorded runs");
    }
    assert_eq!(trace_mode::render(&direct), trace_mode::render(&recorded));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_mode_table_matches_the_checked_in_golden() {
    // Regenerate with:
    //   TAGE_WRITE_FIXTURES=1 cargo test -p harness --test trace_subsystem
    let dir = temp_dir("golden");
    let files = record_ttr(&dir);
    let results = trace_mode::run_files(&files, &PipelineConfig::default(), Some(4)).unwrap();
    let rendered = trace_mode::render(&results);
    let path = golden_table_path();
    if std::env::var_os("TAGE_WRITE_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    } else {
        let expected = std::fs::read_to_string(&path)
            .expect("missing golden table; regenerate with TAGE_WRITE_FIXTURES=1");
        assert_eq!(
            rendered, expected,
            "trace-mode output drifted from {}; regenerate deliberately if intended",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_codec_conversion_chain_preserves_ttr_bytes() {
    // ttr3 -> csv -> ttr3 must be byte-identical (both codecs are
    // lossless and the encoders are deterministic); ttr3 -> cbp must stay
    // runnable.
    let dir = temp_dir("chain");
    std::fs::create_dir_all(&dir).unwrap();
    let registry = CodecRegistry::standard();
    let spec = by_name("WS01", Scale::Tiny).unwrap();
    let original = record_trace(&spec.generate(), &traces::Ttr3Codec::default(), &dir).unwrap();

    let reconvert = |from: &Path, codec_name: &str| -> PathBuf {
        let mut src = registry.open(from).unwrap();
        let mut events = Vec::new();
        while let Some(e) = src.next_event() {
            events.push(e);
        }
        traces::finish(src.as_ref()).unwrap();
        let trace = workloads::Trace {
            name: src.name().to_string(),
            category: src.category().to_string(),
            events,
        };
        record_trace(&trace, registry.by_name(codec_name).unwrap(), &dir).unwrap()
    };

    let as_csv = dir.join("WS01.csv");
    assert_eq!(reconvert(&original, "csv"), as_csv);
    let round_dir = dir.join("round");
    std::fs::create_dir_all(&round_dir).unwrap();
    let mut src = registry.open(&as_csv).unwrap();
    let mut events = Vec::new();
    while let Some(e) = src.next_event() {
        events.push(e);
    }
    traces::finish(src.as_ref()).unwrap();
    let trace = workloads::Trace {
        name: src.name().to_string(),
        category: src.category().to_string(),
        events,
    };
    let back = record_trace(&trace, &traces::Ttr3Codec::default(), &round_dir).unwrap();
    assert_eq!(
        std::fs::read(&original).unwrap(),
        std::fs::read(&back).unwrap(),
        "ttr3 -> csv -> ttr3 must be byte-identical"
    );

    let as_cbp = reconvert(&original, "cbp");
    let results = trace_mode::run_files(&[as_cbp], &PipelineConfig::default(), None).unwrap();
    assert_eq!(results[0].1.reports.len(), 1);
    assert!(results[0].1.reports[0].conditionals > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
