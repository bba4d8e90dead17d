//! Reduced-size smoke of every workload, untraced and traced: the run
//! exits 0, its checks pass, and the last line is the result JSON with
//! every metric `BENCHMARK.json` lists for that mode.

use std::process::Command;

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace"])
        .arg(trace.to_string())
        .args(["--size", "smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} trace={trace} failed:\n{stdout}");
    stdout
}

fn metric_names(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let stdout = run(workload, trace);
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true"), "{workload} trace={trace}:\n{stdout}");
        assert!(last.contains("\"failed\": 0"), "{last}");
        let names = metric_names(section);
        assert!(!names.is_empty());
        for name in names {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} lacks {name}"
            );
        }
    }
}

#[test]
fn suite_small_smoke() {
    check("suite_small");
}

#[test]
fn trace_full_smoke() {
    check("trace_full");
}

#[test]
fn serve_closed2_smoke() {
    check("serve_closed2");
}

#[test]
fn sample_sparse_smoke() {
    check("sample_sparse");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
