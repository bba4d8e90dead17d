//! `perfbench` — the simulator's benchmark: four workloads, end-to-end
//! metrics from untraced passes, a per-layer ledger from a traced one.
//!
//! ```text
//! perfbench --workload suite_small|trace_full|serve_closed2|sample_sparse
//!           --seed N --seconds S --trace 0|1 [--size full|smoke]
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- …`). Scratch files go to `.bench_work/` under
//! the working directory; the traced pass's spans are kept there. Report
//! lines start with `#`; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, the per-layer ledger with `--trace 1`). See README.md.

mod inputs;
mod ledger;
mod run;
mod sample;
mod served;
mod span;
mod stats;
mod suite;
mod sys;
mod trace_full;

use run::{Outputs, Plan, RunCtx};
use std::io;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["suite_small", "trace_full", "serve_closed2", "sample_sparse"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--size full|smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} (got {value:?})");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => out.workload = value.clone(),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => out.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err(bad("must be a non-negative number"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--size" => {
                out.smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err(bad("must be full or smoke")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        return match served::child_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve-child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return usage();
        }
    };
    match run_workload(&args) {
        Ok(out) => {
            print_result(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn run_workload(args: &Args) -> io::Result<Outputs> {
    let root = std::env::current_dir()?.join(".bench_work");
    let work = sys::WorkDir::create(&root)?;
    let spans_dir = root.join("spans");
    std::fs::create_dir_all(&spans_dir)?;
    let ctx = RunCtx {
        plan: if args.smoke { Plan::smoke() } else { Plan::full() },
        seed: args.seed,
        seconds: args.seconds,
        work: work.path().to_path_buf(),
        spans_out: spans_dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed)),
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "smoke" } else { "full" }
    );
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    println!("# {} commit={commit}", sys::host_line());
    let mut out = Outputs::default();
    match args.workload.as_str() {
        "suite_small" => suite::run(&ctx, args.trace, &mut out),
        "trace_full" => trace_full::run(&ctx, args.trace, &mut out)?,
        "serve_closed2" => served::run(&ctx, args.trace, &mut out)?,
        "sample_sparse" => sample::run(&ctx, args.trace, &mut out)?,
        other => unreachable!("workload {other} was validated"),
    }
    if args.trace {
        ledger::measure(&ctx, &mut out)?;
        if !out.spans.is_empty() {
            span::write_jsonl(&out.spans, &ctx.spans_out)?;
            println!("# spans written to {}", ctx.spans_out.display());
        }
    }
    Ok(out)
}

fn print_result(out: &Outputs) {
    for (key, value) in &out.notes {
        println!("# result {key}={value}");
    }
    let checks = &out.checks;
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!("# result error_rate={error_rate} ({} of {} failed)", checks.failed, checks.attempted);
    for f in &checks.failures {
        println!("# FAILED {f}");
    }
    for (name, t) in span::totals(&out.spans) {
        println!(
            "# span {name} count={} total_ms={:.3} self_ms={:.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let mut failed = checks.failed;
    let mut attempted = checks.attempted.max(1);
    let mut fields = Vec::new();
    for (name, value, unit) in &out.metrics.0 {
        let value = if value.is_finite() {
            *value
        } else {
            println!("# FAILED metric {name} is not finite");
            failed += 1;
            attempted += 1;
            0.0
        };
        println!("# metric {name} = {value} {unit}");
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
}
