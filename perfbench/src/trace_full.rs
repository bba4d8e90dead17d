//! `trace_full`: the trace-mode predictor matrix over the recorded Full
//! `.ttr3` set — decode, window and predictor cost, no generation.

use crate::inputs::{self, Recorded};
use crate::ledger::PassLedger;
use crate::run::{fan_out, repeat_passes, EndToEnd, Outputs, Pass, RunCtx, BATCH, THREADS};
use crate::span::{self, Recorder, Span};
use crate::stats::Digest;
use crate::sys;
use harness::trace_mode::{run_files_batched, MATRIX, MATRIX_SCENARIO};
use harness::PredictorSpec;
use pipeline::{BlockSim, PipelineConfig, SimReport, SuiteReport};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use traces::{CodecRegistry, TraceDecoder};
use workloads::event::{EventBlock, EventSource};

type Columns = Vec<(&'static str, SuiteReport)>;

/// The matrix specs, in column order.
pub fn matrix_specs() -> Vec<PredictorSpec> {
    // INVARIANT: MATRIX is the program's own static table.
    MATRIX.iter().map(|(_, s)| PredictorSpec::parse(s).expect("matrix specs parse")).collect()
}

/// Runs the workload (untraced passes, or one untraced and one traced
/// pass plus the ledger).
///
/// # Errors
///
/// Propagates set-up I/O errors.
pub fn run(ctx: &RunCtx, traced: bool, out: &mut Outputs) -> io::Result<()> {
    let dir = ctx.work.join("traces");
    let reps = if traced { 1 } else { ctx.plan.setup_reps };
    let (files, setup) = inputs::setup_traces(&ctx.plan, &dir, reps, &mut out.checks)?;
    let paths: Vec<PathBuf> = files.iter().map(|f| f.path.clone()).collect();
    if traced {
        let (base, columns) = untraced_pass(&paths);
        let columns = check_columns(columns, &files, out);
        let origin = Instant::now();
        let (cells, spans) = traced_matrix(&paths, origin);
        let wall = origin.elapsed();
        let mut fed = 0u64;
        for (ci, (name, reports)) in columns.iter().enumerate() {
            for (fi, expected) in reports.reports.iter().enumerate() {
                let got = &cells[ci * files.len() + fi];
                let same = matches!(got, Ok((r, _)) if r == expected);
                out.checks.unit(same, || format!("traced {name} on {} diverged", files[fi].name));
                fed += got.as_ref().map_or(0, |(_, n)| *n);
            }
        }
        let measured = files.iter().map(|f| f.events).sum::<u64>() * MATRIX.len() as u64;
        let ledger = PassLedger {
            decode_share: decode_share(&spans, "bench.cell"),
            useful_event_ratio: measured as f64 / fed.max(1) as f64,
            unattributed_share: span::unattributed_share(&spans, THREADS, wall.as_nanos() as u64),
            trace_overhead_pct: overhead_pct(wall, base.wall),
            ..PassLedger::default()
        };
        ledger.emit(&mut out.metrics);
        out.spans = spans;
        return Ok(());
    }
    sys::reset_peak_rss();
    let mut first: Option<Columns> = None;
    let mut digests = Vec::new();
    let passes = repeat_passes(ctx.seconds, || {
        let (pass, columns) = untraced_pass(&paths);
        let columns = check_columns(columns, &files, out);
        digests.push(digest(&columns));
        first.get_or_insert(columns);
        pass
    });
    let peak_rss_mb = sys::peak_rss_mb(None);
    out.checks.unit(digests.windows(2).all(|w| w[0] == w[1]), || "passes disagree".into());
    EndToEnd {
        setup,
        session_ms: passes.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect(),
        passes,
        peak_rss_mb,
    }
    .emit(out);
    let columns = first.unwrap_or_default();
    out.note("sim_digest", digests.first().cloned().unwrap_or_default());
    for (name, key) in [("TAGE (ref)", "mppki_ref"), ("TAGE-LSC", "mppki_lsc")] {
        if let Some((_, s)) = columns.iter().find(|(n, _)| *n == name) {
            out.note(key, s.mppki());
        }
    }
    Ok(())
}

/// One call of the program's trace-mode matrix.
fn untraced_pass(paths: &[PathBuf]) -> (Pass, io::Result<Columns>) {
    let t = Instant::now();
    let columns = run_files_batched(paths, &PipelineConfig::default(), Some(THREADS), BATCH);
    let wall = t.elapsed();
    let conditionals = columns
        .as_ref()
        .map_or(0, |cs| cs.iter().flat_map(|(_, s)| &s.reports).map(|r| r.conditionals).sum());
    (Pass { wall, conditionals }, columns)
}

/// Every cell must score each of its file's conditional branches (a
/// decode error would have failed the matrix call).
fn check_columns(columns: io::Result<Columns>, files: &[Recorded], out: &mut Outputs) -> Columns {
    match columns {
        Ok(cs) => {
            for (name, s) in &cs {
                for (r, f) in s.reports.iter().zip(files) {
                    out.checks.unit(r.conditionals == f.conditionals && r.trace == f.name, || {
                        format!(
                            "{name} on {}: {} of {} conditionals",
                            f.name, r.conditionals, f.conditionals
                        )
                    });
                }
                out.checks
                    .unit(s.reports.len() == files.len(), || format!("{name}: missing cells"));
            }
            cs
        }
        Err(e) => {
            out.checks.error(format!("trace matrix failed: {e}"));
            Vec::new()
        }
    }
}

fn digest(columns: &Columns) -> String {
    let mut d = Digest::default();
    for (name, s) in columns {
        d.text(name);
        s.reports.iter().for_each(|r| d.report(r));
    }
    d.hex()
}

/// The matrix again, cell by cell on [`THREADS`] workers in the
/// program's claim order, with a span around every layer call. Cell `k`
/// is column `k / files`, file `k % files`.
fn traced_matrix(
    paths: &[PathBuf],
    origin: Instant,
) -> (Vec<io::Result<(SimReport, u64)>>, Vec<Span>) {
    let specs = matrix_specs();
    let registry = CodecRegistry::standard();
    let (cells, recorders) = fan_out(
        specs.len() * paths.len(),
        |w| Recorder::new(origin, w),
        |rec, k| {
            let (spec, path) = (&specs[k / paths.len()], &paths[k % paths.len()]);
            traced_cell(rec, k as u64, spec, path, &registry)
        },
    );
    (cells, span::merge(recorders.into_iter().map(Recorder::into_spans)))
}

/// `run_spec_cell`'s block route, one span per layer call: open, build,
/// feed, drain, and the decode-integrity check. Returns the report and the
/// events fed.
///
/// # Errors
///
/// Open, spec and decode-integrity errors, as `run_spec_cell` reports them.
pub fn traced_cell(
    rec: &mut Recorder,
    id: u64,
    spec: &PredictorSpec,
    path: &Path,
    registry: &CodecRegistry,
) -> io::Result<(SimReport, u64)> {
    let cell = rec.enter("bench.cell", id);
    let result = (|| {
        let mut src = rec.time("traces.open", id, || registry.open(path))?;
        let cfg = PipelineConfig::default();
        let mut engine = rec
            .time("harness.build_engine", id, || spec.build_engine(MATRIX_SCENARIO, &cfg))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let fed = traced_feed(rec, id, &mut src, &mut *engine);
        let report = rec.time("pipeline.finish", id, || engine.finish(src.name(), src.category()));
        rec.time("traces.finish", id, || traces::finish(src.as_ref()))?;
        Ok((report, fed))
    })();
    rec.exit(cell);
    result
}

/// `simulate_engine`'s loop with a span per `next_block` and `run_block`:
/// feed blocks until the stream ends or the engine's window is spent.
/// Returns the events fed.
pub fn traced_feed(
    rec: &mut Recorder,
    id: u64,
    src: &mut Box<dyn TraceDecoder + Send>,
    engine: &mut dyn BlockSim,
) -> u64 {
    let mut block = EventBlock::with_capacity(BATCH);
    let mut fed = 0u64;
    loop {
        let n = rec.time("traces.next_block", id, || src.next_block(&mut block, BATCH));
        if n == 0 {
            return fed;
        }
        fed += n as u64;
        rec.time("pipeline.run_block", id, || engine.run_block(&block.events));
        if engine.done() {
            return fed;
        }
    }
}

/// Share of `group` span time (cells, slices) spent in `next_block`.
pub fn decode_share(spans: &[Span], group: &str) -> f64 {
    let totals = span::totals(spans);
    let decode = totals.get("traces.next_block").map_or(0, |t| t.total_ns);
    let whole = totals.get(group).map_or(0, |t| t.total_ns);
    decode as f64 / whole.max(1) as f64
}

/// Traced wall time over untraced, as a percentage above 100 %.
pub fn overhead_pct(traced: Duration, untraced: Duration) -> f64 {
    (traced.as_secs_f64() / untraced.as_secs_f64().max(1e-9) - 1.0) * 100.0
}
