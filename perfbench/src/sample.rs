//! `sample_sparse`: sampled simulation over the recorded Full set —
//! `.ttr3` seeks, one engine build per slice, warmup; most of each file
//! is skipped, so decoding is a small share.

use crate::inputs::{self, Recorded};
use crate::ledger::PassLedger;
use crate::run::{fan_out, repeat_passes, EndToEnd, Outputs, Pass, Plan, RunCtx, BATCH, THREADS};
use crate::span::{self, Recorder, Span};
use crate::stats::{median, Digest};
use crate::sys;
use crate::trace_full::{decode_share, overhead_pct, traced_feed};
use harness::sample_mode::{run_sampled, SampleOptions, SampleRun};
use harness::trace_mode::MATRIX_SCENARIO;
use harness::PredictorSpec;
use pipeline::{fixed_interval, Phase, PipelineConfig, SampledResult, SimReport};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use traces::CodecRegistry;
use workloads::event::EventSource;

/// The sampled specs: the §3.4 reference and TAGE-LSC (§6.1).
const SPECS: [&str; 2] = ["tage", "tage:lsc+ium+lsc/as=TAGE-LSC"];

fn specs() -> Vec<PredictorSpec> {
    // INVARIANT: static preset spec strings.
    SPECS.iter().map(|s| PredictorSpec::parse(s).expect("preset spec parses")).collect()
}

fn options(plan: &Plan, seed: u64) -> SampleOptions {
    SampleOptions {
        phases: plan.phases,
        warmup: plan.warmup,
        measure: plan.measure,
        seed,
        threads: Some(THREADS),
        batch: BATCH,
        full_check: None,
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Propagates set-up I/O errors.
pub fn run(ctx: &RunCtx, traced: bool, out: &mut Outputs) -> io::Result<()> {
    let dir = ctx.work.join("traces");
    let reps = if traced { 1 } else { ctx.plan.setup_reps };
    let (files, setup) = inputs::setup_traces(&ctx.plan, &dir, reps, &mut out.checks)?;
    let paths: Vec<PathBuf> = files.iter().map(|f| f.path.clone()).collect();
    let opts = options(&ctx.plan, ctx.seed);
    let specs = specs();
    if traced {
        let (base_pass, base) = untraced_pass(&paths, &specs, &opts);
        let base = check_runs(base, &files, &opts, out);
        for run in &base {
            let (n, w, m) = (opts.phases, opts.warmup, opts.measure);
            let again = fixed_interval(run.total_events, n, w, m, opts.seed);
            out.checks.unit(again == run.phases, || format!("{}: phases differ", run.trace));
        }
        let origin = Instant::now();
        let (slices, spans) = traced_slices(&paths, &base, &specs, &opts, origin);
        let wall = origin.elapsed();
        let (mut measured, mut fed) = (0u64, 0u64);
        let mut slices = slices.into_iter();
        for run in &base {
            for (si, expected) in run.sampled.iter().enumerate() {
                let mut reports = Vec::new();
                let mut accounted = 0u64;
                for phase in &run.phases {
                    // INVARIANT: one traced result per (file, spec, phase).
                    match slices.next().expect("one result per slice") {
                        Ok((r, n)) => {
                            reports.push(r);
                            accounted += n.min(opts.warmup + opts.measure);
                            fed += n;
                            let left = run.total_events.saturating_sub(phase.start + opts.warmup);
                            measured += opts.measure.min(left);
                        }
                        Err(e) => out.checks.error(format!("traced slice of {}: {e}", run.trace)),
                    }
                }
                let simulated = expected.simulated_events(opts.warmup, opts.measure);
                out.checks.unit(accounted == simulated, || {
                    format!(
                        "{} {}: slices fed {accounted} of {simulated} events",
                        run.trace, SPECS[si]
                    )
                });
                let same = reports.len() == run.phases.len()
                    && SampledResult::combine(&run.phases, reports, run.total_events) == *expected;
                out.checks.unit(same, || format!("traced {} {} diverged", run.trace, SPECS[si]));
            }
        }
        let slice_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "bench.slice")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        PassLedger {
            decode_share: decode_share(&spans, "bench.slice"),
            useful_event_ratio: measured as f64 / fed.max(1) as f64,
            slice_ms_p50: median(&slice_ms),
            unattributed_share: span::unattributed_share(&spans, THREADS, wall.as_nanos() as u64),
            trace_overhead_pct: overhead_pct(wall, base_pass.wall),
            ..PassLedger::default()
        }
        .emit(&mut out.metrics);
        out.spans = spans;
        accuracy(&paths, &specs, &opts, &base, out);
        return Ok(());
    }
    sys::reset_peak_rss();
    let mut first: Option<Vec<SampleRun>> = None;
    let mut digests = Vec::new();
    let passes = repeat_passes(ctx.seconds, || {
        let (pass, runs) = untraced_pass(&paths, &specs, &opts);
        let runs = check_runs(runs, &files, &opts, out);
        digests.push(digest(&runs));
        first.get_or_insert(runs);
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
    let runs = first.unwrap_or_default();
    out.note("sim_digest", digests.first().cloned().unwrap_or_default());
    let simulated: u64 = runs.iter().map(|r| r.simulated_events(&opts)).sum();
    let total: u64 = runs.iter().map(|r| r.total_events).sum();
    out.note("event_reduction", total as f64 / simulated.max(1) as f64);
    for (si, key) in ["mppki_ref", "mppki_lsc"].iter().enumerate() {
        out.note(
            key,
            mean(runs.iter().filter_map(|r| r.sampled.get(si)).map(SampledResult::mppki)),
        );
    }
    Ok(())
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// One call of the program's sampled-simulation entry point.
fn untraced_pass(
    paths: &[PathBuf],
    specs: &[PredictorSpec],
    opts: &SampleOptions,
) -> (Pass, io::Result<Vec<SampleRun>>) {
    let t = Instant::now();
    let runs = run_sampled(paths, specs, opts);
    let wall = t.elapsed();
    let conditionals = runs.as_ref().map_or(0, |runs| {
        runs.iter()
            .flat_map(|r| &r.sampled)
            .flat_map(|s| &s.slices)
            .map(|s| s.report.conditionals)
            .sum()
    });
    (Pass { wall, conditionals }, runs)
}

/// Each (file, spec) must cover the whole file's population with one
/// slice per phase.
fn check_runs(
    runs: io::Result<Vec<SampleRun>>,
    files: &[Recorded],
    opts: &SampleOptions,
    out: &mut Outputs,
) -> Vec<SampleRun> {
    match runs {
        Ok(runs) => {
            out.checks.unit(runs.len() == files.len(), || "sampled runs missing".into());
            for (r, f) in runs.iter().zip(files) {
                let ok = r.total_events == f.events
                    && r.phases.len() as u64 == opts.phases.min(f.events)
                    && r.sampled.len() == SPECS.len()
                    && r.sampled.iter().all(|s| s.slices.len() == r.phases.len());
                out.checks.unit(ok, || format!("sampled run of {} is incomplete", f.name));
            }
            runs
        }
        Err(e) => {
            out.checks.error(format!("sampled run failed: {e}"));
            Vec::new()
        }
    }
}

fn digest(runs: &[SampleRun]) -> String {
    let mut d = Digest::default();
    for run in runs {
        for p in &run.phases {
            d.bytes(&p.start.to_le_bytes());
            d.bytes(&p.weight.to_le_bytes());
        }
        run.sampled.iter().flat_map(|s| &s.slices).for_each(|s| d.report(&s.report));
    }
    d.hex()
}

/// Every (file, spec, slice) job of `run_sampled`, in its order and at
/// the phases the untraced pass chose, on [`THREADS`] workers with a span
/// around each layer call.
fn traced_slices(
    paths: &[PathBuf],
    base: &[SampleRun],
    specs: &[PredictorSpec],
    opts: &SampleOptions,
    origin: Instant,
) -> (Vec<io::Result<(SimReport, u64)>>, Vec<Span>) {
    let registry = CodecRegistry::standard();
    let mut jobs: Vec<(usize, usize, Phase)> = Vec::new();
    for (fi, run) in base.iter().enumerate() {
        for si in 0..specs.len() {
            jobs.extend(run.phases.iter().map(|p| (fi, si, *p)));
        }
    }
    let (slices, recorders) = fan_out(
        jobs.len(),
        |w| Recorder::new(origin, w),
        |rec, k| {
            let (fi, si, phase) = jobs[k];
            traced_slice(rec, k as u64, &specs[si], &paths[fi], phase, opts, &registry)
        },
    );
    (slices, span::merge(recorders.into_iter().map(Recorder::into_spans)))
}

/// `run_sampled`'s slice job with spans: open, seek to the phase, build
/// the windowed engine, feed blocks until the window is spent, drain.
fn traced_slice(
    rec: &mut Recorder,
    id: u64,
    spec: &PredictorSpec,
    path: &Path,
    phase: Phase,
    opts: &SampleOptions,
    registry: &CodecRegistry,
) -> io::Result<(SimReport, u64)> {
    let slice = rec.enter("bench.slice", id);
    let result = (|| {
        let mut src = rec.time("traces.open", id, || registry.open(path))?;
        let skipped = rec.time("traces.skip", id, || src.skip(phase.start));
        if skipped != phase.start {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "file ended before the phase"));
        }
        let cfg = PipelineConfig {
            window: phase.window(opts.warmup, opts.measure),
            ..PipelineConfig::default()
        };
        let mut engine = rec
            .time("harness.build_engine", id, || spec.build_engine(MATRIX_SCENARIO, &cfg))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let fed = traced_feed(rec, id, &mut src, &mut *engine);
        let report = rec.time("pipeline.finish", id, || engine.finish(src.name(), src.category()));
        if let Some(e) = src.decode_error() {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        Ok((report, fed))
    })();
    rec.exit(slice);
    result
}

/// `sample_err_pct`: mean absolute % error of each sampled MPPKI against
/// its full run, over every (spec, file) pair, from `run_sampled`'s own
/// full-run check. Its sampled half must repeat the untraced run.
fn accuracy(
    paths: &[PathBuf],
    specs: &[PredictorSpec],
    opts: &SampleOptions,
    base: &[SampleRun],
    out: &mut Outputs,
) {
    let checked = SampleOptions { full_check: Some(100.0), ..*opts };
    match run_sampled(paths, specs, &checked) {
        Ok(runs) => {
            let mut errs = Vec::new();
            for (run, b) in runs.iter().zip(base) {
                out.checks.unit(run.sampled == b.sampled, || {
                    format!("{}: sampled runs differ", run.trace)
                });
                for (s, f) in run.sampled.iter().zip(run.full.iter().flatten()) {
                    out.checks
                        .unit(f.conditionals > 0, || format!("{}: empty full run", run.trace));
                    errs.push((s.mppki() - f.mppki()).abs() * 100.0 / f.mppki().max(1e-9));
                }
            }
            out.note("sample_err_pct", mean(errs.iter().copied()));
        }
        Err(e) => out.checks.error(format!("full-run check failed: {e}")),
    }
}
