//! `tage_exp sample` — sampled simulation over external trace files.
//!
//! Full simulation cost scales linearly with trace length; the SimPoint
//! observation is that a handful of warmup/measure slices placed across
//! the trace estimate whole-run MPPKI to within a couple of percent at a
//! fraction of the simulated events. This module is the driver half of
//! [`pipeline::sampling`]: it picks phases with
//! [`pipeline::fixed_interval`], fans **one pool job per (spec × slice)**
//! through the shared [`WorkerPool`], positions each job's decoder with
//! `EventSource::skip` (a seek on `.ttr3` files, decode-discard
//! otherwise), and combines the per-slice reports with the exact
//! integer arithmetic of [`SampledResult`].
//!
//! `--full-check PCT` additionally runs every (spec × file) pair in full
//! — also as pool jobs — and fails when any sampled MPPKI strays more
//! than PCT percent from its full-run twin: the accuracy gate CI runs at
//! tiny scale.

use crate::runner::WorkerPool;
use crate::spec::PredictorSpec;
use crate::table::{f1, Table};
use crate::trace_mode::MATRIX_SCENARIO;
use pipeline::{
    fixed_interval, ChunkDriver, Phase, PipelineConfig, SampledResult, SimReport, SimWindow,
    DEFAULT_BATCH,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use traces::CodecRegistry;

/// Knobs of one sampled run.
#[derive(Clone, Copy, Debug)]
pub struct SampleOptions {
    /// Slices per file.
    pub phases: u64,
    /// Warmup events per slice (trained, not scored).
    pub warmup: u64,
    /// Measured events per slice.
    pub measure: u64,
    /// Jitter seed for the fixed-interval selector.
    pub seed: u64,
    /// Pool worker threads (`None`: available parallelism, capped at 16).
    pub threads: Option<usize>,
    /// Events per engine dispatch (see [`pipeline::DEFAULT_BATCH`]).
    pub batch: usize,
    /// When set, also simulate every (spec × file) pair in full and gate
    /// the sampled MPPKI to within this percentage of the full run.
    pub full_check: Option<f64>,
}

impl Default for SampleOptions {
    fn default() -> Self {
        Self {
            phases: 8,
            warmup: 10_000,
            measure: 40_000,
            seed: 0,
            threads: None,
            batch: DEFAULT_BATCH,
            full_check: None,
        }
    }
}

/// One file's sampled run: the phase placement plus per-spec results.
#[derive(Debug)]
pub struct SampleRun {
    /// Source file.
    pub file: PathBuf,
    /// Trace name from the container metadata.
    pub trace: String,
    /// Trace category.
    pub category: String,
    /// Events in the file (the population the sample estimates).
    pub total_events: u64,
    /// The selected phases (identical across specs).
    pub phases: Vec<Phase>,
    /// Per-spec sampled results, in caller spec order.
    pub sampled: Vec<SampledResult>,
    /// Per-spec full-run reports when [`SampleOptions::full_check`] ran.
    pub full: Option<Vec<SimReport>>,
}

impl SampleRun {
    /// Events fed to a predictor per spec (warmup + measure per slice,
    /// capped by the trace).
    pub fn simulated_events(&self, opts: &SampleOptions) -> u64 {
        self.sampled
            .first()
            .map_or(0, |s| s.simulated_events(opts.warmup, opts.measure))
    }
}

/// Opens `path` and returns its event count: the container's declared
/// total when it records one, otherwise one decode-discard pass.
fn count_events(registry: &CodecRegistry, path: &Path) -> io::Result<u64> {
    let mut src = registry.open(path)?;
    if let Some(total) = src.expected_events() {
        return Ok(total);
    }
    let n = src.skip(u64::MAX);
    traces::finish(src.as_ref())?;
    Ok(n)
}

/// One slice job: position the decoder at the phase start (O(1) on
/// indexed containers), then run the windowed engine over the slice.
fn slice_job(
    path: &Path,
    spec: &PredictorSpec,
    phase: Phase,
    opts: &SampleOptions,
) -> io::Result<SimReport> {
    let registry = CodecRegistry::standard();
    let mut src = registry.open(path)?;
    let skipped = src.skip(phase.start);
    if skipped != phase.start {
        if let Some(e) = src.decode_error() {
            return Err(io::Error::new(e.kind(), format!("{}: {e}", src.format())));
        }
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("file ended {} events short of phase start {}", phase.start - skipped, phase.start),
        ));
    }
    let cfg = PipelineConfig {
        window: SimWindow { skip: 0, warmup: opts.warmup, measure: opts.measure },
        ..PipelineConfig::default()
    };
    // INVARIANT: specs were parse-validated by the caller before fan-out.
    let mut engine = spec.build_engine(MATRIX_SCENARIO, &cfg).expect("spec validated before fan-out");
    let report = ChunkDriver::new(opts.batch).run(&mut *engine, &mut src);
    // The window stops mid-file by design, so the remaining-event
    // shortfall check does not apply — but a decode error still must.
    if let Some(e) = src.decode_error() {
        return Err(io::Error::new(e.kind(), format!("{}: {e}", src.format())));
    }
    Ok(report)
}

/// One full-run job (the `--full-check` reference): the whole file under
/// the default window.
fn full_job(path: &Path, spec: &PredictorSpec, batch: usize) -> io::Result<SimReport> {
    let registry = CodecRegistry::standard();
    let mut src = registry.open(path)?;
    let cfg = PipelineConfig::default();
    // INVARIANT: see `slice_job`.
    let mut engine = spec.build_engine(MATRIX_SCENARIO, &cfg).expect("spec validated before fan-out");
    let report = ChunkDriver::new(batch).run(&mut *engine, &mut src);
    traces::finish(src.as_ref())?;
    Ok(report)
}

/// Runs the sampled matrix: every (spec × file × slice) — plus, under
/// `full_check`, every (spec × file) in full — as one job on the shared
/// pool. Results assemble in deterministic (file, spec, slice) order
/// regardless of completion order.
///
/// # Errors
///
/// Propagates open/count errors up front and the first job error in
/// submission order.
pub fn run_sampled(
    files: &[PathBuf],
    specs: &[PredictorSpec],
    opts: &SampleOptions,
) -> io::Result<Vec<SampleRun>> {
    let registry = CodecRegistry::standard();
    // Phase selection is cheap and sequential: one metadata open per file.
    let mut metas: Vec<(String, String, u64, Vec<Phase>)> = Vec::with_capacity(files.len());
    for f in files {
        let total = count_events(&registry, f)?;
        let src = registry.open(f)?;
        let phases = fixed_interval(total, opts.phases, opts.warmup, opts.measure, opts.seed);
        metas.push((src.name().to_string(), src.category().to_string(), total, phases));
    }

    // Fan out: job k is (file, spec, slice) in lexicographic order, with
    // the full-run jobs (if any) appended after all slice jobs.
    struct JobDef {
        file: usize,
        spec: usize,
        slice: Option<usize>,
    }
    let mut defs: Vec<JobDef> = Vec::new();
    for (fi, (_, _, _, phases)) in metas.iter().enumerate() {
        for si in 0..specs.len() {
            for pi in 0..phases.len() {
                defs.push(JobDef { file: fi, spec: si, slice: Some(pi) });
            }
        }
    }
    if opts.full_check.is_some() {
        for fi in 0..files.len() {
            for si in 0..specs.len() {
                defs.push(JobDef { file: fi, spec: si, slice: None });
            }
        }
    }

    let threads = opts
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |t| t.get()).min(16))
        .clamp(1, defs.len().max(1));
    let pool = WorkerPool::new(threads);
    let (tx, rx) = mpsc::channel::<(usize, io::Result<SimReport>)>();
    for (k, def) in defs.iter().enumerate() {
        let tx = tx.clone();
        let path = files[def.file].clone();
        let spec = specs[def.spec].clone();
        let slice = def.slice.map(|pi| metas[def.file].3[pi]);
        let opts = *opts;
        pool.submit(Box::new(move || {
            // The pool has no per-job panic fence (the suite scheduler's
            // Batch provides one); catch here so a panicking job surfaces
            // as an error instead of hanging the collector.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match slice {
                Some(phase) => slice_job(&path, &spec, phase, &opts),
                None => full_job(&path, &spec, opts.batch),
            }))
            .unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "job panicked".to_string());
                Err(io::Error::other(msg))
            });
            let _ = tx.send((k, result));
        }));
    }
    drop(tx);
    let mut slots: Vec<Option<io::Result<SimReport>>> = (0..defs.len()).map(|_| None).collect();
    for _ in 0..defs.len() {
        // INVARIANT: every submitted job sends exactly once (the panic
        // fence above guarantees it), so recv cannot starve.
        let (k, r) = rx.recv().expect("sample job vanished without a result");
        slots[k] = Some(r);
    }
    // INVARIANT: the loop above received exactly one result per job
    // index, so every slot is filled.
    let mut results = slots.into_iter().map(|s| s.expect("sample slot unfilled"));

    // Reassemble in definition order: slice jobs first, then full jobs.
    let mut runs: Vec<SampleRun> = metas
        .iter()
        .zip(files)
        .map(|((trace, category, total, phases), file)| SampleRun {
            file: file.clone(),
            trace: trace.clone(),
            category: category.clone(),
            total_events: *total,
            phases: phases.clone(),
            sampled: Vec::with_capacity(specs.len()),
            full: opts.full_check.is_some().then(Vec::new),
        })
        .collect();
    for run in &mut runs {
        for _ in 0..specs.len() {
            // INVARIANT: `defs` was built by these same loops in the same
            // order, so the iterator yields one result per (file, spec, slice).
            let reports: io::Result<Vec<SimReport>> =
                (0..run.phases.len()).map(|_| results.next().unwrap()).collect();
            run.sampled.push(SampledResult::combine(&run.phases, reports?, run.total_events));
        }
    }
    if opts.full_check.is_some() {
        for run in &mut runs {
            for _ in 0..specs.len() {
                // INVARIANT: one full job per (file, spec) was appended after
                // the slice jobs; `full` was allocated under this condition.
                let report = results.next().unwrap()?;
                run.full.as_mut().expect("full slot allocated above").push(report);
            }
        }
    }
    Ok(runs)
}

/// The worst absolute sampled-vs-full MPPKI deviation across all (file ×
/// spec) pairs, in percent. `None` when no full runs were collected.
pub fn worst_delta_pct(runs: &[SampleRun]) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for run in runs {
        let full = run.full.as_ref()?;
        for (s, f) in run.sampled.iter().zip(full) {
            let delta = (s.mppki() - f.mppki()).abs() * 100.0 / f.mppki().max(1e-9);
            worst = Some(worst.map_or(delta, |w: f64| w.max(delta)));
        }
    }
    worst
}

/// Renders the sampled matrix: one row per (file × spec), with the
/// full-run columns when the accuracy check ran.
pub fn render(runs: &[SampleRun], spec_names: &[String], opts: &SampleOptions) -> String {
    let with_full = runs.iter().any(|r| r.full.is_some());
    let mut columns = vec![
        "trace", "category", "spec", "events", "simulated", "reduction", "sampled-MPPKI",
    ];
    if with_full {
        columns.extend(["full-MPPKI", "delta%"]);
    }
    let mut t = Table::new(
        &format!(
            "SAMPLED MODE — {} phase(s) × warmup {} + measure {}, scenario [{}]",
            opts.phases,
            opts.warmup,
            opts.measure,
            MATRIX_SCENARIO.label()
        ),
        &columns,
    );
    for run in runs {
        let simulated = run.simulated_events(opts);
        for (si, name) in spec_names.iter().enumerate() {
            let s = &run.sampled[si];
            let mut row = vec![
                run.trace.clone(),
                run.category.clone(),
                name.clone(),
                run.total_events.to_string(),
                simulated.to_string(),
                format!("{:.1}x", run.total_events as f64 / simulated.max(1) as f64),
                f1(s.mppki()),
            ];
            if with_full {
                match run.full.as_ref().map(|f| &f[si]) {
                    Some(f) => {
                        let delta = (s.mppki() - f.mppki()) * 100.0 / f.mppki().max(1e-9);
                        row.push(f1(f.mppki()));
                        row.push(format!("{delta:+.2}"));
                    }
                    None => {
                        row.push("-".into());
                        row.push("-".into());
                    }
                }
            }
            t.row(row);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_mode::record_trace;
    use workloads::suite::{by_name, Scale};

    fn record(names: &[&str], tag: &str) -> (PathBuf, Vec<PathBuf>) {
        let dir = std::env::temp_dir()
            .join(format!("tage-sample-mode-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let codec = traces::Ttr3Codec::default();
        let files = names
            .iter()
            .map(|n| {
                let t = by_name(n, Scale::Tiny).unwrap().generate();
                record_trace(&t, &codec, &dir).unwrap()
            })
            .collect();
        (dir, files)
    }

    #[test]
    fn one_phase_covering_the_whole_trace_reproduces_the_full_run() {
        let (dir, files) = record(&["CLIENT01"], "whole");
        let specs = vec![PredictorSpec::parse("tage").unwrap()];
        let opts = SampleOptions {
            phases: 1,
            warmup: 0,
            measure: u64::MAX,
            full_check: Some(0.0),
            threads: Some(2),
            ..SampleOptions::default()
        };
        let runs = run_sampled(&files, &specs, &opts).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.phases, vec![Phase { start: 0, weight: run.total_events }]);
        // One slice spanning everything IS the full run, bit for bit.
        let combined = run.sampled[0].combined_report().unwrap();
        let full = &run.full.as_ref().unwrap()[0];
        assert_eq!(combined, *full);
        assert_eq!(worst_delta_pct(&runs), Some(0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_run_cuts_events_and_tracks_the_full_mppki() {
        let (dir, files) = record(&["CLIENT01", "MM01"], "cut");
        let specs = vec![
            PredictorSpec::parse("tage").unwrap(),
            PredictorSpec::parse("gshare:12").unwrap(),
        ];
        let opts = SampleOptions {
            phases: 6,
            warmup: 200,
            measure: 200,
            full_check: Some(100.0),
            threads: Some(4),
            ..SampleOptions::default()
        };
        let runs = run_sampled(&files, &specs, &opts).unwrap();
        assert_eq!(runs.len(), 2);
        for run in &runs {
            let simulated = run.simulated_events(&opts);
            assert!(
                simulated * 2 <= run.total_events,
                "{}: {simulated} of {} events simulated",
                run.trace,
                run.total_events
            );
            assert_eq!(run.sampled.len(), 2);
        }
        // Deterministic: a rerun reproduces the same slices and counters.
        let again = run_sampled(&files, &specs, &opts).unwrap();
        for (a, b) in runs.iter().zip(&again) {
            assert_eq!(a.phases, b.phases);
            for (x, y) in a.sampled.iter().zip(&b.sampled) {
                assert_eq!(x.slices, y.slices);
            }
        }
        let rendered = render(
            &runs,
            &["tage".to_string(), "gshare:12".to_string()],
            &opts,
        );
        assert!(rendered.contains("SAMPLED MODE"));
        assert!(rendered.contains("CLIENT01"));
        assert!(rendered.contains("delta%"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_errors_in_a_slice_fail_loudly() {
        let (dir, files) = record(&["WS01"], "corrupt");
        // Truncate mid-stream: the trailer check fires at open.
        let bytes = std::fs::read(&files[0]).unwrap();
        std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
        let specs = vec![PredictorSpec::parse("gshare:10").unwrap()];
        let err = run_sampled(&files, &specs, &SampleOptions::default());
        assert!(err.is_err(), "corrupt file must fail the sampled run");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
