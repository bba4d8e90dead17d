//! The per-layer ledger of a traced run.
//!
//! [`PassLedger`] holds what only the workload's own traced pass can say
//! (shares, ratios, scheduler counters, session overhead). [`measure`]
//! adds the per-layer costs, timed by calling each layer's public
//! functions on the same fixed inputs in every workload — the two
//! [`LEDGER_TRACES`] recipes — so a layer cost reads the same on every
//! workload and the layer → end-to-end table in the README says where it
//! should show.

use crate::inputs::ttr3_lz;
use crate::run::{median_time, Metrics, Outputs, Plan, RunCtx, BATCH, LEDGER_TRACES};
use crate::stats::median;
use harness::{PredictorSpec, RunArtifact, SchedulerStats};
use pipeline::{BlockSim, PipelineConfig, SimReport, SuiteReport};
use serve::wire::{self, FrameType, Handshake};
use simkit::history::{FoldedHistory, GlobalHistory};
use simkit::predictor::UpdateScenario;
use std::hint::black_box;
use std::io::{self, Cursor};
use std::path::Path;
use std::time::{Duration, Instant};
use traces::{CodecRegistry, Ttr3Writer};
use workloads::event::{EventBlock, EventSource, TraceEvent};
use workloads::suite::by_name;

/// Workload-shaped per-layer numbers from the traced pass. Layers the
/// workload does not exercise read 0.
#[derive(Debug, Default)]
pub struct PassLedger {
    /// Share of cell (or slice) time spent in `next_block`.
    pub decode_share: f64,
    /// Measured events over events fed to the engine.
    pub useful_event_ratio: f64,
    /// The suite scheduler's counters over the pass.
    pub runner: Option<(SchedulerStats, Duration, usize)>,
    /// Median time of one sampled slice.
    pub slice_ms_p50: f64,
    /// Median served session latency minus the offline cell time.
    pub serve_overhead_ms: f64,
    /// Share of traced thread time no layer span covers.
    pub unattributed_share: f64,
    /// Traced pass wall time over the untraced pass's, above 100 %.
    pub trace_overhead_pct: f64,
}

impl PassLedger {
    /// Appends the pass metrics.
    pub fn emit(&self, m: &mut Metrics) {
        m.put("traces.decode_share", self.decode_share, "fraction");
        m.put("pipeline.useful_event_ratio", self.useful_event_ratio, "fraction");
        let (stats, wall, threads) = self.runner.unwrap_or_default();
        let requested = stats.sim_jobs_requested.max(1) as f64;
        m.put("harness.runner.jobs_run", stats.sim_jobs_run as f64, "count");
        m.put("harness.runner.jobs_requested", stats.sim_jobs_requested as f64, "count");
        let hits = stats.sim_jobs_requested.saturating_sub(stats.sim_jobs_run) as f64;
        m.put("harness.runner.memo_hit_ratio", hits / requested, "fraction");
        m.put("harness.runner.busy_s", stats.busy_seconds(), "s");
        let capacity = (wall.as_secs_f64() * threads as f64).max(1e-9);
        let utilization = if threads == 0 { 0.0 } else { stats.busy_seconds() / capacity };
        m.put("harness.runner.utilization", utilization, "fraction");
        m.put("harness.sample.slice_ms_p50", self.slice_ms_p50, "ms");
        m.put("serve.overhead_ms", self.serve_overhead_ms, "ms");
        m.put("bench.unattributed_share", self.unattributed_share, "fraction");
        m.put("bench.trace_overhead_pct", self.trace_overhead_pct, "%");
    }
}

/// Short metric keys of the matrix columns, in `MATRIX` order.
const COLUMN_KEYS: [&str; 6] = ["gshare", "gehl", "tage", "tage_ium", "isl_tage", "tage_lsc"];

/// The stack-prefix ladder: each rung adds one stage to the previous.
const LADDER: [(&str, &str); 7] = [
    ("", "bimodal:32768,2"),
    ("provider", "tage(chooser=always)"),
    ("chooser", "tage"),
    ("ium", "tage+ium"),
    ("sc", "tage+ium+sc"),
    ("loop", "tage+ium+sc+loop"),
    ("lsc", "tage+ium+sc+lsc+loop"),
];

/// The window-cost probe: the cheapest predictor, so the window dominates.
const WINDOW_PROBE: &str = "bimodal:32768,2";

struct LedgerTrace {
    name: &'static str,
    category: String,
    events: Vec<TraceEvent>,
    bytes: Vec<u8>,
}

fn ns_per(d: f64, n: u64) -> f64 {
    d * 1e9 / n.max(1) as f64
}

fn parse(spec: &str) -> PredictorSpec {
    // INVARIANT: the ledger's spec strings are static and parse-checked
    // by the benchmark's tests.
    PredictorSpec::parse(spec).unwrap_or_else(|e| panic!("ledger spec {spec}: {e}"))
}

/// One feed of each trace's first `prefix` events through a fresh engine
/// per trace, in blocks: `run_block` time per conditional over all the
/// traces, plus each engine's build and finish times and report.
struct Feed {
    ns_per_cond: f64,
    build_us: Vec<f64>,
    finish_us: Vec<f64>,
    reports: Vec<SimReport>,
}

fn feed(
    spec: &PredictorSpec,
    scenario: UpdateScenario,
    traces: &[LedgerTrace],
    prefix: usize,
) -> Feed {
    let mut out =
        Feed { ns_per_cond: 0.0, build_us: Vec::new(), finish_us: Vec::new(), reports: Vec::new() };
    let (mut feed_s, mut conds) = (0.0, 0u64);
    for t in traces {
        let t0 = Instant::now();
        // INVARIANT: the ledger specs are parse-checked by the tests.
        let mut engine: Box<dyn BlockSim> =
            spec.build_engine(scenario, &PipelineConfig::default()).expect("ledger spec builds");
        let t1 = Instant::now();
        for block in t.events[..t.events.len().min(prefix)].chunks(BATCH) {
            engine.run_block(black_box(block));
        }
        let t2 = Instant::now();
        let report = engine.finish(t.name, &t.category);
        let t3 = Instant::now();
        out.build_us.push((t1 - t0).as_secs_f64() * 1e6);
        out.finish_us.push((t3 - t2).as_secs_f64() * 1e6);
        feed_s += (t2 - t1).as_secs_f64();
        conds += report.conditionals;
        out.reports.push(report);
    }
    out.ns_per_cond = ns_per(feed_s, conds);
    out
}

/// Runs every micro-measurement and appends its metrics.
///
/// # Errors
///
/// Propagates scratch-file and decode I/O errors.
pub fn measure(ctx: &RunCtx, out: &mut Outputs) -> io::Result<()> {
    let plan = &ctx.plan;
    let reps = plan.ledger_reps.max(1);
    let mut traces = generation(plan, reps, &mut out.metrics);
    codec(&mut traces, &ctx.work.join("ledger"), reps, out)?;
    let tage = predictors(&traces, plan.ledger_prefix, reps, &mut out.metrics);
    folded_history(reps, &mut out.metrics);
    artifact(tage, out);
    wire(out);
    Ok(())
}

/// workloads: recipe generation, drained by blocks. Returns the ledger
/// traces, materialized.
fn generation(plan: &Plan, reps: usize, m: &mut Metrics) -> Vec<LedgerTrace> {
    let specs: Vec<_> = LEDGER_TRACES
        .iter()
        .map(|n| by_name(n, plan.trace_scale).expect("ledger traces are suite recipes"))
        .collect();
    let mut block = EventBlock::with_capacity(BATCH);
    let mut gen = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let mut n = 0u64;
        for s in &specs {
            let mut stream = s.stream();
            while stream.next_block(&mut block, BATCH) > 0 {
                n += black_box(block.events.len()) as u64;
            }
        }
        gen.push(ns_per(t.elapsed().as_secs_f64(), n));
    }
    m.put("workloads.gen_ns_per_event", median(&gen), "ns/event");
    specs
        .iter()
        .zip(LEDGER_TRACES)
        .map(|(s, name)| LedgerTrace {
            name,
            category: s.category.as_str().to_string(),
            events: s.stream().collect(),
            bytes: Vec::new(),
        })
        .collect()
}

/// traces: encode, open, skip, decode and `open_feed`, on `.ttr3` + lz
/// files written to `dir`.
fn codec(traces: &mut [LedgerTrace], dir: &Path, reps: usize, out: &mut Outputs) -> io::Result<()> {
    let (m, checks) = (&mut out.metrics, &mut out.checks);
    std::fs::create_dir_all(dir)?;
    let total_events: u64 = traces.iter().map(|t| t.events.len() as u64).sum();
    let scheme = ttr3_lz().scheme_id;
    let mut enc = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        for tr in traces.iter_mut() {
            let mut buf = Vec::new();
            let mut w = Ttr3Writer::new(&mut buf, tr.name, &tr.category, scheme)?;
            for e in &tr.events {
                w.push(e)?;
            }
            w.finish()?;
            tr.bytes = buf;
        }
        enc.push(ns_per(t.elapsed().as_secs_f64(), total_events));
    }
    m.put("traces.encode_ns_per_event", median(&enc), "ns/event");
    let paths: Vec<_> = traces.iter().map(|t| dir.join(format!("{}.ttr3", t.name))).collect();
    for (t, p) in traces.iter().zip(&paths) {
        std::fs::write(p, &t.bytes)?;
    }
    let registry = CodecRegistry::standard();
    let (mut open, mut skip) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        for (t, p) in traces.iter().zip(&paths) {
            let s = Instant::now();
            let mut src = registry.open(p)?;
            open.push(s.elapsed().as_secs_f64() * 1e6);
            let half = t.events.len() as u64 / 2;
            let s = Instant::now();
            let skipped = src.skip(half);
            skip.push(s.elapsed().as_secs_f64() * 1e6);
            checks.unit(skipped == half, || format!("skip on {}: {skipped} of {half}", t.name));
        }
    }
    m.put("traces.open_us", median(&open), "us");
    m.put("traces.skip_us", median(&skip), "us");
    let mut block = EventBlock::with_capacity(BATCH);
    let mut dec = Vec::new();
    for _ in 0..reps {
        let mut elapsed = 0.0;
        for (t, p) in traces.iter().zip(&paths) {
            let mut src = registry.open(p)?;
            let s = Instant::now();
            let mut n = 0u64;
            while src.next_block(&mut block, BATCH) > 0 {
                n += black_box(block.events.len()) as u64;
            }
            elapsed += s.elapsed().as_secs_f64();
            let clean = traces::finish(src.as_ref()).is_ok();
            checks.unit(clean && n == t.events.len() as u64, || {
                format!("decode of {}: {n} events", t.name)
            });
        }
        dec.push(ns_per(elapsed, total_events));
    }
    m.put("traces.decode_ns_per_event", median(&dec), "ns/event");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool)?;
    let mut feed = Vec::new();
    for _ in 0..5 {
        for t in traces.iter() {
            let reader: Box<dyn io::Read + Send> = Box::new(Cursor::new(t.bytes.clone()));
            let hint = format!("{}.ttr3", t.name);
            let s = Instant::now();
            let src = registry.open_feed(reader, Some(Path::new(&hint)), &spool)?;
            feed.push(s.elapsed().as_secs_f64() * 1e3);
            checks.unit(src.expected_events() == Some(t.events.len() as u64), || {
                format!("open_feed of {}", t.name)
            });
        }
    }
    m.put("traces.feed_open_ms", median(&feed), "ms");
    Ok(())
}

/// pipeline, harness and core: the matrix columns, the window cost per
/// scenario, and the stack-prefix ladder, all on decoded blocks. Returns
/// the `tage` column's first report.
fn predictors(traces: &[LedgerTrace], prefix: usize, reps: usize, m: &mut Metrics) -> SimReport {
    let scenario = harness::trace_mode::MATRIX_SCENARIO;
    let mut finishes = Vec::new();
    let mut tage = None;
    for ((_, spec_str), key) in harness::trace_mode::MATRIX.iter().zip(COLUMN_KEYS) {
        let spec = parse(spec_str);
        let (mut cell, mut builds) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let f = feed(&spec, scenario, traces, prefix);
            cell.push(f.ns_per_cond);
            builds.extend(f.build_us);
            finishes.extend(f.finish_us);
            if *spec_str == "tage" {
                tage.get_or_insert_with(|| f.reports[0].clone());
            }
        }
        m.put(format!("pipeline.cell_ns_per_cond.{key}"), median(&cell), "ns/cond");
        m.put(format!("harness.build_engine_us.{key}"), median(&builds), "us");
    }
    m.put("pipeline.finish_us", median(&finishes), "us");

    // The window's cost per scenario over [I], on the cheapest predictor.
    let probe = parse(WINDOW_PROBE);
    let scenarios = [
        UpdateScenario::Immediate,
        UpdateScenario::RereadAtRetire,
        UpdateScenario::FetchOnly,
        UpdateScenario::RereadOnMispredict,
    ];
    let mut window = vec![Vec::new(); scenarios.len()];
    for _ in 0..reps {
        for (si, sc) in scenarios.iter().enumerate() {
            window[si].push(feed(&probe, *sc, traces, prefix).ns_per_cond);
        }
    }
    let base = median(&window[0]);
    for (si, sc) in scenarios.iter().enumerate().skip(1) {
        let key = format!("pipeline.window_ns_per_cond.{}", sc.label());
        m.put(key, median(&window[si]) - base, "ns/cond");
    }

    // Each stage is the difference of consecutive rungs' medians, per trace.
    let rungs: Vec<PredictorSpec> = LADDER.iter().map(|(_, s)| parse(s)).collect();
    for t in traces {
        let one = std::slice::from_ref(t);
        let mut samples = vec![Vec::new(); rungs.len()];
        for _ in 0..reps {
            for (ri, spec) in rungs.iter().enumerate() {
                samples[ri].push(feed(spec, scenario, one, prefix).ns_per_cond);
            }
        }
        let medians: Vec<f64> = samples.iter().map(|s| median(s)).collect();
        for (ri, (stage, _)) in LADDER.iter().enumerate().skip(1) {
            let key = format!("core.{stage}_ns.{}", t.name.to_ascii_lowercase());
            m.put(key, medians[ri] - medians[ri - 1], "ns/cond");
        }
    }
    // INVARIANT: MATRIX has a `tage` column.
    tage.expect("tage column ran")
}

/// simkit: one folded-history update, net of the history push it follows.
fn folded_history(reps: usize, m: &mut Metrics) {
    let pushes = 1u64 << 20;
    let outcomes: Vec<bool> =
        (0..pushes).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) & 1 == 1).collect();
    let (mut with_update, mut push_only) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let mut gh = GlobalHistory::new();
        let mut fh = FoldedHistory::new(640, 11);
        let t = Instant::now();
        for &o in &outcomes {
            gh.push(o);
            fh.update(black_box(&gh));
        }
        with_update.push(t.elapsed().as_secs_f64());
        black_box(fh.value());
        let mut gh = GlobalHistory::new();
        let t = Instant::now();
        for &o in &outcomes {
            gh.push(black_box(o));
        }
        push_only.push(t.elapsed().as_secs_f64());
        black_box(gh.bit(0));
    }
    let net = median(&with_update) - median(&push_only);
    m.put("simkit.folded_update_ns", ns_per(net, pushes), "ns");
}

/// harness: the `tage.run/1` artifact a served session returns.
fn artifact(report: SimReport, out: &mut Outputs) {
    let artifact = RunArtifact::from_suite(
        &parse("tage").sim_key(),
        UpdateScenario::RereadAtRetire,
        "external",
        &SuiteReport::new(vec![report]),
        None,
        Handshake::default().top,
    );
    let json = artifact.to_json();
    let to_json = median_time(50, || {
        black_box(artifact.to_json());
    });
    let mut parsed = None;
    let from_json = median_time(50, || {
        parsed = Some(RunArtifact::from_json(black_box(&json)));
    });
    let round_trip = matches!(&parsed, Some(Ok(a)) if a.to_json() == json);
    out.checks.unit(round_trip, || "artifact JSON round trip".into());
    out.metrics.put("harness.artifact.to_json_us", to_json * 1e6, "us");
    out.metrics.put("harness.artifact.from_json_us", from_json * 1e6, "us");
    out.metrics.put("harness.artifact.bytes", json.len() as f64, "bytes");
}

/// serve: frame codec and handshake on in-memory buffers.
fn wire(out: &mut Outputs) {
    let payload: Vec<u8> =
        (0..64 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    let mut buf = Vec::with_capacity(payload.len() + 16);
    let mut frames_ok = true;
    let frame = median_time(200, || {
        buf.clear();
        let sent = wire::write_frame(&mut buf, FrameType::Data, &payload);
        let got = wire::read_frame(&mut Cursor::new(&buf));
        frames_ok &= sent.is_ok() && got.is_ok_and(|f| f.payload == payload);
    });
    out.checks.unit(frames_ok, || "wire frame round trip".into());
    out.metrics.put("serve.wire.frame_ns_per_kib", frame * 1e9 / 64.0, "ns/KiB");
    let hs =
        Handshake { spec: "tage".into(), name_hint: "INT01.ttr3".into(), ..Handshake::default() };
    let mut hs_ok = true;
    let handshake = median_time(5, || {
        for _ in 0..1000 {
            hs_ok &= Handshake::parse(&black_box(hs.encode())).is_ok_and(|h| h == hs);
        }
    });
    out.checks.unit(hs_ok, || "handshake round trip".into());
    out.metrics.put("serve.handshake_us", handshake * 1e6 / 1000.0, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_specs_parse() {
        for (_, s) in LADDER {
            parse(s).validate().unwrap();
        }
        parse(WINDOW_PROBE).validate().unwrap();
        assert_eq!(COLUMN_KEYS.len(), harness::trace_mode::MATRIX.len());
    }
}
