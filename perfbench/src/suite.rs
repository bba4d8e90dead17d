//! `suite_small`: every experiment through `ExpContext` — generation,
//! the suite scheduler's memo and pool, and update scenarios I/A/B/C; no
//! decoding and no serving.

use crate::ledger::PassLedger;
use crate::run::{repeat_passes, EndToEnd, Outputs, Pass, Plan, RunCtx, THREADS};
use crate::span::{self, Recorder};
use crate::stats::Digest;
use crate::sys;
use harness::experiments::{self, by_id};
use harness::{ExpContext, ExpOptions, PredictorSpec, SchedulerStats, SuiteRunner};
use simkit::predictor::UpdateScenario;
use std::time::{Duration, Instant};

/// What one pass produced, for the checks and the printed results.
struct SuitePass {
    pass: Pass,
    /// Rendered tables, without `#` comment lines.
    text: String,
    digest: String,
    rendered: usize,
    stats: SchedulerStats,
    mppki: [f64; 2],
}

fn options() -> ExpOptions {
    ExpOptions { threads: Some(THREADS), ..ExpOptions::default() }
}

/// Runs the workload.
pub fn run(ctx: &RunCtx, traced: bool, out: &mut Outputs) {
    let plan = &ctx.plan;
    if traced {
        let base = untraced_pass(plan);
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 0);
        let built = rec.time("workloads.generate", 0, || {
            ExpContext::with_options(plan.suite_scale, options())
        });
        rec.time("harness.prefetch", 0, || experiments::prefetch(&built, &plan.experiments));
        let mut text = String::new();
        for (i, id) in plan.experiments.iter().enumerate() {
            if let Some(exp) = by_id(id) {
                text.push_str(&rec.time("harness.render", i as u64, || exp.render(&built)));
            }
        }
        let wall = origin.elapsed();
        let stats = built.scheduler_stats();
        let spans = rec.into_spans();
        out.checks.unit(strip_comments(&text) == base.text, || "traced tables diverged".into());
        PassLedger {
            useful_event_ratio: 1.0,
            runner: Some((stats, wall, built.threads())),
            unattributed_share: span::unattributed_share(&spans, 1, wall.as_nanos() as u64),
            trace_overhead_pct: crate::trace_full::overhead_pct(wall, base.pass.wall),
            ..PassLedger::default()
        }
        .emit(&mut out.metrics);
        out.spans = spans;
        return;
    }
    let setup = setup_times(plan);
    sys::reset_peak_rss();
    let mut first: Option<SuitePass> = None;
    let mut digests = Vec::new();
    let passes = repeat_passes(ctx.seconds, || {
        let p = untraced_pass(plan);
        out.checks.unit(p.rendered == plan.experiments.len(), || {
            format!("{} of {} experiments rendered", p.rendered, plan.experiments.len())
        });
        digests.push(p.digest.clone());
        let pass = p.pass;
        first.get_or_insert(p);
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
    if let Some(p) = first {
        out.note("sim_digest", &p.digest);
        out.note("mppki_ref", p.mppki[0]);
        out.note("mppki_lsc", p.mppki[1]);
        out.note("sim_jobs_run", p.stats.sim_jobs_run);
    }
}

/// Set-up repetitions: one costs well under a millisecond, so many of
/// them give a steady median.
const SETUP_REPS: usize = 25;

/// Set-up: what the timed pass needs before its first experiment — the
/// Small recipes and a scheduler pool — built [`SETUP_REPS`] times.
fn setup_times(plan: &Plan) -> Vec<Duration> {
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(workloads::suite::suite(plan.suite_scale));
            drop(SuiteRunner::new(Some(THREADS)));
            t.elapsed()
        })
        .collect()
}

fn strip_comments(text: &str) -> String {
    text.lines().filter(|l| !l.starts_with('#')).map(|l| format!("{l}\n")).collect()
}

/// One `tage_exp all`-style pass: build the context (generates the
/// suite), prefetch every experiment's suites, render every table.
fn untraced_pass(plan: &Plan) -> SuitePass {
    let t = Instant::now();
    let ctx = ExpContext::with_options(plan.suite_scale, options());
    experiments::prefetch(&ctx, &plan.experiments);
    let mut text = String::new();
    let mut rendered = 0;
    for id in &plan.experiments {
        if let Some(exp) = by_id(id) {
            text.push_str(&exp.render(&ctx));
            rendered += 1;
        }
    }
    let wall = t.elapsed();
    let stats = ctx.scheduler_stats();
    let conds_per_trace = ctx.materialized().map_or(0.0, |ts| {
        ts.iter().map(|t| t.conditional_count()).sum::<u64>() as f64 / ts.len().max(1) as f64
    });
    let text = strip_comments(&text);
    // Every run-table suite is memoized by now: these are cache hits.
    let mut d = Digest::default();
    d.text(&text);
    for id in &plan.experiments {
        for run in by_id(id).map(|e| e.runs()).unwrap_or_default() {
            d.text(&run.spec.to_string());
            ctx.run_spec(&run.spec, run.scenario).reports.iter().for_each(|r| d.report(r));
        }
    }
    let mppki = ["tage", "tage:lsc+ium+lsc/as=TAGE-LSC"].map(|s| {
        // INVARIANT: static spec strings from the paper's presets.
        let spec = PredictorSpec::parse(s).expect("preset spec parses");
        ctx.run_spec(&spec, UpdateScenario::RereadAtRetire).mppki()
    });
    SuitePass {
        pass: Pass { wall, conditionals: (stats.sim_jobs_run as f64 * conds_per_trace) as u64 },
        text,
        digest: d.hex(),
        rendered,
        stats,
        mppki,
    }
}
