//! Shared experiment context: the trace suite plus the deduplicating
//! parallel scheduler every experiment runs through.
//!
//! The suite backs the context in one of two modes:
//!
//! * **materialized** (default) — the 40 traces are generated once up
//!   front (in parallel) and shared with the worker threads;
//! * **streamed** (`ExpOptions::stream`) — only the 40 [`TraceSpec`]
//!   recipes are kept; every simulation job regenerates its trace lazily
//!   through [`TraceSpec::stream`], so suite memory never exceeds one
//!   in-flight window per worker. Bit-identical to materialized mode (the
//!   `streamed_suite_matches_materialized_bit_for_bit` test pins this),
//!   at the price of per-job regeneration — worth it above `Scale::Full`.

use crate::runner::{SchedulerStats, SuiteRunner, SuiteSource};
use crate::spec::PredictorSpec;
use pipeline::{BlockSim, PipelineConfig, SuiteReport, WindowEngine};
use simkit::predictor::{Predictor, UpdateScenario};
use std::sync::Arc;
use workloads::event::{EventSource, TraceStream};
use workloads::suite::{generate_parallel, suite, Scale};
use workloads::{Trace, TraceStats};

/// Construction options for [`ExpContext`].
#[derive(Clone, Debug, Default)]
pub struct ExpOptions {
    /// Worker threads for the scheduler pool (`None`: available
    /// parallelism, capped at 16).
    pub threads: Option<usize>,
    /// Stream-first mode: regenerate traces inside each job instead of
    /// materializing the suite.
    pub stream: bool,
    /// Collect per-static-branch profiles
    /// ([`pipeline::report::BranchProfile`]) in every simulation run
    /// through this context. Off by default; aggregates are unchanged
    /// either way.
    pub branch_stats: bool,
}

/// Everything an experiment needs: the 40-trace suite (materialized or
/// streamed), the pipeline model, and the scheduler that runs (and
/// memoizes) suite simulations.
pub struct ExpContext {
    /// Trace scale in use.
    pub scale: Scale,
    /// Pipeline configuration (in-flight window, core model).
    pub cfg: PipelineConfig,
    source: SuiteSource,
    runner: SuiteRunner,
}

impl ExpContext {
    /// Generates the full suite at `scale` with default options.
    pub fn new(scale: Scale) -> Self {
        Self::with_options(scale, ExpOptions::default())
    }

    /// Builds the context at `scale`. In materialized mode traces are
    /// generated in parallel; in stream mode only the recipes are built.
    pub fn with_options(scale: Scale, opts: ExpOptions) -> Self {
        let runner = SuiteRunner::new(opts.threads);
        let source = if opts.stream {
            SuiteSource::Streamed(Arc::new(suite(scale)))
        } else {
            let threads = Some(runner.pool().threads());
            SuiteSource::Materialized(Arc::new(generate_parallel(scale, threads)))
        };
        let cfg = PipelineConfig { branch_stats: opts.branch_stats, ..PipelineConfig::default() };
        Self { scale, cfg, source, runner }
    }

    /// Whether this context runs in stream-first mode.
    pub fn streaming(&self) -> bool {
        matches!(self.source, SuiteSource::Streamed(_))
    }

    /// Number of traces in the suite.
    pub fn trace_count(&self) -> usize {
        self.source.trace_count()
    }

    /// The materialized traces, when not in stream mode (equivalence
    /// tests compare against these).
    pub fn materialized(&self) -> Option<&Arc<Vec<Trace>>> {
        match &self.source {
            SuiteSource::Materialized(ts) => Some(ts),
            SuiteSource::Streamed(_) => None,
        }
    }

    /// A fresh event source for suite trace `i` — a borrowing stream over
    /// the materialized trace, or a lazy regeneration in stream mode.
    /// Experiments that walk raw events use this so they work in both
    /// modes with bounded memory.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn source_at(&self, i: usize) -> Box<dyn EventSource + '_> {
        match &self.source {
            SuiteSource::Materialized(ts) => Box::new(TraceStream::new(&ts[i])),
            SuiteSource::Streamed(specs) => Box::new(specs[i].stream()),
        }
    }

    /// Per-trace characterization statistics, in suite order. In stream
    /// mode traces are regenerated across the scheduler's worker count
    /// (one trace materialized per worker at a time — regeneration, the
    /// dominant cost, stays parallel like the materialized path's).
    pub fn trace_stats(&self) -> Vec<TraceStats> {
        match &self.source {
            SuiteSource::Materialized(ts) => ts.iter().map(TraceStats::of).collect(),
            SuiteSource::Streamed(specs) => {
                let threads = self.threads().clamp(1, specs.len().max(1));
                std::thread::scope(|s| {
                    let chunks = specs.chunks(specs.len().div_ceil(threads).max(1));
                    let handles: Vec<_> = chunks
                        .map(|chunk| {
                            s.spawn(move || {
                                chunk
                                    .iter()
                                    .map(|sp| TraceStats::of(&sp.stream().collect_trace()))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        // INVARIANT: re-raises a worker panic on the
                        // caller; never an expected error path.
                        .flat_map(|h| h.join().expect("stats worker panicked"))
                        .collect()
                })
            }
        }
    }

    /// Runs a predictor (one cold instance per trace) over the whole
    /// suite, one scheduler job per trace. Not memoized — see
    /// [`ExpContext::run_spec`].
    pub fn run<P, F>(&self, make: F, scenario: UpdateScenario) -> SuiteReport
    where
        P: Predictor + 'static,
        F: Fn() -> P + Send + Sync + 'static,
    {
        let cfg = self.cfg.clone();
        self.runner.run_suite(&self.source, move || {
            Box::new(WindowEngine::new(make(), scenario, &cfg)) as Box<dyn BlockSim>
        })
    }

    /// Runs a declarative [`PredictorSpec`] over the suite, memoized by
    /// [`PredictorSpec::sim_key`] — the canonical string minus the
    /// display-only label — so two rows share a cached suite exactly
    /// when they simulate the same composition. Duplicate requests
    /// across experiments are served from cache.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails to build — validate specs before handing
    /// them to the scheduler.
    pub fn run_spec(&self, spec: &PredictorSpec, scenario: UpdateScenario) -> SuiteReport {
        let make = self.engines(spec, scenario);
        self.runner.run_suite_cached(&spec.sim_key(), scenario, &self.cfg, &self.source, make)
    }

    /// Eager twin of [`ExpContext::run_spec`]: submits the suite's jobs
    /// to the pool and returns immediately. No-op when the suite is
    /// already cached or in flight; a later `run_spec` collects it.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails to build.
    pub fn prefetch_spec(&self, spec: &PredictorSpec, scenario: UpdateScenario) {
        let make = self.engines(spec, scenario);
        self.runner.prefetch_suite_cached(&spec.sim_key(), scenario, &self.cfg, &self.source, make);
    }

    /// The per-trace engine factory of a spec under this context's
    /// pipeline configuration.
    fn engines(
        &self,
        spec: &PredictorSpec,
        scenario: UpdateScenario,
    ) -> impl Fn() -> Box<dyn BlockSim> + Send + Sync + 'static {
        let (spec, cfg) = (spec.clone(), self.cfg.clone());
        // INVARIANT: every spec reaching the scheduler parsed and
        // validated in PredictorSpec::parse.
        move || spec.build_engine(scenario, &cfg).expect("spec validated upstream")
    }

    /// Scheduler counters (jobs run vs requested, memo hits).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.runner.stats()
    }

    /// Worker threads in the scheduler pool.
    pub fn threads(&self) -> usize {
        self.runner.pool().threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::simulate;

    #[test]
    fn parallel_run_matches_serial() {
        let ctx = ExpContext::new(Scale::Tiny);
        let par = ctx.run(|| baselines::Gshare::new(12), UpdateScenario::RereadAtRetire);
        let serial = SuiteReport::new(
            ctx.materialized()
                .unwrap()
                .iter()
                .map(|t| {
                    simulate(
                        &mut baselines::Gshare::new(12),
                        t,
                        UpdateScenario::RereadAtRetire,
                        &ctx.cfg,
                    )
                })
                .collect(),
        );
        assert_eq!(par.total_mispredicts(), serial.total_mispredicts());
        assert_eq!(par.reports.len(), 40);
        // Order is preserved.
        for (a, b) in par.reports.iter().zip(&serial.reports) {
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.mispredicts, b.mispredicts);
        }
    }

    #[test]
    fn cached_run_dedupes_and_matches() {
        let ctx = ExpContext::with_options(
            Scale::Tiny,
            ExpOptions { threads: Some(2), ..Default::default() },
        );
        let gshare = PredictorSpec::parse("gshare:12").unwrap();
        let a = ctx.run_spec(&gshare, UpdateScenario::FetchOnly);
        let b = ctx.run_spec(&gshare, UpdateScenario::FetchOnly);
        assert_eq!(a.reports, b.reports);
        let s = ctx.scheduler_stats();
        assert_eq!(s.sim_jobs_run, 40);
        assert_eq!(s.sim_jobs_requested, 80);
        assert_eq!(s.suite_memo_hits, 1);
    }

    #[test]
    fn stream_mode_matches_materialized_bit_for_bit() {
        let opts = |stream| ExpOptions { threads: Some(2), stream, ..Default::default() };
        let materialized = ExpContext::with_options(Scale::Tiny, opts(false));
        let streamed = ExpContext::with_options(Scale::Tiny, opts(true));
        assert!(streamed.streaming());
        assert!(streamed.materialized().is_none());
        assert_eq!(streamed.trace_count(), 40);
        let a = materialized.run(|| baselines::Gshare::new(12), UpdateScenario::RereadAtRetire);
        let b = streamed.run(|| baselines::Gshare::new(12), UpdateScenario::RereadAtRetire);
        assert_eq!(a.reports, b.reports, "stream mode must be bit-identical");
        let gshare = PredictorSpec::parse("gshare:12").unwrap();
        let ac = materialized.run_spec(&gshare, UpdateScenario::FetchOnly);
        let bc = streamed.run_spec(&gshare, UpdateScenario::FetchOnly);
        assert_eq!(ac.reports, bc.reports);
    }

    #[test]
    fn run_spec_matches_direct_run_through_prefetch() {
        let ctx = ExpContext::with_options(
            Scale::Tiny,
            ExpOptions { threads: Some(2), ..Default::default() },
        );
        let spec = PredictorSpec::parse("tage+ium").unwrap();
        ctx.prefetch_spec(&spec, UpdateScenario::RereadAtRetire);
        let via_spec = ctx.run_spec(&spec, UpdateScenario::RereadAtRetire);
        let direct = ctx.run(tage::TageSystem::tage_ium, UpdateScenario::RereadAtRetire);
        assert_eq!(via_spec.reports.len(), 40);
        assert_eq!(via_spec.reports, direct.reports, "spec route must be bit-identical");
        // The prefetch ran the suite once; the run_spec consumed it.
        assert_eq!(ctx.scheduler_stats().sim_jobs_run, 80); // spec suite + direct run
    }

    #[test]
    fn stream_mode_stats_and_sources_match() {
        let opts = |stream| ExpOptions { threads: Some(2), stream, ..Default::default() };
        let materialized = ExpContext::with_options(Scale::Tiny, opts(false));
        let streamed = ExpContext::with_options(Scale::Tiny, opts(true));
        assert_eq!(materialized.trace_stats(), streamed.trace_stats());
        let a = materialized.source_at(3).collect_trace();
        let b = streamed.source_at(3).collect_trace();
        assert_eq!(a, b);
    }
}
