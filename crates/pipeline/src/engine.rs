//! The in-flight window engine: delayed execute/retire and the §4.1.2
//! update scenarios.
//!
//! Every conditional branch is predicted at fetch, extends the speculative
//! history immediately (exact on the correct path, §5.1), *executes* after
//! its resolution lag (when the IUM learns its outcome) and *retires* — in
//! program order — `retire_lag` branches later, at which point the
//! predictor tables are updated according to the chosen scenario.

use crate::core_model::CoreModel;
use crate::report::{BranchProfile, BranchStat, SimReport};
use simkit::predictor::{Predictor, UpdateScenario};
use std::collections::{HashMap, VecDeque};
use workloads::event::{EventBlock, EventSource, Trace, TraceEvent, TraceStream};

/// Default block size of [`ChunkDriver`]. Big enough to amortize the
/// per-block virtual calls to nothing, small enough that the reusable
/// [`EventBlock`] stays cache-resident (~160 KiB of events).
pub const DEFAULT_BATCH: usize = 4096;

/// Largest block size [`ChunkDriver`] allocates for (larger requests are
/// clamped) and the bound [`parse_batch`] enforces on untrusted input.
pub const MAX_BATCH: usize = 1 << 16;

/// Parses a `--batch` value: `auto` ([`DEFAULT_BATCH`]) or a block size
/// in `1..=MAX_BATCH`. Results never depend on the block size; it only
/// trades dispatch overhead against buffer size.
///
/// # Errors
///
/// A usage message for anything else, `0` included.
pub fn parse_batch(v: &str) -> Result<usize, String> {
    if v == "auto" {
        return Ok(DEFAULT_BATCH);
    }
    match v.parse::<usize>() {
        Ok(n) if (1..=MAX_BATCH).contains(&n) => Ok(n),
        _ => Err(format!("--batch expects 'auto' or a block size in 1..={MAX_BATCH} (got '{v}')")),
    }
}

/// Skip/warmup/measure windows over the event stream (sampled
/// simulation). Positions count *trace events* — conditional or not —
/// matching [`EventSource::skip`] units and the `.ttr3` per-block event
/// counts, so a data-path seek and a window skip agree on where event N
/// is.
///
/// * the first `skip` events are fast-forwarded: the predictor is never
///   touched and no counter moves;
/// * the next `warmup` events train the predictor (the full
///   predict/update path through the in-flight window) but score
///   nothing — [`AccessStats`](simkit::stats::AccessStats) still
///   observes their table traffic;
/// * the next `measure` events train *and* count; everything after is
///   fast-forwarded again ([`ChunkDriver`] stops pulling events once the
///   window is spent).
///
/// The default (`skip = 0`, `warmup = 0`, `measure = u64::MAX`) runs the
/// identical arithmetic path as the unwindowed engine, so its reports are
/// bit-identical to the pre-window goldens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimWindow {
    /// Events fast-forwarded before any predictor activity.
    pub skip: u64,
    /// Events that train the predictor without scoring.
    pub warmup: u64,
    /// Events that are scored (`u64::MAX` = to the end of the trace).
    pub measure: u64,
}

impl Default for SimWindow {
    fn default() -> Self {
        Self { skip: 0, warmup: 0, measure: u64::MAX }
    }
}

impl SimWindow {
    /// First measured event position (`skip + warmup`, saturating).
    pub fn measure_start(&self) -> u64 {
        self.skip.saturating_add(self.warmup)
    }

    /// One past the last measured event position (saturating).
    pub fn end(&self) -> u64 {
        self.measure_start().saturating_add(self.measure)
    }

    /// Whether this is the default full-trace window.
    pub fn is_full(&self) -> bool {
        *self == Self::default()
    }
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Branches fetched between a branch's fetch and its in-order retire.
    pub retire_lag: usize,
    /// Core timing model (execute lags, penalties, caches).
    pub core: CoreModel,
    /// Collect per-static-branch counters ([`BranchProfile`]) during
    /// simulation. Off by default: the collector never perturbs prediction
    /// (it only observes outcomes already computed), so reports with it on
    /// match the aggregate counters of reports with it off bit-for-bit.
    pub branch_stats: bool,
    /// Skip/warmup/measure windowing over the event stream. The default
    /// measures every event.
    pub window: SimWindow,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            retire_lag: 32,
            core: CoreModel::default(),
            branch_stats: false,
            window: SimWindow::default(),
        }
    }
}

impl PipelineConfig {
    /// Collapses the configuration to a fingerprint for suite-memoization
    /// keys. Every struct on the path is destructured exhaustively, so
    /// adding a configuration field fails this compile until the field is
    /// mixed into the key (or explicitly classified as runtime state) —
    /// two configs differing in any knob can never silently share a memo
    /// entry.
    pub fn fingerprint(&self) -> u64 {
        let Self { retire_lag, core, branch_stats, window } = self;
        let CoreModel { memory, refill_penalty, min_exec_lag } = core;
        let SimWindow { skip, warmup, measure } = window;
        let mut h = 0xCBF29CE484222325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001B3);
        };
        mix(*retire_lag as u64);
        // branch_stats cannot change any aggregate counter, but a memoized
        // report without a profile must not satisfy a request with one.
        mix(*branch_stats as u64);
        mix(*refill_penalty);
        mix(*min_exec_lag as u64);
        for w in memory.config_words() {
            mix(w);
        }
        // Window bounds change every counter, so a windowed report can
        // never alias a full-run memo entry (or another window's).
        mix(*skip);
        mix(*warmup);
        mix(*measure);
        h
    }
}

struct Inflight<F> {
    branch: simkit::BranchInfo,
    outcome: bool,
    predicted: bool,
    flight: F,
    retire_at: usize,
    executed: bool,
}

/// The in-flight window plus the accumulated counters of one simulation,
/// advanced one event at a time by [`WindowState::step`].
struct WindowState<F> {
    // INVARIANT: `base` is the sequence number of `window.front()`;
    // `pending_exec` holds `(exec_at, seq)` of the not-yet-executed window
    // entries in program order, and `next_exec` is a lower bound on their
    // `exec_at`s (`usize::MAX` when none is pending) — `step` maintains all
    // three with every push/pop. A retiring entry has always executed
    // (`retire_at > exec_at`), so retirement never touches the list.
    window: VecDeque<Inflight<F>>,
    pending_exec: Vec<(usize, usize)>,
    next_exec: usize,
    base: usize,
    fetch_index: usize,
    core: CoreModel,
    retire_lag: usize,
    scenario: UpdateScenario,
    immediate: bool,
    mispredicts: u64,
    penalty: u64,
    uops: u64,
    conditionals: u64,
    // Sampled-simulation bounds (`PipelineConfig::window`), precomputed
    // as absolute event positions: [0, skip_end) is fast-forwarded,
    // [skip_end, measure_start) trains without counting,
    // [measure_start, window_end) trains and counts.
    position: u64,
    skip_end: u64,
    measure_start: u64,
    window_end: u64,
    // Opt-in per-static-branch accumulators (`PipelineConfig::branch_stats`).
    // `None` on the default path, so the only cost when off is one branch
    // per conditional; collection reads only values `step` already
    // computed, so it can never perturb prediction.
    profile: Option<HashMap<u64, BranchStat>>,
}

impl<F> WindowState<F> {
    fn new(scenario: UpdateScenario, cfg: &PipelineConfig) -> Self {
        Self {
            window: VecDeque::with_capacity(cfg.retire_lag + 64),
            pending_exec: Vec::new(),
            next_exec: usize::MAX,
            base: 0,
            fetch_index: 0,
            core: cfg.core.clone(),
            retire_lag: cfg.retire_lag,
            scenario,
            immediate: scenario == UpdateScenario::Immediate,
            mispredicts: 0,
            penalty: 0,
            uops: 0,
            conditionals: 0,
            position: 0,
            skip_end: cfg.window.skip,
            measure_start: cfg.window.measure_start(),
            window_end: cfg.window.end(),
            profile: cfg.branch_stats.then(HashMap::new),
        }
    }

    /// Whether the measurement window is spent: every further event would
    /// be fast-forwarded, so drivers may stop pulling from the source.
    /// Never true for the default full-trace window.
    fn complete(&self) -> bool {
        self.position >= self.window_end
    }

    /// Advances the simulation by exactly one trace event. This is *the*
    /// per-event body: whatever the block size, a run performs the
    /// identical predict/execute/retire call sequence against the
    /// predictor.
    #[inline]
    fn step<P: Predictor<Flight = F>>(&mut self, predictor: &mut P, ev: &TraceEvent) {
        // Window gating. The default full-trace window resolves to
        // `measuring = true` on every event, taking the identical
        // arithmetic path as the pre-window engine (golden bit-identity).
        let pos = self.position;
        self.position += 1;
        if pos < self.skip_end || pos >= self.window_end {
            // Fast-forward: skipped events never touch the predictor, the
            // core model, or any counter — exactly as if the source had
            // been cut before/after them.
            return;
        }
        let measuring = pos >= self.measure_start;
        if measuring {
            self.uops += ev.uops();
        }
        let b = ev.branch_info();
        if !b.kind.is_conditional() {
            // Non-conditional events do not occupy a fetch slot:
            // `fetch_index` counts conditionals only.
            predictor.note_uncond(&b);
            return;
        }
        if measuring {
            self.conditionals += 1;
        }
        let (pred, mut flight) = predictor.predict(&b);
        let (resolution, exec_lag) = self.core.resolve(ev.load_addr);
        let mut event_penalty = 0;
        if pred != ev.taken && measuring {
            self.mispredicts += 1;
            event_penalty = self.core.mispredict_penalty(resolution);
            self.penalty += event_penalty;
        }
        if measuring {
            if let Some(profile) = &mut self.profile {
                let stat = profile.entry(b.pc).or_insert_with(|| BranchStat::new(b.pc));
                stat.executions += 1;
                stat.taken += ev.taken as u64;
                stat.mispredicts += (pred != ev.taken) as u64;
                stat.penalty_cycles += event_penalty;
            }
        }
        predictor.fetch_commit(&b, ev.taken, &mut flight);

        if self.immediate {
            predictor.execute(&b, ev.taken, &mut flight);
            predictor.retire(&b, ev.taken, pred, flight, self.scenario);
        } else {
            let exec_at = self.fetch_index + exec_lag;
            self.pending_exec.push((exec_at, self.base + self.window.len()));
            self.next_exec = self.next_exec.min(exec_at);
            self.window.push_back(Inflight {
                branch: b,
                outcome: ev.taken,
                predicted: pred,
                flight,
                retire_at: self.fetch_index + self.retire_lag.max(exec_lag + 1),
                executed: false,
            });
            // Execute every branch whose resolution completed, in program
            // order. The list is only walked once its earliest entry is due.
            if self.next_exec <= self.fetch_index {
                let (fetch_index, base) = (self.fetch_index, self.base);
                let window = &mut self.window;
                let mut next_exec = usize::MAX;
                self.pending_exec.retain(|&(exec_at, seq)| {
                    if exec_at > fetch_index {
                        next_exec = next_exec.min(exec_at);
                        return true;
                    }
                    let inflight = &mut window[seq - base];
                    predictor.execute(&inflight.branch, inflight.outcome, &mut inflight.flight);
                    inflight.executed = true;
                    false
                });
                self.next_exec = next_exec;
            }
            // Retire in order.
            while self.window.front().is_some_and(|f| f.retire_at <= self.fetch_index) {
                // INVARIANT: the loop condition just witnessed a front.
                let f = self.window.pop_front().unwrap();
                debug_assert!(f.executed, "retiring before execute");
                self.base += 1;
                predictor.retire(&f.branch, f.outcome, f.predicted, f.flight, self.scenario);
            }
        }
        self.fetch_index += 1;
    }

    /// Drains the window at trace end (`base`, `pending_exec` and
    /// `next_exec` no longer need maintaining: nothing indexes the window
    /// after this).
    fn drain<P: Predictor<Flight = F>>(&mut self, predictor: &mut P) {
        while let Some(mut f) = self.window.pop_front() {
            if !f.executed {
                predictor.execute(&f.branch, f.outcome, &mut f.flight);
            }
            predictor.retire(&f.branch, f.outcome, f.predicted, f.flight, self.scenario);
        }
    }

    fn report<P: Predictor<Flight = F>>(
        &self,
        predictor: &P,
        name: &str,
        category: &str,
    ) -> SimReport {
        SimReport {
            trace: name.to_string(),
            category: category.to_string(),
            predictor: predictor.name(),
            scenario: self.scenario,
            uops: self.uops,
            conditionals: self.conditionals,
            mispredicts: self.mispredicts,
            penalty_cycles: self.penalty,
            stats: predictor.stats(),
            branches: self.profile.as_ref().map(BranchProfile::from_map),
        }
    }
}

/// Simulates one predictor over one trace under one update scenario.
///
/// Thin wrapper over [`simulate_source`] streaming the materialized trace.
pub fn simulate<P: Predictor>(
    predictor: &mut P,
    trace: &Trace,
    scenario: UpdateScenario,
    cfg: &PipelineConfig,
) -> SimReport {
    simulate_source(predictor, &mut TraceStream::new(trace), scenario, cfg)
}

/// Simulates one predictor over any [`EventSource`] under one update
/// scenario: a [`WindowEngine`] borrowing `predictor`, run to the end by
/// a [`ChunkDriver`] at [`DEFAULT_BATCH`]. Memory use is bounded by the
/// in-flight window and one event block, not the trace length, so
/// arbitrarily long streamed traces are feasible.
///
/// Under [`UpdateScenario::Immediate`] the window is bypassed entirely
/// (oracle fetch-time update); the other scenarios run the full in-flight
/// window.
pub fn simulate_source<P: Predictor, S: EventSource>(
    predictor: &mut P,
    source: &mut S,
    scenario: UpdateScenario,
    cfg: &PipelineConfig,
) -> SimReport {
    let mut engine = WindowEngine::new(predictor, scenario, cfg);
    ChunkDriver::new(DEFAULT_BATCH).run(&mut engine, source)
}

/// An object-safe whole-window simulation engine: predictor, in-flight
/// window, and counters behind one vtable, driven a *block* of events at a
/// time by [`ChunkDriver`].
///
/// [`WindowEngine`] monomorphizes the entire hot loop over the concrete
/// predictor (typed flights, inlined table access) and erases *outside*
/// the loop — one virtual [`run_block`](BlockSim::run_block) call per
/// [`EventBlock`] — so runtime-selected predictors cost no per-branch
/// dynamic dispatch.
pub trait BlockSim {
    /// The composed predictor's display name (for reports).
    fn predictor_name(&self) -> String;

    /// Total predictor storage in bits (see [`Predictor::storage_bits`]).
    fn storage_bits(&self) -> u64;

    /// Feeds `events` through the window in order.
    fn run_block(&mut self, events: &[TraceEvent]);

    /// Whether the engine's measurement window is spent — further blocks
    /// would be fast-forwarded without effect, so the driver may stop
    /// pulling events. Default: never (full-trace simulation).
    fn done(&self) -> bool {
        false
    }

    /// Drains the in-flight window and assembles the final report. The
    /// engine is spent afterwards; build a fresh one per simulation.
    fn finish(&mut self, trace: &str, category: &str) -> SimReport;
}

/// The concrete [`BlockSim`] implementation: a predictor plus its
/// [`WindowState`], monomorphized together. `P` may be a borrow
/// (`&mut P`), which is how [`simulate_source`] leaves the predictor with
/// its caller.
pub struct WindowEngine<P: Predictor> {
    predictor: P,
    state: WindowState<P::Flight>,
}

impl<P: Predictor> WindowEngine<P> {
    /// A fresh engine (stats reset, empty window) for one simulation.
    pub fn new(predictor: P, scenario: UpdateScenario, cfg: &PipelineConfig) -> Self {
        let mut predictor = predictor;
        predictor.reset_stats();
        Self { predictor, state: WindowState::new(scenario, cfg) }
    }
}

impl<P: Predictor> BlockSim for WindowEngine<P> {
    fn predictor_name(&self) -> String {
        self.predictor.name()
    }

    fn storage_bits(&self) -> u64 {
        self.predictor.storage_bits()
    }

    fn run_block(&mut self, events: &[TraceEvent]) {
        for ev in events {
            self.state.step(&mut self.predictor, ev);
        }
    }

    fn done(&self) -> bool {
        self.state.complete()
    }

    fn finish(&mut self, trace: &str, category: &str) -> SimReport {
        self.state.drain(&mut self.predictor);
        self.state.report(&self.predictor, trace, category)
    }
}

/// The one loop that feeds events to a predictor: whole [`EventBlock`]s
/// of `batch` events pulled from a source and handed to a [`BlockSim`],
/// until the stream ends or the engine's measurement window is spent.
///
/// [`ChunkDriver::run`] goes to the end in one call. [`ChunkDriver::run_chunk`]
/// stops after a caller-bounded number of blocks so the caller can
/// interleave other work (the prediction server emits a `Stats` frame
/// between chunks). Chunking never changes block boundaries, pull order
/// or the stop condition, and the per-event window step is the same at
/// every block size, so the report is the same for any `batch` and any
/// chunking (pinned against a scalar oracle by test).
pub struct ChunkDriver {
    block: EventBlock,
    batch: usize,
    events_fed: u64,
    done: bool,
}

impl ChunkDriver {
    /// A fresh driver pulling blocks of `batch` events (clamped to
    /// `1..=MAX_BATCH`).
    pub fn new(batch: usize) -> Self {
        let batch = batch.clamp(1, MAX_BATCH);
        Self { block: EventBlock::with_capacity(batch), batch, events_fed: 0, done: false }
    }

    /// The clamped block size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Total events fed to the engine so far.
    pub fn events_fed(&self) -> u64 {
        self.events_fed
    }

    /// Whether the run is over: the source ended or the engine's
    /// measurement window is spent. Further chunks feed nothing.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Feeds up to `max_blocks` blocks (clamped to ≥ 1) from `source`
    /// into `engine`, returning the events fed by this chunk (0 once
    /// [`ChunkDriver::is_done`]).
    pub fn run_chunk<E: BlockSim + ?Sized, S: EventSource>(
        &mut self,
        engine: &mut E,
        source: &mut S,
        max_blocks: usize,
    ) -> u64 {
        if self.done {
            return 0;
        }
        let mut fed = 0u64;
        for _ in 0..max_blocks.max(1) {
            let n = source.next_block(&mut self.block, self.batch);
            if n == 0 {
                self.done = true;
                break;
            }
            engine.run_block(&self.block.events);
            fed += n as u64;
            if engine.done() {
                self.done = true;
                break;
            }
        }
        self.events_fed += fed;
        fed
    }

    /// Feeds `source` into `engine` to the end and returns the report.
    pub fn run<E: BlockSim + ?Sized, S: EventSource>(
        mut self,
        engine: &mut E,
        source: &mut S,
    ) -> SimReport {
        self.run_chunk(engine, source, usize::MAX);
        self.finish(engine, source)
    }

    /// Drains the window and assembles the final report. The engine is
    /// spent afterwards.
    pub fn finish<E: BlockSim + ?Sized, S: EventSource>(
        self,
        engine: &mut E,
        source: &S,
    ) -> SimReport {
        engine.finish(source.name(), source.category())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{Bimodal, Gshare};
    use workloads::suite::{by_name, Scale};

    fn tiny(name: &str) -> Trace {
        by_name(name, Scale::Tiny).unwrap().generate()
    }

    /// The scalar reference loop: one `next_event` per step, no blocks,
    /// no engine. [`ChunkDriver`] must reproduce it bit for bit.
    fn scalar_oracle<P: Predictor, S: EventSource>(
        predictor: &mut P,
        source: &mut S,
        scenario: UpdateScenario,
        cfg: &PipelineConfig,
    ) -> SimReport {
        predictor.reset_stats();
        let mut st = WindowState::new(scenario, cfg);
        while let Some(ev) = source.next_event() {
            st.step(predictor, &ev);
            if st.complete() {
                break;
            }
        }
        st.drain(predictor);
        st.report(predictor, source.name(), source.category())
    }

    #[test]
    fn counts_are_consistent() {
        let t = tiny("CLIENT01");
        let mut p = Gshare::new(12);
        let r = simulate(&mut p, &t, UpdateScenario::RereadAtRetire, &PipelineConfig::default());
        assert_eq!(r.conditionals, t.conditional_count());
        assert_eq!(r.uops, t.total_uops());
        assert!(r.mispredicts <= r.conditionals);
        assert!(r.penalty_cycles >= r.mispredicts * 25);
        // One predict read per conditional.
        assert_eq!(r.stats.predict_reads, r.conditionals);
    }

    #[test]
    fn immediate_beats_delayed_scenarios_on_aggregate() {
        // Pointwise per-trace inversions are possible (stale updates can
        // act as accidental hysteresis); the §4.1.2 ordering is an
        // aggregate claim — assert it over several traces.
        let traces: Vec<Trace> =
            ["CLIENT04", "CLIENT06", "MM04", "WS06"].iter().map(|n| tiny(n)).collect();
        let run = |s| -> u64 {
            traces
                .iter()
                .map(|t| {
                    simulate(&mut Gshare::new(12), t, s, &PipelineConfig::default()).mispredicts
                })
                .sum()
        };
        let i = run(UpdateScenario::Immediate);
        let a = run(UpdateScenario::RereadAtRetire);
        let b = run(UpdateScenario::FetchOnly);
        let c = run(UpdateScenario::RereadOnMispredict);
        // [I] vs [A] can invert slightly on small noisy subsets (stale
        // updates act as a slower, sometimes beneficial learning rate);
        // the strict suite-wide ordering is asserted in the workspace
        // integration tests. Allow 5% here.
        assert!(i <= a + a / 20, "[I] {i} should not exceed [A] {a} by >5%");
        assert!(a <= b, "[A] {a} should not exceed [B] {b}");
        assert!(c <= b, "[C] {c} should not exceed [B] {b}");
    }

    #[test]
    fn retire_reads_only_on_mispredicts_under_c() {
        let t = tiny("WS01");
        let mut p = Bimodal::new(4096, 2);
        let r = simulate(&mut p, &t, UpdateScenario::RereadOnMispredict, &PipelineConfig::default());
        assert_eq!(r.stats.retire_reads, r.mispredicts);
        let mut p2 = Bimodal::new(4096, 2);
        let r2 = simulate(&mut p2, &t, UpdateScenario::RereadAtRetire, &PipelineConfig::default());
        assert_eq!(r2.stats.retire_reads, r2.conditionals);
    }

    #[test]
    fn streamed_source_matches_materialized_bit_for_bit() {
        // The same spec driven as a lazy ProgramStream and as a
        // materialized trace must produce identical SimReports, for every
        // scenario (the §4.1.2 window behaviours all exercise the
        // in-flight bookkeeping differently).
        let spec = by_name("INT02", Scale::Tiny).unwrap();
        let trace = spec.generate();
        let cfg = PipelineConfig::default();
        for scenario in UpdateScenario::ALL {
            let materialized = simulate(&mut Gshare::new(12), &trace, scenario, &cfg);
            let streamed =
                simulate_source(&mut Gshare::new(12), &mut spec.stream(), scenario, &cfg);
            assert_eq!(streamed, materialized, "scenario {scenario} diverged");
        }
    }

    #[test]
    fn streamed_source_matches_for_stateful_predictor() {
        // TAGE-LSC exercises IUM execute ordering; a load-heavy hard trace
        // exercises variable execute lags through the pending-execute
        // queue.
        let spec = by_name("MM05", Scale::Tiny).unwrap();
        let trace = spec.generate();
        let cfg = PipelineConfig::default();
        let materialized = simulate(
            &mut tage::TageSystem::tage_lsc(),
            &trace,
            UpdateScenario::RereadOnMispredict,
            &cfg,
        );
        let streamed = simulate_source(
            &mut tage::TageSystem::tage_lsc(),
            &mut spec.stream(),
            UpdateScenario::RereadOnMispredict,
            &cfg,
        );
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn boxed_dyn_source_matches_concrete_source() {
        // Foreign-format decoders arrive as `Box<dyn EventSource>`; the
        // engine must produce identical reports through the boxed path.
        let spec = by_name("CLIENT03", Scale::Tiny).unwrap();
        let cfg = PipelineConfig::default();
        let concrete =
            simulate_source(&mut Gshare::new(12), &mut spec.stream(), UpdateScenario::FetchOnly, &cfg);
        let mut boxed: Box<dyn EventSource + Send> = Box::new(spec.stream());
        let via_box =
            simulate_source(&mut Gshare::new(12), &mut boxed, UpdateScenario::FetchOnly, &cfg);
        assert_eq!(via_box, concrete);
    }

    #[test]
    fn chunk_driver_matches_the_scalar_oracle() {
        // The one driver against the scalar reference loop, for every
        // §4.1.2 scenario, at block sizes 1 (the scalar order), 7 (smaller
        // than the retire lag, so blocks straddle window boundaries), the
        // default and the largest (one block for the whole trace), at
        // several chunk sizes, under the full window, a
        // partial one, and with the per-branch profile on. MM05 is
        // load-heavy (variable execute lags through the pending-execute
        // queue); ISL-TAGE carries order-sensitive IUM/loop/SC state.
        let spec = by_name("MM05", Scale::Tiny).unwrap();
        let configs = [
            PipelineConfig::default(),
            PipelineConfig {
                window: SimWindow { skip: 300, warmup: 200, measure: 1500 },
                ..PipelineConfig::default()
            },
            PipelineConfig { branch_stats: true, ..PipelineConfig::default() },
        ];
        for cfg in &configs {
            for scenario in UpdateScenario::ALL {
                let want = scalar_oracle(
                    &mut tage::TageSystem::isl_tage(),
                    &mut spec.stream(),
                    scenario,
                    cfg,
                );
                for batch in [1usize, 7, DEFAULT_BATCH, MAX_BATCH] {
                    for max_blocks in [1usize, 3, usize::MAX] {
                        let isl_tage = tage::TageSystem::isl_tage();
                        let mut engine: Box<dyn BlockSim> =
                            Box::new(WindowEngine::new(isl_tage, scenario, cfg));
                        assert_eq!(engine.predictor_name(), want.predictor);
                        let mut src = spec.stream();
                        let mut driver = ChunkDriver::new(batch);
                        let mut fed = 0u64;
                        while !driver.is_done() {
                            fed += driver.run_chunk(&mut *engine, &mut src, max_blocks);
                        }
                        assert_eq!(fed, driver.events_fed());
                        assert_eq!(
                            driver.finish(&mut *engine, &src),
                            want,
                            "batch {batch}, max_blocks {max_blocks}, {:?}: {scenario} diverged",
                            cfg.window
                        );
                    }
                }
                let mut p = Gshare::new(12);
                let want = scalar_oracle(&mut p, &mut spec.stream(), scenario, cfg);
                let got = simulate_source(&mut Gshare::new(12), &mut spec.stream(), scenario, cfg);
                assert_eq!(got, want, "simulate_source diverged under {scenario}");
            }
        }
    }

    #[test]
    fn chunk_driver_stops_when_the_window_is_spent() {
        // A spent measurement window ends the run at the next block
        // boundary, not at stream end.
        let spec = by_name("MM05", Scale::Tiny).unwrap();
        let cfg = PipelineConfig {
            window: SimWindow { skip: 0, warmup: 100, measure: 500 },
            ..PipelineConfig::default()
        };
        let mut engine = WindowEngine::new(Gshare::new(12), UpdateScenario::FetchOnly, &cfg);
        let mut src = spec.stream();
        let mut driver = ChunkDriver::new(64);
        while !driver.is_done() {
            driver.run_chunk(&mut engine, &mut src, 2);
        }
        assert_eq!(driver.events_fed(), 640, "stopped at the first block past the window");
        assert!(driver.events_fed() < spec.generate().events.len() as u64);
    }

    #[test]
    fn batch_is_bounded() {
        assert_eq!(ChunkDriver::new(0).batch(), 1);
        assert_eq!(ChunkDriver::new(usize::MAX).batch(), MAX_BATCH);
        assert_eq!(parse_batch("auto"), Ok(DEFAULT_BATCH));
        assert_eq!(parse_batch("1"), Ok(1));
        assert_eq!(parse_batch(&MAX_BATCH.to_string()), Ok(MAX_BATCH));
        for bad in ["0", "", "-1", "x", "18446744073709551615", &(MAX_BATCH + 1).to_string()] {
            assert!(parse_batch(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn branch_profile_sums_to_aggregate_and_is_free_when_off() {
        // Per-branch counters partition the aggregate exactly under every
        // §4.1.2 scenario (each exercises the window bookkeeping
        // differently), and switching collection on leaves every
        // aggregate counter untouched.
        let spec = by_name("INT02", Scale::Tiny).unwrap();
        let off = PipelineConfig::default();
        let on = PipelineConfig { branch_stats: true, ..PipelineConfig::default() };
        assert_ne!(off.fingerprint(), on.fingerprint());
        for scenario in UpdateScenario::ALL {
            let run = |cfg| {
                let mut isl_tage = tage::TageSystem::isl_tage();
                simulate_source(&mut isl_tage, &mut spec.stream(), scenario, cfg)
            };
            let r = run(&on);
            let p = r.branches.as_ref().expect("branch_stats=true attaches a profile");
            assert_eq!(p.total_executions(), r.conditionals, "executions diverged under {scenario}");
            assert_eq!(p.total_mispredicts(), r.mispredicts, "mispredicts diverged under {scenario}");
            assert_eq!(
                p.total_penalty_cycles(),
                r.penalty_cycles,
                "penalty diverged under {scenario}"
            );
            assert!(p.total_taken() <= p.total_executions());
            assert!(!p.branches.is_empty());
            // Sorted ascending by PC (deterministic serialization order).
            assert!(p.branches.windows(2).all(|w| w[0].pc < w[1].pc));
            let plain = run(&off);
            assert!(plain.branches.is_none());
            assert_eq!(SimReport { branches: None, ..r }, plain, "collection perturbed {scenario}");
        }
    }

    #[test]
    fn deterministic_simulation() {
        let t = tiny("INT03");
        let run = || {
            let mut p = Gshare::new(12);
            simulate(&mut p, &t, UpdateScenario::RereadAtRetire, &PipelineConfig::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a.mispredicts, b.mispredicts);
        assert_eq!(a.penalty_cycles, b.penalty_cycles);
    }

    #[test]
    fn hard_traces_have_higher_penalty_per_mispredict() {
        let easy = tiny("MM01");
        let hard = tiny("INT02");
        let run = |t: &Trace| {
            let mut p = Gshare::new(14);
            let r = simulate(&mut p, t, UpdateScenario::RereadAtRetire, &PipelineConfig::default());
            r.penalty_cycles as f64 / r.mispredicts.max(1) as f64
        };
        assert!(
            run(&hard) > run(&easy),
            "cold-data traces should pay more per misprediction"
        );
    }
}
