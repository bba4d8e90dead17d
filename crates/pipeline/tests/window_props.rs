//! Property tests for skip/warmup/measure windowing: the window must be
//! pure *accounting* over the same per-event arithmetic, never a second
//! simulation path. Three equivalences pin that:
//!
//! * under `Immediate` update, a `{skip: 0, warmup: w, measure: m}` run
//!   reproduces the full run's measure-region counters exactly, as the
//!   difference of two measured prefixes;
//! * the default window (and an explicit `{0, 0, len}` one) is
//!   bit-identical to the unwindowed engine under *every* scenario;
//! * skipping via the window and skipping via [`EventSource::skip`] land
//!   on the same stream position, so a data-path seek (the `.ttr3` index)
//!   and a window skip are interchangeable.
//!
//! Each windowed run goes through [`ChunkDriver`] at a drawn block size
//! and chunk length, so every equivalence also holds across batching.

use pipeline::{
    simulate, simulate_source, ChunkDriver, CoreModel, PipelineConfig, SimWindow, WindowEngine,
};
use proptest::collection::vec;
use proptest::prelude::*;
use simkit::predictor::{BranchInfo, BranchKind, Predictor, UpdateScenario};
use simkit::stats::AccessStats;
use workloads::event::{EventSource, Trace, TraceEvent, TraceStream};

const ALL_SCENARIOS: [UpdateScenario; 4] = [
    UpdateScenario::Immediate,
    UpdateScenario::RereadAtRetire,
    UpdateScenario::FetchOnly,
    UpdateScenario::RereadOnMispredict,
];

type RawEvent = ((u64, u8, bool), (u16, u64));

/// Small-footprint event streams: a handful of static branches so the
/// predictor actually learns (and mispredict counts move when the
/// window does), with occasional unconditional and load-carrying events
/// to exercise the non-predicted and penalty paths.
fn event_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    vec(((0u64..64, 0u8..8, any::<bool>()), (0u16..16, 0u64..4)), 1usize..250)
}

fn trace_of(raw: Vec<RawEvent>) -> Trace {
    let events = raw
        .into_iter()
        .map(|((slot, kind, taken), (uops, load))| {
            let pc = 0x1000 + slot * 4;
            let kind = match kind {
                0 => BranchKind::DirectJump,
                1 => BranchKind::Return,
                _ => BranchKind::Conditional,
            };
            TraceEvent {
                pc,
                kind,
                taken: taken || kind != BranchKind::Conditional,
                target: pc.wrapping_add(if taken { 0x40 } else { 8 }),
                uops_before: uops,
                load_addr: (load != 0).then(|| 0x10_0000 + load * 0x40),
            }
        })
        .collect();
    Trace { name: "PROP01".into(), category: "PROP".into(), events }
}

fn windowed(window: SimWindow) -> PipelineConfig {
    PipelineConfig { window, ..PipelineConfig::default() }
}

fn run(t: &Trace, scenario: UpdateScenario, cfg: &PipelineConfig) -> pipeline::SimReport {
    simulate(&mut baselines::Gshare::cbp_512k(), t, scenario, cfg)
}

/// [`run`] through a [`ChunkDriver`] of `batch`-event blocks, fed
/// `max_blocks` blocks per chunk.
fn run_chunked(
    t: &Trace,
    scenario: UpdateScenario,
    cfg: &PipelineConfig,
    (batch, max_blocks): (usize, usize),
) -> pipeline::SimReport {
    let mut engine = WindowEngine::new(baselines::Gshare::cbp_512k(), scenario, cfg);
    let mut src = TraceStream::new(t);
    let mut driver = ChunkDriver::new(batch);
    while !driver.is_done() {
        driver.run_chunk(&mut engine, &mut src, max_blocks);
    }
    driver.finish(&mut engine, &src)
}

/// A predictor that only records the engine's calls: its flight is the
/// branch's fetch index, and each execute/retire is logged with the
/// number of predictions made so far (`fetch_index + 1` inside a step).
#[derive(Default)]
struct Recorder {
    predicts: usize,
    /// `(is_execute, branch, predicts)` in call order.
    log: Vec<(bool, usize, usize)>,
}

impl Predictor for Recorder {
    type Flight = usize;

    fn name(&self) -> String {
        "recorder".into()
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn predict(&mut self, _b: &BranchInfo) -> (bool, usize) {
        self.predicts += 1;
        (false, self.predicts - 1)
    }

    fn fetch_commit(&mut self, _b: &BranchInfo, _outcome: bool, _flight: &mut usize) {}

    fn execute(&mut self, _b: &BranchInfo, _outcome: bool, flight: &mut usize) {
        self.log.push((true, *flight, self.predicts));
    }

    fn retire(
        &mut self,
        _b: &BranchInfo,
        _outcome: bool,
        _predicted: bool,
        flight: usize,
        _scenario: UpdateScenario,
    ) {
        self.log.push((false, flight, self.predicts));
    }

    fn stats(&self) -> AccessStats {
        AccessStats::default()
    }

    fn reset_stats(&mut self) {}
}

/// Block sizes from one event (the scalar order) past the stream
/// length, and chunks of one block to a handful.
fn chunking() -> impl Strategy<Value = (usize, usize)> {
    (1usize..300, 1usize..5)
}

proptest! {
    #[test]
    fn warmup_and_measure_partition_the_full_run_under_immediate(
        raw in event_strategy(), w in 0u64..120, m in 1u64..120, chunks in chunking(),
    ) {
        // Under `Immediate` the predictor (and cache) state at event k is
        // the same in every run, so counters are per-event values summed
        // over the measured region: a `{0, w, m}` window must equal the
        // difference of the two measured prefixes `[0, w+m)` and `[0, w)`.
        let t = trace_of(raw);
        let sc = UpdateScenario::Immediate;
        let win_cfg = windowed(SimWindow { skip: 0, warmup: w, measure: m });
        let win = run_chunked(&t, sc, &win_cfg, chunks);
        let long = run(&t, sc, &windowed(SimWindow { skip: 0, warmup: 0, measure: w + m }));
        let short = run(&t, sc, &windowed(SimWindow { skip: 0, warmup: 0, measure: w }));
        prop_assert_eq!(win.mispredicts, long.mispredicts - short.mispredicts);
        prop_assert_eq!(win.penalty_cycles, long.penalty_cycles - short.penalty_cycles);
        prop_assert_eq!(win.uops, long.uops - short.uops);
        prop_assert_eq!(win.conditionals, long.conditionals - short.conditionals);
        // Warmup events still train, so the windowed run's table traffic
        // is the *long* prefix's, not the difference.
        prop_assert_eq!(win.stats, long.stats);
    }

    #[test]
    fn zero_warmup_full_measure_is_bit_identical_under_all_scenarios(
        raw in event_strategy(), chunks in chunking(),
    ) {
        let t = trace_of(raw);
        let n = t.events.len() as u64;
        for sc in ALL_SCENARIOS {
            let full = run_chunked(&t, sc, &PipelineConfig::default(), (1, 1));
            let explicit = run_chunked(&t, sc, &windowed(SimWindow::default()), chunks);
            let exact_cfg = windowed(SimWindow { skip: 0, warmup: 0, measure: n });
            let exact = run_chunked(&t, sc, &exact_cfg, chunks);
            prop_assert_eq!(&full, &explicit, "default window drifted under {:?}", sc);
            prop_assert_eq!(&full, &exact, "measure == len drifted under {:?}", sc);
        }
    }

    #[test]
    fn window_skip_equals_source_skip(
        raw in event_strategy(), s in 0u64..150, w in 0u64..60, m in 1u64..60,
        chunks in chunking(),
    ) {
        // Fast-forwarding `s` events inside the window must equal
        // positioning the source itself `s` events in (the sampled
        // slice driver does the latter via the `.ttr3` index).
        let t = trace_of(raw);
        for sc in [UpdateScenario::Immediate, UpdateScenario::RereadAtRetire] {
            let window_cfg = windowed(SimWindow { skip: s, warmup: w, measure: m });
            let via_window = run_chunked(&t, sc, &window_cfg, chunks);
            let mut source = TraceStream::new(&t);
            let skipped = EventSource::skip(&mut source, s);
            prop_assert_eq!(skipped, s.min(t.events.len() as u64));
            let via_source = simulate_source(
                &mut baselines::Gshare::cbp_512k(),
                &mut source,
                sc,
                &windowed(SimWindow { skip: 0, warmup: w, measure: m }),
            );
            prop_assert_eq!(via_window.mispredicts, via_source.mispredicts, "{:?}", sc);
            prop_assert_eq!(via_window.penalty_cycles, via_source.penalty_cycles, "{:?}", sc);
            prop_assert_eq!(via_window.uops, via_source.uops, "{:?}", sc);
            prop_assert_eq!(via_window.conditionals, via_source.conditionals, "{:?}", sc);
            prop_assert_eq!(via_window.stats, via_source.stats, "{:?}", sc);
        }
    }

    #[test]
    fn execute_happens_once_at_its_resolution_step_in_program_order(
        raw in vec(((0u64..64, 0u8..8, any::<bool>()), (0u16..16, 0u64..100_000)), 1usize..300),
        retire_lag in 1usize..40,
    ) {
        // Loads spread over ~6 MiB hit every cache level, so execute lags
        // range from `min_exec_lag` to the memory-latency lag, and a short
        // retire lag makes some branches retire at `exec_lag + 1`.
        let t = trace_of(raw);
        let cfg = PipelineConfig { retire_lag, ..PipelineConfig::default() };
        let mut rec = Recorder::default();
        simulate(&mut rec, &t, UpdateScenario::RereadAtRetire, &cfg);

        // The resolution step of each conditional, from a fresh core.
        let mut core = CoreModel::default();
        let exec_at: Vec<usize> = t
            .events
            .iter()
            .filter(|e| e.kind.is_conditional())
            .enumerate()
            .map(|(i, e)| i + core.resolve(e.load_addr).1)
            .collect();
        let n = exec_at.len();
        prop_assert_eq!(rec.predicts, n);
        // Branches resolving past the last fetch execute while the window
        // drains at trace end, in program order, after every in-trace
        // execute.
        let mut want: Vec<usize> = (0..n).collect();
        want.sort_by_key(|&i| (exec_at[i].min(n), i));
        let got: Vec<usize> = rec.log.iter().filter(|c| c.0).map(|c| c.1).collect();
        prop_assert_eq!(&got, &want, "execute order");
        let mut executed = vec![false; n];
        for &(is_execute, i, predicts) in &rec.log {
            if is_execute {
                // The first step with `fetch_index >= exec_at`.
                prop_assert_eq!(predicts, (exec_at[i] + 1).min(n), "branch {} executed late", i);
                executed[i] = true;
            } else {
                prop_assert!(executed[i], "branch {} retired before it executed", i);
            }
        }
        let retired: Vec<usize> = rec.log.iter().filter(|c| !c.0).map(|c| c.1).collect();
        prop_assert_eq!(retired, (0..n).collect::<Vec<_>>(), "retire order");
    }
}
