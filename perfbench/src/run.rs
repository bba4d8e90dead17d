//! What every workload shares: its inputs' sizes, the correctness
//! ledger, the metric lists, and the end-to-end summary of its passes.

use crate::stats::{median, percentile};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workloads::suite::Scale;

/// Worker threads and client connections: the box the benchmark was
/// sized on has two CPUs.
pub const THREADS: usize = 2;

/// Events per engine dispatch (`tage_exp trace --batch 4096`).
pub const BATCH: usize = 4096;

/// Input sizes. [`Plan::full`] is the benchmark; [`Plan::smoke`] runs
/// the same code on inputs small enough for a debug-build test.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Scale of the `suite_small` experiments.
    pub suite_scale: Scale,
    /// Experiment ids `suite_small` renders.
    pub experiments: Vec<&'static str>,
    /// Scale of the recorded `.ttr3` set.
    pub trace_scale: Scale,
    /// Suite traces recorded in set-up.
    pub traces: Vec<String>,
    /// Served sessions per `serve_closed2` pass.
    pub sessions: usize,
    /// Sampled phases per file.
    pub phases: u64,
    /// Warmup events per slice.
    pub warmup: u64,
    /// Measured events per slice.
    pub measure: u64,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Events of each ledger trace fed to the predictor micro-measurements.
    pub ledger_prefix: usize,
    /// Repetitions of each ledger micro-measurement.
    pub ledger_reps: usize,
}

/// The two ledger traces: fewest and most static branches of the
/// stack-ladder pair the per-stage costs are split on.
pub const LEDGER_TRACES: [&str; 2] = ["INT01", "SERVER08"];

impl Plan {
    /// The benchmark's inputs.
    pub fn full() -> Plan {
        Plan {
            suite_scale: Scale::Small,
            experiments: harness::experiments::ALL_EXPERIMENTS.to_vec(),
            trace_scale: Scale::Full,
            traces: workloads::suite::suite(Scale::Tiny).into_iter().map(|s| s.name).collect(),
            sessions: 100,
            phases: 8,
            warmup: 5_000,
            measure: 10_000,
            setup_reps: 2,
            ledger_prefix: 1 << 18,
            ledger_reps: 3,
        }
    }

    /// Reduced inputs for the smoke tests.
    pub fn smoke() -> Plan {
        Plan {
            suite_scale: Scale::Tiny,
            experiments: vec!["fig3", "ium"],
            trace_scale: Scale::Tiny,
            traces: vec!["INT01".into(), "SERVER08".into(), "MM05".into()],
            sessions: 4,
            phases: 2,
            warmup: 500,
            measure: 1_000,
            setup_reps: 2,
            ledger_prefix: 4_096,
            ledger_reps: 2,
        }
    }
}

/// Everything a workload run needs from the command line.
pub struct RunCtx {
    /// Input sizes.
    pub plan: Plan,
    /// Sample jitter seed and session order seed.
    pub seed: u64,
    /// Minimum measured time of an untraced run.
    pub seconds: f64,
    /// Scratch space inside the checkout.
    pub work: PathBuf,
    /// Where the traced pass writes its spans.
    pub spans_out: PathBuf,
}

/// Correctness checks: each unit of work checked counts as attempted, each
/// failed check as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Units checked.
    pub attempted: u64,
    /// Units that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one checked unit.
    pub fn unit(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records a unit that could not run at all.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.unit(false, || what.to_string());
    }
}

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// A workload run's outputs.
#[derive(Debug, Default)]
pub struct Outputs {
    /// Correctness ledger.
    pub checks: Checks,
    /// Metrics printed in the final JSON line.
    pub metrics: Metrics,
    /// Deterministic results and diagnostics printed above it
    /// (`sim_digest`, `mppki_ref`, …).
    pub notes: Vec<(String, String)>,
    /// The traced pass's spans.
    pub spans: Vec<crate::span::Span>,
}

impl Outputs {
    /// Adds a printed result line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// One timed pass of a workload's unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Host time of the pass.
    pub wall: Duration,
    /// Conditional branches scored in the pass.
    pub conditionals: u64,
}

/// Runs `pass` until `seconds` have elapsed (at least once).
pub fn repeat_passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![pass()];
    while start.elapsed().as_secs_f64() < seconds {
        out.push(pass());
    }
    out
}

/// Runs `job(state, i)` for every `i in 0..n` on [`THREADS`] workers
/// that claim indices in order, each worker with its own `state` from
/// `init(worker)`. Returns the results in index order and the states.
pub fn fan_out<S: Send, T: Send>(
    n: usize,
    init: impl Fn(usize) -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> (Vec<T>, Vec<S>) {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let states = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|w| {
                let (slots, next, init, job) = (&slots, &next, &init, &job);
                s.spawn(move || {
                    let mut state = init(w);
                    loop {
                        // ORDERING: work-claim ticket only; results are
                        // published by the slot mutex and the scope join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return state;
                        }
                        let result = job(&mut state, i);
                        *slots[i].lock().expect("slot lock poisoned") = Some(result);
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
    });
    let results = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock poisoned").expect("every index ran"))
        .collect();
    (results, states)
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    /// Each set-up repetition's time.
    pub setup: Vec<Duration>,
    /// The untraced passes.
    pub passes: Vec<Pass>,
    /// Peak resident memory of the simulating process over the passes.
    pub peak_rss_mb: f64,
    /// Session latencies in ms; offline workloads pass the pass times
    /// (their caller's request is the whole pass).
    pub session_ms: Vec<f64>,
}

impl EndToEnd {
    /// Appends the end-to-end metrics in `BENCHMARK.json` order, and the
    /// individual pass times as a printed result.
    pub fn emit(&self, out: &mut Outputs) {
        let secs = |d: &Duration| d.as_secs_f64();
        let list: Vec<String> =
            self.passes.iter().map(|p| format!("{:.3}", secs(&p.wall))).collect();
        out.note("pass_wall_s", list.join(","));
        let m = &mut out.metrics;
        m.put("setup_s", median(&self.setup.iter().map(secs).collect::<Vec<_>>()), "s");
        let walls: Vec<f64> = self.passes.iter().map(|p| secs(&p.wall)).collect();
        m.put("wall_s", median(&walls), "s");
        let rates: Vec<f64> =
            self.passes.iter().map(|p| p.conditionals as f64 / secs(&p.wall).max(1e-9)).collect();
        m.put("cond_per_s", median(&rates), "cond/s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.put("session_p50_ms", percentile(&self.session_ms, 50.0), "ms");
        m.put("session_p90_ms", percentile(&self.session_ms, 90.0), "ms");
    }
}

/// Median of `reps` timings of `f`, in seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_plan_sessions_support_p90() {
        assert!(crate::stats::supports_percentile(Plan::full().sessions, 90.0));
    }

    #[test]
    fn full_plan_records_the_whole_suite() {
        let plan = Plan::full();
        assert_eq!(plan.traces.len(), crate::inputs::EXPECTED_FULL.len());
        for (name, (expected, _, _)) in plan.traces.iter().zip(crate::inputs::EXPECTED_FULL) {
            assert_eq!(name, expected);
        }
    }

    #[test]
    fn fan_out_keeps_index_order_and_worker_states() {
        let (out, states) = fan_out(
            50,
            |w| (w, 0usize),
            |state, i| {
                state.1 += 1;
                i * 2
            },
        );
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(states.len(), THREADS);
        assert_eq!(states.iter().map(|s| s.1).sum::<usize>(), 50);
    }

    #[test]
    fn repeat_passes_runs_at_least_once_and_until_the_deadline() {
        let mut n = 0;
        assert_eq!(repeat_passes(0.0, || n += 1).len(), 1);
        let runs = repeat_passes(0.02, || std::thread::sleep(Duration::from_millis(5)));
        assert!(runs.len() >= 4, "{}", runs.len());
    }
}
