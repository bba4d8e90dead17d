//! Set-up shared by the three trace-file workloads: record the suite as
//! `.ttr3` + lz files with a seek index (what `tage_trace record
//! --compress` writes) and check them against the recipes' expected
//! event counts. The program under test only ever sees these files.

use crate::run::{fan_out, Checks, Plan};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use traces::{CodecRegistry, Ttr3Codec, TTR3_INDEX_FLAG};
use workloads::event::{EventSource, TraceEvent};
use workloads::suite::{by_name, Scale};

/// `(trace, events, conditional branches)` of every Full-scale recipe.
/// A recipe change that alters a benchmark input fails set-up.
pub const EXPECTED_FULL: [(&str, u64, u64); 40] = [
    ("CLIENT01", 501_818, 480_000),
    ("CLIENT02", 1_440_000, 1_440_000),
    ("CLIENT03", 480_000, 480_000),
    ("CLIENT04", 480_000, 480_000),
    ("CLIENT05", 480_000, 480_000),
    ("CLIENT06", 480_000, 480_000),
    ("CLIENT07", 480_000, 480_000),
    ("CLIENT08", 480_000, 480_000),
    ("INT01", 480_000, 480_000),
    ("INT02", 480_000, 480_000),
    ("INT03", 480_000, 480_000),
    ("INT04", 488_648, 480_000),
    ("INT05", 480_000, 480_000),
    ("INT06", 480_000, 480_000),
    ("INT07", 480_000, 480_000),
    ("INT08", 480_000, 480_000),
    ("MM01", 480_000, 480_000),
    ("MM02", 480_000, 480_000),
    ("MM03", 480_000, 480_000),
    ("MM04", 480_000, 480_000),
    ("MM05", 480_000, 480_000),
    ("MM06", 480_000, 480_000),
    ("MM07", 480_000, 480_000),
    ("MM08", 480_000, 480_000),
    ("SERVER01", 539_998, 480_000),
    ("SERVER02", 501_818, 480_000),
    ("SERVER03", 494_998, 480_000),
    ("SERVER04", 499_998, 480_000),
    ("SERVER05", 539_998, 480_000),
    ("SERVER06", 487_740, 480_000),
    ("SERVER07", 539_998, 480_000),
    ("SERVER08", 497_142, 480_000),
    ("WS01", 480_000, 480_000),
    ("WS02", 480_000, 480_000),
    ("WS03", 480_000, 480_000),
    ("WS04", 480_000, 480_000),
    ("WS05", 480_000, 480_000),
    ("WS06", 480_000, 480_000),
    ("WS07", 480_000, 480_000),
    ("WS08", 480_000, 480_000),
];

/// One recorded input file.
#[derive(Clone, Debug)]
pub struct Recorded {
    /// The `.ttr3` file.
    pub path: PathBuf,
    /// Trace name.
    pub name: String,
    /// Events in the file.
    pub events: u64,
    /// Conditional branches in the file.
    pub conditionals: u64,
}

/// The recording codec: `.ttr3`, lz blocks, seek index.
pub fn ttr3_lz() -> Ttr3Codec {
    let lz = traces::SCHEMES.iter().find(|(n, _, _)| *n == "lz").map(|(_, id, _)| *id);
    // INVARIANT: `lz` is a registered scheme of the traces crate.
    Ttr3Codec { scheme_id: lz.expect("lz scheme registered") | TTR3_INDEX_FLAG }
}

/// A recipe stream that counts what the encoder pulls.
struct Counting {
    inner: workloads::ProgramStream,
    events: Arc<AtomicU64>,
    conditionals: Arc<AtomicU64>,
}

impl EventSource for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn category(&self) -> &str {
        self.inner.category()
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        let e = self.inner.next_event()?;
        // ORDERING: plain counters read after the encoder returns on the
        // same thread.
        self.events.fetch_add(1, Ordering::Relaxed);
        if e.kind.is_conditional() {
            self.conditionals.fetch_add(1, Ordering::Relaxed);
        }
        Some(e)
    }
}

/// Records one trace into `dir` through the program's streaming recorder.
fn record_one(name: &str, scale: Scale, dir: &Path) -> io::Result<Recorded> {
    let spec = by_name(name, scale)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("no recipe {name}")))?;
    let events = Arc::new(AtomicU64::new(0));
    let conditionals = Arc::new(AtomicU64::new(0));
    let codec = ttr3_lz();
    let path = harness::trace_mode::record_stream(&spec.name, &codec, dir, &mut || {
        // A codec that makes two passes re-opens the source: count the
        // last pass only.
        events.store(0, Ordering::Relaxed);
        conditionals.store(0, Ordering::Relaxed);
        Ok(Box::new(Counting {
            inner: spec.stream(),
            events: Arc::clone(&events),
            conditionals: Arc::clone(&conditionals),
        }) as _)
    })?;
    Ok(Recorded {
        path,
        name: spec.name.clone(),
        events: events.load(Ordering::Relaxed),
        conditionals: conditionals.load(Ordering::Relaxed),
    })
}

/// Records the plan's traces into `dir` on two threads, in plan order.
///
/// # Errors
///
/// Propagates recording errors (the first in plan order).
pub fn record_set(plan: &Plan, dir: &Path) -> io::Result<Vec<Recorded>> {
    let (files, _) = fan_out(
        plan.traces.len(),
        |_| (),
        |_, i| record_one(&plan.traces[i], plan.trace_scale, dir),
    );
    files.into_iter().collect()
}

/// Checks the recorded set: counts match the Full-scale table, and each
/// file reopens with its recorded event count.
pub fn check_set(plan: &Plan, files: &[Recorded], checks: &mut Checks) {
    let registry = CodecRegistry::standard();
    for f in files {
        let expected = EXPECTED_FULL.iter().find(|(n, _, _)| *n == f.name);
        let counts_ok = match (plan.trace_scale, expected) {
            (Scale::Full, Some(&(_, events, conds))) => {
                f.events == events && f.conditionals == conds
            }
            (Scale::Full, None) => false,
            _ => f.events > 0 && f.conditionals > 0,
        };
        let reopened = registry.open(&f.path).ok().and_then(|d| d.expected_events());
        checks.unit(counts_ok && reopened == Some(f.events), || {
            format!(
                "recorded {}: {} events / {} conditionals, reopened {:?}",
                f.name, f.events, f.conditionals, reopened
            )
        });
    }
}

/// The recording set-up: `plan.setup_reps` recordings into `dir` (the
/// last one is kept), checked once. Returns the files and each
/// repetition's time.
///
/// # Errors
///
/// Propagates recording errors.
pub fn setup_traces(
    plan: &Plan,
    dir: &Path,
    reps: usize,
    checks: &mut Checks,
) -> io::Result<(Vec<Recorded>, Vec<std::time::Duration>)> {
    let mut times = Vec::new();
    let mut files = Vec::new();
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        files = record_set(plan, dir)?;
        times.push(t.elapsed());
    }
    check_set(plan, &files, checks);
    Ok((files, times))
}
