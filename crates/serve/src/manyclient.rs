//! The `manyclient` load bench: N concurrent sessions against one server.
//!
//! Each session is a real [`crate::client::run_one`] over a real socket —
//! no shortcuts through in-process channels — so the bench exercises the
//! admission gate, the worker pool, per-session spool isolation, and the
//! panic fence exactly as production clients would. `--inject-panic N`
//! plants the `fault=panic` hook in the first N sessions to prove a dying
//! session degrades only itself while its neighbors finish clean.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Instant;

use crate::client::{run_one, ClientOptions};
use crate::stats::{percentile, BenchSummary};
use crate::wire::Handshake;

/// Extensions the trace-directory scan accepts — one per registered codec
/// in `traces::CodecRegistry::standard()`.
const TRACE_EXTENSIONS: &[&str] = &["ttr3", "cbp", "csv"];

/// Load-bench options, straight from the CLI.
#[derive(Clone, Debug)]
pub struct ManyClientOptions {
    /// Server address, `host:port`.
    pub addr: String,
    /// Directory scanned (non-recursively) for trace files.
    pub traces_dir: PathBuf,
    /// Concurrent sessions to run; traces are assigned round-robin.
    pub sessions: usize,
    /// Handshake template shared by every session.
    pub handshake: Handshake,
    /// Plant `fault=panic` in the first N sessions (robustness proof).
    pub inject_panic: usize,
}

/// One session's outcome, kept per-session so the caller can assert that
/// *exactly* the injected sessions failed.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    pub trace: PathBuf,
    pub injected: bool,
    /// Error code if the session failed (`transport` for non-typed
    /// failures), `None` on success.
    pub error_code: Option<String>,
    pub events: u64,
    pub latency_ms: f64,
}

impl SessionOutcome {
    pub fn is_ok(&self) -> bool {
        self.error_code.is_none()
    }
}

/// Scan `dir` for trace files in any registered codec, sorted by name so
/// the round-robin assignment is deterministic.
pub fn collect_trace_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_file() {
            continue;
        }
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("").to_ascii_lowercase();
        if TRACE_EXTENSIONS.contains(&ext.as_str()) {
            files.push(path);
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no trace files ({}) under {}", TRACE_EXTENSIONS.join("/"), dir.display()),
        ));
    }
    Ok(files)
}

/// Run the bench: all sessions concurrently, one OS thread each (the
/// client side is I/O-bound; the server's worker pool does the heavy
/// lifting). Returns the aggregate summary plus per-session outcomes.
pub fn run_bench(opts: &ManyClientOptions) -> io::Result<(BenchSummary, Vec<SessionOutcome>)> {
    let files = collect_trace_files(&opts.traces_dir)?;
    let started = Instant::now();

    let mut handles = Vec::with_capacity(opts.sessions);
    for i in 0..opts.sessions {
        let trace = files[i % files.len()].clone();
        let mut handshake = opts.handshake.clone();
        let injected = i < opts.inject_panic;
        if injected {
            handshake.fault = "panic".to_string();
        }
        let client = ClientOptions { addr: opts.addr.clone(), handshake, quiet: true };
        handles.push(thread::spawn(move || {
            let run = run_one(&trace, &client);
            match run {
                Ok(res) => SessionOutcome {
                    trace,
                    injected,
                    error_code: res.error.as_ref().map(|e| e.code.clone()),
                    events: res.events,
                    latency_ms: res.elapsed.as_secs_f64() * 1e3,
                },
                Err(e) => SessionOutcome {
                    trace,
                    injected,
                    error_code: Some(format!("transport:{}", e.kind())),
                    events: 0,
                    latency_ms: 0.0,
                },
            }
        }));
    }

    let mut outcomes = Vec::with_capacity(handles.len());
    for handle in handles {
        match handle.join() {
            Ok(outcome) => outcomes.push(outcome),
            Err(_) => return Err(io::Error::other("a manyclient session thread panicked")),
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();

    let ok = outcomes.iter().filter(|o| o.is_ok()).count();
    let mut codes: BTreeMap<String, usize> = BTreeMap::new();
    for o in &outcomes {
        if let Some(code) = &o.error_code {
            *codes.entry(code.clone()).or_insert(0) += 1;
        }
    }
    let events_total: u64 = outcomes.iter().filter(|o| o.is_ok()).map(|o| o.events).sum();
    let mut latencies: Vec<f64> =
        outcomes.iter().filter(|o| o.is_ok()).map(|o| o.latency_ms).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));

    let summary = BenchSummary {
        sessions: opts.sessions,
        ok,
        errors: opts.sessions - ok,
        error_codes: codes.into_iter().collect(),
        events_total,
        wall_secs,
        events_per_sec: if wall_secs > 0.0 { events_total as f64 / wall_secs } else { 0.0 },
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
    };
    Ok((summary, outcomes))
}
