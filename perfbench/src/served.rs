//! `serve_closed2`: a `tage_serve` server with two workers and two
//! closed-loop clients, each streaming the next recorded file (spec
//! `tage`) and waiting for its result before sending the next; a pass is
//! `Plan::sessions` sessions. On top of
//! `trace_full`'s simulation layers: spooling the upload (`open_feed`),
//! framing, and the `tage.run/1` artifact.

use crate::inputs::{self, Recorded};
use crate::ledger::PassLedger;
use crate::run::{fan_out, repeat_passes, EndToEnd, Outputs, Pass, RunCtx, BATCH, THREADS};
use crate::span::{self, Recorder, Span};
use crate::stats::{median, quartiles, supports_percentile, Digest};
use crate::sys;
use crate::trace_full::{decode_share, overhead_pct, traced_cell};
use harness::trace_mode::{run_spec_cell, MATRIX_SCENARIO};
use harness::{PredictorSpec, RunArtifact};
use pipeline::{PipelineConfig, SuiteReport};
use serve::{run_one, ClientOptions, Handshake};
use simkit::rng::Xoshiro256;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use traces::CodecRegistry;

/// The served spec: the §3.4 reference TAGE.
const SPEC: &str = "tage";

/// The `serve-child` entry: a server on an ephemeral localhost port that
/// prints `addr <host:port>` and serves until a shutdown frame.
///
/// # Errors
///
/// Propagates bind and accept-loop errors.
pub fn child_main() -> io::Result<()> {
    let opts = serve::ServeOptions { threads: Some(THREADS), ..serve::ServeOptions::default() };
    let server = serve::BoundServer::bind(&opts)?;
    let mut stdout = io::stdout();
    writeln!(stdout, "addr {}", server.addr()?)?;
    stdout.flush()?;
    server.run()
}

/// The server process. Its spool directory (`TMPDIR`) lies in the run's
/// scratch space; dropping the handle kills a server that was not stopped.
pub struct ServerProc {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
    stopped: bool,
}

impl ServerProc {
    /// Starts this executable as a server child and waits for its address.
    ///
    /// # Errors
    ///
    /// Spawn errors, or a child that exits before printing its address.
    pub fn start(spool: &Path) -> io::Result<ServerProc> {
        std::fs::create_dir_all(spool)?;
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve-child")
            .env("TMPDIR", spool)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let mut server = ServerProc { child, addr: String::new(), drain: None, stopped: false };
        match lines.next() {
            Some(Ok(line)) if line.starts_with("addr ") => server.addr = line[5..].to_string(),
            other => {
                return Err(io::Error::other(format!("server did not start: {other:?}")));
            }
        }
        // The server logs one line per session; keep its pipe drained.
        server.drain = Some(std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop)));
        Ok(server)
    }

    /// Peak resident memory of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        sys::peak_rss_mb(Some(self.child.id()))
    }

    /// Asks the server to drain and exit, and waits for it.
    ///
    /// # Errors
    ///
    /// Shutdown-request or wait errors, or a non-zero exit.
    pub fn stop(mut self) -> io::Result<()> {
        serve::request_shutdown(&self.addr)?;
        let status = self.child.wait()?;
        self.stopped = true;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited with {status}")))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One served session as the client saw it.
struct Session {
    file: usize,
    latency_ms: f64,
    conditionals: u64,
    artifact: Option<String>,
    error: Option<String>,
}

/// The seed's session order: a permutation of the files, cycled.
fn session_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Xoshiro256::seed_from(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    order
}

/// `sessions` sessions from [`THREADS`] closed-loop clients; with
/// `origin`, each session is one `serve.session` span.
fn closed_loop(
    addr: &str,
    files: &[Recorded],
    order: &[usize],
    sessions: usize,
    origin: Option<Instant>,
) -> (Pass, Vec<Session>, Vec<Span>) {
    let opts = ClientOptions {
        addr: addr.to_string(),
        handshake: Handshake { spec: SPEC.to_string(), ..Handshake::default() },
        quiet: true,
    };
    let start = Instant::now();
    let (sessions, recorders) = fan_out(
        sessions,
        |w| origin.map(|o| Recorder::new(o, w)),
        |rec, k| {
            let file = order[k % order.len()];
            let run = || run_one(&files[file].path, &opts);
            let result = match rec.as_mut() {
                Some(r) => r.time("serve.session", k as u64, run),
                None => run(),
            };
            match result {
                Ok(r) => Session {
                    file,
                    latency_ms: r.elapsed.as_secs_f64() * 1e3,
                    conditionals: r.events,
                    error: r.error.as_ref().map(|e| format!("{}: {}", e.code, e.message)),
                    artifact: r.artifact_json,
                },
                Err(e) => Session {
                    file,
                    latency_ms: 0.0,
                    conditionals: 0,
                    artifact: None,
                    error: Some(e.to_string()),
                },
            }
        },
    );
    let wall = start.elapsed();
    let conditionals = sessions.iter().map(|s| s.conditionals).sum();
    let spans = span::merge(recorders.into_iter().flatten().map(Recorder::into_spans));
    (Pass { wall, conditionals }, sessions, spans)
}

/// The offline twin of a session: `run_spec_cell` plus the artifact the
/// server builds from its report.
fn offline_artifact(
    spec: &PredictorSpec,
    path: &Path,
    registry: &CodecRegistry,
) -> io::Result<(String, f64)> {
    let mut src = registry.open(path)?;
    let report = run_spec_cell(spec, MATRIX_SCENARIO, &mut src, &PipelineConfig::default(), BATCH)?;
    let mppki = report.mppki();
    Ok((artifact_json(spec, SuiteReport::new(vec![report])), mppki))
}

fn artifact_json(spec: &PredictorSpec, suite: SuiteReport) -> String {
    RunArtifact::from_suite(
        &spec.sim_key(),
        MATRIX_SCENARIO,
        "external",
        &suite,
        None,
        Handshake::default().top,
    )
    .to_json()
}

/// Every session must succeed and return exactly its offline artifact.
fn check_sessions(
    sessions: &[Session],
    offline: &[Option<String>],
    files: &[Recorded],
    out: &mut Outputs,
) {
    for s in sessions {
        let ok = s.error.is_none() && s.artifact.is_some() && s.artifact == offline[s.file];
        out.checks.unit(ok, || match &s.error {
            Some(e) => format!("session on {} failed: {e}", files[s.file].name),
            None => {
                format!("session on {}: artifact differs from the offline run", files[s.file].name)
            }
        });
    }
}

/// Set-up: record the files and start the server, `reps` times; the
/// last server and recording are kept.
fn setup(
    ctx: &RunCtx,
    reps: usize,
    out: &mut Outputs,
) -> io::Result<(Vec<Recorded>, ServerProc, Vec<Duration>)> {
    let dir = ctx.work.join("traces");
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some((_, server)) = kept.take() {
            ServerProc::stop(server)?;
        }
        let t = Instant::now();
        let files = inputs::record_set(&ctx.plan, &dir)?;
        let server = ServerProc::start(&ctx.work.join("spool"))?;
        times.push(t.elapsed());
        kept = Some((files, server));
    }
    // INVARIANT: the loop ran at least once.
    let (files, server) = kept.expect("one set-up ran");
    inputs::check_set(&ctx.plan, &files, &mut out.checks);
    Ok((files, server, times))
}

/// Runs the workload.
///
/// # Errors
///
/// Propagates set-up and server lifecycle errors.
pub fn run(ctx: &RunCtx, traced: bool, out: &mut Outputs) -> io::Result<()> {
    let reps = if traced { 1 } else { ctx.plan.setup_reps };
    let (files, server, setup) = setup(ctx, reps, out)?;
    let order = session_order(files.len(), ctx.seed);
    let spec = PredictorSpec::parse(SPEC).map_err(|e| io::Error::other(e.to_string()))?;
    let registry = CodecRegistry::standard();
    let sessions_n = ctx.plan.sessions;

    if traced {
        let (pass, sessions, _) = closed_loop(&server.addr, &files, &order, sessions_n, None);
        let origin = Instant::now();
        let (traced_pass, traced_sessions, spans) =
            closed_loop(&server.addr, &files, &order, sessions_n, Some(origin));
        server.stop()?;
        let (twins, recorders) = fan_out(
            files.len(),
            |w| Recorder::new(origin, w),
            |rec, i| {
                let start = Instant::now();
                let cell = traced_cell(rec, i as u64, &spec, &files[i].path, &registry);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                (cell.ok().map(|(r, _)| artifact_json(&spec, SuiteReport::new(vec![r]))), ms)
            },
        );
        let offline: Vec<Option<String>> = twins.iter().map(|(a, _)| a.clone()).collect();
        check_sessions(&sessions, &offline, &files, out);
        check_sessions(&traced_sessions, &offline, &files, out);
        let overhead: Vec<f64> =
            traced_sessions.iter().map(|s| s.latency_ms - twins[s.file].1).collect();
        let twin_spans = span::merge(recorders.into_iter().map(Recorder::into_spans));
        PassLedger {
            decode_share: decode_share(&twin_spans, "bench.cell"),
            useful_event_ratio: 1.0,
            serve_overhead_ms: median(&overhead),
            unattributed_share: span::unattributed_share(
                &spans,
                THREADS,
                traced_pass.wall.as_nanos() as u64,
            ),
            trace_overhead_pct: overhead_pct(traced_pass.wall, pass.wall),
            ..PassLedger::default()
        }
        .emit(&mut out.metrics);
        out.spans = span::merge([spans, twin_spans]);
        return Ok(());
    }
    let mut sessions = Vec::new();
    let passes = repeat_passes(ctx.seconds, || {
        let (pass, more, _) = closed_loop(&server.addr, &files, &order, sessions_n, None);
        sessions.extend(more);
        pass
    });
    let peak_rss_mb = server.peak_rss_mb();
    server.stop()?;
    let (twins, _) = fan_out(
        files.len(),
        |_| (),
        |_, i| offline_artifact(&spec, &files[i].path, &registry).ok(),
    );
    let offline: Vec<Option<String>> =
        twins.iter().map(|t| t.as_ref().map(|(a, _)| a.clone())).collect();
    check_sessions(&sessions, &offline, &files, out);
    let latencies: Vec<f64> =
        sessions.iter().filter(|s| s.error.is_none()).map(|s| s.latency_ms).collect();
    EndToEnd { setup, passes, peak_rss_mb, session_ms: latencies.clone() }.emit(out);
    // Every session's artifact equals its file's offline one (checked
    // above), so the digest runs over those, in file order: it does not
    // depend on the seed's session order.
    let mut d = Digest::default();
    offline.iter().flatten().for_each(|a| d.text(a));
    out.note("sim_digest", d.hex());
    let mppki: Vec<f64> = twins.iter().flatten().map(|(_, m)| *m).collect();
    out.note("mppki_ref", mppki.iter().sum::<f64>() / mppki.len().max(1) as f64);
    let (q1, q3) = quartiles(&latencies);
    out.note("session_quartiles_ms", format!("{q1},{q3}"));
    out.note("sessions", latencies.len());
    out.note("p90_has_10_beyond", supports_percentile(latencies.len(), 90.0));
    Ok(())
}
