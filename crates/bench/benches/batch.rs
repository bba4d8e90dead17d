//! Block-size throughput of the one simulation driver: a
//! `pipeline::WindowEngine` fed by `pipeline::ChunkDriver`, one virtual
//! `run_block` per block with a monomorphized window loop inside. Every
//! row simulates identical bits (the engine tests pin this); only the
//! dispatch amortization differs.

use bench::bench_trace;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pipeline::{ChunkDriver, PipelineConfig, WindowEngine, DEFAULT_BATCH};
use simkit::UpdateScenario;
use std::hint::black_box;
use workloads::event::TraceStream;

fn batch(c: &mut Criterion) {
    let trace = bench_trace("CLIENT08");
    let branches = trace.conditional_count();
    let cfg = PipelineConfig::default();
    let scenario = UpdateScenario::RereadAtRetire;
    let mut g = c.benchmark_group("batch_throughput");
    g.throughput(Throughput::Elements(branches));
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));

    for batch in [64usize, DEFAULT_BATCH] {
        g.bench_function(&format!("isl_tage_engine_batch{batch}"), |b| {
            b.iter(|| {
                let mut e = WindowEngine::new(tage::TageSystem::isl_tage(), scenario, &cfg);
                black_box(ChunkDriver::new(batch).run(&mut e, &mut TraceStream::new(&trace)))
            })
        });
    }
    // The dispatch-bound end of the spectrum: a cheap predictor, where
    // per-block dispatch is a visible share of the per-event cost.
    g.bench_function("gshare_engine_batch4096", |b| {
        b.iter(|| {
            let mut e = WindowEngine::new(baselines::Gshare::cbp_512k(), scenario, &cfg);
            black_box(ChunkDriver::new(DEFAULT_BATCH).run(&mut e, &mut TraceStream::new(&trace)))
        })
    });
    g.finish();
}

criterion_group!(benches, batch);
criterion_main!(benches);
