//! Criterion bench: batched (`run_batch`) vs unbatched (`run_jobs`)
//! execution of a block-size sweep — the core win of the trace-once,
//! simulate-many engine.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fsr_core::driver::{run_batch, run_jobs, Job};
use fsr_core::PipelineConfig;
use fsr_core::PlanSource;
use std::sync::Arc;

const BLOCKS: [u32; 6] = [8, 16, 32, 64, 128, 256];

fn sweep_jobs(src: &Arc<str>, plan: &PlanSource) -> Vec<Job<u32>> {
    BLOCKS
        .iter()
        .map(|&b| Job {
            meta: b,
            src: src.clone(),
            params: vec![("NPROC".into(), 8), ("SCALE".into(), 1)],
            plan: plan.clone(),
            cfg: PipelineConfig::with_block(b),
        })
        .collect()
}

fn block_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_sweep");
    g.sample_size(10);
    g.throughput(Throughput::Elements(BLOCKS.len() as u64));
    for name in ["maxflow", "water"] {
        let w = fsr_workloads::by_name(name).unwrap();
        let src: Arc<str> = Arc::from(w.source);
        // Unoptimized: one shared trace across all six block sizes.
        for (label, plan) in [
            ("unopt", PlanSource::Unoptimized),
            ("compiler", PlanSource::Compiler),
        ] {
            g.bench_function(format!("unbatched/{name}/{label}"), |b| {
                b.iter(|| run_jobs(sweep_jobs(&src, &plan), 1))
            });
            g.bench_function(format!("batched/{name}/{label}"), |b| {
                b.iter(|| run_batch(sweep_jobs(&src, &plan), 1))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, block_sweep);
criterion_main!(benches);
