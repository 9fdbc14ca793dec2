//! Before/after wall-clock for the batched experiment engine.
//!
//! Regenerates Figure 3 + Table 2 + the §5 headline twice:
//! - *unbatched*: the reference path — every (program, block, version)
//!   cell runs the full pipeline by itself, and the headline re-runs its
//!   own Figure 3 column (the pre-batching behavior);
//! - *batched*: the `run_batch` generators, with the headline pooled
//!   from the already-computed Figure 3 rows.
//!
//! Asserts the two paths produce bit-identical rows, then writes the
//! measurements to `BENCH_experiments.json` (override the path with
//! `FSR_BENCH_OUT`).

use fsr_bench::Knobs;
use fsr_core::driver::{run_batch_with_stats, run_jobs, Job, JobResults};
use fsr_core::experiments::{
    figure3, headline_from_rows, plan_source, table2, Fig3Row, Headline, Table2Row, Vsn,
};
use fsr_core::{plan_of, PipelineConfig, PipelineError, PlanSource};
use fsr_transform::ObjPlan;
use std::sync::Arc;
use std::time::Instant;

const FIG3_BLOCKS: [u32; 2] = [16, 128];
const TABLE2_BLOCKS: [u32; 6] = [8, 16, 32, 64, 128, 256];
const HEADLINE_BLOCK: u32 = 128;

/// The Figure 3 grid, one job per (program, block, version) cell —
/// the same jobs [`figure3`] submits as one batch.
fn fig3_jobs(nproc: i64, scale: i64, blocks: &[u32]) -> Vec<Job<(&'static str, u32, Vsn)>> {
    let mut jobs = Vec::new();
    for w in &fsr_workloads::figure3_set() {
        for &b in blocks {
            for v in [Vsn::N, Vsn::C] {
                jobs.push(Job {
                    meta: (w.name, b, v),
                    src: Arc::from(w.source),
                    params: vec![("NPROC".into(), nproc), ("SCALE".into(), scale)],
                    plan: plan_source(w, v),
                    cfg: PipelineConfig::with_block(b),
                });
            }
        }
    }
    jobs
}

/// The Table 2 grid, one job per (program index, block, cell) sample —
/// the same jobs [`table2`] submits as one batch. Cell 0 is the
/// unoptimized baseline, 1 the full plan, 2..=5 the per-class
/// ablations (transpose, indirection, pad, locks).
fn table2_jobs(nproc: i64, scale: i64, blocks: &[u32]) -> Vec<Job<(usize, u32, usize)>> {
    let mut jobs = Vec::new();
    for (wi, w) in fsr_workloads::figure3_set().iter().enumerate() {
        let prog = fsr_lang::compile_with_params(w.source, &[("NPROC", nproc), ("SCALE", scale)])
            .expect("workload compiles");
        let analysis = Arc::new(fsr_analysis::analyze(&prog).expect("workload analyzes"));
        for &b in blocks {
            let cfg = PipelineConfig::with_block(b);
            let full =
                plan_of(&prog, &PlanSource::Compiler, &cfg, || Ok(analysis.clone())).expect("plan");
            let cells = [
                PlanSource::Unoptimized,
                PlanSource::Explicit(full.clone()),
                PlanSource::Explicit(full.retain_kind(|p| matches!(p, ObjPlan::Transpose { .. }))),
                PlanSource::Explicit(full.retain_kind(|p| matches!(p, ObjPlan::Indirect { .. }))),
                PlanSource::Explicit(full.retain_kind(|p| matches!(p, ObjPlan::PadElems))),
                PlanSource::Explicit(full.retain_kind(|p| matches!(p, ObjPlan::PadLock))),
            ];
            for (cell, plan) in cells.into_iter().enumerate() {
                jobs.push(Job {
                    meta: (wi, b, cell),
                    src: Arc::from(w.source),
                    params: vec![("NPROC".into(), nproc), ("SCALE".into(), scale)],
                    plan,
                    cfg: cfg.clone(),
                });
            }
        }
    }
    jobs
}

/// Interpreter runs the reference path spent on `out`: every job whose
/// pipeline got past front end and layout interpreted exactly once
/// (runtime errors included).
fn interpretations<M>(out: &JobResults<M>) -> usize {
    out.iter()
        .filter(|(_, r)| matches!(r, Ok(_) | Err(PipelineError::Runtime(_))))
        .count()
}

/// Figure 3 via the reference path: one full pipeline per cell. Also
/// returns the interpreter runs spent.
fn fig3_unbatched(nproc: i64, scale: i64, blocks: &[u32], threads: usize) -> (Vec<Fig3Row>, usize) {
    let out = run_jobs(fig3_jobs(nproc, scale, blocks), threads);
    let interps = interpretations(&out);
    let rows = out
        .into_iter()
        .filter_map(|(job, r)| {
            let r = r.ok()?;
            let (program, block, version) = job.meta;
            Some(Fig3Row {
                program: program.to_string(),
                block,
                version: version.label().to_string(),
                refs: r.sim.refs,
                fs_miss_rate: r.sim.false_sharing() as f64 / r.sim.refs.max(1) as f64,
                other_miss_rate: r.sim.other_misses() as f64 / r.sim.refs.max(1) as f64,
            })
        })
        .collect();
    (rows, interps)
}

/// Table 2 via the reference path: each sample a full pipeline. Also
/// returns the interpreter runs spent.
fn table2_unbatched(
    nproc: i64,
    scale: i64,
    blocks: &[u32],
    threads: usize,
) -> (Vec<Table2Row>, usize) {
    let out = run_jobs(table2_jobs(nproc, scale, blocks), threads);
    let fs_of = |meta: (usize, u32, usize)| -> Option<u64> {
        out.iter()
            .find(|(j, _)| j.meta == meta)
            .and_then(|(_, r)| r.as_ref().ok().map(|r| r.sim.false_sharing()))
    };
    let mut rows = Vec::new();
    for (wi, w) in fsr_workloads::figure3_set().iter().enumerate() {
        let mut acc = [0.0f64; 5];
        let mut samples = 0usize;
        let mut dropped = 0usize;
        for &b in blocks {
            let base = fs_of((wi, b, 0)).unwrap_or(0);
            if base == 0 {
                dropped += 1;
                continue;
            }
            let reduction = |fs: u64| 100.0 * (base.saturating_sub(fs)) as f64 / base as f64;
            for (k, a) in acc.iter_mut().enumerate() {
                if let Some(f) = fs_of((wi, b, k + 1)) {
                    *a += reduction(f);
                }
            }
            samples += 1;
        }
        let n = samples.max(1) as f64;
        rows.push(Table2Row {
            program: w.name.to_string(),
            total_reduction_pct: acc[0] / n,
            transpose_pct: acc[1] / n,
            indirection_pct: acc[2] / n,
            pad_pct: acc[3] / n,
            locks_pct: acc[4] / n,
            dropped_blocks: dropped,
        });
    }
    (rows, interpretations(&out))
}

fn same_fig3(a: &[Fig3Row], b: &[Fig3Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.program == y.program
                && x.block == y.block
                && x.version == y.version
                && x.refs == y.refs
                && x.fs_miss_rate.to_bits() == y.fs_miss_rate.to_bits()
                && x.other_miss_rate.to_bits() == y.other_miss_rate.to_bits()
        })
}

fn same_table2(a: &[Table2Row], b: &[Table2Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.program == y.program
                && x.total_reduction_pct.to_bits() == y.total_reduction_pct.to_bits()
                && x.transpose_pct.to_bits() == y.transpose_pct.to_bits()
                && x.indirection_pct.to_bits() == y.indirection_pct.to_bits()
                && x.pad_pct.to_bits() == y.pad_pct.to_bits()
                && x.locks_pct.to_bits() == y.locks_pct.to_bits()
                && x.dropped_blocks == y.dropped_blocks
        })
}

fn same_headline(a: &Headline, b: &Headline) -> bool {
    a.block == b.block
        && a.fs_share_of_misses.to_bits() == b.fs_share_of_misses.to_bits()
        && a.fs_eliminated.to_bits() == b.fs_eliminated.to_bits()
        && a.other_miss_change.to_bits() == b.other_miss_change.to_bits()
        && a.total_miss_change.to_bits() == b.total_miss_change.to_bits()
}

fn main() {
    let k = Knobs::from_env();
    eprintln!(
        "bench_experiments: nproc={} scale={} threads={}",
        k.nproc, k.scale, k.threads
    );

    // Unbatched reference suite.
    let t0 = Instant::now();
    let (ref_fig3, fig3_interps) = fig3_unbatched(k.nproc, k.scale, &FIG3_BLOCKS, k.threads);
    let (ref_table2, table2_interps) =
        table2_unbatched(k.nproc, k.scale, &TABLE2_BLOCKS, k.threads);
    // Pre-batching headline: re-runs its own Figure 3 column.
    let (headline_rows, headline_interps) =
        fig3_unbatched(k.nproc, k.scale, &[HEADLINE_BLOCK], k.threads);
    let ref_headline = headline_from_rows(&headline_rows, HEADLINE_BLOCK);
    let unbatched = t0.elapsed();
    let unbatched_interps = fig3_interps + table2_interps + headline_interps;

    // Batched suite.
    let t1 = Instant::now();
    let new_fig3 = figure3(k.nproc, k.scale, &FIG3_BLOCKS, k.threads);
    let new_table2 =
        table2(k.nproc, k.scale, &TABLE2_BLOCKS, k.threads).expect("table2 experiment");
    let new_headline = headline_from_rows(&new_fig3, HEADLINE_BLOCK);
    let batched = t1.elapsed();
    // The generators submit exactly these two grids, one batch each (the
    // headline reuses the Figure 3 rows), so re-submitting them untimed
    // reports the interpreter runs the batched suite spent.
    let batched_interps = [
        run_batch_with_stats(fig3_jobs(k.nproc, k.scale, &FIG3_BLOCKS), k.threads).1,
        run_batch_with_stats(table2_jobs(k.nproc, k.scale, &TABLE2_BLOCKS), k.threads).1,
    ]
    .iter()
    .map(|s| s.interpretations)
    .sum::<usize>();

    let identical = same_fig3(&ref_fig3, &new_fig3)
        && same_table2(&ref_table2, &new_table2)
        && same_headline(&ref_headline, &new_headline);
    assert!(identical, "batched results diverge from the reference path");

    let speedup = unbatched.as_secs_f64() / batched.as_secs_f64().max(1e-9);
    println!(
        "unbatched: {:8.1} ms  ({unbatched_interps} interpretations)",
        unbatched.as_secs_f64() * 1e3
    );
    println!(
        "batched:   {:8.1} ms  ({batched_interps} interpretations)",
        batched.as_secs_f64() * 1e3
    );
    println!("speedup:   {speedup:.2}x  (bit-identical: {identical})");

    let out = std::env::var("FSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_experiments.json".into());
    let json = format!(
        "{{\n  \"suite\": \"fig3 + table2 + headline\",\n  \"nproc\": {},\n  \
         \"scale\": {},\n  \"threads\": {},\n  \"unbatched_ms\": {:.1},\n  \
         \"batched_ms\": {:.1},\n  \"speedup\": {:.2},\n  \
         \"unbatched_interpretations\": {},\n  \"batched_interpretations\": {},\n  \
         \"bit_identical\": {}\n}}\n",
        k.nproc,
        k.scale,
        k.threads,
        unbatched.as_secs_f64() * 1e3,
        batched.as_secs_f64() * 1e3,
        speedup,
        unbatched_interps,
        batched_interps,
        identical
    );
    std::fs::write(&out, json).expect("write benchmark results");
    eprintln!("wrote {out}");
}
