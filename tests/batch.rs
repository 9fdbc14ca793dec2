//! Equivalence and work-sharing guarantees of the batched experiment
//! engine (`run_batch`) against the reference per-job pipeline.

use fsr_core::driver::{run_batch_with_stats, Job, PlanSourceSpec};
use fsr_core::{run_pipeline, PipelineConfig, PlanSource, RunResult};
use proptest::prelude::*;
use std::sync::Arc;

const BLOCKS: [u32; 6] = [8, 16, 32, 64, 128, 256];

fn spec_of(plan: &PlanSource) -> PlanSourceSpec {
    match plan {
        PlanSource::Unoptimized => PlanSourceSpec::Unoptimized,
        PlanSource::Compiler => PlanSourceSpec::Compiler,
        PlanSource::Programmer(f) => PlanSourceSpec::Programmer(*f),
        PlanSource::Explicit(p) => PlanSourceSpec::Explicit(p.clone()),
    }
}

fn assert_same(want: &RunResult, got: &RunResult, ctx: &str) {
    assert_eq!(want.nproc, got.nproc, "{ctx}: nproc");
    assert_eq!(want.sim, got.sim, "{ctx}: sim stats");
    assert_eq!(want.per_obj, got.per_obj, "{ctx}: per-object misses");
    assert_eq!(
        want.per_obj_coherence, got.per_obj_coherence,
        "{ctx}: per-object coherence"
    );
    assert_eq!(want.exec_cycles, got.exec_cycles, "{ctx}: exec cycles");
    assert_eq!(want.timing, got.timing, "{ctx}: timing stats");
    assert_eq!(want.interp, got.interp, "{ctx}: interp stats");
    assert_eq!(
        want.fs_stall_frac.to_bits(),
        got.fs_stall_frac.to_bits(),
        "{ctx}: fs stall fraction"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random (workload, nproc, block pair), a batch over the N and C
    /// versions at both blocks is bit-identical to per-cell
    /// `run_pipeline` on every statistic.
    #[test]
    fn batch_equals_reference_pipeline(
        wi in 0usize..6,
        bi in 0usize..6,
        bj in 0usize..6,
        nproc in 2i64..5,
    ) {
        let set = fsr_workloads::figure3_set();
        let w = &set[wi % set.len()];
        let src: Arc<str> = Arc::from(w.source);
        let params = [("NPROC", nproc), ("SCALE", 1)];

        let mut jobs: Vec<Job<String>> = Vec::new();
        let mut reference: Vec<RunResult> = Vec::new();
        for &b in &[BLOCKS[bi % 6], BLOCKS[bj % 6]] {
            for plan in [PlanSource::Unoptimized, PlanSource::Compiler] {
                let cfg = PipelineConfig::with_block(b);
                reference.push(run_pipeline(w.source, &params, plan.clone(), &cfg).unwrap());
                jobs.push(Job::new(
                    format!("{}/{b}/{plan:?}", w.name),
                    src.clone(),
                    &params,
                    spec_of(&plan),
                    cfg,
                ));
            }
        }

        let (out, stats) = run_batch_with_stats(jobs, 1);
        prop_assert_eq!(stats.front_ends, 1);
        prop_assert!(stats.trace_groups <= stats.jobs);
        for ((job, got), want) in out.iter().zip(&reference) {
            assert_same(want, got.as_ref().unwrap(), &job.meta);
        }
    }
}

const COUNTERS: &str = "param NPROC = 4; shared int c[NPROC];
    fn main() { forall p in 0 .. NPROC { var i;
        for i in 0 .. 200 { c[p] = c[p] + 1; } } }";

#[test]
fn fingerprint_equal_jobs_share_one_interpretation() {
    // Unoptimized layouts never consult the block size, so all six block
    // sizes must collapse into a single trace group — and a single
    // interpreter run.
    let jobs: Vec<Job<u32>> = BLOCKS
        .iter()
        .map(|&b| Job {
            meta: b,
            src: Arc::from(COUNTERS),
            params: vec![],
            plan: PlanSourceSpec::Unoptimized,
            cfg: PipelineConfig::with_block(b),
        })
        .collect();
    let (out, stats) = run_batch_with_stats(jobs, 1);
    assert_eq!(stats.jobs, 6);
    assert_eq!(stats.front_ends, 1);
    assert_eq!(stats.trace_groups, 1, "one shared trace across blocks");
    assert_eq!(stats.interpretations, 1, "exactly one interpreter run");
    assert!(out.iter().all(|(_, r)| r.is_ok()));
    // The shared trace still yields block-dependent simulation results.
    let fs: Vec<u64> = out
        .iter()
        .map(|(_, r)| r.as_ref().unwrap().sim.false_sharing())
        .collect();
    assert!(fs.windows(2).all(|w| w[0] <= w[1]));
    assert!(fs[5] > fs[0], "larger blocks must false-share more");
}

#[test]
fn block_dependent_plans_translate_into_one_pass() {
    // A padded (compiler) layout changes with the block size: each block
    // keeps its own trace group. But all three layouts are direct-only,
    // so address translation merges them into ONE interpreter pass — and
    // statistics must still match the reference path exactly.
    let jobs: Vec<Job<u32>> = [16u32, 64, 256]
        .iter()
        .map(|&b| Job {
            meta: b,
            src: Arc::from(COUNTERS),
            params: vec![],
            plan: PlanSourceSpec::Compiler,
            cfg: PipelineConfig::with_block(b),
        })
        .collect();
    let (out, stats) = run_batch_with_stats(jobs, 1);
    assert_eq!(stats.trace_groups, 3, "distinct padded address maps");
    assert_eq!(stats.interpretations, 1, "translated into one pass");
    for (job, r) in &out {
        let got = r.as_ref().unwrap();
        let want = run_pipeline(
            COUNTERS,
            &[],
            PlanSource::Compiler,
            &PipelineConfig::with_block(job.meta),
        )
        .unwrap();
        assert_same(&want, got, &format!("block {}", job.meta));
    }
}

#[test]
fn indirection_groups_keep_their_own_pass() {
    // First-touch arena allocation is interpreter state, not a static
    // address map: indirected layouts must never share a translated pass.
    let src = "param NPROC = 4; shared int first[NPROC + 1]; shared int d[256];
        fn main() {
            var q;
            for q in 0 .. NPROC + 1 { first[q] = q * 64; }
            forall p in 0 .. NPROC { var i; var t;
                for t in 0 .. 50 {
                for i in first[p] .. first[p + 1] { d[i] = d[i] + 1; } }
            }
        }";
    let jobs: Vec<Job<u32>> = [16u32, 64]
        .iter()
        .map(|&b| Job {
            meta: b,
            src: Arc::from(src),
            params: vec![],
            plan: PlanSourceSpec::Compiler,
            cfg: PipelineConfig::with_block(b),
        })
        .collect();
    let (out, stats) = run_batch_with_stats(jobs, 1);
    assert_eq!(stats.trace_groups, 2);
    assert_eq!(stats.interpretations, 2, "indirection is never translated");
    for (job, r) in &out {
        let got = r.as_ref().unwrap();
        let want = run_pipeline(
            src,
            &[],
            PlanSource::Compiler,
            &PipelineConfig::with_block(job.meta),
        )
        .unwrap();
        assert_same(&want, got, &format!("block {}", job.meta));
    }
}

#[test]
fn batch_caches_front_ends_across_plan_variants() {
    let mut jobs: Vec<Job<&'static str>> = Vec::new();
    let src: Arc<str> = Arc::from(COUNTERS);
    for (tag, plan) in [
        ("unopt", PlanSourceSpec::Unoptimized),
        ("compiler", PlanSourceSpec::Compiler),
    ] {
        for &b in &[32u32, 128] {
            jobs.push(Job {
                meta: tag,
                src: src.clone(),
                params: vec![],
                plan: plan.clone(),
                cfg: PipelineConfig::with_block(b),
            });
        }
    }
    let (out, stats) = run_batch_with_stats(jobs, 1);
    assert_eq!(stats.front_ends, 1, "same (source, params) compiled once");
    assert_eq!(stats.analyses, 1, "analysis shared by all compiler jobs");
    assert!(out.iter().all(|(_, r)| r.is_ok()));
}
