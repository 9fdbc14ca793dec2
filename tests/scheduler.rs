//! Schedule-determinism harness for the scheduler axis.
//!
//! The work-stealing schedule is seeded and must be *reproducible*: a
//! fixed `(schedule, seed)` produces bit-identical traces, statistics
//! and batch results no matter how many worker threads the batch uses. And the schedule is a
//! cache axis: jobs that differ only in the steal seed must never
//! collide into one trace group or be served from one another's cached
//! results.

use fsr_core::driver::{run_batch, run_batch_with_stats, Job};
use fsr_core::PlanSource;
use fsr_core::{InterconnectKind, PipelineConfig, ProtocolKind, RunResult, Schedule, World};
use proptest::prelude::*;
use std::sync::Arc;

const WS_SEED: u64 = 0xFEED_FACE;

/// Each protocol on its natural interconnect (directory traffic needs
/// the home-node fabric for its 2/3-hop costs to be exercised).
fn backend_pairs() -> [(ProtocolKind, InterconnectKind); 3] {
    [
        (ProtocolKind::Msi, InterconnectKind::Ksr2Ring),
        (ProtocolKind::Mesi, InterconnectKind::Bus),
        (ProtocolKind::Directory, InterconnectKind::HomeDir),
    ]
}

fn assert_same(want: &RunResult, got: &RunResult, ctx: &str) {
    assert_eq!(want.nproc, got.nproc, "{ctx}: nproc");
    assert_eq!(want.sim, got.sim, "{ctx}: sim stats");
    assert_eq!(want.per_obj, got.per_obj, "{ctx}: per-object misses");
    assert_eq!(
        want.per_obj_coherence, got.per_obj_coherence,
        "{ctx}: per-object coherence"
    );
    assert_eq!(
        want.per_obj_refs, got.per_obj_refs,
        "{ctx}: per-object refs"
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

fn sched_jobs(
    w: &fsr_workloads::Workload,
    nproc: i64,
    backend: (ProtocolKind, InterconnectKind),
    schedule: Schedule,
) -> Vec<Job<String>> {
    let src: Arc<str> = Arc::from(w.source);
    [PlanSource::Unoptimized, PlanSource::Compiler]
        .into_iter()
        .map(|plan| {
            let mut cfg = PipelineConfig::with_block(128).with_backends(backend.0, backend.1);
            cfg.run.schedule = schedule;
            Job::new(
                format!("{}/{:?}/{:?}/{plan:?}", w.name, backend.0, schedule),
                src.clone(),
                &[("NPROC", nproc), ("SCALE", 1)],
                plan,
                cfg,
            )
        })
        .collect()
}

fn results(out: fsr_core::driver::JobResults<String>) -> Vec<(String, RunResult)> {
    out.into_iter()
        .map(|(j, r)| {
            let r = r.unwrap_or_else(|e| panic!("{}: {e:?}", j.meta));
            (j.meta, r)
        })
        .collect()
}

/// Acceptance gate: under a fixed steal seed, every workload × every
/// protocol backend is bit-identical across batch worker counts.
#[test]
fn work_steal_fixed_seed_is_bit_identical_across_batch_widths() {
    let sched = Schedule::WorkSteal { seed: WS_SEED };
    for w in fsr_workloads::all() {
        for backend in backend_pairs() {
            let want = results(run_batch(sched_jobs(&w, 4, backend, sched), 1));
            // A wider worker pool runs the same schedule.
            let wide = results(run_batch(sched_jobs(&w, 4, backend, sched), 2));
            for ((ctx, a), (_, b)) in want.iter().zip(&wide) {
                assert_same(a, b, &format!("{ctx} on 2 workers"));
            }
        }
    }
}

/// An explicit `Schedule::RoundRobin` is the default: same results as a
/// config that never mentions the schedule, and it never steals.
#[test]
fn round_robin_is_the_default_and_never_steals() {
    let w = fsr_workloads::by_name("maxflow").unwrap();
    let backend = backend_pairs()[0];
    let default_cfg = results(run_batch(
        {
            let src: Arc<str> = Arc::from(w.source);
            vec![Job::new(
                "default".to_string(),
                src,
                &[("NPROC", 4), ("SCALE", 1)],
                PlanSource::Unoptimized,
                PipelineConfig::with_block(128).with_backends(backend.0, backend.1),
            )]
        },
        1,
    ));
    let explicit = results(run_batch(
        sched_jobs(&w, 4, backend, Schedule::RoundRobin),
        1,
    ));
    assert_same(&default_cfg[0].1, &explicit[0].1, "explicit rr vs default");
    assert_eq!(explicit[0].1.interp.steals, 0, "round-robin never steals");
    assert_eq!(explicit[0].1.timing.steal_joins, 0, "no joins either");
}

/// Cache-key soundness inside one batch: two jobs identical except for
/// the steal seed must land in two trace groups and cost two
/// interpreter passes, while same-seed jobs that differ only in block
/// size (same packed layout) still share one group and one pass.
#[test]
fn distinct_seeds_split_trace_groups_same_seed_shares() {
    let w = fsr_workloads::by_name("pverify").unwrap();
    let backend = backend_pairs()[0];
    let a = Schedule::WorkSteal { seed: 7 };
    let b = Schedule::WorkSteal { seed: 8 };

    // Same seed, two block sizes, packed layout: the trace is
    // layout-identical, so one group and one interpretation serve both.
    let same_seed: Vec<Job<String>> = [64u32, 128]
        .into_iter()
        .map(|blk| {
            let src: Arc<str> = Arc::from(w.source);
            let mut cfg = PipelineConfig::with_block(blk).with_backends(backend.0, backend.1);
            cfg.run.schedule = a;
            Job::new(
                format!("blk{blk}"),
                src,
                &[("NPROC", 4), ("SCALE", 1)],
                PlanSource::Unoptimized,
                cfg,
            )
        })
        .collect();
    let (_, stats) = run_batch_with_stats(same_seed, 1);
    assert_eq!(stats.trace_groups, 1, "same seed shares the trace group");
    assert_eq!(stats.interpretations, 1, "one pass drives both blocks");

    // Two seeds, unoptimized plan only: two groups, two passes.
    let jobs: Vec<Job<String>> = [a, b]
        .into_iter()
        .flat_map(|s| {
            let mut js = sched_jobs(&w, 4, backend, s);
            js.truncate(1); // unoptimized only
            js
        })
        .collect();
    let (out, stats) = run_batch_with_stats(jobs, 1);
    assert_eq!(
        stats.trace_groups, 2,
        "seeds must not collide into one group"
    );
    assert_eq!(stats.interpretations, 2, "each seed interprets separately");
    assert_eq!(stats.trace_hits, 0, "no cross-seed trace reuse");
    let rs = results(out);
    assert_ne!(
        rs[0].1.interp, rs[1].1.interp,
        "different seeds schedule differently on this workload"
    );
}

/// The persistent `World` layer keys its trace/result caches on the
/// schedule: repeats within one seed are whole-result hits, a new seed
/// is a miss, and the round-robin entry is never served for a
/// work-steal request.
#[test]
fn world_caches_miss_across_seeds_and_hit_within_one() {
    let mut world = World::new();
    world.open("w", fsr_workloads::by_name("mp3d").unwrap().source);
    let run = |world: &World, schedule: Schedule| {
        let snapshot = world.snapshot();
        let mut cfg = PipelineConfig::with_block(128);
        cfg.run.schedule = schedule;
        let job = Job::new(
            format!("{schedule:?}"),
            snapshot.doc("w").unwrap(),
            &[("NPROC", 4), ("SCALE", 1)],
            PlanSource::Unoptimized,
            cfg,
        );
        let (out, stats) = snapshot.run_batch_with_stats(vec![job], 1);
        (results(out).remove(0).1, stats)
    };

    let ws1 = Schedule::WorkSteal { seed: 11 };
    let ws2 = Schedule::WorkSteal { seed: 12 };
    let (r_cold, s_cold) = run(&world, ws1);
    assert_eq!(s_cold.interpretations, 1, "cold seed interprets");
    let (r_warm, s_warm) = run(&world, ws1);
    assert_eq!(s_warm.result_hits, 1, "same seed is a whole-result hit");
    assert_eq!(s_warm.interpretations, 0);
    assert_same(&r_cold, &r_warm, "cached result is the same result");

    let (_, s_other) = run(&world, ws2);
    assert_eq!(s_other.result_hits, 0, "new seed must miss");
    assert_eq!(s_other.interpretations, 1);
    let (_, s_rr) = run(&world, Schedule::RoundRobin);
    assert_eq!(s_rr.result_hits, 0, "rr is yet another key");
    assert_eq!(s_rr.interpretations, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any two distinct seeds split into distinct trace groups — the
    /// fingerprint can never alias two schedules — and a re-run of
    /// either seed alone is bit-identical to its half of the pair.
    #[test]
    fn distinct_seeds_never_collide(s1 in 0u64..1_000_000, delta in 1u64..1_000_000) {
        let s2 = s1.wrapping_add(delta);
        let w = fsr_workloads::by_name("radiosity").unwrap();
        let backend = backend_pairs()[1];
        let mk = |seed| {
            let mut js = sched_jobs(&w, 3, backend, Schedule::WorkSteal { seed });
            js.truncate(1);
            js.remove(0)
        };
        let (out, stats) = run_batch_with_stats(vec![mk(s1), mk(s2)], 1);
        prop_assert_eq!(stats.trace_groups, 2);
        prop_assert_eq!(stats.interpretations, 2);
        prop_assert_eq!(stats.trace_hits, 0);
        let pair = results(out);
        let solo = results(run_batch(vec![mk(s1)], 1));
        assert_same(&pair[0].1, &solo[0].1, "seed rerun reproduces exactly");
    }
}
