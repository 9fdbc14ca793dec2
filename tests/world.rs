//! The persistent `World` layer: content-addressed sharing across
//! snapshots, whole-result serving on repeat requests, and *surgical*
//! invalidation — editing one of N open sources must recompile and
//! re-interpret only the entries that content touched, observed through
//! each run's `BatchStats` and through `Arc` pointer identity of the
//! untouched front ends.

use fsr_core::driver::Job;
use fsr_core::PlanSource;
use fsr_core::{LayoutPlan, ObjPlan, PipelineConfig, World};
use std::sync::Arc;

/// Three distinct little programs — distinct contents, so the world
/// holds three independent front ends.
fn source(reps: u32) -> String {
    format!(
        "param NPROC = 2; shared int c[NPROC];
         fn main() {{ forall p in 0 .. NPROC {{ var i;
             for i in 0 .. {reps} {{ c[p] = c[p] + 1; }} }} }}"
    )
}

fn job(src: &Arc<str>, meta: usize) -> Job<usize> {
    Job {
        meta,
        src: src.clone(),
        params: vec![],
        plan: PlanSource::Unoptimized,
        cfg: PipelineConfig::with_block(64),
    }
}

fn run_all(world: &World, docs: &[&str]) -> (Vec<u64>, fsr_core::driver::BatchStats) {
    let snapshot = world.snapshot();
    let jobs: Vec<Job<usize>> = docs
        .iter()
        .enumerate()
        .map(|(i, name)| job(&snapshot.doc(name).expect("doc open"), i))
        .collect();
    let (out, stats) = snapshot.run_batch_with_stats(jobs, 1);
    let cycles = out
        .into_iter()
        .map(|(_, r)| r.expect("clean run").exec_cycles)
        .collect();
    (cycles, stats)
}

#[test]
fn editing_one_source_recompiles_only_that_entry() {
    let mut world = World::new();
    let docs = ["a", "b", "c"];
    for (i, name) in docs.iter().enumerate() {
        world.open(name, source(40 + 10 * i as u32));
    }

    // Cold: every doc compiles and interprets once.
    let (cold, stats) = run_all(&world, &docs);
    assert_eq!(stats.front_ends, 3, "three distinct contents compile");
    assert_eq!(stats.interpretations, 3);
    assert_eq!(stats.trace_hits, 0, "nothing recorded yet");

    // Warm repeat: the whole batch is served from the result cache —
    // zero interpreter passes, zero front-end work, identical results.
    let (warm, stats) = run_all(&world, &docs);
    assert_eq!(stats.result_hits, 3, "all three served whole");
    assert_eq!(stats.front_ends + stats.fe_hits, 0);
    assert_eq!(stats.interpretations, 0, "no interpreter runs");
    assert_eq!(stats.trace_hits, 0, "no trace replays either");
    assert_eq!(cold, warm);

    // Hold the untouched front-end Arcs across the edit.
    let snapshot = world.snapshot();
    let fe_b = snapshot
        .front_end(&snapshot.doc("b").unwrap(), &[])
        .unwrap();
    let fe_c = snapshot
        .front_end(&snapshot.doc("c").unwrap(), &[])
        .unwrap();

    // Edit doc "a": exactly its cached artifacts fall out.
    let evicted = world.change("a", source(99)).expect("doc is open");
    assert_eq!(evicted.front_ends, 1, "only the edited content evicts");
    assert_eq!(evicted.results, 1);

    // Re-run all three: only "a" recompiles and re-interprets; "b" and
    // "c" are still whole-result hits backed by the same Arcs.
    let (after_edit, stats) = run_all(&world, &docs);
    assert_eq!(stats.front_ends, 1, "one fresh compile");
    assert_eq!(stats.interpretations, 1, "one fresh interpretation");
    assert_eq!(stats.result_hits, 2, "untouched entries served whole");
    assert_eq!(stats.trace_hits, 0, "the edited content has no trace");
    assert_ne!(after_edit[0], cold[0], "edited program really changed");
    assert_eq!(after_edit[1..], cold[1..], "untouched results unchanged");

    let snapshot = world.snapshot();
    let fe_b2 = snapshot
        .front_end(&snapshot.doc("b").unwrap(), &[])
        .unwrap();
    let fe_c2 = snapshot
        .front_end(&snapshot.doc("c").unwrap(), &[])
        .unwrap();
    assert!(
        Arc::ptr_eq(&fe_b, &fe_b2),
        "b's front end survived the edit"
    );
    assert!(
        Arc::ptr_eq(&fe_c, &fe_c2),
        "c's front end survived the edit"
    );
}

#[test]
fn reverting_an_edit_is_a_fresh_compile_not_a_hit() {
    // The cache is keyed by content: an edit away and back evicts on
    // each transition, so the revert recompiles — no stale artifacts
    // from the intermediate content survive it.
    let mut world = World::new();
    world.open("a", source(40));
    let (first, _) = run_all(&world, &["a"]);
    world.change("a", source(99)).unwrap();
    run_all(&world, &["a"]);
    let evicted = world.change("a", source(40)).unwrap();
    assert_eq!(evicted.front_ends, 1, "the 99-rep content evicts");
    let (reverted, stats) = run_all(&world, &["a"]);
    assert_eq!(stats.front_ends, 1, "revert recompiles from source");
    assert_eq!(stats.interpretations, 1, "revert re-interprets");
    assert_eq!(stats.trace_hits, 0, "no stale trace survives the edits");
    assert_eq!(reverted, first, "reverted content reproduces old results");
}

#[test]
fn two_docs_sharing_content_share_one_front_end() {
    let mut world = World::new();
    world.open("x", source(50));
    world.open("y", source(50));
    let snapshot = world.snapshot();
    let fx = snapshot
        .front_end(&snapshot.doc("x").unwrap(), &[])
        .unwrap();
    let fy = snapshot
        .front_end(&snapshot.doc("y").unwrap(), &[])
        .unwrap();
    assert!(Arc::ptr_eq(&fx, &fy), "same content, same artifacts");
    // Editing one name must NOT evict the content the other still holds.
    let evicted = world.change("x", source(51)).unwrap();
    assert_eq!(evicted.total(), 0, "content still referenced by `y`");
    let snapshot = world.snapshot();
    let fy2 = snapshot
        .front_end(&snapshot.doc("y").unwrap(), &[])
        .unwrap();
    assert!(Arc::ptr_eq(&fy, &fy2));
}

#[test]
fn result_cache_keys_explicit_plans_apart() {
    // The result-cache key renders the plan source with `Debug`; two
    // explicit plans that differ in one directive must never share an
    // entry.
    let world = World::new();
    let snapshot = world.snapshot();
    let src: Arc<str> = Arc::from(source(50));
    let fe = snapshot.front_end(&src, &[]).unwrap();
    let (c, _) = fe.prog.object_by_name("c").unwrap();
    let packed = LayoutPlan::unoptimized(64);
    let mut padded = packed.clone();
    padded.insert(c, ObjPlan::PadElems, "test");
    let run = |plan: &LayoutPlan| {
        let job = Job {
            plan: PlanSource::Explicit(plan.clone()),
            ..job(&src, 0)
        };
        let (mut out, stats) = snapshot.run_batch_with_stats(vec![job], 1);
        (out.remove(0).1.expect("clean run"), stats.result_hits)
    };

    let (first, hits) = run(&packed);
    assert_eq!(hits, 0);
    let (second, hits) = run(&padded);
    assert_eq!(hits, 0, "a different directive is a different job");
    assert!(first.sim.false_sharing() > 0);
    assert_eq!(second.sim.false_sharing(), 0, "served its own result");
    let (again, hits) = run(&packed);
    assert_eq!(hits, 1, "the first plan is served from the cache");
    assert_eq!(again.sim, first.sim);
}
