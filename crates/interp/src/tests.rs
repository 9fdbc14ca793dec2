//! Interpreter behaviour tests: semantics, synchronization, trace
//! content, error handling, and the layout-independence property.

use crate::*;
use fsr_transform::LayoutPlan;

fn exec(src: &str, nproc: u32) -> (fsr_lang::Program, fsr_layout::Layout, FinalState, VecSink) {
    let prog = fsr_lang::compile(src).unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, nproc);
    let code = compile_program(&prog).unwrap();
    let mut sink = VecSink::default();
    let fin = run(&prog, &layout, &code, RunConfig::default(), &mut sink).unwrap();
    (prog, layout, fin, sink)
}

fn value_of(
    prog: &fsr_lang::Program,
    layout: &fsr_layout::Layout,
    fin: &FinalState,
    name: &str,
    flat: u64,
) -> i32 {
    let (oid, _) = prog.object_by_name(name).unwrap();
    match layout.resolve(oid, flat, None, 0) {
        fsr_layout::Resolved::Direct(a) => fin.mem[a as usize],
        fsr_layout::Resolved::Indirect { ptr, off, .. } => {
            let t = fin.mem[ptr as usize];
            if t == 0 {
                0
            } else {
                fin.mem[(t as u32 + off) as usize]
            }
        }
    }
}

#[test]
fn per_proc_increments_land() {
    let (p, l, fin, _) = exec(
        "param NPROC = 4; shared int c[NPROC];
         fn main() { forall p in 0 .. NPROC { var i;
             for i in 0 .. 10 { c[p] = c[p] + 1; } } }",
        4,
    );
    for e in 0..4 {
        assert_eq!(value_of(&p, &l, &fin, "c", e), 10);
    }
}

#[test]
fn serial_prologue_runs_once() {
    let (p, l, fin, _) = exec(
        "param NPROC = 4; shared int a[8];
         fn main() {
             var i;
             for i in 0 .. 8 { a[i] = i * 2; }
             forall p in 0 .. NPROC { }
         }",
        4,
    );
    for e in 0..8 {
        assert_eq!(value_of(&p, &l, &fin, "a", e), (e * 2) as i32);
    }
}

#[test]
fn locks_serialize_increments() {
    let (p, l, fin, _) = exec(
        "param NPROC = 4; shared lock lk; shared int total;
         fn main() { forall p in 0 .. NPROC { var i;
             for i in 0 .. 25 {
                 lock(lk); total = total + 1; unlock(lk);
             } } }",
        4,
    );
    assert_eq!(value_of(&p, &l, &fin, "total", 0), 100);
}

#[test]
fn barrier_orders_phases() {
    // Each proc writes its slot; after the barrier everyone reads the
    // sum — correct only if the barrier actually synchronizes.
    let (p, l, fin, _) = exec(
        "param NPROC = 4; shared int v[NPROC]; shared int sums[NPROC];
         fn main() { forall p in 0 .. NPROC {
             v[p] = p + 1;
             barrier;
             var i; var s = 0;
             for i in 0 .. NPROC { s = s + v[i]; }
             sums[p] = s;
         } }",
        4,
    );
    for e in 0..4 {
        assert_eq!(value_of(&p, &l, &fin, "sums", e), 10);
    }
}

#[test]
fn fork_copies_master_locals() {
    let (p, l, fin, _) = exec(
        "param NPROC = 3; shared int out[NPROC];
         fn main() {
             var base = 100;
             forall p in 0 .. NPROC { out[p] = base + p; }
         }",
        3,
    );
    for e in 0..3 {
        assert_eq!(value_of(&p, &l, &fin, "out", e), 100 + e as i32);
    }
}

#[test]
fn functions_and_returns() {
    let (p, l, fin, _) = exec(
        "param NPROC = 2; shared int out[NPROC];
         fn fib(int n) {
             var a = 0; var b = 1; var i;
             for i in 0 .. n { var t = a + b; a = b; b = t; }
             return a;
         }
         fn main() { forall p in 0 .. NPROC { out[p] = fib(10 + p); } }",
        2,
    );
    assert_eq!(value_of(&p, &l, &fin, "out", 0), 55);
    assert_eq!(value_of(&p, &l, &fin, "out", 1), 89);
}

#[test]
fn struct_fields_roundtrip() {
    let (p, l, fin, _) = exec(
        "param NPROC = 2; struct N { int a; int b[2]; } shared N ns[4];
         fn main() { forall p in 0 .. NPROC {
             ns[p].a = p + 1;
             ns[p].b[0] = 10 * (p + 1);
             ns[p].b[1] = ns[p].b[0] + ns[p].a;
         } }",
        2,
    );
    let (oid, _) = p.object_by_name("ns").unwrap();
    let get = |e: u64, f: u32, fi: u32| {
        let r = l.resolve(oid, e, Some((fsr_lang::ast::FieldId(f), fi)), 0);
        match r {
            fsr_layout::Resolved::Direct(a) => fin.mem[a as usize],
            _ => panic!(),
        }
    };
    assert_eq!(get(1, 0, 0), 2);
    assert_eq!(get(1, 1, 0), 20);
    assert_eq!(get(1, 1, 1), 22);
}

#[test]
fn private_arrays_are_independent() {
    let (p, l, fin, _) = exec(
        "param NPROC = 3; private int t[4]; shared int out[NPROC];
         fn main() { forall p in 0 .. NPROC {
             t[0] = p * 7;
             barrier;
             out[p] = t[0];
         } }",
        3,
    );
    for e in 0..3 {
        assert_eq!(value_of(&p, &l, &fin, "out", e), (e * 7) as i32);
    }
}

#[test]
fn prand_is_deterministic_and_nonnegative() {
    let (p, l, fin, _) = exec(
        "param NPROC = 2; shared int out[NPROC]; shared int chk[NPROC];
         fn main() { forall p in 0 .. NPROC {
             out[p] = prand(p) % 100;
             chk[p] = prand(p) % 100;
         } }",
        2,
    );
    for e in 0..2 {
        let a = value_of(&p, &l, &fin, "out", e);
        let b = value_of(&p, &l, &fin, "chk", e);
        assert_eq!(a, b);
        assert!(a >= 0);
    }
}

#[test]
fn trace_contains_lock_traffic() {
    let prog = fsr_lang::compile(
        "param NPROC = 4; shared lock lk; shared int x;
         fn main() { forall p in 0 .. NPROC { var i;
             for i in 0 .. 10 { lock(lk); x = x + 1; unlock(lk); } } }",
    )
    .unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 4);
    let code = compile_program(&prog).unwrap();
    let mut sink = VecSink::default();
    // Probe every round so the contention is visible in the trace.
    let cfg = RunConfig {
        spin_probe_period: 1,
        ..Default::default()
    };
    let fin = run(&prog, &layout, &code, cfg, &mut sink).unwrap();
    assert!(fin.stats.lock_acquires >= 40);
    assert!(fin.stats.spin_rereads > 0, "contended locks must spin");
    assert!(!sink.0.is_empty());
}

#[test]
fn gaps_count_compute_between_refs() {
    let (_, _, _, sink) = exec(
        "param NPROC = 1; shared int a;
         fn main() { forall p in 0 .. 1 {
             var x = 1 + 2 + 3 + 4;
             a = x;
         } }",
        1,
    );
    // The store to `a` must carry a nonzero gap (the arithmetic).
    let st = sink.0.iter().find(|r| r.write).unwrap();
    assert!(st.gap > 2);
}

#[test]
fn out_of_bounds_is_runtime_error() {
    let prog = fsr_lang::compile(
        "param NPROC = 2; shared int a[4];
         fn main() { forall p in 0 .. NPROC { a[p + 4] = 1; } }",
    )
    .unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 2);
    let code = compile_program(&prog).unwrap();
    let mut sink = VecSink::default();
    let err = run(&prog, &layout, &code, RunConfig::default(), &mut sink).unwrap_err();
    assert!(err.msg.contains("out of bounds"), "{}", err.msg);
}

#[test]
fn division_by_zero_is_runtime_error() {
    let prog = fsr_lang::compile(
        "param NPROC = 1; shared int a;
         fn main() { forall p in 0 .. 1 { a = 1 / p; } }",
    )
    .unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 1);
    let code = compile_program(&prog).unwrap();
    let err = run(
        &prog,
        &layout,
        &code,
        RunConfig::default(),
        &mut VecSink::default(),
    )
    .unwrap_err();
    assert!(err.msg.contains("division"));
}

#[test]
fn step_limit_catches_infinite_loops() {
    let prog = fsr_lang::compile(
        "param NPROC = 1; shared int a;
         fn main() { forall p in 0 .. 1 { while (1) { a = a + 1; } } }",
    )
    .unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 1);
    let code = compile_program(&prog).unwrap();
    let cfg = RunConfig {
        max_steps: 10_000,
        ..Default::default()
    };
    let err = run(&prog, &layout, &code, cfg, &mut VecSink::default()).unwrap_err();
    assert!(err.msg.contains("step limit"));
}

#[test]
fn semantics_identical_across_plans() {
    // The core property: final logical memory is independent of the
    // layout plan (here: unoptimized vs compiler plan).
    let src = "param NPROC = 4; shared int c[NPROC]; shared lock lk;
         shared int total; shared int hist[16][NPROC];
         fn main() { forall p in 0 .. NPROC { var i;
             for i in 0 .. 32 {
                 c[p] = c[p] + 1;
                 hist[i % 16][p] = hist[i % 16][p] + p;
                 lock(lk); total = total + 1; unlock(lk);
             }
         } }";
    let prog = fsr_lang::compile(src).unwrap();
    let code = compile_program(&prog).unwrap();

    let base_plan = LayoutPlan::unoptimized(64);
    let base_layout = fsr_layout::Layout::build(&prog, &base_plan, 4);
    let base = run(
        &prog,
        &base_layout,
        &code,
        RunConfig::default(),
        &mut CountingSink::default(),
    )
    .unwrap();

    let analysis = fsr_analysis::analyze(&prog).unwrap();
    let plan =
        fsr_transform::plan_for(&prog, &analysis, &fsr_transform::PlanConfig::with_block(64));
    assert!(!plan.is_empty());
    let opt_layout = fsr_layout::Layout::build(&prog, &plan, 4);
    let opt = run(
        &prog,
        &opt_layout,
        &code,
        RunConfig::default(),
        &mut CountingSink::default(),
    )
    .unwrap();

    assert_eq!(
        base.logical_snapshot(&prog, &base_layout),
        opt.logical_snapshot(&prog, &opt_layout)
    );
}

#[test]
fn breaks_and_continues_execute_correctly() {
    let (p, l, fin, _) = exec(
        "param NPROC = 1; shared int out;
         fn main() { forall p in 0 .. 1 {
             var i; var s = 0;
             for i in 0 .. 10 {
                 if (i % 2 == 1) { continue; }
                 if (i == 8) { break; }
                 s = s + i;
             }
             out = s;
         } }",
        1,
    );
    // 0 + 2 + 4 + 6 = 12
    assert_eq!(value_of(&p, &l, &fin, "out", 0), 12);
}

#[test]
fn negative_step_counts_down() {
    let (p, l, fin, _) = exec(
        "param NPROC = 1; shared int out;
         fn main() { forall p in 0 .. 1 {
             var i; var s = 0;
             for i in 5 .. 0 step -1 { s = s + i; }
             out = s;
         } }",
        1,
    );
    // 5+4+3+2+1 = 15
    assert_eq!(value_of(&p, &l, &fin, "out", 0), 15);
}

#[test]
fn short_circuit_avoids_side_effects() {
    let (p, l, fin, _) = exec(
        "param NPROC = 1; shared int a[2]; shared int touched;
         fn probe() { touched = touched + 1; return 1; }
         fn main() { forall p in 0 .. 1 {
             if (0 && probe()) { a[0] = 1; }
             if (1 || probe()) { a[1] = 1; }
         } }",
        1,
    );
    assert_eq!(value_of(&p, &l, &fin, "touched", 0), 0);
    assert_eq!(value_of(&p, &l, &fin, "a", 1), 1);
}

#[test]
fn indirection_access_works_end_to_end() {
    // Compiler plan indirects `d`; values must still round-trip.
    let src = "param NPROC = 4; shared int first[NPROC + 1]; shared int d[64];
         fn main() {
             var q;
             for q in 0 .. NPROC + 1 { first[q] = q * 16; }
             forall p in 0 .. NPROC { var i; var t;
                 for t in 0 .. 10 {
                     for i in first[p] .. first[p + 1] { d[i] = d[i] + 1; }
                 }
             }
         }";
    let prog = fsr_lang::compile(src).unwrap();
    let analysis = fsr_analysis::analyze(&prog).unwrap();
    let plan =
        fsr_transform::plan_for(&prog, &analysis, &fsr_transform::PlanConfig::with_block(64));
    let (d, _) = prog.object_by_name("d").unwrap();
    assert!(matches!(
        plan.get(d),
        Some(fsr_transform::ObjPlan::Indirect { .. })
    ));
    let layout = fsr_layout::Layout::build(&prog, &plan, 4);
    let code = compile_program(&prog).unwrap();
    let fin = run(
        &prog,
        &layout,
        &code,
        RunConfig::default(),
        &mut CountingSink::default(),
    )
    .unwrap();
    for e in 0..64 {
        assert_eq!(value_of(&prog, &layout, &fin, "d", e), 10, "element {e}");
    }
}

/// Sink that records sync/handoff/steal events.
#[derive(Default)]
struct EventSink {
    refs: u64,
    syncs: Vec<Vec<u32>>,
    handoffs: Vec<(u32, u32)>,
    steals: Vec<(u32, u32)>,
}

impl TraceSink for EventSink {
    fn access(&mut self, _r: MemRef) {
        self.refs += 1;
    }
    fn sync(&mut self, pids: &[u32]) {
        self.syncs.push(pids.to_vec());
    }
    fn handoff(&mut self, from: u32, to: u32) {
        self.handoffs.push((from, to));
    }
    fn steal(&mut self, thief: u32, victim: u32) {
        self.steals.push((thief, victim));
    }
}

#[test]
fn barriers_emit_sync_events() {
    let prog = fsr_lang::compile(
        "param NPROC = 3; shared int a[NPROC];
         fn main() { forall p in 0 .. NPROC {
             a[p] = 1; barrier; a[p] = 2; barrier;
         } }",
    )
    .unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 3);
    let code = compile_program(&prog).unwrap();
    let mut sink = EventSink::default();
    run(&prog, &layout, &code, RunConfig::default(), &mut sink).unwrap();
    // spawn + 2 barriers + join = at least 4 syncs; barrier releases
    // cover all 3 processes.
    assert!(sink.syncs.len() >= 4, "{:?}", sink.syncs);
    assert!(sink.syncs.iter().any(|s| s.len() == 3));
}

#[test]
fn contended_locks_emit_handoffs() {
    let prog = fsr_lang::compile(
        "param NPROC = 4; shared lock lk; shared int x;
         fn main() { forall p in 0 .. NPROC { var i;
             for i in 0 .. 5 { lock(lk); x = x + 1; unlock(lk); } } }",
    )
    .unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 4);
    let code = compile_program(&prog).unwrap();
    let mut sink = EventSink::default();
    run(&prog, &layout, &code, RunConfig::default(), &mut sink).unwrap();
    assert!(!sink.handoffs.is_empty());
    // A hand-off never names the same process on both sides.
    assert!(sink.handoffs.iter().all(|(f, t)| f != t));
}

#[test]
fn uncontended_lock_reacquisition_by_same_proc_has_no_handoff() {
    let prog = fsr_lang::compile(
        "param NPROC = 1; shared lock lk; shared int x;
         fn main() { forall p in 0 .. 1 { var i;
             for i in 0 .. 5 { lock(lk); x = x + 1; unlock(lk); } } }",
    )
    .unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 1);
    let code = compile_program(&prog).unwrap();
    let mut sink = EventSink::default();
    run(&prog, &layout, &code, RunConfig::default(), &mut sink).unwrap();
    assert!(sink.handoffs.is_empty());
}

const TEE_SRC: &str = "param NPROC = 4; shared lock lk; shared int c[NPROC]; shared int x;
     fn main() { forall p in 0 .. NPROC { var i;
         for i in 0 .. 20 { c[p] = c[p] + 1; }
         lock(lk); x = x + 1; unlock(lk); } }";

fn tee_fixture() -> (fsr_lang::Program, fsr_layout::Layout, Compiled) {
    let prog = fsr_lang::compile(TEE_SRC).unwrap();
    let layout = fsr_layout::Layout::build(&prog, &LayoutPlan::unoptimized(64), 4);
    let code = compile_program(&prog).unwrap();
    (prog, layout, code)
}

#[test]
fn tee_sink_forwards_every_event_to_every_inner_sink() {
    let (prog, layout, code) = tee_fixture();
    let mut direct = RecordedTrace::default();
    let fin1 = run(&prog, &layout, &code, RunConfig::default(), &mut direct).unwrap();

    let mut tee = TeeSink::new(vec![RecordedTrace::default(), RecordedTrace::default()]);
    let fin2 = run(&prog, &layout, &code, RunConfig::default(), &mut tee).unwrap();

    assert_eq!(fin1.stats, fin2.stats, "interpretation is sink-independent");
    let inner = tee.into_inner();
    assert!(!direct.events.is_empty());
    assert!(direct
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Sync(_))));
    for s in &inner {
        assert_eq!(s.events, direct.events, "each fan-out sees the full stream");
    }
}

#[test]
fn recorded_trace_replay_reproduces_the_stream() {
    let (prog, layout, code) = tee_fixture();
    let mut rec = RecordedTrace::default();
    run(&prog, &layout, &code, RunConfig::default(), &mut rec).unwrap();

    let mut replayed = RecordedTrace::default();
    rec.replay(&mut replayed);
    assert_eq!(rec.events, replayed.events);

    // Replaying only accesses into a VecSink matches a direct VecSink run.
    let mut vec_direct = VecSink::default();
    run(&prog, &layout, &code, RunConfig::default(), &mut vec_direct).unwrap();
    let mut vec_replayed = VecSink::default();
    rec.replay(&mut vec_replayed);
    assert_eq!(vec_direct.0, vec_replayed.0);
}

/// A kernel with barrier skew and lock contention: processes block at
/// different times, so the work-stealing deques go out of balance and
/// steals actually happen.
const STEALY: &str = "param NPROC = 4;
    shared int c[NPROC]; shared lock lk; shared int total;
    fn main() { forall p in 0 .. NPROC { var i; var j;
        for i in 0 .. (5 + p * 7) { c[p] = c[p] + 1; }
        barrier;
        for j in 0 .. 10 { lock(lk); total = total + 1; unlock(lk); }
        barrier;
        for i in 0 .. (20 - p * 4) { c[p] = c[p] + 1; }
    } }";

fn run_sched(src: &str, nproc: u32, schedule: Schedule) -> (RecordedTrace, FinalState) {
    let prog = fsr_lang::compile(src).unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, nproc);
    let code = compile_program(&prog).unwrap();
    let mut rec = RecordedTrace::default();
    let cfg = RunConfig {
        schedule,
        ..RunConfig::default()
    };
    let fin = run(&prog, &layout, &code, cfg, &mut rec).unwrap();
    (rec, fin)
}

#[test]
fn work_steal_fixed_seed_is_bit_identical_across_runs() {
    let a = run_sched(STEALY, 4, Schedule::WorkSteal { seed: 42 });
    let b = run_sched(STEALY, 4, Schedule::WorkSteal { seed: 42 });
    assert_eq!(a.0.events, b.0.events, "same seed, same trace");
    assert_eq!(a.1.stats, b.1.stats, "same seed, same stats");
    assert_eq!(a.1.mem, b.1.mem, "same seed, same memory image");
}

#[test]
fn work_steal_emits_steals_that_match_the_counter() {
    let (rec, fin) = run_sched(STEALY, 4, Schedule::WorkSteal { seed: 7 });
    let steal_events = rec
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Steal { .. }))
        .count() as u64;
    assert!(fin.stats.steals > 0, "imbalanced kernel must steal");
    assert_eq!(steal_events, fin.stats.steals);
    for e in &rec.events {
        if let TraceEvent::Steal { thief, victim } = e {
            assert_ne!(thief, victim, "no self-steals");
            assert!(*thief < 4 && *victim < 4, "worker ids in range");
        }
    }
}

#[test]
fn work_steal_preserves_program_semantics() {
    let prog = fsr_lang::compile(STEALY).unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 4);
    let (_, rr) = run_sched(STEALY, 4, Schedule::RoundRobin);
    for seed in [1u64, 99, 0xdead_beef] {
        let (_, ws) = run_sched(STEALY, 4, Schedule::WorkSteal { seed });
        assert_eq!(
            rr.logical_snapshot(&prog, &layout),
            ws.logical_snapshot(&prog, &layout),
            "schedule must not change program results (seed {seed})"
        );
    }
}

#[test]
fn different_steal_seeds_produce_different_traces() {
    let a = run_sched(STEALY, 4, Schedule::WorkSteal { seed: 1 });
    let b = run_sched(STEALY, 4, Schedule::WorkSteal { seed: 2 });
    assert_ne!(
        a.0.events, b.0.events,
        "distinct seeds must perturb the interleaving"
    );
}

#[test]
fn round_robin_traces_never_contain_steals() {
    let (rec, fin) = run_sched(STEALY, 4, Schedule::RoundRobin);
    assert_eq!(fin.stats.steals, 0);
    assert!(rec
        .events
        .iter()
        .all(|e| !matches!(e, TraceEvent::Steal { .. })));
}

#[test]
fn explicit_round_robin_matches_the_default_schedule() {
    let prog = fsr_lang::compile(STEALY).unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 4);
    let code = compile_program(&prog).unwrap();
    let mut def = RecordedTrace::default();
    run(&prog, &layout, &code, RunConfig::default(), &mut def).unwrap();
    let (rr, _) = run_sched(STEALY, 4, Schedule::RoundRobin);
    assert_eq!(def.events, rr.events);
}

#[test]
fn work_steal_trace_is_race_free_under_the_steal_edge() {
    // The kernel is fully synchronized (barriers + one lock); replaying
    // a work-stealing trace through the happens-before checker must
    // stay clean on the data words — the steal edge orders migrated
    // tasks' accesses. Lock words race by construction; filter them.
    let prog = fsr_lang::compile(STEALY).unwrap();
    let plan = LayoutPlan::unoptimized(64);
    let layout = fsr_layout::Layout::build(&prog, &plan, 4);
    let (lk, _) = prog.object_by_name("lk").unwrap();
    let (rec, _) = run_sched(STEALY, 4, Schedule::WorkSteal { seed: 3 });
    let mut hb = HbChecker::new(4);
    rec.replay(&mut hb);
    let data_races: Vec<u32> = hb
        .racy_words()
        .iter()
        .copied()
        .filter(|&w| layout.attribute(w) != Some(lk))
        .collect();
    assert!(data_races.is_empty(), "racy data words: {data_races:?}");
}
