//! `cold_run`: serial `fsr_core::run_pipeline` calls with no cache. The
//! ten programs each run as N and C under round-robin and as C under
//! work stealing; every round runs all of them in a seeded order.

use crate::common::{
    cell_key, digest, expect_eq, ws_seed, PaperCells, Reference, Samples, Size, Tally,
};
use crate::compose::{Ctx, LayerCounts, Replayed};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Budget, Phase};
use fsr_core::driver::{run_batch_with_stats, Job};
use fsr_core::experiments::{plan_source, plan_spec, Backend, Vsn};
use fsr_core::{run_pipeline, PipelineConfig, RunResult, Schedule};
use fsr_workloads::Workload;
use std::time::Instant;

pub struct ColdJob {
    pub w: Workload,
    pub vsn: Vsn,
    pub cfg: PipelineConfig,
}

impl ColdJob {
    fn key(&self, size: Size) -> String {
        cell_key(
            size,
            self.w.name,
            self.vsn,
            self.cfg.block_bytes,
            Backend::default(),
            self.cfg.run.schedule,
        )
    }
}

pub struct Setup {
    pub size: Size,
    pub jobs: Vec<ColdJob>,
    reference: Reference,
}

/// The ten programs, or the named subset.
pub fn programs(only: Option<&[&str]>) -> Vec<Workload> {
    fsr_workloads::all()
        .into_iter()
        .filter(|w| only.is_none_or(|o| o.contains(&w.name)))
        .collect()
}

/// Every program must compile at `size` before anything is timed.
pub fn check_programs(ws: &[Workload], size: Size) -> Result<(), String> {
    for w in ws {
        fsr_lang::compile_with_params(w.source, &size.params())
            .map_err(|e| format!("{} does not compile: {e}", w.name))?;
    }
    Ok(())
}

pub fn setup(seed: u64, size: Size, only: Option<&[&str]>) -> Result<Setup, String> {
    let reference = Reference::load()?;
    let ws = programs(only);
    check_programs(&ws, size)?;
    let steal = Schedule::WorkSteal {
        seed: ws_seed(seed),
    };
    let mut jobs = Vec::new();
    for w in ws {
        for (vsn, sched) in [
            (Vsn::N, Schedule::RoundRobin),
            (Vsn::C, Schedule::RoundRobin),
            (Vsn::C, steal),
        ] {
            let mut cfg = PipelineConfig::default();
            cfg.run.schedule = sched;
            jobs.push(ColdJob {
                w: w.clone(),
                vsn,
                cfg,
            });
        }
    }
    Ok(Setup {
        size,
        jobs,
        reference,
    })
}

fn run_one(s: &Setup, j: &ColdJob) -> Result<RunResult, String> {
    run_pipeline(
        j.w.source,
        &s.size.params(),
        plan_source(&j.w, j.vsn),
        &j.cfg,
    )
    .map_err(|e| format!("{}: {e}", j.key(s.size)))
}

/// Job indices of whole rounds, each round in its own seeded order.
fn next_round(s: &Setup, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..s.jobs.len()).collect();
    rng.shuffle(&mut order);
    order
}

pub struct Out {
    pub lat_ms: Samples,
    pub refs: u64,
    pub tally: Tally,
    pub cells: PaperCells,
}

/// The measured phase: one `run_pipeline` job per step.
pub struct Run<'a> {
    s: &'a Setup,
    rng: Rng,
    pending: Vec<usize>,
    rounds: usize,
    digests: Vec<Option<u64>>,
    pub out: Out,
}

impl<'a> Run<'a> {
    pub fn new(s: &'a Setup, seed: u64) -> Run<'a> {
        Run {
            s,
            rng: Rng::new(seed, 1),
            pending: Vec::new(),
            rounds: 0,
            digests: vec![None; s.jobs.len()],
            out: Out {
                lat_ms: Samples::default(),
                refs: 0,
                tally: Tally::default(),
                cells: PaperCells::default(),
            },
        }
    }

    /// End the phase with the batched-equals-single cross-check.
    pub fn finish(mut self) -> Out {
        let check = batched_equals_single(self.s, &mut self.rng, &self.digests);
        self.out.tally.fail_on(check);
        self.out
    }
}

impl Phase for Run<'_> {
    fn step(&mut self) -> bool {
        if self.pending.is_empty() {
            self.pending = next_round(self.s, &mut self.rng);
        }
        let i = self.pending.pop().expect("a round has jobs");
        let (s, j, out) = (self.s, &self.s.jobs[i], &mut self.out);
        let t = Instant::now();
        let r = run_one(s, j);
        let secs = t.elapsed().as_secs_f64();
        out.tally.op(r.as_ref().map(|_| ()).map_err(Clone::clone));
        if let Ok(r) = r {
            out.lat_ms.push(i, secs * 1e3);
            out.refs += r.sim.refs;
            out.tally.fail_on(s.reference.check(&j.key(s.size), &r));
            if j.cfg.run.schedule == Schedule::RoundRobin {
                out.cells
                    .add(j.w.name, j.vsn, r.sim.false_sharing(), r.exec_cycles);
            }
            self.digests[i] = Some(digest(&r));
        }
        if self.pending.is_empty() {
            self.rounds += 1;
        }
        self.pending.is_empty()
    }

    fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Cross-path check: a seeded sample of jobs run through the batch
/// driver must give the digests the single runs gave.
fn batched_equals_single(s: &Setup, rng: &mut Rng, digests: &[Option<u64>]) -> Result<(), String> {
    let picks: Vec<usize> = (0..3).map(|_| rng.below(s.jobs.len())).collect();
    let jobs: Vec<Job<usize>> = picks
        .iter()
        .map(|&i| {
            let j = &s.jobs[i];
            Job::new(
                i,
                j.w.source,
                &s.size.params(),
                plan_spec(&j.w, j.vsn),
                j.cfg.clone(),
            )
        })
        .collect();
    for (job, r) in run_batch_with_stats(jobs, 1).0 {
        let r = r.map_err(|e| format!("batched {}: {e}", s.jobs[job.meta].key(s.size)))?;
        expect_eq(
            &format!("batched vs single {}", s.jobs[job.meta].key(s.size)),
            Some(digest(&r)),
            digests[job.meta],
        )?;
    }
    Ok(())
}

/// The traced run: the same job sequence first through `run_pipeline`
/// untraced, then composed from the layer calls under spans. Returns the
/// untraced and traced wall times of the jobs.
pub fn traced(
    s: &Setup,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
    tally: &mut Tally,
) -> (f64, f64) {
    let mut rng = Rng::new(seed, 1);
    let mut seq = Vec::new();
    let mut untraced = Vec::new();
    let mut untraced_s = 0.0;
    let start = Instant::now();
    let budget = Budget {
        seconds: seconds / 2.0,
        min_rounds: 1,
    };
    while !budget.done(start, seq.len() / s.jobs.len()) {
        for i in next_round(s, &mut rng) {
            let t = Instant::now();
            let r = run_one(s, &s.jobs[i]);
            untraced_s += t.elapsed().as_secs_f64();
            seq.push(i);
            untraced.push(r);
        }
    }
    let mut traced_s = 0.0;
    for (req, (&i, reference)) in seq.iter().zip(&untraced).enumerate() {
        let j = &s.jobs[i];
        let root = tracer.begin("job", None, req as u64);
        let mut ctx = Ctx {
            tracer: &mut *tracer,
            counts: &mut *counts,
            parent: Some(root),
            req: req as u64,
        };
        let composed = compose_job(&mut ctx, s.size, j);
        tracer.end(root);
        traced_s += tracer.ms(root) / 1e3;
        tally.op(match (composed, reference) {
            (Ok(c), Ok(r)) => s.reference.check(&j.key(s.size), r).and_then(|()| {
                expect_eq(
                    &format!("composed vs run_pipeline {}", j.key(s.size)),
                    c,
                    Replayed {
                        sim: r.sim.clone(),
                        exec_cycles: r.exec_cycles,
                    },
                )
            }),
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e.clone()),
        });
    }
    (untraced_s, traced_s)
}

fn compose_job(ctx: &mut Ctx, size: Size, j: &ColdJob) -> Result<Replayed, String> {
    let prog = ctx.front_end(j.w.source, &size.params())?;
    let analysis = match j.vsn {
        Vsn::C => Some(ctx.analyze(&prog)?),
        _ => None,
    };
    let plan = ctx.plan(&prog, &j.w, j.vsn, analysis.as_ref(), &j.cfg);
    let layout = ctx.layout(&prog, &plan)?;
    let code = ctx.codegen(&prog)?;
    let (events, _) = ctx.record(&prog, &layout, &code, &j.cfg)?;
    Ok(ctx.replay(&events, None, &layout, &j.cfg))
}
