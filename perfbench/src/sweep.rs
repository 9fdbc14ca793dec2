//! `figure_sweep`: the ten programs × {N, C, P} × four block sizes ×
//! three backends, 360 jobs per round, run as one `run_batch_with_stats`
//! call per program on a transient world, in a seeded order.

use crate::common::{cell_key, digest, expect_eq, PaperCells, Reference, Samples, Size, Tally};
use crate::compose::{Ctx, LayerCounts, Replayed};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Phase;
use fsr_core::driver::{run_batch_with_stats, BatchStats, Job, JobResults};
use fsr_core::experiments::{plan_source, plan_spec, Backend, Vsn};
use fsr_core::{run_pipeline, Program, Schedule};
use fsr_layout::Layout;
use fsr_workloads::Workload;
use std::collections::HashMap;
use std::time::Instant;

pub const BLOCKS: [u32; 4] = [16, 64, 128, 256];

/// One cell of the sweep; carried through the driver as job metadata.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub w: usize,
    pub vsn: Vsn,
    pub block: u32,
    pub backend: Backend,
}

pub struct Setup {
    pub size: Size,
    pub programs: Vec<Workload>,
    /// Each program's jobs: the unit one batch call runs and is timed in.
    pub jobs: Vec<Vec<Job<Cell>>>,
    reference: Reference,
}

impl Setup {
    fn key(&self, c: &Cell) -> String {
        cell_key(
            self.size,
            self.programs[c.w].name,
            c.vsn,
            c.block,
            c.backend,
            Schedule::RoundRobin,
        )
    }
}

/// Batch worker threads. On a 2-core VM, two threads spread the figures
/// of this workload by 17–39% over ten seeds (peak RSS 26%, through
/// per-thread allocator arenas); one thread spread 5–11% over five.
pub const THREADS: usize = 1;

pub fn setup(size: Size) -> Result<Setup, String> {
    let reference = Reference::load()?;
    let programs = fsr_workloads::all();
    crate::cold::check_programs(&programs, size)?;
    let mut jobs = Vec::new();
    for (wi, w) in programs.iter().enumerate() {
        let mut mine = Vec::new();
        for vsn in [Vsn::N, Vsn::C, Vsn::P] {
            for block in BLOCKS {
                for backend in Backend::ABLATION {
                    let cell = Cell {
                        w: wi,
                        vsn,
                        block,
                        backend,
                    };
                    mine.push(Job::new(
                        cell,
                        w.source,
                        &size.params(),
                        plan_spec(w, vsn),
                        backend.config(block),
                    ));
                }
            }
        }
        jobs.push(mine);
    }
    Ok(Setup {
        size,
        programs,
        jobs,
        reference,
    })
}

/// One round: the programs' batches in a seeded order, each with its
/// jobs in a seeded order.
fn ordered(s: &Setup, rng: &mut Rng) -> Vec<Vec<Job<Cell>>> {
    let mut batches = s.jobs.clone();
    rng.shuffle(&mut batches);
    for jobs in &mut batches {
        rng.shuffle(jobs);
    }
    batches
}

/// Check every result against the reference digest; feed the Figure 3
/// cells. Returns the simulated references of the successful jobs.
fn check(s: &Setup, results: &JobResults<Cell>, tally: &mut Tally, cells: &mut PaperCells) -> u64 {
    let mut refs = 0;
    for (job, r) in results {
        let key = s.key(&job.meta);
        match r {
            Err(e) => tally.op(Err(format!("{key}: {e}"))),
            Ok(r) => {
                tally.op(s.reference.check(&key, r));
                refs += r.sim.refs;
                let c = job.meta;
                if c.block == 128 && c.backend == Backend::default() {
                    let name = s.programs[c.w].name;
                    cells.add(name, c.vsn, r.sim.false_sharing(), r.exec_cycles);
                }
            }
        }
    }
    refs
}

pub struct Out {
    pub refs: u64,
    /// Interpretations the batch calls made, from `BatchStats`.
    pub interpretations: u64,
    /// One sample per program batch, typed by program.
    pub batch_s: Samples,
    pub tally: Tally,
    pub cells: PaperCells,
}

/// The measured phase: one program's batch per step, all ten per round.
///
/// A whole 360-job batch takes over a second; on a shared 2-core VM
/// hardly any second passes uncontended, so the floor of whole batches
/// spread by up to 35% over ten runs. A program's batch takes 0.05–0.6 s and
/// holds the same jobs, trace groups and interpretations it holds in the
/// whole batch (nothing is shared across programs), and its floor finds
/// the host's quiet moments.
pub struct Run<'a> {
    s: &'a Setup,
    rng: Rng,
    /// Program batches left in the current round.
    pending: Vec<Vec<Job<Cell>>>,
    rounds: usize,
    /// The results of the current round so far.
    last: JobResults<Cell>,
    pub out: Out,
}

impl<'a> Run<'a> {
    pub fn new(s: &'a Setup, seed: u64) -> Run<'a> {
        Run {
            s,
            rng: Rng::new(seed, 1),
            pending: Vec::new(),
            rounds: 0,
            last: Vec::new(),
            out: Out {
                refs: 0,
                interpretations: 0,
                batch_s: Samples::default(),
                tally: Tally::default(),
                cells: PaperCells::default(),
            },
        }
    }

    /// End the phase with the single-equals-batched cross-check.
    pub fn finish(mut self) -> Out {
        let check = single_equals_batched(self.s, &mut self.rng, &self.last);
        self.out.tally.fail_on(check);
        self.out
    }
}

impl Phase for Run<'_> {
    fn step(&mut self) -> bool {
        if self.pending.is_empty() {
            self.pending = ordered(self.s, &mut self.rng);
            self.last.clear();
        }
        let jobs = self.pending.pop().expect("a round has batches");
        let w = jobs[0].meta.w;
        let t = Instant::now();
        let (results, stats) = run_batch_with_stats(jobs, THREADS);
        let secs = t.elapsed().as_secs_f64();
        let out = &mut self.out;
        out.batch_s.push(w, secs);
        out.interpretations += stats.interpretations as u64;
        out.refs += check(self.s, &results, &mut out.tally, &mut out.cells);
        self.last.extend(results);
        if !self.pending.is_empty() {
            return false;
        }
        self.rounds += 1;
        true
    }

    fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Cross-path check: a seeded sample of cells run alone through
/// `run_pipeline` must give the digests the batch gave.
fn single_equals_batched(s: &Setup, rng: &mut Rng, batch: &JobResults<Cell>) -> Result<(), String> {
    for _ in 0..3 {
        let (job, r) = &batch[rng.below(batch.len())];
        let key = s.key(&job.meta);
        let w = &s.programs[job.meta.w];
        let single = run_pipeline(
            w.source,
            &s.size.params(),
            plan_source(w, job.meta.vsn),
            &job.cfg,
        )
        .map_err(|e| format!("single {key}: {e}"))?;
        let batched = r.as_ref().map_err(|e| format!("batched {key}: {e}"))?;
        expect_eq(
            &format!("single vs batched {key}"),
            digest(&single),
            digest(batched),
        )?;
    }
    Ok(())
}

/// The traced run: one untraced 360-job batch, then the same batch under a
/// `driver` span, then the attribution pass that composes the layers:
/// each trace unit is interpreted once and replayed per job, and every
/// replay must equal the batch's result for that job.
///
/// Jobs whose layouts are address-identical form a trace group, and the
/// direct-only groups of one program merge into a single interpreted
/// unit through address translation, as in the batch driver. Returns
/// the untraced and traced batch wall times and the batch's counts.
pub fn traced(
    s: &Setup,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
    tally: &mut Tally,
) -> (f64, f64, BatchStats) {
    let mut rng = Rng::new(seed, 1);
    let jobs = ordered(s, &mut rng).concat();
    let t = Instant::now();
    let (untraced, _) = run_batch_with_stats(jobs.clone(), THREADS);
    let untraced_s = t.elapsed().as_secs_f64();
    check(s, &untraced, tally, &mut PaperCells::default());

    let root = tracer.begin("driver", None, 0);
    let (results, stats) = run_batch_with_stats(jobs, THREADS);
    tracer.end(root);
    let traced_s = tracer.ms(root) / 1e3;

    let mut ctx = Ctx {
        tracer,
        counts,
        parent: None,
        req: 1,
    };
    for (wi, w) in s.programs.iter().enumerate() {
        let mine: Vec<usize> = (0..results.len())
            .filter(|&j| results[j].0.meta.w == wi)
            .collect();
        let r = attribute(&mut ctx, s, w, &mine, &results);
        tally.op(r);
    }
    (untraced_s, traced_s, stats)
}

/// Compose the jobs `mine` of program `w` and compare each with the
/// batch's result.
fn attribute(
    ctx: &mut Ctx,
    s: &Setup,
    w: &Workload,
    mine: &[usize],
    results: &JobResults<Cell>,
) -> Result<(), String> {
    let prog: Program = ctx.front_end(w.source, &s.size.params())?;
    let analysis = ctx.analyze(&prog)?;
    let mut layouts: Vec<Layout> = Vec::new();
    for &j in mine {
        let (job, _) = &results[j];
        let a = (job.meta.vsn == Vsn::C).then_some(&analysis);
        let plan = ctx.plan(&prog, w, job.meta.vsn, a, &job.cfg);
        layouts.push(ctx.layout(&prog, &plan)?);
    }
    // Trace groups: address-identical layouts, in first-job order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
    for (k, lay) in layouts.iter().enumerate() {
        let cands = by_fp.entry(lay.trace_fingerprint()).or_default();
        match cands.iter().find(|&&g| layouts[groups[g][0]].trace_eq(lay)) {
            Some(&g) => groups[g].push(k),
            None => {
                cands.push(groups.len());
                groups.push(vec![k]);
            }
        }
    }
    // Units: all direct-only groups share one interpretation; every
    // group with indirection interprets on its own.
    let (direct, indirect): (Vec<_>, Vec<_>) = groups
        .into_iter()
        .partition(|g| layouts[g[0]].direct_only());
    let mut units: Vec<Vec<Vec<usize>>> = indirect.into_iter().map(|g| vec![g]).collect();
    if !direct.is_empty() {
        units.push(direct);
    }
    let code = ctx.codegen(&prog)?;
    let run_cfg = &results[mine[0]].0.cfg;
    for unit in &units {
        let rep = &layouts[unit[0][0]];
        let (events, _) = ctx.record(&prog, rep, &code, run_cfg)?;
        for group in unit {
            let lay = &layouts[group[0]];
            let map = if std::ptr::eq(lay, rep) {
                None
            } else {
                Some(
                    rep.word_map_to(lay)
                        .ok_or("trace group is not translatable")?,
                )
            };
            for &k in group {
                let (job, r) = &results[mine[k]];
                let got = ctx.replay(&events, map.as_deref(), lay, &job.cfg);
                let r = r.as_ref().map_err(|e| e.to_string())?;
                expect_eq(
                    &format!("composed vs batched {}", s.key(&job.meta)),
                    got,
                    Replayed {
                        sim: r.sim.clone(),
                        exec_cycles: r.exec_cycles,
                    },
                )?;
            }
        }
    }
    Ok(())
}
