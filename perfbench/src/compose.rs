//! One pipeline job composed from each layer's public functions, so the
//! traced run can time every layer from the benchmark's own code:
//! `fsr_lang` → `fsr_analysis` → `fsr_transform` → `fsr_layout` →
//! `fsr_interp` (codegen, then a run into a recording sink) →
//! `fsr_sim::BankedSim::access` → `fsr_machine::TimingModel`.
//!
//! The simulator never reads the timing model, so the replay runs the
//! whole trace through the simulator first and then through the timing
//! model; the results equal `run_pipeline`'s, which the workloads check.

use crate::trace::{SpanId, Tracer};
use fsr_core::experiments::Vsn;
use fsr_core::{LayoutPlan, PipelineConfig, Program, Schedule, SimStats};
use fsr_interp::{RecordedTrace, RunStats, TraceEvent};
use fsr_layout::Layout;
use fsr_machine::TimingModel;
use fsr_sim::BankedSim;
use fsr_workloads::Workload;

/// Work counted at the layer boundaries of a traced run.
#[derive(Default, Debug, Clone)]
pub struct LayerCounts {
    pub lang_calls: u64,
    pub analysis_calls: u64,
    pub objs_transformed: u64,
    pub layout_words: u64,
    pub instructions: u64,
    pub interp_refs: u64,
    pub spin_rereads: u64,
    pub steals: u64,
    /// Interpreter nanoseconds and instructions, per schedule kind.
    pub rr_ns: f64,
    pub rr_instrs: u64,
    pub ws_ns: f64,
    pub ws_instrs: u64,
    pub sim_refs: u64,
    pub misses: u64,
    pub fs_misses: u64,
    pub exec_cycles: u64,
    pub queue_stall_cycles: u64,
}

/// What a composed replay produced: the fields the workloads compare
/// against the pipeline's own result.
#[derive(Debug, PartialEq)]
pub struct Replayed {
    pub sim: SimStats,
    pub exec_cycles: u64,
}

pub struct Ctx<'a> {
    pub tracer: &'a mut Tracer,
    pub counts: &'a mut LayerCounts,
    pub parent: Option<SpanId>,
    pub req: u64,
}

impl Ctx<'_> {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.tracer.begin(name, self.parent, self.req);
        let r = f();
        self.tracer.end(id);
        (r, self.tracer.ms(id))
    }

    pub fn front_end(&mut self, src: &str, params: &[(&str, i64)]) -> Result<Program, String> {
        self.counts.lang_calls += 1;
        self.span("lang", || fsr_lang::compile_with_params(src, params))
            .0
            .map_err(|e| e.to_string())
    }

    pub fn analyze(&mut self, prog: &Program) -> Result<fsr_core::Analysis, String> {
        self.counts.analysis_calls += 1;
        self.span("analysis", || fsr_analysis::analyze(prog))
            .0
            .map_err(|e| e.to_string())
    }

    /// The layout plan of `vsn`, as `fsr_core::plan_of` builds it.
    /// `analysis` is required for the C version.
    pub fn plan(
        &mut self,
        prog: &Program,
        w: &Workload,
        vsn: Vsn,
        analysis: Option<&fsr_core::Analysis>,
        cfg: &PipelineConfig,
    ) -> LayoutPlan {
        let block = cfg.block_bytes;
        let plan = self
            .span("transform", || match (vsn, w.programmer_plan) {
                (Vsn::C, _) => {
                    let mut pc = cfg.plan_cfg;
                    pc.block_bytes = block;
                    let a = analysis.expect("the C version is planned from an analysis");
                    fsr_transform::plan_for(prog, a, &pc)
                }
                (Vsn::P, Some(f)) => f(prog, block),
                _ => LayoutPlan::unoptimized(block),
            })
            .0;
        self.counts.objs_transformed += plan.directives.len() as u64;
        plan
    }

    pub fn layout(&mut self, prog: &Program, plan: &LayoutPlan) -> Result<Layout, String> {
        let nproc = fsr_core::resolve_nproc(prog).map_err(|e| e.to_string())?;
        let layout = self
            .span("layout", || Layout::try_build(prog, plan, nproc))
            .0
            .map_err(|e| e.to_string())?;
        self.counts.layout_words += layout.total_words() as u64;
        Ok(layout)
    }

    pub fn codegen(&mut self, prog: &Program) -> Result<fsr_interp::Compiled, String> {
        self.span("interp.codegen", || fsr_interp::compile_program(prog))
            .0
            .map_err(|e| e.to_string())
    }

    /// Interpret once into a recording sink.
    pub fn record(
        &mut self,
        prog: &Program,
        layout: &Layout,
        code: &fsr_interp::Compiled,
        cfg: &PipelineConfig,
    ) -> Result<(Vec<TraceEvent>, RunStats), String> {
        let mut rec = RecordedTrace::default();
        let (fin, ms) = self.span("interp", || {
            fsr_interp::run(prog, layout, code, cfg.run, &mut rec)
        });
        let st = fin.map_err(|e| e.to_string())?.stats;
        let c = &mut *self.counts;
        c.instructions += st.instructions;
        c.interp_refs += st.refs;
        c.spin_rereads += st.spin_rereads;
        c.steals += st.steals;
        match cfg.run.schedule {
            Schedule::RoundRobin => {
                c.rr_ns += ms * 1e6;
                c.rr_instrs += st.instructions;
            }
            Schedule::WorkSteal { .. } => {
                c.ws_ns += ms * 1e6;
                c.ws_instrs += st.instructions;
            }
        }
        Ok((rec.events, st))
    }

    /// Replay a trace through the simulator and then the timing model.
    /// `map` translates word addresses of the recording layout into the
    /// replayed layout, as the batch driver does for merged groups.
    pub fn replay(
        &mut self,
        events: &[TraceEvent],
        map: Option<&[u32]>,
        layout: &Layout,
        cfg: &PipelineConfig,
    ) -> Replayed {
        let nproc = layout.nproc;
        let sim_cfg = fsr_sim::CacheConfig {
            nproc,
            block_bytes: cfg.block_bytes,
            cache_bytes: cfg.cache_bytes,
            assoc: cfg.assoc,
            protocol: cfg.protocol,
        };
        let addr = |a: u32| match map {
            None => a,
            Some(m) => m[(a / 4) as usize] * 4,
        };
        let (outcomes, sim) = self
            .span("sim", || {
                let mut sim = BankedSim::new(sim_cfg, layout.total_words() * 4, 1);
                let outcomes: Vec<_> = events
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::Access(r) => Some(sim.access(r.pid, addr(r.addr), r.write)),
                        _ => None,
                    })
                    .collect();
                (outcomes, sim.stats())
            })
            .0;
        let timing = self
            .span("machine", || {
                let mut tm = TimingModel::new(cfg.machine, nproc);
                let mut next = outcomes.iter();
                for e in events {
                    match e {
                        TraceEvent::Access(r) => {
                            let o = next.next().expect("one outcome per access");
                            tm.record(r.pid, r.gap, o);
                        }
                        TraceEvent::Sync(pids) => tm.sync(pids),
                        TraceEvent::Handoff { from, to } => tm.handoff(*from, *to),
                        TraceEvent::Steal { thief, victim } => tm.steal(*thief, *victim),
                    }
                }
                tm
            })
            .0;
        let c = &mut *self.counts;
        c.sim_refs += sim.refs;
        c.misses += sim.total_misses();
        c.fs_misses += sim.false_sharing();
        c.exec_cycles += timing.finish_time();
        c.queue_stall_cycles += timing.stats().total_queue();
        Replayed {
            sim,
            exec_cycles: timing.finish_time(),
        }
    }
}
