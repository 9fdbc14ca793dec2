//! The fsr toolchain's benchmark: three workloads through the public
//! API of `fsr-core` and `fsr-serve`, every output checked, every
//! end-to-end metric printed by name with its unit. `--trace 1` runs the
//! traced variant instead, which prints the per-layer metrics. See
//! `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload daemon_session --seed 1 --seconds 55 --trace 0
//! ```

mod cold;
mod common;
mod compose;
mod daemon;
mod rng;
mod sweep;
mod trace;

use common::{median, peak_rss_mb, Samples, Size, Tally};
use compose::LayerCounts;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// The seed used while the benchmark was tuned, and one kept out of
/// tuning to check claims against.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 90_210;

pub const WORKLOADS: [&str; 3] = ["cold_run", "figure_sweep", "daemon_session"];

/// The cheapest programs: the side phases that give a workload the
/// metrics its own traffic does not produce run on these.
const SIDE_PROGRAMS: [&str; 4] = ["pthor", "mp3d", "topopt", "pverify"];

/// How long a phase measures: whole rounds until `seconds` have passed
/// and at least `min_rounds` are done.
#[derive(Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_rounds: usize,
}

impl Budget {
    pub fn done(&self, start: Instant, rounds: usize) -> bool {
        rounds >= self.min_rounds && start.elapsed().as_secs_f64() >= self.seconds
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 55;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.contains(&v.as_str()) {
                    return Err(format!("unknown workload `{v}` (use one of {WORKLOADS:?})"));
                }
                workload = Some(v.clone());
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("`--seed {v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("`--seconds {v}` is not a whole number in 1..=60"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace {v}` must be 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run: what the result line reports.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Sample count behind each percentile, and other honesty fields.
    pub info: Vec<(&'static str, String)>,
}

/// A measured phase that advances one operation at a time.
pub trait Phase {
    /// Run one operation; true when it completed a round (for
    /// `daemon_session`, a whole replay cycle).
    fn step(&mut self) -> bool;
    fn rounds(&self) -> usize;
}

/// Set-ups per run: milliseconds for `cold_run` and `figure_sweep`,
/// about a second for `daemon_session`.
const QUICK_SETUP_REPS: usize = 31;
const DAEMON_SETUP_REPS: usize = 5;

/// Rounds that give ten samples beyond p90 of jobs, and at least
/// [`MIN_REPS`] samples of every job type.
fn job_rounds(s: &cold::Setup) -> usize {
    Samples::needed(90.0).div_ceil(s.jobs.len()).max(MIN_REPS)
}

/// Fewest samples of one operation type behind a floor.
const MIN_REPS: usize = 12;

/// Replay cycles that give ten samples beyond p90 of edits (one per
/// document and round), hence of replays and beyond p99 of hits (see
/// [`daemon::hits_per_round`]).
fn daemon_cycles(docs: usize) -> usize {
    Samples::needed(90.0)
        .div_ceil(docs)
        .div_ceil(daemon::cycle_rounds())
}

/// Replay cycles of a side phase: enough for the percentiles, and
/// [`SIDE_REPS`] samples of every replay type.
fn side_daemon_cycles() -> usize {
    daemon_cycles(SIDE_PROGRAMS.len()).max(SIDE_REPS)
}

/// Rounds of a side phase of jobs: [`SIDE_REPS`] samples of every job
/// type.
fn side_job_rounds(s: &cold::Setup) -> usize {
    job_rounds(s).max(SIDE_REPS)
}

/// Samples of each operation type in a side phase. A side phase's
/// samples are fewer than the workload's own, and on a shared host its
/// floors need more of them: with [`MIN_REPS`], the job floors of
/// `figure_sweep` spread by 29% over five runs and its replay floors by
/// 34% over ten.
const SIDE_REPS: usize = 24;

/// The set-up, timed once before the run and then repeated as a side
/// phase, so that its repetitions meet the same host conditions as the
/// measured traffic. `setup_s` is the median of all of them.
struct SetupReps<F> {
    again: F,
    secs: Vec<f64>,
    tally: Tally,
}

impl<F: FnMut() -> Result<(), String>> SetupReps<F> {
    /// Time `setup` once; `again` repeats it later.
    fn first<S>(setup: impl FnOnce() -> Result<S, String>, again: F) -> Result<(S, Self), String> {
        let t = Instant::now();
        let s = setup()?;
        let secs = vec![t.elapsed().as_secs_f64()];
        Ok((
            s,
            SetupReps {
                again,
                secs,
                tally: Tally::default(),
            },
        ))
    }

    fn median(&self) -> f64 {
        median(&self.secs)
    }
}

impl<F: FnMut() -> Result<(), String>> Phase for SetupReps<F> {
    fn step(&mut self) -> bool {
        let t = Instant::now();
        let r = (self.again)();
        self.secs.push(t.elapsed().as_secs_f64());
        self.tally.op(r);
        true
    }

    fn rounds(&self) -> usize {
        self.secs.len()
    }
}

/// Step `primary` until `budget` is spent, stopping at a round boundary.
/// Each side phase runs its rounds spread evenly over that time, so it
/// meets the same host conditions as the primary phase; what is left of
/// it runs at the end.
fn drive(primary: &mut dyn Phase, budget: Budget, sides: &mut [(&mut dyn Phase, usize)]) {
    let start = Instant::now();
    loop {
        let round_done = primary.step();
        let share = (start.elapsed().as_secs_f64() / budget.seconds).min(1.0);
        for (side, total) in sides.iter_mut() {
            while (side.rounds() as f64) < share * *total as f64 {
                while !side.step() {}
            }
        }
        if round_done && budget.done(start, primary.rounds()) {
            break;
        }
    }
    for (side, total) in sides.iter_mut() {
        while side.rounds() < *total {
            while !side.step() {}
        }
    }
}

/// Run `workload` untraced and report every end-to-end metric. The
/// workload's own traffic is timed for `seconds`; the metrics it does not
/// produce come from side phases on the cheapest programs, run
/// interleaved with it.
pub fn measure(workload: &str, seed: u64, seconds: f64, size: Size) -> Result<Report, String> {
    let mut report = Report {
        tally: Tally::default(),
        metrics: Vec::new(),
        info: Vec::new(),
    };
    let mut tally = Tally::default();
    let side_programs = Some(&SIDE_PROGRAMS[..]);
    let (setup_s, refs_per_s, cells, jobs, mut d) = match workload {
        "cold_run" => {
            let again = || cold::setup(seed, size, None).map(drop);
            let (s, mut reps) = SetupReps::first(|| cold::setup(seed, size, None), again)?;
            let mut side = daemon::setup(seed, size, side_programs)?;
            let mut run = cold::Run::new(&s, seed);
            let budget = Budget {
                seconds,
                min_rounds: job_rounds(&s),
            };
            let sides: &mut [(&mut dyn Phase, usize)] = &mut [
                (&mut side, side_daemon_cycles()),
                (&mut reps, QUICK_SETUP_REPS),
            ];
            drive(&mut run, budget, sides);
            let out = run.finish();
            let setup_s = reps.median();
            tally.merge(reps.tally);
            tally.merge(out.tally);
            let rate = out.refs as f64 / (out.lat_ms.floored_sum() / 1e3);
            (setup_s, rate, out.cells, out.lat_ms, side.out)
        }
        "figure_sweep" => {
            let again = || sweep::setup(size).map(drop);
            let (s, mut reps) = SetupReps::first(|| sweep::setup(size), again)?;
            let side_s = cold::setup(seed, size, side_programs)?;
            let mut side_jobs = cold::Run::new(&side_s, seed);
            let mut side = daemon::setup(seed, size, side_programs)?;
            let mut run = sweep::Run::new(&s, seed);
            let budget = Budget {
                seconds,
                min_rounds: 1,
            };
            drive(
                &mut run,
                budget,
                &mut [
                    (&mut side_jobs, side_job_rounds(&side_s)),
                    (&mut side, side_daemon_cycles()),
                    (&mut reps, QUICK_SETUP_REPS),
                ],
            );
            let out = run.finish();
            let jobs = side_jobs.finish();
            let setup_s = reps.median();
            tally.merge(reps.tally);
            tally.merge(out.tally);
            tally.merge(jobs.tally);
            report.info.push(("batches", out.batch_s.len().to_string()));
            let rounds = out.batch_s.len() / s.jobs.len();
            let per_round = out.interpretations as f64 / rounds as f64;
            report
                .info
                .push(("interpretations_per_round", per_round.to_string()));
            let rate = out.refs as f64 / out.batch_s.floored_sum();
            (setup_s, rate, out.cells, jobs.lat_ms, side.out)
        }
        "daemon_session" => {
            let again = || daemon::setup(seed, size, None).map(drop);
            let (mut session, mut reps) =
                SetupReps::first(|| daemon::setup(seed, size, None), again)?;
            let side_s = cold::setup(seed, size, side_programs)?;
            let mut side_jobs = cold::Run::new(&side_s, seed);
            let budget = Budget {
                seconds,
                min_rounds: daemon_cycles(fsr_workloads::all().len()),
            };
            drive(
                &mut session,
                budget,
                &mut [
                    (&mut side_jobs, side_job_rounds(&side_s)),
                    (&mut reps, DAEMON_SETUP_REPS),
                ],
            );
            let jobs = side_jobs.finish();
            let setup_s = reps.median();
            tally.merge(reps.tally);
            tally.merge(jobs.tally);
            let d = std::mem::take(&mut session.out);
            let rate = d.refs as f64 / d.busy_s();
            (setup_s, rate, session.cells, jobs.lat_ms, d)
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let rss = peak_rss_mb();
    tally.merge(std::mem::take(&mut d.tally));
    report.tally = tally;
    if !cells.complete() {
        report
            .tally
            .fail_on(Err("the Figure 3 cells were not all simulated".into()));
    }
    let ok_rate = 1.0 - report.tally.failed as f64 / report.tally.attempted.max(1) as f64;
    report.metrics = vec![
        m("setup_s", setup_s, "s"),
        m("refs_per_s", refs_per_s, "1/s"),
        m("job_p50_ms", jobs.pct(50.0), "ms"),
        m("job_p90_ms", jobs.pct(90.0), "ms"),
        m("hit_p50_us", d.hit_us.pct(50.0), "us"),
        m("hit_p99_us", d.hit_us.pct(99.0), "us"),
        m("replay_p50_ms", d.replay_ms.pct(50.0), "ms"),
        m("replay_p90_ms", d.replay_ms.pct(90.0), "ms"),
        m("edit_p50_ms", d.edit_ms.pct(50.0), "ms"),
        m("edit_p90_ms", d.edit_ms.pct(90.0), "ms"),
        m("peak_rss_mb", rss, "MiB"),
        m("ok_rate", ok_rate, "ratio"),
        m("fs_reduction_pct", cells.fs_reduction_pct(), "%"),
        m("c_cycles_ratio", cells.c_cycles_ratio(), "ratio"),
    ];
    let samples = format!(
        "{{\"job\": {}, \"hit\": {}, \"replay\": {}, \"edit\": {}}}",
        jobs.len(),
        d.hit_us.len(),
        d.replay_ms.len(),
        d.edit_ms.len()
    );
    report.info.push(("samples", samples));
    let min_per_type = format!(
        "{{\"job\": {}, \"hit\": {}, \"replay\": {}, \"edit\": {}}}",
        jobs.min_per_type(),
        d.hit_us.min_per_type(),
        d.replay_ms.min_per_type(),
        d.edit_ms.min_per_type()
    );
    report.info.push(("samples_per_type_min", min_per_type));
    // The raw percentiles, which see tails the floored figures cannot;
    // host contention moves them too much to gate on them.
    let raw = format!(
        "{{\"job_p50_ms\": {:.4}, \"job_p90_ms\": {:.4}, \"hit_p50_us\": {:.4}, \
         \"hit_p99_us\": {:.4}, \"replay_p50_ms\": {:.4}, \"replay_p90_ms\": {:.4}, \
         \"edit_p50_ms\": {:.4}, \"edit_p90_ms\": {:.4}}}",
        jobs.raw_pct(50.0),
        jobs.raw_pct(90.0),
        d.hit_us.raw_pct(50.0),
        d.hit_us.raw_pct(99.0),
        d.replay_ms.raw_pct(50.0),
        d.replay_ms.raw_pct(90.0),
        d.edit_ms.raw_pct(50.0),
        d.edit_ms.raw_pct(90.0)
    );
    report.info.push(("raw_percentiles", raw));
    for (what, n, p) in [
        ("job", jobs.len(), 90.0),
        ("hit", d.hit_us.len(), 99.0),
        ("replay", d.replay_ms.len(), 90.0),
        ("edit", d.edit_ms.len(), 90.0),
    ] {
        if n < Samples::needed(p) {
            report.tally.fail_on(Err(format!(
                "{n} {what} samples leave fewer than ten beyond p{p}"
            )));
        }
    }
    Ok(report)
}

/// Run `workload` traced and report every per-layer metric (zero for a
/// layer the workload bypasses), plus the tracing overhead.
pub fn measure_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    size: Size,
) -> Result<(Report, Tracer), String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut c = LayerCounts::default();
    let mut wire = daemon::Wire::default();
    let (untraced_s, traced_s) = match workload {
        "cold_run" => {
            let s = cold::setup(seed, size, None)?;
            cold::traced(&s, seed, seconds, &mut tracer, &mut c, &mut tally)
        }
        "figure_sweep" => {
            let s = sweep::setup(size)?;
            let (u, t, stats) = sweep::traced(&s, seed, &mut tracer, &mut c, &mut tally);
            wire.batch = stats;
            (u, t)
        }
        "daemon_session" => {
            let mut session = daemon::setup(seed, size, None)?;
            let budget = Budget {
                seconds: seconds / 2.0,
                min_rounds: 1,
            };
            let t = Instant::now();
            session.run(budget, None);
            let untraced_s = t.elapsed().as_secs_f64();
            tally.merge(std::mem::take(&mut session.out).tally);
            session.client.wire = daemon::Wire::default();
            let t = Instant::now();
            session.run(budget, Some(&mut tracer));
            let traced_s = t.elapsed().as_secs_f64();
            let out = std::mem::take(&mut session.out);
            tally.merge(out.tally);
            tally.fail_on(session.client.read_entries());
            wire = std::mem::take(&mut session.client.wire);
            // Hits run zero interpretations: every interpretation of the
            // traced session belongs to an edit.
            tally.fail_on(common::expect_eq(
                "interpretations beyond one per edit",
                wire.batch.interpretations,
                out.edit_ms.len(),
            ));
            (untraced_s, traced_s)
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let own = tracer.self_ms();
    let ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let (b, requests) = (wire.batch, wire.requests);
    let metrics = vec![
        m("lang.ms", ms("lang"), "ms"),
        m("lang.calls", c.lang_calls as f64, "count"),
        m("analysis.ms", ms("analysis"), "ms"),
        m("analysis.calls", c.analysis_calls as f64, "count"),
        m("transform.ms", ms("transform"), "ms"),
        m(
            "transform.objs_transformed",
            c.objs_transformed as f64,
            "count",
        ),
        m("layout.ms", ms("layout"), "ms"),
        m("layout.words", c.layout_words as f64, "count"),
        m("interp.codegen_ms", ms("interp.codegen"), "ms"),
        m("interp.ms", ms("interp"), "ms"),
        m("interp.instructions", c.instructions as f64, "count"),
        m("interp.refs", c.interp_refs as f64, "count"),
        m(
            "interp.ns_per_ref",
            per(ms("interp") * 1e6, c.interp_refs),
            "ns",
        ),
        m("interp.rr.ns_per_instr", per(c.rr_ns, c.rr_instrs), "ns"),
        m("interp.ws.ns_per_instr", per(c.ws_ns, c.ws_instrs), "ns"),
        m(
            "interp.instrs_per_ref",
            per(c.instructions as f64, c.interp_refs),
            "ratio",
        ),
        m("interp.spin_rereads", c.spin_rereads as f64, "count"),
        m("interp.steals", c.steals as f64, "count"),
        m("sim.ms", ms("sim"), "ms"),
        m("sim.refs", c.sim_refs as f64, "count"),
        m("sim.ns_per_ref", per(ms("sim") * 1e6, c.sim_refs), "ns"),
        m("sim.misses", c.misses as f64, "count"),
        m("sim.fs_misses", c.fs_misses as f64, "count"),
        m("machine.ms", ms("machine"), "ms"),
        m(
            "machine.ns_per_ref",
            per(ms("machine") * 1e6, c.sim_refs),
            "ns",
        ),
        m("machine.exec_cycles", c.exec_cycles as f64, "cycles"),
        m(
            "machine.queue_stall_cycles",
            c.queue_stall_cycles as f64,
            "cycles",
        ),
        m("driver.ms", ms("driver"), "ms"),
        m("driver.jobs", b.jobs as f64, "count"),
        m("driver.front_ends", b.front_ends as f64, "count"),
        m("driver.trace_groups", b.trace_groups as f64, "count"),
        m("driver.interpretations", b.interpretations as f64, "count"),
        m(
            "driver.jobs_per_interp",
            per(b.jobs as f64, b.interpretations as u64),
            "ratio",
        ),
        m("driver.segments", b.segments as f64, "count"),
        m("world.fe_hits", b.fe_hits as f64, "count"),
        m("world.trace_hits", b.trace_hits as f64, "count"),
        m("world.result_hits", b.result_hits as f64, "count"),
        m(
            "world.hit_ratio",
            per(b.result_hits as f64, b.jobs as u64),
            "ratio",
        ),
        m("world.evicted", wire.evicted as f64, "count"),
        m("world.entries", wire.entries as f64, "count"),
        m("serve.handle_us", per(wire.handle_s * 1e6, requests), "us"),
        m(
            "serve.req_parse_us",
            per(wire.parse_s * 1e6, requests),
            "us",
        ),
        m(
            "serve.resp_bytes",
            per(wire.resp_bytes as f64, requests),
            "bytes",
        ),
        m("trace.spans", tracer.len() as f64, "count"),
        m("trace.untraced_ms", untraced_s * 1e3, "ms"),
        m("trace.overhead_ms", (traced_s - untraced_s) * 1e3, "ms"),
        m(
            "trace.overhead_pct",
            100.0 * (traced_s / untraced_s - 1.0),
            "%",
        ),
    ];
    let report = Report {
        tally,
        metrics,
        info: Vec::new(),
    };
    Ok((report, tracer))
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".to_string()
    } else {
        id.to_string()
    }
}

/// Honesty fields common to every output.
fn honesty(args: &Args, size: Size) -> Vec<(&'static str, String)> {
    let q = |s: &str| format!("\"{s}\"");
    vec![
        ("workload", q(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        (
            "size",
            format!("{{\"NPROC\": {}, \"SCALE\": {}}}", size.nproc, size.scale),
        ),
        (
            "detected_cores",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "profile",
            q(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        // fsr-core is built with its default features, which leave the
        // simulator's accelerated kernels out.
        ("accel", "false".to_string()),
        // Every workload runs on one thread; side phases interleave with it.
        ("threads", sweep::THREADS.to_string()),
        ("rustc", q(env!("PERFBENCH_RUSTC"))),
        ("git_commit", q(&git_commit())),
    ]
}

fn json_obj(fields: &[(&'static str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(r: &Report) -> String {
    let mut metrics = String::new();
    for (i, x) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; print null, which no reader
        // accepts as a number, so the run is refused rather than skewed.
        let v = if x.value.is_finite() {
            format!("{}", x.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        correct(r),
        r.tally.attempted,
        r.tally.failed
    )
}

fn correct(r: &Report) -> bool {
    r.tally.failed == 0 && r.metrics.iter().all(|x| x.value.is_finite())
}

/// Recompute every reference digest with `run_pipeline` and rewrite the
/// reference file.
fn write_reference() -> Result<(), String> {
    use fsr_core::experiments::{plan_source, Backend, Vsn};
    let mut out = String::from(
        "# Reference digests of the cells cold_run and figure_sweep simulate: FNV-1a over\n\
         # SimStats, exec_cycles and per-object misses (see src/common.rs). Regenerate with\n\
         # `cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference`\n\
         # only when a change is meant to alter simulated results.\n",
    );
    for size in [Size::FULL, Size::SMALL] {
        for w in fsr_workloads::all() {
            let mut cells = Vec::new();
            for vsn in [Vsn::N, Vsn::C, Vsn::P] {
                for block in sweep::BLOCKS {
                    for backend in Backend::ABLATION {
                        cells.push((vsn, backend.config(block), backend));
                    }
                }
            }
            for seed in common::WS_SEEDS {
                let mut cfg = fsr_core::PipelineConfig::default();
                cfg.run.schedule = fsr_core::Schedule::WorkSteal { seed };
                cells.push((Vsn::C, cfg, Backend::default()));
            }
            for (vsn, cfg, backend) in cells {
                let r =
                    fsr_core::run_pipeline(w.source, &size.params(), plan_source(&w, vsn), &cfg)
                        .map_err(|e| format!("{}: {e}", w.name))?;
                let key = common::cell_key(
                    size,
                    w.name,
                    vsn,
                    cfg.block_bytes,
                    backend,
                    cfg.run.schedule,
                );
                let _ = writeln!(out, "{key} {:016x}", common::digest(&r));
            }
            eprintln!("reference: {}x{} {} done", size.nproc, size.scale, w.name);
        }
    }
    std::fs::write(common::REFERENCE_PATH, out).map_err(|e| e.to_string())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-reference"] {
        if let Err(e) = write_reference() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let size = Size::FULL;
    let seconds = args.seconds as f64;
    let mut info = honesty(&args, size);
    let run = if args.trace {
        measure_traced(&args.workload, args.seed, seconds, size).and_then(|(r, tracer)| {
            let path = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
                .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
            let mut header = info.clone();
            header.extend(r.info.iter().cloned());
            tracer
                .write_jsonl(&path, &json_obj(&header))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "perfbench: wrote {} spans to {}",
                tracer.len(),
                path.display()
            );
            Ok(r)
        })
    } else {
        measure(&args.workload, args.seed, seconds, size)
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for e in &report.tally.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    info.extend(report.info.iter().cloned());
    println!("{{\"info\": {}}}", json_obj(&info));
    let line = result_line(&report);
    println!("{line}");
    if !correct(&report) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsr_serve::json::{self, Value};

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in `kind`.
    fn declared(kind: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
        v.get(kind)
            .and_then(Value::as_arr)
            .expect(kind)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn emitted(r: &Report) -> Vec<(String, String)> {
        r.metrics
            .iter()
            .map(|x| (x.name.to_string(), x.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_emits_every_declared_metric_with_its_unit() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for w in WORKLOADS {
            let r = measure(w, DEFAULT_SEED, 1.0, Size::SMALL).expect("untraced run");
            assert!(correct(&r), "{w}: {:?}", r.tally.errors);
            assert_eq!(emitted(&r), end_to_end, "{w}");
            let (r, tracer) =
                measure_traced(w, HELD_OUT_SEED, 1.0, Size::SMALL).expect("traced run");
            assert!(correct(&r), "{w} traced: {:?}", r.tally.errors);
            assert_eq!(emitted(&r), per_layer, "{w} traced");
            assert!(tracer.len() > 0, "{w} traced run records spans");
        }
    }

    #[test]
    fn arguments_are_checked_not_defaulted() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload daemon_session --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("daemon_session", 7, 3, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload cold_run --seed x",
            "--workload cold_run --seed -1",
            "--workload cold_run --seconds 0",
            "--workload cold_run --seconds 61",
            "--workload cold_run --seconds 2.5",
            "--workload cold_run --trace 2",
            "--workload cold_run --seconds",
            "--workload cold_run --threads 2",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
