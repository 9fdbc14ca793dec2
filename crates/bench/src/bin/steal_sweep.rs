//! Steal-induced false sharing across the schedule axis.
//!
//! Runs every Table-1 workload under the default round-robin schedule
//! and under the seeded work-stealing schedule (several seeds), on each
//! protocol/interconnect backend pair, and reports per-cell steal
//! counts plus the false-sharing miss delta relative to round-robin.
//! Task migration moves a logical process's accesses to the thief's
//! cache lane, so blocks that were single-writer under round-robin can
//! become write-shared under stealing — this sweep measures how much.
//!
//! Accounting closure is asserted on every cell: the interpreter's
//! steal count equals the timing model's applied steal joins.
//!
//! Writes `BENCH_steal.json` (override with `FSR_BENCH_OUT`). With
//! `--golden`, writes only machine-independent fields (this bin has no
//! wall-clock in its rows, so golden mode just drops the timing
//! footer) for the tier-1 diff against `tests/golden/steal_sweep.json`.
//! Knobs: `FSR_NPROC`, `FSR_SCALE` as usual.

use fsr_bench::{Knobs, Table};
use fsr_core::driver::{run_batch, Job};
use fsr_core::PlanSource;
use fsr_core::{InterconnectKind, PipelineConfig, ProtocolKind, RunResult, Schedule};
use std::fmt::Write as _;
use std::time::Instant;

const BLOCK: u32 = 128;
const WS_SEEDS: [u64; 2] = [1, 2];

/// Each protocol on its natural interconnect (mirrors tests/scheduler.rs).
const BACKENDS: [(ProtocolKind, InterconnectKind); 3] = [
    (ProtocolKind::Msi, InterconnectKind::Ksr2Ring),
    (ProtocolKind::Mesi, InterconnectKind::Bus),
    (ProtocolKind::Directory, InterconnectKind::HomeDir),
];

fn cell_cfg(backend: (ProtocolKind, InterconnectKind), schedule: Schedule) -> PipelineConfig {
    let mut cfg = PipelineConfig::with_block(BLOCK).with_backends(backend.0, backend.1);
    cfg.run.schedule = schedule;
    cfg
}

fn run_cell(
    w: &fsr_workloads::Workload,
    k: &Knobs,
    backend: (ProtocolKind, InterconnectKind),
    schedule: Schedule,
) -> RunResult {
    let job = Job::new(
        format!("{}/{:?}/{schedule:?}", w.name, backend.0),
        w.source,
        &[("NPROC", k.nproc), ("SCALE", k.scale)],
        PlanSource::Unoptimized,
        cell_cfg(backend, schedule),
    );
    let mut out = run_batch(vec![job], 1);
    let (key, r) = out.remove(0);
    r.unwrap_or_else(|e| panic!("{}: {e:?}", key.meta))
}

struct Row {
    workload: &'static str,
    protocol: &'static str,
    rr_fs: u64,
    ws: Vec<(u64, u64, u64)>, // (seed, fs_misses, steals)
}

fn main() {
    let k = Knobs::from_env();
    let golden = std::env::args().any(|a| a == "--golden");
    eprintln!(
        "steal_sweep: nproc={} scale={} block={BLOCK} seeds={WS_SEEDS:?}",
        k.nproc, k.scale
    );
    let start = Instant::now();

    let mut rows: Vec<Row> = Vec::new();
    for w in fsr_workloads::all() {
        for backend in BACKENDS {
            let rr = run_cell(&w, &k, backend, Schedule::RoundRobin);
            assert_eq!(
                rr.interp.steals, 0,
                "{}: round-robin must not steal",
                w.name
            );
            assert_eq!(rr.timing.steal_joins, 0, "{}: rr steal joins", w.name);
            let mut ws = Vec::new();
            for seed in WS_SEEDS {
                let r = run_cell(&w, &k, backend, Schedule::WorkSteal { seed });
                assert_eq!(
                    r.interp.steals, r.timing.steal_joins,
                    "{}/{:?}/seed {seed}: interpreter steals vs timing joins",
                    w.name, backend.0
                );
                ws.push((seed, r.sim.false_sharing(), r.interp.steals));
            }
            rows.push(Row {
                workload: w.name,
                protocol: backend.0.name(),
                rr_fs: rr.sim.false_sharing(),
                ws,
            });
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let mut t = Table::new(&[
        "workload",
        "protocol",
        "rr_fs",
        "ws_fs(s1)",
        "steals(s1)",
        "dfs",
    ]);
    for r in &rows {
        let (_, fs, steals) = r.ws[0];
        t.row(vec![
            r.workload.to_string(),
            r.protocol.to_string(),
            r.rr_fs.to_string(),
            fs.to_string(),
            steals.to_string(),
            format!("{:+}", fs as i64 - r.rr_fs as i64),
        ]);
    }
    println!("{}", t.render());

    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        let ws: Vec<String> =
            r.ws.iter()
                .map(|(seed, fs, steals)| {
                    format!(
                        "{{\"seed\": {seed}, \"fs_misses\": {fs}, \"steals\": {steals}, \
                     \"delta_fs\": {}}}",
                        *fs as i64 - r.rr_fs as i64
                    )
                })
                .collect();
        let _ = write!(
            body,
            "{}    {{\"workload\": \"{}\", \"protocol\": \"{}\", \"rr_fs_misses\": {}, \
             \"work_steal\": [{}]}}",
            if i > 0 { ",\n" } else { "" },
            r.workload,
            r.protocol,
            r.rr_fs,
            ws.join(", ")
        );
    }
    let seeds: Vec<String> = WS_SEEDS.iter().map(|s| s.to_string()).collect();
    let footer = if golden {
        String::new()
    } else {
        format!("  \"wall_s\": {wall:.3},\n")
    };
    let json = format!(
        "{{\n  \"suite\": \"steal_sweep\",\n  \"nproc\": {},\n  \"scale\": {},\n  \
         \"block\": {BLOCK},\n  \"seeds\": [{}],\n{footer}  \"rows\": [\n{body}\n  ]\n}}\n",
        k.nproc,
        k.scale,
        seeds.join(", ")
    );
    let out = std::env::var("FSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_steal.json".into());
    std::fs::write(&out, json).expect("write steal results");
    eprintln!("wrote {out}");
}
