//! Directory-coherence ablation: how the paper's miss taxonomy and
//! false-sharing *costs* shift when the broadcast-style KSR2 substrate
//! is replaced by a home-node directory fabric.
//!
//! Runs [`fsr_core::experiments::protocol_matrix_cells`] over every
//! workload × {unopt, compiler} × [`Backend::ABLATION`] (MSI + ring,
//! MESI + ring, directory + home-dir) as one `run_batch` call — prints a
//! summary table plus the per-workload false-sharing cost deltas, and
//! writes the rows as structured JSON to
//! `BENCH_directory_ablation.json` (override with `FSR_BENCH_OUT`).
//!
//! The miss-classification columns are identical across the three
//! backends (the taxonomy is protocol-invariant; the property tests
//! prove it on random traces, this report commits it for the real
//! workloads); the cost columns are where the substrates diverge.
//!
//! Knobs: `FSR_NPROC`, `FSR_SCALE`, `FSR_THREADS` as usual, plus
//! `FSR_ABLATION_WORKLOADS` (comma-separated names, default: all ten).
//!
//! [`Backend::ABLATION`]: fsr_core::experiments::Backend::ABLATION

use fsr_bench::{json_str, Knobs, Table};
use fsr_core::experiments::{protocol_matrix_cells, Backend, MatrixCell, Vsn};
use fsr_core::MissKind;
use std::fmt::Write as _;

const BLOCK: u32 = 128;

/// Stall cycles charged to false-sharing misses: the per-workload
/// false-sharing *cost*, which does shift per backend.
fn fs_stall(r: &MatrixCell) -> u64 {
    r.timing.stall_by_kind[MissKind::FalseSharing as usize]
}

fn row_json(r: &MatrixCell) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\"program\": {}, \"version\": {}, \"protocol\": {}, \"interconnect\": {},\n     \
         \"block\": {}, \"nproc\": {}, \"misses\": {{",
        json_str(&r.program),
        json_str(&r.version),
        json_str(&r.protocol),
        json_str(&r.interconnect),
        r.block,
        r.nproc,
    );
    for (i, k) in MissKind::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(k.name()),
            r.sim.misses[*k as usize]
        );
    }
    let _ = write!(
        s,
        "}},\n     \"upgrades\": {}, \"invalidations\": {}, \"dir_txns\": {},\n     \
         \"exec_cycles\": {}, \"fs_stall\": {}, \"queue_stall\": {},\n     \
         \"two_hop\": {}, \"three_hop\": {}, \"max_channel_busy\": {}}}",
        r.sim.upgrades,
        r.sim.invalidations,
        r.sim.dir_txns,
        r.exec_cycles,
        fs_stall(r),
        r.timing.total_queue(),
        r.timing.two_hop,
        r.timing.three_hop,
        r.timing.max_channel_busy(),
    );
    s
}

fn main() {
    let k = Knobs::from_env();
    let names_env = std::env::var("FSR_ABLATION_WORKLOADS").unwrap_or_default();
    let names: Vec<&str> = if names_env.is_empty() {
        fsr_workloads::all().iter().map(|w| w.name).collect()
    } else {
        names_env.split(',').map(str::trim).collect()
    };
    eprintln!(
        "directory_ablation: nproc={} scale={} block={} workloads={names:?}",
        k.nproc, k.scale, BLOCK
    );

    let rows = protocol_matrix_cells(
        &names,
        &[Vsn::N, Vsn::C],
        k.nproc,
        k.scale,
        BLOCK,
        k.threads,
        &Backend::ABLATION,
    );
    assert!(!rows.is_empty(), "no workloads matched {names:?}");

    let mut t = Table::new(&[
        "program", "version", "protocol", "net", "fs_miss", "fs_stall", "exec", "dir_txn", "3hop",
        "queue", "hot_chan",
    ]);
    for r in &rows {
        t.row(vec![
            r.program.clone(),
            r.version.clone(),
            r.protocol.clone(),
            r.interconnect.clone(),
            r.sim.misses[MissKind::FalseSharing as usize].to_string(),
            fs_stall(r).to_string(),
            r.exec_cycles.to_string(),
            r.sim.dir_txns.to_string(),
            r.timing.three_hop.to_string(),
            r.timing.total_queue().to_string(),
            r.timing.max_channel_busy().to_string(),
        ]);
    }
    println!("{}", t.render());

    // Per-workload false-sharing cost deltas: directory vs the two
    // snooping backends, on the unoptimized version (where the false
    // sharing lives).
    let find = |prog: &str, version: &str, protocol: &str| {
        rows.iter()
            .find(|r| r.program == prog && r.version == version && r.protocol == protocol)
    };
    println!("false-sharing stall, unopt (directory vs snooping):");
    for &name in &names {
        let (Some(msi), Some(mesi), Some(dir)) = (
            find(name, "unopt", "msi"),
            find(name, "unopt", "mesi"),
            find(name, "unopt", "directory"),
        ) else {
            continue;
        };
        let pct = |a: u64, b: u64| {
            if b == 0 {
                0.0
            } else {
                100.0 * (a as f64 - b as f64) / b as f64
            }
        };
        println!(
            "  {name:>10}: dir {:>10} vs msi {:>10} ({:+6.1}%) vs mesi {:>10} ({:+6.1}%)",
            fs_stall(dir),
            fs_stall(msi),
            pct(fs_stall(dir), fs_stall(msi)),
            fs_stall(mesi),
            pct(fs_stall(dir), fs_stall(mesi)),
        );
    }

    let progs: Vec<String> = names.iter().map(|n| json_str(n)).collect();
    let body: Vec<String> = rows.iter().map(row_json).collect();
    let json = format!(
        "{{\n  \"suite\": \"directory_ablation\",\n  \"nproc\": {},\n  \"scale\": {},\n  \
         \"block\": {},\n  \"workloads\": [{}],\n  \"rows\": [\n{}\n  ]\n}}\n",
        k.nproc,
        k.scale,
        BLOCK,
        progs.join(", "),
        body.join(",\n")
    );
    let out =
        std::env::var("FSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_directory_ablation.json".into());
    std::fs::write(&out, json).expect("write ablation results");
    eprintln!("wrote {out}");
}
