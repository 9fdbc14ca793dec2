//! Cross-backend coherence matrix: every workload × version ×
//! protocol × interconnect, with per-object coherence-event counters.
//!
//! Runs the [`fsr_core::experiments::protocol_matrix_cells`] sweep one
//! (protocol, interconnect) backend pair at a time — each pair is one
//! `run_batch` call whose wall-clock is measured, so the output carries
//! a per-cell timing row per backend pair — prints a summary table, and
//! writes the full matrix as structured JSON to
//! `BENCH_protocol_matrix.json` (override the path with
//! `FSR_BENCH_OUT`).
//!
//! With `--golden`, runs the whole matrix as one batch and prints only
//! the machine-independent per-cell digest (no timings) to stdout,
//! which `scripts/tier1.sh` diffs against
//! `tests/golden/protocol_matrix.json` at pinned knobs
//! (`FSR_NPROC=8 FSR_SCALE=1`).
//!
//! Knobs: `FSR_NPROC`, `FSR_SCALE`, `FSR_THREADS` as usual, plus
//! `FSR_MATRIX_WORKLOADS` (comma-separated names, default
//! `raytrace,pverify,maxflow,topopt`).

use fsr_bench::{json_str, Knobs, Table};
use fsr_core::experiments::{protocol_matrix, protocol_matrix_cells, Backend, MatrixCell, Vsn};
use fsr_core::{CoherenceEvent, InterconnectKind, MissKind, ProtocolKind};
use std::fmt::Write as _;
use std::time::Instant;

const BLOCK: u32 = 128;
const DEFAULT_WORKLOADS: &str = "raytrace,pverify,maxflow,topopt";

fn cell_json(c: &MatrixCell) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "    {{\"program\": {}, \"version\": {}, \"protocol\": {}, \"interconnect\": {},\n     \
         \"block\": {}, \"nproc\": {}, \"exec_cycles\": {}, \"queue_stall\": {},\n     \
         \"refs\": {}, \"reads\": {}, \"writes\": {},\n     \"misses\": {{",
        json_str(&c.program),
        json_str(&c.version),
        json_str(&c.protocol),
        json_str(&c.interconnect),
        c.block,
        c.nproc,
        c.exec_cycles,
        c.timing.total_queue(),
        c.sim.refs,
        c.sim.reads,
        c.sim.writes,
    );
    for (i, k) in MissKind::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(k.name()),
            c.sim.miss_of(*k)
        );
    }
    s.push_str("},\n     \"events\": {");
    for (i, e) in CoherenceEvent::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(e.name()),
            c.sim.event_of(*e)
        );
    }
    s.push_str("},\n     \"objects\": [");
    for (i, (name, oc)) in c.per_obj.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n      {{\"name\": {}, ",
            if i > 0 { "," } else { "" },
            json_str(name)
        );
        for e in CoherenceEvent::ALL {
            let _ = write!(s, "{}: {}, ", json_str(e.name()), oc.event_of(e));
        }
        let _ = write!(s, "\"queue_stall\": {}}}", oc.queue_stall);
    }
    if !c.per_obj.is_empty() {
        s.push_str("\n     ");
    }
    s.push_str("]}");
    s
}

/// One machine-independent line per cell: identity plus the execution
/// time, reference count and miss taxonomy.
fn cell_digest(c: &MatrixCell) -> String {
    let mut s = format!(
        "    {{\"program\": {}, \"version\": {}, \"protocol\": {}, \
         \"interconnect\": {}, \"exec_cycles\": {}, \"refs\": {}, \"misses\": {{",
        json_str(&c.program),
        json_str(&c.version),
        json_str(&c.protocol),
        json_str(&c.interconnect),
        c.exec_cycles,
        c.sim.refs
    );
    for (i, kind) in MissKind::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(kind.name()),
            c.sim.miss_of(*kind)
        );
    }
    s.push_str("}}");
    s
}

/// Print the per-cell digest of the full matrix, in
/// program × version × protocol × interconnect order.
fn print_golden(k: &Knobs, names: &[&str]) {
    let cells = protocol_matrix(names, &[Vsn::N, Vsn::C], k.nproc, k.scale, BLOCK, k.threads);
    assert!(!cells.is_empty(), "no workloads matched {names:?}");
    let digests: Vec<String> = cells.iter().map(cell_digest).collect();
    print!(
        "{{\n  \"nproc\": {},\n  \"scale\": {},\n  \"block\": {BLOCK},\n  \"cells\": [\n{}\n  ]\n}}\n",
        k.nproc,
        k.scale,
        digests.join(",\n")
    );
}

fn main() {
    let k = Knobs::from_env();
    let names_env =
        std::env::var("FSR_MATRIX_WORKLOADS").unwrap_or_else(|_| DEFAULT_WORKLOADS.into());
    let names: Vec<&str> = names_env.split(',').map(str::trim).collect();
    eprintln!(
        "protocol_matrix: nproc={} scale={} block={} workloads={names:?}",
        k.nproc, k.scale, BLOCK
    );
    if std::env::args().any(|a| a == "--golden") {
        print_golden(&k, &names);
        return;
    }

    // One batch per (protocol, interconnect) backend pair so every
    // pair's wall-clock is measured on its own — the per-cell timing
    // axis of the matrix.
    let mut cells: Vec<MatrixCell> = Vec::new();
    let mut pair_walls: Vec<(ProtocolKind, InterconnectKind, f64)> = Vec::new();
    for protocol in ProtocolKind::ALL {
        for ic in InterconnectKind::ALL {
            let start = Instant::now();
            let pair_cells = protocol_matrix_cells(
                &names,
                &[Vsn::N, Vsn::C],
                k.nproc,
                k.scale,
                BLOCK,
                k.threads,
                &[Backend::new(protocol, ic)],
            );
            pair_walls.push((protocol, ic, start.elapsed().as_secs_f64()));
            cells.extend(pair_cells);
        }
    }
    assert!(!cells.is_empty(), "no workloads matched {names:?}");

    let mut t = Table::new(&[
        "program", "version", "protocol", "net", "exec", "queue", "inval", "upgr", "intv", "excl",
    ]);
    for c in &cells {
        t.row(vec![
            c.program.clone(),
            c.version.clone(),
            c.protocol.clone(),
            c.interconnect.clone(),
            c.exec_cycles.to_string(),
            c.timing.total_queue().to_string(),
            c.sim.invalidations.to_string(),
            c.sim.upgrades.to_string(),
            c.sim.interventions.to_string(),
            c.sim.exclusive_hits.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut pt = Table::new(&["protocol", "net", "wall_ms"]);
    for (p, ic, wall) in &pair_walls {
        pt.row(vec![
            p.name().to_string(),
            ic.name().to_string(),
            format!("{:.1}", wall * 1e3),
        ]);
    }
    println!("{}", pt.render());

    let protos: Vec<String> = ProtocolKind::ALL
        .iter()
        .map(|p| json_str(p.name()))
        .collect();
    let nets: Vec<String> = InterconnectKind::ALL
        .iter()
        .map(|i| json_str(i.name()))
        .collect();
    let progs: Vec<String> = names.iter().map(|n| json_str(n)).collect();
    let pairs: Vec<String> = pair_walls
        .iter()
        .map(|(p, ic, wall)| {
            format!(
                "    {{\"protocol\": {}, \"interconnect\": {}, \"wall_ms\": {:.3}}}",
                json_str(p.name()),
                json_str(ic.name()),
                wall * 1e3
            )
        })
        .collect();
    let body: Vec<String> = cells.iter().map(cell_json).collect();
    let json = format!(
        "{{\n  \"suite\": \"protocol_matrix\",\n  \"nproc\": {},\n  \"scale\": {},\n  \
         \"block\": {},\n  \"protocols\": [{}],\n  \
         \"interconnects\": [{}],\n  \"workloads\": [{}],\n  \"pair_timings\": [\n{}\n  ],\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        k.nproc,
        k.scale,
        BLOCK,
        protos.join(", "),
        nets.join(", "),
        progs.join(", "),
        pairs.join(",\n"),
        body.join(",\n")
    );
    let out =
        std::env::var("FSR_BENCH_OUT").unwrap_or_else(|_| "BENCH_protocol_matrix.json".into());
    std::fs::write(&out, json).expect("write matrix results");
    eprintln!("wrote {out}");
}
