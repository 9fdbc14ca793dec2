//! Cross-backend equivalence on the real workloads plus directory
//! goldens.
//!
//! The directory backend exists to change *costs*, never *semantics*:
//! word-level access totals, the miss taxonomy, and every per-object
//! attribution must be bit-identical across MSI + ring, MESI + ring and
//! directory + home-dir on all ten paper workloads. The golden tests
//! then pin the directory-specific counters (home transactions, hop
//! classes, per-home occupancy) on the counters kernel so cost-model
//! drift is caught as loudly as classification drift.

use fsr_core::driver::{run_batch, Job};
use fsr_core::experiments::{plan_source, protocol_matrix_cells, Backend, Vsn};
use fsr_core::{run_pipeline, InterconnectKind, MissKind, PlanSource, ProtocolKind};
use std::collections::BTreeMap;
use std::sync::Arc;

const NPROC: i64 = 8;
const SCALE: i64 = 1;
const BLOCK: u32 = 128;

/// Every workload × {unopt, compiler} × every ablation backend, one
/// batch. Returns results keyed by (program, version, backend index).
fn run_matrix() -> BTreeMap<(String, String, usize), fsr_core::RunResult> {
    let mut jobs: Vec<Job<(String, String, usize)>> = Vec::new();
    for w in fsr_workloads::all() {
        for v in [Vsn::N, Vsn::C] {
            for (bi, b) in Backend::ABLATION.iter().enumerate() {
                jobs.push(Job {
                    meta: (w.name.to_string(), v.label().to_string(), bi),
                    src: Arc::from(w.source),
                    params: vec![("NPROC".into(), NPROC), ("SCALE".into(), SCALE)],
                    plan: plan_source(&w, v),
                    cfg: b.config(BLOCK),
                });
            }
        }
    }
    run_batch(jobs, 0)
        .into_iter()
        .map(|(j, r)| (j.meta, r.expect("workload runs on every backend")))
        .collect()
}

#[test]
fn all_workloads_classify_identically_on_every_backend() {
    let out = run_matrix();
    for w in fsr_workloads::all() {
        for v in ["unopt", "compiler"] {
            let key = |bi: usize| (w.name.to_string(), v.to_string(), bi);
            let base = &out[&key(0)];
            for bi in 1..Backend::ABLATION.len() {
                let r = &out[&key(bi)];
                let tag = format!("{}/{v} vs {:?}", w.name, Backend::ABLATION[bi]);

                // Word-level access totals.
                assert_eq!(r.sim.refs, base.sim.refs, "{tag}: refs");
                assert_eq!(r.sim.reads, base.sim.reads, "{tag}: reads");
                assert_eq!(r.sim.writes, base.sim.writes, "{tag}: writes");

                // The paper's taxonomy, in aggregate and per object.
                assert_eq!(r.sim.misses, base.sim.misses, "{tag}: miss classes");
                assert_eq!(r.per_obj, base.per_obj, "{tag}: per-object misses");
                assert_eq!(r.per_obj_refs, base.per_obj_refs, "{tag}: per-object refs");

                // Write-invalidate traffic: directory reuses the MSI
                // state machine, so invalidations match MSI exactly.
                assert_eq!(
                    r.sim.invalidations, base.sim.invalidations,
                    "{tag}: invalidations"
                );
            }
        }
    }
}

#[test]
fn directory_counters_appear_only_under_the_directory_backend() {
    let out = run_matrix();
    for ((prog, vsn, bi), r) in &out {
        let b = Backend::ABLATION[*bi];
        let tag = format!("{prog}/{vsn} on {b:?}");
        if b.protocol == ProtocolKind::Directory {
            assert_eq!(
                r.sim.dir_txns,
                r.sim.total_misses() + r.sim.upgrades,
                "{tag}: every miss and upgrade visits the home"
            );
        } else {
            assert_eq!(r.sim.dir_txns, 0, "{tag}: snooping has no home");
        }
        if b.interconnect == InterconnectKind::HomeDir {
            assert_eq!(
                r.timing.two_hop + r.timing.three_hop,
                r.sim.total_misses() + r.sim.upgrades,
                "{tag}: every home transaction has a hop class"
            );
        } else {
            assert_eq!(r.timing.two_hop, 0, "{tag}");
            assert_eq!(r.timing.three_hop, 0, "{tag}");
        }
    }
}

const COUNTERS: &str = "param NPROC = 4; shared int c[NPROC];
    fn main() { forall p in 0 .. NPROC { var i;
        for i in 0 .. 200 { c[p] = c[p] + 1; } } }";

#[test]
fn counters_kernel_directory_golden() {
    // The directory analog of `counters_kernel_matches_pre_refactor_golden`
    // in tests/backends.rs: exact counters under directory + home-dir.
    // Classification columns must equal the MSI golden; the cost columns
    // pin the 2/3-hop model.
    let cfg = Backend::ABLATION[2].config(128);
    assert_eq!(cfg.protocol, ProtocolKind::Directory);
    assert_eq!(cfg.machine.interconnect, InterconnectKind::HomeDir);
    let r = run_pipeline(COUNTERS, &[], PlanSource::Unoptimized, &cfg).unwrap();

    // Identical to the MSI/ring golden: trace-derived counters.
    assert_eq!(r.sim.refs, 1600);
    assert_eq!(r.sim.reads, 800);
    assert_eq!(r.sim.writes, 800);
    assert_eq!(r.sim.misses, [4, 0, 0, 1197]);
    assert_eq!(r.sim.upgrades, 200);
    assert_eq!(r.sim.invalidations, 1200);
    assert_eq!(r.sim.exclusive_hits, 0, "directory uses MSI cache states");

    // Directory-specific: every one of the 1201 misses and 200 upgrades
    // is a home transaction.
    assert_eq!(r.sim.dir_txns, 1401);
}

#[test]
fn ablation_rows_are_complete_and_internally_consistent() {
    let rows = protocol_matrix_cells(
        &["maxflow", "mp3d"],
        &[Vsn::N, Vsn::C],
        NPROC,
        SCALE,
        BLOCK,
        0,
        &Backend::ABLATION,
    );
    // 2 workloads × 2 versions × 3 backends.
    assert_eq!(rows.len(), 12);

    for name in ["maxflow", "mp3d"] {
        for vsn in ["unopt", "compiler"] {
            let cell: Vec<_> = rows
                .iter()
                .filter(|r| r.program == name && r.version == vsn)
                .collect();
            assert_eq!(cell.len(), 3, "{name}/{vsn}");
            let base = cell[0];
            assert_eq!(base.protocol, "msi");
            for r in &cell[1..] {
                assert_eq!(r.sim.misses, base.sim.misses, "{name}/{vsn}: taxonomy");
            }
            let dir = cell
                .iter()
                .find(|r| r.protocol == "directory")
                .expect("directory row");
            assert_eq!(dir.interconnect, "home-dir");
            assert!(dir.sim.dir_txns > 0, "{name}/{vsn}: home saw traffic");
            let fs = base.sim.misses[MissKind::FalseSharing as usize];
            if vsn == "unopt" {
                assert!(fs > 0, "{name} unopt must exhibit false sharing");
            }
        }
    }
}
