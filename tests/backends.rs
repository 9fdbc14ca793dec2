//! Backend-trait refactor guarantees: the KSR2 ring + MSI defaults are
//! bit-identical to the pre-refactor pipeline, MESI never changes miss
//! classification, and batched runs share one interpretation across
//! every (protocol, interconnect) combination.

use fsr_core::driver::{run_batch_with_stats, Job};
use fsr_core::experiments::{speedup_sweep, Vsn};
use fsr_core::{
    run_pipeline, InterconnectKind, MissKind, PipelineConfig, PlanSource, ProtocolKind,
};
use fsr_sim::{CacheConfig, CoherenceEvent, MultiSim};
use proptest::prelude::*;
use std::sync::Arc;

const GOLDEN_PROCS: [u32; 7] = [1, 2, 4, 8, 16, 28, 56];

/// Pre-refactor `speedup_sweep` exec cycles (scale 1, block 128) for the
/// fig4 workloads, captured from the monolithic ring timing model before
/// the `Interconnect` trait existed. The ring backend must reproduce
/// these exactly.
const GOLDEN: [(&str, Vsn, [u64; 7]); 4] = [
    (
        "raytrace",
        Vsn::N,
        [1545876, 1390821, 860882, 598662, 416595, 413759, 692393],
    ),
    (
        "raytrace",
        Vsn::C,
        [1548264, 908523, 524802, 348505, 275995, 318146, 619549],
    ),
    (
        "pverify",
        Vsn::N,
        [400258, 274060, 190381, 145975, 148570, 166219, 229509],
    ),
    (
        "pverify",
        Vsn::C,
        [419799, 240142, 142334, 94289, 69672, 80967, 136889],
    ),
];

#[test]
fn ring_timing_bit_identical_to_pre_refactor() {
    for (name, v, want) in GOLDEN {
        let w = fsr_workloads::by_name(name).unwrap();
        let curve = speedup_sweep(&w, v, &GOLDEN_PROCS, 1, 128, 1);
        let got: Vec<u64> = curve.points.iter().map(|&(_, t)| t).collect();
        assert_eq!(got, want, "{name}/{}", v.label());
    }
}

const COUNTERS: &str = "param NPROC = 4; shared int c[NPROC];
    fn main() { forall p in 0 .. NPROC { var i;
        for i in 0 .. 200 { c[p] = c[p] + 1; } } }";

#[test]
fn counters_kernel_matches_pre_refactor_golden() {
    // Full-pipeline golden under the MSI + KSR2-ring defaults, captured
    // before the backend traits: simulator counters, per-kind stall
    // attribution, and per-processor queueing must all reproduce.
    let cfg = PipelineConfig::default();
    assert_eq!(cfg.protocol, ProtocolKind::Msi);
    assert_eq!(cfg.machine.interconnect, InterconnectKind::Ksr2Ring);
    let r = run_pipeline(COUNTERS, &[], PlanSource::Unoptimized, &cfg).unwrap();
    assert_eq!(r.sim.refs, 1600);
    assert_eq!(r.sim.reads, 800);
    assert_eq!(r.sim.writes, 800);
    assert_eq!(r.sim.misses, [4, 0, 0, 1197]);
    assert_eq!(r.sim.upgrades, 200);
    assert_eq!(r.sim.invalidations, 1200);
    assert_eq!(r.sim.exclusive_hits, 0, "MSI never installs Exclusive");
    assert_eq!(r.exec_cycles, 73619);
    assert_eq!(r.timing.queue, vec![34864, 16778, 16, 28]);
    assert_eq!(r.timing.stall_by_kind, [120, 0, 0, 261161]);
    assert_eq!(r.timing.upgrade_stall, 18000);
}

#[test]
fn batch_shares_one_interpretation_across_backends() {
    // Protocol and interconnect are simulator/timing state, not trace
    // state: a batch over every backend combination must collapse into a
    // single trace group and a single interpreter run, exactly like a
    // block-size sweep.
    let src: Arc<str> = Arc::from(COUNTERS);
    let mut jobs: Vec<Job<(ProtocolKind, InterconnectKind)>> = Vec::new();
    for p in ProtocolKind::ALL {
        for ic in InterconnectKind::ALL {
            jobs.push(Job {
                meta: (p, ic),
                src: src.clone(),
                params: vec![],
                plan: PlanSource::Unoptimized,
                cfg: PipelineConfig::default().with_backends(p, ic),
            });
        }
    }
    let (out, stats) = run_batch_with_stats(jobs, 1);
    assert_eq!(stats.jobs, 9);
    assert_eq!(stats.front_ends, 1);
    assert_eq!(stats.trace_groups, 1, "backends share one trace group");
    assert_eq!(stats.interpretations, 1, "exactly one interpreter run");

    // Miss classification is backend-independent; only coherence events
    // and timing change.
    let results: Vec<_> = out
        .iter()
        .map(|(j, r)| (j.meta, r.as_ref().unwrap()))
        .collect();
    let ((_, base), rest) = results.split_first().unwrap();
    for (meta, r) in rest {
        assert_eq!(r.sim.misses, base.sim.misses, "{meta:?}");
        assert_eq!(r.per_obj, base.per_obj, "{meta:?}");
    }
    for ((p, _), r) in &results {
        match p {
            ProtocolKind::Msi => assert_eq!(r.sim.exclusive_hits, 0),
            ProtocolKind::Mesi => assert_eq!(
                r.sim.upgrades + r.sim.exclusive_hits,
                base.sim.upgrades,
                "MESI silences upgrades one-for-one"
            ),
            ProtocolKind::Directory => {
                // MSI cache states at the home: same transactions, plus
                // every miss and upgrade counted at its home directory.
                assert_eq!(r.sim.upgrades, base.sim.upgrades);
                assert_eq!(r.sim.exclusive_hits, 0);
                assert_eq!(
                    r.sim.dir_txns,
                    r.sim.total_misses() + r.sim.upgrades,
                    "every miss and upgrade visits the home"
                );
            }
        }
    }
}

#[test]
fn bus_and_ring_account_the_same_misses_differently() {
    let msi_ring = PipelineConfig::default();
    let msi_bus = PipelineConfig::default().with_backends(ProtocolKind::Msi, InterconnectKind::Bus);
    let a = run_pipeline(COUNTERS, &[], PlanSource::Unoptimized, &msi_ring).unwrap();
    let b = run_pipeline(COUNTERS, &[], PlanSource::Unoptimized, &msi_bus).unwrap();
    assert_eq!(a.sim, b.sim, "interconnect must not affect the simulator");
    // The bus charges every fill (even memory-served cold misses) channel
    // occupancy, so its stall attribution must diverge from the ring's.
    assert_ne!(
        a.timing.stall_by_kind, b.timing.stall_by_kind,
        "bus and ring account stalls identically"
    );
}

/// A synthetic access trace: each draw decodes to (pid, word, is_write).
fn traces() -> impl Strategy<Value = Vec<(u8, u32, bool)>> {
    proptest::collection::vec(0u64..512, 300).prop_map(|raw| {
        raw.into_iter()
            .map(|x| ((x & 3) as u8, ((x >> 2) & 63) as u32, (x >> 8) & 1 == 1))
            .collect()
    })
}

fn run_protocol(protocol: ProtocolKind, trace: &[(u8, u32, bool)]) -> MultiSim {
    let cfg = CacheConfig {
        protocol,
        ..CacheConfig::with_block(32, 4)
    };
    let mut sim = MultiSim::new(cfg, 64 * 4);
    for &(pid, word, write) in trace {
        sim.access(pid, word * 4, write);
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// MESI's Exclusive state changes *traffic* (upgrades become silent,
    /// clean remote copies are supplied by intervention) but never the
    /// miss classification: per-block miss counts of every kind are
    /// identical to MSI on any trace.
    #[test]
    fn mesi_classifies_every_miss_exactly_like_msi(trace in traces()) {
        let msi = run_protocol(ProtocolKind::Msi, &trace);
        let mesi = run_protocol(ProtocolKind::Mesi, &trace);

        prop_assert_eq!(msi.stats().refs, mesi.stats().refs);
        prop_assert_eq!(&msi.stats().misses, &mesi.stats().misses);
        prop_assert_eq!(msi.per_block_misses(), mesi.per_block_misses());
        for k in MissKind::ALL {
            prop_assert_eq!(msi.stats().miss_of(k), mesi.stats().miss_of(k));
        }

        // Every write hit MSI pays an upgrade for is, under MESI, either
        // still an upgrade (line was Shared) or a silent Exclusive hit.
        prop_assert_eq!(msi.stats().exclusive_hits, 0);
        prop_assert_eq!(
            msi.stats().upgrades,
            mesi.stats().upgrades + mesi.stats().exclusive_hits
        );
        // A silent upgrade by definition had no other copies to kill.
        prop_assert_eq!(msi.stats().invalidations, mesi.stats().invalidations);
        prop_assert_eq!(
            msi.stats().event_of(CoherenceEvent::Invalidation),
            mesi.stats().event_of(CoherenceEvent::Invalidation)
        );
    }
}
