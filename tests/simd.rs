//! Engine equivalence suite for the struct-of-arrays / chunked-replay
//! simulator hot path ([`fsr_core::SimEngine`]).
//!
//! The scalar engine is the semantic reference: the SoA probe-first
//! path and the chunked lane-parallel replay are *optimizations*, and
//! these tests pin that they are bit-identical — every counter, every
//! outcome, every timing statistic — across protocols, interconnects,
//! workloads and random reference streams. Any divergence is a bug in
//! the fast path, never an acceptable approximation.

use fsr_core::driver::{run_batch, Job, PlanSourceSpec};
use fsr_core::{CacheConfig, InterconnectKind, PipelineConfig, ProtocolKind, RunResult, SimEngine};
use fsr_sim::{MultiSim, Outcome, CHUNK_LANES};
use proptest::prelude::*;
use std::sync::Arc;

/// Each protocol on its natural interconnect (directory traffic needs
/// the home-node fabric for its 2/3-hop costs to be exercised).
fn backend_pairs() -> [(ProtocolKind, InterconnectKind); 3] {
    [
        (ProtocolKind::Msi, InterconnectKind::Ksr2Ring),
        (ProtocolKind::Mesi, InterconnectKind::Bus),
        (ProtocolKind::Directory, InterconnectKind::HomeDir),
    ]
}

fn assert_same(want: &RunResult, got: &RunResult, ctx: &str) {
    assert_eq!(want.nproc, got.nproc, "{ctx}: nproc");
    assert_eq!(want.sim, got.sim, "{ctx}: sim stats");
    assert_eq!(want.per_obj, got.per_obj, "{ctx}: per-object misses");
    assert_eq!(
        want.per_obj_coherence, got.per_obj_coherence,
        "{ctx}: per-object coherence"
    );
    assert_eq!(
        want.per_obj_refs, got.per_obj_refs,
        "{ctx}: per-object refs"
    );
    assert_eq!(want.exec_cycles, got.exec_cycles, "{ctx}: exec cycles");
    assert_eq!(want.timing, got.timing, "{ctx}: timing stats");
    assert_eq!(want.interp, got.interp, "{ctx}: interp stats");
    assert_eq!(
        want.fs_stall_frac.to_bits(),
        got.fs_stall_frac.to_bits(),
        "{ctx}: fs stall fraction"
    );
}

fn workload_jobs(
    w: &fsr_workloads::Workload,
    nproc: i64,
    blocks: &[u32],
    backend: (ProtocolKind, InterconnectKind),
    engine: SimEngine,
) -> Vec<Job<String>> {
    let src: Arc<str> = Arc::from(w.source);
    blocks
        .iter()
        .flat_map(|&b| {
            [PlanSourceSpec::Unoptimized, PlanSourceSpec::Compiler]
                .into_iter()
                .map(move |plan| (b, plan))
        })
        .map(|(b, plan)| {
            Job::new(
                format!("{}/{:?}/{b}/{plan:?}/{engine}", w.name, backend.0),
                src.clone(),
                &[("NPROC", nproc), ("SCALE", 1)],
                plan,
                PipelineConfig::with_block(b)
                    .with_backends(backend.0, backend.1)
                    .with_engine(engine),
            )
        })
        .collect()
}

/// Run one job list and unwrap every result (all jobs here are valid).
fn run_ok(jobs: Vec<Job<String>>) -> Vec<(String, RunResult)> {
    run_batch(jobs, 1)
        .into_iter()
        .map(|(job, r)| {
            let meta = job.meta.clone();
            (job.meta, r.unwrap_or_else(|e| panic!("{meta}: {e}")))
        })
        .collect()
}

/// Acceptance gate: all ten workloads × all three protocol backends;
/// the SoA and chunked engines reproduce the scalar engine's
/// `RunResult` bit-for-bit.
#[test]
fn engines_bit_identical_for_every_workload_and_protocol() {
    for w in fsr_workloads::all() {
        for backend in backend_pairs() {
            let jobs = |e| workload_jobs(&w, 4, &[128], backend, e);
            let baseline = run_ok(jobs(SimEngine::Scalar));
            for engine in [SimEngine::Soa, SimEngine::SoaChunked] {
                let got = run_ok(jobs(engine));
                for ((_, want), (meta, got)) in baseline.iter().zip(&got) {
                    assert_same(want, got, meta);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random (workload, nproc, block): every engine reproduces the
    /// scalar result on all three protocol backends at once.
    #[test]
    fn engines_equal_on_random_configs(
        wi in 0usize..10,
        bi in 0usize..4,
        nproc in 2i64..6,
    ) {
        let blocks = [16u32, 32, 64, 128];
        let set = fsr_workloads::all();
        let w = &set[wi % set.len()];
        for backend in backend_pairs() {
            let jobs = |e| workload_jobs(w, nproc, &[blocks[bi]], backend, e);
            let baseline = run_ok(jobs(SimEngine::Scalar));
            for engine in SimEngine::ALL {
                let got = run_ok(jobs(engine));
                for ((_, want), (meta, got)) in baseline.iter().zip(&got) {
                    assert_same(want, got, meta);
                }
            }
        }
    }

    /// Random reference streams straight into the simulator: the
    /// chunked replay — with proptest-chosen ragged chunk boundaries —
    /// and the per-reference SoA path both reproduce the scalar
    /// engine's outcomes, statistics, and global coherence snapshot on
    /// every protocol. This is the layer below the
    /// pipeline tests: no interpreter, no timing model, just the
    /// coherence engine on adversarial address streams.
    #[test]
    fn raw_random_traces_replay_bit_identically(
        len in 1usize..600,
        pids in proptest::collection::vec(0u8..4, 600),
        words in proptest::collection::vec(0u32..4096, 600),
        writes in proptest::collection::vec(0u8..2, 600),
        splits in proptest::collection::vec(1usize..(CHUNK_LANES + 1), 32),
    ) {
        let trace: Vec<(u8, u32, bool)> = (0..len)
            .map(|i| (pids[i], words[i], writes[i] == 1))
            .collect();
        for protocol in [ProtocolKind::Msi, ProtocolKind::Mesi, ProtocolKind::Directory] {
            let cfg = CacheConfig {
                nproc: 4,
                block_bytes: 64,
                cache_bytes: 16 * 1024,
                assoc: 4,
                protocol,
            };
            let bound = 4096 * 4;
            let mut scalar = MultiSim::new(cfg, bound);
            let mut soa = MultiSim::new(cfg, bound);
            let mut chunked = MultiSim::new(cfg, bound);

            let want: Vec<Outcome> = trace
                .iter()
                .map(|&(p, w, wr)| scalar.access_with(SimEngine::Scalar, p, w * 4, wr))
                .collect();
            let got_soa: Vec<Outcome> = trace
                .iter()
                .map(|&(p, w, wr)| soa.access_with(SimEngine::Soa, p, w * 4, wr))
                .collect();
            prop_assert_eq!(&got_soa, &want, "soa outcomes ({:?})", protocol);

            // Chunked: feed the same stream in ragged proptest-chosen
            // chunks (cycling through `splits`), exactly as the sink
            // would at phase boundaries.
            let mut got_chunked = vec![Outcome::default(); trace.len()];
            let mut at = 0usize;
            let mut si = 0usize;
            while at < trace.len() {
                let n = splits[si % splits.len()].min(trace.len() - at);
                si += 1;
                let mut pids = [0u8; CHUNK_LANES];
                let mut addrs = [0u32; CHUNK_LANES];
                let mut mask = 0u64;
                for (j, &(p, w, wr)) in trace[at..at + n].iter().enumerate() {
                    pids[j] = p;
                    addrs[j] = w * 4;
                    if wr {
                        mask |= 1 << j;
                    }
                }
                chunked.access_chunk(
                    &pids[..n],
                    &addrs[..n],
                    mask,
                    &mut got_chunked[at..at + n],
                );
                at += n;
            }
            prop_assert_eq!(&got_chunked, &want, "chunked outcomes ({:?})", protocol);

            prop_assert_eq!(soa.stats(), scalar.stats(), "soa stats ({:?})", protocol);
            prop_assert_eq!(
                chunked.stats(),
                scalar.stats(),
                "chunked stats ({:?})",
                protocol
            );
            prop_assert_eq!(
                soa.snapshot(),
                scalar.snapshot(),
                "soa snapshot ({:?})",
                protocol
            );
            prop_assert_eq!(
                chunked.snapshot(),
                scalar.snapshot(),
                "chunked snapshot ({:?})",
                protocol
            );
        }
    }
}
