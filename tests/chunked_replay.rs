//! Chunked-replay equivalence: [`MultiSim::access_chunk`] against the
//! per-reference [`MultiSim::access`] it must reproduce.
//!
//! The pipeline replays every reference through the chunked path; the
//! per-reference path is the semantic reference. These tests pin that
//! the two are bit-identical — every outcome, every counter, the global
//! coherence snapshot — across protocols, cache geometries and random
//! reference streams. Any divergence is a bug in the chunked path,
//! never an acceptable approximation.

use fsr_sim::{CacheConfig, MultiSim, Outcome, ProtocolKind, CHUNK_LANES};
use proptest::prelude::*;

/// `(block_bytes, cache_bytes, assoc)` of each geometry under test:
/// - 64 sets: the chunk's set-taint bitmap is exact;
/// - 512 sets of 16-byte blocks, direct-mapped: the taint is aliased
///   through `set & 63` (the figure sweeps' block-16 jobs take this
///   path), and conflict evictions occur within the address range;
/// - 85 sets: not a power of two, so the chunk falls back to per-lane
///   [`MultiSim::access`].
const GEOMETRIES: [(u32, u32, u32); 3] =
    [(64, 16 * 1024, 4), (16, 8 * 1024, 1), (64, 85 * 3 * 64, 3)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random reference streams straight into the simulator: the
    /// chunked replay, with proptest-chosen ragged chunk boundaries,
    /// reproduces the per-reference outcomes, statistics, and global
    /// coherence snapshot on every protocol and geometry. No
    /// interpreter, no timing model, just the coherence engine on
    /// adversarial address streams.
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
        for (block_bytes, cache_bytes, assoc) in GEOMETRIES {
            for protocol in ProtocolKind::ALL {
                let cfg = CacheConfig {
                    nproc: 4,
                    block_bytes,
                    cache_bytes,
                    assoc,
                    protocol,
                };
                let ctx = (protocol, cfg.num_sets());
                let bound = 4096 * 4;
                let mut serial = MultiSim::new(cfg, bound);
                let mut chunked = MultiSim::new(cfg, bound);

                let want: Vec<Outcome> = trace
                    .iter()
                    .map(|&(p, w, wr)| serial.access(p, w * 4, wr))
                    .collect();

                // Feed the same stream in ragged proptest-chosen chunks
                // (cycling through `splits`), exactly as the sink would
                // at phase boundaries.
                let mut got = vec![Outcome::default(); trace.len()];
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
                    chunked.access_chunk(&pids[..n], &addrs[..n], mask, &mut got[at..at + n]);
                    at += n;
                }
                prop_assert_eq!(&got, &want, "outcomes {:?}", ctx);
                prop_assert_eq!(chunked.stats(), serial.stats(), "stats {:?}", ctx);
                prop_assert_eq!(chunked.snapshot(), serial.snapshot(), "snapshot {:?}", ctx);
            }
        }
    }
}
