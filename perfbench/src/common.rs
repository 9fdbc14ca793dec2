//! Pieces every workload shares: problem size, the reference digest,
//! failure accounting, percentiles and the simulated-result summary.

use fsr_core::experiments::{Backend, Vsn};
use fsr_core::{RunResult, Schedule, SimStats};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Problem size handed to every workload program.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub nproc: i64,
    pub scale: i64,
}

impl Size {
    /// The size every measured run uses (the paper's 12 processors).
    pub const FULL: Size = Size {
        nproc: 12,
        scale: 2,
    };
    /// The self-test size.
    pub const SMALL: Size = Size { nproc: 4, scale: 1 };

    pub fn params(&self) -> [(&'static str, i64); 2] {
        [("NPROC", self.nproc), ("SCALE", self.scale)]
    }

    fn tag(&self) -> String {
        format!("{}x{}", self.nproc, self.scale)
    }
}

/// Work-steal seeds a run may draw from. The reference digest covers
/// each of them, so every `--seed` gets a checked work-steal schedule.
pub const WS_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

pub fn ws_seed(seed: u64) -> u64 {
    WS_SEEDS[super::rng::Rng::new(seed, 7).below(WS_SEEDS.len())]
}

fn schedule_tag(s: Schedule) -> String {
    match s {
        Schedule::RoundRobin => "rr".to_string(),
        Schedule::WorkSteal { seed } => format!("ws{seed}"),
    }
}

/// Identifies one simulated cell in the reference digest.
pub fn cell_key(
    size: Size,
    workload: &str,
    vsn: Vsn,
    block: u32,
    backend: Backend,
    sched: Schedule,
) -> String {
    format!(
        "{} {workload} {} {block} {} {} {}",
        size.tag(),
        vsn.label(),
        backend.protocol.name(),
        backend.interconnect.name(),
        schedule_tag(sched)
    )
}

/// FNV-1a over the canonical rendering of a result's `SimStats`,
/// `exec_cycles` and per-object misses.
pub fn digest(r: &RunResult) -> u64 {
    let mut s = String::new();
    let st: &SimStats = &r.sim;
    let _ = write!(
        s,
        "{} {} {} {:?} {} {} {} {} {} | {}",
        st.refs,
        st.reads,
        st.writes,
        st.misses,
        st.upgrades,
        st.invalidations,
        st.interventions,
        st.exclusive_hits,
        st.dir_txns,
        r.exec_cycles
    );
    for (name, m) in &r.per_obj {
        let _ = write!(s, " | {name} {:?}", m.misses);
    }
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");

/// The reference digests kept with the benchmark, keyed by [`cell_key`].
pub struct Reference(HashMap<String, u64>);

impl Reference {
    pub fn load() -> Result<Reference, String> {
        let text = std::fs::read_to_string(REFERENCE_PATH)
            .map_err(|e| format!("cannot read {REFERENCE_PATH}: {e}"))?;
        let mut map = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (key, hex) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("bad reference line `{line}`"))?;
            let d = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("bad digest in reference line `{line}`"))?;
            map.insert(key.to_string(), d);
        }
        Ok(Reference(map))
    }

    pub fn check(&self, key: &str, r: &RunResult) -> Result<(), String> {
        match self.0.get(key) {
            None => Err(format!("no reference digest for `{key}`")),
            Some(&d) if d == digest(r) => Ok(()),
            Some(&d) => Err(format!(
                "`{key}`: digest {:016x} differs from reference {d:016x}",
                digest(r)
            )),
        }
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` makes it a failed one.
    pub fn op(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        self.fail_on(r);
    }

    /// Record a failed check on an operation already counted.
    pub fn fail_on(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(20);
    }
}

/// `Ok` when `a == b`, else an error naming `what`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, a: T, b: T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// Latency samples of one class, each tagged with the type of operation
/// it times: a job, a (document, configuration) replay, a document's
/// lint or simulate hit, a document's edit.
///
/// The reported figures are not percentiles of the raw samples. Each
/// sample is first replaced by its type's floor, the fastest sample of
/// that type in the run, and the percentile is taken over those floors.
/// A type's floor is its cost when the host is not contended: the 2-core
/// VM this benchmark was tuned on slows the same job down by up to 3× for
/// seconds to tens of seconds at a time, and raw percentiles moved by up
/// to 45% between runs. So `p50` and `p90`/`p99` are the floors of the
/// operation types at those ranks of the cost order, and they show a
/// change in the cost of operations, not a tail that comes and goes
/// within a type (contention, an occasional slow request): no figure here
/// can detect such a tail. [`Samples::raw_pct`] gives the raw
/// percentiles, which the result's `info` line prints unguarded.
#[derive(Default, Clone)]
pub struct Samples(Vec<(usize, f64)>);

impl Samples {
    pub fn push(&mut self, ty: usize, v: f64) {
        self.0.push((ty, v));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn floored(&self) -> Vec<f64> {
        let mut floor: HashMap<usize, f64> = HashMap::new();
        for &(t, v) in &self.0 {
            let f = floor.entry(t).or_insert(v);
            *f = f.min(v);
        }
        self.0.iter().map(|(t, _)| floor[t]).collect()
    }

    /// Nearest-rank percentile `p` (0 < p < 100) of the floored samples.
    pub fn pct(&self, p: f64) -> f64 {
        nearest_rank(self.floored(), p)
    }

    /// Nearest-rank percentile `p` of the raw samples.
    pub fn raw_pct(&self, p: f64) -> f64 {
        nearest_rank(self.0.iter().map(|s| s.1).collect(), p)
    }

    /// Fewest samples of any type.
    pub fn min_per_type(&self) -> usize {
        let mut n: HashMap<usize, usize> = HashMap::new();
        for &(t, _) in &self.0 {
            *n.entry(t).or_default() += 1;
        }
        n.values().copied().min().unwrap_or(0)
    }

    pub fn floored_sum(&self) -> f64 {
        self.floored().iter().sum()
    }

    /// Smallest sample count that leaves ten samples beyond `p`.
    pub fn needed(p: f64) -> usize {
        (10.0 / (1.0 - p / 100.0)).round() as usize
    }
}

fn nearest_rank(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    nearest_rank(v.to_vec(), 50.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// False-sharing misses and simulated cycles of the N and C versions of
/// each program at 128 B on MSI + ring: the paper's Figure 3 cells.
#[derive(Default)]
pub struct PaperCells(BTreeMap<&'static str, [Option<(u64, u64)>; 2]>);

impl PaperCells {
    pub fn add(&mut self, workload: &'static str, vsn: Vsn, fs: u64, cycles: u64) {
        let slot = match vsn {
            Vsn::N => 0,
            Vsn::C => 1,
            Vsn::P => return,
        };
        self.0.entry(workload).or_default()[slot] = Some((fs, cycles));
    }

    /// Pairs over the Figure 3 set (programs with an N version).
    fn pairs(&self) -> Vec<((u64, u64), (u64, u64))> {
        fsr_workloads::figure3_set()
            .iter()
            .filter_map(|w| match self.0.get(w.name) {
                Some([Some(n), Some(c)]) => Some((*n, *c)),
                _ => None,
            })
            .collect()
    }

    /// Mean false-sharing-miss reduction C vs N, in percent, over the
    /// programs whose N version false-shares at all.
    pub fn fs_reduction_pct(&self) -> f64 {
        let r: Vec<f64> = self
            .pairs()
            .iter()
            .filter(|(n, _)| n.0 > 0)
            .map(|(n, c)| 100.0 * (1.0 - c.0 as f64 / n.0 as f64))
            .collect();
        r.iter().sum::<f64>() / r.len() as f64
    }

    /// Geometric mean of simulated exec cycles C / N.
    pub fn c_cycles_ratio(&self) -> f64 {
        let p = self.pairs();
        let logs: f64 = p.iter().map(|(n, c)| (c.1 as f64 / n.1 as f64).ln()).sum();
        (logs / p.len() as f64).exp()
    }

    pub fn complete(&self) -> bool {
        self.pairs().len() == fsr_workloads::figure3_set().len()
    }
}
