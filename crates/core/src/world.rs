//! The `World`: a persistent, snapshot-able artifact layer over the
//! pipeline, modeled on the language-server split of state into a
//! mutable world plus cheap read snapshots.
//!
//! A [`World`] owns two things:
//!
//! - a *document registry* (`name → current source text`), the only
//!   mutable state. Edits go through [`World::open`] / [`World::change`]
//!   and produce a new document map; [`Snapshot`]s taken earlier keep
//!   seeing the text they started with, so an in-flight request is never
//!   torn by a concurrent edit.
//! - *content-addressed artifact caches*, shared by every snapshot:
//!   checked programs + bytecode (+ lazily the sharing analysis) per
//!   (source, params), race-lint summaries per (source, params),
//!   recorded reference traces per (source, params, run config, layout
//!   fingerprint), and whole pipeline results per (source, params, plan,
//!   config). Keys embed the source *content*, never the document name,
//!   so two documents with identical text share every artifact and a
//!   stale entry can never be served for edited text.
//!
//! Invalidation is explicit and minimal: [`World::change`] evicts
//! exactly the cache entries keyed by the document's *previous* content
//! (and only if no other open document still holds that content);
//! entries for untouched sources keep their `Arc`s, pointer-identical —
//! `tests/world.rs` asserts both properties. Because the caches are
//! content-addressed, serving from them is exact: a warm request is
//! bit-identical to the one-shot pipeline, which `tests/serve.rs` pins
//! across concurrent clients.
//!
//! The batch driver ([`crate::driver`]) runs *on* a world: transient
//! entry points (`run_batch*`) build a throwaway [`World::transient`]
//! (front-end sharing only, exactly the old behavior), while a
//! persistent [`World::new`] additionally records traces and caches
//! results so a long-lived daemon (`fsr-serve`) performs zero new
//! interpreter passes for repeated work.

use crate::driver::{self, BatchStats, Job, JobResults};
use crate::{PipelineError, RunResult};
use fsr_interp::{RunConfig, RunStats, RuntimeError, TraceEvent};
use fsr_lang::ast::{ElemTy, FieldId, ObjectKind};
use fsr_lang::diag::Diagnostics;
use fsr_layout::Layout;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key for front-end artifacts: the source *content* plus the
/// parameter bindings. Hashing an `Arc<str>` hashes the text, so this
/// is the content fingerprint (with full equality resolving any hash
/// collision exactly).
pub(crate) type FeKey = (Arc<str>, Vec<(String, i64)>);

/// Shared front-end artifacts for one (source, params) key: the checked
/// program, its bytecode, the resolved process count, and — computed at
/// most once, on first demand — the sharing analysis, which the layout
/// planner and the race lint both consume.
pub struct FrontEnd {
    pub prog: Arc<crate::Program>,
    pub code: Arc<fsr_interp::Compiled>,
    pub nproc: u32,
    analysis: OnceLock<Result<Arc<crate::Analysis>, PipelineError>>,
}

impl FrontEnd {
    fn compile(src: &str, params: &[(String, i64)]) -> Result<FrontEnd, PipelineError> {
        let params: Vec<(&str, i64)> = params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let prog = fsr_lang::compile_with_params(src, &params)?;
        let nproc = crate::resolve_nproc(&prog)?;
        let code = fsr_interp::compile_program(&prog)?;
        Ok(FrontEnd {
            prog: Arc::new(prog),
            code: Arc::new(code),
            nproc,
            analysis: OnceLock::new(),
        })
    }

    /// The sharing analysis, computed on first call and shared by the
    /// planner and the race lint thereafter (an analysis failure is
    /// cached too, failing only the requests that need it).
    pub fn analysis(&self) -> Result<Arc<crate::Analysis>, PipelineError> {
        self.analysis_counted(None)
    }

    pub(crate) fn analysis_counted(
        &self,
        fresh: Option<&AtomicUsize>,
    ) -> Result<Arc<crate::Analysis>, PipelineError> {
        self.analysis
            .get_or_init(|| {
                if let Some(c) = fresh {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                fsr_analysis::analyze(&self.prog)
                    .map(Arc::new)
                    .map_err(PipelineError::from)
            })
            .clone()
    }
}

impl fmt::Debug for FrontEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrontEnd")
            .field("nproc", &self.nproc)
            .field("analyzed", &self.analysis.get().is_some())
            .finish()
    }
}

/// One cached race-lint run: the diagnostics plus the derived summary
/// fields the serving layer reports.
#[derive(Debug, Clone)]
pub struct LintSummary {
    pub diagnostics: Diagnostics,
    /// Names of objects carrying at least one reported race.
    pub racy: Vec<String>,
    /// Conflicting pairs suppressed as unprovable (see `fsr-analysis`).
    pub suppressed_pairs: usize,
    /// `(object label, reason)` for every suppressed access group,
    /// sorted by label.
    pub suppressed: Vec<(String, String)>,
    /// Whether dynamic refinement facts from a recorded trace were
    /// folded into the verdicts.
    pub refined: bool,
}

/// Extract dynamic refinement facts from a recorded reference trace:
/// shared-data objects where two *different* processes touched the same
/// word inside the same barrier generation, at least one writing. The
/// per-generation scoping mirrors the static phase analysis — accesses
/// ordered by an intervening barrier are never counted as conflicting,
/// so partition-rotation patterns (each process visiting every element
/// across *different* generations) produce no spurious witnesses.
///
/// Lock-ordered conflicts *are* reported here (handoff events are
/// ignored); the race pass's static lockset check is what decides
/// whether a witnessed overlap is actually unsynchronized, so a
/// lock-guarded counter still lints clean.
///
/// Granularity is per object: a witness on any field of a struct
/// object marks every `(obj, field)` group of that object.
pub fn refine_facts_from(
    prog: &crate::Program,
    layout: &Layout,
    events: &[TraceEvent],
) -> fsr_analysis::RefineFacts {
    let mut conflicted: std::collections::BTreeSet<fsr_lang::ast::ObjId> = Default::default();
    // Per-word (reader, writer) pid masks within the current generation.
    let mut readers: HashMap<u32, u64> = HashMap::new();
    let mut writers: HashMap<u32, u64> = HashMap::new();
    for e in events {
        match e {
            TraceEvent::Sync(_) => {
                readers.clear();
                writers.clear();
            }
            // Hand-off and steal edges are ordering-only: like
            // lock-ordered conflicts, steal-ordered overlaps stay
            // visible as witnesses and the static passes decide what
            // they mean.
            TraceEvent::Handoff { .. } | TraceEvent::Steal { .. } => {}
            TraceEvent::Access(r) => {
                let bit = 1u64 << u32::from(r.pid).min(63);
                let wr = writers.entry(r.addr).or_insert(0);
                let rd = readers.entry(r.addr).or_insert(0);
                if r.write {
                    *wr |= bit;
                } else {
                    *rd |= bit;
                }
                let conflict = (*wr & !bit) != 0 || (r.write && ((*rd | *wr) & !bit) != 0);
                if conflict {
                    if let Some(oid) = layout.attribute(r.addr) {
                        if prog.object(oid).kind == ObjectKind::SharedData {
                            conflicted.insert(oid);
                        }
                    }
                }
            }
        }
    }
    let mut facts = fsr_analysis::RefineFacts::default();
    for oid in conflicted {
        facts.conflicting.insert((oid, None));
        if let ElemTy::Struct(sid) = prog.object(oid).elem {
            for f in 0..prog.struct_(sid).fields.len() {
                facts.conflicting.insert((oid, Some(FieldId(f as u32))));
            }
        }
    }
    facts
}

/// One cached reference trace: the event stream of a translation unit,
/// the interpreter statistics of the recording run, and the driving
/// layout (kept so a fingerprint match is confirmed exactly with
/// [`Layout::trace_eq`] before the recording is reused).
pub(crate) struct CachedTrace {
    pub events: Vec<TraceEvent>,
    pub interp: RunStats,
    pub layout: Layout,
}

impl CachedTrace {
    /// Interpret `fe` once under `layout`, keeping the event stream —
    /// the one recorder behind both the batch driver's trace cache and
    /// the refined lint.
    pub(crate) fn record(
        fe: &FrontEnd,
        layout: &Layout,
        run: RunConfig,
    ) -> Result<CachedTrace, RuntimeError> {
        let mut rec = fsr_interp::RecordedTrace::default();
        let fin = fsr_interp::run(&fe.prog, layout, &fe.code, run, &mut rec)?;
        // The recording outlives the request in the trace cache; drop
        // the growth slack rather than keep it resident.
        rec.events.shrink_to_fit();
        Ok(CachedTrace {
            events: rec.events,
            interp: fin.stats,
            layout: layout.clone(),
        })
    }
}

type TraceKey = (FeKey, RunConfig, u64);
/// (front-end key, plan source description, pipeline config description).
/// The descriptions are the `Debug` renderings — exhaustive over every
/// knob, so two keys are equal iff the jobs are identical.
type ResultKey = (FeKey, String, String);

/// Per-run tallies the driver folds into its [`BatchStats`].
#[derive(Default)]
pub(crate) struct RunCounters {
    pub fe_fresh: AtomicUsize,
    pub fe_hits: AtomicUsize,
    pub analyses: AtomicUsize,
    pub interpretations: AtomicUsize,
    pub trace_hits: AtomicUsize,
}

#[derive(Default)]
struct HitMiss {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl HitMiss {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// The content-addressed artifact caches, shared by every snapshot of a
/// world. Entries are immutable once inserted; concurrent computes of
/// the same key race benignly (first insert wins, keeping `Arc`s
/// pointer-stable for everyone).
pub(crate) struct Caches {
    /// Cache whole pipeline results per (source, params, plan, config).
    pub cache_results: bool,
    /// Record and replay per-unit reference traces.
    pub cache_traces: bool,
    fronts: Mutex<HashMap<FeKey, Result<Arc<FrontEnd>, PipelineError>>>,
    /// Keyed by (content, refined?): a refined summary folds dynamic
    /// trace facts into the verdicts, so it must never be served for a
    /// plain request (or vice versa).
    lints: Mutex<HashMap<(FeKey, bool), Arc<LintSummary>>>,
    traces: Mutex<HashMap<TraceKey, Arc<CachedTrace>>>,
    results: Mutex<HashMap<ResultKey, Arc<RunResult>>>,
    fe_ctr: HitMiss,
    lint_ctr: HitMiss,
    trace_ctr: HitMiss,
    result_ctr: HitMiss,
}

impl Caches {
    fn new(persist: bool) -> Caches {
        Caches {
            cache_results: persist,
            cache_traces: persist,
            fronts: Mutex::new(HashMap::new()),
            lints: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            fe_ctr: HitMiss::default(),
            lint_ctr: HitMiss::default(),
            trace_ctr: HitMiss::default(),
            result_ctr: HitMiss::default(),
        }
    }

    /// Front-end artifacts for (src, params), compiled at most once per
    /// content. With `want_analysis`, the sharing analysis is ensured
    /// (and memoized on the front end) before returning.
    pub(crate) fn front_end(
        &self,
        src: &Arc<str>,
        params: &[(String, i64)],
        want_analysis: bool,
        rc: &RunCounters,
    ) -> Result<Arc<FrontEnd>, PipelineError> {
        let key: FeKey = (src.clone(), params.to_vec());
        let cached = self.fronts.lock().unwrap().get(&key).cloned();
        let fe = match cached {
            Some(r) => {
                rc.fe_hits.fetch_add(1, Ordering::Relaxed);
                self.fe_ctr.hit();
                r
            }
            None => {
                rc.fe_fresh.fetch_add(1, Ordering::Relaxed);
                self.fe_ctr.miss();
                let fresh = FrontEnd::compile(src, params).map(Arc::new);
                self.fronts
                    .lock()
                    .unwrap()
                    .entry(key)
                    .or_insert(fresh)
                    .clone()
            }
        }?;
        if want_analysis {
            // Memoize (and count) the analysis now; a failure is
            // reported later, only against the jobs that consume it.
            let _ = fe.analysis_counted(Some(&rc.analyses));
        }
        Ok(fe)
    }

    /// Race-lint summary for (src, params), computed at most once per
    /// (content, refined?). Returns the summary and whether it was
    /// served warm. With `refine`, a reference trace is recorded (or
    /// reused from the trace cache) under the unoptimized layout and
    /// its conflict witnesses upgrade statically-unprovable pairs (see
    /// [`refine_facts_from`]).
    pub(crate) fn lint(
        &self,
        src: &Arc<str>,
        params: &[(String, i64)],
        refine: bool,
    ) -> Result<(Arc<LintSummary>, bool), PipelineError> {
        let rc = RunCounters::default();
        let fe = self.front_end(src, params, false, &rc)?;
        let fe_key: FeKey = (src.clone(), params.to_vec());
        let key = (fe_key.clone(), refine);
        if let Some(s) = self.lints.lock().unwrap().get(&key).cloned() {
            self.lint_ctr.hit();
            return Ok((s, true));
        }
        self.lint_ctr.miss();
        let analysis = fe.analysis()?;
        let refine_facts = if refine {
            let cfg = crate::PipelineConfig::default();
            let plan = crate::LayoutPlan::unoptimized(cfg.block_bytes);
            let layout = Layout::try_build(&fe.prog, &plan, fe.nproc)?;
            let tkey: TraceKey = (fe_key, cfg.run, layout.trace_fingerprint());
            let trace = match self.trace_get(&tkey, &layout) {
                Some(ct) => ct,
                None => {
                    let ct = Arc::new(CachedTrace::record(&fe, &layout, cfg.run)?);
                    if self.cache_traces {
                        self.trace_put(tkey, ct.clone());
                    }
                    ct
                }
            };
            Some(refine_facts_from(&fe.prog, &layout, &trace.events))
        } else {
            None
        };
        let report = fsr_analysis::detect_with(&fe.prog, &analysis, refine_facts.as_ref());
        let racy = report
            .racy_objects()
            .iter()
            .map(|&o| fe.prog.object(o).name.clone())
            .collect();
        let suppressed = report
            .suppressed
            .iter()
            .map(|g| {
                (
                    fsr_analysis::access_label(&fe.prog, g.obj, g.field),
                    g.reason.to_string(),
                )
            })
            .collect();
        let summary = Arc::new(LintSummary {
            racy,
            suppressed_pairs: report.suppressed_pairs,
            suppressed,
            refined: refine,
            diagnostics: report.diagnostics,
        });
        let s = self
            .lints
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(summary)
            .clone();
        Ok((s, false))
    }

    /// A cached recording for this unit key, confirmed exact against
    /// the requesting layout (a fingerprint collision reads as a miss).
    pub(crate) fn trace_get(&self, key: &TraceKey, layout: &Layout) -> Option<Arc<CachedTrace>> {
        let hit = self
            .traces
            .lock()
            .unwrap()
            .get(key)
            .filter(|ct| ct.layout.trace_eq(layout))
            .cloned();
        match &hit {
            Some(_) => self.trace_ctr.hit(),
            None => self.trace_ctr.miss(),
        }
        hit
    }

    pub(crate) fn trace_put(&self, key: TraceKey, trace: Arc<CachedTrace>) {
        self.traces.lock().unwrap().entry(key).or_insert(trace);
    }

    pub(crate) fn result_get(&self, key: &ResultKey) -> Option<Arc<RunResult>> {
        let hit = self.results.lock().unwrap().get(key).cloned();
        match &hit {
            Some(_) => self.result_ctr.hit(),
            None => self.result_ctr.miss(),
        }
        hit
    }

    pub(crate) fn result_put(&self, key: ResultKey, result: Arc<RunResult>) {
        self.results.lock().unwrap().entry(key).or_insert(result);
    }

    /// Drop every cache entry keyed by this exact source content.
    fn evict_src(&self, src: &str) -> Evicted {
        let mut ev = Evicted::default();
        let mut fronts = self.fronts.lock().unwrap();
        let before = fronts.len();
        fronts.retain(|(s, _), _| **s != *src);
        ev.front_ends = before - fronts.len();
        drop(fronts);
        let mut lints = self.lints.lock().unwrap();
        let before = lints.len();
        lints.retain(|((s, _), _), _| **s != *src);
        ev.lints = before - lints.len();
        drop(lints);
        let mut traces = self.traces.lock().unwrap();
        let before = traces.len();
        traces.retain(|((s, _), _, _), _| **s != *src);
        ev.traces = before - traces.len();
        drop(traces);
        let mut results = self.results.lock().unwrap();
        let before = results.len();
        results.retain(|((s, _), _, _), _| **s != *src);
        ev.results = before - results.len();
        ev
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            front_ends: self.fronts.lock().unwrap().len(),
            fe_hits: self.fe_ctr.hits.load(Ordering::Relaxed),
            fe_misses: self.fe_ctr.misses.load(Ordering::Relaxed),
            lints: self.lints.lock().unwrap().len(),
            lint_hits: self.lint_ctr.hits.load(Ordering::Relaxed),
            lint_misses: self.lint_ctr.misses.load(Ordering::Relaxed),
            traces: self.traces.lock().unwrap().len(),
            trace_hits: self.trace_ctr.hits.load(Ordering::Relaxed),
            trace_misses: self.trace_ctr.misses.load(Ordering::Relaxed),
            results: self.results.lock().unwrap().len(),
            result_hits: self.result_ctr.hits.load(Ordering::Relaxed),
            result_misses: self.result_ctr.misses.load(Ordering::Relaxed),
        }
    }
}

/// How many cache entries an edit removed, per cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evicted {
    pub front_ends: usize,
    pub lints: usize,
    pub traces: usize,
    pub results: usize,
}

impl Evicted {
    pub fn total(&self) -> usize {
        self.front_ends + self.lints + self.traces + self.results
    }
}

/// Point-in-time cache occupancy and lifetime hit/miss counters — the
/// honesty numbers `fsr-serve` reports and `serve_bench` records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub front_ends: usize,
    pub fe_hits: u64,
    pub fe_misses: u64,
    pub lints: usize,
    pub lint_hits: u64,
    pub lint_misses: u64,
    pub traces: usize,
    pub trace_hits: u64,
    pub trace_misses: u64,
    pub results: usize,
    pub result_hits: u64,
    pub result_misses: u64,
}

/// The mutable world: the document registry plus the shared caches.
/// See the module docs for the architecture.
pub struct World {
    docs: Arc<HashMap<String, Arc<str>>>,
    caches: Arc<Caches>,
}

impl World {
    /// A persistent world: front ends, lint summaries, traces, and
    /// results are all cached across requests.
    pub fn new() -> World {
        World {
            docs: Arc::new(HashMap::new()),
            caches: Arc::new(Caches::new(true)),
        }
    }

    /// A throwaway world for one batch: front-end artifacts are shared
    /// *within* the run (exactly the old `run_batch` behavior), but
    /// nothing is recorded or retained beyond it.
    pub fn transient() -> World {
        World {
            docs: Arc::new(HashMap::new()),
            caches: Arc::new(Caches::new(false)),
        }
    }

    /// A consistent read view: the document map as of now, plus the
    /// shared caches. Cloning is two `Arc` bumps.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            docs: self.docs.clone(),
            caches: self.caches.clone(),
        }
    }

    /// Open (or replace) a document. Replacing different text evicts
    /// the replaced content's cache entries, like [`World::change`].
    pub fn open(&mut self, name: &str, text: impl Into<Arc<str>>) -> Evicted {
        let text = text.into();
        let old = Arc::make_mut(&mut self.docs).insert(name.to_string(), text);
        match old {
            Some(old) => self.evict_if_unreferenced(&old),
            None => Evicted::default(),
        }
    }

    /// Replace an open document's text, evicting exactly the cache
    /// entries keyed by its previous content (unless another open
    /// document still holds that content). Returns `None` if the
    /// document was never opened.
    pub fn change(&mut self, name: &str, text: impl Into<Arc<str>>) -> Option<Evicted> {
        if !self.docs.contains_key(name) {
            return None;
        }
        Some(self.open(name, text))
    }

    /// Close a document, evicting its content's entries (unless shared
    /// with another open document).
    pub fn close(&mut self, name: &str) -> Evicted {
        match Arc::make_mut(&mut self.docs).remove(name) {
            Some(old) => self.evict_if_unreferenced(&old),
            None => Evicted::default(),
        }
    }

    fn evict_if_unreferenced(&self, old: &Arc<str>) -> Evicted {
        // Content-addressed caches: another document with the same text
        // still owns these entries, so eviction would be a false evict.
        if self.docs.values().any(|t| *t == *old) {
            return Evicted::default();
        }
        self.caches.evict_src(old)
    }

    pub fn doc(&self, name: &str) -> Option<Arc<str>> {
        self.docs.get(name).cloned()
    }

    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

/// A cheap, consistent read view over a [`World`]: the frozen document
/// map plus the shared content-addressed caches. Every serving request
/// clones one of these and works unlocked.
#[derive(Clone)]
pub struct Snapshot {
    docs: Arc<HashMap<String, Arc<str>>>,
    caches: Arc<Caches>,
}

impl Snapshot {
    pub(crate) fn caches(&self) -> &Caches {
        &self.caches
    }

    pub fn doc(&self, name: &str) -> Option<Arc<str>> {
        self.docs.get(name).cloned()
    }

    /// Shared front-end artifacts for this source content (compiled at
    /// most once per content across all snapshots of the world).
    pub fn front_end(
        &self,
        src: &Arc<str>,
        params: &[(String, i64)],
    ) -> Result<Arc<FrontEnd>, PipelineError> {
        self.caches
            .front_end(src, params, false, &RunCounters::default())
    }

    /// Race-lint summary for this source content, cached per content.
    /// The `bool` reports whether the summary was served warm.
    pub fn lint(
        &self,
        src: &Arc<str>,
        params: &[(String, i64)],
    ) -> Result<(Arc<LintSummary>, bool), PipelineError> {
        self.caches.lint(src, params, false)
    }

    /// [`Snapshot::lint`] with dynamic refinement: a recorded reference
    /// trace supplies conflict witnesses that upgrade
    /// statically-unprovable pairs (cached separately from the plain
    /// summary; the recording itself lands in the shared trace cache).
    pub fn lint_refined(
        &self,
        src: &Arc<str>,
        params: &[(String, i64)],
    ) -> Result<(Arc<LintSummary>, bool), PipelineError> {
        self.caches.lint(src, params, true)
    }

    /// [`crate::driver::run_batch`] on this world's caches.
    pub fn run_batch<M: Sync + fmt::Debug>(
        &self,
        jobs: Vec<Job<M>>,
        threads: usize,
    ) -> JobResults<M> {
        self.run_batch_with_stats(jobs, threads).0
    }

    /// [`crate::driver::run_batch_with_stats`] on this world's caches:
    /// repeated identical jobs are served from the result cache (zero
    /// interpreter passes), units matching a recorded trace are replayed
    /// without re-interpreting, and everything else runs the full engine
    /// — bit-identical to the transient path throughout.
    pub fn run_batch_with_stats<M: Sync + fmt::Debug>(
        &self,
        jobs: Vec<Job<M>>,
        threads: usize,
    ) -> (JobResults<M>, BatchStats) {
        driver::run_batch_in(&self.caches, jobs, threads, None)
    }

    /// Streaming variant: `notify` fires exactly once per job, from the
    /// worker that resolved it (cache hits fire immediately, in
    /// submission order), before the full results are returned.
    pub fn run_batch_streaming<M: Sync + fmt::Debug>(
        &self,
        jobs: Vec<Job<M>>,
        threads: usize,
        notify: driver::BatchNotify<'_>,
    ) -> (JobResults<M>, BatchStats) {
        driver::run_batch_in(&self.caches, jobs, threads, Some(notify))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineConfig, PlanSource};

    const COUNTERS: &str = "param NPROC = 2; shared int c[NPROC];
        fn main() { forall p in 0 .. NPROC { var i;
            for i in 0 .. 50 { c[p] = c[p] + 1; } } }";

    fn job(src: &Arc<str>, block: u32) -> Job<u32> {
        Job {
            meta: block,
            src: src.clone(),
            params: vec![],
            plan: PlanSource::Unoptimized,
            cfg: PipelineConfig::with_block(block),
        }
    }

    #[test]
    fn snapshot_shares_front_ends_pointer_equal() {
        let world = World::new();
        let snap = world.snapshot();
        let src: Arc<str> = Arc::from(COUNTERS);
        let a = snap.front_end(&src, &[]).unwrap();
        let b = snap.front_end(&src, &[]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Same content through a different Arc still hits.
        let src2: Arc<str> = Arc::from(COUNTERS);
        let c = snap.front_end(&src2, &[]).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        let stats = world.cache_stats();
        assert_eq!(stats.front_ends, 1);
        assert_eq!(stats.fe_misses, 1);
        assert_eq!(stats.fe_hits, 2);
    }

    #[test]
    fn warm_world_serves_results_without_interpreting() {
        let world = World::new();
        let snap = world.snapshot();
        let src: Arc<str> = Arc::from(COUNTERS);
        let (cold, s1) = snap.run_batch_with_stats(vec![job(&src, 32), job(&src, 64)], 1);
        assert_eq!(s1.result_hits, 0);
        assert_eq!(s1.interpretations, 1);
        let (warm, s2) = snap.run_batch_with_stats(vec![job(&src, 32), job(&src, 64)], 1);
        assert_eq!(s2.result_hits, 2, "whole batch served from cache");
        assert_eq!(s2.interpretations, 0);
        assert_eq!(s2.front_ends, 0);
        for ((_, want), (_, got)) in cold.iter().zip(&warm) {
            let (want, got) = (want.as_ref().unwrap(), got.as_ref().unwrap());
            assert_eq!(want.sim, got.sim);
            assert_eq!(want.exec_cycles, got.exec_cycles);
            assert_eq!(want.timing, got.timing);
        }
    }

    #[test]
    fn change_evicts_only_the_edited_content() {
        let mut world = World::new();
        world.open("a", COUNTERS);
        let other = COUNTERS.replace("50", "60");
        world.open("b", other);
        let snap = world.snapshot();
        let a_src = snap.doc("a").unwrap();
        let b_src = snap.doc("b").unwrap();
        let fe_a = snap.front_end(&a_src, &[]).unwrap();
        let _ = snap.front_end(&b_src, &[]).unwrap();
        assert_eq!(world.cache_stats().front_ends, 2);

        let ev = world.change("b", COUNTERS.replace("50", "70")).unwrap();
        assert_eq!(ev.front_ends, 1, "only b's entry evicted");
        assert_eq!(world.cache_stats().front_ends, 1);
        let fe_a2 = world.snapshot().front_end(&a_src, &[]).unwrap();
        assert!(
            Arc::ptr_eq(&fe_a, &fe_a2),
            "a's artifacts survive untouched"
        );
    }

    #[test]
    fn shared_content_is_not_evicted_while_referenced() {
        let mut world = World::new();
        world.open("a", COUNTERS);
        world.open("b", COUNTERS);
        let snap = world.snapshot();
        let src = snap.doc("a").unwrap();
        let _ = snap.front_end(&src, &[]).unwrap();
        let ev = world.change("b", "fn main() { }").unwrap();
        assert_eq!(ev, Evicted::default(), "a still holds the content");
        assert_eq!(world.cache_stats().front_ends, 1);
    }

    #[test]
    fn change_of_unknown_doc_is_none() {
        let mut world = World::new();
        assert!(world.change("nope", "x").is_none());
    }

    #[test]
    fn lint_summary_is_cached_per_content() {
        let world = World::new();
        let snap = world.snapshot();
        let src: Arc<str> = Arc::from(COUNTERS);
        let (first, warm1) = snap.lint(&src, &[]).unwrap();
        assert!(!warm1);
        let (second, warm2) = snap.lint(&src, &[]).unwrap();
        assert!(warm2);
        assert!(Arc::ptr_eq(&first, &second));
    }
}
