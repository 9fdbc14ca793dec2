//! `daemon_session`: one closed-loop client calling
//! `fsr_serve::Server::handle` in-process. Set-up opens the programs as
//! documents and warms them; each round then sends, in a seeded order,
//! one `edit`, [`REPLAYS`] replays and [`hits_per_round`] cache hits to
//! every document. Every round has the same mix, and a run ends after
//! whole cycles of [`cycle_rounds`] rounds, so every run times the same
//! operation types equally often.

use crate::common::{expect_eq, PaperCells, Samples, Size, Tally};
use crate::rng::Rng;
use crate::trace::{SpanId, Tracer};
use crate::{Budget, Phase};
use fsr_core::driver::BatchStats;
use fsr_core::experiments::Vsn;
use fsr_core::{run_pipeline, InterconnectKind, PipelineConfig, PlanSource, ProtocolKind};
use fsr_serve::json::{self, Value};
use fsr_serve::{Output, Server};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cache hits per document and round, split evenly between lint and
/// simulate. The mix is assumed, not taken from a recorded session: it is
/// the fewest hits that give p99 of hits ten samples beyond it in the runs
/// that give p90 of edits (one per document and round), hence of
/// replays, ten samples beyond it.
pub fn hits_per_round() -> usize {
    Samples::needed(99.0).div_ceil(Samples::needed(90.0))
}

/// The replay configurations: each document replays every one of them
/// once per cycle.
const CONFIGS: usize = ProtocolKind::ALL.len() * InterconnectKind::ALL.len();

/// Replays per document and round. A round replays a window of that many
/// configurations of the document's order, the next round the next
/// window, so no configuration repeats between two edits as long as two
/// windows fit in [`CONFIGS`]. A replay type is a (document,
/// configuration) pair and gets one sample per cycle; with one replay per
/// round, a 55-s `daemon_session` run gave each type 7–9 samples and its
/// replay floors spread by 27% between runs.
pub const REPLAYS: usize = 3;
const _: () = assert!(CONFIGS % REPLAYS == 0 && 2 * REPLAYS <= CONFIGS);

/// Rounds in a replay cycle.
pub const fn cycle_rounds() -> usize {
    CONFIGS / REPLAYS
}

/// Cache sizes and associativities the replay configurations draw from.
const CACHE_BYTES: [u32; 6] = [4096, 8192, 16384, 32768, 65536, 131072];
const ASSOC: [u32; 5] = [1, 2, 4, 8, 16];

#[derive(Clone, Copy, Debug, PartialEq)]
struct Combo {
    protocol: ProtocolKind,
    interconnect: InterconnectKind,
    cache_bytes: u32,
    assoc: u32,
}

impl Combo {
    fn json(&self) -> String {
        format!(
            "{{\"block\": 128, \"cache_bytes\": {}, \"assoc\": {}, \"protocol\": \"{}\", \
             \"interconnect\": \"{}\"}}",
            self.cache_bytes,
            self.assoc,
            self.protocol.name(),
            self.interconnect.name()
        )
    }

    fn config(&self) -> PipelineConfig {
        let mut cfg =
            PipelineConfig::with_block(128).with_backends(self.protocol, self.interconnect);
        cfg.cache_bytes = self.cache_bytes;
        cfg.assoc = self.assoc;
        cfg
    }
}

/// The replay configurations at 128 B blocks: one per (protocol,
/// interconnect) pair, with cache sizes and associativities spread over
/// the valid values. None is the default configuration, which the
/// warm-up simulates. Every run replays this same set, so the floor of a
/// (document, configuration) type compares like with like across runs.
fn replays() -> Vec<Combo> {
    let mut v = Vec::new();
    for protocol in ProtocolKind::ALL {
        for interconnect in InterconnectKind::ALL {
            let i = v.len();
            v.push(Combo {
                protocol,
                interconnect,
                cache_bytes: CACHE_BYTES[i % CACHE_BYTES.len()],
                assoc: ASSOC[i % ASSOC.len()],
            });
        }
    }
    v
}

/// `Write` end of the in-process output channel.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("output buffer lock")
            .extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One request's reply: notification lines, the response's `result`,
/// and what the request cost.
struct Reply {
    notes: Vec<String>,
    result: Value,
    secs: f64,
}

/// Counts read from the wire, for the traced run's per-layer numbers.
#[derive(Default, Debug)]
pub struct Wire {
    pub requests: u64,
    pub handle_s: f64,
    pub parse_s: f64,
    pub resp_bytes: u64,
    /// The `stats` of every simulate response, summed.
    pub batch: BatchStats,
    pub evicted: u64,
    pub entries: u64,
}

pub struct Client {
    server: Server,
    out: Output,
    buf: Arc<Mutex<Vec<u8>>>,
    next_id: u64,
    pub wire: Wire,
}

fn int(v: &Value, path: &[&str]) -> Result<i64, String> {
    let mut cur = v;
    for k in path {
        cur = cur
            .get(k)
            .ok_or_else(|| format!("response lacks `{}`", path.join(".")))?;
    }
    cur.as_i64()
        .ok_or_else(|| format!("`{}` is not an integer", path.join(".")))
}

impl Client {
    fn new() -> Client {
        let buf = Arc::new(Mutex::new(Vec::new()));
        Client {
            server: Server::new(),
            out: Output::new(SharedBuf(buf.clone())),
            buf,
            next_id: 1,
            wire: Wire::default(),
        }
    }

    /// Send one request; an error response is a failed operation.
    fn call(
        &mut self,
        method: &str,
        params: &str,
        trace: &mut Option<(&mut Tracer, SpanId, u64)>,
    ) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let line = format!("{{\"id\": {id}, \"method\": \"{method}\", \"params\": {params}}}");
        if let Some((tracer, parent, req)) = trace {
            let p = tracer.begin("serve.parse", Some(*parent), *req);
            let parsed = json::parse(&line);
            tracer.end(p);
            self.wire.parse_s += tracer.ms(p) / 1e3;
            parsed.map_err(|e| format!("request line does not parse: {e}"))?;
        }
        let span = trace
            .as_mut()
            .map(|(t, parent, req)| t.begin("serve.handle", Some(*parent), *req));
        let t = Instant::now();
        self.server.handle(&line, &self.out);
        let secs = t.elapsed().as_secs_f64();
        if let (Some((tracer, ..)), Some(span)) = (trace.as_mut(), span) {
            tracer.end(span);
        }
        let bytes = std::mem::take(&mut *self.buf.lock().expect("output buffer lock"));
        self.wire.requests += 1;
        self.wire.handle_s += secs;
        self.wire.resp_bytes += bytes.len() as u64;
        let text = String::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
        let mut notes: Vec<String> = text.lines().map(str::to_string).collect();
        let last = notes.pop().ok_or("no response line")?;
        let resp = json::parse(&last).map_err(|e| format!("response does not parse: {e}"))?;
        expect_eq("response id", resp.get("id"), Some(&Value::Int(id as i64)))?;
        if let Some(e) = resp.get("error") {
            return Err(format!("{method} failed: {e}"));
        }
        let result = resp
            .get("result")
            .cloned()
            .ok_or("response lacks `result`")?;
        if method == "simulate" {
            let st = result.get("stats").ok_or("simulate reply lacks `stats`")?;
            let n = |k: &str| int(st, &[k]).map(|v| v as usize);
            let b = &mut self.wire.batch;
            b.jobs += n("jobs")?;
            b.front_ends += n("front_ends")?;
            b.fe_hits += n("fe_hits")?;
            b.analyses += n("analyses")?;
            b.trace_groups += n("trace_groups")?;
            b.interpretations += n("interpretations")?;
            b.trace_hits += n("trace_hits")?;
            b.result_hits += n("result_hits")?;
            b.segments += n("segments")? as u64;
        }
        Ok(Reply {
            notes,
            result,
            secs,
        })
    }

    /// Read cache occupancy from the daemon's `stats` method.
    pub fn read_entries(&mut self) -> Result<(), String> {
        let r = self.call("stats", "{}", &mut None)?;
        let c = r.result.get("caches").ok_or("stats lacks `caches`")?;
        let mut n = 0;
        for k in ["front_ends", "lints", "traces", "results"] {
            n += int(c, &[k])?;
        }
        self.wire.entries = n as u64;
        Ok(())
    }
}

/// A request whose answer is cached, with the answer it must repeat.
#[derive(Clone)]
struct Hit {
    method: &'static str,
    params: String,
    result: String,
    notes: Vec<String>,
}

struct Doc {
    name: &'static str,
    src: &'static str,
    /// The order, drawn without replacement, in which this document
    /// replays the configurations of [`replays`] in every cycle. Between
    /// two edits a document replays at most two neighbours of this
    /// order, so a replay never meets a configuration already simulated
    /// for its text.
    order: Vec<usize>,
    /// The warm lint and default C simulate: the hits repeat them, and
    /// every edit reproduces them.
    lint: Hit,
    sim_c: Hit,
}

fn sim_params(doc: &str, vsn: Vsn, config: &str, size: Size) -> String {
    format!(
        "{{\"name\": \"{doc}\", \"plan\": \"{}\", \"params\": {{\"NPROC\": {}, \"SCALE\": {}}}, \
         \"config\": {config}}}",
        match vsn {
            Vsn::C => "compiler",
            _ => "unoptimized",
        },
        size.nproc,
        size.scale
    )
}

fn lint_params(doc: &str, size: Size) -> String {
    format!(
        "{{\"name\": \"{doc}\", \"params\": {{\"NPROC\": {}, \"SCALE\": {}}}}}",
        size.nproc, size.scale
    )
}

/// The part of a reply a cache hit must repeat byte for byte: a
/// simulate's `result`, or a lint's fields except `warm`.
fn answer(method: &str, result: &Value) -> Result<String, String> {
    if method == "simulate" {
        return result
            .get("result")
            .map(Value::to_string)
            .ok_or_else(|| "simulate reply lacks `result`".to_string());
    }
    let fields = result.as_obj().ok_or("lint reply is not an object")?;
    let kept = fields
        .iter()
        .filter(|(k, _)| k != "warm")
        .cloned()
        .collect();
    Ok(Value::Obj(kept).to_string())
}

fn hit_of(method: &'static str, params: String, reply: &Reply) -> Result<Hit, String> {
    Ok(Hit {
        method,
        result: answer(method, &reply.result)?,
        params,
        notes: reply.notes.clone(),
    })
}

pub struct Session {
    pub client: Client,
    docs: Vec<Doc>,
    replays: Vec<Combo>,
    rng: Rng,
    edits: u64,
    size: Size,
    /// Replays still to compare against `run_pipeline`.
    verify_replays: usize,
    pub cells: PaperCells,
    /// Operations left in the current round, with their documents.
    pending: Vec<(Op, usize)>,
    rounds: usize,
    req: u64,
    pub out: Out,
}

/// Open every program as a document and warm it: lint, then simulate
/// the N and C versions at the default configuration.
pub fn setup(seed: u64, size: Size, only: Option<&[&str]>) -> Result<Session, String> {
    let mut rng = Rng::new(seed, 2);
    let mut client = Client::new();
    let mut docs = Vec::new();
    let mut cells = PaperCells::default();
    let default = "{\"block\": 128}";
    for w in crate::cold::programs(only) {
        let open = format!("{{\"name\": \"{}\", \"workload\": \"{}\"}}", w.name, w.name);
        client.call("open", &open, &mut None)?;
        let lp = lint_params(w.name, size);
        let lint = hit_of("lint", lp.clone(), &client.call("lint", &lp, &mut None)?)?;
        let mut sim_c = None;
        for vsn in [Vsn::N, Vsn::C] {
            let p = sim_params(w.name, vsn, default, size);
            let reply = client.call("simulate", &p, &mut None)?;
            let r = reply
                .result
                .get("result")
                .ok_or("simulate reply lacks `result`")?;
            let fs = int(r, &["sim", "misses", "false-sharing"])?;
            cells.add(w.name, vsn, fs as u64, int(r, &["exec_cycles"])? as u64);
            sim_c = Some(hit_of("simulate", p, &reply)?);
        }
        let mut order: Vec<usize> = (0..CONFIGS).collect();
        rng.shuffle(&mut order);
        docs.push(Doc {
            name: w.name,
            src: w.source,
            order,
            lint,
            sim_c: sim_c.expect("C simulated"),
        });
    }
    Ok(Session {
        client,
        docs,
        replays: replays(),
        rng,
        edits: 0,
        size,
        verify_replays: 2,
        cells,
        pending: Vec::new(),
        rounds: 0,
        req: 0,
        out: Out::default(),
    })
}

#[derive(Default)]
pub struct Out {
    pub hit_us: Samples,
    pub replay_ms: Samples,
    pub edit_ms: Samples,
    /// References simulated by replay and edit requests.
    pub refs: u64,
    pub tally: Tally,
}

#[derive(Clone, Copy)]
enum Op {
    LintHit,
    SimHit,
    /// The i-th replay of the document in its round.
    Replay(usize),
    Edit,
}

impl Out {
    /// Floored `handle` time of every operation, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.hit_us.floored_sum() / 1e6
            + (self.replay_ms.floored_sum() + self.edit_ms.floored_sum()) / 1e3
    }
}

impl Phase for Session {
    fn step(&mut self) -> bool {
        self.step_traced(None)
    }

    /// Whole replay cycles done.
    fn rounds(&self) -> usize {
        self.rounds / cycle_rounds()
    }
}

impl Session {
    /// Run one operation; true when it completed a replay cycle. With a
    /// tracer, the operation is a request span holding its calls' spans.
    pub fn step_traced(&mut self, tracer: Option<&mut Tracer>) -> bool {
        if self.pending.is_empty() {
            let lint_hits = hits_per_round() / 2;
            for d in 0..self.docs.len() {
                let ops = [
                    (Op::LintHit, lint_hits),
                    (Op::SimHit, hits_per_round() - lint_hits),
                    (Op::Edit, 1),
                ];
                for (op, n) in ops {
                    self.pending.extend(std::iter::repeat_n((op, d), n));
                }
                self.pending
                    .extend((0..REPLAYS).map(|i| (Op::Replay(i), d)));
            }
            self.rng.shuffle(&mut self.pending);
        }
        let (op, d) = self.pending.pop().expect("a round has operations");
        self.req += 1;
        let req = self.req;
        let mut trace = tracer.map(|t| {
            let root = t.begin("request", None, req);
            (t, root, req)
        });
        let mut out = std::mem::take(&mut self.out);
        let r = self.op(op, d, &mut out, &mut trace);
        out.tally.op(r);
        self.out = out;
        if let Some((t, root, _)) = trace {
            t.end(root);
        }
        if self.pending.is_empty() {
            self.rounds += 1;
        }
        self.pending.is_empty() && self.rounds % cycle_rounds() == 0
    }

    /// Run whole replay cycles until `budget` is spent.
    pub fn run(&mut self, budget: Budget, mut tracer: Option<&mut Tracer>) {
        let start = Instant::now();
        let first = Phase::rounds(self);
        while !budget.done(start, Phase::rounds(self) - first) {
            while !self.step_traced(tracer.as_deref_mut()) {}
        }
    }

    fn op(
        &mut self,
        op: Op,
        d: usize,
        out: &mut Out,
        trace: &mut Option<(&mut Tracer, SpanId, u64)>,
    ) -> Result<(), String> {
        match op {
            Op::LintHit | Op::SimHit => {
                let doc = &self.docs[d];
                let lint = matches!(op, Op::LintHit);
                let h = if lint { &doc.lint } else { &doc.sim_c };
                let reply = self.client.call(h.method, &h.params, trace)?;
                out.hit_us.push(2 * d + lint as usize, reply.secs * 1e6);
                let what = format!("hit {} on {}", h.method, doc.name);
                expect_eq(&what, answer(h.method, &reply.result)?, h.result.clone())?;
                expect_eq(&what, &reply.notes, &h.notes)?;
                if h.method == "simulate" {
                    expect_eq(&what, int(&reply.result, &["stats", "interpretations"])?, 0)?;
                    expect_eq(&what, int(&reply.result, &["stats", "result_hits"])?, 1)?;
                } else {
                    let warm = reply.result.get("warm").and_then(Value::as_bool);
                    expect_eq(&what, warm, Some(true))?;
                }
                Ok(())
            }
            Op::Replay(i) => {
                let doc = &self.docs[d];
                let k = doc.order[(self.rounds * REPLAYS + i) % CONFIGS];
                let combo = self.replays[k];
                let params = sim_params(doc.name, Vsn::C, &combo.json(), self.size);
                let reply = self.client.call("simulate", &params, trace)?;
                out.replay_ms.push(d * CONFIGS + k, reply.secs * 1e3);
                out.refs += int(&reply.result, &["result", "sim", "refs"])? as u64;
                let what = format!("replay on {} under {combo:?}", doc.name);
                expect_eq(&what, int(&reply.result, &["stats", "trace_hits"])?, 1)?;
                expect_eq(&what, int(&reply.result, &["stats", "interpretations"])?, 0)?;
                if self.verify_replays > 0 {
                    self.verify_replays -= 1;
                    let direct = self.direct(doc.src, combo)?;
                    let answer = answer("simulate", &reply.result)?;
                    expect_eq(&format!("{what} vs run_pipeline"), &answer, &direct)?;
                }
                Ok(())
            }
            Op::Edit => {
                self.edits += 1;
                let doc = &self.docs[d];
                let text = format!("{}\n// edit {}\n", doc.src, self.edits);
                let change = format!(
                    "{{\"name\": \"{}\", \"text\": {}}}",
                    doc.name,
                    Value::str(text)
                );
                let ch = self.client.call("change", &change, trace)?;
                let lint = self.client.call("lint", &doc.lint.params, trace)?;
                let sim = self.client.call("simulate", &doc.sim_c.params, trace)?;
                let secs = ch.secs + lint.secs + sim.secs;
                out.edit_ms.push(d, secs * 1e3);
                out.refs += int(&sim.result, &["result", "sim", "refs"])? as u64;
                let evicted = ch
                    .result
                    .get("evicted")
                    .ok_or("change reply lacks `evicted`")?;
                for k in ["front_ends", "lints", "traces", "results"] {
                    self.client.wire.evicted += int(evicted, &[k])? as u64;
                }
                let what = format!("edit of {}", doc.name);
                expect_eq(&what, int(&sim.result, &["stats", "interpretations"])?, 1)?;
                expect_eq(
                    &what,
                    answer("lint", &lint.result)?,
                    doc.lint.result.clone(),
                )?;
                expect_eq(&what, &lint.notes, &doc.lint.notes)?;
                expect_eq(
                    &what,
                    answer("simulate", &sim.result)?,
                    doc.sim_c.result.clone(),
                )?;
                Ok(())
            }
        }
    }

    /// The wire rendering of `run_pipeline`'s result for a replay.
    fn direct(&self, src: &str, combo: Combo) -> Result<String, String> {
        let params = self.size.params();
        let r = run_pipeline(src, &params, PlanSource::Compiler, &combo.config())
            .map_err(|e| e.to_string())?;
        let prog = fsr_lang::compile_with_params(src, &params).map_err(|e| e.to_string())?;
        Ok(fsr_serve::proto::run_result_json(&r, &prog).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_are_distinct_and_never_the_warm_default() {
        let v = replays();
        assert_eq!(v.len(), CONFIGS);
        let d = PipelineConfig::default();
        for (i, c) in v.iter().enumerate() {
            assert!(!v[..i].contains(c), "{c:?} repeats");
            let cfg = c.config();
            let default = cfg.protocol == d.protocol
                && cfg.machine.interconnect == d.machine.interconnect
                && cfg.cache_bytes == d.cache_bytes
                && cfg.assoc == d.assoc;
            assert!(!default, "{c:?} is the warm default");
        }
    }
}
