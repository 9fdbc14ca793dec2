//! The daemon event loop: a [`Server`] owns one [`World`] behind a
//! mutex; every request takes a cheap [`Snapshot`] (two `Arc` bumps)
//! and computes against it *without* holding the world lock, so an
//! `open`/`change` never waits on a running simulation and concurrent
//! clients share every cached artifact.
//!
//! Transport is newline-delimited JSON-RPC on stdin/stdout or TCP
//! (thread per connection, all connections sharing the one world).
//! Responses carry the request `id`; streamed notifications
//! (`diagnostic` during `lint`, `cell` during `batch`) have no id and
//! arrive before the closing response, each as one atomic line.

use crate::json::Value;
use crate::proto::{
    self, batch_stats_json, cache_stats_json, error_response, evicted_json, notification,
    pipeline_error_json, response, run_result_json, Request,
};
use fsr_core::driver::Job;
use fsr_core::{PipelineError, PlanSource, RunResult, Snapshot, World};
use std::io::{BufRead, Write};
use std::sync::Mutex;

/// Whether the event loop keeps reading after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    Continue,
    Shutdown,
}

/// A line-atomic output channel shared by the response path and the
/// streaming notification closures running on worker threads.
pub struct Output {
    inner: Mutex<Box<dyn Write + Send>>,
}

impl Output {
    pub fn new(w: impl Write + Send + 'static) -> Output {
        Output {
            inner: Mutex::new(Box::new(w)),
        }
    }

    pub fn line(&self, s: &str) {
        let mut w = self.inner.lock().unwrap();
        // A dead client (closed pipe) is not the server's error.
        let _ = writeln!(w, "{s}");
        let _ = w.flush();
    }
}

pub struct Server {
    world: Mutex<World>,
}

impl Default for Server {
    fn default() -> Self {
        Server::new()
    }
}

impl Server {
    pub fn new() -> Server {
        Server {
            world: Mutex::new(World::new()),
        }
    }

    fn snapshot(&self) -> Snapshot {
        self.world.lock().unwrap().snapshot()
    }

    /// Handle one request line: emits any notifications plus exactly
    /// one response on `out`, and reports whether to keep serving.
    pub fn handle(&self, line: &str, out: &Output) -> Flow {
        let line = line.trim();
        if line.is_empty() {
            return Flow::Continue;
        }
        let req = match proto::parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                out.line(&error_response(&Value::Null, &format!("bad request: {e}")));
                return Flow::Continue;
            }
        };
        let id = req.id.clone();
        let flow = if req.method == "shutdown" {
            Flow::Shutdown
        } else {
            Flow::Continue
        };
        match self.dispatch(&req, out) {
            Ok(result) => out.line(&response(&id, result)),
            Err(msg) => out.line(&error_response(&id, &msg)),
        }
        flow
    }

    fn dispatch(&self, req: &Request, out: &Output) -> Result<Value, String> {
        match req.method.as_str() {
            "open" => self.open(&req.params),
            "change" => self.change(&req.params),
            "close" => self.close(&req.params),
            "lint" => self.lint(&req.params, out),
            "plan" => self.plan(&req.params),
            "simulate" => self.simulate(&req.params),
            "batch" => self.batch(&req.params, out),
            "stats" => self.stats(),
            "shutdown" => Ok(Value::Obj(vec![("ok".to_string(), Value::Bool(true))])),
            other => Err(format!("unknown method `{other}`")),
        }
    }

    /// Resolve the source text of a request: inline `text`, or the
    /// named built-in `workload`.
    fn source_of(params: &Value) -> Result<std::sync::Arc<str>, String> {
        if let Some(text) = params.get("text") {
            let t = text.as_str().ok_or("`text` must be a string")?;
            return Ok(std::sync::Arc::from(t));
        }
        if let Some(w) = params.get("workload") {
            let name = w.as_str().ok_or("`workload` must be a string")?;
            let w =
                fsr_workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            return Ok(std::sync::Arc::from(w.source));
        }
        Err("`open` needs `text` or `workload`".to_string())
    }

    fn name_of(params: &Value) -> Result<&str, String> {
        params
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing string `name`".to_string())
    }

    fn doc_of(snapshot: &Snapshot, params: &Value) -> Result<std::sync::Arc<str>, String> {
        let name = Self::name_of(params)?;
        snapshot
            .doc(name)
            .ok_or_else(|| format!("no open document named `{name}`"))
    }

    fn open(&self, params: &Value) -> Result<Value, String> {
        let name = Self::name_of(params)?;
        let src = Self::source_of(params)?;
        let mut world = self.world.lock().unwrap();
        let evicted = world.open(name, src);
        Ok(Value::Obj(vec![
            ("evicted".to_string(), evicted_json(&evicted)),
            ("docs".to_string(), Value::Int(world.doc_count() as i64)),
        ]))
    }

    fn change(&self, params: &Value) -> Result<Value, String> {
        let name = Self::name_of(params)?;
        let text = params
            .get("text")
            .and_then(Value::as_str)
            .ok_or("`change` needs string `text`")?;
        let mut world = self.world.lock().unwrap();
        let evicted = world
            .change(name, text)
            .ok_or_else(|| format!("no open document named `{name}` to change"))?;
        Ok(Value::Obj(vec![(
            "evicted".to_string(),
            evicted_json(&evicted),
        )]))
    }

    fn close(&self, params: &Value) -> Result<Value, String> {
        let name = Self::name_of(params)?;
        let mut world = self.world.lock().unwrap();
        let evicted = world.close(name);
        Ok(Value::Obj(vec![
            ("evicted".to_string(), evicted_json(&evicted)),
            ("docs".to_string(), Value::Int(world.doc_count() as i64)),
        ]))
    }

    fn lint(&self, params: &Value, out: &Output) -> Result<Value, String> {
        let snapshot = self.snapshot();
        let src = Self::doc_of(&snapshot, params)?;
        let name = Self::name_of(params)?;
        let p = proto::parse_params(params.get("params"))?;
        // Opt-in dynamic refinement: record a reference trace and use
        // its conflict witnesses to upgrade statically-unprovable
        // suppressed pairs (cached separately from the plain lint).
        let refine = params
            .get("refine")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let (summary, warm) = if refine {
            snapshot.lint_refined(&src, &p)
        } else {
            snapshot.lint(&src, &p)
        }
        .map_err(|e| pipeline_error_json(&e, &src).to_string())?;
        // Stream each finding before the summary, in report order.
        for (i, d) in summary.diagnostics.iter().enumerate() {
            let diag = crate::json::parse(&d.to_json(&src)).expect("diagnostic JSON is valid");
            out.line(&notification(
                "diagnostic",
                Value::Obj(vec![
                    ("doc".to_string(), Value::str(name)),
                    ("index".to_string(), Value::Int(i as i64)),
                    ("diagnostic".to_string(), diag),
                ]),
            ));
        }
        Ok(Value::Obj(vec![
            (
                "count".to_string(),
                Value::Int(summary.diagnostics.len() as i64),
            ),
            (
                "racy".to_string(),
                Value::Arr(summary.racy.iter().map(Value::str).collect()),
            ),
            (
                "suppressed_pairs".to_string(),
                Value::Int(summary.suppressed_pairs as i64),
            ),
            ("warm".to_string(), Value::Bool(warm)),
            // Appended fields (wire policy: never reorder or remove).
            (
                "suppressed".to_string(),
                Value::Arr(
                    summary
                        .suppressed
                        .iter()
                        .map(|(obj, reason)| {
                            Value::Obj(vec![
                                ("object".to_string(), Value::str(obj)),
                                ("reason".to_string(), Value::str(reason)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("refined".to_string(), Value::Bool(summary.refined)),
        ]))
    }

    fn plan(&self, params: &Value) -> Result<Value, String> {
        let snapshot = self.snapshot();
        let src = Self::doc_of(&snapshot, params)?;
        let p = proto::parse_params(params.get("params"))?;
        let cfg = proto::parse_config(params.get("config"))?;
        let fe = snapshot
            .front_end(&src, &p)
            .map_err(|e| pipeline_error_json(&e, &src).to_string())?;
        let plan = fsr_core::plan_of(&fe.prog, &PlanSource::Compiler, &cfg, || fe.analysis())
            .map_err(|e| pipeline_error_json(&e, &src).to_string())?;
        Ok(proto::plan_json(&plan, &fe.prog))
    }

    /// Build one driver job from a request-shaped object.
    fn job_of<M>(snapshot: &Snapshot, params: &Value, meta: M) -> Result<Job<M>, String> {
        let src = Self::doc_of(snapshot, params)?;
        Ok(Job {
            meta,
            src,
            params: proto::parse_params(params.get("params"))?,
            plan: proto::parse_plan(params.get("plan"))?,
            cfg: proto::parse_config(params.get("config"))?,
        })
    }

    fn simulate(&self, params: &Value) -> Result<Value, String> {
        let snapshot = self.snapshot();
        let job = Self::job_of(&snapshot, params, ())?;
        let src = job.src.clone();
        let job_params = job.params.clone();
        let (mut results, stats) = snapshot.run_batch_with_stats(vec![job], 1);
        let (_, result) = results.remove(0);
        let r = result.map_err(|e| pipeline_error_json(&e, &src).to_string())?;
        // The run succeeded, so the front end is warm in the cache; it
        // supplies object names for the plan rendering.
        let fe = snapshot
            .front_end(&src, &job_params)
            .map_err(|e| pipeline_error_json(&e, &src).to_string())?;
        Ok(Value::Obj(vec![
            ("result".to_string(), run_result_json(&r, &fe.prog)),
            ("stats".to_string(), batch_stats_json(&stats)),
        ]))
    }

    fn batch(&self, params: &Value, out: &Output) -> Result<Value, String> {
        let snapshot = self.snapshot();
        let jobs_val = params
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or("`batch` needs a `jobs` array")?;
        let threads = proto::parse_threads(params)?;
        let mut jobs = Vec::with_capacity(jobs_val.len());
        for (i, jv) in jobs_val.iter().enumerate() {
            jobs.push(Self::job_of(&snapshot, jv, i).map_err(|e| format!("job {i}: {e}"))?);
        }
        let srcs: Vec<std::sync::Arc<str>> = jobs.iter().map(|j| j.src.clone()).collect();
        let job_params: Vec<Vec<(String, i64)>> = jobs.iter().map(|j| j.params.clone()).collect();
        // Stream a compact progress line per cell as each resolves;
        // full results follow in the response. Cells may finish out of
        // submission order — `index` identifies them.
        let notify = |index: usize, r: &Result<RunResult, PipelineError>| {
            let mut fields = vec![("index".to_string(), Value::Int(index as i64))];
            match r {
                Ok(r) => {
                    fields.push(("ok".to_string(), Value::Bool(true)));
                    fields.push(("exec_cycles".to_string(), Value::Int(r.exec_cycles as i64)));
                }
                Err(e) => {
                    fields.push(("ok".to_string(), Value::Bool(false)));
                    fields.push(("error".to_string(), pipeline_error_json(e, &srcs[index])));
                }
            }
            out.line(&notification("cell", Value::Obj(fields)));
        };
        let (results, stats) = snapshot.run_batch_streaming(jobs, threads, &notify);
        let mut cells = Vec::with_capacity(results.len());
        for (job, result) in results {
            let i = job.meta;
            match result {
                Ok(r) => {
                    let fe = snapshot
                        .front_end(&srcs[i], &job_params[i])
                        .map_err(|e| pipeline_error_json(&e, &srcs[i]).to_string())?;
                    cells.push(Value::Obj(vec![
                        ("ok".to_string(), Value::Bool(true)),
                        ("result".to_string(), run_result_json(&r, &fe.prog)),
                    ]));
                }
                Err(e) => cells.push(Value::Obj(vec![
                    ("ok".to_string(), Value::Bool(false)),
                    ("error".to_string(), pipeline_error_json(&e, &srcs[i])),
                ])),
            }
        }
        Ok(Value::Obj(vec![
            ("cells".to_string(), Value::Arr(cells)),
            ("stats".to_string(), batch_stats_json(&stats)),
        ]))
    }

    fn stats(&self) -> Result<Value, String> {
        let world = self.world.lock().unwrap();
        Ok(Value::Obj(vec![
            ("docs".to_string(), Value::Int(world.doc_count() as i64)),
            ("caches".to_string(), cache_stats_json(&world.cache_stats())),
        ]))
    }
}

/// Serve newline-delimited requests from `input` until EOF or a
/// `shutdown` request.
pub fn serve_lines(server: &Server, input: impl BufRead, out: &Output) {
    for line in input.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if server.handle(&line, out) == Flow::Shutdown {
            break;
        }
    }
}

/// Serve one process-wide world over TCP, one thread per connection.
/// Returns when a client sends `shutdown`. Binding port 0 picks a free
/// port; the chosen address is announced on stderr as
/// `fsr-serve: listening on ADDR` for the caller to scrape.
pub fn serve_tcp(server: std::sync::Arc<Server>, addr: &str) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!("fsr-serve: listening on {}", listener.local_addr()?);
    serve_tcp_on(server, listener)
}

/// [`serve_tcp`] over a listener the caller already bound — lets
/// in-process harnesses (benches, tests) learn the port before the
/// accept loop starts.
pub fn serve_tcp_on(
    server: std::sync::Arc<Server>,
    listener: std::net::TcpListener,
) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let shutdown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut workers = Vec::new();
    for conn in listener.incoming() {
        if shutdown.load(std::sync::atomic::Ordering::SeqCst) {
            break;
        }
        let conn = conn?;
        let reader = std::io::BufReader::new(conn.try_clone()?);
        let out = Output::new(conn);
        let server = server.clone();
        let shutdown = shutdown.clone();
        workers.push(std::thread::spawn(move || {
            for line in reader.lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(_) => break,
                };
                if server.handle(&line, &out) == Flow::Shutdown {
                    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
                    // The accept loop is blocked in `incoming()`; a
                    // throwaway loopback connection unblocks it so it
                    // can observe the flag and exit.
                    let _ = std::net::TcpStream::connect(local);
                    break;
                }
            }
        }));
        // Reap finished connection threads so a long-lived daemon
        // doesn't accumulate handles.
        workers.retain(|h| !h.is_finished());
    }
    for h in workers {
        let _ = h.join();
    }
    Ok(())
}
