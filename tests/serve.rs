//! The daemon must be an *observationally transparent* cache: every
//! result it serves — to any number of concurrent clients, in any
//! interleaving, warm or cold — must be bit-identical to what the
//! one-shot `run_batch` pipeline computes for the same cell. The matrix
//! is all ten workloads × all three protocol backends.

use fsr_core::driver::Job;
use fsr_core::PlanSource;
use fsr_core::{InterconnectKind, PipelineConfig, ProtocolKind, World};
use fsr_serve::json::Value;
use fsr_serve::proto::run_result_json;
use fsr_serve::{serve_lines, serve_tcp_on, Output, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

const NPROC: i64 = 4;
const SCALE: i64 = 1;
const BLOCK: u32 = 128;
const CLIENTS: usize = 3;

fn backend_pairs() -> [(ProtocolKind, InterconnectKind); 3] {
    [
        (ProtocolKind::Msi, InterconnectKind::Ksr2Ring),
        (ProtocolKind::Mesi, InterconnectKind::Bus),
        (ProtocolKind::Directory, InterconnectKind::HomeDir),
    ]
}

/// The serial reference: one-shot `run_batch` on a transient world,
/// rendered through the same wire serializer the daemon uses.
fn reference_cells() -> BTreeMap<String, String> {
    let world = World::transient();
    let snapshot = world.snapshot();
    let mut expected = BTreeMap::new();
    for w in fsr_workloads::all() {
        for (protocol, ic) in backend_pairs() {
            let src: Arc<str> = Arc::from(w.source);
            let params = vec![("NPROC".to_string(), NPROC), ("SCALE".to_string(), SCALE)];
            let job = Job {
                meta: (),
                src: src.clone(),
                params: params.clone(),
                plan: PlanSource::Unoptimized,
                cfg: PipelineConfig::with_block(BLOCK).with_backends(protocol, ic),
            };
            let mut out = snapshot.run_batch(vec![job], 1);
            let r = out.remove(0).1.expect("reference cell runs clean");
            let fe = snapshot.front_end(&src, &params).expect("compiles");
            expected.insert(
                format!("{}/{}", w.name, protocol.name()),
                run_result_json(&r, &fe.prog).to_string(),
            );
        }
    }
    expected
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let conn = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(conn.try_clone().expect("clone")),
            writer: conn,
        }
    }

    /// Send one request; collect streamed notifications until the
    /// response arrives. Returns (notifications, response).
    fn rpc(&mut self, req: &str) -> (Vec<Value>, Value) {
        writeln!(self.writer, "{req}").expect("send");
        self.writer.flush().expect("flush");
        let mut notes = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).expect("read");
            assert!(n > 0, "daemon hung up");
            let v = fsr_serve::json::parse(line.trim()).expect("valid JSON line");
            if v.get("id").is_some() {
                assert!(v.get("error").is_none(), "request failed: {line}");
                return (notes, v);
            }
            notes.push(v);
        }
    }

    fn open_all(&mut self) {
        for w in fsr_workloads::all() {
            let req = format!(
                r#"{{"id": 0, "method": "open", "params": {{"name": "{0}", "workload": "{0}"}}}}"#,
                w.name
            );
            self.rpc(&req);
        }
    }

    fn simulate(&mut self, workload: &str, protocol: ProtocolKind, ic: InterconnectKind) -> Value {
        let req = format!(
            r#"{{"id": 1, "method": "simulate", "params": {{"name": "{workload}", "params": {{"NPROC": {NPROC}, "SCALE": {SCALE}}}, "config": {{"block": {BLOCK}, "protocol": "{}", "interconnect": "{}"}}}}}}"#,
            protocol.name(),
            ic.name()
        );
        let (_, resp) = self.rpc(&req);
        resp
    }
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let expected = Arc::new(reference_cells());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || {
        serve_tcp_on(Arc::new(Server::new()), listener).expect("daemon runs");
    });

    // One client opens the docs; the worker clients then race over the
    // full matrix concurrently, each from a different starting offset so
    // their cold misses overlap on *different* cells.
    let mut setup = Client::connect(addr);
    setup.open_all();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let workloads = fsr_workloads::all();
                let backends = backend_pairs();
                let cells: Vec<(usize, usize)> = (0..workloads.len())
                    .flat_map(|w| (0..backends.len()).map(move |b| (w, b)))
                    .collect();
                for i in 0..cells.len() {
                    let (wi, bi) = cells[(i + k * cells.len() / CLIENTS) % cells.len()];
                    let w = &workloads[wi];
                    let (protocol, ic) = backends[bi];
                    // Interleave lint traffic with the simulations.
                    if bi == 0 {
                        let req = format!(
                            r#"{{"id": 2, "method": "lint", "params": {{"name": "{}", "params": {{"NPROC": {NPROC}, "SCALE": {SCALE}}}}}}}"#,
                            w.name
                        );
                        let (notes, resp) = client.rpc(&req);
                        let count = resp
                            .get("result")
                            .and_then(|r| r.get("count"))
                            .and_then(Value::as_i64)
                            .expect("lint count");
                        assert_eq!(
                            notes.len() as i64,
                            count,
                            "{}: streamed diagnostics must match the summary",
                            w.name
                        );
                    }
                    let resp = client.simulate(w.name, protocol, ic);
                    let got = resp
                        .get("result")
                        .and_then(|r| r.get("result"))
                        .expect("simulate result")
                        .to_string();
                    let key = format!("{}/{}", w.name, protocol.name());
                    assert_eq!(
                        got, expected[&key],
                        "client {k}: {key} diverged from one-shot run_batch"
                    );
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("client thread");
    }

    // The daemon is now warm on every cell: a repeat request must be a
    // pure result-cache hit — zero interpreter passes, by its own
    // accounting.
    let w0 = &fsr_workloads::all()[0];
    let (protocol, ic) = backend_pairs()[0];
    let resp = setup.simulate(w0.name, protocol, ic);
    let stats = resp
        .get("result")
        .and_then(|r| r.get("stats"))
        .expect("stats")
        .clone();
    let stat = |key: &str| stats.get(key).and_then(Value::as_i64).unwrap();
    assert_eq!(stat("interpretations"), 0, "warm daemon re-interpreted");
    assert_eq!(stat("front_ends"), 0, "warm daemon recompiled");
    assert_eq!(stat("result_hits"), 1);

    let (_, _) = setup.rpc(r#"{"id": 9, "method": "shutdown"}"#);
    daemon.join().expect("daemon exits");
}

/// Captures everything the daemon writes.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A request line nested far past any real message must cost one error
/// response, not the daemon's stack: the next line is still served.
#[test]
fn deeply_nested_line_is_rejected_and_serving_continues() {
    let input = format!(
        "{}\n{}\n",
        "[".repeat(100_000),
        r#"{"id": 7, "method": "stats"}"#
    );
    let captured = Captured::default();
    serve_lines(
        &Server::new(),
        input.as_bytes(),
        &Output::new(captured.clone()),
    );
    let text = String::from_utf8(captured.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one response per request line: {text}");
    let err = fsr_serve::json::parse(lines[0]).expect("error response is JSON");
    assert_eq!(err.get("id"), Some(&Value::Null));
    let msg = err
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .expect("error message");
    assert!(msg.contains("nesting"), "{msg}");
    let next = fsr_serve::json::parse(lines[1]).expect("next response is JSON");
    assert_eq!(next.get("id"), Some(&Value::Int(7)));
    assert!(next.get("result").is_some(), "stats served: {}", lines[1]);
}
