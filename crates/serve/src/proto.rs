//! Wire protocol: newline-delimited JSON-RPC requests and the stable
//! JSON renderings of the pipeline's result and statistics types.
//!
//! Every response/notification is one line of JSON with deterministic
//! field order (objects preserve insertion order; per-object maps come
//! from `BTreeMap`s, so their iteration order is the sort order), which
//! is what lets the tier-1 smoke test diff a scripted session against a
//! pinned golden byte-for-byte.

use crate::json::Value;
use fsr_core::driver::BatchStats;
use fsr_core::{
    CacheStats, CoherenceEvent, Evicted, InterconnectKind, LayoutPlan, MissKind, ObjPlan,
    PipelineConfig, PipelineError, PlanSource, Program, ProtocolKind, RunResult, Schedule,
};

/// One parsed request line. `id` is echoed verbatim in the response;
/// requests without an id still get a response with `"id": null`.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: Value,
    pub method: String,
    pub params: Value,
}

pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = crate::json::parse(line)?;
    let method = v
        .get("method")
        .and_then(Value::as_str)
        .ok_or("request needs a string `method`")?
        .to_string();
    let id = v.get("id").cloned().unwrap_or(Value::Null);
    let params = v.get("params").cloned().unwrap_or(Value::Obj(vec![]));
    Ok(Request { id, method, params })
}

pub fn response(id: &Value, result: Value) -> String {
    format!("{{\"id\": {id}, \"result\": {result}}}")
}

pub fn error_response(id: &Value, msg: &str) -> String {
    format!(
        "{{\"id\": {id}, \"error\": {{\"message\": {}}}}}",
        Value::str(msg)
    )
}

pub fn notification(method: &str, params: Value) -> String {
    format!(
        "{{\"method\": {}, \"params\": {params}}}",
        Value::str(method)
    )
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn u64v(n: u64) -> Value {
    Value::Int(n as i64)
}

fn u64s(ns: &[u64]) -> Value {
    Value::Arr(ns.iter().map(|&n| u64v(n)).collect())
}

fn misses_obj(misses: &[u64; MissKind::COUNT]) -> Value {
    Value::Obj(
        MissKind::ALL
            .iter()
            .map(|&k| (k.name().to_string(), u64v(misses[k as usize])))
            .collect(),
    )
}

fn plan_kind(p: &ObjPlan) -> &'static str {
    match p {
        ObjPlan::Transpose { .. } => "transpose",
        ObjPlan::Indirect { .. } => "indirect",
        ObjPlan::PadElems => "pad-elems",
        ObjPlan::PadLock => "pad-lock",
    }
}

/// The layout plan on the wire: block size plus one entry per
/// transformed object, in object-id order.
pub fn plan_json(plan: &LayoutPlan, prog: &Program) -> Value {
    let transformed: Vec<Value> = plan
        .directives
        .iter()
        .map(|(&oid, p)| {
            let mut fields = vec![
                ("obj", Value::str(prog.object(oid).name.clone())),
                ("kind", Value::str(plan_kind(p))),
            ];
            if let Some(reason) = plan.reasons.get(&oid) {
                fields.push(("reason", Value::str(reason.clone())));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("block", Value::Int(plan.block_bytes as i64)),
        ("transformed", Value::Arr(transformed)),
    ])
}

/// Full stable rendering of one pipeline result. Field order and names
/// are part of the external interface; only ever append.
pub fn run_result_json(r: &RunResult, prog: &Program) -> Value {
    let per_obj = Value::Obj(
        r.per_obj
            .iter()
            .map(|(name, m)| (name.clone(), misses_obj(&m.misses)))
            .collect(),
    );
    let per_obj_coherence = Value::Obj(
        r.per_obj_coherence
            .iter()
            .map(|(name, c)| {
                let mut fields: Vec<(String, Value)> = CoherenceEvent::ALL
                    .iter()
                    .map(|&e| (e.name().to_string(), u64v(c.events[e as usize])))
                    .collect();
                fields.push(("queue_stall".to_string(), u64v(c.queue_stall)));
                (name.clone(), Value::Obj(fields))
            })
            .collect(),
    );
    let per_obj_refs = Value::Obj(
        r.per_obj_refs
            .iter()
            .map(|(name, &n)| (name.clone(), u64v(n)))
            .collect(),
    );
    let sim = obj(vec![
        ("refs", u64v(r.sim.refs)),
        ("reads", u64v(r.sim.reads)),
        ("writes", u64v(r.sim.writes)),
        ("misses", misses_obj(&r.sim.misses)),
        ("upgrades", u64v(r.sim.upgrades)),
        ("invalidations", u64v(r.sim.invalidations)),
        ("interventions", u64v(r.sim.interventions)),
        ("exclusive_hits", u64v(r.sim.exclusive_hits)),
        ("dir_txns", u64v(r.sim.dir_txns)),
    ]);
    let timing = obj(vec![
        ("busy", u64s(&r.timing.busy)),
        ("stall", u64s(&r.timing.stall)),
        ("queue", u64s(&r.timing.queue)),
        ("stall_by_kind", misses_obj(&r.timing.stall_by_kind)),
        ("upgrade_stall", u64v(r.timing.upgrade_stall)),
        ("channel_busy", u64s(&r.timing.channel_busy)),
        ("two_hop", u64v(r.timing.two_hop)),
        ("three_hop", u64v(r.timing.three_hop)),
        ("steal_joins", u64v(r.timing.steal_joins)),
    ]);
    let interp = obj(vec![
        ("instructions", u64v(r.interp.instructions)),
        ("refs", u64v(r.interp.refs)),
        ("spin_rereads", u64v(r.interp.spin_rereads)),
        ("barriers_crossed", u64v(r.interp.barriers_crossed)),
        ("lock_acquires", u64v(r.interp.lock_acquires)),
        ("steals", u64v(r.interp.steals)),
    ]);
    obj(vec![
        ("nproc", Value::Int(r.nproc as i64)),
        ("plan", plan_json(&r.plan, prog)),
        ("sim", sim),
        ("per_obj", per_obj),
        ("per_obj_coherence", per_obj_coherence),
        ("per_obj_refs", per_obj_refs),
        ("exec_cycles", u64v(r.exec_cycles)),
        ("timing", timing),
        ("interp", interp),
        ("miss_rate", Value::Num(r.miss_rate())),
        ("fs_miss_rate", Value::Num(r.false_sharing_miss_rate())),
        ("fs_stall_frac", Value::Num(r.fs_stall_frac)),
    ])
}

pub fn batch_stats_json(s: &BatchStats) -> Value {
    obj(vec![
        ("jobs", Value::Int(s.jobs as i64)),
        ("front_ends", Value::Int(s.front_ends as i64)),
        ("fe_hits", Value::Int(s.fe_hits as i64)),
        ("analyses", Value::Int(s.analyses as i64)),
        ("trace_groups", Value::Int(s.trace_groups as i64)),
        ("interpretations", Value::Int(s.interpretations as i64)),
        ("trace_hits", Value::Int(s.trace_hits as i64)),
        ("result_hits", Value::Int(s.result_hits as i64)),
        // Always 0 (see `BatchStats::segments`); the wire schema is
        // append-only.
        ("segments", u64v(s.segments)),
    ])
}

pub fn evicted_json(e: &Evicted) -> Value {
    obj(vec![
        ("front_ends", Value::Int(e.front_ends as i64)),
        ("lints", Value::Int(e.lints as i64)),
        ("traces", Value::Int(e.traces as i64)),
        ("results", Value::Int(e.results as i64)),
    ])
}

pub fn cache_stats_json(s: &CacheStats) -> Value {
    obj(vec![
        ("front_ends", Value::Int(s.front_ends as i64)),
        ("fe_hits", u64v(s.fe_hits)),
        ("fe_misses", u64v(s.fe_misses)),
        ("lints", Value::Int(s.lints as i64)),
        ("lint_hits", u64v(s.lint_hits)),
        ("lint_misses", u64v(s.lint_misses)),
        ("traces", Value::Int(s.traces as i64)),
        ("trace_hits", u64v(s.trace_hits)),
        ("trace_misses", u64v(s.trace_misses)),
        ("results", Value::Int(s.results as i64)),
        ("result_hits", u64v(s.result_hits)),
        ("result_misses", u64v(s.result_misses)),
    ])
}

/// Render a pipeline error as a one-line message (plus the structured
/// diagnostic JSON when the failure is a front-end error with a span).
pub fn pipeline_error_json(e: &PipelineError, src: &str) -> Value {
    match e {
        PipelineError::Lang(err) => obj(vec![
            ("message", Value::str(err.render(src))),
            (
                "diagnostic",
                crate::json::parse(&fsr_lang::Diagnostic::from(err.clone()).to_json(src))
                    .unwrap_or(Value::Null),
            ),
        ]),
        other => obj(vec![("message", Value::str(format!("{other:?}")))]),
    }
}

/// `params` on the wire is a JSON object of `name -> integer`;
/// normalized to sorted order so equal bindings always produce the same
/// cache key regardless of client field order.
pub fn parse_params(v: Option<&Value>) -> Result<Vec<(String, i64)>, String> {
    let mut out = Vec::new();
    if let Some(v) = v {
        let fields = v.as_obj().ok_or("`params` must be an object")?;
        for (k, val) in fields {
            let n = val
                .as_i64()
                .ok_or_else(|| format!("param `{k}` must be an integer"))?;
            out.push((k.clone(), n));
        }
    }
    out.sort();
    Ok(out)
}

/// `plan` on the wire: `"unoptimized"` (default) or `"compiler"`.
pub fn parse_plan(v: Option<&Value>) -> Result<PlanSource, String> {
    match v {
        None | Some(Value::Null) => Ok(PlanSource::Unoptimized),
        Some(v) => match v.as_str() {
            Some("unoptimized") => Ok(PlanSource::Unoptimized),
            Some("compiler") => Ok(PlanSource::Compiler),
            _ => Err(format!(
                "unknown plan {v} (use \"unoptimized\" or \"compiler\")"
            )),
        },
    }
}

/// `threads` of a `batch` request: absent or 0 = the machine's
/// parallelism; a negative count is an error, and a larger one is
/// capped at the machine's parallelism, so no request can make the
/// daemon start more worker threads than it has cores.
pub fn parse_threads(v: &Value) -> Result<usize, String> {
    let threads: usize = int_field(v, "threads")?.unwrap_or(0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(threads.min(cores))
}

fn parse_protocol(s: &str) -> Result<ProtocolKind, String> {
    ProtocolKind::ALL
        .into_iter()
        .find(|p| p.name() == s)
        .ok_or_else(|| format!("unknown protocol `{s}`"))
}

fn parse_interconnect(s: &str) -> Result<InterconnectKind, String> {
    InterconnectKind::ALL
        .into_iter()
        .find(|i| i.name() == s)
        .ok_or_else(|| format!("unknown interconnect `{s}`"))
}

/// `schedule` on the wire: the string `"round_robin"` (the default) or
/// an object `{"kind": "work_steal", "seed": N}`.
fn parse_schedule(v: &Value) -> Result<Schedule, String> {
    if let Some(s) = v.as_str() {
        return match s {
            "round_robin" => Ok(Schedule::RoundRobin),
            _ => Err(format!(
                "unknown schedule `{s}` (use \"round_robin\" or \
                 {{\"kind\": \"work_steal\", \"seed\": N}})"
            )),
        };
    }
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("`schedule` object needs a string `kind`")?;
    match kind {
        "round_robin" => Ok(Schedule::RoundRobin),
        "work_steal" => {
            let seed = int_field(v, "seed")?.ok_or("work_steal schedule needs a `seed`")?;
            Ok(Schedule::WorkSteal { seed })
        }
        _ => Err(format!("unknown schedule kind `{kind}`")),
    }
}

/// An optional integer field of a wire object, range-checked into `T`
/// (a JSON integer that does not fit is an error, never a wrap).
fn int_field<T: TryFrom<i64>>(v: &Value, key: &str) -> Result<Option<T>, String> {
    let Some(x) = v.get(key) else {
        return Ok(None);
    };
    let n = x
        .as_i64()
        .ok_or_else(|| format!("`{key}` must be an integer"))?;
    T::try_from(n)
        .map(Some)
        .map_err(|_| format!("`{key}` is out of range: {n}"))
}

/// The keys a wire `config` object may carry.
const CONFIG_KEYS: [&str; 8] = [
    "block",
    "cache_bytes",
    "assoc",
    "protocol",
    "interconnect",
    "seed",
    "max_steps",
    "schedule",
];

/// `config` on the wire: a flat object over the pipeline's axes. Every
/// key is optional; omitted keys take [`PipelineConfig`] defaults. A
/// key outside [`CONFIG_KEYS`] is an error, not silently ignored, and
/// so is an integer outside its field's range or a configuration that
/// [`PipelineConfig::validate`] rejects.
///
/// ```json
/// {"block": 128, "cache_bytes": 32768, "assoc": 4,
///  "protocol": "msi", "interconnect": "ksr2-ring",
///  "seed": 1592510158, "max_steps": 2000000000,
///  "schedule": {"kind": "work_steal", "seed": 7}}
/// ```
pub fn parse_config(v: Option<&Value>) -> Result<PipelineConfig, String> {
    let Some(v) = v.filter(|v| **v != Value::Null) else {
        return Ok(PipelineConfig::with_block(128));
    };
    let fields = v.as_obj().ok_or("`config` must be an object")?;
    if let Some((k, _)) = fields
        .iter()
        .find(|(k, _)| !CONFIG_KEYS.contains(&k.as_str()))
    {
        return Err(format!("unknown config key `{k}`"));
    }
    let mut cfg = PipelineConfig::with_block(int_field(v, "block")?.unwrap_or(128));
    if let Some(c) = int_field(v, "cache_bytes")? {
        cfg.cache_bytes = c;
    }
    if let Some(a) = int_field(v, "assoc")? {
        cfg.assoc = a;
    }
    if let Some(p) = v.get("protocol") {
        cfg.protocol = parse_protocol(p.as_str().ok_or("`protocol` must be a string")?)?;
    }
    if let Some(i) = v.get("interconnect") {
        cfg.machine.interconnect =
            parse_interconnect(i.as_str().ok_or("`interconnect` must be a string")?)?;
    }
    if let Some(s) = int_field(v, "seed")? {
        cfg.run.seed = s;
    }
    if let Some(m) = int_field(v, "max_steps")? {
        cfg.run.max_steps = m;
    }
    if let Some(s) = v.get("schedule") {
        cfg.run.schedule = parse_schedule(s)?;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing_extracts_fields() {
        let r = parse_request(r#"{"id": 7, "method": "lint", "params": {"name": "w"}}"#).unwrap();
        assert_eq!(r.id, Value::Int(7));
        assert_eq!(r.method, "lint");
        assert_eq!(r.params.get("name").unwrap().as_str(), Some("w"));
        // id and params are optional.
        let r = parse_request(r#"{"method": "stats"}"#).unwrap();
        assert_eq!(r.id, Value::Null);
        assert!(parse_request(r#"{"params": {}}"#).is_err());
    }

    #[test]
    fn params_normalize_to_sorted_order() {
        let v = crate::json::parse(r#"{"SCALE": 2, "NPROC": 8}"#).unwrap();
        let p = parse_params(Some(&v)).unwrap();
        assert_eq!(p, vec![("NPROC".to_string(), 8), ("SCALE".to_string(), 2)]);
        assert_eq!(parse_params(None).unwrap(), vec![]);
        let bad = crate::json::parse(r#"{"NPROC": "eight"}"#).unwrap();
        assert!(parse_params(Some(&bad)).is_err());
    }

    #[test]
    fn config_parsing_covers_every_axis() {
        let v = crate::json::parse(
            r#"{"block": 64, "cache_bytes": 16384, "assoc": 2,
                "protocol": "directory", "interconnect": "home-dir",
                "seed": 99, "max_steps": 1000,
                "schedule": {"kind": "work_steal", "seed": 7}}"#,
        )
        .unwrap();
        let cfg = parse_config(Some(&v)).unwrap();
        assert_eq!(cfg.block_bytes, 64);
        assert_eq!(cfg.plan_cfg.block_bytes, 64, "plan block follows");
        assert_eq!(cfg.cache_bytes, 16384);
        assert_eq!(cfg.assoc, 2);
        assert_eq!(cfg.protocol, ProtocolKind::Directory);
        assert_eq!(cfg.machine.interconnect, InterconnectKind::HomeDir);
        assert_eq!(cfg.run.seed, 99);
        assert_eq!(cfg.run.max_steps, 1000);
        assert_eq!(cfg.run.schedule, Schedule::WorkSteal { seed: 7 });
        // Defaults when omitted.
        let d = parse_config(None).unwrap();
        assert_eq!(d.block_bytes, PipelineConfig::default().block_bytes);
        assert_eq!(d.run.schedule, Schedule::RoundRobin);
        // Unknown names are errors, not silent defaults.
        let bad = crate::json::parse(r#"{"protocol": "moesi"}"#).unwrap();
        assert!(parse_config(Some(&bad)).is_err());
        // So are unknown keys.
        for key in ["engine", "blocks"] {
            let bad = crate::json::parse(&format!(r#"{{"{key}": 1}}"#)).unwrap();
            assert_eq!(
                parse_config(Some(&bad)).unwrap_err(),
                format!("unknown config key `{key}`")
            );
        }
        // A config that is not an object is an error, not the defaults.
        for bad in ["5", "\"msi\"", "[]"] {
            let v = crate::json::parse(bad).unwrap();
            assert!(parse_config(Some(&v)).is_err(), "{bad} should be rejected");
        }
        assert!(parse_config(Some(&Value::Null)).is_ok(), "null = absent");
        // Integers that do not fit their field are errors, not wraps.
        for (bad, key) in [
            (r#"{"assoc": 4294967297}"#, "assoc"),
            (r#"{"block": -128}"#, "block"),
            (r#"{"cache_bytes": -1}"#, "cache_bytes"),
            (r#"{"seed": -1}"#, "seed"),
            (
                r#"{"schedule": {"kind": "work_steal", "seed": -7}}"#,
                "seed",
            ),
        ] {
            let v = crate::json::parse(bad).unwrap();
            let e = parse_config(Some(&v)).unwrap_err();
            assert!(
                e.starts_with(&format!("`{key}` is out of range")),
                "{bad}: {e}"
            );
        }
        // Configurations the simulator cannot run are rejected here,
        // before any job is built from them.
        for bad in [r#"{"block": 3}"#, r#"{"block": 0}"#, r#"{"assoc": 0}"#] {
            let v = crate::json::parse(bad).unwrap();
            assert!(parse_config(Some(&v)).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn threads_are_range_checked_and_capped() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = |s: &str| parse_threads(&crate::json::parse(s).unwrap());
        assert_eq!(threads("{}").unwrap(), 0, "absent = auto");
        assert_eq!(threads(r#"{"threads": 1}"#).unwrap(), 1);
        assert_eq!(threads(r#"{"threads": 1000000}"#).unwrap(), cores);
        assert!(threads(r#"{"threads": -1}"#).is_err());
        assert!(threads(r#"{"threads": "4"}"#).is_err());
    }

    #[test]
    fn schedule_parsing_accepts_both_forms_and_rejects_junk() {
        let rr = crate::json::parse("\"round_robin\"").unwrap();
        assert_eq!(parse_schedule(&rr).unwrap(), Schedule::RoundRobin);
        let rr_obj = crate::json::parse(r#"{"kind": "round_robin"}"#).unwrap();
        assert_eq!(parse_schedule(&rr_obj).unwrap(), Schedule::RoundRobin);
        let ws = crate::json::parse(r#"{"kind": "work_steal", "seed": 42}"#).unwrap();
        assert_eq!(
            parse_schedule(&ws).unwrap(),
            Schedule::WorkSteal { seed: 42 }
        );
        for bad in [
            "\"work_steal\"",            // WS needs a seed, so string form is rejected
            r#"{"kind": "work_steal"}"#, // ... even as an object
            r#"{"kind": "lottery"}"#,    // unknown kind
            r#"{"seed": 3}"#,            // missing kind
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(parse_schedule(&v).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn plan_spec_parses() {
        assert!(matches!(parse_plan(None).unwrap(), PlanSource::Unoptimized));
        let c = crate::json::parse("\"compiler\"").unwrap();
        assert!(matches!(
            parse_plan(Some(&c)).unwrap(),
            PlanSource::Compiler
        ));
        let bad = crate::json::parse("\"programmer\"").unwrap();
        assert!(parse_plan(Some(&bad)).is_err());
    }
}
