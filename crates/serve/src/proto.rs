//! The wire protocol: length-prefixed JSON frames.
//!
//! Each message is one frame — a big-endian `u32` byte count followed by
//! that many bytes of UTF-8 JSON. The JSON side reuses the workspace's
//! hand-rolled reader (`perforad_tune::json`); the writer lives here and
//! emits `f64`s with Rust's `Display`, which produces the shortest string
//! that parses back to the same bits — so finite grid values cross the
//! wire **bitwise-intact**, the property `tests/serve.rs` pins.
//!
//! Malformed input never panics the peer: an oversized or non-UTF-8
//! frame is an `io::Error` (the server drops the connection), and a
//! well-framed but unparseable or unknown-typed payload earns a
//! [`Reply::Error`] on the same connection.

use perforad_tune::json::{self, Value};
use std::io::{self, Read, Write};

/// Hard cap on one frame (64 MiB); a longer length prefix is corrupt or
/// hostile and is rejected before allocation. Dense gradients serialize
/// at about 17 bytes per value, so a single-shot `Gradient` reply fits
/// up to about n ≈ 157 (157³ values). A reply over the cap is answered
/// with a [`Reply::Error`] naming its size and the cap ([`reply_frame`]).
pub const MAX_FRAME: usize = 64 << 20;

/// Encode `reply` for a frame of at most `cap` bytes. A reply too large
/// for it becomes a short [`Reply::Error`] that names the size and the
/// cap: the client gets a structured, non-retryable failure instead of
/// a dropped connection, which its retry policy would answer by
/// re-running the whole gradient.
pub fn reply_frame(reply: &Reply, cap: usize) -> String {
    let json = reply.to_json();
    if json.len() <= cap {
        return json;
    }
    perforad_obs::counter("serve.oversize_replies").inc();
    Reply::Error(format!(
        "reply of {} bytes exceeds the {cap}-byte frame cap; request a smaller grid",
        json.len()
    ))
    .to_json()
}

/// Write one `u32`-BE length-prefixed frame and flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame; errors on EOF mid-frame (truncation), an oversized
/// length prefix, or non-UTF-8 payload.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<String> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// A client request. On the wire: an object whose `"type"` field selects
/// the variant (`"compile"`, `"gradient"`, `"gradient_batch"`, `"stats"`,
/// `"shutdown"`).
#[derive(Clone, Debug)]
pub enum Request {
    Compile(CompileRequest),
    Gradient(GradientRequest),
    GradientBatch(BatchRequest),
    Stats,
    Shutdown,
}

/// `Compile` payload: either the full seismic driver (warm up a
/// [`perforad_pde::seismic::BatchPlan`] — adjoint transform, autotune,
/// JIT, checkpoint budget — and keep it keyed by fingerprint) or a raw
/// stencil-DSL kernel (parse → adjoint → fingerprint, cached, no
/// gradient driver attached).
#[derive(Clone, Debug)]
pub enum CompileRequest {
    Seismic {
        /// Grid edge (the domain is `n³`).
        n: usize,
        /// Time steps per shot.
        steps: usize,
        /// `(dt/dx)²`.
        d: f64,
        /// Row-major `n³` velocity model; defaults to a uniform medium.
        /// A repeat `Compile` with the same shape and a fresh model swaps
        /// the grid into the cached plan without recompiling.
        c: Option<Vec<f64>>,
        /// Explicit snapshot budget for checkpointed sweeps
        /// (tuner-chosen when absent).
        budget: Option<usize>,
        /// Force checkpointed (`true`) / store-all (`false`) sweeps;
        /// absent applies the step-count threshold rule.
        checkpointed: Option<bool>,
    },
    Stencil {
        /// Stencil DSL source, e.g. `"for i in 1 .. n-1 { r[i] = ... }"`.
        stencil: String,
        /// Size bindings for the symbols in the bounds.
        sizes: Vec<(String, i64)>,
        /// Scalar parameter bindings.
        params: Vec<(String, f64)>,
        /// Arrays to differentiate with respect to.
        active: Vec<String>,
    },
}

/// `Gradient` payload: one shot against a compiled fingerprint.
#[derive(Clone, Debug)]
pub struct GradientRequest {
    /// Hex fingerprint from a prior `Compiled` reply.
    pub fingerprint: String,
    /// Source wavelet, one sample per time step.
    pub source: Vec<f64>,
    /// Observed data, row-major `n³`.
    pub observed: Vec<f64>,
    /// Time budget for this request, measured from server receipt. A
    /// request still *queued* when its budget runs out earns an error
    /// reply instead of a stale gradient (a running sweep is never
    /// interrupted — the check sits between queue and run).
    pub deadline_ms: Option<u64>,
    /// Ask the server to trace this request and return a per-request
    /// [`TraceReport`](perforad_obs::TraceReport) rollup in the reply's
    /// `trace` field. Absent on the wire means `false`; tracing changes
    /// timing only, never the gradient bits.
    pub trace: bool,
}

/// `GradientBatch` payload: a whole survey against one fingerprint.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    pub fingerprint: String,
    /// `(source, observed)` per shot.
    pub shots: Vec<(Vec<f64>, Vec<f64>)>,
    /// Same queue-side time budget as [`GradientRequest::deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Same per-request trace rollup opt-in as [`GradientRequest::trace`].
    pub trace: bool,
}

/// A server reply; `"type"` selects the variant, `"error"` carries a
/// message instead of panicking the connection.
#[derive(Clone, Debug)]
pub enum Reply {
    Compiled(CompiledReply),
    Gradient(GradientReply),
    GradientBatch(BatchReply),
    /// The full stats object, kept as parsed JSON — callers navigate
    /// `metrics.counters.*`, `kernels[..]`, `queue_depth` directly.
    Stats(Value),
    Ok,
    /// Admission control turned the request away: the run queue (or the
    /// connection table) is full. Nothing was executed; retry after the
    /// suggested delay. The typed client's retry policy handles this
    /// automatically.
    Busy {
        retry_after_ms: u64,
    },
    Error(String),
}

/// Outcome of a `Compile`.
#[derive(Clone, Debug)]
pub struct CompiledReply {
    /// Hex id to present in `Gradient`/`GradientBatch` requests.
    pub fingerprint: String,
    /// Whether this fingerprint was already warm (no transform, no
    /// tuning, no compile performed).
    pub cached: bool,
    /// Adjoint loop nests behind the schedule.
    pub nests: usize,
    /// `TunedConfig::describe()` of the schedule serving this kernel
    /// (seismic kernels only).
    pub config: Option<String>,
    /// Whether shots run the bounded-memory checkpointed sweep.
    pub checkpointed: Option<bool>,
    /// Snapshot budget for checkpointed sweeps.
    pub budget: Option<usize>,
}

/// Outcome of a single-shot `Gradient`.
#[derive(Clone, Debug)]
pub struct GradientReply {
    pub misfit: f64,
    /// `∂J/∂c`, row-major `n³`, bitwise-identical to the in-process call.
    pub gradient: Vec<f64>,
    pub checkpointed: bool,
    /// Server-assigned request id (sequential per daemon, never 0). The
    /// same id stamps this request's spans, appears in flight-recorder
    /// dumps, and keys the `trace` rollup — quote it when reporting a
    /// slow or degraded request.
    pub request_id: u64,
    /// Per-request trace rollup (`wall_ns`/`phases`/`top_spans`, plus
    /// `request_id`), present when the request set `trace: true`.
    pub trace: Option<Value>,
}

/// Outcome of a `GradientBatch`.
#[derive(Clone, Debug)]
pub struct BatchReply {
    pub misfits: Vec<f64>,
    pub gradients: Vec<Vec<f64>>,
    /// The dispatch strategy that actually ran (`"ShotParallel"` /
    /// `"GridParallel"`).
    pub strategy: String,
    /// Same server-assigned id as [`GradientReply::request_id`].
    pub request_id: u64,
    /// Same opt-in rollup as [`GradientReply::trace`].
    pub trace: Option<Value>,
}

// ---------------------------------------------------------------------
// JSON writing. f64s go through Display: shortest round-trip form, so
// finite values survive the wire bit-for-bit. Non-finite values become
// null (the reader rejects them).

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

fn push_f64_array(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, v) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push(']');
}

// `json::escape` emits the surrounding quotes itself.
fn push_str(out: &mut String, s: &str) {
    out.push_str(&json::escape(s));
}

impl Request {
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        match self {
            Request::Compile(CompileRequest::Seismic {
                n,
                steps,
                d,
                c,
                budget,
                checkpointed,
            }) => {
                o.push_str(&format!(
                    "{{\"type\":\"compile\",\"kernel\":\"seismic\",\"n\":{n},\"steps\":{steps},\"d\":"
                ));
                push_f64(&mut o, *d);
                if let Some(c) = c {
                    o.push_str(",\"c\":");
                    push_f64_array(&mut o, c);
                }
                if let Some(b) = budget {
                    o.push_str(&format!(",\"budget\":{b}"));
                }
                if let Some(ck) = checkpointed {
                    o.push_str(&format!(",\"checkpointed\":{ck}"));
                }
                o.push('}');
            }
            Request::Compile(CompileRequest::Stencil {
                stencil,
                sizes,
                params,
                active,
            }) => {
                o.push_str("{\"type\":\"compile\",\"kernel\":\"stencil\",\"stencil\":");
                push_str(&mut o, stencil);
                o.push_str(",\"sizes\":{");
                for (i, (k, v)) in sizes.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    push_str(&mut o, k);
                    o.push_str(&format!(":{v}"));
                }
                o.push_str("},\"params\":{");
                for (i, (k, v)) in params.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    push_str(&mut o, k);
                    o.push(':');
                    push_f64(&mut o, *v);
                }
                o.push_str("},\"active\":[");
                for (i, a) in active.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    push_str(&mut o, a);
                }
                o.push_str("]}");
            }
            Request::Gradient(g) => {
                o.push_str("{\"type\":\"gradient\",\"fingerprint\":");
                push_str(&mut o, &g.fingerprint);
                o.push_str(",\"source\":");
                push_f64_array(&mut o, &g.source);
                o.push_str(",\"observed\":");
                push_f64_array(&mut o, &g.observed);
                if let Some(ms) = g.deadline_ms {
                    o.push_str(&format!(",\"deadline_ms\":{ms}"));
                }
                if g.trace {
                    o.push_str(",\"trace\":true");
                }
                o.push('}');
            }
            Request::GradientBatch(b) => {
                o.push_str("{\"type\":\"gradient_batch\",\"fingerprint\":");
                push_str(&mut o, &b.fingerprint);
                o.push_str(",\"shots\":[");
                for (i, (src, obs)) in b.shots.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    o.push_str("{\"source\":");
                    push_f64_array(&mut o, src);
                    o.push_str(",\"observed\":");
                    push_f64_array(&mut o, obs);
                    o.push('}');
                }
                o.push(']');
                if let Some(ms) = b.deadline_ms {
                    o.push_str(&format!(",\"deadline_ms\":{ms}"));
                }
                if b.trace {
                    o.push_str(",\"trace\":true");
                }
                o.push('}');
            }
            Request::Stats => o.push_str("{\"type\":\"stats\"}"),
            Request::Shutdown => o.push_str("{\"type\":\"shutdown\"}"),
        }
        o
    }

    /// Decode a request frame. Every failure is a message for a
    /// [`Reply::Error`], never a panic.
    pub fn from_json(payload: &str) -> Result<Request, String> {
        let v = json::parse(payload).map_err(|e| format!("bad request JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("request has no string \"type\" field")?;
        match ty {
            "compile" => decode_compile(&v).map(Request::Compile),
            "gradient" => Ok(Request::Gradient(GradientRequest {
                fingerprint: req_str(&v, "fingerprint")?,
                source: req_f64_array(&v, "source")?,
                observed: req_f64_array(&v, "observed")?,
                deadline_ms: opt_u64(&v, "deadline_ms")?,
                trace: opt_bool(&v, "trace")?,
            })),
            "gradient_batch" => {
                let fingerprint = req_str(&v, "fingerprint")?;
                let shots = v
                    .get("shots")
                    .and_then(Value::as_array)
                    .ok_or("gradient_batch needs a \"shots\" array")?;
                let mut out = Vec::with_capacity(shots.len());
                for s in shots {
                    out.push((req_f64_array(s, "source")?, req_f64_array(s, "observed")?));
                }
                Ok(Request::GradientBatch(BatchRequest {
                    fingerprint,
                    shots: out,
                    deadline_ms: opt_u64(&v, "deadline_ms")?,
                    trace: opt_bool(&v, "trace")?,
                }))
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

fn decode_compile(v: &Value) -> Result<CompileRequest, String> {
    let kernel = v
        .get("kernel")
        .and_then(Value::as_str)
        .ok_or("compile needs a string \"kernel\" field")?;
    match kernel {
        "seismic" => Ok(CompileRequest::Seismic {
            n: req_usize(v, "n")?,
            steps: req_usize(v, "steps")?,
            d: v.get("d")
                .and_then(Value::as_f64)
                .ok_or("compile seismic needs a number \"d\"")?,
            c: match v.get("c") {
                None | Some(Value::Null) => None,
                Some(c) => Some(f64_array(c).ok_or("\"c\" must be an array of numbers")?),
            },
            budget: opt_usize(v, "budget")?,
            checkpointed: match v.get("checkpointed") {
                None | Some(Value::Null) => None,
                Some(b) => Some(b.as_bool().ok_or("\"checkpointed\" must be a bool")?),
            },
        }),
        "stencil" => {
            let pairs = |key: &str| -> Result<Vec<(String, Value)>, String> {
                match v.get(key) {
                    None | Some(Value::Null) => Ok(Vec::new()),
                    Some(Value::Obj(fields)) => Ok(fields.clone()),
                    Some(_) => Err(format!("\"{key}\" must be an object")),
                }
            };
            let mut sizes = Vec::new();
            for (k, val) in pairs("sizes")? {
                sizes.push((k, val.as_i64().ok_or("sizes values must be integers")?));
            }
            let mut params = Vec::new();
            for (k, val) in pairs("params")? {
                params.push((k, val.as_f64().ok_or("params values must be numbers")?));
            }
            let active = match v.get("active").and_then(Value::as_array) {
                Some(items) => items
                    .iter()
                    .map(|a| a.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or("\"active\" must be an array of strings")?,
                None => Vec::new(),
            };
            Ok(CompileRequest::Stencil {
                stencil: req_str(v, "stencil")?,
                sizes,
                params,
                active,
            })
        }
        other => Err(format!("unknown compile kernel {other:?}")),
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("missing string field \"{key}\""))
}

fn req_usize(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_i64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or(format!("missing non-negative integer field \"{key}\""))
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => n
            .as_i64()
            .and_then(|n| u64::try_from(n).ok())
            .map(Some)
            .ok_or(format!("\"{key}\" must be a non-negative integer")),
    }
}

/// Absent or `null` means `false` — old clients never send the field.
fn opt_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(b) => b.as_bool().ok_or(format!("\"{key}\" must be a bool")),
    }
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => n
            .as_i64()
            .and_then(|n| usize::try_from(n).ok())
            .map(Some)
            .ok_or(format!("\"{key}\" must be a non-negative integer")),
    }
}

/// A structured optional field (absent or `null` → `None`).
fn opt_value(v: &Value, key: &str) -> Option<Value> {
    match v.get(key) {
        None | Some(Value::Null) => None,
        Some(t) => Some(t.clone()),
    }
}

fn f64_array(v: &Value) -> Option<Vec<f64>> {
    v.as_array()?.iter().map(Value::as_f64).collect()
}

fn req_f64_array(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(f64_array)
        .ok_or(format!("missing number-array field \"{key}\""))
}

impl Reply {
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        match self {
            Reply::Compiled(c) => {
                o.push_str("{\"type\":\"compiled\",\"fingerprint\":");
                push_str(&mut o, &c.fingerprint);
                o.push_str(&format!(",\"cached\":{},\"nests\":{}", c.cached, c.nests));
                if let Some(cfg) = &c.config {
                    o.push_str(",\"config\":");
                    push_str(&mut o, cfg);
                }
                if let Some(ck) = c.checkpointed {
                    o.push_str(&format!(",\"checkpointed\":{ck}"));
                }
                if let Some(b) = c.budget {
                    o.push_str(&format!(",\"budget\":{b}"));
                }
                o.push('}');
            }
            Reply::Gradient(g) => {
                o.push_str("{\"type\":\"gradient\",\"misfit\":");
                push_f64(&mut o, g.misfit);
                o.push_str(",\"gradient\":");
                push_f64_array(&mut o, &g.gradient);
                o.push_str(&format!(",\"checkpointed\":{}", g.checkpointed));
                o.push_str(&format!(",\"request_id\":{}", g.request_id));
                if let Some(t) = &g.trace {
                    o.push_str(",\"trace\":");
                    write_value(&mut o, t);
                }
                o.push('}');
            }
            Reply::GradientBatch(b) => {
                o.push_str("{\"type\":\"gradient_batch\",\"misfits\":");
                push_f64_array(&mut o, &b.misfits);
                o.push_str(",\"gradients\":[");
                for (i, g) in b.gradients.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    push_f64_array(&mut o, g);
                }
                o.push_str("],\"strategy\":");
                push_str(&mut o, &b.strategy);
                o.push_str(&format!(",\"request_id\":{}", b.request_id));
                if let Some(t) = &b.trace {
                    o.push_str(",\"trace\":");
                    write_value(&mut o, t);
                }
                o.push('}');
            }
            Reply::Stats(v) => {
                o.push_str("{\"type\":\"stats\",\"stats\":");
                write_value(&mut o, v);
                o.push('}');
            }
            Reply::Ok => o.push_str("{\"type\":\"ok\"}"),
            Reply::Busy { retry_after_ms } => {
                o.push_str(&format!(
                    "{{\"type\":\"busy\",\"retry_after_ms\":{retry_after_ms}}}"
                ));
            }
            Reply::Error(msg) => {
                o.push_str("{\"type\":\"error\",\"message\":");
                push_str(&mut o, msg);
                o.push('}');
            }
        }
        o
    }

    pub fn from_json(payload: &str) -> Result<Reply, String> {
        let v = json::parse(payload).map_err(|e| format!("bad reply JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("reply has no string \"type\" field")?;
        match ty {
            "compiled" => Ok(Reply::Compiled(CompiledReply {
                fingerprint: req_str(&v, "fingerprint")?,
                cached: v
                    .get("cached")
                    .and_then(Value::as_bool)
                    .ok_or("compiled reply needs \"cached\"")?,
                nests: req_usize(&v, "nests")?,
                config: v.get("config").and_then(Value::as_str).map(str::to_string),
                checkpointed: v.get("checkpointed").and_then(Value::as_bool),
                budget: opt_usize(&v, "budget")?,
            })),
            "gradient" => Ok(Reply::Gradient(GradientReply {
                misfit: v
                    .get("misfit")
                    .and_then(Value::as_f64)
                    .ok_or("gradient reply needs \"misfit\"")?,
                gradient: req_f64_array(&v, "gradient")?,
                checkpointed: v
                    .get("checkpointed")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                request_id: opt_u64(&v, "request_id")?.unwrap_or(0),
                trace: opt_value(&v, "trace"),
            })),
            "gradient_batch" => {
                let gradients = v
                    .get("gradients")
                    .and_then(Value::as_array)
                    .ok_or("gradient_batch reply needs \"gradients\"")?
                    .iter()
                    .map(f64_array)
                    .collect::<Option<Vec<_>>>()
                    .ok_or("\"gradients\" must be arrays of numbers")?;
                Ok(Reply::GradientBatch(BatchReply {
                    misfits: req_f64_array(&v, "misfits")?,
                    gradients,
                    strategy: req_str(&v, "strategy")?,
                    request_id: opt_u64(&v, "request_id")?.unwrap_or(0),
                    trace: opt_value(&v, "trace"),
                }))
            }
            "stats" => Ok(Reply::Stats(v.get("stats").cloned().unwrap_or(Value::Null))),
            "ok" => Ok(Reply::Ok),
            "busy" => Ok(Reply::Busy {
                retry_after_ms: opt_u64(&v, "retry_after_ms")?.unwrap_or(0),
            }),
            "error" => Ok(Reply::Error(req_str(&v, "message")?)),
            other => Err(format!("unknown reply type {other:?}")),
        }
    }
}

/// Serialize a parsed [`Value`] back to JSON text (numbers via `Display`,
/// same shortest-round-trip property as the typed writers above).
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => push_f64(out, *n),
        Value::Str(s) => push_str(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversize_reply_becomes_an_error_naming_size_and_cap() {
        let reply = Reply::Gradient(GradientReply {
            misfit: 0.5,
            gradient: vec![0.123456789; 64],
            checkpointed: false,
            request_id: 3,
            trace: None,
        });
        let full = reply.to_json();
        assert_eq!(reply_frame(&reply, full.len()), full, "fits exactly");
        let cap = full.len() - 1;
        let framed = reply_frame(&reply, cap);
        assert!(framed.len() <= cap);
        let Reply::Error(msg) = Reply::from_json(&framed).unwrap() else {
            panic!("oversize reply must become an Error: {framed}");
        };
        assert!(msg.contains(&full.len().to_string()), "{msg}");
        assert!(msg.contains(&cap.to_string()), "{msg}");
    }

    #[test]
    fn f64_wire_round_trip_is_bitwise() {
        for v in [
            0.0,
            -0.0,
            1.0,
            0.1,
            std::f64::consts::PI,
            1e-300,
            -3.9e17,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            let back = json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s}");
        }
    }

    #[test]
    fn request_round_trips() {
        let req = Request::Gradient(GradientRequest {
            fingerprint: "ab12".into(),
            source: vec![0.5, -1.25],
            observed: vec![0.0, 1.0, 2.0],
            deadline_ms: None,
            trace: false,
        });
        let Request::Gradient(back) = Request::from_json(&req.to_json()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.fingerprint, "ab12");
        assert_eq!(back.source, vec![0.5, -1.25]);
        assert_eq!(back.observed, vec![0.0, 1.0, 2.0]);
        assert_eq!(back.deadline_ms, None);
    }

    #[test]
    fn deadline_round_trips_and_is_optional_on_the_wire() {
        let req = Request::Gradient(GradientRequest {
            fingerprint: "ab12".into(),
            source: vec![1.0],
            observed: vec![2.0],
            deadline_ms: Some(250),
            trace: false,
        });
        let json = req.to_json();
        assert!(json.contains("\"deadline_ms\":250"));
        let Request::Gradient(back) = Request::from_json(&json).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.deadline_ms, Some(250));

        let req = Request::GradientBatch(BatchRequest {
            fingerprint: "ab12".into(),
            shots: vec![(vec![1.0], vec![2.0])],
            deadline_ms: Some(9),
            trace: false,
        });
        let Request::GradientBatch(back) = Request::from_json(&req.to_json()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.deadline_ms, Some(9));
        // Absent on the wire stays absent — old clients keep working.
        assert!(!Request::GradientBatch(BatchRequest {
            fingerprint: "ab12".into(),
            shots: vec![],
            deadline_ms: None,
            trace: false,
        })
        .to_json()
        .contains("deadline_ms"));
        // A negative deadline is malformed, not a panic.
        assert!(Request::from_json(
            "{\"type\":\"gradient\",\"fingerprint\":\"a\",\"source\":[],\
             \"observed\":[],\"deadline_ms\":-4}"
        )
        .is_err());
    }

    #[test]
    fn busy_reply_round_trips() {
        let Reply::Busy { retry_after_ms } =
            Reply::from_json(&Reply::Busy { retry_after_ms: 40 }.to_json()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(retry_after_ms, 40);
    }

    #[test]
    fn unknown_type_is_an_error_not_a_panic() {
        assert!(Request::from_json("{\"type\":\"nope\"}").is_err());
        assert!(Request::from_json("not json at all").is_err());
        assert!(Request::from_json("{}").is_err());
    }
}
