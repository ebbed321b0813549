//! perfbench: the repository benchmark for seismic gradients.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload survey --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The parent process refuses to run under fault, trace, cache or
//! admission overrides from the environment, then runs the workload in
//! fresh child processes (`--role work`), one after another, each with a
//! private JIT artifact directory, temp directory and socket path. It
//! pools what they measured, prints a report and, as its last line, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md`.

mod check;
mod layers;
mod run;
mod served;
mod spans;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::Workload;

/// Fresh work processes per untraced run. Each pays a cold set-up and
/// measures its share of the window; `setup_s` is the median of their
/// set-ups, and the latencies are pooled. Each process tunes on its own,
/// so a run samples the tuner's picks several times, not once.
const PARTS: usize = 2;

/// `(name, unit)` of every end-to-end metric, in report order.
const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_shots_per_s", "1/s"),
    ("cpu_ms_per_shot", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric.
const PER_LAYER: [(&str, &str); 27] = [
    ("core.adjoint_transform_ms", "ms"),
    ("sched.compile_ms", "ms"),
    ("tune.search_ms", "ms"),
    ("tune.candidates_timed", "count"),
    ("tune.hit_ms", "ms"),
    ("tune.model_error_ratio", "ratio"),
    ("jit.build_ms", "ms"),
    ("jit.groups_compiled", "count"),
    ("exec.adjoint_step_ms", "ms"),
    ("exec.adjoint_gb_per_s_computed", "GB/s"),
    ("pde.primal_step_ms", "ms"),
    ("pde.adjoint_primal_ratio", "ratio"),
    ("pde.batch_setup_ms", "ms"),
    ("ckpt.recompute_ratio", "ratio"),
    ("ckpt.peak_snapshot_mb", "MB"),
    ("ckpt.budget", "count"),
    ("ckpt.driver_ms", "ms"),
    ("perfmodel.strategy_regret", "ratio"),
    ("serve.request_encode_ms", "ms"),
    ("serve.request_decode_ms", "ms"),
    ("serve.reply_encode_ms", "ms"),
    ("serve.reply_decode_ms", "ms"),
    ("serve.frame_bytes", "bytes"),
    ("serve.engine_ms", "ms"),
    ("serve.outside_engine_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Set from outside, these would change what is measured: refuse.
const REFUSED_ENV: [&str; 4] = [
    "PERFORAD_FAULT",
    "PERFORAD_TRACE",
    "PERFORAD_TUNE_CACHE",
    "PERFORAD_CKPT_DIR",
];
const REFUSED_ENV_PREFIX: &str = "PERFORAD_SERVE_";

struct Args {
    role: String,
    workload: Workload,
    seed: u64,
    part: usize,
    seconds: f64,
    trace: bool,
    dir: Option<PathBuf>,
    socket: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        role: "bench".to_string(),
        workload: Workload::Survey,
        seed: 1,
        part: 0,
        seconds: 25.0,
        trace: false,
        dir: None,
        socket: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a positive number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--role" => args.role = value()?,
            "--part" => args.part = value()?.parse().map_err(|e| format!("--part: {e}"))?,
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            "--socket" => args.socket = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let t_main = Instant::now();
    let result = parse_args().and_then(|a| match a.role.as_str() {
        "bench" => bench_main(&a),
        "work" => run::work_main(
            &run::WorkArgs {
                workload: a.workload,
                seed: a.seed,
                part: a.part,
                seconds: a.seconds,
                trace: a.trace,
                dir: a.dir.clone().ok_or("--role work needs --dir")?,
                trace_out: a.trace_out.clone(),
            },
            t_main,
        ),
        "daemon" => served::daemon_main(
            a.workload,
            a.socket.clone().ok_or("--role daemon needs --socket")?,
        ),
        other => Err(format!("unknown role {other:?}")),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// What a child process reported on stdout (`@key value` lines).
#[derive(Default)]
struct ChildReport {
    values: BTreeMap<String, String>,
}

impl ChildReport {
    fn get(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("child reported no {key}"))
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        let v = self.get(key)?;
        v.parse().map_err(|e| format!("{key} = {v:?}: {e}"))
    }

    /// A comma-separated list of numbers.
    fn nums(&self, key: &str) -> Result<Vec<f64>, String> {
        self.get(key)?
            .split(',')
            .map(|v| v.parse().map_err(|e| format!("{key}: {v:?}: {e}")))
            .collect()
    }
}

/// Run this binary as work process `part`, measuring for `seconds`, with
/// a scrubbed environment: no `PERFORAD_*` from outside, a private JIT
/// artifact directory and temp directory, and the workload's memory
/// budget.
fn run_child(
    a: &Args,
    part: usize,
    seconds: f64,
    dir: &Path,
    extra: &[String],
) -> Result<ChildReport, String> {
    let abs = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(dir);
    let jit = abs.join("jit");
    let tmp = abs.join("tmp");
    for d in [&jit, &tmp] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--role", "work", "--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string(), "--part", &part.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("PERFORAD_") {
            cmd.env_remove(&k);
        }
    }
    cmd.env("PERFORAD_JIT_CACHE", &jit).env("TMPDIR", &tmp);
    if let Some(b) = a.workload.mem_budget_bytes() {
        cmd.env("PERFORAD_MEM_BUDGET_BYTES", b.to_string());
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn work process: {e}"))?;
    if !out.status.success() {
        return Err(format!("work process {part} failed ({})", out.status));
    }
    let mut report = ChildReport::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some((k, v)) = line.strip_prefix('@').and_then(|l| l.split_once(' ')) {
            report.values.insert(k.to_string(), v.to_string());
        }
    }
    Ok(report)
}

fn refuse_outside_overrides() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| REFUSED_ENV.contains(&k.as_str()) || k.starts_with(REFUSED_ENV_PREFIX))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: they change what is measured",
            set.join(", ")
        ))
    }
}

fn bench_main(a: &Args) -> Result<(), String> {
    refuse_outside_overrides()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let run_dir =
        root.join(".perfbench")
            .join(format!("run-{}-{}", a.workload.name(), std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    // Socket paths are kept relative to the checkout: a Unix socket path
    // must stay short, and every process here shares this working directory.
    let rel = run_dir
        .strip_prefix(&root)
        .unwrap_or(&run_dir)
        .to_path_buf();
    let outcome = bench_in(a, &root, &rel);
    let _ = std::fs::remove_dir_all(&run_dir);
    // Left only if empty: traced runs keep their span files under it.
    let _ = std::fs::remove_dir(root.join(".perfbench"));
    let (correct, attempted, failed, metrics) = outcome?;

    let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for (name, unit) in table {
        let v = *metrics
            .get(*name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        println!("{name:<34} {v:>14.6} {unit}");
        body.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(())
}

type Outcome = (bool, u64, u64, BTreeMap<String, f64>);

fn bench_in(a: &Args, root: &Path, rel: &Path) -> Result<Outcome, String> {
    let mut extra = Vec::new();
    if a.trace {
        let dir = root.join(".perfbench").join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!(
            "{}-seed{}-{}.json",
            a.workload.name(),
            a.seed,
            std::process::id()
        ));
        extra = vec!["--trace-out".to_string(), file.display().to_string()];
    }
    // The traced run is one process: its probes and its traced loop.
    let parts: Vec<ChildReport> = if a.trace {
        vec![run_child(a, 0, a.seconds, &rel.join("work"), &extra)?]
    } else {
        (0..PARTS)
            .map(|k| {
                let dir = rel.join(format!("work-{k}"));
                run_child(a, k, a.seconds / PARTS as f64, &dir, &[])
            })
            .collect::<Result<_, _>>()?
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for p in &parts {
        correct &= p.get("correct")? == "true";
        attempted += p.num("attempted")? as u64;
        failed += p.num("failed")? as u64;
    }

    let mut metrics = BTreeMap::new();
    if a.trace {
        for (k, v) in &parts[0].values {
            if let Some(name) = k.strip_prefix("metric.") {
                metrics.insert(
                    name.to_string(),
                    v.parse::<f64>().map_err(|e| format!("{k}: {e}"))?,
                );
            }
        }
    } else {
        let mut latencies = Vec::new();
        let (mut shots, mut wall_s, mut cpu_s) = (0.0, 0.0, 0.0);
        let (mut setups, mut peaks) = (Vec::new(), Vec::new());
        for p in &parts {
            latencies.extend(p.nums("latency_ms")?);
            shots += p.num("shots")?;
            wall_s += p.num("wall_s")?;
            cpu_s += p.num("cpu_s")?;
            setups.push(p.num("setup_s")?);
            peaks.push(p.num("peak_rss_mb")?);
        }
        let (pct, tail) = sys::tail(&latencies);
        println!("latency samples {}, tail percentile {pct}", latencies.len());
        println!("setup samples (s): {setups:?}");
        println!("peak RSS samples (MB): {peaks:?}");
        metrics.insert("latency_p50_ms".to_string(), sys::median(&latencies));
        metrics.insert("latency_tail_ms".to_string(), tail);
        metrics.insert("throughput_shots_per_s".to_string(), shots / wall_s);
        metrics.insert("cpu_ms_per_shot".to_string(), cpu_s * 1e3 / shots);
        metrics.insert("setup_s".to_string(), sys::median(&setups));
        metrics.insert("peak_rss_mb".to_string(), sys::median(&peaks));
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace
    );
    println!("nproc {} L3 {}", sys::nproc(), sys::l3_size());
    for (k, p) in parts.iter().enumerate() {
        for (key, v) in &p.values {
            if let Some(key) = key.strip_prefix("info.") {
                println!("part {k} {key}: {v}");
            }
        }
    }
    Ok((correct, attempted, failed, metrics))
}
