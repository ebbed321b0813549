//! The gradient-doing process (`--role work`): the cold first operation,
//! the warm-up, the closed loop, and the correctness gate.
//!
//! Results go to stdout as `@<key> <value>` lines for the parent.

use crate::check::{self, Item};
use crate::served::{self, Daemon};
use crate::spans::{self, Tracer};
use crate::sys;
use crate::workload::{op_inputs, stream, velocity, OpId, OpResult, Workload};
use perforad_exec::{default_pool, Grid};
use perforad_pde::seismic::{
    gradient, gradient_batch, BatchOptions, BatchPlan, SeismicConfig, ShotBatch,
};
use perforad_serve::CompiledReply;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What the work process was asked to do.
pub struct WorkArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Which of the run's work processes this is: its clients' ids start
    /// at `part × clients`, so no two processes send the same inputs.
    pub part: usize,
    pub seconds: f64,
    pub trace: bool,
    /// Private per-run directory (socket, JIT probe artifacts).
    pub dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Random streams of the seeded sample, apart from every input stream.
const RESERVOIR_STREAM: u64 = 0x5a3e_1e00;
const SAMPLE_STREAM: u64 = 0x5a3e_1e01;

/// Operations each work process runs untimed between its cold set-up and
/// its timed loop, as ops `1..=WARMUP_OPS` of its first client; the loop
/// numbers its ops after them. The first few operations after set-up ran
/// up to 1.7× slower than the ones after them.
const WARMUP_OPS: u64 = 3;

/// Run the warm-up operations; returns how many failed.
fn warm_up(
    w: Workload,
    seed: u64,
    op0: OpId,
    mut call: impl FnMut(&ShotBatch) -> Result<OpResult, String>,
) -> u64 {
    let failed = (1..=WARMUP_OPS).filter(|&op| {
        let id = OpId {
            client: op0.client,
            op,
        };
        call(&op_inputs(w, seed, id))
            .map_err(|e| eprintln!("perfbench: warm-up op {op} failed: {e}"))
            .is_err()
    });
    failed.count() as u64
}

/// The cold set-up operation: op 0 of the part's first client.
fn first_op(w: Workload, part: usize) -> OpId {
    OpId {
        client: part * w.clients(),
        op: 0,
    }
}

pub fn emit(key: &str, value: impl std::fmt::Display) {
    println!("@{key} {value}");
}

/// One in-process operation: a `gradient_batch` call (survey) or a
/// `gradient` call (long sweep).
fn inproc_op(w: Workload, cfg: &SeismicConfig, c: &Grid, batch: &ShotBatch) -> OpResult {
    match w {
        Workload::Survey => {
            let r = gradient_batch(cfg, c, batch);
            r.misfits.into_iter().zip(r.gradients).collect()
        }
        _ => vec![gradient(cfg, c, &batch.observed[0], &batch.sources[0])],
    }
}

fn op_span(w: Workload) -> &'static str {
    match w {
        Workload::Survey => "pde.gradient_batch",
        Workload::LongSweep => "pde.gradient",
        Workload::ServedSmall => "serve.roundtrip",
    }
}

/// One client's closed loop.
struct ClientLog {
    client: usize,
    /// Latencies (ms) of successful untraced / traced operations.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    shots: u64,
    first: Option<(OpId, OpResult)>,
    last: Option<(OpId, OpResult)>,
    sample: Option<(OpId, OpResult)>,
    tracer: Tracer,
    end: Instant,
}

/// Send operations back to back until `deadline`. With `trace`, every
/// other operation runs under a root span (`bench.op`) with children
/// around input generation and the call into the program; the others
/// run bare, so the two latency sets give the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    w: Workload,
    seed: u64,
    client: usize,
    keep_first: bool,
    trace: bool,
    origin: Instant,
    deadline: Instant,
    mut call: impl FnMut(&ShotBatch) -> Result<OpResult, String>,
) -> ClientLog {
    let mut log = ClientLog {
        client,
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        shots: 0,
        first: None,
        last: None,
        sample: None,
        tracer: Tracer::new(origin, client + 1),
        end: Instant::now(),
    };
    let mut pick = stream(seed, &[RESERVOIR_STREAM, client as u64]);
    let mut ok_ops = 0u64;
    let mut op = WARMUP_OPS + 1;
    while Instant::now() < deadline {
        let id = OpId { client, op };
        op += 1;
        let traced = trace && op % 2 == 0;
        let (res, ms) = if traced {
            log.tracer.span("bench.op", |tr| {
                let batch = tr.span("bench.inputs", |_| op_inputs(w, seed, id));
                let t = Instant::now();
                let r = tr.span(op_span(w), |_| call(&batch));
                (r, t.elapsed().as_secs_f64() * 1e3)
            })
        } else {
            let batch = op_inputs(w, seed, id);
            let t = Instant::now();
            let r = call(&batch);
            (r, t.elapsed().as_secs_f64() * 1e3)
        };
        log.end = Instant::now();
        log.attempted += 1;
        match res {
            Ok(r) => {
                if traced {
                    log.traced_ms.push(ms);
                } else {
                    log.untraced_ms.push(ms);
                }
                log.shots += r.len() as u64;
                ok_ops += 1;
                if keep_first && log.first.is_none() {
                    log.first = Some((id, r.clone()));
                }
                // Reservoir of one: every successful op is equally likely
                // to be the seeded sample.
                if pick.below(ok_ops) == 0 {
                    log.sample = Some((id, r.clone()));
                }
                log.last = Some((id, r));
            }
            Err(e) => {
                log.failed += 1;
                if log.errors.len() < 5 {
                    log.errors.push(e);
                }
            }
        }
    }
    log
}

fn items_of(label: &str, kept: &Option<(OpId, OpResult)>, shots: Option<usize>) -> Vec<Item> {
    let Some((id, result)) = kept else {
        return Vec::new();
    };
    result
        .iter()
        .enumerate()
        .filter(|(k, _)| shots.is_none_or(|s| s == *k))
        .map(|(k, got)| Item {
            label: format!("{label} client {} op {} shot {k}", id.client, id.op),
            id: *id,
            shot: k,
            got: got.clone(),
        })
        .collect()
}

fn jit_artifacts() -> usize {
    std::env::var_os("PERFORAD_JIT_CACHE")
        .and_then(|d| std::fs::read_dir(d).ok())
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "so"))
                .count()
        })
        .unwrap_or(0)
}

/// Bytes the gradient keeps live, computed from the shapes (not measured).
fn working_set_bytes(w: Workload, budget: usize, in_flight: usize) -> usize {
    let cfg = w.cfg();
    let grid = crate::workload::grid_bytes(cfg.n);
    match w {
        // Dense trajectory plus the λ vector, per shot in flight.
        Workload::Survey | Workload::ServedSmall => 2 * (cfg.steps + 1) * grid * in_flight,
        // Snapshots of (u_{t−1}, u_t) plus ~15 fixed grids (rolling λ
        // window, cursor state, stepper and adjoint workspaces).
        Workload::LongSweep => (2 * budget + 15) * grid,
    }
}

/// Spawn a daemon, `Compile` the workload's kernel and send the set-up
/// operation: the daemon, its `Compiled` reply, the first result, and the
/// seconds from spawn to that result.
fn start_daemon(
    w: Workload,
    seed: u64,
    op0: OpId,
    socket: &Path,
) -> Result<(Daemon, CompiledReply, OpResult, f64), String> {
    let cfg = w.cfg();
    let t0 = Instant::now();
    let daemon = Daemon::spawn(w, socket)?;
    let mut client = daemon.connect()?;
    let compiled = served::compile(&mut client, &cfg)?;
    let req = served::gradient_request(&compiled.fingerprint, &op_inputs(w, seed, op0));
    let r0 = served::roundtrip(&mut client, &req, &cfg)?;
    Ok((daemon, compiled, r0, t0.elapsed().as_secs_f64()))
}

/// `--role work`: cold first operation, the timed closed loop, the gate.
/// The cold operation is timed from the start of `main` in process, and
/// from the daemon's spawn to the first reply when served: everything a
/// new deployment pays before its first gradient.
pub fn work_main(a: &WorkArgs, t_main: Instant) -> Result<(), String> {
    let w = a.workload;
    let cfg = w.cfg();
    let c = velocity(cfg.n);
    let op0 = first_op(w, a.part);
    // Before anything else starts the pool.
    let pool_cpu = if w.one_worker() {
        Some(sys::one_worker_pool()?)
    } else {
        None
    };
    let mut tracer = Tracer::new(t_main, 0);
    if a.trace {
        crate::layers::probe_all(w, a.seed, &a.dir, &mut tracer)?;
    }

    let window = Duration::from_secs_f64(a.seconds);
    let logs: Vec<ClientLog>;
    let setup_s;
    let r0: OpResult;
    let (cpu_s, peak_rss_mb, wall_s, warm_failed);
    let (config, strategy, budget, in_flight, jit_groups);
    let pool_threads = default_pool().size();
    let steal0 = sys::steal_seconds();

    if w == Workload::ServedSmall {
        let (daemon, compiled, first, secs) =
            start_daemon(w, a.seed, op0, &a.dir.join("work.sock"))?;
        (r0, setup_s) = (first, secs);
        let fp = compiled.fingerprint.clone();
        let pid = daemon.pid().to_string();
        emit_setup_peak(&pid);
        let mut conn = daemon.connect()?;
        warm_failed = warm_up(w, a.seed, op0, |batch| {
            served::roundtrip(&mut conn, &served::gradient_request(&fp, batch), &cfg)
        });
        drop(conn);
        let cpu0 = sys::cpu_seconds_self() + daemon_cpu(&daemon)?;
        let start = Instant::now();
        let deadline = start + window;
        logs = std::thread::scope(|s| {
            let handles: Vec<_> = (0..w.clients())
                .map(|k| {
                    let (daemon, fp, cfg) = (&daemon, &fp, &cfg);
                    s.spawn(move || {
                        let mut conn = daemon.connect();
                        closed_loop(
                            w,
                            a.seed,
                            op0.client + k,
                            k > 0,
                            a.trace,
                            t_main,
                            deadline,
                            |batch| {
                                let client = conn.as_mut().map_err(|e| e.clone())?;
                                let out = served::roundtrip(
                                    client,
                                    &served::gradient_request(fp, batch),
                                    cfg,
                                );
                                if out.as_ref().is_err_and(|e| e.starts_with("transport")) {
                                    conn = daemon.connect();
                                }
                                out
                            },
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        wall_s = logs
            .iter()
            .map(|l| l.end)
            .max()
            .unwrap_or(start)
            .duration_since(start)
            .as_secs_f64();
        cpu_s = sys::cpu_seconds_self() + daemon_cpu(&daemon)? - cpu0;
        peak_rss_mb = sys::status_mb(&pid, "VmHWM").ok_or("daemon VmHWM unreadable")?;
        daemon.shutdown()?;
        config = compiled.config.unwrap_or_default();
        strategy = "engine-chosen (single shot)".to_string();
        budget = compiled.budget.unwrap_or(0);
        in_flight = 1;
        jit_groups = jit_artifacts().to_string();
    } else {
        r0 = inproc_op(w, &cfg, &c, &op_inputs(w, a.seed, op0));
        setup_s = t_main.elapsed().as_secs_f64();
        jit_groups = jit_artifacts().to_string();
        emit_setup_peak("self");
        // Set-up is over (its `rustc` builds could use every CPU): the
        // loop runs on the worker's CPU.
        if let Some(cpu) = pool_cpu {
            sys::pin_self(cpu)?;
            emit("info.pinned_cpu", cpu);
        }
        warm_failed = warm_up(w, a.seed, op0, |batch| Ok(inproc_op(w, &cfg, &c, batch)));

        let cpu0 = sys::cpu_seconds_self();
        let start = Instant::now();
        let log = closed_loop(
            w,
            a.seed,
            op0.client,
            false,
            a.trace,
            t_main,
            start + window,
            |batch| Ok(std::hint::black_box(inproc_op(w, &cfg, &c, batch))),
        );
        wall_s = log.end.duration_since(start).as_secs_f64();
        cpu_s = sys::cpu_seconds_self() - cpu0;
        peak_rss_mb = sys::status_mb("self", "VmHWM").ok_or("VmHWM unreadable")?;
        logs = vec![log];

        // Provenance from a warm plan: the same tune-cache entry the
        // loop ran under.
        let plan = BatchPlan::new(&cfg, &c, &BatchOptions::default(), default_pool());
        config = plan.tuned().describe();
        let s = plan.strategy_for(w.shots());
        strategy = format!("{s:?}");
        budget = plan.budget();
        in_flight = match s {
            perforad_pde::BatchStrategy::ShotParallel => w.shots().min(pool_threads),
            perforad_pde::BatchStrategy::GridParallel => 1,
        };
    }

    // ---- correctness gate (after the timed section) ----
    let mut items = items_of("first", &Some((op0, r0.clone())), None);
    for log in &logs {
        items.extend(items_of("first", &log.first, None));
        items.extend(items_of("last", &log.last, None));
    }
    let mut pick = stream(a.seed, &[SAMPLE_STREAM, a.part as u64]);
    let sampled = &logs[pick.below(logs.len() as u64) as usize];
    let sample_shot = pick.below(w.shots() as u64) as usize;
    items.extend(items_of("sample", &sampled.sample, Some(sample_shot)));
    let verdict = check::verify(w, a.seed, items, sys::nproc().min(2));

    let attempted: u64 = 1 + WARMUP_OPS + logs.iter().map(|l| l.attempted).sum::<u64>();
    let transport_failed: u64 = logs.iter().map(|l| l.failed).sum();
    let failed = transport_failed + warm_failed + verdict.bad_ops.len() as u64;
    for l in &logs {
        for e in &l.errors {
            eprintln!("perfbench: client {} failed op: {e}", l.client);
        }
    }
    for m in &verdict.mismatches {
        eprintln!("perfbench: MISMATCH against the interpreter reference: {m}");
    }

    let shots: u64 = logs.iter().map(|l| l.shots).sum();
    let untraced: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.untraced_ms.iter().copied())
        .collect();
    let traced: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.traced_ms.iter().copied())
        .collect();
    if untraced.is_empty() || shots == 0 {
        return Err("no operation completed in the measured window".to_string());
    }

    let mut correct = verdict.bad_ops.is_empty() && verdict.selfcheck_caught;
    emit("attempted", attempted);
    emit("failed", failed);
    emit("info.checked_shots", verdict.checked);
    emit(
        "info.selfcheck_flipped_bit_caught",
        verdict.selfcheck_caught,
    );
    emit("info.failed_frac", failed as f64 / attempted as f64);
    emit("info.tuned_config", config);
    emit("info.batch_strategy", strategy);
    emit("info.ckpt_budget", budget);
    emit("info.jit_groups_compiled", jit_groups);
    emit("info.threads", pool_threads);
    if let (Some(a), Some(b)) = (steal0, sys::steal_seconds()) {
        emit("info.cpu_steal_s", format!("{:.2}", b - a));
    }
    emit(
        "info.working_set_bytes_computed",
        working_set_bytes(w, budget, in_flight),
    );

    if a.trace {
        for log in logs {
            tracer.absorb(log.tracer);
        }
        let roll = spans::rollup(tracer.spans());
        if roll.overfull_roots > 0 {
            eprintln!(
                "perfbench: {} root spans have more self time than wall time",
                roll.overfull_roots
            );
            correct = false;
        }
        if traced.is_empty() {
            return Err("no traced operation completed in the measured window".to_string());
        }
        let overhead = sys::median(&traced) / sys::median(&untraced) - 1.0;
        emit("metric.trace.overhead_frac", overhead);
        emit("info.trace_roots", roll.roots);
        for (layer, (ms, count)) in &roll.by_layer {
            emit(
                &format!("info.self_ms.{layer}"),
                format!("{ms:.3} over {count} spans"),
            );
        }
        if let Some(path) = &a.trace_out {
            let run_id = stream(a.seed, &[std::process::id() as u64, sys::nanos_now()]).next_u64();
            let json = spans::to_json(run_id, w.name(), tracer.spans(), &roll);
            std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
            emit("info.trace_file", path.display());
        }
    } else {
        // Raw figures: the parent pools them over the run's processes.
        let ms: Vec<String> = untraced.iter().map(f64::to_string).collect();
        emit("latency_ms", ms.join(","));
        emit("shots", shots);
        emit("wall_s", wall_s);
        emit("cpu_s", cpu_s);
        emit("peak_rss_mb", peak_rss_mb);
        emit("setup_s", setup_s);
    }
    emit("correct", correct);
    Ok(())
}

/// The peak RSS reached by the end of set-up, for telling a set-up peak
/// from a steady-state one.
fn emit_setup_peak(pid: &str) {
    if let Some(mb) = sys::status_mb(pid, "VmHWM") {
        emit("info.peak_rss_after_setup_mb", format!("{mb:.1}"));
    }
}

fn daemon_cpu(d: &Daemon) -> Result<f64, String> {
    sys::cpu_seconds_of(d.pid()).ok_or_else(|| "daemon CPU time unreadable".to_string())
}
