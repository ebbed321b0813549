//! Executor micro-bench with machine-readable output and a regression
//! gate: times the adjoint sweep of each paper kernel under the per-point
//! interpreter, the register-IR row executor, the fused + tiled schedule,
//! the *JIT-compiled* fused schedule (`perforad-jit`'s native lowering;
//! the series is skipped — and so exempt from the gate — when the host
//! has neither a toolchain nor cached artifacts), and the *autotuned*
//! schedule (`perforad-tune` closing the model→schedule loop), writes
//! `BENCH_exec.json`, then — when a baseline file exists — diffs against
//! it and exits nonzero on regressions.
//!
//! The gate compares **normalized** series (each series divided by the
//! same run's `interpreter_serial` for that case): what is gated is
//! "rows/fused/tuned lost their relative win", not wall-clock noise.
//! Normalization removes absolute machine speed but *not*
//! microarchitecture — relative wins themselves vary across CPUs (the
//! autotuner's whole premise) — so re-record `BENCH_baseline.json` on
//! the machine class the gate runs on (CI: the pinned sizes/threads in
//! `.github/workflows/ci.yml`) whenever that class changes, and loosen
//! `PERFORAD_BENCH_GATE_TOL` if a runner fleet is heterogeneous. Series
//! faster than a floor (µs-scale smoke runs) are exempt — they are
//! timing noise, not signal.
//!
//! A `seismic_long` case rides along: a checkpointed time loop ≥4× the
//! example sweep, timing the dense `gradient_store_all` against the
//! bounded-memory `gradient_checkpointed` and reporting the
//! checkpointing profile (`peak_mem_bytes`, `recompute_ratio`,
//! `ckpt_budget`) in the JSON. Its gate reference is its own
//! `storeall_gradient` series.
//!
//! A `seismic_step` case times one step of the seismic time loop at the
//! wave size: `interpreter_serial` (the per-point primal, its gate
//! reference), `primal_step` (the driver's in-place row `Stepper`) and
//! `adjoint_step` (the tuned adjoint schedule), and reports
//! `adjoint_primal_ratio`.
//!
//! A `seismic_batch` case times the batched multi-shot gradient
//! (`gradient_batch_with`: one compile/tune, shots dispatched under the
//! perf-model-chosen strategy) against N sequential `gradient` calls on
//! the same pool, reporting `shots_per_sec`, `batch_speedup`, the chosen
//! `batch_strategy`, and `request_latency_ns` (per-shot latency
//! percentiles — p50/p95/p99/max in the same histogram shape the serve
//! daemon exports); the two are asserted bitwise-identical in-bench, and
//! its gate reference is its own `sequential_gradient` series.
//!
//! Knobs: `PERFORAD_N` (wave grid edge, default 48), `PERFORAD_N_BURGERS`
//! (cells, default 2^18), `PERFORAD_SEISMIC_N` / `PERFORAD_SEISMIC_STEPS`
//! (seismic sweep, default 20 / 48), `PERFORAD_SHOTS` /
//! `PERFORAD_BATCH_N` / `PERFORAD_BATCH_STEPS` (batched survey, default
//! 8 / 12 / 24), `PERFORAD_SAMPLES` (best-of reps,
//! default 5), `PERFORAD_THREADS` (pool size), `PERFORAD_BENCH_JSON`
//! (output path, default `BENCH_exec.json`), `PERFORAD_BENCH_BASELINE`
//! (baseline path, default `BENCH_baseline.json`; missing file skips the
//! gate), `PERFORAD_BENCH_GATE_TOL` (allowed relative regression, default
//! 0.25), `PERFORAD_BENCH_GATE_FLOOR_US` (min gated series time, default
//! 100). The jit series additionally honours `PERFORAD_JIT_CACHE`
//! (artifact directory) and `PERFORAD_JIT_RUSTC` (toolchain override).
//! With `PERFORAD_TRACE=1` the run records spans across every layer,
//! prints the `TraceReport` rollup, embeds it as `"trace_report"` in the
//! JSON, and writes a `chrome://tracing` file when `PERFORAD_TRACE_OUT`
//! names a path.

use perforad_bench::{env_size, json_escape, time_best, Case};
use perforad_exec::{
    compile_nest, run_parallel, run_parallel_rows, run_serial, run_serial_rows, Binding, Grid,
    ThreadPool, Workspace,
};
use perforad_jit::{prepare_schedule, JitOptions};
use perforad_pde::seismic::{
    adjoint_schedule_tuned, gradient_batch_with, gradient_checkpointed, gradient_store_all,
    gradient_with_pool, ricker, BatchOptions, SeismicConfig, ShotBatch, Stepper,
};
use perforad_pde::wave3d;
use perforad_sched::{compile_schedule, run_schedule, run_tuned, SchedOptions};
use perforad_tune::json::{self, Value};
use perforad_tune::{autotune_adjoint, Measure, TuneOptions};

struct Measured {
    name: &'static str,
    points: u64,
    series: Vec<(&'static str, f64)>,
    tuned_config: String,
    tuned_cache_hit: bool,
    /// Milliseconds of out-of-process `rustc` builds for the jit series
    /// (`None` when the series was skipped).
    jit_compile_ms: Option<f64>,
    /// True when every fused group came from the registry or the
    /// persistent artifact cache (zero compiles).
    jit_cache_hit: Option<bool>,
}

fn measure(mut case: Case, pool: &ThreadPool, reps: usize) -> Measured {
    let plan = case.adjoint_plan.clone();
    let fused = case.schedule.clone();
    let fused_rows = case.schedule_rows.clone();
    let bind = case.bind.clone();
    let adjoint = case.adjoint.clone();
    let ws = &mut case.ws;
    let mut series = vec![
        (
            "interpreter_serial",
            time_best(reps, || {
                run_serial(&plan, ws).unwrap();
            }),
        ),
        (
            "rows_serial",
            time_best(reps, || {
                run_serial_rows(&plan, ws).unwrap();
            }),
        ),
        (
            "interpreter_parallel",
            time_best(reps, || {
                run_parallel(&plan, ws, pool).unwrap();
            }),
        ),
        (
            "rows_parallel",
            time_best(reps, || {
                run_parallel_rows(&plan, ws, pool).unwrap();
            }),
        ),
        (
            "fused_interpreter",
            time_best(reps, || {
                run_schedule(&fused, ws, pool).unwrap();
            }),
        ),
        (
            "fused_rows",
            time_best(reps, || {
                run_schedule(&fused_rows, ws, pool).unwrap();
            }),
        ),
    ];
    // The native tier: compile the fused schedule's groups to machine
    // code (persistent artifact cache ⇒ the out-of-process build is paid
    // once per fingerprint) and time it like any other series. Skipped
    // cleanly when the host can neither build nor load native code.
    let mut jit_compile_ms = None;
    let mut jit_cache_hit = None;
    let sched_jit = compile_schedule(&adjoint, ws, &bind, &SchedOptions::default().with_jit())
        .expect("jit schedule compiles");
    match prepare_schedule(&sched_jit, &bind, &JitOptions::default()) {
        Ok(report) => {
            jit_compile_ms = Some(report.compile_ms);
            jit_cache_hit = Some(report.cache_hit());
            series.push((
                "jit",
                time_best(reps, || {
                    run_schedule(&sched_jit, ws, pool).unwrap();
                }),
            ));
        }
        Err(e) => {
            println!("jit series skipped ({e})");
        }
    }

    // The closed loop: autotune this adjoint (model prune + timing; the
    // tuning cache makes the second bench run skip the search) and time
    // the winner like any other series.
    let topts = TuneOptions::default()
        .with_top_k(6)
        .with_measure(Measure::Wall {
            samples: reps.max(1),
        });
    let (tuned_sched, report) =
        autotune_adjoint(&adjoint, ws, &bind, pool, &topts).expect("autotune");
    series.push((
        "tuned",
        time_best(reps, || {
            run_tuned(&tuned_sched, &report.config, ws, pool).unwrap();
        }),
    ));
    Measured {
        name: case.name,
        points: plan.points(),
        series,
        tuned_config: report.config.describe(),
        tuned_cache_hit: report.cache_hit,
        jit_compile_ms,
        jit_cache_hit,
    }
}

/// The checkpointed seismic time loop, ≥4× the example's sweep length:
/// dense store-all gradient vs the bounded-memory checkpointed gradient
/// (tuner-chosen snapshot budget, persisted via the tuning cache like
/// every other tuned series).
struct SeismicMeasured {
    n: usize,
    steps: usize,
    storeall_s: f64,
    checkpointed_s: f64,
    /// Peak bytes of the checkpointed sweep: snapshot-store high-water
    /// mark plus the fixed working set (rolling adjoint window, stepper
    /// and adjoint workspaces) — the number the memory budget bounds.
    peak_mem_bytes: usize,
    dense_mem_bytes: usize,
    recompute_ratio: f64,
    budget: usize,
}

fn measure_seismic(n: usize, steps: usize, reps: usize) -> SeismicMeasured {
    let cfg = SeismicConfig { n, steps, d: 0.1 };
    let src = ricker(steps);
    let c0 = Grid::from_fn(&[n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64));
    let data = Grid::from_fn(&[n; 3], |ix| 1e-3 * ((ix[0] + ix[1] + ix[2]) as f64).sin());
    let mut dense = None;
    let storeall_s = time_best(reps, || {
        dense = Some(gradient_store_all(&cfg, &c0, &data, &src));
    });
    let mut last = None;
    let checkpointed_s = time_best(reps, || {
        last = Some(gradient_checkpointed(&cfg, &c0, &data, &src));
    });
    let (j_ck, g_ck, report) = last.expect("checkpointed gradient ran");
    // The two paths must agree bit for bit — a bench that silently
    // measured a wrong gradient would be worse than no bench.
    let (j_ref, g_ref) = dense.expect("store-all gradient ran");
    assert_eq!(j_ck.to_bits(), j_ref.to_bits(), "misfit drifted");
    assert!(
        g_ck.as_slice()
            .iter()
            .zip(g_ref.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "checkpointed gradient drifted from store-all"
    );
    let grid_bytes = 8 * n * n * n;
    SeismicMeasured {
        n,
        steps,
        storeall_s,
        checkpointed_s,
        // ~15 grids of fixed working set: 3 rolling λ, 2 cursor-state,
        // 4 stepper-workspace, 6 adjoint-workspace grids.
        peak_mem_bytes: report.peak_snapshot_bytes + 15 * grid_bytes,
        dense_mem_bytes: (steps + 1 + 3) * grid_bytes, // trajectory + 3-grid λ window
        recompute_ratio: report.recompute_ratio(),
        budget: report.budget,
    }
}

/// One time step of the seismic driver at the wave case's size: the
/// primal under the per-point interpreter (the gate reference — it
/// shares no code with the driver's fast path), the driver's in-place
/// row [`Stepper`], and the tuned adjoint schedule the reverse sweep
/// runs. Their ratio is the paper's adjoint-vs-primal runtime comparison.
struct StepMeasured {
    n: usize,
    points: u64,
    interpreter_s: f64,
    primal_s: f64,
    adjoint_s: f64,
}

fn measure_seismic_step(n: usize, pool: &ThreadPool, reps: usize) -> StepMeasured {
    let reps = reps.max(1);
    let cfg = SeismicConfig {
        n,
        steps: reps,
        d: 0.1,
    };
    let dims = [n; 3];
    let c0 = Grid::from_fn(&dims, |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64));
    let bind = Binding::new().size("n", n as i64).param("D", cfg.d);
    let mut pws = Workspace::new()
        .with("c", c0.clone())
        .with("u", Grid::zeros(&dims))
        .with(
            "u_1",
            Grid::from_fn(&dims, |ix| 1e-3 * (ix[0] as f64).sin()),
        )
        .with(
            "u_2",
            Grid::from_fn(&dims, |ix| 1e-3 * (ix[1] as f64).cos()),
        );
    let primal = compile_nest(&wave3d::nest(), &pws, &bind).expect("primal compiles");
    let interpreter_s = time_best(reps, || {
        run_serial(&primal, &mut pws).unwrap();
    });

    let mut stepper = Stepper::new(&cfg, &c0, &ricker(reps));
    let mut t = 0;
    let primal_s = time_best(reps, || {
        stepper.advance(t);
        t += 1;
    });

    let mut aws = Workspace::new().with("c", c0);
    for name in ["u_1", "u_b", "u_1_b", "u_2_b", "c_b"] {
        aws.insert(name, Grid::zeros(&dims));
    }
    let (schedule, tuned) = adjoint_schedule_tuned(&mut aws, &bind, pool, &TuneOptions::quick())
        .expect("adjoint tunes");
    *aws.grid_mut("u_1") = pws.grid("u_1").clone();
    *aws.grid_mut("u_b") = pws.grid("u_2").clone();
    let adjoint_s = time_best(reps, || {
        run_tuned(&schedule, &tuned, &mut aws, pool).unwrap();
    });
    StepMeasured {
        n,
        points: primal.points(),
        interpreter_s,
        primal_s,
        adjoint_s,
    }
}

/// The batched multi-shot gradient vs N sequential `gradient` calls on
/// the same pool: the batch pays the adjoint transform, the tune-cache
/// hit + schedule recompile, and workspace compilation once per survey
/// instead of once per shot, then dispatches shots under the perf-model's
/// chosen strategy. Outputs are asserted bitwise-identical in-bench.
struct BatchMeasured {
    n: usize,
    steps: usize,
    shots: usize,
    sequential_s: f64,
    batched_s: f64,
    strategy: String,
    /// Per-shot request latencies (one timed `gradient` call each) rolled
    /// into the same histogram shape the serve daemon exports — the bench
    /// counterpart of `serve.request_ns`.
    request_latency: perforad_obs::HistogramSnapshot,
}

fn measure_batch(
    n: usize,
    steps: usize,
    shots: usize,
    pool: &ThreadPool,
    reps: usize,
) -> BatchMeasured {
    let cfg = SeismicConfig { n, steps, d: 0.1 };
    let base = ricker(steps);
    let c0 = Grid::from_fn(&[n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64));
    let mut batch = ShotBatch::new();
    for k in 0..shots {
        let scale = 1.0 + 0.2 * k as f64;
        batch.push(
            base.iter().map(|s| s * scale).collect(),
            Grid::from_fn(&[n; 3], |ix| {
                1e-3 * ((ix[0] + 2 * ix[1] + ix[2] + k) as f64).sin()
            }),
        );
    }
    let mut seq = None;
    let sequential_s = time_best(reps, || {
        seq = Some(
            (0..shots)
                .map(|k| gradient_with_pool(&cfg, &c0, &batch.observed[k], &batch.sources[k], pool))
                .collect::<Vec<_>>(),
        );
    });
    let mut batched = None;
    let batched_s = time_best(reps, || {
        batched = Some(gradient_batch_with(
            &cfg,
            &c0,
            &batch,
            &BatchOptions::default(),
            pool,
        ));
    });
    let batched = batched.expect("batched gradients ran");
    let seq = seq.expect("sequential gradients ran");
    // One more warm pass, timed per shot: the percentile view of what a
    // client of the gradient service would observe per request.
    let latencies: Vec<u64> = (0..shots)
        .map(|k| {
            let t0 = std::time::Instant::now();
            gradient_with_pool(&cfg, &c0, &batch.observed[k], &batch.sources[k], pool);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    let request_latency = perforad_obs::HistogramSnapshot::from_values(&latencies);
    for (k, (j, g)) in seq.iter().enumerate() {
        assert_eq!(
            batched.misfits[k].to_bits(),
            j.to_bits(),
            "shot {k}: batched misfit drifted"
        );
        assert!(
            batched.gradients[k]
                .as_slice()
                .iter()
                .zip(g.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "shot {k}: batched gradient drifted from sequential"
        );
    }
    BatchMeasured {
        n,
        steps,
        shots,
        sequential_s,
        batched_s,
        strategy: format!("{:?}", batched.strategy),
        request_latency,
    }
}

/// `(case, label, seconds)` triples parsed from a bench JSON document.
fn flatten(doc: &Value) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let Some(cases) = doc.get("cases").and_then(Value::as_array) else {
        return out;
    };
    for case in cases {
        let (Some(name), Some(series)) = (
            case.get("name").and_then(Value::as_str),
            case.get("series").and_then(Value::as_array),
        ) else {
            continue;
        };
        for s in series {
            if let (Some(label), Some(secs)) = (
                s.get("label").and_then(Value::as_str),
                s.get("seconds").and_then(Value::as_f64),
            ) {
                out.push((name.to_string(), label.to_string(), secs));
            }
        }
    }
    out
}

fn lookup(series: &[(String, String, f64)], case: &str, label: &str) -> Option<f64> {
    series
        .iter()
        .find(|(c, l, _)| c == case && l == label)
        .map(|&(_, _, s)| s)
}

/// Diff current against baseline; returns human-readable regression lines.
fn gate(
    current: &[(String, String, f64)],
    baseline: &[(String, String, f64)],
    tol: f64,
    floor_s: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for (case, label, secs) in current {
        // Each case normalizes against its own reference series: the
        // serial interpreter for the kernel cases, the dense store-all
        // gradient for the seismic time loop, the sequential per-shot
        // loop for the batched survey.
        let reference = [
            "interpreter_serial",
            "storeall_gradient",
            "sequential_gradient",
        ]
        .into_iter()
        .find(|r| lookup(current, case, r).is_some())
        .unwrap_or("interpreter_serial");
        if label == reference {
            continue;
        }
        let (Some(cur_ref), Some(base_ref), Some(base_secs)) = (
            lookup(current, case, reference),
            lookup(baseline, case, reference),
            lookup(baseline, case, label),
        ) else {
            continue; // new case/series: nothing to regress against
        };
        if *secs < floor_s || cur_ref <= 0.0 || base_ref <= 0.0 || base_secs <= 0.0 {
            continue;
        }
        let cur_norm = secs / cur_ref;
        let base_norm = base_secs / base_ref;
        if cur_norm > base_norm * (1.0 + tol) {
            regressions.push(format!(
                "{case}/{label}: {:.3}x of {reference}, baseline {:.3}x \
                 (+{:.0}% > {:.0}% allowed)",
                cur_norm,
                base_norm,
                (cur_norm / base_norm - 1.0) * 100.0,
                tol * 100.0
            ));
        }
    }
    regressions
}

fn main() {
    let n = env_size("PERFORAD_N", 48);
    let nb = env_size("PERFORAD_N_BURGERS", 1 << 18);
    // The seismic time loop: ≥4× the 12-step example sweep by default.
    let sn = env_size("PERFORAD_SEISMIC_N", 20);
    let ssteps = env_size("PERFORAD_SEISMIC_STEPS", 48);
    // The batched survey: small shots whose per-call setup (adjoint
    // transform + tune-cache hit + recompile) dominates — the regime the
    // batch API amortizes.
    let shots = env_size("PERFORAD_SHOTS", 8);
    let bn = env_size("PERFORAD_BATCH_N", 12);
    let bsteps = env_size("PERFORAD_BATCH_STEPS", 24);
    let reps = env_size("PERFORAD_SAMPLES", 5);
    let threads = env_size(
        "PERFORAD_THREADS",
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(2),
    );
    // A bench-scale seismic sweep fits comfortably in host RAM, where
    // the tuner would (correctly) pick store-all and measure nothing
    // interesting. Model the memory-constrained regime the subsystem
    // exists for: allow snapshots a quarter of the dense trajectory, so
    // the tuner must pick a real checkpoint schedule. An operator-set
    // `PERFORAD_MEM_BUDGET_BYTES` wins; set here, before any worker
    // thread exists (setenv after threads spawn is unsound).
    if std::env::var_os("PERFORAD_MEM_BUDGET_BYTES").is_none() {
        let dense = (ssteps + 1) * 2 * 8 * sn * sn * sn;
        std::env::set_var("PERFORAD_MEM_BUDGET_BYTES", (dense / 4).to_string());
    }
    let pool = ThreadPool::new(threads);

    let cases = vec![
        measure(Case::wave(n), &pool, reps),
        measure(Case::burgers(nb), &pool, reps),
    ];

    let mut case_json = Vec::new();
    for m in &cases {
        println!(
            "\n## {} adjoint ({} points, {} threads)",
            m.name, m.points, threads
        );
        for (label, secs) in &m.series {
            println!("{label:<24} {secs:>12.6} s");
        }
        println!(
            "tuned config: {}{}",
            m.tuned_config,
            if m.tuned_cache_hit {
                " [cache hit]"
            } else {
                ""
            }
        );
        let by_label = |label: &str| {
            m.series
                .iter()
                .find(|(l, _)| *l == label)
                .map(|&(_, s)| s)
                .expect("series label present")
        };
        let interp = by_label("interpreter_serial");
        let rows = by_label("rows_serial");
        println!(
            "rows speedup vs interpreter (serial): {:.2}x",
            interp / rows
        );
        let maybe_jit = m.series.iter().find(|(l, _)| *l == "jit").map(|&(_, s)| s);
        if let (Some(jit), Some(ms), Some(hit)) = (maybe_jit, m.jit_compile_ms, m.jit_cache_hit) {
            let fused_rows = by_label("fused_rows");
            println!("jit speedup vs fused rows: {:.2}x", fused_rows / jit);
            println!(
                "jit artifacts: {} ({ms:.0} ms compiling)",
                if hit { "[cache hit]" } else { "compiled" }
            );
        }
        let series: Vec<String> = m
            .series
            .iter()
            .map(|(l, s)| format!("{{\"label\":{},\"seconds\":{s}}}", json_escape(l)))
            .collect();
        let jit_json = match (m.jit_compile_ms, m.jit_cache_hit) {
            (Some(ms), Some(hit)) => {
                format!(",\"jit_compile_ms\":{ms},\"jit_cache_hit\":{hit}")
            }
            _ => String::new(),
        };
        case_json.push(format!(
            "{{\"name\":{},\"points\":{},\"series\":[{}],\"rows_speedup_serial\":{}{jit_json},\
             \"tuned_config\":{},\"tuned_cache_hit\":{}}}",
            json_escape(m.name),
            m.points,
            series.join(","),
            interp / rows,
            json_escape(&m.tuned_config),
            m.tuned_cache_hit
        ));
    }
    // The checkpointed seismic time loop (the two gradient paths are
    // asserted bitwise-identical inside the measurement).
    let seismic = measure_seismic(sn, ssteps, reps.min(3));
    println!(
        "\n## seismic_long gradient ({}³ grid, {} steps, tuned ckpt budget {})",
        seismic.n, seismic.steps, seismic.budget
    );
    println!("{:<24} {:>12.6} s", "storeall_gradient", seismic.storeall_s);
    println!(
        "{:<24} {:>12.6} s",
        "checkpointed_gradient", seismic.checkpointed_s
    );
    println!(
        "checkpointed peak mem: {:.1} MiB vs {:.1} MiB dense ({:.1}x less), \
         recompute ratio {:.2}",
        seismic.peak_mem_bytes as f64 / (1 << 20) as f64,
        seismic.dense_mem_bytes as f64 / (1 << 20) as f64,
        seismic.dense_mem_bytes as f64 / seismic.peak_mem_bytes as f64,
        seismic.recompute_ratio
    );
    case_json.push(format!(
        "{{\"name\":\"seismic_long\",\"points\":{},\"series\":[\
         {{\"label\":\"storeall_gradient\",\"seconds\":{}}},\
         {{\"label\":\"checkpointed_gradient\",\"seconds\":{}}}],\
         \"peak_mem_bytes\":{},\"dense_mem_bytes\":{},\
         \"recompute_ratio\":{},\"ckpt_budget\":{}}}",
        (seismic.n * seismic.n * seismic.n) as u64 * seismic.steps as u64,
        seismic.storeall_s,
        seismic.checkpointed_s,
        seismic.peak_mem_bytes,
        seismic.dense_mem_bytes,
        seismic.recompute_ratio,
        seismic.budget
    ));

    // One seismic time step: interpreter primal, driver primal, adjoint.
    let st = measure_seismic_step(n, &pool, reps);
    println!("\n## seismic_step ({}³ grid, {} threads)", st.n, threads);
    println!("{:<24} {:>12.6} s", "interpreter_serial", st.interpreter_s);
    println!("{:<24} {:>12.6} s", "primal_step", st.primal_s);
    println!("{:<24} {:>12.6} s", "adjoint_step", st.adjoint_s);
    println!(
        "adjoint/primal ratio: {:.2} (primal {:.2}x faster than the interpreter)",
        st.adjoint_s / st.primal_s,
        st.interpreter_s / st.primal_s
    );
    case_json.push(format!(
        "{{\"name\":\"seismic_step\",\"points\":{},\"series\":[\
         {{\"label\":\"interpreter_serial\",\"seconds\":{}}},\
         {{\"label\":\"primal_step\",\"seconds\":{}}},\
         {{\"label\":\"adjoint_step\",\"seconds\":{}}}],\
         \"adjoint_primal_ratio\":{}}}",
        st.points,
        st.interpreter_s,
        st.primal_s,
        st.adjoint_s,
        st.adjoint_s / st.primal_s
    ));

    // The batched multi-shot survey (bitwise-asserted against the
    // sequential per-shot loop inside the measurement).
    let bm = measure_batch(bn, bsteps, shots, &pool, reps.min(3));
    println!(
        "\n## seismic_batch gradients ({} shots, {}³ grid, {} steps, {} threads)",
        bm.shots, bm.n, bm.steps, threads
    );
    println!("{:<24} {:>12.6} s", "sequential_gradient", bm.sequential_s);
    println!("{:<24} {:>12.6} s", "batched_gradient", bm.batched_s);
    println!(
        "batched: {:.2}x sequential, {:.1} shots/s (strategy {})",
        bm.sequential_s / bm.batched_s,
        bm.shots as f64 / bm.batched_s,
        bm.strategy
    );
    println!(
        "per-request latency: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        bm.request_latency.p50 as f64 / 1e6,
        bm.request_latency.p95 as f64 / 1e6,
        bm.request_latency.p99 as f64 / 1e6,
        bm.request_latency.max as f64 / 1e6,
    );
    case_json.push(format!(
        "{{\"name\":\"seismic_batch\",\"points\":{},\"series\":[\
         {{\"label\":\"sequential_gradient\",\"seconds\":{}}},\
         {{\"label\":\"batched_gradient\",\"seconds\":{}}}],\
         \"shots_per_sec\":{},\"batch_speedup\":{},\"batch_strategy\":{},\
         \"request_latency_ns\":{}}}",
        (bm.n * bm.n * bm.n) as u64 * bm.steps as u64 * bm.shots as u64,
        bm.sequential_s,
        bm.batched_s,
        bm.shots as f64 / bm.batched_s,
        bm.sequential_s / bm.batched_s,
        json_escape(&bm.strategy),
        bm.request_latency.to_json()
    ));

    // The observability rollup: when recording is on (PERFORAD_TRACE=1)
    // the whole run — tuner search, JIT builds, checkpointed sweeps,
    // parallel regions — has been recording spans. Summarize them into
    // the payload, and export the raw Chrome trace when
    // PERFORAD_TRACE_OUT names a path.
    let trace_json = if perforad_obs::enabled() {
        let events = perforad_obs::collect_events();
        let report = perforad_obs::TraceReport::build(&events, 10);
        println!("\n{report}");
        match perforad_obs::write_trace_if_configured(&events) {
            Ok(Some(p)) => println!("wrote Chrome trace: {}", p.display()),
            Ok(None) => {}
            Err(e) => eprintln!("Chrome trace export failed: {e}"),
        }
        format!(",\"trace_report\":{}", report.to_json())
    } else {
        String::new()
    };

    let payload = format!(
        "{{\"bench\":\"exec_lowering\",\"threads\":{threads},\"samples\":{reps},\
         \"wave_n\":{n},\"burgers_n\":{nb},\"seismic_n\":{sn},\"seismic_steps\":{ssteps},\
         \"shots\":{shots},\"batch_n\":{bn},\"batch_steps\":{bsteps},\
         \"cases\":[{}]{trace_json}}}",
        case_json.join(",")
    );
    let path =
        std::env::var("PERFORAD_BENCH_JSON").unwrap_or_else(|_| "BENCH_exec.json".to_string());
    std::fs::write(&path, &payload).expect("write bench JSON");
    println!("\nwrote {path}");

    // Regression gate against the committed baseline.
    let baseline_path = std::env::var("PERFORAD_BENCH_BASELINE")
        .unwrap_or_else(|_| "BENCH_baseline.json".to_string());
    let Ok(baseline_text) = std::fs::read_to_string(&baseline_path) else {
        println!("no baseline at {baseline_path}; gate skipped");
        return;
    };
    let baseline = json::parse(&baseline_text)
        .unwrap_or_else(|e| panic!("baseline {baseline_path} is not valid JSON: {e}"));
    let current = json::parse(&payload).expect("own payload parses");
    // Normalized ratios only compare within one problem shape: a run at
    // other sizes (or another thread count) measures different physics.
    for knob in [
        "wave_n",
        "burgers_n",
        "seismic_n",
        "seismic_steps",
        "shots",
        "batch_n",
        "batch_steps",
        "threads",
    ] {
        let (b, c) = (
            baseline.get(knob).and_then(Value::as_i64),
            current.get(knob).and_then(Value::as_i64),
        );
        if b != c {
            println!(
                "baseline {baseline_path} was recorded at {knob}={b:?}, this run at {c:?}; \
                 gate skipped"
            );
            return;
        }
    }
    let tol = std::env::var("PERFORAD_BENCH_GATE_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let floor_s = env_size("PERFORAD_BENCH_GATE_FLOOR_US", 100) as f64 * 1e-6;
    let regressions = gate(&flatten(&current), &flatten(&baseline), tol, floor_s);
    if regressions.is_empty() {
        println!(
            "bench gate vs {baseline_path}: OK (tol {:.0}%)",
            tol * 100.0
        );
    } else {
        eprintln!("\nbench gate vs {baseline_path}: REGRESSIONS");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}
