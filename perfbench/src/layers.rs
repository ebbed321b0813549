//! Per-layer probes for the traced run: one call into each layer's public
//! function at the workload's shapes, each under a `bench.probe` root span
//! with a child span named `<layer>.<call>`. Every per-layer metric is the
//! median of its child spans' durations (or an exact count).

use crate::run::emit;
use crate::served::{self, Daemon};
use crate::spans::Tracer;
use crate::sys::median;
use crate::workload::{op_inputs, shot_inputs, stream, velocity, OpId, Workload};
use perforad_ckpt::{checkpointed_adjoint_plan, CheckpointPlan, MemStore, Snapshot};
use perforad_core::{Adjoint, AdjointOptions};
use perforad_exec::{default_pool, Binding, Grid, Workspace};
use perforad_jit::{prepare_schedule, JitOptions};
use perforad_pde::seismic::{self, BatchOptions, BatchPlan, SnapshotBackend, WaveState};
use perforad_pde::{wave3d, BatchStrategy, CKPT_THRESHOLD_STEPS};
use perforad_sched::{compile_schedule, run_tuned, SchedOptions, TunedConfig};
use perforad_serve::{CompileRequest, Engine, GradientReply, Reply, Request};
use perforad_tune::{autotune_adjoint, cache::memory_clear, TimeLoop, TuneOptions, TuneReport};
use std::hint::black_box;
use std::path::Path;

/// Probe inputs use a client id no workload operation uses.
const PROBE_CLIENT: usize = 1_000;

/// Time `f` under `bench.probe` → `name`; returns `f`'s result.
fn call<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    tr.span("bench.probe", |tr| tr.span(name, |_| black_box(f())))
}

fn median_ms(tr: &Tracer, name: &str) -> f64 {
    median(&tr.durations_ms(name))
}

fn adjoint() -> Adjoint {
    wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("c-active wave adjoint transforms")
}

/// The reverse-sweep workspace the seismic driver builds.
fn sweep_workspace(n: usize, c: &Grid) -> Workspace {
    let dims = [n, n, n];
    let mut ws = Workspace::new();
    ws.insert("c", c.clone());
    for name in ["u_1", "u_b", "u_1_b", "u_2_b", "c_b"] {
        ws.insert(name, Grid::zeros(&dims));
    }
    ws
}

/// The tuner options the driver uses at this shape: the quick preset,
/// plus the time-loop axis when the sweep is checkpointed.
fn driver_tune_options(w: Workload) -> TuneOptions {
    let cfg = w.cfg();
    let mut topts = TuneOptions::quick();
    if cfg.steps >= CKPT_THRESHOLD_STEPS {
        let dims = [cfg.n, cfg.n, cfg.n];
        let state_bytes = (Grid::zeros(&dims), Grid::zeros(&dims)).mem_bytes();
        topts.time_loop = Some(TimeLoop::new(cfg.steps, state_bytes));
    }
    topts
}

/// The model's prediction for the winning configuration: an exact match
/// in the ranking, else (when refinement moved the tile off the palette)
/// the same configuration at the nearest palette tile.
fn winner_prediction(report: &TuneReport) -> Option<(f64, &'static str)> {
    let mut winner = report.config.clone();
    winner.checkpoint = None;
    if let Some((_, p)) = report.predictions.iter().find(|(c, _)| *c == winner) {
        return Some((*p, "exact"));
    }
    let tile_distance = |c: &TunedConfig| -> f64 {
        c.tile
            .iter()
            .zip(&winner.tile)
            .map(|(&a, &b)| ((a.max(1) as f64) / (b.max(1) as f64)).ln().abs())
            .sum()
    };
    report
        .predictions
        .iter()
        .filter(|(c, _)| {
            TunedConfig {
                tile: winner.tile.clone(),
                ..c.clone()
            } == winner
        })
        .min_by(|a, b| tile_distance(&a.0).total_cmp(&tile_distance(&b.0)))
        .map(|(_, p)| (*p, "nearest palette tile"))
}

/// Run every probe at `w`'s shapes and emit the per-layer metrics.
pub fn probe_all(w: Workload, seed: u64, dir: &Path, tr: &mut Tracer) -> Result<(), String> {
    let cfg = w.cfg();
    let n = cfg.n;
    let c = velocity(n);
    let pool = default_pool();
    let bind = Binding::new().size("n", n as i64).param("D", cfg.d);
    let id = OpId {
        client: PROBE_CLIENT,
        op: 0,
    };
    let (source, observed) = shot_inputs(&cfg, seed, id, 0);

    // core: the adjoint transform every driver call repeats.
    for _ in 0..5 {
        call(tr, "core.adjoint_transform", adjoint);
    }
    emit(
        "metric.core.adjoint_transform_ms",
        median_ms(tr, "core.adjoint_transform"),
    );
    let adj = adjoint();
    let mut ws = sweep_workspace(n, &c);

    // jit: the fused JIT schedule against an empty artifact directory,
    // first thing in a fresh process (so nothing is registered yet).
    let jit_schedule = compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit())
        .map_err(|e| format!("jit probe schedule: {e}"))?;
    let jit_opts = JitOptions::default().with_cache_dir(dir.join("jit-probe"));
    let jit = call(tr, "jit.prepare_schedule", || {
        prepare_schedule(&jit_schedule, &bind, &jit_opts)
    });
    let groups_compiled = match jit {
        Ok(r) => r.compiled,
        Err(e) => {
            eprintln!("perfbench: JIT probe failed ({e}); reporting 0 groups compiled");
            0
        }
    };
    emit("metric.jit.build_ms", median_ms(tr, "jit.prepare_schedule"));
    emit("metric.jit.groups_compiled", groups_compiled);

    // tune: cold searches (in-memory cache cleared each time), then hits.
    let topts = driver_tune_options(w);
    let mut cold: Option<TuneReport> = None;
    for _ in 0..3 {
        memory_clear();
        let (_, report) = call(tr, "tune.search", || {
            autotune_adjoint(&adj, &mut ws, &bind, pool, &topts)
        })
        .map_err(|e| format!("tune search: {e}"))?;
        cold = Some(report);
    }
    let cold = cold.expect("three cold searches ran");
    emit("metric.tune.search_ms", median_ms(tr, "tune.search"));
    emit("metric.tune.candidates_timed", cold.timed + cold.refined);
    for _ in 0..5 {
        call(tr, "tune.hit", || {
            autotune_adjoint(&adj, &mut ws, &bind, pool, &topts)
        })
        .map_err(|e| format!("tune hit: {e}"))?;
    }
    emit("metric.tune.hit_ms", median_ms(tr, "tune.hit"));

    // sched: compiling the adjoint under the tuned configuration.
    let tuned_opts = SchedOptions::from_tuned(&cold.config);
    for _ in 0..5 {
        call(tr, "sched.compile_schedule", || {
            compile_schedule(&adj, &ws, &bind, &tuned_opts)
        })
        .map_err(|e| format!("compile_schedule: {e}"))?;
    }
    emit(
        "metric.sched.compile_ms",
        median_ms(tr, "sched.compile_schedule"),
    );

    // exec: one adjoint step on the driver's tuned schedule.
    let (schedule, tuned) = seismic::adjoint_schedule_tuned(&mut ws, &bind, pool, &topts)
        .map_err(|e| format!("adjoint_schedule_tuned: {e}"))?;
    let mut rng = stream(seed, &[PROBE_CLIENT as u64, 0xe7ec]);
    for name in ["u_1", "u_b"] {
        for v in ws.grid_mut(name).as_mut_slice() {
            *v = 1e-3 * (2.0 * rng.unit() - 1.0);
        }
    }
    run_tuned(&schedule, &tuned, &mut ws, pool).map_err(|e| format!("run_tuned: {e}"))?;
    for _ in 0..10 {
        call(tr, "exec.run_tuned", || {
            run_tuned(&schedule, &tuned, &mut ws, pool)
        })
        .map_err(|e| format!("run_tuned: {e}"))?;
    }
    let adjoint_step_ms = median_ms(tr, "exec.run_tuned");
    // Computed traffic: read c, u_1, u_b; write u_1_b, u_2_b, c_b.
    let bytes = 6.0 * crate::workload::grid_bytes(n) as f64;
    emit("metric.exec.adjoint_step_ms", adjoint_step_ms);
    emit(
        "metric.exec.adjoint_gb_per_s_computed",
        bytes / (adjoint_step_ms * 1e-3) / 1e9,
    );
    match winner_prediction(&cold) {
        Some((pred_s, how)) => {
            emit(
                "metric.tune.model_error_ratio",
                pred_s / (adjoint_step_ms * 1e-3),
            );
            emit("info.model_error_match", how);
        }
        None => return Err("tuned winner missing from the model ranking".to_string()),
    }

    // pde: the primal time loop, per step.
    for _ in 0..3 {
        call(tr, "pde.forward", || seismic::forward(&cfg, &c, &source));
    }
    let primal_step_ms = median_ms(tr, "pde.forward") / cfg.steps as f64;
    emit("metric.pde.primal_step_ms", primal_step_ms);
    emit(
        "metric.pde.adjoint_primal_ratio",
        adjoint_step_ms / primal_step_ms,
    );
    for _ in 0..5 {
        call(tr, "pde.batch_plan_new", || {
            BatchPlan::new(&cfg, &c, &BatchOptions::default(), pool);
        });
    }
    emit(
        "metric.pde.batch_setup_ms",
        median_ms(tr, "pde.batch_plan_new"),
    );

    // ckpt: the checkpointed driver's exact accounting at this shape, and
    // the snapshot driver alone with no-op step/back closures.
    let (_, _, report) = call(tr, "pde.gradient_checkpointed", || {
        seismic::gradient_checkpointed_with_pool(
            &cfg,
            &c,
            &observed,
            &source,
            None,
            &SnapshotBackend::Memory,
            pool,
        )
    });
    emit("metric.ckpt.recompute_ratio", report.recompute_ratio());
    emit(
        "metric.ckpt.peak_snapshot_mb",
        report.peak_snapshot_bytes as f64 / (1 << 20) as f64,
    );
    emit("metric.ckpt.budget", report.budget);
    let plan = CheckpointPlan::with_budget(cfg.steps, report.budget);
    let dims = [n, n, n];
    for _ in 0..5 {
        let s0: WaveState = (Grid::zeros(&dims), Grid::zeros(&dims));
        call(tr, "ckpt.driver", || {
            // The step closure only copies the state: the copy the real
            // stepper makes too, with no stencil work.
            checkpointed_adjoint_plan(
                &plan,
                s0,
                &mut MemStore::new(),
                &mut |s: &WaveState, _| s.clone(),
                &mut |_: &WaveState| {},
                &mut |_: &WaveState, _| {},
            )
        })
        .map_err(|e| format!("ckpt driver: {e}"))?;
    }
    emit("metric.ckpt.driver_ms", median_ms(tr, "ckpt.driver"));

    // perfmodel: the chosen batch strategy against both forced ones.
    let batch = op_inputs(
        w,
        seed,
        OpId {
            client: PROBE_CLIENT,
            op: 1,
        },
    );
    let mut forced = Vec::new();
    for (s, name) in [
        (BatchStrategy::ShotParallel, "pde.batch_run_shot_parallel"),
        (BatchStrategy::GridParallel, "pde.batch_run_grid_parallel"),
    ] {
        let opts = BatchOptions {
            strategy: Some(s),
            ..BatchOptions::default()
        };
        let plan = BatchPlan::new(&cfg, &c, &opts, pool);
        for _ in 0..2 {
            call(tr, name, || plan.run(&batch));
        }
        forced.push((s, median_ms(tr, name)));
    }
    let chosen = BatchPlan::new(&cfg, &c, &BatchOptions::default(), pool).strategy_for(w.shots());
    let best = forced.iter().map(|f| f.1).fold(f64::INFINITY, f64::min);
    let chosen_ms = forced
        .iter()
        .find(|f| f.0 == chosen)
        .map(|f| f.1)
        .expect("both forced");
    emit("metric.perfmodel.strategy_regret", chosen_ms / best);
    emit("info.chosen_batch_strategy", format!("{chosen:?}"));

    // serve: codec on this workload's payloads, the engine in-process,
    // and a daemon solo and under two clients.
    probe_serve(w, seed, dir, tr, &batch)
}

fn probe_serve(
    w: Workload,
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
    batch: &perforad_pde::ShotBatch,
) -> Result<(), String> {
    let cfg = w.cfg();
    let engine = Engine::new();
    let compile = Request::Compile(CompileRequest::Seismic {
        n: cfg.n,
        steps: cfg.steps,
        d: cfg.d,
        c: Some(velocity(cfg.n).as_slice().to_vec()),
        budget: None,
        checkpointed: None,
    });
    let fingerprint = match engine.handle(&compile) {
        Reply::Compiled(c) => c.fingerprint,
        other => return Err(format!("engine compile: {other:?}")),
    };
    let req = served::gradient_request(&fingerprint, batch);
    let mut reply = None;
    for _ in 0..3 {
        reply = Some(call(tr, "serve.engine_handle", || engine.handle(&req)));
    }
    let engine_ms = median_ms(tr, "serve.engine_handle");
    emit("metric.serve.engine_ms", engine_ms);
    let reply = match reply {
        Some(Reply::Gradient(g)) => Reply::Gradient(GradientReply { trace: None, ..g }),
        other => return Err(format!("engine gradient: {other:?}")),
    };

    let req_json = req.to_json();
    let reply_json = reply.to_json();
    for _ in 0..5 {
        call(tr, "serve.request_to_json", || req.to_json());
        call(tr, "serve.request_from_json", || {
            Request::from_json(&req_json)
        })?;
        call(tr, "serve.reply_to_json", || reply.to_json());
        call(tr, "serve.reply_from_json", || {
            Reply::from_json(&reply_json)
        })?;
    }
    emit(
        "metric.serve.request_encode_ms",
        median_ms(tr, "serve.request_to_json"),
    );
    emit(
        "metric.serve.request_decode_ms",
        median_ms(tr, "serve.request_from_json"),
    );
    emit(
        "metric.serve.reply_encode_ms",
        median_ms(tr, "serve.reply_to_json"),
    );
    emit(
        "metric.serve.reply_decode_ms",
        median_ms(tr, "serve.reply_from_json"),
    );
    // Two frames, each a 4-byte length prefix plus its JSON payload.
    emit(
        "metric.serve.frame_bytes",
        req_json.len() + reply_json.len() + 8,
    );

    // A daemon of its own: solo round trips, then two concurrent clients.
    let daemon = Daemon::spawn(w, &dir.join("probe.sock"))?;
    let mut client = daemon.connect()?;
    let fp = served::compile(&mut client, &cfg)?.fingerprint;
    let reqs: Vec<Request> = (0..13)
        .map(|op| {
            let b = op_inputs(
                w,
                seed,
                OpId {
                    client: PROBE_CLIENT + 1,
                    op,
                },
            );
            served::gradient_request(&fp, &b)
        })
        .collect();
    served::roundtrip(&mut client, &reqs[0], &cfg)?;
    for r in &reqs[1..5] {
        call(tr, "serve.roundtrip_solo", || {
            served::roundtrip(&mut client, r, &cfg)
        })?;
    }
    drop(client);
    let origin = tr.origin();
    let duo: Vec<Result<Tracer, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = [&reqs[5..9], &reqs[9..13]]
            .into_iter()
            .enumerate()
            .map(|(k, chunk)| {
                let (daemon, cfg) = (&daemon, &cfg);
                s.spawn(move || {
                    let mut t = Tracer::new(origin, 101 + k);
                    let mut client = daemon.connect()?;
                    for r in chunk {
                        call(&mut t, "serve.roundtrip_duo", || {
                            served::roundtrip(&mut client, r, cfg)
                        })?;
                    }
                    Ok(t)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("probe client panicked"))
            .collect()
    });
    daemon.shutdown()?;
    for t in duo {
        tr.absorb(t?);
    }
    let solo = median_ms(tr, "serve.roundtrip_solo");
    let duo = median_ms(tr, "serve.roundtrip_duo");
    emit("metric.serve.outside_engine_ms", solo - engine_ms);
    emit("metric.serve.queue_wait_ms", duo - solo);
    Ok(())
}
