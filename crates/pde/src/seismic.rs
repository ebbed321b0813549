//! Seismic-imaging-style gradient driver — the application motivating the
//! paper's wave test case (§1, §4.1).
//!
//! A point source injects a Ricker-like wavelet into the 3-D wave equation;
//! the misfit is `J = ½‖u_T − d‖²` against observed data. The gradient of
//! `J` with respect to the velocity model `c` is assembled by running the
//! PerforAD gather adjoint of the single-step stencil backwards through
//! time (with `c` active).
//!
//! The primal trajectory the nonlinear `∂F/∂c` term needs is *not*
//! materialized for long sweeps: [`gradient`] routes sweeps of
//! [`CKPT_THRESHOLD_STEPS`] or more through [`gradient_checkpointed`],
//! which streams the forward pass under a `perforad-ckpt`
//! [`CheckpointPlan`] — a snapshot budget chosen by the autotuner
//! (jointly with the stencil schedule, via `TuneOptions::with_time_loop`)
//! bounds live memory, and reverse segments are recomputed through the
//! same tuned fused/JIT schedule the short-sweep path uses. Both paths
//! are **bitwise-identical**: checkpointing changes where states come
//! from, never how steps execute.
//!
//! The primal time loop ([`Stepper`]) runs the wave nest compiled once
//! to the serial row lowering and steps in place, rotating its three
//! wavefields without a per-step allocation; the per-point interpreter
//! survives only as the test oracle it is checked against bit for bit.
//! Both reverse sweeps share one adjoint state, a 3-grid rolling window
//! over `λ_t`: the store-all sweep holds the trajectory plus that window,
//! the checkpointed sweep holds snapshots plus that window.
//!
//! Real surveys fire many shots against one velocity model:
//! [`gradient_batch`] (and [`BatchPlan`] for inversion loops) pays the
//! adjoint transform, autotune, and compilation **once** and dispatches
//! shots across a shared pool — whole shots per worker
//! ([`BatchStrategy::ShotParallel`]) or the tuned grid-parallel sweep
//! shot-by-shot ([`BatchStrategy::GridParallel`]), whichever the perf
//! model's batch term prices cheaper. Every shot's output is bitwise
//! the same as a standalone [`gradient`] call.

use crate::wave3d;
use perforad_ckpt::{
    checkpointed_adjoint_plan, CheckpointPlan, CkptError, CkptReport, DiskStore, FallbackStore,
    MemStore, Snapshot, SnapshotStore,
};
use perforad_core::{Adjoint, AdjointOptions, BoundaryStrategy};
use perforad_exec::{
    compile_nest, default_pool, run, Binding, ExecMode, Grid, Plan, ThreadPool, Workspace,
};
use perforad_sched::{
    compile_schedule, run_tuned, SchedOptions, Schedule, TunedConfig, TunedStrategy,
};
use perforad_symbolic::Symbol;
use perforad_tune::{
    autotune_adjoint, fingerprint_nests, host, pick_batch_strategy, profile, BatchShape,
    BatchStrategy, KernelProfile, Machine, TimeLoop, TuneError, TuneOptions,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Sweeps at least this long default to the bounded-memory checkpointed
/// path in [`gradient`]; shorter ones keep the dense store-all sweep
/// (whose trajectory is a handful of grids at most).
pub const CKPT_THRESHOLD_STEPS: usize = 64;

/// Problem configuration.
#[derive(Clone, Copy, Debug)]
pub struct SeismicConfig {
    /// Grid points per dimension.
    pub n: usize,
    /// Time steps.
    pub steps: usize,
    /// `(dt/dx)²`.
    pub d: f64,
}

impl SeismicConfig {
    fn source_index(&self) -> [usize; 3] {
        [self.n / 2, self.n / 2, self.n / 2]
    }
}

/// Ricker wavelet samples for `steps` time steps.
pub fn ricker(steps: usize) -> Vec<f64> {
    let f = 2.0 / steps as f64;
    (0..steps)
        .map(|t| {
            let arg = std::f64::consts::PI * f * (t as f64 - steps as f64 / 3.0);
            let a2 = arg * arg;
            (1.0 - 2.0 * a2) * (-a2).exp()
        })
        .collect()
}

/// The time-loop state between steps: `(u_{t−1}, u_t)` — all a wave step
/// needs, and all a snapshot has to hold.
pub type WaveState = (Grid, Grid);

/// The compiled primal time loop, shared by every forward pass in this
/// module (the dense [`forward`], the store-all sweep, the checkpointed
/// streaming pass and its recomputed segments), so replayed segments are
/// bitwise-identical to the first execution.
///
/// The wave nest is compiled once per stepper and runs under the serial
/// row lowering (`ExecMode::serial().rows()`), bitwise-identical to the
/// per-point interpreter, which survives only as the test oracle. The
/// state lives in the stepper's own workspace: [`Stepper::advance`]
/// writes `u_{t+1}` into a scratch grid and rotates `u_2 ← u_1 ← u` by
/// swapping storage, so a step neither allocates nor copies a grid.
/// The primal stays off the pool: shot-parallel workers run whole shots
/// on one pool thread, which cannot re-enter the pool, and pool-parallel
/// rows measured no faster than serial rows at n=48 on a 2-vCPU host.
#[derive(Clone)]
pub struct Stepper {
    plan: Plan,
    ws: Workspace,
    src: [usize; 3],
    source: Vec<f64>,
}

impl Stepper {
    /// Compile the wave step for `cfg` against velocity model `c`, with
    /// one `source` sample injected per step; starts at `u_{−1} = u_0 = 0`.
    pub fn new(cfg: &SeismicConfig, c: &Grid, source: &[f64]) -> Stepper {
        assert_eq!(source.len(), cfg.steps);
        let dims = [cfg.n, cfg.n, cfg.n];
        let nest = wave3d::nest();
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        let mut ws = Workspace::new();
        ws.insert("c", c.clone());
        ws.insert("u", Grid::zeros(&dims));
        ws.insert("u_1", Grid::zeros(&dims));
        ws.insert("u_2", Grid::zeros(&dims));
        let plan = compile_nest(&nest, &ws, &bind).expect("primal compiles");
        Stepper {
            plan,
            ws,
            src: cfg.source_index(),
            source: source.to_vec(),
        }
    }

    /// Swap in another shot's source trace; the compiled plan and the
    /// workspace are shot-independent, so a batch clones one prototype
    /// and re-targets it per shot instead of recompiling.
    fn set_source(&mut self, source: &[f64]) {
        assert_eq!(source.len(), self.source.len());
        self.source.clear();
        self.source.extend_from_slice(source);
    }

    /// Rewind to the zero initial state `u_{−1} = u_0 = 0`.
    fn reset(&mut self) {
        for name in ["u", "u_1", "u_2"] {
            self.ws.grid_mut(name).fill(0.0);
        }
    }

    /// Resume from `(u_{t−1}, u_t)`: copy it into the stepper's own
    /// buffers (no allocation).
    fn load(&mut self, state: &WaveState) {
        copy_into(self.ws.grid_mut("u_2"), &state.0);
        copy_into(self.ws.grid_mut("u_1"), &state.1);
    }

    /// Advance `(u_{t−1}, u_t)` to `(u_t, u_{t+1})` in place.
    pub fn advance(&mut self, t: usize) {
        let _span = perforad_obs::span!("seismic.step", "seismic", "t" => t as u64);
        run(&self.plan, &mut self.ws, ExecMode::serial().rows()).expect("primal step");
        let next = self.ws.grid_mut("u");
        let v = next.get(&self.src) + self.source[t];
        next.set(&self.src, v);
        // u_2 ← u_1 ← u; the retired u_{t−1} becomes the zeroed scratch.
        self.ws.swap("u_2", "u");
        self.ws.swap("u_1", "u_2");
        self.ws.grid_mut("u").fill(0.0);
    }

    /// `u_t`, the newest wavefield.
    fn current(&self) -> &Grid {
        self.ws.grid("u_1")
    }

    /// An owned copy of `(u_{t−1}, u_t)`.
    fn state(&self) -> WaveState {
        (self.ws.grid("u_2").clone(), self.ws.grid("u_1").clone())
    }

    /// Step from the zero state through every source sample, keeping
    /// one copy of each wavefield: the trajectory `u_0 .. u_steps`.
    fn trajectory(&mut self) -> Vec<Grid> {
        self.reset();
        let steps = self.source.len();
        let mut traj = Vec::with_capacity(steps + 1);
        traj.push(self.current().clone());
        for t in 0..steps {
            self.advance(t);
            traj.push(self.current().clone());
        }
        traj
    }
}

/// Run the primal time loop densely; returns the trajectory
/// `u_0 .. u_steps`. A verification/synthesis helper for short sweeps —
/// long-sweep gradients never materialize this vector (see
/// [`gradient_checkpointed`]).
pub fn forward(cfg: &SeismicConfig, c: &Grid, source: &[f64]) -> Vec<Grid> {
    let _span = perforad_obs::span!(
        "seismic.forward", "seismic", "steps" => cfg.steps as u64, "n" => cfg.n as u64
    );
    Stepper::new(cfg, c, source).trajectory()
}

/// `J = ½ ‖u − d‖²`.
pub fn misfit(u: &Grid, data: &Grid) -> f64 {
    let mut j = 0.0;
    for (a, b) in u.as_slice().iter().zip(data.as_slice()) {
        let r = a - b;
        j += 0.5 * r * r;
    }
    j
}

/// Autotuned schedule for the `c`-active single-step wave adjoint that
/// the reverse sweep of [`gradient`] drives: the two-stage tuner (model
/// prune + wall-clock timing on `pool`) searches
/// `Strategy×Lowering×TilePolicy×tile×fusion` once, and the tuning cache
/// makes repeated gradients (every seismic inversion iterates) skip the
/// search. Timing runs overwrite the adjoint/output grids in `ws`, so
/// tune before seeding real data — the sweep refills them each step.
pub fn adjoint_schedule_tuned(
    ws: &mut Workspace,
    bind: &Binding,
    pool: &ThreadPool,
    topts: &TuneOptions,
) -> Result<(Schedule, TunedConfig), TuneError> {
    let adj = wave_adjoint();
    let (schedule, report) = autotune_adjoint(&adj, ws, bind, pool, topts)?;
    Ok((schedule, report.config))
}

/// The c-active wave adjoint, counted in `seismic.adjoint_transforms` —
/// cache layers above (the serve daemon's warm path in particular) assert
/// zero re-transforms by diffing this counter.
fn wave_adjoint() -> Adjoint {
    perforad_obs::counter("seismic.adjoint_transforms").inc();
    wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("c-active wave adjoint transforms")
}

/// The adjoint workspace + tuned schedule every reverse sweep drives.
/// Tuning is best-effort: on failure the hand-picked fused row-executor
/// schedule of PR 2 keeps the gradient available. The pool is borrowed
/// from the caller (one process-wide [`default_pool`] for the zero-arg
/// entry points), not spawned per call — an inversion loop calling
/// [`gradient`] every iteration used to pay a full thread spawn/join
/// cycle each time.
#[derive(Clone)]
struct ReverseSweep<'p> {
    ws: Workspace,
    pool: &'p ThreadPool,
    schedule: Schedule,
    tuned: TunedConfig,
}

impl<'p> ReverseSweep<'p> {
    fn new(
        cfg: &SeismicConfig,
        c: &Grid,
        time_loop: Option<TimeLoop>,
        pool: &'p ThreadPool,
    ) -> ReverseSweep<'p> {
        let adj = wave_adjoint();
        Self::with_adjoint(cfg, c, time_loop, pool, &adj)
    }

    fn with_adjoint(
        cfg: &SeismicConfig,
        c: &Grid,
        time_loop: Option<TimeLoop>,
        pool: &'p ThreadPool,
        adj: &Adjoint,
    ) -> ReverseSweep<'p> {
        let _span = perforad_obs::span!("seismic.setup", "seismic", "n" => cfg.n as u64);
        let dims = [cfg.n, cfg.n, cfg.n];
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        let mut ws = Workspace::new();
        ws.insert("c", c.clone());
        ws.insert("u_1", Grid::zeros(&dims));
        ws.insert("u_b", Grid::zeros(&dims));
        ws.insert("u_1_b", Grid::zeros(&dims));
        ws.insert("u_2_b", Grid::zeros(&dims));
        ws.insert("c_b", Grid::zeros(&dims));
        let mut topts = TuneOptions::quick();
        topts.time_loop = time_loop;
        let (schedule, tuned) = match autotune_adjoint(adj, &mut ws, &bind, pool, &topts) {
            Ok((s, report)) => (s, report.config),
            Err(_) => {
                let s = compile_schedule(adj, &ws, &bind, &SchedOptions::default().with_rows())
                    .expect("adjoint schedules");
                let fallback = TunedConfig {
                    strategy: TunedStrategy::Parallel,
                    lowering: perforad_exec::Lowering::Rows,
                    threads: pool.size(),
                    ..TunedConfig::default()
                };
                (s, fallback)
            }
        };
        ReverseSweep {
            ws,
            pool,
            schedule,
            tuned,
        }
    }

    /// One adjoint step: consume `λ_{t+1}` with `u_1 = u_t` bound, leaving
    /// the `u_1_b`/`u_2_b`/`c_b` contributions in the workspace. Inputs
    /// are copied into the persistent workspace grids (no allocation).
    fn back(&mut self, u_t: &Grid, lambda_next: &Grid) {
        let _span = perforad_obs::span!("seismic.back", "seismic");
        copy_into(self.ws.grid_mut("u_1"), u_t);
        copy_into(self.ws.grid_mut("u_b"), lambda_next);
        self.ws.grid_mut("u_1_b").fill(0.0);
        self.ws.grid_mut("u_2_b").fill(0.0);
        self.ws.grid_mut("c_b").fill(0.0);
        run_tuned(&self.schedule, &self.tuned, &mut self.ws, self.pool).expect("adjoint step");
    }
}

/// Misfit and its gradient with respect to the velocity model `c`.
///
/// Sweeps of [`CKPT_THRESHOLD_STEPS`] or more run bounded-memory (the
/// checkpointed path, tuner-chosen snapshot budget, [`SnapshotBackend::Auto`]);
/// shorter sweeps keep the dense store-all reverse sweep. The two paths
/// are bitwise-identical — the reverse sweep drives the *autotuned*
/// scheduled adjoint either way, and every configuration the tuner can
/// select matches the serial interpreter reference bit for bit.
pub fn gradient(cfg: &SeismicConfig, c: &Grid, data: &Grid, source: &[f64]) -> (f64, Grid) {
    gradient_with_pool(cfg, c, data, source, default_pool())
}

/// [`gradient`] running on a caller-provided pool — inversion loops and
/// batch drivers keep one pool alive across calls instead of paying a
/// thread spawn/join cycle per gradient.
pub fn gradient_with_pool(
    cfg: &SeismicConfig,
    c: &Grid,
    data: &Grid,
    source: &[f64],
    pool: &ThreadPool,
) -> (f64, Grid) {
    if cfg.steps >= CKPT_THRESHOLD_STEPS {
        let (j, grad, _) = gradient_checkpointed_with_pool(
            cfg,
            c,
            data,
            source,
            None,
            &SnapshotBackend::Auto,
            pool,
        );
        (j, grad)
    } else {
        gradient_store_all_with_pool(cfg, c, data, source, pool)
    }
}

/// The dense reference path: materialize the full trajectory, then
/// reverse it through the 3-grid adjoint window. Memory grows linearly
/// with `steps` — use [`gradient_checkpointed`] (or plain [`gradient`],
/// which dispatches) for long sweeps.
pub fn gradient_store_all(
    cfg: &SeismicConfig,
    c: &Grid,
    data: &Grid,
    source: &[f64],
) -> (f64, Grid) {
    gradient_store_all_with_pool(cfg, c, data, source, default_pool())
}

/// [`gradient_store_all`] on a caller-provided pool.
pub fn gradient_store_all_with_pool(
    cfg: &SeismicConfig,
    c: &Grid,
    data: &Grid,
    source: &[f64],
    pool: &ThreadPool,
) -> (f64, Grid) {
    let _root = perforad_obs::span!(
        "seismic.gradient_store_all", "seismic", "steps" => cfg.steps as u64, "n" => cfg.n as u64
    );
    let mut stepper = Stepper::new(cfg, c, source);
    let mut sweep = ReverseSweep::new(cfg, c, None, pool);
    store_all_core(cfg, data, &mut stepper, &mut sweep)
}

/// The dense sweep against one shot's compiled stepper + reverse sweep —
/// the piece a batch repeats per shot after paying setup once. Memory is
/// the trajectory plus the 3-grid [`LambdaWindow`].
fn store_all_core(
    cfg: &SeismicConfig,
    data: &Grid,
    stepper: &mut Stepper,
    sweep: &mut ReverseSweep<'_>,
) -> (f64, Grid) {
    let traj = {
        let _fwd = perforad_obs::span!(
            "seismic.forward", "seismic", "steps" => cfg.steps as u64, "n" => cfg.n as u64
        );
        stepper.trajectory()
    };
    let mut window = LambdaWindow::new(sweep);
    window.seed(&traj[cfg.steps], data);
    for t in (0..cfg.steps).rev() {
        window.back(&traj[t]);
    }
    window.finish()
}

/// The reverse sweep's adjoint state, shared by the store-all and the
/// checkpointed sweep: a 3-grid rolling window over `λ_t = ∂J/∂u_t`
/// plus the `∂J/∂c` accumulator. Reversing the step that produced
/// `u_{t+1}` consumes the fully accumulated `λ_{t+1}` and feeds `λ_t`
/// (`u_1_b`) and `λ_{t−1}` (`u_2_b`); since steps are reversed strictly
/// in descending order, nothing older is ever live. Source injection is
/// additive and c-independent, so it contributes nothing to the adjoint.
struct LambdaWindow<'a, 'p> {
    sweep: &'a mut ReverseSweep<'p>,
    j: f64,
    /// λ_{t+1}: fully accumulated, consumed by the next back step.
    hi: Grid,
    /// λ_t: partial (holds the `u_1_b` row of the current step).
    mid: Grid,
    /// λ_{t−1}: partial (holds the `u_2_b` row of the current step).
    lo: Grid,
    c_b: Grid,
}

impl<'a, 'p> LambdaWindow<'a, 'p> {
    fn new(sweep: &'a mut ReverseSweep<'p>) -> Self {
        let dims = sweep.ws.grid("c").dims().to_vec();
        LambdaWindow {
            sweep,
            j: 0.0,
            hi: Grid::zeros(&dims),
            mid: Grid::zeros(&dims),
            lo: Grid::zeros(&dims),
            c_b: Grid::zeros(&dims),
        }
    }

    /// Evaluate `J` at the final wavefield and seed `λ_T = u_T − d`.
    fn seed(&mut self, u_final: &Grid, data: &Grid) {
        self.j = misfit(u_final, data);
        for (l, (u, d)) in self
            .hi
            .as_mut_slice()
            .iter_mut()
            .zip(u_final.as_slice().iter().zip(data.as_slice()))
        {
            *l = u - d;
        }
    }

    /// Reverse step `t` (which produced `u_{t+1}` from `u_1 = u_t`) and
    /// roll the window down one step.
    fn back(&mut self, u_t: &Grid) {
        self.sweep.back(u_t, &self.hi);
        add_into(&mut self.mid, self.sweep.ws.grid("u_1_b"));
        add_into(&mut self.lo, self.sweep.ws.grid("u_2_b"));
        add_into(&mut self.c_b, self.sweep.ws.grid("c_b"));
        std::mem::swap(&mut self.hi, &mut self.mid);
        std::mem::swap(&mut self.mid, &mut self.lo);
        self.lo.fill(0.0);
    }

    /// `(J, ∂J/∂c)`.
    fn finish(self) -> (f64, Grid) {
        (self.j, self.c_b)
    }
}

/// Where trajectory snapshots live during a checkpointed sweep.
#[derive(Clone, Debug, Default)]
pub enum SnapshotBackend {
    /// Spill to `$PERFORAD_CKPT_DIR` when that variable is set, keep
    /// in-memory clones otherwise.
    #[default]
    Auto,
    /// In-memory clones (fast; the budget bounds their count).
    Memory,
    /// Bitwise-exact spill files under the given directory.
    Disk(PathBuf),
}

/// Bounded-memory misfit + gradient: [`gradient_checkpointed_with`] with
/// the tuner choosing the snapshot budget and the [`SnapshotBackend::Auto`]
/// store.
pub fn gradient_checkpointed(
    cfg: &SeismicConfig,
    c: &Grid,
    data: &Grid,
    source: &[f64],
) -> (f64, Grid, CkptReport) {
    gradient_checkpointed_with(cfg, c, data, source, None, &SnapshotBackend::Auto)
}

/// Bounded-memory misfit + gradient under an explicit snapshot budget
/// and backend.
///
/// The forward pass streams: at most `budget` `(u_{t−1}, u_t)` snapshots
/// are live at once (tuner-chosen when `budget` is `None` — the
/// time-loop shape joins the tuner's search space and the winning budget
/// is persisted in the tuning cache), the adjoint field is a 3-grid
/// rolling window, and reverse segments are recomputed from snapshots
/// through the same compiled primal step — so the result is
/// **bitwise-identical** to [`gradient_store_all`] at a fraction of the
/// memory. The returned [`CkptReport`] says what that fraction was.
pub fn gradient_checkpointed_with(
    cfg: &SeismicConfig,
    c: &Grid,
    data: &Grid,
    source: &[f64],
    budget: Option<usize>,
    backend: &SnapshotBackend,
) -> (f64, Grid, CkptReport) {
    gradient_checkpointed_with_pool(cfg, c, data, source, budget, backend, default_pool())
}

/// [`gradient_checkpointed_with`] on a caller-provided pool.
pub fn gradient_checkpointed_with_pool(
    cfg: &SeismicConfig,
    c: &Grid,
    data: &Grid,
    source: &[f64],
    budget: Option<usize>,
    backend: &SnapshotBackend,
    pool: &ThreadPool,
) -> (f64, Grid, CkptReport) {
    assert_eq!(source.len(), cfg.steps);
    let _root = perforad_obs::span!(
        "seismic.gradient_checkpointed", "seismic", "steps" => cfg.steps as u64, "n" => cfg.n as u64
    );
    let dims = [cfg.n, cfg.n, cfg.n];
    let state_bytes = (Grid::zeros(&dims), Grid::zeros(&dims)).mem_bytes();

    let mut sweep = ReverseSweep::new(cfg, c, Some(TimeLoop::new(cfg.steps, state_bytes)), pool);
    let budget = budget
        .or(sweep.tuned.checkpoint)
        .unwrap_or_else(|| default_budget(cfg.steps));
    let mut stepper = Stepper::new(cfg, c, source);
    checkpointed_core(cfg, data, budget, backend, &mut stepper, &mut sweep)
}

/// The bounded-memory sweep against one shot's compiled stepper + reverse
/// sweep, under an explicit (already resolved) snapshot budget — the
/// piece a batch repeats per shot; [`CheckpointPlan`]'s memoized action
/// stream makes the replayed plan shape free after the first shot.
fn checkpointed_core(
    cfg: &SeismicConfig,
    data: &Grid,
    budget: usize,
    backend: &SnapshotBackend,
    stepper: &mut Stepper,
    sweep: &mut ReverseSweep<'_>,
) -> (f64, Grid, CkptReport) {
    let plan = CheckpointPlan::with_budget(cfg.steps, budget);

    // Disk-backed sweeps must survive spill failures: per-snapshot write
    // errors are absorbed inside [`FallbackStore`] (the snapshot lands in
    // memory instead), and anything the store cannot absorb — a read
    // failure, an unusable spill directory — falls back to re-running the
    // *whole* sweep in memory. Both the stepper and the reverse sweep
    // reset their workspace grids per call and the rolling adjoint state
    // is rebuilt per attempt, so a retried gradient is bitwise-identical
    // to a first-try one.
    if let ResolvedBackend::Disk(dir) = resolve_backend(backend) {
        match DiskStore::new(&dir) {
            Ok(disk) => {
                let mut store = FallbackStore::new(disk);
                match checkpointed_attempt(cfg, data, &plan, &mut store, stepper, sweep) {
                    Ok(out) => return out,
                    Err(e) => {
                        perforad_obs::counter("ckpt.spill_fallbacks").inc();
                        eprintln!(
                            "perforad: disk-backed checkpoint sweep failed ({e}); \
                             re-running in memory"
                        );
                    }
                }
            }
            Err(e) => {
                perforad_obs::counter("ckpt.spill_fallbacks").inc();
                eprintln!("perforad: snapshot spill directory unavailable ({e}); using memory");
            }
        }
    }
    checkpointed_attempt(cfg, data, &plan, &mut MemStore::new(), stepper, sweep)
        .expect("in-memory checkpointed sweep")
}

/// One full checkpointed sweep against a concrete snapshot store: fresh
/// rolling adjoint state, the memoized action stream replayed start to
/// finish. Errors out of the store surface here for the caller's
/// fallback decision.
fn checkpointed_attempt(
    cfg: &SeismicConfig,
    data: &Grid,
    plan: &CheckpointPlan,
    store: &mut impl SnapshotStore<WaveState>,
    stepper: &mut Stepper,
    sweep: &mut ReverseSweep<'_>,
) -> Result<(f64, Grid, CkptReport), CkptError> {
    let dims = [cfg.n, cfg.n, cfg.n];
    let s0: WaveState = (Grid::zeros(&dims), Grid::zeros(&dims));

    // The driver calls `seed` and `back` strictly sequentially, so a
    // RefCell resolves the closure-borrow overlap without locking. A
    // fresh window per attempt keeps a retried sweep bitwise-identical.
    let window = RefCell::new(LambdaWindow::new(sweep));
    let mut step = |s: &WaveState, t: usize| {
        stepper.load(s);
        stepper.advance(t);
        stepper.state()
    };
    let mut seed = |s: &WaveState| window.borrow_mut().seed(&s.1, data);
    let mut back = |s: &WaveState, _t: usize| window.borrow_mut().back(&s.1);

    let report = checkpointed_adjoint_plan(plan, s0, store, &mut step, &mut seed, &mut back)?;
    let (j, c_b) = window.into_inner().finish();
    Ok((j, c_b, report))
}

enum ResolvedBackend {
    Memory,
    Disk(PathBuf),
}

fn resolve_backend(backend: &SnapshotBackend) -> ResolvedBackend {
    match backend {
        SnapshotBackend::Memory => ResolvedBackend::Memory,
        SnapshotBackend::Disk(dir) => ResolvedBackend::Disk(dir.clone()),
        SnapshotBackend::Auto => match std::env::var_os(perforad_ckpt::CKPT_DIR_ENV) {
            Some(dir) => ResolvedBackend::Disk(PathBuf::from(dir)),
            None => ResolvedBackend::Memory,
        },
    }
}

/// Fallback snapshot budget when tuning is unavailable: `2√T`, the
/// classic constant-repetition sweet spot, clamped into the plan's valid
/// range.
fn default_budget(steps: usize) -> usize {
    ((2.0 * (steps.max(1) as f64).sqrt()).ceil() as usize).clamp(2, steps.max(2))
}

/// Overwrite `dst` with `src` in place (same shape; no allocation).
fn copy_into(dst: &mut Grid, src: &Grid) {
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

fn add_into(dst: &mut Grid, src: &Grid) {
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += s;
    }
}

/// A multi-shot survey: one source trace and one observed final wavefield
/// per shot, all on the same grid/velocity model.
#[derive(Clone, Debug, Default)]
pub struct ShotBatch {
    /// Per-shot source traces, each `cfg.steps` samples long.
    pub sources: Vec<Vec<f64>>,
    /// Per-shot observed data `d` for the misfit `½‖u_T − d‖²`.
    pub observed: Vec<Grid>,
}

impl ShotBatch {
    pub fn new() -> ShotBatch {
        ShotBatch::default()
    }

    /// Append one shot.
    pub fn push(&mut self, source: Vec<f64>, observed: Grid) {
        self.sources.push(source);
        self.observed.push(observed);
    }

    /// Number of shots.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

/// Knobs for [`gradient_batch_with`]. The default asks the tuner's batch
/// perf-model term to pick the dispatch strategy, lets the sweep tuner
/// choose the snapshot budget, and keeps the usual
/// [`CKPT_THRESHOLD_STEPS`] store-all/checkpointed dispatch.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Force a dispatch strategy instead of consulting
    /// [`pick_batch_strategy`]. Either choice is bitwise-identical; this
    /// is a pure performance (and testing) knob.
    pub strategy: Option<BatchStrategy>,
    /// Explicit snapshot budget for checkpointed shots (tuner-chosen when
    /// `None`).
    pub budget: Option<usize>,
    /// Where checkpointed shots spill snapshots. Each shot instantiates
    /// its own store; [`DiskStore`]'s per-instance tags keep concurrent
    /// shots collision-free in one directory.
    pub backend: SnapshotBackend,
    /// Force the checkpointed (`Some(true)`) or store-all (`Some(false)`)
    /// sweep; `None` applies the [`CKPT_THRESHOLD_STEPS`] rule.
    pub checkpointed: Option<bool>,
}

/// Per-shot outputs of a batched gradient, in shot order.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// `J_k` per shot.
    pub misfits: Vec<f64>,
    /// `∂J_k/∂c` per shot.
    pub gradients: Vec<Grid>,
    /// Checkpoint accounting per shot (`None` for store-all sweeps).
    pub reports: Vec<Option<CkptReport>>,
    /// The dispatch strategy that actually ran.
    pub strategy: BatchStrategy,
}

impl BatchResult {
    /// `Σ_k J_k` — the full-survey objective.
    pub fn total_misfit(&self) -> f64 {
        self.misfits.iter().sum()
    }

    /// `Σ_k ∂J_k/∂c`, accumulated in shot order (deterministic regardless
    /// of dispatch strategy); `None` for an empty batch.
    pub fn summed_gradient(&self) -> Option<Grid> {
        let mut it = self.gradients.iter();
        let mut sum = it.next()?.clone();
        for g in it {
            add_into(&mut sum, g);
        }
        Some(sum)
    }
}

/// Amortized setup for a whole survey: the adjoint transform, the tuned
/// schedule (one cache-keyed search + recompile), the compiled primal
/// stepper, and the kernel profile for strategy selection are built
/// **once**, then every shot reuses them. A sequential loop over
/// [`gradient`] pays all of that per call.
pub struct BatchPlan<'p> {
    cfg: SeismicConfig,
    pool: &'p ThreadPool,
    stepper_proto: Stepper,
    sweep_proto: ReverseSweep<'p>,
    machine: Machine,
    prof: KernelProfile,
    nest_count: usize,
    fingerprint: u64,
    budget: usize,
    checkpointed: bool,
    opts: BatchOptions,
}

impl<'p> BatchPlan<'p> {
    /// Compile + tune everything shot-independent. One adjoint transform,
    /// one autotune (cache-keyed), one primal plan.
    pub fn new(
        cfg: &SeismicConfig,
        c: &Grid,
        opts: &BatchOptions,
        pool: &'p ThreadPool,
    ) -> BatchPlan<'p> {
        let _span = perforad_obs::span!(
            "seismic.batch_setup", "seismic", "n" => cfg.n as u64, "steps" => cfg.steps as u64
        );
        let checkpointed = opts
            .checkpointed
            .unwrap_or(cfg.steps >= CKPT_THRESHOLD_STEPS);
        let dims = [cfg.n, cfg.n, cfg.n];
        let state_bytes = (Grid::zeros(&dims), Grid::zeros(&dims)).mem_bytes();
        let adj = wave_adjoint();
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        let fingerprint =
            fingerprint_nests(&adj.nests, adj.strategy == BoundaryStrategy::Padded, &bind);
        let time_loop = checkpointed.then(|| TimeLoop::new(cfg.steps, state_bytes));
        let sweep_proto = ReverseSweep::with_adjoint(cfg, c, time_loop, pool, &adj);
        let budget = opts
            .budget
            .or(sweep_proto.tuned.checkpoint)
            .unwrap_or_else(|| default_budget(cfg.steps));
        let stepper_proto = Stepper::new(cfg, c, &vec![0.0; cfg.steps]);
        let mut sizes = BTreeMap::new();
        sizes.insert(Symbol::new("n"), cfg.n as i64);
        let prof = profile(&adj.nests, &sizes);
        BatchPlan {
            cfg: *cfg,
            pool,
            stepper_proto,
            nest_count: adj.nests.len(),
            sweep_proto,
            machine: host(pool.size()),
            prof,
            fingerprint,
            budget,
            checkpointed,
            opts: opts.clone(),
        }
    }

    /// The adjoint nest fingerprint this plan was tuned under — the same
    /// value `perforad-tune` keys its persistent cache by, and the unit of
    /// multi-request reuse for a serving layer.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The number of adjoint loop nests behind this plan's schedule.
    pub fn nest_count(&self) -> usize {
        self.nest_count
    }

    /// The tuned configuration every shot's reverse sweep runs under.
    pub fn tuned(&self) -> &TunedConfig {
        &self.sweep_proto.tuned
    }

    /// The snapshot budget checkpointed shots run with (also reported for
    /// store-all plans, where it is simply unused).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether shots run the bounded-memory checkpointed sweep.
    pub fn checkpointed(&self) -> bool {
        self.checkpointed
    }

    /// Swap in a new velocity model without recompiling or retuning: the
    /// schedule, tuned config, and checkpoint budget depend only on the
    /// grid *shape*, so an inversion loop (or a serving daemon fielding a
    /// same-shape `Compile` with fresh `c`) pays a grid copy, nothing else.
    pub fn set_model(&mut self, c: &Grid) {
        let dims = [self.cfg.n, self.cfg.n, self.cfg.n];
        assert_eq!(c.dims(), &dims[..], "velocity model shape must match plan");
        *self.stepper_proto.ws.grid_mut("c") = c.clone();
        *self.sweep_proto.ws.grid_mut("c") = c.clone();
    }

    /// The dispatch strategy a batch of `shots` will run under: the
    /// forced [`BatchOptions::strategy`] if set, else the perf-model's
    /// [`pick_batch_strategy`] verdict for this kernel/pool/shape.
    pub fn strategy_for(&self, shots: usize) -> BatchStrategy {
        if let Some(s) = self.opts.strategy {
            return s;
        }
        let shape = BatchShape {
            shots,
            threads: self.pool.size(),
            steps: self.cfg.steps,
        };
        pick_batch_strategy(
            &self.machine,
            &self.prof,
            self.nest_count,
            &self.sweep_proto.tuned,
            &shape,
        )
        .0
    }

    /// Run every shot; outputs are in shot order and **bitwise-identical**
    /// to N sequential [`gradient`] calls under either strategy.
    pub fn run(&self, batch: &ShotBatch) -> BatchResult {
        let shots = batch.len();
        assert_eq!(batch.observed.len(), shots, "one observed grid per shot");
        for s in &batch.sources {
            assert_eq!(s.len(), self.cfg.steps, "one source sample per step");
        }
        let _root = perforad_obs::span!(
            "seismic.gradient_batch", "seismic",
            "shots" => shots as u64, "n" => self.cfg.n as u64
        );
        let strategy = self.strategy_for(shots);
        let shots_total = perforad_obs::counter("seismic.shots_total");
        let shot_ns = perforad_obs::histogram("seismic.shot_ns");
        let mut out: Vec<(f64, Grid, Option<CkptReport>)> = Vec::with_capacity(shots);
        match strategy {
            BatchStrategy::GridParallel => {
                // Round-robin: one worker pair of protos, each shot's
                // sweep runs grid-parallel through the tuned schedule.
                let mut stepper = self.stepper_proto.clone();
                let mut sweep = self.sweep_proto.clone();
                for k in 0..shots {
                    out.push(self.run_shot(
                        k,
                        batch,
                        &mut stepper,
                        &mut sweep,
                        &shots_total,
                        &shot_ns,
                    ));
                }
            }
            BatchStrategy::ShotParallel => {
                // Workers own whole shots. Each worker clones the compiled
                // prototypes once (its private workspace/snapshot state)
                // and runs its shots strictly serially — `run_tuned` with
                // a `Serial` strategy never re-enters the pool, which is
                // not reentrant.
                let serial = TunedConfig {
                    strategy: TunedStrategy::Serial,
                    ..self.sweep_proto.tuned.clone()
                };
                let slots = Mutex::new(Vec::with_capacity(shots));
                self.pool.work_queue(
                    shots,
                    |_tid| {
                        let mut sweep = self.sweep_proto.clone();
                        sweep.tuned = serial.clone();
                        (self.stepper_proto.clone(), sweep)
                    },
                    |k, state: &mut (Stepper, ReverseSweep<'p>)| {
                        let (stepper, sweep) = state;
                        let shot = self.run_shot(k, batch, stepper, sweep, &shots_total, &shot_ns);
                        slots.lock().expect("batch results lock").push((k, shot));
                    },
                );
                let mut slots = slots.into_inner().expect("batch results lock");
                slots.sort_by_key(|&(k, _)| k);
                out.extend(slots.into_iter().map(|(_, shot)| shot));
            }
        }
        let mut misfits = Vec::with_capacity(shots);
        let mut gradients = Vec::with_capacity(shots);
        let mut reports = Vec::with_capacity(shots);
        for (j, g, rep) in out {
            misfits.push(j);
            gradients.push(g);
            reports.push(rep);
        }
        BatchResult {
            misfits,
            gradients,
            reports,
            strategy,
        }
    }

    fn run_shot(
        &self,
        k: usize,
        batch: &ShotBatch,
        stepper: &mut Stepper,
        sweep: &mut ReverseSweep<'_>,
        shots_total: &perforad_obs::Counter,
        shot_ns: &perforad_obs::Histogram,
    ) -> (f64, Grid, Option<CkptReport>) {
        let _span = perforad_obs::span!("seismic.shot", "seismic", "shot" => k as u64);
        let t0 = perforad_obs::enabled().then(perforad_obs::now_ns);
        stepper.set_source(&batch.sources[k]);
        let shot = if self.checkpointed {
            let (j, g, rep) = checkpointed_core(
                &self.cfg,
                &batch.observed[k],
                self.budget,
                &self.opts.backend,
                stepper,
                sweep,
            );
            (j, g, Some(rep))
        } else {
            let (j, g) = store_all_core(&self.cfg, &batch.observed[k], stepper, sweep);
            (j, g, None)
        };
        shots_total.inc();
        if let Some(t0) = t0 {
            shot_ns.record(perforad_obs::now_ns().saturating_sub(t0));
        }
        shot
    }
}

/// Misfits + gradients for every shot of a survey:
/// [`gradient_batch_with`] with default options on the shared
/// [`default_pool`].
pub fn gradient_batch(cfg: &SeismicConfig, c: &Grid, batch: &ShotBatch) -> BatchResult {
    gradient_batch_with(cfg, c, batch, &BatchOptions::default(), default_pool())
}

/// Batched multi-shot gradients: compile and tune once (via
/// [`BatchPlan`]), then dispatch shots across `pool` under the
/// perf-model-chosen (or forced) [`BatchStrategy`]. Outputs are in shot
/// order and bitwise-identical to N sequential [`gradient`] calls —
/// batching changes *when setup is paid and who runs which shot*, never
/// how a shot executes.
pub fn gradient_batch_with(
    cfg: &SeismicConfig,
    c: &Grid,
    batch: &ShotBatch,
    opts: &BatchOptions,
    pool: &ThreadPool,
) -> BatchResult {
    BatchPlan::new(cfg, c, opts, pool).run(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn velocity(n: usize) -> Grid {
        Grid::from_fn(&[n, n, n], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64))
    }

    #[test]
    fn forward_propagates_from_source() {
        let cfg = SeismicConfig {
            n: 12,
            steps: 5,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let traj = forward(&cfg, &velocity(cfg.n), &src);
        assert_eq!(traj.len(), 6);
        assert!(traj[5].is_finite());
        assert!(traj[5].norm2() > 0.0);
        // The wavefront has spread beyond the source point.
        let off_src = traj[5].get(&[6 + 2, 6, 6]).abs();
        assert!(off_src > 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let cfg = SeismicConfig {
            n: 10,
            steps: 4,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let c0 = velocity(cfg.n);
        // Synthetic "observed" data from a perturbed model.
        let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
        let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();

        let (j0, grad) = gradient(&cfg, &c0, &data, &src);
        assert!(j0 > 0.0);

        // Probe a few interior points with central differences.
        let h = 1e-5;
        for probe in [[5usize, 5, 5], [4, 6, 5], [6, 4, 4]] {
            let mut cp = c0.clone();
            cp.set(&probe, c0.get(&probe) + h);
            let jp = misfit(&forward(&cfg, &cp, &src)[cfg.steps], &data);
            let mut cm = c0.clone();
            cm.set(&probe, c0.get(&probe) - h);
            let jm = misfit(&forward(&cfg, &cm, &src)[cfg.steps], &data);
            let fd = (jp - jm) / (2.0 * h);
            let an = grad.get(&probe);
            let denom = fd.abs().max(an.abs()).max(1e-12);
            assert!(
                (fd - an).abs() / denom < 1e-4,
                "probe {probe:?}: fd {fd} vs adjoint {an}"
            );
        }
    }

    #[test]
    fn zero_residual_gives_zero_gradient() {
        let cfg = SeismicConfig {
            n: 8,
            steps: 3,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let c0 = velocity(cfg.n);
        let data = forward(&cfg, &c0, &src)[cfg.steps].clone();
        let (j, grad) = gradient(&cfg, &c0, &data, &src);
        assert!(j.abs() < 1e-20);
        assert!(grad.norm2() < 1e-12);
    }

    #[test]
    fn checkpointed_gradient_is_bitwise_store_all() {
        // The odd edge leaves remainder lanes in the primal's row kernel.
        for (n, steps) in [(8usize, 7usize), (9, 6)] {
            let cfg = SeismicConfig { n, steps, d: 0.1 };
            let src = ricker(cfg.steps);
            let c0 = velocity(cfg.n);
            let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.04);
            let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();
            let (j_ref, g_ref) = gradient_store_all(&cfg, &c0, &data, &src);
            for budget in [1usize, 2, 3, steps, 50] {
                let (j, g, report) = gradient_checkpointed_with(
                    &cfg,
                    &c0,
                    &data,
                    &src,
                    Some(budget),
                    &SnapshotBackend::Memory,
                );
                assert_eq!(j.to_bits(), j_ref.to_bits(), "n {n} budget {budget}");
                for (a, b) in g.as_slice().iter().zip(g_ref.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n {n} budget {budget}");
                }
                assert!(report.peak_snapshots <= budget);
                assert_eq!(report.budget, budget.min(cfg.steps));
            }
        }
    }

    /// The primal time loop stepped by the per-point interpreter, with
    /// fresh grids every step: the oracle the in-place row stepper must
    /// reproduce bit for bit.
    fn interpreter_trajectory(cfg: &SeismicConfig, c: &Grid, source: &[f64]) -> Vec<Grid> {
        let dims = [cfg.n; 3];
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        let mut ws = Workspace::new()
            .with("c", c.clone())
            .with("u", Grid::zeros(&dims))
            .with("u_1", Grid::zeros(&dims))
            .with("u_2", Grid::zeros(&dims));
        let plan = compile_nest(&wave3d::nest(), &ws, &bind).unwrap();
        let mut traj = vec![Grid::zeros(&dims)];
        let mut prev = Grid::zeros(&dims);
        for &s in source {
            let cur = traj.last().unwrap().clone();
            *ws.grid_mut("u_1") = cur.clone();
            *ws.grid_mut("u_2") = prev;
            ws.grid_mut("u").fill(0.0);
            run(&plan, &mut ws, ExecMode::serial()).unwrap();
            let mut next = ws.grid("u").clone();
            let v = next.get(&cfg.source_index()) + s;
            next.set(&cfg.source_index(), v);
            prev = cur;
            traj.push(next);
        }
        traj
    }

    fn assert_same_bits(a: &Grid, b: &Grid, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}");
        for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {k}");
        }
    }

    #[test]
    fn forward_is_bitwise_the_interpreter_oracle() {
        // Odd edges leave remainder lanes in every row of the row executor.
        for (n, steps) in [(9usize, 6usize), (13, 7)] {
            let cfg = SeismicConfig { n, steps, d: 0.1 };
            let c = velocity(n);
            let src = ricker(steps);
            let want = interpreter_trajectory(&cfg, &c, &src);
            let got = forward(&cfg, &c, &src);
            assert_eq!(got.len(), want.len());
            assert!(want[steps].norm2() > 0.0, "the oracle propagates a wave");
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_same_bits(g, w, &format!("n={n} u_{t}"));
            }
        }
    }

    #[test]
    fn default_budget_is_reasonable() {
        assert_eq!(default_budget(0), 2);
        assert_eq!(default_budget(4), 4);
        assert_eq!(default_budget(100), 20);
        assert!(default_budget(3) <= 3 + 1);
        for steps in [1usize, 2, 10, 1000] {
            let b = default_budget(steps);
            assert!(b >= 2 && b <= steps.max(2), "steps {steps}: {b}");
        }
    }
}
