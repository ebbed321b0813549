//! The three workloads and their seeded inputs.
//!
//! Every operation draws its own inputs from `(seed, client, op, shot)`:
//! a Ricker wavelet under a seeded scaling and a seeded observed field.
//! No two operations carry identical inputs, so a result cache keyed on
//! inputs cannot make the benchmark faster than real traffic would.

use perforad_exec::Grid;
use perforad_pde::seismic::{ricker, SeismicConfig, ShotBatch};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process `gradient_batch`, 4 shots at n = 48, 48 steps.
    Survey,
    /// In-process checkpointed `gradient`, one shot at n = 32, 160 steps.
    LongSweep,
    /// Two clients against a daemon, one shot at n = 24, 24 steps.
    ServedSmall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Survey, Workload::LongSweep, Workload::ServedSmall];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Survey => "survey",
            Workload::LongSweep => "long_sweep",
            Workload::ServedSmall => "served_small",
        }
    }

    pub fn cfg(self) -> SeismicConfig {
        let (n, steps) = match self {
            Workload::Survey => (48, 48),
            Workload::LongSweep => (32, 160),
            Workload::ServedSmall => (24, 24),
        };
        SeismicConfig { n, steps, d: 0.1 }
    }

    /// Shots per operation (one `gradient_batch` call, one `gradient`
    /// call, or one `Gradient` round trip).
    pub fn shots(self) -> usize {
        match self {
            Workload::Survey => 4,
            Workload::LongSweep | Workload::ServedSmall => 1,
        }
    }

    /// Closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServedSmall => 2,
            Workload::Survey | Workload::LongSweep => 1,
        }
    }

    /// Whether the gradient process starts the program's pool with one
    /// worker and runs its measured loop on that worker's CPU. With the
    /// default pool the long sweep's small adjoint regions, between
    /// serial primal steps, woke a worker on an idle vCPU about 700
    /// times per gradient; on a busy shared host each wake-up can wait
    /// for the host, and the sweep's latency spread far wider from run
    /// to run than its CPU time. `survey` keeps the default pool: there
    /// each worker runs whole shots.
    pub fn one_worker(self) -> bool {
        self == Workload::LongSweep
    }

    /// `PERFORAD_MEM_BUDGET_BYTES` for the gradient process: 1/8 of the
    /// dense trajectory for the long sweep, so the tuner must pick a
    /// real checkpoint schedule; the program's default elsewhere.
    pub fn mem_budget_bytes(self) -> Option<usize> {
        let cfg = self.cfg();
        (self == Workload::LongSweep).then(|| (cfg.steps + 1) * grid_bytes(cfg.n) / 8)
    }
}

pub fn grid_bytes(n: usize) -> usize {
    8 * n * n * n
}

/// The velocity model every workload differentiates against:
/// `c = 0.8 + 0.4·z/n`.
pub fn velocity(n: usize) -> Grid {
    Grid::from_fn(&[n, n, n], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64))
}

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One stream per `(seed, words..)`, decorrelated by chaining splitmix.
pub fn stream(seed: u64, words: &[u64]) -> Rng {
    let mut h = Rng::new(seed).next_u64();
    for &w in words {
        h = Rng::new(h ^ w.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64();
    }
    Rng::new(h)
}

/// Identifies one operation: client `client`'s `op`-th request (op 0 of
/// client 0 is the cold set-up operation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpId {
    pub client: usize,
    pub op: u64,
}

/// One shot's inputs: a scaled Ricker source and an observed field.
pub fn shot_inputs(cfg: &SeismicConfig, seed: u64, id: OpId, shot: usize) -> (Vec<f64>, Grid) {
    let mut rng = stream(seed, &[id.client as u64, id.op, shot as u64]);
    let scale = 0.5 + rng.unit();
    let source = ricker(cfg.steps).into_iter().map(|v| v * scale).collect();
    let observed = Grid::from_fn(&[cfg.n, cfg.n, cfg.n], |_| 1e-3 * (2.0 * rng.unit() - 1.0));
    (source, observed)
}

/// All shots of one operation.
pub fn op_inputs(w: Workload, seed: u64, id: OpId) -> ShotBatch {
    let cfg = w.cfg();
    let mut batch = ShotBatch::new();
    for shot in 0..w.shots() {
        let (source, observed) = shot_inputs(&cfg, seed, id, shot);
        batch.push(source, observed);
    }
    batch
}

/// What one operation returned: `(misfit, gradient)` per shot.
pub type OpResult = Vec<crate::check::Shot>;
