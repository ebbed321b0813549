//! The correctness gate: an independent store-all reference built only
//! from the per-point interpreter, and a bitwise comparison.
//!
//! The reference runs `exec::run_serial` over the wave3d primal nest and
//! the c-active adjoint nests, in a time loop of its own that keeps the
//! driver's accumulation order (`λ_{t−1} += u_1_b`, `λ_{t−2} += u_2_b`,
//! `c_b += c_b` per reverse step). It never touches `sched`, `tune`,
//! `jit`, `ckpt` or `serve`, so a bug there cannot hide in both sides.

use crate::workload::{shot_inputs, OpId, Workload};
use perforad_core::AdjointOptions;
use perforad_exec::{compile_adjoint, compile_nest, run_serial, Binding, Grid, Workspace};
use perforad_pde::seismic::SeismicConfig;
use perforad_pde::wave3d;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One shot's `(misfit, ∂J/∂c)`.
pub type Shot = (f64, Grid);

/// `(misfit, ∂J/∂c)` for one shot, by the interpreter.
pub fn reference_shot(cfg: &SeismicConfig, c: &Grid, source: &[f64], observed: &Grid) -> Shot {
    let n = cfg.n;
    let dims = [n, n, n];
    let bind = Binding::new().size("n", n as i64).param("D", cfg.d);

    let mut pws = Workspace::new();
    pws.insert("c", c.clone());
    for name in ["u", "u_1", "u_2"] {
        pws.insert(name, Grid::zeros(&dims));
    }
    let primal = compile_nest(&wave3d::nest(), &pws, &bind).expect("reference primal compiles");

    let adj = wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("reference adjoint transforms");
    let mut aws = Workspace::new();
    aws.insert("c", c.clone());
    for name in ["u_1", "u_b", "u_1_b", "u_2_b", "c_b"] {
        aws.insert(name, Grid::zeros(&dims));
    }
    let adjoint = compile_adjoint(&adj, &aws, &bind).expect("reference adjoint compiles");

    // Forward: u_{t+1} = F(u_t, u_{t−1}) plus the source at the centre.
    let src = [n / 2, n / 2, n / 2];
    let mut traj = vec![Grid::zeros(&dims)];
    let mut prev = Grid::zeros(&dims);
    for &s in &source[..cfg.steps] {
        let cur = traj.last().expect("trajectory is never empty").clone();
        *pws.grid_mut("u_1") = cur.clone();
        *pws.grid_mut("u_2") = prev;
        pws.grid_mut("u").fill(0.0);
        run_serial(&primal, &mut pws).expect("reference primal step");
        let mut next = pws.grid("u").clone();
        let v = next.get(&src) + s;
        next.set(&src, v);
        prev = cur;
        traj.push(next);
    }

    let last = &traj[cfg.steps];
    let mut j = 0.0;
    for (a, b) in last.as_slice().iter().zip(observed.as_slice()) {
        let r = a - b;
        j += 0.5 * r * r;
    }

    // Reverse: λ_T = u_T − d, then one interpreted adjoint step per t.
    let mut lambda: Vec<Grid> = (0..=cfg.steps).map(|_| Grid::zeros(&dims)).collect();
    for (l, (u, d)) in lambda[cfg.steps]
        .as_mut_slice()
        .iter_mut()
        .zip(last.as_slice().iter().zip(observed.as_slice()))
    {
        *l = u - d;
    }
    let mut c_b = Grid::zeros(&dims);
    for t in (1..=cfg.steps).rev() {
        *aws.grid_mut("u_1") = traj[t - 1].clone();
        *aws.grid_mut("u_b") = lambda[t].clone();
        for name in ["u_1_b", "u_2_b", "c_b"] {
            aws.grid_mut(name).fill(0.0);
        }
        run_serial(&adjoint, &mut aws).expect("reference adjoint step");
        add_into(&mut lambda[t - 1], aws.grid("u_1_b"));
        if t >= 2 {
            add_into(&mut lambda[t - 2], aws.grid("u_2_b"));
        }
        add_into(&mut c_b, aws.grid("c_b"));
    }
    (j, c_b)
}

fn add_into(dst: &mut Grid, src: &Grid) {
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += s;
    }
}

/// Bitwise equality of misfit and every gradient value.
pub fn same_bits(got: &Shot, want: &Shot) -> bool {
    got.0.to_bits() == want.0.to_bits()
        && got.1.len() == want.1.len()
        && got
            .1
            .as_slice()
            .iter()
            .zip(want.1.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// One shot the gate checks.
pub struct Item {
    pub label: String,
    pub id: OpId,
    pub shot: usize,
    pub got: Shot,
}

/// What the gate found.
pub struct Verdict {
    /// Checked shots.
    pub checked: usize,
    /// Operations with at least one mismatching shot.
    pub bad_ops: Vec<OpId>,
    /// Labels of the mismatching shots.
    pub mismatches: Vec<String>,
    /// Whether a single flipped bit in a returned gradient was caught.
    pub selfcheck_caught: bool,
}

/// Compare every item against the reference, two shots at a time, then
/// flip one bit of the first item's gradient and confirm the comparison
/// reports it.
pub fn verify(w: Workload, seed: u64, items: Vec<Item>, threads: usize) -> Verdict {
    let cfg = w.cfg();
    let c = crate::workload::velocity(cfg.n);
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<(usize, bool, Option<Shot>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(k) else { break };
                let (source, observed) = shot_inputs(&cfg, seed, item.id, item.shot);
                let want = reference_shot(&cfg, &c, &source, &observed);
                let ok = same_bits(&item.got, &want);
                outcomes.lock().expect("verify results lock").push((
                    k,
                    ok,
                    (k == 0).then_some(want),
                ));
            });
        }
    });
    let outcomes = outcomes.into_inner().expect("verify results lock");

    let mut bad_ops: Vec<OpId> = Vec::new();
    let mut mismatches = Vec::new();
    let mut selfcheck_caught = false;
    for (k, ok, want) in outcomes {
        let item = &items[k];
        if !ok {
            mismatches.push(item.label.clone());
            if !bad_ops.contains(&item.id) {
                bad_ops.push(item.id);
            }
        }
        if let Some(want) = want {
            let mut corrupted = item.got.clone();
            let mid = corrupted.1.len() / 2;
            let slice = corrupted.1.as_mut_slice();
            slice[mid] = f64::from_bits(slice[mid].to_bits() ^ 1);
            selfcheck_caught = !same_bits(&corrupted, &want);
        }
    }
    Verdict {
        checked: items.len(),
        bad_ops,
        mismatches,
        selfcheck_caught,
    }
}
