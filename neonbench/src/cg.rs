//! `cg-poisson`: 7-point matrix-free Poisson CG, default skeleton options.
//!
//! Inputs: per job, eight point sources of the right-hand side at seeded
//! interior positions with seeded strengths. Checks: the residual history
//! is finite and ends below where it started (CG's residual norm is not
//! monotone per iteration, so only the overall decrease is required), and
//! the recurrence residual agrees with `b − A·x` re-evaluated on the host
//! through `apply_operator_host`.

use std::time::Instant;

use neon_apps::cg::{cg_init, cg_iteration};
use neon_apps::poisson::{apply_operator_host, laplacian_apply};
use neon_apps::CgState;
use neon_core::{ExecReport, FunctionalMode, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, Field, GridLike, MemLayout, ScalarSet, Stencil, StorageMode};
use neon_set::Checkpoint;
use neon_sys::{Backend, CounterSnapshot};

use crate::solver::{add_passes, collectives, input_seed, ms, Load, Program, Setup};
use crate::trace::{Layer, Tracer};

/// Agreement required between the recurrence residual and the host
/// re-evaluation, relative to ‖b‖. Forty iterations of round-off on a
/// well-conditioned 96³ operator stay orders of magnitude below this.
const RESIDUAL_TOL: f64 = 1e-9;

pub struct Cg {
    dim: usize,
    state: CgState<DenseGrid>,
    init: Skeleton,
    iter: Skeleton,
    /// ‖r‖² after init, then after every iteration of the current job.
    history: Vec<f64>,
}

/// Build the CG program on a `dim³` grid with `options`; the skeletons
/// and containers are the ones `CgSolver` builds, assembled here so each
/// phase can be timed on its own.
pub fn build(
    tr: &Tracer,
    backend: &Backend,
    dim: usize,
    options: SkeletonOptions,
    s: &mut Setup,
) -> Cg {
    let t = Instant::now();
    let st = Stencil::seven_point();
    let grid = tr.span(Layer::Domain, "DenseGrid::new", || {
        DenseGrid::new(backend, Dim3::cube(dim), &[&st], StorageMode::Real).expect("CG grid")
    });
    s.grid_ms += ms(t);

    let t = Instant::now();
    let n = grid.num_partitions();
    let field = |name: &str| {
        tr.span(Layer::Domain, "Field::new", || {
            Field::new(&grid, name, 1, 0.0, MemLayout::SoA).expect("CG field")
        })
    };
    let scalar = |name: &str| ScalarSet::<f64>::new(n, name, 0.0, |a, b| a + b);
    let state = CgState {
        x: field("x"),
        b: field("b"),
        r: field("r"),
        p: field("p"),
        ap: field("Ap"),
        rs_old: scalar("rs_old"),
        rs_new: scalar("rs_new"),
        p_ap: scalar("pAp"),
        alpha: scalar("alpha"),
        beta: scalar("beta"),
    };
    s.field_ms += ms(t);

    let t = Instant::now();
    let (init_seq, iter_seq) = tr.span(Layer::Apps, "cg_containers", || {
        (
            cg_init(&grid, &state),
            cg_iteration(&grid, &state, laplacian_apply(&grid, &state)),
        )
    });
    s.container_ms += ms(t);

    let t = Instant::now();
    let init_options = SkeletonOptions {
        occ: OccLevel::None,
        ..options
    };
    let init = tr.span(Layer::Core, "Skeleton::sequence", || {
        Skeleton::sequence(backend, "cg-init", init_seq, init_options)
    });
    let iter = tr.span(Layer::Core, "Skeleton::sequence", || {
        Skeleton::sequence(backend, "cg-iter", iter_seq, options)
    });
    s.compile_ms += ms(t);
    add_passes(s, &[&init, &iter]);
    Cg {
        dim,
        state,
        init,
        iter,
        history: Vec::new(),
    }
}

impl Cg {
    fn rs(&self) -> f64 {
        self.state.rs_old.host_value()
    }
}

impl Program for Cg {
    fn cells(&self) -> u64 {
        (self.dim * self.dim * self.dim) as u64
    }

    fn iters_per_exec(&self) -> usize {
        1
    }

    fn load(&mut self, tr: &Tracer, input: u64) -> Load {
        // Eight point sources at seeded interior cells, strengths in [0.5, 1.5).
        let d = self.dim as u64;
        let sources: Vec<([i32; 3], f64)> = (0..8)
            .map(|k| {
                let h = input_seed(input, k);
                let c = |sh: u32| (1 + (h >> sh) % (d - 2)) as i32;
                let strength = 0.5 + (h >> 40) as f64 / (1u64 << 24) as f64;
                ([c(0), c(16), c(32)], strength)
            })
            .collect();
        let t = Instant::now();
        tr.span(Layer::Domain, "Field::fill", || {
            self.state.b.fill(|x, y, z, _| {
                sources
                    .iter()
                    .filter(|(p, _)| *p == [x, y, z])
                    .map(|(_, v)| v)
                    .sum()
            })
        });
        let fill_ms = ms(t);
        let t = Instant::now();
        let init = tr.span(Layer::Core, "Skeleton::run", || self.init.run());
        let init_ms = ms(t);
        self.history.clear();
        self.history.push(self.rs());
        Load {
            fill_ms,
            init_ms,
            init,
        }
    }

    fn exec(&mut self, tr: &Tracer) -> ExecReport {
        let r = tr.span(Layer::Core, "Skeleton::run", || self.iter.run());
        self.history.push(self.rs());
        r
    }

    fn check(&mut self, tr: &Tracer) -> Result<(), String> {
        let (first, last) = (self.history[0], *self.history.last().expect("init ran"));
        if !self.history.iter().all(|v| v.is_finite()) {
            return Err("non-finite residual".into());
        }
        if last >= first {
            return Err(format!("residual did not decrease: {first:e} -> {last:e}"));
        }
        let n = self.dim;
        let idx = |x: i32, y: i32, z: i32| (z as usize * n + y as usize) * n + x as usize;
        let mut x = vec![0.0; n * n * n];
        let mut b = vec![0.0; n * n * n];
        tr.span(Layer::Domain, "Field::for_each", || {
            self.state.x.for_each(|i, j, k, _, v| x[idx(i, j, k)] = v);
            self.state.b.for_each(|i, j, k, _, v| b[idx(i, j, k)] = v);
        });
        let mut ax = vec![0.0; n * n * n];
        tr.span(Layer::Apps, "apply_operator_host", || {
            apply_operator_host((n, n, n), &x, &mut ax)
        });
        let true_rs: f64 = b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum();
        let b_norm = first.sqrt();
        let gap = (true_rs.sqrt() - last.sqrt()).abs();
        if gap > RESIDUAL_TOL * b_norm {
            return Err(format!(
                "recurrence residual {:e} vs host {:e} (gap {gap:e} > {RESIDUAL_TOL:e}·‖b‖)",
                last.sqrt(),
                true_rs.sqrt()
            ));
        }
        Ok(())
    }

    fn counters(&self) -> CounterSnapshot {
        self.iter.counters_snapshot()
    }

    fn set_mode(&mut self, mode: FunctionalMode) {
        self.init.set_functional_mode(mode);
        self.iter.set_functional_mode(mode);
    }

    fn set_functional(&mut self, on: bool) {
        self.iter.set_functional(on);
    }

    fn bits(&self) -> Vec<u64> {
        let mut v = Vec::new();
        for f in [&self.state.x, &self.state.r, &self.state.p] {
            f.for_each(|_, _, _, _, x| v.push(x.to_bits()));
        }
        v
    }

    fn checkpoint(&self, tr: &Tracer) -> Checkpoint {
        tr.span(Layer::Core, "Skeleton::capture_checkpoint", || {
            self.iter.capture_checkpoint(0)
        })
    }

    fn update_halos(&self, tr: &Tracer) {
        tr.span(Layer::Domain, "Field::update_halos", || {
            self.state.p.update_halos()
        });
    }

    fn collectives_per_exec(&self) -> usize {
        collectives(&self.iter)
    }
}

/// The `cg-poisson` program: 96³, default options.
pub fn build_default(
    tr: &Tracer,
    backend: &Backend,
    mode: FunctionalMode,
    s: &mut Setup,
) -> Box<dyn Program> {
    let options = SkeletonOptions {
        functional_mode: mode,
        ..Default::default()
    };
    Box::new(build(tr, backend, 96, options, s))
}
