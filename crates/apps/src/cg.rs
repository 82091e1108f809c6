//! A matrix-free conjugate-gradient solver built from Neon containers
//! (paper Listing 3).
//!
//! The iteration is expressed as a *sequential* container list; the
//! Skeleton discovers the parallelism. Following the paper (§VI-B), the
//! direction update `p ← r + β·p` is placed at the *start* of the
//! iteration, immediately before the stencil, which is what enables the
//! Two-way Extended OCC optimization without changing the numerics.
//!
//! One iteration (given `rs_old = r·r` from initialization):
//!
//! ```text
//! p    ← β·p              (map)
//! p    ← r + p            (map)
//! Ap   ← A·p              (stencil, user-supplied operator)
//! pAp  ← p·Ap             (reduce)
//! α    ← rs_old / pAp     (host)
//! x    ← x + α·p          (map)
//! r    ← r − α·Ap         (map)
//! rs   ← r·r              (reduce)
//! β    ← rs / rs_old; rs_old ← rs   (host)
//! ```

use neon_core::{ExecReport, FaultStats, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{ops, Container, Field, GridLike, MemLayout, ScalarSet};
use neon_sys::{Result, SimTime};

/// Compile statistics of a solver's skeletons (see
/// [`neon_core::plan`] for the plan cache these reflect).
#[derive(Debug, Clone, Copy)]
pub struct CompileStats {
    /// Whether the init skeleton's plan was rebound from the plan cache.
    pub init_from_cache: bool,
    /// Whether the iteration skeleton's plan was rebound from the cache.
    pub iter_from_cache: bool,
    /// Total compile wall-clock time across both skeletons (zero when
    /// both were cache hits).
    pub compile_time: SimTime,
}

/// The state of a CG solve: fields and scalars.
pub struct CgState<G: GridLike> {
    /// Solution iterate.
    pub x: Field<f64, G>,
    /// Right-hand side.
    pub b: Field<f64, G>,
    /// Residual.
    pub r: Field<f64, G>,
    /// Search direction.
    pub p: Field<f64, G>,
    /// Operator application `A·p`.
    pub ap: Field<f64, G>,
    /// `r·r` of the previous iteration.
    pub rs_old: ScalarSet<f64>,
    /// `r·r` of the current iteration.
    pub rs_new: ScalarSet<f64>,
    /// `p·Ap`.
    pub p_ap: ScalarSet<f64>,
    /// Step length.
    pub alpha: ScalarSet<f64>,
    /// Direction update coefficient.
    pub beta: ScalarSet<f64>,
}

impl<G: GridLike> CgState<G> {
    /// Allocate all CG fields (cardinality `card`) and scalars on `grid`.
    pub fn new(grid: &G, card: usize, layout: MemLayout) -> Result<Self> {
        let n = grid.num_partitions();
        Ok(CgState {
            x: Field::new(grid, "x", card, 0.0, layout)?,
            b: Field::new(grid, "b", card, 0.0, layout)?,
            r: Field::new(grid, "r", card, 0.0, layout)?,
            p: Field::new(grid, "p", card, 0.0, layout)?,
            ap: Field::new(grid, "Ap", card, 0.0, layout)?,
            rs_old: ScalarSet::<f64>::new(n, "rs_old", 0.0, |a, b| a + b),
            rs_new: ScalarSet::<f64>::new(n, "rs_new", 0.0, |a, b| a + b),
            p_ap: ScalarSet::<f64>::new(n, "pAp", 0.0, |a, b| a + b),
            alpha: ScalarSet::<f64>::new(n, "alpha", 0.0, |a, b| a + b),
            beta: ScalarSet::<f64>::new(n, "beta", 0.0, |a, b| a + b),
        })
    }

    /// Current residual norm ‖r‖₂ (valid after at least one iteration).
    pub fn residual_norm(&self) -> f64 {
        self.rs_old.host_value().max(0.0).sqrt()
    }
}

/// The containers of one CG iteration, given the operator container
/// `apply` (which must read `state.p` with a stencil and write `state.ap`).
pub fn cg_iteration<G: GridLike>(grid: &G, state: &CgState<G>, apply: Container) -> Vec<Container> {
    let n = grid.num_partitions();
    let host_alpha = {
        let (rs, pap, alpha) = (
            state.rs_old.clone(),
            state.p_ap.clone(),
            state.alpha.clone(),
        );
        Container::host("alpha", n, move |ldr| {
            let rsr = ldr.scalar_reader(&rs);
            let papr = ldr.scalar_reader(&pap);
            let aw = ldr.scalar_writer(&alpha);
            Box::new(move || {
                let denom = papr.get();
                aw.set(if denom != 0.0 { rsr.get() / denom } else { 0.0 });
            })
        })
    };
    let host_beta = {
        let (rs_new, rs_old, beta) = (
            state.rs_new.clone(),
            state.rs_old.clone(),
            state.beta.clone(),
        );
        Container::host("beta", n, move |ldr| {
            let newr = ldr.scalar_reader(&rs_new);
            let oldr = ldr.scalar_reader(&rs_old);
            let bw = ldr.scalar_writer(&beta);
            let ow = ldr.scalar_writer(&rs_old);
            Box::new(move || {
                let old = oldr.get();
                let new = newr.get();
                bw.set(if old != 0.0 { new / old } else { 0.0 });
                ow.set(new);
            })
        })
    };
    // `p ← r + β·p` is expressed as scale-then-add rather than one
    // three-operand map: `fl(1·r + fl(β·p))` is bitwise what the single
    // map computed, the two cell-local maps fuse back into one sweep under
    // the fuse pass, and keeping them separate lets the unfused baseline
    // meter the true per-container traffic.
    vec![
        ops::scale_scalar(grid, &state.beta, &state.p),
        ops::axpy_const(grid, 1.0, &state.r, &state.p),
        apply,
        ops::dot(grid, &state.p, &state.ap, &state.p_ap),
        host_alpha,
        ops::axpy_scalar(grid, &state.alpha, 1.0, &state.p, &state.x),
        ops::axpy_scalar(grid, &state.alpha, -1.0, &state.ap, &state.r),
        ops::dot(grid, &state.r, &state.r, &state.rs_new),
        host_beta,
    ]
}

/// Initialization containers: `x ← 0`, `r ← b`, `p ← 0`, `rs_old ← r·r`,
/// `β ← 0`.
pub fn cg_init<G: GridLike>(grid: &G, state: &CgState<G>) -> Vec<Container> {
    let n = grid.num_partitions();
    let host_zero_beta = {
        let beta = state.beta.clone();
        Container::host("beta=0", n, move |ldr| {
            let bw = ldr.scalar_writer(&beta);
            Box::new(move || bw.set(0.0))
        })
    };
    vec![
        ops::set_value(grid, &state.x, 0.0),
        ops::set_value(grid, &state.p, 0.0),
        ops::copy(grid, &state.b, &state.r),
        ops::dot(grid, &state.r, &state.r, &state.rs_old),
        host_zero_beta,
    ]
}

/// A complete CG solver: init + iteration skeletons with a chosen OCC
/// level.
pub struct CgSolver<G: GridLike> {
    /// The solver's state fields/scalars.
    pub state: CgState<G>,
    init: Skeleton,
    iter: Skeleton,
}

impl<G: GridLike> CgSolver<G> {
    /// The field layout a [`neon_core::LayoutPolicy`] recommends for this
    /// solver's access pattern: the direction field `p` is stencil-read
    /// (with live halos whenever the grid spans more than one partition),
    /// so the policy's vector-stencil rule applies at cardinality > 1.
    /// Callers that let the skeleton pick layouts pass the result to
    /// [`CgSolver::new`] / [`CgSolver::with_options`] — and must use the
    /// same policy in their [`SkeletonOptions`] so the plan-cache key
    /// matches the allocation decision.
    pub fn layout_for(policy: neon_core::LayoutPolicy, grid: &G, card: usize) -> MemLayout {
        neon_core::recommend_layout(
            policy,
            neon_core::AccessSummary {
                card,
                stencil: true,
                live_halo: grid.num_partitions() > 1,
            },
        )
        .0
    }

    /// Build a solver for operator `apply` (created from `state` by the
    /// caller via `make_apply(&state)`).
    pub fn new(
        grid: &G,
        card: usize,
        layout: MemLayout,
        occ: OccLevel,
        make_apply: impl FnOnce(&CgState<G>) -> Container,
    ) -> Result<Self> {
        Self::with_options(
            grid,
            card,
            layout,
            SkeletonOptions::with_occ(occ),
            make_apply,
        )
    }

    /// Build a solver with full skeleton options — in particular the
    /// collective mode, which decides how the two dot-product reductions
    /// per iteration (`p·Ap` and `r·r`) are combined across devices (ring
    /// / tree all-reduce vs the host-staged baseline).
    pub fn with_options(
        grid: &G,
        card: usize,
        layout: MemLayout,
        options: SkeletonOptions,
        make_apply: impl FnOnce(&CgState<G>) -> Container,
    ) -> Result<Self> {
        let state = CgState::new(grid, card, layout)?;
        let apply = make_apply(&state);
        let backend = grid.backend().clone();
        // Init runs once; it inherits the collective mode (its rs_old
        // reduction is also lowered) but needs no OCC.
        let init_options = SkeletonOptions {
            occ: OccLevel::None,
            ..options
        };
        let init = Skeleton::sequence(&backend, "cg-init", cg_init(grid, &state), init_options);
        let iter = Skeleton::sequence(
            &backend,
            "cg-iter",
            cg_iteration(grid, &state, apply),
            options,
        );
        Ok(CgSolver { state, init, iter })
    }

    /// Run initialization (after the caller filled `state.b`).
    pub fn init(&mut self) -> ExecReport {
        self.init.run()
    }

    /// Run `n` CG iterations, returning the aggregated timing report.
    pub fn iterate(&mut self, n: usize) -> ExecReport {
        self.iter.run_iters(n)
    }

    /// Fault statistics of the iteration skeleton.
    pub fn fault_stats(&self) -> FaultStats {
        self.iter.fault_stats()
    }

    /// Current residual norm.
    pub fn residual(&self) -> f64 {
        self.state.residual_norm()
    }

    /// The iteration skeleton (for graph introspection and traces).
    pub fn iteration_skeleton(&mut self) -> &mut Skeleton {
        &mut self.iter
    }

    /// Compile statistics: cache hits and compile wall-clock time. A
    /// second structurally identical solver (same grid shape class,
    /// backend and options) reports `iter_from_cache == true` and zero
    /// compile time — the pipeline ran once, process-wide.
    pub fn compile_stats(&self) -> CompileStats {
        CompileStats {
            init_from_cache: self.init.compiled_from_cache(),
            iter_from_cache: self.iter.compiled_from_cache(),
            compile_time: self.init.compile_time() + self.iter.compile_time(),
        }
    }
}
