//! D3Q19 twoPop lid-driven cavity (paper §VI-A, Table II, Fig. 7).
//!
//! The *twoPop* variant keeps two 19-component population fields and swaps
//! them every iteration; collide and streaming are fused into a single
//! pull-form kernel, so each iteration is exactly one stencil container —
//! which is why the paper notes only Standard OCC applies to this
//! application.
//!
//! Boundary conditions: half-way bounce-back on all six cavity walls, with
//! the moving-wall momentum correction `6·w_q·(c_q · u_w)` on the lid
//! plane `y = ny−1` (fluid density ρ₀ = 1).

use neon_core::{
    ExecError, ExecReport, FaultPlan, FaultStats, OccLevel, Skeleton, SkeletonOptions,
};
use neon_domain::{
    Cell, Container, Field, FieldRead as _, FieldStencil as _, FieldWrite as _, GridLike, KernelFn,
    KernelShape,
};
use neon_sys::Result;

/// Achieved-bandwidth fraction of Neon's fused LBM kernel relative to the
/// device model's effective bandwidth. Calibrated so that single-GPU
/// MLUPS lands within 1 % of the native-CUDA `cuboltz` comparator, as the
/// paper reports (Table II).
pub const NEON_LBM_EFFICIENCY: f64 = 0.79;

/// FLOPs per lattice-site update of the fused D3Q19 BGK kernel
/// (macroscopic moments + 19 equilibrium evaluations).
pub const D3Q19_FLOPS_PER_CELL: u64 = 350;

/// D3Q19 quadrature weights, matching
/// [`neon_domain::d3q19_offsets`] slot order.
pub const D3Q19_WEIGHTS: [f64; 19] = {
    const W0: f64 = 1.0 / 3.0;
    const WF: f64 = 1.0 / 18.0;
    const WE: f64 = 1.0 / 36.0;
    [
        W0, WF, WF, WF, WF, WF, WF, WE, WE, WE, WE, WE, WE, WE, WE, WE, WE, WE, WE,
    ]
};

/// Opposite-direction table for the D3Q19 slot order.
pub const D3Q19_OPPOSITE: [usize; 19] = [
    0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
];

/// Physical parameters of the cavity benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LbmParams {
    /// BGK relaxation rate ω = 1/τ.
    pub omega: f64,
    /// Lid velocity along +x.
    pub u_lid: f64,
}

impl Default for LbmParams {
    fn default() -> Self {
        LbmParams {
            omega: 1.0,
            u_lid: 0.1,
        }
    }
}

/// BGK equilibrium population for direction `q` (D3Q19).
#[inline]
pub fn equilibrium_d3q19(q: usize, rho: f64, ux: f64, uy: f64, uz: f64) -> f64 {
    let o = neon_domain::d3q19_offsets()[q];
    let cu = o.dx as f64 * ux + o.dy as f64 * uy + o.dz as f64 * uz;
    let usq = ux * ux + uy * uy + uz * uz;
    D3Q19_WEIGHTS[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq)
}

/// The fused collide-and-stream container `f_out ← C(S(f_in))`.
///
/// Grid-generic: works on dense and element-sparse grids. The grid must
/// have been constructed with [`neon_domain::Stencil::d3q19`] so the slot
/// order matches the velocity set.
pub fn stream_collide<G: GridLike>(
    grid: &G,
    f_in: &Field<f64, G>,
    f_out: &Field<f64, G>,
    params: LbmParams,
) -> Container {
    assert_eq!(f_in.card(), 19);
    assert_eq!(f_out.card(), 19);
    let dim = grid.dim();
    let (fi, fo) = (f_in.clone(), f_out.clone());
    let name = format!("lbm({}->{})", f_in.name(), f_out.name());
    // Chunked kernel: the `dyn` dispatch boundary is crossed once per
    // CELL_CHUNK cells. No named shape fits a 19-point pull kernel, so the
    // shape stays Generic — the chunking alone carries the dispatch win.
    Container::compute_shaped_opts(
        &name,
        grid.as_space(),
        KernelShape::Generic,
        move |ldr| {
            let fin = ldr.read_stencil(&fi);
            let fout = ldr.write(&fo);
            let omega = params.omega;
            let u_lid = params.u_lid;
            let per_cell = move |c: Cell| {
                let mut f = [0.0f64; 19];
                for q in 0..19 {
                    let qb = D3Q19_OPPOSITE[q];
                    // Pull from the upstream neighbour (direction -c_q).
                    if fin.ngh_active(c, qb) {
                        f[q] = fin.ngh(c, qb, q);
                    } else {
                        // Half-way bounce-back off the wall crossed in
                        // direction c_qb; the lid plane y = ny-1 moves.
                        let o = neon_domain::d3q19_offsets()[qb];
                        let wall_is_lid = c.y + o.dy >= dim.y as i32;
                        let corr = if wall_is_lid {
                            let oq = neon_domain::d3q19_offsets()[q];
                            6.0 * D3Q19_WEIGHTS[q] * (oq.dx as f64 * u_lid)
                        } else {
                            0.0
                        };
                        f[q] = fin.at(c, qb) + corr;
                    }
                }
                let mut rho = 0.0;
                let (mut jx, mut jy, mut jz) = (0.0, 0.0, 0.0);
                for q in 0..19 {
                    rho += f[q];
                    let o = neon_domain::d3q19_offsets()[q];
                    jx += o.dx as f64 * f[q];
                    jy += o.dy as f64 * f[q];
                    jz += o.dz as f64 * f[q];
                }
                let (ux, uy, uz) = (jx / rho, jy / rho, jz / rho);
                for q in 0..19 {
                    let feq = equilibrium_d3q19(q, rho, ux, uy, uz);
                    fout.set(c, q, f[q] + omega * (feq - f[q]));
                }
            };
            KernelFn::chunked(move |cells: &[Cell]| {
                for &c in cells {
                    per_cell(c);
                }
            })
        },
        D3Q19_FLOPS_PER_CELL,
        NEON_LBM_EFFICIENCY,
    )
}

/// The lid-driven cavity application: two population fields and two
/// skeletons (even and odd iterations of the twoPop swap).
pub struct LidDrivenCavity<G: GridLike> {
    grid: G,
    f: [Field<f64, G>; 2],
    params: LbmParams,
    skeletons: [Skeleton; 2],
    step: usize,
}

impl<G: GridLike> LidDrivenCavity<G> {
    /// Build the application on `grid` (constructed with the D3Q19
    /// stencil) with the chosen OCC level.
    pub fn new(grid: &G, params: LbmParams, occ: OccLevel) -> Result<Self> {
        // Layout as policy: let layout-select pick for a 19-component
        // stencil-read field — AoS when halos are live (2 transfers per
        // partition pair instead of 2·19), SoA on a single partition.
        // Numerics are layout-transparent, so either choice is exact.
        let layout = neon_core::recommend_layout(
            neon_core::LayoutPolicy::Auto,
            neon_core::AccessSummary {
                card: 19,
                stencil: true,
                live_halo: grid.num_partitions() > 1,
            },
        )
        .0;
        let f0 = Field::<f64, G>::new(grid, "f0", 19, 0.0, layout)?;
        let f1 = Field::<f64, G>::new(grid, "f1", 19, 0.0, layout)?;
        let backend = grid.backend().clone();
        let even = Skeleton::sequence(
            &backend,
            "lbm-even",
            vec![stream_collide(grid, &f0, &f1, params)],
            SkeletonOptions::with_occ(occ),
        );
        let odd = Skeleton::sequence(
            &backend,
            "lbm-odd",
            vec![stream_collide(grid, &f1, &f0, params)],
            SkeletonOptions::with_occ(occ),
        );
        Ok(LidDrivenCavity {
            grid: grid.clone(),
            f: [f0, f1],
            params,
            skeletons: [even, odd],
            step: 0,
        })
    }

    /// Initialize populations to the rest equilibrium (ρ = 1, u = 0).
    pub fn init(&mut self) {
        if self.grid.storage_mode() == neon_domain::StorageMode::Real {
            self.f[0].fill(|_, _, _, q| D3Q19_WEIGHTS[q]);
            self.f[1].fill(|_, _, _, q| D3Q19_WEIGHTS[q]);
        }
        self.step = 0;
    }

    /// Advance `n` iterations, returning the aggregated timing report.
    pub fn step(&mut self, n: usize) -> ExecReport {
        let mut total = ExecReport::default();
        for _ in 0..n {
            let r = self
                .try_step()
                .unwrap_or_else(|e| panic!("lbm step failed: {e}"));
            total.accumulate(r);
        }
        total
    }

    /// Advance one iteration, reporting failures as values. The step index
    /// is the logical iteration fault plans target; it advances only on
    /// success.
    pub fn try_step(&mut self) -> std::result::Result<ExecReport, ExecError> {
        let sk = &mut self.skeletons[self.step % 2];
        sk.set_logical_iteration(self.step as u64);
        let r = sk.try_run()?;
        self.step += 1;
        Ok(r)
    }

    /// Install `plan` on both ping-pong skeletons. Each runs only its own
    /// parity's logical iterations, so every spec fires at most once.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for sk in &mut self.skeletons {
            sk.install_fault_plan(plan.clone());
        }
    }

    /// Fault counters of both ping-pong skeletons, summed.
    pub fn fault_stats(&self) -> FaultStats {
        self.skeletons[0].fault_stats() + self.skeletons[1].fault_stats()
    }

    /// The field currently holding the latest populations.
    pub fn current(&self) -> &Field<f64, G> {
        &self.f[self.step % 2]
    }

    /// Population field of one ping-pong parity (`0` or `1`) — migration
    /// copies both, since the next step reads the one the last step wrote.
    pub fn population(&self, parity: usize) -> &Field<f64, G> {
        &self.f[parity % 2]
    }

    /// The solver parameters.
    pub fn params(&self) -> LbmParams {
        self.params
    }

    /// Density and velocity at a cell (host-side diagnostic).
    pub fn macroscopic(&self, x: i32, y: i32, z: i32) -> Option<(f64, [f64; 3])> {
        let f = self.current();
        let mut rho = 0.0;
        let mut j = [0.0; 3];
        for q in 0..19 {
            let v = f.get(x, y, z, q)?;
            rho += v;
            let o = neon_domain::d3q19_offsets()[q];
            j[0] += o.dx as f64 * v;
            j[1] += o.dy as f64 * v;
            j[2] += o.dz as f64 * v;
        }
        Some((rho, [j[0] / rho, j[1] / rho, j[2] / rho]))
    }

    /// Total mass Σ f (conserved by bounce-back walls).
    pub fn total_mass(&self) -> f64 {
        let mut m = 0.0;
        self.current().for_each(|_, _, _, _, v| m += v);
        m
    }

    /// The even-iteration skeleton, for introspection.
    pub fn skeleton(&mut self) -> &mut Skeleton {
        &mut self.skeletons[0]
    }

    /// Completed time steps (the ping-pong parity: even steps read `f0`,
    /// odd steps read `f1`).
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// Restore the step counter to `step` — the companion of a state
    /// rollback or migration: parity decides which population field
    /// [`LidDrivenCavity::current`] reads and which skeleton runs next, so
    /// restoring populations without restoring parity would corrupt the
    /// ping-pong.
    pub fn set_step_index(&mut self, step: usize) {
        self.step = step;
    }

    /// Type-erased state handles of *both* population fields, deduplicated
    /// — the union of the two ping-pong skeletons' write sets. A checkpoint
    /// at an iteration boundary must capture both parities: the next step
    /// reads the field the previous step wrote.
    pub fn checkpoint_handles(&self) -> Vec<std::sync::Arc<dyn neon_set::StateHandle>> {
        let mut seen = std::collections::HashSet::new();
        let mut out: Vec<std::sync::Arc<dyn neon_set::StateHandle>> = Vec::new();
        for sk in &self.skeletons {
            for h in sk.state_handles() {
                if seen.insert(h.state_uid()) {
                    out.push(h);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
    use neon_sys::Backend;

    #[test]
    fn weights_sum_to_one() {
        let s: f64 = D3Q19_WEIGHTS.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
    }

    #[test]
    fn opposite_table_is_consistent() {
        let offs = neon_domain::d3q19_offsets();
        for q in 0..19 {
            assert_eq!(offs[D3Q19_OPPOSITE[q]], offs[q].opposite());
            assert_eq!(D3Q19_OPPOSITE[D3Q19_OPPOSITE[q]], q);
        }
    }

    #[test]
    fn equilibrium_moments() {
        // Σ feq = ρ and Σ c·feq = ρ·u (exact for the D3Q19 quadrature).
        let (rho, u) = (1.3, [0.05, -0.02, 0.01]);
        let mut s = 0.0;
        let mut j = [0.0; 3];
        for q in 0..19 {
            let f = equilibrium_d3q19(q, rho, u[0], u[1], u[2]);
            s += f;
            let o = neon_domain::d3q19_offsets()[q];
            j[0] += o.dx as f64 * f;
            j[1] += o.dy as f64 * f;
            j[2] += o.dz as f64 * f;
        }
        assert!((s - rho).abs() < 1e-12);
        for k in 0..3 {
            assert!((j[k] - rho * u[k]).abs() < 1e-12, "component {k}");
        }
    }

    #[test]
    fn mass_conserved_over_iterations() {
        let b = Backend::dgx_a100(2);
        let st = Stencil::d3q19();
        let g = DenseGrid::new(&b, Dim3::cube(12), &[&st], StorageMode::Real).unwrap();
        let mut app = LidDrivenCavity::new(&g, LbmParams::default(), OccLevel::Standard).unwrap();
        app.init();
        let m0 = app.total_mass();
        app.step(20);
        let m = app.total_mass();
        assert!((m - m0).abs() < 1e-9 * m0, "mass drifted: {m0} → {m}");
    }

    #[test]
    fn lid_drives_flow() {
        let b = Backend::dgx_a100(1);
        let st = Stencil::d3q19();
        let g = DenseGrid::new(&b, Dim3::cube(12), &[&st], StorageMode::Real).unwrap();
        let mut app = LidDrivenCavity::new(&g, LbmParams::default(), OccLevel::None).unwrap();
        app.init();
        app.step(50);
        // Near the lid the fluid moves in +x.
        let (_, u) = app.macroscopic(6, 10, 6).unwrap();
        assert!(u[0] > 1e-4, "no flow near lid: {u:?}");
        // At the bottom it's (much) slower.
        let (_, ub) = app.macroscopic(6, 1, 6).unwrap();
        assert!(ub[0].abs() < u[0]);
    }

    #[test]
    fn multi_gpu_matches_single_gpu_exactly() {
        let run = |n_dev: usize| {
            let b = Backend::dgx_a100(n_dev);
            let st = Stencil::d3q19();
            let g = DenseGrid::new(&b, Dim3::new(8, 8, 12), &[&st], StorageMode::Real).unwrap();
            let mut app =
                LidDrivenCavity::new(&g, LbmParams::default(), OccLevel::Standard).unwrap();
            app.init();
            app.step(12);
            let mut out = Vec::new();
            app.current().for_each(|_, _, _, _, v| out.push(v));
            out
        };
        let a = run(1);
        let bb = run(3);
        assert_eq!(a.len(), bb.len());
        for (x, y) in a.iter().zip(&bb) {
            assert!((x - y).abs() < 1e-13, "{x} vs {y}");
        }
    }
}
