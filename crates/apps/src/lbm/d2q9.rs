//! 2-D Kármán vortex street on the D2Q9 lattice (paper Table I).
//!
//! Flow past a circular cylinder: equilibrium inflow on the left edge,
//! equilibrium outflow on the right, half-way bounce-back on the cylinder
//! and the top/bottom walls. The paper uses this benchmark to compare
//! Neon's single-GPU performance against Taichi's JIT-compiled kernels
//! over domain sizes 4096×1024 … 32768×8192.
//!
//! The domain is `nx × ny × 1`; since the z-extent is one layer, the app
//! requires a single-device backend (the paper's Table I is a single-GPU
//! comparison).

use neon_core::{ExecReport, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    Cell, Container, Field, FieldRead as _, FieldStencil as _, FieldWrite as _, GridLike, KernelFn,
    KernelShape, MemLayout,
};
use neon_sys::Result;

use super::d3q19::NEON_LBM_EFFICIENCY;

/// D2Q9 weights in [`neon_domain::d2q9_offsets`] slot order.
pub const D2Q9_WEIGHTS: [f64; 9] = {
    const W0: f64 = 4.0 / 9.0;
    const WA: f64 = 1.0 / 9.0;
    const WD: f64 = 1.0 / 36.0;
    [W0, WA, WA, WA, WA, WD, WD, WD, WD]
};

/// Opposite-direction table for the D2Q9 slot order.
pub const D2Q9_OPPOSITE: [usize; 9] = [0, 3, 4, 1, 2, 7, 8, 5, 6];

/// FLOPs per site update of the fused D2Q9 kernel.
pub const D2Q9_FLOPS_PER_CELL: u64 = 160;

/// BGK equilibrium population for direction `q` (D2Q9).
#[inline]
pub fn equilibrium_d2q9(q: usize, rho: f64, ux: f64, uy: f64) -> f64 {
    let o = neon_domain::d2q9_offsets()[q];
    let cu = o.dx as f64 * ux + o.dy as f64 * uy;
    let usq = ux * ux + uy * uy;
    D2Q9_WEIGHTS[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq)
}

/// Geometry and physics of the Kármán benchmark.
#[derive(Debug, Clone, Copy)]
pub struct KarmanParams {
    /// BGK relaxation rate.
    pub omega: f64,
    /// Inflow velocity along +x.
    pub u_in: f64,
    /// Cylinder centre (x, y).
    pub centre: (f64, f64),
    /// Cylinder radius.
    pub radius: f64,
}

impl KarmanParams {
    /// The conventional setup for an `nx × ny` channel: cylinder at
    /// (nx/5, ny/2), radius ny/9.
    pub fn for_domain(nx: usize, ny: usize) -> Self {
        KarmanParams {
            omega: 1.6,
            u_in: 0.08,
            centre: (nx as f64 / 5.0, ny as f64 / 2.0),
            radius: ny as f64 / 9.0,
        }
    }

    /// Whether `(x, y)` lies inside the cylinder.
    #[inline]
    pub fn in_cylinder(&self, x: i32, y: i32) -> bool {
        let dx = x as f64 + 0.5 - self.centre.0;
        let dy = y as f64 + 0.5 - self.centre.1;
        dx * dx + dy * dy <= self.radius * self.radius
    }
}

/// Fused D2Q9 collide-and-stream with cylinder/channel boundaries.
pub fn karman_step<G: GridLike>(
    grid: &G,
    f_in: &Field<f64, G>,
    f_out: &Field<f64, G>,
    params: KarmanParams,
) -> Container {
    assert_eq!(f_in.card(), 9);
    let dim = grid.dim();
    let (fi, fo) = (f_in.clone(), f_out.clone());
    let name = format!("karman({}->{})", f_in.name(), f_out.name());
    // Chunked Generic kernel — see the D3Q19 twin for the rationale.
    Container::compute_shaped_opts(
        &name,
        grid.as_space(),
        KernelShape::Generic,
        move |ldr| {
            let fin = ldr.read_stencil(&fi);
            let fout = ldr.write(&fo);
            let per_cell = move |c: Cell| {
                // Solid cells relax to rest equilibrium (they are masked
                // out of the flow by bounce-back at their fluid faces).
                if params.in_cylinder(c.x, c.y) {
                    for q in 0..9 {
                        fout.set(c, q, D2Q9_WEIGHTS[q]);
                    }
                    return;
                }
                let mut f = [0.0f64; 9];
                for q in 0..9 {
                    let qb = D2Q9_OPPOSITE[q];
                    let o = neon_domain::d2q9_offsets()[qb];
                    let (sx, sy) = (c.x + o.dx, c.y + o.dy);
                    if sx < 0 || sx >= dim.x as i32 {
                        // Inflow/outflow: impose the free-stream
                        // equilibrium.
                        f[q] = equilibrium_d2q9(q, 1.0, params.u_in, 0.0);
                    } else if sy < 0 || sy >= dim.y as i32 || params.in_cylinder(sx, sy) {
                        // Wall or cylinder: half-way bounce-back.
                        f[q] = fin.at(c, qb);
                    } else {
                        f[q] = fin.ngh(c, qb, q);
                    }
                }
                let mut rho = 0.0;
                let (mut jx, mut jy) = (0.0, 0.0);
                for q in 0..9 {
                    rho += f[q];
                    let o = neon_domain::d2q9_offsets()[q];
                    jx += o.dx as f64 * f[q];
                    jy += o.dy as f64 * f[q];
                }
                let (ux, uy) = (jx / rho, jy / rho);
                for q in 0..9 {
                    let feq = equilibrium_d2q9(q, rho, ux, uy);
                    fout.set(c, q, f[q] + params.omega * (feq - f[q]));
                }
            };
            KernelFn::chunked(move |cells: &[Cell]| {
                for &c in cells {
                    per_cell(c);
                }
            })
        },
        D2Q9_FLOPS_PER_CELL,
        NEON_LBM_EFFICIENCY,
    )
}

/// The Kármán vortex street application (twoPop swap, single device).
pub struct KarmanVortex<G: GridLike> {
    grid: G,
    f: [Field<f64, G>; 2],
    params: KarmanParams,
    skeletons: [Skeleton; 2],
    step: usize,
}

impl<G: GridLike> KarmanVortex<G> {
    /// Build on a `nx × ny × 1` grid constructed with the D2Q9 stencil.
    pub fn new(grid: &G, params: KarmanParams, occ: OccLevel) -> Result<Self> {
        assert_eq!(grid.dim().z, 1, "Kármán benchmark is two-dimensional");
        assert_eq!(
            grid.num_partitions(),
            1,
            "Table I is a single-GPU comparison; use one device"
        );
        let f0 = Field::<f64, G>::new(grid, "g0", 9, 0.0, MemLayout::SoA)?;
        let f1 = Field::<f64, G>::new(grid, "g1", 9, 0.0, MemLayout::SoA)?;
        let backend = grid.backend().clone();
        let even = Skeleton::sequence(
            &backend,
            "karman-even",
            vec![karman_step(grid, &f0, &f1, params)],
            SkeletonOptions::with_occ(occ),
        );
        let odd = Skeleton::sequence(
            &backend,
            "karman-odd",
            vec![karman_step(grid, &f1, &f0, params)],
            SkeletonOptions::with_occ(occ),
        );
        Ok(KarmanVortex {
            grid: grid.clone(),
            f: [f0, f1],
            params,
            skeletons: [even, odd],
            step: 0,
        })
    }

    /// Initialize to the free-stream equilibrium.
    pub fn init(&mut self) {
        if self.grid.storage_mode() == neon_domain::StorageMode::Real {
            let u = self.params.u_in;
            self.f[0].fill(|_, _, _, q| equilibrium_d2q9(q, 1.0, u, 0.0));
            self.f[1].fill(|_, _, _, q| equilibrium_d2q9(q, 1.0, u, 0.0));
        }
        self.step = 0;
    }

    /// Advance `n` iterations.
    pub fn step(&mut self, n: usize) -> ExecReport {
        let mut total = ExecReport::default();
        for _ in 0..n {
            let r = self.skeletons[self.step % 2].run();
            total.accumulate(r);
            self.step += 1;
        }
        total
    }

    /// Velocity at a cell.
    pub fn velocity(&self, x: i32, y: i32) -> Option<(f64, f64)> {
        let f = &self.f[self.step % 2];
        let mut rho = 0.0;
        let (mut jx, mut jy) = (0.0, 0.0);
        for q in 0..9 {
            let v = f.get(x, y, 0, q)?;
            rho += v;
            let o = neon_domain::d2q9_offsets()[q];
            jx += o.dx as f64 * v;
            jy += o.dy as f64 * v;
        }
        Some((jx / rho, jy / rho))
    }

    /// The benchmark parameters.
    pub fn params(&self) -> KarmanParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
    use neon_sys::Backend;

    #[test]
    fn d2q9_weights_and_opposites() {
        assert!((D2Q9_WEIGHTS.iter().sum::<f64>() - 1.0).abs() < 1e-15);
        let offs = neon_domain::d2q9_offsets();
        for q in 0..9 {
            assert_eq!(offs[D2Q9_OPPOSITE[q]], offs[q].opposite());
        }
    }

    #[test]
    fn equilibrium_moments_2d() {
        let (rho, ux, uy) = (0.95, 0.06, -0.01);
        let mut s = 0.0;
        let (mut jx, mut jy) = (0.0, 0.0);
        for q in 0..9 {
            let f = equilibrium_d2q9(q, rho, ux, uy);
            s += f;
            let o = neon_domain::d2q9_offsets()[q];
            jx += o.dx as f64 * f;
            jy += o.dy as f64 * f;
        }
        assert!((s - rho).abs() < 1e-12);
        assert!((jx - rho * ux).abs() < 1e-12);
        assert!((jy - rho * uy).abs() < 1e-12);
    }

    #[test]
    fn flow_develops_around_cylinder() {
        let b = Backend::dgx_a100(1);
        let st = Stencil::d2q9();
        let (nx, ny) = (60, 24);
        let g = DenseGrid::new(&b, Dim3::new(nx, ny, 1), &[&st], StorageMode::Real).unwrap();
        let params = KarmanParams::for_domain(nx, ny);
        let mut app = KarmanVortex::new(&g, params, OccLevel::None).unwrap();
        app.init();
        app.step(60);
        // Upstream of the cylinder the flow still goes +x.
        let (ux, _) = app.velocity(3, ny as i32 / 2).unwrap();
        assert!(ux > 0.01, "inflow not sustained: {ux}");
        // Inside the cylinder there's no flow.
        let (cx, cy) = params.centre;
        let (ucx, ucy) = app.velocity(cx as i32, cy as i32).unwrap();
        assert!(ucx.abs() < 1e-9 && ucy.abs() < 1e-9);
        // The wake differs from the free stream (the cylinder disturbs it).
        let (uw, _) = app
            .velocity(cx as i32 + params.radius as i32 + 2, cy as i32)
            .unwrap();
        assert!(
            (uw - ux).abs() > 1e-4,
            "wake velocity {uw} identical to upstream {ux}"
        );
        // Fields stay finite.
        assert!(ux.is_finite() && uw.is_finite());
    }

    #[test]
    fn rejects_multi_device_backends() {
        let b = Backend::dgx_a100(2);
        let st = Stencil::d2q9();
        // dim.z = 1 < 2 devices: the grid itself refuses to partition.
        let g = DenseGrid::new(&b, Dim3::new(32, 16, 1), &[&st], StorageMode::Real);
        assert!(g.is_err());
    }
}
