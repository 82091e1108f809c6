//! Finite-difference Poisson solver (paper §VI-B).
//!
//! Solves `-∇²u = b` on a Cartesian grid with homogeneous Dirichlet
//! boundary conditions (the outside-domain value 0 acts as the boundary),
//! using the standard 7-point stencil (paper Listing 2) and the matrix-free
//! CG solver of [`crate::cg`] (paper Listing 3).
//!
//! The matrix-free operator is `(A·p)[i] = 6·p[i] − Σ_{j∈N(i)} p[j]`,
//! which is symmetric positive definite under Dirichlet conditions, so CG
//! converges. Neon's stencil kernel carries a small bandwidth-efficiency
//! penalty versus the hand-tuned CUDA baseline, modelling the out-of-bound
//! guards the paper cites as Neon's only overhead (§VI-B).

use neon_core::OccLevel;
use neon_domain::{
    Cell, Container, Field, FieldRead as _, FieldStencil as _, FieldWrite as _, GridLike, KernelFn,
    KernelShape, MemLayout,
};
use neon_sys::Result;

use crate::cg::{CgSolver, CgState};

/// Achieved-bandwidth fraction of Neon's guarded stencil kernel relative
/// to the hand-tuned baseline (paper §VI-B: "minimal overhead … mainly due
/// to Neon's checks to prevent out-of-bound accesses").
pub const NEON_STENCIL_EFFICIENCY: f64 = 0.96;

/// Build the 7-point negative-Laplacian container `Ap ← A·p`.
///
/// Declared [`KernelShape::MapStencil7`] with a chunked kernel: the
/// `dyn` dispatch boundary is crossed once per [`neon_set::CELL_CHUNK`]
/// cells, and the shape feeds the `layout-select` pass.
pub fn laplacian_apply<G: GridLike>(grid: &G, state: &CgState<G>) -> Container {
    let (p, ap) = (state.p.clone(), state.ap.clone());
    Container::compute_shaped_opts(
        "LaplacianStencil",
        grid.as_space(),
        KernelShape::MapStencil7,
        move |ldr| {
            let pv = ldr.read_stencil(&p);
            let av = ldr.write(&ap);
            KernelFn::chunked(move |cells: &[Cell]| {
                for &c in cells {
                    let mut s = 0.0;
                    for slot in 0..6 {
                        s += pv.ngh(c, slot, 0);
                    }
                    av.set(c, 0, 6.0 * pv.at(c, 0) - s);
                }
            })
        },
        0,
        NEON_STENCIL_EFFICIENCY,
    )
}

/// A ready-to-run Poisson CG solver on any grid type.
pub struct PoissonSolver<G: GridLike> {
    /// The underlying CG machinery.
    pub cg: CgSolver<G>,
}

impl<G: GridLike> PoissonSolver<G> {
    /// Create the solver with the given OCC level.
    pub fn new(grid: &G, occ: OccLevel) -> Result<Self> {
        let cg = CgSolver::new(grid, 1, MemLayout::SoA, occ, |state| {
            laplacian_apply(grid, state)
        })?;
        Ok(PoissonSolver { cg })
    }

    /// Create the solver with full skeleton options (OCC level, collective
    /// mode for the dot-product all-reduces, tracing, …).
    pub fn with_options(grid: &G, options: neon_core::SkeletonOptions) -> Result<Self> {
        let cg = CgSolver::with_options(grid, 1, MemLayout::SoA, options, |state| {
            laplacian_apply(grid, state)
        })?;
        Ok(PoissonSolver { cg })
    }

    /// Fill the right-hand side from `f(x, y, z)` and initialize CG,
    /// returning the initialization's report.
    pub fn set_rhs(&mut self, f: impl Fn(i32, i32, i32) -> f64) -> neon_core::ExecReport {
        self.cg.state.b.fill(|x, y, z, _| f(x, y, z));
        self.cg.init()
    }

    /// Run `n` CG iterations; returns the per-iteration virtual time.
    pub fn solve_iters(&mut self, n: usize) -> neon_core::ExecReport {
        self.cg.iterate(n)
    }

    /// Residual norm ‖b − A·x‖.
    pub fn residual(&self) -> f64 {
        self.cg.residual()
    }

    /// The solution field.
    pub fn solution(&self) -> &Field<f64, G> {
        &self.cg.state.x
    }
}

/// Host-side reference: apply the same 7-point operator to a dense array
/// (used to verify the solver and to build right-hand sides with known
/// solutions).
pub fn apply_operator_host(dim: (usize, usize, usize), u: &[f64], out: &mut [f64]) {
    let (nx, ny, nz) = dim;
    assert_eq!(u.len(), nx * ny * nz);
    assert_eq!(out.len(), u.len());
    let at = |x: i64, y: i64, z: i64| -> f64 {
        if x < 0 || y < 0 || z < 0 || x >= nx as i64 || y >= ny as i64 || z >= nz as i64 {
            0.0
        } else {
            u[(z as usize * ny + y as usize) * nx + x as usize]
        }
    };
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                let idx = (z as usize * ny + y as usize) * nx + x as usize;
                out[idx] = 6.0 * at(x, y, z)
                    - at(x - 1, y, z)
                    - at(x + 1, y, z)
                    - at(x, y - 1, z)
                    - at(x, y + 1, z)
                    - at(x, y, z - 1)
                    - at(x, y, z + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_domain::{DenseGrid, Dim3, SparseGrid, Stencil, StorageMode};
    use neon_sys::Backend;

    fn host_index(dim: Dim3, x: i32, y: i32, z: i32) -> usize {
        (z as usize * dim.y + y as usize) * dim.x + x as usize
    }

    #[test]
    fn operator_matches_host_reference() {
        let b = Backend::dgx_a100(2);
        let st = Stencil::seven_point();
        let dim = Dim3::new(6, 6, 8);
        let g = DenseGrid::new(&b, dim, &[&st], StorageMode::Real).unwrap();
        let mut solver = PoissonSolver::new(&g, OccLevel::None).unwrap();
        // One CG iteration from r = b: p = b, Ap = A·b.
        solver.set_rhs(|x, y, z| ((x * 3 + y * 5 + z * 7) % 11) as f64 - 5.0);
        solver.solve_iters(1);
        // Host reference.
        let mut u = vec![0.0; (dim.count()) as usize];
        solver.cg.state.b.for_each(|x, y, z, _, v| {
            u[host_index(dim, x, y, z)] = v;
        });
        let mut expect = vec![0.0; u.len()];
        apply_operator_host((dim.x, dim.y, dim.z), &u, &mut expect);
        solver.cg.state.ap.for_each(|x, y, z, _, v| {
            let e = expect[host_index(dim, x, y, z)];
            assert!(
                (v - e).abs() < 1e-12,
                "Ap mismatch at ({x},{y},{z}): {v} vs {e}"
            );
        });
    }

    #[test]
    fn cg_converges_to_known_solution() {
        let b = Backend::dgx_a100(2);
        let st = Stencil::seven_point();
        let dim = Dim3::new(8, 8, 8);
        let g = DenseGrid::new(&b, dim, &[&st], StorageMode::Real).unwrap();
        // Choose a solution, build b = A·u_true, solve, compare.
        let u_true = |x: i32, y: i32, z: i32| ((x + 1) * (y + 2) % 7) as f64 * 0.1 + (z % 3) as f64;
        let mut u = vec![0.0; dim.count() as usize];
        for z in 0..8 {
            for y in 0..8 {
                for x in 0..8 {
                    u[host_index(dim, x, y, z)] = u_true(x, y, z);
                }
            }
        }
        let mut rhs = vec![0.0; u.len()];
        apply_operator_host((8, 8, 8), &u, &mut rhs);

        let mut solver = PoissonSolver::new(&g, OccLevel::TwoWayExtended).unwrap();
        solver.set_rhs(|x, y, z| rhs[host_index(dim, x, y, z)]);
        let r0 = {
            solver.solve_iters(1);
            solver.residual()
        };
        solver.solve_iters(400);
        let r = solver.residual();
        assert!(r < 1e-8 * r0.max(1.0), "CG did not converge: {r} (r0 {r0})");
        solver.solution().for_each(|x, y, z, _, v| {
            assert!(
                (v - u_true(x, y, z)).abs() < 1e-6,
                "solution mismatch at ({x},{y},{z})"
            );
        });
    }

    #[test]
    fn residual_decreases_monotonically_in_norm() {
        let b = Backend::dgx_a100(4);
        let st = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(6, 6, 12), &[&st], StorageMode::Real).unwrap();
        let mut solver = PoissonSolver::new(&g, OccLevel::Standard).unwrap();
        solver.set_rhs(|x, _, _| if x == 3 { 1.0 } else { 0.0 });
        let mut last = f64::INFINITY;
        let mut decreases = 0;
        for _ in 0..20 {
            solver.solve_iters(1);
            let r = solver.residual();
            if r <= last {
                decreases += 1;
            }
            last = r;
        }
        // CG residuals aren't strictly monotone, but most steps shrink.
        assert!(decreases >= 16, "only {decreases}/20 iterations decreased");
    }

    #[test]
    fn occ_levels_agree_numerically() {
        let dim = Dim3::new(6, 6, 8);
        let mk = |occ: OccLevel| {
            let b = Backend::dgx_a100(2);
            let st = Stencil::seven_point();
            let g = DenseGrid::new(&b, dim, &[&st], StorageMode::Real).unwrap();
            let mut s = PoissonSolver::new(&g, occ).unwrap();
            s.set_rhs(|x, y, z| ((x ^ y ^ z) % 5) as f64);
            s.solve_iters(25);
            let mut out = Vec::new();
            s.solution().for_each(|_, _, _, _, v| out.push(v));
            (out, s.residual())
        };
        let (ref_x, ref_r) = mk(OccLevel::None);
        for occ in [
            OccLevel::Standard,
            OccLevel::Extended,
            OccLevel::TwoWayExtended,
        ] {
            let (x, r) = mk(occ);
            for (a, bb) in x.iter().zip(&ref_x) {
                assert!((a - bb).abs() < 1e-10, "{occ} diverges");
            }
            assert!((r - ref_r).abs() < 1e-10);
        }
    }

    #[test]
    fn sparse_full_mask_matches_dense() {
        let dim = Dim3::new(6, 6, 8);
        let bk = Backend::dgx_a100(2);
        let st = Stencil::seven_point();
        let dg = DenseGrid::new(&bk, dim, &[&st], StorageMode::Real).unwrap();
        let sg = SparseGrid::new(&bk, dim, &[&st], |_, _, _| true, StorageMode::Real).unwrap();
        let rhs = |x: i32, y: i32, z: i32| ((x * 5 + y * 3 + z) % 7) as f64 - 3.0;
        let mut ds = PoissonSolver::new(&dg, OccLevel::Standard).unwrap();
        ds.set_rhs(rhs);
        ds.solve_iters(30);
        let mut ss = PoissonSolver::new(&sg, OccLevel::Standard).unwrap();
        ss.set_rhs(rhs);
        ss.solve_iters(30);
        ds.solution().for_each(|x, y, z, _, v| {
            let s = ss.solution().get(x, y, z, 0).unwrap();
            assert!(
                (v - s).abs() < 1e-10,
                "dense/sparse mismatch at ({x},{y},{z})"
            );
        });
    }
}
