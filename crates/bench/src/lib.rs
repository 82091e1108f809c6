//! Shared harness utilities for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper's evaluation (§VI) has a
//! `repro_*` binary in `src/bin/` that regenerates it; this library holds
//! the common pieces: timing-only application runners over large virtual
//! domains, the analytic CUDA+cuBLAS Poisson baseline, efficiency
//! arithmetic, and plain-text table rendering.

use neon_core::OccLevel;
use neon_domain::{DenseGrid, Dim3, SparseGrid, Stencil, StorageMode};
use neon_sys::{Backend, BackendKind, DeviceModel, LinkModel, Result, SimTime, Topology};

use neon_apps::fem::{ElasticitySolver, Material};
use neon_apps::lbm::{LbmParams, LidDrivenCavity};
use neon_apps::PoissonSolver;

/// Parallel efficiency as the paper defines it:
/// `Efficiency(n) = t_baseline / (n · t_n)`.
pub fn efficiency(t_baseline: SimTime, n: usize, t_n: SimTime) -> f64 {
    t_baseline.as_us() / (n as f64 * t_n.as_us())
}

/// A DGX-A100-class backend with a custom inter-device link (used for the
/// "infinitely fast interconnect" reference that isolates communication
/// cost, and for NVLink/PCIe ablations).
pub fn a100_backend_with_link(n: usize, link: LinkModel) -> Backend {
    let dev = DeviceModel::a100_40gb();
    let local = dev.mem_bandwidth_gb_s;
    Backend::new(
        BackendKind::Gpu,
        vec![dev; n],
        Topology::from_fn(n, move |s, d| {
            if s == d {
                LinkModel::local(local)
            } else {
                link
            }
        }),
    )
    .expect("valid backend")
}

/// An idealized link: effectively free communication.
pub fn infinite_link() -> LinkModel {
    LinkModel {
        kind: neon_sys::LinkKind::NvLink,
        latency_us: 0.0,
        bandwidth_gb_s: 1e9,
    }
}

/// Per-iteration virtual time of the D3Q19 twoPop cavity on a virtual
/// (timing-only) dense grid.
pub fn lbm_cavity_iter_time(backend: &Backend, n: usize, occ: OccLevel, iters: usize) -> SimTime {
    let st = Stencil::d3q19();
    let g = DenseGrid::new(backend, Dim3::cube(n), &[&st], StorageMode::Virtual)
        .expect("grid construction");
    let mut app = LidDrivenCavity::new(&g, LbmParams::default(), occ).expect("field allocation");
    app.init();
    app.step(iters).time_per_execution()
}

/// Per-iteration virtual time of the Poisson CG solver on a virtual grid.
pub fn poisson_iter_time(backend: &Backend, n: usize, occ: OccLevel, iters: usize) -> SimTime {
    let st = Stencil::seven_point();
    let g = DenseGrid::new(backend, Dim3::cube(n), &[&st], StorageMode::Virtual)
        .expect("grid construction");
    let mut solver = PoissonSolver::new(&g, occ).expect("field allocation");
    solver.solve_iters(iters).time_per_execution()
}

/// Compile-vs-run split of the Poisson CG solver: returns the compile
/// wall-clock time, the per-iteration virtual run time, and whether the
/// iteration plan came from the process-wide plan cache. Building the
/// same configuration twice demonstrates the cache: the second call
/// reports zero compile time and a hit — even for a different grid size,
/// since the plan key is structural.
pub fn poisson_compile_run_split(
    backend: &Backend,
    n: usize,
    occ: OccLevel,
    iters: usize,
) -> (SimTime, SimTime, bool) {
    let st = Stencil::seven_point();
    let g = DenseGrid::new(backend, Dim3::cube(n), &[&st], StorageMode::Virtual)
        .expect("grid construction");
    let mut solver = PoissonSolver::new(&g, occ).expect("field allocation");
    let stats = solver.cg.compile_stats();
    let t = solver.solve_iters(iters).time_per_execution();
    (stats.compile_time, t, stats.iter_from_cache)
}

/// Per-iteration virtual time of the FEM elasticity CG on a dense grid.
/// Returns `Err` on simulated OOM.
pub fn fem_dense_iter_time(
    backend: &Backend,
    n: usize,
    occ: OccLevel,
    iters: usize,
) -> Result<SimTime> {
    let st = Stencil::twenty_seven_point();
    let g = DenseGrid::new(backend, Dim3::cube(n), &[&st], StorageMode::Virtual)?;
    let mut solver = ElasticitySolver::new(&g, Material::default(), Default::default(), occ)?;
    Ok(solver.solve_iters(iters).time_per_execution())
}

/// Per-iteration virtual time of the FEM elasticity CG on an element-
/// sparse grid whose active region is a centred solid cube occupying
/// `ratio` of the domain volume. Returns `Err` on simulated OOM.
pub fn fem_sparse_iter_time(
    backend: &Backend,
    n: usize,
    ratio: f64,
    occ: OccLevel,
    iters: usize,
) -> Result<SimTime> {
    let g = sparse_cube_grid(backend, n, ratio, StorageMode::Virtual)?;
    let mut solver = ElasticitySolver::new(&g, Material::default(), Default::default(), occ)?;
    Ok(solver.solve_iters(iters).time_per_execution())
}

/// An element-sparse grid whose active cells form a centred cube with
/// volume fraction `ratio` of the `n³` domain.
pub fn sparse_cube_grid(
    backend: &Backend,
    n: usize,
    ratio: f64,
    mode: StorageMode,
) -> Result<SparseGrid> {
    let side = (n as f64 * ratio.cbrt()).round().max(2.0) as i32;
    let lo_xy = ((n as i32) - side) / 2;
    let hi_xy = lo_xy + side;
    let inside = move |v: i32| v >= lo_xy && v < hi_xy;
    // Anchor the cube at z = 0 so the Dirichlet plane exists, extend to
    // `side` layers; every device must own at least one layer, so the
    // mask spans all z for very low ratios via a thin column fallback.
    let st = Stencil::twenty_seven_point();
    SparseGrid::new(
        backend,
        Dim3::cube(n),
        &[&st],
        move |x, y, z| inside(x) && inside(y) && z < side.max(backend_num(backend) as i32),
        mode,
    )
}

fn backend_num(b: &Backend) -> usize {
    b.num_devices()
}

/// Device memory a FEM solve needs per device, in bytes: the maximum over
/// devices of fields + (for sparse) connectivity/coordinates — measured
/// from the ledgers after allocation.
pub fn peak_device_demand(backend: &Backend) -> u64 {
    (0..backend.num_devices())
        .map(|d| backend.ledger(neon_sys::DeviceId(d)).peak())
        .max()
        .unwrap_or(0)
}

/// The paper's hand-tuned CUDA+cuBLAS Poisson baseline on one GPU:
/// UpdateP, unguarded 7-pt stencil, cuBLAS dot ×2, AXPY ×2, and two
/// host synchronizations per CG iteration — no framework overheads.
pub fn poisson_baseline_single_gpu(device: &DeviceModel, n: usize) -> SimTime {
    let cells = (n * n * n) as u64;
    let mut t = SimTime::ZERO;
    // UpdateP: read r, read+write p (24 B/cell).
    t += device.kernel_time(cells * 24, 0, 1.0);
    // Stencil: read p, write Ap (16 B/cell), full bandwidth (no guards).
    t += device.kernel_time(cells * 16, 0, 1.0);
    // cuBLAS dot(p, Ap): 16 B/cell.
    t += device.kernel_time(cells * 16, 0, 1.0);
    // x += a p; r -= a Ap: 24 B/cell each.
    t += device.kernel_time(cells * 24, 0, 1.0);
    t += device.kernel_time(cells * 24, 0, 1.0);
    // cuBLAS dot(r, r): 8 B/cell (one operand, cached second read).
    t += device.kernel_time(cells * 8, 0, 1.0);
    // Two host round trips (alpha, beta).
    t += device.sync_overhead();
    t += device.sync_overhead();
    t
}

/// Render an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{c:>w$}", w = w));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_math() {
        let t1 = SimTime::from_us(800.0);
        let t8 = SimTime::from_us(100.0);
        assert!((efficiency(t1, 8, t8) - 1.0).abs() < 1e-12);
        let t8_slow = SimTime::from_us(125.0);
        assert!((efficiency(t1, 8, t8_slow) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn baseline_poisson_is_bandwidth_dominated() {
        let d = DeviceModel::a100_40gb();
        let t = poisson_baseline_single_gpu(&d, 320);
        // 320³ × 144 B total ≈ 4.7 GB at 1555 GB/s ≈ 3 ms.
        assert!(t.as_ms() > 2.0 && t.as_ms() < 5.0, "baseline off: {t}");
    }

    #[test]
    fn lbm_runner_produces_sane_times() {
        let b = Backend::dgx_a100(8);
        let t = lbm_cavity_iter_time(&b, 192, OccLevel::Standard, 3);
        assert!(t.as_us() > 50.0 && t.as_us() < 2000.0, "got {t}");
    }

    #[test]
    fn infinite_link_removes_comm_cost() {
        let real = Backend::dgx_a100(8);
        let free = a100_backend_with_link(8, infinite_link());
        let t_real = lbm_cavity_iter_time(&real, 192, OccLevel::None, 3);
        let t_free = lbm_cavity_iter_time(&free, 192, OccLevel::None, 3);
        assert!(t_free < t_real, "{t_free} !< {t_real}");
    }

    #[test]
    fn sparse_cube_ratio_controls_active_cells() {
        let b = Backend::dgx_a100(2);
        let full = sparse_cube_grid(&b, 32, 1.0, StorageMode::Virtual).unwrap();
        let fifth = sparse_cube_grid(&b, 32, 0.2, StorageMode::Virtual).unwrap();
        use neon_domain::GridLike as _;
        let r = fifth.active_cells() as f64 / full.active_cells() as f64;
        assert!((r - 0.2).abs() < 0.05, "ratio off: {r}");
    }

    #[test]
    fn compile_run_split_hits_cache_on_rebuild() {
        // A backend shape no other test uses, so the first build is a
        // guaranteed miss even with the process-wide cache warm.
        let b = Backend::gv100_pcie(3);
        let (_, _, _) = poisson_compile_run_split(&b, 24, OccLevel::Extended, 1);
        let (compile2, _, hit2) = poisson_compile_run_split(&b, 48, OccLevel::Extended, 1);
        assert!(hit2, "structurally identical rebuild must hit the cache");
        assert_eq!(compile2.as_us(), 0.0, "cache hit does no compile work");
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
    }
}
