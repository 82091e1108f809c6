//! Reproduces **Table I** of the paper: Neon vs Taichi on the 2-D Kármán
//! vortex street (D2Q9 LBM), single A100, LUPS over growing domains.
//!
//! Neon's numbers come from actually running the Kármán skeleton on the
//! virtual clock; Taichi is the analytic JIT-framework model (same kernel
//! quality at scale, larger per-iteration dispatch overhead — see
//! DESIGN.md §2 for the substitution argument).

use neon_apps::lbm::d2q9::{KarmanParams, KarmanVortex};
use neon_apps::lbm::{mlups, AnalyticLbm};
use neon_bench::render_table;
use neon_core::OccLevel;
use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
use neon_sys::Backend;

fn main() {
    const ITERS: usize = 10;
    let backend = Backend::dgx_a100(1);
    let taichi = AnalyticLbm::taichi_d2q9();
    let device = backend.device(neon_sys::DeviceId(0)).clone();

    println!("== Table I: Neon vs Taichi, 2-D Karman vortex (D2Q9), 1x A100 ==\n");
    let mut rows = Vec::new();
    for (nx, ny) in [(4096, 1024), (8192, 2048), (16384, 4096), (32768, 8192)] {
        // Cached plans pin the previous size's fields (the plan holds the
        // container Arcs); drop them so the ledgers free the old grids.
        neon_core::clear_plan_cache();
        let st = Stencil::d2q9();
        let g = DenseGrid::new(&backend, Dim3::new(nx, ny, 1), &[&st], StorageMode::Virtual)
            .expect("grid");
        let mut app = KarmanVortex::new(&g, KarmanParams::for_domain(nx, ny), OccLevel::None)
            .expect("fields");
        app.init();
        let t = app.step(ITERS).time_per_execution();
        let cells = (nx * ny) as u64;
        let neon_mlups = mlups(cells, 1, t.as_us());
        let taichi_mlups = taichi.mlups(&device, cells);
        rows.push(vec![
            format!("{nx} x {ny}"),
            format!("{neon_mlups:.1}"),
            format!("{taichi_mlups:.1}"),
            format!("{:.3}", neon_mlups / taichi_mlups),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["Domain Size", "Neon (MLUPS)", "Taichi (MLUPS)", "Speedup"],
            &rows
        )
    );
    println!(
        "\npaper's shape: Neon ~1.14x at the smallest domain (JIT dispatch\n\
         overhead dominates), parity (0.98-1.00) at larger domains."
    );
}
