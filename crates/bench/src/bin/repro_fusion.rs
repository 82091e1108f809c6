//! Container-fusion benchmark: 4-device Poisson CG at 64³, compiled with
//! fusion Off vs Conservative, same program, same data.
//!
//! What fusion buys per CG iteration (see DESIGN.md §4c): the map chains
//! `scale(p)+axpy(p)`, `apply+dot(p,Ap)` and `axpy(x)+axpy(r)+dot(r,r)`
//! each collapse into one field sweep, so the iteration drops from eight
//! compute launches per device to three, and re-reads of just-written
//! fields are served from registers instead of a second sweep. Both
//! configurations must produce **bit-identical** residual histories —
//! Conservative fusion never reorders or re-associates per-cell work, it
//! only merges consecutive sweeps of the same grid.
//!
//! Reported per configuration: wall-clock of the functional executor,
//! kernel launches and bytes swept (from [`neon_core::ExecReport`]),
//! and the reduction ratios. The acceptance gates from the issue —
//! ≥40 % fewer launches, ≥25 % fewer bytes per iteration — are asserted
//! here, not just printed.
//!
//! Output: a table on stdout and machine-readable JSON at
//! `results/BENCH_fusion.json`.
//!
//! `--smoke` runs a small grid, asserts bit-identity and the reduction
//! gates, and exits non-zero on violation without touching the results
//! file (CI hook).

use std::fmt::Write as _;
use std::time::Instant;

use neon_apps::PoissonSolver;
use neon_bench::render_table;
use neon_core::{FusionLevel, OccLevel, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
use neon_sys::{Backend, CounterSnapshot};

const NDEV: usize = 4;

#[derive(Clone)]
struct FusionRun {
    label: &'static str,
    wall_ms: f64,
    mlups: f64,
    launches: u64,
    bytes_moved: u64,
    /// Bit pattern of ‖r‖² after every iteration.
    residual_bits: Vec<u64>,
    final_residual: f64,
}

fn merge_best(best: &mut Option<FusionRun>, run: FusionRun) {
    match best {
        Some(b) => {
            assert_eq!(
                b.residual_bits, run.residual_bits,
                "{}: residuals differ between repeats",
                run.label
            );
            assert_eq!(
                b.launches, run.launches,
                "{}: launch count is not stable",
                run.label
            );
            if run.wall_ms < b.wall_ms {
                b.wall_ms = run.wall_ms;
                b.mlups = run.mlups;
            }
        }
        None => *best = Some(run),
    }
}

fn run_config(fusion: FusionLevel, label: &'static str, dim: usize, iters: usize) -> FusionRun {
    let backend = Backend::dgx_a100(NDEV);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(
        &backend,
        Dim3::new(dim, dim, dim),
        &[&st],
        StorageMode::Real,
    )
    .expect("grid");
    let mut solver = PoissonSolver::with_options(
        &grid,
        SkeletonOptions {
            occ: OccLevel::Standard,
            fusion,
            ..Default::default()
        },
    )
    .expect("solver");
    let rhs = move |x: i32, y: i32, z: i32| {
        let c = (dim / 2) as i32;
        if x == c && y == c && z == c {
            1.0
        } else {
            0.0
        }
    };
    solver.set_rhs(rhs);

    // Warm up (compile, fault in partitions), then reset to the same
    // starting state so both configurations integrate the same system.
    solver.solve_iters(3);
    solver.set_rhs(rhs);

    let mut residual_bits = Vec::with_capacity(iters);
    let mut counters = CounterSnapshot::default();
    let t0 = Instant::now();
    for _ in 0..iters {
        counters.accumulate(&solver.solve_iters(1).counters);
        // rs_old holds ‖r‖² of the iteration that just completed.
        residual_bits.push(solver.cg.state.rs_old.host_value().to_bits());
    }
    let wall = t0.elapsed();

    let cells = (dim * dim * dim) as f64;
    let wall_s = wall.as_secs_f64();
    FusionRun {
        label,
        wall_ms: wall_s * 1e3,
        mlups: cells * iters as f64 / wall_s / 1e6,
        launches: counters.kernel_launches,
        bytes_moved: counters.kernel_bytes_moved,
        residual_bits,
        final_residual: solver.residual(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (dim, iters) = if smoke { (16, 8) } else { (64, 40) };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "== repro_fusion: {NDEV}-device Poisson CG at {dim}^3, {iters} iterations, \
         host_cores={host_cores} ==\n"
    );

    // Interleaved best-of-N, same rationale as repro_functional: the
    // first ladder rung warms the allocator for everyone, so repeat the
    // whole ladder and keep each configuration's best wall-clock.
    let repeats = if smoke { 1 } else { 3 };
    let (mut off, mut fused) = (None, None);
    for _ in 0..repeats {
        merge_best(&mut off, run_config(FusionLevel::Off, "off", dim, iters));
        merge_best(
            &mut fused,
            run_config(FusionLevel::Conservative, "conservative", dim, iters),
        );
    }
    let (off, fused) = (off.unwrap(), fused.unwrap());

    let identical = off.residual_bits == fused.residual_bits;
    let launch_cut = 1.0 - fused.launches as f64 / off.launches as f64;
    let bytes_cut = 1.0 - fused.bytes_moved as f64 / off.bytes_moved as f64;

    let mut rows = Vec::new();
    for r in [&off, &fused] {
        rows.push(vec![
            r.label.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.1}", r.mlups),
            format!("{}", r.launches),
            format!("{:.1}", r.bytes_moved as f64 / 1e6),
            format!("{:.3e}", r.final_residual),
            if r.residual_bits == off.residual_bits {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "Fusion",
                "Wall (ms)",
                "MLUPS",
                "Launches",
                "Bytes swept (MB)",
                "Final residual",
                "Bit-identical"
            ],
            &rows
        )
    );
    println!();
    println!(
        "launches: {} -> {} ({:.1}% fewer); bytes swept: {:.1} MB -> {:.1} MB ({:.1}% fewer)",
        off.launches,
        fused.launches,
        launch_cut * 100.0,
        off.bytes_moved as f64 / 1e6,
        fused.bytes_moved as f64 / 1e6,
        bytes_cut * 100.0,
    );

    if !identical {
        eprintln!("FAIL: fused residual history diverges from the unfused reference");
        std::process::exit(1);
    }
    if launch_cut < 0.40 {
        eprintln!(
            "FAIL: fusion cut launches by only {:.1}% (< 40%)",
            launch_cut * 100.0
        );
        std::process::exit(1);
    }
    if bytes_cut < 0.25 {
        eprintln!(
            "FAIL: fusion cut bytes by only {:.1}% (< 25%)",
            bytes_cut * 100.0
        );
        std::process::exit(1);
    }
    println!("bit-identical, launch and byte reduction gates met");

    if smoke {
        return; // CI gate: identity + reductions checked, no results file
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"repro_fusion\",\"devices\":{NDEV},\"dim\":{dim},\
         \"iters\":{iters},\"host_cores\":{host_cores},\"bit_identical\":{identical},\
         \"launch_reduction\":{launch_cut:.4},\"bytes_reduction\":{bytes_cut:.4},\
         \"configs\":["
    );
    for (i, r) in [&off, &fused].iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"fusion\":\"{}\",\"wall_ms\":{:.3},\"mlups\":{:.3},\
             \"launches\":{},\"bytes_moved\":{},\"final_residual\":{:.6e}}}",
            if i == 0 { "" } else { "," },
            r.label,
            r.wall_ms,
            r.mlups,
            r.launches,
            r.bytes_moved,
            r.final_residual,
        );
    }
    json.push_str("]}");
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_fusion.json";
    std::fs::write(path, &json).expect("write results JSON");
    println!("wrote {path}");
}
