//! Temporal-blocking benchmark: a Jacobi sweep (7-point stencil + pointer
//! swap) compiled with `FusionLevel::Temporal(k)` for k ∈ {2,3,4} against
//! the `Conservative` baseline, across 1/2/4/8 devices.
//!
//! What temporal blocking buys per *logical* iteration (see DESIGN.md
//! "Temporal blocking"): a super-step executes k whole iterations per
//! launch, so k kernel launches + k device syncs + k depth-1 halo rounds
//! collapse into one launch + one sync + one depth-k exchange. The price
//! is ghost-zone recompute — each device re-derives `(k-1-j)·r` shrinking
//! layers of its neighbours' cells per rep — which is nearly free on a
//! launch-bound small-to-medium grid. Results must be **bit-identical**
//! to the conservative run: the recomputed ghost values are exactly the
//! values the owning device computes.
//!
//! Reported per (devices, k) cell: virtual time per logical iteration,
//! halo rounds, redundant FLOPs (ghost recompute), launches, and
//! bit-identity against the conservative baseline at the same device
//! count. The crossover frontier — which k wins at which device count —
//! goes into the README table.
//!
//! `--smoke` runs a small grid, asserts bit-identity, the one-deep-round-
//! per-k halo accounting, and a ≥25 % 4-device win for some k, and exits
//! non-zero on violation without touching the results file (CI hook).

use std::fmt::Write as _;

use neon_bench::render_table;
use neon_core::{FusionLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, Stencil, StorageMode,
};
use neon_sys::Backend;

/// Ghost layers stored per side: enough for k ≤ 4 at radius 1.
const HALO_CAP: usize = 4;
/// Logical iterations per configuration; divisible by every tested k.
const ITERS: usize = 12;
const KS: [u8; 3] = [2, 3, 4];

struct TemporalRun {
    ndev: usize,
    /// Super-step depth; 1 is the conservative baseline.
    k: usize,
    /// Did the temporal-fuse pass actually engage?
    engaged: bool,
    us_per_iter: f64,
    halo_rounds: u64,
    redundant_flops: u64,
    launches: u64,
    /// Bit pattern of both fields after `ITERS` logical iterations.
    bits: Vec<u64>,
}

fn stencil_sum(
    g: &DenseGrid,
    from: &Field<f64, DenseGrid>,
    to: &Field<f64, DenseGrid>,
) -> Container {
    let (fc, tc) = (from.clone(), to.clone());
    Container::compute_opts(
        "jacobi",
        g.as_space(),
        move |ldr| {
            let fv = ldr.read_stencil(&fc);
            let tv = ldr.write(&tc);
            Box::new(move |c| {
                let mut s = 0.0;
                for slot in 0..6 {
                    s += fv.ngh(c, slot, 0);
                }
                tv.set(c, 0, 0.125 * s);
            })
        },
        // 6 neighbour adds + 1 scale per cell: the virtual-clock FLOP
        // model and the redundant-recompute meter need a nonzero rate.
        7,
        1.0,
    )
}

fn run_config(ndev: usize, dim: Dim3, fusion: FusionLevel, k: usize) -> TemporalRun {
    let backend = Backend::dgx_a100(ndev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::with_halo_capacity(&backend, dim, &[&st], StorageMode::Real, HALO_CAP)
        .expect("grid");
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).expect("x");
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).expect("y");
    x.fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);

    let seq = vec![stencil_sum(&grid, &x, &y), ops::copy(&grid, &y, &x)];
    let mut sk = Skeleton::sequence(
        &backend,
        "repro-temporal",
        seq,
        SkeletonOptions {
            fusion,
            ..Default::default()
        },
    );
    let ipe = sk.logical_iters_per_execution();
    assert_eq!(ITERS % ipe, 0, "iteration count must divide the step depth");
    let report = sk.run_iters(ITERS / ipe);

    let mut bits = Vec::new();
    x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    TemporalRun {
        ndev,
        k,
        engaged: ipe > 1,
        us_per_iter: report.makespan.as_us() / ITERS as f64,
        halo_rounds: report.counters.halo_rounds,
        redundant_flops: report.counters.redundant_flops,
        launches: report.counters.kernel_launches,
        bits,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (dim, ndevs): (Dim3, &[usize]) = if smoke {
        (Dim3::new(16, 16, 32), &[1, 2, 4])
    } else {
        (Dim3::new(64, 64, 64), &[1, 2, 4, 8])
    };
    println!(
        "== repro_temporal: Jacobi sweep at {}x{}x{}, {ITERS} logical iterations, \
         halo capacity {HALO_CAP} ==\n",
        dim.x, dim.y, dim.z
    );

    let mut runs: Vec<TemporalRun> = Vec::new();
    for &ndev in ndevs {
        runs.push(run_config(ndev, dim, FusionLevel::Conservative, 1));
        for &k in &KS {
            runs.push(run_config(ndev, dim, FusionLevel::Temporal(k), k as usize));
        }
    }

    // Gates: every temporal run is bit-identical to the conservative run
    // at the same device count; an engaged super-step executes exactly
    // one deep round per k iterations; some k beats conservative by ≥25%
    // of virtual wall clock at 4 devices.
    let mut rows = Vec::new();
    let mut fail = false;
    let mut crossover: Vec<(usize, usize, f64)> = Vec::new();
    for &ndev in ndevs {
        let cons = runs
            .iter()
            .find(|r| r.ndev == ndev && r.k == 1)
            .expect("baseline ran");
        let mut best: Option<(usize, f64)> = None;
        for r in runs.iter().filter(|r| r.ndev == ndev) {
            let identical = r.bits == cons.bits;
            if !identical {
                eprintln!(
                    "FAIL: k={} diverges from conservative at {ndev} devices",
                    r.k
                );
                fail = true;
            }
            if r.k > 1 && !r.engaged {
                eprintln!(
                    "FAIL: super-step k={} did not engage at {ndev} devices",
                    r.k
                );
                fail = true;
            }
            if r.engaged && ndev >= 2 {
                let expect = (ITERS / r.k) as u64;
                if r.halo_rounds != expect || cons.halo_rounds != ITERS as u64 {
                    eprintln!(
                        "FAIL: halo accounting at {ndev} devices k={}: {} rounds (want {expect}), \
                         conservative {} (want {ITERS})",
                        r.k, r.halo_rounds, cons.halo_rounds
                    );
                    fail = true;
                }
            }
            let speedup = cons.us_per_iter / r.us_per_iter;
            if r.k > 1 && (best.is_none() || speedup > best.unwrap().1) {
                best = Some((r.k, speedup));
            }
            rows.push(vec![
                format!("{}", ndev),
                if r.k == 1 {
                    "cons".into()
                } else {
                    format!("k={}", r.k)
                },
                format!("{:.2}", r.us_per_iter),
                format!("{:.2}x", speedup),
                format!("{}", r.halo_rounds),
                format!("{}", r.launches),
                format!("{:.2}", r.redundant_flops as f64 / 1e6),
                if identical { "yes".into() } else { "NO".into() },
            ]);
        }
        let (bk, bs) = best.expect("temporal runs exist");
        crossover.push((ndev, bk, bs));
    }
    print!(
        "{}",
        render_table(
            &[
                "Devices",
                "Fusion",
                "us/iter",
                "Speedup",
                "Halo rounds",
                "Launches",
                "Ghost MFLOPs",
                "Bit-identical"
            ],
            &rows
        )
    );
    println!();
    for &(ndev, bk, bs) in &crossover {
        println!("{ndev} device(s): best k={bk} at {bs:.2}x over conservative");
    }

    let four = crossover
        .iter()
        .find(|&&(n, _, _)| n == 4)
        .expect("4-device cell ran");
    if four.2 < 1.0 / 0.75 {
        eprintln!(
            "FAIL: best 4-device temporal win is {:.2}x (< {:.2}x, the 25% wall-clock gate)",
            four.2,
            1.0 / 0.75
        );
        fail = true;
    }
    if fail {
        std::process::exit(1);
    }
    println!("bit-identical, halo accounting exact, 4-device win >= 25%");

    if smoke {
        return; // CI gate: identity + accounting + win checked, no results file
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"repro_temporal\",\"dim\":[{},{},{}],\"iters\":{ITERS},\
         \"halo_cap\":{HALO_CAP},\"configs\":[",
        dim.x, dim.y, dim.z
    );
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"ndev\":{},\"k\":{},\"engaged\":{},\"us_per_iter\":{:.4},\
             \"halo_rounds\":{},\"launches\":{},\"redundant_flops\":{}}}",
            if i == 0 { "" } else { "," },
            r.ndev,
            r.k,
            r.engaged,
            r.us_per_iter,
            r.halo_rounds,
            r.launches,
            r.redundant_flops,
        );
    }
    json.push_str("],\"crossover\":[");
    for (i, &(ndev, bk, bs)) in crossover.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"ndev\":{ndev},\"best_k\":{bk},\"speedup\":{bs:.4}}}",
            if i == 0 { "" } else { "," },
        );
    }
    json.push_str("]}");
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_temporal.json";
    std::fs::write(path, &json).expect("write results JSON");
    println!("wrote {path}");
}
