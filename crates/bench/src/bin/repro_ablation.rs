//! Ablation studies for the design choices DESIGN.md calls out (beyond
//! the paper's own figures):
//!
//! 1. **Interconnect class** — NVLink vs PCIe Gen3: how much OCC recovers
//!    on the slow interconnect (the paper's second system).
//! 2. **Scheduling hints** — OCC graphs scheduled with hints disabled:
//!    the split alone does not produce overlap if boundary halves are
//!    enqueued before internal ones.
//! 3. **SoA vs AoS** — halo transfer structure (2n vs 2 transfers per
//!    partition) and its timing impact on the LBM cavity.
//! 4. **Kernel concurrency** — letting concurrent kernels each claim full
//!    device bandwidth (instead of serializing them) produces unphysical
//!    super-linear efficiency; this documents why the model serializes.

use neon_apps::lbm::{LbmParams, LidDrivenCavity};
use neon_bench::render_table;
use neon_core::{CommMode, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    Cell, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, Stencil, StorageMode,
};
use neon_sys::Backend;

fn lbm_time(backend: &Backend, n: usize, occ: OccLevel) -> f64 {
    let st = Stencil::d3q19();
    let g = DenseGrid::new(backend, Dim3::cube(n), &[&st], StorageMode::Virtual).unwrap();
    let mut app = LidDrivenCavity::new(&g, LbmParams::default(), occ).unwrap();
    app.init();
    app.step(5).time_per_execution().as_us()
}

fn interconnect_ablation() {
    println!("-- ablation 1: interconnect class (LBM cavity 256^3, 8 GPUs) --");
    let mut rows = Vec::new();
    for (name, backend) in [
        ("NVLink (DGX A100)", Backend::dgx_a100(8)),
        ("PCIe Gen3 (GV100 box)", Backend::gv100_pcie(8)),
    ] {
        let none = lbm_time(&backend, 256, OccLevel::None);
        let occ = lbm_time(&backend, 256, OccLevel::Standard);
        rows.push(vec![
            name.to_string(),
            format!("{none:.1}"),
            format!("{occ:.1}"),
            format!("{:.2}x", none / occ),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "interconnect",
                "noOCC t/iter (us)",
                "OCC t/iter (us)",
                "OCC gain"
            ],
            &rows
        )
    );
    println!();
}

fn hints_ablation() {
    // The decisive hint is the two-way one (paper Fig. 4d): launch the
    // reduce-internal half before the stencil-boundary half so it fills
    // the halo-wait gap. Without it the boundary half stalls the compute
    // lane on the (slow, PCIe) halo.
    println!("-- ablation 2: scheduling hints (map+stencil+dot, 8 GPUs, PCIe, two-way OCC) --");
    let backend = Backend::gv100_pcie(8);
    let mut rows = Vec::new();
    for (name, hints) in [("hints on", true), ("hints off", false)] {
        let st = Stencil::seven_point();
        let g = DenseGrid::new(
            &backend,
            Dim3::new(256, 256, 64),
            &[&st],
            StorageMode::Virtual,
        )
        .unwrap();
        let x = Field::<f64, _>::new(&g, "x", 8, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 8, 0.0, MemLayout::SoA).unwrap();
        let dot = neon_domain::ScalarSet::<f64>::new(8, "dot", 0.0, |a, b| a + b);
        let map = {
            let xc = x.clone();
            Container::compute("map", g.as_space(), move |ldr| {
                let xv = ldr.read_write(&xc);
                Box::new(move |c: Cell| xv.set(c, 0, xv.at(c, 0) + 1.0))
            })
        };
        let sten = {
            let (xc, yc) = (x.clone(), y.clone());
            Container::compute("stn", g.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c: Cell| yv.set(c, 0, xv.ngh(c, 0, 0)))
            })
        };
        let red = neon_domain::ops::dot(&g, &y, &y, &dot);
        let opts = SkeletonOptions {
            occ: OccLevel::TwoWayExtended,
            hints,
            // Fusing stn+dot would leave OCC nothing to split — this
            // ablation is about hint edges on the split graph.
            fusion: neon_core::FusionLevel::Off,
            ..Default::default()
        };
        let t = Skeleton::sequence(&backend, "pipeline", vec![map, sten, red], opts)
            .run_iters(5)
            .time_per_execution();
        rows.push(vec![name.to_string(), format!("{:.1}", t.as_us())]);
    }
    print!("{}", render_table(&["scheduler", "t/iter (us)"], &rows));
    println!();
}

fn layout_ablation() {
    println!("-- ablation 3: SoA vs AoS halo structure (19-component field, 4 GPUs) --");
    let backend = Backend::dgx_a100(4);
    let st = Stencil::d3q19();
    let g = DenseGrid::new(&backend, Dim3::cube(192), &[&st], StorageMode::Virtual).unwrap();
    let mut rows = Vec::new();
    for (name, layout) in [("SoA", MemLayout::SoA), ("AoS", MemLayout::AoS)] {
        let f = Field::<f64, _>::new(&g, "f", 19, 0.0, layout).unwrap();
        let o = Field::<f64, _>::new(&g, "o", 19, 0.0, layout).unwrap();
        let sten = {
            let (fc, oc) = (f.clone(), o.clone());
            Container::compute("stn", g.as_space(), move |ldr| {
                let fv = ldr.read_stencil(&fc);
                let ov = ldr.write(&oc);
                Box::new(move |c: Cell| ov.set(c, 0, fv.ngh(c, 0, 0)))
            })
        };
        let n_transfers = g.halo_segments(19, layout).len();
        let t = Skeleton::sequence(
            &backend,
            "halo",
            vec![sten],
            SkeletonOptions::with_occ(OccLevel::None),
        )
        .run_iters(5)
        .time_per_execution();
        rows.push(vec![
            name.to_string(),
            format!("{n_transfers}"),
            format!("{:.1}", t.as_us()),
        ]);
    }
    print!(
        "{}",
        render_table(&["layout", "halo transfers", "t/iter (us)"], &rows)
    );
    println!("(paper §IV-C2: SoA needs 2n transfers per partition pair, AoS needs 2)\n");
}

fn kernel_concurrency_ablation() {
    println!("-- ablation 4: kernel bandwidth contention model (LBM 256^3, 8 GPUs) --");
    let backend = Backend::dgx_a100(8);
    let st = Stencil::d3q19();
    let g = DenseGrid::new(&backend, Dim3::cube(256), &[&st], StorageMode::Virtual).unwrap();
    let mut rows = Vec::new();
    for (name, conc) in [
        ("serialized (default)", false),
        ("concurrent, full bw each", true),
    ] {
        let f0 = Field::<f64, _>::new(&g, "f0", 19, 0.0, MemLayout::SoA).unwrap();
        let f1 = Field::<f64, _>::new(&g, "f1", 19, 0.0, MemLayout::SoA).unwrap();
        let opts = SkeletonOptions {
            occ: OccLevel::Standard,
            kernel_concurrency: conc,
            ..Default::default()
        };
        let step = neon_apps::lbm::d3q19::stream_collide(
            &g,
            &f0,
            &f1,
            neon_apps::lbm::LbmParams::default(),
        );
        let t = Skeleton::sequence(&backend, "conc", vec![step], opts)
            .run_iters(5)
            .time_per_execution();
        rows.push(vec![name.to_string(), format!("{:.1}", t.as_us())]);
    }
    print!(
        "{}",
        render_table(&["contention model", "t/iter (us)"], &rows)
    );
    println!("(concurrent mode undercounts: both stencil halves would stream at full bandwidth)\n");
}

fn unified_memory_ablation() {
    // Paper §IV-C2 weighs two halo-coherency designs and picks explicit
    // transfers; this quantifies the alternative.
    use neon_core::HaloPolicy;
    println!("-- ablation 5: halo coherency model (LBM 256^3, 8 GPUs, NVLink) --");
    let backend = Backend::dgx_a100(8);
    let st = Stencil::d3q19();
    let g = DenseGrid::new(&backend, Dim3::cube(256), &[&st], StorageMode::Virtual).unwrap();
    let mut rows = Vec::new();
    for (name, policy) in [
        ("explicit transfers", HaloPolicy::ExplicitTransfers),
        ("unified memory", HaloPolicy::unified_default()),
    ] {
        let mut per_occ = vec![name.to_string()];
        for occ in [OccLevel::None, OccLevel::Standard] {
            let f0 = Field::<f64, _>::new(&g, "f0", 19, 0.0, MemLayout::SoA).unwrap();
            let f1 = Field::<f64, _>::new(&g, "f1", 19, 0.0, MemLayout::SoA).unwrap();
            let step = neon_apps::lbm::d3q19::stream_collide(
                &g,
                &f0,
                &f1,
                neon_apps::lbm::LbmParams::default(),
            );
            // The paper's claim is about its epoch model: per-chunk
            // events would already overlap the explicit halo without OCC.
            let opts = SkeletonOptions {
                occ,
                halo_policy: policy,
                comm: CommMode::Epoch,
                ..Default::default()
            };
            let t = Skeleton::sequence(&backend, "halo-policy", vec![step], opts)
                .run_iters(5)
                .time_per_execution();
            per_occ.push(format!("{:.1}", t.as_us()));
        }
        rows.push(per_occ);
    }
    print!(
        "{}",
        render_table(
            &["coherency model", "noOCC t/iter (us)", "OCC t/iter (us)"],
            &rows
        )
    );
    println!(
        "(page faults serialize with kernels: unified memory cannot be overlapped,
 the penalty the paper cites for choosing explicit transfers)
"
    );
}

fn data_structure_ablation() {
    // Extends Fig. 9's two-way comparison with the block-sparse design
    // point: per-block metadata vs per-cell metadata vs no metadata.
    use neon_apps::fem::{ElasticitySolver, Material};
    use neon_bench::{peak_device_demand, sparse_cube_grid};
    use neon_domain::BlockSparseGrid;
    println!("-- ablation 6: data structures on FEM elasticity (256^3, ratio 0.2, 8 GPUs) --");
    const N: usize = 256;
    const RATIO: f64 = 0.2;
    const ITERS: usize = 3;
    let st = Stencil::twenty_seven_point();
    let side = (N as f64 * RATIO.cbrt()).round() as i32;
    let lo = ((N as i32) - side) / 2;
    let hi = lo + side;
    let mask = move |x: i32, y: i32, z: i32| x >= lo && x < hi && y >= lo && y < hi && z < side;
    let mut rows = Vec::new();
    {
        let b = Backend::dgx_a100(8);
        let g = DenseGrid::new(&b, Dim3::cube(N), &[&st], StorageMode::Virtual).unwrap();
        let mut s =
            ElasticitySolver::new(&g, Material::default(), MemLayout::SoA, OccLevel::Standard)
                .unwrap();
        let t = s.solve_iters(ITERS).time_per_execution();
        rows.push(vec![
            "dense".to_string(),
            format!("{:.2}", t.as_ms()),
            format!("{:.2}", peak_device_demand(&b) as f64 / (1u64 << 30) as f64),
        ]);
    }
    {
        let b = Backend::dgx_a100(8);
        let g = sparse_cube_grid(&b, N, RATIO, StorageMode::Virtual).unwrap();
        let mut s =
            ElasticitySolver::new(&g, Material::default(), MemLayout::SoA, OccLevel::Standard)
                .unwrap();
        let t = s.solve_iters(ITERS).time_per_execution();
        rows.push(vec![
            "element-sparse".to_string(),
            format!("{:.2}", t.as_ms()),
            format!("{:.2}", peak_device_demand(&b) as f64 / (1u64 << 30) as f64),
        ]);
    }
    {
        let b = Backend::dgx_a100(8);
        let g =
            BlockSparseGrid::new(&b, Dim3::cube(N), 4, &[&st], mask, StorageMode::Virtual).unwrap();
        let mut s =
            ElasticitySolver::new(&g, Material::default(), MemLayout::SoA, OccLevel::Standard)
                .unwrap();
        let t = s.solve_iters(ITERS).time_per_execution();
        rows.push(vec![
            "block-sparse (B=4)".to_string(),
            format!("{:.2}", t.as_ms()),
            format!("{:.2}", peak_device_demand(&b) as f64 / (1u64 << 30) as f64),
        ]);
    }
    print!(
        "{}",
        render_table(&["data structure", "t/iter (ms)", "peak GiB/dev"], &rows)
    );
    println!(
        "(block-sparse trades a little padding compute for ~B^3-times lighter
 connectivity metadata than element-sparse)
"
    );
}

fn heterogeneous_ablation() {
    // Paper §VII future work: heterogeneous parallel systems. Mixing
    // A100s and GV100s, even partitioning lets the slow devices dominate;
    // bandwidth-proportional slabs rebalance.
    use neon_domain::PartitionStrategy;
    use neon_sys::{BackendKind, DeviceModel, Topology};
    println!("-- ablation 7: heterogeneous system (2x A100 + 2x GV100, 7-pt stencil 256^3) --");
    let devices = vec![
        DeviceModel::a100_40gb(),
        DeviceModel::a100_40gb(),
        DeviceModel::gv100(),
        DeviceModel::gv100(),
    ];
    let backend = Backend::new(
        BackendKind::Gpu,
        devices,
        Topology::nvlink_all_to_all(4, 1555.0),
    )
    .unwrap();
    let st = Stencil::seven_point();
    let mut rows = Vec::new();
    for (name, strategy) in [
        ("even layers", PartitionStrategy::Even),
        (
            "bandwidth-proportional",
            PartitionStrategy::DeviceProportional,
        ),
    ] {
        let g = DenseGrid::with_partitioning(
            &backend,
            Dim3::cube(256),
            &[&st],
            StorageMode::Virtual,
            strategy,
        )
        .unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let sten = {
            let (xc, yc) = (x.clone(), y.clone());
            Container::compute("stn", g.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c: Cell| yv.set(c, 0, xv.ngh(c, 0, 0)))
            })
        };
        let t = Skeleton::sequence(
            &backend,
            "hetero",
            vec![sten],
            SkeletonOptions::with_occ(OccLevel::Standard),
        )
        .run_iters(5)
        .time_per_execution();
        use neon_domain::GridLike as _;
        let layers: Vec<String> = (0..4)
            .map(|d| {
                let (a, b) = g.owned_z_range(neon_sys::DeviceId(d));
                format!("{}", b - a)
            })
            .collect();
        rows.push(vec![
            name.to_string(),
            layers.join("/"),
            format!("{:.1}", t.as_us()),
        ]);
    }
    print!(
        "{}",
        render_table(&["partitioning", "layers per device", "t/iter (us)"], &rows)
    );
    println!("(bandwidth-proportional slabs stop the slow devices from dominating)\n");
}

fn compile_cache_ablation() {
    // The skeleton pipeline (graph → multi-GPU → OCC → collectives →
    // schedule) is a compiler; this splits its one-time wall-clock cost
    // from the per-iteration virtual run time and shows the plan cache:
    // a structurally identical solver — even on a different grid size —
    // reuses the compiled plan instead of re-running the passes.
    use neon_bench::poisson_compile_run_split;
    use neon_core::{clear_plan_cache, plan_cache_stats};
    println!("-- ablation 8: compile vs run split and the plan cache (Poisson CG, 8 GPUs) --");
    clear_plan_cache();
    let before = plan_cache_stats();
    let backend = Backend::dgx_a100(8);
    let mut rows = Vec::new();
    for (name, n) in [
        ("first build, 256^3", 256),
        ("rebuild, same shape", 256),
        ("rebuild, 320^3 grid", 320),
    ] {
        let (compile, run, cached) = poisson_compile_run_split(&backend, n, OccLevel::Standard, 3);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", compile.as_us()),
            format!("{:.1}", run.as_us()),
            (if cached { "hit" } else { "miss" }).to_string(),
        ]);
    }
    let after = plan_cache_stats();
    print!(
        "{}",
        render_table(
            &[
                "solver build",
                "compile (us, wall)",
                "t/iter (us, virtual)",
                "iter plan"
            ],
            &rows
        )
    );
    println!(
        "(plan cache this section: {} hits / {} misses — the CG iteration
 pipeline ran once; rebuilds rebind the cached plan to fresh fields)\n",
        after.hits - before.hits,
        after.misses - before.misses,
    );
}

fn main() {
    println!("== Ablations (beyond the paper's figures) ==\n");
    interconnect_ablation();
    hints_ablation();
    layout_ablation();
    kernel_concurrency_ablation();
    unified_memory_ablation();
    data_structure_ablation();
    heterogeneous_ablation();
    compile_cache_ablation();
}
