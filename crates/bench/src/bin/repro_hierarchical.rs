//! Hierarchical-collective + chunked-communication benchmark.
//!
//! Part 1 — **topology-aware collectives**: all-reduce makespan and
//! slow-link (host root complex) traffic for the hierarchical schedule vs
//! the best *flat* algorithm (`choose_flat`'s pick), across 2/4/8 devices
//! carved into NVLink islands of different shapes. On mixed topologies
//! the hierarchical schedule reduces inside each island over dedicated
//! NVLink, crosses the slow inter-island path the spanning minimum
//! `2(r-1)` times, and broadcasts back — the flat ring instead drags
//! every shard step over the slow links.
//!
//! Part 2 — **per-chunk event-driven overlap**: a Jacobi stencil sweep on
//! a PCIe box run in the paper's epoch mode (consumers wait whole halo
//! epochs) vs `CommMode::ChunkEvents` (payloads stream in chunks, the
//! consuming kernel splits into an interior span that overlaps the
//! transfers and a boundary span gated only on the last arriving chunk).
//! The per-iteration gap at 8 devices is the *exposed host round-trip
//! latency* the epoch barrier was hiding behind the kernel.
//!
//! `--smoke` asserts, on small grids, the full gate set — bit-identity of
//! both optimizations, the ≥20 % hierarchical makespan win on the
//! 2-island × 4-device cell with strictly reduced slow-link bytes,
//! auto-selection of the hierarchical schedule on mixed topologies, and
//! chunk-events never losing to epoch mode — and exits non-zero on any
//! violation without touching the results file (CI hook). The full run
//! re-checks the gates and writes `results/BENCH_hierarchical.json`.

use std::fmt::Write as _;

use neon_bench::render_table;
use neon_comm::{choose, choose_flat, Algorithm, CollectiveEngine, CollectiveKind, EngineConfig};
use neon_core::{CollectiveMode, CommMode, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, Stencil, StorageMode,
};
use neon_sys::{Backend, QueueSim, SimTime, Topology};

fn zeros(n: usize) -> Vec<SimTime> {
    vec![SimTime::ZERO; n]
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{} MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{} KiB", b >> 10)
    } else {
        format!("{b} B")
    }
}

/// One all-reduce of `bytes` on `topo` with a forced algorithm: makespan
/// plus bytes attributed to the slow host-root-complex resource.
fn collective_once(topo: &Topology, alg: Algorithm, bytes: u64) -> (SimTime, u64) {
    let n = topo.num_devices();
    let mut q = QueueSim::new(n, 1);
    let engine = CollectiveEngine::with_config(
        topo.clone(),
        EngineConfig {
            algorithm: Some(alg),
            ..EngineConfig::default()
        },
    );
    let t = engine.schedule(&mut q, CollectiveKind::AllReduce, bytes, &zeros(n), 0, "ar");
    (t.makespan(), q.counters_snapshot().slow_link_bytes)
}

struct CollectiveCell {
    shape: Vec<usize>,
    bytes: u64,
    flat: Algorithm,
    flat_us: f64,
    flat_slow: u64,
    hier_us: f64,
    hier_slow: u64,
    auto: Algorithm,
}

fn collective_sweep(shapes: &[&[usize]], sizes: &[u64]) -> Vec<CollectiveCell> {
    let mut cells = Vec::new();
    for &shape in shapes {
        let topo = Topology::nvlink_islands(shape, 1555.0);
        for &bytes in sizes {
            let flat = choose_flat(CollectiveKind::AllReduce, bytes, &topo);
            let (flat_t, flat_slow) = collective_once(&topo, flat, bytes);
            let (hier_t, hier_slow) = collective_once(&topo, Algorithm::Hierarchical, bytes);
            cells.push(CollectiveCell {
                shape: shape.to_vec(),
                bytes,
                flat,
                flat_us: flat_t.as_us(),
                flat_slow,
                hier_us: hier_t.as_us(),
                hier_slow,
                auto: choose(CollectiveKind::AllReduce, bytes, &topo),
            });
        }
    }
    cells
}

/// CG residual on an island fleet with a pinned collective algorithm —
/// the end-to-end bit-identity probe for the hierarchical schedule.
fn island_cg_residual(shape: &[usize], mode: CollectiveMode) -> f64 {
    use neon_apps::PoissonSolver;

    let backend = Backend::dgx_islands(shape);
    let ndev = backend.num_devices();
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(
        &backend,
        Dim3::new(8, 8, 4 * ndev),
        &[&st],
        StorageMode::Real,
    )
    .expect("grid");
    let options = SkeletonOptions {
        occ: OccLevel::Standard,
        collectives: mode,
        ..SkeletonOptions::default()
    };
    let mut solver = PoissonSolver::with_options(&grid, options).expect("solver");
    solver.set_rhs(|x, y, z| ((x * 7 + y * 3 + z) % 5) as f64 - 2.0);
    solver.solve_iters(4);
    solver.residual()
}

fn jacobi(g: &DenseGrid, from: &Field<f64, DenseGrid>, to: &Field<f64, DenseGrid>) -> Container {
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
        7,
        1.0,
    )
}

struct ChunkRun {
    us_per_iter: f64,
    bits: Vec<u64>,
}

/// A Jacobi sweep on a PCIe box (halos cross the host root complex) with
/// the given communication mode. `functional` toggles the data path: the
/// timing sweep runs timing-only on a large grid, the bit-identity gate
/// runs functionally on a small one.
fn chunk_run(ndev: usize, dim: Dim3, comm: CommMode, iters: usize, functional: bool) -> ChunkRun {
    let backend = Backend::gv100_pcie(ndev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, dim, &[&st], StorageMode::Real).expect("grid");
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).expect("x");
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).expect("y");
    if functional {
        x.fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);
    }
    let seq = vec![jacobi(&grid, &x, &y), ops::copy(&grid, &y, &x)];
    let mut sk = Skeleton::sequence(
        &backend,
        "repro-hier-jacobi",
        seq,
        SkeletonOptions {
            comm,
            occ: OccLevel::None,
            ..SkeletonOptions::default()
        },
    );
    sk.set_functional(functional);
    let report = sk.run_iters(iters);
    let mut bits = Vec::new();
    if functional {
        x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    }
    ChunkRun {
        us_per_iter: report.makespan.as_us() / iters as f64,
        bits,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut fail = false;

    // ---- Part 1: hierarchical vs flat on island topologies ----
    let shapes: &[&[usize]] = &[&[1, 1], &[2, 2], &[3, 1], &[4, 4], &[6, 2], &[2, 2, 2, 2]];
    let sizes: &[u64] = &[64 << 10, 1 << 20, 16 << 20];
    println!(
        "== repro_hierarchical: all-reduce on NVLink islands (slow path = host root complex) ==\n"
    );
    let cells = collective_sweep(shapes, sizes);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{:?}", c.shape),
                fmt_bytes(c.bytes),
                format!("{} / {:.1}", c.flat, c.flat_us),
                format!("{:.1}", c.hier_us),
                format!("{:.2}", c.flat_slow as f64 / 1e6),
                format!("{:.2}", c.hier_slow as f64 / 1e6),
                format!("{}", c.auto),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "Islands",
                "Message",
                "flat pick / us",
                "hier us",
                "flat slow MB",
                "hier slow MB",
                "auto picks"
            ],
            &rows
        )
    );
    println!();

    // Gate: ≥20% makespan win + strictly fewer slow-link bytes on the
    // 2-island × 4-device cell at 16 MiB, against the flat selector's
    // own best pick.
    let gate = cells
        .iter()
        .find(|c| c.shape == [2, 2] && c.bytes == 16 << 20)
        .expect("gate cell ran");
    if gate.hier_us > 0.8 * gate.flat_us {
        eprintln!(
            "FAIL: hierarchical {:.1} us not >=20% under flat {} {:.1} us on [2,2]x16MiB",
            gate.hier_us, gate.flat, gate.flat_us
        );
        fail = true;
    }
    if gate.hier_slow >= gate.flat_slow {
        eprintln!(
            "FAIL: hierarchical slow bytes {} not strictly below flat {} on [2,2]x16MiB",
            gate.hier_slow, gate.flat_slow
        );
        fail = true;
    }
    // Gate: auto-selection routes every truly mixed shape hierarchically.
    for c in &cells {
        let mixed = c.shape.len() > 1 && c.shape.iter().any(|&s| s > 1);
        if mixed && c.auto != Algorithm::Hierarchical {
            eprintln!(
                "FAIL: auto picked {} on mixed islands {:?} at {}",
                c.auto,
                c.shape,
                fmt_bytes(c.bytes)
            );
            fail = true;
        }
    }
    // Gate: end-to-end bit-identity of the hierarchical schedule.
    for shape in [&[2usize, 2][..], &[3, 1], &[4, 4]] {
        let hier = island_cg_residual(shape, CollectiveMode::Fixed(Algorithm::Hierarchical));
        let ring = island_cg_residual(shape, CollectiveMode::Fixed(Algorithm::Ring));
        if hier.to_bits() != ring.to_bits() {
            eprintln!("FAIL: hierarchical CG residual diverges from ring on {shape:?}");
            fail = true;
        }
    }
    println!(
        "[2,2] x 16 MiB: hierarchical {:.1} us vs flat {} {:.1} us ({:.1}% win), \
         slow bytes {:.2} MB vs {:.2} MB",
        gate.hier_us,
        gate.flat,
        gate.flat_us,
        100.0 * (1.0 - gate.hier_us / gate.flat_us),
        gate.hier_slow as f64 / 1e6,
        gate.flat_slow as f64 / 1e6,
    );

    // ---- Part 2: epoch vs per-chunk event-driven halo exchange ----
    // Bit-identity on a small functional grid first.
    let id_dim = Dim3::new(16, 16, 32);
    for ndev in [2usize, 4] {
        let epoch = chunk_run(ndev, id_dim, CommMode::Epoch, 6, true);
        let chunk = chunk_run(ndev, id_dim, CommMode::ChunkEvents, 6, true);
        if epoch.bits != chunk.bits {
            eprintln!("FAIL: chunk-events diverges from epoch at {ndev} devices");
            fail = true;
        }
    }
    // Timing sweep on a halo-heavy grid (timing-only: the boundary layer
    // is ~1.1 MiB, so chunk-events streams 2 chunks per neighbor).
    let (dim, iters) = if smoke {
        (Dim3::new(192, 192, 32), 4)
    } else {
        (Dim3::new(384, 384, 32), 8)
    };
    println!(
        "\n== epoch vs chunk-events: Jacobi on a PCIe box, {}x{}x{} ==\n",
        dim.x, dim.y, dim.z
    );
    let mut chunk_rows = Vec::new();
    let mut chunk_stats: Vec<(usize, f64, f64)> = Vec::new();
    for ndev in [2usize, 4, 8] {
        let epoch = chunk_run(ndev, dim, CommMode::Epoch, iters, false);
        let chunk = chunk_run(ndev, dim, CommMode::ChunkEvents, iters, false);
        let exposed = epoch.us_per_iter - chunk.us_per_iter;
        if chunk.us_per_iter > epoch.us_per_iter * (1.0 + 1e-9) {
            eprintln!(
                "FAIL: chunk-events {:.1} us/iter loses to epoch {:.1} at {ndev} devices",
                chunk.us_per_iter, epoch.us_per_iter
            );
            fail = true;
        }
        chunk_rows.push(vec![
            format!("{ndev}"),
            format!("{:.1}", epoch.us_per_iter),
            format!("{:.1}", chunk.us_per_iter),
            format!("{:.1}", exposed),
            format!("{:.1}%", 100.0 * exposed / epoch.us_per_iter),
        ]);
        chunk_stats.push((ndev, epoch.us_per_iter, chunk.us_per_iter));
    }
    print!(
        "{}",
        render_table(
            &[
                "Devices",
                "epoch us/iter",
                "chunk-events us/iter",
                "exposed latency us",
                "hidden"
            ],
            &chunk_rows
        )
    );
    let eight = chunk_stats
        .iter()
        .find(|&&(n, _, _)| n == 8)
        .expect("8-device cell ran");
    let exposed8 = eight.1 - eight.2;
    println!(
        "\n8 devices: epoch mode exposes {exposed8:.1} us/iter of host round-trip \
         latency that chunk-events overlaps with interior compute"
    );
    if exposed8 <= 0.0 {
        eprintln!("FAIL: no exposed latency recovered at 8 devices");
        fail = true;
    }

    if fail {
        std::process::exit(1);
    }
    println!(
        "\nbit-identical (hierarchical vs ring, chunk-events vs epoch); \
         >=20% hierarchical win on [2,2]x16MiB with strictly fewer slow-link bytes; \
         auto routes mixed topologies hierarchically; chunk-events never loses"
    );

    if smoke {
        return; // CI gate only; no results file
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json =
        format!("{{\"bench\":\"repro_hierarchical\",\"host_cores\":{host_cores},\"collectives\":[");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"islands\":{:?},\"bytes\":{},\"flat\":\"{}\",\"flat_us\":{:.3},\
             \"flat_slow_bytes\":{},\"hier_us\":{:.3},\"hier_slow_bytes\":{},\"auto\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            c.shape,
            c.bytes,
            c.flat,
            c.flat_us,
            c.flat_slow,
            c.hier_us,
            c.hier_slow,
            c.auto,
        );
    }
    let _ = write!(
        json,
        "],\"chunk_events\":{{\"dim\":[{},{},{}],\"iters\":{iters},\"cells\":[",
        dim.x, dim.y, dim.z
    );
    for (i, &(ndev, epoch_us, chunk_us)) in chunk_stats.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"ndev\":{ndev},\"epoch_us_per_iter\":{epoch_us:.3},\
             \"chunk_us_per_iter\":{chunk_us:.3},\"exposed_us_per_iter\":{:.3}}}",
            if i == 0 { "" } else { "," },
            epoch_us - chunk_us,
        );
    }
    json.push_str("]}}");
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_hierarchical.json";
    std::fs::write(path, &json).expect("write results JSON");
    println!("wrote {path}");
}
