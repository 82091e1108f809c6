//! `CommMode::ChunkEvents` (the default) against the paper's
//! `CommMode::Epoch` signaling, swept over the configurations the solvers
//! run in: CG and LBM on NVLink (`dgx_a100`) and PCIe (`gv100_pcie`)
//! boxes, 1–8 devices, every OCC level, fusion off and conservative.
//!
//! * **Never loses**: per-chunk events only ever *remove* waits — interior
//!   work stops waiting for in-flight chunks and a device's own outgoing
//!   sends stop gating its compute — so the virtual-clock makespan of the
//!   same program is never above the epoch model's.
//! * **Bit-identical**: the event table gets finer but enforces the same
//!   ordering, so every functional output bit matches.

use neon::apps::lbm::d3q19::{stream_collide, D3Q19_WEIGHTS};
use neon::apps::lbm::LbmParams;
use neon::apps::PoissonSolver;
use neon::core::CommMode;
use neon::prelude::*;
use neon_domain::StorageMode;

const ITERS: usize = 3;

fn backends(ndev: usize) -> [(&'static str, Backend); 2] {
    [
        ("dgx_a100", Backend::dgx_a100(ndev)),
        ("gv100_pcie", Backend::gv100_pcie(ndev)),
    ]
}

fn options(occ: OccLevel, fusion: FusionLevel, comm: CommMode) -> SkeletonOptions {
    SkeletonOptions {
        occ,
        fusion,
        comm,
        ..SkeletonOptions::default()
    }
}

fn field_bits(f: &Field<f64, DenseGrid>) -> Vec<u64> {
    let mut bits = Vec::new();
    f.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    bits
}

/// Per-iteration virtual time and output bits of a short CG solve.
fn cg_run(backend: &Backend, options: SkeletonOptions) -> (SimTime, Vec<u64>) {
    let ndev = backend.num_devices();
    let st = Stencil::seven_point();
    let dim = Dim3::new(6, 5, 2 * ndev);
    let grid = DenseGrid::new(backend, dim, &[&st], StorageMode::Real).unwrap();
    let mut solver = PoissonSolver::with_options(&grid, options).unwrap();
    solver.set_rhs(|x, y, z| ((x * 7 + y * 3 + z) % 5) as f64 - 2.0);
    let report = solver.solve_iters(ITERS);
    let mut bits = field_bits(solver.solution());
    bits.push(solver.residual().to_bits());
    (report.makespan, bits)
}

/// Per-step virtual time and population bits of a short lid-driven
/// cavity run (twoPop: even and odd skeletons alternate).
fn lbm_run(backend: &Backend, options: SkeletonOptions) -> (SimTime, Vec<u64>) {
    let ndev = backend.num_devices();
    let st = Stencil::d3q19();
    let dim = Dim3::new(4, 4, 2 * ndev);
    let grid = DenseGrid::new(backend, dim, &[&st], StorageMode::Real).unwrap();
    let f0 = Field::<f64, _>::new(&grid, "f0", 19, 0.0, MemLayout::AoS).unwrap();
    let f1 = Field::<f64, _>::new(&grid, "f1", 19, 0.0, MemLayout::AoS).unwrap();
    // A non-uniform start so streaming across partitions moves real data.
    f0.fill(|x, y, z, q| D3Q19_WEIGHTS[q] * (1.0 + 0.01 * ((x + 2 * y + 3 * z) % 4) as f64));
    let params = LbmParams::default();
    let mut skeletons = [
        Skeleton::sequence(
            backend,
            "lbm-even",
            vec![stream_collide(&grid, &f0, &f1, params)],
            options,
        ),
        Skeleton::sequence(
            backend,
            "lbm-odd",
            vec![stream_collide(&grid, &f1, &f0, params)],
            options,
        ),
    ];
    let mut makespan = SimTime::ZERO;
    for step in 0..2 * ITERS {
        makespan += skeletons[step % 2].run().makespan;
    }
    (makespan, field_bits(&f0))
}

fn sweep(app: &str, run: fn(&Backend, SkeletonOptions) -> (SimTime, Vec<u64>)) {
    let mut wins = 0;
    for ndev in 1..=8 {
        for (label, backend) in backends(ndev) {
            for occ in OccLevel::ALL {
                for fusion in [FusionLevel::Off, FusionLevel::Conservative] {
                    let (epoch, epoch_bits) = run(&backend, options(occ, fusion, CommMode::Epoch));
                    let (chunked, chunked_bits) =
                        run(&backend, options(occ, fusion, CommMode::ChunkEvents));
                    let case = format!("{app} on {label}({ndev}), {occ:?}, {fusion:?}");
                    assert!(
                        chunked <= epoch,
                        "{case}: chunk events {chunked} > epoch {epoch}"
                    );
                    assert!(epoch_bits == chunked_bits, "{case}: output bits differ");
                    wins += usize::from(chunked < epoch);
                }
            }
        }
    }
    // Not vacuous: somewhere in the sweep the split actually hides time.
    assert!(wins > 0, "{app}: chunk events never won");
}

#[test]
fn chunk_events_cg_never_loses_to_epoch() {
    sweep("CG", cg_run);
}

#[test]
fn chunk_events_lbm_never_loses_to_epoch() {
    sweep("LBM", lbm_run);
}

#[test]
fn chunk_events_is_the_default_and_with_occ_keeps_the_epoch_baseline() {
    assert_eq!(SkeletonOptions::default().comm, CommMode::ChunkEvents);
    assert_eq!(CommMode::default(), CommMode::ChunkEvents);
    assert_eq!(
        SkeletonOptions::with_occ(OccLevel::Standard).comm,
        CommMode::Epoch
    );
}
