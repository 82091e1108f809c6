//! Property tests of the temporal-fuse pass: `FusionLevel::Temporal(k)`
//! must be functionally invisible — bit-identical fields and reduction
//! scalars versus `FusionLevel::Conservative` for the same number of
//! *logical* iterations — at every device count, OCC level and halo
//! policy. When the super-step actually engages on a multi-device run it
//! must execute strictly fewer halo rounds (one deep exchange per `k`
//! iterations instead of one per iteration); when legality fails it must
//! fall back to exactly the conservative pipeline, halo round for halo
//! round.

use neon_core::{FusionLevel, HaloPolicy, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldRead as _, FieldStencil as _, FieldWrite as _,
    GridLike, MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::Backend;
use proptest::prelude::*;

/// One step of a randomized sequence, integer-valued so every arithmetic
/// result is exact in f64 and bit-identity is a real property.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `x ← 2x + 1` (read-write map; makes a later stencil-read of x an
    /// intra-step hazard, forcing fallback).
    MapX,
    /// `y ← x` (map read x, write y).
    CopyXy,
    /// `x ← y` (map read y, write x — the Jacobi pointer swap).
    CopyYx,
    /// `y ← Σ ngh(x)` (7-point stencil read of x).
    StencilXy,
    /// `x ← Σ ngh(y)` (7-point stencil read of y).
    StencilYx,
    /// `a ← x·y` (reduction — closes super-steps, forcing fallback).
    DotA,
}

const OPS: [Op; 6] = [
    Op::MapX,
    Op::CopyXy,
    Op::CopyYx,
    Op::StencilXy,
    Op::StencilYx,
    Op::DotA,
];

struct Setup {
    backend: Backend,
    grid: DenseGrid,
    x: Field<f64, DenseGrid>,
    y: Field<f64, DenseGrid>,
    dot_a: ScalarSet<f64>,
}

/// Ghost layers stored per side: enough for `k ≤ 4` at radius 1.
const HALO_CAP: usize = 4;

fn setup(n_dev: usize) -> Setup {
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    // 64 z-layers: middle partitions of an 8-device split keep the 8
    // layers the deep halo capacity requires.
    let grid = DenseGrid::with_halo_capacity(
        &backend,
        Dim3::new(4, 4, 64),
        &[&st],
        StorageMode::Real,
        HALO_CAP,
    )
    .unwrap();
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);
    y.fill(|a, b, c, _| ((a * 5 + b * 3 + c) % 7) as f64);
    let dot_a = ScalarSet::<f64>::new(n_dev, "a", 0.0, |p, q| p + q);
    Setup {
        backend,
        grid,
        x,
        y,
        dot_a,
    }
}

fn stencil_sum(
    g: &DenseGrid,
    name: &'static str,
    from: &Field<f64, DenseGrid>,
    to: &Field<f64, DenseGrid>,
) -> Container {
    let (fc, tc) = (from.clone(), to.clone());
    Container::compute_opts(
        name,
        g.as_space(),
        move |ldr| {
            let fv = ldr.read_stencil(&fc);
            let tv = ldr.write(&tc);
            Box::new(move |c| {
                let mut s = 0.0;
                for slot in 0..6 {
                    s += fv.ngh(c, slot, 0);
                }
                tv.set(c, 0, s);
            })
        },
        // 6 neighbor adds per cell: gives the virtual-clock model (and the
        // redundant-recompute meter) something nonzero to price.
        6,
        1.0,
    )
}

fn build_sequence(s: &Setup, ops_list: &[Op]) -> Vec<Container> {
    ops_list
        .iter()
        .map(|op| match op {
            Op::MapX => {
                let xc = s.x.clone();
                Container::compute("mapx", s.grid.as_space(), move |ldr| {
                    let xv = ldr.read_write(&xc);
                    Box::new(move |c| xv.set(c, 0, 2.0 * xv.at(c, 0) + 1.0))
                })
            }
            Op::CopyXy => {
                let (xc, yc) = (s.x.clone(), s.y.clone());
                Container::compute("copyxy", s.grid.as_space(), move |ldr| {
                    let xv = ldr.read(&xc);
                    let yv = ldr.write(&yc);
                    Box::new(move |c| yv.set(c, 0, xv.at(c, 0)))
                })
            }
            Op::CopyYx => ops::copy(&s.grid, &s.y, &s.x),
            Op::StencilXy => stencil_sum(&s.grid, "stxy", &s.x, &s.y),
            Op::StencilYx => stencil_sum(&s.grid, "styx", &s.y, &s.x),
            Op::DotA => ops::dot(&s.grid, &s.x, &s.y, &s.dot_a),
        })
        .collect()
}

/// Logical iterations per case; divisible by every tested `k`.
const LOGICAL_ITERS: usize = 12;

struct CaseResult {
    bits: Vec<u64>,
    dot: f64,
    halo_rounds: u64,
    redundant_flops: u64,
    /// Iterations one execution performed (k if the super-step engaged).
    iters_per_exec: usize,
}

/// Compile + run `LOGICAL_ITERS` logical iterations of one sequence at a
/// fusion level, returning the observable state and metered counters.
fn run_case(
    ops_list: &[Op],
    n_dev: usize,
    occ: OccLevel,
    halo: HaloPolicy,
    fusion: FusionLevel,
) -> CaseResult {
    let s = setup(n_dev);
    let seq = build_sequence(&s, ops_list);
    let mut sk = Skeleton::sequence(
        &s.backend,
        "temporalprop",
        seq,
        SkeletonOptions {
            occ,
            halo_policy: halo,
            fusion,
            ..Default::default()
        },
    );
    let iters_per_exec = sk.logical_iters_per_execution();
    assert_eq!(
        LOGICAL_ITERS % iters_per_exec,
        0,
        "test iteration count must divide by the super-step depth"
    );
    let report = sk.run_iters(LOGICAL_ITERS / iters_per_exec);
    let mut bits = Vec::new();
    s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    CaseResult {
        bits,
        dot: s.dot_a.host_value(),
        halo_rounds: report.counters.halo_rounds,
        redundant_flops: report.counters.redundant_flops,
        iters_per_exec,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Temporal(k)` is bit-identical to `Conservative` over the same
    /// logical iteration count for arbitrary sequences — whether the
    /// super-step engages (deep halo + ghost recompute) or legality
    /// fails (fallback). When it engages on 2+ devices it runs strictly
    /// fewer halo rounds; when it falls back the rounds are equal.
    #[test]
    fn temporal_is_bit_identical_to_conservative(
        ops_list in prop::collection::vec((0usize..OPS.len()).prop_map(|i| OPS[i]), 1..4),
        k in 2u8..5,
        dev_pick in 0usize..4,
        occ_pick in 0usize..4,
        unified_halo in any::<bool>(),
    ) {
        let n_dev = [1, 2, 4, 8][dev_pick];
        let occ = OccLevel::ALL[occ_pick];
        let halo = if unified_halo {
            HaloPolicy::unified_default()
        } else {
            HaloPolicy::ExplicitTransfers
        };
        let cons = run_case(&ops_list, n_dev, occ, halo, FusionLevel::Conservative);
        let temp = run_case(&ops_list, n_dev, occ, halo, FusionLevel::Temporal(k));
        prop_assert_eq!(
            &temp.bits, &cons.bits,
            "temporal blocking changes field bits for {:?} k={} at {:?} on {} devices",
            ops_list, k, occ, n_dev
        );
        prop_assert_eq!(temp.dot, cons.dot, "temporal blocking changes dot a");
        if temp.iters_per_exec > 1 {
            prop_assert_eq!(temp.iters_per_exec, k as usize);
            if n_dev >= 2 {
                prop_assert!(
                    temp.halo_rounds < cons.halo_rounds,
                    "super-step must shrink halo rounds ({} -> {}) for {:?} k={} on {} devices",
                    cons.halo_rounds, temp.halo_rounds, ops_list, k, n_dev
                );
                prop_assert_eq!(
                    temp.halo_rounds * k as u64, cons.halo_rounds,
                    "one deep round per k iterations"
                );
            }
        } else {
            prop_assert_eq!(
                temp.halo_rounds, cons.halo_rounds,
                "fallback must match conservative round for round"
            );
            prop_assert_eq!(temp.redundant_flops, 0u64, "fallback recomputes nothing");
        }
    }
}

/// The canonical engagement case: a Jacobi-style sweep (stencil + pointer
/// swap). Deterministic over every `k` × device-count cell so counter
/// expectations can be exact.
#[test]
fn jacobi_super_step_engages_and_matches() {
    let jacobi = [Op::StencilXy, Op::CopyYx];
    for n_dev in [1usize, 2, 4, 8] {
        let cons = run_case(
            &jacobi,
            n_dev,
            OccLevel::Standard,
            HaloPolicy::ExplicitTransfers,
            FusionLevel::Conservative,
        );
        assert_eq!(cons.redundant_flops, 0, "conservative recomputes nothing");
        for k in 2u8..5 {
            let temp = run_case(
                &jacobi,
                n_dev,
                OccLevel::Standard,
                HaloPolicy::ExplicitTransfers,
                FusionLevel::Temporal(k),
            );
            assert_eq!(
                temp.iters_per_exec, k as usize,
                "super-step must engage on the Jacobi sweep (k={k}, {n_dev} devices)"
            );
            assert_eq!(
                temp.bits, cons.bits,
                "ghost-zone recompute must be bit-identical (k={k}, {n_dev} devices)"
            );
            if n_dev >= 2 {
                assert_eq!(
                    cons.halo_rounds, LOGICAL_ITERS as u64,
                    "conservative exchanges once per iteration"
                );
                assert_eq!(
                    temp.halo_rounds,
                    (LOGICAL_ITERS / k as usize) as u64,
                    "temporal exchanges once per super-step"
                );
                assert!(
                    temp.redundant_flops > 0,
                    "ghost recompute must be metered (k={k}, {n_dev} devices)"
                );
            } else {
                assert_eq!(temp.halo_rounds, 0);
                assert_eq!(cons.halo_rounds, 0);
                assert_eq!(
                    temp.redundant_flops, 0,
                    "one device has no ghost zone to recompute"
                );
            }
        }
    }
}

/// Reductions close super-steps: the same sweep plus a dot product must
/// fall back to the conservative pipeline, bit for bit and round for
/// round.
#[test]
fn reduction_closes_the_super_step() {
    let seq = [Op::StencilXy, Op::CopyYx, Op::DotA];
    let cons = run_case(
        &seq,
        4,
        OccLevel::Standard,
        HaloPolicy::ExplicitTransfers,
        FusionLevel::Conservative,
    );
    let temp = run_case(
        &seq,
        4,
        OccLevel::Standard,
        HaloPolicy::ExplicitTransfers,
        FusionLevel::Temporal(3),
    );
    assert_eq!(temp.iters_per_exec, 1, "reduction must force fallback");
    assert_eq!(temp.bits, cons.bits);
    assert_eq!(temp.dot, cons.dot);
    assert_eq!(temp.halo_rounds, cons.halo_rounds);
    assert_eq!(temp.redundant_flops, 0);
}

/// A grid without spare ghost capacity cannot host the expanded
/// iteration: the pass must fall back rather than build an illegal step.
#[test]
fn insufficient_ghost_capacity_falls_back() {
    let n_dev = 4;
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    // Default capacity = radius: ghost_capacity() is 0.
    let grid = DenseGrid::new(&backend, Dim3::new(4, 4, 64), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|a, b, c, _| ((a + b + c) % 5) as f64);
    let seq = vec![stencil_sum(&grid, "stxy", &x, &y), ops::copy(&grid, &y, &x)];
    let sk = Skeleton::sequence(
        &backend,
        "no-capacity",
        seq,
        SkeletonOptions {
            fusion: FusionLevel::Temporal(3),
            cache: false,
            ..Default::default()
        },
    );
    assert_eq!(
        sk.logical_iters_per_execution(),
        1,
        "no spare ghost layers: the super-step must not engage"
    );
}

/// Plan-cache round trip: a temporal plan compiled once must rebind onto
/// a structurally identical fresh sequence and still run the super-step
/// bit-identically.
#[test]
fn temporal_plan_rebinds_from_cache() {
    let run = || {
        let s = setup(4);
        let seq = build_sequence(&s, &[Op::StencilXy, Op::CopyYx]);
        let mut sk = Skeleton::sequence(
            &s.backend,
            "temporal-rebind",
            seq,
            SkeletonOptions {
                fusion: FusionLevel::Temporal(2),
                ..Default::default()
            },
        );
        assert_eq!(sk.logical_iters_per_execution(), 2);
        sk.run_iters(LOGICAL_ITERS / 2);
        let from_cache = sk.compiled_from_cache();
        let mut bits = Vec::new();
        s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
        s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
        (bits, from_cache)
    };
    let (first, _) = run();
    let (second, second_cached) = run();
    assert!(second_cached, "second compile must hit the plan cache");
    assert_eq!(first, second, "rebound super-step must match the original");
}
