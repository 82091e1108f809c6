//! Property tests of the link fault domain's transient tier: for
//! randomized container sequences, seeded fault plans mixing kernel,
//! halo-transfer and collective-link transients are absorbed by the
//! retry machinery with zero escapes, and the functional results stay
//! bit-identical to a fault-free run — across 2/4/8 devices and every
//! OCC level. The virtual clock pays for retries; the numerics must
//! never notice them.

use neon_core::{FaultPlan, OccLevel, ResilienceOptions, Skeleton, SkeletonOptions, Supervisor};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike,
    MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::Backend;
use proptest::prelude::*;

/// One step of a randomized sequence. Integer-valued arithmetic keeps
/// every f64 result exact, so bit-identity is a real property.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `x ← 2x + 1` (read-write map).
    MapX,
    /// `y ← Σ ngh(x)` (7-point stencil read of x — halo traffic).
    StencilXy,
    /// `x ← Σ ngh(y)` (7-point stencil read of y — halo traffic).
    StencilYx,
    /// `a ← x·y` (reduction — collective traffic).
    DotA,
}

const OPS: [Op; 4] = [Op::MapX, Op::StencilXy, Op::StencilYx, Op::DotA];

struct Setup {
    backend: Backend,
    grid: DenseGrid,
    x: Field<f64, DenseGrid>,
    y: Field<f64, DenseGrid>,
    dot_a: ScalarSet<f64>,
}

fn setup(n_dev: usize) -> Setup {
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::new(4, 4, 16), &[&st], StorageMode::Real).unwrap();
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
    Container::compute(name, g.as_space(), move |ldr| {
        let fv = ldr.read_stencil(&fc);
        let tv = ldr.write(&tc);
        Box::new(move |c| {
            let mut s = 0.0;
            for slot in 0..6 {
                s += fv.ngh(c, slot, 0);
            }
            tv.set(c, 0, s);
        })
    })
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
            Op::StencilXy => stencil_sum(&s.grid, "stxy", &s.x, &s.y),
            Op::StencilYx => stencil_sum(&s.grid, "styx", &s.y, &s.x),
            Op::DotA => ops::dot(&s.grid, &s.x, &s.y, &s.dot_a),
        })
        .collect()
}

/// Run `iters` iterations of the sequence under `plan`, returning the
/// full observable state. Resilience stays at the default retry policy
/// (3 attempts), which dominates the ≤2 consecutive failures a seeded
/// plan injects per site.
fn run_case(
    ops_list: &[Op],
    n_dev: usize,
    occ: OccLevel,
    iters: u64,
    plan: Option<FaultPlan>,
) -> Vec<u64> {
    let s = setup(n_dev);
    let seq = build_sequence(&s, ops_list);
    let sk = Skeleton::sequence(
        &s.backend,
        "link-prop",
        seq,
        SkeletonOptions {
            occ,
            resilience: ResilienceOptions {
                enabled: true,
                checkpoint_interval: 2,
                ..ResilienceOptions::default()
            },
            cache: false,
            ..Default::default()
        },
    );
    let mut sup = Supervisor::new(sk);
    if let Some(p) = plan {
        sup.target_mut().install_fault_plan(p);
    }
    sup.run(iters)
        .expect("transient-only plans must always heal");
    let faults = sup.report().faults;
    assert_eq!(faults.injected, faults.recovered);
    assert_eq!(faults.escaped, 0, "no transient may escape");
    let mut bits = Vec::new();
    s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    bits.push(s.dot_a.host_value().to_bits());
    bits
}

fn op_sequences() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..OPS.len()).prop_map(|i| OPS[i]), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random programs × seeded link-fault plans × {2,4,8} devices × all
    /// OCC levels: retried transients are bit-invisible.
    #[test]
    fn transient_link_faults_are_bit_invisible(
        ops_list in op_sequences(),
        n_dev_idx in 0usize..3,
        occ_idx in 0usize..4,
        seed in any::<u32>(),
        n_faults in 1usize..6,
        iters in 3u64..6,
    ) {
        let n_dev = [2usize, 4, 8][n_dev_idx];
        let occ = [
            OccLevel::None,
            OccLevel::Standard,
            OccLevel::Extended,
            OccLevel::TwoWayExtended,
        ][occ_idx];
        let plan = FaultPlan::seeded_with_links(seed as u64, iters, n_dev, n_faults);
        let clean = run_case(&ops_list, n_dev, occ, iters, None);
        let faulted = run_case(&ops_list, n_dev, occ, iters, Some(plan));
        prop_assert_eq!(
            faulted, clean,
            "seed {} ({} faults) changed bits for {:?} on {} devices at {:?}",
            seed, n_faults, ops_list, n_dev, occ
        );
    }
}
