//! Property tests of the fuse pass: for randomized container sequences,
//! `FusionLevel::Conservative` must be functionally invisible — bit-
//! identical fields and reduction scalars versus `FusionLevel::Off` — at
//! every device count, OCC level and halo policy, while never launching
//! *more* kernels. Plus deterministic tests of the collective-fusion half:
//! independent same-level reductions collapse into one all-reduce round.

use neon_core::{FusionLevel, HaloPolicy, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldRead as _, FieldStencil as _, FieldWrite as _,
    GridLike, MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::{Backend, SpanKind};
use proptest::prelude::*;

/// One step of a randomized sequence. The fields are integer-valued so
/// every arithmetic result is exact in f64 — bit-identity between fused
/// and unfused runs is then a real property, not a tolerance.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `x ← 2x + 1` (read-write map).
    MapX,
    /// `y ← y + 3` (read-write map).
    MapY,
    /// `y ← x` (read x, write y — exercises fused read elision).
    CopyXy,
    /// `y ← Σ ngh(x)` (7-point stencil read of x).
    StencilXy,
    /// `x ← Σ ngh(y)` (7-point stencil read of y).
    StencilYx,
    /// `a ← x·y` (reduction).
    DotA,
    /// `b ← y·y` (reduction).
    DotB,
}

const OPS: [Op; 7] = [
    Op::MapX,
    Op::MapY,
    Op::CopyXy,
    Op::StencilXy,
    Op::StencilYx,
    Op::DotA,
    Op::DotB,
];

struct Setup {
    backend: Backend,
    grid: DenseGrid,
    x: Field<f64, DenseGrid>,
    y: Field<f64, DenseGrid>,
    dot_a: ScalarSet<f64>,
    dot_b: ScalarSet<f64>,
}

fn setup(n_dev: usize) -> Setup {
    let backend = Backend::dgx_a100(n_dev);
    let st = Stencil::seven_point();
    let grid = DenseGrid::new(&backend, Dim3::new(5, 4, 16), &[&st], StorageMode::Real).unwrap();
    let x = Field::<f64, _>::new(&grid, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&grid, "y", 1, 0.0, MemLayout::SoA).unwrap();
    x.fill(|a, b, c, _| ((a * 31 + b * 17 + c * 7) % 13) as f64 - 6.0);
    y.fill(|a, b, c, _| ((a * 5 + b * 3 + c) % 7) as f64);
    let dot_a = ScalarSet::<f64>::new(n_dev, "a", 0.0, |p, q| p + q);
    let dot_b = ScalarSet::<f64>::new(n_dev, "b", 0.0, |p, q| p + q);
    Setup {
        backend,
        grid,
        x,
        y,
        dot_a,
        dot_b,
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
            Op::MapY => {
                let yc = s.y.clone();
                Container::compute("mapy", s.grid.as_space(), move |ldr| {
                    let yv = ldr.read_write(&yc);
                    Box::new(move |c| yv.set(c, 0, yv.at(c, 0) + 3.0))
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
            Op::StencilXy => stencil_sum(&s.grid, "stxy", &s.x, &s.y),
            Op::StencilYx => stencil_sum(&s.grid, "styx", &s.y, &s.x),
            Op::DotA => ops::dot(&s.grid, &s.x, &s.y, &s.dot_a),
            Op::DotB => ops::dot(&s.grid, &s.y, &s.y, &s.dot_b),
        })
        .collect()
}

/// Compile + run one randomized sequence at a fusion level, returning the
/// full observable state (field bits, reduction scalars) and the metered
/// launch/traffic counters.
fn run_case(
    ops_list: &[Op],
    n_dev: usize,
    occ: OccLevel,
    halo: HaloPolicy,
    fusion: FusionLevel,
) -> (Vec<u64>, f64, f64, u64, u64, u64, u64) {
    let s = setup(n_dev);
    let seq = build_sequence(&s, ops_list);
    let mut sk = Skeleton::sequence(
        &s.backend,
        "fuseprop",
        seq,
        SkeletonOptions {
            occ,
            halo_policy: halo,
            fusion,
            ..Default::default()
        },
    );
    let report = sk.run();
    let mut bits = Vec::new();
    s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    (
        bits,
        s.dot_a.host_value(),
        s.dot_b.host_value(),
        report.counters.kernel_launches,
        report.counters.kernel_bytes_moved,
        report.counters.halo_rounds,
        report.counters.redundant_flops,
    )
}

fn op_sequences() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..OPS.len()).prop_map(|i| OPS[i]), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservative fusion never changes a bit of the observable state and
    /// never launches more kernels or moves more bytes than the unfused
    /// pipeline — for arbitrary sequences across 1/2/4/8 devices, every
    /// OCC level and both halo policies.
    #[test]
    fn fused_is_bit_identical_to_unfused(
        ops_list in op_sequences(),
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
        let unfused = run_case(&ops_list, n_dev, occ, halo, FusionLevel::Off);
        let fused = run_case(&ops_list, n_dev, occ, halo, FusionLevel::Conservative);
        prop_assert_eq!(
            &fused.0, &unfused.0,
            "fusion changes field bits for {:?} at {:?} on {} devices",
            ops_list, occ, n_dev
        );
        prop_assert_eq!(fused.1, unfused.1, "fusion changes dot a");
        prop_assert_eq!(fused.2, unfused.2, "fusion changes dot b");
        prop_assert!(
            fused.3 <= unfused.3,
            "fusion raised launches {} -> {} for {:?} at {:?} on {} devices",
            unfused.3, fused.3, ops_list, occ, n_dev
        );
        prop_assert!(
            fused.4 <= unfused.4,
            "fusion raised bytes moved {} -> {} for {:?} at {:?} on {} devices",
            unfused.4, fused.4, ops_list, occ, n_dev
        );
        prop_assert_eq!(
            fused.5, unfused.5,
            "kernel fusion must not change the halo-round count for {:?} on {} devices",
            ops_list, n_dev
        );
        prop_assert_eq!(fused.6, 0u64, "conservative fusion never recomputes ghost cells");
        prop_assert_eq!(unfused.6, 0u64, "unfused runs never recompute ghost cells");
    }
}

/// Two independent reductions on *different* grids (so kernel fusion can't
/// touch them) land at the same graph level; collective fusion must fold
/// their finalizations into one multi-scalar all-reduce round.
#[test]
fn independent_reductions_share_one_collective_round() {
    let run = |fusion: FusionLevel| -> (usize, f64, f64) {
        let b = Backend::dgx_a100(4);
        let st = Stencil::seven_point();
        let g1 = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&st], StorageMode::Real).unwrap();
        let g2 = DenseGrid::new(&b, Dim3::new(5, 3, 16), &[&st], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g1, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g2, "y", 1, 0.0, MemLayout::SoA).unwrap();
        x.fill(|a, b, c, _| ((a + 2 * b + 3 * c) % 5) as f64);
        y.fill(|a, b, c, _| ((2 * a + b + c) % 7) as f64 - 3.0);
        let da = ScalarSet::<f64>::new(4, "da", 0.0, |p, q| p + q);
        let db = ScalarSet::<f64>::new(4, "db", 0.0, |p, q| p + q);
        let seq = vec![ops::dot(&g1, &x, &x, &da), ops::dot(&g2, &y, &y, &db)];
        let mut sk = Skeleton::sequence(
            &b,
            "colfuse",
            seq,
            SkeletonOptions {
                fusion,
                trace: true,
                cache: false,
                ..Default::default()
            },
        );
        sk.run();
        let trace = sk.take_trace().expect("trace enabled");
        let collective_spans = trace
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Collective)
            .count();
        (collective_spans, da.host_value(), db.host_value())
    };
    let (unfused_spans, ua, ub) = run(FusionLevel::Off);
    let (fused_spans, fa, fb) = run(FusionLevel::Conservative);
    assert_eq!(fa, ua, "collective fusion changes dot values");
    assert_eq!(fb, ub, "collective fusion changes dot values");
    assert!(
        fused_spans < unfused_spans,
        "merging two all-reduces must shrink the collective span count \
         ({unfused_spans} -> {fused_spans})"
    );
    assert_eq!(
        fused_spans * 2,
        unfused_spans,
        "two independent rounds should become exactly one"
    );
}
