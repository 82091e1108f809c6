//! Property-based tests of the fault-injection + self-healing pipeline:
//! for random programs, random fault plans, any device count and any
//! optimization level, a healed run must be **bit-identical** to a
//! fault-free run.
//!
//! This works because the fault model gives failed attempts launch
//! semantics (no data side effects), retries only add virtual time, and
//! an escaped fault aborts the iteration *before* the faulted operation
//! runs — the rollback then replays from a checkpoint with the fault
//! specs already consumed.

use proptest::prelude::*;

use neon::prelude::*;
use neon_core::{FaultPlan, ResilienceOptions};
use neon_domain::{ops, FieldStencil as _, FieldWrite as _, StorageMode};

const DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Outcome of one run of the random program: every field value and the
/// reduction scalar, as exact bit patterns.
#[derive(PartialEq, Eq, Debug)]
struct RunBits {
    u: Vec<u64>,
    v: Vec<u64>,
    s: u64,
    rollbacks: u64,
}

/// A small iterable program exercising every checkpointable state kind:
/// a stencil (`v ← Σ ngh(u)`, with halo exchanges when multi-device), a
/// read-write map (`u ← u + 0.25·v`) and a reduction (`s ← u·v`).
fn run_program(
    seed: i32,
    ndev: usize,
    occ: OccLevel,
    fusion: FusionLevel,
    resilience: ResilienceOptions,
    plan: Option<FaultPlan>,
    iters: usize,
) -> RunBits {
    let b = Backend::dgx_a100(ndev);
    let st = Stencil::seven_point();
    let g = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&st], StorageMode::Real).unwrap();
    let u = Field::<f64, _>::new(&g, "u", 1, 0.0, MemLayout::SoA).unwrap();
    let v = Field::<f64, _>::new(&g, "v", 1, 0.0, MemLayout::SoA).unwrap();
    let s = ScalarSet::<f64>::new(ndev, "s", 0.0, |a, b| a + b);
    u.fill(move |x, y, z, _| ((x * 31 + y * 17 + z * 7 + seed) % 23) as f64 * 0.5);
    let sten = {
        let (uc, vc) = (u.clone(), v.clone());
        Container::compute("sten", g.as_space(), move |ldr| {
            let uv = ldr.read_stencil(&uc);
            let vv = ldr.write(&vc);
            Box::new(move |c| {
                let mut acc = 0.0;
                for slot in 0..6 {
                    acc += uv.ngh(c, slot, 0);
                }
                vv.set(c, 0, acc);
            })
        })
    };
    let relax = ops::axpy_const(&g, 0.25, &v, &u);
    let reduce = ops::dot(&g, &u, &v, &s);

    let sk = Skeleton::sequence(
        &b,
        "fault-prop",
        vec![sten, relax, reduce],
        SkeletonOptions {
            occ,
            fusion,
            resilience,
            ..Default::default()
        },
    );
    let mut sup = Supervisor::new(sk);
    if let Some(p) = plan {
        sup.target_mut().install_fault_plan(p);
    }
    sup.run(iters as u64).expect("transient faults must heal");

    let mut out = RunBits {
        u: Vec::new(),
        v: Vec::new(),
        s: s.host_value().to_bits(),
        rollbacks: sup.report().rollbacks,
    };
    u.for_each(|_, _, _, _, val| out.u.push(val.to_bits()));
    v.for_each(|_, _, _, _, val| out.v.push(val.to_bits()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Healed runs are bit-identical to fault-free runs for any program
    /// seed, fault plan, device count, OCC level and fusion level —
    /// whether the faults are absorbed by retry or escape into rollback.
    #[test]
    fn prop_faulted_run_bit_identical(
        seed in 0i32..1000,
        fault_seed in 0u64..10_000,
        ndev_idx in 0usize..4,
        occ_idx in 0usize..4,
        fuse in any::<bool>(),
        n_faults in 0usize..6,
        max_attempts in 2u32..4,
        checkpoint_interval in 1u32..4,
    ) {
        let ndev = DEVICE_COUNTS[ndev_idx];
        let occ = OccLevel::ALL[occ_idx];
        let fusion = if fuse { FusionLevel::Conservative } else { FusionLevel::Off };
        let iters = 5usize;
        let resilience = ResilienceOptions {
            enabled: true,
            max_attempts,
            checkpoint_interval,
            ..ResilienceOptions::default()
        };
        // fails in seeded plans is 1..=2, so max_attempts == 2 makes some
        // faults escape retry and exercise the rollback path; 3 absorbs
        // everything in-place.
        let plan = FaultPlan::seeded(fault_seed, iters as u64, ndev, n_faults);

        let clean = run_program(seed, ndev, occ, fusion, resilience, None, iters);
        let faulted = run_program(seed, ndev, occ, fusion, resilience, Some(plan), iters);

        prop_assert_eq!(clean.rollbacks, 0);
        prop_assert_eq!(&faulted.u, &clean.u, "field u diverged");
        prop_assert_eq!(&faulted.v, &clean.v, "field v diverged");
        prop_assert_eq!(faulted.s, clean.s, "reduction scalar diverged");
    }

    /// The same fault plan under the same options is deterministic: two
    /// faulted runs agree bit-for-bit *and* in their recovery counters.
    #[test]
    fn prop_fault_recovery_deterministic(
        seed in 0i32..1000,
        fault_seed in 0u64..10_000,
        ndev_idx in 0usize..4,
        occ_idx in 0usize..4,
    ) {
        let ndev = DEVICE_COUNTS[ndev_idx];
        let occ = OccLevel::ALL[occ_idx];
        let iters = 4usize;
        let resilience = ResilienceOptions {
            enabled: true,
            max_attempts: 2,
            checkpoint_interval: 2,
            ..ResilienceOptions::default()
        };
        let mk_plan = || FaultPlan::seeded(fault_seed, iters as u64, ndev, 4);
        let a = run_program(seed, ndev, occ, FusionLevel::Off, resilience, Some(mk_plan()), iters);
        let b = run_program(seed, ndev, occ, FusionLevel::Off, resilience, Some(mk_plan()), iters);
        prop_assert_eq!(a, b);
    }
}
