//! Property tests of the recovery supervisor driving solver jobs through
//! every fault tier: retry, rollback, link repair and eviction.
//!
//! Random plans mix kernel, halo-transfer and collective-link transients
//! with at most one permanent event (device loss, link loss or link
//! degrade), on 2- and 4-device fleets, checkpointing every 1–5
//! iterations, with the iterations split randomly into supervisor calls.
//!
//! * Transient-only and link-only runs are bit-identical to fault-free
//!   runs: failed attempts have no data effects, and a link repair keeps
//!   the partition (so every floating-point reduction grouping).
//! * Device-loss runs are bit-identical to a fault-free run that
//!   voluntarily heals the same loss at the checkpoint the eviction
//!   resumed from (fewer partitions regroup the dot products, so the
//!   suffix generally differs from the 4-device run).
//! * The report balances: every successful execution is either committed
//!   or replayed, and every escaped transient caused exactly one rollback.

use proptest::prelude::*;

use neon_apps::{JobSpec, LbmJob, PoissonJob, SolverJob};
use neon_core::{
    ExecError, FaultPlan, OccLevel, PermanentFault, Recoverable, RecoveryReport, ResilienceOptions,
    SkeletonOptions, Supervisor,
};
use neon_domain::Dim3;
use neon_serve::{solo_run_bits, EvictionEvent};
use neon_sys::{Backend, DeviceId};

fn options(max_attempts: u32, checkpoint_interval: u32) -> SkeletonOptions {
    SkeletonOptions {
        resilience: ResilienceOptions {
            enabled: true,
            max_attempts,
            checkpoint_interval,
            ..ResilienceOptions::default()
        },
        ..SkeletonOptions::with_occ(OccLevel::Standard)
    }
}

fn rhs(x: i32, y: i32, z: i32) -> f64 {
    ((x * 3 + y * 5 + z * 7) % 11) as f64 - 5.0
}

const DIM: Dim3 = Dim3 { x: 8, y: 8, z: 12 };

fn supervised(ndev: usize, iters: u64, opts: SkeletonOptions) -> Supervisor<PoissonJob> {
    let job = PoissonJob::new(&Backend::dgx_a100(ndev), DIM, iters, opts, rhs)
        .expect("solver builds on a healthy fleet");
    Supervisor::new(job)
}

/// Split `n` iterations into calls of the given sizes (the last call takes
/// the remainder).
fn calls(n: u64, sizes: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut left = n;
    for &s in sizes {
        if left == 0 {
            break;
        }
        out.push(s.min(left));
        left -= s.min(left);
    }
    if left > 0 {
        out.push(left);
    }
    out
}

fn assert_balanced(r: &RecoveryReport) {
    assert_eq!(
        r.exec.executions,
        r.committed + r.replayed,
        "every execution is committed or replayed: {r:?}"
    );
    assert_eq!(
        r.faults.escaped, r.rollbacks,
        "every escaped transient rolls back once: {r:?}"
    );
}

/// The checkpoint a permanent fault at iteration `at` rolls back to: the
/// last multiple of `interval` past the start of the call containing it.
fn rollback_point(call_sizes: &[u64], at: u64, interval: u64) -> u64 {
    let mut start = 0;
    for &c in call_sizes {
        if at < start + c {
            return start + (at - start) / interval * interval;
        }
        start += c;
    }
    unreachable!("fault iteration {at} lies past the run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_supervised_runs_match_their_oracles(
        ndev_idx in 0usize..2,
        interval in 1u32..=5,
        max_attempts in 2u32..4,
        n in 4u64..10,
        sizes in prop::collection::vec(1u64..5, 1..5),
        fault_seed in 0u64..10_000,
        n_transients in 0usize..5,
        permanent in 0usize..4,
        at_pick in any::<u64>(),
        src in any::<usize>(),
        dst in any::<usize>(),
        factor_i in 1u32..=3,
    ) {
        let ndev = [2usize, 4][ndev_idx];
        let opts = options(max_attempts, interval);
        let split = calls(n, &sizes);
        let at = at_pick % n;
        let (a, b) = (src % ndev, (src % ndev + 1 + dst % (ndev - 1)) % ndev);
        let (a, b) = (DeviceId(a.min(b)), DeviceId(a.max(b)));
        let dead = DeviceId(src % ndev);

        let mut plan = FaultPlan::seeded_with_links(fault_seed, n, ndev, n_transients);
        plan = match permanent {
            1 => plan.with_device_loss(at, dead),
            2 => plan.with_link_loss(at, a, b),
            3 => plan.with_link_degrade(at, a, b, factor_i as f64 * 0.25),
            _ => plan,
        };

        let mut clean = supervised(ndev, n, opts);
        clean.run(n).expect("a fault-free run heals trivially");

        let mut faulted = supervised(ndev, n, opts);
        faulted.target_mut().install_fault_plan(plan);
        for &c in &split {
            faulted.run(c).expect("every tier heals");
        }
        let report = faulted.report();
        assert_balanced(&report);
        prop_assert_eq!(report.committed, n);
        prop_assert_eq!(faulted.target().completed(), n);
        prop_assert_eq!(report.evictions, u64::from(permanent == 1));
        prop_assert_eq!(report.link_repairs, u64::from(permanent >= 2));

        if permanent == 1 {
            prop_assert_eq!(faulted.target().num_devices(), ndev - 1);
            let resume = rollback_point(&split, at, u64::from(interval));
            let mut oracle = supervised(ndev, n, opts);
            oracle.run(resume).unwrap();
            oracle.heal(PermanentFault::DeviceLoss(dead)).unwrap();
            oracle.run(n - resume).unwrap();
            prop_assert_eq!(
                faulted.target().result_bits(),
                oracle.target().result_bits(),
                "device {:?} lost at {} diverged from the heal-at-{} oracle",
                dead, at, resume
            );
        } else {
            prop_assert_eq!(faulted.target().num_devices(), ndev);
            prop_assert_eq!(
                faulted.target().result_bits(),
                clean.target().result_bits(),
                "permanent kind {} at {} on {} devices leaked into the numerics",
                permanent, at, ndev
            );
        }
    }
}

/// A device lost mid-call rolls back to the last periodic checkpoint; the
/// iterations between it and the loss are replayed on the survivors and
/// counted, and no pre-loss execution drops out of the report.
#[test]
fn device_loss_report_counts_replayed_iterations() {
    let mut sup = supervised(4, 10, options(3, 4));
    sup.target_mut()
        .install_fault_plan(FaultPlan::none().with_device_loss(6, DeviceId(2)));
    sup.run(10).expect("eviction heals");
    let r = sup.report();
    assert_eq!(r.evictions, 1);
    assert_eq!(
        r.replayed, 2,
        "iterations 4 and 5 re-ran after the rollback"
    );
    assert_eq!(r.committed, 10);
    assert_eq!(r.exec.executions, 12, "10 committed + 2 replayed");
    assert_eq!(r.faults.injected, 1, "the loss itself is a fault event");
    assert_balanced(&r);
}

/// A permanent degrade really rebuilds on the slower wire.
#[test]
fn link_degrade_rebuilds_on_the_slower_wire() {
    let mut sup = supervised(4, 6, options(3, 3));
    sup.target_mut()
        .install_fault_plan(FaultPlan::none().with_link_degrade(3, DeviceId(1), DeviceId(2), 0.25));
    sup.run(6).unwrap();
    let healthy = Backend::dgx_a100(4);
    let link = |b: &Backend| b.topology().link(DeviceId(1), DeviceId(2)).bandwidth_gb_s;
    assert!(link(sup.target().backend()) < link(&healthy) * 0.3);
    assert_eq!(sup.report().link_repairs, 1);
}

/// Losing the only device is unrecoverable and surfaces as a structured
/// error, not a panic.
#[test]
fn last_device_loss_is_fatal_but_structured() {
    let mut sup = supervised(1, 5, options(3, 2));
    sup.target_mut()
        .install_fault_plan(FaultPlan::none().with_device_loss(2, DeviceId(0)));
    let err = sup.run(5).unwrap_err();
    assert!(matches!(
        err.error,
        ExecError::Permanent { fault: PermanentFault::DeviceLoss(d), .. } if d == DeviceId(0)
    ));
    assert!(err.heal.is_some(), "no backend survives: {err}");
    assert_eq!(
        sup.target().iteration(),
        2,
        "state restored to the checkpoint"
    );
    assert_balanced(&sup.report());
}

/// An LBM job gets every tier with no solver-specific code. Both a
/// voluntary eviction and a faulted run (an escaped transient, then a
/// device loss healed by eviction) match the serving layer's solo oracle
/// replaying the same eviction history.
#[test]
fn lbm_evictions_match_solo_oracle() {
    let fleet = Backend::dgx_a100(4);
    let opts = SkeletonOptions {
        resilience: ResilienceOptions {
            checkpoint_interval: 2,
            ..ResilienceOptions::default()
        },
        ..SkeletonOptions::with_occ(OccLevel::Standard)
    };
    let (dim, iters, at) = (8u32, 6u64, 4u64);
    let history = [EvictionEvent {
        at_iteration: at,
        from_ndev: 4,
        to_ndev: 3,
    }];
    let solo = solo_run_bits(&fleet, JobSpec::Lbm { dim, iters }, 4, opts, &history).unwrap();
    let supervised = || Supervisor::new(LbmJob::new(&fleet, dim, iters, opts).unwrap());

    let mut voluntary = supervised();
    voluntary.run(at).unwrap();
    voluntary
        .heal(PermanentFault::DeviceLoss(DeviceId(1)))
        .unwrap();
    voluntary.run(iters - at).unwrap();
    assert_eq!(voluntary.target().num_devices(), 3);
    assert_eq!(voluntary.target().result_bits(), solo);

    // Checkpoints at 0, 2 and 4: the loss at 5 resumes from `at`.
    let mut faulted = supervised();
    faulted.target_mut().install_fault_plan(
        FaultPlan::none()
            .with_kernel_fault(1, DeviceId(0), 0, 1)
            .with_device_loss(at + 1, DeviceId(1)),
    );
    faulted.run(iters).unwrap();
    let r = faulted.report();
    assert_eq!((r.rollbacks, r.evictions), (1, 1));
    assert_balanced(&r);
    assert_eq!(faulted.target().result_bits(), solo);
}
