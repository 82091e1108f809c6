//! Integration tests for the serving layer: bit-identity under
//! multiplexing, weighted fairness, admission shedding, device-loss
//! recovery, and cross-tenant plan sharing.

use neon_apps::JobSpec;
use neon_core::{OccLevel, SkeletonOptions};
use neon_serve::{
    solo_run_bits, DeviceLoss, JobRequest, LinkFault, SchedPolicy, ServeConfig, Server, TenantSpec,
};
use neon_sys::{Backend, DeviceId};

fn options() -> SkeletonOptions {
    SkeletonOptions::with_occ(OccLevel::Standard)
}

fn poisson(dim: u32, iters: u64, rhs_seed: u64) -> JobSpec {
    JobSpec::Poisson {
        dim,
        iters,
        rhs_seed,
    }
}

fn lbm(dim: u32, iters: u64) -> JobSpec {
    JobSpec::Lbm { dim, iters }
}

/// A mixed request stream: two tenants interleaving Poisson and LBM jobs
/// of different sizes and device counts.
fn mixed_requests() -> Vec<JobRequest> {
    vec![
        JobRequest {
            tenant: 0,
            spec: poisson(8, 6, 11),
            ndev: 1,
            arrival_us: 0.0,
        },
        JobRequest {
            tenant: 1,
            spec: poisson(10, 5, 23),
            ndev: 2,
            arrival_us: 5.0,
        },
        JobRequest {
            tenant: 0,
            spec: lbm(6, 8),
            ndev: 1,
            arrival_us: 10.0,
        },
        JobRequest {
            tenant: 1,
            spec: poisson(8, 7, 31),
            ndev: 1,
            arrival_us: 12.0,
        },
        JobRequest {
            tenant: 0,
            spec: poisson(10, 4, 7),
            ndev: 2,
            arrival_us: 40.0,
        },
    ]
}

#[test]
fn multiplexed_jobs_are_bit_identical_to_solo_runs() {
    let fleet = Backend::dgx_a100(4);
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 2.0)],
        ServeConfig {
            quantum_iters: 2,
            ..ServeConfig::default()
        },
    );
    let report = server.run(mixed_requests());

    assert_eq!(report.shed, 0);
    for o in &report.outcomes {
        assert!(o.completed, "every job should finish: {:?}", o.spec);
        let solo = solo_run_bits(
            &fleet,
            o.spec,
            o.first_ndev.expect("ran"),
            options(),
            &o.evictions,
        )
        .expect("solo replay");
        assert_eq!(
            o.result_bits,
            Some(solo),
            "multiplexed result must match solo run for {:?}",
            o.spec
        );
    }
    // The shared plan cache should have served repeat compiles: five jobs,
    // but only a handful of distinct (program, fingerprint) keys.
    assert!(
        report.cache_hits > 0,
        "expected cross-job plan-cache hits, got {} hits / {} misses",
        report.cache_hits,
        report.cache_misses
    );
}

/// A tenant is charged exactly the traffic its job reports: with one job
/// and no faults, the account equals a solo build + `advance(total)` on an
/// equal-size backend — the CG setup execution included, since it lands
/// in the first quantum's time too.
#[test]
fn tenant_traffic_equals_the_solo_job_report() {
    let fleet = Backend::dgx_a100(4);
    let spec = poisson(8, 5, 13);
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0)],
        ServeConfig {
            quantum_iters: 2,
            ..ServeConfig::default()
        },
    );
    let report = server.run(vec![JobRequest {
        tenant: 0,
        spec,
        ndev: 2,
        arrival_us: 0.0,
    }]);
    assert!(report.outcomes[0].completed);

    let backend = fleet
        .with_devices(&[DeviceId(0), DeviceId(1)])
        .expect("subset");
    let mut solo = spec.build(&backend, options()).expect("solo job");
    let solo_report = solo.advance(spec.iters());
    assert!(solo_report.counters.kernel_launches > 0);
    assert_eq!(report.tenants[0].iterations, spec.iters());
    assert_eq!(report.tenants[0].counters, solo_report.counters);
}

#[test]
fn weighted_fair_queueing_tracks_weights() {
    let fleet = Backend::dgx_a100(2);
    // Two backlogged tenants, weight 1 vs 3, each submitting a long train
    // of identical single-device jobs at t=0: service should split ~1:3.
    let mut requests = Vec::new();
    for i in 0..8 {
        requests.push(JobRequest {
            tenant: 0,
            spec: poisson(8, 6, 100 + i),
            ndev: 1,
            arrival_us: 0.0,
        });
        requests.push(JobRequest {
            tenant: 1,
            spec: poisson(8, 6, 200 + i),
            ndev: 1,
            arrival_us: 0.0,
        });
    }
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("light", 1.0), TenantSpec::new("heavy", 3.0)],
        ServeConfig {
            queue_capacity: 64,
            quantum_iters: 2,
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    // Both tenants are fully served (equal finite demand), so *end-state*
    // service is equal by construction — weighted fairness shows up in
    // *when* service was delivered. The weight-3 tenant must drain its
    // jobs markedly earlier and wait less overall than the weight-1 one.
    let light = &report.tenants[0];
    let heavy = &report.tenants[1];
    assert!(light.jobs_completed == 8 && heavy.jobs_completed == 8);
    let mean_finish = |tenant: usize| -> f64 {
        let f: Vec<f64> = report
            .outcomes
            .iter()
            .filter(|o| o.tenant == tenant)
            .map(|o| o.finish_us.expect("completed"))
            .collect();
        f.iter().sum::<f64>() / f.len() as f64
    };
    assert!(
        mean_finish(1) * 1.2 < mean_finish(0),
        "heavy tenant should drain sooner: heavy {:.0}us vs light {:.0}us",
        mean_finish(1),
        mean_finish(0)
    );
    assert!(
        heavy.queue_wait_us < light.queue_wait_us,
        "heavy tenant waited {:.0}us, light {:.0}us",
        heavy.queue_wait_us,
        light.queue_wait_us
    );
}

#[test]
fn admission_control_sheds_past_queue_capacity() {
    let fleet = Backend::dgx_a100(2);
    // Ten simultaneous arrivals into a queue of 3: some must be shed, and
    // shed jobs never run.
    let requests: Vec<JobRequest> = (0..10)
        .map(|i| JobRequest {
            tenant: 0,
            spec: poisson(8, 4, i),
            ndev: 2,
            arrival_us: 0.0,
        })
        .collect();
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("only", 1.0)],
        ServeConfig {
            queue_capacity: 3,
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert!(report.shed > 0, "tiny queue must shed under a burst");
    assert_eq!(report.tenants[0].jobs_shed, report.shed);
    let completed = report.outcomes.iter().filter(|o| o.completed).count() as u64;
    assert_eq!(completed + report.shed, 10);
    for o in &report.outcomes {
        if !o.admitted {
            assert!(o.start_us.is_none() && o.result_bits.is_none());
        }
    }
}

#[test]
fn device_loss_survivors_match_solo_replay() {
    let fleet = Backend::dgx_a100(4);
    // A loss early enough that multi-device jobs are mid-flight. Device 1
    // dies; jobs pinned to it re-plan and must still produce solo bits.
    let requests = vec![
        JobRequest {
            tenant: 0,
            spec: poisson(10, 10, 5),
            ndev: 2,
            arrival_us: 0.0,
        },
        JobRequest {
            tenant: 1,
            spec: poisson(10, 10, 9),
            ndev: 2,
            arrival_us: 0.0,
        },
        JobRequest {
            tenant: 0,
            spec: lbm(6, 10),
            ndev: 1,
            arrival_us: 2.0,
        },
    ];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            device_loss: Some(DeviceLoss {
                at_us: 40.0,
                device: 1,
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.device_losses, 1);
    let evicted: usize = report.outcomes.iter().map(|o| o.evictions.len()).sum();
    assert!(
        evicted > 0,
        "the loss must have forced at least one re-plan"
    );
    for o in &report.outcomes {
        assert!(o.completed, "every job must survive the loss: {:?}", o.spec);
        let solo = solo_run_bits(
            &fleet,
            o.spec,
            o.first_ndev.expect("ran"),
            options(),
            &o.evictions,
        )
        .expect("solo replay");
        assert_eq!(
            o.result_bits,
            Some(solo),
            "post-loss result must match eviction-replaying solo run for {:?}",
            o.spec
        );
    }
    // Aborted quantum time is charged as waste, not service.
    let wasted: f64 = report.tenants.iter().map(|t| t.wasted_device_us).sum();
    assert!(
        wasted > 0.0,
        "an in-flight quantum should have been aborted"
    );
}

/// The ordered dispatch index must reproduce WFQ's `(vtime, seq)` order
/// exactly. One device serializes dispatches, identical job specs give
/// every quantum the same virtual cost `d`, and weight 2 halves tenant 1's
/// vtime increments — halving is exact in f64, so the whole schedule is
/// hand-computable: t0 runs (v0: 0→d), then t1 twice (v1: 0→d/2→d), then
/// the (d, seq) tie goes to t0's seq 2, then t1's seq 5 (d < 2d), then t0.
#[test]
fn wfq_dispatch_order_is_hand_computable() {
    let fleet = Backend::dgx_a100(1);
    let requests: Vec<JobRequest> = (0..6)
        .map(|i| JobRequest {
            tenant: (i % 2) as usize,
            spec: poisson(8, 4, 300 + i),
            ndev: 1,
            arrival_us: 0.0,
        })
        .collect();
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("w1", 1.0), TenantSpec::new("w2", 2.0)],
        ServeConfig {
            queue_capacity: 16,
            quantum_iters: 64, // each job runs in one quantum
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert!(report.outcomes.iter().all(|o| o.completed));
    let mut starts: Vec<(f64, usize)> = report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| (o.start_us.expect("ran"), i))
        .collect();
    starts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let order: Vec<usize> = starts.into_iter().map(|(_, i)| i).collect();
    assert_eq!(
        order,
        vec![0, 1, 3, 2, 5, 4],
        "WFQ dispatch order drifted from the hand-computed schedule"
    );
}

#[test]
fn fifo_baseline_serializes_and_wfq_beats_it_on_makespan() {
    let fleet = Backend::dgx_a100(4);
    let requests: Vec<JobRequest> = (0..6)
        .map(|i| JobRequest {
            tenant: (i % 2) as usize,
            spec: poisson(8, 6, 50 + i),
            ndev: 1,
            arrival_us: 0.0,
        })
        .collect();
    let tenants = || vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)];

    let fifo = Server::new(
        &fleet,
        tenants(),
        ServeConfig {
            policy: SchedPolicy::FifoExclusive,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    )
    .run(requests.clone());
    let wfq = Server::new(
        &fleet,
        tenants(),
        ServeConfig {
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    )
    .run(requests);

    // FIFO runs one 1-device job at a time on a 4-device fleet; WFQ
    // space-shares four at once.
    assert!(fifo.outcomes.iter().all(|o| o.completed));
    assert!(wfq.outcomes.iter().all(|o| o.completed));
    assert!(
        wfq.makespan.as_us() * 1.3 < fifo.makespan.as_us(),
        "space sharing should beat exclusive FIFO by >1.3x: wfq {:.0}us fifo {:.0}us",
        wfq.makespan.as_us(),
        fifo.makespan.as_us()
    );
    // Same work either way: identical bits per submission index.
    for (a, b) in fifo.outcomes.iter().zip(wfq.outcomes.iter()) {
        assert_eq!(a.result_bits, b.result_bits);
    }
}

/// On a two-box island fleet the recorded collective route must track the
/// island structure of each job's pinned subset: subsets spanning both
/// islands route hierarchically, subsets inside one island stay flat —
/// and the routing never perturbs the bits.
#[test]
fn island_fleet_records_hierarchical_routes_and_stays_bit_identical() {
    use neon_core::CollectiveAlgorithm;

    let fleet = Backend::dgx_islands(&[4, 4]);
    // FIFO-exclusive pins each job to the first `ndev` fleet devices, so
    // the island split of every subset is known: 8 → [4,4], 5 → [4,1],
    // 4 → one whole island.
    let requests = vec![
        JobRequest {
            tenant: 0,
            spec: poisson(16, 6, 71),
            ndev: 8,
            arrival_us: 0.0,
        },
        JobRequest {
            tenant: 1,
            spec: poisson(10, 6, 72),
            ndev: 5,
            arrival_us: 1.0,
        },
        JobRequest {
            tenant: 0,
            spec: lbm(8, 6),
            ndev: 4,
            arrival_us: 2.0,
        },
    ];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)],
        ServeConfig {
            policy: SchedPolicy::FifoExclusive,
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);

    let routes: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| o.collective_route.expect("every job ran"))
        .collect();
    assert_eq!(routes[0], CollectiveAlgorithm::Hierarchical, "8 over [4,4]");
    assert_eq!(routes[1], CollectiveAlgorithm::Hierarchical, "5 over [4,1]");
    assert_ne!(
        routes[2],
        CollectiveAlgorithm::Hierarchical,
        "4 inside one island is pure NVLink"
    );
    for o in &report.outcomes {
        assert!(o.completed);
        let solo = solo_run_bits(
            &fleet,
            o.spec,
            o.first_ndev.expect("ran"),
            options(),
            &o.evictions,
        )
        .expect("solo replay");
        assert_eq!(
            o.result_bits,
            Some(solo),
            "island-fleet result must match solo run for {:?}",
            o.spec
        );
    }
}

/// Severing the NVLink inside an island mid-run splits the island: the
/// job pinned across it aborts its in-flight quantum, re-plans on the
/// degraded fleet with the *same* devices, and its collective route flips
/// from hierarchical to a flat schedule — recorded as a [`RouteChange`] —
/// while the results stay bit-identical to a healthy solo run (link speed
/// never enters the numerics). The checkpoint that made the rollback
/// possible is priced on the virtual clock and charged to the tenant.
#[test]
fn link_fault_splits_island_reroutes_and_stays_bit_identical() {
    use neon_core::CollectiveAlgorithm;

    // Islands {0,1} and {2,3}; a 3-device job pins {0,1,2} under
    // FIFO-exclusive-style first-fit (it is the only job), straddling the
    // 0↔1 NVLink and the cross-island wire.
    let fleet = Backend::dgx_islands(&[2, 2]);
    let requests = vec![JobRequest {
        tenant: 0,
        spec: poisson(10, 12, 77),
        ndev: 3,
        arrival_us: 0.0,
    }];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            link_fault: Some(LinkFault {
                at_us: 40.0,
                src: 0,
                dst: 1,
                factor: None,
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.link_faults, 1);
    assert_eq!(report.device_losses, 0);

    let o = &report.outcomes[0];
    assert!(o.completed);
    assert!(o.evictions.is_empty(), "no device died, no eviction");
    // The healthy {0,1},{2} subset routed hierarchically; the severed one
    // is three singleton islands and must have flipped to a flat schedule.
    assert_eq!(o.route_changes.len(), 1, "{:?}", o.route_changes);
    assert_eq!(o.route_changes[0].from, CollectiveAlgorithm::Hierarchical);
    assert_ne!(o.route_changes[0].to, CollectiveAlgorithm::Hierarchical);
    assert_eq!(o.collective_route, Some(o.route_changes[0].to));

    // Bit-identity against a *healthy* solo run with no migrations: the
    // repair kept every device, so the numerics never saw the fault.
    let solo = solo_run_bits(&fleet, o.spec, 3, options(), &[]).expect("solo replay");
    assert_eq!(o.result_bits, Some(solo));

    // The aborted quantum is charged as waste, and the checkpoints that
    // guarded it are priced in bytes and virtual microseconds.
    let t = &report.tenants[0];
    assert!(t.wasted_device_us > 0.0, "in-flight quantum aborted");
    assert!(t.checkpoint_bytes > 0, "captures staged state to the host");
    assert!(t.checkpoint_us > 0.0, "captures cost virtual time");
}

/// A bandwidth degrade re-plans without flipping the route when the link
/// class is unchanged: the job recompiles on the slower wire, records no
/// route change, and still matches the healthy solo bits.
#[test]
fn link_degrade_replans_without_route_change() {
    let fleet = Backend::dgx_a100(4);
    let requests = vec![JobRequest {
        tenant: 0,
        spec: poisson(10, 12, 81),
        ndev: 4,
        arrival_us: 0.0,
    }];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            link_fault: Some(LinkFault {
                at_us: 40.0,
                src: 1,
                dst: 2,
                factor: Some(0.25),
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.link_faults, 1);
    let o = &report.outcomes[0];
    assert!(o.completed);
    assert!(
        o.route_changes.is_empty(),
        "degrading one NVLink of a flat single-island box keeps the route: {:?}",
        o.route_changes
    );
    let solo = solo_run_bits(&fleet, o.spec, 4, options(), &[]).expect("solo replay");
    assert_eq!(o.result_bits, Some(solo));
}

/// A device loss on an island fleet leaves an asymmetric survivor subset
/// (3+4 across the boxes); the re-plan must refresh the route to the
/// hierarchical schedule and the migrated job must still replay solo.
#[test]
fn island_survivor_subset_routes_hierarchical_after_loss() {
    use neon_core::CollectiveAlgorithm;

    let fleet = Backend::dgx_islands(&[4, 4]);
    let requests = vec![JobRequest {
        tenant: 0,
        spec: poisson(16, 12, 91),
        ndev: 8,
        arrival_us: 0.0,
    }];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            device_loss: Some(DeviceLoss {
                at_us: 40.0,
                device: 2,
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.device_losses, 1);

    let o = &report.outcomes[0];
    assert!(o.completed);
    assert!(!o.evictions.is_empty(), "the loss must force a re-plan");
    assert_eq!(
        o.collective_route,
        Some(CollectiveAlgorithm::Hierarchical),
        "the 3+4 survivor subset straddles both islands"
    );
    let solo = solo_run_bits(
        &fleet,
        o.spec,
        o.first_ndev.expect("ran"),
        options(),
        &o.evictions,
    )
    .expect("solo replay");
    assert_eq!(o.result_bits, Some(solo));
}
