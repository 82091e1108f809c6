//! Serving-layer benchmark: a 4-device fleet multiplexed across three
//! weighted tenants submitting a mixed stream of Poisson-CG and LBM jobs.
//!
//! Offered load is swept from 0.5× to 4× of fleet capacity (capacity is
//! measured from solo runs of the job mix). At every load the same
//! arrival stream is served twice:
//!
//! * `wfq`  — weighted fair queueing with iteration-boundary preemption
//!   and space sharing over device subsets (the serving layer's policy);
//! * `fifo` — the naive baseline: one job at a time, whole fleet, run to
//!   completion in arrival order.
//!
//! Recorded per (load, policy): completed jobs per virtual second, p50 /
//! p99 job latency, Jain's fairness index over weight-normalized tenant
//! service, sheds, plan-cache hits, and the host wall-clock fraction
//! spent in scheduling decisions. A separate 2×-load scenario kills a
//! device mid-run and must still complete every admitted job.
//!
//! Three properties gate the run (exit non-zero on violation):
//!
//! 1. every completed job is **bit-identical** to a solo replay of the
//!    same spec (including device-loss survivors, via their recorded
//!    eviction events);
//! 2. at 2× load, wfq throughput ≥ 1.3× fifo throughput;
//! 3. at 2× load, Jain's index over weighted tenants ≥ 0.9.
//!
//! `--smoke` shrinks the jobs and skips the results file (CI hook).
//! Output: tables on stdout, JSON at `results/BENCH_serve.json`.

use std::fmt::Write as _;

use neon_apps::JobSpec;
use neon_bench::render_table;
use neon_core::{OccLevel, SkeletonOptions};
use neon_serve::{
    solo_run_bits, DeviceLoss, JobRequest, SchedPolicy, ServeConfig, ServeReport, Server,
    TenantSpec,
};
use neon_sys::{Backend, DeviceId};

const NDEV: usize = 4;
const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

fn options() -> SkeletonOptions {
    SkeletonOptions::with_occ(OccLevel::Standard)
}

/// Deterministic splitmix-style generator: the arrival streams must be
/// identical run-to-run and policy-to-policy.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x243F_6A88_85A3_08D3)
    }

    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 27;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival with the given mean (Poisson process).
    fn exp(&mut self, mean: f64) -> f64 {
        let u = self.next_f64().clamp(1e-12, 1.0 - 1e-12);
        -mean * (1.0 - u).ln()
    }
}

/// The job mix every tenant cycles through: small 1-device CG, larger
/// 2-device CG, 1-device LBM.
fn job_mix(smoke: bool) -> Vec<(JobSpec, usize)> {
    let (d1, i1, d2, i2, d3, i3) = if smoke {
        (8, 8, 10, 6, 6, 8)
    } else {
        (12, 24, 14, 16, 8, 16)
    };
    vec![
        (
            JobSpec::Poisson {
                dim: d1,
                iters: i1,
                rhs_seed: 0,
            },
            1,
        ),
        (
            JobSpec::Poisson {
                dim: d2,
                iters: i2,
                rhs_seed: 0,
            },
            2,
        ),
        (JobSpec::Lbm { dim: d3, iters: i3 }, 1),
    ]
}

fn with_seed(spec: JobSpec, seed: u64) -> JobSpec {
    match spec {
        JobSpec::Poisson { dim, iters, .. } => JobSpec::Poisson {
            dim,
            iters,
            rhs_seed: seed,
        },
        lbm => lbm,
    }
}

/// Device-time demand (makespan × subset size, µs) of one solo run.
fn solo_demand_us(fleet: &Backend, spec: JobSpec, ndev: usize) -> f64 {
    let subset: Vec<DeviceId> = (0..ndev).map(DeviceId).collect();
    let backend = fleet.with_devices(&subset).expect("subset");
    let mut job = spec.build(&backend, options()).expect("solo job");
    let report = job.advance(job.total());
    report.makespan.as_us() * ndev as f64
}

/// The same Poisson arrival stream every policy serves. Each tenant's
/// offered load is proportional to its weight (a tenant buys capacity in
/// proportion to its share), scaled so the aggregate is `load` × fleet
/// capacity — at 2× overall load every tenant offers 2× its own
/// entitlement, the regime where weighted fairness is measurable.
fn gen_requests(
    mix: &[(JobSpec, usize)],
    mean_demand_us: f64,
    load: f64,
    base_jobs: usize,
    weights: &[f64],
) -> Vec<JobRequest> {
    let wsum: f64 = weights.iter().sum();
    let mut reqs = Vec::new();
    for (t, &w) in weights.iter().enumerate() {
        // jobs/µs for this tenant: its weight-share of `load` × capacity.
        let rate = load * NDEV as f64 * (w / wsum) / mean_demand_us;
        // Job count scales the same way, so every tenant's arrival window
        // spans the same virtual interval regardless of weight.
        let n =
            ((base_jobs as f64 * load * weights.len() as f64 * w / wsum).round() as usize).max(2);
        let mut rng = Rng::new(0x5EED + 1009 * t as u64 + (load * 16.0) as u64);
        let mut at = 0.0f64;
        for j in 0..n {
            at += rng.exp(1.0 / rate);
            let (spec, ndev) = mix[(t + j) % mix.len()];
            let seed = ((t as u64) << 32) | j as u64;
            reqs.push(JobRequest {
                tenant: t,
                spec: with_seed(spec, seed),
                ndev,
                arrival_us: at,
            });
        }
    }
    reqs
}

/// Every completed job must fingerprint-match a solo replay (with the
/// same forced-migration history, if a device died under it).
fn verify_bits(fleet: &Backend, report: &ServeReport, label: &str) -> bool {
    let mut ok = true;
    for o in report.outcomes.iter().filter(|o| o.completed) {
        let solo = solo_run_bits(
            fleet,
            o.spec,
            o.first_ndev.expect("completed jobs ran"),
            options(),
            &o.evictions,
        )
        .expect("solo replay");
        if o.result_bits != Some(solo) {
            eprintln!("FAIL[{label}]: {:?} diverges from its solo run", o.spec);
            ok = false;
        }
    }
    ok
}

struct LoadRow {
    load: f64,
    policy: &'static str,
    submitted: usize,
    completed: usize,
    shed: u64,
    jobs_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    jain: f64,
    sched_frac: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn row_of(load: f64, policy: &'static str, report: &ServeReport) -> LoadRow {
    let (p50, p99) = report.latency_percentiles_us();
    LoadRow {
        load,
        policy,
        submitted: report.outcomes.len(),
        completed: report.outcomes.iter().filter(|o| o.completed).count(),
        shed: report.shed,
        jobs_per_sec: report.jobs_per_sec(),
        p50_us: p50,
        p99_us: p99,
        jain: report.jain_fairness(),
        sched_frac: if report.total_wall_us > 0.0 {
            report.sched_wall_us / report.total_wall_us
        } else {
            0.0
        },
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fleet = Backend::dgx_a100(NDEV);
    let tenants = || {
        vec![
            TenantSpec::new("bronze", 1.0),
            TenantSpec::new("silver", 2.0),
            TenantSpec::new("gold", 4.0),
        ]
    };
    let ntenants = 3;
    let mix = job_mix(smoke);
    let config = |policy: SchedPolicy, loss: Option<DeviceLoss>| ServeConfig {
        queue_capacity: 3,
        quantum_iters: 4,
        policy,
        device_loss: loss,
        link_fault: None,
    };

    // Capacity calibration: mean device-time demand of the mix, solo.
    let mean_demand_us = mix
        .iter()
        .map(|&(spec, ndev)| solo_demand_us(&fleet, spec, ndev))
        .sum::<f64>()
        / mix.len() as f64;
    println!(
        "== repro_serve: {NDEV}-device fleet, {ntenants} tenants (weights 1/2/4), \
         mean job demand {mean_demand_us:.0} device-us, host_cores={host_cores} ==\n"
    );

    let base = if smoke { 4 } else { 6 };
    let mut rows: Vec<LoadRow> = Vec::new();
    let mut bits_ok = true;
    let mut wfq_2x_jps = 0.0;
    let mut fifo_2x_jps = 0.0;
    let mut jain_2x = 0.0;
    let mut requests_2x = Vec::new();
    let mut makespan_2x = 0.0;

    let weights = [1.0, 2.0, 4.0];
    for &load in &LOADS {
        let requests = gen_requests(&mix, mean_demand_us, load, base, &weights);

        let wfq = Server::new(&fleet, tenants(), config(SchedPolicy::WeightedFair, None))
            .run(requests.clone());
        bits_ok &= verify_bits(&fleet, &wfq, "wfq");
        let fifo = Server::new(&fleet, tenants(), config(SchedPolicy::FifoExclusive, None))
            .run(requests.clone());
        bits_ok &= verify_bits(&fleet, &fifo, "fifo");

        if (load - 2.0).abs() < 1e-9 {
            wfq_2x_jps = wfq.jobs_per_sec();
            fifo_2x_jps = fifo.jobs_per_sec();
            jain_2x = wfq.jain_fairness();
            requests_2x = requests;
            makespan_2x = wfq.makespan.as_us();

            // Showcase the per-tenant accounting at the contended point.
            let mut acct = Vec::new();
            for t in &wfq.tenants {
                acct.push(vec![
                    t.name.clone(),
                    format!("{:.0}", t.weight),
                    format!("{}", t.jobs_completed),
                    format!("{}", t.jobs_shed),
                    format!("{}", t.iterations),
                    format!("{}", t.counters.kernel_launches),
                    format!("{:.1}", t.counters.kernel_bytes_moved as f64 / 1e6),
                    format!("{:.0}", t.device_busy_us),
                    format!("{:.0}", t.counters.link_busy.as_us()),
                    format!("{:.0}", t.queue_wait_us),
                ]);
            }
            println!("per-tenant accounting, wfq at 2.0x load:");
            print!(
                "{}",
                render_table(
                    &[
                        "Tenant",
                        "Weight",
                        "Done",
                        "Shed",
                        "Iters",
                        "Launches",
                        "MB moved",
                        "Busy (us)",
                        "Link (us)",
                        "Waited (us)"
                    ],
                    &acct
                )
            );
            println!();
        }

        rows.push(row_of(load, "wfq", &wfq));
        rows.push(row_of(load, "fifo", &fifo));
    }

    // Device-loss scenario: re-serve the 2× stream, device 1 dies ~30%
    // into the (previously measured) wfq makespan. Every admitted job
    // must still complete, bit-identical to an eviction-replaying solo.
    let loss = DeviceLoss {
        at_us: makespan_2x * 0.3,
        device: 1,
    };
    let lossy = Server::new(
        &fleet,
        tenants(),
        config(SchedPolicy::WeightedFair, Some(loss)),
    )
    .run(requests_2x);
    bits_ok &= verify_bits(&fleet, &lossy, "wfq+loss");
    let loss_evictions: usize = lossy.outcomes.iter().map(|o| o.evictions.len()).sum();
    let loss_all_admitted_done = lossy.outcomes.iter().all(|o| o.completed || !o.admitted);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}x", r.load),
                r.policy.to_string(),
                format!("{}", r.submitted),
                format!("{}", r.completed),
                format!("{}", r.shed),
                format!("{:.1}", r.jobs_per_sec),
                format!("{:.0}", r.p50_us),
                format!("{:.0}", r.p99_us),
                format!("{:.3}", r.jain),
                format!("{:.2}%", r.sched_frac * 100.0),
                format!("{}/{}", r.cache_hits, r.cache_misses),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "Load",
                "Policy",
                "Jobs",
                "Done",
                "Shed",
                "Jobs/s",
                "p50 (us)",
                "p99 (us)",
                "Jain",
                "Sched",
                "Cache h/m"
            ],
            &table
        )
    );
    println!(
        "\ndevice-loss at 2.0x: {} evictions, all admitted jobs completed: {}",
        loss_evictions, loss_all_admitted_done
    );

    // Gates.
    let speedup_2x = if fifo_2x_jps > 0.0 {
        wfq_2x_jps / fifo_2x_jps
    } else {
        0.0
    };
    let mut failed = false;
    if !bits_ok {
        eprintln!("FAIL: a multiplexed job diverged from its solo run");
        failed = true;
    }
    if speedup_2x < 1.3 {
        eprintln!("FAIL: wfq/fifo throughput at 2x load = {speedup_2x:.2} (< 1.3)");
        failed = true;
    }
    if jain_2x < 0.9 {
        eprintln!("FAIL: Jain's index at 2x load = {jain_2x:.3} (< 0.9)");
        failed = true;
    }
    if loss_evictions == 0 || !loss_all_admitted_done {
        eprintln!("FAIL: device-loss scenario did not evict+complete as required");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "gates: bit-identical; wfq/fifo at 2x = {speedup_2x:.2} (>= 1.3); \
         Jain at 2x = {jain_2x:.3} (>= 0.9)"
    );

    if smoke {
        return; // CI gate only, no results file
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"repro_serve\",\"devices\":{NDEV},\"host_cores\":{host_cores},\
         \"tenants\":[{{\"name\":\"bronze\",\"weight\":1}},{{\"name\":\"silver\",\"weight\":2}},\
         {{\"name\":\"gold\",\"weight\":4}}],\"mean_job_demand_us\":{mean_demand_us:.3},\
         \"queue_capacity\":3,\"quantum_iters\":4,\"loads\":["
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"load\":{},\"policy\":\"{}\",\"submitted\":{},\"completed\":{},\
             \"shed\":{},\"jobs_per_sec\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3},\
             \"jain\":{:.4},\"sched_frac\":{:.6},\"cache_hits\":{},\"cache_misses\":{}}}",
            if i == 0 { "" } else { "," },
            r.load,
            r.policy,
            r.submitted,
            r.completed,
            r.shed,
            r.jobs_per_sec,
            r.p50_us,
            r.p99_us,
            r.jain,
            r.sched_frac,
            r.cache_hits,
            r.cache_misses,
        );
    }
    let _ = write!(
        json,
        "],\"wfq_vs_fifo_at_2x\":{speedup_2x:.4},\"jain_at_2x\":{jain_2x:.4},\
         \"device_loss\":{{\"at_us\":{:.3},\"device\":1,\"evictions\":{loss_evictions},\
         \"all_admitted_completed\":{loss_all_admitted_done},\
         \"jobs_per_sec\":{:.3}}},\"bit_identical\":{bits_ok}}}",
        loss.at_us,
        lossy.jobs_per_sec(),
    );
    std::fs::create_dir_all("results").expect("results dir");
    let path = "results/BENCH_serve.json";
    std::fs::write(path, &json).expect("write results JSON");
    println!("wrote {path}");
}
