//! `serve-mix`: weighted fair queueing over a 4-device fleet, three tenants
//! (weights 1/2/4) submitting Poisson-CG and LBM jobs on 8³–14³ grids,
//! each pinned to at most 2 devices.
//!
//! An open loop on the virtual clock: arrivals are Poisson processes at a
//! fixed ladder of offered loads (multiples of the capacity measured from
//! solo runs at set-up), and a job's latency counts from its scheduled
//! arrival. The generator is a precomputed schedule, so it cannot run
//! late in virtual time; its lag is 0. The 2× rung also loses device 1
//! part-way through, exercising checkpoint, restore and eviction.
//!
//! Check: every completed job bit-identical to `solo_run_bits` (with its
//! eviction history) — directly on a stream's first serving, through the
//! first serving's bits on replays; a shed or unfinished job counts as
//! failed.

use std::time::Instant;

use neon_apps::JobSpec;
use neon_core::{FunctionalMode, OccLevel, SkeletonOptions};
use neon_serve::{
    solo_run_bits, DeviceLoss, JobRequest, SchedPolicy, ServeConfig, ServeReport, Server,
    TenantSpec,
};
use neon_sys::{Backend, DeviceId};

use crate::report::Outcome;
use crate::solver::{self, input_seed, ms, ColdSetups, Program, Run, Setup, Workload};
use crate::stats;
use crate::trace::{Layer, Tracer};

const FLEET: usize = 4;
const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const WEIGHTS: [f64; 3] = [1.0, 2.0, 4.0];
/// Jobs per tenant at 1× load are `BASE_JOBS · 3 · weight / Σweights`.
const BASE_JOBS: f64 = 6.0;
/// Distinct arrival streams per run; later rounds replay them for more
/// wall-clock samples, and the virtual-clock metrics pool exactly these.
const STREAMS: u64 = 8;
/// Tail-latency limit of `max_load_in_slo`, virtual µs.
const SLO_VUS: f64 = 20_000.0;
const LOSS_RUNG: f64 = 2.0;

fn options() -> SkeletonOptions {
    SkeletonOptions::with_occ(OccLevel::Standard)
}

fn tenants() -> Vec<TenantSpec> {
    ["bronze", "silver", "gold"]
        .iter()
        .zip(WEIGHTS)
        .map(|(n, w)| TenantSpec::new(*n, w))
        .collect()
}

/// The job mix every tenant cycles through: (spec, devices).
fn mix(rhs_seed: u64) -> [(JobSpec, usize); 3] {
    [
        (
            JobSpec::Poisson {
                dim: 12,
                iters: 24,
                rhs_seed,
            },
            1,
        ),
        (
            JobSpec::Poisson {
                dim: 14,
                iters: 16,
                rhs_seed,
            },
            2,
        ),
        (JobSpec::Lbm { dim: 8, iters: 16 }, 1),
    ]
}

fn cells(spec: &JobSpec) -> f64 {
    let d = match spec {
        JobSpec::Poisson { dim, .. } | JobSpec::Lbm { dim, .. } => f64::from(*dim),
    };
    d * d * d
}

/// Set-up: the fleet, and its capacity as the mean device-time demand of
/// the job mix run solo (µs).
pub fn setup(tr: &Tracer) -> (Backend, f64, Setup) {
    tr.span(Layer::Bench, "setup", || {
        neon_core::clear_plan_cache();
        let t0 = Instant::now();
        let fleet = tr.span(Layer::Sys, "Backend::dgx_a100", || Backend::dgx_a100(FLEET));
        let demand: f64 = mix(0)
            .iter()
            .map(|&(spec, ndev)| {
                let subset: Vec<DeviceId> = (0..ndev).map(DeviceId).collect();
                let backend = fleet.with_devices(&subset).expect("subset of the fleet");
                let mut job = tr.span(Layer::Apps, "JobSpec::build", || {
                    spec.build(&backend, options()).expect("solo job")
                });
                let total = job.total();
                let r = tr.span(Layer::Apps, "SolverJob::advance", || job.advance(total));
                r.makespan.as_us() * ndev as f64
            })
            .sum::<f64>()
            / 3.0;
        let s = Setup {
            total_s: t0.elapsed().as_secs_f64(),
            ..Setup::default()
        };
        (fleet, demand, s)
    })
}

/// Exponential inter-arrival times from a splitmix stream.
struct Arrivals(u64);

impl Arrivals {
    fn next(&mut self, mean: f64) -> f64 {
        self.0 += 1;
        let u = (input_seed(self.0, 0x5EED) >> 11) as f64 / (1u64 << 53) as f64;
        -mean * (1.0 - u.clamp(1e-12, 1.0 - 1e-12)).ln()
    }
}

/// The arrival stream of one rung: each tenant offers load in proportion
/// to its weight, summing to `load` × fleet capacity.
fn requests(seed: u64, stream: u64, load: f64, demand_us: f64) -> Vec<JobRequest> {
    let wsum: f64 = WEIGHTS.iter().sum();
    let mut reqs = Vec::new();
    for (t, w) in WEIGHTS.iter().enumerate() {
        let rate = load * FLEET as f64 * (w / wsum) / demand_us;
        let n = ((BASE_JOBS * load * 3.0 * w / wsum).round() as usize).max(2);
        let key = input_seed(seed, (stream << 16) | ((load * 4.0) as u64) << 4 | t as u64);
        let mut arrivals = Arrivals(key);
        let mut at = 0.0;
        for j in 0..n {
            at += arrivals.next(1.0 / rate);
            let (spec, ndev) = mix(input_seed(key, j as u64))[(t + j) % 3];
            reqs.push(JobRequest {
                tenant: t,
                spec,
                ndev,
                arrival_us: at,
            });
        }
    }
    reqs
}

/// One served rung, with its host wall time.
struct Served {
    round: u64,
    load: f64,
    traced: bool,
    report: ServeReport,
    wall_ms: f64,
}

fn serve(tr: &Tracer, fleet: &Backend, reqs: Vec<JobRequest>, round: u64, load: f64) -> Served {
    let last = reqs.iter().map(|r| r.arrival_us).fold(0.0, f64::max);
    let cfg = ServeConfig {
        // Deep enough that no rung sheds: a shed job is a failed job.
        queue_capacity: 128,
        quantum_iters: 4,
        policy: SchedPolicy::WeightedFair,
        device_loss: (load == LOSS_RUNG).then_some(DeviceLoss {
            at_us: 0.3 * last,
            device: 1,
        }),
        link_fault: None,
    };
    let t = Instant::now();
    let report = tr.span(Layer::Serve, "Server::run", || {
        Server::new(fleet, tenants(), cfg).run(reqs)
    });
    Served {
        round,
        load,
        traced: tr.enabled(),
        report,
        wall_ms: ms(t),
    }
}

/// Check every job of a served rung; returns (attempted, failed). The
/// first serving of each arrival stream is checked job by job against
/// `solo_run_bits`; a replayed stream must reproduce those checked
/// results exactly (`first`, the outcomes' completion and bits), which
/// serving is deterministic enough to guarantee and costs no replays.
fn check(tr: &Tracer, fleet: &Backend, s: &Served, first: Option<&Served>) -> (u64, u64) {
    let mut failed = 0;
    for (i, o) in s.report.outcomes.iter().enumerate() {
        let ok = o.completed
            && match first {
                Some(f) => f.report.outcomes[i].result_bits == o.result_bits,
                None => {
                    tr.span(Layer::Serve, "solo_run_bits", || {
                        solo_run_bits(
                            fleet,
                            o.spec,
                            o.first_ndev.expect("completed jobs ran"),
                            options(),
                            &o.evictions,
                        )
                        .ok()
                    }) == o.result_bits
                }
            };
        if !ok {
            eprintln!("job {:?} of tenant {} failed its check", o.spec, o.tenant);
            failed += 1;
        }
    }
    (s.report.outcomes.len() as u64, failed)
}

/// Serve rounds (all rungs per round) until the budget is spent, at least
/// `STREAMS` rounds. Traced rounds alternate with untraced ones when
/// `on` is given; `cold` set-ups, if any, run between rounds.
fn rounds(
    on: Option<&Tracer>,
    fleet: &Backend,
    demand: f64,
    seed: u64,
    budget_s: f64,
    mut cold: Option<&mut ColdSetups>,
    out: &mut Outcome,
) -> Vec<Served> {
    let plain = &Tracer::new(false, 0);
    let start = Instant::now();
    let mut runs: Vec<Served> = Vec::new();
    let mut round = 0u64;
    while round < STREAMS || start.elapsed().as_secs_f64() < budget_s {
        if let Some(c) = cold.as_mut() {
            c.catch_up();
        }
        let tr = match on {
            Some(on) if round % 2 == 1 => on,
            _ => plain,
        };
        for (rung, load) in LOADS.into_iter().enumerate() {
            let reqs = requests(seed, round % STREAMS, load, demand);
            let s = tr.span(Layer::Bench, "rung", || serve(tr, fleet, reqs, round, load));
            // The same stream's first serving, `STREAMS` rounds back.
            let first =
                (round >= STREAMS).then(|| &runs[(round % STREAMS) as usize * LOADS.len() + rung]);
            let (a, f) = tr.span(Layer::Bench, "check", || check(tr, fleet, &s, first));
            out.attempted += a;
            out.failed += f;
            runs.push(s);
        }
        round += 1;
    }
    runs
}

fn iterations(s: &Served) -> f64 {
    s.report.outcomes.iter().map(|o| o.iterations as f64).sum()
}

fn cell_updates(s: &Served) -> f64 {
    s.report
        .outcomes
        .iter()
        .filter(|o| o.completed)
        .map(|o| cells(&o.spec) * o.iterations as f64)
        .sum()
}

fn completed(s: &Served) -> usize {
    s.report.outcomes.iter().filter(|o| o.completed).count()
}

/// One round (all rungs together).
struct Round {
    wall_ms: f64,
    /// Iterations committed.
    iters: f64,
    /// Jobs completed.
    jobs: f64,
    /// Cell updates of the completed jobs.
    cell_updates: f64,
    traced: bool,
}

fn per_round(runs: &[Served]) -> Vec<Round> {
    let rounds = runs.last().map_or(0, |s| s.round + 1);
    (0..rounds)
        .map(|r| {
            let rs: Vec<&Served> = runs.iter().filter(|s| s.round == r).collect();
            Round {
                wall_ms: rs.iter().map(|s| s.wall_ms).sum(),
                iters: rs.iter().map(|s| iterations(s)).sum(),
                jobs: rs.iter().map(|s| completed(s) as f64).sum(),
                cell_updates: rs.iter().map(|s| cell_updates(s)).sum(),
                traced: rs.iter().any(|s| s.traced),
            }
        })
        .collect()
}

/// The first `STREAMS` rounds' rungs at `load` (the distinct streams).
fn at_load(runs: &[Served], load: f64) -> Vec<&Served> {
    runs.iter()
        .filter(|s| s.load == load)
        .take(STREAMS as usize)
        .collect()
}

fn latencies(runs: &[&Served]) -> Vec<f64> {
    runs.iter()
        .flat_map(|s| s.report.outcomes.iter().filter_map(|o| o.latency_us()))
        .collect()
}

pub fn run_untraced(run: Run) -> Outcome {
    let off = Tracer::new(false, 0);
    let mut out = Outcome::default();
    let (fleet, demand, _) = setup(&off);
    let mut cold = ColdSetups::new("serve-mix", run.seed, run.seconds);
    let runs = rounds(
        None,
        &fleet,
        demand,
        run.seed,
        run.seconds,
        Some(&mut cold),
        &mut out,
    );
    let records = cold.finish();

    let m = &mut out.metrics;
    let totals: Vec<f64> = records.iter().map(|s| s.total_s).collect();
    m.set("setup_s", stats::median(&totals));
    let distinct: Vec<&Served> = runs.iter().take(STREAMS as usize * LOADS.len()).collect();
    let busy: f64 = distinct
        .iter()
        .flat_map(|s| s.report.tenants.iter())
        .map(|t| t.device_busy_us)
        .sum();
    let iters: f64 = distinct.iter().map(|s| iterations(s)).sum();
    m.set("model_us_per_iter", busy / iters);
    let two = at_load(&runs, 2.0);
    let done: usize = two.iter().map(|s| completed(s)).sum();
    let span_s: f64 = two.iter().map(|s| s.report.makespan.as_secs()).sum();
    m.set("jobs_per_vs", done as f64 / span_s);
    m.set(
        "job_latency_p50_vus",
        stats::median(&latencies(&at_load(&runs, 1.0))),
    );
    out.notes.push(format!(
        "samples rounds={}; generator_lag_vus=0",
        runs.len() / LOADS.len()
    ));
    out
}

/// The wall-clock throughput and latency of the untraced rounds, per
/// round and median over rounds. Per-layer, not end-to-end: on a shared
/// host they do not repeat from run to run within the bound an end-to-end
/// gate needs (see README.md).
fn wall_metrics(out: &mut Outcome, rounds: &[Round]) {
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let med =
        |f: &dyn Fn(&Round) -> f64| stats::median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.set("mlups", med(&|r| r.cell_updates / r.wall_ms / 1e3));
    m.set("iter_ms_p50", med(&|r| r.wall_ms / r.iters));
    m.set("wall_ms_per_job", med(&|r| r.wall_ms / r.jobs));
}

/// The mix's representative job (14³ Poisson CG) as a solver workload: the
/// traced run measures the layers below the server on it.
pub const JOB: Workload = Workload {
    build: representative,
    execs_per_job: 16,
};

/// `cold_setups` target of `JOB`.
pub const JOB_TARGET: &str = "serve-job";

/// Build the representative solver program of the mix — the 2-device
/// Poisson job's CG on 14³ with the server's job options.
fn representative(
    tr: &Tracer,
    backend: &Backend,
    mode: FunctionalMode,
    s: &mut Setup,
) -> Box<dyn Program> {
    let options = SkeletonOptions {
        functional_mode: mode,
        ..options()
    };
    Box::new(crate::cg::build(tr, backend, 14, options, s))
}

pub fn run_traced(run: Run) -> Outcome {
    let on = Tracer::new(true, run.seed);
    let mut out = Outcome::default();
    let cache0 = neon_core::plan_cache_stats();
    let (fleet, demand, _) = setup(&on);
    let runs = rounds(
        Some(&on),
        &fleet,
        demand,
        run.seed,
        run.seconds / 2.0,
        None,
        &mut out,
    );
    let rounds = per_round(&runs);
    let per_iter = |traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_ms / r.iters)
            .collect()
    };
    let plain_rounds = per_iter(false);
    let overhead = stats::median(&per_iter(true)) / stats::median(&plain_rounds) - 1.0;

    // Layers below the server, measured on the mix's representative job.
    let w = JOB;
    solver::setup_layers(&mut out.metrics, &solver::cold_setups(JOB_TARGET, run.seed));
    let (mut p, _) = solver::setup(&w, &on, run.seed);
    let mut next_job = 1;
    let sub = Run {
        seconds: run.seconds / 2.0,
        ..run
    };
    solver::layer_metrics(&w, p.as_mut(), &on, sub, &mut next_job, &mut out);
    // The mix's own wall and tail figures replace the representative
    // job's, which `layer_metrics` set.
    wall_metrics(&mut out, &rounds);
    let lat = latencies(&at_load(&runs, 1.0));
    solver::tails(&mut out, &plain_rounds, &lat, "untraced rounds");

    let all: Vec<&Served> = runs.iter().collect();
    let rounds = rounds.len() as f64;
    let tenants = || all.iter().flat_map(|s| s.report.tenants.iter());
    let sched: f64 = all.iter().map(|s| s.report.sched_wall_us).sum();
    let total: f64 = all.iter().map(|s| s.report.total_wall_us).sum();
    let done: usize = all.iter().map(|s| completed(s)).sum();
    let evictions: usize = all
        .iter()
        .flat_map(|s| s.report.outcomes.iter())
        .map(|o| o.evictions.len())
        .sum();
    let m = &mut out.metrics;
    m.set("trace_overhead_frac", overhead);
    m.set("serve.sched_frac", sched / total);
    m.set("serve.evictions", evictions as f64 / rounds);
    m.set(
        "serve.wasted_device_us",
        tenants().map(|t| t.wasted_device_us).sum::<f64>() / rounds,
    );
    m.set(
        "serve.waited_us",
        tenants().map(|t| t.queue_wait_us).sum::<f64>() / done as f64,
    );
    m.set(
        "serve.shed",
        all.iter().map(|s| s.report.shed as f64).sum::<f64>() / rounds,
    );
    let jain: Vec<f64> = at_load(&runs, 2.0)
        .iter()
        .map(|s| {
            let shares: Vec<f64> = s
                .report
                .tenants
                .iter()
                .map(|t| t.device_busy_us / t.weight)
                .collect();
            stats::jain(&shares)
        })
        .collect();
    m.set("serve.jain", stats::median(&jain));
    let mut in_slo = 0.0;
    for load in LOADS {
        let rungs = at_load(&runs, load);
        let lat = latencies(&rungs);
        let shed: u64 = rungs.iter().map(|s| s.report.shed).sum();
        if shed == 0 && !lat.is_empty() && stats::tail(&lat).value <= SLO_VUS {
            in_slo = load;
        }
    }
    m.set("serve.max_load_in_slo", in_slo);
    let cache1 = neon_core::plan_cache_stats();
    m.set("core.plan_cache_hits", (cache1.hits - cache0.hits) as f64);
    m.set(
        "core.plan_cache_misses",
        (cache1.misses - cache0.misses) as f64,
    );
    out.notes.push(format!(
        "serve sched_wall_ms={:.3} total_wall_ms={:.3} rounds={rounds}",
        sched / 1e3,
        total / 1e3
    ));
    solver::finish_trace(&mut out, &on, "serve-mix", run.seed);
    out
}
