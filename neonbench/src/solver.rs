//! The closed-loop solver harness shared by `cg-poisson`, `lbm-cavity` and
//! `jacobi-temporal`.
//!
//! One caller drives one program: the next execution starts when the
//! previous one returns. Work is cut into *jobs* — load one seeded input
//! (host fill plus any init program), run a fixed number of executions,
//! check the outputs — and the harness keeps cutting jobs until the
//! run's time budget is spent.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use neon_comm::{CollectiveEngine, CollectiveKind};
use neon_core::{ExecReport, FunctionalMode, NodeKind, Skeleton};
use neon_set::Checkpoint;
use neon_sys::{Backend, CounterSnapshot, QueueSim};

use crate::report::{Metrics, Outcome, PASSES};
use crate::stats;
use crate::trace::{self, Layer, Tracer};

/// Wall time of each phase of one set-up, in ms (pass times in µs).
#[derive(Debug, Clone, Default)]
pub struct Setup {
    pub total_s: f64,
    pub grid_ms: f64,
    pub field_ms: f64,
    pub container_ms: f64,
    pub compile_ms: f64,
    pub fill_ms: f64,
    pub init_ms: f64,
    /// Per compile pass, summed over the program's skeletons.
    pub passes_us: Vec<(&'static str, f64)>,
}

/// What loading one input cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Load {
    pub fill_ms: f64,
    pub init_ms: f64,
    /// Virtual-clock report of the init program (zero when there is none).
    pub init: ExecReport,
}

/// Outcome of a program's once-per-run reference check.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub ok: bool,
    /// Temporal-vs-Conservative gains `(virtual, wall)` when the program
    /// runs temporal super-steps.
    pub temporal_gain: Option<(f64, f64)>,
}

/// One solver program on one backend, driven through the public API of
/// the library crates. Every library call inside is wrapped in a span.
pub trait Program {
    /// Cells updated per logical iteration.
    fn cells(&self) -> u64;
    /// Logical iterations one execution advances.
    fn iters_per_exec(&self) -> usize;
    /// Host-fill the input derived from `input` and run the init program.
    fn load(&mut self, tr: &Tracer, input: u64) -> Load;
    /// One execution of the iteration program.
    fn exec(&mut self, tr: &Tracer) -> ExecReport;
    /// Check the outputs of the job just run.
    fn check(&mut self, tr: &Tracer) -> Result<(), String>;
    /// Once-per-run check against a reference that runs its own jobs; the
    /// default is none beyond the per-job `check`.
    fn reference(&mut self, _tr: &Tracer, _input: u64, _execs: usize) -> Reference {
        Reference {
            ok: true,
            temporal_gain: None,
        }
    }
    /// Cumulative counters of the iteration program.
    fn counters(&self) -> CounterSnapshot;
    fn set_mode(&mut self, mode: FunctionalMode);
    fn set_functional(&mut self, on: bool);
    /// Bit patterns of the program's state fields.
    fn bits(&self) -> Vec<u64>;
    fn checkpoint(&self, tr: &Tracer) -> Checkpoint;
    /// `Field::update_halos` on the field the stencil reads.
    fn update_halos(&self, tr: &Tracer);
    /// Collective nodes in one execution's graph.
    fn collectives_per_exec(&self) -> usize;
}

/// Builds a program on a backend; fills in the set-up phases it timed.
pub type Build = fn(&Tracer, &Backend, FunctionalMode, &mut Setup) -> Box<dyn Program>;

/// Simulated devices of every solver workload (the `Parallel` worker pool
/// runs one thread per device).
pub const DEVICES: usize = 2;

/// A solver workload: how to build its program and how long a job is.
#[derive(Clone, Copy)]
pub struct Workload {
    pub build: Build,
    pub execs_per_job: usize,
}

/// Sum per-pass compile time over skeletons into the set-up record.
pub fn add_passes(s: &mut Setup, skeletons: &[&Skeleton]) {
    for sk in skeletons {
        for pt in sk.pass_timings() {
            match s.passes_us.iter_mut().find(|(n, _)| *n == pt.name) {
                Some((_, us)) => *us += pt.wall_us,
                None => s.passes_us.push((pt.name, pt.wall_us)),
            }
        }
    }
}

/// Collective nodes in a skeleton's compiled graph.
pub fn collectives(sk: &Skeleton) -> usize {
    sk.graph()
        .nodes()
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Collective { .. }))
        .count()
}

/// Input seed of job `job` of a run seeded with `seed` (splitmix64).
pub fn input_seed(seed: u64, job: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(job.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` value hashed from a seed and a cell.
pub fn unit_hash(seed: u64, x: i32, y: i32, z: i32) -> f64 {
    let key = (x as u64 & 0xFFFF) | ((y as u64 & 0xFFFF) << 16) | ((z as u64 & 0xFFFF) << 32);
    (input_seed(seed, key) >> 11) as f64 / (1u64 << 53) as f64
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One set-up: clear the plan cache, build backend, grid, fields,
/// containers and plans, then load the first input. Process-cold only when
/// it is the first set-up of its process (see `cold_setups`).
pub fn setup(w: &Workload, tr: &Tracer, seed: u64) -> (Box<dyn Program>, Setup) {
    tr.span(Layer::Bench, "setup", || {
        neon_core::clear_plan_cache();
        let t0 = Instant::now();
        let mut s = Setup::default();
        let backend = tr.span(Layer::Sys, "Backend::dgx_a100", || {
            Backend::dgx_a100(DEVICES)
        });
        let mut p = (w.build)(tr, &backend, FunctionalMode::Parallel, &mut s);
        let load = p.load(tr, input_seed(seed, 0));
        s.fill_ms = load.fill_ms;
        s.init_ms = load.init_ms;
        s.total_s = t0.elapsed().as_secs_f64();
        (p, s)
    })
}

/// Everything measured over a window of jobs.
#[derive(Debug, Default)]
struct Window {
    /// Wall ms per logical iteration, one sample per execution.
    pub iter_ms: Vec<f64>,
    /// Wall ms per job (load + executions; checks excluded).
    pub job_wall_ms: Vec<f64>,
    /// Wall seconds inside each job's executions.
    pub job_exec_s: Vec<f64>,
    /// Virtual µs per job (init + executions).
    pub job_vus: Vec<f64>,
    /// Virtual-clock reports of the executions, summed.
    pub exec: ExecReport,
    pub iters: u64,
    pub counters: CounterSnapshot,
    /// Logical iterations of jobs that failed their check.
    pub failed: u64,
    pub jobs: u64,
}

impl Window {
    pub fn absorb(&mut self, o: Window) {
        self.iter_ms.extend(o.iter_ms);
        self.job_wall_ms.extend(o.job_wall_ms);
        self.job_exec_s.extend(o.job_exec_s);
        self.job_vus.extend(o.job_vus);
        self.exec.accumulate(o.exec);
        self.iters += o.iters;
        self.counters.accumulate(&o.counters);
        self.failed += o.failed;
        self.jobs += o.jobs;
    }
}

/// Run jobs until `budget_s` of wall time has passed (at least one job).
/// `next_job` numbers the jobs so every job of a run gets its own input;
/// `cold` set-ups, if any, run between jobs.
fn window(
    w: &Workload,
    p: &mut dyn Program,
    tr: &Tracer,
    seed: u64,
    next_job: &mut u64,
    budget_s: f64,
    mut cold: Option<&mut ColdSetups>,
) -> Window {
    let start = Instant::now();
    let before = p.counters();
    let ipe = p.iters_per_exec();
    let mut out = Window::default();
    loop {
        if let Some(c) = cold.as_mut() {
            c.catch_up();
        }
        let job = *next_job;
        *next_job += 1;
        tr.span(Layer::Bench, "job", || {
            let t_job = Instant::now();
            let load = p.load(tr, input_seed(seed, job));
            let mut vus = load.init.makespan.as_us();
            let mut exec_s = 0.0;
            for _ in 0..w.execs_per_job {
                let t = Instant::now();
                let r = p.exec(tr);
                let dt = t.elapsed().as_secs_f64();
                exec_s += dt;
                out.iter_ms.push(dt * 1e3 / ipe as f64);
                vus += r.makespan.as_us();
                out.exec.accumulate(r);
            }
            out.job_wall_ms.push(ms(t_job));
            out.job_exec_s.push(exec_s);
            out.job_vus.push(vus);
            let iters = (w.execs_per_job * ipe) as u64;
            out.iters += iters;
            out.jobs += 1;
            if let Err(e) = tr.span(Layer::Bench, "check", || p.check(tr)) {
                eprintln!("check failed on job {job}: {e}");
                out.failed += iters;
            }
        });
        if start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    out.counters = p.counters() - before;
    out
}

/// Process-cold set-ups per run; their median is `setup_s`.
pub const SETUPS: usize = 15;

/// First argument that makes the binary run one set-up and print its
/// record instead of a benchmark run: `--cold-setup <target> <seed>`.
pub const COLD_SETUP: &str = "--cold-setup";

/// One process-cold set-up of `target`: a child process of its own (this
/// binary with `COLD_SETUP`), so it pays first-touch page faults,
/// allocator growth and one-time initialisation. Waits for the child.
fn cold_setup(target: &str, seed: u64) -> Setup {
    let exe = std::env::current_exe().expect("path of this binary");
    let out = Command::new(exe)
        .args([COLD_SETUP, target, &seed.to_string()])
        .output()
        .expect("start a set-up child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), Setup::parse(stdout.trim())) {
        (true, Some(s)) => s,
        _ => panic!(
            "set-up child of {target} failed ({}): {}{}",
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ),
    }
}

/// `SETUPS` process-cold set-ups of `target`, one after another.
pub fn cold_setups(target: &str, seed: u64) -> Vec<Setup> {
    (0..SETUPS).map(|_| cold_setup(target, seed)).collect()
}

/// `SETUPS` process-cold set-ups spread evenly over a measuring window, so
/// their median sees the same host conditions as the figures measured
/// beside it rather than those of one instant.
pub struct ColdSetups {
    target: &'static str,
    seed: u64,
    start: Instant,
    budget_s: f64,
    records: Vec<Setup>,
}

impl ColdSetups {
    pub fn new(target: &'static str, seed: u64, budget_s: f64) -> Self {
        ColdSetups {
            target,
            seed,
            start: Instant::now(),
            budget_s,
            records: Vec::new(),
        }
    }

    /// Run the set-ups due by now: the k-th is due `k / SETUPS` of the way
    /// through the window. Call between operations, never inside one.
    pub fn catch_up(&mut self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        while self.records.len() < SETUPS
            && elapsed >= self.records.len() as f64 * self.budget_s / SETUPS as f64
        {
            self.records.push(cold_setup(self.target, self.seed));
        }
    }

    /// Run the set-ups not yet due; every record.
    pub fn finish(mut self) -> Vec<Setup> {
        while self.records.len() < SETUPS {
            self.records.push(cold_setup(self.target, self.seed));
        }
        self.records
    }
}

impl Setup {
    /// One line: the seven phase figures, then `pass=µs` pairs.
    pub fn line(&self) -> String {
        let mut v = [
            self.total_s,
            self.grid_ms,
            self.field_ms,
            self.container_ms,
            self.compile_ms,
            self.fill_ms,
            self.init_ms,
        ]
        .map(|x| x.to_string())
        .to_vec();
        v.extend(self.passes_us.iter().map(|(n, us)| format!("{n}={us}")));
        v.join(" ")
    }

    /// Inverse of `line`; pass names outside `PASSES` are dropped.
    pub fn parse(line: &str) -> Option<Setup> {
        let mut words = line.split_whitespace();
        let mut num = || words.next()?.parse::<f64>().ok();
        let mut s = Setup {
            total_s: num()?,
            grid_ms: num()?,
            field_ms: num()?,
            container_ms: num()?,
            compile_ms: num()?,
            fill_ms: num()?,
            init_ms: num()?,
            passes_us: Vec::new(),
        };
        for pair in words {
            let (name, us) = pair.split_once('=')?;
            if let Some(name) = PASSES.iter().find(|p| **p == name) {
                s.passes_us.push((name, us.parse().ok()?));
            }
        }
        Some(s)
    }
}

/// Run settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub triad_gbs: f64,
}

/// Untraced run: the end-to-end metrics.
pub fn run_untraced(w: &Workload, run: Run, name: &'static str) -> Outcome {
    let off = Tracer::new(false, 0);
    let mut out = Outcome::default();
    let (mut p, _) = setup(w, &off, run.seed);
    // Warm-up: spawns the worker pool and faults in the partitions.
    for _ in 0..2 {
        p.exec(&off);
    }
    let mut next_job = 1;
    let mut cold = ColdSetups::new(name, run.seed, run.seconds);
    let win = window(
        w,
        p.as_mut(),
        &off,
        run.seed,
        &mut next_job,
        run.seconds,
        Some(&mut cold),
    );
    let records = cold.finish();
    out.attempted += win.iters;
    out.failed += win.failed;
    let reference = p.reference(&off, input_seed(run.seed, next_job), w.execs_per_job);
    out.tally(reference.ok);
    end_to_end(&mut out, &records, &win);
    out
}

/// The end-to-end metrics of a window: process-cold set-up time and the
/// virtual clock.
fn end_to_end(out: &mut Outcome, records: &[Setup], win: &Window) {
    let m = &mut out.metrics;
    let totals: Vec<f64> = records.iter().map(|s| s.total_s).collect();
    m.set("setup_s", stats::median(&totals));
    m.set(
        "model_us_per_iter",
        win.exec.makespan.as_us() / win.iters as f64,
    );
    let job_p50 = stats::median(&win.job_vus);
    m.set("jobs_per_vs", 1e6 / job_p50);
    m.set("job_latency_p50_vus", job_p50);
    out.notes.push(format!(
        "samples iterations={} jobs={}",
        win.iter_ms.len(),
        win.jobs
    ));
}

/// The wall-clock throughput and latency of a window. Per-layer, not
/// end-to-end: on a shared host they do not repeat from run to run within
/// the bound an end-to-end gate needs (see README.md).
fn wall_metrics(out: &mut Outcome, win: &Window, cells: u64) {
    let m = &mut out.metrics;
    // Throughput of each job (cells × its iterations over its execution
    // wall time), median over jobs: robust to a job hit by host noise.
    let per_job_iters = win.iters as f64 / win.jobs as f64;
    let job_mlups: Vec<f64> = win
        .job_exec_s
        .iter()
        .map(|s| cells as f64 * per_job_iters / s / 1e6)
        .collect();
    m.set("mlups", stats::median(&job_mlups));
    m.set("iter_ms_p50", stats::median(&win.iter_ms));
    m.set("wall_ms_per_job", stats::median(&win.job_wall_ms));
    out.notes.push(format!(
        "wall samples iterations={} jobs={}; iter_ms IQR/median within the run {:.4}",
        win.iter_ms.len(),
        win.jobs,
        stats::relative_spread(&win.iter_ms)
    ));
}

/// The tail figures: kept per-layer because they do not repeat within a
/// tenth from run to run (see README.md). Printed with their percentile
/// and sample count.
pub fn tails(out: &mut Outcome, iter_ms: &[f64], job_vus: &[f64], what: &str) {
    let iter = stats::tail(iter_ms);
    let job = stats::tail(job_vus);
    out.metrics.set("iter_ms_tail", iter.value);
    out.metrics.set("job_latency_tail_vus", job.value);
    out.notes.push(format!(
        "tail iter_ms_tail=p{} over {} {what}; job_latency_tail_vus=p{} over {} jobs",
        iter.percentile, iter.samples, job.percentile, job.samples
    ));
}

/// Traced run: the per-layer metrics of a solver workload.
pub fn run_traced(w: &Workload, run: Run, name: &str) -> Outcome {
    let mut out = Outcome::default();
    let on = Tracer::new(true, run.seed);
    setup_layers(&mut out.metrics, &cold_setups(name, run.seed));
    let cache0 = neon_core::plan_cache_stats();
    let (mut p, _) = setup(w, &on, run.seed);
    for _ in 0..2 {
        p.exec(&on);
    }
    let mut next_job = 1;
    layer_metrics(w, p.as_mut(), &on, run, &mut next_job, &mut out);
    layer_zeros_for_serve(&mut out.metrics);
    let cache1 = neon_core::plan_cache_stats();
    out.metrics
        .set("core.plan_cache_hits", (cache1.hits - cache0.hits) as f64);
    out.metrics.set(
        "core.plan_cache_misses",
        (cache1.misses - cache0.misses) as f64,
    );
    finish_trace(&mut out, &on, name, run.seed);
    out
}

/// Medians of the set-up phases over the set-ups of a run.
pub fn setup_layers(m: &mut Metrics, records: &[Setup]) {
    let med = |f: &dyn Fn(&Setup) -> f64| stats::median(&records.iter().map(f).collect::<Vec<_>>());
    m.set("domain.grid_build_ms", med(&|s| s.grid_ms));
    m.set("domain.field_alloc_ms", med(&|s| s.field_ms));
    m.set("domain.host_fill_ms", med(&|s| s.fill_ms + s.init_ms));
    m.set("set.container_build_ms", med(&|s| s.container_ms));
    m.set("core.compile_ms", med(&|s| s.compile_ms));
    for pass in PASSES {
        let us = med(&|s| {
            s.passes_us
                .iter()
                .find(|(n, _)| *n == pass)
                .map_or(0.0, |(_, us)| *us)
        });
        m.set(format!("core.pass.{pass}_us"), us);
    }
}

/// Everything the traced run measures on a built program: windows with
/// and without tracing, counters, the replay ladder, timing-only replay,
/// checkpoint round trip, halo update, collectives and the reference.
pub fn layer_metrics(
    w: &Workload,
    p: &mut dyn Program,
    on: &Tracer,
    run: Run,
    next_job: &mut u64,
    out: &mut Outcome,
) {
    let off = Tracer::new(false, 0);
    // Alternate untraced and traced windows so host drift hits both alike.
    let mut plain = Window::default();
    let mut traced = Window::default();
    for _ in 0..4 {
        plain.absorb(window(
            w,
            p,
            &off,
            run.seed,
            next_job,
            run.seconds / 12.0,
            None,
        ));
        traced.absorb(window(
            w,
            p,
            on,
            run.seed,
            next_job,
            run.seconds / 12.0,
            None,
        ));
    }
    out.attempted += plain.iters + traced.iters;
    out.failed += plain.failed + traced.failed;
    tails(out, &plain.iter_ms, &plain.job_vus, "samples");
    wall_metrics(out, &plain, p.cells());
    let m = &mut out.metrics;
    let plain_ms = stats::median(&plain.iter_ms);
    let traced_ms = stats::median(&traced.iter_ms);
    m.set("trace_overhead_frac", traced_ms / plain_ms - 1.0);

    let iters = traced.iters as f64;
    let c = traced.counters;
    m.set("sys.launches_per_iter", c.kernel_launches as f64 / iters);
    m.set(
        "sys.kernel_mb_per_iter",
        c.kernel_bytes_moved as f64 / iters / 1e6,
    );
    m.set("sys.halo_rounds_per_iter", c.halo_rounds as f64 / iters);
    m.set(
        "sys.redundant_mflop_per_iter",
        c.redundant_flops as f64 / iters / 1e6,
    );
    m.set("sys.link_busy_us_per_iter", c.link_busy.as_us() / iters);
    m.set(
        "sys.link_contended_per_iter",
        c.link_contended as f64 / iters,
    );
    m.set(
        "sys.slow_link_mb_per_iter",
        c.slow_link_bytes as f64 / iters / 1e6,
    );
    let gbs = c.kernel_bytes_moved as f64 / iters / (plain_ms * 1e-3) / 1e9;
    m.set("core.achieved_gbs", gbs);
    m.set("core.roofline_frac", gbs / run.triad_gbs);
    let e = plain.exec;
    let per = |t: neon_sys::SimTime| t.as_us() / plain.iters as f64;
    m.set("core.virtual.kernel_us_per_iter", per(e.kernel_time));
    m.set("core.virtual.transfer_us_per_iter", per(e.transfer_time));
    m.set(
        "core.virtual.collective_us_per_iter",
        per(e.collective_time),
    );
    m.set("core.virtual.host_us_per_iter", per(e.host_time));
    m.set(
        "comm.collectives_per_iter",
        p.collectives_per_exec() as f64 / p.iters_per_exec() as f64,
    );

    // Timing-only replay: the virtual clock without the functional kernels.
    let timing_execs = 50;
    on.span(Layer::Bench, "timing_replay", || {
        p.set_functional(false);
        let t = Instant::now();
        for _ in 0..timing_execs {
            p.exec(on);
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / (timing_execs * p.iters_per_exec()) as f64;
        p.set_functional(true);
        out.metrics.set("core.timing_replay_us_per_iter", us);
    });

    ladder(w, p, on, run, next_job, out);
    checkpoint_round_trip(p, on, run, next_job, out);

    let halo: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            p.update_halos(on);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.metrics
        .set("domain.halo_update_us", stats::median(&halo));

    let backend = Backend::dgx_a100(DEVICES);
    comm_probe(on, &backend, out);

    let input = input_seed(run.seed, *next_job);
    *next_job += 1;
    let reference = on.span(Layer::Bench, "reference", || {
        p.reference(on, input, w.execs_per_job)
    });
    out.tally(reference.ok);
    let (model_gain, wall_gain) = reference.temporal_gain.unwrap_or((1.0, 1.0));
    out.metrics.set("core.temporal_model_gain", model_gain);
    out.metrics.set("core.temporal_wall_gain", wall_gain);
}

/// Run one job of `execs` executions from `input`; wall ms per logical
/// iteration and the resulting state bits.
fn timed_job(p: &mut dyn Program, tr: &Tracer, input: u64, execs: usize) -> (f64, Vec<u64>) {
    p.load(tr, input);
    let t = Instant::now();
    for _ in 0..execs {
        p.exec(tr);
    }
    let per_iter = ms(t) / (execs * p.iters_per_exec()) as f64;
    (per_iter, p.bits())
}

/// The replay ladder: one device serial, two devices serial, two devices
/// parallel, interleaved three times; every parallel job must be
/// bit-identical to the serial job of the same input.
fn ladder(
    w: &Workload,
    p: &mut dyn Program,
    tr: &Tracer,
    run: Run,
    next_job: &mut u64,
    out: &mut Outcome,
) {
    tr.span(Layer::Bench, "ladder", || {
        let one = Backend::dgx_a100(1);
        let mut untimed = Setup::default();
        let mut single = (w.build)(tr, &one, FunctionalMode::Serial, &mut untimed);
        let (mut s1, mut s2, mut par) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..3 {
            let input = input_seed(run.seed, *next_job);
            *next_job += 1;
            s1.push(timed_job(single.as_mut(), tr, input, w.execs_per_job).0);
            p.set_mode(FunctionalMode::Serial);
            let (t_serial, serial_bits) = timed_job(p, tr, input, w.execs_per_job);
            p.set_mode(FunctionalMode::Parallel);
            let (t_par, par_bits) = timed_job(p, tr, input, w.execs_per_job);
            s2.push(t_serial);
            par.push(t_par);
            let same = serial_bits == par_bits;
            if !same {
                eprintln!("parallel replay differs from the serial replay");
            }
            out.tally(same);
        }
        let (s1, s2, par) = (stats::median(&s1), stats::median(&s2), stats::median(&par));
        let m = &mut out.metrics;
        m.set("core.replay_ms_per_iter.serial_1dev", s1);
        m.set("core.replay_ms_per_iter.serial", s2);
        m.set("core.replay_ms_per_iter.parallel", par);
        m.set("core.parallel_speedup", s2 / par);
        m.set("core.partition_overhead", s2 / s1);
    });
}

/// Capture, advance one execution, restore: the restored state must be
/// bit-identical to the captured one.
fn checkpoint_round_trip(
    p: &mut dyn Program,
    tr: &Tracer,
    run: Run,
    next_job: &mut u64,
    out: &mut Outcome,
) {
    let (mut cap, mut res, mut mb) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..3 {
        p.load(tr, input_seed(run.seed, *next_job));
        *next_job += 1;
        p.exec(tr);
        let t = Instant::now();
        let cp = p.checkpoint(tr);
        cap.push(ms(t));
        mb = cp.bytes() as f64 / 1e6;
        let before = p.bits();
        p.exec(tr);
        let t = Instant::now();
        tr.span(Layer::Set, "Checkpoint::restore", || cp.restore());
        res.push(ms(t));
        let same = p.bits() == before;
        if !same {
            eprintln!("restored state differs from the captured state");
        }
        out.tally(same);
    }
    let m = &mut out.metrics;
    m.set("set.checkpoint_ms", stats::median(&cap));
    m.set("set.checkpoint_mb", mb);
    m.set("set.restore_ms", stats::median(&res));
}

/// Collective probes on the workload's topology with its reduction
/// payload (one f64 per device, the CG dot): the functional all-reduce,
/// the timing schedule's host cost, and its virtual-clock makespan.
fn comm_probe(tr: &Tracer, backend: &Backend, out: &mut Outcome) {
    let n = backend.num_devices();
    const CALLS: usize = 2000;
    let mut bufs: Vec<Vec<f64>> = (0..n).map(|d| vec![d as f64 + 0.5]).collect();
    let mut reduce = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        tr.span(Layer::Comm, "all_reduce", || {
            for _ in 0..CALLS {
                neon_comm::all_reduce(black_box(&mut bufs), |a, b| a + b);
            }
        });
        reduce.push(t.elapsed().as_secs_f64() * 1e6 / CALLS as f64);
    }
    let engine = CollectiveEngine::new(backend.topology().clone());
    let earliest = vec![neon_sys::SimTime::ZERO; n];
    let mut sched = Vec::new();
    let mut timing = None;
    for _ in 0..5 {
        let t = Instant::now();
        tr.span(Layer::Comm, "CollectiveEngine::schedule", || {
            for _ in 0..CALLS / 10 {
                let mut q = QueueSim::new(n, 1);
                timing = Some(engine.schedule(
                    &mut q,
                    CollectiveKind::AllReduce,
                    8,
                    &earliest,
                    0,
                    "dot",
                ));
            }
        });
        sched.push(t.elapsed().as_secs_f64() * 1e6 / (CALLS / 10) as f64);
    }
    let timing = timing.expect("scheduled at least once");
    let m = &mut out.metrics;
    m.set("comm.allreduce_us", stats::median(&reduce));
    m.set("comm.schedule_us", stats::median(&sched));
    m.set("comm.allreduce_model_us", timing.makespan().as_us());
    out.notes.push(format!(
        "comm algorithm={:?} payload_bytes=8 devices={n}",
        timing.algorithm
    ));
}

/// Serve-layer metrics of a workload that does not use the serving layer.
fn layer_zeros_for_serve(m: &mut Metrics) {
    for name in [
        "serve.sched_frac",
        "serve.evictions",
        "serve.wasted_device_us",
        "serve.waited_us",
        "serve.shed",
        "serve.jain",
        "serve.max_load_in_slo",
    ] {
        m.set(name, 0.0);
    }
}

/// Self-time shares per layer over the traced spans, and the span dump.
pub fn finish_trace(out: &mut Outcome, on: &Tracer, workload: &str, seed: u64) {
    let spans = on.spans();
    let selfs = trace::self_times_us(&spans);
    let roots: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_us - s.start_us)
        .sum();
    for (l, us) in Layer::ALL.iter().zip(selfs) {
        out.metrics
            .set(format!("trace.self_frac.{}", l.name()), us / roots);
    }
    let dir = std::path::Path::new(TRACE_DIR);
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, on.to_json())) {
        Ok(()) => out.notes.push(format!(
            "trace {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Where traced runs write their spans, relative to the working directory.
pub const TRACE_DIR: &str = ".bench_out";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_record_round_trips_through_its_line() {
        let s = Setup {
            total_s: 0.024942276,
            grid_ms: 0.1,
            field_ms: 1.0 / 3.0,
            container_ms: 2.5e-3,
            compile_ms: 1.25,
            fill_ms: 14.8,
            init_ms: 0.0,
            passes_us: vec![("fuse", 12.5), ("occ", 3.0)],
        };
        let back = Setup::parse(&s.line()).expect("parses");
        assert_eq!(back.line(), s.line());
        assert_eq!(back.field_ms, s.field_ms);
        assert_eq!(back.passes_us, s.passes_us);
    }

    #[test]
    fn setup_line_drops_unknown_passes_and_rejects_short_lines() {
        let s = Setup::parse("1 2 3 4 5 6 7 fuse=8 made-up=9").expect("parses");
        assert_eq!(s.passes_us, vec![("fuse", 8.0)]);
        assert!(Setup::parse("1 2 3").is_none());
        assert!(Setup::parse("").is_none());
    }
}
