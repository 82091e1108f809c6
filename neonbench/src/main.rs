//! Two-clock benchmark of neon-rs.
//!
//! ```text
//! neonbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `cg-poisson`, `lbm-cavity`, `jacobi-temporal`, `serve-mix`.
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` a separate traced run prints the per-layer metrics and
//! writes its spans under `.bench_out/`. The last line of standard output
//! is always the result object. See README.md in this directory for what
//! each metric means and which workload it is meant to move.
//!
//! `neonbench --cold-setup <target> <seed>` runs one set-up in a fresh
//! process and prints its record; a run starts itself this way for its
//! process-cold set-ups (`setup_s` and the set-up phase metrics).

mod cg;
mod host;
mod jacobi;
mod lbm;
mod report;
mod serve;
mod solver;
mod stats;
mod trace;

use std::process::ExitCode;

use solver::{Run, Workload};

const WORKLOADS: [&str; 4] = ["cg-poisson", "lbm-cavity", "jacobi-temporal", "serve-mix"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {workload}; one of {}",
                WORKLOADS.join(", ")
            )
        })?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn solver_workload(name: &str) -> Workload {
    match name {
        "cg-poisson" => Workload {
            build: cg::build_default,
            execs_per_job: 40,
        },
        "lbm-cavity" => Workload {
            build: lbm::build,
            execs_per_job: 40,
        },
        "jacobi-temporal" => Workload {
            build: jacobi::build,
            // 12 depth-4 super-steps: 48 logical iterations per job.
            execs_per_job: 12,
        },
        other => unreachable!("{other} is not a solver workload"),
    }
}

/// One set-up of `target` in this (fresh) process; prints its record.
fn cold_setup(args: &[String]) -> ExitCode {
    let (target, seed) = match args {
        [t, s] => match s.parse::<u64>() {
            Ok(seed) => (t.as_str(), seed),
            Err(e) => {
                eprintln!("neonbench: {}: seed: {e}", solver::COLD_SETUP);
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("neonbench: {} <target> <seed>", solver::COLD_SETUP);
            return ExitCode::from(2);
        }
    };
    let off = trace::Tracer::new(false, 0);
    let record = match target {
        "serve-mix" => serve::setup(&off).2,
        serve::JOB_TARGET => solver::setup(&serve::JOB, &off, seed).1,
        name if WORKLOADS.contains(&name) => solver::setup(&solver_workload(name), &off, seed).1,
        other => {
            eprintln!("neonbench: {}: unknown target {other}", solver::COLD_SETUP);
            return ExitCode::from(2);
        }
    };
    println!("{}", record.line());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(solver::COLD_SETUP) {
        return cold_setup(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("neonbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    host.print();
    println!(
        "run workload={} seed={} seconds={} trace={} devices={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        solver::DEVICES
    );
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        triad_gbs: host.triad_gbs,
    };
    let out = match (args.workload, args.trace) {
        ("serve-mix", false) => serve::run_untraced(run),
        ("serve-mix", true) => serve::run_traced(run),
        (name, false) => solver::run_untraced(&solver_workload(name), run, name),
        (name, true) => solver::run_traced(&solver_workload(name), run, name),
    };
    report::emit(args.workload, args.trace, &out);
    ExitCode::SUCCESS
}
