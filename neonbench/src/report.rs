//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of its mode, so the names below are
//! the whole interface: `END_TO_END` for untraced runs, `per_layer()` for
//! traced runs. Unit `vus` is microseconds on the virtual clock (the
//! analytic model of the simulated GPUs); `ms`, `us` and `s` are host wall
//! clock. A metric of a layer a workload does not use reads 0 in a
//! non-time unit, never as a wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("model_us_per_iter", "vus"),
    ("jobs_per_vs", "1/vs"),
    ("job_latency_p50_vus", "vus"),
];

/// Compile passes of the standard pipeline, in order.
pub const PASSES: [&str; 9] = [
    "dependency-graph",
    "layout-select",
    "fuse",
    "temporal-fuse",
    "multi-gpu",
    "occ",
    "collective-lowering",
    "schedule",
    "device-partition",
];

pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("sys.launches_per_iter", "count"),
        ("sys.kernel_mb_per_iter", "MB"),
        ("sys.halo_rounds_per_iter", "count"),
        ("sys.redundant_mflop_per_iter", "MFLOP"),
        ("sys.link_busy_us_per_iter", "vus"),
        ("sys.link_contended_per_iter", "count"),
        ("sys.slow_link_mb_per_iter", "MB"),
        ("set.container_build_ms", "ms"),
        ("set.checkpoint_ms", "ms"),
        ("set.checkpoint_mb", "MB"),
        ("set.restore_ms", "ms"),
        ("domain.grid_build_ms", "ms"),
        ("domain.field_alloc_ms", "ms"),
        ("domain.host_fill_ms", "ms"),
        ("domain.halo_update_us", "us"),
        ("core.compile_ms", "ms"),
        ("core.plan_cache_hits", "count"),
        ("core.plan_cache_misses", "count"),
        ("core.timing_replay_us_per_iter", "us"),
        ("core.replay_ms_per_iter.serial_1dev", "ms"),
        ("core.replay_ms_per_iter.serial", "ms"),
        ("core.replay_ms_per_iter.parallel", "ms"),
        ("core.parallel_speedup", "x"),
        ("core.partition_overhead", "x"),
        ("core.achieved_gbs", "GB/s"),
        ("core.roofline_frac", "frac"),
        ("core.virtual.kernel_us_per_iter", "vus"),
        ("core.virtual.transfer_us_per_iter", "vus"),
        ("core.virtual.collective_us_per_iter", "vus"),
        ("core.virtual.host_us_per_iter", "vus"),
        ("core.temporal_model_gain", "x"),
        ("core.temporal_wall_gain", "x"),
        ("comm.collectives_per_iter", "count"),
        ("comm.allreduce_us", "us"),
        ("comm.schedule_us", "us"),
        ("comm.allreduce_model_us", "vus"),
        ("serve.sched_frac", "frac"),
        ("serve.evictions", "count"),
        ("serve.wasted_device_us", "vus"),
        ("serve.waited_us", "vus"),
        ("serve.shed", "count"),
        ("serve.jain", "index"),
        ("serve.max_load_in_slo", "x"),
        ("trace_overhead_frac", "frac"),
        ("mlups", "MLUPS"),
        ("iter_ms_p50", "ms"),
        ("wall_ms_per_job", "ms"),
        ("iter_ms_tail", "ms"),
        ("job_latency_tail_vus", "vus"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in PASSES {
        v.push((format!("core.pass.{p}_us"), "us"));
    }
    for l in crate::trace::Layer::ALL {
        v.push((format!("trace.self_frac.{}", l.name()), "frac"));
    }
    v
}

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Print one line per metric, then the result JSON as the last line.
/// Panics if the workload left a catalogue metric unset — that is a bug in
/// the benchmark, not a measurement.
pub fn emit(workload: &str, traced: bool, out: &Outcome) {
    let catalogue: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for note in &out.notes {
        println!("{note}");
    }
    let mut json = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} was not measured"));
        assert!(v.is_finite(), "{workload}: metric {name} is {v}");
        println!("metric {workload} {name} = {v} {unit}");
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
}
