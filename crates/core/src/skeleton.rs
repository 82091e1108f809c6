//! The Skeleton — Neon's orchestrator (paper §V).
//!
//! Users hand the Skeleton a *sequential* list of containers and a
//! backend; it compiles them through the pass pipeline
//! ([`crate::pass::PassManager`]):
//!
//! 1. `dependency-graph` — extract the data dependency graph from the
//!    containers' recorded accesses,
//! 2. `fuse` — merge legal map chains (and a trailing reduction) into
//!    single fused sweeps,
//! 3. `multi-gpu` — insert halo updates, prune redundant edges,
//! 4. `occ` — split kernels at the configured OCC level,
//! 5. `collective-lowering` — turn finalizing reduces into collective
//!    nodes (merging independent same-level collectives when fusion is
//!    on),
//! 6. `schedule` — map nodes to streams, organize events, fix the enqueue
//!    order,
//!
//! validating pipeline invariants between passes, and then executes the
//! resulting [`CompiledPlan`] — repeatedly, for iterative solvers —
//! entirely without user intervention.
//!
//! Plans are cached process-wide (see [`crate::plan`]): a solver that
//! rebuilds a skeleton for the same sequence shape, backend and options
//! reuses the compiled graph and schedule, paying only a cheap rebinding
//! of its containers.

use std::collections::HashSet;
use std::sync::Arc;

use neon_set::{Checkpoint, ComputePattern, Container, StateHandle};
use neon_sys::{Backend, FaultPlan, FaultStats, RetryPolicy, SimTime, Trace};

use crate::collective::CollectiveMode;
use crate::exec::{CommMode, ExecError, ExecReport, Executor, FunctionalMode, HaloPolicy};
use crate::fuse::FusionLevel;
use crate::graph::Graph;
use crate::health::{HealthReport, StragglerMonitor, StragglerPolicy};
use crate::layout_select::LayoutPolicy;
use crate::occ::OccLevel;
use crate::pass::{CompileError, PassTiming};
use crate::plan::{self, CompiledPlan};
use crate::schedule::Schedule;

/// Fault-recovery policy of a skeleton (paper-style self-healing: retry
/// transient faults, checkpoint periodically, roll back when retry is
/// exhausted).
///
/// Pure runtime policy — it never changes the compiled plan, so it is
/// excluded from the plan-cache key like `trace` and `functional_mode`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceOptions {
    /// Master switch. When off, any injected fault escapes on its first
    /// failure (`max_attempts` is treated as 1) and surfaces as a
    /// structured [`ExecError`] from the `try_*` entry points.
    pub enabled: bool,
    /// Attempts allowed per faulted operation, including the first.
    /// Must be at least 1.
    pub max_attempts: u32,
    /// Base backoff before the first re-attempt, in virtual µs; doubles
    /// per retry. Must be finite and non-negative.
    pub backoff_us: f64,
    /// A checkpoint is captured every this many iterations by the
    /// [`crate::recovery::Supervisor`]. Must be at least 1.
    pub checkpoint_interval: u32,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            enabled: false,
            max_attempts: 3,
            backoff_us: 50.0,
            checkpoint_interval: 4,
        }
    }
}

impl ResilienceOptions {
    /// The retry policy faults are judged against ([`RetryPolicy`] with a
    /// single attempt when recovery is disabled).
    pub fn retry_policy(&self) -> RetryPolicy {
        if self.enabled {
            RetryPolicy {
                max_attempts: self.max_attempts,
                backoff: SimTime::from_us(self.backoff_us),
            }
        } else {
            RetryPolicy {
                max_attempts: 1,
                backoff: SimTime::ZERO,
            }
        }
    }

    /// Check the invariants documented on each field.
    pub fn validate(&self) -> Result<(), CompileError> {
        if self.max_attempts == 0 {
            return Err(CompileError::InvalidOptions {
                reason: "resilience.max_attempts must be at least 1 \
                         (the first attempt counts)"
                    .to_string(),
            });
        }
        if self.checkpoint_interval == 0 {
            return Err(CompileError::InvalidOptions {
                reason: "resilience.checkpoint_interval must be at least 1".to_string(),
            });
        }
        if !self.backoff_us.is_finite() || self.backoff_us < 0.0 {
            return Err(CompileError::InvalidOptions {
                reason: format!(
                    "resilience.backoff_us must be finite and non-negative, got {}",
                    self.backoff_us
                ),
            });
        }
        Ok(())
    }
}

/// Configuration of a skeleton.
#[derive(Debug, Clone, Copy)]
pub struct SkeletonOptions {
    /// The OCC optimization level (a single switch, as the paper argues a
    /// system should offer — no best level exists for all configurations).
    pub occ: OccLevel,
    /// Honour scheduling hints in the task ordering (ablation switch).
    pub hints: bool,
    /// Model concurrent kernels as each getting full bandwidth (ablation
    /// switch; physically kernels share a device's bandwidth, so the
    /// default serializes them per device).
    pub kernel_concurrency: bool,
    /// Halo coherency implementation (paper §IV-C2): explicit peer
    /// transfers (default — required for OCC) or driver-managed unified
    /// memory (page faults serialize with the consuming kernels).
    pub halo_policy: HaloPolicy,
    /// How the functional replay parallelizes across devices: serial
    /// reference or the event-driven persistent worker pool (default). A
    /// runtime knob — it never changes the compiled plan, so it is
    /// excluded from the plan-cache key.
    pub functional_mode: FunctionalMode,
    /// Record an execution trace (timeline spans).
    pub trace: bool,
    /// Container fusion (the `fuse` compile pass): merge contiguous
    /// same-grid map chains — and the map side of a trailing reduction —
    /// into single fused sweeps, and combine independent same-level
    /// collectives into one multi-scalar all-reduce. `Conservative`
    /// (default) only fuses when provably bit-identical to `Off`.
    pub fusion: FusionLevel,
    /// How multi-device reductions are realized: lowered to collective
    /// nodes whose algorithm (ring / tree / host-staged / hierarchical)
    /// is picked from the topology and payload (`Auto`), or forced
    /// (`Fixed`).
    pub collectives: CollectiveMode,
    /// How communication completion gates downstream compute: per-chunk
    /// events (default), where halo payloads stream in chunks and
    /// consuming kernels split into an interior span that overlaps
    /// in-flight chunks and a boundary span gated on the last arrival, or
    /// the paper's whole-node epochs. Shapes the device plan's event
    /// table, so it is part of the plan-cache key.
    pub comm: CommMode,
    /// Consult the process-wide plan cache (same sequence shape + backend
    /// + options ⇒ reuse the compiled graph and schedule).
    pub cache: bool,
    /// Capture a text IR dump after every pass (see
    /// [`Skeleton::dump_ir`]). Independently, setting the `NEON_DUMP_IR`
    /// environment variable prints dumps to stderr.
    pub dump_ir: bool,
    /// Fault-recovery policy (runtime only — excluded from the plan-cache
    /// key). Validated by [`Skeleton::try_sequence`].
    pub resilience: ResilienceOptions,
    /// How the `layout-select` pass recommends field memory layouts
    /// (folded into the plan-cache key — recommendations feed allocation,
    /// so plans under different policies must never alias).
    pub layout: LayoutPolicy,
}

impl Default for SkeletonOptions {
    fn default() -> Self {
        SkeletonOptions {
            occ: OccLevel::Standard,
            hints: true,
            kernel_concurrency: false,
            halo_policy: HaloPolicy::ExplicitTransfers,
            functional_mode: FunctionalMode::default(),
            trace: false,
            fusion: FusionLevel::default(),
            collectives: CollectiveMode::Auto,
            comm: CommMode::ChunkEvents,
            cache: true,
            dump_ir: false,
            resilience: ResilienceOptions::default(),
            layout: LayoutPolicy::default(),
        }
    }
}

impl SkeletonOptions {
    /// Options with a given OCC level, **fusion off** and **epoch
    /// signaling** — the paper's baseline executor, where the OCC level
    /// under study is what shapes the graph and overlaps communication.
    /// Fusing a trailing reduction produces a node OCC leaves whole (see
    /// the `fuse` pass), and per-chunk events hide halo latency on their
    /// own; either would flatten every OCC comparison built on this
    /// constructor. Opt into them explicitly via `Default::default()` or
    /// the `fusion`/`comm` fields.
    pub fn with_occ(occ: OccLevel) -> Self {
        SkeletonOptions {
            occ,
            fusion: FusionLevel::Off,
            comm: CommMode::Epoch,
            ..Default::default()
        }
    }
}

/// A compiled, executable application sequence.
pub struct Skeleton {
    name: String,
    options: SkeletonOptions,
    plan: Arc<CompiledPlan>,
    executor: Executor,
    from_cache: bool,
    /// Optional straggler monitor, fed one per-device kernel-span sample
    /// per execution routed through the skeleton's run entry points.
    monitor: Option<StragglerMonitor>,
}

impl Skeleton {
    /// Compile `containers` (in program order) for `backend`.
    ///
    /// Panics if a compile pass violates a pipeline invariant — which
    /// means a bug in the pipeline, not in user code. Use
    /// [`Skeleton::try_sequence`] to handle it as an error.
    pub fn sequence(
        backend: &Backend,
        name: &str,
        containers: Vec<Container>,
        options: SkeletonOptions,
    ) -> Self {
        Self::try_sequence(backend, name, containers, options)
            .unwrap_or_else(|e| panic!("compiling skeleton '{name}': {e}"))
    }

    /// [`Skeleton::sequence`], returning compile-pipeline failures.
    pub fn try_sequence(
        backend: &Backend,
        name: &str,
        containers: Vec<Container>,
        options: SkeletonOptions,
    ) -> Result<Self, CompileError> {
        options.resilience.validate()?;
        let (plan, from_cache) = plan::compile(backend, containers, options)?;
        let executor = Executor::from_plan(backend.clone(), Arc::clone(&plan), &options);
        Ok(Skeleton {
            name: name.to_string(),
            options,
            plan,
            executor,
            from_cache,
            monitor: None,
        })
    }

    /// The skeleton's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured options.
    pub fn options(&self) -> &SkeletonOptions {
        &self.options
    }

    /// The compiled plan (graph + schedule + bindings).
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// Whether this skeleton's plan came from the plan cache (rebound)
    /// rather than a fresh pipeline run.
    pub fn compiled_from_cache(&self) -> bool {
        self.from_cache
    }

    /// Logical iterations one [`Skeleton::run`] performs: `k` when the
    /// temporal-fuse pass built a `k`-iteration super-step, 1 otherwise.
    /// A solver wanting `n` logical iterations calls
    /// `run_iters(n / logical_iters_per_execution())`.
    pub fn logical_iters_per_execution(&self) -> usize {
        self.plan.temporal_k()
    }

    /// Per-pass compile wall-clock timings (empty for a cache hit).
    pub fn pass_timings(&self) -> &[PassTiming] {
        self.plan.pass_timings()
    }

    /// Total compile wall-clock time (zero for a cache hit).
    pub fn compile_time(&self) -> SimTime {
        // fold, not sum: an empty f64 sum is -0.0, which prints as "-0".
        let us = self
            .plan
            .pass_timings()
            .iter()
            .fold(0.0, |a, t| a + t.wall_us);
        SimTime::from_us(us)
    }

    /// The per-pass IR dumps, concatenated (requires `options.dump_ir`;
    /// empty otherwise). Deterministic across runs — data objects are
    /// labelled by role, not raw uid.
    pub fn dump_ir(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pass, dump) in self.plan.dumps() {
            let _ = writeln!(out, "== after {pass} ==");
            out.push_str(dump);
        }
        out
    }

    /// Compile-time trace spans ([`neon_sys::SpanKind::Compile`]), kept
    /// separate from the execution trace so execution timelines stay
    /// undistorted.
    pub fn compile_trace(&self) -> &Trace {
        self.plan.compile_trace()
    }

    /// The raw data dependency graph (before the multi-GPU transform).
    pub fn dependency_graph(&self) -> &Graph {
        self.plan.dependency_graph()
    }

    /// The final (multi-GPU, OCC-optimized) execution graph.
    pub fn graph(&self) -> &Graph {
        self.plan.graph()
    }

    /// The execution plan.
    pub fn schedule(&self) -> &Schedule {
        self.plan.schedule()
    }

    /// Whether kernels run on real data.
    pub fn is_functional(&self) -> bool {
        self.executor.is_functional()
    }

    /// Force timing-only execution (for huge benchmark domains).
    pub fn set_functional(&mut self, on: bool) {
        self.executor.set_functional(on);
    }

    /// Change how the functional replay parallelizes (see
    /// [`FunctionalMode`]). Takes effect on the next run.
    pub fn set_functional_mode(&mut self, mode: FunctionalMode) {
        self.executor.set_functional_mode(mode);
    }

    /// Per-iteration makespans of the most recent [`Skeleton::run_iters`].
    pub fn per_iteration_makespans(&self) -> &[SimTime] {
        self.executor.per_iteration_makespans()
    }

    /// Execute the sequence once.
    pub fn run(&mut self) -> ExecReport {
        self.try_run()
            .unwrap_or_else(|e| panic!("execution failed: {e}"))
    }

    /// Execute the sequence `n` times (an iterative solver's outer loop).
    ///
    /// With a straggler monitor enabled, each iteration contributes one
    /// per-device kernel-span sample to the EWMA.
    pub fn run_iters(&mut self, n: usize) -> ExecReport {
        if self.monitor.is_none() {
            return self.executor.execute_iters(n);
        }
        let mut total = ExecReport::default();
        for _ in 0..n {
            total.accumulate(self.run());
        }
        total
    }

    /// Average virtual time of one execution over `n` runs.
    pub fn time_per_iteration(&mut self, n: usize) -> SimTime {
        self.run_iters(n).time_per_execution()
    }

    /// Take the recorded trace (requires `options.trace`).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.executor.take_trace()
    }

    /// The underlying executor (virtual clock, fault injector, counters).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Snapshot the cumulative utilization counters (see
    /// [`Executor::counters_snapshot`]); subtract two snapshots to slice out
    /// one window's traffic. A run's own traffic is already in
    /// [`ExecReport::counters`].
    pub fn counters_snapshot(&self) -> neon_sys::CounterSnapshot {
        self.executor.counters_snapshot()
    }

    /// Install a fault plan; retry behavior follows
    /// `options.resilience` (recovery disabled ⇒ single attempt, every
    /// fault escapes as a structured error).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let policy = self.options.resilience.retry_policy();
        self.executor.install_fault_plan(plan, policy);
    }

    /// Lifetime fault counters (zero without an installed plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.executor.fault_stats()
    }

    /// Set the logical iteration the next run executes as (the coordinate
    /// fault plans target).
    pub fn set_logical_iteration(&mut self, iteration: u64) {
        self.executor.set_logical_iteration(iteration);
    }

    /// Execute the sequence once, reporting failures as values instead of
    /// panicking (see [`Executor::try_execute`]).
    pub fn try_run(&mut self) -> Result<ExecReport, ExecError> {
        let r = self.executor.try_execute();
        if r.is_ok() {
            self.observe_health();
        }
        r
    }

    /// Enable the deterministic straggler monitor: every execution routed
    /// through this skeleton's run entry points feeds one per-device
    /// kernel-span sample (off the virtual clock —
    /// [`Executor::per_device_kernel_time`]) into an EWMA judged by
    /// `policy`. Replaces any previous monitor.
    pub fn enable_straggler_monitor(&mut self, policy: StragglerPolicy) {
        self.monitor = Some(StragglerMonitor::new(
            self.executor.queue().num_devices(),
            policy,
        ));
    }

    /// The current fleet-health snapshot, if a monitor is enabled.
    pub fn health_report(&self) -> Option<HealthReport> {
        self.monitor.as_ref().map(|m| m.report())
    }

    /// Fold the most recent execution's per-device kernel spans into the
    /// monitor (no-op when disabled). Called by the run entry points;
    /// exposed for callers that drive the executor directly.
    pub fn observe_health(&mut self) {
        if let Some(m) = &mut self.monitor {
            m.observe(self.executor.per_device_kernel_time());
        }
    }

    /// Type-erased state handles of every data object the sequence
    /// writes (fields written or read-written by kernels, reduction
    /// scalars), deduplicated — exactly the set a checkpoint must capture
    /// for a rollback to restore the iteration boundary.
    pub fn state_handles(&self) -> Vec<Arc<dyn StateHandle>> {
        let mut seen: HashSet<neon_set::DataUid> = HashSet::new();
        let mut out: Vec<Arc<dyn StateHandle>> = Vec::new();
        for c in self.plan.containers() {
            for a in c.accesses() {
                if !(a.mode.writes() || a.pattern == ComputePattern::Reduce) {
                    continue;
                }
                if let Some(h) = &a.state {
                    if seen.insert(h.state_uid()) {
                        out.push(Arc::clone(h));
                    }
                }
            }
        }
        out
    }

    /// Snapshot the sequence's write set. `iteration` is the first
    /// iteration to (re-)execute after a restore.
    pub fn capture_checkpoint(&self, iteration: u64) -> Checkpoint {
        Checkpoint::capture(iteration, &self.state_handles())
    }
}
