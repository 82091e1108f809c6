//! Executing a compiled plan.
//!
//! The executor holds an immutable, shareable [`CompiledPlan`] and splits
//! every execution into two replays:
//!
//! * **Virtual-timing replay** ([`Executor::execute`]'s first half) —
//!   enqueues every task on the owning stream of the
//!   [`neon_sys::QueueSim`] virtual clock: kernels cost
//!   `launch + bytes/bandwidth` (roofline), halo transfers cost
//!   `latency + bytes/link-bandwidth` per segment on dedicated per-device
//!   transfer lanes (one per direction, modelling a GPU's copy engines),
//!   host steps synchronize all devices. Every overlap the schedule
//!   enables shows up as reduced makespan — this is how the paper's OCC
//!   figures are reproduced without hardware.
//!
//! * **Functional replay** — actually runs the compute lambdas over the
//!   partition data. In the default [`FunctionalMode::Parallel`] mode a
//!   persistent per-device [`neon_sys::WorkerPool`] walks the compiled
//!   [`DevicePlan`]: each worker executes *its* device's steps in schedule
//!   order and synchronizes with the other workers through atomic event
//!   slots exactly where the event table says to wait — so internal
//!   kernels, boundary kernels and halo copies really overlap on the host,
//!   mirroring the virtual-clock model (paper §IV-D). The
//!   [`FunctionalMode::Serial`] reference walks tasks strictly in order on
//!   the calling thread; parity tests pin the two bit for bit.
//!
//! Tasks, nodes, parent lists, halo descriptors and the event table are
//! *borrowed from the plan by index* — the hot loop clones nothing per
//! task and allocates nothing in steady state; the per-node
//! completion-time table is a flat scratch buffer reused across
//! iterations.
//!
//! Event semantics are per-device: a kernel on device *d* waits for its
//! data parents on *d*; a halo transfer waits for its sources' and
//! destination's parents; a host step waits for everything.

#![allow(clippy::needless_range_loop)] // device loops index per-device tables

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use neon_comm::{CollectiveEngine, CollectiveKind, EngineConfig};
use neon_sys::{
    Backend, CounterSnapshot, DeviceId, FaultInjector, FaultPlan, FaultSite, FaultSiteKind,
    FaultStats, FaultVerdict, PermanentFault, QueueSim, RetryPolicy, SimTime, SpanKind, StreamId,
    Trace, WorkerPool,
};

use crate::devplan::{DevAction, DevicePlan};
use crate::graph::{Graph, NodeKind};
use crate::plan::CompiledPlan;
use crate::skeleton::SkeletonOptions;

/// How halo coherency is realized (paper §IV-C2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HaloPolicy {
    /// Explicit peer-to-peer copies on dedicated transfer lanes — the
    /// model the paper's grids use, and the one OCC can overlap.
    ExplicitTransfers,
    /// Driver-managed unified memory: remote pages migrate on first
    /// touch *inside* the consuming kernel, so migration time serializes
    /// with computation on the device's compute lane and no overlap is
    /// possible — the performance penalty the paper cites for rejecting
    /// this design.
    UnifiedMemory {
        /// Migration page size in bytes (2 MiB on modern GPUs).
        page_bytes: u64,
        /// Fault-handling latency per page group, in µs.
        fault_us: f64,
        /// Sustained migration bandwidth, in GB/s.
        bandwidth_gb_s: f64,
    },
}

impl HaloPolicy {
    /// The unified-memory model with typical NVLink-system parameters.
    pub fn unified_default() -> Self {
        HaloPolicy::UnifiedMemory {
            page_bytes: 2 << 20,
            fault_us: 25.0,
            bandwidth_gb_s: 50.0,
        }
    }
}

/// How communication completion is signaled to downstream compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommMode {
    /// Whole-transfer epochs: a consumer on device *d* waits for the
    /// entire halo node to finish on *d* — every arriving payload **and**
    /// the device's own outgoing sends — before any of its cells run.
    /// The paper's execution model, kept as the baseline its OCC
    /// comparisons run on (see [`crate::SkeletonOptions::with_occ`]).
    Epoch,
    /// Per-chunk events: halo payloads stream in
    /// [`crate::devplan::comm_chunks`]-sized chunks, each signaling its
    /// own event slot on arrival. The timing replay splits a consuming
    /// kernel into an *interior* span (starts as soon as its non-halo
    /// inputs are ready — it touches no halo layer) and a *boundary*
    /// span gated only on the last arriving chunk, so interior work
    /// overlaps in-flight communication and a device's own outgoing
    /// sends never gate its compute. Collective steps already stream
    /// per-chunk inside the engine; this mode extends the same
    /// granularity to halo exchanges. Bit-identical to [`CommMode::Epoch`]
    /// on the functional side: the event table only gets finer, the
    /// ordering it enforces is unchanged. The default: its makespan is
    /// never above the epoch model's.
    #[default]
    ChunkEvents,
}

/// How the functional replay runs the compute lambdas on host threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FunctionalMode {
    /// Walk tasks strictly in schedule order on the calling thread: the
    /// bit-exactness reference.
    Serial,
    /// Event-driven replay on a persistent per-device worker pool walking
    /// the compiled [`DevicePlan`] — cross-task overlap exactly where the
    /// event table allows it, no thread spawns in steady state.
    #[default]
    Parallel,
}

/// A structured execution failure.
///
/// The executor's hot path reports malformed plans and injected faults as
/// values instead of panicking: a solver embedding the executor can retry,
/// roll back or evict a device without unwinding through foreign frames.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A transient injected fault failed every allowed attempt. The
    /// iteration aborted mid-replay (earlier nodes already ran), so the
    /// caller must roll back to the last checkpoint before continuing.
    TransientFaultEscaped {
        /// Device whose operation kept failing.
        device: DeviceId,
        /// Kind of operation that failed.
        kind: FaultSiteKind,
        /// Logical iteration that aborted.
        iteration: u64,
        /// Attempts made (the policy's bound).
        attempts: u32,
    },
    /// A permanent fault (device loss, link loss or link degrade) fired at
    /// an iteration boundary. The hardware the plan was compiled for no
    /// longer exists, so every subsequent execution fails the same way
    /// until the caller rebuilds on the healed backend
    /// ([`crate::recovery::heal_backend`]).
    Permanent {
        /// What failed.
        fault: PermanentFault,
        /// Logical iteration at whose start the fault was detected.
        iteration: u64,
    },
    /// A compute node carries no iteration space.
    MissingIterationSpace {
        /// Name of the offending node.
        node: String,
    },
    /// A reduce/host/collective step's node carries no container.
    MissingContainer {
        /// Name of the offending node.
        node: String,
    },
    /// A device-plan step references a node of an incompatible kind.
    MalformedStep {
        /// Name of the offending node.
        node: String,
    },
    /// The parallel replay was poisoned before this worker could finish
    /// (the root cause is reported by the worker that failed).
    ReplayPoisoned,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::TransientFaultEscaped {
                device,
                kind,
                iteration,
                attempts,
            } => write!(
                f,
                "transient {kind} fault on device {} escaped retry \
                 (iteration {iteration}, {attempts} attempts); roll back required",
                device.0
            ),
            ExecError::Permanent { fault, iteration } => write!(
                f,
                "{fault} at iteration {iteration}; rebuild on the healed backend"
            ),
            ExecError::MissingIterationSpace { node } => {
                write!(f, "compute node '{node}' has no iteration space")
            }
            ExecError::MissingContainer { node } => {
                write!(f, "node '{node}' has no container")
            }
            ExecError::MalformedStep { node } => {
                write!(
                    f,
                    "device-plan step references node '{node}' of incompatible kind"
                )
            }
            ExecError::ReplayPoisoned => f.write_str("parallel replay poisoned"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Timing summary of one or more executions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecReport {
    /// Wall-clock (virtual) time from first enqueue to last completion.
    pub makespan: SimTime,
    /// Total kernel busy time summed over all streams and devices.
    pub kernel_time: SimTime,
    /// Total transfer busy time summed over all lanes.
    pub transfer_time: SimTime,
    /// Total host-step time.
    pub host_time: SimTime,
    /// Total collective-communication busy time over all lanes.
    pub collective_time: SimTime,
    /// The traffic of these executions: the virtual clock's counter delta
    /// over each one ([`neon_sys::QueueSim::counters_snapshot`]). Kernel
    /// launches are one per compute node per device with a non-empty
    /// partition (fusion shrinks them); swept bytes count fused reads of
    /// just-written fields as zero; redundant flops are ghost cells a
    /// temporal super-step recomputes; halo rounds are one per halo node
    /// per execution, whatever its depth.
    pub counters: CounterSnapshot,
    /// Number of executions aggregated.
    pub executions: u64,
}

impl ExecReport {
    /// Fold another report into this one (used when aggregating across
    /// iterations, rollback segments, or recovery epochs).
    pub fn accumulate(&mut self, other: ExecReport) {
        self.makespan += other.makespan;
        self.kernel_time += other.kernel_time;
        self.transfer_time += other.transfer_time;
        self.host_time += other.host_time;
        self.collective_time += other.collective_time;
        self.counters.accumulate(&other.counters);
        self.executions += other.executions;
    }

    /// Average makespan per execution.
    ///
    /// Every execution ends with a [`neon_sys::QueueSim::sync_all`] — a
    /// zero-cost *alignment barrier* on the virtual clock that raises all
    /// streams to the global maximum. Because of that barrier, successive
    /// iterations cannot overlap on the virtual clock, the summed
    /// `makespan` is exactly the sum of the individual iteration
    /// makespans, and this average is exact — but it also flattens any
    /// per-iteration variance. Use
    /// [`Executor::per_iteration_makespans`] when the distribution
    /// matters.
    pub fn time_per_execution(&self) -> SimTime {
        if self.executions == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_us(self.makespan.as_us() / self.executions as f64)
        }
    }
}

/// Iterations a waiter spins before parking on the condvar, scaled to
/// the host: with enough cores to run every device worker concurrently,
/// slots are signaled microseconds apart and a longer spin catches them
/// without two context switches per dependency edge; on an oversubscribed
/// host spinning steals cycles from the very worker being waited for, so
/// the budget collapses (to zero on a single core).
fn wait_spin() -> usize {
    match neon_sys::host_cores() {
        0 | 1 => 0,
        2 | 3 => 64,
        _ => 512,
    }
}

/// The event table of the parallel functional replay: one atomic epoch
/// counter per [`DevicePlan`] slot.
///
/// A slot stores the executor epoch in which it was last signaled; a
/// waiter for epoch `e` proceeds once the slot holds `>= e`. Nothing is
/// ever cleared — bumping the epoch invalidates all slots at once, which
/// also makes slots left behind by a panicked (poisoned) replay harmless.
struct EventSlots {
    slots: Vec<AtomicU64>,
    lock: Mutex<()>,
    cv: Condvar,
    poisoned: AtomicBool,
}

impl EventSlots {
    fn new(n: usize) -> Self {
        EventSlots {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn signal(&self, slot: usize, epoch: u64) {
        self.slots[slot].store(epoch, Ordering::Release);
        // The empty critical section pairs with the waiter's
        // check-then-wait under the same lock: no lost wakeups. The lock
        // guards no data, so a poisoned mutex (a worker panicked while
        // holding it) is harmless — take it anyway.
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    /// Wait until `slot` reaches `epoch`. Returns false if the replay was
    /// poisoned by a panicking worker — the caller must abandon its walk.
    fn wait(&self, slot: usize, epoch: u64) -> bool {
        for _ in 0..wait_spin() {
            if self.slots[slot].load(Ordering::Acquire) >= epoch {
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.slots[slot].load(Ordering::Acquire) >= epoch {
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            // The timeout is belt-and-braces only; the signal-side lock
            // bracket already rules out lost wakeups.
            let (g, _) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    fn clear_poison(&self) {
        self.poisoned.store(false, Ordering::Release);
    }
}

/// Replays a compiled plan on the virtual clock and (optionally) the real
/// data.
pub struct Executor {
    backend: Backend,
    plan: Arc<CompiledPlan>,
    queue: QueueSim,
    compute_streams: usize,
    functional: bool,
    functional_mode: FunctionalMode,
    kernel_concurrency: bool,
    halo_policy: HaloPolicy,
    engine: CollectiveEngine,
    /// Precomputed `("<name>:int", "<name>:bnd")` span labels per compute
    /// node, built when the plan was compiled under
    /// [`CommMode::ChunkEvents`] so the split replay formats nothing per
    /// launch per iteration (empty otherwise).
    split_names: Vec<(String, String)>,
    /// The plan's per-device task partition + event table.
    devplan: Arc<DevicePlan>,
    /// Persistent per-device workers, spawned on the first parallel
    /// functional replay and parked between jobs.
    pool: Option<WorkerPool>,
    /// Event slots backing the parallel replay, sized to the device plan.
    events: EventSlots,
    /// Current replay epoch (bumped once per parallel functional replay).
    func_epoch: u64,
    /// Whether every halo exchange supports per-device execution — if not,
    /// the parallel replay falls back to the serial reference (a
    /// whole-exchange `execute()` takes whole-partition leases that would
    /// falsely conflict with overlapping internal kernels).
    parallel_halo_ok: bool,
    /// Precomputed `"<name>(um)"` span labels, one per node (empty for
    /// non-halo nodes), so the unified-memory path formats nothing per
    /// descriptor per iteration.
    um_names: Vec<String>,
    /// Fault injector shared with the virtual-clock queue (kernel faults
    /// are observed inside `enqueue_from`; transfer faults at halo nodes).
    injector: Option<Arc<FaultInjector>>,
    /// Logical solver iteration of the *next* execution — the coordinate
    /// fault plans target. Advanced by each successful execution; the
    /// recovery supervisor rewinds it on rollback.
    logical_iteration: u64,
    /// Graph node at which a [`FaultSiteKind::Link`] escape fired during
    /// the timing replay: link faults are observed inside the collective
    /// engine (no per-device occurrence counters on this side), so the
    /// functional replay aborts at node granularity — the whole collective
    /// is uncommitted.
    escape_node: Option<usize>,
    /// Per-device kernel busy time of the most recent execution (the
    /// straggler monitor's sample source).
    dev_kernel_scratch: Vec<SimTime>,
    /// Per-iteration makespans of the most recent `execute_iters` call.
    iter_makespans: Vec<SimTime>,
    /// Flat `node × device` completion-time table, reused across
    /// executions.
    ends_scratch: Vec<SimTime>,
    /// Per-device staging buffer for halo/collective readiness times,
    /// reused across tasks.
    lane_scratch: Vec<SimTime>,
    /// Chunk-events side tables, flat `node × device`, reused across
    /// executions (only sized under [`CommMode::ChunkEvents`]): halo input
    /// readiness, last-chunk arrival, and arriving halo bytes.
    halo_ready_scratch: Vec<SimTime>,
    halo_arrive_scratch: Vec<SimTime>,
    halo_bytes_scratch: Vec<u64>,
}

impl Executor {
    /// Build an executor over a shared compiled plan, taking its runtime
    /// knobs (kernel concurrency, halo policy, collective mode, functional
    /// mode, tracing) from `options`. Functional execution is enabled iff
    /// every compute node's iteration space has real storage.
    pub fn from_plan(backend: Backend, plan: Arc<CompiledPlan>, options: &SkeletonOptions) -> Self {
        let compute_streams = plan.schedule().num_streams;
        // lanes: [0, compute_streams) kernels, +0/+1 transfers, +2 host,
        // +3 collectives.
        let mut queue = QueueSim::new(backend.num_devices(), compute_streams + 4);
        if options.trace {
            queue.enable_trace();
        }
        let engine = CollectiveEngine::with_config(
            backend.topology().clone(),
            EngineConfig {
                algorithm: options.collectives.fixed_algorithm(),
                ..EngineConfig::default()
            },
        );
        let functional = plan.graph().nodes().iter().all(|n| match &n.kind {
            NodeKind::Compute { container, .. } => container
                .space()
                .map(|s| s.supports_functional())
                .unwrap_or(true),
            _ => true,
        });
        let parallel_halo_ok = plan.graph().nodes().iter().all(|n| match &n.kind {
            NodeKind::Halo { exchange } => exchange.supports_per_device(),
            _ => true,
        });
        let um_names = plan
            .graph()
            .nodes()
            .iter()
            .map(|n| {
                if n.is_halo() {
                    format!("{}(um)", n.name)
                } else {
                    String::new()
                }
            })
            .collect();
        let devplan = Arc::clone(plan.device_plan());
        let split_names = if devplan.chunked() {
            plan.graph()
                .nodes()
                .iter()
                .map(|n| match n.kind {
                    NodeKind::Compute { .. } => {
                        (format!("{}:int", n.name), format!("{}:bnd", n.name))
                    }
                    _ => (String::new(), String::new()),
                })
                .collect()
        } else {
            Vec::new()
        };
        let events = EventSlots::new(devplan.num_slots());
        Executor {
            backend,
            plan,
            queue,
            compute_streams,
            functional,
            functional_mode: options.functional_mode,
            kernel_concurrency: options.kernel_concurrency,
            halo_policy: options.halo_policy,
            engine,
            split_names,
            devplan,
            pool: None,
            events,
            func_epoch: 0,
            parallel_halo_ok,
            um_names,
            injector: None,
            logical_iteration: 0,
            escape_node: None,
            dev_kernel_scratch: Vec::new(),
            iter_makespans: Vec::new(),
            ends_scratch: Vec::new(),
            lane_scratch: Vec::new(),
            halo_ready_scratch: Vec::new(),
            halo_arrive_scratch: Vec::new(),
            halo_bytes_scratch: Vec::new(),
        }
    }

    /// The plan this executor replays.
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// The virtual-clock simulator (link utilization counters live here).
    pub fn queue(&self) -> &QueueSim {
        &self.queue
    }

    /// Snapshot the simulator's cumulative utilization counters. Two
    /// snapshots bracketing a window of executions subtract to that
    /// window's own traffic; each [`ExecReport::counters`] is exactly that
    /// delta over one execution.
    pub fn counters_snapshot(&self) -> CounterSnapshot {
        self.queue.counters_snapshot()
    }

    /// Whether kernels actually run on data (vs. timing-only).
    pub fn is_functional(&self) -> bool {
        self.functional
    }

    /// Force timing-only execution (used by large benchmark sweeps).
    pub fn set_functional(&mut self, on: bool) {
        assert!(
            !on || self.plan.graph().nodes().iter().all(|n| match &n.kind {
                NodeKind::Compute { container, .. } => container
                    .space()
                    .map(|s| s.supports_functional())
                    .unwrap_or(true),
                _ => true,
            }),
            "cannot enable functional execution on virtual storage"
        );
        self.functional = on;
    }

    /// Select how the functional replay parallelizes (default:
    /// [`FunctionalMode::Parallel`]).
    pub fn set_functional_mode(&mut self, mode: FunctionalMode) {
        self.functional_mode = mode;
    }

    /// The current functional replay mode.
    pub fn functional_mode(&self) -> FunctionalMode {
        self.functional_mode
    }

    /// Per-device kernel busy time of the most recent execution, indexed
    /// by device rank. This is the deterministic sample the straggler
    /// monitor ([`crate::health::StragglerMonitor`]) folds into its EWMA:
    /// it comes straight off the virtual clock, so two runs of the same
    /// plan produce bit-identical health histories.
    pub fn per_device_kernel_time(&self) -> &[SimTime] {
        &self.dev_kernel_scratch
    }

    /// Makespans of the individual iterations of the most recent
    /// [`Executor::execute_iters`] call, in order.
    ///
    /// [`ExecReport::time_per_execution`] only exposes the mean; this is
    /// the full per-iteration distribution for variance reporting.
    pub fn per_iteration_makespans(&self) -> &[SimTime] {
        &self.iter_makespans
    }

    /// Install a fault plan, replacing any previous one. Faults are
    /// delivered deterministically by `(iteration, device, kind, nth)`;
    /// transient faults are retried up to `policy.max_attempts` with
    /// exponential backoff on the virtual clock.
    pub fn install_fault_plan(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        let injector = FaultInjector::new(plan, policy, self.backend.num_devices());
        self.queue.set_fault_injector(Some(Arc::clone(&injector)));
        self.injector = Some(injector);
    }

    /// The backend the plan runs on.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Lifetime fault counters (zero without an installed plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector
            .as_ref()
            .map(|i| i.stats())
            .unwrap_or_default()
    }

    /// Set the logical iteration the next execution runs as (the
    /// coordinate fault plans target). The recovery supervisor rewinds
    /// this on rollback so replayed iterations keep their original numbers.
    pub fn set_logical_iteration(&mut self, iteration: u64) {
        self.logical_iteration = iteration;
    }

    /// The logical iteration of the next execution.
    pub fn logical_iteration(&self) -> u64 {
        self.logical_iteration
    }

    /// Take the recorded trace (if tracing was enabled).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.queue.take_trace()
    }

    fn transfer_lane(&self, src: DeviceId, dst: DeviceId) -> usize {
        self.compute_streams + usize::from(dst.0 < src.0)
    }

    fn host_lane(&self) -> usize {
        self.compute_streams + 2
    }

    fn collective_lane(&self) -> usize {
        self.compute_streams + 3
    }

    /// Execute the plan once: the virtual-timing replay, then (when
    /// functional) the functional replay in the configured mode.
    ///
    /// Panics on a structural failure or an unrecovered fault; use
    /// [`Executor::try_execute`] to handle those as values.
    pub fn execute(&mut self) -> ExecReport {
        self.try_execute()
            .unwrap_or_else(|e| panic!("execution failed: {e}"))
    }

    /// [`Executor::execute`], reporting failures as [`ExecError`].
    ///
    /// With a fault plan installed, recovered transients show up only as
    /// extra virtual time and in [`Executor::fault_stats`]. A fault that
    /// escapes retry aborts the functional replay exactly at the faulted
    /// operation — earlier nodes of the iteration have already mutated
    /// data, so the caller must restore a checkpoint before continuing. A
    /// scheduled device loss fails every execution from its iteration on.
    pub fn try_execute(&mut self) -> Result<ExecReport, ExecError> {
        // Clone the Arc so plan data can be borrowed by index while the
        // queue (and scratch) are mutated — nothing inside is copied.
        let plan = Arc::clone(&self.plan);
        let t0 = self.queue.makespan();
        let counters0 = self.queue.counters_snapshot();
        let iteration = self.logical_iteration;
        if let Some(inj) = &self.injector {
            if let Err(fault) = inj.begin_iteration(iteration) {
                return Err(ExecError::Permanent { fault, iteration });
            }
        }
        self.escape_node = None;
        let mut report = ExecReport {
            executions: 1,
            ..Default::default()
        };
        self.replay_timing(&plan, t0, &mut report)?;
        let escape = self.injector.as_ref().and_then(|i| i.escape_site());
        if self.functional {
            match escape {
                Some(site) => self.replay_functional_until(&plan, site)?,
                None => self.replay_functional(&plan)?,
            }
        }

        // Align all streams at the end of one execution so iterations
        // measure cleanly (a zero-cost barrier on the virtual clock).
        let end = self.queue.sync_all();
        report.makespan = end - t0;
        let counters = self.queue.counters_snapshot();
        report.counters = counters - counters0;
        if self.queue.trace().is_some() {
            let topo = self.backend.topology();
            let stats: Vec<(String, f64, u64)> = (0..topo.num_link_resources())
                .map(|r| {
                    (
                        topo.link_resource_name(r).to_string(),
                        self.queue.link_busy_time(r).as_us(),
                        self.queue.link_contention_events(r),
                    )
                })
                .collect();
            if let Some(trace) = self.queue.trace_mut() {
                for (name, busy, contended) in stats {
                    trace.set_counter(&format!("link:{name}:busy_us"), busy);
                    trace.set_counter(&format!("link:{name}:contended"), contended as f64);
                }
                trace.set_counter("kernel:launches", counters.kernel_launches as f64);
                trace.set_counter("kernel:bytes_moved", counters.kernel_bytes_moved as f64);
            }
        }
        if let Some(site) = escape {
            // The iteration aborted: leave `logical_iteration` in place so
            // a bare retry re-runs the same iteration (its fault specs are
            // consumed, so the re-run is clean).
            let attempts = self
                .injector
                .as_ref()
                .map(|i| i.policy().max_attempts)
                .unwrap_or(1);
            return Err(ExecError::TransientFaultEscaped {
                device: site.device,
                kind: site.kind,
                iteration,
                attempts,
            });
        }
        self.logical_iteration = iteration + 1;
        Ok(report)
    }

    /// The virtual-clock half of one execution.
    fn replay_timing(
        &mut self,
        plan: &CompiledPlan,
        t0: SimTime,
        report: &mut ExecReport,
    ) -> Result<(), ExecError> {
        let graph = plan.graph();
        let schedule = plan.schedule();
        let ndev = self.backend.num_devices();
        let chunk_policy = self.devplan.chunk_policy();
        // Kernel faults are observed inside `enqueue_from`; transfer
        // faults are consulted here, once per (halo node, destination).
        let injector = self.injector.clone();
        let backoff = injector
            .as_ref()
            .map(|i| i.policy().backoff)
            .unwrap_or(SimTime::ZERO);
        // Completion time of each node on each device, flat `node × dev`.
        let mut ends = std::mem::take(&mut self.ends_scratch);
        ends.clear();
        ends.resize(graph.len() * ndev, t0);
        // Per-device kernel busy samples for the straggler monitor.
        let mut dev_kernel = std::mem::take(&mut self.dev_kernel_scratch);
        dev_kernel.clear();
        dev_kernel.resize(ndev, SimTime::ZERO);
        // Per-device transfer-observation counter mirroring the injector's
        // own: the `nth` it yields maps a retry verdict onto the actual
        // faulted chunk's slot instead of always chunk 0.
        let mut xfer_seen: Vec<u32> = if injector.is_some() {
            vec![0; ndev]
        } else {
            Vec::new()
        };
        // Chunk-events side tables (only maintained in that mode): per
        // halo node and destination device, when the halo's *inputs* were
        // ready, when the last chunk *arrived*, and how many bytes came
        // in. Unified memory has no explicit transfers to chunk, so the
        // mode only applies to the explicit-transfer policy.
        let chunked =
            self.devplan.chunked() && matches!(self.halo_policy, HaloPolicy::ExplicitTransfers);
        let mut h_ready = std::mem::take(&mut self.halo_ready_scratch);
        let mut h_arrive = std::mem::take(&mut self.halo_arrive_scratch);
        let mut h_bytes = std::mem::take(&mut self.halo_bytes_scratch);
        if chunked {
            h_ready.clear();
            h_ready.resize(graph.len() * ndev, t0);
            h_arrive.clear();
            h_arrive.resize(graph.len() * ndev, t0);
            h_bytes.clear();
            h_bytes.resize(graph.len() * ndev, 0);
        }

        for task in &schedule.tasks {
            let node_id = task.node;
            let node = graph.node(node_id);
            let parents = plan.data_parents(node_id);

            match &node.kind {
                NodeKind::Compute {
                    container,
                    view,
                    reduce_finalize,
                    ..
                } => {
                    let space = container.space().ok_or_else(|| {
                        // The taken `ends` scratch is dropped on this exit
                        // path; the next execution just re-allocates it.
                        ExecError::MissingIterationSpace {
                            node: node.name.clone(),
                        }
                    })?;
                    let bytes_per_cell = container.bytes_per_cell();
                    let flops_per_cell = container.flops_per_cell();
                    let eff = container.bw_efficiency();
                    let temporal = container.temporal_spec();
                    for d in 0..ndev {
                        let dev = DeviceId(d);
                        let earliest = parents
                            .iter()
                            .map(|&p| ends[p * ndev + d])
                            .fold(t0, SimTime::max);
                        let cells = space.cell_count(dev, *view);
                        if cells == 0 {
                            ends[node_id * ndev + d] = earliest;
                            continue;
                        }
                        // A temporal super-step runs k reps in one launch:
                        // rep j sweeps the interior expanded by (k-1-j)·r
                        // ghost layers. The memory system streams the
                        // expanded footprint once; flops accrue per rep,
                        // and those spent on cells another device owns are
                        // the scheme's redundant-recompute overhead.
                        let (bytes, flops, redundant) = match temporal {
                            Some(spec) => {
                                let k = spec.k as usize;
                                let footprint =
                                    space.cell_count_expanded(dev, (k - 1) * spec.radius);
                                let mut flops = 0u64;
                                let mut redundant = 0u64;
                                for j in 0..k {
                                    let swept =
                                        space.cell_count_expanded(dev, (k - 1 - j) * spec.radius);
                                    flops += swept * flops_per_cell;
                                    redundant += (swept - cells) * flops_per_cell;
                                }
                                (footprint * bytes_per_cell, flops, redundant)
                            }
                            None => (cells * bytes_per_cell, cells * flops_per_cell, 0),
                        };
                        let dur = self.backend.device(dev).kernel_time(bytes, flops, eff);
                        let lane = if self.kernel_concurrency {
                            task.stream
                        } else {
                            0
                        };
                        let stream = StreamId::new(dev, lane);
                        // Chunk events: split the launch around its halo
                        // inputs. Interior cells read no halo layer, so
                        // that share starts once the *non-halo* inputs
                        // (plus the halo's own input readiness, for
                        // transitive ordering) are done; the boundary
                        // share waits only for the last chunk *arriving*
                        // into this device — never for its outgoing
                        // sends. Both spans ride the same lane, so they
                        // serialize like a split launch.
                        let mut split = None;
                        if chunked {
                            let mut e0 = t0;
                            let mut arrive = t0;
                            let mut hbytes = 0u64;
                            let mut has_halo = false;
                            for &p in parents {
                                if graph.node(p).is_halo() {
                                    has_halo = true;
                                    e0 = e0.max(h_ready[p * ndev + d]);
                                    arrive = arrive.max(h_arrive[p * ndev + d]);
                                    hbytes += h_bytes[p * ndev + d];
                                } else {
                                    e0 = e0.max(ends[p * ndev + d]);
                                }
                            }
                            if has_halo && hbytes > 0 {
                                split = Some((e0, arrive, hbytes));
                            }
                        }
                        let e = match split {
                            Some((e0, arrive, hbytes)) => {
                                let frac = (hbytes as f64 / bytes.max(1) as f64).min(1.0);
                                let bnd = SimTime::from_us(dur.as_us() * frac);
                                let (int_name, bnd_name) = &self.split_names[node_id];
                                self.queue.enqueue_split_kernel(
                                    stream,
                                    e0,
                                    arrive,
                                    (dur, bnd),
                                    (int_name, bnd_name),
                                )
                            }
                            None => {
                                let (_, e) = self.queue.enqueue_from(
                                    stream,
                                    earliest,
                                    dur,
                                    &node.name,
                                    SpanKind::Kernel,
                                );
                                e
                            }
                        };
                        report.kernel_time += dur;
                        dev_kernel[d] += dur;
                        self.queue.record_launch(bytes);
                        if redundant > 0 {
                            self.queue.record_redundant_flops(redundant);
                        }
                        ends[node_id * ndev + d] = e;
                    }
                    if *reduce_finalize {
                        // Folding partials into the host value synchronizes
                        // the devices and pays a host round trip.
                        let sync = self.backend.device(DeviceId(0)).sync_overhead();
                        let gmax = (0..ndev)
                            .map(|d| ends[node_id * ndev + d])
                            .fold(t0, SimTime::max)
                            + sync;
                        report.host_time += sync;
                        for d in 0..ndev {
                            ends[node_id * ndev + d] = gmax;
                        }
                    }
                }
                NodeKind::Halo { .. } => {
                    self.queue.record_halo_round();
                    // lanes = [constraint | into | from], each `ndev` wide.
                    let mut lanes = std::mem::take(&mut self.lane_scratch);
                    lanes.clear();
                    lanes.resize(3 * ndev, t0);
                    for d in 0..ndev {
                        let c = parents
                            .iter()
                            .map(|&p| ends[p * ndev + d])
                            .fold(t0, SimTime::max);
                        lanes[d] = c;
                        lanes[ndev + d] = c;
                        lanes[2 * ndev + d] = c;
                        if chunked {
                            h_ready[node_id * ndev + d] = c;
                        }
                    }
                    // One transfer-fault verdict per destination device per
                    // halo node: the first descriptor into a destination
                    // carries the retry cost, later ones ride clean. Only
                    // allocated when an injector is installed. The returned
                    // `nth` is the observation's per-device occurrence
                    // index, which selects the chunk slot the verdict is
                    // charged to.
                    let mut verdicts: Option<Vec<Option<(FaultVerdict, u32)>>> =
                        injector.as_ref().map(|_| vec![None; ndev]);
                    let mut consult = |dst: DeviceId| -> (FaultVerdict, u32) {
                        match (&mut verdicts, &injector) {
                            (Some(v), Some(inj)) => match v[dst.0] {
                                Some((_, nth)) => (FaultVerdict::Clean, nth),
                                None => {
                                    let nth = xfer_seen[dst.0];
                                    xfer_seen[dst.0] += 1;
                                    let verdict = inj.observe(dst, FaultSiteKind::Transfer);
                                    v[dst.0] = Some((verdict, nth));
                                    (verdict, nth)
                                }
                            },
                            _ => (FaultVerdict::Clean, 0),
                        }
                    };
                    match self.halo_policy {
                        HaloPolicy::ExplicitTransfers => {
                            for desc in plan.halo_descriptors(node_id) {
                                let (verdict, nth) = consult(desc.dst);
                                let earliest = lanes[desc.src.0].max(lanes[desc.dst.0]);
                                let lane = self.transfer_lane(desc.src, desc.dst);
                                // Occupy the physical link: peer copies on a
                                // PCIe box all contend for the host root
                                // complex; NVLink pairs are dedicated.
                                let res =
                                    self.backend.topology().link_resources(desc.src, desc.dst);
                                let stream = StreamId::new(desc.src, lane);
                                // Chunk events stream the payload in
                                // engine-sized chunks, pipelined DMA-style:
                                // the first chunk pays the link round-trip
                                // latency, follow-on chunks ride the already
                                // -open channel at pure bandwidth. A retry
                                // verdict lands on the faulted chunk's own
                                // slot (`nth` mod the chunk count), other
                                // chunks ride clean; an escaped chunk aborts
                                // the rest of the payload.
                                let (cnum, cb) = if chunked {
                                    chunk_policy.chunks(desc.bytes)
                                } else {
                                    (1, desc.bytes)
                                };
                                let fault_chunk = nth as usize % cnum.max(1);
                                let latency =
                                    self.backend.topology().transfer_time(desc.src, desc.dst, 0);
                                let mut remaining = desc.bytes;
                                for k in 0..cnum {
                                    let b = cb.min(remaining);
                                    remaining -= b;
                                    let mut dur = self
                                        .backend
                                        .topology()
                                        .transfer_time(desc.src, desc.dst, b);
                                    if k > 0 {
                                        dur = (dur - latency).max(SimTime::ZERO);
                                    }
                                    let v = if k == fault_chunk {
                                        verdict
                                    } else {
                                        FaultVerdict::Clean
                                    };
                                    let (s, e) = self.queue.enqueue_transfer_with_faults(
                                        stream,
                                        earliest,
                                        dur,
                                        res,
                                        b,
                                        &node.name,
                                        SpanKind::Transfer,
                                        v,
                                        backoff,
                                    );
                                    report.transfer_time += e - s;
                                    lanes[ndev + desc.dst.0] = lanes[ndev + desc.dst.0].max(e);
                                    lanes[2 * ndev + desc.src.0] =
                                        lanes[2 * ndev + desc.src.0].max(e);
                                    if matches!(v, FaultVerdict::Escaped { .. }) {
                                        // The chunk never landed cleanly;
                                        // the rest of the payload is moot.
                                        break;
                                    }
                                }
                                if chunked {
                                    h_bytes[node_id * ndev + desc.dst.0] += desc.bytes;
                                }
                                if matches!(verdict, FaultVerdict::Escaped { .. }) {
                                    // The destination never receives a clean
                                    // payload; the iteration is aborting.
                                    break;
                                }
                            }
                        }
                        HaloPolicy::UnifiedMemory {
                            page_bytes,
                            fault_us,
                            bandwidth_gb_s,
                        } => {
                            // Pages migrate on first touch in the consuming
                            // kernel: the cost lands on the DESTINATION
                            // device's compute lane (lane 0), serializing
                            // with kernels — OCC cannot hide it.
                            for desc in plan.halo_descriptors(node_id) {
                                let (verdict, _) = consult(desc.dst);
                                let mut earliest = lanes[desc.src.0].max(lanes[desc.dst.0]);
                                let pages = desc.bytes.div_ceil(page_bytes);
                                let dur = SimTime::from_us(
                                    pages as f64 * fault_us
                                        + desc.bytes as f64 / bandwidth_gb_s * 1e-3,
                                );
                                if matches!(verdict, FaultVerdict::Escaped { .. }) {
                                    break;
                                }
                                if let FaultVerdict::Recovered { failed_attempts } = verdict {
                                    // Failed migrations repeat the sweep and
                                    // pay the backoff before the clean pass.
                                    if let Some(inj) = &injector {
                                        earliest = earliest
                                            + inj.policy().backoff_total(failed_attempts)
                                            + SimTime::from_us(
                                                dur.as_us() * failed_attempts as f64,
                                            );
                                    }
                                }
                                let stream = StreamId::new(desc.dst, 0);
                                let (_, e) = self.queue.enqueue_from(
                                    stream,
                                    earliest,
                                    dur,
                                    &self.um_names[node_id],
                                    SpanKind::Transfer,
                                );
                                report.transfer_time += dur;
                                lanes[ndev + desc.dst.0] = lanes[ndev + desc.dst.0].max(e);
                                lanes[2 * ndev + desc.src.0] = lanes[2 * ndev + desc.src.0].max(e);
                            }
                        }
                    }
                    for d in 0..ndev {
                        ends[node_id * ndev + d] = lanes[ndev + d].max(lanes[2 * ndev + d]);
                        if chunked {
                            // Consumers' boundary spans gate on arrivals
                            // only; `ends` keeps the conservative epoch
                            // meaning for every other consumer kind.
                            h_arrive[node_id * ndev + d] = lanes[ndev + d];
                        }
                    }
                    self.lane_scratch = lanes;
                }
                NodeKind::Host { .. } => {
                    // Host steps synchronize against every parent on every
                    // device, pay a sync + host overhead, and gate everyone.
                    let sync = self.backend.device(DeviceId(0)).sync_overhead();
                    let earliest = parents
                        .iter()
                        .flat_map(|&p| (0..ndev).map(move |d| p * ndev + d))
                        .map(|i| ends[i])
                        .fold(t0, SimTime::max);
                    let stream = StreamId::new(DeviceId(0), self.host_lane());
                    let (_, e) =
                        self.queue
                            .enqueue_from(stream, earliest, sync, &node.name, SpanKind::Host);
                    report.host_time += sync;
                    for d in 0..ndev {
                        ends[node_id * ndev + d] = e;
                    }
                }
                NodeKind::Collective { bytes, .. } => {
                    // Per-device readiness: a device joins the collective as
                    // soon as ITS parents are done — no global barrier.
                    let mut earliest = std::mem::take(&mut self.lane_scratch);
                    earliest.clear();
                    earliest.extend((0..ndev).map(|d| {
                        parents
                            .iter()
                            .map(|&p| ends[p * ndev + d])
                            .fold(t0, SimTime::max)
                    }));
                    let lane = self.collective_lane();
                    let timing = self.engine.schedule(
                        &mut self.queue,
                        CollectiveKind::AllReduce,
                        *bytes,
                        &earliest,
                        lane,
                        &node.name,
                    );
                    self.lane_scratch = earliest;
                    report.collective_time += timing.busy;
                    for d in 0..ndev {
                        ends[node_id * ndev + d] = timing.done[d];
                    }
                    // Link faults are observed inside the engine, chunk by
                    // chunk; if one escaped here, remember the node so the
                    // functional replay can abort before its finalize.
                    if self.escape_node.is_none()
                        && injector
                            .as_ref()
                            .and_then(|i| i.escape_site())
                            .is_some_and(|s| s.kind == FaultSiteKind::Link)
                    {
                        self.escape_node = Some(node_id);
                    }
                }
            }
            if injector.as_ref().is_some_and(|i| i.escape_site().is_some()) {
                // The iteration is aborting: the rest of it never runs, so
                // later operations must not advance the clock or consume
                // fault specs (the injector also stops matching once the
                // escape marker is set — this break just saves the work).
                break;
            }
        }

        self.ends_scratch = ends;
        self.dev_kernel_scratch = dev_kernel;
        self.halo_ready_scratch = h_ready;
        self.halo_arrive_scratch = h_arrive;
        self.halo_bytes_scratch = h_bytes;
        Ok(())
    }

    /// The functional half of one execution.
    fn replay_functional(&mut self, plan: &CompiledPlan) -> Result<(), ExecError> {
        match self.functional_mode {
            FunctionalMode::Serial => self.replay_functional_serial(plan),
            FunctionalMode::Parallel => {
                if self.parallel_halo_ok {
                    self.replay_functional_parallel(plan)
                } else {
                    // A whole-exchange halo cannot run concurrently with
                    // kernels (whole-partition leases); stay serial.
                    self.replay_functional_serial(plan)
                }
            }
        }
    }

    /// Reference replay: strictly in task order, devices in rank order,
    /// everything on the calling thread.
    fn replay_functional_serial(&self, plan: &CompiledPlan) -> Result<(), ExecError> {
        let ndev = self.backend.num_devices();
        for task in &plan.schedule().tasks {
            match &plan.graph().node(task.node).kind {
                NodeKind::Compute {
                    container,
                    view,
                    reduce_init,
                    reduce_finalize,
                } => {
                    if *reduce_init {
                        container.reduce_init();
                    }
                    for d in 0..ndev {
                        container.run_device(DeviceId(d), *view);
                    }
                    if *reduce_finalize {
                        container.reduce_finalize();
                    }
                }
                NodeKind::Halo { exchange } => exchange.execute(),
                NodeKind::Host { container } => container.run_host(),
                NodeKind::Collective { container, .. } => {
                    // Canonical rank-order fold: bit-identical to the
                    // host-staged merge regardless of algorithm.
                    container.reduce_finalize();
                }
            }
        }
        Ok(())
    }

    /// Event-driven replay on the persistent worker pool.
    fn replay_functional_parallel(&mut self, plan: &CompiledPlan) -> Result<(), ExecError> {
        let ndev = self.devplan.ndev();
        // Take the pool out of `self` for the duration of the run: the
        // worker closure borrows `self`'s plan data immutably, and this
        // sidesteps both the borrow conflict and the old
        // `expect("pool was just created")`. If a worker panic unwinds
        // through `run`, the pool is dropped and respawned fresh next time.
        let pool = self.pool.take().unwrap_or_else(|| WorkerPool::new(ndev));
        self.func_epoch += 1;
        let epoch = self.func_epoch;
        self.events.clear_poison();

        let graph = plan.graph();
        let devplan: &DevicePlan = &self.devplan;
        let events = &self.events;
        // First structural error reported by a worker; later workers see
        // the poisoned events and abandon their walks.
        let first_error: Mutex<Option<ExecError>> = Mutex::new(None);
        pool.run(|d| {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                walk_device(graph, devplan, events, epoch, d)
            }));
            match result {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    let mut slot = first_error.lock().unwrap_or_else(|p| p.into_inner());
                    slot.get_or_insert(e);
                    drop(slot);
                    // Wake the siblings out of their event waits so the
                    // pool drains instead of deadlocking.
                    events.poison();
                }
                Err(payload) => {
                    events.poison();
                    // Let the pool deliver the payload to the caller.
                    panic::resume_unwind(payload);
                }
            }
        });
        self.pool = Some(pool);
        match first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Functional replay of the *prefix* of an iteration whose fault at
    /// `site` escaped retry: every operation before the faulted one runs
    /// (mutating data — this is what makes the rollback genuinely
    /// necessary), the faulted operation and everything after it never
    /// execute. Runs strictly serially regardless of the configured mode —
    /// the partial state is about to be wiped by a checkpoint restore, and
    /// a serial walk keeps the abort point deterministic.
    ///
    /// Occurrence counting mirrors the timing replay exactly: kernels
    /// count per device only when the partition is non-empty, halo
    /// transfers count once per (node, destination) in descriptor order.
    /// Link faults carry no functional counter: the engine observed them
    /// mid-collective, so the abort lands on the collective *node* the
    /// timing replay recorded (`escape_node`) — the fold never committed,
    /// skipping the whole node is exact.
    fn replay_functional_until(
        &self,
        plan: &CompiledPlan,
        site: FaultSite,
    ) -> Result<(), ExecError> {
        let ndev = self.backend.num_devices();
        // Per-device `[kernel, transfer]` occurrence counters.
        let mut seen = vec![[0u32; 2]; ndev];
        for task in &plan.schedule().tasks {
            match &plan.graph().node(task.node).kind {
                NodeKind::Compute {
                    container,
                    view,
                    reduce_init,
                    reduce_finalize,
                } => {
                    let space =
                        container
                            .space()
                            .ok_or_else(|| ExecError::MissingIterationSpace {
                                node: plan.graph().node(task.node).name.clone(),
                            })?;
                    if *reduce_init {
                        container.reduce_init();
                    }
                    for d in 0..ndev {
                        let dev = DeviceId(d);
                        if space.cell_count(dev, *view) == 0 {
                            continue; // the timing replay skipped it too
                        }
                        let nth = seen[d][0];
                        seen[d][0] += 1;
                        if site.kind == FaultSiteKind::Kernel
                            && site.device == dev
                            && site.nth == nth
                        {
                            // Launch-failure semantics: the faulted kernel
                            // never ran, devices before it in rank order
                            // already did.
                            return Ok(());
                        }
                        container.run_device(dev, *view);
                    }
                    if *reduce_finalize {
                        container.reduce_finalize();
                    }
                }
                NodeKind::Halo { exchange } => {
                    let mut counted = vec![false; ndev];
                    for desc in plan.halo_descriptors(task.node) {
                        if counted[desc.dst.0] {
                            continue;
                        }
                        counted[desc.dst.0] = true;
                        let nth = seen[desc.dst.0][1];
                        seen[desc.dst.0][1] += 1;
                        if site.kind == FaultSiteKind::Transfer
                            && site.device == desc.dst
                            && site.nth == nth
                        {
                            // The corrupted payload was dropped before
                            // commit: no destination of this exchange is
                            // updated.
                            return Ok(());
                        }
                    }
                    exchange.execute();
                }
                NodeKind::Host { container } => container.run_host(),
                NodeKind::Collective { container, .. } => {
                    if site.kind == FaultSiteKind::Link && self.escape_node == Some(task.node) {
                        // The collective aborted mid-flight: no rank holds
                        // the folded value, so the finalize (and everything
                        // after) never runs.
                        return Ok(());
                    }
                    container.reduce_finalize();
                }
            }
        }
        // The site was not reached — counters drifted from the timing
        // replay, which is a bug; the caller still rolls back, so data
        // stays consistent, but surface it loudly in debug builds.
        debug_assert!(false, "escape site {site:?} not found in functional replay");
        Ok(())
    }

    /// Execute the plan `n` times, aggregating the report.
    ///
    /// Individual iteration makespans are recorded and readable via
    /// [`Executor::per_iteration_makespans`] until the next call.
    ///
    /// When tracing, asserts (debug builds) that each iteration emits the
    /// same number of spans — the compiled schedule is replayed verbatim,
    /// so a drifting span count means the executor grew hidden state.
    pub fn execute_iters(&mut self, n: usize) -> ExecReport {
        let mut total = ExecReport::default();
        let mut spans_per_iter: Option<usize> = None;
        // Reserve up front so the steady-state loop never reallocates.
        self.iter_makespans.clear();
        self.iter_makespans.reserve(n);
        for _ in 0..n {
            let before = self.queue.trace().map(|t| t.spans().len());
            let report = self.execute();
            self.iter_makespans.push(report.makespan);
            total.accumulate(report);
            // With a fault injector installed the span count legitimately
            // varies per iteration (retry spans appear where faults fire),
            // so the stability check only applies to clean runs.
            if self.injector.is_some() {
                continue;
            }
            if let (Some(b), Some(t)) = (before, self.queue.trace()) {
                let delta = t.spans().len() - b;
                if let Some(expected) = spans_per_iter {
                    debug_assert_eq!(
                        expected, delta,
                        "trace span count must be stable across iterations"
                    );
                }
                spans_per_iter = Some(delta);
            }
        }
        total
    }
}

/// One worker's walk over its device's step list: wait on the event table
/// where the plan says to, execute, signal. A malformed step is reported
/// as an error (the worker stores it and poisons the replay) rather than
/// panicking through the pool.
fn walk_device(
    graph: &Graph,
    dp: &DevicePlan,
    events: &EventSlots,
    epoch: u64,
    d: usize,
) -> Result<(), ExecError> {
    let ndev = dp.ndev();
    for step in dp.steps(d) {
        for &w in dp.waits_of(step) {
            if !events.wait(w as usize, epoch) {
                // Poisoned: a sibling worker failed and is reporting the
                // root cause; abandon the walk quietly.
                return Ok(());
            }
        }
        let node_id = step.node as usize;
        let node = graph.node(node_id);
        let missing = || ExecError::MissingContainer {
            node: node.name.clone(),
        };
        let malformed = || ExecError::MalformedStep {
            node: node.name.clone(),
        };
        match step.action {
            DevAction::ReduceInit => {
                let c = node.container().ok_or_else(missing)?;
                c.reduce_init();
                events.signal(dp.aux_init(node_id), epoch);
            }
            DevAction::Kernel => {
                match &node.kind {
                    NodeKind::Compute {
                        container, view, ..
                    } => container.run_device(DeviceId(d), *view),
                    _ => return Err(malformed()),
                }
                events.signal(dp.slot(node_id, d), epoch);
            }
            DevAction::HaloPull => {
                match &node.kind {
                    NodeKind::Halo { exchange } => exchange.execute_for_dst(DeviceId(d)),
                    _ => return Err(malformed()),
                }
                events.signal(dp.slot(node_id, d), epoch);
                // A chunked plan's consumers wait per-chunk arrival slots;
                // the pull signals them all once the payload landed — the
                // same ordering the whole-pull slot enforced, expressed at
                // chunk granularity.
                for k in 0..dp.chunk_count(node_id) {
                    events.signal(dp.chunk_slot(node_id, d, k), epoch);
                }
            }
            DevAction::HaloAll => {
                match &node.kind {
                    NodeKind::Halo { exchange } => exchange.execute(),
                    _ => return Err(malformed()),
                }
                for e in 0..ndev {
                    events.signal(dp.slot(node_id, e), epoch);
                    for k in 0..dp.chunk_count(node_id) {
                        events.signal(dp.chunk_slot(node_id, e, k), epoch);
                    }
                }
            }
            DevAction::Host => {
                let c = node.container().ok_or_else(missing)?;
                c.run_host();
                events.signal(dp.aux_done(node_id), epoch);
            }
            DevAction::Collective | DevAction::ReduceFinalize => {
                let c = node.container().ok_or_else(missing)?;
                c.reduce_finalize();
                events.signal(dp.aux_done(node_id), epoch);
            }
        }
    }
    Ok(())
}
