//! Request, configuration and report types of the serving layer.

use neon_apps::JobSpec;
use neon_comm::Algorithm;
use neon_sys::{CounterSnapshot, SimTime};

/// One tenant of the server: a name and a fair-share weight. A tenant with
/// weight 2 is entitled to twice the device-time of a tenant with weight 1
/// whenever both are backlogged.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (accounting rows carry it).
    pub name: String,
    /// Fair-share weight (> 0).
    pub weight: f64,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, weight: f64) -> Self {
        assert!(weight > 0.0, "tenant weight must be positive");
        TenantSpec {
            name: name.into(),
            weight,
        }
    }
}

/// One job submission: which tenant, what to solve, how many devices, when
/// it arrives on the virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct JobRequest {
    /// Index into the server's tenant list.
    pub tenant: usize,
    /// The solver work to run.
    pub spec: JobSpec,
    /// Devices requested (clamped to the alive fleet at pin time).
    pub ndev: usize,
    /// Arrival time on the virtual clock, in microseconds.
    pub arrival_us: f64,
}

/// Scheduling policy of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Weighted fair queueing: jobs are preempted every
    /// [`ServeConfig::quantum_iters`] iterations, the next quantum goes to
    /// the dispatchable job whose tenant has the smallest virtual time, and
    /// jobs with disjoint device subsets run side by side (space sharing).
    WeightedFair,
    /// Baseline: one job at a time, in arrival order, run to completion.
    /// No space sharing, no preemption — what a naive "the Skeleton owns
    /// the whole Backend" deployment would do.
    FifoExclusive,
}

/// A scheduled permanent device loss (server-level fault injection): fleet
/// device `device` dies at virtual time `at_us`.
#[derive(Debug, Clone, Copy)]
pub struct DeviceLoss {
    /// Virtual time of the loss, in microseconds.
    pub at_us: f64,
    /// Fleet device index that dies.
    pub device: usize,
}

/// A scheduled permanent link fault (server-level fault injection): at
/// virtual time `at_us` the fleet's peer link between `src` and `dst` is
/// severed (`factor == None`, both directions fall back to PCIe-class
/// staging) or degraded to `factor` of its bandwidth. Jobs whose pinned
/// subset spans both endpoints are re-planned on the degraded fleet; their
/// collective routes may flip (an island that split routes hierarchically
/// where it was flat, or vice versa), which [`JobOutcome::route_changes`]
/// records.
#[derive(Debug, Clone, Copy)]
pub struct LinkFault {
    /// Virtual time of the fault, in microseconds.
    pub at_us: f64,
    /// One end of the affected fleet link.
    pub src: usize,
    /// The other end of the affected fleet link.
    pub dst: usize,
    /// `None` = severed; `Some(f)` = bandwidth drops to `f` of nominal.
    pub factor: Option<f64>,
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission bound, per tenant: a job arriving while its tenant
    /// already has this many admitted jobs *waiting* (at an iteration
    /// boundary, not running) is shed. The bound is per tenant so one
    /// backlogged tenant cannot fill the queue and shed everyone else's
    /// arrivals; total queueing is bounded by `capacity × tenants`.
    pub queue_capacity: usize,
    /// Iterations per quantum under [`SchedPolicy::WeightedFair`]; jobs
    /// yield at the next iteration boundary after this many iterations.
    pub quantum_iters: u64,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Optional scheduled device loss.
    pub device_loss: Option<DeviceLoss>,
    /// Optional scheduled link fault.
    pub link_fault: Option<LinkFault>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 16,
            quantum_iters: 4,
            policy: SchedPolicy::WeightedFair,
            device_loss: None,
            link_fault: None,
        }
    }
}

/// A job's forced migration after a device loss: at which iteration
/// boundary it re-planned and how many devices the new subset has. Replay
/// the same events solo ([`crate::solo_run_bits`]) to reproduce the
/// multiplexed run's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionEvent {
    /// Iteration boundary (checkpoint) the job resumed from.
    pub at_iteration: u64,
    /// Subset size before the loss.
    pub from_ndev: usize,
    /// Subset size after re-planning (equal if a spare device was free).
    pub to_ndev: usize,
}

/// One collective-route flip forced by a fleet link fault: the job kept
/// its devices, but the degraded subset topology routes its all-reduces
/// differently from the healthy one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteChange {
    /// Iteration boundary the job was re-planned at.
    pub at_iteration: u64,
    /// Route on the healthy subset topology.
    pub from: Algorithm,
    /// Route on the degraded subset topology.
    pub to: Algorithm,
}

/// Per-request outcome.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Index into the server's tenant list.
    pub tenant: usize,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Devices requested.
    pub ndev: usize,
    /// Whether admission accepted the job (false ⇒ shed, nothing ran).
    pub admitted: bool,
    /// Whether every iteration committed.
    pub completed: bool,
    /// Result fingerprint (completed jobs only).
    pub result_bits: Option<u64>,
    /// Arrival time (virtual µs).
    pub arrival_us: f64,
    /// First-dispatch time (virtual µs; admitted jobs that ran).
    pub start_us: Option<f64>,
    /// Completion time (virtual µs).
    pub finish_us: Option<f64>,
    /// Iterations committed.
    pub iterations: u64,
    /// Device subset size the job first ran on.
    pub first_ndev: Option<usize>,
    /// Forced migrations (device loss re-plans), in order.
    pub evictions: Vec<EvictionEvent>,
    /// Collective algorithm the engine routes this job's field-sized
    /// all-reduces through on its pinned subset (refreshed on migration,
    /// so a survivor subset that straddles islands shows up as
    /// [`Algorithm::Hierarchical`]). `None` for jobs that never ran.
    pub collective_route: Option<Algorithm>,
    /// Collective-route flips forced by fleet link faults, in order. A
    /// fault that re-plans a job without changing its route records
    /// nothing here — the entry means the wire the route relied on is
    /// gone, not merely that a recompile happened.
    pub route_changes: Vec<RouteChange>,
}

impl JobOutcome {
    /// Sojourn time (finish − arrival) of a completed job, in µs.
    pub fn latency_us(&self) -> Option<f64> {
        self.finish_us.map(|f| f - self.arrival_us)
    }
}

/// Per-tenant accounting: traffic is the sum of the tenant's committed
/// quanta's [`neon_core::ExecReport::counters`]; time comes from the event
/// loop.
#[derive(Debug, Clone)]
pub struct TenantAccount {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Iterations committed across all the tenant's jobs.
    pub iterations: u64,
    /// Traffic of the tenant's committed quanta (setup executions
    /// included; aborted quanta excluded).
    pub counters: CounterSnapshot,
    /// Device-time consumed: Σ (quantum makespan × subset size), µs.
    pub device_busy_us: f64,
    /// Device-time of quanta aborted by a device loss (rolled back, not
    /// counted in `device_busy_us`), µs.
    pub wasted_device_us: f64,
    /// Bytes of solver state staged to the host by checkpoint captures on
    /// the tenant's behalf.
    pub checkpoint_bytes: u64,
    /// Virtual time spent capturing checkpoints (checkpoint bytes over the
    /// host staging link), µs. Charged to the tenant's WFQ virtual time —
    /// resilience is a service the tenant pays for, not free overhead
    /// smeared across the fleet.
    pub checkpoint_us: f64,
    /// Total time the tenant's jobs sat admitted-but-not-running, µs.
    pub queue_wait_us: f64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs rejected by admission control.
    pub jobs_shed: u64,
}

impl TenantAccount {
    pub(crate) fn new(spec: &TenantSpec) -> Self {
        TenantAccount {
            name: spec.name.clone(),
            weight: spec.weight,
            iterations: 0,
            counters: CounterSnapshot::default(),
            device_busy_us: 0.0,
            wasted_device_us: 0.0,
            checkpoint_bytes: 0,
            checkpoint_us: 0.0,
            queue_wait_us: 0.0,
            jobs_completed: 0,
            jobs_shed: 0,
        }
    }

    pub(crate) fn commit(&mut self, counters: &CounterSnapshot, iterations: u64, device_us: f64) {
        self.iterations += iterations;
        self.counters.accumulate(counters);
        self.device_busy_us += device_us;
    }
}

/// What one [`crate::Server::run`] produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Per-tenant accounting.
    pub tenants: Vec<TenantAccount>,
    /// Virtual time of the last event.
    pub makespan: SimTime,
    /// Jobs rejected by admission control.
    pub shed: u64,
    /// Device losses processed.
    pub device_losses: u64,
    /// Link faults processed.
    pub link_faults: u64,
    /// Host wall-clock spent in scheduling decisions, µs.
    pub sched_wall_us: f64,
    /// Host wall-clock of the whole run (compiles + functional execution +
    /// scheduling), µs.
    pub total_wall_us: f64,
    /// Plan-cache hits minus misses over the run (positive deltas mean
    /// cross-tenant sharing worked).
    pub cache_hits: u64,
    /// Plan-cache misses over the run.
    pub cache_misses: u64,
}

impl ServeReport {
    /// Completed jobs per *virtual* second.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.completed).count() as f64 / secs
    }

    /// `(p50, p99)` job latency over completed jobs, in virtual µs.
    pub fn latency_percentiles_us(&self) -> (f64, f64) {
        let mut lat: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.latency_us())
            .collect();
        if lat.is_empty() {
            return (0.0, 0.0);
        }
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (percentile(&lat, 0.50), percentile(&lat, 0.99))
    }

    /// Jain's fairness index over weight-normalized tenant service
    /// `x_i = device_busy_us_i / weight_i`:
    /// `J = (Σx)² / (n · Σx²)` ∈ (0, 1], 1 ⇔ perfectly proportional.
    /// Tenants that submitted no jobs are excluded.
    pub fn jain_fairness(&self) -> f64 {
        let x: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.jobs_completed + t.jobs_shed > 0 || t.device_busy_us > 0.0)
            .map(|t| t.device_busy_us / t.weight)
            .collect();
        jain_index(&x)
    }
}

/// Jain's fairness index of an allocation vector.
pub fn jain_index(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 1.0;
    }
    let sum: f64 = x.iter().sum();
    let sq: f64 = x.iter().map(|v| v * v).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (x.len() as f64 * sq)
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0]), 1.0);
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything over n tenants → 1/n.
        let j = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
        // Mild skew stays high.
        assert!(jain_index(&[1.0, 1.2, 0.9]) > 0.95);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tenant_weight_must_be_positive() {
        let t = TenantSpec::new("a", 2.0);
        assert_eq!(t.weight, 2.0);
        let r = std::panic::catch_unwind(|| TenantSpec::new("b", 0.0));
        assert!(r.is_err());
    }
}
