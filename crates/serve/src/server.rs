//! The serving event loop: admission, scheduling, space sharing, device
//! loss, accounting.
//!
//! The server is a discrete-event simulation on the same virtual clock the
//! executors use. Quanta are *computed* eagerly (a dispatched quantum runs
//! its iterations functionally and returns its virtual makespan) and then
//! *placed* on the fleet timeline: the job's pinned devices are busy from
//! the dispatch time until `dispatch + makespan`. Jobs pinned to disjoint
//! subsets therefore overlap in virtual time — space sharing — while jobs
//! whose subsets intersect serialize on the shared devices.
//!
//! Preemption happens only between [`neon_apps::SolverJob::advance`] calls
//! (iteration boundaries), so no kernel state is ever interrupted and a
//! job's results are bit-identical to a solo run of the same spec on a
//! same-size backend.
//!
//! A scheduled [`DeviceLoss`] or [`LinkFault`] takes one fault path at its
//! virtual time: the lost device is marked dead, or the fleet interconnect
//! is healed through [`neon_core::heal_backend`]; in-flight quanta the
//! fault hits are aborted and rolled back to the checkpoint captured at
//! their quantum start; and every waiting job pinned across the fault is
//! re-planned and rebuilt through logical coordinates. Re-pinning after a
//! device loss is scheduler policy — survivors keep their subset slots, a
//! spare alive device replaces the dead one when the fleet still has
//! enough devices, otherwise the subset shrinks. Plans compiled for
//! equal-size subsets stay valid (the fingerprint hashes device *models*,
//! not identities), so re-planning is usually a plan-cache hit.

use std::time::Instant;

use neon_apps::{JobSpec, SolverJob};
use neon_comm::{choose, Algorithm, CollectiveKind};
use neon_core::{heal_backend, invalidate_backend, OccLevel, PermanentFault, SkeletonOptions};
use neon_set::Checkpoint;
use neon_sys::{Backend, CounterSnapshot, DeviceId, Result, SimTime};

use crate::types::{
    DeviceLoss, EvictionEvent, JobOutcome, JobRequest, LinkFault, RouteChange, SchedPolicy,
    ServeConfig, ServeReport, TenantAccount, TenantSpec,
};

/// Comparison slack for event times (sums of f64 microseconds).
const EPS: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not yet arrived.
    Pending,
    /// Admitted, at an iteration boundary, not running.
    Waiting,
    /// A quantum is in flight.
    Running,
    /// All iterations committed.
    Done,
    /// Rejected by admission control.
    Shed,
}

/// Per-request server-side state.
struct JobState {
    req: JobRequest,
    /// Admission sequence number (FIFO order, WFQ tie-break).
    seq: usize,
    job: Option<Box<dyn SolverJob>>,
    /// Fleet device indices the job is pinned to (sorted; set at first
    /// dispatch, re-carved on device loss).
    pinned: Option<Vec<usize>>,
    phase: Phase,
    /// When the job last became ready (arrival or last quantum end).
    ready_since: f64,
    start_us: Option<f64>,
    finish_us: Option<f64>,
    queue_wait_us: f64,
    first_ndev: Option<usize>,
    evictions: Vec<EvictionEvent>,
    /// Collective route on the current pinned subset (see
    /// [`JobOutcome::collective_route`]).
    route: Option<Algorithm>,
    /// Route flips forced by fleet link faults (see
    /// [`JobOutcome::route_changes`]).
    route_changes: Vec<RouteChange>,
}

/// The collective algorithm the engine would route this job's field-sized
/// all-reduces through on `backend`'s (subset) topology. The payload is
/// one dense `f64` field of the job's grid — the unit the solvers reduce
/// over — so the answer tracks the island structure of the subset: flat
/// single-island subsets pick a flat schedule, subsets straddling islands
/// (multi-box fleets, asymmetric survivor sets after eviction) pick the
/// hierarchical one.
fn collective_route(spec: &JobSpec, backend: &Backend) -> Algorithm {
    let dim = match *spec {
        JobSpec::Poisson { dim, .. } | JobSpec::Lbm { dim, .. } => dim as u64,
    };
    let field_bytes = dim * dim * dim * std::mem::size_of::<f64>() as u64;
    choose(CollectiveKind::AllReduce, field_bytes, backend.topology())
}

/// A scheduled fleet fault, in fleet device indices.
#[derive(Debug, Clone, Copy)]
enum FleetFault {
    Device(DeviceLoss),
    Link(LinkFault),
}

impl FleetFault {
    fn at_us(&self) -> f64 {
        match self {
            FleetFault::Device(l) => l.at_us,
            FleetFault::Link(f) => f.at_us,
        }
    }

    /// Whether work pinned to `devices` is hit: it ran on the lost device,
    /// or it straddled both endpoints of the faulted wire.
    fn hits(&self, devices: &[usize]) -> bool {
        match self {
            FleetFault::Device(l) => devices.contains(&l.device),
            FleetFault::Link(f) => devices.contains(&f.src) && devices.contains(&f.dst),
        }
    }
}

/// One in-flight quantum.
struct Active {
    widx: usize,
    devices: Vec<usize>,
    start: f64,
    end: f64,
    iters_delta: u64,
    /// The quantum's traffic (its `advance` report's counters), charged
    /// to the tenant at commit.
    counters: CounterSnapshot,
    /// Captured at quantum start iff a pending fault hits the quantum's
    /// devices; the abort path restores it.
    cp: Option<Checkpoint>,
}

/// The waiting set, indexed in dispatch order.
///
/// The WFQ scheduler's next candidate is the placeable waiting job with
/// the least `(tenant virtual time, admission seq)` key. A linear minimum
/// over the waiting list costs O(waiting) per dispatch — quadratic over a
/// backlogged burst — so the set is kept as an ordered index instead: the
/// scheduler scans a (usually length-1) prefix of a `BTreeSet`.
///
/// All of a tenant's entries share the tenant's current virtual time, so
/// the index re-keys a tenant's entries only when its virtual time moves
/// (quantum commit, idle-return floor) — O(waiting-of-tenant · log n)
/// per vtime advance instead of O(waiting) per dispatch attempt.
struct WaitQueue {
    /// `(vtime bits, admission seq, job index)`, ordered. Virtual times
    /// are non-negative finite f64s, so `to_bits` is order-preserving.
    by_key: std::collections::BTreeSet<(u64, usize, usize)>,
    /// Waiting `(seq, widx)` entries per tenant — what to re-key when the
    /// tenant's virtual time advances, and the admission-control count.
    by_tenant: Vec<Vec<(usize, usize)>>,
    /// The vtime bits each tenant's entries are currently keyed under.
    keyed_vtime: Vec<u64>,
}

impl WaitQueue {
    fn new(tenants: usize) -> Self {
        WaitQueue {
            by_key: std::collections::BTreeSet::new(),
            by_tenant: vec![Vec::new(); tenants],
            keyed_vtime: vec![0.0f64.to_bits(); tenants],
        }
    }

    fn push(&mut self, widx: usize, tenant: usize, seq: usize) {
        self.by_key.insert((self.keyed_vtime[tenant], seq, widx));
        self.by_tenant[tenant].push((seq, widx));
    }

    fn remove(&mut self, widx: usize, tenant: usize, seq: usize) {
        self.by_key.remove(&(self.keyed_vtime[tenant], seq, widx));
        self.by_tenant[tenant].retain(|&(_, w)| w != widx);
    }

    /// Re-key `tenant`'s waiting entries under its new virtual time.
    /// Must be called at every vtime mutation so index order and the
    /// scheduler's `(vtime, seq)` key never drift apart.
    fn retune(&mut self, tenant: usize, vtime: f64) {
        let bits = vtime.to_bits();
        let old = self.keyed_vtime[tenant];
        if bits == old {
            return;
        }
        for &(seq, widx) in &self.by_tenant[tenant] {
            self.by_key.remove(&(old, seq, widx));
            self.by_key.insert((bits, seq, widx));
        }
        self.keyed_vtime[tenant] = bits;
    }

    fn tenant_waiting(&self, tenant: usize) -> usize {
        self.by_tenant[tenant].len()
    }

    fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Job indices in dispatch-key order (least `(vtime, seq)` first).
    fn in_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_key.iter().map(|&(_, _, w)| w)
    }

    /// Job indices in no particular order (for order-insensitive scans).
    fn iter_all(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_tenant.iter().flatten().map(|&(_, w)| w)
    }
}

/// A multi-tenant solver-job server over one device fleet.
pub struct Server {
    fleet: Backend,
    tenants: Vec<TenantSpec>,
    cfg: ServeConfig,
    job_options: SkeletonOptions,
}

impl Server {
    /// Create a server over `fleet` for `tenants`.
    pub fn new(fleet: &Backend, tenants: Vec<TenantSpec>, cfg: ServeConfig) -> Self {
        assert!(!tenants.is_empty(), "server needs at least one tenant");
        Server {
            fleet: fleet.clone(),
            tenants,
            cfg,
            job_options: SkeletonOptions::with_occ(OccLevel::Standard),
        }
    }

    /// Override the skeleton options jobs are compiled with.
    pub fn with_job_options(mut self, options: SkeletonOptions) -> Self {
        self.job_options = options;
        self
    }

    /// The fleet this server schedules onto.
    pub fn fleet(&self) -> &Backend {
        &self.fleet
    }

    /// Serve `requests` to completion (or shedding) and report.
    ///
    /// The whole stream is simulated in one call: arrivals are admitted at
    /// their virtual arrival times, quanta are scheduled by the configured
    /// policy, and the report carries per-request outcomes plus per-tenant
    /// accounting.
    pub fn run(&mut self, requests: Vec<JobRequest>) -> ServeReport {
        for r in &requests {
            assert!(r.tenant < self.tenants.len(), "request for unknown tenant");
            assert!(r.ndev >= 1, "request needs at least one device");
        }
        let run_start = Instant::now();
        let cache_before = neon_core::plan_cache_stats();
        // The interconnect is mutable run state: a fired link fault swaps
        // in the degraded fleet, and every later subset carve sees it.
        let mut fleet = self.fleet.clone();
        let fleet_n = fleet.num_devices();

        // Arrival order (stable on submission index).
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[a]
                .arrival_us
                .partial_cmp(&requests[b].arrival_us)
                .unwrap()
                .then(a.cmp(&b))
        });

        let mut jobs: Vec<JobState> = requests
            .iter()
            .map(|r| JobState {
                req: *r,
                seq: usize::MAX,
                job: None,
                pinned: None,
                phase: Phase::Pending,
                ready_since: r.arrival_us,
                start_us: None,
                finish_us: None,
                queue_wait_us: 0.0,
                first_ndev: None,
                evictions: Vec::new(),
                route: None,
                route_changes: Vec::new(),
            })
            .collect();

        let mut accounts: Vec<TenantAccount> =
            self.tenants.iter().map(TenantAccount::new).collect();
        let mut vtime: Vec<f64> = vec![0.0; self.tenants.len()];
        let mut live_jobs: Vec<usize> = vec![0; self.tenants.len()];

        let mut free_at: Vec<f64> = vec![0.0; fleet_n];
        let mut dead: Vec<bool> = vec![false; fleet_n];
        let mut waiting = WaitQueue::new(self.tenants.len());
        let mut active: Vec<Active> = Vec::new();
        let mut clock: f64 = 0.0;
        let mut next_arrival = 0usize;
        let mut next_seq = 0usize;
        let mut shed = 0u64;
        let mut device_losses = 0u64;
        let mut link_faults = 0u64;
        let mut pending: Vec<FleetFault> = self
            .cfg
            .device_loss
            .map(FleetFault::Device)
            .into_iter()
            .chain(self.cfg.link_fault.map(FleetFault::Link))
            .collect();
        let mut sched_wall = std::time::Duration::ZERO;
        let mut makespan: f64 = 0.0;

        loop {
            // 1. Admit arrivals due at or before the clock.
            while next_arrival < order.len()
                && requests[order[next_arrival]].arrival_us <= clock + EPS
            {
                let widx = order[next_arrival];
                next_arrival += 1;
                let tenant = jobs[widx].req.tenant;
                if waiting.tenant_waiting(tenant) >= self.cfg.queue_capacity {
                    jobs[widx].phase = Phase::Shed;
                    accounts[tenant].jobs_shed += 1;
                    shed += 1;
                    continue;
                }
                jobs[widx].phase = Phase::Waiting;
                jobs[widx].seq = next_seq;
                next_seq += 1;
                jobs[widx].ready_since = jobs[widx].req.arrival_us.max(clock);
                // WFQ floor: a tenant returning from idle must not replay
                // the virtual time it sat out (no service banking).
                if live_jobs[tenant] == 0 {
                    let floor = vtime
                        .iter()
                        .enumerate()
                        .filter(|(u, _)| live_jobs[*u] > 0)
                        .map(|(_, v)| *v)
                        .fold(f64::INFINITY, f64::min);
                    if floor.is_finite() {
                        vtime[tenant] = vtime[tenant].max(floor);
                        waiting.retune(tenant, vtime[tenant]);
                    }
                }
                live_jobs[tenant] += 1;
                waiting.push(widx, tenant, jobs[widx].seq);
            }

            // 2. Fire due faults in configuration order (a device loss
            //    before a link fault due in the same round). Quanta ending
            //    exactly at the fault time commit below only if they were
            //    already due — a tie goes to the fault, which is the
            //    conservative choice: the quantum aborts.
            let (due, later): (Vec<FleetFault>, Vec<FleetFault>) =
                pending.into_iter().partition(|f| f.at_us() <= clock + EPS);
            pending = later;
            for fault in due {
                self.process_fault(
                    fault,
                    clock.min(fault.at_us().max(0.0)),
                    &mut fleet,
                    &mut jobs,
                    &mut accounts,
                    &mut active,
                    &mut waiting,
                    &mut free_at,
                    &mut dead,
                );
                match fault {
                    FleetFault::Device(_) => device_losses += 1,
                    FleetFault::Link(_) => link_faults += 1,
                }
            }

            // 3. Commit quanta that ended by now.
            let mut i = 0;
            while i < active.len() {
                if active[i].end <= clock + EPS {
                    let a = active.swap_remove(i);
                    makespan = makespan.max(a.end);
                    let js = &mut jobs[a.widx];
                    let tenant = js.req.tenant;
                    let job = js.job.as_ref().expect("active job is built");
                    let device_us = (a.end - a.start) * a.devices.len() as f64;
                    accounts[tenant].commit(&a.counters, a.iters_delta, device_us);
                    vtime[tenant] += device_us / self.tenants[tenant].weight;
                    waiting.retune(tenant, vtime[tenant]);
                    if job.is_done() {
                        js.phase = Phase::Done;
                        js.finish_us = Some(a.end);
                        accounts[tenant].jobs_completed += 1;
                        live_jobs[tenant] -= 1;
                    } else {
                        let seq = js.seq;
                        js.phase = Phase::Waiting;
                        js.ready_since = a.end;
                        waiting.push(a.widx, tenant, seq);
                    }
                } else {
                    i += 1;
                }
            }

            // 4. Dispatch while something is both ready and placeable.
            while self.try_dispatch_one(
                clock,
                &fleet,
                &mut jobs,
                &mut accounts,
                &mut waiting,
                &mut active,
                &mut free_at,
                &dead,
                &vtime,
                &pending,
                &mut sched_wall,
            ) {}

            // 5. Done?
            if next_arrival >= order.len() && waiting.is_empty() && active.is_empty() {
                break;
            }

            // 6. Advance the clock to the next event.
            let mut t = f64::INFINITY;
            if next_arrival < order.len() {
                t = t.min(requests[order[next_arrival]].arrival_us);
            }
            for fault in &pending {
                t = t.min(fault.at_us());
            }
            for a in &active {
                t = t.min(a.end);
            }
            if !t.is_finite() {
                // Waiting jobs that can never run (e.g. the whole fleet
                // died). Leave them incomplete rather than spinning.
                break;
            }
            clock = t.max(clock);
        }

        let cache_after = neon_core::plan_cache_stats();
        let outcomes: Vec<JobOutcome> = jobs
            .iter()
            .map(|js| JobOutcome {
                tenant: js.req.tenant,
                spec: js.req.spec,
                ndev: js.req.ndev,
                admitted: js.phase != Phase::Shed && js.phase != Phase::Pending,
                completed: js.phase == Phase::Done,
                result_bits: match (js.phase, &js.job) {
                    (Phase::Done, Some(job)) => Some(job.result_bits()),
                    _ => None,
                },
                arrival_us: js.req.arrival_us,
                start_us: js.start_us,
                finish_us: js.finish_us,
                iterations: js.job.as_ref().map_or(0, |j| j.completed()),
                first_ndev: js.first_ndev,
                evictions: js.evictions.clone(),
                collective_route: js.route,
                route_changes: js.route_changes.clone(),
            })
            .collect();
        for js in &jobs {
            accounts[js.req.tenant].queue_wait_us += js.queue_wait_us;
        }

        ServeReport {
            outcomes,
            tenants: accounts,
            makespan: SimTime::from_us(makespan),
            shed,
            device_losses,
            link_faults,
            sched_wall_us: sched_wall.as_secs_f64() * 1e6,
            total_wall_us: run_start.elapsed().as_secs_f64() * 1e6,
            cache_hits: cache_after.hits - cache_before.hits,
            cache_misses: cache_after.misses - cache_before.misses,
        }
    }

    /// Pick and dispatch at most one quantum at `clock`. Returns whether a
    /// dispatch happened.
    #[allow(clippy::too_many_arguments)]
    fn try_dispatch_one(
        &self,
        clock: f64,
        fleet: &Backend,
        jobs: &mut [JobState],
        accounts: &mut [TenantAccount],
        waiting: &mut WaitQueue,
        active: &mut Vec<Active>,
        free_at: &mut [f64],
        dead: &[bool],
        vtime: &[f64],
        pending: &[FleetFault],
        sched_wall: &mut std::time::Duration,
    ) -> bool {
        let sched_start = Instant::now();
        let alive: Vec<usize> = (0..free_at.len()).filter(|&d| !dead[d]).collect();
        let free_now =
            |d: usize, free_at: &[f64]| -> bool { !dead[d] && free_at[d] <= clock + EPS };

        let placeable = |js: &JobState, free_at: &[f64]| -> bool {
            match &js.pinned {
                Some(p) => p.iter().all(|&d| free_now(d, free_at)),
                None => {
                    let want = js.req.ndev.min(alive.len());
                    want >= 1 && alive.iter().filter(|&&d| free_now(d, free_at)).count() >= want
                }
            }
        };

        let pick: Option<usize> = match self.cfg.policy {
            SchedPolicy::FifoExclusive => {
                // One job at a time, strict arrival order: the head of the
                // queue runs to completion before anything else starts.
                if active.is_empty() && !alive.is_empty() {
                    waiting
                        .iter_all()
                        .min_by_key(|&w| jobs[w].seq)
                        .filter(|&w| placeable(&jobs[w], free_at))
                } else {
                    None
                }
            }
            SchedPolicy::WeightedFair => {
                // First placeable entry in index order — identical to the
                // old linear `min_by((vtime[tenant], seq))` scan, since the
                // index keys under exactly that pair and `retune` keeps the
                // keys synced with `vtime`.
                let pick = waiting.in_order().find(|&w| placeable(&jobs[w], free_at));
                debug_assert_eq!(
                    pick,
                    waiting
                        .iter_all()
                        .filter(|&w| placeable(&jobs[w], free_at))
                        .min_by(|&a, &b| {
                            let ka = (vtime[jobs[a].req.tenant], jobs[a].seq);
                            let kb = (vtime[jobs[b].req.tenant], jobs[b].seq);
                            ka.partial_cmp(&kb).unwrap()
                        }),
                    "ordered index must reproduce the linear-scan pick"
                );
                pick
            }
        };
        *sched_wall += sched_start.elapsed();
        let Some(widx) = pick else {
            return false;
        };

        // Pin a subset at first dispatch: the lowest-indexed alive free
        // devices (jobs keep their subset for data affinity; overlapping
        // pins time-share, disjoint pins space-share).
        let sched_start = Instant::now();
        if jobs[widx].pinned.is_none() {
            let want = jobs[widx].req.ndev.min(alive.len());
            let mut choice: Vec<usize> = alive
                .iter()
                .copied()
                .filter(|&d| free_now(d, free_at))
                .collect();
            choice.truncate(want);
            choice.sort_unstable();
            jobs[widx].pinned = Some(choice);
        }
        let devices = jobs[widx].pinned.clone().expect("pinned above");
        *sched_wall += sched_start.elapsed();

        // Build the solver on the subset backend (first dispatch only);
        // compiles go through the shared plan cache.
        if jobs[widx].job.is_none() {
            let subset: Vec<DeviceId> = devices.iter().map(|&d| DeviceId(d)).collect();
            let backend = fleet.with_devices(&subset).expect("pinned subset is valid");
            let job = jobs[widx]
                .req
                .spec
                .build(&backend, self.job_options)
                .expect("job construction on subset backend");
            jobs[widx].first_ndev = Some(job.num_devices());
            jobs[widx].route = Some(collective_route(&jobs[widx].req.spec, &backend));
            jobs[widx].job = Some(job);
            jobs[widx].start_us = Some(clock);
        }

        let span = match self.cfg.policy {
            SchedPolicy::FifoExclusive => u64::MAX,
            SchedPolicy::WeightedFair => self.cfg.quantum_iters.max(1),
        };
        let js = &mut jobs[widx];
        let job = js.job.as_mut().expect("built above");
        // Checkpoint iff a pending fault could abort this quantum — the
        // abort path rolls back to the quantum start.
        let cp = if pending.iter().any(|f| f.hits(&devices)) {
            Some(job.capture())
        } else {
            None
        };
        // A capture stages the job's write set to the host, and the
        // devices stall on the staging link while it runs: the cost lands
        // on the quantum's virtual makespan (and hence the tenant's WFQ
        // virtual time at commit), not on some global overhead bucket.
        let cp_us = cp.as_ref().map_or(0.0, |c| {
            let bytes = c.bytes();
            let us = fleet.topology().host_transfer_time(bytes).as_us();
            let t = &mut accounts[js.req.tenant];
            t.checkpoint_bytes += bytes;
            t.checkpoint_us += us;
            us
        });
        let iters_before = job.completed();
        let report = job.advance(span);
        let iters_delta = job.completed() - iters_before;
        debug_assert!(iters_delta > 0, "a quantum must commit progress");
        let end = clock + cp_us + report.makespan.as_us().max(1e-6);

        js.queue_wait_us += clock - js.ready_since;
        js.phase = Phase::Running;
        let (tenant, seq) = (js.req.tenant, js.seq);
        waiting.remove(widx, tenant, seq);
        for &d in &devices {
            free_at[d] = end;
        }
        active.push(Active {
            widx,
            devices,
            start: clock,
            end,
            iters_delta,
            counters: report.counters,
            cp,
        });
        true
    }

    /// Apply one fleet fault: mark the lost device dead or heal the fleet
    /// interconnect, abort the in-flight quanta the fault hits, and re-plan
    /// every waiting job pinned across it. Jobs the fault does not hit keep
    /// their plans (and plan-cache entries) untouched: a subset that never
    /// contained the wire carves a topology the fault did not change.
    #[allow(clippy::too_many_arguments)]
    fn process_fault(
        &self,
        fault: FleetFault,
        at: f64,
        fleet: &mut Backend,
        jobs: &mut [JobState],
        accounts: &mut [TenantAccount],
        active: &mut Vec<Active>,
        waiting: &mut WaitQueue,
        free_at: &mut [f64],
        dead: &mut [bool],
    ) {
        let n = fleet.num_devices();
        match fault {
            FleetFault::Device(l) => {
                if l.device >= n || dead[l.device] {
                    return;
                }
                dead[l.device] = true;
            }
            FleetFault::Link(f) => {
                let (s, d) = (DeviceId(f.src), DeviceId(f.dst));
                let link = match f.factor {
                    None => PermanentFault::LinkLoss(s, d),
                    Some(factor) => PermanentFault::LinkDegrade(s, d, factor),
                };
                // Whole-fleet plans keyed on the healthy interconnect are
                // dropped here; subset plans key on the *subset*
                // fingerprint and are rebuilt below only when the subset
                // actually contained the wire. A fault naming no valid
                // wire is ignored.
                let Ok(healed) = heal_backend(fleet, link) else {
                    return;
                };
                invalidate_backend(fleet.fingerprint());
                *fleet = healed;
            }
        }

        // Abort in-flight quanta the fault hits: roll back to the
        // quantum-start checkpoint, free their surviving devices at the
        // fault time, charge the wasted device-time.
        let mut i = 0;
        while i < active.len() {
            if fault.hits(&active[i].devices) {
                let a = active.swap_remove(i);
                let js = &mut jobs[a.widx];
                let cp = a.cp.expect("fault was armed, checkpoint captured");
                js.job.as_mut().expect("active job is built").restore(&cp);
                accounts[js.req.tenant].wasted_device_us +=
                    (at - a.start).max(0.0) * a.devices.len() as f64;
                for &d in &a.devices {
                    if !dead[d] {
                        free_at[d] = at;
                    }
                }
                let (tenant, seq) = (js.req.tenant, js.seq);
                js.phase = Phase::Waiting;
                js.ready_since = at;
                waiting.push(a.widx, tenant, seq);
            } else {
                i += 1;
            }
        }

        // Re-plan every waiting job the fault hits and rebuild it on the
        // new subset backend. A device loss re-pins (scheduler policy, see
        // `replacement_pins`) and is recorded as an eviction; a link fault
        // keeps the pins, re-times every transfer and may flip the
        // collective route, which is recorded.
        for js in jobs.iter_mut() {
            if js.phase != Phase::Waiting {
                continue;
            }
            let Some(pinned) = &js.pinned else { continue };
            if !fault.hits(pinned) {
                continue;
            }
            let new_pinned = match fault {
                FleetFault::Device(l) => replacement_pins(pinned, l.device, dead, free_at),
                FleetFault::Link(_) => pinned.clone(),
            };
            let subset: Vec<DeviceId> = new_pinned.iter().map(|&d| DeviceId(d)).collect();
            let backend = fleet
                .with_devices(&subset)
                .expect("re-planned subset is valid");
            let job = js.job.as_mut().expect("pinned implies built");
            job.rebuild(&backend)
                .expect("rebuild onto the re-planned subset");
            let route = collective_route(&js.req.spec, &backend);
            if let FleetFault::Device(_) = fault {
                js.evictions.push(EvictionEvent {
                    at_iteration: job.completed(),
                    from_ndev: pinned.len(),
                    to_ndev: new_pinned.len(),
                });
            } else if let Some(from) = js.route.filter(|&r| r != route) {
                js.route_changes.push(RouteChange {
                    at_iteration: job.completed(),
                    from,
                    to: route,
                });
            }
            js.route = Some(route);
            js.pinned = Some(new_pinned);
        }
    }
}

/// The subset a job pinned to the lost device `lost` moves to: it keeps its
/// surviving slots and tops up with the least-loaded alive spares — same
/// size while the fleet still has enough devices, smaller otherwise.
/// Equal-size subsets share a backend fingerprint, so the rebuild is
/// normally a plan-cache hit, not a fresh compile.
fn replacement_pins(pinned: &[usize], lost: usize, dead: &[bool], free_at: &[f64]) -> Vec<usize> {
    let alive_count = dead.iter().filter(|&&x| !x).count();
    let size = pinned.len().min(alive_count).max(1);
    let survivors: Vec<usize> = pinned.iter().copied().filter(|&d| d != lost).collect();
    let mut spares: Vec<usize> = (0..dead.len())
        .filter(|&d| !dead[d] && !survivors.contains(&d))
        .collect();
    spares.sort_by(|&a, &b| free_at[a].partial_cmp(&free_at[b]).unwrap().then(a.cmp(&b)));
    let mut new_pinned = survivors;
    new_pinned.extend(spares.into_iter().take(size - new_pinned.len().min(size)));
    new_pinned.sort_unstable();
    new_pinned.truncate(size);
    new_pinned
}

/// Replay one job solo — same spec, a subset of `ndev` devices, the same
/// forced-migration history — and return its result fingerprint. This is
/// the bit-identity oracle: a multiplexed job's `result_bits` must equal
/// its solo replay's, preemption or not, device loss or not.
pub fn solo_run_bits(
    fleet: &Backend,
    spec: JobSpec,
    ndev: usize,
    options: SkeletonOptions,
    evictions: &[EvictionEvent],
) -> Result<u64> {
    let n = ndev.clamp(1, fleet.num_devices());
    let subset: Vec<DeviceId> = (0..n).map(DeviceId).collect();
    let backend = fleet.with_devices(&subset)?;
    let mut job = spec.build(&backend, options)?;
    for ev in evictions {
        debug_assert!(ev.at_iteration >= job.completed());
        job.advance(ev.at_iteration - job.completed());
        let sub: Vec<DeviceId> = (0..ev.to_ndev.clamp(1, fleet.num_devices()))
            .map(DeviceId)
            .collect();
        job.rebuild(&fleet.with_devices(&sub)?)?;
    }
    job.advance(job.total().saturating_sub(job.completed()));
    Ok(job.result_bits())
}
