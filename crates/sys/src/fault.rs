//! Deterministic fault injection for the simulated runtime.
//!
//! A production multi-GPU system must survive transient kernel launch
//! failures, corrupted transfers and permanent device loss. The simulated
//! backend is the ideal place to *model* those events: a [`FaultPlan`]
//! schedules faults by `iteration × device × span kind × occurrence`, and a
//! [`FaultInjector`] delivers them deterministically — the same plan against
//! the same program always fires at the same operations, so recovery paths
//! can be pinned bit-for-bit against fault-free runs.
//!
//! ## Fault taxonomy
//!
//! * **Transient kernel fault** — a launch fails before any side effect
//!   (CUDA's `ERROR_LAUNCH_FAILED` at submit time). The retrying executor
//!   re-launches after an exponential backoff; each failed attempt costs the
//!   kernel's duration plus the backoff on the virtual clock.
//! * **Transient transfer fault** — a halo payload arrives corrupted and is
//!   dropped at the receiver before commit (checksum model), then re-sent.
//!   Like a failed launch it has no data side effect; only the clock and the
//!   counters see it.
//! * **Permanent device loss** — from the given iteration on, the device is
//!   gone. The injector reports it at the iteration boundary (before any
//!   partial mutation) and keeps reporting it until the executor is rebuilt
//!   for the surviving devices.
//!
//! A transient fault *escapes* retry when its configured consecutive failure
//! count reaches the policy's attempt bound. Escaped faults abort the
//! iteration mid-flight — the self-healing layer rolls back to the last
//! checkpoint. A spec fires at most once: replaying the iteration after a
//! rollback finds the fault consumed, which is exactly what "transient"
//! means.
//!
//! Occurrence counting is **per device per kind per iteration** and is kept
//! identical between the virtual-timing replay and the functional replay
//! (both walk a device's kernels / halo pulls in schedule order and skip
//! empty partitions), so a single plan drives both facets coherently.

use std::sync::{Arc, Mutex};

use crate::clock::SimTime;
use crate::device::DeviceId;

/// The kinds of operations a transient fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSiteKind {
    /// A compute kernel launch.
    Kernel,
    /// A halo transfer (all pulls into one destination device count as one
    /// occurrence — the granularity at which the functional replay retries).
    Transfer,
    /// A collective step transfer on an inter-device link (each chunk sent
    /// toward a destination rank counts as one occurrence — the granularity
    /// at which the collective engine retries).
    Link,
}

impl FaultSiteKind {
    /// Dense index used for per-device occurrence counters.
    pub(crate) fn slot(self) -> usize {
        match self {
            FaultSiteKind::Kernel => 0,
            FaultSiteKind::Transfer => 1,
            FaultSiteKind::Link => 2,
        }
    }
}

impl std::fmt::Display for FaultSiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultSiteKind::Kernel => "kernel",
            FaultSiteKind::Transfer => "transfer",
            FaultSiteKind::Link => "link",
        })
    }
}

/// Where a fault fires: the `nth` operation of `kind` on `device` within
/// `iteration` (all counters are per-iteration, per-device, per-kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Logical solver iteration (the executor numbers executions).
    pub iteration: u64,
    /// Target device.
    pub device: DeviceId,
    /// Targeted operation kind.
    pub kind: FaultSiteKind,
    /// Zero-based occurrence index within the iteration.
    pub nth: u32,
}

/// One scheduled transient fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Where the fault fires.
    pub site: FaultSite,
    /// Consecutive failed attempts the operation suffers before it would
    /// succeed. `fails >= RetryPolicy::max_attempts` means the fault escapes
    /// retry and forces a rollback.
    pub fails: u32,
}

/// A permanent interconnect event: from `iteration` on, the peer link
/// between `src` and `dst` is severed (`factor == None`) or degraded to
/// the given fraction of its bandwidth (`factor == Some(f)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEvent {
    /// First iteration at which the event is reported.
    pub iteration: u64,
    /// One end of the affected link.
    pub src: DeviceId,
    /// The other end of the affected link.
    pub dst: DeviceId,
    /// `None` = the wire is gone; `Some(f)` = bandwidth drops to `f`.
    pub factor: Option<f64>,
}

/// A permanent fault reported at an iteration boundary. Permanent faults
/// keep being reported until the caller rebuilds the executor for the
/// degraded hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PermanentFault {
    /// The device is gone for good (evict + repartition to heal).
    DeviceLoss(DeviceId),
    /// The peer link between the pair is gone for good (recompile on
    /// [`crate::topology::Topology::without_link`] to heal).
    LinkLoss(DeviceId, DeviceId),
    /// The peer link between the pair runs at the given fraction of its
    /// bandwidth from now on (recompile on
    /// [`crate::topology::Topology::with_degraded_link`] to heal).
    LinkDegrade(DeviceId, DeviceId, f64),
}

impl std::fmt::Display for PermanentFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PermanentFault::DeviceLoss(d) => write!(f, "permanent loss of device {}", d.0),
            PermanentFault::LinkLoss(s, d) => {
                write!(f, "permanent loss of link {}<->{}", s.0, d.0)
            }
            PermanentFault::LinkDegrade(s, d, x) => {
                write!(f, "link {}<->{} degraded to {x} of its bandwidth", s.0, d.0)
            }
        }
    }
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    transients: Vec<FaultSpec>,
    loss: Option<(u64, DeviceId)>,
    link_event: Option<LinkEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.transients.is_empty() && self.loss.is_none() && self.link_event.is_none()
    }

    /// Schedule a transient kernel fault.
    pub fn with_kernel_fault(
        mut self,
        iteration: u64,
        device: DeviceId,
        nth: u32,
        fails: u32,
    ) -> Self {
        self.transients.push(FaultSpec {
            site: FaultSite {
                iteration,
                device,
                kind: FaultSiteKind::Kernel,
                nth,
            },
            fails: fails.max(1),
        });
        self
    }

    /// Schedule a transient (corrupted, dropped-before-commit) transfer.
    pub fn with_transfer_fault(
        mut self,
        iteration: u64,
        device: DeviceId,
        nth: u32,
        fails: u32,
    ) -> Self {
        self.transients.push(FaultSpec {
            site: FaultSite {
                iteration,
                device,
                kind: FaultSiteKind::Transfer,
                nth,
            },
            fails: fails.max(1),
        });
        self
    }

    /// Schedule a transient (corrupted chunk, dropped-before-commit)
    /// collective link transfer: the `nth` chunk sent toward destination
    /// rank `device` within `iteration`.
    pub fn with_link_fault(
        mut self,
        iteration: u64,
        device: DeviceId,
        nth: u32,
        fails: u32,
    ) -> Self {
        self.transients.push(FaultSpec {
            site: FaultSite {
                iteration,
                device,
                kind: FaultSiteKind::Link,
                nth,
            },
            fails: fails.max(1),
        });
        self
    }

    /// Schedule a permanent device loss at the start of `iteration`.
    pub fn with_device_loss(mut self, iteration: u64, device: DeviceId) -> Self {
        self.loss = Some((iteration, device));
        self
    }

    /// Schedule a permanent link loss (both directions) at the start of
    /// `iteration`.
    pub fn with_link_loss(mut self, iteration: u64, src: DeviceId, dst: DeviceId) -> Self {
        self.link_event = Some(LinkEvent {
            iteration,
            src,
            dst,
            factor: None,
        });
        self
    }

    /// Schedule a permanent link degrade to `factor` of its bandwidth
    /// (both directions) at the start of `iteration`.
    pub fn with_link_degrade(
        mut self,
        iteration: u64,
        src: DeviceId,
        dst: DeviceId,
        factor: f64,
    ) -> Self {
        self.link_event = Some(LinkEvent {
            iteration,
            src,
            dst,
            factor: Some(factor),
        });
        self
    }

    /// The scheduled device loss, if any.
    pub fn device_loss(&self) -> Option<(u64, DeviceId)> {
        self.loss
    }

    /// The scheduled permanent link event, if any.
    pub fn link_event(&self) -> Option<LinkEvent> {
        self.link_event
    }

    /// The scheduled transient faults.
    pub fn transients(&self) -> &[FaultSpec] {
        &self.transients
    }

    /// A seeded pseudo-random plan: `n_faults` transient faults spread over
    /// `iterations` iterations and `devices` devices (xorshift64*, fully
    /// deterministic — the shrink-free property harness relies on it).
    pub fn seeded(seed: u64, iterations: u64, devices: usize, n_faults: usize) -> Self {
        // splitmix64-style scramble so nearby seeds diverge fully.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state |= 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut plan = FaultPlan::none();
        for _ in 0..n_faults {
            let iteration = next() % iterations.max(1);
            let device = DeviceId((next() % devices.max(1) as u64) as usize);
            let nth = (next() % 4) as u32;
            let fails = 1 + (next() % 2) as u32;
            plan = if next() % 2 == 0 {
                plan.with_kernel_fault(iteration, device, nth, fails)
            } else {
                plan.with_transfer_fault(iteration, device, nth, fails)
            };
        }
        plan
    }

    /// [`FaultPlan::seeded`] with the link fault domain in the mix: each
    /// transient is a kernel, halo-transfer or collective-link fault with
    /// equal probability (same deterministic generator family).
    pub fn seeded_with_links(seed: u64, iterations: u64, devices: usize, n_faults: usize) -> Self {
        let mut state = seed.wrapping_add(0xD1B5_4A32_D192_ED03);
        state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state |= 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut plan = FaultPlan::none();
        for _ in 0..n_faults {
            let iteration = next() % iterations.max(1);
            let device = DeviceId((next() % devices.max(1) as u64) as usize);
            let nth = (next() % 4) as u32;
            let fails = 1 + (next() % 2) as u32;
            plan = match next() % 3 {
                0 => plan.with_kernel_fault(iteration, device, nth, fails),
                1 => plan.with_transfer_fault(iteration, device, nth, fails),
                _ => plan.with_link_fault(iteration, device, nth, fails),
            };
        }
        plan
    }
}

/// Bounded-retry policy applied to transient faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per operation, including the first
    /// (`1` disables retry: any fault escapes immediately).
    pub max_attempts: u32,
    /// Base backoff before the first re-attempt; doubles per retry.
    pub backoff: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: SimTime::from_us(50.0),
        }
    }
}

impl RetryPolicy {
    /// Virtual time spent in backoff across `failed` consecutive failures
    /// (exponential: `backoff · (2^failed - 1)`).
    pub fn backoff_total(&self, failed: u32) -> SimTime {
        let factor = (1u64 << failed.min(16)) - 1;
        SimTime::from_us(self.backoff.as_us() * factor as f64)
    }
}

/// Lifetime counters of an injector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events delivered (transient specs fired + device losses).
    pub injected: u64,
    /// Transient faults that retry absorbed.
    pub recovered: u64,
    /// Re-attempts made (failed launches / transfers that were retried).
    pub retries: u64,
    /// Transient faults that escaped the attempt bound (forced rollbacks).
    pub escaped: u64,
}

impl std::ops::Add for FaultStats {
    type Output = FaultStats;

    /// Sum of two counter sets (counters of executors discarded by a
    /// rebuild plus those of the live one).
    fn add(self, other: FaultStats) -> FaultStats {
        FaultStats {
            injected: self.injected + other.injected,
            recovered: self.recovered + other.recovered,
            retries: self.retries + other.retries,
            escaped: self.escaped + other.escaped,
        }
    }
}

impl std::ops::AddAssign for FaultStats {
    fn add_assign(&mut self, other: FaultStats) {
        *self = *self + other;
    }
}

/// What the injector decided for one observed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// No fault scheduled here.
    Clean,
    /// The operation failed `failed_attempts` times, then succeeded on a
    /// retry within the attempt bound.
    Recovered {
        /// Number of failed attempts absorbed.
        failed_attempts: u32,
    },
    /// Every allowed attempt failed; the iteration must abort and roll back.
    Escaped {
        /// Number of failed attempts (= the policy's attempt bound).
        failed_attempts: u32,
    },
}

struct InjectorState {
    iteration: u64,
    /// Per-device `[kernel, transfer, link]` occurrence counters, reset
    /// each iteration.
    seen: Vec<[u32; 3]>,
    /// One flag per plan spec: a spec fires at most once.
    consumed: Vec<bool>,
    /// The site whose fault escaped retry in the current iteration, if any
    /// (the functional replay aborts exactly there).
    escape: Option<FaultSite>,
    loss_reported: bool,
    link_reported: bool,
    stats: FaultStats,
}

/// Delivers a [`FaultPlan`] deterministically. Shared (`Arc`) between the
/// virtual-clock queue and the executor; interior mutability keeps the
/// consult sites cheap.
pub struct FaultInjector {
    plan: FaultPlan,
    policy: RetryPolicy,
    state: Mutex<InjectorState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("policy", &self.policy)
            .finish()
    }
}

impl FaultInjector {
    /// Build an injector for `devices` devices.
    pub fn new(plan: FaultPlan, policy: RetryPolicy, devices: usize) -> Arc<Self> {
        let consumed = vec![false; plan.transients.len()];
        Arc::new(FaultInjector {
            plan,
            policy,
            state: Mutex::new(InjectorState {
                iteration: 0,
                seen: vec![[0, 0, 0]; devices],
                consumed,
                escape: None,
                loss_reported: false,
                link_reported: false,
                stats: FaultStats::default(),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The retry policy faults are judged against.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The plan being delivered.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Start logical iteration `iter`: reset occurrence counters, clear
    /// the escape marker, and report a scheduled permanent fault once its
    /// iteration is reached. Permanent faults keep being reported on every
    /// later call until the caller rebuilds for the degraded hardware
    /// (device loss: surviving devices; link loss/degrade: the mutated
    /// topology). A device loss outranks a link event due at the same
    /// iteration — the dead device subsumes its links.
    pub fn begin_iteration(&self, iter: u64) -> Result<(), PermanentFault> {
        let mut st = self.lock();
        if let Some((at, dev)) = self.plan.loss {
            if iter >= at {
                if !st.loss_reported {
                    st.loss_reported = true;
                    st.stats.injected += 1;
                }
                return Err(PermanentFault::DeviceLoss(dev));
            }
        }
        if let Some(ev) = self.plan.link_event {
            if iter >= ev.iteration {
                if !st.link_reported {
                    st.link_reported = true;
                    st.stats.injected += 1;
                }
                return Err(match ev.factor {
                    None => PermanentFault::LinkLoss(ev.src, ev.dst),
                    Some(f) => PermanentFault::LinkDegrade(ev.src, ev.dst, f),
                });
            }
        }
        st.iteration = iter;
        for s in &mut st.seen {
            *s = [0, 0, 0];
        }
        st.escape = None;
        Ok(())
    }

    /// Observe one operation on `device` and return the fault verdict.
    /// Called from the virtual-timing replay (single-threaded), which keeps
    /// the occurrence order deterministic.
    pub fn observe(&self, device: DeviceId, kind: FaultSiteKind) -> FaultVerdict {
        let mut st = self.lock();
        // Once a fault escapes, the iteration is doomed: the rest of it is
        // never executed functionally, so later operations must not consume
        // specs (the rollback's clean re-run would otherwise diverge from a
        // fault-free run).
        if st.escape.is_some() {
            return FaultVerdict::Clean;
        }
        let slot = kind.slot();
        let nth = st.seen[device.0][slot];
        st.seen[device.0][slot] += 1;
        let iteration = st.iteration;
        let hit = self.plan.transients.iter().enumerate().find(|(i, s)| {
            !st.consumed[*i]
                && s.site.iteration == iteration
                && s.site.device == device
                && s.site.kind == kind
                && s.site.nth == nth
        });
        let (idx, spec) = match hit {
            Some((i, s)) => (i, *s),
            None => return FaultVerdict::Clean,
        };
        st.consumed[idx] = true;
        st.stats.injected += 1;
        if spec.fails >= self.policy.max_attempts {
            let failed = self.policy.max_attempts;
            st.stats.retries += u64::from(failed.saturating_sub(1));
            st.stats.escaped += 1;
            st.escape = Some(spec.site);
            FaultVerdict::Escaped {
                failed_attempts: failed,
            }
        } else {
            st.stats.retries += u64::from(spec.fails);
            st.stats.recovered += 1;
            FaultVerdict::Recovered {
                failed_attempts: spec.fails,
            }
        }
    }

    /// The site whose fault escaped retry in the current iteration, if any.
    pub fn escape_site(&self) -> Option<FaultSite> {
        self.lock().escape
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FaultStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_observes_clean() {
        let inj = FaultInjector::new(FaultPlan::none(), RetryPolicy::default(), 2);
        inj.begin_iteration(0).unwrap();
        assert_eq!(
            inj.observe(DeviceId(0), FaultSiteKind::Kernel),
            FaultVerdict::Clean
        );
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn transient_fault_fires_at_exact_site_and_only_once() {
        let plan = FaultPlan::none().with_kernel_fault(1, DeviceId(1), 2, 1);
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 2);
        // Iteration 0: nothing.
        inj.begin_iteration(0).unwrap();
        for _ in 0..4 {
            assert_eq!(
                inj.observe(DeviceId(1), FaultSiteKind::Kernel),
                FaultVerdict::Clean
            );
        }
        // Iteration 1: third kernel on device 1 fails once, recovers.
        inj.begin_iteration(1).unwrap();
        assert_eq!(
            inj.observe(DeviceId(1), FaultSiteKind::Kernel),
            FaultVerdict::Clean
        );
        assert_eq!(
            inj.observe(DeviceId(1), FaultSiteKind::Kernel),
            FaultVerdict::Clean
        );
        assert_eq!(
            inj.observe(DeviceId(1), FaultSiteKind::Kernel),
            FaultVerdict::Recovered { failed_attempts: 1 }
        );
        // Replaying the iteration: the spec is consumed — transient.
        inj.begin_iteration(1).unwrap();
        for _ in 0..4 {
            assert_eq!(
                inj.observe(DeviceId(1), FaultSiteKind::Kernel),
                FaultVerdict::Clean
            );
        }
        let s = inj.stats();
        assert_eq!(s.injected, 1);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.escaped, 0);
    }

    #[test]
    fn exhausted_retries_escape_and_mark_the_site() {
        let plan = FaultPlan::none().with_transfer_fault(0, DeviceId(0), 0, 99);
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 1);
        inj.begin_iteration(0).unwrap();
        assert_eq!(
            inj.observe(DeviceId(0), FaultSiteKind::Transfer),
            FaultVerdict::Escaped { failed_attempts: 3 }
        );
        let site = inj.escape_site().expect("escape recorded");
        assert_eq!(site.kind, FaultSiteKind::Transfer);
        assert_eq!(site.nth, 0);
        // The escape marker clears at the next iteration boundary.
        inj.begin_iteration(1).unwrap();
        assert!(inj.escape_site().is_none());
        assert_eq!(inj.stats().escaped, 1);
    }

    #[test]
    fn device_loss_is_permanent_and_counted_once() {
        let plan = FaultPlan::none().with_device_loss(3, DeviceId(2));
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 4);
        assert!(inj.begin_iteration(2).is_ok());
        assert_eq!(
            inj.begin_iteration(3),
            Err(PermanentFault::DeviceLoss(DeviceId(2)))
        );
        assert_eq!(
            inj.begin_iteration(4),
            Err(PermanentFault::DeviceLoss(DeviceId(2)))
        );
        assert_eq!(inj.stats().injected, 1);
    }

    #[test]
    fn link_events_are_permanent_and_counted_once() {
        let plan = FaultPlan::none().with_link_loss(2, DeviceId(0), DeviceId(1));
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 4);
        assert!(inj.begin_iteration(1).is_ok());
        assert_eq!(
            inj.begin_iteration(2),
            Err(PermanentFault::LinkLoss(DeviceId(0), DeviceId(1)))
        );
        assert_eq!(
            inj.begin_iteration(5),
            Err(PermanentFault::LinkLoss(DeviceId(0), DeviceId(1)))
        );
        assert_eq!(inj.stats().injected, 1);

        let plan = FaultPlan::none().with_link_degrade(1, DeviceId(2), DeviceId(3), 0.5);
        assert!(!plan.is_empty());
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 4);
        assert_eq!(
            inj.begin_iteration(1),
            Err(PermanentFault::LinkDegrade(DeviceId(2), DeviceId(3), 0.5))
        );
    }

    #[test]
    fn device_loss_outranks_link_event() {
        let plan = FaultPlan::none()
            .with_device_loss(1, DeviceId(0))
            .with_link_loss(1, DeviceId(1), DeviceId(2));
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 4);
        assert_eq!(
            inj.begin_iteration(1),
            Err(PermanentFault::DeviceLoss(DeviceId(0)))
        );
    }

    #[test]
    fn link_transients_count_independently_of_transfers() {
        let plan = FaultPlan::none().with_link_fault(0, DeviceId(1), 1, 1);
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 2);
        inj.begin_iteration(0).unwrap();
        // A halo transfer on the same device does not advance the link
        // occurrence counter.
        assert_eq!(
            inj.observe(DeviceId(1), FaultSiteKind::Transfer),
            FaultVerdict::Clean
        );
        assert_eq!(
            inj.observe(DeviceId(1), FaultSiteKind::Link),
            FaultVerdict::Clean
        );
        assert_eq!(
            inj.observe(DeviceId(1), FaultSiteKind::Link),
            FaultVerdict::Recovered { failed_attempts: 1 }
        );
        assert_eq!(inj.stats().recovered, 1);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 10, 4, 5);
        let b = FaultPlan::seeded(42, 10, 4, 5);
        let c = FaultPlan::seeded(43, 10, 4, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.transients().len(), 5);
        assert_eq!(
            FaultPlan::seeded_with_links(42, 10, 4, 12),
            FaultPlan::seeded_with_links(42, 10, 4, 12)
        );
        // The link-domain generator does produce link sites.
        assert!(FaultPlan::seeded_with_links(42, 10, 4, 12)
            .transients()
            .iter()
            .any(|s| s.site.kind == FaultSiteKind::Link));
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff: SimTime::from_us(10.0),
        };
        assert_eq!(p.backoff_total(0).as_us(), 0.0);
        assert_eq!(p.backoff_total(1).as_us(), 10.0);
        assert_eq!(p.backoff_total(2).as_us(), 30.0);
        assert_eq!(p.backoff_total(3).as_us(), 70.0);
    }
}
