//! The recovery supervisor: one loop that drives anything recoverable
//! through every fault tier.
//!
//! | Tier | Trigger | Action |
//! |------|---------|--------|
//! | 1. retry | a transient fault within the attempt bound | re-attempt inside the executor (virtual time only) |
//! | 2. rollback | [`ExecError::TransientFaultEscaped`] | restore the last checkpoint and replay |
//! | 3. link repair | [`ExecError::Permanent`] with a link loss or degrade | restore, heal the backend, rebuild on it |
//! | 4. eviction | [`ExecError::Permanent`] with a device loss | restore, evict the device, rebuild on the survivors |
//!
//! Tier 1 lives in the executor and never surfaces here. Tiers 2–4 share
//! one path: every failed step restores the last checkpoint; a permanent
//! fault then heals the backend ([`heal_backend`]) and the target rebuilds
//! on it — a fresh compile plus a state transcription through logical
//! coordinates, so recompilation *is* the recovery path. A [`Skeleton`]
//! cannot rebuild (its containers are bound to the old grid), so on a raw
//! skeleton a permanent fault returns the error after the restore, and
//! the plan cache keeps the skeleton's plans.
//!
//! An iteration is a pure function of the end-of-iteration state a
//! checkpoint holds, so rolled-back and link-repaired runs are
//! bit-identical to fault-free runs, and an evicted run is bit-identical
//! to one that called [`Supervisor::heal`] at the checkpoint it resumed
//! from.

use neon_set::Checkpoint;
use neon_sys::{Backend, FaultStats, NeonSysError, PermanentFault};

use crate::exec::{ExecError, ExecReport};
use crate::plan::invalidate_backend;
use crate::skeleton::Skeleton;

/// Something the supervisor can checkpoint, step and rebuild.
pub trait Recoverable {
    /// Logical iteration the next step runs (the coordinate fault plans
    /// target).
    fn iteration(&self) -> u64;

    /// Snapshot the full iteration state at the current boundary.
    fn capture(&mut self) -> Checkpoint;

    /// Roll state and iteration back to `cp`.
    fn restore(&mut self, cp: &Checkpoint);

    /// Run logical iteration [`Recoverable::iteration`] once; on success
    /// the iteration advances by one, on failure it stays put.
    fn try_step(&mut self) -> Result<ExecReport, ExecError>;

    /// The backend the target currently runs on.
    fn backend(&self) -> &Backend;

    /// Rebuild on `backend` (fresh compile), carrying the current state and
    /// iteration over. An installed fault plan is dropped: eviction
    /// renumbers the devices it addresses, and a permanent event would
    /// re-fire against the repaired hardware.
    fn rebuild(&mut self, backend: &Backend) -> neon_sys::Result<()>;

    /// Fault counters of the current executors (reset by a rebuild).
    fn fault_stats(&self) -> FaultStats;

    /// Committed iterations between checkpoints
    /// ([`crate::ResilienceOptions::checkpoint_interval`] of the target's
    /// options).
    fn checkpoint_interval(&self) -> u32;
}

impl Recoverable for Skeleton {
    fn iteration(&self) -> u64 {
        self.executor().logical_iteration()
    }

    fn capture(&mut self) -> Checkpoint {
        self.capture_checkpoint(self.iteration())
    }

    fn restore(&mut self, cp: &Checkpoint) {
        cp.restore();
        self.set_logical_iteration(cp.iteration());
    }

    fn try_step(&mut self) -> Result<ExecReport, ExecError> {
        self.try_run()
    }

    fn backend(&self) -> &Backend {
        self.executor().backend()
    }

    fn rebuild(&mut self, _backend: &Backend) -> neon_sys::Result<()> {
        let what = format!("skeleton '{}' cannot rebuild itself", self.name());
        Err(neon_sys::NeonSysError::InvalidConfig { what })
    }

    fn fault_stats(&self) -> FaultStats {
        Skeleton::fault_stats(self)
    }

    fn checkpoint_interval(&self) -> u32 {
        self.options().resilience.checkpoint_interval
    }
}

/// What a [`Supervisor`] did, cumulative over its life.
///
/// `exec.executions == committed + replayed` always holds: every
/// successful step either stays committed or is discarded by a restore.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Aggregated report over every successful step, replayed ones
    /// included (aborted steps contribute no report; their virtual time
    /// only advanced the clock).
    pub exec: ExecReport,
    /// Iterations net committed.
    pub committed: u64,
    /// Successful steps discarded by a restore (re-run afterwards unless
    /// the run ended in an error).
    pub replayed: u64,
    /// Restores forced by transient faults that escaped retry.
    pub rollbacks: u64,
    /// Device losses healed by eviction and rebuild.
    pub evictions: u64,
    /// Link losses or degrades healed by a rebuild on the degraded
    /// topology (every device survives).
    pub link_repairs: u64,
    /// Fault counters folded across every rebuild.
    pub faults: FaultStats,
}

/// A failure the [`Supervisor`] could not absorb. The target is left
/// restored to its last checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryError {
    /// The failed step's error.
    pub error: ExecError,
    /// Why healing a permanent fault failed (the target cannot rebuild,
    /// or the fault leaves no usable backend); `None` when no tier
    /// applies to `error`.
    pub heal: Option<NeonSysError>,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.heal {
            None => write!(f, "{}", self.error),
            Some(cause) => write!(f, "{} (heal failed: {cause})", self.error),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The backend that survives `fault`.
pub fn heal_backend(backend: &Backend, fault: PermanentFault) -> neon_sys::Result<Backend> {
    match fault {
        PermanentFault::DeviceLoss(d) => backend.without_device(d),
        PermanentFault::LinkLoss(s, d) => backend.without_link(s, d),
        PermanentFault::LinkDegrade(s, d, f) => backend.with_degraded_link(s, d, f),
    }
}

/// Drives a [`Recoverable`] target through the recovery tiers.
pub struct Supervisor<R> {
    target: R,
    report: RecoveryReport,
    /// Fault counters of executors discarded by rebuilds.
    base_faults: FaultStats,
}

impl<R: Recoverable> Supervisor<R> {
    /// Supervise `target`, checkpointing at its
    /// [`Recoverable::checkpoint_interval`].
    pub fn new(target: R) -> Self {
        Supervisor {
            target,
            report: RecoveryReport::default(),
            base_faults: FaultStats::default(),
        }
    }

    /// The supervised target.
    pub fn target(&self) -> &R {
        &self.target
    }

    /// Mutable access to the supervised target (to install fault plans).
    pub fn target_mut(&mut self) -> &mut R {
        &mut self.target
    }

    /// The cumulative report.
    pub fn report(&self) -> RecoveryReport {
        RecoveryReport {
            faults: self.base_faults + self.target.fault_stats(),
            ..self.report
        }
    }

    /// Run `n` iterations, healing what the tiers can heal.
    ///
    /// A checkpoint is captured at the call's start, every
    /// [`Recoverable::checkpoint_interval`] committed iterations after it,
    /// and after every rebuild. Returns an error only for a failure no
    /// tier absorbs (a structural error, a target that cannot rebuild, or
    /// losing the last device); the state is then restored to the last
    /// checkpoint.
    pub fn run(&mut self, n: u64) -> Result<(), RecoveryError> {
        let interval = u64::from(self.target.checkpoint_interval());
        let end = self.target.iteration() + n;
        let mut cp = self.target.capture();
        while self.target.iteration() < end {
            match self.target.try_step() {
                Ok(r) => {
                    self.report.exec.accumulate(r);
                    self.report.committed += 1;
                    let i = self.target.iteration();
                    if (i - cp.iteration()).is_multiple_of(interval) && i < end {
                        cp = self.target.capture();
                    }
                }
                Err(error) => {
                    let lost = self.target.iteration() - cp.iteration();
                    self.target.restore(&cp);
                    self.report.committed -= lost;
                    self.report.replayed += lost;
                    // The one place a failure picks its recovery tier.
                    match error {
                        ExecError::TransientFaultEscaped { .. } => self.report.rollbacks += 1,
                        ExecError::Permanent { fault, .. } => {
                            if let Err(cause) = self.heal(fault) {
                                let heal = Some(cause);
                                return Err(RecoveryError { error, heal });
                            }
                            match fault {
                                PermanentFault::DeviceLoss(_) => self.report.evictions += 1,
                                _ => self.report.link_repairs += 1,
                            }
                            cp = self.target.capture();
                        }
                        _ => return Err(RecoveryError { error, heal: None }),
                    }
                }
            }
        }
        Ok(())
    }

    /// Heal `fault` now: derive the surviving backend and rebuild the
    /// target on it. The run loop takes this path for permanent faults;
    /// calling it directly is a planned eviction or link repair (and the
    /// oracle a faulted run is checked against). Voluntary heals are not
    /// counted in the report.
    ///
    /// Only a successful rebuild drops the plans cached for the old
    /// backend's fingerprint (their halo schedules and collective routes
    /// target hardware that no longer exists); a failed one leaves the
    /// target and the plan cache as they were.
    pub fn heal(&mut self, fault: PermanentFault) -> neon_sys::Result<()> {
        let old = self.target.backend().fingerprint();
        let healed = heal_backend(self.target.backend(), fault)?;
        let stats = self.target.fault_stats();
        self.target.rebuild(&healed)?;
        self.base_faults += stats;
        invalidate_backend(old);
        Ok(())
    }
}
