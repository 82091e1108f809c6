//! Solver jobs as resumable handles — the unit of work of the serving
//! layer (`neon-serve`).
//!
//! A [`SolverJob`] wraps one solver instance (Poisson CG or LBM lid-driven
//! cavity) behind an iterator-style interface: [`SolverJob::advance`] runs a
//! bounded number of iterations and returns, so a scheduler can interleave
//! many jobs on one process by time-slicing at *iteration boundaries*. No
//! kernel is ever interrupted — a preempted job simply is not asked for its
//! next iteration yet — which is why a multiplexed run stays bit-identical
//! to a solo run of the same job.
//!
//! Recovery comes through [`neon_core::Recoverable`]: checkpoint/restore at
//! iteration boundaries (a quantum aborted by a device loss rolls back to
//! its start), a fallible single step, and a rebuild onto a different
//! backend that moves state through logical coordinates — so the
//! [`neon_core::Supervisor`] gives every job retry, rollback, link repair
//! and eviction.
//!
//! A job's traffic is what [`SolverJob::advance`] reports
//! ([`ExecReport::counters`]), so it needs no bookkeeping across rebuilds.
//! Setup work (CG initialization) is charged to the first `advance`
//! report — its time and its traffic — so serving numbers include it (a
//! supervised [`neon_core::Recoverable::try_step`] reports the iteration
//! alone); rebuild cost after a device loss is *not* modelled on the
//! virtual clock (recompilation is host-side work).

use neon_core::{ExecError, ExecReport, FaultPlan, FaultStats, Recoverable, SkeletonOptions};
use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
use neon_set::Checkpoint;
use std::hash::Hasher as _;

use neon_sys::{Backend, NeonSysError, Result, StableHasher};

use crate::lbm::{LbmParams, LidDrivenCavity};
use crate::poisson::PoissonSolver;

/// What a tenant asked the server to run. Specs are plain values so a
/// request can be replayed solo (same spec, same-size backend, same
/// migration history) to check bit-identity against the multiplexed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobSpec {
    /// Poisson CG solve on a dense `dim³` grid; the right-hand side is a
    /// pure function of logical coordinates and `rhs_seed`, so it is
    /// partition-independent.
    Poisson {
        /// Cubic grid edge length.
        dim: u32,
        /// CG iterations to run.
        iters: u64,
        /// Seed of the deterministic right-hand side.
        rhs_seed: u64,
    },
    /// D3Q19 lid-driven cavity on a dense `dim³` grid.
    Lbm {
        /// Cubic grid edge length.
        dim: u32,
        /// LBM time steps to run.
        iters: u64,
    },
}

impl JobSpec {
    /// Total iterations the job needs.
    pub fn iters(&self) -> u64 {
        match self {
            JobSpec::Poisson { iters, .. } | JobSpec::Lbm { iters, .. } => *iters,
        }
    }

    /// Build the resumable handle for this spec on `backend`.
    pub fn build(&self, backend: &Backend, options: SkeletonOptions) -> Result<Box<dyn SolverJob>> {
        match *self {
            JobSpec::Poisson {
                dim,
                iters,
                rhs_seed,
            } => {
                let dim = Dim3::cube(dim as usize);
                let rhs = poisson_rhs(rhs_seed);
                Ok(Box::new(PoissonJob::new(
                    backend, dim, iters, options, rhs,
                )?))
            }
            JobSpec::Lbm { dim, iters } => Ok(Box::new(LbmJob::new(backend, dim, iters, options)?)),
        }
    }
}

/// A resumable solver job: the scheduling unit of `neon-serve`.
///
/// Checkpoint, restore and rebuild-on-a-new-backend come from
/// [`Recoverable`], so the recovery supervisor drives any job through
/// every fault tier with no per-solver code.
pub trait SolverJob: Recoverable {
    /// Devices of the backend the job currently runs on.
    fn num_devices(&self) -> usize {
        self.backend().num_devices()
    }

    /// Iterations committed so far.
    fn completed(&self) -> u64 {
        self.iteration()
    }

    /// Total iterations the job needs.
    fn total(&self) -> u64;

    /// Whether every iteration has run.
    fn is_done(&self) -> bool {
        self.completed() >= self.total()
    }

    /// Run up to `iters` more iterations (clamped to the remainder) and
    /// return the aggregated report of exactly that window. The job yields
    /// between `execute` calls — this is the preemption point.
    fn advance(&mut self, iters: u64) -> ExecReport;

    /// Deterministic fingerprint of the results produced so far (residual
    /// bit history for CG, population-field bits for LBM). Two runs of the
    /// same spec on same-size backends with the same migration history
    /// fingerprint identically, bit for bit.
    fn result_bits(&self) -> u64;

    /// Install a fault plan on the job's executors (dropped by the next
    /// [`Recoverable::rebuild`]).
    fn install_fault_plan(&mut self, plan: FaultPlan);
}

/// Deterministic right-hand side: a pure function of logical coordinates
/// and the seed (FNV-style mixing), uniform in roughly `[-1, 1)`. Being
/// partition-independent, every backend builds the identical problem.
fn poisson_rhs(seed: u64) -> impl Fn(i32, i32, i32) -> f64 {
    move |x, y, z| {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in [x as u64, y as u64, z as u64] {
            h ^= v.wrapping_add(0x0123_4567_89AB_CDEF);
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
        ((h >> 11) % 4096) as f64 / 2048.0 - 1.0
    }
}

/// Poisson CG as a resumable job.
pub struct PoissonJob {
    backend: Backend,
    dim: Dim3,
    options: SkeletonOptions,
    solver: PoissonSolver<DenseGrid>,
    total: u64,
    /// Residual bits after each committed iteration (truncated on restore);
    /// its length is the iteration counter.
    residual_bits: Vec<u64>,
    /// Setup (cg-init) report, folded into the first advance report.
    pending_setup: ExecReport,
}

impl PoissonJob {
    /// Build the solver on `backend` for a dense `dim` grid, fill the
    /// right-hand side from `rhs(x, y, z)` and initialize CG.
    pub fn new(
        backend: &Backend,
        dim: Dim3,
        iters: u64,
        options: SkeletonOptions,
        rhs: impl Fn(i32, i32, i32) -> f64,
    ) -> Result<Self> {
        let mut solver = Self::build_solver(backend, dim, &options)?;
        let setup = solver.set_rhs(rhs);
        Ok(PoissonJob {
            backend: backend.clone(),
            dim,
            options,
            solver,
            total: iters,
            residual_bits: Vec::new(),
            pending_setup: setup,
        })
    }

    fn build_solver(
        backend: &Backend,
        dim: Dim3,
        options: &SkeletonOptions,
    ) -> Result<PoissonSolver<DenseGrid>> {
        let stencil = Stencil::seven_point();
        let grid = DenseGrid::new(backend, dim, &[&stencil], StorageMode::Real)?;
        PoissonSolver::with_options(&grid, *options)
    }

    /// Current residual norm.
    pub fn residual(&self) -> f64 {
        self.solver.residual()
    }
}

impl Recoverable for PoissonJob {
    fn iteration(&self) -> u64 {
        self.residual_bits.len() as u64
    }

    fn capture(&mut self) -> Checkpoint {
        let iteration = self.iteration();
        self.solver
            .cg
            .iteration_skeleton()
            .capture_checkpoint(iteration)
    }

    fn restore(&mut self, cp: &Checkpoint) {
        cp.restore();
        self.residual_bits.truncate(cp.iteration() as usize);
    }

    fn try_step(&mut self) -> std::result::Result<ExecReport, ExecError> {
        let iteration = self.iteration();
        let sk = self.solver.cg.iteration_skeleton();
        sk.set_logical_iteration(iteration);
        let r = sk.try_run()?;
        self.residual_bits
            .push(self.solver.cg.state.rs_old.host_value().to_bits());
        Ok(r)
    }

    fn backend(&self) -> &Backend {
        &self.backend
    }

    fn rebuild(&mut self, backend: &Backend) -> Result<()> {
        // Build first: a failed rebuild leaves the job untouched.
        let fresh = Self::build_solver(backend, self.dim, &self.options)?;
        // Partition boundaries moved; the logical (x, y, z) → value map did
        // not. `b` migrates too: it is read-only but still the problem.
        let old = &self.solver.cg.state;
        let new = &fresh.cg.state;
        for (src, dst) in [
            (&old.x, &new.x),
            (&old.b, &new.b),
            (&old.r, &new.r),
            (&old.p, &new.p),
            (&old.ap, &new.ap),
        ] {
            src.for_each(|x, y, z, comp, v| {
                dst.set(x, y, z, comp, v);
            });
            dst.update_halos();
        }
        for (src, dst) in [
            (&old.rs_old, &new.rs_old),
            (&old.rs_new, &new.rs_new),
            (&old.p_ap, &new.p_ap),
            (&old.alpha, &new.alpha),
            (&old.beta, &new.beta),
        ] {
            dst.set_host(src.host_value());
        }
        self.solver = fresh;
        self.backend = backend.clone();
        Ok(())
    }

    fn fault_stats(&self) -> FaultStats {
        self.solver.cg.fault_stats()
    }

    fn checkpoint_interval(&self) -> u32 {
        self.options.resilience.checkpoint_interval
    }
}

impl SolverJob for PoissonJob {
    fn total(&self) -> u64 {
        self.total
    }

    fn advance(&mut self, iters: u64) -> ExecReport {
        let span = iters.min(self.total - self.completed());
        let mut report = std::mem::take(&mut self.pending_setup);
        for _ in 0..span {
            report.accumulate(
                self.try_step()
                    .unwrap_or_else(|e| panic!("cg step failed: {e}")),
            );
        }
        report
    }

    fn result_bits(&self) -> u64 {
        let mut h = StableHasher::new();
        for b in &self.residual_bits {
            h.write_u64(*b);
        }
        h.finish()
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.solver.cg.iteration_skeleton().install_fault_plan(plan);
    }
}

/// D3Q19 lid-driven cavity as a resumable job.
pub struct LbmJob {
    backend: Backend,
    dim: Dim3,
    options: SkeletonOptions,
    app: LidDrivenCavity<DenseGrid>,
    total: u64,
}

impl LbmJob {
    /// Build and initialize the cavity on `backend`.
    pub fn new(backend: &Backend, dim: u32, iters: u64, options: SkeletonOptions) -> Result<Self> {
        options
            .resilience
            .validate()
            .map_err(|e| NeonSysError::InvalidConfig {
                what: e.to_string(),
            })?;
        let dim3 = Dim3::cube(dim as usize);
        let mut app = Self::build_app(backend, dim3, &options)?;
        app.init();
        Ok(LbmJob {
            backend: backend.clone(),
            dim: dim3,
            options,
            app,
            total: iters,
        })
    }

    fn build_app(
        backend: &Backend,
        dim: Dim3,
        options: &SkeletonOptions,
    ) -> Result<LidDrivenCavity<DenseGrid>> {
        let stencil = Stencil::d3q19();
        let grid = DenseGrid::new(backend, dim, &[&stencil], StorageMode::Real)?;
        LidDrivenCavity::new(&grid, LbmParams::default(), options.occ)
    }
}

impl Recoverable for LbmJob {
    fn iteration(&self) -> u64 {
        self.app.step_index() as u64
    }

    fn capture(&mut self) -> Checkpoint {
        Checkpoint::capture(self.iteration(), &self.app.checkpoint_handles())
    }

    fn restore(&mut self, cp: &Checkpoint) {
        cp.restore();
        self.app.set_step_index(cp.iteration() as usize);
    }

    fn try_step(&mut self) -> std::result::Result<ExecReport, ExecError> {
        self.app.try_step()
    }

    fn backend(&self) -> &Backend {
        &self.backend
    }

    fn rebuild(&mut self, backend: &Backend) -> Result<()> {
        let mut fresh = Self::build_app(backend, self.dim, &self.options)?;
        for q in 0..2 {
            let (src, dst) = (self.app.population(q), fresh.population(q));
            src.for_each(|x, y, z, comp, v| {
                dst.set(x, y, z, comp, v);
            });
            dst.update_halos();
        }
        fresh.set_step_index(self.app.step_index());
        self.app = fresh;
        self.backend = backend.clone();
        Ok(())
    }

    fn fault_stats(&self) -> FaultStats {
        self.app.fault_stats()
    }

    fn checkpoint_interval(&self) -> u32 {
        self.options.resilience.checkpoint_interval
    }
}

impl SolverJob for LbmJob {
    fn total(&self) -> u64 {
        self.total
    }

    fn advance(&mut self, iters: u64) -> ExecReport {
        let span = iters.min(self.total - self.completed());
        self.app.step(span as usize)
    }

    fn result_bits(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.completed());
        self.app
            .current()
            .for_each(|_, _, _, _, v| h.write_u64(v.to_bits()));
        h.finish()
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.app.install_fault_plan(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::OccLevel;
    use neon_sys::DeviceId;

    fn options() -> SkeletonOptions {
        SkeletonOptions::with_occ(OccLevel::Standard)
    }

    #[test]
    fn advance_clamps_and_reports_each_window() {
        let b = Backend::dgx_a100(2);
        let spec = JobSpec::Poisson {
            dim: 8,
            iters: 5,
            rhs_seed: 7,
        };
        let mut job = spec.build(&b, options()).unwrap();
        assert_eq!(job.total(), 5);
        let r = job.advance(2);
        assert_eq!(job.completed(), 2);
        assert_eq!(r.executions, 3, "cg-init + two iterations");
        assert!(r.counters.kernel_launches > 0);
        let r = job.advance(100);
        assert_eq!(job.completed(), 5);
        assert_eq!(r.executions, 3);
        assert!(job.is_done());
    }

    #[test]
    fn sliced_run_is_bit_identical_to_straight_run() {
        let b = Backend::dgx_a100(2);
        for spec in [
            JobSpec::Poisson {
                dim: 8,
                iters: 6,
                rhs_seed: 3,
            },
            JobSpec::Lbm { dim: 6, iters: 6 },
        ] {
            let mut solo = spec.build(&b, options()).unwrap();
            solo.advance(6);
            let mut sliced = spec.build(&b, options()).unwrap();
            for _ in 0..6 {
                sliced.advance(1);
            }
            assert_eq!(
                solo.result_bits(),
                sliced.result_bits(),
                "iteration slicing changed {spec:?}"
            );
        }
    }

    #[test]
    fn checkpoint_rolls_back_state_and_iteration() {
        let b = Backend::dgx_a100(2);
        for spec in [
            JobSpec::Poisson {
                dim: 8,
                iters: 6,
                rhs_seed: 11,
            },
            JobSpec::Lbm { dim: 6, iters: 6 },
        ] {
            let mut job = spec.build(&b, options()).unwrap();
            job.advance(3);
            let cp = job.capture();
            let bits_at_cp = job.result_bits();
            job.advance(2);
            assert_ne!(job.result_bits(), bits_at_cp);
            job.restore(&cp);
            assert_eq!(job.completed(), 3);
            assert_eq!(job.result_bits(), bits_at_cp, "restore diverged {spec:?}");
            // Replaying after a rollback reproduces the same final bits.
            let mut reference = spec.build(&b, options()).unwrap();
            reference.advance(6);
            job.advance(3);
            assert_eq!(job.result_bits(), reference.result_bits());
        }
    }

    #[test]
    fn migration_matches_voluntary_restart_oracle() {
        // A job migrated from 2 devices to 1 at iteration 3 must finish
        // bit-identical to a solo run that performs the same migration at
        // the same boundary (the serving layer's device-loss oracle).
        let fleet = Backend::dgx_a100(4);
        let two = fleet.with_devices(&[DeviceId(0), DeviceId(1)]).unwrap();
        let one = fleet.with_devices(&[DeviceId(3)]).unwrap();
        for spec in [
            JobSpec::Poisson {
                dim: 8,
                iters: 6,
                rhs_seed: 5,
            },
            JobSpec::Lbm { dim: 6, iters: 6 },
        ] {
            let mut a = spec.build(&two, options()).unwrap();
            a.advance(3);
            a.rebuild(&one).unwrap();
            assert_eq!(a.num_devices(), 1);
            assert!(a.advance(3).counters.kernel_launches > 0);

            let other_one = fleet.with_devices(&[DeviceId(2)]).unwrap();
            let mut b = spec.build(&two, options()).unwrap();
            b.advance(3);
            b.rebuild(&other_one).unwrap();
            b.advance(3);
            assert_eq!(
                a.result_bits(),
                b.result_bits(),
                "migration oracle {spec:?}"
            );
        }
    }
}
