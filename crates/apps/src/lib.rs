//! # neon-apps — the paper's evaluation applications
//!
//! Real-world workloads from the Neon paper's §VI, all written against the
//! public Neon programming model (containers + skeletons) and all
//! grid-generic where the paper exercises that freedom:
//!
//! * [`lbm`] — Lattice-Boltzmann fluid solvers: the D3Q19 *twoPop*
//!   lid-driven cavity (Table II, Fig. 7) and the 2-D Kármán vortex
//!   street on D2Q9 (Table I), plus the comparator baselines (cuboltz,
//!   stlbm variants, Taichi-style) as analytic models under the same
//!   device model, and a plain host reference implementation used to
//!   verify the numerics.
//! * [`poisson`] — finite-difference Poisson solver: 7-point stencil +
//!   matrix-free CG (Fig. 8), with a CUDA+cuBLAS-style baseline.
//! * [`fem`] — matrix-free finite-element linear elasticity: hexahedral
//!   H8 elements, 27-point stencil, CG, dense vs element-sparse grids
//!   (Fig. 9).
//! * [`cg`] — the shared conjugate-gradient skeleton builder
//!   (paper Listing 3).
//! * [`jacobi`] — a weighted-Jacobi Poisson solver exercising the
//!   ping-pong iteration pattern (and a convergence baseline for CG).
//! * [`heat`] — explicit heat diffusion with an analytic eigenmode-decay
//!   validation of the full stack.

// Numeric kernels index several arrays by one loop variable (lattice
// directions, stiffness rows); iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod cg;
pub mod fem;
pub mod heat;
pub mod jacobi;
pub mod job;
pub mod lbm;
pub mod poisson;

pub use cg::{CgSolver, CgState, CompileStats};
pub use heat::HeatSolver;
pub use jacobi::JacobiSolver;
pub use job::{JobSpec, LbmJob, PoissonJob, SolverJob};
pub use poisson::PoissonSolver;
