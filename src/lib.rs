//! # neon — a Rust reproduction of the Neon multi-GPU programming model
//!
//! This facade crate re-exports the full stack:
//!
//! * [`sys`] — System abstraction: simulated devices, streams, events,
//!   memory accounting and interconnect/performance models.
//! * [`set`] — Set abstraction: multi-GPU data, containers, loaders.
//! * [`domain`] — Domain abstraction: grids (dense & element-sparse),
//!   fields (SoA/AoS), data views and halo coherency.
//! * [`comm`] — Communication abstraction: collective primitives
//!   (all-reduce, reduce-scatter, all-gather, broadcast) with ring /
//!   tree / host-staged algorithms over the interconnect model.
//! * [`core`] — Skeleton abstraction: dependency graphs, multi-GPU graph
//!   transforms, OCC optimizations, scheduling and execution.
//! * [`apps`] — the paper's evaluation applications: LBM fluid solvers,
//!   a finite-difference Poisson solver and an FEM linear-elastic solver.
//!
//! See `examples/quickstart.rs` for a minimal end-to-end program.

pub use neon_apps as apps;
pub use neon_comm as comm;
pub use neon_core as core;
pub use neon_domain as domain;
pub use neon_set as set;
pub use neon_sys as sys;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use neon_comm::Algorithm as CollectiveAlgorithm;
    pub use neon_core::{
        CollectiveMode, ExecError, ExecReport, FusionLevel, HaloPolicy, OccLevel,
        ResilienceOptions, Skeleton, SkeletonOptions, Supervisor,
    };
    pub use neon_domain::{
        BlockSparseGrid, Cell, DataView, DenseGrid, Dim3, Field, GridLike, MemLayout, SparseGrid,
        Stencil,
    };
    pub use neon_set::{Container, Loader, ScalarSet};
    pub use neon_sys::{Backend, DeviceId, FaultPlan, SimTime};
}
