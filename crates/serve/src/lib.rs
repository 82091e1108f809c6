//! # neon-serve — multi-tenant job serving over a simulated device fleet
//!
//! The layers below this crate answer "how do I run *one* program well on
//! *one* set of devices": `neon-core` compiles a container sequence into an
//! occupancy-aware multi-queue schedule, `neon-apps` wraps solvers behind
//! the resumable [`neon_apps::SolverJob`] trait. This crate answers the
//! operational question on top: many tenants submit many jobs against one
//! shared fleet — who runs where, when, and who pays for what?
//!
//! The server ([`Server`]) is a discrete-event loop on the same virtual
//! clock the executors use, with four responsibilities:
//!
//! 1. **Admission control** — a bounded waiting queue
//!    ([`ServeConfig::queue_capacity`]); jobs arriving past the bound are
//!    shed immediately rather than queued forever.
//! 2. **Weighted fair queueing** ([`SchedPolicy::WeightedFair`]) — each
//!    tenant owns a virtual-time account charged
//!    `device_time / weight` per quantum; the next quantum always goes to
//!    the backlogged tenant with the smallest virtual time. Preemption
//!    happens only at iteration boundaries, so every job's results are
//!    **bit-identical** to a solo run ([`solo_run_bits`] is the oracle).
//! 3. **Space sharing** — jobs are pinned to device *subsets* carved from
//!    the fleet with [`neon_sys::Backend::with_devices`]; jobs on disjoint
//!    subsets overlap in virtual time. Equal-size subsets of a homogeneous
//!    fleet share a backend fingerprint, so all tenants compile through
//!    the *same* process-wide plan cache entry ([`ServeReport::cache_hits`]
//!    counts the sharing).
//! 4. **Per-tenant accounting** ([`TenantAccount`]) — traffic is the sum
//!    of the committed quanta's [`neon_core::ExecReport::counters`] (one
//!    [`neon_sys::CounterSnapshot`] per tenant); device-time and
//!    queue-wait come from the event loop itself.
//!
//! Faults compose with serving: a scheduled [`DeviceLoss`] kills a fleet
//! device mid-run. In-flight quanta on that device roll back to their
//! quantum-start checkpoint, and every pinned job re-plans onto surviving
//! devices (a spare if one exists, a smaller subset otherwise) and
//! migrates its state through logical coordinates — then keeps going.
//! The forced migrations are recorded as [`EvictionEvent`]s so the solo
//! oracle can replay them and confirm bit-identity even across a loss.
//!
//! The interconnect is a fault domain of its own: a scheduled [`LinkFault`]
//! severs or degrades one fleet wire. Quanta straddling it roll back, jobs
//! pinned across both endpoints re-plan on the degraded fleet — same
//! devices, new link timing, possibly a new collective route (recorded as
//! [`RouteChange`]s when an island split flips hierarchical routing flat or
//! vice versa) — and results stay bit-identical to a healthy solo run,
//! because link speed never enters the numerics. Checkpoint captures are
//! priced on the virtual clock (state bytes over the host staging link)
//! and charged to the tenant that needed the protection
//! ([`TenantAccount::checkpoint_us`]).

pub mod server;
pub mod types;

pub use server::{solo_run_bits, Server};
pub use types::{
    jain_index, percentile, DeviceLoss, EvictionEvent, JobOutcome, JobRequest, LinkFault,
    RouteChange, SchedPolicy, ServeConfig, ServeReport, TenantAccount, TenantSpec,
};
