//! Immutable compiled execution plans and the process-wide plan cache.
//!
//! A [`CompiledPlan`] is the product of the pass pipeline: the final
//! execution graph, its schedule, and precomputed per-node parent lists,
//! all behind an `Arc` so the executor borrows task and node data by index
//! instead of cloning per task per iteration.
//!
//! Plans are cached by [`PlanKey`]:
//!
//! * the **sequence signature** ([`neon_set::sequence_signature`]) — a
//!   structural hash of the container sequence over *normalized* data-uid
//!   roles, deliberately excluding cell counts and per-cell costs (those
//!   are read from the bound containers at execution time), so the same
//!   solver over a different grid size still hits;
//! * the **backend fingerprint** ([`neon_sys::Backend::fingerprint`]) —
//!   device models plus topology;
//! * the **options signature** — every [`SkeletonOptions`] field that
//!   shapes the graph or schedule (`trace` and `functional_mode` don't).
//!
//! On a hit the cached plan is *rebound*: node containers are swapped by
//! provenance index, halo exchanges and edge data uids are remapped via
//! the role correspondence, and the schedule — which depends only on graph
//! structure — is shared untouched. `Arc::ptr_eq` on the schedule is
//! therefore proof that a sequence compiled once.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use neon_set::{sequence_signature, uid_roles, Container, DataUid, HaloDescriptor, HaloExchange};
use neon_sys::{stable_hash_of, Backend, StableHasher, Trace};

use crate::collective::CollectiveMode;
use crate::devplan::{build_device_plan_policy, DevicePlan};
use crate::exec::{CommMode, HaloPolicy};
use crate::fuse::FusionLevel;
use crate::graph::{Edge, Graph, Node, NodeId, NodeKind};
use crate::pass::{CompileError, Ir, PassCtx, PassManager, PassTiming};
use crate::schedule::Schedule;
use crate::skeleton::SkeletonOptions;

/// The immutable result of compiling a container sequence.
pub struct CompiledPlan {
    containers: Vec<Container>,
    dependency_graph: Graph,
    graph: Graph,
    schedule: Arc<Schedule>,
    device_plan: Arc<DevicePlan>,
    data_parents: Vec<Vec<NodeId>>,
    /// Per-node halo transfer descriptors (empty for non-halo nodes),
    /// cached so the executor's hot loop never calls the allocating
    /// `HaloExchange::descriptors()`.
    halo_descs: Vec<Vec<HaloDescriptor>>,
    timings: Vec<PassTiming>,
    dumps: Vec<(String, String)>,
    compile_trace: Trace,
}

impl CompiledPlan {
    /// The raw dependency graph (before the multi-GPU transform).
    pub fn dependency_graph(&self) -> &Graph {
        &self.dependency_graph
    }

    /// The final (multi-GPU, OCC-optimized, lowered) execution graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The execution plan.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The schedule's shared handle (`Arc::ptr_eq` across two plans proves
    /// they came from one compilation).
    pub fn schedule_arc(&self) -> &Arc<Schedule> {
        &self.schedule
    }

    /// The bound container sequence, in program order.
    pub fn containers(&self) -> &[Container] {
        &self.containers
    }

    /// Data-edge parents of a node (precomputed at compile time).
    pub fn data_parents(&self, node: NodeId) -> &[NodeId] {
        &self.data_parents[node]
    }

    /// The per-device task partition + event table (shared handle).
    pub fn device_plan(&self) -> &Arc<DevicePlan> {
        &self.device_plan
    }

    /// Cached halo transfer descriptors of a node (empty unless the node
    /// is a halo update).
    pub fn halo_descriptors(&self, node: NodeId) -> &[HaloDescriptor] {
        &self.halo_descs[node]
    }

    /// Per-pass compile timings. Empty for a rebound (cache-hit) plan —
    /// no compilation happened.
    pub fn pass_timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// `(pass name, dump)` pairs captured when `dump_ir` was on.
    pub fn dumps(&self) -> &[(String, String)] {
        &self.dumps
    }

    /// Compile-time [`neon_sys::SpanKind::Compile`] spans, one per pass
    /// (empty for a rebound plan).
    pub fn compile_trace(&self) -> &Trace {
        &self.compile_trace
    }

    /// Logical iterations one `execute()` of this plan performs: `k` when
    /// the temporal-fuse pass built a super-step, 1 otherwise. Callers
    /// running `n` logical iterations execute the plan `n / k` times.
    pub fn temporal_k(&self) -> usize {
        self.graph
            .nodes()
            .iter()
            .filter_map(|n| n.container().and_then(|c| c.temporal_spec()))
            .map(|spec| spec.k as usize)
            .max()
            .unwrap_or(1)
    }
}

fn precompute_parents(g: &Graph) -> Vec<Vec<NodeId>> {
    (0..g.len())
        .map(|n| {
            let mut v: Vec<NodeId> = g.data_parents(n).map(|e| e.from).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

fn precompute_halo_descs(g: &Graph) -> Vec<Vec<neon_set::HaloDescriptor>> {
    g.nodes()
        .iter()
        .map(|n| match &n.kind {
            NodeKind::Halo { exchange } => exchange.descriptors(),
            _ => Vec::new(),
        })
        .collect()
}

/// Cache key of a compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural signature of the container sequence.
    pub seq: u64,
    /// Backend fingerprint (device models + topology).
    pub backend: u64,
    /// Signature of the graph-shaping skeleton options.
    pub opts: u64,
}

impl PlanKey {
    /// Compute the key for compiling `containers` on `backend` with
    /// `options`.
    pub fn new(backend: &Backend, containers: &[Container], options: &SkeletonOptions) -> PlanKey {
        PlanKey {
            seq: sequence_signature(containers),
            backend: backend.fingerprint(),
            opts: options_signature(options),
        }
    }
}

/// Hash every option that shapes the compiled graph or schedule. `trace`,
/// `cache`, `functional_mode` and `resilience` are diagnostics/runtime
/// policy — same plan either way. The destructuring is exhaustive, so a
/// new option does not compile until it is classified here.
fn options_signature(o: &SkeletonOptions) -> u64 {
    use std::hash::Hasher as _;
    let SkeletonOptions {
        occ,
        hints,
        kernel_concurrency,
        halo_policy,
        functional_mode: _,
        trace: _,
        fusion,
        collectives,
        comm,
        cache: _,
        dump_ir,
        resilience: _,
        layout,
    } = *o;
    let mut h = StableHasher::new();
    let mut put = |v: u64| h.write_u64(v);
    put(occ as u64);
    put(hints as u64);
    put(kernel_concurrency as u64);
    match halo_policy {
        HaloPolicy::ExplicitTransfers => put(0),
        HaloPolicy::UnifiedMemory {
            page_bytes,
            fault_us,
            bandwidth_gb_s,
        } => {
            put(1);
            put(page_bytes);
            put(fault_us.to_bits());
            put(bandwidth_gb_s.to_bits());
        }
    }
    match collectives {
        CollectiveMode::Auto => put(2),
        CollectiveMode::Fixed(a) => {
            put(3);
            put(stable_hash_of(&format!("{a:?}")));
        }
    }
    match comm {
        CommMode::Epoch => put(200),
        // Chunk events change the device plan's event table (per-chunk
        // arrival slots), so the two modes must never alias in the cache.
        CommMode::ChunkEvents => put(201),
    }
    match fusion {
        FusionLevel::Off => put(100),
        FusionLevel::Conservative => put(101),
        FusionLevel::Temporal(k) => {
            put(102);
            put(k as u64);
        }
    }
    put(dump_ir as u64);
    put(layout.signature_byte() as u64);
    h.finish()
}

/// Counters of the process-wide plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a plan (each hit skips a full pipeline run).
    pub hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
    /// Plans pushed out by the capacity bound (FIFO order). Backend
    /// invalidations and explicit clears are not counted here.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Current capacity bound (see [`set_plan_cache_capacity`]).
    pub capacity: usize,
}

struct CacheInner {
    map: HashMap<PlanKey, Arc<CompiledPlan>>,
    order: VecDeque<PlanKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
    capacity: usize,
}

impl CacheInner {
    /// Evict FIFO until the entry count fits `capacity`, counting evictions.
    fn enforce_capacity(&mut self, headroom: usize) {
        while self.map.len().saturating_add(headroom) > self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    if self.map.remove(&old).is_some() {
                        self.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }
}

/// Default plan-cache capacity (plans, not bytes).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;

fn cache() -> &'static Mutex<CacheInner> {
    static CACHE: OnceLock<Mutex<CacheInner>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(CacheInner {
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            capacity: DEFAULT_PLAN_CACHE_CAPACITY,
        })
    })
}

/// Current plan-cache counters.
pub fn plan_cache_stats() -> CacheStats {
    let c = cache().lock().unwrap();
    CacheStats {
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
        entries: c.map.len(),
        capacity: c.capacity,
    }
}

/// Bound the process-wide plan cache to `capacity` plans (clamped to at
/// least 1). Shrinking below the current entry count evicts FIFO immediately.
/// A serving deployment sizes this to its working set of distinct
/// (program structure × backend fingerprint × options) keys.
pub fn set_plan_cache_capacity(capacity: usize) {
    let mut c = cache().lock().unwrap();
    c.capacity = capacity.max(1);
    c.enforce_capacity(0);
}

/// Current plan-cache capacity bound.
pub fn plan_cache_capacity() -> usize {
    cache().lock().unwrap().capacity
}

/// Drop every cached plan (counters are kept; tests diff them).
pub fn clear_plan_cache() {
    let mut c = cache().lock().unwrap();
    c.map.clear();
    c.order.clear();
}

/// Drop every cached plan compiled for the backend with `fingerprint`,
/// returning how many were evicted. Called when a device is lost: plans
/// compiled for the dead topology must not be rebound — the surviving
/// backend has a different fingerprint and will compile fresh.
pub fn invalidate_backend(fingerprint: u64) -> usize {
    let mut c = cache().lock().unwrap();
    let before = c.map.len();
    c.map.retain(|k, _| k.backend != fingerprint);
    c.order.retain(|k| k.backend != fingerprint);
    before - c.map.len()
}

/// Compile `containers`, consulting the plan cache when `options.cache`.
/// Returns the plan and whether it came from the cache.
pub(crate) fn compile(
    backend: &Backend,
    containers: Vec<Container>,
    options: SkeletonOptions,
) -> Result<(Arc<CompiledPlan>, bool), CompileError> {
    if !options.cache {
        return Ok((compile_fresh(backend, containers, &options)?, false));
    }
    let key = PlanKey::new(backend, &containers, &options);
    let cached = cache().lock().unwrap().map.get(&key).cloned();
    if let Some(plan) = cached {
        let rebound = rebind(&plan, containers);
        let mut c = cache().lock().unwrap();
        c.hits += 1;
        // Keep the most recently bound instance: a later identical request
        // then shares containers too, not just the schedule.
        c.map.insert(key, Arc::clone(&rebound));
        return Ok((rebound, true));
    }
    let plan = compile_fresh(backend, containers, &options)?;
    let mut c = cache().lock().unwrap();
    c.misses += 1;
    if !c.map.contains_key(&key) {
        c.enforce_capacity(1);
        c.order.push_back(key);
    }
    c.map.insert(key, Arc::clone(&plan));
    Ok((plan, false))
}

/// Run the standard pass pipeline to a fresh plan.
fn compile_fresh(
    backend: &Backend,
    containers: Vec<Container>,
    options: &SkeletonOptions,
) -> Result<Arc<CompiledPlan>, CompileError> {
    let mut ir = Ir::new(containers);
    let cx = PassCtx {
        backend: backend.clone(),
        options: *options,
    };
    let log = PassManager::standard().run(&mut ir, &cx)?;
    let schedule = ir
        .schedule
        .take()
        .expect("schedule pass produced a schedule");
    let device_plan = ir
        .device_plan
        .take()
        .expect("device-partition pass ran last and produced a device plan");
    let graph = ir.graph;
    let data_parents = precompute_parents(&graph);
    let halo_descs = precompute_halo_descs(&graph);
    Ok(Arc::new(CompiledPlan {
        containers: ir.containers,
        dependency_graph: ir.dependency_graph.unwrap_or_default(),
        graph,
        schedule: Arc::new(schedule),
        device_plan: Arc::new(device_plan),
        data_parents,
        halo_descs,
        timings: log.timings,
        dumps: log.dumps,
        compile_trace: log.trace,
    }))
}

/// Re-bind a cached plan to a new (structurally identical) container
/// sequence: swap containers by provenance index, remap data uids via the
/// role correspondence, share the schedule.
fn rebind(plan: &CompiledPlan, containers: Vec<Container>) -> Arc<CompiledPlan> {
    let old_roles = uid_roles(&plan.containers);
    let new_roles = uid_roles(&containers);
    let role_to_new: HashMap<usize, DataUid> = new_roles.iter().map(|(u, r)| (*r, *u)).collect();
    let map_uid = |u: DataUid| -> DataUid {
        old_roles
            .get(&u)
            .and_then(|r| role_to_new.get(r))
            .copied()
            .unwrap_or(u)
    };
    // Halo exchanges of the new sequence, by (new) uid.
    let mut halos: HashMap<DataUid, Arc<dyn HaloExchange>> = HashMap::new();
    for c in &containers {
        for a in c.accesses() {
            if let Some(h) = &a.halo {
                halos.entry(a.uid).or_insert_with(|| Arc::clone(h));
            }
        }
    }
    let rebind_graph = |g: &Graph| -> Graph {
        let mut out = Graph::new();
        for n in g.nodes() {
            // Fused nodes re-fuse the new instance's member containers by
            // provenance; collectives only ever run finalize hooks, so the
            // lighter `fused_reductions` merge covers both a merged
            // all-reduce and the lowered half of a fused map+reduce.
            let swap = |c: &Container| -> Container {
                if !n.fused_sources.is_empty() {
                    // A temporal super-step's provenance list is flattened:
                    // re-chunk it by the old members' arity (a fused member
                    // contributed its own member count) and rebuild the
                    // same fused-then-temporal structure over the new
                    // instance's containers.
                    if let Some(spec) = c.temporal_spec() {
                        let mut next = n.fused_sources.iter().copied();
                        let members: Vec<Container> = c
                            .fused_members()
                            .iter()
                            .map(|m| {
                                let arity = m.fused_members().len().max(1);
                                let chunk: Vec<Container> = (0..arity)
                                    .map(|_| {
                                        containers[next.next().expect("provenance arity")].clone()
                                    })
                                    .collect();
                                if arity > 1 {
                                    Container::fused(m.name(), chunk)
                                } else {
                                    chunk.into_iter().next().unwrap()
                                }
                            })
                            .collect();
                        return Container::temporal(c.name(), members, spec.k);
                    }
                    let members: Vec<Container> = n
                        .fused_sources
                        .iter()
                        .map(|&i| containers[i].clone())
                        .collect();
                    return if n.is_collective() {
                        Container::fused_reductions(c.name(), members)
                    } else {
                        Container::fused(c.name(), members)
                    };
                }
                match n.source {
                    Some(i) => containers[i].clone(),
                    None => c.clone(),
                }
            };
            let node = match &n.kind {
                NodeKind::Compute {
                    container,
                    view,
                    reduce_init,
                    reduce_finalize,
                } => Node {
                    name: n.name.clone(),
                    kind: NodeKind::Compute {
                        container: swap(container),
                        view: *view,
                        reduce_init: *reduce_init,
                        reduce_finalize: *reduce_finalize,
                    },
                    source: n.source,
                    fused_sources: n.fused_sources.clone(),
                },
                NodeKind::Host { container } => Node {
                    name: n.name.clone(),
                    kind: NodeKind::Host {
                        container: swap(container),
                    },
                    source: n.source,
                    fused_sources: n.fused_sources.clone(),
                },
                NodeKind::Collective { container, bytes } => Node {
                    name: n.name.clone(),
                    kind: NodeKind::Collective {
                        container: swap(container),
                        bytes: *bytes,
                    },
                    source: n.source,
                    fused_sources: n.fused_sources.clone(),
                },
                NodeKind::Halo { exchange } => {
                    let uid = map_uid(exchange.data_uid());
                    // Preserve the cached node's exchange depth: a temporal
                    // plan's deep halo must stay `k·r` layers deep after the
                    // new instance's (radius-deep) exchange is swapped in.
                    let ex = halos
                        .get(&uid)
                        .map(|h| {
                            h.at_depth(exchange.depth())
                                .unwrap_or_else(|| Arc::clone(h))
                        })
                        .unwrap_or_else(|| Arc::clone(exchange));
                    Node {
                        name: format!("halo({})", ex.data_name()),
                        kind: NodeKind::Halo { exchange: ex },
                        source: None,
                        fused_sources: Vec::new(),
                    }
                }
            };
            out.add_node(node);
        }
        for e in g.edges() {
            out.add_edge(Edge {
                from: e.from,
                to: e.to,
                kind: e.kind,
                data: e.data.map(map_uid),
            });
        }
        out
    };
    let graph = rebind_graph(&plan.graph);
    // Descriptor byte sizes change with grid size, so recompute the cache;
    // the device plan only depends on the src/dst pair structure and can
    // be shared when that is unchanged (the common case).
    let halo_descs = precompute_halo_descs(&graph);
    let same_pairs = halo_descs.len() == plan.halo_descs.len()
        && halo_descs.iter().zip(&plan.halo_descs).all(|(a, b)| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.src == y.src && x.dst == y.dst)
        });
    // A chunked device plan additionally bakes in per-descriptor chunk
    // counts, which follow the payload *bytes* — a rebind onto a larger
    // grid can change them even when the pair structure is identical.
    let policy = plan.device_plan.chunk_policy();
    let same_chunks = !plan.device_plan.chunked()
        || halo_descs.iter().zip(&plan.halo_descs).all(|(a, b)| {
            a.iter()
                .zip(b)
                .all(|(x, y)| policy.chunks(x.bytes).0 == policy.chunks(y.bytes).0)
        });
    let device_plan = if same_pairs && same_chunks {
        Arc::clone(&plan.device_plan)
    } else {
        Arc::new(build_device_plan_policy(
            &graph,
            &plan.schedule,
            &plan.data_parents,
            plan.device_plan.ndev(),
            if plan.device_plan.chunked() {
                CommMode::ChunkEvents
            } else {
                CommMode::Epoch
            },
            policy,
        ))
    };
    Arc::new(CompiledPlan {
        dependency_graph: rebind_graph(&plan.dependency_graph),
        graph,
        schedule: Arc::clone(&plan.schedule),
        device_plan,
        data_parents: plan.data_parents.clone(),
        halo_descs,
        timings: Vec::new(),
        dumps: plan.dumps.clone(),
        compile_trace: Trace::new(),
        containers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::FusionLevel;
    use crate::occ::OccLevel;
    use neon_domain::{ops, DenseGrid, Dim3, Field, MemLayout, ScalarSet, Stencil, StorageMode};

    fn sequence(ndev: usize, nz: usize) -> (Backend, Vec<Container>) {
        let b = Backend::dgx_a100(ndev);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, nz), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 1.0, MemLayout::SoA).unwrap();
        let dot = ScalarSet::<f64>::new(ndev, "dot", 0.0, |a, b| a + b);
        let seq = vec![ops::set_value(&g, &x, 2.0), ops::dot(&g, &x, &x, &dot)];
        (b, seq)
    }

    #[test]
    fn identical_sequences_share_one_compilation() {
        let opts = SkeletonOptions::default();
        let (b, seq1) = sequence(2, 8);
        let (p1, hit1) = compile(&b, seq1, opts).unwrap();
        let (_b2, seq2) = sequence(2, 8);
        let (p2, hit2) = compile(&b, seq2, opts).unwrap();
        assert!(
            !hit1 || hit2,
            "second lookup cannot be colder than the first"
        );
        assert!(hit2, "structurally identical sequence must hit");
        assert!(
            Arc::ptr_eq(p1.schedule_arc(), p2.schedule_arc()),
            "schedule compiled once, shared"
        );
        // The rebound plan is bound to the *new* containers.
        assert!(!p2.containers().is_empty());
        assert!(
            p2.pass_timings().is_empty(),
            "cache hit does no compile work"
        );
    }

    #[test]
    fn grid_size_does_not_fragment_the_cache() {
        let opts = SkeletonOptions::default();
        let (b, small) = sequence(2, 8);
        let (_, _) = compile(&b, small, opts).unwrap();
        let (_b, large) = sequence(2, 64);
        let (_, hit) = compile(&b, large, opts).unwrap();
        assert!(hit, "same structure over a bigger grid reuses the plan");
    }

    #[test]
    fn options_and_backend_fragment_the_cache() {
        let (b, seq1) = sequence(2, 8);
        let (_, _) = compile(&b, seq1, SkeletonOptions::default()).unwrap();
        let (_b, seq2) = sequence(2, 8);
        let (_, hit) = compile(
            &b,
            seq2,
            SkeletonOptions::with_occ(OccLevel::TwoWayExtended),
        )
        .unwrap();
        assert!(!hit, "different OCC level compiles fresh");
        let (b4, seq3) = sequence(4, 8);
        let (_, hit) = compile(&b4, seq3, SkeletonOptions::default()).unwrap();
        assert!(!hit, "different device count compiles fresh");
    }

    #[test]
    fn cache_opt_out_always_compiles_fresh() {
        let opts = SkeletonOptions {
            cache: false,
            ..Default::default()
        };
        let (b, seq1) = sequence(2, 8);
        let (p1, hit1) = compile(&b, seq1, opts).unwrap();
        let (_b, seq2) = sequence(2, 8);
        let (p2, hit2) = compile(&b, seq2, opts).unwrap();
        assert!(!hit1 && !hit2);
        assert!(!Arc::ptr_eq(p1.schedule_arc(), p2.schedule_arc()));
    }

    #[test]
    fn runtime_options_do_not_fragment_the_key() {
        let base = SkeletonOptions::default();
        let traced = SkeletonOptions {
            trace: true,
            functional_mode: crate::exec::FunctionalMode::Serial,
            resilience: crate::skeleton::ResilienceOptions {
                enabled: true,
                max_attempts: 9,
                backoff_us: 1.0,
                checkpoint_interval: 2,
            },
            ..Default::default()
        };
        assert_eq!(options_signature(&base), options_signature(&traced));
    }

    #[test]
    fn every_graph_shaping_option_fragments_the_signature() {
        // Audit: each option that changes the compiled graph or schedule
        // must be part of the cache key, or a cache hit would silently
        // hand back a plan compiled under different semantics.
        let base = SkeletonOptions::default();
        let variants: Vec<(&str, SkeletonOptions)> = vec![
            (
                "occ",
                SkeletonOptions {
                    occ: OccLevel::TwoWayExtended,
                    ..base
                },
            ),
            (
                "hints",
                SkeletonOptions {
                    hints: false,
                    ..base
                },
            ),
            (
                "kernel_concurrency",
                SkeletonOptions {
                    kernel_concurrency: true,
                    ..base
                },
            ),
            (
                "halo_policy",
                SkeletonOptions {
                    halo_policy: HaloPolicy::UnifiedMemory {
                        page_bytes: 65536,
                        fault_us: 20.0,
                        bandwidth_gb_s: 32.0,
                    },
                    ..base
                },
            ),
            (
                "fusion",
                SkeletonOptions {
                    fusion: FusionLevel::Off,
                    ..base
                },
            ),
            (
                "fusion-temporal-2",
                SkeletonOptions {
                    fusion: FusionLevel::Temporal(2),
                    ..base
                },
            ),
            (
                "fusion-temporal-3",
                SkeletonOptions {
                    fusion: FusionLevel::Temporal(3),
                    ..base
                },
            ),
            (
                "collectives",
                SkeletonOptions {
                    collectives: CollectiveMode::Fixed(neon_comm::Algorithm::Tree),
                    ..base
                },
            ),
            (
                "comm",
                SkeletonOptions {
                    comm: CommMode::Epoch,
                    ..base
                },
            ),
            (
                "dump_ir",
                SkeletonOptions {
                    dump_ir: true,
                    ..base
                },
            ),
            (
                "layout",
                SkeletonOptions {
                    layout: crate::layout_select::LayoutPolicy::FixedAoS,
                    ..base
                },
            ),
        ];
        let sig = options_signature(&base);
        for (name, v) in &variants {
            assert_ne!(
                options_signature(v),
                sig,
                "flipping `{name}` must miss the plan cache"
            );
        }
        // And pairwise: no two variants may collide either.
        for i in 0..variants.len() {
            for j in (i + 1)..variants.len() {
                assert_ne!(
                    options_signature(&variants[i].1),
                    options_signature(&variants[j].1),
                    "`{}` and `{}` collide",
                    variants[i].0,
                    variants[j].0
                );
            }
        }
    }

    /// A sequence with a stencil consumer, so the compiled graph carries
    /// a halo node (the chunk-events device plan is only observably
    /// different when one exists).
    fn stencil_sequence(ndev: usize) -> (Backend, Vec<Container>) {
        use neon_domain::{FieldStencil as _, FieldWrite as _, GridLike as _};
        let b = Backend::dgx_a100(ndev);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 1.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let lap = {
            let (xc, yc) = (x.clone(), y.clone());
            Container::compute("lap", g.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c| {
                    let mut s = 0.0;
                    for slot in 0..6 {
                        s += xv.ngh(c, slot, 0);
                    }
                    yv.set(c, 0, s);
                })
            })
        };
        (b, vec![ops::set_value(&g, &x, 2.0), lap])
    }

    #[test]
    fn comm_mode_fragments_the_cache() {
        // Regression: Epoch and ChunkEvents device plans differ (the
        // latter carries per-chunk arrival slots), so the two modes must
        // compile fresh instead of aliasing in the cache.
        let (b, seq1) = stencil_sequence(2);
        let (base_plan, _) = compile(
            &b,
            seq1,
            SkeletonOptions {
                comm: CommMode::Epoch,
                ..Default::default()
            },
        )
        .unwrap();
        let (_b, seq2) = stencil_sequence(2);
        let (p, hit) = compile(&b, seq2, SkeletonOptions::default()).unwrap();
        assert!(!hit, "different comm mode compiles fresh");
        assert!(p.device_plan().chunked());
        assert!(!base_plan.device_plan().chunked());
        // The chunked plan carries strictly more event slots: the halo
        // node gained a per-chunk arrival region.
        assert!(p.device_plan().num_slots() > base_plan.device_plan().num_slots());
    }

    #[test]
    fn fusion_level_fragments_the_cache() {
        let (b, seq1) = sequence(2, 8);
        let _ = compile(&b, seq1, SkeletonOptions::default()).unwrap();
        let (_b, seq2) = sequence(2, 8);
        let (_, hit) = compile(
            &b,
            seq2,
            SkeletonOptions {
                fusion: FusionLevel::Off,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!hit, "different fusion level compiles fresh");
    }
}
