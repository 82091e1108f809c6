//! Collective algorithms and the analytic cost model used to pick one.
//!
//! Four flat algorithms are modelled, mirroring the classic NCCL/MPI
//! trade-off:
//!
//! * **Host-staged** — every device copies its full payload to the host,
//!   the host combines, every device copies the result back. All `2n`
//!   copies go through the shared host root complex, so they serialize.
//!   This is the naive baseline Neon's original reduce containers used.
//! * **Ring** — `2(n−1)` steps of shard-sized (`B/n`) neighbour transfers.
//!   Asymptotically bandwidth-optimal: total data moved per device is
//!   `2B(n−1)/n`, independent of `n`.
//! * **Binomial tree** — `⌈log₂ n⌉` reduce rounds to rank 0 followed by
//!   `⌈log₂ n⌉` broadcast rounds, each moving the full payload. Fewer
//!   latency terms than ring, more bytes: wins for small messages.
//! * **Recursive doubling** — all-reduce only: partners `a ^ mask`
//!   exchange the full payload concurrently for `⌊log₂ n⌋` rounds (plus a
//!   fold round before and an unfold round after when `n` is not a power
//!   of two). Half the tree's latency terms where the rounds overlap (NVLink);
//!   on PCIe every round's concurrent sends share the root complex, so it
//!   never beats the tree there.
//!
//! [`choose`] evaluates [`estimate_us`] for all of them against the actual
//! topology (link class decides whether peer steps overlap or serialize
//! through the root complex) and picks the cheapest — selection is driven
//! by both the interconnect and the message size.

use std::fmt;

use neon_sys::topology::{LinkKind, LinkModel, Topology};
use neon_sys::DeviceId;

/// A collective communication algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Stage every partial through the host (naive baseline).
    HostStaged,
    /// Ring with shard-sized steps (bandwidth-optimal).
    Ring,
    /// Binomial reduce-to-root + broadcast (latency-optimal).
    Tree,
    /// Pairwise full-payload exchange between partners `a ^ mask`,
    /// `⌊log₂ n⌋` rounds, with a fold/unfold round for the ranks beyond
    /// the largest power of two. All-reduce only; the other kinds run the
    /// binomial tree.
    RecursiveDoubling,
    /// Topology-hierarchical: reduce inside each NVLink island, exchange
    /// one representative per island across the slow cross-island links,
    /// broadcast back inside. Crosses the slow links `2(r−1)` times for
    /// `r` islands — the minimum any spanning exchange can do — instead
    /// of paying them on every flat ring/tree step.
    Hierarchical,
}

impl Algorithm {
    /// The flat (topology-oblivious) algorithms, for sweeps. Selection
    /// keeps the first of equally cheap candidates, so the order breaks
    /// ties.
    pub const FLAT: [Algorithm; 4] = [
        Algorithm::HostStaged,
        Algorithm::Ring,
        Algorithm::Tree,
        Algorithm::RecursiveDoubling,
    ];
    /// All algorithms, for sweeps.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::HostStaged,
        Algorithm::Ring,
        Algorithm::Tree,
        Algorithm::RecursiveDoubling,
        Algorithm::Hierarchical,
    ];
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algorithm::HostStaged => "host-staged",
            Algorithm::Ring => "ring",
            Algorithm::Tree => "tree",
            Algorithm::RecursiveDoubling => "recursive-doubling",
            Algorithm::Hierarchical => "hierarchical",
        })
    }
}

/// Which collective primitive is being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Element-wise reduction, result on every rank.
    AllReduce,
    /// Element-wise reduction, each rank keeps one shard.
    ReduceScatter,
    /// Concatenate per-rank shards onto every rank.
    AllGather,
    /// Copy the root's payload to every rank.
    Broadcast,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CollectiveKind::AllReduce => "all-reduce",
            CollectiveKind::ReduceScatter => "reduce-scatter",
            CollectiveKind::AllGather => "all-gather",
            CollectiveKind::Broadcast => "broadcast",
        })
    }
}

/// Analytic cost of running `kind` with `alg` over `ndev` devices and
/// `bytes` of payload, in microseconds.
///
/// `peer` is the device↔device link, `host` the device↔host staging link.
/// When the peer link is PCIe-class, concurrent steps of a round share the
/// host root complex and are charged serially; NVLink rounds overlap.
///
/// [`Algorithm::Hierarchical`]'s cost depends on the island structure,
/// which a single peer link cannot express — use
/// [`estimate_hierarchical_us`]; this function returns `f64::INFINITY`
/// for it so min-loops over [`Algorithm::ALL`] never pick it blindly.
pub fn estimate_us(
    alg: Algorithm,
    kind: CollectiveKind,
    ndev: usize,
    bytes: u64,
    peer: &LinkModel,
    host: &LinkModel,
) -> f64 {
    if ndev <= 1 {
        return 0.0;
    }
    let n = ndev as f64;
    let shard = (bytes as f64 / n).ceil() as u64;
    // Number of peer transfers that can run at once within one round.
    let serial = if peer.kind == LinkKind::PciE3 { n } else { 1.0 };
    match alg {
        Algorithm::HostStaged => {
            let full = host.transfer_time(bytes).as_us();
            let shard_t = host.transfer_time(shard).as_us();
            // All copies serialize through the root complex.
            match kind {
                CollectiveKind::AllReduce => 2.0 * n * full,
                CollectiveKind::ReduceScatter => n * full + n * shard_t,
                CollectiveKind::AllGather => n * shard_t + n * full,
                CollectiveKind::Broadcast => full + n * full,
            }
        }
        Algorithm::Ring => {
            let step = peer.transfer_time(shard).as_us() * serial;
            let steps = match kind {
                CollectiveKind::AllReduce => 2.0 * (n - 1.0),
                CollectiveKind::ReduceScatter | CollectiveKind::AllGather => n - 1.0,
                // Pipelined pass-along: latency of n−1 hops, bandwidth of
                // the full payload on the slowest hop.
                CollectiveKind::Broadcast => {
                    return (n - 1.0) * peer.latency_us * serial
                        + peer.transfer_time(bytes).as_us() * serial;
                }
            };
            steps * step
        }
        Algorithm::Tree => {
            let rounds = (ndev as f64).log2().ceil();
            // Within one round at most half the devices transmit at once.
            let round_serial = if peer.kind == LinkKind::PciE3 {
                (n / 2.0).max(1.0)
            } else {
                1.0
            };
            let round = peer.transfer_time(bytes).as_us() * round_serial;
            match kind {
                CollectiveKind::AllReduce => 2.0 * rounds * round,
                CollectiveKind::ReduceScatter | CollectiveKind::AllGather => {
                    rounds * round + n * peer.transfer_time(shard).as_us()
                }
                CollectiveKind::Broadcast => rounds * round,
            }
        }
        Algorithm::RecursiveDoubling => {
            if kind != CollectiveKind::AllReduce {
                return estimate_us(Algorithm::Tree, kind, ndev, bytes, peer, host);
            }
            // `p` ranks exchange for log₂ p rounds; the `n − p` extra ranks
            // fold into them before and unfold after. A round's sends run
            // at once: they overlap on dedicated links, and through the
            // PCIe root complex they are charged one after another at the
            // busiest round's count, `p` — the same bound the tree uses.
            let p = 1usize << ndev.ilog2();
            let rounds = p.ilog2() as f64 + if p < ndev { 2.0 } else { 0.0 };
            let round_serial = if peer.kind == LinkKind::PciE3 {
                p as f64
            } else {
                1.0
            };
            rounds * round_serial * peer.transfer_time(bytes).as_us()
        }
        Algorithm::Hierarchical => f64::INFINITY,
    }
}

/// Analytic cost of the hierarchical schedule on this topology, in
/// microseconds: binomial rounds inside each NVLink island (islands
/// overlap on their dedicated links, so the deepest island dominates),
/// plus `r − 1` sequential full-payload transfers each way across the
/// slow cross-island links for `r` islands.
pub fn estimate_hierarchical_us(kind: CollectiveKind, bytes: u64, topo: &Topology) -> f64 {
    let ndev = topo.num_devices();
    if ndev <= 1 {
        return 0.0;
    }
    let islands = topo.islands();
    let r = islands.len() as f64;
    // Intra-island phase: binomial rounds over the island's internal link;
    // different islands run on disjoint dedicated links and overlap.
    let intra_rounds = islands
        .iter()
        .map(|i| (i.len() as f64).log2().ceil())
        .fold(0.0, f64::max);
    let intra = islands.iter().find(|i| i.len() > 1).map_or(0.0, |i| {
        intra_rounds * topo.transfer_time(i[0], i[1], bytes).as_us()
    });
    // Inter-island phase: representatives exchange sequentially over the
    // shared slow path (they would serialize through the root complex
    // anyway, and a sequential schedule avoids arbitration penalties).
    let inter_one_way = if islands.len() > 1 {
        (r - 1.0)
            * topo
                .transfer_time(islands[0][0], islands[1][0], bytes)
                .as_us()
    } else {
        0.0
    };
    match kind {
        CollectiveKind::AllReduce => 2.0 * intra + 2.0 * inter_one_way,
        CollectiveKind::Broadcast => intra + inter_one_way,
        // Reduce-to-root plus a shard scatter ≈ the all-reduce shape for
        // selection purposes (shards are cheaper than the full payload,
        // so this errs conservative).
        CollectiveKind::ReduceScatter | CollectiveKind::AllGather => {
            2.0 * intra + 2.0 * inter_one_way
        }
    }
}

/// Pick the cheapest *flat* algorithm for `kind` on this topology and
/// payload (hierarchical excluded — the pre-island selection behavior,
/// kept as the baseline the hierarchical schedule is measured against).
pub fn choose_flat(kind: CollectiveKind, bytes: u64, topo: &Topology) -> Algorithm {
    let ndev = topo.num_devices();
    if ndev <= 1 {
        return Algorithm::Ring;
    }
    let peer = *topo.link(DeviceId(0), DeviceId(ndev - 1));
    let host = *topo.host_link();
    let mut best = Algorithm::Ring;
    let mut best_t = f64::INFINITY;
    for alg in Algorithm::FLAT {
        let link = match alg {
            Algorithm::RecursiveDoubling => slowest_exchange_link(topo, bytes),
            _ => peer,
        };
        let t = estimate_us(alg, kind, ndev, bytes, &link, &host);
        if t < best_t {
            best_t = t;
            best = alg;
        }
    }
    best
}

/// The slowest link recursive doubling's fold, exchange and unfold pairs
/// use on `topo`. Its rounds are lock-step, so one slow pair — a severed
/// wire staged through the host, a degraded one — sets the pace of its
/// round; on a uniform topology this is just the peer link.
fn slowest_exchange_link(topo: &Topology, bytes: u64) -> LinkModel {
    let n = topo.num_devices();
    let p = 1usize << n.ilog2();
    let fold = (p..n).flat_map(|r| [(r, r - p), (r - p, r)]);
    let rounds = (0..p).flat_map(|a| (0..p.ilog2()).map(move |b| (a, a ^ (1 << b))));
    fold.chain(rounds)
        .map(|(a, b)| *topo.link(DeviceId(a), DeviceId(b)))
        .fold(*topo.link(DeviceId(0), DeviceId(1)), |slow, l| {
            if l.transfer_time(bytes) > slow.transfer_time(bytes) {
                l
            } else {
                slow
            }
        })
}

/// Pick the cheapest algorithm for `kind` on this topology and payload.
///
/// Selection is driven by the topology's link class and the message size:
/// small payloads on NVLink favour recursive doubling (fewest latency
/// terms, overlapped pairwise), large payloads favour the ring
/// (bandwidth-optimal), and PCIe boxes fall back to host staging when
/// serialization erases the peer algorithms' edge.
/// On *mixed* topologies — more than one island, at least one with an
/// NVLink interior, as produced by multi-box fleets and by asymmetric
/// survivor subsets after device eviction — the hierarchical schedule
/// competes too, whatever the island sizes (they need not be powers of
/// two or balanced).
pub fn choose(kind: CollectiveKind, bytes: u64, topo: &Topology) -> Algorithm {
    let ndev = topo.num_devices();
    if ndev <= 1 {
        return Algorithm::Ring;
    }
    let flat = choose_flat(kind, bytes, topo);
    let islands = topo.islands();
    let mixed = islands.len() > 1 && islands.iter().any(|i| i.len() > 1);
    if !mixed {
        return flat;
    }
    let peer = *topo.link(DeviceId(0), DeviceId(ndev - 1));
    let host = *topo.host_link();
    let flat_t = estimate_us(flat, kind, ndev, bytes, &peer, &host);
    if estimate_hierarchical_us(kind, bytes, topo) < flat_t {
        Algorithm::Hierarchical
    } else {
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_nvlink_all_reduce_prefers_recursive_doubling() {
        // Three overlapped exchange rounds beat the tree's six sequential
        // ones; the tree still beats the ring's fourteen shard steps.
        let topo = Topology::nvlink_all_to_all(8, 1555.0);
        assert_eq!(
            choose(CollectiveKind::AllReduce, 8, &topo),
            Algorithm::RecursiveDoubling
        );
        let peer = LinkModel::nvlink();
        let host = LinkModel::pcie4_host();
        let est = |alg| estimate_us(alg, CollectiveKind::AllReduce, 8, 8, &peer, &host);
        assert!(est(Algorithm::Tree) < est(Algorithm::Ring));
    }

    #[test]
    fn recursive_doubling_prices_other_kinds_as_the_tree() {
        let peer = LinkModel::nvlink();
        let host = LinkModel::pcie4_host();
        for kind in [
            CollectiveKind::ReduceScatter,
            CollectiveKind::AllGather,
            CollectiveKind::Broadcast,
        ] {
            for n in 2..=8 {
                let est = |alg| estimate_us(alg, kind, n, 4 << 10, &peer, &host);
                assert_eq!(est(Algorithm::RecursiveDoubling), est(Algorithm::Tree));
                // Ties keep the earlier candidate, so it is never picked.
                let topo = Topology::nvlink_all_to_all(n, 1555.0);
                assert_ne!(choose(kind, 8, &topo), Algorithm::RecursiveDoubling);
            }
        }
    }

    #[test]
    fn large_nvlink_all_reduce_prefers_ring() {
        let topo = Topology::nvlink_all_to_all(8, 1555.0);
        assert_eq!(
            choose(CollectiveKind::AllReduce, 256 << 20, &topo),
            Algorithm::Ring
        );
    }

    #[test]
    fn selection_is_size_monotone_on_nvlink() {
        // Once ring wins it keeps winning as payloads grow.
        let topo = Topology::nvlink_all_to_all(8, 1555.0);
        let mut seen_ring = false;
        for shift in 0..30 {
            let alg = choose(CollectiveKind::AllReduce, 1u64 << shift, &topo);
            if seen_ring {
                assert_eq!(alg, Algorithm::Ring, "regressed at 2^{shift} bytes");
            }
            seen_ring |= alg == Algorithm::Ring;
        }
        assert!(seen_ring, "ring never selected");
    }

    #[test]
    fn pcie_small_messages_prefer_host_staging() {
        // With every peer step serialized through the root complex, the
        // latency-heavy peer algorithms lose to plain host staging.
        let topo = Topology::pcie_host_staged(8, 870.0);
        assert_eq!(
            choose(CollectiveKind::AllReduce, 8, &topo),
            Algorithm::HostStaged
        );
    }

    #[test]
    fn pcie_all_reduce_picks_are_pinned() {
        // The root complex serializes every peer step on this box, so the
        // selection here must not drift when algorithms are added.
        use Algorithm::{HostStaged as H, Ring as R, Tree as T};
        let sizes = [8u64, 4 << 10, 1 << 20, 64 << 20];
        let table: [(usize, [Algorithm; 4]); 7] = [
            (2, [T, T, T, T]),
            (3, [H, H, R, R]),
            (4, [H, H, R, R]),
            (5, [H, H, H, R]),
            (6, [H, H, H, R]),
            (7, [H, H, H, R]),
            (8, [H, H, H, R]),
        ];
        for (n, picks) in table {
            let topo = Topology::pcie_host_staged(n, 870.0);
            for (bytes, want) in sizes.into_iter().zip(picks) {
                assert_eq!(
                    choose(CollectiveKind::AllReduce, bytes, &topo),
                    want,
                    "{n} devices, {bytes} B"
                );
            }
        }
    }

    #[test]
    fn estimates_are_positive_and_finite() {
        let peer = LinkModel::nvlink();
        let host = LinkModel::pcie4_host();
        for alg in Algorithm::FLAT {
            for kind in [
                CollectiveKind::AllReduce,
                CollectiveKind::ReduceScatter,
                CollectiveKind::AllGather,
                CollectiveKind::Broadcast,
            ] {
                let t = estimate_us(alg, kind, 4, 1 << 20, &peer, &host);
                assert!(t.is_finite() && t > 0.0, "{alg}/{kind}: {t}");
            }
        }
        // The hierarchical estimate needs the topology, not a single link.
        assert_eq!(
            estimate_us(
                Algorithm::Hierarchical,
                CollectiveKind::AllReduce,
                4,
                1 << 20,
                &peer,
                &host
            ),
            f64::INFINITY
        );
        let topo = Topology::nvlink_islands(&[2, 2], 1555.0);
        let t = estimate_hierarchical_us(CollectiveKind::AllReduce, 1 << 20, &topo);
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn mixed_topologies_select_hierarchical() {
        for sizes in [&[2usize, 2][..], &[4, 4], &[3, 1], &[2, 1, 1], &[1, 4]] {
            let topo = Topology::nvlink_islands(sizes, 1555.0);
            for bytes in [8u64, 64 << 10, 16 << 20] {
                assert_eq!(
                    choose(CollectiveKind::AllReduce, bytes, &topo),
                    Algorithm::Hierarchical,
                    "islands {sizes:?}, {bytes} B"
                );
            }
        }
    }

    #[test]
    fn pure_topologies_never_select_hierarchical() {
        for topo in [
            Topology::nvlink_all_to_all(8, 1555.0),
            Topology::pcie_host_staged(8, 870.0),
        ] {
            for bytes in [8u64, 64 << 10, 16 << 20] {
                let alg = choose(CollectiveKind::AllReduce, bytes, &topo);
                assert_ne!(alg, Algorithm::Hierarchical, "{bytes} B");
                assert_eq!(alg, choose_flat(CollectiveKind::AllReduce, bytes, &topo));
            }
        }
    }

    #[test]
    fn asymmetric_survivor_subsets_select_hierarchical() {
        // Two 4-GPU boxes; a device loss leaves a 3+2 survivor subset.
        let fleet = Topology::nvlink_islands(&[4, 4], 1555.0);
        let survivors = fleet.with_devices(&[
            DeviceId(0),
            DeviceId(1),
            DeviceId(2),
            DeviceId(5),
            DeviceId(6),
        ]);
        assert_eq!(survivors.islands().len(), 2);
        for bytes in [8u64, 1 << 20] {
            assert_eq!(
                choose(CollectiveKind::AllReduce, bytes, &survivors),
                Algorithm::Hierarchical
            );
        }
        // A subset that falls entirely inside one island is pure NVLink
        // again and must not pretend to be hierarchical.
        let inside = fleet.with_devices(&[DeviceId(0), DeviceId(1), DeviceId(2)]);
        assert_ne!(
            choose(CollectiveKind::AllReduce, 1 << 20, &inside),
            Algorithm::Hierarchical
        );
    }

    #[test]
    fn single_device_costs_nothing() {
        let peer = LinkModel::nvlink();
        let host = LinkModel::pcie4_host();
        assert_eq!(
            estimate_us(
                Algorithm::Ring,
                CollectiveKind::AllReduce,
                1,
                1 << 20,
                &peer,
                &host
            ),
            0.0
        );
    }

    #[test]
    fn display_labels() {
        assert_eq!(Algorithm::Ring.to_string(), "ring");
        assert_eq!(Algorithm::HostStaged.to_string(), "host-staged");
        assert_eq!(Algorithm::Hierarchical.to_string(), "hierarchical");
        assert_eq!(CollectiveKind::AllReduce.to_string(), "all-reduce");
    }
}
