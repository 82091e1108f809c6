//! The host record printed with every run: cores, cache sizes, a
//! single-thread triad bandwidth calibrated at startup, toolchain and
//! source revision.

use std::hint::black_box;
use std::time::Instant;

/// Elements per triad array: 4 Mi f64 = 32 MiB per array, 96 MiB for the
/// three. That is far above L2 but inside the shared LLC a virtualised
/// host may report (300 MiB was seen); the usual rule of arrays at 4× LLC
/// would need over 3.5 GiB on such a host, which is not practical in a
/// benchmark that shares its machine, so the figure is labelled as
/// LLC-resident-capable.
const TRIAD_LEN: usize = 4 << 20;
const TRIAD_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub l2_bytes: Option<u64>,
    pub llc_bytes: Option<u64>,
    /// Best-of-`TRIAD_REPS` single-thread triad, computed GB/s
    /// (24 bytes per element: two loads and a store, no write-allocate).
    pub triad_gbs: f64,
    pub rustc: &'static str,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let (l2_bytes, llc_bytes) = cache_sizes();
        Host {
            nproc: neon_sys::host_cores(),
            l2_bytes,
            llc_bytes,
            triad_gbs: triad_gbs(),
            rustc: env!("NEONBENCH_RUSTC"),
            commit: commit(),
        }
    }

    pub fn print(&self) {
        let mib = |b: Option<u64>| b.map_or("unknown".to_string(), |b| format!("{}", b >> 20));
        println!(
            "host nproc={} l2_mib={} llc_mib={} triad_gbs_computed={:.2} \
             triad_array_mib={} rustc=\"{}\" commit={}",
            self.nproc,
            mib(self.l2_bytes),
            mib(self.llc_bytes),
            self.triad_gbs,
            (TRIAD_LEN * 8) >> 20,
            self.rustc,
            self.commit,
        );
        println!(
            "host note: every bytes/s figure is computed from modelled bytes, not \
             counted; triad arrays of 4x LLC are not practical on this host"
        );
    }
}

/// `a = b + s·c` on one thread, best of a few passes after a warm-up pass.
fn triad_gbs() -> f64 {
    let b = vec![1.0f64; TRIAD_LEN];
    let c = vec![2.0f64; TRIAD_LEN];
    let mut a = vec![0.0f64; TRIAD_LEN];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for rep in 0..=TRIAD_REPS {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        let dt = t.elapsed().as_secs_f64();
        if rep > 0 {
            best = best.min(dt);
        }
    }
    assert_eq!(a[TRIAD_LEN / 2], 7.0, "triad computed the wrong values");
    (24 * TRIAD_LEN) as f64 / best / 1e9
}

/// L2 and last-level cache sizes from CPUID's deterministic cache
/// parameters (leaf 4 on Intel, 0x8000_001D on AMD); `None` elsewhere.
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    let vendor = __cpuid(0);
    let leaf = if vendor.ebx == 0x6874_7541 {
        // "Auth" (AuthenticAMD)
        0x8000_001D
    } else {
        4
    };
    let (mut l2, mut llc, mut llc_level) = (None, None, 0);
    for i in 0..16 {
        // Out-of-range subleaves report cache type 0.
        let r = __cpuid_count(leaf, i);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if kind == 2 {
            continue; // instruction cache
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        let size = ways * parts * line * sets;
        if level == 2 {
            l2 = Some(size);
        }
        if level >= llc_level {
            llc_level = level;
            llc = Some(size);
        }
    }
    (l2, llc)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    (None, None)
}

/// The checked-out revision when the benchmark runs from a git work tree
/// (read from `.git` under the working directory), `unknown` otherwise.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}
