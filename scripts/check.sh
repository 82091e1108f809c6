#!/usr/bin/env bash
# Local mirror of the CI pipeline: build, test, format check, clippy.
# Run from the repository root before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

# CI sets this for every step (neonbench/ included): warnings fail the build.
export RUSTFLAGS="-D warnings"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace --quiet"
cargo test --workspace --quiet

echo "==> golden IR dump (compiler pipeline output pinned, incl. layout-select)"
cargo test -p neon-core --test golden_ir_dump --quiet

echo "==> layout/shape properties (AoS=SoA and shaped=generic bit-identity)"
cargo test -p neon-core --test layout_shape_properties --quiet

echo "==> functional executor smoke (parallel must match serial bit-for-bit)"
cargo run --release -p neon-bench --bin repro_functional -- --smoke

echo "==> fusion smoke (fused must match unfused bit-for-bit and cut launches/bytes)"
cargo run --release -p neon-bench --bin repro_fusion -- --smoke

echo "==> temporal smoke (super-steps bit-identical, 1 deep round per k iters, 4-dev win >= 25%)"
cargo run --release -p neon-bench --bin repro_temporal -- --smoke

echo "==> fault smoke (retry/rollback/eviction must recover bit-identically)"
cargo run --release -p neon-bench --bin repro_faults -- --smoke

echo "==> serving smoke (multiplexed jobs bit-identical to solo, wfq >= 1.3x fifo, Jain >= 0.9)"
cargo run --release -p neon-bench --bin repro_serve -- --smoke

echo "==> hierarchical smoke (bit-identical, >=20% win on [2,2]x16MiB, fewer slow-link bytes, chunk-events never loses)"
cargo run --release -p neon-bench --bin repro_hierarchical -- --smoke

echo "==> collectives smoke (2-dev 8 B NVLink all-reduce <= 1.05x link latency, auto never slower on NVLink up to one chunk)"
cargo run --release -p neon-bench --bin repro_collectives -- --smoke

echo "==> degraded-link smoke (transient overhead <= 10%, link repairs bit-transparent, split reroutes flat, straggler rebalance wins)"
cargo run --release -p neon-bench --bin repro_degraded -- --smoke

echo "==> benchmark build + tests (neonbench/ is its own workspace over the library crates)"
cargo build --release --manifest-path neonbench/Cargo.toml
cargo test --manifest-path neonbench/Cargo.toml

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."
