#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, the chaos and transport
# suites under --release, a bounded DST smoke sweep, and quick
# live-executor snapshots. Leaves results/BENCH_live.json,
# results/BENCH_chaos.json, results/BENCH_net.json,
# results/BENCH_cache.json, results/BENCH_straggler.json,
# results/BENCH_elastic.json, results/BENCH_tenancy.json,
# results/BENCH_epoch.json, and
# results/BENCH_dst.json behind so every pass records comparable
# throughput, recovery-time, wire-overhead, cache-plane,
# straggler-mitigation, elastic-membership, multi-tenancy,
# incremental-epoch, and chaos-coverage numbers
# (see DESIGN.md §8c–§8l). The full randomized DST sweep stays behind
# `dst_bench --runs N --preset chaos` (docs/DST.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --workspace --release"
cargo build --workspace --release

# clippy.toml sets too-many-lines-threshold = 150; the executor modules
# deny clippy::too_many_lines, so an over-long function fails here.
echo "== tier1: cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== tier1: cargo test -q --workspace"
cargo test -q --workspace

# benchmark/ is its own workspace, frozen against the public API
# (benchmark/src/sut.rs): build and test it here so an API break fails
# tier-1 instead of the benchmark gate.
echo "== tier1: benchmark/ builds and passes against the current crates"
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== tier1: chaos suite (release)"
cargo test -q --release -p eclipse-integration-tests --test chaos

echo "== tier1: wire-codec property suite (release)"
cargo test -q --release -p eclipse-integration-tests --test net_codec

echo "== tier1: transport-identity matrix, loopback TCP (release)"
cargo test -q --release -p eclipse-integration-tests --test net_matrix

echo "== tier1: live throughput (quick)"
cargo run -q --release -p eclipse-bench --bin live_bench -- --quick --out results/BENCH_live.json

echo "== tier1: fault-path recovery cost (quick)"
cargo run -q --release -p eclipse-bench --bin chaos_bench -- --quick --out results/BENCH_chaos.json

echo "== tier1: transport overhead, TCP vs in-memory (quick)"
cargo run -q --release -p eclipse-bench --bin net_bench -- --quick --out results/BENCH_net.json

echo "== tier1: cache-plane micro + warm-run (quick)"
cargo run -q --release -p eclipse-bench --bin cache_bench -- --quick --out results/BENCH_cache.json

echo "== tier1: straggler mitigation, speculation + replicated map-out (quick)"
cargo run -q --release -p eclipse-bench --bin straggler_bench -- --quick --out results/BENCH_straggler.json

echo "== tier1: elastic membership, runtime join + graceful leave (quick)"
cargo run -q --release -p eclipse-bench --bin elastic_bench -- --quick --out results/BENCH_elastic.json

echo "== tier1: multi-tenant job server, pool vs serial + cache quotas (quick)"
cargo run -q --release -p eclipse-bench --bin tenancy_bench -- --quick --out results/BENCH_tenancy.json

echo "== tier1: incremental epochs, 1% delta commit vs batch re-run (quick)"
cargo run -q --release -p eclipse-bench --bin epoch_bench -- --quick --out results/BENCH_epoch.json

echo "== tier1: DST smoke sweep (50 fixed seeds, moderate preset)"
cargo run -q --release -p eclipse-bench --bin dst_bench -- --runs 50 --seed0 1 --preset moderate --out results/BENCH_dst.json

echo "== tier1: OK"
