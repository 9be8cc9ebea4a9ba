#!/usr/bin/env bash
# Tier-1 gate: release build, clippy, rustdoc, the full test suite, the frozen
# benchmark/ package's build and tests, the live-matrix, live-property,
# edge-case, chaos, tenancy, transport, cache/net/apps/core unit and epoch
# suites under --release, the figure CSVs against results/, and two bounded DST
# smoke sweeps. It measures nothing: live performance is the benchmark's
# job (benchmark/README.md) and the paper's figures come from `figures`. Writes no tracked file, so a
# passing run leaves `git status` clean. The full randomized DST sweep
# stays behind `dst_bench --runs N --preset chaos` (docs/DST.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --workspace --release"
cargo build --workspace --release

# clippy.toml sets too-many-lines-threshold = 150; the executor modules
# deny clippy::too_many_lines, so an over-long function fails here.
# --all-targets lints the tests, property tests, ignored timing tests
# and examples too, not only the libraries and binaries.
echo "== tier1: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Public items come and go; a dangling or private intra-doc link fails
# here instead of rotting silently.
echo "== tier1: rustdoc, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== tier1: cargo test -q --workspace"
cargo test -q --workspace

# benchmark/ is its own workspace, frozen against the public API
# (benchmark/src/sut.rs): build and test it here so an API break fails
# tier-1 instead of the benchmark gate.
echo "== tier1: benchmark/ builds and passes against the current crates"
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

# live_matrix pins the combining path on both sides of the shuffle
# (borrowed emit, binary accumulator folded in place in the
# open-addressing table, default adapters, the reduce partition's
# combining fold) and the sorted-run path of the apps without a
# combiner (against an in-order oracle) to byte-identical output in
# every cell.
echo "== tier1: live output-identity matrix (release)"
cargo test -q --release -p eclipse-integration-tests --test live_matrix

# live_properties drives the combining table over random corpora
# (wordcount_equals_reference, multi_input_counts_add) with the
# optimiser's codegen, not only the debug build's.
echo "== tier1: live property suite (release)"
cargo test -q --release -p eclipse-integration-tests --test live_properties

# edge_cases pins the sorted-run record shapes (empty keys and values,
# prefix keys, a shared prefix ending inside a code point, a silent
# block) to the same bytes over memory and TCP.
echo "== tier1: edge cases (release)"
cargo test -q --release -p eclipse-integration-tests --test edge_cases

echo "== tier1: chaos suite (release)"
cargo test -q --release -p eclipse-integration-tests --test chaos

# Pool workers run other runs' tasks as those tasks' nodes while jobs
# overlap; the optimiser's timing is where such interleavings show.
echo "== tier1: tenancy suite (release)"
cargo test -q --release -p eclipse-integration-tests --test tenancy

echo "== tier1: wire-codec property suite (release)"
cargo test -q --release -p eclipse-integration-tests --test net_codec

# The LRU is checked against a reference model, and the shards against
# their partition invariants and, at one shard, a bare LRU: those unit
# and property tests run with the optimiser's codegen too.
echo "== tier1: cache unit and property suites (release)"
cargo test -q --release -p eclipse-cache

# The run codec's repeated-key paths and the text apps' tokenizer are
# byte-level fast paths: their unit and property tests (columns,
# front-coding, decoding, the prefix merge; tokens equal to
# split_whitespace's) also run with the optimiser's codegen.
echo "== tier1: net and apps unit suites (release)"
cargo test -q --release -p eclipse-net -p eclipse-apps

# The executor's spill arena, combining table, partition merge and
# combining fold are fast paths too: their unit and property tests run
# with the optimiser's codegen as well.
echo "== tier1: core unit suite (release)"
cargo test -q --release -p eclipse-core --lib

echo "== tier1: transport-identity matrix, loopback TCP (release)"
cargo test -q --release -p eclipse-integration-tests --test net_matrix

echo "== tier1: epoch/batch identity matrix (release)"
cargo test -q --release -p eclipse-integration-tests --test epoch_matrix

# The committed CSVs under results/ are the simulator's golden output:
# every figure is regenerated and must match byte for byte. A change
# that moves a figure on purpose updates results/ and EXPERIMENTS.md in
# the same commit.
echo "== tier1: figure CSVs match results/"
rm -rf target/figures
cargo run -q --release -p eclipse-bench --bin figures -- all --csv target/figures > /dev/null
diff -r results target/figures

# Batch and epoch-mode seeds share one runner (docs/DST.md), so a
# thousand moderate seeds (~6.5 s on 2 CPUs) drive it through both
# kinds of seed at the moderate rates.
echo "== tier1: DST smoke sweep (1000 fixed seeds, moderate preset)"
cargo run -q --release -p eclipse-bench --bin dst_bench -- --runs 1000 --seed0 1 --preset moderate --out target/dst_smoke.json

# Batch seeds map the way a job server does (inline driver plus
# helpers), so the chaos preset's crashes, joins and leaves reach that
# shape in every gate run. A thousand seeds (~11 s on 2 CPUs) cover
# which frames a membership change exposes to drop and cut tokens.
echo "== tier1: DST smoke sweep (1000 fixed seeds, chaos preset)"
cargo run -q --release -p eclipse-bench --bin dst_bench -- --runs 1000 --seed0 1 --preset chaos --out target/dst_chaos_smoke.json

echo "== tier1: OK"
