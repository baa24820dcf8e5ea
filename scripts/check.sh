#!/usr/bin/env bash
# Pre-PR gate: build, test, lint. Everything it checks is a `cargo test` or a
# `cargo clippy` finding; performance is gated separately, by the driver
# running `benchmark/` (BENCHMARK.json) on the parent commit and the change.
#
#   scripts/check.sh [--online]
#
# Offline by default (the dev container has no registry access; every
# dependency is vendored).
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=(--offline)
if [[ "${1:-}" == "--online" ]]; then
    CARGO_FLAGS=()
fi

echo "==> cargo build --release"
cargo build "${CARGO_FLAGS[@]}" --release

echo "==> cargo test (tier-1: every workspace crate, debug build)"
# `default-members` covers the workspace, so this is every crate's unit,
# integration, property and doc tests with debug assertions on — the sampled
# `Feature::compute` oracle inside the scoring kernel among them.
cargo test "${CARGO_FLAGS[@]}" -q

echo "==> cargo test --workspace --release"
# The same suites as shipped: optimized, overflow checks and debug assertions
# off. Also the only pass that runs crates/serve/tests/hot_allocations.rs,
# whose allocation budget the debug build's oracle overruns. What used to be
# a per-crate list here (scale pins, stream/workflow equivalence, counting
# allocators, kernels == naive, serve equivalence suites) and the
# `reproduce`-driven chaos and label-efficiency gates are all tests now.
cargo test "${CARGO_FLAGS[@]}" --workspace --release -q

echo "==> benchmark harness builds against the crates; its unit tests"
# benchmark/ is a workspace of its own that tier-1 never compiles: a crates/
# change that breaks an API it calls (`IncrementalIndex::new`/`insert`,
# `derive_feature_mask`/3, `ProbeScratch::new`, ...) would otherwise fail
# only inside the BENCHMARK.json gate. `--locked`: its committed lockfile
# must still resolve as it stands.
CARGO_TARGET_DIR=benchmark/target cargo build "${CARGO_FLAGS[@]}" --locked --release -q --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR=benchmark/target cargo test "${CARGO_FLAGS[@]}" --locked --release -q --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
# Panic hygiene is a lint, not a grep: the em-serve fault modules (wal, swap,
# overload, chaos, shard, sched), em-label (its active-learning loop and
# round decoder, `active`, by a file-level deny), the blocking debugger,
# em-ml's training path (view, tree, forest, committee, cv, debug), the
# `em-snapshot v1` decode chain (em-serve's snapshot, em-ml's fitted, the
# em-core checkpoint codec it is framed in), em-core's case-study stage
# and config codecs (`stages`, `pipeline`) and em-table's CSV reader with
# its quarantine ingest (`csv`) deny `unwrap_used` /
# `expect_used` / `panic` outside tests, so every failure on those paths is
# a typed error. `sched` also denies `indexing_slicing` (tests
# included): no `v[i]` that could panic on a bad index. Every crate root under
# crates/ (libraries and the two em-bench binaries) and src/lib.rs denies
# `unsafe_code`; the one `#[allow(unsafe_code)]` is em-parallel's
# `pool::run`, which erases a closure's lifetime for the parked workers. The
# counting allocators in the *_allocations.rs tests are the only other unsafe.
cargo clippy "${CARGO_FLAGS[@]}" --all-targets -- -D warnings

echo "==> all checks passed"
