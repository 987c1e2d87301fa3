#!/usr/bin/env bash
# The full CI gate. Run locally before sending a change.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The repo's line-level rules are lints: [workspace.lints] in Cargo.toml,
# clippy.toml, and the deny attributes at the crate roots (DESIGN.md,
# "Static analysis & invariants").
echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo xtask locklint"
cargo xtask locklint

echo "==> cargo xtask hotlint"
cargo xtask hotlint

echo "==> cargo xtask durlint"
cargo xtask durlint

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> witness-enabled concurrency/persistence tests (release)"
cargo test -q --release -p ssj-serve --features lock-witness
cargo test -q --release -p ssj-store --features lock-witness

echo "==> fs-order witness persistence tests (release)"
cargo test -q --release -p ssj-store --features fs-witness
cargo test -q --release -p ssj-serve --features fs-witness
cargo test -q --release -p ssj-extern --features fs-witness
cargo test -q --release -p ssj-cluster --features fs-witness

echo "==> allocation witnesses (release: strict zero-alloc assertions)"
cargo test -q --release -p ssj-core --test alloc_witness
cargo test -q --release -p ssj-serve --test alloc_witness
cargo test -q --release -p ssj-extern --test alloc_witness
cargo test -q --release -p ssj-cluster --test alloc_witness

echo "==> engine benchmark (builds, contract tests, every workload's output checks; timing advisory)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
# Exits non-zero when any workload fails to run or reports "correct":false.
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --bin benchmark -- \
    --all --seed 1 --seconds 1

echo "==> cargo xtask difftest --seeds 25"
cargo xtask difftest --seeds 25

echo "==> cargo xtask crashtest --seeds 10"
cargo xtask crashtest --seeds 10

echo "==> server smoke test"
scripts/serve_smoke.sh

echo "==> cluster smoke test (2-node scatter-gather router)"
scripts/cluster_smoke.sh

echo "==> out-of-core spill smoke test"
scripts/spill_smoke.sh

echo "CI green."
