#!/usr/bin/env bash
# The full local gate: formatting, lints as errors, docs, every test, the
# release-mode smokes and the benchmark's reference runs. CI runs exactly
# this; run it before pushing. The speed floors and accuracy gates at Fig. 7
# scale are #[ignore]d tests run by hand:
#   cargo test --release -p fedpkd-bench --test paper_gates -- --ignored
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Vendored third-party crates are exempt from the doc gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q \
    --exclude proptest --exclude criterion
cargo test --workspace -q
# Release-mode smoke: a 10-round run interrupted at round 5 must resume
# bit-identically from its serialized snapshot (asserts internally).
cargo run --release -q --example checkpoint_resume > /dev/null
# Serve smoke: the real UDS transport under chaos — the server is SIGKILLed
# at three seeded points mid-run, restarted from its streaming snapshot, and
# the completed history + ledger must be bit-identical to the in-process
# driver at the same seed (crates/serve/tests/chaos.rs asserts internally).
cargo test --release -q -p fedpkd-serve --test chaos > /dev/null
# Byzantine smoke: under a label flipper and a NaN client, admission control
# plus trimmed aggregation must beat the undefended run and the defended run
# must replay bit-identically (asserts internally).
cargo run --release -q --example byzantine > /dev/null
# Benchmark gate: pkdbench's own tests, then one short untraced run per
# training workload. Each run exits 1 unless its history and ledger match
# the recorded seed-0 reference bit for bit (pkdbench/README.md, "Output
# checks"), so a refactor that changes any result fails here.
cargo test --release -q --manifest-path pkdbench/Cargo.toml > /dev/null
for workload in fig7-hetero cohort16-robust datafree-margins; do
    cargo run --release --offline --quiet --manifest-path pkdbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0 > /dev/null
done
