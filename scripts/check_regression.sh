#!/usr/bin/env bash
# Bench regression gate: re-runs the canonical deterministic flow and
# diffs the fresh RunReport against the committed BENCH_baseline.json.
#
# run_report is the only producer of the report's gated sections
# (spectral, scaling); check_regression reads only run and
# batch reports. Deterministic quantities (final HPWL, modeled GP time,
# kernel launch count, iteration count, run structure, and each gated
# section's modeled metrics) hard-fail beyond tolerance; wall-clock drift
# only warns, so the gate is not flaky across machines.
#
# The fresh report goes to the untracked target/run_report.json unless a
# second argument names another path, so a gate run leaves the tree clean.
#
# After an *intentional* change to placer numerics, re-record the
# baseline and commit it:
#   cargo run --release -p xplace-bench --bin run_report -- --out BENCH_baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${1:-BENCH_baseline.json}"
OUT="${2:-target/run_report.json}"

if [[ ! -f "$BASELINE" ]]; then
    echo "error: baseline $BASELINE not found" >&2
    exit 2
fi

echo "==> building the bench binaries"
cargo build -q --release -p xplace-bench --bin run_report --bin check_regression --bin telemetry_check

echo "==> running the canonical flow"
./target/release/run_report --out "$OUT"

echo "==> validating the report artifact"
./target/release/telemetry_check report "$OUT"

echo "==> comparing against $BASELINE"
./target/release/check_regression "$BASELINE" "$OUT"
