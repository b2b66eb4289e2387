#!/usr/bin/env bash
# Tier-1 gate: everything a clean checkout must pass, fully offline.
#
# The workspace has zero registry dependencies (see `xplace-testkit`), so
# this script never touches the network. Run it from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo build --release --manifest-path perfbench/Cargo.toml"
# perfbench is a workspace of its own, so the workspace build above never
# compiles it; build it here so a removed item it uses fails CI.
cargo build --release --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q --release --manifest-path perfbench/Cargo.toml (perfbench self-tests)"
# perfbench is the one wall-clock harness; its self-tests check the
# workloads' correctness gates and the metric plumbing.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> multithreaded leg: pool, ops + fft suites, golden flow with threads > 1"
cargo test -q -p xplace-parallel
cargo test -q -p xplace-ops --test properties
cargo test -q -p xplace-fft --test parallel
cargo test -q --test golden_flow golden_flow_is_thread_count_invariant

echo "==> telemetry smoke: trace determinism across thread counts + artifact checks"
SMOKE=$(mktemp -d)
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$SMOKE"' EXIT
./target/release/xplace synth ci-smoke 300 --seed 3 --out "$SMOKE" >/dev/null
./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 --threads 1 \
    -o "$SMOKE/t1.pl" --trace "$SMOKE/t1.jsonl" --report "$SMOKE/t1.json" >/dev/null
./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 --threads 4 \
    -o "$SMOKE/t4.pl" --trace "$SMOKE/t4.jsonl" --report "$SMOKE/t4.json" >/dev/null
cmp "$SMOKE/t1.jsonl" "$SMOKE/t4.jsonl" \
    || { echo "FAIL: traces differ across thread counts" >&2; exit 1; }
./target/release/telemetry_check trace "$SMOKE/t1.jsonl"
./target/release/telemetry_check report "$SMOKE/t1.json"

echo "==> blocked density leg: a 5000-cell place spans several NODE_BLOCK blocks"
./target/release/xplace synth ci-blocked 5000 --seed 3 --out "$SMOKE" >/dev/null
for T in 1 2; do
    ./target/release/xplace place "$SMOKE/ci-blocked.aux" --max-iters 60 --threads "$T" \
        -o "$SMOKE/blocked-t$T.pl" --trace "$SMOKE/blocked-t$T.jsonl" >/dev/null
done
cmp "$SMOKE/blocked-t1.jsonl" "$SMOKE/blocked-t2.jsonl" \
    || { echo "FAIL: blocked-path traces differ across thread counts" >&2; exit 1; }
cmp "$SMOKE/blocked-t1.pl" "$SMOKE/blocked-t2.pl" \
    || { echo "FAIL: blocked-path placements differ across thread counts" >&2; exit 1; }

echo "==> batch smoke: 2-design batch, trace parity, batch gate, failure isolation"
cat > "$SMOKE/suite.json" <<EOF
{"jobs": [
  {"name": "s1", "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120},
  {"name": "s2", "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120, "seed": 7}
]}
EOF
./target/release/xplace batch "$SMOKE/suite.json" --threads 4 \
    --trace-dir "$SMOKE/batch-traces" --report "$SMOKE/batch1.json" >/dev/null
# Job s1 runs the same design/config as the serial place above: the batch
# trace must be byte-identical to the serial trace.
cmp "$SMOKE/batch-traces/s1.jsonl" "$SMOKE/t1.jsonl" \
    || { echo "FAIL: batch trace differs from the serial place trace" >&2; exit 1; }
./target/release/xplace batch "$SMOKE/suite.json" --threads 2 \
    --report "$SMOKE/batch2.json" >/dev/null
./target/release/check_regression "$SMOKE/batch1.json" "$SMOKE/batch2.json"
if ./target/release/check_regression "$SMOKE/batch1.json" "$SMOKE/batch2.json" \
    --inject hpwl=10 >/dev/null 2>&1; then
    echo "FAIL: the batch gate passed an injected +10% HPWL regression" >&2
    exit 1
fi
cat > "$SMOKE/fail-suite.json" <<EOF
{"jobs": [
  {"name": "fine",  "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120},
  {"name": "crash", "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120}
],
"faults": [{"target": "crash", "kind": "gp_panic", "iteration": 5}]}
EOF
if ./target/release/xplace batch "$SMOKE/fail-suite.json" --threads 2 \
    --report "$SMOKE/batch-fail.json" >"$SMOKE/batch-fail.out" 2>/dev/null; then
    echo "FAIL: a batch with a failing job exited zero" >&2
    exit 1
fi
grep -q "fine .*completed" "$SMOKE/batch-fail.out" \
    || { echo "FAIL: the healthy sibling did not complete" >&2; exit 1; }
# An oversized grid override fails its own job with a named error; it must
# not abort the process on the allocation.
cat > "$SMOKE/huge-suite.json" <<EOF
{"jobs": [
  {"name": "fine", "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120},
  {"name": "huge", "aux": "$SMOKE/ci-smoke.aux", "max_iters": 120, "grid": 65536}
]}
EOF
set +e
./target/release/xplace batch "$SMOKE/huge-suite.json" --threads 2 \
    >"$SMOKE/batch-huge.out" 2>/dev/null
HUGE_STATUS=$?
set -e
[ "$HUGE_STATUS" -eq 1 ] \
    || { echo "FAIL: an oversized grid job exited $HUGE_STATUS, want 1" >&2; exit 1; }
grep -q "huge .*FAILED .*grid override 65536 exceeds the maximum" "$SMOKE/batch-huge.out" \
    || { echo "FAIL: the oversized grid job did not fail by name" >&2; exit 1; }
grep -q "fine .*completed" "$SMOKE/batch-huge.out" \
    || { echo "FAIL: the sibling of the oversized grid job did not complete" >&2; exit 1; }

echo "==> mixed batch leg: 300-2000-cell jobs, every trace byte-identical across widths"
# Work-claiming launches decide at run time which thread runs which job,
# so every job of a mixed-size batch is compared, not just one.
cat > "$SMOKE/mixed-suite.json" <<EOF
{"jobs": [
  {"name": "m300",  "synth": {"cells": 300,  "seed": 21}, "max_iters": 120},
  {"name": "m2000", "synth": {"cells": 2000, "seed": 22}, "max_iters": 120},
  {"name": "m800",  "synth": {"cells": 800,  "seed": 23}, "max_iters": 120},
  {"name": "m1400", "synth": {"cells": 1400, "seed": 24}, "max_iters": 120}
]}
EOF
for T in 1 2; do
    ./target/release/xplace batch "$SMOKE/mixed-suite.json" --threads "$T" \
        --trace-dir "$SMOKE/mixed-t$T" --report "$SMOKE/mixed-t$T.json" >/dev/null
done
for JOB in m300 m2000 m800 m1400; do
    cmp "$SMOKE/mixed-t1/$JOB.jsonl" "$SMOKE/mixed-t2/$JOB.jsonl" \
        || { echo "FAIL: mixed batch trace $JOB differs across thread counts" >&2; exit 1; }
done
./target/release/check_regression "$SMOKE/mixed-t1.json" "$SMOKE/mixed-t2.json"

echo "==> resume determinism: checkpointed place resumes byte-identically (threads 1, 4)"
for T in 1 4; do
    ./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 --threads "$T" \
        -o "$SMOKE/full-t$T.pl" --trace "$SMOKE/full-t$T.jsonl" \
        --checkpoint-every 50 --checkpoint-file "$SMOKE/ckpt-t$T.json" >/dev/null
    ./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 --threads "$T" \
        -o "$SMOKE/resumed-t$T.pl" --trace "$SMOKE/resumed-t$T.jsonl" \
        --resume-from "$SMOKE/ckpt-t$T.json" >/dev/null
    # Contract: the resumed trace, minus its run_start line, is a byte-exact
    # suffix of the uninterrupted trace, and the placement is identical.
    tail -n +2 "$SMOKE/resumed-t$T.jsonl" > "$SMOKE/resumed-tail-t$T.jsonl"
    N=$(wc -l < "$SMOKE/resumed-tail-t$T.jsonl")
    tail -n "$N" "$SMOKE/full-t$T.jsonl" > "$SMOKE/full-tail-t$T.jsonl"
    cmp "$SMOKE/resumed-tail-t$T.jsonl" "$SMOKE/full-tail-t$T.jsonl" \
        || { echo "FAIL: resumed trace is not a suffix of the full trace (threads $T)" >&2; exit 1; }
    cmp "$SMOKE/resumed-t$T.pl" "$SMOKE/full-t$T.pl" \
        || { echo "FAIL: resumed placement differs from the full run (threads $T)" >&2; exit 1; }
done
cmp "$SMOKE/resumed-t1.jsonl" "$SMOKE/resumed-t4.jsonl" \
    || { echo "FAIL: resumed traces differ across thread counts" >&2; exit 1; }
# A checkpoint holds no wall-clock field, so both widths save the same bytes.
cmp "$SMOKE/ckpt-t1.json" "$SMOKE/ckpt-t4.json" \
    || { echo "FAIL: checkpoints differ across thread counts" >&2; exit 1; }
# A checkpoint of an older payload version must be refused by its version.
sed 's/"version":[0-9]*,/"version":1,/' "$SMOKE/ckpt-t1.json" > "$SMOKE/ckpt-v1.json"
if ./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 \
    -o "$SMOKE/v1.pl" --resume-from "$SMOKE/ckpt-v1.json" >/dev/null 2>"$SMOKE/v1.err"; then
    echo "FAIL: a version-1 checkpoint was accepted" >&2; exit 1
fi
grep -q "unsupported checkpoint version" "$SMOKE/v1.err" \
    || { echo "FAIL: version-1 checkpoint rejected for the wrong reason" >&2; cat "$SMOKE/v1.err" >&2; exit 1; }
# A checkpoint of another design must be refused by its design name.
set +e
./target/release/xplace place "$SMOKE/ci-blocked.aux" --max-iters 120 \
    -o "$SMOKE/other.pl" --resume-from "$SMOKE/ckpt-t1.json" >/dev/null 2>"$SMOKE/other.err"
OTHER_STATUS=$?
set -e
[ "$OTHER_STATUS" -eq 1 ] && grep -q "checkpoint is for design" "$SMOKE/other.err" \
    || { echo "FAIL: another design's checkpoint exited $OTHER_STATUS, want 1 naming the design" >&2; cat "$SMOKE/other.err" >&2; exit 1; }
# A checkpoint whose best-solution snapshot is one entry short must be
# refused by its shape check (exit 1 naming the field), not panic (101).
sed 's/"best_u_x":\[[^,]*,/"best_u_x":[/' "$SMOKE/ckpt-t1.json" > "$SMOKE/ckpt-short.json"
set +e
./target/release/xplace place "$SMOKE/ci-smoke.aux" --max-iters 120 \
    -o "$SMOKE/short.pl" --resume-from "$SMOKE/ckpt-short.json" >/dev/null 2>"$SMOKE/short.err"
SHORT_STATUS=$?
set -e
[ "$SHORT_STATUS" -eq 1 ] && grep -q "checkpoint best_u_x has" "$SMOKE/short.err" \
    || { echo "FAIL: a short best_u_x exited $SHORT_STATUS, want 1 naming the field" >&2; cat "$SMOKE/short.err" >&2; exit 1; }

echo "==> non-finite Bookshelf number: an inf terminal coordinate is a named parse error"
mkdir "$SMOKE/inf"
cp "$SMOKE"/ci-smoke.* "$SMOKE/inf/"
sed -i 's/^p0 [^ ]* /p0 inf /' "$SMOKE/inf/ci-smoke.pl"
set +e
./target/release/xplace place "$SMOKE/inf/ci-smoke.aux" --max-iters 120 \
    -o "$SMOKE/inf.pl" >/dev/null 2>"$SMOKE/inf.err"
INF_STATUS=$?
set -e
[ "$INF_STATUS" -eq 1 ] && grep -q "pl parse error at line [0-9]*: x is not finite (inf)" "$SMOKE/inf.err" \
    || { echo "FAIL: an inf .pl coordinate exited $INF_STATUS, want 1 naming the field" >&2; cat "$SMOKE/inf.err" >&2; exit 1; }

echo "==> examples: each runs GP then finish_flow to a legal placement"
for EXAMPLE in quickstart fence_regions ispd2005_flow; do
    # ispd2005_flow exports its result under the temp dir; keep it in $SMOKE.
    TMPDIR="$SMOKE" cargo run --release -q --example "$EXAMPLE" >"$SMOKE/example-$EXAMPLE.out" \
        || { echo "FAIL: example $EXAMPLE exited non-zero" >&2; exit 1; }
done
for EXAMPLE in quickstart fence_regions; do
    grep -q "^final placement is legal" "$SMOKE/example-$EXAMPLE.out" \
        || { echo "FAIL: example $EXAMPLE did not report a legal placement" >&2; exit 1; }
done

echo "==> chaos soak: seeded fault injection, retry recovery, client-drop conservation"
./target/release/chaos_soak --smoke

echo "==> serve smoke: daemon round trip, wire-vs-batch parity, soak, graceful drain"
./target/release/xplace serve --addr 127.0.0.1:0 --threads 4 >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^serving on http://\([^ ]*\) .*|\1|p' "$SMOKE/serve.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: daemon never reported its address" >&2; exit 1; }
./target/release/xplace submit "$SMOKE/suite.json" --addr "$ADDR" --client ci \
    --trace-dir "$SMOKE/wire-traces" --report "$SMOKE/wire.json" >/dev/null
# The serve determinism contract: traces from a wire submission are
# byte-identical to the local batch run's (and so to the serial place's).
cmp "$SMOKE/wire-traces/s1.jsonl" "$SMOKE/batch-traces/s1.jsonl" \
    || { echo "FAIL: wire trace s1 differs from the batch trace" >&2; exit 1; }
cmp "$SMOKE/wire-traces/s2.jsonl" "$SMOKE/batch-traces/s2.jsonl" \
    || { echo "FAIL: wire trace s2 differs from the batch trace" >&2; exit 1; }
cmp "$SMOKE/wire-traces/s1.jsonl" "$SMOKE/t1.jsonl" \
    || { echo "FAIL: wire trace s1 differs from the serial place trace" >&2; exit 1; }
# The regression gate accepts a wire-produced report as the current run.
./target/release/check_regression "$SMOKE/batch1.json" "$SMOKE/wire.json"
# Multi-client soak at smoke scale against the same warm daemon.
./target/release/serve_soak --smoke --addr "$ADDR" >/dev/null
# A nesting bomb: 100 KB of `[` fits the 1 MiB body cap, so it reaches the
# manifest parser, whose depth cap must turn it into a 400 rather than a
# stack overflow that aborts the daemon. Posted raw over bash's /dev/tcp:
# `xplace submit` parses the manifest locally and would never send it.
BOMB_BYTES=100000
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
printf 'POST /batch HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n' "$ADDR" "$BOMB_BYTES" >&3
head -c "$BOMB_BYTES" /dev/zero | tr '\0' '[' >&3
head -n 1 <&3 > "$SMOKE/bomb.status" || true
exec 3<&-
grep -q "^HTTP/1.1 400 " "$SMOKE/bomb.status" \
    || { echo "FAIL: a nested 100 KB manifest did not get a 400" >&2; cat "$SMOKE/bomb.status" >&2; exit 1; }
./target/release/xplace servectl stats --addr "$ADDR" | grep -q '"batches_completed"' \
    || { echo "FAIL: /stats is missing completion counters" >&2; exit 1; }
./target/release/xplace servectl shutdown --addr "$ADDR" >/dev/null
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero after drain" >&2; exit 1; }
SERVE_PID=""

echo "==> bench regression gate (deterministic metrics vs BENCH_baseline.json)"
scripts/check_regression.sh
echo "==> regression gate self-test: an injected regression must fail"
if ./target/release/check_regression BENCH_baseline.json results/run_report.json \
    --inject hpwl=10 >/dev/null 2>&1; then
    echo "FAIL: the regression gate passed an injected +10% HPWL regression" >&2
    exit 1
fi
# Every gated section of the run report, one key per GatedSection impl. The
# gate must fail with status 1: status 2 is a usage error, such as a
# section the report never recorded.
for SECTION in spectral scaling explore; do
    set +e
    ./target/release/check_regression BENCH_baseline.json results/run_report.json \
        --inject "$SECTION=10" >/dev/null 2>&1
    INJECT_STATUS=$?
    set -e
    [ "$INJECT_STATUS" -eq 1 ] \
        || { echo "FAIL: an injected +10% $SECTION regression exited $INJECT_STATUS, want 1" >&2; exit 1; }
done

echo "==> explore smoke: --explore 4 place, trace parity across thread counts"
./target/release/xplace place "$SMOKE/ci-smoke.aux" --explore 4 --max-iters 120 --threads 1 \
    -o "$SMOKE/ex1.pl" --trace "$SMOKE/ex1.jsonl" --report "$SMOKE/ex1.json" >/dev/null
./target/release/xplace place "$SMOKE/ci-smoke.aux" --explore 4 --max-iters 120 --threads 4 \
    -o "$SMOKE/ex4.pl" --trace "$SMOKE/ex4.jsonl" --report "$SMOKE/ex4.json" >/dev/null
cmp "$SMOKE/ex1.jsonl" "$SMOKE/ex4.jsonl" \
    || { echo "FAIL: explore traces differ across thread counts" >&2; exit 1; }
cmp "$SMOKE/ex1.pl" "$SMOKE/ex4.pl" \
    || { echo "FAIL: explore placements differ across thread counts" >&2; exit 1; }
# The population report zeroes its wall-clock fields, so it is
# byte-identical across thread counts, not merely equivalent.
cmp "$SMOKE/ex1.json" "$SMOKE/ex4.json" \
    || { echo "FAIL: explore reports differ across thread counts" >&2; exit 1; }

echo "==> multilevel smoke: 100k-cell place, trace parity across thread counts"
./target/release/xplace synth ci-ml 100000 --seed 11 --topology systolic \
    --out "$SMOKE" >/dev/null
./target/release/xplace place "$SMOKE/ci-ml.aux" --multilevel --coarse-iters 60 \
    --max-iters 40 --threads 1 -o "$SMOKE/ml1.pl" --trace "$SMOKE/ml1.jsonl" >/dev/null
./target/release/xplace place "$SMOKE/ci-ml.aux" --multilevel --coarse-iters 60 \
    --max-iters 40 --threads 4 -o "$SMOKE/ml4.pl" --trace "$SMOKE/ml4.jsonl" >/dev/null
cmp "$SMOKE/ml1.jsonl" "$SMOKE/ml4.jsonl" \
    || { echo "FAIL: multilevel traces differ across thread counts" >&2; exit 1; }
cmp "$SMOKE/ml1.pl" "$SMOKE/ml4.pl" \
    || { echo "FAIL: multilevel placements differ across thread counts" >&2; exit 1; }

echo "==> coarsening smoke: 1M-cell hierarchy construction completes"
./target/release/scaling_bench --coarsen-smoke 1000000 --topology systolic

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets --no-deps -- -D warnings

echo "CI gate passed."
