#!/usr/bin/env bash
# Continuous-integration gate. Everything runs offline: the workspace has no
# crates.io dependencies (see DESIGN.md §4), and pointing CARGO_HOME at an
# empty directory proves nothing sneaks in through a warm registry cache.
set -euo pipefail
cd "$(dirname "$0")"

HERMETIC_CARGO_HOME="$(mktemp -d)"
trap 'rm -rf "$HERMETIC_CARGO_HOME"' EXIT
export CARGO_HOME="$HERMETIC_CARGO_HOME"
export CARGO_NET_OFFLINE=true

echo "==> offline release build"
cargo build --release --offline

echo "==> test suite"
cargo test -q --offline

echo "==> perfbench build + self-tests (its own workspace, outside the root one)"
# The root build and tests above never compile perfbench, so an API change
# in a crate it uses could break the benchmark silently.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> clippy (warnings are errors)"
cargo clippy --offline --all-targets -- -D warnings

echo "==> runall --smoke (tiny-scale sweep + injected-fault isolation gate)"
SMOKE_OUT="$(mktemp -d)"
trap 'rm -rf "$HERMETIC_CARGO_HOME" "$SMOKE_OUT"' EXIT
# --smoke appends a harness with one deliberately panicking case. The driver
# must still exit 0 (set -e enforces this) with the failure *recorded* in the
# consolidated report rather than aborting the sweep.
./target/release/runall --smoke --out "$SMOKE_OUT"
grep -q '"harness": "smoke_fault"' "$SMOKE_OUT/runall.json"
grep -A6 '"harness": "smoke_fault"' "$SMOKE_OUT/runall.json" | grep -q '"panicked": 1'
for artifact in fig03 fig07 fig12 fig_sparch ablations kernels runall; do
    test -s "$SMOKE_OUT/$artifact.json"
done

echo "==> kernels perf gate (pinned cells vs the smoke trajectory; injected slowdown must fail)"
# The runall smoke sweep above appended one perf-trajectory entry to
# BENCH_kernels.json. Re-measuring the pinned cells minutes later on the same
# machine must stay inside the gate's tolerance (machine-probe calibration +
# retry-to-confirm absorb scheduler noise); a synthetic 100000x slowdown
# injected into one pinned cell must trip it. See DESIGN.md §14.
test -s "$SMOKE_OUT/BENCH_kernels.json"
# The gate re-measures wall-clock medians; on a shared/quota-throttled host
# a noise window can outlast the binary's own retry-to-confirm loop, so CI
# allows one spaced retry before declaring a regression. A real slowdown
# (like the injected one below, which is deterministic) fails both attempts.
if ! ./target/release/kernels_bench --scale 8 --check --out "$SMOKE_OUT"; then
    echo "# kernels perf gate tripped once; retrying after a quiet period" >&2
    sleep 60
    ./target/release/kernels_bench --scale 8 --check --out "$SMOKE_OUT"
fi
if BENCH_INJECT_SLOWDOWN="multiply_arena:100000" \
    ./target/release/kernels_bench --scale 8 --check --out "$SMOKE_OUT"; then
    echo "ERROR: perf gate did not flag an injected 100000x slowdown" >&2
    exit 1
fi

echo "==> runall --smoke --only fig_sparch (machine-model frontier: deterministic artifact)"
SPARCH_OUT="$(mktemp -d)"
trap 'rm -rf "$HERMETIC_CARGO_HOME" "$SMOKE_OUT" "$SPARCH_OUT"' EXIT
# The OuterSPACE-vs-SpArch head-to-head must produce its frontier artifact
# with both machines present, and two runs at the same scale + seed must be
# byte-identical (no wall-clock leaks into the frontier file).
./target/release/runall --smoke --only fig_sparch --out "$SPARCH_OUT/a"
./target/release/runall --smoke --only fig_sparch --out "$SPARCH_OUT/b"
test -s "$SPARCH_OUT/a/fig_sparch_frontier.json"
grep -q '"machine": "outer_space"' "$SPARCH_OUT/a/fig_sparch_frontier.json"
grep -q '"machine": "sparch"' "$SPARCH_OUT/a/fig_sparch_frontier.json"
diff "$SPARCH_OUT/a/fig_sparch_frontier.json" "$SPARCH_OUT/b/fig_sparch_frontier.json"

echo "==> oracle (clean differential sweep at tiny scale)"
ORACLE_OUT="$(mktemp -d)"
trap 'rm -rf "$HERMETIC_CARGO_HOME" "$SMOKE_OUT" "$SPARCH_OUT" "$ORACLE_OUT"' EXIT
# Every implementation vs the reference across all case families: must agree
# everywhere (set -e enforces exit 0) and leave no repro directory behind.
./target/release/oracle --seeds 32 --scale 48 \
    --out "$ORACLE_OUT/clean" --repro-dir "$ORACLE_OUT/clean_repros"
test ! -e "$ORACLE_OUT/clean_repros"

echo "==> oracle --inject-fault (mismatch must be detected, shrunk, replayable)"
# A deliberately broken implementation rides along; the oracle must exit
# non-zero, write a shrunk repro, and the repro must replay deterministically.
if ./target/release/oracle --seeds 2 --scale 48 --inject-fault \
    --out "$ORACLE_OUT/fault" --repro-dir "$ORACLE_OUT/fault_repros"; then
    echo "ERROR: oracle did not flag the injected fault" >&2
    exit 1
fi
REPRO_DIR="$(find "$ORACLE_OUT/fault_repros" -mindepth 1 -maxdepth 1 -type d | head -n1)"
test -n "$REPRO_DIR"
test -s "$REPRO_DIR/a.mtx" && test -s "$REPRO_DIR/b.mtx" && test -s "$REPRO_DIR/manifest.json"
grep -q '"impl": "injected_fault"' "$REPRO_DIR/manifest.json"
if ./target/release/oracle --replay "$REPRO_DIR" > "$ORACLE_OUT/replay1.txt"; then
    echo "ERROR: replayed repro no longer reproduces" >&2
    exit 1
fi
if ./target/release/oracle --replay "$REPRO_DIR" > "$ORACLE_OUT/replay2.txt"; then
    echo "ERROR: replayed repro no longer reproduces" >&2
    exit 1
fi
diff "$ORACLE_OUT/replay1.txt" "$ORACLE_OUT/replay2.txt"

echo "==> dse --smoke (deterministic sweep + memo-cache gate)"
DSE_OUT="$(mktemp -d)"
trap 'rm -rf "$HERMETIC_CARGO_HOME" "$SMOKE_OUT" "$SPARCH_OUT" "$ORACLE_OUT" "$DSE_OUT"' EXIT
# First run simulates every point of the bundled 64-point smoke grid; a
# second run with the same seed must (a) serve every point from the
# content-addressed cache (0 re-simulations) and (b) regenerate the Pareto
# report byte-identically. A third run against a *fresh* cache proves the
# bytes are a function of the spec + seed, not of cache state.
./target/release/dse --smoke --out "$DSE_OUT/a"
./target/release/dse --smoke --out "$DSE_OUT/a" | tee "$DSE_OUT/second_run.txt"
grep -q "0 simulated, 64 cache hits (100% hit rate)" "$DSE_OUT/second_run.txt"
cp "$DSE_OUT/a/dse_smoke_pareto.json" "$DSE_OUT/first_pareto.json"
./target/release/dse --smoke --out "$DSE_OUT/b"
diff "$DSE_OUT/first_pareto.json" "$DSE_OUT/b/dse_smoke_pareto.json"
diff "$DSE_OUT/first_pareto.json" "$DSE_OUT/a/dse_smoke_pareto.json"
# The full tier must also reproduce, byte for byte, the Pareto frontier
# pinned in the repo: the interval tier may only ever add speed, never
# perturb the exact tier's results.
diff crates/dse/tests/golden/smoke_pareto_full.json "$DSE_OUT/a/dse_smoke_pareto.json"

echo "==> dse tiers (interval + error bars, dominance abort)"
# Interval tier with validation: a deterministic sample is re-run at full
# fidelity; the held-out half must land within its own error bars.
./target/release/dse --smoke --tier interval --validate 2 --min-within-bars 0.8 \
    --out "$DSE_OUT/interval" | tee "$DSE_OUT/interval_run.txt"
grep -q "== 64 points: ok" "$DSE_OUT/interval_run.txt"
# The interval tier's Pareto frontier is pinned like the full tier's: a
# change to the estimator's structure must leave every estimate, and so
# this file, byte-identical.
diff crates/dse/tests/golden/smoke_pareto_interval.json "$DSE_OUT/interval/dse_smoke_pareto.json"
# Dominance early-abort: with abort rounds enabled the accounting identity
# (evaluated + aborted + invalid + failed == points) must still partition
# every point. The kill path itself (a dominated point must abort, and must
# surface as a counted outcome) is pinned by the executor unit tests above.
./target/release/dse --smoke --tier interval --abort --out "$DSE_OUT/abort" \
    | tee "$DSE_OUT/abort_run.txt"
grep -q "== 64 points: ok" "$DSE_OUT/abort_run.txt"

echo "==> dse interval economics gate (>= 4x points/cpu-hour at <= 5% median cycle error)"
# The headline acceptance gate, on the bundled OuterSPACE-vs-SpArch space:
# the interval tier must evaluate >= 4x more points per CPU-hour than the
# full tier while its validated median |cycle error| stays <= 5%. The full
# tier runs the row-wise functional product and the structural SpArch
# plan, and the interval tier prepares each workload once per sweep, so
# the ratio measures 6.4-10.9x (median 9.1x, quartiles 7.8-9.9x, 10
# runs) on a 2-vCPU VM. The two-path row kernel made the full tier
# cheaper, so the ratio fell from 8.3-13.1x (median 11.1x) at the commit
# before it, run alternately. Every run clears the floor, the lowest by 1.6x.
./target/release/dse --space sparch_vs_ospace --tier interval --validate 2 \
    --min-speedup 4 --max-median-err 0.05 --min-within-bars 0.8 \
    --out "$DSE_OUT/economics"

echo "==> serve --chaos (faults + overload: no panics, no hangs, airtight accounting)"
SERVE_OUT="$(mktemp -d)"
trap 'rm -rf "$HERMETIC_CARGO_HOME" "$SMOKE_OUT" "$SPARCH_OUT" "$ORACLE_OUT" "$DSE_OUT" "$SERVE_OUT"' EXIT
# The chaos preset injects accelerator faults, panicking and stalling kernels,
# and drives 2x overload through the bounded queue. The binary asserts the
# accounting identity and zero late deliveries itself (exit 2 on violation);
# the gate re-checks the written report and that it is well-formed JSON.
timeout 300 ./target/release/ospace-serve --chaos --requests 96 --scale 64 \
    --nnz 400 --deadline-ms 1000 --out "$SERVE_OUT/serve_chaos.json"
grep -q '"accounted_ok": true' "$SERVE_OUT/serve_chaos.json"
grep -q '"deadline_violations": 0' "$SERVE_OUT/serve_chaos.json"
grep -q '"throughput_rps"' "$SERVE_OUT/serve_chaos.json"

echo "==> serve --chaos-sdc (silent corruption: detected, quarantined, breaker recovers)"
# The SDC preset injects ECC-escape faults and forced corruption traffic at
# 2x overload, judges every delivered payload against an independent golden
# answer, then drills a breaker through trip -> half-open canary -> close.
# The binary asserts detection >= 99%, zero corrupted deliveries, the
# delivery accounting identity, and full breaker recovery (exit 1 on any
# violation); the gate re-checks the written report.
timeout 300 ./target/release/ospace-serve --chaos-sdc --requests 72 --scale 64 \
    --nnz 400 --deadline-ms 1500 --out "$SERVE_OUT/serve_sdc.json"
grep -q '"accounted_ok": true' "$SERVE_OUT/serve_sdc.json"
grep -q '"delivery_accounted_ok": true' "$SERVE_OUT/serve_sdc.json"
grep -q '"corrupted_deliveries": 0' "$SERVE_OUT/serve_sdc.json"
grep -q '"sdc_containment_ok": true' "$SERVE_OUT/serve_sdc.json"
grep -q '"breaker_recovered": true' "$SERVE_OUT/serve_sdc.json"

echo "==> ci.sh: all gates passed"
