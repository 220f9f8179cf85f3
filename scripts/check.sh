#!/usr/bin/env bash
# Tier-1 gate: a documentation drift check (scripts/check_docs.sh + its
# negative self-test), then the full test suite twice — a plain
# RelWithDebInfo build with warnings as errors (-DCSTF_WERROR=ON, so a new
# compiler warning anywhere in the tree fails the gate), then an ASan+UBSan
# build (-DCSTF_SANITIZE=ON, which also makes UBSan findings fatal with
# -fno-sanitize-recover=undefined and turns on libstdc++'s container bounds
# checks with -D_GLIBCXX_ASSERTIONS). Any doc drift, compiler warning,
# compile error, test failure, sanitizer report or out-of-range container
# index fails the script.
#
# After the plain pass, a determinism gate repeats the mttkrp-, dimtree-,
# cstf-, updates- and determinism-labeled groups five times each at
# CSTF_THREADS=1 and 4 (ctest --repeat until-fail:5); the determinism label
# holds the bit-identity tests registered a second time at one worker.
#
# A perf-smoke step then runs the scatter-engine, MTTKRP-engine and ADMM
# fixtures (bench_host_wallclock --smoke): it fails if the kAuto scatter
# pick is more than 25% slower than sorted on the short-mode fixture (both
# timed through the BLCO kernel, DESIGN.md §8), if the dimension-tree
# engine is slower than the flat kernels on the 4-way fixture (DESIGN.md
# §13), or if a cuADMM update is not at least 2x faster than the
# pre-inverted Algorithm-2 chain (the row-tiled host pass, DESIGN.md §2),
# and validates the emitted JSON telemetry. A serve-smoke step then
# runs the serve-labeled ctest group, a full save/load/serve workload
# through cstf_serve, and the fold-in throughput bench (batched +
# pre-inverted must beat per-request ADMM on modeled and host clocks at
# batch >= 8), and a chaos smoke replays
# the workload under 1% injected kernel-launch failures (every request must
# still succeed via retries/degraded mode). CSTF_CHECK_SKIP_PERF=1 skips
# these (e.g. on loaded CI machines where wall-clock comparisons are
# unreliable); the chaos smoke is repeated against the sanitized build.
#
# Knobs (env vars): CSTF_CHECK_SKIP_SANITIZE=1 skips the second pass (useful
# on toolchains without sanitizer runtimes), CSTF_CHECK_SKIP_PERF=1,
# CSTF_CHECK_TSAN=1 adds a ThreadSanitizer pass (-DCSTF_TSAN=ON) over the
# cstf-, mttkrp-, dimtree-, metrics-, updates- and serve-labeled ctest
# groups (the trainer's AO loop and the framework around it, the MTTKRP
# kernels' pooled private tiles and
# parallel transposes, the dimension-tree engine's parallel chain derives,
# the metrics registry's lock-free counter hot path, the row-tiled ADMM
# pass's per-worker buffers and per-tile partials, and the fold-in
# batcher's collector, submit and stop threads), CSTF_THREADS.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== docs gate: tool flags documented, links resolve, section refs valid"
# No build needed; fails fast on documentation drift. The self-test proves
# the gate still detects an undocumented flag and a documented flag no tool
# accepts (negative mode).
bash scripts/check_docs.sh
bash scripts/check_docs.sh --self-test

echo "=== pass 1/2: plain build (warnings as errors) + ctest"
cmake -B build -S . -DCSTF_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "=== determinism gate: repeated label groups at 1 and 4 workers"
for threads in 1 4; do
  CSTF_THREADS=$threads ctest --test-dir build \
    -L 'mttkrp|dimtree|cstf|updates|determinism' --repeat until-fail:5 \
    --output-on-failure -j
done

if [ "${CSTF_CHECK_SKIP_PERF:-0}" = "1" ]; then
  echo "=== perf smoke skipped (CSTF_CHECK_SKIP_PERF=1)"
else
  echo "=== perf smoke: scatter strategies + dimtree-vs-flat MTTKRP + ADMM"
  mkdir -p results/json
  CSTF_BENCH_JSON=1 CSTF_BENCH_JSON_DIR=results/json \
    ./build/bench/bench_host_wallclock --smoke
  ./build/tools/cstf_json_check results/json/BENCH_host_wallclock.json

  echo "=== serve smoke: save/load round trip + mixed query/fold-in workload"
  # The serve-labeled ctest group (unit suite + CLI smoke) plus an end-to-end
  # workload with telemetry; cstf_serve exits nonzero if any request fails,
  # latencies are non-finite, or a fold-in row violates its constraint.
  ctest --test-dir build -L serve --output-on-failure
  mkdir -p results
  ./build/tools/cstf_serve --dataset Uber --rank 4 --iters 2 --requests 100 \
    --clients 4 --save results/check_serve_model.cstf \
    --json results/check_serve_telemetry.json \
    --metrics-out results/check_serve_metrics.prom
  # Batched + pre-inverted must beat per-request ADMM on both clocks at B>=8
  # (bit-identical rows, verified inside the bench).
  CSTF_BENCH_JSON=1 CSTF_BENCH_JSON_DIR=results/json \
    ./build/bench/bench_serve_throughput
  ./build/tools/cstf_json_check results/json/BENCH_serve_throughput.json

  echo "=== chaos smoke: serving under 1% injected kernel-launch failures"
  # Same mixed workload with a seeded probabilistic fault plan on the serving
  # kernels; retry-with-backoff and degraded-mode isolation must absorb every
  # injected fault (cstf_serve exits nonzero if any request ultimately fails).
  ./build/tools/cstf_serve --dataset Uber --rank 4 --iters 2 --requests 200 \
    --clients 4 --retries 10 --fault-plan "launch:p=0.01,seed=7" \
    --json results/check_chaos_telemetry.json
fi

if [ "${CSTF_CHECK_TSAN:-0}" = "1" ]; then
  echo "=== TSan pass: cstf-, mttkrp-, dimtree-, metrics-, updates- and serve-labeled suites under ThreadSanitizer"
  # TSan and ASan cannot share a binary (the configure step enforces the
  # exclusivity), so this is its own build tree. The cstf group covers the
  # trainer's AO loop, whose kernels run parallel regions, end to end
  # through the framework.
  # The mttkrp group rides along: the privatized and streamed kernels lease
  # pooled private tiles, fill them from concurrent launch blocks and
  # transpose the reduced tile into the output in parallel.
  # The dimtree group rides along: the chain derives scatter through the
  # same parallel accumulation engine, and its lazy extends must be race-
  # free against the trainer's explicit extend steps.
  # The metrics group rides along: the registry's lock-free counter hot path
  # (relaxed fetch_add from every kernel launch and serve request) is
  # exactly the kind of code TSan exists to vet.
  # The updates group rides along: the row-tiled ADMM pass is a parallel
  # region whose workers write per-worker tile buffers and per-tile
  # residual partials.
  # The serve group rides along: the fold-in batcher's collector, submit
  # and stop threads share its queue, counters and last-good snapshot, and
  # the hot-swap test serves under concurrent publishes.
  cmake -B build-tsan -S . -DCSTF_TSAN=ON
  cmake --build build-tsan -j
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan \
    -L 'cstf|mttkrp|dimtree|metrics|updates|serve' --output-on-failure
fi

if [ "${CSTF_CHECK_SKIP_SANITIZE:-0}" = "1" ]; then
  echo "=== pass 2/2 skipped (CSTF_CHECK_SKIP_SANITIZE=1)"
  exit 0
fi

echo "=== pass 2/2: ASan+UBSan build + ctest"
cmake -B build-asan -S . -DCSTF_SANITIZE=ON
cmake --build build-asan -j
# halt_on_error makes UBSan reports fail the test run instead of just logging.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -j

echo "=== dimtree + metrics groups under ASan+UBSan (label re-run)"
# Redundant with the full sanitized suite above, but keeps the dimension-
# tree engine's pointer-heavy chain arithmetic and the metrics
# registry/exposition layer visibly gated even if the full pass is ever
# narrowed.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan -L 'dimtree|metrics' --output-on-failure

echo "=== chaos smoke under ASan: fault-recovery paths must be leak-free"
# The retry/degraded paths unwind through exceptions mid-batch; run them under
# the sanitizers to prove the unwinding leaks nothing and frees nothing twice.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ./build-asan/tools/cstf_serve --dataset Uber --rank 4 --iters 2 \
    --requests 200 --clients 4 --retries 10 \
    --fault-plan "launch:p=0.01,seed=7" >/dev/null

echo
echo "All checks passed (plain + sanitized)."
