#!/usr/bin/env bash
# Tier-1 gate: a documentation drift check (scripts/check_docs.sh + its
# negative self-test), then the full test suite twice — a plain
# RelWithDebInfo build, then an ASan+UBSan build (-DCSTF_SANITIZE=ON). Any
# doc drift, compile error, test failure, or sanitizer report fails the
# script.
#
# After the plain pass, a determinism gate repeats the mttkrp-, dimtree-,
# exec- and determinism-labeled groups five times each at CSTF_THREADS=1
# and 4 (ctest --repeat until-fail:5); the determinism label holds the
# bit-identity tests registered a second time at one worker.
#
# A perf-smoke step then runs the scatter-engine and MTTKRP-engine
# fixtures (bench_host_wallclock --smoke): it fails if the kAuto scatter
# pick is more than 25% slower than sorted on the short-mode fixture (both
# timed through the BLCO kernel, DESIGN.md §8) or if the dimension-tree
# engine is slower than the flat kernels on the 4-way fixture (DESIGN.md
# §13), and validates the emitted JSON telemetry. A serve-smoke step then
# runs the serve-labeled ctest group, a full save/load/serve workload
# through cstf_serve, and the fold-in throughput bench (batched +
# pre-inverted must beat per-request ADMM on modeled and host clocks at
# batch >= 8), and a chaos smoke replays
# the workload under 1% injected kernel-launch failures (every request must
# still succeed via retries/degraded mode). CSTF_CHECK_SKIP_PERF=1 skips
# these (e.g. on loaded CI machines where wall-clock comparisons are
# unreliable); the chaos smoke is repeated against the sanitized build.
#
# An autotune-smoke step runs the autotune-labeled ctest group (cache round
# trip, corruption taxonomy, trial determinism, decision goldens, plus the
# cstf_tune populate-then-hit fixture pair) and a counter-verified cache
# round trip through cstf_tune: measure-populate a fresh CSTFTUNE file,
# then require the second run to be a pure cache hit (--expect-cached).
#
# Knobs (env vars): CSTF_CHECK_SKIP_SANITIZE=1 skips the second pass (useful
# on toolchains without sanitizer runtimes), CSTF_CHECK_SKIP_PERF=1,
# CSTF_CHECK_TSAN=1 adds a ThreadSanitizer pass (-DCSTF_TSAN=ON) over the
# exec-, dimtree-, autotune-, and metrics-labeled ctest groups (the
# executor/plan-cache layer every concurrent path now submits through, the
# dimension-tree engine's parallel chain derives, and the metrics
# registry's lock-free counter hot path), CSTF_THREADS.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== docs gate: tool flags documented, links resolve, section refs valid"
# No build needed; fails fast on documentation drift. The self-test proves
# the gate still detects an undocumented flag (negative mode).
bash scripts/check_docs.sh
bash scripts/check_docs.sh --self-test

echo "=== pass 1/2: plain build + ctest"
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "=== determinism gate: repeated label groups at 1 and 4 workers"
for threads in 1 4; do
  CSTF_THREADS=$threads ctest --test-dir build \
    -L 'mttkrp|dimtree|exec|determinism' --repeat until-fail:5 \
    --output-on-failure -j
done

if [ "${CSTF_CHECK_SKIP_PERF:-0}" = "1" ]; then
  echo "=== perf smoke skipped (CSTF_CHECK_SKIP_PERF=1)"
else
  echo "=== perf smoke: scatter strategies + dimtree-vs-flat MTTKRP"
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

  echo "=== autotune smoke: tuning cache round trip, counter-verified"
  # The autotune-labeled ctest group (unit suite + cstf_tune/cstf_cli smoke),
  # then an explicit populate-then-hit pass against a fresh cache file:
  # the first cstf_tune run must measure (trials), the second must be a pure
  # cache hit — --expect-cached exits nonzero if any decision re-ran trials.
  ctest --test-dir build -L autotune --output-on-failure
  rm -f results/check_tuning.cstftune
  ./build/tools/cstf_tune --dataset Uber --dataset NIPS --rank 8 \
    --tune measure --tuning-cache results/check_tuning.cstftune
  ./build/tools/cstf_tune --dataset Uber --dataset NIPS --rank 8 \
    --tune cached --tuning-cache results/check_tuning.cstftune --expect-cached
fi

if [ "${CSTF_CHECK_TSAN:-0}" = "1" ]; then
  echo "=== TSan pass: exec- and dimtree-labeled suites under ThreadSanitizer"
  # TSan and ASan cannot share a binary (the configure step enforces the
  # exclusivity), so this is its own build tree. The exec group covers the
  # executor, plan caches, and the trainer/streaming/serving paths that
  # submit through them — the layer where stream/event races would live.
  # The dimtree group rides along: the chain derives scatter through the
  # same parallel accumulation engine, and its lazy extends must be race-
  # free against the plan's explicit extend ops.
  # The autotune group rides along: micro-trials run warmup+timed kernels
  # through the same parallel-for engine the chunk sweep retunes.
  # The metrics group rides along: the registry's lock-free counter hot path
  # (relaxed fetch_add from every kernel launch and serve request) is
  # exactly the kind of code TSan exists to vet.
  cmake -B build-tsan -S . -DCSTF_TSAN=ON
  cmake --build build-tsan -j
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan -L 'exec|dimtree|autotune|metrics' \
    --output-on-failure
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

echo "=== dimtree + autotune + metrics groups under ASan+UBSan (label re-run)"
# Redundant with the full sanitized suite above, but keeps the dimension-
# tree engine's pointer-heavy chain arithmetic, the tuning cache's binary
# parser (attacker-controlled bytes on the load path), and the metrics
# registry/exposition layer visibly gated even if the full pass is ever
# narrowed.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan -L 'dimtree|autotune|metrics' --output-on-failure

echo "=== chaos smoke under ASan: fault-recovery paths must be leak-free"
# The retry/degraded paths unwind through exceptions mid-batch; run them under
# the sanitizers to prove the unwinding leaks nothing and frees nothing twice.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ./build-asan/tools/cstf_serve --dataset Uber --rank 4 --iters 2 \
    --requests 200 --clients 4 --retries 10 \
    --fault-plan "launch:p=0.01,seed=7" >/dev/null

echo
echo "All checks passed (plain + sanitized)."
