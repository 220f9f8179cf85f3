#!/usr/bin/env python3
"""The repository's benchmark: training and serving, on both clocks.

    python3 perfbench/run.py --workload train-admm --seed 3 --seconds 15 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt, Release, into .bench_build/)
from the sources in the checkout, runs one workload of workloads.json
through the library's public API, checks the outputs, and prints every
metric by name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones, measured in a traced run (decorated layers, timed
layer calls, a STREAM triad and a single-threaded baseline process).

Exit status: 0 when every check passes, 1 when a correctness check or the
deterministic-count guard fails (the result line is still printed), 2 when
the benchmark cannot run at all (no sources, build or driver failure).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness as h  # noqa: E402

BUILD = ROOT / ".bench_build"
# Wall-clock budget for all driver processes of one run, after the build.
RUN_BUDGET_S = 165
# Relative agreement required between the trainer's fit and KTensor::fit_to.
FIT_TOLERANCE = 1e-9
# Timer resolution allowed when layer spans are summed back to the iteration.
SUM_TOLERANCE_S = 1e-6

# Counts that must repeat exactly at the pinned thread count.
COUNT_NAMES = ("mttkrp.bytes", "mttkrp.flops", "mttkrp.atomic_ops",
               "update.bytes", "update.flops", "update.launches",
               "modeled_iter_s")

# Metric names and units come from BENCHMARK.json at the checkout root.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources not found under src/; the "
                         "benchmark builds the program from source")
    bdir = BUILD / "perfbench"
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(bdir), "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=840, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return bdir / "perfbench_driver"


def run_driver(exe, name, threads, deadline, **flags):
    out = BUILD / "raw" / (name + ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe)]
    for key, value in flags.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    cmd += ["--out", str(out)]
    env = dict(os.environ, CSTF_THREADS=str(threads))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"driver timed out ({name})") from exc
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"driver failed ({name})")
    return json.loads(out.read_text())


class Report:
    """Metrics, correctness checks and the attempted/failed tally."""

    def __init__(self):
        self.metrics = {}
        self.notes = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def put(self, name, value):
        self.metrics[name] = float(value)

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            log(f"CHECK FAILED: {name} {detail}")

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def pooled(raws, get):
    """Concatenates one list from every driver process."""
    return [x for raw in raws for x in get(raw)]


def open_loop(raw):
    """(fold-in (due, latency) pairs, query pairs, lateness of every send)."""
    o = raw["serve"]["open"]
    lat = h.latency_from_due(o["due"], o["done"], o["outcome"])
    fold = [(d, x) for d, x, k in zip(o["due"], lat, o["kind"]) if k == h.FOLDIN]
    query = [(d, x) for d, x, k in zip(o["due"], lat, o["kind"]) if k != h.FOLDIN]
    return fold, query, h.lateness(o["due"], o["sent"])


def end_to_end(raws, wl, rep, config):
    # Host-clock figures are the median over the perfbench_driver processes of each
    # process's own figure, so one process that ran while the host was
    # contended does not move the result.
    def across(get):
        return h.median([get(r) for r in raws])

    warm = wl["warmup"]
    rep.put("iter_s", across(lambda r: h.median(r["train"]["iter_s"][warm:])))
    rep.put("modeled_iter_s", raws[0]["counts"][0]["modeled_iter_s"])
    rep.put("final_fit", raws[0]["train"]["final_fit"])
    rep.put("setup_s", across(lambda r: h.median(r["train_setup_s"]) +
                              h.median(r["serve"]["setup_s"])))
    rep.put("peak_rss_mb", across(lambda r: r["peak_rss_mb"]))

    loops = [open_loop(r) for r in raws]
    for label, which, metric in (("fold-in", 0, "foldin_p99_ms"),
                                 ("query", 1, "query_p99_ms")):
        windows, smallest = [], math.inf
        for loop in loops:
            pairs = loop[which]
            values, n = h.window_percentiles([d for d, _ in pairs],
                                             [x for _, x in pairs], 99.0,
                                             config["latency_window_s"])
            windows += values
            smallest = min(smallest, n)
        lat = pooled(loops, lambda loop: [x for _, x in loop[which]])
        pct, value, n = h.tail_percentile(lat)
        rep.notes.append(f"{label} tail over all requests: p{pct} = "
                         f"{value * 1e3:.3f} ms (n={n}, from due time)")
        if (h.tail_percentile([0.0] * smallest)[0] or 0) < 99.0:
            log(f"warning: {metric} has a window of {smallest} samples, "
                f"fewer than the 1000 a p99 needs")
        rep.put(metric, h.median(windows) * 1e3)
        rep.notes.append(f"{metric} {rep.metrics[metric]:.3f} ms: median over "
                         f"{len(windows)} windows of {config['latency_window_s']} s "
                         f"of the p99 within each (reported per layer)")
    rep.put("foldin_p50_ms", h.median(
        [h.nearest_rank([x for _, x in loop[0]], 50.0) * 1e3 for loop in loops]))
    window_s = config["capacity_window_s"]
    rep.put("foldin_capacity_rps", across(
        lambda r: h.median(h.window_rates(r["serve"]["closed"]["done"], window_s))))
    rep.notes.append(f"capacity: median rate over {window_s} s windows of each "
                     f"closed loop")


def layer_spans(spans):
    """(mttkrp, update, self, wall) seconds of one traced iteration."""
    it = next(s for s in spans if s["name"] == "iteration")
    kids = [s for s in spans if s["name"] != "iteration"]
    parent = (it["start"], it["end"])
    mttkrp = sum(s["end"] - s["start"] for s in kids if s["name"] == "mttkrp")
    update = sum(s["end"] - s["start"] for s in kids if s["name"] == "update")
    own = h.self_time(parent, [(s["start"], s["end"]) for s in kids])
    return mttkrp, update, own, parent[1] - parent[0]


def per_layer(raws, wl, rep, triad, single):
    counts = raws[0]["counts"][-1]
    for name in ("mttkrp.bytes", "mttkrp.flops", "mttkrp.atomic_ops",
                 "mttkrp.modeled_s", "update.bytes", "update.flops",
                 "update.launches", "update.modeled_s", "cstf.modeled_s"):
        rep.put(name, counts[name])

    # Wall-clock layer spans of the traced iterations. The decorated driver
    # starts from the same seed as the untraced one, so iteration k does the
    # same arithmetic in both; the same warm-up iterations are left out.
    warm = wl["warmup"]
    parts = []
    for spans in pooled(raws, lambda r: r["traced"]["iterations"][warm:]):
        mttkrp, update, own, wall = layer_spans(spans)
        rep.check("layer_sum_wall",
                  abs(mttkrp + update + own - wall) <= SUM_TOLERANCE_S,
                  f"mttkrp {mttkrp} + update {update} + self {own} != {wall}")
        parts.append((mttkrp, update, own, wall))
    mttkrp_s, update_s, self_s, iteration_s = (h.median(c) for c in zip(*parts))
    rep.put("mttkrp.s", mttkrp_s)
    rep.put("update.s", update_s)
    rep.put("cstf.self_s", self_s)
    rep.notes.append(f"traced iteration {iteration_s:.4f} s: MTTKRP "
                     f"{mttkrp_s / iteration_s:.0%}, UPDATE "
                     f"{update_s / iteration_s:.0%}, driver self "
                     f"{self_s / iteration_s:.0%}")

    stream_gbps = h.median(triad["gbps"])
    rep.put("machine.stream_gbps", stream_gbps)
    rep.put("mttkrp.gbps", counts["mttkrp.bytes"] / mttkrp_s / 1e9)
    update_gbps = counts["update.bytes"] / update_s / 1e9
    rep.put("update.gbps", update_gbps)
    rep.put("update.bw_frac", update_gbps / stream_gbps)
    rep.notes.append(f"triad: {triad['array_bytes'] / 2**20:.0f} MiB per "
                     f"array x3, LLC {triad['llc_bytes'] / 2**20:.0f} MiB, "
                     f"{triad['threads']:.0f} threads")

    rep.put("formats.blco_build_s",
            h.median(pooled(raws, lambda r: r["traced"]["blco_build_s"])))
    rep.put("mttkrp.resolve_s",
            h.median(pooled(raws, lambda r: r["traced"]["resolve_s"])))
    rep.put("exec.plan_compile_s",
            h.median([r["traced"]["plan_compile_s"] for r in raws]))
    rep.put("exec.plan_cache_misses", raws[0]["train"]["plan_cache_misses"])
    rep.put("exec.plan_peak_mb", raws[0]["train"]["plan_peak_bytes"] / 2**20)
    # Iteration cost drifts as the factors evolve, so each comparison uses
    # the same iteration indices on both sides.
    single_iter = single["iter_s"][1:]
    pinned_iter = pooled(raws, lambda r: r["train"]["iter_s"][1:1 + len(single_iter)])
    rep.put("parallel.speedup", h.median(single_iter) / h.median(pinned_iter))
    untraced = h.median(pooled(raws, lambda r: r["train"]["iter_s"][warm:]))
    rep.put("harness.trace_overhead_frac", iteration_s / untraced - 1.0)

    def layer(key):
        return h.median([r["serve"]["layer"][key] for r in raws])

    rep.put("serve.publish_s", h.median(pooled(raws, lambda r: r["serve"]["publish_s"])))
    rep.put("serve.solve_ms_p50", layer("solve_p50_s") * 1e3)
    rep.put("serve.solve_ms_p99", layer("solve_p99_s") * 1e3)
    rep.put("serve.launches_per_batch", layer("launches_per_batch"))
    rep.put("serve.admm_bytes_per_row", layer("admm_bytes_per_row"))
    rep.put("serve.batch_mean", layer("batch_mean"))
    rep.put("serve.wait_ms_mean",
            h.median([(r["serve"]["layer"]["ready_mean_s"] -
                       r["serve"]["layer"]["weighted_solve_s"]) * 1e3 for r in raws]))
    rep.put("serve.query_ms_p50", layer("query_p50_s") * 1e3)
    rep.put("serve.retries", sum(r["serve"]["layer"]["retries"] for r in raws))
    rep.put("serve.shed", sum(r["serve"]["layer"]["shed"] for r in raws))
    late = pooled(raws, lambda r: open_loop(r)[2])
    pct, value, n = h.tail_percentile(late)
    rep.notes.append(f"generator lateness: p{pct} = {value * 1e3:.3f} ms (n={n})")
    rep.put("harness.gen_lag_p99_ms", h.nearest_rank(late, 99.0) * 1e3)


def correctness(raws, rep, memo_key):
    for raw in raws:
        train = raw["train"]
        fit, ref = train["final_fit"], train["fit_to"]
        rep.check("fit_matches_fit_to",
                  abs(fit - ref) <= FIT_TOLERANCE * abs(ref), f"{fit} vs {ref}")
        rep.check("factors_finite_nonneg", train["factors_ok"])
        # The layers' work must add up to what the device itself metered
        # over the iteration, each kernel counted once and under the
        # executor phase of its layer.
        for c in raw["counts"]:
            errors = h.attribution_errors(c)
            rep.check("layer_attribution", not errors, "; ".join(errors))

    # Deterministic-count guard: every decorated iteration of every process
    # must reproduce the counts exactly, and so must any earlier run of the
    # same workload, seed and thread count in this checkout.
    guarded = {k: raws[0]["counts"][0][k] for k in COUNT_NAMES}
    guarded["exec.plan_cache_misses"] = raws[0]["train"]["plan_cache_misses"]
    for raw in raws:
        for c in raw["counts"]:
            for k in COUNT_NAMES:
                rep.check("count_repeats_in_run", c[k] == guarded[k],
                          f"{k}: {guarded[k]!r} then {c[k]!r}")
        rep.check("count_repeats_in_run",
                  raw["train"]["plan_cache_misses"] == guarded["exec.plan_cache_misses"])
    memo_path = BUILD / "count_memo.json"
    memo = json.loads(memo_path.read_text()) if memo_path.is_file() else {}
    previous = memo.get(memo_key)
    if previous is not None:
        for k, v in guarded.items():
            rep.check("count_repeats_across_runs", previous.get(k) == v,
                      f"{k}: {previous.get(k)!r} in an earlier run, {v!r} now")
    else:
        memo[memo_key] = guarded
        memo_path.write_text(json.dumps(memo, indent=1, sort_keys=True))

    by_outcome = {}
    for raw in raws:
        serve = raw["serve"]
        outcomes = serve["open"]["outcome"]
        attempted, failed = h.failure_tally(
            outcomes, serve["checks"]["attempted"], serve["checks"]["failed"])
        closed = serve["closed"]
        rep.ops(attempted + len(closed["done"]), failed + int(closed["failed"]))
        bad = sum(1 for o in outcomes if o == h.CHECK_FAILED)
        if bad or serve["checks"]["failed"]:
            rep.correct = False
            log(f"CHECK FAILED: serving outputs ({bad} bad answers, "
                f"{serve['checks']['failed']:.0f} batched != single re-solves)")
        for o in outcomes + [h.ERROR] * int(closed["failed"]):
            by_outcome[h.OUTCOME_NAMES[o]] = by_outcome.get(h.OUTCOME_NAMES[o], 0) + 1
    resolved = sum(r["serve"]["checks"]["attempted"] for r in raws)
    rep.notes.append(f"request outcomes: {by_outcome}; re-solved {resolved:.0f} "
                     f"fold-ins one at a time, bit for bit")


def print_table(title, names, rep):
    print(title)
    for name, unit in names.items():
        print(f"  {name:<28} {rep.metrics[name]:>16.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        log(f"unknown workload {args.workload!r}; choose from "
            f"{sorted(config['workloads'])}")
        return 2
    wl = config["workloads"][args.workload]
    threads = min(os.cpu_count() or 1, config["pool_threads"])
    # A traced run does twice the training work, so it uses one process to
    # stay well inside the run's time budget; its figures are unbounded.
    processes = 1 if args.trace else config["processes"]
    try:
        exe = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        sv = wl["serve"]
        # The host's speed changes from one process to the next, so the run
        # is split over several identical driver processes whose samples
        # are pooled; each serves its share of the open and closed loops.
        raws = [run_driver(
            exe, f"{args.workload}-{args.seed}-t{args.trace}-p{part}", threads,
            deadline,
            dataset=wl["dataset"], nnz=wl["nnz"], rank=wl["rank"],
            iters=wl["iterations"], seed=args.seed, trace=args.trace,
            model_iters=wl["iterations"] if args.trace else 1,
            setup_reps=config["setup_reps"],
            open_s=sv["open_frac"] * args.seconds / processes,
            closed_s=sv["closed_frac"] * args.seconds / processes)
            for part in range(processes)]
        triad = single = None
        if args.trace:
            triad = run_driver(exe, "triad", threads, deadline, phase="triad",
                               triad_mb=config["triad_array_mib"])
            single = run_driver(
                exe, f"{args.workload}-{args.seed}-single", 1, deadline,
                phase="train",
                dataset=wl["dataset"], nnz=wl["nnz"], rank=wl["rank"],
                seed=args.seed, iters=1 + config["single_thread_iters"])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"perfbench: {exc}")
        return 2

    rep = Report()
    # Counts are compared across runs of the same program only: the key
    # carries a digest of the perfbench_driver binary, which changes with the sources.
    program = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    correctness(raws, rep, f"{args.workload}/{args.seed}/{threads}/{program}")
    facts = raws[0]["facts"]
    print(f"workload {args.workload} (seed {args.seed}): {wl['why']}")
    print(f"machine: nproc {facts['nproc']:.0f}, pool {facts['threads']:.0f} "
          f"threads (pinned), build {facts['build_type']}, LLC "
          f"{facts['llc_bytes'] / 2**20:.0f} MiB; {processes} driver processes")
    print(f"tensor: {wl['dataset']} analog, dims {[int(d) for d in facts['dims']]}, "
          f"nnz {facts['nnz']:.0f}, rank {wl['rank']}, MTTKRP engine "
          f"{facts['mttkrp_engine']}, {wl['iterations']} iterations")
    end_to_end(raws, wl, rep, config)
    rep.put("success_rate", 1.0 - h.error_rate(rep.attempted, rep.failed))
    print(f"error_rate {h.error_rate(rep.attempted, rep.failed):.6g} "
          f"({rep.failed} failed of {rep.attempted} attempted)")
    print_table("end-to-end:", END_TO_END, rep)
    # The serving figures users see; per-layer (unbounded) in BENCHMARK.json
    # because on a shared host they track its scheduling stalls.
    serving = ("foldin_p50_ms", "foldin_capacity_rps", "foldin_p99_ms",
               "query_p99_ms")
    print_table("serving (unbounded):", {n: PER_LAYER[n] for n in serving}, rep)
    names = END_TO_END
    if args.trace:
        per_layer(raws, wl, rep, triad, single)
        print_table("per layer:", PER_LAYER, rep)
        names = PER_LAYER
    for note in rep.notes:
        print("  " + note)

    metrics = {}
    for name, unit in names.items():
        value = rep.metrics[name]
        if not math.isfinite(value):
            # Keeps the result line valid JSON; a latency is infinite only
            # when more than 1% of requests failed.
            log(f"metric {name} is not finite")
            value = sys.float_info.max
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": rep.correct, "attempted": rep.attempted,
                      "failed": rep.failed, "metrics": metrics}))
    return 0 if rep.correct else 1


if __name__ == "__main__":
    sys.exit(main())
