"""Pure helpers that turn perfbench_driver's raw records into metrics.

Kept free of I/O so test_harness.py can pin down the arithmetic: the
percentile rule, lateness in the open-loop schedule, self time of a span,
the layer attribution check, and failure accounting.
"""

import math
import statistics

# Request kinds and outcomes, as serving.cpp writes them.
FOLDIN, PREDICT, TOPK = 0, 1, 2
OK, SHED, DEADLINE, ERROR, CHECK_FAILED = 0, 1, 2, 3, 4
OUTCOME_NAMES = {OK: "ok", SHED: "shed", DEADLINE: "deadline",
                 ERROR: "error", CHECK_FAILED: "check_failed"}

# Percentiles considered by the tail rule, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values)


def _rank(n, pct):
    # The tolerance keeps e.g. 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def nearest_rank(values, pct):
    """Nearest-rank percentile (pct in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def tail_percentile(values, min_beyond=10):
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (percentile, value, sample_count); percentile is None when even
    the median lacks that support.
    """
    n = len(values)
    for pct in TAIL_CANDIDATES:
        if n - _rank(n, pct) >= min_beyond:
            return pct, nearest_rank(values, pct), n
    return None, None, n


def lateness(due, sent):
    """How late the generator sent each request relative to its schedule."""
    return [s - d for d, s in zip(due, sent)]


def latency_from_due(due, done, outcome):
    """Latency of each request timed from when it was due to be sent.

    A request that failed, was shed or timed out counts as missing every
    latency limit: its latency is infinite.
    """
    return [dn - d if o == OK else math.inf
            for d, dn, o in zip(due, done, outcome)]


def window_percentiles(due, values, pct, window_s):
    """The nearest-rank percentile within each `window_s` span of the schedule.

    Splits the requests by due time into consecutive spans of about
    `window_s` seconds, so a stall moves the figure of the window it falls
    in rather than the tail of the whole run; callers report the median over
    windows. Returns (per-window percentiles, smallest window sample count).
    """
    end = max(due)
    windows = max(1, round(end / window_s))
    width = end / windows if end > 0 else 1.0
    groups = [[] for _ in range(windows)]
    for d, v in zip(due, values):
        groups[min(windows - 1, int(d / width))].append(v)
    groups = [g for g in groups if g]
    return [nearest_rank(g, pct) for g in groups], min(len(g) for g in groups)


def window_rates(times, window_s):
    """Completion rate in each whole `window_s` window between time 0 and the
    last completion (a trailing partial window is dropped)."""
    windows = int(max(times) / window_s) if times else 0
    if windows < 1:
        raise ValueError("need at least one whole window of completions")
    counts = [0] * windows
    for t in times:
        w = int(t / window_s)
        if w < windows:
            counts[w] += 1
    return [c / window_s for c in counts]


def covered(parent, children):
    """Length of the part of `parent` (start, end) that children cover."""
    start, end = parent
    clipped = sorted((max(s, start), min(e, end)) for s, e in children)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(parent, children):
    """A span's duration minus the part of it its children cover."""
    return (parent[1] - parent[0]) - covered(parent, children)


LAYERS = ("mttkrp", "update", "cstf")


def attribution_errors(counts, rel=1e-9):
    """How one iteration's per-layer counts disagree with the device's totals.

    The layers' bytes, flops and launches must add up to the change of the
    device's own totals over the iteration (a kernel dropped or counted
    twice breaks the sum; `rel` absorbs the rounding of fractional flop
    counts added in another order), and no kernel may sit outside its
    layer's executor phase. Returns one message per disagreement.
    """
    errors = []
    for k in ("bytes", "flops", "launches"):
        parts = sum(counts[f"{layer}.{k}"] for layer in LAYERS)
        device = counts[f"device.{k}"]
        tolerance = 0.0 if k == "launches" else rel * abs(device)
        if abs(parts - device) > tolerance:
            errors.append(f"{k}: layers {parts!r}, device {device!r}")
    if counts["misattributed"]:
        errors.append(f"{counts['misattributed']:.0f} kernels outside their "
                      f"layer's phase")
    return errors


def failure_tally(outcomes, checks_attempted=0, checks_failed=0):
    """(attempted, failed) over request outcomes plus correctness checks.

    Every shed, timed-out, failed or check-failed request counts as failed.
    """
    attempted = len(outcomes) + checks_attempted
    failed = sum(1 for o in outcomes if o != OK) + checks_failed
    return attempted, failed


def error_rate(attempted, failed):
    if attempted <= 0:
        raise ValueError("error_rate needs at least one attempted operation")
    return failed / attempted


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
