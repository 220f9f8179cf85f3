#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload serve-mixed --runs 5 [--first-seed 1]

Runs run.py once per seed (--trace 0, BENCHMARK.json's run_seconds) and
prints, per metric, the median, the inter-quartile distance as a share of
the median, and the metric's bound from BENCHMARK.json. The serving
figures, printed every run but reported per layer, are read from the
printed table and have no bound (nan). A spread above a third of its bound
is flagged.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness as h  # noqa: E402


SERVING_ROW = re.compile(r"^  (foldin_\w+|query_\w+)\s+(\S+) \S+$")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # The serving figures are printed every run but reported per layer.
        for line in lines:
            m = SERVING_ROW.match(line)
            if m:
                values.setdefault(m.group(1), []).append(float(m.group(2)))
        print(f"seed {seed}: rc {proc.returncode}, correct "
              f"{result['correct']}, failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    worst = 0.0
    for name, vals in values.items():
        s = h.spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name, float("nan"))
        flag = "  <-- over bound/3" if name != "setup_s" and s > bound / 3 else ""
        if name in bounds and name != "setup_s":
            worst = max(worst, s / bound)
        print(f"{name:<24} median {h.median(vals):>14.6g}  spread {s:7.4f}  "
              f"bound {bound:5.2f}{flag}")
    print(f"worst spread/bound (excluding setup_s): {worst:.3f}")


if __name__ == "__main__":
    main()
