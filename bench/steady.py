"""Steadiness of the end-to-end metrics across seeds.

Usage (from the repository root):

    python3 bench/steady.py [--runs 10]

Runs bench/run.py on seeds 1 to RUNS for every workload in BENCHMARK.json,
with its run_seconds, one run at a time, and prints, per workload and
metric, the median, the quartiles, the spread (quartile distance over the
median) and the largest deviation from the median, next to the bound in
BENCHMARK.json. A spread under a third of the
bound is steady. Every run's result line goes to bench/out/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {}
    for workload in (w["name"] for w in spec["workloads"]):
        lines = []
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            began = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            line = json.loads(done.stdout.strip().splitlines()[-1])
            lines.append(line)
            print(f"{workload} seed {seed} ({time.monotonic() - began:.0f} s):"
                  f" correct={line['correct']} failed={line['failed']}/{line['attempted']} "
                  + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
        record[workload] = lines
        for name, bound in bounds.items():
            values = [line["metrics"][name]["value"] for line in lines]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            worst = max(abs(v - med) for v in values) / med
            spread = (q3 - q1) / med
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "over 1/3")
            print(f"  {workload:9s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {spread:6.1%}  max dev {worst:6.1%}  bound {bound:.0%}  {flag}",
                  flush=True)
        shares = {line["failed"] / line["attempted"] for line in lines}
        print(f"  {workload:9s} failed share {sorted(shares)}"
              f" correct {all(line['correct'] for line in lines)}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(f"results in {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
