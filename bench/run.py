"""Benchmark of the skewbrace CLI, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of enumerate, structure, verify, samplers. The run writes the
workload's inputs for seed N under bench/out/, then runs whole rounds of the
job list, each round in a fresh interpreter (bench/worker.py), one after the
other, until S seconds have passed and at least three rounds are done. One
client runs one job at a time; there are no threads. The outputs of the first
round are checked against the benchmark's own computations (checks.py) and
every later round must reproduce them byte for byte. Untraced rounds sample
the machine's speed while they run (speed.py), and the end-to-end times are
given at a fixed reference speed, so that the host's slow and fast phases do
not move them.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (wall_s, job_p50_ms, peak_rss_mb, setup_s); with
--trace 1 the layers' public functions are wrapped with spans and counters
(spans.py) and the metrics are the per-layer ones. Extra reference figures go to
bench/out/result-*.json and the spans to bench/out/trace-*.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
RUN_LIMIT_S = 150  # a worker still running at this point is killed and the run fails

# Per-layer metrics and their units. A metric ending in _s is the self time of
# the spans of that name without the suffix; a count is the counter of its own
# name; a yield is the ratio of the two counters named in RATIOS.
PER_LAYER = {
    "groups.automorphism_group_s": "s", "groups.automorphisms": "count",
    "groups.build_holomorph_s": "s", "groups.holomorph_order": "count",
    "groups.verify_group_s": "s", "groups.endomorphisms_s": "s",
    "braces.regular_subgroups_s": "s", "braces.regular_subgroups": "count",
    "braces.brace_from_regular_subgroup_s": "s", "braces.classify_s": "s",
    "braces.verify_brace_s": "s", "braces.law_rejects": "count",
    "structure.all_ideals_s": "s", "structure.subgroups": "count",
    "structure.ideals": "count", "structure.ideal_yield": "ratio",
    "structure.triviality_step_s": "s", "structure.brace_automorphisms_s": "s",
    "structure.naturality_report_s": "s",
    "rota.search_s": "s", "rota.operators": "count", "rota.operator_yield": "ratio",
    "rota.rb_checks_s": "s", "rota.free_rb_report_s": "s",
    "systems.build_linear_system_s": "s", "systems.edges_verified": "count",
    "words.sampled_brace_check_s": "s", "words.verify_cyclic1_s": "s",
    "words.verify_t4_s": "s", "words.rewrite_s": "s",
    "lattice.lattice_system_check_s": "s",
    "cli.load_s": "s", "cli.emit_s": "s", "cli.report_bytes": "bytes",
}
RATIOS = {"structure.ideal_yield": ("structure.ideals", "structure.subgroups"),
          "rota.operator_yield": ("rota.operators", "rota.candidates")}


def harrell_davis_median(values):
    """The Harrell-Davis estimate of the median: a mean of all order statistics,
    weighted by the Beta((n+1)/2, (n+1)/2) mass of each one's n-th of [0, 1].

    It moves smoothly as the jobs near the middle speed up or slow down,
    where the sample median jumps to whichever job happens to sit there.
    A job's time here is its median over the run's rounds.
    """
    x = sorted(values)
    n = len(x)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 100  # midpoint rule within each n-th
    weights = []
    for i in range(n):
        us = ((i + (m + 0.5) / steps) / n for m in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * (math.log(u) + math.log(1 - u)))
                           for u in us))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


class BenchError(Exception):
    """The run could not produce a result."""


def _run_rounds(manifest, workdir, seconds, trace):
    """Whole rounds, each in a fresh worker, until the time is up; returns their results."""
    rounds, setups = [], []
    begin = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - begin < seconds:
        manifest_path = os.path.join(workdir, "manifest.json")
        result_path = os.path.join(workdir, f"round{len(rounds)}.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(dict(manifest, trace=trace, keep_outputs=not rounds), handle)
        launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                                 manifest_path, result_path],
                                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(1.0, RUN_LIMIT_S - (launch - begin)))
        except subprocess.TimeoutExpired:
            raise BenchError(f"round {len(rounds)} did not finish within {RUN_LIMIT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with {code}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["raw_setup_s"] = result["first_job"] - launch
        result["job_s"] = [end - start for start, end in result["job_spans"]]
        if trace:
            setups.append(result["raw_setup_s"])
        else:
            setups.append(speed.adjusted_setup(result["raw_setup_s"], result["probes"]))
            result["adjusted_job_s"] = speed.adjusted_job_times(result["job_spans"],
                                                                result["probes"])
        rounds.append(result)
    return rounds, setups


def _judge(workload, seed, jobs, rounds):
    """(failed job count, problems): round 0 is checked, later rounds must repeat it."""
    first = rounds[0]
    failed = sum(rc not in (0, 1) for r in rounds for rc in r["rc"])
    problems = []
    completed = []
    for i, (job, rc, text) in enumerate(zip(jobs, first["rc"], first["outputs"])):
        if rc not in (0, 1):
            print(f"job {i} {job.argv} failed: {first['stderr'][i].strip()}", file=sys.stderr)
            continue
        try:
            completed.append((job, rc, json.loads(text)))
        except json.JSONDecodeError:
            problems.append(f"job {i}: output is not JSON")
    for r in rounds[1:]:
        if r["digests"] != first["digests"] or r["rc"] != first["rc"]:
            problems.append("a later round's outputs differ from the first round's")
    try:
        problems += checks.check_round(workload, seed, completed)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"report is missing or malforms a field: {type(exc).__name__}: {exc}")
    for k, r in enumerate(rounds):
        for i, name, why in spans.nesting_errors(r.get("spans", []))[:5]:
            problems.append(f"round {k}: span {i} ({name}) is {why}")
    return failed, problems


def _layer_values(result):
    """Per-layer metric values of one traced round."""
    times = spans.self_times(result["spans"])
    counts = result["counts"]
    out = {}
    for name, unit in PER_LAYER.items():
        if name in RATIOS:
            num, den = (counts.get(key, 0) for key in RATIOS[name])
            out[name] = num / den if den else 0.0
        elif unit == "s":
            out[name] = times.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(ROOT, "src", "skewbrace")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        print(f"error: no skewbrace sources under {package}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no round pays for compilation in its set-up
    compileall.compile_dir(package, quiet=1)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        relroot = os.path.relpath(workdir, ROOT).replace(os.sep, "/")
        jobs = workloads.build(args.workload, args.seed, workdir, relroot)
        manifest = {"jobs": [job.argv for job in jobs],
                    "files": sorted(f"{relroot}/{name}" for name in os.listdir(workdir))}
        rounds, setups = _run_rounds(manifest, workdir, args.seconds, bool(args.trace))
        failed, problems = _judge(args.workload, args.seed, jobs, rounds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)

    job_s = [s for r in rounds for s in r["job_s"]]
    walls = [r["wall_s"] for r in rounds]
    reference = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "jobs_per_round": len(jobs),
        "raw_wall_s": walls, "cpu_s": [r["cpu_s"] for r in rounds],
        "raw_setup_s": [r["raw_setup_s"] for r in rounds], "setup_s": setups,
        "job_ms_quartiles": [1000 * q for q in statistics.quantiles(job_s, n=4)],
        "job_ms_p90": 1000 * statistics.quantiles(job_s, n=10)[-1],
        "job_ms_max": 1000 * max(job_s),
        "job_ms_median_by_job": [[job.label, 1000 * statistics.median(times)]
                                 for job, times in zip(jobs, zip(*(r["job_s"] for r in rounds)))],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in rounds],
    }
    if args.trace:
        per_round = [_layer_values(r) for r in rounds]
        metrics = {name: {"value": statistics.median(v[name] for v in per_round), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start", "end", "parent"],
                       "rounds": [{"spans": r["spans"], "counts": r["counts"]} for r in rounds]},
                      handle)
    else:
        adjusted = [r["adjusted_job_s"] for r in rounds]
        reference["wall_s"] = [sum(a) for a in adjusted]
        reference["adjusted_job_ms"] = [[1000 * t for t in a] for a in adjusted]
        reference["probes_per_round"] = [len(r["probes"]) for r in rounds]
        reference["probe_us_median"] = [1e6 * statistics.median(p[1] for p in r["probes"])
                                        for r in rounds]
        metrics = {
            "wall_s": {"value": statistics.median(sum(a) for a in adjusted), "unit": "s"},
            "job_p50_ms": {"value": 1000 * harrell_davis_median(
                [statistics.median(times) for times in zip(*adjusted)]), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(dict(reference, metrics=metrics, problems=problems), handle, indent=1)
    print(json.dumps({"correct": not problems, "attempted": len(jobs) * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
