"""Record a baseline of the benchmark in `perfbench/baseline.json`.

    python3 perfbench/baseline.py --seeds 301-310 --seconds 25

Run from the root of a checkout.  For each workload it runs `run.py` once
per seed with tracing off, and reports each end-to-end metric's median,
quartiles and spread (quartile distance over median); then one traced run
on the first seed gives the per-layer table.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import spans as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and the `key=value` fields of its
    last standard-error line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    last = proc.stderr.strip().splitlines()[-1]
    info = dict(f.split("=", 1) for f in last.split() if "=" in f)
    return result, info


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def git_revision() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="301-310", help="first-last")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end, per_layer = {}, {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = []
        for seed in seeds:
            result, info = run(workload, seed, args.seconds, 0)
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "speed_factor": float(info["speed_factor"]),
                         "raw_batch_s": float(info["raw_batch_s"])})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        end_to_end[workload] = {"runs": runs,
                                **{k: summary(v, units[k]) for k, v in values.items()}}
        result, info = run(workload, seeds[0], args.seconds, 1)
        per_layer[workload] = {"seed": seeds[0], "correct": result["correct"],
                               "self_check": info["self_check"],
                               "plain_batch_s": float(info["plain_batch_s"]),
                               "traced_batch_s": float(info["traced_batch_s"]),
                               "metrics": {k: m["value"] for k, m in result["metrics"].items()}}

    baseline = {
        "about": ("Baseline of the zfilterlab benchmark on the revision below. End-to-end: "
                  "median, quartiles and spread over one untraced run per seed. Per-layer: "
                  "one traced run per workload on the first seed."),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
            "git_revision": git_revision(),
        },
        "run_seconds": args.seconds,
        "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "layer_map": {k: v[2] for k, v in tracing.LAYER_METRICS.items()},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
