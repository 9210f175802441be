#!/usr/bin/env python3
"""Collect the run records in perfbench/out/ into perfbench/baseline.json.

    python3 perfbench/baseline.py

For each workload: the untraced runs (every end-to-end metric, the unscaled
times and the per-arm figures, each with its values over the runs, median and
spread), their checks and the first run's environment; and the traced run of
the lowest seed.  Spread is the distance between the first and third quartile
of the values, as a share of their median.
"""

import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"
WORKLOADS = ("queue-ablation", "mc-tape", "digits-q0")


def summary(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median, "unit": unit,
            "values": values}


def records(workload, trace):
    paths = sorted(OUT.glob(f"{workload}-seed*-trace{trace}.json"),
                   key=lambda p: int(p.name.split("-seed")[1].split("-")[0]))
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def untraced(runs):
    first = runs[0]
    return {
        "seeds": [r["seed"] for r in runs],
        "seconds": first["seconds"],
        "metrics": {name: summary([r["metrics"][name]["value"] for r in runs],
                                  metric["unit"])
                    for name, metric in first["metrics"].items()},
        "unscaled": {
            "round_ms": summary([r["unscaled_round_ms"] for r in runs], "ms"),
            "setup_s": summary([statistics.median(r["unscaled_setup_samples_s"])
                                for r in runs], "s"),
        },
        "arms": {name: summary([r["arms"][name]["value"] for r in runs],
                               line["unit"])
                 for name, line in first["arms"].items()},
        "checks": {"attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "failures": {str(r["seed"]): r["failures"]
                                for r in runs if r["failures"]},
                   "notes": {str(r["seed"]): r["notes"]
                             for r in runs if r["notes"]}},
        "environment": first["environment"],
    }


def traced(run):
    keys = ("seed", "metrics", "layers", "absent", "untraced_round_ms",
            "traced_round_ms", "attempted", "failed", "failures")
    return {key: run[key] for key in keys}


def main():
    baseline = {"runs": {}, "traced": {}}
    for workload in WORKLOADS:
        runs = records(workload, 0)
        if len(runs) >= 2:
            baseline["runs"][workload] = untraced(runs)
        runs = records(workload, 1)
        if runs:
            baseline["traced"][workload] = traced(runs[0])
    path = BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
