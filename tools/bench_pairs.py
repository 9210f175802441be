"""Run alternating perfbench/run.py pairs of two checkouts and print each
side's medians.

    python tools/bench_pairs.py BEFORE AFTER --workload queue-ablation \\
        --first-seed 401 --pairs 10 --seconds 10

Pair i runs seed first-seed + i in both checkouts, BEFORE first in even pairs
and AFTER first in odd ones, each with its own perfbench/run.py and src/.
From each run it reads the figures run.py prints: the end-to-end metrics of
its final JSON line, its per-arm lines (update_ms.<arm> or
estimates_per_s.<arm>), the unscaled round_ms and setup_s of its "unscaled"
line, and the unscaled per-arm medians from the record run.py writes to the
checkout's perfbench/out/.  For every figure it prints each side's median
and quartiles over the pairs, the change of the medians, the number of pairs
AFTER won (ties count for neither side) and whether the medians differ by
more than BEFORE's quartile distance.  Checks that failed are summed per
side.  The tool itself writes nothing; run.py writes its records as always.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ARM_PREFIXES = ("update_ms.", "estimates_per_s.")
UNSCALED = re.compile(r"^unscaled round_ms (\S+) ms, setup_s (\S+) s")


def higher_is_better(name: str) -> bool:
    return name.split()[-1].startswith("estimates_per_s.")


def parse_run(stdout: str, record: dict | None = None) -> dict:
    """The figures of one run by name, from its standard output and, if
    given, its record: scaled ones under their printed names, unscaled ones
    as "unscaled <name>", and "failed", the count of failed checks."""
    lines = stdout.strip().splitlines()
    final = json.loads(lines[-1])
    figures = {name: metric["value"] for name, metric in final["metrics"].items()}
    figures["failed"] = final["failed"]
    for line in lines:
        fields = line.split()
        if len(fields) > 1 and fields[0].startswith(ARM_PREFIXES):
            figures[fields[0]] = float(fields[1])
        unscaled = UNSCALED.match(line)
        if unscaled:
            figures["unscaled round_ms"] = float(unscaled.group(1))
            figures["unscaled setup_s"] = float(unscaled.group(2))
    for arm, samples in (record or {}).get("unscaled_samples_ms", {}).items():
        ms = statistics.median(samples)
        per_s = f"estimates_per_s.{arm}"
        if per_s in figures:
            figures[f"unscaled {per_s}"] = 1e3 / ms
        else:
            figures[f"unscaled update_ms.{arm}"] = ms
    return figures


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py run of checkout; its figures (parse_run)."""
    bench = checkout / "perfbench" / "run.py"
    done = subprocess.run(
        [sys.executable, str(bench), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True)
    record = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return parse_run(done.stdout, json.loads(record.read_text(encoding="utf-8")))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list) -> list:
    """One line per figure that every run of both sides has, from pairs of
    (BEFORE figures, AFTER figures)."""
    names = [name for name in pairs[0][0]
             if all(name in a and name in b for a, b in pairs)]
    lines = []
    for name in names:
        if name == "failed":
            lines.append(f"failed checks: before {sum(a[name] for a, _ in pairs)}, "
                         f"after {sum(b[name] for _, b in pairs)}")
            continue
        before = [a[name] for a, _ in pairs]
        after = [b[name] for _, b in pairs]
        sign = 1.0 if higher_is_better(name) else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        m0, m1 = statistics.median(before), statistics.median(after)
        (q1, q3), (r1, r3) = quartiles(before), quartiles(after)
        change = (m1 - m0) / m0 if m0 else float("nan")
        resolved = "more" if abs(m1 - m0) > q3 - q1 else "less"
        lines.append(
            f"{name}: before {m0:.6g} ({q1:.6g} .. {q3:.6g}), after {m1:.6g} "
            f"({r1:.6g} .. {r3:.6g}), {change:+.1%}; after better in {wins} of "
            f"{len(pairs)}; medians differ by {resolved} than before's quartile "
            f"distance")
    return lines


def main(argv=None, run=run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="checkout of the first side")
    parser.add_argument("after", type=Path, help="checkout of the second side")
    parser.add_argument("--workload", required=True,
                        choices=("queue-ablation", "mc-tape", "digits-q0"))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        figures = {side: run(getattr(args, side), args.workload, seed, args.seconds)
                   for side in order}
        pairs.append((figures["before"], figures["after"]))
        print(f"pair {i + 1} seed {seed} ({order[0]} first): round_ms "
              f"{figures['before'].get('round_ms', float('nan')):.6g} -> "
              f"{figures['after'].get('round_ms', float('nan')):.6g}", flush=True)
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, {args.seconds:g} s per run; "
          f"median (quartiles) per side")
    for line in summarize(pairs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
