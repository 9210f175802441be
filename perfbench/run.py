#!/usr/bin/env python3
"""Benchmark of uorolab: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload queue-ablation --seed 1 --seconds 10 --trace 0

Workloads are described in workloads.py.  Each runs its arms round-robin, one
operation of each arm per round, and starts rounds until --seconds have
passed.  A per-arm time is the median over the run's operations of the time
per update or per estimate.

Every time is scaled by the host's speed (reference.py): operations by the
workload's fixed kernel run around and inside them, set-up by the time a fresh
interpreter takes to import numpy.  The unscaled figures are printed and
recorded too.

--trace 0 reports the end-to-end metrics:
    round_ms        sum over arms of the per-arm median time of one update
                    (queue-ablation, digits-q0) or one estimate (mc-tape)
    arm_ms_geomean  geometric mean over arms of the same per-arm medians
    setup_s         median time of a fresh interpreter that imports the
                    package and builds the workload's inputs and oracles
    peak_rss_mb     peak resident memory of the measuring process
--trace 1 alternates untraced and traced rounds, with spans and counters
around the package's public layer functions (tracing.py), and reports
per-layer metrics per round, i.e. per update or estimate of every arm, from
the spans as measured, plus the tracing overhead: traced minus untraced
round_ms.

Every run prints each metric by name with its unit, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Failed checks are listed on
standard error, and so are notes that are not failures, such as a Newton
solve the package flags unconverged although its alpha passes the check.
It also writes a record with the environment to perfbench/out/, and in
traced runs the spans.  BLAS and OpenMP are pinned to one thread before numpy
is imported, and the run, set-up processes included, to one CPU.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 15


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("queue-ablation", "mc-tape", "digits-q0"))
    parser.add_argument("--seed", type=seed, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload and exit (times setup_s)")
    return parser.parse_args(argv)


def import_package():
    """Import uorolab from this checkout's src/, and nowhere else."""
    if not (SRC / "uorolab" / "__init__.py").is_file():
        raise ImportError(f"no uorolab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import uorolab

    if Path(uorolab.__file__).resolve().parent != (SRC / "uorolab").resolve():
        raise ImportError(f"uorolab imported from {uorolab.__file__}, not {SRC}")
    return uorolab


def environment(load_average, cpus, pinned):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 2.0 only prints its config
        blas = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(cpus),
        "pinned_cpu": pinned,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or platform.machine(),
        "load_average_at_start": list(load_average),
    }


def measure_setup(args):
    """Median time of SETUP_REPEATS fresh processes that import the package
    and build the workload, in seconds, scaled by the host's speed at
    starting interpreters; and the unscaled times."""
    from reference import NOMINAL_START_S, interpreter_start

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples, starts = [], []
    for _ in range(SETUP_REPEATS):
        starts.append(interpreter_start())
        started = time.perf_counter()
        # No timeout: Popen.wait polls every 50 ms when given one.
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    scale = NOMINAL_START_S / statistics.median(starts)
    return statistics.median(samples) * scale, samples, starts


def measure(workload, seconds, checks, tracer=None):
    """Start rounds until `seconds` have passed; per-arm samples of ms per
    update or estimate, scaled by the host's speed (reference.py), and the
    same unscaled.  With a tracer, odd rounds run traced, so untraced and
    traced samples come from the same stretch of machine time; returns
    (untraced samples, traced samples, untraced unscaled samples, median ms
    of the reference kernel)."""
    from reference import HostSpeed
    from tracing import Patcher

    untraced = {arm: [] for arm in workload.arms}
    traced = {arm: [] for arm in workload.arms}
    unscaled = {arm: [] for arm in workload.arms}
    speed = HostSpeed(*workload.gauge)
    rounds = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or (tracer and rounds < 2):
        patcher = Patcher() if tracer is not None and rounds % 2 else None
        samples = traced if patcher else untraced
        try:
            if patcher:
                tracer.install(patcher)
            for arm in workload.arms:
                if patcher:
                    tracer.op = f"{arm}/{rounds}"
                try:
                    speed.begin()
                    # Kernel runs inside an operation would show in its spans.
                    gauging = (contextlib.nullcontext() if patcher
                               else speed.gauging())
                    op_started = time.perf_counter()
                    with gauging:
                        output = workload.op(arm, rounds)
                    elapsed = time.perf_counter() - op_started - speed.inside
                    speed.sample()
                    ms = elapsed * 1e3 / workload.units_per_op
                    samples[arm].append(ms * speed.scale())
                    if not patcher:
                        unscaled[arm].append(ms)
                    with tracer.paused() if patcher else contextlib.nullcontext():
                        workload.check(arm, rounds, output, checks)
                except Exception as exc:  # a failing operation is counted
                    traceback.print_exc(file=sys.stderr)
                    checks.expect(False, f"{arm}: round {rounds} raised {exc!r}")
        finally:
            if patcher:
                patcher.restore()
        rounds += 1
    return untraced, traced, unscaled, statistics.median(speed.history) * 1e3


def arm_medians(samples):
    if any(not values for values in samples.values()):
        raise RuntimeError("an arm completed no operation; see the errors above")
    return {arm: statistics.median(values) for arm, values in samples.items()}


def round_ms(samples):
    return sum(arm_medians(samples).values())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def arm_lines(workload, samples):
    """The per-arm figures by name: update_ms.<arm> or estimates_per_s.<arm>."""
    lines = {}
    for arm, values in samples.items():
        q1, q3 = quartiles(values)
        med = statistics.median(values)
        if workload.unit == "estimate":
            name, value, unit, lo, hi = (f"estimates_per_s.{arm}", 1e3 / med,
                                         "1/s", 1e3 / q3, 1e3 / q1)
        else:
            name, value, unit, lo, hi = f"update_ms.{arm}", med, "ms", q1, q3
        lines[name] = {"value": value, "unit": unit, "q1": lo, "q3": hi,
                       "samples": len(values)}
    return lines


# Per-layer metrics taken straight from one span or counter:
# (metric, span or counter, statistic).  "incl" is inclusive busy time.
LAYER_STATS = [
    ("batch.uoro_batch.ms", "batch.uoro_batch", "incl"),
    ("batch.preuoro_batch.ms", "batch.preuoro_batch", "incl"),
    ("batch.bptt_batch.ms", "batch.bptt_batch", "incl"),
    ("batch.forward_batch.ms", "batch.forward_batch", "incl"),
    ("batch.attach_bernoulli_losses.ms", "batch.attach_bernoulli_losses", "incl"),
    ("noise.episode_noise.calls", "noise.episode_noise", "calls"),
    ("noise.episode_noise.ms", "noise.episode_noise", "incl"),
    ("estimators.run_uoro.self_ms", "estimators.run_uoro", "self"),
    ("estimators.run_preuoro.self_ms", "estimators.run_preuoro", "self"),
    ("estimators.reinforce_episode.self_ms", "estimators.reinforce_episode", "self"),
    ("estimators.ScalingSchedule.ms", "estimators.ScalingSchedule", "incl"),
    ("rnn.run_episode.ms", "rnn.run_episode", "incl"),
    ("rnn.step.calls", "rnn.step", "calls"),
    ("exact.episode_tensors.calls", "exact.episode_tensors", "calls"),
    ("exact.episode_tensors.ms", "exact.episode_tensors", "incl"),
    ("exact.bptt_gradient.ms", "exact.bptt_gradient", "incl"),
    ("variance.compute_C.ms", "variance.compute_C", "incl"),
    ("variance.solve_alpha_newton.ms", "variance.solve_alpha_newton", "incl"),
    ("variance.compute_B.ms", "variance.compute_B", "incl"),
    ("variance.optimal_Q0.self_ms", "variance.optimal_Q0", "self"),
    ("variance.offline_total_estimate.ms", "variance.offline_total_estimate", "incl"),
    ("variance.empirical_variance.ms", "variance.empirical_variance", "incl"),
    ("linalg.psd_frac_power.calls", "linalg.psd_frac_power", "calls"),
    ("linalg.psd_frac_power.ms", "linalg.psd_frac_power", "incl"),
    ("tasks.make_queue_episode.ms", "tasks.make_queue_episode", "incl"),
    ("tasks.load_rowwise_digits.ms", "tasks.load_rowwise_digits", "incl"),
    ("optim.adam_update.ms", "optim.adam_update", "incl"),
]


def layer_metrics(tracer, units):
    """Per-layer metrics per round, from traced rounds worth `units` updates
    or estimates of every arm; a layer that never ran reads 0."""
    summary = tracer.summary()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "details": []}

    def per_round(name, stat):
        entry = summary.get(name, empty)
        if stat == "calls":
            return {"value": entry["calls"] / units, "unit": "count"}
        return {"value": entry[f"{stat}_s"] * 1e3 / units, "unit": "ms"}

    out = {metric: per_round(name, stat) for metric, name, stat in LAYER_STATS}
    out["rnn.products.calls"] = {
        "value": sum(summary.get(n, empty)["calls"] for n in tracer.products) / units,
        "unit": "count"}
    solves = summary.get("variance.solve_alpha_newton", empty)["details"]
    out["variance.solve_alpha_newton.iterations"] = {
        "value": statistics.fmean(i for i, _ in solves) if solves else 0.0,
        "unit": "count"}
    out["variance.solve_alpha_newton.converged_frac"] = {
        "value": statistics.fmean(float(c) for _, c in solves) if solves else 0.0,
        "unit": "frac"}
    out["linalg.psd_frac_power.dim_max"] = {
        "value": max(summary.get("linalg.psd_frac_power", empty)["details"], default=0),
        "unit": "count"}
    out["training.self_ms"] = {
        "value": sum(entry["self_s"] for name, entry in summary.items()
                     if name.startswith("training.")) * 1e3 / units,
        "unit": "ms"}
    table = {name: {"calls": entry["calls"] / units,
                    "incl_ms": entry["incl_s"] * 1e3 / units,
                    "self_ms": entry["self_s"] * 1e3 / units}
             for name, entry in sorted(summary.items())}
    return out, table


def run(args):
    import resource

    from tracing import Tracer
    from workloads import WORKLOADS, Checks

    OUT.mkdir(exist_ok=True)
    setup_s, setup_samples, starts = measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed, str(OUT))
    checks = Checks()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "unscaled_setup_samples_s": setup_samples,
              "interpreter_start_s": starts}
    try:
        if not args.trace:
            samples, _, unscaled, kernel_ms = measure(workload, args.seconds,
                                                      checks)
            medians = arm_medians(samples)
            metrics = {
                "round_ms": {"value": sum(medians.values()), "unit": "ms"},
                "arm_ms_geomean": {
                    "value": math.exp(statistics.fmean(
                        math.log(v) for v in medians.values())),
                    "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB"},
            }
        else:
            tracer = Tracer()
            samples, traced, unscaled, kernel_ms = measure(
                workload, args.seconds, checks, tracer)
            units = min(len(v) for v in traced.values()) * workload.units_per_op
            metrics, table = layer_metrics(tracer, units)
            overhead = round_ms(traced) - round_ms(samples)
            metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
            record.update(untraced_round_ms=round_ms(samples),
                          traced_round_ms=round_ms(traced),
                          absent=tracer.absent, layers=table)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    finally:
        workload.close()
    arms = arm_lines(workload, samples)
    failed_frac = checks.failed / max(checks.attempted, 1)
    record.update(arms=arms, samples_ms=samples, metrics=metrics,
                  unscaled_round_ms=round_ms(unscaled),
                  reference_kernel_ms=kernel_ms,
                  unscaled_samples_ms=unscaled, attempted=checks.attempted,
                  failed=checks.failed, failures=checks.messages,
                  notes=checks.notes)
    return record, failed_frac


def main(argv=None):
    args = parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    load_average = os.getloadavg()
    # One CPU for the measuring process and the set-up processes it starts,
    # so that no measurement spans a move between CPUs.
    cpus = os.sched_getaffinity(0)
    pinned = min(cpus)
    os.sched_setaffinity(0, {pinned})
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, str(OUT)).close()
        return 0
    record, failed_frac = run(args)
    record["environment"] = environment(load_average, cpus, pinned)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    if args.trace and record["absent"]:
        print("absent layers (reported as 0): " + ", ".join(record["absent"]))
    for name, line in record["arms"].items():
        print(f"{name} {line['value']:.6g} {line['unit']}  (median of "
              f"{line['samples']}, quartiles {line['q1']:.6g} .. {line['q3']:.6g})")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"unscaled round_ms {record['unscaled_round_ms']:.6g} ms, setup_s "
          f"{statistics.median(record['unscaled_setup_samples_s']):.6g} s  "
          f"(as measured; reference kernel {record['reference_kernel_ms']:.4g} ms, "
          f"interpreter start {statistics.median(record['interpreter_start_s']):.4g} s)")
    print(f"failed_frac {failed_frac:.6g} frac  ({record['failed']} of "
          f"{record['attempted']} checks failed)")
    for message in record["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    for message in record["notes"]:
        print(f"note: {message}", file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
