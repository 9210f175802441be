"""Print minor page faults and milliseconds per training update for each
queue-ablation arm (and, with --digits, the digits q0_mode=ours protocol),
all in one process.

    python tools/fault_count.py --updates 30
    python tools/fault_count.py --updates 30 --digits

Each arm runs its perfbench configuration (queue: H=50, T=24, B=100; the
arms neither, temporal and both) once as a warm-up, then as an N-update run
and as a 3-update run.  Its figures are the N-update run minus the 3-update
run, divided by N - 3: minor faults from resource.getrusage(RUSAGE_SELF)
and wall time from time.perf_counter.  That leaves out what a run does once
(building the task, the first update's allocations).  Faults depend on the
allocator's state, which every earlier run in the process shapes, so compare
figures taken in the same order.
"""

import argparse
import dataclasses
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uorolab import training  # noqa: E402
from uorolab.config import digits_config, queue_config  # noqa: E402

QUEUE_ARMS = ("neither", "temporal", "both")
BASELINE_UPDATES = 3
SEED = 9971


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(config, updates: int):
    """(minor faults, seconds) of one run_training of config."""
    faults, start = minor_faults(), time.perf_counter()
    training.run_training(dataclasses.replace(config, updates=updates))
    return minor_faults() - faults, time.perf_counter() - start


def per_update(config, updates: int):
    """(faults, ms) per update: an updates-run minus a 3-update run."""
    measure(config, BASELINE_UPDATES)  # warm-up
    long_faults, long_s = measure(config, updates)
    short_faults, short_s = measure(config, BASELINE_UPDATES)
    extra = updates - BASELINE_UPDATES
    return (long_faults - short_faults) / extra, 1e3 * (long_s - short_s) / extra


def arms(digits: bool):
    """(name, config) of every arm measured."""
    for arm in QUEUE_ARMS:
        yield arm, queue_config(arm, stream_length=24, updates=1, base_seed=SEED + 1,
                                data_seed=1000 + SEED)
    if digits:
        yield "digits-ours", digits_config("ours", "ours", updates=1, base_seed=SEED + 1,
                                           data_seed=SEED)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--updates", type=int, default=30,
                        help="updates of the long run (more than 3)")
    parser.add_argument("--digits", action="store_true",
                        help="also measure the digits q0_mode=ours protocol")
    args = parser.parse_args(argv)
    if args.updates <= BASELINE_UPDATES:
        parser.error(f"--updates must exceed {BASELINE_UPDATES}")
    for name, config in arms(args.digits):
        faults, ms = per_update(config, args.updates)
        print(f"{name}: {faults:.0f} minor faults, {ms:.2f} ms per update")


if __name__ == "__main__":
    main()
