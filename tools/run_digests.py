"""Write a fixed set of small run files and print one SHA-256 per file.

Run it in two checkouts and compare the outputs with diff: a change that
keeps every number the same leaves every digest the same.  Each JSON file
with a top-level "config" block gets a second line, "<sha>  <path>#without-config":
the digest of that JSON with the block removed, serialized as
reports.write_json_summary does, so a change that adds or drops a config key
can still show that every result stayed the same.

    python tools/run_digests.py > digests.txt
    python tools/run_digests.py --out runs/digests   # keep the files
    python tools/run_digests.py --compare runs/before runs/after

--compare takes two --out directories and, for each file whose bytes (and so
whose digest) differ, prints how many numeric cells differ and the largest
relative difference among them, |a - b| / max(|a|, |b|), plus the count of
other cells that differ (text, or cells present in one file only).  The cells
of a JSON file are its leaf values; those of any other file are its
comma-separated fields.  A change that moves numbers by roundoff is then
stated and bounded by one command.

The package is imported from the src/ directory next to this script.  The
runs are 17 training configurations (queue H=6, T=10, minibatch 10, 3
updates, audit every 3; digits LSTM H=5, minibatch 10, 3 updates; two
streaming runs), each writing metrics.csv and summary.json, and the
variance-report, estimator-compare and alpha-solve commands at H=4, T=6 and
150 seeds, each writing a CSV and a JSON file.  On the same H=4, T=6 queue
instance, reinforce-per-seed.csv holds the REINFORCE estimates of 64 seeds
with the noise-free baseline, one reinforce_episode call per seed.  That makes
41 files, 19 of them JSON with a config block, so 60 lines.
"""

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uorolab import cli, config, estimators, noise, rnn, training  # noqa: E402

QUEUE = dict(hidden=6, stream_length=10, minibatch=10, updates=3, audit_every=3)
DIGITS = dict(hidden=5, minibatch=10, updates=3, audit_every=3)
STREAMING = dict(task="queue", hidden=6, stream_length=10, updates=3,
                 streaming=True)
REPORT = dict(task="queue", hidden=4, stream_length=6, num_seeds=150)

TRAINING = {
    "queue-uoro-current": config.queue_config("uoro", **QUEUE),
    "queue-uoro-split": config.queue_config("uoro", contribution="split", **QUEUE),
    "queue-uoro-alpha-ours": config.queue_config("uoro", alpha_mode="ours", **QUEUE),
    "queue-uoro-alpha-ones": config.queue_config("uoro", alpha_mode="ones", **QUEUE),
    "queue-uoro-q0-ours": config.queue_config("uoro", q0_mode="ours", **QUEUE),
    "queue-uoro-state-cut": config.queue_config("uoro", cut="state", **QUEUE),
    "queue-uoro-state-cut-alpha-ours": config.queue_config(
        "uoro", cut="state", alpha_mode="ours", **QUEUE),
    "queue-preuoro-gir": config.queue_config("preuoro", **QUEUE),
    "queue-preuoro-alpha-ours": config.queue_config("preuoro", alpha_mode="ours",
                                                    **QUEUE),
    "queue-neither": config.queue_config("neither", **QUEUE),
    "queue-spatial": config.queue_config("spatial", **QUEUE),
    "queue-reinforce": config.ExperimentConfig(task="queue", estimator="reinforce",
                                               **QUEUE),
    "digits-ours-ours": config.digits_config("ours", "ours", **DIGITS),
    "digits-ours-gir": config.digits_config("ours", "gir", **DIGITS),
    "digits-identity-ours": config.digits_config("identity", "ours", **DIGITS),
    "streaming-uoro-vanilla": config.ExperimentConfig(estimator="uoro", **STREAMING),
    "streaming-preuoro-lstm": config.ExperimentConfig(estimator="preuoro",
                                                      cell="lstm", **STREAMING),
}
COMMANDS = ("variance-report", "estimator-compare", "alpha-solve")
REINFORCE_SEEDS = 64


def write_runs(out: Path) -> None:
    for name, cfg in TRAINING.items():
        (out / name).mkdir(parents=True, exist_ok=True)
        training.run_training(cfg, out_dir=out / name)
    report = out / "report.cfg"
    config.save(config.ExperimentConfig(**REPORT), report)
    for command in COMMANDS:
        cli.main([command, "--config", str(report), "--out", str(out / command)])
    report.unlink()
    write_reinforce_per_seed(out / "reinforce-per-seed.csv")


def write_reinforce_per_seed(path: Path) -> None:
    """One CSV row per seed, the seed and the repr of each entry of its
    REINFORCE estimate, from one reinforce_episode call per seed on the
    report instance (its parameters, head and episode 0)."""
    cfg = config.ExperimentConfig(**REPORT)
    task = training.build_task(cfg)
    rng = np.random.default_rng(cfg.base_seed)
    params = rnn.init_params(cfg.cell, cfg.hidden, task.input_size, rng)
    head = task.make_head(rng)
    inputs, targets = task.episode(cfg.data_seed, 0)
    rows = []
    for seed in range(REINFORCE_SEEDS):
        draws = noise.episode_noise(cfg.base_seed, seed, len(inputs), cfg.hidden)
        estimate = estimators.reinforce_episode(
            params, inputs, targets, head, cfg.sigma, draws,
            baseline=estimators.BASELINE_NOISE_FREE).estimate
        rows.append(",".join([str(seed), *map(repr, estimate.tolist())]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="keep the run files here (default: a temporary "
                             "directory, removed on exit)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"),
                        help="compare the run files of two --out directories "
                             "instead of writing runs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(args.out or scratch)
        out.mkdir(parents=True, exist_ok=True)
        # the commands print their one-line summaries; digests go to stdout alone
        stdout, sys.stdout = sys.stdout, sys.stderr
        try:
            write_runs(out)
        finally:
            sys.stdout = stdout
        files = sorted(p for p in out.rglob("*") if p.is_file())
        for path in files:
            name = path.relative_to(out).as_posix()
            text = path.read_bytes()
            print(f"{hashlib.sha256(text).hexdigest()}  {name}")
            summary = json.loads(text) if path.suffix == ".json" else None
            if isinstance(summary, dict) and "config" in summary:
                del summary["config"]
                digest = hashlib.sha256(_summary_bytes(summary)).hexdigest()
                print(f"{digest}  {name}#without-config")
    return 0


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print, for each run file whose bytes differ between two --out
    directories, its count of differing numeric cells, their largest
    relative difference and its count of other differing cells; then how
    many files are identical."""
    names = sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b)
                    for p in d.rglob("*") if p.is_file()})
    same = 0
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {dir_a if a.is_file() else dir_b}")
            continue
        if a.read_bytes() == b.read_bytes():
            same += 1
            continue
        cells_a, cells_b = _cells(a), _cells(b)
        numeric, largest, other = 0, 0.0, 0
        for key in cells_a.keys() | cells_b.keys():
            cell_a, cell_b = cells_a.get(key, _MISSING), cells_b.get(key, _MISSING)
            x, y = _number(cell_a), _number(cell_b)
            if x is None or y is None:
                other += cell_a != cell_b
            elif _rel_diff(x, y):
                numeric += 1
                largest = max(largest, _rel_diff(x, y))
        print(f"{name}: {numeric} numeric cells differ, largest relative "
              f"difference {largest:.3g}; {other} other cells differ")
    print(f"{same} of {len(names)} files identical")
    return 0


def _cells(path: Path) -> dict:
    """The cells of a run file by position: the leaf values of a JSON file
    by their key path, the comma-separated fields of any other file by
    (line, column)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".json":
        return {(i, j): cell for i, line in enumerate(text.splitlines())
                for j, cell in enumerate(line.split(","))}
    cells = {}
    pending = [((), json.loads(text))]
    while pending:
        key, value = pending.pop()
        if isinstance(value, dict):
            pending.extend((key + (k,), v) for k, v in value.items())
        elif isinstance(value, list):
            pending.extend((key + (i,), v) for i, v in enumerate(value))
        else:
            cells[key] = value
    return cells


_MISSING = object()  # the cell of a position that a file does not have


def _number(cell):
    """A cell's value as a float, or None for a text, boolean, null or
    missing cell."""
    if isinstance(cell, bool) or cell is None or cell is _MISSING:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _rel_diff(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|): 0 for equal values (nan equals nan), inf where
    only one is finite or two infinities differ."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _summary_bytes(summary: dict) -> bytes:
    """The bytes reports.write_json_summary writes for summary."""
    return (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8")


if __name__ == "__main__":
    sys.exit(main())
