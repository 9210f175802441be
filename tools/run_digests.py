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
other cells that differ (text, or cells present in one file only); under it,
one indented line gives the same for each metric that has a differing cell.
The cells of a JSON file are its leaf values, and a leaf's metric is its key
path without list indices, such as "grid/measured_vq"; those of any other
file are its comma-separated fields, and a field's metric is its line's
third field, such as "grad_norm" in metrics.csv.  A metric that is itself a
relative error of two evaluations of one number, such as the training runs'
audit_offline_rel_err, is roundoff, so a relative difference between two
such cells says nothing: its cells are counted apart as roundoff cells, and
its line gives the largest absolute value on each side and whether both are
below ROUNDOFF_FLOOR.  A change that moves numbers by roundoff is then
stated and bounded, metric by metric, by one command.

The package is imported from the src/ directory next to this script.  The
runs are 15 training configurations (queue H=6, T=10, minibatch 10, 3
updates, audit every 3; digits LSTM H=5, minibatch 10, 3 updates), each
writing metrics.csv and summary.json, and the variance-report,
estimator-compare and alpha-solve commands at H=4, T=6 and 150 seeds, each
writing a CSV and a JSON file.  On the same H=4, T=6 queue instance,
reinforce-per-seed.csv holds the REINFORCE estimates of 64 seeds with the
noise-free baseline, one reinforce_episode call per seed.  That makes 37
files, 17 of them JSON with a config block, so 54 lines.
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
}
COMMANDS = ("variance-report", "estimator-compare", "alpha-solve")
REINFORCE_SEEDS = 64

# Metrics whose cells are relative errors between two evaluations of the same
# number: the online/offline audit compares a sketch's estimate with the
# offline sum of the same terms in another order.
ROUNDOFF_METRICS = ("audit_offline_rel_err",)
# Such an error is roundoff while it stays within a few ulps of 1 (2.2e-16)
# per summed step, T <= 28 here: 1e-14 (45 ulps) is above every audit these
# runs have read (5.5e-15 at most) and orders of magnitude below a wrong
# coefficient or a missing term, which reads 1e-3 or more.
ROUNDOFF_FLOOR = 1e-14


def write_runs(out: Path) -> None:
    write_training(out)
    write_commands(out)
    write_reinforce_per_seed(out / "reinforce-per-seed.csv")


def write_commands(out: Path) -> None:
    """The CSV and JSON files of the report commands, each in its own
    directory under out."""
    report = out / "report.cfg"
    config.save(config.ExperimentConfig(**REPORT), report)
    for command in COMMANDS:
        cli.main([command, "--config", str(report), "--out", str(out / command)])
    report.unlink()


def write_training(out: Path) -> None:
    """The metrics.csv and summary.json of the training runs, each in its own
    directory under out."""
    for name, cfg in TRAINING.items():
        (out / name).mkdir(parents=True, exist_ok=True)
        training.run_training(cfg, out_dir=out / name)


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
    relative difference and its count of other differing cells, plus its
    count of differing roundoff cells (ROUNDOFF_METRICS) if any, and under it
    the same for each metric with a differing cell, a roundoff metric with
    its largest absolute value on each side against ROUNDOFF_FLOOR; then how
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
        # metric -> [numeric cells, largest difference, other cells,
        #            largest |a|, largest |b|]
        metrics = {}
        for key in cells_a.keys() | cells_b.keys():
            metric_a, cell_a = cells_a.get(key, (None, _MISSING))
            metric_b, cell_b = cells_b.get(key, (None, _MISSING))
            metric = metric_b if metric_a is None else metric_a
            counts = metrics.setdefault(metric, [0, 0.0, 0, 0.0, 0.0])
            x, y = _number(cell_a), _number(cell_b)
            if x is None or y is None:
                counts[2] += cell_a != cell_b
            elif _rel_diff(x, y):
                counts[0] += 1
                counts[1] = max(counts[1], _rel_diff(x, y))
                counts[3] = max(counts[3], abs(x))
                counts[4] = max(counts[4], abs(y))
        plain = [c for m, c in metrics.items() if m not in ROUNDOFF_METRICS]
        roundoff = [c for m, c in metrics.items() if m in ROUNDOFF_METRICS]
        line = _differ(sum(c[0] for c in plain),
                       max((c[1] for c in plain), default=0.0),
                       sum(c[2] for c in metrics.values()))
        if any(c[0] for c in roundoff):
            line += f"; {sum(c[0] for c in roundoff)} roundoff cells differ"
        print(f"{name}: {line}")
        for metric, (numeric, largest, other, top_a, top_b) in sorted(metrics.items()):
            if metric in ROUNDOFF_METRICS and numeric:
                below = "both" if max(top_a, top_b) < ROUNDOFF_FLOOR else "not both"
                print(f"  {metric}: {numeric} roundoff cells differ, largest "
                      f"absolute value {top_a:.3g} and {top_b:.3g}; {below} below "
                      f"the roundoff floor {ROUNDOFF_FLOOR:.3g}; {other} other "
                      f"cells differ")
            elif numeric or other:
                print(f"  {metric}: {_differ(numeric, largest, other)}")
    print(f"{same} of {len(names)} files identical")
    return 0


def _differ(numeric: int, largest: float, other: int) -> str:
    return (f"{numeric} numeric cells differ, largest relative difference "
            f"{largest:.3g}; {other} other cells differ")


def _cells(path: Path) -> dict:
    """The cells of a run file by position, each as (metric, value): the
    leaf values of a JSON file by their key path, with the path's keys but
    not its list indices as the metric, and the comma-separated fields of
    any other file by (line, column), with the line's third field as the
    metric, or the column where that field is missing or a number."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".json":
        cells = {}
        for i, line in enumerate(text.splitlines()):
            fields = line.split(",")
            named = len(fields) > 2 and _number(fields[2]) is None
            for j, cell in enumerate(fields):
                cells[i, j] = (fields[2] if named else f"column {j}", cell)
        return cells
    cells = {}
    pending = [((), json.loads(text))]
    while pending:
        key, value = pending.pop()
        if isinstance(value, dict):
            pending.extend((key + (k,), v) for k, v in value.items())
        elif isinstance(value, list):
            pending.extend((key + (i,), v) for i, v in enumerate(value))
        else:
            cells[key] = ("/".join(k for k in key if isinstance(k, str)), value)
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
