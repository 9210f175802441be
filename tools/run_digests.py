"""Write a fixed set of small run files and print one SHA-256 per file.

Run it in two checkouts and compare the outputs with diff: a change that
keeps every number the same leaves every digest the same.  Each JSON file
with a top-level "config" block gets a second line, "<sha>  <path>#without-config":
the digest of that JSON with the block removed, serialized as
reports.write_json_summary does, so a change that adds or drops a config key
can still show that every result stayed the same.

    python tools/run_digests.py > digests.txt
    python tools/run_digests.py --out runs/digests   # keep the files

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
    args = parser.parse_args(argv)
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


def _summary_bytes(summary: dict) -> bytes:
    """The bytes reports.write_json_summary writes for summary."""
    return (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8")


if __name__ == "__main__":
    sys.exit(main())
