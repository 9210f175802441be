"""Machine-readable run outputs.

CSV schema: one row per (episode, metric), columns episode, seed, metric,
value.  Floats are written with repr (shortest round-trip), so identical runs
produce byte-identical files.  Each run also writes a JSON summary mirror.
"""

import json
from pathlib import Path


def format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(path, rows) -> None:
    """rows: iterable of (episode, seed, metric, value)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["episode,seed,metric,value"]
    for episode, seed, metric, value in rows:
        if "," in metric:
            raise ValueError(f"metric name {metric!r} must not contain commas")
        lines.append(f"{episode},{seed},{metric},{format_value(value)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_metrics_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if lines[0] != "episode,seed,metric,value":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        episode, seed, metric, value = line.split(",")
        rows.append((int(episode), int(seed), metric, float(value)))
    return rows


def write_json_summary(path, summary: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
