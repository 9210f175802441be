"""tools/run_digests.py --compare: per differing run file, the count of
differing numeric cells and their largest relative difference."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("run_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root: Path, name: str, text: str):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_compare_counts_cells_and_bounds_them(digests, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, value, label in ((a, "0.1", "loss"), (b, "0.10000000000000002", "los")):
        write(root, "run/metrics.csv", f"0,0,{label},{value}\n1,0,grad_norm,2.5\n")
        write(root, "same.csv", "0,0,loss,1.0\n")
    write(a, "run/summary.json", json.dumps({"config": {"seed": 1}, "grid": [
        {"vq": 4.0, "name": "x"}, {"vq": 1.0}]}))
    write(b, "run/summary.json", json.dumps({"config": {"seed": 1}, "grid": [
        {"vq": 4.0, "name": "x"}, {"vq": 1.5, "extra": True}]}))
    write(a, "only-a.csv", "1\n")
    assert digests.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"only-a.csv: only in {a}",
        "run/metrics.csv: 1 numeric cells differ, largest relative difference "
        "1.39e-16; 1 other cells differ",
        "run/summary.json: 1 numeric cells differ, largest relative difference "
        "0.333; 1 other cells differ",
        "1 of 4 files identical",
    ]


def test_relative_difference(digests):
    nan, inf = float("nan"), float("inf")
    assert digests._rel_diff(nan, nan) == 0.0
    assert digests._rel_diff(inf, inf) == 0.0
    assert digests._rel_diff(1.0, inf) == inf
    assert digests._rel_diff(inf, -inf) == inf
    assert digests._rel_diff(0.0, -2.0) == 1.0
