"""tools/run_digests.py: --compare gives, per differing run file, the count
of differing numeric cells and their largest relative difference, and the
whole set of run files is byte for byte the golden files."""

import contextlib
import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("run_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN_DIGESTS = _load_tool()
# each run's directory (or file) under an --out directory
RUNS = (*RUN_DIGESTS.TRAINING, *RUN_DIGESTS.COMMANDS, "reinforce-per-seed.csv")


@pytest.fixture(scope="module")
def digests():
    return RUN_DIGESTS


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
        "  loss: 1 numeric cells differ, largest relative difference "
        "1.39e-16; 1 other cells differ",
        "run/summary.json: 1 numeric cells differ, largest relative difference "
        "0.333; 1 other cells differ",
        "  grid/extra: 0 numeric cells differ, largest relative difference "
        "0; 1 other cells differ",
        "  grid/vq: 1 numeric cells differ, largest relative difference "
        "0.333; 0 other cells differ",
        "1 of 4 files identical",
    ]


def test_compare_bounds_each_metric_apart(digests, tmp_path, capsys):
    """grad_norm cells one ulp apart get their own bound, and the identical
    loss cells beside them get no line."""
    a, b = tmp_path / "a", tmp_path / "b"
    rows = [(0, "loss", 0.7), (0, "grad_norm", 0.2), (1, "loss", 0.6),
            (1, "grad_norm", 0.3)]
    for root, moved in ((a, False), (b, True)):
        values = [math.nextafter(v, 1.0) if moved and m == "grad_norm" else v
                  for _, m, v in rows]
        write(root, "run/metrics.csv", "episode,seed,metric,value\n" + "".join(
            f"{i},0,{m},{v!r}\n" for (i, m, _), v in zip(rows, values)))
    assert digests.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run/metrics.csv: 2 numeric cells differ, largest relative difference "
        "1.85e-16; 0 other cells differ",
        "  grad_norm: 2 numeric cells differ, largest relative difference "
        "1.85e-16; 0 other cells differ",
        "0 of 1 files identical",
    ]


def test_relative_difference(digests):
    nan, inf = float("nan"), float("inf")
    assert digests._rel_diff(nan, nan) == 0.0
    assert digests._rel_diff(inf, inf) == 0.0
    assert digests._rel_diff(1.0, inf) == inf
    assert digests._rel_diff(inf, -inf) == inf
    assert digests._rel_diff(0.0, -2.0) == 1.0


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def _files(root: Path) -> dict:
    """The bytes of each file under root by its relative path, but for the
    .versions notes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.suffix != ".versions"}


@pytest.fixture(scope="module")
def fresh_runs(digests, tmp_path_factory):
    """The whole set of run files, written once by write_runs (the commands'
    one-line summaries are dropped)."""
    fresh = tmp_path_factory.mktemp("fresh")
    with contextlib.redirect_stdout(io.StringIO()):
        digests.write_runs(fresh)
    return fresh


def test_run_files_match_the_golden_files(fresh_runs):
    """write_runs writes the files of tests/data/golden/ and no other, under
    the same names: a run file that moves, or a run with no golden file,
    fails (the .versions notes name the numpy and BLAS that wrote them)."""
    assert sorted(_files(fresh_runs)) == sorted(_files(GOLDEN))


@pytest.mark.parametrize("name", RUNS)
def test_run_matches_its_golden_files(digests, fresh_runs, name, tmp_path, capsys):
    """Each run's files are byte for byte its checked-in files.  A mismatch
    reports --compare's count of differing cells and their largest relative
    difference, and any file found on one side only."""
    golden, fresh = tmp_path / "golden", tmp_path / "fresh"
    for root, source in ((golden, GOLDEN / name), (fresh, fresh_runs / name)):
        root.mkdir()
        if source.is_dir():
            shutil.copytree(source, root / name)
        elif source.is_file():
            shutil.copyfile(source, root / name)
    assert _files(fresh), f"{name} wrote no file"
    if _files(fresh) != _files(golden):
        capsys.readouterr()
        digests.compare(golden, fresh)
        pytest.fail(capsys.readouterr().out)
