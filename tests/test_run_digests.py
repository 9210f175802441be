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


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
REINFORCE_FILE = "reinforce-per-seed.csv"


def test_reinforce_per_seed_matches_the_golden_file(digests, tmp_path, capsys):
    """The per-seed REINFORCE estimates, one reinforce_episode call per seed,
    are byte for byte the checked-in file (reinforce-per-seed.versions names
    the numpy and BLAS that wrote it).  A mismatch reports --compare's count
    of differing cells and their largest relative difference."""
    golden, fresh = tmp_path / "golden", tmp_path / "fresh"
    for root in (golden, fresh):
        root.mkdir()
    (golden / REINFORCE_FILE).write_bytes((GOLDEN / REINFORCE_FILE).read_bytes())
    digests.write_reinforce_per_seed(fresh / REINFORCE_FILE)
    capsys.readouterr()
    if (fresh / REINFORCE_FILE).read_bytes() != (golden / REINFORCE_FILE).read_bytes():
        digests.compare(golden, fresh)
        pytest.fail(capsys.readouterr().out)


def assert_golden_runs(digests, names, write, tmp_path, capsys):
    """The run directories names, written under a fresh directory by
    write(out), hold byte for byte the checked-in files of the same names;
    a mismatch fails with --compare's count of differing cells and their
    largest relative difference."""
    golden, fresh = tmp_path / "golden", tmp_path / "fresh"
    for name in names:
        (golden / name).mkdir(parents=True)
        for path in (GOLDEN / name).iterdir():
            (golden / name / path.name).write_bytes(path.read_bytes())
    fresh.mkdir()
    write(fresh)
    capsys.readouterr()
    same = [(fresh / name / path.name).read_bytes() == path.read_bytes()
            for name in names for path in (golden / name).iterdir()]
    assert len(same) == 2 * len(names)
    if not all(same):
        digests.compare(golden, fresh)
        pytest.fail(capsys.readouterr().out)


def test_exact_protocol_runs_match_the_golden_files(digests, tmp_path, capsys):
    """The seven exact-protocol training runs (alpha or Q0 "ours" with a
    rank-one sketch) write byte for byte the checked-in metrics.csv and
    summary.json (exact-protocol.versions names the numpy and BLAS that
    wrote them)."""
    assert_golden_runs(digests, digests.EXACT_PROTOCOL,
                       lambda out: digests.write_training(out, digests.EXACT_PROTOCOL),
                       tmp_path, capsys)


def test_report_commands_match_the_golden_files(digests, tmp_path, capsys):
    """The variance-report, estimator-compare and alpha-solve commands, which
    call compute_C, solve_alpha_newton and compute_B, write byte for byte
    the checked-in CSV and JSON files (report-commands.versions names the
    numpy and BLAS that wrote them)."""
    assert_golden_runs(digests, digests.COMMANDS, digests.write_commands,
                       tmp_path, capsys)
