"""tools/run_digests.py: --compare gives, per differing run file, the count
of differing numeric cells and their largest relative difference (a
roundoff metric's largest absolute values against a floor), and the
whole set of run files is byte for byte the golden files.  A run that moves
also names the numpy and BLAS of its golden files' .versions note beside the
running ones."""

import contextlib
import importlib.util
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
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


def test_compare_reads_roundoff_metrics_against_the_floor(digests, tmp_path, capsys):
    """audit_offline_rel_err cells, relative errors themselves, are counted
    apart as roundoff cells, and their line gives the largest absolute value
    on each side and whether both are below ROUNDOFF_FLOOR; the file line's
    relative difference is that of the other metrics."""
    assert digests.ROUNDOFF_FLOOR == 1e-14
    a, b = tmp_path / "a", tmp_path / "b"
    audits = {"below": ((3.59e-15, 1.2e-15), (5.46e-15, 2.0e-15)),
              "above": ((3.59e-15, 1.2e-15), (3.59e-15, 2.5e-14))}
    for name, (before, after) in audits.items():
        for root, values, loss in ((a, before, 0.5), (b, after, 0.5 if name == "below"
                                                      else 0.75)):
            write(root, f"{name}/metrics.csv", "".join(
                f"{i},0,audit_offline_rel_err,{v!r}\n{i},0,loss,{loss!r}\n"
                for i, v in enumerate(values)))
    assert digests.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "above/metrics.csv: 2 numeric cells differ, largest relative difference "
        "0.333; 0 other cells differ; 1 roundoff cells differ",
        "  audit_offline_rel_err: 1 roundoff cells differ, largest absolute value "
        "1.2e-15 and 2.5e-14; not both below the roundoff floor 1e-14; 0 other "
        "cells differ",
        "  loss: 2 numeric cells differ, largest relative difference 0.333; 0 other "
        "cells differ",
        "below/metrics.csv: 0 numeric cells differ, largest relative difference 0; "
        "0 other cells differ; 2 roundoff cells differ",
        "  audit_offline_rel_err: 2 roundoff cells differ, largest absolute value "
        "3.59e-15 and 5.46e-15; both below the roundoff floor 1e-14; 0 other "
        "cells differ",
        "0 of 2 files identical",
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


def running_versions() -> dict:
    """The numpy and BLAS of this process, named as a .versions note names
    them ("blas <name> <version>")."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def versions_note(name: str, golden: Path = GOLDEN) -> Path | None:
    """The .versions note that names run `name` as a whole word."""
    named = re.compile(rf"(?<![\w-]){re.escape(name)}(?![\w-])")
    return next((note for note in sorted(golden.glob("*.versions"))
                 if named.search(note.read_text(encoding="utf-8"))), None)


def versions_line(name: str, golden: Path = GOLDEN) -> str:
    """The numpy and BLAS named by the lines "numpy <version>" and
    "blas <name> <version>" of the run's note, beside the running ones, and
    whether they differ."""
    note = versions_note(name, golden)
    if note is None:
        return f"no .versions note names {name}"
    text = note.read_text(encoding="utf-8")
    written = {key: (m.group(1) if m else "(not named)") for key, m in (
        ("numpy", re.search(r"^numpy (\S+)", text, re.M)),
        ("blas", re.search(r"^blas (\S+ \S+)", text, re.M)))}
    running = running_versions()
    differ = [key for key in written if written[key] != running[key]]
    return (f"{note.name} names numpy {written['numpy']}, blas {written['blas']}; "
            f"running numpy {running['numpy']}, blas {running['blas']}: "
            + (f"they differ in {' and '.join(differ)}" if differ
               else "the same numpy and blas"))


def test_every_run_has_a_versions_note():
    assert [name for name in RUNS if versions_note(name) is None] == []


def test_versions_line_flags_another_numpy(tmp_path):
    """A synthetic note that names another numpy is flagged; one that names
    the running numpy and BLAS is not.  queue-a must not match queue-a-b."""
    running = running_versions()
    write(tmp_path, "other.versions", "queue-a-b was written with:\n"
          f"numpy {running['numpy']}\nblas {running['blas']} (threads unset)\n")
    write(tmp_path, "old.versions", "queue-a and queue-c were written with:\n"
          f"python 3.11.7\nnumpy 1.0.0\nblas {running['blas']} (threads unset)\n")
    line = versions_line("queue-a", tmp_path)
    assert line == (f"old.versions names numpy 1.0.0, blas {running['blas']}; "
                    f"running numpy {running['numpy']}, blas {running['blas']}: "
                    "they differ in numpy")
    assert versions_line("queue-a-b", tmp_path).endswith(": the same numpy and blas")
    assert versions_line("queue-d", tmp_path) == "no .versions note names queue-d"


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
    difference, any file found on one side only, and the numpy and BLAS of
    the run's .versions note beside the running ones."""
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
        pytest.fail(capsys.readouterr().out + versions_line(name))
