"""tools/bench_pairs.py reads perfbench/run.py's printed figures and its
record, alternates the two sides pair by pair, and prints each side's
medians and the pairs the second side won.  Fed canned run output; no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_PAIRS = _load_tool()


def canned_stdout(round_ms, per_s, unscaled_round_ms, failed=0):
    """perfbench/run.py's standard output for an mc-tape run, as it prints it."""
    metrics = {"round_ms": {"value": round_ms, "unit": "ms"},
               "arm_ms_geomean": {"value": round_ms / 4, "unit": "ms"},
               "setup_s": {"value": 0.35, "unit": "s"},
               "peak_rss_mb": {"value": 41.5, "unit": "MB"}}
    return "\n".join([
        "workload mc-tape  seed 3  seconds 1.0  trace 0",
        'environment {"python": "3.11.7", "threads": {"OPENBLAS_NUM_THREADS": "1"}}',
        "estimates_per_s.uoro 24130.7 1/s  (median of 127, quartiles 23350.8 .. 24745.4)",
        f"estimates_per_s.preuoro {per_s} 1/s  (median of 127, quartiles 1 .. 2)",
        f"round_ms {round_ms} ms",
        f"arm_ms_geomean {round_ms / 4} ms",
        "setup_s 0.35 s",
        "peak_rss_mb 41.5 MB",
        f"unscaled round_ms {unscaled_round_ms} ms, setup_s 0.195 s  (as measured; "
        "reference kernel 0.4215 ms, interpreter start 0.1117 s)",
        f"failed_frac 0 frac  ({failed} of 889 checks failed)",
        json.dumps({"correct": failed == 0, "attempted": 889, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_printed_and_recorded_figures():
    record = {"unscaled_samples_ms": {"uoro": [0.04, 0.05, 0.06],
                                      "preuoro": [0.02, 0.025, 0.03, 0.04]}}
    figures = BENCH_PAIRS.parse_run(canned_stdout(0.42, 31216.8, 0.177, 2), record)
    assert figures == pytest.approx({
        "round_ms": 0.42, "arm_ms_geomean": 0.105, "setup_s": 0.35,
        "peak_rss_mb": 41.5, "failed": 2,
        "estimates_per_s.uoro": 24130.7, "estimates_per_s.preuoro": 31216.8,
        "unscaled round_ms": 0.177, "unscaled setup_s": 0.195,
        "unscaled estimates_per_s.uoro": 1e3 / 0.05,
        "unscaled estimates_per_s.preuoro": 1e3 / 0.0275})


def test_parse_run_names_unscaled_update_ms_for_update_workloads():
    stdout = canned_stdout(100.0, 1.0, 55.0).replace("estimates_per_s.", "update_ms.")
    figures = BENCH_PAIRS.parse_run(stdout, {"unscaled_samples_ms": {"temporal": [60.0]}})
    assert figures["update_ms.preuoro"] == 1.0
    assert figures["unscaled update_ms.temporal"] == 60.0
    assert BENCH_PAIRS.parse_run(stdout)["unscaled round_ms"] == 55.0


def test_pairs_alternate_and_summary_counts_wins(capsys):
    """Pair i runs seed first + i on both sides, the first side first in even
    pairs; a lower ms and a higher estimates/s win for the second side."""
    calls = []
    before = [(0.40, 30000.0), (0.41, 29000.0), (0.39, 31000.0), (0.40, 30500.0)]
    after = [(0.36, 32000.0), (0.37, 28000.0), (0.42, 33000.0), (0.35, 33500.0)]

    def run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        i = seed - 11
        round_ms, per_s = (before if checkout.name == "before" else after)[i]
        return BENCH_PAIRS.parse_run(canned_stdout(round_ms, per_s, round_ms / 2))

    assert BENCH_PAIRS.main(["x/before", "x/after", "--workload", "mc-tape",
                             "--first-seed", "11", "--pairs", "4",
                             "--seconds", "2"], run=run) == 0
    assert calls == [("before", "mc-tape", 11, 2.0), ("after", "mc-tape", 11, 2.0),
                     ("after", "mc-tape", 12, 2.0), ("before", "mc-tape", 12, 2.0),
                     ("before", "mc-tape", 13, 2.0), ("after", "mc-tape", 13, 2.0),
                     ("after", "mc-tape", 14, 2.0), ("before", "mc-tape", 14, 2.0)]
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["round_ms"].startswith("round_ms: before 0.4 (")
    assert ", after 0.365 (" in lines["round_ms"]
    assert "after better in 3 of 4" in lines["round_ms"]
    assert "-8.8%" in lines["round_ms"]
    assert "differ by more than" in lines["round_ms"]
    assert "after better in 3 of 4" in lines["estimates_per_s.preuoro"]
    assert "after better in 3 of 4" in lines["unscaled round_ms"]
    assert "after better in 0 of 4" in lines["setup_s"]  # ties count for no side
    assert "differ by less than" in lines["setup_s"]
    assert lines["failed checks"] == "failed checks: before 0, after 0"
