"""The benchmark's workloads run and pass their own output checks.

perfbench/workloads.py builds each workload from a seed, runs its operations
through the package's public entry points and checks the outputs against
public oracles.  This test reads those workloads without editing them: for
each one it builds the workload at one seed, runs one operation of every arm
and that operation's check, and expects no failed check, so that a change
that breaks a benchmark output fails here first.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its siblings by name
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_per_arm_passes_its_checks(name, tmp_path):
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    try:
        for arm in workload.arms:
            workload.check(arm, 0, workload.op(arm, 0), checks)
    finally:
        workload.close()
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages
