"""tools/fault_count.py: per-update minor faults and milliseconds of a queue
arm at a tiny shape, the arms it measures, and its refusal of a run no
longer than the baseline."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from uorolab.config import queue_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fault_count.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("fault_count", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FAULT_COUNT = _load_tool()


@pytest.mark.parametrize("arm", FAULT_COUNT.QUEUE_ARMS)
def test_per_update_of_a_tiny_queue_arm(arm):
    config = queue_config(arm, hidden=3, minibatch=4, stream_length=6, updates=1,
                          base_seed=1, data_seed=2)
    faults, ms = FAULT_COUNT.per_update(config, 5)
    # a difference of two short runs: at this shape either may read below 0
    assert isinstance(faults, float) and isinstance(ms, float)


def test_measures_every_queue_arm_then_digits():
    names = [name for name, _ in FAULT_COUNT.arms(digits=False)]
    assert names == ["neither", "temporal", "both"]
    assert [name for name, _ in FAULT_COUNT.arms(digits=True)] == names + ["digits-ours"]


def test_refuses_a_run_no_longer_than_the_baseline():
    done = subprocess.run([sys.executable, str(TOOL), "--updates", "3"],
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 2 and "--updates must exceed 3" in done.stderr
