"""Every function the benchmark traces by name exists in the package.

perfbench/tracing.py patches package functions by module and attribute name,
and a name it cannot find reads 0 without an error.  This test reads its
TARGETS list, without editing it, so that a rename fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# uorolab.batch was deleted; the benchmark's rows for it stay stale until its
# next change drops them.
STALE = "ROADMAP item 4: perfbench still traces the deleted uorolab.batch"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PACKAGE, tracing.TARGETS


PACKAGE, TARGETS = _targets()


@pytest.mark.parametrize("module, path", [
    pytest.param(module, path, id=f"{module}.{path}",
                 marks=[pytest.mark.xfail(reason=STALE, strict=True)]
                 if module == "batch" else [])
    for module, path, _ in TARGETS
])
def test_traced_name_is_a_callable(module, path):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
