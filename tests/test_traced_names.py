"""Every function the benchmark traces by name exists in the package, and
training's calls pass through the sketches' spans.

perfbench/tracing.py patches package functions by module and attribute name,
and a name it cannot find, or one that the package calls under another
name, reads 0 without an error.  These tests read its TARGETS list and
install its Tracer, without editing it, so that a rename or a bypassed
entry point fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# uorolab.batch was deleted; the benchmark's rows for it stay stale until its
# next change drops them.
STALE = "ROADMAP item 4: perfbench still traces the deleted uorolab.batch"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


tracing = _tracing()
PACKAGE, TARGETS = tracing.PACKAGE, tracing.TARGETS


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


@pytest.mark.parametrize("estimator, alpha_mode", [("uoro", "ours"), ("preuoro", "gir")])
def test_training_runs_its_sketch_through_the_traced_entry(estimator, alpha_mode):
    """A queue training run's sketch is a call of estimators.run_uoro or
    run_preuoro, so the benchmark's span of that name sees it."""
    config = importlib.import_module(f"{PACKAGE}.config")
    training = importlib.import_module(f"{PACKAGE}.training")
    cfg = config.queue_config(estimator, alpha_mode=alpha_mode, hidden=3,
                              stream_length=6, minibatch=3, updates=2)
    tracer, patcher = tracing.Tracer(), tracing.Patcher()
    tracer.install(patcher)
    try:
        training.run_training(cfg)
    finally:
        patcher.restore()
    spans = [span for span in tracer.spans if span[0] == f"estimators.run_{estimator}"]
    assert len(spans) == cfg.updates
