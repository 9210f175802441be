"""Spans and call counters around uorolab's public layer functions.

The benchmark wraps each traced function from outside the package.  Every
uorolab module that binds the original function object, under any name, gets
the wrapper instead, so calls through a module attribute (``rnn.step``),
through a name imported with ``from .x import f`` and from inside the defining
module all pass through it.  ``Patcher.restore`` puts the originals back.  A
target that a later version of the package no longer has is reported as
absent and the run goes on without it.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "uorolab"

SPAN = "span"  # timed span, with its parent
COUNT = "count"  # call counter only: these functions are small and numerous

# (module, attribute path, kind).  The span or counter is named
# "<module>.<attribute path>" with a trailing ".__init__" dropped.
TARGETS = [
    ("training", "run_training", SPAN),
    ("training", "measure_estimator", SPAN),
    ("batch", "forward_batch", SPAN),
    ("batch", "attach_bernoulli_losses", SPAN),
    ("batch", "bptt_batch", SPAN),
    ("batch", "uoro_batch", SPAN),
    ("batch", "preuoro_batch", SPAN),
    ("noise", "episode_noise", SPAN),
    ("estimators", "run_uoro", SPAN),
    ("estimators", "run_preuoro", SPAN),
    ("estimators", "reinforce_episode", SPAN),
    ("estimators", "ScalingSchedule.__init__", SPAN),
    ("rnn", "run_episode", SPAN),
    ("rnn", "step", COUNT),
    ("exact", "episode_tensors", SPAN),
    ("exact", "bptt_gradient", SPAN),
    ("variance", "compute_C", SPAN),
    ("variance", "solve_alpha_newton", SPAN),
    ("variance", "compute_B", SPAN),
    ("variance", "optimal_Q0", SPAN),
    ("variance", "offline_total_estimate", SPAN),
    ("variance", "empirical_variance", SPAN),
    ("linalg", "psd_frac_power", SPAN),
    ("tasks", "make_queue_episode", SPAN),
    ("tasks", "load_rowwise_digits", SPAN),
    ("optim", "adam_update", SPAN),
]

# The local Jacobian products of the rnn layer, counted together.
PRODUCT_PREFIXES = ("jvp_", "vjp_", "dense_")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patcher:
    """Replaces package functions by wrappers and restores them."""

    def __init__(self):
        self._undo = []

    def wrap(self, module_name, path, make_wrapper) -> bool:
        """Wrap PACKAGE.module_name.<path>; False if it does not exist."""
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            return False
        wrapper = make_wrapper(original)
        if outer:  # a method: patch it on its class
            self._set(owner, attr, wrapper)
            return True
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)
        return True

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def observe_calls(patcher, module_name, path, sink) -> bool:
    """Append (positional arguments, return value) of each call of the
    function to sink (no timing)."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((args, result))
            return result
        return wrapper

    return patcher.wrap(module_name, path, make)


class Tracer:
    """Keeps spans (name, start, end, parent, op) and counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.products = []  # names of the counted rnn products
        self.op = ""  # identifier shared by the spans of one timed operation
        self.active = True  # off while the benchmark checks outputs
        self._stack = []

    def install(self, patcher):
        """Wrap every target through patcher; missing ones go to absent."""
        rnn = importlib.import_module(f"{PACKAGE}.rnn")
        products = sorted(
            name for name, value in vars(rnn).items()
            if name.startswith(PRODUCT_PREFIXES) and callable(value)
            and getattr(value, "__module__", None) == rnn.__name__
        )
        targets = TARGETS + [("rnn", name, COUNT) for name in products]
        self.absent = []
        for module_name, path, kind in targets:
            name = f"{module_name}.{path.removesuffix('.__init__')}"
            make = self._span if kind == SPAN else self._counter
            if not patcher.wrap(module_name, path, functools.partial(make, name)):
                self.absent.append(name)
        self.products = [f"rnn.{name}" for name in products]

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[5] = _span_detail(name, args, result)
            return result
        return wrapper

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, details."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                   "details": []})
        for index, (name, start, end, _, _, detail) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            if detail is not None:
                entry["details"].append(detail)
        for name, count in self.counts.items():
            out[name]["calls"] += count
        return dict(out)

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent index,
        op, and the Newton iterations/convergence or matrix size if any."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, detail in self.spans:
                f.write(json.dumps([name, start, end, parent, op, detail]) + "\n")


def _span_detail(name, args, result):
    """The few facts per call that per-layer metrics need beyond timing."""
    if name == "variance.solve_alpha_newton":
        return [int(result.iterations), bool(result.converged)]
    if name == "linalg.psd_frac_power" and args:
        return int(getattr(args[0], "shape", (0,))[0])
    return None
