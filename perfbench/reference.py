"""The host's speed, gauged by fixed reference work.

The benchmark's host is shared: the same single-threaded work runs up to
about 1.8 times slower for stretches of seconds to minutes, and CPU time slows
with wall time.  Each timed operation is therefore scaled by the host's speed
while it ran: divided by the mean time of a fixed kernel run just before it,
just after it and every GAUGE_INTERVAL_S inside it (the time spent inside is
taken out of the operation's), and multiplied by the kernel's nominal time.
A figure then reads as the time the operation takes on a host where the
kernel takes its nominal time.  Each workload names its kernel: `kernel`
mixes Python-level loops of small numpy products with 200x200 products, like
the vectorized minibatch work of queue-ablation; `python_kernel` is the loop
alone, like the per-step Python dispatch that bounds mc-tape and digits-q0,
and follows their speed more closely (ten-run spreads of 0.03 to 0.05
against 0.08 to 0.09 with `kernel`).  Both use numpy alone, so no change to
the package changes them.

Set-up is mostly process start and imports, which the kernel does not track,
so it is scaled by the time a fresh interpreter takes to import numpy,
against NOMINAL_START_S.
"""

import contextlib
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# The times the scaled figures are expressed at: about the gauges' median
# times on the host the baseline was recorded on, where the median over a run
# ranged from 2.1 to 3.8 ms (kernel) and 0.8 to 1.1 ms (python_kernel) with
# the workload and the host's state.
NOMINAL_MS = 3.6
NOMINAL_PYTHON_MS = 1.0
NOMINAL_START_S = 0.2

# Seconds between kernel runs inside an operation: a digits-q0 operation gets
# about a hundred, mc-tape and most queue-ablation operations end before one.
GAUGE_INTERVAL_S = 0.25

_rng = np.random.default_rng(20190206)
_SMALL = 0.1 * _rng.standard_normal((50, 50))
_VECTOR = _rng.standard_normal(50)
_LARGE = _rng.standard_normal((200, 200)) / 15.0


def python_kernel():
    """The Python-level part of the kernel: small products in a loop."""
    x, total = _VECTOR, 0.0
    for i in range(250):
        x = np.tanh(_SMALL @ x)
        total += i * 0.5
    return total + float(x.sum())


def kernel():
    total = python_kernel()
    y = _LARGE
    for _ in range(3):
        y = np.tanh(_LARGE @ y)
    return total + float(y.sum())


def interpreter_start():
    """Seconds for a fresh interpreter to start and import numpy."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - started


class HostSpeed:
    """Kernel times around and inside the operation being timed."""

    def __init__(self, gauge, nominal_ms):
        self.gauge = gauge
        self.nominal_ms = nominal_ms
        self.samples = []  # seconds per kernel run for the current operation
        self.inside = 0.0  # seconds of kernel runs inside the operation
        self.history = []  # seconds of every kernel run

    def sample(self):
        started = time.perf_counter()
        self.gauge()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.history.append(elapsed)
        return elapsed

    @contextlib.contextmanager
    def gauging(self):
        """Run the kernel every GAUGE_INTERVAL_S while the block runs, from a
        timer signal, so that a long operation is gauged all along."""

        def handler(signum, frame):
            self.inside += self.sample()

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def begin(self):
        """Start the next operation.  The last sample, taken after the
        previous operation, also stands before this one."""
        if not self.samples:
            self.sample()
        self.samples = self.samples[-1:]
        self.inside = 0.0

    def scale(self):
        """Factor from measured seconds to seconds at the nominal time."""
        return self.nominal_ms * 1e-3 / statistics.fmean(self.samples)
