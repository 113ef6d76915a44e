"""A fixed reference task that measures how fast the host runs right now.

On a shared host the speed of one CPU switches between levels for a few
seconds at a time (on the 2-CPU Xeon host this benchmark was written on,
by up to 2x, with process CPU time equal to wall time), so raw times from
different runs are not comparable: the median tokens/s of 12 s runs on
five seeds had an interquartile range of 16-33% of its median. The
benchmark therefore times this task before, during and after every
measured repetition and scales the repetition's time to a reference host
that runs the task in ``REFERENCE_S`` seconds.

The task mixes what seqtag spends its time on: small numpy matmuls and
element-wise ops inside a Python loop (the LSTM and CRF recursions) and
pure-Python string and dict work (corpus parsing and voting). It shares no
code with seqtag, so a change to the program never changes it.
"""

import gc
import signal
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_W = _RNG.normal(size=(32, 128)) * 0.1
_X = _RNG.normal(size=(32,))
_LINES = [f"tok{i % 211} NN {'B-X' if i % 7 == 0 else 'O'}" for i in range(600)]

# Task time on the fast level of the host named above.
REFERENCE_S = 0.0009
SAMPLE_INTERVAL_S = 0.1


def task():
    h = _X
    for _ in range(120):
        z = h @ _W
        h = np.tanh(z[:32]) * (1.0 / (1.0 + np.exp(-z[32:64])))
    counts = {}
    for line in _LINES:
        word, _, tag = line.split()
        key = (word, tag)
        counts[key] = counts.get(key, 0) + 1
    return float(h.sum()) + len(counts)


def timed_task():
    # A garbage collection of the workload's objects that happened to start
    # inside the task would read as a slow host.
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        task()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def measure(repeats=5):
    """Median seconds of ``repeats`` runs of the reference task."""
    return statistics.median(timed_task() for _ in range(repeats))


class Sampler:
    """Times the task every ``SAMPLE_INTERVAL_S`` seconds while a
    repetition runs, from a timer signal handled in this (the main)
    thread, and keeps the time that took so the caller can subtract it.

    ``factor(before, after)`` is how much slower than the reference host
    the host ran over the repetition: the mean of the samples, with the
    calibrations taken just before and just after it.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        took = timed_task()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, before, after):
        return statistics.fmean([before, *self.samples, after]) / REFERENCE_S
