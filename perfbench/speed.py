"""Machine-speed calibration, so that times from a shared machine compare.

The machine this benchmark was defined on runs the same Python code up to
twice as slowly for seconds to minutes at a time, when other tenants load
it.  While a run measures, an interval timer therefore times a fixed kernel
of benchmark code (never the program's) every SAMPLE_EVERY_S, in a signal
handler on the one thread there is.  Each timed interval -- a job
execution or a set-up -- loses the time spent in the handlers that ran
inside it, and is scaled by REFERENCE_S over the mean kernel time of the
samples inside it and the one on either side.  Reported times so read as
seconds on the reference machine at its usual speed; the raw times are
reported next to them.

The kernel does what the program spends its time on: Fraction arithmetic,
tuple-keyed dict lookups, small dicts per valuation and weighted sums, and
the many small objects, strings and JSON of the command-line front end.
It runs with the garbage collector off: its objects are freed by reference
counting, and a collection inside it would cost more the larger the
program's live heap is, making the kernel time depend on the program.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Median kernel time on the reference machine (2 vCPUs, Python 3.11.7).
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.15
_REPEATS = 3
_NAMES = [f"e{i}" for i in range(12)]


def kernel():
    one, zero = Fraction(1), Fraction(0)
    weights = {m: Fraction(i + 1, 78) for i, m in enumerate(_NAMES)}
    table = {(a, b): Fraction((i * 7 + j * 3) % 9, 8)
             for i, a in enumerate(_NAMES) for j, b in enumerate(_NAMES)}
    total = zero
    for a in _NAMES:
        row = {}
        for b in _NAMES:
            env = {"x": a, "y": b}
            row[(b,)] = max(zero, table[(env["x"], env["y"])] + table[(env["y"], env["x"])] - one)
        total += sum((row[(b,)] * weights[b] for b in _NAMES), zero)
    records = [{"k": i, "s": f"x{i}", "t": (i, i + 1)} for i in range(1500)]
    return total, json.dumps(records[:200])


def calibrate() -> float:
    """Median time of a few kernel runs, in seconds, with the garbage collector off."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REPEATS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Kernel times sampled by an interval timer: (end time, kernel seconds, handler seconds)."""

    def __init__(self, timer: bool = True):
        """With `timer` false (a traced pass, whose spans must not contain the
        kernel), samples are taken only by `poll` between jobs."""
        self.timer = timer
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def __enter__(self) -> "Sampler":
        self.samples.append((perf_counter(), calibrate(), 0.0))
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append((perf_counter(), calibrate(), 0.0))

    def poll(self) -> None:
        """Without the timer, take a sample between jobs once SAMPLE_EVERY_S has passed."""
        if not self.timer and perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.samples.append((perf_counter(), calibrate(), 0.0))

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        try:
            kernel_s = calibrate()
        except RecursionError:
            return  # the interrupted code was at the recursion limit; skip this sample
        end = perf_counter()
        self.samples.append((end, kernel_s, end - start))

    def scale(self, intervals) -> list[tuple[float, float]]:
        """(raw, scaled) seconds for each (start, end) interval, given in time order."""
        samples = self.samples
        out = []
        k = 0
        for start, end in intervals:
            while k < len(samples) and samples[k][0] <= start:
                k += 1
            j = k
            while j < len(samples) and samples[j][0] <= end:
                j += 1
            inside = samples[k:j]
            around = samples[max(k - 1, 0):j + 1]
            kernel_s = sum(sample[1] for sample in around) / len(around)
            busy = end - start - sum(sample[2] for sample in inside)
            out.append((busy, busy * REFERENCE_S / kernel_s))
        return out

    def kernel_median(self) -> float:
        return statistics.median(sample[1] for sample in self.samples)
