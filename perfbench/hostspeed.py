"""Host-speed correction of benchmark times.

On a shared VM the speed a process gets drifts by about +-20% over seconds
and over minutes, in CPU time as well as in wall time. Between runs that drift
is larger than the program changes the benchmark has to resolve, and longer
runs do not average it away. So the benchmark times a fixed reference kernel,
which is its own code and calls nothing in commlab, between units of timed
work (sweep chunks, ladder cases), and multiplies the run's times by
REFERENCE_S / (mean kernel time over the run): the time the work would take
on a host that runs the kernel in REFERENCE_S. A change to the program moves
the work's time and not the kernel's, so it shows in full; a slower or faster
host moves both, and it cancels.

One scale serves the whole run. Scaling each unit by the few kernel runs
around it follows the host more closely but adds the noise of those few
runs; over ten-run sets that spread the figures more than it steadied them,
most on the ladder's multi-second cases.

The host switches between a fast and a slow state (the kernel takes about 6
or about 10 ms), so the work's time follows the share of the run spent in
each. A median of the kernel times jumps from one state to the other as that
share crosses one half; a mean follows it. The mean drops the fastest and
slowest tenth of the kernel runs (preempted runs take up to 35 ms), and the
kernel runs about as often after a long unit of work as during one of that
length, so its runs sample the run evenly in time.

Times that do not depend on host speed, such as a case that runs to its fixed
time budget, are not scaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean kernel time on the baseline host (2-vCPU Xeon VM, Python 3.11.7,
# numpy 2.4.6); it only fixes the unit of the scaled times
REFERENCE_S = 0.0095
PERIOD_S = 0.2  # the kernel runs about once per PERIOD_S of work
CATCH_UP = 10  # at most this many kernel runs at once after a long unit
TRIM = 0.1  # share of kernel runs dropped at each end before the mean

_rng = np.random.default_rng(0)
_LABELS = _rng.integers(0, 16, size=256)
_CELLS = _rng.integers(0, 4, size=(64, 64))


def kernel() -> float:
    """Fixed work in the mix commlab does: small-int and dict work in the
    interpreter, entropy of small label arrays, and whole-grid numpy passes."""
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(24_000):
        key = (i * 7919) & 255
        counts[key] = counts.get(key, 0) + 1
        acc += key * key % 13
    for _ in range(250):
        c = np.bincount(_LABELS, minlength=16).astype(float)
        p = c[c > 0] / c.sum()
        acc -= float((p * np.log2(p)).sum())
    for k in range(40):
        acc += int(np.count_nonzero(_CELLS[k:, :] == (k & 3)))
    return acc


class HostSpeed:
    """Kernel timings of one run, and the scale they give its times."""

    def __init__(self):
        self.last = None  # perf_counter at the end of the last kernel run
        self.took: list[float] = []  # seconds of each kernel run

    def probe(self) -> None:
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.took.append(self.last - start)

    def due(self) -> None:
        """One probe per PERIOD_S since the last one, at most CATCH_UP; none
        if the last probe is less than PERIOD_S old. The first call probes."""
        if self.last is None:
            self.probe()
            return
        owed = int((time.perf_counter() - self.last) / PERIOD_S)
        for _ in range(min(owed, CATCH_UP)):
            self.probe()

    def scale(self) -> float:
        """REFERENCE_S over the trimmed mean kernel time of the run so far."""
        ordered = sorted(self.took)
        cut = int(len(ordered) * TRIM)
        return REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])

    def summary(self) -> dict:
        return {"probes": len(self.took), "median_s": statistics.median(self.took),
                "min_s": min(self.took), "max_s": max(self.took), "scale": self.scale()}
