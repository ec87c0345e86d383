"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared machine the speed of the CPU drifts by tens of percent
over minutes, and every timing drifts with it.  A fixed kernel, unrelated
to ``segal`` (tuples, strings, dicts, small objects, sorting and small
numpy operations), is timed just before and just after each measured
operation.  The operation's wall time is then reported at the reference
speed::

    scaled = wall * REFERENCE_S / mean(kernel before, kernel after)

The kernel runs in its own helper process, so nothing the measured program
does inside its process can change the calibration.  A program change
moves ``wall`` and leaves the kernel alone.  Raw wall times are recorded
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Median kernel time between operations on the reference machine (a 2-CPU
# Intel Xeon sandbox, Python 3.11.7, numpy 2.4.6); a kernel run right after
# the helper has been idle is slower than back-to-back runs.
REFERENCE_S = 0.075
SAMPLES_MAX = 7


class _Row:
    __slots__ = ("key", "name", "pair")

    def __init__(self, key, name, pair) -> None:
        self.key, self.name, self.pair = key, name, pair


def kernel() -> float:
    """Seconds taken by one fixed batch of interpreter and numpy work.

    Tuples, strings, dicts, small objects and sorting, as in the surface
    and chain code, with enough of them (a few MB) to leave the caches.
    """
    import numpy as np

    t0 = time.perf_counter()
    rows = [(i * 7919 % 100_003, str(i), (i, i + 1)) for i in range(40_000)]
    rows.sort()
    index = {r[1]: r for r in rows}
    objs = [_Row(*r) for r in rows[::2]]
    total = sum(o.key for o in objs) + sum(len(k) for k in index)
    a = np.arange(64.0)
    for _ in range(1_000):
        a = np.sin(a) + 1.0
    if total <= 0 or not a.size:
        raise AssertionError("unreachable")
    return time.perf_counter() - t0


class Calibrator:
    """A helper process that times the kernel on request."""

    def __init__(self, env=None) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.last = self.measure(SAMPLES_MAX)

    def measure(self, samples: int = 1) -> float:
        """Median kernel time over ``samples`` runs of the kernel."""
        self._proc.stdin.write("\n" * samples)
        self._proc.stdin.flush()
        self.last = statistics.median(float(self._proc.stdout.readline()) for _ in range(samples))
        return self.last

    def timed(self, fn):
        """Run ``fn``; return (result, wall seconds, kernel seconds around it).

        Longer operations get more kernel samples after them (one per
        second of operation, up to ``SAMPLES_MAX``), which keeps the
        calibration near 8 % of the measured time.
        """
        before = self.last
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = self.measure(min(SAMPLES_MAX, max(1, round(wall))))
        return out, wall, 0.5 * (before + after)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scaled(wall: float, kernel_s: float) -> float:
    """Wall seconds at the reference speed."""
    return wall * REFERENCE_S / kernel_s


def serve() -> None:
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    serve()
