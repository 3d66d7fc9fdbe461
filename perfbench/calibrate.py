"""Reference kernels that calibrate operation times against machine speed.

On a shared host the speed of a core swings by tens of percent within
minutes, as neighbours come and go, which is far more than the changes
the benchmark must resolve.  A worker therefore interleaves a fixed
reference kernel with the operations, for a set share of the operation
time, and reports each operation's time scaled by the kernel's nominal
time over its measured time nearby: seconds at the kernel's nominal
speed, written ``ref_s``.

``ScalarKernel``, small numpy calls from Python, calibrates set-up, the
dumps and the link blocks.  It does not calibrate the sweep, whose time
goes to large array passes: with it the sweep's five-seed spread was 24%,
with ``SampleKernel`` 7% (``BASELINE.md``).  The kernels use numpy only,
never ``oem_mmwave``, so no change to the program moves them.
"""

from __future__ import annotations

import time

import numpy as np

# Operations run in rounds of at least ROUND_S seconds, each followed by
# a slice of kernels lasting SHARE of the round.
ROUND_S = 0.5
SHARE = 0.2
# Set-up is timed from process start, so each set-up is followed by a
# slice of SETUP_SLICE_S seconds of the scalar kernel.
SETUP_SLICE_S = 0.1


def time_slice(kernel, duration: float) -> list[float]:
    """Run the kernel until at least `duration` seconds; its times."""
    times = []
    while not times or sum(times) < duration:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


class ScalarKernel:
    """A few 16x16 complex solves and short vector passes, called from Python."""

    nominal_s = 4.5e-4

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.vector = rng.standard_normal(16) + 1j * rng.standard_normal(16)

    def __call__(self) -> float:
        total = 0.0
        h = self.matrix
        for k in range(4):
            gram_inv = np.linalg.inv(h.conj().T @ h)
            total += float(np.real(np.diag(gram_inv)).sum())
            total += abs(complex((gram_inv @ (h.conj().T @ self.vector))[k]))
        for k in range(24):
            t = np.arange(64) * 0.1
            total += float(np.mean(np.cos(k * t - 0.3 * np.sin(t))))
        return total


class SampleKernel:
    """Exponential draws and masked passes over a 10k x 16 sample: an ergodic solve.

    A quarter of the sweep's 10k x 64 sample, so that its memory stays
    well below the sweep's peak and ``peak_rss_mb`` remains the sweep's own.
    """

    nominal_s = 3.0e-3

    def __init__(self):
        self.rng = np.random.default_rng(0)

    def __call__(self) -> float:
        gammas = self.rng.exponential(1.0, (10_000, 16))
        total = 0.0
        for water in (0.5, 2.0):
            out = np.zeros_like(gammas)
            mask = gammas > 0.0
            out[mask] = np.maximum(water - 1.0 / gammas[mask], 0.0)
            total += float(out.sum(axis=1).mean())
        return total


def for_operations(workload: str):
    """The kernel that calibrates the operations of `workload`."""
    return SampleKernel() if workload == "sweep-small" else ScalarKernel()
