"""Host-speed normalization for timings taken on a shared machine.

Host speed drifts by 15-30% over seconds to minutes here, and process CPU
time drifts with it, so raw medians of separate benchmark invocations
differ by about 30% on identical code. HostClock times a fixed
reference_kernel between invocations and scales each measured time by
REFERENCE_MS over the kernel's mean time near it. A normalized figure reads
as the time on a host where the kernel takes REFERENCE_MS. A change to the
program moves it as it moves the raw time; a change of host speed cancels.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_MS = 10.0
CALIBRATE_S = 0.1           # kernel time per calibration
CALIBRATE_EVERY_S = 1.0     # at most this much work between calibrations
WINDOW_S = 2.0              # calibrations this close to a timing normalize it


def reference_kernel() -> float:
    """Fixed work in the mix the simulator's hot loops run: scalar float
    math, integer bit operations and numpy scalar draws. It uses no swarmsim
    code, so a change to the program never changes it."""
    rng = np.random.default_rng(12345)
    x = y = theta = 0.0
    crc = 0xFFFF
    for i in range(3000):
        v = 100.0 + rng.standard_normal()
        theta = math.remainder(theta + 0.2e-3, math.tau)
        x += v * 1e-3 * math.cos(theta)
        y += v * 1e-3 * math.sin(theta)
        crc ^= (i & 0xFF) << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return x + y + crc


class HostClock:
    """Times reference_kernel between invocations, about every
    CALIBRATE_EVERY_S, and keeps each kernel time with its start time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []     # (start, ms)
        self.spent_s = 0.0          # time spent calibrating
        self.last = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < CALIBRATE_S:
            t0 = time.perf_counter()
            reference_kernel()
            self.samples.append((t0, (time.perf_counter() - t0) * 1e3))
        self.last = time.perf_counter()
        self.spent_s += self.last - start

    def tick(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured in [start, end] to reference speed:
        REFERENCE_MS over the mean kernel time within WINDOW_S of it. The
        mean, not the median, because host speed switches between states
        and a window's time is spent in a mix of them."""
        near = [ms for t, ms in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_MS / statistics.fmean(near or [ms for _, ms in self.samples])
