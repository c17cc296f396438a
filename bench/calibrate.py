"""Measures the speed of the host's core during a run, so runs can be compared.

On a shared host, other tenants slow a core by up to 1.7x on this kind of
work (measured on a two-vCPU 2.1 GHz Xeon virtual machine). The core
switches between its fast and slow state within tens of milliseconds and
can stay slow for minutes, so the share of a 20 s run spent slow differs
from run to run and moves every plain timing with it: on that machine the
middle half of ten runs of one workload spread by a quarter of their median.

The benchmark therefore runs on one core and, between its operations, times
a fixed *reference window*: the workload's warm-up inputs (one per timed
operation and distinct dimension) run through ``reflib``, a frozen copy of
the library as it stood when the benchmark was defined, one input at a time
and for ``CAL_SHARE`` of the wall time in all. That is the same kind of work
as the workload, so the tenants slow it in the same proportion as the
workload, whatever they run; a synthetic kernel tracks one kind of
contention and misses others. Every time a run reports is multiplied by
:class:`Calibration`'s ``speed_factor``: the reference window's time on the
fast core over its time in the run. The figures are thus those of the fast
core, and a change to the library shows in them while a change of the
host's state cancels out. The unscaled figures are printed beside them.
Two limits: library code that reacts to contention unlike the frozen copy
is corrected only in part, and a change that speeds up NumPy itself within
the process speeds up the frozen copy too, so it does not show.

Set-up samples run in their own processes, before and after the timed loop,
and a reference window is too long to run beside each of them; each is
scaled instead by :func:`kernel`, a short NumPy and Python routine, timed
just before and just after it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import reflib
import reflib.cli

#: Share of a timed loop spent on reference windows.
CAL_SHARE = 0.15
#: Seconds of one reference window on the fast core of the machine described
#: above: the sum over its inputs of each one's fastest of 30 runs.
REFERENCE_WINDOW_S = {
    "sep-large": 0.2395,
    "small-states": 0.00290,
    "tele-search": 0.1254,
    "cli-mixed": 0.0198,
}


class Calibration:
    """Times the reference window of one workload; :meth:`close` when done.

    Each :meth:`sample` runs the window's next input, in turn, so the
    samples spread evenly over the run however long the window is. The
    window's time in the run is the sum over its inputs of each one's mean.
    """

    def __init__(self, workload_cls):
        self._wl = workload_cls()
        self._wl.lib, self._wl.cli = reflib, reflib.cli
        self._ops = self._wl.warm_ops()
        self.reference_s = REFERENCE_WINDOW_S[self._wl.name]
        for op in self._ops:  # fills the frozen library's caches, as warm-up does the library's
            self._wl.run(op)
        self.times: list[list[float]] = [[] for _ in self._ops]  # seconds, per input of the window
        self._next = 0

    def sample(self) -> float:
        """Time the window's next input; returns its seconds."""
        i = self._next
        self._next = (i + 1) % len(self._ops)
        t0 = time.perf_counter()
        self._wl.run(self._ops[i])
        self.times[i].append(time.perf_counter() - t0)
        return self.times[i][-1]

    @property
    def window_s(self) -> float:
        """The reference window's time in this run."""
        while not all(self.times):  # a run too short to reach every input
            self.sample()
        return math.fsum(statistics.fmean(t) for t in self.times)

    @property
    def speed_factor(self) -> float:
        """What the run's times are multiplied by."""
        return self.reference_s / self.window_s

    def close(self) -> None:
        self._wl.close()


#: The kernel's time on the fast core of the machine described above.
KERNEL_REFERENCE_S = 0.26e-3

_RNG = np.random.default_rng(20240805)
_D = 4
_R4 = _RNG.standard_normal((_D,) * 4) + 1j * _RNG.standard_normal((_D,) * 4)
_W = _RNG.standard_normal((_D * _D, _D, _D)) + 1j * _RNG.standard_normal((_D * _D, _D, _D))
_H = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_H = _H + _H.conj().T


def kernel() -> float:
    """A fixed unit of NumPy and Python work; returns a number that depends on all of it."""
    table = np.einsum("abcd,sac,tbd->st", _R4, _W, _W)
    total = float(np.linalg.eigvalsh(_H)[-1]) + float(np.linalg.svd(table, compute_uv=False)[0])
    acc = {}
    for k in range(600):
        acc[k % 17] = acc.get(k % 17, 0) + k * k
    return total + sum(acc.values())


def kernel_factor(seconds: float) -> float:
    """``KERNEL_REFERENCE_S`` over the kernel's mean time, over calls made for about ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return KERNEL_REFERENCE_S / statistics.fmean(times)
