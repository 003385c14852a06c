"""Fixed reference work that tracks the machine's speed between timed ops.

The shared host this benchmark was written on runs a process in speed states
up to 1.8x apart. A state lasts from a fraction of a second to minutes, so
two runs of the same code minutes apart can differ by the state alone. The
states slow pure Python, small numpy operations and BLAS calls alike (within
a few percent of each other), so a fixed piece of such work, timed right
next to each op, measures the state the op ran in.

``Probe.sample`` runs that reference work for a share of the CPU time just
measured and returns its mean CPU time per unit. ``Session.ref`` in
``workloads.py`` scales each CPU time by ``REF_UNIT_S`` over the unit times
measured just before and just after it, which gives the time at the
reference speed. CPU time, not wall-clock time, because the host also stops
running the process for 10 ms or so at a time; that shows only in wall
time and set the 10-op tail of 9 ms ops. Wall-clock times are kept too.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds of reference work per second measured: enough to see the state
# the op ran in, little enough to leave most of the run to the ops.
SHARE = 0.1
# Time of one unit at the reference speed. It only sets the scale: it is
# close to the median unit time on the machine described in README.md, so
# scaled times there read close to wall-clock times.
REF_UNIT_S = 4.0e-4


class Probe:
    """Times a fixed unit of Python, numpy and BLAS work on constant inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((64, 64))
        self._v = rng.standard_normal((32, 48))
        self._unit()   # first call pays one-time numpy set-up

    def _unit(self) -> int:
        s = 0
        for j in range(800):
            s += j * j
        x = self._v
        for _ in range(24):
            x = np.tanh(x * 0.5 + 0.1)
            x.sum(axis=1)
        for _ in range(8):
            self._m @ self._m
        return s

    def sample(self, measured_s: float) -> float:
        """Run units for SHARE of ``measured_s`` (at least one); mean CPU seconds per unit."""
        budget = SHARE * measured_s
        units = 0
        start = now = time.process_time()
        while units == 0 or now - start < budget:
            self._unit()
            units += 1
            now = time.process_time()
        return (now - start) / units
