"""A fixed reference kernel, timed around every operation, for the CPU's speed.

On a shared host the vCPU's speed drifts: neighbours slow every
operation by 1.5 to 2 times, in stretches that last from under a second
to minutes, and CPU time slows as much as wall time. The benchmark times
a kernel that never changes (its code and input are fixed, none of it is
dgft) before the first operation and after each one, so every operation
lies between two reference timings. Its latency is scaled by
``nominal / local``, where ``local`` is the mean of those two timings and
``nominal`` is the kernel's unslowed time on the reference machine (an
Intel Xeon Sapphire Rapids vCPU). A scaled latency reads as the
milliseconds the operation would take on that CPU at full speed. A
change to dgft moves the operation and not the kernel, so it moves the
scaled latency by the same factor as the measured one.

Two kernels, chosen to slow down like the work they scale:

- ``lapack``: ``numpy.linalg.eig`` of a fixed 200 x 200 real matrix, the
  LAPACK routine that dominates the in-process workloads.
- ``spawn``: a fresh interpreter that starts and exits, the process
  start-up that begins every ``dgft`` command. One that also imports
  numpy tracked the commands about as well and took three times as long.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NOMINAL_MS = {"lapack": 20.0, "spawn": 45.0}
SEED = 20160113
SIZE = 200

# Bound at load time, before the tracer wraps numpy.linalg.eig.
_eig = np.linalg.eig


class Reference:
    """Timings of one reference kernel, in the order they were taken."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_ns = NOMINAL_MS[kind] * 1e6
        self.matrix = np.random.default_rng(SEED).random((SIZE, SIZE))
        self.times: list[int] = []

    def sample(self) -> None:
        start = time.perf_counter_ns()
        if self.kind == "lapack":
            _eig(self.matrix)
        else:
            subprocess.run([sys.executable, "-c", "pass"], check=True)
        self.times.append(time.perf_counter_ns() - start)

    def scale(self, k: int) -> float:
        """Factor to the nominal speed for what ran between samples k and k + 1."""
        return self.nominal_ns / ((self.times[k] + self.times[k + 1]) / 2)
