"""How fast the host runs right now, from a fixed probe kernel.

The shared host this benchmark was defined on switches, on a scale of
seconds to minutes, between a fast state and states up to half as fast
(a fixed CPU loop varied 2x over five minutes), on each vCPU on its
own.  No statistic over a 30-second run cancels that.  So the replay
loops interleave this probe with the work they time, and the throughput
and set-up metrics are scaled to a reference host speed.  The probe is
benchmark-owned code that no change to the program can speed up or
slow down, so the scaling moves with the host, not with the program.

The kernel mixes what the node's hot path mixes: Python-level loops
and calls over small NumPy arrays.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Probe kernel duration on this host in its fast state (Intel Xeon,
#: 2 vCPUs at 2.0 GHz).  Scaled metrics read "as if the probe took this
#: long".
REFERENCE_PROBE_S = 7.0e-5

#: Interleave a probe whenever this much time has passed since the last.
PROBE_EVERY_S = 0.025

_BLOCKS = [np.random.default_rng(0).standard_normal(90) for _ in range(8)]
_SMOOTH = np.array([0.25, 0.5, 0.25])


def _kernel() -> float:
    acc = 0.0
    state = np.zeros(90)
    for block in _BLOCKS:
        extended = np.concatenate([state[-30:], block])
        state = np.maximum.accumulate(extended)[30:] - np.convolve(block, _SMOOTH, mode="same")
        acc += float(state.sum())
        for value in block[:20]:
            acc += value * value
    return acc


class HostSpeed:
    """Accumulates probe timings; :attr:`slowdown` is the mean probe
    time over the reference (1 in the fast state, 2 at half speed).

    One probe runs the kernel three times back to back and keeps the
    fastest, so what the program left in the caches does not count.  It
    is timed in thread CPU time: while the guest scheduler runs the
    program's other processes instead, that clock stops, so the probe
    does not read the program's own load as a slow host.  The host's
    slowness does show in it (this guest charges it as CPU time; it has
    no steal accounting).

    The vCPUs change speed independently.  Work that runs in the calling
    thread is measured where that thread runs (``every_cpu=False``);
    work spread over several processes is measured by probing on each
    vCPU in turn and averaging (``every_cpu=True``).
    """

    def __init__(self, every_cpu: bool = False):
        self.probe_s = 0.0  # all time spent probing
        self._cpus = sorted(os.sched_getaffinity(0)) if every_cpu else [None]
        self._kernel_s = 0.0
        self._n_probes = 0
        self._next = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in self._cpus:
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                fastest = float("inf")
                for _ in range(3):
                    t0 = time.thread_time()
                    _kernel()
                    fastest = min(fastest, time.thread_time() - t0)
                self._kernel_s += fastest
                self._n_probes += 1
        finally:
            if self._cpus != [None]:
                os.sched_setaffinity(0, allowed)
        end = time.perf_counter()
        self.probe_s += end - start
        self._next = end + PROBE_EVERY_S

    def maybe_probe(self) -> None:
        if time.perf_counter() >= self._next:
            self.probe()

    @property
    def slowdown(self) -> float:
        return self._kernel_s / self._n_probes / REFERENCE_PROBE_S
