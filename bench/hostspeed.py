"""Host-speed reference: a fixed computation sampled through the whole run.

On a shared host the CPU time of identical work drifts by up to ~50% over
minutes: other load on the host slows this vCPU while it runs, so CPU time
rises with wall time, and a longer run does not average the drift away.
While a run measures, a CPU-time interval timer (``ITIMER_PROF``)
interrupts it every ``INTERVAL_S`` CPU seconds and times one block of
fixed work that uses no memtrack code.  The samples are spread evenly over
the program's CPU time, so the block times near a measured interval give
the host's speed during it.  ``local_scale()`` converts that interval's
CPU seconds into seconds on a host where one block takes
``NOMINAL_BLOCK_S``; ``scale()`` does the same from the whole run.

``program_time()`` is the thread's CPU clock without the reference blocks;
measured intervals read it.  It is a thread clock because the process CPU
clock only advances at scheduler ticks while a process-wide CPU timer is
armed.  The handler runs in the main thread between bytecodes, starts no
thread or process, and touches no state of the program.

The block mixes interpreter work with small numpy matrix products, like a
filter step: a 4-state constant-velocity Kalman filter over fixed
measurements, with the per-step bookkeeping in Python objects.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

NOMINAL_BLOCK_S = 0.010    # CPU seconds per block on the reference host
INTERVAL_S = 0.2           # CPU seconds between two samples
MARGIN_S = 1.0             # program CPU seconds around an interval whose samples scale it

_F = np.eye(4) + np.diag([1.0, 1.0], 2)
_Q = 0.1 * np.eye(4)
_H = np.eye(2, 4)
_R = np.eye(2)
_Z = np.random.Generator(np.random.PCG64(1234)).normal(size=(300, 2))


def block() -> float:
    """The fixed unit of reference work; returns a checksum of its result."""
    x, P, total = np.zeros(4), np.eye(4), 0.0
    for z in _Z:
        x = _F @ x
        P = _F @ P @ _F.T + _Q
        S = _H @ P @ _H.T + _R
        K = P @ _H.T @ np.linalg.inv(S)
        x = x + K @ (z - _H @ x)
        P = P - K @ S @ K.T
        step = {"pos": float(x[0]), "state": [float(v) for v in x]}
        total += step["pos"] + sum(step["state"])
    return total


class HostSpeed:
    """Samples the reference block on a CPU-time timer inside a ``with`` block."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.seconds = 0.0                # CPU seconds spent in blocks
        self.stamps = array("d")          # program time at each sample
        self.times = array("d")           # CPU seconds of each sample's block
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        block()
        spent = time.thread_time() - t0
        self.stamps.append(t0 - self.seconds)
        self.times.append(spent)
        self.seconds += spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def program_time(self) -> float:
        """This thread's CPU seconds without the time spent in blocks."""
        while True:
            spent = self.seconds
            now = time.thread_time()
            if spent == self.seconds:     # no sample ran between the two reads
                return now - spent

    @property
    def blocks(self) -> int:
        return len(self.times)

    def block_s(self) -> float:
        """Mean CPU seconds per block; NaN before the first sample."""
        return self.seconds / self.blocks if self.blocks else float("nan")

    def scale(self) -> float:
        """Factor from this run's CPU seconds to reference-host seconds."""
        return NOMINAL_BLOCK_S / self.block_s()

    def local_scale(self, start: float, seconds: float, margin: float = MARGIN_S) -> float:
        """Like ``scale``, from the samples within ``margin`` of an interval.

        The interval begins at program time ``start`` and lasts ``seconds``.
        The host's speed drifts within a run, so an interval is scaled by
        the speed around it; with no sample there, by the run's.
        """
        stamps = np.frombuffer(self.stamps)
        near = (stamps >= start - margin) & (stamps <= start + seconds + margin)
        if not near.any():
            return self.scale()
        return NOMINAL_BLOCK_S / float(np.frombuffer(self.times)[near].mean())
