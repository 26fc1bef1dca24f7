"""A probe of the speed of the core that the program runs on.

On a shared host the speed of one core swings by up to 2.5 times from
second to second, and its average over a minute by tens of percent,
with the program's work unchanged; the two cores of the reference
machine swing independently of each other.  So the benchmark runs the
program on one core and, on the same core, a thread that every PERIOD_S
seconds runs one fixed chunk of work and records how much CPU time it
took; a chunk that takes longer means a slower core at that moment.
The chunk is sparse LU solves and products on a 60x60 grid, like the
full-grid stepper's, and small matrix-vector products and integer
arithmetic driven by the interpreter, like the optimizer's.  Over
rounds of `fpcirc all` these tracked the round's wall time best (the
mean chunk time over a round correlated 0.96 with its wall time for the
solves, 0.84-0.87 for the interpreter parts, over ten rounds).  Passes
over new arrays of 1e5 floats, like the particles', were tried and left
out: their time correlated 0.16.

``Probe.reference_seconds(t0, t1)`` converts the wall seconds of an
interval into seconds at the reference speed, the speed at which one
chunk takes REFERENCE_CHUNK_S:

    (t1 - t0 - probe CPU time in the interval) * REFERENCE_CHUNK_S / mean chunk time

The probe's own CPU time is taken out because the core ran the probe,
not the program, for that long.  The probe takes about 1.5% of the core.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PERIOD_S = 0.2
REFERENCE_CHUNK_S = 0.0025  # a chunk's CPU time on a quiet core of the reference machine
MIN_SAMPLES = 3  # an interval with fewer chunks borrows the latest ones before its end


def pin_to_one_core() -> None:
    """Restrict this process, and every thread and child it starts later, to one core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Probe:
    """Runs the chunk on a thread of its own; samples are (end, CPU seconds)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((21, 21)) / 21.0
        self._vector = rng.random(21)
        n = 60
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        grid = sp.kron(line, sp.eye(n)) + sp.kron(sp.eye(n), line) + sp.eye(n * n)
        self._grid = grid.tocsc()
        self._lu = spla.splu(self._grid)
        self._rhs = rng.random(n * n)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe")

    def chunk(self) -> float:
        z = self._rhs
        for _ in range(2):
            z = self._grid @ self._lu.solve(z)
        x = self._vector
        for _ in range(60):
            x = self._matrix @ x
            x = x / np.abs(x).max()
        s = 0
        for i in range(3000):
            s += i * i % 7
        return float(z[0] + x[0]) + s

    def _loop(self) -> None:
        while not self._stop.is_set():
            c0 = time.thread_time()
            self.chunk()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
            self._stop.wait(PERIOD_S)

    def start(self) -> None:
        """Start sampling, and return once MIN_SAMPLES warm chunks are recorded."""
        for _ in range(MIN_SAMPLES):
            self.chunk()  # first-call costs stay out of the samples
        self._thread.start()
        while len(self.samples) < MIN_SAMPLES and self._thread.is_alive():
            time.sleep(PERIOD_S / 4)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def reference_seconds(self, t0: float, t1: float) -> float:
        return reference_seconds(list(self.samples), t0, t1)

    def slowdown(self) -> float:
        """Mean chunk time over the run, as a multiple of REFERENCE_CHUNK_S."""
        cpu = [c for _, c in self.samples]
        return sum(cpu) / len(cpu) / REFERENCE_CHUNK_S if cpu else float("nan")


def reference_seconds(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Wall seconds from t0 to t1, converted to the reference speed."""
    inside = [c for end, c in samples if t0 <= end <= t1]
    if len(inside) < MIN_SAMPLES:
        speed = [c for end, c in samples if end <= t1][-MIN_SAMPLES:]
    else:
        speed = inside
    if not speed:
        raise ValueError("no probe sample before the end of the interval")
    return (t1 - t0 - sum(inside)) * REFERENCE_CHUNK_S * len(speed) / sum(speed)
