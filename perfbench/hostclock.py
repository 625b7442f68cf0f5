"""Host speed, sampled alongside the samples, to scale timings to a fixed speed.

The benchmark runs on a shared host whose speed drifts by a third or more,
in phases from seconds to minutes, and the guest cannot see it: steal time
stays near zero while a fixed loop takes longer.  A loop timed on the CPU
that runs the sample follows the sample's slowdowns most closely (a
correlation of about 0.8 over 3-4 s samples, against about 0.5 for a loop on
the other CPU).

`HostClock` runs a thread in run.py's own process that repeats a fixed
chunk of work (a Python loop and a small matrix product, both cache-resident
and unrelated to fracwave), resting DUTY-proportionally between chunks.
run.py pins itself, the clock and every sample to one CPU, so the clock
takes at most DUTY of that CPU from the sample, in the same share at any
host speed.  Each chunk's time is the thread's own CPU time, so
waiting for the CPU or for the interpreter lock does not count; slowdowns
the host hides from the guest do.  A measured interval is scaled by
REFERENCE_CHUNK_S over the median chunk time around it: a time reads as it
would on a host where one chunk takes REFERENCE_CHUNK_S.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# Median chunk CPU time on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31 at one thread).
REFERENCE_CHUNK_S = 0.01
LOOP_ITERATIONS = 50_000
MATMULS = 48
MATRIX_SIZE = 128
DUTY = 0.2
# Chunks this many seconds before and after an interval also describe it:
# the host's phases last seconds to minutes, and a short set-up probe needs
# more chunks than fit inside it.
PAD_S = 1.0
MIN_CHUNKS = 5


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def chunk(matrix: np.ndarray) -> float:
    """CPU seconds of this thread for one fixed chunk of work."""
    t0 = time.thread_time()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    for _ in range(MATMULS):
        matrix = matrix @ matrix
        matrix /= np.abs(matrix).max()
    return time.thread_time() - t0


class HostClock:
    """Chunk timings taken in a background thread between start() and stop()."""

    def __init__(self):
        self.chunks: list = []  # (monotonic midpoint, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostclock", daemon=True)

    def _loop(self) -> None:
        matrix = np.random.default_rng(0).random((MATRIX_SIZE, MATRIX_SIZE))
        while not self._stop.is_set():
            start = _now()
            cpu = chunk(matrix)
            end = _now()
            self.chunks.append(((start + end) / 2.0, cpu))
            self._stop.wait((end - start) * (1.0 - DUTY) / DUTY)

    def start(self) -> "HostClock":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def chunk_s(self, t0: float, t1: float) -> float:
        """Median chunk time over [t0 - PAD_S, t1 + PAD_S].

        Falls back to the MIN_CHUNKS chunks nearest the interval when fewer
        fall inside it.
        """
        chunks = list(self.chunks)
        if not chunks:
            raise RuntimeError("the host clock took no chunk")
        inside = [cpu for mid, cpu in chunks if t0 - PAD_S <= mid <= t1 + PAD_S]
        if len(inside) < MIN_CHUNKS:
            centre = (t0 + t1) / 2.0
            nearest = sorted(chunks, key=lambda c: abs(c[0] - centre))[:MIN_CHUNKS]
            inside = [cpu for _, cpu in nearest]
        return statistics.median(inside)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a time measured over [t0, t1] into reference seconds."""
        return REFERENCE_CHUNK_S / self.chunk_s(t0, t1)
