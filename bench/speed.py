"""A fixed reference loop that measures how fast the machine is running right now.

On a shared machine the same code runs up to twice as slow from one
second to the next.  The benchmark times this loop before, during and
after every timed repetition of a stage and restates the repetition's
time at the machine's nominal speed, so that commits measured at
different moments compare on equal terms.  During a repetition the loop
runs from a SIGALRM handler every PERIOD_S, between two bytecodes of the
program, and its time is taken off the repetition's.  The loop mixes
what pathrel's stages do, most of it interpreter work: dictionary
updates and string scans, then small dense products and a pass over a
few hundred kilobytes.  It calls no pathrel code, so no change to the
program changes it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# typical loop time on a shared 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4,
# one OpenBLAS thread); it only sets the scale of the restated figures
NOMINAL_S = 0.0006
PERIOD_S = 0.05
EDGE_LOOPS = 15  # loops right before and right after a repetition

_rng = np.random.default_rng(0)
_MAT = _rng.random((200, 200))
_VEC = _rng.random(200)
_OUT = np.empty(200)
_BIG = _rng.random(50_000)
_TMP = np.empty_like(_BIG)
_TEXT = " ".join(f"w{i % 997}" for i in range(1500))
_WORDS = [f"w{i}" for i in range(0, 997, 100)]


def loop_time() -> float:
    """Seconds one pass of the reference loop takes.

    The numpy part writes into preallocated arrays, so the time does not
    depend on the allocator state the program left behind.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(400):
        table[i % 101] = table.get(i % 101, 0) + len(str(i))
    for i in range(200):
        for word in _WORDS:
            _TEXT.startswith(word, i)
    for _ in range(10):
        np.dot(_MAT, _VEC, out=_OUT)
        np.tanh(_OUT, out=_OUT)
    np.multiply(_BIG, _BIG, out=_TMP)
    np.sqrt(_TMP, out=_TMP)
    return time.perf_counter() - start


def edge() -> list[float]:
    return [loop_time() for _ in range(EDGE_LOOPS)]


def speed(samples: list[float]) -> float:
    """Machine speed relative to nominal (above 1 is faster) from loop times."""
    return NOMINAL_S / statistics.median(samples)


class Sampler:
    """Times the reference loop around and, every PERIOD_S, inside a timed call."""

    def __init__(self):
        self.loops: list[float] = []
        self.overhead = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.loops.append(loop_time())
        self.overhead += time.perf_counter() - start

    def measure(self, fn):
        """(fn(), seconds fn took without the loops inside it, machine speed)."""
        self.loops = edge()
        self.overhead = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            start = time.perf_counter()
            out = fn()
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start - self.overhead
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.loops += edge()
        return out, elapsed, speed(self.loops)
