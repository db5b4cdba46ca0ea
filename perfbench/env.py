"""Environment record written with every run set, and the host clock.

The thread caps are set by :mod:`perfbench.run` before numpy is
imported; this module only reports them. The calibration microbench is
ungated: it times the ladder's core cell (uint64 multiply, mask,
popcount) on a fixed array, so drift in the machine's own speed shows up
next to the benchmark's numbers. :class:`HostClock` turns the measured
wall times into reference seconds (see its docstring).
"""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: the BLAS / OpenMP thread caps the runner exports (one attack at a time)
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def calibrate(rows: int = 4096, cols: int = 256, reps: int = 150) -> float:
    """Mean uint64 mul+mask+popcount cells per second over ``reps`` kernels.

    About half a second on a 2-core x86-64 host: long enough to average
    out the host's sub-second jitter.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    known = rng.integers(0, 1 << 25, size=(rows, 1), dtype=np.uint64)
    guess = rng.integers(0, 1 << 25, size=(1, cols), dtype=np.uint64)
    mask = np.uint64((1 << 30) - 1)
    t0 = time.perf_counter()
    for _ in range(reps):
        np.bitwise_count((known * guess) & mask)
    return rows * cols * reps / (time.perf_counter() - t0)


def record() -> dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "machine": platform.machine(),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _build(name: str) -> tuple[Callable[[], None], int]:
    """One fixed reference kernel and the bytes it keeps resident.

    ``cells``: a uint64 multiply+popcount block of 1 MiB, in cache.
    ``interpreter``: a loop of integer and dict operations (per-target
    bookkeeping, keygen's big-integer arithmetic, the AST passes).
    ``large_arrays``: an in-place pass and a popcount over 16 MiB of
    uint64, bound by memory like the ladder's hypothesis blocks. Each
    takes a few milliseconds and works in buffers allocated and touched
    here, so sampling never moves the process's peak memory by more than
    those fixed bytes. The kernels are the benchmark's own code and never
    change with the program.
    """
    import numpy as np

    rng = np.random.default_rng(54321)
    if name == "cells":
        known = rng.integers(0, 1 << 25, size=(1024, 1), dtype=np.uint64)
        guess = rng.integers(0, 1 << 25, size=(1, 128), dtype=np.uint64)
        mask = np.uint64((1 << 30) - 1)
        prod = np.ones((1024, 128), dtype=np.uint64)
        count = np.ones((1024, 128), dtype=np.uint8)

        def cells() -> None:
            for _ in range(10):
                np.multiply(known, guess, out=prod)
                np.bitwise_and(prod, mask, out=prod)
                np.bitwise_count(prod, out=count)
        return cells, prod.nbytes + count.nbytes
    if name == "interpreter":
        def interpreter() -> None:
            table: dict[int, int] = {}
            s = 0
            for i in range(10000):
                s = (s * 1103515245 + i) & 0xFFFFFFFF
                table[i & 1023] = s
        return interpreter, 0
    if name == "large_arrays":
        big = rng.integers(0, 1 << 25, size=(4096, 512), dtype=np.uint64)
        count = np.ones((4096, 512), dtype=np.uint8)

        def large_arrays() -> None:
            np.multiply(big, np.uint64(1), out=big)
            np.bitwise_count(big, out=count)
        return large_arrays, big.nbytes + count.nbytes
    raise ValueError(f"unknown reference kernel {name!r}")


_KERNELS: dict[str, tuple[Callable[[], None], int]] = {}


def _kernel(name: str) -> Callable[[], None]:
    if name not in _KERNELS:
        _KERNELS[name] = _build(name)
    return _KERNELS[name][0]


def reference_bytes() -> int:
    """Bytes the reference kernels built so far keep resident."""
    return sum(nbytes for _, nbytes in _KERNELS.values())


#: the reference kernel of interpreter-bound work
PYTHON = ("interpreter",)


class HostClock:
    """Host speed, sampled while the measured work runs.

    The shared host this benchmark runs on changes speed by tens of
    percent within minutes: one attack round took 3.3 s and 4.6 s a
    minute apart, and every reference kernel moved with it. A wall time
    therefore says as much about the neighbours as about the program.

    The host flips between a fast and a slow state (the kernels up to
    40% slower) every fraction of a second, and how long it spends
    in the slow one changes from minute to minute. A sample times each
    of the clock's reference kernels once (3 to 9 ms in all). Measured
    work runs in :meth:`block`s, which sample at their start and end and, from an
    interval timer, every :attr:`INTERVAL` seconds in between; the signal
    handler runs between two bytecodes of the program, which never
    notices. A block's factor is the geometric mean, over the kernels, of
    the mean sample time over the block's samples relative to
    :attr:`NOMINAL` (a mean, not a median: the median of a two-state
    sample jumps between the states). A wall time divided by its block's
    factor is in *reference seconds*: the time the work takes on the host
    at its reference speed. :attr:`spent` counts the wall time spent
    sampling; a block's own time leaves it out, and so must any time
    taken inside a block. Times the program takes itself inside a block
    (per-target latencies) include any sample that fell in them, which is
    why the untraced run reports no per-target latency.

    The correction only holds for work that feels the slow state the
    way its kernels do, so each workload names its own (:data:`PYTHON`
    for interpreter-bound work, the uint64 kernels for the ladder). A
    clock with no kernels never samples and has factor 1; the traced run
    uses one.
    """

    #: kernel times in seconds at the reference speed: their in-run
    #: means on the 2-core x86-64 host the benchmark was written on
    NOMINAL = {"cells": 0.0031, "interpreter": 0.0025, "large_arrays": 0.005}
    #: seconds between two samples inside a block
    INTERVAL = 0.2

    def __init__(self, kernels: tuple[str, ...] = ()) -> None:
        self.kernels = kernels
        self.enabled = bool(kernels)
        self.samples: list[tuple[float, ...]] = []   # one time per kernel
        self.spent = 0.0   # wall seconds spent sampling
        self._kernels = [_kernel(k) for k in kernels]
        self._busy = False

    def sample(self) -> None:
        if not self.enabled or self._busy:
            return
        self._busy = True
        # a traced surface's settrace hook would slow the Python kernels
        tracer = sys.gettrace()
        sys.settrace(None)
        t0 = time.perf_counter()
        try:
            times = []
            for kernel in self._kernels:
                k0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - k0)
            self.samples.append(tuple(times))
        finally:
            self.spent += time.perf_counter() - t0
            sys.settrace(tracer)
            self._busy = False

    def factor(self, first: int = 0) -> float:
        """Host slowness over ``samples[first:]`` (1.0 at the reference speed)."""
        window = self.samples[first:]
        if not window:
            return 1.0
        return math.exp(statistics.fmean(
            math.log(statistics.fmean(col) / nominal)
            for col, nominal in zip(zip(*window), (self.NOMINAL[k] for k in self.kernels))
        ))

    @contextmanager
    def block(self) -> Iterator["Block"]:
        """Wall time of the body less in-block sampling, and its factor."""
        blk = Block()
        first = len(self.samples)
        self.sample()
        spent0 = self.spent
        previous = None
        if self.enabled:
            previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        t0 = time.perf_counter()
        try:
            yield blk
        finally:
            if self.enabled:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            blk.seconds = time.perf_counter() - t0 - (self.spent - spent0)
            self.sample()
            blk.factor = self.factor(first)


class Block:
    seconds = 0.0
    factor = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.factor
