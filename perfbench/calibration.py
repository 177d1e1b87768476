"""Host-speed calibration: a fixed reference kernel timed next to the ops.

The benchmark host is a few cores of a shared machine whose speed moves
in phases: for tens of seconds at a time the same code runs up to 1.8x
slower, and a 30-second run can sit wholly inside a slow or a fast phase.
The median of a run then says more about the phase than about the
program.  So the runner times a fixed reference kernel before every op and
once after the last, and reports each op's latency scaled to a reference
speed:

    normalized = latency * REFERENCE_S / mean(kernel before, kernel after)

The kernel copies the kind of work the program does, without calling it:
a Sturm-count sweep over small numpy arrays plus a scalar Python loop,
interpreter-bound like the spectral solver, the CLI and the Python loops
of the Fock-algebra checks.  A slow phase slows it by about the same
factor as the ops.  The cores do not always slow together, so for a
workload whose ops spread over the cores (the CLI's thread pool) the
kernel runs once pinned to each core and the times are averaged;
otherwise it runs where the op's thread runs.  The Fock-algebra ops are
not scaled: most of their time is spent waiting for OpenBLAS's second
thread to wake (a 200x200 product often takes 16 ms with the default two
threads and 0.24 ms with one), which the kernel does not see, and scaling
them by it made their spread wider, not narrower.

The kernel does not depend on the program, so a faster program reads faster;
the raw latencies are recorded beside the normalized ones.

The two cores are close enough that a busy one slows the other: after a
multi-threaded BLAS product the idle OpenBLAS thread spins for some tens
of milliseconds, and the kernel then runs about twice as slow.  So
the benchmark's own checks run with one BLAS thread (`one_blas_thread`).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import time

import numpy as np

_N = 128
_D = np.linspace(-1.0, 1.0, _N)
_OFF2 = np.full(_N, 0.25)
_LAMS = np.linspace(-2.0, 2.0, _N)


def _kernel(rounds: int = 4) -> int:
    count = np.zeros(_N, dtype=np.int64)
    acc = 0.0
    for _ in range(rounds):
        p_prev = np.zeros(_N)
        p = np.ones(_N)
        s_prev = np.ones(_N, dtype=np.int8)
        for k in range(_N):
            p_new = (_LAMS - _D[k]) * p - _OFF2[k] * p_prev
            s = np.sign(p_new).astype(np.int8)
            count += s == s_prev
            p_prev, p, s_prev = p, p_new, s
            if (k & 7) == 7:
                e = np.maximum(np.frexp(p)[1], np.frexp(p_prev)[1])
                p = np.ldexp(p, -e)
                p_prev = np.ldexp(p_prev, -e)
        for i in range(1, 4000):
            acc += (i % 13) * 0.5 / i
    return int(count.sum()) + int(acc)


# The kernel's duration at the reference speed: a round figure near its
# time in a fast phase of a 2-core x86-64 host.  It fixes the scale of the
# normalized seconds and is the same for every commit measured.
REFERENCE_S = 0.004


def _time_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def measure(every_core: bool = False) -> float:
    """Wall time of one run of the kernel, in seconds: on the core this
    thread is on, or the mean over runs pinned to each core the process
    may use (for ops whose threads spread over the cores)."""
    if not every_core:
        return _time_kernel()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(allowed):
            os.sched_setaffinity(0, {core})
            times.append(_time_kernel())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def openblas_libs() -> list:
    """(path, library, symbol suffix) for every scipy-openblas loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh
                        if "openblas" in ln and ln.split()[-1].startswith("/")})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
                libs.append((path, lib, suffix))
                break
    return libs


def _openblas_thread_setters() -> list:
    """(get, set) of the thread count of every loaded OpenBLAS."""
    pairs = []
    for _, lib, suffix in openblas_libs():
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get.restype = ctypes.c_int
        pairs.append((get, getattr(lib, f"scipy_openblas_set_num_threads{suffix}")))
    return pairs


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on a single thread."""
    pairs = _openblas_thread_setters()
    saved = [get() for get, _ in pairs]
    for _, put in pairs:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(pairs, saved):
            put(n)
