"""The process's one thread pool, and how many threads it runs.

Three fan-outs share it: ``reverberation_decay`` spreads its delay maps over
it, ``lognormal_unit_mean`` its field chunks, and a delay map drawn off the
pool its row chunks (see :mod:`rfclutter.clutter`).  In each, an item draws
from its own stream, and :func:`in_order` hands the results back in item
order, so no draw and no sum changes order and the bytes do not depend on
the worker count.

Work that runs on a pool thread fans out no further: a delay map drawn by a
``reverberation_decay`` worker runs its chunks inline, so the pool's threads
never wait on one another.  With one worker (one core in the affinity mask)
everything runs inline on the calling thread.  The pool is built at the
first fan-out, never at import.

The BLAS thread count is set here too (:func:`one_blas_thread`): every spin
pins itself to one OpenBLAS thread, on any path, and ``run_checks`` holds the
pin over the checks' remaining BLAS and LAPACK calls.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import math
import os
import threading
from pathlib import Path

import numpy as np

# Each thread in flight holds a delay map's chunk temporaries or a field
# chunk, and may keep freed heap in its own malloc arena; peak memory and
# throughput were measured with two threads only, so no more than two run.
MAX_WORKERS = 2

_POOL = None
_POOL_LOCK = threading.Lock()
_THREAD = threading.local()  # .on_pool is set on the pool's own threads


def workers() -> int:
    """Threads to fan out over: the cores this process may run on, at most
    ``MAX_WORKERS``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return min(MAX_WORKERS, cores)


def _mark_pool_thread() -> None:
    _THREAD.on_pool = True


def _pool():
    """The shared executor, built on first use with ``MAX_WORKERS`` threads."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor  # 7 ms of import, paid here

            _POOL = ThreadPoolExecutor(
                MAX_WORKERS, thread_name_prefix="rfclutter", initializer=_mark_pool_thread
            )
        return _POOL


def in_order(fn, items, ahead=math.inf):
    """Yield ``fn(item)`` for each of ``items``, in item order.

    On the pool, items are taken and submitted one by one while fewer than
    ``ahead`` results wait to be read.  With one worker, or on a pool
    thread, ``fn`` runs inline as each result is read.
    Results not read when the reader stops are cancelled if not started.
    """
    if workers() < 2 or getattr(_THREAD, "on_pool", False):
        yield from map(fn, items)
        return
    pool = _pool()
    pending = collections.deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that the NumPy wheels
    bundle (``libscipy_openblas64_``), or None with any other BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas64_*"))
    lib = ctypes.CDLL(str(paths[0])) if paths else None  # the copy NumPy loaded
    if lib is None or not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        return None
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads = lib.scipy_openblas_set_num_threads64_
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


_BLAS_LOCK = threading.Lock()
_BLAS_PINS = {"holders": 0, "before": None}


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one thread of NumPy's bundled OpenBLAS.

    OpenBLAS splits a product differently at each thread count, which moves
    the last bits of an off-grid spin; and two threaded products at once,
    from two workers, oversubscribe the cores while OpenBLAS's idle threads
    spin.  The count is process-wide: the first of overlapping holders (on
    any thread) sets it to one, and the last restores the count it found.
    With any other BLAS this does nothing.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    with _BLAS_LOCK:
        if _BLAS_PINS["holders"] == 0:
            _BLAS_PINS["before"] = get_threads()
            set_threads(1)
        _BLAS_PINS["holders"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _BLAS_PINS["holders"] -= 1
            if _BLAS_PINS["holders"] == 0:
                set_threads(_BLAS_PINS["before"])
