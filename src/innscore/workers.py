"""The worker pool that trains the models, searches neighbours and scores.

`run(jobs, threads)` calls a list of jobs on the calling thread and
helper threads, at most `threads` threads in all (default: the usable
cores), and returns their results in job order. Without the OpenBLAS
bundled with numpy's wheel, or with one worker, the jobs run inline on
the calling thread, BLAS threads untouched. Otherwise `run` first calls
`claim`, which pins that OpenBLAS to one thread through its runtime
setter for the rest of the process, so that the workers do not
oversubscribe the cores. Nothing restores the count: after a call on
two threads, OpenBLAS's helper thread spins on a core for about 0.12 s,
so a BLAS call made between pool calls would set it against the workers.
A command that makes a BLAS call before its first pool call therefore
calls `claim` before it. Each call starts its helpers and joins them
before it returns, so calls made from several threads at once are
independent, and each gets the results it would get alone.
`openblas_build` names that OpenBLAS's build and kernel for the manifests.

A job must write only what no other job of the same call reads or
writes, and must not call `run`. OpenBLAS gives the same bits at any
thread count, so a caller whose jobs each compute their part exactly as
the whole would gets the same bits whatever the pool size.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy

from .config import check_threads


def pool_size(threads, jobs):
    """The workers `run` gives `jobs` jobs: `threads`, or the usable cores
    when None, never more than `jobs`, and 1 without the OpenBLAS whose
    threads it pins."""
    threads = check_threads(threads)
    if openblas_threads() is None:
        return min(1, jobs)
    return min(threads or len(os.sched_getaffinity(0)), jobs)


@functools.cache
def _openblas():
    """The OpenBLAS that numpy's wheel bundles, or None where there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)  # the copy numpy already loaded
        if all(hasattr(lib, f"scipy_openblas_{name}_num_threads64_") for name in ("get", "set")):
            return lib
    return None


@functools.cache
def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheel bundles, or None where there is none."""
    lib = _openblas()
    if lib is None:
        return None
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def openblas_build():
    """The build text of the OpenBLAS that numpy's wheel bundles, which names
    its kernel, or None where there is none."""
    get = getattr(_openblas(), "scipy_openblas_get_config64_", None)
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def claim(threads=None):
    """Pin the OpenBLAS that numpy's wheel bundles to one thread for the
    rest of the process, when the pool of `threads` workers has helpers
    (`pool_size(threads, 2) > 1`). The pin is set on every call, as a
    caller may have reset the count since."""
    if pool_size(threads, 2) > 1:  # then openblas_threads() is not None
        openblas_threads()[1](1)


def run(jobs, threads=None):
    """Call each of `jobs` (callables taking no argument) and return their
    results in job order.

    The calling thread and up to `threads` - 1 helper threads, started for
    the call and joined before it returns, take the jobs in order, each
    the next one not yet taken. After a job fails no job is taken, every
    taken job finishes, and the first failed job in job order raises:
    every job before it was taken, so the error does not depend on the
    pool size. With helpers, it first calls `claim`, so OpenBLAS stays on
    one thread after it returns.
    """
    jobs = list(jobs)
    workers = pool_size(threads, len(jobs))
    results, failed = [None] * len(jobs), []
    lock, pending = threading.Lock(), iter(range(len(jobs)))

    def take():
        while True:
            with lock:
                i = None if failed else next(pending, None)
            if i is None:
                return
            try:
                results[i] = jobs[i]()
            except BaseException as exc:  # raised on the calling thread below
                with lock:
                    failed.append((i, exc))

    if workers > 1:
        claim(workers)
        with ThreadPoolExecutor(workers - 1, thread_name_prefix="innscore") as pool:
            helpers = [pool.submit(take) for _ in range(workers - 1)]
            take()
            for helper in helpers:
                helper.result()
    else:
        take()
    if failed:
        raise min(failed, key=lambda entry: entry[0])[1]
    return results
