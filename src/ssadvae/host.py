"""What a training process asks of its host, and the package's one use of
``ctypes``. Each function does nothing where the host lacks what it calls."""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import signal
import threading

# glibc mallopt(3) parameters, and the prctl(2) option that sets the signal
# a child gets when the thread that forked it ends
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_PR_SET_PDEATHSIG = 1
# this process's own symbols, libc's among them, for mallopt and prctl
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None


@functools.cache
def _openblas_threads() -> tuple:
    """The thread-count getter and setter of the OpenBLAS that numpy's
    wheels bundle as ``scipy_openblas64_``, found through numpy's extension
    module, which links it; two no-ops where numpy exports no such pair."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
    except (ImportError, OSError, AttributeError):
        return (lambda: None), (lambda n: None)
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc reuse the arrays a training step frees: above its default
    128 KiB thresholds, until it raises them to these caps after one large
    free, each step unmaps them or trims the heap and faults pages back in."""
    mallopt = getattr(_LIBC, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_blas_lock = threading.Lock()
_blas_hold = [0, None]  # trainings running, and the count before the first


@contextlib.contextmanager
def training():
    """OpenBLAS on one thread while any training of this process runs, on any
    thread, and its count restored after the last: a product split over two
    threads can add its terms in another order, which changed the trained
    bytes at the arrhythmia shape. The heap thresholds (``_keep_freed_heap``)
    are set on the first entry and stay set, as glibc's own would."""
    _keep_freed_heap()
    get, put = _openblas_threads()
    with _blas_lock:
        if _blas_hold[0] == 0:
            _blas_hold[1] = get()
            put(1)
        _blas_hold[0] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_hold[0] -= 1
            if _blas_hold[0] == 0:
                put(_blas_hold[1])


def die_with(parent: int) -> None:
    """In a forked child: be SIGKILLed when ``parent`` dies, through libc
    ``prctl`` where it has one, and exit now if it already has (the child
    was then reparented, so ``os.getppid()`` is another pid)."""
    prctl = getattr(_LIBC, "prctl", None)
    if prctl is None:
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)
