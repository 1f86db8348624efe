"""Every process-wide native setting of deepesn, and its calls into native code.

Three settings outlive a call, and this module owns each: numpy's OpenBLAS
thread count (``one_thread``), glibc's malloc thresholds (``_pooled_heap``)
and the worker threads (``guess_map``). One rule holds for every command: a
job's guesses run on one thread per core the process may run on (``taskset``
sets which), at most one per guess, and its numerical work runs with
OpenBLAS at one thread, so its files are the same for any core count and
any ``OPENBLAS_NUM_THREADS``. Each thread holds one guess, so peak memory
grows with the thread count; ``taskset -c 0`` gives the low-memory run.
A command refuses work whose one guess, or one dense matrix, needs more
than half the physical memory (``require_half_memory``).

numpy 2 wheels link scipy-openblas, whose symbols carry a ``scipy_`` prefix
and, for the 64-bit-integer interface, a ``64_`` suffix. ``np.linalg.eigvals``
and ``np.linalg.qr(..., mode="raw")`` hold the interpreter lock for their
whole LAPACK call, so threads solve one at a time; ctypes releases it around
a foreign call. ``eigvals`` and ``qr_raw`` call the routine numpy calls with
the arguments numpy passes (a copy of the matrix in Fortran order, the
workspace its query returns), so they give numpy's bits while other threads
run. Without the symbols, or for input the routine does not take as it
stands, each is the numpy call. Nothing is loaded before the first call.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Optional

import numpy as np

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h


@functools.cache
def _library() -> Optional[ctypes.CDLL]:
    """numpy's extension module, through which its OpenBLAS's symbols resolve."""
    try:
        return ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None


@functools.cache
def _symbol(name: str, argtypes: tuple, restype) -> Optional[Callable]:
    """Function ``name`` of numpy's OpenBLAS with the given signature, or None."""
    lib = _library()
    if lib is None:
        return None
    try:
        fn = lib[name]
    except AttributeError:
        return None
    fn.argtypes, fn.restype = list(argtypes), restype
    return fn


def _routine(name: str, nargs: int) -> Optional[Callable]:
    """LAPACK subroutine ``name``, every one of its ``nargs`` arguments by reference."""
    return _symbol(f"scipy_{name}_64_", (ctypes.c_void_p,) * nargs, None)


def _info(routine: Callable, *args) -> int:
    """Call ``routine`` on ``args`` (arrays and ctypes scalars) and a trailing INFO.

    Every argument goes by address; returns INFO.
    """
    info = ctypes.c_int64()
    routine(*(a.ctypes.data if isinstance(a, np.ndarray) else ctypes.addressof(a)
              for a in args), ctypes.addressof(info))
    return info.value


def threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """Getter and setter of the OpenBLAS thread count, or None."""
    get_threads = _symbol("scipy_openblas_get_num_threads64_", (), ctypes.c_int)
    set_threads = _symbol("scipy_openblas_set_num_threads64_", (ctypes.c_int,), None)
    if get_threads is None or set_threads is None:
        return None
    return get_threads, set_threads


# The thread count is one setting for the whole process, so the pin counts
# the threads inside ``one_thread`` and restores the count when the last leaves.
_pin_lock = threading.Lock()
_pin_holders = 0
_pin_restore = 1


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """OpenBLAS at one thread while any thread is inside; the count before restored after.

    Results of the solves and products inside do not depend on
    ``OPENBLAS_NUM_THREADS``. Nests, and may be entered by many threads at
    once. A no-op without the thread-count symbols.
    """
    global _pin_holders, _pin_restore
    pair = threads()
    if pair is None:
        yield
        return
    get_threads, set_threads = pair
    with _pin_lock:
        if _pin_holders == 0:
            _pin_restore = get_threads()
            set_threads(1)
        _pin_holders += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if _pin_holders == 0:
                set_threads(_pin_restore)


@contextlib.contextmanager
def guess_map(guesses: int) -> Iterator[Callable]:
    """The map over a job's guesses: one thread per usable core, at most ``guesses``.

    A job is one (leak, radius) pair of ``grid_search``, or the guesses of
    ``layer_spectra``.

    The threads run with numpy's OpenBLAS at one thread (its own threads
    would compete with the pool's for the cores, and its results depend on
    its thread count), so the records are the same for any core count and
    any ``OPENBLAS_NUM_THREADS``. Without the OpenBLAS symbols the guesses
    run serially in the calling thread and BLAS is left alone.
    """
    if threads() is None:
        yield map
        return
    workers = min(_usable_cores(), guesses)
    with (one_thread(), ThreadPoolExecutor(workers) as pool,
          _pooled_heap(pool, workers)):
        yield pool.map


@contextlib.contextmanager
def _pooled_heap(pool: ThreadPoolExecutor, workers: int) -> Iterator[None]:
    """Pool threads keep the heap they free during the sweep and return it after.

    With glibc's adaptive thresholds a pool thread's arena may keep up to
    twice the largest block freed so far free at its top after the thread
    exits, out of ``malloc_trim``'s reach; how much depends on the order in
    which the threads free. Fixed (for the process: glibc cannot go back),
    the arenas keep what they free for the next guess, and at the end each
    pool thread frees a block of 64 KiB or more, which trims its arena's
    top beyond glibc's initial 128 KiB. No-op without glibc.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, trim = libc.mallopt, libc.malloc_trim
        libc.malloc.restype, libc.free.argtypes = ctypes.c_void_p, [ctypes.c_void_p]
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        libc = None
    if libc is None:
        yield
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2 ** 31 - 1)
    try:
        yield
    finally:
        mallopt(_M_TRIM_THRESHOLD, 128 << 10)
    # All guesses are done, so each pool thread takes one of these tasks and
    # waits for the others (the timeout only guards against a lost thread).
    barrier = threading.Barrier(workers, timeout=10)

    def release(_):
        with contextlib.suppress(threading.BrokenBarrierError):
            barrier.wait()
        libc.free(libc.malloc(128 << 10))

    list(pool.map(release, range(workers)))
    trim(ctypes.c_size_t(0))


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_half_memory(what: str, need: int) -> None:
    """Raise ``ValueError`` when ``what``, ``need`` bytes, exceeds half the physical memory.

    Where the memory cannot be told, nothing is refused.
    """
    memory = _physical_memory()
    if memory is not None and need > memory // 2:
        raise ValueError(f"{what} needs {need / 2 ** 30:.1f} GiB, more than half of the "
                         f"{memory / 2 ** 30:.1f} GiB of physical memory")


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def eigvals(a) -> np.ndarray:
    """``np.linalg.eigvals(a)``, the same bits and dtype.

    A float64 square matrix goes to ``dgeev`` without eigenvectors: real when
    every imaginary part is 0, complex otherwise. Like numpy it raises
    ``LinAlgError`` for a non-finite entry and when LAPACK reports a failure.
    """
    a = np.asarray(a)
    dgeev = _routine("dgeev", 14)
    if (dgeev is None or a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]
            or a.size == 0):
        return np.linalg.eigvals(a)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n, one, job = ctypes.c_int64(a.shape[0]), ctypes.c_int64(1), ctypes.c_char(b"N")
    f = np.array(a, order="F")                  # dgeev overwrites its input
    wr, wi = np.empty(a.shape[0]), np.empty(a.shape[0])
    unused, query = ctypes.c_double(), ctypes.c_double()

    def solve(work, lwork: int) -> int:
        return _info(dgeev, job, job, n, f, n, wr, wi, unused, one, unused, one,
                     work, ctypes.c_int64(lwork))

    if solve(query, -1) != 0 or solve(np.empty(int(query.value)), int(query.value)) != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if not wi.any():
        return wr
    w = wr.astype(complex)
    w.imag = wi
    return w


def qr_raw(x) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.qr(x.T, mode="raw")`` of a (t, d) matrix ``x``, the same bits.

    ``dgeqrf`` factors a d x t Fortran matrix in place, and a C-contiguous
    copy of a float64 ``x`` is one, so that copy becomes the factor ``h``,
    a reflector per row, with no transpose.
    """
    x = np.asarray(x)
    dgeqrf = _routine("dgeqrf", 8)
    if dgeqrf is None or x.dtype != np.float64 or x.ndim != 2 or x.size == 0:
        return np.linalg.qr(x.T, mode="raw")
    t, d = x.shape
    h, tau, query = np.array(x, order="C"), np.empty(min(t, d)), ctypes.c_double()
    m, n = ctypes.c_int64(d), ctypes.c_int64(t)
    if _info(dgeqrf, m, n, h, m, tau, query, ctypes.c_int64(-1)) == 0:
        lwork = max(1, t, int(query.value))
        if _info(dgeqrf, m, n, h, m, tau, np.empty(lwork), ctypes.c_int64(lwork)) == 0:
            return h, tau
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")
