"""numpy's bundled OpenBLAS, called directly: its thread count and two LAPACK solves.

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
import threading
from typing import Callable, Iterator, Optional

import numpy as np


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
