import ast
import contextlib
import ctypes
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepesn import _native
from deepesn.readout import fit_ridge_sweep


def _same(got, want):
    """Equal dtype, shape and bits."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _spectrum_matrix(n: int, pairs: bool, seed: int) -> np.ndarray:
    """Q B Q^T for a random orthogonal Q and a block-diagonal B whose
    eigenvalues are real (``pairs`` False) or, but for one real when n is
    odd, complex conjugate pairs a +- bi with |b| >= 0.1."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = np.diag(rng.uniform(-1.0, 1.0, n))
    if pairs:
        for k in range(0, n - 1, 2):
            re, im = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0)
            b[k:k + 2, k:k + 2] = [[re, -im], [im, re]]
    return q @ b @ q.T


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), pairs=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_eigvals_matches_numpy_bit_for_bit(n, pairs, seed):
    a = _spectrum_matrix(n, pairs, seed)
    want = np.linalg.eigvals(a)
    assert want.dtype == (np.complex128 if pairs and n > 1 else np.float64)
    got = _native.eigvals(a)
    assert _same(got, want)
    assert np.array_equal(a, _spectrum_matrix(n, pairs, seed))  # the input is untouched


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 6), (30, 80), (80, 30),
                                   (300, 1000)])
def test_qr_raw_matches_numpy_bit_for_bit(shape):
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    kept = x.copy()
    h, tau = _native.qr_raw(x)
    want_h, want_tau = np.linalg.qr(x.T, mode="raw")
    assert _same(h, want_h) and _same(tau, want_tau)
    assert np.array_equal(x, kept)


def test_without_the_symbols_the_wrappers_are_numpy(monkeypatch):
    rng = np.random.default_rng(5)
    a, x, y = rng.standard_normal((12, 12)), rng.standard_normal((20, 45)), rng.standard_normal(20)
    with_symbols = fit_ridge_sweep(x, y, [1e-6, 1.0])
    monkeypatch.setattr(_native, "_symbol", lambda *args: None)
    assert _native.threads() is None
    assert _same(_native.eigvals(a), np.linalg.eigvals(a))
    for got, want in zip(_native.qr_raw(x), np.linalg.qr(x.T, mode="raw")):
        assert _same(got, want)
    for got, want in zip(fit_ridge_sweep(x, y, [1e-6, 1.0]), with_symbols):
        assert _same(got.weights, want.weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigvals_rejects_non_finite_entries_as_numpy_does(bad):
    a = np.eye(4)
    a[1, 2] = bad
    for eigvals in (np.linalg.eigvals, _native.eigvals):
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            eigvals(a)


def _failing(work_at: int, info: int):
    """A LAPACK routine that answers the workspace query, then reports ``info``.

    Every argument is an address; WORK and LWORK are at ``work_at`` and the
    next position, INFO is last."""
    def routine(*args):
        if ctypes.c_int64.from_address(args[work_at + 1]).value == -1:
            ctypes.c_double.from_address(args[work_at]).value = 1.0
        else:
            ctypes.c_int64.from_address(args[-1]).value = info
    return routine


@pytest.mark.parametrize("call,routine,match", [
    (lambda: _native.eigvals(np.eye(3)), _failing(11, 1), "did not converge"),
    (lambda: _native.qr_raw(np.ones((2, 3))), _failing(5, -4), "QR factorization"),
])
def test_lapack_failures_raise_linalg_error(monkeypatch, call, routine, match):
    if _native._routine("dgeev", 14) is None:
        pytest.skip("numpy's OpenBLAS exposes no LAPACK symbols")
    monkeypatch.setattr(_native, "_symbol", lambda *args: routine)
    with pytest.raises(np.linalg.LinAlgError, match=match):
        call()


def test_one_thread_pins_while_any_thread_is_inside(monkeypatch):
    # the count is one setting for the process: eight threads entering and
    # leaving at random see one thread inside, and the count before the
    # first is back after the last, also when a body raises
    count = [3]
    monkeypatch.setattr(_native, "threads",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    seen = []

    def churn(k):
        for i in range(200):
            with contextlib.suppress(KeyError), _native.one_thread():
                with _native.one_thread():
                    seen.append(count[0])
                if (k + i) % 7 == 0:
                    raise KeyError(k)
                seen.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(churn, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) > 1600 and set(seen) == {1}
    assert count == [3] and _native._pin_holders == 0


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules a source file imports (relative ones excluded)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_native_calls_native_code():
    # every ctypes call and process-wide native setting lives in _native;
    # mso is the protocol only and starts no thread of its own
    package = Path(_native.__file__).parent
    imports = {path.stem: _imported_modules(path) for path in package.glob("*.py")}
    assert {name for name, found in imports.items() if "ctypes" in found} == {"_native"}
    assert not imports["mso"] & {"ctypes", "concurrent", "os", "threading"}


def _names(path: Path) -> set[str]:
    """Every identifier a source file names: variables, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _names_from(path: Path, module: str) -> set[str]:
    """The names a package source file takes from its sibling ``module``.

    Those it imports from it, and the attributes it reads of it after
    ``from . import module``.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == module):
            names.add(node.attr)
    return names


def test_one_path_builds_a_guess_and_the_cli_holds_no_native_policy():
    # reservoir._guess_layers alone builds and solves a guess from
    # hyperparameters; the CLI reaches the spectra through layer_spectra and
    # leaves threads and BLAS to the library, so neither a second simulation
    # path nor a second thread policy can grow back
    package = Path(_native.__file__).parent
    naming = {path.stem for path in package.glob("*.py")
              if _names(path) & {"_layer_weights", "_solve_layers"}}
    assert naming == {"reservoir"}
    cli = package / "cli.py"
    assert _names_from(cli, "_native") == {"require_half_memory"}
    from_spectral = _names_from(cli, "spectral")
    assert "layer_spectra" in from_spectral
    assert not {name for name in from_spectral if name.startswith("_")}
