"""Multiple-superimposed-oscillator benchmark: signal, protocol, grid search.

The MSO-n signal is a sum of n unit sines, ``u(t) = sum_i sin(phi_i t)`` for
t = 1, 2, ..., with the canonical twelve incommensurate frequencies below.
The task is one-step-ahead prediction: the target at step t is u(t+1).

Protocol: one 1000-step sequence; steps 1-400 are the training range with a
100-step washout (states are computed but excluded from the regression),
401-700 validate, 701-1000 test. The network runs once over the whole
sequence; states flow continuously across the split boundaries. For every
hyperparameter combination a fixed number of independently seeded reservoir
guesses is evaluated and NRMSE is averaged over guesses; the combination
with the lowest mean validation NRMSE is selected and reported on the test
range.

Since the reservoir states do not depend on the ridge regularization, each
guess is fit once per lambda from a shared factorization. The units are
linear, so the states are likewise exactly linear in the input-scale value
(layer i picks up one factor per crossing, scale**i), and the grid runner
derives all input-scale variants from a single unit-scale run per
(leak, radius, guess). With one layer the input scale s is moreover
redundant with lambda: the fit of s X at lambda predicts what the fit of X
at lambda / s**2 does, so one factorization of the unit-scale states scores
every (scale, lambda) of the guess. Deeper networks fit each scale apart,
because the factors scale**i reweight the layers against each other, which
no lambda can.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .readout import fit_ridge_sweep, nrmse, predict
from .reservoir import HyperParams, _is_int, init_reservoir, run

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h

#: Canonical MSO frequencies (radians per step); MSO-n uses the first n.
CANONICAL_PHIS = (0.2, 0.331, 0.42, 0.51, 0.63, 0.74, 0.85, 0.97,
                  1.08, 1.19, 1.27, 1.32)

#: Benchmark regularization grid: 1e-11, 1e-10, ..., 1e0.
DEFAULT_LAMBDAS = tuple(10.0 ** k for k in range(-11, 1))


@dataclass(frozen=True)
class SplitSpec:
    """Step ranges (1-based, inclusive) for train/validation/test."""

    train: tuple[int, int] = (1, 400)
    washout: int = 100
    validation: tuple[int, int] = (401, 700)
    test: tuple[int, int] = (701, 1000)

    def __post_init__(self):
        t0, t1 = self.train
        v0, v1 = self.validation
        s0, s1 = self.test
        if not (1 <= t0 <= t1 and v0 <= v1 and s0 <= s1):
            raise ValueError("split ranges must be nonempty and ordered")
        if v0 != t1 + 1 or s0 != v1 + 1:
            raise ValueError("split ranges must be contiguous and in order")
        if not 0 <= self.washout < (t1 - t0 + 1):
            raise ValueError("washout must fit inside the training range")

    @property
    def fit_slice(self) -> slice:
        return slice(self.train[0] - 1 + self.washout, self.train[1])

    @property
    def validation_slice(self) -> slice:
        return slice(self.validation[0] - 1, self.validation[1])

    @property
    def test_slice(self) -> slice:
        return slice(self.test[0] - 1, self.test[1])

    @property
    def required_length(self) -> int:
        return self.test[1]


@dataclass(frozen=True)
class MsoTask:
    """An MSO-n next-step prediction task.

    Omitting ``phis`` selects the first n canonical frequencies, which is
    the benchmark definition; custom frequency lists are accepted as an
    extension point.
    """

    n: int
    length: int = 1000
    split: SplitSpec = SplitSpec()
    phis: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.phis is None:
            if not 1 <= self.n <= len(CANONICAL_PHIS):
                raise ValueError(f"n must lie in [1, {len(CANONICAL_PHIS)}] for canonical frequencies")
            object.__setattr__(self, "phis", CANONICAL_PHIS[: self.n])
        else:
            object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
            if len(self.phis) != self.n or self.n < 1:
                raise ValueError("phis must hold exactly n frequencies")
        if self.length < self.split.required_length:
            raise ValueError(
                f"length {self.length} is shorter than the split end "
                f"{self.split.required_length}"
            )


def generate_mso(task: MsoTask) -> np.ndarray:
    """The MSO signal u(t) for t = 1..length. Pure function of (phis, length)."""
    t = np.arange(1, task.length + 1, dtype=float)
    return np.sin(np.outer(np.asarray(task.phis), t)).sum(axis=0)


def _signal_and_targets(task: MsoTask) -> tuple[np.ndarray, np.ndarray]:
    """Input u(1..length) and next-step targets u(2..length+1)."""
    s = generate_mso(dataclasses.replace(task, length=task.length + 1))
    return s[:-1], s[1:]


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter candidates for model selection (benchmark defaults).

    Every guess is built at input scale 1 and rescaled, so no ``HyperParams``
    sees the input scales: they are checked here, as the ridge lambdas are,
    to be finite and nonnegative. Leak rates and spectral radii are checked
    per pair, when its guesses are built, and a bad one fails that pair only.
    """

    num_layers: int
    units_per_layer: int
    input_scales: tuple[float, ...] = (0.01, 0.1, 1.0)
    leak_rates: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    spectral_radii: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    ridge_lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    guesses: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if not all(_is_int(n) and n >= 1
                   for n in (self.num_layers, self.units_per_layer, self.guesses)):
            raise ValueError("num_layers, units_per_layer and guesses must be integers >= 1")
        if not (_is_int(self.base_seed) and self.base_seed >= 0):
            raise ValueError(f"base_seed must be an integer >= 0, got {self.base_seed!r}")
        for name in ("input_scales", "leak_rates", "spectral_radii", "ridge_lambdas"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for name in ("input_scales", "ridge_lambdas"):
            bad = [v for v in getattr(self, name) if not 0.0 <= v < math.inf]
            if bad:
                raise ValueError(f"{name} must be finite and nonnegative, got {bad}")


def _mean(values) -> float:
    """Mean of a correctly rounded sum (``math.fsum``): the same for any order of the values."""
    return math.fsum(values) / len(values)


def _std(values) -> float:
    """Population standard deviation, summed as ``_mean`` sums."""
    mean = _mean(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


@dataclass(frozen=True)
class ConfigResult:
    """Grid-search record for one full hyperparameter combination."""

    input_scale: float
    leak_rate: float
    spectral_radius: float
    ridge_lambda: float
    per_guess_val: tuple[float, ...]
    per_guess_test: tuple[float, ...]
    mean_val_nrmse: float
    std_val_nrmse: float
    mean_test_nrmse: float
    std_test_nrmse: float
    error: Optional[str] = None


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of a grid search: all records plus the selected combination."""

    task_n: int
    num_layers: int
    units_per_layer: int
    guesses: int
    base_seed: int
    records: tuple[ConfigResult, ...]
    selected: Optional[ConfigResult]
    failures: int

    @property
    def selected_test_nrmse(self) -> float:
        if self.selected is None:
            raise ValueError("no configuration was successfully evaluated")
        return self.selected.mean_test_nrmse


def _score_states(states: np.ndarray, factors: Optional[np.ndarray], targets: np.ndarray,
                  split: SplitSpec, lambdas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Validation and test NRMSE per lambda for one guess.

    ``states`` is the guess's ``(steps, layers, units)`` trajectory; each split
    range is scored from its rows with layer i times ``factors[i]``, made
    fresh and dropped before the next range, so a guess holds its states plus
    one range. Without factors the rows are views of the states.
    """
    def rows(sl: slice) -> np.ndarray:
        block = states[sl] if factors is None else states[sl] * factors[:, None]
        return block.reshape(sl.stop - sl.start, -1)

    fits = fit_ridge_sweep(rows(split.fit_slice), targets[split.fit_slice], lambdas)
    scores = []
    for sl in (split.validation_slice, split.test_slice):
        block = rows(sl)
        scores.append(np.array([nrmse(predict(f, block)[:, 0], targets[sl]) for f in fits]))
        del block
    return scores[0], scores[1]


def _score_scales(states: np.ndarray, scales: Sequence[float], targets: np.ndarray,
                  split: SplitSpec, lambdas: Sequence[float]) -> list:
    """(val, test) NRMSE rows per input scale of a one-layer linear guess, from one fit.

    At scale s the states are s X, X those at unit scale, and the ridge fit
    of s X at lambda predicts what the fit of X at lambda / s**2 predicts:
    both put gain s sigma / (s**2 sigma**2 + lambda) on X's singular values.
    So one sweep over the unit-scale rows serves every (scale, lambda). At
    scale 0, and wherever lambda > 0 and lambda / s**2 overflows, the weights
    vanish and so do the predictions; at lambda = 0 every nonzero scale has
    the unit-scale fit, however small its square.
    """
    lams = np.asarray(lambdas, dtype=float)
    scale = np.asarray(scales, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        unit_lams = np.where(lams == 0.0, 0.0, lams / np.square(scale)[:, None])
    unit_lams[scale == 0.0] = np.inf
    live = np.isfinite(unit_lams)
    val, test = (np.full(unit_lams.shape, nrmse(np.zeros(sl.stop - sl.start), targets[sl]))
                 for sl in (split.validation_slice, split.test_slice))
    if live.any():
        val[live], test[live] = _score_states(states, None, targets, split, unit_lams[live])
    return list(zip(val, test))


def _records_from_scores(scale: float, leak: float, rho: float,
                         lambdas: Sequence[float], val: np.ndarray,
                         test: np.ndarray) -> list[ConfigResult]:
    records = []
    for j, lam in enumerate(lambdas):
        records.append(ConfigResult(
            input_scale=scale, leak_rate=leak, spectral_radius=rho,
            ridge_lambda=float(lam),
            per_guess_val=tuple(float(x) for x in val[:, j]),
            per_guess_test=tuple(float(x) for x in test[:, j]),
            mean_val_nrmse=_mean(val[:, j]),
            std_val_nrmse=_std(val[:, j]),
            mean_test_nrmse=_mean(test[:, j]),
            std_test_nrmse=_std(test[:, j]),
        ))
    return records


def _error_record(scale: float, leak: float, rho: float, exc: Exception) -> ConfigResult:
    return ConfigResult(
        input_scale=scale, leak_rate=leak, spectral_radius=rho,
        ridge_lambda=float("nan"), per_guess_val=(), per_guess_test=(),
        mean_val_nrmse=float("nan"), std_val_nrmse=float("nan"),
        mean_test_nrmse=float("nan"), std_test_nrmse=float("nan"),
        error=f"{type(exc).__name__}: {exc}",
    )


def _evaluate_guess(u: np.ndarray, targets: np.ndarray, split: SplitSpec, grid: GridSpec,
                    leak: float, rho: float, seed: int) -> list:
    """One guess at every input scale: per scale, its (val, test) NRMSE rows or the exception.

    The guess runs once, at unit scale, for all scales: its states are
    exactly linear in the input scale, layer i scaling as scale**i, so a
    failed run fails every scale. With one layer, one fit of the unit-scale
    states scores all scales (``_score_scales``). Deeper networks fit each
    scale apart, on the states with layer i times scale**i: that reweighting
    of the layers against each other is no change of lambda, so their fits
    cannot share a factorization. A scale's states are checked to be finite
    before any fit: the largest magnitude per layer times that layer's
    factor overflows exactly when some state's product does, as rounding is
    monotone. numpy's overflow and invalid-value warnings are off for both,
    here on the pool thread (numpy 2 keeps that setting per thread): a
    divergent guess's error records report it.
    """
    scales = grid.input_scales
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            params = HyperParams(grid.num_layers, grid.units_per_layer, leak_rate=leak,
                                 spectral_radius_target=rho, seed=seed)
            states = run(init_reservoir(params), u).states
        except Exception as exc:  # recorded per scale, excluded from selection
            return [exc] * len(scales)
        layers = np.arange(1, grid.num_layers + 1)
        peak = np.maximum(states.max(axis=0), -states.min(axis=0)).max(axis=1)  # per layer
        factors = [float(s) ** layers for s in scales]
        scores = [None if np.isfinite(peak * f).all() else RuntimeError(
            f"non-finite reservoir states for input_scale={s} leak_rate={leak} "
            f"spectral_radius={rho} seed={seed}") for s, f in zip(scales, factors)]
    finite = [k for k, score in enumerate(scores) if score is None]
    if grid.num_layers == 1:
        try:
            shared = _score_scales(states, [scales[k] for k in finite], targets, split,
                                   grid.ridge_lambdas)
        except Exception as exc:
            shared = [exc] * len(finite)
        for k, score in zip(finite, shared):
            scores[k] = score
    else:
        for k in finite:
            try:
                scores[k] = _score_states(states, factors[k], targets, split,
                                          grid.ridge_lambdas)
            except Exception as exc:
                scores[k] = exc
    return scores


def _evaluate_pair(task: MsoTask, grid: GridSpec, leak: float, rho: float,
                   map_guesses: Callable = map) -> list[tuple[float, list[ConfigResult]]]:
    """All input-scale variants of one (leak, radius) grid point.

    ``map_guesses`` maps the per-guess evaluation over the seeds base_seed +
    g in order. A scale with a failed guess yields one error record, carrying
    the first failure in guess order.
    """
    u, targets = _signal_and_targets(task)
    evaluate = functools.partial(_evaluate_guess, u, targets, task.split, grid, leak, rho)
    per_guess = list(map_guesses(evaluate, range(grid.base_seed,
                                                 grid.base_seed + grid.guesses)))
    out = []
    for k, scale in enumerate(grid.input_scales):
        scores = [guess[k] for guess in per_guess]
        failure = next((s for s in scores if isinstance(s, Exception)), None)
        if failure is not None:
            out.append((scale, [_error_record(scale, leak, rho, failure)]))
            continue
        val, test = (np.array(rows) for rows in zip(*scores))
        out.append((scale, _records_from_scores(scale, leak, rho, grid.ridge_lambdas,
                                                val, test)))
    return out


@contextlib.contextmanager
def _guess_map(guesses: int) -> Iterator[Callable]:
    """The map over one pair's guesses: one thread per usable core, at most ``guesses``.

    The threads run with numpy's OpenBLAS at one thread (its own threads
    would compete with the pool's for the cores, and its results depend on
    its thread count), so the records are the same for any core count and
    any ``OPENBLAS_NUM_THREADS``. Without the OpenBLAS symbols the guesses
    run serially in the calling thread and BLAS is left alone.
    """
    threads = _openblas_threads()
    if threads is None:
        yield map
        return
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(1)
    workers = min(_usable_cores(), guesses)
    try:
        with ThreadPoolExecutor(workers) as pool, _pooled_heap(pool, workers):
            yield pool.map
    finally:
        set_threads(before)


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


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """Getter and setter of the thread count of numpy's bundled OpenBLAS, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def grid_search(task: MsoTask, grid: GridSpec,
                on_result: Optional[Callable[[ConfigResult], None]] = None) -> ExperimentResult:
    """Exhaustive sweep over the grid with deterministic selection.

    (leak, radius) pairs run in order; ``on_result`` gets each pair's records
    as soon as it finishes (useful for crash-safe streaming). The returned
    records are in canonical (scale, leak, radius, lambda) order and the
    selection is the first minimum of the mean validation NRMSE. Failed
    combinations are recorded with an error marker and excluded from
    selection. Each pair's guesses are evaluated on one thread per core the
    process may run on (``os.sched_getaffinity``), at most ``grid.guesses``,
    with numpy's OpenBLAS at one thread for the whole sweep, so the records
    are the same for every core count and BLAS setting. Every thread holds
    one guess's states and fit, so peak memory grows with the thread count;
    a process pinned to one core (``taskset -c 0``) uses the least.
    """
    by_pair = []
    with _guess_map(grid.guesses) as map_guesses:
        for leak in grid.leak_rates:
            for rho in grid.spectral_radii:
                by_pair.append(_evaluate_pair(task, grid, leak, rho, map_guesses))
                if on_result is not None:
                    for _, recs in by_pair[-1]:
                        for rec in recs:
                            on_result(rec)
    records = [rec for k in range(len(grid.input_scales))
               for pair in by_pair for rec in pair[k][1]]

    selected = min((rec for rec in records if rec.error is None),
                   key=lambda rec: rec.mean_val_nrmse, default=None)
    failures = sum(rec.error is not None for rec in records)
    return ExperimentResult(
        task_n=task.n, num_layers=grid.num_layers,
        units_per_layer=grid.units_per_layer, guesses=grid.guesses,
        base_seed=grid.base_seed, records=tuple(records),
        selected=selected, failures=failures,
    )
