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
(layer i picks up one factor per crossing, s**i), and the grid runner
derives all input-scale variants from a single unit-scale run per
(leak, radius, guess). One rule scores them: the fit of the states at
scale s and lambda predicts what the fit of the unit-scale states with
layer i weighted s**(i-1) does at lambda / s**2, so the scales that share
those weights share one factorization. With one layer every weight is 1
and one fit scores every (scale, lambda) of the guess; a deep guess has one
group, and one fit, per scale.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _native
from .readout import _nrmse_rows, fit_ridge_sweep, nrmse
from .reservoir import HyperParams, _guess_layers, _is_int

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
        if not all(map(_is_int, (t0, t1, v0, v1, s0, s1, self.washout))):
            raise ValueError("split bounds and washout must be integers")
        if not (1 <= t0 <= t1 and v0 <= v1 and s0 <= s1):
            raise ValueError("split ranges must be nonempty and ordered")
        if v0 != t1 + 1 or s0 != v1 + 1:
            raise ValueError("split ranges must be contiguous and in order")
        if v1 == v0 or s1 == s0:
            raise ValueError("validation and test ranges need at least two steps each: "
                             "NRMSE normalizes by their targets' spread")
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
    """An MSO-n next-step prediction task, on the first n canonical frequencies."""

    n: int
    length: int = 1000
    split: SplitSpec = SplitSpec()

    def __post_init__(self):
        if not (_is_int(self.n) and _is_int(self.length)):
            raise ValueError("n and length must be integers")
        if not 1 <= self.n <= len(CANONICAL_PHIS):
            raise ValueError(f"n must lie in [1, {len(CANONICAL_PHIS)}] for canonical frequencies")
        if self.length < self.split.required_length:
            raise ValueError(
                f"length {self.length} is shorter than the split end "
                f"{self.split.required_length}"
            )

    @property
    def phis(self) -> tuple[float, ...]:
        return CANONICAL_PHIS[: self.n]


def generate_mso(task: MsoTask) -> np.ndarray:
    """The MSO signal u(t) for t = 1..length. Pure function of (n, length)."""
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
        if not (_is_int(self.base_seed) and self.base_seed >= 0
                and int(self.base_seed) + int(self.guesses) <= 2 ** 64):
            raise ValueError(f"base_seed must be an integer in [0, 2**64 - guesses] so that "
                             f"every guess has a seed, got {self.base_seed!r}")
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
    one range. Without factors the rows are views of the states. A range is
    scored for every lambda at once, by one stacked product of one
    matrix-vector product per lambda, so each lambda's predictions and
    scores are the bits ``predict`` and ``nrmse`` give for its fit alone.
    """
    def rows(sl: slice) -> np.ndarray:
        block = states[sl] if factors is None else states[sl] * factors[:, None]
        return block.reshape(sl.stop - sl.start, -1)

    fits = fit_ridge_sweep(rows(split.fit_slice), targets[split.fit_slice], lambdas)
    weights = np.stack([f.weights[0] for f in fits])[:, :, None]   # (lambdas, features, 1)
    return tuple(_nrmse_rows(np.matmul(rows(sl), weights)[:, :, 0], targets[sl])
                 for sl in (split.validation_slice, split.test_slice))


def _scale_records(scale: float, leak: float, rho: float, lambdas: Sequence[float],
                   scores: list) -> list[ConfigResult]:
    """One input scale's records of a (leak, radius) pair, from its guesses' scores.

    ``scores`` holds each guess's ``_evaluate_guess`` entry for the scale, in
    guess order: one record per lambda, or, if a guess failed, one error
    record carrying the first failure in guess order.
    """
    failure = next((s for s in scores if isinstance(s, Exception)), None)
    if failure is not None:
        nan = float("nan")
        return [ConfigResult(
            input_scale=scale, leak_rate=leak, spectral_radius=rho, ridge_lambda=nan,
            per_guess_val=(), per_guess_test=(), mean_val_nrmse=nan, std_val_nrmse=nan,
            mean_test_nrmse=nan, std_test_nrmse=nan,
            error=f"{type(failure).__name__}: {failure}",
        )]
    val, test = (np.array(rows) for rows in zip(*scores))
    return [ConfigResult(
        input_scale=scale, leak_rate=leak, spectral_radius=rho, ridge_lambda=float(lam),
        per_guess_val=tuple(float(x) for x in val[:, j]),
        per_guess_test=tuple(float(x) for x in test[:, j]),
        mean_val_nrmse=_mean(val[:, j]), std_val_nrmse=_std(val[:, j]),
        mean_test_nrmse=_mean(test[:, j]), std_test_nrmse=_std(test[:, j]),
    ) for j, lam in enumerate(lambdas)]


def _evaluate_guess(u: np.ndarray, targets: np.ndarray, split: SplitSpec, grid: GridSpec,
                    leak: float, rho: float, seed: int) -> list:
    """One guess at every input scale: per scale, its (val, test) NRMSE rows or the exception.

    The guess runs once, at unit scale, for all scales: ``_guess_layers``
    builds and solves it into one ``(steps, layers, units)`` array, a layer
    at a time, so the guess holds its states, one layer's weights and the
    scan's buffers (``_guess_bytes``), and no ``DeepReservoir``. The states
    X are exactly linear in the input scale, layer i scaling as s**i, so a
    failed run fails every scale. At scale s > 0 the states are s X D, D
    weighting layer i by s**(i-1), and the ridge fit of s X D at lambda
    predicts what the fit of X D at lambda / s**2 predicts. So the scales
    that share D share one fit over their concatenated lambda / s**2: one
    layer has one group (D = 1), a deep guess one group per scale. A fit or
    score that raises fails every scale of its group. At scale 0, and wherever
    lambda > 0 and lambda / s**2 overflows, the weights vanish and the
    prediction is zero; at lambda = 0 every nonzero scale keeps the fit of
    X D, however small s**2. A scale's states are checked to be finite
    before any fit: the largest magnitude per layer times s**i overflows
    exactly when some state's product does, as rounding is monotone. numpy's
    overflow and invalid-value warnings are off for both, here on the pool
    thread (numpy 2 keeps that setting per thread): a divergent guess's
    error records report it.
    """
    scales = grid.input_scales
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            params = HyperParams(grid.num_layers, grid.units_per_layer, leak_rate=leak,
                                 spectral_radius_target=rho, seed=seed)
            for states in _guess_layers(params, u[:, None], grid.num_layers):
                pass
        except Exception as exc:  # recorded per scale, excluded from selection
            return [exc] * len(scales)
        layers = np.arange(grid.num_layers)
        peak = np.maximum(states.max(axis=0), -states.min(axis=0)).max(axis=1)  # per layer
        scores = [None if np.isfinite(peak * float(s) ** (layers + 1)).all() else RuntimeError(
            f"non-finite reservoir states for input_scale={s} leak_rate={leak} "
            f"spectral_radius={rho} seed={seed}") for s in scales]
    groups = {}  # D's bytes -> (D, indices of the scales sharing it)
    for k, score in enumerate(scores):
        if score is None:
            factors = float(scales[k]) ** layers
            groups.setdefault(factors.tobytes(), (factors, []))[1].append(k)
    lams = np.asarray(grid.ridge_lambdas, dtype=float)
    for factors, members in groups.values():
        scale = np.array([scales[k] for k in members], dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            unit_lams = np.where(lams == 0.0, 0.0, lams / np.square(scale)[:, None])
        unit_lams[scale == 0.0] = np.inf
        live = np.isfinite(unit_lams)
        val, test = (np.full(unit_lams.shape, nrmse(np.zeros(sl.stop - sl.start), targets[sl]))
                     for sl in (split.validation_slice, split.test_slice))
        try:
            if live.any():
                val[live], test[live] = _score_states(
                    states, None if (factors == 1.0).all() else factors, targets, split,
                    unit_lams[live])
            rows = list(zip(val, test))
        except Exception as exc:
            rows = [exc] * len(members)
        for k, row in zip(members, rows):
            scores[k] = row
    return scores


def grid_search(task: MsoTask, grid: GridSpec,
                on_result: Optional[Callable[[ConfigResult], None]] = None) -> ExperimentResult:
    """Exhaustive sweep over the grid with deterministic selection.

    The signal is built once. (leak, radius) pairs run in order, a pair's
    guesses (seeds base_seed + g) scored by ``_evaluate_guess`` on the sweep's
    ``_native.guess_map``. Then each input scale's records (``_scale_records``)
    join that scale's list and, scale by scale, go to ``on_result`` (useful
    for crash-safe streaming). The lists joined are in canonical (scale, leak,
    radius, lambda) order; the selection is the first minimum of the mean
    validation NRMSE. Failed combinations are error records, not selected.
    """
    u, targets = _signal_and_targets(task)
    seeds = range(grid.base_seed, grid.base_seed + grid.guesses)
    per_scale = [[] for _ in grid.input_scales]
    with _native.guess_map(grid.guesses) as map_guesses:
        for leak in grid.leak_rates:
            for rho in grid.spectral_radii:
                per_guess = list(map_guesses(functools.partial(
                    _evaluate_guess, u, targets, task.split, grid, leak, rho), seeds))
                for k, scale in enumerate(grid.input_scales):
                    recs = _scale_records(scale, leak, rho, grid.ridge_lambdas,
                                          [guess[k] for guess in per_guess])
                    per_scale[k] += recs
                    if on_result is not None:
                        for rec in recs:
                            on_result(rec)
    records = [rec for recs in per_scale for rec in recs]

    selected = min((rec for rec in records if rec.error is None),
                   key=lambda rec: rec.mean_val_nrmse, default=None)
    failures = sum(rec.error is not None for rec in records)
    return ExperimentResult(
        task_n=task.n, num_layers=grid.num_layers,
        units_per_layer=grid.units_per_layer, guesses=grid.guesses,
        base_seed=grid.base_seed, records=tuple(records),
        selected=selected, failures=failures,
    )
