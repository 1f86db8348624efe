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
guess is fit once per lambda from a shared factorization. With linear
activation the states are likewise exactly linear in the input-scale value
(layer i picks up one factor per crossing, scale**i), so the grid runner
derives all input-scale variants from a single unit-scale run per
(leak, radius, guess); the saturating fallback reruns per scale.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .readout import fit_ridge_sweep, nrmse, predict
from .reservoir import HyperParams, init_reservoir, run

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
    """Hyperparameter candidates for model selection (benchmark defaults)."""

    num_layers: int
    units_per_layer: int
    input_scales: tuple[float, ...] = (0.01, 0.1, 1.0)
    leak_rates: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    spectral_radii: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    ridge_lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    guesses: int = 10
    base_seed: int = 0
    activation: str = "linear"

    def __post_init__(self):
        if self.num_layers < 1 or self.units_per_layer < 1:
            raise ValueError("num_layers and units_per_layer must be >= 1")
        if self.guesses < 1:
            raise ValueError("guesses must be >= 1")
        for name in ("input_scales", "leak_rates", "spectral_radii", "ridge_lambdas"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")


def _sorted_mean(values: np.ndarray) -> float:
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered.sum() / ordered.size)


def _sorted_std(values: np.ndarray) -> float:
    mean = _sorted_mean(values)
    ordered = np.sort((np.asarray(values, dtype=float) - mean) ** 2)
    return float(np.sqrt(ordered.sum() / ordered.size))


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


def _score_states(concat: np.ndarray, targets: np.ndarray, split: SplitSpec,
                  lambdas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Validation and test NRMSE per lambda for one guess's state matrix."""
    fits = fit_ridge_sweep(concat[split.fit_slice], targets[split.fit_slice], lambdas)
    val_sl, test_sl = split.validation_slice, split.test_slice
    val = np.array([nrmse(predict(f, concat[val_sl])[:, 0], targets[val_sl]) for f in fits])
    test = np.array([nrmse(predict(f, concat[test_sl])[:, 0], targets[test_sl]) for f in fits])
    return val, test


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
            mean_val_nrmse=_sorted_mean(val[:, j]),
            std_val_nrmse=_sorted_std(val[:, j]),
            mean_test_nrmse=_sorted_mean(test[:, j]),
            std_test_nrmse=_sorted_std(test[:, j]),
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


def _guess_states(u: np.ndarray, grid: GridSpec, scale: float, leak: float,
                  rho: float) -> list[np.ndarray]:
    """Layered states of every guess of one configuration; guess g uses seed base_seed + g."""
    params = HyperParams(grid.num_layers, grid.units_per_layer, 1, scale, leak, rho,
                         grid.activation, 0)
    return [run(init_reservoir(dataclasses.replace(params, seed=grid.base_seed + g)), u).states
            for g in range(grid.guesses)]


def _evaluate_pair(task: MsoTask, grid: GridSpec, leak: float,
                   rho: float) -> list[tuple[float, list[ConfigResult]]]:
    """All input-scale variants of one (leak, radius) grid point.

    Linear activation: one unit-scale run per guess serves every input scale
    through exact per-layer rescaling (layer i scales as scale**i). Other
    activations run each scale directly.
    """
    u, targets = _signal_and_targets(task)
    base_states = None
    if grid.activation == "linear":
        try:
            base_states = _guess_states(u, grid, 1.0, leak, rho)
        except Exception as exc:  # recorded per scale, excluded from selection
            return [(scale, [_error_record(scale, leak, rho, exc)])
                    for scale in grid.input_scales]

    out = []
    for scale in grid.input_scales:
        try:
            if base_states is None:
                states = _guess_states(u, grid, scale, leak, rho)
            else:
                factors = (float(scale) ** np.arange(1, grid.num_layers + 1))[:, None]
                states = (s * factors for s in base_states)
            val = np.empty((grid.guesses, len(grid.ridge_lambdas)))
            test = np.empty_like(val)
            for g, guess_states in enumerate(states):
                concat = guess_states.reshape(guess_states.shape[0], -1)
                if not np.isfinite(concat).all():
                    raise RuntimeError(
                        f"non-finite reservoir states for input_scale={scale} leak_rate={leak} "
                        f"spectral_radius={rho} seed={grid.base_seed + g}")
                val[g], test[g] = _score_states(concat, targets, task.split,
                                                grid.ridge_lambdas)
            out.append((scale, _records_from_scores(scale, leak, rho,
                                                    grid.ridge_lambdas, val, test)))
        except Exception as exc:
            out.append((scale, [_error_record(scale, leak, rho, exc)]))
    return out


def grid_search(task: MsoTask, grid: GridSpec, workers: int = 1,
                on_result: Optional[Callable[[ConfigResult], None]] = None) -> ExperimentResult:
    """Exhaustive sweep over the grid with deterministic selection.

    Work items are (leak, radius) pairs; each yields records for every
    input scale and lambda. ``on_result`` is invoked once per record in
    completion order (useful for crash-safe streaming); the returned
    records are always in canonical (scale, leak, radius, lambda) order,
    with candidate-list order breaking ties so selection is deterministic
    regardless of worker scheduling. Failed combinations are recorded with
    an error marker and excluded from selection.

    ``workers > 1`` evaluates pairs in a process pool, which leaves BLAS at
    its default thread count, so every worker competes for every core. Pin
    BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) before using it: on a
    2-core host, 4 pairs at 10x100 took 45.6 s with ``workers=2`` against
    15.6 s serial, and 6.7 s with ``workers=2`` and one BLAS thread.
    """
    pairs = [(leak, rho) for leak in grid.leak_rates for rho in grid.spectral_radii]
    # slot k * len(pairs) + p holds scale k of pair p: the canonical order
    slots: list[list[ConfigResult]] = [[] for _ in range(len(grid.input_scales) * len(pairs))]

    def store(p: int, output: list[tuple[float, list[ConfigResult]]]) -> None:
        for k, (_, recs) in enumerate(output):
            slots[k * len(pairs) + p] = recs
            if on_result is not None:
                for rec in recs:
                    on_result(rec)

    if min(workers, len(pairs)) <= 1:  # a one-pair grid gains nothing from a pool
        for p, (leak, rho) in enumerate(pairs):
            store(p, _evaluate_pair(task, grid, leak, rho))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_evaluate_pair, task, grid, leak, rho): p
                       for p, (leak, rho) in enumerate(pairs)}
            for fut in as_completed(futures):
                store(futures[fut], fut.result())
    records = [rec for recs in slots for rec in recs]

    selected = None
    failures = 0
    for rec in records:
        if rec.error is not None:
            failures += 1
            continue
        if selected is None or rec.mean_val_nrmse < selected.mean_val_nrmse:
            selected = rec
    return ExperimentResult(
        task_n=task.n, num_layers=grid.num_layers,
        units_per_layer=grid.units_per_layer, guesses=grid.guesses,
        base_seed=grid.base_seed, records=tuple(records),
        selected=selected, failures=failures,
    )
