import dataclasses
import functools
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepesn as de
from deepesn import _native, mso
from deepesn import reservoir as rc
from deepesn.mso import _mean, _signal_and_targets, _std

PHIS = (0.2, 0.331, 0.42, 0.51, 0.63, 0.74, 0.85, 0.97, 1.08, 1.19, 1.27, 1.32)

SHORT_SPLIT = de.SplitSpec(train=(1, 40), washout=10,
                           validation=(41, 70), test=(71, 100))


# --------------------------------------------------------------------- signal

def test_canonical_phis():
    assert de.CANONICAL_PHIS == PHIS


def test_signal_bounded_by_n():
    for n in (1, 5, 12):
        u = de.generate_mso(de.MsoTask(n))
        assert np.max(np.abs(u)) <= n


def test_mso1_starts_at_sin_phi():
    u = de.generate_mso(de.MsoTask(1))
    assert u[0] == pytest.approx(math.sin(0.2), abs=1e-15)
    assert u[4] == pytest.approx(math.sin(0.2 * 5), abs=1e-15)


def test_mso5_first_sample_brute_force():
    # oracle: plain math.sin summation, frozen value 2.0087406972390305
    expected = sum(math.sin(p) for p in PHIS[:5])
    assert expected == pytest.approx(2.0087406972390305, abs=1e-15)
    u = de.generate_mso(de.MsoTask(5))
    assert u[0] == pytest.approx(expected, abs=1e-12)


def test_signal_matches_brute_force_everywhere():
    task = de.MsoTask(8, length=300, split=SHORT_SPLIT)
    u = de.generate_mso(task)
    for t in (1, 17, 299):
        assert u[t - 1] == pytest.approx(
            sum(math.sin(p * t) for p in PHIS[:8]), abs=1e-12)


def test_signal_reproducible_bitwise():
    a = de.generate_mso(de.MsoTask(7))
    b = de.generate_mso(de.MsoTask(7))
    assert np.array_equal(a, b)


def test_targets_are_next_step():
    task = de.MsoTask(3, length=100, split=SHORT_SPLIT)
    u, y = _signal_and_targets(task)
    np.testing.assert_array_equal(u[1:], y[:-1])
    assert y[-1] == pytest.approx(sum(math.sin(p * 101) for p in PHIS[:3]), abs=1e-12)


@pytest.mark.parametrize("n", [0, 13, -2])
def test_invalid_n_rejected(n):
    with pytest.raises(ValueError):
        de.MsoTask(n)


def test_length_must_cover_split():
    with pytest.raises(ValueError):
        de.MsoTask(5, length=900)


# ---------------------------------------------------------------------- split

def test_default_split_slices():
    s = de.SplitSpec()
    assert s.train == (1, 400)
    assert s.washout == 100
    assert s.validation == (401, 700)
    assert s.test == (701, 1000)
    assert s.fit_slice == slice(100, 400)
    assert s.validation_slice == slice(400, 700)
    assert s.test_slice == slice(700, 1000)
    assert s.required_length == 1000


def test_grid_defaults_are_benchmark_candidate_lists():
    grid = de.GridSpec(num_layers=10, units_per_layer=100)
    assert grid.input_scales == (0.01, 0.1, 1.0)
    assert grid.leak_rates == (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    assert grid.spectral_radii == (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    assert grid.ridge_lambdas == tuple(10.0 ** k for k in range(-11, 1))
    assert grid.guesses == 10


@pytest.mark.parametrize("kwargs", [
    dict(train=(1, 400), validation=(402, 700), test=(701, 1000)),   # gap
    dict(train=(1, 400), validation=(400, 700), test=(701, 1000)),   # overlap
    dict(train=(1, 400), washout=400),                               # washout too long
    dict(train=(1, 400), validation=(401, 700), test=(700, 1000)),
    dict(train=(1, 400), validation=(401, 401), test=(402, 1000)),   # one validation step
    dict(train=(1, 400), validation=(401, 700), test=(701, 701)),    # one test step
])
def test_invalid_splits_rejected(kwargs):
    with pytest.raises(ValueError):
        de.SplitSpec(**kwargs)


def test_split_discipline_fit_slice_ignores_test_range():
    s = de.SplitSpec()
    rng = np.random.default_rng(0)
    states = rng.standard_normal((1000, 12))
    y = rng.standard_normal(1000)
    y_perturbed = y.copy()
    y_perturbed[s.test_slice] += 1.0
    w1 = de.fit_ridge(states[s.fit_slice], y[s.fit_slice], 1e-6).weights
    w2 = de.fit_ridge(states[s.fit_slice], y_perturbed[s.fit_slice], 1e-6).weights
    assert np.array_equal(w1, w2)


# ------------------------------------------------------- evaluation pipeline

SMALL_PARAMS = de.HyperParams(2, 6, leak_rate=0.9, spectral_radius_target=0.7, seed=0)

SMALL_GRID = de.GridSpec(
    num_layers=2, units_per_layer=6, input_scales=(1.0,), leak_rates=(0.9,),
    spectral_radii=(0.7,), ridge_lambdas=(1e-8, 1e-2), guesses=2, base_seed=0,
)


def _hand_scores(task, params, lambdas, guesses, base_seed):
    """Per-guess validation and test NRMSE from run + fit_ridge, guess g at seed base_seed + g."""
    u, y = _signal_and_targets(task)
    s = task.split
    val = np.empty((guesses, len(lambdas)))
    test = np.empty_like(val)
    for g in range(guesses):
        r = de.init_reservoir(dataclasses.replace(params, seed=base_seed + g))
        concat = de.run(r, u).reshape(len(u), -1)
        for j, lam in enumerate(lambdas):
            fit = de.fit_ridge(concat[s.fit_slice], y[s.fit_slice], lam)
            val[g, j] = de.nrmse(de.predict(fit, concat[s.validation_slice])[:, 0],
                                 y[s.validation_slice])
            test[g, j] = de.nrmse(de.predict(fit, concat[s.test_slice])[:, 0],
                                  y[s.test_slice])
    return val, test


def test_grid_search_deterministic():
    grid = dataclasses.replace(SMALL_GRID, base_seed=10)
    a = de.grid_search(de.MsoTask(5), grid)
    b = de.grid_search(de.MsoTask(5), grid)
    assert a.records == b.records


def test_grid_search_matches_hand_pipeline():
    # unit input scale takes the exact arithmetic of a direct run: bitwise agreement
    task = de.MsoTask(5)
    grid = dataclasses.replace(SMALL_GRID, base_seed=3)
    result = de.grid_search(task, grid)
    val, test = _hand_scores(task, SMALL_PARAMS, grid.ridge_lambdas, 2, base_seed=3)
    for j, rec in enumerate(result.records):
        assert rec.per_guess_val == tuple(val[:, j])
        assert rec.per_guess_test == tuple(test[:, j])


def test_one_pair_grid_matches_hand_pipeline():
    # a one-pair grid at unit input scale: bitwise agreement with run +
    # fit_ridge per guess
    task = de.MsoTask(5)
    grid = dataclasses.replace(SMALL_GRID, ridge_lambdas=(1e-6,), base_seed=3)
    records = de.grid_search(task, grid).records
    [scale] = {rec.input_scale for rec in records}
    assert scale == 1.0
    val, test = _hand_scores(task, SMALL_PARAMS, (1e-6,), 2, base_seed=3)
    assert records[0].per_guess_val == tuple(val[:, 0])
    assert records[0].per_guess_test == tuple(test[:, 0])


WIDE_PARAMS = dataclasses.replace(SMALL_PARAMS, units_per_layer=200)


def test_grid_search_matches_hand_pipeline_wide():
    # 2x200 = 400 features over 300 fit rows: the QR route. Bitwise agreement
    # holds only if no product mixes the lambdas (one GEMM over all their
    # columns rounds differently from a lone fit's matrix-vector product)
    task = de.MsoTask(5)
    grid = dataclasses.replace(SMALL_GRID, units_per_layer=200, base_seed=3,
                               ridge_lambdas=de.DEFAULT_LAMBDAS)
    result = de.grid_search(task, grid)
    with _native.one_thread():
        val, test = _hand_scores(task, WIDE_PARAMS, grid.ridge_lambdas, 2, base_seed=3)
    for j, rec in enumerate(result.records):
        assert rec.per_guess_val == tuple(val[:, j])
        assert rec.per_guess_test == tuple(test[:, j])


def test_one_pair_grid_matches_hand_pipeline_wide():
    task = de.MsoTask(5)
    grid = dataclasses.replace(SMALL_GRID, units_per_layer=200, ridge_lambdas=(1e-6,),
                               base_seed=3)
    records = de.grid_search(task, grid).records
    with _native.one_thread():  # as grid_search's guess map scores the guesses
        val, test = _hand_scores(task, WIDE_PARAMS, (1e-6,), 2, base_seed=3)
    assert records[0].per_guess_val == tuple(val[:, 0])
    assert records[0].per_guess_test == tuple(test[:, 0])


def test_grid_search_per_guess_seeds_are_base_plus_index():
    task = de.MsoTask(5)
    grid = dataclasses.replace(SMALL_GRID, ridge_lambdas=(1e-4,))
    both = de.grid_search(task, dataclasses.replace(grid, guesses=2, base_seed=20))
    lone = de.grid_search(task, dataclasses.replace(grid, guesses=1, base_seed=21))
    assert both.records[0].per_guess_val[1] == lone.records[0].per_guess_val[0]


def test_guess_permutation_invariance_of_means():
    values = np.array([3e-4, 1e-4, 2e-4, 9e-5, 1.0, 1e-16, 7e-3, 3.3e-9, 0.1, 2e-12])
    rng = np.random.default_rng(0)
    for _ in range(20):
        permuted = rng.permutation(values)
        assert _mean(values) == _mean(permuted)
        assert _std(values) == _std(permuted)
    assert _mean(values) == math.fsum(values) / 10


def test_grid_search_nonfinite_states_diagnostic():
    grid = dataclasses.replace(SMALL_GRID, spectral_radii=(50.0,),
                               ridge_lambdas=(1e-4,), guesses=1)
    result = de.grid_search(de.MsoTask(5), grid)
    assert result.failures == 1
    assert result.selected is None
    error = result.records[0].error
    assert error.startswith("RuntimeError: non-finite reservoir states")
    assert "spectral_radius=50.0" in error


def test_divergent_guesses_are_records_not_warnings():
    # the error records report divergence; numpy's overflow warnings stay off,
    # on the pool threads too (numpy 2 keeps its error state per thread)
    grid = de.GridSpec(3, 20, leak_rates=(0.9,), spectral_radii=(50.0,), guesses=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = de.grid_search(de.MsoTask(5), grid)
    assert result.failures == len(grid.input_scales) == len(result.records)
    assert all(r.error.startswith("RuntimeError: non-finite reservoir states")
               for r in result.records)


def test_linear_guess_memory_is_states_plus_a_few_ranges():
    # a 10x100 guess holds its states (1000 steps), one rescaled 300-step
    # range and the fit's factors: about four ranges. A full-size rescaled
    # copy of the states would add 3.3 ranges more.
    task = de.MsoTask(5)
    grid = de.GridSpec(10, 100, leak_rates=(0.9,), spectral_radii=(0.7,), guesses=1)
    u, targets = _signal_and_targets(task)
    evaluate = functools.partial(mso._evaluate_guess, u, targets, task.split, grid, 0.9, 0.7)
    evaluate(3)  # fills the eigenvalue cache
    tracemalloc.start()
    try:
        scores = evaluate(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(s, Exception) for s in scores)
    states = task.length * grid.num_layers * grid.units_per_layer * 8
    fit_range = states * 300 // task.length
    assert peak < states + 5 * fit_range


@pytest.mark.parametrize("steps,chunk,bound", [(1000, 4, 4.2), (400, 2, 3.0)])
def test_shallow_guess_holds_its_states_m_and_the_scan_buffers(steps, chunk, bound):
    # a 1x1000 guess holds its states, its effective matrix M (built in the
    # buffer of its recurrent draw, not beside it) and _matrix_power's
    # buffers: two beside M at b = 4, one at b = 2. At 1000 steps that is
    # 4.0 N x N, at 400 steps 2.6 (What beside M and a copy of M read 5.0
    # and 4.4). The memory rule's estimate bounds both.
    n, q = 1000, steps // 10
    assert rc._chunk_length(steps, n) == chunk
    task = de.MsoTask(5)
    u, targets = _signal_and_targets(task)
    split = de.SplitSpec(train=(1, 4 * q), washout=q, validation=(4 * q + 1, 7 * q),
                         test=(7 * q + 1, steps))
    grid = de.GridSpec(1, n, leak_rates=(1.0,), spectral_radii=(0.7,), guesses=1)
    evaluate = functools.partial(mso._evaluate_guess, u[:steps], targets[:steps], split,
                                 grid, 1.0, 0.7)
    evaluate(42)  # fills the eigenvalue cache
    tracemalloc.start()
    try:
        scores = evaluate(42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(s, Exception) for s in scores)
    assert peak < bound * 8 * n * n
    assert peak < rc._guess_bytes(1, n, steps)


def test_one_layer_guess_scores_every_scale_from_one_fit():
    # the shared fit of the unit-scale states against a fit of s X per scale:
    # scale 0 predicts zero and scale 1 is the same fit, so both match bit for
    # bit; elsewhere lambda / s**2 moves the rounding, and at small lambda the
    # near-singular directions amplify it. At 1e-160 and 1e-170, lambda / s**2
    # overflows for lambda > 0 and the shared fit predicts zero, as the fit of
    # s X nearly does. At lambda = 0 every nonzero scale has the unit-scale
    # minimum-norm fit, even where s**2 underflows to 0 (1e-170); the fit of
    # s X there moves with rounding, hence the loose bound.
    task = de.MsoTask(5)
    scales, lambdas = (0.0, 1e-170, 1e-160, 0.01, 0.1, 1.0), (0.0, 1e-8, 1e-6, 1e-3, 1.0)
    grid = de.GridSpec(1, 8, input_scales=scales, leak_rates=(0.9,), spectral_radii=(0.7,),
                       ridge_lambdas=lambdas, guesses=1)
    u, targets = _signal_and_targets(task)
    scores = mso._evaluate_guess(u, targets, task.split, grid, 0.9, 0.7, 3)
    states = de.run(de.init_reservoir(de.HyperParams(1, 8, seed=3, leak_rate=0.9,
                                                     spectral_radius_target=0.7)), u)
    held = np.array(lambdas) >= 1e-6
    for scale, shared in zip(scales, scores):
        per_scale = mso._score_states(states, np.array([scale]), targets, task.split, lambdas)
        for got, want in zip(shared, per_scale):
            if scale in (0.0, 1.0):
                assert got.tolist() == want.tolist()
            else:
                np.testing.assert_allclose(got[held], want[held], rtol=1e-12, atol=0)
                np.testing.assert_allclose(got[0], want[0], rtol=1e-3, atol=0)
                assert np.isfinite(got).all()
        if scale != 0.0:
            assert [row[0] for row in shared] == [row[0] for row in scores[-1]]


@pytest.mark.parametrize("layers, lambdas_per_fit", [(1, [36]), (2, [12, 12, 12])])
def test_guess_fits_once_unless_deep(monkeypatch, layers, lambdas_per_fit):
    # one linear layer shares one fit, over 3 scales x 12 lambdas; a deep
    # guess fits each scale apart
    calls, real_fit = [], mso.fit_ridge_sweep

    def fit_ridge_sweep(*args):
        calls.append(len(args[2]))
        return real_fit(*args)

    monkeypatch.setattr(mso, "fit_ridge_sweep", fit_ridge_sweep)
    task = de.MsoTask(5)
    grid = de.GridSpec(layers, 5, leak_rates=(0.9,), spectral_radii=(0.7,), guesses=1)
    u, targets = _signal_and_targets(task)
    scores = mso._evaluate_guess(u, targets, task.split, grid, 0.9, 0.7, 7)
    assert len(scores) == 3 and all(isinstance(s, tuple) for s in scores)
    assert calls == lambdas_per_fit


def test_deep_guess_dead_scales_predict_zero():
    # the one-layer dead-scale rule holds at every depth: scale 0, and scales
    # whose lambda / s**2 overflows, score the zero prediction; scale 1 is the
    # plain fit of the states, and scale 0.1 the fit of X D at lambda / 0.01,
    # D = (1, 0.1), against the fit of X diag(0.1, 0.01) at lambda
    task = de.MsoTask(5)
    scales, lambdas = (0.0, 1e-170, 0.1, 1.0), (0.0, 1e-8, 1e-6, 1e-3, 1.0)
    grid = de.GridSpec(2, 6, input_scales=scales, leak_rates=(0.9,), spectral_radii=(0.7,),
                       ridge_lambdas=lambdas, guesses=1)
    u, targets = _signal_and_targets(task)
    scores = mso._evaluate_guess(u, targets, task.split, grid, 0.9, 0.7, 3)
    states = de.run(de.init_reservoir(de.HyperParams(2, 6, seed=3, leak_rate=0.9,
                                                     spectral_radius_target=0.7)), u)
    zero = [de.nrmse(np.zeros(sl.stop - sl.start), targets[sl])
            for sl in (task.split.validation_slice, task.split.test_slice)]
    for rows, want in zip(scores[0], zero):
        assert rows.tolist() == [want] * len(lambdas)
    for rows, want in zip(scores[1], zero):
        assert rows[1:].tolist() == [want] * (len(lambdas) - 1)
        assert np.isfinite(rows[0])
    plain = mso._score_states(states, None, targets, task.split, lambdas)
    assert [rows.tolist() for rows in scores[3]] == [rows.tolist() for rows in plain]
    held = np.array(lambdas) >= 1e-6
    direct = mso._score_states(states, 0.1 ** np.arange(1, 3), targets, task.split, lambdas)
    for got, want in zip(scores[2], direct):
        np.testing.assert_allclose(got[held], want[held], rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2 ** 16),
       st.lists(st.floats(1e-3, 10), min_size=1, max_size=3),
       st.lists(st.floats(1e-6, 1), min_size=1, max_size=3))
def test_scale_fold_matches_direct_fits(layers, units, seed, scales, lambdas):
    # each scale's rows, from the fit of X diag(s**(i-1)) at lambda / s**2,
    # against the fit of the states at that scale, X diag(s**i), at lambda.
    # Both are the same ridge problem; they round apart where it is ill
    # conditioned, most at s = 10 and lambda = 1e-6 with three layers: at
    # most 9.3e-9 relative over 4500 such guesses, hence the bound 1e-6. With
    # one layer D = 1, so the rows are bit for bit the unit-scale fit.
    task = de.MsoTask(5, length=100, split=SHORT_SPLIT)
    grid = de.GridSpec(layers, units, input_scales=tuple(scales), leak_rates=(0.9,),
                       spectral_radii=(0.7,), ridge_lambdas=tuple(lambdas), guesses=1)
    u, targets = _signal_and_targets(task)
    scores = mso._evaluate_guess(u, targets, task.split, grid, 0.9, 0.7, seed)
    states = de.run(de.init_reservoir(de.HyperParams(layers, units, seed=seed, leak_rate=0.9,
                                                     spectral_radius_target=0.7)), u)
    for scale, rows in zip(scales, scores):
        direct = mso._score_states(states, scale ** np.arange(1, layers + 1), targets,
                                   task.split, lambdas)
        for got, want in zip(rows, direct):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)
        if layers == 1:
            unit = mso._score_states(states, None, targets, task.split,
                                     [lam / (scale * scale) for lam in lambdas])
            assert [r.tolist() for r in rows] == [r.tolist() for r in unit]


def test_bundled_openblas_exposes_the_thread_setter():
    # numpy's wheels bundle scipy-openblas; should its thread-count symbols be
    # renamed, every sweep would run serially with BLAS unpinned, and should
    # dgeev or dgeqrf be, every eigenvalue and QR solve would hold the
    # interpreter lock again, so this fails
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas}, not its bundled OpenBLAS")
    assert _native.threads() is not None
    assert _native._routine("dgeev", 14) is not None
    assert _native._routine("dgeqrf", 8) is not None


@pytest.mark.parametrize("kwargs", [
    dict(guesses=0),
    dict(guesses=2.5),
    dict(guesses=True),
    dict(num_layers=2.0),
    dict(num_layers=True),
    dict(units_per_layer=6.0),
    dict(base_seed=True),
    dict(base_seed=1.5),
    dict(base_seed=-1),
    dict(base_seed=2 ** 64 - 1, guesses=2),  # guess 1 would have no seed
])
def test_grid_spec_rejects_bad_sizes(kwargs):
    with pytest.raises(ValueError):
        de.GridSpec(**{"num_layers": 2, "units_per_layer": 6, **kwargs})


def test_grid_spec_accepts_seeds_up_to_the_last():
    grid = de.GridSpec(2, 6, guesses=2, base_seed=2 ** 64 - 2)
    de.HyperParams(2, 6, seed=grid.base_seed + grid.guesses - 1)


@pytest.mark.parametrize("kwargs", [
    dict(input_scales=(0.1, -0.1)),
    dict(input_scales=(float("nan"),)),
    dict(input_scales=(float("inf"),)),
    dict(ridge_lambdas=(1e-8, float("nan"))),
    dict(ridge_lambdas=(-1e-8,)),
    dict(ridge_lambdas=(float("inf"),)),
])
def test_grid_spec_rejects_bad_scales_and_lambdas(kwargs):
    # every guess is built at unit scale, so no HyperParams checks the scales
    with pytest.raises(ValueError, match="finite and nonnegative"):
        de.GridSpec(**{"num_layers": 2, "units_per_layer": 6, **kwargs})


def test_grid_spec_accepts_numpy_integers():
    grid = de.GridSpec(num_layers=np.int64(2), units_per_layer=np.int32(6),
                       guesses=np.int64(3), base_seed=np.uint64(4))
    assert (grid.num_layers, grid.guesses, grid.base_seed) == (2, 3, 4)


# ---------------------------------------------------------------- grid_search

TINY_GRID = de.GridSpec(
    num_layers=2, units_per_layer=5,
    input_scales=(0.1, 1.0), leak_rates=(0.9,), spectral_radii=(0.7, 0.9),
    ridge_lambdas=(1e-8, 1e-4), guesses=2, base_seed=7,
)


def _sweep(monkeypatch, cores, grid=TINY_GRID, **kwargs):
    """``grid_search`` on MSO5 as if ``cores`` cores were usable."""
    monkeypatch.setattr(_native, "_usable_cores", lambda: cores)
    return de.grid_search(de.MsoTask(5), grid, **kwargs)


def test_grid_search_canonical_order_and_shape():
    result = de.grid_search(de.MsoTask(5), TINY_GRID)
    assert len(result.records) == 2 * 1 * 2 * 2
    keys = [(r.input_scale, r.leak_rate, r.spectral_radius, r.ridge_lambda)
            for r in result.records]
    expected = [(si, 0.9, rho, lam)
                for si in (0.1, 1.0) for rho in (0.7, 0.9) for lam in (1e-8, 1e-4)]
    assert keys == expected
    assert result.failures == 0


def test_grid_search_selection_is_first_minimum():
    result = de.grid_search(de.MsoTask(5), TINY_GRID)
    best = min(r.mean_val_nrmse for r in result.records)
    first = next(r for r in result.records if r.mean_val_nrmse == best)
    assert result.selected is first
    assert result.selected_test_nrmse == first.mean_test_nrmse


def test_grid_scale_sharing_matches_direct_runs():
    # derived input-scale states vs direct per-scale runs: same results up to
    # floating-point path differences, far below any decision threshold
    task = de.MsoTask(5)
    one_pair = de.grid_search(task, dataclasses.replace(TINY_GRID, spectral_radii=(0.7,)))
    recs = {scale: [r for r in one_pair.records if r.input_scale == scale]
            for scale in TINY_GRID.input_scales}
    params = dataclasses.replace(SMALL_PARAMS, units_per_layer=5, input_scale=0.1)
    val, test = _hand_scores(task, params, TINY_GRID.ridge_lambdas, 2, base_seed=7)
    for j in range(2):
        assert recs[0.1][j].mean_val_nrmse == pytest.approx(
            _mean(val[:, j]), rel=1e-7)
        assert recs[0.1][j].mean_test_nrmse == pytest.approx(
            _mean(test[:, j]), rel=1e-7)


def test_grid_search_records_failures_and_excludes_them():
    grid = dataclasses.replace(TINY_GRID, leak_rates=(0.0, 0.9))
    result = de.grid_search(de.MsoTask(5), grid)
    errored = [r for r in result.records if r.error is not None]
    # leak 0 fails per (scale, rho) combination
    assert len(errored) == 4
    assert result.failures == 4
    assert all("DegenerateConfigurationError" in r.error for r in errored)
    assert all(math.isnan(r.ridge_lambda) for r in errored)
    assert result.selected.leak_rate == 0.9


def test_grid_search_parallel_matches_serial(monkeypatch):
    one_pair = dataclasses.replace(TINY_GRID, spectral_radii=(0.7,))
    for grid, cores in ((TINY_GRID, 2), (one_pair, 2), (TINY_GRID, 3)):
        serial = _sweep(monkeypatch, 1, grid)
        parallel = _sweep(monkeypatch, cores, grid)
        assert serial.records == parallel.records
        assert serial.selected == parallel.selected


def test_grid_search_streams_records(monkeypatch):
    # pools of one and two threads deliver records the same way, pair by pair
    pairs = [(0.9, 0.7), (0.9, 0.9)]
    for cores in (1, 2):
        seen = []
        result = _sweep(monkeypatch, cores, on_result=seen.append)
        assert seen == [r for pair in pairs for r in result.records
                        if (r.leak_rate, r.spectral_radius) == pair]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_search_failures_match_across_worker_counts(monkeypatch):
    # seed 9 fails to initialise at rho 0.9, which fails every scale of that
    # pair; seed 8 gets one state of 1e308 inside the washout, finite at scale
    # 0.1 but not at scale 10, where it is the first failure in guess order
    real_weights, real_solve, building = rc._layer_weights, rc._solve_layers, threading.local()

    def layer_weights(params, layer):
        if params.seed == 9 and params.spectral_radius_target == 0.9:
            raise ValueError("injected failure")
        building.seed = params.seed  # a guess builds its layers on its own thread
        return real_weights(params, layer)

    def solve_layers(layers, u, leak_rate, out):
        yield from real_solve(layers, u, leak_rate, out)
        if building.seed == 8:
            out[0, 0, 0] = 1e308

    monkeypatch.setattr(rc, "_layer_weights", layer_weights)
    monkeypatch.setattr(rc, "_solve_layers", solve_layers)
    grid = dataclasses.replace(TINY_GRID, input_scales=(0.1, 10.0), guesses=3)
    serial = _sweep(monkeypatch, 1, grid)
    parallel = _sweep(monkeypatch, 2, grid)
    assert repr(serial.records) == repr(parallel.records)  # error records hold NaN
    errors = {(r.input_scale, r.spectral_radius): r.error
              for r in serial.records if r.error is not None}
    assert errors == {
        (0.1, 0.9): "ValueError: injected failure",
        (10.0, 0.7): "RuntimeError: non-finite reservoir states for input_scale=10.0 "
                     "leak_rate=0.9 spectral_radius=0.7 seed=8",
        (10.0, 0.9): "RuntimeError: non-finite reservoir states for input_scale=10.0 "
                     "leak_rate=0.9 spectral_radius=0.9 seed=8",
    }
    assert serial.failures == 3
    assert serial.selected.input_scale == 0.1
    assert serial.selected.spectral_radius == 0.7


def test_grid_search_scoring_failures_are_error_records(monkeypatch):
    # a fit that fails scores no lambda of its group: scale 0.1's fits (at
    # lambda / 0.01) raise, so each pair has one error record at that scale,
    # excluded from selection, the same on one thread and on two
    real_fit = mso.fit_ridge_sweep

    def fit_ridge_sweep(states, targets, lambdas):
        if lambdas[0] > 1e-7:
            raise np.linalg.LinAlgError("injected failure")
        return real_fit(states, targets, lambdas)

    monkeypatch.setattr(mso, "fit_ridge_sweep", fit_ridge_sweep)
    serial = _sweep(monkeypatch, 1)
    parallel = _sweep(monkeypatch, 2)
    assert repr(serial.records) == repr(parallel.records)  # error records hold NaN
    errors = {(r.input_scale, r.spectral_radius): r.error
              for r in serial.records if r.error is not None}
    assert errors == {(0.1, rho): "LinAlgError: injected failure" for rho in (0.7, 0.9)}
    assert serial.failures == 2
    assert serial.selected.input_scale == 1.0
    assert serial.selected == min((r for r in serial.records if r.error is None),
                                  key=lambda r: r.mean_val_nrmse)



def test_grid_search_threads_keep_their_buffers(monkeypatch):
    # more threads than cores and a short switch interval: an array shared
    # between threads would corrupt records
    grid = dataclasses.replace(TINY_GRID, num_layers=3, units_per_layer=40, guesses=8)
    calm = _sweep(monkeypatch, 2, grid)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = _sweep(monkeypatch, 4, grid)
    finally:
        sys.setswitchinterval(interval)
    assert stressed.records == calm.records

def test_grid_search_restores_blas_threads(monkeypatch):
    threads = _native.threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread-count setter")
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(2)
    try:
        for cores in (1, 2):  # a pool of one pins BLAS too
            seen = []
            _sweep(monkeypatch, cores, on_result=lambda rec: seen.append(get_threads()))
            assert set(seen) == {1}
            assert get_threads() == 2

        def interrupt(rec):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _sweep(monkeypatch, 2, on_result=interrupt)
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_threads_after_a_sweep_keep_no_freed_arrays_resident():
    # glibc's adaptive thresholds let a thread's arena keep a freed 8 MiB
    # array resident after the thread exits, so what a pooled sweep left
    # behind varied from run to run; a sweep fixes the thresholds. Run in a
    # fresh interpreter, as the setting lasts for the process.
    if not sys.platform.startswith("linux") or _native.threads() is None:
        pytest.skip("needs glibc and numpy's BLAS thread-count setter")
    code = textwrap.dedent("""
        import threading
        import numpy as np
        import deepesn as de

        def resident():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * 4096

        def churn():
            for _ in range(3):
                a = np.empty(1 << 20)
                a.fill(1.0)
                del a

        de.grid_search(de.MsoTask(5), de.GridSpec(1, 2, guesses=1))
        before = resident()
        worker = threading.Thread(target=churn)
        worker.start()
        worker.join()
        print(resident() - before)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(de.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert int(done.stdout) < 4 << 20


def test_grid_search_records_match_across_workers_at_two_blas_threads(monkeypatch):
    # BLAS results depend on its thread count once its products are large
    # enough to split (4x50 is; TINY_GRID is not); the sweep pins one thread
    # for every pool size, so pools of one and two write the same records
    threads = _native.threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread-count setter")
    grid = dataclasses.replace(TINY_GRID, num_layers=4, units_per_layer=50)
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(2)
    try:
        serial = _sweep(monkeypatch, 1, grid)
        assert get_threads() == 2
        pooled = _sweep(monkeypatch, 2, grid)
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert repr(serial.records) == repr(pooled.records)


def test_a_weight_cache_warmed_at_two_blas_threads_keeps_the_records(monkeypatch):
    # from about N = 300 dgeev rounds otherwise on two threads; the cached
    # eigenvalues are solved at one thread whoever asks first, so a sweep
    # after a main-thread init_reservoir writes a cold sweep's records
    threads = _native.threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread-count setter")
    grid = de.GridSpec(1, 300, leak_rates=(0.9,), spectral_radii=(0.7,), guesses=2,
                       base_seed=42)
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(2)
    try:
        rc._recurrent_base.cache_clear()
        cold = _sweep(monkeypatch, 2, grid)
        rc._recurrent_base.cache_clear()
        for g in range(grid.guesses):
            de.init_reservoir(de.HyperParams(1, 300, leak_rate=0.9, spectral_radius_target=0.7,
                                             seed=grid.base_seed + g))
        assert get_threads() == 2
        warm = _sweep(monkeypatch, 2, grid)
    finally:
        set_threads(before)
    assert repr(warm.records) == repr(cold.records)


def test_grid_search_defaults_to_one_worker_per_usable_core(monkeypatch):
    if _native.threads() is None:
        pytest.skip("without numpy's BLAS thread-count setter every sweep is serial")
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(_native, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    capped = de.grid_search(de.MsoTask(5), TINY_GRID)       # at most one per guess
    assert pools == [TINY_GRID.guesses]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    single = de.grid_search(de.MsoTask(5), TINY_GRID)       # as under taskset -c 0
    assert pools == [TINY_GRID.guesses, 1]
    assert repr(capped.records) == repr(single.records)


def test_grid_search_without_blas_setter_runs_serially(monkeypatch):
    serial = _sweep(monkeypatch, 1)

    def no_pool(*args):
        raise AssertionError("without the BLAS setter the sweep makes no pool")

    monkeypatch.setattr(_native, "threads", lambda: None)
    monkeypatch.setattr(_native, "ThreadPoolExecutor", no_pool)
    for cores in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            unpinned = _sweep(monkeypatch, cores)
        assert caught == []
        assert unpinned.records == serial.records


@pytest.mark.parametrize("leak,simulated", [(0.9, [1.0]), (0.0, [])])
def test_guess_simulates_once_per_distinct_scale(monkeypatch, leak, simulated):
    # a guess serves its two input scales from one unit-scale run; leak 0
    # fails every scale before a run
    calls, real_weights, real_solve = [], rc._layer_weights, rc._solve_layers
    built = []

    def layer_weights(params, layer):
        built.append(params.input_scale)
        return real_weights(params, layer)

    def solve_layers(*args):
        yield from real_solve(*args)
        calls.append(built[0])  # the scale of the reservoir just solved
        built.clear()

    monkeypatch.setattr(rc, "_layer_weights", layer_weights)
    monkeypatch.setattr(rc, "_solve_layers", solve_layers)
    task = de.MsoTask(5)
    u, targets = _signal_and_targets(task)
    scores = mso._evaluate_guess(u, targets, task.split, TINY_GRID, leak, 0.7, 7)
    assert calls == simulated
    outcome = tuple if simulated else de.DegenerateConfigurationError
    assert len(scores) == 2 and all(isinstance(s, outcome) for s in scores)


def test_selected_test_nrmse_raises_when_empty():
    result = de.ExperimentResult(task_n=5, num_layers=1, units_per_layer=1,
                                 guesses=1, base_seed=0, records=(),
                                 selected=None, failures=0)
    with pytest.raises(ValueError):
        result.selected_test_nrmse
