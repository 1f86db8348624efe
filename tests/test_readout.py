import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepesn as de

LAMBDA_GRID = de.DEFAULT_LAMBDAS


# ------------------------------------------------------------------ fit_ridge

def test_exact_interpolation_recovery(rng):
    # full-rank square X with bounded condition number: lam=0 recovers G
    x = rng.uniform(-1, 1, (8, 8)) + 3.0 * np.eye(8)
    g = rng.uniform(-2, 2, (2, 8))
    y = x @ g.T
    fit = de.fit_ridge(x, y, 0.0)
    np.testing.assert_allclose(fit.weights, g, atol=1e-10)
    np.testing.assert_allclose(de.predict(fit, x), y, atol=1e-10)
    assert not fit.rank_deficient


def test_huge_lambda_shrinks_weights(rng):
    x = rng.uniform(-1, 1, (30, 5))
    y = rng.uniform(-1, 1, (30, 1))
    fit = de.fit_ridge(x, y, 1e12)
    assert np.all(np.abs(fit.weights) < 1e-6)


def test_scalar_ridge_closed_form():
    # w = sum(xy) / (sum(x^2) + lam) = 28 / 15
    fit = de.fit_ridge(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]), 1.0)
    assert fit.weights[0, 0] == pytest.approx(28.0 / 15.0, rel=1e-12)


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
def test_normal_equation_residual(rng, shape):
    x = rng.standard_normal(shape)
    y = rng.standard_normal((shape[0], 3))
    for lam in LAMBDA_GRID:
        fit = de.fit_ridge(x, y, lam)
        lhs = fit.weights @ (x.T @ x + lam * np.eye(shape[1]))
        rhs = y.T @ x
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1.0)


def test_lambda_monotone_weight_norm(rng):
    x = rng.standard_normal((25, 10))
    y = rng.standard_normal((25, 2))
    lams = (0.0,) + LAMBDA_GRID
    norms = [np.linalg.norm(de.fit_ridge(x, y, lam).weights) for lam in lams]
    for small, large in zip(norms[1:], norms[:-1]):
        assert small <= large * (1.0 + 1e-12)


def test_scale_equivariance(rng):
    x = rng.standard_normal((20, 6))
    y = rng.standard_normal((20, 1))
    base = de.fit_ridge(x, y, 1e-3).weights
    scaled = de.fit_ridge(x, 7.5 * y, 1e-3).weights
    np.testing.assert_allclose(scaled, 7.5 * base, rtol=1e-10)


def test_training_nrmse_non_increasing_as_lambda_decreases(rng):
    x = rng.standard_normal((60, 8))
    y = (x @ rng.standard_normal((8, 1))) + 0.1 * rng.standard_normal((60, 1))
    errors = []
    for lam in LAMBDA_GRID:  # ascending lambda
        fit = de.fit_ridge(x, y, lam)
        errors.append(de.nrmse(de.predict(fit, x)[:, 0], y[:, 0]))
    for smaller_lam, larger_lam in zip(errors[:-1], errors[1:]):
        assert smaller_lam <= larger_lam * (1.0 + 1e-12)


def test_min_norm_fallback_flags_rank_deficiency(rng):
    x = rng.standard_normal((5, 12))  # underdetermined
    y = rng.standard_normal((5, 1))
    fit = de.fit_ridge(x, y, 0.0)
    assert fit.rank_deficient
    assert fit.rank == 5
    # independent oracle: LAPACK least-squares min-norm solution
    oracle, *_ = np.linalg.lstsq(x, y, rcond=None)
    np.testing.assert_allclose(fit.weights.T, oracle, atol=1e-8)


def test_positive_lambda_never_flags(rng):
    x = rng.standard_normal((5, 12))
    y = rng.standard_normal((5, 1))
    assert not de.fit_ridge(x, y, 1e-9).rank_deficient


def test_sweep_matches_individual_fits(rng):
    # a lambda's weights are the same bits alone as in a sweep. Wide shapes
    # map through the QR's reflectors in blocks of 32: t below one block, t
    # a multiple of it, several blocks with a partial last one; then tall
    # shapes, and 1 to 3 outputs, lambda = 0 included
    lambdas = (0.0,) + LAMBDA_GRID
    for shape in [(15, 30), (20, 45), (64, 150), (100, 250), (40, 12), (30, 30)]:
        x = rng.standard_normal(shape)
        for outputs in (1, 2, 3):
            y = rng.standard_normal((shape[0], outputs))
            sweep = de.fit_ridge_sweep(x, y, lambdas)
            for lam, fit in zip(lambdas, sweep):
                assert fit.regularization == lam
                assert fit.weights.shape == (outputs, shape[1])
                np.testing.assert_array_equal(fit.weights, de.fit_ridge(x, y, lam).weights)


def test_wide_sweep_matches_lstsq_oracles(rng):
    # several reflector blocks (t = 100 against blocks of 32). Oracles from
    # LAPACK least squares: ridge as the augmented problem [X; sqrt(lam) I] w
    # = [y; 0], lambda = 0 as the minimum-norm solution. The augmented
    # matrix has condition number about sigma_max / sqrt(lam) (X's null space
    # meets only sqrt(lam) I), so no lambda below 1e-3 gives a sharp oracle.
    # A first sample along the first feature makes LAPACK's first reflector
    # the identity (tau = 0), which must not divide by zero
    x = rng.standard_normal((100, 250))
    y = rng.standard_normal((100, 2))
    lambdas = (0.0, 1e-3, 1.0, 1e2)
    identity_first = x.copy()
    identity_first[0] = 0.0
    identity_first[0, 0] = 2.0
    for states in (x, identity_first):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = de.fit_ridge_sweep(states, y, lambdas)
        for lam, fit in zip(lambdas, fits):
            if lam > 0.0:
                aug_x = np.vstack([states, math.sqrt(lam) * np.eye(250)])
                aug_y = np.vstack([y, np.zeros((250, 2))])
                oracle, *_ = np.linalg.lstsq(aug_x, aug_y, rcond=None)
            else:
                oracle, *_ = np.linalg.lstsq(states, y, rcond=None)
            assert fit.rank == 100 and fit.rank_deficient == (lam == 0.0)
            np.testing.assert_allclose(fit.weights.T, oracle, rtol=0,
                                       atol=1e-12 * np.abs(oracle).max())


def test_fit_errors():
    with pytest.raises(ValueError):
        de.fit_ridge(np.zeros((0, 3)), np.zeros((0, 1)), 1.0)
    with pytest.raises(ValueError):
        de.fit_ridge(np.ones((4, 3)), np.ones(3), 1.0)          # length mismatch
    with pytest.raises(ValueError):
        de.fit_ridge(np.ones((4, 3)), np.ones(4), -1.0)         # negative lambda
    with pytest.raises(ValueError):
        de.fit_ridge(np.full((4, 3), np.nan), np.ones(4), 1.0)
    with pytest.raises(ValueError):
        de.fit_ridge_sweep(np.ones((4, 3)), np.ones(4), [])


def test_predict_width_mismatch(rng):
    fit = de.fit_ridge(rng.standard_normal((10, 4)), rng.standard_normal(10), 1.0)
    with pytest.raises(ValueError):
        de.predict(fit, np.ones((3, 5)))


def test_predict_zero_states(rng):
    fit = de.fit_ridge(rng.standard_normal((10, 4)), rng.standard_normal(10), 1.0)
    assert np.all(de.predict(fit, np.zeros((6, 4))) == 0.0)


# ---------------------------------------------------------------------- nrmse

def test_nrmse_perfect_predictor():
    y = np.array([0.3, -1.2, 2.4, 0.0])
    assert de.nrmse(y, y) == 0.0


def test_nrmse_mean_predictor_is_exactly_one(rng):
    y = rng.uniform(-5, 5, 50)
    pred = np.full_like(y, np.mean(y))
    assert de.nrmse(pred, y) == 1.0


def test_nrmse_hand_value():
    assert abs(de.nrmse([0, 0, 0, 0], [0, 1, 0, 1]) - math.sqrt(2.0)) <= 1e-12


def test_nrmse_errors():
    with pytest.raises(ValueError):
        de.nrmse([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        de.nrmse([1.0], [1.0])
    with pytest.raises(ValueError):
        de.nrmse([0.0, 1.0], [2.0, 2.0])        # zero target variance
    with pytest.raises(ValueError):
        de.nrmse([np.nan, 1.0], [0.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=3, max_size=20), st.integers(0, 19),
       st.floats(1e-6, 10))
def test_nrmse_positive_iff_any_mismatch(values, idx, bump):
    y = np.asarray(values)
    if np.mean((y - y.mean()) ** 2) == 0.0:
        return
    pred = y.copy()
    assert de.nrmse(pred, y) == 0.0
    pred[idx % len(values)] += bump
    assert de.nrmse(pred, y) > 0.0
