import dataclasses

import numpy as np
import pytest

import deepesn as de
from deepesn import _native
from deepesn import flat as flat_module

from conftest import gelfand_radius


def _hand_reservoir(num_layers, units, leak, w_in, inter, recurrent):
    p = de.HyperParams(num_layers, units, input_dim=w_in.shape[1], leak_rate=leak,
                       spectral_radius_target=1.0, seed=0)
    return de.DeepReservoir(input_weights=w_in, inter_layer_weights=tuple(inter),
                            recurrent_weights=tuple(recurrent), params=p)


def test_flatten_single_layer(small_params):
    r = de.init_reservoir(dataclasses.replace(small_params, num_layers=1))
    flat = de.flatten(r)
    a = small_params.leak_rate
    np.testing.assert_array_equal(flat.v, de.effective_matrix(r.recurrent_weights[0], a))
    np.testing.assert_array_equal(flat.v_in, a * r.input_weights)
    assert flat.block_dims == (1, 6, 1)


def test_flatten_structural_zeros(small_reservoir):
    flat = de.flatten(small_reservoir)
    n = 6
    for i in range(3):
        for j in range(3):
            if i < j:
                block = flat.v[i * n:(i + 1) * n, j * n:(j + 1) * n]
                assert np.all(block == 0.0)


def test_flatten_diagonal_blocks_bitwise(small_reservoir, small_params):
    flat = de.flatten(small_reservoir)
    a = small_params.leak_rate
    n = 6
    for i in range(3):
        block = flat.v[i * n:(i + 1) * n, i * n:(i + 1) * n]
        expected = de.effective_matrix(small_reservoir.recurrent_weights[i], a)
        assert np.array_equal(block, expected)


def test_flatten_hand_scalar_example():
    # two scalar layers: a=0.5, What=0.4 each, W2=2, W_in=1
    r = _hand_reservoir(2, 1, 0.5,
                        w_in=np.array([[1.0]]),
                        inter=[np.array([[2.0]])],
                        recurrent=[np.array([[0.4]]), np.array([[0.4]])])
    flat = de.flatten(r)
    np.testing.assert_allclose(flat.v, [[0.7, 0.0], [0.7, 0.7]], rtol=1e-15)
    np.testing.assert_allclose(flat.v_in, [[0.5], [0.5]], rtol=1e-15)


def test_flatten_product_order_three_layers(rng):
    # V_{3,1} must be (a W3)(a W2) D1: matrices do not commute, so the order
    # is pinned against an explicit hand computation.
    p = de.HyperParams(3, 4, leak_rate=0.8, spectral_radius_target=0.9, seed=31)
    r = de.init_reservoir(p)
    a = p.leak_rate
    flat = de.flatten(r)
    w2, w3 = r.inter_layer_weights
    d1 = de.effective_matrix(r.recurrent_weights[0], a)
    expected = (a * w3) @ ((a * w2) @ d1)
    np.testing.assert_allclose(flat.v[8:12, 0:4], expected, rtol=1e-13)
    # input column of layer 3: (a W3)(a W2) a W_in
    expected_in = (a * w3) @ ((a * w2) @ (a * r.input_weights))
    np.testing.assert_allclose(flat.v_in[8:12], expected_in, rtol=1e-13)


def test_run_flat_zero_inputs(small_reservoir):
    flat = de.flatten(small_reservoir)
    assert np.all(de.run_flat(flat, np.zeros(10)) == 0.0)


def test_run_flat_single_step_is_vin_u(small_reservoir):
    flat = de.flatten(small_reservoir)
    u = np.array([0.37])
    states = de.run_flat(flat, u)
    np.testing.assert_allclose(states.reshape(1, -1)[0], flat.v_in[:, 0] * 0.37, rtol=1e-15)


def test_run_flat_matches_layered_50_steps(rng):
    p = de.HyperParams(4, 5, leak_rate=0.7, spectral_radius_target=0.9, seed=8)
    r = de.init_reservoir(p)
    u = rng.uniform(-1, 1, 50)
    layered = de.run(r, u).reshape(50, -1)
    flat = de.run_flat(de.flatten(r), u).reshape(50, -1)
    assert np.max(np.abs(layered - flat)) < 1e-9


def test_run_flat_dimension_error(small_reservoir):
    flat = de.flatten(small_reservoir)
    with pytest.raises(ValueError):
        de.run_flat(flat, np.ones((5, 2)))


def test_verify_equivalence_passes(rng):
    p = de.HyperParams(3, 5, leak_rate=0.7, spectral_radius_target=0.9, seed=21)
    r = de.init_reservoir(p)
    u = rng.uniform(-1, 1, 200)
    report = de.verify_equivalence(r, u, rel_tol=1e-12)
    assert report.passed
    assert report.max_rel_diff <= 1e-12
    assert report.max_abs_diff <= 1e-8
    assert report.num_steps == 200
    assert report.per_step_diffs.shape == (200,)
    assert report.max_abs_diff == pytest.approx(report.per_step_diffs.max())


def test_verify_equivalence_single_layer_diff_is_tiny(rng):
    # one layer: the two recurrences share the weights bitwise and differ only
    # in summation order, so the gap sits at rounding level
    p = de.HyperParams(1, 6, leak_rate=0.9, spectral_radius_target=0.7, seed=4)
    r = de.init_reservoir(p)
    u = rng.uniform(-1, 1, 100)
    report = de.verify_equivalence(r, u, rel_tol=1e-12)
    assert report.passed
    assert report.max_abs_diff <= 1e-12


# Layer-10 states reach ~1e9 here, so absolute gaps reach ~1e-6. Relative to
# each layer's state magnitude, run's gaps over seeds 40-59 stayed within
# 2.6e-15 (chunks of 16 steps at this size); the bound leaves a factor of 4.
MSO12_DEEP_REL_TOL = 1e-14


def test_verify_equivalence_mso12_deep():
    p = de.HyperParams(10, 100, leak_rate=0.9, spectral_radius_target=0.7, seed=50)
    r = de.init_reservoir(p)
    u = de.generate_mso(de.MsoTask(12))
    report = de.verify_equivalence(r, u, rel_tol=MSO12_DEEP_REL_TOL)
    assert report.passed


def test_verify_equivalence_catches_planted_weight_error(monkeypatch):
    # the layered side runs with one inter-layer matrix off by 1e-9 relative
    p = de.HyperParams(10, 100, leak_rate=0.9, spectral_radius_target=0.7, seed=50)
    r = de.init_reservoir(p)
    inter = list(r.inter_layer_weights)
    inter[4] = inter[4] * (1.0 + 1e-9)
    planted = dataclasses.replace(r, inter_layer_weights=tuple(inter))
    monkeypatch.setattr(flat_module, "run", lambda res, inputs: de.run(planted, inputs))
    u = de.generate_mso(de.MsoTask(12))
    report = de.verify_equivalence(r, u, rel_tol=MSO12_DEEP_REL_TOL)
    assert not report.passed
    assert report.max_rel_diff > 1e-10


def test_verify_equivalence_rejects_bad_tol(small_reservoir):
    # an infinite tolerance would pass any gap
    for tol in (0.0, -1e-12, np.inf, np.nan):
        with pytest.raises(ValueError):
            de.verify_equivalence(small_reservoir, np.ones(5), rel_tol=tol)


@pytest.mark.parametrize("params, steps", [
    (de.HyperParams(3, 20, leak_rate=0.9, spectral_radius_target=50.0), 1000),
    (de.HyperParams(2, 3, input_scale=1e300, leak_rate=0.9, spectral_radius_target=0.7), 200),
])
def test_verify_equivalence_refuses_diverged_trajectories(params, steps):
    # NaN gaps would compare as neither pass nor fail: a diverged pair checks nothing
    u = de.generate_mso(de.MsoTask(12))[:steps]
    with pytest.raises(RuntimeError, match="non-finite reservoir states"):
        de.verify_equivalence(de.init_reservoir(params), u, rel_tol=1e-12)


def test_verify_equivalence_does_not_depend_on_blas_threads():
    # the check runs both systems with OpenBLAS at one thread and restores
    # the count; at 3x300 the products round otherwise on two threads
    # (max_abs_diff 3.64e-12 at one thread against 3.87e-12 at two)
    threads = _native.threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread-count setter")
    get_threads, set_threads = threads
    r = de.init_reservoir(de.HyperParams(3, 300, 1, 1.0, 0.9, 0.7, seed=0))
    u = de.generate_mso(de.MsoTask(12))[:200]
    before = get_threads()
    reports = {}
    try:
        for count in (1, 2):
            set_threads(count)
            report = de.verify_equivalence(r, u, rel_tol=1e-12)
            assert get_threads() == count
            reports[count] = (report.max_abs_diff, report.max_rel_diff, report.passed,
                              report.per_step_diffs.tobytes())
    finally:
        set_threads(before)
    assert reports[1] == reports[2]


def test_spectrum_containment(rng):
    # block triangular V: spectrum is the union of the diagonal-block spectra
    p = de.HyperParams(3, 6, leak_rate=0.8, spectral_radius_target=0.9, seed=13)
    r = de.init_reservoir(p)
    flat = de.flatten(r)
    whole = np.linalg.eigvals(flat.v)
    blocks = np.concatenate([
        np.linalg.eigvals(de.effective_matrix(w, p.leak_rate))
        for w in r.recurrent_weights
    ])
    order = lambda z: np.lexsort((z.imag, z.real))
    whole, blocks = whole[order(whole)], blocks[order(blocks)]
    np.testing.assert_allclose(whole, blocks, atol=1e-8)


def test_flat_spectral_radius_bounded_by_target(small_reservoir, small_params):
    flat = de.flatten(small_reservoir)
    rho = gelfand_radius(flat.v)
    assert rho == pytest.approx(small_params.spectral_radius_target, rel=1e-9)


def test_flat_matrices_readonly(small_reservoir):
    flat = de.flatten(small_reservoir)
    with pytest.raises(ValueError):
        flat.v[0, 0] = 5.0
