import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deepesn as de
from deepesn import _native
from deepesn import reservoir as rc
from deepesn.exceptions import DegenerateConfigurationError, UnscalableMatrixError

from conftest import gelfand_radius


# ---------------------------------------------------------------- HyperParams

@pytest.mark.parametrize("kwargs", [
    dict(num_layers=0, units_per_layer=5),
    dict(num_layers=2, units_per_layer=0),
    dict(num_layers=2, units_per_layer=5, input_dim=0),
    dict(num_layers=2, units_per_layer=5, leak_rate=-0.1),
    dict(num_layers=2, units_per_layer=5, leak_rate=1.1),
    dict(num_layers=2, units_per_layer=5, spectral_radius_target=0.0),
    dict(num_layers=2, units_per_layer=5, input_scale=-1.0),
    dict(num_layers=2, units_per_layer=5, activation="relu"),
    dict(num_layers=2, units_per_layer=5, seed=-1),
    dict(num_layers=2, units_per_layer=5, spectral_radius_target=float("inf")),
    dict(num_layers=2, units_per_layer=5, input_scale=float("inf")),
    dict(num_layers=2, units_per_layer=5, seed=True),
    dict(num_layers=True, units_per_layer=4),
    dict(num_layers=2.0, units_per_layer=4),
    dict(num_layers=2, units_per_layer=True),
    dict(num_layers=2, units_per_layer=4.5),
    dict(num_layers=2, units_per_layer=4, input_dim=True),
    dict(num_layers=2, units_per_layer=4, input_dim=1.0),
    dict(num_layers=2, units_per_layer=4, seed=2.5),
    dict(num_layers=2, units_per_layer=5, leak_rate=0.0),
])
def test_hyperparams_validation(kwargs):
    with pytest.raises(ValueError):
        de.HyperParams(**kwargs)


def test_hyperparams_builds_linear_reservoirs_only():
    with pytest.raises(ValueError, match="linear reservoirs only"):
        de.HyperParams(2, 5, activation="saturating")


def test_hyperparams_positional_form():
    # every field by position, activation included
    p = de.HyperParams(3, 20, 1, 0.1, 0.9, 0.7, "linear", 7)
    assert p == de.HyperParams(3, 20, input_scale=0.1, leak_rate=0.9,
                               spectral_radius_target=0.7, seed=7)
    assert de.init_reservoir(p).recurrent_weights[2].shape == (20, 20)


def test_hyperparams_accepts_numpy_integers():
    p = de.HyperParams(np.int64(2), np.int32(3), input_dim=np.int64(1), seed=np.uint64(7))
    assert de.init_reservoir(p).recurrent_weights[1].shape == (3, 3)


# ------------------------------------------------------------ spectral_radius

def test_spectral_radius_identity():
    assert de.spectral_radius(np.eye(5)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_radius_diagonal():
    assert de.spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, rel=1e-12)


def test_spectral_radius_rotation():
    # eigenvalues are the purely imaginary pair +/- i
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert de.spectral_radius(m) == pytest.approx(1.0, rel=1e-12)


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(ValueError):
        de.spectral_radius(np.ones((2, 3)))


def test_spectral_radius_rejects_nonfinite():
    with pytest.raises(ValueError):
        de.spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_spectral_radius_matches_gelfand_oracle(rng):
    for n in (3, 7, 20):
        m = rng.uniform(-1.0, 1.0, (n, n))
        assert de.spectral_radius(m) == pytest.approx(gelfand_radius(m), rel=1e-10)


# ------------------------------------------------------------- init_reservoir

def test_init_is_deterministic(small_params):
    a = de.init_reservoir(small_params)
    b = de.init_reservoir(small_params)
    assert np.array_equal(a.input_weights, b.input_weights)
    for x, y in zip(a.inter_layer_weights, b.inter_layer_weights):
        assert np.array_equal(x, y)
    for x, y in zip(a.recurrent_weights, b.recurrent_weights):
        assert np.array_equal(x, y)


def test_init_shapes(small_reservoir, small_params):
    p = small_params
    assert small_reservoir.input_weights.shape == (p.units_per_layer, p.input_dim)
    assert len(small_reservoir.inter_layer_weights) == p.num_layers - 1
    assert len(small_reservoir.recurrent_weights) == p.num_layers
    for w in small_reservoir.inter_layer_weights + small_reservoir.recurrent_weights:
        assert w.shape == (p.units_per_layer, p.units_per_layer)


def test_init_weight_bounds(small_reservoir, small_params):
    s = small_params.input_scale
    assert np.all(np.abs(small_reservoir.input_weights) <= s)
    for w in small_reservoir.inter_layer_weights:
        assert np.all(np.abs(w) <= s)


def test_zero_input_scale_zeroes_feed_matrices():
    p = de.HyperParams(3, 4, input_scale=0.0, leak_rate=0.9,
                       spectral_radius_target=0.7, seed=9)
    r = de.init_reservoir(p)
    assert np.all(r.input_weights == 0.0)
    for w in r.inter_layer_weights:
        assert np.all(w == 0.0)


def test_spectral_radius_postcondition_headline_config():
    # the headline configuration: 10 layers of 100 units
    p = de.HyperParams(10, 100, input_scale=1.0, leak_rate=0.9,
                       spectral_radius_target=0.7, seed=77)
    r = de.init_reservoir(p)
    for w in r.recurrent_weights:
        measured = de.spectral_radius(de.effective_matrix(w, p.leak_rate))
        assert measured == pytest.approx(0.7, rel=1e-10)
    # independent oracle on the first layer
    eff = de.effective_matrix(r.recurrent_weights[0], p.leak_rate)
    assert gelfand_radius(eff) == pytest.approx(0.7, rel=1e-10)


def test_more_layers_do_not_perturb_earlier_matrices(small_params):
    shallow = de.init_reservoir(small_params)
    deeper = de.init_reservoir(dataclasses.replace(small_params, num_layers=5))
    assert np.array_equal(shallow.input_weights, deeper.input_weights)
    for x, y in zip(shallow.inter_layer_weights, deeper.inter_layer_weights):
        assert np.array_equal(x, y)
    for x, y in zip(shallow.recurrent_weights, deeper.recurrent_weights):
        assert np.array_equal(x, y)


def test_zero_leak_rate_rejected(small_params):
    with pytest.raises(DegenerateConfigurationError):
        de.init_reservoir(dataclasses.replace(small_params, leak_rate=0.0))


def test_unscalable_matrix_error(monkeypatch, small_params):
    monkeypatch.setattr(rc, "_recurrent_base", lambda *args: None)
    with pytest.raises(UnscalableMatrixError):
        de.init_reservoir(small_params)


def test_unscalable_retry_uses_next_substream(monkeypatch, small_params):
    plain = de.init_reservoir(small_params)
    real = rc._recurrent_base.__wrapped__

    def flaky(seed, layer, n_units, attempt):
        if attempt == 0:
            return None
        return real(seed, layer, n_units, attempt)

    monkeypatch.setattr(rc, "_recurrent_base", flaky)
    retried = de.init_reservoir(small_params)
    assert not np.array_equal(plain.recurrent_weights[0], retried.recurrent_weights[0])
    # the retried draw still satisfies the spectral-radius post-condition
    eff = de.effective_matrix(retried.recurrent_weights[0], small_params.leak_rate)
    assert de.spectral_radius(eff) == pytest.approx(0.7, rel=1e-10)


def test_recurrent_cache_holds_eigenvalues_only():
    # a cold and a warm build agree bit for bit, and an entry costs about 16
    # bytes per unit: caching the N x N base would pin 256 of them
    params = de.HyperParams(2, 40, 1, 0.5, 0.7, 0.9, "linear", 31)
    rc._recurrent_base.cache_clear()
    cold = de.init_reservoir(params)
    warm = de.init_reservoir(params)
    assert rc._recurrent_base.cache_info().hits == params.num_layers
    for x, y in zip(cold.recurrent_weights + cold.inter_layer_weights,
                    warm.recurrent_weights + warm.inter_layer_weights):
        assert x.tobytes() == y.tobytes()
    entry = rc._recurrent_base(params.seed, 1, params.units_per_layer, 0)
    arrays = [x for x in entry if isinstance(x, np.ndarray)]
    assert all(x.ndim == 1 for x in arrays)
    assert sum(x.nbytes for x in arrays) <= 16 * params.units_per_layer


def test_init_does_not_depend_on_blas_threads():
    # from about N = 300 dgeev on two threads changes rho_raw; the cached
    # solve runs at one thread, so the weights are the same either way
    threads = _native.threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread-count setter")
    get_threads, set_threads = threads
    before = get_threads()
    params = de.HyperParams(1, 300, leak_rate=0.9, spectral_radius_target=0.7, seed=42)
    built = {}
    try:
        for count in (1, 2):
            set_threads(count)
            rc._recurrent_base.cache_clear()
            built[count] = de.init_reservoir(params).recurrent_weights[0]
            assert get_threads() == count
    finally:
        set_threads(before)
    assert built[1].tobytes() == built[2].tobytes()


def test_weight_arrays_are_readonly(small_reservoir):
    with pytest.raises(ValueError):
        small_reservoir.input_weights[0, 0] = 1.0


# ----------------------------------------------------------------------- step

def test_step_zero_fixed_point(small_reservoir, small_params):
    state = np.zeros((small_params.num_layers, small_params.units_per_layer))
    out = de.step(small_reservoir, state, np.zeros(1))
    assert np.all(out == 0.0)


def test_step_full_leak_layer1(rng):
    p = de.HyperParams(2, 5, leak_rate=1.0, spectral_radius_target=0.8, seed=3)
    r = de.init_reservoir(p)
    state = rng.standard_normal((2, 5))
    u = rng.standard_normal(1)
    out = de.step(r, state, u)
    expected = r.input_weights @ u + r.recurrent_weights[0] @ state[0]
    np.testing.assert_allclose(out[0], expected, rtol=1e-15)


def test_step_hand_expanded_two_layers():
    # one step from zero: layer 2 sees a^2 * W2 @ W_in * u
    a = 0.6
    w_in = np.array([[1.0], [2.0]])
    w2 = np.array([[0.5, -1.0], [2.0, 0.25]])
    w_hat = np.array([[0.3, 0.1], [0.0, 0.2]])
    p = de.HyperParams(2, 2, leak_rate=a, spectral_radius_target=0.5, seed=0)
    r = de.DeepReservoir(input_weights=w_in, inter_layer_weights=(w2,),
                         recurrent_weights=(w_hat, w_hat), params=p)
    u = np.array([1.5])
    out = de.step(r, np.zeros((2, 2)), u)
    np.testing.assert_allclose(out[0], a * (w_in @ u), rtol=1e-15)
    np.testing.assert_allclose(out[1], a * a * (w2 @ w_in @ u), rtol=1e-15)


def test_step_dimension_errors(small_reservoir):
    with pytest.raises(ValueError):
        de.step(small_reservoir, np.zeros((2, 6)), np.zeros(1))
    with pytest.raises(ValueError):
        de.step(small_reservoir, np.zeros((3, 6)), np.zeros(2))


# ------------------------------------------------------------------------ run

def test_run_single_step(small_reservoir):
    assert de.run(small_reservoir, np.array([0.7])).shape == (1, 3, 6)


def test_run_zero_inputs_zero_trajectory(small_reservoir):
    assert np.all(de.run(small_reservoir, np.zeros(20)) == 0.0)


def test_run_rejects_empty(small_reservoir):
    with pytest.raises(ValueError):
        de.run(small_reservoir, np.zeros((0, 1)))


#: Largest per-layer gap between ``run`` and repeated ``step``, relative to
#: the layer's state magnitude; rounding stays below 5e-15 at these sizes.
RUN_VS_STEP_REL = 1e-12


def _stepped(r, u):
    """Trajectory by repeated ``step``, the sequential oracle of ``run``."""
    out = np.empty((len(u), r.params.num_layers, r.params.units_per_layer))
    state = np.zeros(out.shape[1:])
    for t, u_t in enumerate(u):
        state = out[t] = de.step(r, state, u_t)
    return out


def _assert_layers_close(states, expected, rel=RUN_VS_STEP_REL):
    # run sums its products in another order than step: each layer's gap is
    # bounded relative to that layer's largest state magnitude
    gap = np.abs(states - expected).max(axis=(0, 2))
    assert np.all(gap <= rel * np.abs(expected).max(axis=(0, 2))), gap


def test_run_matches_manual_stepping(small_reservoir, small_params, rng):
    reservoirs = [
        small_reservoir,
        de.init_reservoir(dataclasses.replace(small_params, input_dim=2)),
    ]
    for r in reservoirs:
        u = rng.uniform(-1, 1, (17, r.params.input_dim))
        _assert_layers_close(de.run(r, u), _stepped(r, u))


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 15, 16, 17, 1000, 1001])
@pytest.mark.parametrize("input_dim", [1, 2], ids=["linear-1", "linear-2"])
def test_run_matches_step_across_chunk_shapes(small_params, input_dim, steps):
    # at 6 units the chunk-length rule picks b = 1 (the sequential recurrence)
    # up to 4 steps, then b = 3, 2, 3, 20 and 24: one-step chunks, partial
    # last chunks and chunks that divide the steps
    r = de.init_reservoir(dataclasses.replace(small_params, input_dim=input_dim, seed=steps))
    u = np.random.default_rng(steps).uniform(-1, 1, (steps, input_dim))
    _assert_layers_close(de.run(r, u), _stepped(r, u))


@pytest.mark.parametrize("steps", [1, 3, 16, 17, 65])
def test_run_matches_step_when_units_exceed_steps(steps):
    # with at least as many units as steps, forming M^b weighs most and the
    # rule picks short chunks: b = 1, 1, 2, 2 and 4 here
    r = de.init_reservoir(de.HyperParams(2, 64, leak_rate=0.9, spectral_radius_target=0.7,
                                         seed=steps))
    u = np.random.default_rng(steps).uniform(-1, 1, steps)
    _assert_layers_close(de.run(r, u), _stepped(r, u))


@pytest.mark.parametrize("steps, b", [(1, 1), (5, 1), (5, 2), (5, 4), (5, 5), (5, 8),
                                      (16, 4), (17, 4), (17, 16)])
def test_linear_scan_matches_recurrence_at_any_chunk_length(steps, b):
    # b >= steps is the single-chunk case: the chunk pass alone solves it
    rng = np.random.default_rng(100 * steps + b)
    m = rng.uniform(-0.3, 0.3, (5, 5))
    d = rng.uniform(-1.0, 1.0, (steps, 5))
    expected, x = np.empty_like(d), np.zeros(5)
    for t in range(steps):
        x = expected[t] = m @ x + d[t]
    got = d.copy()
    rc._linear_scan(got, m, b)
    assert np.abs(got - expected).max() <= RUN_VS_STEP_REL * np.abs(expected).max()


def test_chunk_length_rule():
    # the rule searches b up to 2 isqrt(T) + 1 only; a search over every b
    # must agree
    for steps in (1, 2, 3, 17, 100, 1000):
        for units in (1, 6, 64, 100, 1000):
            full = min(range(1, steps + 1), key=lambda b: rc._scan_cost(steps, units, b))
            assert 1 <= rc._chunk_length(steps, units) == full <= steps
    assert rc._chunk_length(1000, 1000) <= 8
    # test_verify_equivalence_mso12_deep passes its 1e-14 bound at this chunk
    # length (at most 2.6e-15 over seeds 40-59)
    assert rc._chunk_length(1000, 100) == 16


@settings(max_examples=30, deadline=None)
@given(layers=st.integers(1, 4), units=st.integers(1, 12), steps=st.integers(1, 300),
       seed=st.integers(0, 2 ** 16))
def test_run_matches_step_property(layers, units, steps, seed):
    p = de.HyperParams(layers, units, leak_rate=0.8, spectral_radius_target=0.9, seed=seed)
    r = de.init_reservoir(p)
    u = np.random.default_rng(seed).uniform(-1, 1, steps)
    _assert_layers_close(de.run(r, u), _stepped(r, u))


@settings(max_examples=30, deadline=None)
@given(layers=st.integers(1, 4), units=st.integers(1, 12), steps=st.integers(1, 300),
       seed=st.integers(0, 2 ** 16))
@example(layers=1, units=1, steps=40, seed=0)
@example(layers=3, units=12, steps=1, seed=1)  # steps <= chunk length: no carry
def test_run_equals_streamed_layers_bit_for_bit(layers, units, steps, seed):
    # run writes the solver's layers into its array; built one at a time
    # and solved into arrays of their own, they have the same bits
    p = de.HyperParams(layers, units, leak_rate=0.8, spectral_radius_target=0.9, seed=seed)
    u = np.random.default_rng(seed).uniform(-1, 1, (steps, 1))
    states = de.run(de.init_reservoir(p), u)
    built = map(lambda layer: rc._layer_weights(p, layer), range(1, layers + 1))
    streamed = list(rc._solve_layers(built, u, p.leak_rate))
    assert len(streamed) == layers
    for i, x in enumerate(streamed):
        assert x.shape == (steps, units)
        assert x.tobytes() == np.ascontiguousarray(states[:, i]).tobytes()


def test_concatenated_layout(small_reservoir, rng):
    # (steps, layers, units), read-only; reshape(steps, -1) puts layer i in
    # column block i, the layout a readout over all layers reads
    states = de.run(small_reservoir, rng.uniform(-1, 1, 5))
    assert isinstance(states, np.ndarray)
    assert states.shape == (5, 3, 6)
    with pytest.raises(ValueError):
        states[0, 0, 0] = 1.0
    concatenated = states.reshape(5, -1)
    assert concatenated.shape == (5, 18)
    for i in range(3):
        np.testing.assert_array_equal(concatenated[:, 6 * i:6 * (i + 1)], states[:, i, :])


def test_causality(small_reservoir, rng):
    u = rng.uniform(-1, 1, 30)
    v = u.copy()
    v[20] += 0.5
    a = de.run(small_reservoir, u)
    b = de.run(small_reservoir, v)
    assert np.array_equal(a[:20], b[:20])
    assert not np.array_equal(a[20], b[20])


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(-3.0, 3.0, allow_nan=False), seed=st.integers(0, 2 ** 16))
def test_linear_homogeneity(scale, seed):
    p = de.HyperParams(2, 4, leak_rate=0.7, spectral_radius_target=0.9, seed=17)
    r = de.init_reservoir(p)
    u = np.random.default_rng(seed).uniform(-1, 1, 25)
    base = de.run(r, u)
    scaled = de.run(r, scale * u)
    np.testing.assert_allclose(scaled, scale * base,
                               rtol=1e-12, atol=1e-12 * max(1.0, abs(scale)))


def test_linear_superposition(rng):
    p = de.HyperParams(3, 5, leak_rate=0.8, spectral_radius_target=0.9, seed=23)
    r = de.init_reservoir(p)
    u = rng.uniform(-1, 1, 40)
    v = rng.uniform(-1, 1, 40)
    left = de.run(r, u + v)
    right = de.run(r, u) + de.run(r, v)
    np.testing.assert_allclose(left, right, atol=1e-10)
