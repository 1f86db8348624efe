"""Analytic oracle for the layer-wise spectra.

With linear units every layer is a linear time-invariant filter. Driven by
e^(i phi t), layer i settles to H_i(phi) e^(i phi t), with

    H_1(phi) = (I - e^(-i phi) M_1)^(-1) a W_in
    H_i(phi) = (I - e^(-i phi) M_i)^(-1) a W_i H_(i-1)(phi)

where M_i = (1-a) I + a What_i is the layer's effective matrix. The flat
rewrite x(t) = V x(t-1) + V_in u(t) gives the same gains through
(I - e^(-i phi) V)^(-1) V_in, a second route. The gains need no simulation
and no FFT, so they check ``layer_spectra`` and ``spike_metrics`` from
outside.

The FFT filtering ratios lie 1.1-1.6% below the analytic ones over twelve
groups of 20 guesses (seeds 0-239) at 10x100, leak 0.9, radius 0.7. Two
things account for the gap, and neither is a fault: the unwindowed FFT of the
900-step window smears every sine that falls between bins, so a spike is the
top of a leakage lobe rather than the sine's amplitude; and the first steps
after the washout still carry the transient of the zero start. The bound on
the gap is set from that sweep, not tuned away.
"""

import dataclasses

import numpy as np
import pytest

import deepesn as de

PHIS = np.array(de.CANONICAL_PHIS)
EPS = np.finfo(float).eps
#: Largest |FFT ratio / analytic ratio - 1| per layer; the seed sweep above
#: measured at most 0.0155, and this test's seeds (42-61) 0.0159.
SPIKE_RATIO_GAP = 0.02
#: The acceptance suite's spectral point: criterion 6's reservoirs.
ANALYSIS = de.HyperParams(10, 100, 1, 1.0, 0.9, 0.7, "linear", 42)
GUESSES = 20


def layer_gains(res: de.DeepReservoir, phis) -> np.ndarray:
    """Steady-state gains H_i(phi), shape (layers, len(phis), units), layer by layer."""
    p = res.params
    a, eye = p.leak_rate, np.eye(p.units_per_layer)
    gains = np.empty((p.num_layers, len(phis), p.units_per_layer), dtype=complex)
    drive = np.tile(a * res.input_weights[:, 0], (len(phis), 1))
    for i, w_rec in enumerate(res.recurrent_weights):
        if i > 0:
            drive = a * gains[i - 1] @ res.inter_layer_weights[i - 1].T
        m = de.effective_matrix(w_rec, a)
        for k, phi in enumerate(phis):
            gains[i, k] = np.linalg.solve(eye - np.exp(-1j * phi) * m, drive[k])
    return gains


def filtering_ratios(gains: np.ndarray) -> np.ndarray:
    """``spike_metrics``' ratio from gains of shape (guesses, layers, 12, units).

    Each unit's gains are normalized to their maximum and averaged over units
    and guesses; the ratio is the four highest frequencies' mean over the
    four lowest's.
    """
    mags = np.abs(gains)
    curve = (mags / mags.max(axis=2, keepdims=True)).mean(axis=(0, 3))
    order = np.argsort(PHIS)
    return curve[:, order[-4:]].mean(axis=1) / curve[:, order[:4]].mean(axis=1)


@pytest.fixture(scope="module")
def reservoirs():
    return [de.init_reservoir(dataclasses.replace(ANALYSIS, seed=ANALYSIS.seed + g))
            for g in range(GUESSES)]


@pytest.fixture(scope="module")
def analytic_ratios(reservoirs):
    return filtering_ratios(np.stack([layer_gains(r, PHIS) for r in reservoirs]))


def test_gains_give_the_steady_state_of_a_run():
    # sin(phi t) = Im e^(i phi t): once the zero start has decayed, every
    # state is Im(H_i(phi) e^(i phi t))
    res = de.init_reservoir(de.HyperParams(3, 20, 1, 1.0, 0.9, 0.7, "linear", 5))
    phi, t = 0.63, np.arange(1, 601)
    states = de.run(res, np.sin(phi * t))[-50:]
    gains = layer_gains(res, [phi])[:, 0]
    steady = np.imag(gains[None] * np.exp(1j * phi * t[-50:])[:, None, None])
    for layer in range(3):
        gap = np.abs(states[:, layer] - steady[:, layer]).max()
        assert gap <= 1e-12 * np.abs(steady[:, layer]).max()


@pytest.mark.parametrize("layers,units", [(2, 5), (3, 20), (5, 50)])
def test_layered_and_flat_gains_agree_to_rounding(layers, units):
    # the flat solve is backward stable, so the routes differ by at most its
    # condition number times rounding. The flat matrix's lower blocks are
    # products of inter-layer matrices; at 10x100 they reach ~1e6 and the
    # gap ~5e-7, which is why the sizes stay small here.
    res = de.init_reservoir(de.HyperParams(layers, units, 1, 1.0, 0.9, 0.7, "linear", 3))
    layered = layer_gains(res, PHIS)
    flat = de.flatten(res)
    eye = np.eye(layers * units)
    for k, phi in enumerate(PHIS):
        system = eye - np.exp(-1j * phi) * flat.v
        direct = np.linalg.solve(system, flat.v_in[:, 0])
        gap = np.linalg.norm(layered[:, k].reshape(-1) - direct) / np.linalg.norm(direct)
        assert gap <= 4 * EPS * np.linalg.cond(system)


def test_analytic_filtering_ratio_falls_with_depth(analytic_ratios):
    # the paper's claim without simulation: deeper layers pass less of the
    # high frequencies
    assert analytic_ratios[0] > 0.9
    assert np.all(np.diff(analytic_ratios) < 0)
    assert analytic_ratios[-1] < 0.6


def test_spike_metrics_match_the_analytic_ratios(reservoirs, analytic_ratios):
    u = de.generate_mso(de.MsoTask(12))
    report = de.layer_spectra((de.run(r, u) for r in reservoirs), washout=100)
    measured = de.spike_metrics(report, PHIS).filtering_ratio
    assert np.abs(measured / analytic_ratios - 1).max() <= SPIKE_RATIO_GAP
