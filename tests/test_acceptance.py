"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. The grid searches reproduce the full benchmark protocol and take
some minutes each on a single core; they are computed once per session and
shared across criteria.
"""

import math

import numpy as np
import pytest

import deepesn as de
from deepesn.cli import main

from conftest import gelfand_radius

BASE_SEED = 42
LITERATURE_BEST_MSO5 = 4.16e-10   # strongest published baseline on MSO5


def _report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _grid(task_n, layers, units):
    spec = de.GridSpec(num_layers=layers, units_per_layer=units,
                       guesses=10, base_seed=BASE_SEED)
    result = de.grid_search(de.MsoTask(task_n), spec)
    assert result.failures == 0
    return result


@pytest.fixture(scope="session")
def mso5_deep():
    return _grid(5, 10, 100)


@pytest.fixture(scope="session")
def mso5_shallow():
    return _grid(5, 1, 1000)


@pytest.fixture(scope="session")
def mso8_deep():
    return _grid(8, 10, 100)


@pytest.fixture(scope="session")
def mso8_shallow():
    return _grid(8, 1, 1000)


@pytest.fixture(scope="session")
def mso5_small():
    return _grid(5, 10, 10)


@pytest.fixture(scope="session")
def spectral_run():
    params = de.HyperParams(10, 100, input_scale=1.0, leak_rate=0.9,
                            spectral_radius_target=0.7, seed=BASE_SEED)
    u = de.generate_mso(de.MsoTask(12))
    report = de.layer_spectra(params, u, guesses=20, washout=100)
    return de.spike_metrics(report, de.CANONICAL_PHIS)


def test_criterion_1_flat_equivalence():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        layers = int(rng.choice([1, 2, 3, 5]))
        units = int(rng.choice([1, 3, 5, 10]))
        leak = float(rng.choice([0.3, 0.7, 1.0]))
        rho = float(rng.choice([0.5, 0.9]))
        params = de.HyperParams(layers, units, input_scale=1.0, leak_rate=leak,
                                spectral_radius_target=rho,
                                seed=int(rng.integers(0, 2 ** 32)))
        inputs = rng.uniform(-1.0, 1.0, 200)
        report = de.verify_equivalence(de.init_reservoir(params), inputs,
                                       rel_tol=1e-8)
        worst = max(worst, report.max_abs_diff)
        if not report.passed:
            break
    _report(1, "flat equivalence", worst <= 1e-8,
            f"(50 configs, 200 steps, max |layered - flat| = {worst:.3e})")


def test_criterion_2_spectral_radius_postcondition():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(100):
        layers = int(rng.integers(1, 4))
        units = int(rng.choice([1, 2, 5, 10, 20]))
        leak = float(rng.uniform(0.1, 1.0))
        rho = float(rng.uniform(0.1, 1.2))
        params = de.HyperParams(layers, units, leak_rate=leak,
                                spectral_radius_target=rho,
                                seed=int(rng.integers(0, 2 ** 32)))
        reservoir = de.init_reservoir(params)
        for w in reservoir.recurrent_weights:
            measured = de.spectral_radius(de.effective_matrix(w, leak))
            worst = max(worst, abs(measured - rho) / rho)
    # cross-check a handful against the eigenvalue-free oracle
    params = de.HyperParams(3, 15, leak_rate=0.8, spectral_radius_target=0.9,
                            seed=99)
    for w in de.init_reservoir(params).recurrent_weights:
        oracle = gelfand_radius(de.effective_matrix(w, 0.8))
        worst = max(worst, abs(oracle - 0.9) / 0.9)
    _report(2, "spectral radius post-condition", worst <= 1e-10,
            f"(100 inits, worst relative error = {worst:.3e})")


def test_criterion_3_mso5_headline(mso5_deep):
    nrmse = mso5_deep.selected_test_nrmse
    sel = mso5_deep.selected
    ok = nrmse <= 1e-8 and nrmse <= LITERATURE_BEST_MSO5 * 1e-3
    _report(3, "MSO5 headline", ok,
            f"(selected test NRMSE = {nrmse:.3e} at scale={sel.input_scale} "
            f"a={sel.leak_rate} rho={sel.spectral_radius} lam={sel.ridge_lambda:.0e}; "
            f"thresholds 1e-8 and {LITERATURE_BEST_MSO5 * 1e-3:.2e})")


def test_criterion_4_deep_beats_shallow(mso5_deep, mso5_shallow, mso8_deep,
                                        mso8_shallow):
    d5, s5 = mso5_deep.selected_test_nrmse, mso5_shallow.selected_test_nrmse
    d8, s8 = mso8_deep.selected_test_nrmse, mso8_shallow.selected_test_nrmse
    ok = d5 < s5 and d8 < s8 and d5 * 100.0 <= s5
    _report(4, "deep beats shallow at matched budget", ok,
            f"(MSO5 deep {d5:.3e} vs shallow {s5:.3e}, ratio {s5 / d5:.1f}x; "
            f"MSO8 deep {d8:.3e} vs shallow {s8:.3e})")


def test_criterion_5_reduced_budget(mso5_small):
    nrmse = mso5_small.selected_test_nrmse
    _report(5, "100-unit reduced budget", nrmse <= 1e-7,
            f"(selected test NRMSE = {nrmse:.3e}, threshold 1e-7)")


def test_criterion_6_spectral_reproduction(spectral_run):
    metrics = spectral_run
    all_detected = bool(np.all(metrics.detected))
    r = metrics.filtering_ratio
    fig_layers = r[0] > r[3] > r[6] > r[9]
    monotone = bool(np.all(np.diff(r) <= 0.0))
    ok = all_detected and fig_layers and monotone
    _report(6, "layer-wise spectra", ok,
            f"(12 spikes detected on all 10 layers: {all_detected}; "
            f"ratios layer 1/4/7/10 = {r[0]:.3f}/{r[3]:.3f}/{r[6]:.3f}/{r[9]:.3f}; "
            f"monotone non-increasing: {monotone})")


def test_criterion_7_nrmse_oracles():
    y = np.array([0.4, -1.1, 2.2, 0.7, 0.0, 1.3])
    perfect = de.nrmse(y, y)
    mean_pred = de.nrmse(np.full_like(y, np.mean(y)), y)
    hand = de.nrmse([0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0])
    ok = perfect == 0.0 and mean_pred == 1.0 and abs(hand - math.sqrt(2)) <= 1e-12
    _report(7, "NRMSE oracle suite", ok,
            f"(perfect={perfect}, mean={mean_pred}, sqrt2 err={abs(hand - math.sqrt(2)):.2e})")


def test_criterion_8_ridge_oracles():
    rng = np.random.default_rng(88)
    x = rng.uniform(-1, 1, (9, 9)) + 3.0 * np.eye(9)
    g = rng.uniform(-2, 2, (1, 9))
    recovery = np.max(np.abs(de.fit_ridge(x, x @ g.T, 0.0).weights - g))

    states = rng.standard_normal((50, 14))
    targets = rng.standard_normal((50, 2))
    worst_residual = 0.0
    norms = []
    for lam in de.DEFAULT_LAMBDAS:
        fit = de.fit_ridge(states, targets, lam)
        lhs = fit.weights @ (states.T @ states + lam * np.eye(14))
        rhs = targets.T @ states
        worst_residual = max(worst_residual,
                             np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
        norms.append(np.linalg.norm(fit.weights))
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(norms[:-1], norms[1:]))
    ok = recovery <= 1e-10 and worst_residual <= 1e-8 and monotone
    _report(8, "ridge oracle suite", ok,
            f"(recovery err={recovery:.2e}, residual={worst_residual:.2e}, "
            f"norm monotone={monotone})")


def test_criterion_9_linearity_properties():
    params = de.HyperParams(3, 20, leak_rate=0.9, spectral_radius_target=0.9,
                            seed=911)
    reservoir = de.init_reservoir(params)
    rng = np.random.default_rng(912)
    u = rng.uniform(-1, 1, 300)
    v = rng.uniform(-1, 1, 300)
    def concatenated(inputs):
        return de.run(reservoir, inputs).reshape(len(inputs), -1)

    base = concatenated(u)
    homogeneity = np.max(np.abs(concatenated(2.5 * u) - 2.5 * base))
    superposition = np.max(np.abs(concatenated(u + v) - base - concatenated(v)))

    # no harmonic distortion: single in-bin sine leaves <1% energy out of band
    t = np.arange(1, 1537)
    k, window = 24, 512
    washed = concatenated(np.sin(2 * np.pi * k * t / window))[-window:]
    worst_fraction = 0.0
    for unit in range(washed.shape[1]):
        mags = de.magnitude_spectrum(washed[:, unit])
        sq = mags ** 2
        total = sq[0] + 2 * sq[1:].sum()
        in_band = 2 * sq[k - 2:k + 3].sum()
        worst_fraction = max(worst_fraction, (total - in_band) / total)
    ok = homogeneity <= 1e-10 and superposition <= 1e-10 and worst_fraction < 0.01
    _report(9, "linearity properties", ok,
            f"(homogeneity={homogeneity:.2e}, superposition={superposition:.2e}, "
            f"out-of-band={worst_fraction:.2%})")


def test_criterion_10_determinism(tmp_path):
    grid = de.GridSpec(num_layers=2, units_per_layer=5, input_scales=(1.0,),
                       leak_rates=(0.9, 1.0), spectral_radii=(0.7,),
                       ridge_lambdas=(1e-8, 1e-4), guesses=3, base_seed=7)
    first = de.grid_search(de.MsoTask(5), grid)
    second = de.grid_search(de.MsoTask(5), grid)
    records_equal = first.records == second.records

    args = ["run", "--task", "mso5", "--single", "--scale-in", "1",
            "--leak", "0.9", "--rho", "0.7", "--layers", "2", "--units", "5",
            "--guesses", "2", "--seed", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    bytes_equal = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("results.csv", "summary.txt"))
    ok = records_equal and bytes_equal
    _report(10, "determinism", ok,
            f"(grid records identical: {records_equal}, "
            f"CLI artifacts byte-identical: {bytes_equal})")
