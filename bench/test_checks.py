"""Each correctness check of the benchmark passes on a right answer and fails on a wrong one.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import deepesn as de  # noqa: E402

PHIS = de.CANONICAL_PHIS
WINDOW = 900
LAYERS = 4


@pytest.fixture(scope="module")
def small_grid():
    """A 3x20 grid over one (leak, rho) pair and the oracle configuration."""
    spec = de.GridSpec(3, 20, leak_rates=(0.9,), spectral_radii=(0.7,),
                       guesses=2, base_seed=7)
    result = de.grid_search(de.MsoTask(5), spec)
    record = next(r for r in result.records
                  if (r.input_scale, r.ridge_lambda) == (0.1, 1.0))
    return result, record


def _oracle(scale, leak=0.9, guess=1):
    res = de.init_reservoir(de.HyperParams(3, 20, 1, scale, leak, 0.7, "linear", 7 + guess))
    u = checks.mso_signal(de.CANONICAL_PHIS[:5], 1001)
    return checks.ridge_oracle(checks.layered_states(res, u[:-1]), u[1:], 1.0)


def test_oracle_agrees_with_package(small_grid):
    _, record = small_grid
    assert checks.check_oracle(record, *_oracle(0.1), guess=1) == []


def test_oracle_rejects_wrong_nrmse(small_grid):
    _, record = small_grid
    val, test = _oracle(0.1)
    wrong = dataclasses.replace(
        record, per_guess_test=(record.per_guess_test[0], record.per_guess_test[1] * (1 + 1e-8)))
    assert checks.check_oracle(wrong, val, test, guess=1)


@pytest.mark.parametrize("scale, leak", [(1.0, 0.9), (0.1, 0.7)])
def test_oracle_rejects_other_configuration(small_grid, scale, leak):
    """States shared from the unit scale without per-layer rescaling, or
    built at another leak rate, give other NRMSEs."""
    _, record = small_grid
    assert checks.check_oracle(record, *_oracle(scale, leak), guess=1)


def test_grid_records_pass(small_grid):
    result, _ = small_grid
    assert checks.check_grid_records(result.records, result.selected, 1e-2) == []


@pytest.mark.parametrize("change", [
    {"error": "RuntimeError: boom"},
    {"mean_test_nrmse": math.nan},
    {"per_guess_val": (0.0, 0.1)},
    {"per_guess_test": (math.inf, 0.1)},
])
def test_grid_records_reject_bad_record(small_grid, change):
    result, _ = small_grid
    records = list(result.records)
    records[3] = dataclasses.replace(records[3], **change)
    assert checks.check_grid_records(records)


def test_grid_records_reject_selection_above_bound(small_grid):
    result, _ = small_grid
    assert checks.check_grid_records(result.records, result.selected, 1e-30)
    assert checks.check_grid_records(result.records, None, 1.0)


def _spectrum_rows(curves, freq=None):
    """spectra.csv and spikes.csv rows for the given per-layer curves."""
    freq = np.fft.rfftfreq(WINDOW) if freq is None else freq
    spectra = [["layer", "frequency", "magnitude"]]
    for layer, curve in enumerate(curves, start=1):
        spectra += [[str(layer), repr(float(f)), repr(float(m))] for f, m in zip(freq, curve)]
    centres = [round(p / (2 * math.pi) * WINDOW) for p in PHIS]
    heights = np.array([[checks.spike_heights(c, k)[0] for k in centres] for c in curves])
    ratio = heights[:, -4:].mean(axis=1) / heights[:, :4].mean(axis=1)
    spikes = [["layer", "filtering_ratio"] + [f"spike_phi{k + 1}" for k in range(len(PHIS))]]
    spikes += [[str(i + 1), repr(float(ratio[i]))] + [repr(float(h)) for h in heights[i]]
               for i in range(len(curves))]
    return spectra, spikes


def _curves():
    """Low-pass spectra: spikes that fall off faster with depth at high frequency."""
    bins = WINDOW // 2 + 1
    curves = np.full((LAYERS, bins), 0.01)
    for layer in range(LAYERS):
        for j, phi in enumerate(PHIS):
            curves[layer, round(phi / (2 * math.pi) * WINDOW)] = 1.0 / (1 + layer * j)
    return curves / curves.max(axis=1, keepdims=True)


def _check(spectra, spikes):
    """The per-call checks, then the depth check on this call's magnitudes."""
    problems = checks.check_spectrum(spectra, spikes, PHIS, WINDOW, LAYERS)
    magnitudes = checks.spike_table(spikes)[:, 1:]
    return problems + checks.check_filtering_depth(magnitudes, PHIS)


def test_spectrum_passes():
    assert _check(*_spectrum_rows(_curves())) == []


def test_spectrum_rejects_wrong_frequencies():
    assert _check(*_spectrum_rows(_curves(), np.arange(WINDOW // 2 + 1) / (WINDOW + 1)))


def test_spectrum_rejects_curve_not_peaking_at_one():
    curves = _curves()
    curves[2] *= 0.999
    assert _check(*_spectrum_rows(curves))


def test_spectrum_rejects_missing_spike():
    curves = _curves()
    centre = round(PHIS[6] / (2 * math.pi) * WINDOW)
    curves[1, centre] = 0.01
    assert _check(*_spectrum_rows(curves))


def test_spectrum_rejects_ratio_rising_with_depth():
    curves = _curves()[::-1].copy()
    assert _check(*_spectrum_rows(curves))


def test_spectrum_rejects_rise_between_neighbouring_layers():
    curves = _curves()
    curves[[2, 3]] = curves[[3, 2]]
    assert _check(*_spectrum_rows(curves))


def test_depth_check_on_mean_over_calls():
    """One call with two layers out of order passes once averaged with good ones."""
    low_pass = checks.spike_table(_spectrum_rows(_curves())[1])[:, 1:]
    swapped = low_pass[[0, 2, 1, 3]]
    assert checks.check_filtering_depth(swapped, PHIS)
    assert checks.check_filtering_depth((swapped + 2 * low_pass) / 3, PHIS) == []
    assert checks.check_filtering_depth((3 * swapped + low_pass) / 4, PHIS)


def test_spectrum_rejects_spike_table_mismatch():
    spectra, spikes = _spectrum_rows(_curves())
    spikes[2][5] = repr(float(spikes[2][5]) * 1.5)
    assert _check(spectra, spikes)
    spectra, spikes = _spectrum_rows(_curves())
    spikes[3][1] = repr(float(spikes[3][1]) * 1.01)
    assert _check(spectra, spikes)
