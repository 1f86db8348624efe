import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import deepesn as de
from deepesn import _native, spectral
from deepesn.spectral import SpectrumReport


def two_sided_energy(one_sided, n):
    """Total |X_k|^2 over the full DFT, reconstructed from rfft magnitudes."""
    sq = one_sided ** 2
    total = sq[0] + 2.0 * sq[1:].sum()
    if n % 2 == 0:
        total -= sq[-1]  # Nyquist bin appears once
    return total


# --------------------------------------------------------- magnitude_spectrum

def test_constant_signal_energy_in_dc():
    mags = de.magnitude_spectrum(np.full(64, 2.5))
    assert mags[0] == pytest.approx(64 * 2.5, rel=1e-12)
    assert np.all(mags[1:] <= 1e-10 * mags[0])


def test_exact_bin_sine_single_spike():
    t = np.arange(100)
    mags = de.magnitude_spectrum(np.sin(2 * np.pi * 5 * t / 100))
    assert np.argmax(mags) == 5
    others = np.delete(mags, 5)
    assert np.all(others <= 1e-10 * mags[5])


def test_offbin_sine_dominant_bin():
    # sin(0.2 t) over 900 samples: the peak lands at the bin nearest
    # 0.2 / (2 pi) ~ 0.03183 cycles/step, with leakage into the neighbors
    t = np.arange(1, 901)
    mags = de.magnitude_spectrum(np.sin(0.2 * t))
    freqs = np.fft.rfftfreq(900)
    expected_bin = int(np.argmin(np.abs(freqs - 0.2 / (2 * np.pi))))
    assert expected_bin == 29
    assert np.argmax(mags) == expected_bin


def test_spectrum_length():
    assert de.magnitude_spectrum(np.ones(11)).shape == (6,)
    assert de.magnitude_spectrum(np.ones(10)).shape == (6,)


def test_parseval(rng):
    for n in (64, 65):
        x = rng.standard_normal(n)
        mags = de.magnitude_spectrum(x)
        assert two_sided_energy(mags, n) == pytest.approx(
            n * np.sum(x ** 2), rel=1e-8)


def test_magnitude_spectrum_errors():
    with pytest.raises(ValueError):
        de.magnitude_spectrum(np.ones(1))
    with pytest.raises(ValueError):
        de.magnitude_spectrum(np.ones((4, 2)))
    with pytest.raises(ValueError):
        de.magnitude_spectrum(np.array([1.0, np.inf]))


# ---------------------------------------------------------------- layer_spectra

def refuse(*args, **kwargs):
    raise AssertionError("nothing may be simulated")


def test_layer_spectra_peak_tracks_input_frequency():
    p = de.HyperParams(1, 20, leak_rate=0.9, spectral_radius_target=0.7, seed=33)
    t = np.arange(1, 1025)
    signal = np.sin(2 * np.pi * 32 * t / 512)  # exact bin after washout window
    report = de.layer_spectra(p, signal, guesses=1, washout=512)
    assert report.window == 512
    assert report.per_layer.shape == (1, 257)
    assert np.argmax(report.per_layer[0]) == 32
    assert report.per_layer[0].max() == 1.0


def test_layer_spectra_normalization_and_echo():
    p = de.HyperParams(3, 4, leak_rate=0.9, spectral_radius_target=0.7, seed=2)
    u = de.generate_mso(de.MsoTask(5, length=400, split=de.SplitSpec(
        (1, 160), 40, (161, 280), (281, 400))))
    report = de.layer_spectra(p, u, guesses=2, washout=100)
    assert report.guesses == 2
    assert report.washout == 100
    assert report.window == 300
    assert report.num_layers == 3
    assert report.units_per_layer == 4
    np.testing.assert_allclose(report.per_layer.max(axis=1), 1.0, rtol=0)
    assert report.zero_units == 0


def test_layer_spectra_zero_unit_diagnostics(monkeypatch):
    states = np.zeros((40, 2, 3))
    states[:, 0, :] = np.sin(0.5 * np.arange(40))[:, None]
    # layer 2 stays identically zero: its units skip normalization
    monkeypatch.setattr(spectral, "_guess_layers",
                        lambda params, u: iter(np.moveaxis(states, 1, 0)))
    report = de.layer_spectra(de.HyperParams(2, 3), np.ones(40), guesses=1, washout=4)
    assert report.zero_units == 3
    assert np.all(report.per_layer[1] == 0.0)
    assert np.isfinite(report.per_layer).all()


def test_layer_spectra_holds_one_guess_at_a_time(monkeypatch):
    # a guess is dropped once its curves are made, before the next one is
    # built, and a layer is solved and transformed at a time: on one thread
    # five guesses peak where one does, under one guess's whole states
    monkeypatch.setattr(_native, "_usable_cores", lambda: 1)
    steps, layers, units = 1000, 4, 50
    states_bytes = steps * layers * units * 8
    p = de.HyperParams(layers, units, leak_rate=0.9, spectral_radius_target=0.7)
    u = de.generate_mso(de.MsoTask(5))

    def peak(guesses):
        tracemalloc.start()
        try:
            de.layer_spectra(p, u, guesses, washout=100)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5)  # warm the caches and imports
    assert peak(5) < peak(1) + states_bytes / 8
    assert peak(1) < states_bytes  # 0.83 of it: two layers' states and one layer's transform


def test_layer_spectra_errors(monkeypatch):
    # every check runs before a guess is simulated
    monkeypatch.setattr(spectral, "_guess_layers", refuse)
    p, u = de.HyperParams(1, 2), np.ones(10)
    with pytest.raises(ValueError):
        de.layer_spectra(p, u, guesses=0, washout=0)
    with pytest.raises(ValueError):
        de.layer_spectra(p, u, guesses=1, washout=9)  # one analysis step
    with pytest.raises(ValueError):
        de.layer_spectra(p, u, guesses=1, washout=-1)
    with pytest.raises(ValueError, match="seed"):  # guess 1 has no seed
        de.layer_spectra(dataclasses.replace(p, seed=2 ** 64 - 1), u, guesses=2, washout=0)
    with pytest.raises(ValueError):
        de.layer_spectra(p, np.ones((10, 2)), guesses=1, washout=0)  # input_dim is 1
    monkeypatch.setattr(_native, "_physical_memory", lambda: 1000)
    with pytest.raises(ValueError, match="spectrum guess"):
        de.layer_spectra(p, u, guesses=1, washout=0)


@pytest.mark.parametrize("params, error", [
    (de.HyperParams(3, 20, leak_rate=0.9, spectral_radius_target=50.0, seed=4),
     "non-finite reservoir states for input_scale=1.0 leak_rate=0.9 spectral_radius=50.0 "
     "seed=4"),
    # finite states whose sums over 900 steps overflow
    (de.HyperParams(1, 3, input_scale=1e306, leak_rate=0.9, spectral_radius_target=0.7),
     r"non-finite state spectra for input_scale=1e\+306 leak_rate=0.9"),
])
def test_layer_spectra_refuses_non_finite_states(params, error):
    # a diverged unit series would read as a zero spectrum; the guess fails
    # instead, and its error, not numpy's warnings, reports it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=error):
            de.layer_spectra(params, de.generate_mso(de.MsoTask(5)), guesses=2, washout=100)


def test_no_harmonic_distortion_linear_reservoir():
    # linear dynamics cannot move energy across frequencies: for a pure
    # in-bin sine drive, out-of-band energy stays under 1% per unit
    p = de.HyperParams(2, 10, leak_rate=0.9, spectral_radius_target=0.9, seed=14)
    r = de.init_reservoir(p)
    t = np.arange(1, 1537)
    k, window = 24, 512
    signal = np.sin(2 * np.pi * k * t / window)
    washed = de.run(r, signal)[-window:]
    for layer in range(2):
        for unit in range(10):
            mags = de.magnitude_spectrum(washed[:, layer, unit])
            total = two_sided_energy(mags, window)
            band = np.zeros_like(mags)
            band[k - 2:k + 3] = mags[k - 2:k + 3]
            out_of_band = total - two_sided_energy(band, window)
            assert out_of_band < 0.01 * total


# -------------------------------------------------------------- spike_metrics

def _flat_report(n_layers=2, bins=101):
    return SpectrumReport(
        freq_bins=np.linspace(0.0, 0.5, bins),
        per_layer=np.ones((n_layers, bins)),
        window=2 * (bins - 1), washout=0, guesses=1,
        num_layers=n_layers, units_per_layer=1, zero_units=0,
    )


def test_spike_metrics_flat_spectrum():
    metrics = de.spike_metrics(_flat_report(), de.CANONICAL_PHIS)
    assert metrics.magnitudes.shape == (2, 12)
    assert np.all(metrics.magnitudes == 1.0)
    np.testing.assert_allclose(metrics.filtering_ratio, 1.0, rtol=0)


def test_spike_metrics_expected_bins():
    report = _flat_report(bins=451)
    metrics = de.spike_metrics(report, (0.2,))
    # bins spaced 1/900: 0.2/(2 pi) = 0.03183 -> bin 29
    assert metrics.expected_bins == (29,)


def test_spike_metrics_nyquist_guard():
    with pytest.raises(ValueError):
        de.spike_metrics(_flat_report(), (3.2,))  # 3.2/(2 pi) > 0.5
    with pytest.raises(ValueError):
        de.spike_metrics(_flat_report(), ())


def test_spike_metrics_ratio_orders_by_frequency():
    # synthetic curves: layer 0 flat, layer 1 attenuates high frequencies
    bins = 451
    freqs = np.fft.rfftfreq(900)
    curves = np.ones((2, bins)) * 1e-3
    phis = de.CANONICAL_PHIS
    for k, phi in enumerate(phis):
        b = int(np.argmin(np.abs(freqs - phi / (2 * np.pi))))
        curves[0, b] = 1.0
        curves[1, b] = 1.0 - 0.05 * k
    report = SpectrumReport(freq_bins=freqs, per_layer=curves, window=900,
                            washout=100, guesses=1, num_layers=2,
                            units_per_layer=1, zero_units=0)
    metrics = de.spike_metrics(report, phis)
    assert metrics.filtering_ratio[0] == pytest.approx(1.0)
    assert metrics.filtering_ratio[1] < 0.9
    assert bool(np.all(metrics.detected))


def test_spike_detection_on_reservoir_run():
    # moderate-size network, few guesses: all 12 spikes must be found
    p = de.HyperParams(4, 30, leak_rate=0.9, spectral_radius_target=0.7, seed=60)
    u = de.generate_mso(de.MsoTask(12))
    report = de.layer_spectra(p, u, guesses=3, washout=100)
    metrics = de.spike_metrics(report, de.CANONICAL_PHIS)
    assert metrics.magnitudes.shape == (4, 12)
    assert bool(np.all(metrics.detected))
