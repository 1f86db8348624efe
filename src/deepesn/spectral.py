"""Layer-wise frequency analysis of reservoir state trajectories.

Each recurrent unit's post-washout state series is transformed with an
unwindowed real FFT; the magnitude spectrum is max-normalized per unit so
every unit contributes equally regardless of state amplitude (deeper layers
run at very different scales), then averaged over units within a layer and
over reservoir guesses. Averaged layer curves are rescaled to peak at 1 for
comparability; the spike metrics below are ratios within a layer, so this
final rescale does not affect them.

Frequencies are in cycles per step (0 to 0.5); a sine of angular frequency
``phi`` radians per step lands at ``phi / (2 pi)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .reservoir import HyperParams, _readonly

#: Half-width (in bins) of the window searched around an expected spike bin;
#: covers rectangular-window leakage of near-bin sinusoids.
SPIKE_SEARCH_BINS = 2

#: Bin distances used as the local-background reference for spike detection.
_BACKGROUND_BINS = (3, 8)

#: A spike counts as detected when it exceeds this multiple of the background.
_DETECTION_FACTOR = 2.0


@dataclass(frozen=True)
class SpectrumReport:
    """Per-layer averaged magnitude spectra of reservoir states.

    ``per_layer[i]`` is the layer-(i+1) curve over ``freq_bins``;
    normalization is per-unit max before averaging, then a per-layer max
    rescale to 1. ``zero_units`` counts unit series that were identically
    zero after the washout and therefore contributed zeros without
    normalization.
    """

    freq_bins: np.ndarray
    per_layer: np.ndarray
    window: int
    washout: int
    guesses: int
    num_layers: int
    units_per_layer: int
    zero_units: int
    params: Optional[HyperParams] = None


@dataclass(frozen=True)
class SpikeMetrics:
    """Spike magnitudes and filtering ratios extracted from a report.

    The filtering ratio of a layer is the mean of its highest-frequency
    spike magnitudes divided by the mean of its lowest-frequency ones;
    progressive low-pass filtering drives it down with depth.
    """

    expected_bins: tuple[int, ...]
    magnitudes: np.ndarray        # (num_layers, num_spikes)
    filtering_ratio: np.ndarray   # (num_layers,)
    detected: np.ndarray          # (num_layers, num_spikes) bool


def magnitude_spectrum(signal) -> np.ndarray:
    """Magnitudes of the DFT of a real signal at nonnegative frequencies.

    No window function is applied. Length of the result is
    ``floor(len(signal) / 2) + 1``.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("signal must be one-dimensional with at least two samples")
    if not np.isfinite(x).all():
        raise ValueError("signal must be finite")
    return np.abs(np.fft.rfft(x))


def _guess_curves(layers: Iterable[np.ndarray],
                  washout: int) -> tuple[tuple[int, ...], np.ndarray, int]:
    """One guess's ``(shape, curves, zero_units)`` for ``_report``.

    ``layers`` gives each layer's ``(steps, units)`` states, layer 1 first.
    ``curves[i]`` is layer i+1's mean over units of each unit's magnitude
    spectrum after the washout, normalized to max 1; identically-zero unit
    series skip normalization and are counted in ``zero_units``. ``shape``
    is ``(steps, layers, units)``. Each layer is read once and dropped, so a
    generator of layers keeps one layer's states and spectra alive here.
    """
    if washout < 0:
        raise ValueError("washout must be nonnegative")
    curves, shape, zero_units = [], None, 0
    for states in layers:
        if shape is None:
            shape = states.shape
            if shape[0] - washout < 2:
                raise ValueError("analysis window must span at least 2 steps, "
                                 f"got {shape[0] - washout}")
        mags = np.abs(np.fft.rfft(states[washout:], axis=0))  # (bins, units)
        peaks = mags.max(axis=0, keepdims=True)
        zero_units += int(np.count_nonzero(peaks == 0.0))
        normalized = np.divide(mags, peaks, out=np.zeros_like(mags), where=peaks > 0)
        curves.append(normalized.mean(axis=1))
    if shape is None:
        raise ValueError("a guess needs at least one layer")
    return (shape[0], len(curves), shape[1]), np.array(curves), zero_units


def _report(per_guess: Iterable[tuple[tuple[int, ...], np.ndarray, int]], washout: int,
            params: Optional[HyperParams] = None) -> SpectrumReport:
    """The report averaging ``_guess_curves`` results, added in the order given."""
    shape = None
    guesses = zero_units = 0
    for guess_shape, curves, zeros in per_guess:
        if shape is None:
            shape, total = guess_shape, np.zeros_like(curves)
        elif guess_shape != shape:
            raise ValueError("all trajectories must share dimensions")
        guesses += 1
        total += curves
        zero_units += zeros
    if shape is None:
        raise ValueError("need at least one trajectory")
    curves = total / guesses
    layer_peaks = curves.max(axis=1, keepdims=True)
    curves = np.divide(curves, layer_peaks, out=np.zeros_like(curves),
                       where=layer_peaks > 0)
    steps, n_layers, n_units = shape
    return SpectrumReport(
        freq_bins=_readonly(np.fft.rfftfreq(steps - washout)),
        per_layer=_readonly(curves),
        window=steps - washout, washout=washout, guesses=guesses,
        num_layers=n_layers, units_per_layer=n_units,
        zero_units=zero_units, params=params,
    )


def layer_spectra(trajectories: Iterable[np.ndarray], washout: int,
                  params: Optional[HyperParams] = None) -> SpectrumReport:
    """Averaged per-layer spectra over a set of reservoir guesses.

    Each trajectory is one guess's ``(steps, layers, units)`` states, as
    ``run`` returns them. For every guess, layer, and unit: drop the washout
    steps, take the magnitude spectrum of the unit's series, normalize it to
    max 1, then average over units and guesses. Identically-zero unit series
    skip normalization and are tallied in the report diagnostics. The
    trajectories are read once, in order, so a generator keeps only one
    guess's states alive at a time.
    """
    # map keeps no reference to a trajectory once its curves are made
    return _report(map(lambda states: _guess_curves(np.moveaxis(states, 1, 0), washout),
                       trajectories), washout, params)


def spike_metrics(report: SpectrumReport, phis: Sequence[float]) -> SpikeMetrics:
    """Spike magnitudes at the expected sine frequencies, per layer.

    A spike's magnitude is the curve maximum within ``SPIKE_SEARCH_BINS``
    of the bin nearest ``phi / (2 pi)``. The filtering ratio compares the
    four highest-frequency spikes against the four lowest (fewer when under
    eight frequencies are given). Detection compares each spike against the
    median curve level a few bins away from its window.
    """
    freqs = np.asarray([float(p) / (2.0 * np.pi) for p in phis])
    if freqs.size == 0:
        raise ValueError("phis must be nonempty")
    if freqs.min() < 0 or freqs.max() > report.freq_bins[-1]:
        raise ValueError("all frequencies must lie within the report's bin range")
    order = np.argsort(freqs)
    bins = report.freq_bins
    expected = tuple(int(np.argmin(np.abs(bins - f))) for f in freqs)

    n_layers = report.per_layer.shape[0]
    n_spikes = freqs.size
    magnitudes = np.empty((n_layers, n_spikes))
    detected = np.empty((n_layers, n_spikes), dtype=bool)
    for layer in range(n_layers):
        curve = report.per_layer[layer]
        for k, center in enumerate(expected):
            lo = max(0, center - SPIKE_SEARCH_BINS)
            hi = min(len(curve), center + SPIKE_SEARCH_BINS + 1)
            magnitudes[layer, k] = curve[lo:hi].max()
            near, far = _BACKGROUND_BINS
            side_bins = [center + d for d in range(near, far + 1)]
            side_bins += [center - d for d in range(near, far + 1)]
            side = [curve[b] for b in side_bins if 0 <= b < len(curve)]
            background = float(np.median(side)) if side else 0.0
            detected[layer, k] = magnitudes[layer, k] > _DETECTION_FACTOR * background

    group = 4 if n_spikes >= 8 else max(1, n_spikes // 2)
    low_idx = order[:group]
    high_idx = order[-group:]
    ratio = magnitudes[:, high_idx].mean(axis=1) / magnitudes[:, low_idx].mean(axis=1)
    return SpikeMetrics(
        expected_bins=expected,
        magnitudes=_readonly(magnitudes),
        filtering_ratio=_readonly(ratio),
        detected=_readonly(detected),
    )
