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

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import _native
from .reservoir import (HyperParams, _as_input_matrix, _guess_bytes, _guess_layers, _is_int,
                        _readonly, _require_finite)

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


def _guess_curves(params: HyperParams, u: np.ndarray, washout: int) -> tuple[np.ndarray, int]:
    """Per-layer ``(curves, zero_units)`` of the guess ``params`` builds, driven by ``u``.

    ``curves[i]`` is layer i+1's mean over units of each unit's magnitude
    spectrum after the washout, normalized to max 1; identically-zero unit
    series skip normalization and are counted in ``zero_units``. The guess
    is solved a layer at a time (``_guess_layers``), and each layer is
    transformed and dropped before the next is solved. A layer with a
    non-finite state or spectrum fails the guess with a ``RuntimeError``;
    numpy's overflow and invalid-value warnings are off, here on the pool
    thread (numpy 2 keeps that setting per thread), as that error reports it.
    """
    curves, zero_units = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for states in _guess_layers(params, u):
            _require_finite(states, params)
            mags = np.abs(np.fft.rfft(states[washout:], axis=0))  # (bins, units)
            _require_finite(mags, params, "state spectra")  # finite states near 1e306 overflow
            peaks = mags.max(axis=0, keepdims=True)
            zero_units += int(np.count_nonzero(peaks == 0.0))
            normalized = np.divide(mags, peaks, out=np.zeros_like(mags), where=peaks > 0)
            curves.append(normalized.mean(axis=1))
    return np.array(curves), zero_units


def layer_spectra(params: HyperParams, inputs, guesses: int, washout: int) -> SpectrumReport:
    """Averaged per-layer spectra of ``guesses`` reservoirs driven by ``inputs``.

    Guess g is ``params`` at seed ``params.seed + g``; ``inputs`` is ``(steps,
    input_dim)``, or a 1-D sequence for one input. For every guess, layer and
    unit: drop the washout steps, take the magnitude spectrum of the unit's
    series, normalize it to max 1, then average over units and guesses;
    identically-zero unit series skip normalization and are tallied in
    ``zero_units``.

    The washout, the seeds and the memory rule (``_guess_bytes`` of two
    layers within half the physical memory) are checked before anything is
    simulated. The guesses run on ``_native.guess_map``: each thread builds,
    solves and transforms a guess one layer at a time (``_guess_layers``) and
    keeps only its curves, which are added in guess order, so the report is
    the same for any thread count. A guess whose states or spectra are not
    finite raises ``RuntimeError``: its curves would say nothing.
    """
    u = _as_input_matrix(inputs, params.input_dim)
    steps = u.shape[0]
    if not (_is_int(washout) and 0 <= washout <= steps - 2):
        raise ValueError(f"spectral analysis needs 0 <= washout <= steps - 2 (at least "
                         f"2 analysis steps), got washout={washout} over {steps} steps")
    if not (_is_int(guesses) and 1 <= guesses <= 2 ** 64 - params.seed):
        raise ValueError(f"guesses must be an integer in [1, 2**64 - seed] so that every "
                         f"guess has a seed, got {guesses!r} from seed {params.seed}")
    # two layers' states and the scan's matrices, or one layer's states and spectra
    _native.require_half_memory(
        f"one {params.num_layers}x{params.units_per_layer} spectrum guess",
        _guess_bytes(2, params.units_per_layer, steps))

    total, zero_units = 0.0, 0
    with _native.guess_map(guesses) as map_guesses:
        for guess_curves, zeros in map_guesses(
                lambda seed: _guess_curves(replace(params, seed=seed), u, washout),
                range(params.seed, params.seed + guesses)):
            total += guess_curves
            zero_units += zeros
    per_layer = total / guesses
    layer_peaks = per_layer.max(axis=1, keepdims=True)
    per_layer = np.divide(per_layer, layer_peaks, out=np.zeros_like(per_layer),
                          where=layer_peaks > 0)
    return SpectrumReport(
        freq_bins=_readonly(np.fft.rfftfreq(steps - washout)),
        per_layer=_readonly(per_layer),
        window=steps - washout, washout=washout, guesses=guesses,
        num_layers=params.num_layers, units_per_layer=params.units_per_layer,
        zero_units=zero_units,
    )


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
    if not np.isfinite(freqs).all():
        raise ValueError("phis must be finite")
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
