"""Correctness checks on workload outputs, computed apart from the package.

Every check returns a list of problems; an empty list means it passed.
Nothing here compares against stored output: the grid checks recompute one
guess with a plain step-by-step recurrence and a least-squares ridge solve,
and the spectrum checks test properties the analysis must have.
"""

from __future__ import annotations

import math

import numpy as np

# MSO protocol (paper): steps 1-400 train with a 100-step washout, 401-700
# validate, 701-1000 test; the target at step t is u(t+1).
FIT = slice(100, 400)
VALIDATION = slice(400, 700)
TEST = slice(700, 1000)

#: Agreement required between the package and the oracle at lambda = 1.
ORACLE_RTOL = 1e-9
#: Selected mean test NRMSE bound at 10x100 (paper / acceptance criterion).
DEEP_SELECTED_BOUND = 1e-8
#: Largest relative rise of the filtering ratio from one layer to the next.
ADJACENT_RISE = 0.01


def mso_signal(phis, length: int) -> np.ndarray:
    """u(1..length) of the multiple superimposed oscillator."""
    t = np.arange(1, length + 1, dtype=float)
    return sum(np.sin(phi * t) for phi in phis)


def layered_states(reservoir, u: np.ndarray) -> np.ndarray:
    """States (steps, layers * units) by the layered recurrence, one step at a time."""
    a = reservoir.params.leak_rate
    w_in = reservoir.input_weights
    n_layers = len(reservoir.recurrent_weights)
    x = [np.zeros(w.shape[0]) for w in reservoir.recurrent_weights]
    out = np.empty((len(u), n_layers * w_in.shape[0]))
    for t, u_t in enumerate(u):
        drive = w_in @ np.atleast_1d(u_t)
        for i, w_rec in enumerate(reservoir.recurrent_weights):
            if i > 0:
                drive = reservoir.inter_layer_weights[i - 1] @ x[i - 1]
            x[i] = (1.0 - a) * x[i] + a * (drive + w_rec @ x[i])
        out[t] = np.concatenate(x)
    return out


def _nrmse(pred: np.ndarray, target: np.ndarray) -> float:
    return math.sqrt(float(np.mean((target - pred) ** 2) / np.var(target)))


def ridge_oracle(states: np.ndarray, u_next: np.ndarray, lam: float) -> tuple[float, float]:
    """Validation and test NRMSE of a ridge readout solved by lstsq.

    The ridge problem min ||X w - y||^2 + lam ||w||^2 is solved as ordinary
    least squares on the augmented system [X; sqrt(lam) I] w = [y; 0].
    """
    x = states[FIT]
    a = np.vstack([x, math.sqrt(lam) * np.eye(x.shape[1])])
    b = np.concatenate([u_next[FIT], np.zeros(x.shape[1])])
    w = np.linalg.lstsq(a, b, rcond=None)[0]
    return (_nrmse(states[VALIDATION] @ w, u_next[VALIDATION]),
            _nrmse(states[TEST] @ w, u_next[TEST]))


def check_oracle(record, oracle_val: float, oracle_test: float,
                 guess: int) -> list[str]:
    """The package's per-guess NRMSE of one record against the oracle's."""
    problems = []
    for name, got, want in (("validation", record.per_guess_val[guess], oracle_val),
                            ("test", record.per_guess_test[guess], oracle_test)):
        if not abs(got - want) <= ORACLE_RTOL * abs(want):
            problems.append(f"{name} NRMSE {got!r} differs from oracle {want!r}")
    return problems


def check_grid_records(records, selected=None, selected_bound=None) -> list[str]:
    """No record carries an error; every NRMSE is finite and positive."""
    problems = []
    for rec in records:
        label = f"scale={rec.input_scale} leak={rec.leak_rate} rho={rec.spectral_radius}"
        if rec.error is not None:
            problems.append(f"{label}: error {rec.error}")
            continue
        values = (*rec.per_guess_val, *rec.per_guess_test,
                  rec.mean_val_nrmse, rec.mean_test_nrmse)
        if not all(math.isfinite(v) and v > 0.0 for v in values):
            problems.append(f"{label} lambda={rec.ridge_lambda}: NRMSE not finite and positive")
    if selected_bound is not None:
        if selected is None or not selected.mean_test_nrmse <= selected_bound:
            got = None if selected is None else selected.mean_test_nrmse
            problems.append(f"selected mean test NRMSE {got!r} above {selected_bound}")
    return problems


def read_spectra(rows: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """(frequency, curves) from spectra.csv rows: one curve per layer."""
    body = rows[1:]
    layers = sorted({int(r[0]) for r in body})
    freq = np.array([float(r[1]) for r in body if int(r[0]) == layers[0]])
    curves = np.array([[float(r[2]) for r in body if int(r[0]) == layer]
                       for layer in layers])
    return freq, curves


def spike_heights(curve: np.ndarray, centre: int) -> tuple[float, float]:
    """Curve maximum within 2 bins of ``centre`` and the median 3-8 bins away."""
    peak = float(curve[max(0, centre - 2): centre + 3].max())
    side = [curve[centre + s * d] for d in range(3, 9) for s in (-1, 1)
            if 0 <= centre + s * d < len(curve)]
    return peak, float(np.median(side))


def spike_table(spikes_rows) -> np.ndarray:
    """spikes.csv rows as (layers, 1 + spikes): filtering ratio, then magnitudes."""
    return np.array([[float(v) for v in row[1:]] for row in spikes_rows[1:]])


def filtering_ratio(magnitudes: np.ndarray, phis) -> np.ndarray:
    """Mean of the 4 highest-frequency spikes over the mean of the 4 lowest."""
    order = np.argsort(phis)
    return magnitudes[:, order[-4:]].mean(axis=1) / magnitudes[:, order[:4]].mean(axis=1)


def check_spectrum(spectra_rows, spikes_rows, phis, window: int,
                   layers: int) -> list[str]:
    """Spectra and spike table of one ``deepesn spectrum`` call.

    The fall of the filtering ratio with depth is a property of the mean over
    many guesses, so it is checked apart, by ``check_filtering_depth``.
    """
    problems = []
    freq, curves = read_spectra(spectra_rows)
    if curves.shape != (layers, window // 2 + 1):
        return [f"spectra have shape {curves.shape}, expected {(layers, window // 2 + 1)}"]
    k = np.arange(freq.size)
    if not np.all(np.abs(freq - k / window) <= 2 * np.finfo(float).eps * (k / window)):
        problems.append("frequency column is not k/window")
    for layer, curve in enumerate(curves, start=1):
        if curve.max() != 1.0:
            problems.append(f"layer {layer} curve peaks at {curve.max()!r}, not 1")
    centres = [int(round(phi / (2 * math.pi) * window)) for phi in phis]
    heights = np.empty((layers, len(phis)))
    for layer, curve in enumerate(curves):
        for j, centre in enumerate(centres):
            heights[layer, j], background = spike_heights(curve, centre)
            if not heights[layer, j] > 2.0 * background:
                problems.append(f"layer {layer + 1}: spike at phi={phis[j]} not detected")

    table = spike_table(spikes_rows)
    if table.shape != (layers, 1 + len(phis)):
        return problems + [f"spike table has shape {table.shape}"]
    ratio, magnitudes = table[:, 0], table[:, 1:]
    if not np.array_equal(magnitudes, heights):
        problems.append("spike table magnitudes differ from the spectra curves")
    if not np.allclose(ratio, filtering_ratio(magnitudes, phis), rtol=1e-12, atol=0.0):
        problems.append("filtering ratio is not high-4 over low-4 spike mean")
    return problems


def check_filtering_depth(magnitudes: np.ndarray, phis) -> list[str]:
    """Low-pass filtering along depth, on spike magnitudes averaged over guesses.

    Neighbouring layers can tie within sampling noise (over 20 guesses, seeds
    220-239 put layer 5 above layer 4 by 0.05%), so the strict fall is
    required over every three layers and a rise between neighbours may not
    exceed ADJACENT_RISE.
    """
    ratio = filtering_ratio(magnitudes, phis)
    if np.any(ratio[3:] >= ratio[:-3]) or np.any(ratio[1:] > ratio[:-1] * (1 + ADJACENT_RISE)):
        return [f"filtering ratio rises with depth: {ratio.tolist()}"]
    return []
