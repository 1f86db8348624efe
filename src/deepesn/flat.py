"""Single-layer rewrite of a linear layered reservoir.

With linear units the whole stack obeys one global recurrence
``x(t) = V x(t-1) + V_in u(t)`` on the concatenated state. The layered
wiring makes ``V`` lower block triangular:

    V[i, j] = 0                                          i < j
    V[i, i] = (1-a) I + a What_i
    V[i, j] = (a W_i ... a W_{j+1}) ((1-a) I + a What_j)  i > j

and the input column is ``V_in[1] = a W_in``,
``V_in[i] = (a W_i ... a W_2) a W_in`` for ``i > 1``. Products are ordered
with the highest layer index leftmost, the unique order consistent with
unrolling the layer updates within one time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .reservoir import (DeepReservoir, _as_input_matrix, _readonly, _require_finite,
                        effective_matrix, run)


@dataclass(frozen=True)
class FlatSystem:
    """Equivalent single-layer system: state matrix, input matrix, block dims."""

    v: np.ndarray
    v_in: np.ndarray
    block_dims: tuple[int, int, int]  # (num_layers, units_per_layer, input_dim)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a layered-vs-flat trajectory comparison.

    ``max_rel_diff`` is the largest over layers of that layer's absolute gap
    divided by the largest magnitude of the flat system's state in it.
    """

    max_abs_diff: float
    max_rel_diff: float
    passed: bool
    rel_tol: float
    per_step_diffs: np.ndarray

    @property
    def num_steps(self) -> int:
        return len(self.per_step_diffs)


def flatten(res: DeepReservoir) -> FlatSystem:
    """Assemble the equivalent flat system of a reservoir."""
    p = res.params
    n_l, n_r, a = p.num_layers, p.units_per_layer, p.leak_rate
    dim = n_l * n_r

    def blk(i):  # 1-based layer index -> row/col slice
        return slice((i - 1) * n_r, i * n_r)

    v = np.zeros((dim, dim))
    for j in range(1, n_l + 1):
        acc = effective_matrix(res.recurrent_weights[j - 1], a)
        v[blk(j), blk(j)] = acc
        for i in range(j + 1, n_l + 1):
            acc = (a * res.inter_layer_weights[i - 2]) @ acc
            v[blk(i), blk(j)] = acc

    v_in = np.zeros((dim, p.input_dim))
    col = a * res.input_weights
    v_in[blk(1)] = col
    for i in range(2, n_l + 1):
        col = (a * res.inter_layer_weights[i - 2]) @ col
        v_in[blk(i)] = col

    return FlatSystem(v=_readonly(v), v_in=_readonly(v_in), block_dims=(n_l, n_r, p.input_dim))


def run_flat(flat: FlatSystem, inputs) -> np.ndarray:
    """Iterate the flat recurrence from the zero vector.

    Returns the read-only ``(steps, num_layers, units_per_layer)`` states,
    the layout of ``run``, so entries are index-aligned for comparison.
    """
    n_l, n_r, n_u = flat.block_dims
    u = _as_input_matrix(inputs, n_u)
    x = np.zeros(n_l * n_r)
    out = np.empty((u.shape[0], n_l * n_r))
    for t in range(u.shape[0]):
        x = flat.v @ x + flat.v_in @ u[t]
        out[t] = x
    return _readonly(out.reshape(u.shape[0], n_l, n_r))


def verify_equivalence(res: DeepReservoir, inputs, rel_tol: float) -> EquivalenceReport:
    """Run the layered and the flat system on the same inputs and compare.

    Passes iff in every layer the max over time and units of the absolute
    difference stays within ``rel_tol`` times the largest magnitude of the
    flat system's state in that layer. Rounding grows with the states,
    which reach ~1e9 by layer 10 at input scale 1, so an absolute bound
    would test the depth of the network rather than the rewrite. An infinite
    ``rel_tol`` would pass any gap, so it must be finite and positive. Both
    systems run with OpenBLAS at one thread (``_native.one_thread``), so the
    report is the same at any ``OPENBLAS_NUM_THREADS``. It raises
    ``RuntimeError``, not numpy's warnings, if either system diverges.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    with _native.one_thread(), np.errstate(over="ignore", invalid="ignore"):
        layered = run(res, inputs)
        flat = run_flat(flatten(res), inputs)
    for states in (layered, flat):  # a diverged pair of trajectories checks nothing
        _require_finite(states, res.params)
    gaps = np.abs(layered - flat)
    layer_gaps = gaps.max(axis=(0, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        layer_rel = np.where(layer_gaps == 0.0, 0.0, layer_gaps / np.abs(flat).max(axis=(0, 2)))
    diffs = gaps.max(axis=(1, 2))
    max_rel = float(layer_rel.max())
    return EquivalenceReport(
        max_abs_diff=float(diffs.max()),
        max_rel_diff=max_rel,
        passed=bool(max_rel <= rel_tol),
        rel_tol=float(rel_tol),
        per_step_diffs=_readonly(diffs),
    )
