"""Ridge-regression readout over concatenated reservoir states, plus NRMSE.

The readout solves ``min_W ||W X - Y||^2 + lambda ||W||^2`` in closed form
through a thin SVD of the state matrix. When features outnumber samples the
SVD is that of the triangle of a QR factorization of the transposed state
matrix, which is substantially cheaper and equally accurate; neither Q nor
the right singular vectors V = Q W are ever formed: each lambda's weights
are its coefficients in W, mapped through the QR's Householder reflectors
one block at a time. Normal equations are deliberately avoided: squaring the
condition number loses the small singular values that carry most of the
signal on near-periodic tasks.

``lambda = 0`` falls back to the minimum-norm least-squares solution with a
pseudo-inverse cutoff; rank deficiency is then flagged on the result rather
than raised.

Every product that involves one lambda's coefficients is a stacked
matrix-vector product (``np.matmul`` over a stack of vectors), never one
matrix product across the lambdas, so each lambda's weights are the same
bits whichever other lambdas share its sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native

#: Reflectors applied per block by ``_apply_reflectors``. At 300 x 1000 and
#: 12 lambdas on one thread, 32 took 3.4 ms against 3.8 (16), 3.9 (64) and
#: 5.9 ms (128).
_REFLECTOR_BLOCK = 32


@dataclass(frozen=True)
class Readout:
    """Trained linear readout: ``predictions(t) = weights @ state(t)``."""

    weights: np.ndarray          # (output_dim, state_dim)
    regularization: float
    rank: int                    # singular values above the pinv cutoff
    rank_deficient: bool         # min-norm fallback engaged (lambda == 0 only)


def _apply_reflectors(h: np.ndarray, tau: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``Q @ [z_i; 0]`` for every row ``z_i`` of ``z``, Q from ``_native.qr_raw``.

    Q = H_1 ... H_t, with reflector k stored in row k of ``h`` to the right of
    the diagonal (a unit diagonal implied). A block of b reflectors is
    I - V T^-1 V^T with T = striu(V^T V) + diag(1 / tau), the UT transform
    (Joffrain et al., ACM TOMS 32(2), 2006), taken as T^-1 = diag(tau)
    (I + striu(V^T V) diag(tau))^-1, which stays finite where LAPACK sets a
    tau to 0 (an identity reflector). The blocks apply last to first, each
    from one b x features copy of its reflectors.
    """
    t, d = h.shape
    out = np.zeros((z.shape[0], d))
    out[:, :t] = z
    for k0 in reversed(range(0, t, _REFLECTOR_BLOCK)):
        k1 = min(k0 + _REFLECTOR_BLOCK, t)
        b, taus = k1 - k0, tau[k0:k1]
        v = h[k0:k1, k0:].copy()                   # V^T, over coordinates k0..d-1
        v[:, :b] = np.triu(v[:, :b], 1) + np.eye(b)
        t_inv = taus[:, None] * np.linalg.inv(np.triu(v @ v.T, 1) * taus + np.eye(b))
        seg = out[:, k0:]
        coeffs = np.matmul(t_inv, np.matmul(v, seg[:, :, None]))
        seg -= np.matmul(coeffs.transpose(0, 2, 1), v)[:, 0]
    return out


def _as_targets(targets, t: int) -> np.ndarray:
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] != t:
        raise ValueError(f"targets must have {t} rows, got shape {y.shape}")
    return y


def fit_ridge_sweep(states, targets, lambdas) -> list[Readout]:
    """Fit one readout per regularization value, sharing a single SVD.

    The states are independent of lambda, so a sweep costs one factorization
    plus a diagonal reweighting and one mapping to the features per value.
    """
    s_mat = np.asarray(states, dtype=float)
    if s_mat.ndim != 2 or s_mat.shape[0] < 1:
        raise ValueError(f"states must be a (samples, features) matrix, got shape {s_mat.shape}")
    if not np.isfinite(s_mat).all():
        raise ValueError("states must be finite")
    y = _as_targets(targets, s_mat.shape[0])
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    lams = [float(l) for l in lambdas]
    if not lams:
        raise ValueError("lambdas must be nonempty")
    if any(l < 0 or not np.isfinite(l) for l in lams):
        raise ValueError("regularization values must be finite and nonnegative")

    t, d = s_mat.shape
    if d > t:
        h, tau = _native.qr_raw(s_mat)                # states.T = Q R, R^T = tril(h)
        u, s, wt = np.linalg.svd(np.tril(h[:, :t]))     # states = u diag(s) (Q wt^T)^T
    else:
        u, s, wt = np.linalg.svd(s_mat, full_matrices=False)
    yt_u = y.T @ u                                      # (output_dim, k)
    cutoff = max(t, d) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))

    gains = np.zeros((len(lams), s.size))
    for gain, lam in zip(gains, lams):
        if lam > 0.0:
            gain[:] = s / (s * s + lam)
        else:
            gain[s > cutoff] = 1.0 / s[s > cutoff]
    coeffs = (gains[:, None, :] * yt_u).reshape(-1, 1, s.size)   # (lambda, output) pairs
    weights = np.matmul(coeffs, wt)[:, 0]               # (lambdas x outputs, t or d)
    if d > t:
        weights = _apply_reflectors(h, tau, weights)
    weights = weights.reshape(len(lams), y.shape[1], d)
    return [Readout(weights=w, regularization=lam, rank=rank,
                    rank_deficient=lam == 0.0 and rank < d)
            for w, lam in zip(weights, lams)]


def fit_ridge(states, targets, lam: float) -> Readout:
    """Closed-form ridge fit of a linear readout on washout-trimmed states."""
    return fit_ridge_sweep(states, targets, [lam])[0]


def predict(readout: Readout, states) -> np.ndarray:
    """Apply a readout to a state matrix; row ``t`` is the output at step ``t``."""
    s_mat = np.asarray(states, dtype=float)
    if s_mat.ndim != 2 or s_mat.shape[1] != readout.weights.shape[1]:
        raise ValueError(
            f"states must have width {readout.weights.shape[1]}, got shape {s_mat.shape}"
        )
    return s_mat @ readout.weights.T


def _nrmse_rows(preds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """NRMSE of each row of ``preds`` against the target ``y``, by ``nrmse``'s formula.

    A row's score is the same bits as ``nrmse`` of that row alone.
    """
    if y.size < 2:
        raise ValueError("need at least two samples to normalize")
    if not (np.isfinite(preds).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    variance = np.mean((y - np.mean(y)) ** 2)
    if variance == 0.0:
        raise ValueError("target variance is zero; NRMSE is undefined")
    return np.sqrt(np.mean((y - preds) ** 2, axis=-1) / variance)


def nrmse(pred, target) -> float:
    """Root mean square error normalized by the target's standard deviation.

    The variance is the population variance over the scored window, so a
    constant prediction at the target mean scores exactly 1. Both variance
    and numerator are evaluated with the same expression shape, keeping that
    identity exact in floating point.
    """
    p = np.asarray(pred, dtype=float).reshape(-1)
    y = np.asarray(target, dtype=float).reshape(-1)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {y.shape}")
    return float(_nrmse_rows(p, y))
