"""Construction and simulation of layered (deep) echo state reservoirs.

A deep reservoir is a stack of fixed recurrent layers. At every time step the
first layer reads the external input; each higher layer reads the freshly
updated state of the layer below it. With leak rate ``a``, input matrix
``W_in``, inter-layer matrices ``W_i`` and recurrent matrices ``What_i`` the
update is

    x_1(t) = (1-a) x_1(t-1) + a (W_in u(t)   + What_1 x_1(t-1))
    x_i(t) = (1-a) x_i(t-1) + a (W_i x_{i-1}(t) + What_i x_i(t-1))    i > 1

from a zero initial state everywhere. The units are linear (an L-deepESN):
the layered-to-flat rewrite and the layer-wise frequency analysis exist only
for them, and ``run`` solves each layer as a linear recurrence.

Stability is imposed at construction time: every layer's effective matrix
``(1-a) I + a What_i`` is rescaled to have spectral radius exactly equal to
the configured target. Weight generation is fully deterministic in the seed,
with one RNG substream per matrix so that adding layers never perturbs the
matrices of earlier layers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _native
from .exceptions import DegenerateConfigurationError, UnscalableMatrixError

# Substream tags: one family of SeedSequence spawn keys per matrix role.
_STREAM_INPUT = 0
_STREAM_INTER = 1
_STREAM_RECURRENT = 2

# Effective matrices with spectral radius below this cannot be rescaled.
MIN_SCALABLE_RADIUS = 1e-12
# Redraw budget per layer before giving up on an unscalable draw.
MAX_DRAW_ATTEMPTS = 10


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; bools are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class HyperParams:
    """Reservoir hyperparameters, shared by all layers.

    ``leak_rate`` and ``spectral_radius_target`` are common to every layer;
    ``input_scale`` bounds the entries of the input and inter-layer matrices.
    A leak rate of 0 raises ``DegenerateConfigurationError``. ``activation``
    admits only ``"linear"``: it keeps the field order of callers that pass
    every field by position.
    """

    num_layers: int
    units_per_layer: int
    input_dim: int = 1
    input_scale: float = 1.0
    leak_rate: float = 1.0
    spectral_radius_target: float = 0.9
    activation: str = "linear"
    seed: int = 0

    def __post_init__(self):
        if not all(_is_int(n) and n >= 1
                   for n in (self.num_layers, self.units_per_layer, self.input_dim)):
            raise ValueError("num_layers, units_per_layer and input_dim must be integers >= 1")
        if not 0.0 <= self.leak_rate <= 1.0:
            raise ValueError(f"leak_rate must lie in [0, 1], got {self.leak_rate}")
        if self.leak_rate == 0.0:
            raise DegenerateConfigurationError(
                "leak_rate = 0 makes the effective matrix the identity; "
                "spectral-radius rescaling is degenerate"
            )
        if not 0.0 < self.spectral_radius_target < math.inf:
            raise ValueError("spectral_radius_target must be positive and finite")
        if not 0.0 <= self.input_scale < math.inf:
            raise ValueError("input_scale must be nonnegative and finite")
        if self.activation != "linear":
            raise ValueError(f"activation must be 'linear', got {self.activation!r}: "
                             "deepesn builds linear reservoirs only")
        if not (_is_int(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an integer in [0, 2**64)")


@dataclass(frozen=True)
class DeepReservoir:
    """Fixed weights of a layered reservoir. Immutable after construction.

    ``inter_layer_weights[k]`` feeds layer ``k + 2`` from layer ``k + 1``
    (1-based layer numbering); ``recurrent_weights[k]`` is the recurrent
    matrix of layer ``k + 1``. All arrays are read-only views.
    """

    input_weights: np.ndarray
    inter_layer_weights: tuple[np.ndarray, ...]
    recurrent_weights: tuple[np.ndarray, ...]
    params: HyperParams


def effective_matrix(recurrent: np.ndarray, leak_rate: float) -> np.ndarray:
    """The matrix (1-a) I + a What driving a layer's autonomous dynamics.

    Built in a copy of What by ``_to_effective``.
    """
    return _to_effective(np.array(recurrent, dtype=float), leak_rate)


def _to_effective(w: np.ndarray, leak_rate: float) -> np.ndarray:
    """Turn the writable What ``w`` into its effective matrix in place, and return it.

    ``w`` is scaled by ``a`` and ``1 - a`` is added on its diagonal.
    """
    w *= leak_rate
    w.flat[:: w.shape[0] + 1] += 1.0 - leak_rate
    return w


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square real matrix.

    Computed with a dense QR eigenvalue solver, which resolves complex
    conjugate dominant pairs and delivers accuracy near machine precision.
    LAPACK's internal iteration cap applies; non-convergence surfaces as
    ``numpy.linalg.LinAlgError``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _substream(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _input_raw(seed: int, n_units: int, n_inputs: int) -> np.ndarray:
    """Unit-scale input weight draw, substream (0,)."""
    return _substream(seed, (_STREAM_INPUT,)).uniform(-1.0, 1.0, (n_units, n_inputs))


def _inter_raw(seed: int, layer: int, n_units: int) -> np.ndarray:
    """Unit-scale inter-layer weight draw for 1-based layer, substream (1, layer)."""
    return _substream(seed, (_STREAM_INTER, layer)).uniform(-1.0, 1.0, (n_units, n_units))


def _recurrent_raw(seed: int, layer: int, n_units: int, attempt: int) -> np.ndarray:
    """Unit-scale recurrent draw, substream (2, layer, attempt)."""
    g = _substream(seed, (_STREAM_RECURRENT, layer, attempt))
    return g.uniform(-1.0, 1.0, (n_units, n_units))


@lru_cache(maxsize=256)
def _recurrent_base(seed: int, layer: int, n_units: int, attempt: int):
    """Spectral radius and normalized eigenvalues of a layer's recurrent draw.

    The base matrix is the uniform draw on [-1, 1] of ``_recurrent_raw``
    divided by the draw's spectral radius ``rho_raw``, so it always has
    spectral radius 1 and the leak term keeps its intended weight in the
    effective matrix. Returns ``(rho_raw, eigvals / rho_raw)``, or ``None``
    when the raw draw itself is unscalable (radius ~ 0).

    Only the eigenvalues are cached, about 16 bytes per unit: they give the
    effective spectral radius for any leak rate without another dense solve,
    which costs far more than drawing the matrix again. The solve runs
    without the interpreter lock, so pool threads initialise guesses at once,
    and with OpenBLAS at one thread, so the cached value is the same whatever
    thread count the first caller had (from about N = 300, ``dgeev`` rounds
    otherwise on two threads).
    """
    with _native.one_thread():
        eigvals = _native.eigvals(_recurrent_raw(seed, layer, n_units, attempt))
    rho_raw = float(np.max(np.abs(eigvals)))
    if rho_raw < MIN_SCALABLE_RADIUS:
        return None
    return rho_raw, _readonly(eigvals / rho_raw)


def _scaled_recurrent(params: HyperParams, layer: int) -> np.ndarray:
    """Layer ``layer``'s (1-based) recurrent matrix What, writable.

    Its effective matrix has spectral radius ``spectral_radius_target``.
    Rescaling acts on the effective matrix: with M = (1-a) I + a base,
    the result is What = (M * rho_target / rho(M) - (1-a) I) / a. The
    spectral radius of M is evaluated from the cached base eigenvalues, and
    every step works in place on the redrawn matrix.
    """
    seed, n_units, a = int(params.seed), params.units_per_layer, params.leak_rate
    rho_target = params.spectral_radius_target
    for attempt in range(MAX_DRAW_ATTEMPTS):
        cached = _recurrent_base(seed, layer, n_units, attempt)
        if cached is None:
            continue
        rho_raw, base_eigvals = cached
        rho_eff = float(np.max(np.abs((1.0 - a) + a * base_eigvals)))
        if rho_eff < MIN_SCALABLE_RADIUS:
            continue
        m = _recurrent_raw(seed, layer, n_units, attempt)
        m /= rho_raw
        m *= a
        m.flat[:: n_units + 1] += 1.0 - a
        m *= rho_target / rho_eff
        m.flat[:: n_units + 1] -= 1.0 - a
        m /= a
        return m
    raise UnscalableMatrixError(
        f"layer {layer}: effective matrix spectral radius below "
        f"{MIN_SCALABLE_RADIUS} for {MAX_DRAW_ATTEMPTS} consecutive draws "
        f"(seed={seed}, leak_rate={a})"
    )


def _drive(params: HyperParams, layer: int) -> np.ndarray:
    """Layer ``layer``'s (1-based) drive matrix, read-only.

    The drive of layer 1 is the input matrix, that of a higher layer its
    inter-layer matrix; each is a unit-scale draw times ``input_scale``.
    """
    seed, n = int(params.seed), params.units_per_layer
    raw = _input_raw(seed, n, params.input_dim) if layer == 1 else _inter_raw(seed, layer, n)
    return _readonly(params.input_scale * raw)


def _layer_weights(params: HyperParams, layer: int) -> tuple[np.ndarray, np.ndarray]:
    """Layer ``layer``'s (1-based) drive and effective matrix M, read-only.

    M is built by ``_to_effective`` in the buffer that holds What, so no
    guess holds both, and has the bits of ``effective_matrix(What, a)``.
    """
    m = _to_effective(_scaled_recurrent(params, layer), params.leak_rate)
    return _drive(params, layer), _readonly(m)


def init_reservoir(params: HyperParams) -> DeepReservoir:
    """Build a reservoir from hyperparameters. Deterministic in the seed.

    Input and inter-layer weights are i.i.d. uniform on
    [-input_scale, input_scale] (a unit-scale draw multiplied by the scale,
    so the substreams are scale-independent). Recurrent weights are drawn,
    normalized, and rescaled so that every layer's effective matrix has
    spectral radius exactly ``spectral_radius_target``. No bias terms.
    Each layer's drive comes from ``_drive`` and its What from
    ``_scaled_recurrent``, as in ``_guess_layers``, which builds and solves
    a guess without a ``DeepReservoir``.
    """
    layers = range(1, params.num_layers + 1)
    drives = tuple(_drive(params, layer) for layer in layers)
    return DeepReservoir(input_weights=drives[0], inter_layer_weights=drives[1:],
                         recurrent_weights=tuple(_readonly(_scaled_recurrent(params, layer))
                                                 for layer in layers),
                         params=params)


def step(res: DeepReservoir, state: np.ndarray, input_vector: np.ndarray) -> np.ndarray:
    """Advance the layered state by one input.

    Layer 1 is driven by the external input; each layer ``i > 1`` is driven
    by the already-updated state of layer ``i - 1`` at the same time step.
    """
    p = res.params
    state = np.asarray(state, dtype=float)
    u = np.asarray(input_vector, dtype=float).reshape(-1)
    if state.shape != (p.num_layers, p.units_per_layer):
        raise ValueError(
            f"state must have shape {(p.num_layers, p.units_per_layer)}, got {state.shape}"
        )
    if u.shape != (p.input_dim,):
        raise ValueError(f"input must have {p.input_dim} components, got {u.shape}")
    a = p.leak_rate
    new = np.empty_like(state)
    pre = res.input_weights @ u + res.recurrent_weights[0] @ state[0]
    new[0] = (1.0 - a) * state[0] + a * pre
    for i in range(1, p.num_layers):
        pre = res.inter_layer_weights[i - 1] @ new[i - 1] + res.recurrent_weights[i] @ state[i]
        new[i] = (1.0 - a) * state[i] + a * pre
    return new


def _as_input_matrix(inputs, input_dim: int) -> np.ndarray:
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != input_dim:
        raise ValueError(f"inputs must have shape (steps, {input_dim}), got {u.shape}")
    if u.shape[0] == 0:
        raise ValueError("input sequence must be nonempty")
    return u


def _matrix_power(m: np.ndarray, e: int) -> np.ndarray:
    """``m ** e`` for ``e >= 1`` by left-to-right repeated squaring; ``m`` is only read.

    Besides ``m`` it holds at most two buffers, the power so far and the
    next, and one at ``e = 2``. At ``e = 1`` it returns ``m`` itself.
    """
    r = m
    for bit in bin(e)[3:]:
        r = r @ r
        if bit == "1":
            r = r @ m
    return r


# Costs of the blocked scan in flops of a large matrix product on one core.
# A matrix-vector product reads its whole matrix for two flops per entry and
# runs about 8 times slower per flop: 8.1 is the least-squares fit of the
# layer-scan timings in BENCH_11.json (b from 1 to 64 at 1x1000, 10x100 and
# 1x2000 on a 2-core x86-64 host, OpenBLAS on one thread, about 56 GFLOP/s in
# large products). Those timings do not fix the cost of one numpy call; 1e5
# flops is about 2 microseconds there, and any value from 0 to 1e5 picks the
# same b at all three sizes.
_MATVEC_FLOP_COST = 8.0
_CALL_FLOP_COST = 1e5


def _scan_cost(steps: int, units: int, b: int) -> float:
    """The part of ``_linear_scan``'s cost that depends on its chunk length ``b``.

    The chunk passes take about ``4 T N^2`` flops whatever ``b`` is. What
    depends on ``b`` is forming ``M^b`` (one N x N product per squaring and
    per further binary one of ``b``) and the ``ceil(T/b)`` sequential carries
    plus ``2 (b - 1)`` chunk passes, each of which reads all of ``M`` once, as
    a matrix-vector product does, in one numpy call.
    """
    products = b.bit_length() - 2 + b.bit_count()
    reads = -(-steps // b) + 2 * (b - 1)
    return (2.0 * units ** 3 * products
            + reads * (_MATVEC_FLOP_COST * 2.0 * units ** 2 + _CALL_FLOP_COST))


def _chunk_length(steps: int, units: int) -> int:
    """The chunk length ``b`` of least ``_scan_cost``; ties go to the smaller ``b``.

    ``b = 1`` is the plain sequential recurrence. No ``b`` beyond
    ``2 isqrt(T) + 1`` can win: it costs at least as much as the largest
    power of two not above it, and halving a power of two while the half
    stays above ``sqrt(T)`` saves a product and adds no reads.
    """
    last = min(steps, 2 * math.isqrt(steps) + 1)
    return min(range(1, last + 1), key=lambda b: _scan_cost(steps, units, b))


def _guess_bytes(layers: int, units: int, steps: int) -> int:
    """Estimated peak bytes of one guess of ``layers`` x ``units`` over ``steps`` inputs.

    A guess holds its ``(steps, layers, units)`` states. While a layer is
    solved it also holds k N x N matrices (N = ``units``): M and
    ``_matrix_power``'s buffers, k = 3 at chunk length b >= 3 and 2 at
    b = 2. k is 2 at b = 1 too: a layer's M and its drive are held together
    once built, and on a cold weight cache a draw and ``dgeev``'s copy of
    it. While it is scored it holds the readout's rows: the scored range
    times the layer weights and the factorization's copy of it, counted as
    one more block the size of the states. The sum bounds both phases
    (tracemalloc peaks, ``tests/test_mso.py``).
    """
    k = 3 if _chunk_length(steps, units) >= 3 else 2
    return 8 * (2 * steps * layers * units + k * units * units)


def _linear_scan(x: np.ndarray, m: np.ndarray, b: int) -> None:
    """Solve ``x_t = M x_{t-1} + d_t`` from ``x_{-1} = 0`` in place; ``x`` holds d.

    A blocked scan over chunks of ``b`` rows (Martin & Cundy, arXiv
    1709.04057; ``_chunk_length`` picks ``b``): every chunk first runs from a
    zero start, all chunks at once; the chunk-end states are then carried
    through ``M^b``; last, each chunk adds ``M^(k+1)`` times the state before
    it to its row ``k``. Each row only ever reads earlier rows, so the scan
    stays causal.
    """
    steps = x.shape[0]
    mt = m.T
    for k in range(1, b):
        rows = x[k::b]
        rows += x[k - 1::b][: len(rows)] @ mt
    if steps <= b:
        return
    ends = x[b - 1::b]
    carry = _matrix_power(m, b)
    for c in range(1, len(ends)):
        ends[c] += carry @ ends[c - 1]
    z = ends[: len(x[b::b])]
    for k in range(b - 1):
        rows = x[b + k::b]
        z = z[: len(rows)] @ mt
        rows += z


def _solve_layers(layers: Iterable[tuple[np.ndarray, np.ndarray]], u: np.ndarray,
                  leak_rate: float, out: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
    """Each layer's ``(steps, units)`` states, solved from the layer below.

    ``layers`` gives each layer's ``(drive, M)`` pair, M its effective
    matrix, layer 1 first (as ``_layer_weights`` builds them); layer 1 is
    driven by the ``(steps, input_dim)`` matrix ``u``. A layer's drive is one
    matrix product over all steps, scaled by the leak rate, and its
    recurrence ``x_t = M x_{t-1} + a d_t`` is solved in place with a blocked
    scan that reads M and copies nothing of it. Layer ``i``'s states go into
    ``out[:, i]`` when ``out`` is given and into a new array otherwise. Only
    the layer being solved and the one driving it are held here; a layer's
    drive is dropped once its product is taken, before the scan, and M once
    the layer is solved, so a lazy ``layers`` keeps memory independent of
    depth.
    """
    src, chunk, i = u, None, 0
    for w_drive, m in layers:  # not enumerate: its reused tuple would keep the pair
        x = np.matmul(src, w_drive.T, out=None if out is None else out[:, i])
        del w_drive
        x *= leak_rate
        if chunk is None:
            chunk = _chunk_length(u.shape[0], m.shape[0])
        _linear_scan(x, m, chunk)
        del m
        src, i = x, i + 1
        yield x


def _guess_layers(params: HyperParams, u: np.ndarray,
                  out: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
    """The guess ``params`` builds, solved layer by layer from the input matrix ``u``.

    ``_solve_layers`` over ``_layer_weights``: each layer's weights are built
    once the layer below is solved, so the guess holds one layer's weights
    and no ``DeepReservoir``. The states have the bits of ``run`` on
    ``init_reservoir(params)``.
    """
    weights = map(partial(_layer_weights, params), range(1, params.num_layers + 1))
    return _solve_layers(weights, u, params.leak_rate, out)


def _require_finite(values: np.ndarray, params: HyperParams,
                    what: str = "reservoir states") -> None:
    """Refuse the states of a diverged reservoir, or what overflowed from them."""
    if not np.isfinite(values).all():
        raise RuntimeError(f"non-finite {what} for input_scale={params.input_scale} "
                           f"leak_rate={params.leak_rate} "
                           f"spectral_radius={params.spectral_radius_target} seed={params.seed}")


def run(res: DeepReservoir, inputs) -> np.ndarray:
    """Drive the reservoir from the zero state through an input sequence.

    ``inputs`` is ``(steps, input_dim)`` (a plain 1-D sequence is accepted
    for one-dimensional input). Returns the read-only ``(steps, num_layers,
    units_per_layer)`` states: entry ``t`` holds the state after consuming
    input ``t``, and ``reshape(steps, -1)`` concatenates the layers, layer 1
    first.

    Layers are swept one at a time by ``_solve_layers``, each from its
    effective matrix, built when the layer starts: layer ``i - 1``'s whole
    trajectory is known before layer ``i`` starts, because it only feeds
    forward. The result equals repeated ``step`` up to rounding, not
    bit for bit: the products are summed in another order.
    """
    p = res.params
    u = _as_input_matrix(inputs, p.input_dim)
    out = np.empty((u.shape[0], p.num_layers, p.units_per_layer))
    layers = ((drive, effective_matrix(w, p.leak_rate)) for drive, w in
              zip((res.input_weights,) + res.inter_layer_weights, res.recurrent_weights))
    for _ in _solve_layers(layers, u, p.leak_rate, out):
        pass
    return _readonly(out)
