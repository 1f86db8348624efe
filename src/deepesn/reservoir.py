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
from typing import Callable, Iterable, Iterator, Optional

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


def _scaling(params: HyperParams, layer: int) -> tuple[int, float, float]:
    """``(attempt, rho_raw, rho_eff)`` of layer ``layer``'s (1-based) first scalable draw.

    ``rho_raw`` is the raw draw's spectral radius and ``rho_eff`` that of the
    effective matrix M = (1-a) I + a base, evaluated from the cached base
    eigenvalues. This is the only step of a layer's weights that reads them.
    """
    seed, n_units, a = int(params.seed), params.units_per_layer, params.leak_rate
    for attempt in range(MAX_DRAW_ATTEMPTS):
        cached = _recurrent_base(seed, layer, n_units, attempt)
        if cached is None:
            continue
        rho_raw, base_eigvals = cached
        rho_eff = float(np.max(np.abs((1.0 - a) + a * base_eigvals)))
        if rho_eff < MIN_SCALABLE_RADIUS:
            continue
        return attempt, rho_raw, rho_eff
    raise UnscalableMatrixError(
        f"layer {layer}: effective matrix spectral radius below "
        f"{MIN_SCALABLE_RADIUS} for {MAX_DRAW_ATTEMPTS} consecutive draws "
        f"(seed={seed}, leak_rate={a})"
    )


def _rescaled(params: HyperParams, layer: int, scaling: tuple[int, float, float]) -> np.ndarray:
    """Layer ``layer``'s (1-based) recurrent matrix What from its ``_scaling``, writable.

    Its effective matrix has spectral radius ``spectral_radius_target``:
    with M = (1-a) I + a base, What = (M * rho_target / rho(M) - (1-a) I) / a,
    every step in place on the redrawn matrix. A leak rate so small that
    What overflows raises ``DegenerateConfigurationError``.
    """
    attempt, rho_raw, rho_eff = scaling
    n_units, a = params.units_per_layer, params.leak_rate
    m = _recurrent_raw(int(params.seed), layer, n_units, attempt)
    m /= rho_raw
    m *= a
    m.flat[:: n_units + 1] += 1.0 - a
    m *= params.spectral_radius_target / rho_eff
    m.flat[:: n_units + 1] -= 1.0 - a
    with np.errstate(over="ignore"):
        m /= a
    if not np.isfinite(m).all():
        raise DegenerateConfigurationError(
            f"leak_rate={a} is too small: the recurrent matrix of layer {layer} "
            f"overflows when divided by it")
    return m


def _effective(params: HyperParams, layer: int, scaling: tuple[int, float, float]) -> np.ndarray:
    """Layer ``layer``'s effective matrix M, read-only, from its ``_scaling``.

    M is built by ``_to_effective`` in the buffer that holds What, so no
    guess holds both, and has the bits of ``effective_matrix(What, a)``.
    """
    return _readonly(_to_effective(_rescaled(params, layer, scaling), params.leak_rate))


def _drive(params: HyperParams, layer: int) -> np.ndarray:
    """Layer ``layer``'s (1-based) drive matrix, read-only.

    The drive of layer 1 is the input matrix, that of a higher layer its
    inter-layer matrix; each is a unit-scale draw times ``input_scale``.
    """
    seed, n = int(params.seed), params.units_per_layer
    raw = _input_raw(seed, n, params.input_dim) if layer == 1 else _inter_raw(seed, layer, n)
    return _readonly(params.input_scale * raw)


def _layer_weights(params: HyperParams,
                   layer: int) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Layer ``layer``'s (1-based) read-only drive, and a ``build`` of its effective matrix.

    Each ``build()`` returns a fresh M (``_effective``). The scaling is found
    here, once, so a ``build`` only redraws and rescales: it never solves an
    eigenproblem, and a scan may drop M and build it again (``_power``).
    """
    return _drive(params, layer), partial(_effective, params, layer, _scaling(params, layer))


def init_reservoir(params: HyperParams) -> DeepReservoir:
    """Build a reservoir from hyperparameters. Deterministic in the seed.

    Input and inter-layer weights are i.i.d. uniform on
    [-input_scale, input_scale] (a unit-scale draw multiplied by the scale,
    so the substreams are scale-independent). Recurrent weights are drawn,
    normalized, and rescaled so that every layer's effective matrix has
    spectral radius exactly ``spectral_radius_target``. No bias terms.
    Each layer's drive comes from ``_drive`` and its What from ``_scaling``
    and ``_rescaled``, as in ``_guess_layers``, which builds and solves a
    guess without a ``DeepReservoir``.
    """
    layers = range(1, params.num_layers + 1)
    drives = tuple(_drive(params, layer) for layer in layers)
    return DeepReservoir(input_weights=drives[0], inter_layer_weights=drives[1:],
                         recurrent_weights=tuple(
                             _readonly(_rescaled(params, layer, _scaling(params, layer)))
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
    if not np.isfinite(u).all():
        raise ValueError("inputs must be finite")
    if not np.isfinite(state).all():
        raise ValueError("state must be finite")
    a = p.leak_rate
    new = np.empty_like(state)
    pre = res.input_weights @ u + res.recurrent_weights[0] @ state[0]
    new[0] = (1.0 - a) * state[0] + a * pre
    for i in range(1, p.num_layers):
        pre = res.inter_layer_weights[i - 1] @ new[i - 1] + res.recurrent_weights[i] @ state[i]
        new[i] = (1.0 - a) * state[i] + a * pre
    return new


def _as_input_matrix(inputs, input_dim: int) -> np.ndarray:
    """``inputs`` as a finite, nonempty ``(steps, input_dim)`` float matrix."""
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != input_dim:
        raise ValueError(f"inputs must have shape (steps, {input_dim}), got {u.shape}")
    if u.shape[0] == 0:
        raise ValueError("input sequence must be nonempty")
    if not np.isfinite(u).all():
        raise ValueError("inputs must be finite")
    return u


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
    """The part of a layer's scan cost that depends on its chunk length ``b``.

    The chunk passes take about ``4 T N^2`` flops whatever ``b`` is. What
    depends on the power of two ``b`` is forming ``M^b`` (``log2 b`` N x N
    products, one per squaring) and the ``ceil(T/b)`` sequential carries
    plus ``2 (b - 1)`` reads of all of ``M``, each in one numpy call, like a
    matrix-vector product: ``_linear_scan``'s two rounds of ``b - 1`` chunk
    passes, or ``_input_scan``'s ``b - 1`` Krylov products and one round.
    """
    reads = -(-steps // b) + 2 * (b - 1)
    return (2.0 * units ** 3 * (b.bit_length() - 1)
            + reads * (_MATVEC_FLOP_COST * 2.0 * units ** 2 + _CALL_FLOP_COST))


def _chunk_length(steps: int, units: int) -> int:
    """The power of two ``b <= T`` of least ``_scan_cost``; ties go to the smaller ``b``.

    ``b = 1`` is the plain sequential recurrence.
    """
    return min((1 << e for e in range(steps.bit_length())),
               key=lambda b: _scan_cost(steps, units, b))


def _guess_bytes(layers: int, units: int, steps: int) -> int:
    """Estimated peak bytes of one guess of ``layers`` x ``units`` over ``steps`` inputs.

    A guess holds its ``(steps, layers, units)`` states. While a layer is
    solved it also holds two N x N matrices (N = ``units``): the squarings
    of ``_power`` hold two powers of M at a time, or M and M^2, and keep M
    beside them as a third only where M is no larger than a chunk pass's
    rows; layer 1 forms its M^b before the states exist and then holds one
    N x N beside them. Two also cover a layer's M and its drive, held
    together once built, and on a cold weight cache a draw and ``dgeev``'s
    copy of it. While it is scored it holds the readout's rows: the scored
    range times the layer weights and the factorization's copy of it,
    counted as one more block the size of the states, which also covers a
    chunk pass's rows and that third matrix. The sum is an upper bound of
    both phases (tracemalloc peaks, ``tests/test_mso.py``).
    """
    return 8 * (2 * steps * layers * units + 2 * units * units)


def _power(build: Callable[[], np.ndarray], b: int, steps: int,
           start: Callable[[np.ndarray], object]) -> tuple:
    """``(M or None, M^b or None, start(M))``: the matrices of a blocked scan over ``steps`` rows.

    ``build()`` returns M, and ``start(M)`` is M's one use before its power
    is formed; it must keep no reference to M. M^b is formed by ``log2 b``
    squarings, and only where there are two whole chunks to carry between
    (``steps >= 2 b``). Where ``b >= 4`` and ``N b > T``, M is larger than a
    chunk pass's ``T/b`` rows, so it is dropped after the first squaring and
    None is returned in its place: the caller builds it again once M^b is
    dropped (rematerialization, Chen et al., arXiv 1604.06174), with the
    same bits, so the squarings hold at most two N x N matrices at a time.
    Elsewhere a rebuild would lower no peak, and M is kept.
    """
    m = build()
    started = start(m)
    if steps < 2 * b:
        return m, None, started
    power, drop = m, b >= 4 and m.shape[0] * b > steps
    for _ in range(b.bit_length() - 1):
        power = power @ power
        if drop:
            m = None
    return m, power, started


def _carry(ends: np.ndarray, power: Optional[np.ndarray]) -> None:
    """Carry the chunk-end states ``ends`` of a zero start through M^b, in place.

    Chunk c's end gains ``M^b`` times the true end of chunk c - 1, one chunk
    after another; ``power`` is None only where there is at most one chunk.
    """
    for c in range(1, len(ends)):
        ends[c] += power @ ends[c - 1]


def _linear_scan(x: np.ndarray, build: Callable[[], np.ndarray], b: int) -> None:
    """Solve ``x_t = M x_{t-1} + d_t`` from ``x_{-1} = 0`` in place; ``x`` holds d.

    ``build()`` returns M. A blocked scan over chunks of ``b`` rows (Martin &
    Cundy, arXiv 1709.04057; ``_chunk_length`` picks ``b``, a power of two):
    every chunk first runs from a zero start, all chunks at once, in ``b -
    1`` chunk passes; the chunk-end states are then carried through ``M^b``
    (``_power``, ``_carry``); last, ``b - 1`` more passes add ``M^(k+1)``
    times the state before each chunk to its row ``k``. Each row only ever
    reads earlier rows, so the scan stays causal. ``_power`` may drop M
    while it squares; M is then built again for the last passes. Layers
    above the first are solved here, as their drive, the states of the
    layer below, has full rank; layer 1 is solved by ``_input_scan``, which
    comes here only where the inputs are too many for a factored drive.
    """
    def zero_start(m):
        for k in range(1, b):
            rows = x[k::b]
            rows += x[k - 1::b][: len(rows)] @ m.T

    m, power, _ = _power(build, b, len(x), zero_start)
    ends = x[b - 1::b]
    _carry(ends, power)
    del power
    if m is None:
        m = build()
    z = ends[: len(x[b::b])]
    for k in range(b - 1):
        rows = x[b + k::b]
        z = z[: len(rows)] @ m.T
        rows += z


def _input_scan(u: np.ndarray, w: np.ndarray, build: Callable[[], np.ndarray], b: int,
                depth: int) -> np.ndarray:
    """Solve ``x_t = M x_{t-1} + w u_t`` from ``x_{-1} = 0`` into a new ``(T, depth, N)`` array.

    Layer 1's recurrence, from its drive in factored form: the ``(T, r)``
    inputs ``u`` and the N x r matrix ``w`` (``a W_in``). The states go into
    ``[:, 0]`` of the returned array, which is allocated only once ``M^b``
    is formed. The blocked scan of ``_linear_scan``, with its zero-start
    round replaced by the b Krylov blocks ``M^j w`` (j < b; ``b - 1``
    products of M by N x r): a chunk's zero-start end state is the sum of
    ``M^j w`` times the input ``j`` steps before its end, so all of them are
    one product of the ``(T/b, b r)`` lagged inputs by the stacked blocks.
    They are carried through ``M^b`` (``_power``, ``_carry``, which may drop
    M while it squares and then build it again), and ``b - 1`` passes fill
    rows 0 to ``b - 2`` of every chunk from the true state before them plus
    their rank-r drive. So the drive never takes a T x N matrix, and the
    states are never held beside two N x N matrices.

    The factored drive costs the Krylov blocks and a second product with
    the inputs, ``2 r ((b - 1) N + T) N`` flops, and saves a round of chunk
    passes, about ``2 T N^2``. Where it would save less than it costs, as
    with many inputs (r >= 40 at 100 units and 1000 steps, r >= 250 at
    1000 units), the drive is taken as a T x N matrix in the states and
    solved by ``_linear_scan``, which allocates the states before M^b.
    """
    steps, units = u.shape[0], w.shape[0]
    if u.shape[1] * ((b - 1) * units + steps) >= steps * units:
        states = np.empty((steps, depth, units))
        _linear_scan(np.matmul(u, w.T, out=states[:, 0]), build, b)
        return states

    def krylov(m):  # row j r + i holds (M^j w[:, i])^T
        blocks = np.empty((b, w.shape[1], units))
        blocks[0] = w.T
        for j in range(1, b):
            np.matmul(blocks[j - 1], m.T, out=blocks[j])
        return blocks.reshape(-1, units)

    m, power, blocks = _power(build, b, steps, krylov)
    states = np.empty((steps, depth, units))
    x = states[:, 0]
    ends = x[b - 1::b]
    lagged = u[: len(ends) * b].reshape(len(ends), b, u.shape[1])[:, ::-1]  # newest first
    np.matmul(lagged.reshape(len(ends), blocks.shape[0]), blocks, out=ends)
    del blocks
    _carry(ends, power)
    del power
    if m is None:
        m = build()
    for k in range(b - 1):
        rows = x[k::b]
        if k:
            np.matmul(x[k - 1::b][: len(rows)], m.T, out=rows)
        else:  # chunk 0 starts from zero, chunk c from the end of chunk c - 1
            rows[0] = 0.0
            np.matmul(ends[: len(rows) - 1], m.T, out=rows[1:])
        rows += u[k::b] @ w.T
    return states


def _solve_layers(layers: Iterable[tuple[np.ndarray, Callable[[], np.ndarray]]],
                  u: np.ndarray, leak_rate: float,
                  depth: Optional[int] = None) -> Iterator[np.ndarray]:
    """Each layer's ``(steps, units)`` states, solved from the layer below.

    ``layers`` gives each layer's ``(drive, build)`` pair, ``build()``
    returning a fresh copy of its effective matrix M, layer 1 first (as
    ``_layer_weights`` gives them); layer 1 is driven by the ``(steps,
    input_dim)`` matrix ``u``. Each layer solves ``x_t = M x_{t-1} + a d_t``
    with one chunk length for all. Layer 1 keeps its drive factored as ``u``
    and ``a W_in`` wherever that saves flops (``_input_scan``), so its
    states are allocated only once its M^b is formed. A higher layer's drive is one matrix product over all
    steps, scaled by the leak rate, and ``_linear_scan`` solves it in place.
    Each scan builds M and may build it twice, copying nothing of it. A
    higher layer's drive is dropped once its product is taken, before M is
    built, M once the layer is solved, and the layer below once the drive
    is taken, so a lazy ``layers`` keeps memory independent of depth.

    With ``depth``, the layers are solved into one ``(steps, depth, units)``
    array, layer i into ``[:, i]``, which is yielded instead once each layer
    is solved.
    """
    stack, i = None, 0
    for w_drive, build in layers:  # not enumerate: its reused tuple would keep the pair
        if i == 0:
            chunk = _chunk_length(u.shape[0], w_drive.shape[0])
            x = _input_scan(u, leak_rate * w_drive, build, chunk, depth or 1)
            stack = None if depth is None else x
            x = x[:, 0]
        else:
            x = np.matmul(x, w_drive.T, out=None if stack is None else stack[:, i])
            del w_drive
            x *= leak_rate
            _linear_scan(x, build, chunk)
        i += 1
        yield x if stack is None else stack


def _guess_layers(params: HyperParams, u: np.ndarray,
                  depth: Optional[int] = None) -> Iterator[np.ndarray]:
    """The guess ``params`` builds, solved layer by layer from the input matrix ``u``.

    ``_solve_layers`` over ``_layer_weights``: each layer's weights are built
    once the layer below is solved, so the guess holds one layer's weights
    and no ``DeepReservoir``. The states have the bits of ``run`` on
    ``init_reservoir(params)``.
    """
    weights = map(partial(_layer_weights, params), range(1, params.num_layers + 1))
    return _solve_layers(weights, u, params.leak_rate, depth)


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
    effective matrix, built from What when the layer starts: layer
    ``i - 1``'s whole trajectory is known before layer ``i`` starts, because
    it only feeds forward. The result equals repeated ``step`` up to rounding, not
    bit for bit: the products are summed in another order.
    """
    p = res.params
    u = _as_input_matrix(inputs, p.input_dim)
    layers = ((drive, partial(effective_matrix, w, p.leak_rate)) for drive, w in
              zip((res.input_weights,) + res.inter_layer_weights, res.recurrent_weights))
    for states in _solve_layers(layers, u, p.leak_rate, p.num_layers):
        pass
    return _readonly(states)
