"""The N-particle non-colliding Laguerre process.

The semigroup's parameters and the eigenvalue of the Vandermonde under the
summed generators, the semigroup by box quadrature for N <= 3 (the mesh
oracle of :mod:`determinantal`), an Euler-Maruyama simulator for the
interacting SDE, and the exact matrix Ornstein-Uhlenbeck simulator available
at integer parameter.  The transition density itself is never evaluated
pointwise: the semigroup integrates the Karlin-McGregor determinant
det[p_t(x_i, y_j)] against the test function (:func:`semigroup_apply_rows`,
and in integrated form :func:`determinantal.evaluate`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .diffusion import transition_density, transition_variance
from .kernels import (
    UnsupportedDimensionError,
    checked_chamber,
    interior_rows,
    vandermonde,
)
from .numerics import RngStream, checked_alpha, checked_alpha_int, checked_time, pointwise_values
from .rmt import radial_part


# Most Euler steps one simulate_sde call may take.  The experiments take at
# most 10^4 (dt = 1e-4 on [0, 1]); a count above the cap is a mistyped dt,
# and 10^7 steps of a 20k batch already take hours.
MAX_SDE_STEPS = 10**7

# Positivity floor of the Euler scheme: the diffusion coefficient floors X
# at it, a negative coordinate is clamped to it, and it caps the
# interaction denominator.
SDE_FLOOR_EPS = 1e-10

# Normals per block that simulate_sde's worker thread draws ahead of the
# stepper: 2^18 float64 is 2 MiB, and two blocks are in flight.
SDE_BLOCK_NORMALS = 2**18


@dataclass(frozen=True)
class SemigroupParams:
    """Parameters (alpha, t, N) of the N-particle semigroup."""

    alpha: float
    t: float
    n_dim: int

    def __post_init__(self) -> None:
        if self.n_dim < 1:
            raise ValueError("N must be >= 1")
        checked_time(self.t, zero=True)
        checked_alpha(self.alpha)


@dataclass(frozen=True)
class SdeConfig:
    """Euler scheme configuration: the time step."""

    dt: float

    def __post_init__(self) -> None:
        checked_time(self.dt, name="dt")


def lambda_eigen(n_dim: int) -> float:
    """Eigenvalue -N(N-1)/2 of the Vandermonde under the summed generators."""
    if n_dim < 1:
        raise ValueError("N must be >= 1")
    return -0.5 * n_dim * (n_dim - 1)


def semigroup_ymax(alpha: float, t: float, x_top: float, n_dim: int) -> float:
    """Truncation point for semigroup quadrature boxes.

    Top-particle mean plus twelve standard deviations of the one-particle
    noncentral chi-square law.  Its upper tail is exponential, not
    Gaussian, so the cut leaves more mass than twelve Gaussian sigmas
    would: at t = 1, alpha = -0.5 about 3.1e-7 of it at x = (1, 2) and
    3.7e-8 at x = (2,).  :func:`determinantal.semigroup_top` cuts further out.
    """
    w = -np.expm1(-t)
    mean_top = x_top * np.exp(-t) + (alpha + 1.0 + 2.0 * n_dim) * w
    var = transition_variance(alpha, t, x_top)
    return float(mean_top + 12.0 * np.sqrt(max(var, 1e-12)))


def _box_axis_nodes(alpha: float, y_max: float, panels: int, order: int):
    """Quadrature nodes on (0, y_max) for integrands with a y^alpha factor at 0.

    Non-integer alpha gets a node-clustered layer on [0, min(1, y_max/4)]
    and a plain composite rule above it; integer alpha is analytic at 0 and
    uses a single plain composite rule.
    """
    from .numerics import power_stretch, unit_gauss_legendre, unit_power_nodes

    if power_stretch(alpha) == 1.0:
        u, w = unit_gauss_legendre(panels, order)
        return y_max * u, y_max * w
    y_split = min(1.0, 0.25 * y_max)
    u0, w0 = unit_power_nodes(alpha, 1, order)
    u1, w1 = unit_gauss_legendre(panels, order)
    nodes = np.concatenate([y_split * u0, y_split + (y_max - y_split) * u1])
    wts = np.concatenate([y_split * w0, (y_max - y_split) * w1])
    return nodes, wts


def semigroup_apply_rows(
    params: SemigroupParams,
    x_rows: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    panels: int = 3,
    order: int = 20,
    y_max: float | None = None,
) -> np.ndarray:
    """(T_t f)(x) for a batch of anchors sharing one quadrature box: an (m,) array.

    The chamber integral of Delta(y) det[p(x_a, y_b)] f(y) / Delta(x) is
    summed over the chamber points of the box mesh: the index-ordered
    points i < j < k of its one node set, which ascends, so each point is
    sorted.  ``f`` maps an (M, N) array of such points to its (M,) values
    (any other shape raises ``ValueError``) and is called once per chamber
    point, shared across anchors.  Each row is an N-coordinate point of the
    closed non-negative chamber; a row with a tie returns 0 without a call
    of f (the prefactor vanishes there; callers mask them).
    """
    n = params.n_dim
    if n > 3:
        raise UnsupportedDimensionError("semigroup quadrature is guarded to N <= 3")
    x_rows = checked_chamber(np.atleast_2d(x_rows), nonneg=True, ndim=2, name="anchor rows")
    if x_rows.shape[1] != n:
        raise ValueError(f"a {n}-particle semigroup takes no anchor rows of shape {x_rows.shape}")
    if params.t == 0:
        return pointwise_values(f, x_rows)
    valid = interior_rows(x_rows)
    out = np.zeros(x_rows.shape[0])
    if not np.any(valid):
        return out
    if y_max is None:
        y_max = semigroup_ymax(params.alpha, params.t, float(np.max(x_rows)), n)
    nodes, wts = _box_axis_nodes(params.alpha, y_max, panels, order)
    rows = x_rows[valid]
    chamber = np.array(list(combinations(range(nodes.size), n)))  # (C, N)
    pts = nodes[chamber]
    weight = vandermonde(pts) * np.prod(wts[chamber], axis=-1) * pointwise_values(f, pts)
    # p(x_a, node_k) for every row, (m, N, K); det[p(x_a, y_b)] per chamber point, (m, C),
    # from C-ordered matrices, so that each row's sum below runs as for that row alone
    p = transition_density(params.alpha, params.t, rows[:, :, None], nodes[None, None, :])
    det = np.linalg.det(np.ascontiguousarray(np.moveaxis(p[:, :, chamber], 1, 2)))
    pref = np.exp(-lambda_eigen(n) * params.t) / vandermonde(rows)
    out[valid] = pref * np.sum(det * weight, axis=-1)
    return out


def semigroup_apply(
    params: SemigroupParams,
    x,
    f: Callable[[np.ndarray], np.ndarray],
    panels: int = 3,
    order: int = 20,
    y_max: float | None = None,
) -> float:
    """(T_t f)(x) by box quadrature, as in :func:`semigroup_apply_rows`.

    At t > 0 the anchor must be strictly interior.
    """
    x = checked_chamber(x, nonneg=True, strict=params.t > 0)
    return float(semigroup_apply_rows(params, x[None, :], f, panels, order, y_max)[0])


class _EulerState:
    """The Euler scheme's state, one array per coordinate, stepped in place.

    Every step reuses the same preallocated arrays.  Each operation and its
    grouping are those of the plain expressions in :func:`simulate_sde`'s
    docstring, so the bits are too: ``xi + drift * dt`` is summed as
    ``drift * dt + xi`` (addition commutes exactly), and a term ``-q`` after
    the first is subtracted as ``q`` (``d + (-q)`` is ``d - q``).
    """

    def __init__(self, alpha: float, x0: np.ndarray, batch: int, dt: float, eps: float):
        n = x0.size
        self.alpha, self.dt, self.eps = alpha, dt, eps
        self.sq_dt = np.sqrt(dt)
        self.xs = [np.full(batch, v) for v in x0]
        self.new = [np.empty(batch) for _ in range(n)]
        self.two_x = [np.empty(batch) for _ in range(n)]
        self.gaps = {(i, j): np.empty(batch) for i in range(n) for j in range(i + 1, n)}
        # coordinate i's interaction terms in ascending j, as (gap, plus):
        # 2 x_i / gap for j < i (plus) and -(2 x_i / gap) for j > i
        self.terms = [
            [(self.gaps[min(i, j), max(i, j)], j < i) for j in range(n) if j != i]
            for i in range(n)
        ]
        self.acc, self.q, self.noise, self.spare = (np.empty(batch) for _ in range(4))
        self.below = np.empty(batch, dtype=bool)

    def step(self, z: np.ndarray) -> None:
        """One Euler step; ``z`` is the step's (batch, N) normal block."""
        xs, new, two_x = self.xs, self.new, self.two_x
        acc, q, noise, eps = self.acc, self.q, self.noise, self.eps
        n = len(xs)
        for i, xi in enumerate(xs):
            np.multiply(xi, 2.0, out=two_x[i])
        for (i, j), gap in self.gaps.items():
            np.subtract(xs[j], xs[i], out=gap)
            np.maximum(gap, eps, out=gap)
        for i, xi in enumerate(xs):
            drift = new[i]
            np.subtract(self.alpha, xi, out=drift)
            drift += 1.0
            if n > 1:
                (gap, plus), *rest = self.terms[i]
                np.divide(two_x[i], gap, out=acc)
                if not plus:
                    np.negative(acc, out=acc)
                for gap, plus in rest:
                    np.divide(two_x[i], gap, out=q)
                    if plus:
                        acc += q
                    else:
                        acc -= q
                drift += acc
            # doubling is exact, so max(2x, 2 eps) is 2 max(x, eps)
            np.maximum(two_x[i], 2.0 * eps, out=noise)
            np.sqrt(noise, out=noise)
            noise *= self.sq_dt
            noise *= z[:, i]
            drift *= self.dt
            drift += xi
            drift += noise
            np.less(drift, 0.0, out=self.below)
            np.copyto(drift, eps, where=self.below)
        spare = self.spare
        for r in range(n):
            for i in range(r % 2, n - 1, 2):
                lo, hi = new[i], new[i + 1]
                np.minimum(lo, hi, out=spare)
                np.maximum(lo, hi, out=hi)
                new[i], spare = spare, lo
        self.spare = spare
        self.xs, self.new = new, xs


def simulate_sde(
    alpha: float,
    x0,
    t_end: float,
    cfg: SdeConfig,
    rng: RngStream,
    size: int | None = None,
):
    """Euler-Maruyama endpoint of the interacting square-root SDE.

    dX^i = sqrt(2 X^i) dB^i + (alpha + 1 - X^i + sum_{j != i} 2 X^i /
    (X^i - X^j)) dt, with per-step safeguards: the diffusion coefficient
    floors X at ``SDE_FLOOR_EPS``, negative coordinates are clamped to the
    floor after each step, near-collisions cap the interaction denominator,
    and coordinates are re-sorted ascending.  The simulator is a
    cross-check; precision comes from the exact samplers.

    The state is one array per coordinate.  Step s reads one ``(batch, N)``
    standard normal block (coordinate i reads column i), and computes, for
    each i,

        drift = alpha - x_i + 1.0 + sum_{j != i, ascending j} term_ij
        moved = x_i + drift * dt + sqrt(max(2 x_i, 2 eps)) * sqrt(dt) * z[:, i]

    with term_ij = 2 x_i / max(x_i - x_j, eps) for j < i and
    -(2 x_i / max(x_j - x_i, eps)) for j > i, clamps a negative ``moved``
    to eps, and re-sorts with an odd-even transposition network of
    ``np.minimum``/``np.maximum``.

    The normals are drawn ahead in blocks of up to ``SDE_BLOCK_NORMALS``
    on one worker thread, which fills one of two ``(K, batch, N)`` buffers
    while the calling thread steps through the other.  The blocks are
    drawn in step order, so the stream is consumed exactly as by one
    ``(batch, N)`` draw per step.  The worker is joined before the call
    returns or raises, and an exception raised while drawing reaches the
    caller.

    Raises ``ValueError``, before any draw, when alpha is not a finite
    value > -1, when ``x0`` is not in the closed non-negative chamber (ties
    and a zero head are allowed; :func:`kernels.checked_chamber`), when
    ``t_end`` is not finite and > 0, when ``size`` < 1, or when
    ``t_end / dt`` exceeds ``MAX_SDE_STEPS``.
    """
    checked_alpha(alpha)
    x0 = checked_chamber(x0, nonneg=True, name="x0")
    checked_time(t_end, name="t_end")
    if size is not None and size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    steps = t_end / cfg.dt
    if not steps <= MAX_SDE_STEPS:
        raise ValueError(
            f"t_end / dt = {steps:.3g} Euler steps exceeds the limit of {MAX_SDE_STEPS}"
        )
    n = x0.size
    batch = 1 if size is None else size
    n_steps = max(1, int(round(steps)))
    state = _EulerState(alpha, x0, batch, t_end / n_steps, SDE_FLOOR_EPS)
    block = min(n_steps, max(1, SDE_BLOCK_NORMALS // (batch * n)))
    starts = range(0, n_steps, block)
    buffers = [np.empty((block, batch, n)) for _ in range(min(2, len(starts)))]

    def draw(k: int) -> np.ndarray:
        z = buffers[k % 2][: min(block, n_steps - starts[k])]
        rng.gen.standard_normal(out=z)
        return z

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="simulate_sde-normals") as worker:
        pending = worker.submit(draw, 0)
        for k in range(len(starts)):
            z_block = pending.result()
            if k + 1 < len(starts):
                pending = worker.submit(draw, k + 1)
            for z in z_block:
                state.step(z)
    x = np.stack(state.xs, axis=1)
    return x[0] if size is None else x


def simulate_matrix_ou(
    alpha_int: int,
    x0,
    t: float,
    rng: RngStream,
    size: int | None = None,
):
    """Exact-in-law endpoint draw via the rectangular matrix OU evolution.

    Pads diag(sqrt(x0)) with alpha zero rows to an (N+alpha) x N matrix and
    applies the exact Gaussian update M_t = e^(-t/2) M_0 +
    sqrt((1 - e^-t)/2) G (real and imaginary parts of G standard normal per
    entry); returns the ordered spectrum of M_t* M_t.  The (rate, scale)
    normalization is pinned by the N = 1 agreement with the exact
    one-particle sampler.
    """
    alpha_int = checked_alpha_int(alpha_int)
    checked_time(t)
    x0 = checked_chamber(x0, nonneg=True, name="x0")
    n = x0.size
    m_rows = n + alpha_int
    m0 = np.zeros((m_rows, n), dtype=complex)
    m0[:n, :n] = np.diag(np.sqrt(x0))
    batch = 1 if size is None else size
    g = rng.gen.standard_normal((batch, m_rows, n)) + 1j * rng.gen.standard_normal(
        (batch, m_rows, n)
    )
    scale = np.sqrt(0.5 * -np.expm1(-t))
    mt = np.exp(-0.5 * t) * m0[None, :, :] + scale * g
    vals = radial_part(mt)
    return vals[0] if size is None else vals
