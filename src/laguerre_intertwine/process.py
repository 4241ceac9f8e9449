"""The N-particle non-colliding Laguerre process.

The semigroup's parameters, the Vandermonde's eigenvalue under the summed
generators, the one tail cut of the semigroup integrals
(:func:`semigroup_top`), the semigroup by box quadrature for N <= 3 (the
mesh oracle of :mod:`determinantal`), a simulator for the interacting SDE
(a drift-implicit step in Y = sqrt(X) for alpha > -1/2, Euler-Maruyama
for alpha in (-1, -1/2]), and the exact matrix Ornstein-Uhlenbeck
simulator available at integer parameter.  The transition density
itself is never evaluated pointwise: the semigroup integrates the
Karlin-McGregor determinant det[p_t(x_i, y_j)] against the test function
(:func:`semigroup_apply_rows`, and in integrated form
:func:`determinantal.evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import log, sqrt
from typing import Callable

import numpy as np

from .diffusion import transition_density
from .kernels import UnsupportedDimensionError, checked_chamber, vandermonde
from .numerics import (
    RngStream, checked_alpha, checked_alpha_int, checked_int, checked_size, checked_time, gauss_rule,
    pointwise_values,
)
from .rmt import radial_part


# Most time steps one simulate_sde call may take.  The experiments take
# 10^3 at the default dt (1e-3 on [0, 1]); a count above the cap is a
# mistyped dt, and 10^7 steps of a 20k batch already take hours.
MAX_SDE_STEPS = 10**7

# Positivity floor of the Euler scheme (alpha <= -1/2 only): the diffusion
# coefficient floors X at it, a negative coordinate is clamped to it, and
# it caps the interaction denominator.
SDE_FLOOR_EPS = 1e-10

# The drift-implicit step's Newton solve.  A path stops once a Newton step
# moves each coordinate by at most _NEWTON_TOL of its distance to the
# nearest wall of the chamber (0 or a neighbour): Newton's error after that
# step is of order _NEWTON_TOL^2 (about 4e-15) of the distance.  A step of
# at most _NEWTON_FULL of those distances is taken whole (it stays inside,
# where Newton converges quadratically); a longer
# one is halved until it stays inside and passes the Armijo test.  From the
# explicit step most paths stop in their second round.  A path still moving
# after _NEWTON_ROUNDS rounds, or whose step _NEWTON_HALVINGS halvings do
# not make acceptable, raises.
_NEWTON_TOL = 2.0**-24
_NEWTON_FULL = 0.25
_NEWTON_ROUNDS = 50
_NEWTON_HALVINGS = 60
_ARMIJO = 1e-4

# Normals per block that simulate_sde's worker thread draws ahead of the
# stepper: 2^18 float64 is 2 MiB, and two blocks are in flight.
SDE_BLOCK_NORMALS = 2**18

# The semigroup integrals end where the transition density from the top
# anchor coordinate falls below e^-TAIL_EXPONENT of its peak (semigroup_top),
# and the semigroup step of determinantal keeps the Poisson weights and Gamma
# densities of its mixture down to e^-TAIL_EXPONENT of their peaks.
TAIL_EXPONENT = 40.0


@dataclass(frozen=True)
class SemigroupParams:
    """Parameters (alpha, t, N) of the N-particle semigroup."""

    alpha: float
    t: float
    n_dim: int

    def __post_init__(self) -> None:
        checked_int(self.n_dim, 1, "N")
        checked_time(self.t, zero=True)
        checked_alpha(self.alpha)


@dataclass(frozen=True)
class SdeConfig:
    """SDE scheme configuration: the time step."""

    dt: float

    def __post_init__(self) -> None:
        checked_time(self.dt, name="dt")


def lambda_eigen(n_dim: int) -> float:
    """Eigenvalue -N(N-1)/2 of the Vandermonde under the summed generators."""
    n_dim = checked_int(n_dim, 1, "N")
    return -0.5 * n_dim * (n_dim - 1)


def semigroup_top(params: SemigroupParams, x_top: float) -> float:
    """Where the semigroup integrals over y end, for anchors up to ``x_top``.

    The transition density p_t(x, y) falls off as
    exp(-(sqrt(y) - sqrt(x e^-t))^2 / (1 - e^-t)) times powers of y, so it
    is below e^-TAIL_EXPONENT of its peak beyond
    y = (sqrt(x e^-t) + sqrt(TAIL_EXPONENT (1 - e^-t)))^2.  For alpha > 0
    the powers of y carry mass beyond that cut: from x = 0 the density is
    y^alpha e^(-y/w) up to a factor, w = 1 - e^-t, which falls to
    e^-TAIL_EXPONENT of its peak at y = w q, q > alpha the root of
    q - alpha - alpha log(q / alpha) = TAIL_EXPONENT; the top is the larger
    of the two cuts.
    """
    w = -np.expm1(-params.t)
    top = float((np.sqrt(x_top * np.exp(-params.t)) + np.sqrt(TAIL_EXPONENT * w)) ** 2)
    alpha = params.alpha
    if alpha > 0:
        # Newton on the convex, increasing left side from a start where it is
        # positive: the iterates fall to the root, within rounding in six steps
        # for alpha up to 1e3
        q = alpha + TAIL_EXPONENT + sqrt(TAIL_EXPONENT * (TAIL_EXPONENT + 2.0 * alpha))
        for _ in range(6):
            q -= (q - alpha - alpha * log(q / alpha) - TAIL_EXPONENT) / (1.0 - alpha / q)
        top = max(top, w * q)
    return top


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
    non-negative chamber: at t = 0, where the semigroup is the identity, of
    the closed one; at t > 0 strictly interior
    (:class:`kernels.DegenerateAnchorError` otherwise).  The box (0, ``y_max``)
    ends by default at :func:`semigroup_top` of the largest coordinate, and
    takes the nodes of :func:`numerics.gauss_rule` for y^alpha at 0.
    """
    n = params.n_dim
    if n > 3:
        raise UnsupportedDimensionError("semigroup quadrature is guarded to N <= 3")
    x_rows = checked_chamber(np.atleast_2d(x_rows), nonneg=True, strict=params.t > 0, ndim=2,
                             name="anchor rows")
    if x_rows.shape[1] != n:
        raise ValueError(f"a {n}-particle semigroup takes no anchor rows of shape {x_rows.shape}")
    if params.t == 0:
        return pointwise_values(f, x_rows)
    if y_max is None:
        y_max = semigroup_top(params, float(np.max(x_rows)))
    nodes, wts = map(np.ravel, gauss_rule([0.0, y_max], order, params.alpha, panels))
    chamber = np.array(list(combinations(range(nodes.size), n)))  # (C, N)
    pts = nodes[chamber]
    weight = vandermonde(pts) * np.prod(wts[chamber], axis=-1) * pointwise_values(f, pts)
    # p(x_a, node_k) for every row, (m, N, K); det[p(x_a, y_b)] per chamber point, (m, C),
    # from C-ordered matrices, so that each row's sum below runs as for that row alone
    p = transition_density(params.alpha, params.t, x_rows[:, :, None], nodes[None, None, :])
    det = np.linalg.det(np.ascontiguousarray(np.moveaxis(p[:, :, chamber], 1, 2)))
    pref = np.exp(-lambda_eigen(n) * params.t) / vandermonde(x_rows)
    return pref * np.sum(det * weight, axis=-1)


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
    """The Euler scheme's state: one (batch, N) array, each row ascending."""

    def __init__(self, alpha: float, x0: np.ndarray, batch: int, dt: float):
        self.alpha, self.dt, self.sq_dt = alpha, dt, np.sqrt(dt)
        self.x = np.tile(x0, (batch, 1))

    def step(self, z: np.ndarray) -> None:
        """One Euler step; ``z`` is the step's (batch, N) normal block."""
        x, eps = self.x, SDE_FLOOR_EPS
        two_x = 2.0 * x
        # each coordinate's interaction terms are summed in ascending j before
        # they join the drift: that order fixes the endpoints' bits
        inter = np.zeros_like(x)
        for j in range(x.shape[1]):
            xj = x[:, j, None]
            inter[:, j + 1 :] += two_x[:, j + 1 :] / np.maximum(x[:, j + 1 :] - xj, eps)
            inter[:, :j] -= two_x[:, :j] / np.maximum(xj - x[:, :j], eps)
        drift = self.alpha - x + 1.0 + inter
        noise = np.sqrt(2.0 * np.maximum(x, eps)) * self.sq_dt * z
        moved = x + drift * self.dt + noise
        self.x = np.sort(np.where(moved < 0, eps, moved), axis=1)


class _ImplicitState:
    """The drift-implicit step in Y = sqrt(X), one array per coordinate.

    For alpha > -1/2 the process is Y = sqrt(X) with additive noise,
    dY = dB / sqrt(2) + grad U(Y) dt, where

        U(y) = ((alpha + 1/2) / 2) sum_i log y_i - sum_i y_i^2 / 4
               + (1/2) sum_{i<j} log(y_j^2 - y_i^2)

    is strictly concave on the open chamber 0 < y_1 < ... < y_N.  A step
    draws c = y + sqrt(dt / 2) z and moves to the unique maximiser y' of
    dt U(y') - |y' - c|^2 / 2, the root of G(y') = c - y' + dt grad U(y')
    in the chamber (Alfonsi's implicit scheme for the squared Bessel and
    CIR processes, applied to the particle system).  So every step ends
    strictly inside the chamber, with no floor, clamp or re-sort.

    N = 1 solves the quadratic (1 + dt/2) y'^2 - c y' - dt a = 0,
    a = (alpha + 1/2) / 2, in the form that cancels nothing for either sign
    of c.  N >= 2 runs a damped Newton solve per path on the arrays of the
    paths not yet converged.  It starts from the explicit step c + dt grad
    U(y), which is c plus the previous step's displacement y' - c, where
    that lies inside the chamber, else from the current state moved off the
    walls (each coordinate at least sqrt(dt / 2) above the one below it and
    above 0, which separates a tie or a zero head of the start).  The Newton
    system (I - dt Hess U) d = G is solved by elimination on the
    per-coordinate arrays (its matrix is symmetric and at least I), with the
    head's row that of y_0 G_0 where the head moves toward 0.  A step that
    moves no coordinate by more than a quarter of its distance to the
    nearest wall is taken whole; a longer one is halved until it stays
    inside the chamber and decreases the merit by the Armijo rule.
    """

    def __init__(self, alpha: float, x0: np.ndarray, batch: int, dt: float):
        self.a2 = alpha + 0.5  # 2 a
        self.k = 0.5 * dt
        self.noise = np.sqrt(0.5 * dt)
        self.ys = [np.full(batch, v) for v in np.sqrt(x0)]
        if x0.size > 1:
            # the explicit step's displacement dt grad U, from the start moved off
            # the walls (a tie or a zero head has no drift); later the step's y' - c
            self.shift = [self.k * t for t in self._drift(self._off_walls(self.ys))[0]]

    @property
    def x(self) -> np.ndarray:
        return np.stack([y * y for y in self.ys], axis=1)

    def step(self, z: np.ndarray) -> None:
        """One implicit step; ``z`` is the step's (batch, N) normal block."""
        c = [y + self.noise * z[:, i] for i, y in enumerate(self.ys)]
        if len(c) == 1:
            c = c[0]
            quad, b = 1.0 + self.k, self.k * self.a2
            u = np.sqrt(c * c + 4.0 * quad * b)
            u += np.abs(c)
            y = 2.0 * b / u
            np.divide(u, 2.0 * quad, out=y, where=c >= 0)
            self.ys = [y]
            return
        ys = self._solve(c)
        self.shift = [y - ci for y, ci in zip(ys, c)]
        self.ys = ys

    def _off_walls(self, y):
        """y with each coordinate at least sqrt(dt / 2) above the one below it and
        above 0: a point strictly inside the chamber."""
        out, lo = [], 0.0
        for v in y:
            lo = np.maximum(v, lo + self.noise)
            out.append(lo)
        return out

    def _drift(self, y):
        """t = 2 grad U(y), with a2 / y and each pair's (i, j, 1/(y_j - y_i), 1/(y_j + y_i))."""
        ainv = [self.a2 / v for v in y]
        t = [ai - v for ai, v in zip(ainv, y)]
        pairs = []
        for i, j in combinations(range(len(y)), 2):
            p = 1.0 / (y[j] - y[i])
            q = 1.0 / (y[j] + y[i])
            t[i] += q - p
            t[j] += q + p
            pairs.append((i, j, p, q))
        return t, ainv, pairs

    def _residual(self, y, c):
        """G = c - y + dt grad U(y), and the terms of the Newton matrix."""
        t, ainv, pairs = self._drift(y)
        return [self.k * ti - v + ci for ti, v, ci in zip(t, y, c)], ainv, pairs

    def _newton(self, y, ainv, pairs, g):
        """d with (I - dt Hess U(y)) d = g, by elimination without pivoting."""
        n, k = len(y), self.k
        m = [[None] * n for _ in range(n)]  # upper triangle
        diag = [1.0 + ai / v for ai, v in zip(ainv, y)]
        for i, j, p, q in pairs:
            pp, qq = p * p, q * q
            h = pp + qq
            diag[i] += h
            diag[j] += h
            m[i][j] = k * (qq - pp)
        for i in range(n):
            m[i][i] = k * diag[i] + 1.0
        # toward the wall at 0 (G_0 < 0) the head's row is Newton's for y_0 G_0, in
        # which the term dt a / y_0 cancels: where that term is small, the plain row
        # would only halve y_0 per round on the way down to a root near 0
        m[0][0] = m[0][0] - np.minimum(g[0], 0.0) / y[0]
        b = list(g)
        for r in range(n):
            for i in range(r + 1, n):
                f = m[r][i] / m[r][r]
                for j in range(i, n):
                    m[i][j] = m[i][j] - f * m[r][j]
                b[i] = b[i] - f * b[r]
        d = [None] * n
        for r in reversed(range(n)):
            acc = b[r]
            for j in range(r + 1, n):
                acc = acc - m[r][j] * d[j]
            d[r] = acc / m[r][r]
        return d

    @staticmethod
    def _inside(y):
        ok = y[0] > 0
        for lo, hi in zip(y, y[1:]):
            ok &= hi > lo
        return ok

    @staticmethod
    def _step_ratio(y, d):
        """The largest ratio of a coordinate's move |d_i| to its distance from the
        nearest wall (0 or a neighbour), per row."""
        gaps = [y[0]] + [hi - lo for lo, hi in zip(y, y[1:])]
        walls = [np.minimum(lo, hi) for lo, hi in zip(gaps, gaps[1:])] + [gaps[-1]]
        ratio = np.abs(d[0]) / walls[0]
        for di, wall in zip(d[1:], walls[1:]):
            np.maximum(ratio, np.abs(di) / wall, out=ratio)
        return ratio

    def _solve(self, c):
        """The maximiser for every path, as new arrays."""
        y = [ci + si for ci, si in zip(c, self.shift)]
        outside = ~self._inside(y)
        if outside.any():
            for v, b in zip(y, self._off_walls(self.ys)):
                np.copyto(v, b, where=outside)
        out, rows = y, None  # y holds the rows ``rows`` of out (None: all of them)
        g, ainv, pairs = self._residual(y, c)
        for _ in range(_NEWTON_ROUNDS):
            d = self._newton(y, ainv, pairs, g)
            ratio = self._step_ratio(y, d)
            done = ratio <= _NEWTON_TOL
            if done.any():
                keep = np.flatnonzero(~done)
                rest = [v[keep] for v in y]
                for v, dv in zip(y, d):
                    v += dv
                if rows is not None:
                    for o, v in zip(out, y):
                        o[rows] = v
                if keep.size == 0:
                    return out
                rows = keep if rows is None else rows[keep]
                y, c, d, g = rest, *([v[keep] for v in a] for a in (c, d, g))
                ratio = ratio[keep]
            y, g, ainv, pairs = self._line_search(y, c, d, g, ratio <= _NEWTON_FULL)
            if rows is None:
                out = y
        raise RuntimeError(
            f"implicit SDE step: Newton did not converge in {_NEWTON_ROUNDS} rounds"
        )

    def _line_search(self, y, c, d, g, full):
        """The new point and its residual terms after the Newton step ``d``: the
        step whole on the rows ``full``, elsewhere halved per row until it stays
        inside the chamber and decreases the merit (:meth:`_merit`) by the
        Armijo rule."""
        trial = [v + dv for v, dv in zip(y, d)]
        if not full.all():
            rows = np.flatnonzero(~full)
            y_r, c_r, d_r, g_r = ([v[rows] for v in a] for a in (y, c, d, g))
            merit = self._merit(y_r, c_r, g_r)
            start, lam = merit(g_r, y_r[0]), 1.0
            for _ in range(_NEWTON_HALVINGS):
                moved = [v + lam * dv for v, dv in zip(y_r, d_r)]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    g_moved = self._residual(moved, c_r)[0]
                    decrease = merit(g_moved, moved[0]) <= (1.0 - 2.0 * _ARMIJO * lam) * start
                    ok = self._inside(moved) & decrease
                if ok.all():
                    break
                lam = np.where(ok, lam, 0.5 * lam)
            else:
                raise RuntimeError(
                    f"implicit SDE step: {_NEWTON_HALVINGS} halvings of a Newton step "
                    "found no decrease"
                )
            for v, v_rows in zip(trial, moved):
                v[rows] = v_rows
        return (trial, *self._residual(trial, c))

    def _merit(self, y, c, g):
        """The merit of the line search from y: sum_i (w_i R_i)^2 for the residual R
        whose Newton step was taken, R_0 = y_0 G_0 on the rows whose head moves
        toward 0 (G_0 < 0) and G otherwise, so that the step's slope along it is
        -2 times its value.  The weights, fixed at y, are 1 / the sum of the
        magnitudes of the terms of R_i there, so that a coordinate whose
        residual is at its rounding does not hide the others."""
        k = self.k
        _, ainv, pairs = self._drift(y)
        size = [np.abs(ci) + (1.0 + k) * v + k * ai for ci, v, ai in zip(c, y, ainv)]
        for i, j, p, q in pairs:
            size[i] += k * (p + q)
            size[j] += k * (p + q)
        toward = g[0] < 0
        size[0] *= np.where(toward, y[0], 1.0)
        weights = [1.0 / v for v in size]

        def merit(g_at, y0_at):
            r0 = g_at[0] * weights[0]
            np.multiply(r0, y0_at, out=r0, where=toward)
            return r0 * r0 + sum((v * w) ** 2 for v, w in zip(g_at[1:], weights[1:]))

        return merit


def simulate_sde(
    alpha: float,
    x0,
    t_end: float,
    cfg: SdeConfig,
    rng: RngStream,
    size: int | None = None,
):
    """Endpoint of the interacting square-root SDE by a time-stepping scheme.

    dX^i = sqrt(2 X^i) dB^i + (alpha + 1 - X^i + sum_{j != i} 2 X^i /
    (X^i - X^j)) dt.  The simulator is a cross-check; precision comes from
    the exact samplers.  Step s reads one ``(batch, N)`` standard normal
    block (coordinate i reads column i).

    For alpha > -1/2 each step is the drift-implicit step in Y = sqrt(X)
    of :class:`_ImplicitState`: every endpoint lies strictly inside the
    chamber (positive and strictly increasing in Y), so no safeguard is
    needed, and the step does not make the rare huge excursions of the
    Euler step near a collision.  N = 1 takes a closed form; from N = 2
    each path runs a damped Newton solve, and a path that does not converge
    raises ``RuntimeError`` (the loops are capped), never a value.

    For alpha in (-1, -1/2], where the log y_i term of U vanishes or turns
    convex and Y reaches 0, each step is Euler-Maruyama on one ``(batch, N)``
    array with per-step safeguards at eps = ``SDE_FLOOR_EPS`` (used by this
    step only): the diffusion coefficient floors X at it, negative
    coordinates are clamped to it, near-collisions cap the interaction
    denominator, and each row is re-sorted ascending.  For each i it computes

        drift = alpha - x_i + 1.0 + (sum_{j != i, ascending j} term_ij)
        moved = x_i + drift * dt + sqrt(2 max(x_i, eps)) * sqrt(dt) * z[:, i]

    with term_ij = 2 x_i / max(x_i - x_j, eps) for j < i and
    -(2 x_i / max(x_j - x_i, eps)) for j > i, clamps a negative ``moved``
    to eps, and sorts each row.

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
    ``t_end`` is not finite and > 0, when ``size`` is neither None (one
    path, returned as an (N,) array) nor an int >= 0 (a stack of ``size``
    paths, (size, N); :func:`numerics.checked_size`), or when
    ``t_end / dt`` exceeds ``MAX_SDE_STEPS``.  At ``size`` 0 the result is
    an empty (0, N) array, and no worker starts.
    """
    checked_alpha(alpha)
    x0 = checked_chamber(x0, nonneg=True, name="x0")
    checked_time(t_end, name="t_end")
    batch, n = checked_size(size), x0.size
    steps = t_end / cfg.dt
    if not steps <= MAX_SDE_STEPS:
        raise ValueError(
            f"t_end / dt = {steps:.3g} time steps exceeds the limit of {MAX_SDE_STEPS}"
        )
    if batch == 0:
        return np.empty((0, n))
    n_steps = max(1, int(round(steps)))
    dt = t_end / n_steps
    if alpha > -0.5:
        state = _ImplicitState(alpha, x0, batch, dt)
    else:
        state = _EulerState(alpha, x0, batch, dt)
    block = min(n_steps, max(1, SDE_BLOCK_NORMALS // (batch * n)))
    starts = range(0, n_steps, block)
    buffers = [np.empty((block, batch, n)) for _ in range(min(2, len(starts)))]

    def draw(k: int) -> np.ndarray:
        z = buffers[k % 2][: min(block, n_steps - starts[k])]
        rng.gen.standard_normal(out=z)
        return z

    # imported here, by its one user: ``import laguerre_intertwine`` then loads
    # neither concurrent.futures nor the logging module it imports
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="simulate_sde-normals") as worker:
        pending = worker.submit(draw, 0)
        for k in range(len(starts)):
            z_block = pending.result()
            if k + 1 < len(starts):
                pending = worker.submit(draw, k + 1)
            for z in z_block:
                state.step(z)
    return state.x[0] if size is None else state.x


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
    n, batch = x0.size, checked_size(size)
    m_rows = n + alpha_int
    m0 = np.zeros((m_rows, n), dtype=complex)
    m0[:n, :n] = np.diag(np.sqrt(x0))
    g = rng.gen.standard_normal((batch, m_rows, n)) + 1j * rng.gen.standard_normal(
        (batch, m_rows, n)
    )
    scale = np.sqrt(0.5 * -np.expm1(-t))
    mt = np.exp(-0.5 * t) * m0[None, :, :] + scale * g
    vals = radial_part(mt)
    return vals[0] if size is None else vals
