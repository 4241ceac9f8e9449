"""Interlacing Markov kernels on Weyl chambers.

A chamber point is a plain 1-D numpy array with non-decreasing coordinates
(non-negative for the kernels carrying a parameter alpha).  The module
provides the Vandermonde determinant, the chamber check, density
evaluators and exact samplers for the paper's three kernels, and a
nested-quadrature applier that computes (kernel f)(x) for pointwise test
functions f.  The library computes (kernel f)(x) with the determinantal
engine (:mod:`determinantal`); the applier, which integrates the explicit
density over an N-fold mesh, is that engine's independent oracle, kept
here because the benchmark's tracer (``perfbench/tracing.py``) names it.

Kernels:

* ``corner``       -- uniform-Vandermonde kernel from dimension N+1 to N,
                      supported on the outer window x_k <= y_k <= x_{k+1};
* ``alpha_square`` -- same-dimension kernel with density proportional to
                      prod y_k^alpha / z_k^(alpha+1) times a Vandermonde
                      ratio, supported on the inner window
                      z_{k-1} <= y_k <= z_k (z_0 = 0);
* ``alpha_corner`` -- their composition from N+1 to N, with per-coordinate
                      segment integrals in closed form; it intertwines the
                      alpha-Laguerre process in N+1 and N dimensions.

Each kind is one row of the table ``KERNELS`` (:class:`KernelRow`): its
density, its window segments, whether it takes alpha, and whether its
segment factor is log-singular at alpha = 0.  :func:`kernel_density` and
the quadrature appliers validate through that row.  Densities and the
appliers are defined for strictly interior anchors and raise
:class:`DegenerateAnchorError` on a tie, or a zero head for the kinds that
take alpha; samplers extend continuously to tied anchors (coordinates in
zero-width windows are forced, the rest follow the weak-limit law).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from .numerics import RngStream, checked_alpha, checked_size, gauss_rule, pochhammer, pointwise_values


class DegenerateAnchorError(ValueError):
    """Anchor has tied coordinates where a density requires strict interior."""


class UnsupportedDimensionError(ValueError):
    """Operation guarded to small dimensions was asked for a larger one."""


# Steps of the secular-equation solver.  A step that the rational model
# cannot take bisects the bracket, which the first step, at the midpoint,
# halves, so even pure bisection ends within 2^-65 of the interval's width.
MAX_SECULAR_STEPS = 64
_SECULAR_TOL = 4.0 * np.finfo(float).eps
# (pole x root) entries of the pole arrays of one solve: its arrays then stay
# near 512 KiB each, in cache, whatever the row count.
_SECULAR_BLOCK = 2**16


# ---------------------------------------------------------------------------
# chambers and windows
# ---------------------------------------------------------------------------

def vandermonde(y) -> np.ndarray | float:
    """Product of pairwise differences prod_{i<j} (y_j - y_i); 1 for N <= 1."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    out = np.ones(y.shape[:-1])
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (y[..., j] - y[..., i])
    # one point gives a numpy scalar, so a division by it follows np.errstate
    return out[()]


def checked_chamber(x, nonneg: bool = False, strict: bool = False, min_len: int = 1,
                    ndim: int | None = 1, name: str = "anchor") -> np.ndarray:
    """x as a float array whose rows (last axis) are points of the Weyl chamber.

    Raises ``ValueError`` unless x has ``ndim`` axes (one or more where
    None) and at least ``min_len`` coordinates, and its coordinates are
    finite, non-decreasing, and >= 0 where ``nonneg``: the closed chamber.
    With ``strict``, a row with a tie, or with a zero head where
    ``nonneg``, raises :class:`DegenerateAnchorError`: the open chamber.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or (ndim is not None and x.ndim != ndim) or x.shape[-1] < min_len:
        rank = ">= 1" if ndim is None else ndim
        raise ValueError(f"{name} must have ndim {rank} and {min_len}+ coordinates, got shape {x.shape}")
    ordered = np.all(x[..., 1:] >= x[..., :-1])
    if not (np.all(np.isfinite(x)) and ordered) or (nonneg and np.any(x[..., 0] < 0)):
        sign = ", >= 0" if nonneg else ""
        raise ValueError(f"{name} must be finite and non-decreasing{sign}, got {x}")
    if strict and not np.all(interior_rows(x, nonneg)):
        raise DegenerateAnchorError(f"{name} must be strictly interior, got {x}")
    return x


def interior_rows(x: np.ndarray, positive_head: bool = False) -> np.ndarray:
    """Per row of the chamber points x: strictly increasing, with a head > 0 where ``positive_head``."""
    interior = np.all(x[..., 1:] > x[..., :-1], axis=-1)
    return interior & (x[..., 0] > 0) if positive_head else interior


def _window_points(breaks: tuple[int, ...], anchors: np.ndarray) -> list[np.ndarray]:
    """Per break b, the (..., N) array whose coordinate k is anchor point k + b.

    Anchor point -1 is 0.  Consecutive arrays bound the window segments.
    """
    n = anchors.shape[-1] - breaks[-1]
    padded = np.concatenate([np.zeros(anchors.shape[:-1] + (1,)), anchors], axis=-1)
    return [padded[..., b + 1 : b + 1 + n] for b in breaks]


def _in_window(breaks: tuple[int, ...], anchors: np.ndarray, y: np.ndarray) -> np.ndarray:
    points = _window_points(breaks, anchors)
    return np.all((points[0] <= y) & (y <= points[-1]), axis=-1)


# ---------------------------------------------------------------------------
# the kernel table
# ---------------------------------------------------------------------------

# Each raw density takes (alpha, anchor x, points y, weights w) and returns
# the density times the product of the weights, unchecked and off-window
# too.  The quadrature passes one node-weight array per coordinate, and a
# coordinate's factor is multiplied by its own weight before the product:
# at a head of 1e-300 the factor alone may exceed the float range where
# factor times weight does not.  Pointwise evaluation passes w = None.

def _weighted_product(factors: np.ndarray, w) -> np.ndarray:
    """prod_k factors[..., k] * w[k], or prod_k factors[..., k] when w is None."""
    if w is None:
        return np.prod(factors, axis=-1)
    out = factors[..., 0] * w[0]
    for k in range(1, factors.shape[-1]):
        out = out * (factors[..., k] * w[k])
    return out


def _ratio_power(num, den, alpha: float):
    """(num/den)^alpha, as (den/num)^-alpha for alpha < 0: numpy's fast paths
    for the exponents 1/2, 1 and 2 then serve -1/2, -1 and -2 as well."""
    return (num / den) ** alpha if alpha >= 0 else (den / num) ** -alpha


def _corner_density(alpha, x, y, w):
    """N! Delta_N(y) / Delta_{N+1}(x).

    The kernel is scale-free, so x, y and the weights are first divided by
    2^e, e the mean binary exponent of the anchor's pairwise gaps (rounded
    down; a gap beyond the float range counts with its true exponent):
    Delta(x) then stays near 1, Delta(y) / Delta(x) gains 2^(e N) and the N
    weights lose it.  Dividing by a power of two is exact, so a normal-range
    anchor gets the same bits, and a tiny, huge or widely spread one, whose
    Vandermonde alone under- or overflows, a finite density.
    """
    n = y.shape[-1]
    gaps = [x[..., j] - x[..., i] for i in range(n + 1) for j in range(i + 1, n + 1)]
    exponents = [np.where(np.isinf(g), np.finfo(float).maxexp + 1, np.frexp(g)[1]) for g in gaps]
    e = (sum(exponents) // len(gaps))[..., None]
    out = factorial(n) * vandermonde(np.ldexp(y, -e)) / vandermonde(np.ldexp(x, -e))
    if w is None:
        return np.ldexp(out, -n * e[..., 0])
    for wk in w:
        out = out * np.ldexp(wk, -e[..., 0])
    return out


def _alpha_square_density(alpha, z, y, w):
    """(alpha+1)_N prod_k (y_k/z_k)^alpha / z_k times Delta_N(y) / Delta_N(z).

    Written with bounded ratios: prod y^alpha and prod z^(alpha+1) alone
    over- or underflow at a head of 1e-300.
    """
    n = y.shape[-1]
    weight_over_z = [(1.0 if w is None else w[k]) / z[..., k] for k in range(n)]
    weight = _weighted_product(_ratio_power(y, z, alpha), weight_over_z)
    return pochhammer(alpha + 1.0, n) * weight * vandermonde(y) / vandermonde(z)


def _weighted_segment(alpha: float, y, a, b):
    """y^alpha times the integral of u^(-alpha-1) over [a, b] (0 < a); 0 when a >= b.

    Written as (y/a)^alpha (1 - (a/b)^alpha) / alpha with
    (a/b)^alpha = exp(alpha log(a/b)): for y <= a both factors are bounded,
    where a^-alpha and y^alpha alone leave the float range.  log(a/b) is
    log1p((a - b)/b) for a/b > 1/2, accurate as a approaches b, and
    log(a/b) below, where (a - b)/b rounds to -1.  For |alpha| < 1e-12,
    where 1/alpha may overflow, (1 - (a/b)^alpha) / alpha is taken to
    second order in alpha, which is log(b/a) at alpha = 0.
    """
    ratio = a / b
    log_ratio = np.where(ratio > 0.5, np.log1p((a - b) / b), np.log(ratio))
    if abs(alpha) < 1e-12:
        integral = -log_ratio * (1.0 + 0.5 * alpha * log_ratio)
    else:
        integral = np.expm1(alpha * log_ratio) * (-1.0 / alpha)
    return np.where(b > a, _ratio_power(y, a, alpha) * integral, 0.0)


def _alpha_corner_density(alpha, x, y, w):
    """N! (alpha+1)_N Delta_N(y) / Delta_{N+1}(x) times prod_k of the weighted
    segment integral from x_k v y_k to x_{k+1} ^ y_{k+1} (y_{N+1} = +inf).

    A segment is empty, and the density 0, unless y_k < y_{k+1}.
    """
    n = y.shape[-1]
    upper = np.concatenate([y[..., 1:], np.full(y.shape[:-1] + (1,), np.inf)], axis=-1)
    seg = _weighted_segment(alpha, y, np.maximum(x[..., :-1], y), np.minimum(x[..., 1:], upper))
    weight = _weighted_product(seg, w)
    return factorial(n) * pochhammer(alpha + 1.0, n) * vandermonde(y) / vandermonde(x) * weight


@dataclass(frozen=True)
class KernelRow:
    """What every entry point knows about one kernel kind.

    ``breaks`` lays out the window: coordinate k of y runs over the anchor
    points k + b, b in ``breaks`` (point -1 is 0).  The first and last
    points bound the interlacing window, consecutive points bound the
    segments on which the density is smooth (the quadrature panels), and
    the last break is the number of coordinates the kernel drops.

    ``takes_alpha`` is one fact in three parts: the kind takes a finite
    alpha > -1, its density carries y^alpha at y = 0 (so its anchors are
    non-negative, and the mesh clusters its nodes for y^alpha), and it is
    defined only at anchors whose head is > 0.
    """

    density: Callable[[float | None, np.ndarray, np.ndarray, list | None], np.ndarray]
    breaks: tuple[int, ...]
    takes_alpha: bool

    @property
    def dim_drop(self) -> int:
        return self.breaks[-1]


KERNELS: dict[str, KernelRow] = {
    # kind: KernelRow(density, breaks, takes_alpha)
    "corner": KernelRow(_corner_density, (0, 1), False),
    "alpha_square": KernelRow(_alpha_square_density, (-1, 0), True),
    "alpha_corner": KernelRow(_alpha_corner_density, (-1, 0, 1), True),
}


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use, plus its parameter where one is required."""

    kind: str  # a key of KERNELS
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNELS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.row.takes_alpha:
            checked_alpha(self.alpha)
        elif self.alpha is not None:
            raise ValueError(f"kernel {self.kind!r} takes no alpha")

    @property
    def row(self) -> KernelRow:
        return KERNELS[self.kind]


def interior_anchor(spec: KernelSpec, x, ndim: int | None = 1) -> np.ndarray:
    """The anchor(s) x as a float array, each row strictly interior for the kernel.

    The anchors are checked by :func:`checked_chamber`, non-negative for
    the kinds that take alpha.  A tie, or a zero head for those kinds,
    raises :class:`DegenerateAnchorError`; so does, as ``ValueError``, a
    subnormal coordinate there: the density exceeds the float range, and
    its quadrature loses the digits of the subnormal.
    """
    row = spec.row
    x = checked_chamber(x, row.takes_alpha, strict=True, min_len=row.dim_drop + 1, ndim=ndim,
                        name=f"{spec.kind} anchor")
    if row.takes_alpha and np.any((x > 0) & (x < np.finfo(float).tiny)):
        raise ValueError(f"{spec.kind} density exceeds the float range at a subnormal anchor")
    return x


def _window_density(row: KernelRow, alpha, x: np.ndarray, y: np.ndarray, w=None) -> np.ndarray:
    """The density (times its weights, see above) on the window, 0 off it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = row.density(alpha, x, y, w)
    return np.where(_in_window(row.breaks, x, y), val, 0.0)


def kernel_density(spec: KernelSpec, x, y):
    """Density of the chosen kernel at anchor x, evaluated at y; zero off-window.

    ``x`` is one anchor (d,) or anchor rows (..., d), broadcast against the
    finite points y (..., N).  Every anchor must be strictly interior
    (:class:`DegenerateAnchorError` otherwise).  The density is finite on
    the window except where a power of y is singular, at a zero coordinate
    of y; anywhere else a value that is not finite (an anchor whose
    Vandermonde under- or overflows) raises ``ValueError``.
    """
    x = interior_anchor(spec, x, ndim=None)
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (x.shape[-1] - spec.row.dim_drop,):
        raise ValueError(f"{spec.kind} anchor of length {x.shape[-1]} takes no y of {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"{spec.kind} density takes finite points y, got {y}")
    out = _window_density(spec.row, spec.alpha, x, y)
    singular = spec.row.takes_alpha and np.any(y == 0, axis=-1)
    if not np.all(np.isfinite(out) | singular):
        raise ValueError(f"{spec.kind} density leaves the float range at an anchor row")
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def sample_corner_many(x, rng: RngStream, n: int) -> np.ndarray:
    """n draws of the corner kernel at anchor x, as an (n, N) array.

    Dixon-Anderson representation: each draw is the N roots of
    sum_k w_k / (y - x_k) = 0 with w_k ~ Exp(1) independent, whose density
    is proportional to Vandermonde(y) on the outer window.  Ties in x pin
    the coordinate of their zero-width window.
    """
    n = checked_size(n, optional=False)
    x = checked_chamber(x, min_len=2)
    return _corner_roots(np.tile(x, (n, 1)), rng)


def _secular_roots(poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row, the M roots of sum_j w_j / (lam - p_j) = 0, one per [p_k, p_{k+1}].

    ``poles`` (R, M+1) has non-decreasing rows and ``weights`` (R, M+1) has
    entries >= 0; the result is (R, M).  Root k sees two contiguous slices
    of poles, 0..k below its interval and k+1..M above.  One solve
    (:func:`_secular_group`) takes as many consecutive k as fit
    ``_SECULAR_BLOCK`` pole entries with every row, each slice padded with
    zero weights to the longest, or else one k on a block of rows.  A zero
    weight adds exact zeros and each root iterates on its own, so no bit of
    a root depends on what shares its solve.
    """
    n_rows, m = poles.shape[0], poles.shape[1] - 1
    out = np.empty((n_rows, m))
    group = max((g for g in range(1, m + 1) if n_rows * g * (m + g) <= _SECULAR_BLOCK), default=1)
    rows_per_block = max(1, _SECULAR_BLOCK // (group * (m + group)))
    for i in range(0, n_rows, rows_per_block):
        block = slice(i, i + rows_per_block)
        # one column per row, so that the sums over poles run down axis 0
        pt, wt = np.ascontiguousarray(poles[block].T), np.ascontiguousarray(weights[block].T)
        for k0 in range(0, m, group):
            out[block, k0 : k0 + group] = _secular_group(pt, wt, k0, min(k0 + group, m)).T
    return out


def _secular_group(pt: np.ndarray, wt: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """Roots k0..k1-1 of each column of the poles ``pt`` and weights ``wt``.

    The root at x above its lower pole a and y below its upper pole b
    solves f = P_lo / x - P_up / y = 0: P_lo sums w * r over the poles p
    below, r = x / (x + a - p) in (0, 1], P_up likewise above with
    r = y / (y + p - b), and S_lo, S_up sum w * r^2.  A step fits
    c + S_lo / x - S_up / y to the value and slope of f, the osculating
    model of LAPACK ``dlaed4`` (Li 1993; Gu and Eisenstat 1995), and moves x
    up and y down to its root, so no nearer side is chosen in advance.  The
    first step, from the midpoint, and any step longer than half the nearer
    distance take x and y from the model's root itself (:func:`_model_point`),
    where x + e would lose the nearer one's digits.  A step that leaves the
    bracket kept by the sign of f bisects it.  A root stops once its step is
    a few ulps of the nearer distance, or the last two model steps shrink at
    a rate that puts the next one there, or f is below its rounding error;
    after ``MAX_SECULAR_STEPS`` steps at most.  A zero-width interval gives
    its pole, and so does one whose weights on a side are all zero (a Gamma
    weight that underflowed), the limit as they tend to 0: that side's pole,
    the upper one if both.  Roots are clamped into their closed intervals.
    """
    g, n = k1 - k0, pt.shape[1]
    a, b = pt[k0:k1].reshape(-1), pt[k0 + 1 : k1 + 1].reshape(-1)  # index-major
    # each side's distances from its end of the interval, all >= 0
    dl, wl = a.reshape(g, n) - pt[:k1, None], wt[:k1, None]
    du, wu = pt[k0 + 1 :, None] - b.reshape(g, n), wt[k0 + 1 :, None]
    if g > 1:  # a root's slices end at its own k: zero weights pad them
        ks = np.arange(k0, k1)[:, None]
        below, above = np.arange(k1)[:, None, None] <= ks, np.arange(k0 + 1, len(pt))[:, None, None] > ks
        dl, wl, du, wu = (np.where(mask, v, 0.0) for mask, v in ((below, dl), (below, wl), (above, du), (above, wu)))
    dl, wl, du, wu = (v.reshape(len(v), -1) for v in (dl, wl, du, wu))
    out = np.where(wu.any(axis=0), a, b)
    cols = np.flatnonzero((b > a) & wu.any(axis=0) & wl.any(axis=0))
    if cols.size == 0:
        return out.reshape(g, n)
    if cols.size < a.size or a.size == 1:
        cols = _at_least_two(cols)
        a, b = a[cols], b[cols]
        dl, wl, du, wu = (np.take(v, cols, axis=1) for v in (dl, wl, du, wu))
    h = b - a
    buf = np.empty((2, max(dl.size, du.size)))
    x = y = 0.5 * h
    lo, hi, prev = np.zeros_like(h), h, np.full_like(h, np.nan)
    root_x, root_y = np.empty_like(h), np.empty_like(h)
    live = np.arange(h.size)
    for it in range(MAX_SECULAR_STEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p_lo, s_lo = _pole_sums(dl, wl, x, buf)
            p_up, s_up = _pole_sums(du, wu, y, buf)
            t_lo, t_up = y * p_lo, x * p_up
            f = t_lo - t_up  # x * y times the sum
            flat = np.abs(f) <= 2.0 * len(pt) * np.finfo(float).eps * (t_lo + t_up)
            c = (p_lo - s_lo) / x - (p_up - s_up) / y
            if it == 0:
                nx, ny = _model_point(c, s_lo, s_up, h)
                de, done = prev, flat | (np.minimum(nx, ny) == 0)
            else:
                slope = s_lo + s_up - c * (y - x)
                e = 2.0 * f / (slope + np.sqrt(np.maximum(slope * slope + 4.0 * c * f, 0.0)))
                near, de = np.minimum(x, y), np.abs(e)
                done = flat | (de <= _SECULAR_TOL * near) | (de * (de / prev) ** 2 <= _SECULAR_TOL * near)
                nx, ny = x + e, y - e
                jump = np.flatnonzero(de > 0.5 * near)
                if jump.size:  # x + e or y - e would lose the nearer one's digits
                    nx[jump], ny[jump] = _model_point(c[jump], s_lo[jump], s_up[jump], h[jump])
                    de[jump] = np.nan
                    done[jump] |= np.minimum(nx[jump], ny[jump]) == 0
        lo, hi = np.where(f > 0, x, lo), np.where(f < 0, x, hi)
        bisect = ~(done | ((lo <= nx) & (nx <= hi)))
        if bisect.any():
            mid = 0.5 * (lo + hi)
            nx, ny, de = np.where(bisect, mid, nx), np.where(bisect, h - mid, ny), np.where(bisect, np.nan, de)
            done |= bisect & (hi - lo <= _SECULAR_TOL * np.minimum(hi, h - lo))
        if flat.any():  # f is rounding: the point stays, whatever the step says
            nx, ny = np.where(flat, x, nx), np.where(flat, y, ny)
        if done.any():
            idx = np.flatnonzero(done)
            root_x[live[idx]], root_y[live[idx]] = nx[idx], ny[idx]
            keep = _at_least_two(np.flatnonzero(~done))
            live = live[keep]
            if live.size == 0:
                break
            nx, ny, de, lo, hi, h = (v[keep] for v in (nx, ny, de, lo, hi, h))
            dl, wl, du, wu = (np.take(v, keep, axis=1) for v in (dl, wl, du, wu))
        x, y, prev = nx, ny, de
    else:
        root_x[live], root_y[live] = x, y
    out[cols] = np.clip(np.where(root_x <= root_y, a + root_x, b - root_y), a, b)
    return out.reshape(g, n)


def _pole_sums(offsets: np.ndarray, w: np.ndarray, d: np.ndarray, buf: np.ndarray):
    """Down axis 0, the sums of w * r and w * r^2 with r = d / (d + offsets), in ``buf``."""
    r = np.add(offsets, d, out=buf[0, : offsets.size].reshape(offsets.shape))
    np.divide(d, r, out=r)
    wr = np.multiply(w, r, out=buf[1, : offsets.size].reshape(offsets.shape))
    total = np.add.reduce(wr, axis=0)
    wr *= r
    return total, np.add.reduce(wr, axis=0)


def _model_point(c, s_lo, s_up, h):
    """The root of c + s_lo / x - s_up / y with x + y = h, as (x, y): the
    nearer of the two to a few ulps, the other h minus it.  Each is the
    quadratic's root in the form that cancels nothing; a root nearer than
    the float range has a zero, its pole."""
    b_lo, b_up = s_lo + s_up - c * h, s_lo + s_up + c * h
    disc = np.sqrt(np.maximum(b_lo * b_lo + 4.0 * c * s_lo * h, 0.0))
    x = np.where(b_lo > 0, 2.0 * s_lo * h / (b_lo + disc), (disc - b_lo) / (2.0 * c))
    y = np.where(b_up > 0, 2.0 * s_up * h / (b_up + disc), (b_up - disc) / (2.0 * c))
    return np.where(x <= y, x, h - y), np.where(x <= y, h - x, y)


def _at_least_two(index: np.ndarray) -> np.ndarray:
    """``index``, a lone entry repeated: numpy sums the one column of an
    (M+1, 1) array with other rounding than the columns of a wider one."""
    return np.repeat(index, 2) if index.size == 1 else index


def _corner_roots(x_rows: np.ndarray, rng: RngStream) -> np.ndarray:
    """One corner draw per anchor row: the roots with poles x and Exp(1) weights."""
    return _secular_roots(x_rows, rng.gen.standard_exponential(x_rows.shape))


def _alpha_square_roots(alpha: float, z_rows: np.ndarray, rng: RngStream) -> np.ndarray:
    """One alpha_square draw per anchor row: the roots with poles (0, z) and
    weights Gamma(alpha + 1), Exp(1), ..., Exp(1)."""
    total, n = z_rows.shape
    weights = np.empty((total, n + 1))
    weights[:, 0] = rng.gen.standard_gamma(alpha + 1.0, total)
    weights[:, 1:] = rng.gen.standard_exponential((total, n))
    return _secular_roots(np.concatenate([np.zeros((total, 1)), z_rows], axis=1), weights)


def sample_alpha_square(alpha: float, z, rng: RngStream, size: int | None = None):
    """Exact draw(s) of the same-dimension alpha kernel anchored at z.

    Dixon-Anderson representation: the draw is the N roots of
    w_0 / y + sum_k w_k / (y - z_k) = 0 with w_0 ~ Gamma(alpha + 1) and
    w_k ~ Exp(1) independent, whose density is proportional to
    prod y_k^alpha Vandermonde(y) on the inner window.  Tied anchors and a
    zero head coordinate need no special case: a zero-width window pins its
    coordinate, and the other roots follow the continuous extension.
    """
    checked_alpha(alpha)
    z = checked_chamber(z, nonneg=True)
    total = checked_size(size)
    out = _alpha_square_roots(alpha, np.tile(z, (total, 1)), rng)
    return out[0] if size is None else out


def sample_alpha_corner_rows(alpha: float, x_rows: np.ndarray, rng: RngStream) -> np.ndarray:
    """One alpha-corner draw per anchor row (anchors may differ per row).

    Used by the ensemble-projection experiments, where the anchor itself is
    random.  Each row is a corner draw z (the Dixon-Anderson roots with
    poles x and Exp(1) weights; their density is proportional to
    Vandermonde(z) on the outer window) followed by an alpha_square draw at
    z.
    """
    checked_alpha(alpha)
    x_rows = checked_chamber(np.atleast_2d(x_rows), nonneg=True, min_len=2, ndim=2, name="anchor rows")
    return _alpha_square_roots(alpha, _corner_roots(x_rows, rng), rng)


def sample_alpha_corner(alpha: float, x, rng: RngStream, size: int | None = None):
    """Exact draw(s) of the alpha corner kernel via the two-step composition.

    Samples z from the corner kernel, then y from the same-dimension alpha
    kernel anchored at z, both by their Dixon-Anderson roots, as
    :func:`sample_alpha_corner_rows` does for each of ``size`` copies of x.
    """
    checked_alpha(alpha)
    x = checked_chamber(x, nonneg=True, min_len=2)
    total = checked_size(size)
    out = _alpha_square_roots(alpha, _corner_roots(np.tile(x, (total, 1)), rng), rng)
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# quadrature application
# ---------------------------------------------------------------------------

def apply_kernel_quadrature(
    spec: KernelSpec,
    x,
    f: Callable[[np.ndarray], np.ndarray],
    panels: int = 2,
    order: int = 20,
) -> float:
    """(kernel f)(x) by nested composite Gauss-Legendre quadrature, N <= 3.

    ``f`` maps an (M, N) array of chamber points (rows non-decreasing) to
    its (M,) values; any other shape raises ``ValueError``.  The anchor
    must be strictly interior, as for :func:`kernel_density`
    (:class:`DegenerateAnchorError` otherwise).  ``ValueError`` is raised,
    rather than a NaN or an infinite value returned, for an anchor that is
    not a chamber point of the kernel, and where the density leaves the
    float range (a subnormal anchor coordinate, a window of subnormal
    width).  Each window segment takes the nodes of :func:`numerics.gauss_rule`
    for y^e at 0: e = alpha for the alpha kinds (-1/2 at alpha = 0, where
    the alpha_corner factor log(b / y) is log-singular at a small head), and
    e = 0, plain nodes, for the corner kind.
    """
    row = spec.row
    x = interior_anchor(spec, x)
    n = x.size - row.dim_drop
    if n > 3:
        raise UnsupportedDimensionError("kernel quadrature is guarded to N <= 3")

    points = _window_points(row.breaks, x)
    with np.errstate(over="ignore"):
        seg = np.concatenate([hi - lo for lo, hi in zip(points[:-1], points[1:])])
    if np.any(((seg > 0) & (seg < np.finfo(float).tiny)) | np.isinf(seg)):
        raise ValueError(f"{spec.kind} quadrature weights leave the float range: a window "
                         "segment of subnormal or infinite width")
    # per-coordinate nodes and weights, shape (K_i,)
    e = (spec.alpha if spec.alpha != 0 else -0.5) if row.takes_alpha else 0.0
    rules = [gauss_rule([p[i] for p in points], order, e, panels) for i in range(n)]
    nodes, weights = [r[0].ravel() for r in rules], [r[1].ravel() for r in rules]

    pts = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1)
    contrib = _window_density(row, spec.alpha, x, pts, np.meshgrid(*weights, indexing="ij", sparse=True))
    # a point of nonzero weight lies in its interlacing window, so its
    # coordinates are already non-decreasing: the corner and square windows
    # do not overlap, and the alpha_corner segment integral is zero unless
    # y_k < y_{k+1}
    mask = contrib != 0.0
    vals = np.zeros_like(contrib)
    vals[mask] = pointwise_values(f, pts[mask])
    total = np.sum(contrib * vals)
    # a density beyond the float range leaves a sum that is not finite; the
    # mesh itself is searched only then
    if not np.isfinite(total) and not np.all(np.isfinite(contrib)):
        raise ValueError(f"{spec.kind} density leaves the float range at the anchor")
    return float(total)


def apply_kernel_to_anchors(
    spec: KernelSpec,
    anchors: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    panels: int = 2,
    order: int = 20,
) -> np.ndarray:
    """(kernel f) at each anchor row, an (m,) array: :func:`apply_kernel_quadrature` per row.

    Every row must be strictly interior; the rows are all checked before
    the first is integrated.
    """
    anchors = interior_anchor(spec, np.atleast_2d(anchors), ndim=2)
    return np.array([apply_kernel_quadrature(spec, x, f, panels, order) for x in anchors], dtype=float)
