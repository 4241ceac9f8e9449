"""Interlacing Markov kernels on Weyl chambers.

A chamber point is a plain 1-D numpy array with non-decreasing coordinates
(non-negative for the kernels carrying a parameter alpha).  The module
provides the Vandermonde determinant, chamber predicates, density
evaluators and exact samplers for the five kernels used throughout the
package, and a nested-quadrature applier that computes (kernel f)(x) for
test functions f.

Kernels:

* ``corner``       -- uniform-Vandermonde kernel from dimension N+1 to N,
                      supported on the outer window x_k <= y_k <= x_{k+1};
* ``alpha_square`` -- same-dimension kernel with density proportional to
                      prod y_k^alpha / z_k^(alpha+1) times a Vandermonde
                      ratio, supported on the inner window
                      z_{k-1} <= y_k <= z_k (z_0 = 0);
* ``alpha_corner`` -- their composition from N+1 to N, with per-coordinate
                      segment integrals in closed form;
* ``hat_corner`` / ``hat_square`` -- positive (generally non-probability)
                      kernels weighting the window by the dual speed measure.

Each kind is one row of the table ``KERNELS`` (:class:`KernelRow`): its
density, its window segments, the alpha domain, and how its density behaves
at y = 0.  :func:`kernel_density` and the quadrature appliers validate
through that row.  Densities are defined for strictly interior anchors and
raise :class:`DegenerateAnchorError` on ties; samplers extend continuously
to tied anchors (coordinates in zero-width windows are forced, the rest
follow the weak-limit law).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from .numerics import RngStream, pochhammer, pointwise_values, power_stretch, unit_gauss_legendre


class DegenerateAnchorError(ValueError):
    """Anchor has tied coordinates where a density requires strict interior."""


class UnsupportedDimensionError(ValueError):
    """Operation guarded to small dimensions was asked for a larger one."""


class RejectionLimitError(ValueError):
    """A rejection sampler ran ``MAX_REJECTION_ROUNDS`` rounds and still waits."""


# Rounds the oracle rejection sampler ``sample_corner_rejection`` may run
# before it raises; draws that finish below the cap are unchanged by it.
MAX_REJECTION_ROUNDS = 10**7

# Steps of the secular-equation solver.  A step that the rational model
# cannot take bisects the bracket, which starts as half of the root's
# interval, so even pure bisection ends within 2^-65 of the interval's width.
MAX_SECULAR_STEPS = 64
_SECULAR_TOL = 4.0 * np.finfo(float).eps
# (pole x root) entries of one block of rows of the solver: its per-block
# arrays then stay near 512 KiB each, in cache, whatever the row count.
_SECULAR_BLOCK = 2**16
# (anchor x mesh point) entries of one chunk of anchor rows of the nested
# quadrature; each row's sum is the same whatever the chunk holds.
_MESH_CHUNK = 250_000


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


def is_chamber_point(x, nonneg: bool = False) -> bool:
    """Finite coordinates, non-decreasing, and >= 0 when ``nonneg``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        return False
    if np.any(np.diff(x) < 0):
        return False
    return not (nonneg and x[0] < 0)


def is_strict_interior(x, nonneg: bool = False) -> bool:
    """Finite coordinates, strictly increasing, and first > 0 when ``nonneg``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        return False
    if x.size > 1 and np.any(np.diff(x) <= 0):
        return False
    return not (nonneg and x[0] <= 0)


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
# factor times weight does not.  Pointwise evaluation passes w = None.  For
# the rows flagged ``power_in_weights`` the weights carry the density's power
# of y, which the density then leaves out.

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


def _hat_density(alpha, x, y, w):
    """prod_k e^(y_k) y_k^(-alpha-1), the dual speed measure; with weights,
    which carry y_k^(-alpha-1), prod_k e^(y_k) w_k."""
    if w is None:
        return np.prod(np.exp(y) * y ** (-alpha - 1.0), axis=-1)
    return _weighted_product(np.exp(y), w)


@dataclass(frozen=True)
class KernelRow:
    """What every entry point knows about one kernel kind.

    ``breaks`` lays out the window: coordinate k of y runs over the anchor
    points k + b, b in ``breaks`` (point -1 is 0).  The first and last
    points bound the interlacing window, consecutive points bound the
    segments on which the density is smooth (the quadrature panels), and
    the last break is the number of coordinates the kernel drops.
    """

    density: Callable[[float | None, np.ndarray, np.ndarray, list | None], np.ndarray]
    breaks: tuple[int, ...]
    alpha_above: float | None  # alpha must be finite and exceed this; None: no alpha
    positive_head: bool  # defined only at anchors whose head coordinate is > 0
    weight_power: tuple[float, float] | None  # (c, e): the density carries y^(c alpha + e) at y = 0
    log_segment: bool  # at alpha = 0 a segment factor is log(b / y), log-singular at y = 0
    power_in_weights: bool  # the quadrature folds y^(c alpha + e) into its weights

    @property
    def dim_drop(self) -> int:
        return self.breaks[-1]

    def endpoint_exponent(self, alpha: float | None) -> float | None:
        """The density's power of y at y = 0, when it is integrable (> -1)."""
        if self.weight_power is None:
            return None
        power = self.weight_power[0] * alpha + self.weight_power[1]
        return power if power > -1 else None

    def node_stretch(self, alpha: float | None) -> float:
        """Power of the quadrature's node map y = top * v^stretch (1: plain nodes).

        The log-singular segment factor gets the clustering of y^(-1/2): it
        matters as the head goes to 0, where plain nodes lose 1e-3 of the
        alpha_corner mass at a head of 1e-300.
        """
        exponent = self.endpoint_exponent(alpha)
        if exponent is None:
            return 1.0
        if self.log_segment and alpha == 0:
            return power_stretch(-0.5)
        return power_stretch(exponent)

    def integrable(self, alpha: float | None, rows: np.ndarray) -> np.ndarray:
        """Per anchor row: whether the density has a finite integral over the window.

        It has, unless its power of y at 0 is <= -1 and the first window
        starts at 0.
        """
        if self.weight_power is None or self.endpoint_exponent(alpha) is not None:
            return np.ones(rows.shape[:-1], dtype=bool)
        return _window_points(self.breaks, rows)[0][..., 0] > 0


KERNELS: dict[str, KernelRow] = {
    # kind: KernelRow(density, breaks, alpha_above, positive_head, weight_power, log_segment,
    #                 power_in_weights)
    "corner": KernelRow(_corner_density, (0, 1), None, False, None, False, False),
    "alpha_square": KernelRow(_alpha_square_density, (-1, 0), -1.0, True, (1.0, 0.0), False, False),
    "alpha_corner": KernelRow(_alpha_corner_density, (-1, 0, 1), -1.0, True, (1.0, 0.0), True, False),
    "hat_corner": KernelRow(_hat_density, (0, 1), -np.inf, False, (-1.0, -1.0), False, True),
    "hat_square": KernelRow(_hat_density, (-1, 0), -np.inf, True, (-1.0, -1.0), False, True),
}


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use, plus its parameter where one is required."""

    kind: str  # a key of KERNELS
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNELS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        above, alpha = self.row.alpha_above, self.alpha
        if above is None and alpha is not None:
            raise ValueError(f"kernel {self.kind!r} takes no alpha")
        if above is not None and not (alpha is not None and np.isfinite(alpha) and alpha > above):
            raise ValueError(f"kernel {self.kind!r} needs a finite alpha > {above}, got {alpha}")

    @property
    def row(self) -> KernelRow:
        return KERNELS[self.kind]


def _checked_anchors(spec: KernelSpec, anchors) -> tuple[np.ndarray, np.ndarray]:
    """The anchors as a float array (..., d), and per row whether it is strictly interior.

    Strictly interior means strictly increasing, with a head above 0 for
    the kinds flagged ``positive_head``.  Raises ``ValueError`` for anchors
    too short for the kernel, not finite, decreasing, or negative where the
    density carries a power of y; and, for such densities, for a strictly
    interior row with a subnormal coordinate: there the density exceeds the
    float range, and its quadrature loses the digits of the subnormal.
    """
    row = spec.row
    a = np.asarray(anchors, dtype=float)
    if a.ndim == 0 or a.shape[-1] < row.dim_drop + 1:
        raise ValueError(f"{spec.kind} anchor needs {row.dim_drop + 1}+ coordinates, got {a}")
    with np.errstate(over="ignore"):  # a gap beyond the float range is inf, still >= 0
        gaps = np.diff(a, axis=-1)
    nonneg = row.weight_power is not None
    if not (np.all(np.isfinite(a)) and np.all(gaps >= 0)) or (nonneg and np.any(a[..., 0] < 0)):
        kind = "non-negative chamber points" if nonneg else "chamber points"
        raise ValueError(f"{spec.kind} anchors must be finite {kind}, got {a}")
    interior = np.all(gaps > 0, axis=-1)
    if row.positive_head:
        interior &= a[..., 0] > 0
    if nonneg and np.any(interior & np.any((a > 0) & (a < np.finfo(float).tiny), axis=-1)):
        raise ValueError(f"{spec.kind} density exceeds the float range at a subnormal anchor")
    return a, interior


def interior_anchor(spec: KernelSpec, x) -> np.ndarray:
    """The anchor(s) x as a float array, each row strictly interior for the kernel.

    Raises :class:`DegenerateAnchorError` for a tie, or a zero head for the
    kinds flagged ``positive_head``, and ``ValueError`` as
    :func:`_checked_anchors` does.
    """
    x, interior = _checked_anchors(spec, x)
    if not np.all(interior):
        raise DegenerateAnchorError(f"{spec.kind} anchor must be strictly interior, got {x}")
    return x


def _window_density(row: KernelRow, alpha, x: np.ndarray, y: np.ndarray, w=None) -> np.ndarray:
    """The density (times its weights, see above) on the window, 0 off it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = row.density(alpha, x, y, w)
    return np.where(_in_window(row.breaks, x, y), val, 0.0)


def kernel_density(spec: KernelSpec, x, y):
    """Density of the chosen kernel at anchor x, evaluated at y; zero off-window.

    ``x`` is one anchor (d,) or anchor rows (..., d), broadcast against the
    points y (..., N).  Every anchor must be strictly interior
    (:class:`DegenerateAnchorError` otherwise).  The density is finite on
    the window except where a power of y is singular, at a zero coordinate
    of y; anywhere else a value that is not finite (an anchor whose
    Vandermonde under- or overflows) raises ``ValueError``.
    """
    x = interior_anchor(spec, x)
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (x.shape[-1] - spec.row.dim_drop,):
        raise ValueError(f"{spec.kind} anchor of length {x.shape[-1]} takes no y of {y.shape}")
    out = _window_density(spec.row, spec.alpha, x, y)
    singular = spec.row.weight_power is not None and np.any(y == 0, axis=-1)
    if not np.all(np.isfinite(out) | singular):
        raise ValueError(f"{spec.kind} density leaves the float range at an anchor row")
    return float(out) if out.ndim == 0 else out


def density_corner(x, y):
    """Density of the corner kernel at anchor x (length N+1), zero off-window."""
    return kernel_density(KernelSpec("corner"), x, y)


def density_alpha_square(alpha: float, z, y):
    """Density of the same-dimension alpha kernel at interior anchor z."""
    return kernel_density(KernelSpec("alpha_square", alpha), z, y)


def density_alpha_corner(alpha: float, x, y):
    """Density of the alpha corner kernel at interior anchor x (length N+1)."""
    return kernel_density(KernelSpec("alpha_corner", alpha), x, y)


def density_hat_corner(alpha: float, x, y):
    """Positive kernel: outer-window indicator times prod e^y y^(-alpha-1)."""
    return kernel_density(KernelSpec("hat_corner", alpha), x, y)


def density_hat_square(alpha: float, x, y):
    """Positive kernel: inner-window indicator times prod e^y y^(-alpha-1)."""
    return kernel_density(KernelSpec("hat_square", alpha), x, y)


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
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"the number of draws must be an integer >= 0, got {n!r}")
    x = np.asarray(x, dtype=float)
    if not is_chamber_point(x) or len(x) < 2:
        raise ValueError("anchor must be a chamber point with >= 2 coordinates")
    return _corner_roots(np.tile(x, (n, 1)), rng)


def sample_corner_rejection(x, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Independent rejection sampler for the corner kernel (oracle, N <= 4).

    Proposes y_k uniform on [x_k, x_{k+1}] and accepts with probability
    Vandermonde(y) / prod_{i<j} (x_{j+1} - x_i), a valid bound on the outer
    window.
    """
    x = interior_anchor(KernelSpec("corner"), x)
    n = len(x) - 1
    if n > 4:
        raise UnsupportedDimensionError("rejection sampling is guarded to N <= 4")
    bound = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            bound *= x[j + 1] - x[i]
    total = 1 if size is None else size
    out = np.empty((total, n))
    pending = np.arange(total)
    widths = np.diff(x)
    for _ in range(MAX_REJECTION_ROUNDS):
        if not pending.size:
            break
        u = rng.gen.random((pending.size, n))
        y = x[:-1] + u * widths
        ratio = vandermonde(y) / bound
        accept = rng.gen.random(pending.size) < ratio
        out[pending[accept]] = y[accept]
        pending = pending[~accept]
    if pending.size:
        raise RejectionLimitError(
            f"corner rejection sampler: rejection sampling still waits after {MAX_REJECTION_ROUNDS} rounds"
        )
    return out[0] if size is None else out


def _secular_roots(poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row, the M roots of sum_j w_j / (lam - p_j) = 0, one per [p_i, p_{i+1}].

    ``poles`` (R, M+1) has non-decreasing rows and ``weights`` (R, M+1) has
    entries >= 0; the result is (R, M).  Rows are solved in blocks of at
    most ``_SECULAR_BLOCK`` (pole x root) entries (or one row), so memory
    does not grow with R.  Each root is sought as sigma, its distance from
    the nearer end of its interval (of width h).  A step fits
    C + S_n / sigma + S_f / (sigma - h) to the sum's value and slope, the
    osculating model of LAPACK ``dlaed4`` (Li 1993; Gu and Eisenstat 1995),
    and moves to the model's root; a bracket kept by the sum's sign takes a
    bisection instead when that root falls outside it.  A root stops once
    its step is a few ulps or the sum is below its rounding error, and after
    ``MAX_SECULAR_STEPS`` steps at most.  A zero-width interval gives its
    pole; so does an interval whose nearer side has only zero weights (a
    Gamma weight that underflowed), the limit as those weights tend to 0.
    Roots are clamped into their closed intervals.  Each root iterates on
    its own, so no bit of it depends on the rows that share its block.
    """
    rows_per_block = max(1, _SECULAR_BLOCK // max(1, poles.shape[1] * (poles.shape[1] - 1)))
    if len(poles) > rows_per_block:
        return np.concatenate([
            _secular_roots(poles[i : i + rows_per_block], weights[i : i + rows_per_block])
            for i in range(0, len(poles), rows_per_block)
        ])
    lo_pole, hi_pole = poles[:, :-1], poles[:, 1:]
    width = hi_pole - lo_pole
    out = lo_pole.copy()
    rows, ks = np.nonzero(width > 0)
    if rows.size == 0:
        return out
    rows, ks = _at_least_two(rows), _at_least_two(ks)
    a, b, h = lo_pole[rows, ks], hi_pole[rows, ks], width[rows, ks]
    # one column per root, so that the sums over poles run down axis 0
    p = np.ascontiguousarray(poles[rows].T)
    w = np.ascontiguousarray(weights[rows].T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        from_lo = np.sum(w / (a + 0.5 * h - p), axis=0) < 0
    # offsets from the nearer pole, signed so that the far pole sits at +h:
    # the nearer side's poles have offsets <= 0, the far side's >= h
    e = p * np.where(from_lo, 1.0, -1.0) - np.where(from_lo, a, -b)
    far = e > 0
    near_w = (~far).astype(float)
    h_far = far * h
    noise = 2.0 * p.shape[0] * np.finfo(float).eps

    sig = 0.5 * h
    lo, hi = np.zeros_like(h), 0.5 * h
    root = np.empty_like(h)
    live = np.arange(h.size)
    for _ in range(MAX_SECULAR_STEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # each term's distance to its side's end pole over its own, in (0, 1]
            ratio = (sig - h_far) / (sig - e)
            # per side, p_* sums w * ratio and s_* sums w * ratio^2
            wr = w * ratio
            p_near = np.einsum("ij,ij->j", wr, near_w, optimize=False)
            p_far = np.sum(wr, axis=0) - p_near
            s_near = np.einsum("ij,ij,ij->j", wr, ratio, near_w, optimize=False)
            s_far = np.einsum("ij,ij->j", wr, ratio, optimize=False) - s_near
            # sigma times the sum: its sign, without its pole at sigma = 0
            q = sig / (sig - h)
            value = p_near + q * p_far
            flat = np.abs(value) <= noise * (p_near - q * p_far)
            c = (p_near - s_near) / sig + (p_far - s_far) / (sig - h)
            beta = s_near + s_far - c * h
            disc = np.sqrt(np.maximum(beta * beta + 4.0 * c * s_near * h, 0.0))
            step = np.where(beta > 0, 2.0 * s_near * h / (beta + disc), (disc - beta) / (2.0 * c))
        lo = np.where(value > 0, sig, lo)
        hi = np.where(value < 0, sig, hi)
        step[s_near == 0] = 0.0
        step[flat] = sig[flat]
        done = flat | (s_near == 0) | (np.abs(step - sig) <= _SECULAR_TOL * sig)
        bisect = ~(done | ((lo < step) & (step < hi)))
        step[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        done |= hi - lo <= _SECULAR_TOL * hi
        if not done.any():
            sig = step
            continue
        root[live[done]] = step[done]
        keep = _at_least_two(np.flatnonzero(~done))
        live, sig, lo, hi, h = live[keep], step[keep], lo[keep], hi[keep], h[keep]
        if live.size == 0:
            break
        w, e, near_w, h_far = (np.take(arr, keep, axis=1) for arr in (w, e, near_w, h_far))
    root[live] = sig
    out[rows, ks] = np.clip(np.where(from_lo, a + root, b - root), a, b)
    return out


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
    KernelSpec("alpha_square", alpha)  # a finite alpha > -1
    z = np.asarray(z, dtype=float)
    if not is_chamber_point(z, nonneg=True):
        raise ValueError(f"anchor must be a non-negative chamber point, got {z}")
    total = 1 if size is None else size
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
    KernelSpec("alpha_corner", alpha)  # a finite alpha > -1
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    if x_rows.ndim != 2 or x_rows.shape[1] < 2:
        raise ValueError("anchor rows need at least 2 coordinates")
    if not (np.all(np.isfinite(x_rows)) and np.all(np.diff(x_rows, axis=1) >= 0)
            and np.all(x_rows[:, 0] >= 0)):
        raise ValueError("anchor rows must be finite, non-decreasing and non-negative")
    return _alpha_square_roots(alpha, _corner_roots(x_rows, rng), rng)


def sample_alpha_corner(alpha: float, x, rng: RngStream, size: int | None = None):
    """Exact draw(s) of the alpha corner kernel via the two-step composition.

    Samples z from the corner kernel, then y from the same-dimension alpha
    kernel anchored at z, both by their Dixon-Anderson roots (see
    :func:`sample_alpha_corner_rows`).
    """
    x = np.asarray(x, dtype=float)
    if not is_chamber_point(x, nonneg=True):
        raise ValueError(f"anchor must be a non-negative chamber point, got {x}")
    total = 1 if size is None else size
    out = sample_alpha_corner_rows(alpha, np.tile(x, (total, 1)), rng)
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# quadrature application
# ---------------------------------------------------------------------------

def apply_kernel_to_anchors(
    spec: KernelSpec,
    anchors: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    panels: int = 2,
    order: int = 20,
) -> np.ndarray:
    """(kernel f)(anchor) for a batch of anchors, by nested quadrature: an (m,) array.

    ``f`` maps an (M, N) array of chamber points (rows non-decreasing) to
    its (M,) values; any other shape raises ``ValueError``.  Rows that are
    not strictly interior (a tie, or a zero head for the kinds flagged
    ``positive_head``) leave a window of zero width and evaluate to exactly
    0 without a call of f; callers pair them with vanishing prefactors.
    ``ValueError`` is raised, rather than a NaN or an infinite value
    returned, for anchors that are not chamber points of the kernel, for a
    divergent integral (a hat kernel whose power of y at 0 is <= -1 over a
    window starting at 0), and where the density leaves the float range (a
    subnormal anchor coordinate, a window of subnormal width).  Quadrature
    panels are anchored at the window segment endpoints so the integrand is
    smooth on every panel.  Anchors are processed in chunks of about
    ``_MESH_CHUNK`` mesh points.
    """
    row = spec.row
    anchors, valid = _checked_anchors(spec, np.atleast_2d(anchors))
    d = anchors.shape[-1]
    n = d - row.dim_drop
    if n > 3:
        raise UnsupportedDimensionError("kernel quadrature is guarded to N <= 3")
    out = np.zeros(anchors.shape[0])
    if not np.any(valid):
        return out
    rows = anchors[valid]
    m = rows.shape[0]
    if not np.all(row.integrable(spec.alpha, rows)):
        raise ValueError(
            f"{spec.kind} integral diverges at alpha = {spec.alpha}: its power of y "
            "at 0 is <= -1 in floating point and a window starts at 0"
        )

    # per-coordinate nodes/weights, shape (m, K_i); the alpha-weighted
    # kernels carry prod y_k^alpha, which is singular (or merely
    # non-analytic) at y = 0, so their nodes come from the power map
    # y = top * v^stretch with panel edges at the v-images of the window
    # breakpoints.  This resolves the weight even when a window's lower
    # edge sits arbitrarily close to 0 (anchors from quadrature meshes do).
    # Where the weights carry the power y^p, it is taken in v,
    # y^p dy = top^(p+1) m v^(m(p+1)-1) dv, which stays finite where the
    # node top v^m underflows to 0 (p just above -1 gives m in the hundreds).
    stretch = row.node_stretch(spec.alpha)
    power = row.weight_power[0] * spec.alpha + row.weight_power[1] if row.power_in_weights else 0.0
    points = _window_points(row.breaks, rows)
    with np.errstate(over="ignore"):
        seg = np.concatenate([hi - lo for lo, hi in zip(points[:-1], points[1:])], axis=-1)
    if np.any(((seg > 0) & (seg < np.finfo(float).tiny)) | np.isinf(seg)):
        raise ValueError(f"{spec.kind} quadrature weights leave the float range: a window "
                         "segment of subnormal or infinite width")
    nodes, weights = [], []
    u_plain, w_plain = unit_gauss_legendre(panels, order)
    for i in range(n):
        edges = [p[:, i, None] for p in points]
        node_parts, weight_parts = [], []
        if stretch > 1.0:
            top = edges[-1]
            v_edges = [(e / top) ** (1.0 / stretch) for e in edges]
            for va, vb in zip(v_edges[:-1], v_edges[1:]):
                v = va + (vb - va) * u_plain[None, :]
                node_parts.append(top * v**stretch)
                weight_parts.append(top ** (power + 1.0) * stretch * v ** (stretch * (power + 1.0) - 1.0)
                                    * (vb - va) * w_plain[None, :])
        else:
            for lo, hi in zip(edges[:-1], edges[1:]):
                node_parts.append(lo + (hi - lo) * u_plain[None, :])
                weight_parts.append((hi - lo) * w_plain[None, :] * node_parts[-1] ** power)
        nodes.append(np.concatenate(node_parts, axis=1))
        weights.append(np.concatenate(weight_parts, axis=1))

    sizes = [nd.shape[1] for nd in nodes]
    rows_per_chunk = max(1, _MESH_CHUNK // int(np.prod(sizes)))
    sums = np.empty(m)
    for start in range(0, m, rows_per_chunk):
        sl = slice(start, min(start + rows_per_chunk, m))
        mm = sl.stop - sl.start
        grids, wgrids = [], []
        for i in range(n):
            shape = [mm] + [1] * n
            shape[1 + i] = sizes[i]
            grids.append(nodes[i][sl].reshape(shape))
            wgrids.append(weights[i][sl].reshape(shape))
        pts = np.stack(np.broadcast_arrays(*grids), axis=-1)
        anchor_block = rows[sl].reshape((mm,) + (1,) * n + (d,))
        contrib = _window_density(row, spec.alpha, anchor_block, pts, wgrids)
        # a point of nonzero weight lies in its interlacing window, so its
        # coordinates are already non-decreasing: the corner, square and hat
        # windows do not overlap, and the alpha_corner segment integral is
        # zero unless y_k < y_{k+1}
        mask = contrib != 0.0
        vals = np.zeros_like(contrib)
        vals[mask] = pointwise_values(f, pts[mask])
        sums[sl] = np.sum(contrib * vals, axis=tuple(range(1, n + 1)))
        # a density beyond the float range leaves a sum that is not finite;
        # the mesh itself is searched only then
        if not np.all(np.isfinite(sums[sl])) and not np.all(np.isfinite(contrib)):
            raise ValueError(f"{spec.kind} density leaves the float range at an anchor row")
    out[valid] = sums
    return out


def apply_kernel_quadrature(
    spec: KernelSpec,
    x,
    f: Callable[[np.ndarray], np.ndarray],
    panels: int = 2,
    order: int = 20,
) -> float:
    """(kernel f)(x) by nested composite Gauss-Legendre quadrature, N <= 3.

    The anchor must be strictly interior, as for :func:`kernel_density`;
    ``f`` is as for :func:`apply_kernel_to_anchors`.
    """
    x = interior_anchor(spec, x)
    if x.ndim != 1:
        raise ValueError(f"apply_kernel_quadrature takes one anchor, got shape {x.shape}")
    return float(apply_kernel_to_anchors(spec, x[None, :], f, panels, order)[0])
