"""Interlacing Markov kernels on Weyl chambers.

A chamber point is a plain 1-D numpy array with non-decreasing coordinates
(non-negative for the kernels carrying a parameter alpha).  The module
provides the Vandermonde determinant, membership tests for the two
interlacing windows, density evaluators and exact samplers for the five
kernels used throughout the package, and a nested-quadrature applier that
computes (kernel f)(x) for test functions f.

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

Densities are defined for strictly interior anchors and raise
:class:`DegenerateAnchorError` on ties; samplers extend continuously to tied
anchors (coordinates in zero-width windows are forced, the rest follow the
weak-limit law).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from .numerics import RngStream, pochhammer, power_stretch, unit_gauss_legendre
from .rmt import sample_haar_unitary


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
    return float(out) if out.ndim == 0 else out


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


def _require_interior(x, nonneg: bool, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not is_strict_interior(x, nonneg=nonneg):
        raise DegenerateAnchorError(f"{what} must be strictly interior, got {x}")
    return x


@dataclass(frozen=True)
class InterlacingWindow:
    """Membership test for the outer or inner interlacing window."""

    kind: str  # "outer" | "inner"
    anchor: np.ndarray

    def contains(self, y) -> np.ndarray | bool:
        y = np.asarray(y, dtype=float)
        a = np.asarray(self.anchor, dtype=float)
        if self.kind == "outer":
            ok = np.all((a[..., :-1] <= y) & (y <= a[..., 1:]), axis=-1)
        elif self.kind == "inner":
            lo = np.concatenate([np.zeros(a.shape[:-1] + (1,)), a[..., :-1]], axis=-1)
            ok = np.all((lo <= y) & (y <= a), axis=-1)
        else:
            raise ValueError(f"unknown window kind {self.kind!r}")
        return bool(ok) if ok.ndim == 0 else ok


# ---------------------------------------------------------------------------
# density evaluators
# ---------------------------------------------------------------------------

def _corner_density_raw(x, y):
    """N! Delta_N(y)/Delta_{N+1}(x) on the outer window; no anchor checks."""
    inside = InterlacingWindow("outer", x).contains(y)
    val = factorial(np.shape(y)[-1]) * vandermonde(y) / vandermonde(x)
    return np.where(inside, val, 0.0)


def density_corner(x, y):
    """Density of the corner kernel at anchor x (length N+1), zero off-window."""
    x = _require_interior(x, nonneg=False, what="corner anchor")
    if len(x) < 2:
        raise ValueError("corner anchor needs at least 2 coordinates")
    out = _corner_density_raw(x, y)
    return float(out) if out.ndim == 0 else out


def _alpha_square_density_raw(alpha, z, y):
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    inside = InterlacingWindow("inner", z).contains(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.prod(y**alpha, axis=-1) / np.prod(z ** (alpha + 1.0), axis=-1)
        val = pochhammer(alpha + 1.0, n) * weight * vandermonde(y) / vandermonde(z)
    return np.where(inside, val, 0.0)


def density_alpha_square(alpha: float, z, y):
    """Density of the same-dimension alpha kernel at interior anchor z."""
    if not alpha > -1:
        raise ValueError("requires alpha > -1")
    z = _require_interior(z, nonneg=True, what="alpha_square anchor")
    out = _alpha_square_density_raw(alpha, z, y)
    return float(out) if out.ndim == 0 else out


def _segment_integral(alpha: float, a, b):
    """Integral of u^(-alpha-1) over [a, b] for 0 < a; zero when a >= b.

    Closed forms: (a^-alpha - b^-alpha)/alpha away from alpha = 0 and
    log(b/a) at alpha = 0; |alpha| < 1e-8 is routed through the log branch
    with a first-order correction for the removable singularity.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pos = b > a
    a_safe = np.where(pos, a, 1.0)
    b_safe = np.where(pos, b, 1.0)
    with np.errstate(over="ignore"):
        if abs(alpha) < 1e-8:
            log_ratio = np.log(b_safe / a_safe)
            val = log_ratio * (1.0 - 0.5 * alpha * (np.log(a_safe) + np.log(b_safe)))
        else:
            val = (a_safe**-alpha - b_safe**-alpha) / alpha
    return np.where(pos, val, 0.0)


def _alpha_corner_density_raw(alpha, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    lo = np.concatenate([np.zeros(x.shape[:-1] + (1,)), x[..., :-2]], axis=-1)
    inside = np.all((lo <= y) & (y <= x[..., 1:]), axis=-1)
    # a_k = x_k v y_k ; b_k = x_{k+1} ^ y_{k+1}, with y_{N+1} = +inf
    a_seg = np.maximum(x[..., :-1], y)
    b_seg = np.minimum(
        x[..., 1:],
        np.concatenate([y[..., 1:], np.full(y.shape[:-1] + (1,), np.inf)], axis=-1),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = np.prod(y**alpha * _segment_integral(alpha, a_seg, b_seg), axis=-1)
        val = (
            factorial(n)
            * pochhammer(alpha + 1.0, n)
            * vandermonde(y)
            / vandermonde(x)
            * seg
        )
    return np.where(inside, val, 0.0)


def density_alpha_corner(alpha: float, x, y):
    """Density of the alpha corner kernel at interior anchor x (length N+1).

    Per coordinate the density carries the closed-form segment integral of
    u^(-alpha-1) between x_k v y_k and x_{k+1} ^ y_{k+1} (the last upper
    bound is x_{N+1}); the factor is zero whenever the segment is empty,
    which also enforces the ordering of y.
    """
    if not alpha > -1:
        raise ValueError("requires alpha > -1")
    x = _require_interior(x, nonneg=True, what="alpha_corner anchor")
    if len(x) < 2:
        raise ValueError("alpha_corner anchor needs at least 2 coordinates")
    out = _alpha_corner_density_raw(alpha, x, y)
    return float(out) if out.ndim == 0 else out


def _hat_weight(alpha, y):
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        return np.prod(np.exp(y) * y ** (-alpha - 1.0), axis=-1)


def density_hat_corner(alpha: float, x, y):
    """Positive kernel: outer-window indicator times prod e^y y^(-alpha-1)."""
    out = np.where(InterlacingWindow("outer", x).contains(y), _hat_weight(alpha, y), 0.0)
    return float(out) if out.ndim == 0 else out


def density_hat_square(alpha: float, x, y):
    """Positive kernel: inner-window indicator times prod e^y y^(-alpha-1)."""
    out = np.where(InterlacingWindow("inner", x).contains(y), _hat_weight(alpha, y), 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def sample_corner_many(x, rng: RngStream, n: int) -> np.ndarray:
    """n draws of the corner kernel via the conjugated-diagonal matrix model.

    Draws Haar U of order N+1, forms U* diag(x) U, and returns the ordered
    spectrum of the upper-left N x N corner.  Ties in x are fine.
    """
    x = np.asarray(x, dtype=float)
    if not is_chamber_point(x) or len(x) < 2:
        raise ValueError("anchor must be a chamber point with >= 2 coordinates")
    d = len(x)
    u = sample_haar_unitary(d, rng, size=n)
    uh = np.swapaxes(u, -2, -1).conj()
    m = (uh * x[None, None, :]) @ u
    corner = m[:, : d - 1, : d - 1]
    corner = 0.5 * (corner + np.swapaxes(corner, -2, -1).conj())
    return np.linalg.eigvalsh(corner)


def sample_corner(x, rng: RngStream) -> np.ndarray:
    """One draw of the corner kernel (exact, via the matrix model)."""
    return sample_corner_many(x, rng, 1)[0]


def sample_corner_rejection(x, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Independent rejection sampler for the corner kernel (oracle, N <= 4).

    Proposes y_k uniform on [x_k, x_{k+1}] and accepts with probability
    Vandermonde(y) / prod_{i<j} (x_{j+1} - x_i), a valid bound on the outer
    window.
    """
    x = _require_interior(x, nonneg=False, what="rejection anchor")
    n = len(x) - 1
    if n < 1:
        raise ValueError("anchor needs at least 2 coordinates")
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
    entries >= 0; the result is (R, M).  Each root is sought as sigma, its
    distance from the nearer end of its interval (of width h).  A step fits
    C + S_n / sigma + S_f / (sigma - h) to the sum's value and slope, the
    osculating model of LAPACK ``dlaed4`` (Li 1993; Gu and Eisenstat 1995),
    and moves to the model's root; a bracket kept by the sum's sign takes a
    bisection instead when that root falls outside it.  A root stops once
    its step is a few ulps or the sum is below its rounding error, and after
    ``MAX_SECULAR_STEPS`` steps at most.  A zero-width interval gives its
    pole; so does an interval whose nearer side has only zero weights (a
    Gamma weight that underflowed), the limit as those weights tend to 0.
    Roots are clamped into their closed intervals.
    """
    lo_pole, hi_pole = poles[:, :-1], poles[:, 1:]
    width = hi_pole - lo_pole
    out = lo_pole.copy()
    rows, ks = np.nonzero(width > 0)
    if rows.size == 0:
        return out
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
        keep = ~done
        live, sig, lo, hi, h = live[keep], step[keep], lo[keep], hi[keep], h[keep]
        if live.size == 0:
            break
        w, e, near_w, h_far = (np.compress(keep, arr, axis=1) for arr in (w, e, near_w, h_far))
    root[live] = sig
    out[rows, ks] = np.clip(np.where(from_lo, a + root, b - root), a, b)
    return out


def _alpha_square_roots(z_rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """alpha_square draws from their weights: the roots with poles (0, z) per row."""
    return _secular_roots(np.concatenate([np.zeros((len(z_rows), 1)), z_rows], axis=1), weights)


def _dixon_anderson_weights(alpha: float | None, total: int, d: int, rng: RngStream) -> np.ndarray:
    """(total, d) independent weights: Exp(1), or Gamma(alpha + 1) then Exp(1)s."""
    if alpha is None:
        return rng.gen.standard_exponential((total, d))
    weights = np.empty((total, d))
    weights[:, 0] = rng.gen.standard_gamma(alpha + 1.0, total)
    weights[:, 1:] = rng.gen.standard_exponential((total, d - 1))
    return weights


def sample_alpha_square(alpha: float, z, rng: RngStream, size: int | None = None):
    """Exact draw(s) of the same-dimension alpha kernel anchored at z.

    Dixon-Anderson representation: the draw is the N roots of
    w_0 / y + sum_k w_k / (y - z_k) = 0 with w_0 ~ Gamma(alpha + 1) and
    w_k ~ Exp(1) independent, whose density is proportional to
    prod y_k^alpha Vandermonde(y) on the inner window.  Tied anchors and a
    zero head coordinate need no special case: a zero-width window pins its
    coordinate, and the other roots follow the continuous extension.
    """
    if not alpha > -1:
        raise ValueError("requires alpha > -1")
    z = np.asarray(z, dtype=float)
    if not is_chamber_point(z, nonneg=True):
        raise ValueError(f"anchor must be a non-negative chamber point, got {z}")
    total = 1 if size is None else size
    weights = _dixon_anderson_weights(alpha, total, len(z) + 1, rng)
    out = _alpha_square_roots(np.tile(z, (total, 1)), weights)
    return out[0] if size is None else out


def sample_alpha_corner_rows(alpha: float, x_rows: np.ndarray, rng: RngStream) -> np.ndarray:
    """One alpha-corner draw per anchor row (anchors may differ per row).

    Used by the ensemble-projection experiments, where the anchor itself is
    random.  Each row is a corner draw z (the Dixon-Anderson roots with
    poles x and Exp(1) weights; their density is proportional to
    Vandermonde(z) on the outer window) followed by an alpha_square draw at
    z.
    """
    if not alpha > -1:
        raise ValueError("requires alpha > -1")
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    if x_rows.ndim != 2 or x_rows.shape[1] < 2:
        raise ValueError("anchor rows need at least 2 coordinates")
    if not (
        np.all(np.isfinite(x_rows))
        and np.all(np.diff(x_rows, axis=1) >= 0)
        and np.all(x_rows[:, 0] >= 0)
    ):
        raise ValueError("anchor rows must be finite, non-decreasing and non-negative")
    total, d = x_rows.shape
    z_rows = _secular_roots(x_rows, _dixon_anderson_weights(None, total, d, rng))
    return _alpha_square_roots(z_rows, _dixon_anderson_weights(alpha, total, d, rng))


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

@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use, plus its parameter where one is required."""

    kind: str  # corner | alpha_square | alpha_corner | hat_corner | hat_square
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KERNELS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind != "corner" and self.alpha is None:
            raise ValueError(f"kernel {self.kind!r} needs alpha")


def _segments_corner(x):
    # coordinate i of y lives on [x_i, x_{i+1}]
    return [[(x[..., i], x[..., i + 1])] for i in range(x.shape[-1] - 1)]


def _segments_inner(z):
    zero = np.zeros(z.shape[:-1])
    return [
        [(z[..., i - 1] if i else zero, z[..., i])] for i in range(z.shape[-1])
    ]


def _segments_alpha_corner(x):
    zero = np.zeros(x.shape[:-1])
    segs = []
    for i in range(x.shape[-1] - 1):
        lo = x[..., i - 1] if i else zero
        segs.append([(lo, x[..., i]), (x[..., i], x[..., i + 1])])
    return segs


_KERNELS: dict[str, dict] = {
    "corner": {
        "density": lambda spec, x, y: _corner_density_raw(x, y),
        "segments": _segments_corner,
        "target_dim": lambda d: d - 1,
        "positive_head": False,
    },
    "alpha_square": {
        "density": lambda spec, z, y: _alpha_square_density_raw(spec.alpha, z, y),
        "segments": _segments_inner,
        "target_dim": lambda d: d,
        "positive_head": True,
    },
    "alpha_corner": {
        "density": lambda spec, x, y: _alpha_corner_density_raw(spec.alpha, x, y),
        "segments": _segments_alpha_corner,
        "target_dim": lambda d: d - 1,
        "positive_head": True,
    },
    "hat_corner": {
        "density": lambda spec, x, y: density_hat_corner(spec.alpha, x, y),
        "segments": _segments_corner,
        "target_dim": lambda d: d - 1,
        "positive_head": False,
    },
    "hat_square": {
        "density": lambda spec, x, y: density_hat_square(spec.alpha, x, y),
        "segments": _segments_inner,
        "target_dim": lambda d: d,
        "positive_head": True,
    },
}


def kernel_density(spec: KernelSpec, x, y):
    """Density of the chosen kernel at anchor x, evaluated at y."""
    if spec.kind == "corner":
        return density_corner(x, y)
    if spec.kind == "alpha_square":
        return density_alpha_square(spec.alpha, x, y)
    if spec.kind == "alpha_corner":
        return density_alpha_corner(spec.alpha, x, y)
    if spec.kind == "hat_corner":
        return density_hat_corner(spec.alpha, x, y)
    return density_hat_square(spec.alpha, x, y)


def kernel_target_dim(spec: KernelSpec, anchor_len: int) -> int:
    return _KERNELS[spec.kind]["target_dim"](anchor_len)


def _anchor_rows_valid(spec: KernelSpec, rows: np.ndarray) -> np.ndarray:
    """Rows the quadrature evaluates; the others give exactly 0.

    Evaluated rows are strictly increasing and, for the kernels flagged
    ``positive_head``, start above 0.  A tie, or a zero head under an inner
    window, leaves a window of zero width, which contributes exactly 0 (the
    hat densities can be infinite at its single point).  The alpha
    densities are defined at strictly interior anchors only.
    """
    ok = np.all(np.diff(rows, axis=-1) > 0, axis=-1)
    if _KERNELS[spec.kind]["positive_head"]:
        ok &= rows[..., 0] > 0
    return ok


def _endpoint_exponent(spec: KernelSpec) -> float | None:
    """Power-law exponent of the density at the zero end of the first window."""
    if spec.kind in ("alpha_square", "alpha_corner"):
        return spec.alpha
    if spec.kind == "hat_square" and -spec.alpha - 1.0 > -1.0:
        return -spec.alpha - 1.0
    return None


def _value_table(values, m: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """A test function's values on m points as an (F, m) table.

    ``values`` has shape (m,) (a scalar test function, F = 1) or (m, F) (F
    test functions at once).  Returns the table, with one contiguous row per
    function, and the trailing shape (``()`` or ``(F,)``) of the values.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[0] != m:
        raise ValueError(f"test function must return shape ({m},) or ({m}, F), got {values.shape}")
    if values.ndim == 1:
        return values[None, :], ()
    return values.T, values.shape[1:]


def _rows_from_table(table: np.ndarray, width: tuple[int, ...], valid: np.ndarray) -> np.ndarray:
    """Scatter an (F, m) result table to the rows where ``valid`` holds.

    The other rows are 0.  The result has shape (len(valid),) + width.
    """
    out = np.zeros(valid.shape + width)
    out[valid] = table.T.reshape((-1,) + width)
    return out


def _zero_rows(f: Callable[[np.ndarray], np.ndarray], dim: int, valid: np.ndarray) -> np.ndarray:
    """All-zero result for anchors none of which needs f.

    f is called on an empty (0, dim) array, only to learn its value shape.
    """
    _, width = _value_table(f(np.empty((0, dim))), 0)
    return np.zeros(valid.shape + width)


def _first_row(values: np.ndarray) -> float | np.ndarray:
    """Row 0 of an (m,) or (m, F) result: a float, or an (F,) array."""
    row = np.asarray(values)[0]
    return float(row) if row.ndim == 0 else row


def apply_kernel_to_anchors(
    spec: KernelSpec,
    anchors: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    panels: int | tuple[int, ...] = 2,
    order: int = 20,
    chunk_elems: int = 250_000,
) -> np.ndarray:
    """(kernel f)(anchor) for a batch of anchors, by nested quadrature.

    ``f`` must accept an (M, N) array of chamber points (rows non-decreasing)
    and return either an (M,) array of values or an (M, F) array holding F
    test functions at once; the result for m anchors is then (m,) or
    (m, F).  Each function's column is summed exactly as if it had been
    passed alone, so stacking changes no bit of the result.  Rows with
    degenerate anchors evaluate to 0; callers pair them with vanishing
    prefactors.  ``panels`` may be a per-coordinate tuple.  Quadrature
    panels are anchored at the window segment endpoints so the integrand is
    smooth on every panel.  Anchors are processed in chunks of about
    ``chunk_elems`` mesh points; the per-function sums reuse one mesh-sized
    buffer, so the mesh temporaries do not grow with F.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    m_total, d = anchors.shape
    n = kernel_target_dim(spec, d)
    if n < 1:
        raise ValueError("kernel target dimension must be >= 1")
    if n > 3:
        raise UnsupportedDimensionError("kernel quadrature is guarded to N <= 3")
    per_coord_panels = panels if isinstance(panels, (tuple, list)) else (panels,) * n
    density = _KERNELS[spec.kind]["density"]
    seg_fn = _KERNELS[spec.kind]["segments"]

    valid = _anchor_rows_valid(spec, anchors)
    if not np.any(valid):
        return _zero_rows(f, n, valid)
    rows = anchors[valid]
    m = rows.shape[0]

    # per-coordinate nodes/weights, shape (m, K_i); the alpha-weighted
    # kernels carry prod y_k^alpha, which is singular (or merely
    # non-analytic) at y = 0, so their nodes come from the power map
    # y = top * v^stretch with panel edges at the v-images of the window
    # breakpoints.  This resolves the weight even when a window's lower
    # edge sits arbitrarily close to 0 (anchors from quadrature meshes do).
    exponent = _endpoint_exponent(spec)
    stretch = 1.0 if exponent is None else power_stretch(exponent)
    nodes, weights = [], []
    segs = seg_fn(rows)
    for i in range(n):
        u_plain, w_plain = unit_gauss_legendre(per_coord_panels[i], order)
        node_parts, weight_parts = [], []
        if stretch > 1.0:
            top = np.asarray(segs[i][-1][1], dtype=float)[:, None]
            edges = [np.asarray(segs[i][0][0], dtype=float)[:, None]]
            edges += [np.asarray(hi, dtype=float)[:, None] for _, hi in segs[i]]
            v_edges = [(e / top) ** (1.0 / stretch) for e in edges]
            for va, vb in zip(v_edges[:-1], v_edges[1:]):
                v = va + (vb - va) * u_plain[None, :]
                node_parts.append(top * v**stretch)
                weight_parts.append(
                    top * stretch * v ** (stretch - 1.0) * (vb - va) * w_plain[None, :]
                )
        else:
            for lo, hi in segs[i]:
                lo = np.asarray(lo, dtype=float)[:, None]
                hi = np.asarray(hi, dtype=float)[:, None]
                node_parts.append(lo + (hi - lo) * u_plain[None, :])
                weight_parts.append((hi - lo) * w_plain[None, :])
        nodes.append(np.concatenate(node_parts, axis=1))
        weights.append(np.concatenate(weight_parts, axis=1))

    sizes = [nd.shape[1] for nd in nodes]
    mesh_elems = int(np.prod(sizes))
    mesh_axes = tuple(range(1, n + 1))
    rows_per_chunk = max(1, chunk_elems // max(mesh_elems, 1))
    table, width = None, ()
    for start in range(0, m, rows_per_chunk):
        sl = slice(start, min(start + rows_per_chunk, m))
        mm = sl.stop - sl.start
        grids = []
        wgrid = np.ones((mm,) + tuple(sizes))
        for i in range(n):
            shape = [mm] + [1] * n
            shape[1 + i] = sizes[i]
            grids.append(nodes[i][sl].reshape(shape))
            wgrid = wgrid * weights[i][sl].reshape(shape)
        pts = np.stack(np.broadcast_arrays(*grids), axis=-1)
        anchor_block = rows[sl].reshape((mm,) + (1,) * n + (d,))
        dens = density(spec, anchor_block, pts)
        contrib = dens * wgrid
        mask = contrib != 0.0
        # a point of nonzero weight lies in its interlacing window, so its
        # coordinates are already non-decreasing: the corner, square and hat
        # windows do not overlap, and the alpha_corner segment integral is
        # zero unless y_k < y_{k+1}
        fvals, width = _value_table(f(pts[mask]), int(np.count_nonzero(mask)))
        if table is None:
            table = np.empty((fvals.shape[0], m))
        vals = np.zeros_like(contrib)
        for j, col in enumerate(fvals):
            vals[mask] = col
            table[j, sl] = np.sum(contrib * vals, axis=mesh_axes)
    return _rows_from_table(table, width, valid)


def apply_kernel_quadrature(
    spec: KernelSpec,
    x,
    f: Callable[[np.ndarray], np.ndarray],
    panels: int | tuple[int, ...] = 2,
    order: int = 20,
) -> float | np.ndarray:
    """(kernel f)(x) by nested composite Gauss-Legendre quadrature, N <= 3.

    A scalar ``f`` ((M, N) -> (M,)) gives a float; an ``f`` returning
    (M, F) gives the (F,) array of the F values, as in
    :func:`apply_kernel_to_anchors`.
    """
    x = np.asarray(x, dtype=float)
    n = kernel_target_dim(spec, len(x))
    if n > 3:
        raise UnsupportedDimensionError("kernel quadrature is guarded to N <= 3")
    if spec.kind == "corner":
        _require_interior(x, nonneg=False, what="corner anchor")
    elif spec.kind in ("alpha_square", "alpha_corner"):
        _require_interior(x, nonneg=True, what=f"{spec.kind} anchor")
    return _first_row(apply_kernel_to_anchors(spec, x[None, :], f, panels, order))
