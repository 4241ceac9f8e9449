"""One-particle Laguerre diffusion.

The diffusion on [0, inf) generated by ``x f'' + (alpha + 1 - x) f'`` (a
squared Ornstein-Uhlenbeck / CIR process with unit relaxation rate, level
alpha + 1 and squared noise 2).  This module provides its transition
density, summed as the Poisson-Gamma mixture of the noncentral chi-square
law, sum_k Pois(k; x e^-t / w) Gamma(k + index + 1, scale w) with
w = 1 - e^-t (:func:`log_density_indexed`); exact transition sampling
that draws the same mixture; the Siegmund-dual density, one h-transform
of it; and finite-difference validators for the backward equations.

Boundary conventions: for alpha > -1 the origin is entrance (alpha >= 0) or
regular with reflection (-1 < alpha < 0) and the Bessel index is alpha; for
alpha <= -1 the origin is an exit boundary and the index is -alpha (the
density is then sub-Markov).  The dual family uses the generator
``x f'' + (x - alpha) f'``.  A Bessel index <= -1 (the exit continuations
at alpha >= 1 and their duals at alpha >= 0) raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from functools import lru_cache
from math import lgamma

import numpy as np

from .numerics import checked_alpha, checked_size, checked_time


class BoundaryKind(str, Enum):
    ENTRANCE_OR_REFLECTING = "entrance_or_reflecting"
    DUAL = "dual"


def checked_args(alpha: float, t: float | None, x, y=None, zero_x: bool = False):
    """(x, y) as float arrays (y None when not given), after the shared argument checks.

    alpha must be finite; t, unless None, finite and > 0; x finite and > 0,
    or >= 0 where ``zero_x``; y, unless None, finite and > 0.  Anything
    else, NaN included, raises ``ValueError``.
    """
    checked_alpha(alpha, -math.inf)
    if t is not None:
        checked_time(t)
    x = np.asarray(x, dtype=float)
    if not np.all(((x >= 0) if zero_x else (x > 0)) & (x < np.inf)):
        raise ValueError(f"x must be finite and {'>=' if zero_x else '>'} 0")
    if y is not None:
        y = np.asarray(y, dtype=float)
        if not np.all((y > 0) & (y < np.inf)):
            raise ValueError("y must be finite and > 0")
    return x, y


# Stirling's series for stirlerr(n) = log Gamma(n + 1) - (n + 1/2) log n + n -
# log sqrt(2 pi), in powers of 1/n^2, used from n = 16 on (Loader 2000)
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_BD0_SERIES = tuple(1.0 / (2 * j + 1) for j in range(1, 9))
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# The mixture sums about 12 sqrt(k) terms around its peak index k, near
# sqrt(x y e^-t) / (1 - e^-t); above this one it is refused
_MAX_PEAK = 1e10


@lru_cache(maxsize=256)
def _small_stirlerr(nu: float) -> np.ndarray:
    """stirlerr(n) from lgamma at n = j and then at n = j + nu + 1, j = 0 .. 15 (inf at n = 0)."""
    return np.array([lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m - _LOG_SQRT_2PI if m > 0 else math.inf
                     for m in np.concatenate([np.arange(16.0), nu + 1.0 + np.arange(16.0)])])


def _log_poisson(n: np.ndarray, mean: np.ndarray, log_mean: np.ndarray, small: np.ndarray) -> np.ndarray:
    """log(mean^n e^-mean / Gamma(n + 1)) at n > 0 in Loader's form, with stirlerr(n) = ``small`` below 16.

    -stirlerr(n) - bd0(n, mean) - log sqrt(2 pi n) with bd0(n, mean) =
    n log(n / mean) + mean - n: near n = mean each part stays small, where
    n log(mean) - mean - lgamma(n + 1) loses the digits of its large terms.
    Where |v| < 0.1, v = (n - mean) / (n + mean), bd0 is the series
    (n - mean) v + 2 n sum_(j=1..8) v^(2j+1) / (2j+1) (Loader 2000).
    Below mean = 1 it takes log(mean) as given: a subnormal mean has lost digits.
    """
    stirlerr = np.where(n < 16, small, np.polynomial.polynomial.polyval(1.0 / (n * n), _STIRLING) / n)
    v = (n - mean) / (n + mean)
    near = (n - mean) * v + 2.0 * n * v * v * v * np.polynomial.polynomial.polyval(v * v, _BD0_SERIES)
    far = n * (np.log(n / np.maximum(mean, 1.0)) - np.minimum(log_mean, 0.0)) + mean - n
    return -stirlerr - np.where(np.abs(v) < 0.1, near, far) - 0.5 * np.log(n) - _LOG_SQRT_2PI


def _side_sum(k: np.ndarray, z: np.ndarray, nu: float, step: int, live: np.ndarray) -> np.ndarray:
    """sum_(i >= 1) T_(k + i step) / T_k at the points ``live``, above (step 1) or below
    (step -1) each point's peak index k, where T_(j+1) / T_j = z / ((j + 1)(j + nu + 1))
    and T_j = 0 for j < 0.

    The ratios fall outward from k, so past a term T whose ratio r to the
    one before is below 1, the terms sum to at most T r / (1 - r).  Blocks
    of 16 terms are added where that bound is still above 2^-56 T_k:
    short blocks, so that few terms reach the slow subnormal range.
    """
    out, last = np.zeros_like(z), np.ones(live.size)
    for start in itertools.count(1, 16):
        # below the peak, the term divided away: T_(p-1) / T_p = p (p + nu) / z
        p = k[live] + (step * np.arange(start, start + 16) + (step < 0))[:, None]
        q = p * (p + nu)
        terms = z[live] / q if step > 0 else q / z[live]
        r = terms[-1].copy()
        terms[0] *= last
        for i in range(1, 16):  # a cumulative product, faster than np.cumprod's here
            terms[i] *= terms[i - 1]
        out[live] += terms.sum(axis=0)
        last = terms[-1]
        going = last * r / (1.0 - r) > 2.0**-56
        if not going.any():
            return out
        live, last = live[going], last[going]


def log_density_indexed(power: float, nu: float, t: float, x, y):
    """log of the transition kernel with explicit power and Bessel index nu > -1.

    The kernel is (1/w) exp(-(x e^-t + y)/w) (y/(x e^-t))^(power/2) I_nu(K)
    with w = 1 - e^-t and K = 2 sqrt(x y e^-t)/w.  It is summed as the
    Poisson-Gamma mixture

        (y/(x e^-t))^((power - nu)/2) sum_k Pois(k; lam) Gamma(y; k + nu + 1, scale w),

    lam = x e^-t / w, whose terms are all positive for nu > -1.  The peak
    term, at k = floor((sqrt(nu^2 + 4 lam u) - nu)/2) with u = y/w, is
    formed in log space in Loader's form (:func:`_log_poisson`); the others
    by the ratio lam u / ((k + 1)(k + nu + 1)) outward from it.  At x = 0
    only the k = 0 term is left, the Gamma(nu + 1, scale w) density, so
    x = 0 is allowed where power = nu.  Broadcasts over x and y.  A Bessel
    index nu <= -1, or a peak index above 1e10, raises ``ValueError``.
    """
    if not nu > -1:
        raise ValueError(f"the Bessel index must be > -1, got {nu:g}: below, the mixture's first term is negative")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    w = -math.expm1(-t)
    lam, u = x.ravel() * (math.exp(-t) / w), y.ravel() / w
    with np.errstate(divide="ignore"):  # the logs from x and y: a subnormal lam or u has lost digits
        log_lam, log_u = np.log(x.ravel()) - (t + math.log(w)), np.log(y.ravel()) - math.log(w)
    k = np.floor(0.5 * (np.hypot(nu, 2.0 * np.sqrt(lam) * np.sqrt(u)) - nu))
    if not k.max(initial=0.0) <= _MAX_PEAK:
        raise ValueError(f"the mixture's peak index {k.max():g} is above {_MAX_PEAK:g}")
    # Loader's form of the Poisson factor at k (at k = 0 it is -lam) and of the
    # Gamma factor's u^(k + nu + 1) e^-u / Gamma(k + nu + 2)
    small = _small_stirlerr(nu)[np.minimum(k, 15).astype(int) + [[0], [16]]]
    with np.errstate(divide="ignore", invalid="ignore"):
        poisson, gamma = _log_poisson(np.stack([k, k + nu + 1.0]), np.stack([lam, u]), np.stack([log_lam, log_u]), small)
    log_p = np.where(k > 0, poisson, -lam)
    z = lam * u
    total = 1.0 + _side_sum(k, z, nu, 1, np.arange(z.size)) + _side_sum(k, z, nu, -1, np.flatnonzero(k > 0))
    log_p += np.log(total) - math.log(w)
    # the Gamma factor and its log(shape / u) last: they can be the largest terms
    log_p += gamma
    log_p += np.log(k + nu + 1.0) - log_u
    if power != nu:
        log_p += 0.5 * (power - nu) * (log_u - log_lam)
    return log_p.reshape(x.shape)


def transition_density(alpha: float, t: float, x, y):
    """Transition density p_{alpha,t}(x, y) of the one-particle diffusion.

    Parameters
    ----------
    alpha : real parameter; alpha > -1 selects the conservative family with
        Bessel index alpha, alpha <= -1 the exit-boundary family with index
        -alpha (sub-Markov).
    t : time, finite and positive.
    x : starting point(s), finite and >= 0.  x = 0 is allowed only for
        alpha > -1 (the exit family cannot start there), where the density
        is Gamma(alpha + 1, scale 1 - e^-t).
    y : target point(s), finite and > 0.

    Broadcasts over ``x`` and ``y``.
    """
    x, y = checked_args(alpha, t, x, y, zero_x=alpha > -1)
    out = np.exp(log_density_indexed(alpha, alpha if alpha > -1 else -alpha, t, x, y))
    return float(out) if out.ndim == 0 else out


def transition_sample(alpha: float, t: float, x, rng, size: int | None = None):
    """Exact draw of the diffusion at time t started from x (alpha > -1).

    Draws the mixture that :func:`log_density_indexed` sums: K ~ Poisson(lam)
    with lam = x e^-t / w, w = 1 - e^-t, then Gamma(alpha + 1 + K, scale w).
    ``size`` draws from a scalar x, or one draw per start of an array x
    when ``size`` is None.
    """
    x, _ = checked_args(checked_alpha(alpha), t, x, zero_x=True)
    checked_size(size)
    w = -np.expm1(-t)
    k = rng.gen.poisson(x * np.exp(-t) / w, size=size)
    return rng.gen.gamma(alpha + 1.0 + k, w)


def transition_density_absorbed(alpha: float, t: float, x, y):
    """Exit/absorbed-boundary continuation of the transition kernel.

    Same closed form with Bessel index -alpha and power alpha/2; for
    alpha <= -1 this is ``transition_density``.  For -1 < alpha < 0 it is
    the sub-Markov density of the diffusion killed at the origin; it is the
    branch the h-transform and dual-kernel identities route through.
    Requires x > 0 and alpha < 1: from alpha = 1 the index -alpha is <= -1,
    and ``ValueError`` names it.
    """
    x, y = checked_args(alpha, t, x, y)
    out = np.exp(log_density_indexed(alpha, -alpha, t, x, y))
    return float(out) if out.ndim == 0 else out


def _dual_density(alpha: float, t: float, x, y, nu: float):
    """e^-t p_{alpha+1,t}(x, y) m_hat(y)/m_hat(x) with the kernel's Bessel index nu."""
    x, y = checked_args(alpha, t, x, y)
    ap = alpha + 1.0
    out = np.exp(-t + log_density_indexed(ap, nu, t, x, y) + (y - x) - ap * (np.log(y) - np.log(x)))
    return float(out) if out.ndim == 0 else out


def dual_transition_density_exit(alpha: float, t: float, x, y):
    """Dual density paired with the exit continuation of p_{alpha+1}.

    Same h-transform as :func:`dual_transition_density` but with Bessel
    index -(alpha+1) inside, which is the branch under which the
    dual-kernel exchange identities hold pointwise (used by the N = 1
    verification for parameters alpha < 0).  From alpha = 0 the index is
    <= -1, and ``ValueError`` names it.
    """
    return _dual_density(alpha, t, x, y, -(alpha + 1.0))


def speed_measure_dual(alpha: float, x):
    """Speed-measure density e^x x^(-alpha-1) of the dual generator."""
    x, _ = checked_args(alpha, None, x)
    out = np.exp(x) * x ** (-alpha - 1.0)
    return float(out) if out.ndim == 0 else out


def dual_transition_density(alpha: float, t: float, x, y):
    """Transition density of the Siegmund-dual diffusion.

    Defined through the h-transform identity
    ``p_hat_{alpha,t}(x,y) = e^-t p_{alpha+1,t}(x,y) m_hat(y)/m_hat(x)``
    with m_hat the dual speed measure; it solves the backward equation for
    ``x f'' + (x - alpha) f'`` (checked by finite differences in the tests).
    """
    ap = checked_alpha(alpha, -math.inf) + 1.0
    return _dual_density(alpha, t, x, y, ap if ap > -1 else -ap)


def htransform_residual_32a(alpha: float, t: float, x: float, y: float) -> float:
    """Residual of the h-transform identity linking parameters -alpha and alpha.

    Computes ``e^(alpha t) p_{-alpha,t}(x,y) (y/x)^alpha - p_{alpha,t}(x,y)``
    where the first factor is the exit-family closed form of parameter
    -alpha (Bessel index alpha, power -alpha/2) and the second the primary
    closed form.  Vanishes identically in exact arithmetic for alpha > -1.
    """
    checked_args(checked_alpha(alpha), t, x, y)
    log_lhs = (
        alpha * t
        + log_density_indexed(-alpha, alpha, t, x, y)
        + alpha * (np.log(y) - np.log(x))
    )
    rhs = transition_density(alpha, t, x, y)
    return float(np.exp(log_lhs) - rhs)


def backward_generator_residual(
    family: BoundaryKind | str,
    alpha: float,
    t: float,
    x: float,
    y: float,
    h: float,
) -> float:
    """Central finite-difference residual of the backward Kolmogorov equation.

    Evaluates ``d_t p - (x d_xx p + b(x) d_x p)`` for the family's own
    closed-form density p at (t, x, y), where b is the drift of the chosen
    family (``alpha + 1 - x`` for the primary family, ``x - alpha`` for the
    dual).  Step control is the caller's concern.
    """
    family = BoundaryKind(family)
    if not (t > h and x > h and h > 0):
        raise ValueError("need t > h, x > h, h > 0")
    if family is BoundaryKind.DUAL:
        density, drift = dual_transition_density, x - alpha
    else:
        density, drift = transition_density, alpha + 1.0 - x

    d_t = (density(alpha, t + h, x, y) - density(alpha, t - h, x, y)) / (2.0 * h)
    p_plus, p_mid, p_minus = density(alpha, t, np.array([x + h, x, x - h]), y)
    d_x = (p_plus - p_minus) / (2.0 * h)
    d_xx = (p_plus - 2.0 * p_mid + p_minus) / (h * h)
    return float(d_t - (x * d_xx + drift * d_x))
