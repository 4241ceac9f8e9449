"""One-particle Laguerre diffusion.

The diffusion on [0, inf) generated by ``x f'' + (alpha + 1 - x) f'`` (a
squared Ornstein-Uhlenbeck / CIR process with unit relaxation rate, level
alpha + 1 and squared noise 2).  This module provides its closed-form
transition density, exact transition sampling through the noncentral
chi-square representation, the Siegmund-dual density, and finite-difference
validators for the backward equations.

Boundary conventions: for alpha > -1 the origin is entrance (alpha >= 0) or
regular with reflection (-1 < alpha < 0) and the Bessel index is alpha; for
alpha <= -1 the origin is an exit boundary and the index is -alpha (the
density is then sub-Markov).  The dual family uses the generator
``x f'' + (x - alpha) f'``.
"""

from __future__ import annotations

import math
from enum import Enum
from math import lgamma

import numpy as np

from .numerics import checked_alpha, checked_time, ive, sample_noncentral_chisq


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


def log_density_indexed(power: float, nu: float, t: float, x, y):
    """log of the transition kernel with explicit power/Bessel index.

    The kernel is (1/w) exp(-(x e^-t + y)/w) (y/(x e^-t))^(power/2) I_nu(K)
    with w = 1 - e^-t and K = 2 sqrt(x y e^-t)/w, assembled in log space so
    the large exponents cancel before exponentiation.  Requires x > 0
    elementwise; the x = 0 entrance limit is handled by the caller.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = -np.expm1(-t)
    xe = x * np.exp(-t)
    big_k = 2.0 * np.sqrt(xe * y) / w
    # -(xe + y)/w + K = -(sqrt(xe) - sqrt(y))^2 / w
    log_p = (
        -np.log(w)
        - (np.sqrt(xe) - np.sqrt(y)) ** 2 / w
        + 0.5 * power * (np.log(y) - np.log(xe))
        + np.log(ive(nu, big_k))
    )
    return log_p


def _log_density_entrance(alpha: float, t: float, y):
    """log density from the origin: Gamma(alpha + 1, scale 1 - e^-t).

    This is the analytic x -> 0 limit of the Bessel form; it requires
    alpha > -1.
    """
    y = np.asarray(y, dtype=float)
    w = -np.expm1(-t)
    return alpha * np.log(y) - y / w - (alpha + 1.0) * np.log(w) - lgamma(alpha + 1.0)


def transition_density(alpha: float, t: float, x, y):
    """Transition density p_{alpha,t}(x, y) of the one-particle diffusion.

    Parameters
    ----------
    alpha : real parameter; alpha > -1 selects the conservative family with
        Bessel index alpha, alpha <= -1 the exit-boundary family with index
        -alpha (sub-Markov).
    t : time, finite and positive.
    x : starting point(s), finite and >= 0.  x = 0 is allowed only for
        alpha > -1 (the exit family cannot start there) and uses the
        analytic Gamma-density limit.
    y : target point(s), finite and > 0.

    Broadcasts over ``x`` and ``y``.
    """
    x, y = checked_args(alpha, t, x, y, zero_x=alpha > -1)
    nu = alpha if alpha > -1 else -alpha
    x_b, y_b = np.broadcast_arrays(x, y)
    out = np.empty(x_b.shape, dtype=float)
    pos = x_b > 0
    if np.any(pos):
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(log_density_indexed(alpha, nu, t, x_b[pos], y_b[pos]))
    if np.any(~pos):
        out[~pos] = np.exp(_log_density_entrance(alpha, t, y_b[~pos]))
    return float(out) if out.ndim == 0 else out


def transition_sample(
    alpha: float, t: float, x: float, rng, size: int | None = None
):
    """Exact draw of the diffusion at time t started from x.

    Uses the representation Y = c * noncentral-chisq(2(alpha+1), x e^-t / c)
    with c = (1 - e^-t)/2, which reproduces the transition density exactly.
    """
    checked_args(checked_alpha(alpha), t, x, zero_x=True)
    c = 0.5 * -np.expm1(-t)
    lam = x * np.exp(-t) / c
    return c * sample_noncentral_chisq(2.0 * (alpha + 1.0), lam, rng, size=size)


def transition_density_absorbed(alpha: float, t: float, x, y):
    """Exit/absorbed-boundary continuation of the transition kernel.

    Same closed form with Bessel index -alpha and power alpha/2; for
    alpha <= -1 this is ``transition_density``.  For -1 < alpha < 0 it is
    the sub-Markov density of the diffusion killed at the origin; it is the
    branch the h-transform and dual-kernel identities route through.
    Requires x > 0.
    """
    x, y = checked_args(alpha, t, x, y)
    out = np.exp(log_density_indexed(alpha, -alpha, t, x, y))
    return float(out) if out.ndim == 0 else out


def dual_transition_density_exit(alpha: float, t: float, x, y):
    """Dual density paired with the exit continuation of p_{alpha+1}.

    Same h-transform as :func:`dual_transition_density` but with Bessel
    index -(alpha+1) inside, which is the branch under which the
    dual-kernel exchange identities hold pointwise (used by the N = 1
    verification for parameters alpha < 0).
    """
    x, y = checked_args(alpha, t, x, y)
    ap = alpha + 1.0
    log_p = log_density_indexed(ap, -ap, t, x, y)
    out = np.exp(-t + log_p + (y - x) - ap * (np.log(y) - np.log(x)))
    return float(out) if out.ndim == 0 else out


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
    x, y = checked_args(alpha, t, x, y)
    ap = alpha + 1.0
    nu = ap if ap > -1 else -ap
    log_p = log_density_indexed(ap, nu, t, x, y)
    log_ratio = (y - x) - ap * (np.log(y) - np.log(x))
    out = np.exp(-t + log_p + log_ratio)
    return float(out) if out.ndim == 0 else out


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
    p_plus = density(alpha, t, x + h, y)
    p_minus = density(alpha, t, x - h, y)
    p_mid = density(alpha, t, x, y)
    d_x = (p_plus - p_minus) / (2.0 * h)
    d_xx = (p_plus - 2.0 * p_mid + p_minus) / (h * h)
    return float(d_t - (x * d_xx + drift * d_x))
