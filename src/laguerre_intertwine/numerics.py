"""Shared numerical primitives.

The checks of the parameters alpha and t, the rising factorial, the
exponentially scaled Bessel function ``ive``, composite Gauss-Legendre and
Gauss-Jacobi quadrature, the test function values the quadrature appliers
share, and seeded random streams used by every other module.  All samplers
draw from an explicit :class:`RngStream`, so experiments are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss


@dataclass
class RngStream:
    """Deterministic random stream addressed by ``(seed, stream_id)``.

    Two streams built from the same pair replay bit-identical sequences on a
    given build; streams with distinct ``stream_id`` are independent for
    Monte Carlo purposes.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.PCG64(ss))


def checked_alpha(alpha, above: float = -1.0) -> float:
    """alpha as a float, when it is finite and > ``above``; else ``ValueError`` (None, NaN too)."""
    if alpha is None or not above < alpha < math.inf:
        raise ValueError(f"need a finite alpha > {above:g}, got {alpha}")
    return float(alpha)


def checked_alpha_int(alpha) -> int:
    """alpha as an int, when it is a non-negative integer (1.0 is); else ``ValueError``."""
    if alpha is None or not (0 <= alpha < math.inf and int(alpha) == alpha):
        raise ValueError(f"alpha must be a non-negative integer, got {alpha}")
    return int(alpha)


def checked_time(t, zero: bool = False, name: str = "t") -> float:
    """A time (or time step) as a float, when finite and > 0, or >= 0 where ``zero``."""
    if t is None or not (0 <= t < math.inf) or (t == 0 and not zero):
        raise ValueError(f"{name} must be finite and {'>=' if zero else '>'} 0, got {t}")
    return float(t)


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre nodes/weights on an interval."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (-1, 1), computed once per order (read-only)."""
    x, w = leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def unit_gauss_legendre(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on ``(0, 1)``.

    ``panels`` equal sub-intervals, each carrying an ``order``-point rule.
    Nodes are strictly interior and strictly increasing.
    """
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    x, w = _leggauss(order)
    u = 0.5 * (x + 1.0)  # map (-1, 1) -> (0, 1)
    offsets = np.arange(panels) / panels
    nodes = (offsets[:, None] + u[None, :] / panels).ravel()
    weights = np.tile(0.5 * w / panels, panels)
    return nodes, weights


def gauss_legendre_rule(a: float, b: float, panels: int, order: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule on ``[a, b]``."""
    if not b > a:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    u, w = unit_gauss_legendre(panels, order)
    return QuadratureRule(nodes=a + (b - a) * u, weights=(b - a) * w)


def power_stretch(exponent: float) -> float:
    """Node-clustering power for integrands carrying y^exponent at y = 0.

    Plain nodes (power 1) suffice for analytic integrands (non-negative
    integer exponent); otherwise the substitution y = u^m with
    m = max(3, 3/(1 + exponent)) turns the leading singular term into a
    near-polynomial one, restoring fast Gauss-Legendre convergence.
    """
    if not exponent > -1:
        raise ValueError("endpoint exponent must be > -1 for integrability")
    if exponent >= 0 and float(exponent).is_integer():
        return 1.0
    return max(3.0, 3.0 / (1.0 + exponent))


def unit_power_nodes(
    exponent: float, panels: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (0, 1) adapted to a y^exponent factor at 0."""
    u, w = unit_gauss_legendre(panels, order)
    m = power_stretch(exponent)
    if m == 1.0:
        return u, w
    return u**m, m * u ** (m - 1.0) * w


def power_endpoint_rule(
    b: float, exponent: float, panels: int, order: int
) -> QuadratureRule:
    """Quadrature on (0, b) for integrands behaving like y^exponent at 0.

    The weight factor stays in the integrand; only the node placement is
    transformed, so the rule is used exactly like a plain one.
    """
    if not b > 0:
        raise ValueError(f"need b > 0, got {b}")
    u, w = unit_power_nodes(exponent, panels, order)
    return QuadratureRule(nodes=b * u, weights=b * w)


def pochhammer(x: float, n: int) -> float:
    """Rising factorial ``x (x+1) ... (x+n-1)``; equals 1 for ``n = 0``."""
    if n < 0 or int(n) != n:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    out = 1.0
    for k in range(int(n)):
        out *= x + k
    return out


_EPS = 2.0**-53
# From this |nu| on, ive uses Debye's uniform expansion with this many terms;
# below it the power series (z under max(17, 2 nu^2)) and Hankel's large-z
# series.  Measured against scipy's ive on z in [1e-10, 1e5]: the two series
# within 8e-14 below nu = 12 (away from the zero of I_nu at nu in (-2, -1)),
# the expansion within 1.2e-13 from nu = 12 to 20 and 3e-13 up to nu = 100.
_DEBYE_NU = 12.0
_DEBYE_TERMS = 14
_SERIES_MAX_TERMS = 1000  # the power series needs at most about 220 below nu = 12


def ive(nu: float, z):
    """Exponentially scaled modified Bessel function I_nu(z) e^-z, for real nu and z >= 0.

    Vectorised over z; each value depends on its own z only, so a point gets
    the same bits in any batch.  I_-n = I_n for an integer n.  Where I_nu
    blows up at z = 0 (nu < 0 not an integer) the result is inf with the
    sign of 1/Gamma(nu + 1), as it is wherever I_nu e^-z overflows.
    """
    nu = float(nu)
    z = np.asarray(z, dtype=float)
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    if np.any(z < 0):
        raise ValueError("z must be >= 0")
    if nu < 0 and nu.is_integer():
        nu = -nu
    out = np.full(z.shape, np.nan)
    if abs(nu) >= _DEBYE_NU:
        done = ~np.isnan(z)
        out[done] = _ive_debye(nu, z[done])
    else:
        cut, series, hankel = _ive_coefficients(nu)
        low, high = z < cut, z >= cut
        if np.any(low):
            out[low] = _ive_series(nu, z[low], cut, series)
        if np.any(high):
            out[high] = _ive_hankel(z[high], cut, hankel)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=256)
def _ive_coefficients(nu: float) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """The cut between the two series for |nu| < _DEBYE_NU, and the coefficients of each.

    Power series: the terms (cut/2)^2k / (k! (nu+1)_k) at z = cut, kept
    until one is below eps/4 of their sum; the tail at any smaller z is
    smaller.  Hankel's series: (-1)^k a_k(nu) cut^-k, cut after the first
    term below eps/4, or before the first term that grows (the series is
    asymptotic); at any larger z the terms are smaller.
    """
    cut = max(17.0, 2.0 * nu * nu)
    series, total = [1.0], 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        series.append(series[-1] * 0.25 * cut * cut / (k * (k + nu)))
        total += abs(series[-1])
        if abs(series[-1]) <= 0.25 * _EPS * total:
            break
    hankel, mu = [1.0], 4.0 * nu * nu
    for k in range(1, _SERIES_MAX_TERMS):
        term = -hankel[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k * cut)
        if abs(term) > abs(hankel[-1]):
            break
        hankel.append(term)
        if term == 0.0 or abs(term) <= 0.25 * _EPS:
            break
    return cut, tuple(series), tuple(hankel)


def _horner(coef: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    """sum_k coef[k] r^k."""
    out = np.full_like(r, coef[-1])
    for c in coef[-2::-1]:
        out *= r
        out += c
    return out


def _ive_series(nu: float, z: np.ndarray, cut: float, coef: tuple[float, ...]) -> np.ndarray:
    """sum_k (z/2)^(2k+nu) e^-z / (k! Gamma(k+nu+1)), in powers of (z/cut)^2."""
    out = _horner(coef, (z / cut) ** 2)
    # the leading factor (z/2)^nu e^-z / Gamma(nu+1); z^nu 2^-nu keeps the
    # digits of a subnormal z, whose half underflows
    with np.errstate(divide="ignore", over="ignore"):
        out *= z**nu
    out *= math.pow(2.0, -nu) / math.gamma(nu + 1.0)
    out *= np.exp(-z)
    return out


def _ive_hankel(z: np.ndarray, cut: float, coef: tuple[float, ...]) -> np.ndarray:
    """Hankel's series e^-z I_nu(z) ~ sum_k (-1)^k a_k(nu) z^-k / sqrt(2 pi z), in powers of cut/z."""
    return _horner(coef, cut / z) / np.sqrt(2.0 * np.pi * z)


@lru_cache(maxsize=None)
def _debye_polynomials() -> tuple[Polynomial, ...]:
    """u_0 .. u_K of Debye's expansion: u_{k+1} = p^2 (1-p^2) u_k'/2 + int_0^p (1-5s^2) u_k ds / 8."""
    u = [Polynomial([1.0])]
    for _ in range(_DEBYE_TERMS):
        u.append(0.5 * Polynomial([0, 0, 1, 0, -1]) * u[-1].deriv()
                 + 0.125 * (Polynomial([1, 0, -5]) * u[-1]).integ())
    return tuple(u)


def _ive_debye(nu: float, z: np.ndarray) -> np.ndarray:
    """Debye's expansion in 1/|nu| at z = |nu| w, with I_-m = I_m + (2/pi) sin(m pi) K_m."""
    m = abs(nu)
    w = z / m
    r = np.hypot(1.0, w)
    with np.errstate(divide="ignore"):
        eta = -np.arcsinh(1.0 / w)  # log(w / (1 + r)), -inf at z = 0 and 0 at z = inf
    u = [p(1.0 / r) for p in _debye_polynomials()]
    plus, minus = np.zeros_like(z), np.zeros_like(z)
    for k in range(len(u) - 1, -1, -1):
        plus = plus / m + u[k]
        minus = minus / m + (-1) ** k * u[k]
    with np.errstate(over="ignore"):
        out = np.exp(m * (1.0 / (r + w) + eta)) / np.sqrt(2.0 * np.pi * m * r) * plus
        if nu < 0:
            sin = math.sin(math.pi * math.fmod(m, 2.0))
            k_scaled = np.exp(-m * (r + w + eta)) * np.sqrt(np.pi / (2.0 * m * r)) * minus
            out = out + (2.0 / np.pi) * sin * k_scaled
    return out


def gauss_jacobi(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights on (-1, 1) for the weight ((1 + x) / 2)^b, b > -1.

    Its mass is 2 / (b + 1), so the rule is finite at any b (that of (1 + x)^b is 2^b times it).
    Golub-Welsch nodes, refined by two Newton steps on the three-term
    recurrence of the orthonormal polynomials p_k.  The weights are the
    Christoffel numbers 1 / sum_{k<n} p_k(x)^2: as b -> -1 the first node
    nears -1, where 1 / ((1 - x^2) P_n'(x)^2) loses the digits that the node
    cannot carry: 6e-11 of the moments at b = -0.999 and n = 20, against 2e-14.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not b > -1:
        raise ValueError(f"b must be > -1, got {b}")
    # recurrence coefficients of P^(0, b): diagonal a_0 .. a_{n-1}, off-diagonal
    # sqrt(beta_1) .. sqrt(beta_n), with s = 2k + b for k = 1 .. n
    k = np.arange(1, n + 1, dtype=float)
    s = 2.0 * k + b
    diag = np.concatenate([[b / (b + 2.0)], b * b / (s[:-1] * (s[:-1] + 2.0))])
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    mass = 2.0 / (b + 1.0)
    for _ in range(2):
        p, dp, _christoffel = _orthonormal_recurrence(diag, off, mass, x)
        x = x - p / dp
    return x, 1.0 / _orthonormal_recurrence(diag, off, mass, x)[2]


def _orthonormal_recurrence(diag, off, mass, x):
    """p_n(x), p_n'(x) and sum_{k<n} p_k(x)^2 for the Jacobi matrix (diag, off), n = len(off)."""
    prev, p = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
    dprev, dp = np.zeros_like(x), np.zeros_like(x)
    christoffel = np.zeros_like(x)
    for k in range(len(off)):
        christoffel += p * p
        lower = off[k - 1] if k else 0.0
        prev, p, dprev, dp = (p, ((x - diag[k]) * p - lower * prev) / off[k],
                              dp, (p + (x - diag[k]) * dp - lower * dprev) / off[k])
    return p, dp, christoffel


def pointwise_values(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray) -> np.ndarray:
    """A test function's values at the M points y (M, N), as an (M,) array.

    Any other shape of f's result raises ``ValueError``.
    """
    values = np.asarray(f(y), dtype=float)
    if values.shape != y.shape[:1]:
        raise ValueError(f"test function must return shape ({y.shape[0]},), got {values.shape}")
    return values


def sample_noncentral_chisq(
    dof: float, noncentrality: float, rng: RngStream, size: int | None = None
):
    """Noncentral chi-square draw via the Poisson-Gamma mixture.

    Realized as Gamma(dof/2 + K, scale 2) with K ~ Poisson(noncentrality/2),
    which is exact for any real dof > 0.
    """
    if not dof > 0:
        raise ValueError(f"dof must be positive, got {dof}")
    if noncentrality < 0:
        raise ValueError(f"noncentrality must be >= 0, got {noncentrality}")
    k = rng.gen.poisson(0.5 * noncentrality, size=size)
    return rng.gen.gamma(0.5 * dof + k, 2.0)
