"""Shared numerical primitives.

The checks of the parameters alpha and t and of integer counts, the
rising factorial, Gauss-Jacobi quadrature, the one composite Gauss-Legendre
rule (:func:`gauss_rule`, from which every composite rule of the package
and its tests is built), the test function values the quadrature appliers
share, and seeded random streams for the samplers of the other modules
(the one-particle draw is ``diffusion.transition_sample``): each draws from
an explicit :class:`RngStream`, so experiments are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
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


def checked_int(value, least: int, name: str) -> int:
    """``value`` as an int, when it is an integer >= ``least`` (a numpy integer
    too); anything else, a bool, a float or a str included, raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def checked_size(size, optional: bool = True) -> int:
    """The number of draws a sampler's ``size`` asks for: an int >= 0 (a numpy
    integer too), or None where ``optional`` (one draw, not stacked), which
    counts 1.  Anything else, a bool, a float or a str included, raises
    ``ValueError``; the samplers check it before their first draw."""
    if size is None and optional:
        return 1
    return checked_int(size, 0, "the number of draws")


def unit_gauss_legendre(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on ``(0, 1)``.

    ``panels`` equal sub-intervals, each carrying an ``order``-point rule;
    each must be an integer >= 1 (``ValueError`` otherwise).  Nodes are
    strictly interior and strictly increasing.  The arrays are read-only:
    each (panels, order) is built once.
    """
    return _unit_rule(checked_int(panels, 1, "panels"), checked_int(order, 1, "order"))


@lru_cache(maxsize=None)
def _unit_rule(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(order)
    u = 0.5 * (x + 1.0)  # map (-1, 1) -> (0, 1)
    offsets = np.arange(panels) / panels
    nodes = (offsets[:, None] + u[None, :] / panels).ravel()
    weights = np.tile(0.5 * w / panels, panels)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def power_stretch(exponent: float) -> float:
    """Node-clustering power for integrands carrying y^exponent at y = 0.

    Plain nodes (power 1) suffice for analytic integrands (non-negative
    integer exponent); otherwise the substitution y = v^m with
    m = max(3, 3/(1 + exponent)) turns the leading singular term into a
    near-polynomial one, restoring fast Gauss-Legendre convergence.
    """
    if not exponent > -1:
        raise ValueError("endpoint exponent must be > -1 for integrability")
    if exponent >= 0 and float(exponent).is_integer():
        return 1.0
    return max(3.0, 3.0 / (1.0 + exponent))


def gauss_rule(edges, order: int, exponent: float = 0.0, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on each interval between ``edges``.

    Each interval (lo, hi) of consecutive values on the last axis of
    ``edges`` gets ``panels`` equal panels of ``order`` Gauss nodes in
    v = y^(1/m) on (lo^(1/m), hi^(1/m)), m = :func:`power_stretch` of
    ``exponent``: the rule for integrands carrying y^exponent at 0, whose
    weight factor stays in the integrand.  At m = 1 this is the affine map
    lo + (hi - lo) u.  Both arrays have shape
    ``edges.shape[:-1] + (intervals, panels * order)``.  Edges that are not
    finite, that decrease, or that are negative under a power map (m > 1)
    raise ``ValueError``, as does a power map whose node rounds to the lower
    end of a non-empty interval (at 0 from an exponent near -1).
    """
    edges = np.asarray(edges, dtype=float)
    u, w = unit_gauss_legendre(panels, order)
    m = power_stretch(exponent)
    if edges.ndim == 0 or edges.shape[-1] < 2 or not np.isfinite(edges).all():
        raise ValueError(f"need two or more finite edges, got {edges}")
    if m != 1.0 and (edges < 0).any():
        raise ValueError(f"need edges >= 0 for nodes in y^(1/{m:g}), got {edges}")
    v = edges if m == 1.0 else edges ** (1.0 / m)
    width = np.diff(v)[..., None]
    if (width < 0).any():
        raise ValueError(f"edges must not decrease, got {edges}")
    nodes, weights = v[..., :-1, None] + width * u, width * w
    if m != 1.0:
        nodes, weights = nodes**m, m * nodes ** (m - 1.0) * weights
        if (nodes <= edges[..., :-1, None])[edges[..., 1:] > edges[..., :-1]].any():
            raise ValueError(f"nodes in y^(1/{m:g}) round to the lower end of an interval of the edges {edges}")
    return nodes, weights


def pochhammer(x: float, n: int) -> float:
    """Rising factorial ``x (x+1) ... (x+n-1)``; equals 1 for ``n = 0``."""
    if n < 0 or int(n) != n:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    out = 1.0
    for k in range(int(n)):
        out *= x + k
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

