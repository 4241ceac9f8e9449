"""Shared numerical primitives.

The rising factorial, composite Gauss-Legendre quadrature, the test
function values the quadrature appliers share, and seeded random streams
used by every other module.  All samplers draw from an explicit
:class:`RngStream`, so experiments are reproducible and parallel workers can
own statistically independent streams.
"""

from __future__ import annotations

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
    Monte Carlo purposes.  Each worker in a parallel experiment should own
    its own stream.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def split(self, stream_id: int) -> "RngStream":
        """Independent stream with the same seed and a new stream id."""
        return RngStream(self.seed, stream_id)


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre nodes/weights on an interval ``[a, b]``."""

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float


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
    return QuadratureRule(nodes=a + (b - a) * u, weights=(b - a) * w, a=a, b=b)


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
    return QuadratureRule(nodes=b * u, weights=b * w, a=0.0, b=b)


def integrate_composite(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int, order: int
) -> float:
    """Integrate ``f`` over ``[a, b]`` with a composite Gauss-Legendre rule.

    ``f`` must accept a vector of nodes and return values elementwise.  For
    smooth integrands the error decays at the rule's order.
    """
    rule = gauss_legendre_rule(a, b, panels, order)
    return float(np.dot(rule.weights, np.asarray(f(rule.nodes), dtype=float)))


def pochhammer(x: float, n: int) -> float:
    """Rising factorial ``x (x+1) ... (x+n-1)``; equals 1 for ``n = 0``."""
    if n < 0 or int(n) != n:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    out = 1.0
    for k in range(int(n)):
        out *= x + k
    return out


def pointwise_values(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray) -> np.ndarray:
    """A test function's values at the M points y (M, N), as an (M,) array.

    Any other shape of f's result raises ``ValueError``.
    """
    values = np.asarray(f(y), dtype=float)
    if values.shape != y.shape[:1]:
        raise ValueError(f"test function must return shape ({y.shape[0]},), got {values.shape}")
    return values


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def sample_gamma(shape: float, scale: float, rng: RngStream, size: int | None = None):
    """Draw from Gamma(shape, scale) with density y^(shape-1) e^(-y/scale)."""
    _check_positive("shape", shape)
    _check_positive("scale", scale)
    return rng.gen.gamma(shape, scale, size=size)


def sample_poisson(mean: float, rng: RngStream, size: int | None = None):
    """Poisson draw; mean 0 returns 0."""
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    return rng.gen.poisson(mean, size=size)


def sample_noncentral_chisq(
    dof: float, noncentrality: float, rng: RngStream, size: int | None = None
):
    """Noncentral chi-square draw via the Poisson-Gamma mixture.

    Realized as Gamma(dof/2 + K, scale 2) with K ~ Poisson(noncentrality/2),
    which is exact for any real dof > 0.
    """
    _check_positive("dof", dof)
    if noncentrality < 0:
        raise ValueError(f"noncentrality must be >= 0, got {noncentrality}")
    k = rng.gen.poisson(0.5 * noncentrality, size=size)
    return rng.gen.gamma(0.5 * dof + k, 2.0)
