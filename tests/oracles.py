"""Test-only oracles: a matrix model, a closed-form density, a tabulated CDF and a semigroup step.

None of these is used by the library; the tests compare its samplers and
quadratures against them.

* ``sample_corner_alpha_matrix``: the truncated-Haar model of the
  alpha_square kernel at integer alpha.
* ``laguerre_ensemble_density``: the Laguerre ensemble's density on the
  ordered chamber, normalization included.
* ``grid_cdf``: a CDF tabulated from a density by panel quadrature, for
  one-sample KS tests against laws with no closed-form CDF.
* ``semigroup_step_pointwise``: the determinantal engine's semigroup step
  with the transition density tabulated point by point on (targets x grid
  nodes) from its Bessel form, the step the Poisson-Gamma mixture replaced.
"""

from __future__ import annotations

from math import lgamma

import numpy as np

from laguerre_intertwine import determinantal, diffusion
from laguerre_intertwine.kernels import vandermonde
from laguerre_intertwine.numerics import checked_alpha, checked_alpha_int, power_stretch, unit_gauss_legendre
from laguerre_intertwine.process import lambda_eigen
from laguerre_intertwine.rmt import radial_part, sample_haar_unitary, truncate


def sample_corner_alpha_matrix(alpha_int: int, z, rng, size: int | None = None) -> np.ndarray:
    """Radial part of a Haar unitary of order N+alpha+1, cut to (N+alpha) x N
    and right-multiplied by diag(sqrt(z)): a draw of the alpha_square kernel
    at anchor z (integer alpha).  Every draw interlaces below z."""
    alpha_int = checked_alpha_int(alpha_int)
    z = np.asarray(z, dtype=float)
    n = z.shape[-1]
    v = sample_haar_unitary(n + alpha_int + 1, rng, size=size)
    return radial_part(truncate(v, n + alpha_int, n) * np.sqrt(z)[..., None, :])


def laguerre_ensemble_density(n_dim: int, alpha: float, x):
    """N! Delta(x)^2 prod x^alpha e^-x / prod_{j=1}^N Gamma(j+1) Gamma(alpha+j):
    the ensemble density on the ordered chamber, where it integrates to 1."""
    checked_alpha(alpha)
    log_norm = sum(lgamma(j + 1.0) + lgamma(alpha + j) for j in range(1, n_dim + 1)) - lgamma(n_dim + 1.0)
    x = np.asarray(x, dtype=float)
    out = vandermonde(x) ** 2 * np.exp(np.sum(alpha * np.log(x) - x, axis=-1) - log_norm)
    return float(out) if np.ndim(out) == 0 else out


def grid_cdf(pdf, lo: float, hi: float, endpoint_exponent: float | None = None):
    """The CDF of ``pdf`` on [lo, hi] by cumulative panel quadrature.

    One 12-node Gauss-Legendre panel per cell of an 8001-point grid,
    normalized by the total and linearly interpolated, clipped to [0, 1].
    ``endpoint_exponent`` declares a factor y^exponent of the density at
    ``lo = 0``; the grid is then power-spaced so the singular cells carry
    negligible mass.
    """
    if endpoint_exponent is not None and lo == 0.0:
        edges = hi * np.linspace(0.0, 1.0, 8001) ** max(power_stretch(endpoint_exponent), 2.0)
    else:
        edges = np.linspace(lo, hi, 8001)
    u, w = unit_gauss_legendre(1, 12)
    widths = np.diff(edges)
    nodes = edges[:-1, None] + widths[:, None] * u[None, :]
    cell_mass = (pdf(nodes.ravel()).reshape(nodes.shape) * w[None, :]).sum(axis=1) * widths
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])
    return lambda x: np.clip(np.interp(x, edges, cum) / max(cum[-1], 1e-300), 0.0, 1.0)


def semigroup_step_pointwise(params, table, grid, x: np.ndarray, count: int):
    """``determinantal._semigroup_step`` with p_t(target, node) tabulated by
    ``diffusion.log_density_indexed``.

    On the first panel (0, s), p_t(x, y) / y^alpha takes the product weights
    s^(alpha+1) int_0^1 v^alpha L_l(v) dv; their product is formed in log space.
    """
    order, alpha = determinantal.ORDER, params.alpha
    targets = np.concatenate([grid.nodes[:count].ravel(), x])[:, None]
    s, y = grid.edges[1], grid.nodes[0]
    log_p = diffusion.log_density_indexed(alpha, alpha, params.t, targets, grid.nodes.ravel()[None, :])
    log_p[:, :order] += alpha * np.log(s / y) + np.log(s)
    weights = np.concatenate([determinantal._scaled_moments(order, alpha + 1.0)[-1], grid.weights[1:].ravel()])
    kernel = np.exp(log_p) * weights
    b, c = table.nodes.shape[:2]
    out = np.einsum("bck,pk->bcp", table.nodes.reshape(b, c, -1), kernel)
    nodes = out[..., : count * order].reshape(b, c, count, order)
    scale = table.scale * np.exp(-lambda_eigen(c) * params.t)
    return determinantal._Table(nodes, out[..., count * order :], table.unit, scale)
