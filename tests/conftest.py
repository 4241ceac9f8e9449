"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from laguerre_intertwine.numerics import unit_gauss_legendre


def chi2_sf(stat: float, dof: int) -> float:
    # scipy is imported here, not at module level, so that the suites that
    # need no scipy (the acceptance suite) run on the numpy-only install
    from scipy.special import gammaincc

    return float(gammaincc(dof / 2.0, stat / 2.0))


def binned_gof_2d(
    sample: np.ndarray,
    density,
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    order: int = 8,
) -> float:
    """Chi-square goodness of fit of a 2-D sample against a density.

    Cell probabilities come from per-cell Gauss-Legendre quadrature of the
    density; cells with negligible mass are pooled into their neighbors by
    simply dropping them from the statistic (their expected counts are
    rescaled into the remainder).  Returns the p-value.
    """
    n = sample.shape[0]
    counts, _, _ = np.histogram2d(sample[:, 0], sample[:, 1], bins=(x_edges, y_edges))
    u, w = unit_gauss_legendre(1, order)
    probs = np.zeros_like(counts)
    for i in range(len(x_edges) - 1):
        xs = x_edges[i] + (x_edges[i + 1] - x_edges[i]) * u
        wx = (x_edges[i + 1] - x_edges[i]) * w
        for j in range(len(y_edges) - 1):
            ys = y_edges[j] + (y_edges[j + 1] - y_edges[j]) * u
            wy = (y_edges[j + 1] - y_edges[j]) * w
            mesh = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
            vals = density(mesh)
            probs[i, j] = float((vals * np.outer(wx, wy)).sum())
    keep = probs * n >= 5.0
    expected = probs[keep] * n
    observed = counts[keep]
    # account for mass outside kept cells with one pooled cell
    tail_p = max(1.0 - probs[keep].sum(), 0.0)
    stat = float(((observed - expected) ** 2 / expected).sum())
    dof = int(keep.sum()) - 1
    if tail_p * n >= 5.0:
        tail_obs = n - observed.sum()
        stat += (tail_obs - tail_p * n) ** 2 / (tail_p * n)
        dof += 1
    return chi2_sf(stat, dof)
