"""Goodness-of-fit machinery for the verification experiments.

Kolmogorov-Smirnov one- and two-sample tests with the asymptotic p-value
(Kolmogorov survival series with the Stephens effective-size correction)
and Bonferroni bookkeeping for families of them.  Every verdict is a
p-value against a level: 0.01 for one test, 0.01 / k for each of a family
of k.  The harness is calibrated by its own acceptance gate:
at level 0.01 the null rejection rate over repeated replications must sit
in [0.2%, 3%].  A CDF tabulated from a density, for one-sample tests
against laws with no closed-form CDF, is the test oracle
``tests/oracles.py::grid_cdf``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class EmpiricalSample:
    """A vector of finite observations, with a label that names it in errors."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"sample {self.label!r} contains non-finite values")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one KS test: its statistic and its p-value.  A
    :class:`BonferroniFamily` judges the p-value at its adjusted level."""

    statistic: float
    p_value: float


def kolmogorov_sf(lam: float) -> float:
    """Survival function 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * np.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return float(min(1.0, max(0.0, total)))


def _ks_p_value(stat: float, n_eff: float) -> float:
    root = np.sqrt(n_eff)
    return kolmogorov_sf((root + 0.12 + 0.11 / root) * stat)


def ecdf_mid(n: int) -> np.ndarray:
    """Empirical CDF levels (i - 0.5)/n at the sorted sample points."""
    return (np.arange(n) + 0.5) / n


def ks_two_sample(a: EmpiricalSample, b: EmpiricalSample) -> ComparisonReport:
    """Two-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    if a.n < 25 or b.n < 25:
        raise ValueError("two-sample KS needs at least 25 points per sample")
    xa = np.sort(a.values)
    xb = np.sort(b.values)
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / a.n
    cdf_b = np.searchsorted(xb, pooled, side="right") / b.n
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.n * b.n / (a.n + b.n)
    return ComparisonReport(statistic=stat, p_value=_ks_p_value(stat, n_eff))


def ks_one_sample(a: EmpiricalSample, cdf: Callable[[np.ndarray], np.ndarray]) -> ComparisonReport:
    """One-sample Kolmogorov-Smirnov test against an exact CDF.

    The statistic is assembled from the midpoint empirical levels
    (i - 0.5)/n plus the half-step 1/(2n), which reproduces the usual
    sup-distance exactly.
    """
    if a.n < 25:
        raise ValueError("one-sample KS needs at least 25 points")
    xs = np.sort(a.values)
    f = np.asarray(cdf(xs), dtype=float)
    stat = float(np.max(np.abs(f - ecdf_mid(a.n))) + 0.5 / a.n)
    return ComparisonReport(statistic=stat, p_value=_ks_p_value(stat, a.n))


@dataclass
class BonferroniFamily:
    """A family of tests run at a joint significance level."""

    family_level: float = 0.01
    reports: list[ComparisonReport] = field(default_factory=list)

    def add(self, report: ComparisonReport) -> None:
        self.reports.append(report)

    @property
    def adjusted_level(self) -> float:
        return self.family_level / max(1, len(self.reports))

    @property
    def passed(self) -> bool:
        return all(r.p_value > self.adjusted_level for r in self.reports)
