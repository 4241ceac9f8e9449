"""Goodness-of-fit machinery for the verification experiments.

Kolmogorov-Smirnov one- and two-sample tests with the asymptotic p-value
(Kolmogorov survival series with the Stephens effective-size correction),
moment z-tests against analytic targets, CDF tabulation from a density, and
Bonferroni bookkeeping for families of tests.  The harness is calibrated by
its own acceptance gate: at level 0.01 the null rejection rate over repeated
replications must sit in [0.2%, 3%].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import power_stretch, unit_gauss_legendre


@dataclass
class EmpiricalSample:
    """A vector of finite observations with a label for reports."""

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
    """Outcome of one statistical check.

    ``passed`` is p_value > threshold for p-value tests, or
    statistic < threshold for critical-value tests (``mode`` records which).
    """

    name: str
    statistic: float
    p_value: float
    threshold: float
    passed: bool
    n: tuple[int, ...]
    mode: str = "p_value"


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
    """Two-sample Kolmogorov-Smirnov test with asymptotic p-value, passed above 0.01."""
    if a.n < 25 or b.n < 25:
        raise ValueError("two-sample KS needs at least 25 points per sample")
    xa = np.sort(a.values)
    xb = np.sort(b.values)
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / a.n
    cdf_b = np.searchsorted(xb, pooled, side="right") / b.n
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.n * b.n / (a.n + b.n)
    p = _ks_p_value(stat, n_eff)
    return ComparisonReport(
        name=f"ks2[{a.label}|{b.label}]",
        statistic=stat,
        p_value=p,
        threshold=0.01,
        passed=p > 0.01,
        n=(a.n, b.n),
    )


def ks_one_sample(a: EmpiricalSample, cdf: Callable[[np.ndarray], np.ndarray]) -> ComparisonReport:
    """One-sample Kolmogorov-Smirnov test against an exact CDF, passed above 0.01.

    The statistic is assembled from the midpoint empirical levels
    (i - 0.5)/n plus the half-step 1/(2n), which reproduces the usual
    sup-distance exactly.
    """
    if a.n < 25:
        raise ValueError("one-sample KS needs at least 25 points")
    xs = np.sort(a.values)
    f = np.asarray(cdf(xs), dtype=float)
    stat = float(np.max(np.abs(f - ecdf_mid(a.n))) + 0.5 / a.n)
    p = _ks_p_value(stat, a.n)
    return ComparisonReport(
        name=f"ks1[{a.label}]",
        statistic=stat,
        p_value=p,
        threshold=0.01,
        passed=p > 0.01,
        n=(a.n,),
    )


def moment_compare(a: EmpiricalSample, target_mean: float, target_var: float) -> ComparisonReport:
    """z-score of the sample mean against an analytic mean and variance.

    The Monte Carlo standard error is sqrt(target_var / n); the check passes
    iff |z| <= 4 (critical-value mode).
    """
    if a.n < 100:
        raise ValueError("moment comparison needs at least 100 points")
    se = np.sqrt(target_var / a.n)
    z = float((np.mean(a.values) - target_mean) / se)
    from math import erfc

    p = erfc(abs(z) / np.sqrt(2.0))
    return ComparisonReport(
        name=f"moment[{a.label}]",
        statistic=abs(z),
        p_value=p,
        threshold=4.0,
        passed=abs(z) <= 4.0,
        n=(a.n,),
        mode="critical_value",
    )


def grid_cdf(
    pdf: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    endpoint_exponent: float | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Tabulate a CDF from a density by cumulative panel quadrature.

    Integrates the density with one Gauss-Legendre panel per cell of an
    8001-point grid, accumulates, normalizes the tiny tail defect away, and
    returns a linear interpolant clipped to [0, 1].  ``endpoint_exponent`` declares a
    power-law factor y^exponent of the density at ``lo = 0``; the grid is
    then power-spaced so the singular cells carry negligible mass.
    Accuracy is far below the resolving power of KS at the sample sizes
    used here.
    """
    if endpoint_exponent is not None and lo == 0.0:
        m = max(power_stretch(endpoint_exponent), 2.0)
        edges = hi * np.linspace(0.0, 1.0, 8001) ** m
    else:
        edges = np.linspace(lo, hi, 8001)
    u, w = unit_gauss_legendre(1, 12)
    widths = np.diff(edges)
    nodes = edges[:-1, None] + widths[:, None] * u[None, :]
    vals = pdf(nodes.ravel()).reshape(nodes.shape)
    cell_mass = (vals * w[None, :]).sum(axis=1) * widths
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])
    total = cum[-1]

    def cdf(x):
        return np.clip(np.interp(x, edges, cum) / max(total, 1e-300), 0.0, 1.0)

    return cdf


@dataclass
class BonferroniFamily:
    """A family of tests run at a joint significance level."""

    family_level: float = 0.01
    reports: list[ComparisonReport] = field(default_factory=list)

    def add(self, report: ComparisonReport) -> None:
        self.reports.append(report)

    @property
    def adjusted_level(self) -> float:
        k = max(1, sum(1 for r in self.reports if r.mode == "p_value"))
        return self.family_level / k

    @property
    def passed(self) -> bool:
        level = self.adjusted_level
        for r in self.reports:
            if r.mode == "p_value":
                if r.p_value <= level:
                    return False
            elif not r.passed:
                return False
        return True

