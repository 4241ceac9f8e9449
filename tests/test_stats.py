import numpy as np
import pytest
from oracles import grid_cdf

from laguerre_intertwine.numerics import RngStream
from laguerre_intertwine.stats import (
    BonferroniFamily,
    EmpiricalSample,
    ecdf_mid,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    moment_compare,
)


def test_ecdf_midlevels():
    assert np.allclose(ecdf_mid(5), [0.1, 0.3, 0.5, 0.7, 0.9])


def test_kolmogorov_sf_limits():
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(10.0) < 1e-12
    assert 0.0 < kolmogorov_sf(1.0) < 1.0


def test_ks_two_sample_identical_samples():
    vals = np.linspace(0, 1, 200)
    rep = ks_two_sample(EmpiricalSample(vals, "a"), EmpiricalSample(vals, "b"))
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0
    assert rep.passed


def test_ks_two_sample_separated_supports():
    rng = RngStream(61, 0)
    a = rng.gen.random(10_000)
    b = rng.gen.random(10_000) + 0.5
    rep = ks_two_sample(EmpiricalSample(a), EmpiricalSample(b))
    assert rep.p_value < 1e-6
    assert not rep.passed


def test_ks_two_sample_size_guard():
    with pytest.raises(ValueError):
        ks_two_sample(EmpiricalSample(np.arange(10.0)), EmpiricalSample(np.arange(30.0)))


def test_ks_invariance_under_monotone_transform():
    rng = RngStream(62, 0)
    a = rng.gen.random(500)
    b = rng.gen.random(400)
    base = ks_two_sample(EmpiricalSample(a), EmpiricalSample(b))
    mapped = ks_two_sample(EmpiricalSample(np.exp(a)), EmpiricalSample(np.exp(b)))
    assert base.statistic == mapped.statistic


def test_ks_one_sample_calibrated_under_null():
    rng = RngStream(63, 0)
    draws = rng.gen.random(50_000)
    rep = ks_one_sample(EmpiricalSample(draws, "u"), lambda v: np.clip(v, 0, 1))
    assert rep.p_value > 0.01


def test_ks_one_sample_rejects_constant():
    rep = ks_one_sample(EmpiricalSample(np.full(100, 0.3)), lambda v: np.clip(v, 0, 1))
    assert rep.p_value < 1e-10


def test_moment_compare_behavior():
    rng = RngStream(65, 0)
    draws = rng.gen.gamma(2.0, 1.0, size=100_000)
    ok = moment_compare(EmpiricalSample(draws), target_mean=2.0, target_var=2.0)
    assert ok.passed and ok.mode == "critical_value"
    shifted = moment_compare(EmpiricalSample(draws + 0.1), target_mean=2.0, target_var=2.0)
    assert not shifted.passed
    with pytest.raises(ValueError):
        moment_compare(EmpiricalSample(np.arange(10.0)), 0.0, 1.0)


def test_empirical_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        EmpiricalSample(np.array([1.0, np.nan]))


def test_grid_cdf_matches_analytic():
    # accuracy floor is the linear interpolation between grid cells, far
    # below what KS can resolve at the sample sizes used here
    cdf = grid_cdf(lambda v: np.exp(-v), 0.0, 40.0)
    x = np.linspace(0.1, 5.0, 20)
    assert np.abs(cdf(x) - (1.0 - np.exp(-x))).max() < 1e-5
    # power-spaced variant for a singular density
    cdf = grid_cdf(lambda v: 0.5 / np.sqrt(np.maximum(v, 1e-300)), 0.0, 1.0, endpoint_exponent=-0.5)
    assert np.abs(cdf(x / 5.0) - np.sqrt(x / 5.0)).max() < 1e-5


def test_bonferroni_family():
    fam = BonferroniFamily(family_level=0.01)
    good = ks_two_sample(
        EmpiricalSample(np.linspace(0, 1, 100)), EmpiricalSample(np.linspace(0, 1, 100))
    )
    fam.add(good)
    fam.add(good)
    assert fam.adjusted_level == pytest.approx(0.005)
    assert fam.passed
