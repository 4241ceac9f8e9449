import math

import numpy as np
import pytest
from scipy.special import gammainc

from laguerre_intertwine.numerics import (
    RngStream,
    gauss_legendre_rule,
    integrate_composite,
    pochhammer,
    power_endpoint_rule,
    sample_gamma,
    sample_noncentral_chisq,
    sample_poisson,
)
from laguerre_intertwine.stats import EmpiricalSample, ks_one_sample, ks_two_sample, moment_compare


def test_pochhammer_values():
    assert pochhammer(5.0, 0) == 1.0
    assert pochhammer(1.0, 3) == 6.0
    assert pochhammer(0.5, 2) == 0.75


def test_pochhammer_recursion():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-3, 5)
        n = rng.integers(0, 8)
        assert pochhammer(x, n + 1) == pytest.approx(pochhammer(x, n) * (x + n), rel=1e-14)


def test_pochhammer_rejects_bad_n():
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


def test_quadrature_rule_invariants():
    rule = gauss_legendre_rule(-1.0, 3.0, 7, 12)
    assert abs(rule.weights.sum() - 4.0) < 1e-12 * 4.0
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 3.0


def test_integrate_composite_exactness():
    assert integrate_composite(lambda x: np.ones_like(x), 0.0, 1.0, 1, 2) == pytest.approx(1.0)
    assert integrate_composite(lambda x: x, 0.0, 2.0, 1, 2) == pytest.approx(2.0, abs=1e-14)
    val = integrate_composite(lambda x: np.exp(-x), 0.0, 30.0, 30, 20)
    assert val == pytest.approx(1.0 - math.exp(-30.0), abs=1e-12)


def test_integrate_composite_convergence():
    # doubling panels at low order cuts the error by >= 10x
    exact = 1.0 - math.exp(-5.0)
    err = [
        abs(integrate_composite(lambda x: np.exp(-x), 0.0, 5.0, p, 2) - exact)
        for p in (4, 8)
    ]
    assert err[0] / err[1] >= 10.0


def test_integrate_composite_domain():
    with pytest.raises(ValueError):
        integrate_composite(lambda x: x, 1.0, 0.0, 2, 4)
    with pytest.raises(ValueError):
        integrate_composite(lambda x: x, 0.0, 1.0, 0, 4)


def test_power_endpoint_rule_handles_singular_weight():
    # integral of y^a over (0, 1) = 1/(1+a), singular integrand at 0
    for a in (-0.9, -0.5, 0.5, 2.5):
        rule = power_endpoint_rule(1.0, a, 4, 20)
        val = float(np.dot(rule.weights, rule.nodes**a))
        assert val == pytest.approx(1.0 / (1.0 + a), rel=1e-12)


def test_rng_determinism_and_independence():
    a = RngStream(123, 5).gen.standard_normal(64)
    b = RngStream(123, 5).gen.standard_normal(64)
    c = RngStream(123, 6).gen.standard_normal(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_gamma_moments_and_law():
    rng = RngStream(2024, 0)
    draws = sample_gamma(2.0, 1.0, rng, size=1_000_000)
    rep = moment_compare(EmpiricalSample(draws, "gamma"), target_mean=2.0, target_var=2.0)
    assert rep.passed
    # shape 1 is the unit exponential
    rng = RngStream(2024, 1)
    exp_draws = sample_gamma(1.0, 1.0, rng, size=100_000)
    rep = ks_one_sample(EmpiricalSample(exp_draws, "exp"), lambda y: -np.expm1(-np.maximum(y, 0)))
    assert rep.p_value > 0.01


def test_sample_gamma_scaling_identity():
    rng = RngStream(7, 0)
    a = sample_gamma(2.0, 3.0, rng, size=50_000)
    b = 3.0 * sample_gamma(2.0, 1.0, rng, size=50_000)
    assert ks_two_sample(EmpiricalSample(a), EmpiricalSample(b)).p_value > 0.01


def test_sample_gamma_domain():
    rng = RngStream(1)
    with pytest.raises(ValueError):
        sample_gamma(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_gamma(1.0, -1.0, rng)


def test_sample_poisson_moments():
    rng = RngStream(11, 0)
    assert sample_poisson(0.0, rng) == 0
    draws = sample_poisson(3.0, rng, size=1_000_000).astype(float)
    rep = moment_compare(EmpiricalSample(draws, "poisson"), target_mean=3.0, target_var=3.0)
    assert rep.passed
    # variance check: SE of the sample variance from the Poisson fourth moment,
    # mu4 = lam (1 + 3 lam) = 30 at lam = 3
    var_se = math.sqrt((30.0 - 9.0) / draws.size)
    assert abs(draws.var() - 3.0) <= 4.0 * var_se


def test_sample_poisson_domain():
    with pytest.raises(ValueError):
        sample_poisson(-0.5, RngStream(1))


def test_noncentral_chisq_zero_noncentrality_is_gamma():
    rng = RngStream(31, 0)
    draws = sample_noncentral_chisq(3.0, 0.0, rng, size=100_000)
    rep = ks_one_sample(
        EmpiricalSample(draws, "ncx2"), lambda y: gammainc(1.5, np.maximum(y, 0) / 2.0)
    )
    assert rep.p_value > 0.01


def test_noncentral_chisq_moments():
    rng = RngStream(32, 0)
    d, lam = 3.0, 2.0
    draws = sample_noncentral_chisq(d, lam, rng, size=1_000_000)
    rep = moment_compare(
        EmpiricalSample(draws, "ncx2"), target_mean=d + lam, target_var=2.0 * (d + 2.0 * lam)
    )
    assert rep.passed
    m4 = float(np.mean((draws - draws.mean()) ** 4))
    var_se = math.sqrt((m4 - draws.var() ** 2) / draws.size)
    assert abs(draws.var() - 14.0) <= 4.0 * var_se


def test_noncentral_chisq_domain():
    rng = RngStream(1)
    with pytest.raises(ValueError):
        sample_noncentral_chisq(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_noncentral_chisq(2.0, -1.0, rng)
