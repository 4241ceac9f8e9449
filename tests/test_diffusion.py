import math

import numpy as np
import pytest
from oracles import MEAN_Z_MAX, mean_z
from scipy.special import gammaln

from laguerre_intertwine.diffusion import (
    _log_density_entrance,
    dual_transition_density,
    htransform_residual_32a,
    speed_measure_dual,
    transition_density,
    transition_density_absorbed,
    transition_sample,
)
from laguerre_intertwine.kernels import sample_alpha_corner, sample_alpha_corner_rows, sample_alpha_square
from laguerre_intertwine.numerics import RngStream, power_endpoint_rule
from laguerre_intertwine.process import SemigroupParams
from laguerre_intertwine.stats import EmpiricalSample, ks_two_sample


def density_mass(alpha, t, x, y_max=80.0, panels=40, order=20):
    rule = power_endpoint_rule(y_max, alpha if alpha > -1 else 0.0, panels, order)
    return float(np.dot(rule.weights, transition_density(alpha, t, x, rule.nodes)))


def test_stationary_limit_from_origin():
    # alpha = 0 from the origin at large t approaches the unit exponential
    y = np.linspace(0.05, 8.0, 40)
    vals = transition_density(0.0, 50.0, 0.0, y)
    assert np.allclose(vals, np.exp(-y), rtol=1e-10)


def test_conservative_mass_grid():
    for alpha in (-0.5, 1.0):
        for t in (0.1, 1.0, 5.0):
            for x in (0.0, 0.5, 4.0):
                assert abs(density_mass(alpha, t, x) - 1.0) < 1e-8


def test_stationarity_of_gamma_weight():
    alpha, t = 1.5, 0.8
    rule = power_endpoint_rule(60.0, alpha, 40, 20)
    weight = np.exp(alpha * np.log(rule.nodes) - rule.nodes - gammaln(alpha + 1.0))
    for z in (0.5, 2.0, 5.0):
        lhs = float(np.dot(rule.weights, weight * transition_density(alpha, t, rule.nodes, z)))
        rhs = math.exp(alpha * math.log(z) - z - math.lgamma(alpha + 1.0))
        assert abs(lhs - rhs) < 1e-7


def test_exit_family_loses_mass():
    for alpha in (-1.0, -1.5, -2.2):
        mass = density_mass(alpha, 0.5, 1.0)
        assert mass < 1.0
        assert mass > 0.0


def test_reversibility_wrt_gamma_weight():
    for (a, t, x, y) in [(0.5, 0.5, 1.0, 2.0), (1.5, 0.3, 0.7, 3.0), (-0.5, 1.0, 2.0, 0.4)]:
        lhs = transition_density(a, t, x, y) * x**a * math.exp(-x)
        rhs = transition_density(a, t, y, x) * y**a * math.exp(-y)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_density_domain_errors():
    with pytest.raises(ValueError):
        transition_density(0.5, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        transition_density(-1.5, 1.0, 0.0, 1.0)  # exit family cannot start at 0
    with pytest.raises(ValueError):
        transition_density(0.5, 1.0, -1.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: transition_density(0.0, 1.0, np.nan, 2.0),  # took the x = 0 entrance branch
        lambda: transition_sample(np.inf, 1.0, 1.0, RngStream(1)),
        lambda: sample_alpha_square(np.inf, [1.0, 2.0], RngStream(1)),
        lambda: sample_alpha_corner(np.inf, [1.0, 2.0, 3.0], RngStream(1)),
        lambda: sample_alpha_corner_rows(np.inf, np.array([[1.0, 2.0, 3.0]]), RngStream(1)),
        lambda: SemigroupParams(0.5, np.nan, 2),
        lambda: speed_measure_dual(np.nan, 1.0),  # returned e
    ],
    ids=["transition_density", "transition_sample", "sample_alpha_square", "sample_alpha_corner",
         "sample_alpha_corner_rows", "SemigroupParams", "speed_measure_dual"],
)
def test_non_finite_input_raises(call):
    with pytest.raises(ValueError):
        call()


def test_sampler_zero_start_is_gamma():
    rng = RngStream(556, 0)
    alpha, t = 1.0, 0.8
    c = 0.5 * -math.expm1(-t)
    a = transition_sample(alpha, t, 0.0, rng, size=50_000)
    b = c * rng.gen.gamma(alpha + 1.0, 2.0, size=50_000)
    assert ks_two_sample(EmpiricalSample(a), EmpiricalSample(b)).p_value > 0.01


def test_sampler_mean():
    rng = RngStream(557, 0)
    alpha, t, x = 1.0, 0.5, 3.0
    draws = transition_sample(alpha, t, x, rng, size=400_000)
    target = 3.0 * math.exp(-0.5) + 2.0 * (1.0 - math.exp(-0.5))
    # Y = c chi^2(2(alpha+1), lam), c = w/2 and c lam = x e^-t: Var Y = 2 c^2 (2(alpha+1) + 2 lam)
    w = -math.expm1(-t)
    variance = w * w * (alpha + 1.0) + 2.0 * w * x * math.exp(-t)
    assert abs(mean_z(draws, target, variance)) <= MEAN_Z_MAX


def test_sampler_domain():
    rng = RngStream(1)
    with pytest.raises(ValueError):
        transition_sample(-1.0, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        transition_sample(0.5, -1.0, 1.0, rng)


def test_speed_measure_values():
    assert speed_measure_dual(0.0, 1.0) == pytest.approx(math.e)
    assert speed_measure_dual(-1.0, 2.0) == pytest.approx(math.e**2)
    assert speed_measure_dual(1.0, 0.5) == pytest.approx(4.0 * math.exp(0.5))
    with pytest.raises(ValueError):
        speed_measure_dual(0.0, 0.0)


def test_dual_density_definitional_identity():
    # the dual is defined exactly through the h-transform of p_{alpha+1}
    a, t, x, y = 0.5, 0.4, 1.0, 2.0
    lhs = (
        math.exp(t)
        * dual_transition_density(a, t, x, y)
        / speed_measure_dual(a, y)
        * speed_measure_dual(a, x)
    )
    assert lhs == pytest.approx(transition_density(a + 1.0, t, x, y), rel=1e-14)


def test_htransform_residual():
    # a case beside dual-check's htransform rows, and the exact 0 at alpha = 0
    a, t, x, y = 2.5, 1.0, 0.5, 4.0
    assert abs(htransform_residual_32a(a, t, x, y)) / transition_density(a, t, x, y) < 1e-10
    assert htransform_residual_32a(0.0, 0.5, 1.0, 2.0) == 0.0


def test_absorbed_family_matches_exit_routing():
    # for alpha <= -1 the absorbed continuation is the transition density
    y = np.linspace(0.2, 5.0, 9)
    assert np.allclose(
        transition_density_absorbed(-1.5, 0.5, 1.0, y),
        transition_density(-1.5, 0.5, 1.0, y),
        rtol=1e-14,
    )
    # for -1 < alpha < 0 it is a strictly sub-Markov branch
    rule = power_endpoint_rule(80.0, -0.5, 40, 20)
    mass = float(np.dot(rule.weights, transition_density_absorbed(-0.5, 0.5, 1.0, rule.nodes)))
    assert mass < 1.0


def test_entrance_log_density_matches_scipy_gammaln():
    y = np.geomspace(1e-3, 50.0, 30)
    for alpha in (-0.9, -0.5, 0.0, 1.5, 7.0):
        for t in (0.1, 1.0, 5.0):
            w = -np.expm1(-t)
            want = alpha * np.log(y) - y / w - (alpha + 1.0) * np.log(w) - gammaln(alpha + 1.0)
            assert np.allclose(_log_density_entrance(alpha, t, y), want, rtol=1e-14, atol=1e-14)


