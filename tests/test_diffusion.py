import math
import warnings

import numpy as np
import pytest
from oracles import MEAN_Z_MAX, bessel_log_density, mean_z

from laguerre_intertwine.diffusion import (
    dual_transition_density,
    dual_transition_density_exit,
    htransform_residual_32a,
    speed_measure_dual,
    transition_density,
    transition_density_absorbed,
    transition_sample,
)
from laguerre_intertwine.kernels import sample_alpha_corner, sample_alpha_corner_rows, sample_alpha_square
from laguerre_intertwine.numerics import RngStream, gauss_rule
from laguerre_intertwine.process import SemigroupParams
from laguerre_intertwine.stats import EmpiricalSample, ks_two_sample


def density_mass(alpha, t, x, y_max=80.0, panels=40, order=20):
    nodes, weights = map(np.ravel, gauss_rule([0.0, y_max], order, alpha if alpha > -1 else 0.0, panels))
    return float(np.dot(weights, transition_density(alpha, t, x, nodes)))


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
    nodes, weights = map(np.ravel, gauss_rule([0.0, 60.0], 20, alpha, 40))
    weight = np.exp(alpha * np.log(nodes) - nodes - math.lgamma(alpha + 1.0))
    for z in (0.5, 2.0, 5.0):
        lhs = float(np.dot(weights, weight * transition_density(alpha, t, nodes, z)))
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
    # at x = 0 the Poisson index is 0: Gamma(alpha + 1, scale w), w = 1 - e^-t
    rng = RngStream(556, 0)
    alpha, t = 1.0, 0.8
    w = -math.expm1(-t)
    a = transition_sample(alpha, t, 0.0, rng, size=50_000)
    b = rng.gen.gamma(alpha + 1.0, w, size=50_000)
    assert ks_two_sample(EmpiricalSample(a), EmpiricalSample(b)).p_value > 0.01


def test_sampler_mean():
    rng = RngStream(557, 0)
    alpha, t, x = 1.0, 0.5, 3.0
    draws = transition_sample(alpha, t, x, rng, size=400_000)
    target = 3.0 * math.exp(-0.5) + 2.0 * (1.0 - math.exp(-0.5))
    # Y = Gamma(alpha + 1 + K, scale w), K ~ Poisson(lam), w lam = x e^-t:
    # Var Y = w^2 (alpha + 1 + lam) + w^2 lam = w^2 (alpha + 1) + 2 w x e^-t
    w = -math.expm1(-t)
    variance = w * w * (alpha + 1.0) + 2.0 * w * x * math.exp(-t)
    assert abs(mean_z(draws, target, variance)) <= MEAN_Z_MAX
    m4 = float(np.mean((draws - draws.mean()) ** 4))
    var_se = math.sqrt((m4 - draws.var() ** 2) / draws.size)
    assert abs(draws.var() - variance) <= 4.0 * var_se


def test_sampler_array_start_draws_once_per_start():
    draws = transition_sample(0.5, 1.0, np.array([1.0, 2.0]), RngStream(558, 0))
    assert draws.shape == (2,)
    assert np.all(draws > 0)


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
    nodes, weights = map(np.ravel, gauss_rule([0.0, 80.0], 20, -0.5, 40))
    mass = float(np.dot(weights, transition_density_absorbed(-0.5, 0.5, 1.0, nodes)))
    assert mass < 1.0


def test_entrance_log_density_matches_scipy_gammaln():
    # from x = 0 the density is Gamma(alpha + 1, scale 1 - e^-t)
    gammaln = pytest.importorskip("scipy.special").gammaln
    y = np.geomspace(1e-3, 50.0, 30)
    for alpha in (-0.9, -0.5, 0.0, 1.5, 7.0):
        for t in (0.1, 1.0, 5.0):
            w = -np.expm1(-t)
            want = alpha * np.log(y) - y / w - (alpha + 1.0) * np.log(w) - gammaln(alpha + 1.0)
            assert np.allclose(np.log(transition_density(alpha, t, 0.0, y)), want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("alpha", [2.5, 5.0, 10.0, 39.0])
def test_density_from_a_tiny_start_is_the_entrance_density(alpha):
    # the Bessel form's I_nu underflowed here, and the density read 0
    at_zero = transition_density(alpha, 1.0, 0.0, 1.0)
    for x in (1e-20, 1e-100, 1e-300):
        assert abs(transition_density(alpha, 1.0, x, 1.0) - at_zero) <= 1e-12 * at_zero


PIN_NUS = (-0.99, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0)
PIN_TIMES = (0.01, 0.05, 0.25, 1.0, 4.0)


@pytest.mark.parametrize("nu", PIN_NUS)
def test_density_matches_the_bessel_form(nu):
    # The Poisson-Gamma sum against the Bessel form with scipy's ive, on a
    # grid fixed before the first run: per t, 2000 pairs with x log-uniform
    # on [1e-3, 30] and y drawn from p_t(x, .) itself, kept where y > 0 and
    # the value is a normal float; bound 2e-13 relative.
    for i, t in enumerate(PIN_TIMES):
        gen = RngStream(1, PIN_NUS.index(nu) * len(PIN_TIMES) + i).gen
        x = 10.0 ** gen.uniform(-3.0, math.log10(30.0), 2200)
        y = -math.expm1(-t) * gen.gamma(gen.poisson(x / math.expm1(t)) + nu + 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            want = np.exp(bessel_log_density(nu, nu, t, x, y))
        keep = np.flatnonzero((y > 0) & (want >= np.finfo(float).tiny) & (want <= np.finfo(float).max))[:2000]
        assert keep.size == 2000
        got = transition_density(nu, t, x[keep], y[keep])
        assert np.max(np.abs(got - want[keep]) / want[keep]) <= 2e-13, t


@pytest.mark.parametrize(
    "density, alpha, index",
    [(transition_density_absorbed, 1.0, "-1"), (transition_density_absorbed, 2.5, "-2.5"),
     (dual_transition_density_exit, 0.0, "-1"), (dual_transition_density_exit, 1.5, "-2.5")],
)
def test_bessel_index_at_most_minus_one_is_refused(density, alpha, index):
    # the mixture's first term is negative there
    with pytest.raises(ValueError, match=f"Bessel index must be > -1, got {index}:"):
        density(alpha, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("t", [709.7, 710.0, 800.0, 1e6])
@pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.5])
def test_density_is_finite_at_large_t(alpha, t):
    # e^-t is 0 or subnormal there, and e^t overflows: the kernel is the
    # Gamma(alpha + 1) density of the stationary law, e^-1 / Gamma(alpha + 1) at y = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transition_density(alpha, t, 1.0, 1.0)
    assert got == pytest.approx(math.exp(-1.0 - math.lgamma(alpha + 1.0)), rel=1e-13, abs=0.0)


def test_absorbed_density_at_large_t():
    # index -1/2, power 1/2: (y / (x e^-t))^(1/2) times the Gamma(1/2) density at y = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transition_density_absorbed(0.5, 800.0, 1.0, 1.0)
    assert got == pytest.approx(math.exp(399.0) / math.gamma(0.5), rel=1e-12, abs=0.0)
