import math
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from oracles import MEAN_Z_MAX, mean_z

from laguerre_intertwine import diffusion, kernels, process, rmt
from laguerre_intertwine.numerics import (
    RngStream,
    checked_alpha,
    checked_alpha_int,
    checked_size,
    checked_time,
    gauss_jacobi,
    gauss_rule,
    ive,
    pochhammer,
    sample_noncentral_chisq,
    unit_gauss_legendre,
)
from laguerre_intertwine.stats import EmpiricalSample, ks_one_sample


# every public sampler, called with a draw count; X is a corner anchor
X = [0.0, 1.0, 3.0]
SAMPLERS = {
    "sample_corner_many": lambda rng, size: kernels.sample_corner_many(X, rng, size),
    "sample_alpha_square": lambda rng, size: kernels.sample_alpha_square(0.5, [1.0, 3.0], rng, size),
    "sample_alpha_corner": lambda rng, size: kernels.sample_alpha_corner(0.5, X, rng, size),
    "sample_ginibre": lambda rng, size: rmt.sample_ginibre(3, 2, rng, size),
    "sample_haar_unitary": lambda rng, size: rmt.sample_haar_unitary(3, rng, size),
    "sample_wishart_radial": lambda rng, size: rmt.sample_wishart_radial(2, 1, rng, size),
    "sample_laguerre_ensemble": lambda rng, size: rmt.sample_laguerre_ensemble(2, 0.5, rng, size),
    "sample_invariant_rectangular": lambda rng, size: rmt.sample_invariant_rectangular(X, 1, rng, size),
    "transition_sample": lambda rng, size: diffusion.transition_sample(0.5, 0.7, 1.5, rng, size),
    "sample_noncentral_chisq": lambda rng, size: sample_noncentral_chisq(3.0, 1.0, rng, size),
    "simulate_matrix_ou": lambda rng, size: process.simulate_matrix_ou(1, [1.0, 3.0], 0.5, rng, size),
    "simulate_sde": lambda rng, size: process.simulate_sde(
        1.0, [1.0, 3.0], 0.1, process.SdeConfig(dt=1e-2), rng, size
    ),
}


@pytest.mark.parametrize("name", SAMPLERS)
def test_samplers_share_one_draw_count_rule(name):
    rng = RngStream(931, 0)
    state = rng.gen.bit_generator.state
    for size in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="the number of draws must be an integer >= 0"):
            SAMPLERS[name](rng, size)
    if name == "sample_invariant_rectangular":
        # anchor rows fix the count: size is None or the row count
        rows = np.tile(X, (3, 1))
        for size in (0, 1, 2, np.int64(4)):
            with pytest.raises(ValueError, match="3 anchor rows give 3 draws"):
                rmt.sample_invariant_rectangular(rows, 1, rng, size)
    assert rng.gen.bit_generator.state == state  # refused before any draw
    empty = SAMPLERS[name](rng, 0)
    assert empty.shape[0] == 0 and empty.size == 0
    assert SAMPLERS[name](rng, np.int64(2)).shape[0] == 2
    if name == "sample_invariant_rectangular":
        for size in (None, 3, np.int64(3)):
            assert rmt.sample_invariant_rectangular(rows, 1, rng, size).shape == (3, 4, 3)


def test_checked_size():
    assert checked_size(None) == 1 and checked_size(np.int32(4)) == 4
    with pytest.raises(ValueError, match="number of draws"):
        checked_size(None, optional=False)
    # the counts the rule and the semigroup take share the rule: numpy integers are integers
    assert process.SemigroupParams(1.0, 1.0, np.int64(2)).n_dim == 2
    assert process.lambda_eigen(np.int32(3)) == -3.0
    assert gauss_rule([0.0, 1.0], np.int64(3), panels=np.int32(2))[0].shape == (1, 6)


def test_parameter_checks():
    assert checked_alpha(0) == 0.0 and isinstance(checked_alpha(0), float)
    assert checked_alpha(-2.0, above=-math.inf) == -2.0
    assert checked_alpha_int(2.0) == 2 and isinstance(checked_alpha_int(2.0), int)
    assert checked_time(0.0, zero=True) == 0.0
    for bad in (None, math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="alpha > -1"):
            checked_alpha(bad)
    for bad in (None, math.nan, math.inf, -math.inf, -1, 1.5):
        with pytest.raises(ValueError, match="non-negative integer"):
            checked_alpha_int(bad)
    for bad in (None, math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="t must be finite"):
            checked_time(bad)


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
    nodes, weights = gauss_rule([-1.0, 0.5, 3.0], 12, panels=7)
    assert nodes.shape == weights.shape == (2, 84)
    assert np.allclose(weights.sum(axis=-1), [1.5, 2.5], rtol=1e-14, atol=0)
    assert np.all(np.diff(nodes.ravel()) > 0)
    assert nodes[0, 0] > -1.0 and nodes[0, -1] < 0.5 < nodes[1, 0] and nodes[1, -1] < 3.0
    # one rule per row of stacked intervals
    nodes, weights = gauss_rule(np.array([[0.0, 1.0], [2.0, 5.0], [1.0, 1.0]]), 4, panels=2)
    assert nodes.shape == weights.shape == (3, 1, 8)
    assert np.allclose(weights.sum(axis=-1)[:, 0], [1.0, 3.0, 0.0], rtol=1e-14, atol=0)


def test_gauss_rule_exactness():
    # p panels of an n-point rule integrate polynomials of degree < 2n exactly,
    # in y where m = 1 and in v = y^(1/m) under a power map
    for k in range(12):
        nodes, weights = gauss_rule([-1.0, 0.5, 3.0], 6, panels=2)
        exact = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.sum(weights * nodes**k) == pytest.approx(exact, rel=1e-13, abs=1e-13)
    nodes, weights = gauss_rule([0.0, 30.0], 20, panels=30)
    assert np.sum(weights * np.exp(-nodes)) == pytest.approx(1.0 - math.exp(-30.0), abs=1e-12)
    # m = 3 at exponent 0.5: y^(j/3) dy is 3 v^(j+2) dv, of degree < 12 for j < 10
    for j in range(10):
        nodes, weights = gauss_rule([0.0, 0.5, 2.0], 6, 0.5)
        exact = 2.0 ** (j / 3 + 1) / (j / 3 + 1)
        assert np.sum(weights * nodes ** (j / 3)) == pytest.approx(exact, rel=1e-13)


def test_gauss_rule_is_the_affine_map_at_m_1():
    # exponent 0 and any non-negative integer exponent: lo + (hi - lo) u, bit for bit
    edges = np.array([0.0, 0.3, 1.0, 2.5, 4.5])
    u, w = unit_gauss_legendre(3, 7)
    for exponent in (0.0, 1.0, 4.0):
        nodes, weights = gauss_rule(edges, 7, exponent, 3)
        assert np.array_equal(nodes, edges[:-1, None] + np.diff(edges)[:, None] * u)
        assert np.array_equal(weights, np.diff(edges)[:, None] * w)


def test_gauss_rule_convergence():
    # doubling panels at low order cuts the error by >= 10x
    exact = 1.0 - math.exp(-5.0)
    err = []
    for panels in (4, 8):
        nodes, weights = gauss_rule([0.0, 5.0], 2, panels=panels)
        err.append(abs(np.sum(weights * np.exp(-nodes)) - exact))
    assert err[0] / err[1] >= 10.0


def test_gauss_rule_handles_singular_weight():
    # int_0^1 y^a dy = 1/(1+a), singular integrand at 0; near a = -1 the
    # mass 1/(1+a) sits in the first panel, y^a dy = m v^(m(a+1)-1) dv there
    for a in (-0.95, -0.9, -0.5, 0.5, 2.5):
        nodes, weights = gauss_rule([0.0, 1.0], 20, a, 4)
        assert np.sum(weights * nodes**a) == pytest.approx(1.0 / (1.0 + a), rel=1e-12)
        # and on segments from 0 and away from 0
        nodes, weights = gauss_rule([0.0, 0.25, 1.0, 3.0], 20, a, 2)
        assert np.sum(weights * nodes**a) == pytest.approx(3.0 ** (a + 1.0) / (1.0 + a), rel=1e-12)


# input the composite rule and a semigroup's dimension cannot use
REFUSED = {
    "infinite_edge": lambda: gauss_rule([0.0, math.inf], 3),
    "nan_edge": lambda: gauss_rule([0.0, math.nan, 1.0], 3),
    "decreasing_edges": lambda: gauss_rule([1.0, 0.0], 3),
    "one_edge": lambda: gauss_rule([1.0], 3),
    "negative_edge_under_a_power_map": lambda: gauss_rule([-1.0, 1.0], 3, 0.5),
    "zero_panels": lambda: gauss_rule([0.0, 1.0], 3, panels=0),
    "float_panels": lambda: unit_gauss_legendre(2.5, 3),
    "bool_panels": lambda: gauss_rule([0.0, 1.0], 3, panels=True),
    "zero_order": lambda: gauss_rule([0.0, 1.0], 0),
    "float_order": lambda: gauss_rule([0.0, 1.0], 3.0),
    "float_n_dim": lambda: process.SemigroupParams(1.0, 1.0, 2.5),
    "bool_n_dim": lambda: process.SemigroupParams(1.0, 1.0, True),
    "zero_n_dim": lambda: process.SemigroupParams(1.0, 1.0, 0),
    "float_lambda_eigen": lambda: process.lambda_eigen(2.5),
    "bool_lambda_eigen": lambda: process.lambda_eigen(True),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refuses_what_the_rule_and_the_semigroup_cannot_use(case):
    with pytest.raises(ValueError, match="edges|must be an integer >= 1"):
        REFUSED[case]()


def test_rng_determinism_and_independence():
    a = RngStream(123, 5).gen.standard_normal(64)
    b = RngStream(123, 5).gen.standard_normal(64)
    c = RngStream(123, 6).gen.standard_normal(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noncentral_chisq_zero_noncentrality_is_gamma():
    gammainc = pytest.importorskip("scipy.special").gammainc
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
    assert abs(mean_z(draws, d + lam, 2.0 * (d + 2.0 * lam))) <= MEAN_Z_MAX
    m4 = float(np.mean((draws - draws.mean()) ** 4))
    var_se = math.sqrt((m4 - draws.var() ** 2) / draws.size)
    assert abs(draws.var() - 14.0) <= 4.0 * var_se


def test_noncentral_chisq_domain():
    rng = RngStream(1)
    with pytest.raises(ValueError):
        sample_noncentral_chisq(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_noncentral_chisq(2.0, -1.0, rng)


IVE_NUS = (-2.5, -2.0, -1.5, -0.99, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 10.0)


def _leading_term(nu, z):
    """(z/2)^nu / Gamma(nu + 1) in 40 digits, rounded once to a float (inf past the range).

    At z <= 1e-300 this is I_nu(z) e^-z to double precision: the next term is
    z^2 / (4 (nu + 1)) smaller and e^-z rounds to 1.
    """
    nu = abs(nu) if float(nu).is_integer() else nu
    if z == 0.0:
        return 1.0 if nu == 0 else (0.0 if nu > 0 else math.copysign(math.inf, math.gamma(nu + 1.0)))
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(z) / 2) ** Decimal(nu) / Decimal(math.gamma(nu + 1.0)))


def _largest_series_term(nu, z):
    """max_k |(z/2)^(2k+nu) e^-z / (k! Gamma(k+nu+1))| for a z of order 1 and nu not an integer."""
    return max(
        math.exp((2 * k + nu) * math.log(z / 2) - z - math.lgamma(k + 1.0) - math.lgamma(k + nu + 1.0))
        for k in range(40)
    )


@pytest.mark.parametrize("nu", IVE_NUS)
def test_ive_matches_scipy_on_a_fixed_grid(nu):
    # Bound: |ours - scipy| <= 1e-13 |scipy|, except near the zero of I_-1.5
    # (z = 1.1997, the grid's only zero), where the power series cancels:
    # there, for z in [1.1, 1.3], the bound is absolute, 1e-13 times the
    # largest series term.
    scipy_ive = pytest.importorskip("scipy.special").ive
    z = np.geomspace(1e-10, 1e5, 400)
    got, want = ive(nu, z), scipy_ive(nu, z)
    assert np.all(np.isfinite(want)) and np.all(want != 0)
    scale = np.abs(want)
    if nu == -1.5:
        near = np.abs(z - 1.2) <= 0.1
        scale[near] = [_largest_series_term(nu, x) for x in z[near]]
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("nu", IVE_NUS)
def test_ive_at_zero_and_subnormal_z(nu):
    # scipy returns nan here for nu < 0 not an integer, and 0 where the value
    # is a normal float at nu = 0.25 and z = 5e-324, so the oracle is the
    # leading power-series term (exact to double precision at these z)
    for z in (0.0, 5e-324, 1e-300):
        got, want = ive(nu, z), _leading_term(nu, z)
        if math.isinf(want) or want == 0.0:
            assert got == want, (z, got, want)
        else:
            assert abs(got - want) <= 1e-13 * abs(want), (z, got, want)


@pytest.mark.parametrize("nu", (12.0, 20.0, 50.0, -12.5, -20.7))
def test_ive_large_order_matches_scipy(nu):
    # Debye's expansion; bound fixed at 1e-12 before the first run (measured
    # 1.2e-13 to nu = 20, 3e-13 to nu = 100)
    scipy_ive = pytest.importorskip("scipy.special").ive
    z = np.geomspace(1e-10, 1e5, 200)
    got, want = ive(nu, z), scipy_ive(nu, z)
    normal = np.abs(want) > 1e-300  # scipy flushes some subnormal values to 0
    assert np.all(np.abs(got - want)[normal] <= 1e-12 * np.abs(want[normal]))
    assert np.all(np.abs(got[~normal]) < 1e-300)


def test_ive_is_pointwise_and_checks_its_domain():
    # a point gets the same bits alone and in any batch
    z = np.concatenate([np.geomspace(1e-3, 300.0, 97), [0.0, 16.99, 17.0, 17.01]])
    for nu in (-0.5, 0.0, 1.0, 6.0, 15.0):
        batch = ive(nu, z)
        assert all(ive(nu, x) == v for x, v in zip(z, batch))
        assert np.array_equal(ive(nu, z[::-1]), batch[::-1])
    assert type(ive(1.0, 2.0)) is float
    assert ive(-2.0, 3.0) == ive(2.0, 3.0)
    assert math.isnan(ive(0.5, math.nan)) and math.isnan(ive(20.0, math.nan))
    assert ive(0.5, math.inf) == 0.0 and ive(20.0, math.inf) == 0.0 and ive(-20.5, math.inf) == 0.0
    with pytest.raises(ValueError, match="z must be"):
        ive(0.0, [1.0, -1e-300])
    with pytest.raises(ValueError, match="nu must be"):
        ive(math.nan, 1.0)


def _jacobi_moments(b, count):
    """int_{-1}^{1} (1+x)^b x^k dx for k < count.

    Integration by parts gives m_{k+1} = (2^(b+1) - (k+1) m_k) / (k + b + 2)
    from m_0 = 2^(b+1) / (b+1); each step multiplies an error by
    (k+1)/(k+b+2) < 1, so the recurrence keeps its digits.
    """
    m = [2.0 ** (b + 1.0) / (b + 1.0)]
    for k in range(count - 1):
        m.append((2.0 ** (b + 1.0) - (k + 1) * m[-1]) / (k + b + 2.0))
    return np.array(m)


def test_jacobi_moment_oracle():
    assert np.allclose(_jacobi_moments(0.0, 40)[::2], 2.0 / (np.arange(0, 40, 2) + 1.0), rtol=1e-15, atol=0)
    assert np.allclose(_jacobi_moments(1.0, 3), [2.0, 2.0 / 3.0, 2.0 / 3.0], rtol=1e-15, atol=0)


@pytest.mark.parametrize("b, tol", [(-0.999, 2.5e-12), (-0.99, 4e-13), (-0.5, 4e-13), (0.0, 4e-13), (1.5, 4e-13)])
def test_gauss_jacobi_integrates_even_moments(b, tol):
    x, w = gauss_jacobi(20, b)
    w = w * 2.0**b  # the rule's weight is ((1 + x) / 2)^b
    moments = _jacobi_moments(b, 39)
    for k in range(0, 39, 2):
        assert abs(np.dot(w, x**k) - moments[k]) <= tol * moments[k], k
    xs, _ = pytest.importorskip("scipy.special").roots_jacobi(20, 0.0, b)
    assert np.max(np.abs(x - xs)) <= 1e-15
    assert np.all(np.diff(x) > 0)


@pytest.mark.parametrize("b", [125.0, 1100.0])
def test_gauss_jacobi_is_finite_at_large_b(b):
    # the weight (1 + x)^b had mass 2^(b+1) / (b+1), which overflowed at b = 1100
    x, w = gauss_jacobi(20, b)
    k = np.arange(40)
    moments = np.sum(w[:, None] * (0.5 * (x[:, None] + 1.0)) ** k, axis=0)
    assert np.allclose(moments, 2.0 / (b + k + 1.0), rtol=1e-12, atol=0.0)


def test_gauss_jacobi_domain():
    with pytest.raises(ValueError):
        gauss_jacobi(0, 0.5)
    with pytest.raises(ValueError):
        gauss_jacobi(5, -1.0)


def test_package_imports_no_scipy_or_concurrent_futures():
    # scipy is a test extra; concurrent.futures (and the logging it loads) is
    # imported by simulate_sde when it runs, not by the package import
    code = (
        "import sys\n"
        "import laguerre_intertwine, laguerre_intertwine.cli, laguerre_intertwine.determinantal\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
