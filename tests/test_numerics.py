import math
import subprocess
import sys

import numpy as np
import pytest

from laguerre_intertwine import diffusion, kernels, process, rmt
from laguerre_intertwine.numerics import (
    RngStream,
    checked_alpha,
    checked_alpha_int,
    checked_size,
    checked_time,
    gauss_jacobi,
    gauss_rule,
    pochhammer,
    unit_gauss_legendre,
)


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


def test_unit_rule_is_built_once_per_panels_and_order():
    # the same read-only arrays at each call, with the bits of the rule built afresh
    for panels, order in ((1, 20), (3, 7), (np.int64(2), 24)):
        nodes, weights = unit_gauss_legendre(panels, order)
        assert unit_gauss_legendre(int(panels), order)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        x, w = np.polynomial.legendre.leggauss(order)
        offsets = np.arange(panels) / panels
        assert np.array_equal(nodes, (offsets[:, None] + 0.5 * (x + 1.0) / panels).ravel())
        assert np.array_equal(weights, np.tile(0.5 * w / panels, panels))
    # a cached (1, 20) does not let a bool through in its place
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        unit_gauss_legendre(True, 20)


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


# each dimension the random-matrix samplers take, as a function of its value
MATRIX_DIMENSIONS = {
    "ginibre_rows": lambda d: rmt.sample_ginibre(d, 2, RngStream(0)),
    "ginibre_columns": lambda d: rmt.sample_ginibre(2, d, RngStream(0)),
    "haar_unitary": lambda d: rmt.sample_haar_unitary(d, RngStream(0)),
    "wishart_radial": lambda d: rmt.sample_wishart_radial(d, 1, RngStream(0)),
    "laguerre_ensemble": lambda d: rmt.sample_laguerre_ensemble(d, 0.5, RngStream(0)),
}

# input the composite rule, a semigroup's dimension and a matrix's cannot use
REFUSED = {
    "infinite_edge": lambda: gauss_rule([0.0, math.inf], 3),
    "nan_edge": lambda: gauss_rule([0.0, math.nan, 1.0], 3),
    "decreasing_edges": lambda: gauss_rule([1.0, 0.0], 3),
    "one_edge": lambda: gauss_rule([1.0], 3),
    "negative_edge_under_a_power_map": lambda: gauss_rule([-1.0, 1.0], 3, 0.5),
    # 8 of the nodes were 0, where y^-0.99 is inf
    "node_at_zero_under_a_power_map": lambda: gauss_rule([0.0, 1.0], 20, -0.99, 4),
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
    # a float or a bool dimension raised numpy's TypeError
    **{f"{label}_{name}": (lambda draw=draw, value=value: draw(value))
       for name, draw in MATRIX_DIMENSIONS.items()
       for label, value in (("float", 2.5), ("bool", True), ("zero", 0))},
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
