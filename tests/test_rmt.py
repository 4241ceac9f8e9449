import math

import numpy as np
import pytest
from oracles import (
    MEAN_Z_MAX, grid_cdf, laguerre_ensemble_density, mean_z, sample_corner_alpha_matrix, sample_corner_rejection,
)
from scipy.special import gammainc, gammaln

from laguerre_intertwine.kernels import vandermonde
from laguerre_intertwine.numerics import RngStream, power_endpoint_rule
from laguerre_intertwine.rmt import (
    radial_part,
    sample_ginibre,
    sample_haar_unitary,
    sample_invariant_rectangular,
    sample_laguerre_ensemble,
    sample_wishart_radial,
    truncate,
)
from laguerre_intertwine.stats import EmpiricalSample, ks_one_sample, ks_two_sample


def test_ginibre_moments():
    rng = RngStream(41, 0)
    g = sample_ginibre(100, 100, rng, size=100).ravel()
    sq = np.abs(g) ** 2
    assert abs(mean_z(sq, 1.0, 1.0)) <= MEAN_Z_MAX
    assert abs(g.mean()) < 4.0 / math.sqrt(g.size)
    # (1/n) E tr(G* G) = n for square Ginibre
    g = sample_ginibre(8, 8, rng, size=4000)
    traces = np.einsum("bij,bij->b", g.conj(), g).real / 8.0
    assert abs(mean_z(traces, 8.0, traces.var(ddof=1))) <= MEAN_Z_MAX


def test_haar_unitarity_and_singular_values():
    rng = RngStream(42, 0)
    u = sample_haar_unitary(5, rng, size=200)
    err = np.abs(np.swapaxes(u, -2, -1).conj() @ u - np.eye(5)).max()
    assert err < 1e-12
    sv = np.linalg.svd(u, compute_uv=False)
    assert np.abs(sv - 1.0).max() < 1e-12


def test_haar_first_column_law():
    # |U_11|^2 of a Haar unitary of order n is Beta(1, n-1)
    rng = RngStream(43, 0)
    n = 4
    u = sample_haar_unitary(n, rng, size=100_000)
    vals = np.abs(u[:, 0, 0]) ** 2
    rep = ks_one_sample(
        EmpiricalSample(vals, "u11"), lambda v: 1.0 - (1.0 - np.clip(v, 0, 1)) ** (n - 1)
    )
    assert rep.p_value > 0.01


def test_haar_left_invariance():
    rng = RngStream(44, 0)
    u = sample_haar_unitary(4, rng, size=4000)
    v = sample_haar_unitary(4, RngStream(44, 1))
    args_u = np.angle(np.linalg.eigvals(u)).ravel()
    args_vu = np.angle(np.linalg.eigvals(v[None] @ u)).ravel()
    assert ks_two_sample(EmpiricalSample(args_u), EmpiricalSample(args_vu)).p_value > 0.01


def test_truncate():
    x = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(truncate(x, 3, 4), x)
    assert np.array_equal(truncate(x, 2, 2), x[:2, :2])
    assert np.array_equal(truncate(truncate(x, 3, 3), 2, 2), truncate(x, 2, 2))
    d = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(truncate(d, 2, 2), np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        truncate(x, 4, 4)


def test_radial_part_values():
    assert np.allclose(radial_part(np.diag([2.0, 3.0])), [4.0, 9.0])
    rng = RngStream(45, 0)
    u = sample_haar_unitary(4, rng)
    assert np.allclose(radial_part(u), 1.0, atol=1e-12)


def test_radial_part_invariance_and_residual():
    rng = RngStream(46, 0)
    x = sample_ginibre(5, 3, rng)
    v = sample_haar_unitary(5, rng)
    u = sample_haar_unitary(3, rng)
    assert np.allclose(radial_part(v @ x @ u), radial_part(x), atol=1e-10)
    h = x.conj().T @ x
    h = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(h)
    assert np.all(np.diff(vals) >= 0)
    res = np.abs(h @ vecs - vecs * vals).max()
    assert res < 1e-10


def test_wishart_radial_exp_law_and_mean():
    rng = RngStream(47, 0)
    draws = sample_wishart_radial(1, 0, rng, size=100_000)[:, 0]
    rep = ks_one_sample(EmpiricalSample(draws, "w"), lambda v: -np.expm1(-np.maximum(v, 0)))
    assert rep.p_value > 0.01
    draws = sample_wishart_radial(2, 1, rng, size=100_000)
    totals = draws.sum(axis=1)
    assert abs(mean_z(totals, 6.0, totals.var(ddof=1))) <= MEAN_Z_MAX


def test_bidiagonal_matches_wishart_at_integer_alpha():
    # the degrees-of-freedom gate for the bidiagonal model
    rng = RngStream(48, 0)
    for n, alpha in [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]:
        a = sample_wishart_radial(n, alpha, rng, size=20_000)
        b = sample_laguerre_ensemble(n, float(alpha), rng, size=20_000)
        level = 0.01 / (n + 1)
        for k in range(n):
            rep = ks_two_sample(EmpiricalSample(a[:, k]), EmpiricalSample(b[:, k]))
            assert rep.p_value > level, (n, alpha, k, rep.p_value)
        rep = ks_two_sample(EmpiricalSample(a.sum(1)), EmpiricalSample(b.sum(1)))
        assert rep.p_value > level


def test_laguerre_ensemble_n1_is_gamma():
    rng = RngStream(49, 0)
    alpha = 0.5
    draws = sample_laguerre_ensemble(1, alpha, rng, size=100_000)[:, 0]
    rep = ks_one_sample(
        EmpiricalSample(draws, "ens"), lambda v: gammainc(alpha + 1.0, np.maximum(v, 0))
    )
    assert rep.p_value > 0.01
    with pytest.raises(ValueError):
        sample_laguerre_ensemble(2, -1.0, rng)


def test_laguerre_normalization_constant():
    # 2-D quadrature of the raw weight equals Gamma(2)Gamma(a+1)Gamma(3)Gamma(a+2)
    alpha = 0.7
    rule = power_endpoint_rule(60.0, alpha, 30, 20)
    x, y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    w = np.outer(rule.weights, rule.weights)
    val = float(((x - y) ** 2 * (x * y) ** alpha * np.exp(-x - y) * w).sum())
    target = math.gamma(2.0) * math.gamma(alpha + 1.0) * math.gamma(3.0) * math.gamma(alpha + 2.0)
    assert val == pytest.approx(target, rel=1e-6)


def test_laguerre_log_norm_matches_scipy_gammaln():
    # the oracle density's normalization N! / prod_j Gamma(j+1) Gamma(alpha+j)
    x = np.array([0.5, 1.0, 2.0, 3.5, 5.0, 6.0, 8.0, 9.5, 11.0, 13.0])
    for n in (1, 2, 5, 10):
        y = x[:n]
        log_weight = 2.0 * np.log(vandermonde(y)) + np.sum(-y)
        for alpha in (-0.9, -0.5, 0.0, 1.5, 7.0):
            j = np.arange(1, n + 1, dtype=float)
            log_norm = float(np.sum(gammaln(j + 1.0) + gammaln(alpha + j)) - gammaln(n + 1.0))
            want = log_weight + alpha * np.sum(np.log(y)) - log_norm
            assert math.log(laguerre_ensemble_density(n, alpha, y)) == pytest.approx(want, rel=1e-13, abs=1e-13)
    for alpha in (-1.0, -1.5, math.nan):
        with pytest.raises(ValueError, match="alpha > -1"):
            laguerre_ensemble_density(2, alpha, [1.0, 2.0])


def test_laguerre_ensemble_density_normalized():
    # ordered-chamber density integrates to 1 (N = 2)
    alpha = 0.5
    rule = power_endpoint_rule(60.0, alpha, 30, 20)
    pts = np.stack(np.meshgrid(rule.nodes, rule.nodes, indexing="ij"), axis=-1)
    w = np.outer(rule.weights, rule.weights)
    vals = laguerre_ensemble_density(2, alpha, np.sort(pts, axis=-1))
    assert float((vals * w).sum()) / 2.0 == pytest.approx(1.0, abs=1e-7)


def test_invariant_rectangular_radial_is_anchor():
    rng = RngStream(50, 0)
    x = np.array([1.0, 2.0, 4.0])
    draws = sample_invariant_rectangular(x, 1, rng, size=100)
    assert np.abs(radial_part(draws) - x).max() < 1e-10


def test_invariant_rectangular_bi_invariance():
    rng = RngStream(51, 0)
    x = np.array([1.0, 3.0])
    a = sample_invariant_rectangular(x, 1, rng, size=4000)
    v = sample_haar_unitary(3, rng)
    u = sample_haar_unitary(2, rng)
    stat_a = radial_part(truncate(a, 2, 1)).sum(axis=1)
    stat_b = radial_part(truncate(v[None] @ a @ u[None], 2, 1)).sum(axis=1)
    assert ks_two_sample(EmpiricalSample(stat_a), EmpiricalSample(stat_b)).p_value > 0.01


def test_invariant_rectangular_scalar_edge():
    rng = RngStream(52, 0)
    draws = sample_invariant_rectangular(np.array([4.0]), 0, rng, size=200)
    assert np.allclose(np.abs(draws[:, 0, 0]), 2.0, atol=1e-12)


def test_corner_alpha_matrix_uniform_n1():
    rng = RngStream(53, 0)
    draws = sample_corner_alpha_matrix(0, np.array([2.0]), rng, size=100_000)[:, 0]
    rep = ks_one_sample(EmpiricalSample(draws, "trunc"), lambda v: np.clip(v / 2.0, 0, 1))
    assert rep.p_value > 0.01
    with pytest.raises(ValueError):
        sample_corner_alpha_matrix(0.5, np.array([2.0]), rng)


def test_corner_alpha_matrix_interlaces():
    rng = RngStream(54, 0)
    z = np.array([1.0, 2.0])
    draws = sample_corner_alpha_matrix(1, z, rng, size=5000)
    assert np.all(draws[:, 0] <= z[0] + 1e-12)
    assert np.all((draws[:, 1] >= z[0] - 1e-12) & (draws[:, 1] <= z[1] + 1e-12))
    assert np.all(draws >= -1e-12)


def test_truncated_scalar_construction_matches_closed_form():
    # 2x2 invariant construction truncated to 1x1: the squared entry follows
    # the one-dimensional alpha corner density
    from laguerre_intertwine.kernels import KernelSpec, kernel_density

    rng = RngStream(56, 0)
    x = np.array([1.0, 2.0])
    big = sample_invariant_rectangular(x, 0, rng, size=50_000)
    vals = radial_part(truncate(big, 1, 1))[:, 0]
    cdf = grid_cdf(lambda v: kernel_density(KernelSpec("alpha_corner", 0.0), x, v[..., None]), 0.0, 2.0)
    rep = ks_one_sample(EmpiricalSample(vals, "trunc2x2"), cdf)
    assert rep.p_value > 0.01


def test_corner_eigenvalue_pushforward_relation():
    # truncating the columns of an invariant rectangular matrix pushes the
    # radial law through the plain corner kernel
    rng = RngStream(55, 0)
    x = np.array([1.0, 2.0, 4.0])
    big = sample_invariant_rectangular(x, 1, rng, size=20_000)  # 4 x 3
    side_a = radial_part(truncate(big, 4, 2))
    side_b = sample_corner_rejection(x, rng, size=20_000)
    for k in range(2):
        rep = ks_two_sample(EmpiricalSample(side_a[:, k]), EmpiricalSample(side_b[:, k]))
        assert rep.p_value > 0.01 / 2
