import math
import sys
import threading
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import laguerre_ensemble_density

from laguerre_intertwine.diffusion import transition_density
from laguerre_intertwine.kernels import vandermonde
from laguerre_intertwine.numerics import RngStream, gauss_rule
from laguerre_intertwine import process
from laguerre_intertwine.experiments import TEST_FUNCTIONS
from laguerre_intertwine.process import (
    SdeConfig,
    SemigroupParams,
    lambda_eigen,
    semigroup_apply,
    semigroup_apply_rows,
    simulate_matrix_ou,
    simulate_sde,
    semigroup_top,
)
from laguerre_intertwine.rmt import (
    sample_invariant_rectangular,
    sample_laguerre_ensemble,
    sample_wishart_radial,
)
from laguerre_intertwine.stats import EmpiricalSample, ks_two_sample

ONE = lambda y: np.ones(y.shape[:-1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate_matrix_ou(1, [1.0, 2.0], math.inf, RngStream(1, 0)),
        lambda: sample_laguerre_ensemble(2, math.inf, RngStream(1, 0)),
        lambda: sample_laguerre_ensemble(0, 0.5, RngStream(1, 0)),
        lambda: sample_wishart_radial(2, math.inf, RngStream(1, 0)),
        lambda: sample_invariant_rectangular([1.0, 2.0], math.inf, RngStream(1, 0)),
    ],
    ids=[
        "matrix_ou_inf_t", "laguerre_ensemble_inf_alpha", "laguerre_ensemble_n0",
        "wishart_inf_alpha", "invariant_rectangular_inf_alpha",
    ],
)
def test_out_of_domain_input_raises(call):
    # each of these returned NaN or an empty draw, or raised OverflowError, before
    # the shared checks of alpha, t and the points
    with pytest.raises(ValueError):
        call()


def test_lambda_eigen_values():
    assert lambda_eigen(1) == 0.0
    assert lambda_eigen(2) == -1.0
    assert lambda_eigen(4) == -6.0


def test_km_density_mass_n2():
    params = SemigroupParams(0.0, 0.5, 2)
    val = semigroup_apply(params, np.array([1.0, 2.0]), ONE, panels=3, order=20)
    assert abs(val - 1.0) < 1e-6


def test_km_stationarity_n2():
    # integrating the ensemble against the transition density returns the
    # ensemble density at the target point
    alpha, t = 1.0, 0.8
    nodes, weights = map(np.ravel, gauss_rule([0.0, 40.0], 16, alpha, 25))
    for y in (np.array([1.0, 2.5]), np.array([0.5, 4.0])):
        p1 = transition_density(alpha, t, nodes, y[0])
        p2 = transition_density(alpha, t, nodes, y[1])
        det = np.outer(p1, p2) - np.outer(p2, p1)  # det[p(x_i, y_j)] on the mesh
        x1, x2 = np.meshgrid(nodes, nodes, indexing="ij")
        weight = laguerre_ensemble_density(2, alpha, np.sort(np.stack([x1, x2], -1), axis=-1))
        gap = x2 - x1
        off_diag = gap != 0.0
        delta_ratio = np.where(off_diag, (y[1] - y[0]) / np.where(off_diag, gap, 1.0), 0.0)
        integrand = weight * math.exp(-lambda_eigen(2) * t) * delta_ratio * det
        lhs = 0.5 * float((integrand * np.outer(weights, weights)).sum())
        rhs = laguerre_ensemble_density(2, alpha, y)
        assert abs(lhs - rhs) < 1e-5


def test_semigroup_conservativity_grid():
    for alpha in (-0.5, 0.0, 1.0):
        for t in (0.2, 1.0):
            for n, x in ((1, np.array([2.0])), (2, np.array([1.0, 2.0]))):
                val = semigroup_apply(SemigroupParams(alpha, t, n), x, ONE, panels=3, order=20)
                assert abs(val - 1.0) < 1e-6, (alpha, t, n, val)
    # at 8 x 20 the default box, cut at semigroup_top, holds the mass to rounding
    # (a box cut at the top mean plus 12 sigma left 3.1e-7 of it at x = (1, 2))
    for alpha in (-0.5, 0.0, 1.0, 2.5):
        for n, x in ((1, np.array([2.0])), (2, np.array([1.0, 2.0]))):
            val = semigroup_apply(SemigroupParams(alpha, 1.0, n), x, ONE, panels=8, order=20)
            assert abs(val - 1.0) <= 1e-12, (alpha, n, val)


@pytest.mark.filterwarnings("error")
def test_semigroup_top_at_t_zero():
    # at t = 0 the box ends at the anchor, with no 0 * inf on the way
    assert semigroup_top(SemigroupParams(0.5, 0.0, 2), 2.0) == pytest.approx(2.0, rel=1e-15)
    assert semigroup_top(SemigroupParams(-0.5, 0.0, 1), 0.0) == 0.0


def test_semigroup_strong_continuity():
    params = SemigroupParams(0.0, 1e-3, 1)
    f = lambda y: np.exp(-np.sum(y, axis=-1))
    val = semigroup_apply(params, np.array([2.0]), f, panels=40, order=20)
    assert abs(val - math.exp(-2.0)) <= 5e-3


def test_semigroup_law():
    f = lambda y: 1.0 / (1.0 + np.sum(y, axis=-1))
    ps = SemigroupParams(0.5, 0.3, 1)
    pt = SemigroupParams(0.5, 0.4, 1)
    pst = SemigroupParams(0.5, 0.7, 1)
    x = np.array([2.0])
    lhs = semigroup_apply(
        ps, x, lambda rows: semigroup_apply_rows(pt, rows, f, 4, 20), panels=4, order=20
    )
    rhs = semigroup_apply(pst, x, f, panels=4, order=20)
    assert abs(lhs - rhs) < 1e-5


def _semigroup_apply_rows_full_mesh(params, x_rows, f, panels, order):
    """Oracle: the box quadrature with f evaluated on every mesh point."""
    n = params.n_dim
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    top = semigroup_top(params, float(np.max(x_rows)))
    nodes, wts = map(np.ravel, gauss_rule([0.0, top], order, params.alpha, panels))
    k = nodes.size
    p = transition_density(params.alpha, params.t, x_rows[:, :, None], nodes[None, None, :])
    det = None
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        if n == 2:
            term = p[:, perm[0], :, None] * p[:, perm[1], None, :]
        else:
            term = (
                p[:, perm[0], :, None, None]
                * p[:, perm[1], None, :, None]
                * p[:, perm[2], None, None, :]
            )
        det = sign * term if det is None else det + sign * term
    pts = np.stack(np.meshgrid(*([nodes] * n), indexing="ij"), axis=-1)
    delta = vandermonde(pts)
    wmesh = np.ones((k,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = k
        wmesh = wmesh * wts.reshape(shape)
    fvals = np.zeros((k,) * n)
    mask = delta != 0.0
    fvals[mask] = f(np.sort(pts[mask], axis=-1))
    weight_mesh = (delta * fvals * wmesh)[None, ...]
    pref = np.exp(-lambda_eigen(n) * params.t) / (math.factorial(n) * vandermonde(x_rows))
    return pref * np.sum(det * weight_mesh, axis=tuple(range(1, n + 1))), k


@pytest.mark.parametrize("alpha", [-0.5, 1.0])
@pytest.mark.parametrize(
    "x_rows",
    [
        [[1.0, 2.0]],
        [[1.0, 2.0], [0.5, 3.0]],
        [[1.0, 2.0, 4.0]],
        [[1.0, 2.0, 4.0], [0.5, 1.5, 3.0]],
    ],
)
def test_semigroup_apply_rows_matches_full_mesh_oracle(alpha, x_rows):
    n = len(x_rows[0])
    params = SemigroupParams(alpha, 0.5, n)
    f = lambda y: np.prod(1.0 / (1.0 + y), axis=-1) + np.exp(-np.sum(y, axis=-1))
    seen = []

    def counted(y):
        seen.append(y.shape[0])
        return f(y)

    got = semigroup_apply_rows(params, np.array(x_rows), counted, panels=2, order=8)
    want, k = _semigroup_apply_rows_full_mesh(params, x_rows, f, panels=2, order=8)
    # the chamber sum adds the box's terms in another order
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert seen == [math.comb(k, n)]  # f once per chamber point


SCALAR_FUNCTIONS = tuple(TEST_FUNCTIONS.values())


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.0])
@pytest.mark.parametrize("x_rows", [[[2.0]], [[1.0, 2.0], [0.5, 3.0]], [[1.0, 2.0, 4.0]]])
def test_semigroup_quadrature_points_are_sorted(alpha, x_rows):
    # the box quadrature passes index-ordered mesh points to f unsorted
    seen = []

    def recording(y):
        seen.append(y.copy())
        return SCALAR_FUNCTIONS[0](y)

    n = len(x_rows[0])
    semigroup_apply_rows(SemigroupParams(alpha, 0.5, n), np.array(x_rows), recording, 2, 8)
    rows = np.concatenate(seen)
    assert rows.shape[0] > 0 and rows.shape[1] == n
    assert np.all(np.diff(rows, axis=-1) > 0)


@pytest.mark.parametrize("alpha", [-0.5, 1.0])
@pytest.mark.parametrize(
    "x_rows",
    [
        [[1.0, 2.0]],
        [[1.0, 2.0], [0.5, 3.0], [1.5, 1.5]],
        [[1.0, 2.0, 4.0], [0.5, 1.5, 3.0], [2.0, 2.0, 3.0]],
    ],
)
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_semigroup_rows_match_single_row_calls_bit_for_bit(alpha, x_rows, t):
    # each row of a batch gets the bits it gets alone in the same box, and
    # semigroup_apply is the rows applier at one anchor, as a float; a tied
    # row is taken at t = 0 only, where the semigroup is the identity
    params = SemigroupParams(alpha, t, len(x_rows[0]))
    rows = np.array(x_rows)
    if t > 0:
        rows = rows[np.all(np.diff(rows) > 0, axis=1)]
    y_max = semigroup_top(params, float(np.max(rows))) if t > 0 else None
    for fn in SCALAR_FUNCTIONS:
        got = semigroup_apply_rows(params, rows, fn, 2, 8, y_max)
        assert got.shape == (len(rows),)
        for row, value in zip(rows, got):
            assert value == semigroup_apply_rows(params, row[None, :], fn, 2, 8, y_max)[0]
        single = semigroup_apply(params, rows[0], fn, panels=2, order=8)
        assert type(single) is float
        assert single == semigroup_apply_rows(params, rows[:1], fn, 2, 8)[0]


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_semigroup_rejects_misshaped_f(t):
    # f maps (M, N) to (M,); an (M, 3) stack or an (M + 1,) result raises
    params = SemigroupParams(0.5, t, 2)
    for bad in (lambda y: np.ones((len(y), 3)), lambda y: np.ones(len(y) + 1)):
        with pytest.raises(ValueError, match="shape"):
            semigroup_apply_rows(params, np.array([[1.0, 2.0], [0.5, 3.0]]), bad, 2, 8)
        with pytest.raises(ValueError, match="shape"):
            semigroup_apply(params, np.array([1.0, 2.0]), bad, 2, 8)


def test_semigroup_t_zero_is_identity():
    f = lambda y: np.exp(-np.sum(y, axis=-1))
    val = semigroup_apply(SemigroupParams(0.5, 0.0, 2), np.array([1.0, 2.0]), f)
    assert val == pytest.approx(math.exp(-3.0), rel=1e-14)


def test_subkm_total_mass_below_one():
    # collision-killed two-particle law loses mass
    alpha, t = 0.5, 0.5
    x = np.array([1.0, 2.0])
    nodes, weights = map(np.ravel, gauss_rule([0.0, 40.0], 16, alpha, 20))
    p1 = transition_density(alpha, t, x[0], nodes)
    p2 = transition_density(alpha, t, x[1], nodes)
    det = np.outer(p1, p2) - np.outer(p2, p1)
    upper = np.triu(np.outer(weights, weights), k=1)
    mass = float((det * upper).sum())
    assert 0.0 < mass < 1.0


def test_sde_output_sorted_and_nonnegative():
    rng = RngStream(72, 0)
    out = simulate_sde(0.5, np.array([0.0, 0.5, 2.0]), 0.4, SdeConfig(dt=2e-3), rng, size=500)
    assert np.all(np.diff(out, axis=1) >= 0)
    assert np.all(out >= 0)


def _simulate_sde_gap_tensor(alpha, x0, t_end, cfg, rng, size=None):
    """Oracle: the Euler step on a (batch, N, N) gap tensor with a row sort."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    batch = 1 if size is None else size
    x = np.tile(x0, (batch, 1))
    n_steps = max(1, int(round(t_end / cfg.dt)))
    dt = t_end / n_steps
    sq_dt = np.sqrt(dt)
    eps = process.SDE_FLOOR_EPS
    idx_sign = np.sign(np.arange(n)[:, None] - np.arange(n)[None, :])
    gap_floor = eps * np.where(idx_sign == 0, 1.0, idx_sign)  # rows stay sorted, so sign(i-j) is the gap sign
    off_diag = ~np.eye(n, dtype=bool)
    for _ in range(n_steps):
        if n > 1:
            gaps = x[:, :, None] - x[:, None, :]
            capped = np.where(np.abs(gaps) < eps, gap_floor[None, :, :], gaps)
            inter = np.sum(
                np.where(off_diag[None, :, :], 2.0 * x[:, :, None] / capped, 0.0), axis=2
            )
        else:
            inter = 0.0
        drift = -x + alpha + 1.0 + inter
        noise = np.sqrt(2.0 * np.maximum(x, eps)) * sq_dt * rng.gen.standard_normal(x.shape)
        x = x + drift * dt + noise
        x = np.where(x < 0, eps, x)
        x.sort(axis=1)
    return x[0] if size is None else x


def _assert_sde_matches_oracle(alpha, x0, t_end, cfg, size, seed, wrap=None):
    rng_a, rng_b = RngStream(seed, 0), RngStream(seed, 0)
    if wrap is not None:
        rng_a.gen = wrap(rng_a.gen)
    got = simulate_sde(alpha, np.array(x0), t_end, cfg, rng_a, size=size)
    want = _simulate_sde_gap_tensor(alpha, np.array(x0), t_end, cfg, rng_b, size=size)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert rng_a.gen.standard_normal() == rng_b.gen.standard_normal()  # same draws consumed
    return got


class _BlockSpy:
    """Forwards to a generator and records the steps of each block drawn into ``out``."""

    def __init__(self):
        self.gen, self.blocks = None, []

    def wrap(self, gen):
        self.gen = gen
        return self

    def standard_normal(self, *args, out=None, **kwargs):
        if out is not None:
            self.blocks.append(len(out))
        return self.gen.standard_normal(*args, out=out, **kwargs)


@pytest.mark.parametrize(
    "alpha, x0, size",
    [
        (-0.75, [1.0], 400),
        (-0.5, [1.0, 3.0], 400),
        (-0.5, [0.5, 1.5, 3.0], 300),
        (-0.75, [0.1, 0.5, 1.0, 2.0, 4.0], 200),
        (-0.6, [1.0, 1.0, 3.0], 300),  # tied anchor
        (-0.5, [0.0, 0.5, 2.0], 300),  # zero head coordinate
        (-0.5, [0.0, 0.5, 2.0], None),
        (-0.9, [1.0], None),
    ],
)
def test_sde_matches_gap_tensor_oracle(alpha, x0, size):
    # the Euler step runs for alpha <= -1/2 only
    out = _assert_sde_matches_oracle(alpha, x0, 0.2, SdeConfig(dt=2e-3), size, seed=81)
    assert out.ndim == (1 if size is None else 2)


@pytest.mark.parametrize(
    "block_normals, x0, t_end, size, blocks",
    [
        (18, [0.5, 1.5, 3.0], 0.2, 3, [2] * 50),  # many blocks
        (24, [0.0, 0.5, 2.0], 0.2, 2, [4] * 25),  # zero head coordinate
        (12, [1.0, 3.0], 0.046, 3, [2] * 11 + [1]),  # a short last block
        (50, [1.0, 1.0, 3.0], 0.022, 2, [8, 3]),  # tied anchor, a short last block
        (10**6, [1.0, 3.0], 0.02, 4, [10]),  # the budget holds more steps than there are
        (2**14, [1.0, 3.0], 0.2, 2000, [4] * 25),  # blocks large enough to overlap
        (1, [0.5, 1.5, 3.0], 0.002, 300, [1]),  # one step, larger than the budget
        (5, [0.0, 0.5, 2.0], 0.018, None, [1] * 9),
        (5, [1.0], 0.01, None, [5]),
    ],
)
def test_sde_blocks_match_gap_tensor_oracle(monkeypatch, block_normals, x0, t_end, size, blocks):
    monkeypatch.setattr(process, "SDE_BLOCK_NORMALS", block_normals)
    spy = _BlockSpy()
    out = _assert_sde_matches_oracle(-0.5, x0, t_end, SdeConfig(dt=2e-3), size, 87, spy.wrap)
    assert out.ndim == (1 if size is None else 2)
    assert spy.blocks == blocks


def test_sde_blocks_match_oracle_under_fast_thread_switching(monkeypatch):
    # a worker filling the buffer the stepper still reads would change the
    # endpoints; a short switch interval interleaves the two threads often
    monkeypatch.setattr(process, "SDE_BLOCK_NORMALS", 3000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_sde_matches_oracle(-0.5, [0.5, 1.5, 3.0], 0.2, SdeConfig(dt=2e-3), 500, seed=90)
    finally:
        sys.setswitchinterval(interval)


def test_sde_leaves_no_thread_behind():
    before = threading.active_count()
    simulate_sde(1.0, np.array([1.0, 3.0]), 0.1, SdeConfig(dt=1e-3), RngStream(88, 0), size=50)
    assert threading.active_count() == before


class _FailingGenerator:
    """A stand-in ``rng.gen`` whose second normal block raises."""

    def __init__(self):
        self.blocks = 0

    def standard_normal(self, out):
        self.blocks += 1
        if self.blocks == 2:
            raise RuntimeError("generator failed")
        out[...] = 0.0
        return out


def test_sde_worker_error_reaches_caller(monkeypatch):
    monkeypatch.setattr(process, "SDE_BLOCK_NORMALS", 4)
    rng = RngStream(89, 0)
    rng.gen = _FailingGenerator()
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="generator failed"):
        simulate_sde(1.0, np.array([1.0, 3.0]), 0.1, SdeConfig(dt=1e-2), rng, size=2)
    assert rng.gen.blocks == 2
    assert threading.active_count() == before


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    x0=st.lists(
        st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, 1.0])), min_size=1, max_size=4
    ).map(sorted),
    alpha=st.floats(-0.99, -0.5),
    dt=st.sampled_from([1e-3, 1e-2, 0.1]),
    steps=st.integers(1, 20),
    size=st.integers(1, 8),
)
def test_sde_stepper_property(x0, alpha, dt, steps, size):
    out = _assert_sde_matches_oracle(alpha, x0, steps * dt, SdeConfig(dt=dt), size, seed=82)
    assert np.all(np.diff(out, axis=1) >= 0)
    assert np.all(out >= 0)


def _implicit_step_oracle(alpha, c, dt):
    """Oracle: the maximiser of dt U(v) - |v - c|^2 / 2 on the chamber, one path in plain Python.

    U(v) = ((alpha + 1/2) / 2) sum log v_i - sum v_i^2 / 4 + (1/2) sum_{i<j} log(v_j^2 - v_i^2),
    its gradient and Hessian written from the terms v_i / (v_i^2 - v_j^2), Newton by
    ``np.linalg.solve`` from (1, 2, ..., N), halving on F itself while the step is large and
    full steps near the maximum, where F changes by less than its rounding.
    """
    n, a = len(c), 0.5 * (alpha + 0.5)

    def objective(v):
        if v[0] <= 0 or any(hi <= lo for lo, hi in zip(v, v[1:])):
            return -math.inf
        u = a * sum(math.log(w) for w in v) - sum(w * w for w in v) / 4
        u += 0.5 * sum(math.log(v[j] ** 2 - v[i] ** 2) for i in range(n) for j in range(i + 1, n))
        return dt * u - sum((w - ci) ** 2 for w, ci in zip(v, c)) / 2

    def residual(v):
        grad, hess = np.zeros(n), np.zeros((n, n))
        for i in range(n):
            grad[i] = a / v[i] - v[i] / 2
            hess[i, i] = -a / v[i] ** 2 - 0.5
            for j in range(n):
                if j != i:
                    den = v[i] ** 2 - v[j] ** 2
                    grad[i] += v[i] / den
                    hess[i, i] -= (v[i] ** 2 + v[j] ** 2) / den**2
                    hess[i, j] = 2 * v[i] * v[j] / den**2
        return dt * grad - (v - c), np.eye(n) - dt * hess

    v = np.arange(1.0, n + 1)
    for _ in range(200):
        g, jac = residual(v)
        step = np.linalg.solve(jac, g)
        lam, base = 1.0, objective(v)
        while max(abs(step)) > 1e-6 * min(v) and objective(v + lam * step) < base:
            lam /= 2
        v = v + lam * step
        if lam * max(abs(step)) <= 1e-15 * min(v):
            break
    g, _ = residual(v)
    assert max(abs(g)) <= 1e-13 * (max(abs(v)) + max(abs(c)))
    return v


@pytest.mark.parametrize(
    "alpha, x0, dt, steps",
    [
        (0.0, [1.0], 1e-2, 4),  # the closed form at N = 1
        (3.0, [0.0], 0.5, 2),  # the closed form from a zero start
        (1.0, [1.0, 3.0], 1e-3, 3),
        (-0.4, [0.0, 0.0], 1.0, 2),  # a zero head tied with the next coordinate
        (0.5, [1.0, 1.0, 3.0], 0.05, 3),  # tied anchor
        (0.5, [0.0, 0.5, 2.0], 0.1, 2),  # zero head coordinate
        (-0.49, [0.0, 1e-4, 1e-4], 1.0, 3),
        (2.0, [0.1, 0.5, 1.0, 2.0, 4.0], 0.02, 3),
    ],
)
def test_implicit_step_matches_scalar_newton_oracle(alpha, x0, dt, steps):
    size = 12
    got = simulate_sde(alpha, np.array(x0), steps * dt, SdeConfig(dt=dt), RngStream(91, 0), size=size)
    gen = RngStream(91, 0).gen
    zs = [gen.standard_normal((size, len(x0))) for _ in range(steps)]
    for path in range(size):
        y = np.sqrt(np.array(x0))
        for z in zs:
            y = _implicit_step_oracle(alpha, y + math.sqrt(dt / 2) * z[path], dt)
        np.testing.assert_allclose(got[path], y * y, rtol=1e-12, atol=0)


def _implicit_residual(alpha, y, c, dt):
    """c - y + dt grad U(y) and the sum of the magnitudes of its terms, per path."""
    a = 0.5 * (alpha + 0.5)
    terms = [c, -y, dt * a / y, -dt * y / 2]
    n = y.shape[1]
    for i in range(n):
        for j in range(n):
            if j != i:
                pair = np.zeros_like(y)
                pair[:, i] = dt * y[:, i] / ((y[:, i] - y[:, j]) * (y[:, i] + y[:, j]))
                terms.append(pair)
    return sum(terms), sum(np.abs(t) for t in terms)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    x0=st.lists(
        st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, 1.0])), min_size=1, max_size=4
    ).map(sorted),
    alpha=st.floats(-0.5, 3.0, exclude_min=True),
    dt=st.one_of(st.sampled_from([1e-3, 0.1, 1.0]), st.floats(1e-4, 1.0)),
    size=st.integers(1, 8),
)
def test_implicit_step_property(x0, alpha, dt, size):
    # one step: strictly inside the chamber, and a root of its fixed-point residual
    out = simulate_sde(alpha, np.array(x0), dt, SdeConfig(dt=dt), RngStream(92, 0), size=size)
    assert np.all(out > 0)
    assert np.all(np.diff(out, axis=1) > 0)
    z = RngStream(92, 0).gen.standard_normal((size, len(x0)))
    c = np.sqrt(np.array(x0)) + math.sqrt(dt / 2) * z
    residual, scale = _implicit_residual(alpha, np.sqrt(out), c, dt)
    assert np.all(np.abs(residual) <= 1e-9 * scale)


def test_implicit_step_has_no_euler_outliers():
    # at dt = 0.05 the Euler step sends about a dozen of 50k paths past x1 + x2 = 100, where the
    # law has no mass; the implicit step's largest is about 15
    x0, t_end = np.array([1.0, 3.0]), 0.5
    coarse = simulate_sde(1.0, x0, t_end, SdeConfig(dt=0.05), RngStream(93, 0), size=50_000)
    assert np.max(coarse.sum(axis=1)) <= 100.0
    # E e1(T) = e^-T e1(x) + N (alpha + N) (1 - e^-T); the step's weak error is first order
    # in dt (at dt = 0.05 about -0.034, 4.6 standard errors of 50k paths), so the mean is
    # taken at dt = 0.01
    e1 = simulate_sde(1.0, x0, t_end, SdeConfig(dt=0.01), RngStream(94, 0), size=50_000).sum(axis=1)
    exact = math.exp(-t_end) * x0.sum() + 2 * (1.0 + 2) * -math.expm1(-t_end)
    z = (e1.mean() - exact) / (e1.std(ddof=1) / math.sqrt(e1.size))
    assert abs(z) <= 4.0


def test_implicit_step_reaches_a_head_near_zero(monkeypatch):
    # at alpha just above -1/2 the head's root lies near 1e-34 and its barrier term is
    # tiny; with the head's row taken from y_0 G_0 every path converges within 30 rounds
    # (the plain Newton row needs up to about 40)
    monkeypatch.setattr(process, "_NEWTON_ROUNDS", 30)
    alpha, dt = -0.49999999999999994, 1.0
    out = simulate_sde(alpha, np.array([1.0, 4.0]), 3 * dt, SdeConfig(dt=dt), RngStream(96, 0), size=2000)
    assert np.all(out > 0) and np.all(np.diff(out, axis=1) > 0)
    assert np.min(out[:, 0]) < 1e-30


@pytest.mark.parametrize(
    "cap, limit, message",
    [("_NEWTON_ROUNDS", 1, "Newton did not converge in 1 rounds"), ("_NEWTON_HALVINGS", 0, "0 halvings")],
    ids=["rounds", "halvings"],
)
def test_implicit_step_raises_when_newton_is_capped(monkeypatch, cap, limit, message):
    # from a zero start with dt = 1 the first Newton steps are long, so some are halved
    monkeypatch.setattr(process, cap, limit)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"implicit SDE step: {message}"):
        simulate_sde(1.0, np.array([0.0, 0.0]), 1.0, SdeConfig(dt=1.0), RngStream(95, 0), size=50)
    assert threading.active_count() == before


@pytest.mark.parametrize("x0", [[np.nan, 2.0], [1.0, np.inf], [-1.0, 2.0], [2.0, 1.0], []])
def test_simulators_reject_bad_anchor(x0):
    rng = RngStream(83, 0)
    with pytest.raises(ValueError):
        simulate_sde(0.5, np.array(x0), 1.0, SdeConfig(dt=1e-2), rng, size=4)
    with pytest.raises(ValueError):
        simulate_matrix_ou(1, np.array(x0), 1.0, rng, size=4)
    assert rng.gen.standard_normal() == RngStream(83, 0).gen.standard_normal()  # nothing drawn


@pytest.mark.parametrize(
    "alpha, t_end, size",
    [(0.0, -1.0, 4), (0.0, 0.0, 4), (0.0, np.nan, 4), (0.0, np.inf, 4), (0.0, 1.0, -1),
     (np.nan, 1.0, 4), (-1.0, 1.0, 4)],
)
def test_sde_rejects_bad_arguments(alpha, t_end, size):
    rng = RngStream(84, 0)
    with pytest.raises(ValueError):
        simulate_sde(alpha, np.array([1.0]), t_end, SdeConfig(dt=1e-2), rng, size=size)
    assert rng.gen.standard_normal() == RngStream(84, 0).gen.standard_normal()  # nothing drawn


@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_sde_rejects_too_many_steps(dt):
    # 1 / 1e-300 asks for 1e300 steps; 1 / 5e-324 overflows to inf
    rng = RngStream(85, 0)
    with pytest.raises(ValueError, match="time steps"):
        simulate_sde(0.0, np.array([1.0]), 1.0, SdeConfig(dt=dt), rng)
    assert rng.gen.standard_normal() == RngStream(85, 0).gen.standard_normal()  # nothing drawn


def test_sde_step_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(process, "MAX_SDE_STEPS", 10)
    rng = RngStream(86, 0)
    assert simulate_sde(0.0, np.array([1.0]), 1.0, SdeConfig(dt=0.1), rng).shape == (1,)
    with pytest.raises(ValueError, match="time steps"):
        simulate_sde(0.0, np.array([1.0]), 1.0, SdeConfig(dt=0.09), rng)


def test_sde_long_run_reaches_ensemble():
    rng = RngStream(73, 0)
    n_draws = 20_000
    out = simulate_sde(1.0, np.array([1.0, 3.0]), 8.0, SdeConfig(dt=2e-2), rng, size=n_draws)
    ens = sample_laguerre_ensemble(2, 1.0, rng, size=n_draws)
    # compare the total-mass statistic by a two-sample z-test at 4 sigma
    a, b = out.sum(1), ens.sum(1)
    z = (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(z) <= 4.0


def test_matrix_ou_equilibrium_is_wishart():
    rng = RngStream(75, 0)
    draws = simulate_matrix_ou(1, np.array([1.0, 3.0]), 40.0, rng, size=20_000)
    ref = sample_wishart_radial(2, 1, rng, size=20_000)
    for k in range(2):
        rep = ks_two_sample(EmpiricalSample(draws[:, k]), EmpiricalSample(ref[:, k]))
        assert rep.p_value > 0.01 / 2


def test_matrix_ou_invariance_of_ensemble():
    # started from the ensemble, the evolved law is again the ensemble
    rng = RngStream(77, 0)
    n_draws = 20_000
    starts = sample_laguerre_ensemble(2, 1.0, rng, size=n_draws)
    evolved = np.empty_like(starts)
    t = 0.6
    decay = math.exp(-0.5 * t)
    scale = math.sqrt(0.5 * -math.expm1(-t))
    # exact one-shot update for each start (batched by hand over rows)
    m0 = np.zeros((n_draws, 3, 2), dtype=complex)
    m0[:, 0, 0] = np.sqrt(starts[:, 0])
    m0[:, 1, 1] = np.sqrt(starts[:, 1])
    g = rng.gen.standard_normal((n_draws, 3, 2)) + 1j * rng.gen.standard_normal((n_draws, 3, 2))
    from laguerre_intertwine.rmt import radial_part

    evolved = radial_part(decay * m0 + scale * g)
    fresh = sample_laguerre_ensemble(2, 1.0, rng, size=n_draws)
    for stat in (lambda v: v.sum(1), lambda v: np.log(v).sum(1)):
        rep = ks_two_sample(EmpiricalSample(stat(evolved)), EmpiricalSample(stat(fresh)))
        assert rep.p_value > 0.01 / 2


def test_matrix_ou_rejects_bad_alpha():
    rng = RngStream(78, 0)
    with pytest.raises(ValueError):
        simulate_matrix_ou(-1, np.array([1.0]), 1.0, rng)
    with pytest.raises(ValueError):
        simulate_matrix_ou(0.5, np.array([1.0]), 1.0, rng)


def test_sde_config_validation():
    with pytest.raises(ValueError):
        SdeConfig(dt=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            SdeConfig(dt=bad)
    with pytest.raises(ValueError):
        SemigroupParams(0.5, 0.1, 0)
