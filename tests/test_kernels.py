import math

import numpy as np
import pytest
from conftest import binned_gof_2d

from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_intertwine import kernels
from laguerre_intertwine.experiments import (
    TEST_FUNCTIONS,
    composed_corner_density,
    stacked_test_functions,
)
from laguerre_intertwine.kernels import (
    DegenerateAnchorError,
    InterlacingWindow,
    KernelSpec,
    RejectionLimitError,
    UnsupportedDimensionError,
    apply_kernel_quadrature,
    apply_kernel_to_anchors,
    density_alpha_corner,
    density_alpha_square,
    density_corner,
    density_hat_corner,
    density_hat_square,
    is_chamber_point,
    is_strict_interior,
    kernel_density,
    sample_alpha_corner,
    sample_alpha_corner_rows,
    sample_alpha_square,
    sample_corner,
    sample_corner_many,
    sample_corner_rejection,
    vandermonde,
)
from laguerre_intertwine.numerics import RngStream, power_stretch, unit_gauss_legendre
from laguerre_intertwine.rmt import sample_corner_alpha_matrix
from laguerre_intertwine.stats import EmpiricalSample, grid_cdf, ks_one_sample, ks_two_sample

ONE = lambda y: np.ones(y.shape[:-1])
F_EXP = lambda y: np.exp(-np.sum(y, axis=-1))
SCALAR_FUNCTIONS = tuple(TEST_FUNCTIONS.values())


def test_vandermonde_values():
    assert vandermonde(np.array([3.0])) == 1.0
    assert vandermonde(np.array([0.0, 1.0, 2.0])) == 2.0
    assert vandermonde(np.array([1.0, 3.0])) == 2.0


def test_chamber_predicates():
    assert is_chamber_point(np.array([0.0, 1.0, 1.0]))
    assert not is_chamber_point(np.array([1.0, 0.0]))
    assert is_chamber_point(np.array([-1.0, 2.0]))
    assert not is_chamber_point(np.array([-1.0, 2.0]), nonneg=True)
    assert is_strict_interior(np.array([1.0, 2.0]), nonneg=True)
    assert not is_strict_interior(np.array([0.0, 2.0]), nonneg=True)
    assert not is_strict_interior(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [0, 1])
def test_chamber_predicates_reject_non_finite(bad, pos):
    x = np.array([1.0, 2.0])
    x[pos] = bad
    for nonneg in (False, True):
        assert not is_chamber_point(x, nonneg=nonneg)
        assert not is_strict_interior(x, nonneg=nonneg)


@pytest.mark.parametrize("anchor", [[np.nan, 2.0], [1.0, np.inf], [np.nan, np.nan]])
def test_samplers_reject_non_finite_anchor(anchor):
    # a NaN anchor used to pass the predicates and spin the rejection loop forever
    rng = RngStream(914, 0)
    with pytest.raises(ValueError):
        sample_alpha_square(1.0, anchor, rng)
    with pytest.raises(ValueError):
        sample_alpha_corner(1.0, anchor, rng, size=3)
    with pytest.raises(ValueError):
        sample_alpha_corner_rows(1.0, np.array([[0.5, 1.0], anchor]), rng)


def test_window_membership():
    outer = InterlacingWindow("outer", np.array([0.0, 1.0, 2.0]))
    assert outer.contains(np.array([0.5, 1.5]))
    assert outer.contains(np.array([0.0, 2.0]))  # boundary contact allowed
    assert not outer.contains(np.array([0.5, 2.5]))
    inner = InterlacingWindow("inner", np.array([1.0, 3.0]))
    assert inner.contains(np.array([0.2, 2.0]))
    assert not inner.contains(np.array([1.5, 2.0]))


def test_density_corner_values():
    assert density_corner(np.array([0.0, 2.0]), np.array([1.0])) == pytest.approx(0.5)
    val = density_corner(np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5]))
    assert val == pytest.approx(1.0)
    assert density_corner(np.array([0.0, 1.0, 2.0]), np.array([0.5, 2.5])) == 0.0


def test_density_corner_normalizes():
    spec = KernelSpec("corner")
    val = apply_kernel_quadrature(spec, np.array([0.0, 1.0, 2.0]), ONE, 2, 20)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_density_corner_degenerate_anchor():
    with pytest.raises(DegenerateAnchorError):
        density_corner(np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.5]))


def test_density_alpha_square_values():
    assert density_alpha_square(0.0, np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)
    assert density_alpha_square(1.0, np.array([1.0]), np.array([0.5])) == pytest.approx(1.0)
    with pytest.raises(DegenerateAnchorError):
        density_alpha_square(0.5, np.array([0.0, 1.0]), np.array([0.0, 0.5]))


def test_alpha_square_normalization_lemma():
    val = apply_kernel_quadrature(
        KernelSpec("alpha_square", 0.5), np.array([1.0, 3.0]), ONE, 2, 20
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_density_alpha_corner_values():
    x = np.array([1.0, 2.0])
    assert density_alpha_corner(0.0, x, np.array([0.5])) == pytest.approx(math.log(2.0))
    assert density_alpha_corner(0.0, x, np.array([1.5])) == pytest.approx(math.log(4.0 / 3.0))
    val = apply_kernel_quadrature(KernelSpec("alpha_corner", 0.0), x, ONE, 2, 20)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_normalization_grid():
    # every probability kernel integrates to 1 on the acceptance grid
    corner_anchors = {1: [1.0, 2.0], 2: [1.0, 2.0, 4.0], 3: [1.0, 2.0, 4.0, 7.0]}
    square_anchors = {1: [2.0], 2: [1.0, 3.0], 3: [1.0, 2.5, 5.0]}
    for n in (1, 2, 3):
        val = apply_kernel_quadrature(
            KernelSpec("corner"), np.array(corner_anchors[n]), ONE, 2, 20
        )
        assert abs(val - 1.0) < 1e-7
        for alpha in (-0.5, 0.0, 1.0, 2.5):
            for kind, anchor in (
                ("alpha_square", square_anchors[n]),
                ("alpha_corner", corner_anchors[n]),
            ):
                val = apply_kernel_quadrature(
                    KernelSpec(kind, alpha), np.array(anchor), ONE, 2, 20
                )
                assert abs(val - 1.0) < 1e-7, (kind, n, alpha, val)


def test_composition_identity_pointwise():
    # the alpha corner kernel equals corner followed by the same-dimension
    # alpha kernel, density by density
    rng = np.random.default_rng(5)
    for alpha in (-0.5, 0.0, 1.0):
        for x in (np.array([1.0, 2.0]), np.array([1.0, 2.0, 4.0])):
            n = len(x) - 1
            for _ in range(5):
                lo = np.concatenate([[0.0], x[: n - 1]])
                y = np.sort(lo + rng.random(n) * (x[1:] - lo))
                direct = density_alpha_corner(alpha, x, y)
                if direct <= 0.0:
                    continue
                composed = composed_corner_density(alpha, x, y, 4, 20)
                assert composed == pytest.approx(direct, rel=1e-6)


def test_hat_density_values():
    assert density_hat_square(0.0, np.array([2.0]), np.array([1.0])) == pytest.approx(math.e)
    assert density_hat_square(0.0, np.array([2.0]), np.array([2.5])) == 0.0
    assert density_hat_corner(-1.0, np.array([1.0, 3.0]), np.array([2.0])) == pytest.approx(
        math.e**2
    )
    assert density_hat_corner(0.0, np.array([1.0, 3.0]), np.array([0.5])) == 0.0


def test_apply_kernel_expectations():
    # mean of the uniform corner law on [0, 2]
    val = apply_kernel_quadrature(
        KernelSpec("corner"), np.array([0.0, 2.0]), lambda y: y[..., 0], 2, 20
    )
    assert val == pytest.approx(1.0, abs=1e-10)
    # power-law mean (alpha+1)/(alpha+2) on [0, 1]
    val = apply_kernel_quadrature(
        KernelSpec("alpha_square", 1.0), np.array([1.0]), lambda y: y[..., 0], 2, 20
    )
    assert val == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_apply_kernel_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        apply_kernel_quadrature(
            KernelSpec("corner"), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), ONE, 2, 8
        )


def test_continuity_at_degenerate_anchor():
    # anchor approaching a tie: values converge linearly in the gap
    vals = [
        apply_kernel_quadrature(
            KernelSpec("alpha_square", 0.5),
            np.array([1.0, 1.0 + 10.0**-k, 2.0]),
            F_EXP,
            2,
            20,
        )
        for k in range(1, 6)
    ]
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(4)]
    for i in range(3):
        assert diffs[i + 1] <= 0.3 * diffs[i]


def test_feller_decay_along_ray():
    vals = []
    for s in (10.0, 20.0, 40.0, 80.0):
        vals.append(
            apply_kernel_quadrature(
                KernelSpec("alpha_square", 0.0),
                np.array([1.0, 2.0, s]),
                F_EXP,
                (2, 2, 16),
                16,
            )
        )
    assert all(vals[i + 1] < vals[i] for i in range(3))
    assert vals[-1] < 1e-3


def test_vandermonde_is_generator_eigenfunction():
    # sum of one-particle generators applied to the Vandermonde by finite
    # differences returns -N(N-1)/2 times it (independent of alpha)
    h = 1e-4
    for alpha in (0.0, 1.0):
        for x in (np.array([1.0, 2.5]), np.array([0.7, 3.1])):
            total = 0.0
            for i in range(len(x)):
                def shifted(v):
                    xx = x.copy()
                    xx[i] = v
                    return vandermonde(xx)

                d1 = (shifted(x[i] + h) - shifted(x[i] - h)) / (2 * h)
                d2 = (shifted(x[i] + h) - 2 * shifted(x[i]) + shifted(x[i] - h)) / h**2
                total += x[i] * d2 + (alpha + 1.0 - x[i]) * d1
            assert abs(total - (-1.0) * vandermonde(x)) < 1e-4


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sample_corner_uniform_n1():
    rng = RngStream(901, 0)
    draws = sample_corner_many(np.array([0.0, 2.0]), rng, 100_000)[:, 0]
    rep = ks_one_sample(EmpiricalSample(draws, "corner"), lambda v: np.clip(v / 2.0, 0, 1))
    assert rep.p_value > 0.01


def test_sample_corner_tied_anchor_is_deterministic():
    rng = RngStream(902, 0)
    draw = sample_corner(np.array([2.0, 2.0, 2.0]), rng)
    assert np.allclose(draw, 2.0, atol=1e-10)


def test_sample_corner_binned_gof_n2():
    rng = RngStream(903, 0)
    x = np.array([0.0, 1.0, 2.0])
    draws = sample_corner_many(x, rng, 100_000)
    p = binned_gof_2d(
        draws,
        lambda mesh: density_corner(x, mesh),
        np.linspace(0.0, 1.0, 7),
        np.linspace(1.0, 2.0, 7),
    )
    assert p > 0.01


def test_sample_corner_rejection_agrees_with_matrix_model():
    rng = RngStream(904, 0)
    x = np.array([0.0, 1.0, 2.0])
    a = sample_corner_many(x, rng, 10_000)
    b = sample_corner_rejection(x, rng, size=10_000)
    for k in range(2):
        assert ks_two_sample(EmpiricalSample(a[:, k]), EmpiricalSample(b[:, k])).p_value > 0.01 / 2


def test_sample_corner_rejection_n3_marginals():
    rng = RngStream(915, 0)
    x = np.array([0.0, 1.0, 2.0, 4.0])
    a = sample_corner_many(x, rng, 8000)
    b = sample_corner_rejection(x, rng, size=8000)
    for k in range(3):
        assert ks_two_sample(EmpiricalSample(a[:, k]), EmpiricalSample(b[:, k])).p_value > 0.01 / 3


def test_sample_corner_rejection_n1_always_accepts_and_guard():
    rng = RngStream(905, 0)
    draws = sample_corner_rejection(np.array([0.0, 2.0]), rng, size=200)
    assert np.all((draws >= 0.0) & (draws <= 2.0))
    with pytest.raises(UnsupportedDimensionError):
        sample_corner_rejection(np.arange(7.0), rng)


def test_sample_corner_rejection_acceptance_rate():
    # acceptance probability = Delta_{N+1}(x) / (N! vol bound), with the
    # Vandermonde integral over the window evaluated by quadrature
    rng = RngStream(906, 0)
    x = np.array([0.0, 1.0, 2.0])
    target = apply_kernel_quadrature(KernelSpec("corner"), x, ONE, 2, 16)  # = 1
    # direct quadrature of Delta over the window
    u, w = unit_gauss_legendre(2, 16)
    y1 = 0.0 + 1.0 * u
    y2 = 1.0 + 1.0 * u
    mesh = np.stack(np.meshgrid(y1, y2, indexing="ij"), axis=-1)
    delta_integral = float(
        (vandermonde(mesh) * np.outer(w, w)).sum()
    )
    bound = 2.0  # x[2] - x[0]
    vol = 1.0
    expected = delta_integral / (vol * bound)
    n = 40_000
    accepted = 0
    trials = 0
    pending = n
    while pending:
        u1 = rng.gen.random((pending, 2))
        y = x[:-1] + u1 * np.diff(x)
        ratio = vandermonde(y) / bound
        acc = rng.gen.random(pending) < ratio
        trials += pending
        accepted += int(acc.sum())
        pending -= int(acc.sum())
    rate = accepted / trials
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) < 4.0 * se
    assert target == pytest.approx(1.0, abs=1e-8)


def test_sample_alpha_square_n1_power_law():
    rng = RngStream(907, 0)
    alpha, z = 1.5, np.array([2.0])
    draws = sample_alpha_square(alpha, z, rng, size=100_000)[:, 0]
    rep = ks_one_sample(
        EmpiricalSample(draws), lambda v: np.clip(v / z[0], 0, 1) ** (alpha + 1.0)
    )
    assert rep.p_value > 0.01


def test_sample_alpha_square_marginals_vs_quadrature():
    rng = RngStream(908, 0)
    alpha, z = 1.0, np.array([1.0, 2.0])
    draws = sample_alpha_square(alpha, z, rng, size=100_000)
    # marginal of y1 by integrating out y2 over [z1, z2]
    u, w = unit_gauss_legendre(2, 24)
    y2 = z[0] + (z[1] - z[0]) * u
    w2 = (z[1] - z[0]) * w

    def marginal_1(v):
        pts = np.stack(np.broadcast_arrays(v[:, None], y2[None, :]), axis=-1)
        return density_alpha_square(alpha, z, pts) @ w2

    cdf1 = grid_cdf(marginal_1, 0.0, z[0], endpoint_exponent=alpha)
    rep = ks_one_sample(EmpiricalSample(draws[:, 0], "marg1"), cdf1)
    assert rep.p_value > 0.01 / 2

    def marginal_2(v):
        u1, w1 = unit_gauss_legendre(2, 24)
        y1 = z[0] * (u1**3)
        wy1 = 3.0 * z[0] * u1**2 * w1
        pts = np.stack(np.broadcast_arrays(y1[None, :], v[:, None]), axis=-1)
        return density_alpha_square(alpha, z, pts) @ wy1

    cdf2 = grid_cdf(marginal_2, z[0], z[1])
    rep = ks_one_sample(EmpiricalSample(draws[:, 1], "marg2"), cdf2)
    assert rep.p_value > 0.01 / 2


def test_sample_alpha_square_vs_matrix_model():
    rng = RngStream(909, 0)
    z = np.array([1.0, 2.0])
    a = sample_alpha_square(1.0, z, rng, size=20_000)
    b = sample_corner_alpha_matrix(1, z, rng, size=20_000)
    for k in range(2):
        assert ks_two_sample(EmpiricalSample(a[:, k]), EmpiricalSample(b[:, k])).p_value > 0.01 / 2


def test_sample_alpha_corner_n1_vs_density_cdf():
    rng = RngStream(910, 0)
    x = np.array([1.0, 2.0])
    draws = sample_alpha_corner(0.0, x, rng, size=100_000)[:, 0]
    cdf = grid_cdf(lambda v: density_alpha_corner(0.0, x, v[..., None]), 0.0, 2.0)
    rep = ks_one_sample(EmpiricalSample(draws, "alpha_corner"), cdf)
    assert rep.p_value > 0.01


def test_sample_alpha_corner_binned_gof_n2():
    rng = RngStream(911, 0)
    alpha, x = 1.0, np.array([1.0, 2.0, 4.0])
    draws = sample_alpha_corner(alpha, x, rng, size=100_000)
    p = binned_gof_2d(
        draws,
        lambda mesh: density_alpha_corner(alpha, x, mesh),
        np.concatenate([np.linspace(0.0, 1.0, 5), np.linspace(1.0, 2.0, 5)[1:]]),
        np.concatenate([np.linspace(1.0, 2.0, 5), np.linspace(2.0, 4.0, 5)[1:]]),
    )
    assert p > 0.01


def test_sample_alpha_corner_degenerate_anchor_n1():
    # fully tied two-point anchor: law has CDF (y/c)^(alpha+1)
    rng = RngStream(912, 0)
    alpha, c = 1.0, 2.0
    draws = sample_alpha_corner(alpha, np.array([c, c]), rng, size=50_000)[:, 0]
    rep = ks_one_sample(EmpiricalSample(draws), lambda v: np.clip(v / c, 0, 1) ** (alpha + 1.0))
    assert rep.p_value > 0.01


def test_sample_alpha_corner_degenerate_anchor_n2_matches_matrix_model():
    # tied three-point anchor: the top coordinate is forced to the tie value
    # and the free coordinate follows the continuous-extension law, which the
    # truncated-unitary model realizes exactly at integer alpha
    rng = RngStream(913, 0)
    c = 2.0
    mine = sample_alpha_corner(0.0, np.array([c, c, c]), rng, size=20_000)
    ref = sample_corner_alpha_matrix(0, np.array([c, c]), rng, size=20_000)
    assert np.allclose(mine[:, 1], c, atol=1e-8)
    assert np.allclose(ref[:, 1], c, atol=1e-7)
    assert ks_two_sample(EmpiricalSample(mine[:, 0]), EmpiricalSample(ref[:, 0])).p_value > 0.01


# -- the applier's vector-valued f contract ----------------------------------

KINDS = ["corner", "alpha_square", "alpha_corner", "hat_corner", "hat_square"]
CORNER_ROWS = {1: [1.0, 2.0], 2: [1.0, 2.0, 4.0], 3: [0.5, 2.0, 4.0, 7.0]}
SQUARE_ROWS = {1: [2.0], 2: [1.0, 3.0], 3: [0.5, 2.5, 5.0]}


def _spec_and_anchor(kind, alpha, n):
    spec = KernelSpec(kind, None if kind == "corner" else alpha)
    rows = SQUARE_ROWS if kind in ("alpha_square", "hat_square") else CORNER_ROWS
    return spec, np.array(rows[n])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-0.5, 1.0])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_quadrature_points_are_sorted(kind, alpha, n):
    # the applier passes its mesh points to f without sorting them
    spec, anchor = _spec_and_anchor(kind, alpha, n)
    seen = []

    def recording(y):
        seen.append(y.copy())
        return F_EXP(y)

    order = 8 if n == 3 else 12
    if kind == "hat_square" and alpha >= 0:
        # y^(-alpha-1) is not integrable over the inner window [0, z_1]
        with pytest.raises(ValueError, match="diverges"):
            apply_kernel_to_anchors(spec, np.stack([anchor, 1.5 * anchor]), recording, 2, order)
        return
    apply_kernel_to_anchors(spec, np.stack([anchor, 1.5 * anchor]), recording, 2, order)
    rows = np.concatenate(seen)
    assert rows.shape[0] > 0 and rows.shape[1] == n
    assert np.all(np.diff(rows, axis=-1) >= 0)


def test_kernel_quadrature_points_are_sorted_with_stretched_nodes():
    # alpha_corner at alpha = -0.5 places its nodes through the power map
    assert power_stretch(-0.5) > 1.0
    seen = []

    def recording(y):
        seen.append(y.copy())
        return F_EXP(y)

    anchors = np.array([[1e-3, 0.5, 0.5 + 1e-6, 3.0], [0.2, 0.3, 4.0, 9.0]])
    apply_kernel_to_anchors(KernelSpec("alpha_corner", -0.5), anchors, recording, (2, 1, 3), 10)
    rows = np.concatenate(seen)
    assert rows.shape[0] > 0
    assert np.all(np.diff(rows, axis=-1) >= 0)


def _assert_stacked_matches_scalar(spec, anchors, chunk_elems, panels=2, order=10):
    got = apply_kernel_to_anchors(
        spec, anchors, stacked_test_functions, panels, order, chunk_elems=chunk_elems
    )
    assert got.shape == (len(anchors), len(SCALAR_FUNCTIONS))
    for j, fn in enumerate(SCALAR_FUNCTIONS):
        want = apply_kernel_to_anchors(spec, anchors, fn, panels, order, chunk_elems=chunk_elems)
        assert want.shape == (len(anchors),)
        assert np.array_equal(got[:, j], want)
    return got


@pytest.mark.parametrize("kind", KINDS)
def test_stacked_f_matches_scalar_calls_bit_for_bit(kind):
    spec, anchor = _spec_and_anchor(kind, -0.5, 2)
    tied = anchor.copy()
    tied[1] = tied[0]
    zero_head = anchor.copy()
    zero_head[0] = 0.0
    anchors = np.stack([anchor, tied, 1.5 * anchor, zero_head, 0.5 * anchor])
    # a small chunk budget runs several chunks of a few anchors each
    got = _assert_stacked_matches_scalar(spec, anchors, chunk_elems=500)
    if kind in ("corner", "alpha_square", "alpha_corner"):
        assert np.all(got[1] == 0.0)  # the degenerate anchor


def test_stacked_f_with_no_valid_anchor():
    anchors = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    spec = KernelSpec("alpha_corner", 1.0)
    got = apply_kernel_to_anchors(spec, anchors, stacked_test_functions)
    assert got.shape == (2, 3) and np.all(got == 0.0)
    assert apply_kernel_to_anchors(spec, anchors, F_EXP).shape == (2,)


def test_apply_kernel_quadrature_return_types():
    spec, anchor = KernelSpec("alpha_corner", 1.0), np.array([1.0, 2.0, 4.0])
    scalar = apply_kernel_quadrature(spec, anchor, F_EXP, 2, 10)
    vector = apply_kernel_quadrature(spec, anchor, stacked_test_functions, 2, 10)
    assert type(scalar) is float
    assert vector.shape == (3,) and vector[0] == scalar


def test_apply_kernel_rejects_misshaped_f():
    spec, anchor = KernelSpec("corner"), np.array([1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        apply_kernel_quadrature(spec, anchor, lambda y: np.ones(3), 2, 10)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(KINDS),
    alpha=st.floats(-0.9, 3.0),
    n=st.integers(1, 2),
    raw=st.lists(st.floats(0.0, 6.0), min_size=9, max_size=9),
    m=st.integers(1, 3),
    chunk_elems=st.sampled_from([1, 300, 250_000]),
)
def test_stacked_f_matches_scalar_property(kind, alpha, n, raw, m, chunk_elems):
    spec = KernelSpec(kind, None if kind == "corner" else alpha)
    d = n if kind in ("alpha_square", "hat_square") else n + 1
    anchors = np.sort(np.array(raw[: m * d]).reshape(m, d), axis=-1)
    # the rows the quadrature evaluates; over a window from 0 the hat
    # kernels' y^(-alpha-1) is not integrable when -alpha-1 <= -1 in floating
    # point, and just above -1 its power-map nodes underflow to 0; anchor
    # coordinates or gaps below 1e-100 (subnormal ones among them) may also
    # put the density beyond the float range
    evaluated = np.all(np.diff(anchors, axis=-1) > 0, axis=-1)
    if kind in ("alpha_square", "alpha_corner", "hat_square"):
        evaluated &= anchors[:, 0] > 0
    from_zero = np.any(evaluated & (anchors[:, 0] == 0 if kind == "hat_corner" else True))
    hat_power = -alpha - 1.0 if kind in ("hat_corner", "hat_square") else 0.0
    divergent = from_zero and hat_power <= -1.0
    tiny = np.any((anchors > 0) & (anchors < 1e-100), axis=-1)
    tiny |= np.any(np.diff(anchors, axis=-1) < 1e-100, axis=-1)
    out_of_range = np.any(evaluated & tiny) or (from_zero and hat_power < -0.9)
    try:
        got = _assert_stacked_matches_scalar(spec, anchors, chunk_elems, panels=1, order=6)
    except ValueError as exc:
        # never a NaN: the error names a divergent integral, or a density
        # beyond the float range at tiny anchors
        msg = str(exc)
        assert ("diverges" in msg and divergent) or ("float range" in msg and out_of_range), exc
        return
    assert not divergent and np.all(np.isfinite(got))


@pytest.mark.parametrize("alpha", [-0.5, 1.0])
def test_hat_square_zero_width_window_contributes_zero(alpha):
    # a zero head or a tie leaves a window of zero width, which must give
    # exactly 0, not NaN (0/0 in the power-map panel edges, or an infinite
    # density times a zero weight)
    spec = KernelSpec("hat_square", alpha)
    anchors = np.array([[0.0, 3.0], [1.0, 3.0], [1.0, 1.0]])
    if alpha >= 0:
        # the row (1, 3) is a divergent integral: y^(-2) over [0, 1]
        with pytest.raises(ValueError, match="diverges"):
            apply_kernel_to_anchors(spec, anchors, ONE)
        return
    got = apply_kernel_to_anchors(spec, anchors, ONE)
    alone = apply_kernel_to_anchors(spec, np.array([[1.0, 3.0]]), ONE)
    assert got[0] == 0.0 and got[2] == 0.0
    assert np.isfinite(got[1]) and got[1] == alone[0]


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.0, 2.5])
@pytest.mark.parametrize("kind", ["alpha_square", "alpha_corner"])
def test_mass_is_one_at_a_tiny_head(kind, alpha):
    # prod y^alpha / prod z^(alpha+1) and a^-alpha - b^-alpha used to leave
    # the float range here (NaN or inf: alpha_square at every alpha but 0,
    # alpha_corner at 2 and 2.5); the ratio forms stay bounded.  At alpha = 0
    # the alpha_corner segment factor log(b / y) needs clustered nodes (plain
    # ones gave a mass of 0.998872)
    anchor = np.array([1e-300, 2.0] if kind == "alpha_square" else [1e-300, 2.0, 4.0])
    mass = apply_kernel_quadrature(KernelSpec(kind, alpha), anchor, ONE, 2, 20)
    assert abs(mass - 1.0) <= 1e-7


@pytest.mark.parametrize(
    "kind, anchor",
    [
        ("alpha_square", [2.2e-311, 1.0]),
        ("alpha_square", [5e-324]),
        ("alpha_corner", [2.2e-311, 1.0, 2.0]),
        ("hat_square", [2.2e-311, 1.0]),
        ("hat_corner", [0.0, 2.2e-311, 1.0]),
        # the anchor's Vandermonde underflows to 0
        ("corner", [0.0, 2.2250738585072014e-308, 5.7274957680435675e-108]),
    ],
)
def test_density_out_of_float_range_raises(kind, anchor):
    # these used to return NaN, inf, or a mass that lost the subnormal's digits
    spec = KernelSpec(kind, None if kind == "corner" else -0.5)
    with pytest.raises(ValueError, match="float range"):
        apply_kernel_to_anchors(spec, np.array([anchor, [1.0, 2.0, 4.0][: len(anchor)]]), ONE)
    if kind != "corner":
        y = 0.5 * np.array(anchor[1:] if "corner" in kind else anchor)
        with pytest.raises(ValueError, match="subnormal"):
            kernel_density(spec, np.array(anchor), y)


def test_divergent_hat_integrals_raise():
    # with f = 1, hat_square at (2,) grew with the resolution (10.2, 11.6,
    # 13.0, 14.3, ...) instead of diverging
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match="diverges"):
            apply_kernel_quadrature(KernelSpec("hat_square", alpha), np.array([2.0]), ONE)
        hat_corner = KernelSpec("hat_corner", alpha)
        with pytest.raises(ValueError, match="diverges"):
            apply_kernel_to_anchors(hat_corner, np.array([[1.0, 2.0], [0.0, 1.0]]), ONE)
        # a positive head keeps the corner window away from 0
        assert np.isfinite(apply_kernel_quadrature(hat_corner, np.array([1.0, 2.0]), ONE))
    # alpha < 0: y^(-alpha-1) is integrable at 0; at alpha = -0.5 the
    # integral of e^y y^-0.5 over [0, 1] is 2 * sum_k 1 / (k! (2k + 1))
    exact = 2.0 * sum(1.0 / (math.factorial(k) * (2 * k + 1)) for k in range(30))
    got = apply_kernel_to_anchors(KernelSpec("hat_corner", -0.5), np.array([[0.0, 1.0]]), ONE)
    assert got[0] == pytest.approx(exact, rel=1e-10)
    got = apply_kernel_quadrature(KernelSpec("hat_square", -0.5), np.array([1.0]), ONE)
    assert got == pytest.approx(exact, rel=1e-10)


def test_kernel_spec_checks_alpha_domain():
    for kind, alpha in [("corner", 0.5), ("alpha_square", -1.0), ("alpha_corner", None),
                        ("hat_corner", np.nan), ("hat_square", None), ("nope", None)]:
        with pytest.raises(ValueError):
            KernelSpec(kind, alpha)
    assert KernelSpec("hat_corner", -3.0).alpha == -3.0


def test_kernel_density_takes_anchor_rows():
    anchors = np.array([[1.0, 2.0, 4.0], [0.5, 1.5, 3.0]])
    y = np.array([[1.5, 3.0], [1.0, 2.0]])
    got = kernel_density(KernelSpec("alpha_corner", 0.5), anchors, y)
    assert got.shape == (2,)
    for k in range(2):
        assert got[k] == density_alpha_corner(0.5, anchors[k], y[k])
    with pytest.raises(DegenerateAnchorError):
        kernel_density(KernelSpec("corner"), np.array([[1.0, 2.0], [1.0, 1.0]]), np.array([1.5]))
    with pytest.raises(ValueError):
        kernel_density(KernelSpec("alpha_square", 0.5), np.array([-1.0, 2.0]), np.array([0.5, 1.0]))


# -- rejection loops are bounded ----------------------------------------------

def test_rejection_loops_stop_at_round_cap(monkeypatch):
    def draw(rng):
        return sample_corner_rejection(np.array([0.0, 1.0, 2.0, 3.0]), rng, size=200)

    draw(RngStream(914, 0))  # finishes under the default cap
    monkeypatch.setattr(kernels, "MAX_REJECTION_ROUNDS", 1)
    with pytest.raises(RejectionLimitError, match="rejection"):
        draw(RngStream(914, 0))
    assert issubclass(RejectionLimitError, ValueError)  # the CLI maps it to exit 2


# -- Dixon-Anderson samplers --------------------------------------------------

def _power_law_inverse_cdf(alpha, lo, hi, u):
    """Inverse CDF of the density ~ y^alpha on [lo, hi] (alpha > -1)."""
    ap = alpha + 1.0
    return (lo**ap + u * (hi**ap - lo**ap)) ** (1.0 / ap)


def _alpha_square_rejection(alpha, z_rows, rng):
    """Oracle: one alpha_square draw per anchor row by rejection.

    Proposals ~ y^alpha per window, accepted with the Vandermonde ratio over
    the bound prod_{i<j} (z_j - z_{i-1}).  A coordinate whose window has
    zero width is forced to it, and the pairs of two forced coordinates drop
    out of the ratio (the continuous extension to tied anchors and a zero
    head).
    """
    m, n = z_rows.shape
    lo = np.concatenate([np.zeros((m, 1)), z_rows[:, :-1]], axis=1)
    forced = z_rows - lo == 0.0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bound = np.ones(m)
    for i, j in pairs:
        bound *= np.where(forced[:, i] & forced[:, j], 1.0, z_rows[:, j] - lo[:, i])
    out = np.empty((m, n))
    pending = np.arange(m)
    while pending.size:
        u = rng.gen.random((pending.size, n))
        y = _power_law_inverse_cdf(alpha, lo[pending], z_rows[pending], u)
        y = np.where(forced[pending], z_rows[pending], y)
        ratio = np.ones(pending.size)
        for i, j in pairs:
            both = forced[pending, i] & forced[pending, j]
            ratio *= np.where(both, 1.0, y[:, j] - y[:, i])
        accept = rng.gen.random(pending.size) < ratio / bound[pending]
        out[pending[accept]] = y[accept]
        pending = pending[~accept]
    return out


def _ks_family_passes(a, b, level=1e-3):
    """Two-sample KS on each marginal and on the sum, Bonferroni at ``level``."""
    columns = [(a[:, k], b[:, k]) for k in range(a.shape[1])] + [(a.sum(axis=1), b.sum(axis=1))]
    p_values = [ks_two_sample(EmpiricalSample(x), EmpiricalSample(y)).p_value for x, y in columns]
    return min(p_values) > level / len(columns), p_values


SQUARE_ORACLE_CASES = [
    (alpha, z)
    for alpha in (-0.5, 0.5, 2.0)
    for z in ((1.0, 2.5), (0.5, 1.5, 3.0))
] + [(0.5, (0.0, 1.0, 1.0, 3.0)), (-0.5, (0.0, 1.5, 3.0))]


@pytest.mark.parametrize("case", range(len(SQUARE_ORACLE_CASES)))
def test_sample_alpha_square_matches_rejection_oracle(case):
    alpha, z = SQUARE_ORACLE_CASES[case]
    n = 20_000
    mine = sample_alpha_square(alpha, z, RngStream(916, case), size=n)
    ref = _alpha_square_rejection(alpha, np.tile(z, (n, 1)), RngStream(917, case))
    passed, p_values = _ks_family_passes(mine, ref)
    assert passed, (alpha, z, p_values)


@pytest.mark.parametrize("x", [(1.0, 2.0, 4.0), (0.5, 1.0, 2.5, 4.0)])
def test_sample_alpha_corner_matches_matrix_then_rejection_oracle(x):
    # oracle: the corner step by the Haar matrix model, then the rejection
    # oracle at each corner draw
    alpha, n = 0.5, 20_000
    mine = sample_alpha_corner(alpha, x, RngStream(918, len(x)), size=n)
    rng = RngStream(919, len(x))
    ref = _alpha_square_rejection(alpha, sample_corner_many(np.array(x), rng, n), rng)
    passed, p_values = _ks_family_passes(mine, ref)
    assert passed, (x, p_values)


def _bisection_roots(poles, weights, steps=200):
    lo, hi = poles[:, :-1].copy(), poles[:, 1:].copy()
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.sum(weights[:, None, :] / (mid[:, :, None] - poles[:, None, :]), axis=2)
        lo, hi = np.where(f > 0, mid, lo), np.where(f > 0, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_secular_roots_match_bisection(m):
    gen = np.random.default_rng(920 + m)
    rows = 400
    # gaps >= 0.1 keep the bisection reference's rounding of absolute
    # positions far below 1e-12 of each interval's width
    poles = np.cumsum(gen.uniform(0.1, 3.0, size=(rows, m + 1)), axis=1)
    poles[::2] -= poles[::2, :1]  # half the rows start at the pole 0
    shapes = np.ones(m + 1)
    shapes[0] = 0.3
    weights = gen.standard_gamma(shapes, size=(rows, m + 1))
    got = kernels._secular_roots(poles, weights)
    want = _bisection_roots(poles, weights)
    width = np.diff(poles, axis=1)
    assert np.all(np.abs(got - want) <= 1e-12 * width)


def test_secular_roots_degenerate_cases():
    poles = np.array([[0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 2.0, 2.0]])
    weights = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.5, 1.0, 1.0, 2.0]])
    got = kernels._secular_roots(poles, weights)
    assert got[0, 1] == 1.0  # a zero-width interval gives its pole
    # zero weights on the near side: the roots are the poles (the limit)
    assert got[1, 0] == 0.0 and got[1, 2] == 3.0
    assert got[1, 1] == pytest.approx(1.5, abs=1e-15)  # 1/(y-1) + 1/(y-2) = 0
    assert got[2, 0] == 0.0 and got[2, 2] == 2.0
    assert np.all(np.isfinite(got))


def test_secular_roots_stop_at_step_cap(monkeypatch):
    gen = np.random.default_rng(921)
    poles = np.sort(gen.uniform(0.0, 5.0, size=(300, 6)), axis=1)
    poles[:100, 0] = 0.0
    poles[100:200, 3] = poles[100:200, 2]
    weights = gen.standard_gamma(np.r_[0.01, np.ones(5)], size=(300, 6))
    monkeypatch.setattr(kernels, "MAX_SECULAR_STEPS", 1)
    got = kernels._secular_roots(poles, weights)
    assert np.all(np.isfinite(got))
    assert np.all((poles[:, :-1] <= got) & (got <= poles[:, 1:]))


def _assert_in_window(draws, lo, hi):
    assert np.all(np.isfinite(draws))
    assert np.all(np.diff(draws, axis=-1) >= 0)
    assert np.all((lo <= draws) & (draws <= hi))


ANCHOR_VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.floats(0.0, 10.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    alpha=st.one_of(st.floats(-1.0, 3.0, exclude_min=True), st.sampled_from([-1.0 + 1e-12, -0.999])),
    raw=st.lists(ANCHOR_VALUES, min_size=2, max_size=9),
    others=st.lists(ANCHOR_VALUES, min_size=18, max_size=18),
    seed=st.integers(0, 2**16),
)
def test_dixon_anderson_draws_interlace_property(alpha, raw, others, seed):
    rng = RngStream(922, seed)
    x = np.sort(np.array(raw))
    lo_x = np.concatenate([[0.0], x[:-2]])
    _assert_in_window(sample_alpha_corner(alpha, x, rng, size=16), lo_x, x[1:])
    z = x[1:]
    lo_z = np.concatenate([[0.0], z[:-1]])
    _assert_in_window(sample_alpha_square(alpha, z, rng, size=16), lo_z, z)
    # rows with different anchors, ties and zero heads mixed
    d = len(x)
    rows = np.sort(np.array(others[: 2 * d]).reshape(2, d), axis=1)
    rows = np.vstack([x, rows, np.zeros(d), np.full(d, 1.0)])
    lo_rows = np.concatenate([np.zeros((len(rows), 1)), rows[:, :-2]], axis=1)
    _assert_in_window(sample_alpha_corner_rows(alpha, rows, rng), lo_rows, rows[:, 1:])


def test_gamma_weight_underflow_gives_the_pole():
    # Gamma(1e-12) underflows to 0 almost always; the first root is then
    # the pole at 0 itself, not NaN
    draws = sample_alpha_square(-1.0 + 1e-12, (1.0, 2.0, 4.0), RngStream(923, 0), size=200)
    assert np.all(np.isfinite(draws))
    assert np.mean(draws[:, 0] == 0.0) > 0.9
    _assert_in_window(draws, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 4.0]))


def test_sample_alpha_corner_rows_rejects_bad_rows():
    rng = RngStream(924, 0)
    for rows in ([[2.0, 1.0]], [[-1.0, 2.0]], [[1.0]]):
        with pytest.raises(ValueError):
            sample_alpha_corner_rows(0.5, np.array(rows), rng)
