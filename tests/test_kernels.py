import math
import tracemalloc

import numpy as np
import pytest
from conftest import binned_gof_2d
import oracles
from oracles import RejectionLimitError, grid_cdf, sample_corner_alpha_matrix, sample_corner_rejection
from secular_oracle import reference_secular_roots

from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_intertwine import kernels
from laguerre_intertwine.determinantal import evaluate
from laguerre_intertwine.experiments import TEST_FUNCTIONS
from laguerre_intertwine.kernels import (
    DegenerateAnchorError,
    KernelSpec,
    UnsupportedDimensionError,
    apply_kernel_quadrature,
    apply_kernel_to_anchors,
    checked_chamber,
    interior_rows,
    kernel_density,
    sample_alpha_corner,
    sample_alpha_corner_rows,
    sample_alpha_square,
    sample_corner_many,
    vandermonde,
)
from laguerre_intertwine.numerics import RngStream, gauss_rule, power_stretch, unit_gauss_legendre
from laguerre_intertwine.process import (
    SdeConfig,
    SemigroupParams,
    semigroup_apply,
    semigroup_apply_rows,
    simulate_matrix_ou,
    simulate_sde,
)
from laguerre_intertwine.rmt import sample_haar_unitary
from laguerre_intertwine.stats import EmpiricalSample, ks_one_sample, ks_two_sample

ONE = lambda y: np.ones(y.shape[:-1])
F_EXP = lambda y: np.exp(-np.sum(y, axis=-1))
SCALAR_FUNCTIONS = tuple(TEST_FUNCTIONS.values())


def test_vandermonde_values():
    assert vandermonde(np.array([3.0])) == 1.0
    assert vandermonde(np.array([0.0, 1.0, 2.0])) == 2.0
    assert vandermonde(np.array([1.0, 3.0])) == 2.0


def test_chamber_predicates():
    # the closed chamber takes ties and a zero head; the open one neither
    got = checked_chamber([0, 1, 1])
    assert got.dtype == float and got.tolist() == [0.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="non-decreasing"):
        checked_chamber(np.array([1.0, 0.0]))
    assert checked_chamber(np.array([-1.0, 2.0])).tolist() == [-1.0, 2.0]
    with pytest.raises(ValueError, match="non-decreasing"):
        checked_chamber(np.array([-1.0, 2.0]), nonneg=True)
    checked_chamber(np.array([1.0, 2.0]), nonneg=True, strict=True)
    checked_chamber(np.array([0.0, 2.0]), strict=True)  # a zero head is interior unless nonneg
    with pytest.raises(DegenerateAnchorError):
        checked_chamber(np.array([0.0, 2.0]), nonneg=True, strict=True)
    with pytest.raises(DegenerateAnchorError):
        checked_chamber(np.array([1.0, 1.0]), strict=True)
    rows = np.array([[1.0, 2.0], [1.0, 1.0], [0.0, 2.0]])
    assert interior_rows(rows).tolist() == [True, False, True]
    assert interior_rows(rows, positive_head=True).tolist() == [True, False, False]
    assert checked_chamber(rows, ndim=2).shape == (3, 2)
    for x, kwargs in [([], {}), ([1.0], {"min_len": 2}), (rows, {}), (1.0, {"ndim": None})]:
        with pytest.raises(ValueError, match="shape"):
            checked_chamber(x, **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [0, 1])
def test_chamber_predicates_reject_non_finite(bad, pos):
    x = np.array([1.0, 2.0])
    x[pos] = bad
    for nonneg in (False, True):
        for strict in (False, True):
            with pytest.raises(ValueError, match="finite") as info:
                checked_chamber(x, nonneg=nonneg, strict=strict)
            assert not isinstance(info.value, DegenerateAnchorError)


def _rng():
    return RngStream(915, 0)


# entry point -> (call on an anchor x, a valid anchor, nonneg, the shortest
# anchor it takes, the strict defects it rejects); an anchor of rows (2-D)
# gets its defect in the last row.  "density_corner" is kernel_density of the
# corner kind, the one kind that takes no alpha: its anchor may have a zero
# head and negative coordinates
_SG0, _SG = SemigroupParams(0.5, 0.0, 2), SemigroupParams(0.5, 0.5, 2)
_SQUARE, _CORNER = KernelSpec("alpha_square", 0.5), KernelSpec("alpha_corner", 0.5)
_PLAIN_CORNER = KernelSpec("corner")
_X2, _X3, _ROWS2 = (1.0, 2.0), (1.0, 2.0, 4.0), ((1.0, 2.0), (2.0, 3.0))
_STRICT = ("tie", "zero_head")
CHAMBER_ENTRIES = {
    "kernel_density": (lambda x: kernel_density(_CORNER, x, [1.5, 3.0]), _X3, True, 2, _STRICT),
    "density_corner": (lambda x: kernel_density(_PLAIN_CORNER, x, [1.5, 3.0]), _X3, False, 2, ("tie",)),
    "apply_kernel_to_anchors": (lambda x: apply_kernel_to_anchors(_SQUARE, x, ONE, 2, 8),
                                _ROWS2, True, 1, _STRICT),
    "apply_kernel_quadrature": (lambda x: apply_kernel_quadrature(_SQUARE, x, ONE, 2, 8),
                                _X2, True, 1, _STRICT),
    "sample_corner_many": (lambda x: sample_corner_many(x, _rng(), 3), _X3, False, 2, ()),
    "sample_corner_rejection": (lambda x: sample_corner_rejection(x, _rng(), size=3),
                                _X3, False, 2, ("tie",)),
    "sample_alpha_square": (lambda x: sample_alpha_square(0.5, x, _rng(), size=3), _X2, True, 1, ()),
    "sample_alpha_corner": (lambda x: sample_alpha_corner(0.5, x, _rng(), size=3), _X3, True, 2, ()),
    "sample_alpha_corner_rows": (lambda x: sample_alpha_corner_rows(0.5, x, _rng()),
                                 (_X3, (1.0, 3.0, 5.0)), True, 2, ()),
    "semigroup_apply_t0": (lambda x: semigroup_apply(_SG0, x, F_EXP, 2, 8), _X2, True, 2, ()),
    "semigroup_apply": (lambda x: semigroup_apply(_SG, x, F_EXP, 2, 8), _X2, True, 2, _STRICT),
    "semigroup_apply_rows_t0": (lambda x: semigroup_apply_rows(_SG0, x, F_EXP, 2, 8), _ROWS2, True, 2, ()),
    "semigroup_apply_rows": (lambda x: semigroup_apply_rows(_SG, x, F_EXP, 2, 8), _ROWS2, True, 2, _STRICT),
    "simulate_sde": (lambda x: simulate_sde(0.5, x, 0.1, SdeConfig(dt=0.05), _rng(), size=2),
                     _X2, True, 1, ()),
    "simulate_matrix_ou": (lambda x: simulate_matrix_ou(1, x, 0.5, _rng(), size=2), _X2, True, 1, ()),
    "evaluate_kernel": (lambda x: evaluate((_CORNER,), x, SCALAR_FUNCTIONS), _X3, True, 2, _STRICT),
    "evaluate_semigroup": (lambda x: evaluate((_SG,), x, SCALAR_FUNCTIONS), _X2, True, 1, _STRICT),
    "evaluate_semigroup_t0": (lambda x: evaluate((_SG0,), x, SCALAR_FUNCTIONS), _X2, True, 1, ()),
}
# the entry points that take one anchor or rows of any rank
ANY_RANK = {"kernel_density", "density_corner"}


def _defective(name: str, defect: str) -> np.ndarray:
    _, anchor, _, min_len, _ = CHAMBER_ENTRIES[name]
    x = np.array(anchor)
    if defect == "short":
        return x[..., : min_len - 1]
    if defect == "rank":  # a scalar where any rank >= 1 is taken, else one axis more
        return np.float64(x[0]) if name in ANY_RANK else x[None]
    row = x[-1] if x.ndim == 2 else x
    if defect == "decreasing":
        row[:] = row[::-1]
    else:
        pos, value = {"nan": (0, np.nan), "inf": (-1, np.inf), "negative": (0, -1.0),
                      "tie": (1, row[0]), "zero_head": (0, 0.0)}[defect]
        row[pos] = value
    return x


CHAMBER_CASES = [
    pytest.param(CHAMBER_ENTRIES[name][0], _defective(name, defect), error, match, id=f"{name}-{defect}")
    for name, (_, _, nonneg, _, strict) in CHAMBER_ENTRIES.items()
    for defect, error, match in [
        ("nan", ValueError, "finite and non-decreasing"),
        ("inf", ValueError, "finite and non-decreasing"),
        ("decreasing", ValueError, "finite and non-decreasing"),
        ("negative", ValueError, "finite and non-decreasing"),
        ("short", ValueError, "shape"),
        ("rank", ValueError, "shape"),
        ("tie", DegenerateAnchorError, "strictly interior"),
        ("zero_head", DegenerateAnchorError, "strictly interior"),
    ]
    if (defect != "negative" or nonneg) and (error is ValueError or defect in strict)
] + [
    # the points y of the densities, one case per kind
    pytest.param(call, np.array([bad, y1]), ValueError, "finite points y", id=f"{name}-y_{bad}")
    for name, call, y1 in [
        ("density_corner", lambda y: kernel_density(_PLAIN_CORNER, [1.0, 2.0, 4.0], y), 3.0),
        ("density_alpha_square", lambda y: kernel_density(_SQUARE, [1.0, 3.0], y), 2.0),
        ("density_alpha_corner", lambda y: kernel_density(_CORNER, [1.0, 2.0, 4.0], y), 3.0),
    ]
    for bad in (np.nan, np.inf)
] + [
    # faults of the copies this check replaced, each seen as written here
    pytest.param(lambda x: semigroup_apply(_SG0, x, F_EXP), [np.nan, 1.0], ValueError, "finite",
                 id="t0_semigroup_nan_returned_nan"),
    pytest.param(lambda x: semigroup_apply(_SG0, x, F_EXP), [2.0, 1.0], ValueError, "non-decreasing",
                 id="t0_semigroup_decreasing_returned_a_value"),
    pytest.param(lambda x: semigroup_apply_rows(_SG, x, F_EXP, 2, 8), [[2.0, 1.0]], ValueError,
                 "non-decreasing", id="semigroup_rows_sorted_a_row"),
    pytest.param(lambda x: evaluate((_SG0,), x, SCALAR_FUNCTIONS), [-1.0, 1.0], ValueError,
                 "non-decreasing", id="t0_evaluate_negative_returned_one"),
    pytest.param(lambda x: evaluate((_SG0,), x, SCALAR_FUNCTIONS), [np.nan, 1.0], ValueError,
                 "finite", id="t0_evaluate_nan_raised_linalg_error"),
    pytest.param(lambda y: kernel_density(_CORNER, [1.0, 2.0, 4.0], y), [np.nan, 3.0], ValueError,
                 "finite", id="density_nan_y_returned_zero"),
    pytest.param(lambda x: sample_alpha_corner(0.5, x, _rng(), size=2), [[1.0, 2.0], [1.0, 3.0]],
                 ValueError, "shape", id="alpha_corner_rows_as_one_anchor"),
]


@pytest.mark.parametrize("call, x, error, match", CHAMBER_CASES)
def test_chamber_check_at_every_entry_point(call, x, error, match):
    # every anchor and start point goes through kernels.checked_chamber;
    # the densities also check their points y
    with np.errstate(all="raise"), pytest.raises(error, match=match) as info:
        call(x)
    assert error is DegenerateAnchorError or not isinstance(info.value, DegenerateAnchorError)


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
    # the density is positive on the interlacing window, boundary included, and 0 off it
    outer = lambda y: kernel_density(KernelSpec("corner"), [0.0, 1.0, 2.0], y)
    assert outer([0.5, 1.5]) > 0
    assert outer([0.0, 2.0]) > 0  # boundary contact allowed
    assert outer([0.5, 2.5]) == 0.0
    inner = lambda y: kernel_density(KernelSpec("alpha_square", 0.5), [1.0, 3.0], y)
    assert inner([0.2, 2.0]) > 0
    assert inner([1.0, 3.0]) > 0  # boundary contact allowed
    assert inner([1.5, 2.0]) == 0.0


def test_density_corner_values():
    assert kernel_density(_PLAIN_CORNER, np.array([0.0, 2.0]), np.array([1.0])) == pytest.approx(0.5)
    val = kernel_density(_PLAIN_CORNER, np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5]))
    assert val == pytest.approx(1.0)
    assert kernel_density(_PLAIN_CORNER, np.array([0.0, 1.0, 2.0]), np.array([0.5, 2.5])) == 0.0


def test_density_corner_normalizes():
    spec = KernelSpec("corner")
    val = apply_kernel_quadrature(spec, np.array([0.0, 1.0, 2.0]), ONE, 2, 20)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_density_corner_degenerate_anchor():
    with pytest.raises(DegenerateAnchorError):
        kernel_density(_PLAIN_CORNER, np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.5]))


def test_density_alpha_square_values():
    square = lambda alpha, z, y: kernel_density(KernelSpec("alpha_square", alpha), z, y)
    assert square(0.0, np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)
    assert square(1.0, np.array([1.0]), np.array([0.5])) == pytest.approx(1.0)
    with pytest.raises(DegenerateAnchorError):
        square(0.5, np.array([0.0, 1.0]), np.array([0.0, 0.5]))


def test_alpha_square_normalization_lemma():
    val = apply_kernel_quadrature(
        KernelSpec("alpha_square", 0.5), np.array([1.0, 3.0]), ONE, 2, 20
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_density_alpha_corner_values():
    x, spec = np.array([1.0, 2.0]), KernelSpec("alpha_corner", 0.0)
    assert kernel_density(spec, x, np.array([0.5])) == pytest.approx(math.log(2.0))
    assert kernel_density(spec, x, np.array([1.5])) == pytest.approx(math.log(4.0 / 3.0))
    val = apply_kernel_quadrature(spec, x, ONE, 2, 20)
    assert val == pytest.approx(1.0, abs=1e-10)


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
    draw = sample_corner_many(np.array([2.0, 2.0, 2.0]), rng, 1)[0]
    assert np.allclose(draw, 2.0, atol=1e-10)


def test_sample_corner_binned_gof_n2():
    rng = RngStream(903, 0)
    x = np.array([0.0, 1.0, 2.0])
    draws = sample_corner_many(x, rng, 100_000)
    p = binned_gof_2d(
        draws,
        lambda mesh: kernel_density(_PLAIN_CORNER, x, mesh),
        np.linspace(0.0, 1.0, 7),
        np.linspace(1.0, 2.0, 7),
    )
    assert p > 0.01


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
    (y1, y2), (w1, w2) = gauss_rule([0.0, 1.0, 2.0], 16, panels=2)
    mesh = np.stack(np.meshgrid(y1, y2, indexing="ij"), axis=-1)
    delta_integral = float(
        (vandermonde(mesh) * np.outer(w1, w2)).sum()
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


def _sample_corner_haar(x, rng, n):
    """Oracle: n corner draws by the conjugated-diagonal matrix model.

    Draws Haar U of order N+1, forms U* diag(x) U, and returns the ordered
    spectrum of its upper-left N x N corner.
    """
    x = np.asarray(x, dtype=float)
    u = sample_haar_unitary(len(x), rng, size=n)
    m = (np.swapaxes(u, -2, -1).conj() * x[None, None, :]) @ u
    corner = m[:, :-1, :-1]
    return np.linalg.eigvalsh(0.5 * (corner + np.swapaxes(corner, -2, -1).conj()))


CORNER_ORACLE_CASES = [
    (0.0, 2.0),
    (-1.0, 0.5, 2.0),
    (-2.0, 0.0, 1.0, 1.0, 3.0),  # a tie pins coordinate 3
    (-4.0, -1.0, 0.0, 1.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.5, 7.0, 8.0, 9.0, 10.5, 11.0, 12.0, 14.0),
]


def _corner_vs_haar(case):
    """Solver draws against the Haar oracle: the KS family on the free coordinates.

    A coordinate whose window has zero width is its pole exactly in the
    solver's draws and up to round-off in the oracle's; it is checked as
    such and left out of the family, where a round-off spread alone would
    fail a KS test.
    """
    x = np.array(CORNER_ORACLE_CASES[case])
    n = 4_000 if len(x) > 5 else 20_000  # Haar draws at N = 16 take 18 MiB per 1000
    mine = sample_corner_many(x, RngStream(925, case), n)
    ref = _sample_corner_haar(x, RngStream(926, case), n)
    pinned = np.diff(x) == 0
    assert np.all(mine[:, pinned] == x[:-1][pinned])
    assert np.allclose(ref[:, pinned], x[:-1][pinned], rtol=0.0, atol=1e-10)
    return _ks_family_passes(mine[:, ~pinned], ref[:, ~pinned])


@pytest.mark.parametrize("case", range(len(CORNER_ORACLE_CASES)))
def test_sample_corner_matches_haar_oracle(case):
    passed, p_values = _corner_vs_haar(case)
    assert passed, (CORNER_ORACLE_CASES[case], p_values)


@pytest.mark.parametrize("case", range(len(CORNER_ORACLE_CASES)))
def test_haar_oracle_rejects_gamma2_weights(case, monkeypatch):
    # Gamma(2) weights give the density Delta(y) prod_{i,k} |y_i - x_k|, not
    # Delta(y): the family above must see the difference at every case
    monkeypatch.setattr(
        kernels, "_corner_roots",
        lambda x_rows, rng: kernels._secular_roots(x_rows, rng.gen.standard_gamma(2.0, x_rows.shape)),
    )
    passed, p_values = _corner_vs_haar(case)
    assert not passed, (CORNER_ORACLE_CASES[case], p_values)


def test_sample_corner_many_rejects_bad_counts():
    rng = RngStream(929, 0)
    x = np.array([0.0, 1.0])
    state = rng.gen.bit_generator.state
    for n in (-1, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="number of draws"):
            sample_corner_many(x, rng, n)
    assert rng.gen.bit_generator.state == state  # rejected before any draw
    assert sample_corner_many(x, rng, 0).shape == (0, 1)
    assert sample_corner_many(x, rng, np.int64(3)).shape == (3, 1)


def test_sample_corner_many_memory_is_bounded():
    # N = 16, 5000 draws: the Haar matrix model allocated 90 MiB at peak
    # here and the solver without row blocks 131 MiB
    x = np.concatenate([[0.0], np.cumsum(np.linspace(0.5, 2.0, 16))])
    tracemalloc.start()
    try:
        sample_corner_many(x, RngStream(928, 0), 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


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
    y2, w2 = map(np.ravel, gauss_rule(z, 24, panels=2))

    def marginal_1(v):
        pts = np.stack(np.broadcast_arrays(v[:, None], y2[None, :]), axis=-1)
        return kernel_density(KernelSpec("alpha_square", alpha), z, pts) @ w2

    cdf1 = grid_cdf(marginal_1, 0.0, z[0], endpoint_exponent=alpha)
    rep = ks_one_sample(EmpiricalSample(draws[:, 0], "marg1"), cdf1)
    assert rep.p_value > 0.01 / 2

    def marginal_2(v):
        u1, w1 = unit_gauss_legendre(2, 24)
        y1 = z[0] * (u1**3)
        wy1 = 3.0 * z[0] * u1**2 * w1
        pts = np.stack(np.broadcast_arrays(y1[None, :], v[:, None]), axis=-1)
        return kernel_density(KernelSpec("alpha_square", alpha), z, pts) @ wy1

    cdf2 = grid_cdf(marginal_2, z[0], z[1])
    rep = ks_one_sample(EmpiricalSample(draws[:, 1], "marg2"), cdf2)
    assert rep.p_value > 0.01 / 2


def test_sample_alpha_corner_n1_vs_density_cdf():
    rng = RngStream(910, 0)
    x = np.array([1.0, 2.0])
    draws = sample_alpha_corner(0.0, x, rng, size=100_000)[:, 0]
    cdf = grid_cdf(lambda v: kernel_density(KernelSpec("alpha_corner", 0.0), x, v[..., None]), 0.0, 2.0)
    rep = ks_one_sample(EmpiricalSample(draws, "alpha_corner"), cdf)
    assert rep.p_value > 0.01


def test_sample_alpha_corner_binned_gof_n2():
    rng = RngStream(911, 0)
    alpha, x = 1.0, np.array([1.0, 2.0, 4.0])
    draws = sample_alpha_corner(alpha, x, rng, size=100_000)
    p = binned_gof_2d(
        draws,
        lambda mesh: kernel_density(KernelSpec("alpha_corner", alpha), x, mesh),
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


# -- the applier's test function contract --------------------------------------

KINDS = ["corner", "alpha_square", "alpha_corner"]
CORNER_ROWS = {1: [1.0, 2.0], 2: [1.0, 2.0, 4.0], 3: [0.5, 2.0, 4.0, 7.0]}
SQUARE_ROWS = {1: [2.0], 2: [1.0, 3.0], 3: [0.5, 2.5, 5.0]}


def _spec_and_anchor(kind, alpha, n):
    spec = KernelSpec(kind, None if kind == "corner" else alpha)
    rows = SQUARE_ROWS if kind == "alpha_square" else CORNER_ROWS
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
    apply_kernel_to_anchors(KernelSpec("alpha_corner", -0.5), anchors, recording, 2, 10)
    rows = np.concatenate(seen)
    assert rows.shape[0] > 0
    assert np.all(np.diff(rows, axis=-1) >= 0)


def test_apply_kernel_quadrature_return_types():
    spec, anchor = KernelSpec("alpha_corner", 1.0), np.array([1.0, 2.0, 4.0])
    value = apply_kernel_quadrature(spec, anchor, F_EXP, 2, 10)
    assert type(value) is float
    assert value == apply_kernel_to_anchors(spec, anchor[None, :], F_EXP, 2, 10)[0]


def test_apply_kernel_rejects_misshaped_f():
    # f maps (M, N) to (M,); an (M, 3) stack or an (M + 1,) result raises
    spec, anchor = KernelSpec("corner"), np.array([1.0, 2.0, 4.0])
    for bad in (lambda y: np.ones((len(y), 3)), lambda y: np.ones(len(y) + 1)):
        with pytest.raises(ValueError, match="shape"):
            apply_kernel_quadrature(spec, anchor, bad, 2, 10)
        with pytest.raises(ValueError, match="shape"):
            apply_kernel_to_anchors(spec, np.stack([anchor, 2.0 * anchor]), bad, 2, 10)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(KINDS),
    alpha=st.floats(-0.9, 3.0),
    n=st.integers(1, 2),
    raw=st.lists(st.floats(0.0, 6.0), min_size=9, max_size=9),
    m=st.integers(1, 3),
)
def test_apply_kernel_property(kind, alpha, n, raw, m):
    spec = KernelSpec(kind, None if kind == "corner" else alpha)
    d = n if kind == "alpha_square" else n + 1
    anchors = np.sort(np.array(raw[: m * d]).reshape(m, d), axis=-1)
    # the rows are evaluated only if all are strictly interior; anchor
    # coordinates or gaps below 1e-100 (subnormal ones among them) may then
    # put the density beyond the float range
    interior = np.all(np.diff(anchors, axis=-1) > 0, axis=-1)
    if kind != "corner":
        interior &= anchors[:, 0] > 0
    tiny = np.any((anchors > 0) & (anchors < 1e-100), axis=-1)
    tiny |= np.any(np.diff(anchors, axis=-1) < 1e-100, axis=-1)
    try:
        got = apply_kernel_to_anchors(spec, anchors, F_EXP, 1, 6)
    except DegenerateAnchorError:
        assert not np.all(interior)
        return
    except ValueError as exc:
        # never a NaN: the error names a density beyond the float range at tiny anchors
        assert "float range" in str(exc) and np.all(interior) and np.any(tiny), exc
        return
    assert np.all(interior)
    assert got.shape == (m,) and np.all(np.isfinite(got))
    for row, value in zip(anchors, got):
        assert value == apply_kernel_quadrature(spec, row, F_EXP, 1, 6)


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
    "anchor",
    [
        [0.0, 1e-120, 2e-120],
        [0.0, 2.2250738585072014e-308, 5.7274957680435675e-108],
        [1e-300, 2e-300, 3e-300, 4e-300],
        [-3e-200, -1e-200, 2e-200],
        [0.0, 1.0, 1e200],
        [-1e200, 0.0, 1e200],
    ],
)
def test_corner_mass_is_one_at_extreme_anchors(anchor):
    # the anchor's Vandermonde under- or overflows here: the first two used
    # to raise the float-range error, (0, 1, 1e200) and (-1e200, 0, 1e200)
    # gave a mass of 0; the density now scales the anchor by a power of two
    mass = apply_kernel_quadrature(KernelSpec("corner"), np.array(anchor), ONE)
    assert abs(mass - 1.0) <= 1e-12


def test_corner_mass_is_one_at_a_widely_spread_anchor():
    # gaps from 2^-997 to 2^33: scaled by its largest coordinate, the anchor's
    # smallest gap became subnormal and the density left the float range
    got = apply_kernel_to_anchors(KernelSpec("corner"), [[0.0, 1e-300, 1e10]], ONE)
    assert abs(got[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("anchor", [[0.0, 5e-324, 1.0], [-1e308, 1e308]])
def test_corner_window_of_subnormal_or_infinite_width_raises(anchor):
    # the quadrature weights leave the float range: a subnormal width loses
    # its digits (unchecked, the mass at the first anchor came out as 0), and
    # a width of 2e308 is infinite
    with pytest.raises(ValueError, match="float range"):
        apply_kernel_to_anchors(KernelSpec("corner"), [anchor], ONE)


def test_corner_density_at_a_gap_beyond_the_float_range():
    # 1e308 - (-1e308) overflows; the density's scale counts that gap by its
    # true exponent, so the density is 1 / 2e308 (subnormal), not 1 / inf
    got = kernel_density(KernelSpec("corner"), [-1e308, 1e308], [0.0])
    assert got == pytest.approx(0.5e-308, rel=1e-12)


def test_corner_density_scales_exactly():
    # scaling x and y by 2^-400 scales the N = 2 density by 2^800, bit for bit;
    # Delta(x) alone (about 2^-1200) underflows
    spec = KernelSpec("corner")
    x, y = np.array([0.0, 1.0, 2.0]), np.array([[0.5, 1.5], [0.25, 1.75]])
    tiny = kernel_density(spec, np.ldexp(x, -400), np.ldexp(y, -400))
    assert np.array_equal(tiny, np.ldexp(kernel_density(spec, x, y), 800))


@pytest.mark.parametrize(
    "kind, anchor",
    [
        ("alpha_square", [2.2e-311, 1.0]),
        ("alpha_square", [5e-324]),
        ("alpha_corner", [2.2e-311, 1.0, 2.0]),
        # a window of subnormal width: its weights underflow
        ("corner", [0.0, 5e-324, 1.0]),
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


@pytest.mark.parametrize(
    "kind, anchor, y",
    [
        # the scaled anchor's gap 5e-324 * 2^-307 underflows to 0: this
        # raised ZeroDivisionError
        ("corner", [0.0, 5e-324, 1e300], [2e-324, 1.0]),
        # the density, about 2e323, exceeds the float range: this gave inf
        ("corner", [0.0, 5e-324, 1.0], [2e-324, 0.5]),
        # Delta(x) = 2e-600 underflows: this raised ZeroDivisionError
        ("alpha_corner", [1e-200, 2e-200, 3e-200], [1.5e-200, 2.5e-200]),
    ],
)
def test_pointwise_density_out_of_float_range_raises(kind, anchor, y):
    spec = KernelSpec(kind, None if kind == "corner" else 0.5)
    with pytest.raises(ValueError, match="float range"):
        kernel_density(spec, anchor, y)
    with pytest.raises(ValueError, match="float range"):
        kernel_density(spec, np.array([anchor, [1.0, 2.0, 4.0]]), np.array(y))
    # off the window the density is 0, whatever the anchor
    assert kernel_density(spec, anchor, [2.0, 1e301]) == 0.0


def test_kernel_spec_checks_alpha_domain():
    for kind, alpha in [("corner", 0.5), ("alpha_square", -1.0), ("alpha_corner", None),
                        ("alpha_corner", np.nan), ("nope", None)]:
        with pytest.raises(ValueError):
            KernelSpec(kind, alpha)


def test_kernel_density_takes_anchor_rows():
    anchors = np.array([[1.0, 2.0, 4.0], [0.5, 1.5, 3.0]])
    y = np.array([[1.5, 3.0], [1.0, 2.0]])
    got = kernel_density(KernelSpec("alpha_corner", 0.5), anchors, y)
    assert got.shape == (2,)
    for k in range(2):
        assert got[k] == kernel_density(_CORNER, anchors[k], y[k])
    with pytest.raises(DegenerateAnchorError):
        kernel_density(KernelSpec("corner"), np.array([[1.0, 2.0], [1.0, 1.0]]), np.array([1.5]))
    with pytest.raises(ValueError):
        kernel_density(KernelSpec("alpha_square", 0.5), np.array([-1.0, 2.0]), np.array([0.5, 1.0]))


# -- rejection loops are bounded ----------------------------------------------

def test_rejection_loops_stop_at_round_cap(monkeypatch):
    def draw(rng):
        return sample_corner_rejection(np.array([0.0, 1.0, 2.0, 3.0]), rng, size=200)

    draw(RngStream(914, 0))  # finishes under the default cap
    monkeypatch.setattr(oracles, "MAX_REJECTION_ROUNDS", 1)
    with pytest.raises(RejectionLimitError, match="rejection"):
        draw(RngStream(914, 0))
    assert issubclass(RejectionLimitError, ValueError)


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
    ref = _alpha_square_rejection(alpha, _sample_corner_haar(x, rng, n), rng)
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


@pytest.mark.parametrize("m", [1, 2, 5, 16])
def test_secular_roots_in_blocks_match_one_call_bit_for_bit(m, monkeypatch):
    gen = np.random.default_rng(927 + m)
    rows = 22  # 7 blocks of 3 rows and a last one of 1; 3 of 7 and 1; 22 of 1
    poles = np.sort(gen.uniform(-4.0, 4.0, size=(rows, m + 1)), axis=1)  # negative poles
    poles[::4, 0] = 0.0
    if m > 1:
        poles[1::3, 2] = poles[1::3, 1]  # tied poles: zero-width intervals
    poles[5] = 1.5  # a row of zero-width intervals only
    weights = gen.standard_gamma(np.r_[0.3, np.ones(m)], size=(rows, m + 1))
    weights[::5, 0] = 0.0  # a Gamma weight that underflowed
    monkeypatch.setattr(kernels, "_SECULAR_BLOCK", 10**9)
    whole = kernels._secular_roots(poles, weights)
    for rows_per_block in (3, 7, 1):
        monkeypatch.setattr(kernels, "_SECULAR_BLOCK", rows_per_block * m * (m + 1))
        assert np.array_equal(kernels._secular_roots(poles, weights), whole)


def _assert_same_roots(got, want, poles):
    # within 1e-12 of each root's distance to its nearer pole, plus the
    # rounding of the position itself and the floor of the normal range
    near = np.minimum(want - poles[:, :-1], poles[:, 1:] - want)
    slack = 1e-12 * near + np.spacing(np.abs(want)) + np.finfo(float).tiny
    assert np.all(np.abs(got - want) <= slack), np.max(np.abs(got - want) / slack)


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.5, 2.5])
def test_secular_roots_match_previous_solver(alpha, m):
    # the alpha_square draw: poles (0, z) with a Gamma(alpha + 1) weight at 0
    # and Exp(1) weights at z, against the masked-sum solver it replaced
    gen = np.random.default_rng(930 + m)
    rows = 300
    z = np.cumsum(gen.exponential(size=(rows, m)), axis=1)
    z[1::6, 0] = 0.0  # a zero head: the poles 0 and z_1 tie
    if m > 1:
        z[2::6, 1] = z[2::6, 0]  # tied poles
    poles = np.concatenate([np.zeros((rows, 1)), z], axis=1)
    weights = np.concatenate([gen.standard_gamma(alpha + 1.0, (rows, 1)), gen.standard_exponential((rows, m))], axis=1)
    weights[3::6, 0] = 0.0  # a Gamma weight that underflowed
    got = kernels._secular_roots(poles, weights)
    _assert_same_roots(got, reference_secular_roots(poles, weights), poles)
    for r in range(6):  # a lone row, as sample(size=None) solves it
        lone = kernels._secular_roots(poles[r : r + 1], weights[r : r + 1])
        _assert_same_roots(lone, reference_secular_roots(poles[r : r + 1], weights[r : r + 1]), poles[r : r + 1])


def test_secular_roots_in_window_at_extreme_scales():
    # at subnormal widths the model's constant overflows and its step is not
    # finite; such a root must come from the bracket, even where f is flat
    gen = np.random.default_rng(933)
    for scale in (1e-308, 1e-320, 1e300):
        poles = np.sort(gen.uniform(0.0, 4.0, size=(200, 4)), axis=1) * scale
        got = kernels._secular_roots(poles, gen.standard_exponential((200, 4)))
        assert np.all((poles[:, :-1] <= got) & (got <= poles[:, 1:])), scale


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
    # the corner kernel at N = 1 .. 16, with negative coordinates for a
    # positive others[0]
    xc = np.sort(np.array(raw + others)[: 2 * len(raw) - 1 - seed % 2]) - others[0]
    _assert_in_window(sample_corner_many(xc, rng, 16), xc[:-1], xc[1:])


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
