"""The determinantal engine against the mesh appliers, its oracle.

Each operator is pinned twice: to the mesh at the resolutions the
intertwine experiment ran before the engine replaced it, and, for the
semigroup, to a finer mesh over the engine's own box.  The semigroup step
is also pinned to the transition density tabulated point by point on the
engine's own grid (``oracles.semigroup_step_pointwise``).
"""

import numpy as np
import pytest
from oracles import semigroup_step_pointwise

from laguerre_intertwine import determinantal, experiments
from laguerre_intertwine.cli import ExperimentConfig, main
from laguerre_intertwine.determinantal import ProductFunction, evaluate, semigroup_top
from laguerre_intertwine.experiments import (
    CORNER_ANCHORS,
    SQUARE_ANCHORS,
    TEST_FUNCTIONS,
    intertwine_sides,
)
from laguerre_intertwine.kernels import (
    KERNELS,
    DegenerateAnchorError,
    KernelSpec,
    apply_kernel_quadrature,
    apply_kernel_to_anchors,
)
from laguerre_intertwine.process import SemigroupParams, semigroup_apply_rows

FUNCTIONS = tuple(TEST_FUNCTIONS.values())
ALPHAS = (-0.5, 0.0, 1.0, 2.5)

# the mesh resolutions of the intertwine experiment before the engine:
# (semigroup panels, order, kernel panels, order) per lower dimension N;
# N = 3 takes the kernels-check default
MESH_RESOLUTION = {1: (4, 20, 3, 20), 2: (3, 14, 1, 12), 3: (None, None, 2, 20)}


def each_function(apply, op, x, *args, **kwargs):
    """``apply(op, x, fn, ...)`` for each test function fn, as an (F,) array."""
    return np.array([np.ravel(apply(op, x, fn, *args, **kwargs))[0] for fn in FUNCTIONS])


@pytest.mark.parametrize("t", [0.25, 1.0])
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", [1, 2])
def test_semigroup_matches_mesh(n, alpha, t):
    params = SemigroupParams(alpha, t, n)
    x = np.array(SQUARE_ANCHORS[n])
    got = evaluate((params,), x, FUNCTIONS)
    panels, order, _, _ = MESH_RESOLUTION[n]
    # the mesh box ends at process.semigroup_ymax, whose cut leaves up to
    # 3e-7 of the mass at these anchors; the engine's box is wider
    mesh = each_function(semigroup_apply_rows, params, x[None, :], panels, order)
    assert np.max(np.abs(got - mesh) / np.abs(mesh)) <= 1e-6
    fine = each_function(
        semigroup_apply_rows, params, x[None, :], 8, 20, y_max=semigroup_top(params, x[-1])
    )
    assert np.max(np.abs(got - fine) / np.abs(fine)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 1.0, 2.5, 10.0, 30.0])
def test_semigroup_step_matches_pointwise_density(alpha, n):
    # the Poisson-Gamma mixture step against the Bessel form of p_t, tabulated
    # on (targets x nodes): at the nodes below the top anchor and at the anchors,
    # within 1e-11 of each output row's largest value
    x = np.array(SQUARE_ANCHORS[n])
    for t in (0.01, 0.05, 0.25, 1.0, 4.0):
        params = SemigroupParams(alpha, t, n)
        grid = determinantal.line_grid(x, semigroup_top(params, x[-1]), t, 0.0)
        count = int(np.searchsorted(grid.edges, x[-1]))
        table, _ = determinantal._product_table(FUNCTIONS, grid, x, n, len(grid.nodes))
        got = determinantal._semigroup_step(params, table, grid, x, count)
        want = semigroup_step_pointwise(params, table, grid, x, count)
        assert got.scale == want.scale
        rows = len(FUNCTIONS) + 1, n  # the sum_exp_sum function carries a derivative set
        got_rows = np.concatenate([got.nodes.reshape(*rows, -1), got.anchor], axis=-1)
        want_rows = np.concatenate([want.nodes.reshape(*rows, -1), want.anchor], axis=-1)
        error = np.max(np.abs(got_rows - want_rows), axis=-1) / np.max(np.abs(want_rows), axis=-1)
        assert np.max(error) <= 1e-11, (t, np.max(error))


# every kind of the kernel table, so that a kind with no determinantal form fails here
KERNEL_CASES = [
    (kind, alpha) for kind, row in KERNELS.items() for alpha in (ALPHAS if row.takes_alpha else (None,))
]


@pytest.mark.parametrize("kind, alpha", KERNEL_CASES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_matches_mesh(n, kind, alpha):
    spec = KernelSpec(kind, alpha)
    x = np.array(SQUARE_ANCHORS[n] if kind == "alpha_square" else CORNER_ANCHORS[n])
    got = evaluate((spec,), x, FUNCTIONS)
    _, _, panels, order = MESH_RESOLUTION[n]
    mesh = each_function(apply_kernel_to_anchors, spec, x[None, :], panels, order)
    assert np.max(np.abs(got - mesh) / np.abs(mesh)) <= 1e-8


@pytest.mark.parametrize(
    "kind, anchor",
    [
        ("corner", [1.0, 1.0, 2.0]), ("corner", [1.0, 2.0, 2.0]), ("corner", [0.0, 1.0, 2.0]),
        ("alpha_square", [1.0, 1.0]), ("alpha_square", [0.0, 1.0]), ("alpha_square", [0.0]),
        ("alpha_corner", [1.0, 1.0, 2.0]), ("alpha_corner", [1.0, 2.0, 2.0]),
        ("alpha_corner", [0.0, 1.0, 2.0]),
    ],
)
def test_degenerate_anchor_as_mesh(kind, anchor):
    # a tie, or a zero head for the alpha kernels, raises as the mesh does;
    # the corner kernel is defined at a zero head and gives the mesh's value
    spec = KernelSpec(kind, None if kind == "corner" else 0.5)
    x = np.array(anchor)
    try:
        mesh = each_function(apply_kernel_quadrature, spec, x, 2, 20)
    except DegenerateAnchorError:
        with pytest.raises(DegenerateAnchorError):
            evaluate((spec,), x, FUNCTIONS)
        return
    assert kind == "corner" and anchor[0] == 0.0
    got = evaluate((spec,), x, FUNCTIONS)
    assert np.max(np.abs(got - mesh) / np.abs(mesh)) <= 1e-12


def test_semigroup_anchor_checks():
    params = SemigroupParams(0.5, 1.0, 2)
    for anchor in ([1.0, 1.0], [0.0, 1.0]):
        with pytest.raises(DegenerateAnchorError):
            evaluate((params,), anchor, FUNCTIONS)
    with pytest.raises(ValueError, match="2-particle semigroup"):
        evaluate((SemigroupParams(0.5, 1.0, 2), KernelSpec("corner")), [1.0, 2.0, 4.0], FUNCTIONS)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        KernelSpec("hat_square", 0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_form_is_the_pointwise_form(n):
    # with no operator, the engine's determinant at x is f(x) itself: the
    # columns y^(k-1) g(y) and, for sum_exp_sum, Jacobi's formula
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        y = np.sort(rng.uniform(0.05, 6.0, n))
        got = evaluate((), y, FUNCTIONS)
        want = np.array([fn(y[None, :])[0] for fn in FUNCTIONS])
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_shifted_kernel_alpha_fails_same_alpha(monkeypatch):
    # mutation: a kernel at alpha + 0.3 against semigroups at alpha
    def shifted(kind, alpha=None):
        return KernelSpec(kind, None if alpha is None else alpha + 0.3)

    monkeypatch.setattr(experiments, "KernelSpec", shifted)
    checks = experiments.intertwine(ExperimentConfig(n=1))
    same = [c for c in checks if c.row["check"] == "same_alpha"]
    assert len(same) == 18 and not any(c.passed for c in same)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_intertwine_passes_at_larger_n(n):
    checks = experiments.intertwine(ExperimentConfig(n=n))
    assert {c.row["check"] for c in checks} == set(experiments.IDENTITIES)
    assert len(checks) == 18 and all(c.passed for c in checks)
    assert all(c.threshold == experiments.INTERTWINE_TOL[n] == 1e-6 for c in checks)


def test_intertwine_passes_at_alpha_36():
    # y^36 spans a factor of 7e10 on the panel (1, 2), where the kernel step
    # interpolates y^alpha H: the same_alpha rows were off by up to 1e-3
    checks = experiments.intertwine(ExperimentConfig(n=1, alpha=36.0))
    assert len(checks) == 18 and all(c.passed for c in checks)


def test_ill_conditioned_anchor_raises(tmp_path):
    # a near tie leaves a determinant that float64 cannot resolve
    x = [1.0, 1.0 + 1e-12, 2.0]
    with pytest.raises(ValueError, match="condition number"):
        evaluate((KernelSpec("corner"),), x, FUNCTIONS)
    rc = main(["intertwine", "--n", "2", "--alpha", "1.0", "--t", "1.0",
               "--x", ",".join(map(str, x)), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("anchor", [[0.0], [1.0, 1.0], [0.0, 0.0, 2.0]])
def test_t_zero_chain_is_f_on_the_closed_chamber(anchor):
    # a chain of t = 0 semigroups alone, or the empty chain, is the identity: f(x) at a zero head
    # and at ties, where the determinant over Delta(x) has no value
    x = np.array(anchor)
    want = np.array([fn(x[None, :])[0] for fn in FUNCTIONS])
    for chain in ((), (SemigroupParams(0.5, 0.0, x.size),), (SemigroupParams(-0.5, 0.0, x.size),) * 2):
        assert np.array_equal(evaluate(chain, x, FUNCTIONS), want)
    with pytest.raises(ValueError, match="semigroup acts on"):
        evaluate((SemigroupParams(0.5, 0.0, x.size + 1),), x, FUNCTIONS)


@pytest.mark.parametrize("t", [0.01, 0.25, 1.0, 4.0, 10.0])
@pytest.mark.parametrize("alpha", [-0.5, -0.9, -0.99, -0.999, 0.0, 2.5, 30.0])
def test_closed_forms_at_one_particle(alpha, t):
    # on g(y) = 1 + s y: P_t y = x e^-t + (alpha + 1)(1 - e^-t), and the
    # alpha_square kernel from z has mean z (alpha + 1) / (alpha + 2)
    slopes = np.array([0.5, -0.25])
    fns = [ProductFunction(g=lambda y, s=s: 1.0 + s * y) for s in slopes]
    decay, w = np.exp(-t), -np.expm1(-t)
    x = z = 2.0
    got = evaluate((SemigroupParams(alpha, t, 1),), [x], fns)
    want = 1.0 + slopes * (x * decay + (alpha + 1.0) * w)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-11
    got = evaluate((KernelSpec("alpha_square", alpha), SemigroupParams(alpha, t, 1)), [z], fns)
    want = 1.0 + slopes * (z * (alpha + 1.0) / (alpha + 2.0) * decay + (alpha + 1.0) * w)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-11


def test_non_finite_anchor_matrix_is_refused(monkeypatch, tmp_path, capsys):
    # at alpha in the hundreds the powers y^alpha of the kernel step leave
    # the float range; np.linalg.cond once got the NaN matrix ("SVD did not
    # converge"), and a matrix with a zero row its NaN equilibration
    cond = np.linalg.cond

    def finite_cond(matrix):
        assert np.all(np.isfinite(matrix))
        return cond(matrix)

    monkeypatch.setattr(np.linalg, "cond", finite_cond)
    x = np.array(CORNER_ANCHORS[1])
    with pytest.raises(ValueError, match="anchor matrix is not finite"):
        intertwine_sides("same_alpha", 400.0, 1.0, x, FUNCTIONS)
    with pytest.raises(ValueError, match="condition number"):
        intertwine_sides("corner_shift", 400.0, 1.0, x, FUNCTIONS)
    # a test function that vanishes below the top anchor leaves the alpha_square
    # kernel's row at the lower anchor zero, stacked with matrices that are not
    vanishing = ProductFunction(g=lambda y: np.where(y > 1.5, 1.0, 0.0))
    with pytest.raises(ValueError, match="condition number inf"):  # a zero row
        evaluate((KernelSpec("alpha_square", 0.5),), [1.0, 2.0], FUNCTIONS + (vanishing,))
    for alpha in ("150", "300", "400"):
        assert main(["intertwine", "--alpha", alpha, "--n", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: anchor matrix") and err.count("\n") == 1
