"""The determinantal engine against the mesh appliers, its oracle.

Each kernel is pinned to the mesh at the resolutions the intertwine
experiment ran before the engine replaced it, and the semigroup to a fine
mesh over the box both share (``process.semigroup_top``).  The semigroup
step is also pinned to the transition density tabulated point by point on
the engine's own grid (``oracles.semigroup_step_pointwise``).
"""

import itertools

from collections import Counter

import numpy as np
import pytest
from oracles import semigroup_step_pointwise

from laguerre_intertwine import determinantal, experiments
from laguerre_intertwine.cli import ExperimentConfig, main
from laguerre_intertwine.determinantal import ProductFunction, evaluate, evaluate_chains
from laguerre_intertwine.experiments import (
    CORNER_ANCHORS,
    SQUARE_ANCHORS,
    TEST_FUNCTIONS,
    intertwine_chains,
)
from laguerre_intertwine.kernels import (
    KERNELS,
    DegenerateAnchorError,
    KernelSpec,
    apply_kernel_quadrature,
    apply_kernel_to_anchors,
)
from laguerre_intertwine.process import SemigroupParams, semigroup_apply_rows, semigroup_top

FUNCTIONS = tuple(TEST_FUNCTIONS.values())
ALPHAS = (-0.5, 0.0, 1.0, 2.5)

# the kernel mesh resolutions of the intertwine experiment before the
# engine: (panels, order) per lower dimension N; N = 3 takes the
# kernels-check default
MESH_RESOLUTION = {1: (3, 20), 2: (1, 12), 3: (2, 20)}


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
    fine = each_function(semigroup_apply_rows, params, x[None, :], 8, 20)
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
        grid = determinantal.line_grid(determinantal.panel_edges(x, semigroup_top(params, x[-1]), t))
        count = int(np.searchsorted(grid.edges, x[-1]))
        table, _ = determinantal._product_table(FUNCTIONS, grid, x, n, len(grid.nodes))
        got, = determinantal._semigroup_step([(params, table)], grid, x, count)
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
    panels, order = MESH_RESOLUTION[n]
    mesh = each_function(apply_kernel_to_anchors, spec, x[None, :], panels, order)
    assert np.max(np.abs(got - mesh) / np.abs(mesh)) <= 1e-8


def test_kernel_mass_at_a_small_head():
    # the mass of each kind at anchors (h, 2, 3, 5), cut to the kind's length:
    # one panel (h, 2) left y^alpha H nearly singular on it, off by up to 0.95
    # (alpha_corner, alpha = -0.99, h = 1e-300); alpha_corner is refused where
    # h^(alpha + 1) underflows (alpha = 2.5 at h <= 1e-100, alpha = 1 at 1e-300)
    heads = (1e-1, 1e-2, 1e-4, 1e-8, 1e-12, 1e-100, 1e-300)
    cells = refused = 0
    for n, kind, h in itertools.product((1, 2, 3), KERNELS, heads):
        row = KERNELS[kind]
        for alpha in ((-0.99, -0.5, 0.0, 1.0, 2.5) if row.takes_alpha else (None,)):
            x = (h, 2.0, 3.0, 5.0)[: n + row.dim_drop]
            cells += 1
            try:
                mass = evaluate((KernelSpec(kind, alpha),), x, [ProductFunction(g=np.ones_like)])[0]
            except ValueError:
                refused += 1
                continue
            assert abs(mass - 1.0) <= 1e-12, (n, kind, alpha, h, mass)
    assert cells == 231 and refused <= 9


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
    for identity in ("same_alpha", "square_shift"):
        rows = [c for c in checks if c.row["check"] == identity]
        assert len(rows) == 18 and not any(c.passed for c in rows), identity


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
        evaluate_chains(intertwine_chains("same_alpha", 400.0, 1.0, x.size), x, FUNCTIONS)
    with pytest.raises(ValueError, match="condition number"):
        evaluate_chains(intertwine_chains("corner_shift", 400.0, 1.0, x.size), x, FUNCTIONS)
    # a test function that vanishes below the top anchor leaves the alpha_square
    # kernel's row at the lower anchor zero, stacked with matrices that are not
    vanishing = ProductFunction(g=lambda y: np.where(y > 1.5, 1.0, 0.0))
    with pytest.raises(ValueError, match="condition number inf"):  # a zero row
        evaluate((KernelSpec("alpha_square", 0.5),), [1.0, 2.0], FUNCTIONS + (vanishing,))
    for alpha in ("150", "300", "400"):
        assert main(["intertwine", "--alpha", alpha, "--n", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: anchor matrix") and err.count("\n") == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_chain_value_does_not_depend_on_its_call(n):
    # the chains of one call share grids, product tables, steps, semigroup
    # set-ups and the stacked linear algebra; each row must be the bits of the
    # chain's own call, in any mix, and with a chain in it twice
    rng = np.random.default_rng(2700 + n)
    for anchor, identities in ((CORNER_ANCHORS[n], ("same_alpha", "corner_shift")),
                               (SQUARE_ANCHORS[n], ("square_shift",))):
        x = np.array(anchor)
        chains, alone = [], []
        for identity in identities:
            for alpha in (-0.99, -0.5, 0.0, 1.0, 2.5, 30.0):
                for t in (0.01, 0.25, 1.0, 4.0):
                    for chain in intertwine_chains(identity, alpha, t, x.size):
                        try:
                            alone.append(evaluate(chain, x, FUNCTIONS))
                        except ValueError:  # refused alone: left out
                            continue
                        chains.append(chain)
        assert len(chains) >= 40
        order = rng.permutation(len(chains))
        cuts = np.sort(rng.choice(np.arange(1, len(chains)), size=3, replace=False))
        for mix in [np.append(order, order[0])] + np.split(order, cuts):
            got = evaluate_chains([chains[i] for i in mix], x, FUNCTIONS)
            assert got.shape == (len(mix), len(FUNCTIONS))
            for row, i in zip(got, mix):
                assert np.array_equal(row, alone[i]), chains[i]


def test_a_call_runs_each_shared_step_once(monkeypatch):
    # corner_shift's lhs P_t^alpha corner at alpha = 0 and -0.5: the top of the
    # grid grows with alpha only from alpha > 0, so both chains take one grid,
    # one anchor check and one corner step, and their two semigroup steps
    # share one set-up
    x = np.array(CORNER_ANCHORS[2])
    c, c_prime = (intertwine_chains("corner_shift", alpha, 1.0, x.size)[0] for alpha in (0.0, -0.5))
    alone = [evaluate(chain, x, FUNCTIONS) for chain in (c, c, c_prime)]
    calls, steps = Counter(), Counter()

    def counted(name):
        real = getattr(determinantal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "_semigroup_step":
                steps.update(params for params, _ in args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(determinantal, name, wrapper)

    for name in ("checked_chamber", "line_grid", "_kernel_step", "_semigroup_step"):
        counted(name)
    got = evaluate_chains([c, c, c_prime], x, FUNCTIONS)
    assert all(np.array_equal(row, want) for row, want in zip(got, alone))
    assert calls == {"checked_chamber": 1, "line_grid": 1, "_kernel_step": 1, "_semigroup_step": 1}
    assert steps == {c[0]: 1, c_prime[0]: 1}


def test_evaluate_chains_refuses_as_its_chains():
    fine = intertwine_chains("same_alpha", 1.0, 1.0, 2)
    x = np.array(CORNER_ANCHORS[1])
    with pytest.raises(ValueError, match="no chain"):
        evaluate_chains([], x, FUNCTIONS)
    with pytest.raises(ValueError, match=r"functions of \[1, 2\] coordinates"):
        evaluate_chains([*fine, (SemigroupParams(0.5, 1.0, 2),)], x, FUNCTIONS)
    # the corner kernel takes a zero head, the alpha_corner kernel does not
    lower = SemigroupParams(0.5, 1.0, 2)
    with pytest.raises(DegenerateAnchorError):
        evaluate_chains([(KernelSpec("corner"), lower), (KernelSpec("alpha_corner", 0.5), lower)],
                        [0.0, 1.0, 2.0], FUNCTIONS)
    # one refused chain refuses the call, with the message of its own call
    for identity, message in (("same_alpha", "anchor matrix is not finite"),
                              ("corner_shift", "anchor matrix condition number")):
        refused = intertwine_chains(identity, 400.0, 1.0, 2)
        with pytest.raises(ValueError, match=message):
            evaluate(refused[0], x, FUNCTIONS)
        with pytest.raises(ValueError, match=message):
            evaluate_chains([*fine, *refused, *fine], x, FUNCTIONS)
