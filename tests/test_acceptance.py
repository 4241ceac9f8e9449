"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line.
The statistical calibration gate runs first.  Criteria 01-08 and the SDE
part of 09 read the check rows of the experiments at their default
configuration (``ExperimentConfig()``), the rows the CLI writes: each
experiment is defined once, in ``laguerre_intertwine.experiments``, and runs
once here, in a module fixture.  The cases no experiment runs (the
exact-sampler and matrix-evolution parts of 09, and 10, 11 and 12) are
written here, once, at fixed seeds.
"""

import numpy as np
import pytest
from oracles import grid_cdf, sample_corner_alpha_matrix, sample_corner_rejection

from laguerre_intertwine import experiments
from laguerre_intertwine.cli import ExperimentConfig
from laguerre_intertwine.diffusion import transition_density, transition_sample
from laguerre_intertwine.experiments import TEST_FUNCTIONS
from laguerre_intertwine.kernels import (
    KernelSpec,
    apply_kernel_quadrature,
    sample_alpha_square,
    sample_corner_many,
)
from laguerre_intertwine.numerics import RngStream
from laguerre_intertwine.process import simulate_matrix_ou
from laguerre_intertwine.stats import EmpiricalSample, ks_one_sample, ks_two_sample


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}")


def _rows(checks, check: str) -> list[dict]:
    return [c.row for c in checks if c.row["check"] == check]


def _all_passed(checks, count: int) -> tuple[bool, str]:
    """Whether there are ``count`` checks and each passed, and each one's statistic."""
    ok = len(checks) == count and all(c.passed for c in checks)
    return ok, "; ".join(f"{c.detail}: {c.statistic:.3g} vs {c.threshold:.3g}" for c in checks)


@pytest.fixture(scope="module")
def kernels_checks():
    return experiments.kernels_check(ExperimentConfig())


@pytest.fixture(scope="module")
def dual_checks():
    return experiments.dual_check(ExperimentConfig())


@pytest.fixture(scope="module")
def truncation_checks():
    return experiments.truncation(ExperimentConfig())


@pytest.fixture(scope="module")
def invariance_checks():
    return experiments.invariance(ExperimentConfig())


@pytest.fixture(scope="module")
def sde_checks():
    return experiments.sde_vs_exact(ExperimentConfig())


def test_criterion_12_calibration_gate_runs_first():
    # null rejection rate of the KS harness at level 0.01 over >= 200
    # replications must land in [0.2%, 3%]; this gate runs before every
    # Monte Carlo criterion below
    rng = RngStream(42_001, 0)
    n_rep, n = 500, 10_000
    rejections = 0
    for _ in range(n_rep):
        a = rng.gen.random(n)
        b = rng.gen.random(n)
        rejections += not ks_two_sample(EmpiricalSample(a), EmpiricalSample(b)).passed
    rate = rejections / n_rep
    ok = 0.002 <= rate <= 0.03
    report(12, "statistical calibration gate", ok, f"rate={rate:.4f} over {n_rep} reps")
    assert ok


def test_criterion_01_kernel_normalization(kernels_checks):
    # the normalization rows of kernels-check: corner, and alpha_square /
    # alpha_corner at alpha in {-0.5, 0, 1, 2.5}, for N = 1, 2, 3
    rows = _rows(kernels_checks, "normalization")
    worst = max(r["error"] for r in rows)
    ok = len(rows) == 27 and worst <= 1e-7
    report(1, "kernel normalization", ok, f"{len(rows)} kernels, worst |mass-1| = {worst:.2e}")
    assert ok


def test_criterion_02_composition_pointwise(kernels_checks):
    # the composition rows of kernels-check: the alpha corner density against
    # corner then alpha_square, at 10 points for each N in {1, 2} and alpha in
    # {-0.5, 0, 1}; each row holds its worst relative error
    rows = _rows(kernels_checks, "composition")
    worst = max(r["error"] for r in rows)
    cases = {(r["N"], r["alpha"]) for r in rows}
    ok = len(rows) == 6 and cases == {(n, a) for n in (1, 2) for a in (-0.5, 0.0, 1.0)} and worst <= 1e-6
    report(2, "kernel composition", ok, f"{len(rows)} cases, worst rel = {worst:.2e}")
    assert ok


@pytest.fixture(scope="module")
def intertwine_rows():
    """The rows of the intertwine experiment at its default configuration:
    N = 1 at alpha in {-0.5, 0, 1} and t in {0.25, 1}, N = 2 at alpha in
    {-0.5, 1} and t = 1, three test functions each."""
    return [c.row for c in experiments.intertwine(ExperimentConfig())]


def _intertwine_worst(rows, identity: str) -> tuple[bool, float]:
    tol = {1: 1e-5, 2: 1e-4}
    picked = [r for r in rows if r["check"] == identity]
    worst = max(r["rel_error"] / tol[r["N"]] for r in picked)
    complete = len(picked) == 24 and {r["f"] for r in picked} == set(TEST_FUNCTIONS)
    return complete and worst <= 1.0, worst


def test_criterion_03_main_intertwining(intertwine_rows):
    ok, worst = _intertwine_worst(intertwine_rows, "same_alpha")
    report(3, "main intertwining", ok, f"worst rel/tol = {worst:.2e}")
    assert ok


def test_criterion_04_shifted_intertwinings(intertwine_rows):
    ok1, worst1 = _intertwine_worst(intertwine_rows, "corner_shift")
    ok2, worst2 = _intertwine_worst(intertwine_rows, "square_shift")
    ok = ok1 and ok2
    report(4, "shifted intertwinings", ok, f"worst rel/tol = {max(worst1, worst2):.2e}")
    assert ok


@pytest.mark.parametrize("n, alpha, t", [(3, -0.99, None), (1, -0.5, 0.01), (2, -0.5, 0.01)])
def test_intertwinings_near_alpha_minus_one_and_at_small_t(n, alpha, t):
    # criteria 03 and 04 where the engine's first panel once decided the
    # result: y^alpha near alpha = -1, and the narrow density of a small t
    checks = experiments.intertwine(ExperimentConfig(n=n, alpha=alpha, t=t))
    worst = max(c.statistic / c.threshold for c in checks)
    ok = {c.row["check"] for c in checks} == set(experiments.IDENTITIES) and all(
        c.passed and c.threshold == experiments.INTERTWINE_TOL[n] for c in checks
    )
    report(4, f"intertwinings at N={n}, alpha={alpha}, t={t or 1.0}", ok, f"worst rel/tol = {worst:.2e}")
    assert ok and len(checks) == 9


def test_criterion_05_htransform_identities(dual_checks):
    # the dual-check rows: h-transform residuals (relative), backward-equation
    # finite-difference residuals at h = 1e-3, and Chapman-Kolmogorov by quadrature
    limits = {"htransform": (4, 1e-10), "fd_residual": (4, 1e-4), "chapman_kolmogorov": (2, 1e-8)}
    rows = {check: _rows(dual_checks, check) for check in limits}
    worst = {check: max(r["residual"] for r in rows[check]) for check in limits}
    ok = all(len(rows[c]) == count and worst[c] <= tol for c, (count, tol) in limits.items())
    report(5, "h-transform identities", ok, ", ".join(f"{c}={w:.2e}" for c, w in worst.items()))
    assert ok


def test_criterion_06_dual_kernel_identities(dual_checks):
    # the dual-check exchange rows, a 12-point grid: eight same-dimension
    # points in the exit-continuation branch (parameter below 0, where the
    # exchange identity holds pointwise) and four corner points in the
    # conservative branch
    checks = ("dual_exchange_same_dim", "dual_exchange_corner")
    rows = [c.row for c in dual_checks if c.row["check"] in checks]
    worst = max(r["residual"] for r in rows)
    ok = len(rows) == 12 and worst <= 1e-5
    report(6, "dual kernel identities", ok, f"{len(rows)} points, worst rel = {worst:.2e}")
    assert ok


def test_criterion_07_truncation_monte_carlo(truncation_checks):
    # truncation's six rows: (N, alpha) in {(1, 0), (2, 1), (2, 2)}, at the
    # fixed anchor and at anchors drawn from the ensemble one dimension up,
    # 20k draws a side; each row is a Bonferroni family at level 0.01 of KS
    # tests on the marginals, the sum and the log-sum
    ok, detail = _all_passed(truncation_checks, 6)
    report(7, "truncation Monte Carlo", ok, detail)
    assert ok


def test_criterion_08_ensemble_projection(invariance_checks):
    # invariance's three rows: the (N+1)-ensemble pushed through the alpha
    # corner kernel against the N-ensemble at (N, alpha) = (2, 1) and (2, 0.5)
    # (the same family of tests as 07), and against Exp(1) at (1, 0)
    ok, detail = _all_passed(invariance_checks, 3)
    report(8, "ensemble projection", ok, detail)
    assert ok


def test_criterion_09_one_particle_samplers(sde_checks):
    ok = True
    detail = []
    # exact sampler against its own density CDF at three settings
    for k, (alpha, t, x) in enumerate([(0.0, 1.0, 1.0), (1.0, 0.5, 3.0), (-0.5, 0.7, 0.2)]):
        rng = RngStream(91_000, k)
        draws = transition_sample(alpha, t, x, rng, size=100_000)
        hi = float(np.max(draws)) * 1.2 + 1.0
        cdf = grid_cdf(
            lambda v: transition_density(alpha, t, x, np.maximum(v, 1e-300)),
            0.0, hi, endpoint_exponent=alpha,
        )
        p = ks_one_sample(EmpiricalSample(draws), cdf).p_value
        ok &= p > 0.01
        detail.append(f"exact({alpha},{t},{x}): p={p:.3f}")
    # matrix evolution against the exact sampler at N = 1
    rng = RngStream(91_100, 0)
    mo = simulate_matrix_ou(0, np.array([1.5]), 0.7, rng, size=100_000)[:, 0]
    ex = transition_sample(0.0, 0.7, 1.5, rng, size=100_000)
    p = ks_two_sample(EmpiricalSample(mo), EmpiricalSample(ex)).p_value
    ok &= p > 0.01
    detail.append(f"matrix-ou: p={p:.3f}")
    # the sde-vs-exact rows: the SDE at N = 1 (alpha = 0, x = 1, t = 1, 20k
    # paths) against the exact sampler at dt in {4e-3, 2e-3, 1e-3}, the KS
    # distance's trend in dt, and the SDE at N = 2 (alpha = 1, x = (1, 3),
    # t = 0.5, dt = 1e-3, 10k paths) against the matrix evolution
    sde_ok, sde_detail = _all_passed(sde_checks, 5)
    ok &= sde_ok
    detail.append(sde_detail)
    report(9, "one-particle samplers", ok, "; ".join(detail))
    assert ok


def test_criterion_10_sampler_cross_validation():
    ok = True
    detail = []
    rng = RngStream(10_100, 0)
    x = np.array([0.0, 1.0, 2.0])
    a = sample_corner_many(x, rng, 20_000)
    b = sample_corner_rejection(x, rng, size=20_000)
    passed = all(
        ks_two_sample(EmpiricalSample(a[:, k]), EmpiricalSample(b[:, k])).p_value > 0.01 / 2
        for k in range(2)
    )
    ok &= passed
    detail.append(f"corner vs rejection: {'ok' if passed else 'fail'}")
    rng = RngStream(10_200, 0)
    z = np.array([1.0, 2.0])
    a = sample_alpha_square(1.0, z, rng, size=20_000)
    b = sample_corner_alpha_matrix(1, z, rng, size=20_000)
    passed = all(
        ks_two_sample(EmpiricalSample(a[:, k]), EmpiricalSample(b[:, k])).p_value > 0.01 / 2
        for k in range(2)
    )
    ok &= passed
    detail.append(f"alpha_square vs truncated-unitary: {'ok' if passed else 'fail'}")
    report(10, "sampler cross-validation", ok, "; ".join(detail))
    assert ok


def test_criterion_11_feller_decay():
    f = TEST_FUNCTIONS["exp_sum"]
    vals = [
        apply_kernel_quadrature(
            KernelSpec("alpha_square", 0.0), np.array([1.0, 2.0, s]), f, 4, 16
        )
        for s in (10.0, 20.0, 40.0, 80.0)
    ]
    decreasing = all(vals[i + 1] < vals[i] for i in range(3))
    ok = decreasing and vals[-1] < 1e-3
    report(11, "Feller decay", ok, f"values = {['%.2e' % v for v in vals]}")
    assert ok
