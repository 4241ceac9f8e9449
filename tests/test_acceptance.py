"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line.
The statistical calibration gate runs first; every Monte Carlo criterion
uses fixed seeds, and every quadrature criterion runs at its stated
tolerance.
"""

import numpy as np
import pytest

from laguerre_intertwine import experiments
from laguerre_intertwine.cli import ExperimentConfig
from laguerre_intertwine.diffusion import (
    backward_generator_residual,
    htransform_residual_32a,
    transition_density,
    transition_sample,
)
from laguerre_intertwine.experiments import TEST_FUNCTIONS, composed_corner_density
from laguerre_intertwine.kernels import (
    KernelSpec,
    apply_kernel_quadrature,
    density_alpha_corner,
    sample_alpha_corner,
    sample_alpha_corner_rows,
    sample_alpha_square,
    sample_corner_many,
    sample_corner_rejection,
)
from laguerre_intertwine.numerics import RngStream, power_endpoint_rule
from laguerre_intertwine.process import SdeConfig, simulate_matrix_ou, simulate_sde
from laguerre_intertwine.rmt import (
    radial_part,
    sample_corner_alpha_matrix,
    sample_invariant_rectangular,
    sample_laguerre_ensemble,
    sample_wishart_radial,
    truncate,
)
from laguerre_intertwine.stats import (
    BonferroniFamily,
    EmpiricalSample,
    grid_cdf,
    ks_one_sample,
    ks_two_sample,
)

CORNER_ANCHORS = {1: np.array([1.0, 2.0]), 2: np.array([1.0, 2.0, 4.0]), 3: np.array([1.0, 2.0, 4.0, 7.0])}
SQUARE_ANCHORS = {1: np.array([2.0]), 2: np.array([1.0, 3.0]), 3: np.array([1.0, 2.5, 5.0])}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}")


def two_sample_family(a: np.ndarray, b: np.ndarray, level: float = 0.01) -> tuple[bool, float]:
    fam = BonferroniFamily(family_level=level)
    for k in range(a.shape[1]):
        fam.add(ks_two_sample(EmpiricalSample(a[:, k]), EmpiricalSample(b[:, k])))
    fam.add(ks_two_sample(EmpiricalSample(a.sum(1)), EmpiricalSample(b.sum(1))))
    fam.add(
        ks_two_sample(EmpiricalSample(np.log(a).sum(1)), EmpiricalSample(np.log(b).sum(1)))
    )
    return fam.passed, min(r.p_value for r in fam.reports)


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


def test_criterion_01_kernel_normalization():
    # the normalization rows of kernels-check at its default configuration:
    # corner, and alpha_square / alpha_corner at alpha in {-0.5, 0, 1, 2.5},
    # for N = 1, 2, 3
    checks = experiments.kernels_check(ExperimentConfig())
    rows = [c.row for c in checks if c.row["check"] == "normalization"]
    worst = max(abs(r["integral"] - 1.0) for r in rows)
    ok = len(rows) == 27 and worst <= 1e-7
    report(1, "kernel normalization", ok, f"{len(rows)} kernels, worst |mass-1| = {worst:.2e}")
    assert ok


def test_criterion_02_composition_pointwise():
    rng = np.random.default_rng(12345)
    worst = 0.0
    points = 0
    for alpha in (-0.5, 0.0, 1.0):
        for n in (1, 2):
            x = CORNER_ANCHORS[n]
            while True:
                lo = np.concatenate([[0.0], x[: n - 1]])
                y = np.sort(lo + rng.random(n) * (x[1:] - lo))
                direct = density_alpha_corner(alpha, x, y)
                if direct <= 0.0:
                    continue
                composed = composed_corner_density(alpha, x, y, panels=4, order=20)
                worst = max(worst, abs(direct - composed) / direct)
                points += 1
                if points % 4 == 0:
                    break
    # 24 grid points in total (>= the required 20)
    ok = worst <= 1e-6 and points >= 20
    report(2, "kernel composition", ok, f"{points} points, worst rel = {worst:.2e}")
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


def test_criterion_05_htransform_identities():
    worst_32a = 0.0
    for (a, t, x, y) in [
        (1.5, 0.7, 1.0, 2.0), (0.25, 0.1, 3.0, 0.5), (0.5, 0.5, 2.0, 1.0),
        (2.5, 1.0, 0.5, 4.0), (0.0, 0.5, 1.0, 2.0),
    ]:
        rel = abs(htransform_residual_32a(a, t, x, y)) / transition_density(a, t, x, y)
        worst_32a = max(worst_32a, rel)
    ok_32a = worst_32a <= 1e-10

    worst_fd = 0.0
    for (family, a, t, x, y) in [
        ("dual", 0.0, 0.5, 1.5, 1.0), ("dual", 1.5, 0.8, 2.0, 3.0),
        ("entrance_or_reflecting", 1.0, 0.5, 2.0, 1.0),
        ("entrance_or_reflecting", -0.5, 0.5, 1.0, 1.0),
    ]:
        worst_fd = max(worst_fd, abs(backward_generator_residual(family, a, t, x, y, 1e-3)))
    ok_fd = worst_fd <= 1e-4

    worst_ck = 0.0
    for (a, x, y, s, t) in [(0.5, 1.0, 2.0, 0.3, 0.7), (1.0, 2.0, 1.0, 0.5, 0.5)]:
        rule = power_endpoint_rule(60.0, a, 40, 20)
        lhs = float(np.dot(
            rule.weights,
            transition_density(a, s, x, rule.nodes) * transition_density(a, t, rule.nodes, y),
        ))
        worst_ck = max(worst_ck, abs(lhs - transition_density(a, s + t, x, y)))
    ok_ck = worst_ck <= 1e-8

    ok = ok_32a and ok_fd and ok_ck
    report(5, "h-transform identities", ok,
           f"32a={worst_32a:.2e} fd={worst_fd:.2e} ck={worst_ck:.2e}")
    assert ok


def test_criterion_06_dual_kernel_identities():
    # the dual-check exchange rows, a 12-point grid: eight same-dimension
    # points in the exit-continuation branch (parameter below 0, where the
    # exchange identity holds pointwise) and four corner points in the
    # conservative branch
    checks = ("dual_exchange_same_dim", "dual_exchange_corner")
    rows = [c.row for c in experiments.dual_check(ExperimentConfig()) if c.row["check"] in checks]
    worst = max(r["residual"] for r in rows)
    ok = len(rows) == 12 and worst <= 1e-5
    report(6, "dual kernel identities", ok, f"{len(rows)} points, worst rel = {worst:.2e}")
    assert ok


def test_criterion_07_truncation_monte_carlo():
    n = 20_000
    ok = True
    detail = []
    for idx, (n_dim, alpha) in enumerate([(1, 0), (2, 1), (2, 2)]):
        rng_a = RngStream(73_000, idx)
        rng_b = RngStream(73_100, idx)
        x = CORNER_ANCHORS[n_dim]
        big = sample_invariant_rectangular(x, alpha, rng_a, size=n)
        side_a = radial_part(truncate(big, n_dim + alpha, n_dim))
        side_b = sample_alpha_corner(float(alpha), x, rng_b, size=n)
        passed, min_p = two_sample_family(side_a, side_b)
        ok &= passed
        detail.append(f"({n_dim},{alpha}): min p = {min_p:.3f}")
    report(7, "truncation Monte Carlo", ok, "; ".join(detail))
    assert ok


def test_criterion_08_ensemble_projection():
    n = 20_000
    ok = True
    detail = []
    # integer parameter, two independent samplers of the same law
    rng_a, rng_b = RngStream(81_000, 0), RngStream(81_001, 0)
    anchors = sample_wishart_radial(3, 1, rng_a, size=n)
    pushed = sample_alpha_corner_rows(1.0, anchors, rng_a)
    direct = sample_wishart_radial(2, 1, rng_b, size=n)
    passed, min_p = two_sample_family(pushed, direct)
    ok &= passed
    detail.append(f"(2,1): min p = {min_p:.3f}")
    # real parameter through the bidiagonal sampler
    rng_a, rng_b = RngStream(81_002, 0), RngStream(81_003, 0)
    anchors = sample_laguerre_ensemble(3, 0.5, rng_a, size=n)
    pushed = sample_alpha_corner_rows(0.5, anchors, rng_a)
    direct = sample_laguerre_ensemble(2, 0.5, rng_b, size=n)
    passed, min_p = two_sample_family(pushed, direct)
    ok &= passed
    detail.append(f"(2,0.5): min p = {min_p:.3f}")
    report(8, "ensemble projection", ok, "; ".join(detail))
    assert ok


def test_criterion_09_one_particle_samplers():
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
    # Euler scheme at dt = 1e-3 against the exact sampler
    rng = RngStream(91_200, 0)
    sde = simulate_sde(0.0, np.array([1.0]), 1.0, SdeConfig(dt=1e-3), rng, size=20_000)[:, 0]
    ex = transition_sample(0.0, 1.0, 1.0, rng, size=20_000)
    p = ks_two_sample(EmpiricalSample(sde), EmpiricalSample(ex)).p_value
    ok &= p > 0.01
    detail.append(f"sde: p={p:.3f}")
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
