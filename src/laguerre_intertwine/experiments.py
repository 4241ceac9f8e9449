"""The verification experiments, each defined once.

Every experiment takes an experiment configuration (the fields of
``cli.ExperimentConfig``) and returns its checks: one :class:`Check` per
CSV row, with the verdict and the statistic that decided it.  The CLI
writes them out; the acceptance tests assert on the same rows.
``ConfigError`` marks a configuration the experiment cannot run.

Layer functions are called through their modules
(``determinantal.evaluate``), never through names imported into this one,
so a wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import determinantal, diffusion, kernels, numerics, process, rmt, stats
from .determinantal import ProductFunction
from .kernels import KernelSpec
from .numerics import RngStream
from .process import SdeConfig, SemigroupParams
from .stats import BonferroniFamily, EmpiricalSample


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class Check:
    """One check: its CSV row (without the pass column) and its verdict."""

    row: dict
    passed: bool
    statistic: float
    threshold: float
    detail: str


# ---------------------------------------------------------------------------
# test functions and shared grids
# ---------------------------------------------------------------------------

# each test function once, by its one-dimensional factors; called on (M, N)
# chamber points it is the pointwise f the quadrature appliers take.  The
# experiments read this dict at each call, so an entry put into it after
# import is the one used; a wrapper made with functools.wraps carries the
# factors ``g`` and ``a`` along.
TEST_FUNCTIONS = {
    "exp_sum": ProductFunction(g=lambda y: np.exp(-y)),
    "inv_prod": ProductFunction(g=lambda y: 1.0 / (1.0 + y)),
    "sum_exp_sum": ProductFunction(g=lambda y: np.exp(-y), a=lambda y: y),
}


ALPHA_GRID = (-0.5, 0.0, 1.0, 2.5)
CORNER_ANCHORS = {
    1: (1.0, 2.0), 2: (1.0, 2.0, 4.0), 3: (1.0, 2.0, 4.0, 7.0), 4: (1.0, 2.0, 4.0, 7.0, 11.0),
    5: (1.0, 2.0, 4.0, 7.0, 11.0, 16.0), 6: (1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0),
    7: (1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0),
    8: (1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0),
}
SQUARE_ANCHORS = {
    1: (2.0,), 2: (1.0, 3.0), 3: (1.0, 2.5, 5.0), 4: (1.0, 2.5, 5.0, 8.5),
    5: (1.0, 2.5, 5.0, 8.5, 13.0), 6: (1.0, 2.5, 5.0, 8.5, 13.0, 18.5),
    7: (1.0, 2.5, 5.0, 8.5, 13.0, 18.5, 25.0), 8: (1.0, 2.5, 5.0, 8.5, 13.0, 18.5, 25.0, 32.5),
}

# identity -> (kernel kind, (alpha shift, extra dimensions) of the upper and
# of the lower semigroup): P_t^upper K = K P_t^lower
IDENTITIES = {
    "same_alpha": ("alpha_corner", (0.0, 1), (0.0, 0)),
    "corner_shift": ("corner", (0.0, 1), (1.0, 0)),
    "square_shift": ("alpha_square", (1.0, 0), (0.0, 0)),
}

# intertwine tolerance on rel_error at every N: the determinantal sides agree
# to about 5e-14 (N <= 2), 2e-11 (N = 6) and 1.5e-9 (N = 8) at the default
# anchors, and the condition limit (determinantal.COND_LIMIT) keeps the
# determinants to about 2e-6
INTERTWINE_TOL = 1e-6

# stream of the composition points in kernels-check
COMPOSITION_STREAM = 300


def intertwine_chains(identity: str, alpha: float, t: float, size: int):
    """The operator chains of both sides of one intertwining identity at an
    anchor of ``size`` coordinates: P_t^upper K and K P_t^lower."""
    if identity not in IDENTITIES:
        raise ConfigError(f"unknown identity {identity!r}")
    kind, (up_da, up_dn), (dn_da, dn_dn) = IDENTITIES[identity]
    n_low = size - up_dn
    spec = KernelSpec(kind, alpha if kernels.KERNELS[kind].takes_alpha else None)
    upper = SemigroupParams(alpha + up_da, t, n_low + up_dn)
    lower = SemigroupParams(alpha + dn_da, t, n_low + dn_dn)
    return (upper, spec), (spec, lower)


def composed_corner_density(alpha: float, x: np.ndarray, y: np.ndarray) -> float:
    """The alpha corner density at y as the corner density times the alpha_square
    density, integrated by quadrature (4 panels of 20 nodes per coordinate)
    over the intermediate point."""
    lo = np.maximum(x[:-1], y)
    hi = np.minimum(x[1:], np.append(y[1:], x[-1]))
    if np.any(lo >= hi):
        return 0.0
    nodes, weights = (a[:, 0] for a in numerics.gauss_rule(np.stack([lo, hi], -1), 20, panels=4))
    mesh = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1)
    wmesh = reduce(np.multiply.outer, weights)
    corner = kernels.kernel_density(KernelSpec("corner"), x, mesh)
    square = kernels.kernel_density(KernelSpec("alpha_square", alpha), mesh, y)
    return float((corner * square * wmesh).sum())


def _given_x(x, lengths) -> dict[int, tuple]:
    """``{len(x): x}`` for the run's x, which must fit one of its anchor ``lengths``."""
    if x and len(x) not in lengths:
        raise ConfigError(f"--x has {len(x)} coordinates; the run's anchors have {sorted(lengths)}")
    return {len(x): x} if x else {}


def _linear_statistics(sample: np.ndarray) -> dict[str, np.ndarray]:
    out = {f"marginal_{k + 1}": sample[:, k] for k in range(sample.shape[1])}
    out["sum"] = sample.sum(axis=1)
    with np.errstate(divide="ignore"):
        out["sum_log"] = np.where(
            np.all(sample > 0, axis=1), np.log(np.maximum(sample, 1e-300)).sum(axis=1), -1e6
        )
    return out


def _family_check(detail: str, reports: list) -> Check:
    """The row of a family of KS reports, Bonferroni at family level 0.01."""
    fam = BonferroniFamily(reports=reports)
    worst = min(r.p_value for r in reports)
    adjusted = fam.adjusted_level
    row = {"check": detail, "n_tests": len(reports), "min_p": worst, "adjusted_level": adjusted}
    return Check(row, fam.passed, worst, adjusted, detail)


def _two_sample_family(detail: str, a: np.ndarray, b: np.ndarray) -> Check:
    """Per-marginal KS plus linear statistics, as one family."""
    sa, sb = _linear_statistics(a), _linear_statistics(b)
    pairs = [(EmpiricalSample(sa[name], name), EmpiricalSample(sb[name], name)) for name in sa]
    return _family_check(detail, [stats.ks_two_sample(*pair) for pair in pairs])


def _rel(lhs: float, rhs: float) -> float:
    """|lhs - rhs| relative to the larger of the two, 0 where both are 0."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def kernels_check(cfg) -> list[Check]:
    """Normalization of the probability kernels, each the engine's value of
    the constant function 1, and the two-step composition."""
    n_values = (1, 2, 3) if cfg.n is None else (cfg.n,)
    if any(n not in CORNER_ANCHORS for n in n_values):
        raise ConfigError(f"kernels-check supports N in 1..{max(CORNER_ANCHORS)}")
    alphas = ALPHA_GRID if cfg.alpha is None else (cfg.alpha,)
    tol = cfg.tol if cfg.tol is not None else 1e-7
    one = [ProductFunction(g=np.ones_like)]
    given = _given_x(cfg.x, {n + 1 for n in n_values})
    checks = []
    for n in n_values:
        corner_anchor = given.get(n + 1, CORNER_ANCHORS[n])
        cases = [("corner", None, corner_anchor)]
        for alpha in alphas:
            cases.append(("alpha_square", alpha, SQUARE_ANCHORS[n]))
            cases.append(("alpha_corner", alpha, corner_anchor))
        for kind, alpha, anchor in cases:
            spec = KernelSpec(kind, alpha)
            mass = float(determinantal.evaluate([spec], np.array(anchor), one)[0])
            err = abs(mass - 1.0)
            row = {
                "check": "normalization", "kernel": kind, "alpha": "" if alpha is None else alpha,
                "N": n, "anchor": anchor, "integral": mass, "error": err, "tol": tol,
            }
            detail = f"normalization[{kind},N={n},alpha={alpha}]"
            checks.append(Check(row, err <= tol, err, tol, detail))

    # pointwise composition of the alpha corner kernel through its two factors
    comp_tol = 1e-6
    rng = RngStream(cfg.seed, COMPOSITION_STREAM)
    for n in [n for n in n_values if n <= 2]:
        x = np.array(CORNER_ANCHORS[n])
        lo = np.concatenate([[0.0], x[: n - 1]])
        for alpha in [a for a in alphas if a in (-0.5, 0.0, 1.0)] or alphas[:1]:
            worst = 0.0
            for _ in range(10):
                y = np.sort(lo + rng.gen.random(n) * (x[1:] - lo))
                direct = kernels.kernel_density(KernelSpec("alpha_corner", alpha), x, y)
                if direct > 0:
                    composed = composed_corner_density(alpha, x, y)
                    worst = max(worst, abs(direct - composed) / direct)
            row = {
                "check": "composition", "kernel": "alpha_corner", "alpha": alpha, "N": n,
                "anchor": CORNER_ANCHORS[n], "integral": "", "error": worst, "tol": comp_tol,
            }
            detail = f"composition[N={n},alpha={alpha}]"
            checks.append(Check(row, worst <= comp_tol, worst, comp_tol, detail))
    return checks


def intertwine(cfg) -> list[Check]:
    """Semigroup/kernel exchange identities, each side its own determinant;
    the sides at one anchor go to the engine in one call."""
    n_values = (1, 2) if cfg.n is None else (cfg.n,)
    if any(n not in CORNER_ANCHORS for n in n_values):
        raise ConfigError(f"intertwine supports N in 1..{max(CORNER_ANCHORS)}")
    functions = list(TEST_FUNCTIONS.values())
    given = _given_x(cfg.x, {n + up_dn for n in n_values for _, (_, up_dn), _ in IDENTITIES.values()})
    checks = []
    for n in n_values:
        tol = cfg.tol if cfg.tol is not None else INTERTWINE_TOL
        if cfg.alpha is not None:
            alphas = (cfg.alpha,)
        else:
            alphas = (-0.5, 0.0, 1.0) if n == 1 else (-0.5, 1.0)
        if cfg.t is not None:
            times = (cfg.t,)
        else:
            times = (0.25, 1.0) if n == 1 else (1.0,)
        cases = [(identity, alpha, t) for identity in IDENTITIES for alpha in alphas for t in times]
        # one engine call per anchor: same_alpha and corner_shift share theirs
        at_anchor = {}
        for case in cases:
            _, (_, up_dn), _ = IDENTITIES[case[0]]
            default = CORNER_ANCHORS[n] if up_dn else SQUARE_ANCHORS[n]
            at_anchor.setdefault(tuple(given.get(n + up_dn, default)), []).append(case)
        sides = {}
        for x, here in at_anchor.items():
            chains = [chain for case in here for chain in intertwine_chains(*case, len(x))]
            values = determinantal.evaluate_chains(chains, np.array(x), functions)
            sides.update(zip(here, zip(values[::2], values[1::2])))
        for identity, alpha, t in cases:
            for fname, lhs, rhs in zip(TEST_FUNCTIONS, *sides[identity, alpha, t]):
                lhs, rhs = float(lhs), float(rhs)
                rel = _rel(lhs, rhs)
                row = {
                    "check": identity, "alpha": alpha, "t": t, "N": n, "f": fname,
                    "lhs": lhs, "rhs": rhs, "rel_error": rel, "tol": tol,
                }
                detail = f"{identity}[N={n},alpha={alpha},t={t},f={fname}]"
                checks.append(Check(row, rel <= tol, rel, tol, detail))
    return checks


def _residual_check(check: str, alpha, t, x, y, residual: float, tol: float, detail: str) -> Check:
    row = {"check": check, "alpha": alpha, "t": t, "x": x, "y": y, "residual": residual, "tol": tol}
    return Check(row, residual <= tol, residual, tol, detail)


def dual_check(cfg) -> list[Check]:
    """h-transform identities, dual generator residuals, and the N = 1
    density forms of the dual kernel exchange relations."""
    td, dual_speed = diffusion.transition_density, diffusion.speed_measure_dual

    def rule(lo, hi, exponent=0.0):
        """The 40 panels of 20 nodes on (lo, hi), for y^exponent at lo = 0."""
        return map(np.ravel, numerics.gauss_rule([lo, hi], 20, exponent, 40))

    checks = []

    # pointwise h-transform residual between parameters -alpha and alpha
    for (alpha, t, x, y) in [
        (1.5, 0.7, 1.0, 2.0), (0.25, 0.1, 3.0, 0.5), (0.5, 0.5, 2.0, 1.0), (0.0, 0.5, 1.0, 2.0),
    ]:
        rel = abs(diffusion.htransform_residual_32a(alpha, t, x, y)) / td(alpha, t, x, y)
        detail = f"htransform[alpha={alpha},t={t}]"
        checks.append(_residual_check("htransform", alpha, t, x, y, rel, 1e-10, detail))

    # backward-equation finite-difference residuals
    fd_cases = [
        ("dual", 0.0, 0.5, 1.5, 1.0),
        ("dual", 1.5, 0.8, 2.0, 3.0),
        ("entrance_or_reflecting", 1.0, 0.5, 2.0, 1.0),
        ("entrance_or_reflecting", -0.5, 0.5, 1.0, 1.0),
    ]
    for family, alpha, t, x, y in fd_cases:
        res = abs(diffusion.backward_generator_residual(family, alpha, t, x, y, h=1e-3))
        detail = f"fd[{family},alpha={alpha}]"
        checks.append(_residual_check("fd_residual", alpha, t, x, y, res, 1e-4, detail))

    # Chapman-Kolmogorov by quadrature
    for (alpha, x, y, s, t) in [(0.5, 1.0, 2.0, 0.3, 0.7), (1.0, 2.0, 1.0, 0.5, 0.5)]:
        top = process.semigroup_top(SemigroupParams(alpha, s, 1), x) + y + 20.0
        nodes, weights = rule(0.0, top, alpha)
        lhs = float(np.dot(weights, td(alpha, s, x, nodes) * td(alpha, t, nodes, y)))
        err = abs(lhs - td(alpha, s + t, x, y))
        detail = f"ck[alpha={alpha}]"
        checks.append(_residual_check("chapman_kolmogorov", alpha, s + t, x, y, err, 1e-8, detail))

    # dual kernel exchange, N = 1 density forms (12-point grid)
    tol = cfg.tol if cfg.tol is not None else 1e-5

    # same dimension: exit-continuation branch, parameters below 0
    for (alpha, t, x, y) in [
        (-1.5, 0.5, 2.0, 1.0), (-1.5, 0.25, 1.0, 0.5),
        (-1.0, 0.5, 2.0, 1.0), (-1.0, 0.25, 1.0, 0.5),
        (-0.5, 0.5, 2.0, 1.0), (-0.5, 0.25, 1.0, 0.5),
        (-0.25, 0.5, 2.0, 1.0), (-0.25, 0.25, 1.0, 0.5),
    ]:
        nodes, weights = rule(y, 40.0 + x + y)
        absorbed = diffusion.transition_density_absorbed(alpha, t, x, nodes)
        lhs = dual_speed(alpha, y) * float(np.dot(weights, absorbed))
        nodes, weights = rule(0.0, x, -(alpha + 1.0))
        exit_density = diffusion.dual_transition_density_exit(alpha, t, nodes, y)
        rhs = float(np.dot(weights, dual_speed(alpha, nodes) * exit_density))
        detail = f"dual_same[alpha={alpha},t={t}]"
        rel = _rel(lhs, rhs)
        checks.append(_residual_check("dual_exchange_same_dim", alpha, t, x, y, rel, tol, detail))

    # corner: conservative branch, alpha > -1, anchor (1, 2)
    x = np.array([1.0, 2.0])
    for (alpha, t, y) in [(-0.5, 0.5, 1.5), (0.5, 0.5, 1.5), (1.5, 0.3, 1.0), (0.5, 0.25, 0.8)]:
        (a_nodes, a_weights), (b_nodes, b_weights) = rule(0.0, y, alpha), rule(y, 40.0 + x[1] + y)
        # both anchors' densities over both node sets in one call: the density is per point
        values = td(alpha, t, x[:, None], np.concatenate([a_nodes, b_nodes]))
        (a0, a1), (b0, b1) = np.split(values, [a_nodes.size], axis=1)
        det = np.outer(a0, b1) - np.outer(a1, b0)
        lhs = dual_speed(alpha, y) * float(a_weights @ det @ b_weights)
        nodes, weights = rule(x[0], x[1])
        shifted = td(alpha + 1.0, t, nodes, y)
        rhs = float(np.dot(weights, np.exp(-t) * shifted * dual_speed(alpha, y)))
        detail = f"dual_corner[alpha={alpha},t={t}]"
        rel = _rel(lhs, rhs)
        checks.append(_residual_check("dual_exchange_corner", alpha, t, "1 2", y, rel, tol, detail))
    return checks


def truncation(cfg) -> list[Check]:
    """Radial law of a truncated invariant matrix vs the alpha corner kernel."""
    settings = [(1, 0), (2, 1), (2, 2)]
    if cfg.n is not None or cfg.alpha is not None:
        n = cfg.n if cfg.n is not None else 2
        settings = [(n, numerics.checked_alpha_int(cfg.alpha) if cfg.alpha is not None else 1)]
    given = _given_x(cfg.x, {n + 1 for n, _ in settings})
    checks = []
    for idx, (n, alpha) in enumerate(settings):
        if n > 3 or n < 1:
            raise ConfigError("truncation supports N in {1, 2, 3}")
        rng_a = RngStream(cfg.seed, 2 * idx)
        rng_b = RngStream(cfg.seed, 2 * idx + 1)
        x = np.array(given.get(n + 1, CORNER_ANCHORS[n]))
        big = rmt.sample_invariant_rectangular(x, alpha, rng_a, size=cfg.n_samples)
        side_a = rmt.radial_part(rmt.truncate(big, n + alpha, n))
        side_b = kernels.sample_alpha_corner(float(alpha), x, rng_b, size=cfg.n_samples)
        checks.append(_two_sample_family(f"truncation[N={n},alpha={alpha}]", side_a, side_b))

        # mixed anchors: x drawn from the ensemble one dimension up
        anchors_a = rmt.sample_wishart_radial(n + 1, alpha, rng_a, size=cfg.n_samples)
        big = rmt.sample_invariant_rectangular(anchors_a, alpha, rng_a)
        side_a = rmt.radial_part(rmt.truncate(big, n + alpha, n))
        anchors_b = rmt.sample_wishart_radial(n + 1, alpha, rng_b, size=cfg.n_samples)
        side_b = kernels.sample_alpha_corner_rows(float(alpha), anchors_b, rng_b)
        checks.append(_two_sample_family(f"truncation_mixed[N={n},alpha={alpha}]", side_a, side_b))
    return checks


def invariance(cfg) -> list[Check]:
    """Ensemble projection: pushing the (N+1)-ensemble through the alpha
    corner kernel reproduces the N-ensemble."""
    settings: list[tuple[int, float]] = [(2, 1.0), (2, 0.5), (1, 0.0)]
    if cfg.n is not None or cfg.alpha is not None:
        n = cfg.n if cfg.n is not None else 2
        settings = [(n, cfg.alpha if cfg.alpha is not None else 1.0)]
    checks = []
    for idx, (n, alpha) in enumerate(settings):
        if n < 1:
            raise ConfigError("invariance requires N >= 1")
        rng_a = RngStream(cfg.seed, 100 + 2 * idx)
        rng_b = RngStream(cfg.seed, 101 + 2 * idx)
        anchors = rmt.sample_laguerre_ensemble(n + 1, alpha, rng_a, size=cfg.n_samples)
        pushed = kernels.sample_alpha_corner_rows(alpha, anchors, rng_a)
        if n == 1 and alpha == 0.0:
            # closed-form target: the 1-dimensional ensemble is Exp(1)
            exp1_cdf = lambda v: -np.expm1(-np.maximum(v, 0.0))
            report = stats.ks_one_sample(EmpiricalSample(pushed[:, 0], "pushforward"), exp1_cdf)
            checks.append(_family_check("invariance[N=1,alpha=0]", [report]))
        else:
            direct = rmt.sample_laguerre_ensemble(n, alpha, rng_b, size=cfg.n_samples)
            checks.append(_two_sample_family(f"invariance[N={n},alpha={alpha}]", pushed, direct))
    return checks


def sde_vs_exact(cfg) -> list[Check]:
    """SDE endpoints (:func:`process.simulate_sde`) against the exact samplers, across steps."""
    level = 0.01
    t_end = cfg.t if cfg.t is not None else 1.0
    n1 = min(cfg.n_samples, 20_000)
    rng = RngStream(cfg.seed, 500)
    dts = (4e-3, 2e-3, cfg.dt) if cfg.dt <= 4e-3 else (cfg.dt,)
    checks, ks_stats = [], []
    for dt in dts:
        sde = process.simulate_sde(0.0, np.array([1.0]), t_end, SdeConfig(dt=dt), rng, size=n1)
        exact = diffusion.transition_sample(0.0, t_end, 1.0, rng, size=n1)
        report = stats.ks_two_sample(
            EmpiricalSample(sde[:, 0], f"sde[dt={dt}]"), EmpiricalSample(exact, "exact")
        )
        ks_stats.append(report.statistic)
        row = {
            "check": "sde_vs_exact_n1", "alpha": 0.0, "dt": dt, "t": t_end,
            "ks_stat": report.statistic, "p_value": report.p_value, "level": level,
        }
        checks.append(Check(row, report.p_value > level, report.p_value, level, f"sde_n1[dt={dt}]"))
    if len(ks_stats) >= 2:
        # refining dt must not worsen the distributional distance beyond noise;
        # the row has no p-value, and its level column holds that slack
        slack = 2.0 * np.sqrt(2.0 / n1)
        trend = ks_stats[-1] - ks_stats[0]
        row = {
            "check": "dt_trend", "alpha": 0.0, "dt": dts[-1], "t": t_end,
            "ks_stat": trend, "p_value": "", "level": slack,
        }
        checks.append(Check(row, ks_stats[-1] <= ks_stats[0] + slack, trend, slack, "dt_trend"))

    # two particles against the exact matrix evolution
    n2 = min(cfg.n_samples, 10_000)
    sde = process.simulate_sde(1.0, np.array([1.0, 3.0]), 0.5, SdeConfig(dt=1e-3), rng, size=n2)
    mou = process.simulate_matrix_ou(1, np.array([1.0, 3.0]), 0.5, rng, size=n2)
    checks.append(_two_sample_family("sde_vs_matrix_ou[N=2,alpha=1]", sde, mou))
    return checks


# sampler -> (the config keys it reads besides seed and n_samples, each with
# the value it takes when not given, or None where the sampler needs it; its
# draws of ``size`` rows, which take those keys' values by name)
SAMPLERS = {
    "corner": ({"x": None}, lambda rng, size, x: kernels.sample_corner_many(x, rng, size)),
    "alpha_square": ({"alpha": 0.0, "x": None},
                     lambda rng, size, alpha, x: kernels.sample_alpha_square(alpha, x, rng, size=size)),
    "alpha_corner": ({"alpha": 0.0, "x": None},
                     lambda rng, size, alpha, x: kernels.sample_alpha_corner(alpha, x, rng, size=size)),
    "laguerre_ensemble": ({"n": None, "alpha": 0.0},
                          lambda rng, size, n, alpha: rmt.sample_laguerre_ensemble(n, alpha, rng, size=size)),
    "wishart_radial": ({"n": None, "alpha": 0.0},
                       lambda rng, size, n, alpha: rmt.sample_wishart_radial(n, alpha, rng, size=size)),
    # the one-particle law at time t from the one coordinate of x
    "transition": ({"alpha": 0.0, "t": 1.0, "x": (1.0,)},
                   lambda rng, size, alpha, t, x: diffusion.transition_sample(
                       alpha, t, _given_x(x, {1})[1][0], rng, size=size)[:, None]),
}


def sampler(name: str):
    """The row of ``SAMPLERS`` named ``name``; ``ConfigError`` where there is none."""
    if name not in SAMPLERS:
        raise ConfigError(f"unknown sampler {name!r}" if name else "sample requires --sampler")
    return SAMPLERS[name]


def sample(cfg) -> tuple[np.ndarray, dict]:
    """Draws of the named sampler, one row each, and the metadata of the run."""
    reads, draw = sampler(cfg.sampler)
    values = {key: default if getattr(cfg, key) is None else getattr(cfg, key)
              for key, default in reads.items()}
    for key, value in values.items():
        if value is None:
            raise ConfigError(f"{cfg.sampler} sampler needs --{key}")
    draws = draw(RngStream(cfg.seed, 0), cfg.n_samples, **values)
    # the keys the sampler read, in its row's order, x written as its anchor
    read = {"anchor" if key == "x" else key: value for key, value in values.items()}
    meta = {"sampler": cfg.sampler, **read, "seed": cfg.seed, "n_samples": cfg.n_samples}
    return np.atleast_2d(draws), meta
