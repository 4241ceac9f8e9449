"""The verification experiments, each defined once.

Every experiment takes an experiment configuration (the fields of
``cli.ExperimentConfig``) and returns its checks: one :class:`Check` per
CSV row, with the verdict and the statistic that decided it.  The CLI
writes them out; the acceptance tests assert on the same rows.
``ConfigError`` marks a configuration the experiment cannot run.

Layer functions are called through their modules
(``kernels.apply_kernel_to_anchors``), never through names imported into
this one, so a wrapper installed on a module attribute sees every call.
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


def _one(y: np.ndarray) -> np.ndarray:
    return np.ones(y.shape[:-1])


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

# intertwine tolerance on rel_error per lower dimension N: 1e-5 and 1e-4 at
# N <= 2, the gates of the nested mesh quadrature; 1e-6 at N >= 3, where
# the determinantal sides agree to about 2e-11 (1.5e-9 at N = 8) and the
# condition limit (determinantal.COND_LIMIT) keeps the determinants to about 2e-6
INTERTWINE_TOL = {1: 1e-5, 2: 1e-4, 3: 1e-6, 4: 1e-6, 5: 1e-6, 6: 1e-6, 7: 1e-6, 8: 1e-6}

# stream of the composition points in kernels-check
COMPOSITION_STREAM = 300


def intertwine_sides(identity: str, alpha: float, t: float, x: np.ndarray, functions):
    """Both sides of one intertwining identity, each an (F,) array.

    Each side is evaluated on its own by the determinantal engine, with the
    operators in opposite orders: P_t^upper (K f) and K (P_t^lower f), for
    each product test function f of ``functions``.
    """
    if identity not in IDENTITIES:
        raise ConfigError(f"unknown identity {identity!r}")
    kind, (up_da, up_dn), (dn_da, dn_dn) = IDENTITIES[identity]
    n_low = len(x) - up_dn
    spec = KernelSpec(kind, alpha if kernels.KERNELS[kind].takes_alpha else None)
    upper = SemigroupParams(alpha + up_da, t, n_low + up_dn)
    lower = SemigroupParams(alpha + dn_da, t, n_low + dn_dn)
    lhs = determinantal.evaluate((upper, spec), x, functions)
    rhs = determinantal.evaluate((spec, lower), x, functions)
    return lhs, rhs


def composed_corner_density(
    alpha: float, x: np.ndarray, y: np.ndarray, panels: int, order: int
) -> float:
    """The alpha corner density at y as the corner density times the alpha_square
    density, integrated by quadrature over the intermediate point."""
    lo = np.maximum(x[:-1], y)
    hi = np.minimum(x[1:], np.append(y[1:], x[-1]))
    if np.any(lo >= hi):
        return 0.0
    u, w = numerics.unit_gauss_legendre(panels, order)
    mesh = np.stack(np.meshgrid(*(lo[:, None] + (hi - lo)[:, None] * u), indexing="ij"), axis=-1)
    wmesh = reduce(np.multiply.outer, (hi - lo)[:, None] * w)
    corner = kernels.kernel_density(KernelSpec("corner"), x, mesh)
    square = kernels.kernel_density(KernelSpec("alpha_square", alpha), mesh, y)
    return float((corner * square * wmesh).sum())


def _given_x(cfg, lengths) -> dict[int, tuple]:
    """``{len(x): x}`` for the run's x, which must fit one of its anchor ``lengths``."""
    if cfg.x and len(cfg.x) not in lengths:
        raise ConfigError(f"--x has {len(cfg.x)} coordinates; the run's anchors have {sorted(lengths)}")
    return {len(cfg.x): cfg.x} if cfg.x else {}


def _linear_statistics(sample: np.ndarray) -> dict[str, np.ndarray]:
    out = {f"marginal_{k + 1}": sample[:, k] for k in range(sample.shape[1])}
    out["sum"] = sample.sum(axis=1)
    with np.errstate(divide="ignore"):
        out["sum_log"] = np.where(
            np.all(sample > 0, axis=1), np.log(np.maximum(sample, 1e-300)).sum(axis=1), -1e6
        )
    return out


def _two_sample_family(detail: str, a: np.ndarray, b: np.ndarray) -> Check:
    """Per-marginal KS plus linear statistics, Bonferroni at family level 0.01."""
    fam = BonferroniFamily()
    sa, sb = _linear_statistics(a), _linear_statistics(b)
    for name in sa:
        pair = EmpiricalSample(sa[name], name), EmpiricalSample(sb[name], name)
        fam.add(stats.ks_two_sample(*pair))
    worst = min(r.p_value for r in fam.reports)
    adjusted = fam.adjusted_level
    row = {"check": detail, "n_tests": len(fam.reports), "min_p": worst, "adjusted_level": adjusted}
    return Check(row, fam.passed, worst, adjusted, detail)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def kernels_check(cfg) -> list[Check]:
    """Normalization of the probability kernels and the two-step composition."""
    n_values = (1, 2, 3) if cfg.n is None else (cfg.n,)
    if any(n < 1 or n > 3 for n in n_values):
        raise ConfigError("kernels-check supports N in {1, 2, 3}")
    alphas = ALPHA_GRID if cfg.alpha is None else (cfg.alpha,)
    tol = cfg.tol if cfg.tol is not None else 1e-7
    panels, order = (2 if cfg.panels is None else cfg.panels), (20 if cfg.order is None else cfg.order)
    given = _given_x(cfg, {n + 1 for n in n_values})
    checks = []
    for n in n_values:
        corner_anchor = given.get(n + 1, CORNER_ANCHORS[n])
        cases = [("corner", None, corner_anchor)]
        for alpha in alphas:
            cases.append(("alpha_square", alpha, SQUARE_ANCHORS[n]))
            cases.append(("alpha_corner", alpha, corner_anchor))
        for kind, alpha, anchor in cases:
            spec = KernelSpec(kind, alpha)
            mass = kernels.apply_kernel_quadrature(spec, np.array(anchor), _one, panels, order)
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
                    composed = composed_corner_density(alpha, x, y, panels=4, order=20)
                    worst = max(worst, abs(direct - composed) / direct)
            row = {
                "check": "composition", "kernel": "alpha_corner", "alpha": alpha, "N": n,
                "anchor": CORNER_ANCHORS[n], "integral": "", "error": worst, "tol": comp_tol,
            }
            detail = f"composition[N={n},alpha={alpha}]"
            checks.append(Check(row, worst <= comp_tol, worst, comp_tol, detail))
    return checks


def intertwine(cfg) -> list[Check]:
    """Semigroup/kernel exchange identities, each side its own determinant."""
    n_values = (1, 2) if cfg.n is None else (cfg.n,)
    if any(n not in INTERTWINE_TOL for n in n_values):
        raise ConfigError(f"intertwine supports N in 1..{max(INTERTWINE_TOL)}")
    functions = list(TEST_FUNCTIONS.values())
    given = _given_x(cfg, {n + up_dn for n in n_values for _, (_, up_dn), _ in IDENTITIES.values()})
    checks = []
    for n in n_values:
        tol = cfg.tol if cfg.tol is not None else INTERTWINE_TOL[n]
        if cfg.alpha is not None:
            alphas = (cfg.alpha,)
        else:
            alphas = (-0.5, 0.0, 1.0) if n == 1 else (-0.5, 1.0)
        if cfg.t is not None:
            times = (cfg.t,)
        else:
            times = (0.25, 1.0) if n == 1 else (1.0,)
        for identity, (_, (_, up_dn), _) in IDENTITIES.items():
            default = CORNER_ANCHORS[n] if up_dn else SQUARE_ANCHORS[n]
            x = np.array(given.get(n + up_dn, default))
            for alpha in alphas:
                for t in times:
                    sides = intertwine_sides(identity, alpha, t, x, functions)
                    for fname, lhs, rhs in zip(TEST_FUNCTIONS, *sides):
                        lhs, rhs = float(lhs), float(rhs)
                        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
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


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def dual_check(cfg) -> list[Check]:
    """h-transform identities, dual generator residuals, and the N = 1
    density forms of the dual kernel exchange relations."""
    td, dual_speed = diffusion.transition_density, diffusion.speed_measure_dual
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
        top = determinantal.semigroup_top(SemigroupParams(alpha, s, 1), x) + y + 20.0
        rule = numerics.power_endpoint_rule(top, alpha, 40, 20)
        lhs = float(np.dot(rule.weights, td(alpha, s, x, rule.nodes) * td(alpha, t, rule.nodes, y)))
        err = abs(lhs - td(alpha, s + t, x, y))
        detail = f"ck[alpha={alpha}]"
        checks.append(_residual_check("chapman_kolmogorov", alpha, s + t, x, y, err, 1e-8, detail))

    # dual kernel exchange, N = 1 density forms (12-point grid)
    tol = cfg.tol if cfg.tol is not None else 1e-5
    panels, order = (40 if cfg.panels is None else cfg.panels), (20 if cfg.order is None else cfg.order)

    # same dimension: exit-continuation branch, parameters below 0
    for (alpha, t, x, y) in [
        (-1.5, 0.5, 2.0, 1.0), (-1.5, 0.25, 1.0, 0.5),
        (-1.0, 0.5, 2.0, 1.0), (-1.0, 0.25, 1.0, 0.5),
        (-0.5, 0.5, 2.0, 1.0), (-0.5, 0.25, 1.0, 0.5),
        (-0.25, 0.5, 2.0, 1.0), (-0.25, 0.25, 1.0, 0.5),
    ]:
        r1 = numerics.gauss_legendre_rule(y, 40.0 + x + y, panels, order)
        absorbed = diffusion.transition_density_absorbed(alpha, t, x, r1.nodes)
        lhs = dual_speed(alpha, y) * float(np.dot(r1.weights, absorbed))
        r2 = numerics.power_endpoint_rule(x, -(alpha + 1.0), panels, order)
        exit_density = diffusion.dual_transition_density_exit(alpha, t, r2.nodes, y)
        rhs = float(np.dot(r2.weights, dual_speed(alpha, r2.nodes) * exit_density))
        detail = f"dual_same[alpha={alpha},t={t}]"
        rel = _rel(lhs, rhs)
        checks.append(_residual_check("dual_exchange_same_dim", alpha, t, x, y, rel, tol, detail))

    # corner: conservative branch, alpha > -1, anchor (1, 2)
    x = np.array([1.0, 2.0])
    for (alpha, t, y) in [(-0.5, 0.5, 1.5), (0.5, 0.5, 1.5), (1.5, 0.3, 1.0), (0.5, 0.25, 0.8)]:
        ra = numerics.power_endpoint_rule(y, alpha, panels, order)
        rb = numerics.gauss_legendre_rule(y, 40.0 + x[1] + y, panels, order)
        det = (
            td(alpha, t, x[0], ra.nodes)[:, None] * td(alpha, t, x[1], rb.nodes)[None, :]
            - td(alpha, t, x[0], rb.nodes)[None, :] * td(alpha, t, x[1], ra.nodes)[:, None]
        )
        lhs = dual_speed(alpha, y) * float(ra.weights @ det @ rb.weights)
        rc = numerics.gauss_legendre_rule(x[0], x[1], panels, order)
        shifted = td(alpha + 1.0, t, rc.nodes, y)
        rhs = float(np.dot(rc.weights, np.exp(-t) * shifted * dual_speed(alpha, y)))
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
    given = _given_x(cfg, {n + 1 for n, _ in settings})
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
            detail = "invariance[N=1,alpha=0]"
            row = {"check": detail, "n_tests": 1, "min_p": report.p_value, "adjusted_level": 0.01}
            checks.append(Check(row, report.p_value > 0.01, report.p_value, 0.01, detail))
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


def sample(cfg) -> tuple[np.ndarray, dict]:
    """Draws of the named sampler, one row each, and the metadata of the run."""
    if not cfg.sampler:
        raise ConfigError("sample requires --sampler")
    rng = RngStream(cfg.seed, 0)
    n = cfg.n_samples
    alpha = cfg.alpha if cfg.alpha is not None else 0.0
    anchored = {
        "corner": lambda: kernels.sample_corner_many(cfg.x, rng, n),
        "corner_rejection": lambda: kernels.sample_corner_rejection(cfg.x, rng, size=n),
        "alpha_square": lambda: kernels.sample_alpha_square(alpha, cfg.x, rng, size=n),
        "alpha_corner": lambda: kernels.sample_alpha_corner(alpha, cfg.x, rng, size=n),
    }
    sized = {
        "laguerre_ensemble": lambda: rmt.sample_laguerre_ensemble(cfg.n, alpha, rng, size=n),
        "wishart_radial": lambda: rmt.sample_wishart_radial(cfg.n, alpha, rng, size=n),
    }
    if cfg.sampler in anchored:
        if not cfg.x:
            raise ConfigError(f"{cfg.sampler} sampler needs --x")
        draws = anchored[cfg.sampler]()
    elif cfg.sampler in sized:
        if cfg.x:
            raise ConfigError(f"{cfg.sampler} sampler takes no --x")
        if cfg.n is None:
            raise ConfigError(f"{cfg.sampler} sampler needs --n")
        draws = sized[cfg.sampler]()
    elif cfg.sampler == "transition":
        x0 = _given_x(cfg, {1}).get(1, (1.0,))
        t = cfg.t if cfg.t is not None else 1.0
        draws = diffusion.transition_sample(alpha, t, float(x0[0]), rng, size=n)[:, None]
    else:
        raise ConfigError(f"unknown sampler {cfg.sampler!r}")
    meta = {
        "sampler": cfg.sampler,
        "alpha": alpha,
        "anchor": cfg.x or "",
        "seed": cfg.seed,
        "n_samples": n,
    }
    return np.atleast_2d(draws), meta
