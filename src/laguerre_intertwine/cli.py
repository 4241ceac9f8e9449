"""Experiment runner for the verification suite.

``laguerre-intertwine <subcommand> [options]`` runs one verification
experiment, writes RFC-4180-style CSV artifacts (header line first, floats
with 17 significant digits) plus a machine-readable ``summary.csv`` into the
output directory, and reports through its exit code:

* 0 -- every check passed,
* 1 -- at least one check failed,
* 2 -- configuration error, including input the library rejects as out
  of domain (any ``ValueError``).

Subcommands: ``kernels-check``, ``intertwine``, ``dual-check``,
``truncation``, ``invariance``, ``sde-vs-exact``, ``sample``.  Options can
also come from a flat ``key=value`` config file (``--config``); command-line
flags override file values.  Identical configuration and seed reproduce the
CSV outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .diffusion import (
    backward_generator_residual,
    dual_transition_density_exit,
    htransform_residual_32a,
    speed_measure_dual,
    transition_density,
    transition_density_absorbed,
    transition_sample,
)
from .kernels import (
    KernelSpec,
    apply_kernel_quadrature,
    apply_kernel_to_anchors,
    density_alpha_corner,
    sample_alpha_corner,
    sample_alpha_corner_rows,
    sample_alpha_square,
    sample_corner_many,
    sample_corner_rejection,
)
from .numerics import RngStream, gauss_legendre_rule, power_endpoint_rule, unit_gauss_legendre
from .process import (
    SdeConfig,
    SemigroupParams,
    semigroup_apply,
    semigroup_apply_rows,
    semigroup_ymax,
    simulate_matrix_ou,
    simulate_sde,
)
from .rmt import (
    radial_part,
    sample_invariant_rectangular,
    sample_laguerre_ensemble,
    sample_wishart_radial,
    truncate,
)
from .stats import BonferroniFamily, EmpiricalSample, ks_one_sample, ks_two_sample


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass
class ExperimentConfig:
    experiment: str = ""
    alpha: float | None = None
    n: int | None = None
    t: float | None = None
    x: tuple[float, ...] | None = None
    n_samples: int = 20_000
    dt: float = 1e-3
    seed: int = 20260808
    panels: int = 0  # 0 -> per-experiment default
    order: int = 0
    tol: float | None = None
    out_dir: Path = Path("out")
    sampler: str = ""
    corrupt: float = 1.0  # test hook: scales kernel masses in kernels-check

    @classmethod
    def from_file(cls, path: Path) -> "ExperimentConfig":
        cfg = cls()
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg = cfg.with_option(key, value)
        return cfg

    def with_option(self, key: str, value: str) -> "ExperimentConfig":
        names = {f.name for f in fields(self)}
        if key not in names:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "x":
            parsed: object = tuple(float(v) for v in value.split(","))
        elif key in ("n", "n_samples", "seed", "panels", "order"):
            parsed = int(value)
        elif key in ("alpha", "t", "dt", "tol", "corrupt"):
            parsed = float(value)
        elif key == "out_dir":
            parsed = Path(value)
        else:
            parsed = value
        return replace(self, **{key: parsed})


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """RFC 4180 CSV: header line first, a field quoted only if it needs it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return
    header: list[str] = []
    for row in rows:
        header += [key for key in row if key not in header]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(row.get(key, "")) for key in header] for row in rows)


class Reporter:
    """Collects per-check rows and the machine-readable summary."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.rows: list[dict] = []
        self.summaries: list[dict] = []
        self.ok = True

    def record(self, row: dict, passed: bool, statistic: float, threshold: float, detail: str) -> None:
        row = dict(row)
        row["pass"] = int(passed)
        self.rows.append(row)
        self.summaries.append(
            {
                "experiment": self.cfg.experiment,
                "detail": detail,
                "statistic": statistic,
                "threshold": threshold,
                "seed": self.cfg.seed,
                "pass": int(passed),
            }
        )
        if not passed:
            self.ok = False

    def finish(self, csv_name: str) -> int:
        out = Path(self.cfg.out_dir)
        _write_csv(out / csv_name, self.rows)
        _write_csv(out / "summary.csv", self.summaries)
        for s in self.summaries:
            status = "pass" if s["pass"] else "FAIL"
            print(f"[{self.cfg.experiment}] {s['detail']}: statistic={_fmt(s['statistic'])} "
                  f"threshold={_fmt(s['threshold'])} {status}")
        return 0 if self.ok else 1


# ---------------------------------------------------------------------------
# test functions and shared grids
# ---------------------------------------------------------------------------

TEST_FUNCTIONS = {
    "exp_sum": lambda y: np.exp(-np.sum(y, axis=-1)),
    "inv_prod": lambda y: np.prod(1.0 / (1.0 + y), axis=-1),
    "sum_exp_sum": lambda y: np.sum(y, axis=-1) * np.exp(-np.sum(y, axis=-1)),
}


def stacked_test_functions(y: np.ndarray) -> np.ndarray:
    """Every entry of ``TEST_FUNCTIONS`` at once: shape (..., F), dict order.

    The quadrature appliers take such an f and share one nested quadrature
    among the F functions.  The dict is read at each call, so a wrapper put
    into it sees every evaluation.
    """
    return np.stack([fn(y) for fn in TEST_FUNCTIONS.values()], axis=-1)


ALPHA_GRID = (-0.5, 0.0, 1.0, 2.5)
CORNER_ANCHORS = {1: (1.0, 2.0), 2: (1.0, 2.0, 4.0), 3: (1.0, 2.0, 4.0, 7.0)}
SQUARE_ANCHORS = {1: (2.0,), 2: (1.0, 3.0), 3: (1.0, 2.5, 5.0)}

# quadrature resolutions per lower dimension N (semigroup panels/order,
# kernel panels/order), tuned so the identity checks clear their tolerances
# with at least an order of magnitude to spare
RESOLUTION = {1: (4, 20, 3, 20), 2: (3, 14, 1, 12)}


def _intertwine_sides(identity: str, alpha: float, t: float, x: np.ndarray, f, n_low: int):
    """Both sides of one intertwining identity by independent quadrature.

    ``f`` may return (M,) or (M, F) values (see ``stacked_test_functions``);
    each side is then a float or an (F,) array.
    """
    sgp, sgo, kp, ko = RESOLUTION[n_low]
    if identity == "same_alpha":
        spec = KernelSpec("alpha_corner", alpha)
        up, dn = (alpha, n_low + 1), (alpha, n_low)
    elif identity == "corner_shift":
        spec = KernelSpec("corner")
        up, dn = (alpha, n_low + 1), (alpha + 1.0, n_low)
    elif identity == "square_shift":
        spec = KernelSpec("alpha_square", alpha)
        up, dn = (alpha + 1.0, n_low), (alpha, n_low)
    else:
        raise ConfigError(f"unknown identity {identity!r}")
    if t == 0:
        val = apply_kernel_quadrature(spec, x, f, kp, ko)
        return val, val
    up_params = SemigroupParams(up[0], t, up[1])
    dn_params = SemigroupParams(dn[0], t, dn[1])
    lhs = semigroup_apply(
        up_params, x, lambda rows: apply_kernel_to_anchors(spec, rows, f, kp, ko), sgp, sgo
    )
    rhs = apply_kernel_quadrature(
        spec, x, lambda rows: semigroup_apply_rows(dn_params, rows, f, sgp, sgo), kp, ko
    )
    return lhs, rhs


def _linear_statistics(sample: np.ndarray) -> dict[str, np.ndarray]:
    stats = {}
    for k in range(sample.shape[1]):
        stats[f"marginal_{k + 1}"] = sample[:, k]
    stats["sum"] = sample.sum(axis=1)
    with np.errstate(divide="ignore"):
        stats["sum_log"] = np.where(
            np.all(sample > 0, axis=1), np.log(np.maximum(sample, 1e-300)).sum(axis=1), -1e6
        )
    return stats


def _two_sample_family(
    rep: Reporter, detail: str, a: np.ndarray, b: np.ndarray, level: float = 0.01
) -> None:
    """Per-marginal KS plus linear statistics, Bonferroni at family level."""
    fam = BonferroniFamily(family_level=level)
    sa, sb = _linear_statistics(a), _linear_statistics(b)
    for name in sa:
        fam.add(ks_two_sample(EmpiricalSample(sa[name], name), EmpiricalSample(sb[name], name)))
    worst = min(r.p_value for r in fam.reports)
    rep.record(
        {
            "check": detail,
            "n_tests": len(fam.reports),
            "min_p": worst,
            "adjusted_level": fam.adjusted_level,
        },
        fam.passed,
        worst,
        fam.adjusted_level,
        detail,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def cmd_kernels_check(cfg: ExperimentConfig) -> int:
    """Normalization of the probability kernels and the two-step composition."""
    n_values = (1, 2, 3) if cfg.n is None else (cfg.n,)
    if any(n < 1 or n > 3 for n in n_values):
        raise ConfigError("kernels-check supports N in {1, 2, 3}")
    alphas = ALPHA_GRID if cfg.alpha is None else (cfg.alpha,)
    tol = cfg.tol if cfg.tol is not None else 1e-7
    panels = cfg.panels or 2
    order = cfg.order or 20
    rep = Reporter(cfg)
    one = lambda y: np.ones(y.shape[:-1])

    for n in n_values:
        corner_anchor = np.array(cfg.x if cfg.x and len(cfg.x) == n + 1 else CORNER_ANCHORS[n])
        square_anchor = np.array(SQUARE_ANCHORS[n])
        specs = [("corner", KernelSpec("corner"), corner_anchor, None)]
        for alpha in alphas:
            specs.append(("alpha_square", KernelSpec("alpha_square", alpha), square_anchor, alpha))
            specs.append(("alpha_corner", KernelSpec("alpha_corner", alpha), corner_anchor, alpha))
        for name, spec, anchor, alpha in specs:
            mass = cfg.corrupt * apply_kernel_quadrature(spec, anchor, one, panels, order)
            err = abs(mass - 1.0)
            rep.record(
                {
                    "check": "normalization",
                    "kernel": name,
                    "alpha": "" if alpha is None else alpha,
                    "N": n,
                    "anchor": " ".join(_fmt(v) for v in anchor),
                    "integral": mass,
                    "error": err,
                    "tol": tol,
                },
                err <= tol,
                err,
                tol,
                f"normalization[{name},N={n},alpha={alpha}]",
            )

    # pointwise composition of the alpha corner kernel through its two factors
    comp_tol = 1e-6
    rng = np.random.default_rng(cfg.seed)
    for n in [n for n in n_values if n <= 2]:
        x = np.array(CORNER_ANCHORS[n])
        for alpha in [a for a in alphas if a in (-0.5, 0.0, 1.0)] or alphas[:1]:
            worst = 0.0
            for _ in range(10):
                lo = np.concatenate([[0.0], x[:n - 1]]) if n > 1 else np.array([0.0])
                hi = x[1:]
                y = np.sort(lo + rng.random(n) * (hi - lo))
                direct = density_alpha_corner(alpha, x, y)
                if direct <= 0:
                    continue
                composed = _composed_corner_density(alpha, x, y, panels=4, order=20)
                worst = max(worst, abs(direct - composed) / direct)
            rep.record(
                {
                    "check": "composition",
                    "kernel": "alpha_corner",
                    "alpha": alpha,
                    "N": n,
                    "anchor": " ".join(_fmt(v) for v in x),
                    "integral": worst,
                    "error": worst,
                    "tol": comp_tol,
                },
                worst <= comp_tol,
                worst,
                comp_tol,
                f"composition[N={n},alpha={alpha}]",
            )
    return rep.finish("kernels_check.csv")


def _composed_corner_density(alpha: float, x: np.ndarray, y: np.ndarray, panels: int, order: int) -> float:
    """Quadrature of corner-then-square densities over the intermediate point."""
    n = len(y)
    lo = np.maximum(x[:-1], y)
    hi = np.minimum(x[1:], np.append(y[1:], x[-1]))
    if np.any(lo >= hi):
        return 0.0
    u, w = unit_gauss_legendre(panels, order)
    grids = [lo[k] + (hi[k] - lo[k]) * u for k in range(n)]
    wts = [(hi[k] - lo[k]) * w for k in range(n)]
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
    wmesh = np.ones(mesh.shape[:-1])
    for k in range(n):
        shape = [1] * n
        shape[k] = -1
        wmesh = wmesh * wts[k].reshape(shape)
    from .kernels import _alpha_square_density_raw, _corner_density_raw

    vals = _corner_density_raw(x, mesh) * _alpha_square_density_raw(
        alpha, mesh, np.broadcast_to(y, mesh.shape)
    )
    return float((vals * wmesh).sum())


def cmd_intertwine(cfg: ExperimentConfig) -> int:
    """Semigroup/kernel exchange identities by independent nested quadrature."""
    n_values = (1, 2) if cfg.n is None else (cfg.n,)
    if any(n not in (1, 2) for n in n_values):
        raise ConfigError("intertwine supports N in {1, 2}")
    rep = Reporter(cfg)
    for n in n_values:
        tol = cfg.tol if cfg.tol is not None else (1e-5 if n == 1 else 1e-4)
        if cfg.alpha is not None:
            alphas = (cfg.alpha,)
        else:
            alphas = (-0.5, 0.0, 1.0) if n == 1 else (-0.5, 1.0)
        if cfg.t is not None:
            times = (cfg.t,)
        else:
            times = (0.25, 1.0) if n == 1 else (1.0,)
        for identity in ("same_alpha", "corner_shift", "square_shift"):
            anchor_len = n if identity == "square_shift" else n + 1
            x = np.array(
                cfg.x
                if cfg.x and len(cfg.x) == anchor_len
                else (SQUARE_ANCHORS[n] if identity == "square_shift" else CORNER_ANCHORS[n])
            )
            for alpha in alphas:
                for t in times:
                    sides = _intertwine_sides(identity, alpha, t, x, stacked_test_functions, n)
                    for fname, lhs, rhs in zip(TEST_FUNCTIONS, *sides):
                        lhs, rhs = float(lhs), float(rhs)
                        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
                        rep.record(
                            {
                                "check": identity,
                                "alpha": alpha,
                                "t": t,
                                "N": n,
                                "f": fname,
                                "lhs": lhs,
                                "rhs": rhs,
                                "rel_error": rel,
                                "tol": tol,
                            },
                            rel <= tol,
                            rel,
                            tol,
                            f"{identity}[N={n},alpha={alpha},t={t},f={fname}]",
                        )
    return rep.finish("intertwine.csv")


def cmd_dual_check(cfg: ExperimentConfig) -> int:
    """h-transform identities, dual generator residuals, and the N = 1
    density forms of the dual kernel exchange relations."""
    rep = Reporter(cfg)

    # pointwise h-transform residual between parameters -alpha and alpha
    tol_32a = 1e-10
    for (alpha, t, x, y) in [(1.5, 0.7, 1.0, 2.0), (0.25, 0.1, 3.0, 0.5), (0.5, 0.5, 2.0, 1.0), (0.0, 0.5, 1.0, 2.0)]:
        res = htransform_residual_32a(alpha, t, x, y)
        rel = abs(res) / transition_density(alpha, t, x, y)
        rep.record(
            {"check": "htransform", "alpha": alpha, "t": t, "x": x, "y": y,
             "residual": rel, "tol": tol_32a},
            rel <= tol_32a, rel, tol_32a, f"htransform[alpha={alpha},t={t}]",
        )

    # backward-equation finite-difference residuals
    tol_fd = 1e-4
    fd_cases = [
        ("dual", 0.0, 0.5, 1.5, 1.0),
        ("dual", 1.5, 0.8, 2.0, 3.0),
        ("entrance_or_reflecting", 1.0, 0.5, 2.0, 1.0),
        ("entrance_or_reflecting", -0.5, 0.5, 1.0, 1.0),
    ]
    for family, alpha, t, x, y in fd_cases:
        res = abs(backward_generator_residual(family, alpha, t, x, y, h=1e-3))
        rep.record(
            {"check": "fd_residual", "alpha": alpha, "t": t, "x": x, "y": y,
             "residual": res, "tol": tol_fd},
            res <= tol_fd, res, tol_fd, f"fd[{family},alpha={alpha}]",
        )

    # Chapman-Kolmogorov by quadrature
    tol_ck = 1e-8
    for (alpha, x, y, s, t) in [(0.5, 1.0, 2.0, 0.3, 0.7), (1.0, 2.0, 1.0, 0.5, 0.5)]:
        rule = power_endpoint_rule(semigroup_ymax(alpha, s, x, 1) + y + 20.0, alpha, 40, 20)
        lhs = float(
            np.dot(rule.weights,
                   transition_density(alpha, s, x, rule.nodes)
                   * transition_density(alpha, t, rule.nodes, y))
        )
        rhs = transition_density(alpha, s + t, x, y)
        err = abs(lhs - rhs)
        rep.record(
            {"check": "chapman_kolmogorov", "alpha": alpha, "t": s + t, "x": x, "y": y,
             "residual": err, "tol": tol_ck},
            err <= tol_ck, err, tol_ck, f"ck[alpha={alpha}]",
        )

    # dual kernel exchange, N = 1 density forms (12-point grid)
    tol_dual = cfg.tol if cfg.tol is not None else 1e-5
    panels, order = (cfg.panels or 40), (cfg.order or 20)

    def check_exchange_square(alpha, t, x, y):
        # exit-continuation branch, parameters below 0
        zmax = 40.0 + x + y
        r1 = gauss_legendre_rule(y, zmax, panels, order)
        lhs = speed_measure_dual(alpha, y) * float(
            np.dot(r1.weights, transition_density_absorbed(alpha, t, x, r1.nodes))
        )
        expo = -(alpha + 1.0)
        if expo >= 0 and float(expo).is_integer():
            r2 = gauss_legendre_rule(1e-300, x, panels, order)
        else:
            r2 = power_endpoint_rule(x, expo, panels, order)
        rhs = float(
            np.dot(r2.weights,
                   speed_measure_dual(alpha, r2.nodes)
                   * dual_transition_density_exit(alpha, t, r2.nodes, y))
        )
        return lhs, rhs

    for (alpha, t, x, y) in [
        (-1.5, 0.5, 2.0, 1.0), (-1.5, 0.25, 1.0, 0.5),
        (-1.0, 0.5, 2.0, 1.0), (-1.0, 0.25, 1.0, 0.5),
        (-0.5, 0.5, 2.0, 1.0), (-0.5, 0.25, 1.0, 0.5),
        (-0.25, 0.5, 2.0, 1.0), (-0.25, 0.25, 1.0, 0.5),
    ]:
        lhs, rhs = check_exchange_square(alpha, t, x, y)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        rep.record(
            {"check": "dual_exchange_same_dim", "alpha": alpha, "t": t, "x": x, "y": y,
             "residual": rel, "tol": tol_dual},
            rel <= tol_dual, rel, tol_dual, f"dual_same[alpha={alpha},t={t}]",
        )

    def check_exchange_corner(alpha, t, x, y):
        # conservative branch, alpha > -1, anchor has two coordinates
        zmax = 40.0 + x[1] + y
        ra = power_endpoint_rule(y, alpha, panels, order)
        rb = gauss_legendre_rule(y, zmax, panels, order)
        det = (
            transition_density(alpha, t, x[0], ra.nodes)[:, None]
            * transition_density(alpha, t, x[1], rb.nodes)[None, :]
            - transition_density(alpha, t, x[0], rb.nodes)[None, :]
            * transition_density(alpha, t, x[1], ra.nodes)[:, None]
        )
        lhs = speed_measure_dual(alpha, y) * float(ra.weights @ det @ rb.weights)
        rc = gauss_legendre_rule(x[0], x[1], panels, order)
        rhs = float(
            np.dot(rc.weights,
                   speed_measure_dual(alpha, rc.nodes)
                   * np.exp(-t)
                   * transition_density(alpha + 1.0, t, rc.nodes, y)
                   * speed_measure_dual(alpha, y)
                   / speed_measure_dual(alpha, rc.nodes))
        )
        return lhs, rhs

    for (alpha, t, y) in [(-0.5, 0.5, 1.5), (0.5, 0.5, 1.5), (1.5, 0.3, 1.0), (0.5, 0.25, 0.8)]:
        lhs, rhs = check_exchange_corner(alpha, t, np.array([1.0, 2.0]), y)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        rep.record(
            {"check": "dual_exchange_corner", "alpha": alpha, "t": t, "x": "1 2", "y": y,
             "residual": rel, "tol": tol_dual},
            rel <= tol_dual, rel, tol_dual, f"dual_corner[alpha={alpha},t={t}]",
        )
    return rep.finish("dual_check.csv")


def cmd_truncation(cfg: ExperimentConfig) -> int:
    """Radial law of a truncated invariant matrix vs the alpha corner kernel."""
    settings = [(1, 0), (2, 1), (2, 2)]
    if cfg.n is not None or cfg.alpha is not None:
        if cfg.alpha is not None and int(cfg.alpha) != cfg.alpha:
            raise ConfigError("truncation requires non-negative integer alpha")
        n = cfg.n if cfg.n is not None else 2
        alpha = int(cfg.alpha) if cfg.alpha is not None else 1
        settings = [(n, alpha)]
    rep = Reporter(cfg)
    n_draws = cfg.n_samples
    for idx, (n, alpha) in enumerate(settings):
        if n > 3 or n < 1:
            raise ConfigError("truncation supports N in {1, 2, 3}")
        if alpha < 0 or int(alpha) != alpha:
            raise ConfigError("truncation requires non-negative integer alpha")
        rng_a = RngStream(cfg.seed, 2 * idx)
        rng_b = RngStream(cfg.seed, 2 * idx + 1)
        x = np.array(cfg.x if cfg.x and len(cfg.x) == n + 1 else CORNER_ANCHORS[n])
        big = sample_invariant_rectangular(x, alpha, rng_a, size=n_draws)
        side_a = radial_part(truncate(big, n + alpha, n))
        side_b = sample_alpha_corner(float(alpha), x, rng_b, size=n_draws)
        _two_sample_family(rep, f"truncation[N={n},alpha={alpha}]", side_a, side_b)

        # mixed anchors: x drawn from the ensemble one dimension up
        anchors_a = sample_wishart_radial(n + 1, alpha, rng_a, size=n_draws)
        big = _invariant_rectangular_rows(anchors_a, alpha, rng_a)
        side_a = radial_part(truncate(big, n + alpha, n))
        anchors_b = sample_wishart_radial(n + 1, alpha, rng_b, size=n_draws)
        side_b = sample_alpha_corner_rows(float(alpha), anchors_b, rng_b)
        _two_sample_family(rep, f"truncation_mixed[N={n},alpha={alpha}]", side_a, side_b)
    return rep.finish("truncation.csv")


def _invariant_rectangular_rows(x_rows: np.ndarray, alpha_int: int, rng: RngStream) -> np.ndarray:
    from .rmt import sample_haar_unitary

    total, n1 = x_rows.shape
    m1 = n1 + int(alpha_int)
    d = np.zeros((total, m1, n1))
    idx = np.arange(n1)
    d[:, idx, idx] = np.sqrt(x_rows)
    v = sample_haar_unitary(m1, rng, size=total)
    u = sample_haar_unitary(n1, rng, size=total)
    return v @ d @ u


def cmd_invariance(cfg: ExperimentConfig) -> int:
    """Ensemble projection: pushing the (N+1)-ensemble through the alpha
    corner kernel reproduces the N-ensemble."""
    settings: list[tuple[int, float]] = [(2, 1.0), (2, 0.5), (1, 0.0)]
    if cfg.n is not None or cfg.alpha is not None:
        settings = [(cfg.n if cfg.n is not None else 2,
                     cfg.alpha if cfg.alpha is not None else 1.0)]
    rep = Reporter(cfg)
    n_draws = cfg.n_samples
    for idx, (n, alpha) in enumerate(settings):
        if n < 1:
            raise ConfigError("invariance requires N >= 1")
        if not alpha > -1:
            raise ConfigError("invariance requires alpha > -1")
        rng_a = RngStream(cfg.seed, 100 + 2 * idx)
        rng_b = RngStream(cfg.seed, 101 + 2 * idx)
        anchors = sample_laguerre_ensemble(n + 1, alpha, rng_a, size=n_draws)
        pushed = sample_alpha_corner_rows(alpha, anchors, rng_a)
        if n == 1 and alpha == 0.0:
            # closed-form target: the 1-dimensional ensemble is Exp(1)
            report = ks_one_sample(
                EmpiricalSample(pushed[:, 0], "pushforward"), lambda v: -np.expm1(-np.maximum(v, 0.0))
            )
            rep.record(
                {"check": f"invariance[N=1,alpha=0]", "n_tests": 1, "min_p": report.p_value,
                 "adjusted_level": 0.01},
                report.p_value > 0.01, report.p_value, 0.01, "invariance[N=1,alpha=0]",
            )
        else:
            direct = sample_laguerre_ensemble(n, alpha, rng_b, size=n_draws)
            _two_sample_family(rep, f"invariance[N={n},alpha={alpha}]", pushed, direct)
    return rep.finish("invariance.csv")


def cmd_sde_vs_exact(cfg: ExperimentConfig) -> int:
    """Euler scheme endpoints against the exact samplers, across steps."""
    rep = Reporter(cfg)
    level = 0.01
    t_end = cfg.t if cfg.t is not None else 1.0
    n1 = min(cfg.n_samples, 20_000)
    rng = RngStream(cfg.seed, 500)
    dts = (4e-3, 2e-3, cfg.dt) if cfg.dt <= 4e-3 else (cfg.dt,)
    stats = []
    for k, dt in enumerate(dts):
        sde = simulate_sde(0.0, np.array([1.0]), t_end, SdeConfig(dt=dt), rng, size=n1)[:, 0]
        exact = transition_sample(0.0, t_end, 1.0, rng, size=n1)
        report = ks_two_sample(EmpiricalSample(sde, f"sde[dt={dt}]"), EmpiricalSample(exact, "exact"))
        stats.append(report.statistic)
        rep.record(
            {"check": "sde_vs_exact_n1", "alpha": 0.0, "dt": dt, "t": t_end,
             "ks_stat": report.statistic, "p_value": report.p_value, "level": level},
            report.p_value > level, report.p_value, level, f"sde_n1[dt={dt}]",
        )
    if len(stats) >= 2:
        # refining dt must not worsen the distributional distance beyond noise
        trend_ok = stats[-1] <= stats[0] + 2.0 * np.sqrt(2.0 / n1)
        rep.record(
            {"check": "dt_trend", "alpha": 0.0, "dt": dts[-1], "t": t_end,
             "ks_stat": stats[-1] - stats[0], "p_value": 1.0, "level": level},
            trend_ok, stats[-1] - stats[0], 2.0 * np.sqrt(2.0 / n1), "dt_trend",
        )

    # two particles against the exact matrix evolution
    n2 = min(cfg.n_samples, 10_000)
    sde = simulate_sde(1.0, np.array([1.0, 3.0]), 0.5, SdeConfig(dt=1e-4), rng, size=n2)
    mou = simulate_matrix_ou(1, np.array([1.0, 3.0]), 0.5, rng, size=n2)
    _two_sample_family(rep, "sde_vs_matrix_ou[N=2,alpha=1]", sde, mou)
    return rep.finish("sde_vs_exact.csv")


def cmd_sample(cfg: ExperimentConfig) -> int:
    """Write draws of a named sampler to CSV with full header metadata."""
    if not cfg.sampler:
        raise ConfigError("sample requires --sampler")
    rng = RngStream(cfg.seed, 0)
    n = cfg.n_samples
    alpha = cfg.alpha if cfg.alpha is not None else 0.0
    x = np.array(cfg.x) if cfg.x else None

    if cfg.sampler == "corner":
        if x is None:
            raise ConfigError("corner sampler needs --x")
        draws = sample_corner_many(x, rng, n)
    elif cfg.sampler == "corner_rejection":
        if x is None:
            raise ConfigError("corner_rejection sampler needs --x")
        draws = sample_corner_rejection(x, rng, size=n)
    elif cfg.sampler == "alpha_square":
        if x is None:
            raise ConfigError("alpha_square sampler needs --x")
        draws = sample_alpha_square(alpha, x, rng, size=n)
    elif cfg.sampler == "alpha_corner":
        if x is None:
            raise ConfigError("alpha_corner sampler needs --x")
        draws = sample_alpha_corner(alpha, x, rng, size=n)
    elif cfg.sampler == "laguerre_ensemble":
        if cfg.n is None:
            raise ConfigError("laguerre_ensemble sampler needs --n")
        draws = sample_laguerre_ensemble(cfg.n, alpha, rng, size=n)
    elif cfg.sampler == "wishart_radial":
        if cfg.n is None:
            raise ConfigError("wishart_radial sampler needs --n")
        draws = sample_wishart_radial(cfg.n, int(alpha), rng, size=n)
    elif cfg.sampler == "transition":
        x0 = float(x[0]) if x is not None else 1.0
        draws = transition_sample(alpha, cfg.t if cfg.t is not None else 1.0, x0, rng, size=n)[:, None]
    else:
        raise ConfigError(f"unknown sampler {cfg.sampler!r}")

    draws = np.atleast_2d(draws)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "samples.csv"
    meta = [
        f"# sampler={cfg.sampler}",
        f"# alpha={_fmt(alpha)}",
        f"# anchor={' '.join(_fmt(v) for v in x) if x is not None else ''}",
        f"# seed={cfg.seed}",
        f"# n_samples={n}",
    ]
    header = ",".join(f"y{k + 1}" for k in range(draws.shape[1]))
    lines = meta + [header]
    lines += [",".join(_fmt(v) for v in row) for row in draws]
    path.write_text("\n".join(lines) + "\n")
    print(f"[sample] wrote {draws.shape[0]} draws of {cfg.sampler} to {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "kernels-check": cmd_kernels_check,
    "intertwine": cmd_intertwine,
    "dual-check": cmd_dual_check,
    "truncation": cmd_truncation,
    "invariance": cmd_invariance,
    "sde-vs-exact": cmd_sde_vs_exact,
    "sample": cmd_sample,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laguerre-intertwine",
        description="Verification experiments for interlacing kernels and "
                    "non-colliding Laguerre diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="flat key=value file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--n", type=int, default=None, help="dimension N")
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--x", type=str, default=None, help="anchor, comma-separated")
        p.add_argument("--n-samples", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--panels", type=int, default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--sampler", type=str, default=None)
        p.add_argument("--corrupt", type=float, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig() if args.config is None else ExperimentConfig.from_file(args.config)
        cfg = replace(cfg, experiment=args.command)
        overrides = {
            "seed": args.seed, "alpha": args.alpha, "n": args.n, "t": args.t,
            "n_samples": args.n_samples, "dt": args.dt, "panels": args.panels,
            "order": args.order, "tol": args.tol, "sampler": args.sampler,
            "corrupt": args.corrupt,
        }
        for key, value in overrides.items():
            if value is not None:
                cfg = replace(cfg, **{key: value})
        if args.x is not None:
            cfg = replace(cfg, x=tuple(float(v) for v in args.x.split(",")))
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        return COMMANDS[args.command](cfg)
    except ValueError as exc:
        # ConfigError, and domain errors the library raises on bad input
        print("configuration error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
