"""Output checks behind ``check_fail_frac`` and the ``correct`` verdict.

Every check yields a :class:`Check` with two verdicts:

* ``passed`` -- the verdict at the program's own level.  For the exact
  checks (draws inside their interlacing window, intertwining rows within
  ``tol``, exit codes) this is the only verdict.  For the statistical checks
  it is the program's pass flag, or the benchmark's Bonferroni KS family at
  level 0.01; those fail by chance at about their level, so
  ``check_fail_frac`` can be above 0 on some seeds.
* ``gated`` -- the verdict the benchmark's ``correct`` rests on.  Exact
  checks gate as they are.  Statistical checks gate at p-values above
  ``GATE_P``: a sampler or scheme with the wrong law fails that on every
  seed, a correct one about once in a million families.

``self_check`` hands each checker a tampered input and confirms that the
failure is counted, so a check that cannot fail does not go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GATE_P = 1e-6
KS_FAMILY_LEVEL = 0.01


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    gated: bool

    @classmethod
    def exact(cls, name: str, ok: bool) -> "Check":
        return cls(name, bool(ok), bool(ok))


# ---------------------------------------------------------------------------
# draws and their windows
# ---------------------------------------------------------------------------

def alpha_corner_window(x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Window x_{k-1} <= y_k <= x_{k+1} (x_0 = 0) of the alpha corner kernel."""
    x_rows = np.atleast_2d(x_rows)
    zero = np.zeros(x_rows.shape[:-1] + (1,))
    return np.concatenate([zero, x_rows[..., :-2]], axis=-1), x_rows[..., 1:]


def corner_window(x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outer window x_k <= y_k <= x_{k+1} of the corner kernel."""
    x_rows = np.atleast_2d(x_rows)
    return x_rows[..., :-1], x_rows[..., 1:]


def square_window(z_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner window z_{k-1} <= y_k <= z_k (z_0 = 0) of the alpha square kernel."""
    z_rows = np.atleast_2d(z_rows)
    zero = np.zeros(z_rows.shape[:-1] + (1,))
    return np.concatenate([zero, z_rows[..., :-1]], axis=-1), z_rows


def chamber_window(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-negative chamber, for ensemble draws."""
    return np.zeros((1, n)), np.full((1, n), np.inf)


def bad_draws(draws: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """Draws that are non-finite, unsorted, or outside [lo, hi] anywhere."""
    draws = np.atleast_2d(draws)
    ok = np.all(np.isfinite(draws), axis=-1)
    ok &= np.all((lo <= draws) & (draws <= hi), axis=-1)
    ok &= np.all(np.diff(draws, axis=-1) >= 0, axis=-1)
    return int(draws.shape[0] - np.count_nonzero(ok))


def window_check(name: str, draws: np.ndarray, window: tuple[np.ndarray, np.ndarray]) -> Check:
    return Check.exact(f"window[{name}]", bad_draws(draws, *window) == 0)


def ks_family_check(li, name: str, a: np.ndarray, b: np.ndarray) -> Check:
    """Bonferroni family of two-sample KS tests: each marginal and the sum."""
    family = li.BonferroniFamily(family_level=KS_FAMILY_LEVEL)
    columns = [(f"y{k + 1}", a[:, k], b[:, k]) for k in range(a.shape[1])]
    columns.append(("sum", a.sum(axis=1), b.sum(axis=1)))
    for label, col_a, col_b in columns:
        family.add(li.ks_two_sample(li.EmpiricalSample(col_a, label), li.EmpiricalSample(col_b, label)))
    min_p = min(r.p_value for r in family.reports)
    return Check(f"ks[{name}]", family.passed, min_p > GATE_P)


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------

def intertwine_checks(name: str, rows: list[dict], expected_rows: int, exit_code: int) -> list[Check]:
    """One check per row (rel_error <= tol), plus row count and exit code."""
    checks = [
        Check.exact(f"{name}:{r['check']}[alpha={r['alpha']},t={r['t']},f={r['f']}]",
                    float(r["rel_error"]) <= float(r["tol"]))
        for r in rows
    ]
    checks.append(Check.exact(f"{name}:rows", len(rows) == expected_rows))
    checks.append(Check.exact(f"{name}:exit_code", exit_code == 0))
    return checks


def worst_rel_over_tol(rows: list[dict]) -> float:
    return max(float(r["rel_error"]) / float(r["tol"]) for r in rows)


def sde_checks(
    name: str, rows: list[dict], expected_rows: int, exit_code: int, trend_threshold: float
) -> list[Check]:
    """Each row's pass flag and the exit code.

    Rows with a p-value gate at ``GATE_P``; the dt-trend row, whose p-value
    column is a constant 1, gates at three times its threshold.
    """
    checks = []
    for r in rows:
        passed = r["pass"] == "1"
        if r["check"] == "dt_trend":
            gated = float(r["ks_stat"]) <= 3.0 * trend_threshold
        else:
            gated = float(r.get("p_value") or r["min_p"]) > GATE_P
        label = f"{r['check']}[dt={r['dt']}]" if r.get("dt") else r["check"]
        checks.append(Check(f"{name}:{label}", passed, gated))
    all_passed = all(r["pass"] == "1" for r in rows)
    checks.append(Check.exact(f"{name}:rows", len(rows) == expected_rows))
    checks.append(Check(f"{name}:exit_code", exit_code == 0, exit_code == (0 if all_passed else 1)))
    return checks


# ---------------------------------------------------------------------------
# self-check with tampered inputs
# ---------------------------------------------------------------------------

def _failures(checks: list[Check]) -> int:
    return sum(not (c.passed and c.gated) for c in checks)


def self_check(li, seed: int) -> list[str]:
    """Feed every checker clean and tampered inputs; return what went wrong.

    An empty list means each checker passed its clean input and counted a
    failure on each tampered one.
    """
    problems = []
    rng = li.RngStream(seed, 900)
    x = li.sample_laguerre_ensemble(3, 0.5, rng, size=64)
    y = li.sample_alpha_corner_rows(0.5, x, rng)
    window = alpha_corner_window(x)
    if bad_draws(y, *window) != 0:
        problems.append("window checker rejects clean draws")
    outside = y.copy()
    outside[0, 1] = np.nextafter(window[1][0, 1], np.inf)
    if bad_draws(outside, *window) != 1:
        problems.append("window checker misses a draw just outside its window")
    nonfinite = y.copy()
    nonfinite[1, 0] = np.nan
    if bad_draws(nonfinite, *window) != 1:
        problems.append("window checker misses a non-finite draw")

    tol = 1e-5
    rows = [{"check": "same_alpha", "alpha": "0", "t": "1", "f": f, "rel_error": repr(tol / 7), "tol": repr(tol)}
            for f in ("exp_sum", "inv_prod")]
    if _failures(intertwine_checks("selfcheck", rows, 2, 0)):
        problems.append("intertwine checker rejects clean rows")
    tampered = [dict(rows[0]), dict(rows[1], rel_error=repr(float(np.nextafter(tol, 1.0))))]
    if _failures(intertwine_checks("selfcheck", tampered, 2, 0)) != 1:
        problems.append("intertwine checker misses a row with rel_error above tol")

    rows = [{"check": "sde_vs_exact_n1", "dt": "0.001", "p_value": "0.5", "pass": "1"}]
    if _failures(sde_checks("selfcheck", rows, 1, 0, 0.02)):
        problems.append("sde checker rejects clean rows")
    tampered = [dict(rows[0], p_value="1e-9", **{"pass": "0"})]
    if _failures(sde_checks("selfcheck", tampered, 1, 1, 0.02)) != 2:
        problems.append("sde checker misses a failed row")
    return problems
