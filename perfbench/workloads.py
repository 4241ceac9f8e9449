"""The benchmark's workloads.

Each workload has a ``work`` step, which the runner times, and a ``verify``
step, which it does not.  ``work`` drives the library only through
``cli.main`` and the package's exported functions, always looked up on the
package at call time so that the tracer's wrappers see the calls.  Every
random stream is an ``RngStream`` addressed by the workload seed.
``full=False`` runs a small version of the same code for warm-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    Check,
    alpha_corner_window,
    chamber_window,
    corner_window,
    intertwine_checks,
    ks_family_check,
    sde_checks,
    square_window,
    window_check,
    worst_rel_over_tol,
)
from tracing import CountingGenerator


@dataclass
class Verified:
    checks: list[Check]
    digest: str  # SHA-256 of the CSV bytes or of the draws
    info: dict = field(default_factory=dict)


def _read_rows(path: Path) -> list[dict]:
    """Rows of a CLI CSV as dicts of strings.

    The CLI writes fields unquoted, and a check label in the first column
    can hold a comma (``sde_vs_matrix_ou[N=2,alpha=1]``), so a row's surplus
    fields are joined back into its first column.
    """
    header, *lines = path.read_text().splitlines()
    keys = header.split(",")
    rows = []
    for line in lines:
        parts = line.split(",")
        surplus = len(parts) - len(keys)
        if surplus > 0:
            parts = [",".join(parts[: surplus + 1])] + parts[surplus + 1:]
        rows.append(dict(zip(keys, parts)))
    return rows


def _digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# intertwine: nested-quadrature checks of the three intertwinings
# ---------------------------------------------------------------------------

INTERTWINE_RUNS = {
    True: (("n1", ("--n", "1"), 54), ("n2", ("--n", "2", "--alpha", "1.0"), 9)),
    False: (("warmup", ("--n", "1", "--alpha", "0.0", "--t", "1.0"), 9),),
}


def intertwine_work(li, seed: int, out: Path, full: bool, proposals: dict | None = None) -> dict:
    return {
        tag: li.cli.main(["intertwine", *args, "--seed", str(seed), "--out", str(out / tag)])
        for tag, args, _ in INTERTWINE_RUNS[full]
    }


def intertwine_verify(li, seed: int, out: Path, full: bool, exit_codes: dict) -> Verified:
    checks, rows_all, files = [], [], []
    for tag, _, expected in INTERTWINE_RUNS[full]:
        path = out / tag / "intertwine.csv"
        rows = _read_rows(path)
        rows_all += rows
        checks += intertwine_checks(tag, rows, expected, exit_codes[tag])
        files += [path, out / tag / "summary.csv"]
    return Verified(checks, _digest_files(files), {"worst_rel_over_tol": worst_rel_over_tol(rows_all)})


# ---------------------------------------------------------------------------
# montecarlo: exact samplers, ensemble projection, matrix models
# ---------------------------------------------------------------------------

# Draw counts are half of those of the experiments (a quarter for the N=16
# corner), so that a pass is short and light on memory: one 20k batch of
# 17x17 complex matrices varied by a quarter from pass to pass on a shared
# 2-core VM, four 5k batches by a twentieth.
ALPHA = 0.5
PROJECTIONS = ((2, 10_000), (4, 10_000), (6, 5_000))
# Rejection at N=8 accepts about 3e-5 of proposals; with one pending row
# left each round costs the same, so 48 draws cost the slowest of 48
# geometric waits (~11 s on a 2-core x86 box, ~30% spread over seeds).
# That spread is too wide for a timed pass, so N=8 runs only in the traced
# run, where it feeds the per-layer N8 metrics.
TAIL_PROJECTION = (8, 48)
CORNER_DIM, CORNER_DRAWS = 16, 5_000
TIED_SQUARE, TIED_CORNER, TIED_DRAWS = (0.0, 1.0, 1.0, 3.0), (0.0, 1.0, 1.0, 3.0, 4.0), 2_500
TRUNC_ANCHOR, TRUNC_DRAWS = (1.0, 2.0, 4.0), 10_000
WARMUP_DIVISOR = 50


def _stream(li, seed: int, stream_id: int, proposals: dict | None, key):
    rng = li.RngStream(seed, stream_id)
    if proposals is not None:
        rng.gen = proposals[key] = CountingGenerator(rng.gen)
    return rng


def _project(li, seed: int, n: int, m: int, proposals: dict | None) -> dict:
    """Push the (N+1)-ensemble through the alpha corner kernel; compare to N."""
    rng_a = _stream(li, seed, 10 + n, proposals, n)
    rng_b = li.RngStream(seed, 20 + n)
    anchors = li.sample_laguerre_ensemble(n + 1, ALPHA, rng_a, size=m)
    pushed = li.sample_alpha_corner_rows(ALPHA, anchors, rng_a)
    direct = li.sample_laguerre_ensemble(n, ALPHA, rng_b, size=m)
    ks = ks_family_check(li, f"projection N={n}", pushed, direct)
    return {"n": n, "anchors": anchors, "pushed": pushed, "direct": direct, "ks": ks}


def montecarlo_work(li, seed: int, out: Path, full: bool, proposals: dict | None = None) -> dict:
    div = 1 if full else WARMUP_DIVISOR
    result = {"projections": [_project(li, seed, n, m // div, proposals) for n, m in PROJECTIONS]}
    rng = li.RngStream(seed, 30)
    x = li.sample_laguerre_ensemble(CORNER_DIM + 1, ALPHA, rng)
    result["corner"] = (x, li.sample_corner_many(x, rng, CORNER_DRAWS // div))
    result["tied_square"] = li.sample_alpha_square(
        ALPHA, TIED_SQUARE, li.RngStream(seed, 31), size=TIED_DRAWS // div)
    result["tied_corner"] = li.sample_alpha_corner(
        -0.5, TIED_CORNER, li.RngStream(seed, 32), size=TIED_DRAWS // div)
    big = li.sample_invariant_rectangular(
        np.array(TRUNC_ANCHOR), 1, li.RngStream(seed, 33), size=TRUNC_DRAWS // div)
    result["truncation"] = li.radial_part(li.truncate(big, 3, 2))
    return result


def montecarlo_tail(li, seed: int, proposals: dict | None) -> dict:
    """The N=8 projection (traced runs only, see ``TAIL_PROJECTION``)."""
    return _project(li, seed, *TAIL_PROJECTION, proposals)


def projection_checks(p: dict) -> list[Check]:
    n = p["n"]
    return [
        window_check(f"ensemble N={n + 1}", p["anchors"], chamber_window(n + 1)),
        window_check(f"projection N={n}", p["pushed"], alpha_corner_window(p["anchors"])),
        window_check(f"ensemble N={n}", p["direct"], chamber_window(n)),
        p["ks"],
    ]


def montecarlo_verify(li, seed: int, out: Path, full: bool, result: dict) -> Verified:
    checks = []
    arrays = []
    for p in result["projections"]:
        checks += projection_checks(p)
        arrays += [p["anchors"], p["pushed"], p["direct"]]
    x, corner = result["corner"]
    checks.append(window_check(f"ensemble N={CORNER_DIM + 1}", x, chamber_window(CORNER_DIM + 1)))
    checks.append(window_check(f"corner N={CORNER_DIM}", corner, corner_window(x)))
    checks.append(window_check("tied alpha_square", result["tied_square"],
                               square_window(np.array(TIED_SQUARE))))
    checks.append(window_check("tied alpha_corner", result["tied_corner"],
                               alpha_corner_window(np.array(TIED_CORNER))))
    checks.append(window_check("truncation", result["truncation"],
                               alpha_corner_window(np.array(TRUNC_ANCHOR))))
    arrays += [x, corner, result["tied_square"], result["tied_corner"], result["truncation"]]
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    draws = {f"N{p['n']}": p["pushed"].shape[0] for p in result["projections"]}
    return Verified(checks, h.hexdigest(), {"draws": draws})


# ---------------------------------------------------------------------------
# sde: Euler scheme against the exact samplers
# ---------------------------------------------------------------------------

SDE_ARGS = {True: (), False: ("--n-samples", "100")}
SDE_ROWS = 5  # three step sizes, the dt trend, the N=2 family


def sde_work(li, seed: int, out: Path, full: bool, proposals: dict | None = None) -> int:
    return li.cli.main(["sde-vs-exact", *SDE_ARGS[full], "--seed", str(seed), "--out", str(out)])


def sde_verify(li, seed: int, out: Path, full: bool, exit_code: int) -> Verified:
    n1 = 20_000 if full else 100
    path = out / "sde_vs_exact.csv"
    rows = _read_rows(path)
    checks = sde_checks("sde", rows, SDE_ROWS, exit_code, 2.0 * np.sqrt(2.0 / n1))
    return Verified(checks, _digest_files([path, out / "summary.csv"]))


@dataclass(frozen=True)
class Workload:
    name: str
    work: Callable  # (li, seed, out, full, proposals) -> raw result; timed
    verify: Callable  # (li, seed, out, full, raw result) -> Verified; not timed


WORKLOADS = {
    "intertwine": Workload("intertwine", intertwine_work, intertwine_verify),
    "montecarlo": Workload("montecarlo", montecarlo_work, montecarlo_verify),
    "sde": Workload("sde", sde_work, sde_verify),
}
