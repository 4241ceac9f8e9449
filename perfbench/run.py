"""Benchmark of the laguerre-intertwine verification library.

Run from the root of a checkout::

    python3 perfbench/run.py --workload intertwine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads are defined in ``workloads.py``; ``all`` runs each in its own
process and prints a summary table.  A run is a closed loop with one caller
in one process: it imports the package from ``src/`` of the checkout, checks
its own checkers on tampered inputs, warms up on a small version of the
workload, then repeats full passes until ``--seconds`` have elapsed and at
least one pass has finished.  The benchmark starts no threads; BLAS keeps
its default thread count.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s`` / ``cpu_s`` -- median over passes of one pass's wall time and
  process CPU time (user + system, all threads);
* ``setup_s`` -- median time to import the package in a fresh interpreter,
  over imports made before and after the passes;
* ``peak_rss_mib`` -- peak resident memory of the run.

``--trace 1`` runs one untraced and one traced pass at the same seed,
requires their CSV bytes and draws to be identical, and reports the
per-layer metrics (``PER_LAYER``) derived from the spans of the traced pass,
plus the tracing overhead (traced minus untraced ``wall_s``).  On
``montecarlo`` it then runs the N=8 projection, traced, for the N=8 metrics
(see ``workloads.TAIL_PROJECTION``).  Rates named ``*_per_s`` divide work
by self time, except a sampler's ``draws_per_s``, which divides by the
inclusive time a caller waits.  Layers a workload never calls read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count checks, ``failed`` by the gated verdict (see ``checks.py``).
``check_fail_frac`` (failures at the program's own levels over checks
attempted) and ``intertwine.worst_rel_over_tol`` (largest rel_error/tol,
informational) are printed above it.  A provenance block and the full
result go to ``.perfbench_out/<workload>/seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 4  # per group; one group before the passes, one after
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
IMPORT_TIMER = (
    "import time; t0 = time.perf_counter(); import laguerre_intertwine as li; "
    "dt = time.perf_counter() - t0; print(li.__file__); print(repr(dt))"
)


def _layer_metrics():
    """(name, unit, better, key) of every per-layer metric.

    ``key`` names what the value is read from: (span name, label or None,
    field) for span totals, or a plain string for the values computed
    outside the spans.
    """
    out = []

    def span(module_fn: str, *fields: str, label: str | None = None):
        prefix = module_fn if label is None else f"{module_fn}.{label}"
        for f in fields:
            unit = {"self_s": "s", "accept_ratio": "ratio"}.get(f, "1/s" if f.endswith("_per_s") else "count")
            better = "higher" if f.endswith("_per_s") else "lower"
            out.append((f"{prefix}.{f}", unit, better, (module_fn, label, f)))

    span("numerics.unit_gauss_legendre", "calls", "self_s")
    span("diffusion.transition_density", "calls", "points", "self_s", "points_per_s")
    span("diffusion.transition_sample", "draws", "self_s")
    span("kernels.apply_kernel_to_anchors", "calls", "anchors", "self_s", "anchors_per_s")
    span("kernels.apply_kernel_quadrature", "calls", "self_s")
    for n in (2, 4, 6, 8):
        span("kernels.sample_alpha_corner_rows", "draws_per_s", "self_s", label=f"N{n}")
    span("kernels.sample_alpha_square", "draws_per_s", label="tied")
    span("kernels.sample_corner_many", "draws_per_s", label="N16")
    for n in (2, 4, 6, 8):
        out.append((f"kernels.rejection.N{n}.accept_ratio", "ratio", "higher", f"accept_ratio.{n}"))
    span("process.semigroup_apply", "calls", "self_s")
    span("process.semigroup_apply_rows", "calls", "rows", "self_s", "rows_per_s")
    span("process.simulate_sde", "path_steps", "self_s", "path_steps_per_s")
    span("process.simulate_matrix_ou", "self_s")
    span("rmt.sample_haar_unitary", "matrices", "self_s")
    span("rmt.sample_laguerre_ensemble", "draws", "self_s")
    span("rmt.radial_part", "matrices", "self_s")
    span("stats.ks_two_sample", "calls", "self_s")
    span("cli.main", "self_s")
    span("cli.test_function", "points")
    out.append(("trace.overhead_s", "s", "lower", "overhead_s"))
    out.append(("intertwine.worst_rel_over_tol", "ratio", "lower", "worst_rel_over_tol"))
    return out


END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
PER_LAYER = _layer_metrics()


def _span_value(totals, name: str, label: str | None, field: str) -> float:
    picked = [t for (n, lab), t in totals.items() if n == name and (label is None or lab == label)]
    calls = sum(t.calls for t in picked)
    count = sum(t.count for t in picked)
    self_s = sum(t.self_s for t in picked)
    total_s = sum(t.total_s for t in picked)
    if field == "calls":
        return calls
    if field == "self_s":
        return self_s
    if field == "draws_per_s":
        return count / total_s if total_s > 0 else 0.0
    if field.endswith("_per_s"):
        return count / self_s if self_s > 0 else 0.0
    return count


# ---------------------------------------------------------------------------
# provenance and set-up
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(li, workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "workload": workload,
        "seed": seed,
        "package_version": li.__version__,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


def measure_setup() -> list[float]:
    """Import times of the package in fresh interpreters; the first is dropped.

    The dropped import absorbs a cold file cache and any BLAS thread of this
    process still spinning after its last call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        path, dt = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported the package from {path}, not from {SRC}")
        samples.append(float(dt))
    return samples[1:]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def timed_pass(li, workload, seed: int, out: Path, full: bool, proposals=None):
    """Run ``work`` with its console output captured; verify afterwards."""
    shutil.rmtree(out, ignore_errors=True)
    log = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with redirect_stdout(log):
        result = workload.work(li, seed, out, full, proposals)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    out.mkdir(parents=True, exist_ok=True)
    (out / "console.txt").write_text(log.getvalue())
    verified = workload.verify(li, seed, out, full, result)
    return result, verified, wall, cpu


def _summarize(checks) -> tuple[int, int, int]:
    attempted = len(checks)
    nominal = sum(not c.passed for c in checks)
    gated = sum(not c.gated for c in checks)
    return attempted, nominal, gated


def run_untraced(li, workload, seed: int, seconds: float, out: Path, record: dict) -> dict:
    from checks import Check

    setup_samples = measure_setup()
    timed_pass(li, workload, seed, out / "warmup", full=False)
    passes, checks = [], []
    start = time.perf_counter()
    while True:
        try:
            _, verified, wall, cpu = timed_pass(li, workload, seed, out / "pass", full=True)
        except Exception as exc:  # counts as a failed check once a pass has been timed
            if not passes:
                raise
            traceback.print_exc()
            checks.append(Check.exact(f"exception: {exc!r}", False))
            break
        checks += verified.checks
        passes.append({"wall_s": wall, "cpu_s": cpu, **verified.info})
        if time.perf_counter() - start >= seconds:
            break
    # import times drift with the host's load like pass times do, so they
    # are sampled on both sides of the passes
    setup_samples += measure_setup()
    record.update(passes=passes, checks=checks, setup_samples_s=setup_samples)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(li, workload, seed: int, out: Path, record: dict) -> dict:
    from checks import Check
    from tracing import Tracer
    from workloads import montecarlo_tail, projection_checks

    timed_pass(li, workload, seed, out / "warmup", full=False)
    _, plain, wall_plain, _ = timed_pass(li, workload, seed, out / "untraced", full=True)
    tracer, proposals = Tracer(li), {}
    tracer.install()
    try:
        _, traced, wall_traced, _ = timed_pass(
            li, workload, seed, out / "traced", full=True, proposals=proposals)
        tail = montecarlo_tail(li, seed, proposals) if workload.name == "montecarlo" else None
    finally:
        tracer.uninstall()
    tracer.write(out / "spans.jsonl")
    checks = plain.checks + traced.checks
    checks.append(Check.exact("traced output equals untraced output", plain.digest == traced.digest))
    draws = dict(traced.info.get("draws", {}))
    if tail is not None:
        checks += projection_checks(tail)
        draws[f"N{tail['n']}"] = tail["pushed"].shape[0]
    record["checks"] = checks
    record["passes"] = [{"wall_s": wall_plain, **plain.info}, {"wall_s": wall_traced, "traced": True, **traced.info}]

    totals = tracer.totals(exclude_parents={"kernels.sample_alpha_corner_rows": "kernels.sample_alpha_corner"})
    extra = {
        "overhead_s": wall_traced - wall_plain,
        "worst_rel_over_tol": traced.info.get("worst_rel_over_tol", 0.0),
    }
    for n in (2, 4, 6, 8):
        gen = proposals.get(n)
        extra[f"accept_ratio.{n}"] = draws[f"N{n}"] / gen.proposal_rows if gen and gen.proposal_rows else 0.0
    return {
        name: float(extra[key] if isinstance(key, str) else _span_value(totals, *key))
        for name, _, _, key in PER_LAYER
    }


def _declared_metrics(trace: int) -> list[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args) -> int:
    if not (SRC / "laguerre_intertwine" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'laguerre_intertwine'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import laguerre_intertwine as li
    import laguerre_intertwine.cli  # noqa: F401  (makes li.cli available)
    from checks import self_check
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record = {"provenance": provenance(li, args.workload, args.seed)}
    problems = self_check(li, args.seed)
    record["self_check_problems"] = problems
    try:
        if args.trace:
            metrics = run_traced(li, workload, args.seed, out, record)
        else:
            metrics = run_untraced(li, workload, args.seed, args.seconds, out, record)
    except Exception:  # nothing was timed, so there is no result to report
        traceback.print_exc()
        print("perfbench: the run raised; no result", file=sys.stderr)
        return 1

    declared = _declared_metrics(args.trace)
    if declared is not None and declared != list(metrics):
        print("perfbench: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    attempted, nominal, gated = _summarize(record["checks"])
    units = dict(END_TO_END) if not args.trace else {name: unit for name, unit, _, _ in PER_LAYER}
    worst = [p["worst_rel_over_tol"] for p in record["passes"] if "worst_rel_over_tol" in p]
    summary = {
        "check_fail_frac": nominal / attempted,
        "checks_attempted": attempted,
        "checks_failed_nominal": nominal,
        "checks_failed_gated": gated,
        "intertwine.worst_rel_over_tol": max(worst) if worst else None,
        "passes": len(record["passes"]),
    }
    result = {
        "correct": gated == 0 and not problems,
        "attempted": attempted,
        "failed": gated,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(summary=summary, result=result, checks=[vars(c) for c in record["checks"]])
    (out / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={summary['passes']} out={out.relative_to(ROOT)}")
    print("provenance " + json.dumps(record["provenance"]))
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    for c in record["checks"]:
        if not (c["passed"] and c["gated"]):
            print(f"check {'FAILED' if not c['gated'] else 'failed at nominal level'}: {c['name']}")
    for name, m in result["metrics"].items():
        print(f"{name:<52} {m['value']:.6g} {m['unit']}")
    print(f"{'check_fail_frac':<52} {summary['check_fail_frac']:.6g} frac "
          f"({nominal}/{attempted} checks; {gated} below the gate)")
    if summary["intertwine.worst_rel_over_tol"] is not None:
        print(f"{'intertwine.worst_rel_over_tol':<52} {summary['intertwine.worst_rel_over_tol']:.6g} ratio "
              "(informational)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    from workloads import WORKLOADS

    rows, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT)
        ok &= proc.returncode == 0
        path = OUT / name / f"seed{args.seed}-trace{args.trace}" / "result.json"
        if proc.returncode == 0 and path.is_file():
            rows.append((name, json.loads(path.read_text())))
    print()
    for name, record in rows:
        metrics = record["result"]["metrics"]
        cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in metrics.items()]
        cells.append(f"check_fail_frac={record['summary']['check_fail_frac']:.4g} frac")
        print(f"{name:<11} " + "  ".join(cells))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("intertwine", "montecarlo", "sde", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
