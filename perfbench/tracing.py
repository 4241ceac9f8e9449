"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install`` replaces each function in ``LAYER_FUNCTIONS`` with a
wrapper wherever a module of the package holds a reference to it: the
defining module, the package namespace, and every module that imported the
name (``cli`` imports its layer functions by name, ``process`` imports
``transition_density``, ``kernels`` imports ``sample_haar_unitary``).  The
entries of ``cli.TEST_FUNCTIONS`` are wrapped too.  ``uninstall`` puts every
original back.  A wrapper only times and counts; it passes arguments and
results through untouched, so traced and untraced runs compute the same
bytes.

Spans live in memory as (name, label, start, end, parent, count) and are
written out once the run ends.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

LAYERS = ("numerics", "diffusion", "kernels", "process", "rmt", "stats", "cli")


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _batch(size) -> int:
    return 1 if size is None else int(size)


def _n_label(dim: int) -> str:
    return f"N{dim}"


def _square_label(alpha, z, rng, size=None) -> str:
    z = np.asarray(z, dtype=float)
    lo = np.concatenate([[0.0], z[:-1]])
    return "tied" if np.any(z - lo == 0.0) else _n_label(z.size)


# (module, function, counter, label); a counter receives the call's
# arguments and returns the work the call was asked for, a label splits one
# function's spans by a property of its input.
LAYER_FUNCTIONS = (
    ("numerics", "unit_gauss_legendre", None, None),
    ("diffusion", "transition_density",
     lambda alpha, t, x, y: int(np.broadcast(np.asarray(x), np.asarray(y)).size), None),
    ("diffusion", "transition_sample",
     lambda alpha, t, x, rng, size=None: _batch(size), None),
    ("kernels", "apply_kernel_to_anchors",
     lambda spec, anchors, *args, **kwargs: _rows(anchors), None),
    ("kernels", "apply_kernel_quadrature", None, None),
    ("kernels", "sample_alpha_corner_rows",
     lambda alpha, x_rows, rng: _rows(x_rows),
     lambda alpha, x_rows, rng: _n_label(np.shape(x_rows)[-1] - 1)),
    ("kernels", "sample_alpha_corner", lambda alpha, x, rng, size=None: _batch(size), None),
    ("kernels", "sample_alpha_square",
     lambda alpha, z, rng, size=None: _batch(size), _square_label),
    ("kernels", "sample_corner_many",
     lambda x, rng, n: int(n), lambda x, rng, n: _n_label(len(x) - 1)),
    ("process", "semigroup_apply", None, None),
    ("process", "semigroup_apply_rows",
     lambda params, x_rows, *args, **kwargs: _rows(x_rows), None),
    ("process", "simulate_sde",
     lambda alpha, x0, t_end, cfg, rng, size=None:
     _batch(size) * max(1, int(round(t_end / cfg.dt))), None),
    ("process", "simulate_matrix_ou", lambda alpha_int, x0, t, rng, size=None: _batch(size), None),
    ("rmt", "sample_haar_unitary", lambda n, rng, size=None: _batch(size), None),
    ("rmt", "sample_laguerre_ensemble", lambda n_dim, alpha, rng, size=None: _batch(size), None),
    ("rmt", "radial_part", lambda x: int(np.prod(np.shape(x)[:-2], dtype=int)), None),
    ("stats", "ks_two_sample", None, None),
    ("cli", "main", None, None),
)


@dataclass
class Span:
    name: str
    label: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    count: int


@dataclass
class Totals:
    calls: int = 0
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps the layer functions of one imported package and records spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn, counter, label):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name,
                label(*args, **kwargs) if label else "",
                0.0,
                0.0,
                stack[-1] if stack else -1,
                counter(*args, **kwargs) if counter else 1,
            )
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [self.package] + [getattr(self.package, m) for m in LAYERS]
        for module_name, fn_name, counter, label in LAYER_FUNCTIONS:
            original = getattr(getattr(self.package, module_name), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counter, label)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, False))
                        setattr(module, attr, wrapper)
        test_functions = self.package.cli.TEST_FUNCTIONS
        for key, original in list(test_functions.items()):
            self._patches.append((test_functions, key, original, True))
            test_functions[key] = self._wrap(
                "cli.test_function", original,
                lambda y: int(np.prod(np.shape(y)[:-1], dtype=int)), lambda y, key=key: key,
            )

    def uninstall(self) -> None:
        while self._patches:
            target, key, original, is_item = self._patches.pop()
            if is_item:
                target[key] = original
            else:
                setattr(target, key, original)

    def totals(self, exclude_parents: dict[str, str] | None = None) -> dict[tuple[str, str], Totals]:
        """Calls, work counts, inclusive and self seconds per (name, label).

        ``exclude_parents`` maps a span name to a parent name whose child
        spans of that name are left out of the totals (their time still
        leaves the parent's self time).
        """
        exclude_parents = exclude_parents or {}
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        out: dict[tuple[str, str], Totals] = {}
        for idx, span in enumerate(self.spans):
            skip = exclude_parents.get(span.name)
            if skip and span.parent >= 0 and self.spans[span.parent].name == skip:
                continue
            t = out.setdefault((span.name, span.label), Totals())
            t.calls += 1
            t.count += span.count
            t.total_s += span.end - span.start
            t.self_s += span.end - span.start - child_s[idx]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class CountingGenerator:
    """A numpy Generator stand-in that counts rejection proposals.

    Every call is forwarded to the wrapped generator, so the stream of
    numbers is exactly the one the bare generator gives.  The rejection
    samplers ask for proposals as one 2-D ``random((rows, N))`` block per
    round and for their accept uniforms as 1-D blocks, so the rows of the
    2-D requests are the proposals.
    """

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self.proposal_rows = 0

    def random(self, size=None, *args, **kwargs):
        if isinstance(size, tuple) and len(size) == 2:
            self.proposal_rows += int(size[0])
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)
