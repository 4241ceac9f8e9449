"""The previous secular-equation solver, kept as a test oracle.

``reference_secular_roots`` is the masked-sum solver that
``kernels._secular_roots`` replaced: every root of a block is iterated at
once over all poles, its near and far sums are taken with a float mask,
and it is measured from its nearer pole, found by a separate pass at the
midpoint.  It shares the rational model (LAPACK ``dlaed4``; Li 1993; Gu
and Eisenstat 1995) but not the layout, the coordinates or the stopping
rule, so the roots of the two agree only to rounding.
"""

from __future__ import annotations

import numpy as np

MAX_STEPS = 64
TOL = 4.0 * np.finfo(float).eps
BLOCK = 2**16


def reference_secular_roots(poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row, the M roots of sum_j w_j / (lam - p_j) = 0, one per [p_i, p_{i+1}].

    ``poles`` (R, M+1) has non-decreasing rows and ``weights`` (R, M+1)
    entries >= 0.  A zero-width interval gives its pole, and so does an
    interval whose nearer side has only zero weights.
    """
    rows_per_block = max(1, BLOCK // max(1, poles.shape[1] * (poles.shape[1] - 1)))
    if len(poles) > rows_per_block:
        return np.concatenate([
            reference_secular_roots(poles[i : i + rows_per_block], weights[i : i + rows_per_block])
            for i in range(0, len(poles), rows_per_block)
        ])
    lo_pole, hi_pole = poles[:, :-1], poles[:, 1:]
    width = hi_pole - lo_pole
    out = lo_pole.copy()
    rows, ks = np.nonzero(width > 0)
    if rows.size == 0:
        return out
    rows, ks = _at_least_two(rows), _at_least_two(ks)
    a, b, h = lo_pole[rows, ks], hi_pole[rows, ks], width[rows, ks]
    p = np.ascontiguousarray(poles[rows].T)
    w = np.ascontiguousarray(weights[rows].T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        from_lo = np.sum(w / (a + 0.5 * h - p), axis=0) < 0
    e = p * np.where(from_lo, 1.0, -1.0) - np.where(from_lo, a, -b)
    far = e > 0
    near_w = (~far).astype(float)
    h_far = far * h
    noise = 2.0 * p.shape[0] * np.finfo(float).eps

    sig = 0.5 * h
    lo, hi = np.zeros_like(h), 0.5 * h
    root = np.empty_like(h)
    live = np.arange(h.size)
    for _ in range(MAX_STEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = (sig - h_far) / (sig - e)
            wr = w * ratio
            p_near = np.einsum("ij,ij->j", wr, near_w, optimize=False)
            p_far = np.sum(wr, axis=0) - p_near
            s_near = np.einsum("ij,ij,ij->j", wr, ratio, near_w, optimize=False)
            s_far = np.einsum("ij,ij->j", wr, ratio, optimize=False) - s_near
            q = sig / (sig - h)
            value = p_near + q * p_far
            flat = np.abs(value) <= noise * (p_near - q * p_far)
            c = (p_near - s_near) / sig + (p_far - s_far) / (sig - h)
            beta = s_near + s_far - c * h
            disc = np.sqrt(np.maximum(beta * beta + 4.0 * c * s_near * h, 0.0))
            step = np.where(beta > 0, 2.0 * s_near * h / (beta + disc), (disc - beta) / (2.0 * c))
        lo = np.where(value > 0, sig, lo)
        hi = np.where(value < 0, sig, hi)
        step[s_near == 0] = 0.0
        step[flat] = sig[flat]
        done = flat | (s_near == 0) | (np.abs(step - sig) <= TOL * sig)
        bisect = ~(done | ((lo < step) & (step < hi)))
        step[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        done |= hi - lo <= TOL * hi
        if not done.any():
            sig = step
            continue
        root[live[done]] = step[done]
        keep = _at_least_two(np.flatnonzero(~done))
        live, sig, lo, hi, h = live[keep], step[keep], lo[keep], hi[keep], h[keep]
        if live.size == 0:
            break
        w, e, near_w, h_far = (np.take(arr, keep, axis=1) for arr in (w, e, near_w, h_far))
    root[live] = sig
    out[rows, ks] = np.clip(np.where(from_lo, a + root, b - root), a, b)
    return out


def _at_least_two(index: np.ndarray) -> np.ndarray:
    return np.repeat(index, 2) if index.size == 1 else index
