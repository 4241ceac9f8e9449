"""Determinantal evaluation of the semigroups and kernels on product test functions.

A function on the Weyl chamber {y_1 < ... < y_c} of the form

    F(y) = scale * det[H_k(y_j)]_{j,k=1..c} / Delta(y)

is carried by its c one-dimensional functions H_k.  Each operator of the
intertwining identities maps such a function to another of the same form,
through one-dimensional integrals only:

* the c-particle semigroup, by Andreief's identity,
  (T_t F)(x) = e^{-lambda_c t} det[int p_t(x_i, y) H_k(y) dy] / Delta(x);
* the corner kernel, by Gelfand-Tsetlin integration over the window,
  (Lambda F)(x) = (-1)^c c! det[Phi_k(x_i) | 1] / Delta(x) with Phi_k' = H_k,
  a function of c + 1 coordinates;
* the alpha_square kernel,
  (Lambda_alpha F)(z) = (alpha+1)_c det[int_0^{z_i} y^alpha H_k] / (prod z_i^{alpha+1} Delta(z));
* the alpha_corner kernel: the alpha_square step, then the corner step.

A product test function prod_j g(y_j) is det[y_j^{k-1} g(y_j)] / Delta(y),
so every chain of these operators applied to it is one small determinant
at the anchor: no N-fold mesh and no sum over permutations.  A test function
(sum_j a(y_j)) prod_j g(y_j) is the derivative at s = 0 of
prod_j (1 + s a(y_j)) g(y_j); by Jacobi's formula its value is
det M tr(M^-1 M'), where M' is the same chain applied to y^{k-1} a(y) g(y).

The H_k are tabulated on one composite Gauss-Legendre grid on (0, top)
whose panel edges include 0 and every anchor coordinate; every panel has
plain nodes.  The H_k are smooth at 0; the one factor that is not, y^alpha
(of the transition density, and of the alpha_square weight), is integrated
exactly against the polynomial interpolating the node values of the first
panel (:func:`_scaled_moments`, product integration by the Gauss-Jacobi rule
of :func:`numerics.gauss_jacobi`).  An integral from 0 is a cumulative sum
over whole panels plus, inside a panel, the same interpolant's integral.

The semigroup step evaluates no Bessel function.  The transition density
is the Poisson-Gamma mixture of the noncentral chi-square law (Johnson,
Kotz and Balakrishnan, *Continuous Univariate Distributions* vol. 2,
ch. 29), w = 1 - e^-t:

    p_t(x, y) = sum_k Pois(k; x e^-t / w) Gamma(y; shape k + alpha + 1, scale w),

so the step is two small products: the Gamma moments of the H_k on the
grid (on the first panel with the y^alpha product weights), then the
Poisson weights of each target (:func:`_semigroup_step`).  Both factors
are formed in log space with lgamma, in blocks of ``K_BLOCK`` values of k
that each touch only the targets and nodes whose Poisson or Gamma mass
reaches the block.  ``tests/oracles.py`` keeps the pointwise table of the
Bessel form on (targets x nodes) as the step's oracle.

One call of :func:`evaluate_chains` evaluates several chains at one
anchor and does the work they share once.  The anchor is checked once per
outermost check (a kernel kind, or a semigroup).  Each chain's grid comes
from its own top, shortest time and largest kernel alpha: the panel edges
once per (top, time), their alpha split once per triple, and the grid once
per distinct edge set.  The chains on one grid share one product table, and
their steps run from the inside out: a step that several chains take (one
operator on one input table at one panel count) runs once, and the
semigroup steps of one depth that share their time and targets are one call
of :func:`_semigroup_step`, which forms the Poisson half of the mixture
once, the Gamma half once per alpha and the products per table.  The anchor
matrices of all chains and all test functions of the call are
equilibrated, conditioned, factored and solved as one stacked array.  Only
equal work is shared, and no product runs over stacked tables (that would
move the last bits), so each chain's values are bit-identical to those of
its own call (:func:`evaluate`).  Nothing is kept from one call to the next.

The mesh appliers :func:`kernels.apply_kernel_to_anchors` and
:func:`process.semigroup_apply_rows` (over the same cut,
:func:`process.semigroup_top`) compute the same quantities for any test
function, at a cost that grows as K^N; they are this module's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lgamma
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .kernels import KernelSpec, checked_chamber, interior_anchor, vandermonde
from .numerics import gauss_jacobi, pochhammer, unit_gauss_legendre
from .process import TAIL_EXPONENT, SemigroupParams, lambda_eigen, semigroup_top

# Gauss-Legendre nodes per panel, and the widest panel above the first.
# With these the operators match a fine mesh to 1e-14 at N <= 3, and the two
# sides of each identity agree to 5e-14 (N <= 2), 2e-11 (N = 6) and 1.5e-9
# (N = 8) at the default anchors.
ORDER = 20
PANEL_WIDTH = 2.0

# Values of k per block of the semigroup step.  At t = 0.01 a block of 128
# wastes less around each node's span of about 18 sqrt(k) values than one of
# 256, and costs less in per-block overhead than one of 64.
K_BLOCK = 128

# Largest condition number of the equilibrated anchor matrix that is
# evaluated.  Its determinant's relative error is bounded by about
# cond * 2.2e-16, which reaches the tightest intertwine tolerance (1e-6)
# near cond = 1e10.
COND_LIMIT = 1e10


@dataclass(frozen=True)
class ProductFunction:
    """f(y) = (sum_j a(y_j)) prod_j g(y_j), or prod_j g(y_j) when ``a`` is None.

    ``g`` and ``a`` map an array of points to values of the same shape.
    Called on an (M, N) array of chamber points, the object returns the M
    values of f: the pointwise form the quadrature appliers take.
    """

    g: Callable[[np.ndarray], np.ndarray]
    a: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.prod(self.g(y), axis=-1)
        return out if self.a is None else np.sum(self.a(y), axis=-1) * out


@dataclass(frozen=True)
class LineGrid:
    """Composite Gauss-Legendre nodes on (0, edges[-1]), ``ORDER`` per panel."""

    edges: np.ndarray  # (P + 1,), edges[0] = 0
    nodes: np.ndarray  # (P, ORDER)
    weights: np.ndarray  # (P, ORDER)


def panel_edges(points, top: float, t: float) -> np.ndarray:
    """The panel edges on (0, max(top, points)), with an edge at each of ``points``.

    The panels from 0 double in width from min(5 (1 - e^-t), h) up to
    min(1, top), t the shortest semigroup time (inf: none) and h the
    smallest positive point: so the narrow transition density of a small t
    is resolved near 0, and so is y^alpha H, which a kernel step
    interpolates, on panels of ratio 2 above a small h.  At h >= 1 no panel
    is added at t >= 0.25, five at t = 0.01.  Gaps between consecutive edges
    wider than ``PANEL_WIDTH`` are split evenly.
    """
    points = np.asarray(points, dtype=float)
    positive = points[points > 0]
    first = min(1.0, top)
    head = min(-5.0 * np.expm1(-t), float(positive.min()))
    head = head * 2.0 ** np.arange(max(0, int(np.ceil(np.log2(first / head)))))
    knots = np.unique(np.concatenate([head, [first], positive, [top]]))
    edges = [np.zeros(1)]
    for a, b in zip(np.append(0.0, knots[:-1]), knots):
        edges.append(np.linspace(a, b, int(np.ceil((b - a) / PANEL_WIDTH)) + 1)[1:])
    return np.concatenate(edges)


def alpha_split(edges: np.ndarray, alpha: float) -> np.ndarray:
    """``edges`` with each panel (a, b) above the first split geometrically
    until alpha log(b / a) <= 8, alpha the largest kernel alpha (0: none).

    A kernel step interpolates y^alpha H there (:func:`_power_average`).
    Where y^alpha spans at most e^8, the ORDER-point interpolant of e^(8 s)
    on (0, 1) is off by 9e-14 of its largest value, 3e-10 of its smallest.
    (At y^36 on the panel (1, 2), a span of 7e10, intertwine was off by 1e-3.)
    At alpha <= 0 no panel is split, and ``edges`` is returned as it is.
    """
    if alpha <= 0:
        return edges
    lo, hi = edges[1:-1], edges[2:]
    pieces = np.maximum(1, np.ceil(alpha * np.log(hi / lo) / 8.0)).astype(int)
    panel = np.repeat(np.arange(lo.size), pieces)
    step = np.arange(panel.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    ratio = hi[panel] / lo[panel]
    return np.concatenate([[0.0], lo[panel] * ratio ** (step / pieces[panel]), edges[-1:]])


def line_grid(edges: np.ndarray) -> LineGrid:
    """The grid of ``ORDER`` Gauss-Legendre nodes on each panel between ``edges``."""
    u, w = unit_gauss_legendre(1, ORDER)
    width = np.diff(edges)[:, None]
    return LineGrid(edges, edges[:-1, None] + width * u, width * w)


@lru_cache(maxsize=None)
def _scaled_moments(order: int, q: float) -> np.ndarray:
    """R[j, l] = int_0^1 r^(q-1) L_l(v_j r) dr, shape (order + 1, order).

    v_j is Gauss-Legendre node j on (0, 1), and 1 in the last row; L_l is
    the Lagrange polynomial of node l.  Then int_0^{v_j} v^(q-1) P(v) dv is
    v_j^q sum_l R[j, l] P(v_l) for every polynomial P of degree < order,
    with no division by a small v_j^q.  The Gauss-Jacobi rule of weight
    r^(q-1) integrates these polynomials exactly.  The first panel's
    integrals against y^(q-1) are these with v = y / s.
    """
    x, w = leggauss(order)
    v = np.append(0.5 * (x + 1.0), 1.0)
    # Lagrange polynomials in the Legendre basis: the Legendre-Vandermonde
    # matrix at Gauss nodes is inverted by the discrete orthogonality
    vander = legvander(x, order - 1)
    coef = (np.arange(order) + 0.5)[:, None] * vander.T * w[None, :]
    xr, wr = gauss_jacobi(order, q - 1.0)
    r = 0.5 * (xr + 1.0)
    basis = legvander(2.0 * v[:, None] * r[None, :] - 1.0, order - 1) @ coef
    return np.einsum("r,jrl->jl", wr / 2.0, basis)


def _power_average(grid: LineGrid, values: np.ndarray, p: float):
    """A(y) = y^-(p+1) int_0^y u^p H(u) du from H at the nodes of the first P' panels.

    ``values`` has shape (..., P', ORDER).  Returns A at those nodes, same
    shape, and at the edges 0..P', shape (..., P' + 1).  A(0) is left 0: the
    corner step uses it only as 0 * A(0), and the anchor checks keep the
    alpha_square step away from a zero head.
    """
    n, count = ORDER, values.shape[-2]
    # first panel (0, s), y = s v: y^p dy = s^(p+1) v^p dv
    head = np.einsum("jl,...l->...j", _scaled_moments(n, p + 1.0), values[..., 0, :])
    at_nodes = np.empty_like(values)
    at_edges = np.zeros(values.shape[:-2] + (count + 1,))
    at_nodes[..., 0, :], at_edges[..., 1] = head[..., :n], head[..., n]
    if count > 1:
        edges, y = grid.edges[1 : count + 1], grid.nodes[1:count]
        lo, width = edges[:-1, None], np.diff(edges)[:, None]
        integrand = values[..., 1:, :] * y**p
        inner = np.einsum("jl,...l->...j", _scaled_moments(n, 1.0), integrand)
        start = edges[0] ** (p + 1.0) * head[..., n]
        cumulative = start[..., None] + np.cumsum(width[:, 0] * inner[..., n], axis=-1)
        left = np.concatenate([start[..., None], cumulative[..., :-1]], axis=-1)
        at_nodes[..., 1:, :] = (left[..., None] + (y - lo) * inner[..., :n]) / y ** (p + 1.0)
        at_edges[..., 2:] = cumulative / edges[1:] ** (p + 1.0)
    return at_nodes, at_edges


@dataclass(frozen=True)
class _Table:
    """scale * det[H_k(y_j)] / Delta(y) for B column sets at once."""

    nodes: np.ndarray  # (B, c, P', ORDER): H_k at the nodes of the first P' panels
    anchor: np.ndarray  # (B, c, d): H_k at the anchor coordinates
    unit: np.ndarray  # (B,): the constant column a corner step appends
    scale: float


def _kernel_step(spec: KernelSpec, table: _Table, grid: LineGrid, edge_index: np.ndarray) -> _Table:
    """The table of (kernel F): the alpha_square step where the kind takes
    alpha, then the corner step where it drops a coordinate."""
    c = table.nodes.shape[1]
    nodes, scale = table.nodes, table.scale
    if spec.row.takes_alpha:
        nodes, edge_values = _power_average(grid, nodes, spec.alpha)
        scale *= pochhammer(spec.alpha + 1.0, c)
    if spec.row.dim_drop:
        count = nodes.shape[-2]
        nodes, edge_values = _power_average(grid, nodes, 0.0)
        nodes = nodes * grid.nodes[:count]
        edge_values = edge_values * grid.edges[: count + 1]
        ones = np.broadcast_to(table.unit[:, None, None, None], nodes[:, :1].shape)
        nodes = np.concatenate([nodes, ones], axis=1)
        unit_column = np.broadcast_to(table.unit[:, None, None], (len(table.unit), 1, edge_index.size))
        anchor = np.concatenate([edge_values[..., edge_index], unit_column], axis=1)
        return _Table(nodes, anchor, table.unit, scale * (-1) ** c * factorial(c))
    return _Table(nodes, edge_values[..., edge_index], table.unit, scale)


def _tail_span(mode, skew: float):
    """(lo, hi) around ``mode`` outside which a Poisson (``skew`` 1/3) or Gamma (``skew`` 1)
    log density has fallen more than TAIL_EXPONENT below its peak.

    The Poisson weight of k at mean m falls by about m h(k / m),
    h(u) = u log u - u + 1; the Gamma density of shape m + 1 at u falls by
    m g(u / m), g(v) = v - 1 - log v.  Both falls are at least
    d^2 / (2 m) at d = k - m (or u - m) < 0, and d^2 / (2 (m + skew d)) at
    d > 0 (Bernstein's bound for h; g(v) >= (v - 1)^2 / (2 v) for v >= 1).
    """
    tail = TAIL_EXPONENT
    reach = skew * tail
    return mode - np.sqrt(2.0 * tail * mode), mode + reach + np.sqrt(reach * reach + 2.0 * tail * mode)


@lru_cache(maxsize=64)
def _log_gamma(shift: float, size: int) -> np.ndarray:
    """lgamma(shift + k) for k = 0 .. size - 1 (read-only)."""
    out = np.array([lgamma(shift + k) for k in range(size)])
    out.flags.writeable = False
    return out


def _floored_exp(exponent: np.ndarray) -> np.ndarray:
    """exp(exponent) in place, with the exponent raised to -4 TAIL_EXPONENT.

    Each Poisson weight and Gamma density of the semigroup step peaks above
    e^-12 (for means below 1e9), so a raised entry lies more than
    3 TAIL_EXPONENT below its peak, far under the e^-TAIL_EXPONENT cut of
    the blocks.  Left alone it could be subnormal, and subnormal numbers
    make exp and the products a hundred times slower on x86.
    """
    return np.exp(np.maximum(exponent, -4.0 * TAIL_EXPONENT, out=exponent), out=exponent)


def _semigroup_step(steps: Sequence[tuple[SemigroupParams, _Table]], grid: LineGrid, x: np.ndarray,
                    count: int) -> list[_Table]:
    """Per (semigroup, table of F) of ``steps``, all at one t > 0: the table of
    (T_t F) at the nodes of the first ``count`` panels and at x.

    The transition density is the Poisson-Gamma mixture of the noncentral
    chi-square law, w = 1 - e^-t:

        p_t(x, y) = sum_k Pois(k; x e^-t / w) Gamma(y; shape k + alpha + 1, scale w),

    so (P_t H)(x) = sum_k Pois(k; x e^-t / w) m_k with the Gamma moments
    m_k = int Gamma_k H, taken on the grid.  On the first panel (0, s),
    Gamma_k(y) / y^alpha takes the product weights s^(alpha+1) int_0^1 v^alpha L_l(v) dv.
    Both factors are formed in log space with lgamma, each exponent as one
    rank-3 matrix product; no Bessel function is evaluated.  The k run in
    blocks of ``K_BLOCK``, and each block touches only the targets whose
    Poisson weights, and the nodes whose Gamma densities, reach it above
    e^-TAIL_EXPONENT of their peak (:func:`_tail_span`): at t = 0.01 and
    N = 8 the Poisson means reach 4000, and each target and node needs
    only about 18 sqrt(mean) of the k.  At t >= 0.25 and the default
    anchors one or two blocks hold every k.

    The steps share everything of the mixture that does not depend on
    alpha: the targets, their Poisson rates, the k-blocks and each block's
    Poisson weights are formed once, the Gamma densities once per alpha, and
    the products per table, each exactly as for that table alone.  (One
    product over the stacked tables of an alpha would move the last bits of
    the values from N = 4 on.)
    ``tests/oracles.py`` keeps the pointwise table of p_t as this step's oracle.
    """
    t = steps[0][0].t
    w = -np.expm1(-t)
    targets = np.concatenate([grid.nodes[:count].ravel(), x])
    rate = targets * (np.exp(-t) / w)
    rate_lo, rate_hi = _tail_span(rate, 1.0 / 3.0)
    k_start = max(0, int(np.floor(rate_lo.min())))
    k_end = int(np.ceil(rate_hi.max())) + 1
    size = -(-k_end // K_BLOCK) * K_BLOCK  # a few table sizes, so that the cache is reused
    k = np.arange(k_start, k_end, dtype=float)
    ones = np.ones(k.size)
    # each exponent is a product of (target or node) terms and k terms:
    # log Pois(k; r) = k log r - r - lgamma(k + 1), and
    # log Gamma_k(y) = k log y + alpha log y - y / w - log_gamma[k], on the first
    # panel the same over y^alpha times s^(alpha+1)
    poisson_k = np.stack([k, ones, -_log_gamma(1.0, size)[k_start:k_end]])
    poisson_rows = np.column_stack([np.log(rate), -rate, np.ones(rate.size)])
    y = grid.nodes.ravel()
    scaled = y / w  # Gamma_k peaks near y / w = k + alpha
    # per block [k0, k1): the targets whose Poisson weights reach it, and (per
    # alpha below) the nodes where one of its Gamma_k is above e^-TAIL_EXPONENT
    # of its peak, at y / w = k + alpha (the lower end is lowest at the mode
    # TAIL_EXPONENT / 2)
    k0 = np.arange(k_start, k_end, K_BLOCK)
    k1 = np.minimum(k0 + K_BLOCK, k_end)
    reach = (rate_lo[None, :] < k1[:, None]) & (rate_hi[None, :] >= k0[:, None])

    by_alpha = {}
    for s, (params, _) in enumerate(steps):
        by_alpha.setdefault(params.alpha, []).append(s)
    gammas = []  # per alpha: node terms, k terms, first and end node per block, [(step, weighted table)]
    for alpha, members in by_alpha.items():
        log_gamma = _log_gamma(alpha + 1.0, size)[k_start:k_end] + (k + alpha + 1.0) * np.log(w)
        offset = alpha * np.log(y) - scaled
        offset[:ORDER] = (alpha + 1.0) * np.log(grid.edges[1]) - scaled[:ORDER]
        node_lo = np.searchsorted(scaled, _tail_span(np.maximum(k0 + alpha, TAIL_EXPONENT / 2.0), 1.0)[0])
        node_hi = np.searchsorted(scaled, _tail_span(np.maximum(k1 - 1 + alpha, 0.0), 1.0)[1])
        weights = np.concatenate([_scaled_moments(ORDER, alpha + 1.0)[-1], grid.weights[1:].ravel()])
        weighted = [(s, steps[s][1].nodes.reshape(-1, weights.size) * weights) for s in members]
        gammas.append((np.column_stack([np.log(y), offset, np.ones(y.size)]),
                       np.stack([k, ones, -log_gamma]), node_lo, node_hi, weighted))
    outs = [np.zeros((b * c, targets.size)) for b, c in (table.nodes.shape[:2] for _, table in steps)]

    for i in range(k0.size):
        rows = np.flatnonzero(reach[i])
        if rows.size == 0:
            continue
        block = slice(k0[i] - k_start, k1[i] - k_start)
        poisson = None
        for gamma_rows, gamma_k, node_lo, node_hi, weighted in gammas:
            j0, j1 = node_lo[i], node_hi[i]
            if j0 == j1:
                continue
            if poisson is None:
                poisson = _floored_exp(poisson_rows[rows] @ poisson_k[:, block])
            gamma = _floored_exp(gamma_rows[j0:j1] @ gamma_k[:, block])
            # the moments first: forming the density at the nodes first costs less for
            # a few targets, but from N = 4 on it leaves the two sides of an identity
            # three to five times further apart
            for s, table in weighted:
                outs[s][:, rows] += (table[:, j0:j1] @ gamma) @ poisson.T

    split = count * ORDER
    tables = []
    for (_, table), out in zip(steps, outs):
        b, c = table.nodes.shape[:2]
        scale = table.scale * np.exp(-lambda_eigen(c) * t)
        tables.append(_Table(out[:, :split].reshape(b, c, count, ORDER), out[:, split:].reshape(b, c, -1),
                             table.unit, scale))
    return tables


def _product_table(functions, grid: LineGrid, x: np.ndarray, c: int, count: int):
    """Column sets of the test functions at the nodes of ``count`` panels and at x.

    Returns the table and, per function, (base set, derivative set or None).
    """
    points = np.concatenate([grid.nodes[:count].ravel(), x])
    powers = points[None, :] ** np.arange(c)[:, None]
    sets, units, index = [], [], []
    for fn in functions:
        g = fn.g(points)
        index.append((len(sets), None if fn.a is None else len(sets) + 1))
        sets.append(powers * g)
        units.append(1.0)
        if fn.a is not None:
            sets.append(powers * (fn.a(points) * g))
            units.append(0.0)  # the derivative of a constant column
    values = np.stack(sets)
    split = count * ORDER
    nodes = values[..., :split].reshape(len(sets), c, count, ORDER)
    return _Table(nodes, values[..., split:], np.array(units), 1.0), index


def _equilibrated_cond(matrices: np.ndarray) -> np.ndarray:
    """Condition numbers of a stack of matrices, each scaled to unit row and then
    column maxima; inf for a matrix with a zero row or column."""
    full = np.ones(len(matrices), dtype=bool)
    for axis in (2, 1):
        scale = np.max(np.abs(matrices), axis=axis, keepdims=True)
        full &= np.all(scale > 0, axis=(1, 2))
        matrices = matrices / np.where(scale > 0, scale, 1.0)
    cond = np.full(len(matrices), np.inf)
    if np.any(full):
        cond[full] = np.linalg.cond(matrices[full])
    return cond


def _checked_chain(operators, x, checked: dict):
    """(the operators that act, x checked for the outermost, coordinates of f).

    A semigroup at t = 0 is the identity: it is checked here, and then left out.
    ``checked`` holds x as checked per outermost check (a kernel kind, or
    whether a semigroup acts), so that chains sharing one check it once.
    """
    operators = tuple(operators)
    for op in operators:
        if not isinstance(op, (KernelSpec, SemigroupParams)):
            raise TypeError(f"not a kernel or semigroup: {op!r}")
    acting = tuple(op for op in operators if not (isinstance(op, SemigroupParams) and op.t == 0))
    outer = acting[0].kind if acting and isinstance(acting[0], KernelSpec) else bool(acting)
    if outer not in checked:
        if isinstance(outer, str):
            checked[outer] = interior_anchor(acting[0], x)
        else:
            checked[outer] = checked_chamber(x, nonneg=True, strict=outer)
    x = checked[outer]
    c = x.size  # coordinates of the function each operator acts on, from the outside in
    for op in operators:
        if isinstance(op, KernelSpec):
            c -= op.row.dim_drop
        elif op.n_dim != c:
            raise ValueError(f"a {op.n_dim}-particle semigroup acts on a function of {c} coordinates")
    if c < 1:
        raise ValueError(f"an anchor of {x.size} coordinates leaves no coordinate after the kernels")
    return acting, x, c


def _grid_key(operators, x: np.ndarray) -> tuple[float, float, float]:
    """The (top, shortest semigroup time, largest kernel alpha) of a chain's grid."""
    moving = [op for op in operators if isinstance(op, SemigroupParams)]
    top = max([semigroup_top(op, float(x[-1])) for op in moving] + [x[-1]])
    kernel_alphas = [op.alpha for op in operators if isinstance(op, KernelSpec) and op.row.takes_alpha]
    return top, min([op.t for op in moving], default=np.inf), max(kernel_alphas, default=0.0)


def _panel_needs(operators, panels: int, inner: int) -> list[int]:
    """Per operator, the panels its output must cover for the operators
    outside it; last, the panels of the product table."""
    need, needs = 0, []
    for op in operators:
        needs.append(need)
        need = panels if isinstance(op, SemigroupParams) else max(need, inner)
    return needs + [need]


def evaluate_chains(chains: Sequence[Sequence[KernelSpec | SemigroupParams]], x,
                    functions: Sequence[ProductFunction]) -> np.ndarray:
    """(O_1 O_2 ... O_m f)(x) for each chain of operators and each product
    test function f: a (C, F) array whose row i is ``evaluate(chains[i], x,
    functions)``, bit for bit.

    The chains must act on functions of the same number of coordinates
    (``ValueError`` otherwise, and for an empty list).  The call does once
    what its chains share: the anchor check per outermost check; the panel
    edges per (top, shortest time), their alpha split per (top, time,
    largest kernel alpha) and the grid per distinct edge set; one product
    table per grid, sliced to the panels each chain needs; each distinct
    step (operator, input table, panel count); and, per depth from the
    inside and per (time, targets), the semigroup set-up, whose Gamma half
    is formed per alpha and whose final products stay per table.  One
    product over stacked tables would move the values' last bits, and the
    values must not depend on the call.  The anchor matrices of all chains
    are equilibrated, conditioned, factored and solved as one stacked
    array.  A chain that :func:`evaluate` refuses on its own refuses the
    whole call, with the error of the first such chain.
    """
    checked_x = {}
    checked = [_checked_chain(ops, x, checked_x) for ops in chains]
    if not checked:
        raise ValueError("no chain to evaluate")
    counts = sorted({c for _, _, c in checked})
    if len(counts) > 1:
        raise ValueError(f"the chains act on functions of {counts} coordinates")
    c = counts[0]
    out = np.empty((len(checked), len(functions)))
    rows = []  # the chains with an operator that acts
    for i, (acting, x, _) in enumerate(checked):  # x as checked: equal for every chain
        if acting:
            rows.append(i)
        else:
            out[i] = [fn(x[None, :])[0] for fn in functions]
    if not rows:
        return out

    # the panel edges once per (top, shortest time), split once per (top, time,
    # kernel alpha), and one grid per distinct edge set
    bases, splits, groups = {}, {}, {}
    for i in rows:
        top, t, alpha = key = _grid_key(checked[i][0], x)
        if key not in splits:
            if (top, t) not in bases:
                bases[top, t] = panel_edges(x, top, t)
            splits[key] = alpha_split(bases[top, t], alpha)
        edges = splits[key].tobytes()
        if edges not in groups:
            groups[edges] = (line_grid(splits[key]), [])
        groups[edges][1].append(i)
    results = {}
    for grid, members in groups.values():
        edge_index = np.searchsorted(grid.edges, x)
        inner = edge_index[-1]  # the panels below the top anchor coordinate
        needs = {i: _panel_needs(checked[i][0], len(grid.nodes), inner) for i in members}
        shared, index = _product_table(functions, grid, x, c, max(needs[i][-1] for i in members))
        # a table is named by the panels of the product table it starts from and the
        # steps that made it, from the inside out; a step is its operator, and for
        # a semigroup its panel count and whether x is among its targets
        tables, names = {}, {}
        for i in members:
            names[i] = (needs[i][-1],)
            tables[names[i]] = _Table(shared.nodes[:, :, : needs[i][-1]], shared.anchor, shared.unit, shared.scale)
        # the steps run from the inside out, one depth at a time, each distinct step
        # once; the semigroup steps of one depth that share their time and targets
        # share one call
        for depth in range(1, max(len(checked[i][0]) for i in members) + 1):
            kernel_steps, semigroup_steps = {}, {}
            for i in members:
                operators = checked[i][0]
                j = len(operators) - depth
                if j < 0:
                    continue
                op = operators[j]
                if isinstance(op, KernelSpec):
                    names[i] += (op,)
                    kernel_steps[names[i]] = op
                else:  # only the outermost operator's values at x are read
                    names[i] += ((op, needs[i][j], j == 0),)
                    semigroup_steps.setdefault((op.t, needs[i][j], j == 0), {})[names[i]] = op
            # a power of y beyond the float range (alpha in the hundreds) is refused below
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for name, op in kernel_steps.items():
                    tables[name] = _kernel_step(op, tables[name[:-1]], grid, edge_index)
                for (_, count, outermost), steps in semigroup_steps.items():
                    made = _semigroup_step([(op, tables[name[:-1]]) for name, op in steps.items()],
                                           grid, x if outermost else x[:0], count)
                    tables.update(zip(steps, made))
        results.update((i, tables[names[i]]) for i in members)

    matrices = np.swapaxes(np.stack([results[i].anchor for i in rows]), -1, -2)  # (C', B, d, d)
    finite = np.all(np.isfinite(matrices), axis=(1, 2, 3))
    base = matrices[:, [b for b, _ in index]]
    cond = np.full(base.shape[:2], np.inf)
    if np.any(finite):
        cond[finite] = _equilibrated_cond(base[finite].reshape(-1, x.size, x.size)).reshape(-1, len(index))
    for ok, chain_cond in zip(finite, cond):
        if not ok:
            raise ValueError(f"anchor matrix is not finite at x = {x}")
        bad = np.flatnonzero(~(chain_cond <= COND_LIMIT))
        if bad.size:
            raise ValueError(f"anchor matrix condition number {chain_cond[bad[0]]:.3g} exceeds "
                             f"{COND_LIMIT:.0e} at x = {x}")
    det = np.linalg.det(base)
    paired = [f for f, (_, d) in enumerate(index) if d is not None]
    if paired:
        derivative = matrices[:, [index[f][1] for f in paired]]
        det[:, paired] *= np.trace(np.linalg.solve(base[:, paired], derivative), axis1=-2, axis2=-1)
    out[rows] = np.array([results[i].scale for i in rows])[:, None] / vandermonde(x) * det
    return out


def evaluate(operators: Sequence[KernelSpec | SemigroupParams], x,
             functions: Sequence[ProductFunction]) -> np.ndarray:
    """(O_1 O_2 ... O_m f)(x) for each product test function f: an (F,) array.

    ``operators`` are written in operator-product order, so the last one
    acts on f first: ``(SemigroupParams(...), KernelSpec(...))`` is P_t K f.
    Kernels are any kind of ``kernels.KERNELS``; each semigroup's dimension
    must be that of the function it acts on.  x must be a strictly interior
    anchor of the outermost operator (:class:`DegenerateAnchorError`
    otherwise; a semigroup at t = 0 is the identity and leaves the check to
    the next operator; a chain of those alone, the empty chain among them,
    returns f(x) at any point of the closed non-negative chamber).
    ``ValueError`` is raised when the anchor matrix is too ill-conditioned
    for its determinant to be trusted (``COND_LIMIT``).  The one-chain case
    of :func:`evaluate_chains`.
    """
    return evaluate_chains([operators], x, functions)[0]
