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

The mesh appliers :func:`kernels.apply_kernel_to_anchors` and
:func:`process.semigroup_apply_rows` compute the same quantities for any
test function, at a cost that grows as K^N; they are this module's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, log, sqrt
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from . import diffusion
from .kernels import KernelSpec, checked_chamber, interior_anchor, vandermonde
from .numerics import gauss_jacobi, pochhammer, unit_gauss_legendre
from .process import SemigroupParams, lambda_eigen

# Gauss-Legendre nodes per panel, and the widest panel above the first.
# With these the operators match a fine mesh to 1e-14 at N <= 3, and the two
# sides of each identity agree to 2e-13 (N <= 2), 1e-10 (N = 6) and 1.4e-9
# (N = 8) at the default anchors.
ORDER = 20
PANEL_WIDTH = 2.0

# The semigroup integrals are cut where the transition density from the
# top anchor coordinate has fallen below e^-TAIL_EXPONENT of its peak.
TAIL_EXPONENT = 40.0

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


def semigroup_top(params: SemigroupParams, x_top: float) -> float:
    """Where the semigroup integrals over y end, for anchors up to ``x_top``.

    The transition density p_t(x, y) falls off as
    exp(-(sqrt(y) - sqrt(x e^-t))^2 / (1 - e^-t)) times powers of y, so it
    is below e^-TAIL_EXPONENT of its peak beyond
    y = (sqrt(x e^-t) + sqrt(TAIL_EXPONENT (1 - e^-t)))^2.  (The 12 sigma
    cut of :func:`process.semigroup_ymax` leaves about 3e-7 of the mass at
    x = (1, 2), t = 1: the tail is exponential, not Gaussian.)  For alpha > 0
    the powers of y carry mass beyond that cut: from x = 0 the density is
    y^alpha e^(-y/w) up to a factor, w = 1 - e^-t, which falls to
    e^-TAIL_EXPONENT of its peak at y = w q, q > alpha the root of
    q - alpha - alpha log(q / alpha) = TAIL_EXPONENT; the top is the larger
    of the two cuts.
    """
    w = -np.expm1(-params.t)
    top = float((np.sqrt(x_top * np.exp(-params.t)) + np.sqrt(TAIL_EXPONENT * w)) ** 2)
    alpha = params.alpha
    if alpha > 0:
        # Newton on the convex, increasing left side from a start where it is
        # positive: the iterates fall to the root, within rounding in six steps
        # for alpha up to 1e3
        q = alpha + TAIL_EXPONENT + sqrt(TAIL_EXPONENT * (TAIL_EXPONENT + 2.0 * alpha))
        for _ in range(6):
            q -= (q - alpha - alpha * log(q / alpha) - TAIL_EXPONENT) / (1.0 - alpha / q)
        top = max(top, w * q)
    return top


def line_grid(points, top: float, t: float) -> LineGrid:
    """The grid on (0, max(top, points)) with an edge at each of ``points``.

    The panels from 0 double in width from 5 (1 - e^-t) up to min(1, the
    smallest positive point), t the shortest semigroup time (inf: none), so
    that the narrow transition density of a small t is resolved near 0: no
    panel is added at t >= 0.25, five at t = 0.01 when that point is >= 1.
    Gaps between consecutive edges wider than ``PANEL_WIDTH`` are split evenly.
    """
    points = np.asarray(points, dtype=float)
    positive = points[points > 0]
    first = min(1.0, float(positive.min()))
    head = -5.0 * np.expm1(-t)
    head = head * 2.0 ** np.arange(max(0, int(np.ceil(np.log2(first / head)))))
    knots = np.unique(np.concatenate([head, [first], positive, [top]]))
    edges = [np.zeros(1)]
    for a, b in zip(np.append(0.0, knots[:-1]), knots):
        edges.append(np.linspace(a, b, int(np.ceil((b - a) / PANEL_WIDTH)) + 1)[1:])
    edges = np.concatenate(edges)
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


def _semigroup_step(params: SemigroupParams, table: _Table, grid: LineGrid, x: np.ndarray,
                    count: int) -> _Table:
    """The table of (T_t F), t > 0, at the nodes of the first ``count`` panels and at x.

    On the first panel (0, s), p_t(x, y) / y^alpha takes the product weights
    s^(alpha+1) int_0^1 v^alpha L_l(v) dv; their product is formed in log space.
    """
    alpha = params.alpha
    targets = np.concatenate([grid.nodes[:count].ravel(), x])[:, None]
    s, y = grid.edges[1], grid.nodes[0]
    log_p = diffusion.log_density_indexed(alpha, alpha, params.t, targets, grid.nodes.ravel()[None, :])
    log_p[:, :ORDER] += alpha * np.log(s / y) + np.log(s)
    weights = np.concatenate([_scaled_moments(ORDER, alpha + 1.0)[-1], grid.weights[1:].ravel()])
    kernel = np.exp(log_p) * weights
    b, c = table.nodes.shape[:2]
    out = np.einsum("bck,pk->bcp", table.nodes.reshape(b, c, -1), kernel)
    nodes = out[..., : count * ORDER].reshape(b, c, count, ORDER)
    scale = table.scale * np.exp(-lambda_eigen(c) * params.t)
    return _Table(nodes, out[..., count * ORDER :], table.unit, scale)


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


def _equilibrated_cond(matrix: np.ndarray) -> float:
    for axis in (1, 0):
        scale = np.max(np.abs(matrix), axis=axis, keepdims=True)
        if not np.all(scale > 0):
            return np.inf  # a zero row or column
        matrix = matrix / scale
    return float(np.linalg.cond(matrix))


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
    for its determinant to be trusted (``COND_LIMIT``).
    """
    operators = tuple(operators)
    for op in operators:
        if not isinstance(op, (KernelSpec, SemigroupParams)):
            raise TypeError(f"not a kernel or semigroup: {op!r}")
    # a semigroup at t = 0 is the identity: it is checked below, and then left out
    acting = [op for op in operators if not (isinstance(op, SemigroupParams) and op.t == 0)]
    if acting and isinstance(acting[0], KernelSpec):
        x = interior_anchor(acting[0], x)
    else:
        x = checked_chamber(x, nonneg=True, strict=bool(acting))
    c = x.size  # coordinates of the function each operator acts on, from the outside in
    for op in operators:
        if isinstance(op, KernelSpec):
            c -= op.row.dim_drop
        elif op.n_dim != c:
            raise ValueError(f"a {op.n_dim}-particle semigroup acts on a function of {c} coordinates")
    if c < 1:
        raise ValueError(f"an anchor of {x.size} coordinates leaves no coordinate after the kernels")
    if not acting:
        return np.array([fn(x[None, :])[0] for fn in functions], dtype=float)
    operators = acting

    moving = [op for op in operators if isinstance(op, SemigroupParams)]
    top = max([semigroup_top(op, float(x[-1])) for op in moving] + [x[-1]])
    grid = line_grid(x, top, min([op.t for op in moving], default=np.inf))
    edge_index = np.searchsorted(grid.edges, x)
    inner = edge_index[-1]  # the panels below the top anchor coordinate

    # panels each operator's output must cover for the operators outside it
    need, needs = 0, []
    for op in operators:
        needs.append(need)
        if isinstance(op, SemigroupParams):
            need = len(grid.nodes)
        else:
            need = max(need, inner)

    table, index = _product_table(functions, grid, x, c, need)
    # a power of y beyond the float range (alpha in the hundreds) is refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, op in reversed(list(enumerate(operators))):
            if isinstance(op, KernelSpec):
                table = _kernel_step(op, table, grid, edge_index)
            else:  # only the outermost operator's values at x are read
                table = _semigroup_step(op, table, grid, x if i == 0 else x[:0], needs[i])

    matrices = np.swapaxes(table.anchor, 1, 2)
    if not np.all(np.isfinite(matrices)):
        raise ValueError(f"anchor matrix is not finite at x = {x}")
    pref = table.scale / vandermonde(x)
    out = np.empty(len(index))
    for i, (base, derivative) in enumerate(index):
        m = matrices[base]
        cond = _equilibrated_cond(m)
        if not cond <= COND_LIMIT:
            raise ValueError(f"anchor matrix condition number {cond:.3g} exceeds {COND_LIMIT:.0e} "
                             f"at x = {x}")
        det = np.linalg.det(m)
        if derivative is not None:
            det *= np.trace(np.linalg.solve(m, matrices[derivative]))
        out[i] = pref * det
    return out
