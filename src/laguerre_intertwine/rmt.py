"""Random-matrix layer.

Complex Ginibre and Haar-unitary sampling, corner truncations, radial parts
(squared singular values), the Wishart/Laguerre ensembles (the bidiagonal
model for real parameter), and the bi-unitarily invariant matrix with a
prescribed radial part, whose truncation realizes the alpha corner kernel
at integer alpha (the ``truncation`` experiment).  The matrix model of the
alpha_square kernel and the ensemble's density are test oracles
(``tests/oracles.py``).

Most samplers take an optional ``size`` and then return a stacked array of
draws; linear algebra is batched through numpy's stacked qr/eigh.
"""

from __future__ import annotations

import numpy as np

from .diffusion import checked_args
from .numerics import RngStream, checked_alpha, checked_alpha_int, checked_size

_EIG_CLAMP = 1e-12


def sample_ginibre(m: int, n: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix: iid entries, Re and Im each N(0, 1/2).

    The normalization makes E|g|^2 = 1, so radial parts of an
    (N+alpha) x N draw follow the Laguerre ensemble weight x^alpha e^-x
    with no extra scale.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be >= 1")
    shape = (m, n) if size is None else (checked_size(size), m, n)
    g = rng.gen.standard_normal(shape) + 1j * rng.gen.standard_normal(shape)
    return g / np.sqrt(2.0)


def sample_haar_unitary(n: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitary of order n.

    QR-decomposes a Ginibre matrix and rescales each column of Q by the
    phase of the matching diagonal entry of R, which makes the law exactly
    Haar rather than merely unitary.
    """
    g = sample_ginibre(n, n, rng, size=size)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = d / np.abs(d)
    return q * phases[..., None, :]


def truncate(x: np.ndarray, m2: int, n2: int) -> np.ndarray:
    """Upper-left m2 x n2 corner of a matrix (or stack of matrices)."""
    m, n = x.shape[-2], x.shape[-1]
    if m2 > m or n2 > n or m2 < 1 or n2 < 1:
        raise ValueError(f"cannot truncate {m}x{n} to {m2}x{n2}")
    return x[..., :m2, :n2]


def radial_part(x: np.ndarray) -> np.ndarray:
    """Ordered squared singular values, i.e. ascending eigenvalues of X*X.

    The Gram matrix is hermitized before solving; eigenvalues below
    1e-12 * ||X*X|| are clamped to zero (truncated unitary products produce
    tiny negative round-off eigenvalues).
    """
    x = np.asarray(x)
    h = np.swapaxes(x, -2, -1).conj() @ x
    h = 0.5 * (h + np.swapaxes(h, -2, -1).conj())
    vals = np.linalg.eigvalsh(h)
    scale = np.linalg.norm(h, axis=(-2, -1), keepdims=False)
    tol = _EIG_CLAMP * np.maximum(scale, 1.0)[..., None]
    return np.where(np.abs(vals) < tol, 0.0, vals)


def sample_wishart_radial(
    n_dim: int, alpha_int: int, rng: RngStream, size: int | None = None
) -> np.ndarray:
    """Radial part of an (N+alpha) x N complex Gaussian matrix (integer alpha)."""
    return radial_part(sample_ginibre(n_dim + checked_alpha_int(alpha_int), n_dim, rng, size=size))


def sample_laguerre_ensemble(
    n_dim: int, alpha: float, rng: RngStream, size: int | None = None
) -> np.ndarray:
    """Draw from the Laguerre ensemble density ~ Vandermonde^2 prod x^alpha e^-x.

    Uses the bidiagonal chi model at inverse temperature 2: B is lower
    bidiagonal with diagonal entries chi with dof 2(alpha + N - i + 1)
    (i = 1..N) and subdiagonal chi with dof 2(N - i); the draw is the
    ascending spectrum of (1/2) B B^T.  Valid for any real alpha > -1 and
    cross-validated against the Wishart construction at integer alpha.  The
    spectrum is non-negative; round-off below 0 in the smallest eigenvalue
    (about 1.5% of draws at alpha = -0.9, N = 3) is returned as 0.
    """
    checked_alpha(alpha)
    if n_dim < 1:
        raise ValueError(f"N must be >= 1, got {n_dim}")
    b, n = checked_size(size), n_dim
    diag_dof = 2.0 * (alpha + n - np.arange(n))
    sub_dof = 2.0 * (n - 1 - np.arange(n - 1)) if n > 1 else np.empty(0)
    mat = np.zeros((b, n, n))
    idx = np.arange(n)
    mat[:, idx, idx] = np.sqrt(rng.gen.chisquare(diag_dof, size=(b, n)))
    if n > 1:
        jdx = np.arange(n - 1)
        mat[:, jdx + 1, jdx] = np.sqrt(rng.gen.chisquare(sub_dof, size=(b, n - 1)))
    w = 0.5 * mat @ np.swapaxes(mat, -2, -1)
    vals = np.maximum(np.linalg.eigvalsh(w), 0.0)
    return vals[0] if size is None else vals


def sample_invariant_rectangular(
    x: np.ndarray, alpha_int: int, rng: RngStream, size: int | None = None
) -> np.ndarray:
    """Bi-unitarily invariant matrix V D U with prescribed radial part.

    D is diag(sqrt(x)) padded with alpha zero rows to (N+alpha+1) x (N+1);
    V and U are independent Haar unitaries of matching orders.  ``x`` is one
    radial part (N+1,), shared by ``size`` draws, or anchor rows
    (rows, N+1), one draw per row (``size`` then defaults to the row count).
    """
    x, _ = checked_args(checked_alpha_int(alpha_int), None, x, zero_x=True)
    if x.ndim not in (1, 2):
        raise ValueError("radial parts must be one row or a stack of rows")
    if x.ndim == 2 and size is None:
        size = x.shape[0]
    n1 = x.shape[-1]  # N + 1
    m1 = n1 + int(alpha_int)
    d = np.zeros(x.shape[:-1] + (m1, n1))
    idx = np.arange(n1)
    d[..., idx, idx] = np.sqrt(x)
    v = sample_haar_unitary(m1, rng, size=size)
    u = sample_haar_unitary(n1, rng, size=size)
    return v @ d @ u
