"""Random-matrix layer.

Complex Ginibre and Haar-unitary sampling, corner truncations, radial parts
(squared singular values), and the matrix models whose radial laws realize
the interlacing kernels: Wishart/Laguerre ensembles, the bidiagonal model
for real parameter, and truncated-Haar constructions.

Most samplers take an optional ``size`` and then return a stacked array of
draws; linear algebra is batched through numpy's stacked qr/eigh.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .kernels import vandermonde
from .numerics import RngStream

_EIG_CLAMP = 1e-12


def sample_ginibre(m: int, n: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix: iid entries, Re and Im each N(0, 1/2).

    The normalization makes E|g|^2 = 1, so radial parts of an
    (N+alpha) x N draw follow the Laguerre ensemble weight x^alpha e^-x
    with no extra scale.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be >= 1")
    shape = (m, n) if size is None else (size, m, n)
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
    if alpha_int < 0 or int(alpha_int) != alpha_int:
        raise ValueError("alpha must be a non-negative integer")
    return radial_part(sample_ginibre(n_dim + int(alpha_int), n_dim, rng, size=size))


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
    if not alpha > -1:
        raise ValueError("sample_laguerre_ensemble requires alpha > -1")
    squeeze = size is None
    b = 1 if size is None else size
    n = n_dim
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
    return vals[0] if squeeze else vals


def laguerre_ensemble_log_norm(n_dim: int, alpha: float) -> float:
    """log of the unordered normalization: prod_{j=1}^N Gamma(j+1) Gamma(alpha+j)."""
    j = np.arange(1, n_dim + 1, dtype=float)
    return float(np.sum(gammaln(j + 1.0) + gammaln(alpha + j)))


def laguerre_ensemble_density(n_dim: int, alpha: float, x: np.ndarray):
    """Ensemble density on the ordered chamber (integrates to 1 there)."""
    x = np.asarray(x, dtype=float)
    log_norm = laguerre_ensemble_log_norm(n_dim, alpha) - gammaln(n_dim + 1.0)
    log_w = np.sum(alpha * np.log(x) - x, axis=-1)
    out = vandermonde(x) ** 2 * np.exp(log_w - log_norm)
    return float(out) if np.ndim(out) == 0 else out


def sample_invariant_rectangular(
    x: np.ndarray, alpha_int: int, rng: RngStream, size: int | None = None
) -> np.ndarray:
    """Bi-unitarily invariant matrix V D U with prescribed radial part.

    D is diag(sqrt(x)) padded with alpha zero rows to (N+alpha+1) x (N+1);
    V and U are independent Haar unitaries of matching orders.  ``x`` is one
    radial part (N+1,), shared by ``size`` draws, or anchor rows
    (rows, N+1), one draw per row (``size`` then defaults to the row count).
    """
    if alpha_int < 0 or int(alpha_int) != alpha_int:
        raise ValueError("alpha must be a non-negative integer")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("radial parts must be finite, non-negative rows")
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


def sample_corner_alpha_matrix(
    alpha_int: int, z: np.ndarray, rng: RngStream, size: int | None = None
) -> np.ndarray:
    """Matrix model for the inner interlacing kernel at integer alpha.

    Draws a Haar unitary of order N+alpha+1, truncates it to (N+alpha) x N,
    right-multiplies by diag(sqrt(z)) and returns the radial part.  The
    output interlaces below z on every draw.
    """
    if alpha_int < 0 or int(alpha_int) != alpha_int:
        raise ValueError("alpha must be a non-negative integer")
    z = np.asarray(z, dtype=float)
    n = z.shape[-1]
    v = sample_haar_unitary(n + int(alpha_int) + 1, rng, size=size)
    t = truncate(v, n + int(alpha_int), n)
    return radial_part(t * np.sqrt(z)[..., None, :])
