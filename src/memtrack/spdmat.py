"""Dense small-matrix utilities for symmetric positive (semi)definite matrices.

Everything here operates on plain float64 numpy arrays at desk scale
(dims <= 8); there are no sparse or blocked paths.  The samplers take an
explicit ``numpy.random.Generator`` so callers own RNG isolation.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDof, NonFinite, NotPositiveDefinite

__all__ = [
    "cholesky",
    "sym_sqrt",
    "solve_spd",
    "inverse_spd",
    "sample_wishart",
    "sample_inverse_wishart",
]


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == a.

    Raises NotPositiveDefinite when a pivot is non-positive, which signals
    a degenerate belief upstream rather than a recoverable condition.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFinite("cholesky input contains non-finite entries")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Small negative eigenvalues from roundoff are clamped to zero before the
    square root so PSD inputs near the boundary stay valid.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFinite("sym_sqrt input contains non-finite entries")
    w, u = np.linalg.eigh(0.5 * (a + a.T))
    root = (u * np.sqrt(np.maximum(w, 0.0))) @ u.T
    return 0.5 * (root + root.T)


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for SPD a (Cholesky-backed)."""
    b = np.asarray(b, dtype=np.float64)
    ell = cholesky(a)
    y = np.linalg.solve(ell, b)
    return np.linalg.solve(ell.T, y)


def inverse_spd(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return solve_spd(a, np.eye(a.shape[0]))


def _bartlett(dof: float, d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, d, d) lower-triangular Bartlett factors."""
    bart = np.zeros((size, d, d))
    for i in range(d):
        bart[:, i, i] = np.sqrt(rng.chisquare(dof - i, size=size))
        for j in range(i):
            bart[:, i, j] = rng.standard_normal(size=size)
    return bart


def sample_wishart(dof: float, scale: np.ndarray, rng: np.random.Generator,
                   size: int | None = None) -> np.ndarray:
    """Draw from the Wishart distribution via the Bartlett decomposition.

    The sample mean over many draws converges to dof * scale.  ``size``
    requests a batch of shape (size, d, d).
    """
    scale = np.asarray(scale, dtype=np.float64)
    d = scale.shape[0]
    if dof <= d - 1:
        raise BadDof(f"Wishart needs dof > dim - 1, got dof={dof}, dim={d}")
    ell = cholesky(scale)
    bart = _bartlett(dof, d, rng, 1 if size is None else size)
    f = ell @ bart
    draws = f @ np.swapaxes(f, -1, -2)
    return draws[0] if size is None else draws


def sample_inverse_wishart(dof: float, param: np.ndarray, rng: np.random.Generator,
                           size: int | None = None) -> np.ndarray:
    """Draw from the inverse Wishart IW(dof, param).

    Uses the duality X ~ IW(v, P)  <=>  X^-1 ~ W(v, P^-1).  Under the
    textbook convention adopted here the mean is param / (dof - dim - 1)
    for dof > dim + 1.  Note the filter's point-extension extraction uses
    the lambda = dof - 2*dim - 2 scaling instead; the two conventions are
    deliberately distinct and tested separately.
    """
    param = np.asarray(param, dtype=np.float64)
    d = param.shape[0]
    if dof <= d - 1:
        raise BadDof(f"inverse Wishart needs dof > dim - 1, got dof={dof}, dim={d}")
    w = sample_wishart(dof, inverse_spd(param), rng, size=1 if size is None else size)
    draws = np.linalg.inv(0.5 * (w + np.swapaxes(w, -1, -2)))
    return draws[0] if size is None else draws
