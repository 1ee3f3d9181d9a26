"""Dense small-matrix utilities for symmetric positive (semi)definite matrices.

Everything here operates on plain float64 numpy arrays at desk scale
(dims <= 8); there are no sparse or blocked paths.  Nothing here records on
a tape.  This is the one module that calls ``np.linalg.eigh``: the filter's
beliefs are SPD by construction (see :mod:`memtrack.filtering`), and only
data-side floors and ellipse geometry need a spectrum.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NotPositiveDefinite

__all__ = [
    "cholesky",
    "eigen_floor",
    "sym_sqrt",
    "inverse_spd",
    "ellipse_axes",
]

# Relative roundoff of a 2x2 determinant x z - y^2, in units of |x z| + y^2.
_DET_SLACK = 4.0 * np.finfo(np.float64).eps

# Bound on the roundoff of a 2x2's closed-form smallest eigenvalue plus eigh's,
# a few eps each, in units of |x| + |z| + 2|y| (at least the spectral norm).
_EIG_MARGIN = 16.0 * np.finfo(np.float64).eps


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


def eigen_floor(a: np.ndarray, floor: float) -> np.ndarray:
    """The symmetric part of one (d, d) matrix, or of each of a stack
    (N, d, d), with its eigenvalues raised to at least ``floor``: a row that
    needs no raising comes back as its symmetric part, bit for bit, and
    each other row is rebuilt from its eigenvectors, alone.

    A 2x2 row whose closed-form smallest eigenvalue clears ``floor`` by more
    than roundoff skips ``eigh``, which only rows near or below the floor,
    and larger matrices, reach.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFinite("eigen_floor input contains non-finite entries")
    s = 0.5 * (a + np.swapaxes(a, -1, -2))
    near = np.ones(s.shape[:-2], bool)  # rows that may have an eigenvalue below the floor
    if s.shape[-2:] == (2, 2):
        x, y, z = s[..., 0, 0], s[..., 0, 1], s[..., 1, 1]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow goes to eigh
            smallest = 0.5 * (x + z) - np.hypot(0.5 * (x - z), y)
            near = ~(smallest - floor > _EIG_MARGIN * (np.abs(x) + np.abs(z) + 2.0 * np.abs(y)))
    if not near.any():
        return s
    rows = s[near]  # (M, d, d); a single matrix becomes a stack of one
    w, u = np.linalg.eigh(rows)
    for i in np.flatnonzero(w[:, 0] < floor).tolist():
        rows[i] = _raised(w[i], u[i], floor)
    out = s.copy()
    out[near] = rows
    return out


def _raised(w, u, floor):
    """The symmetric matrix with eigenpairs (max(w, floor), u)."""
    out = (u * np.maximum(w, floor)) @ u.T
    return 0.5 * (out + out.T)


def _eigh_root(s: np.ndarray) -> np.ndarray:
    """PSD root of a stack of symmetric matrices, eigenvalues clamped at 0."""
    w, u = np.linalg.eigh(s)
    root = (u * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ np.swapaxes(u, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of the symmetric part of ``a``.

    ``a`` is one (d, d) matrix or a stack (..., d, d); the result has its
    shape.  Negative eigenvalues are clamped to zero before the square root
    so PSD inputs near the boundary stay valid.  Each 2x2 that is PSD up to
    roundoff takes the closed form (A + sqrt(det) I) / sqrt(tr + 2 sqrt(det)),
    its determinant clamped at 0; the other rows, zero included, and every
    larger matrix go through one stacked eigendecomposition.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFinite("sym_sqrt input contains non-finite entries")
    s = 0.5 * (a + np.swapaxes(a, -1, -2))
    if s.shape[-2:] != (2, 2):
        return _eigh_root(s)
    x, y, z = s[..., 0, 0], s[..., 0, 1], s[..., 1, 1]
    det = x * z - y * y
    # PSD up to the roundoff of the products that form the determinant
    closed = (x + z > 0.0) & (det >= -_DET_SLACK * (np.abs(x * z) + y * y))
    root_det = np.sqrt(np.maximum(det, 0.0))
    scale = np.sqrt(np.where(closed, x + z + 2.0 * root_det, 1.0))
    root = (s + root_det[..., None, None] * np.eye(2)) / scale[..., None, None]
    if not np.all(closed):
        root[~closed] = _eigh_root(s[~closed])
    return root


def inverse_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of SPD a by two triangular-factor solves against I."""
    ell = cholesky(a)
    y = np.linalg.solve(ell, np.eye(ell.shape[0]))
    return np.linalg.solve(ell.T, y)


def ellipse_axes(extents: np.ndarray) -> np.ndarray:
    """(major semi-axis, minor semi-axis, angle) rows of a stack (K, 2, 2) of
    extents: the roots of the eigenvalues (clamped at 0) and the major
    axis's direction, in [-pi/2, pi/2)."""
    w, u = np.linalg.eigh(extents)
    angle = np.arctan2(u[:, 1, 1], u[:, 0, 1])
    angle = np.where(angle < -np.pi / 2, angle + np.pi,
                     np.where(angle >= np.pi / 2, angle - np.pi, angle))
    return np.column_stack([np.sqrt(np.maximum(w[:, 1], 0.0)),
                            np.sqrt(np.maximum(w[:, 0], 0.0)), angle])
