"""Wishart and inverse-Wishart samplers: the Monte Carlo oracles of the
extension model.

The filter never samples; these draws check its closed-form moments (see
``tests/test_filtering.py``) and are checked themselves against the
analytic means (``tests/test_spdmat.py``).  Each takes an explicit
``numpy.random.Generator`` so a test owns its stream.
"""

import numpy as np

from memtrack.spdmat import cholesky


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
        raise ValueError(f"Wishart needs dof > dim - 1, got dof={dof}, dim={d}")
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
    for dof > dim + 1.  The filter's point-extension extraction uses the
    lambda = dof - 2*dim - 2 scaling instead; the two conventions are
    deliberately distinct and tested separately.
    """
    param = np.asarray(param, dtype=np.float64)
    d = param.shape[0]
    if dof <= d - 1:
        raise ValueError(f"inverse Wishart needs dof > dim - 1, got dof={dof}, dim={d}")
    w = sample_wishart(dof, np.linalg.inv(param), rng, size=1 if size is None else size)
    draws = np.linalg.inv(0.5 * (w + np.swapaxes(w, -1, -2)))
    return draws[0] if size is None else draws
