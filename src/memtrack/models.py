"""Domain types: beliefs, frame statistics, nominal models, configuration.

Planar tracking throughout: extension dimension d = 2, kinematic state
[px, py, vx, vy]; a measurement frame is an (n, 2) float64 array of points
(m).  All types are immutable values; belief fields may hold either plain
float64 arrays or tape ``Var`` objects (the filter is written once over both).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyFrame

D = 2  # planar extension dimension; state dimension is 2 * D

__all__ = [
    "D",
    "TrackState",
    "ExtensionState",
    "FrameStats",
    "NominalModel",
    "ScenarioConfig",
    "cv_transition_matrix",
    "MEASUREMENT_MATRIX",
    "frame_stats",
    "cv_process_noise",
    "nominal_cv_model",
]


@dataclass(frozen=True)
class TrackState:
    """Kinematic belief: mean [px, py, vx, vy] (m, m/s) and 4x4 SPD cov."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class ExtensionState:
    """Inverse-Wishart extension belief.

    ``dof`` is the scalar degrees of freedom v; ``param`` the 2x2 SPD
    parameter matrix.  The point-estimate extent is param / (v - 2d - 2).
    """

    dof: float
    param: np.ndarray


@dataclass(frozen=True)
class FrameStats:
    """Sufficient statistics of a frame: mean, unnormalized scatter, count."""

    mean: np.ndarray     # (2,)
    scatter: np.ndarray  # (2, 2), sum of outer products around the mean
    count: int


@dataclass(frozen=True)
class NominalModel:
    """Linear nominal motion/measurement model.

    The state evolves as F x and the frame mean is predicted as H x.  The
    extension evolves through the Wishart transition W(delta, A X A^T) / delta,
    whose mean A X A^T carries the expected extent over unchanged.
    """

    F: np.ndarray            # (4, 4) state transition
    H: np.ndarray            # (2, 4) measurement matrix
    q: np.ndarray            # (4, 4) process noise
    b: np.ndarray            # (2, 2) measurement distortion
    a: np.ndarray            # (2, 2) extension transition
    delta: float             # extension transition dof


@dataclass(frozen=True)
class ScenarioConfig:
    """Benchmark scenario: CV/CT switching ellipse with Poisson scatterers."""

    steps: int = 140
    dt: float = 1.0
    sigma_w: float = 0.4
    sigma_v: float = 0.6
    axis_major: float = 10.0      # full major axis (m); semi-axis is half
    axis_minor: float = 2.0
    speed: float = 10.0           # m/s
    scatter_rate: float = 20.0    # Poisson mean per frame
    cases: int = 600
    train_fraction: float = 0.8
    turn_rate_min: float = 1.0    # deg/s
    turn_rate_max: float = 5.0    # deg/s
    segment_min: int = 10         # steps per regime segment
    segment_max: int = 40
    regimes: str = "cv_ct"        # "cv_ct" or "cv" (no turns)
    process_noise: str = "direct"  # "direct" N(0, s^2 I4) or "white_accel" G w
    seed: int = 0

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if self.cases < 1:
            raise ValueError("cases must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("dt", "sigma_w", "sigma_v", "axis_major", "axis_minor",
                     "speed", "scatter_rate"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails both tests
                raise ValueError(f"{name} must be positive and finite")
        if self.regimes not in ("cv_ct", "cv"):
            raise ValueError(f"unknown regimes mode {self.regimes!r}")
        if self.process_noise not in ("direct", "white_accel"):
            raise ValueError(f"unknown process_noise mode {self.process_noise!r}")


def cv_transition_matrix(dt: float) -> np.ndarray:
    return np.array([
        [1.0, 0.0, dt, 0.0],
        [0.0, 1.0, 0.0, dt],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


MEASUREMENT_MATRIX = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])


def frame_stats(points: np.ndarray) -> FrameStats:
    """Mean and unnormalized scatter of a frame's (n, 2) points."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 1:
        raise EmptyFrame("frame has no points")
    mean = pts.mean(axis=0)
    centered = pts - mean
    scatter = centered.T @ centered
    return FrameStats(mean=mean, scatter=0.5 * (scatter + scatter.T), count=n)


def cv_process_noise(sigma_w: float, dt: float) -> np.ndarray:
    """Discretized white-acceleration CV noise, per-axis blocks
    [[dt^4/4, dt^3/2], [dt^3/2, dt^2]] * sigma_w^2."""
    if sigma_w <= 0:
        raise ValueError("sigma_w must be positive")
    s2 = sigma_w * sigma_w
    q = np.zeros((4, 4))
    for pos, vel in ((0, 2), (1, 3)):
        q[pos, pos] = 0.25 * dt ** 4 * s2
        q[pos, vel] = q[vel, pos] = 0.5 * dt ** 3 * s2
        q[vel, vel] = dt ** 2 * s2
    return q


def nominal_cv_model(
    sigma_w: float,
    dt: float = 1.0,
    delta: float = 7.0,
    b: np.ndarray | None = None,
    a: np.ndarray | None = None,
) -> NominalModel:
    """The benchmark nominal model: CV motion, linear position measurement.

    B defaults to I/2: points uniform over a solid ellipse with extent X
    have second moment X/4, so B X B^T with B = I/2 is the scatter
    covariance that actually matches the extent convention (eigenvalues =
    squared semi-axes).  With B = I the extent estimate settles 4x low and
    any learned inflation would miscalibrate the innovation covariance.
    """
    return NominalModel(
        F=cv_transition_matrix(dt),
        H=MEASUREMENT_MATRIX,
        q=cv_process_noise(sigma_w, dt),
        b=0.5 * np.eye(2) if b is None else np.asarray(b, dtype=np.float64),
        a=np.eye(2) if a is None else np.asarray(a, dtype=np.float64),
        delta=float(delta),
    )

