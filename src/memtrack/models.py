"""Domain types: beliefs, frame statistics, nominal models, configuration.

Planar tracking throughout: extension dimension d = 2, kinematic state
[px, py, vx, vy]; a measurement frame is an (n, 2) float64 array of points
(m).  All types are immutable values.  Beliefs and frame statistics are
named tuples, the cheapest immutable record to build (each filter step
builds several); belief fields may hold either plain float64 arrays or tape
``Var`` objects (the filter is written once over both).

Beliefs and frame statistics describe one case (leading shape ``()``), or
a batch of N cases with a leading case axis: means (N, 4), covariances
(N, 4, 4), extension dofs (N,) and parameters (N, 2, 2).  A batch's frames
are time-major: frame k of a batch is the tuple of every case's k-th (n, 2)
frame (:func:`stack_frames`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyFrame, LengthMismatch
from .ops import logchol2x2

D = 2  # planar extension dimension; state dimension is 2 * D
FRAME_COV_EPS = 1e-6   # floor added to a frame's sample covariance in its features
_FRAME_COV_FLOOR = FRAME_COV_EPS * np.eye(2)
# A frame's scatter covariance is SCATTER_SCALE * X for an extent X: points
# uniform over a solid ellipse with extent X have second moment X/4 (X's
# eigenvalues are the squared semi-axes).  Without the 1/4 the extent
# estimate settles 4x low and any learned inflation would miscalibrate the
# innovation covariance.
SCATTER_SCALE = 0.25

__all__ = [
    "D",
    "FRAME_COV_EPS",
    "SCATTER_SCALE",
    "TrackState",
    "ExtensionState",
    "FrameStats",
    "NominalModel",
    "ScenarioConfig",
    "cv_transition_matrix",
    "MEASUREMENT_MATRIX",
    "frame_stats",
    "reduce_frames",
    "frame_features",
    "stack_frames",
    "cv_process_noise",
    "nominal_cv_model",
]


class TrackState(NamedTuple):
    """Kinematic belief: mean [px, py, vx, vy] (m, m/s) and 4x4 SPD cov."""

    mean: np.ndarray
    cov: np.ndarray


class ExtensionState(NamedTuple):
    """Inverse-Wishart extension belief.

    ``dof`` is the degrees of freedom v, a scalar for one case and an (N,)
    array for a batch; ``param`` the 2x2 SPD parameter matrix.  The
    point-estimate extent is param / (v - 2d - 2).
    """

    dof: float | np.ndarray
    param: np.ndarray


class FrameStats(NamedTuple):
    """Sufficient statistics of a frame: mean, unnormalized scatter and
    count (an int for one case, an (N,) int array for a batch).  The
    network's features of a frame come from them (:func:`frame_features`)."""

    mean: np.ndarray     # (2,) or (N, 2)
    scatter: np.ndarray  # (2, 2) or (N, 2, 2), sum of outer products around the mean
    count: int | np.ndarray


@dataclass(frozen=True)
class NominalModel:
    """Linear nominal motion/measurement model.

    The state evolves as F x and the frame mean is predicted as H x.  The
    extension evolves through the Wishart transition W(delta, X) / delta,
    whose mean X carries the expected extent over unchanged.  A frame's
    scatter covariance is ``SCATTER_SCALE`` times the extent.
    """

    F: np.ndarray            # (4, 4) state transition
    H: np.ndarray            # (2, 4) measurement matrix
    q: np.ndarray            # (4, 4) process noise
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
        if not 0 <= self.train_fraction <= 1:  # NaN fails both tests
            raise ValueError(f"train_fraction must be between 0 and 1, got {self.train_fraction}")
        for name in ("dt", "sigma_w", "sigma_v", "axis_major", "axis_minor",
                     "speed", "scatter_rate"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails both tests
                raise ValueError(f"{name} must be positive and finite")
        if self.segment_min < 1:
            raise ValueError(f"segment_min must be >= 1, got {self.segment_min}")
        if self.segment_max < self.segment_min:
            raise ValueError(f"segment_max must be >= segment_min, got "
                             f"{self.segment_max} < {self.segment_min}")
        # NaN fails every comparison
        if not 0 <= self.turn_rate_min <= self.turn_rate_max < np.inf:
            raise ValueError(f"turn rates must satisfy 0 <= turn_rate_min <= turn_rate_max "
                             f"< inf, got {self.turn_rate_min} and {self.turn_rate_max}")
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


def frame_stats(points) -> FrameStats:
    """Mean and unnormalized scatter of a frame's (n, 2) points, or of a
    batch's frame (a tuple of N such arrays): the one-frame case of
    :func:`reduce_frames`, bit for bit."""
    if not isinstance(points, tuple):
        points = np.asarray(points, dtype=np.float64)
    return reduce_frames([points])[0]


def reduce_frames(frames) -> list[FrameStats]:
    """The statistics of every frame, from one ``np.add.reduceat`` over all
    their points.

    ``frames`` holds one case's (n, 2) frames, or a batch's frames, each a
    tuple of N per-case frames (see :func:`stack_frames`), whose statistics
    then carry a leading case axis.  A frame without points raises
    EmptyFrame (``reduceat`` would read a neighbouring point for it).
    """
    batched = isinstance(frames[0], tuple)
    flat = [f for frame in frames for f in frame] if batched else frames
    counts = np.array([len(f) for f in flat])
    if not counts.all():
        raise EmptyFrame("frame has no points")
    points = np.concatenate(flat, axis=0, dtype=np.float64)
    starts = np.cumsum(counts) - counts
    mean = np.add.reduceat(points, starts, axis=0) / counts[:, None]
    points -= np.repeat(mean, counts, axis=0)  # centred in place: concatenate copied
    x, y = points.T
    # the three distinct entries of the outer products, summed one at a time;
    # reduceat adds each entry's column in the same order in any layout
    scatter = np.empty((len(counts), 2, 2))
    scatter[:, 0, 0] = np.add.reduceat(x * x, starts)
    scatter[:, 0, 1] = scatter[:, 1, 0] = np.add.reduceat(x * y, starts)
    scatter[:, 1, 1] = np.add.reduceat(y * y, starts)
    if batched:
        lead = (len(frames), len(frames[0]))
        return [FrameStats(mean=m, scatter=s, count=c) for m, s, c in zip(
            mean.reshape(*lead, 2), scatter.reshape(*lead, 2, 2), counts.reshape(lead))]
    return [FrameStats(mean=m, scatter=s, count=c)
            for m, s, c in zip(mean, scatter, counts.tolist())]


def frame_features(stats: list[FrameStats]) -> np.ndarray:
    """The network's features of every frame in ``stats`` at once, (K, 4),
    or (K, N, 4) for a batch's: the log-Cholesky features of the frame's
    covariance ``scatter / max(count - 1, 1) + FRAME_COV_EPS * I`` and
    ``log(count)``.  The filter never reads them."""
    scatter = np.array([fs.scatter for fs in stats])
    counts = np.array([fs.count for fs in stats])
    features = np.empty(counts.shape + (4,))
    features[..., :3] = logchol2x2(scatter / np.maximum(counts - 1, 1)[..., None, None]
                                   + _FRAME_COV_FLOOR)
    features[..., 3] = np.log(counts)
    return features


def stack_frames(runs: list) -> list:
    """The ``frames`` of one filter run over several cases' frame lists:
    the only case's own frames, or the time-major batch whose frame k is
    the tuple of every case's k-th frame.  The cases must have one length."""
    if len({len(frames) for frames in runs}) != 1:
        raise LengthMismatch(f"a batch needs cases of one length, got "
                             f"{sorted({len(frames) for frames in runs})} frames")
    return runs[0] if len(runs) == 1 else list(zip(*runs))


def cv_process_noise(sigma_w: float, dt: float) -> np.ndarray:
    """Discretized white-acceleration CV noise, per-axis blocks
    [[dt^4/4, dt^3/2], [dt^3/2, dt^2]] * sigma_w^2."""
    if not 0 < sigma_w < np.inf:  # NaN fails both tests
        raise ValueError(f"sigma_w must be positive and finite, got {sigma_w}")
    s2 = sigma_w * sigma_w
    q = np.zeros((4, 4))
    for pos, vel in ((0, 2), (1, 3)):
        q[pos, pos] = 0.25 * dt ** 4 * s2
        q[pos, vel] = q[vel, pos] = 0.5 * dt ** 3 * s2
        q[vel, vel] = dt ** 2 * s2
    return q


def nominal_cv_model(sigma_w: float, dt: float = 1.0, delta: float = 7.0) -> NominalModel:
    """The benchmark nominal model: CV motion, linear position measurement
    and the extension transition dof ``delta``.  ``sigma_w`` and ``delta``
    must be positive and finite (ValueError).
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    return NominalModel(
        F=cv_transition_matrix(dt),
        H=MEASUREMENT_MATRIX,
        q=cv_process_noise(sigma_w, dt),
        delta=float(delta),
    )

