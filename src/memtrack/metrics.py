"""Estimation quality metrics: position RMSE, ellipse IoU, Gaussian
Wasserstein distance, and per-dataset aggregation.

Ellipse membership uses the inverse-extent quadratic form
(p - c)^T E^-1 (p - c) <= 1, so extent eigenvalues are squared semi-axes.
IoU is computed by approximating each ellipse with an inscribed polygon and
clipping the two convex polygons exactly; at order 256 the area error is
below 1e-3 for aspect ratios up to 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import LengthMismatch, NonFinite, ShapeMismatch
from .filtering import extension_mean
from .simulate import Dataset
from .spdmat import sym_sqrt

__all__ = [
    "EllipseEstimate",
    "MetricsReport",
    "position_rmse",
    "ellipse_polygon",
    "iou_ellipse",
    "gwd",
    "case_series",
    "evaluate_run",
]


@dataclass(frozen=True)
class EllipseEstimate:
    center: np.ndarray  # (2,)
    extent: np.ndarray  # (2, 2) SPD


@dataclass(frozen=True)
class MetricsReport:
    """Per-step series plus dataset aggregates.

    ``mean_square_position_error`` is the raw mean of squared position
    errors over all cases and steps; ``position_rmse`` is its square root
    (the value quoted in meters).  Peaks are the worst per-step values:
    max position error, min IoU, max GWD.
    """

    per_case: list[np.ndarray]  # each (K-1, 3): pos error, iou, gwd
    mean_square_position_error: float
    position_rmse: float
    mean_iou: float
    mean_gwd: float
    peak_position_error: float
    peak_iou: float
    peak_gwd: float


def position_rmse(estimates, truths):
    """Per-step Euclidean position errors and their quadratic means.

    Returns (per-step errors, mean squared error, rmse).
    """
    if len(estimates) != len(truths):
        raise LengthMismatch(f"{len(estimates)} estimates vs {len(truths)} truths")
    est = np.asarray(estimates, dtype=np.float64)
    tru = np.asarray(truths, dtype=np.float64)
    diff = est[:, :2] - tru[:, :2]
    sq = np.sum(diff * diff, axis=1)
    mse = float(np.mean(sq))
    return np.sqrt(sq), mse, float(np.sqrt(mse))


def ellipse_polygon(e: EllipseEstimate, order: int = 256) -> np.ndarray:
    """Inscribed polygon of the solid ellipse, counterclockwise."""
    if order < 3:
        raise ValueError(f"polygon order must be at least 3, got {order}")
    theta = np.linspace(0.0, 2.0 * np.pi, order, endpoint=False)
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return e.center + unit @ sym_sqrt(e.extent).T


def _poly_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by a convex CCW polygon.

    Per clip edge the retained vertices and crossing points are assembled
    with array operations (vertex j, then the j -> j+1 crossing point, kept
    by mask), so the cost is a handful of vectorized ops per edge; edges
    that keep the whole subject are skipped outright.
    """
    out = subject
    edges_a = clip
    edges_b = np.roll(clip, -1, axis=0)
    for a, b in zip(edges_a, edges_b):
        if len(out) == 0:
            return out
        edge = b - a
        # cross(edge, p - a) > 0 means left of the edge, i.e. inside for CCW
        d = edge[0] * (out[:, 1] - a[1]) - edge[1] * (out[:, 0] - a[0])
        inside = d >= 0.0
        if inside.all():
            continue
        nxt = np.roll(d, -1)
        crossing = inside != (nxt >= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(crossing, d / (d - nxt), 0.0)
        inter = out + t[:, None] * (np.roll(out, -1, axis=0) - out)
        n = len(out)
        slots = np.empty((2 * n, 2))
        slots[0::2] = out
        slots[1::2] = inter
        mask = np.empty(2 * n, dtype=bool)
        mask[0::2] = inside
        mask[1::2] = crossing
        out = slots[mask]
    return out


def iou_ellipse(a: EllipseEstimate, b: EllipseEstimate, order: int = 256) -> float:
    """Area intersection-over-union of two solid ellipses, clamped to [0, 1]."""
    pa = ellipse_polygon(a, order)
    pb = ellipse_polygon(b, order)
    area_a = _poly_area(pa)
    area_b = _poly_area(pb)
    if area_a == 0.0 and area_b == 0.0:
        return 0.0
    inter = _poly_area(_clip_convex(pa, pb))
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def gwd(a: EllipseEstimate, b: EllipseEstimate) -> float:
    """Squared Gaussian Wasserstein distance between (center, extent) pairs:
    ||ca - cb||^2 + tr(Ea + Eb - 2 (Ea^1/2 Eb Ea^1/2)^1/2), clamped at 0."""
    da = np.asarray(a.center, dtype=np.float64) - np.asarray(b.center, dtype=np.float64)
    ra = sym_sqrt(a.extent)
    cross = sym_sqrt(ra @ b.extent @ ra)
    val = float(da @ da + np.trace(a.extent) + np.trace(b.extent) - 2.0 * np.trace(cross))
    if not np.isfinite(val):
        raise NonFinite("GWD evaluated to a non-finite value")
    return max(val, 0.0)


def case_series(states, exts, truth, polygon_order: int = 256) -> np.ndarray:
    """(K-1, 3) per-step [position error, IoU, GWD] for one filtered case.

    Posteriors correspond to truth steps 2..K (the first frame only
    initializes the track).
    """
    k = len(states)
    if k != len(truth.states) - 1:
        raise ShapeMismatch(
            f"{k} posteriors do not match {len(truth.states)} truth steps")
    rows = np.zeros((k, 3))
    for i, (st, ex) in enumerate(zip(states, exts)):
        mean = ops.value(st.mean)
        extent = np.asarray(ops.value(extension_mean(ex)), dtype=np.float64)
        true_state = truth.states[i + 1]
        true_extent = truth.extents[i + 1]
        err = mean[:2] - true_state[:2]
        est = EllipseEstimate(center=mean[:2], extent=extent)
        tru = EllipseEstimate(center=true_state[:2], extent=true_extent)
        rows[i, 0] = float(np.sqrt(err @ err))
        rows[i, 1] = iou_ellipse(est, tru, order=polygon_order)
        rows[i, 2] = gwd(est, tru)
    return rows


def evaluate_run(dataset: Dataset, posteriors, case_indices=None,
                 polygon_order: int = 256) -> MetricsReport:
    """Aggregate metrics for filtered posteriors against dataset truth.

    ``posteriors`` is a list of (states, extensions) pairs aligned with
    ``case_indices`` (defaults to the dataset's test split).  Extents are
    scored via the lambda-scaled extension mean.
    """
    if case_indices is None:
        case_indices = dataset.test_idx
    if len(posteriors) != len(case_indices):
        raise ShapeMismatch(
            f"{len(posteriors)} posterior runs vs {len(case_indices)} cases")
    per_case = []
    for (states, exts), idx in zip(posteriors, case_indices):
        truth = dataset.cases[int(idx)].truth
        per_case.append(case_series(states, exts, truth, polygon_order=polygon_order))
    stacked = np.concatenate(per_case, axis=0)
    mse = float(np.mean(stacked[:, 0] ** 2))
    return MetricsReport(
        per_case=per_case,
        mean_square_position_error=mse,
        position_rmse=float(np.sqrt(mse)),
        mean_iou=float(np.mean(stacked[:, 1])),
        mean_gwd=float(np.mean(stacked[:, 2])),
        peak_position_error=float(np.max(stacked[:, 0])),
        peak_iou=float(np.min(stacked[:, 1])),
        peak_gwd=float(np.max(stacked[:, 2])),
    )
