"""Estimation quality metrics: position RMSE, ellipse IoU, Gaussian
Wasserstein distance, and per-dataset aggregation.

Ellipse membership uses the inverse-extent quadratic form
(p - c)^T E^-1 (p - c) <= 1, so extent eigenvalues are squared semi-axes.
IoU approximates each ellipse with an inscribed polygon and intersects the
two convex polygons exactly; at order 256 the area error is below 1e-3 for
aspect ratios up to 10.  Mapped into one ellipse's unit frame, its polygon
is the regular n-gon, so a point of the other polygon is tested against
the one edge of the sector it falls in.  Edge crossings are sought only
among edges that leave the other polygon and reach its circumscribed
ellipse, so an IoU costs O(n) unless the two boundaries nearly coincide.
GWD uses the closed form of the 2x2 matrix square-root trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import NonFinite, ShapeMismatch
from .filtering import extension_mean
from .simulate import Dataset
from .spdmat import sym_sqrt

__all__ = [
    "EllipseEstimate",
    "MetricsReport",
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


def _unit_polygon(order: int) -> np.ndarray:
    """Vertices of the regular ``order``-gon inscribed in the unit circle,
    counterclockwise from angle 0."""
    if order < 3:
        raise ValueError(f"polygon order must be at least 3, got {order}")
    theta = np.linspace(0.0, 2.0 * np.pi, order, endpoint=False)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def ellipse_polygon(e: EllipseEstimate, order: int = 256) -> np.ndarray:
    """Inscribed polygon of the solid ellipse, counterclockwise."""
    return e.center + _unit_polygon(order) @ sym_sqrt(e.extent).T


def _poly_area(z: np.ndarray) -> float:
    """Shoelace area of the polygon with complex vertices ``z`` in order."""
    if len(z) < 3:
        return 0.0
    return 0.5 * abs(float(np.vdot(z[:-1], z[1:]).imag + (z[-1].conjugate() * z[0]).imag))


def _complex(points: np.ndarray) -> np.ndarray:
    """(n, 2) real points as n complex numbers x + iy."""
    return np.ascontiguousarray(points, dtype=np.float64).view(np.complex128)[:, 0]


# Slack, in the other ellipse's unit frame, for a point on a polygon
# boundary.  A vertex shared by both boundaries must count as inside even
# when roundoff puts it just outside; without the slack such vertices drop
# out and near-identical ellipses lose IoU (0.024 at order 16).
_ON_BOUNDARY = 1e-9

# sym_sqrt fixes the minor semi-axis only to about sqrt(eps) of the major
# one, so a root whose axis ratio is below this is roundoff, not area.
# For a small ratio, det R / |R|_F^2 is that ratio.
_FLAT = 1e-7


def _unit_frame(root: np.ndarray):
    """Inverse of an ellipse root ``R = sym_sqrt(E)``, mapping the ellipse
    onto the unit disc; None when the ellipse is flat."""
    p, q, r = root[0, 0], root[0, 1], root[1, 1]
    det = p * r - q * q
    if not det > _FLAT * (p * p + r * r + 2.0 * q * q):
        return None
    return np.array([[r, -q], [-q, p]]) / det


def _inside(u: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Which unit-frame points ``u`` lie in the inscribed regular polygon.

    A point in the sector between vertices k and k+1 is inside iff it is on
    the inner side of edge k, whose outward unit normal is ``normals[k]``.
    """
    order = len(normals)
    k = np.floor(np.angle(u) * (order / (2.0 * np.pi))).astype(np.intp) % order
    apothem = np.cos(np.pi / order)
    return (u * normals[k].conjugate()).real <= apothem + _ON_BOUNDARY


def _candidate_edges(u: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Indices of the edges u[i] -> u[i+1] of a closed unit-frame ring that
    may cross the other polygon.

    An edge with both ends inside cannot cross it (it is convex), and an
    edge that stays outside the unit circle cannot reach it (it is
    inscribed).
    """
    start, edge = u[:-1], np.diff(u)
    t = np.clip(-(start.conjugate() * edge).real / (edge.conjugate() * edge).real, 0.0, 1.0)
    near = np.abs(start + t * edge) <= 1.0 + _ON_BOUNDARY
    return np.flatnonzero(near & ~(inside[:-1] & inside[1:]))


def _crossings(za: np.ndarray, ea: np.ndarray, zb: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Crossing points of edges ``ea`` of ring za with edges ``eb`` of ring zb."""
    p, r = za[ea, None], (za[ea + 1] - za[ea])[:, None]
    s = zb[eb + 1] - zb[eb]
    qp = zb[eb] - p
    den = (r.conjugate() * s).imag
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qp.conjugate() * s).imag / den
        v = (qp.conjugate() * r).imag / den
    hit = (t >= 0.0) & (t <= 1.0) & (v >= 0.0) & (v <= 1.0)
    return (p + t * r)[hit]


def iou_ellipse(a: EllipseEstimate, b: EllipseEstimate, order: int = 256) -> float:
    """Area intersection-over-union of two solid ellipses, clamped to [0, 1].

    Each ellipse is its inscribed ``order``-gon (``ellipse_polygon``).  The
    polygons' intersection has as vertices the vertices of each that lie
    inside the other and the crossings of their edges.
    """
    unit = _unit_polygon(order)
    ra, rb = sym_sqrt(a.extent), sym_sqrt(b.extent)
    inv_a, inv_b = _unit_frame(ra), _unit_frame(rb)
    if inv_a is None or inv_b is None:
        return 0.0
    # Coordinates relative to b's center keep crossings exact far from
    # the origin.  Rings repeat their first vertex at the end.
    ring = np.vstack([unit, unit[:1]])
    ca = np.asarray(a.center, dtype=np.float64) - np.asarray(b.center, dtype=np.float64)
    pa = ca + ring @ ra.T
    pb = ring @ rb.T
    za, zb = _complex(pa), _complex(pb)
    normals = _complex(unit) * np.exp(1j * np.pi / order)
    ua = _complex(pa @ inv_b.T)          # a's vertices in b's unit frame
    ub = _complex((pb - ca) @ inv_a.T)   # b's vertices in a's unit frame
    in_a, in_b = _inside(ua, normals), _inside(ub, normals)
    pts = [za[:-1][in_a[:-1]], zb[:-1][in_b[:-1]]]
    ea, eb = _candidate_edges(ua, in_a), _candidate_edges(ub, in_b)
    if len(ea) and len(eb):
        pts.append(_crossings(za, ea, zb, eb))
    pts = np.concatenate(pts)
    if len(pts) < 3:
        return 0.0
    # Sorted by angle about their mean, the points trace the convex
    # intersection; duplicates (shared vertices, crossings at a vertex)
    # add no area.
    rel = pts - pts.mean()
    inter = _poly_area(rel[np.argsort(np.angle(rel))])
    union = _poly_area(za[:-1]) + _poly_area(zb[:-1]) - inter
    if union <= 0.0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def gwd(a: EllipseEstimate, b: EllipseEstimate) -> float:
    """Squared Gaussian Wasserstein distance between (center, extent) pairs:
    ||ca - cb||^2 + tr(Ea + Eb - 2 (Ea^1/2 Eb Ea^1/2)^1/2), clamped at 0.

    For 2x2 PSD matrices tr((Ea^1/2 Eb Ea^1/2)^1/2) is
    sqrt(tr(Ea Eb) + 2 sqrt(det Ea det Eb)), so no matrix square root is needed.
    """
    da = np.asarray(a.center, dtype=np.float64) - np.asarray(b.center, dtype=np.float64)
    ea = np.asarray(a.extent, dtype=np.float64)
    eb = np.asarray(b.extent, dtype=np.float64)
    det_a = max(float(ea[0, 0] * ea[1, 1] - ea[0, 1] * ea[1, 0]), 0.0)
    det_b = max(float(eb[0, 0] * eb[1, 1] - eb[0, 1] * eb[1, 0]), 0.0)
    root_trace = np.sqrt(max(float(np.sum(ea * eb.T)) + 2.0 * np.sqrt(det_a * det_b), 0.0))
    val = float(da @ da + np.trace(ea) + np.trace(eb) - 2.0 * root_trace)
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
