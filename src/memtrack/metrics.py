"""Estimation quality metrics: position RMSE, ellipse IoU, Gaussian
Wasserstein distance, and per-dataset aggregation.

Ellipse membership uses the inverse-extent quadratic form
(p - c)^T E^-1 (p - c) <= 1, so extent eigenvalues are squared semi-axes.
IoU and GWD take one pair of ellipses or a stack of K pairs (one per step)
and score every step of a stack in one vectorized pass; ``case_series``
scores every case of a filter run that way, one case or a batch.

IoU approximates each ellipse with an inscribed polygon and intersects the
two convex polygons exactly; at order 256 the area error is below 1e-3 for
aspect ratios up to 10.  Mapped into one ellipse's unit frame, its polygon
is the regular n-gon, so a point of the other polygon is tested against
the one edge of the sector it falls in.  Edge crossings are sought only
among edges that leave the other polygon and reach its circumscribed
ellipse, and each such edge of one polygon only against the edges of the
other in the sectors it sweeps, so an IoU costs O(n) even when the two
boundaries nearly coincide.  Steps are scored in blocks of a bounded
number of vertices, so no temporary grows with the number of steps.
GWD uses the closed form of the 2x2 matrix square-root trace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import NonFinite, ShapeMismatch
from .filtering import extension_mean
from .spdmat import sym_sqrt

__all__ = [
    "EllipseEstimate",
    "MetricsReport",
    "MAX_POLYGON_ORDER",
    "iou_ellipse",
    "gwd",
    "case_series",
    "evaluate_run",
]

# Largest polygon order the CLI and the training config accept.
MAX_POLYGON_ORDER = 65536

# Polygon vertices (both rings) that one block of IoU steps holds, which
# bounds every temporary array whatever the number of steps.  Twice this
# budget was slower at order 256 and doubled the memory scoring adds.
_BLOCK_VERTICES = 1 << 14


@dataclass(frozen=True)
class EllipseEstimate:
    """One ellipse, center (2,) and SPD extent (2, 2), or a stack of K
    ellipses, centers (K, 2) and extents (K, 2, 2)."""

    center: np.ndarray
    extent: np.ndarray


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


@functools.lru_cache(maxsize=8)
def _unit_polygon(order: int):
    """The regular ``order``-gon inscribed in the unit circle, counterclockwise
    from angle 0, cached per order as read-only arrays.

    Returns its closed ring as (3, order + 1) rows x, y and 1, repeating
    the first vertex at the end (the row of ones carries a shift through a
    matrix product), and the x and y components (2 order + 1,) of its
    edges' outward unit normals tabulated for sector numbers -order..order:
    edge k, from vertex k to k + 1, bounds sector k and sits at k + order.
    """
    if order < 3:
        raise ValueError(f"polygon order must be at least 3, got {order}")
    theta = np.linspace(0.0, 2.0 * np.pi, order + 1)
    theta[-1] = 0.0
    ring = np.stack([np.cos(theta), np.sin(theta), np.ones(order + 1)])
    phi = theta[np.arange(-order, order + 1) % order] + np.pi / order
    normal_x, normal_y = np.cos(phi), np.sin(phi)
    for table in (ring, normal_x, normal_y):
        table.setflags(write=False)
    return ring, (normal_x, normal_y)


def _pairs(a: EllipseEstimate, b: EllipseEstimate):
    """Centers (K, 2) and extents (K, 2, 2) of a and b, and the leading
    shape to give the result: () for one pair, (K,) for stacks."""
    ca, cb = (np.asarray(e.center, dtype=np.float64) for e in (a, b))
    ea, eb = (np.asarray(e.extent, dtype=np.float64) for e in (a, b))
    lead = ca.shape[:-1]
    if not (len(lead) <= 1 and lead == cb.shape[:-1] == ea.shape[:-2] == eb.shape[:-2]):
        raise ShapeMismatch(f"ellipse stacks differ: centers {ca.shape} and {cb.shape}, "
                            f"extents {ea.shape} and {eb.shape}")
    return ca.reshape(-1, 2), cb.reshape(-1, 2), ea.reshape(-1, 2, 2), eb.reshape(-1, 2, 2), lead


def _shaped(values: np.ndarray, lead: tuple):
    """A float for one pair, else the (K,) values."""
    return float(values[0]) if lead == () else values


# Slack, in the other ellipse's unit frame, for a point on a polygon
# boundary.  A vertex shared by both boundaries must count as inside even
# when roundoff puts it just outside; without the slack such vertices drop
# out and near-identical ellipses lose IoU (0.024 at order 16).
_ON_BOUNDARY = 1e-9

# sym_sqrt fixes the minor semi-axis only to about sqrt(eps) of the major
# one, so a root whose axis ratio is below this is roundoff, not area.
# For a small ratio, det R / |R|_F^2 is that ratio.
_FLAT = 1e-7


def _unit_frames(roots: np.ndarray):
    """Inverses (K, 2, 2) of ellipse roots ``R = sym_sqrt(E)``, mapping each
    ellipse onto the unit disc, the roots' determinants (K,), and which rows
    are not flat (the inverse of a flat row is meaningless)."""
    p, q, r = roots[:, 0, 0], roots[:, 0, 1], roots[:, 1, 1]
    det = p * r - q * q
    ok = det > _FLAT * (p * p + r * r + 2.0 * q * q)
    inv = np.stack([r, -q, -q, p], axis=1).reshape(-1, 2, 2)
    return inv / np.where(ok, det, 1.0)[:, None, None], det, ok


def _inside(x: np.ndarray, y: np.ndarray, theta: np.ndarray, normals, order: int) -> np.ndarray:
    """Which unit-frame points (x, y), at angles ``theta``, lie in the
    inscribed regular polygon.

    A point in sector k, between vertices k and k + 1, is inside iff it is
    on the inner side of edge k.
    """
    normal_x, normal_y = normals
    col = np.floor(theta * (order / (2.0 * np.pi))).astype(np.intp)
    col += order
    apothem = np.cos(np.pi / order)
    return x * normal_x[col] + y * normal_y[col] <= apothem + _ON_BOUNDARY


def _candidate_edges(x: np.ndarray, y: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Which edges i -> i + 1 of closed unit-frame rings (x, y), each (K, n+1),
    may cross the other polygon: a (K, n) mask.

    An edge with both ends inside cannot cross it (it is convex), and an
    edge that stays outside the unit circle cannot reach it (it is
    inscribed).
    """
    sx, sy = x[:, :-1], y[:, :-1]
    ex, ey = np.diff(x, axis=1), np.diff(y, axis=1)
    t = np.clip(-(sx * ex + sy * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    cx, cy = sx + t * ex, sy + t * ey
    near = cx * cx + cy * cy <= (1.0 + _ON_BOUNDARY) ** 2
    return near & ~(inside[:, :-1] & inside[:, 1:])


def _sector_pairs(theta: np.ndarray, cand: np.ndarray, order: int):
    """(step, edge of a, edge of b) for each candidate edge of a and each
    edge of b in a sector that the edge sweeps in b's unit frame.

    ``theta`` holds the angles of a's vertices in b's unit frame.  A segment
    sweeps the shorter arc between its ends' angles, and a crossing with
    edge k of b lies in sector k, so one sector of slack on each side
    covers roundoff at the sector boundaries.  Around a convex polygon the
    sweeps add up to at most two turns, so there are O(n) pairs per step.
    """
    step, edge = np.nonzero(cand)
    scale = order / (2.0 * np.pi)
    t0 = theta[step, edge]
    sweep = (theta[step, edge + 1] - t0 + np.pi) % (2.0 * np.pi) - np.pi
    lo = (t0 + np.minimum(sweep, 0.0)) * scale
    first = np.floor(lo).astype(np.intp) - 1
    count = np.minimum(np.floor(lo + np.abs(sweep) * scale).astype(np.intp) - first + 2, order)
    pick = np.repeat(np.arange(len(step)), count)
    offset = np.arange(len(pick)) - np.repeat(np.cumsum(count) - count, count)
    return step[pick], edge[pick], (first[pick] + offset) % order


def _crossings(ax, ay, bx, by, step: np.ndarray, ea: np.ndarray, eb: np.ndarray):
    """Crossing points of edges ``ea`` of rings (ax, ay) with edges ``eb`` of
    rings (bx, by), each ring set (K, n+1), pair by pair at steps ``step``:
    the steps of the pairs that cross and their crossing points' x and y."""
    ia = step * ax.shape[1] + ea
    ib = step * ax.shape[1] + eb
    ax, ay, bx, by = ax.ravel(), ay.ravel(), bx.ravel(), by.ravel()
    px, py = ax[ia], ay[ia]
    rx, ry = ax[ia + 1] - px, ay[ia + 1] - py
    sx, sy = bx[ib + 1] - bx[ib], by[ib + 1] - by[ib]
    dx, dy = bx[ib] - px, by[ib] - py
    den = rx * sy - ry * sx
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx * sy - dy * sx) / den
        v = (dx * ry - dy * rx) / den
    hit = (t >= 0.0) & (t <= 1.0) & (v >= 0.0) & (v <= 1.0)
    t = t[hit]
    return step[hit], px[hit] + t * rx[hit], py[hit] + t * ry[hit]


def _convex_areas(step: np.ndarray, x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Area (k,) of the convex polygon through each step's points (x, y).

    Sorted by angle about their mean, a step's points trace the polygon;
    duplicates (shared vertices, crossings at a vertex) add no area.  One
    sort on (step, angle), then one shoelace per step.
    """
    count = np.bincount(step, minlength=k)
    weight = np.maximum(count, 1)
    x = x - (np.bincount(step, x, k) / weight)[step]
    y = y - (np.bincount(step, y, k) / weight)[step]
    # The key angle + (2 pi + 1) step sorts by (step, angle): rounding is
    # monotone, so it never swaps two angles of one step, and ties only
    # join points that coincide.  Each polygon's vertices already come in
    # angular runs, which the stable sort (timsort) merges: this is about
    # nine times faster than a lexsort.
    order = np.argsort(np.arctan2(y, x) + (2.0 * np.pi + 1.0) * step, kind="stable")
    x, y = x[order], y[order]
    area = np.zeros(k)
    full = count >= 3
    if not full.any():
        return area
    start = np.cumsum(count) - count
    nxt = np.arange(1, len(x) + 1)
    nxt[start[full] + count[full] - 1] = start[full]
    area[full] = 0.5 * np.abs(np.add.reduceat(x * y[nxt] - y * x[nxt], start[full]))
    return area


def _iou_block(ca, ra, rb, inv_a, inv_b, area_a, area_b, order: int) -> np.ndarray:
    """IoU (K,) of a block of non-flat pairs, a's centers ``ca`` taken
    relative to b's (which keeps crossings exact far from the origin)."""
    ring, normals = _unit_polygon(order)
    k = len(ca)
    # One product maps the unit ring onto a and b and onto each one in the
    # other's unit frame: affine maps [R | shift], rows (coordinate, map,
    # step) of the result, columns vertices.
    shift = ca[:, :, None]
    maps = np.concatenate([
        np.concatenate([ra, shift], axis=2),
        np.concatenate([rb, np.zeros_like(shift)], axis=2),
        np.concatenate([inv_b @ ra, inv_b @ shift], axis=2),
        np.concatenate([inv_a @ rb, -(inv_a @ shift)], axis=2),
    ])
    planes = maps.transpose(1, 0, 2).reshape(-1, 3) @ ring
    (ax, bx, uax, ubx), (ay, by, uay, uby) = planes.reshape(2, 4, k, order + 1)
    theta_a = np.arctan2(uay, uax)
    in_a = _inside(uax, uay, theta_a, normals, order)
    in_b = _inside(ubx, uby, np.arctan2(uby, ubx), normals, order)
    # A crossing edge of b is a candidate too, but testing the few pairs is
    # cheaper than finding b's candidates; a pair that meets anyway meets
    # on both boundaries, so its point adds no area.
    pairs = _sector_pairs(theta_a, _candidate_edges(uax, uay, in_a), order)
    cross_step, cross_x, cross_y = _crossings(ax, ay, bx, by, *pairs)
    in_a[:, -1] = in_b[:, -1] = False   # the closing vertex repeats the first
    flat_a, flat_b = np.flatnonzero(in_a), np.flatnonzero(in_b)
    inter = _convex_areas(
        np.concatenate([flat_a // (order + 1), flat_b // (order + 1), cross_step]),
        np.concatenate([ax.ravel()[flat_a], bx.ravel()[flat_b], cross_x]),
        np.concatenate([ay.ravel()[flat_a], by.ravel()[flat_b], cross_y]), k)
    union = area_a + area_b - inter
    iou = np.divide(inter, union, out=np.zeros(k), where=union > 0.0)
    return np.clip(iou, 0.0, 1.0)


def iou_ellipse(a: EllipseEstimate, b: EllipseEstimate, order: int = 256):
    """Area intersection-over-union of two solid ellipses, clamped to [0, 1].

    ``a`` and ``b`` are single ellipses (a float is returned) or stacks of K
    (centers (K, 2), extents (K, 2, 2); an array (K,) is returned, row i
    scoring a[i] against b[i]).  Each ellipse is its inscribed ``order``-gon,
    the regular ``order``-gon mapped by the root R of the extent, so its
    area is det R (n/2) sin(2 pi/n).  The polygons' intersection has as
    vertices the vertices of each that lie inside the other and the
    crossings of their edges.  A flat ellipse scores 0.
    """
    _unit_polygon(order)    # rejects a degenerate order even when no row needs it
    ca, cb, ea, eb, lead = _pairs(a, b)
    if not (np.isfinite(ca).all() and np.isfinite(cb).all()):
        raise NonFinite("IoU of an ellipse with a non-finite center")
    k = len(ca)
    roots = sym_sqrt(np.concatenate([ea, eb]))    # rows of a, then rows of b
    inv, det, ok = _unit_frames(roots)
    area = det * (0.5 * order * np.sin(2.0 * np.pi / order))
    out = np.zeros(k)
    live = np.flatnonzero(ok[:k] & ok[k:])
    block = max(1, _BLOCK_VERTICES // (2 * (order + 1)))
    for lo in range(0, len(live), block):
        a_rows = live[lo:lo + block]
        b_rows = a_rows + k
        out[a_rows] = _iou_block(ca[a_rows] - cb[a_rows], roots[a_rows], roots[b_rows],
                                 inv[a_rows], inv[b_rows], area[a_rows], area[b_rows], order)
    return _shaped(out, lead)


def _dot_rows(v: np.ndarray) -> np.ndarray:
    """v[i] @ v[i] for each row of (K, 2); a stacked matmul takes the same
    dot product as ``@`` on one row, bit for bit."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def gwd(a: EllipseEstimate, b: EllipseEstimate):
    """Squared Gaussian Wasserstein distance between (center, extent) pairs:
    ||ca - cb||^2 + tr(Ea + Eb - 2 (Ea^1/2 Eb Ea^1/2)^1/2), clamped at 0.

    Takes single ellipses (returns a float) or stacks of K (returns (K,)),
    as ``iou_ellipse`` does.  For 2x2 PSD matrices
    tr((Ea^1/2 Eb Ea^1/2)^1/2) is sqrt(tr(Ea Eb) + 2 sqrt(det Ea det Eb)),
    so no matrix square root is needed.
    """
    ca, cb, ea, eb, lead = _pairs(a, b)
    det_a = np.maximum(ea[:, 0, 0] * ea[:, 1, 1] - ea[:, 0, 1] * ea[:, 1, 0], 0.0)
    det_b = np.maximum(eb[:, 0, 0] * eb[:, 1, 1] - eb[:, 0, 1] * eb[:, 1, 0], 0.0)
    tr_ab = (ea[:, 0, 0] * eb[:, 0, 0] + ea[:, 0, 1] * eb[:, 1, 0]
             + ea[:, 1, 0] * eb[:, 0, 1] + ea[:, 1, 1] * eb[:, 1, 1])
    root_trace = np.sqrt(np.maximum(tr_ab + 2.0 * np.sqrt(det_a * det_b), 0.0))
    with np.errstate(invalid="ignore"):     # inf - inf is reported below
        val = (_dot_rows(ca - cb) + (ea[:, 0, 0] + ea[:, 1, 1]) + (eb[:, 0, 0] + eb[:, 1, 1])
               - 2.0 * root_trace)
    if not np.all(np.isfinite(val)):
        raise NonFinite("GWD evaluated to a non-finite value")
    return _shaped(np.maximum(val, 0.0), lead)


def case_series(states, exts, truths, polygon_order: int = 256) -> np.ndarray:
    """(N, K-1, 3) per-step [position error, IoU, GWD] of a filter run over
    the N cases whose ``truths`` are listed (one for a single case's run),
    scored in one stacked pass.  Posteriors correspond to truth steps 2..K
    (the first frame only initializes the track)."""
    k = len(states)
    if any(k != len(t.states) - 1 for t in truths):
        raise ShapeMismatch(
            f"{k} posteriors do not match {[len(t.states) for t in truths]} truth steps")
    centers = np.array([ops.value(st.mean)[..., :2] for st in states], dtype=np.float64)
    extents = np.array([ops.value(extension_mean(ex)) for ex in exts], dtype=np.float64)
    n = len(truths)
    if centers.size != k * n * 2:  # (k, n, 2), or (k, 2) for a single case
        raise ShapeMismatch(f"posterior centers {centers.shape} do not match {n} truths")
    # case-major rows: every step of the first case, then of the next
    est = EllipseEstimate(center=np.moveaxis(centers.reshape(k, n, 2), 0, 1).reshape(-1, 2),
                          extent=np.moveaxis(extents.reshape(k, n, 2, 2), 0, 1).reshape(-1, 2, 2))
    tru = EllipseEstimate(center=np.concatenate([t.states[1:, :2] for t in truths]),
                          extent=np.concatenate([t.extents[1:] for t in truths]))
    rows = np.empty((n * k, 3))
    rows[:, 0] = np.sqrt(_dot_rows(est.center - tru.center))
    rows[:, 1] = iou_ellipse(est, tru, order=polygon_order)
    rows[:, 2] = gwd(est, tru)
    return rows.reshape(n, k, 3)


def evaluate_run(cases, run, polygon_order: int = 256) -> MetricsReport:
    """Aggregate metrics for one filter run against its cases' truth.

    ``run`` is the (states, extensions) of one filter run over ``cases``
    (anything with a ``.truth``): a batch's, with a leading case axis (see
    :func:`memtrack.filtering.run_filter`), or the only case's.  The
    posteriors are pooled over every step of every case.  Extents are
    scored via the lambda-scaled extension mean.
    """
    states, exts = run
    per_case = list(case_series(states, exts, [c.truth for c in cases], polygon_order))
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
