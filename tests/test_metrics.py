import warnings

import numpy as np
import pytest

from memtrack import metrics
from memtrack.errors import NonFinite, ShapeMismatch
from memtrack.filtering import TrackerConfig, extension_mean, run_filter
from memtrack.metrics import EllipseEstimate, evaluate_run, gwd, iou_ellipse
from memtrack.models import ExtensionState, ScenarioConfig, nominal_cv_model, stack_frames
from memtrack.simulate import generate_dataset
from memtrack.spdmat import sym_sqrt


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


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


def _shoelace(poly):
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def ellipse_polygon(e: EllipseEstimate, order: int = 256) -> np.ndarray:
    """Inscribed polygon of the solid ellipse, counterclockwise: the
    ``order``-gon that ``iou_ellipse`` intersects, as (order, 2)."""
    ring, _ = metrics._unit_polygon(order)
    return np.asarray(e.center, dtype=np.float64) + ring[:2, :-1].T @ sym_sqrt(e.extent).T


def clip_iou(a, b, order):
    """IoU of the two inscribed polygons by clipping one with the other.

    Both polygons are taken relative to b's center, as ``iou_ellipse``
    does; in absolute coordinates 500 m from the origin the clip's own
    roundoff reaches 1e-8.
    """
    pa = ellipse_polygon(a, order) - b.center
    pb = ellipse_polygon(b, order) - b.center
    area_a, area_b = _shoelace(pa), _shoelace(pb)
    inter = _shoelace(_clip_convex(pa, pb))
    return min(max(inter / (area_a + area_b - inter), 0.0), 1.0)


def ellipse(center, semi_axes, angle):
    r = rot(angle)
    return EllipseEstimate(np.asarray(center, dtype=float),
                           r @ np.diag(np.square(semi_axes)) @ r.T)


def random_pairs(rng, n=30):
    pairs = []
    for _ in range(n):
        a = ellipse(rng.uniform(-500, 500, 2), rng.uniform(0.05, 10, 2), rng.uniform(0, np.pi))
        offset = rng.uniform(0, 6) * np.array([np.cos(phi := rng.uniform(0, 2 * np.pi)),
                                               np.sin(phi)])
        pairs.append((a, ellipse(a.center + offset, rng.uniform(0.05, 10, 2),
                                 rng.uniform(0, np.pi))))
    return pairs


def nested_pairs(rng, n=30):
    pairs = []
    for i in range(n):
        axes = rng.uniform(0.05, 10, 2)
        a = ellipse(rng.uniform(-500, 500, 2), axes, rng.uniform(0, np.pi))
        if i % 2:   # concentric, any shape
            b = ellipse(a.center, rng.uniform(0.05, 10, 2), rng.uniform(0, np.pi))
        else:       # a shrunken, slightly shifted copy inside a
            shift = 0.1 * min(axes) * rng.uniform(-1, 1, 2)
            b = EllipseEstimate(a.center + shift, rng.uniform(0.3, 0.9) ** 2 * a.extent)
        pairs.append((a, b))
    return pairs


def disjoint_and_tangent_pairs(rng, n=30):
    pairs = []
    for i in range(n):
        angle = rng.uniform(0, np.pi)
        axes_a = rng.uniform(0.05, 10, 2)
        axes_b = np.array([rng.uniform(0.05, 10), axes_a[1]])
        a = ellipse(rng.uniform(-500, 500, 2), axes_a, angle)
        gap = 0.0 if i % 2 else rng.uniform(1e-6, 1.0)
        # b shares a's orientation and sits along a's first axis, touching
        # a at one point when the gap is zero
        b = ellipse(a.center + (axes_a[0] + axes_b[0] + gap) * rot(angle)[:, 0],
                    axes_b, angle)
        pairs.append((a, b))
    return pairs


def near_identical_pairs(rng, n=100):
    pairs = []
    for i in range(n):
        a = ellipse(rng.uniform(-500, 500, 2), rng.uniform(0.05, 10, 2), rng.uniform(0, np.pi))
        eps = 10.0 ** rng.uniform(-15, -6)
        if i % 3 == 0:
            b = EllipseEstimate(a.center + eps * rng.standard_normal(2), a.extent)
        elif i % 3 == 1:
            b = EllipseEstimate(a.center, (1.0 + eps) * a.extent)
        else:
            b = EllipseEstimate(a.center, rot(eps) @ a.extent @ rot(eps).T)
        pairs.append((a, b))
    return pairs


def stacked(pairs):
    """The pairs as two stacked EllipseEstimates, a's and b's."""
    return tuple(EllipseEstimate(np.array([e.center for e in side]),
                                 np.array([e.extent for e in side])) for side in zip(*pairs))


class TestIoU:
    def test_identical(self):
        e = EllipseEstimate(np.array([1.0, 2.0]), np.array([[4.0, 1.0], [1.0, 2.0]]))
        assert abs(iou_ellipse(e, e) - 1.0) < 1e-3

    def test_disjoint(self):
        a = EllipseEstimate(np.zeros(2), np.eye(2))
        b = EllipseEstimate(np.array([100.0, 0.0]), np.eye(2))
        assert iou_ellipse(a, b) == 0.0

    @pytest.mark.parametrize("order", [0, 2])
    def test_degenerate_polygon_order_rejected(self, order):
        e = EllipseEstimate(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="at least 3"):
            ellipse_polygon(e, order)
        with pytest.raises(ValueError, match="at least 3"):
            iou_ellipse(e, e, order=order)

    def test_concentric_circles(self):
        a = EllipseEstimate(np.zeros(2), np.eye(2))
        b = EllipseEstimate(np.zeros(2), 4.0 * np.eye(2))
        assert abs(iou_ellipse(a, b) - 0.25) < 1e-3

    @pytest.mark.parametrize("make_pairs", [random_pairs, nested_pairs,
                                            disjoint_and_tangent_pairs, near_identical_pairs])
    def test_matches_polygon_clip(self, make_pairs):
        pairs = make_pairs(np.random.default_rng(11))
        for order in (3, 4, 16, 64, 256, 1024):
            for a, b in pairs:
                assert abs(iou_ellipse(a, b, order) - clip_iou(a, b, order)) <= 1e-8, (order, a, b)

    def test_identical_is_one(self):
        rng = np.random.default_rng(12)
        for order in (3, 4, 16, 64, 256, 1024):
            for _ in range(10):
                e = ellipse(rng.uniform(-500, 500, 2), rng.uniform(0.05, 10, 2),
                            rng.uniform(0, np.pi))
                assert abs(iou_ellipse(e, e, order) - 1.0) <= 1e-12

    def test_crossing_search_is_linear_in_the_order(self, monkeypatch):
        """Near-identical boundaries make nearly every edge a candidate; each
        candidate edge of a is still tested only against the few edges of b
        in the sectors it sweeps, not against every candidate edge of b."""
        order = 1024
        pairs_per_step, edges_per_step = [], []
        crossings = metrics._crossings

        def counting(ax, ay, bx, by, step, ea, eb):
            steps = ax.shape[0]
            pairs_per_step.extend(np.bincount(step, minlength=steps))
            edges = np.unique(step * order + ea) // order
            edges_per_step.extend(np.bincount(edges, minlength=steps))
            return crossings(ax, ay, bx, by, step, ea, eb)

        monkeypatch.setattr(metrics, "_crossings", counting)
        pairs = near_identical_pairs(np.random.default_rng(13))
        a, b = stacked(pairs)
        iou_ellipse(a, b, order)
        assert len(pairs_per_step) == len(pairs)
        # some step has order / 4 candidate edges or more (about order / 2
        # today), where pairing them with b's would make order**2 / 16 pairs
        assert max(edges_per_step) >= order // 4
        assert max(pairs_per_step) <= 4 * order   # about 2 order today

    @pytest.mark.parametrize("extent", [
        np.diag([4.0, 0.0]),
        *[np.outer(v, v) for v in (2.0 * np.array([np.cos(t), np.sin(t)])
                                   for t in (0.3, 0.7, 1.1, 2.5))],
        np.diag([1.0, 1e-300]),
    ])
    def test_flat_extent_scores_zero(self, extent):
        flat = EllipseEstimate(np.array([0.2, -0.1]), extent)
        circle = EllipseEstimate(np.zeros(2), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert iou_ellipse(flat, circle) <= 1e-12
            assert iou_ellipse(circle, flat) <= 1e-12

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(0)
        a = EllipseEstimate(np.array([0.5, -0.2]),
                            rot(0.4) @ np.diag([9.0, 1.0]) @ rot(0.4).T)
        b = EllipseEstimate(np.array([1.5, 0.4]),
                            rot(-0.7) @ np.diag([4.0, 2.0]) @ rot(-0.7).T)
        n = 10 ** 6
        lo = np.minimum(a.center, b.center) - 4.0
        hi = np.maximum(a.center, b.center) + 4.0
        pts = rng.uniform(lo, hi, size=(n, 2))
        def inside(e, p):
            d = p - e.center
            sol = np.linalg.solve(e.extent, d.T).T
            return np.einsum("ij,ij->i", d, sol) <= 1.0
        in_a = inside(a, pts)
        in_b = inside(b, pts)
        mc = in_a[in_b].sum() / (in_a | in_b).sum()
        assert abs(iou_ellipse(a, b) - mc) < 3e-3

    def test_symmetry_and_rigid_motion_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m1, m2 = rng.standard_normal((2, 2, 2))
            e1 = EllipseEstimate(rng.standard_normal(2), m1 @ m1.T + 0.5 * np.eye(2))
            e2 = EllipseEstimate(rng.standard_normal(2), m2 @ m2.T + 0.5 * np.eye(2))
            assert abs(iou_ellipse(e1, e2) - iou_ellipse(e2, e1)) < 1e-9
            r = rot(rng.uniform(0, 2 * np.pi))
            t = rng.standard_normal(2) * 10
            f1 = EllipseEstimate(r @ e1.center + t, r @ e1.extent @ r.T)
            f2 = EllipseEstimate(r @ e2.center + t, r @ e2.extent @ r.T)
            assert abs(iou_ellipse(e1, e2) - iou_ellipse(f1, f2)) < 1e-6


class TestStacks:
    """A stack of K pairs scores each row as that pair alone would."""

    def _case(self):
        cfg = ScenarioConfig(steps=141, cases=1, seed=29)
        case = generate_dataset(cfg).cases[0]
        model = nominal_cv_model(sigma_w=cfg.sigma_w)
        states, exts, _ = run_filter(case.frames, model, TrackerConfig())
        return states, exts, case.truth

    def test_case_series_rows_match_single_pairs(self):
        states, exts, truth = self._case()
        rows = metrics.case_series(states, exts, [truth], polygon_order=256)[0]
        assert rows.shape == (140, 3)
        for i, (st, ex) in enumerate(zip(states, exts)):
            est = EllipseEstimate(st.mean[:2], extension_mean(ex))
            tru = EllipseEstimate(truth.states[i + 1, :2], truth.extents[i + 1])
            err = st.mean[:2] - truth.states[i + 1, :2]
            assert rows[i, 0] == np.sqrt(err @ err)     # bit for bit: rmse cannot move
            assert abs(rows[i, 1] - iou_ellipse(est, tru, 256)) <= 1e-12
            assert abs(rows[i, 2] - gwd(est, tru)) <= 1e-12
            one = [EllipseEstimate(e.center[None], e.extent[None]) for e in (est, tru)]
            assert iou_ellipse(*one, order=256).shape == (1,)
            assert abs(rows[i, 1] - iou_ellipse(*one, order=256)[0]) <= 1e-12
            assert abs(rows[i, 2] - gwd(*one)[0]) <= 1e-12

    def test_one_flat_row_scores_zero_alone(self):
        rng = np.random.default_rng(31)
        pairs = random_pairs(rng, n=6)
        a, b = stacked(pairs)
        whole = iou_ellipse(a, b)
        flat = a.extent.copy()
        flat[2] = np.diag([4.0, 0.0])
        got = iou_ellipse(EllipseEstimate(a.center, flat), b)
        assert got[2] == 0.0
        np.testing.assert_array_equal(np.delete(got, 2), np.delete(whole, 2))
        assert (np.delete(whole, 2) > 0.0).any()

    def test_non_finite_extent_raises(self):
        states, exts, truth = self._case()
        bad = exts[:]
        bad[7] = ExtensionState(dof=bad[7].dof, param=np.full((2, 2), np.nan))
        with pytest.raises(NonFinite):
            metrics.case_series(states, bad, [truth])
        circles = EllipseEstimate(np.zeros((3, 2)), np.stack([np.eye(2)] * 3))
        broken = EllipseEstimate(np.zeros((3, 2)), circles.extent.copy())
        broken.extent[1, 0, 0] = np.inf
        with pytest.raises(NonFinite):
            gwd(circles, broken)
        with pytest.raises(NonFinite):
            iou_ellipse(circles, broken)

    def test_stacks_of_different_lengths_are_rejected(self):
        three = EllipseEstimate(np.zeros((3, 2)), np.stack([np.eye(2)] * 3))
        two = EllipseEstimate(np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        with pytest.raises(ShapeMismatch):
            iou_ellipse(three, two)
        with pytest.raises(ShapeMismatch):
            gwd(three, two)


class TestGwd:
    def test_identical_zero(self):
        e = EllipseEstimate(np.array([1.0, 2.0]), np.array([[3.0, 0.5], [0.5, 1.0]]))
        assert abs(gwd(e, e)) < 1e-9

    def test_swapped_diagonals(self):
        a = EllipseEstimate(np.zeros(2), np.diag([4.0, 1.0]))
        b = EllipseEstimate(np.zeros(2), np.diag([1.0, 4.0]))
        assert abs(gwd(a, b) - 2.0) < 1e-9

    def test_commuting_extents_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            la = rng.uniform(0.5, 5.0, 2)
            lb = rng.uniform(0.5, 5.0, 2)
            ca, cb = rng.standard_normal((2, 2))
            a = EllipseEstimate(ca, np.diag(la))
            b = EllipseEstimate(cb, np.diag(lb))
            expected = float(np.sum((np.sqrt(la) - np.sqrt(lb)) ** 2)
                             + np.sum((ca - cb) ** 2))
            assert abs(gwd(a, b) - expected) < 1e-9

    def test_center_term_decouples(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((2, 2))
        ext = m @ m.T + np.eye(2)
        a = EllipseEstimate(np.zeros(2), ext)
        t = np.array([2.0, -1.0])
        shifted_both = gwd(EllipseEstimate(a.center + t, ext),
                           EllipseEstimate(t, ext))
        assert abs(shifted_both - gwd(a, EllipseEstimate(np.zeros(2), ext))) < 1e-12
        one_shifted = gwd(a, EllipseEstimate(a.center + t, ext))
        assert abs(one_shifted - float(t @ t)) < 1e-9

    def test_matches_matrix_square_root_definition(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            ms = rng.standard_normal((2, 2, 2))
            ea, eb = (m @ m.T + 0.3 * np.eye(2) for m in ms)
            ca, cb = rng.standard_normal((2, 2))
            ra = sym_sqrt(ea)
            expected = float((ca - cb) @ (ca - cb) + np.trace(ea) + np.trace(eb)
                             - 2.0 * np.trace(sym_sqrt(ra @ eb @ ra)))
            got = gwd(EllipseEstimate(ca, ea), EllipseEstimate(cb, eb))
            assert abs(got - expected) <= 1e-9 * max(expected, 1.0)

    def test_flat_and_non_finite_extents(self):
        flat = EllipseEstimate(np.zeros(2), np.diag([4.0, 0.0]))
        circle = EllipseEstimate(np.zeros(2), np.eye(2))
        assert abs(gwd(flat, circle) - 2.0) < 1e-12  # (2 - 1)^2 + (0 - 1)^2
        with pytest.raises(NonFinite):
            gwd(EllipseEstimate(np.zeros(2), np.full((2, 2), np.nan)), circle)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            ms = rng.standard_normal((3, 2, 2))
            es = [EllipseEstimate(rng.standard_normal(2) * 3, m @ m.T + 0.3 * np.eye(2))
                  for m in ms]
            dab = np.sqrt(gwd(es[0], es[1]))
            dba = np.sqrt(gwd(es[1], es[0]))
            assert abs(dab - dba) < 1e-9
            dbc = np.sqrt(gwd(es[1], es[2]))
            dac = np.sqrt(gwd(es[0], es[2]))
            assert dac <= dab + dbc + 1e-6


class TestEvaluateRun:
    def _cases_and_run(self):
        cfg = ScenarioConfig(steps=25, cases=3, seed=19)
        cases = generate_dataset(cfg).cases
        model = nominal_cv_model(sigma_w=cfg.sigma_w)
        states, exts, _ = run_filter(stack_frames([c.frames for c in cases]), model,
                                     TrackerConfig())
        return cases, (states, exts)

    def test_report_shapes(self):
        cases, run = self._cases_and_run()
        rep = evaluate_run(cases, run, polygon_order=64)
        assert len(rep.per_case) == len(cases)
        assert all(series.shape == (24, 3) for series in rep.per_case)
        assert 0.0 <= rep.mean_iou <= 1.0
        assert rep.peak_iou <= rep.mean_iou
        assert rep.peak_position_error >= rep.position_rmse

    def test_perfect_posteriors(self):
        from memtrack.models import ExtensionState, TrackState
        cfg = ScenarioConfig(steps=10, cases=1, seed=23)
        ds = generate_dataset(cfg)
        case = ds.cases[0]
        states = [TrackState(mean=case.truth.states[k], cov=np.eye(4))
                  for k in range(1, 10)]
        exts = [ExtensionState(dof=10.0, param=4.0 * case.truth.extents[k])
                for k in range(1, 10)]
        rep = evaluate_run([case], (states, exts))
        assert rep.position_rmse == 0.0
        assert rep.mean_iou > 0.999
        assert rep.mean_gwd < 1e-9
        # a constant (3, 4) m position offset: every step errs by 5 m
        shifted = [TrackState(mean=s.mean + np.array([3.0, 4.0, 0.0, 0.0]), cov=s.cov)
                   for s in states]
        rep = evaluate_run([case], (shifted, exts))
        assert abs(rep.mean_square_position_error - 25.0) < 1e-9
        assert abs(rep.position_rmse - 5.0) < 1e-9

    def test_deterministic(self):
        cases, run = self._cases_and_run()
        a = evaluate_run(cases, run, polygon_order=64)
        b = evaluate_run(cases, run, polygon_order=64)
        assert a.position_rmse == b.position_rmse
        assert a.mean_iou == b.mean_iou
        assert a.mean_gwd == b.mean_gwd

    def test_shape_mismatch(self):
        cases, run = self._cases_and_run()
        with pytest.raises(ShapeMismatch):
            evaluate_run(cases[:-1], run)


def test_batched_run_scores_as_per_case_runs():
    cfg = ScenarioConfig(steps=12, cases=3, seed=29)
    cases = generate_dataset(cfg).cases
    model = nominal_cv_model(sigma_w=cfg.sigma_w)
    frames = stack_frames([c.frames for c in cases])
    states, exts, _ = run_filter(frames, model, TrackerConfig())
    runs = [run_filter(c.frames, model, TrackerConfig())[:2] for c in cases]
    want = [metrics.case_series(st, ex, [c.truth], 64)[0] for (st, ex), c in zip(runs, cases)]
    batched = evaluate_run(cases, (states, exts), 64)
    for a, b in zip(batched.per_case, want, strict=True):
        np.testing.assert_array_equal(a, b)
    assert batched.position_rmse == np.sqrt(np.mean(np.concatenate(want)[:, 0] ** 2))
    assert evaluate_run(cases[:1], runs[0], 64).per_case[0].tolist() == want[0].tolist()
    with pytest.raises(ShapeMismatch):
        evaluate_run(cases[:2], (states, exts), 64)
