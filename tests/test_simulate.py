import numpy as np
import pytest
import stepwise_simulate as stepwise

from memtrack import simulate
from memtrack.models import (
    SCATTER_SCALE,
    ScenarioConfig,
    cv_process_noise,
    cv_transition_matrix,
)
from memtrack.simulate import generate_case, generate_dataset, generate_trajectory
from memtrack.spdmat import cholesky

ct_transition = stepwise.ct_transition


class TestCtTransition:
    """The coordinated turn of the stepwise oracle, which the simulator's
    trajectories reproduce bit for bit (``TestStepwiseReference``)."""

    def test_zero_rate_equals_cv_exactly(self):
        x = np.array([1.0, -2.0, 3.0, 4.0])
        np.testing.assert_array_equal(ct_transition(x, 0.0, 0.7), cv_transition_matrix(0.7) @ x)

    def test_quarter_turn(self):
        out = ct_transition(np.array([0.0, 0.0, 1.0, 0.0]), np.pi / 2, 1.0)
        np.testing.assert_allclose(out, [2 / np.pi, 2 / np.pi, 0.0, 1.0], atol=1e-12)

    def test_speed_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(4) * 5
            out = ct_transition(x, rng.uniform(-0.2, 0.2), 1.0)
            np.testing.assert_allclose(np.hypot(out[2], out[3]), np.hypot(x[2], x[3]),
                                       rtol=1e-12)

    def test_series_branch_continuous(self):
        x = np.array([1.0, 2.0, 3.0, -4.0])
        just_below = ct_transition(x, 0.9999e-6, 1.0)
        just_above = ct_transition(x, 1.0001e-6, 1.0)
        np.testing.assert_allclose(just_below, just_above, atol=1e-9)


class TestGenerateTrajectory:
    def test_pure_cv_noise_free_is_straight(self):
        cfg = ScenarioConfig(steps=50, cases=1, sigma_w=1e-12, regimes="cv", seed=1)
        rng = np.random.default_rng(1)
        truth = generate_trajectory(cfg, rng)
        v = truth.states[0, 2:]
        expected = truth.states[0, :2] + np.arange(50)[:, None] * v * cfg.dt
        np.testing.assert_allclose(truth.states[:, :2], expected, atol=1e-6)
        # fixed orientation: extents identical
        np.testing.assert_allclose(
            truth.extents, np.tile(truth.extents[0], (50, 1, 1)), atol=1e-6)

    def test_single_ct_segment_rotates_heading_and_extent(self):
        cfg = ScenarioConfig(steps=31, cases=1, sigma_w=1e-15, segment_min=500,
                             segment_max=600, turn_rate_min=3.0, turn_rate_max=3.0, seed=0)
        rng = np.random.default_rng(3)
        # force a CT segment by drawing until the first regime is CT
        truth = None
        for probe in range(50):
            rng = np.random.default_rng(probe)
            t = generate_trajectory(cfg, rng)
            if t.regimes[1] == simulate.REGIME_CT:
                truth = t
                break
        assert truth is not None
        h0 = np.arctan2(truth.states[0, 3], truth.states[0, 2])
        h30 = np.arctan2(truth.states[30, 3], truth.states[30, 2])
        swept = np.unwrap([h0, h30])[1] - h0
        np.testing.assert_allclose(abs(np.degrees(swept)), 90.0, atol=1e-6)
        # extent rotated by the same 90 degrees: major axis direction swaps
        e0, e30 = truth.extents[0], truth.extents[30]
        w0, u0 = np.linalg.eigh(e0)
        w30, u30 = np.linalg.eigh(e30)
        np.testing.assert_allclose(np.sort(w0), np.sort(w30), rtol=1e-9)
        major0 = u0[:, 1]
        major30 = u30[:, 1]
        assert abs(np.dot(major0, major30)) < 1e-6

    def test_fixed_extent_eigenvalues(self):
        cfg = ScenarioConfig(steps=40, cases=1, seed=7)
        truth = generate_trajectory(cfg, np.random.default_rng(7))
        eigs = np.sort(np.linalg.eigvalsh(truth.extents), axis=1)
        np.testing.assert_allclose(eigs, np.tile([1.0, 25.0], (40, 1)), rtol=1e-9)

    def test_heading_orientation_match(self):
        cfg = ScenarioConfig(steps=25, cases=1, seed=9)
        truth = generate_trajectory(cfg, np.random.default_rng(9))
        for k in range(25):
            heading = np.arctan2(truth.states[k, 3], truth.states[k, 2])
            _, u = np.linalg.eigh(truth.extents[k])
            major = u[:, 1]
            cross = abs(major[0] * np.sin(heading) - major[1] * np.cos(heading))
            assert cross < 1e-9

    def test_ct_segments_make_heading_increments_correlated(self):
        cfg = ScenarioConfig(steps=140, cases=1, sigma_w=0.05, seed=11)
        truth = generate_trajectory(cfg, np.random.default_rng(11))
        headings = np.unwrap(np.arctan2(truth.states[:, 3], truth.states[:, 2]))
        inc = np.diff(headings)
        ct = truth.regimes[1:-1] == simulate.REGIME_CT
        if ct.sum() > 10:
            lag1 = np.corrcoef(inc[:-1][ct[: len(inc) - 1]], inc[1:][ct[: len(inc) - 1]])[0, 1]
            assert lag1 > 0.5  # persistent turning, not i.i.d. increments

    def test_white_accel_noise_is_the_nominal_process_noise(self):
        cfg = ScenarioConfig(steps=4001, cases=1, dt=0.5, regimes="cv",
                             process_noise="white_accel", seed=0)
        truth = generate_trajectory(cfg, np.random.default_rng(4))
        noise = truth.states[1:] - truth.states[:-1] @ cv_transition_matrix(cfg.dt).T
        q = cv_process_noise(cfg.sigma_w, cfg.dt)
        scale = 1.0 / np.sqrt(np.diag(q))
        # 4000 draws: correlation and relative-variance errors are ~0.02
        np.testing.assert_allclose(scale[:, None] * np.cov(noise.T) * scale,
                                   scale[:, None] * q * scale, atol=0.1)


class TestGenerateFrame:
    """The frames of generated cases."""

    def test_uniform_ellipse_second_moment(self):
        # whitened by its extent's factor, a frame is uniform over the unit
        # disk, whose covariance is I / 4: the filter's SCATTER_SCALE
        cfg = ScenarioConfig(steps=5000, cases=1, sigma_v=1e-12, scatter_rate=20.0, seed=12)
        case = generate_case(cfg, cfg.seed, 0)
        disk = np.concatenate([
            np.linalg.solve(cholesky(extent), (frame - state[:2]).T).T
            for state, extent, frame in zip(case.truth.states, case.truth.extents, case.frames)
        ])
        np.testing.assert_allclose(np.cov(disk.T), SCATTER_SCALE * np.eye(2), rtol=0, atol=0.0075)

    def test_poisson_rate(self):
        cfg = ScenarioConfig(steps=10000, cases=1, scatter_rate=20.0, seed=13)
        counts = [len(f) for f in generate_case(cfg, cfg.seed, 0).frames]
        assert abs(np.mean(counts) - 20.0) / 20.0 < 0.02
        assert min(counts) >= 2

    def test_degenerate_extent_guarded(self):
        # the extents underflow to zero; the factor's clamp keeps points finite
        cfg = ScenarioConfig(steps=20, cases=1, axis_major=1e-200, axis_minor=1e-200, seed=14)
        case = generate_case(cfg, cfg.seed, 0)
        assert not case.truth.extents.any()
        assert all(np.isfinite(frame).all() for frame in case.frames)


class TestGenerateDataset:
    def test_shapes_and_split(self):
        cfg = ScenarioConfig(steps=30, cases=10, seed=3)
        ds = generate_dataset(cfg)
        assert len(ds.cases) == 10
        assert len(ds.train_cases) == 8
        assert [id(c) for c in ds.train_cases + ds.test_cases] == [id(c) for c in ds.cases]
        assert all(len(c.frames) == 30 for c in ds.cases)

    def test_default_benchmark_sizes(self):
        ds = simulate.Dataset(cases=list(range(600)), config=ScenarioConfig())  # stand-in cases
        assert ds.config.cases == 600 and ds.config.steps == 140
        assert (len(ds.train_cases), len(ds.test_cases)) == (480, 120)

    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig(steps=12, cases=3, seed=5)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        for ca, cb in zip(a.cases, b.cases):
            np.testing.assert_array_equal(ca.truth.states, cb.truth.states)
            for fa, fb in zip(ca.frames, cb.frames):
                np.testing.assert_array_equal(fa, fb)

    def test_case_regenerates_from_the_config_seed(self):
        cfg = ScenarioConfig(steps=5, cases=4, seed=77)
        ds = generate_dataset(cfg)
        regen = generate_case(cfg, 77, 2)
        np.testing.assert_array_equal(regen.truth.states, ds.cases[2].truth.states)


# (name, scenario) pairs the batched generator must reproduce step by step
REFERENCE_SCENARIOS = [
    ("cv_ct-direct", dict(steps=140, cases=3)),
    ("cv-white_accel", dict(steps=60, cases=2, regimes="cv", process_noise="white_accel",
                            dt=0.5)),
    ("cv_ct-white_accel", dict(steps=50, cases=2, process_noise="white_accel", dt=0.7)),
    ("two-steps", dict(steps=2, cases=4)),
    ("zero-extent", dict(steps=20, cases=2, axis_major=1e-200, axis_minor=1e-200)),
    ("sparse-frames", dict(steps=40, cases=2, scatter_rate=1.0)),
    ("one-step-segments", dict(steps=30, cases=2, segment_min=1, segment_max=1, dt=1.3)),
    ("near-zero-turns", dict(steps=30, cases=2, turn_rate_min=0.0, turn_rate_max=1e-5)),
    ("segments-past-the-end", dict(steps=25, cases=2, segment_min=30, segment_max=90)),
]


class TestStepwiseReference:
    """generate_case and generate_dataset consume every case's stream as the
    step-by-step generator in ``stepwise_simulate`` does, and give its
    trajectories and frames.

    Frame counts, states, extents, regimes, omegas and the points' first
    coordinate agree bit for bit.  The second coordinate sums two products
    of the extent's factor, which a BLAS 2x2 product may fuse: it may differ
    by a few ulp of the coordinate.  The bound, 1e-12 m, is about four ulp
    of a float64 below 2 km, which no path here leaves.
    """

    @pytest.mark.parametrize("name, settings", REFERENCE_SCENARIOS,
                             ids=[n for n, _ in REFERENCE_SCENARIOS])
    def test_dataset_reproduces_the_stepwise_generator(self, name, settings):
        cfg = ScenarioConfig(seed=4, **settings)
        ds = generate_dataset(cfg)
        for i, case in enumerate(ds.cases):
            states, extents, regimes, omegas, frames = stepwise.case(cfg, cfg.seed, i)
            truth = case.truth
            np.testing.assert_array_equal(truth.states, states)
            np.testing.assert_array_equal(truth.extents, extents)
            np.testing.assert_array_equal(truth.regimes, regimes)
            np.testing.assert_array_equal(truth.omegas, omegas)
            assert truth.regimes.dtype == regimes.dtype
            assert [len(f) for f in case.frames] == [len(f) for f in frames]
            for got, want in zip(case.frames, frames):
                np.testing.assert_array_equal(got[:, 0], want[:, 0])
                np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=0, atol=1e-12)

    def test_sparse_frames_redraw_small_counts(self):
        # the sparse-frames reference covers the n < 2 redraws only if the
        # stepwise generator makes some
        class CountingPoisson:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def poisson(self, lam):
                self.calls += 1
                return self.rng.poisson(lam)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        cfg = ScenarioConfig(seed=4, **dict(REFERENCE_SCENARIOS)["sparse-frames"])
        rng = CountingPoisson(np.random.Generator(np.random.PCG64(np.random.SeedSequence((4, 0)))))
        states, extents, *_ = stepwise.trajectory(cfg, rng)
        for k in range(cfg.steps):
            stepwise.frame(states[k], extents[k], cfg, rng)
        assert rng.calls > cfg.steps + 10

    def test_trajectory_leaves_the_stream_where_the_stepwise_one_does(self):
        for settings in ({}, dict(regimes="cv", process_noise="white_accel")):
            cfg = ScenarioConfig(steps=77, cases=1, **settings)
            a, b = np.random.default_rng(8), np.random.default_rng(8)
            truth = generate_trajectory(cfg, a)
            states, *_ = stepwise.trajectory(cfg, b)
            np.testing.assert_array_equal(truth.states, states)
            assert a.bit_generator.state == b.bit_generator.state

    def test_frames_are_consecutive_slices_of_one_array(self):
        case = generate_case(ScenarioConfig(steps=10, cases=1), 0, 0)
        points = case.frames.points
        assert points.base is None and all(f.base is points for f in case.frames)
        assert all(np.shares_memory(f, points) for f in case.frames)
        assert case.frames.counts.tolist() == [len(f) for f in case.frames]
        assert sum(len(f) for f in case.frames) == len(points)
