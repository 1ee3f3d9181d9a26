import numpy as np
import pytest

from memtrack import models
from memtrack.errors import EmptyFrame


class TestCvTransition:
    def test_straight_line(self):
        out = models.cv_transition_matrix(1.0) @ np.array([0.0, 0.0, 10.0, 0.0])
        np.testing.assert_array_equal(out, [10.0, 0.0, 10.0, 0.0])

    def test_zero_velocity_fixed_point(self):
        out = models.cv_transition_matrix(1.0) @ np.array([1.0, 2.0, 0.0, 0.0])
        np.testing.assert_array_equal(out, [1.0, 2.0, 0.0, 0.0])

    def test_composition(self):
        half = models.cv_transition_matrix(0.5)
        np.testing.assert_allclose(half @ half, models.cv_transition_matrix(1.0), atol=1e-12)


class TestLinearMeasurement:
    def test_selects_position(self):
        out = models.MEASUREMENT_MATRIX @ np.array([3.0, 4.0, 1.0, 1.0])
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_zero_position(self):
        out = models.MEASUREMENT_MATRIX @ np.array([0.0, 0.0, 5.0, 5.0])
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestFrameStats:
    def test_single_point(self):
        fs = models.frame_stats(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(fs.mean, [1.0, 1.0])
        np.testing.assert_array_equal(fs.scatter, np.zeros((2, 2)))
        assert fs.count == 1

    def test_two_points_hand_computed(self):
        fs = models.frame_stats(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(fs.mean, [1.0, 0.0])
        np.testing.assert_array_equal(fs.scatter, [[2.0, 0.0], [0.0, 0.0]])

    def test_coincident_points(self):
        pts = np.tile([3.0, -1.0], (3, 1))
        fs = models.frame_stats(pts)
        np.testing.assert_allclose(fs.scatter, np.zeros((2, 2)), atol=1e-12)

    def test_empty_frame_rejected(self):
        with pytest.raises(EmptyFrame):
            models.frame_stats(np.empty((0, 2)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((12, 2))
        a = models.frame_stats(pts)
        b = models.frame_stats(pts[::-1].copy())
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.scatter, b.scatter, atol=1e-9)

    def test_translation_invariant_scatter(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((9, 2))
        a = models.frame_stats(pts)
        b = models.frame_stats(pts + np.array([100.0, -40.0]))
        np.testing.assert_allclose(a.scatter, b.scatter, atol=1e-9)

    def test_scatter_psd(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((20, 2)) * 3.0
        fs = models.frame_stats(pts)
        assert np.min(np.linalg.eigvalsh(fs.scatter)) >= -1e-12


class TestCvProcessNoise:
    def test_unit_block(self):
        q = models.cv_process_noise(1.0, 1.0)
        np.testing.assert_allclose(q[np.ix_([0, 2], [0, 2])], [[0.25, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(q[np.ix_([1, 3], [1, 3])], [[0.25, 0.5], [0.5, 1.0]])

    def test_rejects_zero_sigma(self):
        with pytest.raises(ValueError):
            models.cv_process_noise(0.0, 1.0)

    def test_quadratic_scaling(self):
        np.testing.assert_allclose(
            models.cv_process_noise(2.0, 1.0), 4.0 * models.cv_process_noise(1.0, 1.0))


class TestNominalCvModel:
    @pytest.mark.parametrize("settings", [
        {"sigma_w": 0.0}, {"sigma_w": -1.0}, {"sigma_w": np.nan}, {"sigma_w": np.inf},
        {"sigma_w": 0.4, "delta": 0.0}, {"sigma_w": 0.4, "delta": -1.0},
        {"sigma_w": 0.4, "delta": np.nan}, {"sigma_w": 0.4, "delta": np.inf},
    ])
    def test_rejects_non_positive_or_non_finite(self, settings):
        with pytest.raises(ValueError):
            models.nominal_cv_model(**settings)


class TestScenarioConfig:
    def test_defaults(self):
        cfg = models.ScenarioConfig()
        assert cfg.steps == 140 and cfg.cases == 600
        assert (cfg.axis_major, cfg.axis_minor) == (10.0, 2.0)
        assert cfg.scatter_rate == 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            models.ScenarioConfig(steps=1)
        with pytest.raises(ValueError):
            models.ScenarioConfig(sigma_w=-1.0)
        with pytest.raises(ValueError):
            models.ScenarioConfig(regimes="zigzag")

    @pytest.mark.parametrize("segment_min", [0, -3])
    def test_segment_min_below_one_rejected(self, segment_min):
        # a zero-length segment would drive the countdown negative and the
        # regime would never switch again
        with pytest.raises(ValueError, match="segment_min"):
            models.ScenarioConfig(segment_min=segment_min, segment_max=1)

    def test_segment_max_below_segment_min_rejected(self):
        with pytest.raises(ValueError, match="segment_max"):
            models.ScenarioConfig(segment_min=10, segment_max=9)
        assert models.ScenarioConfig(segment_min=3, segment_max=3).segment_max == 3

    @pytest.mark.parametrize("low, high", [
        (-1.0, 5.0), (6.0, 5.0), (1.0, np.inf), (np.nan, 5.0), (1.0, np.nan),
    ])
    def test_turn_rates_outside_their_range_rejected(self, low, high):
        with pytest.raises(ValueError, match="turn_rate"):
            models.ScenarioConfig(turn_rate_min=low, turn_rate_max=high)

    def test_turn_rate_bounds_may_be_zero_and_equal(self):
        cfg = models.ScenarioConfig(turn_rate_min=0.0, turn_rate_max=0.0)
        assert cfg.turn_rate_max == 0.0


def _textbook_stats(points):
    """Mean and scatter of one frame by the direct formulas."""
    mean = points.mean(axis=0)
    centered = points - mean
    return mean, centered.T @ centered


class TestReduceFrames:
    def _frames(self, seed, count=12):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((int(n), 2)) * [4.0, 1.0] + rng.uniform(-50, 50, 2)
                for n in rng.integers(1, 30, count)]

    def test_matches_direct_formulas(self):
        for fs, pts in zip(models.reduce_frames(self._frames(3)), self._frames(3)):
            mean, scatter = _textbook_stats(pts)
            assert fs.count == len(pts) and isinstance(fs.count, int)
            np.testing.assert_allclose(fs.mean, mean, rtol=1e-12, atol=1e-12 * 50)
            np.testing.assert_allclose(fs.scatter, scatter, rtol=1e-12,
                                       atol=1e-12 * np.abs(scatter).max())
            np.testing.assert_array_equal(fs.scatter, fs.scatter.T)

    def test_frame_stats_is_the_one_frame_case(self):
        frames = self._frames(4)
        for fs, pts in zip(models.reduce_frames(frames), frames):
            one = models.frame_stats(pts)
            np.testing.assert_array_equal(one.mean, fs.mean)
            np.testing.assert_array_equal(one.scatter, fs.scatter)
            assert one.count == fs.count

    def test_batch_rows_are_the_cases_frames(self):
        runs = [self._frames(seed, count=5) for seed in (5, 6, 7)]
        batch = models.reduce_frames(models.stack_frames(runs))
        for i, frames in enumerate(runs):
            for fs, one in zip(batch, models.reduce_frames(frames)):
                np.testing.assert_array_equal(fs.mean[i], one.mean)
                np.testing.assert_array_equal(fs.scatter[i], one.scatter)
                assert fs.count[i] == one.count

    def test_scatter_is_the_outer_product_sum_bit_for_bit(self):
        """The three per-entry sums equal the reduceat of the (P, 2, 2) outer
        products, on a ragged batch; the frames are left as they were."""
        runs = [self._frames(seed, count=9) for seed in (10, 11, 12)]
        runs[1][4] = runs[1][4][:1]
        kept = [[f.copy() for f in frames] for frames in runs]
        batch = models.reduce_frames(models.stack_frames(runs))
        flat = [f for step in models.stack_frames(runs) for f in step]
        counts = np.array([len(f) for f in flat])
        points = np.concatenate(flat)
        starts = np.cumsum(counts) - counts
        mean = np.add.reduceat(points, starts, axis=0) / counts[:, None]
        centered = points - np.repeat(mean, counts, axis=0)
        outer = np.add.reduceat(centered[:, :, None] * centered[:, None, :], starts, axis=0)
        np.testing.assert_array_equal(np.stack([fs.scatter for fs in batch]),
                                      outer.reshape(9, 3, 2, 2))
        np.testing.assert_array_equal(np.stack([fs.mean for fs in batch]), mean.reshape(9, 3, 2))
        for frames, copies in zip(runs, kept):
            for f, c in zip(frames, copies):
                np.testing.assert_array_equal(f, c)

    @pytest.mark.parametrize("empty", [0, 5, 11])
    def test_empty_frame_rejected_anywhere(self, empty):
        """reduceat reads a neighbouring point for an empty segment, and past
        the end for an empty last frame: both must raise instead."""
        frames = self._frames(8)
        frames[empty] = np.empty((0, 2))
        with pytest.raises(EmptyFrame):
            models.reduce_frames(frames)
        with pytest.raises(EmptyFrame):
            models.reduce_frames(models.stack_frames([self._frames(9), frames]))
