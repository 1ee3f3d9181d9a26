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

    def test_b_constants_derived_once(self):
        b = np.array([[0.6, 0.1], [0.1, 0.4]])
        model = models.nominal_cv_model(sigma_w=0.4, b=b)
        assert model.b_inv is model.b_inv
        np.testing.assert_allclose(model.b_inv @ b, np.eye(2), atol=1e-15)


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
