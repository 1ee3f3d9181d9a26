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
