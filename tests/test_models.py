import numpy as np
import pytest

from list_frames import batch_of, frames_of, reduce_frame_list
from memtrack import models
from memtrack.errors import EmptyFrame, ShapeMismatch


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
        stats = models.reduce_frames(frames_of(self._frames(3)))
        assert stats.mean.shape == (12, 2) and stats.scatter.shape == (12, 2, 2)
        assert stats.count.shape == (12,) and stats.count.dtype == np.int64
        for fs, pts in zip(map(models.FrameStats, *stats), self._frames(3)):
            mean, scatter = _textbook_stats(pts)
            assert fs.count == len(pts) and isinstance(fs.count, np.int64)
            np.testing.assert_allclose(fs.mean, mean, rtol=1e-12, atol=1e-12 * 50)
            np.testing.assert_allclose(fs.scatter, scatter, rtol=1e-12,
                                       atol=1e-12 * np.abs(scatter).max())
            np.testing.assert_array_equal(fs.scatter, fs.scatter.T)

    def test_frame_stats_is_the_one_frame_case(self):
        frames = self._frames(4)
        for fs, pts in zip(map(models.FrameStats, *models.reduce_frames(frames_of(frames))),
                           frames):
            one = models.frame_stats(pts)
            np.testing.assert_array_equal(one.mean, fs.mean)
            np.testing.assert_array_equal(one.scatter, fs.scatter)
            assert one.count == fs.count and isinstance(one.count, np.int64)

    def test_batch_rows_are_the_cases_frames(self):
        runs = [self._frames(seed, count=5) for seed in (5, 6, 7)]
        batch = models.reduce_frames(batch_of(runs))
        assert batch.mean.shape == (5, 3, 2) and batch.scatter.shape == (5, 3, 2, 2)
        assert batch.count.shape == (5, 3) and batch.count.dtype == np.int64
        for i, frames in enumerate(runs):
            one = models.reduce_frames(frames_of(frames))
            np.testing.assert_array_equal(batch.mean[:, i], one.mean)
            np.testing.assert_array_equal(batch.scatter[:, i], one.scatter)
            np.testing.assert_array_equal(batch.count[:, i], one.count)

    def test_scatter_is_the_outer_product_sum_bit_for_bit(self):
        """The three per-entry sums equal the reduceat of the (P, 2, 2) outer
        products, on a ragged batch; the frames are left as they were."""
        runs = [self._frames(seed, count=9) for seed in (10, 11, 12)]
        runs[1][4] = runs[1][4][:1]
        frames = batch_of(runs)
        kept = frames.points.copy()
        batch = models.reduce_frames(frames)
        flat = [f for step in zip(*runs) for f in step]
        counts = np.array([len(f) for f in flat])
        points = np.concatenate(flat)
        starts = np.cumsum(counts) - counts
        mean = np.add.reduceat(points, starts, axis=0) / counts[:, None]
        centered = points - np.repeat(mean, counts, axis=0)
        outer = np.add.reduceat(centered[:, :, None] * centered[:, None, :], starts, axis=0)
        np.testing.assert_array_equal(batch.scatter, outer.reshape(9, 3, 2, 2))
        np.testing.assert_array_equal(batch.mean, mean.reshape(9, 3, 2))
        np.testing.assert_array_equal(frames.points, kept)

    @pytest.mark.parametrize("empty", [0, 5, 11])
    def test_empty_frame_rejected_anywhere(self, empty):
        """reduceat reads a neighbouring point for an empty segment, and past
        the end for an empty last frame: both must raise instead."""
        frames = self._frames(8)
        frames[empty] = np.empty((0, 2))
        with pytest.raises(EmptyFrame):
            models.reduce_frames(frames_of(frames))
        with pytest.raises(EmptyFrame):
            models.reduce_frames(batch_of([self._frames(9), frames]))

    @pytest.mark.parametrize("sizes", [None, (1,) * 7, (2,) * 7, (1, 2, 1, 2, 2, 1, 1)],
                             ids=["ragged", "one-point", "two-point", "one-and-two-point"])
    def test_equals_the_list_reduction_bit_for_bit(self, sizes):
        """One case's and a 3-case batch's statistics are the list-based
        reduction's, bit for bit, one- and two-point frames included."""
        rng = np.random.default_rng(13)
        runs = [self._frames(seed, count=7) if sizes is None else
                [rng.uniform(-50, 50, (n, 2)) for n in sizes] for seed in (14, 15, 16)]
        for got, want in ((models.reduce_frames(frames_of(runs[0])), reduce_frame_list(runs[0])),
                          (models.reduce_frames(batch_of(runs)),
                           reduce_frame_list(list(zip(*runs))))):
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape and g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    def test_reducing_leaves_the_points_as_they_were(self):
        """The reduction centres a copy: a case's Frames holds its dataset's
        own array, so reducing it twice gives one result and no change."""
        frames = frames_of(self._frames(17))
        kept = frames.points.copy()
        first = models.reduce_frames(frames)
        second = models.reduce_frames(frames)
        np.testing.assert_array_equal(frames.points, kept)
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a, b)


class TestFrames:
    """A Frames reads as the list of frame arrays it replaced."""

    def _runs(self):
        rng = np.random.default_rng(18)
        return [[rng.standard_normal((int(n), 2)) for n in rng.integers(1, 9, 6)]
                for _ in range(3)]

    def test_case_reads_as_its_list(self):
        arrays = self._runs()[0]
        frames = frames_of(arrays)
        assert len(frames) == len(arrays)
        for k in range(-len(arrays), len(arrays)):
            np.testing.assert_array_equal(frames[k], arrays[k])
            assert np.shares_memory(frames[k], frames.points)
        for got, want in zip(frames, arrays, strict=True):
            np.testing.assert_array_equal(got, want)
        for index in (slice(1, None), slice(2, 4), slice(None, -1), slice(4, 2)):
            part = frames[index]
            assert isinstance(part, models.Frames) and len(part) == len(arrays[index])
            assert len(part) == 0 or np.shares_memory(part.points, frames.points)
            for got, want in zip(part, arrays[index], strict=True):
                np.testing.assert_array_equal(got, want)
        for index in (len(arrays), -len(arrays) - 1):
            with pytest.raises(IndexError):
                frames[index]
        with pytest.raises(ValueError):
            frames[::2]

    def test_batch_reads_as_its_tuples(self):
        runs = self._runs()
        frames = batch_of(runs)
        steps = list(zip(*runs))
        assert len(frames) == len(steps) and frames.counts.shape == (len(steps), 3)
        for got, want in zip(frames, steps, strict=True):
            assert isinstance(got, tuple) and len(got) == 3
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)
        assert all(np.shares_memory(f, frames.points) for f in frames[-1])
        rest = frames[1:]
        assert rest.counts.shape == (len(steps) - 1, 3)
        for got, want in zip(rest, steps[1:], strict=True):
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)

    def test_points_must_match_the_counts(self):
        with pytest.raises(ShapeMismatch):
            models.Frames(np.zeros((5, 2)), [2, 2])
        with pytest.raises(ShapeMismatch):
            models.Frames(np.zeros(4), [2, 2])
