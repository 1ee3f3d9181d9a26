import numpy as np
import pytest

from memtrack import training
from memtrack.errors import EmptyDataset, NonFinite
from memtrack.filtering import TrackerConfig
from memtrack.models import ScenarioConfig, nominal_cv_model
from memtrack.metrics import evaluate_run
from memtrack.network import FEATURE_DIM, forward_sequence, init_params
from memtrack.simulate import generate_dataset
from memtrack.training import TrainConfig, collect_feature_stats, sgd_step, train


@pytest.fixture(scope="module")
def tiny():
    cfg = ScenarioConfig(steps=12, cases=6, seed=51)
    ds = generate_dataset(cfg)
    model = nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
    return ds, model


def make_cfg(**kw):
    base = dict(epochs=1, folds=1, memory_dim=4, seed=0, batch_size=2,
                history_polygon=32)
    base.update(kw)
    return TrainConfig(**base)


class TestSgdStep:
    def _arrays(self):
        return {"w": np.array([1.0, 2.0]), "b": np.array([[0.5]])}

    def test_zero_grads_no_change(self):
        arrays = self._arrays()
        grads = {k: np.zeros_like(v) for k, v in arrays.items()}
        vel = {k: np.zeros_like(v) for k, v in arrays.items()}
        out, _ = sgd_step(arrays, grads, vel, make_cfg(learning_rate=0.1))
        for k in arrays:
            np.testing.assert_array_equal(out[k], arrays[k])

    def test_plain_descent(self):
        arrays = self._arrays()
        grads = {"w": np.array([0.1, -0.2]), "b": np.array([[0.3]])}
        vel = {k: np.zeros_like(v) for k, v in arrays.items()}
        out, _ = sgd_step(arrays, grads, vel,
                          make_cfg(learning_rate=1.0, momentum=0.0, clip=100.0))
        np.testing.assert_allclose(out["w"], arrays["w"] - grads["w"])
        np.testing.assert_allclose(out["b"], arrays["b"] - grads["b"])

    def test_clip_rescales_global_norm(self):
        arrays = {"w": np.zeros(1)}
        grads = {"w": np.array([10.0])}
        vel = {"w": np.zeros(1)}
        out, _ = sgd_step(arrays, grads, vel,
                          make_cfg(learning_rate=1.0, momentum=0.0, clip=1.0))
        np.testing.assert_allclose(out["w"], [-1.0])

    def test_momentum_accumulates(self):
        arrays = {"w": np.zeros(1)}
        vel = {"w": np.zeros(1)}
        cfg = make_cfg(learning_rate=1.0, momentum=0.5, clip=100.0)
        arrays, vel = sgd_step(arrays, {"w": np.array([1.0])}, vel, cfg)
        np.testing.assert_allclose(arrays["w"], [-1.0])
        arrays, vel = sgd_step(arrays, {"w": np.array([1.0])}, vel, cfg)
        np.testing.assert_allclose(arrays["w"], [-2.5])  # v = 0.5*1 + 1


class TestFeatureStats:
    def test_shapes_and_positivity(self, tiny):
        ds, model = tiny
        mean, std = collect_feature_stats(list(ds.cases[:3]), model, TrackerConfig())
        assert mean.shape == (FEATURE_DIM,) and std.shape == (FEATURE_DIM,)
        assert np.all(std > 0)
        assert np.all(np.isfinite(mean))

    def test_deterministic(self, tiny):
        ds, model = tiny
        a = collect_feature_stats(list(ds.cases[:3]), model, TrackerConfig())
        b = collect_feature_stats(list(ds.cases[:3]), model, TrackerConfig())
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestTrain:
    def test_zero_lr_preserves_init(self, tiny):
        ds, model = tiny
        cfg = make_cfg(learning_rate=0.0, seed=9)
        params, history, folds = train(ds.train_cases, model, cfg)
        assert len(history) == 1 and len(folds) == 1
        # reproduce the fold-0 initialization: same seed stream, stats frozen
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((9, 0))))
        expect = init_params(4, rng)
        for name in expect.arrays:
            np.testing.assert_array_equal(params.arrays[name], expect.arrays[name])

    def test_history_one_row_per_fold_epoch(self, tiny):
        ds, model = tiny
        cfg = make_cfg(epochs=2, folds=2, learning_rate=0.0)
        _, history, folds = train(ds.train_cases, model, cfg)
        assert len(history) == 4
        assert [(r.fold, r.epoch) for r in history] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(folds) == 2

    def test_empty_dataset_rejected(self, tiny):
        _, model = tiny
        with pytest.raises(EmptyDataset):
            train([], model, make_cfg())

    @pytest.mark.parametrize("name", ["evo_shift_b", "evo_cov_b", "evo_ext_b", "upd_shift_b",
                                      "upd_scale_b", "lstm_b", "memcov_b"])
    def test_poisoned_bias_is_skipped(self, tiny, name):
        """A NaN in any head or memory bias skips the sequence (NaN loss, zero
        gradients) and makes the plain forward raise NonFinite."""
        ds, model = tiny
        params = init_params(4, np.random.default_rng(0))
        params.arrays[name] = np.full_like(params.arrays[name], np.nan)
        loss, grads = training._sequence_gradients(params, ds.cases[0], model, make_cfg())
        assert np.isnan(loss) and all(not g.any() for g in grads.values())
        with pytest.raises(NonFinite), np.errstate(invalid="ignore"):
            forward_sequence(params, ds.cases[0].frames, model, TrackerConfig())

    def test_validation_scores_pool_every_case(self):
        cfg = ScenarioConfig(steps=6, cases=10, seed=52)
        cases = generate_dataset(cfg).cases
        model = nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
        params = init_params(4, np.random.default_rng(0))
        tcfg = make_cfg()
        runs = [forward_sequence(params, c.frames, model, tcfg.tracker)[:2] for c in cases]
        rep = evaluate_run(cases, runs, polygon_order=tcfg.history_polygon)
        _, rmse, iou, gwd = training._validation_scores(params, cases, model, tcfg)
        assert (rmse, iou, gwd) == (rep.position_rmse, rep.mean_iou, rep.mean_gwd)

    def test_no_finite_validation_loss_raises(self, tiny, monkeypatch):
        ds, model = tiny
        monkeypatch.setattr(training, "_validation_loss", lambda *a: (float("inf"), None))
        with pytest.raises(NonFinite):
            train(ds.train_cases, model, make_cfg(learning_rate=0.0))

    def test_masked_variants_run(self, tiny):
        ds, model = tiny
        for mask in ("mask_evolution", "mask_update", "mask_memory"):
            cfg = make_cfg(**{mask: True})
            params, history, _ = train(ds.train_cases, model, cfg)
            assert getattr(params, mask)
            assert np.isfinite(history[-1].val_loss)

    def test_deterministic_trajectory(self, tiny):
        ds, model = tiny
        cfg = make_cfg(epochs=2, learning_rate=1e-3)
        a, _, _ = train(ds.train_cases, model, cfg)
        b, _, _ = train(ds.train_cases, model, cfg)
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])
