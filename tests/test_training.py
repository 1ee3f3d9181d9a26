import gc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from list_frames import frames_of
from memtrack import cli, filtering, network, ops, training
from memtrack.errors import EmptyDataset, NonFinite, NotPositiveDefinite, SingularInnovation
from memtrack.filtering import ZERO_EVOLUTION, ZERO_MEASUREMENT, TrackerConfig, run_filter
from memtrack.models import ScenarioConfig, frame_features, nominal_cv_model
from memtrack.metrics import case_series, evaluate_run
from memtrack.network import FEATURE_DIM, forward_sequence, init_params, raw_features
from memtrack.simulate import SimCase, generate_case, generate_dataset
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

    def test_a_collapsed_covariance_is_skipped(self, tiny):
        """A covariance head driven out of range (its scale excess -1 where
        softplus underflows) collapses the predicted state covariance to 0.
        No clamp hides that: the log-variance features turn infinite, numpy
        warns of nothing, and the sequence is skipped (NaN loss, zero
        gradients); a validation pass over it scores inf."""
        ds, model = tiny
        params = init_params(4, np.random.default_rng(0))
        params.arrays["evo_cov_b"][:] = -800.0
        loss, grads = training._sequence_gradients(params, ds.cases[0], model, make_cfg())
        assert np.isnan(loss) and all(not g.any() for g in grads.values())
        assert training._validation_loss(params, ds.cases[:2], model, TrackerConfig()) \
            == (float("inf"), None)

    @pytest.mark.parametrize("error", [NonFinite, NotPositiveDefinite, SingularInnovation])
    def test_every_divergence_error_is_a_skip(self, tiny, monkeypatch, error):
        """What a diverged belief raises, a non-finite value, a feature extent
        that is not positive definite or a singular innovation, skips the
        sequence and makes a validation pass score inf."""
        ds, model = tiny
        params = init_params(4, np.random.default_rng(0))

        def diverged(*args, **kwargs):
            raise error("diverged")

        monkeypatch.setattr(training, "_run_loss", diverged)
        loss, grads = training._sequence_gradients(params, ds.cases[0], model, make_cfg())
        assert np.isnan(loss) and all(not g.any() for g in grads.values())
        assert training._validation_loss(params, ds.cases[:2], model, TrackerConfig()) \
            == (float("inf"), None)

    def test_absurd_loss_is_skipped_before_the_backward_pass(self, tiny, monkeypatch):
        """A finite loss above 1e9 skips the sequence (NaN loss, zero
        gradients) without running the backward pass."""
        ds, model = tiny
        params = init_params(4, np.random.default_rng(0))
        loss_of, backward_calls = training.sequence_loss, []

        def absurd(*args, **kwargs):
            loss = loss_of(*args, **kwargs)
            return ops.node(ops.value(loss) + 2e9, (loss,), lambda g: (g,))

        monkeypatch.setattr(training, "sequence_loss", absurd)
        monkeypatch.setattr(ops.Tape, "backward", lambda tape, out: backward_calls.append(out))
        loss, grads = training._sequence_gradients(params, ds.cases[0], model, make_cfg())
        assert np.isnan(loss) and backward_calls == []
        assert list(grads) == list(params.arrays)
        for name, g in grads.items():
            assert g.shape == params.arrays[name].shape and not g.any()

    def test_validation_scores_pool_every_case(self):
        cfg = ScenarioConfig(steps=6, cases=10, seed=52)
        cases = generate_dataset(cfg).cases
        model = nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
        params = init_params(4, np.random.default_rng(0))
        tcfg = make_cfg()
        rows = np.concatenate([
            case_series(*forward_sequence(params, c.frames, model, tcfg.tracker)[:2], [c.truth],
                        tcfg.history_polygon)[0] for c in cases])
        _, rmse, iou, gwd = training._validation_scores(params, cases, model, tcfg)
        assert (rmse, iou, gwd) == (np.sqrt(np.mean(rows[:, 0] ** 2)), np.mean(rows[:, 1]),
                                    np.mean(rows[:, 2]))

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


def _feature_sums_reference(cases, model, tcfg):
    """The feature statistics by one single-case pass per case, summing each
    step's features in order, as collect_feature_stats did case by case."""
    acc, acc2, count = np.zeros(FEATURE_DIM), np.zeros(FEATURE_DIM), 0

    class Sums:
        def start(self, stats):
            self.frames = iter(frame_features(stats))

        def evolve(self, state, ext, fs):
            nonlocal acc, acc2, count
            feats = raw_features(state, ext, fs, next(self.frames))
            acc, acc2, count = acc + feats, acc2 + feats * feats, count + 1
            return ZERO_EVOLUTION

        def measure(self, pred, ext_pred):
            return ZERO_MEASUREMENT

    for case in cases:
        run_filter(case.frames, model, tcfg, Sums())
    mean = acc / count
    return mean, np.sqrt(np.maximum(acc2 / count - mean * mean, 1e-12))


class TestBatchedPasses:
    """Feature statistics, validation and evaluation run every case in one
    batched filter pass, each case's numbers equal to its own run."""

    @pytest.fixture(scope="class")
    def cases(self):
        return generate_dataset(ScenarioConfig(steps=15, cases=5, seed=53)).cases

    @pytest.fixture(scope="class")
    def params(self, cases, tiny):
        _, model = tiny
        params = init_params(4, np.random.default_rng(1))
        for name, arr in params.arrays.items():
            params.arrays[name] = arr + 0.05 * np.random.default_rng(2).standard_normal(arr.shape)
        params.feat_mean, params.feat_std = collect_feature_stats(cases, model, TrackerConfig())
        return params

    def test_feature_stats_equal_a_per_case_pass(self, cases, tiny):
        _, model = tiny
        got = collect_feature_stats(cases, model, TrackerConfig())
        want = _feature_sums_reference(cases, model, TrackerConfig())
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_validation_loss_is_the_mean_of_single_case_losses(self, cases, params, tiny):
        _, model = tiny
        loss, run = training._validation_loss(params, cases, model, TrackerConfig())
        singles = [training._validation_loss(params, [c], model, TrackerConfig())[0]
                   for c in cases]
        assert loss == np.mean(singles)
        want = [case_series(*forward_sequence(params, c.frames, model)[:2], [c.truth], 32)[0]
                for c in cases]
        for a, b in zip(evaluate_run(cases, run, 32).per_case, want, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_one_non_finite_case_makes_the_batch_infinite(self, cases, params, tiny):
        _, model = tiny
        broken = SimCase(truth=cases[2].truth,
                         frames=frames_of([*cases[2].frames[:4],
                                           np.array([[np.nan, 0.0], [1.0, 2.0]]),
                                           *cases[2].frames[5:]]))
        batch = [cases[0], broken, cases[1]]
        with np.errstate(invalid="ignore"):
            assert training._validation_loss(params, [broken], model, TrackerConfig()) \
                == (float("inf"), None)
            assert training._validation_loss(params, batch, model, TrackerConfig()) \
                == (float("inf"), None)

    def test_each_plain_pass_calls_the_filter_once(self, cases, params, tiny, monkeypatch):
        """Feature statistics, validation and the CLI's posteriors run all
        their cases as one run_filter call."""
        _, model = tiny
        calls = []

        def counted(frames, *args, **kwargs):
            calls.append(len(frames[0]) if isinstance(frames[0], tuple) else 1)
            return filtering.run_filter(frames, *args, **kwargs)

        for module in (training, network, cli):
            monkeypatch.setattr(module, "run_filter", counted)
        tcfg = TrackerConfig()
        collect_feature_stats(cases, model, tcfg)
        training._validation_loss(params, cases, model, tcfg)
        cli._posteriors_for(cases, model, tcfg)
        cli._posteriors_for(cases, model, tcfg, params)
        assert calls == [len(cases)] * 4

    def test_a_taped_sequence_keeps_its_node_count(self, monkeypatch):
        """One 140-step taped sequence (139 filter steps) records 1 130 tape
        entries: 14 leaves, 4 head stacks (each head block's weight and
        bias), 7 nodes for the first step (its features come from the
        untaped initial beliefs), 8 for each later step and one for the
        loss."""
        case = generate_case(ScenarioConfig(steps=140, cases=1, seed=7), 7, 0)
        model = nominal_cv_model(sigma_w=0.4)
        params = init_params(64, np.random.default_rng(0))
        params.feat_mean, params.feat_std = collect_feature_stats([case], model,
                                                                  TrackerConfig())
        nodes, backward = [], ops.Tape.backward
        monkeypatch.setattr(ops.Tape, "backward",
                            lambda tape, out: nodes.append(len(tape.entries))
                            or backward(tape, out))
        loss, _ = training._sequence_gradients(params, case, model, TrainConfig())
        assert np.isfinite(loss) and nodes == [14 + 4 + 7 + 8 * 138 + 1] == [1130]


class TestCollectorPause:
    """``_sequence_gradients`` pauses the cyclic garbage collector for one
    taped sequence, and the tape is freed before the collector resumes."""

    @pytest.fixture(scope="class")
    def setup(self, tiny):
        ds, model = tiny
        params = init_params(4, np.random.default_rng(0))
        params.feat_mean, params.feat_std = collect_feature_stats(ds.cases, model,
                                                                  TrackerConfig())
        return ds.cases[0], model, params

    @staticmethod
    def _set_gc(enabled):
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("kind", ["finite", "non-finite", "all-masked"])
    def test_collector_state_is_restored(self, setup, enabled, kind):
        case, model, params = setup
        cfg = make_cfg()
        if kind == "non-finite":
            case = SimCase(truth=case.truth,
                           frames=frames_of([*case.frames[:4],
                                             np.array([[np.nan, 0.0], [1.0, 2.0]]),
                                             *case.frames[5:]]))
            with pytest.raises(NonFinite), np.errstate(invalid="ignore"):
                training._run_loss(params, [case], model, cfg.tracker, cfg.l2, ops.Tape())
        elif kind == "all-masked":
            cfg = make_cfg(l2=0.0)
            params = replace(params, **{field: True for field in network.MASK_FIELDS.values()})
        was = gc.isenabled()
        self._set_gc(enabled)
        try:
            loss, grads = training._sequence_gradients(params, case, model, cfg)
            assert gc.isenabled() == enabled
        finally:
            self._set_gc(was)
        assert np.isnan(loss) == (kind == "non-finite")
        assert any(g.any() for g in grads.values()) == (kind == "finite")

    def test_taped_sequences_leave_the_collector_idle(self):
        """Ten 140-step taped sequences run at most two collections; a tape
        still alive when the collector resumes triggers about one each."""
        case = generate_case(ScenarioConfig(steps=140, cases=1, seed=7), 7, 0)
        model = nominal_cv_model(sigma_w=0.4)
        params = init_params(64, np.random.default_rng(0))
        params.feat_mean, params.feat_std = collect_feature_stats([case], model,
                                                                  TrackerConfig())
        starts = []

        def counted(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(counted)
        try:
            for _ in range(10):
                training._sequence_gradients(params, case, model, TrainConfig())
        finally:
            gc.callbacks.remove(counted)
            self._set_gc(was)
        assert len(starts) <= 2, starts


def test_all_skipped_epoch_records_nan_without_a_warning(tiny, monkeypatch):
    """An epoch whose every sequence is skipped has train_loss NaN; numpy's
    mean-of-empty-slice warning stays silent."""
    ds, model = tiny
    history = []
    real_init, real_record = training.init_params, training.EpochRecord

    def poisoned(*args, **kwargs):
        params = real_init(*args, **kwargs)
        params.arrays["evo_shift_b"] = np.full(4, np.nan)
        return params

    monkeypatch.setattr(training, "init_params", poisoned)
    monkeypatch.setattr(training, "EpochRecord",
                        lambda **kw: history.append(kw) or real_record(**kw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            train(ds.train_cases, model, make_cfg(epochs=2))
    assert len(history) == 2 and all(np.isnan(h["train_loss"]) for h in history)


class TestSelection:
    """The checkpoint is the first (fold, epoch) with the lowest validation
    loss, and a diverged epoch rolls back to its fold's best parameters."""

    def _scripted(self, monkeypatch, schedule):
        """Replace both validation passes by ``schedule``, one loss per call
        (each fold's initialization first), and keep the arrays each call saw."""
        seen, losses = [], iter(schedule)

        def loss(params, *args):
            seen.append({k: v.copy() for k, v in params.arrays.items()})
            return next(losses), None

        monkeypatch.setattr(training, "_validation_loss", loss)
        monkeypatch.setattr(training, "_validation_scores",
                            lambda *args: (loss(*args)[0], 0.0, 0.0, 0.0))
        return seen

    def test_first_fold_epoch_minimum_wins(self, tiny, monkeypatch):
        ds, model = tiny
        # per fold: the initialization, then epochs 0, 1 and 2
        seen = self._scripted(monkeypatch, [9.0, 8.0, 6.0, 7.0,
                                            9.0, 6.0, 5.0, 5.0,
                                            5.0, 7.0, 5.0, 8.0])
        params, history, folds = train(ds.train_cases, model,
                                       make_cfg(folds=3, epochs=3, learning_rate=0.05))
        assert [(r.best_epoch, r.best_val_loss) for r in folds] == [(1, 6.0), (1, 5.0),
                                                                     (-1, 5.0)]
        assert [r.val_loss for r in history] == [8.0, 6.0, 7.0, 6.0, 5.0, 5.0, 7.0, 5.0, 8.0]
        best = seen[6]  # fold 1, epoch 1
        assert not np.array_equal(best["lstm_w"], seen[7]["lstm_w"])
        for name, value in params.arrays.items():
            np.testing.assert_array_equal(value, best[name])

    def test_rollback_restores_the_fold_best_and_halves_the_rate(self, tiny, monkeypatch):
        ds, model = tiny
        seen = self._scripted(monkeypatch, [10.0, 8.0, 1000.0, 9.0])
        steps, real_step = [], training.sgd_step

        def recorded(arrays, grads, velocity, cfg):
            steps.append((len(seen), arrays, velocity, cfg.learning_rate))
            return real_step(arrays, grads, velocity, cfg)

        monkeypatch.setattr(training, "sgd_step", recorded)
        params, _, folds = train(ds.train_cases, model,
                                 make_cfg(epochs=3, learning_rate=0.05))
        assert [(r.best_epoch, r.best_val_loss) for r in folds] == [(0, 8.0)]
        epoch2 = [s for s in steps if s[0] == 3]  # after the third validation call
        assert [s[3] for s in steps] == [0.05] * (len(steps) - len(epoch2)) \
            + [0.025] * len(epoch2)
        _, arrays, velocity, _ = epoch2[0]
        for name, value in arrays.items():
            np.testing.assert_array_equal(value, seen[1][name])  # epoch 0's arrays
            assert not velocity[name].any()
        for name, value in params.arrays.items():
            np.testing.assert_array_equal(value, seen[1][name])


# The learned path at a fixed seed, recorded before the frame statistics
# became one stacked record: the feature statistics of three seed-41
# 30-step cases; with a seed-3 init_params(8) perturbed by 0.05 N(0, 1)
# (seed 4), the loss (L2 1e-3) and last posterior of case 0 alone and of
# the three as a batch; and a 1-epoch train at learning rate 0.01 on ten
# seed-53 20-step cases, whose best epoch is its first.
PINNED_LEARNED = {
    "feat_mean": [
        -61.6255813861683, -25.791569175807744, -4.812874487108543, -1.0299245778499675,
        -1.7042213339696086, -2.946846041507028, -1.4818769342242923, -1.9787119172269274,
        1.456633621855016, 0.47787548533858265, -1.0600652839316336, 3.593675891994666,
        -5.180516967253681, -0.8905909533995967, 0.7860214282346444, -0.17215133594411983,
        -0.6177409799912835, 2.973782713319099],
    "feat_std": [
        148.2041915002451, 41.56791206465103, 8.50628617832971, 4.768350147013392,
        0.493792998030491, 0.9191090405872223, 0.9670759344951744, 1.0921174160210976,
        0.2128693516771933, 0.2688862511901977, 1.568851427592668, 0.277514317081396,
        8.706499435255337, 5.184901954493351, 0.2346279687627258, 0.2697968741877927,
        0.8079878409058199, 0.23492748968040142],
    "one": {
        "loss": 11.711617273872708,
        "mean": [199.4419210153847, -167.14030208465917, 2.7328830689190804,
                 -8.809336797874623],
        "param": [[141.14735182372937, -177.40212207054014],
                  [-177.40212207054014, 703.9251229477193]],
        "dof": 39.69879905652488,
    },
    "batch": {
        "loss": [11.711617273872708, 15.41413876092942, 11.175130993563386],
        "mean": [[199.4419210153847, -167.14030208465917, 2.7328830689190804,
                  -8.809336797874623],
                 [-313.67770406475273, 69.49089047578441, -9.036840904348171,
                  12.247737041225026],
                 [-329.14892312810883, 14.53705729398906, -13.932433385840534,
                  1.999142553307585]],
        "param": [[[141.14735182372937, -177.40212207054014],
                   [-177.40212207054014, 703.9251229477193]],
                  [[407.60478041807016, -386.4958987534503],
                   [-386.4958987534503, 532.6337224509219]],
                  [[926.7335721576331, -100.12539082796854],
                   [-100.12539082796854, 110.3500586551466]]],
        "dof": [39.69879905652488, 41.47263937437674, 43.91709749185247],
    },
    "best_val_loss": 14.106272583892409,
    "sums": {
        "lstm_w": 5.304719914585656, "lstm_b": 3.9999681189208207,
        "memcov_w": -1.0658553947768779, "memcov_b": 1.8721208698029906e-05,
        "evo_shift_w": 0.019871880868898267, "evo_shift_b": 0.00816490957717891,
        "evo_cov_w": 0.01587250606105832, "evo_cov_b": 0.006788778924330214,
        "evo_ext_w": -0.00960699146359461, "evo_ext_b": 4.148735327009648e-06,
        "upd_shift_w": -0.02266561485941821, "upd_shift_b": -0.00795090226682369,
        "upd_scale_w": -0.022299369299443858, "upd_scale_b": -0.0028492276480270255,
    },
}


def test_learned_is_pinned():
    """The learned path still gives the recorded numbers, to roundoff (rtol
    1e-12, atol 1e-12): the feature statistics, one-case and batched
    forwards with their losses, and a short training run.  A change to the
    network, its features or training must show here and update them."""
    def close(got, want, name):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)

    want = PINNED_LEARNED
    cfg = ScenarioConfig(steps=30, cases=3, seed=41)
    cases = [generate_case(cfg, 41, i) for i in range(3)]
    model, tcfg = nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt), TrackerConfig()
    feat_mean, feat_std = collect_feature_stats(cases, model, tcfg)
    close(feat_mean, want["feat_mean"], "feat_mean")
    close(feat_std, want["feat_std"], "feat_std")

    params = init_params(8, np.random.default_rng(3))
    noise = np.random.default_rng(4)
    for name, arr in params.arrays.items():
        params.arrays[name] = arr + 0.05 * noise.standard_normal(arr.shape)
    params.feat_mean, params.feat_std = feat_mean, feat_std
    for run, group in (("one", cases[:1]), ("batch", cases)):
        loss, states, exts, _ = training._run_loss(params, group, model, tcfg, 1e-3)
        got = {"loss": loss, "mean": states[-1].mean, "param": exts[-1].param,
               "dof": exts[-1].dof}
        for name, value in want[run].items():
            close(got[name], value, f"{run} {name}")

    ds = generate_dataset(ScenarioConfig(steps=20, cases=10, seed=53))
    best, _, folds = train(ds.train_cases, model, make_cfg(learning_rate=0.01))
    assert folds[0].best_epoch == 0
    close(folds[0].best_val_loss, want["best_val_loss"], "best_val_loss")
    assert list(best.arrays) == list(want["sums"])
    for name, value in best.arrays.items():
        close(value.sum(), want["sums"][name], name)
