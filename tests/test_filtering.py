import functools
import itertools

import numpy as np
import pytest

import composed_ops as composed
from memtrack import filtering, models, network, ops
from memtrack.errors import (
    EmptyFrame,
    LengthMismatch,
    NonFinite,
    SingularInnovation,
    TooFewPoints,
)
from memtrack.filtering import FilterDiagnostics, TrackerConfig
from memtrack.metrics import evaluate_run
from memtrack.models import ExtensionState, TrackState
from memtrack.simulate import generate_case
from memtrack.spdmat import cholesky
from memtrack.training import collect_feature_stats
from wishart import sample_inverse_wishart, sample_wishart

ZERO_DF, ZERO_EF, ZERO_PPHI = filtering.ZERO_EVOLUTION
ZERO_DH, ZERO_EH = filtering.ZERO_MEASUREMENT


def textbook_kalman_step(mean, cov, z, fmat, q, hmat, r):
    """Independent predict/update oracle, no shared code with the filter."""
    mean_p = fmat @ mean
    cov_p = fmat @ cov @ fmat.T + q
    innov_cov = hmat @ cov_p @ hmat.T + r
    gain = cov_p @ hmat.T @ np.linalg.inv(innov_cov)
    mean_u = mean_p + gain @ (z - hmat @ mean_p)
    cov_u = cov_p - gain @ hmat @ cov_p
    return mean_u, cov_u


def manual_step(state, ext, frame, model, evolution=filtering.ZERO_EVOLUTION,
                measurement=filtering.ZERO_MEASUREMENT):
    """One recursion step composed by hand from the public pieces."""
    fs = models.frame_stats(frame)
    (df, ef, pphi), (dh, eh) = evolution, measurement
    pred = filtering.predict_state(state, model, df, ef)
    ext_pred = filtering.predict_extension(ext, model, pphi)
    stats = filtering.innovation(pred, ext_pred, model, dh, eh, fs)
    return (filtering.update_state(stats),
            filtering.update_extension(ext_pred, fs))


def frame(count, mean=(0.0, 0.0)):
    """Frame statistics with the given count and mean and no scatter."""
    return models.FrameStats(mean=np.asarray(mean, dtype=float), scatter=np.zeros((2, 2)),
                             count=count)


@pytest.fixture()
def cv_model():
    return models.nominal_cv_model(sigma_w=0.4, dt=1.0)


def test_zero_moments_are_frozen_zeros():
    shapes = [m.shape for m in filtering.ZERO_EVOLUTION + filtering.ZERO_MEASUREMENT]
    assert shapes == [(4,), (4,), (2, 2), (2,), (2,)]
    for m in filtering.ZERO_EVOLUTION + filtering.ZERO_MEASUREMENT:
        assert not m.any() and not m.flags.writeable


class TestPredictState:
    def test_zero_compensation_cv(self, cv_model):
        prior = TrackState(mean=np.array([0.0, 0.0, 10.0, 0.0]), cov=np.eye(4))
        pred = filtering.predict_state(prior, cv_model, ZERO_DF, ZERO_EF)
        np.testing.assert_array_equal(pred.mean, [10.0, 0.0, 10.0, 0.0])
        np.testing.assert_allclose(pred.cov, cv_model.F @ prior.cov @ cv_model.F.T + cv_model.q,
                                   atol=1e-12)

    def test_shift_additive(self, cv_model):
        prior = TrackState(mean=np.array([0.0, 0.0, 10.0, 0.0]), cov=np.eye(4))
        pred = filtering.predict_state(prior, cv_model, np.array([1.0, 0.0, 0.0, 0.0]),
                                       ZERO_EF)
        np.testing.assert_array_equal(pred.mean, [11.0, 0.0, 10.0, 0.0])

    def test_covariance_inflation(self, cv_model):
        """The scale excess ef scales the covariance by S = diag(1 + ef) on
        both sides, entrywise, so the result stays symmetric bit for bit."""
        prior = TrackState(mean=np.zeros(4), cov=np.eye(4))
        ef = np.array([1.0, -0.5, 0.25, 3.0])
        base = filtering.predict_state(prior, cv_model, ZERO_DF, ZERO_EF)
        inflated = filtering.predict_state(prior, cv_model, ZERO_DF, ef)
        np.testing.assert_array_equal(inflated.cov, base.cov * np.outer(1.0 + ef, 1.0 + ef))
        np.testing.assert_array_equal(inflated.cov, inflated.cov.T)


class TestPredictExtension:
    def test_dof_closed_form_value(self, cv_model):
        # lambda = 4, delta = 7: 2*7*5*3*2/(16*11) + 8 = 420/176 + 8
        prior = ExtensionState(dof=10.0, param=np.eye(2))
        pred = filtering.predict_extension(prior, cv_model, ZERO_PPHI)
        assert abs(pred.dof - (420.0 / 176.0 + 8.0)) < 1e-10
        assert abs(pred.dof - 10.3864) < 1e-4

    def test_param_scaling(self, cv_model):
        prior = ExtensionState(dof=10.0, param=np.eye(2))
        pred = filtering.predict_extension(prior, cv_model, ZERO_PPHI)
        expected = (pred.dof - 6.0) / 4.0
        np.testing.assert_allclose(pred.param, expected * np.eye(2), atol=1e-12)
        assert abs(expected - 1.0966) < 1e-4

    def test_identity_transition_without_inflation_only_rescales(self, cv_model):
        """With A = I and pphi = 0 the bracket is X itself, so the prediction
        is ((v' - 6)/lambda) X bit for bit (no delta * X / delta round trip)."""
        param = np.array([[2.42, 0.49], [0.49, 1.21]])  # 7 * x / 7 != x for each entry
        pred = filtering.predict_extension(ExtensionState(dof=10.0, param=param),
                                           cv_model, ZERO_PPHI)
        np.testing.assert_array_equal(pred.param, ((pred.dof - 6.0) / 4.0) * param)

    @pytest.mark.parametrize("lead", [(), (6,)], ids=["one", "batch"])
    def test_symmetric_bit_for_bit(self, cv_model, lead):
        """The prediction is symmetric bit for bit without a symmetrization,
        for random SPD X and the inflation pphi = L L^T the evolution heads
        make, including negative diagonal entries of L (whose products with
        L's zero are -0.0)."""
        rng = np.random.default_rng(36)
        negative = 0
        for _ in range(50):
            params = network.init_params(4, rng)
            for name in ("evo_ext_w", "evo_ext_b"):
                params.arrays[name] = 2.0 * rng.standard_normal(params.arrays[name].shape)
            mem = network.MemoryState(cell=None, hidden=rng.standard_normal(lead + (4,)),
                                      pc=rng.uniform(0.0, 2.0, lead + (4,)))
            pphi = network.jeb_heads(network.block_weights(params), mem)[2]
            # L's diagonal is softplus(u) - softplus(0), negative where u < 0
            u = np.matvec(params.arrays["evo_ext_w"][:2],
                          np.concatenate([mem.hidden, mem.pc], axis=-1))
            negative += np.count_nonzero(u + params.arrays["evo_ext_b"][:2] < 0.0)
            n = rng.standard_normal(lead + (2, 2))
            x = n @ n.mT + rng.uniform(1e-6, 1.0) * np.eye(2)
            prior = ExtensionState(dof=rng.uniform(8.0, 300.0, lead)[()], param=0.5 * (x + x.mT))
            param = filtering.predict_extension(prior, cv_model, pphi).param
            np.testing.assert_array_equal(param, param.mT)
        assert negative > 0

    def test_rotation_similarity(self, cv_model):
        """Rotating the prior parameter and the inflation rotates the
        prediction: R (X + pphi / delta) R^T is the bracket of the rotated
        inputs, so an extent that turns with the target (the headroom
        oracle's R X R^T) enters through the prior alone."""
        th = 0.3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        prior = ExtensionState(dof=12.0, param=np.diag([4.0, 1.0]))
        pphi = np.array([[0.5, 0.2], [0.2, 0.3]])
        pred = filtering.predict_extension(prior, cv_model, pphi)
        turned = filtering.predict_extension(
            ExtensionState(dof=12.0, param=rot @ prior.param @ rot.T), cv_model,
            rot @ pphi @ rot.T)
        assert turned.dof == pred.dof
        np.testing.assert_allclose(turned.param, rot @ pred.param @ rot.T, rtol=1e-14,
                                   atol=1e-14)

    def test_wishart_transition_mean_consistency(self, cv_model):
        """Monte Carlo oracle for the prediction: draw the prior extent from
        an inverse Wishart whose mean equals the filter's point estimate,
        push it through the transition W(delta, X_prev) / delta, and compare
        the sample mean to the predicted extent."""
        model = cv_model
        prior = ExtensionState(dof=16.0, param=np.array([[8.0, 2.0], [2.0, 5.0]]))
        pred = filtering.predict_extension(prior, model, ZERO_PPHI)
        analytic = filtering.extension_mean(pred)
        np.testing.assert_allclose(analytic, filtering.extension_mean(prior), rtol=1e-10)
        # textbook IW(v', P) has mean P/(v' - 3); v' = dof - 3 matches the
        # filter's lambda convention P/(dof - 6)
        rng = np.random.default_rng(1234)
        draws = []
        for _ in range(6000):
            x_prev = sample_inverse_wishart(prior.dof - 3.0, prior.param, rng)
            draws.append(sample_wishart(model.delta, x_prev, rng) / model.delta)
        mc = np.mean(draws, axis=0)
        np.testing.assert_allclose(mc, analytic, rtol=0.05)


# (filter dof v, transition dof delta) points of the Monte Carlo check
PREDICTION_GRID = [(12.0, 7.0), (30.0, 7.0), (150.0, 50.0)]


@functools.lru_cache(maxsize=None)
def sampled_prediction(v, delta, draws=200_000):
    """The predicted extension next to draws of the distribution it
    approximates: X ~ IW(v - 3, V) (textbook dof, mean V / (v - 6), the
    filter's point estimate) pushed through Y ~ W(delta, X) / delta, with
    W(delta, X) drawn as L W(delta, I) L^T for X = L L^T."""
    model = models.nominal_cv_model(sigma_w=0.4, delta=delta)
    param = (v - 6.0) * np.array([[8.0, 2.0], [2.0, 5.0]])
    pred = filtering.predict_extension(ExtensionState(dof=v, param=param), model, ZERO_PPHI)
    rng = np.random.default_rng(2026)
    x = sample_inverse_wishart(v - 3.0, param, rng, size=draws)
    chol = np.linalg.cholesky(x)
    y = chol @ sample_wishart(delta, np.eye(2), rng, size=draws) @ np.swapaxes(chol, -1, -2)
    return pred, y / delta


def inverse_wishart_variance(ext):
    """Per-entry variance of the filter's IW(dof, param), textbook dof - 3."""
    n, d, psi = ext.dof - 3.0, 2, ext.param
    diag = np.diag(psi)
    return (((n - d + 1) * psi ** 2 + (n - d - 1) * np.outer(diag, diag))
            / ((n - d) * (n - d - 1) ** 2 * (n - d - 3)))


class TestPredictExtensionMonteCarlo:
    @pytest.mark.parametrize("v, delta", PREDICTION_GRID)
    def test_mean_matches_sampling(self, v, delta):
        pred, y = sampled_prediction(v, delta)
        np.testing.assert_allclose(filtering.extension_mean(pred), y.mean(axis=0), rtol=0.02)

    @pytest.mark.xfail(strict=True, reason=(
        "the predicted IW's entry variances are 0.49-0.51 of the sampled ones at "
        "every grid point (200k draws): the dof formula gives about twice the "
        "dof that matches the variance"))
    @pytest.mark.parametrize("v, delta", PREDICTION_GRID)
    def test_variance_matches_sampling(self, v, delta):
        pred, y = sampled_prediction(v, delta)
        np.testing.assert_allclose(inverse_wishart_variance(pred), y.var(axis=0), rtol=0.1)


class TestInnovation:
    def test_block_arithmetic(self, cv_model):
        """H P H^T = I plus the scatter term I/4 of the extent mean I over
        one point."""
        pred = TrackState(mean=np.zeros(4), cov=np.eye(4))
        ext = ExtensionState(dof=10.0, param=4.0 * np.eye(2))  # extent mean = I
        stats = filtering.innovation(pred, ext, cv_model, ZERO_DH, ZERO_EH, frame(1))
        np.testing.assert_array_equal(stats.pzz, 1.25 * np.eye(2))

    def test_scatter_term_vanishes_large_n(self, cv_model):
        pred = TrackState(mean=np.zeros(4), cov=np.eye(4))
        ext = ExtensionState(dof=10.0, param=4.0 * np.eye(2))
        stats = filtering.innovation(pred, ext, cv_model, ZERO_DH, ZERO_EH, frame(10 ** 9))
        np.testing.assert_allclose(stats.pzz, cv_model.H @ pred.cov @ cv_model.H.T, atol=1e-6)

    def test_pxz_selects_columns(self, cv_model):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        cov = m @ m.T + np.eye(4)
        pred = TrackState(mean=np.zeros(4), cov=cov)
        ext = ExtensionState(dof=10.0, param=np.eye(2))
        stats = filtering.innovation(pred, ext, cv_model, ZERO_DH, ZERO_EH, frame(5))
        np.testing.assert_allclose(stats.pxz, cov[:, :2], atol=1e-12)

    def test_pzz_spd_for_any_scale_excess(self, cv_model):
        """Pzz is symmetric and SPD for eh = -1 (an underflowed softplus:
        H P H^T alone), 0 and 1e3; eh = 0 gives the unscaled
        H P H^T + SCATTER_SCALE * Xhat / n bit for bit."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            m, n = rng.standard_normal((4, 4)), rng.standard_normal((2, 2))
            cov, param = m @ m.T + 1e-6 * np.eye(4), n @ n.T + 1e-6 * np.eye(2)
            pred = TrackState(mean=rng.standard_normal(4), cov=0.5 * (cov + cov.T))
            ext = ExtensionState(dof=rng.uniform(7.0, 300.0), param=0.5 * (param + param.T))
            fs = frame(int(rng.integers(1, 50)))
            for eh in itertools.product([-1.0, 0.0, 1e3], repeat=2):
                pzz = filtering.innovation(pred, ext, cv_model, ZERO_DH, np.array(eh), fs).pzz
                np.testing.assert_array_equal(pzz, pzz.T)
                cholesky(pzz)
            xhat = filtering.extension_mean(ext)
            unscaled = (cv_model.H @ (pred.cov @ cv_model.H.T)
                        + (models.SCATTER_SCALE * xhat) / float(fs.count))
            pzz = filtering.innovation(pred, ext, cv_model, ZERO_DH, ZERO_EH, fs).pzz
            np.testing.assert_array_equal(pzz, unscaled)


class TestUpdateState:
    @pytest.mark.parametrize("lead", [(), (6,)], ids=["one", "batch"])
    def test_joseph_gain_term_vanishes(self, cv_model, lead):
        """The covariance adjoint's gain term 2 G (K R - A P H^T), which
        update_state leaves out, is zero at the gain it computes: K R - A P
        H^T = K Pzz - P H^T, so its norm is at most 1e-12 ||P H^T|| for
        random SPD predictions, scatter-scale excesses and frames."""
        rng = np.random.default_rng(35)
        h = cv_model.H
        for _ in range(40):
            m, n = rng.standard_normal(lead + (4, 4)), rng.standard_normal(lead + (2, 2))
            cov = m @ m.mT + rng.uniform(1e-3, 1.0) * np.eye(4)
            pred = TrackState(mean=rng.standard_normal(lead + (4,)), cov=0.5 * (cov + cov.mT))
            param = n @ n.mT + np.eye(2)
            ext = ExtensionState(dof=rng.uniform(7.0, 300.0, lead)[()],
                                 param=0.5 * (param + param.mT))
            points = [rng.standard_normal((int(rng.integers(1, 30)), 2)) * rng.uniform(0.1, 5.0)
                      for _ in range(max(1, int(np.prod(lead))))]
            fs = models.frame_stats(tuple(points) if lead else points[0])
            eh = rng.uniform(-1.0, 30.0, lead + (2,))
            stats = filtering.innovation(pred, ext, cv_model, rng.standard_normal(lead + (2,)),
                                         eh, fs)
            gain = ops.solve(stats.pzz, stats.pxz.mT)[0].mT
            a = np.eye(4) - gain @ h
            term = gain @ stats.r - a @ (pred.cov @ h.T)
            bound = 1e-12 * np.linalg.norm(pred.cov @ h.T, axis=(-2, -1))
            assert np.all(np.linalg.norm(term, axis=(-2, -1)) <= bound)

    def test_zero_innovation_keeps_mean(self, cv_model):
        pred = TrackState(mean=np.array([1.0, 2.0, 3.0, 4.0]), cov=np.eye(4))
        ext = ExtensionState(dof=10.0, param=np.eye(2))
        fs = frame(4, mean=cv_model.H @ pred.mean)
        stats = filtering.innovation(pred, ext, cv_model, ZERO_DH, ZERO_EH, fs)
        np.testing.assert_array_equal(stats.residual, np.zeros(2))
        out = filtering.update_state(stats)
        np.testing.assert_allclose(out.mean, pred.mean, atol=1e-12)

    def test_covariance_never_grows(self, cv_model):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.standard_normal((4, 4))
            pred = TrackState(mean=rng.standard_normal(4), cov=m @ m.T + 0.5 * np.eye(4))
            ext = ExtensionState(dof=9.0 + rng.uniform(0, 5), param=np.eye(2) * rng.uniform(1, 5))
            count = int(rng.integers(2, 30))
            fs = frame(count, mean=rng.standard_normal(2))
            stats = filtering.innovation(pred, ext, cv_model, ZERO_DH, ZERO_EH, fs)
            out = filtering.update_state(stats)
            diff_eigs = np.linalg.eigvalsh(pred.cov - out.cov)
            assert diff_eigs.min() > -1e-9

    def test_singular_innovation_rejected(self):
        model = models.nominal_cv_model(sigma_w=0.4)
        pred = TrackState(mean=np.zeros(4), cov=np.zeros((4, 4)))
        stats = filtering.InnovationStats(
            residual=np.ones(2), pxz=np.zeros((4, 2)), pzz=np.zeros((2, 2)),
            r=np.zeros((2, 2)), h=model.H, sources=(pred.mean, pred.cov), back=None)
        with pytest.raises(SingularInnovation):
            filtering.update_state(stats)

    @pytest.mark.parametrize("pzz", [np.ones((2, 2)), np.array([[4.0, -2.0], [-2.0, 1.0]])])
    def test_rank_one_innovation_rejected(self, pzz, cv_model):
        pred = TrackState(mean=np.zeros(4), cov=np.eye(4))
        stats = filtering.InnovationStats(
            residual=np.ones(2), pxz=np.ones((4, 2)), pzz=pzz,
            r=np.zeros((2, 2)), h=cv_model.H, sources=(pred.mean, pred.cov), back=None)
        with pytest.raises(SingularInnovation):
            filtering.update_state(stats)

    def test_gain_matches_lapack_solve(self, cv_model):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = rng.standard_normal((4, 4))
            pred = TrackState(mean=rng.standard_normal(4), cov=m @ m.T + 0.1 * np.eye(4))
            ext = ExtensionState(dof=9.0 + rng.uniform(0, 5), param=np.eye(2) * rng.uniform(1, 5))
            fs = frame(int(rng.integers(2, 30)), mean=rng.standard_normal(2))
            stats = filtering.innovation(pred, ext, cv_model, ZERO_DH, ZERO_EH, fs)
            gain = np.linalg.solve(stats.pzz, stats.pxz.T).T
            out = filtering.update_state(stats)
            np.testing.assert_allclose(out.mean, pred.mean + gain @ stats.residual,
                                       rtol=1e-12, atol=1e-12)


class TestUpdateExtension:
    def test_dof_increment_exact(self, cv_model):
        case = generate_case(models.ScenarioConfig(steps=140, cases=1, seed=5), 5, 0)
        states, exts, diags = filtering.run_filter(case.frames, cv_model, TrackerConfig(),
                                                   trace=[])
        for k, diag in enumerate(diags):
            n = len(case.frames[k + 1])
            assert exts[k].dof - diag.pred_ext.dof == n

    def test_no_information_keeps_param(self, cv_model):
        pred_ext = ExtensionState(dof=10.0, param=np.diag([3.0, 2.0]))
        fs = models.FrameStats(mean=np.array([1.0, 1.0]), scatter=np.zeros((2, 2)), count=3)
        out = filtering.update_extension(pred_ext, fs)
        np.testing.assert_array_equal(out.param, pred_ext.param)
        assert out.dof == 13.0

    def test_zero_residual_adds_whitened_scatter(self):
        """The frame scatter is whitened to an extent by dividing it by
        SCATTER_SCALE = 1/4: four times the scatter is added, bit for bit."""
        pred_ext = ExtensionState(dof=12.0, param=np.array([[3.0, 0.4], [0.4, 2.0]]))
        scatter = np.array([[5.0, 1.5], [1.5, 2.5]])
        fs = models.FrameStats(mean=np.array([1.0, 1.0]), scatter=scatter, count=6)
        out = filtering.update_extension(pred_ext, fs)
        np.testing.assert_array_equal(out.param, [[23.0, 6.4], [6.4, 12.0]])
        assert out.dof == 18.0

    def test_result_symmetric_psd(self):
        """The update never shrinks the extent, whatever the residual: it
        reads only the frame scatter and adds it, rescaled, to the parameter
        matrix, so the result is symmetric bit for bit and its smallest
        eigenvalue cannot fall below the prediction's."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.standard_normal((2, 2))
            pred_ext = ExtensionState(dof=rng.uniform(9, 30), param=m @ m.T + 0.1 * np.eye(2))
            pts = rng.standard_normal((int(rng.integers(1, 30)), 2)) * 2.0 + rng.uniform(-50, 50, 2)
            out = filtering.update_extension(pred_ext, models.frame_stats(pts))
            np.testing.assert_array_equal(out.param, out.param.T)
            assert (np.linalg.eigvalsh(out.param).min()
                    >= np.linalg.eigvalsh(pred_ext.param).min() - 1e-9)

    def test_no_extension_clamp_or_collapse_on_seeded_case(self, cv_model):
        """Seed-0 case 17 drove an indefinite extension update: an eigenvalue
        clamp fired in both extension projections and the collapsed extent
        let the position error reach 8.4 m.  Without any clamp, every
        predicted and updated extension of the baseline and of a learned
        forward with perturbed heads keeps its smallest eigenvalue above
        1e-6 m^2, the floor that clamp enforced."""
        case = generate_case(models.ScenarioConfig(seed=0), 0, 17)
        trace = []
        states, exts, _ = filtering.run_filter(case.frames, cv_model, TrackerConfig(),
                                               trace=trace)
        errors = [np.linalg.norm(s.mean[:2] - t[:2])
                  for s, t in zip(states, case.truth.states[1:])]
        assert max(errors) < 3.0
        params = [d.pred_ext.param for d in trace] + [e.param for e in exts]
        assert np.linalg.eigvalsh(np.array(params)).min() > 1e-6

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0, 0xAB))))
        params = network.init_params(8, rng)
        for name, arr in params.arrays.items():
            params.arrays[name] = arr + 0.05 * rng.standard_normal(arr.shape)
        params.feat_mean, params.feat_std = collect_feature_stats([case], cv_model,
                                                                  TrackerConfig())
        _, exts, _ = network.forward_sequence(params, case.frames, cv_model)
        assert np.linalg.eigvalsh(np.array([e.param for e in exts])).min() > 1e-6


class TestExtensionMean:
    def test_divides_by_lambda(self):
        assert np.allclose(
            filtering.extension_mean(ExtensionState(dof=10.0, param=4.0 * np.eye(2))),
            np.eye(2))
        np.testing.assert_allclose(
            filtering.extension_mean(ExtensionState(dof=8.0, param=np.diag([20.0, 2.0]))),
            np.diag([10.0, 1.0]))


class TestInitTrack:
    @pytest.mark.parametrize("settings", [
        {"pos_var": 0.0}, {"pos_var": np.nan}, {"vel_var": -1.0}, {"vel_var": np.inf},
        {"min_extent": 0.0}, {"init_dof": 8.0}, {"init_dof": np.nan}, {"init_dof": np.inf},
    ])
    def test_config_rejects_out_of_range(self, settings):
        with pytest.raises(ValueError):
            TrackerConfig(**settings)

    def test_position_from_mean(self):
        state, ext = filtering.init_track(np.array([[4.0, 6.0], [6.0, 4.0]]), TrackerConfig())
        np.testing.assert_allclose(state.mean, [5.0, 5.0, 0.0, 0.0])

    def test_coincident_points_floor(self):
        cfg = TrackerConfig(min_extent=0.5)
        _, ext = filtering.init_track(np.tile([1.0, 1.0], (5, 1)), cfg)
        np.testing.assert_allclose(ext.param, 0.5 * np.eye(2), atol=1e-12)

    def test_rejects_single_point(self):
        with pytest.raises(TooFewPoints):
            filtering.init_track(np.array([[0.0, 0.0]]), TrackerConfig())

    def test_recovers_ellipse_axes(self):
        """Sample covariance of a uniform solid ellipse is diag(a^2, b^2)/4,
        so 2 * sqrt(eigenvalues of the sample covariance) estimates the
        semi-axes."""
        rng = np.random.default_rng(3)
        a, b = 5.0, 1.0
        radius = np.sqrt(rng.uniform(0, 1, 200))
        ang = rng.uniform(0, 2 * np.pi, 200)
        pts = np.stack([a * radius * np.cos(ang), b * radius * np.sin(ang)], axis=1)
        cfg = TrackerConfig(min_extent=1e-6)
        _, ext = filtering.init_track(pts, cfg)
        sample_cov_eigs = np.sort(np.linalg.eigvalsh(ext.param / (cfg.init_dof - 6.0)))
        recovered = 2.0 * np.sqrt(sample_cov_eigs)
        assert abs(recovered[1] - a) / a < 0.25
        assert abs(recovered[0] - b) / b < 0.25


class TestKalmanEquivalence:
    def test_zero_compensation_equals_textbook_kalman(self, cv_model):
        """State branch with zero compensation == textbook Kalman with
        R_k = SCATTER_SCALE * Xhat_k / n_k, to 1e-10 over a long seeded run."""
        case = generate_case(models.ScenarioConfig(steps=101, cases=1, seed=9), 9, 0)
        tcfg = TrackerConfig()
        states, exts, diags = filtering.run_filter(case.frames, cv_model, tcfg, trace=[])

        state0, _ = filtering.init_track(case.frames[0], tcfg)
        mean, cov = state0.mean, state0.cov
        fmat, hmat = cv_model.F, cv_model.H
        worst = 0.0
        for k, diag in enumerate(diags):
            xhat = filtering.extension_mean(diag.pred_ext)
            r = models.SCATTER_SCALE * xhat / diag.frame.count
            mean, cov = textbook_kalman_step(
                mean, cov, diag.frame.mean, fmat, cv_model.q, hmat, r)
            worst = max(worst, float(np.max(np.abs(mean - states[k].mean))))
            worst = max(worst, float(np.max(np.abs(cov - states[k].cov))))
        assert worst < 1e-10

    def test_stationary_target_error_shrinks(self):
        """Near-exact measurements of a fixed target: position error decays."""
        model = models.nominal_cv_model(sigma_w=0.01)
        rng = np.random.default_rng(2)
        frames = [rng.normal(0.0, 1e-3, size=(20, 2)) for _ in range(40)]
        states, _, _ = filtering.run_filter(frames, model, TrackerConfig(pos_var=25.0))
        errs = [float(np.linalg.norm(s.mean[:2])) for s in states]
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-2


class TestFilterStep:
    """A single step of run_filter, on two-frame sequences."""

    def test_matches_manual_composition(self, cv_model):
        case = generate_case(models.ScenarioConfig(steps=3, cases=1, seed=13), 13, 0)
        tcfg = TrackerConfig()
        states, exts, _ = filtering.run_filter(case.frames[:2], cv_model, tcfg)
        state, ext = filtering.init_track(case.frames[0], tcfg)
        manual_state, manual_ext = manual_step(state, ext, case.frames[1], cv_model)
        np.testing.assert_array_equal(states[0].mean, manual_state.mean)
        np.testing.assert_array_equal(exts[0].param, manual_ext.param)

    def test_linear_algebra_budget(self, cv_model, monkeypatch):
        """No step makes a LAPACK call: the gain's 2x2 solve is closed-form,
        no belief needs an eigenvalue clamp, and the extension update only
        rescales the frame scatter.  A run's only call is
        ``init_track``'s eigenvalue floor, at most one ``eigh`` for the rows
        of the first frame near the floor, for one case or a batch, of the
        baseline or of a learned forward with perturbed heads."""
        cases = _batch_cases(steps=30, count=8, seed=4)
        tcfg = TrackerConfig()
        rng = np.random.default_rng(4)
        params = network.init_params(4, rng)
        for name, arr in params.arrays.items():
            params.arrays[name] = arr + 0.05 * rng.standard_normal(arr.shape)
        params.feat_mean, params.feat_std = collect_feature_stats(cases, cv_model, tcfg)
        runs = (lambda frames: filtering.run_filter(frames, cv_model, tcfg),
                lambda frames: network.forward_sequence(params, frames, cv_model, tcfg))
        calls = dict.fromkeys(("solve", "eigh", "cholesky", "det", "inv"), 0)
        for name in calls:
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        for frames in (cases[0].frames, models.stack_frames([c.frames for c in cases])):
            filtering.init_track(frames[0], tcfg)
            floor_calls = dict(calls)
            assert floor_calls == {**dict.fromkeys(calls, 0), "eigh": floor_calls["eigh"]}
            assert floor_calls["eigh"] <= 1
            for run in runs:
                calls.update(dict.fromkeys(calls, 0))
                run(frames)
                assert calls == floor_calls
            calls.update(dict.fromkeys(calls, 0))

    def test_single_point_frame_increments_dof_by_one(self, cv_model):
        frames = [np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.5, -0.5]])]
        _, exts, diags = filtering.run_filter(frames, cv_model, TrackerConfig(), trace=[])
        assert exts[0].dof - diags[0].pred_ext.dof == 1


class StubCompensator:
    """Fixed compensation moments; records every call it receives."""

    def __init__(self, comp):
        self.evolution, self.measurement = comp
        self.started, self.evolved, self.measured = [], [], []

    def start(self, stats):
        self.started.append(stats)

    def evolve(self, state, ext, fs):
        self.evolved.append((state, ext, fs))
        return self.evolution

    def measure(self, pred, ext_pred):
        self.measured.append((pred, ext_pred))
        return self.measurement


class TestCompensator:
    @pytest.fixture()
    def comp(self):
        """(evolution, measurement) moments: (df, ef, pphi), (dh, eh)."""
        return ((np.array([0.1, -0.2, 0.05, 0.0]), np.array([0.3, 0.2, 0.1, -0.1]),
                 np.array([[0.5, 0.1], [0.1, 0.3]])),
                (np.array([0.05, -0.1]), np.array([0.2, -0.1])))

    @pytest.fixture()
    def case(self):
        return generate_case(models.ScenarioConfig(steps=12, cases=1, seed=21), 21, 0)

    def test_stub_matches_manual_composition(self, cv_model, comp, case):
        tcfg = TrackerConfig()
        states, exts, _ = filtering.run_filter(case.frames, cv_model, tcfg,
                                               StubCompensator(comp))
        state, ext = filtering.init_track(case.frames[0], tcfg)
        for k, frame in enumerate(case.frames[1:]):
            state, ext = manual_step(state, ext, frame, cv_model, *comp)
            np.testing.assert_array_equal(states[k].mean, state.mean)
            np.testing.assert_array_equal(states[k].cov, state.cov)
            assert exts[k].dof == ext.dof
            np.testing.assert_array_equal(exts[k].param, ext.param)
        base, _, _ = filtering.run_filter(case.frames, cv_model, tcfg)
        assert not np.array_equal(base[-1].mean, states[-1].mean)

    def test_measure_receives_prediction_from_evolve(self, cv_model, comp, case):
        tcfg = TrackerConfig()
        stub = StubCompensator(comp)
        states, exts, diags = filtering.run_filter(case.frames, cv_model, tcfg, stub,
                                                   trace=[])
        posteriors = [filtering.init_track(case.frames[0], tcfg)] + list(zip(states, exts))
        assert len(stub.evolved) == len(stub.measured) == len(case.frames) - 1
        for k, ((state, ext, fs), (pred, ext_pred)) in enumerate(
                zip(stub.evolved, stub.measured)):
            prev_state, prev_ext = posteriors[k]
            np.testing.assert_array_equal(state.mean, prev_state.mean)
            np.testing.assert_array_equal(ext.param, prev_ext.param)
            np.testing.assert_array_equal(fs.mean, models.frame_stats(case.frames[k + 1]).mean)
            assert pred is diags[k].pred_state and ext_pred is diags[k].pred_ext
            df, ef, pphi = comp[0]
            expect = filtering.predict_state(prev_state, cv_model, df, ef)
            expect_ext = filtering.predict_extension(prev_ext, cv_model, pphi)
            np.testing.assert_array_equal(pred.mean, expect.mean)
            np.testing.assert_array_equal(pred.cov, expect.cov)
            np.testing.assert_array_equal(ext_pred.param, expect_ext.param)

    def test_trace_only_on_request(self, cv_model, case, monkeypatch):
        tcfg = TrackerConfig()
        trace = []
        _, _, out = filtering.run_filter(case.frames, cv_model, tcfg, trace=trace)
        assert out is trace and len(trace) == len(case.frames) - 1
        for k, diag in enumerate(trace):
            assert isinstance(diag, FilterDiagnostics)
            assert diag.frame.count == len(case.frames[k + 1])
            np.testing.assert_array_equal(
                diag.stats.residual, diag.frame.mean - diag.pred_state.mean[:2])

        built = []
        monkeypatch.setattr(filtering, "FilterDiagnostics",
                            lambda **kw: built.append(kw) or FilterDiagnostics(**kw))
        _, _, out = filtering.run_filter(case.frames, cv_model, tcfg)
        assert out is None
        network.forward_sequence(network.zero_params(4), case.frames, cv_model, tcfg)
        assert built == []


def _prior(tape, seed, tiny_extent=False):
    """A random (TrackState, ExtensionState) of tape leaves, and the leaves."""
    rng = np.random.default_rng(seed)
    m, n = rng.standard_normal((4, 4)), rng.standard_normal((2, 2))
    param = 1e-9 * np.eye(2) if tiny_extent else n @ n.T + np.eye(2)
    leaves = [tape.leaf(v) for v in (rng.standard_normal(4), m @ m.T + 0.5 * np.eye(4), param)]
    return (TrackState(mean=leaves[0], cov=leaves[1]),
            ExtensionState(dof=rng.uniform(10.0, 40.0), param=leaves[2]), leaves)


def _evolution(tape, seed, kind):
    """(df, ef, pphi) and their leaves: zero (plain), random, or an extreme
    ef whose scales reach from near 0 to 31."""
    if kind == "zero":
        return filtering.ZERO_EVOLUTION, []
    rng = np.random.default_rng(seed)
    ef = rng.uniform(-0.5, 0.5, 4) if kind == "random" else np.array([-1 + 1e-6, -0.99, 5.0,
                                                                     30.0])
    ell = np.tril(rng.standard_normal((2, 2)))
    leaves = [tape.leaf(v) for v in (rng.standard_normal(4), ef, ell @ ell.T)]
    return tuple(leaves), leaves


def _measurement(tape, seed, kind):
    if kind == "zero":
        return filtering.ZERO_MEASUREMENT, []
    rng = np.random.default_rng(seed)
    leaves = [tape.leaf(rng.standard_normal(2)), tape.leaf(rng.uniform(-0.9, 2.0, 2))]
    return tuple(leaves), leaves


def _innovate_and_update(pred, ext_pred, model, dh, eh, fs, innovation, update_state):
    return update_state(innovation(pred, ext_pred, model, dh, eh, fs))


@pytest.mark.usefixtures("algebra")
class TestFusedStages:
    """Each fused filter stage against the same stage composed of generic
    ops: values bit for bit, every input's adjoint at 1e-12."""

    @pytest.mark.parametrize("kind", ["zero", "random", "extreme"])
    def test_predict_state(self, cv_model, kind):
        def make_args(tape):
            prior, _, leaves = _prior(tape, 50)
            (df, ef, _), comp_leaves = _evolution(tape, 51, kind)
            return (prior, cv_model, df, ef), leaves[:2] + comp_leaves[:2]

        composed.assert_twins(filtering.predict_state, composed.predict_state, make_args)

    @pytest.mark.parametrize("kind", ["zero", "random", "tiny"])
    def test_predict_extension(self, cv_model, kind):
        """A tiny prior extent (1e-9 m^2) stays SPD without a floor."""
        def make_args(tape):
            _, prior, leaves = _prior(tape, 52, tiny_extent=kind == "tiny")
            (_, _, pphi), comp_leaves = _evolution(tape, 53, "zero" if kind == "tiny" else kind)
            return (prior, cv_model, pphi), leaves[2:] + comp_leaves[2:]

        composed.assert_twins(filtering.predict_extension, composed.predict_extension,
                              make_args)
        if kind == "tiny":
            cholesky(filtering.predict_extension(*make_args(ops.Tape())[0]).param.value)

    @pytest.mark.parametrize("kind", ["zero", "random"])
    def test_innovation_and_update(self, cv_model, kind):
        def make_args(tape):
            pred, ext_pred, leaves = _prior(tape, 54)
            (dh, eh), comp_leaves = _measurement(tape, 55, kind)
            fs = models.frame_stats(np.random.default_rng(56).standard_normal((6, 2)))
            return (pred, ext_pred, cv_model, dh, eh, fs), leaves + comp_leaves

        fused = functools.partial(_innovate_and_update, innovation=filtering.innovation,
                                  update_state=filtering.update_state)
        unfused = functools.partial(_innovate_and_update, innovation=composed.innovation,
                                    update_state=composed.update_state)
        composed.assert_twins(fused, unfused, make_args)

    def test_update_extension(self):
        def make_args(tape):
            _, pred, leaves = _prior(tape, 64)
            fs = models.frame_stats(np.random.default_rng(65).standard_normal((6, 2)))
            return (pred, fs), leaves[2:]

        composed.assert_twins(filtering.update_extension, composed.update_extension, make_args)

    def test_stages_record_one_node_each(self, cv_model):
        """A stage is one node, the symmetric part of its output included."""
        tape = ops.Tape()
        prior, ext, _ = _prior(tape, 60)
        (df, ef, pphi), _ = _evolution(tape, 61, "random")
        (dh, eh), _ = _measurement(tape, 62, "random")
        fs = models.frame_stats(np.random.default_rng(63).standard_normal((6, 2)))
        counts = []
        for stage in (lambda: filtering.predict_state(prior, cv_model, df, ef),
                      lambda: filtering.predict_extension(ext, cv_model, pphi),
                      lambda: filtering.innovation(prior, ext, cv_model, dh, eh, fs),
                      lambda: filtering.update_state(
                          filtering.innovation(prior, ext, cv_model, dh, eh, fs)),
                      lambda: filtering.update_extension(ext, fs)):
            before = len(tape.entries)
            stage()
            counts.append(len(tape.entries) - before)
        assert counts == [1, 1, 0, 1, 1]


def _excess(rng, size):
    """Scale excesses (ef or eh) from near -1 (scales down to 1e-6) to 30."""
    near_minus_one = -1.0 + 10.0 ** rng.uniform(-6.0, -1.0, size)
    return np.where(rng.random(size) < 0.3, near_minus_one, rng.uniform(-0.9, 30.0, size))


class TestSpdByConstruction:
    """Every stage's output Cholesky-factorizes with no projection anywhere:
    random SPD priors, frames of 1-30 points and scale excesses ef and eh
    from near -1 to large, for one case at a time and for a batch."""

    def test_every_stage_output_factorizes(self, cv_model):
        rng = np.random.default_rng(80)
        for _ in range(40):
            n = 6
            m, x = rng.standard_normal((n, 4, 4)), rng.standard_normal((n, 2, 2))
            scale = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1, 1))
            state = TrackState(mean=rng.uniform(-50.0, 50.0, (n, 4)),
                               cov=scale * (m @ np.swapaxes(m, 1, 2) + 1e-3 * np.eye(4)))
            ext = ExtensionState(dof=rng.uniform(9.0, 300.0, n),
                                 param=10.0 ** rng.uniform(-4.0, 2.0, (n, 1, 1))
                                 * (x @ np.swapaxes(x, 1, 2) + 1e-2 * np.eye(2)))
            ell = np.tril(rng.standard_normal((n, 2, 2)))
            evolution = (rng.standard_normal((n, 4)), _excess(rng, (n, 4)),
                         ell @ np.swapaxes(ell, 1, 2))
            measurement = (rng.standard_normal((n, 2)), _excess(rng, (n, 2)))
            frames = tuple(rng.standard_normal((int(rng.integers(1, 31)), 2))
                           * rng.uniform(0.1, 5.0) + rng.uniform(-50.0, 50.0, 2)
                           for _ in range(n))
            batch = self._stages(state, ext, evolution, measurement, models.frame_stats(frames),
                                 cv_model)
            for i in range(n):
                row = lambda v: v[i]  # noqa: E731
                single = self._stages(
                    TrackState(mean=state.mean[i], cov=state.cov[i]),
                    ExtensionState(dof=float(ext.dof[i]), param=ext.param[i]),
                    tuple(map(row, evolution)), tuple(map(row, measurement)),
                    models.frame_stats(frames[i]), cv_model)
                for one, many in zip(single, batch):
                    cholesky(one)
                    np.testing.assert_array_equal(one, many[i])
            for many in batch:
                cholesky(many)

    @staticmethod
    def _stages(state, ext, evolution, measurement, fs, model):
        """Each stage's covariance or parameter output, one step."""
        (df, ef, pphi), (dh, eh) = evolution, measurement
        pred = filtering.predict_state(state, model, df, ef)
        ext_pred = filtering.predict_extension(ext, model, pphi)
        stats = filtering.innovation(pred, ext_pred, model, dh, eh, fs)
        post = filtering.update_state(stats)
        post_ext = filtering.update_extension(ext_pred, fs)
        return pred.cov, ext_pred.param, stats.pzz, post.cov, post_ext.param


def _batch_cases(steps=30, count=4, seed=70):
    """Seeded cases of one length; their frames hold different point counts."""
    cfg = models.ScenarioConfig(steps=steps, cases=count, seed=seed)
    return [generate_case(cfg, seed, i) for i in range(count)]


def assert_row_matches(batched, single, row):
    """Row ``row`` of a batched run's (states, extensions) equals a
    single-case run's, bit for bit."""
    (b_states, b_exts), (s_states, s_exts) = batched, single
    assert len(b_states) == len(s_states)
    for b, s in zip(b_states, s_states):
        np.testing.assert_array_equal(ops.value(b.mean)[row], s.mean)
        np.testing.assert_array_equal(ops.value(b.cov)[row], s.cov)
    for b, s in zip(b_exts, s_exts):
        assert b.dof[row] == s.dof
        np.testing.assert_array_equal(ops.value(b.param)[row], s.param)


def _evolving(df, ef):
    """A compensator with fixed shift and covariance scale excess, for one
    case or per row of a batch."""
    return StubCompensator(((df, ef, np.zeros((2, 2))), filtering.ZERO_MEASUREMENT))


class ShiftAtStep:
    """Zero compensation, except the evolution shift ``shift`` (one case's,
    or a batch's rows) at step ``step``; run_filter numbers its first
    update step 2."""

    def __init__(self, shift, step):
        self.shift, self.step = shift, step

    def start(self, stats):
        self.k = 1

    def evolve(self, state, ext, fs):
        self.k += 1
        zero = np.zeros_like(self.shift)
        return (self.shift if self.k == self.step else zero), zero, np.zeros((2, 2))

    def measure(self, pred, ext_pred):
        return filtering.ZERO_MEASUREMENT


class TestBatch:
    """A batch of cases runs as one pass whose every row equals that case
    run alone, bit for bit."""

    def test_rows_equal_single_runs(self, cv_model):
        cases = _batch_cases()
        assert len({tuple(map(len, c.frames)) for c in cases}) == len(cases)
        tcfg = TrackerConfig()
        trace = []
        batch = filtering.run_filter(models.stack_frames([c.frames for c in cases]),
                                     cv_model, tcfg, trace=trace)
        for i, case in enumerate(cases):
            assert_row_matches(batch[:2], filtering.run_filter(case.frames, cv_model, tcfg)[:2],
                               i)
        assert trace[0].frame.count.shape == (len(cases),)

    def test_one_row_clamps(self, cv_model):
        """Each row's initial extent floor clamps, or not, as that case's
        alone: a coincident first frame clamps one initial extent.  A scale
        excess near -1 shrinks one row's predicted covariance, as alone."""
        frames = [list(c.frames) for c in _batch_cases(steps=12, count=3, seed=71)]
        frames[1][0] = np.array([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]])
        ef = np.zeros((3, 4))
        ef[2] = -1.0 + 1e-4
        tcfg = TrackerConfig()
        trace = []
        batch = filtering.run_filter(models.stack_frames(frames), cv_model, tcfg,
                                     _evolving(np.zeros((3, 4)), ef), trace=trace)
        for i in range(3):
            single = filtering.run_filter(frames[i], cv_model, tcfg, _evolving(np.zeros(4), ef[i]))
            assert_row_matches(batch[:2], single[:2], i)
        smallest = np.linalg.eigvalsh(trace[0].pred_state.cov).min(axis=1)
        assert smallest[2] < 1e-6 < 0.1 < smallest[:2].min()
        init_extents = [filtering.init_track(f[0], tcfg)[1].param for f in frames]
        clamped = [abs(np.linalg.eigvalsh(e).min() - tcfg.min_extent) < 1e-9
                   for e in init_extents]
        assert clamped == [False, True, False]

    @pytest.mark.parametrize("where", ["point", "shift", "nan-shift"])
    def test_non_finite_row_raises_as_alone(self, cv_model, where):
        """A NaN point in one case's frame at step 6, or an infinite or NaN
        shift of one row at step 6 only, raises NonFinite naming step 6 for
        the batch, as for that case alone.  No ``np.errstate`` here: the
        filter silences its own warnings, and pytest turns any that leaks
        into an error."""
        frames = [list(c.frames) for c in _batch_cases(steps=10, count=3, seed=72)]
        shift = np.zeros((3, 4))
        if where == "point":
            frames[1][5] = np.array([[np.nan, 0.0], [1.0, 1.0]])  # frame 5 is step 6
        else:
            shift[1, 0] = np.inf if where == "shift" else np.nan
        for run_frames, run_shift in ((frames[1], shift[1]), (models.stack_frames(frames), shift)):
            with pytest.raises(NonFinite, match="at step 6$"):
                filtering.run_filter(run_frames, cv_model, TrackerConfig(),
                                     ShiftAtStep(run_shift, 6))

    def test_first_frame_checks_hold_per_row(self, cv_model):
        cases = _batch_cases(steps=6, count=3, seed=73)
        frames = [list(c.frames) for c in cases]
        frames[2][0] = frames[2][0][:1]
        with pytest.raises(TooFewPoints):
            filtering.run_filter(models.stack_frames(frames), cv_model, TrackerConfig())
        frames[2][0] = cases[2].frames[0]
        frames[0][-1] = np.empty((0, 2))
        with pytest.raises(EmptyFrame):
            filtering.run_filter(models.stack_frames(frames), cv_model, TrackerConfig())

    def test_cases_of_different_lengths_are_rejected(self):
        cases = _batch_cases(steps=6, count=2, seed=74)
        with pytest.raises(LengthMismatch):
            models.stack_frames([cases[0].frames, cases[1].frames[:-1]])

    def test_one_case_is_not_a_batch(self):
        frames = _batch_cases(steps=6, count=1, seed=75)[0].frames
        assert models.stack_frames([frames]) is frames


class TestDofOwners:
    """The stages take their dof preconditions from the recursion, not from
    checks of their own: ``TrackerConfig`` requires init_dof > 2d + 4, the
    predicted dof formula gives v' >= 2d + 4, and every frame holds a point,
    so every predicted lambda = v - 2d - 2 is at least 2 and every posterior
    lambda at least 3, down to one-point frames from the smallest init_dof."""

    @pytest.mark.parametrize("init_dof", [8.0 + 1e-12, 8.5, 10.0, 1e6])
    def test_lambda_bounds_over_one_point_frames(self, cv_model, init_dof):
        rng = np.random.default_rng(76)
        frames = [[rng.standard_normal((3, 2))] + [rng.standard_normal((1, 2)) for _ in range(140)]
                  for _ in range(3)]
        tcfg = TrackerConfig(init_dof=init_dof)
        for run_frames in (frames[0], models.stack_frames(frames)):
            trace = []
            _, exts, _ = filtering.run_filter(run_frames, cv_model, tcfg, trace=trace)
            predicted = np.array([step.pred_ext.dof for step in trace]) - (2 * models.D + 2)
            posterior = np.array([ext.dof for ext in exts]) - (2 * models.D + 2)
            assert predicted.shape == posterior.shape == (140,) + np.shape(exts[0].dof)
            assert predicted.min() >= 2.0 and posterior.min() >= 3.0


# The baseline's last posterior and its pooled scores at IoU polygon 64, on
# seed-5 default-scenario cases of 140 steps: case 0 alone, and cases 1-4 as
# one batch.
PINNED_BASELINE = {
    "one": {
        "mean": [169.06998962575156, -724.6233193206344, -16.963551762554015,
                 3.1526524338920137],
        "param": [[493.61270924508744, -87.02909956455169],
                  [-87.02909956455169, 80.08596267908538]],
        "dof": 33.12460055894917,
        "rmse": 0.5673093446174253,
        "gwd": 0.9020916320103898,
    },
    "batch": {
        "mean": [[758.506348759205, -464.89084531620824, -1.3717191727993334,
                  -10.50317102081701],
                 [-1046.2724495384632, -316.667293498719, -3.525720831635488,
                  -6.75701813169601],
                 [-614.3575813053097, -199.26199920898955, -5.1927043118782805,
                  1.368211193126316],
                 [1030.4892821694134, 686.290768615081, 6.053765170374154,
                  6.666424891706607]],
        "param": [[[92.00962039459613, 115.82817290402721],
                   [115.82817290402721, 630.6831048899355]],
                  [[187.34261157437805, 296.6213107515718],
                   [296.6213107515718, 711.6536364572927]],
                  [[665.8767497634553, -257.31714788404696],
                   [-257.31714788404696, 193.78354480171058]],
                  [[500.6522359005524, 397.24556964103897],
                   [397.24556964103897, 490.251982249479]]],
        "dof": [35.40679227246437, 42.39501576218754, 37.942236720817164,
                43.55366773769492],
        "rmse": 0.535792010016196,
        "gwd": 0.8414423963856394,
    },
}


@pytest.mark.parametrize("run", ["one", "batch"])
def test_baseline_is_pinned(cv_model, run):
    """The zero-compensation filter still gives the recorded numbers, to
    roundoff (rtol 1e-12, atol 1e-12 m): a change to the baseline's model
    must show here and update them."""
    cfg = models.ScenarioConfig(seed=5)
    cases = ([generate_case(cfg, 5, 0)] if run == "one"
             else [generate_case(cfg, 5, i) for i in range(1, 5)])
    states, exts, _ = filtering.run_filter(models.stack_frames([c.frames for c in cases]),
                                           cv_model, TrackerConfig())
    report = evaluate_run(cases, (states, exts), polygon_order=64)
    want = PINNED_BASELINE[run]
    got = {"mean": states[-1].mean, "param": exts[-1].param, "dof": exts[-1].dof,
           "rmse": report.position_rmse, "gwd": report.mean_gwd}
    for name, value in want.items():
        np.testing.assert_allclose(got[name], value, rtol=1e-12, atol=1e-12, err_msg=name)
