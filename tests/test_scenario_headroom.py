"""How much a tracker that knew each step's true turn rate would gain.

The oracle below runs the baseline's five stages with a per-step nominal
model whose transition F is the coordinated turn at the simulator's true
turn rate, and turns the extent with the target: it rotates the prior
extension parameter by that turn, R X R^T, before each prediction.
``truth.omegas[k]`` drives state k - 1 to state k.  It is a test-only
yardstick for the part of the error that the turns cause, which a
compensation network can at best remove.

Two scenarios are named (README, ``docs/config.md``): the default, and
*maneuvering*, the default with turn rates of 5-15 deg/s.
"""

from dataclasses import replace

import numpy as np
import pytest

from memtrack import filtering, models
from memtrack.metrics import evaluate_run
from memtrack.models import ExtensionState, ScenarioConfig, TrackState
from memtrack.simulate import generate_case

MANEUVERING = ScenarioConfig(turn_rate_min=5.0, turn_rate_max=15.0)


def turn_transition(omega: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The coordinated-turn state transition F at turn rate ``omega`` (the
    constant-velocity F at 0) and the rotation A by ``omega * dt``."""
    wd = omega * dt
    cw, sw = np.cos(wd), np.sin(wd)
    s, c = (dt, 0.0) if omega == 0.0 else (sw / omega, (1.0 - cw) / omega)
    f = np.array([[1.0, 0.0, s, -c],
                  [0.0, 1.0, c, s],
                  [0.0, 0.0, cw, -sw],
                  [0.0, 0.0, sw, cw]])
    return f, np.array([[cw, -sw], [sw, cw]])


def oracle_run(case, model, tcfg, dt):
    """One case filtered with the true turn rate in F and in the rotation A
    of the prior extent (A X A^T, symmetrized) at every step, by the
    baseline's stages in ``run_filter``'s order."""
    state, ext = filtering.init_track(case.frames[0], tcfg)
    zero_df, zero_ef, zero_pphi = filtering.ZERO_EVOLUTION
    zero_dh, zero_eh = filtering.ZERO_MEASUREMENT
    states, exts = [], []
    frame_stats = models.reduce_frames(case.frames[1:])
    for omega, fs in zip(case.truth.omegas[1:], frame_stats):
        f, a = turn_transition(float(omega), dt)
        step_model = replace(model, F=f)
        turned = a @ ext.param @ a.T
        ext = ExtensionState(dof=ext.dof, param=0.5 * (turned + turned.T))
        pred = filtering.predict_state(state, step_model, zero_df, zero_ef)
        ext_pred = filtering.predict_extension(ext, step_model, zero_pphi)
        stats = filtering.innovation(pred, ext_pred, step_model, zero_dh, zero_eh, fs)
        state = filtering.update_state(stats)
        ext = filtering.update_extension(ext_pred, fs)
        states.append(state)
        exts.append(ext)
    return states, exts


def stacked(runs):
    """Per-case (states, exts) runs as one batched run: a leading case axis
    on every belief, step by step."""
    states = [TrackState(mean=np.stack([s.mean for s in step]),
                         cov=np.stack([s.cov for s in step]))
              for step in zip(*(run[0] for run in runs))]
    exts = [ExtensionState(dof=np.array([e.dof for e in step]),
                           param=np.stack([e.param for e in step]))
            for step in zip(*(run[1] for run in runs))]
    return states, exts


def _cases(cfg, count):
    return [generate_case(cfg, cfg.seed, i) for i in range(count)]


@pytest.fixture()
def model():
    return models.nominal_cv_model(sigma_w=0.4, dt=1.0)


def test_oracle_is_the_baseline_without_turns(model):
    """At ``regimes = cv`` every true turn rate is 0, so the oracle's
    per-step model is the nominal one and its run equals the batched
    baseline's rows bit for bit."""
    cfg = ScenarioConfig(regimes="cv", seed=3)
    cases = _cases(cfg, 4)
    assert not any(case.truth.omegas.any() for case in cases)
    tcfg = filtering.TrackerConfig()
    base_states, base_exts, _ = filtering.run_filter(
        models.stack_frames([c.frames for c in cases]), model, tcfg)
    oracle_states, oracle_exts = stacked([oracle_run(c, model, tcfg, cfg.dt) for c in cases])
    for got, want in zip(oracle_states, base_states):
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.cov, want.cov)
    for got, want in zip(oracle_exts, base_exts):
        np.testing.assert_array_equal(got.dof, want.dof)
        np.testing.assert_array_equal(got.param, want.param)


def test_oracle_beats_the_baseline_on_the_maneuvering_scenario(model):
    """On 8 maneuvering cases (seed 0, 140 steps, IoU polygon 64) the true
    turn rate takes the pooled RMSE from 0.625 to 0.548 m and the mean GWD
    from 1.148 to 0.813; a tracker that learns the turns has that much to
    find.  The test asserts at least 0.05 m and 0.25 of it."""
    cases = _cases(MANEUVERING, 8)
    tcfg = filtering.TrackerConfig()
    base = filtering.run_filter(models.stack_frames([c.frames for c in cases]), model, tcfg)
    base = evaluate_run(cases, base[:2], polygon_order=64)
    oracle = evaluate_run(cases, stacked([oracle_run(c, model, tcfg, MANEUVERING.dt)
                                          for c in cases]), polygon_order=64)
    assert oracle.position_rmse < base.position_rmse - 0.05
    assert oracle.mean_gwd < base.mean_gwd - 0.25


def test_turn_rate_k_drives_state_k_minus_1_to_k():
    """With process noise of 1e-9, every true state is the turn at
    ``omegas[k]`` of the one before it, within 1e-6 m: a misaligned index
    would miss by metres at every switch of regime."""
    cfg = replace(MANEUVERING, sigma_w=1e-9)
    for case in _cases(cfg, 3):
        truth = case.truth
        assert truth.omegas.any() and not truth.omegas.all()
        for k in range(1, cfg.steps):
            f, _ = turn_transition(float(truth.omegas[k]), cfg.dt)
            np.testing.assert_allclose(truth.states[k], f @ truth.states[k - 1],
                                       rtol=0, atol=1e-6)
