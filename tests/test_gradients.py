"""Backpropagation-through-the-filter correctness against finite differences."""

from dataclasses import replace

import numpy as np
import pytest

from memtrack import ops, training
from memtrack.filtering import TrackerConfig
from memtrack.models import ScenarioConfig, nominal_cv_model
from memtrack.network import forward_sequence, init_params, sequence_loss, zero_params
from memtrack.simulate import generate_case
from memtrack.training import grad_check


def make_case(steps, seed):
    cfg = ScenarioConfig(steps=steps, cases=1, sigma_w=0.4, sigma_v=0.6, seed=seed)
    return generate_case(cfg, seed, 0), nominal_cv_model(sigma_w=0.4, dt=1.0)


def perturbed_params(memory_dim, seed, scale=0.05):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xAB))))
    params = init_params(memory_dim, rng)
    for name, arr in params.arrays.items():
        params.arrays[name] = arr + scale * rng.standard_normal(arr.shape)
    return params


class TestGradCheck:
    def test_calibrated_zero_params(self):
        case, model = make_case(5, 3)
        assert grad_check(zero_params(4), case, model, eps=1e-5) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_params(self, seed):
        case, model = make_case(5, 10 + seed)
        params = perturbed_params(4, seed)
        assert grad_check(params, case, model, eps=1e-5) < 1e-4

    def test_with_regularization(self):
        case, model = make_case(4, 7)
        params = perturbed_params(4, 7)
        assert grad_check(params, case, model, eps=1e-5, gamma=1e-3) < 1e-4

    def test_corrupted_adjoint_detected(self, monkeypatch):
        case, model = make_case(4, 5)
        params = perturbed_params(4, 5)
        sequence_gradients = training._sequence_gradients

        def corrupted(params, case, model, cfg):
            loss, grads = sequence_gradients(params, case, model, cfg)
            ginf = max(float(np.max(np.abs(g))) for g in grads.values())
            grads[next(iter(grads))].flat[0] += 1.0 + ginf
            return loss, grads

        monkeypatch.setattr(training, "_sequence_gradients", corrupted)
        assert grad_check(params, case, model, eps=1e-5) > 1e-2

    @pytest.mark.parametrize("poison", ["gradients", "loss"])
    def test_non_finite_training_gradient_fails(self, monkeypatch, poison):
        case, model = make_case(3, 5)
        params = perturbed_params(2, 5)
        sequence_gradients = training._sequence_gradients

        def poisoned(params, case, model, cfg):
            loss, grads = sequence_gradients(params, case, model, cfg)
            if poison == "loss":
                return float("nan"), grads
            return loss, {k: np.full_like(g, np.nan) for k, g in grads.items()}

        monkeypatch.setattr(training, "_sequence_gradients", poisoned)
        assert grad_check(params, case, model, eps=1e-5) == float("inf")

    def test_masked_blocks_have_zero_gradients(self):
        case, model = make_case(5, 11)
        params = perturbed_params(4, 11)
        params.mask_evolution = True
        tape = ops.Tape()
        states, exts, leaves = forward_sequence(params, case.frames, model, tape=tape)
        loss = sequence_loss(states, exts, case.truth.states[1:],
                             case.truth.extents[1:])
        grads = tape.backward(loss)
        for name in ("evo_shift_w", "evo_cov_w", "evo_ext_w",
                     "evo_shift_b", "evo_cov_b", "evo_ext_b"):
            np.testing.assert_array_equal(tape.grad(grads, leaves[name]),
                                          np.zeros_like(params.arrays[name]))

    def test_zero_init_gradient_finite_and_nonzero_somewhere(self):
        case, model = make_case(8, 13)
        params = zero_params(4)
        tape = ops.Tape()
        states, exts, leaves = forward_sequence(params, case.frames, model, tape=tape)
        loss = sequence_loss(states, exts, case.truth.states[1:],
                             case.truth.extents[1:])
        grads = tape.backward(loss)
        by_name = {k: tape.grad(grads, v) for k, v in leaves.items()}
        assert all(np.all(np.isfinite(g)) for g in by_name.values())
        head_norm = sum(float(np.abs(by_name[k]).max())
                        for k in ("evo_shift_w", "upd_shift_w", "evo_cov_w", "upd_scale_w"))
        assert head_norm > 0.0


class TestBatchedTape:
    def test_summed_loss_matches_central_differences(self):
        """A tape over a 2-case batch, against the fourth-order central
        differences of the cases' summed loss, with grad_check's metric."""
        model = nominal_cv_model(sigma_w=0.4, dt=1.0)
        cases = [make_case(5, 20 + i)[0] for i in range(2)]
        params = perturbed_params(3, 21)
        tracker = TrackerConfig()
        tape = ops.Tape()
        loss, _, _, leaves = training._run_loss(params, cases, model, tracker, 1e-3, tape)
        grads = tape.backward(loss)
        analytic = {name: tape.grad(grads, var) for name, var in leaves.items()}
        floor = 1e-3 * (1.0 + max(float(np.max(np.abs(g))) for g in analytic.values()))

        def summed(arrays):
            probe = replace(params, arrays=arrays)
            return float(np.sum(training._run_loss(probe, cases, model, tracker, 1e-3)[0]))

        eps, worst = 1e-5, 0.0
        for name, base in params.arrays.items():
            for i in range(base.size):
                evals = {}
                for step in (2.0, 1.0, -1.0, -2.0):
                    probe = {k: (v.copy() if k == name else v) for k, v in params.arrays.items()}
                    probe[name].ravel()[i] += step * eps
                    evals[step] = summed(probe)
                fd = (-evals[2.0] + 8.0 * evals[1.0] - 8.0 * evals[-1.0] + evals[-2.0]) \
                    / (12.0 * eps)
                a = analytic[name].ravel()[i]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), floor))
        assert worst < 1e-4
