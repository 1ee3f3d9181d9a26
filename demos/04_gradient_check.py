"""Backpropagation through the filter, verified against finite differences.

The whole recursion (matrix solves, Joseph-form updates, the LSTM, the
compensation heads) is recorded on a reverse-mode tape; this script
compares every entry of the gradient that training uses with a
fourth-order central difference on a short sequence, then shows the harness
catching a deliberately corrupted adjoint: a wrapper around the training
gradient damages one entry.
"""

import time

import numpy as np

import memtrack as mt
from memtrack import training
from memtrack.network import init_params
from memtrack.training import grad_check

cfg = mt.ScenarioConfig(steps=5, cases=1, sigma_w=0.4, sigma_v=0.6, seed=0)
case = mt.generate_case(cfg, 0, 0)
model = mt.nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)

rng = np.random.default_rng(0)
params = init_params(4, rng)
for name, arr in params.arrays.items():
    params.arrays[name] = arr + 0.05 * rng.standard_normal(arr.shape)
n_params = sum(a.size for a in params.arrays.values())

t0 = time.time()
err = grad_check(params, case, model, eps=1e-5)
print(f"checked {n_params} parameters on a K={cfg.steps} sequence "
      f"in {time.time() - t0:.1f} s")
print(f"max relative error vs finite differences: {err:.2e}")

sequence_gradients = training._sequence_gradients


def corrupted(params, case, model, cfg):
    loss, grads = sequence_gradients(params, case, model, cfg)
    first = next(iter(grads))
    grads[first].flat[0] += 1.0 + max(float(np.max(np.abs(g))) for g in grads.values())
    return loss, grads


training._sequence_gradients = corrupted
try:
    err_bad = grad_check(params, case, model, eps=1e-5)
finally:
    training._sequence_gradients = sequence_gradients
print(f"with one corrupted adjoint entry        : {err_bad:.2e}  (harness trips)")
