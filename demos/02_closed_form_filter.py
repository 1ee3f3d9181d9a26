"""The closed-form joint state/extension recursion on a simulated track.

Runs the zero-compensation filter over one maneuvering sequence and prints
how the kinematic error and the extent estimate evolve.  Also demonstrates
the Kalman equivalence: with zero compensation and a linear model, the
state branch is exactly a Kalman filter whose measurement covariance is
B Xhat B^T / n.
"""

import numpy as np

import memtrack as mt

cfg = mt.ScenarioConfig(steps=60, cases=1, sigma_w=0.4, sigma_v=0.6, seed=11,
                        turn_rate_min=5.0, turn_rate_max=15.0,
                        segment_min=8, segment_max=25)
case = mt.generate_case(cfg, cfg.seed, 0)
model = mt.nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
tcfg = mt.TrackerConfig()

states, exts, diags = mt.run_filter(case.frames, model, tcfg, trace=[])

print("step | pos err (m) | extent eigs (m^2)        | dof")
for k in (0, 4, 9, 19, 39, 58):
    err = np.linalg.norm(states[k].mean[:2] - case.truth.states[k + 1, :2])
    eigs = np.linalg.eigvalsh(mt.extension_mean(exts[k]))
    print(f"{k + 2:4d} | {err:11.3f} | {eigs[0]:8.2f} {eigs[1]:8.2f}    | {exts[k].dof:.3f}")

truth_eigs = np.linalg.eigvalsh(case.truth.extents[-1])
print(f"\ntruth extent eigenvalues: {truth_eigs[0]:.2f} {truth_eigs[1]:.2f}")
print("(the estimate approaches truth + 4 sigma_v^2 from the sensor noise)")

print("\n== Kalman equivalence of the state branch ==")
state, _ = mt.init_track(case.frames[0], tcfg)
mean, cov = state.mean, state.cov
fmat, hmat = model.F, model.H
worst = 0.0
for k, diag in enumerate(diags):
    r = model.b @ mt.extension_mean(diag.pred_ext) @ model.b.T / diag.frame.count
    mean_p = fmat @ mean
    cov_p = fmat @ cov @ fmat.T + model.q
    gain = cov_p @ hmat.T @ np.linalg.inv(hmat @ cov_p @ hmat.T + r)
    mean = mean_p + gain @ (diag.frame.mean - hmat @ mean_p)
    cov = cov_p - gain @ hmat @ cov_p
    worst = max(worst, np.max(np.abs(mean - states[k].mean)))
print("max deviation from an independent Kalman implementation:", worst)
