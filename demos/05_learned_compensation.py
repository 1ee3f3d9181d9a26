"""Training the memory network through the filter, end to end.

Desk-scale version of the benchmark experiment: a maneuvering dataset
whose turns a constant-velocity model cannot follow, a short training run
on its training split, and a baseline-vs-learned comparison on its test
split.  It runs in about 15 s on one CPU core.
"""

import time

import memtrack as mt

cfg = mt.ScenarioConfig(steps=140, cases=40, sigma_w=0.4, sigma_v=0.6, seed=17,
                        turn_rate_min=5.0, turn_rate_max=15.0,
                        segment_min=8, segment_max=25)
ds = mt.generate_dataset(cfg)
model = mt.nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
tcfg = mt.TrackerConfig()


test_cases = ds.test_cases


def evaluate(params):
    frames = mt.stack_frames([case.frames for case in test_cases])
    if params is None:
        st, ex, _ = mt.run_filter(frames, model, tcfg)
    else:
        st, ex, _ = mt.forward_sequence(params, frames, model, tcfg)
    return mt.evaluate_run(test_cases, (st, ex), polygon_order=128)


base = evaluate(None)
print(f"baseline: rmse={base.position_rmse:.3f} m  iou={base.mean_iou:.3f}  "
      f"gwd={base.mean_gwd:.3f}")

train_cfg = mt.TrainConfig(epochs=10, folds=1, memory_dim=16, seed=1,
                           learning_rate=3e-3, momentum=0.5, clip=2.0,
                           batch_size=4, history_polygon=64)
t0 = time.time()
params, history, folds = mt.train(ds.train_cases, model, train_cfg)
print(f"\ntrained {train_cfg.epochs} epochs on {len(ds.train_cases)} sequences "
      f"in {time.time() - t0:.0f} s")
for rec in history[:: max(1, len(history) // 5)]:
    print(f"  epoch {rec.epoch:2d}: val loss {rec.val_loss:8.3f}  "
          f"val rmse {rec.val_rmse:.3f} m")

learned = evaluate(params)
print(f"\nlearned : rmse={learned.position_rmse:.3f} m  "
      f"iou={learned.mean_iou:.3f}  gwd={learned.mean_gwd:.3f}")
print(f"position RMSE change vs baseline: "
      f"{100 * (learned.position_rmse / base.position_rmse - 1):+.1f}%")
