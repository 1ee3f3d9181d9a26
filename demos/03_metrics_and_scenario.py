"""Scenario generation and the three evaluation metrics.

Generates a small benchmark dataset, evaluates the baseline filter on its
test split, and shows the metric primitives (ellipse IoU of inscribed
polygons, Gaussian Wasserstein distance) on hand-picked cases.
"""

import numpy as np

import memtrack as mt
from memtrack.metrics import EllipseEstimate, gwd, iou_ellipse

print("== Metric primitives ==")
a = EllipseEstimate(np.zeros(2), np.diag([25.0, 1.0]))
b = EllipseEstimate(np.zeros(2), np.diag([1.0, 25.0]))
print("IoU of identical ellipses      :", iou_ellipse(a, a))
print("IoU of 90-degree-rotated copy  :", round(iou_ellipse(a, b), 4))
print("GWD of identical ellipses      :", gwd(a, a))
print("GWD of diag(4,1) vs diag(1,4)  :",
      gwd(EllipseEstimate(np.zeros(2), np.diag([4.0, 1.0])),
          EllipseEstimate(np.zeros(2), np.diag([1.0, 4.0]))))

print("\n== Dataset and baseline evaluation ==")
cfg = mt.ScenarioConfig(steps=60, cases=12, sigma_w=0.4, sigma_v=0.6, seed=3,
                        turn_rate_min=5.0, turn_rate_max=15.0,
                        segment_min=8, segment_max=25)
ds = mt.generate_dataset(cfg)
print(f"cases: {len(ds.cases)}  train/test: {len(ds.train_cases)}/{len(ds.test_cases)}")
counts = np.array([c.frames.counts for c in ds.cases])  # (cases, steps)
print(f"scatterers per frame: mean {counts.mean():.1f}, min {counts.min()}")

model = mt.nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
test_cases = ds.test_cases
# all test cases as one batch: beliefs carry a leading case axis
frames = mt.stack_frames([case.frames for case in test_cases])
st, ex, _ = mt.run_filter(frames, model, mt.TrackerConfig())
rep = mt.evaluate_run(test_cases, (st, ex), polygon_order=128)
print(f"\nbaseline on test split: rmse={rep.position_rmse:.3f} m  "
      f"iou={rep.mean_iou:.3f}  gwd={rep.mean_gwd:.3f}")
print(f"peaks: err={rep.peak_position_error:.3f} m  iou_min={rep.peak_iou:.3f}  "
      f"gwd_max={rep.peak_gwd:.3f}")
