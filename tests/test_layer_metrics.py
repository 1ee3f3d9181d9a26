"""Every per-layer benchmark metric comes out of a tiny traced run.

The benchmark wraps memtrack's functions from the outside.  When a hooked
function stops running (it was renamed, inlined or bypassed), its metric
silently turns into null, and the traced benchmark result with it.  This
runs one small simulate, train, eval and track through ``cli.main`` under
the benchmark's own tracer and hooks and requires every metric to exist.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import memtrack
from memtrack import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the bench package

from bench import layers  # noqa: E402
from bench.tracer import Tracer, aggregate, package_modules, self_times  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The tracer after one small simulate, train, eval and track, and the
    four exit codes."""
    tmp_path = tmp_path_factory.mktemp("traced")
    data = tmp_path / "dataset_sw0.4_sv0.6.mtds"
    ckpt, out = str(tmp_path / "m.mtck"), str(tmp_path / "out")
    commands = [
        ["simulate", "--out", str(tmp_path), "--cases", "4", "--steps", "6",
         "--levels", "0.4:0.6", "--seed", "1"],
        ["train", str(data), "--out", ckpt, "--folds", "1", "--epochs", "1",
         "--memory-dim", "4"],
        ["eval", str(data), "--checkpoint", ckpt, "--compare", "--polygon", "16",
         "--out", out],
        ["track", str(data), "--case", "0", "--checkpoint", ckpt, "--out", out + ".csv"],
    ]
    tracer = Tracer()
    tracer.install(package_modules("memtrack"), layers.hooks(memtrack))
    try:
        with tracer.span("bench.setup", phase="setup"):
            codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.remove()
    return tracer, codes


def test_no_layer_metric_is_null(traced):
    tracer, codes = traced
    assert codes == [cli.EXIT_OK] * 4
    arr = tracer.arrays()
    own = self_times(arr["parent"], arr["start"], arr["end"])
    table = aggregate(tracer.names, arr["name_id"], arr["start"], arr["end"], own,
                      np.ones(len(own), dtype=bool))
    values = layers.layer_metrics({"setup": table}, tracer.counts, tracer.unavailable)
    assert set(values) == {metric for metric, *_ in layers.LAYER_METRICS}
    assert {m: why for m, (value, why) in values.items() if value is None} == {}


def test_eval_scores_through_the_hooked_functions(traced):
    """The eval command reaches IoU, GWD and the matrix root through the
    functions the benchmark wraps, not around them."""
    tracer, codes = traced
    assert codes == [cli.EXIT_OK] * 4
    arr = tracer.arrays()
    names = [tracer.names[i] for i in arr["name_id"]]
    parent = arr["parent"].tolist()
    eval_call = [sid for sid, name in enumerate(names) if name == "cli.main"][2]

    def in_eval(sid):
        while sid >= 0:
            if sid == eval_call:
                return True
            sid = parent[sid]
        return False

    for span in ("metrics.case_series", "metrics.iou_ellipse", "metrics.gwd",
                 "spdmat.sym_sqrt"):
        assert any(name == span and in_eval(sid) for sid, name in enumerate(names)), span
