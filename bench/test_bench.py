"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import math
import signal
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import memtrack  # noqa: E402
from memtrack import ops, training  # noqa: E402
from memtrack.models import ScenarioConfig, nominal_cv_model  # noqa: E402
from memtrack.network import init_params  # noqa: E402
from memtrack.simulate import generate_case  # noqa: E402

from bench import layers  # noqa: E402
from bench.hostspeed import NOMINAL_BLOCK_S, HostSpeed  # noqa: E402
from bench.tracer import (  # noqa: E402
    SkipCounter,
    Tracer,
    aggregate,
    package_modules,
    range_mask,
    self_times,
)
from bench.workloads import END_TO_END, Call, _summary, percentile  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m, u, b) for m, u, b, *_ in [*layers.LAYER_METRICS, *layers.TRACE_METRICS]]


# -- self-time arithmetic ------------------------------------------------------

def test_self_time_subtracts_disjoint_children():
    # root [0, 10] with children [1, 3] and [4, 6]
    own = self_times([-1, 0, 0], [0.0, 1.0, 4.0], [10.0, 3.0, 6.0])
    assert own.tolist() == pytest.approx([6.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] cover [1, 7]
    own = self_times([-1, 0, 0], [0.0, 1.0, 3.0], [10.0, 5.0, 7.0])
    assert own[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    # the child [8, 12] sticks out of its parent [0, 10]
    own = self_times([-1, 0], [0.0, 8.0], [10.0, 12.0])
    assert own.tolist() == pytest.approx([8.0, 4.0])


def test_self_time_uses_direct_children_only():
    # root [0, 10] > child [0, 4] > grandchild [1, 2]; a second root [20, 25]
    own = self_times([-1, 0, 1, -1], [0.0, 0.0, 1.0, 20.0], [10.0, 4.0, 2.0, 25.0])
    assert own.tolist() == pytest.approx([6.0, 3.0, 1.0, 5.0])


def test_aggregate_sums_calls_total_and_self_over_the_mask():
    names = ["a", "b"]
    name_id = [0, 1, 1, 0]
    start = [0.0, 1.0, 4.0, 20.0]
    end = [10.0, 3.0, 6.0, 25.0]
    parent = [-1, 0, 0, -1]
    own = self_times(parent, start, end)
    everything = aggregate(names, name_id, start, end, own, range_mask(4, [(0, 4)]))
    assert everything["a"] == {"calls": 2, "total_s": 15.0, "self_s": 11.0}
    assert everything["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    first_tree = aggregate(names, name_id, start, end, own, range_mask(4, [(0, 4)], [(3, 4)]))
    assert first_tree["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}


# -- percentile with sample count ----------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 90) == (None, 99)
    value, n = percentile(list(range(100)), 90)
    assert n == 100 and value == pytest.approx(89.1)


def test_p99_needs_a_thousand_samples():
    assert percentile([1.0] * 999, 99) == (None, 999)
    assert percentile([1.0] * 1000, 99) == (1.0, 1000)
    assert percentile([], 50) == (None, 0)


# -- outside-in wrapping ------------------------------------------------------

def _toy_modules():
    """leaf.g, user.f calling g through a by-name import, both in package toy."""
    leaf = types.ModuleType("toy.leaf")

    def g(x):
        return x + 1
    g.__module__ = "toy.leaf"
    leaf.g = g
    user = types.ModuleType("toy.user")
    user.g = g
    exec("def f(x):\n    return g(x) * 2\n", user.__dict__)
    return leaf, user


def test_wrappers_reach_by_name_imports_and_nest_spans():
    leaf, user = _toy_modules()
    original = leaf.g
    tracer = Tracer()
    tracer.install([leaf, user], [(leaf, "g", "leaf.g", None, None),
                                  (user, "f", "user.f", None, None)])
    assert user.g is not original and leaf.g is user.g
    assert user.f(1) == 4
    tracer.remove()
    assert leaf.g is original and user.g is original
    arr = tracer.arrays()
    assert [tracer.names[i] for i in arr["name_id"]] == ["user.f", "leaf.g"]
    assert arr["parent"].tolist() == [-1, 0]


def test_removing_the_wrappers_restores_every_attribute():
    modules = package_modules("memtrack")
    before = [(mod, dict(vars(mod))) for mod in modules]
    backward = vars(ops.Tape)["backward"]
    run_filter = memtrack.filtering.run_filter
    tracer = Tracer()
    tracer.install(modules, layers.hooks(memtrack))
    assert memtrack.cli.run_filter is not run_filter
    assert memtrack.cli.run_filter is memtrack.filtering.run_filter
    assert vars(ops.Tape)["backward"] is not backward
    wrapped = [attr for mod, attrs in before for attr, val in attrs.items()
               if vars(mod)[attr] is not val]
    assert "run_filter" in wrapped and "main" in wrapped
    tracer.remove()
    assert not tracer.unavailable
    for mod, attrs in before:
        for attr, val in attrs.items():
            assert vars(mod)[attr] is val, f"{mod.__name__}.{attr} not restored"
    assert vars(ops.Tape)["backward"] is backward


def test_missing_hook_is_unavailable_not_zero():
    leaf, _ = _toy_modules()
    tracer = Tracer()
    tracer.install([leaf], [(leaf, "gone", "training.sgd_step", None, None)])
    assert "training.sgd_step" in tracer.unavailable
    values = layers.layer_metrics({"loop": {}}, {}, tracer.unavailable)
    assert values["training.sgd_step.us"][0] is None
    assert values["training.clipped_frac"][0] is None


# -- skip counter -------------------------------------------------------------

def test_skip_counter_counts_a_forced_non_finite_sequence():
    cfg = ScenarioConfig(steps=6, cases=1, seed=3)
    case = generate_case(cfg, 3, 0)
    model = nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
    tcfg = training.TrainConfig(memory_dim=4)
    good = init_params(4, np.random.default_rng(0))
    bad = good.copy()
    bad.arrays["evo_shift_b"] = np.full(4, np.nan)

    counter = SkipCounter()
    assert counter.install(package_modules("memtrack"), training, "_sequence_gradients")
    try:
        finite, _ = training._sequence_gradients(good, case, model, tcfg)
        skipped, _ = training._sequence_gradients(bad, case, model, tcfg)
    finally:
        counter.remove()
    assert math.isfinite(finite) and math.isnan(skipped)
    assert (counter.calls, counter.skipped) == (2, 1)
    assert not hasattr(training._sequence_gradients, "__wrapped__")


# -- host-speed reference -------------------------------------------------------

def _busy(cpu_s):
    end = time.thread_time() + cpu_s
    total = 0
    while time.thread_time() < end:
        total += sum(i * i for i in range(200))
    return total


def test_host_speed_samples_blocks_and_leaves_them_out_of_program_time():
    previous = signal.getsignal(signal.SIGPROF)
    speed = HostSpeed(interval_s=0.02)
    start_program, start_thread = speed.program_time(), time.thread_time()
    with speed:
        _busy(0.3)
    assert speed.blocks >= 3
    program = speed.program_time() - start_program
    thread = time.thread_time() - start_thread
    assert program == pytest.approx(thread - speed.seconds, abs=1e-3)
    assert speed.scale() == pytest.approx(NOMINAL_BLOCK_S / (speed.seconds / speed.blocks))
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous


def test_scale_is_nan_before_the_first_sample():
    assert math.isnan(HostSpeed().scale())


def test_local_scale_uses_the_samples_near_the_interval():
    speed = HostSpeed()
    speed.stamps.extend([0.0, 1.0, 10.0, 11.0])
    speed.times.extend([0.02, 0.02, 0.005, 0.005])
    speed.seconds = sum(speed.times)
    assert speed.local_scale(0.2, 0.5, margin=1.0) == pytest.approx(0.5)
    assert speed.local_scale(10.2, 0.5, margin=1.0) == pytest.approx(2.0)
    assert speed.local_scale(5.0, 0.5, margin=1.0) == pytest.approx(speed.scale())


def test_summary_scales_cpu_times_to_the_reference_host():
    calls = [Call(wall=2.0, start=0.0, cpu=1.0, attempted=4, failed=0),
             Call(wall=4.0, start=1.0, cpu=3.0, attempted=4, failed=1)]
    out = _summary(calls, [0.5, 0.5])
    assert (out["attempted"], out["failed"], out["calls"]) == (8, 1, 2)
    assert out["cpu"]["ops_per_s"] == pytest.approx(2.0)
    assert out["ref"]["ops_per_s"] == pytest.approx(4.0)
    assert out["wall"]["ops_per_s"] == pytest.approx(8 / 6)
    assert out["ref"]["call_ms_p50"] == pytest.approx(1000.0)
    assert out["ref"]["call_ms_p90"] is None and out["ref"]["call_ms_p90_samples"] == 2
