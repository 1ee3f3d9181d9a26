"""Every module's ``__all__`` names exactly its public surface.

The benchmark tracer wraps the functions a layer module lists in
``__all__``, so a stale entry or a missing one silently drops a layer.
"""

import importlib
import inspect
import pkgutil

import pytest

import memtrack

MODULES = [importlib.import_module(f"memtrack.{info.name}")
           for info in pkgutil.iter_modules(memtrack.__path__)]
WITH_ALL = [m for m in MODULES if hasattr(m, "__all__")]


def _defined_public(module):
    return sorted(name for name, obj in vars(module).items()
                  if not name.startswith("_")
                  and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__)


def test_layer_modules_declare_all():
    names = {m.__name__.rsplit(".", 1)[-1] for m in WITH_ALL}
    assert {"filtering", "models", "network", "ops", "simulate", "spdmat", "store",
            "training"} <= names


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_listed_names_exist(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_public_definitions_are_listed(module):
    unlisted = [name for name in _defined_public(module) if name not in module.__all__]
    assert unlisted == []


# (module, function, parameter) that bench/layers.py reads by name; a
# rename there turns a per-layer metric into null instead of failing.
BENCH_ARGUMENTS = [
    ("simulate", "generate_case", "cfg"),
    ("store", "read_dataset", "path"),
    ("filtering", "run_filter", "frames"),
    ("metrics", "case_series", "states"),
    ("metrics", "iou_ellipse", "order"),
    ("training", "_sequence_gradients", "params"),
    ("training", "sgd_step", "grads"),
    ("training", "sgd_step", "cfg"),
    ("network", "forward_sequence", "tape"),
    ("network", "forward_sequence", "frames"),
]


@pytest.mark.parametrize("module, function, parameter", BENCH_ARGUMENTS,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_benchmark_reads_parameter(module, function, parameter):
    fn = getattr(importlib.import_module(f"memtrack.{module}"), function)
    assert parameter in inspect.signature(fn).parameters


def test_benchmark_reads_tape_entries():
    from memtrack import ops
    assert callable(ops.Tape.backward)
    assert hasattr(ops.Tape(), "entries")
