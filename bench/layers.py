"""Which memtrack functions the traced run wraps, and the per-layer metrics.

Every public function of the layer modules gets a span named
``<module>.<function>``.  Three private hook points carry metrics that the
public surface cannot give: the per-sequence gradient (skips), the
per-epoch validation pass, and ``ops.Tape.backward`` (tape size).
"""

from __future__ import annotations

import inspect
import math
import os

import numpy as np

LAYER_MODULES = ("simulate", "store", "models", "filtering", "network", "ops",
                 "training", "metrics", "spdmat", "cli")

# ops.value unwraps a tape variable and runs inside every other op; a span
# around it would cost more than its body and hide nothing a change could
# speed up.
EXCLUDED = {"ops.value"}

PRIVATE_HOOKS = (
    ("training", "_sequence_gradients", "training.sequence_gradients"),
    ("training", "_validation_scores", "training.validation"),
    ("ops", "Tape.backward", "ops.backward"),
)

def public_functions(module) -> list[str]:
    short = module.__name__.rsplit(".", 1)[-1]
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__
            and f"{short}.{n}" not in EXCLUDED]


def _argument(fn, name: str):
    """Getter for argument ``name`` of ``fn`` from (args, kwargs); None if gone."""
    params = inspect.signature(fn).parameters
    if name not in params:
        return None
    pos = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default
    return get


def _observers(module_map):
    """Span name -> (namer, observe) for hooks that count work units."""
    out = {}

    def counting(span, fn, arg, key, amount):
        get = _argument(fn, arg)
        if get is None:
            return None

        def observe(tracer, args, kwargs, result):
            tracer.count(f"{span}.{key}", amount(get(args, kwargs), result))
        return observe

    sim, store, filt = module_map["simulate"], module_map["store"], module_map["filtering"]
    net, met, tr, ops = (module_map["network"], module_map["metrics"],
                         module_map["training"], module_map["ops"])
    steps_of_frames = lambda frames, _: len(frames) - 1  # noqa: E731
    plan = [
        ("simulate.generate_case", sim, "generate_case", "cfg", "steps", lambda c, _: c.steps),
        ("store.read_dataset", store, "read_dataset", "path", "bytes",
         lambda p, _: os.path.getsize(p)),
        ("filtering.run_filter", filt, "run_filter", "frames", "steps", steps_of_frames),
        ("metrics.case_series", met, "case_series", "states", "steps", lambda s, _: len(s)),
        ("metrics.iou_ellipse", met, "iou_ellipse", "order", "order", lambda o, _: o),
        ("training.sequence_gradients", tr, "_sequence_gradients", "params", "skipped",
         lambda _, r: float(math.isnan(r[0]))),
        ("ops.backward", getattr(ops, "Tape", None), "backward", "self", "nodes",
         lambda tape, _: len(tape.entries)),
    ]
    for span, owner, attr, arg, key, amount in plan:
        fn = getattr(owner, attr, None)
        if fn is not None:
            out[span] = (None, counting(span, fn, arg, key, amount))

    sgd = getattr(tr, "sgd_step", None)
    if sgd is not None:
        grads_of, cfg_of = _argument(sgd, "grads"), _argument(sgd, "cfg")
        if grads_of is not None and cfg_of is not None:
            def clipped(tracer, args, kwargs, result):
                norm = math.sqrt(sum(float(np.sum(g * g))
                                     for g in grads_of(args, kwargs).values()))
                tracer.count("training.sgd_step.clipped", float(norm > cfg_of(args, kwargs).clip))
            out["training.sgd_step"] = (None, clipped)

    fwd = getattr(net, "forward_sequence", None)
    if fwd is not None:
        tape_of, frames_of = _argument(fwd, "tape"), _argument(fwd, "frames")
        if tape_of is not None and frames_of is not None:
            def name_forward(args, kwargs):
                taped = tape_of(args, kwargs) is not None
                return "network.forward_sequence_taped" if taped else "network.forward_sequence"

            def forward_steps(tracer, args, kwargs, result):
                tracer.count(name_forward(args, kwargs) + ".steps",
                             len(frames_of(args, kwargs)) - 1)
            out["network.forward_sequence"] = (name_forward, forward_steps)
    return out


def hooks(package):
    """(module, qualname, span name, namer, observe) for every traced function."""
    module_map = {m: getattr(package, m, None) for m in LAYER_MODULES}
    missing = [m for m, mod in module_map.items() if mod is None]
    if missing:
        raise ImportError(f"memtrack lacks layer modules {missing}")
    observers = _observers(module_map)
    table = []
    for short, mod in module_map.items():
        for fn in public_functions(mod):
            span = f"{short}.{fn}"
            namer, observe = observers.get(span, (None, None))
            table.append((mod, fn, span, namer, observe))
    for short, qualname, span in PRIVATE_HOOKS:
        namer, observe = observers.get(span, (None, None))
        table.append((module_map[short], qualname, span, namer, observe))
    return table


# -- derived per-layer metrics ------------------------------------------------
#
# Each entry: (metric, unit, better, primary span, formula).  A formula takes
# the per-span table of one phase and that phase's counters and returns a
# number, or None when the phase never ran the primary span.

def _per_call(span, scale, field="total_s"):
    def f(t, c):
        row = t.get(span)
        return row[field] / row["calls"] * scale if row else None
    return f


def _per_unit(span, unit_key, scale):
    def f(t, c):
        row, units = t.get(span), c.get(unit_key, 0.0)
        return row["total_s"] / units * scale if row and units else None
    return f


def _ratio(key, span):
    def f(t, c):
        row = t.get(span)
        return c.get(key, 0.0) / row["calls"] if row else None
    return f


def _count(key, span):
    def f(t, c):
        return c.get(key, 0.0) if t.get(span) else None
    return f


def _calls(span):
    def f(t, c):
        row = t.get(span)
        return float(row["calls"]) if row else None
    return f


def _mb_per_s(t, c):
    row, nbytes = t.get("store.read_dataset"), c.get("store.read_dataset.bytes", 0.0)
    return nbytes / 1e6 / row["total_s"] if row and nbytes else None


def _commands_self_ms(t, c):
    rows = [row for name, row in t.items() if name.startswith("cli.cmd_")]
    calls = sum(row["calls"] for row in rows)
    return sum(row["self_s"] for row in rows) / calls * 1e3 if calls else None


def _backward_per_step(t, c):
    row = t.get("ops.backward")
    steps = c.get("network.forward_sequence_taped.steps", 0.0)
    return row["total_s"] / steps * 1e6 if row and steps else None


LAYER_METRICS = [
    ("simulate.generate_case.us_per_step", "us", "lower", "simulate.generate_case",
     _per_unit("simulate.generate_case", "simulate.generate_case.steps", 1e6)),
    ("store.read_dataset.ms", "ms", "lower", "store.read_dataset",
     _per_call("store.read_dataset", 1e3)),
    ("store.read_dataset.mb_per_s", "MB/s", "higher", "store.read_dataset", _mb_per_s),
    ("store.read_checkpoint.ms", "ms", "lower", "store.read_checkpoint",
     _per_call("store.read_checkpoint", 1e3)),
    ("store.write_dataset.ms", "ms", "lower", "store.write_dataset",
     _per_call("store.write_dataset", 1e3)),
    ("store.write_checkpoint.ms", "ms", "lower", "store.write_checkpoint",
     _per_call("store.write_checkpoint", 1e3)),
    ("store.write_report.ms", "ms", "lower", "store.write_report",
     _per_call("store.write_report", 1e3)),
    ("models.frame_stats.us", "us", "lower", "models.frame_stats",
     _per_call("models.frame_stats", 1e6)),
    ("filtering.run_filter.us_per_step", "us", "lower", "filtering.run_filter",
     _per_unit("filtering.run_filter", "filtering.run_filter.steps", 1e6)),
    *[(f"filtering.{fn}.us", "us", "lower", f"filtering.{fn}",
       _per_call(f"filtering.{fn}", 1e6))
      for fn in ("predict_state", "predict_extension", "innovation",
                 "update_state", "update_extension")],
    ("network.forward_sequence.us_per_step", "us", "lower", "network.forward_sequence",
     _per_unit("network.forward_sequence", "network.forward_sequence.steps", 1e6)),
    *[(f"network.{fn}.us", "us", "lower", f"network.{fn}", _per_call(f"network.{fn}", 1e6))
      for fn in ("mub_step", "jeb_heads", "jub_heads")],
    ("network.forward_sequence_taped.us_per_step", "us", "lower",
     "network.forward_sequence_taped",
     _per_unit("network.forward_sequence_taped",
               "network.forward_sequence_taped.steps", 1e6)),
    ("network.sequence_loss.us", "us", "lower", "network.sequence_loss",
     _per_call("network.sequence_loss", 1e6)),
    ("ops.tape_nodes_per_seq", "count", "lower", "ops.backward",
     _ratio("ops.backward.nodes", "ops.backward")),
    ("ops.backward.us_per_step", "us", "lower", "ops.backward", _backward_per_step),
    ("training.collect_feature_stats.s", "s", "lower", "training.collect_feature_stats",
     _per_call("training.collect_feature_stats", 1.0)),
    ("training.validation.s_per_epoch", "s", "lower", "training.validation",
     _per_call("training.validation", 1.0)),
    ("training.sgd_step.us", "us", "lower", "training.sgd_step",
     _per_call("training.sgd_step", 1e6)),
    ("training.clipped_frac", "ratio", "lower", "training.sgd_step",
     _ratio("training.sgd_step.clipped", "training.sgd_step")),
    ("training.gradient_seqs", "count", "higher", "training.sequence_gradients",
     _calls("training.sequence_gradients")),
    ("training.skipped_seqs", "count", "lower", "training.sequence_gradients",
     _count("training.sequence_gradients.skipped", "training.sequence_gradients")),
    ("metrics.iou_ellipse.ms", "ms", "lower", "metrics.iou_ellipse",
     _per_call("metrics.iou_ellipse", 1e3)),
    ("metrics.iou_ellipse.polygon_order", "count", "lower", "metrics.iou_ellipse",
     _ratio("metrics.iou_ellipse.order", "metrics.iou_ellipse")),
    ("metrics.gwd.us", "us", "lower", "metrics.gwd", _per_call("metrics.gwd", 1e6)),
    ("metrics.case_series.ms_per_step", "ms", "lower", "metrics.case_series",
     _per_unit("metrics.case_series", "metrics.case_series.steps", 1e3)),
    ("spdmat.sym_sqrt.us", "us", "lower", "spdmat.sym_sqrt", _per_call("spdmat.sym_sqrt", 1e6)),
    ("cli.main.self_ms", "ms", "lower", "cli.main", _per_call("cli.main", 1e3, "self_s")),
    ("cli.commands.self_ms", "ms", "lower", "cli.main", _commands_self_ms),
]


# Computed by the traced run itself: the tracing cost on identical calls,
# and the share of CLI call time that named layers below cli.main explain.
TRACE_METRICS = [
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
]


def layer_metrics(tables, counts, unavailable):
    """Evaluate LAYER_METRICS, preferring the measured loop over set-up.

    ``tables``/``counts`` map phase -> per-span table / counters.  Returns
    metric -> (value or None, phase or reason).  A metric whose hook point
    is gone is None with the reason, never 0.
    """
    out = {}
    for metric, _unit, _better, primary, formula in LAYER_METRICS:
        if primary in unavailable:
            out[metric] = (None, unavailable[primary])
            continue
        for phase in ("loop", "setup"):
            value = formula(tables.get(phase, {}), counts.get(phase, {}))
            if value is not None:
                out[metric] = (value, phase)
                break
        else:
            out[metric] = (None, f"{primary} never ran")
    return out
