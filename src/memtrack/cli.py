"""Command-line surface: simulate | train | eval | track | gradcheck | datascale.

All commands are deterministic under a fixed --seed, and every result is a
file, so plotting stays external: :mod:`memtrack.store` writes the datasets,
checkpoints, JSON reports and every CSV table.  A flag that mirrors a config
key has the key as its ``dest`` and is read as that key's file value.  Each
command checks its settings and its output paths (each directory exists, no
file is an existing directory, no two name one file, none names the
dataset, ``--checkpoint`` or ``--config`` it reads; ``simulate`` creates
its ``--out``) before it reads an input or simulates, except settings that
need the dataset: the ``model.*`` keys (``q_sigma`` defaults to its σ_w)
and ``track --case``.  ``eval``/``track``
score ``--checkpoint``, or the baseline without one.  Exit codes: 0 on
success, 2 for configuration problems, 3 for data/file problems, 4 for
numeric failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import MISSING, astuple, fields, replace

import numpy as np

from . import config, ops
from .errors import ConfigError, MemtrackError, NonFinite, StoreError
from .filtering import TrackerConfig, extension_mean, run_filter
from .metrics import MAX_POLYGON_ORDER, evaluate_run
from .models import NominalModel, ScenarioConfig, nominal_cv_model, stack_frames
from .network import MASK_FIELDS, forward_sequence, init_params
from .simulate import generate_case, generate_dataset
from .spdmat import ellipse_axes
from .store import (
    read_checkpoint,
    read_dataset,
    write_checkpoint,
    write_dataset,
    write_report,
    write_table,
)
from .training import MAX_MEMORY_DIM, EpochRecord, TrainConfig, check_folds, grad_check, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_NOISE_LEVELS = [(0.4, 0.6), (0.6, 0.8), (0.8, 1.0), (1.0, 1.2)]

# Sections that mirror a config dataclass: each field with a plain default is
# the key ``section.<field>``, read with the type of that default, so the
# dataclass holds the only default.  The train masks are set only by --mask.
DATACLASS_SECTIONS = {
    "scenario": (ScenarioConfig, ()),
    "tracker": (TrackerConfig, ()),
    "train": (TrainConfig, tuple(MASK_FIELDS.values())),
}

# Keys read by name: the nominal model, the simulate sweep and datascale.
NAMED_KEYS = ("model.q_sigma", "model.delta", "simulate.levels",
              "datascale.sizes", "datascale.test_cases", "datascale.epochs")


def _section_fields(section: str):
    cls, skip = DATACLASS_SECTIONS[section]
    return [f for f in fields(cls) if f.default is not MISSING and f.name not in skip]


# Every key that some command reads; a config file setting any other exits 2.
CONFIG_KEYS = frozenset(NAMED_KEYS).union(
    f"{section}.{f.name}" for section in DATACLASS_SECTIONS for f in _section_fields(section))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtrack",
        description="Memory-aided random-matrix extended-object tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate benchmark datasets")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", dest="scenario.seed")
    p.add_argument("--cases", dest="scenario.cases")
    p.add_argument("--steps", dest="scenario.steps")
    p.add_argument("--levels", dest="simulate.levels",
                   help="noise levels as sw:sv pairs, e.g. 0.4:0.6,0.6:0.8")

    p = sub.add_parser("train", help="train the compensation network")
    p.add_argument("dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", default=None, help="history CSV (default: <out>.history.csv)")
    p.add_argument("--epochs", dest="train.epochs")
    p.add_argument("--lr", dest="train.learning_rate")
    p.add_argument("--folds", dest="train.folds")
    p.add_argument("--batch", dest="train.batch_size")
    p.add_argument("--memory-dim", dest="train.memory_dim")
    p.add_argument("--seed", dest="train.seed")
    p.add_argument("--mask", default="", help="comma list from {jeb, jub, mub}")

    p = sub.add_parser("eval", help="evaluate on the test split")
    p.add_argument("dataset")
    p.add_argument("--checkpoint", help="score the learned tracker, not the baseline")
    p.add_argument("--compare", action="store_true",
                   help="score the baseline and --checkpoint, emit a side-by-side table")
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--polygon", type=int, default=256)

    p = sub.add_parser("track", help="dump one case's trajectory and extents")
    p.add_argument("dataset")
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value config file")

    p = sub.add_parser("gradcheck",
                       help="verify the training gradient against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--memory-dim", type=int, default=6)
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = sub.add_parser("datascale", help="test RMSE at a ladder of training-set sizes")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="CSV output")
    p.add_argument("--sizes", dest="datascale.sizes", help="comma list, default 100,200,1000")
    p.add_argument("--seed", dest="scenario.seed")
    p.add_argument("--epochs", dest="datascale.epochs")
    return parser


def _load_view(args) -> dict[str, str]:
    """The ``--config`` file's keys, each overridden by the flag whose dest it is."""
    view = {} if args.config is None else config.load_config(args.config)
    unknown = sorted(set(view) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{args.config}: unknown config keys {', '.join(unknown)}")
    view.update((key, value) for key, value in vars(args).items()
                if key in CONFIG_KEYS and value is not None)
    return view


def _checked(build, *args, **kwargs):
    """Build a config object, reporting its range checks as ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _section(view: dict, section: str, **values):
    """A dataclass section built from the keys ``view`` sets, each parsed
    with the type of its field's default; ``values`` win."""
    cls, _ = DATACLASS_SECTIONS[section]
    parsed = {f.name: config.get(view, f"{section}.{f.name}", type(f.default))
              for f in _section_fields(section) if f"{section}.{f.name}" in view}
    return _checked(cls, **{**parsed, **values})


def _model_from(view: dict, dataset_cfg: ScenarioConfig) -> NominalModel:
    """The nominal model; an unset ``model.delta`` takes nominal_cv_model's default."""
    settings = {"sigma_w": config.get(view, "model.q_sigma", float, dataset_cfg.sigma_w),
                "dt": dataset_cfg.dt}
    if "model.delta" in view:
        settings["delta"] = config.get(view, "model.delta", float)
    return _checked(nominal_cv_model, **settings)


def _train_config(view: dict, mask_spec: str = "", **overrides) -> TrainConfig:
    """Train settings from the config view; ``overrides`` win."""
    tokens = [t.strip() for t in mask_spec.split(",") if t.strip()]
    unknown = [t for t in tokens if t not in MASK_FIELDS]
    if unknown:
        raise ConfigError(f"unknown mask tokens {unknown}; valid: {', '.join(MASK_FIELDS)}")
    return _section(view, "train", tracker=_section(view, "tracker"),
                    **{MASK_FIELDS[t]: True for t in tokens}, **overrides)


def _check_out_dirs(*paths, reads=()) -> None:
    """Raise StoreError unless the directory of each output path exists, no
    path is an existing directory, no two paths name one file and none
    names a file the command reads (``reads``; None for an unset one)."""
    inputs = {os.path.realpath(path): path for path in reads if path is not None}
    for path in paths:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise StoreError(f"output directory {directory} does not exist")
        if os.path.isdir(path):
            raise StoreError(f"output path {path} is a directory")
        if os.path.realpath(path) in inputs:
            raise StoreError(f"output path {path} names the input {inputs[os.path.realpath(path)]}")
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise StoreError(f"output paths {' and '.join(paths)} name one file")


def cmd_simulate(args) -> int:
    view = _load_view(args)
    base = _section(view, "scenario")
    levels = config.get_float_pairs(view, "simulate.levels", DEFAULT_NOISE_LEVELS)
    configs = {}  # output path -> its level's scenario
    for li, (sw, sv) in enumerate(levels):
        cfg = _checked(replace, base, sigma_w=sw, sigma_v=sv, seed=base.seed + li)
        path = os.path.join(args.out, f"dataset_sw{cfg.sigma_w:g}_sv{cfg.sigma_v:g}.mtds")
        if path in configs:
            raise ConfigError(f"two noise levels would write {path}")
        configs[path] = cfg
    os.makedirs(args.out, exist_ok=True)
    _check_out_dirs(*configs, reads=(args.config,))
    for path, cfg in configs.items():
        dataset = generate_dataset(cfg)
        write_dataset(dataset, path)
        mean_n = float(np.mean([c.frames.counts for c in dataset.cases]))
        print(f"{os.path.basename(path)}: cases={cfg.cases} steps={cfg.steps} "
              f"train/test={len(dataset.train_cases)}/{len(dataset.test_cases)} "
              f"mean scatterers={mean_n:.2f}")
        del dataset  # the next level is generated without this one alive
    return EXIT_OK


def cmd_train(args) -> int:
    view = _load_view(args)
    cfg = _train_config(view, args.mask)
    history_path = args.history or (args.out + ".history.csv")
    _check_out_dirs(args.out, history_path, reads=(args.dataset, args.config))
    dataset = read_dataset(args.dataset)
    model = _model_from(view, dataset.config)
    params, history, folds = train(dataset.train_cases, model, cfg)
    digest = hashlib.sha256(
        json.dumps({k: str(v) for k, v in vars(cfg).items()}, sort_keys=True).encode()
    ).hexdigest()[:16]
    write_checkpoint(params, args.out, train_config_digest=digest)
    write_table(history_path, [f.name for f in fields(EpochRecord)],
                [astuple(rec) for rec in history])
    for rep in folds:
        print(f"fold {rep.fold}: best epoch {rep.best_epoch} "
              f"val loss {rep.best_val_loss:.6g}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _posteriors_for(cases, model, tracker, params=None):
    """(states, extensions) of one baseline or learned filter run over all
    ``cases``: a batch with a leading case axis, or the only case's.  A
    non-finite posterior raises NonFinite from :func:`run_filter`."""
    frames = stack_frames([case.frames for case in cases])
    if params is None:
        states, exts, _ = run_filter(frames, model, tracker)
    else:
        states, exts, _ = forward_sequence(params, frames, model, tracker)
    return states, exts


def _scored(tag: str, cases, model, tracker, params, polygon_order: int):
    """Run one mode over ``cases``, score it and print its line: (tag, report)."""
    rep = evaluate_run(cases, _posteriors_for(cases, model, tracker, params),
                       polygon_order=polygon_order)
    print(f"{tag:10s} rmse={rep.position_rmse:.4f} m  iou={rep.mean_iou:.4f}  "
          f"gwd={rep.mean_gwd:.4f}  peaks: err={rep.peak_position_error:.4f} "
          f"iou={rep.peak_iou:.4f} gwd={rep.peak_gwd:.4f}")
    return tag, rep


def _pooled_table(path, first_column: str, rows) -> None:
    """One row per (tag, MetricsReport): the pooled RMSE, IoU and GWD."""
    write_table(path, (first_column, "position_rmse", "mean_iou", "mean_gwd"),
                [(tag, r.position_rmse, r.mean_iou, r.mean_gwd) for tag, r in rows])


def cmd_eval(args) -> int:
    view = _load_view(args)
    tracker = _section(view, "tracker")
    if args.compare and not args.checkpoint:
        raise ConfigError("--compare needs --checkpoint for the learned row")
    if not 3 <= args.polygon <= MAX_POLYGON_ORDER:
        raise ConfigError(f"--polygon must be between 3 and {MAX_POLYGON_ORDER}, "
                          f"got {args.polygon}")
    # mode -> its report's path prefix; --compare also writes the pooled table
    if args.compare:
        prefixes = {tag: f"{args.out}.{tag}" for tag in ("baseline", "learned")}
    else:
        prefixes = {"learned" if args.checkpoint else "baseline": args.out}
    compare_path = f"{args.out}.compare.csv"
    _check_out_dirs(*(prefix + ext for prefix in prefixes.values() for ext in (".csv", ".json")),
                    *([compare_path] if args.compare else []),
                    reads=(args.dataset, args.checkpoint, args.config))
    dataset = read_dataset(args.dataset)
    model = _model_from(view, dataset.config)
    cases = dataset.test_cases
    if not cases:
        raise StoreError("dataset has no test split")

    learned = read_checkpoint(args.checkpoint) if args.checkpoint else None
    rows = [_scored(tag, cases, model, tracker, learned if tag == "learned" else None,
                    args.polygon) for tag in prefixes]
    for tag, report in rows:
        write_report(report, prefixes[tag])
    if args.compare:
        _pooled_table(compare_path, "mode", rows)
    return EXIT_OK


def cmd_track(args) -> int:
    view = _load_view(args)
    tracker = _section(view, "tracker")
    points_path = args.out + ".points.csv"
    _check_out_dirs(args.out, points_path, reads=(args.dataset, args.checkpoint, args.config))
    dataset = read_dataset(args.dataset)
    if not (0 <= args.case < len(dataset.cases)):
        raise StoreError(f"case index {args.case} out of range 0..{len(dataset.cases) - 1}")
    model = _model_from(view, dataset.config)
    case = dataset.cases[args.case]
    params = read_checkpoint(args.checkpoint) if args.checkpoint else None
    states, exts = _posteriors_for([case], model, tracker, params)

    header = ("step", "truth_px", "truth_py", "truth_vx", "truth_vy", "truth_a", "truth_b",
              "truth_angle", "est_px", "est_py", "est_vx", "est_vy", "est_a", "est_b",
              "est_angle", "n")
    # each table is one float array: its step and count columns print as ints at %.17g
    counts = case.frames.counts
    steps = np.arange(len(counts))
    rows = slice(1, len(states) + 1)
    table = np.column_stack([
        steps[rows], case.truth.states[rows], ellipse_axes(case.truth.extents[rows]),
        np.array([ops.value(st.mean) for st in states]),
        ellipse_axes(np.array([ops.value(extension_mean(ex)) for ex in exts])),
        counts[rows],
    ])
    write_table(args.out, header, table.tolist())
    write_table(points_path, ("step", "x", "y"),
                np.column_stack([np.repeat(steps, counts), case.frames.points]).tolist())
    print(f"track written to {args.out} ({len(states)} rows); points to {points_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _checked(ScenarioConfig, steps=args.steps, cases=1, seed=args.seed)
    if not 0 < args.memory_dim <= MAX_MEMORY_DIM:
        raise ConfigError(f"--memory-dim must be between 1 and {MAX_MEMORY_DIM}, "
                          f"got {args.memory_dim}")
    if not 0 < args.tolerance < np.inf:  # NaN fails both tests
        raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance}")
    case = generate_case(cfg, args.seed, 0)
    model = nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((args.seed, 0xC))))
    params = init_params(args.memory_dim, rng)
    for name, arr in params.arrays.items():
        params.arrays[name] = arr + 0.05 * rng.standard_normal(arr.shape)
    err = grad_check(params, case, model, eps=1e-5)
    status = "PASS" if err < args.tolerance else "FAIL"
    print(f"gradcheck {status}: max relative error {err:.3e} "
          f"(tolerance {args.tolerance:g}, K={cfg.steps}, memory_dim={args.memory_dim})")
    return EXIT_OK if err < args.tolerance else EXIT_NUMERIC


def cmd_datascale(args) -> int:
    view = _load_view(args)
    base = _section(view, "scenario")
    sizes = config.get_int_list(view, "datascale.sizes", [100, 200, 1000])
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"datascale sizes must be positive integers, got {sizes}")
    test_cases = config.get(view, "datascale.test_cases", int, 25)
    if test_cases < 1:
        raise ConfigError(f"datascale.test_cases must be positive, got {test_cases}")
    epochs = config.get(view, "datascale.epochs", int, 10)
    train_cfg = _train_config(view, epochs=epochs, folds=1, seed=base.seed)
    for size in sizes:  # before any rung trains
        check_folds(size, train_cfg)
    _check_out_dirs(args.out, reads=(args.config,))

    largest = max(sizes)
    cfg_all = _checked(replace, base, cases=largest + test_cases,
                       train_fraction=largest / (largest + test_cases))
    dataset_all = generate_dataset(cfg_all)
    model = _model_from(view, cfg_all)
    tracker, polygon = train_cfg.tracker, train_cfg.history_polygon

    held_out = dataset_all.test_cases
    rows = [_scored("baseline", held_out, model, tracker, None, polygon)]
    for size in sizes:
        params, _, _ = train(dataset_all.train_cases[:size], model, train_cfg)
        rows.append(_scored(str(size), held_out, model, tracker, params, polygon))
    _pooled_table(args.out, "train_cases", rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "train": cmd_train,
        "eval": cmd_eval,
        "track": cmd_track,
        "gradcheck": cmd_gradcheck,
        "datascale": cmd_datascale,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StoreError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFinite as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemtrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
