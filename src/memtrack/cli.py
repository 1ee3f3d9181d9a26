"""Command-line surface: simulate | train | eval | track | gradcheck | datascale.

All commands are deterministic under a fixed --seed; every result is a file
(CSV/JSON/.npz archive) so plotting stays external.  Exit codes: 0 on
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

from .config import ConfigView, load_config
from .errors import ConfigError, MemtrackError, NonFinite, StoreError
from .filtering import TrackerConfig, run_filter
from .metrics import MetricsReport, evaluate_run
from .models import NominalModel, ScenarioConfig, nominal_cv_model
from .network import forward_sequence, init_params
from .simulate import Dataset, generate_case, generate_dataset
from .store import (
    read_checkpoint,
    read_dataset,
    write_checkpoint,
    write_dataset,
    write_report,
)
from .training import EpochRecord, TrainConfig, grad_check, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_NOISE_LEVELS = [(0.4, 0.6), (0.6, 0.8), (0.8, 1.0), (1.0, 1.2)]

MASK_TOKENS = {"jeb": "mask_evolution", "jub": "mask_update", "mub": "mask_memory"}

# Sections that mirror a config dataclass: each field with a plain default is
# the key ``section.<field>``, read with the type of that default, so the
# dataclass holds the only default.  The train masks are set only by --mask.
DATACLASS_SECTIONS = {
    "scenario": (ScenarioConfig, ()),
    "tracker": (TrackerConfig, ()),
    "train": (TrainConfig, tuple(MASK_TOKENS.values())),
}

# Keys read by name: the nominal model, the simulate sweep and datascale.
NAMED_KEYS = ("model.q_sigma", "model.delta", "simulate.levels",
              "datascale.sizes", "datascale.test_cases", "datascale.epochs")

_GETTERS = {int: ConfigView.get_int, float: ConfigView.get_float,
            str: ConfigView.get_str, bool: ConfigView.get_bool}


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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--levels", default=None,
                   help="noise levels as sw:sv pairs, e.g. 0.4:0.6,0.6:0.8")

    p = sub.add_parser("train", help="train the compensation network")
    p.add_argument("dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", default=None, help="history CSV (default: <out>.history.csv)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--memory-dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mask", default="", help="comma list from {jeb, jub, mub}")

    p = sub.add_parser("eval", help="evaluate on the test split")
    p.add_argument("dataset")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--baseline", action="store_true",
                   help="zero-compensation filter instead of a checkpoint")
    p.add_argument("--compare", action="store_true",
                   help="run both baseline and checkpoint, emit a side-by-side table")
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--polygon", type=int, default=256)

    p = sub.add_parser("track", help="dump one case's trajectory and extents")
    p.add_argument("dataset")
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value config file")

    p = sub.add_parser("gradcheck", help="verify BPTT gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--memory-dim", type=int, default=6)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--corrupt", action="store_true",
                   help="damage one adjoint to prove the harness catches it")

    p = sub.add_parser("datascale", help="test RMSE at a ladder of training-set sizes")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", required=True, help="CSV output")
    p.add_argument("--sizes", default=None, help="comma list, default 100,200,1000")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    return parser


def _load_view(path) -> ConfigView:
    if path is None:
        return ConfigView()
    view = load_config(path)
    unknown = sorted(set(view.values) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {', '.join(unknown)}")
    return view


def _section_values(view: ConfigView, section: str) -> dict:
    """The fields of a dataclass section that the config file sets."""
    return {f.name: _GETTERS[type(f.default)](view, f"{section}.{f.name}")
            for f in _section_fields(section) if f"{section}.{f.name}" in view.values}


def _checked(build, *args, **kwargs):
    """Build a config object, reporting its range checks as ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _scenario_from(view: ConfigView, args) -> ScenarioConfig:
    values = _section_values(view, "scenario")
    for name in ("cases", "steps", "seed"):
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    return _checked(ScenarioConfig, **values)


def _tracker_from(view: ConfigView) -> TrackerConfig:
    return TrackerConfig(**_section_values(view, "tracker"))


def _model_from(view: ConfigView, dataset_cfg: ScenarioConfig) -> NominalModel:
    return nominal_cv_model(
        sigma_w=view.get_float("model.q_sigma", dataset_cfg.sigma_w),
        dt=dataset_cfg.dt,
        delta=view.get_float("model.delta", 7.0),
    )


def _train_config(view: ConfigView, mask_spec: str = "", **overrides) -> TrainConfig:
    """Train settings from the config file; non-None ``overrides`` win."""
    tokens = [t.strip() for t in mask_spec.split(",") if t.strip()]
    unknown = [t for t in tokens if t not in MASK_TOKENS]
    if unknown:
        raise ConfigError(f"unknown mask tokens {unknown}; valid: jeb, jub, mub")
    values = _section_values(view, "train")
    values["tracker"] = _tracker_from(view)
    values.update({MASK_TOKENS[t]: True for t in tokens})
    values.update({k: v for k, v in overrides.items() if v is not None})
    return _checked(TrainConfig, **values)


def cmd_simulate(args) -> int:
    view = _load_view(args.config)
    base = _scenario_from(view, args)
    if args.levels is not None:
        levels = ConfigView({"--levels": args.levels}).get_float_pairs("--levels")
    else:
        levels = view.get_float_pairs("simulate.levels", DEFAULT_NOISE_LEVELS)
    configs = [_checked(replace, base, sigma_w=sw, sigma_v=sv, seed=base.seed + li)
               for li, (sw, sv) in enumerate(levels)]
    os.makedirs(args.out, exist_ok=True)
    for cfg in configs:
        dataset = generate_dataset(cfg)
        name = f"dataset_sw{cfg.sigma_w:g}_sv{cfg.sigma_v:g}.mtds"
        path = os.path.join(args.out, name)
        write_dataset(dataset, path)
        mean_n = float(np.mean([len(f) for c in dataset.cases for f in c.frames]))
        print(f"{name}: cases={cfg.cases} steps={cfg.steps} "
              f"train/test={len(dataset.train_idx)}/{len(dataset.test_idx)} "
              f"mean scatterers={mean_n:.2f}")
    return EXIT_OK


def _history_csv(history, path) -> None:
    """One column per ``EpochRecord`` field: ints as written, floats at 17 digits."""
    lines = [",".join(f.name for f in fields(EpochRecord))]
    for rec in history:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in astuple(rec)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    view = _load_view(args.config)
    dataset = read_dataset(args.dataset)
    model = _model_from(view, dataset.config)
    cfg = _train_config(view, args.mask, epochs=args.epochs, learning_rate=args.lr,
                        folds=args.folds, batch_size=args.batch,
                        memory_dim=args.memory_dim, seed=args.seed)
    params, history, folds = train(dataset, model, cfg)
    digest = hashlib.sha256(
        json.dumps({k: str(v) for k, v in vars(cfg).items()}, sort_keys=True).encode()
    ).hexdigest()[:16]
    write_checkpoint(params, args.out, train_config_digest=digest)
    _history_csv(history, args.history or (args.out + ".history.csv"))
    for rep in folds:
        print(f"fold {rep.fold}: best epoch {rep.best_epoch} "
              f"val loss {rep.best_val_loss:.6g}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _posteriors_for(dataset: Dataset, model, tracker, params=None):
    runs = []
    for idx in dataset.test_idx:
        frames = dataset.cases[int(idx)].frames
        if params is None:
            states, exts, _ = run_filter(frames, model, tracker)
        else:
            states, exts, _ = forward_sequence(params, frames, model, tracker)
        runs.append((states, exts))
    return runs


def _report_line(tag: str, rep: MetricsReport) -> str:
    return (f"{tag:10s} rmse={rep.position_rmse:.4f} m  iou={rep.mean_iou:.4f}  "
            f"gwd={rep.mean_gwd:.4f}  peaks: err={rep.peak_position_error:.4f} "
            f"iou={rep.peak_iou:.4f} gwd={rep.peak_gwd:.4f}")


def cmd_eval(args) -> int:
    view = _load_view(args.config)
    dataset = read_dataset(args.dataset)
    model = _model_from(view, dataset.config)
    tracker = _tracker_from(view)
    if not args.baseline and not args.checkpoint and not args.compare:
        raise ConfigError("eval needs --checkpoint, --baseline, or --compare")
    if args.baseline and args.checkpoint and not args.compare:
        raise ConfigError("--baseline scores no checkpoint; drop --checkpoint, "
                          "or use --compare with --checkpoint for both rows")
    if args.polygon < 3:
        raise ConfigError(f"--polygon must be at least 3, got {args.polygon}")
    if len(dataset.test_idx) == 0:
        raise StoreError("dataset has no test split")

    modes = []
    if args.compare:
        if not args.checkpoint:
            raise ConfigError("--compare needs --checkpoint for the learned row")
        modes = [("baseline", None), ("learned", read_checkpoint(args.checkpoint))]
    elif args.baseline:
        modes = [("baseline", None)]
    else:
        modes = [("learned", read_checkpoint(args.checkpoint))]

    rows = []
    for tag, params in modes:
        runs = _posteriors_for(dataset, model, tracker, params)
        report = evaluate_run(dataset, runs, polygon_order=args.polygon)
        suffix = f".{tag}" if len(modes) > 1 else ""
        write_report(report, f"{args.out}{suffix}.csv", "csv")
        write_report(report, f"{args.out}{suffix}.json", "json")
        rows.append((tag, report))
        print(_report_line(tag, report))
    if len(rows) == 2:
        with open(f"{args.out}.compare.csv", "w", encoding="utf-8") as fh:
            fh.write("mode,position_rmse,mean_iou,mean_gwd\n")
            for tag, rep in rows:
                fh.write(f"{tag},{rep.position_rmse:.17g},{rep.mean_iou:.17g},"
                         f"{rep.mean_gwd:.17g}\n")
    return EXIT_OK


def _ellipse_params(extent: np.ndarray):
    w, u = np.linalg.eigh(extent)
    major = np.sqrt(max(w[1], 0.0))
    minor = np.sqrt(max(w[0], 0.0))
    vec = u[:, 1]
    angle = float(np.arctan2(vec[1], vec[0]))
    if angle < -np.pi / 2:
        angle += np.pi
    elif angle >= np.pi / 2:
        angle -= np.pi
    return major, minor, angle


def cmd_track(args) -> int:
    from .filtering import extension_mean
    from . import ops

    view = _load_view(args.config)
    dataset = read_dataset(args.dataset)
    if not (0 <= args.case < len(dataset.cases)):
        raise StoreError(f"case index {args.case} out of range 0..{len(dataset.cases) - 1}")
    model = _model_from(view, dataset.config)
    tracker = _tracker_from(view)
    case = dataset.cases[args.case]
    if args.checkpoint:
        params = read_checkpoint(args.checkpoint)
        states, exts, _ = forward_sequence(params, case.frames, model, tracker)
    else:
        states, exts, _ = run_filter(case.frames, model, tracker)

    header = ("step,truth_px,truth_py,truth_vx,truth_vy,truth_a,truth_b,truth_angle,"
              "est_px,est_py,est_vx,est_vy,est_a,est_b,est_angle,n")
    lines = [header]
    for i, (st, ex) in enumerate(zip(states, exts)):
        k = i + 1
        tstate = case.truth.states[k]
        ta, tb, tang = _ellipse_params(case.truth.extents[k])
        mean = ops.value(st.mean)
        ea, eb, eang = _ellipse_params(np.asarray(ops.value(extension_mean(ex))))
        n = len(case.frames[k])
        vals = list(tstate) + [ta, tb, tang] + list(mean) + [ea, eb, eang]
        lines.append(f"{k}," + ",".join(f"{v:.17g}" for v in vals) + f",{n}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    points_path = args.out + ".points.csv"
    with open(points_path, "w", encoding="utf-8") as fh:
        fh.write("step,x,y\n")
        for k, frame in enumerate(case.frames):
            for p in frame:
                fh.write(f"{k},{p[0]:.17g},{p[1]:.17g}\n")
    print(f"track written to {args.out} ({len(states)} rows); points to {points_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _checked(ScenarioConfig, steps=args.steps, cases=1, seed=args.seed)
    if args.memory_dim <= 0:
        raise ConfigError(f"--memory-dim must be positive, got {args.memory_dim}")
    case = generate_case(cfg, args.seed, 0)
    model = nominal_cv_model(sigma_w=cfg.sigma_w, dt=cfg.dt)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((args.seed, 0xC))))
    params = init_params(args.memory_dim, rng)
    for name, arr in params.arrays.items():
        params.arrays[name] = arr + 0.05 * rng.standard_normal(arr.shape)
    err = grad_check(params, case, model, eps=1e-5, corrupt=args.corrupt)
    status = "PASS" if err < args.tolerance else "FAIL"
    print(f"gradcheck {status}: max relative error {err:.3e} "
          f"(tolerance {args.tolerance:g}, K={cfg.steps}, memory_dim={args.memory_dim})")
    return EXIT_OK if err < args.tolerance else EXIT_NUMERIC


def cmd_datascale(args) -> int:
    view = _load_view(args.config)
    base = _scenario_from(view, args)
    if args.sizes is not None:
        sizes = ConfigView({"--sizes": args.sizes}).get_int_list("--sizes")
    else:
        sizes = view.get_int_list("datascale.sizes", [100, 200, 1000])
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"datascale sizes must be positive integers, got {sizes}")
    test_cases = view.get_int("datascale.test_cases", 25)
    if test_cases < 1:
        raise ConfigError(f"datascale.test_cases must be positive, got {test_cases}")
    epochs = args.epochs if args.epochs is not None else view.get_int("datascale.epochs", 10)
    seed = args.seed if args.seed is not None else base.seed
    train_cfg = _train_config(view, epochs=epochs, folds=1, seed=seed)

    rows = []
    largest = max(sizes)
    cfg_all = _checked(replace, base, cases=largest + test_cases,
                       train_fraction=largest / (largest + test_cases), seed=seed)
    dataset_all = generate_dataset(cfg_all)
    model = _model_from(view, cfg_all)
    tracker = _tracker_from(view)

    baseline_runs = _posteriors_for(dataset_all, model, tracker, None)
    baseline_rep = evaluate_run(dataset_all, baseline_runs,
                                polygon_order=train_cfg.history_polygon)
    rows.append(("baseline", baseline_rep))
    print(_report_line("baseline", baseline_rep))

    for size in sizes:
        subset = Dataset(
            cases=dataset_all.cases,
            train_idx=dataset_all.train_idx[:size],
            test_idx=dataset_all.test_idx,
            config=cfg_all,
            master_seed=seed,
        )
        params, _, _ = train(subset, model, train_cfg)
        runs = _posteriors_for(dataset_all, model, tracker, params)
        rep = evaluate_run(dataset_all, runs, polygon_order=train_cfg.history_polygon)
        rows.append((str(size), rep))
        print(_report_line(str(size), rep))

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("train_cases,position_rmse,mean_iou,mean_gwd\n")
        for tag, rep in rows:
            fh.write(f"{tag},{rep.position_rmse:.17g},{rep.mean_iou:.17g},"
                     f"{rep.mean_gwd:.17g}\n")
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
