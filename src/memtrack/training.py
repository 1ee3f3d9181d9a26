"""End-to-end training of the compensation network through the filter.

Backpropagation runs through the full recursion (every matrix solve and
Joseph-form update included), so the loss gradient reaches every head
weight; the optimizer is momentum SGD with global-norm gradient clipping.
Feature standardization statistics are collected from a zero-compensation
pass over the training split and frozen before the first update.

``_run_loss`` is the one place cases are forwarded and scored by the loss.
Gradients are taped one sequence at a time, on a tape of eight nodes a
step (one per filter stage and network block), four for the stacked head
weights and biases, and one for the loss; a
sequence skipped for its loss never runs the backward pass.  The plain
passes run all their cases as one batch (see
:func:`memtrack.filtering.run_filter`): the feature statistics pass over
the training cases, and each validation pass, whose metrics pool through
:func:`memtrack.metrics.evaluate_run`.  ``grad_check``
checks the gradient that training itself computes.  Each fold keeps one
copy of its best parameters, which a diverged epoch rolls back to; the
checkpoint is the first (fold, epoch) with the lowest validation loss.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as metrics_mod
from . import ops
from .errors import (ConfigError, EmptyDataset, NonFinite, NotPositiveDefinite,
                     SingularInnovation)
from .filtering import ZERO_EVOLUTION, ZERO_MEASUREMENT, TrackerConfig, run_filter
from .models import NominalModel, frame_features, stack_frames
from .network import (
    FEATURE_DIM,
    MASK_FIELDS,
    NetworkParams,
    forward_sequence,
    init_params,
    raw_features,
    sequence_loss,
)
from .simulate import SimCase

__all__ = [
    "MAX_MEMORY_DIM",
    "TrainConfig",
    "EpochRecord",
    "FoldReport",
    "sgd_step",
    "collect_feature_stats",
    "check_folds",
    "train",
    "grad_check",
]


# Widest LSTM memory a config accepts: the (4h, 18 + h) gate weights alone
# take 34 MB at this width, and a width of 10^7 would ask for petabytes.
MAX_MEMORY_DIM = 1024

# What a forward raises once its beliefs diverge: training skips such a
# sequence, and a validation pass that meets one scores inf.
_DIVERGED = (NonFinite, NotPositiveDefinite, SingularInnovation)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and cross-validation settings."""

    learning_rate: float = 1e-3
    momentum: float = 0.9
    epochs: int = 60
    batch_size: int = 8          # sequences per gradient step
    l2: float = 1e-4             # loss regularization coefficient
    folds: int = 5
    seed: int = 0
    memory_dim: int = 64
    clip: float = 5.0            # global gradient norm ceiling
    val_fraction: float = 0.2    # holdout share when folds == 1
    mask_evolution: bool = False
    mask_update: bool = False
    mask_memory: bool = False
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    history_polygon: int = 64        # polygon order of the per-epoch IoU

    def __post_init__(self):
        for name in ("learning_rate", "l2"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails both tests
                raise ValueError(f"{name} must be nonnegative and finite")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be at least 0 and below 1, got {self.momentum}")
        for name in ("epochs", "batch_size", "folds", "memory_dim", "clip"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.memory_dim > MAX_MEMORY_DIM:
            raise ValueError(f"memory_dim must be at most {MAX_MEMORY_DIM}, "
                             f"got {self.memory_dim}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 < self.val_fraction < 1:  # NaN fails both tests
            raise ValueError(f"val_fraction must be between 0 and 1, got {self.val_fraction}")
        if not 3 <= self.history_polygon <= metrics_mod.MAX_POLYGON_ORDER:
            raise ValueError(f"history_polygon must be between 3 and "
                             f"{metrics_mod.MAX_POLYGON_ORDER}, got {self.history_polygon}")


@dataclass(frozen=True)
class EpochRecord:
    fold: int
    epoch: int
    train_loss: float
    val_loss: float
    val_rmse: float
    val_iou: float
    val_gwd: float


@dataclass(frozen=True)
class FoldReport:
    fold: int
    best_epoch: int
    best_val_loss: float


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def sgd_step(
    arrays: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Momentum SGD with global-norm clipping; returns (arrays, velocity)."""
    norm = _global_norm(grads)
    scale = cfg.clip / norm if norm > cfg.clip else 1.0
    new_arrays, new_velocity = {}, {}
    for name, theta in arrays.items():
        g = grads[name] * scale
        v = cfg.momentum * velocity[name] + g
        new_velocity[name] = v
        new_arrays[name] = theta - cfg.learning_rate * v
    return new_arrays, new_velocity


class _FeatureRecorder:
    """A zero-compensation :func:`run_filter` compensator that keeps the raw
    features the network would see at every step."""

    def __init__(self):
        self.steps = []
        self.frame_rows = None

    def start(self, stats):
        self.frame_rows = iter(frame_features(stats))

    def evolve(self, state, ext, fs):
        self.steps.append(raw_features(state, ext, fs, next(self.frame_rows)))
        return ZERO_EVOLUTION

    def measure(self, pred, ext_pred):
        return ZERO_MEASUREMENT


def collect_feature_stats(
    cases: list[SimCase],
    model: NominalModel,
    tcfg: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean/std of the raw encoding over one baseline filter
    pass of all ``cases``, which share their length."""
    recorder = _FeatureRecorder()
    run_filter(stack_frames([case.frames for case in cases]), model, tcfg, recorder)
    # case by case, step by step: axis-0 sums add the rows in this order
    feats = np.moveaxis(np.array(recorder.steps), 0, -2).reshape(-1, FEATURE_DIM)
    mean = feats.sum(axis=0) / len(feats)
    var = np.maximum((feats * feats).sum(axis=0) / len(feats) - mean * mean, 1e-12)
    return mean, np.sqrt(var)


def _sequence_gradients(params, case, model, cfg):
    """Forward + BPTT for one sequence; returns (loss value, grads dict).

    A sequence that diverges under the current parameters (see
    ``_DIVERGED``), or whose loss is not finite or exceeds 1e9, is skipped (NaN loss, zero
    gradients) rather than poisoning the batch; the optimizer recovers on
    the remaining sequences.  A loss that decides the skip does so before
    the backward pass.  The cyclic garbage collector is paused meanwhile:
    the tape holds no reference cycles, and its entries (8 nodes a step,
    about 1 130 for a 140-step sequence) would otherwise be rescanned many
    times over.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:  # the tape dies with _taped_gradients' frame, before gc is re-enabled
        return _taped_gradients(params, case, model, cfg)
    finally:
        if enabled:
            gc.enable()


def _time_major(arrays):
    """One case's (K, ...) array as it is, or several cases' stacked (K, N, ...)."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays, axis=1)


def _run_loss(params, cases, model, tracker, l2=0.0, tape=None):
    """Forward ``cases`` through the learned filter as one run (a batch for
    several cases) and take each one's joint loss against its truth; returns
    (loss, states, extensions, leaves), the loss (N,) for a batch.

    The L2 term covers the tape leaves when taped, else ``params.arrays``.
    """
    frames = stack_frames([case.frames for case in cases])
    states, exts, leaves = forward_sequence(params, frames, model, tracker, tape=tape)
    loss = sequence_loss(states, exts, _time_major([c.truth.states[1:] for c in cases]),
                         _time_major([c.truth.extents[1:] for c in cases]),
                         weights=params.arrays if leaves is None else leaves, gamma=l2)
    return loss, states, exts, leaves


def _taped_gradients(params, case, model, cfg):
    tape = ops.Tape()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            loss, _, _, leaves = _run_loss(params, [case], model, cfg.tracker, cfg.l2, tape)
        except _DIVERGED:
            return float("nan"), _zero_grads(params)
        loss_value = float(ops.value(loss))
        if not isinstance(loss, ops.Var):
            # All learnable paths masked away: nothing to differentiate.
            return loss_value, _zero_grads(params)
        # A non-finite or absurd loss means the filter blew up on this
        # sequence; its gradient direction is garbage, so it is skipped
        # before the backward pass.
        if not loss_value <= 1e9:
            return float("nan"), _zero_grads(params)
        grads = tape.backward(loss)
        out = {k: tape.grad(grads, v) for k, v in leaves.items()}
    if any(not np.all(np.isfinite(g)) for g in out.values()):
        return float("nan"), _zero_grads(params)
    return loss_value, out


def _zero_grads(params):
    """The gradients of a skipped or fully masked sequence."""
    return {k: np.zeros_like(v) for k, v in params.arrays.items()}


def _validation_loss(params, cases, model, tracker):
    """Mean joint loss over ``cases``, forwarded as one batch, and their
    run's (states, extensions); (inf, None) when a case diverges."""
    try:
        loss, states, exts, _ = _run_loss(params, cases, model, tracker)
    except _DIVERGED:
        return float("inf"), None
    return float(np.mean(loss)), (states, exts)


def _validation_scores(params, cases, model, cfg):
    """(loss, position RMSE, IoU, GWD) over a validation fold, the metrics
    pooled over every step of every case at ``cfg.history_polygon``."""
    val_loss, run = _validation_loss(params, cases, model, cfg.tracker)
    if run is None:
        return val_loss, float("nan"), float("nan"), float("nan")
    rep = metrics_mod.evaluate_run(cases, run, polygon_order=cfg.history_polygon)
    return val_loss, rep.position_rmse, rep.mean_iou, rep.mean_gwd


def _fold_partition(n: int, cfg: TrainConfig, rng: np.random.Generator):
    order = rng.permutation(n)
    if cfg.folds >= 2:
        parts = np.array_split(order, cfg.folds)
        for f in range(cfg.folds):
            val = parts[f]
            tr = np.concatenate([parts[j] for j in range(cfg.folds) if j != f])
            yield f, tr, val
    else:
        n_val = max(1, int(round(cfg.val_fraction * n)))
        yield 0, order[n_val:], order[:n_val]


def check_folds(n: int, cfg: TrainConfig) -> None:
    """Raise ConfigError unless every fold of ``n`` training sequences keeps
    at least one to train on; the folds' sizes do not depend on the order."""
    if cfg.folds > n:
        raise ConfigError(f"{cfg.folds} folds need at least {cfg.folds} training "
                          f"sequences, the dataset has {n}")
    for fold, tr_idx, val_idx in _fold_partition(n, cfg, np.random.default_rng(0)):
        if len(tr_idx) == 0:
            raise ConfigError(f"fold {fold} holds out {len(val_idx)} of {n} training "
                              f"sequences and leaves none to train on")


def train(train_cases: list[SimCase], model: NominalModel, cfg: TrainConfig):
    """Cross-validated training on ``train_cases`` (a dataset's
    ``train_cases``, say); returns (best params, history, fold reports).

    The returned parameters are the first (fold, epoch) checkpoint with the
    lowest validation joint loss; NonFinite is raised when no validation
    loss is finite, ConfigError when :func:`check_folds` finds a fold with
    none to train on, EmptyDataset when there are no cases.
    History carries one record per (fold, epoch) with train/val loss and
    validation metric summaries.
    """
    if not train_cases:
        raise EmptyDataset("no training sequences")
    check_folds(len(train_cases), cfg)
    feat_mean, feat_std = collect_feature_stats(train_cases, model, cfg.tracker)

    split_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 0xF01D))))
    history: list[EpochRecord] = []
    fold_reports: list[FoldReport] = []
    best_params, best_val = None, np.inf

    for fold, tr_idx, val_idx in _fold_partition(len(train_cases), cfg, split_rng):
        fold_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, fold))))
        params = init_params(cfg.memory_dim, fold_rng,
                             **{f: getattr(cfg, f) for f in MASK_FIELDS.values()})
        params.feat_mean, params.feat_std = feat_mean, feat_std
        velocity = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        val_cases = [train_cases[i] for i in val_idx]

        # Training through a 140-step recursion can blow up if a step lands
        # in filter-unstable territory; anchor on the initialization loss
        # (only the loss: no IoU/GWD), and on a diverged epoch restore the
        # best-known parameters and halve the learning rate instead of
        # wandering on.
        fold_best_val, _ = _validation_loss(params, val_cases, model, cfg.tracker)
        fold_best, fold_best_epoch = params.copy(), -1
        lr_eff = cfg.learning_rate

        for epoch in range(cfg.epochs):
            eff_cfg = replace(cfg, learning_rate=lr_eff)
            order = fold_rng.permutation(len(tr_idx))
            epoch_losses = []
            for start in range(0, len(order), cfg.batch_size):
                batch = [train_cases[tr_idx[i]] for i in order[start:start + cfg.batch_size]]
                grad_sum = {k: np.zeros_like(v) for k, v in params.arrays.items()}
                contributed = 0
                for case in batch:
                    loss_val, grads = _sequence_gradients(params, case, model, cfg)
                    epoch_losses.append(loss_val)
                    if np.isfinite(loss_val):
                        contributed += 1
                        for k in grad_sum:
                            grad_sum[k] += grads[k]
                if contributed == 0:
                    continue
                for k in grad_sum:
                    grad_sum[k] /= contributed
                params.arrays, velocity = sgd_step(params.arrays, grad_sum, velocity, eff_cfg)
            val_loss, val_rmse, val_iou, val_gwd = _validation_scores(params, val_cases, model, cfg)
            # an epoch whose every sequence was skipped has no mean: NaN, without
            # the warning np.nanmean gives for an all-NaN slice
            losses = np.array(epoch_losses)
            train_loss = float(np.nanmean(losses)) if not np.isnan(losses).all() else float("nan")
            history.append(EpochRecord(
                fold=fold, epoch=epoch, train_loss=train_loss,
                val_loss=val_loss, val_rmse=val_rmse, val_iou=val_iou, val_gwd=val_gwd))
            if not np.isfinite(val_loss) or val_loss > 10.0 * max(fold_best_val, 1.0):
                params = fold_best.copy()
                velocity = {k: np.zeros_like(v) for k, v in velocity.items()}
                lr_eff *= 0.5
                continue
            if val_loss < fold_best_val:
                fold_best_val, fold_best, fold_best_epoch = val_loss, params.copy(), epoch
        fold_reports.append(FoldReport(fold=fold, best_epoch=fold_best_epoch,
                                       best_val_loss=fold_best_val))
        if fold_best_val < best_val:
            best_val, best_params = fold_best_val, fold_best

    if best_params is None:
        raise NonFinite("no (fold, epoch) reached a finite validation loss")
    return best_params, history, fold_reports


def grad_check(
    params: NetworkParams,
    case: SimCase,
    model: NominalModel,
    tcfg: TrackerConfig | None = None,
    eps: float = 1e-5,
    gamma: float = 0.0,
) -> float:
    """Worst mixed relative error of the training gradient vs central differences.

    The analytic gradient is the one training uses, from
    :func:`_sequence_gradients` with L2 weight ``gamma``.  Every parameter
    entry is probed with a fourth-order central stencil at step eps
    (evaluations at +-eps and +-2 eps); the higher-order stencil removes the
    truncation error that a plain two-point difference shows on
    high-curvature instances while keeping roundoff negligible.  Errors are
    normalized by max(|analytic|, |fd|, 1e-3 * (1 + max |analytic|)): the
    absolute floor keeps roundoff on near-zero entries from drowning the
    comparison, while real adjoint bugs still blow past any threshold.  A
    skipped sequence, or a non-finite error on any entry (a non-finite
    gradient entry or difference makes one), returns inf: NaN never passes.
    """
    tcfg = tcfg or TrackerConfig()
    loss, analytic = _sequence_gradients(params, case, model,
                                         TrainConfig(tracker=tcfg, l2=gamma))
    if not np.isfinite(loss):
        return float("inf")
    ginf = max(float(np.max(np.abs(g))) for g in analytic.values())
    floor = 1e-3 * (1.0 + ginf)

    def loss_at(arrays):
        probe = replace(params, arrays=arrays)
        return float(ops.value(_run_loss(probe, [case], model, tcfg, gamma)[0]))

    worst = 0.0
    for name, base in params.arrays.items():
        for i in range(base.size):
            evals = {}
            for step in (2.0, 1.0, -1.0, -2.0):
                probe = {k: (v.copy() if k == name else v) for k, v in params.arrays.items()}
                probe[name].ravel()[i] += step * eps
                evals[step] = loss_at(probe)
            fd = (-evals[2.0] + 8.0 * evals[1.0] - 8.0 * evals[-1.0] + evals[-2.0]) \
                / (12.0 * eps)
            a = analytic[name].ravel()[i]
            err = abs(a - fd) / max(abs(a), abs(fd), floor)
            if not np.isfinite(err):
                return float("inf")
            worst = max(worst, err)
    return worst
