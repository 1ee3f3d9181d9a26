"""End-to-end training of the compensation network through the filter.

Backpropagation runs through the full recursion (all matrix solves and SPD
projections included), so the loss gradient reaches every head weight; the
optimizer is momentum SGD with global-norm gradient clipping.  Feature
standardization statistics are collected from a zero-compensation pass over
the training split and frozen before the first update.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as metrics_mod
from . import ops
from .errors import ConfigError, EmptyDataset, NonFinite
from .filtering import ZERO_EVOLUTION, ZERO_MEASUREMENT, TrackerConfig, run_filter
from .models import NominalModel
from .network import (
    FEATURE_DIM,
    NetworkParams,
    forward_sequence,
    init_params,
    raw_features,
    sequence_loss,
)
from .simulate import Dataset, SimCase

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "FoldReport",
    "sgd_step",
    "collect_feature_stats",
    "train",
    "grad_check",
]


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
    history_metric_cases: int = 8    # val sequences scored with IoU/GWD per epoch
    history_polygon: int = 64        # polygon order for those history metrics

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:  # NaN fails both tests
            raise ValueError("learning_rate must be nonnegative and finite")
        for name in ("epochs", "batch_size", "folds", "memory_dim", "clip"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.history_polygon < 3:
            raise ValueError("history_polygon must be at least 3")


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


class _FeatureSums:
    """A zero-compensation :func:`run_filter` compensator that sums the raw
    features the network would see at every step, and their squares."""

    def __init__(self):
        self.count, self.acc, self.acc2 = 0, np.zeros(FEATURE_DIM), np.zeros(FEATURE_DIM)

    def evolve(self, state, ext, fs):
        feats = raw_features(state, ext, fs)
        self.acc += feats
        self.acc2 += feats * feats
        self.count += 1
        return ZERO_EVOLUTION

    def measure(self, pred, ext_pred):
        return ZERO_MEASUREMENT


def collect_feature_stats(
    cases: list[SimCase],
    model: NominalModel,
    tcfg: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean/std of the raw encoding over a baseline filter pass."""
    sums = _FeatureSums()
    for case in cases:
        run_filter(case.frames, model, tcfg, sums)
    mean = sums.acc / sums.count
    var = np.maximum(sums.acc2 / sums.count - mean * mean, 1e-12)
    return mean, np.sqrt(var)


def _sequence_gradients(params, case, model, cfg):
    """Forward + BPTT for one sequence; returns (loss value, grads dict).

    A sequence that turns non-finite under the current parameters is
    skipped (NaN loss, zero gradients) rather than poisoning the batch; the
    optimizer recovers on the remaining sequences.
    """
    zeros = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    tape = ops.Tape()
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            states, exts, leaves = forward_sequence(params, case.frames, model,
                                                    cfg.tracker, tape=tape)
        except NonFinite:
            return float("nan"), zeros
        loss = sequence_loss(
            states, exts, case.truth.states[1:], case.truth.extents[1:],
            weights=leaves, gamma=cfg.l2)
        if not isinstance(loss, ops.Var):
            # All learnable paths masked away: nothing to differentiate.
            return float(ops.value(loss)), zeros
        grads = tape.backward(loss)
        out = {k: tape.grad(grads, v) for k, v in leaves.items()}
    if any(not np.all(np.isfinite(g)) for g in out.values()):
        return float("nan"), zeros
    # A finite but absurd loss means the filter blew up on this sequence;
    # its gradient direction is garbage, so treat it like a NaN skip.
    if float(loss.value) > 1e9:
        return float("nan"), zeros
    return float(loss.value), out


def _validation_scores(params, cases, model, cfg):
    """Mean joint loss and metric summaries over a validation fold."""
    losses = []
    pos_sq = []
    ious, gwds = [], []
    for idx, case in enumerate(cases):
        try:
            states, exts, _ = forward_sequence(params, case.frames, model, cfg.tracker)
        except NonFinite:
            return float("inf"), float("nan"), float("nan"), float("nan")
        loss = sequence_loss(states, exts, case.truth.states[1:], case.truth.extents[1:])
        losses.append(float(ops.value(loss)))
        est_pos = np.array([ops.value(s.mean)[:2] for s in states])
        err = est_pos - case.truth.states[1:, :2]
        pos_sq.append(np.sum(err * err, axis=1))
        if idx < cfg.history_metric_cases:
            series = metrics_mod.case_series(
                states, exts, case.truth, polygon_order=cfg.history_polygon)
            ious.append(series[:, 1])
            gwds.append(series[:, 2])
    val_loss = float(np.mean(losses))
    val_rmse = float(np.sqrt(np.mean(np.concatenate(pos_sq))))
    val_iou = float(np.mean(np.concatenate(ious))) if ious else float("nan")
    val_gwd = float(np.mean(np.concatenate(gwds))) if gwds else float("nan")
    return val_loss, val_rmse, val_iou, val_gwd


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


def train(dataset: Dataset, model: NominalModel, cfg: TrainConfig):
    """Cross-validated training; returns (best params, history, fold reports).

    The returned parameters are the checkpoint with the lowest validation
    joint loss across every (fold, epoch); NonFinite is raised when no
    validation loss is finite, ConfigError when there are more folds than
    training sequences.  History carries one record per
    (fold, epoch) with train/val loss and validation metric summaries.
    """
    train_cases = [dataset.cases[i] for i in dataset.train_idx]
    if not train_cases:
        raise EmptyDataset("dataset has no training sequences")
    if cfg.folds > len(train_cases):
        raise ConfigError(f"{cfg.folds} folds need at least {cfg.folds} training "
                          f"sequences, the dataset has {len(train_cases)}")
    feat_mean, feat_std = collect_feature_stats(train_cases, model, cfg.tracker)

    split_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 0xF01D))))
    history: list[EpochRecord] = []
    fold_reports: list[FoldReport] = []
    best_params, best_val = None, np.inf

    for fold, tr_idx, val_idx in _fold_partition(len(train_cases), cfg, split_rng):
        fold_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, fold))))
        params = init_params(
            cfg.memory_dim, fold_rng,
            mask_evolution=cfg.mask_evolution,
            mask_update=cfg.mask_update,
            mask_memory=cfg.mask_memory,
        )
        params.feat_mean = feat_mean.copy()
        params.feat_std = feat_std.copy()
        velocity = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        val_cases = [train_cases[i] for i in val_idx]

        # Training through a 140-step recursion can blow up if a step lands
        # in filter-unstable territory; anchor on the initialization loss,
        # and on a diverged epoch restore the best-known parameters and
        # halve the learning rate instead of wandering on.
        init_val, _, _, _ = _validation_scores(params, val_cases, model, cfg)
        fold_best, fold_best_epoch = init_val, -1
        fold_best_arrays = {k: v.copy() for k, v in params.arrays.items()}
        lr_eff = cfg.learning_rate
        if init_val < best_val:
            best_val = init_val
            best_params = params.copy()

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
            history.append(EpochRecord(
                fold=fold, epoch=epoch, train_loss=float(np.nanmean(epoch_losses)),
                val_loss=val_loss, val_rmse=val_rmse, val_iou=val_iou, val_gwd=val_gwd))
            if not np.isfinite(val_loss) or val_loss > 10.0 * max(fold_best, 1.0):
                params.arrays = {k: v.copy() for k, v in fold_best_arrays.items()}
                velocity = {k: np.zeros_like(v) for k, v in velocity.items()}
                lr_eff *= 0.5
                continue
            if val_loss < fold_best:
                fold_best, fold_best_epoch = val_loss, epoch
                fold_best_arrays = {k: v.copy() for k, v in params.arrays.items()}
                if val_loss < best_val:
                    best_val = val_loss
                    best_params = params.copy()
        fold_reports.append(FoldReport(fold=fold, best_epoch=fold_best_epoch,
                                       best_val_loss=fold_best))

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
    corrupt: bool = False,
) -> float:
    """Worst mixed relative error of BPTT gradients vs central differences.

    Every parameter entry is probed with a fourth-order central stencil at
    step eps (evaluations at +-eps and +-2 eps); the higher-order stencil
    removes the truncation error that a plain two-point difference shows on
    high-curvature instances while keeping roundoff negligible.  Errors are
    normalized by max(|analytic|, |fd|, 1e-3 * (1 + max |analytic|)): the
    absolute floor keeps roundoff on near-zero entries from drowning the
    comparison, while real adjoint bugs still blow past any threshold.
    ``corrupt`` deliberately damages one gradient entry to prove the
    harness would catch a broken adjoint.
    """
    tcfg = tcfg or TrackerConfig()
    tape = ops.Tape()
    states, exts, leaves = forward_sequence(params, case.frames, model, tcfg, tape=tape)
    loss = sequence_loss(states, exts, case.truth.states[1:], case.truth.extents[1:],
                         weights=leaves, gamma=gamma)
    grads_all = tape.backward(loss)
    analytic = {k: tape.grad(grads_all, v) for k, v in leaves.items()}
    ginf = max(float(np.max(np.abs(g))) for g in analytic.values())
    if corrupt:
        first = next(iter(analytic))
        analytic[first].flat[0] += 1.0 + ginf
    floor = 1e-3 * (1.0 + ginf)

    def loss_at(arrays):
        probe = params.copy()
        probe.arrays = arrays
        st, ex, _ = forward_sequence(probe, case.frames, model, tcfg)
        lv = sequence_loss(st, ex, case.truth.states[1:], case.truth.extents[1:],
                           weights=arrays if gamma else None, gamma=gamma)
        return float(ops.value(lv))

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
            worst = max(worst, err)
    return worst
