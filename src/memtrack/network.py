"""Deep-memory compensation network.

An LSTM cell summarizes the history of posteriors and frame statistics into
a memory state; linear heads map that memory (and the current predictions)
to the five compensation moments the filter consumes.  Heads follow a
calibrated-zero convention: softplus outputs are shifted by softplus(0) so
that all-zero weights produce exactly zero compensation, making the
untrained network bit-identical to the baseline filter.

The shift means the diagonal of pf can dip slightly negative (>= -log 2),
and the predicted state covariance is SPD-projected.  The measurement scale
excess eh = softplus(u) / softplus(0) - 1 is >= -1, so the innovation's
scale 1 + eh is nonnegative and Pzz needs no projection; the extension
inflation pphi is a true Cholesky square so it stays PSD.

Each block computes its values in plain numpy, by the same expressions with
or without a tape, and records them as one tape node with a hand-written
adjoint (:func:`memtrack.ops.node`): the feature encoding, the LSTM step,
the memory-covariance head of :func:`mub_step`, :func:`jeb_heads`,
:func:`jub_heads` with its prediction features, each step's loss term, and
the loss's ``1 / 2K`` scaling together with its L2 term.
Weight adjoints are :class:`memtrack.ops.Outer` factors, which the tape
sums over time in one matrix product per weight.

A plain forward also runs a batch of N cases (time-major frames, see
:func:`memtrack.models.stack_frames`): features, memory, head outputs and
loss terms then carry a leading case axis, and each row is computed bit for
bit as that case alone.  A taped forward records one case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .errors import LengthMismatch, ShapeMismatch
from .filtering import (
    ZERO_EVOLUTION,
    ZERO_MEASUREMENT,
    TrackerConfig,
    extension_lambda,
    run_filter,
)
from .models import ExtensionState, FrameStats, NominalModel, TrackState

__all__ = [
    "FEATURE_DIM",
    "PRED_FEATURE_DIM",
    "MASK_FIELDS",
    "MemoryState",
    "NetworkParams",
    "zero_params",
    "init_params",
    "initial_memory",
    "raw_features",
    "encode_inputs",
    "mub_step",
    "jeb_heads",
    "jub_heads",
    "forward_sequence",
    "sequence_loss",
]

FEATURE_DIM = 18       # memory-update input features
PRED_FEATURE_DIM = 12  # prediction-only subset fed to the update heads
FRAME_COV_EPS = 1e-6   # floor added to the per-frame scatter covariance

# The ablation mask of each block, by its name in checkpoints and on the
# command line: the evolution heads, the update heads, the memory update.
MASK_FIELDS = {"jeb": "mask_evolution", "jub": "mask_update", "mub": "mask_memory"}

_OFF_DIAG_2 = np.array([[0.0, 0.0], [1.0, 0.0]])
_FRAME_COV_FLOOR = FRAME_COV_EPS * np.eye(2)


@dataclass(frozen=True)
class MemoryState:
    """LSTM cell/hidden vectors plus the diagonal memory uncertainty.

    The hidden vector doubles as the memory mean; ``pc`` is its learned
    diagonal covariance (entrywise nonnegative).
    """

    cell: object
    hidden: object
    pc: object


def _array_specs(memory_dim: int) -> list[tuple[str, tuple[int, ...]]]:
    h = memory_dim
    return [
        ("lstm_w", (4 * h, FEATURE_DIM + h)),
        ("lstm_b", (4 * h,)),
        ("memcov_w", (h, h)),
        ("memcov_b", (h,)),
        ("evo_shift_w", (4, 2 * h)),
        ("evo_shift_b", (4,)),
        ("evo_cov_w", (4, 2 * h)),
        ("evo_cov_b", (4,)),
        ("evo_ext_w", (3, 2 * h)),
        ("evo_ext_b", (3,)),
        ("upd_shift_w", (2, PRED_FEATURE_DIM)),
        ("upd_shift_b", (2,)),
        ("upd_scale_w", (2, PRED_FEATURE_DIM)),
        ("upd_scale_b", (2,)),
    ]


@dataclass
class NetworkParams:
    """All trainable arrays plus masks and frozen feature statistics.

    ``arrays`` iterates in the declared order used by checkpoints; under a
    tape it holds the tape leaves instead (see :func:`forward_sequence`).
    Masks disable whole blocks for ablations: the evolution heads (jeb), the
    update heads (jub), or the memory update itself (mub).
    """

    memory_dim: int
    arrays: dict[str, np.ndarray]
    mask_evolution: bool = False
    mask_update: bool = False
    mask_memory: bool = False
    feat_mean: np.ndarray = field(default_factory=lambda: np.zeros(FEATURE_DIM))
    feat_std: np.ndarray = field(default_factory=lambda: np.ones(FEATURE_DIM))

    def copy(self) -> "NetworkParams":
        return replace(self, arrays={k: v.copy() for k, v in self.arrays.items()},
                       feat_mean=self.feat_mean.copy(), feat_std=self.feat_std.copy())

    def leaves(self, tape: ops.Tape) -> dict[str, ops.Var]:
        return {k: tape.leaf(v) for k, v in self.arrays.items()}


def zero_params(memory_dim: int, **masks) -> NetworkParams:
    arrays = {name: np.zeros(shape) for name, shape in _array_specs(memory_dim)}
    return NetworkParams(memory_dim=memory_dim, arrays=arrays, **masks)


def init_params(memory_dim: int, rng: np.random.Generator, **masks) -> NetworkParams:
    """Small random LSTM weights (forget-gate bias +1), near-zero heads.

    Shift, covariance and scale heads start at exactly zero so early
    training matches the baseline filter.  The extension-inflation head gets
    a tiny random kick: its Cholesky-square output has zero gradient at
    exactly zero weights (d(L L^T)/dL vanishes at L = 0), so a pinpoint zero
    start would never learn.
    """
    params = zero_params(memory_dim, **masks)
    h = memory_dim
    scale = 1.0 / np.sqrt(FEATURE_DIM + h)
    params.arrays["lstm_w"] = rng.uniform(-scale, scale, size=(4 * h, FEATURE_DIM + h))
    params.arrays["lstm_b"][h:2 * h] = 1.0
    params.arrays["memcov_w"] = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), size=(h, h))
    params.arrays["evo_ext_w"] = 1e-2 * rng.standard_normal((3, 2 * h))
    return params


def initial_memory(memory_dim: int, lead: tuple = ()) -> MemoryState:
    """Zero memory for one case, or (N, memory_dim) for ``lead`` = (N,)."""
    z = np.zeros(lead + (memory_dim,))
    return MemoryState(cell=z, hidden=z.copy(), pc=z.copy())


def _features(state: TrackState, ext: ExtensionState, fs: FrameStats | None = None):
    """The raw encoding of a belief, and of the current frame when ``fs`` is
    given, as a plain vector (one row per case of a batch); and the map
    from one case's adjoint to the adjoints of (state mean, state
    covariance, extension parameter).

    Without a frame these are the PRED_FEATURE_DIM prediction features:
    the mean, the log variances, the log-Cholesky extent and the log dof.
    """
    mean, cov = ops.value(state.mean), ops.value(state.cov)
    lam = extension_lambda(ext.dof)
    xhat = ops.value(ext.param) / ops._rows(lam)
    variances = cov.diagonal(0, -2, -1)
    pieces = [mean, np.log(variances), ops.logchol2x2(xhat), _log_column(ext.dof)]
    if fs is not None:
        count = fs.count
        denominator = (np.maximum(count - 1, 1)[:, None, None] if isinstance(count, np.ndarray)
                       else max(count - 1, 1))
        pieces += [fs.mean - mean[..., 0:2],
                   ops.logchol2x2(fs.scatter / denominator + _FRAME_COV_FLOOR),
                   _log_column(count)]

    def back(g):
        g_mean = g[0:4].copy()
        if fs is not None:
            g_mean[0:2] -= g[12:14]
        return (g_mean, np.diag(g[4:8] / variances),
                ops.logchol2x2_adjoint(xhat, g[8:11]) / lam)

    return np.concatenate(pieces, axis=-1), back


def _log_column(x):
    """The log of a case's dof or count as a feature column: (1,), or (N, 1)
    for a batch's (N,) values."""
    if isinstance(x, np.ndarray):
        return np.log(x.astype(np.float64))[:, None]
    return np.array([np.log(float(x))])


def raw_features(state: TrackState, ext: ExtensionState, fs: FrameStats):
    """Unstandardized 18-feature encoding of (posterior, current frame)."""
    raw, back = _features(state, ext, fs)
    return ops.node(raw, (state.mean, state.cov, ext.param), back)


def encode_inputs(state: TrackState, ext: ExtensionState, fs: FrameStats,
                  params: NetworkParams):
    """Standardized memory-update features (frozen per-feature statistics)."""
    raw, back = _features(state, ext, fs)
    std = params.feat_std
    return ops.node((raw - params.feat_mean) / std, (state.mean, state.cov, ext.param),
                    lambda g: back(g / std))


def mub_step(params: NetworkParams, features, mem: MemoryState) -> MemoryState:
    """One LSTM memory update; masked mode freezes memory and zeroes pc."""
    if params.mask_memory:
        return MemoryState(cell=mem.cell, hidden=mem.hidden,
                           pc=np.zeros(np.shape(ops.value(mem.hidden))))
    weights = params.arrays
    cell, hidden = ops.lstm_cell(weights["lstm_w"], weights["lstm_b"], features,
                                 mem.hidden, mem.cell)
    w, h = ops.value(weights["memcov_w"]), ops.value(hidden)
    lin = ops._matvec(w, h) + ops.value(weights["memcov_b"])

    def vjp(g):
        g_lin = g * ops.sigmoid(lin)
        return ops.Outer(g_lin, h), w.T @ g_lin, g_lin

    pc = ops.node(np.logaddexp(0.0, lin), (weights["memcov_w"], hidden, weights["memcov_b"]),
                  vjp)
    return MemoryState(cell=cell, hidden=hidden, pc=pc)


def jeb_heads(params: NetworkParams, mem: MemoryState):
    """Evolution compensation (df, pf, pphi) from the memory state."""
    if params.mask_evolution:
        return ZERO_EVOLUTION
    names = ("evo_shift_w", "evo_shift_b", "evo_cov_w", "evo_cov_b", "evo_ext_w", "evo_ext_b")
    weights = [params.arrays[name] for name in names]
    shift_w, shift_b, cov_w, cov_b, ext_w, ext_b = map(ops.value, weights)
    hidden = ops.value(mem.hidden)
    inp = np.concatenate([hidden, ops.value(mem.pc)], axis=-1)
    df = ops._matvec(shift_w, inp) + shift_b
    cov_lin = ops._matvec(cov_w, inp) + cov_b
    pf = _diag(np.logaddexp(0.0, cov_lin) - ops.SOFTPLUS_ZERO)
    ext_vec = ops._matvec(ext_w, inp) + ext_b
    ell = _diag(np.logaddexp(0.0, ext_vec[..., 0:2]) - ops.SOFTPLUS_ZERO) \
        + ext_vec[..., 2, None, None] * _OFF_DIAG_2
    pphi = ell @ ops._mT(ell)

    def vjp(g):
        g_df, g_pf, g_pphi = g
        g_cov = np.diagonal(g_pf) * ops.sigmoid(cov_lin)
        g_ell = (g_pphi + g_pphi.T) @ ell
        g_ext = np.array([g_ell[0, 0], g_ell[1, 1], g_ell[1, 0]])
        g_ext[0:2] *= ops.sigmoid(ext_vec[0:2])
        g_inp = shift_w.T @ g_df + cov_w.T @ g_cov + ext_w.T @ g_ext
        return (g_inp[:len(hidden)], g_inp[len(hidden):], ops.Outer(g_df, inp), g_df,
                ops.Outer(g_cov, inp), g_cov, ops.Outer(g_ext, inp), g_ext)

    return ops.node((df, pf, pphi), (mem.hidden, mem.pc, *weights), vjp)


def jub_heads(params: NetworkParams, pred: TrackState, ext_pred: ExtensionState):
    """Measurement compensation (dh, eh) from the current predictions."""
    if params.mask_update:
        return ZERO_MEASUREMENT
    names = ("upd_shift_w", "upd_shift_b", "upd_scale_w", "upd_scale_b")
    weights = [params.arrays[name] for name in names]
    shift_w, shift_b, scale_w, scale_b = map(ops.value, weights)
    raw, back = _features(pred, ext_pred)
    std = params.feat_std[:PRED_FEATURE_DIM]
    inp = (raw - params.feat_mean[:PRED_FEATURE_DIM]) / std
    dh = ops._matvec(shift_w, inp) + shift_b
    scale_lin = ops._matvec(scale_w, inp) + scale_b
    eh = np.logaddexp(0.0, scale_lin) / ops.SOFTPLUS_ZERO - 1.0

    def vjp(g):
        g_dh, g_eh = g
        g_scale = g_eh / ops.SOFTPLUS_ZERO * ops.sigmoid(scale_lin)
        g_inp = shift_w.T @ g_dh + scale_w.T @ g_scale
        return back(g_inp / std) + (ops.Outer(g_dh, inp), g_dh, ops.Outer(g_scale, inp), g_scale)

    return ops.node((dh, eh), (pred.mean, pred.cov, ext_pred.param, *weights), vjp)


class _Compensator:
    """The network as a :func:`~memtrack.filtering.run_filter` compensator.

    Holds the LSTM memory across steps: ``evolve`` updates it from the
    previous posteriors and the current frame, then reads the evolution
    heads; ``measure`` reads the update heads from the predictions.
    """

    def __init__(self, params: NetworkParams):
        self.params = params
        self.mem = None

    def evolve(self, state: TrackState, ext: ExtensionState, fs: FrameStats):
        if self.mem is None:  # one memory per case of the first posteriors
            self.mem = initial_memory(self.params.memory_dim, fs.mean.shape[:-1])
        features = encode_inputs(state, ext, fs, self.params)
        self.mem = mub_step(self.params, features, self.mem)
        return jeb_heads(self.params, self.mem)

    def measure(self, pred: TrackState, ext_pred: ExtensionState):
        return jub_heads(self.params, pred, ext_pred)


def forward_sequence(
    params: NetworkParams,
    frames: list[np.ndarray],
    model: NominalModel,
    tcfg: TrackerConfig | None = None,
    tape: ops.Tape | None = None,
):
    """Run the memory-aided filter over a whole sequence.

    The first frame initializes the track; every later frame runs
    memory update -> evolution heads -> filter prediction -> update heads
    -> filter update, through :func:`~memtrack.filtering.run_filter`.  With
    a tape, the network runs on a copy of ``params`` whose arrays are tape
    leaves, and those leaves are returned for gradient extraction; without
    one this is the plain-inference path (identical arithmetic).  ``frames``
    may be a time-major batch (see :func:`memtrack.models.stack_frames`)
    for a plain forward; a tape records one case.

    Returns (posterior states, posterior extensions, leaves-or-None).
    """
    if tape is not None:
        if isinstance(frames[0], tuple):
            raise ShapeMismatch("a tape records one case, not a batch")
        params = replace(params, arrays=params.leaves(tape))
    states, exts, _ = run_filter(frames, model, tcfg or TrackerConfig(),
                                 _Compensator(params))
    return states, exts, (params.arrays if tape is not None else None)


def sequence_loss(states, exts, truth_states, truth_extents, weights=None, gamma: float = 0.0):
    """Joint squared-error loss against ground truth.

    (1/2K) * sum_k (||x_k - truth||^2 + ||extent_k - truth||_F^2) plus
    gamma * ||theta||^2 over the supplied weights.  The extent compared is
    the lambda-scaled posterior mean, not the raw parameter matrix.  For a
    batch's posteriors, with time-major truth (K, N, ...), it is one loss
    per case, (N,).
    """
    k = len(states)
    if not (len(exts) == len(truth_states) == len(truth_extents) == k):
        raise LengthMismatch(
            f"got {k} states, {len(exts)} extensions, "
            f"{len(truth_states)}/{len(truth_extents)} truth entries")
    total = None
    for st, ex, tx, te in zip(states, exts, truth_states, truth_extents):
        total = _add_loss_term(total, st, ex, tx, te)
    regularized = () if weights is None or gamma == 0.0 else tuple(weights.values())
    return _scale_and_regularize(total, k, regularized, gamma)


def _add_loss_term(total, state: TrackState, ext: ExtensionState, truth_state, truth_extent):
    """``total`` plus one step's squared state and extent errors, one node."""
    lam = extension_lambda(ext.dof)
    d_state = ops.value(state.mean) - truth_state
    d_extent = ops.value(ext.param) / ops._rows(lam) - truth_extent
    lead = d_state.shape[:-1]
    term = _square_sums(d_state, lead) + _square_sums(d_extent, lead)
    out = term if total is None else ops.value(total) + term
    return ops.node(out, (total, state.mean, ext.param),
                    lambda g: (g, (2.0 * g) * d_state, ((2.0 * g) * d_extent) / lam))


def _scale_and_regularize(total, k: int, weights: tuple, gamma: float):
    """``total / 2k`` plus ``gamma`` times the weights' summed squares, one
    node; the squares are summed weight by weight, in the order given."""
    scale = 2.0 * k
    values = [ops.value(w) for w in weights]
    out = ops.value(total) / scale
    if values:
        reg = np.sum(values[0] * values[0])
        for w in values[1:]:
            reg = reg + np.sum(w * w)
        out = out + gamma * reg
    return ops.node(out, (total, *weights),
                    lambda g: (g / scale, *[(2.0 * (g * gamma)) * w for w in values]))


def _square_sums(d, lead: tuple):
    """Sum of the squared entries of a case's ``d``, or of each case's for a
    batch (``lead`` = (N,))."""
    return np.sum((d * d).reshape(lead + (-1,)), axis=-1)


def _diag(v):
    """The diagonal matrix of a vector, or of each row of a stack (N, n)."""
    if v.ndim == 1:
        return np.diag(v)
    out = np.zeros(v.shape + v.shape[-1:])
    idx = np.arange(v.shape[-1])
    out[..., idx, idx] = v
    return out
