"""Deep-memory compensation network.

An LSTM cell summarizes the history of posteriors and frame statistics into
a memory state; linear heads map that memory (and the current predictions)
to the five compensation moments the filter consumes.  Heads follow a
calibrated-zero convention: softplus outputs are shifted by softplus(0) so
that all-zero weights produce exactly zero compensation, making the
untrained network bit-identical to the baseline filter.

The two scale excesses, ef of the predicted state covariance and eh of the
innovation's scatter noise, are softplus(u) / softplus(0) - 1 >= -1, so
their scales 1 + ef and 1 + eh are nonnegative and scale an SPD matrix by a
congruence; the extension inflation pphi is a true Cholesky square, so it
stays PSD.  Every belief therefore stays SPD without a projection (see
:mod:`memtrack.filtering`).

A forward reads its weights once (:func:`block_weights`).  Each head
block's heads are stacked into one weight and one bias, so that a block
is one matrix-vector product a step, and its backward one transposed
product and one outer-product factor.  Under a tape each stack is one
node per sequence, four in all, whose vjp splits the rows back to the
checkpoint's arrays; a mask leaves its block's weights unread.

Each block computes its values in plain numpy, by the same expressions with
or without a tape, and records them as one tape node with a hand-written
adjoint (:func:`memtrack.ops.node`): the feature encoding,
:func:`mub_step`'s LSTM step together with its memory-covariance head
(:func:`memtrack.ops.lstm_cell` returns its adjoint, which the node's vjp
calls), :func:`jeb_heads` and :func:`jub_heads` with its prediction
features, four nodes a step; and :func:`sequence_loss`, every step's term
with the ``1 / 2K`` scaling and the L2 term, formed for all steps at once
and summed in step order, one node for the sequence.  Weight adjoints are
:class:`memtrack.ops.Outer` factors, which the tape sums over time in one
matrix product per weight or stack.

A forward, plain or taped, also runs a batch of N cases (time-major
frames, see :func:`memtrack.models.stack_frames`): features, memory, head
outputs and loss terms then carry a leading case axis, and each row is
computed bit for bit as that case alone.  A taped batch differentiates the
cases' summed loss.  The frame's own features
(:func:`memtrack.models.frame_features`) are computed once per sequence,
from the run's stacked statistics, when :func:`memtrack.filtering.run_filter`
starts the network as its compensator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import ops
from .errors import LengthMismatch
from .filtering import (
    ZERO_EVOLUTION,
    ZERO_MEASUREMENT,
    TrackerConfig,
    extension_lambda,
    run_filter,
)
from .models import (ExtensionState, Frames, FrameStats, NominalModel, TrackState,
                     frame_features)

__all__ = [
    "FEATURE_DIM",
    "PRED_FEATURE_DIM",
    "MASK_FIELDS",
    "MemoryState",
    "NetworkParams",
    "Weights",
    "BlockWeights",
    "zero_params",
    "init_params",
    "initial_memory",
    "block_weights",
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

# The ablation mask of each block, by its name in checkpoints and on the
# command line: the evolution heads, the update heads, the memory update.
MASK_FIELDS = {"jeb": "mask_evolution", "jub": "mask_update", "mub": "mask_memory"}


class MemoryState(NamedTuple):
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


class Weights(NamedTuple):
    """One block's weights as a forward reads them: ``taped`` as its tape
    node lists them (tape variables, or the plain arrays without a tape),
    ``values`` their plain arrays."""

    taped: tuple
    values: tuple


class BlockWeights(NamedTuple):
    """What the blocks of one forward read, gathered once per forward by
    :func:`block_weights`; a masked block's weights are None.

    ``memory`` holds (lstm_w, lstm_b, memcov_w, memcov_b); ``evolution``
    the evolution heads' rows stacked, (11, 2h) and (11,); ``update`` the
    update heads' rows stacked, (4, PRED_FEATURE_DIM) and (4,).
    """

    memory: Weights | None
    evolution: Weights | None
    update: Weights | None
    feat_mean: np.ndarray
    feat_std: np.ndarray


# The checkpoint arrays each stacked head block joins, weights then biases,
# in row order.
_EVOLUTION_HEADS = (("evo_shift_w", "evo_cov_w", "evo_ext_w"),
                    ("evo_shift_b", "evo_cov_b", "evo_ext_b"))
_UPDATE_HEADS = (("upd_shift_w", "upd_scale_w"), ("upd_shift_b", "upd_scale_b"))


def _stack(parts):
    """The rows of ``parts`` as one array: under a tape one node, whose vjp
    splits its adjoint's rows back (a bias's may carry a case axis in
    front); without one a plain concatenation."""
    values = [ops.value(p) for p in parts]
    ends = np.cumsum([len(v) for v in values])[:-1]
    axis = -values[0].ndim
    return ops.node(np.concatenate(values), parts, lambda g: np.split(g, ends, axis=axis))


def block_weights(params: NetworkParams) -> BlockWeights:
    """Every block's weights, read from ``params.arrays`` (tape leaves or
    plain arrays) once per forward, the head blocks' stacked."""
    arrays = params.arrays

    def weights(taped):
        return Weights(taped, tuple(ops.value(w) for w in taped))

    def stacked(heads):
        return weights(tuple(_stack([arrays[name] for name in names]) for names in heads))

    return BlockWeights(
        memory=None if params.mask_memory else weights(tuple(
            arrays[name] for name in ("lstm_w", "lstm_b", "memcov_w", "memcov_b"))),
        evolution=None if params.mask_evolution else stacked(_EVOLUTION_HEADS),
        update=None if params.mask_update else stacked(_UPDATE_HEADS),
        feat_mean=params.feat_mean, feat_std=params.feat_std)


def _features(state: TrackState, ext: ExtensionState, fs: FrameStats | None = None,
              frame=None):
    """The raw encoding of a belief, and of the current frame when ``fs``
    and its features ``frame`` (:func:`memtrack.models.frame_features`) are
    given, as a plain vector (one row per case of a batch); and the map
    from its adjoint to the adjoints of (state mean, state covariance,
    extension parameter), per case.

    Without a frame these are the PRED_FEATURE_DIM prediction features:
    the mean, the log variances, the log-Cholesky extent and the log dof.
    """
    mean, cov = ops.value(state.mean), ops.value(state.cov)
    lam = extension_lambda(ext.dof)[..., None, None]
    xhat = ops.value(ext.param) / lam
    variances = cov.diagonal(0, -2, -1)
    pieces = [mean, np.log(variances), ops.logchol2x2(xhat), np.log(ext.dof)[..., None]]
    if fs is not None:
        pieces += [fs.mean - mean[..., 0:2], frame]

    def back(g):
        g_mean = g[..., 0:4].copy()
        if fs is not None:
            g_mean[..., 0:2] -= g[..., 12:14]
        g_cov = np.zeros(g.shape[:-1] + (4, 4))
        g_cov.reshape(g.shape[:-1] + (16,))[..., ::5] = g[..., 4:8] / variances  # diagonal
        return g_mean, g_cov, ops.logchol2x2_adjoint(xhat, g[..., 8:11]) / lam

    return np.concatenate(pieces, axis=-1), back


def raw_features(state: TrackState, ext: ExtensionState, fs: FrameStats, frame):
    """Unstandardized 18-feature encoding of (posterior, current frame),
    ``frame`` the frame's row of :func:`memtrack.models.frame_features`,
    for any leading shape (a case, a batch, or a run's stacked steps)."""
    raw, back = _features(state, ext, fs, frame)
    return ops.node(raw, (state.mean, state.cov, ext.param), back)


def encode_inputs(state: TrackState, ext: ExtensionState, fs: FrameStats, frame,
                  weights: BlockWeights):
    """Standardized memory-update features (frozen per-feature statistics)."""
    raw, back = _features(state, ext, fs, frame)
    std = weights.feat_std
    return ops.node((raw - weights.feat_mean) / std, (state.mean, state.cov, ext.param),
                    lambda g: back(g / std))


def mub_step(weights: BlockWeights, features, mem: MemoryState) -> MemoryState:
    """One LSTM memory update and its memory covariance, one tape node;
    masked mode freezes memory and zeroes pc."""
    if weights.memory is None:
        return MemoryState(cell=mem.cell, hidden=mem.hidden,
                           pc=np.zeros(np.shape(ops.value(mem.hidden))))
    (lstm_w_t, lstm_b_t, w_t, b_t), (lstm_w, lstm_b, w, b) = weights.memory
    cell, hidden, lstm_adjoint = ops.lstm_cell(lstm_w, lstm_b, ops.value(features),
                                               ops.value(mem.hidden), ops.value(mem.cell))
    lin = np.matvec(w, hidden) + b

    def vjp(g):
        g_cell, g_hidden, g_pc = g
        g_lin = g_pc * ops.sigmoid(lin)
        return (lstm_adjoint(g_cell, g_hidden + np.matvec(w.mT, g_lin))
                + (ops.Outer(g_lin, hidden), g_lin))

    return MemoryState(*ops.node((cell, hidden, np.logaddexp(0.0, lin)),
                                 (lstm_w_t, lstm_b_t, features, mem.hidden, mem.cell, w_t, b_t),
                                 vjp))


def jeb_heads(weights: BlockWeights, mem: MemoryState):
    """Evolution compensation (df, ef, pphi) from the memory state: one
    matvec of the stacked evolution heads, whose rows are the shift (4),
    the covariance excess (4) and the extension inflation's Cholesky factor
    (3)."""
    if weights.evolution is None:
        return ZERO_EVOLUTION
    (w_t, b_t), (w, b) = weights.evolution
    hidden = ops.value(mem.hidden)
    inp = np.concatenate([hidden, ops.value(mem.pc)], axis=-1)
    lin = np.matvec(w, inp) + b
    df = lin[..., 0:4]
    ef = np.logaddexp(0.0, lin[..., 4:8]) / ops.SOFTPLUS_ZERO - 1.0
    diag = np.logaddexp(0.0, lin[..., 8:10]) - ops.SOFTPLUS_ZERO
    ell = np.zeros(lin.shape[:-1] + (2, 2))
    ell[..., 0, 0], ell[..., 1, 1], ell[..., 1, 0] = diag[..., 0], diag[..., 1], lin[..., 10]
    pphi = ell @ ell.mT

    def vjp(g):
        g_df, g_ef, g_pphi = g
        g_ell = (g_pphi + g_pphi.mT) @ ell
        # filled, not fancy-indexed: a batch's rows must be contiguous, as one
        # case's are, for np.matvec to sum them in the same order
        g_lin = np.empty(lin.shape)
        g_lin[..., 0:4] = g_df
        g_lin[..., 4:8] = g_ef / ops.SOFTPLUS_ZERO
        g_lin[..., 8], g_lin[..., 9], g_lin[..., 10] = (g_ell[..., 0, 0], g_ell[..., 1, 1],
                                                        g_ell[..., 1, 0])
        g_lin[..., 4:10] *= ops.sigmoid(lin[..., 4:10])  # softplus'
        g_inp = np.matvec(w.mT, g_lin)
        n = hidden.shape[-1]
        return g_inp[..., :n], g_inp[..., n:], ops.Outer(g_lin, inp), g_lin

    return ops.node((df, ef, pphi), (mem.hidden, mem.pc, w_t, b_t), vjp)


def jub_heads(weights: BlockWeights, pred: TrackState, ext_pred: ExtensionState):
    """Measurement compensation (dh, eh) from the current predictions: one
    matvec of the stacked update heads, whose rows are the shift (2) and
    the scatter-scale excess (2)."""
    if weights.update is None:
        return ZERO_MEASUREMENT
    (w_t, b_t), (w, b) = weights.update
    raw, back = _features(pred, ext_pred)
    std = weights.feat_std[:PRED_FEATURE_DIM]
    inp = (raw - weights.feat_mean[:PRED_FEATURE_DIM]) / std
    lin = np.matvec(w, inp) + b
    dh = lin[..., 0:2]
    eh = np.logaddexp(0.0, lin[..., 2:4]) / ops.SOFTPLUS_ZERO - 1.0

    def vjp(g):
        g_dh, g_eh = g
        g_lin = np.empty(lin.shape)
        g_lin[..., 0:2] = g_dh
        g_lin[..., 2:4] = g_eh / ops.SOFTPLUS_ZERO * ops.sigmoid(lin[..., 2:4])
        return back(np.matvec(w.mT, g_lin) / std) + (ops.Outer(g_lin, inp), g_lin)

    return ops.node((dh, eh), (pred.mean, pred.cov, ext_pred.param, w_t, b_t), vjp)


class _Compensator:
    """The network as a :func:`~memtrack.filtering.run_filter` compensator.

    Reads its weights once (:func:`block_weights`), and the frame features
    of the whole sequence once, at ``start``.  Holds the LSTM memory across
    steps: ``evolve`` updates it from the previous posteriors and the
    current frame, then reads the evolution heads; ``measure`` reads the
    update heads from the predictions.
    """

    def __init__(self, params: NetworkParams):
        self.memory_dim = params.memory_dim
        self.weights = block_weights(params)
        self.mem = self.frame_rows = None

    def start(self, stats: FrameStats):
        # one memory per case: the axes between the step axis and the point's
        self.mem = initial_memory(self.memory_dim, stats.mean.shape[1:-1])
        self.frame_rows = iter(frame_features(stats))

    def evolve(self, state: TrackState, ext: ExtensionState, fs: FrameStats):
        features = encode_inputs(state, ext, fs, next(self.frame_rows), self.weights)
        self.mem = mub_step(self.weights, features, self.mem)
        return jeb_heads(self.weights, self.mem)

    def measure(self, pred: TrackState, ext_pred: ExtensionState):
        return jub_heads(self.weights, pred, ext_pred)


def forward_sequence(
    params: NetworkParams,
    frames: Frames,
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
    may be a time-major batch (see :func:`memtrack.models.stack_frames`),
    taped or not.

    Returns (posterior states, posterior extensions, leaves-or-None).
    """
    if tape is not None:
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
    per case, (N,), each with the L2 term.  On a tape the whole loss is one
    node, whose adjoint is that of the cases' summed loss: the K terms are
    summed in step order, then scaled, and the weights' squares are summed
    weight by weight, in the order given.  Zero steps, or lengths that
    differ, raise LengthMismatch.
    """
    k = len(states)
    if k == 0 or not (len(exts) == len(truth_states) == len(truth_extents) == k):
        raise LengthMismatch(
            f"got {k} states, {len(exts)} extensions, "
            f"{len(truth_states)}/{len(truth_extents)} truth entries; a loss needs at least one")
    lam = extension_lambda(np.array([ext.dof for ext in exts]))[..., None, None]
    d_state = np.array([ops.value(state.mean) for state in states]) - truth_states
    d_extent = np.array([ops.value(ext.param) for ext in exts]) / lam - truth_extents
    terms = np.add.reduce(d_state * d_state, -1) + np.add.reduce(d_extent * d_extent, (-2, -1))
    total = np.add.accumulate(terms)[-1]  # in step order, one add at a time
    regularized = () if weights is None or gamma == 0.0 else tuple(weights.values())
    values = [ops.value(w) for w in regularized]
    scale = 2.0 * k
    out = total / scale
    if values:
        reg = np.sum(values[0] * values[0])
        for w in values[1:]:
            reg = reg + np.sum(w * w)
        out = out + gamma * reg

    def vjp(g):
        g_term = 2.0 * (g / scale)
        g_reg = 2.0 * (np.sum(g) * gamma)  # every case's loss holds the L2 term
        return [*(g_term[..., None] * d_state), *((g_term[..., None, None] * d_extent) / lam),
                *(g_reg * w for w in values)]

    parents = [state.mean for state in states] + [ext.param for ext in exts]
    return ops.node(out, (*parents, *regularized), vjp)
