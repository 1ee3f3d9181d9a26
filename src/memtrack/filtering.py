"""Closed-form joint state/extension recursion.

The recursion takes five compensation moments as plain arguments: the
evolution moments ``(df, ef, pphi)`` shift the predicted state mean, scale
the predicted state covariance per axis by ``1 + ef`` on both sides, and
inflate the predicted extension; the measurement moments ``(dh, eh)``
shift the predicted frame mean and scale the innovation's scatter noise per
axis by ``1 + eh``.  The same code therefore runs as the classic baseline
(with :data:`ZERO_EVOLUTION` and :data:`ZERO_MEASUREMENT`) and as the
filtering backbone of the learned tracker.  With zero compensation the
state branch is algebraically a Kalman filter whose measurement covariance
is the frame mean's scatter covariance, SCATTER_SCALE * Xhat / n.

:func:`run_filter` is the only place the per-step recursion is written.  It
takes an optional compensator, an object with three methods:

- ``start(stats)`` gets every step's frame statistics once, before the
  first step (the learned tracker computes its frame features there);

and, once per step, in this order:

- ``evolve(state, ext, fs)`` gets the previous posteriors and the current
  frame's statistics and returns the evolution moments ``(df, ef, pphi)``
  used by both predictions;
- ``measure(pred, ext_pred)`` gets those predictions and returns the
  measurement moments ``(dh, eh)`` used by the innovation.

A compensator may keep state between the calls and across steps (the
learned tracker keeps its LSTM memory there).  ``None`` runs the
zero-compensation baseline.

Every stage takes one case's beliefs or a batch's, whose arrays carry a
leading case axis (see :mod:`memtrack.models`), by one set of expressions,
and computes each row of a batch bit for bit as it would compute that case
alone; :func:`run_filter` runs a batch when its frames are a time-major
batch.  Zero compensation broadcasts over a batch.

Beliefs and compensation moments, of one case or a batch, may carry tape
variables (:mod:`memtrack.ops`); gradients then flow through every update
into upstream inputs.  Each stage computes its values in plain numpy, by the
same expressions with or without a tape, and records them as one tape node
with a hand-written adjoint: :func:`predict_state`'s mean and covariance,
:func:`predict_extension`'s parameter matrix, the innovation and the state
update together (:func:`innovation` computes the statistics and
:func:`update_state` records the node, from the prediction and the
measurement moments), and :func:`update_extension`'s parameter matrix,
whose one parent is the predicted one (the frame scatter is data).  A
taped step therefore records four filter nodes.

Every belief stays SPD by construction, with no eigenvalue clamp (see
each stage).  A stage whose products can leave its output asymmetric in the
last ulp takes the output's symmetric part inline; the extension stages
and the scatter terms add and scale symmetric matrices and need none.

Each invariant is checked once, where it is established, and no stage that
relies on it checks it again.  ``TrackerConfig`` requires init_dof > 2d + 4,
the predicted dof formula gives v' >= 2d + 4, and an update adds the frame's
count, at least 1 (:func:`memtrack.models.reduce_frames` raises EmptyFrame),
so lambda = v - 2d - 2 is at least 2 after a prediction and 3 after an
update.  :func:`run_filter` checks each step's posteriors for finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import ops, spdmat
from .errors import NonFinite, SingularInnovation, TooFewPoints
from .models import (
    SCATTER_SCALE,
    D,
    ExtensionState,
    FrameStats,
    NominalModel,
    TrackState,
    frame_stats,
    reduce_frames,
)

__all__ = [
    "TrackerConfig",
    "InnovationStats",
    "FilterDiagnostics",
    "ZERO_EVOLUTION",
    "ZERO_MEASUREMENT",
    "predict_state",
    "predict_extension",
    "innovation",
    "update_state",
    "update_extension",
    "extension_lambda",
    "extension_mean",
    "init_track",
    "run_filter",
]

# Predicted dofs are snapped to this dyadic grid (2^-34, ~6e-11 absolute)
# so that the integer update increment v_post = v_pred + n is exact in
# float arithmetic at every step.
_DOF_GRID = 2.0 ** 34


# Zero compensation: the evolution moments (df, ef, pphi) and the
# measurement moments (dh, eh) that reduce the filter to the baseline.
# Every zero-compensation caller shares these arrays, so they are read-only.
ZERO_EVOLUTION = (np.zeros(4), np.zeros(4), np.zeros((2, 2)))
ZERO_MEASUREMENT = (np.zeros(2), np.zeros(2))
for _zero in ZERO_EVOLUTION + ZERO_MEASUREMENT:
    _zero.setflags(write=False)

_EYE_STATE = np.eye(2 * D)


@dataclass(frozen=True)
class TrackerConfig:
    """Initialization priors and behavior knobs for a tracker run."""

    pos_var: float = 1.0        # m^2, initial position variance
    vel_var: float = 25.0       # (m/s)^2, initial velocity variance
    init_dof: float = 10.0      # initial extension dof v0
    min_extent: float = 1.0     # m^2 eigenvalue floor for the initial param

    def __post_init__(self):
        for name in ("pos_var", "vel_var", "min_extent"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails both tests
                raise ValueError(f"{name} must be positive and finite")
        # lambda = dof - 2d - 2 > 2 here keeps every later lambda >= 2 (module docstring)
        if not 2 * D + 4 < self.init_dof < np.inf:
            raise ValueError(f"init_dof must be finite and exceed {2 * D + 4}")


class InnovationStats(NamedTuple):
    """The frame mean's residual against its prediction and the matrices
    that :func:`update_state` reads, all plain arrays.

    ``sources`` are the prediction and measurement moments they came from,
    ``(x, P, X, dh, eh)``, of which :func:`update_state` updates the first
    two; ``back`` maps adjoints of (residual, pxz, pzz, r) to adjoints of
    the sources.  :func:`update_state` records its tape node from them, so
    that the innovation and the update are one node.
    """

    residual: np.ndarray  # (2,) frame mean minus its prediction H x + dh
    pxz: np.ndarray       # (4, 2)
    pzz: np.ndarray       # (2, 2) residual covariance H P H^T + r
    r: np.ndarray         # (2, 2) its scatter term D W D
    h: np.ndarray         # (2, 4) the measurement matrix H
    sources: tuple
    back: Callable | None


@dataclass(frozen=True)
class FilterDiagnostics:
    """Intermediates of one step, recorded by ``run_filter(trace=...)``;
    the residual is ``stats.residual``."""

    pred_state: TrackState
    pred_ext: ExtensionState
    stats: InnovationStats
    frame: FrameStats


def _scaled(m, excess):
    """``S m S`` for ``S = diag(1 + excess)``, entrywise as ``m_ij s_i s_j``
    (symmetric bit for bit; a zero excess multiplies by exactly 1.0), and
    the map from its adjoint to those of (m, excess)."""
    scale = 1.0 + excess
    outer_scale = scale[..., :, None] * scale[..., None, :]

    def adjoint(g):
        g_outer = g * m
        return g * outer_scale, np.matvec(g_outer, scale) + np.matvec(g_outer.mT, scale)

    return m * outer_scale, adjoint


def predict_state(prior: TrackState, model: NominalModel, df, ef) -> TrackState:
    """Evolve the kinematic belief one step.

    mean = F x + df;  cov = S (F P F^T + Q) S with S = diag(1 + ef), the
    bracket symmetrized.  ``ef >= -1`` keeps S >= 0, so the covariance is a
    congruence of the SPD bracket: SPD for any ``ef > -1``.
    """
    f = model.F
    mean = np.matvec(f, ops.value(prior.mean)) + ops.value(df)
    raw = f @ ops.value(prior.cov) @ f.T + model.q
    bracket = 0.5 * (raw + raw.mT)
    cov, scaled_adjoint = _scaled(bracket, ops.value(ef))

    def vjp(g):
        g_mean = g[0]
        g_bracket, g_ef = scaled_adjoint(g[1])
        g_raw = 0.5 * (g_bracket + g_bracket.mT)
        return np.matvec(f.T, g_mean), f.T @ g_raw @ f, g_mean, g_ef

    mean, cov = ops.node((mean, cov), (prior.mean, prior.cov, df, ef), vjp)
    return TrackState(mean=mean, cov=cov)


def predict_extension(prior: ExtensionState, model: NominalModel, pphi) -> ExtensionState:
    """Evolve the extension belief one step.

    lambda = v - 2d - 2 >= 2 (guaranteed: see the module docstring) for the
    dof moment-matching formula; the predicted dof is

        v' = 2 delta (l+1)(l-1)(l-2) / (l^2 (l+delta)) + 2d + 4

    and the parameter matrix is scaled by (v' - 2d - 2)/lambda > 0 around
    the transition bracket X + pphi / delta, SPD for an SPD X and a PSD
    pphi.  X and pphi = L L^T are symmetric bit for bit, and so is the
    bracket and its scalar multiple.
    """
    lam = prior.dof - 2 * D - 2
    delta = model.delta
    v_pred = 2.0 * delta * (lam + 1.0) * (lam - 1.0) * (lam - 2.0) / (lam * lam * (lam + delta)) \
        + 2 * D + 4
    v_pred = np.rint(v_pred * _DOF_GRID) / _DOF_GRID  # np.round's own ufunc, without its wrapper
    # The bracket is (delta X + pphi) / delta.  Dividing by delta keeps the
    # expected extent; the undivided bracket multiplies it by about delta
    # per step, which compounds geometrically.
    scale = ((v_pred - 2 * D - 2) / lam)[..., None, None]
    param = scale * (ops.value(prior.param) + ops.value(pphi) / delta)

    def vjp(g):
        g_bracket = scale * g
        return g_bracket, g_bracket / delta

    param = ops.node(param, (prior.param, pphi), vjp)
    return ExtensionState(dof=v_pred, param=param)


def extension_lambda(dof):
    """lambda = dof - 2d - 2, the divisor of the point-estimate extent (per
    case for a batch's (N,) dofs), as numpy values; at least 2 by the
    module docstring's guarantee."""
    return np.float64(dof) - 2 * D - 2  # a numpy scalar for one case, even for a float dof


def extension_mean(ext: ExtensionState):
    """Point-estimate extent: param / (dof - 2d - 2)."""
    return ext.param / extension_lambda(ext.dof)[..., None, None]


def innovation(
    pred: TrackState,
    ext_pred: ExtensionState,
    model: NominalModel,
    dh,
    eh,
    fs: FrameStats,
) -> InnovationStats:
    """The frame mean's residual against its prediction H x + dh, and the
    cross/innovation covariances.

    Pzz = H P H^T + R with the scatter term R = D W D, W = SCATTER_SCALE *
    Xhat / n and D = diag(1 + eh), eh >= -1, is SPD by construction for an
    SPD prediction P.  Xhat is the lambda-scaled extent point estimate (not
    the raw parameter matrix, whose scale grows with dof).  W is a scalar
    multiple of the symmetric Xhat, and D's product is taken entrywise as
    d_i d_j, so Pzz is symmetric bit for bit.

    Needs count >= 1 and lambda >= 2, guaranteed (module docstring).  The
    statistics are plain arrays; under a tape, :func:`update_state`
    records them and the update as one node (see :class:`InnovationStats`).
    """
    h, n = model.H, np.int64(fs.count)[..., None, None]
    lam = extension_lambda(ext_pred.dof)[..., None, None]
    z_pred = np.matvec(h, ops.value(pred.mean)) + ops.value(dh)
    pxz = ops.value(pred.cov) @ h.T
    hph = h @ pxz
    xhat = ops.value(ext_pred.param) / lam
    scatter = (SCATTER_SCALE * xhat) / n
    r, scaled_adjoint = _scaled(scatter, ops.value(eh))

    def back(g_residual, g_pxz, g_pzz, g_r):
        """Adjoints of (x, P, X, dh, eh) from those of (residual, pxz, pzz, r)."""
        g_pxz = g_pxz + h.T @ g_pzz
        g_scatter, g_eh = scaled_adjoint(g_pzz + g_r)
        g_xhat = (SCATTER_SCALE * g_scatter) / n
        return -np.matvec(h.T, g_residual), g_pxz @ h, g_xhat / lam, -g_residual, g_eh

    return InnovationStats(residual=fs.mean - z_pred, pxz=pxz, pzz=hph + r, r=r, h=h,
                           sources=(pred.mean, pred.cov, ext_pred.param, dh, eh),
                           back=back)


def update_state(stats: InnovationStats) -> TrackState:
    """Kalman-form update of the prediction ``stats`` came from: the mean
    moves by the gain K = Pxz Pzz^-1 times ``stats.residual``, and the
    covariance takes the Joseph form

        (I - K H) P (I - K H)^T + K R K^T,

    symmetrized, SPD for an SPD P and R.  A Pzz whose determinant is 0
    raises SingularInnovation, one whose determinant is not finite
    NonFinite (:func:`memtrack.ops.solve`).  One tape node with the innovation
    that made ``stats``.  The covariance's adjoint in K, 2 G (K R - A P H^T),
    is zero at the Kalman gain of P (Pzz K^T = H P), so K's adjoint comes
    from the mean alone."""
    r, h, residual, back = stats.r, stats.h, stats.residual, stats.back
    try:
        gain_t, solve_adjoint = ops.solve(stats.pzz, stats.pxz.mT)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(f"innovation covariance is singular: {exc}") from exc
    gain = gain_t.mT
    mean = ops.value(stats.sources[0]) + np.matvec(gain, residual)
    a = _EYE_STATE - gain @ h
    a_t = a.mT
    joseph = a @ ops.value(stats.sources[1]) @ a_t + gain @ r @ gain_t
    cov = 0.5 * (joseph + joseph.mT)

    def vjp(g):
        g_mean, g_cov = g
        g_cov = 0.5 * (g_cov + g_cov.mT)
        # gain^T = Pzz^-1 Pxz^T: its adjoint flows to Pzz and Pxz as a solve's
        g_pzz, g_rhs = solve_adjoint((g_mean[..., :, None] * residual[..., None, :]).mT)
        g_x, g_p, *g_rest = back(np.matvec(gain_t, g_mean), g_rhs.mT, g_pzz,
                                 gain_t @ g_cov @ gain)
        return g_mean + g_x, a_t @ g_cov @ a + g_p, *g_rest

    mean, cov = ops.node((mean, cov), stats.sources, vjp)
    return TrackState(mean=mean, cov=cov)


def update_extension(pred: ExtensionState, fs: FrameStats) -> ExtensionState:
    """Extension update: dof grows by the measurement count, and the
    parameter matrix absorbs the frame scatter Z rescaled to an extent,
    Z / SCATTER_SCALE.

    The SPD prediction plus the PSD rescaled scatter is SPD, and symmetric
    bit for bit, by construction.
    """
    dof = pred.dof + fs.count
    param = ops.value(pred.param) + fs.scatter / SCATTER_SCALE
    return ExtensionState(dof=dof, param=ops.node(param, (pred.param,), lambda g: (g,)))


def init_track(first, cfg: TrackerConfig) -> tuple[TrackState, ExtensionState]:
    """Initialize beliefs from the first frame's (n, 2) points, or from a
    batch's first frame (a tuple of N such arrays).

    Position at the frame mean, zero velocity, diagonal covariance priors;
    the extension parameter matrix is the lambda-scaled sample covariance,
    floored at ``min_extent`` per eigenvalue for a first frame of
    coincident or collinear points.
    """
    fewest = min(map(len, first)) if isinstance(first, tuple) else len(first)
    if fewest < 2:
        raise TooFewPoints(f"track initialization needs >= 2 points, got {fewest}")
    fs = frame_stats(first)
    lead = fs.mean.shape[:-1]
    mean = np.concatenate([fs.mean, np.zeros(lead + (2,))], axis=-1)
    cov = np.broadcast_to(np.diag([cfg.pos_var, cfg.pos_var, cfg.vel_var, cfg.vel_var]),
                          lead + (4, 4)).copy()
    raw = (cfg.init_dof - 2 * D - 2) * (fs.scatter / (np.int64(fs.count) - 1)[..., None, None])
    param = spdmat.eigen_floor(raw, cfg.min_extent)
    dof = np.full(lead, cfg.init_dof)[()]  # a scalar for one case
    return TrackState(mean=mean, cov=cov), ExtensionState(dof=dof, param=param)


def run_filter(
    frames: list,
    model: NominalModel,
    cfg: TrackerConfig,
    compensator=None,
    trace: list | None = None,
):
    """Filter a sequence of (n, 2) point frames; the first only initializes.

    ``frames`` is one case's frames, or a time-major batch of N cases (see
    :func:`memtrack.models.stack_frames`), filtered together with a leading
    case axis on every belief.  Frame statistics come from one reduction
    over every frame (:func:`memtrack.models.reduce_frames`), which a
    compensator gets first (``compensator.start``).  Every later
    frame runs ``compensator.evolve`` -> prediction ->
    ``compensator.measure`` -> innovation -> update (see the module
    docstring); ``compensator=None`` is the zero-compensation baseline.
    ``trace``, if given, receives one :class:`FilterDiagnostics` per step.

    Returns (posterior states, posterior extensions, trace), the first two
    of length len(frames) - 1.  A step whose state mean or extension
    parameter is not finite in any case raises NonFinite naming the step,
    the one check of a posterior's health; numpy's overflow, invalid-value
    and divide-by-zero warnings are silenced, as that exception reports them.
    """
    if len(frames) < 2:
        raise TooFewPoints("a sequence needs at least two frames")
    states, exts = [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state, ext = init_track(frames[0], cfg)
        reduced = reduce_frames(frames[1:])
        if compensator is not None:
            compensator.start(reduced)
        for k, fs in enumerate(reduced, start=2):
            df, ef, pphi = (ZERO_EVOLUTION if compensator is None
                            else compensator.evolve(state, ext, fs))
            pred = predict_state(state, model, df, ef)
            ext_pred = predict_extension(ext, model, pphi)
            dh, eh = (ZERO_MEASUREMENT if compensator is None
                      else compensator.measure(pred, ext_pred))
            stats = innovation(pred, ext_pred, model, dh, eh, fs)
            state = update_state(stats)
            ext = update_extension(ext_pred, fs)
            if not (np.isfinite(ops.value(state.mean)).all()
                    and np.isfinite(ops.value(ext.param)).all()):
                raise NonFinite(f"non-finite posterior at step {k}")
            if trace is not None:
                trace.append(FilterDiagnostics(pred_state=pred, pred_ext=ext_pred,
                                               stats=stats, frame=fs))
            states.append(state)
            exts.append(ext)
    return states, exts, trace
