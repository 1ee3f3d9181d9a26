"""Reverse-mode differentiation tape over small numpy arrays.

Every value on a tape comes from a node with a hand-written adjoint.  A
stage computes its outputs in plain numpy, by the same expressions with or
without a tape, and hands them to :func:`node` with its parents and its
vjp; :func:`node` records them on the tape the parents share, or returns
them unchanged when no parent is a :class:`Var`.  Training-time forwards
and plain inference therefore produce the same values bit for bit.  The
filter stages, the network blocks and the loss record themselves this way
(see :mod:`memtrack.filtering` and :mod:`memtrack.network`), as do
:func:`lstm_cell` and the eigenvalue clamp :func:`sym_project`.  A Var has
no arithmetic operators, so nothing else can record on a tape.

The tape is linear: nodes are appended in execution order, so a reversed
walk visits every node after all of its consumers.  Adjoint accumulation is
a list indexed by node position; no topological sort is needed.  A node
may have several outputs; its vjp gets one adjoint per output and returns
one adjoint per parent.

A weight matrix's adjoint from ``w @ x`` is ``g x^T`` at every step.  A vjp
returns it as an :class:`Outer`, and :meth:`Tape.backward` sums all of a
node's outer products with one matrix product, ``G^T X``, when its walk
reaches that node.

The one-track hot path is kept cheap in two more ways, neither of which
changes a forward value.  The eigenvalue clamp of :func:`sym_project` first
tries to prove, in scalar arithmetic, that nothing clamps (a closed-form
2x2 minimum eigenvalue, or positive pivots of ``s - eps I``), and calls
``eigh`` only when that proof fails.  :func:`solve` inverts a 2x2 by its
adjugate.

A plain (untaped) batch of N cases stacks its matrices on a leading case
axis, and :func:`sym_project`, :func:`solve` and :func:`logchol2x2` work
row by row on such stacks, each row bit for bit as it would alone.  The
2x2 clamp proof runs per row, the 4x4 one as one Cholesky factorization of
the stack, and each row it leaves open goes through the one-matrix clamp.
These stack forms stay because per-row calls were slower: an 8-case
feature-statistics pass took 58 ms against 38, a 16-case learned forward
97 ms against 77.  ``_matvec`` and ``_mT`` are the matrix-vector product
and the transpose of one case or of each row of a stack, and ``_rows``
shapes a batch's per-case scalars to scale its matrices.  A tape records
one case.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, NotPositiveDefinite, TapeEmpty

__all__ = [
    "SOFTPLUS_ZERO",
    "Var",
    "Outer",
    "Tape",
    "value",
    "node",
    "sigmoid",
    "lstm_cell",
    "solve",
    "sym_project",
    "logchol2x2",
    "logchol2x2_adjoint",
]

# softplus(0); subtracting this constant (rather than a literal log 2) makes
# the calibrated-zero head outputs exactly 0.0 for zero weights.
SOFTPLUS_ZERO = float(np.logaddexp(0.0, 0.0))


class Var:
    """A value recorded on a tape: output ``slot`` of node ``idx``, or the
    only output when ``slot`` is None.

    A Var has no arithmetic: every value on a tape comes from a node with a
    hand-written adjoint (:func:`node`, :func:`lstm_cell`,
    :func:`sym_project`).  Numpy does not unwrap it either, so a plain
    operator applied to a Var raises TypeError instead of recording nothing.
    """

    __slots__ = ("value", "tape", "idx", "slot")
    __array_ufunc__ = None  # numpy defers to Var, which defines no operators

    def __init__(self, value, tape, idx, slot=None):
        self.value = value
        self.tape = tape
        self.idx = idx
        self.slot = slot

    def __repr__(self):
        return f"Var(idx={self.idx}, value={self.value!r})"


class Outer:
    """The adjoint ``g x^T`` of a weight ``w`` in ``w @ x``, kept as its two
    vectors; :meth:`Tape.backward` sums a weight's outer products over every
    step in one matrix product."""

    __slots__ = ("g", "x")

    def __init__(self, g, x):
        self.g = g
        self.x = x


class Tape:
    """Linear record of ops.

    ``entries[i]`` is ``()`` for a leaf and ``(refs, vjp, outputs)`` for a
    node: ``refs`` holds ``(idx, slot)`` per parent (None for a parent that
    is not a Var), and ``outputs`` is the tuple of output values of a node
    with several outputs, None for a node with one.
    """

    def __init__(self):
        self.entries = []

    def leaf(self, value) -> Var:
        self.entries.append(())
        return Var(np.asarray(value, dtype=np.float64), self, len(self.entries) - 1)

    def record(self, outputs, parents, vjp):
        """Append one node; see :func:`node`."""
        refs = [(p.idx, p.slot) if isinstance(p, Var) else None for p in parents]
        idx = len(self.entries)
        if isinstance(outputs, tuple):
            self.entries.append((refs, vjp, outputs))
            return tuple([Var(v, self, idx, k) for k, v in enumerate(outputs)])
        self.entries.append((refs, vjp, None))
        return Var(outputs, self, idx)

    def backward(self, out: Var):
        """Adjoints of ``out`` w.r.t. every node, indexed by Var.idx; a node
        with several outputs gets a list with one adjoint (or None) per output."""
        if not self.entries:
            raise TapeEmpty("no operations recorded")
        grads = [None] * len(self.entries)
        outers = {}  # node index -> (g rows, x rows) of its Outer adjoints
        _accumulate(self.entries, grads, (out.idx, out.slot), np.asarray(1.0))
        for i in range(out.idx, -1, -1):
            if i in outers:
                gs, xs = outers.pop(i)
                _accumulate(self.entries, grads, (i, None), np.array(gs).T @ np.array(xs))
            g = grads[i]
            entry = self.entries[i]
            if g is None or not entry:
                continue
            refs, vjp, outputs = entry
            if outputs is not None:
                g = tuple(np.zeros_like(v) if gk is None else gk for gk, v in zip(g, outputs))
            for ref, contrib in zip(refs, vjp(g)):
                if ref is None or contrib is None:
                    continue
                if isinstance(contrib, Outer):
                    gs, xs = outers.setdefault(ref[0], ([], []))
                    gs.append(contrib.g)
                    xs.append(contrib.x)
                else:
                    _accumulate(self.entries, grads, ref, contrib)
        return grads

    def grad(self, grads, var: Var) -> np.ndarray:
        g = grads[var.idx]
        if g is not None and var.slot is not None:
            g = g[var.slot]
        if g is None:
            return np.zeros_like(var.value)
        return np.broadcast_to(g, np.shape(var.value)).astype(np.float64, copy=True)


def _accumulate(entries, grads, ref, contrib):
    idx, slot = ref
    if slot is None:
        prev = grads[idx]
        grads[idx] = contrib if prev is None else prev + contrib
        return
    acc = grads[idx]
    if acc is None:
        acc = grads[idx] = [None] * len(entries[idx][2])
    acc[slot] = contrib if acc[slot] is None else acc[slot] + contrib


def value(x):
    """Underlying ndarray / float of a Var or passthrough."""
    return x.value if isinstance(x, Var) else x


def _tape(*xs):
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    return None


def node(outputs, parents, vjp):
    """Record that ``outputs`` were computed from ``parents`` as one node.

    ``outputs`` is one array, or a tuple of arrays for a node with several
    outputs.  ``vjp`` maps the node's adjoint (one array, or a tuple with one
    array per output, zeros for an output nothing used) to a tuple with one
    adjoint per parent: an array, None, or an :class:`Outer` for a parent
    with one output.  Adjoints of parents that are not Vars are ignored.
    The vjp must not hold a Var: the tape would then reference itself.

    Returns ``outputs`` unchanged when no parent is a Var, else the Var, or
    the tuple of Vars, recorded on the parents' tape.
    """
    t = _tape(*parents)
    return outputs if t is None else t.record(outputs, parents, vjp)


def _sym_grad(g):
    """Adjoint of symmetrization: the symmetric part of the gradient."""
    g = np.asarray(g)
    return 0.5 * (g + g.T)


def sigmoid(x):
    """1 / (1 + e^-x) of a plain array, the derivative of softplus: each
    branch is evaluated where it cannot overflow (1 / (1 + e^-x) for x >= 0,
    e^x / (1 + e^x) otherwise)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def lstm_cell(w, b, x, hidden, cell):
    """One LSTM step; returns the new (cell, hidden).

    ``w @ [x; hidden] + b`` stacks the input, forget and output gates and
    the candidate, in that order.  On a tape the step is one node with two
    outputs, and ``w``'s adjoint is an :class:`Outer`.
    """
    t = _tape(w, b, x, hidden, cell)
    wv, hv, cv = value(w), value(hidden), value(cell)
    n = hv.shape[-1]
    z = np.concatenate([value(x), hv], axis=-1)
    lin = _matvec(wv, z) + value(b)
    gates = sigmoid(lin[..., :3 * n])
    gate_in, gate_forget, gate_out = gates[..., :n], gates[..., n:2 * n], gates[..., 2 * n:]
    candidate = np.tanh(lin[..., 3 * n:])
    new_cell = gate_forget * cv + gate_in * candidate
    tanh_cell = np.tanh(new_cell)
    new_hidden = gate_out * tanh_cell
    if t is None:
        return new_cell, new_hidden
    nx = len(z) - n

    def vjp(g):
        g_cell, g_hidden = g
        g_cell = g_cell + (g_hidden * gate_out) * (1.0 - tanh_cell * tanh_cell)
        dlin = np.concatenate([
            (g_cell * candidate) * gate_in * (1.0 - gate_in),
            (g_cell * cv) * gate_forget * (1.0 - gate_forget),
            (g_hidden * tanh_cell) * gate_out * (1.0 - gate_out),
            (g_cell * gate_in) * (1.0 - candidate * candidate),
        ])
        dz = wv.T @ dlin
        return Outer(dlin, z), dlin, dz[:nx], dz[nx:], g_cell * gate_forget

    return t.record((new_cell, new_hidden), (w, b, x, hidden, cell), vjp)


def _mT(a):
    """The transpose of a matrix, or of each matrix of a stack."""
    return a.T if a.ndim == 2 else np.swapaxes(a, -1, -2)


def _any(flags) -> bool:
    """Whether a condition holds for one case (a bool), or for any row of a
    batch (an array of bools)."""
    return np.count_nonzero(flags) > 0 if isinstance(flags, np.ndarray) else flags


def _rows(x):
    """A per-case scalar as a factor of each case's matrices: a scalar as
    it is, a batch's (N,) values as (N, 1, 1)."""
    return x[:, None, None] if isinstance(x, np.ndarray) else x


def _matvec(a, x):
    """``a @ x`` for a vector ``x``, or for each row of a stack (N, n) of
    vectors, ``a`` one matrix or a stack: each row is one matrix-vector
    product, bit for bit as ``a @ x`` on that row alone."""
    return a @ x if x.ndim == 1 else (a @ x[..., None])[..., 0]


def solve(a, b):
    """np.linalg.solve(a, b) of plain arrays, by the adjugate when a is 2x2.

    A 2x2 whose determinant is 0 or not finite goes to LAPACK, which raises
    LinAlgError on an exactly singular matrix and otherwise behaves as it
    always did (NaN in, NaN out; no overflow in the determinant).  A stack
    of 2x2s (N, 2, 2), with right-hand sides (N, 2, k), is solved row by
    row the same way.
    """
    if a.shape == (2, 2):
        (a00, a01), (a10, a11) = a.tolist()
        det = a00 * a11 - a01 * a10
        if det != 0.0 and math.isfinite(det):
            return (np.array([[a11, -a01], [-a10, a00]]) @ b) / det
    elif a.ndim == 3 and a.shape[1:] == (2, 2):
        a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
        adjugate = np.empty_like(a)
        adjugate[:, 0, 0], adjugate[:, 0, 1] = a11, -a01
        adjugate[:, 1, 0], adjugate[:, 1, 1] = -a10, a00
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            det = a00 * a11 - a01 * a10
            x = (adjugate @ b) / det[:, None, None]
        lapack = ~((det != 0.0) & np.isfinite(det))
        if lapack.any():
            x[lapack] = np.linalg.solve(a[lapack], b[lapack])
        return x
    return np.linalg.solve(a, b)


# Relative slack of the no-clamp test: it covers the test's own roundoff and
# eigh's (a few ulps of the spectral norm each), so the test passes only
# where eigh would also find every eigenvalue >= eps.
_EIG_SLACK = 64.0 * np.finfo(np.float64).eps


def _above(s, eps) -> bool:
    """True when every eigenvalue of symmetric ``s`` provably exceeds ``eps``;
    False means only that eigh has to decide (NaN included).

    A 2x2 uses the closed-form smaller eigenvalue ``m - r`` and spectral
    norm ``|m| + r``.  A 4x4 runs an unrolled LDL^T of
    ``s - t I`` in scalar arithmetic, whose pivots are all positive exactly
    when it is positive definite; ``t`` adds slack relative to the trace,
    which bounds the spectral norm of an SPD ``s``.  Other sizes ask eigh.
    """
    if s.shape == (2, 2):
        (a, b), (_, d) = s.tolist()
        m, r = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
        return m - r - eps > _EIG_SLACK * (abs(m) + r)
    if s.shape != (4, 4):
        return False
    (a00, a01, a02, a03), (_, a11, a12, a13), (_, _, a22, a23), (_, _, _, a33) = s.tolist()
    t = eps + 4.0 * _EIG_SLACK * (abs(a00) + abs(a11) + abs(a22) + abs(a33))
    d0 = a00 - t
    if not d0 > 0.0:
        return False
    l10, l20, l30 = a01 / d0, a02 / d0, a03 / d0
    d1 = a11 - t - l10 * a01
    if not d1 > 0.0:
        return False
    b12, b13 = a12 - l10 * a02, a13 - l10 * a03
    l21, l31 = b12 / d1, b13 / d1
    d2 = a22 - t - l20 * a02 - l21 * b12
    if not d2 > 0.0:
        return False
    b23 = a23 - l20 * a03 - l21 * b13
    return a33 - t - l30 * a03 - l31 * b13 - b23 * b23 / d2 > 0.0


def _above_rows(s, eps) -> np.ndarray:
    """Which matrices of a symmetric stack ``s`` (N, d, d) provably have
    every eigenvalue above their ``eps`` (a float or (N,)); False leaves a
    row to the one-matrix clamp, :func:`_project_value`.

    Each 2x2 gets the scalar test's closed form.  A stack of larger
    matrices passes or fails as a whole: it passes when LAPACK factors
    every ``s - t I`` (its Cholesky factor then is finite), ``t`` as in
    :func:`_above`.
    """
    if s.shape[1:] == (2, 2):
        a, b, d = s[:, 0, 0], s[:, 0, 1], s[:, 1, 1]
        m, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
        return m - r - eps > _EIG_SLACK * (np.abs(m) + r)
    dim = s.shape[-1]
    t = eps + np.abs(s.diagonal(0, 1, 2)).sum(axis=1) * (dim * _EIG_SLACK)
    try:
        factor = np.linalg.cholesky(s - t[:, None, None] * np.eye(dim))
    except np.linalg.LinAlgError:
        return np.zeros(len(s), dtype=bool)
    # a NaN or infinity anywhere in the factor reaches its last pivot
    return np.full(len(s), np.isfinite(factor[:, -1, -1]).all())


def _project_rows(s, eps):
    """The projection of each matrix of a symmetric stack ``s`` at its
    ``eps``: each row the proof leaves open goes through
    :func:`_project_value`; ``s`` itself when no row changes."""
    out = s
    for i in (~_above_rows(s, eps)).nonzero()[0].tolist():
        row, _, _, clamped = _project_value(s[i], eps[i] if isinstance(eps, np.ndarray) else eps)
        if clamped:
            out = s.copy() if out is s else out
            out[i] = row
    return out


def _project_value(s, eps):
    """(projection, w, u, clamped); w and u are eigh's, or None when the
    no-clamp test made eigh unnecessary.  Without a clamp the projection is
    ``s`` itself.  A non-finite ``s`` raises NonFinite."""
    if _above(s, eps):
        return s, None, None, False
    if not np.isfinite(s).all():  # eigh would raise LinAlgError
        raise NonFinite("non-finite matrix in the eigenvalue clamp")
    w, u = np.linalg.eigh(s)
    if w[0] >= eps:
        return s, w, u, False
    wc = np.maximum(w, eps)
    out = (u * wc) @ u.T
    return 0.5 * (out + out.T), w, u, True


def _clamp_vjp(w, u, eps):
    """Exact adjoint of symmetrize-then-clamp at eigenpairs (w, u) of the
    symmetrized input: blocks the gradient along clamped eigendirections."""
    wc = np.maximum(w, eps)
    gprime = (w > eps).astype(np.float64)
    dw = w[:, None] - w[None, :]
    dn = wc[:, None] - wc[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(dw != 0.0, dn / dw, 0.5 * (gprime[:, None] + gprime[None, :]))

    def vjp(g):
        tmat = u.T @ _sym_grad(g) @ u
        return _sym_grad(u @ (m * tmat) @ u.T)

    return vjp


def sym_project(a, eps):
    """Symmetrize then clamp eigenvalues to >= eps.

    Backward is the exact adjoint of the eigenvalue clamp: it reduces to
    plain symmetrization of the incoming gradient when nothing was clamped,
    and blocks the gradient along clamped eigendirections otherwise.
    """
    t = _tape(a)
    av = value(a)
    s = 0.5 * (av + _mT(av))
    if s.ndim == 3:  # a plain batch
        return _project_rows(s, eps)
    out, w, u, clamped = _project_value(s, eps)
    if t is None:
        return out
    vjp = _clamp_vjp(w, u, eps) if clamped else _sym_grad
    return t.record(out, (a,), lambda g: (vjp(g),))


def logchol2x2(a):
    """Log-Cholesky features (log L00, log L11, L10) of a plain 2x2 SPD
    matrix, or (N, 3) of a stack (N, 2, 2); its adjoint is
    :func:`logchol2x2_adjoint`."""
    if a.ndim == 3:
        return _logchol2x2_rows(a)
    x00, x01, x11 = a[0, 0], a[0, 1], a[1, 1]
    if x00 <= 0.0:
        raise NotPositiveDefinite("2x2 matrix has non-positive leading entry")
    l00 = np.sqrt(x00)
    l10 = x01 / l00
    l11sq = x11 - l10 * l10
    if l11sq <= 0.0:
        raise NotPositiveDefinite("2x2 matrix has non-positive Schur complement")
    return np.array([0.5 * np.log(x00), 0.5 * np.log(l11sq), l10])


def _logchol2x2_rows(a):
    """:func:`logchol2x2` of each matrix of a stack (N, 2, 2), as (N, 3)."""
    x00, x01, x11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
    if _any(x00 <= 0.0):
        raise NotPositiveDefinite("2x2 matrix has non-positive leading entry")
    l10 = x01 / np.sqrt(x00)
    l11sq = x11 - l10 * l10
    if _any(l11sq <= 0.0):
        raise NotPositiveDefinite("2x2 matrix has non-positive Schur complement")
    out = np.empty((len(a), 3))
    out[:, 0], out[:, 1], out[:, 2] = 0.5 * np.log(x00), 0.5 * np.log(l11sq), l10
    return out


def logchol2x2_adjoint(a, g):
    """Adjoint of :func:`logchol2x2` at the plain 2x2 ``a`` for the output
    adjoint ``g``; it lives on the upper triangle, the entries read."""
    x00, x01, x11 = a[0, 0], a[0, 1], a[1, 1]
    l00 = np.sqrt(x00)
    l10 = x01 / l00
    l11sq = x11 - l10 * l10
    g0, g1, g2 = g[0], g[1], g[2]
    d = np.zeros((2, 2))
    d[0, 0] = g0 / (2.0 * x00) + g1 * (l10 * l10) / (2.0 * x00 * l11sq) - g2 * l10 / (2.0 * x00)
    d[0, 1] = -g1 * x01 / (x00 * l11sq) + g2 / l00
    d[1, 1] = g1 / (2.0 * l11sq)
    return d
