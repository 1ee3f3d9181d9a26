"""Reverse-mode differentiation tape over small numpy arrays.

Every value on a tape comes from a node with a hand-written adjoint.  A
stage computes its outputs in plain numpy, by the same expressions with or
without a tape, and hands them to :func:`node` with its parents and its
vjp; :func:`node` records them on the tape the parents share, or returns
them unchanged when no parent is a :class:`Var`.  Training-time forwards
and plain inference therefore produce the same values bit for bit.  Every
node comes from :func:`node`, called by the filter stages, the network
blocks, the network's stacked head weights and the loss (see
:mod:`memtrack.filtering` and :mod:`memtrack.network`): one node per
stage or block per step, one per stack per sequence, and one for the
loss.  The primitives a stage builds on, :func:`lstm_cell` and
:func:`solve`, take plain arrays, record nothing, and return their value
with its adjoint, which the stage calls inside its own vjp.  A Var has no
arithmetic operators, so nothing else can record on a tape.

The tape is linear: nodes are appended in execution order, so a reversed
walk visits every node after all of its consumers.  Adjoint accumulation is
a list indexed by node position; no topological sort is needed.  A node
may have several outputs; its vjp gets one adjoint per output (zeros only
for an output nothing used) and returns one adjoint per parent.

A weight matrix's adjoint from ``w @ x`` is ``g x^T`` at every step.  A vjp
returns it as an :class:`Outer`, and :meth:`Tape.backward` sums all of a
node's outer products with one matrix product, ``G^T X``, when its walk
reaches that node.

No function here makes a LAPACK call: :func:`solve` inverts the gain's
2x2 by its adjugate, and nothing rescues a determinant that is 0 or not
finite; it raises instead.

Every stage, block, primitive and vjp is written once, with ``...``
indexing, ``.mT`` and ``np.matvec``, for one case (leading shape ``()``) or
a batch of N (``(N,)``), each row bit for bit as that case alone.  A tape
records either: a weight's :class:`Outer` rows are summed over steps and
cases, and other per-case adjoints of a leaf over cases.
"""

from __future__ import annotations

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
    hand-written adjoint, recorded by :func:`node`.  Numpy does not unwrap
    it either, so a plain operator applied to a Var raises TypeError
    instead of recording nothing.
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
    with several outputs, None for a node with one.  ``leaf_shapes`` maps
    leaf indices to their values' shapes.
    """

    def __init__(self):
        self.entries = []
        self.leaf_shapes = {}

    def leaf(self, value) -> Var:
        value = np.asarray(value, dtype=np.float64)
        self.entries.append(())
        self.leaf_shapes[len(self.entries) - 1] = value.shape
        return Var(value, self, len(self.entries) - 1)

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
        """Adjoints of ``out`` (of the sum of a batch's) w.r.t. every node,
        indexed by Var.idx; a node with several outputs gets a list with one
        adjoint (or None) per output.  A leaf's per-case adjoints are summed
        over the cases as they arrive."""
        entries, leaf_shapes = self.entries, self.leaf_shapes
        if not entries:
            raise TapeEmpty("no operations recorded")
        grads = [None] * len(entries)
        outers = {}  # node index -> (g rows, x rows) of its Outer adjoints
        seed = np.ones_like(out.value, dtype=np.float64)
        if out.slot is None:
            grads[out.idx] = seed
        else:
            grads[out.idx] = [None] * len(entries[out.idx][2])
            grads[out.idx][out.slot] = seed
        for i in range(out.idx, -1, -1):
            if i in outers:  # only a leaf or a one-output node takes an Outer
                gs, xs = map(np.array, outers.pop(i))  # a batch's: (steps, cases, n)
                summed = gs.reshape(-1, gs.shape[-1]).T @ xs.reshape(-1, xs.shape[-1])
                grads[i] = summed if grads[i] is None else grads[i] + summed
            g = grads[i]
            entry = entries[i]
            if g is None or not entry:
                continue
            refs, vjp, outputs = entry
            if outputs is not None:
                for k, gk in enumerate(g):
                    if gk is None:
                        g[k] = np.zeros_like(outputs[k])
            for ref, contrib in zip(refs, vjp(g)):
                if ref is None or contrib is None:
                    continue
                j, slot = ref
                if contrib.__class__ is Outer:
                    gs, xs = outers.setdefault(j, ([], []))
                    gs.append(contrib.g)
                    xs.append(contrib.x)
                elif slot is None:
                    shape = leaf_shapes.get(j)
                    if shape is not None and contrib.ndim > len(shape):
                        contrib = contrib.reshape((-1,) + shape).sum(axis=0)
                    prev = grads[j]
                    grads[j] = contrib if prev is None else prev + contrib
                else:
                    acc = grads[j]
                    if acc is None:
                        acc = grads[j] = [None] * len(entries[j][2])
                    prev = acc[slot]
                    acc[slot] = contrib if prev is None else prev + contrib
        return grads

    def grad(self, grads, var: Var) -> np.ndarray:
        g = grads[var.idx]
        if g is not None and var.slot is not None:
            g = g[var.slot]
        if g is None:
            return np.zeros_like(var.value)
        return np.broadcast_to(g, np.shape(var.value)).astype(np.float64, copy=True)


def value(x):
    """Underlying ndarray / float of a Var or passthrough."""
    return x.value if isinstance(x, Var) else x


def node(outputs, parents, vjp):
    """Record that ``outputs`` were computed from ``parents`` as one node.

    ``outputs`` is one array, or a tuple of arrays for a node with several
    outputs.  ``vjp`` maps the node's adjoint (one array, or a list with one
    array per output, zeros for an output nothing used) to a sequence with
    one adjoint per parent: an array, None, or an :class:`Outer` for a
    parent with one output.  Adjoints of parents that are not Vars are ignored.
    The vjp must not hold a Var: the tape would then reference itself.

    Returns ``outputs`` unchanged when no parent is a Var, else the Var, or
    the tuple of Vars, recorded on the parents' tape.
    """
    for p in parents:
        if isinstance(p, Var):
            return p.tape.record(outputs, parents, vjp)
    return outputs


def sigmoid(x):
    """1 / (1 + e^-x) of a plain array, the derivative of softplus: each
    branch is evaluated where it cannot overflow (1 / (1 + e^-x) for x >= 0,
    e^x / (1 + e^x) otherwise)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def lstm_cell(w, b, x, hidden, cell):
    """One LSTM step of plain arrays; returns the new cell and hidden and
    their adjoint.

    ``w @ [x; hidden] + b`` stacks the input, forget and output gates and
    the candidate, in that order.  The adjoint maps the adjoints of the new
    (cell, hidden) to those of (w, b, x, hidden, cell), per case, ``w``'s
    as an :class:`Outer`; a caller records it inside its own node (see
    :func:`memtrack.network.mub_step`).
    """
    n = hidden.shape[-1]
    z = np.concatenate([x, hidden], axis=-1)
    lin = np.matvec(w, z) + b
    gates = sigmoid(lin[..., :3 * n])
    gate_in, gate_forget, gate_out = gates[..., :n], gates[..., n:2 * n], gates[..., 2 * n:]
    candidate = np.tanh(lin[..., 3 * n:])
    new_cell = gate_forget * cell + gate_in * candidate
    tanh_cell = np.tanh(new_cell)
    new_hidden = gate_out * tanh_cell

    def adjoint(g_cell, g_hidden):
        g_cell = g_cell + (g_hidden * gate_out) * (1.0 - tanh_cell * tanh_cell)
        # the three gates' slopes in one pass: (adjoint * gate) * (1 - gate)
        dlin = np.concatenate([g_cell * candidate, g_cell * cell, g_hidden * tanh_cell,
                               g_cell * gate_in], axis=-1)
        dlin[..., :3 * n] *= gates
        dlin[..., :3 * n] *= 1.0 - gates
        dlin[..., 3 * n:] *= 1.0 - candidate * candidate
        dz = np.matvec(w.mT, dlin)
        return Outer(dlin, z), dlin, dz[..., :-n], dz[..., -n:], g_cell * gate_forget

    return new_cell, new_hidden, adjoint


# The adjugate of a 2x2 is its entries reversed and transposed, with these signs.
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def solve(a, b):
    """x = a^-1 b for a plain 2x2 ``a``, or a stack of them, by the
    adjugate; returns the solution x and its adjoint.

    ``a`` is (..., 2, 2) and ``b`` (..., 2, k), or (2,) for one matrix.  The
    adjoint maps x's adjoint g to those of (a, b), ``(-y x^T, y)`` with
    ``a^T y = g``, solved with the same adjugate and determinant (the
    transpose's are their transpose and themselves).  Needs a nonzero
    finite determinant, which the gain's Pzz, SPD by construction, has
    while the beliefs are finite: one of exactly 0 raises LinAlgError, and
    one that is NaN, infinite or overflows raises NonFinite.
    """
    adjugate = a[..., ::-1, ::-1].mT * _COFACTOR_SIGNS
    # [()] makes one case's entries scalars, the cheapest to work with
    a00, a01, a10, a11 = a[..., 0, 0][()], a[..., 0, 1][()], a[..., 1, 0][()], a[..., 1, 1][()]
    with np.errstate(over="ignore", invalid="ignore"):
        det = a00 * a11 - a01 * a10
    if np.count_nonzero(~((det != 0.0) & (abs(det) < np.inf))):  # NaN fails both
        if np.count_nonzero(det == 0.0):
            raise np.linalg.LinAlgError("Singular matrix")
        raise NonFinite("2x2 solve: determinant is not finite")
    x = adjugate @ b
    x_t = x.T  # the case axes, reversed, now trail as det's do: each case's det divides its x
    x_t /= det.T
    lead = a.shape[:-1]

    def adjoint(g):
        """The adjoints ``(-y x^T, y)``; a vector x is taken as one column."""
        y = adjugate.mT @ g
        y_t = y.T
        y_t /= det.T
        return -y.reshape(lead + (-1,)) @ x.reshape(lead + (-1,)).mT, y

    return x, adjoint


def logchol2x2(a):
    """Log-Cholesky features (log L00, log L11, L10) of a plain 2x2 SPD
    matrix, (3,), or of each of a stack (N, 2, 2), (N, 3); its adjoint is
    :func:`logchol2x2_adjoint`."""
    # [()] makes one case's entries scalars, the cheapest to work with
    x00, x01, x11 = a[..., 0, 0][()], a[..., 0, 1][()], a[..., 1, 1][()]
    # Both domain failures are counted once.  A leading entry that is not
    # positive gets the stand-in root sqrt(|x00| + 1), so nothing before the
    # count takes a negative root or divides by zero; a NaN row fails
    # neither test and passes through.
    nonpositive = x00 <= 0.0
    l10 = x01 / np.sqrt(abs(x00) + nonpositive)
    l11sq = x11 - l10 * l10
    if np.count_nonzero(nonpositive | (l11sq <= 0.0)):
        if np.count_nonzero(nonpositive):
            raise NotPositiveDefinite("2x2 matrix has non-positive leading entry")
        raise NotPositiveDefinite("2x2 matrix has non-positive Schur complement")
    out = np.empty(a.shape[:-2] + (3,))
    out[..., 0], out[..., 1], out[..., 2] = 0.5 * np.log(x00), 0.5 * np.log(l11sq), l10
    return out


def logchol2x2_adjoint(a, g):
    """Adjoint of :func:`logchol2x2` at the plain 2x2 ``a``, or at each of a
    stack, for the output adjoint ``g``; it lives on the upper triangle, the
    entries read."""
    x00, x01, x11 = a[..., 0, 0][()], a[..., 0, 1][()], a[..., 1, 1][()]
    l00 = np.sqrt(x00)
    l10 = x01 / l00
    l11sq = x11 - l10 * l10
    g0, g1, g2 = g[..., 0][()], g[..., 1][()], g[..., 2][()]
    d = np.zeros(a.shape)
    d[..., 0, 0] = (g0 / (2.0 * x00) + g1 * (l10 * l10) / (2.0 * x00 * l11sq)
                    - g2 * l10 / (2.0 * x00))
    d[..., 0, 1] = -g1 * x01 / (x00 * l11sq) + g2 / l00
    d[..., 1, 1] = g1 / (2.0 * l11sq)
    return d
