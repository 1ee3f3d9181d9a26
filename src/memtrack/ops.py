"""Reverse-mode differentiation tape over small numpy arrays.

Every op here dispatches on its inputs: plain ndarrays (or python floats)
flow straight through numpy, while ``Var`` operands get the identical numpy
arithmetic recorded on their tape.  Writing the filter and network once over
these ops guarantees that training-time forwards and plain inference produce
the same values bit for bit.

The tape is linear: nodes are appended in execution order, so a reversed
walk visits every node after all of its consumers.  Adjoint accumulation is
a list indexed by node position; no topological sort is needed.

The one-track hot path is kept cheap in three ways, none of which changes a
forward value.  :func:`lstm_cell` and :func:`affine` record a whole LSTM step
and a whole ``w @ x + b`` as one node each, with hand-written adjoints.  The
eigenvalue clamp of :func:`sym_project` first tries to prove, in scalar
arithmetic, that nothing clamps (a closed-form 2x2 minimum eigenvalue, or
positive pivots of ``s - eps I``), and calls ``eigh`` only when that proof
fails.  :func:`solve` inverts a 2x2 by its adjugate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, NotPositiveDefinite, TapeEmpty

# softplus(0); subtracting this constant (rather than a literal log 2) makes
# the calibrated-zero head outputs exactly 0.0 for zero weights.
SOFTPLUS_ZERO = float(np.logaddexp(0.0, 0.0))


class Var:
    """A value recorded on a tape."""

    __slots__ = ("value", "tape", "idx")
    __array_ufunc__ = None  # force numpy to defer to our operators

    def __init__(self, value, tape, idx):
        self.value = value
        self.tape = tape
        self.idx = idx

    @property
    def shape(self):
        return np.shape(self.value)

    def __repr__(self):
        return f"Var(idx={self.idx}, value={self.value!r})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return getitem(self, key)

    @property
    def T(self):
        return transpose(self)


class Tape:
    """Linear record of ops; ``entries[i]`` lists (parent_idx, vjp) pairs."""

    def __init__(self):
        self.entries = []

    def leaf(self, value) -> Var:
        self.entries.append(())
        return Var(np.asarray(value, dtype=np.float64), self, len(self.entries) - 1)

    def _node(self, value, pairs) -> Var:
        self.entries.append(tuple(pairs))
        return Var(value, self, len(self.entries) - 1)

    def backward(self, out: Var, seed: float = 1.0):
        """Adjoints of ``out`` w.r.t. every node; indexable by Var.idx."""
        if not self.entries:
            raise TapeEmpty("no operations recorded")
        grads = [None] * len(self.entries)
        grads[out.idx] = np.asarray(seed, dtype=np.float64)
        for i in range(out.idx, -1, -1):
            g = grads[i]
            if g is None:
                continue
            for pidx, vjp in self.entries[i]:
                contrib = vjp(g)
                if grads[pidx] is None:
                    grads[pidx] = contrib
                else:
                    grads[pidx] = grads[pidx] + contrib
        return grads

    def grad(self, grads, var: Var) -> np.ndarray:
        g = grads[var.idx]
        if g is None:
            return np.zeros_like(var.value)
        return np.broadcast_to(g, np.shape(var.value)).astype(np.float64, copy=True)


def value(x):
    """Underlying ndarray / float of a Var or passthrough."""
    return x.value if isinstance(x, Var) else x


def _tape(*xs):
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    return None


def _unbroadcast(g, shape):
    g = np.asarray(g)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    if g.shape != tuple(shape):
        g = np.reshape(g, shape)
    return g


def add(a, b):
    t = _tape(a, b)
    out = value(a) + value(b)
    if t is None:
        return out
    pairs = []
    if isinstance(a, Var):
        sa = np.shape(a.value)
        pairs.append((a.idx, lambda g: _unbroadcast(g, sa)))
    if isinstance(b, Var):
        sb = np.shape(b.value)
        pairs.append((b.idx, lambda g: _unbroadcast(g, sb)))
    return t._node(out, pairs)


def sub(a, b):
    t = _tape(a, b)
    out = value(a) - value(b)
    if t is None:
        return out
    pairs = []
    if isinstance(a, Var):
        sa = np.shape(a.value)
        pairs.append((a.idx, lambda g: _unbroadcast(g, sa)))
    if isinstance(b, Var):
        sb = np.shape(b.value)
        pairs.append((b.idx, lambda g: _unbroadcast(-g, sb)))
    return t._node(out, pairs)


def neg(a):
    t = _tape(a)
    out = -value(a)
    if t is None:
        return out
    return t._node(out, [(a.idx, lambda g: -g)])


def mul(a, b):
    t = _tape(a, b)
    av, bv = value(a), value(b)
    out = av * bv
    if t is None:
        return out
    pairs = []
    if isinstance(a, Var):
        sa = np.shape(av)
        pairs.append((a.idx, lambda g: _unbroadcast(g * bv, sa)))
    if isinstance(b, Var):
        sb = np.shape(bv)
        pairs.append((b.idx, lambda g: _unbroadcast(g * av, sb)))
    return t._node(out, pairs)


def div(a, b):
    t = _tape(a, b)
    av, bv = value(a), value(b)
    out = av / bv
    if t is None:
        return out
    pairs = []
    if isinstance(a, Var):
        sa = np.shape(av)
        pairs.append((a.idx, lambda g: _unbroadcast(g / bv, sa)))
    if isinstance(b, Var):
        sb = np.shape(bv)
        pairs.append((b.idx, lambda g: _unbroadcast(-g * av / (bv * bv), sb)))
    return t._node(out, pairs)


def matmul(a, b):
    t = _tape(a, b)
    av, bv = value(a), value(b)
    out = av @ bv
    if t is None:
        return out
    pairs = []
    if isinstance(a, Var):
        if av.ndim == 2 and bv.ndim == 2:
            pairs.append((a.idx, lambda g: g @ bv.T))
        elif av.ndim == 2 and bv.ndim == 1:
            pairs.append((a.idx, lambda g: np.outer(g, bv)))
        elif av.ndim == 1 and bv.ndim == 2:
            pairs.append((a.idx, lambda g: bv @ g))
        else:  # vector . vector
            pairs.append((a.idx, lambda g: g * bv))
    if isinstance(b, Var):
        if bv.ndim == 2 and av.ndim == 2:
            pairs.append((b.idx, lambda g: av.T @ g))
        elif bv.ndim == 2 and av.ndim == 1:
            pairs.append((b.idx, lambda g: np.outer(av, g)))
        elif bv.ndim == 1 and av.ndim == 2:
            pairs.append((b.idx, lambda g: av.T @ g))
        else:
            pairs.append((b.idx, lambda g: g * av))
    return t._node(out, pairs)


def transpose(a):
    t = _tape(a)
    out = value(a).T
    if t is None:
        return out
    return t._node(out, [(a.idx, lambda g: np.asarray(g).T)])


def getitem(a, key):
    t = _tape(a)
    out = value(a)[key]
    if t is None:
        return out
    av = a.value

    def vjp(g):
        z = np.zeros_like(av)
        z[key] = g
        return z

    return t._node(out, [(a.idx, vjp)])


def concat(parts):
    """Concatenate 1-d pieces (scalars allowed) into one vector."""
    t = _tape(*parts)
    vals = [np.atleast_1d(np.asarray(value(p), dtype=np.float64)) for p in parts]
    out = np.concatenate(vals)
    if t is None:
        return out
    pairs = []
    off = 0
    for p, v in zip(parts, vals):
        size = v.size
        if isinstance(p, Var):
            shape = np.shape(p.value)
            lo, hi = off, off + size
            pairs.append((p.idx, lambda g, lo=lo, hi=hi, shape=shape: np.reshape(g[lo:hi], shape)))
        off += size
    return t._node(out, pairs)


def diag_embed(v):
    t = _tape(v)
    out = np.diag(value(v))
    if t is None:
        return out
    return t._node(out, [(v.idx, lambda g: np.diagonal(g).copy())])


def take_diag(m):
    t = _tape(m)
    out = np.diagonal(value(m)).copy()
    if t is None:
        return out
    return t._node(out, [(m.idx, lambda g: np.diag(g))])


def _sym_grad(g):
    """Adjoint of symmetrization: the symmetric part of the gradient."""
    g = np.asarray(g)
    return 0.5 * (g + g.T)


def _sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) otherwise, each branch
    evaluated where it cannot overflow."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a):
    t = _tape(a)
    av = np.asarray(value(a), dtype=np.float64)
    out = _sigmoid(av)
    if t is None:
        return out
    return t._node(out, [(a.idx, lambda g: g * out * (1.0 - out))])


def tanh(a):
    t = _tape(a)
    out = np.tanh(value(a))
    if t is None:
        return out
    return t._node(out, [(a.idx, lambda g: g * (1.0 - out * out))])


def softplus(a):
    t = _tape(a)
    av = np.asarray(value(a), dtype=np.float64)
    out = np.logaddexp(0.0, av)
    if t is None:
        return out
    return t._node(out, [(a.idx, lambda g: g * _sigmoid(av))])


def log(a):
    t = _tape(a)
    av = value(a)
    out = np.log(av)
    if t is None:
        return out
    return t._node(out, [(a.idx, lambda g: g / av)])


def sumsq(a):
    """Sum of squared entries (squared Frobenius / Euclidean norm)."""
    t = _tape(a)
    av = np.asarray(value(a), dtype=np.float64)
    out = np.float64(np.sum(av * av))
    if t is None:
        return out
    return t._node(out, [(a.idx, lambda g: (2.0 * g) * av)])


def _once(fn):
    """``fn`` memoized on the identity of its argument.  The vjps of one
    fused node share work; backward calls them in turn with one adjoint."""
    memo = [None, None]

    def get(g):
        if memo[0] is not g:
            memo[0], memo[1] = g, fn(g)
        return memo[1]

    return get


def affine(w, x, b):
    """``w @ x + b`` for a matrix ``w`` and vectors ``x`` and ``b``, one node."""
    t = _tape(w, x, b)
    wv, xv = value(w), value(x)
    out = wv @ xv + value(b)
    if t is None:
        return out
    pairs = []
    if isinstance(w, Var):
        pairs.append((w.idx, lambda g: np.outer(g, xv)))
    if isinstance(x, Var):
        pairs.append((x.idx, lambda g: wv.T @ g))
    if isinstance(b, Var):
        pairs.append((b.idx, lambda g: g))
    return t._node(out, pairs)


def lstm_cell(w, b, x, hidden, cell):
    """One LSTM step; returns the new (cell, hidden).

    ``w @ [x; hidden] + b`` stacks the input, forget and output gates and
    the candidate, in that order.  On a tape the step is one node whose
    value is ``[cell; hidden]``, read out by two slices.
    """
    t = _tape(w, b, x, hidden, cell)
    wv, hv, cv = value(w), value(hidden), value(cell)
    n = len(hv)
    z = np.concatenate([value(x), hv])
    lin = wv @ z + value(b)
    gates = _sigmoid(lin[:3 * n])
    gate_in, gate_forget, gate_out = gates[:n], gates[n:2 * n], gates[2 * n:]
    candidate = np.tanh(lin[3 * n:])
    new_cell = gate_forget * cv + gate_in * candidate
    tanh_cell = np.tanh(new_cell)
    new_hidden = gate_out * tanh_cell
    if t is None:
        return new_cell, new_hidden

    @_once
    def dlin_of(g):
        """Adjoints of the pre-activations and of the old cell."""
        g_cell, g_hidden = g[:n], g[n:]
        g_cell = g_cell + (g_hidden * gate_out) * (1.0 - tanh_cell * tanh_cell)
        dlin = np.concatenate([
            (g_cell * candidate) * gate_in * (1.0 - gate_in),
            (g_cell * cv) * gate_forget * (1.0 - gate_forget),
            (g_hidden * tanh_cell) * gate_out * (1.0 - gate_out),
            (g_cell * gate_in) * (1.0 - candidate * candidate),
        ])
        return dlin, g_cell * gate_forget

    dz_of = _once(lambda g: wv.T @ dlin_of(g)[0])
    nx = len(z) - n
    pairs = []
    for var, vjp in ((w, lambda g: np.outer(dlin_of(g)[0], z)),
                     (b, lambda g: dlin_of(g)[0]),
                     (x, lambda g: dz_of(g)[:nx]),
                     (hidden, lambda g: dz_of(g)[nx:]),
                     (cell, lambda g: dlin_of(g)[1])):
        if isinstance(var, Var):
            pairs.append((var.idx, vjp))
    both = t._node(np.concatenate([new_cell, new_hidden]), pairs)
    return getitem(both, slice(0, n)), getitem(both, slice(n, 2 * n))


def _solve_value(a, b):
    """np.linalg.solve(a, b), by the adjugate when a is 2x2.

    A 2x2 whose determinant is 0 or not finite goes to LAPACK, which raises
    LinAlgError on an exactly singular matrix and otherwise behaves as it
    always did (NaN in, NaN out; no overflow in the determinant).
    """
    if a.shape == (2, 2):
        (a00, a01), (a10, a11) = a.tolist()
        det = a00 * a11 - a01 * a10
        if det != 0.0 and math.isfinite(det):
            return (np.array([[a11, -a01], [-a10, a00]]) @ b) / det
    return np.linalg.solve(a, b)


def solve(a, b):
    """x with a @ x = b; adjoints da = -a^-T g x^T, db = a^-T g."""
    t = _tape(a, b)
    av, bv = value(a), value(b)
    x = _solve_value(av, bv)
    if t is None:
        return x
    pairs = []

    def gb_of(g):
        return _solve_value(av.T, g)

    if isinstance(b, Var):
        pairs.append((b.idx, gb_of))
    if isinstance(a, Var):
        if x.ndim == 1:
            pairs.append((a.idx, lambda g: -np.outer(gb_of(g), x)))
        else:
            pairs.append((a.idx, lambda g: -gb_of(g) @ x.T))
    return t._node(x, pairs)


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
    s = 0.5 * (av + av.T)
    out, w, u, clamped = _project_value(s, eps)
    if t is None:
        return out
    return t._node(out, [(a.idx, _clamp_vjp(w, u, eps) if clamped else _sym_grad)])


def logchol2x2(a):
    """Log-Cholesky features (log L00, log L11, L10) of a 2x2 SPD matrix."""
    t = _tape(a)
    av = value(a)
    x00, x01, x11 = av[0, 0], av[0, 1], av[1, 1]
    if x00 <= 0.0:
        raise NotPositiveDefinite("2x2 matrix has non-positive leading entry")
    l00 = np.sqrt(x00)
    l10 = x01 / l00
    l11sq = x11 - l10 * l10
    if l11sq <= 0.0:
        raise NotPositiveDefinite("2x2 matrix has non-positive Schur complement")
    out = np.array([0.5 * np.log(x00), 0.5 * np.log(l11sq), l10])
    if t is None:
        return out

    def vjp(g):
        g0, g1, g2 = g[0], g[1], g[2]
        d = np.zeros((2, 2))
        d[0, 0] = g0 / (2.0 * x00) + g1 * (l10 * l10) / (2.0 * x00 * l11sq) - g2 * l10 / (2.0 * x00)
        d[0, 1] = -g1 * x01 / (x00 * l11sq) + g2 / l00
        d[1, 1] = g1 / (2.0 * l11sq)
        return d

    return t._node(out, [(a.idx, vjp)])
