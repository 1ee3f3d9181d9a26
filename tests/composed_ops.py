"""Oracles for the fused tape nodes: the same stages written with one tape
node per elementary op.

The ops below are built on ``ops.node``, one node each: a generic algebra
(arithmetic with numpy broadcasting, matrix products, transposes and
indexing) and the elementwise and structural ops the stages need.  The
stages compose them exactly as the filter and network compute their
values, so a fused stage must match its composed twin bit for bit in value
and to roundoff in its adjoints.  A twin composes what its fused stage
takes inside its one node: the symmetric part of a stage's output
(:func:`symmetrize`, one node of its own), the Joseph-form update, the LSTM
step of ``mub_step`` and every term of the loss.  The twin differentiates
the Joseph form through its gain as well, which the fused update holds
fixed; the two adjoints agree to roundoff because that derivative vanishes
at the Kalman gain.

``memtrack`` itself gives a Var no operators.  :func:`install` puts the
algebra's operators on ``ops.Var`` for one test (the ``algebra`` fixture
of ``conftest.py``), so every other test runs the package as it ships.
"""

import numpy as np

from memtrack import filtering, network, ops, training
from memtrack.models import FRAME_COV_EPS, D, ExtensionState, TrackState

# -- the generic algebra, one node per op ------------------------------------


def _unbroadcast(g, shape):
    """Sum an adjoint over the axes numpy broadcast to reach ``shape``."""
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
    av, bv = ops.value(a), ops.value(b)
    sa, sb = np.shape(av), np.shape(bv)
    return ops.node(av + bv, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b):
    av, bv = ops.value(a), ops.value(b)
    sa, sb = np.shape(av), np.shape(bv)
    return ops.node(av - bv, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def neg(a):
    return ops.node(-ops.value(a), (a,), lambda g: (-g,))


def mul(a, b):
    av, bv = ops.value(a), ops.value(b)
    sa, sb = np.shape(av), np.shape(bv)
    return ops.node(av * bv, (a, b),
                    lambda g: (_unbroadcast(g * bv, sa), _unbroadcast(g * av, sb)))


def div(a, b):
    av, bv = ops.value(a), ops.value(b)
    sa, sb = np.shape(av), np.shape(bv)
    return ops.node(av / bv, (a, b), lambda g: (_unbroadcast(g / bv, sa),
                                                _unbroadcast(-g * av / (bv * bv), sb)))


def matmul(a, b):
    av, bv = ops.value(a), ops.value(b)
    if av.ndim == 2 and bv.ndim == 2:
        vjp = lambda g: (g @ bv.T, av.T @ g)  # noqa: E731
    elif av.ndim == 2:  # matrix @ vector
        vjp = lambda g: (np.outer(g, bv), av.T @ g)  # noqa: E731
    elif bv.ndim == 2:  # vector @ matrix
        vjp = lambda g: (bv @ g, np.outer(av, g))  # noqa: E731
    else:  # vector . vector
        vjp = lambda g: (g * bv, g * av)  # noqa: E731
    return ops.node(av @ bv, (a, b), vjp)


def transpose(a):
    return ops.node(ops.value(a).T, (a,), lambda g: (np.asarray(g).T,))


def getitem(a, key):
    av = ops.value(a)

    def vjp(g):
        z = np.zeros_like(av)
        z[key] = g
        return (z,)

    return ops.node(av[key], (a,), vjp)


def sumsq(a):
    """Sum of squared entries (squared Frobenius / Euclidean norm)."""
    av = np.asarray(ops.value(a), dtype=np.float64)
    return ops.node(np.float64(np.sum(av * av)), (a,), lambda g: ((2.0 * g) * av,))


def solve(a, b):
    """x with a @ x = b; adjoints da = -a^-T g x^T, db = a^-T g."""
    av, bv = ops.value(a), ops.value(b)
    x, _ = ops.solve(av, bv)

    def vjp(g):
        gb, _ = ops.solve(av.T, g)
        return -(np.outer(gb, x) if x.ndim == 1 else gb @ x.T), gb

    return ops.node(x, (a, b), vjp)


def logchol2x2(a):
    av = ops.value(a)
    return ops.node(ops.logchol2x2(av), (a,), lambda g: (ops.logchol2x2_adjoint(av, g),))


def symmetrize(a):
    """The symmetric part ``0.5 (a + a^T)`` as a node of its own."""
    av = ops.value(a)
    return ops.node(0.5 * (av + av.T), (a,), lambda g: (0.5 * (g + g.T),))


# The algebra as Var operators; ``__rmul__`` and ``__radd__`` commute.
OPERATORS = {
    "__add__": add,
    "__radd__": add,
    "__sub__": sub,
    "__rsub__": lambda self, other: sub(other, self),
    "__mul__": mul,
    "__rmul__": mul,
    "__truediv__": div,
    "__matmul__": matmul,
    "__rmatmul__": lambda self, other: matmul(other, self),
    "__neg__": neg,
    "__getitem__": getitem,
    "T": property(transpose),
}


def install(monkeypatch):
    """Give ``ops.Var`` the algebra's operators until the test ends."""
    for name, op in OPERATORS.items():
        monkeypatch.setattr(ops.Var, name, op, raising=False)


# -- elementwise and structural ops, one node each ---------------------------

def sigmoid(a):
    out = ops.sigmoid(np.asarray(ops.value(a), dtype=np.float64))
    return ops.node(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(ops.value(a))
    return ops.node(out, (a,), lambda g: (g * (1.0 - out * out),))


def softplus(a):
    av = np.asarray(ops.value(a), dtype=np.float64)
    return ops.node(np.logaddexp(0.0, av), (a,), lambda g: (g * ops.sigmoid(av),))


def log(a):
    av = ops.value(a)
    return ops.node(np.log(av), (a,), lambda g: (g / av,))


def take_diag(m):
    return ops.node(np.diagonal(ops.value(m)).copy(), (m,), lambda g: (np.diag(g),))


def diag_embed(v):
    return ops.node(np.diag(ops.value(v)), (v,), lambda g: (np.diagonal(g).copy(),))


def concat(parts):
    """Concatenate 1-d pieces (scalars allowed) into one vector."""
    vals = [np.atleast_1d(np.asarray(ops.value(p), dtype=np.float64)) for p in parts]
    bounds = np.cumsum([0] + [v.size for v in vals])
    shapes = [np.shape(ops.value(p)) for p in parts]

    def vjp(g):
        return tuple(np.reshape(g[lo:hi], shape)
                     for lo, hi, shape in zip(bounds[:-1], bounds[1:], shapes))

    return ops.node(np.concatenate(vals), tuple(parts), vjp)


def affine(w, x, b):
    """``w @ x + b`` as one node whose weight adjoint is an ``ops.Outer``."""
    wv, xv = ops.value(w), ops.value(x)
    return ops.node(wv @ xv + ops.value(b), (w, x, b),
                    lambda g: (ops.Outer(g, xv), wv.T @ g, g))


def lstm(w, b, x, hidden, cell):
    """The LSTM step of ``ops.lstm_cell``, one node per elementary op."""
    h = len(ops.value(hidden))
    lin = w @ concat([x, hidden]) + b
    gate_in = sigmoid(lin[0:h])
    gate_forget = sigmoid(lin[h:2 * h])
    gate_out = sigmoid(lin[2 * h:3 * h])
    candidate = tanh(lin[3 * h:4 * h])
    new_cell = gate_forget * cell + gate_in * candidate
    return new_cell, gate_out * tanh(new_cell)


# -- filter stages -------------------------------------------------------------

def _scaled(m, excess):
    """``m`` scaled on both sides by ``diag(1 + excess)``, entrywise."""
    scale = 1.0 + excess
    return m * (scale[:, None] * scale)


def predict_state(prior, model, df, ef):
    mean = model.F @ prior.mean + df
    cov_raw = model.F @ prior.cov @ model.F.T + model.q
    return TrackState(mean=mean, cov=_scaled(symmetrize(cov_raw), ef))


_fused_predict_extension = filtering.predict_extension  # for the predicted dof alone


def predict_extension(prior, model, pphi):
    lam = prior.dof - 2 * D - 2
    v_pred = _fused_predict_extension(
        ExtensionState(dof=prior.dof, param=ops.value(prior.param)), model,
        ops.value(pphi)).dof
    raw = ((v_pred - 2 * D - 2) / lam) * (model.a @ prior.param @ model.a.T
                                          + pphi / model.delta)
    return ExtensionState(dof=v_pred, param=symmetrize(raw))


def innovation(pred, ext_pred, model, dh, eh, fs):
    """The innovation statistics as tape values (no ``sources``)."""
    z_pred = model.H @ pred.mean + dh
    pxz = pred.cov @ model.H.T
    hph = model.H @ pxz
    scatter = (model.b @ filtering.extension_mean(ext_pred) @ model.b.T) / float(fs.count)
    scatter = 0.5 * (scatter + scatter.T)
    r = _scaled(scatter, eh)
    return filtering.InnovationStats(z_pred=z_pred, residual=fs.mean - z_pred, pxz=pxz,
                                     pzz=hph + r, r=r, h=model.H)


def update_state(pred, stats):
    gain = solve(stats.pzz, stats.pxz.T).T
    mean = pred.mean + gain @ stats.residual
    a = np.eye(4) - gain @ stats.h
    joseph = a @ pred.cov @ a.T + gain @ stats.r @ gain.T
    return TrackState(mean=mean, cov=symmetrize(joseph))


def update_extension(pred, fs, model):
    raw = pred.param + model.b_inv @ fs.scatter @ model.b_inv.T
    return ExtensionState(dof=pred.dof + fs.count, param=symmetrize(raw))


# -- network blocks --------------------------------------------------------------

def _pred_pieces(state, ext):
    return [state.mean, log(take_diag(state.cov)),
            logchol2x2(filtering.extension_mean(ext)),
            np.array([np.log(float(ext.dof))])]


def raw_features(state, ext, fs):
    pieces = _pred_pieces(state, ext)
    scatter_cov = fs.scatter / max(fs.count - 1, 1) + FRAME_COV_EPS * np.eye(2)
    pieces += [fs.mean - state.mean[0:2], ops.logchol2x2(scatter_cov),
               np.array([np.log(float(fs.count))])]
    return concat(pieces)


def encode_inputs(state, ext, fs, params):
    return (raw_features(state, ext, fs) - params.feat_mean) / params.feat_std


def mub_step(params, features, mem):
    if params.mask_memory:
        return network.MemoryState(cell=mem.cell, hidden=mem.hidden,
                                   pc=np.zeros(params.memory_dim))
    w = params.arrays
    cell, hidden = lstm(w["lstm_w"], w["lstm_b"], features, mem.hidden, mem.cell)
    pc = softplus(affine(w["memcov_w"], hidden, w["memcov_b"]))
    return network.MemoryState(cell=cell, hidden=hidden, pc=pc)


def jeb_heads(params, mem):
    if params.mask_evolution:
        return filtering.ZERO_EVOLUTION
    w = params.arrays
    inp = concat([mem.hidden, mem.pc])
    df = affine(w["evo_shift_w"], inp, w["evo_shift_b"])
    ef = softplus(affine(w["evo_cov_w"], inp, w["evo_cov_b"])) / ops.SOFTPLUS_ZERO - 1.0
    ext_vec = affine(w["evo_ext_w"], inp, w["evo_ext_b"])
    ell = (diag_embed(softplus(ext_vec[0:2]) - ops.SOFTPLUS_ZERO)
           + ext_vec[2] * np.array([[0.0, 0.0], [1.0, 0.0]]))
    return df, ef, ell @ ell.T


def jub_heads(params, pred, ext_pred):
    if params.mask_update:
        return filtering.ZERO_MEASUREMENT
    w = params.arrays
    n = network.PRED_FEATURE_DIM
    inp = (concat(_pred_pieces(pred, ext_pred)) - params.feat_mean[:n]) / params.feat_std[:n]
    dh = affine(w["upd_shift_w"], inp, w["upd_shift_b"])
    eh = softplus(affine(w["upd_scale_w"], inp, w["upd_scale_b"])) / ops.SOFTPLUS_ZERO - 1.0
    return dh, eh


def sequence_loss(states, exts, truth_states, truth_extents, weights=None, gamma=0.0):
    total = None
    for state, ext, truth_state, truth_extent in zip(states, exts, truth_states, truth_extents):
        term = (sumsq(state.mean - truth_state)
                + sumsq(filtering.extension_mean(ext) - truth_extent))
        total = term if total is None else total + term
    total = total / (2.0 * len(states))
    if weights is not None and gamma != 0.0:
        reg = None
        for w in weights.values():
            reg = sumsq(w) if reg is None else reg + sumsq(w)
        total = total + gamma * reg
    return total


# (module, name, composed twin) of every fused stage
STAGES = [
    ("filtering", "predict_state", predict_state),
    ("filtering", "predict_extension", predict_extension),
    ("filtering", "innovation", innovation),
    ("filtering", "update_state", update_state),
    ("filtering", "update_extension", update_extension),
    ("network", "encode_inputs", encode_inputs),
    ("network", "mub_step", mub_step),
    ("network", "jeb_heads", jeb_heads),
    ("network", "jub_heads", jub_heads),
    ("network", "sequence_loss", sequence_loss),
    ("training", "sequence_loss", sequence_loss),  # imported there by name
]


def compose_everything(monkeypatch):
    """Replace every fused stage by its composed twin for this test."""
    install(monkeypatch)
    modules = {"filtering": filtering, "network": network, "training": training}
    for module, name, twin in STAGES:
        monkeypatch.setattr(modules[module], name, twin)


def _outputs(result):
    """The tape values a stage returns, flattened."""
    if isinstance(result, TrackState):
        return [result.mean, result.cov]
    if isinstance(result, ExtensionState):
        return [result.param]
    if isinstance(result, network.MemoryState):
        return [result.cell, result.hidden, result.pc]
    if isinstance(result, tuple):
        return [v for part in result for v in _outputs(part)]
    return [result]


def _run(stage, make_args):
    """Values of a stage's outputs and adjoints of its leaves for a random
    linear-quadratic functional of every output."""
    tape = ops.Tape()
    args, leaves = make_args(tape)
    outs = _outputs(stage(*args))
    rng = np.random.default_rng(0)
    loss = None
    for out in outs:
        term = sumsq(out * rng.standard_normal(np.shape(ops.value(out))))
        loss = term if loss is None else loss + term
    adjoints = tape.backward(loss)
    return [ops.value(out) for out in outs], [tape.grad(adjoints, leaf) for leaf in leaves]


def assert_twins(fused, composed, make_args):
    """``fused`` matches ``composed`` bit for bit in value and at 1e-12 in
    every leaf's adjoint; ``make_args(tape)`` returns (args, leaves)."""
    values, adjoints = _run(fused, make_args)
    want_values, want_adjoints = _run(composed, make_args)
    assert len(values) == len(want_values)
    for got, want in zip(values, want_values):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(adjoints, want_adjoints):
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
