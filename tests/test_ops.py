"""Unit checks of the differentiation tape: each op's adjoint against
central finite differences, plus dispatch semantics (plain arrays in, plain
arrays out).

The generic ops checked here are the composed twins' algebra
(``tests/composed_ops.py``), which the ``algebra`` fixture installs on
``ops.Var``; ``TestNoAlgebra`` checks that the package records without it."""

import sys
from dataclasses import replace

import numpy as np
import pytest

import composed_ops as composed
from memtrack import filtering, network, ops, training
from memtrack.errors import NonFinite, NotPositiveDefinite, TapeEmpty
from memtrack.models import (
    ExtensionState,
    ScenarioConfig,
    TrackState,
    frame_features,
    frame_stats,
    nominal_cv_model,
)
from memtrack.simulate import generate_case


def fd_grad(fn, x, eps=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (fn(xp) - fn(xm)) / (2 * eps)
        it.iternext()
    return g


def tape_grad(build, x):
    tape = ops.Tape()
    leaf = tape.leaf(x)
    out = build(leaf)
    grads = tape.backward(out)
    return tape.grad(grads, leaf)


def check(build, fn, x, tol=1e-6):
    np.testing.assert_allclose(tape_grad(build, x), fd_grad(fn, x), atol=tol, rtol=1e-4)


class TestNoAlgebra:
    """Without the ``algebra`` fixture a Var has no operators: a plain
    expression on a tape value raises instead of silently dropping out of
    the tape, and training records every node through ``ops.node``."""

    @pytest.mark.parametrize("expr", [
        lambda v: v + 1.0, lambda v: 1.0 + v, lambda v: np.ones(2) + v, lambda v: v * v,
        lambda v: np.eye(2) @ v, lambda v: v @ np.eye(2), lambda v: -v, lambda v: v[0],
    ], ids=["var+float", "float+var", "array+var", "var*var", "matrix@var", "var@matrix",
            "-var", "var[0]"])
    def test_operators_raise(self, expr):
        assert not any(hasattr(ops.Var, name) for name in composed.OPERATORS)
        with pytest.raises(TypeError):
            expr(ops.Tape().leaf(np.ones(2)))

    def test_training_gradients_and_gradcheck_run(self):
        assert not any(hasattr(ops.Var, name) for name in composed.OPERATORS)
        cfg = ScenarioConfig(steps=4, cases=1, seed=46)
        case, model = generate_case(cfg, cfg.seed, 0), nominal_cv_model(sigma_w=0.4)
        params = network.init_params(2, np.random.default_rng(46))
        loss, grads = training._sequence_gradients(params, case, model,
                                                   training.TrainConfig(l2=0.37))
        assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())
        assert training.grad_check(params, case, model, eps=1e-5, gamma=0.37) < 1e-4

    def test_every_node_is_recorded_by_node(self, monkeypatch):
        """Only ``ops.node`` records, and a taped sequence calls it from its
        filter stages, network blocks, head stacks and loss alone: the LSTM
        step and the 2x2 solve record nothing of their own."""
        recorders, stages, record, node = [], [], ops.Tape.record, ops.node

        def traced_record(tape, *args):
            recorders.append(sys._getframe(1).f_code)
            return record(tape, *args)

        def traced_node(*args):
            stages.append(sys._getframe(1).f_code)
            return node(*args)

        monkeypatch.setattr(ops.Tape, "record", traced_record)
        monkeypatch.setattr(ops, "node", traced_node)
        cfg = ScenarioConfig(steps=4, cases=1, seed=46)
        loss, _ = training._sequence_gradients(network.init_params(2, np.random.default_rng(46)),
                                               generate_case(cfg, cfg.seed, 0),
                                               nominal_cv_model(sigma_w=0.4),
                                               training.TrainConfig(l2=0.37))
        assert np.isfinite(loss) and len(recorders) > 3
        assert set(recorders) == {node.__code__}
        assert set(stages) == {fn.__code__ for fn in (
            filtering.predict_state, filtering.predict_extension, filtering.update_state,
            filtering.update_extension, network.encode_inputs, network.mub_step,
            network.jeb_heads, network.jub_heads, network.sequence_loss, network._stack)}


@pytest.mark.usefixtures("algebra")
class TestElementwise:
    def test_add_mul_chain(self):
        x = np.array([0.3, -1.2, 2.0])
        check(lambda v: composed.sumsq(v * v + 2.0 * v),
              lambda v: float(np.sum((v * v + 2.0 * v) ** 2)), x)

    def test_div(self):
        x = np.array([1.5, -0.7])
        check(lambda v: composed.sumsq(v / 4.0), lambda v: float(np.sum((v / 4.0) ** 2)), x)

    def test_nonlinearities(self):
        x = np.array([-2.0, 0.0, 0.5, 3.0])
        for op, ref in [
            (composed.sigmoid, lambda v: 1 / (1 + np.exp(-v))),
            (composed.tanh, np.tanh),
            (composed.softplus, lambda v: np.logaddexp(0, v)),
        ]:
            check(lambda v, op=op: composed.sumsq(op(v)),
                  lambda v, ref=ref: float(np.sum(ref(v) ** 2)), x)

    def test_log(self):
        x = np.array([0.5, 1.7, 3.0])
        check(lambda v: composed.sumsq(composed.log(v)), lambda v: float(np.sum(np.log(v) ** 2)), x)

    def test_softplus_zero_constant_cancels_exactly(self):
        tape = ops.Tape()
        leaf = tape.leaf(np.zeros(3))
        out = composed.softplus(leaf) - ops.SOFTPLUS_ZERO
        assert np.all(out.value == 0.0)


@pytest.mark.usefixtures("algebra")
class TestLinearAlgebra:
    def test_matmul_both_sides(self):
        a = np.array([[1.0, 2.0], [0.5, -1.0]])
        check(lambda v: composed.sumsq(v @ np.array([1.0, -2.0])),
              lambda v: float(np.sum((v @ np.array([1.0, -2.0])) ** 2)), a)
        x = np.array([0.3, 0.7])
        check(lambda v: composed.sumsq(a @ v), lambda v: float(np.sum((a @ v) ** 2)), x)

    def test_solve_wrt_matrix_and_rhs(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([1.0, 2.0])
        check(lambda v: composed.sumsq(composed.solve(v, b)),
              lambda v: float(np.sum(np.linalg.solve(v, b) ** 2)), a, tol=1e-5)
        check(lambda v: composed.sumsq(composed.solve(a, v)),
              lambda v: float(np.sum(np.linalg.solve(a, v) ** 2)), b)

    def test_solve_matrix_rhs(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([[1.0, 0.0], [2.0, 1.0]])
        check(lambda v: composed.sumsq(composed.solve(a, v)),
              lambda v: float(np.sum(np.linalg.solve(a, v) ** 2)), b)

    def test_transpose_diag(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        check(lambda v: composed.sumsq(composed.transpose(v) @ np.array([1.0, 1.0])),
              lambda v: float(np.sum((v.T @ np.array([1.0, 1.0])) ** 2)), a)
        check(lambda v: composed.sumsq(composed.take_diag(v)),
              lambda v: float(np.sum(np.diag(v) ** 2)), a)
        d = np.array([1.0, -2.0])
        check(lambda v: composed.sumsq(composed.diag_embed(v) @ np.array([1.0, 3.0])),
              lambda v: float(np.sum((np.diag(v) @ np.array([1.0, 3.0])) ** 2)), d)


@pytest.mark.usefixtures("algebra")
class TestStructural:
    def test_concat_getitem(self):
        x = np.array([1.0, 2.0, 3.0])
        def build(v):
            joined = composed.concat([v[0:2], np.array([5.0]), v[2] * np.ones(1)])
            return composed.sumsq(joined)
        def ref(v):
            joined = np.concatenate([v[0:2], [5.0], [v[2]]])
            return float(np.sum(joined ** 2))
        check(build, ref, x)


class TestLogChol:
    def test_identity_encodes_to_zero(self):
        np.testing.assert_array_equal(ops.logchol2x2(np.eye(2)), np.zeros(3))

    def test_diagonal_case(self):
        out = ops.logchol2x2(np.diag([np.e ** 2, np.e ** 4]))
        np.testing.assert_allclose(out, [1.0, 2.0, 0.0], atol=1e-12)

    def test_gradient_symmetric_perturbation(self):
        # upstream producers symmetrize adjoints, so compare against a
        # symmetric-perturbation finite difference
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        tape = ops.Tape()
        leaf = tape.leaf(a)
        out = composed.sumsq(composed.logchol2x2(composed.symmetrize(leaf)))
        grads = tape.backward(out)
        g = tape.grad(grads, leaf)
        def ref(v):
            s = 0.5 * (v + v.T)
            ell = np.linalg.cholesky(s)
            vec = np.array([np.log(ell[0, 0]), np.log(ell[1, 1]), ell[1, 0]])
            return float(np.sum(vec ** 2))
        np.testing.assert_allclose(g, fd_grad(ref, a), atol=1e-6)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            ops.logchol2x2(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.usefixtures("algebra")
class TestDispatch:
    def test_plain_arrays_stay_plain(self):
        a = np.eye(2)
        assert isinstance(ops.solve(a, a)[0], np.ndarray)
        assert isinstance(ops.logchol2x2(np.eye(2)), np.ndarray)

    def test_mixed_constant_and_var(self):
        tape = ops.Tape()
        v = tape.leaf(np.array([1.0, 2.0]))
        out = np.array([[1.0, 0.0], [0.0, 2.0]]) @ v + np.array([1.0, 1.0])
        assert isinstance(out, ops.Var)
        np.testing.assert_array_equal(out.value, [2.0, 5.0])

    def test_backward_on_empty_tape(self):
        tape = ops.Tape()
        with pytest.raises(TapeEmpty):
            tape.backward(ops.Var(np.float64(1.0), tape, 0))

    def test_unused_parameter_grad_is_zero(self):
        tape = ops.Tape()
        used = tape.leaf(np.array([1.0]))
        unused = tape.leaf(np.array([5.0]))
        out = composed.sumsq(used * 2.0)
        grads = tape.backward(out)
        np.testing.assert_array_equal(tape.grad(grads, unused), np.zeros(1))
        np.testing.assert_array_equal(tape.grad(grads, used), np.array([8.0]))

    def test_gradient_accumulates_over_reuse(self):
        tape = ops.Tape()
        v = tape.leaf(np.array([3.0]))
        out = composed.sumsq(v + v)
        grads = tape.backward(out)
        np.testing.assert_allclose(tape.grad(grads, v), [24.0])


def _spectrum(dim, rng, low):
    """Symmetric matrix with smallest eigenvalue ``low``, others in (low, low + 10)."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = np.concatenate([[low], low + rng.uniform(1e-3, 10.0, dim - 1)])
    s = (q * w) @ q.T
    return 0.5 * (s + s.T)


def _masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoidBits:
    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 800.0, -800.0])
        np.testing.assert_array_equal(ops.sigmoid(x), _masked_sigmoid(x))

    def test_random_values(self):
        rng = np.random.default_rng(25)
        for scale in (1e-3, 1.0, 30.0, 1e3):
            x = scale * rng.standard_normal(4096)
            np.testing.assert_array_equal(ops.sigmoid(x), _masked_sigmoid(x))


class TestSolve2x2:
    def test_matches_lapack(self):
        rng = np.random.default_rng(26)
        for _ in range(500):
            a = rng.standard_normal((2, 2)) + rng.uniform(0.0, 3.0) * np.eye(2)
            for b in (rng.standard_normal(2), rng.standard_normal((2, 4))):
                want = np.linalg.solve(a, b)
                np.testing.assert_allclose(ops.solve(a, b)[0], want, rtol=0,
                                           atol=1e-12 * max(1.0, np.max(np.abs(want))))

    @pytest.mark.parametrize("a", [np.zeros((2, 2)), np.ones((2, 2)),
                                   np.array([[4.0, -2.0], [-2.0, 1.0]])])
    def test_singular_raises(self, a):
        with pytest.raises(np.linalg.LinAlgError):
            ops.solve(a, np.ones(2))

    def test_gradient_through_closed_form(self):
        a = np.array([[2.0, 0.3], [0.4, 1.0]])
        b = np.array([[1.0, 0.0, 2.0], [2.0, 1.0, -1.0]])
        check(lambda v: composed.sumsq(composed.solve(v, b)),
              lambda v: float(np.sum(np.linalg.solve(v, b) ** 2)), a, tol=1e-5)

    @pytest.mark.parametrize("k", [3, None], ids=["2x2", "2x2-vector"])
    def test_adjoint_matches_fd(self, k):
        """The adjoint ``solve`` returns, for the matrix and the right-hand
        side: the summed squares of x against central differences."""
        rng = np.random.default_rng(33)
        a = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        b = rng.standard_normal(2 if k is None else (2, k))
        x, adjoint = ops.solve(a, b)
        g_a, g_b = adjoint(2.0 * x)
        loss = lambda a, b: float(np.sum(np.linalg.solve(a, b) ** 2))  # noqa: E731
        np.testing.assert_allclose(g_a, fd_grad(lambda v: loss(v, b), a), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(g_b, fd_grad(lambda v: loss(a, v), b), rtol=1e-5, atol=1e-7)

    def test_adjoint_reuses_the_adjugate_bit_for_bit(self):
        """The 2x2 adjoint's solve with the transpose equals a fresh solve."""
        rng = np.random.default_rng(34)
        for _ in range(200):
            a, g = rng.standard_normal((2, 2)), rng.standard_normal((2, 4))
            _, adjoint = ops.solve(a, rng.standard_normal((2, 4)))
            np.testing.assert_array_equal(adjoint(g)[1], ops.solve(a.T, g)[0])


def _tanh_layer(w, x, b, outer):
    """tanh(w @ x + b) as one node; ``outer`` makes the weight's adjoint."""
    wv, xv = ops.value(w), ops.value(x)
    out = np.tanh(wv @ xv + ops.value(b))

    def vjp(g):
        g_lin = g * (1.0 - out * out)
        return outer(g_lin, xv), wv.T @ g_lin, g_lin

    return ops.node(out, (w, x, b), vjp)


def _lstm_node(w, b, x, hidden, cell):
    """``ops.lstm_cell`` recorded with its adjoint as one node, as
    ``network.mub_step`` records it with the memory-covariance head."""
    new_cell, new_hidden, adjoint = ops.lstm_cell(*map(ops.value, (w, b, x, hidden, cell)))
    return ops.node((new_cell, new_hidden), (w, b, x, hidden, cell), lambda g: adjoint(*g))


@pytest.mark.usefixtures("algebra")
class TestFusedOps:
    H, X = 5, 3

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((4 * self.H, self.X + self.H)), rng.standard_normal(4 * self.H),
                rng.standard_normal(self.X), rng.standard_normal(self.H),
                rng.standard_normal(self.H))

    def _two_steps(self, step, inputs, tape=None):
        """Two chained steps, so gradients reach the old cell and hidden."""
        if tape is not None:
            inputs = [tape.leaf(v) for v in inputs]
        w, b, x, hidden, cell = inputs
        cell, hidden = step(w, b, x, hidden, cell)
        cell, hidden = step(w, b, x * 0.5, hidden, cell)
        return inputs, cell, hidden

    def test_lstm_forward_bits(self):
        for seed in range(5):
            inputs = self._inputs(seed)
            _, c1, h1 = self._two_steps(_lstm_node, inputs)
            _, c2, h2 = self._two_steps(composed.lstm, inputs)
            np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(h1, h2)
            _, c3, h3 = self._two_steps(_lstm_node, inputs, ops.Tape())
            np.testing.assert_array_equal(c3.value, c1)
            np.testing.assert_array_equal(h3.value, h1)

    def test_lstm_gradients_match_composed(self):
        for seed in range(5):
            grads = []
            for step in (_lstm_node, composed.lstm):
                tape = ops.Tape()
                leaves, cell, hidden = self._two_steps(step, self._inputs(seed), tape)
                out = composed.sumsq(hidden) + composed.sumsq(cell * 0.3)
                adj = tape.backward(out)
                grads.append([tape.grad(adj, leaf) for leaf in leaves])
            for fused, unfused in zip(*grads):
                np.testing.assert_allclose(fused, unfused, rtol=1e-12, atol=1e-12)

    def test_lstm_gradient_matches_fd(self):
        w, b, x, hidden, cell = self._inputs(9)

        def loss(v):
            c, h, _ = ops.lstm_cell(w, b, v[:self.X], v[self.X:self.X + self.H],
                                    v[self.X + self.H:])
            return float(np.sum(h * h) + np.sum(c))

        def build(v):
            c, h = _lstm_node(w, b, v[0:self.X], v[self.X:self.X + self.H], v[self.X + self.H:])
            return composed.sumsq(h) + c @ np.ones(self.H)

        check(build, loss, np.concatenate([x, hidden, cell]))

    def test_affine_matches_composed(self):
        """A node whose weight adjoint is an Outer gives the gradient of
        ``w @ x + b`` composed of generic ops."""
        rng = np.random.default_rng(27)
        w, x, b = rng.standard_normal((3, 6)), rng.standard_normal(6), rng.standard_normal(3)
        np.testing.assert_array_equal(composed.affine(w, x, b), w @ x + b)
        grads = []
        for fn in (composed.affine, lambda w, x, b: w @ x + b):
            tape = ops.Tape()
            leaves = [tape.leaf(v) for v in (w, x, b)]
            out = fn(*leaves)
            np.testing.assert_array_equal(out.value, w @ x + b)
            adj = tape.backward(composed.sumsq(composed.tanh(out)))
            grads.append([tape.grad(adj, leaf) for leaf in leaves])
        for fused, unfused in zip(*grads):
            np.testing.assert_allclose(fused, unfused, rtol=1e-12, atol=1e-12)

    def test_weight_gradient_summed_over_time(self):
        """One weight shared by 40 steps: the tape's one matrix product over
        the steps' Outer adjoints equals the sum of per-step np.outer."""
        rng = np.random.default_rng(28)
        w0, b0 = rng.standard_normal((5, 5)), rng.standard_normal(5)
        grads = []
        for outer in (ops.Outer, np.outer):
            tape = ops.Tape()
            w, b = tape.leaf(w0), tape.leaf(b0)
            state = np.ones(5)
            for _ in range(40):
                state = _tanh_layer(w, state, b, outer)
            adj = tape.backward(composed.sumsq(state))
            grads.append([tape.grad(adj, leaf) for leaf in (w, b)])
        for summed, stepwise in zip(*grads):
            np.testing.assert_allclose(summed, stepwise, rtol=1e-12, atol=1e-12)

    def test_node_with_several_outputs(self):
        """Each output of a node is its own Var, and an output nothing uses
        gets a zero adjoint."""
        tape = ops.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        xv = x.value
        a, b, c = ops.node((2.0 * xv, xv * xv, xv.sum()), (x,),
                           lambda g: (2.0 * g[0] + 2.0 * xv * g[1] + g[2],))
        assert (a.idx, a.slot, c.slot) == (b.idx, 0, 2)
        adj = tape.backward(composed.sumsq(b))
        np.testing.assert_allclose(tape.grad(adj, x), 4.0 * xv ** 3)
        np.testing.assert_array_equal(tape.grad(adj, a), np.zeros(2))

    def test_plain_node_records_nothing(self):
        out = (np.ones(2), np.zeros(3))
        assert ops.node(out, (np.ones(2), 1.0), lambda g: (g, g)) is out

    def test_plain_inputs_stay_plain(self):
        w, b, x, hidden, cell = self._inputs(3)
        *values, adjoint = ops.lstm_cell(w, b, x, hidden, cell)
        assert all(isinstance(v, np.ndarray) for v in values) and callable(adjoint)
        assert isinstance(composed.affine(w, np.ones(self.X + self.H), b), np.ndarray)


def _belief(rng, tape):
    """A random (TrackState, ExtensionState) of tape leaves, and the leaves."""
    m, n = rng.standard_normal((4, 4)), rng.standard_normal((2, 2))
    leaves = [tape.leaf(v) for v in (rng.standard_normal(4), m @ m.T + 0.5 * np.eye(4),
                                     n @ n.T + np.eye(2))]
    return (TrackState(mean=leaves[0], cov=leaves[1]),
            ExtensionState(dof=12.5, param=leaves[2]), leaves)


def _params(rng, tape, **masks):
    """Perturbed width-5 network parameters whose arrays are tape leaves."""
    params = network.init_params(5, rng, **masks)
    for name, arr in params.arrays.items():
        params.arrays[name] = arr + 0.3 * rng.standard_normal(arr.shape)
    params.feat_mean = rng.standard_normal(network.FEATURE_DIM)
    params.feat_std = rng.uniform(0.5, 2.0, network.FEATURE_DIM)
    leaves = params.leaves(tape)
    return replace(params, arrays=leaves), list(leaves.values())


def _memory(rng, tape):
    leaves = [tape.leaf(v) for v in (rng.standard_normal(5), rng.standard_normal(5),
                                     rng.uniform(0.0, 2.0, 5))]
    return network.MemoryState(*leaves), leaves


def _frame(rng):
    """A frame's statistics and its row of the frame features."""
    fs = frame_stats(rng.standard_normal((7, 2)) * [3.0, 1.0] + [1.0, -2.0])
    return fs, frame_features(fs)


def _features_args(tape):
    rng = np.random.default_rng(40)
    state, ext, leaves = _belief(rng, tape)
    params, _ = _params(rng, tape)
    return (state, ext, *_frame(rng), network.block_weights(params)), leaves


def _raw_features_args(tape):
    args, leaves = _features_args(tape)
    return args[:4], leaves


def _mub_args(tape):
    rng = np.random.default_rng(41)
    params, leaves = _params(rng, tape)
    features = tape.leaf(rng.standard_normal(network.FEATURE_DIM))
    mem, mem_leaves = _memory(rng, tape)
    return (network.block_weights(params), features, mem), leaves + [features] + mem_leaves


def _jeb_args(tape):
    rng = np.random.default_rng(42)
    params, leaves = _params(rng, tape)
    mem, mem_leaves = _memory(rng, tape)
    return (network.block_weights(params), mem), leaves + mem_leaves


def _jub_args(tape):
    rng = np.random.default_rng(43)
    params, leaves = _params(rng, tape)
    state, ext, belief_leaves = _belief(rng, tape)
    return (network.block_weights(params), state, ext), leaves + belief_leaves


def _loss_args(tape, steps, gamma=0.0):
    """``steps`` random beliefs of tape leaves, their truth, and the
    network's weights as leaves, regularized for gamma != 0."""
    rng = np.random.default_rng(44 + steps)
    states, exts, leaves = [], [], []
    for _ in range(steps):
        state, ext, belief_leaves = _belief(rng, tape)
        states.append(state)
        exts.append(ext)
        leaves += belief_leaves
    params, weights = _params(rng, tape)
    truth_extents = np.array([np.diag(rng.uniform(1.0, 4.0, 2)) for _ in range(steps)])
    args = (states, exts, rng.standard_normal((steps, 4)), truth_extents, params.arrays, gamma)
    return args, leaves + weights


# sequence_loss is one node: over one step and over three steps' terms, and
# over seventeen, with the 1/2K scale, without and with the L2 term.
NETWORK_BLOCKS = {
    "raw_features": (network.raw_features, composed.raw_features, _raw_features_args),
    "encode_inputs": (network.encode_inputs, composed.encode_inputs, _features_args),
    "mub_step": (network.mub_step, composed.mub_step, _mub_args),
    "jeb_heads": (network.jeb_heads, composed.jeb_heads, _jeb_args),
    "jub_heads": (network.jub_heads, composed.jub_heads, _jub_args),
    "loss_term": (network.sequence_loss, composed.sequence_loss,
                  lambda tape: _loss_args(tape, 3)),
    "first_loss_term": (network.sequence_loss, composed.sequence_loss,
                        lambda tape: _loss_args(tape, 1)),
    "loss_tail": (network.sequence_loss, composed.sequence_loss,
                  lambda tape: _loss_args(tape, 17)),
    "regularized_loss_tail": (network.sequence_loss, composed.sequence_loss,
                              lambda tape: _loss_args(tape, 17, 0.37)),
}


@pytest.mark.usefixtures("algebra")
class TestFusedNetworkBlocks:
    """Each fused network block, the LSTM step of ``mub_step`` and the whole
    loss included, against the same block composed of generic ops: values
    bit for bit, every input's adjoint at 1e-12."""

    @pytest.mark.parametrize("block", NETWORK_BLOCKS)
    def test_matches_composed(self, block):
        composed.assert_twins(*NETWORK_BLOCKS[block])

    @pytest.mark.parametrize("block", NETWORK_BLOCKS)
    def test_one_node(self, block):
        fused, _, make_args = NETWORK_BLOCKS[block]
        tape = ops.Tape()
        args, _ = make_args(tape)
        before = len(tape.entries)
        fused(*args)
        assert len(tape.entries) - before == 1


class TestStacks:
    """solve, its adjoint, logchol2x2 and logchol2x2_adjoint take one case
    (leading shape ``()``) or a stack (leading shape ``(1,)`` or ``(N,)``):
    each row of a stack gives exactly what that row gives alone, and one
    case gives what the closed form gives."""

    LEADS = [(), (1,), (6,)]

    @staticmethod
    def _rows(lead):
        return list(np.ndindex(lead)) if lead else [()]

    def test_solve_rows(self):
        rng = np.random.default_rng(29)
        for lead in self.LEADS:
            a = rng.standard_normal(lead + (2, 2)) + 2.0 * np.eye(2)
            b, g = rng.standard_normal(lead + (2, 4)), rng.standard_normal(lead + (2, 4))
            x, adjoint = ops.solve(a, b)
            g_a, g_b = adjoint(g)
            assert x.shape == g_b.shape == b.shape and g_a.shape == a.shape
            for i in self._rows(lead):
                want = np.linalg.solve(a[i], b[i])
                np.testing.assert_allclose(x[i], want, rtol=1e-12, atol=1e-12)
                row_x, row_adjoint = ops.solve(a[i].copy(), b[i].copy())
                row_g_a, row_g_b = row_adjoint(g[i].copy())
                np.testing.assert_array_equal(x[i], row_x)
                np.testing.assert_array_equal(g_a[i], row_g_a)
                np.testing.assert_array_equal(g_b[i], row_g_b)

    @pytest.mark.parametrize("row, error", [
        (np.ones((2, 2)), np.linalg.LinAlgError),
        (np.full((2, 2), np.nan), NonFinite),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), NonFinite),
        (np.array([[1e300, 1e300], [1e-300, 1e300]]), NonFinite),  # det overflows
    ], ids=["zero", "nan", "inf", "overflow"])
    def test_degenerate_row_raises(self, row, error):
        """A determinant of exactly 0 in any row raises LinAlgError, and a
        NaN, infinite or overflowing one NonFinite, for the forward solve and
        for the adjoint's solve with the transpose, which shares the
        determinant; nothing is rescued, and numpy warns of nothing."""
        for lead in self.LEADS:
            a = np.broadcast_to(np.eye(2), lead + (2, 2)).copy()
            a[tuple(n - 1 for n in lead)] = row
            for matrix in (a, a.mT):
                with pytest.raises(error):
                    ops.solve(matrix, np.ones(lead + (2, 3)))

    def test_logchol_rows(self):
        rng = np.random.default_rng(30)
        for lead in self.LEADS:
            size = int(np.prod(lead))
            stack = np.array([_spectrum(2, rng, low) for low in rng.uniform(0.1, 4.0, size)])
            stack = stack.reshape(lead + (2, 2))
            g = rng.standard_normal(lead + (3,))
            got, adjoint = ops.logchol2x2(stack), ops.logchol2x2_adjoint(stack, g)
            assert got.shape == lead + (3,) and adjoint.shape == lead + (2, 2)
            for i in self._rows(lead):
                ell = np.linalg.cholesky(stack[i])
                want = [np.log(ell[0, 0]), np.log(ell[1, 1]), ell[1, 0]]
                np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-14)
                np.testing.assert_array_equal(got[i], ops.logchol2x2(stack[i].copy()))
                np.testing.assert_array_equal(
                    adjoint[i], ops.logchol2x2_adjoint(stack[i].copy(), g[i].copy()))
            for bad in (-np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])):  # leading entry; Schur
                broken = stack.copy()
                broken[tuple(n - 1 for n in lead)] = bad
                with pytest.raises(NotPositiveDefinite):
                    ops.logchol2x2(broken)

    @pytest.mark.parametrize("row, message", [
        (np.array([[0.0, 1.0], [1.0, 2.0]]), "leading entry"),
        (np.array([[0.0, 0.0], [0.0, 1.0]]), "leading entry"),
        (np.array([[-5e-324, 1.0], [1.0, 1.0]]), "leading entry"),
        (np.array([[-4.0, 3.0], [3.0, -1.0]]), "leading entry"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "Schur complement"),
        (np.array([[1.0, 1.0], [1.0, 1.0]]), "Schur complement"),
    ], ids=["zero", "zero-diagonal", "negative-subnormal", "negative", "indefinite",
            "singular"])
    def test_logchol_domain_row_raises(self, row, message):
        """A row whose leading entry is not positive raises the
        leading-entry error, one whose Schur complement is not positive the
        Schur error, for one case and in any row of a stack, with no numpy
        warning (pytest makes a RuntimeWarning an error).  A stack with both
        kinds of row raises the leading-entry error."""
        for lead in self.LEADS:
            stack = np.broadcast_to(np.eye(2), lead + (2, 2)).copy()
            stack[tuple(n - 1 for n in lead)] = row
            with pytest.raises(NotPositiveDefinite, match=message):
                ops.logchol2x2(stack)
        with pytest.raises(NotPositiveDefinite, match=message):
            ops.logchol2x2(np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], row]))

    def test_logchol_nan_row_passes_through(self):
        """A NaN row gives NaN features and raises nothing: the filter's
        one finiteness check reports it (``run_filter``'s NonFinite)."""
        rng = np.random.default_rng(31)
        for lead in self.LEADS:
            size = int(np.prod(lead))
            stack = np.array([_spectrum(2, rng, low) for low in rng.uniform(0.1, 4.0, size)])
            stack = stack.reshape(lead + (2, 2))
            want = ops.logchol2x2(stack)
            last = tuple(n - 1 for n in lead)
            for nan_entry in ((0, 0), (0, 1), (1, 1)):
                broken = stack.copy()
                broken[last + nan_entry] = np.nan
                got = ops.logchol2x2(broken)
                assert np.isnan(got[last]).any()
                rest = np.ones(lead, dtype=bool)
                rest[last] = False
                np.testing.assert_array_equal(got[rest], want[rest])
