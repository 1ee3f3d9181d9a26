"""Unit checks of the differentiation tape: each op's adjoint against
central finite differences, plus dispatch semantics (plain arrays in, plain
arrays out).

The generic ops checked here are the composed twins' algebra
(``tests/composed_ops.py``), which the ``algebra`` fixture installs on
``ops.Var``; ``TestNoAlgebra`` checks that the package records without it."""

from dataclasses import replace

import numpy as np
import pytest

import composed_ops as composed
from memtrack import network, ops, training
from memtrack.errors import NonFinite, NotPositiveDefinite, TapeEmpty
from memtrack.models import (
    ExtensionState,
    ScenarioConfig,
    TrackState,
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
    the tape, and training records every node through ``ops.node``,
    ``lstm_cell`` or ``sym_project``."""

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


class TestSymProject:
    def test_healthy_matches_fd(self):
        a = np.array([[3.0, 0.2], [0.4, 2.0]])
        def ref(v):
            s = 0.5 * (v + v.T)
            w, u = np.linalg.eigh(s)
            w = np.maximum(w, 1e-12)
            o = (u * w) @ u.T
            return float(np.sum((0.5 * (o + o.T)) ** 2))
        check(lambda v: composed.sumsq(ops.sym_project(v, 1e-12)), ref, a)

    def test_clamped_matches_fd(self):
        a = np.array([[1.0, 0.3], [0.1, -0.5]])
        eps = 1e-3
        def ref(v):
            s = 0.5 * (v + v.T)
            w, u = np.linalg.eigh(s)
            w = np.maximum(w, eps)
            o = (u * w) @ u.T
            return float(np.sum((0.5 * (o + o.T)) ** 2))
        check(lambda v: composed.sumsq(ops.sym_project(v, eps)), ref, a, tol=1e-5)

    def test_value_matches_plain_helper(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            tape = ops.Tape()
            leaf = tape.leaf(a)
            np.testing.assert_array_equal(
                ops.sym_project(leaf, 1e-6).value, ops.sym_project(a, 1e-6))


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
        out = composed.sumsq(composed.logchol2x2(ops.sym_project(leaf, 0.0)))
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
        assert isinstance(ops.solve(a, a), np.ndarray)
        assert isinstance(ops.sym_project(a, 0.0), np.ndarray)
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


def _eigh_project(s, eps):
    """The eigh-only projection the no-clamp test must reproduce."""
    w, u = np.linalg.eigh(s)
    if w[0] >= eps:
        return s
    out = (u * np.maximum(w, eps)) @ u.T
    return 0.5 * (out + out.T)


def _spectrum(dim, rng, low):
    """Symmetric matrix with smallest eigenvalue ``low``, others in (low, low + 10)."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = np.concatenate([[low], low + rng.uniform(1e-3, 10.0, dim - 1)])
    s = (q * w) @ q.T
    return 0.5 * (s + s.T)


class TestNoClampTest:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_agrees_with_eigh_at_the_threshold(self, dim):
        rng = np.random.default_rng(21)
        for _ in range(300):
            s = _spectrum(dim, rng, rng.uniform(0.05, 5.0))
            low = np.linalg.eigvalsh(s)[0]
            assert ops._above(s, low * (1.0 - 1e-9))
            assert not ops._above(s, low * (1.0 + 1e-9))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_projection_bits_match_eigh(self, dim):
        rng = np.random.default_rng(22)
        for _ in range(300):
            s = _spectrum(dim, rng, rng.uniform(-2.0, 5.0))
            low = np.linalg.eigvalsh(s)[0]
            for eps in (low * (1.0 - 1e-9), low * (1.0 + 1e-9), abs(low) + 1e-3, 1e-9):
                np.testing.assert_array_equal(ops._project_value(s, eps)[0],
                                              _eigh_project(s, eps))

    def test_never_passes_where_eigh_clamps(self):
        rng = np.random.default_rng(23)
        for dim in (2, 4):
            for _ in range(500):
                m = rng.standard_normal((dim, dim))
                s = 0.5 * (m + m.T) + rng.uniform(-1.0, 4.0) * np.eye(dim)
                eps = rng.uniform(0.0, 1.0)
                if ops._above(s, eps):
                    assert np.linalg.eigh(s)[0][0] >= eps

    def test_non_finite_goes_to_eigh(self):
        for bad in (np.nan, np.inf):
            assert not ops._above(np.array([[1.0, bad], [bad, 1.0]]), 0.0)
            assert not ops._above(np.diag([1.0, 1.0, bad, 1.0]), 0.0)

    def test_non_finite_raises_non_finite(self):
        for bad in (np.nan, np.inf):
            for a in (np.array([[1.0, bad], [bad, 1.0]]), np.diag([1.0, 1.0, bad, 1.0])):
                with pytest.raises(NonFinite):
                    ops.sym_project(a, 1e-9)


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
                np.testing.assert_allclose(ops.solve(a, b), want, rtol=0,
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


def _tanh_layer(w, x, b, outer):
    """tanh(w @ x + b) as one node; ``outer`` makes the weight's adjoint."""
    wv, xv = ops.value(w), ops.value(x)
    out = np.tanh(wv @ xv + ops.value(b))

    def vjp(g):
        g_lin = g * (1.0 - out * out)
        return outer(g_lin, xv), wv.T @ g_lin, g_lin

    return ops.node(out, (w, x, b), vjp)


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
            _, c1, h1 = self._two_steps(ops.lstm_cell, inputs)
            _, c2, h2 = self._two_steps(composed.lstm, inputs)
            np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(h1, h2)
            _, c3, h3 = self._two_steps(ops.lstm_cell, inputs, ops.Tape())
            np.testing.assert_array_equal(c3.value, c1)
            np.testing.assert_array_equal(h3.value, h1)

    def test_lstm_gradients_match_composed(self):
        for seed in range(5):
            grads = []
            for step in (ops.lstm_cell, composed.lstm):
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
            c, h = ops.lstm_cell(w, b, v[:self.X], v[self.X:self.X + self.H], v[self.X + self.H:])
            return float(np.sum(h * h) + np.sum(c))

        def build(v):
            c, h = ops.lstm_cell(w, b, v[0:self.X], v[self.X:self.X + self.H],
                                 v[self.X + self.H:])
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
        assert all(isinstance(v, np.ndarray) for v in ops.lstm_cell(w, b, x, hidden, cell))
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
    return frame_stats(rng.standard_normal((7, 2)) * [3.0, 1.0] + [1.0, -2.0])


def _features_args(tape):
    rng = np.random.default_rng(40)
    state, ext, leaves = _belief(rng, tape)
    params, _ = _params(rng, tape)
    return (state, ext, _frame(rng), params), leaves


def _raw_features_args(tape):
    args, leaves = _features_args(tape)
    return args[:3], leaves


def _mub_args(tape):
    rng = np.random.default_rng(41)
    params, leaves = _params(rng, tape)
    features = tape.leaf(rng.standard_normal(network.FEATURE_DIM))
    mem, mem_leaves = _memory(rng, tape)
    return (params, features, mem), leaves + [features] + mem_leaves


def _jeb_args(tape):
    rng = np.random.default_rng(42)
    params, leaves = _params(rng, tape)
    mem, mem_leaves = _memory(rng, tape)
    return (params, mem), leaves + mem_leaves


def _jub_args(tape):
    rng = np.random.default_rng(43)
    params, leaves = _params(rng, tape)
    state, ext, belief_leaves = _belief(rng, tape)
    return (params, state, ext), leaves + belief_leaves


def _loss_args(tape, first=False):
    rng = np.random.default_rng(44)
    state, ext, leaves = _belief(rng, tape)
    total = None if first else tape.leaf(np.float64(3.5))
    args = (total, state, ext, rng.standard_normal(4), np.diag(rng.uniform(1.0, 4.0, 2)))
    return args, leaves + ([] if first else [total])


def _loss_tail_args(tape, gamma):
    """A taped loss sum, and for gamma != 0 the network's weights as leaves."""
    rng = np.random.default_rng(45)
    params, leaves = _params(rng, tape)
    total = tape.leaf(np.float64(rng.uniform(1.0, 9.0)))
    if gamma == 0.0:
        return (total, 17, (), gamma), [total]
    return (total, 17, tuple(params.arrays.values()), gamma), [total] + leaves


NETWORK_BLOCKS = {
    "raw_features": (network.raw_features, composed.raw_features, _raw_features_args),
    "encode_inputs": (network.encode_inputs, composed.encode_inputs, _features_args),
    "mub_step": (network.mub_step, composed.mub_step, _mub_args),
    "jeb_heads": (network.jeb_heads, composed.jeb_heads, _jeb_args),
    "jub_heads": (network.jub_heads, composed.jub_heads, _jub_args),
    "loss_term": (network._add_loss_term, composed.add_loss_term, _loss_args),
    "first_loss_term": (network._add_loss_term, composed.add_loss_term,
                        lambda tape: _loss_args(tape, first=True)),
    "loss_tail": (network._scale_and_regularize, composed.scale_and_regularize,
                  lambda tape: _loss_tail_args(tape, 0.0)),
    "regularized_loss_tail": (network._scale_and_regularize, composed.scale_and_regularize,
                              lambda tape: _loss_tail_args(tape, 0.37)),
}


@pytest.mark.usefixtures("algebra")
class TestFusedNetworkBlocks:
    """Each fused network block, and the loss's tail, against the same block
    composed of generic ops: values bit for bit, every input's adjoint at
    1e-12."""

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
        lstm = block == "mub_step"  # the LSTM step is a node of its own
        assert len(tape.entries) - before == 1 + lstm


class TestStacks:
    """sym_project, solve and logchol2x2 on a plain stack (N, d, d) give each
    row exactly what the row gives alone."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_sym_project_rows(self, dim):
        rng = np.random.default_rng(27)
        stack = np.array([_spectrum(dim, rng, low) for low in (-1.0, 2.0, 1e-12, 3.0, 0.5)])
        for eps in (1e-9, rng.uniform(0.1, 1.0, len(stack))):
            got = ops.sym_project(stack, eps)
            for i, s in enumerate(stack):
                np.testing.assert_array_equal(got[i], ops.sym_project(s, np.broadcast_to(
                    eps, len(stack))[i]))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_sym_project_rows_without_a_clamp_are_the_input(self, dim):
        rng = np.random.default_rng(28)
        stack = np.array([_spectrum(dim, rng, low) for low in (1.0, 2.0, 3.0)])
        assert ops.sym_project(stack, 1e-9) is not stack
        np.testing.assert_array_equal(ops.sym_project(stack, 1e-9), stack)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_clamped_open_and_proven_rows_each_project_as_alone(self, dim):
        """Rows that clamp, rows the stack proof leaves open without a clamp
        and proven rows, in one stack: each row projects exactly as alone."""
        rng = np.random.default_rng(31)
        eps = 0.5
        at_floor = np.diag(np.arange(dim) + eps)  # smallest eigenvalue exactly eps
        stack = np.array([_spectrum(dim, rng, -1.0), at_floor, _spectrum(dim, rng, 3.0),
                          _spectrum(dim, rng, eps - 1e-3), _spectrum(dim, rng, 2.0)])
        assert [ops._project_value(s, eps)[3] for s in stack] == [True, False, False, True,
                                                                   False]
        proven = ops._above_rows(stack, eps)
        assert proven.tolist() == ([False, False, True, False, True] if dim == 2
                                   else [False] * 5)  # a 4x4 stack is proven as a whole
        got = ops._project_rows(stack, eps)
        for i, s in enumerate(stack):
            np.testing.assert_array_equal(got[i], ops._project_value(s, eps)[0])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_a_stack_with_nothing_to_clamp_is_returned_itself(self, dim):
        rng = np.random.default_rng(32)
        proven = np.array([_spectrum(dim, rng, low) for low in (1.0, 2.0)])
        left_open = np.array([np.diag(np.arange(dim) + 0.5), proven[0]])
        assert ops._above_rows(proven, 0.5).all() and not ops._above_rows(left_open, 0.5)[0]
        for stack in (proven, left_open):
            assert ops._project_rows(stack, 0.5) is stack

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_finite_row_raises_non_finite(self, dim):
        stack = np.array([np.eye(dim), np.eye(dim)])
        stack[1, 0, 0] = np.nan
        with pytest.raises(NonFinite):
            ops.sym_project(stack, 1e-9)

    def test_solve_rows(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((6, 2, 2)) + 2.0 * np.eye(2)
        a[3] = [[1e300, 1e300], [1e-300, 1e300]]  # an overflowing determinant: LAPACK
        b = rng.standard_normal((6, 2, 4))
        got = ops.solve(a, b)
        for i in range(6):
            np.testing.assert_array_equal(got[i], ops.solve(a[i], b[i]))

    def test_singular_row_raises_and_nan_row_stays_nan(self):
        a = np.array([np.eye(2), np.ones((2, 2))])
        with pytest.raises(np.linalg.LinAlgError):
            ops.solve(a, np.ones((2, 2, 3)))
        a[1] = np.nan
        assert np.isnan(ops.solve(a, np.ones((2, 2, 3)))[1]).all()

    def test_logchol_rows(self):
        rng = np.random.default_rng(30)
        stack = np.array([_spectrum(2, rng, low) for low in (0.1, 1.0, 4.0)])
        got = ops.logchol2x2(stack)
        for i, s in enumerate(stack):
            np.testing.assert_array_equal(got[i], ops.logchol2x2(s))
        stack[1] = -np.eye(2)
        with pytest.raises(NotPositiveDefinite):
            ops.logchol2x2(stack)
