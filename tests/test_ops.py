"""Unit checks of the differentiation tape: each op's adjoint against
central finite differences, plus dispatch semantics (plain arrays in, plain
arrays out)."""

import numpy as np
import pytest

from memtrack import ops
from memtrack.errors import NotPositiveDefinite, TapeEmpty


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


class TestElementwise:
    def test_add_mul_chain(self):
        x = np.array([0.3, -1.2, 2.0])
        check(lambda v: ops.sumsq(v * v + 2.0 * v),
              lambda v: float(np.sum((v * v + 2.0 * v) ** 2)), x)

    def test_div(self):
        x = np.array([1.5, -0.7])
        check(lambda v: ops.sumsq(v / 4.0), lambda v: float(np.sum((v / 4.0) ** 2)), x)

    def test_nonlinearities(self):
        x = np.array([-2.0, 0.0, 0.5, 3.0])
        for op, ref in [
            (ops.sigmoid, lambda v: 1 / (1 + np.exp(-v))),
            (ops.tanh, np.tanh),
            (ops.softplus, lambda v: np.logaddexp(0, v)),
        ]:
            check(lambda v, op=op: ops.sumsq(op(v)),
                  lambda v, ref=ref: float(np.sum(ref(v) ** 2)), x)

    def test_log(self):
        x = np.array([0.5, 1.7, 3.0])
        check(lambda v: ops.sumsq(ops.log(v)), lambda v: float(np.sum(np.log(v) ** 2)), x)

    def test_softplus_zero_constant_cancels_exactly(self):
        tape = ops.Tape()
        leaf = tape.leaf(np.zeros(3))
        out = ops.softplus(leaf) - ops.SOFTPLUS_ZERO
        assert np.all(out.value == 0.0)


class TestLinearAlgebra:
    def test_matmul_both_sides(self):
        a = np.array([[1.0, 2.0], [0.5, -1.0]])
        check(lambda v: ops.sumsq(v @ np.array([1.0, -2.0])),
              lambda v: float(np.sum((v @ np.array([1.0, -2.0])) ** 2)), a)
        x = np.array([0.3, 0.7])
        check(lambda v: ops.sumsq(a @ v), lambda v: float(np.sum((a @ v) ** 2)), x)

    def test_solve_wrt_matrix_and_rhs(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([1.0, 2.0])
        check(lambda v: ops.sumsq(ops.solve(v, b)),
              lambda v: float(np.sum(np.linalg.solve(v, b) ** 2)), a, tol=1e-5)
        check(lambda v: ops.sumsq(ops.solve(a, v)),
              lambda v: float(np.sum(np.linalg.solve(a, v) ** 2)), b)

    def test_solve_matrix_rhs(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([[1.0, 0.0], [2.0, 1.0]])
        check(lambda v: ops.sumsq(ops.solve(a, v)),
              lambda v: float(np.sum(np.linalg.solve(a, v) ** 2)), b)

    def test_transpose_diag(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        check(lambda v: ops.sumsq(ops.transpose(v) @ np.array([1.0, 1.0])),
              lambda v: float(np.sum((v.T @ np.array([1.0, 1.0])) ** 2)), a)
        check(lambda v: ops.sumsq(ops.take_diag(v)),
              lambda v: float(np.sum(np.diag(v) ** 2)), a)
        d = np.array([1.0, -2.0])
        check(lambda v: ops.sumsq(ops.diag_embed(v) @ np.array([1.0, 3.0])),
              lambda v: float(np.sum((np.diag(v) @ np.array([1.0, 3.0])) ** 2)), d)


class TestStructural:
    def test_concat_getitem(self):
        x = np.array([1.0, 2.0, 3.0])
        def build(v):
            joined = ops.concat([v[0:2], np.array([5.0]), v[2] * np.ones(1)])
            return ops.sumsq(joined)
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
        check(lambda v: ops.sumsq(ops.sym_project(v, 1e-12)), ref, a)

    def test_clamped_matches_fd(self):
        a = np.array([[1.0, 0.3], [0.1, -0.5]])
        eps = 1e-3
        def ref(v):
            s = 0.5 * (v + v.T)
            w, u = np.linalg.eigh(s)
            w = np.maximum(w, eps)
            o = (u * w) @ u.T
            return float(np.sum((0.5 * (o + o.T)) ** 2))
        check(lambda v: ops.sumsq(ops.sym_project(v, eps)), ref, a, tol=1e-5)

    def test_value_matches_plain_helper(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            tape = ops.Tape()
            leaf = tape.leaf(a)
            np.testing.assert_array_equal(
                ops.sym_project(leaf, 1e-6).value, ops.sym_project(a, 1e-6))


class TestSpectrumFloor:
    def _ref(self):
        return np.array([[0.6, 0.1], [0.1, 0.4]])

    def test_inactive_when_above_floor(self):
        a = np.array([[1.0, 0.0], [0.0, 0.8]])
        out = ops.spectrum_floor(a, self._ref(), 0.05)
        np.testing.assert_array_equal(out, a)

    def test_clamps_to_reference_fraction(self):
        a = np.diag([1.0, -0.5])
        ref = self._ref()
        out = ops.spectrum_floor(a, ref, 0.5)
        floor = 0.5 * np.linalg.eigvalsh(ref)[0]
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [floor, 1.0], atol=1e-12)

    def test_gradient_through_both_arguments(self):
        # a sits below the floor so the clamp is active; the floor moves
        # with ref, and both sensitivities must match finite differences
        a0 = np.array([[0.3, 0.05], [0.02, -0.2]])
        r0 = np.array([[0.9, 0.2], [0.2, 0.5]])
        frac = 0.8

        def ref_fn(av, rv):
            rs = 0.5 * (rv + rv.T)
            eps = frac * np.linalg.eigvalsh(rs)[0]
            s = 0.5 * (av + av.T)
            w, u = np.linalg.eigh(s)
            w = np.maximum(w, eps)
            o = (u * w) @ u.T
            return float(np.sum((0.5 * (o + o.T)) ** 2))

        tape = ops.Tape()
        va, vr = tape.leaf(a0), tape.leaf(r0)
        out = ops.sumsq(ops.spectrum_floor(va, vr, frac))
        grads = tape.backward(out)
        ga, gr = tape.grad(grads, va), tape.grad(grads, vr)
        np.testing.assert_allclose(ga, fd_grad(lambda v: ref_fn(v, r0), a0), atol=1e-6)
        np.testing.assert_allclose(gr, fd_grad(lambda v: ref_fn(a0, v), r0), atol=1e-6)


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
        out = ops.sumsq(ops.logchol2x2(ops.sym_project(leaf, 0.0)))
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


class TestDispatch:
    def test_plain_arrays_stay_plain(self):
        a = np.eye(2)
        assert isinstance(ops.solve(a, a), np.ndarray)
        assert isinstance(ops.sym_project(a, 0.0), np.ndarray)
        assert isinstance(ops.softplus(np.zeros(2)), np.ndarray)

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
        out = ops.sumsq(used * 2.0)
        grads = tape.backward(out)
        np.testing.assert_array_equal(tape.grad(grads, unused), np.zeros(1))
        np.testing.assert_array_equal(tape.grad(grads, used), np.array([8.0]))

    def test_gradient_accumulates_over_reuse(self):
        tape = ops.Tape()
        v = tape.leaf(np.array([3.0]))
        out = ops.sumsq(v + v)
        grads = tape.backward(out)
        np.testing.assert_allclose(tape.grad(grads, v), [24.0])
