import numpy as np
import pytest

from memtrack import ops, spdmat
from memtrack.errors import BadDof, NotPositiveDefinite


def rand_spd(dim, rng, jitter=1.0):
    m = rng.standard_normal((dim, dim))
    return m.T @ m + jitter * np.eye(dim)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(spdmat.cholesky(np.eye(2)), np.eye(2))

    def test_diagonal_roots(self):
        np.testing.assert_allclose(spdmat.cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rand_spd(4, rng)
            ell = spdmat.cholesky(a)
            np.testing.assert_array_less(
                np.linalg.norm(ell @ ell.T - a) / np.linalg.norm(a), 1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spdmat.cholesky(np.diag([1.0, -1.0]))


class TestSymSqrt:
    def test_identity(self):
        np.testing.assert_allclose(spdmat.sym_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(spdmat.sym_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))

    def test_square_reconstructs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rand_spd(3, rng)
            s = spdmat.sym_sqrt(a)
            np.testing.assert_array_less(np.linalg.norm(s @ s - a) / np.linalg.norm(a), 1e-9)


class TestSolveSpd:
    def test_identity_passthrough(self):
        b = np.arange(8.0).reshape(4, 2)
        np.testing.assert_allclose(spdmat.solve_spd(np.eye(4), b), b)

    def test_diagonal(self):
        np.testing.assert_allclose(
            spdmat.solve_spd(np.diag([2.0, 4.0]), np.eye(2)), np.diag([0.5, 0.25]))

    def test_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rand_spd(4, rng)
            b = rng.standard_normal((4, 3))
            x = spdmat.solve_spd(a, b)
            assert np.linalg.norm(a @ x - b) < 1e-9

    def test_inverse_identity(self):
        rng = np.random.default_rng(3)
        a = rand_spd(5, rng)
        np.testing.assert_allclose(spdmat.solve_spd(a, a), np.eye(5), atol=1e-9)


class TestSymmetrizeProject:
    """The one symmetrize-and-clamp projection, ``ops.sym_project``, on plain arrays."""

    def test_spd_unchanged(self):
        rng = np.random.default_rng(4)
        a = rand_spd(3, rng)
        np.testing.assert_array_equal(ops.sym_project(a, 1e-9), 0.5 * (a + a.T))

    def test_asymmetric_hand_case(self):
        out = ops.sym_project(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0)
        np.testing.assert_allclose(out, np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-12

    def test_clamp(self):
        out = ops.sym_project(np.diag([1.0, -0.5]), 1e-6)
        np.testing.assert_allclose(out, np.diag([1.0, 1e-6]), atol=1e-15)

    def test_idempotent(self):
        # exact when the spectrum clears the floor; to roundoff when the
        # first pass clamped (re-decomposition can land an ulp under eps)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        once = ops.sym_project(a, 1e-6)
        twice = ops.sym_project(once, 1e-6)
        np.testing.assert_allclose(once, twice, atol=1e-14)
        clear = ops.sym_project(once + 1e-3 * np.eye(4), 1e-6)
        np.testing.assert_array_equal(clear, ops.sym_project(clear, 1e-6))


class TestWishartSampler:
    def test_mean_identity_scale(self):
        rng = np.random.default_rng(6)
        draws = np.mean([spdmat.sample_wishart(5.0, np.eye(2), rng) for _ in range(20000)], axis=0)
        np.testing.assert_allclose(draws, 5.0 * np.eye(2), rtol=0.03, atol=0.05)

    def test_mean_diagonal_scale(self):
        rng = np.random.default_rng(7)
        scale = np.diag([2.0, 1.0])
        draws = np.mean([spdmat.sample_wishart(3.0, scale, rng) for _ in range(20000)], axis=0)
        np.testing.assert_allclose(np.diag(draws), [6.0, 3.0], rtol=0.04)

    def test_scalar_chi_square(self):
        rng = np.random.default_rng(8)
        draws = [spdmat.sample_wishart(4.0, np.eye(1), rng)[0, 0] for _ in range(20000)]
        assert abs(np.mean(draws) - 4.0) < 0.1

    def test_bad_dof(self):
        rng = np.random.default_rng(9)
        with pytest.raises(BadDof):
            spdmat.sample_wishart(0.5, np.eye(2), rng)


class TestInverseWishartSampler:
    def test_mean_convention(self):
        rng = np.random.default_rng(10)
        draws = np.mean(
            [spdmat.sample_inverse_wishart(10.0, 4.0 * np.eye(2), rng) for _ in range(20000)],
            axis=0)
        np.testing.assert_allclose(draws, (4.0 / 7.0) * np.eye(2), rtol=0.05, atol=0.01)

    def test_scalar_inverse_gamma(self):
        rng = np.random.default_rng(11)
        draws = [spdmat.sample_inverse_wishart(8.0, 6.0 * np.eye(1), rng)[0, 0]
                 for _ in range(20000)]
        assert abs(np.mean(draws) - 1.0) < 0.05

    def test_duality_with_wishart(self):
        # inverse of W(v, P^-1) draws should distribute like IW(v, P)
        rng1 = np.random.default_rng(12)
        rng2 = np.random.default_rng(13)
        p = np.array([[3.0, 0.5], [0.5, 2.0]])
        direct = np.mean(
            [spdmat.sample_inverse_wishart(12.0, p, rng1) for _ in range(20000)], axis=0)
        via_wishart = np.mean(
            [np.linalg.inv(spdmat.sample_wishart(12.0, np.linalg.inv(p), rng2))
             for _ in range(20000)], axis=0)
        np.testing.assert_allclose(direct, via_wishart, rtol=0.05)
        np.testing.assert_allclose(direct, p / (12.0 - 2.0 - 1.0), rtol=0.05)

    def test_deterministic_given_seed(self):
        a = spdmat.sample_wishart(5.0, np.eye(2), np.random.default_rng(99))
        b = spdmat.sample_wishart(5.0, np.eye(2), np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)
