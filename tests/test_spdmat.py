import numpy as np
import pytest
from wishart import sample_inverse_wishart, sample_wishart

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


def _eigh_sqrt(a):
    """The eigendecomposition root the 2x2 closed form must agree with."""
    w, u = np.linalg.eigh(0.5 * (a + a.T))
    root = (u * np.sqrt(np.maximum(w, 0.0))) @ u.T
    return 0.5 * (root + root.T)


class TestSymSqrt2x2:
    @pytest.mark.parametrize("a", [
        np.zeros((2, 2)), np.diag([3.0, 0.0]), np.ones((2, 2)),
        np.array([[4.0, 2.0], [2.0, 1.0]]), np.array([[2.0, -2.0], [-2.0, 2.0]]),
    ], ids=["zero", "axis", "ones", "rank1", "rank1-neg"])
    def test_singular_psd(self, a):
        np.testing.assert_allclose(spdmat.sym_sqrt(a), _eigh_sqrt(a), rtol=0, atol=1e-12)

    def test_near_isotropic(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.uniform(0.1, 10.0) * np.eye(2) + 1e-9 * rng.standard_normal((2, 2))
            np.testing.assert_allclose(spdmat.sym_sqrt(a), _eigh_sqrt(a), rtol=0, atol=1e-12)

    def test_random_spd(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a = rand_spd(2, rng, jitter=rng.uniform(1e-3, 1.0)) * rng.uniform(0.1, 10.0)
            np.testing.assert_allclose(spdmat.sym_sqrt(a), _eigh_sqrt(a), rtol=0,
                                       atol=1e-12 * np.linalg.norm(a))

    def test_indefinite_takes_the_eigh_form(self):
        a = np.array([[1.0, 0.3], [0.3, -2.0]])
        np.testing.assert_array_equal(spdmat.sym_sqrt(a), _eigh_sqrt(a))


class TestInverseSpd:
    def test_identity(self):
        np.testing.assert_array_equal(spdmat.inverse_spd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(spdmat.inverse_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_product_is_identity(self):
        rng = np.random.default_rng(2)
        for dim in (2, 4, 5):
            a = rand_spd(dim, rng)
            np.testing.assert_allclose(a @ spdmat.inverse_spd(a), np.eye(dim), atol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spdmat.inverse_spd(np.diag([1.0, -1.0]))


class TestSymmetrizeProject:
    """The one symmetrize-and-clamp projection, ``ops.sym_project``, on plain
    arrays; its first return value is the projection."""

    def test_spd_unchanged(self):
        rng = np.random.default_rng(4)
        a = rand_spd(3, rng)
        np.testing.assert_array_equal(ops.sym_project(a, 1e-9)[0], 0.5 * (a + a.T))

    def test_asymmetric_hand_case(self):
        out, _ = ops.sym_project(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0)
        np.testing.assert_allclose(out, np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-12

    def test_clamp(self):
        out, _ = ops.sym_project(np.diag([1.0, -0.5]), 1e-6)
        np.testing.assert_allclose(out, np.diag([1.0, 1e-6]), atol=1e-15)

    def test_idempotent(self):
        # exact when the spectrum clears the floor; to roundoff when the
        # first pass clamped (re-decomposition can land an ulp under eps)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        once, _ = ops.sym_project(a, 1e-6)
        twice, _ = ops.sym_project(once, 1e-6)
        np.testing.assert_allclose(once, twice, atol=1e-14)
        clear, _ = ops.sym_project(once + 1e-3 * np.eye(4), 1e-6)
        np.testing.assert_array_equal(clear, ops.sym_project(clear, 1e-6)[0])


class TestWishartSampler:
    """The Monte Carlo oracle of ``tests/wishart.py`` against the analytic moments."""

    def test_mean_identity_scale(self):
        rng = np.random.default_rng(6)
        draws = np.mean([sample_wishart(5.0, np.eye(2), rng) for _ in range(20000)], axis=0)
        np.testing.assert_allclose(draws, 5.0 * np.eye(2), rtol=0.03, atol=0.05)

    def test_mean_diagonal_scale(self):
        rng = np.random.default_rng(7)
        scale = np.diag([2.0, 1.0])
        draws = np.mean([sample_wishart(3.0, scale, rng) for _ in range(20000)], axis=0)
        np.testing.assert_allclose(np.diag(draws), [6.0, 3.0], rtol=0.04)

    def test_scalar_chi_square(self):
        rng = np.random.default_rng(8)
        draws = [sample_wishart(4.0, np.eye(1), rng)[0, 0] for _ in range(20000)]
        assert abs(np.mean(draws) - 4.0) < 0.1

    def test_bad_dof(self):
        rng = np.random.default_rng(9)
        with pytest.raises(BadDof):
            sample_wishart(0.5, np.eye(2), rng)


class TestInverseWishartSampler:
    def test_mean_convention(self):
        rng = np.random.default_rng(10)
        draws = np.mean(
            [sample_inverse_wishart(10.0, 4.0 * np.eye(2), rng) for _ in range(20000)],
            axis=0)
        np.testing.assert_allclose(draws, (4.0 / 7.0) * np.eye(2), rtol=0.05, atol=0.01)

    def test_scalar_inverse_gamma(self):
        rng = np.random.default_rng(11)
        draws = [sample_inverse_wishart(8.0, 6.0 * np.eye(1), rng)[0, 0]
                 for _ in range(20000)]
        assert abs(np.mean(draws) - 1.0) < 0.05

    def test_duality_with_wishart(self):
        # inverse of W(v, P^-1) draws should distribute like IW(v, P)
        rng1 = np.random.default_rng(12)
        rng2 = np.random.default_rng(13)
        p = np.array([[3.0, 0.5], [0.5, 2.0]])
        direct = np.mean(
            [sample_inverse_wishart(12.0, p, rng1) for _ in range(20000)], axis=0)
        via_wishart = np.mean(
            [np.linalg.inv(sample_wishart(12.0, np.linalg.inv(p), rng2))
             for _ in range(20000)], axis=0)
        np.testing.assert_allclose(direct, via_wishart, rtol=0.05)
        np.testing.assert_allclose(direct, p / (12.0 - 2.0 - 1.0), rtol=0.05)

    def test_deterministic_given_seed(self):
        a = sample_wishart(5.0, np.eye(2), np.random.default_rng(99))
        b = sample_wishart(5.0, np.eye(2), np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)
