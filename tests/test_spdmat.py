import numpy as np
import pytest
from wishart import sample_inverse_wishart, sample_wishart

from memtrack import spdmat
from memtrack.errors import NonFinite, NotPositiveDefinite


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


class TestSymmetrizeProject:
    """The eigenvalue floor ``spdmat.eigen_floor``: the symmetric part of its
    input with every eigenvalue raised to at least the floor."""

    def test_spd_unchanged(self):
        rng = np.random.default_rng(4)
        a = rand_spd(3, rng)
        np.testing.assert_array_equal(spdmat.eigen_floor(a, 1e-9), 0.5 * (a + a.T))

    def test_asymmetric_hand_case(self):
        out = spdmat.eigen_floor(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0)
        np.testing.assert_allclose(out, np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-12

    def test_clamp(self):
        out = spdmat.eigen_floor(np.diag([1.0, -0.5]), 1e-6)
        np.testing.assert_allclose(out, np.diag([1.0, 1e-6]), atol=1e-15)

    def test_idempotent(self):
        # exact when the spectrum clears the floor; to roundoff when the
        # first pass clamped (re-decomposition can land an ulp under eps)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        once = spdmat.eigen_floor(a, 1e-6)
        twice = spdmat.eigen_floor(once, 1e-6)
        np.testing.assert_allclose(once, twice, atol=1e-14)
        clear = spdmat.eigen_floor(once + 1e-3 * np.eye(4), 1e-6)
        np.testing.assert_array_equal(clear, spdmat.eigen_floor(clear, 1e-6))


def _eigh_project(s, eps):
    """The eigh projection the filter's per-step clamp computed (it was
    checked against this bit for bit): ``s`` itself when its smallest
    eigenvalue reaches ``eps``, else the clamped rebuild, symmetrized."""
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


class TestEigenFloor:
    """The floor reproduces the retired clamp bit for bit, matrix by matrix
    and row by row of a stack, on rows it clamps and rows it leaves."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_the_clamp_bit_for_bit(self, dim):
        rng = np.random.default_rng(22)
        for _ in range(300):
            s = _spectrum(dim, rng, rng.uniform(-2.0, 5.0))
            low = np.linalg.eigvalsh(s)[0]
            for eps in (low * (1.0 - 1e-9), low * (1.0 + 1e-9), abs(low) + 1e-3, 1e-9):
                np.testing.assert_array_equal(spdmat.eigen_floor(s, eps), _eigh_project(s, eps))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_rows_match_the_clamp_alone(self, dim):
        rng = np.random.default_rng(31)
        eps = 0.5
        at_floor = np.diag(np.arange(dim) + eps)  # smallest eigenvalue exactly eps
        stack = np.array([_spectrum(dim, rng, -1.0), at_floor, _spectrum(dim, rng, 3.0),
                          _spectrum(dim, rng, eps - 1e-3), _spectrum(dim, rng, 2.0)])
        got = spdmat.eigen_floor(stack, eps)
        assert [not np.array_equal(g, s) for g, s in zip(got, stack)] == [True, False, False,
                                                                         True, False]
        for i, s in enumerate(stack):
            np.testing.assert_array_equal(got[i], _eigh_project(s, eps))
            np.testing.assert_array_equal(got[i], spdmat.eigen_floor(s, eps))

    def test_any_size_matches_the_clamp(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            np.testing.assert_array_equal(spdmat.eigen_floor(a, 1e-6),
                                          _eigh_project(0.5 * (a + a.T), 1e-6))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_rows_with_nothing_to_clamp_are_the_symmetric_part(self, dim):
        rng = np.random.default_rng(28)
        a = np.array([_spectrum(dim, rng, low) for low in (1.0, 2.0, 3.0)])
        a[:, 0, 1] += 1e-12  # an asymmetric input comes back as its symmetric part
        np.testing.assert_array_equal(spdmat.eigen_floor(a, 1e-9),
                                      0.5 * (a + np.swapaxes(a, -1, -2)))

    def test_non_finite_raises_non_finite(self):
        for bad in (np.nan, np.inf):
            for a in (np.array([[1.0, bad], [bad, 1.0]]), np.diag([1.0, 1.0, bad, 1.0])):
                with pytest.raises(NonFinite):
                    spdmat.eigen_floor(a, 1e-9)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_finite_row_raises_non_finite(self, dim):
        stack = np.array([np.eye(dim), np.eye(dim)])
        stack[1, 0, 0] = np.nan
        with pytest.raises(NonFinite):
            spdmat.eigen_floor(stack, 1e-9)


def _eigh_only_floor(a, floor):
    """eigen_floor without its closed-form screen: every row through eigh."""
    s = 0.5 * (a + np.swapaxes(a, -1, -2))
    w, u = np.linalg.eigh(s)
    out = s.copy()
    for i in np.ndindex(s.shape[:-2]):
        if w[i][0] < floor:
            raised = (u[i] * np.maximum(w[i], floor)) @ u[i].T
            out[i] = 0.5 * (raised + raised.T)
    return out


class TestEigenFloorScreen:
    """The closed-form 2x2 screen in front of eigh changes no returned bit."""

    def test_matches_eigh_only_on_random_stacks(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-8, 8)
            stack = scale * np.array([_spectrum(2, rng, low) for low in rng.uniform(-1, 2, 16)])
            for floor in (1e-9, scale, scale * rng.uniform(0.0, 2.0)):
                np.testing.assert_array_equal(spdmat.eigen_floor(stack, floor),
                                              _eigh_only_floor(stack, floor))

    def test_rows_within_an_ulp_of_the_floor(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            s = 10.0 ** rng.uniform(-6, 6) * _spectrum(2, rng, rng.uniform(0.01, 3.0))
            low = np.linalg.eigvalsh(s)[0]
            for floor in (low, np.nextafter(low, np.inf), np.nextafter(low, -np.inf)):
                np.testing.assert_array_equal(spdmat.eigen_floor(s, floor),
                                              _eigh_only_floor(s, floor))
                stack = np.array([s, 2.0 * s, s])
                np.testing.assert_array_equal(spdmat.eigen_floor(stack, floor),
                                              _eigh_only_floor(stack, floor))

    def test_rows_clear_of_the_floor_skip_eigh(self, monkeypatch):
        rng = np.random.default_rng(42)
        stack = np.array([_spectrum(2, rng, low) for low in (0.5, 1.0, 2.0)])

        def refuse(a):
            raise AssertionError("eigh called on rows clear of the floor")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        np.testing.assert_array_equal(spdmat.eigen_floor(stack, 1e-9), stack)


class TestEllipseAxes:
    def test_axes_and_angle(self):
        th = 0.3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        extents = np.array([rot @ np.diag([9.0, 4.0]) @ rot.T, np.diag([1.0, 4.0])])
        np.testing.assert_allclose(spdmat.ellipse_axes(extents),
                                   [[3.0, 2.0, th], [2.0, 1.0, -np.pi / 2]], atol=1e-12)


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
        with pytest.raises(ValueError, match="dof > dim - 1"):
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
