"""Symplectic linear algebra: null spaces, subspace classification,
complements and the contact-hyperplane extractor."""

import numpy as np
import pytest
from scipy.linalg import null_space as scipy_null_space

from legfol import forms as fm
from legfol import symplin as sl
from legfol.fields import Chart, parse_field

from oracles import standard_symplectic, svd_count


def std(n):
    return standard_symplectic(n)


def basis_vec(dim, *idx):
    out = []
    for i in idx:
        e = np.zeros(dim)
        e[i] = 1.0
        out.append(e)
    return np.array(out)


class TestNullSpace:
    """symplin.null_space against scipy.linalg.null_space: the same kernel
    dimension and the same projector N N^T."""

    @staticmethod
    def assert_matches(A, rcond):
        got = sl.null_space(A, rcond)
        want = scipy_null_space(A, rcond=rcond)
        assert got.shape == want.shape
        assert np.allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)
        return got

    @pytest.mark.parametrize("rows, cols, rank", [
        (3, 5, 3), (3, 5, 2), (2, 7, 1),   # wide
        (6, 4, 4), (6, 4, 2), (9, 3, 1),   # tall
        (5, 5, 5), (5, 5, 3),
    ])
    def test_random_matrices(self, rows, cols, rank, rng):
        A = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        N = self.assert_matches(A, 1e-9)
        assert N.shape == (cols, cols - rank)
        assert np.max(np.abs(A @ N), initial=0.0) < 1e-12 * np.max(np.abs(A))

    def test_covector(self, rng):
        N = self.assert_matches(rng.normal(size=(1, 5)), sl.TOL)
        assert N.shape == (5, 4)

    def test_zero_matrix(self):
        N = self.assert_matches(np.zeros((3, 4)), sl.TOL)
        assert np.allclose(N @ N.T, np.eye(4), rtol=0, atol=1e-12)

    def test_no_rows(self):
        N = self.assert_matches(np.zeros((0, 4)), sl.TOL)
        assert N.shape == (4, 4)

    def test_rcond_at_a_singular_value_ratio(self, rng):
        # singular values 1, 1e-3, 1e-8 in rotated bases
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A = U @ np.diag([1.0, 1e-3, 1e-8]) @ V[:3]
        s = np.linalg.svd(A, compute_uv=False)
        ratio = s[1] / s[0]
        above = self.assert_matches(A, ratio * (1 + 1e-6))
        below = self.assert_matches(A, ratio * (1 - 1e-6))
        assert (above.shape[1], below.shape[1]) == (3, 2)


class TestSubspaces:
    def test_contains_and_equals(self):
        W = sl.span(basis_vec(4, 0, 1))
        assert W.contains(sl.span([[1.0, -2.0, 0, 0]], 4))
        assert not W.contains(sl.span([[0, 0, 1.0, 0]], 4))
        W2 = sl.span([[1, 1, 0, 0], [1, -1, 0, 0]], 4)
        assert W.equals(W2)

    def test_intersection(self, rng):
        A = sl.span([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
        B = sl.span([[0, 1, 0, 0], [0, 0, 1, 0]], 4)
        inter = A.intersect(B)
        assert inter.dim == 1
        assert inter.contains(sl.span([[0, 1.0, 0, 0]], 4))

    def test_random_intersection_dimension(self, rng):
        # two generic 3-planes in R^4 meet in a 2-plane
        A = sl.span(rng.normal(size=(3, 4)), 4)
        B = sl.span(rng.normal(size=(3, 4)), 4)
        assert A.intersect(B).dim == 2


class TestClassification:
    def test_lagrangian_x_plane(self):
        # coordinates ordered (x1, x2, y1, y2)
        cls = sl.classify_subspace(sl.span(basis_vec(4, 0, 1)), std(2))
        assert cls["kind"] == "lagrangian"
        assert cls["isotropic"] and cls["coisotropic"]

    def test_symplectic_pair(self):
        cls = sl.classify_subspace(sl.span(basis_vec(4, 0, 2)), std(2))
        assert cls["kind"] == "symplectic"
        assert not cls["isotropic"] and not cls["coisotropic"]

    def test_isotropic_line(self):
        cls = sl.classify_subspace(sl.span(basis_vec(4, 0)), std(2))
        assert cls["isotropic"] and not cls["coisotropic"]

    def test_coisotropic_three_plane(self):
        cls = sl.classify_subspace(sl.span(basis_vec(4, 0, 1, 2)), std(2))
        assert cls["coisotropic"] and not cls["isotropic"]

    def test_complement_involution(self, rng):
        omega = std(3)
        W = sl.span(rng.normal(size=(2, 6)), 6)
        WW = sl.symp_complement(sl.symp_complement(W, omega), omega)
        assert WW.equals(W)

    def test_complement_dimension(self, rng):
        omega = std(3)
        for d in (1, 2, 3, 4, 5):
            W = sl.span(rng.normal(size=(d, 6)), 6)
            assert sl.symp_complement(W, omega).dim == 6 - d


class TestContactHyperplane:
    def alpha(self, n):
        names = tuple(f"x{i}" for i in range(1, n + 1)) \
            + tuple(f"y{i}" for i in range(1, n + 1)) + ("z",)
        ch = Chart(names)
        a = fm.one_form(ch, {"z": 1.0})
        for i in range(1, n + 1):
            a = a + fm.one_form(ch, {f"x{i}": parse_field(ch, f"-y{i}")})
        return a

    def test_hyperplane_and_restriction(self, rng):
        alpha = self.alpha(2)
        p = rng.uniform(-1, 1, 5)
        xi, omega = sl.contact_hyperplane(alpha, p)
        assert xi.dim == 4
        # d alpha restricted to xi is nondegenerate by construction;
        # antisymmetry sanity:
        assert np.allclose(omega.matrix, -omega.matrix.T)

    def test_degenerate_rejected(self):
        ch = Chart(("x", "y", "z"))
        bad = fm.one_form(ch, {"z": 1.0})  # dz alone: d(bad) = 0
        with pytest.raises(sl.NotContact):
            sl.contact_hyperplane(bad, [0.0, 0.0, 0.0])

    def test_vanishing_rejected(self):
        ch = Chart(("x", "y", "z"))
        a = fm.one_form(ch, {"z": parse_field(ch, "x")})
        with pytest.raises(sl.NotContact):
            sl.contact_hyperplane(a, [0.0, 1.0, 0.0])


def skew_with_singular_values(rng, m, sigmas):
    """Q diag(s_1 J, s_2 J, ...) Q^T for a random rotation Q, made exactly
    skew: singular values s_1, s_1, s_2, s_2, ... and zeros."""
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    D = np.zeros((m, m))
    for t, s in enumerate(sigmas):
        D[2 * t, 2 * t + 1], D[2 * t + 1, 2 * t] = s, -s
    S = Q @ D @ Q.T
    return (S - S.T) / 2


def full_search_pivots(S, steps):
    """The first steps pivot magnitudes of each skew matrix in an
    (N, m, m) stack, by skew_rank's elimination with the pivot searched
    over all m^2 entries in C order, eliminating past any threshold until
    what is left is 0.  Each pivot it finds lies above the diagonal."""
    out = np.zeros((steps, len(S)))
    for n, A in enumerate(np.array(S, dtype=float)):
        for step in range(steps):
            i, j = np.unravel_index(np.argmax(np.abs(A)), A.shape)
            out[step, n] = abs(A[i, j])
            if A[i, j] == 0.0:
                break
            assert i < j
            u = A[:, i] / A[i, j]
            outer = A[:, j][:, None] * u[None]
            A += outer - outer.T
            A[[i, j]] = 0.0
            A[:, [i, j]] = 0.0
    return out


class TestSkewRank:
    """symplin.skew_rank against the SVD count of the same matrices."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_pivots_of_the_full_search(self, m, rng):
        """Small integer entries tie in magnitude everywhere, and the
        search over i < j picks the pivots of the search over every entry:
        the same magnitudes at every step, so the same elimination."""
        A = rng.integers(-2, 3, (300, m, m)).astype(float)
        S = np.triu(A, 1) - np.triu(A, 1).transpose(0, 2, 1)
        rank, pivots = sl.skew_rank(S, 1e-8, m // 2)
        np.testing.assert_array_equal(pivots, full_search_pivots(S, m // 2))
        assert rank.tolist() == sl.skew_rank(S, 1e-8).tolist() \
            == svd_count(S, 1e-8).tolist()

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("tol", [1e-8, 1e-5])
    def test_singular_values_at_the_threshold(self, m, tol, rng):
        # Every singular value is at most 1, so max |S| <= 1 and the
        # threshold is tol; one pair sits at tol * (1 +- 1e-3).
        stack, want = [], []
        for t in range(40):
            big = rng.integers(0, m // 2 + 1)
            sigmas, rank = list(rng.uniform(0.05, 1.0, big)), 2 * big
            if big < m // 2:  # above the threshold for even t
                sigmas.append(tol * (1 + 1e-3 * (-1) ** t))
                rank += 2 * (t % 2 == 0)
            stack.append(skew_with_singular_values(rng, m, sigmas))
            want.append(rank)
        stack = np.array(stack)
        got = sl.skew_rank(stack, tol)
        assert got.tolist() == svd_count(stack, tol).tolist() == want

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("noise", [1e-12, 1e-9, 1e-8, 1e-7, 1e-4])
    def test_low_rank_plus_noise(self, m, noise, rng):
        X = rng.normal(size=(50, m, 2 * (m // 2)))
        X *= np.arange(X.shape[2]) < 2 * rng.integers(0, m // 2 + 1,
                                                      (50, 1, 1))
        J = np.kron(np.eye(m // 2), [[0.0, 1.0], [-1.0, 0.0]])
        S = X @ J @ X.transpose(0, 2, 1) * 10.0 ** rng.uniform(-2, 2,
                                                             (50, 1, 1))
        S += noise * rng.normal(size=S.shape)
        S = (S - S.transpose(0, 2, 1)) / 2
        assert sl.skew_rank(S, 1e-8).tolist() \
            == svd_count(S, 1e-8).tolist()

    def test_edge_shapes(self, rng):
        assert sl.skew_rank(np.zeros((5, 4, 4)), 1e-8).tolist() == [0] * 5
        assert sl.skew_rank(np.zeros((3, 1, 1)), 1e-8).tolist() == [0] * 3
        empty = sl.skew_rank(np.zeros((0, 4, 4)), 1e-8)
        assert empty.shape == (0,) and empty.dtype.kind == "i"
        for m in (1, 2, 3, 5):  # odd m: at most m - 1
            A = rng.normal(size=(m, m))
            S = A - A.T
            kept = S.copy()
            got = sl.skew_rank(S, 1e-8)
            np.testing.assert_array_equal(S, kept)  # the input is not reused
            assert isinstance(got, int)
            assert got == svd_count(S, 1e-8) == m - m % 2

    def test_certified_stacks_skip_the_svd(self, rng, svd_calls):
        far = np.array([skew_with_singular_values(rng, 5, [1.0, 0.5])
                        for _ in range(20)])
        far[::4] = 0.0
        assert sl.skew_rank(far, 1e-8).tolist() == [0, 4, 4, 4] * 5
        assert svd_calls == []
        near = far.copy()
        near[3] = skew_with_singular_values(rng, 5, [1.0, 1e-8 * 1.001])
        assert sl.skew_rank(near, 1e-8)[3] == 4
        assert svd_calls == [(1, 5, 5)]

    def test_needs_exactly_skew_input(self):
        with pytest.raises(ValueError, match="exactly skew"):
            sl.skew_rank(np.array([[0.0, 1.0], [-1.0 + 1e-12, 0.0]]), 1e-8)
