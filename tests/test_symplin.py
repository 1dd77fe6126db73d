"""Symplectic linear algebra: null spaces, subspace classification,
complements and the contact-hyperplane extractor."""

import numpy as np
import pytest
from scipy.linalg import null_space as scipy_null_space

from legfol import forms as fm
from legfol import symplin as sl
from legfol.fields import Chart, coordinate

from oracles import standard_symplectic


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
            a = a + fm.one_form(ch, {f"x{i}": -coordinate(ch, f"y{i}")})
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
        a = fm.one_form(ch, {"z": coordinate(ch, "x")})
        with pytest.raises(sl.NotContact):
            sl.contact_hyperplane(a, [0.0, 1.0, 0.0])
