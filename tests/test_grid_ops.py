import numpy as np
import pytest

from viscobeam import (
    ConfigurationError,
    Grid,
    norm,
    second_difference_eigenvalues,
    sine_transform,
)

from conftest import (dense_fourth_difference, fourth_difference, inner, max_norm,
                      second_difference)


def sine_mode(grid, k=1):
    return np.sin(k * np.pi * grid.x)


def d2_eigenvalue(grid, k=1):
    return -4.0 * np.sin(k * np.pi * grid.h / 2.0) ** 2 / grid.h**2


class TestGrid:
    def test_basic_fields(self):
        g = Grid(8)
        assert g.h == 0.125
        assert g.n_interior == 7
        assert np.allclose(g.x, np.arange(1, 8) / 8.0)

    def test_rejects_small_grids(self):
        with pytest.raises(ConfigurationError, match=r"^grid J must be at least 4 \(got 3\)$"):
            Grid(3)

    @pytest.mark.parametrize("J", [8.5, "8", True])
    def test_rejects_non_integer_J(self, J):
        # 8.5 once built a grid whose first run stopped with a bare
        # ValueError about a (7.5,) shape; "8" raised a raw TypeError.
        with pytest.raises(ConfigurationError, match=r"grid J must be an integer"):
            Grid(J)


class TestSecondDifference:
    def test_zero(self):
        g = Grid(8)
        assert np.all(second_difference(np.zeros(7), g) == 0.0)

    def test_unit_vector_stencil(self):
        g = Grid(4)
        e2 = np.array([0.0, 1.0, 0.0])
        expected = np.array([1.0, -2.0, 1.0]) / g.h**2
        assert np.array_equal(second_difference(e2, g), expected)

    def test_sine_eigenvector(self):
        g = Grid(32)
        w = sine_mode(g)
        got = second_difference(w, g)
        assert np.allclose(got, d2_eigenvalue(g) * w, rtol=1e-12, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            second_difference(np.zeros(5), Grid(8))


class TestFourthDifference:
    def test_boundary_row_closure(self):
        # Odd ghost extension turns the first stencil row into (5, -4, 1).
        g = Grid(8)
        e1 = np.zeros(7)
        e1[0] = 1.0
        got = fourth_difference(e1, g) * g.h**4
        assert np.array_equal(got[:4], np.array([5.0, -4.0, 1.0, 0.0]))

    def test_sine_eigenvector(self):
        g = Grid(16)
        w = sine_mode(g)
        lam = d2_eigenvalue(g) ** 2
        assert np.allclose(fourth_difference(w, g), lam * w, rtol=1e-12)

    def test_equals_second_difference_squared(self, rng):
        g = Grid(24)
        for _ in range(20):
            w = rng.standard_normal(g.n_interior)
            direct = fourth_difference(w, g)
            composed = second_difference(second_difference(w, g), g)
            assert np.allclose(direct, composed, rtol=1e-13, atol=1e-13 * g.h**-4)

    def test_mirror_symmetry_commutes(self, rng):
        g = Grid(16)
        half = rng.standard_normal(8)
        w = np.concatenate([half[:-1], half[::-1]])  # symmetric about x = 1/2
        assert np.array_equal(w, w[::-1])
        d4 = fourth_difference(w, g)
        assert np.array_equal(d4, d4[::-1])


class TestNorms:
    def test_inner_ones(self):
        g = Grid(4)
        ones = np.ones(3)
        assert inner(ones, ones, g) == pytest.approx(0.75, abs=1e-15)

    def test_norm_zero(self):
        assert norm(np.zeros(7), Grid(8)) == 0.0

    def test_norm_rejects_wrong_shape(self):
        with pytest.raises(ValueError) as exc:
            norm(np.zeros(8), Grid(8))
        assert str(exc.value) == "interior vector has shape (8,), expected (7,)"

    def test_max_norm(self):
        assert max_norm(np.array([-3.0, 2.0])) == 3.0

    def test_cauchy_schwarz(self, rng):
        g = Grid(32)
        for _ in range(100):
            v = rng.standard_normal(g.n_interior)
            w = rng.standard_normal(g.n_interior)
            assert abs(inner(v, w, g)) <= norm(v, g) * norm(w, g) + 1e-14


def sine_decomposition(grid):
    """S diag(lambda^2) S from the sine transform and D2 eigenvalues."""
    S = sine_transform(np.eye(grid.n_interior))
    return S @ np.diag(second_difference_eigenvalues(grid) ** 2) @ S


class TestSineBasis:
    def test_transform_is_orthonormal_involution(self, rng):
        g = Grid(24)
        w = rng.standard_normal(g.n_interior)
        w_hat = sine_transform(w)
        assert np.allclose(sine_transform(w_hat), w, rtol=0, atol=1e-14)
        assert norm(w, g) == pytest.approx(np.sqrt(g.h) * np.linalg.norm(w_hat),
                                           rel=1e-14)

    @pytest.mark.parametrize("J", [4, 5, 17, 64])
    def test_transform_matches_sine_matrix(self, J):
        # Row by row along the last axis, against the DST-I matrix itself.
        j = np.arange(1, J)
        S = np.sqrt(2.0 / J) * np.sin(np.pi * np.outer(j, j) / J)
        assert np.allclose(sine_transform(np.eye(J - 1)), S, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 5, 23])
    def test_mode_k_is_eigenvector_k(self, k):
        g = Grid(24)
        mode = sine_mode(g, k)
        expected = np.zeros(g.n_interior)
        expected[k - 1] = np.sqrt(g.J / 2.0)
        assert np.allclose(sine_transform(mode), expected, rtol=0, atol=1e-13)
        lam = second_difference_eigenvalues(g)[k - 1]
        assert lam == pytest.approx(d2_eigenvalue(g, k), rel=1e-14)
        assert np.allclose(second_difference(mode, g), lam * mode,
                           rtol=0, atol=1e-12 * abs(lam))

    def test_bending_energy_matches_stencil(self, rng):
        # ||D2 W||^2 = h ||lambda W_hat||^2, the form every energy of the
        # package takes, against the stencil on the grid values.
        for J in (4, 17, 64):
            g = Grid(J)
            w = rng.standard_normal(g.n_interior)
            c = second_difference_eigenvalues(g) * sine_transform(w)
            assert g.h * (c @ c) == pytest.approx(norm(second_difference(w, g), g) ** 2,
                                                  rel=1e-13)


class TestBiharmonicMatrix:
    """The hinged D4 against its sine eigen-decomposition S diag(lambda^2) S,
    the form the stepper solves with; the dense oracle applies
    fourth_difference to the identity's columns."""

    def test_j4_dense_matrix(self):
        g = Grid(4)
        dense = dense_fourth_difference(g) * g.h**4
        expected = np.array([[5.0, -4.0, 1.0],
                             [-4.0, 6.0, -4.0],
                             [1.0, -4.0, 5.0]])
        assert np.array_equal(dense, expected)
        assert np.allclose(sine_decomposition(g) * g.h**4, expected,
                           rtol=0, atol=1e-13)

    def test_symmetry_exact(self):
        dense = dense_fourth_difference(Grid(16))
        assert np.array_equal(dense, dense.T)

    def test_apply_matches_fourth_difference(self, rng):
        g = Grid(20)
        lam2 = second_difference_eigenvalues(g) ** 2
        for _ in range(10):
            w = rng.standard_normal(g.n_interior)
            assert np.allclose(sine_transform(lam2 * sine_transform(w)),
                               fourth_difference(w, g),
                               rtol=1e-13, atol=1e-13 * g.h**-4)

    def test_solve_roundtrip(self, rng):
        # (D4 + 10 I) x = b solved by one division per sine mode.
        g = Grid(12)
        lam2 = second_difference_eigenvalues(g) ** 2
        x = rng.standard_normal(g.n_interior)
        b = fourth_difference(x, g) + 10.0 * x
        got = sine_transform(sine_transform(b) / (lam2 + 10.0))
        assert np.allclose(got, x, rtol=1e-10)


class TestConsistency:
    def test_fourth_difference_second_order(self):
        # For u = sin(pi x) the truncation error scales like h^2: halving h
        # shrinks it by 4 within 10%.
        errs = []
        for J in (16, 32):
            g = Grid(J)
            u = sine_mode(g)
            errs.append(max_norm(fourth_difference(u, g) - np.pi**4 * u))
        ratio = errs[0] / errs[1]
        assert abs(ratio - 4.0) <= 0.4
