import numpy as np
import pytest

from heun_racah import (anticommutator, commutator, dense_spectrum,
                        residual_norm)
from heun_racah.core import guard, pole_margin
from heun_racah.errors import DimensionError, OracleError, ParameterDomainError

from conftest import X0, Y0, Z0


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def tridiagonal(rng, n):
    """A random real symmetric tridiagonal matrix."""
    off = rng.standard_normal(n - 1)
    return np.diag(rng.standard_normal(n)) + np.diag(off, 1) + np.diag(off, -1)


def assert_same_set(got, want, rtol):
    """Each of two eigenvalue lists lies within rtol * max|want| of the other."""
    tol = rtol * np.abs(want).max()
    for xs, ys in ((got, want), (want, got)):
        assert max(np.abs(ys - x).min() for x in xs) <= tol


class TestCommutator:
    def test_reference_pair(self):
        # hand evaluation: X0 Y0 - Y0 X0
        np.testing.assert_allclose(commutator(X0, Y0), Z0, atol=1e-12)

    def test_self_commutator_is_zero(self):
        rng = np.random.default_rng(0)
        M = random_matrix(rng, 5)
        np.testing.assert_array_equal(commutator(M, M), np.zeros((5, 5)))

    def test_identity_commutes(self):
        rng = np.random.default_rng(1)
        M = random_matrix(rng, 4)
        np.testing.assert_allclose(commutator(M, np.eye(4)), 0, atol=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_matrix(rng, 6), random_matrix(rng, 6)
            assert residual_norm(commutator(a, b), -commutator(b, a)) <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutator(np.eye(2), np.eye(3))


class TestAnticommutator:
    def test_identity_gives_twice(self):
        rng = np.random.default_rng(3)
        M = random_matrix(rng, 3)
        np.testing.assert_allclose(anticommutator(M, np.eye(3)), 2 * M, atol=1e-14)

    def test_reference_pair(self):
        expected = np.array([[52.125, -22.5], [-40.0, 97.125]])
        np.testing.assert_allclose(anticommutator(X0, Y0), expected, atol=1e-12)

    def test_zero_matrix(self):
        rng = np.random.default_rng(4)
        M = random_matrix(rng, 3)
        np.testing.assert_array_equal(anticommutator(M, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_difference_is_twice_ba(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = random_matrix(rng, 5), random_matrix(rng, 5)
            assert residual_norm(anticommutator(a, b) - commutator(a, b), 2 * b @ a) <= 1e-13


class TestResidualNorm:
    def test_equal_inputs(self):
        assert residual_norm(X0, X0) == 0.0

    def test_identity_vs_zero(self):
        # ||I - 0||_F = sqrt(2), floored denominator sqrt(2) -> exactly 1
        assert residual_norm(np.eye(2), np.zeros((2, 2))) == pytest.approx(1.0)

    def test_zero_vs_zero(self):
        assert residual_norm(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            residual_norm(np.eye(2), np.eye(4))


class TestDenseSpectrum:
    def test_diagonal(self):
        out = dense_spectrum(Y0)
        np.testing.assert_allclose(out, [3.75, 8.75], atol=1e-13)

    def test_rotationlike(self):
        # characteristic polynomial lambda^2 + 144 = 0; compare as a set
        # since the +-1e-15 real-part noise makes the tie-break arbitrary
        out = dense_spectrum(Z0)
        got = sorted(out, key=lambda v: v.imag)
        np.testing.assert_allclose(got, [-12j, 12j], atol=1e-10)

    def test_one_by_one(self):
        out = dense_spectrum([[2.5 - 1j]])
        np.testing.assert_allclose(out, [2.5 - 1j])

    def test_sorting_is_lexicographic(self):
        rng = np.random.default_rng(6)
        vals = dense_spectrum(random_matrix(rng, 8))
        key = [(v.real, v.imag) for v in vals]
        assert key == sorted(key)

    def test_trace_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            M = random_matrix(rng, 7)
            vals = dense_spectrum(M)
            assert abs(vals.sum() - np.trace(M)) <= 1e-11 * max(1.0, abs(np.trace(M)))

    def test_real_matrix_gives_exact_conjugate_pairs(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((8, 8)).astype(np.complex128)
        vals = dense_spectrum(M)
        assert vals.dtype == np.complex128
        assert np.count_nonzero(vals.imag) >= 2
        np.testing.assert_array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))

    def test_complex_matrix_keeps_the_complex_solver(self):
        # one nonzero imaginary entry is enough to stay on the complex path
        rng = np.random.default_rng(10)
        for M in (random_matrix(rng, 8), rng.standard_normal((8, 8)) + 0j):
            M[3, 5] += 1e-300j
            want = np.linalg.eigvals(M)
            want = want[np.lexsort((want.imag, want.real))]
            np.testing.assert_array_equal(dense_spectrum(M), want)

    def test_real_and_complex_solvers_agree(self):
        # a real symmetric matrix has a real spectrum; it still comes back complex128
        rng = np.random.default_rng(11)
        for M in (rng.standard_normal((8, 8)), tridiagonal(rng, 12)):
            vals = dense_spectrum(M)
            assert vals.dtype == np.complex128
            assert_same_set(vals, np.linalg.eigvals(M.astype(np.complex128)), rtol=1e-12)

    def test_nonfinite_is_surfaced(self):
        M = np.eye(3, dtype=complex)
        M[0, 0] = np.nan
        with pytest.raises(OracleError):
            dense_spectrum(M)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            dense_spectrum(np.eye(65))


class TestGuard:
    def test_returns_the_denominator(self):
        assert guard(2 - 1j, "den") == 2 - 1j
        assert guard(1e-11, "den") == 1e-11

    def test_below_the_floor_is_a_named_domain_error(self):
        with pytest.raises(ParameterDomainError, match="coeff pole: u = 1"):
            guard(1e-13, "coeff pole: u = 1")

    def test_pole_margin_raises_the_floor_for_its_block(self):
        with pole_margin(1e-3):
            with pytest.raises(ParameterDomainError):
                guard(5e-4, "den")
            with pole_margin(1e-6):  # an inner block never lowers the floor
                with pytest.raises(ParameterDomainError):
                    guard(5e-4, "den")
            assert guard(2e-3, "den") == 2e-3
        assert guard(5e-4, "den") == 5e-4

    def test_floor_restored_when_the_block_raises(self):
        with pytest.raises(ParameterDomainError):
            with pole_margin(1e-3):
                guard(0.0, "den")
        assert guard(5e-4, "den") == 5e-4
