"""Tests for the finite-dimensional Hermitian evolution."""

import math

import numpy as np
import pytest
import scipy.linalg

from series_mirage import cli
from series_mirage.errors import EvaluationOverflowError, InvalidInputError
from series_mirage.exact import remainder_closed_form
from series_mirage.operators import (
    OperatorSpec,
    diagonal_operator,
    eigen_project,
    exact_evolve,
    laplacian_dirichlet,
    series_evolve,
)

FLOAT_SLACK = 1e-13


@pytest.fixture(scope="module")
def lap16():
    return laplacian_dirichlet(16, 1.0)


def dense_matrix(op):
    cols = [op.apply(np.eye(op.dim)[:, k]) for k in range(op.dim)]
    return np.array(cols, dtype=np.complex128).T


class TestLaplacian:
    def test_two_by_two_eigenvalues(self):
        op = laplacian_dirichlet(2, 1.0)
        assert np.allclose(sorted(op.eigenvalues), [-3.0, -1.0], atol=1e-14)

    def test_eigenpairs_consistent(self, lap16):
        for k in (0, 7, 15):
            f = lap16.eigenvectors[:, k]
            res = np.max(np.abs(lap16.apply(f) - lap16.eigenvalues[k] * f))
            assert res <= 1e-12

    def test_trace_identity(self, lap16):
        assert np.sum(lap16.eigenvalues) == pytest.approx(-2 * 16, rel=1e-12)

    def test_spacing_scales_eigenvalues(self):
        op = laplacian_dirichlet(8, 0.5)
        ref = laplacian_dirichlet(8, 1.0)
        assert np.allclose(op.eigenvalues, 4.0 * ref.eigenvalues, rtol=1e-13)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInputError):
            laplacian_dirichlet(1, 1.0)
        with pytest.raises(InvalidInputError):
            laplacian_dirichlet(8, 0.0)

    def test_bad_eigenpairs_rejected(self):
        op = laplacian_dirichlet(4, 1.0)
        with pytest.raises(InvalidInputError):
            OperatorSpec(4, op.apply, -np.abs(op.eigenvalues) * 2, op.eigenvectors)

    @pytest.mark.parametrize("n, h", [(256, 0.01), (16, 0.001)])
    def test_small_spacing_builds(self, n, h):
        # rounding in apply(f) grows with rho ~ 4/h^2, past an absolute 1e-10
        op = laplacian_dirichlet(n, h)
        rho = float(np.max(np.abs(op.eigenvalues)))
        assert 3.9 / h**2 < rho < 4 / h**2
        for k in (0, n // 2, n - 1):
            f = op.eigenvectors[:, k]
            assert np.max(np.abs(op.apply(f) - op.eigenvalues[k] * f)) <= 1e-13 * rho

    @pytest.mark.parametrize("n, h", [(256, 0.01), (16, 0.001)])
    def test_wrong_eigenpairs_rejected_at_small_spacing(self, n, h):
        op = laplacian_dirichlet(n, h)
        swapped = op.eigenvalues.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        for values in (-op.eigenvalues, swapped):
            with pytest.raises(InvalidInputError, match="stored eigenpair"):
                OperatorSpec(n, op.apply, values, op.eigenvectors)

    @pytest.mark.parametrize("h", [1e-160, 1e-200])
    def test_overflowing_spacing_raises(self, h):
        # 1/h^2 is inf at 1e-160; h^2 underflows to 0 at 1e-200
        with pytest.raises(EvaluationOverflowError, match="1/h"):
            laplacian_dirichlet(8, h)


class TestSeriesEvolve:
    def test_order_zero_is_identity(self, lap16):
        u0 = np.linspace(0, 1, 16)
        out = series_evolve(lap16, u0, 1.0, 0)
        assert np.max(np.abs(out - u0)) == 0.0

    def test_eigenstate_factorizes(self, lap16):
        t = 1.0
        for k in (0, 9):
            f = lap16.eigenvectors[:, k]
            a = lap16.eigenvalues[k]
            for order in (3, 12, 25):
                out = series_evolve(lap16, f, t, order)
                scalar = sum((-1j * t * a) ** n / math.factorial(n) for n in range(order + 1))
                assert np.max(np.abs(out - scalar * f)) <= 1e-12

    def test_two_level_partial_sum_value(self):
        # dim 2, eigenvalue -1: partial sum 1 + i + i^2/2 = 0.5 + i
        op = laplacian_dirichlet(2, 1.0)
        f1 = op.eigenvectors[:, 0]
        assert op.eigenvalues[0] == pytest.approx(-1.0)
        out = series_evolve(op, f1, 1.0, 2)
        assert np.max(np.abs(out - (0.5 + 1j) * f1)) <= 1e-14

    def test_linearity(self, lap16):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a, b = 0.3 - 0.1j, 1.2j
        out = series_evolve(lap16, a * u + b * v, 0.8, 15)
        parts = a * series_evolve(lap16, u, 0.8, 15) + b * series_evolve(lap16, v, 0.8, 15)
        assert np.max(np.abs(out - parts)) <= 1e-12

    def test_overflow_reports_order(self):
        op = diagonal_operator([1e8, -1e8])
        with pytest.raises(EvaluationOverflowError) as err:
            series_evolve(op, np.ones(2), 1e4, 60)
        assert "n=" in str(err.value)

    def test_order_cap(self, lap16):
        with pytest.raises(InvalidInputError):
            series_evolve(lap16, np.ones(16), 1.0, 65)


class TestEigenExpansion:
    def test_project_single_eigenstate(self, lap16):
        c = eigen_project(lap16, lap16.eigenvectors[:, 2])
        expect = np.zeros(16)
        expect[2] = 1.0
        assert np.max(np.abs(c - expect)) <= 1e-13

    def test_project_sum_of_two(self, lap16):
        u0 = lap16.eigenvectors[:, 0] + lap16.eigenvectors[:, 1]
        c = eigen_project(lap16, u0)
        assert c[0] == pytest.approx(1.0, abs=1e-13)
        assert c[1] == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(c[2:])) <= 1e-13

    def test_parseval(self, lap16):
        rng = np.random.default_rng(5)
        u0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        c = eigen_project(lap16, u0)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(np.sum(np.abs(u0) ** 2), rel=1e-12)

    def test_exact_evolve_identity_at_zero(self, lap16):
        rng = np.random.default_rng(6)
        u0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.max(np.abs(exact_evolve(lap16, u0, 0.0) - u0)) <= 1e-13

    def test_exact_evolve_eigenstate_phase(self, lap16):
        k, t = 4, 1.3
        f = lap16.eigenvectors[:, k]
        out = exact_evolve(lap16, f, t)
        expect = np.exp(-1j * t * lap16.eigenvalues[k]) * f
        assert np.max(np.abs(out - expect)) <= 1e-13

    def test_unitarity(self, lap16):
        rng = np.random.default_rng(7)
        u0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = exact_evolve(lap16, u0, 2.7)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(u0), rel=1e-12)

    def test_composition(self, lap16):
        rng = np.random.default_rng(8)
        u0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        two_step = exact_evolve(lap16, exact_evolve(lap16, u0, 0.4), 0.9)
        one_step = exact_evolve(lap16, u0, 1.3)
        assert np.max(np.abs(two_step - one_step)) <= 1e-11

    def test_against_expm_oracle(self, lap16):
        # independent route: dense Pade matrix exponential
        rng = np.random.default_rng(9)
        u0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a = dense_matrix(lap16)
        expect = scipy.linalg.expm(-1j * 1.0 * a) @ u0
        assert np.max(np.abs(exact_evolve(lap16, u0, 1.0) - expect)) <= 1e-12


class TestConvergence:
    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_series_error_respects_tail_bound(self, lap16, t):
        rng = np.random.default_rng(10)
        u0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        u0 = u0 / np.linalg.norm(u0)
        exact = exact_evolve(lap16, u0, t)
        rho = float(np.max(np.abs(lap16.eigenvalues)))
        for order in range(41):
            err = float(np.linalg.norm(series_evolve(lap16, u0, t, order) - exact))
            bound = remainder_closed_form(rho, 1.0, order, t)
            assert err <= bound + FLOAT_SLACK


class TestDiagonalOperator:
    def test_diagonal_evolution(self):
        op = diagonal_operator([1.0, -2.0, 0.5])
        u0 = np.array([1.0, 1.0, 1.0])
        out = exact_evolve(op, u0, 2.0)
        expect = np.exp(-1j * 2.0 * np.array([1.0, -2.0, 0.5]))
        assert np.max(np.abs(out - expect)) <= 1e-13

    def test_invalid_diagonal(self):
        with pytest.raises(InvalidInputError):
            diagonal_operator([[1.0, 2.0]])


class TestCsvExport:
    def test_format(self):
        text = cli._vector_csv(np.array([1 + 2j, -0.5j]))
        assert text.splitlines() == ["index,re,im", "0,1.0,2.0", "1,-0.0,-0.5"]
