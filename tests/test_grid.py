"""Tests for the periodic-grid spectral solvers."""

import cmath
import math

import numpy as np
import pytest

from series_mirage import cli
from series_mirage.errors import DivergenceError, EvaluationOverflowError, InvalidInputError
from series_mirage.exact import exact_linear, exact_reduced_nls, remainder_closed_form
from series_mirage.expsum import ExpSum
from series_mirage.grid import (
    Grid,
    GridState,
    free_propagate_spectral,
    gaussian_packet,
    l2_norm,
    sample,
    spectral_dxx,
    split_step_nls,
    sup_error,
)
from series_mirage.methods import Equation, adm_series, partial_sum_eval

TWO_PI = 2.0 * math.pi


def plane_wave(k):
    return lambda x: cmath.exp(1j * k * x)


@pytest.fixture(scope="module")
def small_grid():
    return Grid(TWO_PI, 64)


@pytest.fixture(scope="module")
def packet_grid():
    return Grid(40.0, 512)


@pytest.fixture(scope="module")
def packet_state(packet_grid):
    return sample(packet_grid, gaussian_packet(20.0, 0.5))


class TestGridAndSampling:
    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            Grid(TWO_PI, 48)  # not a power of two
        with pytest.raises(InvalidInputError):
            Grid(TWO_PI, 4)  # too small
        with pytest.raises(InvalidInputError):
            Grid(-1.0, 64)

    def test_points_spacing(self, small_grid):
        pts = small_grid.points
        assert pts[0] == 0.0
        assert pts[1] == pytest.approx(TWO_PI / 64)
        assert len(pts) == 64

    def test_sample_constant(self, small_grid):
        st = sample(small_grid, lambda x: 1.0)
        assert np.all(st.values == 1.0)
        assert st.time == 0.0

    def test_sample_plane_wave(self, small_grid):
        st = sample(small_grid, plane_wave(1))
        expect = np.exp(1j * small_grid.points)
        assert np.max(np.abs(st.values - expect)) < 1e-15

    def test_gaussian_edge_negligible(self, packet_state):
        # periodization error: the packet at the domain edge is ~exp(-400)
        assert abs(packet_state.values[0]) < 1e-15

    @pytest.mark.parametrize("sigma", [1e-300, 1e-200])
    def test_gaussian_sigma_underflow_raises(self, sigma):
        with pytest.raises(EvaluationOverflowError, match="sigma"):
            gaussian_packet(0.0, sigma)

    def test_sample_nonfinite_names_point(self, small_grid):
        def bad(x):
            return float("nan") if x > 3.0 else 1.0

        with pytest.raises(InvalidInputError) as err:
            sample(small_grid, bad)
        assert "x=" in str(err.value)

    def test_state_validation(self, small_grid):
        with pytest.raises(InvalidInputError):
            GridState(small_grid, np.ones(32), 0.0)


class TestSpectralDxx:
    def test_single_mode(self, small_grid):
        st = sample(small_grid, plane_wave(1))
        out = spectral_dxx(st)
        assert np.max(np.abs(out.values + st.values)) < 1e-12

    def test_constant_maps_to_zero(self, small_grid):
        st = sample(small_grid, lambda x: 1.0)
        assert np.max(np.abs(spectral_dxx(st).values)) < 1e-12

    def test_mode_three_factor_nine(self, small_grid):
        st = sample(small_grid, plane_wave(3))
        out = spectral_dxx(st)
        # rounding in the transform is amplified by k_max^2 = 1024
        assert np.max(np.abs(out.values + 9.0 * st.values)) < 5e-12


class TestFreePropagation:
    def test_plane_wave_phase(self, small_grid):
        st = sample(small_grid, plane_wave(3))
        t = 0.7
        out = free_propagate_spectral(st, t)
        expect = np.exp(1j * (3 * small_grid.points + 9 * t))
        assert np.max(np.abs(out.values - expect)) < 1e-12
        assert out.time == pytest.approx(t)

    def test_zero_time_is_identity(self, packet_state):
        out = free_propagate_spectral(packet_state, 0.0)
        assert sup_error(out, packet_state) < 1e-15

    def test_unitarity(self, packet_state):
        n0 = l2_norm(packet_state)
        for t in (0.1, 1.0, 5.0, 10.0):
            assert abs(l2_norm(free_propagate_spectral(packet_state, t)) - n0) <= 1e-12

    def test_matches_exact_linear_for_grid_modes(self, small_grid):
        u0 = ExpSum(((1, 1j), (0.5, 3j), (0.25j, -2j)))
        st = sample(small_grid, lambda x: u0.eval(x))
        ev = exact_linear(u0)
        t = 0.9
        out = free_propagate_spectral(st, t)
        ref = sample(small_grid, lambda x: ev(x, t))
        assert sup_error(out, ref) <= 1e-12

    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_phase_overflow_raises(self, packet_state, t):
        # k^2 t leaves the double range for the largest grid wavenumbers
        with pytest.raises(EvaluationOverflowError, match=r"k\^2 t"):
            free_propagate_spectral(packet_state, t)


class TestSplitStep:
    def test_focusing_plane_wave(self, small_grid):
        st = sample(small_grid, plane_wave(1))
        out = split_step_nls(st, 2.0, 1e-3, 1000)
        ev = exact_reduced_nls(1.0, 2.0)
        ref = sample(small_grid, lambda x: ev(x, 1.0))
        assert sup_error(out, ref) <= 1e-10

    def test_defocusing_plane_wave(self, small_grid):
        st = sample(small_grid, plane_wave(1))
        out = split_step_nls(st, -2.0, 1e-3, 1000)
        ev = exact_reduced_nls(1.0, -2.0)
        ref = sample(small_grid, lambda x: ev(x, 1.0))
        assert sup_error(out, ref) <= 1e-10

    def test_gamma_zero_matches_free_propagator(self, packet_state):
        # with the nonlinearity off, the run is the pure linear flow of
        # i u_t + u_xx = 0, which is the free propagator at reversed time
        out = split_step_nls(packet_state, 0.0, 1e-3, 1000)
        ref = free_propagate_spectral(packet_state, -1.0)
        assert sup_error(out, ref) <= 1e-10

    def test_norm_conservation_many_steps(self):
        grid = Grid(40.0, 256)
        st = sample(grid, gaussian_packet(20.0, 0.5))
        out = split_step_nls(st, 1.0, 1e-4, 10_000)
        assert abs(l2_norm(out) - l2_norm(st)) <= 1e-10

    def test_second_order_convergence(self, packet_state):
        def run(dt):
            return split_step_nls(packet_state, 1.0, dt, round(1.0 / dt))

        ref = run(1.0 / 1600)
        e_coarse = sup_error(run(1.0 / 50), ref)
        e_fine = sup_error(run(1.0 / 200), ref)
        ratio = e_coarse / e_fine
        assert 12.0 <= ratio <= 20.0

    def test_divergence_reports_step(self, small_grid):
        st = sample(small_grid, plane_wave(1))
        with pytest.raises(DivergenceError) as err:
            split_step_nls(st, 1.0, float("inf"), 3)
        assert "step 0" in str(err.value)

    def test_invalid_dt(self, small_grid):
        st = sample(small_grid, plane_wave(1))
        with pytest.raises(InvalidInputError):
            split_step_nls(st, 1.0, 0.0, 3)
        with pytest.raises(InvalidInputError):
            split_step_nls(st, 1.0, 1e-3, 0)


class TestNorms:
    def test_constant_norm(self, small_grid):
        st = sample(small_grid, lambda x: 1.0)
        assert l2_norm(st) == pytest.approx(math.sqrt(TWO_PI), rel=1e-13)

    def test_plane_wave_norm(self, small_grid):
        st = sample(small_grid, plane_wave(1))
        assert l2_norm(st) == pytest.approx(math.sqrt(TWO_PI), rel=1e-13)

    def test_normalized_gaussian(self, packet_state):
        assert l2_norm(packet_state) == pytest.approx(1.0, abs=1e-10)

    def test_sup_error_trivial(self, small_grid):
        a = sample(small_grid, plane_wave(1))
        assert sup_error(a, a) == 0.0
        shifted = GridState(a.grid, a.values + 1e-3, a.time)
        assert sup_error(a, shifted) == pytest.approx(1e-3, rel=1e-12)

    def test_sup_error_grid_mismatch(self, small_grid, packet_grid):
        a = sample(small_grid, plane_wave(1))
        b = sample(packet_grid, lambda x: 1.0)
        with pytest.raises(InvalidInputError):
            sup_error(a, b)

    def test_partial_sum_tail_on_grid(self, small_grid):
        # focusing cubic series at order 8 vs the exact plane wave at t=1:
        # bounded by the |b|=1 factorial tail e/9! ~ 7.5e-6
        sol = adm_series(ExpSum.single(1, 1j), Equation.full_nls(2.0), 8)
        approx = sample(small_grid, lambda x: partial_sum_eval(sol, 8, x, 1.0))
        ev = exact_reduced_nls(1.0, 2.0)
        ref = sample(small_grid, lambda x: ev(x, 1.0))
        bound = remainder_closed_form(1.0, 1.0, 8, 1.0)
        assert bound == pytest.approx(7.49e-6, rel=1e-2)
        assert sup_error(approx, ref) <= bound


class TestCsvExport:
    def test_header_carries_grid_parameters(self, small_grid):
        st = sample(small_grid, plane_wave(1))
        text = cli._grid_state_csv(st)
        lines = text.splitlines()
        assert lines[0] == "# L=6.283185307179586 n=64 time=0.0"
        assert lines[1] == "x,re_u,im_u,abs_u"
        assert len(lines) == 2 + 64
        first = lines[2].split(",")
        assert first[0] == "0.0"
        assert float(first[3]) == pytest.approx(1.0)
