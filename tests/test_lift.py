"""Harmonic boundary lifts and the boundary-mode basis."""

import tracemalloc

import numpy as np
import pytest

from stochqg.lift import (
    BoundaryFlux,
    BoundaryMode,
    boundary_modes,
    lift_interior_residual,
    mode_flux,
    precompute_mode_lifts,
    recovered_top_flux,
    solve_lift,
)
from stochqg.operators import inner_h
from stochqg.spectral import build_vertical_operator, inverse_transform, make_profile, Grid

from conftest import dense_coef, half_plane_band


def analytic_profile(z, kh):
    """Continuum solution of u'' = kh^2 u, u'(0) = 0, u'(2pi) = 1 (F == 1)."""
    return np.cosh(kh * z) / (kh * np.sinh(kh * 2 * np.pi))


class TestSolveLift:
    def test_support_columns_are_the_dense_columns(self, grid, vop):
        # Several columns, two of them on one kh2 shell, and support columns
        # in no particular order, some of them zero.
        rng = np.random.default_rng(5)
        coef = np.zeros((grid.ny, grid.nkx), dtype=complex)
        for li, ki in [(1, 0), (grid.ny - 1, 0), (0, 1), (3, 2), (grid.ny - 2, 3), (2, 3)]:
            coef[li, ki] = complex(*rng.standard_normal(2))
        dense = solve_lift(grid, vop, BoundaryFlux.from_dense(coef))
        li = np.array([3, 0, 5, grid.ny - 2, 1, grid.ny - 1, 2])
        ki = np.array([2, 1, 5, 3, 0, 0, 3])
        cols = solve_lift(grid, vop, BoundaryFlux.from_dense(coef), (li, ki))
        assert cols.shape == (grid.nz, li.size)
        assert cols.tobytes() == np.ascontiguousarray(dense[:, li, ki]).tobytes()
        with pytest.raises(ValueError, match="off the support columns"):
            solve_lift(grid, vop, BoundaryFlux.from_dense(coef), (li[1:], ki[1:]))

    def test_zero_flux(self, grid, vop):
        flux = BoundaryFlux.from_dense(np.zeros((grid.ny, grid.nkx), dtype=complex))
        lift = solve_lift(grid, vop, flux)
        assert np.all(lift == 0.0)

    def test_analytic_cosh_profile(self, grid, vop):
        coef = np.zeros((grid.ny, grid.nkx), dtype=complex)
        coef[0, 1] = 1.0  # mode (k, l) = (1, 0), unit coefficient
        lift = solve_lift(grid, vop, BoundaryFlux.from_dense(coef))
        got = lift[:, 0, 1].real
        expect = analytic_profile(grid.z, 1.0)
        # O(dz^2) at the desk resolution; the convergence test pins the order.
        assert np.max(np.abs(got - expect)) < 2.5e-2 * np.max(np.abs(expect))

    def test_second_order_convergence(self):
        errs = []
        sizes = [17, 33, 65, 129]
        for nz in sizes:
            grid = Grid(nx=8, ny=8, nz=nz)
            vop = build_vertical_operator(make_profile(1.0, 1.0, nz), nz)
            coef = np.zeros((grid.ny, grid.nkx), dtype=complex)
            coef[0, 1] = 1.0
            lift = solve_lift(grid, vop, BoundaryFlux.from_dense(coef))
            expect = analytic_profile(grid.z, 1.0)
            errs.append(np.max(np.abs(lift[:, 0, 1].real - expect)))
        slopes = [
            np.log(errs[i] / errs[i + 1]) / np.log((sizes[i + 1] - 1) / (sizes[i] - 1))
            for i in range(len(errs) - 1)
        ]
        assert all(abs(s - 2.0) < 0.2 for s in slopes)

    def test_linearity(self, grid, vop):
        rng = np.random.default_rng(30)
        c1 = np.zeros((grid.ny, grid.nkx), dtype=complex)
        c2 = np.zeros_like(c1)
        c1[2, 3] = rng.standard_normal() + 1j * rng.standard_normal()
        c2[5, 1] = rng.standard_normal() + 1j * rng.standard_normal()
        a, b = 0.6, -2.2
        combo = solve_lift(grid, vop, BoundaryFlux.from_dense(a * c1 + b * c2))
        parts = (a * solve_lift(grid, vop, BoundaryFlux.from_dense(c1))
                 + b * solve_lift(grid, vop, BoundaryFlux.from_dense(c2)))
        assert np.max(np.abs(combo - parts)) < 1e-14

    def test_rejects_mean_flux(self, grid, vop):
        coef = np.zeros((grid.ny, grid.nkx), dtype=complex)
        coef[0, 0] = 1.0
        with pytest.raises(ValueError):
            solve_lift(grid, vop, BoundaryFlux.from_dense(coef))

    def test_interior_residual(self, grid, vop):
        rng = np.random.default_rng(31)
        coef = (rng.standard_normal((grid.ny, grid.nkx))
                + 1j * rng.standard_normal((grid.ny, grid.nkx)))
        coef[0, 0] = 0.0
        lift = solve_lift(grid, vop, BoundaryFlux.from_dense(coef))
        assert lift_interior_residual(grid, vop, lift) < 1e-10

    def test_flux_recovery(self, grid, vop):
        coef = np.zeros((grid.ny, grid.nkx), dtype=complex)
        coef[0, 1] = 1.0
        lift = solve_lift(grid, vop, BoundaryFlux.from_dense(coef))
        rec = recovered_top_flux(grid, vop, lift)
        # Exactly the imposed data at the solved column (the boundary row is
        # solved exactly); zero elsewhere.
        assert abs(rec[0, 1] - 1.0) < 1e-12
        rec[0, 1] = 0.0
        assert np.max(np.abs(rec)) < 1e-12

    def test_monotone_toward_forced_boundary(self, grid, vop):
        coef = np.zeros((grid.ny, grid.nkx), dtype=complex)
        coef[3, 2] = 1.0
        lift = solve_lift(grid, vop, BoundaryFlux.from_dense(coef))
        prof = np.abs(lift[:, 3, 2])
        assert np.all(np.diff(prof) > 0.0)

    def test_mean_zero(self, grid, vop, ctx):
        rng = np.random.default_rng(32)
        coef = (rng.standard_normal((grid.ny, grid.nkx))
                + 1j * rng.standard_normal((grid.ny, grid.nkx)))
        coef[0, 0] = 0.0
        lift = solve_lift(grid, vop, BoundaryFlux.from_dense(coef))
        # Zero (0,0) column entirely: horizontal mean vanishes at every level.
        assert np.max(np.abs(lift[:, 0, 0])) == 0.0


class TestBoundaryFlux:
    """The flux on its nonzero columns, in row-major order."""

    @pytest.mark.parametrize("mode", [BoundaryMode(4, 0, -2, 1), BoundaryMode(2, 1, -1, 0)]
                             + boundary_modes(Grid(32, 32, 17), 12))
    def test_from_dense_of_mode_flux(self, grid, mode):
        flux = mode_flux(grid, mode)
        again = BoundaryFlux.from_dense(dense_coef(flux))
        assert again.shape == flux.shape == (grid.ny, grid.nkx)
        for name in ("li", "ki", "values"):
            assert getattr(again, name).tobytes() == getattr(flux, name).tobytes()
        assert flux.li.dtype == flux.ki.dtype == np.intp
        assert len(flux.values) == (2 if mode.k == 0 else 1)
        assert list(flux.li * grid.nkx + flux.ki) == sorted(flux.li * grid.nkx + flux.ki)

    def test_entries_sorted_and_zeros_dropped(self):
        flux = BoundaryFlux((4, 3), [3, 0, 1, 2, 0], [0, 2, 1, 2, 0], [1j, 2.0, 0.0, -0.0, 0.0])
        assert flux.shape == (4, 3)
        assert (flux.li.tolist(), flux.ki.tolist()) == ([0, 3], [2, 0])
        assert flux.values.tolist() == [2.0, 1j]
        empty = BoundaryFlux.from_dense(np.zeros((4, 3)))
        assert empty.li.size == empty.ki.size == empty.values.size == 0

    @pytest.mark.parametrize("li, ki, values, message", [
        ([4], [1], [1.0], r"column \(4, 1\) outside flux shape \(4, 3\)"),
        ([1], [3], [0.0], r"column \(1, 3\) outside flux shape \(4, 3\)"),
        ([-1], [1], [1.0], r"column \(-1, 1\) outside flux shape"),
        ([1, 0], [1, 0], [1.0, 0.5], r"flux on the \(0, 0\) column: .* mean-zero"),
        ([1, 1], [2, 2], [1.0, 2.0], "flux names a column twice"),
    ])
    def test_rejects(self, li, ki, values, message):
        with pytest.raises(ValueError, match=message):
            BoundaryFlux((4, 3), li, ki, values)

    def test_rejects_the_mean_mode(self, grid):
        with pytest.raises(ValueError, match=r"\(0, 0\) column"):
            mode_flux(grid, BoundaryMode(0, 0, 0, 0))


class TestBoundaryModes:
    def test_ordering(self, grid):
        modes = boundary_modes(grid, 12)
        kh2s = [m.kh2 for m in modes]
        assert kh2s == sorted(kh2s)
        # First shell: kh2 == 1 gives (0,1) and (1,0), cos and sin each.
        first = [(m.k, m.l, m.kind) for m in modes[:4]]
        assert first == [(0, 1, "cos"), (0, 1, "sin"), (1, 0, "cos"), (1, 0, "sin")]

    def test_unit_norm_and_real(self, grid, ctx):
        for mode in boundary_modes(grid, 8):
            flux = mode_flux(grid, mode)
            # Lift the face coefficients into a z-constant 3-D field and
            # integrate |.|^2 over one face via the H machinery: the face has
            # area (2pi)^2 while the H norm integrates over 2pi in z as well.
            f3 = np.repeat(dense_coef(flux)[None, :, :], grid.nz, axis=0)
            face_sq = inner_h(ctx, f3, f3) / (2 * np.pi)
            assert abs(face_sq - 1.0) < 1e-12
            phys = inverse_transform(grid, f3)
            assert np.max(np.abs(phys.imag if np.iscomplexobj(phys) else 0.0)) == 0.0

    @pytest.mark.parametrize("k, l", [(16, 0), (-1, 0), (40, 0), (1, 16), (1, -16)])
    def test_mode_flux_rejects_out_of_band(self, grid, k, l):
        # The Nyquist column and row would drop the flux silently; beyond them it would not index.
        with pytest.raises(ValueError, match="out of range"):
            mode_flux(grid, BoundaryMode(k * k + l * l, k, l, 0))

    def test_too_many_modes(self, grid):
        with pytest.raises(ValueError):
            boundary_modes(grid, 10_000)

    @pytest.mark.parametrize("n_modes", [-1, 441])
    def test_count_outside_band_rejected(self, grid, n_modes):
        # 440 real modes lie in the 32x32 dealias band.
        with pytest.raises(ValueError, match=f"boundary mode count {n_modes} outside \\[0, 440\\]"):
            boundary_modes(grid, n_modes)

    @pytest.mark.parametrize("shape", [(8, 8, 5), (16, 48, 9), (32, 32, 17), (48, 16, 9)])
    def test_prefix_of_the_sorted_basis(self, shape):
        grid = Grid(*shape)
        every = sorted(BoundaryMode(k * k + l * l, k, l, phase) for k, l in half_plane_band(grid)
                       if (k, l) != (0, 0) for phase in (0, 1))
        for n in range(len(every) + 1):
            assert boundary_modes(grid, n) == every[:n]
        with pytest.raises(ValueError, match=f"outside \\[0, {len(every)}\\]"):
            boundary_modes(grid, len(every) + 1)

    def test_few_modes_of_a_large_grid_cost_no_band(self):
        # 1024x1024 holds 231,530 half-plane wavevectors; 8 modes need 5 of them.
        grid = Grid(1024, 1024, 5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            modes = boundary_modes(grid, 8)
            grid.check_mode_count(100)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert [(m.k, m.l) for m in modes[::2]] == [(0, 1), (1, 0), (1, -1), (1, 1)]
        assert peak < 0.1e6, peak


class TestPrecomputedLifts:
    def test_residual_invariant(self, grid, vop):
        for lift in precompute_mode_lifts(grid, vop, 8):
            assert lift_interior_residual(grid, vop, lift) < 1e-10

    def test_mode_10_matches_analytic(self, grid, vop):
        modes = boundary_modes(grid, 4)
        lifts = precompute_mode_lifts(grid, vop, 4)
        idx = next(i for i, m in enumerate(modes) if (m.k, m.l, m.kind) == (1, 0, "cos"))
        amp = 1.0 / (2 * np.pi * np.sqrt(2.0))
        got = lifts[idx][:, 0, 1].real
        expect = amp * analytic_profile(grid.z, 1.0)
        assert np.max(np.abs(got - expect)) < 2.5e-2 * np.max(np.abs(expect))

    def test_pairwise_h_orthogonal(self, grid, vop, ctx):
        lifts = precompute_mode_lifts(grid, vop, 8)
        for i in range(len(lifts)):
            for j in range(i + 1, len(lifts)):
                ip = inner_h(ctx, lifts[i], lifts[j])
                ni = np.sqrt(inner_h(ctx, lifts[i], lifts[i]))
                nj = np.sqrt(inner_h(ctx, lifts[j], lifts[j]))
                assert abs(ip) < 1e-12 * ni * nj
