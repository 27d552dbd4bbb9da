"""Vertical operator, transforms, and mean-zero machinery."""

import numpy as np
import pytest
import scipy.fft

from stochqg.spectral import (
    Grid,
    StratificationProfile,
    build_vertical_operator,
    compute_lambda1,
    forward_transform,
    hermitian_defect,
    inverse_transform,
    level_quadrature,
    make_profile,
    project_mean_zero,
    weighted_vertical_mean,
)

from conftest import half_plane_band


def dense_eig_oracle(vop):
    """Independent route: dense symmetric eigensolver on the assembled matrix."""
    nz = vop.nz
    m = np.zeros((nz, nz))
    m[np.arange(nz), np.arange(nz)] = vop.diag
    m[np.arange(nz - 1), np.arange(1, nz)] = vop.offdiag
    m[np.arange(1, nz), np.arange(nz - 1)] = vop.offdiag
    return np.linalg.eigvalsh(m)


class TestVerticalOperator:
    def test_continuum_eigenvalues_f1(self):
        # F == 1 on (0, 2pi) with Neumann ends: eigenfunctions cos(m z / 2),
        # eigenvalues (m/2)^2, so mu_1 = 1/4 and mu_2 = 1.
        vop = build_vertical_operator(make_profile(1.0, 1.0, 257), 257)
        assert abs(vop.mu[1] - 0.25) < 1e-3
        assert abs(vop.mu[2] - 1.0) < 1e-3

    def test_matches_dense_oracle(self):
        vop = build_vertical_operator(make_profile(1.0, 1.0, 257), 257)
        mu_oracle = dense_eig_oracle(vop)
        assert np.allclose(vop.mu, np.maximum(mu_oracle, 0.0), atol=1e-10)

    def test_nullmode(self, vop):
        assert vop.mu[0] <= 1e-12
        v0 = vop.phi[:, 0]
        assert np.max(np.abs(v0 - v0[0])) < 1e-10 * abs(v0[0])

    def test_linear_scaling_in_f(self):
        # F == 4 scales every eigenvalue by 4 (N halved with f0 = 1).
        v1 = build_vertical_operator(make_profile(1.0, 1.0, 33), 33)
        v4 = build_vertical_operator(make_profile(1.0, 0.5, 33), 33)
        assert np.allclose(v4.mu, 4.0 * v1.mu, rtol=1e-12, atol=1e-12)

    def test_symmetric_tridiagonal_exact(self, vop):
        # The stored matrix is symmetric by construction; the action matrix is
        # self-adjoint under the quadrature weights.
        nz = vop.nz
        m = np.zeros((nz, nz))
        m[np.arange(nz), np.arange(nz)] = vop.diag
        m[np.arange(nz - 1), np.arange(1, nz)] = vop.offdiag
        m[np.arange(1, nz), np.arange(nz - 1)] = vop.offdiag
        assert np.array_equal(m, m.T)
        wl = vop.weights[:, None] * vop.action
        assert np.max(np.abs(wl - wl.T)) < 1e-12 * np.max(np.abs(wl))

    def test_eigenvector_orthonormality(self, vop):
        g = vop.phi.T @ (vop.weights[:, None] * vop.phi)
        assert np.max(np.abs(g - np.eye(vop.nz))) < 1e-12

    def test_action_consistent_with_eigenpairs(self, vop):
        for m in (0, 1, 5):
            r = vop.action @ vop.phi[:, m] - vop.mu[m] * vop.phi[:, m]
            assert np.max(np.abs(r)) < 1e-11 * max(vop.mu[m], 1.0)

    def test_mu1_second_order_convergence(self):
        errs = []
        sizes = [17, 33, 65, 129]
        for nz in sizes:
            vop = build_vertical_operator(make_profile(1.0, 1.0, nz), nz)
            errs.append(abs(vop.mu[1] - 0.25))
        slopes = [
            np.log(errs[i] / errs[i + 1]) / np.log((sizes[i + 1] - 1) / (sizes[i] - 1))
            for i in range(len(errs) - 1)
        ]
        assert all(abs(s - 2.0) < 0.2 for s in slopes)

    def test_rejects_bad_stratification(self):
        with pytest.raises(ValueError):
            StratificationProfile(f0=1.0, n_of_z=np.array([1.0, -1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            make_profile(0.0, 1.0, 17)
        with pytest.raises(ValueError):
            build_vertical_operator(make_profile(1.0, 1.0, 17), 9)


class TestLambda1:
    def test_f1(self, vop):
        # mu_1 < 1, so the vertical mode wins.
        oracle = dense_eig_oracle(vop)
        assert abs(compute_lambda1(vop) - min(1.0, oracle[1])) < 1e-12

    def test_strong_stratification(self):
        # F == 100: mu_1 ~ 25 > 1, so the first horizontal mode wins.
        vop = build_vertical_operator(make_profile(10.0, 1.0, 33), 33)
        assert compute_lambda1(vop) == 1.0

    def test_positive(self, vop):
        assert compute_lambda1(vop) > 0.0


class TestTransforms:
    def test_zero(self, grid):
        f = np.zeros((grid.nz, grid.ny, grid.nx))
        assert np.all(forward_transform(grid, f) == 0.0)

    def test_sin_x_single_pair(self, grid):
        f = np.sin(grid.x)[None, None, :] * np.ones((grid.nz, grid.ny, 1))
        fhat = forward_transform(grid, f)
        # Stored side of the conjugate pair at (k, l) = (1, 0): magnitude 1/2.
        assert np.allclose(fhat[:, 0, 1], -0.5j, atol=1e-12)
        fhat[:, 0, 1] = 0.0
        assert np.max(np.abs(fhat)) < 1e-12

    def test_round_trip_random(self, grid):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((grid.nz, grid.ny, grid.nx))
        back = inverse_transform(grid, forward_transform(grid, f))
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("nx,ny,nz", [(8, 8, 5), (16, 32, 9), (48, 16, 33)])
    def test_round_trip_sizes(self, nx, ny, nz):
        grid = Grid(nx=nx, ny=ny, nz=nz)
        rng = np.random.default_rng(nx + ny + nz)
        f = rng.standard_normal((nz, ny, nx))
        back = inverse_transform(grid, forward_transform(grid, f))
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_size_mismatch(self, grid):
        with pytest.raises(ValueError):
            forward_transform(grid, np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            inverse_transform(grid, np.zeros((3, 3, 3), dtype=complex))

    @pytest.mark.parametrize("lo, hi", [(0, 1), (3, 5), (4, 17), (16, 17), (0, 17)])
    def test_level_block_matches_whole_field(self, grid, lo, hi):
        rng = np.random.default_rng(13)
        f = rng.standard_normal((grid.nz, grid.ny, grid.nx))
        fhat = forward_transform(grid, f)
        block = forward_transform(grid, f[lo:hi])
        assert block.tobytes() == fhat[lo:hi].tobytes()
        back = inverse_transform(grid, fhat[lo:hi])
        assert back.tobytes() == inverse_transform(grid, fhat)[lo:hi].tobytes()

    @pytest.mark.parametrize("shape", [(0,), (18,), (17, 32), (2, 17, 32, 32),
                                       (2, 32, 31), (2, 31, 32)])
    def test_level_block_shape_errors(self, grid, shape):
        if len(shape) == 1:
            shape = (shape[0], grid.ny, grid.nx)
        with pytest.raises(ValueError):
            forward_transform(grid, np.zeros(shape))
        spec_shape = shape[:-1] + (grid.nkx,) if shape[-1] == grid.nx else shape
        with pytest.raises(ValueError):
            inverse_transform(grid, np.zeros(spec_shape, dtype=complex))

    def test_hermitian_from_real(self, grid):
        rng = np.random.default_rng(11)
        fhat = forward_transform(grid, rng.standard_normal((grid.nz, grid.ny, grid.nx)))
        assert hermitian_defect(grid, fhat) < 1e-14


def _scale_after(grid, f):
    """The transform pair with the 1/(nx ny) scaling applied as a separate pass."""
    fhat = scipy.fft.rfft2(f, axes=(1, 2))
    fhat /= grid.nx * grid.ny
    back = scipy.fft.irfft2(fhat, s=(grid.ny, grid.nx), axes=(1, 2))
    back *= grid.nx * grid.ny
    return fhat, back


class TestTransformScaling:
    """The transforms' own scaling against the scale-after formulation."""

    @pytest.mark.parametrize("n, nz, levels", [(32, 17, 17), (64, 33, 33), (128, 65, 2)])
    def test_power_of_two_grids_bitwise(self, n, nz, levels):
        # 128x128 is checked on a 2-level block, as the blocked Jacobian uses it.
        grid = Grid(nx=n, ny=n, nz=nz)
        f = np.random.default_rng(n).standard_normal((levels, n, n))
        fhat, back = _scale_after(grid, f)
        assert np.array_equal(forward_transform(grid, f), fhat)
        assert np.array_equal(inverse_transform(grid, fhat), back)

    def test_other_grid_within_4_ulp(self):
        grid = Grid(nx=24, ny=24, nz=9)
        f = np.random.default_rng(24).standard_normal((grid.nz, grid.ny, grid.nx))
        fhat, back = _scale_after(grid, f)
        ulp = np.finfo(float).eps
        assert np.max(np.abs(forward_transform(grid, f) - fhat)) <= 4 * ulp * np.max(np.abs(fhat))
        back_err = np.max(np.abs(inverse_transform(grid, fhat) - back))
        assert back_err <= 4 * ulp * np.max(np.abs(back))


class _NumpyFFTBackend:
    """A ``scipy.fft`` backend that returns new ``numpy.fft`` arrays and never works in place."""

    __ua_domain__ = "numpy.scipy.fft"

    @staticmethod
    def __ua_function__(method, args, kwargs):
        for key in ("overwrite_x", "workers", "plan"):
            kwargs.pop(key, None)
        fn = getattr(np.fft, method.__name__, None)
        return NotImplemented if fn is None else fn(*args, **kwargs)


# (levels, ny, nx): ny a power of two or not, whole fields and level blocks.
INTO_SHAPES = pytest.mark.parametrize(
    "shape", [(17, 32, 32), (9, 16, 48), (9, 48, 16), (5, 24, 20), (3, 100, 36), (2, 128, 128),
              (6, 30, 12)], ids=lambda shape: "x".join(map(str, shape)))


class TestTransformsInto:
    """``out=`` gives scipy's 2-D transforms bit for bit, whatever ny is."""

    @INTO_SHAPES
    def test_bitwise_scipy(self, shape):
        levels, ny, nx = shape
        grid = Grid(nx=nx, ny=ny, nz=max(levels, 5))
        f = np.random.default_rng(ny * nx).standard_normal(shape)
        ref = scipy.fft.rfft2(f, axes=(1, 2), norm="forward")
        back = scipy.fft.irfft2(ref, s=(ny, nx), axes=(1, 2), norm="forward")
        assert forward_transform(grid, f).tobytes() == ref.tobytes()
        out = np.empty(ref.shape, dtype=complex)
        assert forward_transform(grid, f, out=out) is out
        assert out.tobytes() == ref.tobytes()
        # Without out the input is left alone; with out it is scratch.
        assert inverse_transform(grid, out).tobytes() == back.tobytes()
        assert out.tobytes() == ref.tobytes()
        phys = np.empty(shape)
        assert inverse_transform(grid, out, out=phys) is phys
        assert phys.tobytes() == back.tobytes()

    @INTO_SHAPES
    def test_independent_of_scipy_fft_backend(self, shape):
        # A backend whose transforms return new arrays leaves the bits alone.
        levels, ny, nx = shape
        grid = Grid(nx=nx, ny=ny, nz=max(levels, 5))
        f = np.random.default_rng(ny * nx).standard_normal(shape)
        ref = scipy.fft.rfft2(f, axes=(1, 2), norm="forward")
        back = scipy.fft.irfft2(ref, s=(ny, nx), axes=(1, 2), norm="forward")
        with scipy.fft.set_backend(_NumpyFFTBackend, only=True):
            assert forward_transform(grid, f).tobytes() == ref.tobytes()
            out = np.empty(ref.shape, dtype=complex)
            assert forward_transform(grid, f, out=out).tobytes() == ref.tobytes()
            assert inverse_transform(grid, ref.copy()).tobytes() == back.tobytes()
            phys = np.empty(shape)
            assert inverse_transform(grid, ref.copy(), out=phys).tobytes() == back.tobytes()


# Square and non-square grids: on the latter kmax_x != kmax_y.
BAND_SHAPES = [(8, 8, 5), (16, 48, 9), (48, 16, 9), (32, 32, 17)]


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(nx=31, ny=32, nz=17)
        with pytest.raises(ValueError):
            Grid(nx=6, ny=8, nz=17)
        with pytest.raises(ValueError):
            Grid(nx=32, ny=32, nz=4)

    def test_dealias_mask(self, grid):
        mask = grid.dealias_mask
        # Everything strictly above nx/3 is zeroed (spec rule), and the kept
        # band obeys 3*kmax < nx so triads cannot alias.
        kmax = (grid.nx - 1) // 3
        assert mask[0, kmax]
        assert not mask[0, kmax + 1]
        assert not mask[grid.ny // 2, 0]
        assert 3 * kmax < grid.nx

    def test_zweights_sum(self, grid):
        assert abs(grid.zweights.sum() - 2 * np.pi) < 1e-14

    @pytest.mark.parametrize("nz", [9, 17, 33, 65])
    def test_one_level_quadrature(self, nz):
        # The grid and the vertical operator read one spacing and one set of weights.
        dz, w = level_quadrature(nz)
        assert dz == 2 * np.pi / (nz - 1)
        assert w[0] == w[-1] == 0.5 * dz and np.all(w[1:-1] == dz)
        grid = Grid(nx=8, ny=8, nz=nz)
        vop = build_vertical_operator(make_profile(1.0, 1.0, nz), nz)
        assert grid.dz == vop.dz == dz
        assert np.array_equal(grid.zweights, w) and np.array_equal(vop.weights, w)

    def test_kh2(self, grid, ctx):
        assert np.array_equal(grid.kh2, grid.ky[:, None] ** 2 + grid.kx[None, :] ** 2)

    @pytest.mark.parametrize("shape", BAND_SHAPES + [(128, 128, 65)])
    def test_half_plane_size_closed_form(self, shape):
        grid = Grid(*shape)
        band = half_plane_band(grid)
        assert grid.half_plane_size == len(band)
        assert grid.half_plane(len(band)) == band

    @pytest.mark.parametrize("shape", BAND_SHAPES)
    def test_half_plane_disc_is_the_smallest_holding_count(self, shape):
        grid = Grid(*shape)
        band = half_plane_band(grid)
        kh2 = sorted(k * k + l * l for k, l in band)
        assert grid.half_plane(0) == []
        for count in range(1, len(band) + 2):
            r2 = kh2[min(count, len(band)) - 1]
            assert grid.half_plane(count) == [(k, l) for k, l in band if k * k + l * l <= r2]

    @pytest.mark.parametrize("l, k", [(16, 1), (-16, 1), (0, 16), (0, -1), (0, 40)])
    def test_check_column_rejects_out_of_band(self, grid, l, k):
        with pytest.raises(ValueError, match="out of range"):
            grid.check_column(l, k)
        grid.check_column(15 if l else 0, 15 if k else 0)  # the band's edge is in


class TestMeanZero:
    def test_projection(self, grid, ctx):
        rng = np.random.default_rng(3)
        fhat = forward_transform(grid, 1.0 + rng.standard_normal((grid.nz, grid.ny, grid.nx)))
        proj = project_mean_zero(grid, fhat)
        assert abs(weighted_vertical_mean(grid.zweights, proj[:, 0, 0])) < 1e-14
        # Only the (0,0) column changed.
        diff = proj - fhat
        diff[:, 0, 0] = 0.0
        assert np.max(np.abs(diff)) == 0.0
