"""Shared fixtures and field helpers for the test suite."""

import numpy as np
import pytest

from stochqg.spectral import (
    Grid,
    build_vertical_operator,
    forward_transform,
    make_profile,
    project_mean_zero,
)
from stochqg.operators import build_context, to_modes, from_modes


DESK_GRID = dict(nx=32, ny=32, nz=17)


@pytest.fixture(scope="session")
def grid():
    return Grid(**DESK_GRID)


@pytest.fixture(scope="session")
def vop(grid):
    return build_vertical_operator(make_profile(1.0, 1.0, grid.nz), grid.nz)


@pytest.fixture(scope="session")
def ctx(grid, vop):
    return build_context(grid, vop, nu=0.5, beta=1.0)


def random_field(ctx, rng, decay=1.5, dealias=True):
    """Random smooth mean-zero spectral field (Hermitian by construction)."""
    grid = ctx.grid
    phys = rng.standard_normal((grid.nz, grid.ny, grid.nx))
    fhat = forward_transform(grid, phys)
    c = to_modes(ctx, fhat)
    c *= (1.0 + ctx.lam) ** (-decay)
    fhat = from_modes(ctx, c)
    if dealias:
        fhat = fhat * grid.dealias_mask[None, :, :]
    return project_mean_zero(grid, fhat)


def mode_xy(grid, k, l, phase="cos"):
    """Physical field cos/sin(kx + ly), z-constant."""
    x = grid.x[None, None, :]
    y = grid.y[None, :, None]
    f = np.cos(k * x + l * y) if phase == "cos" else np.sin(k * x + l * y)
    return np.broadcast_to(f, (grid.nz, grid.ny, grid.nx)).copy()


def half_plane_band(grid):
    """Brute force: the (k, l) columns of the dealias mask with k > 0, or k == 0 and l >= 0.

    Read off ``grid.dealias_mask``, in (k, l) order, as a reference for
    ``Grid.half_plane``.
    """
    li, ki = np.nonzero(grid.dealias_mask)
    ls = grid.ky[li].astype(int)
    return sorted((int(k), int(l)) for k, l in zip(ki, ls) if k > 0 or l >= 0)


def dense_coef(flux):
    """The (ny, nkx) coefficient array of a BoundaryFlux: its values scattered on its columns."""
    coef = np.zeros(flux.shape, dtype=complex)
    coef[flux.li, flux.ki] = flux.values
    return coef
