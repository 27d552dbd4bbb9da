"""Harmonic boundary lifts: Delta~ u = 0 with prescribed top-face Neumann flux.

For each horizontal mode (k, l) != (0, 0) the lift profile solves the
two-point problem (F u')' - (k^2+l^2) u = 0 with u'(0) = 0 and u'(2pi) equal
to the flux coefficient, discretized with the same conservative stencil as
the interior operator; the flux enters through the variational boundary term
F(2pi) * flux, imposed on u_z directly.  The (0, 0) mode is excluded (the
Neumann problem is only solvable for mean-zero flux), so every lift is
mean-zero.

The boundary basis is the set of unit-L2 real Fourier modes on the top face,
ordered by increasing k^2+l^2 with (k, l)-lexicographic tie-breaking, cosine
before sine.  The noise covariance acts diagonally on this basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .spectral import Grid, VerticalOperator, unit_mode_coef

_COS, _SIN = "cos", "sin"


@dataclass(frozen=True)
class BoundaryFlux:
    """Top-face Neumann data as normalized rfft2 coefficients, shape (ny, nkx)."""

    coef: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=complex))


@dataclass(frozen=True, order=True)
class BoundaryMode:
    """Real Fourier mode on the top face; sort order is the basis order."""

    kh2: int
    k: int
    l: int
    phase_index: int  # 0 = cos, 1 = sin

    @property
    def kind(self) -> str:
        return _COS if self.phase_index == 0 else _SIN


def boundary_modes(grid: Grid, n_modes: int) -> list[BoundaryMode]:
    """The first n_modes real boundary-basis modes inside the dealias band."""
    available = 2 * (grid.half_plane_size - 1)  # cos and sin of every (k, l) != (0, 0)
    if not 0 <= n_modes <= available:
        raise ValueError(f"boundary mode count {n_modes} outside [0, {available}] (in band)")
    # The first n_modes lie in the smallest disc of (n_modes + 1) // 2 wavevectors
    # besides (0, 0); BoundaryMode orders by its fields, so sorting the keys ranks them.
    keys = sorted((k * k + l * l, k, l, phase)
                  for k, l in grid.half_plane((n_modes + 1) // 2 + 1) if (k, l) != (0, 0)
                  for phase in (0, 1))
    return [BoundaryMode(*key) for key in keys[:n_modes]]


def mode_flux(grid: Grid, mode: BoundaryMode) -> BoundaryFlux:
    """Unit-L2(top face) coefficients of a real boundary mode (|l| < ny/2, 0 <= k < nx/2)."""
    grid.check_column(mode.l, mode.k)
    coef = np.zeros((grid.ny, grid.nkx), dtype=complex)
    c = unit_mode_coef(mode.kind)
    li = mode.l % grid.ny
    coef[li, mode.k] = c
    if mode.k == 0:
        coef[(-mode.l) % grid.ny, 0] = np.conj(c)
    return BoundaryFlux(coef)


def _banded(vop: VerticalOperator, kh2: float) -> np.ndarray:
    """Upper banded form of A_z + kh2 * W (symmetric positive definite)."""
    ab = np.zeros((2, vop.nz))
    ab[0, 1:] = vop.stiff_off
    ab[1, :] = vop.stiff_diag + kh2 * vop.weights
    return ab


def solve_lift(grid: Grid, vop: VerticalOperator, flux: BoundaryFlux,
               support: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The spectral lift of an arbitrary mean-zero flux.

    Dense, shape (nz, ny, nkx), or with ``support`` = (li, ki) index arrays
    its (nz, ncols) values on those columns, which must hold every nonzero
    flux column; a column's values are the same bits either way.  Columns
    with equal k^2+l^2 share one Cholesky-banded factorization.
    """
    coef = flux.coef
    if coef.shape != (grid.ny, grid.nkx):
        raise ValueError(f"flux shape {coef.shape} does not match grid")
    if coef[0, 0] != 0.0:
        raise ValueError("nonzero (0, 0) flux: incompatible Neumann problem")

    nonzero = [(int(li), int(ki)) for li, ki in np.argwhere(coef != 0.0)]
    if support is None:
        out = np.zeros((grid.nz, grid.ny, grid.nkx), dtype=complex)
        cols = out.reshape(grid.nz, -1)  # a view: column (li, ki) is li * nkx + ki
        slot = {(li, ki): li * grid.nkx + ki for li, ki in nonzero}
    else:
        out = cols = np.zeros((grid.nz, len(support[0])), dtype=complex)
        slot = {(int(li), int(ki)): j for j, (li, ki) in enumerate(zip(*support))}
        if not slot.keys() >= set(nonzero):
            raise ValueError("flux is nonzero off the support columns")

    kh2_cols = grid.kh2
    scale = vop.f_top  # variational boundary term of (A_z + kh2*W) u = F_top*g*e_top
    groups: dict[float, list[tuple[int, int]]] = {}
    for li, ki in nonzero:
        groups.setdefault(float(kh2_cols[li, ki]), []).append((li, ki))

    for kh2, group in groups.items():
        ab = _banded(vop, kh2)
        rhs = np.zeros((vop.nz, len(group)), dtype=complex)
        rhs[-1, :] = scale * np.array([coef[li, ki] for li, ki in group])
        sol = solveh_banded(ab, rhs)
        for c, col in enumerate(group):
            cols[:, slot[col]] = sol[:, c]
    return out


def precompute_mode_lifts(grid: Grid, vop: VerticalOperator, n_modes: int) -> list[np.ndarray]:
    """Lifts of the first n_modes boundary-basis modes, in basis order."""
    return [solve_lift(grid, vop, mode_flux(grid, m)) for m in boundary_modes(grid, n_modes)]


def lift_interior_residual(grid: Grid, vop: VerticalOperator, coef: np.ndarray) -> float:
    """Relative interior residual of (F u')' - (k^2+l^2) u = 0, max over columns."""
    kh2 = grid.kh2
    res = (vop.action @ coef.reshape(vop.nz, -1)).reshape(coef.shape)
    res = res + kh2[None, :, :] * coef
    worst = 0.0
    opscale = float(np.max(np.abs(vop.action)))
    for li, ki in np.argwhere(np.any(coef != 0.0, axis=0)):
        col = coef[:, li, ki]
        r = res[1:-1, li, ki]
        denom = (kh2[li, ki] + opscale) * float(np.linalg.norm(col))
        worst = max(worst, float(np.linalg.norm(r)) / denom)
    return worst


def recovered_top_flux(grid: Grid, vop: VerticalOperator, coef: np.ndarray) -> np.ndarray:
    """Discrete u'(2pi) implied by the top boundary row, shape (ny, nkx).

    Rearranges the variational top row; equals the imposed flux to the
    stencil's order.
    """
    one_sided = -vop.stiff_off[-1] * (coef[-1] - coef[-2])
    return (one_sided + vop.weights[-1] * grid.kh2 * coef[-1]) / vop.f_top
