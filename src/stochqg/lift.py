"""Harmonic boundary lifts: Delta~ u = 0 with prescribed top-face Neumann flux.

A flux is held on its nonzero horizontal columns (k, l) != (0, 0): the Neumann
problem is only solvable for mean-zero flux, so every lift is mean-zero.  On a
column the lift profile solves (F u')' - (k^2+l^2) u = 0 with u'(0) = 0 and
u'(2pi) the flux coefficient, discretized with the interior operator's
conservative stencil; the flux enters through the variational boundary term
F(2pi) * flux, imposed on u_z directly.

The boundary basis is the set of unit-L2 real Fourier modes on the top face,
ordered by increasing k^2+l^2 with (k, l)-lexicographic tie-breaking, cosine
before sine.  The noise covariance acts diagonally on this basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .operators import nonzero_columns
from .spectral import Grid, VerticalOperator, unit_mode_coef


@dataclass(frozen=True, eq=False)
class BoundaryFlux:
    """Top-face Neumann data: the nonzero entries of an (ny, nkx) rfft2 array of ``shape``.

    ``li``, ``ki`` and ``values``: their rows, columns and coefficients in row-major order.
    Zero values are dropped; a column outside ``shape``, repeated or (0, 0) is rejected.
    """

    shape: tuple[int, int]
    li: np.ndarray
    ki: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ny, nkx = shape = tuple(int(n) for n in self.shape)
        li, ki, vals = (np.ravel(a).tolist() for a in (self.li, self.ki, self.values))
        bad = [c for c in zip(li, ki, strict=True) if not (0 <= c[0] < ny and 0 <= c[1] < nkx)]
        if bad:
            raise ValueError(f"column {bad[0]} outside flux shape {shape}")
        cols = {l * nkx + k: v for l, k, v in zip(li, ki, vals, strict=True) if v}
        if 0 in cols:
            raise ValueError("flux on the (0, 0) column: the Neumann problem needs mean-zero flux")
        if len(cols) < sum(map(bool, vals)):
            raise ValueError("flux names a column twice")
        flat = np.array(sorted(cols), dtype=np.intp)
        self.__dict__.update(shape=shape, li=flat // nkx, ki=flat % nkx,
                             values=np.array([cols[f] for f in flat.tolist()], dtype=complex))

    @classmethod
    def from_dense(cls, coef) -> BoundaryFlux:
        """The flux of an arbitrary (ny, nkx) coefficient array."""
        coef = np.asarray(coef, dtype=complex)
        li, ki = np.nonzero(coef)
        return cls(coef.shape, li, ki, coef[li, ki])


@dataclass(frozen=True, order=True)
class BoundaryMode:
    """Real Fourier mode on the top face; sort order is the basis order."""

    kh2: int
    k: int
    l: int
    phase_index: int  # 0 = cos, 1 = sin

    @property
    def kind(self) -> str:
        return "cos" if self.phase_index == 0 else "sin"


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
    c = unit_mode_coef(mode.kind)
    # A k = 0 mode stores its conjugate column (0, -l) too.
    ls, values = ([mode.l, -mode.l], [c, np.conj(c)]) if mode.k == 0 else ([mode.l], [c])
    return BoundaryFlux((grid.ny, grid.nkx), [l % grid.ny for l in ls], [mode.k] * len(ls), values)


def solve_lift(grid: Grid, vop: VerticalOperator, flux: BoundaryFlux,
               support: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The spectral lift of a flux, solved on the flux's columns only.

    Dense, shape (nz, ny, nkx), or with ``support`` = (li, ki) index arrays
    its (nz, ncols) values on those columns, which must hold every flux
    column; a column's values are the same bits either way.  Columns with
    equal k^2+l^2 share one Cholesky-banded factorization.
    """
    if flux.shape != (grid.ny, grid.nkx):
        raise ValueError(f"flux shape {flux.shape} does not match grid")
    if support is None:
        out = np.zeros((grid.nz, grid.ny, grid.nkx), dtype=complex)
        target, at = out.reshape(grid.nz, -1), flux.li * grid.nkx + flux.ki  # a view of out
    else:
        slot = {col: j for j, col in enumerate(zip(*(np.asarray(s).tolist() for s in support)))}
        at = np.fromiter((slot.get(col, -1) for col in zip(flux.li.tolist(), flux.ki.tolist())),
                         np.intp)
        if -1 in at:
            raise ValueError("flux is nonzero off the support columns")
        out = target = np.zeros((grid.nz, len(support[0])), dtype=complex)

    groups: dict[float, list[int]] = {}
    for j, kh2 in enumerate((grid.ky[flux.li] ** 2 + grid.kx[flux.ki] ** 2).tolist()):
        groups.setdefault(kh2, []).append(j)
    ab = np.zeros((2, vop.nz))  # upper banded form of A_z + kh2 * W (symmetric positive definite)
    ab[0, 1:] = vop.stiff_off
    for kh2, group in groups.items():
        ab[1] = vop.stiff_diag + kh2 * vop.weights
        rhs = np.zeros((vop.nz, len(group)), dtype=complex)
        rhs[-1] = vop.f_top * flux.values[group]  # the variational boundary term F_top * g
        target[:, at[group]] = solveh_banded(ab, rhs)
    return out


def precompute_mode_lifts(grid: Grid, vop: VerticalOperator, n_modes: int) -> list[np.ndarray]:
    """Lifts of the first n_modes boundary-basis modes, in basis order."""
    return [solve_lift(grid, vop, mode_flux(grid, m)) for m in boundary_modes(grid, n_modes)]


def lift_interior_residual(grid: Grid, vop: VerticalOperator, coef: np.ndarray) -> float:
    """Relative interior residual of (F u')' - (k^2+l^2) u = 0, max over nonzero columns."""
    (li, ki), cols = nonzero_columns(coef)
    kh2 = grid.ky[li] ** 2 + grid.kx[ki] ** 2
    res = np.linalg.norm((vop.action @ cols + kh2 * cols)[1:-1], axis=0)
    opscale = float(np.max(np.abs(vop.action)))
    return float(np.max(res / ((kh2 + opscale) * np.linalg.norm(cols, axis=0)), initial=0.0))


def recovered_top_flux(grid: Grid, vop: VerticalOperator, coef: np.ndarray) -> np.ndarray:
    """Discrete u'(2pi) implied by the top boundary row, shape (ny, nkx).

    Rearranges the variational top row; equals the imposed flux to the
    stencil's order.
    """
    one_sided = -vop.stiff_off[-1] * (coef[-1] - coef[-2])
    return (one_sided + vop.weights[-1] * grid.kh2 * coef[-1]) / vop.f_top
