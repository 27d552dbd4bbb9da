"""Discretization of the cube (0, 2pi)^3 for the stratified QG model.

Horizontal directions are periodic and carried by a collocation Fourier basis
(numpy rfft2 layout, coefficients normalized so a unit mode has coefficient
1/2 per conjugate side).  The vertical direction uses endpoint-inclusive
levels with a conservative second-order discretization of the stratified
operator -(F(z) u')' under homogeneous Neumann ends, assembled so that the
operator is exactly symmetric after the trapezoid-weight similarity
transform.  Field layout conventions:

    physical:  real    (nz, ny, nx)     values at (z_j, y, x) nodes
    spectral:  complex (nz, ny, nx//2+1) rfft2 over axes (1, 2), normalized

The normalization 1/(nx*ny) sits on the forward transform, one scaling
pass between its x and y passes; the inverse makes none (``norm="forward"``).

The mean-zero state space drops the (k, l) = (0, 0) vertically-constant
component; ``remove_mean`` removes it exactly, in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class StratificationProfile:
    """Coriolis parameter f0 and buoyancy frequency N(z) on the levels.

    F(z) = f0^2 / N(z)^2 is the vertical coefficient of the stratified
    Laplacian.  N and F must be positive and finite at every level.
    """

    f0: float
    n_of_z: np.ndarray
    f_of_z: np.ndarray = field(init=False)

    def __post_init__(self):
        n = np.asarray(self.n_of_z, dtype=float)
        if n.ndim != 1 or n.size < 2:
            raise ValueError("N(z) must be a 1-D array with at least 2 levels")
        if not np.all(np.isfinite(n)) or np.any(n <= 0.0):
            raise ValueError("N(z) must be positive and finite at every level")
        if self.f0 == 0.0:
            raise ValueError("f0 must be nonzero")
        f = (self.f0 / n) ** 2
        if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
            raise ValueError("F(z) = (f0/N)^2 must be positive and finite")
        object.__setattr__(self, "n_of_z", n)
        object.__setattr__(self, "f_of_z", f)

    @property
    def nz(self) -> int:
        return self.n_of_z.size


def level_quadrature(nz: int) -> tuple[float, np.ndarray]:
    """Spacing dz = 2pi/(nz-1) of nz endpoint-inclusive levels, and their trapezoid weights."""
    dz = TWO_PI / (nz - 1)
    w = np.full(nz, dz)
    w[0] = w[-1] = 0.5 * dz
    return dz, w


def make_profile(f0: float, n_of_z, nz: int) -> StratificationProfile:
    """Build a profile from a constant N (a scalar or a 1-entry table) or a per-level table."""
    n = np.atleast_1d(np.asarray(n_of_z, dtype=float))
    if n.size == 1:
        n = np.full(nz, n[0])
    elif n.size != nz:
        raise ValueError(f"N table has {n.size} entries, expected nz={nz}")
    return StratificationProfile(f0=float(f0), n_of_z=n)


@dataclass(frozen=True)
class Grid:
    """Collocation grid on (0, 2pi)^3.

    nx, ny are even horizontal mode counts; nz is the number of
    endpoint-inclusive vertical levels (spacing dz = 2pi/(nz-1)).  The
    dealias mask keeps |k| <= floor((n-1)/3) per horizontal direction,
    which guarantees 3*kmax < n so the collocation trilinear identities
    cancel exactly (zeroing at least everything beyond n/3).
    """

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        if self.nx % 2 or self.ny % 2 or self.nx < 8 or self.ny < 8:
            raise ValueError("nx, ny must be even and >= 8")
        if self.nz < 5:
            raise ValueError("nz must be >= 5")

    @property
    def nkx(self) -> int:
        return self.nx // 2 + 1

    @property
    def dz(self) -> float:
        return level_quadrature(self.nz)[0]

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (TWO_PI / self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * (TWO_PI / self.ny)

    @property
    def z(self) -> np.ndarray:
        return np.arange(self.nz) * self.dz

    @property
    def kx(self) -> np.ndarray:
        """Non-negative wavenumbers of the rfft axis, shape (nkx,)."""
        return np.arange(self.nkx, dtype=float)

    @property
    def ky(self) -> np.ndarray:
        """Signed wavenumbers of the full fft axis, shape (ny,)."""
        return np.fft.fftfreq(self.ny, d=1.0 / self.ny)

    @property
    def kh2(self) -> np.ndarray:
        """k^2 + l^2 of every stored column, shape (ny, nkx)."""
        return self.ky[:, None] ** 2 + self.kx[None, :] ** 2

    @property
    def kmax(self) -> tuple[int, int]:
        """Largest |kx|, |ky| inside the dealias band."""
        return tuple((n - 1) // 3 for n in (self.nx, self.ny))

    @property
    def dealias_mask(self) -> np.ndarray:
        kmax_x, kmax_y = self.kmax
        return (np.abs(self.ky)[:, None] <= kmax_y) & (self.kx[None, :] <= kmax_x)

    def check_column(self, l: int, k: int) -> None:
        """Raise unless (l, k) is a stored, non-Nyquist column: |l| < ny/2, 0 <= k < nx/2."""
        if 2 * abs(l) >= self.ny:
            raise ValueError(f"l out of range (|l| < ny/2 = {self.ny // 2}, Nyquist excluded)")
        if not 0 <= k < self.nkx - 1:
            raise ValueError(f"k out of range (0 <= k < nx/2 = {self.nx // 2}, Nyquist excluded)")

    def check_mode(self, m: int, l: int, k: int) -> None:
        """Raise unless 0 <= m < nz, (l, k) passes ``check_column`` and (m, l, k) != (0, 0, 0)."""
        if not 0 <= m < self.nz:
            raise ValueError(f"m out of range [0, nz = {self.nz})")
        self.check_column(l, k)
        if (m, l, k) == (0, 0, 0):
            raise ValueError("(0, 0, 0) is the excluded null mode")

    def check_mode_count(self, count: int) -> None:
        """Raise unless 1 <= count <= the number of resolvable real eigenmodes."""
        n_total = self.nz * (2 * self.half_plane_size - 1) - 1  # (0, 0): no sine; no (0, 0, 0)
        if not 1 <= count <= n_total:
            raise ValueError(f"mode count {count} outside [1, {n_total}] (the resolvable modes)")

    @property
    def half_plane_size(self) -> int:
        """The number of half-plane wavevectors in the dealias band (see ``half_plane``)."""
        kmax_x, kmax_y = self.kmax
        return kmax_x * (2 * kmax_y + 1) + kmax_y + 1

    def half_plane(self, count: int) -> list[tuple[int, int]]:
        """The first wavevectors of the half plane, by k^2 + l^2, in (k, l) order.

        The half plane is the (k, l) of the dealias band with k > 0, or k == 0
        and l >= 0: one wavevector per conjugate pair, (0, 0) included.  Listed
        are those inside the smallest disc k^2 + l^2 <= r^2 that holds at least
        ``count`` of them (the whole band if it holds fewer).  The disc is found
        by doubling r, so the work grows with ``count``, not with the band.
        """
        kmax_x, kmax_y = self.kmax
        if count < 1:
            return []
        r = math.isqrt(count) + 1  # the half disc of radius r holds about (pi/2) r^2
        while True:
            rx, ry = min(r, kmax_x), min(r, kmax_y)
            disc = [(k, l) for k in range(rx + 1) for l in range(0 if k == 0 else -ry, ry + 1)
                    if k * k + l * l <= r * r]
            if len(disc) >= count or r * r >= kmax_x ** 2 + kmax_y ** 2:  # or the whole band
                break
            r *= 2
        cut = sorted(k * k + l * l for k, l in disc)[min(count, len(disc)) - 1]
        return [(k, l) for k, l in disc if k * k + l * l <= cut]

    @property
    def column_weight(self) -> np.ndarray:
        """Multiplicity of each stored rfft column in full-spectrum sums."""
        w = np.full(self.nkx, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        return w

    @property
    def zweights(self) -> np.ndarray:
        """Trapezoid quadrature weights on the levels (sum = 2pi)."""
        return level_quadrature(self.nz)[1]


@dataclass(frozen=True, eq=False)
class VerticalOperator:
    """Discrete L = -(F(z) d/dz .)' with homogeneous Neumann ends.

    ``stiff_diag``/``stiff_off`` hold the tridiagonal stiffness matrix A_z,
    so L = W^-1 A_z (W = trapezoid weights).  ``diag``/``offdiag`` hold the
    symmetric tridiagonal matrix M = W^(1/2) L W^(-1/2); its eigenpairs give
    L phi_m = mu_m phi_m with phi_m orthonormal under the level quadrature.
    ``action`` is the dense matrix of L on level values.
    """

    profile: StratificationProfile
    nz: int
    dz: float
    weights: np.ndarray          # (nz,) trapezoid weights
    stiff_diag: np.ndarray       # (nz,) main diagonal of A_z
    stiff_off: np.ndarray        # (nz-1,) off diagonal of A_z, -F_{j+1/2}/dz
    diag: np.ndarray             # (nz,) main diagonal of M
    offdiag: np.ndarray          # (nz-1,) off diagonal of M
    action: np.ndarray           # (nz, nz) dense action of L on level values
    mu: np.ndarray               # (nz,) eigenvalues, ascending, mu[0] == 0
    yhat: np.ndarray             # (nz, nz) orthonormal eigenvectors of M (columns)
    phi: np.ndarray              # (nz, nz) eigenvectors of L, quadrature-orthonormal
    sqrtw: np.ndarray            # (nz,)

    @property
    def f_top(self) -> float:
        return float(self.profile.f_of_z[-1])


def build_vertical_operator(profile: StratificationProfile, nz: int) -> VerticalOperator:
    """Assemble and diagonalize the vertical part of the stratified Laplacian.

    The discretization comes from the quadratic form
    a(u, v) = sum_j F_{j+1/2} (u_{j+1}-u_j)(v_{j+1}-v_j)/dz, so L = W^-1 A_z is
    symmetric w.r.t. the weighted inner product, positive semidefinite, and has
    an exact constant nullvector; the boundary rows are the ghost-point Neumann
    closure of the conservative stencil.
    """
    if profile.nz != nz:
        raise ValueError(f"profile has {profile.nz} levels, expected {nz}")
    F = profile.f_of_z

    dz, w = level_quadrature(nz)
    fh = 0.5 * (F[:-1] + F[1:])        # F at half levels

    # Stiffness matrix A_z (tridiagonal, rows sum to zero exactly).
    stencil = fh / dz
    a_diag = np.zeros(nz)
    a_diag[:-1] += stencil
    a_diag[1:] += stencil
    a_off = -stencil

    sqrtw = np.sqrt(w)
    m_diag = a_diag / w
    m_off = a_off / (sqrtw[:-1] * sqrtw[1:])

    mu, yhat = eigh_tridiagonal(m_diag, m_off)
    mu = np.maximum(mu, 0.0)
    mu[0] = 0.0
    # Fix eigenvector signs deterministically (largest entry positive).
    pick = np.argmax(np.abs(yhat), axis=0)
    signs = np.sign(yhat[pick, np.arange(nz)])
    signs[signs == 0] = 1.0
    yhat = yhat * signs

    phi = yhat / sqrtw[:, None]
    # Dense action of L on level values: W^(-1/2) M W^(1/2).
    m_dense = np.diag(m_diag) + np.diag(m_off, 1) + np.diag(m_off, -1)
    action = (m_dense * sqrtw[None, :]) / sqrtw[:, None]

    return VerticalOperator(
        profile=profile, nz=nz, dz=dz, weights=w,
        stiff_diag=a_diag, stiff_off=a_off,
        diag=m_diag, offdiag=m_off, action=action,
        mu=mu, yhat=yhat, phi=phi, sqrtw=sqrtw,
    )


def compute_lambda1(vop: VerticalOperator) -> float:
    """Smallest A-eigenvalue on the mean-zero subspace: min(1, mu_1).

    Candidates are the first nonzero horizontal mode (k^2+l^2 = 1 on the
    2pi-periodic cube, constant profile) and the first nonconstant vertical
    mode on the (0, 0) column.
    """
    return float(min(1.0, vop.mu[1]))


def _check_levels(grid: Grid, shape: tuple, trailing: tuple, what: str) -> None:
    """Raise unless shape is (levels, *trailing) with 1 <= levels <= nz."""
    if len(shape) != 3 or shape[1:] != trailing or not 1 <= shape[0] <= grid.nz:
        raise ValueError(f"{what} shape {shape} does not match grid "
                         f"{(grid.nz, *trailing)} or a block of its levels")


def forward_transform(grid: Grid, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Physical (levels, ny, nx) real field -> normalized spectral coefficients.

    ``levels`` is nz for a whole field or any smaller count for a block of
    levels; each level is transformed on its own, so a block's result is
    bitwise the same levels of the whole-field result.  numpy's x pass writes
    into ``out``, one scaling pass follows, and numpy's y pass works in place
    there: the three give scipy ``rfft2``'s bits on every shape, numpy's
    ``rfftn`` not when ny is no power of 2.
    """
    f = np.asarray(f)
    _check_levels(grid, f.shape, (grid.ny, grid.nx), "field")
    out = np.fft.rfft(f, axis=2, out=out)
    out *= 1.0 / (grid.nx * grid.ny)
    return np.fft.fft(out, axis=1, out=out)


def inverse_transform(grid: Grid, fhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized spectral coefficients -> physical real field, whole or a level block.

    With ``out`` the field is written there and ``fhat`` is used as scratch.
    """
    fhat = np.asarray(fhat)
    _check_levels(grid, fhat.shape, (grid.ny, grid.nkx), "spectral")
    half = np.fft.ifft(fhat, axis=1, norm="forward", out=None if out is None else fhat)
    return np.fft.irfft(half, n=grid.nx, axis=2, norm="forward", out=out)


def hermitian_defect(grid: Grid, fhat: np.ndarray) -> float:
    """Max deviation from the reality constraint on the self-conjugate columns."""
    flip = (-np.arange(grid.ny)) % grid.ny  # l -> -l mod ny
    d = 0.0
    for col in (0, grid.nkx - 1):
        c = fhat[:, :, col]
        d = max(d, float(np.max(np.abs(c - np.conj(c[:, flip])))))
    return d


def weighted_vertical_mean(weights: np.ndarray, column):
    """Quadrature mean of a level profile (weights sum to 2pi)."""
    return (weights @ column) / weights.sum()


def remove_mean(fhat: np.ndarray, weights: np.ndarray) -> None:
    """Remove the domain-average ((0,0) horizontal mode, constant-in-z) component in place."""
    fhat[:, 0, 0] -= weighted_vertical_mean(weights, fhat[:, 0, 0])


def project_mean_zero(grid: Grid, fhat: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """A copy of fhat with the domain average removed (``remove_mean``)."""
    out = fhat.copy()
    remove_mean(out, grid.zweights if weights is None else weights)
    return out


def mean_defect(fhat: np.ndarray, weights: np.ndarray) -> float:
    """|Domain mean| of a field relative to its largest coefficient."""
    scale = float(np.max(np.abs(fhat))) or 1.0
    return abs(weighted_vertical_mean(weights, fhat[:, 0, 0])) / scale


def unit_mode_coef(kind: str):
    """Stored rfft2 coefficient of the unit-L2 real wave cos/sin(kx + ly).

    A unit mode on the (0, 2pi)^2 face has amplitude 1/(2pi sqrt2) per
    conjugate side; the sine carries the factor -i.
    """
    amp = 1.0 / (2.0 * np.pi * np.sqrt(2.0))
    return amp if kind == "cos" else -1j * amp
