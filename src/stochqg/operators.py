"""Operators of the transformed evolution equation on the mean-zero state space.

A is the positive self-adjoint operator built from the stratified Laplacian
(periodic in x, y; homogeneous Neumann in z); G = Delta~^{-1} = -A^{-1} is the
inverse on mean-zero fields, fixed with this sign so the streamfunction
reconstruction psi = G(u) + lift closes.  The advective Jacobian J(a, b) =
a_x b_y - a_y b_x is evaluated pseudo-spectrally level by level with 2/3-rule
dealiasing, which makes the trilinear form antisymmetric to rounding.  The
composite operators are

    B(u)       = J(G(u), u)          quadratic advection
    C(lift, u) = J(lift, u)          advection by the boundary lift
    D(u)       = beta * G(u)_x       planetary vorticity drift
    f(lift)    = -beta * lift_x      boundary-induced source

B, C and D are all energy-neutral: their H inner product with u vanishes to
rounding.  The stepper's explicit terms f - D - B - C are one ``tendency``,
-beta * psi_x - J(psi, u) with psi = G(u) + lift.  The vertical-mode
transforms are one matrix product each, the quadrature weights folded in; a
lift's xi source and energy flux are sums over its few nonzero columns
(``lift_terms``).

All operations are pure functions of (context, fields); the context is
read-only after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import (
    Grid,
    VerticalOperator,
    compute_lambda1,
    forward_transform,
    inverse_transform,
    mean_defect,
    remove_mean,
    unit_mode_coef,
)

MEAN_ZERO_TOL = 1e-8

# Level blocking of the Jacobian: consecutive blocks of at most BLOCK_BYTES of
# physical field, at least one level each, so a block's transforms and
# products stay in a core's 2 MiB L2 and its work arrays stay small.  Median
# step times, 1 BLAS thread, 2-vCPU host with 2 MiB L2 per core: at 128x128x65
# (8.5 MB per field) 301-305 ms whole-field, 254-260 ms with 2-level blocks.
# At 64x64x33 (1.1 MB per field, 8-level blocks) 10 alternating pairs of the
# sim64_diag benchmark: median wall 0.818 s whole-field, 0.776 s blocked
# (quartile spread 0.06 s); peak RSS 72.3 -> 70.8 MB.
BLOCK_BYTES = 256 << 10


@dataclass(frozen=True, eq=False)
class OperatorContext:
    """Grid, vertical factorization, physical parameters, cached multipliers.

    ``lam[m, l, k] = k^2 + l^2 + mu_m`` is the diagonal of A in the separable
    basis; the single zero entry (0, 0, 0) is the excluded null mode.
    """

    grid: Grid
    vop: VerticalOperator
    nu: float
    beta: float
    lambda1: float
    lam: np.ndarray        # (nz, ny, nkx)
    inv_lam: np.ndarray    # (nz, ny, nkx), zero at the null slot
    colw: np.ndarray       # (nkx,) rfft column multiplicities
    zw: np.ndarray         # (nz,) trapezoid weights
    phi_inv: np.ndarray    # (nz, nz) yhat^T W^(1/2), the inverse of vop.phi
    mask: np.ndarray       # (ny, nkx) dealias mask
    dx_mult: np.ndarray    # (1, 1, nkx) i*kx, Nyquist zeroed
    dxm_mult: np.ndarray   # (1, ny, nkx) dealiased i*kx
    dym_mult: np.ndarray   # (1, ny, nkx) dealiased i*ky
    hfac: float            # (2*pi)^2, quadrature prefactor of horizontal sums
    blocks: tuple[slice, ...]  # level slices of the Jacobian (``level_blocks``)


def level_blocks(grid: Grid) -> tuple[slice, ...]:
    """Level slices the Jacobian works through: consecutive slices of at most
    BLOCK_BYTES of physical field each (at least one level), the last one
    possibly shorter.
    """
    level_bytes = grid.ny * grid.nx * np.dtype(np.float64).itemsize
    per = max(1, BLOCK_BYTES // level_bytes)
    return tuple(slice(lo, min(lo + per, grid.nz)) for lo in range(0, grid.nz, per))


def build_context(grid: Grid, vop: VerticalOperator, nu: float, beta: float) -> OperatorContext:
    if nu <= 0.0:
        raise ValueError("viscosity must be positive")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    if vop.nz != grid.nz:
        raise ValueError("vertical operator level count does not match grid")

    kx = grid.kx
    ky = grid.ky
    lam = vop.mu[:, None, None] + grid.kh2[None, :, :]
    with np.errstate(divide="ignore"):
        inv_lam = 1.0 / lam
    inv_lam[lam == 0.0] = 0.0

    dx = 1j * kx
    dx[-1] = 0.0  # Nyquist column: odd derivative of a real field is dropped
    dy = 1j * ky.astype(complex)
    dy[grid.ny // 2] = 0.0
    mask = grid.dealias_mask

    return OperatorContext(
        grid=grid, vop=vop, nu=float(nu), beta=float(beta),
        lambda1=compute_lambda1(vop),
        lam=lam, inv_lam=inv_lam,
        colw=grid.column_weight, zw=grid.zweights,
        phi_inv=np.ascontiguousarray(vop.yhat.T * vop.sqrtw[None, :]),
        mask=mask,
        dx_mult=dx[None, None, :],
        dxm_mult=(dx[None, :] * mask)[None, :, :],
        dym_mult=(dy[:, None] * mask)[None, :, :],
        hfac=(2.0 * np.pi) ** 2,
        blocks=level_blocks(grid),
    )


def _vertical(mat: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """mat on each vertical column of complex x: one dgemm on float views, into C-contiguous out."""
    flat = np.ascontiguousarray(x.reshape(mat.shape[1], -1)).view(np.float64)
    out = np.empty(x.shape, dtype=complex) if out is None else out
    np.matmul(mat, flat, out=out.reshape(mat.shape[1], -1).view(np.float64))
    return out


def to_modes(ctx: OperatorContext, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Level profiles -> vertical eigenbasis coefficients (same shape), into ``out`` if given."""
    return _vertical(ctx.phi_inv, u, out)


def from_modes(ctx: OperatorContext, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vertical eigenbasis coefficients -> level profiles, into ``out`` if given."""
    return _vertical(ctx.vop.phi, c, out)


def _require_mean_zero(ctx, u, what):
    defect = mean_defect(u, ctx.zw)
    if defect > MEAN_ZERO_TOL:
        raise ValueError(f"{what} must be mean-zero (relative defect {defect:.3e})")


def apply_A(ctx: OperatorContext, u: np.ndarray) -> np.ndarray:
    """A u: (k^2 + l^2) u plus the vertical operator on each profile."""
    _require_mean_zero(ctx, u, "apply_A input")
    vert = (ctx.vop.action @ u.reshape(ctx.grid.nz, -1)).reshape(u.shape)
    return ctx.grid.kh2[None, :, :] * u + vert


def apply_G(ctx: OperatorContext, f: np.ndarray) -> np.ndarray:
    """G f = Delta~^{-1} f = -A^{-1} f on mean-zero fields.

    Diagonal in the separable basis; the null slot is projected out, so
    A(-G(f)) = f up to rounding.
    """
    _require_mean_zero(ctx, f, "apply_G input")
    c = to_modes(ctx, f)
    c *= -ctx.inv_lam
    return from_modes(ctx, c)


def deriv_x(ctx: OperatorContext, fhat: np.ndarray) -> np.ndarray:
    return ctx.dx_mult * fhat


def jacobian_work(ctx: OperatorContext, spec=None) -> tuple[np.ndarray, ...]:
    """A complex (``spec`` if given) and two physical arrays for the largest of ``ctx.blocks``."""
    g, lv = ctx.grid, max(blk.stop - blk.start for blk in ctx.blocks)
    spec = np.empty((lv, g.ny, g.nkx), dtype=complex) if spec is None else spec
    return spec, np.empty((lv, g.ny, g.nx)), np.empty((lv, g.ny, g.nx))


def _block_product(ctx: OperatorContext, a: np.ndarray, b: np.ndarray, maxima: bool, work, spare):
    """Dealiased J(a, b) = a_x b_y - a_y b_x of spectral a, b on one of ``ctx.blocks``.

    The derivative multipliers carry the dealias mask, so only the band of a
    and b enters the collocation product, and the product is masked to the
    band again.  Returns (jhat, grad), jhat not mean-zero projected and
    written into ``work`` (``jacobian_work``).  With ``maxima``, grad is
    (max |a_x|, max |a_y|), which bound the advective CFL number when a is
    the streamfunction; otherwise it is None.  The products are formed one at
    a time; b_x goes into the float storage of ``spare`` (C-contiguous, of
    b's shape) after b is read for the last time, so ``spare`` may be b.
    """
    grid, lv = ctx.grid, a.shape[0]
    jhat, prod, ay = (w[:lv] for w in work)
    inverse_transform(grid, np.multiply(ctx.dxm_mult, a, out=jhat), out=prod)    # a_x
    ax_max = max(prod.max(), -prod.min()) if maxima else None  # NaN if prod holds one
    prod *= inverse_transform(grid, np.multiply(ctx.dym_mult, b, out=jhat), out=ay)  # a_x b_y
    inverse_transform(grid, np.multiply(ctx.dym_mult, a, out=jhat), out=ay)
    grad = (ax_max, max(ay.max(), -ay.min())) if maxima else None
    bx = spare.view(np.float64)[..., :grid.nx]
    ay *= inverse_transform(grid, np.multiply(ctx.dxm_mult, b, out=jhat), out=bx)    # a_y b_x
    prod -= ay
    jhat = forward_transform(grid, prod, out=jhat)
    jhat *= ctx.mask[None, :, :]
    return jhat, grad


def jacobian(ctx: OperatorContext, a, b) -> np.ndarray:
    """Dealiased pseudo-spectral J(a, b) = a_x b_y - a_y b_x, level by level.

    Accepts spectral or physical inputs on the context grid; the result is
    mean-zero projected.  Inputs are truncated to the dealias band, so the
    collocation quadrature of any triple product is alias-free.  J acts on
    each level alone, so the work runs over ``ctx.blocks``; every level sees
    the same operations whatever the blocks.
    """
    a = _as_spectral(ctx, a)
    b = _as_spectral(ctx, b)
    jhat, work = np.empty(a.shape, dtype=complex), jacobian_work(ctx)
    for blk in ctx.blocks:  # each block's b_x goes where its J will
        jhat[blk], _ = _block_product(ctx, a[blk], b[blk], False, work, jhat[blk])
    remove_mean(jhat, ctx.zw)
    return jhat


def tendency(ctx: OperatorContext, u: np.ndarray, psi: np.ndarray, linear_only: bool,
             cfl: bool = False, work=None, spare=None):
    """Explicit tendency N(u) = -beta * psi_x - J(psi, u), written over psi, and the dt limit.

    ``psi`` is G(u) + lift, so -beta * psi_x = f - D(u) and J(psi, u) =
    B(u) + C(lift, u).  Each block of ``ctx.blocks`` becomes its part of N
    once its Jacobian is made, so a level-blocked grid holds no whole-field
    J.  The advective dt limit is found only with ``cfl`` and a nonlinear
    step; otherwise it is inf.  The Jacobian writes into ``work`` and ``spare``
    (new by default; ``spare`` may be u, which is then used up).
    """
    grads = []
    work = jacobian_work(ctx) if work is None else work
    spare = np.empty(psi.shape, dtype=complex) if spare is None else spare
    for blk in ctx.blocks:
        part = psi[blk]
        jhat, grad = ((None, None) if linear_only else
                      _block_product(ctx, part, u[blk], cfl, work, spare[blk]))
        np.multiply(ctx.dx_mult, part, out=part)
        np.multiply(-ctx.beta, part, out=part)
        if jhat is not None:
            np.subtract(part, jhat, out=part)
        grads.append(grad)
    remove_mean(psi, ctx.zw)
    if linear_only or not cfl:
        return psi, np.inf
    # np.max, unlike max(), keeps a NaN of any block.
    return psi, _cfl_limit(ctx, *(float(g) for g in np.max(grads, axis=0)))


def _cfl_limit(ctx: OperatorContext, px_max: float, py_max: float) -> float:
    dx = 2.0 * np.pi / ctx.grid.nx
    dy = 2.0 * np.pi / ctx.grid.ny
    # Advecting velocity is the rotated gradient: (u, v) = (-Psi_y, Psi_x).
    lim = np.inf
    if py_max > 0.0:
        lim = min(lim, 0.5 * dx / py_max)
    if px_max > 0.0:
        lim = min(lim, 0.5 * dy / px_max)
    return lim


def _as_spectral(ctx, f):
    grid = ctx.grid
    if f.shape == (grid.nz, grid.ny, grid.nx) and not np.iscomplexobj(f):
        return forward_transform(grid, f)
    if f.shape == (grid.nz, grid.ny, grid.nkx):
        return f
    raise ValueError(f"field shape {f.shape} does not match grid")


def apply_B(ctx: OperatorContext, u: np.ndarray) -> np.ndarray:
    """B(u, u) = J(G(u), u)."""
    return jacobian(ctx, apply_G(ctx, u), u)


def apply_C(ctx: OperatorContext, lift, u: np.ndarray) -> np.ndarray:
    """C(t, u) = J(lift, u); linear in u and energy-neutral."""
    return jacobian(ctx, lift, u)


def apply_D(ctx: OperatorContext, u: np.ndarray) -> np.ndarray:
    """D(u) = beta * G(u)_x, the planetary drift."""
    return ctx.beta * deriv_x(ctx, apply_G(ctx, u))


def forcing_f(ctx: OperatorContext, lift) -> np.ndarray:
    """f = beta * (G(Delta~ eta)_x - eta_x) = -beta * lift_x.

    The x-derivative annihilates the kx = 0 column, so the result is
    mean-zero by construction.
    """
    return -ctx.beta * deriv_x(ctx, lift)


class Norms(NamedTuple):
    h: float
    v: float
    vdual: float


def inner_h(ctx: OperatorContext, u: np.ndarray, v: np.ndarray, scratch=None) -> float:
    """L2(O) inner product of the real fields behind u, v (quadrature exact), via ``scratch``."""
    prod = np.multiply(u, np.conj(v, out=scratch), out=scratch).real
    return ctx.hfac * float(np.einsum("j,k,jlk->", ctx.zw, ctx.colw, prod))


def norm_h(ctx: OperatorContext, u: np.ndarray) -> float:
    return float(np.sqrt(max(inner_h(ctx, u, u), 0.0)))


def norms(ctx: OperatorContext, u: np.ndarray) -> Norms:
    """(H, V, V') norms via the diagonal of A in the separable basis.

    V^2 = <A u, u>, (V')^2 = <A^{-1} u, u> with the null mode excluded
    (u is assumed mean-zero for the dual norm).
    """
    return modal_norms(ctx, to_modes(ctx, u))


def modal_norms(ctx: OperatorContext, c: np.ndarray, scratch=None) -> Norms:
    """The norms of ``norms`` from the vertical-mode coefficients c = to_modes(u), via ``scratch``."""
    p = _power(c, ctx.colw, scratch)
    # einsum, not a BLAS dot, whose threaded partial sums depend on the thread count.
    h2 = ctx.hfac * float(np.sum(p))
    v2 = ctx.hfac * float(np.einsum("mlk,mlk->", p, ctx.lam))
    vd2 = ctx.hfac * float(np.einsum("mlk,mlk->", p, ctx.inv_lam))
    return Norms(np.sqrt(max(h2, 0.0)), np.sqrt(max(v2, 0.0)), np.sqrt(max(vd2, 0.0)))


def _power(c: np.ndarray, colw: np.ndarray, scratch=None) -> np.ndarray:
    """|c|^2 times the rfft column multiplicities, in the float storage of ``scratch`` if given."""
    p, sq = [None] * 2 if scratch is None else scratch.view(np.float64).reshape(2, *c.shape)
    p = np.multiply(c.real, c.real, out=p)
    p += np.multiply(c.imag, c.imag, out=sq)
    p *= colw
    return p


def nonzero_columns(field: np.ndarray):
    """The (li, ki) columns where a spectral field is nonzero (row-major) and its values there."""
    li, ki = np.nonzero(np.any(field != 0.0, axis=0))
    return (li, ki), field[:, li, ki]


def lift_terms(ctx: OperatorContext, support, lift: np.ndarray,
               u: np.ndarray | None = None) -> tuple[float, float | None]:
    """(||lift_x||_{V'}, <lift_x, u>_H or None) of a lift zero off the columns ``support``.

    ``support`` is a pair (li, ki) of index arrays and ``lift`` the (nz, ncols)
    values there.  All-zero columns are dropped and C-ordered copies summed,
    so a lift gives the same bits whichever zero columns ``support`` lists
    and whatever its memory layout.
    """
    li, ki = support
    keep = np.any(lift != 0.0, axis=0)
    li, ki, lift = li[keep], ki[keep], lift[:, keep]
    lift_x = np.ascontiguousarray(lift) * ctx.dx_mult[0, 0, ki]
    p = _power(_vertical(ctx.phi_inv, lift_x), ctx.colw[ki])
    vd2 = ctx.hfac * float(np.einsum("mc,mc->", p, ctx.inv_lam[:, li, ki]))
    vdual = float(np.sqrt(max(vd2, 0.0)))
    if u is None:
        return vdual, None
    prod = (lift_x * np.conj(np.ascontiguousarray(u[:, li, ki]))).real
    return vdual, ctx.hfac * float(np.einsum("j,c,jc->", ctx.zw, ctx.colw[ki], prod))


def h2_scale(ctx: OperatorContext, u: np.ndarray) -> float:
    """Discrete H^2-equivalent magnitude ||A u||_H + ||u||_H."""
    return norm_h(ctx, apply_A(ctx, u)) + norm_h(ctx, u)


def unit_eigenmode(ctx: OperatorContext, m: int, l: int, k: int, kind: str = "cos") -> np.ndarray:
    """Real A-eigenmode with exact unit H norm.

    (m, l, k) selects the vertical eigenfunction (0 <= m < nz) and the
    horizontal wave; k indexes the stored rfft column (0 <= k < nkx, Nyquist
    excluded), l the signed ky (|l| < ny/2).  For k == 0 the conjugate
    partner column is filled so the field is real; (m, l, k) = (0, 0, 0) is
    the excluded constant.  The field is zero off ``eigenmode_columns``.
    """
    grid = ctx.grid
    u = np.zeros((grid.nz, grid.ny, grid.nkx), dtype=complex)
    for li, ki, col in eigenmode_columns(ctx, m, l, k, kind):
        u[:, li, ki] = col
    return u


def eigenmode_columns(ctx: OperatorContext, m: int, l: int, k: int,
                      kind: str = "cos") -> list[tuple[int, int, np.ndarray]]:
    """The one or two (li, ki, complex nz-profile) columns of ``unit_eigenmode``."""
    grid = ctx.grid
    grid.check_mode(m, l, k)
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    prof = ctx.vop.phi[:, m]
    if k == 0 and l == 0:
        if kind == "sin":
            raise ValueError("the (l, k) = (0, 0) column has no sine mode")
        return [(0, 0, np.asarray(prof / (2.0 * np.pi), dtype=complex))]
    coef = unit_mode_coef(kind)
    cols = [(l % grid.ny, k, np.asarray(coef * prof, dtype=complex))]
    if k == 0:
        cols.append(((-l) % grid.ny, 0, np.asarray(np.conj(coef) * prof, dtype=complex)))
    return cols


def eigenvalue_of(ctx: OperatorContext, m: int, l: int, k: int) -> float:
    return float(ctx.vop.mu[m] + k * k + l * l)
