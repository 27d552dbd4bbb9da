"""Time integration of u_t + nu A u + B(u,u) + C(t,u) + D(u) = f(t).

The scheme is IMEX with the exact integrating factor e^{-nu lam dt} per mode
for the stiff diffusion (A is diagonal in the separable basis) and Heun on
the integrating-factor-transformed system for everything else, giving exact
linear decay on eigenmodes and second-order self-convergence overall.  The
explicit terms collapse to

    N(u, t) = -beta * d_x Psi - J(Psi, u),        Psi = G(u) + lift(t),

since f - D = -beta Psi_x and B + C = J(Psi, u).

Time is tracked as an integer step count (t = n*dt, never accumulated) and
the OU state advances only on the noise grid, so runs over aligned grids are
bitwise reproducible and the solution operator is a genuine cocycle over the
stored noise path.  Alongside u, the scalar comparison process

    xi' + nu lam1 xi = (beta^2/nu) ||lift_x||_{V'}^2

is advanced by its exact affine update with the source held per step; xi
bounds ||u||_H^2 along every run and its pullback limit xi* builds the
absorbing ball.
"""

from __future__ import annotations

import ctypes
import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import __version__
from .forcing import (ForcingSetup, OUBoundaryState, advance_ou, check_byte_count,
                      init_ou_state, setup_lift)
from .operators import (
    OperatorContext,
    apply_G,
    deriv_x,
    from_modes,
    inner_h,
    norms,
    to_modes,
)
from .spectral import Grid, forward_transform, inverse_transform, mean_defect, project_mean_zero

_SNAP_MAGIC = b"SQGSNAP1"
_SNAP_HEADER = struct.Struct("<8sIIIIIqdd16s16s")
_SNAP_VERSION = 1


@functools.cache
def _keep_step_memory() -> None:
    """Fix glibc's heap thresholds so stepping reuses freed pages.

    A step frees dozens of field-sized temporaries.  glibc's default
    thresholds follow the largest block freed so far, so each step would
    return pages to the system and fault them in again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB of free heap


class CFLViolation(RuntimeError):
    """Advective CFL check failed; carries a suggested step size."""

    def __init__(self, dt, suggested):
        super().__init__(f"CFL violation: dt={dt:g} exceeds advective limit; "
                         f"suggested dt <= {suggested:g}")
        self.suggested_dt = suggested


class BlowupError(RuntimeError):
    """State left the theoretically absorbed region or became non-finite."""


@dataclass(frozen=True)
class SimState:
    """Flow state: transformed potential vorticity u, step count, OU state, xi."""

    u: np.ndarray
    n: int
    dt: float
    ou: OUBoundaryState
    xi: float

    @property
    def t(self) -> float:
        return self.n * self.dt


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    h: float
    v: float
    vdual_liftx: float
    xi: float
    residual: float
    dt: float


@dataclass
class SimResult:
    final: SimState
    snapshots: list
    diagnostics: list


def steps_per_noise(dt: float, dt_noise: float) -> int:
    m = round(dt_noise / dt)
    if m < 1 or abs(m * dt - dt_noise) > 1e-9 * dt_noise:
        raise ValueError(f"dt={dt} must divide dt_noise={dt_noise}")
    return m


def _noise_index(n: int, m: int) -> int:
    return n // m  # floor division, valid for negative steps


def _rhs(ctx: OperatorContext, u: np.ndarray, gu: np.ndarray, lift: np.ndarray,
         linear_only: bool):
    """Explicit tendency and the max advective gradients (for the CFL check).

    ``gu`` is G(u), supplied by the caller so the mode transform is shared
    with the integrating-factor update.
    """
    grid = ctx.grid
    psi = gu + lift
    tendency = -ctx.beta * deriv_x(ctx, psi)
    if linear_only:
        return project_mean_zero(grid, tendency, ctx.zw), 0.0, 0.0
    px = inverse_transform(grid, ctx.dxm_mult * psi)
    py = inverse_transform(grid, ctx.dym_mult * psi)
    ux = inverse_transform(grid, ctx.dxm_mult * u)
    uy = inverse_transform(grid, ctx.dym_mult * u)
    jhat = forward_transform(grid, px * uy - py * ux)
    tendency = tendency - jhat * ctx.mask[None, :, :]
    return (project_mean_zero(grid, tendency, ctx.zw),
            float(np.max(np.abs(px))), float(np.max(np.abs(py))))


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


def xi_step(xi: float, lift, dt: float, ctx: OperatorContext) -> float:
    """Exact affine update of the energy-bound process, source held per step."""
    if xi < 0.0:
        raise ValueError("xi must be nonnegative")
    rate = ctx.nu * ctx.lambda1
    coef = getattr(lift, "coef", lift)
    src = (ctx.beta ** 2 / ctx.nu) * norms(ctx, deriv_x(ctx, coef)).vdual ** 2
    e = np.exp(-rate * dt)
    return float(e * xi + (1.0 - e) / rate * src)


def step(state: SimState, dt: float, ctx: OperatorContext, forcing: ForcingSetup,
         linear_only: bool = False, check_cfl: bool = True) -> SimState:
    """One IMEX step from t = n*dt to (n+1)*dt.

    Predictor/corrector on the integrating-factor-transformed system:
        c_p = E (c0 + dt N0),   c1 = E c0 + dt/2 (E N0 + N1(u_p, t1)),
    with E = e^{-nu lam dt} diagonal in the separable basis.  The OU state is
    advanced when the step crosses a noise gridpoint; the corrector sees the
    post-crossing lift, matching the sample-hold convention.
    """
    if dt != state.dt:
        raise ValueError("step size differs from the state's clock")
    path = forcing.path
    m = steps_per_noise(dt, path.dt_noise)
    n0, n1 = state.n, state.n + 1
    shift_steps = path.local_shift * m

    c0 = to_modes(ctx, state.u)
    gu0 = from_modes(ctx, -ctx.inv_lam * c0)
    lift0 = setup_lift(forcing, state.ou, step_index=n0 + shift_steps, dt=dt)
    r0, px_max, py_max = _rhs(ctx, state.u, gu0, lift0, linear_only)
    if check_cfl and not linear_only:
        limit = _cfl_limit(ctx, px_max, py_max)
        if dt > limit:
            raise CFLViolation(dt, limit)

    efac = np.exp(-ctx.nu * ctx.lam * dt)
    n0_modes = to_modes(ctx, r0)

    c_pred = efac * (c0 + dt * n0_modes)
    u_pred = project_mean_zero(ctx.grid, from_modes(ctx, c_pred), ctx.zw)
    gu_pred = from_modes(ctx, -ctx.inv_lam * c_pred)

    # The stochastic coefficients are held over the whole step (the corrector
    # sees the left limit at a noise gridpoint); only the periodic factor
    # advances to t1.  The OU jump lands between steps, which keeps the Heun
    # quadrature exactly consistent with the sample-held forcing.
    lift1 = setup_lift(forcing, state.ou, step_index=n1 + shift_steps, dt=dt)
    r1, _, _ = _rhs(ctx, u_pred, gu_pred, lift1, linear_only)

    j_new = _noise_index(n1, m) + path.local_shift
    ou1 = state.ou
    if j_new > ou1.j:
        ou1 = advance_ou(ou1, (j_new - ou1.j) * path.dt_noise, path, forcing.model)

    c1 = efac * c0 + 0.5 * dt * (efac * n0_modes + to_modes(ctx, r1))
    u1 = project_mean_zero(ctx.grid, from_modes(ctx, c1), ctx.zw)

    xi1 = xi_step(state.xi, lift0, dt, ctx)

    h2 = inner_h(ctx, u1, u1)
    if not np.isfinite(h2):
        raise BlowupError(f"non-finite state at t={n1 * dt:g}")
    if xi1 > 0.0 and h2 > 1e6 * 2.0 * xi1:
        raise BlowupError(f"||u||_H exceeded 1e3*sqrt(2 xi) at t={n1 * dt:g}")

    return SimState(u=u1, n=n1, dt=dt, ou=ou1, xi=xi1)


def initial_state(ctx: OperatorContext, forcing: ForcingSetup, u0: np.ndarray,
                  t0: float, dt: float, xi0: float | None = None,
                  init: str = "stationary") -> SimState:
    """SimState at t0, with the OU state at the last noise gridpoint <= t0.

    The mean-zero projection is applied only when the input actually has a
    mean-mode defect: re-projecting an already projected field would move it
    by rounding-level amounts, which would break the bitwise cocycle identity
    when a run is split into legs.
    """
    _keep_step_memory()
    path = forcing.path
    m = steps_per_noise(dt, path.dt_noise)
    n0 = round(t0 / dt)
    if abs(n0 * dt - t0) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"t0={t0} is not on the step grid")
    u0 = np.asarray(u0, dtype=complex)
    if mean_defect(u0, ctx.zw) > 1e-14:
        u0 = project_mean_zero(ctx.grid, u0, ctx.zw)
    else:
        u0 = u0.copy()
    ou = init_ou_state(forcing.model, path, _noise_index(n0, m) * path.dt_noise, init=init)
    if xi0 is None:
        xi0 = inner_h(ctx, u0, u0)
    return SimState(u=u0, n=n0, dt=dt, ou=ou, xi=float(xi0))


def simulate(ctx: OperatorContext, forcing: ForcingSetup, u0: np.ndarray,
             t0: float, t1: float, dt: float, snapshot_every: int = 0,
             xi0: float | None = None, linear_only: bool = False,
             check_cfl: bool = True, record_diagnostics: bool = True) -> SimResult:
    """Advance from t0 to t1, recording diagnostics each step.

    Snapshots are stored every ``snapshot_every`` steps (0: endpoints only).
    Identical (path seed, config) inputs give bitwise-identical output.
    """
    if not t0 < t1:
        raise ValueError("t0 must precede t1")
    state = initial_state(ctx, forcing, u0, t0, dt, xi0=xi0)
    n_steps = round((t1 - t0) / dt)
    if abs((t0 + n_steps * dt) - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError("t1 - t0 must be a multiple of dt")

    snapshots = [(state.t, state.u.copy())]
    diagnostics = []
    prev = state
    for k in range(n_steps):
        nxt = step(prev, dt, ctx, forcing, linear_only=linear_only, check_cfl=check_cfl)
        if record_diagnostics:
            m = steps_per_noise(dt, forcing.path.dt_noise)
            shift_steps = forcing.path.local_shift * m
            lift_prev = setup_lift(forcing, prev.ou, step_index=prev.n + shift_steps, dt=dt)
            lift_next = setup_lift(forcing, nxt.ou, step_index=nxt.n + shift_steps, dt=dt)
            r = energy_budget(ctx, prev, nxt, lift_prev, lift_next)
            nn = norms(ctx, nxt.u)
            diagnostics.append(DiagnosticsRecord(
                t=nxt.t, h=nn.h, v=nn.v,
                vdual_liftx=norms(ctx, deriv_x(ctx, lift_next)).vdual,
                xi=nxt.xi, residual=r, dt=dt,
            ))
        if snapshot_every and (k + 1) % snapshot_every == 0 and k + 1 < n_steps:
            snapshots.append((nxt.t, nxt.u.copy()))
        prev = nxt
    snapshots.append((prev.t, prev.u.copy()))
    return SimResult(final=prev, snapshots=snapshots, diagnostics=diagnostics)


def energy_budget(ctx: OperatorContext, prev: SimState, nxt: SimState,
                  lift_prev, lift_next) -> float:
    """Discrete residual of d||u||_H^2 + 2 nu ||u||_V^2 dt = -2 beta <lift_x, u> dt.

    Flux terms are trapezoid-averaged between the step endpoints; the
    residual is O(dt^3) per step (O(dt^2) accumulated) and insensitive to the
    energy-neutral operators B, C, D.
    """
    dt = nxt.t - prev.t
    lp = getattr(lift_prev, "coef", lift_prev)
    ln = getattr(lift_next, "coef", lift_next)
    h0 = inner_h(ctx, prev.u, prev.u)
    h1 = inner_h(ctx, nxt.u, nxt.u)
    v0 = norms(ctx, prev.u).v ** 2
    v1 = norms(ctx, nxt.u).v ** 2
    flux0 = inner_h(ctx, deriv_x(ctx, lp), prev.u)
    flux1 = inner_h(ctx, deriv_x(ctx, ln), nxt.u)
    return float((h1 - h0) + ctx.nu * (v0 + v1) * dt + ctx.beta * (flux0 + flux1) * dt)


def reconstruct_streamfunction(ctx: OperatorContext, u: np.ndarray, lift):
    """psi = G(u) + lift and potential vorticity q = u + f0 + beta*y.

    Returns (psi_hat, psi_phys, pv_phys); applying the discrete stratified
    Laplacian to psi recovers u up to the lift's boundary-row flux injection.
    """
    coef = getattr(lift, "coef", lift)
    psi_hat = apply_G(ctx, u) + coef
    psi = inverse_transform(ctx.grid, psi_hat)
    uphys = inverse_transform(ctx.grid, u)
    pv = uphys + ctx.f0 + ctx.beta * ctx.grid.y[None, :, None]
    return psi_hat, psi, pv


def save_snapshot(fname, grid: Grid, u: np.ndarray, t: float, n: int, dt: float,
                  config_hash: str = "", code_version: str = __version__) -> None:
    """Snapshot file: fixed header + mode-major little-endian coefficient dump."""
    flags = 1  # normalized rfft2 half-spectrum coefficients on z levels
    header = _SNAP_HEADER.pack(
        _SNAP_MAGIC, _SNAP_VERSION, grid.nx, grid.ny, grid.nz, flags,
        n, dt, t,
        config_hash.encode()[:16].ljust(16, b"\0"),
        code_version.encode()[:16].ljust(16, b"\0"),
    )
    data = np.ascontiguousarray(u.transpose(1, 2, 0), dtype="<c16")  # mode-major
    with open(fname, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_snapshot(fname):
    with open(fname, "rb") as fh:
        raw = fh.read(_SNAP_HEADER.size)
        check_byte_count(fname, "snapshot header", _SNAP_HEADER.size, len(raw))
        magic, version, nx, ny, nz, flags, n, dt, t, chash, cver = _SNAP_HEADER.unpack(raw)
        if magic != _SNAP_MAGIC:
            raise ValueError(f"not a snapshot file (magic {magic!r})")
        if version != _SNAP_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        payload = fh.read()
    check_byte_count(fname, "snapshot payload", ny * (nx // 2 + 1) * nz * 16, len(payload))
    data = np.frombuffer(payload, dtype="<c16").reshape(ny, nx // 2 + 1, nz)
    meta = dict(nx=nx, ny=ny, nz=nz, flags=flags, n=n, dt=dt, t=t,
                config_hash=chash.rstrip(b"\0").decode(),
                code_version=cver.rstrip(b"\0").decode())
    return data.transpose(2, 0, 1).copy(), meta


def write_diagnostics_csv(fname, records, config_hash: str = "",
                          code_version: str = __version__) -> None:
    """Fixed column order: t, H, V, Vdual_liftx, xi, residual, dt."""
    with open(fname, "w", encoding="utf-8") as fh:
        fh.write(f"# config={config_hash} version={code_version}\n")
        fh.write("t,H,V,Vdual_liftx,xi,residual,dt\n")
        for r in records:
            fh.write(f"{r.t:.17g},{r.h:.17g},{r.v:.17g},{r.vdual_liftx:.17g},"
                     f"{r.xi:.17g},{r.residual:.17g},{r.dt:.17g}\n")
