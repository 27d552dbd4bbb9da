"""Time integration of u_t + nu A u + B(u,u) + C(t,u) + D(u) = f(t).

The scheme is IMEX with the exact integrating factor e^{-nu lam dt} per mode
for the stiff diffusion (A is diagonal in the separable basis) and Heun on
the integrating-factor-transformed system for everything else, giving exact
linear decay on eigenmodes and second-order self-convergence overall.  The
explicit terms collapse to

    N(u, t) = -beta * d_x Psi - J(Psi, u),        Psi = G(u) + lift(t),

since f - D = -beta Psi_x and B + C = J(Psi, u); ``operators.tendency``
evaluates it.

Time is tracked as an integer step count (t = n*dt, never accumulated).  A
trajectory is one ``Run`` (context, forcing, dt), and the forcing at step n
is one function of it, ``Run.lift``, whose OU part changes only on the noise
grid, so runs over aligned grids are bitwise reproducible and the solution
operator is a genuine cocycle over the stored noise path.  A state is
(u, n, xi, run) and carries no OU state of its own.  Alongside u, the scalar
comparison process

    xi' + nu lam1 xi = (beta^2/nu) ||lift_x||_{V'}^2

is advanced by its exact affine update with the source held per step; xi
bounds ||u||_H^2 along every run and its pullback limit xi* builds the
absorbing ball.

Each state computes the values that its own step and the run's diagnostics
both need (vertical-mode coefficients, lift, xi source, ||u||_H^2) on first
use and keeps them.  The lift lives on the columns of
``ForcingSetup.support``, and the step adds it to psi there.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .forcing import (ForcingSetup, check_byte_count, grid_steps, lift_columns, ou_series,
                      steps_per_noise)
from .operators import (
    OperatorContext,
    apply_G,
    from_modes,
    inner_h,
    jacobian_work,
    lift_terms,
    modal_norms,
    nonzero_columns,
    norms,
    tendency,
    to_modes,
)
from .spectral import Grid, inverse_transform, mean_defect, project_mean_zero, remove_mean

_SNAP_MAGIC = b"SQGSNAP1"
_SNAP_HEADER = struct.Struct("<8sIIIIIqdd16s16s")
_SNAP_VERSION = 1


class CFLViolation(RuntimeError):
    """Advective CFL check failed; carries a suggested step size."""

    def __init__(self, dt, suggested):
        super().__init__(f"CFL violation: dt={dt:g} exceeds advective limit; "
                         f"suggested dt <= {suggested:g}")
        self.suggested_dt = suggested


class BlowupError(RuntimeError):
    """State left the theoretically absorbed region or became non-finite."""


@dataclass(frozen=True, eq=False)
class Run:
    """One trajectory: steps of ``dt`` under ``ctx`` and ``forcing``.

    Built once per ``simulate`` call or xi* window, it resolves ``m`` (steps
    per noise step) and ``first``..``last`` (the steps whose lift the noise
    path covers) once; ``efac`` = e^{-nu lam dt} is made on first use.
    """

    ctx: OperatorContext
    forcing: ForcingSetup
    dt: float
    m: int = field(init=False)
    first: int = field(init=False)
    last: int = field(init=False)

    def __post_init__(self):
        path = self.forcing.path
        m = steps_per_noise(self.dt, path.dt_noise)
        i0 = path.i0_abs - path.local_shift  # the path's first gridpoint on the local clock
        last = (i0 + path.n_steps + 1) * m - 1  # the last step held at its last gridpoint
        for name, value in (("m", m), ("first", i0 * m), ("last", last)):
            object.__setattr__(self, name, value)

    def end_step(self, t1: float) -> int:
        """The step of t1, which must not lie beyond the path."""
        n1 = grid_steps(t1, self.dt, "t1")
        if n1 > self.last:
            raise ValueError(f"t1={t1} lies beyond the noise path, which covers "
                             f"t <= {self.last * self.dt}")
        return n1

    @functools.cached_property
    def efac(self) -> np.ndarray:
        e = np.multiply(-self.ctx.nu, self.ctx.lam)  # built in place: no temporaries
        return np.exp(np.multiply(e, self.dt, out=e), out=e)

    def lift(self, n: int, held: int | None = None) -> np.ndarray:
        """The lift at step n on ``forcing.support``: OU part held at the noise gridpoint
        of step ``held`` (default n), periodic part at step n on the absolute clock."""
        held, path = n if held is None else held, self.forcing.path
        if not self.first <= held <= self.last:
            raise ValueError(f"time {held * self.dt} outside path range "
                             f"[{path.t_min}, {path.t_max}]")
        j = held // self.m + path.local_shift  # floor, also for negative steps
        zeta = ou_series(self.forcing.model, path)[j - path.i0_abs]
        return lift_columns(self.forcing, zeta, step_index=n + path.local_shift * self.m,
                            dt=self.dt)


@dataclass(frozen=True, eq=False)
class SimState:
    """Flow state: potential vorticity u at step n (t = n * run.dt), xi, and its run.

    It computes the values its step and the run's diagnostics share on first
    use and keeps them: ``modes``, ``lift``, ``vdual_liftx`` (the xi source)
    and ``h2``.  ``dataclasses.replace`` makes a state that computes them
    afresh, also under another run or xi.  ``u`` is a value: modify a copy,
    not the array in place.
    """

    u: np.ndarray
    n: int
    xi: float
    run: Run = field(compare=False, repr=False)

    @property
    def t(self) -> float:
        return self.n * self.run.dt

    @functools.cached_property
    def modes(self) -> np.ndarray:
        return to_modes(self.run.ctx, self.u)

    @functools.cached_property
    def lift(self) -> np.ndarray:
        """The lift at step n on the forcing's support."""
        return self.run.lift(self.n)

    @functools.cached_property
    def vdual_liftx(self) -> float:
        """||lift_x||_{V'}."""
        return lift_terms(self.run.ctx, self.run.forcing.support, self.lift)[0]

    @functools.cached_property
    def h2(self) -> float:
        """||u||_H^2 = inner_h(u, u)."""
        return inner_h(self.run.ctx, self.u, self.u)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    h: float
    v: float
    vdual_liftx: float
    xi: float
    residual: float
    dt: float


@dataclass(eq=False)
class SimResult:
    final: SimState
    snapshots: list
    diagnostics: list


def _xi_update(xi: float, vdual_liftx: float, dt: float, ctx: OperatorContext) -> float:
    """``xi_step`` given the source's ||lift_x||_{V'} instead of the lift."""
    if xi < 0.0:
        raise ValueError("xi must be nonnegative")
    rate = ctx.nu * ctx.lambda1
    src = (ctx.beta ** 2 / ctx.nu) * vdual_liftx ** 2
    e = np.exp(-rate * dt)
    return float(e * xi + (1.0 - e) / rate * src)


def xi_step(xi: float, lift, dt: float, ctx: OperatorContext) -> float:
    """Exact affine update of the energy-bound process, source held per step."""
    return _xi_update(xi, lift_terms(ctx, *nonzero_columns(lift))[0], dt, ctx)


def step_arrays(ctx: OperatorContext) -> tuple:
    """New arrays for ``step``: psi (G(u) + lift, then the tendency over it), N0 (the predictor's
    b_x before it) and ``jacobian_work``'s, whose first also holds c_pred and c1."""
    new = functools.partial(np.empty, (ctx.grid.nz, ctx.grid.ny, ctx.grid.nkx), complex)
    return new(), new(), jacobian_work(ctx, spec=new())


def step(state: SimState | list, linear_only: bool = False, *, work: tuple | None = None) -> SimState:
    """One IMEX step from t = n*dt to (n+1)*dt under the state's run.

    Predictor/corrector on the integrating-factor-transformed system:
        c_p = E (c0 + dt N0),   c1 = E c0 + dt/2 (E N0 + N1(u_p, t1)),
    with E = e^{-nu lam dt} diagonal in the separable basis.  The corrector
    holds the OU part at the step's start, matching the sample-hold
    convention; the new state's lift takes the gridpoint it ends on.

    The intermediates go into ``work`` (``step_arrays``, new by default),
    which changes no bit of the result; the state is only read.  ``simulate``
    passes ``state`` as a one-element list holding its only reference, which
    the step empties, so the old u is freed after the predictor.
    """
    state = state.pop() if isinstance(state, list) else state
    run, dt, ctx, n, n1 = state.run, state.run.dt, state.run.ctx, state.n, state.n + 1
    psi, n0_modes, jac = step_arrays(ctx) if work is None else work
    modal, efac = jac[0], run.efac
    c0 = state.modes

    # Each update writes into ``work`` or a new array, operands in the formula's
    # order; -inv_lam sits in psi's real parts until from_modes writes psi.
    li, ki = run.forcing.support
    neg_inv_lam = np.negative(ctx.inv_lam, out=psi.real)
    from_modes(ctx, np.multiply(neg_inv_lam, c0, out=modal), out=psi)
    psi[:, li, ki] += state.lift
    _, limit = tendency(ctx, state.u, psi, linear_only, cfl=True, work=jac, spare=n0_modes)
    if dt > limit:
        raise CFLViolation(dt, limit)
    to_modes(ctx, psi, out=n0_modes)
    xi1 = _xi_update(state.xi, state.vdual_liftx, dt, ctx)
    del state

    c_pred = np.multiply(dt, n0_modes, out=modal)
    np.add(c0, c_pred, out=c_pred)
    np.multiply(efac, c_pred, out=c_pred)
    u_pred = from_modes(ctx, c_pred)
    remove_mean(u_pred, ctx.zw)
    np.multiply(np.negative(ctx.inv_lam, out=neg_inv_lam), c_pred, out=c_pred)
    from_modes(ctx, c_pred, out=psi)

    # The stochastic coefficients are held over the whole step (the corrector
    # sees the left limit at a noise gridpoint); only the periodic factor
    # advances to t1.  The OU jump lands between steps, which keeps the Heun
    # quadrature exactly consistent with the sample-held forcing.
    psi[:, li, ki] += run.lift(n1, held=n)
    tendency(ctx, u_pred, psi, linear_only, work=jac, spare=u_pred)  # uses u_pred up
    del u_pred
    np.multiply(efac, n0_modes, out=n0_modes)
    np.add(n0_modes, to_modes(ctx, psi, out=modal), out=n0_modes)
    np.multiply(0.5 * dt, n0_modes, out=n0_modes)
    c1 = np.multiply(efac, c0, out=modal)
    np.add(c1, n0_modes, out=c1)
    u1 = from_modes(ctx, c1)
    remove_mean(u1, ctx.zw)

    h2 = inner_h(ctx, u1, u1, scratch=psi)
    if not np.isfinite(h2):
        raise BlowupError(f"non-finite state at t={n1 * dt:g}")
    if xi1 > 0.0 and h2 > 1e6 * 2.0 * xi1:
        raise BlowupError(f"||u||_H exceeded 1e3*sqrt(2 xi) at t={n1 * dt:g}")

    new = SimState(u=u1, n=n1, xi=xi1, run=run)
    new.__dict__["h2"] = h2  # seeds the cached_property, which reads the instance __dict__
    return new


def initial_state(run: Run, u0: np.ndarray, t0: float) -> SimState:
    """SimState at t0; its lift holds the OU state of the last noise gridpoint <= t0.

    u0 must be a finite spectral field of shape (nz, ny, nkx).  The
    mean-zero projection is applied only when the input actually has a
    mean-mode defect: re-projecting an already projected field would move it
    by rounding-level amounts, which would break the bitwise cocycle identity
    when a run is split into legs.
    """
    ctx, u0 = run.ctx, np.asarray(u0, dtype=complex)
    if u0.shape != (shape := (ctx.grid.nz, ctx.grid.ny, ctx.grid.nkx)):
        raise ValueError(f"u0 has shape {u0.shape}, expected (nz, ny, nkx) = {shape}")
    n0 = grid_steps(t0, run.dt, "t0")
    lift = run.lift(n0)  # also checks that the path covers t0
    u0 = project_mean_zero(ctx.grid, u0, ctx.zw) if mean_defect(u0, ctx.zw) > 1e-14 else u0.copy()
    h2 = inner_h(ctx, u0, u0)
    if not np.isfinite(h2):
        raise ValueError(f"u0 is not finite: ||u0||_H^2 = {h2}")
    state = SimState(u=u0, n=n0, xi=float(h2), run=run)
    state.__dict__.update(h2=h2, lift=lift)  # seeds the cached_properties, as in step
    return state


def simulate(ctx: OperatorContext, forcing: ForcingSetup, u0: np.ndarray,
             t0: float, t1: float, dt: float, snapshot_every: int = 0,
             linear_only: bool = False, record_diagnostics: bool = True,
             snapshot_sink=None) -> SimResult:
    """Advance from t0 to t1, recording diagnostics each step.

    Snapshots are taken every ``snapshot_every`` steps (0: endpoints only).
    They are stored as copies in ``SimResult.snapshots`` unless a
    ``snapshot_sink(t, u)`` is given; the sink is handed each snapshot when
    it is taken, must not modify ``u``, and the list then stays empty.
    Each step is handed the only reference to the state it replaces, which
    it frees after its predictor, and writes into one ``step_arrays`` set.
    Identical (path seed, config) inputs give bitwise-identical output.  The
    noise path must cover the lift of every state up to t1; that is checked
    before the first step.
    """
    if not t0 < t1:
        raise ValueError("t0 must precede t1")
    run = Run(ctx, forcing, dt)
    n1 = run.end_step(t1)
    state = initial_state(run, u0, t0)
    del u0  # the state holds its own copy
    n_steps = n1 - state.n

    snapshots = []
    if snapshot_sink is None:
        def snapshot_sink(t, u):
            snapshots.append((t, u.copy()))

    snapshot_sink(state.t, state.u)
    diagnostics = []
    work = step_arrays(ctx)

    def measure(st):
        """The state's norms and its (||u||_H^2, ||u||_V, <lift_x, u>) budget terms."""
        nrm = modal_norms(ctx, st.modes, work[0])  # psi is idle between steps
        return nrm, (st.h2, nrm.v, lift_terms(ctx, forcing.support, st.lift, st.u)[1])

    # Each state's budget terms serve the steps on either side of it.
    terms = measure(state)[1] if record_diagnostics else None
    for k in range(n_steps):
        t_prev = state.t
        held, state = [state], None  # step takes the only reference out of held
        state = step(held, linear_only=linear_only, work=work)
        if record_diagnostics:
            start, (nrm, terms) = terms, measure(state)
            diagnostics.append(DiagnosticsRecord(
                t=state.t, h=nrm.h, v=nrm.v, vdual_liftx=state.vdual_liftx,
                xi=state.xi, residual=_budget_residual(ctx, state.t - t_prev, start, terms),
                dt=dt))
        if snapshot_every and (k + 1) % snapshot_every == 0 and k + 1 < n_steps:
            snapshot_sink(state.t, state.u)
    del work  # before the last snapshot, which the default sink copies
    snapshot_sink(state.t, state.u)
    return SimResult(final=state, snapshots=snapshots, diagnostics=diagnostics)


def _budget_residual(ctx: OperatorContext, dt: float, start, end) -> float:
    """Residual from the (||u||_H^2, ||u||_V, <lift_x, u>) terms at a step's two ends."""
    (h0, v0, flux0), (h1, v1, flux1) = start, end
    return float((h1 - h0) + ctx.nu * (v0 ** 2 + v1 ** 2) * dt
                 + ctx.beta * (flux0 + flux1) * dt)


def energy_budget(ctx: OperatorContext, prev: SimState, nxt: SimState,
                  lift_prev, lift_next) -> float:
    """Discrete residual of d||u||_H^2 + 2 nu ||u||_V^2 dt = -2 beta <lift_x, u> dt.

    Flux terms are trapezoid-averaged between the step endpoints; the
    residual is O(dt^3) per step (O(dt^2) accumulated) and insensitive to the
    energy-neutral operators B, C, D.
    """
    def terms(u, lift):
        flux = lift_terms(ctx, *nonzero_columns(lift), u)[1]
        return inner_h(ctx, u, u), norms(ctx, u).v, flux

    return _budget_residual(ctx, nxt.t - prev.t, terms(prev.u, lift_prev),
                            terms(nxt.u, lift_next))


def reconstruct_streamfunction(ctx: OperatorContext, u: np.ndarray, lift):
    """psi = G(u) + lift and potential vorticity q = u + f0 + beta*y.

    Returns (psi_hat, psi_phys, pv_phys); applying the discrete stratified
    Laplacian to psi recovers u up to the lift's boundary-row flux injection.
    """
    psi_hat = apply_G(ctx, u) + lift
    psi = inverse_transform(ctx.grid, psi_hat)
    uphys = inverse_transform(ctx.grid, u)
    pv = uphys + ctx.vop.profile.f0 + ctx.beta * ctx.grid.y[None, :, None]
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
    with open(fname, "wb") as fh:
        fh.write(header)
        fh.writelines(np.ascontiguousarray(r, dtype="<c16") for r in u.transpose(1, 2, 0))


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
