"""Driving processes: colored OU boundary noise, periodic flux, and their lift.

The white-in-time boundary flux is approximated by per-mode Ornstein-Uhlenbeck
processes with correlation time tau_c, stationary unit variance and covariance
weights q_i = q0 (1 + k^2 + l^2)^(-p) on the real boundary basis.  The
dynamics consumes only the harmonic lift of the flux,

    lift(t) = sum_i sqrt(q_i) zeta_i(t) G~(e_i)  +  sin(2pi (t + phase)) G~(u0),

since the interior part of the compensating process cancels from the
transformed equation and from the streamfunction reconstruction.  Each
lift is nonzero on at most two horizontal columns, so it is held and
assembled on those columns only.

Noise paths store Wiener increments on a fixed grid dt_noise, indexed by
*absolute* step number so that shifted paths read the same stored values
(W(., theta_s omega) = W(. + s, omega) - W(s, omega) holds bitwise when the
grids align).  The OU state lives on the noise grid and is sample-held in
between; all its one-step updates are exact.  zeta(t) is a deterministic
function of the path: the stationary draw is anchored at the path's first
gridpoint and recursed forward, which is what makes the solution operator a
genuine cocycle over the stored path.  The recursion runs once per path:
the OU states at all of its gridpoints are kept with the path (shifted
copies share them), and a run's ``integrator.Run.lift`` reads the lift of
any of its steps from them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .lift import BoundaryFlux, BoundaryMode, boundary_modes, mode_flux, solve_lift
from .operators import OperatorContext, norm_h
from .spectral import Grid, VerticalOperator, unit_mode_coef

_NS_INCREMENTS = 0
_NS_INIT = 1
_NS_ENSEMBLE = 2
_IDX_OFFSET = 1 << 62
_MAGIC = b"SQGNOIS1"
_HEADER = struct.Struct("<8sIQIddd")  # magic, version, seed, n_modes, dt_noise, t_min, t_max
_FILE_VERSION = 1


def grid_steps(t: float, h: float, what: str) -> int:
    """The integer n with n*h = t, to a relative 1e-9 of max(1, |t|).

    The one rule by which a time becomes an index on a step or noise grid.
    Raises ValueError naming ``what`` when t is off the grid or not finite,
    or when h is not positive and finite.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"{what}: grid step {h} must be positive and finite")
    q = t / h
    if not math.isfinite(q) or abs(round(q) * h - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{what}: {t} is not a multiple of the grid step {h}")
    return round(q)


def _stream(seed: int, namespace: int, *key: int) -> np.random.Generator:
    enc = tuple(int(k) + _IDX_OFFSET for k in key)
    return np.random.default_rng(np.random.SeedSequence((int(seed), namespace) + enc))


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Truncated boundary-noise covariance and correlation time."""

    n_modes: int
    q0: float
    p: float
    tau_c: float
    modes: tuple[BoundaryMode, ...]
    q: np.ndarray  # (n_modes,) per-mode variance weights

    @property
    def trace(self) -> float:
        """Sum of the covariance weights (finite by truncation)."""
        return float(self.q.sum())


def make_noise_model(grid: Grid, n_modes: int, q0: float, p: float, tau_c: float) -> NoiseModel:
    if tau_c <= 0.0:
        raise ValueError("tau_c must be positive")
    if q0 < 0.0:
        raise ValueError("q0 must be nonnegative")
    modes = tuple(boundary_modes(grid, n_modes))
    try:
        q = np.array([q0 * (1.0 + m.kh2) ** (-p) for m in modes])
    except OverflowError:
        raise ValueError(f"covariance weights q0 (1 + kh2)^(-p) overflow at p={p}") from None
    return NoiseModel(n_modes=n_modes, q0=float(q0), p=float(p), tau_c=float(tau_c),
                      modes=modes, q=q)


@dataclass(frozen=True, eq=False)
class PeriodicFlux:
    """Deterministic top-face flux u0 * sin(2pi (t + phase)), period 1, phase in [0, 1)."""

    u0: BoundaryFlux
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.phase < 1.0:
            raise ValueError("phase must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Wiener increments per boundary mode on an absolute step grid.

    ``local_shift`` realizes the Wiener shift theta_s: local step j of the
    shifted path reads absolute step j + local_shift.  Increments are lazily
    generated from namespaced seed streams keyed by (seed, block) so any
    window of any length reproduces bitwise, and time extension preserves
    existing values.
    """

    seed: int
    n_modes: int
    dt_noise: float
    i0_abs: int
    n_steps: int
    local_shift: int = 0
    _stored: np.ndarray | None = None
    # Not an init field, so ``dataclasses.replace`` gives a path its own cache.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    _BLOCK = 1024

    @property
    def t_min(self) -> float:
        return (self.i0_abs - self.local_shift) * self.dt_noise

    @property
    def t_max(self) -> float:
        return (self.i0_abs + self.n_steps - self.local_shift) * self.dt_noise

    @property
    def increments(self) -> np.ndarray:
        """(n_modes, n_steps) Wiener increments (variance dt_noise each)."""
        if self._stored is not None:
            return self._stored
        got = self._cache.get("increments")
        if got is None:
            got = self._generate(self.i0_abs, self.n_steps)
            self._cache["increments"] = got
        return got

    def _generate(self, j0: int, n: int) -> np.ndarray:
        out = np.empty((self.n_modes, n))
        sqh = np.sqrt(self.dt_noise)
        b = self._BLOCK
        j = j0
        while j < j0 + n:
            blk = j // b
            lo = max(j0, blk * b)
            hi = min(j0 + n, (blk + 1) * b)
            block = _stream(self.seed, _NS_INCREMENTS, blk).standard_normal((self.n_modes, b))
            out[:, lo - j0:hi - j0] = block[:, lo - blk * b:hi - blk * b] * sqh
            j = hi
        return out

    def covered_steps(self, dt: float) -> tuple[int, int, int]:
        """(m, first, last): m steps of dt per noise step, and the first and last step whose
        lift the path covers on its local clock, the last held at its last gridpoint."""
        m = steps_per_noise(dt, self.dt_noise)
        i0 = self.i0_abs - self.local_shift  # the first gridpoint on the local clock
        return m, i0 * m, (i0 + self.n_steps + 1) * m - 1

    def abs_step(self, t: float) -> int:
        """Absolute step index of a local time on the noise grid."""
        j = grid_steps(t, self.dt_noise, "noise-grid time") + self.local_shift
        if j < self.i0_abs or j > self.i0_abs + self.n_steps:
            raise ValueError(f"time {t} outside path range [{self.t_min}, {self.t_max}]")
        return j

    def unit_normal(self, j_abs: int) -> np.ndarray:
        """Standard normals of the increment over [j_abs, j_abs+1] steps."""
        if j_abs < self.i0_abs or j_abs >= self.i0_abs + self.n_steps:
            raise ValueError(f"absolute step {j_abs} outside stored range")
        return self.increments[:, j_abs - self.i0_abs] / np.sqrt(self.dt_noise)

    def stationary_draw(self) -> np.ndarray:
        """Dedicated stationary N(0,1) draw anchored at the path start."""
        return _stream(self.seed, _NS_INIT, self.i0_abs).standard_normal(self.n_modes)


def make_noise_path(seed: int, n_modes: int, dt_noise: float, t_min: float, t_max: float) -> NoisePath:
    if not 0 <= int(seed) < (1 << 63):
        raise ValueError("seed must be a nonnegative 63-bit integer")
    i0, i1 = grid_steps(t_min, dt_noise, "t_min"), grid_steps(t_max, dt_noise, "t_max")
    if i1 <= i0:
        raise ValueError("t_max must exceed t_min")
    return NoisePath(seed=int(seed), n_modes=int(n_modes), dt_noise=float(dt_noise),
                     i0_abs=i0, n_steps=i1 - i0)


def shift_path(path: NoisePath, s: float) -> NoisePath:
    """theta_s: relabel local time so that local t reads absolute t + s."""
    out = replace(path, local_shift=path.local_shift + grid_steps(s, path.dt_noise, "shift s"))
    object.__setattr__(out, "_cache", path._cache)  # same increments and OU states
    return out


def extend_noise_path(path: NoisePath, t_min: float, t_max: float) -> NoisePath:
    """Widen the covered window, keeping every existing increment bitwise.

    New indices are filled from the seed streams (identical to what a fresh
    generation would produce); stored values from a loaded file win on the
    overlap.
    """
    i0 = min(grid_steps(t_min, path.dt_noise, "t_min") + path.local_shift, path.i0_abs)
    i1 = max(grid_steps(t_max, path.dt_noise, "t_max") + path.local_shift,
             path.i0_abs + path.n_steps)
    out = NoisePath(seed=path.seed, n_modes=path.n_modes, dt_noise=path.dt_noise,
                    i0_abs=i0, n_steps=i1 - i0, local_shift=path.local_shift)
    if path._stored is not None:
        inc = out._generate(i0, i1 - i0)
        lo = path.i0_abs - i0
        inc[:, lo:lo + path.n_steps] = path._stored
        return replace(out, _stored=inc)
    return out


def save_noise_path(path: NoisePath, fname) -> None:
    """Write the increments under a header; a shifted path's t_min would move the OU anchor."""
    if path.local_shift:
        raise ValueError(f"cannot save a shifted noise path (local_shift={path.local_shift}); "
                         "save the unshifted path")
    header = _HEADER.pack(_MAGIC, _FILE_VERSION, path.seed, path.n_modes,
                          path.dt_noise, path.t_min, path.t_max)
    with open(fname, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def check_byte_count(fname, what: str, expected: int, actual: int) -> None:
    """Reject a truncated or padded file section with a ValueError."""
    if actual != expected:
        raise ValueError(f"{fname}: {what} has {actual} bytes, expected {expected}")


def load_noise_path(fname) -> NoisePath:
    with open(fname, "rb") as fh:
        raw = fh.read(_HEADER.size)
        check_byte_count(fname, "noise-path header", _HEADER.size, len(raw))
        magic, version, seed, n_modes, dt_noise, t_min, t_max = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"not a noise-path file (magic {magic!r})")
        if version != _FILE_VERSION:
            raise ValueError(f"unsupported noise-path version {version}")
        i0 = grid_steps(t_min, dt_noise, f"{fname}: header t_min")
        n_steps = grid_steps(t_max, dt_noise, f"{fname}: header t_max") - i0
        if n_steps < 1:
            raise ValueError(f"{fname}: header t_max must exceed t_min")
        payload = fh.read()
    check_byte_count(fname, "noise-path payload", n_modes * n_steps * 8, len(payload))
    data = np.frombuffer(payload, dtype="<f8").reshape(n_modes, n_steps).copy()
    return NoisePath(seed=seed, n_modes=n_modes, dt_noise=dt_noise,
                     i0_abs=i0, n_steps=n_steps, _stored=data)


@dataclass(frozen=True, eq=False)
class OUBoundaryState:
    """Per-mode colored-noise state at an absolute noise gridpoint."""

    zeta: np.ndarray
    j: int
    dt_noise: float


def ou_series(model: NoiseModel, path: NoisePath, init: str = "stationary") -> np.ndarray:
    """(n_steps + 1, n_modes) OU states at every gridpoint of the path, read-only.

    The recursion runs once per path and init mode, one ``advance_ou`` per
    gridpoint, and the rows are kept in the path's cache, which shifted
    copies of the path share.
    """
    if model.n_modes != path.n_modes:
        raise ValueError("model and path disagree on the mode count")
    key = ("ou", model.tau_c, init)
    series = path._cache.get(key)
    if series is None:
        if init == "stationary":
            zeta = path.stationary_draw()
        elif init == "burnin":
            zeta = np.zeros(model.n_modes)
        else:
            raise ValueError(f"unknown init mode {init!r}")
        state = OUBoundaryState(zeta=zeta, j=path.i0_abs, dt_noise=path.dt_noise)
        series = np.empty((path.n_steps + 1, model.n_modes))
        series[0] = zeta
        for k in range(1, path.n_steps + 1):
            state = advance_ou(state, path.dt_noise, path, model)
            series[k] = state.zeta
        series.flags.writeable = False
        path._cache[key] = series
    return series


def init_ou_state(model: NoiseModel, path: NoisePath, t: float, init: str = "stationary") -> OUBoundaryState:
    """OU state at local time t, deterministic given (path, t).

    "stationary": exact standard-normal draw at the path start, recursed
    forward along the stored increments.  "burnin": zero start at the path
    start (cross-validation mode; agrees in law once t - t_min >> tau_c).
    The returned ``zeta`` is the caller's own copy.
    """
    series = ou_series(model, path, init)
    j = path.abs_step(t)
    return OUBoundaryState(zeta=series[j - path.i0_abs].copy(), j=j, dt_noise=path.dt_noise)


def advance_ou(state: OUBoundaryState, dt: float, path: NoisePath, model: NoiseModel) -> OUBoundaryState:
    """Exact OU update over dt (an integer multiple of dt_noise).

    Composed one-step exact updates: the conditional law over any span is
    exactly mean e^{-dt/tau} zeta, variance 1 - e^{-2 dt/tau}, and the
    semigroup property holds bitwise on shared increments.
    """
    h = path.dt_noise
    n = grid_steps(dt, h, "OU update span dt")
    if n < 0:
        raise ValueError(f"dt={dt} is not a nonnegative multiple of dt_noise={h}")
    if n == 0:
        return state
    a = np.exp(-h / model.tau_c)
    b = np.sqrt(-np.expm1(-2.0 * h / model.tau_c))
    zeta = state.zeta
    for jj in range(state.j, state.j + n):
        zeta = a * zeta + b * path.unit_normal(jj)
    return OUBoundaryState(zeta=zeta, j=state.j + n, dt_noise=h)


def periodic_factor(periodic: PeriodicFlux, step_index: int, dt: float) -> float:
    """sin(2pi (t + phase)) at t = step_index * dt on the absolute clock.

    When 1/dt is an exact integer the index is reduced modulo the period
    first, so the factor is bitwise 1-periodic.
    """
    p = int(round(1.0 / dt))
    if p > 0 and p * dt == 1.0:
        step_index = step_index % p
    return float(np.sin(2.0 * np.pi * (step_index * dt + periodic.phase)))


@dataclass(frozen=True, eq=False)
class ForcingSetup:
    """Precomputed bundle consumed by the integrator and the attractor lab.

    ``model``: boundary-noise covariance weights and correlation time.
    ``periodic``: the deterministic top-face flux u0 sin(2pi (t + phase)).
    ``path``: the stored noise path that drives the OU state.
    ``support``: (li, ki) integer index arrays of the horizontal columns on
    which any lift is nonzero, in row-major order.
    ``basis``: (n_modes + 1, nz, ncols) lift basis on those columns: the
    lift of each noise mode, then G~(u0), the lift of the periodic flux.
    """

    model: NoiseModel
    periodic: PeriodicFlux
    path: NoisePath
    support: tuple[np.ndarray, np.ndarray]
    basis: np.ndarray


def build_forcing(grid: Grid, vop: VerticalOperator, model: NoiseModel,
                  periodic: PeriodicFlux, path: NoisePath) -> ForcingSetup:
    if model.n_modes != path.n_modes:
        raise ValueError(f"noise model has {model.n_modes} modes, path has {path.n_modes}")
    fluxes = [mode_flux(grid, mode) for mode in model.modes] + [periodic.u0]
    # A lift is nonzero exactly on its flux's columns: solve each on their sorted union.
    flat = sorted({col for f in fluxes for col in (f.li * grid.nkx + f.ki).tolist()})
    li, ki = np.divmod(np.array(flat, dtype=np.intp), grid.nkx)
    basis = np.array([solve_lift(grid, vop, f, (li, ki)) for f in fluxes])
    return ForcingSetup(model=model, periodic=periodic, path=path,
                        support=(li, ki), basis=basis)


def lift_columns(setup: ForcingSetup, zeta: np.ndarray, step_index: int, dt: float) -> np.ndarray:
    """Harmonic lift at t = step_index * dt with OU state ``zeta``, on ``setup.support``.

    lift(t) = sum_i sqrt(q_i) zeta_i l_i + sin(2pi (t + phase)) G~(u0): the
    amplitudes times ``setup.basis``, shape (nz, ncols).  The stochastic
    part is sample-held: ``zeta`` is the OU state of a noise gridpoint.
    """
    amp = np.append(np.sqrt(setup.model.q) * zeta,
                    periodic_factor(setup.periodic, step_index, dt))
    # numpy's einsum rather than a BLAS product, whose result could depend on
    # the thread count; the real amplitudes act on the float view of the basis.
    flat = setup.basis.reshape(amp.size, -1).view(np.float64)
    return np.einsum("i,ic->c", amp, flat).view(np.complex128).reshape(setup.basis.shape[1:])


def setup_lift(setup: ForcingSetup, state: OUBoundaryState,
               step_index: int | None = None, dt: float | None = None) -> np.ndarray:
    """Dense (nz, ny, nkx) ``lift_columns``; t defaults to the state's gridpoint."""
    if step_index is None:
        step_index, dt = state.j, state.dt_noise
    li, ki = setup.support
    out = np.zeros((setup.basis.shape[1], *setup.periodic.u0.shape), dtype=complex)
    out[:, li, ki] = lift_columns(setup, state.zeta, step_index, dt)
    return out


def steps_per_noise(dt: float, dt_noise: float) -> int:
    """Steps of dt per noise step; dt must divide dt_noise."""
    m = grid_steps(dt_noise, dt, "dt must divide dt_noise")
    if m < 1:
        raise ValueError(f"dt={dt} must divide dt_noise={dt_noise}")
    return m


def ensemble_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-member RNG stream (seed, member-index, ...)."""
    return _stream(seed, _NS_ENSEMBLE, *key)


def interior_ou_modes(ctx: OperatorContext, model: NoiseModel, path: NoisePath,
                      lifts: Sequence[np.ndarray], t0: float, t1: float,
                      track: Sequence[tuple[int, int]], y0: float = 0.0,
                      init: str = "stationary"):
    """Validation-only interior eigenmode coefficients driven by the lift.

    For a tracked pair (boundary-mode index i, vertical mode m), the full
    compensating field's eigencoefficient obeys y' = -nu lam (y - g(t)) with
    g(t) = sqrt(q_i) zeta_i(t) <l_i, e_k>_H, integrated exactly per noise step
    with the sample-held driving.  Returns (times, Y) with Y of shape
    (len(track), n_times).
    """
    h = path.dt_noise
    j0, j1 = path.abs_step(t0), path.abs_step(t1)
    series = ou_series(model, path, init)
    zw = ctx.zw
    gammas, decays = [], []
    for (i, m) in track:
        mode = model.modes[i]
        prof = _lift_profile(lifts[i], ctx.grid, mode)
        gamma = np.sqrt(model.q[i]) * float(zw @ (prof * ctx.vop.phi[:, m]))
        lam = mode.kh2 + ctx.vop.mu[m]
        gammas.append(gamma)
        decays.append(np.exp(-ctx.nu * lam * h))
    gammas = np.array(gammas)
    decays = np.array(decays)
    idx = np.array([i for (i, _) in track])

    n = j1 - j0
    times = t0 + h * np.arange(n + 1)
    Y = np.empty((len(track), n + 1))
    y = np.full(len(track), float(y0))
    Y[:, 0] = y
    for s, zeta in enumerate(series[j0 - path.i0_abs:j1 - path.i0_abs]):
        y = decays * y + (1.0 - decays) * gammas * zeta[idx]
        Y[:, s + 1] = y
    return times, Y


def _lift_profile(lift: np.ndarray, grid: Grid, mode: BoundaryMode) -> np.ndarray:
    """Vertical profile of a single-mode lift, normalized to the real basis.

    The stored column holds amp * profile with amp the unit-mode coefficient;
    dividing by amp recovers the profile of the unit-flux two-point solve in
    the real-basis normalization (<l_i, e_k>_H = sum_j w_j profile_j phi_m,j).
    """
    li = mode.l % grid.ny
    col = lift[:, li, mode.k]
    return (col / unit_mode_coef(mode.kind)).real


def temperedness_series(ctx: OperatorContext, setup: ForcingSetup, horizon: float,
                        sample_dt: float = 1.0, t0: float = 0.0):
    """Diagnostic series log+ ||lift(theta_t omega)||_H / |t| and its tail slope.

    The slope is the least-squares slope of log+ ||lift||_H against t over the
    tail half of the series; it is statistically zero for a stationary lift
    and decays like (log c)/t for the bounded deterministic-only lift.
    """
    path = setup.path
    h = path.dt_noise
    if grid_steps(sample_dt, h, "sample_dt") <= 0:
        raise ValueError("sample_dt must be a positive multiple of dt_noise")
    n = grid_steps(horizon, sample_dt, "horizon")
    if n < 2:
        raise ValueError("horizon too short")
    times = np.empty(n)
    logplus = np.empty(n)
    for k in range(1, n + 1):
        lift = setup_lift(setup, init_ou_state(setup.model, path, t0 + k * sample_dt))
        times[k - 1] = k * sample_dt
        logplus[k - 1] = max(np.log(max(norm_h(ctx, lift), 1e-300)), 0.0)
    ratio = logplus / np.abs(times)
    slope, se = tail_slope(times, logplus)
    return times, ratio, slope, se


def tail_slope(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and standard error over the tail half of a series."""
    n = len(times)
    t = times[n // 2:]
    y = values[n // 2:]
    if len(t) < 3:
        raise ValueError("too few points for a tail slope")
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (t - tbar))
    sigma2 = float(np.sum(resid ** 2) / max(len(t) - 2, 1))
    return slope, float(np.sqrt(sigma2 / sxx))
