"""Random/pullback attractor machinery: xi*, absorbing ball, cocycle checks,
pullback ensembles, invariance, and growth diagnostics.

The stationary energy bound

    xi*(omega) = (beta^2/nu) int_{-inf}^0 e^{nu lam1 tau} ||lift_x(theta_tau omega)||_{V'}^2 dtau

is estimated by trapezoid quadrature along the realized lift over a finite
backward horizon; the ball of squared H-radius 2 xi* is forward invariant and
pullback absorbing, and seeds the attractor ensembles.  All attractor claims
are evaluated at integer times (the period of the deterministic forcing),
matching the discrete-time restriction under which the flow is a random
dynamical system; continuous-time sets are produced by flowing the
integer-time estimate forward.  Every trajectory, ensemble members included,
runs through ``integrator.simulate``, one member at a time; the growth series
keeps only (t, max ||u||_H) per record.  Ensemble members evolve under the
same noise realization with per-member seed streams, so results are
deterministic regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .forcing import (ForcingSetup, ensemble_stream, grid_steps, shift_path, steps_per_noise,
                      tail_slope)
from .integrator import Run, simulate
from .operators import OperatorContext, eigenmode_columns, lift_terms, norm_h


@dataclass(frozen=True)
class PullbackConfig:
    """Horizons, ensemble layout, and the fixed periodic phase omega_2."""

    horizons: tuple[int, ...]
    ensemble: int
    sampling_rule: str = "sphere"
    leading_modes: int = 12
    phase: float = 0.0
    seed: int = 0
    quad_horizon: float | None = None

    def __post_init__(self):
        hs = self.horizons
        if len(hs) == 0 or hs[0] <= 0 or any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("horizons must be a nonempty strictly increasing sequence "
                             "of positive times")
        if self.ensemble < 8:
            raise ValueError("ensemble size must be at least 8")
        if self.leading_modes < 1:
            raise ValueError("leading_modes must be at least 1")
        if self.sampling_rule not in ("sphere", "ball"):
            raise ValueError(f"unknown sampling rule {self.sampling_rule!r}")


@dataclass(eq=False)
class AttractorEstimate:
    """Pullback endpoints at the observation time, per horizon."""

    horizons: tuple[int, ...]
    endpoints: dict            # T -> list of spectral arrays at time 0
    diameters: dict            # T -> float
    hausdorff_prev: dict       # T -> distance to the previous horizon's set
    xi_star: dict              # T -> xi*(theta_{-T} omega) used for the ball
    config: PullbackConfig


@dataclass(frozen=True)
class XiStarEstimate:
    value: float               # trapezoid quadrature
    held_value: float          # left-endpoint-held quadrature (xi recursion limit)
    truncation_bound: float
    horizon: float

    @property
    def rule_gap(self) -> float:
        return abs(self.value - self.held_value)


def quad_steps(rate: float, quad_horizon: float | None, dt: float) -> int:
    """Steps of dt in the xi* window at rate nu lam1: horizon 20/rate by default, >= 10/rate."""
    horizon = 20.0 / rate if quad_horizon is None else float(quad_horizon)
    if not horizon * rate >= 10.0:
        raise ValueError(f"quad_horizon {horizon:g} must be at least 10/(nu lam1), "
                         f"nu lam1 = {rate:g}")
    return int(np.ceil(horizon / dt))


def pullback_window(config: PullbackConfig, ctx: OperatorContext, dt: float,
                    dt_noise: float) -> tuple[float, float]:
    """The window [t_min, t_max] of noise path that ``pullback_run`` reads when observing at 0.

    Horizon T reads its xi* quadrature window, which ends at -T and whose
    first step holds the OU state of the noise gridpoint at or before it;
    its members then run to 0.
    """
    m = steps_per_noise(dt, dt_noise)
    n = quad_steps(ctx.nu * ctx.lambda1, config.quad_horizon, dt)
    first = min((grid_steps(-T, dt, f"horizon {T}") - n) // m for T in config.horizons)
    return first * dt_noise, 0.0


def estimate_xi_star(ctx: OperatorContext, forcing: ForcingSetup, at: float,
                     quad_horizon: float | None = None, dt: float | None = None) -> XiStarEstimate:
    """Backward exponentially weighted quadrature of the lift source at `at`.

    Evaluates (beta^2/nu) ||lift_x||_{V'}^2 on the step grid over
    [at - H, at]; the reported truncation bound is
    e^{-nu lam1 H} (sup observed source)/(nu lam1).
    """
    if dt is None:
        dt = forcing.path.dt_noise
    rate = ctx.nu * ctx.lambda1
    n = quad_steps(rate, quad_horizon, dt)
    horizon = n * dt
    n_at = grid_steps(at, dt, "quadrature endpoint")

    # Each step's lift is the one the stepper uses, so xi* sees its source;
    # ``Run.lift`` rejects a step the path does not cover.
    run = Run(ctx, forcing, dt)
    src = np.empty(n + 1)
    for k in range(n + 1):
        vdual = lift_terms(ctx, forcing.support, run.lift(n_at - n + k))[0]
        src[k] = (ctx.beta ** 2 / ctx.nu) * vdual ** 2
    tau = dt * np.arange(-n, 1)
    w = np.exp(rate * tau)
    trap = float(np.trapezoid(w * src, dx=dt))
    held = float(np.sum(w[:-1] * src[:-1] * (1.0 - np.exp(-rate * dt)) / rate))
    bound = float(np.exp(-rate * horizon) * src.max() / rate)
    return XiStarEstimate(value=trap, held_value=held, truncation_bound=bound,
                          horizon=horizon)


def absorbing_ball(xi_star: float) -> float:
    """Squared-H-norm threshold 2 xi* of the forward-invariant absorbing ball."""
    if xi_star < 0.0:
        raise ValueError("xi_star must be nonnegative")
    return 2.0 * xi_star


def leading_real_modes(ctx: OperatorContext, count: int) -> list[tuple[int, int, int, str]]:
    """The `count` lowest-eigenvalue real A-modes (m, l, k, kind).

    Ties are broken by (m, k, l, kind).  Only candidates that can rank among
    the first `count` are enumerated: the vertically constant (m = 0) modes
    alone give an upper bound on the `count`-th eigenvalue, and a mode's
    eigenvalue is at least its mu_m and at least its k^2 + l^2.
    """
    grid = ctx.grid
    mu = ctx.vop.mu
    grid.check_mode_count(count)
    # The m = 0 modes: lam = k^2 + l^2 exactly, one cos and one sin per (k, l) != (0, 0),
    # so the bound is the largest k^2 + l^2 of the disc of (count - 1) // 2 + 1 of them.
    need = (count - 1) // 2 + 2
    plane = grid.half_plane(need)
    bound = max(k * k + l * l for k, l in plane) if len(plane) >= need else np.inf
    cands = []
    for m in range(grid.nz):
        if mu[m] > bound:
            continue
        for k, l in plane:
            if (m, l, k) == (0, 0, 0):
                continue
            lam = mu[m] + k * k + l * l
            kinds = ("cos",) if (k == 0 and l == 0) else ("cos", "sin")
            for kind in kinds:
                cands.append((lam, m, l, k, kind))
    cands.sort(key=lambda c: (c[0], c[1], c[3], c[2], c[4]))
    return [(m, l, k, kind) for (_, m, l, k, kind) in cands[:count]]


def sample_initial_ball(ctx: OperatorContext, radius2: float, n_members: int,
                        leading: int, rule: str, seed: int, key: tuple = ()) -> list[np.ndarray]:
    """Members on (rule='sphere') or in (rule='ball') the squared-radius ball.

    Coefficients are drawn on the leading orthonormal real eigenmodes and
    rescaled, so every member has exactly the requested H norm.
    """
    grid = ctx.grid
    modes = leading_real_modes(ctx, leading)
    columns = [eigenmode_columns(ctx, *mode) for mode in modes]
    out = []
    for i in range(n_members):
        rng = ensemble_stream(seed, *key, i)
        g = rng.standard_normal(len(modes))
        r = np.sqrt(radius2)
        if rule == "ball":
            r *= rng.uniform() ** (1.0 / len(modes))
        g *= r / np.linalg.norm(g)
        # Each mode is added on its one or two columns only.
        u = np.zeros((grid.nz, grid.ny, grid.nkx), dtype=complex)
        for c, cols in zip(g, columns):
            for li, ki, col in cols:
                u[:, li, ki] += c * col
        out.append(u)
    return out


def dist_h(ctx: OperatorContext, a_set, b_set) -> float:
    """One-sided Hausdorff distance sup_a inf_b ||a - b||_H (exact pairwise)."""
    worst = 0.0
    for a in a_set:
        best = min(norm_h(ctx, a - b) for b in b_set)
        worst = max(worst, best)
    return worst


def hausdorff(ctx: OperatorContext, a_set, b_set) -> float:
    return max(dist_h(ctx, a_set, b_set), dist_h(ctx, b_set, a_set))


def diameter(ctx: OperatorContext, points) -> float:
    d = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = max(d, norm_h(ctx, points[i] - points[j]))
    return d


def pullback_run(config: PullbackConfig, ctx: OperatorContext, forcing: ForcingSetup,
                 dt: float, observe_at: float = 0.0) -> AttractorEstimate:
    """Evolve absorbing-ball ensembles from -T to the observation time.

    Every horizon uses the same noise realization; the initial ball at -T has
    squared radius 2 xi*(theta_{-T} omega).  ``config.phase`` must be the
    forcing's periodic phase.
    """
    if config.phase != forcing.periodic.phase:
        raise ValueError(f"config phase {config.phase} differs from the forcing's "
                         f"periodic phase {forcing.periodic.phase}")
    endpoints, diams, haus, xis = {}, {}, {}, {}
    prev_set = None
    for T in config.horizons:
        t0 = observe_at - T
        xs = estimate_xi_star(ctx, forcing, at=t0, quad_horizon=config.quad_horizon, dt=dt)
        r2 = absorbing_ball(xs.value)
        members = sample_initial_ball(ctx, r2, config.ensemble, config.leading_modes,
                                      config.sampling_rule, config.seed, key=(T,))
        ends = []
        for u0 in members:
            res = simulate(ctx, forcing, u0, t0, observe_at, dt,
                           record_diagnostics=False)
            ends.append(res.final.u)
        endpoints[T] = ends
        diams[T] = diameter(ctx, ends)
        xis[T] = xs.value
        if prev_set is not None:
            haus[T] = hausdorff(ctx, ends, prev_set)
        prev_set = ends
    return AttractorEstimate(horizons=tuple(config.horizons), endpoints=endpoints,
                             diameters=diams, hausdorff_prev=haus, xi_star=xis,
                             config=config)


def cocycle_check(ctx: OperatorContext, forcing: ForcingSetup, s: float, t: float,
                  x: np.ndarray, dt: float) -> float:
    """Max H deviation of phi(s+t, omega, x) vs phi(t, theta_s omega, phi(s, omega, x)).

    Both legs run on aligned step grids with all time-dependent inputs keyed
    to absolute indices, so the deviation is bitwise zero by design.
    """
    for name, val in (("s", s), ("t", t)):
        grid_steps(val, dt, name)

    def run(setup, u, a, b):
        if b == a:
            return u
        return simulate(ctx, setup, u, a, b, dt, record_diagnostics=False).final.u

    shifted = replace(forcing, path=shift_path(forcing.path, s))  # rejects s off the noise grid
    full = run(forcing, x, 0.0, s + t)
    second = run(shifted, run(forcing, x, 0.0, s), 0.0, t)
    return norm_h(ctx, full - second)


def invariance_check(estimate: AttractorEstimate, ctx: OperatorContext,
                     forcing: ForcingSetup, t: float, dt: float) -> float:
    """One-sided dist_H(phi(t, omega, A(omega)), A(theta_t omega)).

    A(omega) is the largest-horizon endpoint set of `estimate`; A(theta_t
    omega) is recomputed by a pullback to observation time t on the same path.
    """
    T = estimate.horizons[-1]
    a_now = estimate.endpoints[T]
    if t == 0.0:
        flowed = a_now
    else:
        flowed = [simulate(ctx, forcing, u, 0.0, t, dt, record_diagnostics=False).final.u
                  for u in a_now]
    est_t = pullback_run(replace(estimate.config, horizons=(T,)), ctx, forcing, dt,
                         observe_at=t)
    return dist_h(ctx, flowed, est_t.endpoints[T])


@dataclass(frozen=True, eq=False)
class GrowthDiagnostic:
    times: np.ndarray
    log_plus: np.ndarray
    slope: float
    stderr: float


def growth_diagnostic(series) -> GrowthDiagnostic:
    """Tail slope of log+ dist_H(A(theta_t omega), {0}) over an estimate series.

    `series` is a sequence of (t, max ||u||_H over the set); at least 50 time points.
    """
    if len(series) < 50:
        raise ValueError("need at least 50 time points")
    times = np.array([t for t, _ in series], dtype=float)
    r = np.array([r for _, r in series], dtype=float)
    log_plus = np.maximum(np.log(np.maximum(r, 1e-300)), 0.0)
    slope, se = tail_slope(times, log_plus)
    return GrowthDiagnostic(times=times, log_plus=log_plus, slope=slope, stderr=se)


def flow_estimate(ctx: OperatorContext, forcing: ForcingSetup,
                  estimate: AttractorEstimate, dt: float, t_end: float,
                  record_every: float = 1.0) -> list[tuple[float, float]]:
    """Flow the integer-time estimate forward, recording (t, max ||u||_H over A(theta_t omega)).

    Members run one at a time through ``simulate``; records at 0, record_every,
    ..., t_end feed growth_diagnostic.  This is how continuous-time sets are
    produced from the discrete-time estimate.
    """
    n_rec, n_total = grid_steps(record_every, dt, "record_every"), grid_steps(t_end, dt, "t_end")
    if n_rec < 1 or n_total < 1 or n_total % n_rec:
        raise ValueError("t_end must be a positive multiple of record_every")
    norms = []  # per member, its H norm at each record
    for u in estimate.endpoints[estimate.horizons[-1]]:
        norms.append([])
        simulate(ctx, forcing, u, 0.0, n_total * dt, dt, snapshot_every=n_rec,
                 record_diagnostics=False, snapshot_sink=lambda t, v: norms[-1].append(norm_h(ctx, v)))
    return [(i * n_rec * dt, max(r)) for i, r in enumerate(zip(*norms))]
