"""xi*, absorbing ball, cocycle, pullback ensembles, growth diagnostics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from stochqg import attractor
from stochqg.attractor import (
    PullbackConfig,
    absorbing_ball,
    cocycle_check,
    diameter,
    dist_h,
    estimate_xi_star,
    flow_estimate,
    growth_diagnostic,
    hausdorff,
    invariance_check,
    leading_real_modes,
    pullback_run,
    pullback_window,
    quad_steps,
    sample_initial_ball,
)
from stochqg.forcing import (
    NoisePath,
    PeriodicFlux,
    advance_ou,
    build_forcing,
    ensemble_stream,
    init_ou_state,
    make_noise_model,
    make_noise_path,
    setup_lift,
    shift_path,
    steps_per_noise,
)
from stochqg.integrator import Run, simulate, xi_step
from stochqg.lift import BoundaryFlux, boundary_modes, mode_flux
from stochqg.operators import (build_context, deriv_x, inner_h, lift_terms, nonzero_columns,
                               norm_h, norms, unit_eigenmode)
from stochqg.spectral import Grid, build_vertical_operator, make_profile

from conftest import dense_coef, half_plane_band

DT = 0.125  # dyadic step, 8 per unit time; noise grid equals the step grid


def dyn_ctx(grid, vop, nu=2.0, beta=1.0):
    return build_context(grid, vop, nu=nu, beta=beta)


def dyn_forcing(grid, vop, q0=0.05, amp=0.4, phase=0.2, seed=5, t_min=-64.0, t_max=8.0,
                n_modes=6, tau_c=0.5):
    model = make_noise_model(grid, n_modes, q0=q0, p=3.0, tau_c=tau_c)
    path = make_noise_path(seed, n_modes, DT, t_min, t_max)
    coef = amp * dense_coef(mode_flux(grid, boundary_modes(grid, 4)[2]))
    periodic = PeriodicFlux(BoundaryFlux.from_dense(coef), phase=phase)
    return build_forcing(grid, vop, model, periodic, path)


def _dense(grid, setup, cols):
    """Lift columns on ``setup.support`` scattered into a dense field, as ``xi_step`` takes it."""
    out = np.zeros((grid.nz, grid.ny, grid.nkx), dtype=complex)
    out[:, setup.support[0], setup.support[1]] = cols
    return out


def _xi_star_reference(ctx, forcing, at, dt):
    """The xi* quadrature with the OU advance and the lift's step shift written out."""
    path = forcing.path
    h = path.dt_noise
    m = steps_per_noise(dt, h)
    rate = ctx.nu * ctx.lambda1
    n = quad_steps(rate, None, dt)
    n_at = round(at / dt)
    state = init_ou_state(forcing.model, path, np.floor_divide(n_at - n, m) * h)
    src = np.empty(n + 1)
    for k in range(n + 1):
        nn = n_at - n + k
        j_here = nn // m + path.local_shift
        if j_here > state.j:
            state = advance_ou(state, (j_here - state.j) * h, path, forcing.model)
        lift = setup_lift(forcing, state, step_index=nn + path.local_shift * m, dt=dt)
        src[k] = (ctx.beta ** 2 / ctx.nu) * lift_terms(ctx, *nonzero_columns(lift))[0] ** 2
    w = np.exp(rate * dt * np.arange(-n, 1))
    return (float(np.trapezoid(w * src, dx=dt)),
            float(np.sum(w[:-1] * src[:-1] * (1.0 - np.exp(-rate * dt)) / rate)),
            float(np.exp(-rate * n * dt) * src.max() / rate))


class TestXiStar:
    def test_zero_forcing(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, q0=0.0, amp=0.0)
        est = estimate_xi_star(ctx, setup, at=0.0, dt=DT)
        assert est.value == 0.0
        assert est.truncation_bound == 0.0

    def test_constant_source_closed_form(self, grid, vop):
        # dt_noise = 1 and phase 0.25: the periodic factor is exactly 1 at
        # every sample, so the source is a constant c and
        # xi* = beta^2 c / (nu^2 lam1) up to quadrature + truncation error.
        ctx = dyn_ctx(grid, vop, nu=0.5)
        model = make_noise_model(grid, 2, q0=0.0, p=3.0, tau_c=0.5)
        path = make_noise_path(3, 2, 1.0, -400.0, 1.0)
        coef = 0.5 * dense_coef(mode_flux(grid, boundary_modes(grid, 4)[2]))
        periodic = PeriodicFlux(BoundaryFlux.from_dense(coef), 0.25)
        setup = build_forcing(grid, vop, model, periodic, path)
        from stochqg.operators import deriv_x, norms
        periodic_lift = np.zeros((grid.nz, grid.ny, grid.nkx), dtype=complex)
        periodic_lift[:, setup.support[0], setup.support[1]] = setup.basis[-1]
        c = norms(ctx, deriv_x(ctx, periodic_lift)).vdual ** 2
        est = estimate_xi_star(ctx, setup, at=0.0, dt=1.0, quad_horizon=300.0)
        expect = ctx.beta ** 2 * c / (ctx.nu ** 2 * ctx.lambda1)
        assert est.value == pytest.approx(expect, rel=2e-3)

    def test_horizon_self_consistency(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, t_min=-160.0)
        rate = ctx.nu * ctx.lambda1
        h1 = 24.0
        a = estimate_xi_star(ctx, setup, at=0.0, quad_horizon=h1, dt=DT)
        b = estimate_xi_star(ctx, setup, at=0.0, quad_horizon=2 * h1, dt=DT)
        assert abs(a.value - b.value) <= a.truncation_bound * (1 + 1e-9) + 1e-15

    def test_beta_scaling(self, grid, vop):
        setup = dyn_forcing(grid, vop)
        ctx1 = dyn_ctx(grid, vop, beta=1.0)
        ctx2 = dyn_ctx(grid, vop, beta=2.0)
        a = estimate_xi_star(ctx1, setup, at=0.0, dt=DT)
        b = estimate_xi_star(ctx2, setup, at=0.0, dt=DT)
        assert b.value == pytest.approx(4.0 * a.value, rel=1e-12)

    def test_insufficient_coverage(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, t_min=-16.0)
        with pytest.raises(ValueError):
            estimate_xi_star(ctx, setup, at=0.0, quad_horizon=40.0, dt=DT)

    @pytest.mark.parametrize("dt, shift", [(DT, 0.0), (DT / 2, 0.0), (DT / 2, 3.0)])
    def test_matches_written_out_quadrature(self, grid, vop, dt, shift):
        # The stepper's lift and OU rules give the written-out quadrature
        # bitwise, on the noise grid, between its points and on a shifted path.
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, t_min=-96.0)
        setup = dataclasses.replace(setup, path=shift_path(setup.path, shift))
        est = estimate_xi_star(ctx, setup, at=-1.0, dt=dt)
        assert (est.value, est.held_value, est.truncation_bound) == \
            _xi_star_reference(ctx, setup, -1.0, dt)

    def test_pullback_window_is_tight(self, grid, vop):
        # dt = dt_noise/2 and an odd step count in the quadrature window, so
        # the OU set-up point lies one step before the window's first step.
        ctx = dyn_ctx(grid, vop)
        cfg = PullbackConfig(horizons=(1, 2), ensemble=8, quad_horizon=24.0625)
        t_lo, t_hi = pullback_window(cfg, ctx, DT / 2, DT)
        assert (t_lo, t_hi) == (-26.125, 0.0)
        fits = dyn_forcing(grid, vop, t_min=t_lo, t_max=t_hi)
        for T in cfg.horizons:
            estimate_xi_star(ctx, fits, at=-T, quad_horizon=cfg.quad_horizon, dt=DT / 2)
        short = dyn_forcing(grid, vop, t_min=t_lo + DT, t_max=t_hi)
        with pytest.raises(ValueError):
            estimate_xi_star(ctx, short, at=-2, quad_horizon=cfg.quad_horizon, dt=DT / 2)

    def test_xi_pullback_contraction(self, grid, vop):
        # |xi(T, theta_{-T} omega, x0) - xi*| <= e^{-rate T} |x0 - xi*(-T)|
        # plus the quadrature-rule tolerance measured on the same grid.
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, t_min=-96.0)
        rate = ctx.nu * ctx.lambda1
        T = 8
        est0 = estimate_xi_star(ctx, setup, at=0.0, dt=DT)
        estT = estimate_xi_star(ctx, setup, at=-float(T), dt=DT)
        x0 = 5.0
        xi = x0
        run = Run(ctx, setup, DT)
        for k in range(round(T / DT)):
            lift = _dense(grid, setup, run.lift(round(-T / DT) + k))
            xi = xi_step(xi, lift, DT, ctx)
        tol = (est0.rule_gap + est0.truncation_bound
               + np.exp(-rate * T) * (estT.rule_gap + estT.truncation_bound) + 1e-12)
        assert abs(xi - est0.value) <= np.exp(-rate * T) * abs(x0 - estT.value) + tol


class TestAbsorbingBall:
    def test_zero(self):
        assert absorbing_ball(0.0) == 0.0
        with pytest.raises(ValueError):
            absorbing_ball(-1.0)

    def test_forward_invariance_via_xi(self, grid, vop):
        # Seeding the xi recursion at 2 xi*(t0) keeps it below 2 xi*(t).
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, t_min=-96.0)
        t0, t1 = -4.0, 0.0
        est_t0 = estimate_xi_star(ctx, setup, at=t0, dt=DT)
        est_t1 = estimate_xi_star(ctx, setup, at=t1, dt=DT)
        xi = absorbing_ball(est_t0.held_value)
        run = Run(ctx, setup, DT)
        for k in range(round((t1 - t0) / DT)):
            lift = _dense(grid, setup, run.lift(round(t0 / DT) + k))
            xi = xi_step(xi, lift, DT, ctx)
        bound = absorbing_ball(est_t1.held_value)
        tol = 2.0 * (est_t0.truncation_bound + est_t1.truncation_bound) + 1e-12
        assert xi <= bound * (1 + 1e-9) + tol


class TestSampling:
    def test_sphere_exact_radius(self, ctx):
        members = sample_initial_ball(ctx, 4.0, 8, 10, "sphere", seed=7)
        for u in members:
            assert inner_h(ctx, u, u) == pytest.approx(4.0, rel=1e-12)

    def test_ball_inside(self, ctx):
        members = sample_initial_ball(ctx, 4.0, 16, 10, "ball", seed=7)
        assert all(inner_h(ctx, u, u) <= 4.0 * (1 + 1e-12) for u in members)

    def test_deterministic(self, ctx):
        a = sample_initial_ball(ctx, 1.0, 8, 6, "sphere", seed=9, key=(4,))
        b = sample_initial_ball(ctx, 1.0, 8, 6, "sphere", seed=9, key=(4,))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_leading_modes_sorted(self, ctx):
        modes = leading_real_modes(ctx, 9)
        lams = [ctx.vop.mu[m] + k * k + l * l for (m, l, k, _) in modes]
        assert lams == sorted(lams)
        assert (0, 0, 0, "cos") not in modes

    @pytest.mark.parametrize("nx, nz", [(8, 5), (16, 9), (32, 17)])
    @pytest.mark.parametrize("n_buoy", [1.0, 4.0])
    def test_leading_modes_match_full_enumeration(self, nx, nz, n_buoy):
        # n_buoy = 4 puts many vertical modes below the first horizontal one.
        grid = Grid(nx, nx, nz)
        ctx = build_context(grid, build_vertical_operator(make_profile(1.0, n_buoy, nz), nz),
                            nu=0.5, beta=1.0)
        n_all = len(_all_real_modes(ctx))
        for count in (1, 5, 12, 40, n_all):
            assert leading_real_modes(ctx, count) == _all_real_modes(ctx)[:count]
        for count in (n_all + 1, 0, -1):
            with pytest.raises(ValueError, match="mode count"):
                leading_real_modes(ctx, count)

    @pytest.mark.parametrize("shape", [(48, 16, 9), (16, 48, 9)])
    def test_leading_modes_on_non_square_grids(self, shape):
        grid = Grid(*shape)
        ctx = build_context(grid, build_vertical_operator(make_profile(1.0, 1.0, grid.nz),
                                                          grid.nz), nu=0.5, beta=1.0)
        every = _all_real_modes(ctx)
        for count in (*range(1, 41), 100, 200, 400, len(every)):
            assert leading_real_modes(ctx, count) == every[:count]

    @pytest.mark.parametrize("shape", [(16, 16, 9), (32, 32, 17), (48, 16, 9)])
    @pytest.mark.parametrize("leading, rule", [(12, "sphere"), (40, "ball")])
    def test_members_are_the_sum_of_unit_eigenmodes(self, shape, leading, rule):
        grid = Grid(*shape)
        ctx = build_context(grid, build_vertical_operator(make_profile(1.0, 1.0, grid.nz),
                                                          grid.nz), nu=0.5, beta=1.0)
        modes = leading_real_modes(ctx, leading)
        # k = 0 modes fill a conjugate pair of columns; the (0, 0) column holds
        # vertical modes m >= 1 only.
        assert any(k == 0 and l != 0 for _, l, k, _ in modes)
        assert any(k == l == 0 and m >= 1 for m, l, k, _ in modes)
        members = sample_initial_ball(ctx, 2.0, 3, leading, rule, seed=11, key=(5,))
        for i, u in enumerate(members):
            rng = ensemble_stream(11, 5, i)
            g = rng.standard_normal(leading)
            r = np.sqrt(2.0)
            if rule == "ball":
                r *= rng.uniform() ** (1.0 / leading)
            g *= r / np.linalg.norm(g)
            ref = np.zeros_like(u)
            for c, mode in zip(g, modes):
                ref += c * unit_eigenmode(ctx, *mode)
            assert u.tobytes() == ref.tobytes()  # signs of zero included

    def test_member_costs_one_field(self):
        # A member is built in place: no whole field per mode.
        grid = Grid(128, 128, 65)
        ctx = build_context(grid, build_vertical_operator(make_profile(1.0, 1.0, grid.nz),
                                                          grid.nz), nu=0.5, beta=1.0)
        field = grid.nz * grid.ny * grid.nkx * 16
        sample_initial_ball(ctx, 1.0, 1, 12, "sphere", seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            members = sample_initial_ball(ctx, 1.0, 1, 12, "sphere", seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert inner_h(ctx, members[0], members[0]) == pytest.approx(1.0, rel=1e-12)
        assert peak < 1.5 * field, peak / field


def _all_real_modes(ctx):
    """Reference order: every real A-mode, sorted as leading_real_modes ranks them."""
    grid = ctx.grid
    cands = []
    for m in range(grid.nz):
        for k, l in half_plane_band(grid):
            if (m, l, k) == (0, 0, 0):
                continue
            lam = ctx.vop.mu[m] + k * k + l * l
            for kind in (("cos",) if (k == 0 and l == 0) else ("cos", "sin")):
                cands.append((lam, m, l, k, kind))
    cands.sort(key=lambda c: (c[0], c[1], c[3], c[2], c[4]))
    return [(m, l, k, kind) for (_, m, l, k, kind) in cands]


class TestHausdorff:
    def test_identity(self, ctx):
        pts = sample_initial_ball(ctx, 1.0, 8, 6, "sphere", seed=1)
        assert dist_h(ctx, pts, pts) == 0.0

    def test_known_offset(self, ctx):
        a = [np.zeros((ctx.grid.nz, ctx.grid.ny, ctx.grid.nkx), complex)]
        e = unit_eigenmode(ctx, 0, 1, 0)
        b = [2.0 * e, 3.0 * e]
        assert dist_h(ctx, a, b) == pytest.approx(2.0, rel=1e-12)
        assert dist_h(ctx, b, a) == pytest.approx(3.0, rel=1e-12)
        assert hausdorff(ctx, a, b) == pytest.approx(3.0, rel=1e-12)


class TestCocycle:
    def test_t_zero_identity(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop)
        x = 0.1 * unit_eigenmode(ctx, 1, 1, 1)
        assert cocycle_check(ctx, setup, 1.0, 0.0, x, DT) == 0.0

    def test_bitwise_zero(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, q0=0.05, amp=0.4)
        x = 0.1 * unit_eigenmode(ctx, 1, 1, 1) + 0.05 * unit_eigenmode(ctx, 0, 2, 1)
        # s deliberately off the noise grid (but on the step grid).
        assert cocycle_check(ctx, setup, 1.0, 2.0, x, DT) == 0.0
        assert cocycle_check(ctx, setup, 0.625, 1.375, x, DT) == 0.0

    def test_periodic_only_period_one_autonomous(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, q0=0.0, amp=0.4)
        x = 0.1 * unit_eigenmode(ctx, 1, 1, 1)
        assert cocycle_check(ctx, setup, 1.0, 2.0, x, DT) == 0.0
        # Autonomy of the period map: running from y over [0, t] on the
        # unshifted path equals running on the path shifted by one period.
        y = simulate(ctx, setup, x, 0.0, 1.0, DT, record_diagnostics=False).final.u
        a = simulate(ctx, setup, y, 0.0, 2.0, DT, record_diagnostics=False).final.u
        shifted = dataclasses.replace(setup, path=shift_path(setup.path, 1.0))
        b = simulate(ctx, shifted, y, 0.0, 2.0, DT, record_diagnostics=False).final.u
        assert np.array_equal(a, b)

    def test_misaligned(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop)
        x = np.zeros((grid.nz, grid.ny, grid.nkx), complex)
        with pytest.raises(ValueError):
            cocycle_check(ctx, setup, 0.3, 1.0, x, DT)

    def test_shift_off_noise_grid_rejected_before_any_leg(self, grid, vop, monkeypatch):
        # s = DT/2 lies on the step grid of dt = DT/2 but between noise gridpoints.
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop)
        x = 0.1 * unit_eigenmode(ctx, 1, 1, 1)
        legs = []

        def counted(*args, **kwargs):
            legs.append(args[3:5])
            return run_leg(*args, **kwargs)

        run_leg = attractor.simulate
        monkeypatch.setattr(attractor, "simulate", counted)
        with pytest.raises(ValueError, match="shift s: 0.0625 is not a multiple of the grid step"):
            cocycle_check(ctx, setup, DT / 2, 1.0, x, DT / 2)
        assert legs == []


class TestPullback:
    def test_zero_forcing_contraction(self, grid, vop):
        # Energy decay bounds the endpoint radius and the ensemble diameter.
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, q0=0.0, amp=0.0)
        rate = ctx.nu * ctx.lambda1
        members = sample_initial_ball(ctx, 1.0, 8, 8, "sphere", seed=3)
        d0 = diameter(ctx, members)
        for T in (1, 2):
            ends = [simulate(ctx, setup, u, -float(T), 0.0, DT,
                             record_diagnostics=False).final.u for u in members]
            factor = np.exp(-rate * T) * (1 + 1e-6)
            assert all(norm_h(ctx, u) <= factor for u in ends)
            assert diameter(ctx, ends) <= factor * d0

    def test_diameter_decreases(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        cfg = PullbackConfig(horizons=(1, 2, 4), ensemble=8, leading_modes=8, seed=11,
                             phase=0.2)
        medians = {T: [] for T in cfg.horizons}
        for seed in (21, 22, 23):
            setup = dyn_forcing(grid, vop, seed=seed)
            est = pullback_run(cfg, ctx, setup, DT)
            for T in cfg.horizons:
                medians[T].append(est.diameters[T])
        med = {T: np.median(v) for T, v in medians.items()}
        assert med[2] < med[1]
        assert med[4] < med[2]

    def test_ou_recursion_once_per_gridpoint(self, grid, vop, monkeypatch):
        # Every horizon's xi* quadrature and every member run read the OU
        # states of one series, so no gridpoint's update is made twice.
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop)
        calls = []
        orig = NoisePath.unit_normal

        def counted(path, j_abs):
            calls.append(j_abs)
            return orig(path, j_abs)

        monkeypatch.setattr(NoisePath, "unit_normal", counted)
        cfg = PullbackConfig(horizons=(1, 2), ensemble=8, leading_modes=8, seed=11, phase=0.2)
        pullback_run(cfg, ctx, setup, DT)
        assert 0 < len(calls) <= setup.path.n_steps
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("horizons", [(), (2, 2), (2, 4, 4), (4, 2), (0, 2), (-2, 2)])
    def test_horizons_must_strictly_increase(self, horizons):
        with pytest.raises(ValueError, match="strictly increasing"):
            PullbackConfig(horizons=horizons, ensemble=8)
        assert PullbackConfig(horizons=(1, 2), ensemble=8).horizons == (1, 2)

    def test_phase_must_match_forcing(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, phase=0.2)
        cfg = PullbackConfig(horizons=(1,), ensemble=8, leading_modes=8, phase=0.3)
        with pytest.raises(ValueError, match="phase"):
            pullback_run(cfg, ctx, setup, DT)

    def test_sampling_rule_independence(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop)
        ends = {}
        for rule in ("sphere", "ball"):
            cfg = PullbackConfig(horizons=(8,), ensemble=8, sampling_rule=rule,
                                 leading_modes=8, seed=13, phase=0.2)
            est = pullback_run(cfg, ctx, setup, DT)
            ends[rule] = (est.endpoints[8], est.diameters[8])
        d = hausdorff(ctx, ends["sphere"][0], ends["ball"][0])
        dmax = max(ends["sphere"][1], ends["ball"][1])
        assert d <= 1.5 * dmax + 1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PullbackConfig(horizons=(4, 2), ensemble=8)
        with pytest.raises(ValueError):
            PullbackConfig(horizons=(2, 4), ensemble=4)
        with pytest.raises(ValueError):
            PullbackConfig(horizons=(2,), ensemble=8, sampling_rule="cube")
        with pytest.raises(ValueError, match="leading_modes"):
            PullbackConfig(horizons=(2,), ensemble=8, leading_modes=0)


class TestInvariance:
    def test_zero_forcing(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, q0=0.0, amp=0.0)
        cfg = PullbackConfig(horizons=(2,), ensemble=8, leading_modes=8, seed=15, phase=0.2)
        est = pullback_run(cfg, ctx, setup, DT)
        assert est.diameters[2] == 0.0  # ball {0} evolves to {0}
        assert invariance_check(est, ctx, setup, 1.0, DT) == 0.0

    def test_t_zero(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop)
        cfg = PullbackConfig(horizons=(2,), ensemble=8, leading_modes=8, seed=15, phase=0.2)
        est = pullback_run(cfg, ctx, setup, DT)
        assert invariance_check(est, ctx, setup, 0.0, DT) == 0.0

    def test_triangle_budget(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop)
        cfg = PullbackConfig(horizons=(4, 8), ensemble=8, leading_modes=8, seed=16, phase=0.2)
        est = pullback_run(cfg, ctx, setup, DT)
        d = invariance_check(est, ctx, setup, 2.0, DT)
        budget = 2.0 * (est.diameters[8] + est.diameters[4]
                        + est.hausdorff_prev.get(8, 0.0)) + 1e-9
        assert d <= budget


class TestGrowthDiagnostic:
    def test_requires_fifty_points(self, ctx):
        zero = np.zeros((ctx.grid.nz, ctx.grid.ny, ctx.grid.nkx), complex)
        with pytest.raises(ValueError):
            growth_diagnostic([(0.0, norm_h(ctx, zero))] * 10)

    def test_stationary_series_zero_slope(self, ctx):
        rng = np.random.default_rng(17)
        e = unit_eigenmode(ctx, 0, 1, 0)
        series = [(float(t), norm_h(ctx, (2.0 + 0.3 * rng.standard_normal()) * e))
                  for t in range(1, 81)]
        g = growth_diagnostic(series)
        assert abs(g.slope) <= 3.0 * g.stderr + 1e-3

    def test_norm_rescaling_invariance(self, ctx):
        # Scaling the sets shifts log+ by a constant: the slope is unchanged.
        rng = np.random.default_rng(18)
        e = unit_eigenmode(ctx, 0, 1, 0)
        sets = [(float(t), (3.0 + 0.2 * rng.standard_normal()) * e) for t in range(1, 81)]
        g1 = growth_diagnostic([(t, norm_h(ctx, u)) for t, u in sets])
        g2 = growth_diagnostic([(t, norm_h(ctx, 5.0 * u)) for t, u in sets])
        assert abs(g1.slope - g2.slope) <= 1e-6 + 1e-9


class TestFlowEstimate:
    def _estimate(self, grid, vop):
        ctx = dyn_ctx(grid, vop)
        setup = dyn_forcing(grid, vop, t_max=16.0)
        cfg = PullbackConfig(horizons=(2,), ensemble=8, leading_modes=8, seed=19, phase=0.2)
        return ctx, setup, pullback_run(cfg, ctx, setup, DT)

    def test_records_expected_times(self, grid, vop):
        ctx, setup, est = self._estimate(grid, vop)
        series = flow_estimate(ctx, setup, est, DT, t_end=3.0)
        assert [t for t, _ in series] == [0.0, 1.0, 2.0, 3.0]
        assert all(type(r) is float and r > 0.0 for _, r in series)

    def test_series_is_member_max_of_h_norm(self, grid, vop):
        # Bitwise the per-record max over the members, each run on its own.
        ctx, setup, est = self._estimate(grid, vop)
        series = flow_estimate(ctx, setup, est, DT, t_end=3.0, record_every=0.5)
        runs = [simulate(ctx, setup, u, 0.0, 3.0, DT, snapshot_every=4,
                         record_diagnostics=False).snapshots for u in est.endpoints[2]]
        assert len(runs) == 8
        want = [(runs[0][i][0], max(norm_h(ctx, run[i][1]) for run in runs))
                for i in range(len(runs[0]))]
        assert [t for t, _ in want] == [0.5 * i for i in range(7)]
        assert series == want

    def test_series_retains_one_float_per_record(self, grid, vop):
        # Only the norms outlive the call (a few KiB against a 148 KiB field),
        # and one member runs at a time.
        ctx, setup, est = self._estimate(grid, vop)
        flow_estimate(ctx, setup, est, DT, t_end=1.0)  # first-use caches of the setup
        field = grid.nz * grid.ny * grid.nkx * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            series = flow_estimate(ctx, setup, est, DT, t_end=4.0, record_every=0.25)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(series) == 17
        assert kept < 8192 + 128 * len(series), kept
        assert peak < 12 * field, peak / field

    def test_rejects_t_end_off_the_record_grid(self, grid, vop):
        ctx, setup, est = self._estimate(grid, vop)
        for t_end, every in [(2.5, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="multiple of record_every"):
                flow_estimate(ctx, setup, est, DT, t_end=t_end, record_every=every)
