"""Acceptance criteria at desk scale (32 x 32 x 17, double precision).

Each criterion is one test that prints a single pass/fail line.  Tolerances
are pinned here and nowhere else; oracle values are computed independently
(dense eigensolver, analytic formulas, fine-step Euler-Maruyama) before
being compared against the production paths.
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from stochqg.attractor import (
    PullbackConfig,
    absorbing_ball,
    cocycle_check,
    estimate_xi_star,
    flow_estimate,
    growth_diagnostic,
    pullback_run,
    sample_initial_ball,
)
from stochqg.forcing import (
    PeriodicFlux,
    advance_ou,
    build_forcing,
    init_ou_state,
    make_noise_model,
    make_noise_path,
    setup_lift,
    temperedness_series,
)
from stochqg.integrator import Run, initial_state, simulate, step, xi_step
from stochqg.lift import (
    BoundaryFlux,
    boundary_modes,
    lift_interior_residual,
    mode_flux,
    precompute_mode_lifts,
    solve_lift,
)
from stochqg.operators import (
    apply_A,
    apply_C,
    apply_D,
    apply_G,
    build_context,
    eigenvalue_of,
    h2_scale,
    inner_h,
    jacobian,
    norm_h,
    norms,
    unit_eigenmode,
)
from stochqg.spectral import Grid, build_vertical_operator, make_profile

from conftest import dense_coef, random_field


def report(num, name, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    line = f"[criterion {num}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


@pytest.fixture(scope="module")
def desk():
    grid = Grid(nx=32, ny=32, nz=17)
    vop = build_vertical_operator(make_profile(1.0, 1.0, grid.nz), grid.nz)
    ctx = build_context(grid, vop, nu=0.5, beta=1.0)
    return grid, vop, ctx


def make_forcing(grid, vop, *, q0, amp, phase=0.2, seed=101, h=0.0625,
                 t_min=-8.0, t_max=8.0, n_modes=8, tau_c=0.5):
    model = make_noise_model(grid, n_modes, q0=q0, p=3.0, tau_c=tau_c)
    path = make_noise_path(seed, n_modes, h, t_min, t_max)
    coef = amp * dense_coef(mode_flux(grid, boundary_modes(grid, 4)[2]))
    return build_forcing(grid, vop, model, PeriodicFlux(BoundaryFlux.from_dense(coef), phase), path)


def test_criterion_1_algebraic_identities(desk):
    grid, vop, ctx = desk
    rng = np.random.default_rng(1001)
    failures = []
    worst = {"jvv": 0.0, "cuu": 0.0, "duu": 0.0, "tri": 0.0}
    for i in range(100):
        u = random_field(ctx, rng)
        v = random_field(ctx, rng)
        w = random_field(ctx, rng)
        lift = random_field(ctx, rng)

        juv = jacobian(ctx, u, v)
        val = abs(inner_h(ctx, juv, v))
        scale = h2_scale(ctx, u) * norms(ctx, v).v ** 2
        worst["jvv"] = max(worst["jvv"], val / scale)
        if val > 1e-12 * scale:
            failures.append(f"<J(u,v),v> sample {i}: {val / scale:.2e}")

        cv = abs(inner_h(ctx, apply_C(ctx, lift, u), u))
        cscale = h2_scale(ctx, lift) * norm_h(ctx, u) * norms(ctx, u).v
        worst["cuu"] = max(worst["cuu"], cv / cscale)
        if cv > 1e-12 * cscale:
            failures.append(f"<C(lift,u),u> sample {i}: {cv / cscale:.2e}")

        dv = abs(inner_h(ctx, apply_D(ctx, u), u))
        dscale = ctx.beta * norm_h(ctx, u) ** 2
        worst["duu"] = max(worst["duu"], dv / dscale)
        if dv > 1e-12 * dscale:
            failures.append(f"(D(u),u) sample {i}: {dv / dscale:.2e}")

        t1 = inner_h(ctx, juv, w)
        t2 = inner_h(ctx, jacobian(ctx, u, w), v)
        rel = abs(t1 + t2) / (abs(t1) + abs(t2) + 1e-300)
        worst["tri"] = max(worst["tri"], rel)
        if rel > 1e-12:
            failures.append(f"trilinear antisymmetry sample {i}: {rel:.2e}")
    report(1, "algebraic identities", failures,
           f"worst rel: J={worst['jvv']:.1e} C={worst['cuu']:.1e} "
           f"D={worst['duu']:.1e} tri={worst['tri']:.1e}")


def test_criterion_2_inverse_operator(desk):
    grid, vop, ctx = desk
    rng = np.random.default_rng(1002)
    failures = []
    # Independent dense-eigensolver oracle for lambda1.
    nz = vop.nz
    m = np.zeros((nz, nz))
    m[np.arange(nz), np.arange(nz)] = vop.diag
    m[np.arange(nz - 1), np.arange(1, nz)] = vop.offdiag
    m[np.arange(1, nz), np.arange(nz - 1)] = vop.offdiag
    lam1_oracle = min(1.0, float(np.linalg.eigvalsh(m)[1]))
    if abs(ctx.lambda1 - lam1_oracle) > 1e-10:
        failures.append(f"lambda1 {ctx.lambda1} vs oracle {lam1_oracle}")

    worst_inv, worst_coerce = 0.0, np.inf
    for i in range(100):
        f = random_field(ctx, rng)
        rel = norm_h(ctx, apply_A(ctx, -apply_G(ctx, f)) - f) / norm_h(ctx, f)
        worst_inv = max(worst_inv, rel)
        if rel > 1e-11:
            failures.append(f"A(-G) sample {i}: {rel:.2e}")
        ratio = inner_h(ctx, apply_A(ctx, f), f) / (lam1_oracle * inner_h(ctx, f, f))
        worst_coerce = min(worst_coerce, ratio)
        if ratio < 1.0 - 1e-12:
            failures.append(f"coercivity sample {i}: ratio {ratio}")
    report(2, "inverse operator", failures,
           f"worst A(-G) rel={worst_inv:.1e}, min coercivity ratio={worst_coerce:.3f}")


def test_criterion_3_lift(desk):
    grid, vop, ctx = desk
    rng = np.random.default_rng(1003)
    failures = []
    worst_res = 0.0
    for lift in precompute_mode_lifts(grid, vop, 12):
        worst_res = max(worst_res, lift_interior_residual(grid, vop, lift))
    coef = rng.standard_normal((grid.ny, grid.nkx)) * (1 + 0j)
    coef[0, 0] = 0.0
    worst_res = max(worst_res, lift_interior_residual(
        grid, vop, solve_lift(grid, vop, BoundaryFlux.from_dense(coef))))
    if worst_res > 1e-10:
        failures.append(f"interior residual {worst_res:.2e}")

    # Constant-F mode (1, 0): cosh(z)/sinh(2pi) profile at second order.
    errs, sizes = [], [17, 33, 65, 129]
    for nz in sizes:
        g = Grid(nx=8, ny=8, nz=nz)
        v = build_vertical_operator(make_profile(1.0, 1.0, nz), nz)
        c = np.zeros((g.ny, g.nkx), dtype=complex)
        c[0, 1] = 1.0
        got = solve_lift(g, v, BoundaryFlux.from_dense(c))[:, 0, 1].real
        expect = np.cosh(g.z) / np.sinh(2 * np.pi)
        errs.append(np.max(np.abs(got - expect)))
    slopes = [np.log(errs[i] / errs[i + 1]) / np.log((sizes[i + 1] - 1) / (sizes[i] - 1))
              for i in range(len(errs) - 1)]
    for s in slopes:
        if abs(s - 2.0) > 0.2:
            failures.append(f"cosh profile convergence slope {s:.3f}")
    report(3, "boundary lift", failures,
           f"worst residual={worst_res:.1e}, slopes={[f'{s:.2f}' for s in slopes]}")


def test_criterion_4_noise(desk):
    grid, vop, ctx = desk
    failures = []
    h, tau = 0.0625, 0.5

    # Exact one-step moments vs a fine-step Euler-Maruyama oracle, 1e5
    # transitions each.
    n = 100_000
    model = make_noise_model(grid, 1, q0=1.0, p=3.0, tau_c=tau)
    path = make_noise_path(41, 1, h, 0.0, (n + 1) * h)
    s = init_ou_state(model, path, 0.0)
    traj = np.empty(n + 1)
    traj[0] = s.zeta[0]
    for k in range(n):
        s = advance_ou(s, h, path, model)
        traj[k + 1] = s.zeta[0]
    z0, z1 = traj[:-1], traj[1:]
    a_hat = float(np.sum(z0 * z1) / np.sum(z0 * z0))
    b2_hat = float(np.mean((z1 - a_hat * z0) ** 2))

    rng = np.random.default_rng(4242)
    reps, sub = 100_000, 64
    dt_f = h / sub
    z = rng.standard_normal(reps)
    z0_em = z.copy()
    for _ in range(sub):
        z = z - z / tau * dt_f + np.sqrt(2.0 / tau * dt_f) * rng.standard_normal(reps)
    a_em = float(np.sum(z0_em * z) / np.sum(z0_em * z0_em))
    b2_em = float(np.mean((z - a_em * z0_em) ** 2))

    a_true = np.exp(-h / tau)
    se_a = np.sqrt((1 - a_true ** 2) / n) * np.sqrt(2.0)
    se_b = (1 - a_true ** 2) * np.sqrt(2.0 / n) * np.sqrt(2.0)
    if abs(a_hat - a_em) > 3 * se_a:
        failures.append(f"OU mean coef {a_hat:.6f} vs EM {a_em:.6f}")
    if abs(b2_hat - b2_em) > 3 * se_b:
        failures.append(f"OU step variance {b2_hat:.6f} vs EM {b2_em:.6f}")

    # Two-slice Kolmogorov-Smirnov on a designated lift coefficient at the
    # 1% level (integer-separated slices, 300 independent paths).
    t1, t2 = 3.0, 24.0
    a_samples, b_samples = [], []
    for seed in range(300):
        f = make_forcing(grid, vop, q0=0.04, amp=0.3, seed=7000 + seed,
                         t_min=0.0, t_max=t2, n_modes=4)
        st = init_ou_state(f.model, f.path, 0.0)
        st = advance_ou(st, t1, f.path, f.model)
        a_samples.append(setup_lift(f, st)[grid.nz - 1, 1, 0].real)
        st = advance_ou(st, t2 - t1, f.path, f.model)
        b_samples.append(setup_lift(f, st)[grid.nz - 1, 1, 0].real)
    ks = ks_2samp(a_samples, b_samples)
    if ks.pvalue <= 0.01:
        failures.append(f"stationarity KS p={ks.pvalue:.4f}")

    # Temperedness: mean tail slope over >= 10 seeds within 2 SE of 0.
    slopes = []
    for seed in range(10):
        f = make_forcing(grid, vop, q0=1.0, amp=1.0, seed=8000 + seed,
                         t_min=0.0, t_max=130.0, n_modes=4)
        _, _, slope, _ = temperedness_series(ctx, f, 128.0)
        slopes.append(slope)
    mean = float(np.mean(slopes))
    se_mean = float(np.std(slopes, ddof=1) / np.sqrt(len(slopes)))
    if abs(mean) > 2 * se_mean + 1e-12:
        failures.append(f"temperedness slope {mean:.3e} +- {se_mean:.3e}")

    report(4, "noise", failures,
           f"KS p={ks.pvalue:.3f}, temperedness slope={mean:.2e} (se {se_mean:.2e})")


def test_criterion_5_integrator(desk):
    grid, vop, ctx = desk
    failures = []
    h = 0.0625

    # Exact eigenmode decay (B = C = D = f = 0).
    ctx0 = build_context(grid, vop, nu=0.5, beta=0.0)
    f0 = make_forcing(grid, vop, q0=0.0, amp=0.0)
    u0 = unit_eigenmode(ctx0, 1, 2, 1)
    lam = eigenvalue_of(ctx0, 1, 2, 1)
    st = initial_state(Run(ctx0, f0, h), u0, 0.0)
    for k in range(16):
        st = step(st)
    decay_rel = np.max(np.abs(st.u - np.exp(-0.5 * lam * st.t) * u0)) / np.exp(-0.5 * lam * st.t)
    if decay_rel > 1e-12:
        failures.append(f"eigenmode decay rel err {decay_rel:.2e}")

    # Order-2 self-convergence on the full equation.
    f = make_forcing(grid, vop, q0=0.01, amp=0.2, phase=0.1)
    rng = np.random.default_rng(1005)
    u0 = 0.2 * random_field(ctx, rng, decay=2.5)
    finals = [simulate(ctx, f, u0, 0.0, 1.0, dt, record_diagnostics=False).final.u
              for dt in (h / 2, h / 4, h / 8, h / 16)]
    errs = [norm_h(ctx, finals[i] - finals[i + 1]) for i in range(3)]
    conv_slopes = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    for s in conv_slopes:
        if abs(s - 2.0) > 0.2:
            failures.append(f"self-convergence slope {s:.3f}")

    # Accumulated energy-budget residual is O(dt^2).
    fb = make_forcing(grid, vop, q0=0.0, amp=0.5, phase=0.1)
    ub = 0.3 * unit_eigenmode(ctx, 1, 1, 2)
    totals = [abs(sum(d.residual for d in
                      simulate(ctx, fb, ub, 0.0, 2.0, dt, linear_only=True).diagnostics))
              for dt in (h, h / 2, h / 4)]
    budget_slopes = [float(np.log2(totals[i] / totals[i + 1])) for i in range(2)]
    for s in budget_slopes:
        if abs(s - 2.0) > 0.2:
            failures.append(f"budget residual slope {s:.3f}")

    # ||u(t)||_H^2 <= xi(t) (1 + 1e-6) + 1e-10 along every standard run.
    worst_gap = 0.0
    for q0, amp, seed in [(0.0, 0.5, 1), (0.05, 0.0, 2), (0.03, 0.3, 3)]:
        fr = make_forcing(grid, vop, q0=q0, amp=amp, phase=0.15, seed=seed)
        rng = np.random.default_rng(seed)
        u0 = 0.2 * random_field(ctx, rng, decay=2.0)
        res = simulate(ctx, fr, u0, 0.0, 4.0, h)
        for d in res.diagnostics:
            worst_gap = max(worst_gap, d.h ** 2 - (d.xi * (1 + 1e-6) + 1e-10))
            if d.h ** 2 > d.xi * (1 + 1e-6) + 1e-10:
                failures.append(f"xi bound violated at t={d.t} (run q0={q0}, amp={amp})")
                break
    report(5, "integrator", failures,
           f"decay rel={decay_rel:.1e}, conv slopes={[f'{s:.2f}' for s in conv_slopes]}, "
           f"budget slopes={[f'{s:.2f}' for s in budget_slopes]}")


@pytest.fixture(scope="module")
def dyn(desk):
    """Dynamical-suite context: stronger contraction (nu = 2)."""
    grid, vop, _ = desk
    ctx = build_context(grid, vop, nu=2.0, beta=1.0)
    return grid, vop, ctx


DYN_DT = 0.125
DYN_T = (2, 4, 8, 16)


def dyn_forcing(grid, vop, seed, t_max=1.0):
    return make_forcing(grid, vop, q0=0.05, amp=0.4, phase=0.2, seed=seed,
                        h=DYN_DT, t_min=-58.0, t_max=t_max, n_modes=6)


def test_criterion_6_dynamical_systems(desk, dyn):
    grid, vop, ctx = dyn
    failures = []
    rate = ctx.nu * ctx.lambda1

    # (a) Cocycle deviation bitwise zero on aligned grids.
    f = dyn_forcing(grid, vop, seed=900, t_max=8.0)
    x = 0.1 * unit_eigenmode(ctx, 1, 1, 1) + 0.05 * unit_eigenmode(ctx, 0, 2, 1)
    dev = cocycle_check(ctx, f, 1.0, 2.0, x, DYN_DT)
    dev = max(dev, cocycle_check(ctx, f, 0.625, 1.375, x, DYN_DT))
    if dev != 0.0:
        failures.append(f"cocycle deviation {dev:.3e}")

    # (b) xi-pullback contraction within the exponential bound plus the
    # measured quadrature tolerance.
    T = 8
    est0 = estimate_xi_star(ctx, f, at=0.0, dt=DYN_DT)
    estT = estimate_xi_star(ctx, f, at=-float(T), dt=DYN_DT)
    x0 = 5.0
    xi = x0
    run = Run(ctx, f, DYN_DT)
    for k in range(round(T / DYN_DT)):
        lift = np.zeros((grid.nz, grid.ny, grid.nkx), dtype=complex)
        lift[:, f.support[0], f.support[1]] = run.lift(round(-T / DYN_DT) + k)
        xi = xi_step(xi, lift, DYN_DT, ctx)
    tol = (est0.rule_gap + est0.truncation_bound
           + np.exp(-rate * T) * (estT.rule_gap + estT.truncation_bound) + 1e-12)
    gap = abs(xi - est0.value) - (np.exp(-rate * T) * abs(x0 - estT.value) + tol)
    if gap > 0:
        failures.append(f"xi pullback bound exceeded by {gap:.3e}")

    # (c) xi* self-consistency between horizons within the tail bound.
    a = estimate_xi_star(ctx, f, at=0.0, quad_horizon=24.0, dt=DYN_DT)
    b = estimate_xi_star(ctx, f, at=0.0, quad_horizon=48.0, dt=DYN_DT)
    if abs(a.value - b.value) > a.truncation_bound * (1 + 1e-9) + 1e-15:
        failures.append(f"xi* horizons differ by {abs(a.value - b.value):.3e} "
                        f"> bound {a.truncation_bound:.3e}")

    # (d) Pullback diameter strictly decreasing (median over 10 seeds).
    cfg = PullbackConfig(horizons=DYN_T, ensemble=8, leading_modes=8, seed=77, phase=0.2)
    diam = {T: [] for T in DYN_T}
    estimates = []
    for seed in range(10):
        fs = dyn_forcing(grid, vop, seed=910 + seed, t_max=51.0)
        est = pullback_run(cfg, ctx, fs, DYN_DT)
        estimates.append((fs, est))
        for T in DYN_T:
            diam[T].append(est.diameters[T])
    med = {T: float(np.median(diam[T])) for T in DYN_T}
    for a_, b_ in zip(DYN_T[:-1], DYN_T[1:]):
        if not med[b_] < med[a_]:
            failures.append(f"median diameter not decreasing: T={a_}: {med[a_]:.3e} "
                            f"-> T={b_}: {med[b_]:.3e}")
    # Stabilization: at the largest horizons the diameter change is bounded by
    # the run's own convergence tolerance (both endpoint sets lie within a
    # successive-Hausdorff neighbourhood of the attractor).
    t_lo, t_hi = DYN_T[-2], DYN_T[-1]
    stab_gaps = [abs(est.diameters[t_hi] - est.diameters[t_lo])
                 - 2.0 * est.hausdorff_prev[t_hi] - 1e-12
                 for _, est in estimates]
    if float(np.median(stab_gaps)) > 0:
        failures.append("diameter does not stabilize within the convergence tolerance")

    # (e) Absorption of a tempered (polynomially growing) initial family.
    fa = dyn_forcing(grid, vop, seed=905, t_max=1.0)
    xi0_est = estimate_xi_star(ctx, fa, at=0.0, dt=DYN_DT)
    threshold = absorbing_ball(xi0_est.value) * (1 + 1e-6)
    absorbed = {}
    for T in DYN_T:
        xs = estimate_xi_star(ctx, fa, at=-float(T), dt=DYN_DT)
        r2 = absorbing_ball(xs.value) * (1.0 + 0.25 * T * T)
        members = sample_initial_ball(ctx, r2, 8, 8, "sphere", seed=33, key=(T,))
        ends = [simulate(ctx, fa, u, -float(T), 0.0, DYN_DT,
                         record_diagnostics=False).final.u for u in members]
        absorbed[T] = all(inner_h(ctx, u, u) <= threshold for u in ends)
    if not any(absorbed.values()):
        failures.append("no horizon absorbed the tempered family")
    else:
        t0_meas = min(T for T in DYN_T if absorbed[T])
        for T in DYN_T:
            if T >= t0_meas and not absorbed[T]:
                failures.append(f"absorption lost again at T={T}")

    # (f) Attractor growth slope statistically zero (mean over 3 seeds of the
    # flowed integer-time estimates).  The raw (unclipped) log-norm slope is
    # reported alongside; for these small-amplitude attractors log+ clips to
    # zero, which already certifies subexponential growth.
    from stochqg.forcing import tail_slope
    slopes, raw_slopes = [], []
    for fs, est in estimates[:3]:
        series = flow_estimate(ctx, fs, est, DYN_DT, t_end=50.0)
        g = growth_diagnostic(series[1:])
        slopes.append(g.slope)
        raw = np.log([r for _, r in series[1:]])
        raw_slopes.append(tail_slope(g.times, raw)[0])
    mean = float(np.mean(slopes))
    se = float(np.std(slopes, ddof=1) / np.sqrt(len(slopes)))
    if abs(mean) > 2 * se + 1e-3:
        failures.append(f"growth slope {mean:.3e} (se {se:.3e})")

    report(6, "dynamical systems", failures,
           f"cocycle dev={dev:.1e}, medians={[f'{med[T]:.2e}' for T in DYN_T]}, "
           f"T0={min((T for T in DYN_T if absorbed[T]), default=None)}, "
           f"growth slope={mean:.2e} (raw log-norm slope {np.mean(raw_slopes):.2e})")


def test_criterion_7_reconstruction(desk):
    grid, vop, ctx = desk
    failures = []
    rng = np.random.default_rng(1007)

    # Discrete stratified Laplacian of psi = G(u) + lift returns u: interior
    # levels exactly (to 1e-10 relative), boundary levels up to the lift's
    # known Neumann injection.
    from stochqg.integrator import reconstruct_streamfunction
    u = random_field(ctx, rng)
    flux = mode_flux(grid, boundary_modes(grid, 4)[2])
    lift = solve_lift(grid, vop, flux)
    psi_hat, _, _ = reconstruct_streamfunction(ctx, u, lift)
    diff = -apply_A(ctx, psi_hat) - u
    rel_int = np.max(np.abs(diff[1:-1])) / np.max(np.abs(u))
    inj = vop.f_top * dense_coef(flux) / vop.weights[-1]
    rel_top = np.max(np.abs(diff[-1] + inj)) / np.max(np.abs(inj))
    rel_bot = np.max(np.abs(diff[0])) / np.max(np.abs(u))
    for name, val in (("interior", rel_int), ("top", rel_top), ("bottom", rel_bot)):
        if val > 1e-10:
            failures.append(f"reconstruction {name} residual {val:.2e}")

    # Deterministic periodic-only runs contract geometrically onto a periodic
    # orbit: ||state(t+1) - state(t)|| decreases with a contraction factor < 1.
    f = make_forcing(grid, vop, q0=0.0, amp=0.4, phase=0.3, t_min=0.0, t_max=26.0)
    u0 = 0.2 * random_field(ctx, rng, decay=2.0)
    res = simulate(ctx, f, u0, 0.0, 25.0, 0.0625, snapshot_every=16,
                   record_diagnostics=False)
    states = {round(t): u for t, u in res.snapshots}
    dists = [norm_h(ctx, states[n + 1] - states[n]) for n in range(0, 24)]
    ratios = [dists[i + 1] / dists[i] for i in range(8, len(dists) - 1) if dists[i] > 1e-14]
    factor = float(np.median(ratios))
    if not factor < 1.0:
        failures.append(f"period-map contraction factor {factor:.4f} >= 1")
    if dists[-1] > dists[8]:
        failures.append("period-map distances not decreasing over the tail")
    report(7, "reconstruction", failures,
           f"interior rel={rel_int:.1e}, contraction factor={factor:.3f}")
