"""Condensed invariant battery behind the `validate` subcommand.

Each check returns (name, passed, detail).  This is a fast smoke screen over
the operator identities, lift residuals, noise laws, and integrator
contracts; the full property suite lives in the package's pytest tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .forcing import advance_ou, init_ou_state, setup_lift, shift_path, ForcingSetup
from .integrator import Run, initial_state, simulate, step, xi_step
from .lift import BoundaryFlux, lift_interior_residual, solve_lift
from .operators import (
    apply_A,
    apply_D,
    apply_G,
    deriv_x,
    h2_scale,
    inner_h,
    jacobian,
    norm_h,
    norms,
    to_modes,
    from_modes,
    unit_eigenmode,
    eigenvalue_of,
)
from .spectral import forward_transform, inverse_transform, project_mean_zero


def _random_field(ctx, rng, decay=1.5):
    grid = ctx.grid
    fhat = forward_transform(grid, rng.standard_normal((grid.nz, grid.ny, grid.nx)))
    c = to_modes(ctx, fhat)
    c *= (1.0 + ctx.lam) ** (-decay)
    fhat = from_modes(ctx, c) * grid.dealias_mask[None, :, :]
    return project_mean_zero(grid, fhat, ctx.zw)


def run_battery(ctx, forcing: ForcingSetup) -> list[tuple[str, bool, str]]:
    grid = ctx.grid
    vop = ctx.vop
    rng = np.random.default_rng(20_240_601)
    out = []

    def check(name, ok, detail=""):
        out.append((name, bool(ok), detail))

    # Vertical operator: W L is the stiffness matrix A_z, so it is symmetric.
    wl = vop.weights[:, None] * vop.action
    check("vertical operator symmetric",
          np.max(np.abs(wl - wl.T)) <= 1e-12 * np.max(np.abs(wl)))
    m = np.diag(vop.diag) + np.diag(vop.offdiag, 1) + np.diag(vop.offdiag, -1)
    gram = vop.phi.T @ (vop.weights[:, None] * vop.phi)
    check("eigenvectors orthonormal", np.max(np.abs(gram - np.eye(vop.nz))) < 1e-12)
    lam1_dense = min(1.0, np.linalg.eigvalsh(m)[1])
    check("lambda1 vs dense oracle", abs(ctx.lambda1 - lam1_dense) < 1e-10,
          f"lambda1={ctx.lambda1:.6g}")

    # Transforms.
    f = rng.standard_normal((grid.nz, grid.ny, grid.nx))
    rt = inverse_transform(grid, forward_transform(grid, f))
    check("transform round trip", np.max(np.abs(rt - f)) <= 1e-12 * np.max(np.abs(f)))

    # Inverse operator and coercivity.
    ok_ag, ok_coerce = True, True
    for _ in range(5):
        u = _random_field(ctx, rng)
        ok_ag &= norm_h(ctx, apply_A(ctx, -apply_G(ctx, u)) - u) <= 1e-11 * norm_h(ctx, u)
        ok_coerce &= (inner_h(ctx, apply_A(ctx, u), u)
                      >= ctx.lambda1 * inner_h(ctx, u, u) * (1 - 1e-12))
    check("A(-G) identity", ok_ag)
    check("coercivity", ok_coerce)

    # Jacobian identities.
    ok_pair, ok_anti = True, True
    for _ in range(3):
        u, v, w = (_random_field(ctx, rng) for _ in range(3))
        pair = inner_h(ctx, jacobian(ctx, u, v), v)
        ok_pair &= abs(pair) <= 1e-12 * h2_scale(ctx, u) * norms(ctx, v).v ** 2
        t1 = inner_h(ctx, jacobian(ctx, u, v), w)
        t2 = inner_h(ctx, jacobian(ctx, u, w), v)
        ok_anti &= abs(t1 + t2) <= 1e-12 * (abs(t1) + abs(t2) + 1e-30)
    check("<J(u,v),v> = 0", ok_pair)
    check("trilinear antisymmetry", ok_anti)

    ok_d = True
    for _ in range(3):
        u = _random_field(ctx, rng)
        ok_d &= abs(inner_h(ctx, apply_D(ctx, u), u)) <= 1e-12 * ctx.beta * norm_h(ctx, u) ** 2
    check("(D(u),u) = 0", ok_d)

    # Boundary lift.
    coef = (rng.standard_normal((grid.ny, grid.nkx))
            + 1j * rng.standard_normal((grid.ny, grid.nkx)))
    coef[0, 0] = 0.0
    lf = solve_lift(grid, vop, BoundaryFlux.from_dense(coef))
    check("lift interior residual", lift_interior_residual(grid, vop, lf) < 1e-10)

    # Noise machinery.
    model, path = forcing.model, forcing.path
    if model.n_modes and path.n_steps >= 32:
        t_anchor = path.t_min
        s = init_ou_state(model, path, t_anchor)
        a1 = advance_ou(advance_ou(s, path.dt_noise, path, model), path.dt_noise, path, model)
        a2 = advance_ou(s, 2 * path.dt_noise, path, model)
        check("OU semigroup bitwise", np.array_equal(a1.zeta, a2.zeta))
        tshift = t_anchor + 8 * path.dt_noise
        l_t = setup_lift(forcing, init_ou_state(model, path, tshift))
        sh = shift_path(path, tshift)
        l_0 = setup_lift(replace(forcing, path=sh), init_ou_state(model, sh, 0.0))
        check("lift shift consistency bitwise", np.array_equal(l_t, l_0))

    # Integrator contracts (on the step grid of the config).
    dt = forcing.path.dt_noise
    u0 = unit_eigenmode(ctx, 1, 1, 0)
    lam = eigenvalue_of(ctx, 1, 1, 0)
    no_columns = np.zeros(0, dtype=np.intp)
    zero_forcing = replace(forcing, support=(no_columns, no_columns),
                           basis=forcing.basis[:, :, :0])
    st = initial_state(Run(ctx, zero_forcing, dt), u0, path.t_min)
    st1 = step(st, linear_only=True)
    decay_err = np.max(np.abs(st1.u - np.exp(-ctx.nu * lam * dt) * u0))
    check("eigenmode integrating-factor decay", decay_err < 1e-12, f"err={decay_err:.2e}")

    t_end = path.t_min + dt * min(round(2.0 / dt), path.n_steps)  # on the step grid
    if t_end > path.t_min:
        r1 = simulate(ctx, forcing, 0.1 * u0, path.t_min, t_end, dt)
        r2 = simulate(ctx, forcing, 0.1 * u0, path.t_min, t_end, dt)
        check("simulation bitwise reproducible", np.array_equal(r1.final.u, r2.final.u))
        ok_xi = all(d.h ** 2 <= d.xi * (1 + 1e-6) + 1e-10 for d in r1.diagnostics)
        check("||u||^2 <= xi along run", ok_xi)

    # xi fixed point under a frozen source.
    lift_now = setup_lift(forcing, init_ou_state(model, path, path.t_min))
    c = norms(ctx, deriv_x(ctx, lift_now)).vdual ** 2
    xi_star = ctx.beta ** 2 * c / (ctx.nu ** 2 * ctx.lambda1)
    if xi_star > 0:
        drift = abs(xi_step(xi_star, lift_now, 0.25, ctx) - xi_star) / xi_star
        check("xi fixed point", drift < 1e-12, f"drift={drift:.2e}")

    return out
