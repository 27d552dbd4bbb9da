"""Operator algebra: A, G, J, B, C, D, f, the tendency, and the three norms."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stochqg import operators
from stochqg.lift import BoundaryFlux, boundary_modes, mode_flux, solve_lift
from stochqg.operators import (
    apply_A,
    apply_B,
    apply_C,
    apply_D,
    build_context,
    eigenvalue_of,
    forcing_f,
    from_modes,
    h2_scale,
    inner_h,
    jacobian,
    level_blocks,
    norm_h,
    norms,
    apply_G,
    tendency,
    to_modes,
    unit_eigenmode,
)
from stochqg.spectral import (
    Grid,
    build_vertical_operator,
    forward_transform,
    inverse_transform,
    make_profile,
    remove_mean,
)

from conftest import dense_coef, mode_xy, random_field


class TestApplyA:
    def test_horizontal_eigenmode(self, ctx):
        u = unit_eigenmode(ctx, 0, 0, 1)
        au = apply_A(ctx, u)
        assert np.max(np.abs(au - 1.0 * u)) < 1e-12

    def test_vertical_eigenmode(self, ctx):
        # (k, l) = (0, 0) with the first vertical eigenfunction: A u = mu_1 u,
        # mu_1 from an independent dense eigensolve.
        nz = ctx.grid.nz
        m = np.zeros((nz, nz))
        m[np.arange(nz), np.arange(nz)] = ctx.vop.diag
        m[np.arange(nz - 1), np.arange(1, nz)] = ctx.vop.offdiag
        m[np.arange(1, nz), np.arange(nz - 1)] = ctx.vop.offdiag
        mu1 = np.linalg.eigvalsh(m)[1]
        assert abs(mu1 - 0.25) < 5e-3  # F == 1 continuum value is 1/4

        u = unit_eigenmode(ctx, 1, 0, 0)
        au = apply_A(ctx, u)
        assert np.max(np.abs(au - mu1 * u)) < 1e-11

    def test_coercivity_random(self, ctx, varying_ctx):
        for c in (ctx, varying_ctx):
            rng = np.random.default_rng(5)
            for _ in range(10):
                u = random_field(c, rng)
                lhs = inner_h(c, apply_A(c, u), u)
                rhs = c.lambda1 * inner_h(c, u, u)
                assert lhs >= rhs * (1.0 - 1e-12)

    def test_rejects_non_mean_zero(self, ctx):
        u = np.zeros((ctx.grid.nz, ctx.grid.ny, ctx.grid.nkx), dtype=complex)
        u[:, 0, 0] = 1.0
        with pytest.raises(ValueError):
            apply_A(ctx, u)


class TestApplyG:
    def test_inverse_of_A(self, ctx, varying_ctx):
        for c in (ctx, varying_ctx):
            u = random_field(c, np.random.default_rng(6))
            g = apply_G(c, apply_A(c, u))
            assert norm_h(c, g + u) <= 1e-11 * norm_h(c, u)

    def test_diagonal_action(self, ctx):
        f = unit_eigenmode(ctx, 2, 1, 3, kind="sin")
        lam = eigenvalue_of(ctx, 2, 1, 3)
        g = apply_G(ctx, f)
        assert np.max(np.abs(g + f / lam)) < 1e-12

    def test_spectral_bound(self, ctx):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_field(ctx, rng)
            assert norm_h(ctx, apply_G(ctx, f)) <= norm_h(ctx, f) / ctx.lambda1 * (1 + 1e-12)

    def test_zero_short_circuit(self, ctx):
        z = np.zeros((ctx.grid.nz, ctx.grid.ny, ctx.grid.nkx), dtype=complex)
        assert np.all(apply_G(ctx, z) == 0.0)


class TestJacobian:
    def test_self_jacobian_vanishes(self, ctx):
        rng = np.random.default_rng(8)
        u = random_field(ctx, rng)
        j = jacobian(ctx, u, u)
        assert norm_h(ctx, j) < 1e-13 * h2_scale(ctx, u) * norms(ctx, u).v

    def test_symbolic_example(self, ctx, grid):
        # J(sin x, sin y) = cos x * cos y  (d/dx sin x * d/dy sin y - 0).
        u = forward_transform(grid, mode_xy(grid, 1, 0, "sin"))
        v = forward_transform(grid, mode_xy(grid, 0, 1, "sin"))
        j = jacobian(ctx, u, v)
        x = grid.x[None, None, :]
        y = grid.y[None, :, None]
        expect = forward_transform(grid, np.cos(x) * np.cos(y) * np.ones((grid.nz, 1, 1)))
        assert np.max(np.abs(j - expect)) < 1e-13

    def test_energy_pairing_vanishes(self, ctx):
        rng = np.random.default_rng(9)
        for _ in range(10):
            u = random_field(ctx, rng)
            v = random_field(ctx, rng)
            val = inner_h(ctx, jacobian(ctx, u, v), v)
            scale = h2_scale(ctx, u) * norms(ctx, v).v ** 2
            assert abs(val) <= 1e-12 * scale

    def test_trilinear_antisymmetry(self, band_ctx):
        ctx = band_ctx
        rng = np.random.default_rng(10)
        for _ in range(10):
            u = random_field(ctx, rng)
            v = random_field(ctx, rng)
            w = random_field(ctx, rng)
            t1 = inner_h(ctx, jacobian(ctx, u, v), w)
            t2 = inner_h(ctx, jacobian(ctx, u, w), v)
            assert abs(t1 + t2) <= 1e-12 * (abs(t1) + abs(t2) + 1e-30)

    def test_accepts_physical_input(self, ctx, grid):
        phys_u = mode_xy(grid, 1, 0, "sin")
        spec_u = forward_transform(grid, phys_u)
        v = random_field(ctx, np.random.default_rng(11))
        ja = jacobian(ctx, phys_u, v)
        jb = jacobian(ctx, spec_u, v)
        assert np.max(np.abs(ja - jb)) < 1e-15

    def test_grid_mismatch(self, ctx):
        with pytest.raises(ValueError):
            jacobian(ctx, np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))


def whole_field_product(ctx, a, b, maxima=False):
    """The Jacobian in one whole-field pass: the reference for the level blocks."""
    grid = ctx.grid
    ax = inverse_transform(grid, ctx.dxm_mult * a)
    ay = inverse_transform(grid, ctx.dym_mult * a)
    grad = (float(np.max(np.abs(ax))), float(np.max(np.abs(ay)))) if maxima else None
    prod = ax * inverse_transform(grid, ctx.dym_mult * b)
    prod -= ay * inverse_transform(grid, ctx.dxm_mult * b)
    jhat = forward_transform(grid, prod)
    jhat *= ctx.mask[None, :, :]
    return jhat, grad


def _context(nx, nz, ny=None, n_of_z=1.0):
    grid = Grid(nx=nx, ny=ny or nx, nz=nz)
    return build_context(grid, build_vertical_operator(make_profile(1.0, n_of_z, nz), nz),
                         nu=0.5, beta=1.0)


# A depth-varying buoyancy frequency, N_j = 1 + j/8 on 9 levels.
VARYING_N = 1.0 + np.arange(9) / 8.0


@pytest.fixture(scope="module")
def varying_ctx():
    return _context(32, 9, n_of_z=VARYING_N)


@pytest.fixture(scope="module")
def ctx128():
    return _context(128, 17)


# The desk grid and three whose widths are divisible by 3 in x, y or both,
# where the dealias band edge (n - 1) // 3 lies one below n // 3: one
# wavenumber wider and the products of band modes alias back into the band.
# The last has the depth-varying N(z).
@pytest.fixture(scope="module",
                params=[(32, 32, 17), (48, 16, 9), (16, 48, 9), (48, 48, 9), (32, 32, 9, VARYING_N)],
                ids=lambda p: "x".join(map(str, p[:3])) + ("-varying-N" if len(p) > 3 else ""))
def band_ctx(request):
    nx, ny, nz, *n_of_z = request.param
    return _context(nx, nz, ny, *n_of_z)


def _masked_inverse(lam):
    """1/lam where lam > 0 and 0 at the null slot, by a boolean gather and scatter."""
    inv = np.zeros_like(lam)
    nonzero = lam > 0.0
    inv[nonzero] = 1.0 / lam[nonzero]
    return inv


class TestContext:
    @pytest.mark.parametrize("shape, n_of_z", [((32, 32, 17), 1.0), ((48, 16, 9), 4.0),
                                               ((16, 48, 9), np.linspace(0.5, 2.0, 9))])
    def test_inv_lam_is_the_masked_division(self, shape, n_of_z):
        grid = Grid(*shape)
        vop = build_vertical_operator(make_profile(1.0, n_of_z, grid.nz), grid.nz)
        ctx = build_context(grid, vop, nu=0.5, beta=1.0)
        assert ctx.inv_lam[0, 0, 0] == 0.0 and np.count_nonzero(ctx.lam == 0.0) == 1
        assert ctx.inv_lam.tobytes() == _masked_inverse(ctx.lam).tobytes()


class TestLevelBlocks:
    """The Jacobian works through blocks of at most BLOCK_BYTES of levels, bit for bit."""

    def test_block_rule(self, ctx, ctx128):
        assert ctx.blocks == (slice(0, 17),)
        assert level_blocks(Grid(nx=48, ny=16, nz=9)) == (slice(0, 9),)
        assert level_blocks(Grid(nx=16, ny=48, nz=9)) == (slice(0, 9),)
        # 64x64 levels are 32 KiB each: 8 per block, then a 1-level tail.
        assert level_blocks(Grid(nx=64, ny=64, nz=33)) == tuple(
            slice(lo, min(lo + 8, 33)) for lo in range(0, 33, 8))
        assert level_blocks(Grid(nx=64, ny=64, nz=17)) == (slice(0, 8), slice(8, 16),
                                                            slice(16, 17))
        # 128x128 levels are 128 KiB each: 2 per block, then a 1-level tail.
        assert ctx128.blocks == tuple(slice(lo, min(lo + 2, 17)) for lo in range(0, 17, 2))
        assert len(level_blocks(Grid(nx=128, ny=128, nz=65))) == 33
        assert level_blocks(Grid(nx=512, ny=512, nz=5))[:2] == (slice(0, 1), slice(1, 2))

    @pytest.mark.parametrize("size", ["blocked", "single"])
    @pytest.mark.parametrize("maxima", [True, False])
    def test_matches_whole_field_pass(self, ctx, ctx128, size, maxima, monkeypatch):
        c = ctx128 if size == "blocked" else ctx
        rng = np.random.default_rng(17)
        a = random_field(c, rng)
        b = random_field(c, rng)
        ref, ref_grad = whole_field_product(c, a, b, maxima=maxima)
        # The tendency of u = b under psi = a is -beta * a_x - J(a, b), and
        # its dt limit comes from the maxima of a's gradient.
        grads = []
        cfl_limit = operators._cfl_limit
        monkeypatch.setattr(operators, "_cfl_limit",
                            lambda c_, *grad: grads.append(grad) or cfl_limit(c_, *grad))
        n, limit = tendency(c, b, a.copy(), False, cfl=maxima)
        assert grads == ([ref_grad] if maxima else [])
        if maxima:
            assert all(isinstance(g, float) for g in grads[0])
            assert limit == cfl_limit(c, *ref_grad) and isinstance(limit, float)
        else:
            assert limit == np.inf
        n_ref = -c.beta * (c.dx_mult * a) - ref
        remove_mean(n_ref, c.zw)
        assert np.array_equal(n, n_ref)
        remove_mean(ref, c.zw)
        assert np.array_equal(jacobian(c, a, b), ref)

    def test_blocked_peak_memory(self, ctx128):
        rng = np.random.default_rng(18)
        a = random_field(ctx128, rng)
        b = random_field(ctx128, rng)
        psi = a.copy()
        for run in (lambda: jacobian(ctx128, a, b), lambda: tendency(ctx128, b, psi, False, True)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 2 * a.nbytes, peak / a.nbytes

    def test_single_pass_transform_counts(self, monkeypatch):
        # One pass of transforms per level block, each over that block's levels:
        # 4 inverse and 1 forward per Jacobian, on one block at 32x32x17 and on
        # each of the 5 blocks at 64x64x33.
        calls = {"inverse": [], "forward": []}

        def counted(kind, fn):
            def wrapper(grid, f, out=None):
                calls[kind].append(f.shape[0])
                return fn(grid, f, out=out)
            return wrapper

        monkeypatch.setattr(operators, "inverse_transform",
                            counted("inverse", operators.inverse_transform))
        monkeypatch.setattr(operators, "forward_transform",
                            counted("forward", operators.forward_transform))
        for nx, nz, n_blocks in ((32, 17, 1), (64, 33, 5)):
            c = _context(nx, nz)
            rng = np.random.default_rng(19)
            a = random_field(c, rng)
            b = random_field(c, rng)
            levels = [blk.stop - blk.start for blk in c.blocks]
            assert len(levels) == n_blocks
            one_pass = {"inverse": [n for n in levels for _ in range(4)], "forward": levels}
            for sizes in calls.values():
                sizes.clear()
            jacobian(c, a, b)
            assert calls == one_pass
            tendency(c, b, a.copy(), False, cfl=True)
            assert calls == {kind: 2 * sizes for kind, sizes in one_pass.items()}


class TestTendency:
    """The stepper's collapsed N(u) = -beta psi_x - J(psi, u) against f, D, B and C."""

    @pytest.mark.parametrize("linear_only", [False, True])
    @pytest.mark.parametrize("size", ["single", "blocked"])
    def test_matches_paper_operators(self, ctx, ctx128, size, linear_only):
        base = ctx128 if size == "blocked" else ctx
        grid = base.grid
        rng = np.random.default_rng(20)
        u = 10.0 * random_field(base, rng)
        coef = sum(w * dense_coef(mode_flux(grid, mode))
                   for w, mode in zip(rng.standard_normal(6), boundary_modes(grid, 6)))
        lift = 0.5 * solve_lift(grid, base.vop, BoundaryFlux.from_dense(coef))
        for beta in (1.0, 2.5):  # beta scales f and D, not B and C
            c = replace(base, beta=beta)
            n, limit = tendency(c, u, apply_G(c, u) + lift, linear_only)
            ref = forcing_f(c, lift) - apply_D(c, u)
            if not linear_only:
                ref -= apply_B(c, u) + apply_C(c, lift, u)
            remove_mean(ref, c.zw)
            assert limit == np.inf
            err = norm_h(c, n - ref)
            assert err <= 1e-13 * norm_h(c, ref), (beta, err / norm_h(c, ref))

    def test_cfl_limit_from_the_velocity(self, band_ctx):
        # Half the grid spacing over the largest advecting speed per axis,
        # with (u, v) = (-Psi_y, Psi_x) from psi's own spectral derivatives.
        c, grid = band_ctx, band_ctx.grid
        rng = np.random.default_rng(21)
        psi = random_field(c, rng)
        _, limit = tendency(c, random_field(c, rng), psi.copy(), False, cfl=True)
        psi_x = inverse_transform(grid, 1j * grid.kx[None, None, :] * psi)
        psi_y = inverse_transform(grid, 1j * grid.ky[None, :, None] * psi)
        dx, dy = 2.0 * np.pi / grid.nx, 2.0 * np.pi / grid.ny
        ref = 0.5 * min(dx / np.max(np.abs(psi_y)), dy / np.max(np.abs(psi_x)))
        assert abs(limit - ref) <= 1e-12 * ref, (limit, ref)


class TestApplyB:
    def test_zero(self, ctx):
        z = np.zeros((ctx.grid.nz, ctx.grid.ny, ctx.grid.nkx), dtype=complex)
        assert np.all(apply_B(ctx, z) == 0.0)

    def test_single_mode_parallel_gradients(self, ctx):
        # G(u) is proportional to u for a single Fourier mode, so J vanishes.
        u = unit_eigenmode(ctx, 0, 2, 1)
        b = apply_B(ctx, u)
        assert norm_h(ctx, b) < 1e-14

    def test_energy_neutral(self, band_ctx):
        ctx = band_ctx
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = random_field(ctx, rng)
            val = inner_h(ctx, apply_B(ctx, u), u)
            scale = h2_scale(ctx, apply_G(ctx, u)) * norms(ctx, u).v ** 2
            assert abs(val) <= 1e-12 * scale


class TestApplyC:
    def test_zero_lift(self, ctx):
        u = random_field(ctx, np.random.default_rng(13))
        z = np.zeros_like(u)
        assert np.all(apply_C(ctx, z, u) == 0.0)

    def test_energy_neutral(self, band_ctx):
        ctx = band_ctx
        rng = np.random.default_rng(14)
        for _ in range(10):
            lift = random_field(ctx, rng)
            u = random_field(ctx, rng)
            val = inner_h(ctx, apply_C(ctx, lift, u), u)
            scale = h2_scale(ctx, lift) * norm_h(ctx, u) * norms(ctx, u).v
            assert abs(val) <= 1e-12 * scale

    def test_bilinear(self, ctx):
        rng = np.random.default_rng(15)
        lift = random_field(ctx, rng)
        u = random_field(ctx, rng)
        v = random_field(ctx, rng)
        a, b = 0.7, -1.3
        lhs = apply_C(ctx, lift, a * u + b * v)
        rhs = a * apply_C(ctx, lift, u) + b * apply_C(ctx, lift, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs) + np.abs(rhs) + 1e-30)


class TestApplyD:
    def test_beta_zero(self, grid, vop):
        ctx0 = build_context(grid, vop, nu=0.5, beta=0.0)
        u = random_field(ctx0, np.random.default_rng(16))
        assert np.all(apply_D(ctx0, u) == 0.0)

    def test_energy_neutral(self, ctx):
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = random_field(ctx, rng)
            val = inner_h(ctx, apply_D(ctx, u), u)
            assert abs(val) <= 1e-12 * ctx.beta * norm_h(ctx, u) ** 2

    def test_single_mode_multiplier(self, ctx):
        # Per mode, D multiplies by -beta*i*k/lambda (hand computation under
        # the G = -A^{-1} convention), checked against the dense application.
        m, l, k = 1, 2, 3
        u = unit_eigenmode(ctx, m, l, k)
        lam = eigenvalue_of(ctx, m, l, k)
        for beta in (1.0, 2.5):
            d = apply_D(replace(ctx, beta=beta), u)
            expect = -beta * (1j * k) / lam * u
            # u holds only the +k column here, so the multiplier applies directly.
            assert np.max(np.abs(d - expect)) < 1e-12, beta


class TestForcingF:
    def test_beta_zero(self, grid, vop):
        ctx0 = build_context(grid, vop, nu=0.5, beta=0.0)
        lift = random_field(ctx0, np.random.default_rng(19))
        assert np.all(forcing_f(ctx0, lift) == 0.0)

    def test_z_only_lift(self, ctx):
        lift = np.zeros((ctx.grid.nz, ctx.grid.ny, ctx.grid.nkx), dtype=complex)
        lift[:, 0, 0] = np.cos(ctx.grid.z)  # x-independent
        f = forcing_f(ctx, lift)
        assert np.all(f == 0.0)

    def test_analytic_example(self, ctx, grid):
        # lift = cos(x) cosh(z)/sinh(2pi): f = -d/dx lift = sin(x) cosh(z)/sinh(2pi).
        prof = np.cosh(grid.z) / np.sinh(2 * np.pi)
        lift_phys = np.cos(grid.x)[None, None, :] * prof[:, None, None] * np.ones((1, grid.ny, 1))
        f = forcing_f(ctx, forward_transform(grid, lift_phys))
        expect_phys = np.sin(grid.x)[None, None, :] * prof[:, None, None] * np.ones((1, grid.ny, 1))
        expect = forward_transform(grid, expect_phys)
        assert np.max(np.abs(f - ctx.beta * expect)) < 1e-13

    def test_linearity(self, ctx):
        lift = random_field(ctx, np.random.default_rng(18))
        assert np.allclose(forcing_f(ctx, 2.0 * lift), 2.0 * forcing_f(ctx, lift),
                           rtol=0, atol=1e-15)


class TestNorms:
    def test_single_eigenmode(self, ctx):
        for (m, l, k) in [(0, 0, 1), (1, 0, 0), (2, 3, 2)]:
            u = unit_eigenmode(ctx, m, l, k)
            lam = eigenvalue_of(ctx, m, l, k)
            n = norms(ctx, u)
            assert abs(n.h - 1.0) < 1e-12
            assert abs(n.v - np.sqrt(lam)) < 1e-10
            assert abs(n.vdual - 1.0 / np.sqrt(lam)) < 1e-10

    @pytest.mark.parametrize("m, l", [(17, 1), (-1, 1), (1, 16), (1, -16), (1, 33)])
    def test_out_of_band_eigenmode_rejected(self, ctx, m, l):
        # 32x32x17: 0 <= m < 17 and |l| < 16.
        with pytest.raises(ValueError, match="out of range"):
            unit_eigenmode(ctx, m, l, 1)

    def test_band_edge_eigenmodes(self, ctx):
        for m, l in [(16, 15), (16, -15), (0, 15)]:
            assert abs(norm_h(ctx, unit_eigenmode(ctx, m, l, 1)) - 1.0) < 1e-12

    def test_poincare(self, ctx):
        rng = np.random.default_rng(19)
        for _ in range(10):
            u = random_field(ctx, rng)
            n = norms(ctx, u)
            assert ctx.lambda1 * n.h ** 2 <= n.v ** 2 * (1 + 1e-12)

    def test_interpolation(self, ctx):
        rng = np.random.default_rng(20)
        for _ in range(10):
            u = random_field(ctx, rng)
            n = norms(ctx, u)
            assert n.vdual * n.v >= n.h ** 2 * (1 - 1e-12)

    def test_norm_h_matches_inner(self, ctx):
        u = random_field(ctx, np.random.default_rng(21))
        n = norms(ctx, u)
        assert abs(n.h - norm_h(ctx, u)) < 1e-12 * n.h


class TestFoldedTransforms:
    """to_modes/from_modes carry the quadrature weights inside their matrices."""

    def test_round_trip(self, ctx):
        u = random_field(ctx, np.random.default_rng(22))
        back = from_modes(ctx, to_modes(ctx, u))
        assert np.max(np.abs(back - u)) <= 1e-14 * np.max(np.abs(u))

    def test_modal_norms_match_inner_products(self, ctx):
        rng = np.random.default_rng(23)
        for _ in range(3):
            u = random_field(ctx, rng)
            n = norms(ctx, u)
            assert abs(n.h ** 2 - inner_h(ctx, u, u)) <= 1e-14 * n.h ** 2
            assert abs(n.v ** 2 - inner_h(ctx, apply_A(ctx, u), u)) <= 1e-14 * n.v ** 2


class TestContinuityEstimate:
    def test_empirical_constant_reported(self):
        # |<B(u1)-B(u2), u1-u2>| <= c * ||d||_V ||d||_H ||u1||_V with an
        # empirical c that stays bounded under grid refinement.
        chats = []
        for nx in (16, 32):
            grid = Grid(nx=nx, ny=nx, nz=9)
            vop = build_vertical_operator(make_profile(1.0, 1.0, 9), 9)
            ctx = build_context(grid, vop, nu=0.5, beta=1.0)
            rng = np.random.default_rng(22)
            worst = 0.0
            for _ in range(10):
                u1 = random_field(ctx, rng)
                u2 = random_field(ctx, rng)
                d = u1 - u2
                val = abs(inner_h(ctx, apply_B(ctx, u1) - apply_B(ctx, u2), d))
                nd = norms(ctx, d)
                denom = nd.v * nd.h * norms(ctx, u1).v
                worst = max(worst, val / denom)
            chats.append(worst)
        print(f"empirical continuity constants by grid: {chats}")
        assert all(np.isfinite(c) for c in chats)
        assert chats[1] < 10.0 * max(chats[0], 1e-3)


class TestBuildContext:
    def test_rejects_bad_params(self, grid, vop):
        with pytest.raises(ValueError):
            build_context(grid, vop, nu=0.0, beta=1.0)
        with pytest.raises(ValueError):
            build_context(grid, vop, nu=1.0, beta=-1.0)
