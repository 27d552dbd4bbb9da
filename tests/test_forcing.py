"""Noise model, OU states, noise paths, lifts-in-time, temperedness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from stochqg.forcing import (
    NoisePath,
    OUBoundaryState,
    PeriodicFlux,
    advance_ou,
    build_forcing,
    extend_noise_path,
    init_ou_state,
    interior_ou_modes,
    lift_columns,
    load_noise_path,
    make_noise_model,
    make_noise_path,
    periodic_factor,
    save_noise_path,
    setup_lift,
    shift_path,
    tail_slope,
    temperedness_series,
)
from stochqg.integrator import Run
from stochqg.lift import BoundaryFlux, mode_flux, boundary_modes, precompute_mode_lifts, solve_lift
from stochqg.operators import deriv_x, inner_h, lift_terms, nonzero_columns, norm_h, norms
from stochqg.spectral import Grid, build_vertical_operator, make_profile
from conftest import dense_coef, random_field

H = 0.0625  # dyadic noise step, 16 per unit time


def small_model(grid, n_modes=4, q0=0.01, tau_c=0.5):
    return make_noise_model(grid, n_modes, q0=q0, p=3.0, tau_c=tau_c)


def unit_periodic(grid, amplitude=0.0, phase=0.0):
    coef = amplitude * dense_coef(mode_flux(grid, boundary_modes(grid, 4)[2]))  # (1, 0) cos
    return PeriodicFlux(BoundaryFlux.from_dense(coef), phase=phase)


class TestNoiseModel:
    def test_spectrum(self, grid):
        model = small_model(grid, n_modes=6, q0=2.0)
        for m, q in zip(model.modes, model.q):
            assert q == pytest.approx(2.0 * (1.0 + m.kh2) ** -3.0)
        assert model.trace == pytest.approx(float(np.sum(model.q)))

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            make_noise_model(grid, 4, q0=1.0, p=3.0, tau_c=0.0)
        with pytest.raises(ValueError):
            make_noise_model(grid, 4, q0=-1.0, p=3.0, tau_c=1.0)

    def test_negative_mode_count_rejected(self, grid):
        with pytest.raises(ValueError, match="boundary mode count -1"):
            make_noise_model(grid, -1, q0=1.0, p=3.0, tau_c=0.5)

    def test_overflowing_weights_rejected(self, grid):
        # 3 ** 1000 overflows a double: the weight of the kh2 = 2 modes.
        with pytest.raises(ValueError, match="overflow at p=-1000"):
            make_noise_model(grid, 8, q0=1.0, p=-1000.0, tau_c=0.5)


class TestNoisePath:
    def test_reproducible(self):
        p1 = make_noise_path(42, 4, H, -2.0, 3.0)
        p2 = make_noise_path(42, 4, H, -2.0, 3.0)
        assert np.array_equal(p1.increments, p2.increments)

    def test_extension_preserves_prefix(self):
        p = make_noise_path(42, 4, H, 0.0, 2.0)
        q = extend_noise_path(p, -4.0, 8.0)
        lo = p.i0_abs - q.i0_abs
        assert np.array_equal(q.increments[:, lo:lo + p.n_steps], p.increments)

    def test_alignment_errors(self):
        p = make_noise_path(1, 2, H, 0.0, 1.0)
        with pytest.raises(ValueError):
            p.abs_step(0.03)
        with pytest.raises(ValueError):
            p.abs_step(2.0)
        with pytest.raises(ValueError):
            make_noise_path(1, 2, H, 0.01, 1.0)

    def test_shift_reads_same_increments(self):
        p = make_noise_path(7, 3, H, -1.0, 2.0)
        s = shift_path(p, 1.0)
        # Local time 0 of the shifted path is absolute time 1.0.
        assert s.abs_step(0.0) == p.abs_step(1.0)
        assert s.t_min == pytest.approx(-2.0)
        with pytest.raises(ValueError):
            shift_path(p, 0.01)

    def test_file_round_trip_bitexact(self, tmp_path):
        p = make_noise_path(99, 5, H, -1.0, 1.5)
        fname = tmp_path / "noise.bin"
        save_noise_path(p, fname)
        q = load_noise_path(fname)
        assert (q.seed, q.n_modes, q.dt_noise) == (p.seed, p.n_modes, p.dt_noise)
        assert q.t_min == p.t_min and q.t_max == p.t_max
        assert np.array_equal(q.increments, p.increments)
        fname2 = tmp_path / "noise2.bin"
        save_noise_path(q, fname2)
        assert fname.read_bytes() == fname2.read_bytes()

    def test_shifted_path_not_saved(self, grid, tmp_path):
        # The header's t_min anchors the stationary OU draw on load, so a
        # shifted path would come back with other OU states.
        model = small_model(grid, tau_c=0.5)
        p = make_noise_path(5, model.n_modes, H, -4.0, 4.0)
        fname = tmp_path / "noise.bin"
        with pytest.raises(ValueError, match="save the unshifted path"):
            save_noise_path(shift_path(p, 1.0), fname)
        assert not fname.exists()
        save_noise_path(p, fname)
        q = load_noise_path(fname)
        for t in (-4.0, 0.0, 1.0, 4.0):
            assert np.array_equal(init_ou_state(model, q, t).zeta, init_ou_state(model, p, t).zeta)

    def test_bad_magic(self, tmp_path):
        fname = tmp_path / "junk.bin"
        fname.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError):
            load_noise_path(fname)

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: raw[:20], "header has 20 bytes, expected 48"),
        (lambda raw: raw[:-1], "payload has 95 bytes, expected 96"),
        (lambda raw: raw + bytes(8), "payload has 104 bytes, expected 96"),
    ], ids=["truncated-header", "truncated-payload", "padded-payload"])
    def test_wrong_size_rejected(self, tmp_path, edit, match):
        fname = tmp_path / "noise.bin"
        save_noise_path(make_noise_path(99, 2, H, 0.0, 0.375), fname)  # 2 x 6 steps
        fname.write_bytes(edit(fname.read_bytes()))
        with pytest.raises(ValueError, match=match) as err:
            load_noise_path(fname)
        assert str(fname) in str(err.value)


class TestInitOU:
    def test_deterministic(self, grid):
        model = small_model(grid)
        path = make_noise_path(3, model.n_modes, H, -1.0, 1.0)
        s1 = init_ou_state(model, path, 0.5)
        s2 = init_ou_state(model, path, 0.5)
        assert np.array_equal(s1.zeta, s2.zeta)
        assert s1.j == s2.j

    def test_stationary_variance(self, grid):
        # 1e5 reinitializations pooled over (seed, mode): variance within
        # 3 standard errors of 1 (SE of the sample variance ~ sqrt(2/n)).
        model = make_noise_model(grid, 200, q0=1.0, p=3.0, tau_c=0.5)
        draws = []
        for seed in range(500):
            path = make_noise_path(seed, 200, H, 0.0, H)
            draws.append(init_ou_state(model, path, 0.0).zeta)
        pooled = np.concatenate(draws)
        n = pooled.size
        assert n == 100_000
        assert abs(pooled.var() - 1.0) <= 3.0 * np.sqrt(2.0 / n)
        assert abs(pooled.mean()) <= 3.0 / np.sqrt(n)

    def test_tau_does_not_change_init_law(self, grid):
        path = make_noise_path(3, 4, H, 0.0, 1.0)
        za = init_ou_state(small_model(grid, tau_c=0.1), path, 0.0).zeta
        zb = init_ou_state(small_model(grid, tau_c=5.0), path, 0.0).zeta
        assert np.array_equal(za, zb)

    def test_burnin_mode(self, grid):
        model = small_model(grid)
        path = make_noise_path(3, model.n_modes, H, 0.0, 1.0)
        s = init_ou_state(model, path, 0.0, init="burnin")
        assert np.all(s.zeta == 0.0)

    def test_burnin_cross_validates_stationary(self, grid):
        # The burn-in transient e^{-(t - t_min)/tau} zeta(t_min) dies off:
        # both init modes agree far from the anchor.
        model = small_model(grid, tau_c=0.5)
        path = make_noise_path(3, model.n_modes, H, 0.0, 16.0)
        a = init_ou_state(model, path, 12.0, init="stationary")
        b = init_ou_state(model, path, 12.0, init="burnin")
        decay = np.exp(-12.0 / model.tau_c)
        assert np.max(np.abs(a.zeta - b.zeta)) <= 10.0 * decay

    def test_out_of_range(self, grid):
        model = small_model(grid)
        path = make_noise_path(3, model.n_modes, H, 0.0, 1.0)
        with pytest.raises(ValueError):
            init_ou_state(model, path, 2.0)


def _chained(model, path, init="stationary"):
    """OU states at every gridpoint of the path: one advance_ou at a time from t_min."""
    zeta = path.stationary_draw() if init == "stationary" else np.zeros(model.n_modes)
    state = OUBoundaryState(zeta=zeta, j=path.i0_abs, dt_noise=path.dt_noise)
    out = [state.zeta]
    for _ in range(path.n_steps):
        state = advance_ou(state, path.dt_noise, path, model)
        out.append(state.zeta)
    return np.array(out)


def _counted_unit_normals(monkeypatch):
    calls = []
    orig = NoisePath.unit_normal

    def counted(path, j_abs):
        calls.append(j_abs)
        return orig(path, j_abs)

    monkeypatch.setattr(NoisePath, "unit_normal", counted)
    return calls


class TestOUSeries:
    """init_ou_state reads OU states made once per path; none may move a bit."""

    @pytest.mark.parametrize("source, init", [("seed", "stationary"), ("file", "stationary"),
                                              ("seed", "burnin")])
    def test_window_matches_chained_updates(self, grid, tmp_path, source, init):
        model = small_model(grid)
        path = make_noise_path(12, model.n_modes, H, -2.0, 2.0)
        if source == "file":
            save_noise_path(path, tmp_path / "noise.bin")
            path = load_noise_path(tmp_path / "noise.bin")
        expect = _chained(model, path, init)
        for k in range(16, 49):  # the window [-1, 1]
            got = init_ou_state(model, path, path.t_min + k * H, init=init)
            assert got.j == path.i0_abs + k
            assert np.array_equal(got.zeta, expect[k])

    def test_shifted_copy_reads_same_rows(self, grid, monkeypatch):
        model = small_model(grid)
        path = make_noise_path(12, model.n_modes, H, -2.0, 2.0)
        rows = [init_ou_state(model, path, t).zeta for t in (-1.0, 0.5, 2.0)]
        calls = _counted_unit_normals(monkeypatch)
        shifted = shift_path(path, 0.5)
        again = [init_ou_state(model, shifted, t - 0.5).zeta for t in (-1.0, 0.5, 2.0)]
        assert calls == []
        for a, b in zip(rows, again):
            assert np.array_equal(a, b)

    def test_extended_path_reanchors(self, grid):
        model = small_model(grid)
        path = make_noise_path(12, model.n_modes, H, -2.0, 2.0)
        before = init_ou_state(model, path, 0.0).zeta
        wider = extend_noise_path(path, -3.0, 2.0)
        expect = _chained(model, wider)
        after = init_ou_state(model, wider, 0.0).zeta
        assert np.array_equal(after, expect[48])
        assert not np.array_equal(after, before)  # the stationary draw now sits at -3

    def test_replaced_path_has_its_own_cache(self, grid):
        model = small_model(grid)
        path = make_noise_path(12, model.n_modes, H, -2.0, 2.0)
        init_ou_state(model, path, 0.0)
        moved = dataclasses.replace(path, i0_abs=path.i0_abs + 16)
        fresh = make_noise_path(12, model.n_modes, H, -1.0, 3.0)
        assert np.array_equal(moved.increments, fresh.increments)
        assert np.array_equal(init_ou_state(model, moved, 0.0).zeta,
                              init_ou_state(model, fresh, 0.0).zeta)

    def test_returned_state_is_a_copy(self, grid):
        model = small_model(grid)
        path = make_noise_path(12, model.n_modes, H, -2.0, 2.0)
        state = init_ou_state(model, path, 0.5)
        kept = state.zeta.copy()
        state.zeta[:] = 99.0
        assert np.array_equal(init_ou_state(model, path, 0.5).zeta, kept)


class TestAdvanceOU:
    def test_identity_at_zero(self, grid):
        model = small_model(grid)
        path = make_noise_path(4, model.n_modes, H, 0.0, 1.0)
        s = init_ou_state(model, path, 0.0)
        assert advance_ou(s, 0.0, path, model) is s

    def test_semigroup_bitwise(self, grid):
        model = small_model(grid)
        path = make_noise_path(4, model.n_modes, H, 0.0, 4.0)
        s = init_ou_state(model, path, 0.0)
        one_one = advance_ou(advance_ou(s, 1.0, path, model), 1.0, path, model)
        two = advance_ou(s, 2.0, path, model)
        assert np.array_equal(one_one.zeta, two.zeta)
        assert one_one.j == two.j

    def test_misaligned_dt(self, grid):
        model = small_model(grid)
        path = make_noise_path(4, model.n_modes, H, 0.0, 1.0)
        s = init_ou_state(model, path, 0.0)
        with pytest.raises(ValueError):
            advance_ou(s, 0.7 * H, path, model)

    def test_one_step_moments_vs_euler_maruyama(self, grid):
        # Artifact: AR(1) statistics of a long exact-update trajectory.
        tau = 0.5
        model = make_noise_model(grid, 1, q0=1.0, p=3.0, tau_c=tau)
        n = 20_000
        path = make_noise_path(11, 1, H, 0.0, (n + 1) * H)
        s = init_ou_state(model, path, 0.0)
        traj = np.empty(n + 1)
        traj[0] = s.zeta[0]
        for k in range(n):
            s = advance_ou(s, H, path, model)
            traj[k + 1] = s.zeta[0]
        z0, z1 = traj[:-1], traj[1:]
        a_hat = float(np.sum(z0 * z1) / np.sum(z0 * z0))
        b2_hat = float(np.mean((z1 - a_hat * z0) ** 2))

        # Independent oracle: fine-step Euler-Maruyama over one noise step.
        rng = np.random.default_rng(1234)
        reps, sub = 20_000, 64
        dt = H / sub
        z = rng.standard_normal(reps)
        z0_em = z.copy()
        for _ in range(sub):
            z = z - z / tau * dt + np.sqrt(2.0 / tau * dt) * rng.standard_normal(reps)
        a_em = float(np.sum(z0_em * z) / np.sum(z0_em * z0_em))
        b2_em = float(np.mean((z - a_em * z0_em) ** 2))

        a_true = np.exp(-H / tau)
        se_a = np.sqrt((1 - a_true ** 2) / n)
        se_b = (1 - a_true ** 2) * np.sqrt(2.0 / n)
        assert abs(a_hat - a_em) <= 3.0 * np.sqrt(2.0) * se_a
        assert abs(b2_hat - b2_em) <= 3.0 * np.sqrt(2.0) * se_b
        # And both agree with the exact transition.
        assert abs(a_hat - a_true) <= 3.0 * se_a
        assert abs(b2_hat - (1 - a_true ** 2)) <= 3.0 * se_b


class TestLiftAt:
    def test_zero_everything(self, grid, vop):
        model = small_model(grid)
        path = make_noise_path(5, model.n_modes, H, 0.0, 1.0)
        setup = build_forcing(grid, vop, model, unit_periodic(grid, 1.0, 0.0), path)
        state = init_ou_state(model, path, 0.0)
        state = type(state)(zeta=np.zeros_like(state.zeta), j=state.j, dt_noise=state.dt_noise)
        lift = setup_lift(setup, state)  # t = 0: sin(0) = 0 and zeta = 0
        assert np.all(lift == 0.0)

    def test_periodic_only_exact_period(self, grid, vop):
        model = make_noise_model(grid, 4, q0=0.0, p=3.0, tau_c=0.5)
        path = make_noise_path(5, model.n_modes, H, 0.0, 3.0)
        setup = build_forcing(grid, vop, model, unit_periodic(grid, 0.7, 0.3), path)
        s0 = init_ou_state(model, path, 0.25)
        s1 = advance_ou(s0, 1.0, path, model)
        l0 = setup_lift(setup, s0)
        l1 = setup_lift(setup, s1)
        assert np.array_equal(l0, l1)  # bitwise: period-1 via integer reduction

    def test_single_mode_unit_state(self, grid, vop):
        model = make_noise_model(grid, 1, q0=1.0, p=0.0, tau_c=0.5)
        path = make_noise_path(5, 1, H, 0.0, 1.0)
        setup = build_forcing(grid, vop, model, unit_periodic(grid, 0.0), path)
        state = init_ou_state(model, path, 0.0)
        state = type(state)(zeta=np.ones(1), j=state.j, dt_noise=state.dt_noise)
        lift = setup_lift(setup, state)
        # q = (1 + kh2)^0 = 1 and zeta = 1: the lift is l_1 exactly.
        assert np.array_equal(lift, precompute_mode_lifts(grid, vop, 1)[0])

    def test_mode_count_mismatch(self, grid, vop):
        model = small_model(grid, n_modes=4)
        path = make_noise_path(5, 2, H, 0.0, 1.0)
        with pytest.raises(ValueError, match="4 modes, path has 2"):
            build_forcing(grid, vop, model, unit_periodic(grid), path)

    def test_matches_dense_definition(self, grid, vop):
        # Eight modes include the two k = 0 modes, whose lifts fill a
        # conjugate pair of columns.
        model = small_model(grid, n_modes=8, q0=0.3)
        assert sum(m.k == 0 for m in model.modes) == 2
        path = make_noise_path(5, 8, H, 0.0, 1.0)
        periodic = unit_periodic(grid, 0.7, 0.1)
        setup = build_forcing(grid, vop, model, periodic, path)
        state = init_ou_state(model, path, 0.5)
        zeta = np.random.default_rng(3).standard_normal(8)
        state = type(state)(zeta=zeta, j=state.j, dt_noise=state.dt_noise)
        lift = setup_lift(setup, state)

        factor = periodic_factor(periodic, state.j, state.dt_noise)
        assert factor != 0.0
        dense = factor * solve_lift(grid, vop, periodic.u0)
        for q, z, lf in zip(model.q, zeta, precompute_mode_lifts(grid, vop, 8)):
            dense = dense + np.sqrt(q) * z * lf
        assert np.max(np.abs(lift - dense)) <= 1e-14 * np.max(np.abs(dense))

        # At most two columns per lift, so the basis grows with the modes, not the grid.
        ncols = len(setup.support[0])
        assert ncols <= 2 * (model.n_modes + 1)
        assert setup.basis.nbytes <= (model.n_modes + 1) * 2 * (model.n_modes + 1) * grid.nz * 16

    def test_shift_consistency_bitwise(self, grid, vop, ctx):
        model = small_model(grid, q0=0.05)
        path = make_noise_path(6, model.n_modes, H, -2.0, 4.0)
        setup = build_forcing(grid, vop, model, unit_periodic(grid, 0.5, 0.1), path)
        t = 2.0
        state_t = init_ou_state(model, path, t)
        lift_t = setup_lift(setup, state_t)

        shifted = shift_path(path, t)
        setup_s = build_forcing(grid, vop, model, unit_periodic(grid, 0.5, 0.1), shifted)
        state_0 = init_ou_state(model, shifted, 0.0)
        lift_0 = setup_lift(setup_s, state_0)
        assert np.array_equal(lift_t, lift_0)


class TestLiftAtStep:
    """``Run.lift``, the one step rule: OU part held at a gridpoint, periodic part at step n."""

    def _setup(self, grid, vop):
        model = small_model(grid, q0=0.05)
        path = shift_path(make_noise_path(6, model.n_modes, H, -2.0, 2.0), 0.75)
        return build_forcing(grid, vop, model, unit_periodic(grid, 0.4, 0.3), path)

    def test_matches_written_rule_on_shifted_path(self, ctx, grid, vop):
        setup = self._setup(grid, vop)
        path = setup.path
        dt, m = H / 2, 2
        run = Run(ctx, setup, dt)
        n_min, n_max = round(path.t_min / dt), round(path.t_max / dt)
        # The path covers the lift of each step up to the end of its last noise cell.
        assert (run.m, run.first, run.last) == (m, n_min, n_max + m - 1)
        for n in range(n_min + 1, n_max + 1):
            for held in (n, n - 1):
                state = init_ou_state(setup.model, path, (held // m) * path.dt_noise)
                expect = lift_columns(setup, state.zeta, step_index=n + path.local_shift * m, dt=dt)
                assert np.array_equal(run.lift(n, held=held), expect)
        assert np.array_equal(run.lift(n_min), run.lift(n_min, held=n_min))

    def test_rejects_steps_off_the_path_and_bad_dt(self, ctx, grid, vop):
        setup = self._setup(grid, vop)
        path = setup.path
        dt = H / 2
        run = Run(ctx, setup, dt)
        for n in (round(path.t_min / dt) - 1, round(path.t_max / dt) + 2):
            with pytest.raises(ValueError, match="outside path range"):
                run.lift(n)
        with pytest.raises(ValueError, match="must divide"):
            Run(ctx, setup, 0.7 * H)

    def test_off_path_message_names_the_step_time(self, ctx, grid, vop):
        # Between noise gridpoints the message names the step's own time,
        # not the noise gridpoint whose OU state the step would hold.
        setup = self._setup(grid, vop)
        dt = H / 4
        run = Run(ctx, setup, dt)
        t_before = (run.first - 1) * dt  # -2.765625, whose gridpoint is -2.8125
        with pytest.raises(ValueError, match=f"^time {t_before} outside path range"):
            run.lift(run.first - 1)
        with pytest.raises(ValueError, match=f"^time {(run.last + 1) * dt} outside path range"):
            run.lift(run.first, held=run.last + 1)


class TestColumnLift:
    """The lift on its support columns against the dense field it stands for."""

    # (n_modes, q0, periodic amplitude, periodic boundary mode): the config
    # defaults; no noise; no periodic flux; an empty support; the periodic
    # flux on a noise mode's column; and on a column of its own.
    CASES = {
        "default": (8, 0.01, 0.0, 2),
        "q0_zero": (8, 0.0, 0.4, 2),
        "periodic_zero": (8, 0.05, 0.0, 2),
        "empty_support": (0, 0.0, 0.0, 2),
        "shared_column": (4, 0.05, 0.4, 0),
        "own_column": (2, 0.05, 0.4, 9),
    }

    def _setup(self, grid, vop, case):
        n_modes, q0, amp, pmode = self.CASES[case]
        model = make_noise_model(grid, n_modes, q0=q0, p=3.0, tau_c=0.5)
        path = make_noise_path(5, n_modes, H, 0.0, 1.0)
        coef = amp * dense_coef(mode_flux(grid, boundary_modes(grid, 12)[pmode]))
        periodic = PeriodicFlux(BoundaryFlux.from_dense(coef), 0.1)
        setup = build_forcing(grid, vop, model, periodic, path)
        state = init_ou_state(model, path, 0.5)
        return setup, state

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dense_lift_is_the_scattered_columns(self, grid, vop, case):
        setup, state = self._setup(grid, vop, case)
        li, ki = setup.support
        assert li.dtype == ki.dtype == np.intp
        assert list(zip(li, ki)) == sorted(set(zip(li, ki)))
        assert setup.basis.shape == (setup.model.n_modes + 1, grid.nz, len(li))
        cols = lift_columns(setup, state.zeta, step_index=3, dt=H)
        dense = setup_lift(setup, state, step_index=3, dt=H)
        assert np.array_equal(dense[:, li, ki], cols)
        dense[:, li, ki] = 0.0
        assert not np.any(dense)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_basis_is_the_dense_lift_columns(self, grid, vop, case):
        setup, _ = self._setup(grid, vop, case)
        li, ki = setup.support
        fluxes = [mode_flux(grid, m) for m in setup.model.modes] + [setup.periodic.u0]
        dense = np.array([solve_lift(grid, vop, f)[:, li, ki] for f in fluxes])
        assert setup.basis.tobytes() == dense.tobytes()

    def test_support_cases(self, grid, vop):
        setup, _ = self._setup(grid, vop, "empty_support")
        assert len(setup.support[0]) == 0
        for case, shared in (("shared_column", True), ("own_column", False)):
            setup, _ = self._setup(grid, vop, case)
            on_noise = np.any(setup.basis[:-1] != 0.0, axis=(0, 1))
            on_periodic = np.any(setup.basis[-1] != 0.0, axis=0)
            assert on_periodic.any()
            assert np.any(on_noise & on_periodic) == shared

    @pytest.mark.parametrize("amplitude", [0.0, -0.0])
    def test_zero_amplitude_adds_no_column(self, grid, vop, amplitude):
        # Mode 9, (0, 2) sin, lies outside the 8 noise modes: a zero flux there
        # must leave the support and the basis as an empty periodic flux does.
        model = make_noise_model(grid, 8, q0=0.05, p=3.0, tau_c=0.5)
        path = make_noise_path(5, 8, H, 0.0, 1.0)
        flux = mode_flux(grid, boundary_modes(grid, 12)[9])
        zero = dataclasses.replace(flux, values=amplitude * flux.values)
        assert zero.li.size == zero.ki.size == zero.values.size == 0
        none = BoundaryFlux(flux.shape, [], [], [])
        got, ref = (build_forcing(grid, vop, model, PeriodicFlux(f, 0.1), path)
                    for f in (zero, none))
        assert len(got.support[0]) == 5  # (0, +-1), (1, 0), (1, -1) and (1, 1)
        for a, b in zip((*got.support, got.basis), (*ref.support, ref.basis)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_peak_memory_of_a_large_grid(self):
        # 1024x1024x5: a dense (ny, nkx) complex array is 8.4 MB; the fluxes,
        # the support and the basis are a few KB.
        grid = Grid(1024, 1024, 5)
        vop = build_vertical_operator(make_profile(1.0, 1.0, grid.nz), grid.nz)
        model = make_noise_model(grid, 8, q0=0.05, p=3.0, tau_c=0.5)
        path = make_noise_path(5, 8, H, 0.0, 1.0)
        flux = mode_flux(grid, boundary_modes(grid, 12)[9])
        periodic = PeriodicFlux(dataclasses.replace(flux, values=0.5 * flux.values), 0.1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            setup = build_forcing(grid, vop, model, periodic, path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert setup.basis.shape == (9, grid.nz, 7)  # 5 noise columns and (0, +-2)
        assert peak < 1e6, peak

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_terms_match_dense_norms(self, grid, vop, ctx, case):
        setup, state = self._setup(grid, vop, case)
        u = random_field(ctx, np.random.default_rng(31))
        for n in (0, 3):  # sin(2pi * 0.1) and sin(2pi * 0.2875): both nonzero
            dense = setup_lift(setup, state, step_index=n, dt=H)
            vdual, flux = lift_terms(ctx, setup.support,
                                     lift_columns(setup, state.zeta, step_index=n, dt=H), u)
            vdual_ref = norms(ctx, deriv_x(ctx, dense)).vdual
            flux_ref = inner_h(ctx, deriv_x(ctx, dense), u)
            assert abs(vdual - vdual_ref) <= 1e-14 * vdual_ref
            assert abs(flux - flux_ref) <= 1e-14 * abs(flux_ref)
            # The public route through the dense field's nonzero columns.
            assert lift_terms(ctx, *nonzero_columns(dense), u) == (vdual, flux)
        if case == "empty_support":
            assert (vdual, flux) == (0.0, 0.0)



class TestPeriodicFactor:
    def test_bitwise_periodicity(self):
        per = PeriodicFlux(BoundaryFlux.from_dense(np.zeros((4, 3), dtype=complex)), phase=0.37)
        dt = 0.0625
        p = round(1 / dt)
        for n in (-3, 0, 5, 11):
            assert periodic_factor(per, n, dt) == periodic_factor(per, n + p, dt)

    @pytest.mark.parametrize("phase", [-0.25, 1.0, 1.5])
    def test_phase_outside_unit_interval_rejected(self, phase):
        with pytest.raises(ValueError, match=r"phase must lie in \[0, 1\)"):
            PeriodicFlux(BoundaryFlux.from_dense(np.zeros((4, 3), dtype=complex)), phase=phase)

    def test_matches_sin(self):
        per = PeriodicFlux(BoundaryFlux.from_dense(np.zeros((4, 3), dtype=complex)), phase=0.0)
        assert periodic_factor(per, 4, 0.0625) == pytest.approx(np.sin(2 * np.pi * 0.25), abs=1e-15)


class TestInteriorOU:
    @staticmethod
    def held_variance(gamma, nu_lam, tau, h):
        """Stationary variance of the held-driving recursion, from the joint
        (zeta, y) Gaussian transition: y_{n+1} = A y_n + (1-A) gamma zeta_n."""
        A = np.exp(-nu_lam * h)
        a = np.exp(-h / tau)
        return gamma ** 2 * (1 - A) * (1 + a * A) / ((1 + A) * (1 - a * A))

    def test_zero_noise_exact_decay(self, ctx, grid, vop):
        model = make_noise_model(grid, 2, q0=0.0, p=3.0, tau_c=0.5)
        path = make_noise_path(8, 2, H, 0.0, 2.0)
        lifts = precompute_mode_lifts(grid, vop, 2)
        track = [(0, 1), (1, 2)]
        times, Y = interior_ou_modes(ctx, model, path, lifts, 0.0, 2.0, track, y0=1.0)
        for row, (i, m) in zip(Y, track):
            lam = model.modes[i].kh2 + vop.mu[m]
            expect = np.exp(-ctx.nu * lam * (times - times[0]))
            assert np.max(np.abs(row - expect)) < 1e-12

    def test_stationary_variance_closed_form(self, ctx, grid, vop):
        tau = 0.5
        model = make_noise_model(grid, 2, q0=0.5, p=1.0, tau_c=tau)
        lifts = precompute_mode_lifts(grid, vop, 2)
        t1 = 3000.0
        path = make_noise_path(9, 2, H, 0.0, t1)
        track = [(0, 0), (1, 1)]
        times, Y = interior_ou_modes(ctx, model, path, lifts, 0.0, t1, track)
        zw = ctx.zw
        for row, (i, m) in zip(Y, track):
            mode = model.modes[i]
            from stochqg.forcing import _lift_profile
            prof = _lift_profile(lifts[i], grid, mode)
            gamma = np.sqrt(model.q[i]) * float(zw @ (prof * vop.phi[:, m]))
            nu_lam = ctx.nu * (mode.kh2 + vop.mu[m])
            expect = self.held_variance(gamma, nu_lam, tau, H)
            # Burn-in discard, then decimate to near-independent samples.
            samples = row[len(row) // 5:][:: 16 * 8]
            var = samples.var()
            ess = samples.size
            assert abs(var - expect) <= 3.0 * expect * np.sqrt(2.0 / ess)

    def test_disjoint_modes_independent(self, ctx, grid, vop):
        model = make_noise_model(grid, 2, q0=0.5, p=1.0, tau_c=0.5)
        lifts = precompute_mode_lifts(grid, vop, 2)
        path = make_noise_path(10, 2, H, 0.0, 2000.0)
        times, Y = interior_ou_modes(ctx, model, path, lifts, 0.0, 2000.0, [(0, 1), (1, 1)])
        s0 = Y[0, 200:][:: 16 * 8]
        s1 = Y[1, 200:][:: 16 * 8]
        r = np.corrcoef(s0, s1)[0, 1]
        assert abs(r) <= 3.0 / np.sqrt(s0.size)


class TestStationarityAndTemperedness:
    def test_two_slice_ks(self, grid, vop):
        # Marginal law of a designated lift coefficient at two integer-separated
        # times, across independent paths: same distribution at the 1% level.
        model = small_model(grid, n_modes=4, q0=0.04)
        periodic = unit_periodic(grid, 0.3, 0.2)
        t1, t2 = 3.0, 24.0
        a_samples, b_samples = [], []
        for seed in range(300):
            path = make_noise_path(1000 + seed, model.n_modes, H, 0.0, t2)
            setup = build_forcing(grid, vop, model, periodic, path)
            s = init_ou_state(model, path, 0.0)
            s1 = advance_ou(s, t1, path, model)
            a_samples.append(setup_lift(setup, s1)[grid.nz - 1, 1, 0].real)
            s2 = advance_ou(s1, t2 - t1, path, model)
            b_samples.append(setup_lift(setup, s2)[grid.nz - 1, 1, 0].real)
        stat = ks_2samp(a_samples, b_samples)
        assert stat.pvalue > 0.01

    def test_deterministic_ratio_decay(self, ctx, grid, vop):
        model = make_noise_model(grid, 2, q0=0.0, p=3.0, tau_c=0.5)
        path = make_noise_path(12, 2, H, 0.0, 130.0)
        # Amplitude chosen so the lift norm exceeds 1: log+ is informative.
        setup = build_forcing(grid, vop, model, unit_periodic(grid, 40.0, 0.25), path)
        times, ratio, slope, se = temperedness_series(ctx, setup, 128.0)
        lift_norm = norm_h(ctx, setup_lift(setup, advance_ou(init_ou_state(model, path, 0.0), 1.0, path, model)))
        expect = np.log(lift_norm) / times
        assert np.max(np.abs(ratio - expect)) < 1e-12
        assert abs(slope) < 1e-12

    def test_stationary_slope_zero(self, ctx, grid, vop):
        model = small_model(grid, n_modes=4, q0=1.0)
        periodic = unit_periodic(grid, 1.0, 0.2)
        slopes, ses = [], []
        for seed in range(10):
            path = make_noise_path(2000 + seed, model.n_modes, H, 0.0, 130.0)
            setup = build_forcing(grid, vop, model, periodic, path)
            _, _, slope, se = temperedness_series(ctx, setup, 128.0)
            slopes.append(slope)
            ses.append(se)
        mean = np.mean(slopes)
        se_mean = np.std(slopes, ddof=1) / np.sqrt(len(slopes))
        assert abs(mean) <= 2.0 * se_mean + 1e-12

    def test_q0_scaling_shifts_level_not_limit(self, ctx, grid, vop):
        periodic = unit_periodic(grid, 0.0)
        ratios = []
        for q0 in (1.0, 4.0):
            model = small_model(grid, n_modes=4, q0=q0)
            path = make_noise_path(77, model.n_modes, H, 0.0, 130.0)
            setup = build_forcing(grid, vop, model, periodic, path)
            times, ratio, slope, _ = temperedness_series(ctx, setup, 128.0)
            ratios.append(ratio)
            assert abs(slope) < 0.05
        # Same noise realization: doubling q0 shifts log||lift|| by log(2).
        tail = slice(len(times) // 2, None)
        assert np.mean(ratios[1][tail] - ratios[0][tail]) < np.log(4.0) / times[tail][0]

    def test_reads_the_path_ou_series(self, ctx, grid, vop, monkeypatch):
        # 100 samples on a 3,200-step path draw no normals beyond the path's own
        # OU series (one per gridpoint), and give the bits of an OU walk from t0.
        model = small_model(grid, n_modes=4, q0=1.0)
        path = make_noise_path(78, model.n_modes, H, 0.0, 200.0)
        setup = build_forcing(grid, vop, model, unit_periodic(grid, 1.0, 0.2), path)
        calls = []
        unit_normal = NoisePath.unit_normal

        def counted(self, j_abs):
            calls.append(j_abs)
            return unit_normal(self, j_abs)

        monkeypatch.setattr(NoisePath, "unit_normal", counted)
        times, ratio, _, _ = temperedness_series(ctx, setup, 100.0)
        assert len(times) == 100
        assert len(calls) == len(set(calls)) == path.n_steps == 3200
        state, walked = init_ou_state(model, path, 0.0), []
        for _ in range(100):
            state = advance_ou(state, 1.0, path, model)
            walked.append(max(np.log(max(norm_h(ctx, setup_lift(setup, state)), 1e-300)), 0.0))
        assert np.array_equal(ratio, np.array(walked) / times)


class TestTailSlope:
    def test_recovers_linear_trend(self):
        t = np.arange(1.0, 101.0)
        y = 0.03 * t + 1.0
        slope, se = tail_slope(t, y)
        assert slope == pytest.approx(0.03, abs=1e-12)
        assert se < 1e-12
