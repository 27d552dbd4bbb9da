"""IMEX stepping, energy budget, the xi bound, and reconstruction."""

import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from stochqg import forcing, integrator
from stochqg.attractor import AttractorEstimate, PullbackConfig, growth_diagnostic
from stochqg.forcing import (
    PeriodicFlux,
    build_forcing,
    init_ou_state,
    make_noise_model,
    lift_columns,
    make_noise_path,
    setup_lift,
)
from stochqg.integrator import (
    BlowupError,
    CFLViolation,
    DiagnosticsRecord,
    Run,
    SimState,
    energy_budget,
    initial_state,
    load_snapshot,
    reconstruct_streamfunction,
    save_snapshot,
    simulate,
    step,
    step_arrays,
    write_diagnostics_csv,
    xi_step,
)
from stochqg.lift import BoundaryFlux, boundary_modes, mode_flux, solve_lift
from stochqg.operators import (
    apply_A,
    build_context,
    deriv_x,
    eigenvalue_of,
    inner_h,
    jacobian,
    apply_D,
    lift_terms,
    nonzero_columns,
    norm_h,
    norms,
    unit_eigenmode,
)
from stochqg.spectral import Grid, build_vertical_operator, inverse_transform, make_profile

from conftest import dense_coef, random_field

H = 0.0625


def forcing_for(grid, vop, q0=0.0, amp=0.0, phase=0.0, seed=7, t_min=-2.0, t_max=8.0,
                n_modes=8, tau_c=0.5):
    model = make_noise_model(grid, n_modes, q0=q0, p=3.0, tau_c=tau_c)
    path = make_noise_path(seed, n_modes, H, t_min, t_max)
    coef = amp * dense_coef(mode_flux(grid, boundary_modes(grid, 4)[2]))  # (1, 0) cos
    periodic = PeriodicFlux(BoundaryFlux.from_dense(coef), phase=phase)
    return build_forcing(grid, vop, model, periodic, path)


class TestStep:
    def test_pure_viscous_decay_exact(self, grid, vop):
        # B = C = D = f = 0: beta = 0 and zero forcing; a single eigenmode
        # decays by exactly e^{-nu lam dt} (integrating factor).
        ctx0 = build_context(grid, vop, nu=0.5, beta=0.0)
        setup = forcing_for(grid, vop)
        u0 = unit_eigenmode(ctx0, 1, 2, 1)
        lam = eigenvalue_of(ctx0, 1, 2, 1)
        st = initial_state(Run(ctx0, setup, H), u0, 0.0)
        for k in range(10):
            st = step(st)
            expect = np.exp(-0.5 * lam * (k + 1) * H) * u0
            assert np.max(np.abs(st.u - expect)) < 1e-12 * np.max(np.abs(expect))

    def test_zero_stays_zero(self, ctx, grid, vop):
        setup = forcing_for(grid, vop)
        st = initial_state(Run(ctx, setup, H), np.zeros((grid.nz, grid.ny, grid.nkx), complex), 0.0)
        for _ in range(5):
            st = step(st)
        assert np.all(st.u == 0.0)
        assert st.xi == 0.0

    def test_self_convergence_order_two(self, ctx, grid, vop):
        # Richardson: errors between consecutive dt halvings contract at
        # order 2 +- 0.2 on a smooth run of the full equation.
        setup = forcing_for(grid, vop, q0=0.01, amp=0.2, phase=0.1)
        rng = np.random.default_rng(40)
        u0 = 0.2 * random_field(ctx, rng, decay=2.5)
        finals = []
        dts = [H / 2, H / 4, H / 8, H / 16]
        for dt in dts:
            res = simulate(ctx, setup, u0, 0.0, 1.0, dt, record_diagnostics=False)
            finals.append(res.final.u)
        errs = [norm_h(ctx, finals[i] - finals[i + 1]) for i in range(len(finals) - 1)]
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(abs(s - 2.0) < 0.2 for s in slopes), (errs, slopes)

    def test_bitwise_reproducible(self, ctx, grid, vop):
        setup = forcing_for(grid, vop, q0=0.02, amp=0.3, phase=0.2)
        u0 = 0.1 * unit_eigenmode(ctx, 1, 1, 2)
        r1 = simulate(ctx, setup, u0, 0.0, 2.0, H)
        r2 = simulate(ctx, setup, u0, 0.0, 2.0, H)
        assert np.array_equal(r1.final.u, r2.final.u)
        assert r1.final.xi == r2.final.xi

    def test_cfl_violation(self, ctx, grid, vop):
        setup = forcing_for(grid, vop)
        u0 = 50.0 * unit_eigenmode(ctx, 0, 1, 1)
        st = initial_state(Run(ctx, setup, H), u0, 0.0)
        with pytest.raises(CFLViolation) as err:
            step(st)
        assert err.value.suggested_dt < H

    def test_blowup_guard(self, ctx, grid, vop):
        setup = forcing_for(grid, vop)
        u0 = 1e-2 * unit_eigenmode(ctx, 0, 1, 1)
        st = dataclasses.replace(initial_state(Run(ctx, setup, H), u0, 0.0), xi=1e-12)
        with pytest.raises(BlowupError):
            step(st)

    def test_dt_must_divide_noise_step(self, ctx, grid, vop):
        setup = forcing_for(grid, vop)
        with pytest.raises(ValueError):
            initial_state(Run(ctx, setup, 0.7 * H), np.zeros((grid.nz, grid.ny, grid.nkx), complex),
                          0.0)


class TestSimulate:
    def test_closed_form_decay_trajectory(self, grid, vop):
        ctx0 = build_context(grid, vop, nu=0.5, beta=0.0)
        setup = forcing_for(grid, vop)
        u0 = unit_eigenmode(ctx0, 0, 0, 2)
        lam = eigenvalue_of(ctx0, 0, 0, 2)
        res = simulate(ctx0, setup, u0, 0.0, 2.0, H, snapshot_every=8)
        for t, u in res.snapshots:
            expect = np.exp(-0.5 * lam * t)
            assert abs(norm_h(ctx0, u) - expect) < 1e-12 * expect

    def test_linear_response_continuity(self, ctx, grid, vop):
        # ||phi(1, omega, x + eps e) - phi(1, omega, x)|| / eps constant in eps.
        setup = forcing_for(grid, vop, q0=0.02, amp=0.3, phase=0.1)
        rng = np.random.default_rng(41)
        x = 0.2 * random_field(ctx, rng, decay=2.0)
        e = unit_eigenmode(ctx, 1, 1, 1)
        base = simulate(ctx, setup, x, 0.0, 1.0, H, record_diagnostics=False).final.u
        ratios = []
        for eps in (1e-3, 1e-5):
            pert = simulate(ctx, setup, x + eps * e, 0.0, 1.0, H,
                            record_diagnostics=False).final.u
            ratios.append(norm_h(ctx, pert - base) / eps)
        assert abs(ratios[0] - ratios[1]) < 0.05 * ratios[1]

    def test_misaligned_window(self, ctx, grid, vop):
        setup = forcing_for(grid, vop)
        z = np.zeros((grid.nz, grid.ny, grid.nkx), complex)
        with pytest.raises(ValueError):
            simulate(ctx, setup, z, 0.0, 1.03, H)


class TestRun:
    """A run resolves its constants once and refuses an end the path does not cover."""

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("record_diagnostics", [True, False])
    def test_t1_beyond_last_covered_step_refused_before_stepping(self, ctx, grid, vop,
                                                                 monkeypatch, m,
                                                                 record_diagnostics):
        # Every state a run makes has its lift on the path, so the run may end
        # at step ``last`` and no later, with or without diagnostics.
        setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2, t_min=-1.0, t_max=1.0)
        dt = H / m
        run = Run(ctx, setup, dt)
        assert run.last * dt == setup.path.t_max + (m - 1) * dt
        u0 = 0.1 * unit_eigenmode(ctx, 1, 1, 2)
        res = simulate(ctx, setup, u0, (run.last - 4) * dt, run.last * dt, dt,
                       record_diagnostics=record_diagnostics)
        assert res.final.n == run.last

        steps, sunk = [], []

        def counted_step(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(integrator, "step", counted_step)
        t1 = (run.last + 1) * dt
        with pytest.raises(ValueError, match="t1") as err:
            simulate(ctx, setup, u0, (run.last - 4) * dt, t1, dt,
                     record_diagnostics=record_diagnostics,
                     snapshot_sink=lambda t, u: sunk.append(t))
        assert f"t1={t1}" in str(err.value) and f"{run.last * dt}" in str(err.value)
        assert steps == [] and sunk == []

    @pytest.mark.parametrize("m", [1, 4])
    def test_steps_per_noise_once_per_run(self, ctx, grid, vop, monkeypatch, m):
        # steps_per_noise is resolved when the run is built, never per step.
        setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2)
        u0 = 0.1 * unit_eigenmode(ctx, 1, 1, 2)
        calls, steps_per_noise = [], forcing.steps_per_noise

        def counted(*args, **kwargs):
            calls.append(args)
            return steps_per_noise(*args, **kwargs)

        for module in (forcing, integrator):
            monkeypatch.setattr(module, "steps_per_noise", counted, raising=False)
        counts = []
        for n_steps in (4, 8):
            calls.clear()
            simulate(ctx, setup, u0, 0.0, n_steps * H / m, H / m)
            counts.append(len(calls))
        assert counts == [1, 1]


class TestStepReport:
    """Each state's shared values are reused by its step and the diagnostics; no bit may move."""

    def _setup(self, ctx, grid, vop):
        setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2, seed=11)
        u0 = 0.2 * random_field(ctx, np.random.default_rng(48), decay=2.0)
        return setup, u0

    def test_records_match_public_functions(self, ctx, grid, vop):
        # Rebuild every record from the public functions alone, with each
        # step's lift made afresh from init_ou_state.
        setup, u0 = self._setup(ctx, grid, vop)
        res = simulate(ctx, setup, u0, 0.0, 1.0, H, snapshot_every=1)
        states, lifts = [], []
        run = Run(ctx, setup, H)
        xi = inner_h(ctx, res.snapshots[0][1], res.snapshots[0][1])
        for n, (_, u) in enumerate(res.snapshots):
            states.append(SimState(u=u, n=n, xi=xi, run=run))
            lifts.append(setup_lift(setup, init_ou_state(setup.model, setup.path, n * H),
                                    step_index=n, dt=H))
            xi = xi_step(xi, lifts[-1], H, ctx)
        rebuilt = []
        for k in range(len(states) - 1):
            nxt = states[k + 1]
            nn = norms(ctx, nxt.u)
            rebuilt.append(DiagnosticsRecord(
                t=nxt.t, h=nn.h, v=nn.v,
                vdual_liftx=lift_terms(ctx, *nonzero_columns(lifts[k + 1]))[0], xi=nxt.xi,
                residual=energy_budget(ctx, states[k], nxt, lifts[k], lifts[k + 1]), dt=H))
        assert len(rebuilt) == 16
        assert rebuilt == res.diagnostics

    def test_state_needs_context_and_forcing(self, ctx, grid, vop):
        # A state is stepped under the run it carries, so it cannot be made
        # without one, and a run cannot be made without a forcing and a step.
        u = np.zeros((grid.nz, grid.ny, grid.nkx), complex)
        assert [f.name for f in dataclasses.fields(SimState)] == ["u", "n", "xi", "run"]
        with pytest.raises(TypeError):
            SimState(u=u, n=0, xi=0.0)
        with pytest.raises(TypeError):
            Run(ctx, dt=H)

    def test_steps_without_reports_match_simulate(self, ctx, grid, vop):
        setup, u0 = self._setup(ctx, grid, vop)
        res = simulate(ctx, setup, u0, 0.0, 1.0, H)
        st = initial_state(Run(ctx, setup, H), u0, 0.0)
        xis = []
        for _ in range(16):
            st = step(dataclasses.replace(st))
            xis.append(st.xi)
        assert np.array_equal(st.u, res.final.u)
        assert xis == [d.xi for d in res.diagnostics]

    def test_steps_between_noise_gridpoints_match_simulate(self, ctx, grid, vop, monkeypatch):
        # At dt = dt_noise/4 each state builds its own lift on first use and
        # each step builds the corrector's, as at dt = dt_noise.
        setup, u0 = self._setup(ctx, grid, vop)
        dt = H / 4
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["step_index"])
            return lift_columns(*args, **kwargs)

        monkeypatch.setattr(integrator, "lift_columns", counted)
        res = simulate(ctx, setup, u0, 0.0, 8 * dt, dt)
        monkeypatch.undo()
        assert len(calls) == 1 + 8 * 2  # the initial state's lift, then 2 per step
        st = initial_state(Run(ctx, setup, dt), u0, 0.0)
        xis = []
        for _ in range(8):
            st = step(dataclasses.replace(st))
            xis.append(st.xi)
        assert np.array_equal(st.u, res.final.u)
        assert xis == [d.xi for d in res.diagnostics]

    @pytest.mark.parametrize("linear_only", [False, True])
    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("dt", [H, H / 4])
    def test_simulate_matches_public_steps(self, ctx, grid, vop, dt, record, linear_only):
        # simulate drops each state it replaces; its results are still those
        # of public steps, which keep theirs: the final u and xi and every
        # record, with each residual from energy_budget on the dense lifts.
        setup, u0 = self._setup(ctx, grid, vop)
        res = simulate(ctx, setup, u0, 0.0, 8 * dt, dt, linear_only=linear_only,
                       record_diagnostics=record)
        li, ki = setup.support

        def dense(state):
            lift = np.zeros_like(state.u)
            lift[:, li, ki] = state.lift
            return lift

        st = initial_state(Run(ctx, setup, dt), u0, 0.0)
        records = []
        for _ in range(8):
            nxt = step(st, linear_only=linear_only)
            nn = norms(ctx, nxt.u)
            records.append(DiagnosticsRecord(
                t=nxt.t, h=nn.h, v=nn.v, vdual_liftx=nxt.vdual_liftx, xi=nxt.xi,
                residual=energy_budget(ctx, st, nxt, dense(st), dense(nxt)), dt=dt))
            st = nxt
        assert np.array_equal(res.final.u, st.u)
        assert (res.final.n, res.final.xi) == (st.n, st.xi)
        assert res.diagnostics == (records if record else [])

    @pytest.mark.parametrize("dt", [H, H / 4])
    def test_public_step_leaves_its_input_unchanged(self, ctx, grid, vop, dt):
        setup, u0 = self._setup(ctx, grid, vop)
        st = step(initial_state(Run(ctx, setup, dt), u0, 0.0))
        kept = st.u.copy(), st.modes.copy(), st.lift.copy()
        nxt = step(st)
        for before, after in zip(kept, (st.u, st.modes, st.lift)):
            assert np.array_equal(before, after)
        assert np.array_equal(step(st).u, nxt.u)

    def test_replaced_field_steps_like_fresh_state(self, ctx, grid, vop):
        # The report made for the old u must not be used for the new one.
        setup, u0 = self._setup(ctx, grid, vop)
        st = step(initial_state(Run(ctx, setup, H), u0, 0.0))
        other = 0.1 * random_field(ctx, np.random.default_rng(49), decay=2.0)
        edited = step(dataclasses.replace(st, u=other))
        fresh = step(dataclasses.replace(initial_state(Run(ctx, setup, H), other, st.t), xi=st.xi))
        assert np.array_equal(edited.u, fresh.u)
        assert edited.xi == fresh.xi


    @pytest.mark.parametrize("change", ["forcing", "context"])
    def test_state_from_other_setup_steps_like_fresh_state(self, ctx, grid, vop, change):
        # A state made under forcing (or context) A, with its lift, modes
        # and xi source already computed, is moved to a run under B: none of
        # A's values may be used.
        setup_a, u0 = self._setup(ctx, grid, vop)
        setup_b, ctx_b = setup_a, ctx
        if change == "forcing":  # the same noise path, another periodic flux
            setup_b = forcing_for(grid, vop, q0=0.05, amp=0.5, phase=0.4, seed=11)
        else:
            ctx_b = build_context(grid, vop, nu=2.0 * ctx.nu, beta=ctx.beta)
        st = step(initial_state(Run(ctx, setup_a, H), u0, 0.0))
        _ = st.vdual_liftx, st.modes  # fills A's cache
        assert {"lift", "modes", "vdual_liftx"} <= set(vars(st))
        moved = step(dataclasses.replace(st, run=Run(ctx_b, setup_b, H)))
        fresh = step(dataclasses.replace(initial_state(Run(ctx_b, setup_b, H), st.u, st.t),
                                         xi=st.xi))
        assert np.array_equal(moved.u, fresh.u)
        assert moved.xi == fresh.xi
        stayed = step(st)
        assert not np.array_equal(moved.u, stayed.u)

    def test_final_state_values_not_built_without_diagnostics(self, ctx, grid, vop,
                                                              monkeypatch):
        # At dt = dt_noise every step crosses a noise gridpoint: each state
        # 0..7 builds its lift for its step, and each step builds the
        # corrector's.  The final state, which nothing reads, builds none.
        setup, u0 = self._setup(ctx, grid, vop)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["step_index"])
            return lift_columns(*args, **kwargs)

        monkeypatch.setattr(integrator, "lift_columns", counted)
        res = simulate(ctx, setup, u0, 0.0, 8 * H, H, record_diagnostics=False)
        assert len(calls) == 16
        assert "lift" not in vars(res.final) and "modes" not in vars(res.final)


def _traced_peak(fn) -> tuple[int, object]:
    """Peak traced bytes allocated while fn() runs, above what was live before, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


class TestFieldLifetimes:
    """A run holds each field-sized array only while it is needed."""

    def _run(self, ctx, grid, vop, n_steps, **kwargs):
        setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2, seed=11)
        u0 = 0.2 * random_field(ctx, np.random.default_rng(48), decay=2.0)
        return _traced_peak(lambda: simulate(ctx, setup, u0, 0.0, n_steps * H, H, **kwargs))

    def test_simulate_peak_memory(self, ctx, grid, vop):
        # About 8.6 fields at the corrector's Jacobian: the replaced state's
        # modes, the corrector's psi, u_pred and N0, half a field of efac
        # and the Jacobian's four arrays.  Keeping the
        # previous report, the initial state, all four gradient fields or
        # one snapshot per step crosses the bound.
        field = grid.nz * grid.ny * grid.nkx * 16
        peak, res = self._run(ctx, grid, vop, 8, snapshot_every=1,
                              snapshot_sink=lambda t, u: None)
        assert len(res.diagnostics) == 8 and res.snapshots == []
        assert peak < 12 * field, peak / field

    def test_sink_memory_independent_of_snapshot_count(self, ctx, grid, vop):
        field = grid.nz * grid.ny * grid.nkx * 16
        taken = []
        sink = lambda t, u: taken.append(t)  # noqa: E731
        every, _ = self._run(ctx, grid, vop, 16, snapshot_every=1, snapshot_sink=sink)
        ends, _ = self._run(ctx, grid, vop, 16, snapshot_every=0, snapshot_sink=sink)
        assert taken == [k * H for k in range(17)] + [0.0, 16 * H]
        assert abs(every - ends) < 0.5 * field
        # The default list keeps a copy of each of the 17 snapshots.
        listed, res = self._run(ctx, grid, vop, 16, snapshot_every=1)
        assert len(res.snapshots) == 17
        assert listed > every + 14 * field

    @pytest.mark.parametrize("size, bound", [(128, 7.0), (32, 10.0)])
    def test_step_memory_budget(self, size, bound):
        # At the corrector's Jacobian a step holds c0, N0, u_pred and psi,
        # which takes over the tendency, besides half a field of efac and the
        # first snapshot: 5.5 fields and the Jacobian's work.  That work is
        # one block of levels on the level-blocked 128x128x17 grid (6.5
        # fields in all) and four whole-field arrays on the one-block
        # 32x32x17 grid (9.4).  A step that keeps the replaced state's u, a
        # whole-field J or a temporary per Heun operation crosses the bound.
        grid = Grid(nx=size, ny=size, nz=17)
        vop = build_vertical_operator(make_profile(1.0, 1.0, grid.nz), grid.nz)
        ctx = build_context(grid, vop, nu=0.5, beta=1.0)
        assert (len(ctx.blocks) > 1) == (size == 128)
        setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2, seed=11)
        u0 = 0.2 * random_field(ctx, np.random.default_rng(48), decay=2.0)
        simulate(ctx, setup, u0, 0.0, 2 * H, H)  # warm-up: first-call allocations
        peak, res = _traced_peak(lambda: simulate(ctx, setup, u0, 0.0, 2 * H, H))
        field = u0.nbytes
        assert len(res.diagnostics) == 2
        assert peak <= bound * field, peak / field


class TestStepArrays:
    """A step writes into arrays of its own and only reads the state it is given."""

    def _state(self, ctx, grid, vop):
        setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2, seed=11)
        u0 = 0.2 * random_field(ctx, np.random.default_rng(48), decay=2.0)
        return setup, u0, initial_state(Run(ctx, setup, H), u0, 0.0)

    def test_step_leaves_its_state_unchanged(self, ctx, grid, vop):
        _, _, st = self._state(ctx, grid, vop)
        u, modes = st.u.copy(), st.modes.copy()
        work = step_arrays(ctx)
        results = [step(st), step(st), step(st, work=work), step(st, work=work)]
        assert st.u.tobytes() == u.tobytes() and st.modes.tobytes() == modes.tobytes()
        for res in results[1:]:
            assert res.u.tobytes() == results[0].u.tobytes()
            assert (res.n, res.xi, res.h2) == (results[0].n, results[0].xi, results[0].h2)

    @pytest.mark.parametrize("wrapped", [False, True], ids=["direct", "wrapped"])
    def test_replaced_state_freed_before_the_corrector(self, ctx, grid, vop, monkeypatch,
                                                       wrapped):
        # simulate hands each step the only reference to the state it
        # replaces, so that state's u is gone by the corrector's tendency.
        # The wrapper holds its arguments until the step returns, as CPython
        # 3.10's caller and a tracing wrapper do; the old u must die anyway.
        setup, u0, _ = self._state(ctx, grid, vop)
        if wrapped:
            monkeypatch.setattr(integrator, "step", lambda *args, **kwargs: step(*args, **kwargs))
        refs, alive = [], []
        tendency = integrator.tendency

        def traced(*args, cfl=False, **kwargs):
            if not cfl:
                alive.append(refs[-1]() is not None)
            return tendency(*args, cfl=cfl, **kwargs)

        monkeypatch.setattr(integrator, "tendency", traced)
        simulate(ctx, setup, u0, 0.0, 4 * H, H, snapshot_every=1,
                 snapshot_sink=lambda t, u: refs.append(weakref.ref(u)))
        assert alive == [False] * 4

    @pytest.mark.parametrize("case", ["physical", "2-D", "nz-1 levels", "NaN"])
    def test_bad_u0_rejected_before_any_step(self, ctx, grid, vop, case, monkeypatch):
        setup = forcing_for(grid, vop)
        good = 0.2 * random_field(ctx, np.random.default_rng(50))
        nan = good.copy()
        nan[2, 3, 4] = np.nan
        u0 = {"physical": np.zeros((grid.nz, grid.ny, grid.nx)), "2-D": good[0],
              "nz-1 levels": good[1:], "NaN": nan}[case]
        steps = []
        monkeypatch.setattr(integrator, "step", lambda *a, **k: steps.append(a))
        match = "not finite" if case == "NaN" else r"expected \(nz, ny, nkx\) = \(17, 32, 17\)"
        with pytest.raises(ValueError, match=match):
            simulate(ctx, setup, u0, 0.0, 4 * H, H)
        assert steps == []


# Prints the minor page faults of each step of the second of two equal
# simulate calls, read at the snapshot taken after every step, and the pages
# of one step_arrays set and of a field.
_FAULTS = r"""
import json, resource, sys
from stochqg import cli, config, integrator
rt = cli.build_runtime(config.parse_config(sys.argv[1]))
u0, cfg, marks = cli.initial_field(rt), rt.cfg, []
psi, n0, jac = integrator.step_arrays(rt.ctx)
pages = [sum(a.nbytes for a in (psi, n0, *jac)), u0.nbytes]
del psi, n0, jac
for _ in range(2):
    marks.clear()
    integrator.simulate(rt.ctx, rt.forcing, u0, cfg.t0, cfg.t1, cfg.dt, snapshot_every=1,
                        record_diagnostics=sys.argv[2] == "1",
                        snapshot_sink=lambda t, u: marks.append(
                            resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(json.dumps([[b - a for a, b in zip(marks, marks[1:])],
                  [n / resource.getpagesize() for n in pages]]))
"""


@pytest.mark.parametrize("n, nz, t1, diagnostics", [(32, 17, 1.0, False), (64, 33, 0.5, True)],
                         ids=["32x32x17", "64x64x33-diagnostics"])
def test_steps_reuse_their_pages(n, nz, t1, diagnostics):
    # A step allocates only arrays the size of those it frees, so once a call
    # is under way its steps fault no pages in.  The first step of a call
    # also touches the step arrays the call makes, u_pred and the new u,
    # which the allocator may have handed back to the system since the last
    # call; it may fault in at most those pages.
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    text = f"grid.nx = {n}\ngrid.ny = {n}\ngrid.nz = {nz}\ninit.kind = random\ntime.t1 = {t1}\n"
    out = subprocess.run([sys.executable, "-c", _FAULTS, text, str(int(diagnostics))], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    faults, (work_pages, field_pages) = json.loads(out.stdout)
    assert len(faults) == round(t1 / H)
    assert max(faults[1:]) < 50, faults
    assert faults[0] <= work_pages + 2 * field_pages, (faults, work_pages, field_pages)


def test_array_dataclasses_compare_by_identity(ctx, grid, vop):
    # A field-wise == over array fields raises (the truth value of an array
    # is ambiguous), so each of these compares and hashes by identity.
    setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2)
    flux = next(mode_flux(grid, m) for m in boundary_modes(grid, 8) if m.k == 0)
    res = simulate(ctx, setup, np.zeros((grid.nz, grid.ny, grid.nkx), complex), 0.0, 2 * H, H)
    series = [(0.1 * k, 1.0 + 0.01 * k) for k in range(50)]
    objects = [flux, setup.periodic, setup.model, setup.path,
               init_ou_state(setup.model, setup.path, 0.0), setup, vop.profile, vop, ctx,
               res.final, res, growth_diagnostic(series),
               AttractorEstimate((1,), {1: [res.final.u]}, {1: 0.0}, {}, {1: 1.0},
                                 PullbackConfig(horizons=(1,), ensemble=8))]
    assert len(flux.values) == 2
    for obj in objects:
        assert (obj == copy.copy(obj)) is False and obj == obj, type(obj).__name__
        assert hash(obj) == hash(obj)


class TestBlockInvariance:
    """The level blocks of the Jacobian and the tendency change no bit, on any grid."""

    @staticmethod
    def _blockings(nz):
        return {
            "1-level": tuple(slice(lo, lo + 1) for lo in range(nz)),
            "2-level": tuple(slice(lo, min(lo + 2, nz)) for lo in range(0, nz, 2)),
            "uneven": (slice(0, 1), slice(1, 4), slice(4, nz - 1), slice(nz - 1, nz)),
        }

    @pytest.mark.parametrize("shape", [(16, 48, 9), (48, 16, 9), (32, 32, 17)])
    def test_blocked_runs_match_one_block(self, shape):
        grid = Grid(*shape)
        vop = build_vertical_operator(make_profile(1.0, 1.0, grid.nz), grid.nz)
        ctx = build_context(grid, vop, nu=0.5, beta=1.0)
        assert ctx.blocks == (slice(0, grid.nz),)
        setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2, seed=12)
        rng = np.random.default_rng(49)
        a, b = random_field(ctx, rng), random_field(ctx, rng)
        u0 = 0.2 * random_field(ctx, rng, decay=2.0)
        ref_j = jacobian(ctx, a, b)
        ref = simulate(ctx, setup, u0, 0.0, 4 * H, H)
        assert len(ref.diagnostics) == 4
        for name, blocks in self._blockings(grid.nz).items():
            blocked = dataclasses.replace(ctx, blocks=blocks)
            assert np.array_equal(jacobian(blocked, a, b), ref_j), name
            res = simulate(blocked, setup, u0, 0.0, 4 * H, H)
            assert np.array_equal(res.final.u, ref.final.u), name
            assert res.diagnostics == ref.diagnostics, name

    def test_default_blocks_match_one_pass_at_64(self):
        # 64x64x33 runs its Jacobian in blocks of 8, 8, 8, 8 and 1 levels.
        grid = Grid(64, 64, 33)
        vop = build_vertical_operator(make_profile(1.0, 1.0, grid.nz), grid.nz)
        ctx = build_context(grid, vop, nu=0.5, beta=1.0)
        assert len(ctx.blocks) == 5
        setup = forcing_for(grid, vop, q0=0.05, amp=0.3, phase=0.2, seed=12)
        u0 = 0.2 * random_field(ctx, np.random.default_rng(50), decay=2.0)
        res = simulate(ctx, setup, u0, 0.0, 4 * H, H)
        one = simulate(dataclasses.replace(ctx, blocks=(slice(0, 33),)), setup, u0, 0.0, 4 * H, H)
        assert len(res.diagnostics) == 4
        assert np.array_equal(res.final.u, one.final.u)
        assert res.diagnostics == one.diagnostics


_THREAD_RUN = r"""
import hashlib, sys
from stochqg import cli, config, integrator
rt = cli.build_runtime(config.parse_config(
    "grid.nx = 64\ngrid.ny = 64\ngrid.nz = 33\ninit.kind = random\n"
    "time.t1 = 0.5\nnoise.t_min = -2\nnoise.t_max = 2\n"))
cfg = rt.cfg
res = integrator.simulate(rt.ctx, rt.forcing, cli.initial_field(rt), cfg.t0, cfg.t1, cfg.dt)
assert len(res.diagnostics) == 8
integrator.write_diagnostics_csv(sys.argv[1], res.diagnostics, config_hash=rt.chash)
print(hashlib.sha256(res.final.u.tobytes()).hexdigest())
"""


def test_thread_count_determinism(tmp_path):
    # The same 64x64x33 run under 1 and 2 BLAS/OpenMP threads.
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        csv = tmp_path / f"diag_{threads}.csv"
        out = subprocess.run([sys.executable, "-c", _THREAD_RUN, str(csv)], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        digests.append((out.stdout.strip(), hashlib.sha256(csv.read_bytes()).hexdigest()))
    assert digests[0] == digests[1]


class TestEnergyBudget:
    def test_zero_state(self, ctx, grid, vop):
        setup = forcing_for(grid, vop)
        z = np.zeros((grid.nz, grid.ny, grid.nkx), complex)
        s0 = initial_state(Run(ctx, setup, H), z, 0.0)
        s1 = step(s0)
        assert energy_budget(ctx, s0, s1, z, z) == 0.0

    def test_accumulated_residual_second_order(self, ctx, grid, vop):
        # Linear-only runs over a fixed window: the summed residual is O(dt^2).
        setup = forcing_for(grid, vop, amp=0.5, phase=0.1)
        u0 = 0.3 * unit_eigenmode(ctx, 1, 1, 2)
        totals = []
        dts = [H, H / 2, H / 4]
        for dt in dts:
            res = simulate(ctx, setup, u0, 0.0, 2.0, dt, linear_only=True)
            totals.append(abs(sum(d.residual for d in res.diagnostics)))
        slopes = [np.log2(totals[i] / totals[i + 1]) for i in range(len(totals) - 1)]
        assert all(abs(s - 2.0) < 0.2 for s in slopes), (totals, slopes)

    def test_neutral_terms_do_not_move_energy(self, ctx, grid, vop):
        # At fixed u, the B + C and D contributions pair to zero with u, so
        # toggling them does not change the instantaneous budget.
        rng = np.random.default_rng(42)
        u = random_field(ctx, rng)
        setup = forcing_for(grid, vop, q0=0.05, amp=0.4, seed=9)
        lift = setup_lift(setup, init_ou_state(setup.model, setup.path, 0.0), step_index=0, dt=H)
        from stochqg.operators import apply_G
        psi = apply_G(ctx, u) + lift
        scale = max(norm_h(ctx, u), 1.0) ** 2 * max(norms(ctx, psi).v, 1.0)
        assert abs(inner_h(ctx, jacobian(ctx, psi, u), u)) < 1e-10 * scale
        assert abs(inner_h(ctx, apply_D(ctx, u), u)) < 1e-10 * scale


class TestXiStep:
    def test_pure_decay(self, ctx, grid):
        z = np.zeros((grid.nz, grid.ny, grid.nkx), complex)
        out = xi_step(2.0, z, 0.5, ctx)
        assert out == pytest.approx(2.0 * np.exp(-ctx.nu * ctx.lambda1 * 0.5), rel=1e-14)

    def test_constant_source_fixed_point(self, ctx, grid, vop):
        lift = solve_lift(grid, vop, mode_flux(grid, boundary_modes(grid, 4)[2]))
        from stochqg.operators import deriv_x
        c = norms(ctx, deriv_x(ctx, lift)).vdual ** 2
        xi_star = ctx.beta ** 2 * c / (ctx.nu ** 2 * ctx.lambda1)
        out = xi_step(xi_star, lift, 0.25, ctx)
        assert out == pytest.approx(xi_star, rel=1e-12)

    def test_rejects_negative(self, ctx, grid):
        z = np.zeros((grid.nz, grid.ny, grid.nkx), complex)
        with pytest.raises(ValueError):
            xi_step(-1.0, z, 0.1, ctx)

    def test_bounds_energy_along_runs(self, ctx, grid, vop):
        for q0, amp, seed in [(0.0, 0.5, 1), (0.05, 0.0, 2), (0.03, 0.3, 3)]:
            setup = forcing_for(grid, vop, q0=q0, amp=amp, phase=0.15, seed=seed)
            rng = np.random.default_rng(seed)
            u0 = 0.2 * random_field(ctx, rng, decay=2.0)
            res = simulate(ctx, setup, u0, 0.0, 4.0, H)
            for d in res.diagnostics:
                assert d.h ** 2 <= d.xi * (1 + 1e-6) + 1e-10


class TestReconstruction:
    def test_eigenmode_psi(self, ctx, grid):
        u = unit_eigenmode(ctx, 2, 1, 1)
        lam = eigenvalue_of(ctx, 2, 1, 1)
        z = np.zeros_like(u)
        psi_hat, _, _ = reconstruct_streamfunction(ctx, u, z)
        assert np.max(np.abs(psi_hat + u / lam)) < 1e-12

    def test_inverse_consistency(self, ctx, grid, vop):
        rng = np.random.default_rng(43)
        u = random_field(ctx, rng)
        flux = mode_flux(grid, boundary_modes(grid, 4)[2])
        lift = solve_lift(grid, vop, flux)
        psi_hat, _, _ = reconstruct_streamfunction(ctx, u, lift)
        u_rec = -apply_A(ctx, psi_hat)
        # Interior levels recover u; the two boundary levels carry the lift's
        # Neumann data (the known variational injection F_top * flux / w_top).
        diff = u_rec - u
        assert np.max(np.abs(diff[1:-1])) < 1e-10 * np.max(np.abs(u))
        inj = vop.f_top * dense_coef(flux) / vop.weights[-1]
        assert np.max(np.abs(diff[-1] + inj)) < 1e-10 * np.max(np.abs(inj))
        assert np.max(np.abs(diff[0])) < 1e-10 * np.max(np.abs(u))

    def test_pv_reduces_to_u(self, grid, vop):
        # beta = 0 and f0 = 0 is outside the profile contract (f0 != 0), so
        # check the identity PV - f0 - beta*y = u instead.
        ctx = build_context(grid, vop, nu=0.5, beta=1.5)
        rng = np.random.default_rng(44)
        u = random_field(ctx, rng)
        z = np.zeros_like(u)
        _, _, pv = reconstruct_streamfunction(ctx, u, z)
        uphys = inverse_transform(grid, u)
        expect = uphys + ctx.vop.profile.f0 + ctx.beta * grid.y[None, :, None]
        assert np.max(np.abs(pv - expect)) < 1e-12


class TestGronwallSeparation:
    def test_empirical_constant_stable(self, ctx, grid, vop):
        # log(||u1-u2||^2(t) / ||d0||^2) <= c * int ||u1||_V^2: report the
        # empirical c and check it is finite and stable under dt refinement.
        setup = forcing_for(grid, vop, q0=0.02, amp=0.3, phase=0.1)
        rng = np.random.default_rng(45)
        x1 = 0.3 * random_field(ctx, rng, decay=2.0)
        x2 = x1 + 0.01 * random_field(ctx, rng, decay=2.0)
        chats = []
        for dt in (H, H / 2):
            r1 = simulate(ctx, setup, x1, 0.0, 2.0, dt)
            r2 = simulate(ctx, setup, x2, 0.0, 2.0, dt, record_diagnostics=False)
            d0 = norm_h(ctx, x1 - x2) ** 2
            acc_v = 0.0
            worst = 0.0
            for (ta, ua), (tb, ub), diag in zip(r1.snapshots[1:], r2.snapshots[1:],
                                                r1.diagnostics):
                acc_v += diag.v ** 2 * dt
                growth = np.log(norm_h(ctx, ua - ub) ** 2 / d0)
                if growth > 0:
                    worst = max(worst, growth / acc_v)
            chats.append(worst)
        print(f"empirical Gronwall constants by dt: {chats}")
        assert all(np.isfinite(c) for c in chats)
        assert chats[1] <= 10.0 * (chats[0] + 1e-6)


class TestSnapshotIO:
    def test_round_trip_bitexact(self, ctx, grid, tmp_path):
        rng = np.random.default_rng(46)
        u = random_field(ctx, rng)
        f = tmp_path / "snap.bin"
        save_snapshot(f, grid, u, t=1.25, n=20, dt=H, config_hash="deadbeef")
        v, meta = load_snapshot(f)
        assert np.array_equal(u, v)
        assert meta["t"] == 1.25 and meta["n"] == 20 and meta["nx"] == grid.nx
        assert meta["config_hash"] == "deadbeef"
        f2 = tmp_path / "snap2.bin"
        save_snapshot(f2, grid, v, t=meta["t"], n=meta["n"], dt=meta["dt"],
                      config_hash=meta["config_hash"], code_version=meta["code_version"])
        assert f.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: raw[:50], "header has 50 bytes, expected 84"),
        (lambda raw: raw[:-16], "payload has 147952 bytes, expected 147968"),
        (lambda raw: raw + bytes(16), "payload has 147984 bytes, expected 147968"),
    ], ids=["truncated-header", "truncated-payload", "padded-payload"])
    def test_wrong_size_rejected(self, ctx, grid, tmp_path, edit, match):
        f = tmp_path / "snap.bin"
        save_snapshot(f, grid, random_field(ctx, np.random.default_rng(47)), t=0.0, n=0, dt=H)
        f.write_bytes(edit(f.read_bytes()))  # payload: 32 * 17 * 17 * 16 bytes
        with pytest.raises(ValueError, match=match) as err:
            load_snapshot(f)
        assert str(f) in str(err.value)

    def test_diagnostics_csv(self, ctx, grid, vop, tmp_path):
        setup = forcing_for(grid, vop, amp=0.2)
        u0 = 0.1 * unit_eigenmode(ctx, 0, 1, 0)
        res = simulate(ctx, setup, u0, 0.0, 0.5, H)
        f = tmp_path / "diag.csv"
        write_diagnostics_csv(f, res.diagnostics, config_hash="cafe")
        lines = f.read_text().splitlines()
        assert lines[0].startswith("# config=cafe version=")
        assert lines[1] == "t,H,V,Vdual_liftx,xi,residual,dt"
        assert len(lines) == 2 + len(res.diagnostics)
