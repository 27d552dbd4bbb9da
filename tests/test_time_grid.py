"""One time-grid rule: every time-to-step conversion goes through ``grid_steps``."""

from types import SimpleNamespace

import numpy as np
import pytest

from stochqg.attractor import (
    AttractorEstimate,
    PullbackConfig,
    cocycle_check,
    estimate_xi_star,
    flow_estimate,
    pullback_window,
)
from stochqg.config import parse_config
from stochqg.forcing import (
    _HEADER,
    _MAGIC,
    PeriodicFlux,
    advance_ou,
    build_forcing,
    extend_noise_path,
    grid_steps,
    init_ou_state,
    load_noise_path,
    make_noise_model,
    make_noise_path,
    shift_path,
    steps_per_noise,
    temperedness_series,
)
from stochqg.integrator import Run, initial_state, simulate
from stochqg.lift import BoundaryFlux
from stochqg.operators import build_context
from stochqg.spectral import Grid, build_vertical_operator, make_profile

DT = 0.125  # step and noise grid of the small setup below


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    grid = Grid(8, 8, 5)
    vop = build_vertical_operator(make_profile(1.0, 1.0, grid.nz), grid.nz)
    ctx = build_context(grid, vop, nu=2.0, beta=1.0)
    model = make_noise_model(grid, 2, q0=0.05, p=3.0, tau_c=0.5)
    path = make_noise_path(3, 2, DT, -32.0, 8.0)
    periodic = PeriodicFlux(BoundaryFlux.from_dense(np.zeros((grid.ny, grid.nkx))))
    forcing = build_forcing(grid, vop, model, periodic, path)
    zero = np.zeros((grid.nz, grid.ny, grid.nkx), dtype=complex)
    estimate = AttractorEstimate(horizons=(1,), endpoints={1: [zero]}, diameters={},
                                 hausdorff_prev={}, xi_star={}, config=None)
    return SimpleNamespace(ctx=ctx, model=model, path=path, forcing=forcing, zero=zero,
                           estimate=estimate, tmp=tmp_path_factory.mktemp("grid"))


def _load_with_t_min(env, t):
    fname = env.tmp / "noise.bin"
    header = _HEADER.pack(_MAGIC, 1, 3, 2, DT, t, t + 1.0)
    fname.write_bytes(header + bytes(2 * 8 * 8))  # 2 modes x 8 steps
    return load_noise_path(fname).i0_abs


def _steps_per_noise_from_config(env, t):
    cfg = parse_config(f"time.dt = {DT / 4!r}\nnoise.dt_noise = {t!r}\n")
    return steps_per_noise(cfg.dt, cfg.dt_noise)


# site -> (conversion of t, a gridpoint, its value, an off-grid t, the name in the error).
# The off-grid values of the noise-file extension and header, the pullback horizon and the
# record spacing (0.3 at dt 0.125, once 13 records spaced 0.25) were rounded silently.
SITES = {
    "NoisePath.abs_step": (lambda e, t: e.path.abs_step(t), 1.5, 12, 1.55, "noise-grid time"),
    "shift_path": (lambda e, t: shift_path(e.path, t).local_shift, 1.5, 12, 1.55, "shift s"),
    "advance_ou": (lambda e, t: advance_ou(init_ou_state(e.model, e.path, 0.0), t,
                                           e.path, e.model).j, 0.25, 2, 0.3, "OU update span"),
    "make_noise_path": (lambda e, t: make_noise_path(1, 2, DT, t, 4.0).i0_abs,
                        -1.5, -12, -1.55, "t_min"),
    "extend_noise_path": (lambda e, t: extend_noise_path(e.path, t, 8.0).i0_abs,
                          -40.5, -324, -40.55, "t_min"),
    "load_noise_path": (_load_with_t_min, -8.0, -64, -8.03, "header t_min"),
    "steps_per_noise": (lambda e, t: steps_per_noise(DT / 4, t), DT, 4, 0.14, "must divide"),
    "validate_config": (_steps_per_noise_from_config, DT, 4, 0.14,
                        "time.dt, noise.dt_noise: dt must divide"),
    "initial_state": (lambda e, t: initial_state(Run(e.ctx, e.forcing, DT), e.zero, t).n,
                      1.5, 12, 1.55, "t0"),
    "simulate": (lambda e, t: simulate(e.ctx, e.forcing, e.zero, 0.0, t, DT,
                                       record_diagnostics=False).final.n, 0.5, 4, 0.55, "t1"),
    "estimate_xi_star": (lambda e, t: estimate_xi_star(e.ctx, e.forcing, at=t, dt=DT,
                                                       quad_horizon=24.0).value,
                         1.0, None, 1.05, "quadrature endpoint"),
    "pullback_window": (lambda e, t: pullback_window(PullbackConfig(horizons=(t,), ensemble=8),
                                                     e.ctx, DT, DT)[0], 2.0, -44.125, 2.1,
                        "horizon"),
    "cocycle_check": (lambda e, t: cocycle_check(e.ctx, e.forcing, t, 0.25, e.zero, DT),
                      0.5, 0.0, 0.55, "s"),
    "flow_estimate t_end": (lambda e, t: len(flow_estimate(e.ctx, e.forcing, e.estimate, DT,
                                                           t_end=t, record_every=0.5)),
                            2.0, 5, 2.1, "t_end"),
    "flow_estimate record_every": (lambda e, t: len(flow_estimate(e.ctx, e.forcing, e.estimate,
                                                                  DT, t_end=3.0, record_every=t)),
                                   0.25, 13, 0.3, "record_every"),
    "temperedness_series": (lambda e, t: len(temperedness_series(e.ctx, e.forcing, 4.0,
                                                                 sample_dt=t)[0]),
                            0.5, 8, 0.55, "sample_dt"),
    "temperedness_series horizon": (lambda e, t: len(temperedness_series(e.ctx, e.forcing, t,
                                                                         sample_dt=0.5)[0]),
                                    4.0, 8, 4.3, "horizon"),
}


@pytest.mark.parametrize("site", SITES)
def test_off_grid_time_is_rejected_by_name(env, site):
    convert, _, _, t_off, what = SITES[site]
    with pytest.raises(ValueError, match=what):
        convert(env, t_off)


@pytest.mark.parametrize("site", SITES)
def test_near_grid_time_takes_the_gridpoint(env, site):
    convert, t_on, expect, _, _ = SITES[site]
    exact = convert(env, t_on)
    if expect is not None:
        assert exact == expect
    for sign in (1.0, -1.0):
        assert convert(env, t_on + sign * 1e-10 * max(1.0, abs(t_on))) == exact


class TestGridSteps:
    def test_index_and_tolerance(self):
        assert grid_steps(-2.5, 0.125, "t") == -20
        assert grid_steps(0.0, 0.125, "t") == 0
        assert grid_steps(1e6 + 1e-4, 0.125, "t") == 8_000_000  # relative to |t|
        with pytest.raises(ValueError, match="t: 0.0625 is not a multiple"):
            grid_steps(0.0625, 0.125, "t")
        with pytest.raises(ValueError):
            grid_steps(1e-8, 0.125, "t")  # absolute below 1

    @pytest.mark.parametrize("t, h", [(np.inf, 0.125), (-np.inf, 0.125), (np.nan, 0.125),
                                      (1.0, 0.0), (1.0, -0.125), (1.0, np.inf), (1.0, np.nan),
                                      (1e300, 1e-300)])
    def test_rejects_non_finite_and_non_positive(self, t, h):
        with pytest.raises(ValueError, match="^quantity: "):
            grid_steps(t, h, "quantity")


class TestEdgeValues:
    """Inputs that raised other exceptions, or were silently rounded, before the common rule."""

    def test_simulate_rejects_zero_dt(self, env):
        with pytest.raises(ValueError, match="grid step 0.0 must be positive"):
            simulate(env.ctx, env.forcing, env.zero, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("dt_noise, t_min, match", [
        (0.0, -1.0, "grid step 0.0 must be positive"),
        (0.0625, -8.03, "-8.03 is not a multiple"),
        (0.0625, 1.0, "header t_max must exceed t_min"),
        (0.0625, 0.0, "header t_max must exceed t_min"),
    ])
    def test_noise_header_off_grid_names_the_file(self, tmp_path, dt_noise, t_min, match):
        fname = tmp_path / "noise.bin"
        fname.write_bytes(_HEADER.pack(_MAGIC, 1, 3, 2, dt_noise, t_min, 0.0) + bytes(256))
        with pytest.raises(ValueError, match=match) as err:
            load_noise_path(fname)
        assert str(fname) in str(err.value)

    def test_xi_star_endpoint_in_last_noise_cell(self, env):
        # The lift holds the OU state of t_max over the noise cell after it, so an
        # endpoint inside that cell is covered, as a simulate run to it is.
        dt = DT / 2
        at = env.path.t_max + dt
        estimate_xi_star(env.ctx, env.forcing, at=at, dt=dt, quad_horizon=24.0)
        simulate(env.ctx, env.forcing, env.zero, at - 1.0, at, dt, record_diagnostics=False)
        with pytest.raises(ValueError, match="outside path range"):
            estimate_xi_star(env.ctx, env.forcing, at=at + dt, dt=dt, quad_horizon=24.0)
