"""Pseudo-spectral simulator for the stochastically forced 3D baroclinic
quasigeostrophic equation, with a pullback/random-attractor toolkit."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Grid,
    StratificationProfile,
    VerticalOperator,
    build_vertical_operator,
    compute_lambda1,
    forward_transform,
    inverse_transform,
    make_profile,
)
from .operators import (  # noqa: F401
    OperatorContext,
    apply_A,
    apply_B,
    apply_C,
    apply_D,
    apply_G,
    build_context,
    forcing_f,
    inner_h,
    jacobian,
    norm_h,
    norms,
)
from .lift import (  # noqa: F401
    BoundaryFlux,
    boundary_modes,
    precompute_mode_lifts,
    solve_lift,
)
from .forcing import (  # noqa: F401
    NoiseModel,
    NoisePath,
    OUBoundaryState,
    PeriodicFlux,
    advance_ou,
    build_forcing,
    init_ou_state,
    load_noise_path,
    make_noise_model,
    make_noise_path,
    save_noise_path,
    shift_path,
)
from .integrator import (  # noqa: F401
    Run,
    SimState,
    energy_budget,
    reconstruct_streamfunction,
    simulate,
    step,
    xi_step,
)
from .attractor import (  # noqa: F401
    AttractorEstimate,
    PullbackConfig,
    absorbing_ball,
    cocycle_check,
    estimate_xi_star,
    growth_diagnostic,
    invariance_check,
    pullback_run,
)
