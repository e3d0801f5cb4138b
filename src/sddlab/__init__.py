"""Numerical lab for a reaction-diffusion virus-dynamics model with
intracellular state-dependent delay: simulation, equilibria, hypothesis
checks on the incidence function, and empirical Lyapunov stability
certification."""

from .equilibria import (
    Equilibrium,
    assemble_equilibrium,
    equilibrium_norm,
    find_equilibria,
    find_interior_roots,
    h_f,
    s_max,
    trivial_equilibrium,
)
from .grid import Grid1D, integrate, laplacian_neumann, mean_value
from .history import (
    DelayFunctional,
    HistorySegment,
    constant_delay,
    delayed_state,
    evaluate_eta,
    integral_delay,
    state_mean_reducer,
    wrapped_delay,
)
from .lyapunov import (
    LyapunovSample,
    StabilityVerdict,
    certify_local_stability,
    distance_to_equilibrium,
    monitor,
    rate_decomposition,
    u_sdd_total,
)
from .model import (
    HypothesisReport,
    IncidenceFn,
    ModelParams,
    Verdict,
    check_all,
    check_hf1,
    check_hf1_plus,
    check_hf3,
    check_hf4,
    default_sample_box,
    incidence_mu,
)
from .solver import (
    InitialData,
    ParamJump,
    RunStream,
    SolverConfig,
    Trajectory,
    build_initial_segment,
    compatibility_residual,
    omega_lip_bounds,
    rhs,
    run,
    step,
)

__version__ = "0.1.0"
