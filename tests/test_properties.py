"""Invariants of short runs over random admissible parameters.

Every draw has an interior equilibrium, a perturbation that keeps the
initial data positive, diffusion coefficients at most half the explicit-Euler
bound dx^2/(2 dt) and reaction rates with dt times the largest rate at most
about 0.5, so the exact dynamics and the Euler step both stay positive.
On such a run the delay stays in [0, h] at every row, no field goes below
zero, a run that starts inside the invariant box (when f has a linear bound)
never leaves it, and every valid monitor sample has U >= 0 and the
seven-logarithm rewrite of the cross-term within rounding of its algebraic
form.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from sddlab import (
    Grid1D,
    IncidenceFn,
    ModelParams,
    SolverConfig,
    constant_delay,
    equilibrium_norm,
    find_equilibria,
    integral_delay,
    monitor,
    run,
    state_mean_reducer,
)
from sddlab.solver import InitialData

DT = 0.01


@st.composite
def admissible_runs(draw):
    kind = draw(st.sampled_from(["bilinear", "saturated", "beddington_deangelis", "crowley_martin"]))
    k = draw(st.floats(0.02, 0.3))
    k1 = draw(st.floats(0.01, 0.5)) if kind in ("beddington_deangelis", "crowley_martin") else 0.0
    k2 = draw(st.floats(0.01, 0.5)) if kind != "bilinear" else 0.0
    f = IncidenceFn(kind, k=k, k1=k1, k2=k2)
    nx = draw(st.integers(3, 11))
    grid = Grid1D(0.0, 1.0, nx)
    euler = grid.dx**2 / (2.0 * DT)
    diff = tuple(draw(st.floats(0.0, 0.5)) * euler for _ in range(3))
    h = draw(st.floats(0.2, 1.0))
    params = ModelParams(
        lam=draw(st.floats(1.0, 20.0)),
        d=draw(st.floats(0.05, 0.5)),
        delta=draw(st.floats(0.2, 1.0)),
        burst_n=draw(st.floats(5.0, 20.0)),
        c=draw(st.floats(1.0, 10.0)),
        omega=draw(st.floats(0.0, 0.5)),
        h_max=h,
        diff=diff,
    )
    interior = [e for e in find_equilibria(params, f) if e.kind == "interior" and not e.degenerate]
    assume(interior)
    eq = interior[0]
    # the infection rate near the equilibrium must keep the Euler step positive
    assume(DT * (params.d + k * (1.0 + 1.5 * eq.V_hat)) <= 0.5)
    if draw(st.booleans()):
        df = constant_delay(h, draw(st.floats(0.0, 1.0)) * h)
    else:
        df = integral_delay(h, state_mean_reducer(grid, "V", draw(st.floats(0.0, 1.5)) / eq.V_hat))
    weights = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    assume(np.linalg.norm(weights) > 0.1)
    # each component moves by at most eps, half its equilibrium value
    eps = draw(st.floats(0.0, 0.5)) * min(eq.T_hat, eq.T_star_hat, eq.V_hat)
    initial = InitialData(
        preset="equilibrium_perturbation",
        epsilon=eps,
        direction=draw(st.sampled_from(["constant", "gaussian_bump"])),
        weights=tuple(weights / np.linalg.norm(weights)),
        bump_center=0.5,
        bump_width=0.15,
        equilibrium=eq,
    )
    cfg = SolverConfig(dt=DT, t_end=draw(st.floats(2.0 * h + 0.1, 4.0)))
    return params, f, df, cfg, grid, initial, eq


@given(case=admissible_runs())
def test_short_run_invariants(case):
    params, f, df, cfg, grid, initial, eq = case
    assert equilibrium_norm(eq) > 0.0
    traj = run(initial, params, f, df, cfg, grid)
    assert not traj.aborted
    assert np.all((traj.eta >= 0.0) & (traj.eta <= params.h_max))
    assert not np.any(traj.lower_violations)
    assert np.all(traj.fields >= 0.0)
    if traj.bounds is not None:
        assert np.all(traj.fields[0] <= np.array(traj.bounds)[:, None])
        assert not np.any(traj.upper_violations)
    samples = monitor(traj, eq, params, f, grid, stride=5)
    assert len(samples)
    for s in samples:
        if s.valid:
            assert s.U >= 0.0
            assert s.c1_abs_dev <= 1e-9 * s.c1_scale + 1e-14
