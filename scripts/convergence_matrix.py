#!/usr/bin/env python3
"""Convergence of the explicit Euler solver in the paper's setting, in dt and in dx.

The first table gives Richardson ratios under time-step halving at nx = 3
to t_end = 5 over dt = 0.04 ... 0.0025, one row per case: a constant lag on
and off the dt grid, a linear-ramp history, a burst_n jump off the grid,
the integral lag and the wrapped lag (recency kappa, smooth rho).  Ratios
near 2 indicate first order.  Each row also gives the history's
compatibility residual, which a ramp leaves large while the order holds:
Lipschitz data suffice.

The second gives the order in dx with diffusion: a Gaussian bump at
nx = 11, 21, 41 and 81 and dt = 0.01 to t_end = 2, each run compared with
the next on the nodes they share.  Ratios near 4 indicate second order;
they read the same at dt = 0.0025, so the time error does not show.

Usage: python scripts/convergence_matrix.py
"""

from dataclasses import replace

import numpy as np

from sddlab import (
    Grid1D,
    IncidenceFn,
    ModelParams,
    SolverConfig,
    constant_delay,
    equilibrium_norm,
    find_equilibria,
    integral_delay,
    run,
    state_mean_reducer,
    wrapped_delay,
)
from sddlab.history import smooth_clamp
from sddlab.solver import InitialData, ParamJump

DTS = (0.04, 0.02, 0.01, 0.005, 0.0025)
NXS = (11, 21, 41, 81)


def dt_table(params: ModelParams, f: IncidenceFn, initial: InitialData, t_end: float = 5.0) -> None:
    grid = Grid1D(0.0, 1.0, 3)
    xi = state_mean_reducer(grid, "V", 0.0232)  # eta near 0.4 at the equilibrium
    wrapped = wrapped_delay(1.0, xi, kappa=lambda th: 2.0 * (1.0 + th), rho=smooth_clamp(1.0))
    ramp, jump = replace(initial, profile="linear_ramp"), [ParamJump(2.013, "burst_n", 5.0)]
    cases = [
        ("constant lag 0.4", constant_delay(1.0, 0.4), initial, []),
        ("constant lag 0.41", constant_delay(1.0, 0.41), initial, []),
        ("constant lag, linear_ramp", constant_delay(1.0, 0.4), ramp, []),
        ("constant lag, jump", constant_delay(1.0, 0.4), initial, jump),
        ("integral lag", integral_delay(1.0, xi), initial, []),
        ("wrapped lag", wrapped, initial, []),
        ("wrapped lag, linear_ramp", wrapped, ramp, []),
        ("wrapped lag, jump", wrapped, initial, jump),
    ]
    print(f"explicit Euler at nx = 3, t_end = {t_end:g}, dt = {' '.join(f'{dt:g}' for dt in DTS)}:")
    print(f"{'case':<26} {'ratios':<20} {'compat_residual':>15}")
    for name, df, init, schedule in cases:
        trajs = [run(init, params, f, df, SolverConfig(dt=dt, t_end=t_end), grid, schedule) for dt in DTS]
        diffs = [float(np.max(np.abs(a.fields[-1] - b.fields[-1]))) for a, b in zip(trajs, trajs[1:])]
        ratios = " ".join(f"{a / b:6.2f}" for a, b in zip(diffs, diffs[1:]))
        print(f"{name:<26} {ratios:<20} {trajs[0].compat_residual:>15.3g}")


def dx_table(params: ModelParams, f: IncidenceFn, initial: InitialData, dt: float = 0.01, t_end: float = 2.0) -> None:
    params = replace(params, diff=(1e-3, 1e-3, 2e-3))
    bump = replace(initial, direction="gaussian_bump", weights=(0.6, -0.2, 0.77))  # a constant one has no dx error
    cfg = SolverConfig(dt=dt, t_end=t_end)
    finals = [run(bump, params, f, constant_delay(1.0, 0.4), cfg, Grid1D(0.0, 1.0, nx)).fields[-1] for nx in NXS]
    diffs = [float(np.max(np.abs(a - b[:, ::2]))) for a, b in zip(finals, finals[1:])]  # node i of nx is 2i of 2nx-1
    print(f"explicit Euler with diffusion, gaussian_bump, dt = {dt:g}, t_end = {t_end:g}:")
    print(f"{'nx':>10} {'|u(nx) - u(2nx-1)|':>20} {'ratio':>8}")
    for i, (nx, d) in enumerate(zip(NXS, diffs)):
        ratio = f"{diffs[i - 1] / d:8.2f}" if i > 0 else "       -"
        print(f"{nx:>10} {d:>20.6e} {ratio}")


def main() -> None:
    params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=1.0)
    f = IncidenceFn("saturated", k=0.1, k2=0.1)
    eq = find_equilibria(params, f)[1]
    initial = InitialData(preset="equilibrium_perturbation", epsilon=0.05 * equilibrium_norm(eq), equilibrium=eq)
    dt_table(params, f, initial)
    print()
    dx_table(params, f, initial)


if __name__ == "__main__":
    main()
