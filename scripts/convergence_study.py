#!/usr/bin/env python3
"""Self-convergence study of the explicit Euler solver under time-step halving.

Richardson ratios near 2 indicate first order.  More stages alone would
not raise it: with the delayed field read once per step from a linearly
interpolated history, that lookup is a first-order truncation term too.

Usage: python scripts/convergence_study.py [--dts 0.05 0.025 0.0125 0.00625]
"""

import argparse

import numpy as np

from sddlab import (
    Grid1D,
    IncidenceFn,
    ModelParams,
    SolverConfig,
    constant_delay,
    equilibrium_norm,
    find_equilibria,
    run,
)
from sddlab.solver import InitialData


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dts", nargs="+", type=float, default=[0.05, 0.025, 0.0125, 0.00625])
    ap.add_argument("--t-end", type=float, default=5.0)
    ap.add_argument("--lag", type=float, default=0.4)
    args = ap.parse_args()

    params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=1.0)
    f = IncidenceFn("saturated", k=0.1, k2=0.1)
    grid = Grid1D(0.0, 1.0, 3)
    eq = find_equilibria(params, f)[1]
    initial = InitialData(
        preset="equilibrium_perturbation",
        epsilon=0.05 * equilibrium_norm(eq),
        equilibrium=eq,
    )
    df = constant_delay(params.h_max, args.lag)

    cfgs = [SolverConfig(dt=dt, t_end=args.t_end) for dt in args.dts]
    finals = [run(initial, params, f, df, cfg, grid).fields[-1, :, 0] for cfg in cfgs]
    print(f"explicit Euler, constant lag {args.lag}:")
    print(f"{'dt':>10} {'|u(dt) - u(dt/2)|':>20} {'ratio':>8}")
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
    for i, (dt, d) in enumerate(zip(args.dts, diffs)):
        ratio = f"{diffs[i - 1] / d:8.2f}" if i > 0 else "       -"
        print(f"{dt:>10.5f} {d:>20.6e} {ratio}")


if __name__ == "__main__":
    main()
