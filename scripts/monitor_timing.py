#!/usr/bin/env python3
"""Time one block of the Lyapunov monitor at the two ``certify`` shapes of the benchmark.

For each shape this prints the min-of-N microseconds of one block of 16
samples for every member, through ``u_sdd_total`` (of the block's samples
and their neighbours, as ``rate_decomposition`` calls it),
``rate_decomposition`` and ``monitor``, and the minor page faults of this
process (``ru_minflt``) over the shape's first blocks, taken before any
timing:

  (2,101)  certify-constant: 2 members, nx = 101, constant lag, stride 10
  (6,41)   certify-integral: 6 members, nx = 41, integral lag, stride 5

The params, incidence, delay, grid, stride and members (eps fractions times
directions, about the interior equilibrium) are those the shipped configs
give ``certify``; one stream runs just long enough for one block past the
warmup.  Every call reuses one monitor plan, as ``certify``'s stream does,
where the monitor has one.  Times vary with the machine and its load;
compare tables made in one session.

Usage: PYTHONPATH=src python scripts/monitor_timing.py [--repeat 15] [--number 20] [--blocks 8]
"""

import argparse
import math
import resource
import timeit
from dataclasses import replace
from pathlib import Path

import numpy as np

from sddlab import equilibrium_norm, find_equilibria, lyapunov
from sddlab.config import load_config
from sddlab.solver import InitialData, RunStream, Trajectory

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# label -> (config, members, nx)
SHAPES = {
    "(2,101)": ("saturated_constant_delay.ini", 2, 101),
    "(6,41)": ("saturated_integral_delay.ini", 6, 41),
}
COLUMNS = ("u_sdd_total", "rate_decomposition", "monitor", "faults")


def one_block(config: str, members: int, nx: int):
    """A trajectory of certify's members with exactly one monitor block, its
    block's samples ks and the arguments ``monitor`` takes after it."""
    cfg = load_config(CONFIGS / config)
    eq = next(e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior")
    norm, out = equilibrium_norm(eq), cfg.output
    initial = [
        InitialData(preset="equilibrium_perturbation", equilibrium=eq, epsilon=frac * norm, direction=name)
        for frac in out.eps_fractions
        for name in out.directions
    ]
    assert (len(initial), cfg.grid.nx) == (members, nx), config
    h, dt, stride = cfg.params.h_max, cfg.solver.dt, out.monitor_stride
    solver_cfg = replace(cfg.solver, t_end=2.0 * h + (lyapunov.MONITOR_BLOCK * stride + 5) * dt)
    stream = RunStream(initial, cfg.params, cfg.incidence, cfg.delay, solver_cfg, cfg.grid)
    seg = stream.history
    seg.reserve(math.ceil(solver_cfg.t_end / dt) + 2)
    origin = seg.view(len(seg) - 1, len(seg))  # pins the store under the trajectory's rows
    etas = np.array([sample.eta for sample in stream])
    times = origin.view(0, len(etas)).times
    # monitor's first sample; then 16 samples stride apart and the neighbour after the last
    earliest = int(np.searchsorted(times, times[0] + h + dt * (1.0 - 1e-9))) + 1
    start = max(int(np.searchsorted(times, times[0] + 2.0 * h)), earliest)
    n = start + (lyapunov.MONITOR_BLOCK - 1) * stride + 2
    traj = Trajectory(origin.view(0, n), etas[:n])
    ks = np.arange(start, n - 1, stride)
    return traj, ks, (eq, cfg.params, cfg.incidence, cfg.grid), stride


def row(config: str, members: int, nx: int, repeat: int, number: int, blocks: int) -> list[float]:
    traj, ks, args, stride = one_block(config, members, nx)
    ms = np.array(sorted(set(np.concatenate((ks - 1, ks, ks + 1)).tolist())))
    plan = (lyapunov._MonitorPlan(),) if hasattr(lyapunov, "_MonitorPlan") else ()
    with np.errstate(all="ignore"):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(blocks):
            got = lyapunov.monitor(traj, *args, stride, None, *plan)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        assert len(got) == members * lyapunov.MONITOR_BLOCK, len(got)
        calls = [
            lambda: lyapunov.u_sdd_total(traj, ms, *args, *plan),
            lambda: lyapunov.rate_decomposition(traj, ks, *args, *plan),
            lambda: lyapunov.monitor(traj, *args, stride, None, *plan),
        ]
        return [min(timeit.Timer(fn).repeat(repeat, number)) / number * 1e6 for fn in calls] + [faults]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=15, help="timings per call; the minimum is printed")
    ap.add_argument("--number", type=int, default=20, help="calls per timing")
    ap.add_argument("--blocks", type=int, default=8, help="first blocks whose minor page faults are counted")
    args = ap.parse_args()

    print(f"min-of-N microseconds per block; minor page faults over the first {args.blocks} blocks")
    print(f"{'shape':<10}" + "".join(f"{c:>20}" for c in COLUMNS))
    for label, shape in SHAPES.items():
        *times, faults = row(*shape, args.repeat, args.number, args.blocks)
        print(f"{label:<10}" + "".join(f"{t:>20.1f}" for t in times) + f"{faults:>20d}")


if __name__ == "__main__":
    main()
