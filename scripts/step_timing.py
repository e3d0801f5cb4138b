#!/usr/bin/env python3
"""Time the Euler step's layers at the row shapes of the three benchmark workloads.

For each shape this prints the min-of-N microseconds of one call of ``rhs``,
of the Laplacian and of f(T, V) as the step runs them, of ``delayed_state``,
of one step of a drained ``RunStream``, of formatting one trajectory.csv
line of the shape's first row at the default five probes (``csv_line``, the
work ``simulate`` hands to its writer process), and the rows its history
store holds room for once drained (``store_rows``, its capacity):

  (2,3,101)  certify-constant: 2 members, constant lag (one float)
  (6,3,41)   certify-integral: 6 members, integral lag (one per member)
  (3,1001)   simulate-wide: no member axis, constant lag

The parameters, incidence and delay are those of the shipped saturated
configs; the rows start at their interior equilibrium, perturbed.  ``rhs``,
the Laplacian and f(T, V) are timed as the stream's step calls them: through
a step plan where the solver has one (its bound stencil, and
``incidence_values`` of the plan's T and V, as one ``rhs`` call on the
shape's rows leaves them, into its buffers), else
``rhs`` into a preallocated row and the other two in their allocating form
(``laplacian_neumann``, ``incidence_values``), for a solver before step
plans.  ``delayed_state`` is timed on the stream's first row.  Times vary
with the machine and its load; compare tables made in one session.

Usage: PYTHONPATH=src python scripts/step_timing.py [--repeat 15] [--number 2000] [--streams 10] [--steps 200]
"""

import argparse
import timeit
from dataclasses import replace
from pathlib import Path

import numpy as np

from sddlab import delayed_state, equilibrium_norm, evaluate_eta, find_equilibria, laplacian_neumann, rhs, solver
from sddlab._trajectory_writer import _line_template
from sddlab.cli import _probe_indices
from sddlab.config import load_config
from sddlab.model import incidence_values
from sddlab.solver import InitialData, RunStream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# label -> (config, members or None for no member axis, nx)
SHAPES = {
    "(2,3,101)": ("saturated_constant_delay.ini", 2, 101),
    "(6,3,41)": ("saturated_integral_delay.ini", 6, 41),
    "(3,1001)": ("saturated_constant_delay.ini", None, 1001),
}
COLUMNS = ("rhs", "laplacian", "incidence", "delayed_state", "stream_step", "csv_line", "store_rows")


def stream_factory(config: str, members: int | None, nx: int, steps: int):
    """A function that builds a fresh stream of ``steps`` steps at this shape,
    and the stream's params, incidence, delay and grid."""
    cfg = load_config(CONFIGS / config)
    grid = replace(cfg.grid, nx=nx)
    eq = next(e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior")
    norm = equilibrium_norm(eq)
    initial = [
        # certify's members: eps fractions 0.1, 0.05, ... times the two directions
        InitialData(preset="equilibrium_perturbation", equilibrium=eq, epsilon=0.1 * norm / 2 ** (m // 2),
                    direction=("constant", "gaussian_bump")[m % 2])
        for m in range(members or 1)
    ]
    solver_cfg = replace(cfg.solver, t_end=steps * cfg.solver.dt)

    def make() -> RunStream:
        return RunStream(initial if members else initial[0], cfg.params, cfg.incidence, cfg.delay, solver_cfg, grid)

    return make, cfg.params, cfg.incidence, cfg.delay, grid


def time_calls(fn, repeat: int, number: int) -> float:
    return min(timeit.Timer(fn).repeat(repeat, number)) / number * 1e6


def time_stream(make, repeat: int, steps: int) -> tuple[float, int]:
    """Microseconds per step of the fastest drained stream, and its store's capacity in rows."""
    best = float("inf")
    for _ in range(repeat):
        stream = make()
        t0 = timeit.default_timer()
        for _ in stream:
            pass
        best = min(best, timeit.default_timer() - t0)
    return best / steps * 1e6, len(stream.history._rows.times)


def row(make, params, f, df, grid, repeat: int, number: int, streams: int, steps: int) -> list[float | int]:
    seg = make().history
    lag = df.eta_const if df.kind == "constant" else evaluate_eta(df, seg)
    state, delayed = seg.fields[-1], delayed_state(seg, lag)
    make_plan = getattr(solver, "_StepPlan", None)
    if make_plan:
        plan = make_plan(state.shape, f, grid)
        rhs(state, delayed, params, f, grid, plan=plan)  # fills the plan's rows and f's inputs
        den = (plan.den,) if hasattr(plan, "den") else ()  # a plan without a bound denominator allocates it
        calls = [
            lambda: rhs(state, delayed, params, f, grid, plan=plan),
            plan.laplacian,
            lambda: incidence_values(f, plan.T, plan.V, plan.fv, *den),
        ]
    else:
        pair, out = np.array((state, delayed)), np.empty(state.shape)
        calls = [
            lambda: rhs(state, delayed, params, f, grid, out=out),
            lambda: laplacian_neumann(grid, state),
            lambda: incidence_values(f, pair[..., 0, :], pair[..., 2, :]),
        ]
    calls.append(lambda: delayed_state(seg, lag))
    with np.errstate(all="ignore"):
        times = [time_calls(fn, repeat, number) for fn in calls]
        step_us, store_rows = time_stream(make, streams, steps)
    # t, T/T*/V at the probes, eta, eta_rate and the flag, as simulate's writer gets them
    probes = state.reshape(-1, 3, grid.nx)[0][:, _probe_indices(grid.nx, 5)].T.ravel().tolist()
    values, line = (seg.t_now, *probes, float(np.mean(lag)), 0.0, 0.0), _line_template(len(probes) + 3)
    return times + [step_us, time_calls(lambda: line % values, repeat, number), store_rows]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=15, help="timings per call; the minimum is printed")
    ap.add_argument("--number", type=int, default=2000, help="calls per timing")
    ap.add_argument("--streams", type=int, default=10, help="streams drained per shape; the fastest is printed")
    ap.add_argument("--steps", type=int, default=200, help="steps per stream")
    args = ap.parse_args()

    print("min-of-N microseconds per call; store_rows in rows")
    print(f"{'shape':<10}" + "".join(f"{c:>19}" for c in COLUMNS))
    for label, (config, members, nx) in SHAPES.items():
        times = row(*stream_factory(config, members, nx, args.steps), args.repeat, args.number, args.streams, args.steps)
        print(f"{label:<10}" + "".join(f"{t:>19.2f}" for t in times[:-1]) + f"{times[-1]:>19d}")


if __name__ == "__main__":
    main()
