"""Workload generator: each workload is a shipped config edited by a seed.

The benchmark owns the seed; sddlab only ever sees the generated INI file
and, for ``certify``, the ``--seed`` flag.  Every generated config passes
the explicit-Euler diffusion bound ``dt <= dx^2 / (2 max d_i)`` or is
refused here, before any process starts, because sddlab itself accepts
such a config and aborts partway through the run.
"""

from __future__ import annotations

import configparser
import io
import random
from dataclasses import dataclass
from pathlib import Path

# name -> (subcommand, shipped config); BENCHMARK.json says why each is here
WORKLOADS = {
    "certify-integral": ("certify", "saturated_integral_delay.ini"),
    "certify-constant": ("certify", "saturated_constant_delay.ini"),
    "simulate-wide": ("simulate", "saturated_constant_delay.ini"),
}

SMOKE_T_END = {"certify": 3.0, "simulate": 2.0}
WIDE_NX = 1001
WIDE_T_END = 100.0
DIFFUSION_KEYS = ("d1", "d2", "d3")


class WorkloadError(ValueError):
    """A generated config that the benchmark refuses to run."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    seed: int
    config_text: str
    nx: int
    solver_runs: int
    steps_per_run: int
    output_rows: int  # certify.csv rows (one per eps) or trajectory.csv samples

    @property
    def node_steps(self) -> int:
        """nx times the solver steps of one CLI invocation."""
        return self.nx * self.solver_runs * self.steps_per_run


def _read(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(path.read_text(encoding="utf-8"))
    return cp


def _get(cp: configparser.ConfigParser, section: str, key: str, default: float) -> float:
    return float(cp.get(section, key, fallback=str(default)))


def _set(cp: configparser.ConfigParser, section: str, key: str, value) -> None:
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, repr(value) if isinstance(value, float) else str(value))


def _jumps(cp: configparser.ConfigParser) -> list[tuple[float, str, float]]:
    if not cp.has_section("schedule"):
        return []
    out = []
    for _, value in sorted(cp.items("schedule"), key=lambda kv: int(kv[0][4:])):
        t, name, v = value.split()
        out.append((float(t), name, float(v)))
    return out


def euler_bound(cp: configparser.ConfigParser) -> tuple[float, float]:
    """(dt, dx^2 / (2 max d_i)) over the initial values and every scheduled jump."""
    nx = int(_get(cp, "grid", "nx", 101))
    dx = (_get(cp, "grid", "x_max", 1.0) - _get(cp, "grid", "x_min", 0.0)) / (nx - 1)
    diffs = [_get(cp, "params", k, 0.0) for k in DIFFUSION_KEYS]
    diffs += [v for _, name, v in _jumps(cp) if name in DIFFUSION_KEYS]
    d_max = max(diffs)
    bound = float("inf") if d_max <= 0.0 else dx * dx / (2.0 * d_max)
    return _get(cp, "time", "dt", 0.01), bound


def check_euler_bound(cp: configparser.ConfigParser, name: str) -> None:
    dt, bound = euler_bound(cp)
    if dt > bound:
        raise WorkloadError(
            f"{name}: dt={dt!r} breaks the explicit-Euler diffusion bound dx^2/(2 max d_i)={bound!r}"
        )


def count_steps(t_end: float, dt: float, jump_times: list[float]) -> int:
    """Steps of one solver run, replaying sddlab.solver.run's time loop."""
    t, n, ji = 0.0, 0, 0
    slack = 1e-6 * dt
    while t < t_end - slack:
        while ji < len(jump_times) and t >= jump_times[ji] - slack:
            ji += 1
        h = min(dt, t_end - t)
        if ji < len(jump_times):
            h = min(h, jump_times[ji] - t)
        t += h
        n += 1
    return n


def _widen(cp: configparser.ConfigParser, rng: random.Random, t_end: float) -> None:
    """simulate-wide: fine grid, weaker diffusion, seeded bump and burst jump."""
    _set(cp, "grid", "nx", WIDE_NX)
    for key in DIFFUSION_KEYS:
        _set(cp, "params", key, _get(cp, "params", key, 0.0) / 100.0)
    _set(cp, "time", "t_end", t_end)
    _set(cp, "initial", "preset", "equilibrium_perturbation")
    _set(cp, "initial", "direction", "gaussian_bump")
    _set(cp, "initial", "epsilon_rel", 0.05 + 0.05 * rng.random())
    _set(cp, "initial", "bump_center", 0.2 + 0.6 * rng.random())
    _set(cp, "initial", "bump_width", 0.05 + 0.1 * rng.random())
    burst = _get(cp, "params", "burst_n", 10.0)
    jump_t = round(t_end * (0.3 + 0.4 * rng.random()), 2)
    _set(cp, "schedule", "jump1", f"{jump_t!r} burst_n {burst * (0.6 + 0.2 * rng.random())!r}")


def generate(name: str, seed: int, root: Path, smoke: bool = False) -> Workload:
    """Build workload `name` for `seed` from the shipped config under root/configs."""
    if name not in WORKLOADS:
        raise WorkloadError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    command, base = WORKLOADS[name]
    cp = _read(root / "configs" / base)
    rng = random.Random(seed)
    if name == "simulate-wide":
        _widen(cp, rng, SMOKE_T_END[command] if smoke else WIDE_T_END)
    elif smoke:
        _set(cp, "time", "t_end", SMOKE_T_END[command])
        fractions = cp.get("output", "eps_fractions", fallback="0.1").split()
        _set(cp, "output", "eps_fractions", fractions[0])
    check_euler_bound(cp, name)

    buf = io.StringIO()
    cp.write(buf)
    steps = count_steps(
        _get(cp, "time", "t_end", 50.0), _get(cp, "time", "dt", 0.01), [t for t, _, _ in _jumps(cp)]
    )
    runs, rows = 1, steps + 1
    if command == "certify":
        rows = len(cp.get("output", "eps_fractions", fallback="0.1 0.05 0.025").split())
        runs = rows * len(cp.get("output", "directions", fallback="constant gaussian_bump").split())
    return Workload(
        name=name,
        command=command,
        seed=seed,
        config_text=buf.getvalue(),
        nx=int(_get(cp, "grid", "nx", 101)),
        solver_runs=runs,
        steps_per_run=steps,
        output_rows=rows,
    )
