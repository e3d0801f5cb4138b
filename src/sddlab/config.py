"""Run configuration: flat key-per-line sectioned text files.

Every section is optional; omitted keys take the documented defaults, so
the minimal valid config is an empty file (the defaults reproduce the
saturated-incidence reference scenario).  Loading reports every line and
parse problem at once, with its line number and, for misspelled keys,
sections or choices, a nearest-name suggestion; a section's dataclass adds
only the first invariant it rejects.  Unknown keys are rejected.

One table, ``_SCHEMA``, states each key once: its section, its default and
the parser of its value.  ``_parse_lines`` checks the file's sections and
keys against it.  One loop then runs each key a section sets through its
parser; a bad value is reported as ``line N: [section] key: message`` and
the default is kept.  The parsed values build the model's dataclasses, and
an invariant a dataclass rejects is reported under the config key it names.

Sections: [params] [incidence] [delay] [grid] [time] [initial] [schedule]
[output].  Schedule entries are numbered keys ``jumpN = <t> <param> <value>``;
a schedule that fails validation is reported under the first ``jumpN``, in
N order, at which it fails.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from difflib import get_close_matches
from pathlib import Path
from typing import Any, Callable

from .grid import Grid1D
from .history import DelayFunctional, constant_delay, integral_delay, smooth_clamp, state_mean_reducer, wrapped_delay
from .model import KINDS, IncidenceFn, ModelParams
from .solver import InitialData, ParamJump, SolverConfig, validate_schedule

__all__ = ["ConfigError", "OutputConfig", "RunConfig", "load_config", "DEFAULTS_DOC"]


class ConfigError(Exception):
    """Carries the problems found in a config file (see ``load_config``)."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class OutputConfig:
    dir: str
    probe_nodes: int
    monitor_stride: int
    warmup: float | None  # None -> 2*h_max
    tol_decrease: float
    eps_fractions: tuple[float, ...]
    directions: tuple[str, ...]
    seed: int
    hyp_box_t: float | None  # None -> 2*lam/d
    hyp_box_v: float | None  # None -> 2*V bound of the invariant box
    hyp_density: int


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    incidence: IncidenceFn
    delay: DelayFunctional
    grid: Grid1D
    solver: SolverConfig
    initial: InitialData
    eq_index: int
    epsilon_rel: float
    schedule: tuple[ParamJump, ...]
    output: OutputConfig


# InitialData's per-component triples -> their config keys, T, T_star, V
_TRIPLE_KEYS = {"values": ("t0", "tstar0", "v0"), "bump_amp": ("bump_amp_t", "bump_amp_tstar", "bump_amp_v")}
# ModelParams and InitialData field names -> config key (for attaching line
# context to invariant violations raised by the dataclass constructors)
_FIELD_TO_KEY = {"lam": "lambda", "diff": "d1"} | {
    f"{field}[{i}]": key for field, keys in _TRIPLE_KEYS.items() for i, key in enumerate(keys)
}

DEFAULTS_DOC = """\
[params]   lambda=10 d=0.1 delta=0.5 burst_n=10 c=5 omega=0 h_max=1 d1=0 d2=0 d3=0
[incidence] kind=saturated k=0.1 k1=0 k2=0.1 mu=none (auto k/k2 for saturating kinds)
[delay]    kind=constant eta_const=auto (h_max/2) xi_component=V xi_scale=0.01
           kappa=uniform rho=smooth
[grid]     x_min=0 x_max=1 nx=101
[time]     dt=0.01 t_end=50 clip_negative=false invariance_tol=1e-9
[initial]  preset=uniform t0=50 tstar0=10 v0=10 profile=constant_in_time ramp_depth=0.1
           (equilibrium_perturbation: epsilon_rel=0.05 direction=constant eq_index=0)
[schedule] empty (jumpN = <t> <param> <value>)
[output]   dir=out probe_nodes=5 monitor_stride=10 warmup=auto (2*h_max)
           tol_decrease=1e-8 eps_fractions=0.1 0.05 0.025
           directions=constant gaussian_bump seed=0 hyp_density=50
"""


def _hint(word: str, names, form: str = "{!r}") -> str:
    match = get_close_matches(word, names, n=1)
    return f"; did you mean {form.format(match[0])}?" if match else ""


def _parser(convert: Callable[[str], Any], expected: str) -> Callable[[str], Any]:
    """``convert``, with its ValueError reworded as ``expected <expected>, got <value>``."""

    def parse(value: str):
        try:
            return convert(value)
        except ValueError:
            raise ValueError(f"expected {expected}, got {value!r}") from None

    return parse


def _bool(value: str) -> bool:
    low = value.lower()
    if low not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ValueError(value)
    return low in ("true", "yes", "1", "on")


def _floats(value: str) -> tuple[float, ...]:
    items = tuple(float(tok) for tok in value.split())
    if not items:
        raise ValueError(value)
    return items


def _choice(*choices: str) -> Callable[[str], str]:
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}{_hint(value, choices)}")
        return value

    return parse


def _words(*choices: str) -> Callable[[str], tuple[str, ...]]:
    def parse(value: str) -> tuple[str, ...]:
        items = tuple(value.split())
        if not items:
            raise ValueError("expected at least one entry")
        for item in items:
            if item not in choices:
                raise ValueError(f"entry {item!r} must be one of {', '.join(choices)}")
        return items

    return parse


_number = _parser(float, "a number")
_number_or_auto = _parser(lambda v: None if v.lower() in ("auto", "none") else float(v), "a number or 'auto'")
_integer = _parser(int, "an integer")
_boolean = _parser(_bool, "a boolean")
_numbers = _parser(_floats, "space-separated numbers")

# section -> key -> (default, parser); a section's keys are parsed, and their
# errors reported, in this order
_SCHEMA: dict[str, dict[str, tuple[Any, Callable[[str], Any]]]] = {
    "params": {
        "lambda": (10.0, _number),
        "d": (0.1, _number),
        "delta": (0.5, _number),
        "burst_n": (10.0, _number),
        "c": (5.0, _number),
        "omega": (0.0, _number),
        "h_max": (1.0, _number),
        "d1": (0.0, _number),
        "d2": (0.0, _number),
        "d3": (0.0, _number),
    },
    "incidence": {
        "kind": ("saturated", _choice(*KINDS)),
        "k": (0.1, _number),
        "k1": (0.0, _number),
        "k2": (0.1, _number),
        "mu": (None, _number_or_auto),
    },
    "delay": {
        "kind": ("constant", _choice("constant", "integral", "wrapped")),
        "eta_const": (None, _number_or_auto),
        "xi_component": ("V", _choice("T", "T_star", "V")),
        "xi_scale": (0.01, _number),
        "kappa": ("uniform", _choice("uniform", "recency")),
        "rho": ("smooth", _choice("smooth", "clamp")),
    },
    "grid": {
        "x_min": (0.0, _number),
        "x_max": (1.0, _number),
        "nx": (101, _integer),
    },
    "time": {
        "dt": (0.01, _number),
        "t_end": (50.0, _number),
        "clip_negative": (False, _boolean),
        "invariance_tol": (1e-9, _number),
    },
    "initial": {
        "eq_index": (0, _integer),
        "epsilon_rel": (0.05, _number),
        "preset": ("uniform", _choice("uniform", "gaussian_bump", "equilibrium_perturbation")),
        "t0": (50.0, _number),
        "tstar0": (10.0, _number),
        "v0": (10.0, _number),
        "bump_amp_t": (5.0, _number),
        "bump_amp_tstar": (1.0, _number),
        "bump_amp_v": (1.0, _number),
        "bump_center": (None, _number_or_auto),
        "bump_width": (None, _number_or_auto),
        "direction": ("constant", _choice("constant", "gaussian_bump")),
        "profile": ("constant_in_time", _choice("constant_in_time", "linear_ramp")),
        "ramp_depth": (0.1, _number),
    },
    "schedule": {},  # numbered jumpN keys
    "output": {
        "dir": ("out", str),
        "probe_nodes": (5, _integer),
        "monitor_stride": (10, _integer),
        "warmup": (None, _number_or_auto),
        "tol_decrease": (1e-8, _number),
        "eps_fractions": ((0.1, 0.05, 0.025), _numbers),
        "directions": (("constant", "gaussian_bump"), _words("constant", "gaussian_bump")),
        "seed": (0, _integer),
        "hyp_box_t": (None, _number_or_auto),
        "hyp_box_v": (None, _number_or_auto),
        "hyp_density": (50, _integer),
    },
}

_SKIP = object()


def _parse_lines(text: str):
    """Raw pass: sections, keys, values, line numbers; collects syntax errors."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    errors: list[str] = []
    current: object = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {lineno}: malformed section header {line!r}")
                current = _SKIP
                continue
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{name}]{_hint(name, _SCHEMA, '[{}]')}")
                current = _SKIP
                continue
            if name in sections:
                errors.append(f"line {lineno}: duplicate section [{name}]")
                current = _SKIP
                continue
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if current is None:
            errors.append(f"line {lineno}: key {key!r} appears before any section header")
            continue
        if current is _SKIP:
            continue
        if current == "schedule":
            if not re.fullmatch(r"jump\d+", key):
                errors.append(f"line {lineno}: [schedule] keys must be jump1, jump2, ..., got {key!r}")
                continue
        elif key not in _SCHEMA[current]:
            errors.append(f"line {lineno}: unknown key {key!r} in [{current}]{_hint(key, _SCHEMA[current])}")
            continue
        if key in sections[current]:  # type: ignore[index]
            errors.append(f"line {lineno}: duplicate key {key!r} in [{current}]")
            continue
        sections[current][key] = (value, lineno)  # type: ignore[index]
    return sections, errors


def _delay(h: float, grid: Grid1D, kind, eta_const, xi_component, xi_scale, kappa, rho) -> DelayFunctional:
    """The [delay] section's functional over the window [0, h]."""
    if kind == "constant":
        return constant_delay(h, 0.5 * h if eta_const is None else eta_const)
    xi = state_mean_reducer(grid, xi_component, xi_scale)
    if kind == "integral":
        return integral_delay(h, xi)
    weight = None if kappa == "uniform" else (lambda th: 2.0 * (1.0 + th / h))
    # evaluate_eta clamps every eta into [0, h], so the hard clamp is the identity
    clamp = smooth_clamp(h) if rho == "smooth" else (lambda s: s)
    return wrapped_delay(h, xi, kappa=weight, rho=clamp)


def load_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a config file.

    Raises ConfigError with every line and parse problem, plus the first
    invariant each section's dataclass rejects (it stops at its first).
    """
    raw, errors = _parse_lines(Path(path).read_text(encoding="utf-8"))

    def fail(section: str, key: str, message: str) -> None:
        entry = raw.get(section, {}).get(key)
        where = f"line {entry[1]}: " if entry else ""
        errors.append(f"{where}[{section}] {key}: {message}")

    def parse(section: str) -> dict[str, Any]:
        """Each key of the section through its parser, or its default if unset or bad."""
        given = raw.get(section, {})
        values = {}
        for key, (default, parser) in _SCHEMA[section].items():
            values[key] = default
            if key in given:
                try:
                    values[key] = parser(given[key][0])
                except ValueError as exc:
                    fail(section, key, str(exc))
        return values

    def build(section: str, make, *args, **kwargs):
        """``make(*args, **kwargs)``, or None with its ``field: problem`` reported under the field's key."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            fld, _, problem = str(exc).partition(":")
            fail(section, _FIELD_TO_KEY.get(fld.strip(), fld.strip()), problem.strip())
            return None

    p = parse("params")
    lam, diff = p.pop("lambda"), (p.pop("d1"), p.pop("d2"), p.pop("d3"))
    params = build("params", ModelParams, lam=lam, diff=diff, **p)
    incidence = build("incidence", IncidenceFn, **parse("incidence"))
    grid = build("grid", Grid1D, **parse("grid"))
    solver = build("time", SolverConfig, **parse("time"))
    delay_values = parse("delay")  # its errors are reported even when params or grid failed
    delay = None
    if params is not None and grid is not None:
        delay = build("delay", _delay, params.h_max, grid, **delay_values)

    s0 = parse("initial")
    eq_index, epsilon_rel = s0.pop("eq_index"), s0.pop("epsilon_rel")
    triples = {field: tuple(s0.pop(key) for key in keys) for field, keys in _TRIPLE_KEYS.items()}
    initial = build("initial", InitialData, **triples, **s0)
    if initial is not None and initial.preset == "equilibrium_perturbation":
        # the equilibrium and the absolute epsilon are resolved at run time
        if eq_index < 0:
            fail("initial", "eq_index", f"must be nonnegative, got {eq_index}")
        if epsilon_rel < 0.0:
            fail("initial", "epsilon_rel", f"must be nonnegative, got {epsilon_rel}")
        elif not epsilon_rel < math.inf:  # NaN too
            fail("initial", "epsilon_rel", f"must be finite, got {epsilon_rel}")

    jumps: list[tuple[str, ParamJump]] = []
    for key, (value, _) in sorted(raw.get("schedule", {}).items(), key=lambda kv: int(kv[0][4:])):
        tokens = value.split()
        if len(tokens) != 3:
            fail("schedule", key, f"expected '<t> <param> <value>', got {value!r}")
            continue
        try:
            jumps.append((key, ParamJump(t=float(tokens[0]), name=tokens[1], value=float(tokens[2]))))
        except ValueError:
            fail("schedule", key, f"expected numeric time and value, got {value!r}")
    schedule = tuple(jump for _, jump in jumps)
    if params is not None and solver is not None:
        # a schedule has a handful of jumps: validating each prefix finds the first that fails
        for n, (key, jump) in enumerate(jumps):
            try:
                validate_schedule(schedule[: n + 1], solver.t_end, params)
            except ValueError as exc:
                fld, _, problem = str(exc).partition(": ")
                fail("schedule", key, problem if fld == "schedule" else f"{jump.name}: {problem}")
                break
    if params is not None and grid is not None and solver is not None:
        # explicit Euler on the diffusion stencil needs dt <= dx^2/(2 max d_i)
        # for the initial coefficients and for every scheduled value
        d_max = max([*params.diff, *(j.value for j in schedule if j.name in ("d1", "d2", "d3"))])
        bound = grid.dx * grid.dx / (2.0 * d_max) if d_max > 0.0 else float("inf")
        if solver.dt > bound:
            fail(
                "time",
                "dt",
                f"{solver.dt!r} exceeds the explicit-Euler diffusion bound "
                f"dx^2/(2 max d_i) = {bound!r} (dx = {grid.dx!r}, max d_i = {d_max!r})",
            )

    output = OutputConfig(**parse("output"))
    if output.probe_nodes < 1:
        fail("output", "probe_nodes", f"must be at least 1, got {output.probe_nodes}")
    if output.monitor_stride < 1:
        fail("output", "monitor_stride", f"must be at least 1, got {output.monitor_stride}")
    if output.seed < 0 or output.seed >= 2**64:
        fail("output", "seed", f"must fit an unsigned 64-bit integer, got {output.seed}")
    # written so that NaN fails each test
    bad = [e for e in output.eps_fractions if not 0.0 < e < math.inf]
    if bad:
        fail("output", "eps_fractions", f"entry {bad[0]} must be positive and finite")
    if output.warmup is not None and not 0.0 <= output.warmup < math.inf:
        fail("output", "warmup", f"must be nonnegative and finite, got {output.warmup}")
    if not -math.inf < output.tol_decrease < math.inf:
        fail("output", "tol_decrease", f"must be finite, got {output.tol_decrease}")
    for key in ("hyp_box_t", "hyp_box_v"):
        box = getattr(output, key)
        if box is not None and not 0.0 < box < math.inf:
            fail("output", key, f"must be positive and finite, got {box}")
    if output.hyp_density < 2:
        fail("output", "hyp_density", f"must be at least 2, got {output.hyp_density}")

    if errors:
        raise ConfigError(errors)
    assert params is not None and incidence is not None and grid is not None
    assert solver is not None and delay is not None and initial is not None
    return RunConfig(
        params=params,
        incidence=incidence,
        delay=delay,
        grid=grid,
        solver=solver,
        initial=initial,
        eq_index=eq_index,
        epsilon_rel=epsilon_rel,
        schedule=schedule,
        output=output,
    )
