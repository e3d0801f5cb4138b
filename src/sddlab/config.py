"""Run configuration: flat key-per-line sectioned text files.

Every section is optional; omitted keys take the documented defaults, so
the minimal valid config is an empty file (the defaults reproduce the
saturated-incidence reference scenario).  Loading validates everything it
can and reports ALL problems at once, each with its line number and, for
misspelled keys or sections, a nearest-name suggestion.  Unknown keys are
rejected rather than ignored.

Sections: [params] [incidence] [delay] [grid] [time] [initial] [schedule]
[output].  Schedule entries are numbered keys ``jumpN = <t> <param> <value>``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from difflib import get_close_matches
from pathlib import Path

from .grid import Grid1D
from .history import DelayFunctional, constant_delay, integral_delay, smooth_clamp, state_mean_reducer, wrapped_delay
from .model import KINDS, IncidenceFn, ModelParams
from .solver import InitialData, ParamJump, SolverConfig, validate_schedule

__all__ = ["ConfigError", "OutputConfig", "RunConfig", "load_config", "DEFAULTS_DOC"]


class ConfigError(Exception):
    """Carries every problem found in a config file, not just the first."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    probe_nodes: int = 5
    monitor_stride: int = 10
    warmup: float | None = None  # None -> 2*h_max
    tol_decrease: float = 1e-8
    eps_fractions: tuple[float, ...] = (0.1, 0.05, 0.025)
    directions: tuple[str, ...] = ("constant", "gaussian_bump")
    seed: int = 0
    hyp_box_t: float | None = None  # None -> 2*lam/d
    hyp_box_v: float | None = None  # None -> 2*V bound of the invariant box
    hyp_density: int = 50


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


_SECTIONS = ("params", "incidence", "delay", "grid", "time", "initial", "schedule", "output")

_KEYS = {
    "params": ("lambda", "d", "delta", "burst_n", "c", "omega", "h_max", "d1", "d2", "d3"),
    "incidence": ("kind", "k", "k1", "k2", "mu"),
    "delay": ("kind", "eta_const", "xi_component", "xi_scale", "kappa", "rho"),
    "grid": ("x_min", "x_max", "nx"),
    "time": ("dt", "t_end", "clip_negative", "invariance_tol"),
    "initial": (
        "preset",
        "t0",
        "tstar0",
        "v0",
        "bump_amp_t",
        "bump_amp_tstar",
        "bump_amp_v",
        "bump_center",
        "bump_width",
        "epsilon_rel",
        "direction",
        "eq_index",
        "profile",
        "ramp_depth",
    ),
    "schedule": (),  # numbered jumpN keys
    "output": (
        "dir",
        "probe_nodes",
        "monitor_stride",
        "warmup",
        "tol_decrease",
        "eps_fractions",
        "directions",
        "seed",
        "hyp_box_t",
        "hyp_box_v",
        "hyp_density",
    ),
}

# ModelParams field name -> config key (for attaching line context to
# invariant violations raised by the dataclass constructors)
_FIELD_TO_KEY = {"lam": "lambda", "diff": "d1"}

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
            if name not in _SECTIONS:
                hint = get_close_matches(name, _SECTIONS, n=1)
                extra = f"; did you mean [{hint[0]}]?" if hint else ""
                errors.append(f"line {lineno}: unknown section [{name}]{extra}")
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
        known = _KEYS[current]
        if current == "schedule":
            if not re.fullmatch(r"jump\d+", key):
                errors.append(f"line {lineno}: [schedule] keys must be jump1, jump2, ..., got {key!r}")
                continue
        elif key not in known:
            hint = get_close_matches(key, known, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            errors.append(f"line {lineno}: unknown key {key!r} in [{current}]{extra}")
            continue
        if key in sections[current]:  # type: ignore[index]
            errors.append(f"line {lineno}: duplicate key {key!r} in [{current}]")
            continue
        sections[current][key] = (value, lineno)  # type: ignore[index]
    return sections, errors


class _Section:
    """Typed access to one raw section with error accumulation."""

    def __init__(self, name: str, raw: dict[str, tuple[str, int]], errors: list[str]):
        self.name = name
        self.raw = raw
        self.errors = errors

    def _fail(self, key: str, lineno: int | None, message: str) -> None:
        where = f"line {lineno}: " if lineno is not None else ""
        self.errors.append(f"{where}[{self.name}] {key}: {message}")

    def line_of(self, key: str) -> int | None:
        entry = self.raw.get(key)
        return entry[1] if entry else None

    def _pull(self, key: str):
        return self.raw.get(key)

    def get_float(self, key: str, default: float) -> float:
        entry = self._pull(key)
        if entry is None:
            return default
        value, lineno = entry
        try:
            return float(value)
        except ValueError:
            self._fail(key, lineno, f"expected a number, got {value!r}")
            return default

    def get_optional_float(self, key: str, default: float | None) -> float | None:
        entry = self._pull(key)
        if entry is None:
            return default
        value, lineno = entry
        if value.lower() in ("auto", "none"):
            return None
        try:
            return float(value)
        except ValueError:
            self._fail(key, lineno, f"expected a number or 'auto', got {value!r}")
            return default

    def get_int(self, key: str, default: int) -> int:
        entry = self._pull(key)
        if entry is None:
            return default
        value, lineno = entry
        try:
            return int(value)
        except ValueError:
            self._fail(key, lineno, f"expected an integer, got {value!r}")
            return default

    def get_bool(self, key: str, default: bool) -> bool:
        entry = self._pull(key)
        if entry is None:
            return default
        value, lineno = entry
        low = value.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        self._fail(key, lineno, f"expected a boolean, got {value!r}")
        return default

    def get_enum(self, key: str, default: str, choices) -> str:
        entry = self._pull(key)
        if entry is None:
            return default
        value, lineno = entry
        if value in choices:
            return value
        hint = get_close_matches(value, choices, n=1)
        extra = f"; did you mean {hint[0]!r}?" if hint else ""
        self._fail(key, lineno, f"must be one of {', '.join(choices)}{extra}")
        return default

    def get_str(self, key: str, default: str) -> str:
        entry = self._pull(key)
        return entry[0] if entry is not None else default

    def get_float_list(self, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
        entry = self._pull(key)
        if entry is None:
            return default
        value, lineno = entry
        try:
            items = tuple(float(tok) for tok in value.split())
            if not items:
                raise ValueError
            return items
        except ValueError:
            self._fail(key, lineno, f"expected space-separated numbers, got {value!r}")
            return default

    def get_str_list(self, key: str, default: tuple[str, ...], choices=None) -> tuple[str, ...]:
        entry = self._pull(key)
        if entry is None:
            return default
        value, lineno = entry
        items = tuple(value.split())
        if not items:
            self._fail(key, lineno, "expected at least one entry")
            return default
        if choices is not None:
            for item in items:
                if item not in choices:
                    self._fail(key, lineno, f"entry {item!r} must be one of {', '.join(choices)}")
                    return default
        return items


def _attach_context(section: _Section, exc: ValueError) -> None:
    """Map a dataclass invariant message ``field: problem`` back to the
    offending config line, reported under its config key."""
    fld, _, problem = str(exc).partition(":")
    key = _FIELD_TO_KEY.get(fld.strip(), fld.strip())
    section._fail(key, section.line_of(key), problem.strip())


def load_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a config file.

    Raises ConfigError carrying the complete list of problems; on success
    every referenced module invariant has already been re-validated.
    """
    text = Path(path).read_text(encoding="utf-8")
    raw, errors = _parse_lines(text)

    def section(name: str) -> _Section:
        return _Section(name, raw.get(name, {}), errors)

    sp = section("params")
    params = None
    try:
        params = ModelParams(
            lam=sp.get_float("lambda", 10.0),
            d=sp.get_float("d", 0.1),
            delta=sp.get_float("delta", 0.5),
            burst_n=sp.get_float("burst_n", 10.0),
            c=sp.get_float("c", 5.0),
            omega=sp.get_float("omega", 0.0),
            h_max=sp.get_float("h_max", 1.0),
            diff=(sp.get_float("d1", 0.0), sp.get_float("d2", 0.0), sp.get_float("d3", 0.0)),
        )
    except ValueError as exc:
        _attach_context(sp, exc)

    si = section("incidence")
    incidence = None
    try:
        incidence = IncidenceFn(
            kind=si.get_enum("kind", "saturated", KINDS),
            k=si.get_float("k", 0.1),
            k1=si.get_float("k1", 0.0),
            k2=si.get_float("k2", 0.1),
            mu=si.get_optional_float("mu", None),
        )
    except ValueError as exc:
        _attach_context(si, exc)

    sg = section("grid")
    grid = None
    try:
        grid = Grid1D(
            x_min=sg.get_float("x_min", 0.0),
            x_max=sg.get_float("x_max", 1.0),
            nx=sg.get_int("nx", 101),
        )
    except ValueError as exc:
        _attach_context(sg, exc)

    st = section("time")
    solver = None
    try:
        solver = SolverConfig(
            dt=st.get_float("dt", 0.01),
            t_end=st.get_float("t_end", 50.0),
            clip_negative=st.get_bool("clip_negative", False),
            invariance_tol=st.get_float("invariance_tol", 1e-9),
        )
    except ValueError as exc:
        _attach_context(st, exc)

    sd = section("delay")
    delay = None
    delay_kind = sd.get_enum("kind", "constant", ("constant", "integral", "wrapped"))
    eta_const = sd.get_optional_float("eta_const", None)
    xi_component = sd.get_enum("xi_component", "V", ("T", "T_star", "V"))
    xi_scale = sd.get_float("xi_scale", 0.01)
    kappa_name = sd.get_enum("kappa", "uniform", ("uniform", "recency"))
    rho_name = sd.get_enum("rho", "smooth", ("smooth", "clamp"))
    if params is not None and grid is not None:
        h = params.h_max
        try:
            if delay_kind == "constant":
                delay = constant_delay(h, eta_const if eta_const is not None else 0.5 * h)
            else:
                xi = state_mean_reducer(grid, xi_component, xi_scale)
                if delay_kind == "integral":
                    delay = integral_delay(h, xi)
                else:
                    kappa = None if kappa_name == "uniform" else (lambda th: 2.0 * (1.0 + th / h))
                    # evaluate_eta clamps every eta into [0, h], so the hard clamp is the identity
                    rho = smooth_clamp(h) if rho_name == "smooth" else (lambda s: s)
                    delay = wrapped_delay(h, xi, kappa=kappa, rho=rho)
        except ValueError as exc:
            _attach_context(sd, exc)

    s0 = section("initial")
    initial = None
    eq_index = s0.get_int("eq_index", 0)
    epsilon_rel = s0.get_float("epsilon_rel", 0.05)
    try:
        initial = InitialData(
            preset=s0.get_enum("preset", "uniform", ("uniform", "gaussian_bump", "equilibrium_perturbation")),
            values=(s0.get_float("t0", 50.0), s0.get_float("tstar0", 10.0), s0.get_float("v0", 10.0)),
            bump_amp=(
                s0.get_float("bump_amp_t", 5.0),
                s0.get_float("bump_amp_tstar", 1.0),
                s0.get_float("bump_amp_v", 1.0),
            ),
            bump_center=s0.get_optional_float("bump_center", None),
            bump_width=s0.get_optional_float("bump_width", None),
            direction=s0.get_enum("direction", "constant", ("constant", "gaussian_bump")),
            profile=s0.get_enum("profile", "constant_in_time", ("constant_in_time", "linear_ramp")),
            ramp_depth=s0.get_float("ramp_depth", 0.1),
        )
    except ValueError as exc:
        _attach_context(s0, exc)
    if initial is not None and initial.preset == "equilibrium_perturbation":
        # the equilibrium and the absolute epsilon are resolved at run time
        if eq_index < 0:
            s0._fail("eq_index", s0.line_of("eq_index"), f"must be nonnegative, got {eq_index}")
        if epsilon_rel < 0.0:
            s0._fail("epsilon_rel", s0.line_of("epsilon_rel"), f"must be nonnegative, got {epsilon_rel}")

    ss = section("schedule")
    jumps: list[ParamJump] = []
    ordered = sorted(ss.raw.items(), key=lambda kv: int(kv[0][4:]))
    for key, (value, lineno) in ordered:
        tokens = value.split()
        if len(tokens) != 3:
            ss._fail(key, lineno, f"expected '<t> <param> <value>', got {value!r}")
            continue
        try:
            jumps.append(ParamJump(t=float(tokens[0]), name=tokens[1], value=float(tokens[2])))
        except ValueError:
            ss._fail(key, lineno, f"expected numeric time and value, got {value!r}")
    schedule = tuple(jumps)
    if params is not None and solver is not None and schedule:
        try:
            validate_schedule(schedule, solver.t_end, params)
        except ValueError as exc:
            _attach_context(ss, exc)
    if params is not None and grid is not None and solver is not None:
        # explicit Euler on the diffusion stencil needs dt <= dx^2/(2 max d_i)
        # for the initial coefficients and for every scheduled value
        d_max = max([*params.diff, *(j.value for j in schedule if j.name in ("d1", "d2", "d3"))])
        bound = grid.dx**2 / (2.0 * d_max) if d_max > 0.0 else float("inf")
        if solver.dt > bound:
            st._fail(
                "dt",
                st.line_of("dt"),
                f"{solver.dt!r} exceeds the explicit-Euler diffusion bound "
                f"dx^2/(2 max d_i) = {bound!r} (dx = {grid.dx!r}, max d_i = {d_max!r})",
            )

    so = section("output")
    output = OutputConfig(
        dir=so.get_str("dir", "out"),
        probe_nodes=so.get_int("probe_nodes", 5),
        monitor_stride=so.get_int("monitor_stride", 10),
        warmup=so.get_optional_float("warmup", None),
        tol_decrease=so.get_float("tol_decrease", 1e-8),
        eps_fractions=so.get_float_list("eps_fractions", (0.1, 0.05, 0.025)),
        directions=so.get_str_list("directions", ("constant", "gaussian_bump"), ("constant", "gaussian_bump")),
        seed=so.get_int("seed", 0),
        hyp_box_t=so.get_optional_float("hyp_box_t", None),
        hyp_box_v=so.get_optional_float("hyp_box_v", None),
        hyp_density=so.get_int("hyp_density", 50),
    )
    if output.probe_nodes < 1:
        so._fail("probe_nodes", so.line_of("probe_nodes"), f"must be at least 1, got {output.probe_nodes}")
    if output.monitor_stride < 1:
        so._fail("monitor_stride", so.line_of("monitor_stride"), f"must be at least 1, got {output.monitor_stride}")
    if output.seed < 0 or output.seed >= 2**64:
        so._fail("seed", so.line_of("seed"), f"must fit an unsigned 64-bit integer, got {output.seed}")
    # written so that NaN fails each test
    bad = [e for e in output.eps_fractions if not 0.0 < e < math.inf]
    if bad:
        so._fail("eps_fractions", so.line_of("eps_fractions"), f"entry {bad[0]} must be positive and finite")
    if output.warmup is not None and not 0.0 <= output.warmup < math.inf:
        so._fail("warmup", so.line_of("warmup"), f"must be nonnegative and finite, got {output.warmup}")
    if not -math.inf < output.tol_decrease < math.inf:
        so._fail("tol_decrease", so.line_of("tol_decrease"), f"must be finite, got {output.tol_decrease}")
    for key in ("hyp_box_t", "hyp_box_v"):
        box = getattr(output, key)
        if box is not None and not 0.0 < box < math.inf:
            so._fail(key, so.line_of(key), f"must be positive and finite, got {box}")
    if output.hyp_density < 2:
        so._fail("hyp_density", so.line_of("hyp_density"), f"must be at least 2, got {output.hyp_density}")

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
