"""Method-of-lines time stepping with state-dependent delay.

Space is discretized first (``grid``), then the resulting delay ODE system
is advanced by explicit Euler: eta is evaluated once on the segment at the
step start, and the delayed field is read there by linear interpolation of
the history.  The method is first order; a higher-order stepper would need
a continuous extension of the history, not just more stages on a frozen
delayed field (Bellen & Zennaro, Numerical Methods for Delay Differential
Equations, 2003).  A component with d_i == 0 gets no diffusion term at all.

The time loop is one iterator, ``RunStream``, that yields each sample once
its row is complete.  Each step writes one row of the array-backed history
(``history``).  ``run`` sizes that store once, from t_end, dt and the number
of jumps, and returns a ``Trajectory`` that is a view of the same rows; a
caller that drains the stream itself keeps only the trailing delay window
and the rows it holds (``certify``: its pending monitor block) in memory.

Several runs that share the parameters, dt and step times (``certify``'s
perturbations) advance as one stream: their rows carry a leading member
axis, (B, 3, nx), and ``rhs`` and ``step`` work on (..., 3, nx) rows with
the same elementwise arithmetic, so each member gets the bits of its solo
run.  A member whose state turns nonfinite is frozen at its last good row
and masked; the stream ends once every member has.

Parameter schedules model stepwise drug administration: a jump changes a
model constant between steps only, shortening at most one step so that the
jump lands exactly on a step boundary.  Solutions stay continuous there
while their time derivative may not.

Every run monitors the invariant-box bounds

    0 <= T <= lam/d,
    0 <= T* <= lam mu e^{-omega h} / (d delta),
    0 <= V  <= N lam mu e^{-omega h} / (d c),

(upper bounds only when f admits the linear-bound constant mu) and counts
excursions beyond ``invariance_tol``.  One pass reduces each new row to its
per-component min and max, which tell whether a member is finite; a side is
counted entry by entry only when they leave the box.  Negative clipping is
off by default: the exact dynamics preserve positivity, so violations
indicate step-size trouble and are surfaced rather than silently fixed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .equilibria import Equilibrium
from .grid import Grid1D, laplacian_neumann
from .history import DelayFunctional, FieldState, HistorySegment, delayed_state, evaluate_eta
from .model import IncidenceFn, ModelParams, incidence_mu, incidence_values

__all__ = [
    "SolverConfig",
    "ParamJump",
    "validate_schedule",
    "apply_jump",
    "InitialData",
    "uniform_state",
    "equilibrium_state",
    "build_initial_segment",
    "omega_lip_bounds",
    "rhs",
    "step",
    "Sample",
    "RunStream",
    "Trajectory",
    "run",
    "compatibility_residual",
]

log = logging.getLogger(__name__)

# schedule keys -> ModelParams fields; d1/d2/d3 address the diff tuple
_JUMPABLE = {
    "lambda": "lam",
    "d": "d",
    "delta": "delta",
    "burst_n": "burst_n",
    "c": "c",
    "omega": "omega",
    "d1": 0,
    "d2": 1,
    "d3": 2,
}


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    clip_negative: bool = False
    invariance_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt: must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end: must be nonnegative, got {self.t_end}")
        if self.invariance_tol < 0.0:
            raise ValueError(f"invariance_tol: must be nonnegative, got {self.invariance_tol}")


@dataclass(frozen=True)
class ParamJump:
    """One scheduled discontinuous parameter change."""

    t: float
    name: str
    value: float


def apply_jump(params: ModelParams, jump: ParamJump) -> ModelParams:
    target = _JUMPABLE.get(jump.name)
    if target is None:
        raise ValueError(f"schedule: unknown parameter {jump.name!r}; allowed: {sorted(_JUMPABLE)}")
    if isinstance(target, int):
        diff = list(params.diff)
        diff[target] = jump.value
        return replace(params, diff=tuple(diff))
    return replace(params, **{target: jump.value})


def validate_schedule(schedule, t_end: float, params: ModelParams) -> tuple[ParamJump, ...]:
    """Check ordering, the (0, t_end) window, and that each jump stays valid."""
    jumps = tuple(schedule)
    current = params
    prev_t = 0.0
    for j in jumps:
        if not 0.0 < j.t < t_end:
            raise ValueError(f"schedule: jump time {j.t} outside (0, {t_end})")
        if j.t <= prev_t:
            raise ValueError(f"schedule: jump times must be strictly increasing (got {j.t} after {prev_t})")
        prev_t = j.t
        current = apply_jump(current, j)  # raises on invalid resulting params
    return jumps


@dataclass(frozen=True)
class InitialData:
    """Named initial-segment presets; all are Lipschitz in time by construction.

    uniform:                 constant fields at ``values``
    gaussian_bump:           ``values`` plus a bump of per-component amplitude
    equilibrium_perturbation: equilibrium plus epsilon * D(x) * w with D the
                             direction shape (constant or gaussian_bump) and
                             w a unit component vector
    The time profile is constant or a linear ramp reaching the target state
    at the newest time (ramp start: the equilibrium when one is given, else
    the target scaled by 1 - ramp_depth).
    """

    preset: str = "uniform"
    values: tuple[float, float, float] = (50.0, 10.0, 10.0)
    bump_amp: tuple[float, float, float] = (5.0, 1.0, 1.0)
    bump_center: float | None = None
    bump_width: float | None = None
    epsilon: float = 0.0
    direction: str = "constant"
    weights: tuple[float, float, float] | None = None
    equilibrium: Equilibrium | None = None
    profile: str = "constant_in_time"
    ramp_depth: float = 0.1

    def __post_init__(self) -> None:
        if self.preset not in ("uniform", "gaussian_bump", "equilibrium_perturbation"):
            raise ValueError(f"preset: unknown initial-data preset {self.preset!r}")
        if self.profile not in ("constant_in_time", "linear_ramp"):
            raise ValueError(f"profile: unknown history profile {self.profile!r}")
        if self.direction not in ("constant", "gaussian_bump"):
            raise ValueError(f"direction: unknown perturbation direction {self.direction!r}")
        if not 0.0 <= self.ramp_depth < 1.0:
            raise ValueError(f"ramp_depth: must lie in [0, 1), got {self.ramp_depth}")


def uniform_state(grid: Grid1D, values: tuple[float, float, float]) -> FieldState:
    return FieldState(
        np.full(grid.nx, float(values[0])),
        np.full(grid.nx, float(values[1])),
        np.full(grid.nx, float(values[2])),
    )


def equilibrium_state(grid: Grid1D, eq: Equilibrium) -> FieldState:
    """Lift the spatially constant equilibrium onto the grid."""
    return uniform_state(grid, (eq.T_hat, eq.T_star_hat, eq.V_hat))


def _bump_profile(grid: Grid1D, center: float | None, width: float | None) -> np.ndarray:
    x = grid.nodes()
    c = center if center is not None else 0.5 * (grid.x_min + grid.x_max)
    w = width if width is not None else 0.1 * grid.length
    return np.exp(-(((x - c) / w) ** 2))


def _target_state(initial: InitialData, grid: Grid1D) -> FieldState:
    if initial.preset == "uniform":
        return uniform_state(grid, initial.values)
    if initial.preset == "gaussian_bump":
        shape = _bump_profile(grid, initial.bump_center, initial.bump_width)
        base = initial.values
        amp = initial.bump_amp
        return FieldState(
            base[0] + amp[0] * shape,
            base[1] + amp[1] * shape,
            base[2] + amp[2] * shape,
        )
    eq = initial.equilibrium
    if eq is None:
        # resolved by the caller (the CLI looks it up by eq_index) before
        # any segment can be generated
        raise ValueError("equilibrium: required for the equilibrium_perturbation preset")
    w = np.asarray(initial.weights if initial.weights is not None else (1.0, 1.0, 1.0), dtype=float)
    w = w / np.linalg.norm(w)
    if initial.direction == "gaussian_bump":
        shape = _bump_profile(grid, initial.bump_center, initial.bump_width)
    else:
        shape = np.ones(grid.nx)
    return FieldState(
        eq.T_hat + initial.epsilon * w[0] * shape,
        eq.T_star_hat + initial.epsilon * w[1] * shape,
        eq.V_hat + initial.epsilon * w[2] * shape,
    )


def build_initial_segment(
    initial: InitialData,
    grid: Grid1D,
    h_max: float,
    dt: float,
    t0: float = 0.0,
) -> HistorySegment:
    """Materialize the preset as a history segment ending at t0."""
    target = _target_state(initial, grid)
    if initial.profile == "constant_in_time":
        return HistorySegment.from_profile(h_max, dt, t0, lambda t: target)
    goal = np.array((target.T, target.T_star, target.V))
    if initial.equilibrium is not None:
        eq = equilibrium_state(grid, initial.equilibrium)
        start = np.array((eq.T, eq.T_star, eq.V))
    else:
        start = (1.0 - initial.ramp_depth) * goal

    def profile(t: float) -> FieldState:
        a = min(max((t - (t0 - h_max)) / h_max, 0.0), 1.0)
        return FieldState(*(start + a * (goal - start)))

    return HistorySegment.from_profile(h_max, dt, t0, profile)


def omega_lip_bounds(params: ModelParams, mu: float | None) -> tuple[float, float, float] | None:
    """Upper bounds of the invariant box; None when no mu is available."""
    if mu is None:
        return None
    emwh = math.exp(-params.omega * params.h_max)
    return (
        params.lam / params.d,
        params.lam * mu * emwh / (params.d * params.delta),
        params.burst_n * params.lam * mu * emwh / (params.d * params.c),
    )


def rhs(
    state: np.ndarray,
    delayed: np.ndarray,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
) -> np.ndarray:
    """Reaction plus diffusion right-hand side of (..., 3, nx) rows T, T_star,
    V; the delayed row feeds only the infected-cell production term."""
    T, T_star, V = state[..., 0, :], state[..., 1, :], state[..., 2, :]
    emwh = math.exp(-params.omega * params.h_max)
    out = np.empty(state.shape)
    np.subtract(params.lam - params.d * T, incidence_values(f, T, V), out=out[..., 0, :])
    np.subtract(
        emwh * incidence_values(f, delayed[..., 0, :], delayed[..., 2, :]), params.delta * T_star, out=out[..., 1, :]
    )
    np.subtract(params.burst_n * params.delta * T_star, params.c * V, out=out[..., 2, :])
    if any(params.diff):
        lap = laplacian_neumann(grid, state)
        lap *= params.diff_column
        if all(params.diff):
            out += lap
        else:  # + 0 * lap would turn -0.0 into +0.0 and inf into nan
            for i in [i for i, d in enumerate(params.diff) if d]:
                out[..., i, :] += lap[..., i, :]
    return out


def step(
    seg: HistorySegment,
    params: ModelParams,
    f: IncidenceFn,
    df: DelayFunctional,
    cfg: SolverConfig,
    grid: Grid1D,
    dt: float | None = None,
    frozen: np.ndarray | None = None,
):
    """Advance one explicit Euler step; the lag is taken at the step start.
    Returns eta, clipped and finite (per member with a member axis) and the committed row's ``_extremes``.

    The new row is written straight into the segment's next row.  A member
    whose new row is nonfinite (by its extremes), or that is ``frozen``,
    keeps its last good row; the row is committed unless every member kept
    its old one, so a blow-up leaves a one-run segment at the last good state.
    """
    dt_step = cfg.dt if dt is None else dt
    # (*members, 3, nx); taken first, because it may slide the store under
    # any row view taken before it
    row = seg.next_row()
    lag = evaluate_eta(df, seg)
    delayed = delayed_state(seg, lag)
    u = seg.fields[-1]
    # blow-ups are detected below and surfaced as an abort, so let the
    # arithmetic produce inf/nan silently instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(u, np.multiply(dt_step, rhs(u, delayed, params, f, grid), out=row), out=row)
    clipped = 0
    if cfg.clip_negative:
        clipped = np.count_nonzero(row < 0.0, axis=(-2, -1))
        np.maximum(row, 0.0, out=row)
    extremes = _extremes(row)
    finite = np.isfinite(extremes).all(axis=(0, -1))
    keep = ~finite if frozen is None else ~finite | frozen
    if (kept := np.count_nonzero(keep)) < keep.size:
        if kept:
            row[keep] = u[keep]
            extremes = _extremes(row)
        seg.push(seg.t_now + dt_step)
    return lag, clipped, finite, extremes


@dataclass
class Trajectory:
    """Sampled run output with per-sample delay and box diagnostics.

    ``times`` (n,) and ``fields`` (n, 3, nx) are views of the rows of
    ``history``, the run's history store from the first sample on.
    """

    grid: Grid1D
    h_max: float
    dt: float
    history: HistorySegment | None = None
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    fields: np.ndarray = field(default_factory=lambda: np.empty((0, 3, 0)))
    eta: np.ndarray = field(default_factory=lambda: np.empty(0))
    lower_violations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    upper_violations: np.ndarray | None = None
    bounds: tuple[float, float, float] | None = None
    clip_events: int = 0
    aborted: bool = False
    abort_time: float | None = None
    compat_residual: float | None = None

    def __len__(self) -> int:
        return len(self.times)

    def state(self, k: int) -> FieldState:
        """Sample k (negative counts from the last) as views of its row."""
        return FieldState(*self.fields[k])

    def segment_at(self, k: int) -> HistorySegment:
        """History view ending at sample k (negative counts from the last),
        copying nothing; needs times[k] - h_max >= times[0]."""
        if not -len(self) <= k < len(self):
            raise IndexError(f"segment_at: sample {k} outside the {len(self)} samples")
        k %= len(self)
        t_k = float(self.times[k])
        t_start = t_k - self.h_max
        j0 = int(np.searchsorted(self.times, t_start + 1e-9 * self.dt, side="right")) - 1
        if j0 < 0:
            raise ValueError(f"segment_at: sample {k} (t={t_k}) lacks {self.h_max} of trailing history")
        return self.history.view(j0, k + 1)


def _upper_limits(bounds, tol: float) -> np.ndarray | None:
    """The (3, 1) column a row must not exceed, or None without bounds."""
    return None if bounds is None else np.array(bounds)[:, None] + tol


def _extremes(row: np.ndarray) -> np.ndarray:
    """Per-component (min, max) of a (*members, 3, nx) row, as (2, *members, 3); NaN propagates."""
    return np.array((np.minimum.reduce(row, axis=-1), np.maximum.reduce(row, axis=-1)))


def _violations(row: np.ndarray, extremes: np.ndarray, limits: np.ndarray | None, tol: float):
    """Box excursions of a (*members, 3, nx) row, below 0 and above the limits: two ints, or two
    lists of one int per member; a side that the row's ``_extremes`` keep inside counts 0 at once."""
    none = 0 if row.ndim == 2 else [0] * len(row)
    lower = none if (extremes[0] >= -tol).all() else np.count_nonzero(row < -tol, axis=(-2, -1)).tolist()
    inside = limits is None or (extremes[1] <= limits[:, 0]).all()
    return lower, none if inside else np.count_nonzero(row > limits, axis=(-2, -1)).tolist()


class Sample(NamedTuple):
    """One committed sample: its time, its (*members, 3, nx) row, the lag
    eta the step leaving it used, its lower/upper box excursion counts,
    each per member with a member axis, and the row's ``_extremes``."""

    t: float
    row: np.ndarray
    eta: float | np.ndarray
    lower: int | list[int]
    upper: int | list[int]
    extremes: np.ndarray


class RunStream:
    """One run's time loop: iterating it integrates to t_end, applying
    parameter jumps exactly at their times, and yields each ``Sample`` in
    order.

    Row k is complete only once the step leaving it has run (its eta is
    that step's lag), so it is yielded after that step, read from the store
    then; the last row's eta is evaluated on the final segment.  A sample's
    ``row`` is a view into ``history``: unless the store is pinned (see
    ``history``), it is valid only until the next sample.  A nonfinite
    state aborts the run after the sample of the last good row.  Run
    diagnostics accumulate on the stream: ``bounds`` (after the jumps so
    far), ``clip_events``, ``aborted`` and ``abort_time``.

    Given a sequence of ``InitialData``, the stream advances one member per
    entry, with (B, 3, nx) rows at shared times; the diagnostics and
    ``compat_residual`` are then per member.  An aborted member is frozen
    at its last good row, its abort sample carries that row, and its later
    samples are to be ignored; the stream ends when every member aborted.
    """

    def __init__(
        self,
        initial,
        params: ModelParams,
        f: IncidenceFn,
        df: DelayFunctional,
        cfg: SolverConfig,
        grid: Grid1D,
        schedule=(),
    ):
        self.jumps = validate_schedule(schedule, cfg.t_end, params) if schedule else ()
        if isinstance(initial, InitialData):
            self.history = build_initial_segment(initial, grid, params.h_max, cfg.dt)
        else:
            segs = [build_initial_segment(i, grid, params.h_max, cfg.dt) for i in initial]
            fields = np.stack([seg.fields for seg in segs], axis=1)
            self.history = HistorySegment(params.h_max, cfg.dt, segs[0].times, fields)
        self.compat_residual = compatibility_residual(self.history, params, f, df, grid)
        self._args = (params, f, df, cfg, grid)
        self._mu = incidence_mu(f)
        self.bounds = omega_lip_bounds(params, self._mu)
        members = self.history.members
        self._clips = np.zeros(members, dtype=int)
        self._aborted = np.zeros(members, dtype=bool)
        self._abort_time = np.full(members, math.nan)

    @property
    def clip_events(self):
        return self._clips.tolist()

    @property
    def aborted(self):
        return self._aborted.tolist()

    @property
    def abort_time(self):
        """The start of the step that blew up, or None."""
        return np.where(self._aborted, self._abort_time, None).tolist()

    def __iter__(self) -> Iterator[Sample]:
        params, f, df, cfg, grid = self._args
        seg, jumps, tol = self.history, self.jumps, cfg.invariance_tol
        t0 = seg.t_now
        t_final = t0 + cfg.t_end
        limits = _upper_limits(self.bounds, tol)
        extremes = _extremes(seg.fields[-1])
        box = (*_violations(seg.fields[-1], extremes, limits, tol), extremes)
        ji = 0
        t_slack = 1e-6 * cfg.dt  # absorbs accumulated float drift of t += dt
        while seg.t_now < t_final - t_slack:
            t = seg.t_now
            while ji < len(jumps) and t >= (t0 + jumps[ji].t) - t_slack:
                params = apply_jump(params, jumps[ji])
                self.bounds = omega_lip_bounds(params, self._mu)
                limits = _upper_limits(self.bounds, tol)
                log.info("applied jump at t=%.6g: %s -> %.6g", t, jumps[ji].name, jumps[ji].value)
                ji += 1
            dt_step = min(cfg.dt, t_final - t)
            if ji < len(jumps):
                dt_step = min(dt_step, (t0 + jumps[ji].t) - t)
            eta, clipped, finite, extremes = step(seg, params, f, df, cfg, grid, dt=dt_step, frozen=self._aborted)
            if cfg.clip_negative:
                self._clips += clipped * ~self._aborted
            if not finite.all():
                new = ~(finite | self._aborted)
                self._abort_time[new] = t
                self._aborted |= new
                for m in np.flatnonzero(new).tolist():
                    log.error("solver abort: nonfinite state after t=%.6g%s", t, f" (member {m})" if seg.members else "")
                if self._aborted.all():
                    yield Sample(t, seg.fields[-1], eta, *box)
                    return
            yield Sample(t, seg.fields[-2], eta, *box)
            box = (*_violations(seg.fields[-1], extremes, limits, tol), extremes)
        yield Sample(seg.t_now, seg.fields[-1], evaluate_eta(df, seg), *box)


def run(
    initial,
    params: ModelParams,
    f: IncidenceFn,
    df: DelayFunctional,
    cfg: SolverConfig,
    grid: Grid1D,
    schedule=(),
):
    """Integrate to t_end, applying parameter jumps exactly at their times,
    and keep every sample.

    A nonfinite state aborts the run; the trajectory keeps every sample up
    to the last good time and carries the abort diagnostics.  Given a
    sequence of ``InitialData``, the members run as one ``RunStream`` and
    the result is one ``Trajectory`` per member, each a view of that
    member's rows and equal to its solo run.
    """
    stream = RunStream(initial, params, f, df, cfg, grid, schedule)
    seg = stream.history
    # one row per step, one shortened step per jump, one row of float drift
    seg.reserve(math.ceil(cfg.t_end / cfg.dt) + len(stream.jumps) + 1)
    origin = seg.view(len(seg) - 1, len(seg))
    samples = [(s.eta, s.lower, s.upper) for s in stream]
    etas, lower, upper = (np.array(c) for c in zip(*samples))
    diag = (stream.aborted, stream.abort_time, stream.clip_events, stream.compat_residual)
    if not seg.members:
        return _trajectory(grid, stream.bounds, origin, etas, lower, upper, *diag)
    return [
        _trajectory(grid, stream.bounds, origin.member(m), etas[:, m], lower[:, m], upper[:, m], *(d[m] for d in diag))
        for m in range(seg.members[0])
    ]


def _trajectory(grid, bounds, origin, eta, lower, upper, aborted, abort_time, clip_events, compat_residual):
    """One run's Trajectory over the stored rows from ``origin`` on; a
    member that aborted keeps its samples up to its abort."""
    history = origin.view(0, len(eta))
    if aborted:
        history = history.view(0, int(np.searchsorted(history.times, abort_time)) + 1)
    n = len(history)
    return Trajectory(
        grid=grid,
        h_max=history.h_max,
        dt=history.dt,
        history=history,
        times=history.times,
        fields=history.fields,
        eta=eta[:n],
        lower_violations=lower[:n],
        upper_violations=upper[:n] if bounds is not None else None,
        bounds=bounds,
        clip_events=clip_events,
        aborted=aborted,
        abort_time=abort_time,
        compat_residual=compat_residual,
    )


def compatibility_residual(
    seg: HistorySegment,
    params: ModelParams,
    f: IncidenceFn,
    df: DelayFunctional,
    grid: Grid1D,
):
    """Sup-norm mismatch between the segment's end slope and the vector field,
    one per member with a member axis.

    Finite-difference proxy for the smooth-data compatibility condition;
    Lipschitz-only data (drug-administration ramps) legitimately leave it
    large, so this is reported, never gated on.
    """
    fields = seg.fields
    udot = (1.0 / float(seg.times[-1] - seg.times[-2])) * (fields[-1] - fields[-2])
    vec = rhs(fields[-1], delayed_state(seg, evaluate_eta(df, seg)), params, f, grid)
    return np.max(np.abs(udot - vec), axis=(-2, -1)).tolist()
