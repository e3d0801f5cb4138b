"""Method-of-lines time stepping with state-dependent delay.

Space is discretized first (``grid``), then the resulting delay ODE system
is advanced by explicit Euler: eta is evaluated once on the segment at the
step start, and the delayed field is read there by linear interpolation of
the history.  The method is first order; a higher-order stepper would need
a continuous extension of the history, not just more stages on a frozen
delayed field (Bellen & Zennaro, Numerical Methods for Delay Differential
Equations, 2003).  A component with d_i == 0 gets no diffusion term at all.

The step's constants are derived once per parameter set, in ``ModelParams``
(at the stream's start and at each jump); ``rhs`` writes into the store's
next row by the operations of ``tests/oracles.rhs_ref`` in their order, and
``step`` scales that row by dt and adds the current row in place.

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
excursions beyond ``invariance_tol``: one test of each new row's min and
max against the box widened by it passes finite rows inside, and only a
row that fails is counted entry by entry.  Negative clipping is off by
default: the exact dynamics preserve positivity, so violations indicate
step-size trouble and are surfaced rather than silently fixed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .equilibria import Equilibrium
from .grid import Grid1D, laplacian_neumann
from .history import DelayFunctional, HistorySegment, delayed_state, evaluate_eta
from .model import IncidenceFn, ModelParams, incidence_mu, incidence_values

__all__ = [
    "SolverConfig",
    "ParamJump",
    "validate_schedule",
    "apply_jump",
    "InitialData",
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
        # written so that NaN fails each test
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt: must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"t_end: must be nonnegative and finite, got {self.t_end}")
        if not 0.0 <= self.invariance_tol < math.inf:
            raise ValueError(f"invariance_tol: must be nonnegative and finite, got {self.invariance_tol}")


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
        # each entry of the triples, by name; written so that NaN fails each test
        entries = {f"{n}[{i}]": v for n in ("values", "bump_amp", "weights") for i, v in enumerate(getattr(self, n) or ())}
        for name, value in {**entries, "bump_center": self.bump_center, "epsilon": self.epsilon}.items():
            if value is not None and not -math.inf < value < math.inf:
                raise ValueError(f"{name}: must be finite, got {value}")
        if self.weights is not None and not any(self.weights):
            raise ValueError(f"weights: must not all be zero, got {self.weights}")
        if self.bump_width is not None and not 0.0 < self.bump_width < math.inf:
            raise ValueError(f"bump_width: must be positive and finite, got {self.bump_width}")


def _bump_profile(grid: Grid1D, center: float | None, width: float | None) -> np.ndarray:
    x = grid.nodes()
    c = center if center is not None else 0.5 * (grid.x_min + grid.x_max)
    w = width if width is not None else 0.1 * grid.length
    return np.exp(-(((x - c) / w) ** 2))


def _column(values) -> np.ndarray:
    """Three per-component values as a (3, 1) column, constant in space."""
    return np.array(values, dtype=float)[:, None]


def _target_row(initial: InitialData, grid: Grid1D) -> np.ndarray:
    """The (3, nx) row T, T_star, V that the preset reaches at the newest time."""
    if initial.preset == "uniform":
        return np.repeat(_column(initial.values), grid.nx, axis=1)
    bump = initial.preset == "gaussian_bump" or initial.direction == "gaussian_bump"
    shape = _bump_profile(grid, initial.bump_center, initial.bump_width) if bump else np.ones(grid.nx)
    if initial.preset == "gaussian_bump":
        return _column(initial.values) + _column(initial.bump_amp) * shape
    eq = initial.equilibrium
    if eq is None:
        # resolved by the caller (the CLI looks it up by eq_index) before
        # any segment can be generated
        raise ValueError("equilibrium: required for the equilibrium_perturbation preset")
    w = np.asarray(initial.weights if initial.weights is not None else (1.0, 1.0, 1.0), dtype=float)
    w = w / np.linalg.norm(w)
    return _column((eq.T_hat, eq.T_star_hat, eq.V_hat)) + initial.epsilon * w[:, None] * shape


def build_initial_segment(initial, grid: Grid1D, h_max: float, dt: float) -> HistorySegment:
    """Materialize a preset, or a sequence of them (the members, stacked on
    axis 1), as a history segment over [-h_max, 0]: rows every dt back
    from 0, the oldest at or before -h_max."""
    single = isinstance(initial, InitialData)
    m = int(np.ceil(h_max / dt - 1e-9))
    if m * dt < h_max:
        m += 1
    times = 0.0 - np.arange(m, -1, -1) * dt  # 0.0 - x, not -x: the newest time is +0.0
    a = np.clip((times + h_max) / h_max, 0.0, 1.0)[:, None, None]  # the ramp's weight of the goal
    rows = []
    for one in [initial] if single else initial:
        goal = _target_row(one, grid)
        if one.profile == "constant_in_time":
            rows.append(np.broadcast_to(goal, (len(times),) + goal.shape))
            continue
        eq = one.equilibrium  # the ramp starts there, else at the goal scaled by 1 - ramp_depth
        start = (1.0 - one.ramp_depth) * goal if eq is None else _column((eq.T_hat, eq.T_star_hat, eq.V_hat))
        rows.append(start + a * (goal - start))
    fields = rows[0] if single else np.stack(rows, axis=1)
    return HistorySegment(h_max, dt, times, fields)


def omega_lip_bounds(params: ModelParams, mu: float | None) -> tuple[float, float, float] | None:
    """Upper bounds of the invariant box; None when no mu is available."""
    if mu is None:
        return None
    return (
        params.lam / params.d,
        params.lam * mu * params.emwh / (params.d * params.delta),
        params.burst_n * params.lam * mu * params.emwh / (params.d * params.c),
    )


def rhs(
    state: np.ndarray,
    delayed: np.ndarray,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reaction plus diffusion right-hand side of (..., 3, nx) rows T, T_star,
    V, written into ``out`` (a new array by default), which must not overlap
    either row; the delayed row feeds only the infected-cell production term.
    Each entry is made by ``tests/oracles.rhs_ref``'s operations in their
    order, so it has the oracle's bits."""
    out = np.empty(state.shape) if out is None else out
    dT, dT_star, dV = out[..., 0, :], out[..., 1, :], out[..., 2, :]
    pair = np.array((state, delayed))  # f(T, V) of both rows in one evaluation
    f_now, f_delayed = incidence_values(f, pair[..., 0, :], pair[..., 2, :])
    # the gains, then the losses d T, delta T_star, c V of all three at once
    dT.fill(params.lam)
    np.multiply(f_delayed, params.emwh, out=dT_star)
    np.multiply(state[..., 1, :], params.burst_delta, out=dV)
    out -= np.multiply(state, params.loss)
    dT -= f_now
    if params.diffusing:
        lap = laplacian_neumann(grid, state)
        lap *= params.diff_column
        if len(params.diffusing) == 3:
            out += lap
        else:  # + 0 * lap would turn -0.0 into +0.0 and inf into nan
            for i in params.diffusing:
                row = out[..., i, :]
                row += lap[..., i, :]
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
    band: np.ndarray | None = None,
    lag: float | np.ndarray | None = None,
):
    """Advance one explicit Euler step with the lag at the step start, or the
    given one (a constant delay's).  Returns eta, clipped, finite (per member
    with a member axis) and the committed row's ``_extremes``.

    The new row is written straight into the segment's next row.  If its
    extremes lie in the stream's ``_band`` and no member is ``frozen``, it is
    committed at once and finite is ``True``.  Otherwise a nonfinite or
    ``frozen`` member keeps its last good row, and the row is committed unless
    every member kept its old one: a blow-up leaves the last good state.
    """
    dt_step = cfg.dt if dt is None else dt
    # (*members, 3, nx); taken first, because it may slide the store under
    # any row view taken before it
    row = seg.next_row()
    lag = evaluate_eta(df, seg) if lag is None else lag
    delayed = delayed_state(seg, df.eta_const if df.kind == "constant" else lag)
    u = seg.fields[-1]
    # blow-ups are detected below and surfaced as an abort, so let the
    # arithmetic produce inf/nan silently instead of warning
    with np.errstate(all="ignore"):
        rhs(u, delayed, params, f, grid, out=row)
        row *= dt_step
        row += u
    clipped = 0
    if cfg.clip_negative:
        clipped = np.count_nonzero(row < 0.0, axis=(-2, -1))
        np.maximum(row, 0.0, out=row)
    extremes = _extremes(row)
    if band is not None and frozen is None:  # one test: every member finite, no excursion to count
        if np.count_nonzero((band[0] <= extremes[0]) & (extremes[1] <= band[1])) == extremes[0].size:
            seg.push(seg.t_now + dt_step)
            return lag, clipped, True, extremes
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

    ``history`` holds the run's rows from the first sample on; ``times``
    (n,), ``fields`` (n, 3, nx), ``h_max`` and ``dt`` are read from it, the
    first two as views of its rows.
    """

    history: HistorySegment
    eta: np.ndarray
    lower_violations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    upper_violations: np.ndarray | None = None
    bounds: tuple[float, float, float] | None = None
    clip_events: int = 0
    aborted: bool = False
    abort_time: float | None = None
    compat_residual: float | None = None

    def __post_init__(self) -> None:
        history = self.history
        self.times, self.fields, self.h_max, self.dt = history.times, history.fields, history.h_max, history.dt

    def __len__(self) -> int:
        return len(self.times)

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


def _band(bounds, tol: float) -> np.ndarray:
    """The (2, 3) band [-tol, upper + tol] of a row's per-component (min, max); without bounds its top
    is the largest float, so that NaN and +-inf fall outside it too."""
    return np.array((np.full(3, -tol), np.full(3, np.finfo(float).max) if bounds is None else np.add(bounds, tol)))


def _extremes(row: np.ndarray) -> np.ndarray:
    """Per-component (min, max) of a (*members, 3, nx) row, as (2, *members, 3); NaN propagates."""
    return np.array((np.minimum.reduce(row, axis=-1), np.maximum.reduce(row, axis=-1)))


def _violations(row: np.ndarray, extremes: np.ndarray, band: np.ndarray, bounded: bool, inside: bool = False):
    """Box excursions of a (*members, 3, nx) row outside the ``_band``, its top only if ``bounded``: two ints,
    or two lists of one int per member; a side the ``_extremes`` keep inside (each if ``inside``) counts 0."""
    none = 0 if row.ndim == 2 else [0] * len(row)
    low = inside or (extremes[0] >= band[0]).all()
    high = inside or not bounded or (extremes[1] <= band[1]).all()
    return (none if low else np.count_nonzero(row < band[0, :, None], axis=(-2, -1)).tolist(),
            none if high else np.count_nonzero(row > band[1, :, None], axis=(-2, -1)).tolist())


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
        if not isinstance(initial, InitialData) and not (initial := list(initial)):
            raise ValueError("RunStream: no members")
        self.history = build_initial_segment(initial, grid, params.h_max, cfg.dt)
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
        bounded, band = self.bounds is not None, _band(self.bounds, tol)
        lag = evaluate_eta(df, seg) if df.kind == "constant" else None  # the same (read-only) lag every step
        extremes = _extremes(seg.fields[-1])
        box = (*_violations(seg.fields[-1], extremes, band, bounded), extremes)
        ji, frozen = 0, None  # the next jump; the aborted mask, once a member aborted
        t_slack = 1e-6 * cfg.dt  # absorbs accumulated float drift of t += dt
        while seg.t_now < t_final - t_slack:
            t = seg.t_now
            while ji < len(jumps) and t >= (t0 + jumps[ji].t) - t_slack:
                params = apply_jump(params, jumps[ji])
                self.bounds = omega_lip_bounds(params, self._mu)
                band = _band(self.bounds, tol)
                log.info("applied jump at t=%.6g: %s -> %.6g", t, jumps[ji].name, jumps[ji].value)
                ji += 1
            dt_step = min(cfg.dt, t_final - t)
            if ji < len(jumps):
                dt_step = min(dt_step, (t0 + jumps[ji].t) - t)
            eta, clipped, finite, extremes = step(seg, params, f, df, cfg, grid, dt_step, frozen, band, lag)
            if cfg.clip_negative:
                self._clips += clipped * ~self._aborted
            if finite is not True and not finite.all():
                new = ~(finite | self._aborted)
                self._abort_time[new] = t
                self._aborted |= new
                frozen = self._aborted
                for m in np.flatnonzero(new).tolist():
                    log.error("solver abort: nonfinite state after t=%.6g%s", t, f" (member {m})" if seg.members else "")
                if self._aborted.all():
                    yield Sample(t, seg.fields[-1], eta, *box)
                    return
            yield Sample(t, seg.fields[-2], eta, *box)
            box = (*_violations(seg.fields[-1], extremes, band, bounded, finite is True), extremes)
        yield Sample(seg.t_now, seg.fields[-1], evaluate_eta(df, seg) if lag is None else lag, *box)


def run(
    initial: InitialData,
    params: ModelParams,
    f: IncidenceFn,
    df: DelayFunctional,
    cfg: SolverConfig,
    grid: Grid1D,
    schedule=(),
) -> Trajectory:
    """Integrate one run to t_end, applying parameter jumps exactly at their
    times, and keep every sample.

    A nonfinite state aborts the run; the trajectory keeps every sample up
    to the last good time and carries the abort diagnostics.  Members, a
    sequence of ``InitialData``, advance as one ``RunStream``.
    """
    if not isinstance(initial, InitialData):
        raise TypeError(f"run: takes one InitialData, not {type(initial).__name__}; members run as a RunStream")
    stream = RunStream(initial, params, f, df, cfg, grid, schedule)
    seg = stream.history
    # one row per step, one shortened step per jump, one row of float drift
    seg.reserve(math.ceil(cfg.t_end / cfg.dt) + len(stream.jumps) + 1)
    origin = seg.view(len(seg) - 1, len(seg))  # pins the store under the trajectory's rows
    etas, lower, upper = (np.array(c) for c in zip(*[(s.eta, s.lower, s.upper) for s in stream]))
    return Trajectory(
        history=origin.view(0, len(etas)),
        eta=etas,
        lower_violations=lower,
        upper_violations=upper if stream.bounds is not None else None,
        bounds=stream.bounds,
        clip_events=stream.clip_events,
        aborted=stream.aborted,
        abort_time=stream.abort_time,
        compat_residual=stream.compat_residual,
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
