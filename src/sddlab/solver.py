"""Method-of-lines time stepping with state-dependent delay.

Space is discretized first (``grid``), then the resulting delay ODE system
is advanced by explicit Euler: eta is evaluated once on the segment at the
step start, and the delayed field is read there by linear interpolation of
the history.  The method is first order; a higher-order stepper would need
a continuous extension of the history, not just more stages on a frozen
delayed field (Bellen & Zennaro, Numerical Methods for Delay Differential
Equations, 2003).  A component with d_i == 0 gets no diffusion term at all.

The step's constants are bound 0-d float64 operands, derived once per
parameter set in ``ModelParams`` (at the start and at each jump), per f in
``IncidenceFn`` and, with its buffers and views, per stream in a ``_StepPlan``
(the stencil's by ``grid._bind_laplacian``); the plan broadcasts the loss and
diffusion columns to row-shaped blocks once per parameter set.  ``rhs``
copies the current row and both rows' T and V (f's inputs) into contiguous
blocks and runs ``tests/oracles.rhs_ref``'s operations in their order, each a
ufunc with a positional out into a bound buffer; ``step`` writes dt (a 0-d
operand, rebuilt when the step length changes) times that into the store's
next row, adds the current row in place and commits it at t + dt.

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
excursions beyond ``invariance_tol``: the plan's guard puts each new row's
per-component min and max between the box's ends, widened by it (set at
the start and at each jump), and one comparison passes finite rows inside;
only a row that fails is counted entry by entry.  Negative clipping is off
by default: the exact dynamics preserve positivity, so violations indicate
step-size trouble and are surfaced rather than silently fixed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .equilibria import Equilibrium
from .grid import Grid1D, _bind_laplacian
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
    """Step size and end time; whether each step clips negative entries to 0, and the box excursion tolerance."""

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


class ParamJump(NamedTuple):
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


def build_initial_segment(initial, grid: Grid1D, h_max: float, dt: float, reach: float | None = None) -> HistorySegment:
    """Materialize a preset, or a sequence of them (the members, stacked on
    axis 1), as a history segment over [-reach, 0] (reach defaults to
    h_max): rows every dt back from 0, the oldest at or before -reach, at
    least two.  They are the last rows of the segment over [-h_max, 0], and
    a linear ramp still ramps over [-h_max, 0]."""
    single = isinstance(initial, InitialData)
    reach = h_max if reach is None else reach
    m = max(int(np.ceil(reach / dt - 1e-9)), 1)
    if m * dt < reach:
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
    return HistorySegment(h_max, dt, times, fields, reach)


def omega_lip_bounds(params: ModelParams, mu: float | None) -> tuple[float, float, float] | None:
    """Upper bounds of the invariant box; None when no mu is available."""
    if mu is None:
        return None
    return (
        params.lam / params.d,
        params.lam * mu * params.emwh / (params.d * params.delta),
        params.burst_n * params.lam * mu * params.emwh / (params.d * params.c),
    )


class _StepPlan:
    """``rhs`` for one stream's (*members, 3, nx) rows, f and grid, with every
    buffer and view bound once: the current row, f's inputs as one contiguous
    block [T | V][current | delayed] (f(T, V) of both rows in one evaluation),
    f(T, V) and its denominator, the result by component, the Laplacian, whose
    buffer also takes the loss product, and the box guard's buffers; ``step``
    keeps dt there as a 0-d ``dt``.  The params' ``loss`` and ``diff_column``
    are kept as contiguous row-shaped blocks, rebuilt when the params are not
    the last call's (a jump replaces them); the stream sets the guard's band."""

    def __init__(self, shape: tuple[int, ...], f: IncidenceFn, grid: Grid1D):
        self.f, self.out, self.lap, self.state = f, np.empty(shape), np.empty(shape), np.empty(shape)
        self.T, self.V = block = np.empty((2, 2, *shape[:-2], shape[-1]))
        # (*members, 2, nx) views of the block's current and delayed T and V, and of the current row's
        (self.TV_now, self.TV_delayed), self.state_TV = np.moveaxis(block, (1, 0), (0, -2)), self.state[..., ::2, :]
        self.params, self.loss, self.diff_column = None, np.empty(shape), np.empty(shape)
        self.f_now, self.f_delayed = self.fv = np.empty(self.T.shape)
        self.den, self.dt_step, self.dt, self.T_star = np.empty(self.T.shape), math.nan, None, self.state[..., 1, :]
        self.parts, self.lap_parts = ([a[..., i, :] for i in range(3)] for a in (self.out, self.lap))
        self.laplacian = _bind_laplacian(grid, self.state, self.lap)
        # the guard's two (4, *members, 3) buffers [lo, min, max, hi], taken in turn, as a sample's extremes
        # live until the next sample; lo and hi stay NaN, which fails every test, until ``set_band``
        self.boxes = np.full((2, 4, *shape[:-1]), np.nan)
        self._guards = [(E[1], E[2], E[1:3], E[0::2], E[1::2], np.empty((2, *shape[:-1]), bool)) for E in self.boxes]

    def set_band(self, bounds, tol: float) -> None:
        """The (2, 3) ``band`` [-tol, upper + tol] of a row's per-component (min, max), in both buffers too;
        without bounds its top is the largest float, so that NaN and +-inf fall outside it too."""
        top = np.full(3, np.finfo(float).max) if bounds is None else np.add(bounds, tol)
        self.band = np.array((np.full(3, -tol), top))
        self.boxes[:, 0], self.boxes[:, 3] = self.band

    def guard(self, row: np.ndarray, again: bool = False) -> tuple[np.ndarray, bool]:
        """Write the per-component (min, max) of a (*members, 3, nx) row, NaN propagating, into the next buffer
        (the same one ``again``); return them and whether all lie in the band: one test [lo, max] <= [min, hi]."""
        if not again:
            self._guards.reverse()
        low, high, extremes, left, right, ok = self._guards[0]
        np.minimum.reduce(row, -1, None, low)
        np.maximum.reduce(row, -1, None, high)
        np.less_equal(left, right, ok)
        return extremes, np.count_nonzero(ok) == ok.size

    def __call__(self, state, delayed, params: ModelParams) -> np.ndarray:
        np.copyto(self.state, state)
        np.copyto(self.TV_now, self.state_TV)
        np.copyto(self.TV_delayed, delayed[..., ::2, :])
        incidence_values(self.f, self.T, self.V, self.fv, self.den)
        if params is not self.params:  # the first call's, or a jump's
            self.params = params
            np.copyto(self.loss, params.loss)
            np.copyto(self.diff_column, params.diff_column)
        out, (dT, dT_star, dV), (emwh, burst_delta) = self.out, self.parts, params.gains
        # the gains, then the losses d T, delta T_star, c V of all three at once
        dT.fill(params.lam)
        np.multiply(self.f_delayed, emwh, dT_star)
        np.multiply(self.T_star, burst_delta, dV)
        np.subtract(out, np.multiply(self.state, self.loss, self.lap), out)
        np.subtract(dT, self.f_now, dT)
        if params.diffusing:
            lap = np.multiply(self.laplacian(), self.diff_column, self.lap)
            if len(params.diffusing) == 3:
                np.add(out, lap, out)
            else:  # + 0 * lap would turn -0.0 into +0.0 and inf into nan
                for i in params.diffusing:
                    np.add(self.parts[i], self.lap_parts[i], self.parts[i])
        return out


def rhs(state: np.ndarray, delayed: np.ndarray, params: ModelParams, f: IncidenceFn, grid: Grid1D,
        plan: _StepPlan | None = None) -> np.ndarray:
    """Reaction plus diffusion right-hand side of (..., 3, nx) rows T, T_star,
    V; the delayed row feeds only the infected-cell production term.  Each
    entry is made by ``tests/oracles.rhs_ref``'s operations in their order, so
    it has the oracle's bits.  Computed by ``plan`` (built for this f, grid and
    shape) or a one-off plan, into its result buffer, valid until its next call."""
    return (plan or _StepPlan(np.shape(state), f, grid))(state, delayed, params)


def step(seg: HistorySegment, params: ModelParams, f: IncidenceFn, df: DelayFunctional, cfg: SolverConfig, grid: Grid1D,
         dt: float | None = None, frozen: np.ndarray | None = None, lag: float | np.ndarray | None = None,
         plan: _StepPlan | None = None):
    """Advance one explicit Euler step with the lag at the step start, or
    the given one (a constant delay's).
    Returns eta, clipped, finite (per member with a member axis) and the
    committed row's per-component (min, max), in a buffer of ``plan``.

    The new row is written straight into the segment's next row.  If the
    guard of ``plan`` (the stream's; else a one-off one without a band,
    which passes nothing) finds it in the band and no member is ``frozen``,
    it is committed at once and finite is ``True``.  Otherwise a nonfinite or
    ``frozen`` member keeps its last good row, and the row is committed unless
    every member kept its old one: a blow-up leaves the last good state.
    """
    dt_step = cfg.dt if dt is None else dt
    # (*members, 3, nx); taken first, because it may slide the store under
    # any row view taken before it
    row = seg.next_row()
    lag = evaluate_eta(df, seg) if lag is None else lag
    delayed = delayed_state(seg, df.eta_const if df.kind == "constant" else lag)
    u, plan = seg.fields[-1], plan or _StepPlan(row.shape, f, grid)
    t_next = seg.t_now + dt_step
    if dt_step != plan.dt_step:  # the first step, a jump-shortened one and the next, a shortened last one
        plan.dt_step, plan.dt = dt_step, np.array(dt_step)
    # blow-ups are detected below and surfaced as an abort, so let the
    # arithmetic produce inf/nan silently instead of warning
    with np.errstate(all="ignore"):
        np.add(np.multiply(rhs(u, delayed, params, f, grid, plan=plan), plan.dt, row), u, row)
    clipped = 0
    if cfg.clip_negative:
        clipped = np.count_nonzero(row < 0.0, axis=(-2, -1))
        np.maximum(row, 0.0, out=row)
    extremes, inside = plan.guard(row)
    if inside and frozen is None:  # every member finite, no excursion to count
        seg.push(t_next)
        return lag, clipped, True, extremes
    finite = np.isfinite(extremes).all(axis=(0, -1))
    keep = ~finite if frozen is None else ~finite | frozen
    if (kept := np.count_nonzero(keep)) < keep.size:
        if kept:
            row[keep] = u[keep]
            extremes, _ = plan.guard(row, again=True)
        seg.push(t_next)
    return lag, clipped, finite, extremes


class Trajectory:
    """Sampled run output with per-sample delay and box diagnostics.

    ``history`` holds the run's rows from the first sample on; ``times``
    (n,), ``fields`` (n, 3, nx), ``h_max`` and ``dt`` are read from it, the
    first two as views of its rows.  A plain class, as ``@dataclass`` would
    build its methods by ``exec`` at every import.
    """

    def __init__(self, history: HistorySegment, eta: np.ndarray, lower_violations: np.ndarray | None = None,
                 upper_violations: np.ndarray | None = None, bounds: tuple[float, float, float] | None = None,
                 clip_events: int = 0, aborted: bool = False, abort_time: float | None = None,
                 compat_residual: float | None = None) -> None:
        self.history, self.eta = history, eta
        self.lower_violations = np.empty(0, dtype=int) if lower_violations is None else lower_violations
        self.upper_violations, self.bounds, self.clip_events = upper_violations, bounds, clip_events
        self.aborted, self.abort_time, self.compat_residual = aborted, abort_time, compat_residual
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


def _violations(row: np.ndarray, extremes: np.ndarray, band: np.ndarray, bounded: bool, inside: bool = False):
    """Box excursions of a (*members, 3, nx) row outside the plan's ``band``, its top only if ``bounded``: two ints,
    or two lists of one int per member; a side the ``extremes`` keep inside (each if ``inside``) counts 0."""
    none = 0 if row.ndim == 2 else [0] * len(row)
    low = inside or (extremes[0] >= band[0]).all()
    high = inside or not bounded or (extremes[1] <= band[1]).all()
    return (none if low else np.count_nonzero(row < band[0, :, None], axis=(-2, -1)).tolist(),
            none if high else np.count_nonzero(row > band[1, :, None], axis=(-2, -1)).tolist())


class Sample(NamedTuple):
    """One committed sample: its time, its (*members, 3, nx) row, the lag
    eta the step leaving it used, its lower/upper box excursion counts,
    each per member with a member axis, and the row's per-component (min,
    max), (2, *members, 3).  ``row`` and ``extremes`` are views into the
    stream's buffers, valid until the next sample is asked for."""

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
        # a constant lag reads no row older than t - eta: the store keeps only those
        reach = min(df.eta_const, params.h_max) if df.kind == "constant" else None
        self.history = build_initial_segment(initial, grid, params.h_max, cfg.dt, reach)
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
        t = t0 = seg.t_now  # each step's start; push lands on the same float, t + dt_step
        t_final, bounded = t0 + cfg.t_end, self.bounds is not None
        lag = evaluate_eta(df, seg) if df.kind == "constant" else None  # the same (read-only) lag every step
        plan = _StepPlan(seg.fields.shape[1:], f, grid)
        plan.set_band(self.bounds, tol)
        extremes, _ = plan.guard(seg.fields[-1])
        box = (*_violations(seg.fields[-1], extremes, plan.band, bounded), extremes)
        ji, frozen = 0, None  # the next jump; the aborted mask, once a member aborted
        t_slack = 1e-6 * cfg.dt  # absorbs accumulated float drift of t += dt
        while t < t_final - t_slack:
            while ji < len(jumps) and t >= (t0 + jumps[ji].t) - t_slack:
                params = apply_jump(params, jumps[ji])
                self.bounds = omega_lip_bounds(params, self._mu)
                plan.set_band(self.bounds, tol)
                log.info("applied jump at t=%.6g: %s -> %.6g", t, jumps[ji].name, jumps[ji].value)
                ji += 1
            dt_step = min(cfg.dt, t_final - t)
            if ji < len(jumps):
                dt_step = min(dt_step, (t0 + jumps[ji].t) - t)
            eta, clipped, finite, extremes = step(seg, params, f, df, cfg, grid, dt_step, frozen, lag, plan)
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
            t += dt_step
            box = (*_violations(seg.fields[-1], extremes, plan.band, bounded, finite is True), extremes)
        yield Sample(t, seg.fields[-1], evaluate_eta(df, seg) if lag is None else lag, *box)


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
