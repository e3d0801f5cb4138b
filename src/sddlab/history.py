"""Trailing solution history and the state-dependent delay functional.

The true state of a delay system is the segment of the solution over the
trailing window [t - h, t].  ``HistorySegment`` keeps a ring of snapshots
at (nominally) the solver step spacing and serves two queries: the delayed
field at an arbitrary lag (linear interpolation in time, nodewise in
space), and the delay functional

    eta(u_t) = rho( integral_{-h}^{0} xi(u(t + theta)) kappa(theta) dtheta ),

whose output always lies in [0, h].  The constant kind short-circuits the
quadrature; the integral kind is the special case kappa = 1, rho =
identity-then-clamp.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Grid1D, mean_value

__all__ = [
    "FieldState",
    "HistorySegment",
    "DelayFunctional",
    "constant_delay",
    "integral_delay",
    "wrapped_delay",
    "state_mean_reducer",
    "smooth_clamp",
    "evaluate_eta",
    "delayed_state",
]


@dataclass(frozen=True)
class FieldState:
    """The three spatial fields at one instant, on a shared grid."""

    T: np.ndarray
    T_star: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float))
        object.__setattr__(self, "T_star", np.asarray(self.T_star, dtype=float))
        object.__setattr__(self, "V", np.asarray(self.V, dtype=float))
        if not (self.T.shape == self.T_star.shape == self.V.shape):
            raise ValueError("FieldState: components must share one grid")

    def copy(self) -> "FieldState":
        return FieldState(self.T.copy(), self.T_star.copy(), self.V.copy())

    def allfinite(self) -> bool:
        return bool(np.all(np.isfinite(self.T)) and np.all(np.isfinite(self.T_star)) and np.all(np.isfinite(self.V)))

    def __add__(self, other: "FieldState") -> "FieldState":
        return FieldState(self.T + other.T, self.T_star + other.T_star, self.V + other.V)

    def __sub__(self, other: "FieldState") -> "FieldState":
        return FieldState(self.T - other.T, self.T_star - other.T_star, self.V - other.V)

    def __mul__(self, a: float) -> "FieldState":
        return FieldState(a * self.T, a * self.T_star, a * self.V)

    __rmul__ = __mul__


class HistorySegment:
    """Snapshots (time, FieldState) covering at least [t - h_max, t].

    Single writer (the solver) appends via :meth:`push`; eviction drops an
    oldest snapshot only once its successor still covers the window start,
    so an interpolation bracket for t - h_max is always retained.  Spacing
    is the solver step dt except for at most one shortened step per
    scheduled parameter jump.
    """

    __slots__ = ("h_max", "dt", "_times", "_states")

    def __init__(self, h_max: float, dt: float, times: Sequence[float], states: Sequence[FieldState]):
        if not h_max > 0.0:
            raise ValueError(f"h_max: must be positive, got {h_max}")
        if not dt > 0.0:
            raise ValueError(f"dt: must be positive, got {dt}")
        if len(times) != len(states) or len(times) < 2:
            raise ValueError("HistorySegment: need matching times/states with at least two snapshots")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("HistorySegment: times must be strictly increasing")
        self.h_max = float(h_max)
        self.dt = float(dt)
        self._times = deque(float(t) for t in times)
        self._states = deque(states)
        if not self.covers():
            raise ValueError(
                f"HistorySegment: snapshots span [{self._times[0]}, {self._times[-1]}], "
                f"shorter than the delay window h_max={h_max}"
            )

    @classmethod
    def from_profile(cls, h_max: float, dt: float, t_now: float, profile: Callable[[float], FieldState]) -> "HistorySegment":
        """Build an initial segment by sampling profile(t) on [t_now - h, t_now]."""
        m = int(np.ceil(h_max / dt - 1e-9))
        if m * dt < h_max:
            m += 1
        times = [t_now - (m - i) * dt for i in range(m + 1)]
        return cls(h_max, dt, times, [profile(t) for t in times])

    @property
    def t_now(self) -> float:
        return self._times[-1]

    @property
    def state_now(self) -> FieldState:
        return self._states[-1]

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self._times)

    @property
    def states(self) -> tuple[FieldState, ...]:
        return tuple(self._states)

    def __len__(self) -> int:
        return len(self._times)

    def covers(self) -> bool:
        return self._times[0] <= self.t_now - self.h_max + 1e-9 * self.dt

    def push(self, t: float, state: FieldState) -> None:
        if t <= self.t_now:
            raise ValueError(f"push: time must advance ({t} <= {self.t_now})")
        self._times.append(float(t))
        self._states.append(state)
        cutoff = t - self.h_max
        while len(self._times) > 2 and self._times[1] <= cutoff + 1e-9 * self.dt:
            self._times.popleft()
            self._states.popleft()

    def state_at(self, t_query: float) -> FieldState:
        """Linear interpolation in time; exact snapshot on node hits."""
        tq = float(t_query)
        lo, hi = self._times[0], self._times[-1]
        slack = 1e-9 * self.dt
        if tq < lo - slack or tq > hi + slack:
            raise ValueError(f"state_at: query {tq} outside covered window [{lo}, {hi}]")
        tq = min(max(tq, lo), hi)
        times = self._times
        j = bisect_left(times, tq)
        if j < len(times) and abs(times[j] - tq) <= slack:
            return self._states[j]
        if j > 0 and abs(times[j - 1] - tq) <= slack:
            return self._states[j - 1]
        t0, t1 = times[j - 1], times[j]
        w = (tq - t0) / (t1 - t0)
        return (1.0 - w) * self._states[j - 1] + w * self._states[j]


@dataclass(frozen=True)
class DelayFunctional:
    """eta(u_t) as a tagged family: constant, integral, or wrapped.

    xi reduces a FieldState to a scalar, kappa weights the history window,
    and rho is a differentiable map of the inner integral into [0, h_max].
    """

    kind: str
    h_max: float
    eta_const: float = 0.0
    xi: Callable[[FieldState], float] | None = None
    kappa: Callable[[float], float] | None = None
    rho: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "integral", "wrapped"):
            raise ValueError(f"kind: unknown delay kind {self.kind!r}")
        if not self.h_max > 0.0:
            raise ValueError(f"h_max: must be positive, got {self.h_max}")
        if self.kind == "constant":
            if not 0.0 <= self.eta_const <= self.h_max:
                raise ValueError(f"eta_const: must lie in [0, {self.h_max}], got {self.eta_const}")
        elif self.xi is None:
            raise ValueError(f"xi: required for the {self.kind} kind")


def constant_delay(h_max: float, eta: float) -> DelayFunctional:
    return DelayFunctional("constant", h_max, eta_const=eta)


def integral_delay(h_max: float, xi: Callable[[FieldState], float]) -> DelayFunctional:
    """eta = clamp of integral xi(u(t+theta)) dtheta over [-h, 0]."""
    return DelayFunctional("integral", h_max, xi=xi)


def wrapped_delay(
    h_max: float,
    xi: Callable[[FieldState], float],
    kappa: Callable[[float], float] | None = None,
    rho: Callable[[float], float] | None = None,
) -> DelayFunctional:
    """General form with weight kappa and differentiable clamp rho."""
    return DelayFunctional("wrapped", h_max, xi=xi, kappa=kappa, rho=rho or smooth_clamp(h_max))


def state_mean_reducer(grid: Grid1D, component: str = "V", scale: float = 1.0) -> Callable[[FieldState], float]:
    """xi as the scaled quadrature mean of one field component."""
    if component not in ("T", "T_star", "V"):
        raise ValueError(f"component: must be one of T, T_star, V, got {component!r}")

    def xi(state: FieldState) -> float:
        return scale * mean_value(grid, getattr(state, component))

    return xi


def smooth_clamp(h_max: float, band: float = 0.01) -> Callable[[float], float]:
    """C^1 saturating map of the real line onto [0, h_max].

    Identity-then-clamp with the two corners replaced by quadratic blends
    over a band of width 2*band*h_max, so the map stays differentiable as
    the delay-rate analysis requires.
    """
    b = band * h_max

    def rho(s: float) -> float:
        if s <= -b:
            return 0.0
        if s < b:
            return (s + b) * (s + b) / (4.0 * b)
        if s <= h_max - b:
            return s
        if s < h_max + b:
            return h_max - (h_max + b - s) * (h_max + b - s) / (4.0 * b)
        return h_max

    return rho


def _window_nodes(seg: HistorySegment) -> tuple[list[float], list[FieldState]]:
    """Quadrature nodes for [t - h, t]: snapshots plus the exact window start."""
    t_now = seg.t_now
    t_start = t_now - seg.h_max
    slack = 1e-9 * seg.dt
    times = seg.times
    states = seg.states
    nodes: list[float] = []
    vals: list[FieldState] = []
    for t, s in zip(times, states):
        if t >= t_start - slack:
            nodes.append(t)
            vals.append(s)
    if not nodes or nodes[0] > t_start + slack:
        nodes.insert(0, t_start)
        vals.insert(0, seg.state_at(t_start))
    return nodes, vals


def evaluate_eta(df: DelayFunctional, seg: HistorySegment) -> float:
    """Trapezoidal quadrature of xi*kappa over the window, then rho.

    The result is clamped into [0, h_max] regardless of the rho supplied.
    Raises if the segment does not cover the full window (solver misuse).
    """
    if df.kind == "constant":
        return df.eta_const
    if not seg.covers():
        raise ValueError("evaluate_eta: segment does not cover [t - h_max, t]")
    nodes, vals = _window_nodes(seg)
    t_now = seg.t_now
    g = []
    for t, s in zip(nodes, vals):
        w = df.kappa(t - t_now) if df.kappa is not None else 1.0
        g.append(w * df.xi(s))
    raw = 0.0
    for i in range(len(nodes) - 1):
        raw += 0.5 * (g[i] + g[i + 1]) * (nodes[i + 1] - nodes[i])
    if df.kind == "wrapped" and df.rho is not None:
        raw = df.rho(raw)
    return min(max(raw, 0.0), df.h_max)


def delayed_state(seg: HistorySegment, lag: float) -> FieldState:
    """The fields at time t - lag; lag = 0 returns the newest snapshot."""
    if not 0.0 <= lag <= seg.h_max * (1.0 + 1e-12):
        raise ValueError(f"delayed_state: lag {lag} outside [0, {seg.h_max}]")
    if lag == 0.0:
        return seg.state_now
    return seg.state_at(seg.t_now - lag)
