"""Trailing solution history and the state-dependent delay functional.

The true state of a delay system is the segment of the solution over the
trailing window [t - h, t]; a constant lag eta reads only [t - eta, t], and
a segment keeps rows back to its ``reach`` (h, or eta for a constant lag,
which ``RunStream`` sets).  The history is stored once, as two append-only
arrays: row times (n,) and fields (n, 3, nx).  A ``HistorySegment`` is an
index range of rows over that store; the run's ``Trajectory`` reads the
same rows, so a step is written once and a segment ending at any sample is
a view, not a copy.  The rows may carry a leading member axis, fields (n,
B, 3, nx): B runs that share their row times (``certify``'s perturbations)
are stored, and queried, as one.  A segment serves two queries: the delayed
field at an arbitrary lag (linear interpolation in time, nodewise in space),
and the delay functional

    eta(u_t) = rho( integral_{-h}^{0} xi(u(t + theta)) kappa(theta) dtheta ),

whose output always lies in [0, h].  The constant kind short-circuits the
quadrature; the integral kind is the special case kappa = 1, rho =
identity-then-clamp.  The functional works on whole arrays: xi maps rows
(..., 3, nx) to values (...), kappa takes the array of node offsets theta,
and rho the array of inner integrals.  A stored row never changes, so each
row's xi value is computed once and cached beside it, in a float buffer
keyed by the xi callable: xi must be a pure function of each row it is
given.  With a member axis, eta and the delayed field are per member, each
with the bits of that member alone: the members share their row times, so
``window_starts`` finds the row at t_k - lag of every member, for the
step's newest row or every sample of a monitored block, with one search,
and interpolates the windows that start between rows in one expression.

When ``push`` finds the buffers full, a store that has never handed out a
``view`` (one over ``members``, as ``certify``'s monitor reads, does not
count) slides its live rows (the segment's window, and the older rows a
reader ``hold``s: ``certify``'s pending monitor block), and their cached xi
values, to the front of the buffers, doubling them only while the live rows
fill more than two thirds; a store that has (``run`` keeps its whole
trajectory this way) is pinned and doubles its buffers instead, so every
view keeps reading its own rows.  An unpinned store therefore holds about
twice its live rows, however long the run, and a numpy view of its rows is
valid only until the next row is added.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Grid1D, mean_value

__all__ = [
    "HistorySegment",
    "DelayFunctional",
    "constant_delay",
    "integral_delay",
    "wrapped_delay",
    "state_mean_reducer",
    "smooth_clamp",
    "evaluate_eta",
    "delayed_state",
    "window_starts",
]

BAND = 0.01  # smooth_clamp's corner half-width, as a fraction of h_max

Reducer = Callable[[np.ndarray], np.ndarray]  # xi: rows (..., 3, nx) -> values (...)


class _Rows:
    """The stored history: the first n rows of the buffers times (cap,) and
    fields (cap, *members, 3, nx), per xi callable a buffer (cap, *members)
    and the count of its leading rows that hold xi values, whether a view
    pins the rows where they are, and the time of the oldest row a reader
    still needs."""

    __slots__ = ("times", "fields", "n", "xi", "pinned", "hold")

    def __init__(self, times: np.ndarray, fields: np.ndarray):
        self.times, self.fields, self.n = times, fields, len(times)
        self.xi: dict[Reducer, list] = {}  # xi -> [values, count]
        self.pinned = False
        self.hold = np.inf


class HistorySegment:
    """Rows (time, fields) covering at least [t - reach, t]: the index range
    [lo, hi) of an append-only array store.  ``h_max`` is the model's h;
    ``reach`` (at most h_max, h_max unless given) is the oldest lag read.

    The single writer (the solver) appends via :meth:`push`; eviction moves
    lo past an oldest row only once its successor still covers the window
    start, so an interpolation bracket for t - reach is always retained.
    Evicted rows stay stored until a full buffer slides them out (see the
    module docstring), and :meth:`view` gives the segment over any stored
    rows without a copy, which pins the store.  Spacing is the solver step
    dt except for at most one shortened step per scheduled parameter jump.
    """

    __slots__ = ("h_max", "reach", "dt", "_rows", "_lo", "_hi")

    def __init__(self, h_max: float, dt: float, times: Sequence[float], fields: np.ndarray, reach: float | None = None):
        if not h_max > 0.0:
            raise ValueError(f"h_max: must be positive, got {h_max}")
        if reach is not None and not 0.0 <= reach <= h_max:
            raise ValueError(f"reach: must lie in [0, {h_max}], got {reach}")
        if not dt > 0.0:
            raise ValueError(f"dt: must be positive, got {dt}")
        if len(times) < 2:
            raise ValueError("HistorySegment: need at least two snapshots")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("HistorySegment: times must be strictly increasing")
        fields = np.array(fields, dtype=float, order="C")  # the store's own copy, row after row
        if fields.ndim < 3 or fields.shape[0] != len(times) or fields.shape[-2] != 3:
            raise ValueError(f"HistorySegment: fields of shape {fields.shape} are not ({len(times)}, *members, 3, nx)")
        self.h_max = float(h_max)
        self.reach = self.h_max if reach is None else float(reach)
        self.dt = float(dt)
        self._rows = _Rows(np.array(times, dtype=float), fields)
        self._lo, self._hi = 0, len(times)
        if not self.covers():
            raise ValueError(
                f"HistorySegment: snapshots span [{times[0]}, {times[-1]}], "
                f"shorter than the delay window reach={self.reach}"
            )

    def view(self, lo: int, hi: int, members=None) -> "HistorySegment":
        """The segment over rows lo..hi-1, counted from this segment's first
        row (a negative lo reaches the stored rows before it) up to the
        newest stored row; copies nothing and pins the store.  Given
        ``members`` (an index of the member axis: ``slice(None)``, a list
        that gathers, an int that drops the axis), it reads those rows from a
        record of its own, pinned instead: valid until the next push; read only."""
        if not -self._lo <= lo < hi <= self._rows.n - self._lo:
            raise ValueError(f"view: rows [{lo}, {hi}) outside the stored history")
        seg = object.__new__(HistorySegment)
        seg.h_max, seg.reach, seg.dt, seg._rows = self.h_max, self.reach, self.dt, self._rows
        seg._lo, seg._hi = self._lo + lo, self._lo + hi
        if members is not None:
            seg._rows = _Rows(self._rows.times[seg._lo : seg._hi], self._rows.fields[seg._lo : seg._hi, members])
            seg._lo, seg._hi = 0, hi - lo
        seg._rows.pinned = True
        return seg

    @property
    def members(self) -> tuple[int, ...]:
        """The member shape: () for one run, (B,) for B runs stored as one."""
        return self._rows.fields.shape[1:-2]

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more pushes, so that none reallocates.  A
        holder of the old buffers still reads correct rows: stored rows never change."""
        r = self._rows
        if r.n + rows > len(r.times):
            times, fields = np.empty(r.n + rows), np.empty((r.n + rows,) + r.fields.shape[1:])
            times[: r.n], fields[: r.n] = r.times[: r.n], r.fields[: r.n]
            r.times, r.fields = times, fields
            for cache in r.xi.values():
                vals, done = cache
                cache[0] = np.empty((r.n + rows,) + vals.shape[1:])
                cache[0][:done] = vals[:done]

    @property
    def t_now(self) -> float:
        return self._rows.times.item(self._hi - 1)

    @property
    def times(self) -> np.ndarray:
        return self._rows.times[self._lo : self._hi]

    @property
    def fields(self) -> np.ndarray:
        """(len, 3, nx) view of the window's rows: T, T_star, V."""
        return self._rows.fields[self._lo : self._hi]

    def __len__(self) -> int:
        return self._hi - self._lo

    def covers(self) -> bool:
        return self._rows.times[self._lo] <= self.t_now - self.reach + 1e-9 * self.dt

    def hold(self, t: float) -> None:
        """Keep the stored rows from time t on, also those older than the
        window, until the next hold."""
        self._rows.hold = t

    def next_row(self) -> np.ndarray:
        """The (3, nx) row after the newest, to fill in place before
        ``push(t)`` commits it; until then it is not part of the history."""
        rows = self._growing_rows()
        if rows.n == len(rows.times):
            first = min(self._lo, bisect_left(rows.times, rows.hold, 0, rows.n))  # the oldest live row
            # sliding moves at most two rows per row it frees
            if not rows.pinned and 2 * first >= rows.n - first:
                self._slide(first)
            else:
                self.reserve(rows.n)
        return rows.fields[rows.n]

    def _growing_rows(self) -> _Rows:
        """The store, if this segment ends at its newest stored row: only such a segment can grow."""
        if self._hi != self._rows.n:
            raise ValueError("push: only a segment ending at the newest stored row can grow")
        return self._rows

    def _slide(self, first: int) -> None:
        """Move rows first..n-1 and their cached xi values to the front."""
        rows = self._rows
        live = rows.n - first
        rows.times[:live] = rows.times[first : rows.n]
        rows.fields[:live] = rows.fields[first : rows.n]
        for cache in rows.xi.values():
            vals, done = cache
            cache[1] = max(done - first, 0)
            vals[: cache[1]] = vals[first:done]
        rows.n, self._lo, self._hi = live, self._lo - first, live

    def push(self, t: float) -> None:
        """Commit the filled ``next_row()`` as the row at time t; ``next_row`` makes the room it needs, so
        a full store means it was not called."""
        rows = self._growing_rows()
        if rows.n == len(rows.times):
            raise ValueError("push: the store is full; fill the row next_row() gives first")
        if t <= (now := rows.times.item(self._hi - 1)):
            raise ValueError(f"push: time must advance ({t} <= {now})")
        rows.times[rows.n] = t
        rows.n += 1
        self._hi += 1
        cutoff = t - self.reach + 1e-9 * self.dt
        while self._hi - self._lo > 2 and rows.times[self._lo + 1] <= cutoff:
            self._lo += 1

    def window(self, t_lo: float) -> tuple[np.ndarray, int, np.ndarray | None]:
        """Trapezoid nodes over [t_lo, t_now] as (nodes, i, start): the times
        of window rows i, i+1, ...  A row within 1e-9*dt of t_lo is row i and
        keeps its own time (start is None; nodes is then a view of the row
        times); otherwise t_lo leads the nodes, with the interpolated (3, nx)
        ``start`` (*members, 3, nx).
        """
        times, lo, hi = self._rows.times, self._lo, self._hi
        slack = 1e-9 * self.dt
        first, last = times.item(lo), times.item(hi - 1)
        if not first - slack <= t_lo <= last + slack:
            raise ValueError(f"history: time {t_lo} outside the covered window [{first}, {last}]")
        j = bisect_left(times, t_lo - slack, lo, hi)  # the first stored row at or after it
        t_j = times.item(j)
        if t_j <= t_lo + slack:
            return times[j:hi], j - lo, None
        t_prev = times.item(j - 1)
        w = (t_lo - t_prev) / (t_j - t_prev)
        fields = self._rows.fields
        start = (1.0 - w) * fields[j - 1] + w * fields[j]
        return np.concatenate(([t_lo], times[j:hi])), j - lo, start

    def xi_values(self, xi: Reducer) -> np.ndarray:
        """xi of every row of the window, (len, *members), as a view of the
        cache; each stored row is reduced once."""
        rows = self._rows
        cache = rows.xi.get(xi)
        if cache is None:
            cache = rows.xi[xi] = [np.empty(rows.times.shape + self.members), 0]
        vals, done = cache
        if done < self._hi:
            vals[done : self._hi] = xi(rows.fields[done : self._hi])
            cache[1] = self._hi
        return vals[self._lo : self._hi]


@dataclass(frozen=True)
class DelayFunctional:
    """eta(u_t) as a tagged family: constant, integral, or wrapped.

    xi reduces rows (..., 3, nx) to values (...) and must be pure, since its
    values are cached per row; kappa weights the history window at an array
    of offsets theta in [-h_max, 0]; rho maps an array of inner integrals,
    differentiably, into [0, h_max] (``evaluate_eta`` clamps its result).
    """

    kind: str
    h_max: float
    eta_const: float = 0.0
    xi: Reducer | None = None
    kappa: Callable[[np.ndarray], np.ndarray] | None = None
    rho: Callable[[np.ndarray], np.ndarray] | None = None

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


def integral_delay(h_max: float, xi: Reducer) -> DelayFunctional:
    """eta = clamp of integral xi(u(t+theta)) dtheta over [-h, 0]."""
    return DelayFunctional("integral", h_max, xi=xi)


def wrapped_delay(
    h_max: float,
    xi: Reducer,
    kappa: Callable[[np.ndarray], np.ndarray] | None = None,
    rho: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DelayFunctional:
    """General form with weight kappa and differentiable clamp rho."""
    return DelayFunctional("wrapped", h_max, xi=xi, kappa=kappa, rho=rho or smooth_clamp(h_max))


def state_mean_reducer(grid: Grid1D, component: str = "V", scale: float = 1.0) -> Reducer:
    """xi as the scaled quadrature mean of one field component."""
    if component not in ("T", "T_star", "V"):
        raise ValueError(f"component: must be one of T, T_star, V, got {component!r}")
    c = ("T", "T_star", "V").index(component)

    def xi(rows: np.ndarray) -> np.ndarray:
        return scale * mean_value(grid, rows[..., c, :])

    return xi


def smooth_clamp(h_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """C^1 saturating map of the real line onto [0, h_max], elementwise.

    Identity-then-clamp with the two corners replaced by quadratic blends
    over a band of width 2*BAND*h_max, so the map stays differentiable as
    the delay-rate analysis requires.  NaN maps to h_max.
    """
    b = BAND * h_max

    def rho(s: np.ndarray) -> np.ndarray:
        c = np.maximum(np.fmin(s, h_max + b), -b)  # s where a blend is taken; NaN goes to h_max + b
        low = np.where(c < b, (c + b) * (c + b) / (4.0 * b), c)
        return np.where(c > h_max - b, h_max - (h_max + b - c) * (h_max + b - c) / (4.0 * b), low)

    return rho


def evaluate_eta(df: DelayFunctional, seg: HistorySegment):
    """Trapezoidal quadrature of xi*kappa over the window, then rho: a float,
    or a (B,) array of one lag per member.

    The result is clamped into [0, h_max] regardless of the rho supplied.
    Raises if the segment does not cover the full window (solver misuse).
    """
    members = seg.members
    if df.kind == "constant":
        return np.broadcast_to(df.eta_const, members) if members else df.eta_const  # read-only
    t_now = seg.t_now
    nodes, i, start = seg.window(t_now - seg.h_max)
    g = seg.xi_values(df.xi)[i:]
    if start is not None:
        g = np.concatenate(([df.xi(start)], g))
    col = (slice(None),) + (None,) * len(members)  # a node column against (n, *members)
    if df.kappa is not None:
        g = df.kappa(nodes - t_now)[col] * g
    # summed left to right; 0.0 + turns an all -0.0 sum into +0.0, as summing from 0.0 does
    raw = 0.0 + np.add.accumulate(0.5 * (g[:-1] + g[1:]) * np.subtract(nodes[1:], nodes[:-1])[col])[-1]
    if df.kind == "wrapped" and df.rho is not None:
        raw = df.rho(raw)
    eta = np.minimum(np.maximum(raw, 0.0), df.h_max)  # a -0.0 from rho becomes +0.0
    return eta if members else float(eta)


def delayed_state(seg: HistorySegment, lag) -> np.ndarray:
    """The (3, nx) fields T, T_star, V at time t - lag; on a stored row, a
    view of that row.  With a member axis, ``lag`` is one float for all
    members, read by ``HistorySegment.window``, or one lag per member, of
    shape ``seg.members``: the (B, 3, nx) result is then ``window_starts``
    of the newest row (and a gather, if a read is on a row), each member
    with its solo read's bits."""
    if not isinstance(lag, float):
        lags = np.asarray(lag, dtype=float)
        if lags.shape:
            if lags.shape != seg.members:
                raise ValueError(f"delayed_state: lags of shape {lags.shape} for members {seg.members}")
            j, off, start = window_starts(seg, len(seg) - 1, lags)
            if off.all():  # start holds every member's row, in member order
                return start
            out = seg.fields[j, np.arange(len(j))]
            out[off] = start
            return out
        lag = lags.item()
    if not 0.0 <= lag <= seg.h_max * (1.0 + 1e-12):
        raise ValueError(f"delayed_state: lag {lag} outside [0, {seg.h_max}]")
    _, i, start = seg.window(seg.t_now - lag)
    return seg._rows.fields[seg._lo + i] if start is None else start


def window_starts(seg: HistorySegment, k, lags: np.ndarray,
                  components=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``HistorySegment.window`` at t_k - lag, for sample rows k of the segment
    (counted from its first row: an int, or (n,)) and lags (*k.shape, *members),
    with one search over the row times: (j, off, start).  j is each window's
    first row at or after t_k - lag, counted as k is, off whether t_k - lag
    falls between rows j - 1 and j, and start the interpolated (3, nx) rows
    where it does, in (sample, member) order, or only their ``components``
    (a slice of T, T_star, V).  Each lag must lie in [0, h_max] and each
    t_k - lag at or after the first row, as the window checks."""
    bound, most = seg.h_max * (1.0 + 1e-12), np.maximum.reduce(lags, None)
    if not (0.0 <= np.minimum.reduce(lags, None) and most <= bound):  # NaN fails too
        bad = next(lag for lag in lags.ravel().tolist() if not 0.0 <= lag <= bound)
        raise ValueError(f"delayed_state: lag {bad} outside [0, {seg.h_max}]")
    times, fields, slack = seg.times, seg.fields[..., components, :], 1e-9 * seg.dt
    members = fields.ndim - 3  # fields (len, *members, components, nx)
    t_k = times[k]
    if t_k.ndim:  # samples (n,): a sample's time against its members
        t_k = t_k[(...,) + (None,) * members]
    t_lo = t_k - lags
    first, earliest = times.item(0), np.minimum.reduce(t_lo, None) if t_k.ndim else t_k - most
    if not first - slack <= earliest:
        last = np.broadcast_to(t_k, t_lo.shape).flat[t_lo.argmin()]
        raise ValueError(f"history: time {earliest} outside the covered window [{first}, {last}]")
    j = times.searchsorted(t_lo - slack)  # the first stored row at or after each time
    t_j = times[j]
    off = t_j > t_lo + slack
    jo = j[off]
    t_prev = times[jo - 1]
    w = ((t_lo[off] - t_prev) / (t_j[off] - t_prev))[:, None, None]
    member = off.nonzero()[off.ndim - members :] if off.ndim else ()  # the member of each window off the rows
    start, end = fields[(jo - 1, *member)], fields[(jo, *member)]
    start *= 1.0 - w  # (1 - w) * row j - 1 + w * row j, in the two gathered arrays
    end *= w
    return j, off, np.add(start, end, out=start)
