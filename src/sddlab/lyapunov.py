"""Lyapunov functional along trajectories and empirical stability verdicts.

The functional is evaluated pointwise in space and integrated over the
domain.  At a node it is the sum of four nonnegative pieces built from the
Volterra function v(s) = s - 1 - ln(s):

    e^{-omega h} * ( T - T_hat - int_{T_hat}^{T} f_hat / f(theta, V_hat) dtheta )
    + T*_hat * v(T*/T*_hat)
    + (V_hat/N) * v(V/V_hat)
    + delta T*_hat * int_{t-eta(u_t)}^{t} v( f(T(theta,x), V(theta,x)) / f_hat ) dtheta

with f_hat = f(T_hat, V_hat).  Every supported incidence has the form
f(theta, V_hat) = k*V_hat*theta / (a + b*theta) with (a, b) from
``model.incidence_ab``, so the integral in the first piece has the
closed form

    G(T) = f_hat/(k V_hat) * ( a*ln(T/T_hat) + b*(T - T_hat) )

and, since f_hat/(k V_hat) = T_hat/(a + b T_hat), the first piece is

    e^{-omega h} * a T_hat/(a + b T_hat) * v(T/T_hat),

the Volterra-type construction of Korobeinikov, Bull. Math. Biol. 69
(2007).  It is evaluated in this form because T - T_hat and G(T) cancel
near the equilibrium.  The same (a, b) give df/dT = k V_hat a /
(a + b T)^2 for the diffusion term.

The time derivative decomposes into strictly dissipative terms (grouped
here as D_int >= 0, including the diffusion contribution Ddiff <= 0) and
one sign-indefinite term S_int proportional to the delay rate d(eta)/dt,
which vanishes identically for constant delay.
The monitor computes the rate both ways: by central differences of the
directly evaluated functional and from the decomposition; their mismatch is
reported as a discretization health metric.

The monitor works on blocks of ``MONITOR_BLOCK`` samples, as stacks of fields
(one row per sample and member) read by row index and integrated row by row;
one ``window_starts`` search, of T and V only, starts every window.  In the
last piece, f(T, V) and v(f/f_hat) are computed once per stored row of the
block, and the trapezoid term between two consecutive rows once per pair.
Every window of the block, one per sample and member, then sums into one
accumulator, stepped over row offsets: first the window's own term from
t - eta, then its pair terms in row order, a window that has ended masked out.
Each window so adds its terms left to right from 0, as one window alone would,
and each member gets the bits of its solo run.  A difference of one running
trapezoid sum would be cheaper, but near the equilibrium the small window
integral would cancel against the large running sum.  The rates read f at a
sample and at its t - eta from these windows and share each Volterra term, all
in the buffers of a ``_MonitorPlan``, kept for ``certify``'s stream, which
hands ``monitor`` each block of all its live members as it yields the rows, so
it stores about MONITOR_BLOCK * stride + h/dt rows, however long the run.

``monitor`` returns one ``np.recarray`` of ``LyapunovSample`` rows, member
after member; a row reads by attribute, a column is an array.  Any logarithm
argument at or below ``LOG_FLOOR`` marks the sample invalid, its row NaN but
for t, eta and eta_rate, instead of producing infinities; clamping would
silently corrupt the decrease verdict near the boundary of the positive cone.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from typing import NamedTuple, Sequence

import numpy as np
import numpy.random  # noqa: F401  every certify seeds a Generator; load it with the module, not in the run

from .equilibria import Equilibrium
from .grid import Grid1D, gradient_central, integrate
from .history import DelayFunctional, window_starts
from .history import evaluate_eta  # noqa: F401  the benchmark's tracer wraps this binding (perfbench/selftest.py)
from .model import IncidenceFn, ModelParams, incidence_ab, incidence_dT, incidence_values
from .solver import InitialData, RunStream, SolverConfig, Trajectory

__all__ = [
    "LOG_FLOOR",
    "u_sdd_fields",
    "u_sdd_total",
    "LyapunovSample",
    "rate_decomposition",
    "monitor",
    "distance_to_equilibrium",
    "StabilityVerdict",
    "certify_local_stability",
]

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-30
MONITOR_BLOCK = 16  # samples a block decomposes, for every live member at once; sets the peak memory
_TV = slice(None, None, 2)  # T and V of a (3, nx) row: all the monitor reads of a window's interpolated start


def _v(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized Volterra function, into ``out`` if given (``arr`` may be it); the caller guarantees positivity."""
    log = np.log(arr)
    return np.subtract(np.subtract(arr, 1.0, out), log, out)


class _MonitorPlan:
    """The buffers of one stream's monitor blocks, sized for blocks of up to
    ``rows`` stored rows of (*members, nx) ``shape``, regrown for a larger
    block and sliced per block: per stored row of its windows f(T, V), then v
    of its ratio to f_hat, and a scratch (f's denominator, the ratio, the pair
    terms); per window its accumulator.  ``tails`` also leaves f(T, V) at each
    window's t - eta (``f_start``) and at its sample (``f_at``) for the rates,
    which take them, so that they are freed before the rates' arrays."""

    def __init__(self, rows: int = 0, shape: tuple[int, ...] = ()):
        size = math.prod(shape)
        self.rows, self.windows = np.empty((2, rows * size)), np.empty((1, 3 * MONITOR_BLOCK * size))

    def _take(self, name: str, count: int, shape: tuple[int, ...]) -> np.ndarray:
        """``count`` entries of ``shape`` from the start of each flat array of buffer ``name``, regrown if short."""
        buf, size = getattr(self, name), count * math.prod(shape)
        if buf.shape[1] < size:
            setattr(self, name, buf := np.empty((len(buf), size)))
        return buf[:, :size].reshape((len(buf), count) + shape)

    def tails(self, traj: Trajectory, ks: np.ndarray, f: IncidenceFn, f_hat: float, nx: int):
        """``_delay_tails`` in this plan's buffers; the tails are one of them."""
        etas = traj.eta[ks]
        live = etas > 0.0
        lags = np.where(live, etas, 0.0)
        col = (slice(None),) + (None,) * (etas.ndim - 1)  # a sample's value against its members
        t_lo = traj.times[ks][col] - lags
        first, off, start = window_starts(traj.history, ks, lags, _TV)
        f0 = incidence_values(f, start[:, 0], start[:, 1])  # f at each interpolated start
        del start  # the arrays over every window, or every stored row, set the peak memory: hold few at once
        lo = first.min()
        times, rows = traj.times[lo : ks.max() + 1], traj.fields[lo : ks.max() + 1]
        shape, width = etas.shape[1:] + (nx,), math.prod(etas.shape[1:])
        w_rows, scratch = self._take("rows", len(times), shape)  # f of each row first
        ratio = np.divide(incidence_values(f, rows[..., 0, :], rows[..., 2, :], w_rows, scratch), f_hat, scratch)
        floors = np.any(ratio <= LOG_FLOOR, axis=-1)
        low = np.cumsum(np.concatenate((np.zeros_like(floors[:1]), floors)), axis=0).reshape(-1)

        # window rows [a, e) of the block; the first term runs from t - eta to
        # row b: from the interpolated start to row a, or from row a to row a + 1.
        # A window's (row, member) entry of the flat rows is row * width + cell.
        cell = np.arange(width).reshape(etas.shape[1:])
        a, e = first - lo, (ks + 1 - lo)[col]
        b = a + ~off
        terms = e - b  # the first term, then pairs b, b+1, ..., e-2
        floored = low[e * width + cell] > low[a * width + cell]
        acc = self._take("windows", len(ks), shape)[0]
        flat, at_a = w_rows.reshape(-1, nx), a * width + cell
        self.f_start, self.f_at = flat.take(at_a, 0), flat.take((e - 1) * width + cell, 0)
        self.f_start[off] = f0
        r0 = np.divide(f0, f_hat, f0)  # the ratio at each interpolated start, in place of f
        floored[off] |= np.any(r0 <= LOG_FLOOR, axis=-1)
        np.log(ratio, w_rows)
        np.subtract(np.subtract(ratio, 1.0, ratio), w_rows, w_rows)  # v(ratio), as _v computes it
        flat.take(at_a, 0, acc, "clip")  # the first term
        acc[off] = _v(r0)
        right = np.minimum(b, len(times) - 1)  # a one-row window has no term
        np.add(acc, flat.take(right * width + cell, 0, mode="clip"), acc)
        pairs, term = scratch[:-1], np.empty_like(acc)
        dts = np.subtract(times[1:], times[:-1])[(slice(None),) + (None,) * etas.ndim]
        np.multiply(np.multiply(0.5, np.add(w_rows[:-1], w_rows[1:], pairs), pairs), dts, pairs)
        np.multiply(np.multiply(acc, 0.5, acc), (times[right] - t_lo)[..., None], acc)
        np.add(acc, 0.0, acc)  # added to 0, as the sum starts: -0.0 becomes +0.0
        acc[terms <= 0] = 0.0
        # pair b + k - 1 of each window, from the (pair, member) rows; masked once a window is past its last
        flat, shortest, row = pairs.reshape(-1, nx), terms.min(), b * width + cell
        for k in range(1, terms.max()):
            flat.take(row, 0, term, "clip")
            row += width
            np.add(acc, term, out=acc, where=True if k < shortest else (k < terms)[..., None])
        return acc, ~(live & floored)


def _delay_tails(
    traj: Trajectory, ks: np.ndarray, f: IncidenceFn, f_hat: float, nx: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node trapezoid of v(f(T,V)/f_hat) over [t_k - eta_k, t_k] for each
    sample k of ks and member, with the lag the run recorded in ``traj.eta``:
    tails (*eta.shape, nx), eta (len(ks), *members), and whether no ratio hit
    the floor; no positive eta, no tail.  Computed in a one-off plan.

    v and its floor flag are computed once per stored row of the block the
    windows touch, and the trapezoid term between two consecutive rows once
    per pair.  A window's first node sits at t - eta exactly, also where a
    stored row stands for it, so its first term is its own; the rest are
    pair terms, summed left to right in one accumulator for all windows.
    """
    return _MonitorPlan().tails(traj, ks, f, f_hat, nx)


def u_sdd_fields(
    traj: Trajectory,
    ks,
    eq: Equilibrium,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
    plan: _MonitorPlan | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise functional at each sample k of ks (and member), with the
    delay the run recorded in ``traj.eta``: (*traj.eta[ks].shape, nx) fields
    and a validity mask.

    The delay window of a sample is read from the trajectory's own rows, in
    the buffers of ``plan`` or of a one-off plan.  A sample whose logarithm
    argument falls at or below the floor, at its row or in its delay window,
    is invalid and its row is NaN (invalidated, not clamped).
    """
    ks = np.asarray(ks, dtype=int)
    shape = traj.eta[ks].shape
    T_hat, Ts_hat, V_hat = eq.T_hat, eq.T_star_hat, eq.V_hat
    f_hat = float(incidence_values(f, T_hat, V_hat))
    with np.errstate(divide="ignore", invalid="ignore"):
        # first, as it holds the most memory; also at a degenerate equilibrium, as the rates read the plan's f
        tail, ok = (_delay_tails if plan is None else plan.tails)(traj, ks, f, f_hat, grid.nx)
        if min(T_hat, Ts_hat, V_hat) <= 0.0 or f_hat <= 0.0:
            return np.full(shape + (grid.nx,), math.nan), np.zeros(shape, dtype=bool)
        a, b = incidence_ab(f, V_hat)
        weights = (params.emwh * (a * T_hat / (a + b * T_hat)), Ts_hat, V_hat / params.burst_n)
        for c, (hat, weight) in enumerate(zip((T_hat, Ts_hat, V_hat), weights)):  # T, T*, V, one at a time
            r = traj.fields[ks, ..., c, :] / hat  # one component's rows: fewer arrays live at once
            ok &= ~np.any(r <= LOG_FLOOR, axis=-1)
            r = np.multiply(weight, _v(r, r), r)
            total = r if c == 0 else np.add(total, r, total)
    fields = np.full(shape + (grid.nx,), math.nan)
    fields[ok] = np.add(total, np.multiply(params.delta * Ts_hat, tail, tail), total)[ok]  # the tails are scratch now
    return fields, ok


def u_sdd_total(
    traj: Trajectory,
    ks,
    eq: Equilibrium,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
    plan: _MonitorPlan | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Domain integral of the pointwise functional at each sample k of ks
    (and member; NaN where invalid) and the validity mask."""
    fields, ok = u_sdd_fields(traj, ks, eq, params, f, grid, plan)
    return integrate(grid, fields), ok


# one monitored instant: the functional, its rates, and the split; a row of ``monitor``'s record array
LyapunovSample = np.dtype(
    [("t", float), ("U", float), ("dU_dt_fd", float), ("S_int", float), ("D_int", float), ("Ddiff", float),
     ("Ddiff_terms", float, (3,)), ("C1_int", float), ("c1_abs_dev", float), ("c1_scale", float),
     ("residual", float), ("eta", float), ("eta_rate", float), ("valid", bool)]
)


def rate_decomposition(
    traj: Trajectory,
    ks: Sequence[int],
    eq: Equilibrium,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
    plan: _MonitorPlan | None = None,
) -> np.recarray:
    """Central-difference rate of the functional at each sample k of ks plus
    its split, one ``LyapunovSample`` row per k (and member, member after
    member), computed for all of ks at once, in the buffers of ``plan`` or of
    a one-off plan.

    Needs the two neighboring samples of each k for the central differences
    of U and of eta; the delay values are the ones the run recorded in
    ``traj.eta``.  The decomposition residual |dU/dt - (A + B + Ddiff +
    dTs*S)| is the discretization health metric; each diffusion integral is
    computed in its gradient form and is nonpositive by construction.
    """
    ks = np.asarray(ks, dtype=int)
    if ks.min() < 1 or ks.max() + 1 >= len(traj):
        raise ValueError(f"rate_decomposition: need samples {ks.min() - 1}..{ks.max() + 1} in the trajectory")
    # U at every sample next to or at a k, each once
    ms = np.array(sorted(set(np.concatenate((ks - 1, ks, ks + 1)).tolist())))  # np.unique would import numpy.ma
    if (t_first := traj.times.item(ms[0])) - traj.h_max + 1e-9 * traj.dt < traj.times.item(0):  # segment_at's test
        raise ValueError(f"rate_decomposition: sample {ms[0]} (t={t_first}) lacks {traj.h_max} of trailing history")
    if not (eta_k := traj.eta[ks]).min() >= 0.0:  # NaN fails too; the functional's windows read it as no lag
        raise ValueError(f"rate_decomposition: lag {eta_k.min()} outside [0, {traj.h_max}]")
    at, plan = np.searchsorted(ms, ks), plan or _MonitorPlan()
    U, ok = u_sdd_total(traj, ms, eq, params, f, grid, plan)
    U_m, U_k, U_p = U[at - 1], U[at], U[at + 1]
    ok = ok[at - 1] & ok[at] & ok[at + 1]

    col = (slice(None),) + (None,) * len(traj.history.members)  # a sample's value against its members
    t_k = traj.times[ks][col]
    span = (traj.times[ks + 1] - traj.times[ks - 1])[col]
    eta_rate = (traj.eta[ks + 1] - traj.eta[ks - 1]) / span
    dU = (U_p - U_m) / span

    state = traj.fields[ks]
    T, Ts, V = state[..., 0, :], state[..., 1, :], state[..., 2, :]
    # f(T, V) at each k, and at its t - eta (each k's delayed row, as delayed_state reads it), from the windows' f
    fTV, fdel = plan.f_at[at], plan.f_start[at]
    plan.f_at = plan.f_start = None  # taken: freed before the rates' arrays
    T_hat, Ts_hat, V_hat = eq.T_hat, eq.T_star_hat, eq.V_hat
    f_hat = float(incidence_values(f, T_hat, V_hat))
    emwh = params.emwh
    d1, d2, d3 = params.diff
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fT = incidence_values(f, T, V_hat)
        floors = (fT <= LOG_FLOOR) | (fTV <= LOG_FLOOR) | (fdel <= LOG_FLOOR) | (Ts <= LOG_FLOOR) | (V <= LOG_FLOOR)
        ok &= ~np.any(floors, axis=-1) & (f_hat > LOG_FLOOR)
        g1 = g2 = g3 = np.zeros(eta_k.shape)  # first, and one gradient at a time: fewer arrays live at once
        if d1 != 0.0:
            grad = gradient_central(grid, T)
            g1 = -d1 * emwh * f_hat * integrate(grid, incidence_dT(f, T, V_hat) / (fT * fT) * grad * grad)
        if d2 != 0.0:
            grad = gradient_central(grid, Ts)
            g2 = -d2 * Ts_hat * integrate(grid, grad * grad / (Ts * Ts))
        if d3 != 0.0:
            grad = gradient_central(grid, V)
            g3 = -d3 * (V_hat / params.burst_n) * integrate(grid, grad * grad / (V * V))
        Ddiff = g1 + g2 + g3

        # the Volterra arguments of the seven-v form of C1; B and S_int share them, and each one's v
        args = (fTV / fT, fdel / f_hat, f_hat / fT, fTV / f_hat, fdel * Ts_hat / (f_hat * Ts))
        args += (Ts * V_hat / (Ts_hat * V), V / V_hat)
        ok &= ~np.any(np.logical_or.reduce([arg <= LOG_FLOOR for arg in args]), axis=-1)
        A = params.d * T_hat * emwh * integrate(grid, (1.0 - T / T_hat) * (1.0 - args[2]))
        c1_alg = (1.0 - args[2]) * (1.0 - args[3]) + (1.0 - Ts_hat / Ts) * (args[1] - Ts / Ts_hat)
        c1_alg += (1.0 - V_hat / V) * (Ts / Ts_hat - args[6])
        v = [_v(arg, arg) for arg in args]  # in place: no argument is read again
        B = f_hat * emwh * integrate(grid, -v[2] - v[4] - v[5] - (v[6] - v[0]))
        dTs = params.delta * Ts_hat
        S_int = eta_rate * integrate(grid, v[1])
        D_int = -(A + B + Ddiff) / dTs
        residual = np.abs(dU - (A + B + Ddiff + dTs * S_int))

        c1_seven = v[0] + v[1] - v[2] - v[3] - v[4] - v[5] - v[6]
        c1_abs_dev = np.max(np.abs(c1_alg - c1_seven), axis=-1)
        c1_scale = np.maximum(np.max(np.abs(c1_alg), axis=-1), np.max(np.abs(c1_seven), axis=-1))
        C1_int = integrate(grid, c1_seven)

    rows = np.recarray(ok.T.shape, LyapunovSample)  # (*members, samples), flat member after member
    columns = (t_k, U_k, dU, S_int, D_int, Ddiff, np.stack((g1, g2, g3)), C1_int, c1_abs_dev, c1_scale, residual)
    for name, column in zip(LyapunovSample.names, columns + (eta_k, eta_rate, ok)):
        rows[name] = column.T
    rows[list(LyapunovSample.names[1:11])][~ok.T] = math.nan  # an invalid sample keeps its t, eta and eta_rate
    return rows.ravel()


def monitor(
    traj: Trajectory,
    eq: Equilibrium,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
    stride: int = 10,
    warmup: float | None = None,
    plan: _MonitorPlan | None = None,
) -> np.recarray:
    """Rate decompositions on a strided sample set after a warmup window.

    The warmup (default 2*h_max) skips the initial transient where the
    history is still the prescribed initial segment.  The samples are
    decomposed in blocks of ``MONITOR_BLOCK``, which bounds the memory of a
    block's per-row arrays, for all members at once when eta is (n, B), each
    in the buffers of ``plan`` or of one plan for this call; the record
    array is flat, member after member.
    """
    if len(traj) < 3:
        return np.recarray(0, LyapunovSample)
    if warmup is None:
        warmup = 2.0 * params.h_max
    t0 = float(traj.times[0])
    # neighbors k-1 need a full trailing window of their own
    earliest = int(np.searchsorted(traj.times, t0 + params.h_max + traj.dt * (1.0 - 1e-9))) + 1
    start = max(int(np.searchsorted(traj.times, t0 + warmup)), earliest)
    ks, args = range(start, len(traj) - 1, max(stride, 1)), (eq, params, f, grid, plan or _MonitorPlan())
    blocks = [rate_decomposition(traj, ks[b : b + MONITOR_BLOCK], *args) for b in range(0, len(ks), MONITOR_BLOCK)]
    n = math.prod(traj.history.members)
    rows = [got.reshape(n, -1) for got in blocks] or [np.recarray((n, 0), LyapunovSample)]  # (members, samples)
    return np.concatenate(rows, axis=1).ravel().view(np.recarray)


def _monitor_members(
    stream: RunStream, eq: Equilibrium, params: ModelParams, f: IncidenceFn, grid: Grid1D, stride: int, warmup: float | None
):
    """``monitor`` of every member, drained from one batched stream: per
    member its record array (None if it aborted or the run has fewer than
    three samples), and the rows of the first and the last sample.  Each
    block of the live members goes to one ``monitor`` call once the stream
    yields the sample after its last k, in the buffers of one plan for the
    stream; the store holds the rows from h_max + 3 dt before the block's
    sample k - 1 (or the newest) on, as a step is at most dt."""
    seg, h, dt = stream.history, params.h_max, stream.history.dt
    warmup, stride = 2.0 * h if warmup is None else warmup, max(stride, 1)
    samples = [[np.recarray(0, LyapunovSample)] for _ in range(seg.members[0])]  # per member its blocks' rows
    # one plan for every block, sized before the stream runs for the rows the store holds for a block
    plan = _MonitorPlan(MONITOR_BLOCK * stride + math.ceil(h / dt) + 3, (len(samples), seg.fields.shape[-1]))
    times, etas, base, k, held = [], [], 0, None, None  # samples base, base + 1, ...; the pending block's first k
    for s, sample in enumerate(stream):
        times.append(sample.t)
        etas.append(sample.eta)
        if s == 0:
            t0, first = sample.t, sample.row.copy()
            ready = t0 + h + dt * (1.0 - 1e-9)  # monitor's test that a sample has its full trailing window
        if k is None and sample.t >= max(t0 + warmup, ready):
            k = s + (times[-2] < ready)  # monitor's first k: past the warmup, with k - 1 ready
        last = sample.t == seg.t_now  # the stream stores no row after its last sample
        if k is not None and (s == k + (MONITOR_BLOCK - 1) * stride + 1 or last and k < s):
            x = np.array(times) + h + dt * (1.0 - 1e-9)  # monitor's ready test, per window start
            w0 = base + int(np.searchsorted(x, times[k - 1 - base], side="right")) - 1
            lags = np.array(etas[w0 - base :])
            end = len(seg) - 1 + last  # one past sample s's row, counted from the delay window's first
            # a warmup to halfway from sample k - 1 to k makes k monitor's first sample, also
            # where a shortened step leaves no window start w0 whose earliest sample is k
            mid = 0.5 * (times[k - 1 - base] + times[k - base])
            live = [m for m, gone in enumerate(stream.aborted) if not gone]
            if live:  # the rows of every live member, gathered only once one is frozen
                rows = seg.view(end - 1 - s + w0, end, live if len(live) < len(samples) else slice(None))
                got = monitor(Trajectory(rows, lags[:, live]), eq, params, f, grid, stride, mid - rows.times[0], plan)
                for m, block in zip(live, got.reshape(len(live), -1)):
                    samples[m].append(block)
            k += MONITOR_BLOCK * stride
        if held != (held := (times[k - 1 - base] if k is not None and k <= s + 1 else sample.t) - h - 3.0 * dt):
            seg.hold(held)  # it moved: an unchanged hold would cut nothing
            cut = bisect_left(times, held)
            del times[:cut], etas[:cut]
            base += cut
    samples = [np.concatenate(blocks).view(np.recarray) for blocks in samples]
    return [None if gone or s < 2 else got for got, gone in zip(samples, stream.aborted)], first, sample.row


def distance_to_equilibrium(row: np.ndarray, eq: Equilibrium, grid: Grid1D) -> float:
    """Root-mean-square distance of a (3, nx) row T, T_star, V from the equilibrium."""
    dev = (row[0] - eq.T_hat) ** 2 + (row[1] - eq.T_star_hat) ** 2 + (row[2] - eq.V_hat) ** 2
    return math.sqrt(max(integrate(grid, dev) / grid.length, 0.0))


class StabilityVerdict(NamedTuple):
    """Empirical verdict for one perturbation size."""

    equilibrium: Equilibrium
    epsilon: float
    decrease_fraction: float
    n_valid: int
    n_samples: int
    max_eta_rate: float
    s_over_d: float
    initial_distance: float
    terminal_distance: float
    verdict: str  # stable_evidence | inconclusive | instability_evidence
    abort: tuple[str, float] | None = None  # (direction, t) of the first run that aborted


def certify_local_stability(
    eq: Equilibrium,
    epsilons,
    params: ModelParams,
    f: IncidenceFn,
    df: DelayFunctional,
    cfg: SolverConfig,
    grid: Grid1D,
    directions=("constant", "gaussian_bump"),
    seed: int = 0,
    tol_decrease: float = 1e-8,
    stride: int = 10,
    warmup: float | None = None,
) -> list[StabilityVerdict]:
    """Perturb, run, monitor; one verdict per perturbation size.

    Per epsilon the equilibrium is displaced along every configured
    direction shape; all these runs advance as one ``RunStream`` over a
    member axis, monitored in one pass per block of samples for all live
    members, as the stream yields the block, from a bounded store.  The
    verdict aggregates the worst direction.  The stable_evidence verdict
    requires a decrease fraction of at least 0.99 on valid samples and a
    terminal distance below the initial one (the 0.99 gate is an
    engineering choice; the raw series are what to trust).  Inconclusive is
    a legitimate outcome, as is instability_evidence for perturbations
    outside any stability region.
    """
    if eq.kind != "interior" or min(eq.T_hat, eq.T_star_hat, eq.V_hat) <= 0.0:
        raise ValueError("certify_local_stability: need a strictly interior equilibrium")
    epsilons = list(epsilons)
    rng = np.random.default_rng(seed)
    specs = []
    for name in directions:
        if name == "constant":
            specs.append(("constant", (1.0, 1.0, 1.0), None, None))
        elif name == "gaussian_bump":
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            center = grid.x_min + (0.25 + 0.5 * rng.random()) * grid.length
            specs.append(("gaussian_bump", tuple(w), center, 0.1 * grid.length))
        else:
            raise ValueError(f"directions: unknown direction {name!r}")

    members = [
        InitialData(
            preset="equilibrium_perturbation",
            epsilon=float(eps),
            direction=name,
            weights=w,
            bump_center=center,
            bump_width=width,
            equilibrium=eq,
        )
        for eps in epsilons
        for name, w, center, width in specs
    ]
    runs = iter(())
    if members:
        stream = RunStream(members, params, f, df, cfg, grid)
        # about twice the rows a block holds, reserved once: the store then slides and never grows
        held = MONITOR_BLOCK * max(stride, 1) + math.ceil(params.h_max / cfg.dt) + 2
        stream.history.reserve(min(math.ceil(cfg.t_end / cfg.dt) + 1, 2 * held))
        runs = zip(*_monitor_members(stream, eq, params, f, grid, stride, warmup), stream.aborted, stream.abort_time)
    verdicts: list[StabilityVerdict] = []
    for eps in epsilons:
        frac_min = math.inf
        n_valid = n_samples = 0
        eta_max = 0.0
        ratio_max = 0.0
        worst_ratio = -math.inf
        dist_pair = (math.nan, math.nan)
        any_aborted = False
        abort = None
        all_contracted = True
        any_expanded_badly = False
        for name, *_ in specs:
            samples, row0, row1, aborted, abort_time = next(runs)
            if samples is None:
                any_aborted = True
                if aborted and abort is None:
                    abort = (name, abort_time)
                frac_min = 0.0
                all_contracted = False
                continue
            d0 = distance_to_equilibrium(row0, eq, grid)
            d1 = distance_to_equilibrium(row1, eq, grid)
            valid = samples[samples.valid]
            n_samples += len(samples)
            n_valid += len(valid)
            frac = np.count_nonzero(valid.dU_dt_fd <= tol_decrease).item() / len(valid) if len(valid) else 0.0
            frac_min = min(frac_min, frac)
            if len(valid):
                eta_max = max(eta_max, np.abs(valid.eta_rate).max().item())
                max_s, min_d = np.abs(valid.S_int).max().item(), valid.D_int.min().item()
                ratio_max = max(ratio_max, max_s / min_d if min_d > 0.0 else math.inf)
            if d1 >= d0:
                all_contracted = False
            if d1 > d0 and frac < 0.9:
                any_expanded_badly = True
            ratio = d1 / d0 if d0 > 0.0 else math.inf
            if ratio > worst_ratio:
                worst_ratio = ratio
                dist_pair = (d0, d1)

        if frac_min is math.inf:
            frac_min = 0.0
        if any_aborted or n_valid == 0:
            verdict = "inconclusive"
        elif frac_min >= 0.99 and all_contracted:
            verdict = "stable_evidence"
        elif any_expanded_badly:
            verdict = "instability_evidence"
        else:
            verdict = "inconclusive"
        verdicts.append(
            StabilityVerdict(
                equilibrium=eq,
                epsilon=float(eps),
                decrease_fraction=frac_min,
                n_valid=n_valid,
                n_samples=n_samples,
                max_eta_rate=eta_max,
                s_over_d=ratio_max,
                initial_distance=dist_pair[0],
                terminal_distance=dist_pair[1],
                verdict=verdict,
                abort=abort,
            )
        )
    return verdicts
