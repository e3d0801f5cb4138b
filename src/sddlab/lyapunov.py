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

The monitor works on blocks of ``MONITOR_BLOCK`` samples, as stacks of
fields (one row per sample) integrated row by row.  In the last piece,
v(f/f_hat) is computed once per stored history row of the block, and the
trapezoid term between two consecutive rows once per pair.  Every window of
the block then sums into one (windows, nx) accumulator, stepped over row
offsets: first the window's own term from t - eta, then its pair terms in
row order, a window that has ended masked out.  Each window so adds its
terms left to right from 0, as one window alone would, and a block gives
the same bits as one sample at a time.  A difference of one running
trapezoid sum would be cheaper, but near the equilibrium the small window
integral would cancel against the large running sum.

Any logarithm argument at or below ``LOG_FLOOR`` marks the sample invalid
instead of producing infinities; clamping would silently corrupt the
decrease verdict near the boundary of the positive cone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equilibria import Equilibrium
from .grid import Grid1D, gradient_central, integrate
from .history import DelayFunctional, FieldState, HistorySegment, delayed_state, window_starts
from .history import evaluate_eta  # noqa: F401  the benchmark's tracer wraps this binding (perfbench/selftest.py)
from .model import IncidenceFn, ModelParams, incidence_ab, incidence_dT, incidence_values
from .solver import InitialData, SolverConfig, Trajectory, run

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
MONITOR_BLOCK = 32


def _v(arr: np.ndarray) -> np.ndarray:
    """Vectorized Volterra function; the caller guarantees positivity."""
    return arr - 1.0 - np.log(arr)


def _delay_tails(
    segs: Sequence[HistorySegment],
    etas: Sequence[float],
    f: IncidenceFn,
    f_hat: float,
    nx: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node trapezoid of v(f(T,V)/f_hat) over [t - eta, t] for each
    segment, (len(segs), nx), and whether no ratio hit the floor.

    v and its floor flag are computed once per stored row that a window
    touches, and the trapezoid term between two consecutive rows once per
    pair.  A window's first node sits at t - eta exactly, also where a
    stored row stands for it, so its first term is its own; the rest are
    pair terms, summed left to right in one accumulator for all windows.
    """
    tails = np.zeros((len(segs), nx))
    ok = np.ones(len(segs), dtype=bool)
    etas = np.asarray(etas, dtype=float)
    live = np.flatnonzero(etas > 0.0)
    if not live.size:
        return tails, ok
    segs = [segs[j] for j in live]
    t_lo = np.array([seg.t_now for seg in segs]) - etas[live]
    i, off, start = window_starts(segs, t_lo)
    offsets = np.array([seg.offset(segs[0]) for seg in segs])
    first, end = offsets + i, offsets + np.array([len(seg) for seg in segs])  # counted from segs[0]
    j0 = int(np.argmin(first))
    lo = first[j0]
    block = segs[j0].view(lo - offsets[j0], end.max() - offsets[j0])
    times, rows = block.times, block.fields
    ratio = incidence_values(f, rows[:, 0], rows[:, 2]) / f_hat
    low = np.concatenate(([0], np.cumsum(np.any(ratio <= LOG_FLOOR, axis=1))))
    w_rows = _v(ratio)
    pairs = 0.5 * (w_rows[:-1] + w_rows[1:]) * np.diff(times)[:, None]

    # window rows [a, e) of the block; the first term runs from t - eta to
    # row b: from the interpolated start to row a, or from row a to row a + 1
    a, e = first - lo, end - lo
    b = a + ~off
    terms = e - b  # the first term, then pairs b, b+1, ..., e-2
    r0 = incidence_values(f, start[:, 0], start[:, 2]) / f_hat
    left = w_rows[a]
    left[off] = _v(r0)
    right = np.minimum(b, len(times) - 1)  # a one-row window has no term
    acc = np.zeros((len(segs), nx))
    np.add(acc, 0.5 * (left + w_rows[right]) * (times[right] - t_lo)[:, None], out=acc, where=(terms > 0)[:, None])
    for k in range(1, terms.max()):
        np.add(acc, pairs[np.minimum(b + k - 1, len(pairs) - 1)], out=acc, where=(k < terms)[:, None])
    tails[live] = acc
    floored = low[e] > low[a]
    floored[off] |= np.any(r0 <= LOG_FLOOR, axis=1)
    ok[live] = ~floored
    return tails, ok


def u_sdd_fields(
    segs: Sequence[HistorySegment],
    etas: Sequence[float],
    eq: Equilibrium,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise functional at the newest row of each segment, with the
    delay eta of that segment: (len(segs), nx) fields and a validity mask.

    The segments must be over one store (``Trajectory.segment_at`` gives
    them).  A segment whose logarithm argument falls at or below the floor,
    at its newest row or in its delay window, is invalid and its row is NaN
    (invalidated, not clamped).
    """
    fields = np.full((len(segs), grid.nx), math.nan)
    T_hat, Ts_hat, V_hat = eq.T_hat, eq.T_star_hat, eq.V_hat
    f_hat = float(incidence_values(f, T_hat, V_hat))
    if min(T_hat, Ts_hat, V_hat) <= 0.0 or f_hat <= 0.0:
        return fields, np.zeros(len(segs), dtype=bool)
    now = np.array([seg.fields[-1] for seg in segs])
    r1 = now[:, 0] / T_hat
    r2 = now[:, 1] / Ts_hat
    r3 = now[:, 2] / V_hat
    a, b = incidence_ab(f, V_hat)
    emwh = math.exp(-params.omega * params.h_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = emwh * (a * T_hat / (a + b * T_hat)) * _v(r1)
        term2 = Ts_hat * _v(r2)
        term3 = (V_hat / params.burst_n) * _v(r3)
        tail, ok = _delay_tails(segs, etas, f, f_hat, grid.nx)
    ok &= ~np.any((r1 <= LOG_FLOOR) | (r2 <= LOG_FLOOR) | (r3 <= LOG_FLOOR), axis=1)
    fields[ok] = (term1 + term2 + term3 + params.delta * Ts_hat * tail)[ok]
    return fields, ok


def u_sdd_total(
    segs: Sequence[HistorySegment],
    etas: Sequence[float],
    eq: Equilibrium,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
) -> tuple[np.ndarray, np.ndarray]:
    """Domain integral of the pointwise functional of each segment (NaN
    where invalid) and the validity mask."""
    fields, ok = u_sdd_fields(segs, etas, eq, params, f, grid)
    return integrate(grid, fields), ok


def _ratio_arrays(state: FieldState, delayed: FieldState, eq: Equilibrium, f: IncidenceFn):
    """Shared ingredients of the rate terms, for one field or a stack of
    them, and per field whether no floor is hit."""
    f_hat = float(incidence_values(f, eq.T_hat, eq.V_hat))
    fT = incidence_values(f, state.T, eq.V_hat)
    fTV = incidence_values(f, state.T, state.V)
    fdel = incidence_values(f, delayed.T, delayed.V)
    floors = (fT <= LOG_FLOOR) | (fTV <= LOG_FLOOR) | (fdel <= LOG_FLOOR)
    floors |= (state.T_star <= LOG_FLOOR) | (state.V <= LOG_FLOOR)
    ok = ~np.any(floors, axis=-1) & (f_hat > LOG_FLOOR)
    return f_hat, fT, fTV, fdel, ok


def _c1_algebraic(state: FieldState, eq: Equilibrium, parts) -> np.ndarray:
    f_hat, fT, fTV, fdel, _ = parts
    Ts_hat, V_hat = eq.T_star_hat, eq.V_hat
    p1 = (1.0 - f_hat / fT) * (1.0 - fTV / f_hat)
    p2 = (1.0 - Ts_hat / state.T_star) * (fdel / f_hat - state.T_star / Ts_hat)
    p3 = (1.0 - V_hat / state.V) * (state.T_star / Ts_hat - state.V / V_hat)
    return p1 + p2 + p3


def _c1_seven_v(state: FieldState, eq: Equilibrium, parts) -> tuple[np.ndarray, np.ndarray]:
    """The seven-v form and per field whether every argument is above the floor."""
    f_hat, fT, fTV, fdel, _ = parts
    Ts_hat, V_hat = eq.T_star_hat, eq.V_hat
    a1 = fTV / fT
    a2 = fdel / f_hat
    a3 = f_hat / fT
    a4 = fTV / f_hat
    a5 = fdel * Ts_hat / (f_hat * state.T_star)
    a6 = state.T_star * V_hat / (Ts_hat * state.V)
    a7 = state.V / V_hat
    floors = (a1 <= LOG_FLOOR) | (a2 <= LOG_FLOOR) | (a3 <= LOG_FLOOR) | (a4 <= LOG_FLOOR)
    floors |= (a5 <= LOG_FLOOR) | (a6 <= LOG_FLOOR) | (a7 <= LOG_FLOOR)
    ok = ~np.any(floors, axis=-1)
    return _v(a1) + _v(a2) - _v(a3) - _v(a4) - _v(a5) - _v(a6) - _v(a7), ok


@dataclass(frozen=True)
class LyapunovSample:
    """One monitored instant: the functional, its rates, and the split."""

    t: float
    U: float
    dU_dt_fd: float
    S_int: float
    D_int: float
    Ddiff: float
    Ddiff_terms: tuple[float, float, float]
    C1_int: float
    c1_abs_dev: float
    c1_scale: float
    residual: float
    eta: float
    eta_rate: float
    valid: bool


def _invalid_sample(t: float, eta: float = math.nan, eta_rate: float = math.nan) -> LyapunovSample:
    nan = math.nan
    return LyapunovSample(t, nan, nan, nan, nan, nan, (nan, nan, nan), nan, nan, nan, nan, eta, eta_rate, False)


def rate_decomposition(
    traj: Trajectory,
    ks: Sequence[int],
    eq: Equilibrium,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
) -> list[LyapunovSample]:
    """Central-difference rate of the functional at each sample k of ks plus
    its split, one ``LyapunovSample`` per k, computed for all of ks at once.

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
    ms = np.unique(np.concatenate((ks - 1, ks, ks + 1)))
    at = np.searchsorted(ms, ks)
    segs = [traj.segment_at(m) for m in ms]
    U, ok = u_sdd_total(segs, traj.eta[ms], eq, params, f, grid)
    U_m, U_k, U_p = U[at - 1], U[at], U[at + 1]
    ok = ok[at - 1] & ok[at] & ok[at + 1]

    t_k = traj.times[ks]
    span = traj.times[ks + 1] - traj.times[ks - 1]
    eta_k = traj.eta[ks]
    eta_rate = (traj.eta[ks + 1] - traj.eta[ks - 1]) / span
    dU = (U_p - U_m) / span

    now = traj.fields[ks]
    state = FieldState(now[:, 0], now[:, 1], now[:, 2])
    lagged = np.array([delayed_state(segs[i], eta) for i, eta in zip(at, eta_k)])
    delayed = FieldState(lagged[:, 0], lagged[:, 1], lagged[:, 2])
    T_hat, Ts_hat, V_hat = eq.T_hat, eq.T_star_hat, eq.V_hat
    emwh = math.exp(-params.omega * params.h_max)
    d1, d2, d3 = params.diff
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parts = _ratio_arrays(state, delayed, eq, f)
        f_hat, fT, fTV, fdel, ok_parts = parts
        A = params.d * T_hat * emwh * integrate(grid, (1.0 - state.T / T_hat) * (1.0 - f_hat / fT))
        braces = (
            -_v(f_hat / fT)
            - _v(fdel * Ts_hat / (f_hat * state.T_star))
            - _v(state.T_star * V_hat / (Ts_hat * state.V))
            - (_v(state.V / V_hat) - _v(fTV / fT))
        )
        B = f_hat * emwh * integrate(grid, braces)

        g1 = g2 = g3 = np.zeros(len(ks))
        if d1 != 0.0:
            gradT = gradient_central(grid, state.T)
            fp1 = incidence_dT(f, state.T, V_hat)
            g1 = -d1 * emwh * f_hat * integrate(grid, fp1 / (fT * fT) * gradT * gradT)
        if d2 != 0.0:
            gradTs = gradient_central(grid, state.T_star)
            g2 = -d2 * Ts_hat * integrate(grid, gradTs * gradTs / (state.T_star * state.T_star))
        if d3 != 0.0:
            gradV = gradient_central(grid, state.V)
            g3 = -d3 * (V_hat / params.burst_n) * integrate(grid, gradV * gradV / (state.V * state.V))
        Ddiff = g1 + g2 + g3

        dTs = params.delta * Ts_hat
        S_int = eta_rate * integrate(grid, _v(fdel / f_hat))
        D_int = -(A + B + Ddiff) / dTs
        residual = np.abs(dU - (A + B + Ddiff + dTs * S_int))

        c1_alg = _c1_algebraic(state, eq, parts)
        c1_seven, ok_seven = _c1_seven_v(state, eq, parts)
        c1_abs_dev = np.max(np.abs(c1_alg - c1_seven), axis=-1)
        c1_scale = np.maximum(np.max(np.abs(c1_alg), axis=-1), np.max(np.abs(c1_seven), axis=-1))
        C1_int = integrate(grid, c1_seven)
    ok &= ok_parts & ok_seven

    columns = (t_k, U_k, dU, S_int, D_int, Ddiff, g1, g2, g3, C1_int, c1_abs_dev, c1_scale, residual, eta_k, eta_rate)
    return [
        LyapunovSample(t, U, dU, S, D, Dd, (g1, g2, g3), C1, dev, scale, res, eta, rate, True)
        if good
        else _invalid_sample(t, eta, rate)
        for good, (t, U, dU, S, D, Dd, g1, g2, g3, C1, dev, scale, res, eta, rate) in zip(
            ok.tolist(), np.column_stack(columns).tolist()
        )
    ]


def monitor(
    traj: Trajectory,
    eq: Equilibrium,
    params: ModelParams,
    f: IncidenceFn,
    grid: Grid1D,
    stride: int = 10,
    warmup: float | None = None,
) -> list[LyapunovSample]:
    """Rate decompositions on a strided sample set after a warmup window.

    The warmup (default 2*h_max) skips the initial transient where the
    history is still the prescribed initial segment.  The samples are
    decomposed in blocks of ``MONITOR_BLOCK``, which bounds the memory of a
    block's per-row arrays.
    """
    if len(traj) < 3:
        return []
    if warmup is None:
        warmup = 2.0 * params.h_max
    t0 = float(traj.times[0])
    # neighbors k-1 need a full trailing window of their own
    earliest = int(np.searchsorted(traj.times, t0 + params.h_max + traj.dt * (1.0 - 1e-9))) + 1
    start = max(int(np.searchsorted(traj.times, t0 + warmup)), earliest)
    ks = range(start, len(traj) - 1, max(stride, 1))
    return [
        sample
        for b in range(0, len(ks), MONITOR_BLOCK)
        for sample in rate_decomposition(traj, ks[b : b + MONITOR_BLOCK], eq, params, f, grid)
    ]


def distance_to_equilibrium(state: FieldState, eq: Equilibrium, grid: Grid1D) -> float:
    """Root-mean-square distance of the triple from the equilibrium."""
    dev = (
        (state.T - eq.T_hat) ** 2
        + (state.T_star - eq.T_star_hat) ** 2
        + (state.V - eq.V_hat) ** 2
    )
    return math.sqrt(max(integrate(grid, dev) / grid.length, 0.0))


@dataclass(frozen=True)
class StabilityVerdict:
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
    direction shape; all these runs advance as one ``run`` over a member
    axis, and each member's trajectory is monitored on its own.  The
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
    trajs = iter(run(members, params, f, df, cfg, grid) if members else ())
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
            traj = next(trajs)
            if traj.aborted or len(traj) < 3:
                any_aborted = True
                if traj.aborted and abort is None:
                    abort = (name, traj.abort_time)
                frac_min = 0.0
                all_contracted = False
                continue
            d0 = distance_to_equilibrium(traj.state(0), eq, grid)
            d1 = distance_to_equilibrium(traj.state(-1), eq, grid)
            samples = monitor(traj, eq, params, f, grid, stride=stride, warmup=warmup)
            valid = [s for s in samples if s.valid]
            n_samples += len(samples)
            n_valid += len(valid)
            frac = (
                sum(1 for s in valid if s.dU_dt_fd <= tol_decrease) / len(valid)
                if valid
                else 0.0
            )
            frac_min = min(frac_min, frac)
            if valid:
                eta_max = max(eta_max, max(abs(s.eta_rate) for s in valid))
                max_s = max(abs(s.S_int) for s in valid)
                min_d = min(s.D_int for s in valid)
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
