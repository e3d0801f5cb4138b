"""Independent reference implementations used only to cross-check the package.

Most of what is here calls nothing of the solver, root finder, history
store or quadrature under test; the closed forms are written out inline so
the two routes stay independent.  Three kinds of helper do call the
package:

- ``green_identity_residual`` combines the grid operators under test into
  the integration-by-parts identity they must satisfy;
- ``check_hf3_loop`` and ``check_hf4_loop`` are the hypothesis checks one
  sample at a time, against which the array checks must return equal
  verdicts; ``check_hf4_loop`` fits branch B with the package's own
  ``_nnls2``, since it checks the array form and not the fit, which
  ``tests/test_model.py`` checks against ``scipy.optimize.nnls``;
- ``delay_tails_per_window`` is the Lyapunov window sum one window at a
  time, against which the one-pass sum must agree bit for bit;
- ``rhs_ref`` is the solver's right-hand side written out plainly (the
  package's ``incidence_values``, the Laplacian ``laplacian_neumann_ref``
  and a masked diffusion add), against which ``solver.rhs`` must agree bit
  for bit;
- ``initial_segment_ref`` builds the initial history one time at a time,
  one profile call per row and one segment per member stacked afterwards,
  against which the one-broadcast ``solver.build_initial_segment`` must
  agree bit for bit; it reads the grid's nodes from ``Grid1D.nodes``;
- ``stream_box_ref`` drains a ``RunStream``'s history by the time loop as
  it was before the step's band test: every step goes through
  ``solver.step`` with no band, with the lag evaluated and the member mask
  passed each time, and every committed row's box counts come from its own
  min/max, ``isfinite`` and entry counts, against which the stream's
  samples and abort diagnostics must agree bit for bit.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from sddlab.grid import Grid1D, gradient_central, integrate, laplacian_neumann
from sddlab.history import evaluate_eta
from sddlab.solver import apply_jump, omega_lip_bounds, step
from sddlab.lyapunov import LOG_FLOOR, _v
from sddlab.model import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    IncidenceFn,
    Verdict,
    _as_callable,
    _nnls2,
    _validate_box,
    incidence_mu,
    incidence_values,
)


def saturated_closed_form(k: float, k2: float):
    def f(T, V):
        return k * T * V / (1.0 + k2 * V)

    return f


def fixed_lag_euler(rhs3, history3, lag: float, dt: float, t_end: float) -> np.ndarray:
    """Three-component fixed-lag Euler with on-node delay lookups.

    rhs3(u, u_delayed) -> length-3 array, history3(t) -> length-3 array for
    t <= 0.  Requires lag to be an integer multiple of dt so the delayed
    lookup never interpolates.  Returns rows at t = 0, dt, ..., t_end.
    """
    m = round(lag / dt)
    assert abs(m * dt - lag) < 1e-12, "oracle needs lag divisible by dt"
    n = round(t_end / dt)
    hist = np.empty((m + n + 1, 3))
    for i in range(m + 1):
        hist[i] = history3(-(m - i) * dt)
    for k in range(n):
        i = m + k
        hist[i + 1] = hist[i] + dt * np.asarray(rhs3(hist[i], hist[i - m]), dtype=float)
    return hist[m:]


def dense_scan_roots(fn, lo: float, hi: float, n: int = 1_000_000, iters: int = 80) -> list[float]:
    """Brute-force sign scan plus plain bisection to interval exhaustion."""
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(fn(xs), dtype=float)
    roots: list[float] = []
    for i in range(n - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(xs[i]))
            continue
        if fa * fb >= 0.0:
            continue
        a, b = float(xs[i]), float(xs[i + 1])
        for _ in range(iters):
            mid = 0.5 * (a + b)
            fm = float(fn(mid))
            if fm == 0.0:
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def fine_trapezoid(g, a: float, b: float, n: int) -> float:
    """Plain composite trapezoid of a scalar function at n+1 nodes."""
    xs = np.linspace(a, b, n + 1)
    ys = np.array([g(x) for x in xs])
    return float(np.sum((ys[:-1] + ys[1:]) * 0.5 * np.diff(xs)))


def snapshot_interp(times: list[float], snaps: list[tuple], t: float, slack: float) -> tuple:
    """The snapshot at t from a plain ascending list: a snapshot within slack
    of t as it is, else the componentwise linear interpolation of the two
    snapshots around t.  Snapshots are (T, T_star, V) tuples of arrays."""
    for tk, s in zip(times, snaps):
        if abs(tk - t) <= slack:
            return s
    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        if t0 < t < t1:
            w = (t - t0) / (t1 - t0)
            return tuple((1.0 - w) * a + w * b for a, b in zip(snaps[k], snaps[k + 1]))
    raise ValueError(f"snapshot_interp: {t} outside [{times[0]}, {times[-1]}]")


def snapshot_window_trapezoid(times: list[float], snaps: list[tuple], h: float, dt: float, g) -> float:
    """Trapezoid of g(theta, snapshot) over theta in [-h, 0] on a plain list.

    The nodes are the snapshots at or after t - h, t = times[-1] (one within
    1e-9*dt of t - h stands at its own time); when none lies there, t - h
    leads them with the interpolated snapshot.  Summed left to right.
    """
    t_now, slack = times[-1], 1e-9 * dt
    t_start = t_now - h
    nodes = [(t, s) for t, s in zip(times, snaps) if t >= t_start - slack]
    if nodes[0][0] > t_start + slack:
        nodes.insert(0, (t_start, snapshot_interp(times, snaps, t_start, slack)))
    total = 0.0
    for (ta, sa), (tb, sb) in zip(nodes, nodes[1:]):
        total += 0.5 * (g(ta - t_now, sa) + g(tb - t_now, sb)) * (tb - ta)
    return total


def smooth_clamp_scalar(h_max: float, band: float = 0.01):
    """The C^1 clamp onto [0, h_max] one float at a time, as piecewise
    branches; NaN fails every test and falls through to h_max."""
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


def green_identity_residual(
    grid: Grid1D,
    u: np.ndarray,
    p: Callable[[np.ndarray], np.ndarray],
    p_prime: Callable[[np.ndarray], np.ndarray],
    *,
    neumann_rel_tol: float = 0.05,
) -> float:
    """Residual of the discrete integration-by-parts identity.

    Returns |integrate(p(u) * lap(u)) + integrate(p'(u) * grad(u)^2)|.
    For smooth fields with vanishing boundary slope both integrals cancel
    up to O(dx^2).  When the one-sided boundary gradient is not small
    relative to the interior gradient scale the identity is not expected
    to hold and a RuntimeWarning is issued.
    """
    u = np.asarray(u, dtype=float)
    g = gradient_central(grid, u)
    interior_scale = float(np.max(np.abs(g[1:-1]))) if grid.nx > 2 else 0.0
    boundary_slope = max(abs(g[0]), abs(g[-1]))
    if boundary_slope > neumann_rel_tol * max(1e-300, interior_scale):
        warnings.warn(
            "field does not satisfy the discrete no-flux condition; "
            f"boundary slope {boundary_slope:.3g} vs interior scale {interior_scale:.3g}",
            RuntimeWarning,
            stacklevel=2,
        )
    lhs = integrate(grid, np.asarray(p(u), dtype=float) * laplacian_neumann(grid, u))
    rhs = integrate(grid, np.asarray(p_prime(u), dtype=float) * g * g)
    return abs(lhs + rhs)


def laplacian_neumann_ref(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """The mirror-closure Laplacian along the last axis: the interior
    stencil (-2 u[i] + u[i-1] + u[i+1]) / dx^2, then each end on its own."""
    dx2 = grid.dx * grid.dx
    out = np.empty(u.shape)
    out[..., 1:-1] = (u[..., 1:-1] * -2.0 + u[..., :-2] + u[..., 2:]) / dx2
    out[..., 0] = 2.0 * (u[..., 1] - u[..., 0]) / dx2
    out[..., -1] = 2.0 * (u[..., -2] - u[..., -1]) / dx2
    return out


def rhs_ref(state: np.ndarray, delayed: np.ndarray, params, f: IncidenceFn, grid: Grid1D) -> np.ndarray:
    """Reaction plus diffusion of (..., 3, nx) rows T, T_star, V; the diffusion
    term d_i * lap goes in through a where= mask, so a component with d_i == 0
    gets none (not + 0 * lap, which would turn -0.0 into +0.0)."""
    T, T_star, V = state[..., 0, :], state[..., 1, :], state[..., 2, :]
    emwh = math.exp(-params.omega * params.h_max)
    out = np.empty(state.shape)
    np.subtract(params.lam - params.d * T, incidence_values(f, T, V), out=out[..., 0, :])
    f_delayed = incidence_values(f, delayed[..., 0, :], delayed[..., 2, :])
    np.subtract(emwh * f_delayed, params.delta * T_star, out=out[..., 1, :])
    np.subtract(params.burst_n * params.delta * T_star, params.c * V, out=out[..., 2, :])
    if any(params.diff):
        diff = np.array(params.diff)[:, None]
        lap = laplacian_neumann_ref(grid, state) * diff
        np.add(out, lap, out=out, where=diff != 0.0)
    return out


def check_hf3_loop(f, v_hat: float, box, n: int = 50, eps_strict: float = 1e-12) -> Verdict:
    """``model.check_hf3`` one T row at a time, f(T, v_hat) as a scalar."""
    t0, t1, v0, v1 = _validate_box(box)
    if not v_hat > 0.0:
        raise ValueError(f"v_hat: must be positive, got {v_hat}")
    if n < 2:
        raise ValueError(f"n: need at least 2 samples per axis, got {n}")
    fn = _as_callable(f)
    Ts = np.linspace(t0, t1, n)
    Vs = np.linspace(v0, v1, n)
    Ts = Ts[Ts > 0.0]
    Vs = Vs[(Vs > 0.0) & (np.abs(Vs - v_hat) > 1e-9 * max(1.0, v_hat))]
    if Ts.size == 0 or Vs.size == 0:
        return Verdict(NOT_APPLICABLE, note="no admissible samples in the box")
    checked = False
    for T in Ts:
        f_ref = float(fn(T, v_hat))
        if f_ref <= 0.0:
            continue
        r = np.asarray(fn(np.full_like(Vs, T), Vs), dtype=float) / f_ref
        product = (Vs / v_hat - r) * (r - 1.0)
        checked = True
        bad = np.nonzero(product <= eps_strict)[0]
        if bad.size:
            j = bad[0]
            return Verdict(
                FAILS,
                witness=(float(T), float(Vs[j])),
                note=f"strictness product {product[j]:.3g} <= {eps_strict:.0e} at the witness",
            )
    if not checked:
        return Verdict(NOT_APPLICABLE, note="f(T, v_hat) vanished on every sampled row")
    return Verdict(HOLDS)


def check_hf4_loop(f, v_hat: float, box, n: int = 50) -> Verdict:
    """``model.check_hf4`` with branch A probing one (T, V) point at a time."""
    t0, t1, v0, v1 = _validate_box(box)
    if not v_hat > 0.0:
        raise ValueError(f"v_hat: must be positive, got {v_hat}")
    if n < 2:
        raise ValueError(f"n: need at least 2 samples per axis, got {n}")
    fn = _as_callable(f)
    Ts = np.linspace(t0, t1, n)
    Vs = np.linspace(v0, v1, n)
    Tpos = Ts[Ts > 0.0]
    if Tpos.size == 0:
        return Verdict(NOT_APPLICABLE, note="no positive T samples in the box")

    info: dict = {"branch_a": None, "branch_b": None}
    e = max(1e-4 * (t1 - t0), 1e-9)
    branch_a_ok = True
    witness_a = None
    probe_V = np.concatenate(([v_hat], Vs[Vs > 0.0]))
    for T in Tpos:
        for V in probe_V:
            r1 = (float(fn(T + e, V)) - 2.0 * float(fn(T, V)) + float(fn(T - e, V))) / (e * e)
            half = 0.5 * e
            r2 = (float(fn(T + half, V)) - 2.0 * float(fn(T, V)) + float(fn(T - half, V))) / (half * half)
            if not (np.isfinite(r1) and np.isfinite(r2)) or abs(r2 - r1) > 0.25 * (1.0 + min(abs(r1), abs(r2))):
                branch_a_ok = False
                witness_a = (float(T), float(V))
                break
        if not branch_a_ok:
            break
    info["branch_a"] = branch_a_ok

    y_raw = np.asarray(fn(Tpos, np.full_like(Tpos, v_hat)), dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        y, inv_T = 1.0 / y_raw, 1.0 / Tpos
    # a subnormal T or f(T, v_hat) overflows its reciprocal, which the fit cannot take
    usable = np.isfinite(y_raw) & (y_raw > 0.0) & np.isfinite(y) & np.isfinite(inv_T)
    Tb = Tpos[usable]
    info["branch_b"] = False
    if Tb.size >= 2:
        y = y[usable]
        A = np.column_stack([np.ones_like(Tb), inv_T[usable]])
        coef = _nnls2(A, y)
        c1f, c2f = float(coef[0]), float(coef[1])
        slack = y - (c1f + c2f / Tb)
        # each sample's own scale: one 1/f near 1e300 must not forgive the others
        info.update({"branch_b": bool(np.all(slack >= -1e-9 * np.abs(y))), "C1": c1f, "C2": c2f})

    if info["branch_a"]:
        return Verdict(HOLDS, note="smooth in T (branch A)", info=info)
    if info["branch_b"]:
        return Verdict(
            HOLDS,
            note=f"reciprocal bound C1={info['C1']:.6g}, C2={info['C2']:.6g} (branch B)",
            info=info,
        )
    return Verdict(
        FAILS,
        witness=witness_a,
        note="branch A detected a non-smooth point and branch B found no valid reciprocal bound",
        info=info,
    )


def delay_tails_per_window(segs, etas, f: IncidenceFn, f_hat: float, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """``lyapunov._delay_tails`` one window at a time: v of each row the
    block's windows touch, then per window its own nodes and one
    ``np.add.reduce`` of its trapezoid terms."""
    tails = np.zeros((len(segs), nx))
    ok = np.ones(len(segs), dtype=bool)
    offsets = [seg.offset(segs[0]) for seg in segs]
    windows = []  # (j, nodes, first row, end row, interpolated start), rows counted from segs[0]
    for j, (seg, eta) in enumerate(zip(segs, etas)):
        if eta > 0.0:
            t_lo = seg.t_now - eta
            nodes, i, start = seg.window(t_lo)
            windows.append((j, np.concatenate(([t_lo], nodes[1:])), offsets[j] + i, offsets[j] + len(seg), start))
    if not windows:
        return tails, ok
    j0, _, lo, _, _ = min(windows, key=lambda w: w[2])
    hi = max(w[3] for w in windows)
    rows = segs[j0].view(lo - offsets[j0], hi - offsets[j0]).fields
    ratio = incidence_values(f, rows[:, 0], rows[:, 2]) / f_hat
    low = np.any(ratio <= LOG_FLOOR, axis=1)
    w_rows = _v(ratio)
    for j, nodes, first, end, start in windows:
        w, floored = w_rows[first - lo : end - lo], low[first - lo : end - lo].any()
        if start is not None:
            r0 = incidence_values(f, start[0], start[2]) / f_hat
            w, floored = np.vstack((_v(r0), w)), floored or np.any(r0 <= LOG_FLOOR)
        tails[j] = np.add.reduce(0.5 * (w[:-1] + w[1:]) * np.diff(nodes)[:, None], axis=0)
        ok[j] = not floored
    return tails, ok


def _target_ref(initial, grid: Grid1D) -> np.ndarray:
    """The (3, nx) row an ``InitialData`` preset reaches at time 0, one component at a time."""
    x = grid.nodes()

    def bump():
        c = initial.bump_center if initial.bump_center is not None else 0.5 * (grid.x_min + grid.x_max)
        w = initial.bump_width if initial.bump_width is not None else 0.1 * grid.length
        return np.exp(-(((x - c) / w) ** 2))

    if initial.preset == "uniform":
        return np.array([np.full(grid.nx, float(v)) for v in initial.values])
    if initial.preset == "gaussian_bump":
        shape = bump()
        return np.array([base + amp * shape for base, amp in zip(initial.values, initial.bump_amp)])
    eq = initial.equilibrium
    w = np.asarray(initial.weights if initial.weights is not None else (1.0, 1.0, 1.0), dtype=float)
    w = w / np.linalg.norm(w)
    shape = bump() if initial.direction == "gaussian_bump" else np.ones(grid.nx)
    levels = (eq.T_hat, eq.T_star_hat, eq.V_hat)
    return np.array([level + initial.epsilon * w[c] * shape for c, level in enumerate(levels)])


def initial_segment_ref(initial, grid: Grid1D, h_max: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(times, fields) of the initial history of one ``InitialData``, fields
    (n, 3, nx), or of a list of them, fields (n, B, 3, nx): m steps of dt
    back from 0 with m * dt >= h_max, and per member one profile call per
    time, oldest first."""
    if isinstance(initial, list):
        segments = [initial_segment_ref(one, grid, h_max, dt) for one in initial]
        return segments[0][0], np.stack([fields for _, fields in segments], axis=1)
    m = int(np.ceil(h_max / dt - 1e-9))
    if m * dt < h_max:
        m += 1
    times = [0.0 - (m - i) * dt for i in range(m + 1)]
    goal = _target_ref(initial, grid)
    if initial.profile == "constant_in_time":
        return np.array(times), np.array([goal for _ in times])
    eq = initial.equilibrium
    if eq is None:
        start = (1.0 - initial.ramp_depth) * goal
    else:
        start = np.array([np.full(grid.nx, level) for level in (eq.T_hat, eq.T_star_hat, eq.V_hat)])

    def profile(t: float) -> np.ndarray:
        a = min(max((t + h_max) / h_max, 0.0), 1.0)
        return start + a * (goal - start)

    return np.array(times), np.array([profile(t) for t in times])


def _extremes_ref(row: np.ndarray) -> np.ndarray:
    """Per-component (min, max) of a (*members, 3, nx) row, NaN propagating."""
    return np.array((np.minimum.reduce(row, axis=-1), np.maximum.reduce(row, axis=-1)))


def _violations_ref(row: np.ndarray, extremes: np.ndarray, limits, tol: float):
    """Entries below -tol and above the (3, 1) limits (None: no upper count), per member."""
    none = 0 if row.ndim == 2 else [0] * len(row)
    lower = none if (extremes[0] >= -tol).all() else np.count_nonzero(row < -tol, axis=(-2, -1)).tolist()
    inside = limits is None or (extremes[1] <= limits[:, 0]).all()
    return lower, none if inside else np.count_nonzero(row > limits, axis=(-2, -1)).tolist()


def stream_box_ref(stream, params, f, df, cfg, grid):
    """Drain ``stream.history`` to t_end, applying ``stream.jumps``, by the
    time loop of a ``RunStream`` before the band test, without iterating
    the stream: (samples, clips, aborted, abort_time), each sample (t, row
    copy, eta copy, lower, upper, extremes) and the rest per member as the
    stream reports them."""
    seg, jumps, tol = stream.history, stream.jumps, cfg.invariance_tol
    mu = incidence_mu(f)
    members = seg.members
    clips, aborted, abort_time = np.zeros(members, dtype=int), np.zeros(members, dtype=bool), np.full(members, math.nan)
    samples = []

    def sample(t, row, eta, box):
        samples.append((t, row.copy(), np.array(eta), *box[:2], box[2].copy()))

    def limits_of(params):
        bounds = omega_lip_bounds(params, mu)
        return None if bounds is None else np.array(bounds)[:, None] + tol

    t0 = seg.t_now
    t_final = t0 + cfg.t_end
    limits = limits_of(params)
    extremes = _extremes_ref(seg.fields[-1])
    box = (*_violations_ref(seg.fields[-1], extremes, limits, tol), extremes)
    ji = 0
    t_slack = 1e-6 * cfg.dt
    while seg.t_now < t_final - t_slack:
        t = seg.t_now
        while ji < len(jumps) and t >= (t0 + jumps[ji].t) - t_slack:
            params = apply_jump(params, jumps[ji])
            limits = limits_of(params)
            ji += 1
        dt_step = min(cfg.dt, t_final - t)
        if ji < len(jumps):
            dt_step = min(dt_step, (t0 + jumps[ji].t) - t)
        eta, clipped, finite, extremes = step(seg, params, f, df, cfg, grid, dt=dt_step, frozen=aborted)
        if cfg.clip_negative:
            clips += clipped * ~aborted
        if not finite.all():
            new = ~(finite | aborted)
            abort_time[new] = t
            aborted |= new
            if aborted.all():
                sample(t, seg.fields[-1], eta, box)
                break
        sample(t, seg.fields[-2], eta, box)
        box = (*_violations_ref(seg.fields[-1], extremes, limits, tol), extremes)
    else:
        sample(seg.t_now, seg.fields[-1], evaluate_eta(df, seg), box)
    return samples, clips.tolist(), aborted.tolist(), np.where(aborted, abort_time, None).tolist()
