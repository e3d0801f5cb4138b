"""Independent reference implementations used only to cross-check the package.

Nothing here calls the solver, root finder, history store or quadrature
under test; the closed forms are written out inline so the two routes
stay independent.
"""

from __future__ import annotations

import numpy as np


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
