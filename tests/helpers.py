"""Small helpers shared by the test modules."""

from __future__ import annotations

import numpy as np

from sddlab import HistorySegment


def push_state(seg, t: float, state) -> None:
    """Append ``state``, a (*members, 3, nx) row, as the segment's row at
    time t: fill ``next_row()``, then ``push(t)``."""
    seg.next_row()[...] = state
    seg.push(t)


def segment_from_profile(h_max: float, dt: float, t_now: float, profile) -> HistorySegment:
    """A segment of rows profile(t), each (*members, 3, nx) or three (nx,)
    components, at times every dt back from t_now, the oldest at or before
    t_now - h_max; profile is called once per time, oldest first."""
    m = int(np.ceil(h_max / dt - 1e-9))
    if m * dt < h_max:
        m += 1
    times = [t_now - (m - i) * dt for i in range(m + 1)]
    return HistorySegment(h_max, dt, times, np.array([profile(t) for t in times], dtype=float))


def uniform_row(grid, values) -> np.ndarray:
    """The (3, nx) row that holds each of the three values at every node."""
    return np.repeat(np.array(values, dtype=float)[:, None], grid.nx, axis=1)


def eq_row(grid, eq) -> np.ndarray:
    """The equilibrium's (3, nx) row, constant in space."""
    return uniform_row(grid, (eq.T_hat, eq.T_star_hat, eq.V_hat))
