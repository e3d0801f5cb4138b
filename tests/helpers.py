"""Small helpers shared by the test modules."""

from __future__ import annotations


def push_state(seg, t: float, state) -> None:
    """Append ``state``, a FieldState or a (*members, 3, nx) row, as the
    segment's row at time t: fill ``next_row()``, then ``push(t)``."""
    seg.next_row()[...] = tuple(state)
    seg.push(t)
