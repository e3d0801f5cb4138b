"""Stationary solutions: the trivial equilibrium and interior roots.

Stationary triples do not depend on the delay kind, so the system reduces
to one scalar condition on the infected-cell coordinate s = T*_hat:

    h_f(s) = f(lam/d - (delta/d) e^{omega h} s, (N delta / c) s) - delta e^{omega h} s

whose roots on (0, s_max] are the interior (chronic-disease) equilibria,
with T_hat = (lam - delta s e^{omega h}) / d and V_hat = (N delta / c) s.
The admissible bracket ends at s_max = lam e^{-omega h} / delta, where
T_hat reaches zero; h_f(0) = 0 is the trivial root.  All sign-changing
roots are returned (multiple equilibria may coexist); tangential roots
are invisible to bisection by design.  The scan resolution (``_CELLS``),
the bisection tolerance and the residual gate are fixed constants.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import IncidenceFn, ModelParams, incidence_values

log = logging.getLogger(__name__)

_CELLS = 1000  # scan cells over the bracket
_TOL = 1e-10  # bisection stops at |h_f| <= _TOL
_RESIDUAL_TOL = 1e-8  # the largest stationary residual an equilibrium may leave

__all__ = [
    "Equilibrium",
    "s_max",
    "h_f",
    "stationary_residual",
    "trivial_equilibrium",
    "find_interior_roots",
    "assemble_equilibrium",
    "find_equilibria",
    "equilibrium_norm",
]


@dataclass(frozen=True)
class Equilibrium:
    """A stationary triple with its residual against the stationary system."""

    T_hat: float
    T_star_hat: float
    V_hat: float
    kind: str  # "trivial" or "interior"
    residual: float
    degenerate: bool = False  # boundary root with T_hat = 0

    def __post_init__(self) -> None:
        if self.kind not in ("trivial", "interior"):
            raise ValueError(f"kind: must be trivial or interior, got {self.kind!r}")
        if min(self.T_hat, self.T_star_hat, self.V_hat) < 0.0:
            raise ValueError("equilibrium coordinates must be nonnegative")


def s_max(params: ModelParams) -> float:
    """Upper end of the admissible T*_hat bracket (where T_hat hits 0)."""
    return params.lam * params.emwh / params.delta


def h_f(params: ModelParams, f: IncidenceFn, s):
    """The scalar root function; accepts a scalar or an array of s values."""
    s_arr = np.asarray(s, dtype=float)
    hi = s_max(params)
    if np.any(s_arr < 0.0) or np.any(s_arr > hi * (1.0 + 1e-12)):
        raise ValueError(f"h_f: s outside the admissible bracket [0, {hi:.6g}]")
    ewh = math.exp(params.omega * params.h_max)
    T_arg = params.lam / params.d - (params.delta / params.d) * ewh * s_arr
    T_arg = np.maximum(T_arg, 0.0)  # clip fp dust at the bracket end
    V_arg = (params.burst_delta / params.c) * s_arr
    out = incidence_values(f, T_arg, V_arg) - params.delta * ewh * s_arr
    return float(out) if np.ndim(out) == 0 else out


def stationary_residual(params: ModelParams, f: IncidenceFn, T: float, Ts: float, V: float) -> float:
    """Max absolute residual of the three stationary equations."""
    ewh = math.exp(params.omega * params.h_max)
    fv = float(incidence_values(f, T, V))
    r1 = params.lam - params.d * T - fv
    r2 = fv / ewh - params.delta * Ts
    r3 = params.burst_delta * Ts - params.c * V
    return max(abs(r1), abs(r2), abs(r3))


def trivial_equilibrium(params: ModelParams, f: IncidenceFn) -> Equilibrium:
    """(lam/d, 0, 0), which always exists; its residual is exactly zero."""
    T = params.lam / params.d
    return Equilibrium(T, 0.0, 0.0, "trivial", stationary_residual(params, f, T, 0.0, 0.0))


def find_interior_roots(params: ModelParams, f: IncidenceFn) -> list[float]:
    """Scan (eps_s, s_max] in ``_CELLS`` cells for sign changes of h_f and
    bisect each one.

    eps_s = 1e-9 * s_max excludes the trivial root at 0.  Bisection stops
    at |h_f| <= _TOL (or once the cell width is exhausted); results are
    sorted and deduplicated within 10*_TOL.  An empty list means no interior
    equilibrium was detected at this resolution.
    """
    hi = s_max(params)
    lo = 1e-9 * hi
    edges = np.linspace(lo, hi, _CELLS + 1)
    vals = h_f(params, f, edges)

    roots: list[float] = []
    for i in range(_CELLS):
        a, b = float(edges[i]), float(edges[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if fb == 0.0:
            if i == _CELLS - 1:
                roots.append(b)
            continue
        if fa * fb > 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = float(h_f(params, f, mid))
            if abs(fm) <= _TOL or (b - a) <= 1e-16 * hi:
                roots.append(mid)
                break
            if fa * fm < 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        else:
            roots.append(0.5 * (a + b))

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 10.0 * _TOL:
            deduped.append(r)
    if not deduped:
        log.info("no interior equilibrium detected at this resolution (%d cells)", _CELLS)
    return deduped


def assemble_equilibrium(params: ModelParams, f: IncidenceFn, s_root: float) -> Equilibrium:
    """Lift a validated root of h_f to the full stationary triple.

    Rejects candidates whose stationary residual exceeds ``_RESIDUAL_TOL``.
    A root at the bracket end gives T_hat = 0 and is flagged degenerate
    (the local-stability hypotheses lose meaning there).
    """
    ewh = math.exp(params.omega * params.h_max)
    Ts = float(s_root)
    T = max((params.lam - params.delta * Ts * ewh) / params.d, 0.0)
    V = params.burst_delta * Ts / params.c
    res = stationary_residual(params, f, T, Ts, V)
    if not res <= _RESIDUAL_TOL:
        raise ValueError(
            f"assemble_equilibrium: s={s_root!r} leaves stationary residual {res:.3g} "
            f"above tolerance {_RESIDUAL_TOL:.3g}"
        )
    degenerate = T <= 1e-12 * max(1.0, params.lam / params.d)
    return Equilibrium(T, Ts, V, "interior", res, degenerate=degenerate)


def find_equilibria(params: ModelParams, f: IncidenceFn) -> list[Equilibrium]:
    """The trivial equilibrium followed by all detected interior ones."""
    roots = find_interior_roots(params, f)
    return [trivial_equilibrium(params, f)] + [assemble_equilibrium(params, f, s) for s in roots]


def equilibrium_norm(eq: Equilibrium) -> float:
    """Euclidean size of the triple, used to scale perturbation sweeps."""
    return math.sqrt(eq.T_hat**2 + eq.T_star_hat**2 + eq.V_hat**2)
