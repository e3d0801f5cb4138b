"""Model constants, the incidence-function family, and hypothesis checks.

Four closed forms of the infection rate f(T, V) are supported:

    bilinear                f = k*T*V
    saturated               f = k*T*V / (1 + k2*V)
    beddington_deangelis    f = k*T*V / (1 + k1*T + k2*V)
    crowley_martin          f = k*T*V / ((1 + k1*T) * (1 + k2*V))

The stability theory rests on four conditions on f, checked here by
sampling a rectangle in the (T, V) plane:

    hf1   a linear bound |f(T,V)| <= mu*|T| for some mu > 0,
    hf1+  f vanishes on the axes, is positive and strictly increasing in
          both coordinates on the open quadrant,
    hf3   f(T,V)/f(T,V_hat) lies strictly between 1 and V/V_hat,
    hf4   f is smooth in T, or 1/f(T,V_hat) admits a lower bound
          C1 + C2/T with nonnegative constants.

The checkers falsify numerically on the sampled box; they do not prove.
Each evaluates f once per sample grid, as whole arrays.  A ``fails``
verdict always carries the witness point: the first failing sample in
row-major (T, then V) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "KINDS",
    "ModelParams",
    "IncidenceFn",
    "Verdict",
    "HypothesisReport",
    "incidence_values",
    "incidence_ab",
    "incidence_mu",
    "incidence_dT",
    "default_sample_box",
    "check_hf1",
    "check_hf1_plus",
    "check_hf3",
    "check_hf4",
    "check_all",
]

KINDS = ("bilinear", "saturated", "beddington_deangelis", "crowley_martin")

Box = tuple[tuple[float, float], tuple[float, float]]

_EPS_STRICT = 1e-12  # hf3's margin, times min(1, (V/v_hat - 1)^2): a product at or below it is a failure


def _operand(value) -> np.ndarray:
    """``value`` as a read-only float64 array (0-d for a float), which a ufunc takes without converting it."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ModelParams:
    """All scalar constants of the system.

    lam      production rate of susceptible cells (cells/time)
    d        susceptible death rate (1/time)
    delta    infected death rate (1/time)
    burst_n  virions produced per infected cell (dimensionless)
    c        virion clearance rate (1/time)
    omega    intracellular death exponent (1/time)
    h_max    maximal delay (time)
    diff     diffusion coefficients (d1, d2, d3), each >= 0

    Derived once per parameter set, for the solver's step: ``emwh`` =
    e^{-omega h}, ``burst_delta`` = N delta, ``gains``, the two of them as
    read-only 0-d float64 operands, the read-only (3, 1) columns ``loss`` =
    (d, delta, c) and ``diff_column``, which scale (..., 3, nx) rows, and
    ``diffusing``, the indices of the components with d_i > 0.
    """

    lam: float
    d: float
    delta: float
    burst_n: float
    c: float
    omega: float
    h_max: float
    diff: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("lam", "d", "delta", "burst_n", "c", "h_max"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name}: must be positive, got {value}")
        # omega = 0 is the no-intracellular-death limit used by the
        # reference scenarios; e^{+-omega h} degenerates to 1 harmlessly
        if self.omega < 0.0:
            raise ValueError(f"omega: must be nonnegative, got {self.omega}")
        if len(self.diff) != 3 or any(di < 0.0 for di in self.diff):
            raise ValueError(f"diff: need three nonnegative coefficients, got {self.diff}")
        for name, value in {
            "emwh": math.exp(-self.omega * self.h_max),
            "burst_delta": self.burst_n * self.delta,
            "loss": _operand((self.d, self.delta, self.c))[:, None],
            "diff_column": _operand(self.diff)[:, None],
            "diffusing": tuple(i for i, di in enumerate(self.diff) if di),
        }.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "gains", (_operand(self.emwh), _operand(self.burst_delta)))


@dataclass(frozen=True)
class IncidenceFn:
    """Tagged incidence family with optional linear-bound constant mu; ``operands``
    holds k, k1, k2 and 1.0, derived once, as read-only 0-d float64 arrays."""

    kind: str
    k: float
    k1: float = 0.0
    k2: float = 0.0
    mu: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            from difflib import get_close_matches  # only this error path pays its import
            hint = get_close_matches(self.kind, KINDS, n=1)
            extra = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ValueError(f"kind: unknown incidence kind {self.kind!r}{extra}")
        for name in ("k", "k1", "k2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name}: must be nonnegative, got {getattr(self, name)}")
        if self.kind in ("saturated", "beddington_deangelis") and not self.k2 > 0.0:
            raise ValueError(f"k2: must be positive for {self.kind}, got {self.k2}")
        if self.kind == "crowley_martin" and not (self.k1 > 0.0 and self.k2 > 0.0):
            raise ValueError(f"k1, k2: must be positive for crowley_martin, got {self.k1}, {self.k2}")
        if self.mu is not None and not self.mu > 0.0:
            raise ValueError(f"mu: must be positive when given, got {self.mu}")
        object.__setattr__(self, "operands", tuple(map(_operand, (self.k, self.k1, self.k2, 1.0))))


def incidence_values(f: IncidenceFn, T, V, out=None, den=None):
    """Closed-form f(T, V), vectorized, no domain checks (solver hot path), on
    ``f.operands``, one ufunc with a positional out per operation: the kind's
    denominator into ``den``, k T, times V, into ``out``, over it.  Given both
    (the broadcast shape, overlapping neither input nor each other; ``out`` is
    also scratch) nothing is allocated; else the ufuncs allocate, same bits."""
    k, k1, k2, one = f.operands
    if f.kind == "saturated":  # 1 + k2 V
        den = np.add(one, np.multiply(k2, V, den), den)
    elif f.kind == "beddington_deangelis":  # 1 + k1 T + k2 V
        den = np.add(np.add(one, np.multiply(k1, T, den), den), np.multiply(k2, V, out), den)
    elif f.kind == "crowley_martin":  # (1 + k1 T) (1 + k2 V)
        den = np.multiply(np.add(one, np.multiply(k1, T, den), den), np.add(one, np.multiply(k2, V, out), out), den)
    num = np.multiply(np.multiply(k, T, out), V, out)
    return num if f.kind == "bilinear" else np.divide(num, den, out)


def incidence_ab(f: IncidenceFn, v_hat: float) -> tuple[float, float]:
    """(a, b) with f(T, v_hat) = k*v_hat*T / (a + b*T), the same form for every kind.

    This shape gives the Lyapunov layer closed forms for its integral of
    f_hat / f(theta, v_hat) and for the derivative of f in T.
    """
    if f.kind == "bilinear":
        return 1.0, 0.0
    a = 1.0 + f.k2 * v_hat
    if f.kind == "saturated":
        return a, 0.0
    if f.kind == "beddington_deangelis":
        return a, f.k1
    # crowley_martin
    return a, f.k1 * a


def incidence_dT(f: IncidenceFn, T, v_hat: float):
    """Closed-form partial derivative k*v_hat*a / (a + b*T)^2 in T (vectorized)."""
    a, b = incidence_ab(f, v_hat)
    T = np.asarray(T, dtype=float)
    return f.k * v_hat * a / (a + b * T) ** 2


def incidence_mu(f: IncidenceFn) -> float | None:
    """The hf1 constant: explicit mu if set, else the analytic k/k2 bound.

    All kinds with k2 > 0 satisfy f <= (k/k2)*T since k*T*V/(...) <=
    k*T*V/(k2*V).  Bilinear admits no global linear bound.
    """
    if f.mu is not None:
        return f.mu
    if f.kind in ("saturated", "beddington_deangelis", "crowley_martin") and f.k2 > 0.0:
        return f.k / f.k2
    return None


def _as_callable(f) -> Callable:
    """Accept either an IncidenceFn or a raw (T, V) -> value callable.

    A raw callable must accept numpy arrays of T and V and return their
    values elementwise: every check evaluates it on whole sample grids.
    """
    if isinstance(f, IncidenceFn):
        return lambda T, V: incidence_values(f, T, V)
    if callable(f):
        return f
    raise TypeError(f"expected IncidenceFn or callable, got {type(f)!r}")


# ---------------------------------------------------------------------------
# verdicts and reports

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one sampled hypothesis check."""

    status: str
    witness: tuple[float, float] | None = None
    note: str = ""
    info: Mapping | None = None

    def __post_init__(self) -> None:
        if self.status not in (HOLDS, FAILS, NOT_APPLICABLE):
            raise ValueError(f"status: unknown verdict {self.status!r}")
        if self.status == FAILS and self.witness is None:
            raise ValueError("fails verdict requires a witness point")

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


class HypothesisReport(NamedTuple):
    """Verdicts of all four checks plus the sampling used to obtain them."""

    hf1: Verdict
    hf1_plus: Verdict
    hf3: Verdict
    hf4: Verdict
    sample_box: Box
    sample_density: int

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in (self.hf1, self.hf1_plus, self.hf3, self.hf4))


def _validate_box(box: Box) -> tuple[float, float, float, float]:
    (t0, t1), (v0, v1) = box
    if not (t1 > t0 and v1 > v0):
        raise ValueError(f"sample box must have positive area, got {box}")
    if t0 < 0.0 or v0 < 0.0:
        raise ValueError(f"sample box must lie in the nonnegative quadrant, got {box}")
    return float(t0), float(t1), float(v0), float(v1)


def _samples(f, box: Box, n: int, v_hat: float = 1.0):
    """The checks' common start: validate the box, v_hat and n, in that
    order, then f as a callable and the two sample axes Ts and Vs."""
    t0, t1, v0, v1 = _validate_box(box)
    if not v_hat > 0.0:
        raise ValueError(f"v_hat: must be positive, got {v_hat}")
    if n < 2:
        raise ValueError(f"n: need at least 2 samples per axis, got {n}")
    return _as_callable(f), np.linspace(t0, t1, n), np.linspace(v0, v1, n)


def default_sample_box(params: ModelParams, f: IncidenceFn) -> Box:
    """Default box [0, 2*lam/d] x [0, 2*V_bound], V_bound from the invariant set.

    Without a usable mu (bilinear with no explicit constant), mu = 1 is used
    as a notional scale for the V extent.
    """
    mu = incidence_mu(f)
    mu_scale = mu if mu is not None else 1.0
    t_hi = 2.0 * params.lam / params.d
    v_hi = 2.0 * params.burst_n * params.lam * mu_scale * np.exp(-params.omega * params.h_max) / (params.d * params.c)
    return ((0.0, t_hi), (0.0, float(v_hi)))


def check_hf1(f, box: Box, n: int = 50) -> Verdict:
    """Sampled check of |f(T,V)| <= mu*|T| on the box.

    mu is the explicit constant when present, else the analytic k/k2 bound
    for the saturating kinds.  Without any mu the bounded box cannot falsify
    existence (mu = k*V_max works on the box itself), so the verdict is
    not_applicable.
    """
    fn, Ts, Vs = _samples(f, box, n)
    mu = incidence_mu(f) if isinstance(f, IncidenceFn) else None
    if mu is None:
        return Verdict(
            NOT_APPLICABLE,
            note="no candidate mu and none derivable; a bounded box cannot falsify existence",
        )
    TT, VV = np.meshgrid(Ts, Vs, indexing="ij")
    vals = np.abs(fn(TT, VV))
    bound = mu * np.abs(TT)
    bad = vals > bound * (1.0 + 1e-12)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return Verdict(
            FAILS,
            witness=(float(TT[i, j]), float(VV[i, j])),
            note=f"|f|={vals[i, j]:.6g} exceeds mu*|T|={bound[i, j]:.6g} at the witness",
            info={"mu": mu},
        )
    return Verdict(HOLDS, note=f"mu={mu:.6g}", info={"mu": mu})


def check_hf1_plus(f, box: Box, n: int = 50) -> Verdict:
    """Sampled check of the axis zeros, positivity, and strict monotonicity."""
    fn, Ts, Vs = _samples(f, box, n)

    # exact zeros on both axes, regardless of the box ranges
    on_T_axis = np.asarray(fn(Ts, np.zeros_like(Ts)), dtype=float)
    on_V_axis = np.asarray(fn(np.zeros_like(Vs), Vs), dtype=float)
    for axis_vals, axis_pts, mk in ((on_T_axis, Ts, lambda t: (t, 0.0)), (on_V_axis, Vs, lambda v: (0.0, v))):
        nz = np.nonzero(axis_vals != 0.0)[0]
        if nz.size:
            pt = mk(float(axis_pts[nz[0]]))
            return Verdict(FAILS, witness=pt, note="f does not vanish exactly on the axis")

    Tpos = Ts[Ts > 0.0]
    Vpos = Vs[Vs > 0.0]
    if Tpos.size < 2 or Vpos.size < 2:
        return Verdict(NOT_APPLICABLE, note="box contains too few strictly positive samples")
    TT, VV = np.meshgrid(Tpos, Vpos, indexing="ij")
    vals = np.asarray(fn(TT, VV), dtype=float)

    nonpos = vals <= 0.0
    if np.any(nonpos):
        i, j = np.argwhere(nonpos)[0]
        return Verdict(FAILS, witness=(float(TT[i, j]), float(VV[i, j])), note="f is not strictly positive")

    flat_T = np.diff(vals, axis=0) <= 0.0
    if np.any(flat_T):
        i, j = np.argwhere(flat_T)[0]
        return Verdict(
            FAILS,
            witness=(float(TT[i + 1, j]), float(VV[i + 1, j])),
            note="f is not strictly increasing in T",
        )
    flat_V = np.diff(vals, axis=1) <= 0.0
    if np.any(flat_V):
        i, j = np.argwhere(flat_V)[0]
        return Verdict(
            FAILS,
            witness=(float(TT[i, j + 1]), float(VV[i, j + 1])),
            note="f is not strictly increasing in V",
        )
    return Verdict(HOLDS)


def check_hf3(f, v_hat: float, box: Box, n: int = 50) -> Verdict:
    """Sampled strict betweenness of f(T,V)/f(T,v_hat) vs 1 and V/v_hat.

    Verifies (V/v_hat - r) * (r - 1) > _EPS_STRICT * min(1, (V/v_hat - 1)^2), a margin that vanishes
    with the product at V = v_hat, with r = f(T,V)/f(T,v_hat) at all samples with T > 0, V > 0,
    V != v_hat.  An exactly zero product away from V = v_hat is a failure (the bilinear ratio
    cancels T and the product vanishes identically).
    """
    fn, Ts, Vs = _samples(f, box, n, v_hat)
    Ts = Ts[Ts > 0.0]
    # V = v_hat is a boundary where both factors vanish; skip it, not a failure
    Vs = Vs[(Vs > 0.0) & (np.abs(Vs - v_hat) > 1e-9 * max(1.0, v_hat))]
    if Ts.size == 0 or Vs.size == 0:
        return Verdict(NOT_APPLICABLE, note="no admissible samples in the box")
    f_ref = np.asarray(fn(Ts, np.full_like(Ts, v_hat)), dtype=float)
    rows = ~(f_ref <= 0.0)  # division guard: a row with f(T, v_hat) <= 0 is skipped, a NaN row is not
    if not rows.any():
        return Verdict(NOT_APPLICABLE, note="f(T, v_hat) vanished on every sampled row")
    TT, VV = np.meshgrid(Ts[rows], Vs, indexing="ij")
    r = np.asarray(fn(TT, VV), dtype=float) / f_ref[rows, None]
    product = (Vs / v_hat - r) * (r - 1.0)
    bad = np.argwhere(product <= _EPS_STRICT * np.minimum(1.0, (Vs / v_hat - 1.0) ** 2))
    if bad.size:
        i, j = bad[0]
        return Verdict(
            FAILS,
            witness=(float(TT[i, j]), float(VV[i, j])),
            note=f"strictness product {product[i, j]:.3g} <= {_EPS_STRICT:.0e} at the witness",
        )
    return Verdict(HOLDS)


def _nnls2(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin |A x - y| over x >= 0 for two columns, by the KKT cases of
    Lawson & Hanson (*Solving Least Squares Problems*, ch. 23): the free fit
    if it is positive, else the best of zero and the one-column fits.  A QR
    with the longer column first fits a 1/T = 1e300 row before the other."""
    y_max, col = float(np.max(np.abs(y))) or 1.0, np.max(np.abs(A), axis=0)
    As, ys = A / col, y / y_max
    p = [0, 1] if col[0] * np.linalg.norm(As[:, 0]) >= col[1] * np.linalg.norm(As[:, 1]) else [1, 0]
    r = np.linalg.qr(np.column_stack((A[:, p], ys)), mode="r")  # r[:2, 2] is Q^T y
    with np.errstate(divide="ignore", invalid="ignore"):  # a rank-one A leaves r[1, 1] = 0
        w = r[1, 2] / r[1, 1]
        x = np.array([(r[0, 2] - r[0, 1] * w) / r[0, 0], w])[p] * y_max
    if not (np.isfinite(x).all() and (x > 0.0).all()):  # a zero, or one lost to underflow, is on a face
        c = np.maximum(As.T @ ys / np.sum(As * As, axis=0), 0.0) * y_max / col
        fits = (np.zeros(2), np.array([c[0], 0.0]), np.array([0.0, c[1]]))
        x = min(fits, key=lambda z: np.linalg.norm(As @ (z * col / y_max) - ys))  # judged as returned, underflow too
    return x


def check_hf4(f, v_hat: float, box: Box, n: int = 50) -> Verdict:
    """Differentiability in T (branch A) or reciprocal bound (branch B).

    Branch A probes the second difference of f in T at two step sizes; a
    kink makes the probe blow up as the step shrinks.  Branch B fits
    1/f(T, v_hat) >= C1 + C2/T with a closed-form two-variable nonnegative
    least squares (``_nnls2``, by its KKT cases) and verifies the inequality
    at all samples.  The verdict holds if either passes.
    """
    fn, Ts, Vs = _samples(f, box, n, v_hat)
    Tpos = Ts[Ts > 0.0]
    if Tpos.size == 0:
        return Verdict(NOT_APPLICABLE, note="no positive T samples in the box")

    info: dict = {"branch_a": None, "branch_b": None}

    # branch A: second-difference stability probe at steps e and e/2, on
    # every (T, V) at once; the witness is the first failing point in
    # row-major order
    (t0, t1), _ = box
    e = max(1e-4 * (float(t1) - float(t0)), 1e-9)
    half = 0.5 * e
    TT, VV = np.meshgrid(Tpos, np.concatenate(([v_hat], Vs[Vs > 0.0])), indexing="ij")
    f_e, f_0, f_me, f_h, f_mh = (np.asarray(fn(TT + step, VV), dtype=float) for step in (e, 0.0, -e, half, -half))
    with np.errstate(invalid="ignore", over="ignore"):
        r1 = (f_e - 2.0 * f_0 + f_me) / (e * e)
        r2 = (f_h - 2.0 * f_0 + f_mh) / (half * half)
        unstable = ~(np.isfinite(r1) & np.isfinite(r2)) | (
            np.abs(r2 - r1) > 0.25 * (1.0 + np.minimum(np.abs(r1), np.abs(r2)))
        )
    bad = np.argwhere(unstable)
    witness_a = None
    if bad.size:
        i, j = bad[0]
        witness_a = (float(TT[i, j]), float(VV[i, j]))
    info["branch_a"] = witness_a is None

    # branch B: nonnegative least squares, closed form by its KKT cases, for
    # 1/f(T, v_hat) >= C1 + C2/T (evaluated regardless so the fitted
    # constants are always reported)
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


def check_all(f, box: Box, n: int = 50, v_hat: float | None = None) -> HypothesisReport:
    """Run every hypothesis check; hf3/hf4 need a disease equilibrium V_hat."""
    hf1 = check_hf1(f, box, n)
    hf1p = check_hf1_plus(f, box, n)
    if v_hat is None:
        na = Verdict(NOT_APPLICABLE, note="no interior equilibrium available")
        hf3, hf4 = na, na
    else:
        hf3 = check_hf3(f, v_hat, box, n)
        hf4 = check_hf4(f, v_hat, box, n)
    return HypothesisReport(hf1, hf1p, hf3, hf4, box, n)
