"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance is written out here;
nothing is deferred to later calibration.  Each line prints its elapsed
wall time, which no test asserts on: it measures the machine as much as
the code.
"""

import math
import time

import numpy as np
import pytest

from sddlab import (
    Grid1D,
    IncidenceFn,
    ModelParams,
    ParamJump,
    SolverConfig,
    certify_local_stability,
    constant_delay,
    equilibrium_norm,
    find_equilibria,
    integral_delay,
    monitor,
    rhs,
    run,
    state_mean_reducer,
)
from sddlab.lyapunov import _v
from sddlab.model import check_all, default_sample_box
from sddlab.solver import InitialData

from .oracles import fixed_lag_euler, green_identity_residual, saturated_closed_form

REF = dict(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=1.0)
SATURATED = IncidenceFn("saturated", k=0.1, k2=0.1)
BILINEAR = IncidenceFn("bilinear", k=0.1)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c1_volterra_suite():
    t0 = time.perf_counter()
    ok = _v(1.0) == 0.0
    worst = 0.0
    for s in np.concatenate([np.linspace(1e-6, 0.999, 300), np.linspace(1.001, 50.0, 300)]):
        ok = ok and _v(float(s)) > 0.0
    for mu in np.linspace(0.01, 0.99, 100):
        s_vals = 1.0 + np.linspace(-1.0, 1.0, 102)[1:-1] * mu
        v = s_vals - 1.0 - np.log(s_vals)
        lo = (s_vals - 1.0) ** 2 / (2.0 * (1.0 + mu))
        hi = (s_vals - 1.0) ** 2 / (2.0 * (1.0 - mu))
        worst = max(worst, float(np.max(lo - v)), float(np.max(v - hi)))
    ok = ok and worst <= 1e-12
    elapsed = time.perf_counter() - t0
    report("C1 volterra-suite", ok, f"worst bound excess {worst:.2e}, {elapsed:.2f}s")


def test_c2_equilibrium_oracle():
    t0 = time.perf_counter()
    params = ModelParams(**REF)
    eqs = find_equilibria(params, BILINEAR)
    trivial, interior = eqs[0], eqs[1:]
    ok = (trivial.T_hat, trivial.T_star_hat, trivial.V_hat) == (100.0, 0.0, 0.0)
    ok = ok and trivial.residual == 0.0
    ok = ok and len(interior) == 1
    eq = interior[0]
    dev = max(abs(eq.T_hat - 5.0), abs(eq.T_star_hat - 19.0), abs(eq.V_hat - 19.0))
    ok = ok and dev <= 1e-8 and eq.residual <= 1e-8
    elapsed = time.perf_counter() - t0
    report("C2 equilibrium-oracle", ok, f"triple dev {dev:.2e}, residual {eq.residual:.2e}, {elapsed:.2f}s")


def test_c3_discrete_green_identity():
    t0 = time.perf_counter()
    residuals = []
    for nx in (201, 401, 801):
        grid = Grid1D(0.0, 1.0, nx)
        u = np.cos(np.pi * grid.nodes())
        residuals.append(green_identity_residual(grid, u, lambda s: s, lambda s: np.ones_like(s)))
    ratios = (residuals[0] / residuals[1], residuals[1] / residuals[2])
    ok = residuals[0] <= 1e-3
    ok = ok and all(3.0 <= r <= 5.0 for r in ratios)
    elapsed = time.perf_counter() - t0
    report(
        "C3 green-identity",
        ok,
        f"residual {residuals[0]:.2e}, ratios {ratios[0]:.2f}/{ratios[1]:.2f}, {elapsed:.2f}s",
    )


def test_c4_invariant_box_containment():
    t0 = time.perf_counter()
    params = ModelParams(**REF, diff=(1e-3, 1e-3, 2e-3))
    grid = Grid1D(0.0, 1.0, 101)
    initial = InitialData(preset="gaussian_bump", values=(50.0, 10.0, 10.0), bump_amp=(20.0, 30.0, 40.0))
    cfg = SolverConfig(dt=1e-2, t_end=50.0, invariance_tol=1e-9)
    traj = run(initial, params, SATURATED, constant_delay(1.0, 0.4), cfg, grid)
    ok = traj.bounds == (100.0, 200.0, 200.0)
    ok = ok and not traj.aborted
    violations = int(np.sum(traj.lower_violations) + np.sum(traj.upper_violations))
    ok = ok and violations == 0
    elapsed = time.perf_counter() - t0
    report("C4 invariant-box", ok, f"bounds {traj.bounds}, violations {violations}, {elapsed:.2f}s")


def test_c5_constant_delay_reduction_oracle():
    t0 = time.perf_counter()
    params = ModelParams(**REF)
    grid = Grid1D(0.0, 1.0, 3)
    eq = find_equilibria(params, SATURATED)[1]
    lag, dt, t_end = 0.4, 0.01, 10.0
    eps = 0.05 * equilibrium_norm(eq)
    initial = InitialData(preset="equilibrium_perturbation", epsilon=eps, equilibrium=eq)
    traj = run(initial, params, SATURATED, constant_delay(1.0, lag), SolverConfig(dt=dt, t_end=t_end), grid)

    fsat = saturated_closed_form(0.1, 0.1)
    w = np.ones(3) / math.sqrt(3.0)
    u0 = np.array([eq.T_hat, eq.T_star_hat, eq.V_hat]) + eps * w

    def rhs3(u, ud):
        return [
            10.0 - 0.1 * u[0] - fsat(u[0], u[2]),
            fsat(ud[0], ud[2]) - 0.5 * u[1],
            10.0 * 0.5 * u[1] - 5.0 * u[2],
        ]

    ref = fixed_lag_euler(rhs3, lambda t: u0, lag, dt / 10.0, t_end)
    err = 0.0
    for k in range(len(traj)):
        T, T_star, V = traj.fields[k]
        r = ref[10 * k]
        err = max(err, abs(T[0] - r[0]), abs(T_star[0] - r[1]), abs(V[0] - r[2]))
    ok = err <= 20.0 * dt
    elapsed = time.perf_counter() - t0
    report("C5 constant-delay-oracle", ok, f"max err {err:.3e} vs budget {20 * dt}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def lyapunov_reference_run():
    """Criterion 6's runs (also reused by criterion 8)."""
    t0 = time.perf_counter()
    params = ModelParams(**REF, diff=(1e-3, 1e-3, 2e-3))
    grid = Grid1D(0.0, 1.0, 41)
    df = constant_delay(1.0, 0.4)
    eq = find_equilibria(params, SATURATED)[1]
    box = default_sample_box(params, SATURATED)
    hypotheses = check_all(SATURATED, box, n=50, v_hat=eq.V_hat)
    eps = 0.05 * equilibrium_norm(eq)
    cfg = SolverConfig(dt=1e-2, t_end=50.0)
    sample_sets = {}
    for direction, weights in (("constant", None), ("gaussian_bump", (0.6, -0.2, 0.77))):
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=eps,
            equilibrium=eq,
            direction=direction,
            weights=weights,
            bump_center=0.45,
            bump_width=0.15,
        )
        traj = run(initial, params, SATURATED, df, cfg, grid)
        sample_sets[direction] = monitor(traj, eq, params, SATURATED, grid, stride=10, warmup=2.0)
    return {
        "hypotheses": hypotheses,
        "samples": sample_sets,
        "elapsed": time.perf_counter() - t0,
    }


def test_c6_lyapunov_decrease(lyapunov_reference_run):
    data = lyapunov_reference_run
    ok = data["hypotheses"].all_hold
    detail = []
    for direction, samples in data["samples"].items():
        valid = [s for s in samples if s.valid]
        ok = ok and len(valid) >= 100
        frac = sum(1 for s in valid if s.dU_dt_fd <= 1e-8) / len(valid)
        ok = ok and frac >= 0.99
        ok = ok and all(s.S_int == 0.0 for s in samples if s.valid)
        detail.append(f"{direction}: decrease {frac:.4f} on {len(valid)} samples")
    elapsed = data["elapsed"]
    report("C6 lyapunov-decrease", ok, "; ".join(detail) + f", S_int == 0, {elapsed:.2f}s")


def test_c7_sdd_smallness():
    t0 = time.perf_counter()
    params = ModelParams(**REF, diff=(1e-3, 1e-3, 2e-3))
    grid = Grid1D(0.0, 1.0, 41)
    eq = find_equilibria(params, SATURATED)[1]
    a = 0.4 / eq.V_hat  # eta sits near 0.4 at the equilibrium
    df = integral_delay(1.0, state_mean_reducer(grid, "V", a))
    cfg = SolverConfig(dt=1e-2, t_end=6.0)
    norm = equilibrium_norm(eq)
    verdicts = certify_local_stability(
        eq,
        [0.1 * norm, 0.05 * norm, 0.025 * norm],
        params,
        SATURATED,
        df,
        cfg,
        grid,
        seed=0,
        stride=5,
    )
    rates = [v.max_eta_rate for v in verdicts]
    ratios = [v.s_over_d for v in verdicts]
    ok = rates[0] >= rates[1] >= rates[2] > 0.0
    ok = ok and ratios[-1] < 1.0
    elapsed = time.perf_counter() - t0
    report(
        "C7 sdd-smallness",
        ok,
        f"max|deta/dt| {rates[0]:.2e} >= {rates[1]:.2e} >= {rates[2]:.2e}, "
        f"S/D at smallest eps {ratios[-1]:.3f}, {elapsed:.2f}s",
    )


def test_c8_seven_logarithm_identity(lyapunov_reference_run):
    worst_excess = -math.inf
    count = 0
    ok = True
    for samples in lyapunov_reference_run["samples"].values():
        for s in samples:
            if not s.valid:
                continue
            count += 1
            excess = s.c1_abs_dev - (1e-9 * s.c1_scale + 1e-14)
            worst_excess = max(worst_excess, excess)
            ok = ok and excess <= 0.0
    ok = ok and count >= 200
    report("C8 seven-log-identity", ok, f"{count} samples, worst excess {worst_excess:.2e}")


def test_c9_drug_schedule_scenario():
    t0 = time.perf_counter()
    params = ModelParams(**REF)
    grid = Grid1D(0.0, 1.0, 3)
    eq = find_equilibria(params, SATURATED)[1]
    dt = 0.01
    initial = InitialData(preset="equilibrium_perturbation", epsilon=0.0, equilibrium=eq)
    traj = run(
        initial,
        params,
        SATURATED,
        constant_delay(1.0, 0.4),
        SolverConfig(dt=dt, t_end=12.0),
        grid,
        [ParamJump(10.0, "burst_n", 5.0)],
    )
    k = int(np.argmin(np.abs(traj.times - 10.0)))
    V = traj.fields[:, 2, 0]
    Ts = traj.fields[:, 1, 0]

    # continuity: the value gap across the jump stays within 10*dt*|rhs|
    post_params = ModelParams(**{**REF, "burst_n": 5.0})
    vec = rhs(traj.fields[k], traj.fields[k], post_params, SATURATED, grid)
    rhs_sup = float(np.max(np.abs(vec)))
    gap = abs(V[k + 1] - V[k])
    ok = gap <= 10.0 * dt * rhs_sup

    # the one-sided dV/dt kink matches delta * <T*> * dN within 10%
    d_minus = (V[k] - V[k - 1]) / dt
    d_plus = (V[k + 1] - V[k]) / dt
    expected = 0.5 * Ts[k] * (5.0 - 10.0)
    rel = abs((d_plus - d_minus) - expected) / abs(expected)
    ok = ok and rel <= 0.10
    elapsed = time.perf_counter() - t0
    report(
        "C9 drug-schedule",
        ok,
        f"gap {gap:.3e} <= {10 * dt * rhs_sup:.3e}, kink rel err {rel:.2%}, {elapsed:.2f}s",
    )
