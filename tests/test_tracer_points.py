"""The benchmark tracer still finds every layer it times.

``perfbench/tracer.py`` wraps sddlab functions by module and name.  A
rename or a move in ``src/`` would leave a trace point with nothing to
wrap, and a ``--trace 1`` run would fail or read zeros; these tests catch
that without running the benchmark.
"""

import importlib
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sddlab.cli  # noqa: F401  (loads every module the trace points name)
import sddlab.lyapunov as lyapunov
import sddlab.solver as solver
from sddlab import (
    Grid1D, IncidenceFn, ModelParams, ParamJump, SolverConfig, constant_delay, equilibrium_norm, find_equilibria,
)
from sddlab.config import load_config

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def resolve(point):
    target = importlib.import_module(point.module)
    for part in point.attr.split("."):
        target = getattr(target, part)
    return target


def test_every_point_resolves_to_a_callable(tracer):
    assert tracer.POINTS
    for point in tracer.POINTS:
        assert callable(resolve(point)), point


def test_install_wraps_every_point_and_uninstall_leaves_no_wrapper(tracer):
    originals = [resolve(point) for point in tracer.POINTS]
    t = tracer.Tracer()
    t.install()
    try:
        for point in tracer.POINTS:
            assert getattr(resolve(point), tracer.MARK, False), point
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    assert [resolve(point) for point in tracer.POINTS] == originals


def test_the_stream_calls_step_and_rhs_through_their_solver_bindings(monkeypatch):
    # the tracer's solver.step and solver.rhs counts read zero if the time loop
    # stops looking these names up in sddlab.solver
    calls = {"step": 0, "rhs": 0}

    def counting(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    counting("step")
    counting("rhs")
    params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=0.5, diff=(1e-3, 0.0, 2e-3))
    members = [solver.InitialData(preset="gaussian_bump"), solver.InitialData(preset="uniform")]
    cfg = SolverConfig(dt=0.01, t_end=0.5)
    stream = solver.RunStream(
        members, params, IncidenceFn("saturated", k=0.1, k2=0.1), constant_delay(0.5, 0.2), cfg, Grid1D(0.0, 1.0, 5),
        [ParamJump(0.255, "burst_n", 5.0)],
    )
    assert calls == {"step": 0, "rhs": 1}  # the compatibility residual's
    steps = sum(1 for _ in stream) - 1  # every sample but the initial one leaves a step behind it
    assert steps == 51  # 50 steps of dt, one of them split by the jump
    assert calls == {"step": steps, "rhs": steps + 1}


def test_a_traced_certify_counts_every_members_samples_and_one_decomposition_per_block(tracer):
    # the monitor's samples are one flat record array over the members, whose
    # rows the tracer counts; each block of every member is decomposed in one
    # call, and the verdicts are the untraced run's
    cfg = load_config(CONFIGS / "saturated_integral_delay.ini")
    (eq,) = [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]
    eps = [frac * equilibrium_norm(eq) for frac in cfg.output.eps_fractions]
    args = (eq, eps, cfg.params, cfg.incidence, cfg.delay, replace(cfg.solver, t_end=4.0), cfg.grid)
    kwargs = dict(directions=cfg.output.directions, stride=cfg.output.monitor_stride)
    t = tracer.Tracer()
    t.install()
    try:
        verdicts = lyapunov.certify_local_stability(*args, **kwargs)
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    assert repr(verdicts) == repr(lyapunov.certify_local_stability(*args, **kwargs))
    members = len(eps) * len(cfg.output.directions)
    total = sum(v.n_samples for v in verdicts)
    assert members == 6 and all(v.abort is None for v in verdicts) and total % members == 0
    assert t.samples == [sum(v.n_valid for v in verdicts), total]
    blocks = math.ceil(total // members / lyapunov.MONITOR_BLOCK)
    calls = t.metrics()
    assert blocks > 1
    assert calls["lyapunov.monitor.calls"] == calls["lyapunov.rate_decomposition.calls"] == blocks
    assert calls["lyapunov.u_sdd_total.calls"] == blocks
