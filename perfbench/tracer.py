"""In-process tracing of sddlab's layers by wrapping their public names.

Each trace point names a function (or method) of one sddlab module.  On
install, every binding of that function in every loaded ``sddlab`` module
is replaced by a wrapper, so the name each caller actually looks up is
the one that is timed: ``evaluate_eta``, for example, is bound separately
in ``sddlab.history``, ``sddlab.solver`` and ``sddlab.lyapunov``.  A
point with an explicit ``only`` binding wraps just that one, which is how
the ``xi`` reducer is counted through ``sddlab.history.mean_value``.

Spans carry their parent's id, so self time is a span's duration minus
the durations of its direct children.  Functions called more than ~1e5
times are counted, not spanned.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

MARK = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Point:
    name: str  # metric prefix, "<module>.<function>"
    module: str  # defining module
    attr: str  # function name, or "Class.method"
    spanned: bool = True
    only: bool = False  # wrap only the defining module's binding


POINTS = (
    Point("config.load_config", "sddlab.config", "load_config"),
    Point("equilibria.find_equilibria", "sddlab.equilibria", "find_equilibria"),
    Point("model.check_all", "sddlab.model", "check_all"),
    Point("model.incidence_values", "sddlab.model", "incidence_values", spanned=False),
    Point("grid.laplacian_neumann", "sddlab.grid", "laplacian_neumann"),
    Point("history.evaluate_eta", "sddlab.history", "evaluate_eta"),
    Point("history.delayed_state", "sddlab.history", "delayed_state"),
    Point("history.xi", "sddlab.history", "mean_value", spanned=False, only=True),
    Point("solver.run", "sddlab.solver", "run"),
    Point("solver.step", "sddlab.solver", "step"),
    Point("solver.rhs", "sddlab.solver", "rhs"),
    Point("solver.segment_at", "sddlab.solver", "Trajectory.segment_at"),
    Point("lyapunov.certify_local_stability", "sddlab.lyapunov", "certify_local_stability"),
    Point("lyapunov.monitor", "sddlab.lyapunov", "monitor"),
    Point("lyapunov.rate_decomposition", "sddlab.lyapunov", "rate_decomposition"),
    Point("lyapunov.u_sdd_total", "sddlab.lyapunov", "u_sdd_total"),
    Point("cli.cmd", "sddlab.cli", "cmd_simulate"),
    Point("cli.cmd", "sddlab.cli", "cmd_certify"),
)


def _sddlab_modules():
    """(name, module) of every loaded sddlab module, in name order."""
    return [
        (name, mod)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "sddlab" or name.startswith("sddlab."))
    ]


def _owner_and_name(point: Point):
    owner = sys.modules[point.module]
    name = point.attr
    if "." in name:
        cls, name = name.split(".", 1)
        owner = getattr(owner, cls)
    return owner, name


def _bindings(point: Point, original):
    """Every (namespace object, attribute) through which callers reach `original`."""
    owner, name = _owner_and_name(point)
    if point.only or owner is not sys.modules[point.module]:
        return [(owner, name)]
    return [(mod, attr) for _, mod in _sddlab_modules() for attr, value in vars(mod).items() if value is original]


class Tracer:
    """Spans (name, parent id, start, end) and call counters kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples = [0, 0]  # valid, total Lyapunov samples seen by monitor
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        samples = self.samples
        counts_samples = name == "lyapunov.monitor"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counts_samples:
                samples[0] += sum(1 for s in result if s.valid)
                samples[1] += len(result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for point in POINTS:
            owner, name = _owner_and_name(point)
            original = vars(owner)[name]
            make = self._span_wrapper if point.spanned else self._count_wrapper
            wrapper = make(point.name, original)
            for target, attr in _bindings(point, original):
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-name totals: '<name>.calls', '<name>.s' and '<name>.self_s'."""
        total: Counter = Counter()
        child: Counter = Counter()
        out: dict[str, float] = {}
        for name, parent, t0, t1 in self.spans:
            dur = t1 - t0
            total[name] += dur
            if parent >= 0:
                child[parent] += dur
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        self_time: Counter = Counter()
        for i, (name, _, t0, t1) in enumerate(self.spans):
            self_time[name] += (t1 - t0) - child[i]
        for name in total:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        return out


def leftover_wrappers() -> list[str]:
    """Names in loaded sddlab modules and classes that still hold a wrapper."""
    left = []
    for mod_name, mod in _sddlab_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                left.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                left += [f"{mod_name}.{attr}.{m}" for m, v in vars(value).items() if getattr(v, MARK, False)]
    return left


def layer_metrics(raw: dict[str, float], valid: int, total: int) -> dict[str, float]:
    """The benchmark's per-layer metrics from a traced run's raw totals."""

    def g(key: str) -> float:
        return raw.get(key, 0)

    eta_calls = g("history.evaluate_eta.calls")
    step_calls = g("solver.step.calls")
    return {
        "history.evaluate_eta.calls": eta_calls,
        "history.evaluate_eta.self_s": g("history.evaluate_eta.self_s"),
        "history.xi.calls": g("history.xi.calls"),
        "history.xi_per_eta": g("history.xi.calls") / eta_calls if eta_calls else 0.0,
        "history.delayed_state.s": g("history.delayed_state.s"),
        "lyapunov.monitor.s": g("lyapunov.monitor.s"),
        "lyapunov.rate_decomposition.calls": g("lyapunov.rate_decomposition.calls"),
        "lyapunov.u_sdd_total.calls": g("lyapunov.u_sdd_total.calls"),
        "lyapunov.u_sdd_total.self_s": g("lyapunov.u_sdd_total.self_s"),
        "lyapunov.valid_fraction": valid / total if total else 0.0,
        "solver.segment_at.calls": g("solver.segment_at.calls"),
        "model.incidence_values.calls": g("model.incidence_values.calls"),
        "solver.run.s": g("solver.run.s"),
        "solver.step.calls": step_calls,
        "solver.step.self_s": g("solver.step.self_s"),
        "solver.rhs.calls": g("solver.rhs.calls"),
        "solver.rhs.s": g("solver.rhs.s"),
        "solver.rhs_per_step": g("solver.rhs.calls") / step_calls if step_calls else 0.0,
        "grid.laplacian_neumann.calls": g("grid.laplacian_neumann.calls"),
        "grid.laplacian_neumann.s": g("grid.laplacian_neumann.s"),
        "cli.self_s": g("cli.cmd.self_s"),
        "config.load_config.s": g("config.load_config.s"),
        "model.check_all.s": g("model.check_all.s"),
        "equilibria.find_equilibria.s": g("equilibria.find_equilibria.s"),
    }
