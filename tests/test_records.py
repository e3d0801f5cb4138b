"""The value records that are NamedTuples, and Trajectory's constructor.

Each record keeps the field names, field order, defaults, repr text, value
equality and hashing, and read-only fields it had as a frozen dataclass.
Every expected value is written out here, not derived from the class.
"""

import inspect

import numpy as np
import pytest

from sddlab.config import OutputConfig, RunConfig
from sddlab.equilibria import Equilibrium
from sddlab.history import HistorySegment
from sddlab.lyapunov import StabilityVerdict
from sddlab.model import HypothesisReport, Verdict
from sddlab.solver import ParamJump, Trajectory

EQ = Equilibrium(1.0, 2.0, 3.0, "interior", 0.0)
HOLDS, FAILS = Verdict("holds"), Verdict("fails", (1.0, 2.0))
OUTPUT = dict(
    dir="out", probe_nodes=5, monitor_stride=10, warmup=None, tol_decrease=1e-08, eps_fractions=(0.1, 0.05),
    directions=("constant",), seed=0, hyp_box_t=None, hyp_box_v=2.5, hyp_density=50,
)

# class -> (field names in order, defaults, keyword arguments of one instance, its repr)
RECORDS = {
    ParamJump: (
        ("t", "name", "value"),
        {},
        dict(t=1.5, name="burst_n", value=5.0),
        "ParamJump(t=1.5, name='burst_n', value=5.0)",
    ),
    HypothesisReport: (
        ("hf1", "hf1_plus", "hf3", "hf4", "sample_box", "sample_density"),
        {},
        dict(hf1=HOLDS, hf1_plus=HOLDS, hf3=FAILS, hf4=HOLDS, sample_box=((0.0, 1.0), (0.0, 2.0)), sample_density=3),
        "HypothesisReport(hf1=Verdict(status='holds', witness=None, note='', info=None), "
        "hf1_plus=Verdict(status='holds', witness=None, note='', info=None), "
        "hf3=Verdict(status='fails', witness=(1.0, 2.0), note='', info=None), "
        "hf4=Verdict(status='holds', witness=None, note='', info=None), "
        "sample_box=((0.0, 1.0), (0.0, 2.0)), sample_density=3)",
    ),
    StabilityVerdict: (
        ("equilibrium", "epsilon", "decrease_fraction", "n_valid", "n_samples", "max_eta_rate", "s_over_d",
         "initial_distance", "terminal_distance", "verdict", "abort"),
        {"abort": None},
        dict(equilibrium=EQ, epsilon=0.5, decrease_fraction=1.0, n_valid=9, n_samples=10, max_eta_rate=0.01,
             s_over_d=0.02, initial_distance=0.5, terminal_distance=0.25, verdict="stable_evidence"),
        "StabilityVerdict(equilibrium=Equilibrium(T_hat=1.0, T_star_hat=2.0, V_hat=3.0, kind='interior', "
        "residual=0.0, degenerate=False), epsilon=0.5, decrease_fraction=1.0, n_valid=9, n_samples=10, "
        "max_eta_rate=0.01, s_over_d=0.02, initial_distance=0.5, terminal_distance=0.25, "
        "verdict='stable_evidence', abort=None)",
    ),
    OutputConfig: (
        ("dir", "probe_nodes", "monitor_stride", "warmup", "tol_decrease", "eps_fractions", "directions", "seed",
         "hyp_box_t", "hyp_box_v", "hyp_density"),
        {},
        OUTPUT,
        "OutputConfig(dir='out', probe_nodes=5, monitor_stride=10, warmup=None, tol_decrease=1e-08, "
        "eps_fractions=(0.1, 0.05), directions=('constant',), seed=0, hyp_box_t=None, hyp_box_v=2.5, "
        "hyp_density=50)",
    ),
    # a RunConfig validates nothing, so placeholders show its form
    RunConfig: (
        ("params", "incidence", "delay", "grid", "solver", "initial", "eq_index", "epsilon_rel", "schedule", "output"),
        {},
        dict(params="p", incidence="f", delay="df", grid="g", solver="s", initial="i", eq_index=0, epsilon_rel=0.05,
             schedule=(), output="o"),
        "RunConfig(params='p', incidence='f', delay='df', grid='g', solver='s', initial='i', eq_index=0, "
        "epsilon_rel=0.05, schedule=(), output='o')",
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_defaults_and_repr(self, cls):
        names, defaults, kwargs, text = RECORDS[cls]
        assert cls._fields == names
        assert cls._field_defaults == defaults
        record = cls(**kwargs)
        assert repr(record) == text
        assert cls(*(kwargs.get(name, defaults.get(name)) for name in names)) == record

    def test_value_equality_and_hash(self, cls):
        _, _, kwargs, _ = RECORDS[cls]
        record, twin = cls(**kwargs), cls(**kwargs)
        assert record == twin and hash(record) == hash(twin)
        first = cls._fields[0]
        other = cls(**{**kwargs, first: "changed"})
        assert other != record and other._replace(**{first: kwargs[first]}) == record

    def test_fields_are_read_only(self, cls):
        _, _, kwargs, _ = RECORDS[cls]
        record = cls(**kwargs)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_all_hold_reads_the_four_verdicts():
    _, _, kwargs, _ = RECORDS[HypothesisReport]
    assert not HypothesisReport(**kwargs).all_hold
    assert HypothesisReport(**{**kwargs, "hf3": HOLDS}).all_hold


def test_trajectory_constructor_keeps_its_parameters():
    params = inspect.signature(Trajectory).parameters
    assert list(params) == [
        "history", "eta", "lower_violations", "upper_violations", "bounds", "clip_events", "aborted", "abort_time",
        "compat_residual",
    ]
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == {
        "lower_violations": None, "upper_violations": None, "bounds": None, "clip_events": 0, "aborted": False,
        "abort_time": None, "compat_residual": None,
    }
    history = HistorySegment(0.5, 0.5, [0.0, 0.5], np.zeros((2, 3, 4)))
    traj = Trajectory(history, np.array([0.25, 0.25]))
    assert traj.lower_violations.dtype == int and traj.lower_violations.shape == (0,)
    assert (traj.upper_violations, traj.bounds, traj.clip_events, traj.aborted) == (None, None, 0, False)
    assert (traj.abort_time, traj.compat_residual, traj.h_max, traj.dt, len(traj)) == (None, None, 0.5, 0.5, 2)
    assert traj.times.tolist() == [0.0, 0.5] and traj.fields.shape == (2, 3, 4)
