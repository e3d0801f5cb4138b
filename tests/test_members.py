"""Runs that advance as one stream over a member axis.

``certify`` perturbs its equilibrium along every eps x direction and runs
all of them as one ``RunStream`` over a member axis, monitoring each block
of samples as the stream yields it.  Each member must equal its solo run
bit for bit: rows, eta, box counts and every ``LyapunovSample`` field.  A
member that blows up is frozen and masked, and must still report its solo
abort; the others must run on unchanged.
"""

import math
from bisect import bisect_left
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sddlab.lyapunov as lyapunov
from sddlab import (
    Equilibrium,
    FieldState,
    Grid1D,
    HistorySegment,
    IncidenceFn,
    ModelParams,
    SolverConfig,
    certify_local_stability,
    constant_delay,
    delayed_state,
    equilibrium_norm,
    evaluate_eta,
    find_equilibria,
    integral_delay,
    monitor,
    run,
    state_mean_reducer,
    step,
    wrapped_delay,
)
from sddlab.config import load_config
from sddlab.lyapunov import MONITOR_BLOCK
from sddlab.solver import InitialData, RunStream

from .test_cli import ABORT_CONFIG, JUMP_CONFIG

CONFIGS = Path(__file__).parent.parent / "configs"


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def sample_bits(samples) -> list[bytes]:
    return [
        bits((s.t, s.U, s.dU_dt_fd, s.S_int, s.D_int, s.Ddiff, *s.Ddiff_terms, s.C1_int, s.c1_abs_dev,
              s.c1_scale, s.residual, s.eta, s.eta_rate, s.valid))
        for s in samples
    ]


def assert_same_run(member, solo):
    assert (member.aborted, member.abort_time, member.clip_events) == (solo.aborted, solo.abort_time, solo.clip_events)
    assert member.compat_residual == solo.compat_residual
    assert bits(member.times) == bits(solo.times)
    assert bits(member.fields) == bits(solo.fields)
    assert bits(member.eta) == bits(solo.eta)
    assert np.array_equal(member.lower_violations, solo.lower_violations)
    if solo.upper_violations is None:
        assert member.upper_violations is None
    else:
        assert np.array_equal(member.upper_violations, solo.upper_violations)


def load(path_or_text, tmp_path=None):
    if tmp_path is not None:
        path = tmp_path / "run.ini"
        path.write_text(path_or_text, encoding="utf-8")
        path_or_text = path
    return load_config(path_or_text)


def assert_monitored_as_solo(members, monitored, eq, cfg, solver, schedule=(), stride=10, warmup=None):
    """Each member's streamed samples and first and last rows equal those of
    monitor(run(solo)); an aborted member has no samples."""
    samples, first, last = monitored
    for m, initial in enumerate(members):
        solo = run(initial, cfg.params, cfg.incidence, cfg.delay, solver, cfg.grid, schedule)
        if solo.aborted:
            assert samples[m] is None
            continue
        want = monitor(solo, eq, cfg.params, cfg.incidence, cfg.grid, stride=stride, warmup=warmup)
        assert want and sample_bits(samples[m]) == sample_bits(want)
        assert bits(first[m]) == bits(solo.fields[0]) and bits(last[m]) == bits(solo.fields[-1])


class TestCertifyMembers:
    @pytest.mark.parametrize(
        "config", ["bilinear_reference", "drug_schedule", "saturated_constant_delay", "saturated_integral_delay"]
    )
    def test_each_member_equals_its_solo_run(self, monkeypatch, config):
        cfg = load_config(CONFIGS / f"{config}.ini")
        solver = replace(cfg.solver, t_end=min(cfg.solver.t_end, 6.0))
        (eq,) = [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]
        streams, calls = [], []
        monitor_members = lyapunov._monitor_members

        class RecordingStream(RunStream):
            def __init__(self, initial, *args):
                super().__init__(initial, *args)
                streams.append(initial)

        def recording(*args):
            calls.append(monitor_members(*args))
            return calls[-1]

        monkeypatch.setattr(lyapunov, "RunStream", RecordingStream)
        monkeypatch.setattr(lyapunov, "_monitor_members", recording)
        eps = [frac * equilibrium_norm(eq) for frac in cfg.output.eps_fractions]
        certify_local_stability(eq, eps, cfg.params, cfg.incidence, cfg.delay, solver, cfg.grid,
                                directions=cfg.output.directions, stride=cfg.output.monitor_stride)
        # one stream for every eps x direction
        ((members,), (monitored,)) = streams, calls
        assert len(members) == len(monitored[0]) == len(eps) * len(cfg.output.directions)
        assert_monitored_as_solo(members, monitored, eq, cfg, solver, stride=cfg.output.monitor_stride)

    @pytest.mark.parametrize("jump, stride, warmup", [("1.005", 7, None), ("1.325", 1, 0.0)])
    def test_a_window_with_a_shortened_step(self, tmp_path, jump, stride, warmup):
        # the jump's shortened step puts one more row in a block's window than
        # h_max/dt counts; at 1.325 it falls just before the first k of the
        # second block (stride 1 from k = 102), where no window start makes
        # that k monitor's earliest sample
        cfg = load(JUMP_CONFIG.replace("1.005", jump), tmp_path)
        (eq,) = [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]
        members = [
            InitialData(preset="equilibrium_perturbation", epsilon=2.0, direction="gaussian_bump",
                        weights=(0.3, -0.5, 0.8), bump_center=0.3, bump_width=0.1, equilibrium=eq),
            InitialData(preset="equilibrium_perturbation", epsilon=1.0, equilibrium=eq, profile="linear_ramp"),
        ]
        stream = RunStream(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid, cfg.schedule)
        monitored = lyapunov._monitor_members(stream, eq, cfg.params, cfg.incidence, cfg.grid, stride, warmup)
        assert_monitored_as_solo(members, monitored, eq, cfg, cfg.solver, cfg.schedule, stride, warmup)

    def test_an_aborting_member_beside_one_that_runs_on(self, tmp_path):
        # the infected member aborts at t = 18, after the first block (t = 17.5)
        cfg = load(ABORT_CONFIG, tmp_path)
        members = [InitialData(preset="uniform", values=v) for v in ((100.0, 0.0, 0.0), (100.0, 0.0, 1e-200))]
        eq = Equilibrium(50.0, 10.0, 10.0, "interior", 0.0)
        stream = RunStream(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid)
        monitored = lyapunov._monitor_members(stream, eq, cfg.params, cfg.incidence, cfg.grid, 1, None)
        assert stream.aborted == [False, True] and stream.abort_time[1] == 18.0
        assert_monitored_as_solo(members, monitored, eq, cfg, cfg.solver, stride=1)

    def test_the_store_stays_bounded(self, monkeypatch):
        # certify at t_end and 10 t_end: the rows the store keeps stay within
        # a block's window, and its capacity is reserved once, the same for both
        cfg = load_config(CONFIGS / "saturated_constant_delay.ini")
        grid = replace(cfg.grid, nx=11)
        (eq,) = [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]
        seen = []

        class RecordingStream(RunStream):
            def __iter__(self):
                seg, rows = self.history, self.history._rows
                for sample in super().__iter__():
                    first_live = min(seg._lo, bisect_left(rows.times, rows.hold, 0, rows.n))
                    seen[-1].append((rows.n - first_live, len(rows.times)))
                    yield sample

        monkeypatch.setattr(lyapunov, "RunStream", RecordingStream)
        for t_end in (9.0, 90.0):
            seen.append([])
            (verdict,) = certify_local_stability(eq, [0.05 * equilibrium_norm(eq)], cfg.params, cfg.incidence,
                                                 cfg.delay, replace(cfg.solver, t_end=t_end), grid)
            assert verdict.n_samples > 0 and verdict.abort is None
        live_rows = MONITOR_BLOCK * cfg.output.monitor_stride + math.ceil(cfg.params.h_max / cfg.solver.dt)
        (short, long) = seen
        assert len(long) > 9 * len(short)
        assert max(live for live, _ in short + long) <= live_rows + 2
        assert {cap for _, cap in short} == {cap for _, cap in long} and len({cap for _, cap in long}) == 1

    def test_a_jump_off_the_step_grid_shortens_every_members_step(self, tmp_path):
        cfg = load(JUMP_CONFIG, tmp_path)
        (eq,) = [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]
        members = [
            cfg.initial,
            InitialData(preset="equilibrium_perturbation", epsilon=2.0, direction="gaussian_bump",
                        weights=(0.3, -0.5, 0.8), bump_center=0.3, bump_width=0.1, equilibrium=eq),
            InitialData(preset="equilibrium_perturbation", epsilon=1.0, equilibrium=eq, profile="linear_ramp"),
        ]
        trajs = run(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid, cfg.schedule)
        assert np.any(np.diff(trajs[0].times) < 0.5 * cfg.solver.dt)  # the shortened step
        stream = RunStream(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid, cfg.schedule)
        rows = np.array([sample.row.copy() for sample in stream])  # through a sliding store
        assert [bits(rows[:, m]) for m in range(len(members))] == [bits(t.fields) for t in trajs]
        assert len({bits(t.eta) for t in trajs}) == len(trajs)  # each member has its own lags
        for initial, member in zip(members, trajs):
            solo = run(initial, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid, cfg.schedule)
            assert_same_run(member, solo)
            got = monitor(member, eq, cfg.params, cfg.incidence, cfg.grid, stride=7)
            want = monitor(solo, eq, cfg.params, cfg.incidence, cfg.grid, stride=7)
            assert got and sample_bits(got) == sample_bits(want)


class TestAbortedMembers:
    @pytest.mark.parametrize(
        "values",
        [
            [(100.0, 0.0, 0.0), (50.0, 10.0, 10.0)],  # the infection-free state stays finite
            # a trace of infection aborts later: at t = 3.5, 18 and 25, while one member runs on
            [(50.0, 10.0, 10.0), (100.0, 0.0, 0.0), (100.0, 0.0, 1e-200), (100.0, 1e-300, 0.0)],
            [(50.0, 10.0, 10.0), (100.0, 0.0, 1e-200)],  # all abort: the stream ends at the last
        ],
    )
    def test_aborts_match_solo_runs_and_the_rest_run_on(self, tmp_path, values):
        cfg = load(ABORT_CONFIG, tmp_path)
        members = [InitialData(preset="uniform", values=v) for v in values]
        trajs = run(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid)
        stream = RunStream(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid)
        rows = np.array([sample.row.copy() for sample in stream])
        assert len(rows) == max(len(t) for t in trajs)
        assert [bits(rows[: len(t), m]) for m, t in enumerate(trajs)] == [bits(t.fields) for t in trajs]
        for initial, member in zip(members, trajs):
            solo = run(initial, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid)
            assert_same_run(member, solo)
            infected = initial.values != (100.0, 0.0, 0.0)
            assert solo.aborted == infected
            if not infected:
                assert member.times[-1] == cfg.solver.t_end
            # an aborted member stays frozen at its last good row in the store
            seg = member.history
            stored = seg._rows.fields[seg._lo : seg._rows.n]
            assert np.array_equal(stored[: len(member)], member.fields)
            assert np.all(stored[len(member) :] == member.fields[-1])

    def test_clip_events_count_each_member_until_its_abort(self, tmp_path):
        cfg = load(ABORT_CONFIG, tmp_path)
        solver = replace(cfg.solver, clip_negative=True)
        values = ((50.0, 10.0, 10.0), (100.0, 0.0, 0.0), (100.0, 0.0, 1e-200), (100.0, 1e-300, 0.0))
        members = [InitialData(preset="uniform", values=v) for v in values]
        trajs = run(members, cfg.params, cfg.incidence, cfg.delay, solver, cfg.grid)
        for initial, member in zip(members, trajs):
            assert_same_run(member, run(initial, cfg.params, cfg.incidence, cfg.delay, solver, cfg.grid))
        assert any(t.aborted and t.clip_events > 0 for t in trajs)

    def test_step_keeps_a_frozen_members_row(self):
        # two members at (50, 10, 10) + t: the frozen one keeps its row, the other moves
        grid = Grid1D(0, 1, 3)
        seg = HistorySegment.from_profile(0.5, 0.1, 0.0, lambda t: np.full((2, 3, 3), [[50.0], [10.0], [10.0]]) + t)
        before = seg.fields[-1].copy()
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=0.5)
        _, _, finite, _ = step(seg, params, IncidenceFn("saturated", k=0.1, k2=0.1), constant_delay(0.5, 0.2),
                            SolverConfig(dt=0.1, t_end=1.0), grid, frozen=np.array([True, False]))
        assert finite.all() and seg.t_now == pytest.approx(0.1)
        assert bits(seg.fields[-1, 0]) == bits(before[0])
        assert not np.array_equal(seg.fields[-1, 1], before[1])

    def test_certify_reports_each_abort(self, tmp_path):
        # explicit Euler is unstable on the T* decay once delta*dt = 3 > 2
        text = "[params]\ndelta = 300\n[grid]\nnx = 11\n[time]\nt_end = 20\n[output]\neps_fractions = 0.05 0.1\n"
        cfg = load(text, tmp_path)
        (eq,) = [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]
        eps = [frac * equilibrium_norm(eq) for frac in cfg.output.eps_fractions]
        verdicts = certify_local_stability(eq, eps, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid)
        assert [v.abort[0] for v in verdicts] == ["constant", "constant"]
        assert [v.abort[1] for v in verdicts] == pytest.approx([10.14, 10.13])
        assert all(v.verdict == "inconclusive" for v in verdicts)


@st.composite
def member_histories(draw):
    """B histories over shared times (one step shortened), stored once with a
    member axis and once each on its own."""
    members = draw(st.integers(1, 4))
    h = draw(st.floats(0.05, 2.0))
    dt = draw(st.floats(0.01, 0.5))
    n_steps = draw(st.integers(1, 25))
    short = draw(st.integers(0, n_steps - 1))
    frac = draw(st.floats(0.01, 0.99))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = Grid1D(0, 1, 4)

    def random_rows(t):
        return rng.uniform(0.5, 20.0, (members, 3, grid.nx))

    seg = HistorySegment.from_profile(h, dt, 0.0, random_rows)
    t = 0.0
    for i in range(n_steps):
        t += dt * frac if i == short else dt
        seg.next_row()[...] = random_rows(t)
        seg.push(t)
    solo = [HistorySegment(h, dt, seg.times, seg.fields[:, m]) for m in range(members)]
    return grid, seg, solo


class TestMemberQueries:
    @given(hist=member_histories(), data=st.data())
    def test_delayed_state_per_member_equals_each_alone(self, hist, data):
        _, seg, solo = hist
        times, t_now, h = seg.times.tolist(), seg.t_now, seg.h_max
        in_window = [t_now - t for t in times if t >= t_now - h]
        lags = [
            data.draw(st.sampled_from(in_window)) if data.draw(st.booleans()) else data.draw(st.floats(0.0, 1.0)) * h
            for _ in solo
        ]
        got = delayed_state(seg, np.array(lags))
        assert got.shape == (len(solo), 3, 4)
        for m, one in enumerate(solo):
            assert bits(got[m]) == bits(delayed_state(one, lags[m]))
        shared = delayed_state(seg, np.full(len(solo), lags[0]))
        for m, one in enumerate(solo):
            assert bits(shared[m]) == bits(delayed_state(one, lags[0]))

    @given(hist=member_histories())
    def test_eta_per_member_equals_each_alone(self, hist):
        grid, seg, solo = hist
        h = seg.h_max
        xi = state_mean_reducer(grid, "V", 0.3 / h)
        for df in (integral_delay(h, xi), wrapped_delay(h, xi, kappa=lambda th: 2.0 * (1.0 + th / h))):
            got = evaluate_eta(df, seg)
            assert bits(got) == bits([evaluate_eta(df, one) for one in solo])

    def test_xi_receives_one_members_field_state(self):
        grid = Grid1D(0, 1, 4)
        seen = []

        def xi(state):
            seen.append(state)
            return float(state.V[0])

        seg = HistorySegment.from_profile(0.2, 0.1, 0.0, lambda t: np.arange(24.0).reshape(2, 3, 4) + t)
        assert evaluate_eta(integral_delay(0.2, xi), seg).shape == (2,)
        assert all(isinstance(s, FieldState) and s.V.shape == (4,) for s in seen)
        assert len(seen) == 2 * len(seg)
        cached = seg.xi_values(xi)
        assert cached.shape == (len(seg), 2) and np.shares_memory(cached, seg.xi_values(xi))
