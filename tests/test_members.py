"""Runs that advance as one stream over a member axis.

``certify`` perturbs its equilibrium along every eps x direction and runs
all of them as one ``RunStream`` over a member axis, monitoring each block
of samples as the stream yields it.  Each member must equal its solo run
bit for bit: rows, eta, box counts and every ``LyapunovSample`` field.  A
member that blows up is frozen and masked, and must still report its solo
abort; the others must run on unchanged.
"""

import math
import re
from bisect import bisect_left
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sddlab.lyapunov as lyapunov
from sddlab import (
    Equilibrium,
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
from sddlab.history import window_starts
from sddlab.lyapunov import MONITOR_BLOCK, LyapunovSample
from sddlab.solver import InitialData, ParamJump, RunStream, Trajectory

from .helpers import segment_from_profile
from .oracles import certify_stats_ref, monitor_members_ref
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


def assert_members_run_solo(members, params, f, df, solver, grid, schedule=()):
    """Drain one RunStream of every member and check each member against
    run() of it alone: its aborted, abort_time, clip_events and
    compat_residual, and up to its abort its row times, rows, eta and box
    counts; after its abort it stays frozen at its last good row.  Returns
    the drained stream, its sample times (n,) and eta (n, B)."""
    stream = RunStream(members, params, f, df, solver, grid, schedule)
    samples = [(s.t, s.row.copy(), s.eta, s.lower, s.upper) for s in stream]  # through a sliding store
    times, rows, etas, lower, upper = (np.array(c) for c in zip(*samples))
    for m, initial in enumerate(members):
        solo = run(initial, params, f, df, solver, grid, schedule)
        diag = (stream.aborted[m], stream.abort_time[m], stream.clip_events[m], stream.compat_residual[m])
        assert diag == (solo.aborted, solo.abort_time, solo.clip_events, solo.compat_residual)
        n = bisect_left(times.tolist(), solo.abort_time) + 1 if solo.aborted else len(times)
        assert bits(times[:n]) == bits(solo.times)
        assert bits(rows[:n, m]) == bits(solo.fields)
        assert np.all(rows[n:, m] == rows[n - 1, m])
        assert bits(etas[:n, m]) == bits(solo.eta)
        assert np.array_equal(lower[:n, m], solo.lower_violations)
        if solo.upper_violations is None:
            assert stream.bounds is None
        else:
            assert np.array_equal(upper[:n, m], solo.upper_violations)
    return stream, times, etas


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
        assert len(want) and sample_bits(samples[m]) == sample_bits(want)
        assert bits(first[m]) == bits(solo.fields[0]) and bits(last[m]) == bits(solo.fields[-1])


class TestCertifyMembers:
    @pytest.mark.parametrize(
        "config",
        [
            "bilinear_reference",
            "drug_schedule",
            "saturated_constant_delay",
            "saturated_integral_delay",
            "saturated_wrapped_delay",
        ],
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
        # the members' monitored samples against their solo runs' are
        # test_a_window_with_a_shortened_step's, on this config at stride 7
        cfg = load(JUMP_CONFIG, tmp_path)
        (eq,) = [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]
        members = [
            cfg.initial,
            InitialData(preset="equilibrium_perturbation", epsilon=2.0, direction="gaussian_bump",
                        weights=(0.3, -0.5, 0.8), bump_center=0.3, bump_width=0.1, equilibrium=eq),
            InitialData(preset="equilibrium_perturbation", epsilon=1.0, equilibrium=eq, profile="linear_ramp"),
        ]
        _, times, etas = assert_members_run_solo(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver,
                                                 cfg.grid, cfg.schedule)
        assert np.any(np.diff(times) < 0.5 * cfg.solver.dt)  # the shortened step
        assert len({bits(etas[:, m]) for m in range(len(members))}) == len(members)  # each member has its own lags


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
        stream, times, _ = assert_members_run_solo(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver,
                                                   cfg.grid)
        infected = [initial.values != (100.0, 0.0, 0.0) for initial in members]
        assert stream.aborted == infected
        # the stream ends at t_end, or at the last abort when every member aborts
        assert times[-1] == (max(stream.abort_time) if all(infected) else cfg.solver.t_end)

    def test_clip_events_count_each_member_until_its_abort(self, tmp_path):
        cfg = load(ABORT_CONFIG, tmp_path)
        solver = replace(cfg.solver, clip_negative=True)
        values = ((50.0, 10.0, 10.0), (100.0, 0.0, 0.0), (100.0, 0.0, 1e-200), (100.0, 1e-300, 0.0))
        members = [InitialData(preset="uniform", values=v) for v in values]
        stream, _, _ = assert_members_run_solo(members, cfg.params, cfg.incidence, cfg.delay, solver, cfg.grid)
        assert any(aborted and clips > 0 for aborted, clips in zip(stream.aborted, stream.clip_events))

    def test_run_takes_one_initial_data(self, tmp_path):
        cfg = load(ABORT_CONFIG, tmp_path)
        members = [InitialData(preset="uniform", values=(100.0, 0.0, 0.0))] * 2
        with pytest.raises(TypeError, match="members run as a RunStream"):
            run(members, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid)

    def test_step_keeps_a_frozen_members_row(self):
        # two members at (50, 10, 10) + t: the frozen one keeps its row, the other moves
        grid = Grid1D(0, 1, 3)
        seg = segment_from_profile(0.5, 0.1, 0.0, lambda t: np.full((2, 3, 3), [[50.0], [10.0], [10.0]]) + t)
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
    member axis and once each on its own, and one lag per member: exactly 0,
    exactly h_max, the lag of a stored row or any lag between."""
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

    seg = segment_from_profile(h, dt, 0.0, random_rows)
    t = 0.0
    for i in range(n_steps):
        t += dt * frac if i == short else dt
        seg.next_row()[...] = random_rows(t)
        seg.push(t)
    solo = [HistorySegment(h, dt, seg.times, seg.fields[:, m]) for m in range(members)]
    on_rows = [t - s for s in seg.times.tolist() if s >= t - h]
    lag = st.one_of(st.just(0.0), st.just(h), st.sampled_from(on_rows), st.floats(0.0, 1.0).map(lambda f: f * h))
    lags = draw(st.lists(lag, min_size=members, max_size=members))
    return grid, seg, solo, lags


def pushed_history(members=4, nx=5, h=0.1, dt=0.01, steps=60) -> HistorySegment:
    """A store that no view pins, as certify's: random rows pushed at k*dt."""
    rng = np.random.default_rng(7)
    seg = segment_from_profile(h, dt, 0.0, lambda t: rng.uniform(0.5, 20.0, (members, 3, nx)))
    for k in range(1, steps):
        seg.next_row()[...] = rng.uniform(0.5, 20.0, (members, 3, nx))
        seg.push(k * dt)
    return seg


@st.composite
def sampled_lags(draw):
    """A trajectory over random rows, solo or with 1-6 members, one step
    shortened, and 1-8 of its samples that have h_max of history behind
    them, each with one lag per member: 0, h_max, exactly on a row, within
    1e-9*dt of a row on either side, or any lag between."""
    members = draw(st.integers(0, 6))
    shape = (members,) if members else ()
    h = draw(st.floats(0.05, 2.0))
    dt = draw(st.floats(0.01, 0.5))
    n_steps = math.ceil(h / dt) + draw(st.integers(1, 25))
    short = draw(st.integers(0, n_steps - 1))
    frac = draw(st.floats(0.01, 0.99))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = [0.0]
    for i in range(n_steps):
        times.append(times[-1] + (dt * frac if i == short else dt))
    history = HistorySegment(h, dt, times, rng.uniform(0.5, 20.0, (len(times),) + shape + (3, 4)))
    ready = [k for k, t in enumerate(times) if times[0] <= t - h + 1e-9 * dt]
    ks = draw(st.lists(st.sampled_from(ready), min_size=1, max_size=8, unique=True))
    eta = np.zeros((len(times),) + shape)
    for k in ks:
        on_rows = [times[k] - t for t in times[: k + 1] if times[k] - t <= h]
        near = st.tuples(st.sampled_from(on_rows), st.floats(-0.9e-9, 0.9e-9)).map(
            lambda pair: min(max(pair[0] + pair[1] * dt, 0.0), h)
        )
        between = st.floats(0.0, 1.0).map(lambda f: f * h)
        lag = st.one_of(st.just(0.0), st.just(h), st.sampled_from(on_rows), near, between)
        eta[k] = draw(lag) if not members else draw(st.lists(lag, min_size=members, max_size=members))
    return Trajectory(history, eta), ks


class TestMemberQueries:
    @given(case=sampled_lags())
    def test_window_starts_reads_each_window_as_its_segment(self, case):
        # one search over the trajectory's rows finds the row and the interpolated
        # start that each sample's own segment_at segment finds in its window
        traj, ks = case
        members = traj.history.members
        j, off, start = window_starts(traj.history, np.array(ks), traj.eta[ks])
        assert j.shape == off.shape == (len(ks),) + members
        wanted = []
        for s, k in enumerate(ks):
            seg = traj.segment_at(k)
            for m in np.ndindex(members):
                _, i, want = seg.window(traj.times[k] - traj.eta[(k, *m)])
                assert j[(s, *m)] == k + 1 - len(seg) + i
                assert off[(s, *m)] == (want is not None)
                if want is not None:
                    wanted.append(want[m])
            one = window_starts(traj.history, k, traj.eta[k])  # an int k, as the step reads
            assert one[0].tolist() == j[s].tolist() and one[1].tolist() == off[s].tolist()
            assert bits(one[2]) == bits(start[off[: s].sum() : off[: s + 1].sum()])
            if members:  # equal lags give the one float lag's bits
                lag = float(traj.eta[(k,) + (0,) * len(members)])
                assert bits(delayed_state(seg, np.full(members, lag))) == bits(delayed_state(seg, lag))
        assert start.shape == (len(wanted), 3, 4) and bits(start) == bits(wanted)

    @pytest.mark.parametrize("lags", [[0.01, 0.02, 0.03], [0.02] * 3, [0.01] * 7, [[0.01] * 6]])
    def test_lags_of_another_shape_than_the_members_raise(self, lags):
        # 3 distinct lags on 6 members used to return 3 rows, 3 equal lags 6, and 7 lags an IndexError
        seg = pushed_history(members=6)
        shape = np.shape(lags)
        with pytest.raises(ValueError, match=re.escape(f"delayed_state: lags of shape {shape} for members (6,)")):
            delayed_state(seg, np.array(lags))

    @given(hist=member_histories())
    def test_delayed_state_per_member_equals_each_alone(self, hist):
        _, seg, solo, lags = hist
        got = delayed_state(seg, np.array(lags))
        assert got.shape == (len(solo), 3, 4)
        for m, one in enumerate(solo):
            assert bits(got[m]) == bits(delayed_state(one, lags[m]))
        shared = delayed_state(seg, np.full(len(solo), lags[0]))
        for m, one in enumerate(solo):
            assert bits(shared[m]) == bits(delayed_state(one, lags[0]))

    def test_delayed_state_after_the_store_slid(self, monkeypatch):
        slides = []
        slide = HistorySegment._slide
        monkeypatch.setattr(HistorySegment, "_slide", lambda seg, first: slides.append(first) or slide(seg, first))
        seg = pushed_history()
        assert slides and not seg._rows.pinned
        h, t_now, times = seg.h_max, seg.t_now, seg.times.tolist()
        solo = [HistorySegment(h, seg.dt, times, seg.fields[:, m].copy()) for m in range(4)]

        def no_member_copies(self, lo, hi, members=None):
            raise AssertionError("delayed_state read its rows through HistorySegment.view")

        monkeypatch.setattr(HistorySegment, "view", no_member_copies)
        lags = np.array([0.0, h, t_now - times[3], 0.37 * h])  # lag 0, h_max, on a row, between rows
        got = delayed_state(seg, lags)
        for m, one in enumerate(solo):
            assert bits(got[m]) == bits(delayed_state(one, lags[m]))
        assert bits(got[0]) == bits(seg.fields[-1, 0]) and bits(got[2]) == bits(seg.fields[3, 2])

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, -math.inf, 0.1 * (1.0 + 1e-9), math.inf])
    @pytest.mark.parametrize("m", [0, 2, 3])
    def test_one_bad_lag_among_valid_ones_raises(self, bad, m):
        seg = pushed_history()  # h_max = 0.1
        lags = np.array([0.0, 0.02, 0.05, 0.1])
        lags[m] = bad
        with pytest.raises(ValueError, match=re.escape(f"delayed_state: lag {bad} outside [0, 0.1]")):
            delayed_state(seg, lags)

    def test_a_time_before_the_window_raises(self):
        seg = pushed_history()
        short = seg.view(len(seg) - 3, len(seg))  # two steps, shorter than h_max
        with pytest.raises(ValueError, match="outside the covered window"):
            delayed_state(short, np.array([0.0, 0.01, 0.05, 0.02]))
        assert delayed_state(short, np.array([0.0, 0.015, 0.02, 0.005])).shape == (4, 3, 5)

    @given(hist=member_histories())
    def test_eta_per_member_equals_each_alone(self, hist):
        grid, seg, solo, _ = hist
        h = seg.h_max
        xi = state_mean_reducer(grid, "V", 0.3 / h)
        for df in (integral_delay(h, xi), wrapped_delay(h, xi, kappa=lambda th: 2.0 * (1.0 + th / h))):
            got = evaluate_eta(df, seg)
            assert bits(got) == bits([evaluate_eta(df, one) for one in solo])

    def test_xi_reduces_each_stored_row_once_as_member_stacks(self):
        grid = Grid1D(0, 1, 4)
        seen, stored = [], []

        def xi(rows):
            seen.append(rows.copy())
            return rows[..., 2, 0] + rows[..., 0, 3]

        def row(t):
            stored.append(np.arange(24.0).reshape(2, 3, 4) * (1.0 + t))
            return stored[-1]

        # h = 2 dt: every window starts on a stored row, so xi sees only stored rows
        seg = segment_from_profile(0.2, 0.1, 0.0, row)
        df = integral_delay(0.2, xi)
        for k in range(1, 5):
            assert evaluate_eta(df, seg).shape == (2,)
            assert evaluate_eta(df, seg).shape == (2,)  # the cache answers a second call
            seg.next_row()[...] = row(0.1 * k)
            seg.push(0.1 * k)
        assert [rows.shape for rows in seen] == [(3, 2, 3, 4)] + [(1, 2, 3, 4)] * 3
        assert bits(np.concatenate(seen)) == bits(stored[:-1])
        cached = seg.xi_values(xi)
        assert cached.shape == (len(seg), 2) and np.shares_memory(cached, seg.xi_values(xi))
        assert bits(cached) == bits(xi(seg.fields))


BLOWUP = dict(  # bilinear with burst_n = 1e12: a trace of infection overflows, the infection-free state stays
    params=ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=1e12, c=5.0, omega=0.0, h_max=0.5),
    f=IncidenceFn("bilinear", k=10.0), eq=Equilibrium(50.0, 10.0, 10.0, "interior", 0.0),
)


@st.composite
def monitored_runs(draw, sat_eq):
    """The arguments of ``_monitor_members``, with a function that builds its
    stream afresh: 1-6 members perturbed around the saturated equilibrium
    under a constant lag (on a row or between rows), an integral or a wrapped
    delay, maybe a jump off the step grid; or 2-5 members of which some blow
    up mid-run while an infection-free one runs on.  Stride 1-10, warmup 0,
    None or any, and the block size."""
    if draw(st.booleans()):
        nx, dt = draw(st.integers(3, 6)), draw(st.sampled_from([0.05, 0.07, 0.1]))
        grid = Grid1D(0.0, 1.0, nx)
        params = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=1.0,
                             diff=draw(st.sampled_from([(0.0, 0.0, 0.0), (1e-3, 1e-3, 2e-3)])))
        xi = state_mean_reducer(grid, "V", draw(st.floats(0.2, 0.9)) / sat_eq.V_hat)
        df = draw(st.sampled_from([
            constant_delay(1.0, draw(st.integers(1, int(1.0 / dt))) * dt),  # windows start on rows
            constant_delay(1.0, draw(st.floats(0.01, 1.0))),
            integral_delay(1.0, xi),
            wrapped_delay(1.0, xi, kappa=lambda th: 2.0 * (1.0 + th)),
        ]))
        norm = equilibrium_norm(sat_eq)
        members = [
            InitialData(preset="equilibrium_perturbation", epsilon=draw(st.floats(0.01, 0.3)) * norm,
                        equilibrium=sat_eq, direction=draw(st.sampled_from(["constant", "gaussian_bump"])),
                        weights=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(2)) + (0.5,),
                        bump_center=draw(st.floats(0.2, 0.8)), bump_width=draw(st.floats(0.05, 0.3)),
                        profile=draw(st.sampled_from(["constant_in_time", "linear_ramp"])))
            for _ in range(draw(st.integers(1, 6)))
        ]
        t_end = draw(st.floats(2.2, 4.0))
        jump = (draw(st.integers(1, int(t_end / dt) - 1)) + draw(st.floats(0.1, 0.9))) * dt  # a shortened step
        schedule = draw(st.sampled_from([(), (ParamJump(jump, "burst_n", 5.0),), (ParamJump(jump, "c", 4.0),)]))
        args = (params, IncidenceFn("saturated", k=0.1, k2=0.1), df, SolverConfig(dt=dt, t_end=t_end), grid, schedule)
        eq, strides, sizes = sat_eq, st.integers(1, 10), st.sampled_from([1, 2, 3, MONITOR_BLOCK, 32])
    else:
        values = draw(st.lists(st.sampled_from([(50.0, 10.0, 10.0), (100.0, 0.0, 1e-200), (100.0, 1e-300, 0.0)]),
                               min_size=1, max_size=4))
        values.insert(draw(st.integers(0, len(values))), (100.0, 0.0, 0.0))
        members = [InitialData(preset="uniform", values=v) for v in values]
        args = (BLOWUP["params"], BLOWUP["f"], constant_delay(0.5, 0.1), SolverConfig(dt=0.5, t_end=40.0),
                Grid1D(0.0, 1.0, 3), ())
        eq, strides, sizes = BLOWUP["eq"], st.integers(1, 3), st.integers(1, 4)
    warmup = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, args[3].t_end)))
    return (lambda: RunStream(members, *args)), eq, args, draw(strides), warmup, draw(sizes)


class TestMonitorOnePass:
    """One monitor pass per block over every live member gives each member
    the bits of the per-member loop it replaced."""

    @given(data=st.data())
    def test_one_pass_per_block_equals_one_monitor_per_member(self, sat_equilibrium, data):
        stream_of, eq, (params, f, _, _, grid, _), stride, warmup, size = data.draw(monitored_runs(sat_equilibrium))
        stream = stream_of()
        with mock.patch.object(lyapunov, "MONITOR_BLOCK", size):
            samples, first, last = lyapunov._monitor_members(stream, eq, params, f, grid, stride, warmup)
            want, want_first, want_last = monitor_members_ref(stream_of(), eq, params, f, grid, stride, warmup)
        assert [None if got is None else sample_bits(got) for got in samples] == [
            None if got is None else sample_bits(got) for got in want
        ]
        assert bits(first) == bits(want_first) and bits(last) == bits(want_last)
        assert not all(stream.aborted)


NAMES = ("t", "U", "dU_dt_fd", "S_int", "D_int", "Ddiff", "Ddiff_terms", "C1_int", "c1_abs_dev", "c1_scale",
         "residual", "eta", "eta_rate", "valid")


class TestMonitorRecords:
    """The monitor's record array over the live members of a drained stream,
    with a node of one member zeroed on no row, on one or on every row (no
    valid sample): each member's rows are its solo monitor's, an invalid row
    is NaN from U to residual, and certify's verdicts from the rows are the
    per-row loops'."""

    def test_dtype(self):
        assert LyapunovSample.names == NAMES
        assert LyapunovSample["Ddiff_terms"].shape == (3,) and LyapunovSample["valid"] == bool
        assert all(LyapunovSample[name] == float for name in NAMES if name not in ("Ddiff_terms", "valid"))

    @given(data=st.data())
    def test_rows_and_verdicts(self, sat_equilibrium, data):
        stream_of, eq, (params, f, df, solver, grid, _), stride, warmup, size = data.draw(monitored_runs(sat_equilibrium))
        stream = stream_of()
        origin = stream.history.view(len(stream.history) - 1, len(stream.history))  # pins the store's rows
        etas = np.array([sample.eta for sample in stream])
        n, members = len(etas), len(stream.aborted)
        live = [m for m, gone in enumerate(stream.aborted) if not gone]
        args = (eq, params, f, grid, stride, warmup)
        with mock.patch.object(lyapunov, "MONITOR_BLOCK", size):
            clean = monitor(Trajectory(origin.view(0, n, live), etas[:, live]), *args)
            rows = data.draw(st.one_of(st.just(slice(0)), st.just(slice(None)), st.integers(0, n - 1)), "zeroed rows")
            zeroed, c = data.draw(st.sampled_from(live)), data.draw(st.integers(0, 2))
            origin.view(0, n).fields[rows, zeroed, c, data.draw(st.integers(0, grid.nx - 1))] = 0.0
            got = monitor(Trajectory(origin.view(0, n, live), etas[:, live]), *args)
            per_member = got.reshape(len(live), -1)
            for i, m in enumerate(live):
                assert per_member[i].tobytes() == monitor(Trajectory(origin.view(0, n, m), etas[:, m]), *args).tobytes()

        assert isinstance(got, np.recarray) and got.dtype.names == NAMES and len(got) == len(clean)
        bad = ~got.valid
        assert all(np.isnan(got[name][bad]).all() for name in NAMES[1:11])
        assert all(got[name][bad].tobytes() == clean[name][bad].tobytes() for name in ("t", "eta", "eta_rate"))

        samples = [None] * members
        for i, m in enumerate(live):
            samples[m] = per_member[i]
        first, last = origin.view(0, n).fields[[0, -1]]
        both = members % 2 == 0 and data.draw(st.booleans())
        directions = ("constant", "gaussian_bump") if both else ("constant",)
        eps = [0.1 * (j + 1) for j in range(members // len(directions))]
        tol = data.draw(st.sampled_from([1e-8, 0.0, 1.0, *got.dU_dt_fd[got.valid][:5].tolist()]))  # or a sample's rate
        run_stream = SimpleNamespace(history=SimpleNamespace(reserve=lambda _: None), aborted=stream.aborted,
                                     abort_time=stream.abort_time)
        with mock.patch.object(lyapunov, "RunStream", lambda *_: run_stream), \
                mock.patch.object(lyapunov, "_monitor_members", lambda *_: (samples, first, last)):
            verdicts = certify_local_stability(eq, eps, params, f, df, solver, grid, directions, tol_decrease=tol)
        runs = zip(samples, first, last, stream.aborted, stream.abort_time)
        want = certify_stats_ref(eq, eps, directions, runs, grid, tol)
        assert [[type(x) for x in v] for v in verdicts] == [[type(x) for x in v] for v in want]
        assert repr(verdicts) == repr(want)  # repr tells every float's bits, NaN and -0.0 included
