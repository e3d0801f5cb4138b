import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sddlab import (
    Grid1D,
    HistorySegment,
    constant_delay,
    delayed_state,
    evaluate_eta,
    integral_delay,
    state_mean_reducer,
    wrapped_delay,
)
from sddlab.config import load_config
from sddlab.history import BAND, smooth_clamp

from .helpers import push_state, segment_from_profile, uniform_row
from .oracles import fine_trapezoid, smooth_clamp_scalar, snapshot_interp, snapshot_window_trapezoid


def const_state(grid, t_val, ts_val, v_val):
    return uniform_row(grid, (t_val, ts_val, v_val))


def segment_with_v(grid, v_of_t, h_max=1.0, dt=0.05, t_now=0.0):
    return segment_from_profile(h_max, dt, t_now, lambda t: const_state(grid, 10.0, 2.0, v_of_t(t)))


class TestHistorySegment:
    def test_too_short_window_rejected(self):
        grid = Grid1D(0, 1, 3)
        s = const_state(grid, 1, 1, 1)
        with pytest.raises(ValueError, match="shorter"):
            HistorySegment(1.0, 0.1, [-0.5, -0.25, 0.0], np.array([s, s, s]))

    def test_times_must_increase(self):
        grid = Grid1D(0, 1, 3)
        s = const_state(grid, 1, 1, 1)
        with pytest.raises(ValueError, match="increasing"):
            HistorySegment(0.2, 0.1, [-0.2, -0.2, 0.0], np.array([s, s, s]))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (3, 2, 4), (4, 3, 4), (3, 2, 2, 4)])
    def test_fields_must_be_one_row_per_time(self, shape):
        # a (n, nx) array used to pass here and fail at the first read of a component
        with pytest.raises(ValueError, match=re.escape(f"fields of shape {shape} are not (3, *members, 3, nx)")):
            HistorySegment(0.2, 0.1, [-0.2, -0.1, 0.0], np.ones(shape))
        assert HistorySegment(0.2, 0.1, [-0.2, -0.1, 0.0], np.ones((3, 2, 3, 4))).members == (2,)

    def test_push_evicts_to_bounded_length(self):
        grid = Grid1D(0, 1, 3)
        seg = segment_with_v(grid, lambda t: 1.0, h_max=1.0, dt=0.1)
        for k in range(1, 100):
            push_state(seg, k * 0.1, const_state(grid, 1, 1, 1))
            assert seg.covers()
        assert len(seg) <= int(np.ceil(1.0 / 0.1)) + 2

    def test_a_reach_below_h_max_keeps_rows_back_to_it(self):
        grid = Grid1D(0, 1, 3)
        s = const_state(grid, 1, 1, 1)
        seg = HistorySegment(1.0, 0.1, [-0.3, -0.2, -0.1, 0.0], np.array([s] * 4), reach=0.25)
        for k in range(1, 30):
            push_state(seg, k * 0.1, s)
            assert seg.covers() and len(seg) == 4  # t - 0.25 lies between the two oldest rows
        assert (seg.h_max, seg.view(0, 2).reach) == (1.0, 0.25)
        for reach in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="reach"):
                HistorySegment(1.0, 0.1, [-1.0, 0.0], np.array([s, s]), reach=reach)

    def test_push_requires_advancing_time(self):
        grid = Grid1D(0, 1, 3)
        seg = segment_with_v(grid, lambda t: 1.0)
        with pytest.raises(ValueError):
            push_state(seg, seg.t_now, const_state(grid, 1, 1, 1))

    def test_push_without_next_row_raises_on_a_full_store(self):
        # a new segment's store holds exactly its rows: no row to commit
        grid = Grid1D(0, 1, 3)
        seg = segment_with_v(grid, lambda t: 1.0)
        rows, t_now = seg.fields.copy(), seg.t_now
        with pytest.raises(ValueError, match="next_row"):
            seg.push(t_now + 0.05)
        assert seg.t_now == t_now and np.array_equal(seg.fields, rows)
        push_state(seg, t_now + 0.05, const_state(grid, 2, 2, 2))
        assert seg.t_now == t_now + 0.05 and np.array_equal(seg.fields[-1], const_state(grid, 2, 2, 2))

    def test_push_raises_on_a_view_short_of_the_newest_row(self):
        grid = Grid1D(0, 1, 3)
        seg = segment_with_v(grid, lambda t: 1.0)
        seg.next_row()  # the store has room now, so only the view's end is wrong
        view = seg.view(0, len(seg) - 1)
        with pytest.raises(ValueError, match="newest stored row"):
            view.push(seg.t_now + 0.05)
        assert len(view) == len(seg) - 1 and seg.t_now == view.t_now + 0.05


class TestEvaluateEta:
    def test_constant_kind(self, small_grid):
        seg = segment_with_v(small_grid, lambda t: 5.0)
        assert evaluate_eta(constant_delay(1.0, 0.4), seg) == 0.4

    def test_integral_kind_constant_history(self, small_grid):
        # xi = a * mean(V) with V = v0 everywhere: eta = a * v0 * h = 0.3
        v0 = 6.0
        a = 0.3 / v0
        df = integral_delay(1.0, state_mean_reducer(small_grid, "V", a))
        seg = segment_with_v(small_grid, lambda t: v0)
        assert evaluate_eta(df, seg) == pytest.approx(0.3, rel=1e-12)

    def test_wrapped_rho_hand_value(self, small_grid):
        # xi = 1 so the inner integral over [-1, 0] is 1; rho(s) = h s/(1+s)
        df = wrapped_delay(1.0, xi=lambda rows: np.ones(rows.shape[:-2]), rho=lambda s: 1.0 * s / (1.0 + s))
        seg = segment_with_v(small_grid, lambda t: 3.0)
        assert evaluate_eta(df, seg) == pytest.approx(0.5, rel=1e-12)

    @given(scale=st.floats(-50.0, 50.0))
    def test_output_always_clamped(self, scale):
        grid = Grid1D(0, 1, 3)
        df = integral_delay(1.0, state_mean_reducer(grid, "V", scale))
        seg = segment_with_v(grid, lambda t: 4.0)
        eta = evaluate_eta(df, seg)
        assert 0.0 <= eta <= 1.0

    def test_time_shift_invariance_for_constant_history(self, small_grid):
        df = integral_delay(1.0, state_mean_reducer(small_grid, "V", 0.05))
        seg0 = segment_with_v(small_grid, lambda t: 4.0, t_now=0.0)
        seg7 = segment_with_v(small_grid, lambda t: 4.0, t_now=7.0)
        assert evaluate_eta(df, seg0) == pytest.approx(evaluate_eta(df, seg7), rel=1e-12)

    def test_quadrature_matches_fine_oracle(self, small_grid):
        # smooth history: relative agreement with a 10x finer independent
        # trapezoid within 1e-6
        a, h, dt = 0.04, 1.0, 0.002
        v_of_t = lambda t: 10.0 + np.sin(2.0 * t)
        df = integral_delay(h, state_mean_reducer(small_grid, "V", a))
        seg = segment_with_v(small_grid, v_of_t, h_max=h, dt=dt)
        eta = evaluate_eta(df, seg)
        ref = fine_trapezoid(lambda th: a * v_of_t(th), -h, 0.0, round(10 * h / dt))
        assert eta == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("members", [(), (3,)])
    def test_negative_zero_eta_is_positive_zero(self, small_grid, members):
        # np.maximum(-0.0, 0.0) is +0.0, where Python's max(-0.0, 0.0) kept -0.0
        seg = segment_from_profile(1.0, 0.1, 0.0, lambda t: np.ones(members + (3, small_grid.nx)))
        minus_zero_xi = lambda rows: np.full(rows.shape[:-2], -0.0)  # noqa: E731
        for df in (
            integral_delay(1.0, minus_zero_xi),
            wrapped_delay(1.0, state_mean_reducer(small_grid, "V"), rho=lambda s: -0.0 * np.abs(s)),
        ):
            eta = evaluate_eta(df, seg)
            assert np.shape(eta) == members
            assert np.all(eta == 0.0) and not np.signbit(eta).any()

    @pytest.mark.parametrize("xi_scale", [-0.05, 0.0, 0.01, 0.03, 0.2])
    def test_config_clamp_rho_gives_the_scalar_clamps_bits(self, tmp_path, small_grid, xi_scale):
        # the raw integral lands below 0, inside [0, h] and above h across the scales
        path = tmp_path / "run.ini"
        path.write_text(f"[grid]\nnx = 5\n[delay]\nkind = wrapped\nkappa = recency\nrho = clamp\nxi_scale = {xi_scale}\n")
        df = load_config(path).delay
        h = df.h_max
        scalar = wrapped_delay(h, df.xi, kappa=df.kappa, rho=lambda s: min(max(s, 0.0), h))
        for t_now in (0.0, 0.37, 2.5):
            seg = segment_with_v(small_grid, lambda t: 8.0 + 3.0 * np.sin(4.0 * t), dt=0.03, t_now=t_now)
            eta = evaluate_eta(df, seg)
            assert np.float64(eta).tobytes() == np.float64(evaluate_eta(scalar, seg)).tobytes()


class TestDelayedState:
    def test_lag_zero_is_newest_bitwise(self, small_grid):
        seg = segment_with_v(small_grid, lambda t: 3.0 + t)
        out = delayed_state(seg, 0.0)
        assert np.array_equal(out[2], seg.fields[-1, 2])

    def test_on_node_lag_bitwise(self, small_grid):
        seg = segment_with_v(small_grid, lambda t: 3.0 + np.cos(t), dt=0.25)
        lag = seg.t_now - seg.times[-2]
        out = delayed_state(seg, lag)
        assert np.array_equal(out[2], seg.fields[-2, 2])

    @given(frac=st.floats(0.0, 1.0))
    def test_affine_history_reproduced_exactly(self, frac):
        grid = Grid1D(0, 1, 4)
        seg = segment_with_v(grid, lambda t: 2.0 + 3.0 * t, h_max=1.0, dt=0.1)
        lag = frac * 1.0
        out = delayed_state(seg, lag)
        expected = 2.0 + 3.0 * (seg.t_now - lag)
        # abs tolerance covers the on-node snap window (1e-9 * dt) times slope
        assert out[2, 0] == pytest.approx(expected, abs=1e-9)

    def test_lag_out_of_range_rejected(self, small_grid):
        seg = segment_with_v(small_grid, lambda t: 1.0)
        with pytest.raises(ValueError):
            delayed_state(seg, 1.5)
        with pytest.raises(ValueError):
            delayed_state(seg, -0.1)


def eta_rate(df, seg_prev, seg_now, dt):
    """Difference quotient of the delay functional between two segments."""
    return (evaluate_eta(df, seg_now) - evaluate_eta(df, seg_prev)) / dt


class TestEtaRate:
    def test_constant_kind_exact_zero(self, small_grid):
        df = constant_delay(1.0, 0.7)
        seg_a = segment_with_v(small_grid, lambda t: 1.0, t_now=0.0)
        seg_b = segment_with_v(small_grid, lambda t: 9.0, t_now=0.1)
        assert eta_rate(df, seg_a, seg_b, 0.1) == 0.0

    def test_equilibrium_history_zero(self, small_grid):
        df = integral_delay(1.0, state_mean_reducer(small_grid, "V", 0.03))
        seg_a = segment_with_v(small_grid, lambda t: 4.0, t_now=0.0)
        seg_b = segment_with_v(small_grid, lambda t: 4.0, t_now=0.1)
        assert abs(eta_rate(df, seg_a, seg_b, 0.1)) <= 1e-12

    def test_integral_kind_matches_endpoint_difference(self, small_grid):
        # d/dt of the windowed integral is xi(u(t)) - xi(u(t - h))
        a, h, dt = 0.02, 1.0, 0.001
        v_of_t = lambda t: 8.0 + np.sin(t)
        df = integral_delay(h, state_mean_reducer(small_grid, "V", a))
        t1 = 0.5
        seg_a = segment_with_v(small_grid, v_of_t, h_max=h, dt=dt, t_now=t1 - dt)
        seg_b = segment_with_v(small_grid, v_of_t, h_max=h, dt=dt, t_now=t1 + dt)
        rate = eta_rate(df, seg_a, seg_b, 2 * dt)
        expected = a * (v_of_t(t1) - v_of_t(t1 - h))
        assert rate == pytest.approx(expected, abs=1e-5)


class TestSmoothClamp:
    @given(s=st.floats(-5.0, 5.0))
    def test_range(self, s):
        rho = smooth_clamp(1.0)
        assert 0.0 <= rho(s) <= 1.0

    def test_identity_in_interior(self):
        rho = smooth_clamp(1.0)
        assert rho(0.5) == 0.5

    def test_c1_at_corners(self):
        rho = smooth_clamp(1.0)
        eps = 1e-7
        for corner in (0.01, 0.99):  # band edges
            left = (rho(corner) - rho(corner - eps)) / eps
            right = (rho(corner + eps) - rho(corner)) / eps
            assert left == pytest.approx(right, abs=1e-4)

    @given(h=st.floats(1e-6, 1e6), free=st.lists(st.floats(), max_size=8))
    def test_array_form_equals_the_scalar_branches_bitwise(self, h, free):
        b = BAND * h
        edges = np.array([-b, b, h - b, h + b])  # each band edge, and one float either side of it
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
        s = np.concatenate((edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), specials, free))
        want = np.array([smooth_clamp_scalar(h)(x) for x in s.tolist()])
        got = smooth_clamp(h)(s)
        assert got.shape == s.shape and got.tobytes() == want.tobytes()
        for x, w in zip(s.tolist(), want.tolist()):  # and one float at a time, as a solo run's evaluate_eta passes it
            assert np.float64(smooth_clamp(h)(x)).tobytes() == np.float64(w).tobytes()


@st.composite
def pushed_histories(draw):
    """A segment built from a random profile and pushed through random steps,
    one of them shortened, plus the same snapshots as a plain list."""
    h = draw(st.floats(0.05, 2.0))
    dt = draw(st.floats(0.01, 0.5))
    n_steps = draw(st.integers(1, 25))
    short = draw(st.integers(0, n_steps - 1))
    frac = draw(st.floats(0.01, 0.99))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = Grid1D(0, 1, 4)
    times, snaps = [], []

    def random_state(t):
        snap = tuple(rng.uniform(0.5, 20.0, grid.nx) for _ in range(3))
        times.append(t)
        snaps.append(snap)
        return np.array(snap)

    seg = segment_from_profile(h, dt, 0.0, random_state)
    covered = [seg.covers()]
    t = 0.0
    for i in range(n_steps):
        t += dt * frac if i == short else dt
        push_state(seg, t, random_state(t))
        covered.append(seg.covers())
    return grid, seg, times, snaps, covered


def oracle_eta(seg, times, snaps, xi, kappa=None):
    def g(theta, snap):
        w = kappa(theta) if kappa is not None else 1.0
        return w * xi(np.array(snap))

    raw = snapshot_window_trapezoid(times, snaps, seg.h_max, seg.dt, g)
    return min(max(raw, 0.0), seg.h_max)


class TestArrayStoreProperties:
    @given(hist=pushed_histories())
    def test_covers_after_every_push(self, hist):
        *_, covered = hist
        assert all(covered)

    @given(hist=pushed_histories())
    def test_integral_and_wrapped_eta_match_snapshot_oracle(self, hist):
        grid, seg, times, snaps, _ = hist
        h = seg.h_max
        xi = state_mean_reducer(grid, "V", 0.3 / h)
        kappa = lambda th: 2.0 * (1.0 + th / h)  # noqa: E731
        got = evaluate_eta(integral_delay(h, xi), seg)
        assert got == pytest.approx(oracle_eta(seg, times, snaps, xi), rel=1e-13, abs=0.0)
        got = evaluate_eta(wrapped_delay(h, xi, kappa=kappa, rho=lambda s: s), seg)
        assert got == pytest.approx(oracle_eta(seg, times, snaps, xi, kappa), rel=1e-13, abs=0.0)

    @given(hist=pushed_histories(), pick=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.0))
    def test_delayed_state_rows_and_interpolation(self, hist, pick, frac):
        _, seg, times, snaps, _ = hist
        t_now, h = times[-1], seg.h_max
        in_window = [j for j, t in enumerate(times) if t >= t_now - h]
        j = in_window[int(pick * (len(in_window) - 1))]
        on_node = delayed_state(seg, t_now - times[j])
        for got, want in zip(on_node, snaps[j]):
            assert np.array_equal(got, want)  # bitwise: the stored row itself
        off_node = delayed_state(seg, frac * h)
        want = snapshot_interp(times, snaps, t_now - frac * h, 1e-9 * seg.dt)
        for got, ref in zip(off_node, want):
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    @given(hist=pushed_histories())
    def test_each_xi_gets_its_own_cached_values(self, hist):
        grid, seg, times, snaps, _ = hist
        h = seg.h_max
        xi_v = state_mean_reducer(grid, "V", 0.3 / h)
        xi_t = state_mean_reducer(grid, "T", 0.1 / h)
        first_v = evaluate_eta(integral_delay(h, xi_v), seg)
        assert evaluate_eta(integral_delay(h, xi_t), seg) == pytest.approx(
            oracle_eta(seg, times, snaps, xi_t), rel=1e-13, abs=0.0
        )
        assert evaluate_eta(integral_delay(h, xi_v), seg) == first_v
        assert first_v == pytest.approx(oracle_eta(seg, times, snaps, xi_v), rel=1e-13, abs=0.0)


@st.composite
def sliding_pushes(draw):
    """Many pushes through a short window (2 to 6 steps), one of them
    shortened, so that a store that is never viewed slides several times."""
    dt = draw(st.floats(0.01, 0.5))
    h = dt * draw(st.floats(1.5, 6.0))
    n_steps = draw(st.integers(30, 60))
    short = draw(st.integers(0, n_steps - 1))
    frac = draw(st.floats(0.01, 0.99))
    seed = draw(st.integers(0, 2**32 - 1))
    return h, dt, n_steps, short, frac, seed


class TestSlidingStore:
    @given(spec=sliding_pushes(), pick=st.floats(0.0, 1.0), frac_lag=st.floats(0.0, 1.0))
    def test_matches_snapshot_oracle_across_slides(self, spec, pick, frac_lag):
        h, dt, n_steps, short, frac, seed = spec
        rng = np.random.default_rng(seed)
        grid = Grid1D(0, 1, 4)
        times, snaps = [], []

        def random_state(t):
            snap = tuple(rng.uniform(0.5, 20.0, grid.nx) for _ in range(3))
            times.append(t)
            snaps.append(snap)
            return np.array(snap)

        seg = segment_from_profile(h, dt, 0.0, random_state)
        xi_v = state_mean_reducer(grid, "V", 0.3 / h)
        xi_t = state_mean_reducer(grid, "T", 0.1 / h)
        kappa = lambda th: 2.0 * (1.0 + th / h)  # noqa: E731
        slides, t = 0, 0.0
        for i in range(n_steps):
            lo = seg._lo
            t += dt * frac if i == short else dt
            push_state(seg, t, random_state(t))
            slides += seg._lo < lo
            assert seg.covers()
            got = evaluate_eta(integral_delay(h, xi_v), seg)
            assert got == pytest.approx(oracle_eta(seg, times, snaps, xi_v), rel=1e-13, abs=0.0)
            got = evaluate_eta(wrapped_delay(h, xi_v, kappa=kappa, rho=lambda s: s), seg)
            assert got == pytest.approx(oracle_eta(seg, times, snaps, xi_v, kappa), rel=1e-13, abs=0.0)
            # the second xi is reduced once early and again only late, so a
            # slide meets its cache both longer and shorter than the rows it drops
            if i == 0 or i >= n_steps - 5:
                got = evaluate_eta(integral_delay(h, xi_t), seg)
                assert got == pytest.approx(oracle_eta(seg, times, snaps, xi_t), rel=1e-13, abs=0.0)
            in_window = [j for j, tj in enumerate(times) if tj >= t - h]
            j = in_window[int(pick * (len(in_window) - 1))]
            for got, want in zip(delayed_state(seg, t - times[j]), snaps[j]):
                assert np.array_equal(got, want)
            want = snapshot_interp(times, snaps, t - frac_lag * h, 1e-9 * dt)
            for got, ref in zip(delayed_state(seg, frac_lag * h), want):
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
        assert slides >= 2
        assert len(seg._rows.times) <= 2 * (h / dt + 2)

    def test_a_view_pins_the_store(self, small_grid):
        def state(t):
            return const_state(small_grid, 10.0 + t, 2.0 * t, 5.0 - t)

        pinned = segment_from_profile(0.3, 0.1, 0.0, state)
        free = segment_from_profile(0.3, 0.1, 0.0, state)
        for seg in (pinned, free):
            for i in range(1, 6):
                push_state(seg, 0.1 * i, state(0.1 * i))
        old = pinned.view(0, len(pinned))
        old_times, old_fields = old.times.copy(), old.fields.copy()
        for i in range(6, 66):
            for seg in (pinned, free):
                push_state(seg, 0.1 * i, state(0.1 * i))
        assert np.array_equal(old.times, old_times)
        assert np.array_equal(old.fields, old_fields)
        # every row since the view is still stored, in order
        since = old.view(0, len(old_times) + 60).times
        assert np.array_equal(since[: len(old_times)], old_times)
        assert np.array_equal(since[len(old_times) :], 0.1 * np.arange(6, 66))
        # both windows read the same rows; only the unpinned store slid
        assert np.array_equal(pinned.times, free.times)
        assert np.array_equal(pinned.fields, free.fields)
        assert len(free._rows.times) <= 2 * len(old_times)
        assert len(pinned._rows.times) >= 66
