import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from sddlab import IncidenceFn, ModelParams, incidence_mu
from sddlab.model import incidence_dT, incidence_values
from sddlab.model import (
    _nnls2,
    check_hf1,
    check_hf1_plus,
    check_hf3,
    check_hf4,
    check_all,
    default_sample_box,
)

from .oracles import check_hf3_loop, check_hf4_loop

BOX = ((0.0, 100.0), (0.0, 200.0))

ALL_KINDS = [
    IncidenceFn("bilinear", k=0.3),
    IncidenceFn("saturated", k=0.3, k2=0.7),
    IncidenceFn("beddington_deangelis", k=0.3, k1=0.2, k2=0.7),
    IncidenceFn("crowley_martin", k=0.3, k1=0.2, k2=0.7),
]


class TestTypes:
    def test_model_params_positive(self):
        with pytest.raises(ValueError, match="lam"):
            ModelParams(lam=-1, d=0.1, delta=0.5, burst_n=10, c=5, omega=0, h_max=1)
        with pytest.raises(ValueError, match="diff"):
            ModelParams(lam=1, d=0.1, delta=0.5, burst_n=10, c=5, omega=0, h_max=1, diff=(-1, 0, 0))
        with pytest.raises(ValueError, match="omega"):
            ModelParams(lam=1, d=0.1, delta=0.5, burst_n=10, c=5, omega=-0.1, h_max=1)

    def test_incidence_kind_constraints(self):
        with pytest.raises(ValueError, match="kind"):
            IncidenceFn("satrated", k=1.0)
        with pytest.raises(ValueError, match="k2"):
            IncidenceFn("saturated", k=1.0, k2=0.0)
        with pytest.raises(ValueError, match="k1"):
            IncidenceFn("crowley_martin", k=1.0, k1=0.0, k2=1.0)
        with pytest.raises(ValueError, match="mu"):
            IncidenceFn("bilinear", k=1.0, mu=-2.0)


class TestEvalIncidence:
    def test_beddington_deangelis_hand_value(self):
        f = IncidenceFn("beddington_deangelis", k=1.0, k1=0.0, k2=1.0)
        assert incidence_values(f, 2.0, 3.0) == pytest.approx(1.5, rel=1e-15)

    def test_bilinear_hand_value(self):
        f = IncidenceFn("bilinear", k=0.1)
        assert incidence_values(f, 5.0, 19.0) == pytest.approx(9.5, rel=1e-15)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_axis_zeros_bit_exact(self, f):
        assert incidence_values(f, 5.0, 0.0) == 0.0
        assert incidence_values(f, 0.0, 7.0) == 0.0

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_closed_form_dT_matches_central_difference(self, f):
        v_hat = 6.0
        T = np.array([0.01, 0.5, 4.0, 30.0, 250.0])
        e = 1e-5 * T
        fd = (incidence_values(f, T + e, v_hat) - incidence_values(f, T - e, v_hat)) / (2.0 * e)
        assert incidence_dT(f, T, v_hat) == pytest.approx(fd, rel=1e-8)

    @given(T=st.floats(0, 1e3), V=st.floats(0, 1e4))
    def test_saturated_linear_bound(self, T, V):
        f = IncidenceFn("saturated", k=0.1, k2=0.1)
        val = incidence_values(f, T, V)
        assert 0.0 <= val <= (f.k / f.k2) * T * (1.0 + 1e-12)

    def test_vectorized(self):
        f = IncidenceFn("saturated", k=0.1, k2=0.1)
        out = incidence_values(f, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert out.shape == (2,)


class TestMu:
    def test_explicit_mu_wins(self):
        assert incidence_mu(IncidenceFn("saturated", k=0.1, k2=0.1, mu=3.0)) == 3.0

    def test_analytic_fill(self):
        assert incidence_mu(IncidenceFn("saturated", k=0.1, k2=0.1)) == pytest.approx(1.0)
        assert incidence_mu(IncidenceFn("crowley_martin", k=0.2, k1=1.0, k2=0.1)) == pytest.approx(2.0)
        assert incidence_mu(IncidenceFn("beddington_deangelis", k=0.2, k2=0.4)) == pytest.approx(0.5)

    def test_bilinear_has_none(self):
        assert incidence_mu(IncidenceFn("bilinear", k=0.1)) is None


class TestHf1:
    def test_saturated_holds_with_mu_one(self):
        verdict = check_hf1(IncidenceFn("saturated", k=0.1, k2=0.1), BOX, 50)
        assert verdict.holds
        assert verdict.info["mu"] == pytest.approx(1.0)

    def test_bilinear_candidate_mu_fails_with_witness(self):
        f = IncidenceFn("bilinear", k=0.1, mu=1.0)
        verdict = check_hf1(f, ((0.0, 2.0), (0.0, 30.0)), 50)
        assert verdict.status == "fails"
        T, V = verdict.witness
        assert abs(incidence_values(f, T, V)) > 1.0 * abs(T)

    def test_bilinear_without_mu_not_applicable(self):
        assert check_hf1(IncidenceFn("bilinear", k=0.1), BOX, 50).status == "not_applicable"

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            check_hf1(IncidenceFn("saturated", k=0.1, k2=0.1), ((5.0, 5.0), (0.0, 1.0)), 10)

    def test_purity(self):
        f = IncidenceFn("saturated", k=0.1, k2=0.1)
        assert check_hf1(f, BOX, 40) == check_hf1(f, BOX, 40)


class TestHf1Plus:
    def test_beddington_deangelis_holds(self):
        assert check_hf1_plus(IncidenceFn("beddington_deangelis", k=1.0, k2=1.0), ((0, 10), (0, 10)), 30).holds

    def test_crowley_martin_holds(self):
        assert check_hf1_plus(IncidenceFn("crowley_martin", k=1.0, k1=1.0, k2=1.0), ((0, 10), (0, 10)), 30).holds

    def test_zero_function_fails(self):
        verdict = check_hf1_plus(IncidenceFn("bilinear", k=0.0), BOX, 20)
        assert verdict.status == "fails"
        assert verdict.witness is not None


class TestHf3:
    def test_hand_point_saturated(self):
        # T=1, V=4, v_hat=2: factor1 = 2 - (4/5)/(2/3) = 0.8, factor2 = 0.2
        f = IncidenceFn("saturated", k=1.0, k2=1.0)
        r = incidence_values(f, 1.0, 4.0) / incidence_values(f, 1.0, 2.0)
        assert (4.0 / 2.0 - r) == pytest.approx(0.8, rel=1e-12)
        assert (r - 1.0) == pytest.approx(0.2, rel=1e-12)
        assert check_hf3(f, 2.0, ((0.0, 10.0), (0.0, 10.0)), 40).holds

    @pytest.mark.parametrize("v_hat", [0.5, 2.0, 19.0])
    def test_bilinear_fails_for_every_v_hat(self, v_hat):
        verdict = check_hf3(IncidenceFn("bilinear", k=0.1), v_hat, ((0.0, 10.0), (0.0, 40.0)), 30)
        assert verdict.status == "fails"
        assert verdict.witness is not None

    def test_v_hat_sample_skipped(self):
        # grid hits V = v_hat = 5 exactly; the boundary point must not flip
        # the verdict for an otherwise passing incidence
        f = IncidenceFn("saturated", k=1.0, k2=1.0)
        assert check_hf3(f, 5.0, ((0.0, 10.0), (0.0, 10.0)), 11).holds

    def test_v_hat_must_be_positive(self):
        with pytest.raises(ValueError):
            check_hf3(IncidenceFn("saturated", k=1.0, k2=1.0), 0.0, BOX, 10)


class TestHf4:
    def test_beddington_deangelis_branch_a(self):
        verdict = check_hf4(IncidenceFn("beddington_deangelis", k=1.0, k2=1.0), 1.0, ((0, 10), (0, 10)), 20)
        assert verdict.holds
        assert verdict.info["branch_a"] is True

    def test_saturated_reciprocal_constants(self):
        # f(T, 1) = T/2 for k = k2 = 1, so 1/f = 0 + 2 * (1/T)
        verdict = check_hf4(IncidenceFn("saturated", k=1.0, k2=1.0), 1.0, ((0, 10), (0, 10)), 20)
        assert verdict.holds
        assert verdict.info["branch_b"] is True
        assert verdict.info["C1"] == pytest.approx(0.0, abs=1e-9)
        assert verdict.info["C2"] == pytest.approx(2.0, rel=1e-9)

    def test_kinked_function_falls_through_to_branch_b(self):
        def kinked(T, V):
            T = np.asarray(T, dtype=float)
            V = np.asarray(V, dtype=float)
            return 0.05 * np.abs(T - 5.0) * V / (1.0 + V)

        verdict = check_hf4(kinked, 1.0, ((0.0, 10.0), (0.0, 10.0)), 21)
        assert verdict.info["branch_a"] is False
        assert "C1" in verdict.info  # branch B was attempted
        assert verdict.status == "fails"
        assert verdict.witness is not None

    @pytest.mark.parametrize(
        "f",
        [IncidenceFn("saturated", k=1.0, k2=1.0), IncidenceFn("bilinear", k=1.0), lambda T, V: T * V / (1.0 + T)],
    )
    def test_a_subnormal_t_sample_is_left_out_of_the_fit(self, f):
        # 1/T overflows at T = 2.2e-309; nnls used to raise on the inf
        box = ((2.225073858507203e-309, 1.0), (0.0, 1.0))
        verdict = check_hf4(f, 1.0, box, 3)
        assert verdict.holds and verdict.info["branch_b"] is True
        assert verdict.info["C1"] >= 0.0 and verdict.info["C2"] >= 0.0
        assert verdict == check_hf4_loop(f, 1.0, box, 3)

    @pytest.mark.parametrize("n", [3, 21])
    def test_a_1e300_reciprocal_row_leaves_c1_exact(self, n):
        # 1/f = 2/T exactly; the row at T = 1e-300 must be matched by C2
        # alone, not spread into C1 (scipy's nnls gave C1 = 0.3 at n = 3)
        verdict = check_hf4(IncidenceFn("saturated", k=1.0, k2=1.0), 1.0, ((1e-300, 10.0), (0.0, 10.0)), n)
        assert verdict.info["branch_b"] is True
        assert verdict.info["C1"] == pytest.approx(0.0, abs=1e-12)
        assert verdict.info["C2"] == pytest.approx(2.0, rel=1e-12)

    def test_a_1e300_reciprocal_row_forgives_no_other_sample(self):
        # the fit C1 = 0, C2 = 2 matches the T = 1e-300 row, but at T = 0.5
        # 1/f = 3.2 < C2/T = 4; a tolerance scaled by max|1/f| (1e300) let that pass
        def f(T, V):
            return T * V / (1.0 + V) * (1.0 + 0.5 * np.sin(T))

        box = ((1e-300, 10.0), (0.0, 10.0))
        verdict = check_hf4(f, 1.0, box, 21)
        assert verdict.info["branch_b"] is False
        assert verdict == check_hf4_loop(f, 1.0, box, 21)


@st.composite
def reciprocal_fits(draw):
    """Branch B's fit [1, 1/T] x ~ y on the T samples of a box, some boxes
    starting at T = 1e-300 (1/T = 1e300), with y = C1 + C2/T plus noise; C1
    and C2 are drawn of either sign or zero, so each KKT case is the answer.
    No subnormal draws: scipy's nnls takes an all-5e-324 y for zero."""
    n = draw(st.integers(3, 60))
    t0 = draw(st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 10.0))
    T = np.linspace(t0, t0 + draw(st.floats(0.5, 200.0)), n)
    T = T[T >= 1e-300]  # check_hf4 leaves out a T whose 1/T overflows
    c1, c2 = (draw(st.just(0.0) | st.floats(-2.0, 2.0, allow_subnormal=False)) for _ in range(2))
    y = c1 + c2 / T
    noise = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0])) * float(np.max(np.abs(y)))
    u = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=T.size, max_size=T.size))
    y = y + noise * np.array(u)
    return np.column_stack([np.ones_like(T), 1.0 / T]), y


class TestNnls2:
    """Branch B's closed-form fit against ``scipy.optimize.nnls``."""

    @settings(max_examples=200)
    @given(problem=reciprocal_fits())
    def test_agrees_with_scipy(self, problem):
        A, y = problem
        x, (x_ref, _) = _nnls2(A, y), nnls(A, y)
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0)

        def residual(z):
            return math.hypot(*(A @ z - y))  # no overflow with a 1e300 row

        # residuals a few roundings of the data apart are a tie: with a 1e300
        # row the float grain of C2 alone moves the residual by ~eps |y|
        assert residual(x) <= residual(x_ref) * (1.0 + 1e-12) + 64.0 * np.finfo(float).eps * math.hypot(*y)
        scale = np.max(np.abs(y)) / np.max(np.abs(A), axis=0)  # |y| per unit of each column
        diff = np.abs(x - x_ref)
        assert np.all((diff <= 1e-9 * np.abs(x_ref)) | (diff <= 1e-12 * scale))

    @pytest.mark.parametrize(
        "c1, c2, support",
        [
            (1.0, 2.0, (True, True)),
            (3.0, -0.5, (True, False)),
            (-0.5, 3.0, (False, True)),
            (-1.0, -1.0, (False, False)),
        ],
    )
    def test_each_kkt_case(self, c1, c2, support):
        T = np.linspace(1.0, 10.0, 12)
        A, y = np.column_stack([np.ones_like(T), 1.0 / T]), c1 + c2 / T
        x = _nnls2(A, y)
        assert tuple(bool(v) for v in x > 0.0) == support
        np.testing.assert_allclose(x, nnls(A, y)[0], rtol=1e-9, atol=1e-12)


def kinked_at(c):
    def kinked(T, V):
        return 0.05 * np.abs(T - c) * V / (1.0 + V)

    return kinked


def root(T, V):
    """NaN below T = 3, so branch A and hf3 fail there with a witness."""
    with np.errstate(invalid="ignore"):
        return np.sqrt(T - 3.0) * V


def zero_rows(T, V):
    """f(T, v_hat) = 0 for T <= 2: hf3 skips those rows."""
    return np.maximum(T - 2.0, 0.0) * V / (1.0 + V)


def wavy(T, V):
    """Fails hf3 and branch A at scattered samples, so the first failing
    sample in row-major order is not the first in column-major order."""
    return T * V / (1.0 + V) * (2.0 + np.sin(T * T * V))


FAMILIES = ["bilinear", "saturated", "beddington_deangelis", "crowley_martin", "kinked", "root", "zero_rows", "wavy"]


@st.composite
def check_cases(draw, family):
    """A box (t0 > 0 or v0 > 0 allowed), its density, v_hat (sometimes on a
    V sample, which hf3 skips) and an incidence of the family."""
    n = draw(st.integers(2, 60))
    t0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    t1 = t0 + draw(st.floats(0.5, 200.0))
    v0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    v1 = v0 + draw(st.floats(0.5, 400.0))
    on_sample = [v for v in np.linspace(v0, v1, n).tolist() if v > 0.0]
    v_hat = draw(st.one_of(st.floats(0.1, 50.0), st.sampled_from(on_sample)))
    if family == "kinked":  # a kink on a T sample, where branch A sees it
        f = kinked_at(draw(st.sampled_from(np.linspace(t0, t1, n).tolist())))
    elif family in ("root", "zero_rows", "wavy"):
        f = {"root": root, "zero_rows": zero_rows, "wavy": wavy}[family]
    else:
        k, k1, k2 = (draw(st.floats(0.01, 2.0)) for _ in range(3))
        f = IncidenceFn(family, k=k, k1=k1, k2=k2)
    return f, v_hat, ((t0, t1), (v0, v1)), n


def outcome(check, *args):
    """The verdict, or the error raised."""
    try:
        return check(*args)
    except ValueError as err:
        return repr(err)


class TestChecksMatchLoops:
    """The array checks give the verdicts of the one-point loops: status,
    witness (the first failing sample in row-major order), note and info."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # root's NaN rows and near-zero f(T, v_hat)
    @settings(max_examples=12)
    @given(data=st.data())
    def test_hf3_and_hf4_match_the_loops(self, family, data):
        f, v_hat, box, n = data.draw(check_cases(family))
        assert outcome(check_hf3, f, v_hat, box, n) == outcome(check_hf3_loop, f, v_hat, box, n)
        assert outcome(check_hf4, f, v_hat, box, n) == outcome(check_hf4_loop, f, v_hat, box, n)

    @pytest.mark.parametrize(
        "f, box, hf3, hf4",
        [
            (root, ((0.0, 10.0), (0.0, 10.0)), "fails", "fails"),
            (root, ((0.0, 2.5), (0.0, 10.0)), "holds", "fails"),  # every hf3 row is NaN, none skipped
            (zero_rows, ((0.0, 10.0), (0.0, 10.0)), "holds", "fails"),  # hf4: the corner at T = 2
            (zero_rows, ((0.0, 2.0), (0.0, 10.0)), "not_applicable", "fails"),
            (kinked_at(5.0), ((0.0, 10.0), (0.0, 10.0)), "holds", "fails"),
            (wavy, ((0.0, 50.0), (0.0, 50.0)), "fails", "fails"),
        ],
    )
    def test_witness_cases(self, f, box, hf3, hf4):
        got3, got4 = check_hf3(f, 1.0, box, 21), check_hf4(f, 1.0, box, 21)
        assert (got3.status, got4.status) == (hf3, hf4)
        assert got3 == check_hf3_loop(f, 1.0, box, 21)
        assert got4 == check_hf4_loop(f, 1.0, box, 21)


def test_check_all_report(ref_params, saturated):
    box = default_sample_box(ref_params, saturated)
    assert box[0][1] == pytest.approx(200.0)  # 2 * lam / d
    assert box[1][1] == pytest.approx(400.0)  # 2 * N lam mu / (d c)
    report = check_all(saturated, box, n=40, v_hat=17.272727272727273)
    assert report.all_hold
    assert report.sample_density == 40
    report_no_eq = check_all(saturated, box, n=40, v_hat=None)
    assert report_no_eq.hf3.status == "not_applicable"
    assert report_no_eq.hf4.status == "not_applicable"
