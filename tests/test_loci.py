import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from memelements import (
    NumericalError,
    PhaseClass,
    PointKind,
    Valuedness,
    analytic_locus,
    negative_slope_arcs,
    odd_symmetry,
    origin_crossing,
    phase_shift,
    point_at,
    valuedness,
    vertical_tangent_points,
    zero_tangent_points,
)
from memelements import loci
import oracles


@pytest.fixture
def cubic_loop(cubic, drive):
    return analytic_locus(cubic, drive, 1)


@pytest.fixture
def tanh_loop(tanh_curve, drive):
    return analytic_locus(tanh_curve, drive, 1)


class TestOriginCrossing:
    def test_first_order_pinch_times(self, cubic_loop, drive):
        report = origin_crossing(cubic_loop)
        assert report.crosses_origin
        times = sorted(p.t for p in report.pinch_points)
        expect = [0.0, np.pi, 2.0 * np.pi]
        assert len(times) == 3
        assert np.allclose(times, expect, atol=1e-9)
        for p in report.pinch_points:
            assert p.kind is PointKind.PINCH
            assert abs(p.u) < 1e-9 and abs(p.w) < 1e-9

    def test_second_order_locus_misses_origin(self, cubic, drive):
        locus = analytic_locus(cubic, drive, 2)
        report = origin_crossing(locus)
        assert not report.crosses_origin
        # the ordinate is far from zero wherever the abscissa vanishes
        mags = [abs(p.w) for p in report.abscissa_zeros]
        assert min(mags) > 1.0

    def test_abscissa_zero_count(self, cubic, drive):
        locus = analytic_locus(cubic, drive, 2)
        times = sorted(p.t for p in origin_crossing(locus).abscissa_zeros)
        assert np.allclose(times, [np.pi / 2.0, 3.0 * np.pi / 2.0], atol=1e-9)


class TestValuedness:
    def test_depth_one_loop_is_double(self, cubic_loop):
        report = valuedness(cubic_loop)
        assert report.kind is Valuedness.DOUBLE
        assert report.max_gap == pytest.approx(2.0, abs=1e-9)
        # the classic witness pair around the quarter sweep
        w_quarter = point_at(cubic_loop, np.pi / 4.0)[1]
        w_mirror = point_at(cubic_loop, 3.0 * np.pi / 4.0)[1]
        assert w_quarter == pytest.approx(0.7677669529663687, abs=1e-12)
        assert w_mirror - w_quarter == pytest.approx(2.0, abs=1e-12)

    def test_depth_two_collapses_to_single(self, cubic, drive):
        locus = analytic_locus(cubic, drive, 2)
        report = valuedness(locus)
        assert report.kind is Valuedness.SINGLE
        assert report.max_gap < 1e-12

    def test_witnesses_are_separated(self, cubic_loop, drive):
        report = valuedness(cubic_loop)
        times = [w.t for w in report.witnesses]
        assert len(times) <= 4
        for i, a in enumerate(times):
            for b in times[i + 1:]:
                assert abs(a - b) >= drive.period / 64.0 - 1e-12


class TestOddSymmetry:
    def test_depth_one_is_odd(self, cubic_loop):
        report = odd_symmetry(cubic_loop)
        assert report.odd_symmetric
        assert report.max_violation < 1e-12

    def test_two_branch_loop_is_not_odd(self, loop_curve, drive):
        locus = analytic_locus(loop_curve, drive, 1)
        report = odd_symmetry(locus)
        assert not report.odd_symmetric
        assert report.max_violation > 0.1


class TestTangentLandmarks:
    def test_cubic_zero_tangents_match_brute_force(self, cubic_loop):
        points = zero_tangent_points(cubic_loop)
        times = sorted(p.t for p in points)
        brute = oracles.brute_extrema(oracles.cubic_rate)
        assert len(times) == len(brute) == 2
        for got, scan in zip(times, brute):
            assert got == pytest.approx(scan, abs=1e-5)
        assert times[0] == pytest.approx(oracles.T_C_CUBIC, abs=1e-11)
        assert times[1] == pytest.approx(oracles.T_C_CUBIC_MIRROR, abs=1e-11)
        for p in points:
            assert p.kind is PointKind.ZERO_TANGENT
            assert p.tangent_angle == 0.0

    def test_tanh_zero_tangents_match_brute_force(self, tanh_loop):
        times = sorted(p.t for p in zero_tangent_points(tanh_loop))
        brute = oracles.brute_extrema(oracles.tanh_rate)
        assert len(times) == len(brute) == 2
        for got, scan in zip(times, brute):
            assert got == pytest.approx(scan, abs=1e-5)
        assert times[0] == pytest.approx(oracles.T_C_TANH, abs=1e-11)
        assert times[1] == pytest.approx(oracles.T_C_TANH_MIRROR, abs=1e-11)

    def test_cubic_vertical_tangents(self, cubic_loop):
        points = vertical_tangent_points(cubic_loop)
        times = sorted(p.t for p in points)
        assert np.allclose(times, [np.pi / 2.0, 3.0 * np.pi / 2.0], atol=1e-11)
        ws = sorted(p.w for p in points)
        assert ws[0] == pytest.approx(-2.0, abs=1e-11)
        assert ws[1] == pytest.approx(2.0, abs=1e-11)
        for p in points:
            assert p.kind is PointKind.VERTICAL_TANGENT
            assert p.tangent_angle == pytest.approx(np.pi / 2.0)

    def test_inflection_is_not_a_zero_tangent(self, degenerate, drive):
        # dw/dt has a double zero at switch-on; no extremum lives there
        locus = analytic_locus(degenerate, drive, 1)
        times = [p.t for p in zero_tangent_points(locus)]
        assert all(t > 1e-6 for t in times)


class TestNegativeSlopeArcs:
    def test_cubic_arcs_span_vertical_to_zero_tangent(self, cubic_loop):
        arcs = negative_slope_arcs(cubic_loop)
        assert len(arcs) == 2
        first, second = sorted(arcs, key=lambda a: a.t_start)
        assert first.t_start == pytest.approx(np.pi / 2.0, abs=1e-9)
        assert first.t_end == pytest.approx(oracles.T_C_CUBIC, abs=1e-9)
        assert second.t_start == pytest.approx(oracles.T_C_CUBIC_MIRROR, abs=1e-9)
        assert second.t_end == pytest.approx(3.0 * np.pi / 2.0, abs=1e-9)

    def test_arc_midpoints_really_slope_down(self, cubic_loop):
        for arc in negative_slope_arcs(cubic_loop):
            mid = 0.5 * (arc.t_start + arc.t_end)
            du, dw = cubic_loop.derivative_fn(mid)
            assert du * dw < 0.0


class TestZeroTangentGuarantee:
    def test_smooth_ideal_families_have_zero_tangents(self, cubic, tanh_curve,
                                                      drive):
        from memelements import Excitation, LogisticCurve

        cases = [
            (cubic, drive),
            (tanh_curve, drive),
            # logistic lives away from the origin; drive sweeps [0.5, 2]
            (LogisticCurve(), Excitation(amplitude=0.75, offset=1.25)),
        ]
        for curve, exc in cases:
            locus = analytic_locus(curve, exc, 1)
            assert zero_tangent_points(locus), curve.family

    def test_degenerate_coincidence_has_none(self, degenerate, drive):
        # this curve's rate peak lands exactly on the drive's velocity
        # peak, so the parametrization is stationary there; the geometric
        # tangent stays finite and nonzero, and no zero tangent exists
        locus = analytic_locus(degenerate, drive, 1)
        assert zero_tangent_points(locus) == ()


class TestPhaseShift:
    def test_cubic_lags(self, cubic, drive):
        report = phase_shift(cubic, drive)
        assert report.classification is PhaseClass.LAG
        assert report.shift == pytest.approx(oracles.PHASE_SHIFT_CUBIC, abs=1e-9)
        assert report.t_peak_abscissa == pytest.approx(np.pi / 2.0, abs=1e-9)

    def test_tanh_advances(self, tanh_curve, drive):
        report = phase_shift(tanh_curve, drive)
        assert report.classification is PhaseClass.ADVANCE
        assert report.shift == pytest.approx(oracles.PHASE_SHIFT_TANH, abs=1e-9)

    def test_linear_curve_is_in_phase(self, drive):
        from memelements import PolynomialCurve

        line = PolynomialCurve(coefficients=(0.0, 1.0))
        report = phase_shift(line, drive)
        assert report.classification is PhaseClass.IN_PHASE
        assert abs(report.shift) < 1e-9


# ----------------------------------------------------------------------
# root refinement: lock-step bisection against scalar references
# ----------------------------------------------------------------------

def _bracket_case(a, width, where, frac, slope, bend):
    """One bracket [a, b] and a monotone signal through its root r.

    where picks the root: an endpoint (the signal is exactly zero there),
    the first midpoint the bisection visits (exactly zero there too), or
    an arbitrary interior point.
    """
    b = a + width
    r = {"a": a, "b": b, "mid": a + 0.5 * (b - a), "inside": a + frac * (b - a)}[where]

    def g(x):
        d = x - r
        return slope * d * (1.0 + bend * d * d)

    return a, b, g


bracket_cases = st.lists(
    st.tuples(
        st.floats(-100.0, 100.0),
        st.floats(1e-6, 10.0),
        st.sampled_from(["a", "b", "mid", "inside"]),
        st.floats(0.0, 1.0),
        st.sampled_from([-3.0, -1.0, 0.5, 2.0]),
        st.floats(0.0, 2.0),
    ),
    min_size=1,
    max_size=8,
)


class TestBisect:
    @settings(max_examples=200, deadline=None)
    @given(cases=bracket_cases, xtol=st.sampled_from([1e-12, 1e-9, 1e-4]))
    def test_matches_scipy_bit_for_bit(self, cases, xtol):
        brackets = [_bracket_case(*c) for c in cases]
        a = np.array([br[0] for br in brackets])
        b = np.array([br[1] for br in brackets])

        # bracket j reads row j of the hook, its own signal
        def hook(x):
            return np.array([g(x) for _, _, g in brackets])

        got = loci.bisect(hook, a, b, np.arange(len(brackets)), xtol=xtol)
        want = np.array([scipy.optimize.bisect(g, lo, hi, xtol=xtol)
                         for lo, hi, g in brackets])
        assert got.tobytes() == want.tobytes()

    def test_one_hook_call_per_step(self):
        calls = []

        def hook(x):
            calls.append(np.size(x))
            return np.array([x - 0.3, x - 0.7])

        a, b, rows = [0.0, 0.0, 0.5], [0.5, 1.0, 1.0], [0, 1, 1]
        roots = loci.bisect(hook, a, b, rows, xtol=1e-6)
        assert np.allclose(roots, [0.3, 0.7, 0.7], atol=1e-6)
        # both endpoint sets, then one call per halving on the brackets
        # still live: the widest bracket needs one halving more than the rest
        steps = [scipy.optimize.bisect(lambda x, r=r: x - (0.3, 0.7)[r], lo, hi,
                                       xtol=1e-6, full_output=True)[1].iterations
                 for lo, hi, r in zip(a, b, rows)]
        assert steps == [19, 20, 19]
        assert calls == [3, 3] + [3] * 19 + [1]

    def test_rejects_bracket_without_sign_change(self):
        with pytest.raises(NumericalError):
            loci.bisect(lambda x: x * x + 1.0, [0.0], [1.0], [0])

    def test_rejects_nan_signal(self):
        with pytest.raises(NumericalError):
            loci.bisect(lambda x: np.where(x > 0.4, np.nan, x - 0.5), [0.0], [1.0], [0])

    def test_reports_non_convergence(self):
        # the midpoints of [-1, 2] never land on 0, and xtol is below reach
        with pytest.raises(NumericalError):
            loci.bisect(lambda x: x, [-1.0], [2.0], [0], xtol=1e-300)


def _reference_roots(t, vals, fn=None, xtol=1e-12, transversal_only=False):
    """The per-sample scan with scalar scipy bisection that _refined_roots replaced."""
    vals = np.asarray(vals, dtype=float)
    n = len(t)
    core_n = n - 1

    def neighbor_sign(idx, step):
        for k in range(1, core_n):
            v = float(vals[(idx + step * k) % core_n])
            if v != 0.0:
                return float(np.sign(v))
        return 0.0

    roots = []
    i = 0
    while i < n:
        if float(vals[i]) == 0.0:
            j = i
            while j + 1 < n and float(vals[j + 1]) == 0.0:
                j += 1
            keep = True
            if transversal_only:
                keep = neighbor_sign(i % core_n, -1) * neighbor_sign(j % core_n, +1) < 0.0
            if keep:
                roots.append(float(t[(i + j) // 2]))
            i = j + 1
            continue
        if i + 1 < n and float(vals[i]) * float(vals[i + 1]) < 0.0:
            if fn is not None:
                roots.append(float(scipy.optimize.bisect(
                    fn, float(t[i]), float(t[i + 1]), xtol=xtol)))
            else:
                a, b = float(vals[i]), float(vals[i + 1])
                roots.append(float(t[i]) - a * (float(t[i + 1]) - float(t[i])) / (b - a))
        i += 1
    return loci._dedupe(roots, max(10.0 * xtol, 1e-12))


T65 = np.linspace(0.0, 2.0 * np.pi, 65)


def _seam_run():
    # exact zeros at both ends of the period: one run split by the seam
    v = np.sin(T65)
    v[:2] = 0.0
    v[-2:] = 0.0
    return v


def _double_zero():
    # touches zero at one sample without changing sign
    v = (T65 - T65[20]) ** 2 * np.cos(T65)
    v[20] = 0.0
    return v


SIGNALS = {
    "seam_run": _seam_run(),
    "double_zero": _double_zero(),
    "all_zero": np.zeros_like(T65),
    "sign_changes": np.sin(3.0 * T65 + 0.1),
}


class TestRefinedRoots:
    @pytest.mark.parametrize("transversal_only", [False, True])
    @pytest.mark.parametrize("name", sorted(SIGNALS))
    def test_interpolation_matches_reference_scan(self, name, transversal_only):
        vals = SIGNALS[name]
        (got,) = loci._refined_roots(T65, vals, transversal_only=transversal_only)
        assert got == _reference_roots(T65, vals, transversal_only=transversal_only)

    def test_seam_run_and_double_zero_semantics(self):
        # the seam run is kept from both of its ends, the double zero dropped
        (seam,) = loci._refined_roots(T65, SIGNALS["seam_run"], transversal_only=True)
        assert T65[0] in seam and T65[63] in seam
        (double,) = loci._refined_roots(T65, SIGNALS["double_zero"], transversal_only=True)
        assert T65[20] not in double
        (kept,) = loci._refined_roots(T65, SIGNALS["double_zero"])
        assert T65[20] in kept
        assert loci._refined_roots(T65, SIGNALS["all_zero"], transversal_only=True) == [[]]
        assert loci._refined_roots(T65, SIGNALS["all_zero"]) == [[T65[32]]]

    @pytest.mark.parametrize("transversal_only", [False, True])
    def test_two_rows_refined_together_match_scalar_scans(self, transversal_only):
        def hook(x):
            return np.sin(3.0 * x + 0.1), (x - T65[20]) ** 2 * np.cos(x) - 0.05

        vals = np.array(hook(T65))
        vals[0, 40] = 0.0  # an exact zero sample among the sign changes
        got = loci._refined_roots(T65, vals, hook, transversal_only=transversal_only)
        want = [
            _reference_roots(T65, vals[r], lambda x, r=r: float(hook(x)[r]),
                             transversal_only=transversal_only)
            for r in (0, 1)
        ]
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.0, 1.0, 3.0]),
                            min_size=2, max_size=40),
           transversal_only=st.booleans())
    def test_random_runs_match_reference_scan(self, samples, transversal_only):
        t = np.arange(len(samples), dtype=float)
        (got,) = loci._refined_roots(t, samples, transversal_only=transversal_only)
        assert got == _reference_roots(t, samples, transversal_only=transversal_only)
