import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memelements import (
    NumericalError,
    classify,
    grid,
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


class TestValuednessPairs:
    @pytest.mark.parametrize("n", [256, 257, 4095])
    def test_max_gap_equals_the_hook_evaluated_gap(self, tanh_curve, loop_curve, drive, n):
        # even n pairs about 2/3 of the samples with a grid time; odd n pairs
        # none at odd depth, so every such pair goes through the jet
        for curve, cell in ((tanh_curve, (-3, -3)), (loop_curve, (-2, -2))):
            rpt = classify(cell, curve, drive, grid_n=n)
            for plane, locus in zip(rpt.planes, rpt.loci, strict=True):
                T = locus.period
                t_pair = np.mod((0.5 * T if locus.depth % 2 else T) - locus.t_values, T)
                gap = np.abs(locus.w_values - point_at(locus, t_pair)[1])
                assert plane.max_pair_gap == float(np.max(gap))
                assert valuedness(locus).max_gap == plane.max_pair_gap


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

    def test_lone_locus_is_not_refined(self, cubic, drive, monkeypatch):
        # a lone locus takes its scale from two reductions; refined or not,
        # the report is the same
        locus = analytic_locus(cubic, drive, 1)
        monkeypatch.setattr(loci, "refine_chain", lambda *a, **k: pytest.fail("refined"))
        report = odd_symmetry(locus)
        assert "_roots" not in vars(locus)
        monkeypatch.undo()
        loci.refine_chain((locus,))
        assert odd_symmetry(locus) == report


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

    def test_arc_midpoints_really_slope_down(self, cubic_loop, cubic, drive):
        rates = analytic_locus(cubic, drive, 2)
        for arc in negative_slope_arcs(cubic_loop):
            mid = 0.5 * (arc.t_start + arc.t_end)
            du, dw = point_at(rates, mid)
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

    @pytest.mark.parametrize("name", ["cubic", "tanh_curve"])
    def test_peak_phases_do_not_depend_on_omega(self, name, request):
        from memelements import Excitation

        curve = request.getfixturevalue(name)
        base = phase_shift(curve, Excitation())
        for omega in (0.3, 2.7, 13.0):
            report = phase_shift(curve, Excitation(omega=omega))
            assert report.classification is base.classification
            for key in ("t_peak_ordinate", "t_peak_abscissa", "shift"):
                assert omega * getattr(report, key) == pytest.approx(getattr(base, key),
                                                                     abs=1e-9)

    def test_refines_only_outgoing_rate_brackets(self, tanh_curve, drive, monkeypatch):
        brackets = []
        bisect = loci.bisect

        def recording(fn, a, b, *args, **kwargs):
            brackets.extend(zip(a, b))
            return bisect(fn, a, b, *args, **kwargs)

        monkeypatch.setattr(loci, "bisect", recording)
        rpt = phase_shift(tanh_curve, drive)
        monkeypatch.undo()
        assert brackets and all(a < 0.5 * drive.period for a, _ in brackets)
        # the peaks are among the roots refine_chain finds on the same grid
        roots = loci._plane_roots(analytic_locus(tanh_curve, drive, 1, grid(drive, 8192)))
        assert rpt.t_peak_ordinate in roots.dw
        assert rpt.t_peak_abscissa in roots.du

    def test_needs_second_derivatives(self, drive):
        from memelements import CapabilityError, PolynomialCurve

        curve = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0), max_derivative_order=1)
        with pytest.raises(CapabilityError):
            phase_shift(curve, drive)


# ----------------------------------------------------------------------
# root refinement: lock-step bisection against scalar references
# ----------------------------------------------------------------------

def _coin(x):
    """A pseudo-random sign for each float, fixed by its low bits."""
    bits = np.asarray(x, dtype=float).view(np.uint64)
    return np.where((bits ^ (bits >> np.uint64(1)) ^ (bits >> np.uint64(3))) & np.uint64(1),
                    -1.0, 1.0)


def _bracket_case(a, width, where, frac, slope, bend):
    """One bracket [a, b] and a signal through its root r.

    where picks the root: an endpoint (the signal is exactly zero there),
    the first midpoint the bisection visits (exactly zero there too), or
    an arbitrary interior point, where the signal is monotone ("inside"),
    has two more roots in the bracket ("multi"), or has a pseudo-random
    sign within a thousandth of the bracket of r ("noisy").
    """
    b = a + width
    if where == "noisy":
        frac = 0.25 + 0.5 * frac  # the endpoints stay clear of the noise
    r = {"a": a, "b": b, "mid": a + 0.5 * (b - a)}.get(where, a + frac * (b - a))

    def g(x):
        d = x - r
        if where == "multi":
            # roots at r and a third of the bracket either side, wrapped into it
            d = d * (x - (a + (frac + 1.0 / 3.0) % 1.0 * width)) * (
                x - (a + (frac + 2.0 / 3.0) % 1.0 * width))
        elif where == "noisy":
            d = np.where(np.abs(d) < 1e-3 * width, _coin(x) * 1e-30, d)
        return slope * d * (1.0 + bend * d * d)

    return a, b, g


bracket_cases = st.lists(
    st.tuples(
        st.floats(-100.0, 100.0),
        st.floats(1e-6, 10.0),
        st.sampled_from(["a", "b", "mid", "inside", "multi", "noisy"]),
        st.floats(0.0, 1.0),
        st.sampled_from([-3.0, -1.0, 0.5, 2.0]),
        st.floats(0.0, 2.0),
    ),
    min_size=1,
    max_size=8,
)


def _bisect(hook, a, b, **kwargs):
    """loci.bisect with the endpoint values a scan would hold: the hook's own there."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    every = np.arange(a.size)
    return loci.bisect(hook, a, b, hook(a, every), hook(b, every), **kwargs)


class TestBisect:
    @settings(max_examples=200, deadline=None)
    @given(cases=bracket_cases, xtol=st.sampled_from([1e-12, 1e-9, 1e-4]))
    # a root at 1.1e-314: products of the endpoint and midpoint signals
    # underflow to zero, so only a sign comparison keeps scipy's steps
    @example(cases=[(0.0, 1e-06, "inside", 1.1125369292536007e-308, -3.0, 0.0)], xtol=1e-12)
    def test_matches_scipy_bit_for_bit(self, cases, xtol):
        brackets = [_bracket_case(*c) for c in cases]
        a = np.array([br[0] for br in brackets])
        b = np.array([br[1] for br in brackets])

        signals = [g for _, _, g in brackets]

        # bracket j reads its own signal
        def hook(x, live):
            return np.array([g(x) for g in signals])[live, np.arange(x.size)]

        got = _bisect(hook, a, b, xtol=xtol)
        want = np.array([scipy.optimize.bisect(g, lo, hi, xtol=xtol)
                         for lo, hi, g in brackets])
        assert got.tobytes() == want.tobytes()

    def test_predicted_paths_take_one_call(self):
        calls = []

        a, b, rows = [0.0, 0.0, 0.5], [0.5, 1.0, 1.0], [0, 1, 1]
        root = np.array([0.3, 0.7])[rows]

        def hook(x, live):
            calls.append(np.size(x))
            return x - root[live]

        roots = loci.bisect(hook, a, b, a - root, b - root, xtol=1e-6)
        runs = [scipy.optimize.bisect(lambda x, r=r: x - (0.3, 0.7)[r], lo, hi,
                                      xtol=1e-6, full_output=True)
                for lo, hi, r in zip(a, b, rows)]
        assert roots.tobytes() == np.array([root for root, _ in runs]).tobytes()
        steps = [info.iterations for _, info in runs]
        assert steps == [19, 20, 19]
        # the caller holds the endpoint values, so the predictor's calls on
        # the three brackets come first, then every midpoint scipy visits in
        # one call
        assert calls == [3] * loci._PREDICT_CALLS + [sum(steps)]

    def test_mispredicted_path_is_walked_again(self):
        # the predictor's estimate misses a step's jump, so each predicted
        # path leaves scipy's after a few midpoints; every call re-walks the
        # rest from where it left, and still takes at least one decision
        calls = []

        def hook(x, live):
            calls.append(np.size(x))
            return np.where(x < 0.3, -1.0, 1.0)

        got = loci.bisect(hook, [0.0], [1.0], [-1.0], [1.0])
        want = scipy.optimize.bisect(lambda x: np.where(x < 0.3, -1.0, 1.0), 0.0, 1.0,
                                     xtol=1e-12)
        assert got.tobytes() == np.array([want]).tobytes()
        assert len(calls) <= 30

    @pytest.mark.parametrize("case", ["three_roots", "step", "noisy_root", "first_midpoint",
                                      "endpoint_root", "subnormal_root", "noisy_zero"])
    @pytest.mark.parametrize("xtol", [1e-12, 1e-300])
    def test_adversarial_brackets_match_scipy(self, case, xtol):
        lo, hi, g = {
            "three_roots": (0.0, 1.0, lambda x: (x - 0.2) * (x - 0.45) * (x - 0.8)),
            "step": (-1.0, 2.0, lambda x: np.where(x > 0.3, 1.0, -1.0)),
            # the sign is pseudo-random within 1e-15 of the root
            "noisy_root": (0.0, 1.0, lambda x: np.where(np.abs(x - 0.6) < 1e-15,
                                                        _coin(x), x - 0.6)),
            "first_midpoint": (0.0, 1.0, lambda x: x - 0.5),
            "endpoint_root": (0.3, 1.0, lambda x: x - 0.3),
            "subnormal_root": (0.0, 1e-6, lambda x: -3.0 * (x - 1.1125369292536007e-314)),
            # noise near a root at 0, where the relative stop term vanishes:
            # paths re-walked after each miss must still stop at 100 halvings
            "noisy_zero": (-1.0, 2.0, lambda x: np.where(np.abs(x) < 1e-20, _coin(x), x)),
        }[case]
        try:
            want = scipy.optimize.bisect(g, lo, hi, xtol=xtol)
        except RuntimeError:  # no convergence in 100 halvings, as for the subnormal root
            with pytest.raises(NumericalError):
                _bisect(lambda x, live: g(x), [lo, lo], [hi, hi], xtol=xtol)
            return
        got = _bisect(lambda x, live: g(x), [lo, lo], [hi, hi], xtol=xtol)
        assert got.tobytes() == np.array([want, want]).tobytes()

    def test_nan_off_the_visited_path_is_ignored(self):
        # NaN everywhere but at the endpoints and the midpoints scipy visits,
        # so every point the predictor tries is NaN
        visited = set()

        def g(x):
            visited.add(float(x))
            return x - 0.3

        want = scipy.optimize.bisect(g, 0.0, 1.0, xtol=1e-9)

        def hook(x, live):
            return np.where(np.isin(x, list(visited)), x - 0.3, np.nan)

        got = _bisect(hook, [0.0], [1.0], xtol=1e-9)
        assert got.tobytes() == np.array([want]).tobytes()

    def test_nan_on_the_visited_path_raises(self):
        # the sixth midpoint scipy visits for the root 0.3 of [0, 1]
        x6 = 0.296875
        with pytest.raises(NumericalError):
            _bisect(lambda x, live: np.where(x == x6, np.nan, x - 0.3), [0.0], [1.0])

    def test_per_bracket_hook(self):
        # the hook gets the live brackets and returns one value each
        signals = [lambda x: x - 0.3, lambda x: np.exp(x) - 2.0, lambda x: 0.7 - x]
        seen = []

        def hook(x, live):
            seen.append(live.tolist())
            return np.array([signals[j](v) for j, v in zip(live.tolist(), x.tolist())])

        a, b = [0.0, 0.0, 0.5], [0.5, 1.0, 1.0]
        got = loci.bisect(hook, a, b, [g(v) for g, v in zip(signals, a)],
                          [g(v) for g, v in zip(signals, b)], xtol=1e-9)
        want = [scipy.optimize.bisect(g, lo, hi, xtol=1e-9) for g, lo, hi in zip(signals, a, b)]
        assert got.tolist() == want
        assert seen[0] == [0, 1, 2]
        assert all(set(later) <= set(earlier) for earlier, later in zip(seen, seen[1:]))

        with pytest.raises(NumericalError):
            _bisect(lambda x, live: x * x + 1.0, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(NumericalError):
            _bisect(lambda x, live: np.where(live == 1, np.nan, x - 0.5),
                    [0.0, 0.0], [1.0, 1.0])

    def test_rejects_bracket_without_sign_change(self):
        with pytest.raises(NumericalError):
            _bisect(lambda x, live: x * x + 1.0, [0.0], [1.0])

    def test_rejects_nan_signal(self):
        with pytest.raises(NumericalError):
            _bisect(lambda x, live: np.where(x > 0.4, np.nan, x - 0.5), [0.0], [1.0])

    def test_reports_non_convergence(self):
        # the midpoints of [-1, 2] never land on 0, and xtol is below reach
        with pytest.raises(NumericalError):
            _bisect(lambda x, live: x, [-1.0], [2.0], xtol=1e-300)
        # also next to a bracket that converges
        with pytest.raises(NumericalError):
            _bisect(lambda x, live: x, [-1.0, 0.5], [2.0, -2.0], xtol=1e-300)

    def test_halvings_off_the_predicted_path_count_toward_the_limit(self):
        # at this xtol [-1, 2] stops at its 101st halving, one past the limit
        xtol = 0.75 * 3.0 * 2.0 ** -100
        visited = set()

        def g(x):
            visited.add(float(x))
            return x

        scipy.optimize.bisect(g, -1.0, 2.0, xtol=xtol, maxiter=101)
        with pytest.raises(RuntimeError):
            scipy.optimize.bisect(g, -1.0, 2.0, xtol=xtol)
        # NaN off scipy's path leaves the predictor no estimate, so every
        # predicted path is wrong in one direction and each call decides few steps
        with pytest.raises(NumericalError, match="converge"):
            _bisect(lambda x, live: np.where(np.isin(x, list(visited)), x, np.nan),
                    [-1.0], [2.0], xtol=xtol)


def _reference_roots(t, vals, fn=None, xtol=1e-12, transversal_only=False):
    """The per-sample scan with scalar scipy bisection that the lock-step scan replaced."""
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
    lo, hi = 0, n
    head = next((i for i in range(n) if float(vals[i]) != 0.0), n)
    tail = next((i for i in range(n) if float(vals[n - 1 - i]) != 0.0), n)
    if 0 < head < n and tail > 0 and head + tail > 2:
        # one zero run through the seam, t[-1] being t[0] one period later;
        # a lone zero at the seam sample is listed at both ends instead
        first, last = n - tail, head - 1 + core_n
        if not transversal_only or (
                neighbor_sign(first % core_n, -1) * neighbor_sign(last % core_n, +1) < 0.0):
            roots.append(float(t[(first + last) // 2 % core_n]))
        lo, hi = head, n - tail
    i = lo
    while i < hi:
        if float(vals[i]) == 0.0:
            j = i
            while j + 1 < hi and float(vals[j + 1]) == 0.0:
                j += 1
            keep = True
            if transversal_only:
                keep = neighbor_sign(i % core_n, -1) * neighbor_sign(j % core_n, +1) < 0.0
            if keep:
                roots.append(float(t[(i + j) // 2]))
            i = j + 1
            continue
        if i + 1 < hi and float(vals[i]) * float(vals[i + 1]) < 0.0:
            if fn is not None:
                roots.append(float(scipy.optimize.bisect(
                    fn, float(t[i]), float(t[i + 1]), xtol=xtol)))
            else:
                a, b = float(vals[i]), float(vals[i + 1])
                roots.append(float(t[i]) - a * (float(t[i + 1]) - float(t[i])) / (b - a))
        i += 1
    return loci._dedupe(roots, max(10.0 * xtol, 1e-12))


def _chain_roots(t, vals, hook=None, transversal_only=False):
    """Roots of each row of vals, found the way refine_chain finds them.

    _scan brackets the sign changes, _interpolated places a root in each,
    bisect refines them all in one call from the samples at their ends
    when a hook is given (row r of hook(x) is row r's signal), and
    _signal_roots adds the zero runs.
    """
    t = np.asarray(t, dtype=float)
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    rows, left = loci._scan(vals)
    crossings = loci._interpolated(t, vals, rows, left)
    if hook is not None and rows.size:
        crossings = loci.bisect(
            lambda x, live: np.asarray(hook(x))[rows[live], np.arange(x.size)],
            t[left], t[left + 1], vals[rows, left], vals[rows, left + 1])
    return [loci._signal_roots(t, row, crossings[rows == r], 1e-12, transversal_only)
            for r, row in enumerate(vals)]


T65 = np.linspace(0.0, 2.0 * np.pi, 65)


def _seam_run():
    # exact zeros at both ends of the period: one run split by the seam
    v = np.sin(T65)
    v[:2] = 0.0
    v[-2:] = 0.0
    return v


def _seam_zero():
    # one exact zero at the seam sample, at both ends of the period
    v = np.sin(T65)
    v[0] = v[-1] = 0.0
    return v


def _seam_run_late():
    # a seam run reaching further before the seam than after it
    v = np.sin(T65)
    v[:1] = 0.0
    v[-4:] = 0.0
    return v


def _double_zero():
    # touches zero at one sample without changing sign
    v = (T65 - T65[20]) ** 2 * np.cos(T65)
    v[20] = 0.0
    return v


SIGNALS = {
    "seam_run": _seam_run(),
    "seam_zero": _seam_zero(),
    "seam_run_late": _seam_run_late(),
    "double_zero": _double_zero(),
    "all_zero": np.zeros_like(T65),
    "sign_changes": np.sin(3.0 * T65 + 0.1),
}


class TestScan:
    def test_brackets_whose_sample_product_underflows(self):
        # 1e-170 * -1e-170 underflows to -0.0, which is not below zero
        rows, left = loci._scan(np.array([[1e-170, -1e-170, 1.0]]))
        assert rows.tolist() == [0, 0] and left.tolist() == [0, 1]

    def test_zero_and_nan_samples_start_no_bracket(self):
        vals = np.array([[1.0, 0.0, -1.0, np.nan, 1.0, -0.0, 2.0, -np.inf]])
        rows, left = loci._scan(vals)
        assert rows.tolist() == [0] and left.tolist() == [6]


class TestRefinedRoots:
    @pytest.mark.parametrize("transversal_only", [False, True])
    @pytest.mark.parametrize("name", sorted(SIGNALS))
    def test_interpolation_matches_reference_scan(self, name, transversal_only):
        vals = SIGNALS[name]
        (got,) = _chain_roots(T65, vals, transversal_only=transversal_only)
        assert got == _reference_roots(T65, vals, transversal_only=transversal_only)

    def test_seam_run_and_double_zero_semantics(self):
        # a run split by the seam counts once, at its middle modulo the period;
        # a lone zero at the seam sample stays listed at both ends; the double
        # zero is dropped
        (seam,) = _chain_roots(T65, SIGNALS["seam_run"], transversal_only=True)
        assert T65[0] in seam
        assert T65[1] not in seam and T65[63] not in seam and T65[64] not in seam
        (late,) = _chain_roots(T65, SIGNALS["seam_run_late"], transversal_only=True)
        assert T65[62] in late and T65[0] not in late and T65[64] not in late
        (lone,) = _chain_roots(T65, SIGNALS["seam_zero"], transversal_only=True)
        assert T65[0] in lone and T65[64] in lone
        (double,) = _chain_roots(T65, SIGNALS["double_zero"], transversal_only=True)
        assert T65[20] not in double
        (kept,) = _chain_roots(T65, SIGNALS["double_zero"])
        assert T65[20] in kept
        assert _chain_roots(T65, SIGNALS["all_zero"], transversal_only=True) == [[]]
        assert _chain_roots(T65, SIGNALS["all_zero"]) == [[T65[32]]]

    @pytest.mark.parametrize("transversal_only", [False, True])
    def test_two_rows_refined_together_match_scalar_scans(self, transversal_only):
        def hook(x):
            return np.sin(3.0 * x + 0.1), (x - T65[20]) ** 2 * np.cos(x) - 0.05

        vals = np.array(hook(T65))
        vals[0, 40] = 0.0  # an exact zero sample among the sign changes
        got = _chain_roots(T65, vals, hook, transversal_only=transversal_only)
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
        (got,) = _chain_roots(t, samples, transversal_only=transversal_only)
        assert got == _reference_roots(t, samples, transversal_only=transversal_only)
