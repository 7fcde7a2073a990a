import dataclasses
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memelements import (
    ConfigError,
    DomainError,
    Excitation,
    LogisticCurve,
    NumericalError,
    ParametricLocus,
    PiecewiseLinearCurve,
    PolynomialCurve,
    SampleGrid,
    TanhScaledCurve,
    TwoBranchCurve,
    classify,
    excite,
    grid,
    PhaseClass,
    PointKind,
    Valuedness,
    analytic_locus,
    negative_slope_arcs,
    numeric_transform,
    odd_symmetry,
    origin_crossing,
    phase_shift,
    point_at,
    valuedness,
    vertical_tangent_points,
    zero_tangent_points,
)
from memelements import loci, transform
import oracles


@pytest.fixture
def cubic_loop(cubic, drive):
    return analytic_locus(cubic, drive, 1)


@pytest.fixture
def tanh_loop(tanh_curve, drive):
    return analytic_locus(tanh_curve, drive, 1)


def _as_chain(chain):
    """The planes of a chain refined whole: each locus with the next one as its rates,
    and the last one alone, for its abscissa."""
    return [*zip(chain, chain[1:]), tuple(chain[-1:])]


class TestPointAt:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_times(self, cubic, drive, value):
        # on a jet and on finite differences alike: NaN and inf once gave (nan, nan)
        # quietly, and np.interp clamped inf to the period's end
        jet = analytic_locus(cubic, drive, 1, grid(drive, 256))
        for locus in (jet, numeric_transform(analytic_locus(cubic, drive, 0, grid(drive, 256)))):
            with pytest.raises(DomainError, match=f"times must be finite, got {value!r}"):
                point_at(locus, value)
            with pytest.raises(DomainError, match=f"got {value!r}"):
                point_at(locus, np.array([0.5, value]))

    def test_finite_differences_are_interpolated(self, cubic, drive):
        # a locus without a jet is read by linear interpolation in its samples
        locus = numeric_transform(analytic_locus(cubic, drive, 0, grid(drive, 256)))
        assert locus.jet is None
        t = np.array([0.0, 0.3, 1.7, 0.5 * locus.period, locus.period])
        u, w = point_at(locus, t)
        assert u.dtype == w.dtype == np.float64
        assert np.array_equal(u, np.interp(t, locus.t_values, locus.u_values))
        assert np.array_equal(w, np.interp(t, locus.t_values, locus.w_values))
        got = point_at(locus, 1.7)
        assert type(got[0]) is type(got[1]) is float
        assert got == (u[2], w[2])


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


def _mirror(n, depth):
    """Each sample's valuedness pair on a grid of n intervals, by index."""
    return np.mod((n // 2 if depth % 2 else n) - np.arange(n + 1), n)


def _pair_times(locus):
    T = locus.period
    return np.mod((0.5 * T if locus.depth % 2 else T) - locus.t_values, T)


# |max_pair_gap - the gap at the exact pair times| on a jet locus: the
# mirror sample's time is the pair time up to the rounding of the grid
# times, and the two ordinates round differently (measured: under
# 300 eps max(1, max |w|) per sample, tanh b up to 20 at depth 4)
GAP_BOUND = 1e-12


class TestValuednessPairs:
    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("numeric", [False, True])
    def test_even_grid_pairs_each_sample_with_its_mirror(self, tanh_curve, loop_curve,
                                                         drive, n, numeric):
        for curve, cell in ((tanh_curve, (-3, -3)), (loop_curve, (-2, -2))):
            rpt = classify(cell, curve, drive, grid_n=n, numeric_chain=numeric)
            for plane, locus in zip(rpt.planes, rpt.loci, strict=True):
                w = locus.w_values
                assert plane.max_pair_gap == float(np.max(np.abs(w - w[_mirror(n, locus.depth)])))
                assert valuedness(locus).max_gap == plane.max_pair_gap

    @pytest.mark.parametrize("n", [257, 4095])
    def test_odd_grid_evaluates_odd_depth_pairs(self, tanh_curve, loop_curve, drive, n):
        # an odd n has no mirror sample at odd depth, so those pairs are read
        # off the jet at the pair times; even-depth pairs still are mirrors
        for curve, cell in ((tanh_curve, (-3, -3)), (loop_curve, (-2, -2))):
            rpt = classify(cell, curve, drive, grid_n=n)
            for plane, locus in zip(rpt.planes, rpt.loci, strict=True):
                w = locus.w_values
                if locus.depth % 2:
                    w_pair = point_at(locus, _pair_times(locus))[1]
                else:
                    w_pair = w[_mirror(n, locus.depth)]
                assert plane.max_pair_gap == float(np.max(np.abs(w - w_pair)))

    def test_a_locus_with_one_extra_sample_is_rejected(self, drive):
        # a caller's locus on times that are not the grid linspace makes has
        # no mirrors; it used to read every pair through point_at, and is
        # now refused where it is built, naming the first sample off the grid
        # i*T/257 its 258 times would stand for
        t = np.sort(np.append(np.linspace(0.0, drive.period, 257), 1.0 + 2.0 ** -20))
        with pytest.raises(DomainError, match=rf"t\[1\] = {float(t[1])!r} is off the grid"):
            ParametricLocus(t, np.sin(t), np.cos(t) + 0.1 * np.cos(3.0 * t), 0)

    def test_a_drifting_grid_is_rejected(self, drive):
        # steps 0.9e-9 apart passed SampleGrid's old check on the steps, yet
        # they put a mirror sample 2.3e-10 T off its pair time: read by
        # index, its gap (1e-8) would call the cubic's single-valued depth-2
        # locus double-valued; the grid is now refused
        n = 4096
        steps = 1.0 + 0.45e-9 * np.sign(np.arange(n) - n / 4 + 0.5)
        t = np.append(0.0, np.cumsum(steps)) / steps.sum() * drive.period
        with pytest.raises(ConfigError, match="uniform.* is off the grid"):
            SampleGrid(t_values=t)

    def test_tied_gaps_rank_in_time_order(self):
        # w[i] - w[mirror i] is minus w[mirror i] - w[i], so every gap ties
        # with its mirror's, bit for bit; the earlier sample ranks first
        n = 256
        t = np.linspace(0.0, 2.0 * np.pi, n + 1)
        locus = ParametricLocus(t, np.cos(t), np.sin(t) + 0.25 * np.sin(3.0 * t), 0)
        report = valuedness(locus)
        gap = np.abs(locus.w_values - locus.w_values[_mirror(n, 0)])
        above = [i for i in range(n + 1) if gap[i] > 1e-9 * max(1.0, np.abs(locus.w_values).max())]
        expect = []
        for i in sorted(above, key=lambda i: (-gap[i], i)):
            if all(abs(t[i] - t[k]) >= locus.period / 64.0 for k in expect):
                expect.append(i)
        assert [w.t for w in report.witnesses] == [float(t[i]) for i in expect[:4]]
        first, second = report.witnesses[:2]
        assert first.gap == second.gap and first.t < second.t
        assert (first.t_pair, second.t_pair) == (second.t, first.t)

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["cubic", "tanh"]),
        shape=st.tuples(st.floats(0.5, 2.0), st.floats(-0.9, 0.9), st.floats(0.01, 1.0)),
        amplitude=st.floats(0.3, 1.0),
        omega=st.floats(0.5, 3.0),
        n=st.integers(128, 8192).map(lambda k: 2 * k),
        depth=st.integers(0, 4),
    )
    def test_mirror_pairs_agree_with_the_jet_at_the_pair_times(
            self, family, shape, amplitude, omega, n, depth):
        a, bend, c = shape
        if family == "cubic":
            # monotone: b^2 < 3ac
            curve = PolynomialCurve(coefficients=(0.0, a, bend * np.sqrt(3.0 * a * c), c))
        else:
            curve = TanhScaledCurve(a=a, b=10.0 * c)
        exc = Excitation(amplitude=amplitude, omega=omega)
        locus = analytic_locus(curve, exc, depth, grid(exc, n))
        report = valuedness(locus)
        oracle = np.abs(locus.w_values - point_at(locus, _pair_times(locus))[1])
        scale = max(1.0, float(np.abs(locus.w_values).max()))
        assert abs(report.max_gap - float(oracle.max())) <= GAP_BOUND * scale
        # the kinds agree wherever the oracle's gap is clear of the threshold
        if abs(float(oracle.max()) - 1e-9 * scale) > GAP_BOUND * scale:
            oracle_kind = Valuedness.DOUBLE if oracle.max() > 1e-9 * scale else Valuedness.SINGLE
            assert report.kind is oracle_kind


class TestGridContract:
    """Every locus lies on the grid i*T/n, so mirrors and spacings are read by index."""

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(["cubic", "tanh", "loop"]),
        depth=st.integers(0, 3),
        n=st.sampled_from([64, 257, 4095, 4096]),
        amplitude=st.floats(0.3, 1.0),
        omega=st.floats(0.5, 3.0),
    )
    def test_a_caller_locus_reads_like_the_package_locus(self, name, depth, n, amplitude, omega):
        # the same arrays and jet, checked on the way in, give the same
        # reports bit for bit (repr round-trips every float and its sign)
        cubic = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0))
        curve = {"cubic": cubic, "tanh": TanhScaledCurve(a=1.0, b=1.0),
                 "loop": TwoBranchCurve(outgoing=cubic,
                                        returning=PolynomialCurve((0.0, 4.0 / 3.0, 0.5)))}[name]
        exc = Excitation(amplitude=amplitude, omega=omega)
        made = analytic_locus(curve, exc, depth, grid(exc, n))
        caller = ParametricLocus(made.t_values, made.u_values, made.w_values, depth,
                                 jet=(curve, exc))
        for analysis in (valuedness, odd_symmetry, origin_crossing):
            assert repr(analysis(caller)) == repr(analysis(made))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.sampled_from([64, 257, 1024, 4096]),
        omega=st.floats(0.5, 3.0),
    )
    def test_samples_moved_within_the_contract_keep_the_cubic_geometry(self, seed, n, omega):
        # each interior sample moved by up to 2 eps T stays on the grid
        # (linspace's 1 eps plus 2), and the cubic's depth-1 and depth-2
        # loci keep their valuedness and odd symmetry
        cubic = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0))
        exc = Excitation(omega=omega)
        made = grid(exc, n)
        t = made.t_values.copy()
        t[1:-1] += np.random.default_rng(seed).uniform(-2.0, 2.0, n - 1) * (
            np.finfo(float).eps * t[-1])
        moved = SampleGrid(t_values=t)
        for depth in (1, 2):
            want, got = (analytic_locus(cubic, exc, depth, g) for g in (made, moved))
            assert valuedness(got).kind is valuedness(want).kind
            assert odd_symmetry(got).odd_symmetric == odd_symmetry(want).odd_symmetric


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
        # a lone locus takes its scales from reductions of its samples, in
        # odd_symmetry and valuedness alike; refined or not, the reports are the same
        for analysis in (odd_symmetry, valuedness):
            locus = analytic_locus(cubic, drive, 1)
            monkeypatch.setattr(loci, "refine_planes", lambda *a, **k: pytest.fail("refined"))
            report = analysis(locus)
            assert "_roots" not in vars(locus)
            monkeypatch.undo()
            loci.refine_planes(_as_chain((locus,)))
            assert analysis(locus) == report


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

    @pytest.mark.parametrize("name", ["cubic", "tanh_curve"])
    def test_report_holds_the_refined_depth_1_locus(self, name, drive, request):
        # its even samples are the default grid's depth-1 locus, and its
        # landmark table holds the locus at the peaks, bit for bit
        curve = request.getfixturevalue(name)
        report = phase_shift(curve, drive)
        locus = analytic_locus(curve, drive, 1)
        assert report.locus.depth == 1 and report.locus.t_values.size == 8193
        for got, want in zip((report.locus.t_values, report.locus.u_values,
                              report.locus.w_values),
                             (locus.t_values, locus.u_values, locus.w_values)):
            assert np.array_equal(got[::2], want)
        at = loci._plane_roots(report.locus).at
        assert at[report.t_peak_ordinate][1] == point_at(locus, report.t_peak_ordinate)[1]
        assert at[report.t_peak_abscissa][0] == point_at(locus, report.t_peak_abscissa)[0]
        assert "locus" not in repr(report)

    def test_reads_one_grid_jet_and_no_probe(self, tanh_curve, drive, monkeypatch):
        events = []
        jet, bisect, signals = transform._jet, loci.bisect, loci.jet_signals

        def recording_jet(curve, exc, t, *args, **kwargs):
            events.append(("jet", np.size(t)))
            return jet(curve, exc, t, *args, **kwargs)

        def recording_bisect(*args, **kwargs):
            roots = bisect(*args, **kwargs)
            events.append(("bisect", None))
            return roots

        def recording_signals(*args):
            events.append(("signals", None))
            return signals(*args)

        monkeypatch.setattr(transform, "_jet", recording_jet)
        monkeypatch.setattr(loci, "_jet", recording_jet)
        monkeypatch.setattr(loci, "bisect", recording_bisect)
        monkeypatch.setattr(loci, "jet_signals", recording_signals)
        rpt = phase_shift(tanh_curve, drive)
        monkeypatch.undo()
        assert events.count(("jet", 8193)) == 1
        assert events.count(("bisect", None)) == 1
        # the peaks are among the roots refine_planes finds on the same grid
        roots = loci._plane_roots(analytic_locus(tanh_curve, drive, 1, grid(drive, 8192)))
        # after the bisection, the landmark values are one jet block, at the
        # depth-1 locus's roots and slope-span midpoints alone (the depth-2
        # locus only holds its rates, so its abscissa roots are not refined),
        # and no jet_signals call
        after = events[events.index(("bisect", None)) + 1:]
        times = roots.abscissa + roots.du + roots.dw + [0.5 * (a + b) for a, b in roots.spans]
        assert after == [("jet", len(times))]
        assert rpt.t_peak_ordinate in roots.dw
        assert rpt.t_peak_abscissa in roots.du

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["cubic", "quintic", "tanh", "loop"]),
        shape=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
        tanh_b=st.floats(0.5, 8.0),
        amplitude=st.floats(0.05, 1.0),
        offset=st.floats(0.0, 1.0),
        omega=st.floats(0.05, 13.0),
    )
    def test_span_signs_pick_the_peak_rate_probes_pick(
            self, family, shape, tanh_b, amplitude, offset, omega):
        c1, c2, c3, c4, c5 = shape
        slope = 1.0 + 0.5 * c1
        if family == "cubic":
            curve = PolynomialCurve(coefficients=(0.0, slope, c2, c3))
        elif family == "quintic":
            curve = PolynomialCurve(coefficients=(0.0, slope, c2, c3, c4, 0.2 * c5))
        elif family == "tanh":
            curve = TanhScaledCurve(a=slope, b=tanh_b)
        else:
            # the returning branch leaves the outgoing one by k x (2 - x),
            # so the two meet at both ends of the range (0, 2)
            outgoing = (0.0, slope, c2, 0.3 + 0.2 * c3)
            k = 0.1 + 0.9 * abs(c4)
            curve = TwoBranchCurve(
                outgoing=PolynomialCurve(coefficients=outgoing),
                returning=PolynomialCurve(coefficients=(
                    0.0, outgoing[1] + 2.0 * k, outgoing[2] - k, outgoing[3])))
        lo, hi = curve.operating_range
        a = amplitude * 0.5 * (hi - lo)
        exc = Excitation(amplitude=a, omega=omega, offset=lo + a + offset * (hi - lo - 2.0 * a))
        roots = loci._plane_roots(analytic_locus(curve, exc, 1, grid(exc, 8192)))
        expect = (_probed_peak(curve, exc, roots.dw, 1), _probed_peak(curve, exc, roots.du, 0))
        if None in expect:
            with pytest.raises(NumericalError):
                phase_shift(curve, exc)
        else:
            rpt = phase_shift(curve, exc)
            assert (rpt.t_peak_ordinate, rpt.t_peak_abscissa) == expect


def _probed_peak(curve, exc, roots, component):
    """First root in (0, T/2) where the depth-1 rate is positive just before and
    negative just after, probed min(1e-7 T, h/4) either side on the 8192 grid."""
    t = grid(exc, 8192).t_values
    period, spacing = float(t[-1] - t[0]), float(t[1] - t[0])
    half = 0.5 * period
    probe = min(1e-7 * period, 0.25 * spacing)
    for r in roots:
        if 0.0 < r < half:
            at = np.array([max(r - probe, 0.0), min(r + probe, half)])
            before, after = (transform.jet_signals(curve, exc, at, np.full(2, 2)) if component
                             else excite(exc, at, 2))
            if before > 0.0 > after:
                return r
    return None


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


# guesses of every kind, for bisect's guess argument
guessed_cases = dict(
    cases=bracket_cases,
    kinds=st.lists(st.sampled_from(["nan", "inf", "-inf", "outside", "a", "b", "visited",
                                    "interior"]), min_size=8, max_size=8),
    picks=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    xtol=st.sampled_from([1e-12, 1e-9, 1e-4, 1e-300]),
    nan_at=st.none() | st.floats(0.0, 1.0),
)


def _guessed(cases, kinds, picks, xtol, nan_at):
    """Brackets, a hook, a guess of each kind for each, and scipy's roots.

    nan_at, when set, makes the first bracket's signal NaN at one
    midpoint scipy visits, which bisect refuses.  A root is None where
    scipy does not converge or the signal is NaN on its path.
    """
    signals, guesses, want = [], [], []
    for case, kind, pick in zip(cases, kinds, picks):
        lo, hi, g = _bracket_case(*case)
        visited = []

        def record(x, g=g):
            visited.append(x)
            return g(x)

        try:
            want.append(scipy.optimize.bisect(record, lo, hi, xtol=xtol))
        except RuntimeError:  # no convergence in 100 halvings
            want.append(None)
        mids = visited[2:] or [lo]  # after the endpoints; none when one is a root
        if nan_at is not None and not signals and len(visited) > 2:
            bad = mids[int(nan_at * (len(mids) - 1))]
            g = lambda x, g=g, bad=bad: np.where(x == bad, np.nan, g(x))
            want[-1] = None
        signals.append(g)
        guesses.append({
            "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
            "outside": lo - (1.0 + pick) * (hi - lo) if pick < 0.5 else hi + pick,
            "a": lo, "b": hi, "visited": mids[int(pick * (len(mids) - 1))],
            "interior": lo + pick * (hi - lo),
        }[kind])
    a = np.array([case[0] for case in cases])
    b = a + np.array([case[1] for case in cases])

    def hook(x, live):
        return np.array([g(x) for g in signals])[live, np.arange(x.size)]

    return a, b, hook, guesses, want


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
        # the caller holds the endpoint values, and the secant root of a
        # linear hook is its root, so every midpoint scipy visits is in one call
        assert calls == [sum(steps)]

    def test_mispredicted_path_is_walked_again(self):
        # a secant root of a step is its bracket's midpoint, so each path
        # leaves scipy's after a few midpoints; every call walks on from
        # where it left, re-aimed, and still takes at least one decision
        # (22 calls on 413 points when each call kept the first estimate)
        calls = []

        def hook(x, live):
            calls.append(np.size(x))
            return np.where(x < 0.3, -1.0, 1.0)

        got = loci.bisect(hook, [0.0], [1.0], [-1.0], [1.0])
        want = scipy.optimize.bisect(lambda x: np.where(x < 0.3, -1.0, 1.0), 0.0, 1.0,
                                     xtol=1e-12)
        assert got.tobytes() == np.array([want]).tobytes()
        assert len(calls) <= 11
        assert sum(calls) <= 230

    @settings(max_examples=200, deadline=None)
    @given(**guessed_cases)
    # a root at 0, where the relative stop term vanishes: no convergence at xtol 1e-300
    @example(cases=[(-1.0, 3.0, "inside", 1.0 / 3.0, 1.0, 0.0)], kinds=["interior"] * 8,
             picks=[0.5] * 8, xtol=1e-300, nan_at=None)
    def test_any_guess_gives_scipys_root(self, cases, kinds, picks, xtol, nan_at):
        """Whatever the guess, each root is scipy's bit for bit, and the errors are the same."""
        a, b, hook, guesses, want = _guessed(cases, kinds, picks, xtol, nan_at)
        every = np.arange(a.size)
        run = lambda: loci.bisect(hook, a, b, hook(a, every), hook(b, every), xtol=xtol,
                                  guess=guesses)
        if None in want:
            with pytest.raises(NumericalError):
                run()
        else:
            assert run().tobytes() == np.array(want).tobytes()

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
        # the first call carries each bracket's whole path
        assert set(seen[0]) == {0, 1, 2}
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

    def test_a_zero_at_the_last_halving_is_the_root(self):
        # scipy reads fm == 0 before it gives up: the 100th midpoint of
        # [-1, 2] for the signal x is m, so a signal zero there has root m,
        # and one zero nowhere scipy visits does not converge
        m = -7.888609052210118e-31
        visited = []
        with pytest.raises(RuntimeError):
            scipy.optimize.bisect(lambda x: visited.append(x) or x, -1.0, 2.0, xtol=1e-300)
        assert visited[2:][99:] == [m]
        assert scipy.optimize.bisect(lambda x: x - m, -1.0, 2.0, xtol=1e-300) == m
        got = _bisect(lambda x, live: x - m, [-1.0], [2.0], xtol=1e-300)
        assert got.tobytes() == np.array([m]).tobytes()
        with pytest.raises(RuntimeError):
            scipy.optimize.bisect(lambda x: x - 1.5 * m, -1.0, 2.0, xtol=1e-300)
        with pytest.raises(NumericalError, match="did not converge in 100 steps"):
            _bisect(lambda x, live: x - 1.5 * m, [-1.0], [2.0], xtol=1e-300)

    @pytest.mark.parametrize("ulps", [23, 41])
    def test_subnormal_widths_round_at_every_halving(self, ulps):
        # each halving of a subnormal width rounds, so a bracket walked on
        # after a wrong prediction keeps the width those roundings left,
        # which one multiply by a power of two does not always give
        tiny = 5e-324
        hi = ulps * tiny
        for step in range(1, ulps):
            g = lambda x, r=(step + 0.5) * tiny: np.where(x < r, -1.0, 1.0)
            want = scipy.optimize.bisect(g, 0.0, hi, xtol=tiny)
            got = _bisect(lambda x, live: g(x), [0.0], [hi], xtol=tiny, guess=[0.9 * hi])
            assert got.tobytes() == np.array([want]).tobytes()


# ----------------------------------------------------------------------
# bisect and _path as they were while bisect's loop repeated _path's
# halvings, stop test and halving count at every midpoint, kept frozen:
# the one walk must call fn and end as the double walk did.
# ----------------------------------------------------------------------

def _frozen_path(a, dm, aim, steps, xtol):
    up = dm > 0.0
    path = []
    for _ in range(steps):
        dm *= 0.5
        xm = a + dm
        path.append(xm)
        if abs(dm) < xtol + loci._BISECT_RTOL * abs(xm):
            break
        if (xm < aim) == up:
            a = xm
    return path


def _frozen_bisect(fn, a, b, fa, fb, xtol=1e-12, guess=None):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fa = np.asarray(fa, dtype=float)
    fb = np.asarray(fb, dtype=float)
    if np.isnan(fa).any() or np.isnan(fb).any():
        raise NumericalError("root refinement hook returned NaN")
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    if np.any(np.signbit(fa[live]) == np.signbit(fb[live])):
        raise NumericalError("bisection bracket holds no sign change")
    root = np.where(fa == 0.0, a, b)
    guess = np.full(a.shape, np.nan) if guess is None else np.asarray(guess, dtype=float)
    todo = []
    for j, lo, hi, flo, fhi, g in zip(*(v.tolist() for v in (
            live, a[live], b[live], fa[live], fb[live], guess[live]))):
        aim = g if min(lo, hi) < g < max(lo, hi) else loci._secant(lo, flo, hi - lo, fhi)
        todo.append((j, lo, flo, hi - lo, fhi, aim, 0))
    while todo:
        paths = [_frozen_path(lo, dm, aim, loci._BISECT_MAXITER - spent, xtol)
                 for _, lo, _, dm, _, aim, spent in todo]
        fm = fn(np.array([xm for path in paths for xm in path]),
                np.repeat([j for j, *_ in todo], [len(path) for path in paths]))
        fm = np.asarray(fm, dtype=float).tolist()
        left, start = [], 0
        for (j, lo, flo, dm, fhi, aim, spent), path in zip(todo, paths):
            negative, up = flo < 0.0, dm > 0.0
            for xm, f in zip(path, fm[start:start + len(path)]):
                if f != f:
                    raise NumericalError("root refinement hook returned NaN")
                dm *= 0.5
                spent += 1
                if f == 0.0 or abs(dm) < xtol + loci._BISECT_RTOL * abs(xm):
                    root[j] = xm
                    break
                if spent == loci._BISECT_MAXITER:
                    raise NumericalError(
                        f"bisection did not converge in {loci._BISECT_MAXITER} steps")
                moved = (f < 0.0) == negative
                if moved:
                    lo, flo = xm, f
                else:
                    fhi = f
                if moved != ((xm < aim) == up):
                    left.append((j, lo, flo, dm, fhi, loci._secant(lo, flo, dm, fhi), spent))
                    break
            start += len(path)
        todo = left
    return root


def _walk(bisect, hook, a, b, **kwargs):
    """Every fn call bisect makes, as the bytes of its x and live, and its root bytes or error."""
    calls = []

    def recorded(x, live):
        calls.append((x.dtype.str, x.tobytes(), live.dtype.str, live.tobytes()))
        return hook(x, live)

    every = np.arange(a.size)
    try:
        return calls, bisect(recorded, a, b, hook(a, every), hook(b, every), **kwargs).tobytes()
    except NumericalError as err:
        return calls, str(err)


class TestOneWalk:
    """bisect reads each of _path's midpoints once, and calls fn as the double walk did."""

    @settings(max_examples=300, deadline=None)
    @given(**guessed_cases)
    @example(cases=[(-1.0, 3.0, "inside", 1.0 / 3.0, 1.0, 0.0)], kinds=["interior"] * 8,
             picks=[0.5] * 8, xtol=1e-300, nan_at=None)
    def test_same_calls_and_ends_as_the_frozen_walk(self, cases, kinds, picks, xtol, nan_at):
        a, b, hook, guesses, _ = _guessed(cases, kinds, picks, xtol, nan_at)
        got = _walk(loci.bisect, hook, a, b, xtol=xtol, guess=guesses)
        assert got == _walk(_frozen_bisect, hook, a, b, xtol=xtol, guess=guesses)

    @pytest.mark.parametrize("signal, xtol", [
        (lambda x, live: x, 1e-300),  # no convergence
        (lambda x, live: x + 7.888609052210118e-31, 1e-300),  # a zero at the 100th halving
        (lambda x, live: np.where(x < 0.3, -1.0, 1.0), 1e-12),  # many walks
        (lambda x, live: np.where(np.abs(x) < 1e-20, _coin(x), x), 1e-300),
        (lambda x, live: np.where(x > 0.4, np.nan, x - 0.5), 1e-12),
    ])
    def test_named_brackets_walk_as_the_frozen_walk(self, signal, xtol):
        a, b = np.array([-1.0, 0.0]), np.array([2.0, 1.0])
        got = _walk(loci.bisect, signal, a, b, xtol=xtol)
        assert got == _walk(_frozen_bisect, signal, a, b, xtol=xtol)


class TestGridSeed:
    """refine_planes's inverse-interpolation seed steers the bisection, never its roots."""

    # a curve and a drive inside its range
    CHAINS = {
        "polynomial": (PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), Excitation(0.8, 1.7, 1.0)),
        "tanh": (TanhScaledCurve(a=1.3, b=0.8), Excitation(0.8, 1.7, 1.0)),
        "logistic": (LogisticCurve(), Excitation(0.7, 0.6, 1.25)),
        "two_branch": (TwoBranchCurve(
            outgoing=PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)),
            returning=PolynomialCurve((0.0, 4.0 / 3.0, 0.5))),
            Excitation(0.9, 1.3)),
    }

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_seed_leaves_the_stored_roots_alone(self, name, n, monkeypatch):
        curve, exc = self.CHAINS[name]
        bisect, guessed = loci.bisect, []

        def refined():
            chain = transform.analytic_chain(curve, exc, 5, grid(exc, n))
            loci.refine_planes(_as_chain(chain))
            return [vars(locus)["_roots"] for locus in chain]

        def recording(*args, guess=None, **kwargs):
            guessed.append(guess is not None)
            return bisect(*args, guess=guess, **kwargs)

        monkeypatch.setattr(loci, "bisect", recording)
        seeded = refined()
        monkeypatch.setattr(loci, "bisect", lambda *args, guess=None, **kwargs:
                            bisect(*args, **kwargs))
        unseeded = refined()
        assert guessed == [True]
        for got, want in zip(seeded, unseeded, strict=True):
            assert _same_fields(got, want)


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
    """Roots of each row of vals, found the way refine_planes finds them.

    _scan brackets the sign changes, _interpolated places a root in each,
    bisect refines them all in one call from the samples at their ends
    when a hook is given (row r of hook(x) is row r's signal), and
    _zero_roots adds the runs of exact zeros.
    """
    t = np.asarray(t, dtype=float)
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    rows, left = loci._scan(vals)
    crossings = loci._interpolated(t, left, vals[rows, left], vals[rows, left + 1])
    if hook is not None and rows.size:
        crossings = loci.bisect(
            lambda x, live: np.asarray(hook(x))[rows[live], np.arange(x.size)],
            t[left], t[left + 1], vals[rows, left], vals[rows, left + 1])
    return [loci._dedupe(crossings[rows == r].tolist() + loci._zero_roots(
                t, row, np.flatnonzero(row == 0.0).tolist(), transversal_only),
                         10.0 * loci._REFINE_XTOL)
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


def _beside_nan(offset):
    # a zero run at 19..21, where the signal rises through zero, with a NaN
    # sample just before (offset -1) or after (3) it
    v = np.sin(3.0 * T65 + 0.4)
    v[19:22] = 0.0
    v[19 + offset] = np.nan
    return v


def _tangential_seam_runs():
    # a signal that never goes positive, touching zero at the seam and at 40..41
    v = -np.abs(np.sin(3.0 * T65 + 0.4))
    v[0] = v[-1] = v[40] = v[41] = 0.0
    return v


SIGNALS = {
    "seam_run": _seam_run(),
    "seam_zero": _seam_zero(),
    "seam_run_late": _seam_run_late(),
    "double_zero": _double_zero(),
    "all_zero": np.zeros_like(T65),
    "sign_changes": np.sin(3.0 * T65 + 0.1),
    # sin vanishes exactly at phase 0 alone, so each of these two crosses zero
    # at one end of the period while the other end holds a tiny nonzero sample
    "zero_at_t0_only": np.sin(T65),
    "zero_at_t_end_only": np.sin(T65 - T65[-1]),
    "all_zero_core": np.append(np.zeros(64), 1e-300),
    "nan_before_zero_run": _beside_nan(-1),
    "nan_after_zero_run": _beside_nan(3),
    "tangential_seam_runs": _tangential_seam_runs(),
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

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), block=st.integers(1, 12),
           samples=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1e-300, 2.5, -3.0]),
                            min_size=3 * 41, max_size=3 * 41))
    def test_column_blocks_give_what_one_block_gives(self, n, block, samples):
        # brackets, stencils and zero runs at a block's ends and round the
        # seam come out of the blocks as out of one stack of the rows
        rows = [np.array(samples[i * 41:i * 41 + n + 1]) for i in range(3)]

        def scanned():
            return repr([v.tolist() if isinstance(v, np.ndarray) else v
                         for v in loci._scan_rows(rows, n)])

        whole = scanned()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loci, "_SCAN_BLOCK", block)
            assert scanned() == whole


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

    def test_zero_runs_at_the_ends_and_beside_nan(self):
        def roots(name, transversal_only=True):
            return _chain_roots(T65, SIGNALS[name], transversal_only=transversal_only)[0]

        assert SIGNALS["zero_at_t0_only"][-1] != 0.0 != SIGNALS["zero_at_t_end_only"][0]
        assert T65[0] in roots("zero_at_t0_only") and T65[64] not in roots("zero_at_t0_only")
        assert T65[64] in roots("zero_at_t_end_only") and T65[0] not in roots("zero_at_t_end_only")
        # a core of zeros has no crossing, but is one run, 0..63, without the filter
        assert roots("all_zero_core") == []
        assert roots("all_zero_core", False) == [T65[31]]
        # a NaN neighbour has no sign, so the run is not known to be crossed
        for name in ("nan_before_zero_run", "nan_after_zero_run"):
            assert T65[20] not in roots(name) and T65[20] in roots(name, False)
        assert roots("tangential_seam_runs") == []
        assert set(roots("tangential_seam_runs", False)) == {T65[0], T65[40], T65[64]}

    @pytest.mark.parametrize("transversal_only", [False, True])
    @pytest.mark.parametrize("name", sorted(SIGNALS))
    def test_zero_walk_matches_the_frozen_signal_roots(self, name, transversal_only):
        (got,) = _chain_roots(T65, SIGNALS[name], transversal_only=transversal_only)
        assert repr(got) == repr(_frozen_roots(T65, SIGNALS[name], transversal_only))

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
        assert repr(got) == repr(_frozen_roots(t, np.array(samples), transversal_only))


# ----------------------------------------------------------------------
# the refinement as it was written plane by plane, three rows to a plane,
# before it took each distinct row of its planes once, kept frozen with the
# helpers it alone used: the one-pass version must store the same fields
# bit for bit.  The helpers both versions share are called from loci.
# ----------------------------------------------------------------------

def _frozen_scan(vals):
    pos, neg = vals > 0.0, vals < 0.0
    return np.nonzero((pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:]))


def _frozen_runs(mask):
    idx = np.flatnonzero(mask)
    if not idx.size:
        return idx, idx
    cut = idx[1:] != idx[:-1] + 1
    return idx[np.append(True, cut)], idx[np.append(cut, True)]


def _frozen_nonzero_from(core, i, step):
    i %= core.size
    while core[i] == 0.0:
        i = (i + step) % core.size
    return i


def _frozen_signal_roots(t, row, crossings, transversal_only):
    tol = 10.0 * loci._REFINE_XTOL
    zero = row == 0.0
    if not zero.any():
        return loci._dedupe(crossings.tolist(), tol)
    n = row.size
    first, last = _frozen_runs(zero)
    if first.size > 1 and first[0] == 0 and last[-1] == n - 1 and (
            last[0] > 0 or first[-1] < n - 1):
        first, last = first[1:], np.append(last[1:-1], last[0] + n - 1)
    if transversal_only:
        core = row[:-1]
        if first[0] == 0 and last[0] >= n - 2:
            first = last = first[:0]
        else:
            before = [_frozen_nonzero_from(core, i - 1, -1) for i in first.tolist()]
            after = [_frozen_nonzero_from(core, i + 1, 1) for i in last.tolist()]
            keep = np.sign(core[before]) * np.sign(core[after]) < 0.0
            first, last = first[keep], last[keep]
    mid = (first + last) // 2
    mid = np.where(last < n, mid, mid % (n - 1))
    return loci._dedupe(crossings.tolist() + t[mid].tolist(), tol)


def _frozen_roots(t, row, transversal_only):
    """A row's roots as the per-plane pass found them without a jet."""
    rows, left = _frozen_scan(row[None])
    crossings = loci._interpolated(t, left, row[left], row[left + 1])
    return _frozen_signal_roots(t, row, crossings, transversal_only)


def _frozen_level(exc, k, period):
    """Drive level k's zeros over the period and its peak, from x^(k) = -A w^k cos(w t + k pi/2)
    for k > 0, and x = offset - A cos(w t): a zero at phase 0 is listed at 0 and at T."""
    if k == 0:
        c = exc.offset / exc.amplitude
        peak = abs(exc.offset) + exc.amplitude
        if abs(c) > 1.0:
            return [], peak
        first = float(np.arccos(c)) / exc.omega
        return sorted({first, period - first}), peak
    # w t + k pi/2 is pi/2 mod pi at the quarters q of the period with q + k odd
    return [q / 4 * period for q in range(5) if (q + k) % 2], exc.amplitude * exc.omega ** k


def _frozen_landmark_values(pairs, times, jet):
    # each pair is a plane's locus and the next one, whose samples are its rates
    def value(pair, row, tp):
        locus = pair[row // 2]
        if locus.jet is None:
            return np.interp(tp, locus.t_values, (locus.u_values, locus.w_values)[row % 2])
        if row % 2:
            return transform.jet_signals(*jet, tp, np.full(tp.size, locus.depth))
        return excite(jet[1], tp, locus.depth)

    return [np.array([value(pair, row, tp) for row in range(4)]) for pair, tp in zip(pairs, times)]


def _frozen_refine(pairs):
    """The _PlaneRoots of each plane, as the per-plane pass made them; each of pairs is a
    plane's locus and the locus whose samples are its rates.  A row that is a drive level
    on the jet takes its zeros and peak from the phase (_frozen_level); the ordinate rows
    on the jet are bisected, the rows off it interpolated."""
    scans, stencils = [], []
    ends = {}
    for locus, after in pairs:
        t = locus.t_values
        vals = np.stack((locus.u_values, after.u_values, after.w_values))
        rows, left = _frozen_scan(vals)
        hooked = (locus.jet is not None, after.jet is not None)
        slots = [(after.depth, t[i], t[i + 1]) if r == 2 and hooked[1] else None
                 for r, i in zip(rows.tolist(), left.tolist())]
        first = sum(map(len, stencils))
        for j, key in enumerate(slots):
            if key is not None:
                ends.setdefault(key, first + j)
        n = t.size - 1
        k = left[:, None] + loci._STENCIL
        stencils.append(vals[rows[:, None], np.where((k < 0) | (k > n), k % n, k)])
        levels = [_frozen_level(p.jet[1], p.depth, float(t[-1])) if p.jet else None
                  for p in (locus, after)]
        peak_u, peak_du, peak_dw = (level[1] if level else float(np.maximum(v.max(), -v.min()))
                                    for level, v in zip(levels + [None], vals))
        w = locus.w_values
        peak = (peak_u, float(np.maximum(w.max(), -w.min())), peak_du, peak_dw)
        crossings = loci._interpolated(t, left, vals[rows, left], vals[rows, left + 1])
        scans.append((locus, after, rows, crossings, slots, peak, levels))

    jet = next((locus.jet for locus, _ in pairs if locus.jet is not None), None)
    if ends:
        depth, a, b = (np.array(col) for col in zip(*ends))
        samples = np.concatenate(stencils)[list(ends.values())]
        roots = dict(zip(ends, loci.bisect(
            lambda x, live: transform.jet_signals(*jet, x, depth[live]),
            a, b, samples[:, 2], samples[:, 3], xtol=loci._REFINE_XTOL,
            guess=a + loci._inverse_root(samples) * (b - a)).tolist()))

    planes = []
    for locus, after, rows, crossings, slots, peak, levels in scans:
        t = locus.t_values
        for j, key in enumerate(slots):
            if key is not None:
                crossings[j] = roots[key]
        abscissa, du, dw = (
            level[0] if level else
            _frozen_signal_roots(t, row, crossings[rows == r], transversal_only=r > 0)
            for r, (row, level) in enumerate(zip((locus.u_values, after.u_values, after.w_values),
                                                 levels + [None])))
        spans = loci._spans(t, du + dw)
        times = np.array(abscissa + du + dw + [0.5 * (a + b) for a, b in spans])
        planes.append((abscissa, du, dw, spans, peak, times))

    values = _frozen_landmark_values([scan[:2] for scan in scans], [p[-1] for p in planes], jet)
    return [loci._PlaneRoots(*plane, dict(zip(times.tolist(), zip(*v.tolist()))))
            for (*plane, times), v in zip(planes, values)]


def _same_fields(got, want):
    """Whether two _PlaneRoots hold the same values, every float bit included."""
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if repr(g) != repr(w):  # repr tells every float bit, the sign of zero included
            return False
    return True


class TestTopPlaneWithoutRates:
    """A top plane refined without its rates refines them when they are read, never
    answering with empty landmarks."""

    def test_rate_landmarks_refine_the_rates_then(self, cubic, drive):
        g = grid(drive, 1024)
        chain = transform.analytic_chain(cubic, drive, 2, g)
        loci.refine_planes(_as_chain(chain))
        assert vars(chain[-1])["_roots"].du is None
        alone = analytic_locus(cubic, drive, 2, g)
        got = loci.rate_landmarks(chain[-1])
        assert got[0] and got[2]  # zero tangents and negative arcs, not empty tuples
        assert repr(got) == repr(loci.rate_landmarks(alone))
        assert vars(chain[-1])["_roots"].du is not None
        points = got[0] + got[1]
        assert repr(loci.project_landmarks(chain[-1], points)) == repr(
            loci.project_landmarks(alone, points))

    def test_project_landmarks_refine_the_rates_then(self, cubic, drive):
        g = grid(drive, 1024)
        chain = transform.analytic_chain(cubic, drive, 2, g)
        loci.refine_planes(_as_chain(chain))
        alone = analytic_locus(cubic, drive, 2, g)
        points = zero_tangent_points(alone)
        assert points
        assert repr(loci.project_landmarks(chain[-1], points)) == repr(
            loci.project_landmarks(alone, points))

    @pytest.mark.parametrize("kind", ["closed", "differenced", "numeric"])
    def test_last_locus_keeps_its_abscissa_fields_until_its_rates_are_read(self, kind, cubic,
                                                                          drive):
        # the last locus's transform would be the jet one level deeper or
        # differences of differences, the last locus being the differences of
        # plane 0 or, with a jet plane before it that they are the rates of,
        # of plane 1; none is built until its rates are read
        g = grid(drive, 1024)
        if kind != "closed":
            source = 0 if kind == "numeric" else 1
            chain = transform.analytic_chain(cubic, drive, source, g)
            chain += (numeric_transform(chain[-1]),)
            alone = numeric_transform(analytic_locus(cubic, drive, source, g))
        else:
            chain = transform.analytic_chain(cubic, drive, 2, g)
            alone = analytic_locus(cubic, drive, 2, g)
        loci.refine_planes(_as_chain(chain))
        top = vars(chain[-1])["_roots"]
        assert (top.du, top.dw, top.spans) == (None, None, None)
        assert len(top.peak) == 2 and all(len(v) == 2 for v in top.at.values())
        got = loci.rate_landmarks(chain[-1])
        assert repr(got) == repr(loci.rate_landmarks(alone))
        assert _same_fields(vars(chain[-1])["_roots"], loci._plane_roots(alone, rates=True))

    def test_rates_beyond_float_range_raise(self, cubic):
        # the depth-2 plane's own rates need drive level 3, which overflows
        exc = Excitation(amplitude=1.0, omega=1e103)
        chain = transform.analytic_chain(cubic, exc, 2, grid(exc, 256))
        top = chain[2]
        loci.refine_planes(_as_chain(chain[1:]))
        origin_crossing(top)
        with pytest.raises(NumericalError, match="drive level 3 is beyond float range"):
            loci.rate_landmarks(top)

    def test_lone_locus_rates_beyond_float_range_raise(self):
        # finite drive levels, but a depth-1 ordinate beyond float range
        curve = PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0), operating_range=(0.0, 2e100))
        exc = Excitation(amplitude=1e100, omega=1e50)
        alone = analytic_locus(curve, exc, 0, grid(exc, 256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="depth 1 ordinate is beyond float range"):
                loci.rate_landmarks(alone)

    def test_lone_locus_on_another_period_raises(self, cubic):
        # its rates are taken on its grid, which must span the drive's period
        drive = Excitation()
        t = grid(Excitation(omega=2.0), 256).t_values
        locus = ParametricLocus(t, *(v[0] for v in transform._jet(cubic, drive, t, 0)), 0,
                                jet=(cubic, drive))
        with pytest.raises(DomainError, match="the grid spans period 3.14"):
            loci.rate_landmarks(locus)


class TestRatesAreTheNextLocus:
    """A plane's rates are the next locus's samples, whatever its own jet could give."""

    @pytest.mark.parametrize("depth", range(3))
    def test_jet_plane_before_differences_reads_the_differences(self, cubic, drive, depth):
        g = grid(drive, 1024)
        locus = analytic_locus(cubic, drive, depth, g)
        assert loci._transform(locus).jet is not None  # its jet gives its rates
        differences = numeric_transform(locus)
        bare = ParametricLocus(locus.t_values, locus.u_values, locus.w_values, depth)
        loci.refine_planes(_as_chain((locus, differences)))
        loci.refine_planes(_as_chain((bare, differences)))
        got, want = vars(locus)["_roots"], vars(bare)["_roots"]
        assert got.du and got.dw
        assert repr((got.du, got.dw)) == repr((want.du, want.dw))


class TestOnePassRefinement:
    """The one pass over a chain's distinct rows stores what the per-plane pass stored."""

    CURVES = {
        "polynomial": (PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), (0.0, 2.0)),
        "tanh": (TanhScaledCurve(a=1.3, b=0.8), (0.0, 2.0)),
        "logistic": (LogisticCurve(), (0.5, 2.0)),
        "piecewise_linear": (PiecewiseLinearCurve(((0.0, 0.0), (1.0, 0.5), (2.0, 2.0))),
                             (0.0, 2.0)),
        "two_branch": (TwoBranchCurve(
            outgoing=PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)),
            returning=PolynomialCurve((0.0, 4.0 / 3.0, 0.5))),
            (0.0, 2.0)),
    }
    KINDS = ["closed", "differenced", "numeric", "lone", "lone_numeric"]

    @staticmethod
    def _drive(data, lo, hi):
        amplitude = data.draw(st.floats(0.05, 0.5 * (hi - lo)), label="amplitude")
        # an offset of one amplitude from the range's low end pins x(0) there
        # exactly; at lo = 0 the abscissa has exact zeros at the seam
        offset = data.draw(st.one_of(st.just(lo + amplitude),
                                     st.floats(lo + amplitude, hi - amplitude)), label="offset")
        omega = data.draw(st.sampled_from([0.3, 1.0, 2.7, 13.0]), label="omega")
        return Excitation(amplitude, omega, offset)

    def _pairs(self, name, depth, n, kind, data):
        """The planes classify refines for a verdict plane at depth on a chain of the
        kind, each with the locus that holds its rates, in its one refine_planes call:
        a numeric chain's plane 0 with its closed-form rates, then each
        finite-difference plane with the next one.  Or a closed chain whose verdict
        plane's rates are its finite differences (differenced), or a lone depth-d locus
        and its transform, as _plane_roots refines it."""
        curve, (lo, hi) = self.CURVES[name]
        exc = self._drive(data, lo, hi)
        g = grid(exc, n)
        if kind in ("closed", "lone"):
            chain = list(transform.analytic_chain(curve, exc, depth + 1, g))
        elif kind == "differenced":
            chain = list(transform.analytic_chain(curve, exc, depth, g))
            chain.append(numeric_transform(chain[-1]))
        elif kind == "lone_numeric":
            chain = [analytic_locus(curve, exc, 0, g)]
            for _ in range(depth):
                chain.append(numeric_transform(chain[-1]))
        else:
            chain = list(transform.analytic_chain(curve, exc, 1, g))
        if kind.startswith("lone"):
            return [(chain[depth], loci._transform(chain[depth]))]
        pairs = list(zip(chain, chain[1:]))
        if kind == "numeric" and depth:
            differences = [numeric_transform(chain[0])]
            for _ in range(depth):
                differences.append(numeric_transform(differences[-1]))
            pairs += zip(differences, differences[1:])
        return pairs

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), depth=st.integers(0, 4),
           n=st.sampled_from([64, 257, 4095, 4096]),
           kind=st.sampled_from(KINDS), data=st.data())
    def test_every_field_equals_the_frozen_pass(self, name, depth, n, kind, data):
        # every plane is refined with its rates; the locus past the last plane,
        # which only holds its rates, is not refined
        pairs = self._pairs(name, depth, n, kind, data)
        want = _frozen_refine(pairs)
        loci.refine_planes(pairs)
        for (locus, _), plane in zip(pairs, want, strict=True):
            assert _same_fields(vars(locus)["_roots"], plane)
        assert "_roots" not in vars(pairs[-1][1])

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), depth=st.integers(0, 4),
           n=st.sampled_from([64, 257, 4095]), block=st.sampled_from([1, 7, 64, 1000]),
           kind=st.sampled_from(KINDS), data=st.data())
    def test_column_blocks_equal_the_frozen_pass(self, name, depth, n, block, kind, data):
        # a grid of more than one block is scanned a block at a time, and its
        # stencils gathered from a stack of the columns they read
        pairs = self._pairs(name, depth, n, kind, data)
        want = _frozen_refine(pairs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loci, "_SCAN_BLOCK", block)
            loci.refine_planes(pairs)
        for (locus, _), plane in zip(pairs, want, strict=True):
            assert _same_fields(vars(locus)["_roots"], plane)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), depth=st.integers(0, 4),
           n=st.sampled_from([64, 257, 4095, 4096]),
           kind=st.sampled_from(KINDS), data=st.data())
    def test_without_top_rates_the_top_keeps_its_abscissa_fields(self, name, depth, n, kind,
                                                                 data):
        # the top plane is given without its rates: the planes below it, and
        # its abscissa roots, (u, w) peaks and values there, are the ones a
        # pass with the top's rates stores
        pairs = self._pairs(name, depth, n, kind, data)
        want = _frozen_refine(pairs)
        loci.refine_planes(pairs[:-1] + [pairs[-1][:1]])
        for (locus, _), plane in zip(pairs[:-1], want[:-1], strict=True):
            assert _same_fields(vars(locus)["_roots"], plane)
        top, plane = vars(pairs[-1][0])["_roots"], want[-1]
        assert (top.du, top.dw, top.spans) == (None, None, None)
        assert repr((top.abscissa, top.peak)) == repr((plane.abscissa, plane.peak[:2]))
        assert repr(top.at) == repr({r: plane.at[r][:2] for r in plane.abscissa})

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), n=st.sampled_from([64, 257, 4095, 8192]),
           data=st.data())
    def test_phase_shift_chain_equals_the_frozen_pass(self, name, n, data):
        # phase_shift refines the depth-1 locus with the depth-2 locus as its
        # rates, and neither the depth-0 nor the depth-2 locus
        curve, (lo, hi) = self.CURVES[name]
        exc = self._drive(data, lo, hi)
        chain = transform.analytic_chain(curve, exc, 2, grid(exc, n))
        (want,) = _frozen_refine([chain[1:]])
        loci.refine_planes([chain[1:]])
        assert _same_fields(vars(chain[1])["_roots"], want)
        assert "_roots" not in vars(chain[0]) and "_roots" not in vars(chain[2])
