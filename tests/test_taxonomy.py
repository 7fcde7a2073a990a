import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memelements import (
    ALL_CHECKS,
    ANALYTIC_DEFAULTS,
    NUMERIC_DEFAULTS,
    CHECK_FIRST_ORDER,
    CHECK_MEM_CAPACITOR,
    CHECK_MEM_INDUCTOR,
    CHECK_MEMRISTOR,
    CHECK_SINGLE_VALUED,
    CapabilityError,
    CheckStatus,
    Degeneration,
    DomainError,
    ElementDescriptor,
    Excitation,
    InternalSource,
    LogisticCurve,
    NumericalError,
    PiecewiseLinearCurve,
    PointKind,
    PolynomialCurve,
    TanhScaledCurve,
    TwoBranchCurve,
    Valuedness,
    Verdict,
    analytic_locus,
    classify,
    grid,
    numeric_transform,
    origin_crossing,
    plane_labels,
    rate_landmarks,
    table_position,
    theorem_suite,
)
from memelements import loci, taxonomy, transform
import oracles


class TestDescriptor:
    def test_verdict_plane_distance(self):
        assert ElementDescriptor(0, 0).transforms_to_verdict_plane == 0
        assert ElementDescriptor(-1, -1).transforms_to_verdict_plane == 1
        assert ElementDescriptor(-3, -2).transforms_to_verdict_plane == 2

    def test_positive_levels_rejected(self):
        with pytest.raises(DomainError):
            ElementDescriptor(1, 0)
        with pytest.raises(DomainError):
            ElementDescriptor(0, 2)

    def test_diagonal_kinds(self):
        assert ElementDescriptor(-2, -2).kind == "memristor"
        assert ElementDescriptor(-3, -2).kind == "mem-inductor"
        assert ElementDescriptor(-2, -3).kind == "mem-capacitor"
        assert ElementDescriptor(-3, 0).kind == "mixed"


class TestTablePosition:
    @pytest.mark.parametrize(
        "cell,name",
        [
            ((0, 0), "resistor"),
            ((-1, 0), "inductor"),
            ((0, -1), "capacitor"),
            ((-1, -1), "memristor"),
            ((-2, -1), "mem-inductor"),
            ((-1, -2), "mem-capacitor"),
        ],
    )
    def test_star_cells(self, cell, name):
        entry = table_position(ElementDescriptor(*cell))
        assert entry.name == name
        assert entry.in_six_pointed_star

    def test_memristor_labels(self):
        entry = table_position(ElementDescriptor(-1, -1))
        assert entry.constitutive_labels == ("q", "φ")
        assert entry.verdict_labels == ("i", "v")

    def test_higher_order_cells(self):
        entry = table_position(ElementDescriptor(-2, -2))
        assert entry.name == "higher-order memristor"
        assert not entry.in_six_pointed_star
        assert entry.constitutive_labels == ("σ", "ρ")
        assert entry.verdict_labels == ("i", "v")

    def test_deep_integral_labels(self):
        entry = table_position(ElementDescriptor(-3, -2))
        assert entry.constitutive_labels == ("σ", "∫ρ")
        assert entry.verdict_labels == ("i", "φ")
        entry = table_position(ElementDescriptor(-2, -3))
        assert entry.constitutive_labels == ("∫σ", "ρ")
        assert entry.verdict_labels == ("q", "v")

    def test_prime_labels_above_the_cell(self):
        assert plane_labels(ElementDescriptor(0, 0), 2) == ("i''", "v''")


class TestClassifyFirstOrder:
    def test_memristor_is_passive(self, cubic):
        rpt = classify((-1, -1), cubic)
        assert rpt.verdict is Verdict.LOCALLY_PASSIVE
        assert rpt.degeneration is Degeneration.NONE
        assert rpt.internal_source is InternalSource.NONE
        assert not rpt.caveats
        assert rpt.verdict_plane.pinched
        assert rpt.verdict_plane.valuedness is Valuedness.DOUBLE

    def test_resistor_cell_needs_no_transform(self, cubic):
        rpt = classify((0, 0), cubic)
        assert rpt.verdict is Verdict.LOCALLY_PASSIVE
        assert len(rpt.planes) == 1
        assert rpt.verdict_plane.depth == 0

    def test_two_branch_passive_with_caveat(self, loop_curve):
        rpt = classify((-1, -1), loop_curve)
        assert rpt.verdict is Verdict.LOCALLY_PASSIVE
        assert any("not ideal" in c for c in rpt.caveats)
        assert not rpt.verdict_plane.odd_symmetric


class TestClassifySecondOrder:
    def test_memristor_cell_is_active(self, cubic):
        rpt = classify((-2, -2), cubic)
        assert rpt.verdict is Verdict.LOCALLY_ACTIVE
        assert rpt.degeneration is Degeneration.NEGATIVE_NONLINEAR_RESISTOR
        assert rpt.internal_source is InternalSource.NONE
        mags = [abs(p.w) for p in rpt.witnesses]
        assert max(mags) == pytest.approx(2.0, abs=1e-9)
        assert all(p.kind is PointKind.ACTIVITY_WITNESS for p in rpt.witnesses)

    def test_mem_inductor_cell_sources_current(self, cubic):
        rpt = classify((-3, -2), cubic)
        assert rpt.verdict is Verdict.LOCALLY_ACTIVE
        assert rpt.degeneration is Degeneration.NEGATIVE_NONLINEAR_INDUCTOR
        assert rpt.internal_source is InternalSource.CURRENT_SOURCE
        lead = rpt.witnesses[0]
        assert lead.u == pytest.approx(oracles.COS_T_C_CUBIC, abs=1e-9)
        assert abs(lead.w) < 1e-9

    def test_mem_capacitor_cell_sources_voltage(self, cubic):
        rpt = classify((-2, -3), cubic)
        assert rpt.verdict is Verdict.LOCALLY_ACTIVE
        assert rpt.degeneration is Degeneration.NEGATIVE_NONLINEAR_CAPACITOR
        assert rpt.internal_source is InternalSource.VOLTAGE_SOURCE
        lead = rpt.witnesses[0]
        assert abs(lead.u) < 1e-9
        assert lead.w == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_curve_is_inconclusive(self, degenerate):
        rpt = classify((-2, -2), degenerate)
        assert rpt.verdict is Verdict.INCONCLUSIVE
        assert rpt.witnesses == ()
        assert rpt.candidate_witness_magnitude is not None
        assert rpt.candidate_witness_magnitude < 1e-10
        assert rpt.degeneration is Degeneration.NONE

    def test_numeric_chain_reaches_same_verdict(self, cubic):
        rpt = classify((-2, -2), cubic, numeric_chain=True, grid_n=16384)
        assert rpt.provenance == "numeric"
        assert rpt.verdict is Verdict.LOCALLY_ACTIVE
        mags = [abs(p.w) for p in rpt.witnesses]
        assert max(mags) == pytest.approx(2.0, abs=1e-3)


class TestClassifyDeep:
    @pytest.mark.parametrize("cell", [(-5, -5), (-6, -6)])
    def test_every_plane_closed_form_and_witnesses_exact(self, cell):
        curve = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0),
                                max_derivative_order=7)
        rpt = classify(cell, curve)
        assert rpt.provenance == "analytic"
        assert [p.provenance for p in rpt.planes] == ["analytic"] * len(rpt.planes)
        assert rpt.verdict is Verdict.LOCALLY_ACTIVE
        u, w = oracles.chain_oracle(lambda x: x + (1.0 / 3.0) * x**3, -max(cell),
                                    [p.t for p in rpt.witnesses])
        assert np.max(np.abs([p.u for p in rpt.witnesses] - u)) <= 1e-9
        assert np.max(np.abs([p.w for p in rpt.witnesses] - w)) <= 1e-9


class TestSeamRun:
    def test_flat_run_through_the_seam_is_one_landmark(self):
        # f vanishes on [0, 0.1], so every rate is exactly zero around t = 0
        curve = PiecewiseLinearCurve(knots=((0.0, 0.0), (0.1, 0.0), (2.0, 2.0)))
        rpt = classify((-1, -1), curve)
        h, T = rpt.loci[0].spacing, rpt.loci[0].period
        for plane in rpt.planes:
            marks = plane.zero_tangents + plane.vertical_tangents
            assert len(marks) <= 1
            assert all(min(p.t, T - p.t) <= h for p in marks)


class TestClassifyGuards:
    def test_sweep_must_fit_the_range(self):
        narrow = PolynomialCurve(
            coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0), operating_range=(0.0, 1.0)
        )
        with pytest.raises(DomainError):
            classify((-1, -1), narrow)

    def test_capability_gate(self):
        shallow = PolynomialCurve(
            coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0), max_derivative_order=1
        )
        with pytest.raises(CapabilityError):
            classify((-2, -2), shallow)

    def test_scaled_drive_fits_scaled_range(self, drive):
        wide = PolynomialCurve(
            coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0), operating_range=(0.0, 4.0)
        )
        rpt = classify((-1, -1), wide, Excitation(amplitude=2.0))
        assert rpt.verdict is Verdict.LOCALLY_PASSIVE

    @pytest.mark.parametrize("cell", [(0, 0), (-1, -1), (-2, -2)])
    def test_jet_beyond_float_range_raises(self, cell):
        # the drive levels A w^k are finite; the depth-1 ordinate, about (A w)^3, is not
        huge = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0),
                               operating_range=(0.0, 2e100))
        exc = Excitation(amplitude=1e100, omega=1e50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="depth 1 ordinate is beyond float range"):
                classify(cell, huge, exc)


class TestTheoremSuite:
    def test_reference_set_all_passes(self, cubic, tanh_curve, degenerate):
        pwl = PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)))
        rep = theorem_suite([cubic, tanh_curve, degenerate, pwl])
        assert rep.all_passed
        assert not rep.counterexamples
        assert len(rep.instances) == 4

        smooth = rep.instances[0]
        assert smooth.ideal
        for name in ALL_CHECKS:
            assert smooth.checks[name].status is CheckStatus.PASS

        degen = rep.instances[2]
        assert degen.ideal
        assert degen.checks[CHECK_FIRST_ORDER].status is CheckStatus.PASS
        assert degen.checks[CHECK_SINGLE_VALUED].status is CheckStatus.PASS
        for name in (CHECK_MEMRISTOR, CHECK_MEM_INDUCTOR, CHECK_MEM_CAPACITOR):
            assert degen.checks[name].status is CheckStatus.INCONCLUSIVE

        kinked = rep.instances[3]
        assert not kinked.ideal
        assert kinked.failed_criteria
        for name in ALL_CHECKS:
            assert kinked.checks[name].status is CheckStatus.SKIPPED

    def test_aggregate_counts(self, cubic):
        rep = theorem_suite([cubic])
        agg = rep.aggregate
        for name in ALL_CHECKS:
            assert agg[name]["pass"] == 1
            assert agg[name]["fail"] == 0

    def test_counterexample_on_failure(self):
        # a decreasing curve pinches but is not ideal, so checks skip;
        # an increasing affine curve is single-valued but linear: skipped too
        line = PolynomialCurve(coefficients=(0.0, 1.0))
        rep = theorem_suite([line])
        inst = rep.instances[0]
        assert not inst.ideal
        assert rep.all_passed  # skips never count as failures


class TestSuiteFailurePaths:
    """Each check's FAIL and SKIPPED detail, forced where a real curve passes."""

    @staticmethod
    def _patch_cell(monkeypatch, cell, **changes):
        read = taxonomy._read_cell

        def patched(descriptor, analysis, ideality):
            rpt = read(descriptor, analysis, ideality)
            if (descriptor.alpha, descriptor.beta) == cell:
                rpt = dataclasses.replace(rpt, **changes)
            return rpt

        monkeypatch.setattr(taxonomy, "_read_cell", patched)

    @staticmethod
    def _only_failure(rep, name, detail):
        assert not rep.all_passed
        assert rep.counterexamples == (f"instance 0 (polynomial[0,2]): {name}: {detail}",)
        assert rep.aggregate[name]["fail"] == 1
        result = rep.instances[0].checks[name]
        assert result.status is CheckStatus.FAIL
        assert result.detail == detail
        return result

    def test_first_order_verdict_not_passive(self, cubic, monkeypatch):
        self._patch_cell(monkeypatch, (-1, -1), verdict=Verdict.LOCALLY_ACTIVE)
        result = self._only_failure(theorem_suite([cubic]), CHECK_FIRST_ORDER,
                                    "first-order verdict was locally_active")
        assert dict(result.data) == {}

    def test_pinch_times_off_the_rate_zeros(self, cubic, monkeypatch):
        pinch = classify((-1, -1), cubic).witnesses
        self._patch_cell(monkeypatch, (-1, -1), witnesses=pinch[:-1])
        result = self._only_failure(theorem_suite([cubic]), CHECK_FIRST_ORDER,
                                    "pinch times do not match the drive-rate zeros")
        assert list(result.data) == ["pinch_times"]
        assert result.data["pinch_times"] == sorted(p.t for p in pinch[:-1])

    def test_double_valued_depth_two_plane(self, cubic, monkeypatch):
        measure = taxonomy.valuedness

        def double_at_depth_two(locus, tol):
            report = measure(locus, tol)
            if locus.depth == 2:
                report = dataclasses.replace(report, kind=Valuedness.DOUBLE)
            return report

        monkeypatch.setattr(taxonomy, "valuedness", double_at_depth_two)
        result = self._only_failure(theorem_suite([cubic]), CHECK_SINGLE_VALUED,
                                    "depth-2 locus is double-valued")
        assert list(result.data) == ["max_pair_gap"]
        assert result.data["max_pair_gap"] == classify((-2, -2), cubic).planes[2].max_pair_gap

    def test_passive_second_order_cell(self, cubic, monkeypatch):
        self._patch_cell(monkeypatch, (-2, -2), verdict=Verdict.LOCALLY_PASSIVE)
        result = self._only_failure(theorem_suite([cubic]), CHECK_MEMRISTOR,
                                    "expected local activity, classified locally passive")
        assert dict(result.data) == {}

    def test_passing_checks_carry_their_data(self, cubic, degenerate):
        rep = theorem_suite([cubic, degenerate])
        checks = rep.instances[0].checks
        assert checks[CHECK_FIRST_ORDER].detail == "pinched at every drive-rate zero"
        assert checks[CHECK_FIRST_ORDER].data["pinch_times"] == pytest.approx(
            [0.0, np.pi, 2 * np.pi], abs=1e-6)
        assert checks[CHECK_SINGLE_VALUED].detail == "depth-2 locus is single-valued"
        assert list(checks[CHECK_SINGLE_VALUED].data) == ["max_pair_gap"]
        for name in (CHECK_MEMRISTOR, CHECK_MEM_INDUCTOR, CHECK_MEM_CAPACITOR):
            assert checks[name].detail == "locally active with off-origin witness"
            assert list(checks[name].data) == ["witness_magnitude"]
            degen = rep.instances[1].checks[name]
            assert degen.detail == ("witness degenerates at this operating point; "
                                    "activity undecided")
            assert list(degen.data) == ["candidate_witness_magnitude"]

    def test_first_order_only_curve(self):
        curve = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0),
                                max_derivative_order=1)
        rep = theorem_suite([curve])
        assert rep.all_passed
        checks = rep.instances[0].checks
        assert list(checks) == list(ALL_CHECKS)
        assert checks[CHECK_FIRST_ORDER].status is CheckStatus.PASS
        assert list(checks[CHECK_FIRST_ORDER].data) == ["pinch_times"]
        for name in ALL_CHECKS[1:]:
            assert checks[name].status is CheckStatus.SKIPPED
            assert checks[name].detail == "needs second derivatives"
            assert dict(checks[name].data) == {}
        assert rep.aggregate[CHECK_SINGLE_VALUED]["skipped"] == 1

    def test_skipped_non_ideal_curve_names_its_criteria(self):
        line = PolynomialCurve(coefficients=(0.0, 1.0))
        checks = theorem_suite([line]).instances[0].checks
        assert list(checks) == list(ALL_CHECKS)
        for result in checks.values():
            assert result.status is CheckStatus.SKIPPED
            assert result.detail == "curve not ideal: fails nonlinear"
            assert dict(result.data) == {}


class TestChainAnalysedOnce:
    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"planes": 0, "ideality": 0, "bisect_calls": 0, "brackets": 0, "hook_calls": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                tally[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        bisect = loci.bisect

        def counting_bisect(fn, a, b, *args, **kwargs):
            tally["bisect_calls"] += 1
            tally["brackets"] += np.size(a)
            return bisect(counting("hook_calls", fn), a, b, *args, **kwargs)

        # origin_crossing runs once per plane analysed
        monkeypatch.setattr(taxonomy, "origin_crossing",
                            counting("planes", taxonomy.origin_crossing))
        monkeypatch.setattr(taxonomy, "check_ideality",
                            counting("ideality", taxonomy.check_ideality))
        monkeypatch.setattr(loci, "bisect", counting_bisect)
        return tally

    # one lock-step call refines the whole chain: the abscissa of the depth-1
    # and depth-2 planes and the rates of each plane give 15 brackets, of
    # which 3 are counted once only, since plane d's du/dt is plane d+1's u
    EXPECTED = {"planes": 3, "ideality": 1, "bisect_calls": 1, "brackets": 12}
    # the predictor's calls and one on the predicted paths; the endpoint
    # values are the scanned samples (33 calls when each halving took one)
    MAX_HOOK_CALLS = 1 + loci._PREDICT_CALLS

    def test_suite_analyses_one_depth_two_chain(self, cubic, counts):
        assert theorem_suite([cubic]).all_passed
        assert counts.pop("hook_calls") <= self.MAX_HOOK_CALLS
        assert counts == self.EXPECTED

    def test_classify_builds_one_grid_jet(self, cubic, monkeypatch):
        # the grid jet, the valuedness pair jet, and one jet per jet_signals
        # call: the bisection's three and the landmark batch (26 jets, 7 on
        # the grid, when each reader built its own; 8 jets and 6 calls when
        # the bisection evaluated its endpoints again)
        sizes, calls = [], []
        init, signals = transform._Jet.__init__, loci.jet_signals

        def counting(self, curve, exc, t, *args, **kwargs):
            sizes.append(np.size(t))
            init(self, curve, exc, t, *args, **kwargs)

        def counting_signals(*args, **kwargs):
            calls.append(1)
            return signals(*args, **kwargs)

        monkeypatch.setattr(transform._Jet, "__init__", counting)
        monkeypatch.setattr(loci, "jet_signals", counting_signals)
        rpt = classify((-2, -2), cubic)
        assert sizes.count(rpt.grid_n + 1) == 1
        assert len(sizes) == 6
        assert len(calls) == 4

    def test_chain_loci_are_read_only_views_of_one_grid(self, cubic):
        g = grid(Excitation(), 1024)
        chain, rates = transform.analytic_chain(cubic, Excitation(), 2, g)
        assert all(locus.t_values is g.t_values for locus in chain)
        numeric = transform.numeric_transform(chain[-1])
        assert numeric.t_values is g.t_values
        for locus in chain + (numeric,):
            for arr in (locus.t_values, locus.u_values, locus.w_values):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        rpt = classify((-2, -2), cubic)
        assert len({id(locus.t_values) for locus in rpt.loci}) == 1

    def test_classify_refines_each_root_once(self, cubic, counts):
        classify((-2, -2), cubic)
        assert counts.pop("hook_calls") <= self.MAX_HOOK_CALLS
        assert counts == self.EXPECTED


def _standalone_landmarks(curve, exc, depth, tol, n, numeric):
    """Each plane's landmarks from origin_crossing and rate_landmarks on a fresh locus."""
    g = grid(exc, n)
    chain = [analytic_locus(curve, exc, 0, g)]
    for d in range(1, depth + 1):
        chain.append(numeric_transform(chain[-1]) if numeric else analytic_locus(curve, exc, d, g))
    return [(origin_crossing(locus, tol.pinch_tol), rate_landmarks(locus, tol.root_tol), locus)
            for locus in chain]


def _assert_chain_matches_standalone(curve, exc, depth, n, numeric):
    tol = NUMERIC_DEFAULTS if numeric else ANALYTIC_DEFAULTS
    analysis = taxonomy._analyze_chain(curve, exc, depth, tol, n, numeric)
    for plane, locus, (oc, (zero, vertical, arcs), alone) in zip(
            analysis.planes, analysis.loci,
            _standalone_landmarks(curve, exc, depth, tol, n, numeric), strict=True):
        got = (plane.pinch_points, plane.abscissa_zeros, plane.zero_tangents,
               plane.vertical_tangents, plane.negative_arcs)
        want = (oc.pinch_points, oc.abscissa_zeros, zero, vertical, arcs)
        # == on every float, and repr tells -0.0 from 0.0
        assert got == want
        assert repr(got) == repr(want)
        # the values a chain stores at its roots and span midpoints, rates
        # read off the next plane included, are the ones the plane computes
        assert repr(loci._plane_roots(locus).at) == repr(loci._plane_roots(alone).at)


_LOOP = TwoBranchCurve(outgoing=PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)),
                       returning=PolynomialCurve((0.0, 4.0 / 3.0, 0.5)))
_KINKED = PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)))
_FLAT = PiecewiseLinearCurve(knots=((0.0, 0.0), (0.1, 0.0), (2.0, 2.0)))
CHAIN_CASES = {
    "cubic": (PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), Excitation(), False),
    "quintic": (PolynomialCurve((0.0, 0.8, 0.1, 0.3, 0.0, 0.05)), Excitation(0.7, 1.6), False),
    "tanh": (TanhScaledCurve(a=1.3, b=0.8), Excitation(0.9, 0.7), False),
    "logistic": (LogisticCurve(), Excitation(0.5, 1.3, 1.0), False),
    "two_branch": (_LOOP, Excitation(), False),
    "cubic_numeric": (PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), Excitation(), True),
    "kinked_numeric": (_KINKED, Excitation(), True),
    "flat_numeric": (_FLAT, Excitation(), True),
}


class TestChainRefinement:
    """Roots refined for a whole chain equal the planes refined one by one, bit for bit."""

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("name", sorted(CHAIN_CASES))
    def test_chain_landmarks_equal_standalone(self, name, depth, n):
        curve, exc, numeric = CHAIN_CASES[name]
        _assert_chain_matches_standalone(curve, exc, depth, n, numeric)

    @settings(max_examples=25, deadline=None)
    @given(c1=st.floats(0.2, 2.0), c2=st.floats(0.0, 0.5), c3=st.floats(0.05, 1.0),
           amplitude=st.floats(0.3, 1.0), omega=st.floats(0.5, 2.0),
           depth=st.integers(0, 4))
    def test_random_monotone_cubics(self, c1, c2, c3, amplitude, omega, depth):
        curve = PolynomialCurve((0.0, c1, c2, c3))
        _assert_chain_matches_standalone(curve, Excitation(amplitude, omega), depth, 256, False)

    def test_report_reads_the_chain_refined_roots(self, cubic, monkeypatch):
        # a (-4,-4) report's planes are the chain's, and one bisect call made them
        calls = []
        bisect = loci.bisect

        def counting(fn, a, b, *args, **kwargs):
            calls.append(np.size(a))
            return bisect(fn, a, b, *args, **kwargs)

        monkeypatch.setattr(loci, "bisect", counting)
        rpt = classify((-4, -4), cubic)
        assert len(calls) == 1
        for plane, (oc, (zero, vertical, arcs), _) in zip(
                rpt.planes, _standalone_landmarks(cubic, Excitation(), 4, ANALYTIC_DEFAULTS,
                                                  4096, False)):
            assert (plane.abscissa_zeros, plane.zero_tangents, plane.vertical_tangents,
                    plane.negative_arcs) == (oc.abscissa_zeros, zero, vertical, arcs)
