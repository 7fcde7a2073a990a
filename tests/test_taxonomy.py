import dataclasses
import importlib.util
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
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
    DEFAULT_GRID_N,
    CapabilityError,
    CheckStatus,
    ConsistencyError,
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

    @pytest.mark.parametrize("level", [-1.5, -0.5, float("nan"), float("inf"), -float("inf"),
                                       None, "-1", True, False, np.bool_(True)])
    @pytest.mark.parametrize("side", ["alpha", "beta"])
    def test_non_integral_levels_rejected(self, level, side, cubic):
        cell = {"alpha": -1, "beta": -1, side: level}
        with pytest.raises(DomainError, match=f"level {side} must be an integer"):
            ElementDescriptor(**cell)
        with pytest.raises(DomainError, match=f"level {side} must be an integer"):
            classify((cell["alpha"], cell["beta"]), cubic)

    @pytest.mark.parametrize("descriptor", [(-1, -1, -1), (-1,), (), 5, -1.0, None, iter(())])
    def test_non_pair_descriptor_rejected(self, descriptor, cubic):
        with pytest.raises(DomainError, match=r"must be an \(alpha, beta\) pair, got "):
            classify(descriptor, cubic)

    @pytest.mark.parametrize("level", [-2, -2.0, np.int64(-2), np.float64(-2.0)])
    def test_integral_levels_accepted(self, level):
        descriptor = ElementDescriptor(level, level)
        assert (descriptor.alpha, descriptor.beta) == (-2, -2)
        assert type(descriptor.alpha) is int and type(descriptor.beta) is int

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
        assert plane_labels(ElementDescriptor(0, -1), 3) == ("i''", "v'''")
        assert plane_labels(ElementDescriptor(0, 0), 4) == ("i^(4)", "v^(4)")

    def test_integral_signs_past_four_are_counted(self):
        entry = table_position(ElementDescriptor(-6, -7))
        assert entry.constitutive_labels == ("∫^(5)σ", "∫∫∫∫ρ")
        assert plane_labels(ElementDescriptor(-6, -7), 1) == ("∫∫∫∫σ", "∫∫∫ρ")
        assert plane_labels(ElementDescriptor(-5000, -1), 1) == ("i", "∫^(4997)ρ")

    def test_a_huge_level_classifies_at_normal_speed(self, cubic):
        # one sign per level would build a label of 10**9 characters
        rpt = classify((-10**9, -1), cubic, grid_n=256)
        assert rpt.planes[-1].axis_labels == ("i", "∫^(999999997)ρ")
        assert rpt.element.constitutive_labels == ("q", "∫^(999999998)ρ")

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("cell", [(0, 0), (-1, -2), (-2, -2), (-3, -2), (-4, -4)])
    def test_each_plane_carries_its_cell_labels(self, cubic, cell, numeric):
        # one locus chain is a different run of planes at each cell
        descriptor = ElementDescriptor(*cell)
        rpt = classify(cell, cubic, numeric_chain=numeric)
        assert [plane.axis_labels for plane in rpt.planes] == [
            plane_labels(descriptor, d)
            for d in range(descriptor.transforms_to_verdict_plane + 1)]


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


def _cell_id(cell) -> str:
    return f"{cell[0]},{cell[1]}"


class TestWitnessesReadOnce:
    """An axis-crossing witness is one abscissa zero of the verdict plane, listed once."""

    @pytest.mark.parametrize("cell", [(a, b) for a in range(-2, -5, -1) for b in range(-2, -5, -1)],
                             ids=_cell_id)
    def test_no_point_repeats(self, cubic, cell):
        rpt = classify(cell, cubic)
        points = [(p.t, p.u, p.w) for p in rpt.witnesses]
        assert len(set(points)) == len(points)

    @pytest.mark.parametrize("numeric", [False, True], ids=["closed", "numeric"])
    @pytest.mark.parametrize("cell", [(-4, -2), (-2, -4)], ids=_cell_id)
    def test_mixed_cells_list_each_crossing_once(self, cubic, cell, numeric):
        # the axis crossings, then the ordinate crossings, each once
        rpt = classify(cell, cubic, grid_n=16384, numeric_chain=numeric)
        assert rpt.verdict is Verdict.LOCALLY_ACTIVE
        points = [(p.t, p.u, p.w) for p in rpt.witnesses]
        assert len(set(points)) == len(points) == 4
        assert [abs(p.u) < 1e-9 < abs(p.w) for p in rpt.witnesses] == [True] * 2 + [False] * 2
        assert all(abs(p.w) < 1e-9 < abs(p.u) for p in rpt.witnesses[2:])

    def test_an_axis_witness_without_its_vertical_tangent_is_an_internal_error(self, cubic):
        # every axis-crossing witness must meet a projected vertical tangent at
        # its time and ordinate; one that does not is a bug, never a verdict
        rpt = classify((-2, -2), cubic)
        vlocus, axis = rpt.loci[-1], rpt.witnesses
        taxonomy._check_route_agreement(vlocus, axis, axis)
        moved = [dataclasses.replace(p, t=p.t + 1e-3) for p in axis]
        for projections, message in (
                ((), "has no vertical-tangent counterpart$"),
                (moved, r"has no vertical-tangent counterpart \(nearest at t = "),
                ([dataclasses.replace(p, w=p.w + 1e-3) for p in axis],
                 "witness ordinate mismatch")):
            with pytest.raises(ConsistencyError, match=message):
                taxonomy._check_route_agreement(vlocus, axis, projections)


class TestClassifyDeep:
    @pytest.mark.parametrize("cell", [(-5, -5), (-6, -6)])
    def test_every_plane_closed_form_and_witnesses_exact(self, cell):
        curve = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0))
        rpt = classify(cell, curve)
        assert rpt.provenance == "analytic"
        assert [p.provenance for p in rpt.planes] == ["analytic"] * len(rpt.planes)
        assert rpt.verdict is Verdict.LOCALLY_ACTIVE
        u, w = oracles.chain_oracle(lambda x: x + (1.0 / 3.0) * x**3, -max(cell),
                                    [p.t for p in rpt.witnesses])
        assert np.max(np.abs([p.u for p in rpt.witnesses] - u)) <= 1e-9
        assert np.max(np.abs([p.w for p in rpt.witnesses] - w)) <= 1e-9

    # default curves, each with its sympy form
    CURVES = {
        "cubic": (PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), lambda x: x + x**3 / 3.0),
        "tanh": (TanhScaledCurve(), sp.tanh),
        "quintic": (PolynomialCurve((0.0, 0.8, 0.1, 0.3, 0.0, 0.05)),
                    lambda x: 0.8 * x + 0.1 * x**2 + 0.3 * x**3 + 0.05 * x**5),
    }

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_verdict_plane_zero_tangents_are_roots_of_the_exact_rate(self, name):
        # the (-4,-4) verdict plane's rates are the depth-5 jet's: each zero
        # tangent is a root of the exact dw/dt = d^5/dt^5 f(x(t))
        curve, f = self.CURVES[name]
        rpt = classify((-4, -4), curve)
        times = [p.t for p in rpt.verdict_plane.zero_tangents]
        assert times
        scale = np.max(np.abs(oracles.chain_oracle(f, 5, np.linspace(0.0, 2.0 * np.pi, 257))[1]))
        assert np.max(np.abs(oracles.chain_oracle(f, 5, times)[1])) <= 1e-9 * scale


class TestDriveLevelsAreClosedForm:
    """A drive level's zeros are its exact phases, so what is read there is the closed form."""

    X = sp.Symbol("x")
    CURVES = {
        "cubic": (PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), (0.0, 1.0, 0.0, 1.0 / 3.0)),
        "quintic": (PolynomialCurve((0.0, 1.0, 0.2, 0.3, 0.0, 0.05)),
                    (0.0, 1.0, 0.2, 0.3, 0.0, 0.05)),
        "tanh": (TanhScaledCurve(1.0, 1.5), None),
    }

    @classmethod
    def _sympy(cls, name):
        """The curve's sympy form, every float coefficient at its exact binary value."""
        coefficients = cls.CURVES[name][1]
        if coefficients is None:
            return sp.tanh(sp.Float(1.5, 40) * cls.X)
        return sum(sp.Float(c, 40) * cls.X**k for k, c in enumerate(coefficients))

    # bisected phases made the cubic raise ConsistencyError at k = 11, 13
    # and 15, and the quintic at k = 9 and 11
    DEPTH_AXIS = ([(name, k) for name in ("cubic", "quintic", "tanh") for k in range(1, 12)]
                  + [("cubic", k) for k in range(12, 16)])

    @pytest.mark.parametrize("name, k", DEPTH_AXIS)
    def test_diagonal_cell_classifies(self, name, k):
        rpt = classify((-k, -k), self.CURVES[name][0])
        assert rpt.verdict is (Verdict.LOCALLY_PASSIVE if k == 1 else Verdict.LOCALLY_ACTIVE)
        assert rpt.witnesses

    @pytest.mark.parametrize("name", ["cubic", "quintic"])
    def test_first_order_theorem_holds_at_high_frequency(self, name):
        # a bisected pi read y' = f'(x) x' off its zero, an activity witness
        # above the absolute witness_tol at omega = 1e3
        assert theorem_suite([self.CURVES[name][0]], Excitation(omega=1e3)).all_passed

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), amplitude=st.floats(0.2, 1.0),
           log_omega=st.floats(-1.0, 2.0), place=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    def test_memristor_witnesses_are_the_closed_form(self, name, amplitude, log_omega, place):
        # where x'' = 0, x = offset and x' = +-A w, so y'' = f''(offset) (A w)^2
        import mpmath

        offset = amplitude + place * (2.0 - 2.0 * amplitude)
        exc = Excitation(amplitude, 10.0 ** log_omega, offset)
        rpt = classify((-2, -2), self.CURVES[name][0], exc)
        second = sp.lambdify(self.X, sp.diff(self._sympy(name), self.X, 2), modules="mpmath")
        with mpmath.workdps(40):
            want = float(abs(second(mpmath.mpf(offset)))
                         * (mpmath.mpf(exc.amplitude) * mpmath.mpf(exc.omega)) ** 2)
        assert len(rpt.witnesses) == 2
        for p in rpt.witnesses:
            assert abs(abs(p.w) - want) <= 1e-12 * want
        # every abscissa zero lies on its phase: x >= offset - A >= 0 touches 0
        # at phase 0 alone, at 0 and T, and does when the offset is the
        # amplitude; level d > 0 vanishes at the quarter periods q with q + d odd
        period = rpt.loci[0].period
        for plane in rpt.planes:
            times = [p.t for p in plane.abscissa_zeros]
            if plane.depth == 0:
                assert set(times) <= {0.0, period}
                assert offset != amplitude or times == [0.0, period]
                continue
            assert times
            for t in times:
                assert min(abs(t - q / 4.0 * period) for q in range(5) if (q + plane.depth) % 2) \
                    <= 4.0 * np.spacing(period)

    def test_tanh_fourth_order_witnesses_are_the_closed_form(self):
        # where x'' = x'''' = 0 and x' = -x''' = +-1, y'''' = f''''(1) - 4 f''(1)
        f = self._sympy("tanh")
        want = float((sp.diff(f, self.X, 4) - 4 * sp.diff(f, self.X, 2)).subs(self.X, 1)
                     .evalf(40))
        assert want == pytest.approx(-0.089003517089492089, rel=1e-15)
        rpt = classify((-4, -4), self.CURVES["tanh"][0])
        assert len(rpt.witnesses) == 2
        for p in rpt.witnesses:
            assert abs(p.w - want) <= 1e-12 * abs(want)


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

    def test_capability_gate(self, cubic, monkeypatch):
        # a (-16,-16) chain ends at depth 17, past the bound: refused on either
        # chain before any jet or finite difference is taken
        def refused(*args, **kwargs):
            raise AssertionError("a chain past MAX_DERIVATIVE_ORDER was built")

        for module in (transform, loci):
            monkeypatch.setattr(module, "_jet", refused)
        for module in (transform, loci, taxonomy):
            monkeypatch.setattr(module, "numeric_transform", refused)
        for numeric in (False, True):
            with pytest.raises(CapabilityError,
                               match="the chain needs depth 17, past MAX_DERIVATIVE_ORDER 16"):
                classify((-16, -16), cubic, numeric_chain=numeric)

    def test_deep_cell_reads_the_closed_form_chain(self, cubic):
        # every plane of a (-12,-12) chain, the one past the verdict plane too, is
        # off the jet
        rpt = classify((-12, -12), cubic)
        assert [p.provenance for p in rpt.planes] == ["analytic"] * 13
        assert rpt.verdict is Verdict.LOCALLY_ACTIVE and rpt.witnesses

    def test_scaled_drive_fits_scaled_range(self, drive):
        wide = PolynomialCurve(
            coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0), operating_range=(0.0, 4.0)
        )
        rpt = classify((-1, -1), wide, Excitation(amplitude=2.0))
        assert rpt.verdict is Verdict.LOCALLY_PASSIVE

    @staticmethod
    def _classify_huge(cell, numeric_chain=False):
        huge = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0),
                               operating_range=(0.0, 2e100))
        exc = Excitation(amplitude=1e100, omega=1e50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="depth 1 ordinate is beyond float range"):
                classify(cell, huge, exc, numeric_chain=numeric_chain)

    @pytest.mark.parametrize("cell", [(0, 0), (-1, -1), (-2, -2)])
    def test_jet_beyond_float_range_raises(self, cell):
        # the drive levels A w^k are finite; the depth-1 ordinate, about (A w)^3, is not
        self._classify_huge(cell)

    @pytest.mark.parametrize("cell", [(0, 0), (-1, -1), (-2, -2)])
    def test_numeric_chain_jet_beyond_float_range_raises(self, cell):
        # a numeric chain reads the depth-1 ordinate too, as plane 0's rates
        self._classify_huge(cell, numeric_chain=True)

    @pytest.mark.parametrize("numeric", [False, True])
    def test_finite_difference_rates_beyond_float_range_raise(self, cubic, numeric):
        # the verdict plane's finite-difference rates, here at spacing 1.5e-123, of a
        # numeric chain's plane or of the closed-form one; once they overflowed into
        # a zero tangent at t = nan, or a NaN abscissa
        exc = Excitation(omega=1e120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="depth 3 finite differences are beyond "
                                                     "float range: sample spacing 1.5"):
                if numeric:
                    classify((-2, -2), cubic, exc, numeric_chain=True)
                else:
                    numeric_transform(analytic_locus(cubic, exc, 2))
            if not numeric:  # the closed-form chain's own rates need drive level 3
                with pytest.raises(NumericalError, match="drive level 3 is beyond float range"):
                    classify((-2, -2), cubic, exc)


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

    def test_drive_whose_third_level_overflows(self, cubic):
        # the checks read drive levels 0-2 only; level 3 (1e309 here) is not built
        exc = Excitation(amplitude=1.0, omega=1e103)
        checks = theorem_suite([cubic], exc).instances[0].checks
        for name in (CHECK_SINGLE_VALUED, CHECK_MEMRISTOR, CHECK_MEM_INDUCTOR,
                     CHECK_MEM_CAPACITOR):
            assert checks[name].status is CheckStatus.PASS
        # a (-2,-2) classification reads the depth-2 plane's rates, which need it
        with pytest.raises(NumericalError, match="drive level 3 is beyond float range"):
            classify((-2, -2), cubic, exc)

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


def _suite_drives(curve, count=5, seed=7):
    """The default drive and count seeded drives inside the curve's operating range."""
    lo, hi = curve.operating_range
    rng = np.random.default_rng(seed)
    drives = [Excitation()]
    for k in range(count):
        amplitude = rng.uniform(0.1, 0.5 * (hi - lo))
        drives.append(Excitation(amplitude, (0.3, 1.0, 2.7, 13.0)[k % 4],
                                 rng.uniform(lo + amplitude, hi - amplitude)))
    return drives


class TestSuiteAgreesWithClassify:
    """Every figure a suite check reports is the one classify reports, float for float."""

    CURVES = {
        "cubic": PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)),
        "quintic": PolynomialCurve((0.0, 0.8, 0.1, 0.3, 0.0, 0.05)),
        "tanh": TanhScaledCurve(),
        "tanh_steep": TanhScaledCurve(a=1.3, b=0.8),
        "degenerate": PolynomialCurve((0.0, 0.0, 0.5, -1.0 / 6.0)),
    }

    @pytest.mark.parametrize("drive", range(6))
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_checks_read_what_classify_reads(self, name, drive):
        curve = self.CURVES[name]
        exc = _suite_drives(curve)[drive]
        checks = theorem_suite([curve], exc).instances[0].checks
        first = classify((-1, -1), curve, exc)
        assert first.verdict is Verdict.LOCALLY_PASSIVE
        assert checks[CHECK_FIRST_ORDER].data["pinch_times"] == sorted(
            p.t for p in first.witnesses)
        second = classify((-2, -2), curve, exc)
        assert checks[CHECK_SINGLE_VALUED].data["max_pair_gap"] == second.planes[2].max_pair_gap
        for check, cell in ((CHECK_MEMRISTOR, (-2, -2)), (CHECK_MEM_INDUCTOR, (-3, -2)),
                            (CHECK_MEM_CAPACITOR, (-2, -3))):
            rpt = classify(cell, curve, exc)
            result = checks[check]
            if rpt.verdict is Verdict.LOCALLY_ACTIVE:
                assert result.status is CheckStatus.PASS
                assert dict(result.data) == {"witness_magnitude": max(
                    abs(p.u) + abs(p.w) for p in rpt.witnesses)}
            else:
                assert rpt.verdict is Verdict.INCONCLUSIVE
                assert result.status is CheckStatus.INCONCLUSIVE
                assert dict(result.data) == {
                    "candidate_witness_magnitude": rpt.candidate_witness_magnitude}


class TestSuiteFailurePaths:
    """Each check's FAIL and SKIPPED detail, forced where a real curve passes."""

    @staticmethod
    def _patch_cell(monkeypatch, cell, **changes):
        read = taxonomy._verdict

        def patched(descriptor, loci, zeros, tangents, tol):
            reading = read(descriptor, loci, zeros, tangents, tol)
            if (descriptor.alpha, descriptor.beta) == cell:
                reading = reading._replace(**changes)
            return reading

        monkeypatch.setattr(taxonomy, "_verdict", patched)

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

    # one lock-step call refines the whole chain: the ordinate rates y', y''
    # and y''' of the three planes give 8 brackets; the drive levels x ... x'''
    # take their zeros from the phase (12 brackets when their 4 sign changes
    # were bisected too)
    EXPECTED = {"planes": 3, "ideality": 1, "bisect_calls": 1, "brackets": 8}
    # the suite reads planes 1 and 2 only, and plane 2's rates not at all: the
    # row y'' gives 2 brackets (5 when x' and x'' were bisected too, 11 when
    # plane 2's rates x''' and y''' were refined, 12 with plane 0 analysed)
    SUITE_EXPECTED = {"planes": 2, "ideality": 1, "bisect_calls": 1, "brackets": 2}
    # one on the paths aimed at the grid samples' estimates; the endpoint
    # values are the scanned samples (33 calls when each halving took one,
    # 3 when two Chandrupatla calls estimated the roots)
    MAX_HOOK_CALLS = 1

    def test_suite_analyses_one_depth_two_chain(self, cubic, counts):
        assert theorem_suite([cubic]).all_passed
        assert counts.pop("hook_calls") <= self.MAX_HOOK_CALLS
        assert counts == self.SUITE_EXPECTED

    def test_suite_grid_jet_stops_at_depth_two(self, cubic, monkeypatch):
        # plane 2 is the depth-1 chain's rates; no check reads depth 3, so
        # neither the grid jet nor any later jet reaches it (depth 3 before)
        calls = []
        jet = transform._jet

        def recording(curve, exc, t, depth, *args, **kwargs):
            calls.append((np.size(t), depth))
            return jet(curve, exc, t, depth, *args, **kwargs)

        monkeypatch.setattr(transform, "_jet", recording)
        monkeypatch.setattr(loci, "_jet", recording)
        assert theorem_suite([cubic]).all_passed
        assert [call for call in calls if call[0] == DEFAULT_GRID_N + 1] == [
            (DEFAULT_GRID_N + 1, 2)]
        assert max(depth for _, depth in calls) == 2

    def test_classify_builds_one_grid_jet(self, cubic, monkeypatch):
        # the grid jet, the jet of the bisection's one jet_signals call, and
        # the landmark block at every plane's roots; valuedness pairs are
        # read off the grid (26 jets, 7 on the grid, when each reader built
        # its own; 8 jets and 6 calls when the bisection evaluated its
        # endpoints again; 6 when one jet gave the pairs no grid time held;
        # 5 jets and 4 calls when two calls estimated the roots; 3 jets and
        # 2 calls when the landmark values were a jet_signals batch)
        sizes, calls = [], []
        jet, signals = transform._jet, loci.jet_signals

        def counting(curve, exc, t, *args, **kwargs):
            sizes.append(np.size(t))
            return jet(curve, exc, t, *args, **kwargs)

        def counting_signals(*args, **kwargs):
            calls.append(1)
            return signals(*args, **kwargs)

        monkeypatch.setattr(transform, "_jet", counting)
        monkeypatch.setattr(loci, "_jet", counting)
        monkeypatch.setattr(loci, "jet_signals", counting_signals)
        rpt = classify((-2, -2), cubic)
        assert sizes.count(rpt.grid_n + 1) == 1
        assert len(sizes) == 3
        assert len(calls) == 1

    @staticmethod
    def _scanned_shapes(cubic, monkeypatch, n):
        scan, shapes = loci._scan, []

        def recording(vals):
            shapes.append(vals.shape)
            return scan(vals)

        monkeypatch.setattr(loci, "_scan", recording)
        rpt = classify((-2, -2), cubic, grid_n=n)
        assert rpt.grid_n == n
        return shapes

    def test_classify_scans_each_distinct_row_once(self, cubic, monkeypatch):
        # w1, w2 and the depth-2 plane's dw/dt: plane d's rates are plane
        # d + 1's coordinates, and the drive levels u0 ... u3 are not scanned,
        # so 3 rows (7 with the levels, 3 per plane before that); the
        # default grid is one column block
        assert self._scanned_shapes(cubic, monkeypatch, DEFAULT_GRID_N) == [(3, DEFAULT_GRID_N + 1)]

    def test_fine_grid_scans_each_distinct_row_a_block_at_a_time(self, cubic, monkeypatch):
        # a fine grid is scanned a column block at a time, each block
        # starting at the last column of the one before
        n = 4 * DEFAULT_GRID_N + 8
        shapes = self._scanned_shapes(cubic, monkeypatch, n)
        assert {rows for rows, _ in shapes} == {3}
        assert sum(columns - 1 for _, columns in shapes) == n
        assert len(shapes) == -(-n // loci._SCAN_BLOCK)

    def test_chain_loci_are_read_only_views_of_one_grid(self, cubic):
        g = grid(Excitation(), 1024)
        chain = transform.analytic_chain(cubic, Excitation(), 2, g)
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


class TestOnlyReadPlanesAreRefined:
    """Each analysis refines the planes it reads, each with the locus that holds its
    rates, in one pass, and no locus that only holds rates."""

    @pytest.fixture
    def stored(self, monkeypatch):
        made = []
        plane_roots = loci._PlaneRoots

        def counting(*args):
            made.append(args)
            return plane_roots(*args)

        monkeypatch.setattr(loci, "_PlaneRoots", counting)
        return made

    @pytest.mark.parametrize("numeric_chain", [False, True], ids=["closed", "numeric"])
    @pytest.mark.parametrize("depth", range(4))
    def test_classify_stores_the_planes_it_reports(self, cubic, stored, depth, numeric_chain):
        # planes 0 ... depth; the locus past the verdict plane only holds its
        # rates (depth + 2 stored when it was refined too, depth + 3 on a
        # numeric chain past depth 0)
        rpt = classify((-depth, -depth), cubic, numeric_chain=numeric_chain)
        assert len(rpt.planes) == len(stored) == depth + 1

    def test_phase_shift_stores_the_depth_1_plane(self, cubic, stored):
        # the depth-2 locus only holds its rates (2 stored when it was refined)
        loci.phase_shift(cubic, Excitation())
        assert len(stored) == 1

    def test_suite_stores_planes_1_and_2(self, cubic, stored):
        # plane 2's origin crossing and valuedness read its abscissa roots
        assert theorem_suite([cubic]).all_passed
        assert len(stored) == 2

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_numeric_classify_is_one_pass(self, cubic, monkeypatch, depth):
        # plane 0 with its closed-form rates and the finite-difference planes
        # are refined together: one scan of their rows (two when they were
        # two chains) and one bisection
        calls = []
        for name in ("_scan_rows", "bisect"):
            def recording(*args, _fn=getattr(loci, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(loci, name, recording)
        classify((-depth, -depth), cubic, numeric_chain=True)
        assert sorted(calls) == ["_scan_rows", "bisect"]


class TestChainEndsPastTheVerdictPlane:
    """classify's chain ends one plane past the verdict plane, which it does not report:
    off the grid jet on a closed-form chain, by finite differences on a numeric one."""

    # (verdict depth, numeric_chain, the source depths of the finite-difference
    # transforms taken, the depths of the jets on the grid); a numeric chain
    # reads plane 0 and its rates off one jet to depth 1, so at depth 0 finite
    # differences would only hold two more grid rows
    CASES = [(0, False, [], [1]), (1, False, [], [2]), (3, False, [], [4]), (4, False, [], [5]),
             (0, True, [], [1]), (1, True, [0, 1], [1]), (3, True, [0, 1, 2, 3], [1])]

    @pytest.mark.parametrize("depth, numeric, transforms, grid_jets", CASES)
    def test_chain_takes_only_the_evaluations_it_needs(self, cubic, depth, numeric, transforms,
                                                        grid_jets, monkeypatch):
        taken, jets = [], []
        jet, differences = transform._jet, transform.numeric_transform

        def recording_jet(curve, exc, t, top, *args, **kwargs):
            if np.size(t) == DEFAULT_GRID_N + 1:
                jets.append(top)
            return jet(curve, exc, t, top, *args, **kwargs)

        def recording_differences(locus):
            taken.append(locus.depth)
            return differences(locus)

        monkeypatch.setattr(transform, "_jet", recording_jet)
        monkeypatch.setattr(loci, "_jet", recording_jet)
        monkeypatch.setattr(taxonomy, "numeric_transform", recording_differences)
        monkeypatch.setattr(loci, "numeric_transform", recording_differences)
        rpt = classify((-depth, -depth), cubic, numeric_chain=numeric)
        assert (taken, jets) == (transforms, grid_jets)
        assert len(rpt.loci) == len(rpt.planes) == depth + 1
        assert [locus.depth for locus in rpt.loci] == list(range(depth + 1))

    @pytest.mark.parametrize("depth", range(4))
    def test_numeric_chain_refines_its_chains_as_given(self, cubic, depth, monkeypatch):
        # plane 0 with its closed-form rates is one chain and the finite
        # differences another, so no locus's transform is taken on the side,
        # and plane 0 is the closed-form chain's
        cell = (-depth, -depth)
        closed = classify(cell, cubic, tolerances=NUMERIC_DEFAULTS)

        def refused(locus):
            raise AssertionError(f"a depth-{locus.depth} locus's transform was taken")

        monkeypatch.setattr(loci, "_transform", refused)
        numeric = classify(cell, cubic, tolerances=NUMERIC_DEFAULTS, numeric_chain=True)
        assert repr(numeric.planes[0]) == repr(closed.planes[0])


class TestLargeGridMemory:
    """A large-grid classify holds its chain's grid rows once: the rows it scans
    are stacked a column block at a time, and a numeric chain takes one grid jet."""

    @pytest.mark.parametrize("numeric", [False, True])
    def test_peak_is_the_report_and_a_few_rows(self, cubic, numeric):
        n = 65536
        classify((-2, -2), cubic, grid_n=n, numeric_chain=numeric)  # caches outside the trace
        tracemalloc.start()
        try:
            rpt = classify((-2, -2), cubic, grid_n=n, numeric_chain=numeric)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rpt.grid_n == n
        # beyond what the report holds: the jet's Bell rows, or an analysis's
        # temporaries, not a stack of the chain's rows and its masks
        assert peak - held <= 5 * 8 * (n + 1)


def _classify_distinct(seed: int, workdir, monkeypatch):
    """The benchmark's classify-distinct workload (bench/workloads.py) for seed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.ClassifyDistinct(seed, workdir)


class TestHookCallsPerBisection:
    # calls per bisection on ops 0-119 of seed 13: 2.13 at n = 256 and 1.05
    # at n = 4096 (3.43 and 3.00 when two Chandrupatla calls estimated the
    # roots); a coarse grid seeds the roots less closely
    @pytest.mark.parametrize("n, bound", [(256, 2.25), (4096, 1.1)])
    def test_classify_distinct_cells(self, n, bound, tmp_path, monkeypatch):
        ops = _classify_distinct(13, tmp_path, monkeypatch)
        tally = {"bisect": 0, "calls": 0}
        bisect = loci.bisect

        def counting(fn, *args, **kwargs):
            tally["bisect"] += 1

            def hook(*hook_args):
                tally["calls"] += 1
                return fn(*hook_args)

            return bisect(hook, *args, **kwargs)

        monkeypatch.setattr(loci, "bisect", counting)
        for i in range(120):
            cell, curve, exc = ops.make(i).payload
            classify(cell, curve, exc, grid_n=n)
        assert tally["bisect"] == 120
        assert tally["calls"] <= bound * tally["bisect"]


class TestPairGapOracle:
    """The depth-1 pair gap is the gap between A(t0) and B(pi - t0), from the curve's slope.

    At depth 1 the locus is (x', f'(x) x') with x = off - A cos(theta),
    theta = omega t, and its pair at pi - theta has the same abscissa
    A omega sin(theta), so the gap is
    A omega |sin(theta)| |f'(off - A cos(theta)) - f'(off + A cos(theta))|.
    """

    # each curve and its slope f', written out
    SLOPES = {
        "cubic": (PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), lambda x: 1.0 + x * x),
        "tanh": (TanhScaledCurve(a=1.3, b=0.8), lambda x: 1.3 * 0.8 / np.cosh(0.8 * x) ** 2),
    }

    @pytest.mark.parametrize("exc", [Excitation(), Excitation(0.8, 1.7, 1.0)])
    @pytest.mark.parametrize("name", sorted(SLOPES))
    def test_depth_one_gap_is_the_closed_form_gap(self, name, exc):
        curve, slope = self.SLOPES[name]
        rpt = classify((-2, -2), curve, exc, grid_n=4096)
        assert rpt.planes[1].depth == 1
        theta = exc.omega * grid(exc, 4096).t_values
        a, off = exc.amplitude, exc.offset
        gap = a * exc.omega * np.abs(np.sin(theta)) * np.abs(
            slope(off - a * np.cos(theta)) - slope(off + a * np.cos(theta)))
        assert rpt.planes[1].max_pair_gap == pytest.approx(gap.max(), rel=1e-12, abs=0.0)


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
    rpt = classify((-depth, -depth), curve, exc, grid_n=n, numeric_chain=numeric)
    for plane, locus, (oc, (zero, vertical, arcs), alone) in zip(
            rpt.planes, rpt.loci,
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
