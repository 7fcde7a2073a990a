import numpy as np
import pytest

from memelements import (
    ALL_CHECKS,
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
    PiecewiseLinearCurve,
    PointKind,
    PolynomialCurve,
    Valuedness,
    Verdict,
    classify,
    plane_labels,
    table_position,
    theorem_suite,
)
from memelements import loci, taxonomy
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


class TestChainAnalysedOnce:
    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"planes": 0, "ideality": 0, "bisect_calls": 0, "brackets": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                tally[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        bisect = loci.bisect

        def counting_bisect(fn, a, b, *args, **kwargs):
            tally["bisect_calls"] += 1
            tally["brackets"] += np.size(a)
            return bisect(fn, a, b, *args, **kwargs)

        # origin_crossing runs once per plane analysed
        monkeypatch.setattr(taxonomy, "origin_crossing",
                            counting("planes", taxonomy.origin_crossing))
        monkeypatch.setattr(taxonomy, "check_ideality",
                            counting("ideality", taxonomy.check_ideality))
        monkeypatch.setattr(loci, "bisect", counting_bisect)
        return tally

    # 15 brackets, refined in one lock-step call per signal scanned: the
    # abscissa of the depth-1 and depth-2 planes and the rates of each plane
    EXPECTED = {"planes": 3, "ideality": 1, "bisect_calls": 5, "brackets": 15}

    def test_suite_analyses_one_depth_two_chain(self, cubic, counts):
        assert theorem_suite([cubic]).all_passed
        assert counts == self.EXPECTED

    def test_classify_refines_each_root_once(self, cubic, counts):
        classify((-2, -2), cubic)
        assert counts == self.EXPECTED
