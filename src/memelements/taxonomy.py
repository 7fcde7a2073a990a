"""Element taxonomy: periodic-table descriptors and passivity classification.

An element is addressed by a pair of non-positive integers (alpha, beta)
naming the differentiation levels of its two constitutive attributes on
the voltage side and the current side.  alpha = beta gives the memristor
diagonal, alpha = beta - 1 the mem-inductor diagonal, beta = alpha - 1
the mem-capacitor diagonal.  Classification walks the differential locus
chain of a concrete curve up to the verdict plane, collects geometric
witnesses, and decides local passivity or activity.

Two independent witness routes back every activity verdict: ordinates
read at the verdict-plane abscissa zeros, and tangent landmarks of the
previous plane projected forward.  The routes must agree numerically;
disagreement is an internal error, never a verdict.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .constitutive import _RANGE_EPS, ConstitutiveCurve, IdealityReport, check_ideality
from .errors import CapabilityError, ConsistencyError, DomainError
from .excitation import DEFAULT_GRID_N, Excitation, grid
from .loci import (
    ArcInterval,
    PointKind,
    SpecialPoint,
    Valuedness,
    odd_symmetry,
    origin_crossing,
    project_landmarks,
    rate_landmarks,
    refine_chain,
    valuedness,
)
from .tolerances import ANALYTIC_DEFAULTS, NUMERIC_DEFAULTS, ToleranceSet
from .transform import ParametricLocus, analytic_chain, analytic_locus, numeric_transform

__all__ = [
    "ElementDescriptor",
    "TableEntry",
    "table_position",
    "plane_labels",
    "Verdict",
    "Degeneration",
    "InternalSource",
    "PlaneAnalysis",
    "ClassificationReport",
    "classify",
    "CheckStatus",
    "CheckResult",
    "SuiteInstance",
    "SuiteReport",
    "theorem_suite",
    "ALL_CHECKS",
]


# ----------------------------------------------------------------------
# descriptors and table placement
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ElementDescriptor:
    """Attribute levels (alpha, beta): voltage-side and current-side."""

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        # a level is an integer, not a bool, or a float with an integral value
        for name in ("alpha", "beta"):
            level = getattr(self, name)
            if isinstance(level, bool) or not (isinstance(level, numbers.Integral) or (
                    isinstance(level, numbers.Real) and float(level).is_integer())):
                raise DomainError(f"descriptor level {name} must be an integer, got {level!r}")
            object.__setattr__(self, name, int(level))
        if self.alpha > 0 or self.beta > 0:
            raise DomainError(
                f"descriptor ({self.alpha}, {self.beta}) lies outside the "
                "element table; both levels must be non-positive"
            )

    @property
    def transforms_to_verdict_plane(self) -> int:
        return -max(self.alpha, self.beta)

    @property
    def kind(self) -> str:
        if self.alpha == self.beta:
            return "memristor"
        if self.alpha == self.beta - 1:
            return "mem-inductor"
        if self.beta == self.alpha - 1:
            return "mem-capacitor"
        return "mixed"


_STAR_NAMES = {
    (0, 0): "resistor",
    (-1, 0): "inductor",
    (0, -1): "capacitor",
    (-1, -1): "memristor",
    (-2, -1): "mem-inductor",
    (-1, -2): "mem-capacitor",
}

_CURRENT_BASE = ("i", "q", "σ")   # sigma
_VOLTAGE_BASE = ("v", "φ", "ρ")   # phi, rho


def _side_label(base: tuple[str, str, str], level: int) -> str:
    if level > 0:
        return base[0] + ("'" * level if level <= 3 else f"^({level})")
    k = -level
    if k < 3:
        return base[k]
    return ("∫" * (k - 2) if k - 2 <= 4 else f"∫^({k - 2})") + base[2]


def plane_labels(descriptor: ElementDescriptor, depth: int) -> tuple[str, str]:
    """(abscissa, ordinate) labels of the depth-k plane for this element."""
    return (
        _side_label(_CURRENT_BASE, descriptor.beta + depth),
        _side_label(_VOLTAGE_BASE, descriptor.alpha + depth),
    )


@dataclass(frozen=True)
class TableEntry:
    name: str
    in_six_pointed_star: bool
    constitutive_labels: tuple[str, str]
    verdict_labels: tuple[str, str]


def table_position(descriptor: ElementDescriptor) -> TableEntry:
    """Name and axis labels of the element at the descriptor's table cell."""
    key = (descriptor.alpha, descriptor.beta)
    if key in _STAR_NAMES:
        name = _STAR_NAMES[key]
        star = True
    else:
        star = False
        kind = descriptor.kind
        name = f"higher-order {kind}" if kind != "mixed" else "unnamed higher-order element"
    return TableEntry(
        name=name,
        in_six_pointed_star=star,
        constitutive_labels=plane_labels(descriptor, 0),
        verdict_labels=plane_labels(
            descriptor, descriptor.transforms_to_verdict_plane
        ),
    )


# ----------------------------------------------------------------------
# classification report types
# ----------------------------------------------------------------------

class Verdict(Enum):
    LOCALLY_PASSIVE = "locally_passive"
    LOCALLY_ACTIVE = "locally_active"
    INCONCLUSIVE = "inconclusive"


class Degeneration(Enum):
    NONE = "none"
    NEGATIVE_NONLINEAR_RESISTOR = "negative_nonlinear_resistor"
    NEGATIVE_NONLINEAR_INDUCTOR = "negative_nonlinear_inductor"
    NEGATIVE_NONLINEAR_CAPACITOR = "negative_nonlinear_capacitor"


class InternalSource(Enum):
    NONE = "none"
    CURRENT_SOURCE = "current_source"
    VOLTAGE_SOURCE = "voltage_source"


@dataclass(frozen=True)
class PlaneAnalysis:
    """Geometry summary of one locus in the chain."""

    depth: int
    axis_labels: tuple[str, str]
    provenance: str
    pinched: bool
    pinch_points: tuple[SpecialPoint, ...]
    abscissa_zeros: tuple[SpecialPoint, ...]
    valuedness: Valuedness
    max_pair_gap: float
    odd_symmetric: bool
    odd_violation: float
    zero_tangents: tuple[SpecialPoint, ...]
    vertical_tangents: tuple[SpecialPoint, ...]
    negative_arcs: tuple[ArcInterval, ...]


@dataclass(frozen=True)
class ClassificationReport:
    descriptor: ElementDescriptor
    element: TableEntry
    excitation: Excitation
    grid_n: int
    provenance: str
    tolerances: ToleranceSet
    ideality: IdealityReport
    planes: tuple[PlaneAnalysis, ...]
    verdict: Verdict
    witnesses: tuple[SpecialPoint, ...]
    candidate_witness_magnitude: float | None
    degeneration: Degeneration
    internal_source: InternalSource
    caveats: tuple[str, ...]
    # the locus chain the verdict was read from, one locus per plane
    loci: tuple[ParametricLocus, ...] = field(repr=False, compare=False)

    @property
    def verdict_plane(self) -> PlaneAnalysis:
        return self.planes[-1]


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def _as_descriptor(descriptor) -> ElementDescriptor:
    if isinstance(descriptor, ElementDescriptor):
        return descriptor
    try:
        alpha, beta = descriptor
    except (TypeError, ValueError):
        raise DomainError(
            f"descriptor must be an (alpha, beta) pair, got {descriptor!r}") from None
    return ElementDescriptor(alpha, beta)


def _analyze_plane(locus: ParametricLocus, tol: ToleranceSet) -> PlaneAnalysis:
    oc = origin_crossing(locus, tol.pinch_tol)
    val = valuedness(locus, tol.valuedness_tol)
    sym = odd_symmetry(locus, tol.valuedness_tol)
    zero, vertical, arcs = rate_landmarks(locus, tol.root_tol)
    return PlaneAnalysis(
        depth=locus.depth,
        axis_labels=locus.axis_labels,
        provenance=locus.provenance,
        pinched=oc.crosses_origin,
        pinch_points=oc.pinch_points,
        abscissa_zeros=oc.abscissa_zeros,
        valuedness=val.kind,
        max_pair_gap=val.max_gap,
        odd_symmetric=sym.odd_symmetric,
        odd_violation=sym.max_violation,
        zero_tangents=zero,
        vertical_tangents=vertical,
        negative_arcs=arcs,
    )


def _check_route_agreement(
    vlocus: ParametricLocus,
    axis_witnesses: tuple[SpecialPoint, ...],
    q_projections: tuple[SpecialPoint, ...],
    tol: ToleranceSet,
) -> None:
    """Axis-crossing witnesses must match the vertical-tangent projections.

    Both routes locate the same verdict-plane points through different
    code paths (abscissa roots of the verdict locus vs tangent roots of
    the source locus).  Any numerical disagreement is an internal bug,
    so it raises instead of shading the verdict.
    """
    if not axis_witnesses:
        return
    T = vlocus.period
    if vlocus.provenance == "analytic":
        t_tol = 1e-6 * T
        v_tol = 1e-6
    else:
        t_tol = 8.0 * vlocus.spacing
        v_tol = 1e-2
    for p in axis_witnesses:
        if not q_projections:
            raise ConsistencyError(
                f"axis-crossing witness at t = {p.t} has no vertical-tangent "
                "counterpart"
            )
        q = min(q_projections, key=lambda s: abs(s.t - p.t))
        if abs(q.t - p.t) > t_tol:
            raise ConsistencyError(
                f"axis-crossing witness at t = {p.t} has no vertical-tangent "
                f"counterpart (nearest at t = {q.t})"
            )
        if abs(q.w - p.w) > v_tol * max(1.0, abs(p.w)):
            raise ConsistencyError(
                f"witness ordinate mismatch at t = {p.t}: axis route {p.w} "
                f"vs tangent route {q.w}"
            )


def _select_witnesses(
    kind: str,
    eq_axis: tuple[SpecialPoint, ...],
    c_off: tuple[SpecialPoint, ...],
    q_off: tuple[SpecialPoint, ...],
) -> tuple[SpecialPoint, ...]:
    if kind == "memristor":
        return eq_axis or (c_off + q_off)
    if kind == "mem-inductor":
        return c_off or (eq_axis + q_off)
    if kind == "mem-capacitor":
        return q_off or (eq_axis + c_off)
    return eq_axis + c_off + q_off


class _Reading(NamedTuple):
    """What a verdict plane says: the verdict, its witnesses, the largest
    candidate when it is inconclusive, and the caveats it adds."""

    verdict: Verdict
    witnesses: tuple[SpecialPoint, ...]
    candidate: float | None
    caveats: tuple[str, ...]


def _verdict(
    descriptor: ElementDescriptor,
    loci: tuple[ParametricLocus, ...],
    planes: tuple[PlaneAnalysis, ...],
    tol: ToleranceSet,
) -> _Reading:
    """The descriptor's verdict, read off loci and planes that end at its verdict plane.

    Only the verdict plane and, two or more transforms deep, the plane
    before it (the source of the tangent-landmark route) are read.
    """
    k = descriptor.transforms_to_verdict_plane
    vp = planes[-1]
    wtol = tol.witness_tol

    if k <= 1:
        off = tuple(
            p for p in vp.abscissa_zeros
            if p.kind is not PointKind.PINCH and abs(p.w) > wtol
        )
        if off:
            return _Reading(Verdict.LOCALLY_ACTIVE, off, None, ())
        if vp.pinched:
            return _Reading(Verdict.LOCALLY_PASSIVE, vp.pinch_points, None, ())
        cand = max((abs(p.w) for p in vp.abscissa_zeros), default=0.0)
        return _Reading(
            Verdict.INCONCLUSIVE,
            (),
            cand,
            ("verdict plane neither crosses the origin nor shows a witness",),
        )

    vlocus, source, src = loci[-1], loci[-2], planes[-2]
    eq_axis = tuple(p for p in vp.abscissa_zeros if abs(p.w) > wtol)
    # the verdict plane's points at the source plane's tangent landmarks
    c_proj = project_landmarks(source, src.zero_tangents)
    q_proj = project_landmarks(source, src.vertical_tangents)
    _check_route_agreement(vlocus, eq_axis, q_proj, tol)

    c_off = tuple(p for p in c_proj if abs(p.u) > wtol)
    q_off = tuple(p for p in q_proj if abs(p.w) > wtol)

    if eq_axis or c_off or q_off:
        witnesses = _select_witnesses(descriptor.kind, eq_axis, c_off, q_off)
        return _Reading(Verdict.LOCALLY_ACTIVE, witnesses, None, ())

    cand = max(
        [abs(p.w) for p in vp.abscissa_zeros]
        + [abs(p.u) for p in c_proj]
        + [abs(p.w) for p in q_proj],
        default=0.0,
    )
    return _Reading(
        Verdict.INCONCLUSIVE,
        (),
        cand,
        (
            "all activity-witness candidates fall below witness_tol; "
            "higher-order terms decide at this operating point",
        ),
    )


# what a locally active element two or more transforms deep degenerates into
_CONSEQUENCES = {
    # the source type is operating-point dependent for this diagonal
    "memristor": (Degeneration.NEGATIVE_NONLINEAR_RESISTOR, InternalSource.NONE),
    "mem-inductor": (Degeneration.NEGATIVE_NONLINEAR_INDUCTOR, InternalSource.CURRENT_SOURCE),
    "mem-capacitor": (Degeneration.NEGATIVE_NONLINEAR_CAPACITOR, InternalSource.VOLTAGE_SOURCE),
}


def _consequences(
    descriptor: ElementDescriptor, verdict: Verdict
) -> tuple[Degeneration, InternalSource]:
    if verdict is Verdict.LOCALLY_ACTIVE and descriptor.transforms_to_verdict_plane >= 2:
        return _CONSEQUENCES.get(descriptor.kind, (Degeneration.NONE, InternalSource.NONE))
    return Degeneration.NONE, InternalSource.NONE


@dataclass(frozen=True)
class _ChainAnalysis:
    """The analysed part of one locus chain, built with default labels, and its
    plane geometry: loci[i] and planes[i] are plane first + i."""

    grid_n: int
    provenance: str
    loci: tuple[ParametricLocus, ...]
    planes: tuple[PlaneAnalysis, ...]


def _analyze_chain(
    curve: ConstitutiveCurve,
    exc: Excitation,
    depth: int,
    tol: ToleranceSet,
    grid_n: int,
    numeric_chain: bool,
    first: int = 0,
) -> _ChainAnalysis:
    """Build the chain from the constitutive plane to depth, analyse planes first..depth.

    Every root the plane analyses need is refined first, for those planes
    in one lock-step bisection.  classify reads every plane; the theorem
    suite reads planes 1 and 2 only.
    """
    if curve.max_derivative_order < depth:
        raise CapabilityError(
            f"classification to the verdict plane needs {depth} transforms; "
            f"curve supports {curve.max_derivative_order}"
        )
    lo, hi = curve.operating_range
    sw_lo, sw_hi = exc.sweep_range
    span = hi - lo
    if sw_lo < lo - _RANGE_EPS * span or sw_hi > hi + _RANGE_EPS * span:
        raise DomainError(
            f"drive sweep [{sw_lo}, {sw_hi}] exceeds the curve operating "
            f"range [{lo}, {hi}]"
        )
    g = grid(exc, grid_n)
    if numeric_chain:
        chain = [analytic_locus(curve, exc, 0, g)]
        for _ in range(depth):
            chain.append(numeric_transform(chain[-1]))
        rates = None
    else:
        chain, rates = analytic_chain(curve, exc, depth, g)
    loci = tuple(chain[first:])
    refine_chain(loci, rates)
    return _ChainAnalysis(
        grid_n=g.count,
        provenance="numeric" if numeric_chain else "analytic",
        loci=loci,
        planes=tuple(_analyze_plane(locus, tol) for locus in loci),
    )


def classify(
    descriptor,
    curve: ConstitutiveCurve,
    exc: Excitation | None = None,
    tolerances: ToleranceSet | None = None,
    grid_n: int = DEFAULT_GRID_N,
    numeric_chain: bool = False,
) -> ClassificationReport:
    """Full local-activity classification of a curve placed at a table cell.

    The locus chain runs from the constitutive plane to the verdict plane
    (one transform per level up to zero).  numeric_chain = True rebuilds
    the chain with finite differences instead of the closed-form rule;
    tolerances then default to the relaxed numeric preset.
    """
    descriptor = _as_descriptor(descriptor)
    exc = exc if exc is not None else Excitation()
    tol = tolerances or (NUMERIC_DEFAULTS if numeric_chain else ANALYTIC_DEFAULTS)
    analysis = _analyze_chain(
        curve, exc, descriptor.transforms_to_verdict_plane, tol, grid_n, numeric_chain
    )
    planes = tuple(replace(plane, axis_labels=plane_labels(descriptor, d))
                   for d, plane in enumerate(analysis.planes))
    ideality = check_ideality(curve, tol)
    caveats: list[str] = []
    if not ideality.ideal:
        caveats.append("curve is not ideal: fails " + ", ".join(ideality.failed_criteria()))
    reading = _verdict(descriptor, analysis.loci, planes, tol)
    caveats.extend(reading.caveats)
    degeneration, source = _consequences(descriptor, reading.verdict)

    return ClassificationReport(
        descriptor=descriptor,
        element=table_position(descriptor),
        excitation=exc,
        grid_n=analysis.grid_n,
        provenance=analysis.provenance,
        tolerances=tol,
        ideality=ideality,
        planes=planes,
        verdict=reading.verdict,
        witnesses=reading.witnesses,
        candidate_witness_magnitude=reading.candidate,
        degeneration=degeneration,
        internal_source=source,
        caveats=tuple(caveats),
        loci=analysis.loci,
    )


# ----------------------------------------------------------------------
# theorem property suite
# ----------------------------------------------------------------------

CHECK_FIRST_ORDER = "first_order_passivity"
CHECK_SINGLE_VALUED = "single_valued_after_two_transforms"
CHECK_MEMRISTOR = "second_order_memristor_activity"
CHECK_MEM_INDUCTOR = "second_order_mem_inductor_activity"
CHECK_MEM_CAPACITOR = "second_order_mem_capacitor_activity"

ALL_CHECKS = (
    CHECK_FIRST_ORDER,
    CHECK_SINGLE_VALUED,
    CHECK_MEMRISTOR,
    CHECK_MEM_INDUCTOR,
    CHECK_MEM_CAPACITOR,
)


class CheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CheckResult:
    status: CheckStatus
    detail: str
    data: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", MappingProxyType(dict(self.data)))


@dataclass(frozen=True)
class SuiteInstance:
    index: int
    label: str
    family: str
    ideal: bool
    failed_criteria: tuple[str, ...]
    checks: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "checks", MappingProxyType(dict(self.checks)))


@dataclass(frozen=True)
class SuiteReport:
    instances: tuple[SuiteInstance, ...]
    aggregate: Mapping
    counterexamples: tuple[str, ...]
    all_passed: bool

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "aggregate",
            MappingProxyType(
                {k: MappingProxyType(dict(v)) for k, v in dict(self.aggregate).items()}
            ),
        )


# the second-order cells the suite expects to be locally active; what each
# degenerates into is read off _CONSEQUENCES, as for every report
_ACTIVITY_CELLS = {
    CHECK_MEMRISTOR: ElementDescriptor(-2, -2),
    CHECK_MEM_INDUCTOR: ElementDescriptor(-3, -2),
    CHECK_MEM_CAPACITOR: ElementDescriptor(-2, -3),
}


def _skipped_checks(reason: str, names: tuple[str, ...] = ALL_CHECKS) -> dict:
    return {name: CheckResult(CheckStatus.SKIPPED, reason, {}) for name in names}


def _first_order_check(reading: _Reading, period: float) -> CheckResult:
    """First order is passive, pinched at the drive-rate zeros 0, T/2 and T."""
    if reading.verdict is not Verdict.LOCALLY_PASSIVE:
        return CheckResult(CheckStatus.FAIL,
                           f"first-order verdict was {reading.verdict.value}", {})
    got = np.array(sorted(p.t for p in reading.witnesses))
    expected = np.array([0.0, 0.5 * period, period])
    if len(got) == len(expected) and np.max(np.abs(got - expected)) < 1e-6:
        status, detail = CheckStatus.PASS, "pinched at every drive-rate zero"
    else:
        status, detail = CheckStatus.FAIL, "pinch times do not match the drive-rate zeros"
    return CheckResult(status, detail, {"pinch_times": [float(v) for v in got]})


def _activity_check(reading: _Reading) -> CheckResult:
    if reading.verdict is Verdict.LOCALLY_ACTIVE:
        best = max((abs(p.w) + abs(p.u) for p in reading.witnesses), default=0.0)
        return CheckResult(CheckStatus.PASS, "locally active with off-origin witness",
                           {"witness_magnitude": best})
    if reading.verdict is Verdict.INCONCLUSIVE:
        return CheckResult(
            CheckStatus.INCONCLUSIVE,
            "witness degenerates at this operating point; activity undecided",
            {"candidate_witness_magnitude": reading.candidate or 0.0})
    return CheckResult(CheckStatus.FAIL, "expected local activity, classified locally passive", {})


def _suite_checks(
    curve: ConstitutiveCurve,
    exc: Excitation,
    tol: ToleranceSet,
    grid_n: int,
    ideality: IdealityReport,
) -> dict[str, CheckResult]:
    """The five checks of one curve, in ALL_CHECKS order, read off planes 1 and 2 of one chain."""
    if not ideality.ideal:
        return _skipped_checks("curve not ideal: fails " + ", ".join(ideality.failed_criteria()))
    analysis = _analyze_chain(curve, exc, min(2, curve.max_derivative_order), tol, grid_n, False,
                              first=1)
    loci, planes = analysis.loci, analysis.planes
    first = _verdict(ElementDescriptor(-1, -1), loci[:1], planes[:1], tol)
    checks = {CHECK_FIRST_ORDER: _first_order_check(first, exc.period)}
    if curve.max_derivative_order < 2:
        return checks | _skipped_checks("needs second derivatives", ALL_CHECKS[1:])
    plane2 = planes[1]
    checks[CHECK_SINGLE_VALUED] = CheckResult(
        CheckStatus.PASS if plane2.valuedness is Valuedness.SINGLE else CheckStatus.FAIL,
        f"depth-2 locus is {plane2.valuedness.value}-valued",
        {"max_pair_gap": plane2.max_pair_gap},
    )
    for name, cell in _ACTIVITY_CELLS.items():
        checks[name] = _activity_check(_verdict(cell, loci, planes, tol))
    return checks


def theorem_suite(
    curves,
    exc: Excitation | None = None,
    tolerances: ToleranceSet | None = None,
    grid_n: int = DEFAULT_GRID_N,
) -> SuiteReport:
    """Run the five structural property checks over a set of curves.

    Non-ideal curves have every check skipped (the properties only bind
    for ideal curves); degenerate activity witnesses report inconclusive
    rather than failing.  all_passed means no check failed anywhere.
    """
    exc = exc if exc is not None else Excitation()
    tol = tolerances or ANALYTIC_DEFAULTS
    instances: list[SuiteInstance] = []
    for index, curve in enumerate(curves):
        lo, hi = curve.operating_range
        label = f"{curve.family}[{lo:g},{hi:g}]"
        ideality = check_ideality(curve, tol)
        instances.append(SuiteInstance(
            index=index, label=label, family=curve.family, ideal=ideality.ideal,
            failed_criteria=ideality.failed_criteria(),
            checks=_suite_checks(curve, exc, tol, grid_n, ideality)))

    aggregate = {name: {status.value: 0 for status in CheckStatus} for name in ALL_CHECKS}
    counterexamples: list[str] = []
    for inst in instances:
        for name, result in inst.checks.items():
            aggregate[name][result.status.value] += 1
            if result.status is CheckStatus.FAIL:
                counterexamples.append(
                    f"instance {inst.index} ({inst.label}): {name}: {result.detail}")

    return SuiteReport(
        instances=tuple(instances),
        aggregate=aggregate,
        counterexamples=tuple(counterexamples),
        all_passed=not counterexamples,
    )
