"""Memory circuit element modeling and local-activity classification.

The package models two-terminal circuit elements through constitutive
curves y = f(x), projects those curves through chains of differential
transforms under a raised-cosine drive, and classifies the resulting
loci: pinched hysteresis, valuedness, symmetry, and local passivity or
activity with explicit numerical witnesses.
"""

from .constitutive import (
    ConstitutiveCurve,
    IdealityReport,
    LogisticCurve,
    PiecewiseLinearCurve,
    PolynomialCurve,
    TanhScaledCurve,
    TwoBranchCurve,
    check_ideality,
    mvt_point,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ConsistencyError,
    DomainError,
    MemElementsError,
    NumericalError,
)
from .excitation import DEFAULT_GRID_N, Excitation, SampleGrid, excite, grid
from .loci import (
    ArcInterval,
    OriginCrossing,
    PhaseClass,
    PhaseReport,
    PointKind,
    SpecialPoint,
    SymmetryReport,
    Valuedness,
    ValuednessReport,
    ValuednessWitness,
    negative_slope_arcs,
    odd_symmetry,
    origin_crossing,
    phase_shift,
    point_at,
    rate_landmarks,
    valuedness,
    vertical_tangent_points,
    zero_tangent_points,
)
from .taxonomy import (
    ALL_CHECKS,
    CHECK_FIRST_ORDER,
    CHECK_MEM_CAPACITOR,
    CHECK_MEM_INDUCTOR,
    CHECK_MEMRISTOR,
    CHECK_SINGLE_VALUED,
    CheckResult,
    CheckStatus,
    ClassificationReport,
    Degeneration,
    ElementDescriptor,
    InternalSource,
    PlaneAnalysis,
    SuiteInstance,
    SuiteReport,
    TableEntry,
    Verdict,
    classify,
    plane_labels,
    table_position,
    theorem_suite,
)
from .tolerances import ANALYTIC_DEFAULTS, NUMERIC_DEFAULTS, ToleranceSet
from .transform import (
    ParametricLocus,
    analytic_locus,
    chain_ordinate,
    locus_to_csv,
    numeric_transform,
    periodic_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MemElementsError",
    "DomainError",
    "CapabilityError",
    "NumericalError",
    "ConsistencyError",
    "ConfigError",
    # constitutive
    "ConstitutiveCurve",
    "PolynomialCurve",
    "TanhScaledCurve",
    "LogisticCurve",
    "PiecewiseLinearCurve",
    "TwoBranchCurve",
    "IdealityReport",
    "check_ideality",
    "mvt_point",
    # excitation
    "Excitation",
    "DEFAULT_GRID_N",
    "SampleGrid",
    "excite",
    "grid",
    # transform
    "ParametricLocus",
    "chain_ordinate",
    "analytic_locus",
    "numeric_transform",
    "periodic_derivative",
    "locus_to_csv",
    # loci
    "PointKind",
    "SpecialPoint",
    "ArcInterval",
    "SymmetryReport",
    "Valuedness",
    "ValuednessWitness",
    "ValuednessReport",
    "OriginCrossing",
    "PhaseClass",
    "PhaseReport",
    "point_at",
    "origin_crossing",
    "valuedness",
    "odd_symmetry",
    "zero_tangent_points",
    "vertical_tangent_points",
    "negative_slope_arcs",
    "rate_landmarks",
    "phase_shift",
    # tolerances
    "ToleranceSet",
    "ANALYTIC_DEFAULTS",
    "NUMERIC_DEFAULTS",
    # taxonomy
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
    "CHECK_FIRST_ORDER",
    "CHECK_SINGLE_VALUED",
    "CHECK_MEMRISTOR",
    "CHECK_MEM_INDUCTOR",
    "CHECK_MEM_CAPACITOR",
]
