"""Numerical tolerances used across the analysis pipeline.

Analyses on closed-form loci run near machine precision, so the defaults
are tight.  Loci produced by finite differences carry O(h^2) truncation
error and need the relaxed preset instead.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class ToleranceSet:
    """Tolerance knobs for geometry tests and verdict witnesses.

    pinch_tol       max |coordinate| for a point to count as the origin
    valuedness_tol  max ordinate gap between paired times on a single-valued locus
    root_tol        residual bound for refined roots of derivative signals
    slope_tol       slope threshold for monotonicity and kink detection
    nonlin_tol      secant deviation (relative to ordinate span) below which
                    a curve counts as affine
    phase_tol       time resolution for peak comparisons
    witness_tol     min |coordinate| for an off-origin activity witness
    """

    pinch_tol: float = 1e-9
    valuedness_tol: float = 1e-9
    root_tol: float = 1e-10
    slope_tol: float = 1e-9
    nonlin_tol: float = 1e-9
    phase_tol: float = 1e-6
    witness_tol: float = 1e-8

    def __post_init__(self) -> None:
        for knob in fields(self):
            if not 0.0 < getattr(self, knob.name) < float("inf"):
                raise ValueError(f"{knob.name} must be positive and finite")

    def for_numeric(self) -> "ToleranceSet":
        """Relaxed copy suitable for finite-difference loci."""
        return replace(
            self,
            pinch_tol=max(self.pinch_tol, 1e-4),
            valuedness_tol=max(self.valuedness_tol, 1e-4),
            witness_tol=max(self.witness_tol, 1e-3),
        )


ANALYTIC_DEFAULTS = ToleranceSet()
NUMERIC_DEFAULTS = ANALYTIC_DEFAULTS.for_numeric()
