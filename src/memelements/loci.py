"""Geometric analyses of parametric loci.

Everything here consumes a ParametricLocus and reports geometry with
numerical witnesses: origin crossings, tangent landmarks, symmetry,
valuedness, negative-slope arcs, and the ordinate/abscissa phase lag.
Roots are located by sign-change scans over the sample grid and, when
the locus has evaluation hooks, refined by one lock-step bisection per
scan: every bracket of a signal (or of both coordinate rates) halves
together, one hook call per step, and each lands on exactly the root
scipy.optimize.bisect would return for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constitutive import ConstitutiveCurve
from .errors import CapabilityError, NumericalError
from .excitation import Excitation, excite
from .transform import ParametricLocus, chain_ordinate, periodic_derivative

__all__ = [
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
    "bisect",
]

# scipy.optimize.bisect's defaults, which bisect below reproduces
_BISECT_RTOL = 4.0 * np.finfo(float).eps
_BISECT_MAXITER = 100


class PointKind(Enum):
    PINCH = "pinch"
    ZERO_TANGENT = "zero_tangent"
    VERTICAL_TANGENT = "vertical_tangent"
    ACTIVITY_WITNESS = "activity_witness"
    PROJECTED = "projected"


@dataclass(frozen=True)
class SpecialPoint:
    """A landmark on a locus: where it sits, what it is, how it points.

    chord_angle is the direction of the chord from the origin and is None
    exactly when the point lies on the origin.  tangent_angle, when set,
    is the traversal tangent direction at the point (principal value for
    projections, 0 for zero tangents, pi/2 for vertical tangents).
    """

    t: float
    u: float
    w: float
    kind: PointKind
    chord_angle: float | None = None
    tangent_angle: float | None = None

    @property
    def chord_defined(self) -> bool:
        return self.chord_angle is not None


@dataclass(frozen=True)
class ArcInterval:
    """Maximal time interval over which the locus slope dw/du is negative."""

    t_start: float
    t_end: float


@dataclass(frozen=True)
class SymmetryReport:
    odd_symmetric: bool
    max_violation: float


class Valuedness(Enum):
    SINGLE = "single"
    DOUBLE = "double"


@dataclass(frozen=True)
class ValuednessWitness:
    """Two times sharing an abscissa, with their (possibly equal) ordinates."""

    t: float
    t_pair: float
    w: float
    w_pair: float

    @property
    def gap(self) -> float:
        return abs(self.w - self.w_pair)


@dataclass(frozen=True)
class ValuednessReport:
    kind: Valuedness
    max_gap: float
    witnesses: tuple[ValuednessWitness, ...]


@dataclass(frozen=True)
class OriginCrossing:
    """Origin behaviour of a locus.

    abscissa_zeros lists every time the abscissa vanishes, tagged PINCH
    when the ordinate vanishes with it and ACTIVITY_WITNESS otherwise.
    """

    crosses_origin: bool
    pinch_points: tuple[SpecialPoint, ...]
    abscissa_zeros: tuple[SpecialPoint, ...]


class PhaseClass(Enum):
    LAG = "lag"
    ADVANCE = "advance"
    IN_PHASE = "in_phase"


@dataclass(frozen=True)
class PhaseReport:
    """Timing of the first ordinate peak against the abscissa peak."""

    t_peak_ordinate: float
    t_peak_abscissa: float
    shift: float
    classification: PhaseClass


# ----------------------------------------------------------------------
# evaluation helpers
# ----------------------------------------------------------------------

def point_at(locus: ParametricLocus, t):
    """Locus coordinates at arbitrary time: exact via hooks, else interpolated."""
    if locus.value_fn is not None:
        u, w = locus.value_fn(t)
    else:
        u = np.interp(t, locus.t_values, locus.u_values)
        w = np.interp(t, locus.t_values, locus.w_values)
    if np.ndim(t) == 0:
        return float(u), float(w)
    return np.asarray(u, dtype=float), np.asarray(w, dtype=float)


def _derivative_arrays(locus: ParametricLocus) -> tuple[np.ndarray, np.ndarray]:
    if locus.derivative_fn is not None:
        du, dw = locus.derivative_fn(locus.t_values)
        return np.asarray(du, dtype=float), np.asarray(dw, dtype=float)
    h = locus.spacing
    return (
        periodic_derivative(locus.u_values, h),
        periodic_derivative(locus.w_values, h),
    )


def _derivative_at(locus: ParametricLocus, t: float,
                   arrays: tuple[np.ndarray, np.ndarray] | None = None):
    if locus.derivative_fn is not None:
        du, dw = locus.derivative_fn(t)
        return float(du), float(dw)
    du_a, dw_a = arrays if arrays is not None else _derivative_arrays(locus)
    return (
        float(np.interp(t, locus.t_values, du_a)),
        float(np.interp(t, locus.t_values, dw_a)),
    )


def bisect(fn, a, b, rows, xtol: float = 1e-12) -> np.ndarray:
    """Refine every bracket [a[j], b[j]] of a sign change at once.

    Each bracket follows scipy.optimize.bisect (rtol = 4 eps, at most 100
    halvings) step for step, so every root is the one scipy returns for
    the same bracket, bit for bit.  fn is an evaluation hook called once
    per step on the live brackets' midpoints; component rows[j] of its
    output is the signal of bracket j.  Raises NumericalError when a
    bracket holds no sign change, fn returns NaN, or a bracket does not
    converge.
    """
    rows = np.asarray(rows, dtype=int)

    def f(x, live):
        out = np.atleast_2d(np.asarray(fn(x), dtype=float))[rows[live], np.arange(len(live))]
        if np.isnan(out).any():
            raise NumericalError("root refinement hook returned NaN")
        return out

    a = np.array(a, dtype=float)
    b = np.asarray(b, dtype=float)
    every = np.arange(len(a))
    fa, fb = f(a, every), f(b, every)
    if np.any(fa * fb > 0.0):
        raise NumericalError("bisection bracket holds no sign change")
    root = np.where(fa == 0.0, a, b)
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    dm = b - a
    for _ in range(_BISECT_MAXITER):
        if not live.size:
            break
        dm[live] *= 0.5
        xm = a[live] + dm[live]
        fm = f(xm, live)
        a[live] = np.where(fm * fa[live] >= 0.0, xm, a[live])
        done = (fm == 0.0) | (np.abs(dm[live]) < xtol + _BISECT_RTOL * np.abs(xm))
        root[live[done]] = xm[done]
        live = live[~done]
    if live.size:
        raise NumericalError(f"bisection did not converge in {_BISECT_MAXITER} steps")
    return root


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of True samples."""
    edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def _refined_roots(t: np.ndarray, vals: np.ndarray, fn=None, xtol: float = 1e-12,
                   transversal_only: bool = False) -> list[list[float]]:
    """Roots of each row of a sampled signal: sign-change scan plus bisection via fn.

    vals is one signal or a stack of them; row r of vals is component r
    of fn's output, and all rows are refined in one bisect call.  A run of
    exact-zero samples yields one representative root at its middle.
    With transversal_only the signal must change sign across a root,
    which drops tangential (double) zeros; the signal is treated as
    periodic when looking up the run's neighbours.  Without fn, roots
    between samples fall back to linear interpolation in the bracket.
    """
    t = np.asarray(t, dtype=float)
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    rows, left = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    if fn is None:
        a, b = vals[rows, left], vals[rows, left + 1]
        crossings = t[left] - a * (t[left + 1] - t[left]) / (b - a)
    elif rows.size:
        crossings = bisect(fn, t[left], t[left + 1], rows, xtol=xtol)
    else:
        crossings = t[left]  # no brackets, so no hook calls

    out = []
    for r, row in enumerate(vals):
        first, last = _runs(row == 0.0)
        if transversal_only:
            # the last sample duplicates the first, one period later
            core = row[:-1]
            nz = np.flatnonzero(core)
            if nz.size:
                before = nz[np.searchsorted(nz, first % core.size) - 1]
                after = nz[np.searchsorted(nz, last % core.size, side="right") % nz.size]
                keep = np.sign(core[before]) * np.sign(core[after]) < 0.0
                first, last = first[keep], last[keep]
            else:
                first = last = first[:0]
        roots = crossings[rows == r].tolist() + t[(first + last) // 2].tolist()
        out.append(_dedupe(roots, max(10.0 * xtol, 1e-12)))
    return out


def _dedupe(values: list[float], tol: float) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


# ----------------------------------------------------------------------
# origin behaviour
# ----------------------------------------------------------------------

def origin_crossing(locus: ParametricLocus, pinch_tol: float = 1e-9) -> OriginCrossing:
    """Find every abscissa zero and sort pinches from off-origin crossings."""
    t = locus.t_values
    u = locus.u_values
    w = locus.w_values
    scale_u = max(1.0, float(np.max(np.abs(u))))
    scale_w = max(1.0, float(np.max(np.abs(w))))

    roots = _refined_roots(t, u, locus.value_fn)[0]

    # tangential zeros never flip sign; pick them up from near-zero samples
    near = np.abs(u) <= pinch_tol * scale_u
    h = locus.spacing
    for idx in _cluster_minima(near, np.abs(u)):
        cand = float(t[idx])
        if all(abs(cand - r) > 2.0 * h for r in roots):
            roots.append(cand)
    roots = _dedupe(roots, 1e-12)

    points: list[SpecialPoint] = []
    for r in roots:
        ur, wr = point_at(locus, r)
        if abs(ur) <= pinch_tol * scale_u and abs(wr) <= pinch_tol * scale_w:
            points.append(SpecialPoint(t=r, u=ur, w=wr, kind=PointKind.PINCH))
        else:
            points.append(
                SpecialPoint(
                    t=r, u=ur, w=wr, kind=PointKind.ACTIVITY_WITNESS,
                    chord_angle=float(np.arctan2(wr, ur)),
                )
            )
    pinches = tuple(p for p in points if p.kind is PointKind.PINCH)
    return OriginCrossing(
        crosses_origin=bool(pinches),
        pinch_points=pinches,
        abscissa_zeros=tuple(points),
    )


def _cluster_minima(mask: np.ndarray, magnitude: np.ndarray) -> list[int]:
    """Index of the smallest magnitude inside each run of True samples."""
    return [int(i + np.argmin(magnitude[i : j + 1])) for i, j in zip(*_runs(mask))]


# ----------------------------------------------------------------------
# valuedness and symmetry
# ----------------------------------------------------------------------

def valuedness(locus: ParametricLocus, tol: float = 1e-9) -> ValuednessReport:
    """Single- vs double-valuedness via the time pairing of equal abscissae.

    Odd-depth loci revisit each abscissa at (T/2 - t) mod T, even-depth
    loci at T - t.  A locus is double-valued when the paired ordinates
    disagree anywhere beyond tolerance.
    """
    t = locus.t_values
    T = locus.period
    if locus.depth % 2 == 1:
        t_pair = np.mod(0.5 * T - t, T)
    else:
        t_pair = np.mod(T - t, T)
    _, w_pair = point_at(locus, t_pair)
    gap = np.abs(locus.w_values - w_pair)
    scale = max(1.0, float(np.max(np.abs(locus.w_values))))
    max_gap = float(np.max(gap))
    if max_gap <= tol * scale:
        return ValuednessReport(Valuedness.SINGLE, max_gap, ())

    order = np.argsort(gap)[::-1]
    witnesses: list[ValuednessWitness] = []
    min_sep = T / 64.0
    for idx in order:
        if gap[idx] <= tol * scale:
            break
        tv = float(t[idx])
        if any(abs(tv - wv.t) < min_sep for wv in witnesses):
            continue
        witnesses.append(
            ValuednessWitness(
                t=tv,
                t_pair=float(t_pair[idx]),
                w=float(locus.w_values[idx]),
                w_pair=float(w_pair[idx]),
            )
        )
        if len(witnesses) == 4:
            break
    return ValuednessReport(Valuedness.DOUBLE, max_gap, tuple(witnesses))


def odd_symmetry(locus: ParametricLocus, tol: float = 1e-9) -> SymmetryReport:
    """Point symmetry through the origin under time reversal t -> T - t."""
    u = locus.u_values
    w = locus.w_values
    viol_u = float(np.max(np.abs(u + u[::-1])))
    viol_w = float(np.max(np.abs(w + w[::-1])))
    violation = max(viol_u, viol_w)
    scale = max(
        1.0, float(np.max(np.abs(u))), float(np.max(np.abs(w)))
    )
    return SymmetryReport(odd_symmetric=violation <= tol * scale,
                          max_violation=violation)


# ----------------------------------------------------------------------
# tangent landmarks and slope arcs
# ----------------------------------------------------------------------

def rate_landmarks(locus: ParametricLocus, root_tol: float = 1e-10
                   ) -> tuple[tuple[SpecialPoint, ...], tuple[SpecialPoint, ...],
                              tuple[ArcInterval, ...]]:
    """Zero tangents, vertical tangents and negative-slope arcs of a locus.

    The transversal roots of du/dt and dw/dt are refined once each and
    shared by all three results.
    """
    rates = _derivative_arrays(locus)
    du_roots, dw_roots = _refined_roots(locus.t_values, rates, locus.derivative_fn,
                                        transversal_only=True)
    return (
        _tangent_points(locus, dw_roots, rates, root_tol, vertical=False),
        _tangent_points(locus, du_roots, rates, root_tol, vertical=True),
        _negative_arcs(locus, du_roots + dw_roots, rates),
    )


def _tangent_points(locus: ParametricLocus, roots: list[float],
                    rates: tuple[np.ndarray, np.ndarray], root_tol: float,
                    vertical: bool) -> tuple[SpecialPoint, ...]:
    if vertical:
        other, kind, tangent_angle = rates[1], PointKind.VERTICAL_TANGENT, 0.5 * np.pi
    else:
        other, kind, tangent_angle = rates[0], PointKind.ZERO_TANGENT, 0.0
    gate = root_tol * max(1.0, float(np.max(np.abs(other))))
    points: list[SpecialPoint] = []
    for r in roots:
        du_r, dw_r = _derivative_at(locus, r, rates)
        other_r = dw_r if vertical else du_r
        if abs(other_r) <= gate:
            continue  # both rates vanish: a cusp, not a tangent landmark
        ur, wr = point_at(locus, r)
        chord = None
        if max(abs(ur), abs(wr)) > 0.0:
            chord = float(np.arctan2(wr, ur))
        points.append(
            SpecialPoint(t=r, u=ur, w=wr, kind=kind,
                         chord_angle=chord, tangent_angle=float(tangent_angle))
        )
    return tuple(points)


def _negative_arcs(locus: ParametricLocus, roots: list[float],
                   rates: tuple[np.ndarray, np.ndarray]) -> tuple[ArcInterval, ...]:
    t = locus.t_values
    bps = _dedupe(roots + [float(t[0]), float(t[-1])], 1e-9)

    negative: list[tuple[float, float]] = []
    for a, b in zip(bps[:-1], bps[1:]):
        if b - a <= 1e-9:
            continue
        mid = 0.5 * (a + b)
        du_m, dw_m = _derivative_at(locus, mid, rates)
        if du_m * dw_m < 0.0:
            if negative and abs(negative[-1][1] - a) <= 1e-9:
                negative[-1] = (negative[-1][0], b)
            else:
                negative.append((a, b))
    return tuple(ArcInterval(t_start=a, t_end=b) for a, b in negative)


def zero_tangent_points(locus: ParametricLocus, root_tol: float = 1e-10
                        ) -> tuple[SpecialPoint, ...]:
    """Points where dw/dt vanishes while du/dt does not (horizontal tangent)."""
    return rate_landmarks(locus, root_tol)[0]


def vertical_tangent_points(locus: ParametricLocus, root_tol: float = 1e-10
                            ) -> tuple[SpecialPoint, ...]:
    """Points where du/dt vanishes while dw/dt does not (vertical tangent)."""
    return rate_landmarks(locus, root_tol)[1]


def negative_slope_arcs(locus: ParametricLocus, root_tol: float = 1e-10
                        ) -> tuple[ArcInterval, ...]:
    """Maximal intervals where the locus slope dw/du is negative.

    Breakpoints are the refined roots of either coordinate rate, so each
    arc endpoint is a tangent landmark, a cusp, or a period boundary.
    """
    return rate_landmarks(locus, root_tol)[2]


# ----------------------------------------------------------------------
# phase
# ----------------------------------------------------------------------

def phase_shift(curve: ConstitutiveCurve, exc: Excitation,
                phase_tol: float = 1e-6) -> PhaseReport:
    """Timing of the first depth-1 ordinate peak against the drive-rate peak.

    Peaks are maxima: roots of the second chain derivative crossed from
    positive to negative, located on the outgoing half-period.  Requires
    second derivatives of the curve.
    """
    if curve.max_derivative_order < 2:
        raise CapabilityError("phase analysis needs curve second derivatives")

    T = exc.period

    def rate_w(t):
        return chain_ordinate(curve, exc, t, 2)

    def rate_u(t):
        return excite(exc, t, 2)

    t_w = _first_maximum(rate_w, T)
    t_u = _first_maximum(rate_u, T)
    shift = t_w - t_u
    if shift > phase_tol:
        cls = PhaseClass.LAG
    elif shift < -phase_tol:
        cls = PhaseClass.ADVANCE
    else:
        cls = PhaseClass.IN_PHASE
    return PhaseReport(
        t_peak_ordinate=t_w, t_peak_abscissa=t_u, shift=shift, classification=cls
    )


def _first_maximum(rate_fn, T: float) -> float:
    """First time in (0, T/2) where rate_fn crosses from + to -."""
    ts = np.linspace(0.0, 0.5 * T, 4097)
    vals = np.asarray(rate_fn(ts))
    probe = min(1e-7 * T, 0.25 * (ts[1] - ts[0]))
    for r in _refined_roots(ts, vals, rate_fn)[0]:
        if not (0.0 < r < 0.5 * T):
            continue
        if rate_fn(max(r - probe, 0.0)) > 0.0 > rate_fn(min(r + probe, 0.5 * T)):
            return float(r)
    raise NumericalError("no ordinate maximum found on the outgoing half-period")
