"""Geometric analyses of parametric loci.

Everything here consumes a ParametricLocus and reports geometry with
numerical witnesses: origin crossings, tangent landmarks, symmetry,
valuedness, negative-slope arcs, and the ordinate/abscissa phase lag.

The analyses read what refine_chain prepares for a whole locus chain,
from the samples of its grid jet and two more jet evaluations:

* roots: every plane's abscissa and coordinate rates are scanned for
  sign changes over the grid, and when the locus has a jet, all the
  brackets are refined by one lock-step bisection.  Its endpoint values
  are the scanned samples, so the jet is not evaluated there again.  A
  Chandrupatla predictor estimates every root, the midpoints
  scipy.optimize.bisect would visit on its way to each estimate are
  evaluated in one call, and only decisions those values confirm are
  taken, so each bracket lands on exactly the root scipy would return
  for it, usually in three evaluations where bisection takes one per
  halving.  A bracket whose signs leave the predicted path walks its
  path again from there, in the next call.  A bracket two planes share
  is refined once.
* landmark values: one jet_signals call gives (u, w, du/dt, dw/dt) at
  every plane's roots and slope-span midpoints, which origin_crossing,
  rate_landmarks and project_landmarks read.
* valuedness pairs: a sample whose pair time is a grid time reads the
  sample there, and one jet gives every plane's ordinate at the others.

A locus analysed on its own is prepared as a one-plane chain, with the
same results.  phase_shift refines only the rate brackets of the
outgoing half-period it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constitutive import ConstitutiveCurve
from .errors import CapabilityError, NumericalError
from .excitation import Excitation, grid
from .transform import ParametricLocus, _Jet, jet_signals, periodic_derivative

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
# hook calls of the root predictor: after the endpoints' secant point and
# one interpolation step, its third estimate predicts the bisection path
_PREDICT_CALLS = 2


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

def _jet_rows(locus: ParametricLocus, t, depth: int):
    """The depth-d abscissa and ordinate of the locus's jet at times t."""
    jet = _Jet(*locus.jet, t, depth, depth)
    return jet.x[depth], jet.ordinate(depth)


def _has_rates(locus: ParametricLocus) -> bool:
    """Whether the locus's jet gives its exact rates: it has one, below the order cap."""
    return locus.jet is not None and locus.depth < locus.jet[0].max_derivative_order


def point_at(locus: ParametricLocus, t):
    """Locus coordinates at arbitrary time: exact off its jet, else interpolated."""
    if locus.jet is not None:
        u, w = _jet_rows(locus, t, locus.depth)
    else:
        u = np.interp(t, locus.t_values, locus.u_values)
        w = np.interp(t, locus.t_values, locus.w_values)
    if np.ndim(t) == 0:
        return float(u), float(w)
    return np.asarray(u, dtype=float), np.asarray(w, dtype=float)


def _derivative_arrays(locus: ParametricLocus) -> tuple[np.ndarray, np.ndarray]:
    if _has_rates(locus):
        return _jet_rows(locus, locus.t_values, locus.depth + 1)
    h = locus.spacing
    return (
        periodic_derivative(locus.u_values, h),
        periodic_derivative(locus.w_values, h),
    )


def _predict(fn, a, b, fa, fb, live) -> np.ndarray:
    """An estimate of the root in each live bracket, NaN where there is none.

    Lock-step iterations of Chandrupatla's method (inverse quadratic
    interpolation where it is safe, else bisection; Adv. Eng. Software
    28(3), 1997), _PREDICT_CALLS fn calls, every point inside its
    bracket.  The first point is the endpoints' secant root rather than
    the midpoint, since their values are known already.  The estimate is
    the next point the method would try, or the better of the two
    bracketing points where it would bisect.  fn's values steer nothing
    but the estimate, so they are not checked: a NaN or inf just leaves
    its bracket without one.
    """
    x1, f1, x2, f2 = a[live], fa[live], b[live], fb[live]
    x3, f3 = x2, f2
    finite = np.isfinite(f1) & np.isfinite(f2)
    with np.errstate(all="ignore"):
        t = f1 / (f1 - f2)
        for _ in range(_PREDICT_CALLS):
            t = np.where((t >= 0.0) & (t <= 1.0), t, 0.5)
            x = x1 + t * (x2 - x1)
            fx = np.asarray(fn(x, live), dtype=float)
            finite &= np.isfinite(fx)
            # the new point replaces the bracket end whose value has its sign
            same = np.signbit(fx) == np.signbit(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, fx
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            t = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), np.nan)
    estimate = np.where((t >= 0.0) & (t <= 1.0), x1 + t * (x2 - x1),
                        np.where(np.abs(f1) <= np.abs(f2), x1, x2))
    return np.where(finite, estimate, np.nan)


def _path(a, dm, guess, xtol):
    """The halvings bisection makes from (a, dm) if every sign falls on guess's side.

    Rows are steps and columns brackets.  Returns each step's midpoint,
    the bracket start a after it, the halved width dm and whether it
    meets the stop test, and each bracket's step count: through its
    first stop, else all _BISECT_MAXITER.  The float operations are
    scipy's (dm *= .5, xm = a + dm), so these are the points it visits.
    """
    halves = np.full((_BISECT_MAXITER, dm.size), 0.5)
    half = np.multiply.accumulate(np.vstack((dm, halves)))[1:]
    # |dm| < xtol stops a bracket whatever xm is, so no path runs longer
    steps = min(_BISECT_MAXITER, int((np.abs(half) >= xtol).sum(0).max()) + 1)
    half = half[:steps]
    xm, start = np.empty_like(half), np.empty_like(half)
    up = dm > 0.0
    for k in range(steps):
        x = np.add(a, half[k], out=xm[k])
        a = start[k] = np.where((x < guess) == up, x, a)
    stop = np.abs(half) < xtol + _BISECT_RTOL * np.abs(xm)
    return xm, start, half, stop, np.where(stop.any(0), stop.argmax(0) + 1, steps)


def bisect(fn, a, b, fa, fb, xtol: float = 1e-12) -> np.ndarray:
    """Refine every bracket [a[j], b[j]] of a sign change at once.

    Every root is the one scipy.optimize.bisect returns for the same
    bracket (rtol = 4 eps, at most 100 halvings, signs compared without
    multiplying), bit for bit, from a handful of fn calls.  fa and fb are
    fn's values at the endpoints, which the caller holds already (a scan
    brackets samples it has evaluated), so fn is not called there.
    _PREDICT_CALLS calls estimate each root (_predict).  Then each call
    evaluates, for every live bracket, the midpoints scipy would visit
    from its current state if each sign fell on the estimate's side.  A
    bracket whose signs all fall as predicted is done.  Otherwise the
    first midpoint off the prediction, or an exact zero, is still one
    scipy visits, so its value's own decision is taken there, and the
    next call walks the bracket's path again from that point with the
    same estimate.  Every call takes at least one decision per bracket,
    and every decision is read off fn at a point scipy visits.

    fn(x, live) gets, for each point, the index of its bracket, and
    returns one value per point from that bracket's own signal; each
    call's indices are among the last call's.  Raises NumericalError
    when a bracket holds no sign change, an endpoint value is NaN, fn
    returns NaN at a midpoint scipy visits, or a bracket does not
    converge.
    """
    a = np.array(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fa = np.asarray(fa, dtype=float)
    fb = np.asarray(fb, dtype=float)
    if np.isnan(fa).any() or np.isnan(fb).any():
        raise NumericalError("root refinement hook returned NaN")
    # signs are compared, not products, which underflow for tiny values
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    negative = np.signbit(fa)
    if np.any(negative[live] == np.signbit(fb[live])):
        raise NumericalError("bisection bracket holds no sign change")
    root = np.where(fa == 0.0, a, b)
    dm = b - a
    spent = np.zeros(len(a), dtype=int)  # halvings made
    guess = np.full(len(a), np.nan)
    if live.size:
        guess[live] = _predict(fn, a, b, fa, fb, live)
    while live.size:
        xm, start, half, stop, steps = _path(a[live], dm[live], guess[live], xtol)
        steps = np.minimum(steps, _BISECT_MAXITER - spent[live])
        on = np.arange(len(xm))[:, None] < steps
        fm = np.full(xm.shape, np.nan)
        fm[on] = fn(xm[on], np.broadcast_to(live, xm.shape)[on])
        # a step checks out when its sign falls as predicted and it is no zero (or NaN)
        ok = (np.signbit(fm) == negative[live]) == ((xm < guess[live]) == (dm[live] > 0.0))
        ok &= np.abs(fm) > 0.0
        # the step whose value decides: the path's last, or its first unchecked one
        k = np.minimum(np.logical_and.accumulate(ok).sum(0), steps - 1)
        col = np.arange(live.size)
        x, fx = xm[k, col], fm[k, col]
        if np.isnan(fx).any():
            raise NumericalError("root refinement hook returned NaN")
        done = (fx == 0.0) | stop[k, col]
        root[live[done]] = x[done]
        a[live] = np.where(np.signbit(fx) == negative[live], x,
                           np.where(k > 0, start[k - 1, col], a[live]))
        dm[live] = half[k, col]
        spent[live] += k + 1
        live = live[~done]
        if np.any(spent[live] == _BISECT_MAXITER):
            raise NumericalError(f"bisection did not converge in {_BISECT_MAXITER} steps")
    return root


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of True samples."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return idx, idx
    cut = idx[1:] != idx[:-1] + 1  # a run ends between these neighbours
    return idx[np.append(True, cut)], idx[np.append(cut, True)]


def _scan(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-change brackets of a stack of signals: row and left sample index of each.

    Signs are compared, not products, which underflow; zero and NaN samples have none.
    """
    pos, neg = vals > 0.0, vals < 0.0
    return np.nonzero((pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:]))


def _interpolated(t: np.ndarray, vals: np.ndarray, rows: np.ndarray,
                  left: np.ndarray) -> np.ndarray:
    """Linear-interpolation roots in the brackets, for signals without a jet."""
    a, b = vals[rows, left], vals[rows, left + 1]
    return t[left] - a * (t[left + 1] - t[left]) / (b - a)


def _signal_roots(t: np.ndarray, row: np.ndarray, crossings: np.ndarray, xtol: float,
                  transversal_only: bool) -> list[float]:
    """A signal's roots: its refined bracket crossings plus one per run of exact zeros.

    A run of exact-zero samples yields one representative root at its
    middle; a run split by the period seam counts once, its middle taken
    modulo the period.  With transversal_only the signal must change sign
    across a root, which drops tangential (double) zeros; the signal is
    treated as periodic when looking up the run's neighbours.
    """
    tol = max(10.0 * xtol, 1e-12)
    zero = row == 0.0
    if not zero.any():
        return _dedupe(crossings.tolist(), tol)
    n = row.size
    first, last = _runs(zero)
    if first.size > 1 and first[0] == 0 and last[-1] == n - 1 and (
            last[0] > 0 or first[-1] < n - 1):
        # t[-1] is t[0] one period later, so a zero run through the seam is
        # one run, whose end index goes past n - 1; a zero at the seam
        # sample alone stays listed at both t[0] and t[-1]
        first, last = first[1:], np.append(last[1:-1], last[0] + n - 1)
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
    mid = (first + last) // 2
    mid = np.where(last < n, mid, mid % (n - 1))
    return _dedupe(crossings.tolist() + t[mid].tolist(), tol)


@dataclass(frozen=True)
class _PlaneRoots:
    """What the analyses of one plane read: its roots, and its values there.

    abscissa holds the roots of u, and du and dw the transversal roots of
    du/dt and dw/dt.  spans are the intervals between consecutive rate
    roots and the period ends, over which the slope keeps its sign.  peak
    holds max |u|, max |w|, max |du/dt| and max |dw/dt| over the grid,
    the scales the analyses' tolerances are relative to.  at maps every
    root and every span midpoint to (u, w, du/dt, dw/dt) there.  t_pair
    holds each sample's valuedness pair time and w_pair the ordinate
    there.
    """

    abscissa: list[float]
    du: list[float]
    dw: list[float]
    spans: list[tuple[float, float]]
    peak: tuple[float, float, float, float]
    at: dict[float, tuple[float, float, float, float]]
    t_pair: np.ndarray
    w_pair: np.ndarray


def refine_chain(chain, top_rates: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Refine every root the analyses of a locus chain need, and read their values there.

    Each plane's abscissa u (for origin_crossing) and coordinate rates
    du/dt and dw/dt (for rate_landmarks) are scanned for sign changes, and
    every bracket the jet covers is refined in one lock-step bisection
    through jet_signals, one evaluation per step for all of them, from the
    scanned samples at the bracket ends (the jet's values there); brackets
    of signals without a jet keep their linear-interpolation root.  The
    loci of a chain are taken to share one jet and one grid, and
    chain[d + 1] to be the transform of chain[d], so its samples serve as
    plane d's rates when both come from the same kind of evaluation
    (the jet, or finite differences); top_rates, when given, are the last
    plane's rates on the grid.  A bracket two planes share, such as plane
    d's du/dt and plane d + 1's u, is refined once.  Then one jet_signals
    call reads (u, w, du/dt, dw/dt) at every plane's roots and slope-span
    midpoints, and one jet the ordinates at the valuedness pair times that
    are no grid time.  All of it is stored on each locus, where
    origin_crossing, valuedness and rate_landmarks read it.
    """
    xtol = 1e-12
    scans = []
    ends = {}  # (depth, is ordinate, a, b) -> the signal's samples at a and b
    for d, locus in enumerate(chain):
        after = chain[d + 1] if d + 1 < len(chain) else None
        if after is not None and _has_rates(locus) == (after.jet is not None):
            rates = (after.u_values, after.w_values)
        elif after is None and top_rates is not None:
            rates = top_rates
        else:
            rates = _derivative_arrays(locus)
        t = locus.t_values
        vals = np.stack((locus.u_values, *rates))
        rows, left = _scan(vals)
        # rows 0, 1, 2 are the abscissa at depth k and the abscissa and
        # ordinate at depth k + 1, read off the jet where it gives them
        hooked = (locus.jet is not None, _has_rates(locus))
        slots = [(locus.depth + min(r, 1), r == 2, t[i], t[i + 1]) if hooked[min(r, 1)] else None
                 for r, i in zip(rows.tolist(), left.tolist())]
        for key, fa, fb in zip(slots, vals[rows, left].tolist(), vals[rows, left + 1].tolist()):
            if key is not None:
                ends.setdefault(key, (fa, fb))
        scans.append((locus, rates, vals, rows, left, slots))

    jet = next((locus.jet for locus in chain if locus.jet is not None), None)
    if ends:
        depth, ordinate, a, b = (np.array(col) for col in zip(*ends))
        fa, fb = zip(*ends.values())
        roots = dict(zip(ends, bisect(
            lambda x, live: jet_signals(*jet, x, depth[live], ordinate[live]),
            a, b, fa, fb, xtol=xtol).tolist()))

    planes = []
    for locus, rates, vals, rows, left, slots in scans:
        t = locus.t_values
        crossings = _interpolated(t, vals, rows, left)
        for j, key in enumerate(slots):
            if key is not None:
                crossings[j] = roots[key]
        abscissa, du, dw = (
            _signal_roots(t, row, crossings[rows == r], xtol, transversal_only=r > 0)
            for r, row in enumerate(vals))
        spans = _spans(t, du + dw)
        peak_u, peak_du, peak_dw = np.abs(vals).max(1).tolist()
        peak = (peak_u, float(np.abs(locus.w_values).max()), peak_du, peak_dw)
        times = np.array(abscissa + du + dw + [0.5 * (a + b) for a, b in spans])
        planes.append((abscissa, du, dw, spans, peak, times))

    values = _landmark_values(chain, [scan[1] for scan in scans], [p[-1] for p in planes], jet)
    for locus, (*plane, times), v, pair in zip(chain, planes, values, _pair_ordinates(chain, jet)):
        at = dict(zip(times.tolist(), zip(*v.tolist())))
        object.__setattr__(locus, "_roots", _PlaneRoots(*plane, at, *pair))


def _spans(t: np.ndarray, roots: list[float]) -> list[tuple[float, float]]:
    """The intervals longer than 1e-9 between consecutive roots and the period ends."""
    bps = _dedupe(roots + [float(t[0]), float(t[-1])], 1e-9)
    return [(a, b) for a, b in zip(bps[:-1], bps[1:]) if b - a > 1e-9]


def _landmark_values(chain, rates, times, jet) -> list[np.ndarray]:
    """Rows u, w, du/dt and dw/dt of each plane at its times.

    Every value the jet gives comes from one jet_signals call for the
    whole chain; the others are interpolated in the grid samples or rates.
    """
    def hooked(locus, row):
        return locus.jet is not None if row < 2 else _has_rates(locus)

    asks = [(tp, np.full(tp.size, locus.depth + row // 2), np.full(tp.size, row % 2 == 1))
            for locus, tp in zip(chain, times) for row in range(4) if hooked(locus, row)]
    got = iter(())
    if asks:
        t, depth, ordinate = (np.concatenate(col) for col in zip(*asks))
        got = iter(np.split(jet_signals(*jet, t, depth, ordinate),
                            np.cumsum([tp.size for tp, _, _ in asks])[:-1]))
    return [np.array([next(got) if hooked(locus, row) else np.interp(tp, locus.t_values, on_grid)
                      for row, on_grid in enumerate((locus.u_values, locus.w_values, *plane))])
            for locus, plane, tp in zip(chain, rates, times)]


def _mod(x: np.ndarray, period: float) -> np.ndarray:
    """np.mod(x, period) for period > 0, bit for bit, at about half its cost."""
    r = np.fmod(x, period)
    return np.where(r < 0.0, r + period, r) + 0.0  # + 0.0 turns fmod's -0.0 into +0.0


def _pair_ordinates(chain, jet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each plane's valuedness pair times, and its ordinate at them.

    Odd-depth loci revisit each abscissa at (T/2 - t) mod T, even-depth
    loci at (T - t) mod T, so the planes of one depth parity share their
    pair times.  On a plane with a jet, a pair time that is a grid time
    bit for bit reads the sample there, which is the jet's value since a
    jet's values do not depend on the other times it is taken at; one jet
    at the other pair times of both parities serves every such plane.  A
    plane without a jet interpolates in its samples.
    """
    pairs = {}  # depth parity -> pair times, the nearest sample to each, and which are off it
    for locus in chain:
        if locus.depth % 2 not in pairs:
            t, T = locus.t_values, locus.period
            t_pair = _mod((0.5 * T if locus.depth % 2 else T) - t, T)
            j = np.minimum(np.rint(t_pair / locus.spacing).astype(int), t.size - 1)
            pairs[locus.depth % 2] = (t_pair, j, t[j] != t_pair)
    hooked = [locus.depth for locus in chain if locus.jet is not None]
    if hooked:
        parities = sorted({d % 2 for d in hooked})
        rest = [t_pair[off] for t_pair, _, off in map(pairs.get, parities)]
        bounds = np.cumsum([0] + [tp.size for tp in rest]).tolist()
        part = {k: slice(lo, hi) for k, lo, hi in zip(parities, bounds, bounds[1:])}
        at_rest = _Jet(*jet, np.concatenate(rest), max(hooked), max(hooked))
    out = []
    for locus in chain:
        t_pair, j, off = pairs[locus.depth % 2]
        if locus.jet is None:
            w_pair = np.interp(t_pair, locus.t_values, locus.w_values)
        else:
            w_pair = locus.w_values[j]
            w_pair[off] = at_rest.ordinate(locus.depth, part=part[locus.depth % 2])
        out.append((t_pair, w_pair))
    return out


def _plane_roots(locus: ParametricLocus) -> _PlaneRoots:
    """The roots refine_chain stored on the locus, refining it alone if none are."""
    if "_roots" not in vars(locus):
        refine_chain((locus,))
    return vars(locus)["_roots"]


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
    plane = _plane_roots(locus)
    scale_u, scale_w = (max(1.0, peak) for peak in plane.peak[:2])
    roots = list(plane.abscissa)
    at = {r: plane.at[r][:2] for r in roots}

    # tangential zeros never flip sign; pick them up from near-zero samples
    magnitude = np.abs(u)
    h = locus.spacing
    for idx in _cluster_minima(magnitude <= pinch_tol * scale_u, magnitude):
        cand = float(t[idx])
        if all(abs(cand - r) > 2.0 * h for r in roots):
            roots.append(cand)
            at[cand] = (float(u[idx]), float(w[idx]))
    roots = _dedupe(roots, 1e-12)

    points: list[SpecialPoint] = []
    for r in roots:
        ur, wr = at[r]
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
    plane = _plane_roots(locus)
    t_pair, w_pair = plane.t_pair, plane.w_pair
    gap = np.abs(locus.w_values - w_pair)
    scale = max(1.0, plane.peak[1])
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
    scale = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(w))))
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
    plane = _plane_roots(locus)
    return (
        _tangent_points(plane, plane.dw, root_tol, vertical=False),
        _tangent_points(plane, plane.du, root_tol, vertical=True),
        _negative_arcs(plane),
    )


def _tangent_points(plane: _PlaneRoots, roots: list[float], root_tol: float,
                    vertical: bool) -> tuple[SpecialPoint, ...]:
    # other indexes (du/dt, dw/dt): the rate that must not vanish at the root too
    if vertical:
        other, kind, tangent_angle = 1, PointKind.VERTICAL_TANGENT, 0.5 * np.pi
    else:
        other, kind, tangent_angle = 0, PointKind.ZERO_TANGENT, 0.0
    gate = root_tol * max(1.0, plane.peak[2 + other])
    points: list[SpecialPoint] = []
    for r in roots:
        ur, wr, *rates = plane.at[r]
        if abs(rates[other]) <= gate:
            continue  # both rates vanish: a cusp, not a tangent landmark
        chord = None
        if max(abs(ur), abs(wr)) > 0.0:
            chord = float(np.arctan2(wr, ur))
        points.append(
            SpecialPoint(t=r, u=ur, w=wr, kind=kind,
                         chord_angle=chord, tangent_angle=float(tangent_angle))
        )
    return tuple(points)


def _negative_arcs(plane: _PlaneRoots) -> tuple[ArcInterval, ...]:
    negative: list[tuple[float, float]] = []
    for a, b in plane.spans:
        _, _, du, dw = plane.at[0.5 * (a + b)]
        if du * dw < 0.0:
            if negative and abs(negative[-1][1] - a) <= 1e-9:
                negative[-1] = (negative[-1][0], b)
            else:
                negative.append((a, b))
    return tuple(ArcInterval(t_start=a, t_end=b) for a, b in negative)


def project_landmarks(locus: ParametricLocus, points) -> tuple[SpecialPoint, ...]:
    """Images of a locus's rate landmarks under the transform, at their times.

    The image of the point at time t is the next plane's point at t, whose
    coordinates are this locus's rates (du/dt, dw/dt) there; they are read
    off the values stored at the locus's roots, so every point must sit at
    one of its du/dt or dw/dt roots.
    """
    at = _plane_roots(locus).at
    images = []
    for p in points:
        u, w = at[p.t][2:]
        images.append(SpecialPoint(
            t=p.t, u=u, w=w, kind=PointKind.ACTIVITY_WITNESS,
            chord_angle=float(np.arctan2(w, u)) if max(abs(u), abs(w)) > 0.0 else None,
        ))
    return tuple(images)


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

    Peaks are maxima: transversal roots of the depth-1 locus's rates
    dw/dt and du/dt crossed from positive to negative, located on the
    outgoing half-period.  The rates are taken on an 8192-interval grid,
    whose first half is a 4096-interval grid of the outgoing half-period,
    and only their brackets there are refined, each to the root
    refine_chain finds for it.  Requires second derivatives of the curve.
    """
    if curve.max_derivative_order < 2:
        raise CapabilityError("phase analysis needs curve second derivatives")

    t = grid(exc, 8192).t_values
    jet = _Jet(curve, exc, t, 2, 2)
    rates = np.stack((jet.x[2], jet.ordinate(2)))
    half = 0.5 * float(t[-1] - t[0])
    rows, left = _scan(rates)
    outgoing = t[left] < half
    rows, left = rows[outgoing], left[outgoing]
    xtol = 1e-12
    crossings = bisect(
        lambda x, live: jet_signals(curve, exc, x, np.full(live.size, 2), rows[live] == 1),
        t[left], t[left + 1], rates[rows, left], rates[rows, left + 1], xtol=xtol)
    t_u, t_w = (
        _first_maximum(curve, exc, t, _signal_roots(t, rate, crossings[rows == r], xtol,
                                                    transversal_only=True), r)
        for r, rate in enumerate(rates))
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


def _first_maximum(curve: ConstitutiveCurve, exc: Excitation, t: np.ndarray,
                   roots: list[float], component: int) -> float:
    """First root in (0, T/2) where the depth-1 rate component crosses from + to -.

    The rate is probed just before and after every candidate root, all in
    one jet_signals call.
    """
    period, spacing = float(t[-1] - t[0]), float(t[1] - t[0])
    half = 0.5 * period
    probe = min(1e-7 * period, 0.25 * spacing)
    inside = [r for r in roots if 0.0 < r < half]
    if inside:
        at = np.array([max(r - probe, 0.0) for r in inside]
                      + [min(r + probe, half) for r in inside])
        rate = jet_signals(curve, exc, at, np.full(at.size, 2), np.full(at.size, component == 1))
        for r, before, after in zip(inside, rate[: len(inside)], rate[len(inside):]):
            if before > 0.0 > after:
                return float(r)
    raise NumericalError("no ordinate maximum found on the outgoing half-period")
