"""Geometric analyses of parametric loci.

Everything here consumes a ParametricLocus and reports geometry with
numerical witnesses: origin crossings, tangent landmarks, symmetry,
valuedness, negative-slope arcs, and the ordinate/abscissa phase lag.

The analyses read what refine_planes prepares for the planes a caller
reads, from the samples of their grid jet and one more jet evaluation.
Plane d's rates are plane d + 1's coordinates, so the signal rows (each
plane's abscissa and coordinate rates) are taken once each, 2k + 3 of
them for the closed-form planes 0 ... k, and every step below is one
pass over all of them; each plane's results are its rows' slices.  The
abscissae x ... x^(k+1) are drive levels, whose zeros are exact phases
and peaks A w^j (_level_roots), so only the k + 1 ordinate rows are:

* roots: the rows are scanned for sign changes over the grid, a column
  block at a time so that no full-size stack of them is made, and when
  the locus has a jet, all the brackets are refined by one lock-step
  bisection.  Its endpoint values are the scanned samples, so the jet
  is not evaluated there again.  Each root is estimated from the
  samples the scan holds, by inverse interpolation through six of them
  round its bracket; _path walks scipy.optimize.bisect's float steps to
  the midpoints it would visit on its way to each estimate, one call
  evaluates them all, and bisect reads each value once, taking only the
  decisions they confirm, so each bracket lands on scipy's root for it,
  usually in that one evaluation where bisection takes one per halving.
  A bracket whose signs leave the predicted path is walked on from there
  in the next call, aimed at the secant root of what is left of it.  The
  few runs of exact-zero samples are walked in Python (_zero_roots).
* landmark values: one jet block at every plane's roots and slope-span
  midpoints gives (u, w, du/dt, dw/dt) there, plane d reading its rows
  d and d + 1, which origin_crossing, rate_landmarks and
  project_landmarks read.

Each caller names the planes it reads, each refined with the locus
that holds its rates, with no exception: plane d's rates are plane
d + 1's samples, jet signals exactly when that locus has the jet.  A
locus that only holds rates is not refined, so classify never refines
the locus past its verdict plane, nor phase_shift its depth-2 locus.
A plane whose rates are not read is refined for its abscissa alone, as
the theorem suite's plane 2 is; rate_landmarks and project_landmarks on
it refine it again, with its rates.  A locus analysed on its own is
refined with its transform (_transform) as its rates, with the same
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .constitutive import ConstitutiveCurve
from .errors import NumericalError
from .excitation import Excitation, _finite_times, grid
from .transform import (ParametricLocus, _checked_depth, _grid_jet, _jet, analytic_chain,
                        jet_signals, numeric_transform)

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
# refine_planes's bisection xtol; roots of one signal within ten times it are one root
_REFINE_XTOL = 1e-12
# refine_planes scans its rows this many grid intervals at a time; the
# default grid is one block
_SCAN_BLOCK = 4096
_BISECT_MAXITER = 100
# grid offsets of the samples whose inverse interpolant seeds a bracket's root
_STENCIL = np.arange(-2, 4)
_DIAGONAL = np.eye(_STENCIL.size, dtype=bool)
# phase_shift's in-phase band: shifts no larger count as neither lag nor advance
_PHASE_TOL = 1e-6


class PointKind(Enum):
    PINCH = "pinch"
    ZERO_TANGENT = "zero_tangent"
    VERTICAL_TANGENT = "vertical_tangent"
    ACTIVITY_WITNESS = "activity_witness"


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
    # the refined depth-1 locus the peaks were read from
    locus: ParametricLocus = field(repr=False, compare=False)


# ----------------------------------------------------------------------
# evaluation helpers
# ----------------------------------------------------------------------

def _jet_rows(locus: ParametricLocus, t, depth: int):
    """The depth-d abscissa and ordinate of the locus's jet at times t."""
    x, y = _jet(*locus.jet, t, depth)
    return x[depth], y[depth]


def point_at(locus: ParametricLocus, t):
    """Locus coordinates at arbitrary time: exact off its jet, else interpolated.

    Raises DomainError for a time that is not finite.
    """
    _finite_times(t)
    if locus.jet is not None:
        u, w = _jet_rows(locus, t, locus.depth)
    else:
        u = np.interp(t, locus.t_values, locus.u_values)
        w = np.interp(t, locus.t_values, locus.w_values)
    if np.ndim(t) == 0:
        return float(u), float(w)
    return np.asarray(u, dtype=float), np.asarray(w, dtype=float)


def _transform(locus: ParametricLocus) -> ParametricLocus:
    """A lone locus's transform: its jet one level deeper, taken on its grid, where
    it has a jet, else finite differences.

    Raises CapabilityError where the rates lie past MAX_DERIVATIVE_ORDER
    (_checked_depth), and NumericalError where they pass float range (_grid_jet).
    """
    if locus.jet is None:
        return numeric_transform(locus)
    k = _checked_depth(locus.depth + 1)
    [(u, w)] = _grid_jet(*locus.jet, locus.t_values, k, [k])
    return ParametricLocus._view(locus.t_values, u, w, k, locus.jet)


def _path(a: float, dm: float, aim: float, steps: int, xtol: float) -> tuple[list, list, bool]:
    """The midpoints bisection visits from (a, dm) if every sign falls on aim's side.

    Returns them, the width after each one's halving, and whether the last met
    the stop test.  Only here are scipy's float steps taken (dm *= .5, xm = a + dm,
    the stop test, at most steps halvings), on Python floats, which are float64's.
    """
    up = dm > 0.0
    path, widths = [], []
    for _ in range(steps):
        dm *= 0.5
        xm = a + dm
        path.append(xm)
        widths.append(dm)
        if abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return path, widths, True
        if (xm < aim) == up:
            a = xm
    return path, widths, False


def _secant(a: float, fa: float, dm: float, fb: float) -> float:
    """The secant root of the bracket from a to a + dm, whose end values are fa and fb.

    fa and fb are nonzero and of opposite signs, so fa - fb is not zero;
    infinite end values give NaN, which only steers a path.
    """
    return a + dm * (fa / (fa - fb))


def bisect(fn, a, b, fa, fb, xtol: float = 1e-12, guess=None) -> np.ndarray:
    """Refine every bracket [a[j], b[j]] of a sign change at once.

    Every root is the one scipy.optimize.bisect returns for the same
    bracket (rtol = 4 eps, at most 100 halvings, signs compared without
    multiplying), bit for bit, usually from one fn call.  fa and fb are
    fn's values at the endpoints, which the caller holds already (a scan
    brackets samples it has evaluated), so fn is not called there.
    guess[j], when given, estimates bracket j's root; where it is not
    finite or not inside the open bracket, or no guess is given, the
    endpoints' secant root is the estimate.

    Each round is one fn call on, for every live bracket, the midpoints
    scipy would visit from its current state if each sign fell on the
    estimate's side (_path, which alone takes scipy's float steps), and
    reads each value once.  An exact zero, or the last midpoint of a
    path that met the stop test, is the root; the last of a path out of
    halvings does not converge; any other value is a sign decision.  At
    the first one off the prediction, still a point scipy visits, the
    next round walks the bracket on with the width _path held there,
    aimed at the secant root of the bracket it is left with, whose ends
    lie on either side of the root.  Every round takes at least one
    decision per bracket; only fn sees arrays.

    fn(x, live) gets, for each point, the index of its bracket, and
    returns one value per point from that bracket's own signal; each
    call's indices are among the last call's.  Raises NumericalError
    when a bracket holds no sign change, an endpoint value is NaN, fn
    returns NaN at a midpoint scipy visits, or a bracket does not
    converge.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fa = np.asarray(fa, dtype=float)
    fb = np.asarray(fb, dtype=float)
    if np.isnan(fa).any() or np.isnan(fb).any():
        raise NumericalError("root refinement hook returned NaN")
    # signs are compared, not products, which underflow for tiny values
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    if np.any(np.signbit(fa[live]) == np.signbit(fb[live])):
        raise NumericalError("bisection bracket holds no sign change")
    root = np.where(fa == 0.0, a, b)
    guess = np.full(a.shape, np.nan) if guess is None else np.asarray(guess, dtype=float)
    # each live bracket's index, start a and fn there, width dm, fn at
    # a + dm, the estimate its path aims at, and the halvings made
    todo = []
    for j, lo, hi, flo, fhi, g in zip(*(v.tolist() for v in (
            live, a[live], b[live], fa[live], fb[live], guess[live]))):
        aim = g if min(lo, hi) < g < max(lo, hi) else _secant(lo, flo, hi - lo, fhi)
        todo.append((j, lo, flo, hi - lo, fhi, aim, 0))
    while todo:
        paths = [_path(lo, dm, aim, _BISECT_MAXITER - spent, xtol)
                 for _, lo, _, dm, _, aim, spent in todo]
        fm = fn(np.array([xm for path, _, _ in paths for xm in path]),
                np.repeat([j for j, *_ in todo], [len(path) for path, _, _ in paths]))
        fm = np.asarray(fm, dtype=float).tolist()
        left, start = [], 0
        for (j, lo, flo, dm, fhi, aim, spent), (path, widths, stopped) in zip(todo, paths):
            # a stays on fa's side, so flo's sign is fa's; up is the side b lies on
            negative, up, last = flo < 0.0, dm > 0.0, len(path) - 1
            for i, (xm, f) in enumerate(zip(path, fm[start:start + len(path)])):
                if f != f:
                    raise NumericalError("root refinement hook returned NaN")
                if f == 0.0 or (stopped and i == last):
                    root[j] = xm
                    break
                if i == last:
                    raise NumericalError(f"bisection did not converge in {_BISECT_MAXITER} steps")
                # f is no zero, so f < 0.0 is its sign bit
                moved = (f < 0.0) == negative
                if moved:
                    lo, flo = xm, f
                else:
                    fhi = f
                if moved != ((xm < aim) == up):  # off the path
                    dm = widths[i]
                    left.append((j, lo, flo, dm, fhi, _secant(lo, flo, dm, fhi), spent + i + 1))
                    break
            start += len(path)
        todo = left
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
    change = (pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:])
    return np.divmod(np.flatnonzero(change), change.shape[1])


def _scan_rows(rows: list[np.ndarray], n: int) -> tuple[list[float], np.ndarray, np.ndarray,
                                                        np.ndarray, list[list[int]]]:
    """Peaks, sign-change brackets and exact zeros of signal rows of n + 1 samples.

    Returns each row's max |v|; the row and left sample index of each
    bracket (_scan), row by row and, within a row, in time order; the
    samples at _STENCIL's offsets round each bracket, wrapped round the
    period (sample n is sample 0 one period later), so that columns 2
    and 3 are its ends; and each row's exact-zero sample indices.  The
    rows are stacked _SCAN_BLOCK intervals at a time, so that a fine grid
    holds no full-size stack of them.  A grid of one block gathers the
    stencils from that block's stack, a finer one from a stack of the
    columns they read.
    """
    if not rows:
        return [], np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, _STENCIL.size)), []
    blocks = range(0, n, _SCAN_BLOCK)
    peaks, at_row, left, zeros = [], [], [], [[] for _ in rows]
    for start in blocks:
        stop = min(start + _SCAN_BLOCK, n)
        vals = np.stack([r[start:stop + 1] for r in rows])
        # max |v| without an |v| temporary: negation and abs are exact
        peaks.append(np.maximum(vals.max(1), -vals.min(1)))
        r, i = _scan(vals)
        at_row.append(r)
        left.append(i)
        # a block's last column is the next block's first
        last = stop - start + (stop == n)
        for row, i in zip(*(v.tolist() for v in np.divmod(np.flatnonzero(vals[:, :last] == 0.0),
                                                            last))):
            zeros[row].append(start + i)
    if len(blocks) == 1:
        (peaks,), (at_row,), (left,) = peaks, at_row, left
    else:
        peaks = np.maximum.reduce(peaks)
        at_row = np.concatenate(at_row)
        left = np.concatenate([i + start for i, start in zip(left, blocks)])
        order = np.argsort(at_row, kind="stable")  # the blocks come in time order
        at_row, left = at_row[order], left[order]
    k = left[:, None] + _STENCIL
    k = np.where((k < 0) | (k > n), k % n, k)
    if len(blocks) > 1:
        cols = np.unique(k)
        vals, k = np.stack([r[cols] for r in rows]), np.searchsorted(cols, k)
    return peaks.tolist(), at_row, left, vals[at_row[:, None], k], zeros


def _interpolated(t: np.ndarray, left: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear-interpolation roots in the brackets from t[left] to t[left + 1], whose end
    samples are a and b, for signals without a jet."""
    return t[left] - a * (t[left + 1] - t[left]) / (b - a)


def _zero_roots(t: np.ndarray, row: np.ndarray, zeros: list[int],
                transversal_only: bool) -> list[float]:
    """t at the middle of each run of a signal's exact-zero samples, whose indices are zeros.

    A run split by the period seam counts once, its middle taken modulo
    the period; a zero at the seam sample alone stays listed at both t[0]
    and t[-1].  With transversal_only the signal must change sign across
    a run, which drops tangential (double) zeros: runs are maximal, so the
    samples either side of a run are its neighbours, looked up round the
    period, and a core of zeros alone has no root.
    """
    n = row.size - 1  # the last sample is the first, one period later
    runs = []
    for i in zeros:
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n and (
            runs[0][1] > 0 or runs[-1][0] < n):
        runs[-1][1] = runs.pop(0)[1] + n  # one run through the seam, its end past n
    if transversal_only:
        if runs and runs[0][0] == 0 and runs[0][1] >= n - 1:
            return []
        runs = [(a, b) for a, b in runs if np.sign(_nonzero_from(row, a - 1, -1, n))
                * np.sign(_nonzero_from(row, b + 1, 1, n)) < 0.0]
    return [float(t[(a + b) // 2 if b <= n else (a + b) // 2 % n]) for a, b in runs]


def _nonzero_from(row: np.ndarray, i: int, step: int, n: int) -> float:
    """The first nonzero sample from i, stepping by step round the period of n samples."""
    i %= n
    while row[i] == 0.0:
        i = (i + step) % n
    return row[i]


@dataclass(frozen=True)
class _PlaneRoots:
    """What the analyses of one plane read: its roots, and its values there.

    abscissa holds the roots of u, and du and dw the transversal roots of
    du/dt and dw/dt.  spans are the intervals between consecutive rate
    roots and the period ends, over which the slope keeps its sign.  peak
    holds max |u|, max |w|, max |du/dt| and max |dw/dt| over the grid,
    the scales the analyses' tolerances are relative to.  at maps every
    root and every span midpoint to (u, w, du/dt, dw/dt) there.  Each is
    read off refine_planes's one pass over the distinct rows of the
    planes it is given: a row two planes share gives both the same roots
    and peak.  Where u or du/dt is a drive level on the jet, its roots
    are exact phases and its peak the level's over the period
    (_level_roots).  On a plane given without its rates, refined for its
    abscissa alone, du, dw and spans are None, and peak and at hold
    max |u|, max |w| and the abscissa roots' (u, w) alone.
    """

    abscissa: list[float]
    du: list[float] | None
    dw: list[float] | None
    spans: list[tuple[float, float]] | None
    peak: tuple[float, ...]
    at: dict[float, tuple[float, ...]]


def refine_planes(planes) -> None:
    """Refine every root the analyses of some planes need, and read their values there.

    Each element of planes is (locus, rates), rates being the locus whose
    samples are the plane's rates (du/dt, dw/dt), jet signals exactly
    when it has the jet, or (locus,) for a plane whose abscissa alone is
    read, which is all origin_crossing and valuedness read (_PlaneRoots).
    The loci are taken to share one jet and one grid.  A plane's signal rows
    are its abscissa u (for origin_crossing) and its rates du/dt and
    dw/dt (for rate_landmarks); a row two planes share, such as plane d's
    du/dt and plane d + 1's u, is one array, taken once.  A distinct row
    that is a drive level on the jet (an abscissa row of a jet locus)
    takes its zeros and peak from the phase (_level_roots).  The others,
    the ordinate rows and every row off the jet, are scanned for sign
    changes, peaks and exact zeros (_zero_roots), a column block at a
    time, and the samples round each bracket gathered (_scan_rows).
    Every bracket the jet covers, each on an ordinate row, is refined in
    one lock-step bisection through jet_signals, seeded by _inverse_root;
    the others keep their linear-interpolation root.  One
    _jet block at every plane's roots and slope-span midpoints gives
    (u, w, du/dt, dw/dt) there, each plane reading the rows of its locus
    and its rates; what the jet does not give is interpolated in their
    samples.  Each plane's _PlaneRoots, its rows' slices of all this, is
    stored on its locus; a locus that only holds rates is not refined.
    """
    rows, depths, index = [], [], {}  # distinct rows, their jet depths, id -> row
    levels = {}  # row -> zeros and peak of a drive level on the jet, which is not scanned

    def row(locus: ParametricLocus, ordinate: bool) -> int:
        values = locus.w_values if ordinate else locus.u_values
        if id(values) not in index:
            index[id(values)] = len(rows)
            if locus.jet and not ordinate:
                levels[len(rows)] = _level_roots(locus.jet[1], locus.depth, float(t[-1]))
            rows.append(values)
            depths.append(locus.depth if locus.jet else None)
        return index[id(values)]

    t = planes[0][0].t_values
    n = t.size - 1
    # each plane's locus and rates, and their rows
    planes = [(pair, row(pair[0], False), *(row(a, o) for a in pair[1:] for o in (False, True)))
              for pair in planes]
    jet = next((p.jet for pair, *_ in planes for p in pair if p.jet is not None), None)

    scanned = np.array([r for r in range(len(rows)) if r not in levels], dtype=int)
    peaks, at_row, left, samples, zeros = _scan_rows([rows[r] for r in scanned], n)
    peaks = dict(zip(scanned.tolist(), peaks)) | {r: peak for r, (_, peak) in levels.items()}
    zeros = dict(zip(scanned.tolist(), zeros))
    at_row = scanned[at_row]
    crossings = _interpolated(t, left, samples[:, 2], samples[:, 3])
    # the brackets the jet covers, all on ordinate rows
    hooked = np.flatnonzero(np.array([d is not None for d in depths])[at_row])
    if hooked.size:
        depth = np.array([depths[r] for r in at_row[hooked].tolist()])
        i = left[hooked]
        a, b = t[i], t[i + 1]
        stencil = samples[hooked]
        crossings[hooked] = bisect(
            lambda x, live: jet_signals(*jet, x, depth[live]),
            a, b, stencil[:, 2], stencil[:, 3], xtol=_REFINE_XTOL,
            guess=a + _inverse_root(stencil) * (b - a))

    # each row's crossings, in scan order
    stops = np.cumsum(np.bincount(at_row, minlength=len(rows))).tolist()
    crossings = crossings.tolist()

    def roots(r: int, transversal_only: bool) -> list[float]:
        if r in levels:
            return levels[r][0]
        return _dedupe(crossings[stops[r - 1] if r else 0:stops[r]]
                       + _zero_roots(t, rows[r], zeros[r], transversal_only), 10.0 * _REFINE_XTOL)

    found = []
    for (locus, *_), u, *rate_rows in planes:
        w = locus.w_values
        peak_w = peaks[index[id(w)]] if id(w) in index else float(np.maximum(w.max(), -w.min()))
        abscissa = roots(u, False)
        if not rate_rows:
            found.append(([abscissa, None, None, None, (peaks[u], peak_w)], abscissa))
            continue
        du, dw = rate_rows
        du_roots, dw_roots = roots(du, True), roots(dw, True)
        spans = _spans(t, du_roots + dw_roots)
        times = abscissa + du_roots + dw_roots + [0.5 * (a + b) for a, b in spans]
        found.append(([abscissa, du_roots, dw_roots, spans,
                       (peaks[u], peak_w, peaks[du], peaks[dw])], times))

    # one jet block at every plane's times; a plane reads the rows of its locus's
    # depth and of its rates' where they have the jet
    blocks = [None] * len(found)
    if jet is not None:
        top = max(p.depth for pair, *_ in planes for p in pair if p.jet)
        blocks = np.split(np.stack(_jet(*jet, np.concatenate([times for _, times in found]), top)),
                          np.cumsum([len(times) for _, times in found])[:-1], axis=2)
    for (pair, *_), (plane, times), xy in zip(planes, found, blocks):
        values = []
        for p in pair:
            values.extend(xy[:, p.depth] if p.jet else
                          [np.interp(times, t, v) for v in (p.u_values, p.w_values)])
        at = dict(zip(times, zip(*(v.tolist() for v in values))))
        object.__setattr__(pair[0], "_roots", _PlaneRoots(*plane, at))


def _level_roots(exc: Excitation, k: int, period: float) -> tuple[list[float], float]:
    """Drive level k's zeros over a grid of the drive's period, and its peak, off the phase.

    Level k > 0, -A w^k cos(w t + k pi/2), vanishes at the odd quarter
    periods for even k, at the half periods for odd k; level 0,
    offset - A cos(w t), where cos(w t) is offset/A.  A zero at phase 0 is
    listed at 0 and at the period, as a scan lists a zero at the seam.
    """
    if k:
        quarters = (0.25, 0.75) if k % 2 == 0 else (0.0, 0.5, 1.0)
        return [q * period for q in quarters], exc.amplitude * exc.omega ** k
    c, peak = exc.offset / exc.amplitude, abs(exc.offset) + exc.amplitude
    if not -1.0 <= c <= 1.0:
        return [], peak
    first = float(np.arccos(c)) / exc.omega
    return _dedupe([first, period - first], 0.0), peak


def _inverse_root(samples: np.ndarray) -> np.ndarray:
    """Each row's root, in grid steps from its third sample, by inverse interpolation.

    A row holds a signal's samples at _STENCIL's offsets.  The polynomial
    through the points (value, offset) is evaluated at value 0, in
    Lagrange form.  Where values repeat, the result is not finite.
    """
    with np.errstate(all="ignore"):
        # ratio[:, k, i] = v_i / (v_i - v_k), and the product over i != k is basis k at 0
        ratio = samples[:, None, :] / (samples[:, None, :] - samples[:, :, None])
        ratio[:, _DIAGONAL] = 1.0
        return ratio.prod(2) @ _STENCIL


def _spans(t: np.ndarray, roots: list[float]) -> list[tuple[float, float]]:
    """The intervals longer than 1e-9 between consecutive roots and the period ends."""
    bps = _dedupe(roots + [float(t[0]), float(t[-1])], 1e-9)
    return [(a, b) for a, b in zip(bps[:-1], bps[1:]) if b - a > 1e-9]


def _plane_roots(locus: ParametricLocus, rates: bool = False) -> _PlaneRoots:
    """The roots refine_planes stored on the locus, with its rates' if rates is set.

    Where none are stored, or rates is set and only the abscissa was
    refined, the locus is refined with its transform as its rates.
    """
    roots = vars(locus).get("_roots")
    if roots is None or (rates and roots.du is None):
        refine_planes([(locus, _transform(locus))])
        roots = vars(locus)["_roots"]
    return roots


def _peaks(locus: ParametricLocus) -> tuple[float, float]:
    """max |u| and max |w|: stored where refine_planes refined the locus, else off its samples."""
    roots = vars(locus).get("_roots")
    return roots.peak[:2] if roots is not None else tuple(
        float(max(v.max(), -v.min())) for v in (locus.u_values, locus.w_values))


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
    loci at (T - t) mod T.  On the grid i*T/n every locus lies on, that
    is the time of sample i's mirror, up to rounding: (h - i) mod n for
    h = 0 at even depth and, for even n, h = n/2 at odd depth, so the
    gaps are read off reversed slices of the samples.  Odd depth on an
    odd n has no mirror, and is read by point_at at the pair times.  A
    locus is double-valued when the paired ordinates disagree anywhere
    beyond tol * max(1, max |w|) (_peaks); its witnesses are up to four of the
    largest gaps, T/64 apart, and equal gaps, such as a mirror pair's,
    rank in time order.
    """
    t, w = locus.t_values, locus.w_values
    n = t.size - 1
    odd = locus.depth % 2
    if odd and n % 2:
        t_pair = np.mod(0.5 * locus.period - t, locus.period)
        w_pair, h = point_at(locus, t_pair)[1], None
        gap = np.abs(w - w_pair)
    else:
        # sample i pairs with sample (h - i) mod n: h down to 0, then n - 1 down to h
        t_pair, w_pair, h = t, w, n // 2 * odd
        gap = np.concatenate((np.abs(w[:h + 1] - w[h::-1]), np.abs(w[h + 1:] - w[h:-1][::-1])))
    bar = tol * max(1.0, _peaks(locus)[1])
    max_gap = float(np.max(gap))
    if max_gap <= bar:
        return ValuednessReport(Valuedness.SINGLE, max_gap, ())

    # the largest gap left, T/64 clear of the witnesses before it, is the
    # next; argmax takes the first of equal gaps, so ties rank in time order
    rest = np.where(gap > bar, gap, -np.inf)
    reach = n // 64 + 2
    witnesses: list[ValuednessWitness] = []
    while len(witnesses) < 4:
        i = int(np.argmax(rest))
        if rest[i] == -np.inf:
            break
        j = i if h is None else (h - i) % n
        witnesses.append(ValuednessWitness(*map(float, (t[i], t_pair[j], w[i], w_pair[j]))))
        # on the grid contract no sample T/64 away lies beyond n/64 + 2 samples
        near = slice(max(i - reach, 0), i + reach + 1)
        rest[near][np.abs(t[near] - t[i]) < locus.period / 64.0] = -np.inf
    return ValuednessReport(Valuedness.DOUBLE, max_gap, tuple(witnesses))


def odd_symmetry(locus: ParametricLocus, tol: float = 1e-9) -> SymmetryReport:
    """Point symmetry through the origin under time reversal t_i -> T - t_i = t_(n-i).

    The scale is max(1, max |u|, max |w|) (_peaks).
    """
    u, w = locus.u_values, locus.w_values
    violation = max(float(np.max(np.abs(u + u[::-1]))), float(np.max(np.abs(w + w[::-1]))))
    return SymmetryReport(odd_symmetric=violation <= tol * max(1.0, *_peaks(locus)),
                          max_violation=violation)


# ----------------------------------------------------------------------
# tangent landmarks and slope arcs
# ----------------------------------------------------------------------

def rate_landmarks(locus: ParametricLocus, root_tol: float = 1e-10
                   ) -> tuple[tuple[SpecialPoint, ...], tuple[SpecialPoint, ...],
                              tuple[ArcInterval, ...]]:
    """Zero tangents, vertical tangents and negative-slope arcs of a locus.

    The transversal roots of du/dt and dw/dt are refined once each and
    shared by all three results.  A locus refined for its abscissa alone
    is refined again with its rates (_plane_roots).
    """
    plane = _plane_roots(locus, rates=True)
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
    at = _plane_roots(locus, rates=True).at
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

def phase_shift(curve: ConstitutiveCurve, exc: Excitation) -> PhaseReport:
    """Timing of the first depth-1 ordinate peak against the drive-rate peak.

    Peaks are maxima: transversal roots of the depth-1 locus's rates
    dw/dt and du/dt crossed from positive to negative, located on the
    outgoing half-period.  The depth-1 locus is refined with the depth-2
    locus as its rates on an 8192-interval grid, whose first half is a
    4096-interval grid of the outgoing half-period, so the peaks are
    roots refine_planes finds; nothing reads the depth-2 locus's own
    roots, so it is not refined.  A shift within 1e-6 counts as in phase.
    The report holds the refined depth-1 locus, whose even samples are
    the default grid's.
    """
    _, locus, rates = analytic_chain(curve, exc, 2, grid(exc, 8192))
    refine_planes([(locus, rates)])
    plane = _plane_roots(locus)
    half = 0.5 * locus.period
    t_w = _first_maximum(plane, plane.dw, 3, half)
    t_u = _first_maximum(plane, plane.du, 2, half)
    shift = t_w - t_u
    if shift > _PHASE_TOL:
        cls = PhaseClass.LAG
    elif shift < -_PHASE_TOL:
        cls = PhaseClass.ADVANCE
    else:
        cls = PhaseClass.IN_PHASE
    return PhaseReport(
        t_peak_ordinate=t_w, t_peak_abscissa=t_u, shift=shift, classification=cls,
        locus=locus,
    )


def _first_maximum(plane: _PlaneRoots, roots: list[float], rate: int, half: float) -> float:
    """First root in (0, half) where plane.at's rate column crosses from + to -.

    The spans run between consecutive du/dt and dw/dt roots, so a rate
    keeps its sign across each, and its values at the midpoints of the
    spans before and after a root are its signs on either side.
    """
    mids = [0.5 * (a + b) for a, b in plane.spans]
    for r, k in zip(roots, np.searchsorted(mids, roots).tolist()):
        if 0.0 < r < half and 0 < k < len(mids) and (
                plane.at[mids[k - 1]][rate] > 0.0 > plane.at[mids[k]][rate]):
            return float(r)
    raise NumericalError("no ordinate maximum found on the outgoing half-period")
