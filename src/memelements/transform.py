"""Differential transforms that project constitutive curves into deeper planes.

One transform maps a parametric curve (u(t), w(t)) to (du/dt, dw/dt).
Applied to a constitutive curve y = f(x) under a periodic drive x(t), the
chain of transformed loci walks the element across the periodic table of
circuit variables one differentiation at a time.  The conformal property
of the map, that the tangent direction at a source point equals the
origin-chord direction of its image, is what the downstream geometry
analyses rely on.

Ordinates come from the chain rule in closed form at every depth the
curve supports (Faa di Bruno's formula):

    d^k/dt^k f(x(t)) = sum_{j=1..k} f^(j)(x) B_{k,j}(x', x'', ...)

with the partial Bell polynomials built by the recursion

    B_{0,0} = 1,  B_{n,j} = sum_i C(n-1, i-1) x^(i) B_{n-i,j-1}.

Every coordinate is read off a Taylor jet of the curve and drive at the
times asked for: the drive levels x, x', ... from one cos and one sin,
the curve derivatives after one range check, and the Bell rows from a
plan cached per order.  Every operation is elementwise, so a value does
not depend on the other times the jet is taken at, bit for bit; grid
samples therefore stand in for any later jet evaluation at grid times.
The loci of a chain are views of one jet on the grid (analytic_chain),
which runs one level deeper to give the last plane's rates.  Off the
grid, jet_signals evaluates any mix of depths and coordinates in one
call, each ordinate depth on the elements that ask for it alone.  An
analytic locus names its (curve, drive) pair as its jet, which
loci.point_at reads at depth k for coordinates and the analyses at
depth k + 1 for rates.  The depth a chain may reach is the curve's
max_derivative_order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .constitutive import ConstitutiveCurve
from .errors import CapabilityError, DomainError, NumericalError
from .excitation import _MIN_GRID_N, Excitation, SampleGrid, _levels, _check_grid, grid

__all__ = [
    "ParametricLocus",
    "chain_ordinate",
    "analytic_locus",
    "numeric_transform",
    "periodic_derivative",
    "csv_texts",
    "columns_to_csv",
    "locus_to_csv",
]

def default_labels(depth: int) -> tuple[str, str]:
    """Generic axis labels for a depth-k locus."""
    if depth == 0:
        return ("x", "y")
    suffix = "'" * depth if depth <= 3 else f"^({depth})"
    return (f"x{suffix}", f"y{suffix}")


@dataclass(frozen=True, eq=False)
class ParametricLocus:
    """One closed locus (u(t), w(t)) sampled over a drive period.

    jet, on an analytic locus, is the (curve, drive) pair whose depth-k
    transform the locus is.  Its Taylor jet gives exact coordinates at
    depth k and exact coordinate rates at depth k + 1 (where the curve
    has that derivative) at arbitrary times; analyses read it to refine
    roots far below the grid resolution, and loci.point_at to evaluate
    the locus off the grid.  Finite-difference loci carry no jet and are
    analysed at grid accuracy instead.

    A locus built from caller arrays is checked (finite u and w, and t on
    the grid i*T/n that excitation.grid makes, _check_grid) and holds
    read-only copies of them.  The loci this module builds are views of a
    checked grid's t and of fresh sample rows instead (_view).
    """

    t_values: np.ndarray
    u_values: np.ndarray
    w_values: np.ndarray
    depth: int
    axis_labels: tuple[str, str]
    jet: tuple[ConstitutiveCurve, Excitation] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.t_values, dtype=float)
        u = np.asarray(self.u_values, dtype=float)
        w = np.asarray(self.w_values, dtype=float)
        if not (t.ndim == u.ndim == w.ndim == 1 and _MIN_GRID_N < len(t) == len(u) == len(w)):
            raise DomainError(f"t, u, w must be one-dimensional and equally long, with at "
                              f"least {_MIN_GRID_N + 1} samples")
        _check_grid(t, DomainError)
        if not (np.isfinite(u).all() and np.isfinite(w).all()):
            raise DomainError("u and w must be finite")
        if self.depth < 0:
            raise DomainError("depth must be non-negative")
        if self.jet is not None and not (
                isinstance(self.jet, tuple) and len(self.jet) == 2
                and isinstance(self.jet[0], ConstitutiveCurve)
                and isinstance(self.jet[1], Excitation)
                and self.depth <= self.jet[0].max_derivative_order):
            raise DomainError("jet must be a (curve, drive) pair whose curve reaches the depth")
        for name, arr in (("t_values", t), ("u_values", u), ("w_values", w)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "axis_labels", tuple(self.axis_labels))

    @classmethod
    def _view(cls, t: np.ndarray, u: np.ndarray, w: np.ndarray, depth: int,
              jet: tuple[ConstitutiveCurve, Excitation] | None = None) -> ParametricLocus:
        """A locus with default labels holding its arrays as given, unchecked and uncopied.

        t must be a read-only, checked grid (a SampleGrid's or a locus's
        t_values), and u and w fresh rows that nothing else writes; they
        are made read-only here.
        """
        u.flags.writeable = w.flags.writeable = False
        locus = object.__new__(cls)
        vars(locus).update(t_values=t, u_values=u, w_values=w, depth=depth,
                           axis_labels=default_labels(depth), jet=jet)
        return locus

    @property
    def provenance(self) -> str:
        """"analytic" for a locus with a jet, "numeric" for one without."""
        return "numeric" if self.jet is None else "analytic"

    @property
    def period(self) -> float:
        return float(self.t_values[-1])

    @property
    def spacing(self) -> float:
        return float(self.t_values[1])

    def __len__(self) -> int:
        return len(self.t_values)


# ----------------------------------------------------------------------
# chain-rule ordinates
# ----------------------------------------------------------------------

def _branch_mask(exc: Excitation, t: np.ndarray) -> np.ndarray:
    """True where the drive is on its outgoing half-period."""
    tm = np.mod(t, exc.period)
    return tm <= 0.5 * exc.period * (1.0 + 1e-12)


@lru_cache(maxsize=None)
def _bell_plan(n: int) -> tuple[tuple[int | None, ...], ...]:
    """For each Bell row m = 1..n, the multipliers C(m - 1, i - 1) of x^(i), i = 1..m-1.

    A multiplier of 1 is held as None, so that no product by 1 is taken.
    """
    return tuple(tuple(None if comb(m - 1, i - 1) == 1 else comb(m - 1, i - 1)
                       for i in range(1, m)) for m in range(1, n + 1))


def _bell(x, n: int) -> list:
    """Rows 0..n of the partial Bell polynomials in x[1], x[2], ...: rows[m][j] is B_{m,j}.

    B_{m,0} is 1 at m = 0 and zero otherwise; the zero is held as None so
    that no sum ever adds it.
    """
    rows = [[1.0]]
    for m, multipliers in enumerate(_bell_plan(n), start=1):
        scaled = [x[i] if c is None else c * x[i] for i, c in enumerate(multipliers, start=1)]
        row = [None, x[m]]
        for j in range(2, m + 1):
            terms = [scaled[i - 1] * rows[m - i][j - 1] for i in range(1, m - j + 2)]
            row.append(sum(terms[1:], terms[0]))
        rows.append(row)
    return rows


class _Jet:
    """Taylor jet of f(x(t)) for one curve and drive at times t.

    Holds the drive levels x, x', ..., x^(top), and, up to depth order,
    the curve derivatives at x (one range check per single-valued curve)
    and the partial Bell rows.  Every depth-k abscissa is a level and every depth-k
    ordinate a Faa di Bruno sum over them, so all depths share one jet.
    levels, when given, are the levels at t already.  Every operation is
    elementwise, so a value does not depend on the other times in t.
    """

    def __init__(self, curve: ConstitutiveCurve, exc: Excitation, t, top: int, order: int,
                 levels: np.ndarray | None = None):
        self.curve, self.exc, self.order = curve, exc, order
        self.t = np.asarray(t, dtype=float)
        self.x = _levels(exc, self.t, top) if levels is None else levels
        self.bell = _bell(self.x, order)
        self.f = {}

    def ordinate(self, depth: int, part=..., curve: ConstitutiveCurve | None = None):
        """d^k/dt^k f(x(t)) at the times in part, f the jet's curve unless given.

        A two-branch curve follows the sweep, each branch's stack taken once.
        """
        curve = self.curve if curve is None else curve
        if curve.is_two_branch:
            return np.where(_branch_mask(self.exc, self.t[part]),
                            self.ordinate(depth, part, curve.outgoing),
                            self.ordinate(depth, part, curve.returning))
        if id(curve) not in self.f:
            self.f[id(curve)] = curve._stack(self.x[0], self.order)
        f = self.f[id(curve)]
        if depth == 0:
            return f[0][part]  # f B_{0,0}, and a product by 1 changes no bit
        # summed from the j = k term down and never from zero, so depths 1-2
        # round exactly like f' x' and f'' x'^2 + f' x'', signed zeros included
        bell = self.bell[depth]
        terms = [f[j][part] * bell[j][part] for j in range(depth, 0, -1)]
        return sum(terms[1:], terms[0])


def chain_ordinate(curve: ConstitutiveCurve, exc: Excitation, t, depth: int):
    """Exact depth-k ordinate d^k/dt^k f(x(t)) at time t.

    Raises CapabilityError when k exceeds the curve's max_derivative_order.
    On a two-branch curve the outgoing branch covers the first half-period
    and the returning branch the second, matching the direction the drive
    actually sweeps.
    """
    depth = int(depth)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    out = _Jet(curve, exc, t, depth, depth).ordinate(depth)
    return float(out) if np.ndim(t) == 0 else out


def jet_signals(curve: ConstitutiveCurve, exc: Excitation, t: np.ndarray,
                depth: np.ndarray, ordinate: np.ndarray) -> np.ndarray:
    """Per element e, x^(depth[e]) or, where ordinate[e], d^depth[e]/dt f(x(t)).

    The levels run to the deepest element.  The curve derivatives and Bell
    rows are taken on the ordinate elements alone, and each depth's Faa di
    Bruno sum on the elements that ask for that depth.
    """
    x = _levels(exc, t, int(depth.max(initial=0)))
    out = x[depth, np.arange(depth.size)]
    asks = np.flatnonzero(ordinate)
    if asks.size:
        asks = asks[np.argsort(depth[asks], kind="stable")]  # grouped by depth
        counts = np.bincount(depth[asks]).tolist()
        jet = _Jet(curve, exc, t[asks], 0, len(counts) - 1, levels=x[:, asks])
        lo = 0
        for k, count in enumerate(counts):
            if count:
                out[asks[lo:lo + count]] = jet.ordinate(k, part=slice(lo, lo + count))
                lo += count
    return out


# ----------------------------------------------------------------------
# locus construction
# ----------------------------------------------------------------------

def _checked_depth(curve: ConstitutiveCurve, depth) -> int:
    depth = int(depth)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if depth > curve.max_derivative_order:
        raise CapabilityError(
            f"depth {depth} needs curve derivatives up to order {depth}; this "
            f"{curve.family} curve supports {curve.max_derivative_order}"
        )
    return depth


def _grid_ordinate(jet: _Jet, depth: int) -> np.ndarray:
    """The depth-k ordinate row of a grid jet; NumericalError where it passes float range."""
    # the drive levels are finite, but the Bell rows grow like (A w)^k; the jet
    # is built with overflow warnings off, so such a row shows here alone
    row = jet.ordinate(depth)
    if not np.isfinite(row).all():
        raise NumericalError(f"depth {depth} ordinate is beyond float range: "
                             f"amplitude {jet.exc.amplitude!r}, omega {jet.exc.omega!r}")
    return row


def _jet_locus(t: np.ndarray, jet: _Jet, depth: int) -> ParametricLocus:
    """The depth-k locus whose samples are views of the grid jet's depth-k rows."""
    return ParametricLocus._view(t, jet.x[depth], _grid_ordinate(jet, depth), depth,
                                 (jet.curve, jet.exc))


def analytic_locus(
    curve: ConstitutiveCurve,
    exc: Excitation,
    depth: int,
    sample_grid: SampleGrid | None = None,
) -> ParametricLocus:
    """Depth-k locus of the curve under the drive, from the closed-form chain rule.

    The locus's jet is (curve, exc), which gives its coordinates at depth k
    and, where the curve has a derivative of order k + 1, its rates.
    """
    depth = _checked_depth(curve, depth)
    t = (sample_grid if sample_grid is not None else grid(exc)).t_values
    with np.errstate(over="ignore", invalid="ignore"):
        return _jet_locus(t, _Jet(curve, exc, t, depth, depth), depth)


def analytic_chain(
    curve: ConstitutiveCurve, exc: Excitation, depth: int, sample_grid: SampleGrid
) -> tuple[tuple[ParametricLocus, ...], tuple[np.ndarray, np.ndarray] | None]:
    """The loci of depths 0..k, and the depth-k coordinate rates, off one grid jet.

    Each locus equals analytic_locus's for its depth, bit for bit.  The
    jet runs one level past k where the curve has a derivative of order
    k + 1, and its depth-(k+1) rows are then the rates (du/dt, dw/dt) of
    the last locus; without that derivative the rates are None.
    """
    depth = _checked_depth(curve, depth)
    t = sample_grid.t_values
    top = min(depth + 1, curve.max_derivative_order)
    with np.errstate(over="ignore", invalid="ignore"):
        jet = _Jet(curve, exc, t, top, top)
        chain = tuple(_jet_locus(t, jet, d) for d in range(depth + 1))
        return chain, (jet.x[top], _grid_ordinate(jet, top)) if top > depth else None


def periodic_derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """Central finite differences of a closed periodic sample array.

    The array covers one period inclusively (first and last samples are
    the same physical point); the stencil wraps across that seam.
    """
    vals = np.asarray(values, dtype=float)
    core = vals[:-1]
    d = (np.roll(core, -1) - np.roll(core, 1)) / (2.0 * spacing)
    return np.append(d, d[0])


def numeric_transform(locus: ParametricLocus) -> ParametricLocus:
    """Finite-difference differential transform of a sampled locus.

    Raises NumericalError, naming the new depth, where a difference
    quotient passes float range.
    """
    h = locus.spacing
    depth = locus.depth + 1
    with np.errstate(over="ignore"):
        u = periodic_derivative(locus.u_values, h)
        w = periodic_derivative(locus.w_values, h)
    if not (np.isfinite(u).all() and np.isfinite(w).all()):
        raise NumericalError(f"depth {depth} finite differences are beyond float range: "
                             f"sample spacing {h!r}")
    return ParametricLocus._view(locus.t_values, u, w, depth)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

# Rows are formatted and joined this many at a time, so the row strings
# held at once are one block's, not a whole table's.
_CSV_BLOCK = 4096


def csv_texts(header: str, lead, tables) -> list[str]:
    """CSV texts of tables that share a leading column, written in one pass.

    Text k is the header, then one row per sample: the lead value, then
    the values of table k's columns.  Each block of rows formats the
    lead's repr once for every table; repr floats round-trip exactly.
    Raises DomainError for a column that is not one-dimensional, columns
    of unequal length, or a header whose field count is not a table's
    column count.
    """
    lead = _csv_column(lead)
    tables = [[_csv_column(col) for col in cols] for cols in tables]
    fields = header.count(",") + 1
    for cols in tables:
        if len(cols) + 1 != fields:
            raise DomainError(f"header has {fields} fields for {len(cols) + 1} columns")
        for col in cols:
            if len(col) != len(lead):
                raise DomainError(f"columns of unequal length: {len(lead)} and {len(col)}")
    texts = [[header] for _ in tables]
    for start in range(0, len(lead), _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        lead_text = list(map(repr, lead[block].tolist()))
        for text, cols in zip(texts, tables):
            rows = zip(lead_text, *(map(repr, col[block].tolist()) for col in cols))
            text.append("\n".join(map(",".join, rows)))
    # an empty last field ends the text with a newline without copying it again
    return ["\n".join([*text, ""]) for text in texts]


def _csv_column(col) -> np.ndarray:
    arr = np.asarray(col, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"a CSV column must be one-dimensional, got shape {arr.shape}")
    return arr


def columns_to_csv(header: str, lead, *columns) -> str:
    """CSV text: the header, then one row per sample; repr floats round-trip exactly."""
    return csv_texts(header, lead, [columns])[0]


def locus_to_csv(locus: ParametricLocus) -> str:
    """CSV text with header t,u,w; full float precision, round-trip exact."""
    return columns_to_csv("t,u,w", locus.t_values, locus.u_values, locus.w_values)
