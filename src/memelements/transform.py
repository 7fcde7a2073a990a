"""Differential transforms that project constitutive curves into deeper planes.

One transform maps a parametric curve (u(t), w(t)) to (du/dt, dw/dt).
Applied to a constitutive curve y = f(x) under a periodic drive x(t), the
chain of transformed loci walks the element across the periodic table of
circuit variables one differentiation at a time.  The conformal property
of the map, that the tangent direction at a source point equals the
origin-chord direction of its image, is what the downstream geometry
analyses rely on.

Ordinates come from the chain rule in closed form at every depth (Faa di
Bruno's formula):

    d^k/dt^k f(x(t)) = sum_{j=1..k} f^(j)(x) B_{k,j}(x', x'', ...)

with the partial Bell polynomials built by the recursion

    B_{0,0} = 1,  B_{n,j} = sum_i C(n-1, i-1) x^(i) B_{n-i,j-1}.

Every coordinate is read off one Taylor jet of the curve and drive at
the times asked for (_jet): a block of drive levels x, x', ... from one
cos and one sin, and a block of ordinate rows from the curve derivatives
after one range check and the Bell rows from a plan cached per order.
The kernel writes into those blocks: each Bell and Faa di Bruno sum is
accumulated in place, the ordinates over the derivative block itself,
and no buffer outlives the call.  Its rule is the same float operations
in the same order as a kernel that builds lists of rows, nothing
reordered or fused, so the values are that kernel's bit for bit.  Every
operation is elementwise, so a value does not depend on the other times
the jet is taken at, bit for bit; grid samples therefore stand in for
any later jet evaluation at grid times.  The loci of a chain are views
of one jet on the grid (analytic_chain), each past the first holding
the rates of the one before.  Off the grid, jet_signals evaluates
ordinates of any mix of depths in one call; the drive levels need no
such call, their zeros and peaks being closed form (loci).  An analytic locus names its (curve, drive)
pair as its jet, which loci.point_at reads at depth k for coordinates
and the analyses at depth k + 1 for rates.  No chain is built deeper
than constitutive.MAX_DERIVATIVE_ORDER, a bound on the work one request
can cause; _checked_depth raises CapabilityError before any row is made.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .constitutive import MAX_DERIVATIVE_ORDER, ConstitutiveCurve
from .errors import CapabilityError, DomainError, NumericalError
from .excitation import (_MIN_GRID_N, Excitation, SampleGrid, _check_grid, _finite_times, _levels,
                         grid)

__all__ = [
    "ParametricLocus",
    "chain_ordinate",
    "analytic_locus",
    "numeric_transform",
    "periodic_derivative",
    "columns_to_csv",
    "locus_to_csv",
]

@dataclass(frozen=True, eq=False)
class ParametricLocus:
    """One closed locus (u(t), w(t)) sampled over a drive period.

    jet, on an analytic locus, is the (curve, drive) pair whose depth-k
    transform the locus is.  Its Taylor jet gives exact coordinates at
    depth k and exact coordinate rates at depth k + 1 at arbitrary
    times; analyses read it to refine
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
    jet: tuple[ConstitutiveCurve, Excitation] | None = field(default=None, repr=False,
                                                             kw_only=True)

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
                and self.depth <= MAX_DERIVATIVE_ORDER):
            raise DomainError("jet must be a (curve, drive) pair, on a locus no deeper than "
                              f"MAX_DERIVATIVE_ORDER {MAX_DERIVATIVE_ORDER}")
        for name, arr in (("t_values", t), ("u_values", u), ("w_values", w)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _view(cls, t: np.ndarray, u: np.ndarray, w: np.ndarray, depth: int,
              jet: tuple[ConstitutiveCurve, Excitation] | None = None) -> ParametricLocus:
        """A locus holding its arrays as given, unchecked and uncopied.

        t must be a read-only, checked grid (a SampleGrid's or a locus's
        t_values), and u and w fresh rows that nothing else writes; they
        are made read-only here.
        """
        u.flags.writeable = w.flags.writeable = False
        locus = object.__new__(cls)
        vars(locus).update(t_values=t, u_values=u, w_values=w, depth=depth, jet=jet)
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


def _bell(x: np.ndarray, n: int) -> list:
    """Rows 0..n of the partial Bell polynomials in x[1], x[2], ...: rows[m][j] is B_{m,j}.

    B_{m,0} is 1 at m = 0 and zero otherwise; the zero is held as None so
    that no sum ever adds it.  Each sum starts at its first term and adds
    the others in place, in the recursion's order.
    """
    rows = [[1.0]]
    term = np.empty_like(x[0]) if n > 2 else None
    for m, multipliers in enumerate(_bell_plan(n), start=1):
        scaled = [x[i] if c is None else c * x[i] for i, c in enumerate(multipliers, start=1)]
        row = [None, x[m]]
        for j in range(2, m + 1):
            acc = scaled[0] * rows[m - 1][j - 1]
            for i in range(2, m - j + 2):
                acc += np.multiply(scaled[i - 1], rows[m - i][j - 1], out=term)
            row.append(acc)
        rows.append(row)
    return rows


def _jet(curve: ConstitutiveCurve, exc: Excitation, t,
         depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor jet of f(x(t)) at times t: blocks of levels x^(d) and ordinates y^(d), d = 0..depth.

    The ordinate rows are Faa di Bruno sums over one set of Bell rows, each
    accumulated in place in the derivative block of a single-valued curve;
    a two-branch curve follows the sweep (_branch_mask).  Every operation
    is elementwise, so a value does not depend on the other times in t.
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    x = _levels(exc, flat, depth)
    bell = _bell(x, depth)
    term = np.empty_like(flat) if depth > 1 else None

    def rows(single: ConstitutiveCurve) -> np.ndarray:
        # each row k is written over f^(k) once no shallower row needs it; it
        # starts at its j = k term, never at zero, so depths 1-2 round like
        # f' x' and f'' x'^2 + f' x'', signed zeros included
        f = single._stack(x[0], depth)
        for k in range(depth, 0, -1):
            f[k] *= bell[k][k]
            for j in range(k - 1, 0, -1):
                f[k] += np.multiply(f[j], bell[k][j], out=term)
        return f

    if curve.is_two_branch:
        y = np.where(_branch_mask(exc, flat), rows(curve.outgoing), rows(curve.returning))
    else:
        y = rows(curve)
    shape = (depth + 1,) + t.shape
    return x.reshape(shape), y.reshape(shape)


def chain_ordinate(curve: ConstitutiveCurve, exc: Excitation, t, depth: int):
    """Exact depth-k ordinate d^k/dt^k f(x(t)) at time t.

    Raises CapabilityError when k exceeds MAX_DERIVATIVE_ORDER (_checked_depth).
    On a two-branch curve the outgoing branch covers the first half-period
    and the returning branch the second, matching the direction the drive
    actually sweeps.  Raises DomainError for a time that is not finite.
    """
    depth = _checked_depth(depth)
    out = _jet(curve, exc, _finite_times(t), depth)[1][depth]
    return float(out) if np.ndim(t) == 0 else out


def jet_signals(curve: ConstitutiveCurve, exc: Excitation, t: np.ndarray,
                depth: np.ndarray) -> np.ndarray:
    """Per element e, the ordinate d^depth[e]/dt f(x(t)) at t[e], off one jet to the deepest."""
    y = _jet(curve, exc, t, int(np.maximum.reduce(depth, initial=0)))[1]
    return y[depth, np.arange(depth.size)]


# ----------------------------------------------------------------------
# locus construction
# ----------------------------------------------------------------------

def _checked_depth(depth) -> int:
    """depth as an int; DomainError below zero, CapabilityError above MAX_DERIVATIVE_ORDER."""
    depth = int(depth)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if depth > MAX_DERIVATIVE_ORDER:
        raise CapabilityError(f"depth {depth} exceeds MAX_DERIVATIVE_ORDER "
                              f"{MAX_DERIVATIVE_ORDER}, the deepest chain the package builds")
    return depth


def _grid_jet(curve: ConstitutiveCurve, exc: Excitation, t: np.ndarray, top: int, depths):
    """The rows (x^d, y^d) of the jet to depth top on grid t, for each d in depths.

    Raises DomainError when t spans another period than the drive's, and
    NumericalError where one of those rows passes float range.
    """
    if not abs(t[-1] - exc.period) <= 4.0 * np.finfo(float).eps * exc.period:
        raise DomainError(f"the grid spans period {float(t[-1])!r}, "
                          f"the drive's period is {exc.period!r}")
    # the drive levels are finite, but the Bell rows grow like (A w)^k; the jet
    # is built with overflow warnings off, so such a row shows here alone
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _jet(curve, exc, t, top)
    for d in depths:
        if not np.isfinite(y[d]).all():
            raise NumericalError(f"depth {d} ordinate is beyond float range: "
                                 f"amplitude {exc.amplitude!r}, omega {exc.omega!r}")
    return [(x[d], y[d]) for d in depths]


def analytic_locus(
    curve: ConstitutiveCurve,
    exc: Excitation,
    depth: int,
    sample_grid: SampleGrid | None = None,
) -> ParametricLocus:
    """Depth-k locus of the curve under the drive, from the closed-form chain rule.

    The locus's jet is (curve, exc), which gives its coordinates at depth k
    and its rates at depth k + 1.  A grid must span the drive's period
    (_grid_jet).
    """
    depth = _checked_depth(depth)
    t = (sample_grid if sample_grid is not None else grid(exc)).t_values
    [(u, w)] = _grid_jet(curve, exc, t, depth, [depth])
    if depth:  # copies, so that the locus does not keep the jet's shallower rows alive
        u, w = u.copy(), w.copy()
    return ParametricLocus._view(t, u, w, depth, (curve, exc))


def analytic_chain(
    curve: ConstitutiveCurve, exc: Excitation, depth: int, sample_grid: SampleGrid
) -> tuple[ParametricLocus, ...]:
    """The loci of depths 0..k, off one grid jet to depth k.

    Each locus equals analytic_locus's for its depth, bit for bit, and
    each past the first holds the rates (du/dt, dw/dt) of the one before.
    """
    depth = _checked_depth(depth)
    t = sample_grid.t_values
    rows = _grid_jet(curve, exc, t, depth, range(depth + 1))
    return tuple(ParametricLocus._view(t, *rows[d], d, (curve, exc)) for d in range(depth + 1))


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

# Rows are dumped this many at a time, so that only one block's dump is
# held at once.
_CSV_BLOCK = 4096


def columns_to_csv(header: str, lead, *columns) -> Iterator[bytes]:
    """The CSV file as a one-shot iterator of byte blocks: the header line,
    then one block per 4096 rows.

    Each row is the lead value, then the columns' values, each float as
    repr writes it (_rows), so it round-trips exactly.  The blocks are
    ASCII but for the header, which is UTF-8; b"".join(blocks) is the file.
    A block's rows are formatted when the iterator reaches it, so the
    columns must not change before it is exhausted.  Raises DomainError,
    at the call, for a column that is not one-dimensional, columns of
    unequal length, or a header whose field count is not the column count.
    """
    table = [_csv_column(lead), *(_csv_column(col) for col in columns)]
    fields = header.count(",") + 1
    if len(table) != fields:
        raise DomainError(f"header has {fields} fields for {len(table)} columns")
    for col in table[1:]:
        if len(col) != len(table[0]):
            raise DomainError(f"columns of unequal length: {len(table[0])} and {len(col)}")
    blocks = (_rows(np.column_stack([col[start:start + _CSV_BLOCK] for col in table]))
              for start in range(0, len(table[0]), _CSV_BLOCK))
    return itertools.chain([header.encode() + b"\n"], blocks)


def _rows(block: np.ndarray) -> bytes:
    """CSV rows of a nonempty two-dimensional float array, each float as repr writes it.

    One orjson dump of the raveled rows gives the values between commas;
    every row's last comma and the closing bracket become newlines.
    orjson writes the shortest round-trip digits, as repr does, and in the
    same notation for zeros and 1e-4 <= |x| < 1e16; it writes the other
    values as 0.00001, 1e16 or null, so those take repr itself.
    orjson is imported here, so that importing the package does not load it.
    """
    import orjson

    flat = block.ravel()
    raw = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY))
    buf = np.frombuffer(raw, dtype=np.uint8)
    seps = np.flatnonzero(buf == 44)  # ","
    buf[seps[block.shape[1] - 1::block.shape[1]]] = 10  # "\n"
    buf[-1] = 10  # "]"
    mag = np.abs(flat)
    odd = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (flat != 0.0))
    return _splice(raw, seps, odd, [repr(x).encode() for x in flat[odd].tolist()])


def _splice(dump, seps: np.ndarray, odd: np.ndarray, texts: list[bytes]) -> bytes:
    """The bytes of a dump after its opening "[", with value odd[j] replaced by texts[j].

    seps holds the positions of the separators between values.  Value i
    runs from just after separator i - 1 (the "[" for i = 0) up to
    separator i, or up to the dump's last byte for the last value.
    """
    view = memoryview(dump)
    if not len(odd):
        return view[1:].tobytes()
    bounds = np.concatenate([[0], seps, [len(view) - 1]])
    parts, prev = [], 1
    for text, lo, hi in zip(texts, (bounds[odd] + 1).tolist(), bounds[odd + 1].tolist()):
        parts += [view[prev:lo], text]
        prev = hi
    parts.append(view[prev:])
    return b"".join(parts)


def _csv_column(col) -> np.ndarray:
    arr = np.asarray(col, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"a CSV column must be one-dimensional, got shape {arr.shape}")
    return arr


def locus_to_csv(locus: ParametricLocus) -> Iterator[bytes]:
    """The CSV file of the locus as columns_to_csv's byte blocks, with header
    t,u,w; full float precision, round-trip exact."""
    return columns_to_csv("t,u,w", locus.t_values, locus.u_values, locus.w_values)
