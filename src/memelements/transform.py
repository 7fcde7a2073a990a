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

Every coordinate is read off one Taylor jet of the curve and drive at the
times asked for: the drive levels x, x', ... from one cos and one sin,
the curve derivatives after one range check, and the Bell rows built
once.  An analytic locus names its (curve, drive) pair as its jet, and
its hooks are views of that pair at depths k and k + 1, so both always
read the same jet.  chain_ordinate, the locus hooks and the chain-wide
root refinement in loci all evaluate through it.  The depth a chain may
reach is the curve's max_derivative_order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .constitutive import OUTGOING, RETURNING, ConstitutiveCurve
from .errors import CapabilityError, DomainError, NumericalError
from .excitation import Excitation, SampleGrid, _levels, grid

__all__ = [
    "ParametricLocus",
    "chain_ordinate",
    "analytic_locus",
    "numeric_transform",
    "periodic_derivative",
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
    transform the locus is.  The hooks value_fn and derivative_fn read
    exact coordinates and exact coordinate rates off that pair's Taylor
    jet at arbitrary times; analyses use them to refine roots far below
    the grid resolution.  Finite-difference loci carry no jet and are
    analysed at grid accuracy instead.
    """

    t_values: np.ndarray
    u_values: np.ndarray
    w_values: np.ndarray
    depth: int
    axis_labels: tuple[str, str]
    provenance: str = "analytic"
    jet: tuple[ConstitutiveCurve, Excitation] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.t_values, dtype=float)
        u = np.asarray(self.u_values, dtype=float)
        w = np.asarray(self.w_values, dtype=float)
        if not (t.ndim == u.ndim == w.ndim == 1 and len(t) == len(u) == len(w)):
            raise DomainError("t, u, w must be one-dimensional and equally long")
        if len(t) < 65:
            raise DomainError("locus needs at least 65 samples")
        if np.any(np.diff(t) <= 0):
            raise DomainError("t_values must strictly increase")
        if self.provenance not in ("analytic", "numeric"):
            raise DomainError(f"unknown provenance {self.provenance!r}")
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

    @property
    def value_fn(self) -> JetHook | None:
        """Exact (u, w) at arbitrary times; None without a jet."""
        return None if self.jet is None else JetHook(*self.jet, self.depth)

    @property
    def derivative_fn(self) -> JetHook | None:
        """Exact (du/dt, dw/dt) at arbitrary times; None without a jet or at the order cap."""
        if self.jet is None or self.depth >= self.jet[0].max_derivative_order:
            return None
        return JetHook(*self.jet, self.depth + 1)

    @property
    def period(self) -> float:
        return float(self.t_values[-1] - self.t_values[0])

    @property
    def spacing(self) -> float:
        return float(self.t_values[1] - self.t_values[0])

    def __len__(self) -> int:
        return len(self.t_values)


# ----------------------------------------------------------------------
# chain-rule ordinates
# ----------------------------------------------------------------------

def _branch_mask(exc: Excitation, t: np.ndarray) -> np.ndarray:
    """True where the drive is on its outgoing half-period."""
    tm = np.mod(t, exc.period)
    return tm <= 0.5 * exc.period * (1.0 + 1e-12)


def _bell(x, n: int) -> list:
    """Rows 0..n of the partial Bell polynomials in x[1], x[2], ...: rows[m][j] is B_{m,j}.

    B_{m,0} is 1 at m = 0 and zero otherwise; the zero is held as None so
    that no sum ever adds it.
    """
    x = list(x[: n + 1])
    # C(m - 1, i - 1) x^(i), with the exact products by 1 skipped
    scaled = {(m, i): x[i] if comb(m - 1, i - 1) == 1 else comb(m - 1, i - 1) * x[i]
              for m in range(2, n + 1) for i in range(1, m)}
    rows = [[1.0]]
    for m in range(1, n + 1):
        row = [None, x[m]]
        for j in range(2, m + 1):
            terms = [scaled[m, i] * rows[m - i][j - 1] for i in range(1, m - j + 2)]
            row.append(sum(terms[1:], terms[0]))
        rows.append(row)
    return rows


class _Jet:
    """Taylor jet of f(x(t)) for one curve and drive at times t.

    Holds the drive levels x, x', ..., x^(top), and, up to depth order,
    the curve derivatives at x (one range check per branch) and the
    partial Bell rows.  Every depth-k abscissa is a level and every depth-k
    ordinate a Faa di Bruno sum over them, so all depths share one jet.
    """

    def __init__(self, curve: ConstitutiveCurve, exc: Excitation, t, top: int,
                 order: int | None = None):
        self.curve, self.exc, self.order = curve, exc, order
        self.t = np.asarray(t, dtype=float)
        self.x = _levels(exc, self.t, top)
        if order is not None:
            self.bell = _bell(self.x, order)
            self.f = {}

    def ordinate(self, depth: int, branch: str | None = None) -> np.ndarray:
        """d^k/dt^k f(x(t)); a two-branch curve with branch None follows the sweep."""
        if self.curve.is_two_branch and branch is None:
            return np.where(_branch_mask(self.exc, self.t),
                            self.ordinate(depth, OUTGOING), self.ordinate(depth, RETURNING))
        if branch not in self.f:
            self.f[branch] = self.curve._stack(self.x[0], self.order, branch=branch)
        f, bell = self.f[branch], self.bell[depth]
        # summed from the j = k term down and never from zero, so depths 0-2
        # round exactly like f' x' and f'' x'^2 + f' x'', signed zeros included
        terms = [f[j] * bell[j] for j in range(depth, -1, -1) if bell[j] is not None]
        return sum(terms[1:], terms[0])


def chain_ordinate(curve: ConstitutiveCurve, exc: Excitation, t, depth: int,
                   branch: str | None = None):
    """Exact depth-k ordinate d^k/dt^k f(x(t)) at time t.

    Raises CapabilityError when k exceeds the curve's max_derivative_order.
    For two-branch curves with branch = None the outgoing branch covers
    the first half-period and the returning branch the second, matching
    the direction the drive actually sweeps.
    """
    depth = int(depth)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    out = _Jet(curve, exc, t, depth, depth).ordinate(depth, branch)
    return float(out) if np.ndim(t) == 0 else out


def jet_signals(curve: ConstitutiveCurve, exc: Excitation, t: np.ndarray,
                depth: np.ndarray, ordinate: np.ndarray) -> np.ndarray:
    """Per element e, x^(depth[e]) or, where ordinate[e], d^depth[e]/dt f(x(t)).

    One jet serves every element: the levels run to the deepest element and
    the curve derivatives and Bell rows to the deepest ordinate.
    """
    deep = depth[ordinate]
    jet = _Jet(curve, exc, t, int(depth.max()), int(deep.max()) if deep.size else None)
    out = jet.x[depth, np.arange(depth.size)]
    for k in sorted(set(deep.tolist())):
        pick = ordinate & (depth == k)
        out[pick] = jet.ordinate(k)[pick]
    return out


# ----------------------------------------------------------------------
# locus construction
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JetHook:
    """Exact depth-k coordinates (u, w) at arbitrary times, read off the jet."""

    curve: ConstitutiveCurve
    exc: Excitation
    depth: int

    def __call__(self, t):
        jet = _Jet(self.curve, self.exc, t, self.depth, self.depth)
        u, w = jet.x[self.depth], jet.ordinate(self.depth)
        if np.ndim(t) == 0:
            return float(u), float(w)
        return u, w


def analytic_locus(
    curve: ConstitutiveCurve,
    exc: Excitation,
    depth: int,
    sample_grid: SampleGrid | None = None,
    labels: tuple[str, str] | None = None,
) -> ParametricLocus:
    """Depth-k locus of the curve under the drive, from the closed-form chain rule.

    The locus's jet is (curve, exc): value_fn is the depth-k hook and
    derivative_fn the depth-(k+1) one, None when the curve has no
    derivative of order k+1.
    """
    depth = int(depth)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if depth > curve.max_derivative_order:
        raise CapabilityError(
            f"depth {depth} needs curve derivatives up to order {depth}; this "
            f"{curve.family} curve supports {curve.max_derivative_order}"
        )
    g = sample_grid if sample_grid is not None else grid(exc)
    u, w = JetHook(curve, exc, depth)(g.t_values)
    return ParametricLocus(
        t_values=g.t_values,
        u_values=u,
        w_values=w,
        depth=depth,
        axis_labels=labels or default_labels(depth),
        provenance="analytic",
        jet=(curve, exc),
    )


def periodic_derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """Central finite differences of a closed periodic sample array.

    The array covers one period inclusively (first and last samples are
    the same physical point); the stencil wraps across that seam.
    """
    vals = np.asarray(values, dtype=float)
    core = vals[:-1]
    d = (np.roll(core, -1) - np.roll(core, 1)) / (2.0 * spacing)
    return np.append(d, d[0])


def numeric_transform(
    locus: ParametricLocus, labels: tuple[str, str] | None = None
) -> ParametricLocus:
    """Finite-difference differential transform of a sampled locus."""
    t = locus.t_values
    steps = np.diff(t)
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise NumericalError("numeric transform requires a uniform time grid")
    du = periodic_derivative(locus.u_values, h)
    dw = periodic_derivative(locus.w_values, h)
    return ParametricLocus(
        t_values=t,
        u_values=du,
        w_values=dw,
        depth=locus.depth + 1,
        axis_labels=labels or default_labels(locus.depth + 1),
        provenance="numeric",
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def columns_to_csv(header: str, *columns) -> str:
    """CSV text: the header, then one row per sample; repr floats round-trip exactly."""
    text = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    return "\n".join([header, *map(",".join, zip(*text))]) + "\n"


def locus_to_csv(locus: ParametricLocus) -> str:
    """CSV text with header t,u,w; full float precision, round-trip exact."""
    return columns_to_csv("t,u,w", locus.t_values, locus.u_values, locus.w_values)
