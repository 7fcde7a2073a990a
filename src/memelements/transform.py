"""Differential transforms that project constitutive curves into deeper planes.

One transform maps a parametric curve (u(t), w(t)) to (du/dt, dw/dt).
Applied to a constitutive curve y = f(x) under a periodic drive x(t), the
chain of transformed loci walks the element across the periodic table of
circuit variables one differentiation at a time.  The conformal property
of the map, that the tangent direction at a source point equals the
origin-chord direction of its image, is what the downstream geometry
analyses rely on.

Ordinates are produced by the chain rule in closed form up to depth four:

    w1 = f' x'
    w2 = f'' x'^2 + f' x''
    w3 = f''' x'^3 + 3 f'' x' x'' + f' x'''
    w4 = f'''' x'^4 + 6 f''' x'^2 x'' + 3 f'' x''^2 + 4 f'' x' x''' + f' x''''

Deeper loci fall back to periodic finite differences with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constitutive import OUTGOING, RETURNING, ConstitutiveCurve
from .errors import CapabilityError, DomainError, NumericalError
from .excitation import Excitation, SampleGrid, excite, grid

__all__ = [
    "ANALYTIC_DEPTH_LIMIT",
    "ParametricLocus",
    "chain_ordinate",
    "analytic_locus",
    "numeric_transform",
    "periodic_derivative",
    "project_point",
    "columns_to_csv",
    "locus_to_csv",
    "write_locus_csv",
    "read_locus_csv",
]

# Depth of the closed-form chain-rule bank above.
ANALYTIC_DEPTH_LIMIT = 4


def default_labels(depth: int) -> tuple[str, str]:
    """Generic axis labels for a depth-k locus."""
    if depth == 0:
        return ("x", "y")
    suffix = "'" * depth if depth <= 3 else f"^({depth})"
    return (f"x{suffix}", f"y{suffix}")


@dataclass(frozen=True, eq=False)
class ParametricLocus:
    """One closed locus (u(t), w(t)) sampled over a drive period.

    value_fn and derivative_fn, when present, evaluate exact coordinates
    and exact coordinate rates at arbitrary times; analyses use them to
    refine roots far below the grid resolution.  Finite-difference loci
    carry no hooks and are analysed at grid accuracy instead.
    """

    t_values: np.ndarray
    u_values: np.ndarray
    w_values: np.ndarray
    depth: int
    axis_labels: tuple[str, str]
    provenance: str = "analytic"
    value_fn: Callable | None = field(default=None, repr=False)
    derivative_fn: Callable | None = field(default=None, repr=False)

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
        for name, arr in (("t_values", t), ("u_values", u), ("w_values", w)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "axis_labels", tuple(self.axis_labels))

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

def chain_ordinate(curve: ConstitutiveCurve, exc: Excitation, t, depth: int,
                   branch: str | None = None):
    """Exact depth-k ordinate d^k/dt^k f(x(t)) at time t.

    For two-branch curves with branch = None the outgoing branch covers
    the first half-period and the returning branch the second, matching
    the direction the drive actually sweeps.
    """
    depth = int(depth)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if depth > ANALYTIC_DEPTH_LIMIT:
        raise CapabilityError(
            f"closed-form chain rule stops at depth {ANALYTIC_DEPTH_LIMIT}, got {depth}"
        )
    ta = np.asarray(t, dtype=float)

    if curve.is_two_branch and branch is None:
        wo = chain_ordinate(curve, exc, ta, depth, OUTGOING)
        wr = chain_ordinate(curve, exc, ta, depth, RETURNING)
        out = np.where(_branch_mask(exc, ta), wo, wr)
        return float(out) if np.ndim(t) == 0 else out

    x = excite(exc, ta, 0)

    def f(k: int):
        return np.asarray(curve.derivative(x, k, branch=branch))

    def e(k: int):
        return np.asarray(excite(exc, ta, k))

    if depth == 0:
        out = f(0)
    elif depth == 1:
        out = f(1) * e(1)
    elif depth == 2:
        out = f(2) * e(1) ** 2 + f(1) * e(2)
    elif depth == 3:
        out = f(3) * e(1) ** 3 + 3.0 * f(2) * e(1) * e(2) + f(1) * e(3)
    else:
        out = (
            f(4) * e(1) ** 4
            + 6.0 * f(3) * e(1) ** 2 * e(2)
            + 3.0 * f(2) * e(2) ** 2
            + 4.0 * f(2) * e(1) * e(3)
            + f(1) * e(4)
        )
    return float(out) if np.ndim(t) == 0 else out


# ----------------------------------------------------------------------
# locus construction
# ----------------------------------------------------------------------

def analytic_locus(
    curve: ConstitutiveCurve,
    exc: Excitation,
    depth: int,
    sample_grid: SampleGrid | None = None,
    labels: tuple[str, str] | None = None,
) -> ParametricLocus:
    """Depth-k locus of the curve under the drive, exact where possible.

    Depths up to ANALYTIC_DEPTH_LIMIT come from the closed-form chain
    rule and carry evaluation hooks.  Deeper requests are completed with
    periodic finite differences and a warning, losing the hooks.
    """
    depth = int(depth)
    if depth < 0:
        raise DomainError("depth must be non-negative")
    # only the closed-form prefix consumes curve derivatives; the numeric
    # completion beyond the bank differentiates samples, not the curve
    if min(depth, ANALYTIC_DEPTH_LIMIT) > curve.max_derivative_order:
        raise CapabilityError(
            f"depth {depth} needs curve derivatives up to order "
            f"{min(depth, ANALYTIC_DEPTH_LIMIT)}; this {curve.family} curve "
            f"supports {curve.max_derivative_order}"
        )
    g = sample_grid if sample_grid is not None else grid(exc)
    t = g.t_values

    if depth > ANALYTIC_DEPTH_LIMIT:
        warnings.warn(
            f"depth {depth} exceeds the closed-form bank (limit "
            f"{ANALYTIC_DEPTH_LIMIT}); completing with finite differences",
            stacklevel=2,
        )
        locus = analytic_locus(curve, exc, ANALYTIC_DEPTH_LIMIT, g)
        for _ in range(depth - ANALYTIC_DEPTH_LIMIT):
            locus = numeric_transform(locus)
        return ParametricLocus(
            locus.t_values,
            locus.u_values,
            locus.w_values,
            depth,
            labels or default_labels(depth),
            provenance="numeric",
        )

    u = excite(exc, t, depth)
    w = chain_ordinate(curve, exc, t, depth)

    def value_fn(tt, _d=depth):
        return excite(exc, tt, _d), chain_ordinate(curve, exc, tt, _d)

    derivative_fn = None
    if depth + 1 <= min(ANALYTIC_DEPTH_LIMIT, curve.max_derivative_order):
        def derivative_fn(tt, _d=depth + 1):
            return excite(exc, tt, _d), chain_ordinate(curve, exc, tt, _d)

    return ParametricLocus(
        t_values=t,
        u_values=u,
        w_values=w,
        depth=depth,
        axis_labels=labels or default_labels(depth),
        provenance="analytic",
        value_fn=value_fn,
        derivative_fn=derivative_fn,
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


def project_point(
    curve: ConstitutiveCurve,
    exc: Excitation,
    t0: float,
    depth: int,
    pinch_tol: float = 1e-9,
):
    """Image of the time-t0 point in the depth-k plane, as a SpecialPoint.

    Points landing on the origin are tagged as pinch points and carry no
    chord angle.  Elsewhere the chord angle from the origin is recorded,
    and (for depth >= 1) the tangent direction of the source locus at the
    pre-image, which the conformal property makes equal to the chord.
    """
    from .loci import PointKind, SpecialPoint

    depth = int(depth)
    u = float(excite(exc, t0, depth))
    w = float(chain_ordinate(curve, exc, t0, depth))
    scale = max(1.0, exc.amplitude * exc.omega ** depth)
    if max(abs(u), abs(w)) <= pinch_tol * scale:
        return SpecialPoint(t=float(t0), u=u, w=w, kind=PointKind.PINCH)
    chord = float(np.arctan2(w, u))
    tangent = None
    if depth >= 1:
        # principal direction in (-pi/2, pi/2]; equals chord modulo pi
        tangent = chord
        if tangent <= -0.5 * np.pi:
            tangent += np.pi
        elif tangent > 0.5 * np.pi:
            tangent -= np.pi
    return SpecialPoint(
        t=float(t0), u=u, w=w, kind=PointKind.PROJECTED,
        chord_angle=chord, tangent_angle=tangent,
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


def write_locus_csv(locus: ParametricLocus, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(locus_to_csv(locus))


def read_locus_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a t,u,w CSV back into arrays (inverse of write_locus_csv)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3:
        raise NumericalError(f"expected 3 CSV columns, got {data.shape[1]}")
    return data[:, 0], data[:, 1], data[:, 2]
