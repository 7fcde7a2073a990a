"""Constitutive curves y = f(x) for memory circuit elements.

A constitutive curve ties two integrated circuit attributes together
(charge vs flux, or deeper time integrals of either).  Every family here
is closed form, so values and derivatives of every order are exact and
the differential locus chain stays free of sampling error.

All families enforce the origin-crossing requirement: whenever x = 0
lies inside the operating range, f(0) must vanish.  Curves that fail it
(the standard logistic on a range containing zero, for instance) must be
restricted to a range that excludes the origin.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import bisect

from .errors import CapabilityError, DomainError, NumericalError
from .tolerances import ToleranceSet

__all__ = [
    "ConstitutiveCurve",
    "PolynomialCurve",
    "TanhScaledCurve",
    "LogisticCurve",
    "PiecewiseLinearCurve",
    "TwoBranchCurve",
    "IdealityReport",
    "check_ideality",
    "mvt_point",
    "MAX_DERIVATIVE_ORDER",
]

# Fraction of the operating span tolerated outside the range (float fuzz).
_RANGE_EPS = 1e-12
# Absolute bound on |f(0)| when the origin lies in the operating range.
_ORIGIN_TOL = 1e-9
# Sample count of the grid the ideality checks run on.
IDEALITY_SAMPLES = 4097
# The deepest derivative, and so the deepest chain, the package computes.
# It bounds the work one request can cause (a chain's Bell rows grow as
# its depth squared), not what any curve supports: every family is closed
# form at every order.
MAX_DERIVATIVE_ORDER = 16


# ----------------------------------------------------------------------
# curve families
# ----------------------------------------------------------------------

class ConstitutiveCurve(abc.ABC):
    """Common behaviour shared by all curve families.

    Concrete families are frozen dataclasses carrying their parameters
    plus an ``operating_range``.
    """

    family: str = "abstract"
    operating_range: tuple[float, float]

    # -- validation helpers -------------------------------------------

    def _validate_common(self) -> None:
        lo, hi = self.operating_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise DomainError(f"operating range must satisfy lo < hi, got ({lo}, {hi})")
        for name, value in self._params().items():
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise DomainError(f"{self.family} {name} must be finite, got {value!r}")
        if lo <= 0.0 <= hi:
            y0 = float(self._derivatives(np.asarray(0.0), 0)[0])
            if abs(y0) > _ORIGIN_TOL:
                raise DomainError(
                    f"{self.family} curve must pass through the origin on a range "
                    f"containing x = 0 (got f(0) = {y0!r})"
                )

    def _check_range(self, x: np.ndarray) -> None:
        lo, hi = self.operating_range
        eps = _RANGE_EPS * (hi - lo)
        # min and max are NaN where x holds a NaN, which then fails the test too
        if not (np.minimum.reduce(x, axis=None, initial=np.inf) >= lo - eps
                and np.maximum.reduce(x, axis=None, initial=-np.inf) <= hi + eps):
            worst = float(x[~((x >= lo - eps) & (x <= hi + eps))].flat[0])
            raise DomainError(
                f"abscissa {worst!r} outside operating range [{lo}, {hi}]"
            )

    # -- family internals ---------------------------------------------

    @abc.abstractmethod
    def _derivatives(self, x: np.ndarray, order: int) -> np.ndarray:
        """Rows f, f', ..., f^(order) for in-range abscissae (single branch).

        The rows are one fresh block, which the Taylor jet in transform
        overwrites with its ordinates.
        """

    # -- public evaluation --------------------------------------------

    def eval(self, x):
        """Evaluate f(x).  Scalar in, scalar out; array in, array out."""
        out = self._stack(x, 0)[0]
        return float(out) if np.ndim(x) == 0 else out

    def derivative(self, x, k: int):
        """Evaluate the k-th derivative of f at x (k = 0 means f itself)."""
        out = self._stack(x, k)[int(k)]
        return float(out) if np.ndim(x) == 0 else out

    def _stack(self, x, order: int) -> np.ndarray:
        """Derivatives 0..order of f at x, stacked: row k is derivative(x, k).

        One range check covers every row; the Taylor jet in transform
        reads all orders it needs from one call.  Raises CapabilityError
        above MAX_DERIVATIVE_ORDER.
        """
        order = int(order)
        if order < 0:
            raise DomainError("derivative order must be non-negative")
        if order > MAX_DERIVATIVE_ORDER:
            raise CapabilityError(f"derivative order {order} exceeds "
                                  f"MAX_DERIVATIVE_ORDER {MAX_DERIVATIVE_ORDER}")
        xa = np.asarray(x, dtype=float)
        self._check_range(xa)
        return self._derivatives(xa, order)

    # -- metadata -------------------------------------------------------

    @property
    def is_two_branch(self) -> bool:
        return False

    @property
    def smooth(self) -> bool:
        """True when the family is infinitely differentiable on its range."""
        return True

    def kink_points(self, slope_tol: float = 1e-9) -> tuple[float, ...]:
        """Interior abscissae where the one-sided slopes disagree."""
        return ()

    def spec(self) -> dict:
        """JSON-ready description of this curve (round-trips via the CLI)."""
        return {
            "family": self.family,
            "params": self._params(),
            "range": list(self.operating_range),
        }

    def _params(self) -> dict:
        """The family's own fields, JSON-ready: tuples as lists, branches as their specs."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)
                if f.name != "operating_range"}


def _plain(value):
    if isinstance(value, ConstitutiveCurve):
        return value.spec()
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class PolynomialCurve(ConstitutiveCurve):
    """f(x) = sum_k coefficients[k] * x**k (ascending order)."""

    coefficients: tuple[float, ...]
    operating_range: tuple[float, float] = (0.0, 2.0)

    family = "polynomial"

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise DomainError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "operating_range", _as_range(self.operating_range))
        # column k holds the coefficients of f^(k), zero-padded at the top,
        # for every order that is not identically zero; built once and not a
        # field, so equality, repr and spec() see only parameters
        n = len(coeffs)
        stack = np.zeros((n, n))
        column = np.array(coeffs)
        for k in range(stack.shape[1]):
            stack[: column.size, k] = column
            column = np.arange(1, column.size) * column[1:]  # npoly.polyder's step
        stack.flags.writeable = False
        object.__setattr__(self, "_derivative_stack", stack)
        self._validate_common()

    def _derivatives(self, x: np.ndarray, order: int) -> np.ndarray:
        # one Horner pass over every column; the zero padding only prefixes
        # +0.0, so each row equals npoly.polyval of its own coefficients
        stack = self._derivative_stack
        out = np.empty((order + 1,) + x.shape)
        _horner(x, stack[:, : order + 1], out[: stack.shape[1]])
        out[stack.shape[1]:] = 0.0
        return out


def _horner(x: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[k] = npoly.polyval(x, c[:, k]) for each column k of c, computed in out.

    polyval's float operations in polyval's order, c[-1] + x*0 and then
    c[-i] + c0*x, so every value equals polyval's bit for bit.
    """
    col = (slice(None),) + (None,) * x.ndim
    np.multiply(x, 0, out=out)
    out += c[-1][col]
    for coeffs in c[-2::-1]:
        out *= x
        out += coeffs[col]
    return out


@lru_cache(maxsize=None)
def _tanh_poly(k: int) -> tuple[float, ...]:
    """Coefficients (ascending) of P_k with tanh^(k)(x) = P_k(tanh x).

    The recursion follows from d(tanh)/dx = 1 - tanh^2:
    P_0(T) = T and P_{k+1}(T) = P_k'(T) * (1 - T^2).
    """
    if k == 0:
        return (0.0, 1.0)
    prev = np.asarray(_tanh_poly(k - 1))
    step = npoly.polymul(npoly.polyder(prev), (1.0, 0.0, -1.0))
    return tuple(float(c) for c in step)


@lru_cache(maxsize=None)
def _tanh_stack(order: int) -> np.ndarray:
    """Coefficients of P_1..P_order as columns, zero-padded at the top."""
    width = len(_tanh_poly(order))
    stack = np.column_stack(
        [np.pad(_tanh_poly(k), (0, width - len(_tanh_poly(k)))) for k in range(1, order + 1)])
    stack.flags.writeable = False  # shared by every caller through the cache
    return stack


def _tanh_derivatives(value, t, scales: list[float]) -> np.ndarray:
    """Rows value, scales[k - 1] * P_k(t) for k = 1..len(scales) in one block, P_k by _horner."""
    out = np.empty((len(scales) + 1,) + np.shape(t))
    out[0] = value
    if scales:
        _horner(t, _tanh_stack(len(scales)), out[1:])
        out[1:] *= np.reshape(scales, (-1,) + (1,) * np.ndim(t))
    return out


@dataclass(frozen=True)
class TanhScaledCurve(ConstitutiveCurve):
    """f(x) = a * tanh(b * x)."""

    a: float = 1.0
    b: float = 1.0
    operating_range: tuple[float, float] = (0.0, 2.0)

    family = "tanh_scaled"

    def __post_init__(self) -> None:
        if self.a == 0.0 or self.b == 0.0:
            raise DomainError("tanh_scaled needs non-zero a and b")
        object.__setattr__(self, "operating_range", _as_range(self.operating_range))
        self._validate_common()

    def _derivatives(self, x: np.ndarray, order: int) -> np.ndarray:
        t = np.tanh(self.b * x)
        return _tanh_derivatives(self.a * t, t,
                                 [self.a * self.b ** k for k in range(1, order + 1)])


@dataclass(frozen=True)
class LogisticCurve(ConstitutiveCurve):
    """f(x) = 1 / (1 + exp(-x)).

    f(0) = 1/2, so the operating range must exclude the origin.
    """

    operating_range: tuple[float, float] = (0.5, 2.0)

    family = "logistic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "operating_range", _as_range(self.operating_range))
        self._validate_common()

    def _derivatives(self, x: np.ndarray, order: int) -> np.ndarray:
        # 1/(1+e^-x) = 1/2 + 1/2 tanh(x/2), which shares the tanh machinery
        t = np.tanh(0.5 * x)
        return _tanh_derivatives(0.5 + 0.5 * t, t,
                                 [0.5 ** (k + 1) for k in range(1, order + 1)])


@dataclass(frozen=True)
class PiecewiseLinearCurve(ConstitutiveCurve):
    """Linear interpolation through (x_k, y_k) knots.

    The derivative at an interior knot uses the right-hand segment (the
    left-hand one at the last knot); knots where the two slopes disagree
    are flagged by kink_points and break continuous differentiability.
    """

    knots: tuple[tuple[float, float], ...]
    operating_range: tuple[float, float] | None = None

    family = "piecewise_linear"

    def __post_init__(self) -> None:
        knots = tuple((float(x), float(y)) for x, y in self.knots)
        if len(knots) < 2:
            raise DomainError("piecewise_linear needs at least two knots")
        xs = np.array([p[0] for p in knots])
        if np.any(np.diff(xs) <= 0):
            raise DomainError("piecewise_linear knot abscissae must strictly increase")
        object.__setattr__(self, "knots", knots)
        rng = self.operating_range
        if rng is None:
            rng = (knots[0][0], knots[-1][0])
        rng = _as_range(rng)
        if rng[0] < knots[0][0] - _RANGE_EPS or rng[1] > knots[-1][0] + _RANGE_EPS:
            raise DomainError("operating range must lie within the knot span")
        object.__setattr__(self, "operating_range", rng)
        self._validate_common()

    def _xy(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.array([p[0] for p in self.knots])
        ys = np.array([p[1] for p in self.knots])
        return xs, ys

    def _derivatives(self, x: np.ndarray, order: int) -> np.ndarray:
        xs, ys = self._xy()
        slopes = np.diff(ys) / np.diff(xs)
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(slopes) - 1)
        rows = [np.interp(x, xs, ys), slopes[idx]] + [np.zeros_like(x)] * (order - 1)
        return np.array(rows[: order + 1])

    @property
    def smooth(self) -> bool:
        return False

    def _slope_jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Interior knot abscissae and the size of the slope jump at each."""
        xs, ys = self._xy()
        slopes = np.diff(ys) / np.diff(xs)
        return xs[1:-1], np.abs(np.diff(slopes))

    def kink_points(self, slope_tol: float = 1e-9) -> tuple[float, ...]:
        lo, hi = self.operating_range
        return tuple(float(x) for x, j in zip(*self._slope_jumps())
                     if j > slope_tol and lo < x < hi)


@dataclass(frozen=True)
class TwoBranchCurve(ConstitutiveCurve):
    """Double-valued curve made of an outgoing and a returning branch.

    Both branches share one operating range and must meet at its two
    endpoints, so that a periodic sweep traces a closed loop.  The loop has
    no single value, so eval and derivative raise ValueError after their
    range and order checks; evaluate loop.outgoing or loop.returning.
    """

    outgoing: ConstitutiveCurve
    returning: ConstitutiveCurve

    family = "two_branch"

    def __post_init__(self) -> None:
        for name, sub in (("outgoing", self.outgoing), ("returning", self.returning)):
            if sub.is_two_branch:
                raise DomainError(f"{name} branch must be single-valued")
        if self.outgoing.operating_range != self.returning.operating_range:
            raise DomainError("branches must share one operating range")
        lo, hi = self.operating_range
        scale = max(1.0, abs(self.outgoing.eval(lo)), abs(self.outgoing.eval(hi)))
        for x in (lo, hi):
            gap = abs(self.outgoing.eval(x) - self.returning.eval(x))
            if gap > _ORIGIN_TOL * scale:
                raise DomainError(
                    f"branches must meet at range endpoint x = {x} (gap {gap!r})"
                )

    # the range comes from the branches
    @property
    def operating_range(self) -> tuple[float, float]:  # type: ignore[override]
        return self.outgoing.operating_range

    @property
    def is_two_branch(self) -> bool:
        return True

    @property
    def smooth(self) -> bool:
        return self.outgoing.smooth and self.returning.smooth

    def kink_points(self, slope_tol: float = 1e-9) -> tuple[float, ...]:
        pts = set(self.outgoing.kink_points(slope_tol))
        pts.update(self.returning.kink_points(slope_tol))
        return tuple(sorted(pts))

    def _derivatives(self, x: np.ndarray, order: int) -> np.ndarray:
        raise ValueError("a two-branch curve has no single value; "
                         "evaluate its outgoing or returning branch")


def _as_range(rng) -> tuple[float, float]:
    lo, hi = rng
    return (float(lo), float(hi))


# ----------------------------------------------------------------------
# ideality
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IdealityReport:
    """Outcome of the four ideality criteria, with witnesses.

    A curve is ideal when it is single-valued, nonlinear, continuously
    differentiable, and strictly monotone increasing over its range.
    Isolated zero-slope abscissae do not break monotonicity; a flat run
    covering more than 1% of the sample grid does.
    """

    single_valued: bool
    single_valued_violation_at: float | None
    nonlinear: bool
    max_secant_deviation: float
    continuously_differentiable: bool
    worst_slope_jump: float
    worst_slope_jump_at: float | None
    strictly_monotone: bool
    violating_interval: tuple[float, float] | None
    zero_derivative_abscissae: tuple[float, ...]

    @property
    def ideal(self) -> bool:
        return (
            self.single_valued
            and self.nonlinear
            and self.continuously_differentiable
            and self.strictly_monotone
        )

    def failed_criteria(self) -> tuple[str, ...]:
        out = []
        if not self.single_valued:
            out.append("single_valued")
        if not self.nonlinear:
            out.append("nonlinear")
        if not self.continuously_differentiable:
            out.append("continuously_differentiable")
        if not self.strictly_monotone:
            out.append("strictly_monotone")
        return tuple(out)


def _branches(curve: ConstitutiveCurve) -> tuple[ConstitutiveCurve, ...]:
    if curve.is_two_branch:
        return (curve.outgoing, curve.returning)  # type: ignore[attr-defined]
    return (curve,)


def _first_run(xs: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """First and last abscissa of the first run of True samples in mask."""
    start = end = int(np.argmax(mask))
    while end + 1 < len(xs) and mask[end + 1]:
        end += 1
    return float(xs[start]), float(xs[end])


def check_ideality(
    curve: ConstitutiveCurve,
    tolerances: ToleranceSet | None = None,
) -> IdealityReport:
    """Grid-based evaluation of the four ideality criteria, on IDEALITY_SAMPLES points."""
    tol = tolerances or ToleranceSet()
    lo, hi = curve.operating_range
    xs = np.linspace(lo, hi, IDEALITY_SAMPLES)
    # f and f' of each branch, from one evaluation pass per branch
    branches = [(sub, *sub._stack(xs, 1)) for sub in _branches(curve)]

    # single-valuedness: only a two-branch curve can fail it
    single = True
    violation_at: float | None = None
    if curve.is_two_branch:
        (_, yo, _), (_, yr, _) = branches
        gap = np.abs(yo - yr)
        span = max(float(yo.max() - yo.min()), 1.0)
        j = int(np.argmax(gap))
        if gap[j] > tol.valuedness_tol * span:
            single = False
            violation_at = float(xs[j])

    # nonlinearity: deviation of f from its own end-to-end secant
    nonlinear = True
    binding_dev = np.inf
    for _, ys, _ in branches:
        span = max(float(ys.max() - ys.min()), 1e-30)
        secant = ys[0] + (ys[-1] - ys[0]) * (xs - lo) / (hi - lo)
        dev = float(np.max(np.abs(ys - secant)))
        binding_dev = min(binding_dev, dev)
        if dev <= tol.nonlin_tol * span:
            nonlinear = False

    # continuous differentiability: structural for closed forms, knot
    # inspection for piecewise-linear; the grid only locates the worst jump
    c1 = curve.smooth or not curve.kink_points(tol.slope_tol)
    worst_jump = 0.0
    worst_jump_at: float | None = None
    for sub, _, d1 in branches:
        if sub.smooth:
            jumps = np.abs(np.diff(d1))
            if jumps.size:
                j = int(np.argmax(jumps))
                if jumps[j] >= worst_jump:
                    worst_jump = float(jumps[j])
                    worst_jump_at = float(0.5 * (xs[j] + xs[j + 1]))
        else:
            for x, jump in zip(*sub._slope_jumps()):  # type: ignore[attr-defined]
                if lo < x < hi and jump >= worst_jump:
                    worst_jump = float(jump)
                    worst_jump_at = float(x)

    # strict monotonicity with isolated flat points allowed
    monotone = True
    violating: tuple[float, float] | None = None
    flats: list[float] = []
    for _, _, d1 in branches:
        if np.any(d1 < -tol.slope_tol):
            monotone = False
            if violating is None:
                violating = _first_run(xs, d1 < -tol.slope_tol)
            continue
        flat = d1 <= tol.slope_tol
        n_flat = int(np.count_nonzero(flat))
        if n_flat > max(1, 0.01 * IDEALITY_SAMPLES):
            monotone = False
            if violating is None:
                violating = _first_run(xs, flat)
        else:
            flats.extend(float(x) for x in xs[flat])

    return IdealityReport(
        single_valued=single,
        single_valued_violation_at=violation_at,
        nonlinear=nonlinear,
        max_secant_deviation=float(binding_dev),
        continuously_differentiable=c1,
        worst_slope_jump=worst_jump,
        worst_slope_jump_at=worst_jump_at,
        strictly_monotone=monotone,
        violating_interval=violating,
        zero_derivative_abscissae=tuple(sorted(set(flats))),
    )


# ----------------------------------------------------------------------
# mean-value tangency
# ----------------------------------------------------------------------

def mvt_point(
    curve: ConstitutiveCurve,
    a: float,
    b: float,
    root_tol: float = 1e-10,
) -> float:
    """Abscissa c in (a, b) where f'(c) matches the secant slope over [a, b].

    For an affine stretch every interior point qualifies and the midpoint
    is returned.  Raises NumericalError when no residual sign change can
    be bracketed and the residual never falls below root_tol.
    """
    a, b = float(a), float(b)
    lo, hi = curve.operating_range
    if not (lo - _RANGE_EPS <= a < b <= hi + _RANGE_EPS):
        raise DomainError(f"need lo <= a < b <= hi, got a={a}, b={b} on [{lo}, {hi}]")

    fa = curve.eval(a)
    fb = curve.eval(b)
    secant = (fb - fa) / (b - a)

    def residual(x):
        return curve.derivative(x, 1) - secant

    xs = np.linspace(a, b, 2049)
    res = np.asarray(residual(xs))
    scale = max(1.0, float(np.max(np.abs(res))))

    if np.max(np.abs(res)) <= 1e-12 * max(1.0, abs(secant)):
        return 0.5 * (a + b)  # affine stretch, every point qualifies

    sign = np.sign(res)
    for i in range(len(xs) - 1):
        if res[i] == 0.0 and i > 0:  # an exact zero at a = xs[0] is not interior
            return float(xs[i])
        if sign[i] * sign[i + 1] < 0:
            c = bisect(residual, float(xs[i]), float(xs[i + 1]), xtol=1e-12)
            return float(c)

    # tangential solution: chase the minimum of |residual| and verify it
    j = int(np.argmin(np.abs(res)))
    lo_j = xs[max(j - 1, 0)]
    hi_j = xs[min(j + 1, len(xs) - 1)]
    fine = np.linspace(lo_j, hi_j, 4097)
    fres = np.abs(np.asarray(residual(fine)))
    k = int(np.argmin(fres))
    if fres[k] <= root_tol * scale:
        return float(fine[k])
    raise NumericalError(
        "no mean-value tangency bracketed in "
        f"({a}, {b}): min |f' - secant| = {float(fres[k])!r} at x = {float(fine[k])!r}"
    )
