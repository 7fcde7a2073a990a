"""Raised-cosine drive signal and its exact derivative stack.

The default drive is x(t) = 1 - cos(t) for t >= 0 and 0 before that: it
starts from rest at the origin, sweeps the abscissa over [0, 2A], and
returns.  Derivatives of any order stay closed form because the stack
cycles through sin, cos, -sin, -cos.  The levels of a Taylor jet are
written into one block (_levels), row by row, with the same float
operations in the same order as one multiple of cos or sin per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

__all__ = ["Excitation", "SampleGrid", "excite", "grid", "DEFAULT_GRID_N"]

DEFAULT_GRID_N = 4096
_MIN_GRID_N = 64


@dataclass(frozen=True)
class Excitation:
    """Raised-cosine drive x(t) = offset - amplitude * cos(omega * t).

    The default offset equals the amplitude, which pins x(0) = 0 and
    keeps the sweep inside [0, 2 * amplitude].
    """

    amplitude: float = 1.0
    omega: float = 1.0
    offset: float | None = None

    def __post_init__(self) -> None:
        if not (self.amplitude > 0.0):
            raise DomainError("amplitude must be positive")
        if not (self.omega > 0.0):
            raise DomainError("omega must be positive")
        if self.offset is None:
            object.__setattr__(self, "offset", float(self.amplitude))
        if not np.all(np.isfinite((self.amplitude, self.omega, self.offset))):
            raise DomainError("amplitude, omega and offset must be finite")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def sweep_range(self) -> tuple[float, float]:
        return (self.offset - self.amplitude, self.offset + self.amplitude)


def _levels(exc: Excitation, ta: np.ndarray, top: int) -> np.ndarray:
    """Drive levels 0..top at times ta, one block of shape (top + 1,) + ta.shape.

    Row i is excite(exc, ta, i).  cos and sin of the phase are computed
    once, into rows 0 and 1; level i > 0 is the signed multiple +-A w^i of
    one of them, walking the stack sin, cos, -sin, -cos, and the rows are
    written deepest first, so that rows 1 and 0 turn from sin and cos into
    their levels last.  Rows are zeroed where ta < 0 only.  Raises
    NumericalError when A w^i is beyond float range.
    """
    scales = []
    for i in range(1, top + 1):
        try:
            scale = exc.amplitude * exc.omega ** i
        except OverflowError:
            scale = np.inf
        if scale == np.inf:
            raise NumericalError(f"drive level {i} is beyond float range: "
                                 f"amplitude {exc.amplitude!r}, omega {exc.omega!r}")
        scales.append(-scale if i % 4 in (0, 3) else scale)
    flat = ta.reshape(-1)
    out = np.empty((top + 1, flat.size))
    c = out[0]
    if top:
        s = np.multiply(exc.omega, flat, out=out[1])
        np.cos(s, out=c)
        np.sin(s, out=s)
        for i in range(top, 0, -1):
            np.multiply(scales[i - 1], s if i % 2 else c, out=out[i])
    else:
        np.cos(exc.omega * flat, out=c)
    np.subtract(exc.offset, np.multiply(exc.amplitude, c, out=c), out=c)
    if np.fmin.reduce(flat, initial=0.0) < 0.0:
        out[:, flat < 0.0] = 0.0
    return out.reshape((top + 1,) + ta.shape)


def _finite_times(t) -> np.ndarray:
    """t as a float array, else DomainError naming its first time that is not finite."""
    ta = np.asarray(t, dtype=float)
    finite = np.isfinite(ta)
    if not finite.all():
        raise DomainError(f"times must be finite, got {float(ta[~finite].flat[0])!r}")
    return ta


def excite(exc: Excitation, t, level: int = 0):
    """Level-th time derivative of the drive at time t (0 for t < 0).

    level = 0 is the drive itself; positive levels walk the derivative
    stack sin, cos, -sin, -cos exactly, with amplitude * omega**level
    scaling.  Scalar in, scalar out; array in, array out.  Raises
    DomainError for a time that is not finite.
    """
    level = int(level)
    if level < 0:
        raise DomainError("derivative level must be non-negative")
    out = _levels(exc, _finite_times(t), level)[level]
    return float(out) if np.ndim(t) == 0 else out


def _check_grid(t: np.ndarray, error: type[Exception]) -> None:
    """Raise error naming the first sample of t off the grid i*T/n, T = t[-1], if any is.

    On it: t[0] == 0, 0 < T < inf and |t_i/T - i/n| <= 4 eps, which holds linspace's
    rounding (1 eps) at any n and period and puts each mirror sample at its pair time.
    """
    n = len(t) - 1
    first = 0 if t[0] != 0.0 else n if not 0.0 < t[-1] < np.inf else None
    if first is None:
        bound = 4.0 * np.finfo(float).eps
        with np.errstate(over="ignore"):
            dev = t / t[-1]
        ramp = np.arange(n + 1.0)  # i/n in place: each large temporary costs its page faults
        ramp /= n
        dev -= ramp
        if not max(dev.max(), -dev.min()) <= bound:  # a NaN sample fails
            first = int(np.argmax(~(np.abs(dev) <= bound)))
    if first is not None:
        raise error(f"times must be finite and increase uniformly from 0: "
                    f"t[{first}] = {float(t[first])!r} is off the grid i*T/n, T = t[-1]")


@dataclass(frozen=True)
class SampleGrid:
    """Closed time grid i*T/n, i = 0..n, over one drive period T, else ConfigError (_check_grid).

    Both endpoints are included so that loci close up exactly.
    """

    t_values: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.t_values, dtype=float)  # a copy
        if t.ndim != 1 or len(t) <= _MIN_GRID_N:
            raise ConfigError(f"t_values must be one-dimensional, with at least "
                              f"{_MIN_GRID_N} intervals, got shape {t.shape}")
        _check_grid(t, ConfigError)
        t.flags.writeable = False
        object.__setattr__(self, "t_values", t)

    @property
    def count(self) -> int:
        return len(self.t_values) - 1

    @property
    def spacing(self) -> float:
        return float(self.t_values[1])

    def __len__(self) -> int:
        return len(self.t_values)


def grid(exc: Excitation, n: int = DEFAULT_GRID_N) -> SampleGrid:
    """Uniform grid of n intervals spanning one period of the drive; ConfigError for an
    n below the minimum or too large for numpy to allocate."""
    n = int(n)
    if n < _MIN_GRID_N:
        raise ConfigError(f"grid needs at least {_MIN_GRID_N} intervals, got {n}")
    try:
        t = np.linspace(0.0, exc.period, n + 1)
    except (MemoryError, ValueError) as err:  # ValueError: beyond numpy's size limit
        raise ConfigError(f"grid of {n} intervals is too large to allocate: {err}") from None
    # checked all the same: subnormal steps leave the grid (omega = 1e305, n = 2**20)
    return SampleGrid(t_values=t)
