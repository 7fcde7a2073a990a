"""Raised-cosine drive signal and its exact derivative stack.

The default drive is x(t) = 1 - cos(t) for t >= 0 and 0 before that: it
starts from rest at the origin, sweeps the abscissa over [0, 2A], and
returns.  Derivatives of any order stay closed form because the stack
cycles through sin, cos, -sin, -cos.
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
    """Drive levels 0..top at times ta, stacked: row i is excite(exc, ta, i).

    cos and sin of the phase are computed once; level i > 0 is the signed
    multiple +-A w^i of one of them, walking the stack sin, cos, -sin, -cos.
    Raises NumericalError when A w^i is beyond float range.
    """
    theta = exc.omega * ta
    c = np.cos(theta)
    rows = [exc.offset - exc.amplitude * c]
    if top:
        s = np.sin(theta)
        for i in range(1, top + 1):
            try:
                scale = exc.amplitude * exc.omega ** i
            except OverflowError:
                scale = np.inf
            if scale == np.inf:
                raise NumericalError(f"drive level {i} is beyond float range: "
                                     f"amplitude {exc.amplitude!r}, omega {exc.omega!r}")
            rows.append((-scale if i % 4 in (0, 3) else scale) * (s if i % 2 else c))
    return np.where(ta < 0.0, 0.0, rows)


def excite(exc: Excitation, t, level: int = 0):
    """Level-th time derivative of the drive at time t (0 for t < 0).

    level = 0 is the drive itself; positive levels walk the derivative
    stack sin, cos, -sin, -cos exactly, with amplitude * omega**level
    scaling.  Scalar in, scalar out; array in, array out.
    """
    level = int(level)
    if level < 0:
        raise DomainError("derivative level must be non-negative")
    out = _levels(exc, np.asarray(t, dtype=float), level)[level]
    return float(out) if np.ndim(t) == 0 else out


def _uniform(t: np.ndarray) -> bool:
    """Whether the times t are finite, strictly increasing and uniform."""
    steps = np.diff(t)
    lo, hi = steps.min(), steps.max()
    # the largest |step - steps[0]| is at lo or hi, bit for bit, since rounding
    # is monotone; the bound grows with linspace's rounding of i * step, about i * eps
    bound = max(1e-9, 4.0 * (len(t) - 1) * np.finfo(float).eps)
    return bool(lo > 0.0 and max(hi - steps[0], steps[0] - lo) <= bound * steps[0])


@dataclass(frozen=True)
class SampleGrid:
    """Uniform closed time grid over one drive period.

    t_values has count + 1 entries: both endpoints are included so that
    loci close up exactly.
    """

    t_values: np.ndarray
    count: int

    def __post_init__(self) -> None:
        if self.count < _MIN_GRID_N:
            raise ConfigError(f"grid needs at least {_MIN_GRID_N} intervals, got {self.count}")
        t = np.asarray(self.t_values, dtype=float)
        if t.ndim != 1 or len(t) != self.count + 1:
            raise ConfigError("t_values must be one-dimensional with count + 1 entries")
        if t[0] != 0.0:
            raise ConfigError("grid must start at t = 0")
        if not _uniform(t):
            raise ConfigError("grid times must be finite, strictly increasing and uniform")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "t_values", t)

    @property
    def spacing(self) -> float:
        return float(self.t_values[1] - self.t_values[0])

    def __len__(self) -> int:
        return len(self.t_values)


def grid(exc: Excitation, n: int = DEFAULT_GRID_N) -> SampleGrid:
    """Uniform grid of n intervals spanning one period of the drive."""
    n = int(n)
    if n < _MIN_GRID_N:
        raise ConfigError(f"grid needs at least {_MIN_GRID_N} intervals, got {n}")
    # checked all the same: at a period small enough for subnormal steps the
    # rounded steps of linspace stop being uniform (omega = 1e305 at n = 2**20)
    return SampleGrid(t_values=np.linspace(0.0, exc.period, n + 1), count=n)
