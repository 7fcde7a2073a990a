"""Independent oracle computations for the test suite.

Everything here is built from closed-form expressions and brute-force
numerics only, never from the package's own transform machinery, so a
match between the two is meaningful evidence.  Constants marked frozen
were produced by the generator functions below at high resolution and
then pinned.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


# closed-form depth-1 ordinates under the unit raised-cosine drive
def cubic_rate(t):
    """d/dt of f(1 - cos t) for f(x) = x + x^3 / 3."""
    x = 1.0 - np.cos(t)
    return (1.0 + x * x) * np.sin(t)


def tanh_rate(t):
    """d/dt of tanh(1 - cos t)."""
    x = 1.0 - np.cos(t)
    return np.sin(t) / np.cosh(x) ** 2


def brute_extrema(rate_fn, n: int = 1_000_000) -> list[float]:
    """Interior extrema of rate_fn on (0, 2*pi) by dense sign-change scan.

    Resolution is one grid step, about 6.3e-6 at the default n; callers
    should compare against refined roots with a tolerance above that.
    """
    t = np.linspace(0.0, TWO_PI, n + 1)
    w = rate_fn(t)
    d = np.diff(w)
    sign = np.sign(d)
    # midpoints of intervals where the finite-difference slope flips
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    return [float(t[i + 1]) for i in flips]


def bisect_to(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Plain bisection, kept local so the oracle shares no package code."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cubic_rate_slope(t):
    """d^2/dt^2 of f(1 - cos t) for the cubic curve, closed form."""
    t = np.asarray(t, dtype=float)
    x = 1.0 - np.cos(t)
    return 2.0 * x * np.sin(t) ** 2 + (1.0 + x * x) * np.cos(t)


def tanh_rate_slope(t):
    """d^2/dt^2 of tanh(1 - cos t), closed form.

    -2 tanh(x) sech^2(x) xdot^2 + sech^2(x) xddot with x = 1 - cos t.
    """
    t = np.asarray(t, dtype=float)
    x = 1.0 - np.cos(t)
    sech2 = 1.0 / np.cosh(x) ** 2
    return sech2 * (-2.0 * np.tanh(x) * np.sin(t) ** 2 + np.cos(t))


def chain_oracle(f, k: int, times, amplitude=1.0, omega=1.0, offset=None):
    """d^k/dt^k of the drive and of f(drive) at each time, from sympy.

    The drive is offset - amplitude * cos(omega t) (offset defaults to the
    amplitude); f maps a sympy expression to a sympy expression.  Both
    derivatives are taken symbolically and evaluated with mpmath at 40
    digits, every float parameter entering as its exact binary value.
    Returns (u, w) float arrays.
    """
    import mpmath
    import sympy as sp

    t = sp.Symbol("t", real=True)
    off = amplitude if offset is None else offset
    drive = sp.Float(off, 40) - sp.Float(amplitude, 40) * sp.cos(sp.Float(omega, 40) * t)
    u_fn = sp.lambdify(t, sp.diff(drive, t, k), modules="mpmath")
    w_fn = sp.lambdify(t, sp.diff(f(drive), t, k), modules="mpmath")
    with mpmath.workdps(40):
        at = [mpmath.mpf(float(s)) for s in np.atleast_1d(times)]
        return (np.array([float(u_fn(s)) for s in at]),
                np.array([float(w_fn(s)) for s in at]))


# frozen roots of the rate slopes (zero-tangent times), bisection at 1e-13
T_C_CUBIC = 2.20050765847209          # root of cubic_rate_slope in (pi/2, pi)
T_C_CUBIC_MIRROR = 4.082677648707496  # 2*pi - T_C_CUBIC
T_C_TANH = 0.9733134912892527         # root of the tanh rate slope in (0, pi/2)
T_C_TANH_MIRROR = 5.309871815890333

# drive value and second drive derivative at the cubic zero-tangent time
COS_T_C_CUBIC = -0.5889114814533635

# curve-level constants
CUBIC_SECOND_DERIV_AT_1 = 2.0                    # f'' of x + x^3/3 at x = 1
TANH_SECOND_DERIV_AT_1 = -0.6397000084492246     # -2 sech^2(1) tanh(1)
MVT_POINT_CUBIC = 2.0 / np.sqrt(3.0)             # f(2)/2 = 1 + c^2 on [0, 2]

# first-peak phase shifts of the depth-1 ordinate against the drive rate
PHASE_SHIFT_CUBIC = 0.6297113316771936   # peak at pi/2 + shift (lag)
PHASE_SHIFT_TANH = -0.5974828355056439   # peak at pi/2 + shift (advance)

# shared endpoint value of the bundled two-branch loop at x = 2
TWO_BRANCH_MEETING_VALUE = 14.0 / 3.0


def regenerate_frozen() -> dict:
    """Recompute every frozen constant; used by a self-check test."""
    out = {}
    out["T_C_CUBIC"] = bisect_to(cubic_rate_slope, 0.5 * np.pi, np.pi)
    out["T_C_CUBIC_MIRROR"] = TWO_PI - out["T_C_CUBIC"]
    out["T_C_TANH"] = bisect_to(tanh_rate_slope, 1e-6, 0.5 * np.pi)
    out["T_C_TANH_MIRROR"] = TWO_PI - out["T_C_TANH"]
    out["COS_T_C_CUBIC"] = float(np.cos(out["T_C_CUBIC"]))
    out["TANH_SECOND_DERIV_AT_1"] = float(-2.0 / np.cosh(1.0) ** 2 * np.tanh(1.0))

    def cubic_secant_gap(c):
        # f'(c) - (f(2) - f(0)) / 2 for f = x + x^3/3
        return (1.0 + c * c) - (2.0 + 8.0 / 3.0) / 2.0

    out["MVT_POINT_CUBIC"] = bisect_to(cubic_secant_gap, 0.0, 2.0)

    def peak(rate_slope):
        roots = [r for r in brute_extrema_fn(rate_slope)]
        return roots[0]

    def brute_extrema_fn(slope_fn):
        t = np.linspace(1e-9, np.pi - 1e-9, 2_000_001)
        s = slope_fn(t)
        flips = np.nonzero(np.sign(s[:-1]) * np.sign(s[1:]) < 0)[0]
        return [
            bisect_to(slope_fn, float(t[i]), float(t[i + 1]))
            for i in flips
        ]

    out["PHASE_SHIFT_CUBIC"] = peak(cubic_rate_slope) - 0.5 * np.pi
    out["PHASE_SHIFT_TANH"] = peak(tanh_rate_slope) - 0.5 * np.pi
    return out
