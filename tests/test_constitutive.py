import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from memelements import (
    CapabilityError,
    DomainError,
    Excitation,
    LogisticCurve,
    NumericalError,
    PiecewiseLinearCurve,
    PolynomialCurve,
    TanhScaledCurve,
    ToleranceSet,
    TwoBranchCurve,
    check_ideality,
    mvt_point,
)
from memelements import constitutive
from memelements.constitutive import MAX_DERIVATIVE_ORDER, _tanh_poly
from oracles import MVT_POINT_CUBIC


def central_diff(fn, x, k, h=1e-3):
    """k-th derivative by iterated central differences, for cross-checks."""
    if k == 0:
        return fn(x)
    return (central_diff(fn, x + h, k - 1, h) - central_diff(fn, x - h, k - 1, h)) / (2 * h)


class TestPolynomial:
    def test_eval_matches_numpy(self, cubic):
        xs = np.linspace(0.0, 2.0, 257)
        expect = xs + xs**3 / 3.0
        assert np.allclose(cubic.eval(xs), expect, rtol=0, atol=1e-15)

    def test_scalar_in_scalar_out(self, cubic):
        y = cubic.eval(1.0)
        assert isinstance(y, float)
        assert y == pytest.approx(4.0 / 3.0)
        d = cubic.derivative(1.0, 2)
        assert isinstance(d, float)
        assert d == pytest.approx(2.0)

    def test_derivatives_closed_form(self, cubic):
        xs = np.linspace(0.0, 2.0, 101)
        assert np.allclose(cubic.derivative(xs, 1), 1.0 + xs**2, atol=1e-15)
        assert np.allclose(cubic.derivative(xs, 2), 2.0 * xs, atol=1e-15)
        assert np.allclose(cubic.derivative(xs, 3), 2.0, atol=1e-15)
        assert np.allclose(cubic.derivative(xs, 4), 0.0, atol=1e-15)

    def test_range_enforced(self, cubic):
        with pytest.raises(DomainError):
            cubic.eval(2.5)
        with pytest.raises(DomainError):
            cubic.eval(np.array([0.5, -0.1]))

    def test_derivative_order_capped(self, cubic):
        # past order 3 the cubic's derivatives are zero up to the package's bound,
        # and past the bound they raise
        assert cubic.derivative(1.0, MAX_DERIVATIVE_ORDER) == 0.0
        with pytest.raises(CapabilityError, match="order 17 exceeds MAX_DERIVATIVE_ORDER 16"):
            cubic.derivative(1.0, MAX_DERIVATIVE_ORDER + 1)

    @pytest.mark.parametrize("family", [PolynomialCurve, TanhScaledCurve, LogisticCurve,
                                        PiecewiseLinearCurve], ids=lambda cls: cls.__name__)
    def test_no_curve_takes_an_order_cap(self, family, cubic, loop_curve):
        args = {PolynomialCurve: ((0.0, 1.0),), PiecewiseLinearCurve: (((0.0, 0.0), (2.0, 2.0)),)}
        with pytest.raises(TypeError, match="max_derivative_order"):
            family(*args.get(family, ()), max_derivative_order=4)
        assert not hasattr(loop_curve, "max_derivative_order")
        assert "max_derivative_order" not in cubic.spec()

    def test_origin_crossing_required(self):
        # range includes 0 but f(0) = 1
        with pytest.raises(DomainError):
            PolynomialCurve(coefficients=(1.0, 1.0))
        # shifting the range away from 0 lifts the requirement
        PolynomialCurve(coefficients=(1.0, 1.0), operating_range=(0.5, 2.0))

    def test_degenerate_curve_constructs(self, degenerate):
        assert degenerate.eval(0.0) == 0.0
        assert degenerate.derivative(1.0, 2) == pytest.approx(0.0, abs=1e-15)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestStackedDerivatives:
    # -0.0 coefficients and x = -0.0 reach the signed zeros a zero-padded
    # Horner row could flip; f'' of the first is -0.0 + 2x
    POLYS = ((0.0, 1.0, -0.0, 1.0 / 3.0), (0.0, -1.0, 0.0, 1.0 / 3.0),
             (0.0, 0.8, 0.1, 0.3, 0.0, 0.05), (0.0, 2.0), (-0.0, 1.0, 0.0, -0.0))
    XS = np.concatenate(([0.0, -0.0, 1e-300, 2.0], np.linspace(0.0, 2.0, 257)))

    @pytest.mark.parametrize("coeffs", POLYS)
    def test_polynomial_rows_equal_polyval(self, coeffs):
        curve = PolynomialCurve(coeffs)
        rows = curve._stack(self.XS, 7)
        for k in range(8):
            want = npoly.polyval(self.XS, npoly.polyder(coeffs, m=k)) if k < len(coeffs) \
                else np.zeros_like(self.XS)
            assert _bits(rows[k]) == _bits(want)
            assert _bits(curve.derivative(self.XS, k)) == _bits(want)
            assert _bits([curve.derivative(x, k) for x in self.XS]) == _bits(want)

    @pytest.mark.parametrize("curve, scale", [
        (TanhScaledCurve(a=1.3, b=0.7), lambda k: 1.3 * 0.7 ** k),
        (TanhScaledCurve(a=-2.0, b=-0.3, operating_range=(-2.0, 2.0)),
         lambda k: -2.0 * (-0.3) ** k),
        (LogisticCurve(), lambda k: 0.5 ** (k + 1)),
    ])
    def test_tanh_rows_equal_per_order_polyval(self, curve, scale):
        lo, hi = curve.operating_range
        xs = np.concatenate(([lo, hi, 0.0, -0.0] if lo <= 0.0 else [lo, hi],
                             np.linspace(lo, hi, 257)))
        b = 0.5 if curve.family == "logistic" else curve.b
        t = np.tanh(b * xs)
        rows = curve._stack(xs, 7)
        assert _bits(rows[0]) == _bits(curve.eval(xs))
        for k in range(1, 8):
            want = scale(k) * npoly.polyval(t, _tanh_poly(k))
            assert _bits(rows[k]) == _bits(want)
            assert _bits(curve.derivative(xs, k)) == _bits(want)

    def test_range_capability_and_branch_checks(self, cubic, loop_curve):
        # on a loop the range and order checks come before its ValueError
        for curve in (cubic, loop_curve):
            with pytest.raises(DomainError):
                curve._stack(np.array([1.0, 2.5]), 2)
            with pytest.raises(CapabilityError):
                curve._stack(1.0, MAX_DERIVATIVE_ORDER + 1)
        with pytest.raises(ValueError, match="no single value"):
            loop_curve._stack(1.0, 2)


class TestTanhScaled:
    def test_value(self):
        curve = TanhScaledCurve(a=2.0, b=0.5)
        xs = np.linspace(0.0, 2.0, 64)
        assert np.allclose(curve.eval(xs), 2.0 * np.tanh(0.5 * xs), atol=1e-15)

    def test_derivatives_match_finite_differences(self, tanh_curve):
        for k in (1, 2, 3, 4):
            for x in (0.25, 1.0, 1.75):
                approx = central_diff(lambda v: np.tanh(v), x, k)
                got = tanh_curve.derivative(x, k)
                assert got == pytest.approx(approx, abs=5e-7 * 10 ** (k - 1))

    def test_scaling_chain(self):
        curve = TanhScaledCurve(a=3.0, b=2.0)
        # d/dx a tanh(bx) = a b sech^2(bx)
        x = 0.7
        expect = 3.0 * 2.0 / np.cosh(2.0 * x) ** 2
        assert curve.derivative(x, 1) == pytest.approx(expect, rel=1e-12)


class TestLogistic:
    def test_origin_excluded(self):
        with pytest.raises(DomainError):
            LogisticCurve(operating_range=(0.0, 2.0))
        with pytest.raises(DomainError):
            LogisticCurve(operating_range=(-1.0, 1.0))

    def test_value_and_first_derivative(self):
        curve = LogisticCurve(operating_range=(0.5, 2.0))
        xs = np.linspace(0.5, 2.0, 64)
        vals = curve.eval(xs)
        assert np.allclose(vals, 1.0 / (1.0 + np.exp(-xs)), atol=1e-15)
        # logistic identity: f' = f (1 - f)
        assert np.allclose(curve.derivative(xs, 1), vals * (1.0 - vals), atol=1e-14)


class TestPiecewiseLinear:
    def test_interpolation_and_slopes(self):
        curve = PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)))
        assert curve.eval(0.5) == pytest.approx(0.25)
        assert curve.eval(1.5) == pytest.approx(1.25)
        assert curve.derivative(0.5, 1) == pytest.approx(0.5)
        # right-hand slope at the interior knot
        assert curve.derivative(1.0, 1) == pytest.approx(1.5)
        assert curve.derivative(2.0, 1) == pytest.approx(1.5)
        assert curve.derivative(0.5, 2) == 0.0

    def test_knot_validation(self):
        with pytest.raises(DomainError):
            PiecewiseLinearCurve(knots=((0.0, 0.0),))
        with pytest.raises(DomainError):
            PiecewiseLinearCurve(knots=((0.0, 0.0), (0.0, 1.0)))
        with pytest.raises(DomainError):
            PiecewiseLinearCurve(
                knots=((0.0, 0.0), (1.0, 1.0)), operating_range=(0.0, 2.0)
            )

    def test_kink_points(self):
        curve = PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)))
        assert curve.kink_points() == (1.0,)
        straight = PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        assert straight.kink_points() == ()
        assert not curve.smooth


class TestTwoBranch:
    def test_branch_selection(self, loop_curve):
        assert loop_curve.outgoing.eval(1.0) == pytest.approx(4.0 / 3.0)
        assert loop_curve.returning.eval(1.0) == pytest.approx(4.0 / 3.0 + 0.5)
        assert loop_curve.is_two_branch

    def test_branch_required(self, loop_curve):
        # the loop itself has no single value, scalar or array, at any order
        for x in (1.0, np.array([0.5, 1.0])):
            with pytest.raises(ValueError, match="no single value"):
                loop_curve.eval(x)
            for k in (0, 1, 2):
                with pytest.raises(ValueError, match="no single value"):
                    loop_curve.derivative(x, k)

    def test_branches_meet_at_endpoints(self, loop_curve):
        hi = loop_curve.operating_range[1]
        assert loop_curve.outgoing.eval(hi) == pytest.approx(14.0 / 3.0)
        assert loop_curve.returning.eval(hi) == pytest.approx(14.0 / 3.0)

    def test_mismatched_endpoints_rejected(self):
        with pytest.raises(DomainError):
            TwoBranchCurve(
                outgoing=PolynomialCurve(coefficients=(0.0, 1.0)),
                returning=PolynomialCurve(coefficients=(0.0, 2.0)),
            )

    def test_kink_points_gather_both_branches(self):
        loop = TwoBranchCurve(
            outgoing=PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0))),
            returning=PiecewiseLinearCurve(knots=((0.0, 0.0), (1.5, 1.0), (2.0, 2.0))),
        )
        assert loop.kink_points() == (1.0, 1.5)
        assert not loop.smooth

    def test_mismatched_ranges_rejected(self):
        with pytest.raises(DomainError):
            TwoBranchCurve(
                outgoing=PolynomialCurve(coefficients=(0.0, 1.0)),
                returning=PolynomialCurve(
                    coefficients=(0.0, 1.0), operating_range=(0.0, 3.0)
                ),
            )


class TestIdeality:
    def test_cubic_is_ideal(self, cubic):
        rpt = check_ideality(cubic)
        assert rpt.ideal
        assert rpt.single_valued and rpt.nonlinear
        assert rpt.continuously_differentiable and rpt.strictly_monotone
        assert not rpt.failed_criteria()

    def test_affine_is_not_nonlinear(self):
        line = PolynomialCurve(coefficients=(0.0, 1.0))
        rpt = check_ideality(line)
        assert not rpt.ideal
        assert "nonlinear" in rpt.failed_criteria()
        assert rpt.max_secant_deviation < 1e-12

    def test_nonmonotone_poly_flagged(self):
        hump = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, -1.0))
        rpt = check_ideality(hump)
        assert not rpt.strictly_monotone
        assert rpt.violating_interval is not None

    def test_two_branch_is_multivalued(self, loop_curve):
        rpt = check_ideality(loop_curve)
        assert not rpt.single_valued
        assert not rpt.ideal

    def test_pwl_kink_breaks_differentiability(self):
        curve = PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)))
        rpt = check_ideality(curve)
        assert not rpt.continuously_differentiable
        assert rpt.worst_slope_jump_at == pytest.approx(1.0)

    def test_piecewise_linear_branch_breaks_differentiability(self, cubic):
        # a smooth outgoing branch and a kinked returning one: the loop has the
        # returning branch's kink, and its slope jump is the worst
        loop = TwoBranchCurve(
            outgoing=cubic,
            returning=PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 2.0), (2.0, 14.0 / 3.0))),
        )
        assert loop.kink_points() == (1.0,)
        rpt = check_ideality(loop)
        assert not rpt.continuously_differentiable
        assert "continuously_differentiable" in rpt.failed_criteria()
        assert rpt.worst_slope_jump == pytest.approx(2.0 / 3.0)
        assert rpt.worst_slope_jump_at == 1.0

    def test_flat_segment_breaks_monotonicity(self):
        curve = PiecewiseLinearCurve(
            knots=((0.0, 0.0), (1.0, 1.0), (1.5, 1.0), (2.0, 2.0))
        )
        rpt = check_ideality(curve)
        assert not rpt.strictly_monotone


class TestMvtPoint:
    def test_cubic_closed_form(self, cubic):
        c = mvt_point(cubic, 0.0, 2.0)
        assert c == pytest.approx(MVT_POINT_CUBIC, abs=1e-9)

    def test_affine_returns_midpoint(self):
        line = PolynomialCurve(coefficients=(0.0, 1.5))
        assert mvt_point(line, 0.0, 2.0) == pytest.approx(1.0)

    def test_two_branch_needs_branch(self, loop_curve):
        c = mvt_point(loop_curve.outgoing, 0.0, 2.0)
        assert c == pytest.approx(MVT_POINT_CUBIC, abs=1e-9)
        with pytest.raises(ValueError, match="no single value"):
            mvt_point(loop_curve, 0.0, 2.0)

    def test_interval_inside_range(self, cubic):
        with pytest.raises(DomainError):
            mvt_point(cubic, 0.0, 3.0)

    def test_zero_residual_at_the_left_end_is_no_root(self):
        # f' - secant = 3x^2 - 3 vanishes exactly at x = a = -1, which is not
        # interior; the mean-value point is x = 1
        cube = PolynomialCurve(coefficients=(0.0, 0.0, 0.0, 1.0), operating_range=(-1.0, 2.0))
        c = mvt_point(cube, -1.0, 2.0)
        assert c == pytest.approx(1.0, abs=1e-9)
        assert cube.derivative(c, 1) == pytest.approx(3.0, abs=1e-9)

    def test_interior_exact_zero_needs_no_bisection(self, monkeypatch):
        # f' - secant = 2x - 2 is exactly 0 at the sample x = 1
        def refused(*args, **kwargs):
            raise AssertionError("bisect called")

        monkeypatch.setattr(constitutive, "bisect", refused)
        assert mvt_point(PolynomialCurve(coefficients=(0.0, 0.0, 1.0)), 0.0, 2.0) == 1.0

    # the sample step of mvt_point's 2049-sample scan of [0, 2]
    H = 2.0 / 2048

    def test_dip_between_samples_is_not_bracketed(self):
        # slope 1.001 at every sample, and a dip of slope about -5.8 between
        # the samples 1 and 1 + H that brings f(2) back to the secant's 2
        a, x1, x2 = 1.001, 1.0 + 0.2 * self.H, 1.0 + 0.5 * self.H
        y2 = 2.0 - a * (2.0 - x2)
        curve = PiecewiseLinearCurve(knots=((0.0, 0.0), (x1, a * x1), (x2, y2),
                                            (2.0, y2 + a * (2.0 - x2))))
        with pytest.raises(NumericalError, match="no mean-value tangency bracketed"):
            mvt_point(curve, 0.0, 2.0)

    def test_tangency_between_the_first_samples_is_found_on_the_fine_scan(self):
        # as above, but the sample 0 alone has the smaller residual 0.0005, and
        # between it and sample 1 a segment of the secant's slope 1 lies
        a, x1, x2 = 1.001, 1.0 + 0.2 * self.H, 1.0 + 0.5 * self.H
        p1, p2 = 0.3 * self.H, 0.6 * self.H
        y1 = 1.0005 * p1 + (p2 - p1)
        curve = PiecewiseLinearCurve(knots=((0.0, 0.0), (p1, 1.0005 * p1), (p2, y1),
                                            (x1, y1 + a * (x1 - p2)), (x2, 2.0 - a * (2.0 - x2)),
                                            (2.0, 2.0)))
        c = mvt_point(curve, 0.0, 2.0)
        assert p1 <= c < p2
        assert curve.derivative(c, 1) == pytest.approx(1.0, abs=1e-12)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: PolynomialCurve(coefficients=(0.0, 1.0, NAN)), DomainError),
            (lambda: PolynomialCurve(coefficients=(0.0, INF)), DomainError),
            (lambda: TanhScaledCurve(a=NAN), DomainError),
            (lambda: TanhScaledCurve(b=-INF), DomainError),
            (lambda: PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, NAN))),
             DomainError),
            (lambda: Excitation(amplitude=INF), DomainError),
            (lambda: Excitation(omega=INF), DomainError),
            (lambda: Excitation(offset=NAN), DomainError),
            (lambda: ToleranceSet(witness_tol=NAN), ValueError),
            (lambda: ToleranceSet(root_tol=INF), ValueError),
        ],
        ids=[
            "poly-nan", "poly-inf", "tanh-a-nan", "tanh-b-inf", "pwl-knot-nan",
            "drive-amplitude-inf", "drive-omega-inf", "drive-offset-nan",
            "tol-witness-nan", "tol-root-inf",
        ],
    )
    def test_constructor_rejects(self, build, error):
        with pytest.raises(error, match="finite"):
            build()


class TestNonFiniteAbscissae:
    @pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("curve", [
        PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), TanhScaledCurve(),
        PiecewiseLinearCurve(knots=((0.0, 0.0), (2.0, 1.0)))], ids=["poly", "tanh", "pwl"])
    def test_eval_and_derivative_name_the_abscissa(self, curve, value):
        # NaN compares False with both range ends, so it once passed the range check
        for call in (lambda: curve.eval(value), lambda: curve.eval([0.5, value]),
                     lambda: curve.derivative(value, 1), lambda: curve.derivative([0.5, value], 1)):
            with pytest.raises(DomainError, match=f"abscissa {value!r} outside"):
                call()
