import io
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from memelements import (
    OUTGOING,
    RETURNING,
    CapabilityError,
    ConfigError,
    DomainError,
    Excitation,
    LogisticCurve,
    NumericalError,
    PolynomialCurve,
    ParametricLocus,
    TanhScaledCurve,
    TwoBranchCurve,
    analytic_locus,
    chain_ordinate,
    excite,
    grid,
    locus_to_csv,
    numeric_transform,
    periodic_derivative,
    point_at,
)
from memelements import excitation, loci, transform
from memelements.transform import default_labels
from oracles import chain_oracle, cubic_rate, tanh_rate


def high_res_diff(fn, t, h=1e-5):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


DEEP = 6
LOOP = TwoBranchCurve(
    outgoing=PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0), max_derivative_order=DEEP),
    returning=PolynomialCurve((0.0, 4.0 / 3.0, 0.5), max_derivative_order=DEEP),
)
# curve with derivatives to order DEEP, its branch, its sympy form, a drive inside its range
SYMBOLIC = {
    "cubic": (PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0), max_derivative_order=DEEP), None,
              lambda x: x + (1.0 / 3.0) * x**3, Excitation(0.8, 1.7, 1.0)),
    "tanh": (TanhScaledCurve(a=1.3, b=0.8, max_derivative_order=DEEP), None,
             lambda x: 1.3 * sp.tanh(0.8 * x), Excitation(0.8, 1.7, 1.0)),
    "logistic": (LogisticCurve(max_derivative_order=DEEP), None,
                 lambda x: 1 / (1 + sp.exp(-x)), Excitation(0.7, 0.6, 1.25)),
    "outgoing": (LOOP, OUTGOING, lambda x: x + (1.0 / 3.0) * x**3, Excitation(0.9, 1.3)),
    "returning": (LOOP, RETURNING, lambda x: (4.0 / 3.0) * x + 0.5 * x**2,
                  Excitation(0.9, 1.3)),
}


def _oracle(name, depth, times):
    _, _, f, exc = SYMBOLIC[name]
    return chain_oracle(f, depth, times, exc.amplitude, exc.omega, exc.offset)


class TestChainOrdinate:
    def test_depth_zero_is_curve_value(self, cubic, drive):
        t = np.linspace(0.0, drive.period, 65)
        x = excite(drive, t)
        assert np.allclose(chain_ordinate(cubic, drive, t, 0), cubic.eval(x))

    def test_depth_one_closed_form(self, cubic, tanh_curve, drive):
        t = np.linspace(0.0, drive.period, 4097)
        assert np.allclose(
            chain_ordinate(cubic, drive, t, 1), cubic_rate(t), atol=1e-13
        )
        assert np.allclose(
            chain_ordinate(tanh_curve, drive, t, 1), tanh_rate(t), atol=1e-13
        )

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_each_depth_differentiates_the_previous(self, cubic, drive, depth):
        t = np.linspace(0.3, drive.period - 0.3, 41)
        approx = high_res_diff(
            lambda s: chain_ordinate(cubic, drive, s, depth - 1), t
        )
        got = chain_ordinate(cubic, drive, t, depth)
        assert np.allclose(got, approx, atol=1e-6)

    @pytest.mark.parametrize("depth", range(DEEP + 1))
    @pytest.mark.parametrize("name", sorted(SYMBOLIC))
    def test_matches_symbolic_chain_rule(self, name, depth):
        curve, branch, _, exc = SYMBOLIC[name]
        t = np.linspace(0.0, exc.period, 33)
        u, w = _oracle(name, depth, t)
        got = chain_ordinate(curve, exc, t, depth, branch)
        assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))
        assert np.max(np.abs(excite(exc, t, depth) - u)) <= 1e-12 * np.max(np.abs(u))

    def test_low_depths_round_like_the_textbook_forms(self, cubic, tanh_curve, drive):
        # bit for bit, signed zeros included (t = 0 and t = T/2 give x' = +-0)
        t = np.linspace(0.0, drive.period, 257)
        x, x1, x2 = (excite(drive, t, i) for i in range(3))
        falling = PolynomialCurve((0.0, -1.0, 0.0, 1.0 / 3.0))  # f'(0) < 0 makes -0.0
        for curve in (cubic, tanh_curve, falling):
            f1, f2 = curve.derivative(x, 1), curve.derivative(x, 2)
            for depth, want in enumerate((curve.eval(x), f1 * x1, f2 * x1**2 + f1 * x2)):
                got = chain_ordinate(curve, drive, t, depth)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("depth", [3, DEEP])
    def test_two_branch_depths_follow_the_sweep(self, depth):
        exc = SYMBOLIC["outgoing"][3]
        t = np.linspace(0.0, exc.period, 32, endpoint=False) + 0.01
        want = np.where(t < 0.5 * exc.period, _oracle("outgoing", depth, t)[1],
                        _oracle("returning", depth, t)[1])
        got = chain_ordinate(LOOP, exc, t, depth)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("order", [1, 4, 7])
    def test_depth_beyond_curve_capability(self, drive, order):
        curve = PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0), max_derivative_order=order)
        assert np.isfinite(chain_ordinate(curve, drive, 1.0, order))
        with pytest.raises(CapabilityError):
            chain_ordinate(curve, drive, 1.0, order + 1)
        with pytest.raises(CapabilityError):
            analytic_locus(curve, drive, order + 1)

    def test_two_branch_uses_half_period_split(self, loop_curve, drive):
        t_out, t_ret = 1.0, 1.0 + drive.period / 2.0
        x = excite(drive, t_out)
        w_out = chain_ordinate(loop_curve, drive, t_out, 0)
        assert w_out == pytest.approx(x + x**3 / 3.0)
        x2 = excite(drive, t_ret)
        w_ret = chain_ordinate(loop_curve, drive, t_ret, 0)
        assert w_ret == pytest.approx(4.0 * x2 / 3.0 + x2**2 / 2.0)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestJet:
    DRIVES = (Excitation(), Excitation(0.8, 1.7, 1.0), Excitation(0.3, 0.5, 0.9))

    @staticmethod
    def _closed_form(exc, t, level):
        """Drive level from its own cos or sin, one branch per place in the stack."""
        theta = exc.omega * t
        scale = exc.amplitude * exc.omega ** level
        out = {0: -scale * np.cos(theta), 1: scale * np.sin(theta),
               2: scale * np.cos(theta), 3: -scale * np.sin(theta)}[level % 4]
        if level == 0:
            out = exc.offset - exc.amplitude * np.cos(theta)
        return np.where(t < 0.0, 0.0, out)

    @pytest.mark.parametrize("exc", DRIVES)
    def test_levels_equal_excite_bit_for_bit(self, exc):
        # t < 0 rests at +0.0; t = 0, T/2, T give signed zeros in the odd levels
        t = np.concatenate(([-1.0, -1e-300, -0.0, 0.0, 0.5 * exc.period, exc.period],
                            np.linspace(0.0, exc.period, 129)))
        levels = excitation._levels(exc, t, 9)
        for i in range(10):
            want = self._closed_form(exc, t, i)
            assert _same_bits(levels[i], want)
            assert _same_bits(excite(exc, t, i), want)
        assert _same_bits(levels[:, :2], np.zeros((10, 2)))  # +0.0 before the drive starts
        for s in (-2.0, 0.0, 1.3):
            assert _same_bits(excitation._levels(exc, np.asarray(s), 5),
                              [excite(exc, s, i) for i in range(6)])
            assert _same_bits(np.array([excite(exc, s, i) for i in range(6)]),
                              np.array([self._closed_form(exc, np.asarray(s), i)
                                        for i in range(6)]))

    @pytest.mark.parametrize("branch", [OUTGOING, RETURNING, None])
    def test_one_jet_serves_every_depth(self, branch):
        # a depth-6 jet gives each shallower depth exactly as a jet built for it
        exc = SYMBOLIC["outgoing"][3]
        t = np.concatenate(([0.0, 0.5 * exc.period, exc.period],
                            np.linspace(0.0, exc.period, 65)))
        jet = transform._Jet(LOOP, exc, t, DEEP, DEEP)
        for depth in range(DEEP + 1):
            got = jet.ordinate(depth, branch)
            assert _same_bits(got, chain_ordinate(LOOP, exc, t, depth, branch))
            if branch is not None:
                _, w = _oracle(branch, depth, t[3:])
                assert np.max(np.abs(got[3:] - w)) <= 1e-12 * np.max(np.abs(w))

    def test_depth_three_sums_from_the_deepest_term(self, tanh_curve, drive):
        # the first depth with three terms pins their order: j = 3, 2, 1, with
        # B_{3,2} = x' x'' + 2 x'' x' as the Bell recursion builds it
        t = np.linspace(0.0, drive.period, 257)
        x, x1, x2, x3 = (excite(drive, t, i) for i in range(4))
        f1, f2, f3 = (tanh_curve.derivative(x, k) for k in (1, 2, 3))
        want = (f3 * (x1 * (x1 * x1)) + f2 * (x1 * x2 + 2 * x2 * x1)) + f1 * x3
        assert _same_bits(chain_ordinate(tanh_curve, drive, t, 3), want)

    @pytest.mark.parametrize("name", ["cubic", "tanh", "logistic", "outgoing"])
    def test_signals_mix_depths_and_coordinates(self, name):
        # jet_signals reads each element's own depth and coordinate off one jet
        curve, _, _, exc = SYMBOLIC[name]
        rng = np.random.default_rng(5)
        t = np.concatenate(([0.0, 0.5 * exc.period], rng.uniform(0.0, exc.period, 62)))
        depth = rng.integers(0, DEEP + 1, t.size)
        ordinate = rng.random(t.size) < 0.5
        got = transform.jet_signals(curve, exc, t, depth, ordinate)
        want = [chain_ordinate(curve, exc, s, d) if o else excite(exc, s, d)
                for s, d, o in zip(t, depth, ordinate)]
        assert _same_bits(got, want)
        only_u = transform.jet_signals(curve, exc, t, depth, np.zeros(t.size, dtype=bool))
        assert _same_bits(only_u, [excite(exc, s, d) for s, d in zip(t, depth)])


class TestBatchIndependence:
    """A jet's value at a time does not depend on the other times it is taken at, bit for bit.

    The grid jet's samples stand in for hook values wherever a landmark or
    valuedness pair time is a grid time, so this must hold exactly.
    """

    CASES = {"polynomial": SYMBOLIC["cubic"][::3], "tanh": SYMBOLIC["tanh"][::3],
             "logistic": SYMBOLIC["logistic"][::3], "two_branch": SYMBOLIC["outgoing"][::3]}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_point_a_shuffled_subset_and_the_grid_agree(self, name):
        curve, exc = self.CASES[name]
        t = grid(exc, 4096).t_values
        full = transform._Jet(curve, exc, t, 4, 4)
        subset = np.random.default_rng(11).permutation(t.size)[:101]
        part = transform._Jet(curve, exc, t[subset], 4, 4)
        rng = np.random.default_rng(12)
        depth, ordinate = rng.integers(0, 5, subset.size), rng.random(subset.size) < 0.5
        mixed = transform.jet_signals(curve, exc, t[subset], depth, ordinate)
        rows = {d: (full.x[d], full.ordinate(d)) for d in range(5)}
        assert _same_bits(mixed, [rows[d][int(o)][i] for i, d, o in zip(subset, depth, ordinate)])
        for d, (u, w) in rows.items():
            assert _same_bits(part.x[d], u[subset])
            assert _same_bits(part.ordinate(d), w[subset])
            for i in subset[:8]:
                alone = transform._Jet(curve, exc, t[i], d, d)
                assert _same_bits(alone.x[d], u[i])
                assert _same_bits(alone.ordinate(d), w[i])


class TestAnalyticLocus:
    def test_shape_and_labels(self, cubic, drive):
        locus = analytic_locus(cubic, drive, 1)
        assert locus.depth == 1
        assert locus.provenance == "analytic"
        assert len(locus.t_values) == 4097
        assert locus.axis_labels == default_labels(1)
        assert np.allclose(locus.u_values, np.sin(locus.t_values), atol=1e-15)

    def test_hooks_evaluate_off_grid(self, cubic, drive):
        # point_at reads the locus's jet; the next depth's locus gives its rates
        u, w = point_at(analytic_locus(cubic, drive, 1), 0.12345)
        assert u == pytest.approx(np.sin(0.12345))
        assert w == pytest.approx(cubic_rate(0.12345))
        du, dw = point_at(analytic_locus(cubic, drive, 2), 0.12345)
        assert du == pytest.approx(np.cos(0.12345))

    @pytest.mark.parametrize("depth", range(DEEP + 1))
    def test_derivative_hook_absent_exactly_at_capability_edge(self, depth):
        # the jet gives a locus's rates below the curve's order cap only
        curve, _, _, exc = SYMBOLIC["cubic"]
        locus = analytic_locus(curve, exc, depth, grid(exc, 64))
        assert loci._has_rates(locus) == (depth < curve.max_derivative_order)
        assert not loci._has_rates(numeric_transform(locus))

    def test_hooks_are_views_of_the_jet(self, cubic, drive):
        # a locus names its (curve, drive) pair; a plain callable is no jet
        locus = analytic_locus(cubic, drive, 1, grid(drive, 64))
        args = (locus.t_values, locus.u_values, locus.w_values, 1, locus.axis_labels)

        def hook(t):
            return point_at(locus, t)

        for jet in (hook, lambda t: (t, t), (hook, drive), (cubic,)):
            with pytest.raises(DomainError):
                ParametricLocus(*args, jet=jet)
        with pytest.raises(DomainError):  # the jet's curve has no derivative of order 5
            ParametricLocus(*args[:3], 5, args[4], jet=(cubic, drive))
        rebuilt = ParametricLocus(*args, jet=(cubic, drive))
        t = np.linspace(0.1, 6.0, 7)
        for got, want in zip(point_at(rebuilt, t), point_at(locus, t), strict=True):
            assert _same_bits(got, want)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["cubic", "tanh", "logistic", "outgoing"]),
           phases=st.lists(st.floats(0.0, 1.25), min_size=1, max_size=6))
    def test_point_at_is_the_scalar_chain(self, name, phases):
        # exact coordinates at every depth up to the cap, at any time, scalar or array
        curve, _, _, exc = SYMBOLIC[name]
        t = np.array(phases) * exc.period
        g = grid(exc, 64)
        for depth in range(curve.max_derivative_order + 1):
            locus = analytic_locus(curve, exc, depth, g)
            u, w = point_at(locus, t)
            assert _same_bits(u, excite(exc, t, depth))
            assert _same_bits(w, chain_ordinate(curve, exc, t, depth))
            got = point_at(locus, float(t[0]))
            want = (excite(exc, float(t[0]), depth), chain_ordinate(curve, exc, float(t[0]), depth))
            assert all(type(v) is float for v in got)
            assert _same_bits(got, want)

    def test_deep_locus_is_closed_form(self):
        curve, _, _, exc = SYMBOLIC["tanh"]
        locus = analytic_locus(curve, exc, DEEP, grid(exc, 64))
        assert locus.provenance == "analytic"
        assert locus.depth == DEEP
        u, w = _oracle("tanh", DEEP, locus.t_values)
        assert np.max(np.abs(locus.u_values - u)) <= 1e-12 * np.max(np.abs(u))
        assert np.max(np.abs(locus.w_values - w)) <= 1e-12 * np.max(np.abs(w))
        hook_u, hook_w = point_at(locus, 0.3)
        assert (hook_u, hook_w) == (excite(exc, 0.3, DEEP), chain_ordinate(curve, exc, 0.3, DEEP))


class TestCallerLocus:
    """A locus built from caller arrays is checked and keeps its own copies."""

    @staticmethod
    def _arrays():
        t = np.linspace(0.0, 2.0 * np.pi, 65)
        return t, np.sin(t), np.sin(2.0 * t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_rejects_non_finite_samples(self, which, bad):
        arrays = list(self._arrays())
        arrays[which][7] = bad
        with pytest.raises(DomainError, match="finite"):
            ParametricLocus(*arrays, depth=1, axis_labels=("x", "y"))

    def test_rejects_non_increasing_t(self):
        t, u, w = self._arrays()
        t[10] = t[9]
        with pytest.raises(DomainError, match="increase"):
            ParametricLocus(t, u, w, depth=1, axis_labels=("x", "y"))

    def test_holds_read_only_copies(self):
        t, u, w = self._arrays()
        locus = ParametricLocus(t, u, w, depth=1, axis_labels=["x", "y"])
        before = [arr.copy() for arr in (t, u, w)]
        for arr in (t, u, w):
            arr[3] = 42.0
        for held, want in zip((locus.t_values, locus.u_values, locus.w_values), before):
            assert held.tobytes() == want.tobytes()
            assert not held.flags.writeable
        assert locus.axis_labels == ("x", "y")


class TestNumericTransform:
    def test_matches_analytic_depth_one(self, cubic, drive):
        base = analytic_locus(cubic, drive, 0)
        numeric = numeric_transform(base)
        exact = analytic_locus(cubic, drive, 1)
        err = np.max(np.abs(numeric.w_values - exact.w_values))
        assert err < 1e-3
        assert numeric.provenance == "numeric"
        assert numeric.depth == 1

    def test_error_shrinks_quadratically(self, cubic, drive):
        errs = []
        for n in (4096, 16384):
            base = analytic_locus(cubic, drive, 0, grid(drive, n))
            numeric = numeric_transform(base)
            exact = analytic_locus(cubic, drive, 1, grid(drive, n))
            errs.append(np.max(np.abs(numeric.w_values - exact.w_values)))
        # 4x finer grid must cut the error by at least ~16x (allow slack)
        assert errs[1] < errs[0] / 12.0

    def test_accepts_every_grid_a_sample_grid_accepts(self):
        # linspace's rounding passes 1e-9 of the step near n = 1.1e6; a grid
        # SampleGrid takes must be uniform enough for the transform too
        n = 2 ** 21
        t = np.linspace(0.0, 2.0 * np.pi, n + 1)
        t[n // 2] += 1.5e-9 * (t[1] - t[0])
        excitation.SampleGrid(t_values=t, count=n)
        numeric = numeric_transform(ParametricLocus(t, np.sin(t), np.cos(t), 0, ("x", "y")))
        assert numeric.depth == 1

    def test_rejects_a_grid_a_sample_grid_rejects(self):
        t = np.linspace(0.0, 2.0 * np.pi, 4097)
        t[2048] += 1e-6 * (t[1] - t[0])
        with pytest.raises(ConfigError, match="uniform"):
            excitation.SampleGrid(t_values=t, count=4096)
        with pytest.raises(NumericalError, match="uniform time grid"):
            numeric_transform(ParametricLocus(t, np.sin(t), np.cos(t), 0, ("x", "y")))

    def test_periodic_derivative_of_sin(self):
        t = np.linspace(0.0, 2.0 * np.pi, 4097)
        d = periodic_derivative(np.sin(t), t[1] - t[0])
        assert np.max(np.abs(d - np.cos(t))) < 1e-6


# drive levels A w^k stay finite, but x'^k in the Bell rows, about (A w)^k, does not
HUGE_CUBIC = PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0), operating_range=(0.0, 2e100))
HUGE_DRIVE = Excitation(amplitude=1e100, omega=1e50)


class TestJetOverflow:
    """A grid ordinate row beyond float range is a NumericalError naming its depth."""

    def test_locus_row(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(analytic_locus(HUGE_CUBIC, HUGE_DRIVE, 0).w_values).all()
            with pytest.raises(NumericalError, match=r"depth 1 ordinate .*amplitude 1e\+100"):
                analytic_locus(HUGE_CUBIC, HUGE_DRIVE, 1)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_chain_rows_and_rates(self, depth):
        # depth 0 fails at its rates, the depth-1 row one level deeper
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="depth 1 ordinate"):
                transform.analytic_chain(HUGE_CUBIC, HUGE_DRIVE, depth, grid(HUGE_DRIVE, 256))

    def test_numeric_transform_row(self):
        # the depth-0 rows are finite, their difference quotients are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = analytic_locus(HUGE_CUBIC, HUGE_DRIVE, 0, grid(HUGE_DRIVE, 256))
            with pytest.raises(NumericalError, match="depth 1 finite differences are beyond"):
                numeric_transform(base)


class TestCsvRoundTrip:
    def test_header_and_exact_floats(self, cubic, drive):
        locus = analytic_locus(cubic, drive, 1, grid(drive, 64))
        text = locus_to_csv(locus)
        first, second = text.splitlines()[:2]
        assert first == "t,u,w"
        assert text.endswith("\n")
        t, u, w = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(t, locus.t_values)
        assert np.array_equal(u, locus.u_values)
        assert np.array_equal(w, locus.w_values)
