import io
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
import sympy as sp
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

from memelements import (
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
from memelements.constitutive import MAX_DERIVATIVE_ORDER, _tanh_stack
from oracles import chain_oracle, cubic_rate, tanh_rate


def high_res_diff(fn, t, h=1e-5):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


# the deepest depth the sympy and frozen-kernel comparisons take
DEEP = 6
LOOP = TwoBranchCurve(
    outgoing=PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)),
    returning=PolynomialCurve((0.0, 4.0 / 3.0, 0.5)),
)
CUBIC = PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0))
TANH = TanhScaledCurve(a=1.3, b=0.8)
LOGISTIC = LogisticCurve()
# curve, the single-valued curve its sympy form is (the curve or, on the loop, one
# branch), that form, a drive inside its range
SYMBOLIC = {
    "cubic": (CUBIC, CUBIC, lambda x: x + (1.0 / 3.0) * x**3, Excitation(0.8, 1.7, 1.0)),
    "tanh": (TANH, TANH, lambda x: 1.3 * sp.tanh(0.8 * x), Excitation(0.8, 1.7, 1.0)),
    "logistic": (LOGISTIC, LOGISTIC, lambda x: 1 / (1 + sp.exp(-x)),
                 Excitation(0.7, 0.6, 1.25)),
    "outgoing": (LOOP, LOOP.outgoing, lambda x: x + (1.0 / 3.0) * x**3, Excitation(0.9, 1.3)),
    "returning": (LOOP, LOOP.returning, lambda x: (4.0 / 3.0) * x + 0.5 * x**2,
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
        _, single, _, exc = SYMBOLIC[name]
        t = np.linspace(0.0, exc.period, 33)
        u, w = _oracle(name, depth, t)
        got = chain_ordinate(single, exc, t, depth)
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
        # a polynomial of any degree reaches MAX_DERIVATIVE_ORDER, its derivatives past
        # the degree being zero; a depth past the bound raises for every curve
        curve = PolynomialCurve((0.0,) + (1.0,) * order)
        for depth in (order + 1, MAX_DERIVATIVE_ORDER):
            assert np.isfinite(chain_ordinate(curve, drive, 1.0, depth))
        with pytest.raises(CapabilityError, match="MAX_DERIVATIVE_ORDER 16"):
            chain_ordinate(curve, drive, 1.0, MAX_DERIVATIVE_ORDER + 1)
        with pytest.raises(CapabilityError, match="MAX_DERIVATIVE_ORDER 16"):
            analytic_locus(curve, drive, MAX_DERIVATIVE_ORDER + 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_times(self, cubic, loop_curve, drive, value):
        for curve in (cubic, loop_curve):
            for depth in (0, 1, 2):
                with pytest.raises(DomainError, match=f"times must be finite, got {value!r}"):
                    chain_ordinate(curve, drive, value, depth)
                with pytest.raises(DomainError, match=f"got {value!r}"):
                    chain_ordinate(curve, drive, [1.0, value], depth)

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

    @pytest.mark.parametrize("branch", ["outgoing", "returning", None])
    def test_one_jet_serves_every_depth(self, branch, monkeypatch):
        # a depth-6 jet gives each shallower depth exactly as a jet built for it,
        # from one derivative stack per single-valued curve (the loop's two branches)
        curve = LOOP if branch is None else SYMBOLIC[branch][1]
        exc = SYMBOLIC["outgoing"][3]
        t = np.concatenate(([0.0, 0.5 * exc.period, exc.period],
                            np.linspace(0.0, exc.period, 65)))
        stacks = []
        stack = PolynomialCurve._stack
        monkeypatch.setattr(PolynomialCurve, "_stack",
                            lambda self, *args: stacks.append(self) or stack(self, *args))
        x, rows = transform._jet(curve, exc, t, DEEP)
        monkeypatch.undo()
        assert len(x) == len(rows) == DEEP + 1
        singles = [LOOP.outgoing, LOOP.returning] if branch is None else [curve]
        assert len(stacks) == len(singles)
        assert all(got is want for got, want in zip(stacks, singles))
        for depth, got in enumerate(rows):
            assert _same_bits(got, chain_ordinate(curve, exc, t, depth))
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
        # jet_signals reads each element's own ordinate depth off one jet
        curve, _, _, exc = SYMBOLIC[name]
        rng = np.random.default_rng(5)
        t = np.concatenate(([0.0, 0.5 * exc.period], rng.uniform(0.0, exc.period, 62)))
        depth = rng.integers(0, DEEP + 1, t.size)
        got = transform.jet_signals(curve, exc, t, depth)
        want = [chain_ordinate(curve, exc, s, d) for s, d in zip(t, depth)]
        assert _same_bits(got, want)


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
        full = transform._jet(curve, exc, t, 4)
        subset = np.random.default_rng(11).permutation(t.size)[:101]
        part = transform._jet(curve, exc, t[subset], 4)
        rng = np.random.default_rng(12)
        depth = rng.integers(0, 5, subset.size)
        mixed = transform.jet_signals(curve, exc, t[subset], depth)
        rows = {d: (full[0][d], full[1][d]) for d in range(5)}
        assert _same_bits(mixed, [rows[d][1][i] for i, d in zip(subset, depth)])
        for d, (u, w) in rows.items():
            assert _same_bits(part[0][d], u[subset])
            assert _same_bits(part[1][d], w[subset])
            for i in subset[:8]:
                alone = transform._jet(curve, exc, t[i], d)
                assert _same_bits(alone[0][d], u[i])
                assert _same_bits(alone[1][d], w[i])


# ----------------------------------------------------------------------
# the jet kernel as it was written before it wrote into blocks, kept frozen:
# the block kernel must take the same float operations in the same order
# ----------------------------------------------------------------------

def _frozen_levels(exc, t, top):
    theta = exc.omega * t
    c = np.cos(theta)
    rows = [exc.offset - exc.amplitude * c]
    s = np.sin(theta)
    for i in range(1, top + 1):
        scale = exc.amplitude * exc.omega ** i
        rows.append((-scale if i % 4 in (0, 3) else scale) * (s if i % 2 else c))
    return np.where(t < 0.0, 0.0, rows)


def _frozen_stack(curve, x, order):
    x = np.asarray(x, dtype=float)
    if isinstance(curve, PolynomialCurve):
        stack = curve._derivative_stack
        rows = npoly.polyval(x, stack[:, : order + 1])
        if order < stack.shape[1]:
            return rows
        return np.concatenate((rows, np.zeros((order + 1 - stack.shape[1],) + x.shape)))
    if isinstance(curve, TanhScaledCurve):
        t = np.tanh(curve.b * x)
        value, scales = curve.a * t, [curve.a * curve.b ** k for k in range(1, order + 1)]
    else:
        t = np.tanh(0.5 * x)
        value, scales = 0.5 + 0.5 * t, [0.5 ** (k + 1) for k in range(1, order + 1)]
    if not scales:
        return np.asarray(value)[None]
    rows = npoly.polyval(t, _tanh_stack(len(scales)))
    scale = np.reshape(scales, (-1,) + (1,) * np.ndim(t))
    return np.concatenate((np.asarray(value)[None], scale * rows))


def _frozen_bell(x, n):
    rows = [[1.0]]
    for m in range(1, n + 1):
        scaled = [x[i] if comb(m - 1, i - 1) == 1 else comb(m - 1, i - 1) * x[i]
                  for i in range(1, m)]
        row = [None, x[m]]
        for j in range(2, m + 1):
            terms = [scaled[i - 1] * rows[m - i][j - 1] for i in range(1, m - j + 2)]
            row.append(sum(terms[1:], terms[0]))
        rows.append(row)
    return rows


def _frozen_jet(curve, exc, t, depth):
    t = np.asarray(t, dtype=float)
    x = _frozen_levels(exc, t, depth)
    bell = _frozen_bell(x, depth)

    def rows(single):
        f = _frozen_stack(single, x[0], depth)
        return [f[0], *(sum((f[j] * bell[k][j] for j in range(k - 1, 0, -1)), f[k] * bell[k][k])
                        for k in range(1, depth + 1))]

    if not curve.is_two_branch:
        return x, np.array(rows(curve))
    outgoing = np.mod(t, exc.period) <= 0.5 * exc.period * (1.0 + 1e-12)
    return x, np.array([np.where(outgoing, a, b)
                        for a, b in zip(rows(curve.outgoing), rows(curve.returning))])


def _equal_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestFrozenKernel:
    """The block kernel gives the frozen kernel's values bit for bit, signed zeros included."""

    # curve, whether its range holds x = 0 (the drive's level before t = 0),
    # and the range its sweep must stay in
    CURVES = {"polynomial": (CUBIC, True, (0.0, 2.0)), "tanh": (TANH, True, (0.0, 2.0)),
              "logistic": (LOGISTIC, False, (0.5, 2.0)), "two_branch": (LOOP, True, (0.0, 2.0))}

    @staticmethod
    def _drive(data, lo, hi):
        amplitude = data.draw(st.floats(0.05, 0.5 * (hi - lo)), label="amplitude")
        offset = data.draw(st.floats(lo + amplitude, hi - amplitude), label="offset")
        omega = data.draw(st.floats(0.1, 20.0), label="omega")
        return Excitation(amplitude, omega, offset)

    @staticmethod
    def _times(data, exc, rests):
        phase = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                          st.floats(-1.0 if rests else 0.0, 2.0))
        if data.draw(st.booleans(), label="scalar"):
            return np.asarray(data.draw(phase, label="phase") * exc.period)
        return np.array(data.draw(st.lists(phase, min_size=1, max_size=40), label="phases")) \
            * exc.period

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), data=st.data())
    def test_jet_and_signals_equal_the_frozen_kernel(self, name, data):
        curve, rests, (lo, hi) = self.CURVES[name]
        exc = self._drive(data, lo, hi)
        t = self._times(data, exc, rests)
        depth = data.draw(st.integers(0, DEEP), label="depth")
        x, y = transform._jet(curve, exc, t, depth)
        want_x, want_y = _frozen_jet(curve, exc, t, depth)
        assert _equal_bits(x, want_x) and _equal_bits(y, want_y)
        t = np.atleast_1d(t)
        depths = np.array(data.draw(st.lists(st.integers(0, depth), min_size=t.size,
                                             max_size=t.size), label="depths"))
        want = _frozen_jet(curve, exc, t, depth)[1][depths, np.arange(t.size)]
        assert _equal_bits(transform.jet_signals(curve, exc, t, depths), want)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(CURVES)), n=st.sampled_from([64, 65, 256]),
           data=st.data())
    def test_chain_equals_the_frozen_kernel(self, name, n, data):
        curve, _, (lo, hi) = self.CURVES[name]
        exc = self._drive(data, lo, hi)
        depth = data.draw(st.integers(0, DEEP), label="depth")
        g = grid(exc, n)
        chain = transform.analytic_chain(curve, exc, depth, g)
        want_x, want_y = _frozen_jet(curve, exc, g.t_values, depth)
        assert len(chain) == depth + 1
        for d, locus in enumerate(chain):
            assert _equal_bits(locus.u_values, want_x[d]) and _equal_bits(locus.w_values, want_y[d])


class TestJetMemory:
    def test_grid_jet_peak_is_its_blocks_and_the_bell_rows(self, cubic, drive):
        # the depth-3 chain (classify's for a depth-2 verdict plane) reads one
        # jet: blocks of 4 level and 4 ordinate rows, which the loci hold, plus
        # the Bell rows B_{2,2}, B_{3,2} and B_{3,3} and one term row while it
        # sums, 1.5 times the blocks; the jet that pushed lists of rows through
        # np.where peaked at 2.38 times
        g = grid(drive, 65536)
        tracemalloc.start()
        try:
            chain = transform.analytic_chain(cubic, drive, 3, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = 2 * 4 * len(g) * 8
        assert chain[3].u_values.base is chain[0].u_values.base  # the levels block
        assert peak <= 1.6 * blocks

    def test_held_locus_keeps_its_own_rows_alone(self, cubic, drive):
        # a depth-3 locus reads one row of blocks with four; holding it must not
        # keep the other three alive
        g = grid(drive, 65536)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            locus = analytic_locus(cubic, drive, 3, g)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(locus) == len(g)
        assert held <= 1.1 * 2 * len(g) * 8


class TestAnalyticLocus:
    def test_shape(self, cubic, drive):
        locus = analytic_locus(cubic, drive, 1)
        assert locus.depth == 1
        assert locus.provenance == "analytic"
        assert len(locus.t_values) == 4097
        assert np.allclose(locus.u_values, np.sin(locus.t_values), atol=1e-15)

    def test_hooks_evaluate_off_grid(self, cubic, drive):
        # point_at reads the locus's jet; the next depth's locus gives its rates
        u, w = point_at(analytic_locus(cubic, drive, 1), 0.12345)
        assert u == pytest.approx(np.sin(0.12345))
        assert w == pytest.approx(cubic_rate(0.12345))
        du, dw = point_at(analytic_locus(cubic, drive, 2), 0.12345)
        assert du == pytest.approx(np.cos(0.12345))

    @pytest.mark.parametrize("step", range(DEEP + 1))
    def test_derivative_hook_absent_exactly_at_capability_edge(self, step):
        # the jet gives a lone locus's rates at the depths up to MAX_DERIVATIVE_ORDER - 1;
        # at the bound its transform raises, and no finite differences stand in
        curve, _, _, exc = SYMBOLIC["cubic"]
        depth = MAX_DERIVATIVE_ORDER - DEEP + step
        locus = analytic_locus(curve, exc, depth, grid(exc, 64))
        if depth < MAX_DERIVATIVE_ORDER:
            assert loci._transform(locus).jet is not None
        else:
            with pytest.raises(CapabilityError, match=f"depth {depth + 1} exceeds"):
                loci._transform(locus)
        assert loci._transform(numeric_transform(locus)).jet is None

    def test_hooks_are_views_of_the_jet(self, cubic, drive):
        # a locus names its (curve, drive) pair; a plain callable is no jet
        locus = analytic_locus(cubic, drive, 1, grid(drive, 64))
        args = (locus.t_values, locus.u_values, locus.w_values, 1)

        def hook(t):
            return point_at(locus, t)

        for jet in (hook, lambda t: (t, t), (hook, drive), (cubic,)):
            with pytest.raises(DomainError):
                ParametricLocus(*args, jet=jet)
        with pytest.raises(DomainError):  # no jet is taken past MAX_DERIVATIVE_ORDER
            ParametricLocus(*args[:3], MAX_DERIVATIVE_ORDER + 1, jet=(cubic, drive))
        rebuilt = ParametricLocus(*args, jet=(cubic, drive))
        t = np.linspace(0.1, 6.0, 7)
        for got, want in zip(point_at(rebuilt, t), point_at(locus, t), strict=True):
            assert _same_bits(got, want)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["cubic", "tanh", "logistic", "outgoing"]),
           phases=st.lists(st.floats(0.0, 1.25), min_size=1, max_size=6))
    def test_point_at_is_the_scalar_chain(self, name, phases):
        # exact coordinates at every depth up to DEEP, at any time, scalar or array
        curve, _, _, exc = SYMBOLIC[name]
        t = np.array(phases) * exc.period
        g = grid(exc, 64)
        for depth in range(DEEP + 1):
            locus = analytic_locus(curve, exc, depth, g)
            u, w = point_at(locus, t)
            assert _same_bits(u, excite(exc, t, depth))
            assert _same_bits(w, chain_ordinate(curve, exc, t, depth))
            got = point_at(locus, float(t[0]))
            want = (excite(exc, float(t[0]), depth), chain_ordinate(curve, exc, float(t[0]), depth))
            assert all(type(v) is float for v in got)
            assert _same_bits(got, want)

    def test_grid_of_another_period_is_refused(self, cubic):
        # a grid over half the drive's period would give half of the locus, which
        # is not odd where the whole one is; the bound is the grid contract's 4 eps
        exc, eps = Excitation(), np.finfo(float).eps
        near, far = (grid(Excitation(omega=1.0 + k * eps), 4096) for k in (2, 16))
        for other in (grid(Excitation(omega=2.0), 4096), far):
            periods = f"{float(other.t_values[-1])!r}.*{exc.period!r}"
            for build in (analytic_locus, transform.analytic_chain):
                with pytest.raises(DomainError, match=periods):
                    build(cubic, exc, 1, other)
        locus = analytic_locus(cubic, exc, 1, near)
        assert loci.odd_symmetry(locus).odd_symmetric
        assert transform.analytic_chain(cubic, exc, 1, near)[1].t_values is near.t_values

    @pytest.mark.parametrize("depth", range(4))
    def test_chain_loci_hold_their_fields_alone(self, cubic, drive, depth):
        # a chain is its sequence: no locus names the next one on the side
        chain = transform.analytic_chain(cubic, drive, depth, grid(drive, 64))
        fields = {"t_values", "u_values", "w_values", "depth", "jet"}
        assert [set(vars(locus)) for locus in chain] == [fields] * (depth + 1)

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
            ParametricLocus(*arrays, depth=1)

    def test_rejects_non_increasing_t(self):
        t, u, w = self._arrays()
        t[10] = t[9]
        with pytest.raises(DomainError, match=r"increase.*t\[10\] = .* is off the grid"):
            ParametricLocus(t, u, w, depth=1)

    @staticmethod
    def _odd_single_locus(t):
        # single-valued and odd on the grid i*T/n: u = sin t, w = sin t + 0.1 sin 3t
        return ParametricLocus(t, np.sin(t), np.sin(t) + 0.1 * np.sin(3.0 * t), 1)

    def test_an_odd_single_locus_on_the_grid(self):
        locus = self._odd_single_locus(np.linspace(0.0, 2.0 * np.pi, 1025))
        assert loci.valuedness(locus).kind is loci.Valuedness.SINGLE
        assert loci.odd_symmetry(locus).odd_symmetric
        assert loci.zero_tangent_points(locus) == ()

    @pytest.mark.parametrize("times", ["one extra sample", "warped", "drifting"])
    def test_rejects_the_same_locus_off_the_grid(self, times):
        # the analyses pair samples by index and take one spacing, so on these
        # times the locus above read double-valued (gaps 4.5e-7 and 7.4e-6),
        # not odd (violations 8.0e-3 and 1.8e-9) or with zero tangents at
        # pi/2 and 3 pi/2 before the grid contract refused them
        n = 1024
        s = np.linspace(0.0, 2.0 * np.pi, n + 1)
        steps = 1.0 + 0.45e-9 * np.sign(np.arange(n) - n / 4 + 0.5)
        t = {"one extra sample": np.sort(np.append(s, 1.0 + 2.0 ** -20)),
             "warped": s + 0.05 * np.sin(s),
             "drifting": np.append(0.0, np.cumsum(steps)) / steps.sum() * (2.0 * np.pi)}[times]
        with pytest.raises(DomainError, match="uniform.* is off the grid"):
            self._odd_single_locus(t)

    def test_holds_read_only_copies(self):
        t, u, w = self._arrays()
        locus = ParametricLocus(t, u, w, depth=1)
        before = [arr.copy() for arr in (t, u, w)]
        for arr in (t, u, w):
            arr[3] = 42.0
        for held, want in zip((locus.t_values, locus.u_values, locus.w_values), before):
            assert held.tobytes() == want.tobytes()
            assert not held.flags.writeable

    def test_labels_are_no_argument(self):
        # a plane's labels are its cell's (plane_labels); jet is keyword-only,
        # so labels passed where they once went are refused, not read as a jet
        t, u, w = self._arrays()
        with pytest.raises(TypeError):
            ParametricLocus(t, u, w, 1, ("u", "w"))
        assert not hasattr(ParametricLocus(t, u, w, 1), "axis_labels")

    def test_provenance_follows_the_jet(self, cubic, drive):
        analytic = analytic_locus(cubic, drive, 1, grid(drive, 64))
        args = (analytic.t_values, analytic.u_values, analytic.w_values, 1)
        assert analytic.provenance == "analytic"
        assert numeric_transform(analytic).provenance == "numeric"
        assert ParametricLocus(*args).provenance == "numeric"
        assert ParametricLocus(*args, jet=(cubic, drive)).provenance == "analytic"
        with pytest.raises(TypeError):
            ParametricLocus(*args, provenance="analytic")
        with pytest.raises(AttributeError):
            analytic.provenance = "numeric"


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
        # a sample moved 1.5e-9 of a step at n = 2**21 stays within 3 eps of the
        # period from i*T/n, inside the grid contract; SampleGrid and a caller
        # locus take it alike, and the transform needs no check of its own
        n = 2 ** 21
        t = np.linspace(0.0, 2.0 * np.pi, n + 1)
        t[n // 2] += 1.5e-9 * (t[1] - t[0])
        excitation.SampleGrid(t_values=t)
        numeric = numeric_transform(ParametricLocus(t, np.sin(t), np.cos(t), 0))
        assert numeric.depth == 1

    def test_rejects_a_grid_a_sample_grid_rejects(self):
        # SampleGrid and a caller locus refuse the same grid, each with its
        # own error, so no transform ever sees it
        t = np.linspace(0.0, 2.0 * np.pi, 4097)
        t[2048] += 1e-6 * (t[1] - t[0])
        with pytest.raises(ConfigError, match=r"uniform.*t\[2048\] = .* is off the grid"):
            excitation.SampleGrid(t_values=t)
        with pytest.raises(DomainError, match=r"uniform.*t\[2048\] = .* is off the grid"):
            ParametricLocus(t, np.sin(t), np.cos(t), 0)

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
        # the chain one plane past depth d, whose last plane is plane d's
        # rates: depth 0 fails at its rates, deeper chains at their depth-1 row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="depth 1 ordinate"):
                transform.analytic_chain(HUGE_CUBIC, HUGE_DRIVE, depth + 1,
                                         grid(HUGE_DRIVE, 256))

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
        data = b"".join(locus_to_csv(locus))
        first, second = data.splitlines()[:2]
        assert first == b"t,u,w"
        assert data.endswith(b"\n")
        t, u, w = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(t, locus.t_values)
        assert np.array_equal(u, locus.u_values)
        assert np.array_equal(w, locus.w_values)


def oracle_csv(header, *columns):
    """The CSV file's bytes from plain Python lists, one row at a time."""
    rows = zip(*([float(v) for v in col] for col in columns))
    text = "".join(line + "\n" for line in [header, *(",".join(map(repr, r)) for r in rows)])
    return text.encode()


def csv_file(header, lead, *columns):
    """The file that columns_to_csv's blocks make."""
    return b"".join(transform.columns_to_csv(header, lead, *columns))


BLOCK = transform._CSV_BLOCK
EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16)
_BOUNDS = np.array([1e-4, 1e16])
# zeros, subnormals, nan, inf, and the bounds of orjson's repr-equal notation
# with their neighbours
AWKWARD_FLOATS = np.concatenate([
    [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, np.nan, np.inf],
    _BOUNDS, np.nextafter(_BOUNDS, 0.0), np.nextafter(_BOUNDS, np.inf),
])


class TestCsvWriter:
    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_row_counts_around_the_block(self, rows):
        rng = np.random.default_rng(rows)
        t = np.sort(rng.uniform(-5, 5, rows))
        tables = [rng.normal(size=(2, rows)) * 10.0 ** rng.integers(-300, 300, size=(2, rows))
                  for _ in range(3)]
        blocks = [list(transform.columns_to_csv("t,u,w", t, *cols)) for cols in tables]
        assert [b"".join(b) for b in blocks] == [oracle_csv("t,u,w", t, *cols) for cols in tables]
        for table in blocks:
            # the header line, then one block per BLOCK rows, each ending its last row
            assert [len(block.splitlines()) for block in table] == [
                1, *(min(BLOCK, rows - start) for start in range(0, rows, BLOCK))]
            assert all(type(block) is bytes and block.endswith(b"\n") for block in table)

    def test_edge_floats(self):
        values = np.array(EDGE_FLOATS)
        data = csv_file("a,b,c", values, -values, values[::-1])
        assert data == oracle_csv("a,b,c", values, -values, values[::-1])
        assert data.splitlines()[1] == b"-0.0,0.0,1e+16"
        back = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(back[0], values) and np.array_equal(np.signbit(back[0]),
                                                                  np.signbit(values))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.data())
    def test_matches_oracle(self, tables, data):
        rows = data.draw(st.integers(0, 40), label="rows")
        floats = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=rows, max_size=rows)
        lead = data.draw(floats, label="lead")
        cols = [(data.draw(floats), data.draw(floats)) for _ in range(tables)]
        assert [csv_file("x,y,z", lead, *c) for c in cols] == [
            oracle_csv("x,y,z", lead, *c) for c in cols]

    def test_locus_and_columns_are_one_table_calls(self, cubic, drive):
        locus = analytic_locus(cubic, drive, 2, grid(drive, 256))
        expected = oracle_csv("t,u,w", locus.t_values, locus.u_values, locus.w_values)
        assert b"".join(locus_to_csv(locus)) == expected
        assert csv_file("t,u,w", locus.t_values, locus.u_values, locus.w_values) == expected

    @pytest.mark.parametrize("header, columns, message", [
        ("a,b", ([0.0, 1.0, 2.0], [5.0]), "columns of unequal length: 3 and 1"),
        ("a,b", ([0.0], [5.0, 6.0]), "columns of unequal length: 1 and 2"),
        ("a,b", ([0.0, 1.0], [[5.0, 6.0]]), r"one-dimensional, got shape \(1, 2\)"),
        ("a,b", (2.0, [5.0]), r"one-dimensional, got shape \(\)"),
        ("a,b,c", ([0.0], [5.0]), "header has 3 fields for 2 columns"),
        ("a", ([0.0], [5.0]), "header has 1 fields for 2 columns"),
    ])
    def test_malformed_tables_raise(self, header, columns, message):
        with pytest.raises(DomainError, match=message):
            transform.columns_to_csv(header, *columns)

    def test_unequal_table_raises(self):
        transform.columns_to_csv("t,u", [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError, match="columns of unequal length: 2 and 3"):
            transform.columns_to_csv("t,u", [0.0, 1.0], [1.0, 2.0, 3.0])

    def test_peak_memory_is_about_the_text(self, cubic, drive):
        # rows are formatted a block at a time as the blocks are consumed,
        # so the peak is a few blocks' text at any grid, not the file's
        for _ in locus_to_csv(analytic_locus(cubic, drive, 1, grid(drive, 256))):
            pass  # imports orjson outside the trace
        peaks, largest = [], 0
        for n in (65536, 262144):
            locus = analytic_locus(cubic, drive, 1, grid(drive, n))
            tracemalloc.start()
            try:
                for block in locus_to_csv(locus):
                    largest = max(largest, len(block))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one block's stacked rows, dump, separators and text, and the
        # block before it, which the loop still holds
        assert max(peaks) <= 6 * largest
        assert peaks[1] <= peaks[0] + largest


class TestReprs:
    """transform._rows gives repr's text of every float64, the ones that
    orjson writes in another notation included."""

    @staticmethod
    def texts(col):
        # one value per row
        return transform._rows(col[:, None]).decode("ascii").splitlines()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_matches_repr(self, values):
        col = np.array(values, dtype=float)
        assert self.texts(col) == [repr(v) for v in col.tolist()]

    def test_explicit_cases(self):
        col = np.concatenate([AWKWARD_FLOATS, [
            1.0, 123.0, 1e15, 9999999999999998.0, 2.0 ** 53, 1e22],
            2.0 ** np.arange(-1074, 1024),
            10.0 ** np.arange(-8, 20),
        ])
        col = np.concatenate([col, -col])
        assert self.texts(col) == [repr(v) for v in col.tolist()]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 5]),
           st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
           st.lists(st.sampled_from(["first", "last", "block end", "block"]),
                    min_size=1, max_size=4, unique=True),
           st.data())
    def test_awkward_values_match_oracle(self, k, rows, places, data):
        # awkward values (orjson's text is not repr's) as a row's first or
        # last field, a block's last row and a whole block, among ordinary ones
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        table = rng.normal(size=(rows, k)) * 10.0 ** rng.integers(-3, 15, size=(rows, k))

        def awkward(size):
            return rng.choice(np.concatenate([AWKWARD_FLOATS, -AWKWARD_FLOATS]), size)

        row = data.draw(st.integers(0, rows - 1), label="row")
        block = data.draw(st.integers(0, (rows - 1) // BLOCK), label="block")
        last = min(rows, (block + 1) * BLOCK) - 1
        if "first" in places:
            table[row, 0] = awkward(1)[0]
        if "last" in places:
            table[row, -1] = awkward(1)[0]
        if "block end" in places:
            table[last] = awkward(k)
        if "block" in places:
            table[block * BLOCK:last + 1] = awkward((last + 1 - block * BLOCK, k))
        header = ",".join("abcde"[:k])
        data = csv_file(header, table[:, 0], *table[:, 1:].T)
        # line lists, which pytest compares far faster than long strings
        assert data.split(b"\n") == oracle_csv(header, *table.T).split(b"\n")

    def test_strided_column(self):
        a = np.linspace(-3.0, 3.0, 12) ** 9 * 1e-6
        assert not a[::2].flags.c_contiguous
        assert csv_file("t,u", a[::2], a[1::2]) == oracle_csv("t,u", a[::2], a[1::2])

    def test_package_import_leaves_orjson_unloaded(self):
        src = pathlib.Path(transform.__file__).parents[1]
        code = "import memelements, memelements.cli, sys; print('orjson' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout == "False\n"
