"""Malformed CLI configs, each with the one stderr line it must produce.

Every entry is ``(id, command, config, message)``: running ``command``
on ``config`` exits with code 2 and writes exactly
``config error: <message>`` and a newline to stderr.  Each config holds
one fault, and the table names every message of every config reader at
least once.  ``tests/test_cli.py`` asserts the lines and
``tools/fingerprint.py`` fingerprints the same runs.
"""

from __future__ import annotations

CUBIC = {"family": "polynomial", "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]}}
TANH = {"family": "tanh_scaled", "params": {"a": 1.3, "b": 0.7}}
LOOP = {"family": "two_branch", "params": {
    "outgoing": CUBIC,
    "returning": {"family": "polynomial", "params": {"coefficients": [0, 4.0 / 3.0, 0.5]}}}}
ANALYZE = {"descriptor": {"alpha": -1, "beta": -1}, "curve": CUBIC}
SUITE = {"curves": [CUBIC]}
AXIS = {"target": "descriptor.alpha", "values": [-1]}
SWEEP = dict(ANALYZE, axes=[AXIS])
NAN, INF = float("nan"), float("inf")


def curve(**changes) -> dict:
    return dict(ANALYZE, curve=dict(CUBIC, **changes))


def params(family: str, **values) -> dict:
    return dict(ANALYZE, curve={"family": family, "params": values})


def loop(**changes) -> dict:
    return dict(ANALYZE, curve=dict(LOOP, **changes))


def branches(outgoing: dict, returning: dict) -> dict:
    return loop(params={"outgoing": outgoing, "returning": returning})


def axis(**changes) -> dict:
    return dict(SWEEP, axes=[dict(AXIS, **changes)])


MALFORMED = [
    # an object where one is needed
    ("curve-not-object", "analyze", dict(ANALYZE, curve=5), "curve must be an object"),
    ("params-not-object", "analyze", curve(params=[0, 1]), "curve.params must be an object"),
    ("branch-not-object", "analyze", loop(params={"outgoing": [], "returning": CUBIC}),
     "curve.params.outgoing must be an object"),
    ("excitation-not-object", "analyze", dict(ANALYZE, excitation=[1.0]),
     "excitation must be an object"),
    ("descriptor-not-object", "analyze", dict(ANALYZE, descriptor=[-1, -1]),
     "descriptor must be an object"),
    ("tolerances-not-object", "analyze", dict(ANALYZE, tolerances=1e-9),
     "tolerances must be an object"),
    ("axis-not-object", "sweep", dict(SWEEP, axes=[3]), "config.axes[0] must be an object"),
    ("suite-curve-not-object", "suite", {"curves": ["cubic"]},
     "config.curves[0] must be an object"),
    # a key no reader reads
    ("unknown-config-key", "analyze", dict(ANALYZE, grid=256), "config.grid is not a known key"),
    ("unknown-curve-key", "analyze", curve(rnage=[0, 2]), "curve.rnage is not a known key"),
    ("unknown-param", "analyze", curve(params={"coefficients": [0, 1], "c": 1}),
     "curve.params.c is not a known key"),
    ("unknown-logistic-param", "analyze", params("logistic", a=2),
     "curve.params.a is not a known key"),
    ("unknown-excitation-key", "analyze", dict(ANALYZE, excitation={"omgea": 2.0}),
     "excitation.omgea is not a known key"),
    ("unknown-descriptor-key", "analyze",
     dict(ANALYZE, descriptor={"alpha": -1, "beta": -1, "gamma": 0}),
     "descriptor.gamma is not a known key"),
    ("unknown-tolerance", "analyze", dict(ANALYZE, tolerances={"witnes_tol": 1.0}),
     "tolerances.witnes_tol is not a known key"),
    ("unknown-axis-key", "sweep", axis(step=1), "config.axes[0].step is not a known key"),
    ("unknown-suite-param", "suite", {"curves": [CUBIC, dict(TANH, params={"B": 2})]},
     "config.curves[1].params.B is not a known key"),
    # a key that must be there
    ("missing-descriptor", "analyze", {"curve": CUBIC}, "missing required key config.descriptor"),
    ("missing-family", "analyze", dict(ANALYZE, curve={"params": {}}),
     "missing required key curve.family"),
    ("missing-coefficients", "analyze", params("polynomial"),
     "missing required key curve.params.coefficients"),
    ("missing-knots", "analyze", params("piecewise_linear"),
     "missing required key curve.params.knots"),
    ("missing-branch", "analyze", loop(params={"outgoing": CUBIC}),
     "missing required key curve.params.returning"),
    ("missing-beta", "analyze", dict(ANALYZE, descriptor={"alpha": -1}),
     "missing required key descriptor.beta"),
    ("missing-axis-values", "sweep", dict(SWEEP, axes=[{"target": "grid_n"}]),
     "missing required key config.axes[0].values"),
    ("missing-curves", "suite", {"grid_n": 256}, "missing required key config.curves"),
    # a number where one is needed
    ("amplitude-not-number", "analyze", dict(ANALYZE, excitation={"amplitude": "big"}),
     "excitation.amplitude must be a number"),
    ("offset-bool", "analyze", dict(ANALYZE, excitation={"offset": True}),
     "excitation.offset must be a number"),
    ("tanh-param-not-number", "analyze", params("tanh_scaled", a="1"),
     "curve.params.a must be a number"),
    ("coefficient-not-number", "analyze", params("polynomial", coefficients=[0, "x"]),
     "curve.params.coefficients[1] must be a number"),
    ("tolerance-not-number", "analyze", dict(ANALYZE, tolerances={"pinch_tol": "1e-9"}),
     "tolerances.pinch_tol must be a number"),
    ("omega-infinite", "analyze", dict(ANALYZE, excitation={"omega": INF}),
     "excitation.omega must be finite, got inf"),
    ("coefficient-nan", "analyze", params("polynomial", coefficients=[0, 1, NAN]),
     "curve.params.coefficients[2] must be finite, got nan"),
    ("coefficient-huge-integer", "analyze", params("polynomial", coefficients=[0, 10 ** 400]),
     "curve.params.coefficients[1] must be finite, got an integer beyond float range"),
    ("tolerance-nan", "suite", dict(SUITE, tolerances={"witness_tol": NAN}),
     "tolerances.witness_tol must be finite, got nan"),
    # an integer where one is needed
    ("alpha-bool", "analyze", dict(ANALYZE, descriptor={"alpha": True, "beta": -1}),
     "descriptor.alpha must be an integer"),
    ("beta-float", "analyze", dict(ANALYZE, descriptor={"alpha": -1, "beta": -1.0}),
     "descriptor.beta must be an integer"),
    ("order-float", "analyze", curve(max_derivative_order=4.0),
     "curve.max_derivative_order must be an integer"),
    ("order-bool", "analyze", curve(max_derivative_order=True),
     "curve.max_derivative_order must be an integer"),
    ("grid-n-float", "analyze", dict(ANALYZE, grid_n=4096.0), "config.grid_n must be an integer"),
    ("suite-grid-n-bool", "suite", dict(SUITE, grid_n=True), "config.grid_n must be an integer"),
    ("sweep-grid-n-string", "sweep", dict(SWEEP, grid_n="4096"),
     "config.grid_n must be an integer"),
    # a curve's range, coefficients and knots
    ("range-too-long", "analyze", curve(range=[0, 1, 2]), "curve.range must be a [lo, hi] pair"),
    ("range-not-array", "analyze", curve(range="0,2"), "curve.range must be a [lo, hi] pair"),
    ("range-bound-not-number", "analyze", curve(range=[0, "2"]),
     "curve.range[1] must be a number"),
    ("coefficients-empty", "analyze", params("polynomial", coefficients=[]),
     "curve.params.coefficients must be a non-empty array"),
    ("coefficients-number", "analyze", params("polynomial", coefficients=1.0),
     "curve.params.coefficients must be a non-empty array"),
    ("knots-too-few", "analyze", params("piecewise_linear", knots=[[0, 0]]),
     "curve.params.knots must list at least two [x, y] pairs"),
    ("knot-not-pair", "analyze", params("piecewise_linear", knots=[[0, 0], [1]]),
     "curve.params.knots[1] must be [x, y]"),
    ("knot-ordinate-not-number", "analyze", params("piecewise_linear", knots=[[0, 0], [1, None]]),
     "curve.params.knots[1][1] must be a number"),
    # a curve family and its construction
    ("unknown-family", "analyze", dict(ANALYZE, curve={"family": "spline"}),
     "curve.family 'spline' is not a known curve family"),
    ("family-not-string", "analyze", dict(ANALYZE, curve={"family": 3}),
     "curve.family 3 is not a known curve family"),
    ("nested-family", "analyze", branches(CUBIC, {"family": "two_branch", "params": {}}),
     "missing required key curve.params.returning.params.outgoing"),
    ("off-origin", "analyze", params("polynomial", coefficients=[1, 1]),
     "curve: polynomial curve must pass through the origin on a range containing x = 0 "
     "(got f(0) = 1.0)"),
    ("tanh-zero-scale", "analyze", params("tanh_scaled", b=0),
     "curve: tanh_scaled needs non-zero a and b"),
    ("knots-not-increasing", "analyze", params("piecewise_linear", knots=[[0, 0], [0, 1]]),
     "curve: piecewise_linear knot abscissae must strictly increase"),
    ("range-reversed", "analyze", curve(range=[2, 0]),
     "curve: operating range must satisfy lo < hi, got (2.0, 0.0)"),
    ("order-zero", "analyze", curve(max_derivative_order=0),
     "curve: max_derivative_order must be a positive integer"),
    ("branches-apart", "analyze", branches(CUBIC, dict(CUBIC, range=[0, 1])),
     "curve: branches must share one operating range"),
    ("branch-error-path", "suite", {"curves": [dict(LOOP, params={
        "outgoing": CUBIC,
        "returning": {"family": "polynomial", "params": {"coefficients": []}}})]},
     "config.curves[0].params.returning.params.coefficients must be a non-empty array"),
    ("two-branch-range", "analyze", loop(range=[0, 1.5]),
     "curve.range (0.0, 1.5) disagrees with the branches' (0.0, 2.0)"),
    ("two-branch-order", "analyze", loop(max_derivative_order=7),
     "curve.max_derivative_order 7 disagrees with the branches' 4"),
    # a drive, a descriptor and tolerances the package rejects
    ("amplitude-negative", "analyze", dict(ANALYZE, excitation={"amplitude": -1}),
     "excitation: amplitude must be positive"),
    ("descriptor-outside-table", "analyze", dict(ANALYZE, descriptor={"alpha": 1, "beta": 0}),
     "descriptor: descriptor (1, 0) lies outside the element table; both levels must be "
     "non-positive"),
    ("tolerance-zero", "analyze", dict(ANALYZE, tolerances={"pinch_tol": 0}),
     "tolerances: pinch_tol must be positive and finite"),
    ("tolerance-negative", "sweep", dict(SWEEP, tolerances={"root_tol": -1e-10}),
     "tolerances: root_tol must be positive and finite"),
    ("numeric-chain-not-bool", "analyze", dict(ANALYZE, numeric_chain=1),
     "config.numeric_chain must be a boolean"),
    # sweep axes
    ("axes-not-array", "sweep", dict(SWEEP, axes=AXIS),
     "config.axes must list one or two sweep axes"),
    ("axis-values-empty", "sweep", axis(values=[]),
     "config.axes[0].values must be a non-empty array"),
    ("axis-values-not-array", "sweep", axis(values=-1),
     "config.axes[0].values must be a non-empty array"),
    ("axis-value-not-number", "sweep", axis(values=[-1, "-2"]),
     "config.axes[0].values[1] must be a number"),
    ("axis-value-infinite", "sweep", axis(target="excitation.omega", values=[1.0, -INF]),
     "config.axes[0].values[1] must be finite, got -inf"),
    # the suite's curve list and the analyze formats
    ("curves-empty", "suite", {"curves": []}, "config.curves must be a non-empty array"),
    ("format-unknown", "analyze", dict(ANALYZE, formats=["json", "pdf"]),
     "formats: unknown format 'pdf' (choose from csv, json, svg)"),
]
