"""Outside-in tracer: spans and counters from wrappers around the package.

Nothing inside ``memelements`` knows about tracing.  ``Tracer.install``
replaces each traced public name wherever a package module binds it
(``memelements.taxonomy.origin_crossing``, ``memelements.cli.classify``,
...), plus ``ConstitutiveCurve.derivative`` and ``scipy.optimize.bisect``
as ``memelements.loci`` binds it.  Every wrapper records a span (name,
start, end, parent span, op id) into flat in-memory arrays; ``save``
writes them out once the run is over.

A span's self time is its duration minus the durations of its direct
child spans.  Bisection gets its own span, so scipy's time is kept out
of the self time of the ``loci`` function that called it.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

import memelements
from memelements import cli, constitutive, excitation, loci, taxonomy, transform

# (span name, defining module, attribute, index of the positional
# argument whose scalar calls are counted, or None)
TRACED = (
    ("constitutive.check_ideality", constitutive, "check_ideality", None),
    ("excitation.excite", excitation, "excite", None),
    ("transform.analytic_locus", transform, "analytic_locus", None),
    ("transform.numeric_transform", transform, "numeric_transform", None),
    ("transform.chain_ordinate", transform, "chain_ordinate", 2),
    ("transform.locus_to_csv", transform, "locus_to_csv", None),
    ("loci.origin_crossing", loci, "origin_crossing", None),
    ("loci.valuedness", loci, "valuedness", None),
    ("loci.odd_symmetry", loci, "odd_symmetry", None),
    ("loci.zero_tangent_points", loci, "zero_tangent_points", None),
    ("loci.vertical_tangent_points", loci, "vertical_tangent_points", None),
    ("loci.negative_slope_arcs", loci, "negative_slope_arcs", None),
    ("loci.phase_shift", loci, "phase_shift", None),
    ("taxonomy.classify", taxonomy, "classify", None),
    ("taxonomy.theorem_suite", taxonomy, "theorem_suite", None),
    ("cli.report_to_dict", cli, "report_to_dict", None),
    ("cli.suite_to_dict", cli, "suite_to_dict", None),
    ("cli.render_svg", cli, "render_svg", None),
)
DERIVATIVE = "constitutive.derivative"
BISECT = "scipy.optimize.bisect"

MODULES = (memelements, constitutive, excitation, transform, loci, taxonomy, cli)

# origin_crossing calls made through taxonomy's binding: one per plane analysed
PLANE_ANALYSES = "taxonomy.plane_analyses"
ROOTS = "loci.roots_bracketed"
HOOK_EVALS = "loci.hook_evals"


class Tracer:
    """Span recorder; ``op`` tags every span with the op being run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._op = [-1]
        self.counters: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    @property
    def op(self) -> int:
        return self._op[0]

    @op.setter
    def op(self, index: int) -> None:
        self._op[0] = int(index)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, scalar_arg: int | None = None,
             counter: str | None = None):
        """``fn`` recording one span per call, plus optional counts."""
        nid = self._intern(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack, op = self.span_start, self.span_end, self._stack, self._op
        counters, clock, ndarray = self.counters, time.perf_counter, np.ndarray
        scalar_key = f"{name}.scalar_calls"

        def traced(*args, **kwargs):
            if scalar_arg is not None:
                x = args[scalar_arg]
                if isinstance(x, float) or (isinstance(x, ndarray) and x.ndim == 0):
                    counters[scalar_key] += 1
            if counter is not None:
                counters[counter] += 1
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        return functools.update_wrapper(traced, fn)

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, home, attr, scalar_arg in TRACED:
            original = getattr(home, attr)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        counter = PLANE_ANALYSES if (
                            module is taxonomy and attr == "origin_crossing") else None
                        self._bind(module, key, self.wrap(name, original, scalar_arg, counter))

        curve_cls = constitutive.ConstitutiveCurve
        self._bind(curve_cls, "derivative",
                   self.wrap(DERIVATIVE, curve_cls.derivative, scalar_arg=1))

        bisect = self.wrap(BISECT, loci.bisect)
        counters = self.counters

        def counted_bisect(f, a, b, *args, **kwargs):
            counters[ROOTS] += 1

            def hook(x, *hook_args):
                counters[HOOK_EVALS] += 1
                return f(x, *hook_args)

            return bisect(hook, a, b, *args, **kwargs)

        self._bind(loci, "bisect", counted_bisect)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Calls, self milliseconds and counters, each divided by ``n_ops``."""
        sp = self.arrays()
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        nested = sp["parent"] >= 0
        np.add.at(child, sp["parent"][nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        self_s = np.bincount(sp["name"], weights=own, minlength=k)
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[nid]) / n_ops
            out[f"{name}.self_ms"] = float(self_s[nid]) * 1e3 / n_ops
        for key in (DERIVATIVE, "transform.chain_ordinate"):
            out[f"{key}.scalar_calls"] = self.counters[f"{key}.scalar_calls"] / n_ops
        out[ROOTS] = self.counters[ROOTS] / n_ops
        out[f"{HOOK_EVALS}_per_root"] = (
            self.counters[HOOK_EVALS] / self.counters[ROOTS] if self.counters[ROOTS] else 0.0
        )
        out[PLANE_ANALYSES] = self.counters[PLANE_ANALYSES] / n_ops
        return out
