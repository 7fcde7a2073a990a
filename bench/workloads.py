"""The benchmark's three seeded workloads.

Each workload maps (seed, index) to one operation ("op") on the package,
runs it, and checks its output.  Inputs depend only on the seed and the
op index, so the sequence of ops is an unbounded list fixed by the seed.
Expected outputs are computed here from the generated parameters, not
by calling the package, so a check never shares code with what it checks.

The mix of op kinds is fixed by the op index, so every seed runs the same
mix and only continuous parameters (curve coefficients, drive, the cell
within its depth) come from the seed.

Why these three:

classify-distinct  one library ``classify`` call per op at the default
                   grid, no curve used twice.  Root refinement in
                   ``loci`` and the ``transform``/``constitutive`` hooks
                   it calls do most of the work; nothing is shared
                   between ops, so reusing a chain analysis cannot help.
suite-shared       one CLI ``suite --strict`` per op on a one-curve
                   config.  An ideal curve analyses one depth-2 chain
                   three times and checks ideality five times, so reuse
                   of one chain analysis shows here.  Three ops in ten
                   are non-ideal curves that stop after the ideality
                   check, which keeps that short-circuit measured.
emit-fine          one CLI ``analyze`` (all formats) per op at grids of
                   16384 to 65536, alternating closed-form and numeric
                   chains, interleaved with ``figure fig6/fig7/fig8``.
                   Per-sample scans and CSV/SVG/JSON text dominate;
                   numeric chains never bisect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import memelements
from memelements import Excitation, LogisticCurve, PolynomialCurve, TanhScaledCurve
from memelements import cli

CELLS = ((-1, -1), (-2, -1), (-1, -2), (-2, -2), (-3, -2), (-2, -3))
# cells zero, one and two transforms from their verdict plane
CELLS_BY_DEPTH = (((0, 0), (-1, 0), (0, -1)), CELLS[:3], CELLS[3:])

# (verdict, degeneration, internal source) the paper predicts per cell for
# an ideal curve: up to one transform is passive, two are active on every
# diagonal.
EXPECTED = {
    (0, 0): ("locally_passive", "none", "none"),
    (-1, 0): ("locally_passive", "none", "none"),
    (0, -1): ("locally_passive", "none", "none"),
    (-1, -1): ("locally_passive", "none", "none"),
    (-2, -1): ("locally_passive", "none", "none"),
    (-1, -2): ("locally_passive", "none", "none"),
    (-2, -2): ("locally_active", "negative_nonlinear_resistor", "none"),
    (-3, -2): ("locally_active", "negative_nonlinear_inductor", "current_source"),
    (-2, -3): ("locally_active", "negative_nonlinear_capacitor", "voltage_source"),
}

SUITE_CHECKS = (
    "first_order_passivity",
    "single_valued_after_two_transforms",
    "second_order_memristor_activity",
    "second_order_mem_inductor_activity",
    "second_order_mem_capacitor_activity",
)

# witness |w| against |f''(offset)| (A omega)^2, relative
WITNESS_RTOL = 1e-9
# pinch times against {0, T} or {0, T/2, T}, relative to the period
PINCH_RTOL = 1e-9
# finite-difference witnesses carry O(h^2) error; h^2 < 1.5e-7 at n >= 16384
NUMERIC_WITNESS_RTOL = 1e-5


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _depth(cell) -> int:
    return -max(cell)


# ----------------------------------------------------------------------
# curve parameters and an independent second-derivative oracle
# ----------------------------------------------------------------------

def _poly_spec(rng, quintic: bool) -> dict:
    # the random monotone cubics and quintics of the acceptance tests
    coeffs = [0.0, rng.uniform(0.2, 2.0), rng.uniform(0.0, 0.5), rng.uniform(0.05, 1.0)]
    if quintic:
        coeffs += [0.0, rng.uniform(0.0, 0.3)]
    return {"family": "polynomial", "params": {"coefficients": coeffs}}


def _tanh_spec(rng) -> dict:
    return {"family": "tanh_scaled",
            "params": {"a": rng.uniform(0.5, 2.0), "b": rng.uniform(0.3, 1.5)}}


def _drive_spec(rng, amplitude=(0.3, 1.0), omega=(0.5, 2.0)) -> dict:
    return {"amplitude": rng.uniform(*amplitude), "omega": rng.uniform(*omega)}


def _second_derivative(spec: dict, x: float) -> float:
    family = spec["family"]
    params = spec.get("params", {})
    if family == "polynomial":
        c = params["coefficients"]
        return sum(k * (k - 1) * c[k] * x ** (k - 2) for k in range(2, len(c)))
    if family == "tanh_scaled":
        a, b = params["a"], params["b"]
        th = math.tanh(b * x)
        return -2.0 * a * b * b * th * (1.0 - th * th)
    if family == "logistic":
        s = 1.0 / (1.0 + math.exp(-x))
        return s * (1.0 - s) * (1.0 - 2.0 * s)
    raise ValueError(f"no second-derivative oracle for {family}")


def _curve(spec: dict):
    params = spec.get("params", {})
    rng = tuple(spec["range"]) if "range" in spec else None
    kw = {"operating_range": rng} if rng else {}
    if spec["family"] == "polynomial":
        return PolynomialCurve(coefficients=tuple(params["coefficients"]), **kw)
    if spec["family"] == "tanh_scaled":
        return TanhScaledCurve(a=params["a"], b=params["b"], **kw)
    return LogisticCurve(**kw)


def _drive_offset(drive: dict) -> float:
    return drive.get("offset", drive["amplitude"])


def _check_verdict(cell, verdict, degeneration, source, witnesses, spec, drive,
                   grid_n=None):
    """None when a report's verdict fits its cell, else what went wrong.

    ``witnesses`` holds (t, u, w, kind) tuples.  A finite-difference
    chain on ``grid_n`` intervals is held to grid accuracy instead.
    """
    want = EXPECTED[tuple(cell)]
    got = (verdict, degeneration, source)
    if got != want:
        return f"cell {tuple(cell)}: got {got}, expected {want}"
    period = 2.0 * math.pi / drive["omega"]
    t_tol = PINCH_RTOL * period if grid_n is None else period / grid_n
    w_rtol = WITNESS_RTOL if grid_n is None else NUMERIC_WITNESS_RTOL
    if _depth(cell) < 2:
        # the drive rests at x = 0 on depth 0, its rate vanishes on depth 1
        times = sorted(t for t, _, _, kind in witnesses if kind == "pinch")
        want_t = (0.0, period) if _depth(cell) == 0 else (0.0, 0.5 * period, period)
        if len(times) != len(want_t) or any(abs(a - b) > t_tol
                                            for a, b in zip(times, want_t)):
            return f"pinch times {times}, expected {list(want_t)}"
        return None
    if not witnesses:
        return "active verdict without witnesses"
    if cell[0] == cell[1]:
        amp = drive["amplitude"] * drive["omega"]
        want_w = abs(_second_derivative(spec, _drive_offset(drive))) * amp * amp
        for t, _, w, _ in witnesses:
            if abs(abs(w) - want_w) > w_rtol * want_w:
                return f"witness w = {w!r} at t = {t!r}, expected |w| = {want_w!r}"
    return None


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@dataclass
class Op:
    index: int
    kind: str
    payload: object
    expect: dict = field(default_factory=dict)


class Workload:
    """Seeded op generator, runner and checker for one workload."""

    name = "abstract"

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._ops: dict[int, Op] = {}

    def op(self, index: int) -> Op:
        if index not in self._ops:
            self._ops[index] = self.make(index)
        return self._ops[index]

    def prepare(self, count: int) -> None:
        for i in range(count):
            self.op(i)

    def make(self, index: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError

    def bytes_written(self, op: Op) -> int:
        return 0

    def cleanup(self, op: Op) -> None:
        pass


class ClassifyDistinct(Workload):
    name = "classify-distinct"
    FAMILIES = ("cubic", "quintic", "tanh", "logistic")

    def make(self, index: int) -> Op:
        rng = _rng(self.seed, index)
        # every family meets every cell once per 24 ops
        family = self.FAMILIES[(index // len(CELLS)) % len(self.FAMILIES)]
        cell = CELLS[index % len(CELLS)]
        drive = _drive_spec(rng)
        if family in ("cubic", "quintic"):
            spec = _poly_spec(rng, family == "quintic")
            spec["range"] = [0.0, 2.0]
        elif family == "tanh":
            spec = _tanh_spec(rng)
            spec["range"] = [0.0, 2.0]
        else:
            # f(0) = 1/2, so the range and the sweep stay clear of the origin
            lo = rng.uniform(0.1, 0.5)
            sweep_lo = lo + rng.uniform(0.1, 0.5)
            drive["offset"] = sweep_lo + drive["amplitude"]
            hi = sweep_lo + 2.0 * drive["amplitude"] + rng.uniform(0.1, 0.5)
            spec = {"family": "logistic", "range": [lo, hi]}
        exc = Excitation(amplitude=drive["amplitude"], omega=drive["omega"],
                         offset=drive.get("offset"))
        return Op(index, family, (cell, _curve(spec), exc),
                  {"cell": cell, "spec": spec, "drive": drive})

    def run(self, op: Op):
        cell, curve, exc = op.payload
        return memelements.classify(cell, curve, exc)

    def check(self, op: Op, rpt) -> str | None:
        witnesses = [(p.t, p.u, p.w, p.kind.value) for p in rpt.witnesses]
        return _check_verdict(
            op.expect["cell"], rpt.verdict.value, rpt.degeneration.value,
            rpt.internal_source.value, witnesses, op.expect["spec"], op.expect["drive"],
        )


class _CliWorkload(Workload):
    """Ops that call ``memelements.cli.run`` with files in a work directory."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._sink = io.StringIO()
        self._schemas: dict[str, object] = {}

    def outdir(self, op: Op) -> Path:
        return self.workdir / f"out{op.index}"

    def write_config(self, index: int, config: dict) -> str:
        path = self.workdir / f"config{index}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return str(path)

    def run(self, op: Op):
        self._sink.seek(0)
        self._sink.truncate()
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            return cli.run(op.payload + ["--output-dir", str(self.outdir(op))])

    def exit_error(self, code) -> str | None:
        if code != 0:
            tail = self._sink.getvalue().strip().splitlines()[-3:]
            return f"exit code {code}: {' | '.join(tail)}"
        return None

    def load_valid(self, path: Path, schema_name: str):
        """Parsed JSON file, validated against the package's shipped schema."""
        # imported on first check, after set-up, so that it stays out of setup_s
        import jsonschema

        if schema_name not in self._schemas:
            schema_path = Path(cli.__file__).parent / "schema" / schema_name
            schema = json.loads(schema_path.read_text(encoding="utf-8"))
            self._schemas[schema_name] = jsonschema.Draft202012Validator(schema)
        doc = json.loads(path.read_text(encoding="utf-8"))
        errors = sorted(self._schemas[schema_name].iter_errors(doc), key=str)
        if errors:
            raise ValueError(f"{path.name} fails {schema_name}: {errors[0].message}")
        return doc

    def bytes_written(self, op: Op) -> int:
        out = self.outdir(op)
        return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0

    def cleanup(self, op: Op) -> None:
        shutil.rmtree(self.outdir(op), ignore_errors=True)


class SuiteShared(_CliWorkload):
    name = "suite-shared"
    # In every ten ops: three non-ideal curves, one tanh curve, and six
    # polynomial-cost ops.  The mix is the same for any seed, and the
    # median and 90th-percentile ops both fall among the polynomial ones.
    PATTERN = ("cubic", "piecewise_linear", "quintic", "tanh", "cubic",
               "two_branch", "degenerate", "quintic", "piecewise_linear", "cubic")

    def make(self, index: int) -> Op:
        rng = _rng(self.seed, index)
        kind = self.PATTERN[index % len(self.PATTERN)]
        config: dict = {}
        if kind in ("cubic", "quintic"):
            curve = _poly_spec(rng, kind == "quintic")
            config["excitation"] = _drive_spec(rng)
        elif kind == "tanh":
            curve = _tanh_spec(rng)
            config["excitation"] = _drive_spec(rng)
        elif kind == "degenerate":
            # f'' vanishes at the default drive's offset x = 1
            curve = {"family": "polynomial",
                     "params": {"coefficients": [0.0, 0.0, 0.5, -1.0 / 6.0]}}
        elif kind == "piecewise_linear":
            # monotone with a kink, so not continuously differentiable
            x1 = rng.uniform(0.5, 1.5)
            s1 = rng.uniform(0.2, 1.0)
            s2 = s1 + rng.uniform(0.5, 1.5)
            y1 = s1 * x1
            curve = {"family": "piecewise_linear",
                     "params": {"knots": [[0.0, 0.0], [x1, y1], [2.0, y1 + s2 * (2.0 - x1)]]}}
        else:
            # branches meet at x = 0 and x = 2 and differ in between
            c1, c3 = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5)
            d1 = c1 + rng.uniform(0.2, 0.6)
            d2 = (2.0 * c1 + 8.0 * c3 - 2.0 * d1) / 4.0
            curve = {"family": "two_branch", "params": {
                "outgoing": {"family": "polynomial", "params": {"coefficients": [0.0, c1, 0.0, c3]}},
                "returning": {"family": "polynomial", "params": {"coefficients": [0.0, d1, d2]}},
            }}
        config["curves"] = [curve]
        path = self.write_config(index, config)
        return Op(index, kind, ["suite", "--config", path, "--strict"])

    def check(self, op: Op, code) -> str | None:
        err = self.exit_error(code)
        if err:
            return err
        doc = self.load_valid(self.outdir(op) / "suite_report.json", "suite_report.schema.json")
        (inst,) = doc["instances"]
        statuses = tuple(inst["checks"][name]["status"] for name in SUITE_CHECKS)
        if op.kind in ("piecewise_linear", "two_branch"):
            want = ("skipped",) * 5
        elif op.kind == "degenerate":
            want = ("pass", "pass", "inconclusive", "inconclusive", "inconclusive")
        else:
            want = ("pass",) * 5
        if statuses != want or inst["ideal"] != (want[0] != "skipped"):
            return f"{op.kind}: statuses {statuses}, expected {want}"
        return None


class EmitFine(_CliWorkload):
    name = "emit-fine"
    # three analyze ops and two figures in every five
    PATTERN = ("analyze", "analyze", "figure", "analyze", "figure")
    FIGURES = ("fig6", "fig7", "fig8")
    GRIDS = (16384, 32768, 65536)
    FAMILIES = ("cubic", "quintic", "tanh")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._figure_digests: dict[str, dict[str, str]] = {}

    def make(self, index: int) -> Op:
        rng = _rng(self.seed, index)
        cycle, pos = divmod(index, len(self.PATTERN))
        kind = self.PATTERN[pos]
        nth = cycle * self.PATTERN.count(kind) + self.PATTERN[:pos].count(kind)
        if kind == "figure":
            fig = self.FIGURES[nth % len(self.FIGURES)]
            return Op(index, fig, ["figure", fig])
        # Depth falls as the grid grows, so that every analyze op handles
        # about as many samples and the op mix costs the same for any seed;
        # the seed picks the cell within its depth, the curve and the drive.
        depth = nth % len(self.GRIDS)
        cell = CELLS_BY_DEPTH[depth][int(rng.integers(3))]
        family = self.FAMILIES[(nth // len(self.GRIDS)) % len(self.FAMILIES)]
        spec = _tanh_spec(rng) if family == "tanh" else _poly_spec(rng, family == "quintic")
        config = {
            "descriptor": {"alpha": cell[0], "beta": cell[1]},
            "curve": spec,
            "excitation": _drive_spec(rng, amplitude=(0.5, 1.0)),
            "grid_n": self.GRIDS[::-1][depth],
            "numeric_chain": nth % 2 == 1,
        }
        path = self.write_config(index, config)
        return Op(index, "analyze", ["analyze", "--config", path], config)

    def check(self, op: Op, code) -> str | None:
        err = self.exit_error(code)
        if err:
            return err
        out = self.outdir(op)
        if op.kind != "analyze":
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.iterdir())}
            first = self._figure_digests.setdefault(op.kind, digests)
            if digests != first:
                return f"{op.kind} bytes differ from its first run"
            return None
        cfg = op.expect
        cell = (cfg["descriptor"]["alpha"], cfg["descriptor"]["beta"])
        depth = _depth(cell)
        names = {p.name for p in out.iterdir()}
        want_names = {"report.json", "loci.svg"} | {f"depth{d}.csv" for d in range(depth + 1)}
        if names != want_names:
            return f"wrote {sorted(names)}, expected {sorted(want_names)}"
        doc = self.load_valid(out / "report.json", "classification_report.schema.json")
        want_prov = "numeric" if cfg["numeric_chain"] else "analytic"
        if doc["grid_n"] != cfg["grid_n"] or doc["provenance"] != want_prov:
            return f"report grid/provenance {doc['grid_n']}/{doc['provenance']}"
        witnesses = [(p["t"], p["u"], p["w"], p["kind"]) for p in doc["witnesses"]]
        return _check_verdict(cell, doc["verdict"], doc["degeneration"],
                              doc["internal_source"], witnesses, cfg["curve"],
                              cfg["excitation"],
                              cfg["grid_n"] if cfg["numeric_chain"] else None)


WORKLOADS = {w.name: w for w in (ClassifyDistinct, SuiteShared, EmitFine)}
