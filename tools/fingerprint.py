"""Fingerprints of memelements' deterministic outputs, one line each.

Every line is ``<name> <value>``: the sha256 of a library report's repr,
of one file a CLI run wrote, or of its stdout or stderr, or the exit
code of a CLI run.  Every ``max_pair_gap`` in a report's repr or a file
is masked in its hash and printed instead, as ``float.hex``, on a
``<name>/max_pair_gap`` line just before it, so a change that moves only
pair gaps shows as exactly the gap lines it moved.  A change that must leave results untouched is
checked by running this script on two checkouts and diffing the output:

    python tools/fingerprint.py > after.txt
    (cd ../parent && python tools/fingerprint.py) > before.txt
    diff before.txt after.txt

The script imports the package from the ``src/`` next to it, the
classify-distinct and suite-shared inputs from ``bench/workloads.py``
and the malformed configs from ``tests/malformed_configs.py``, so each
checkout fingerprints its own code; to fingerprint a commit older than the
script, copy the script into that checkout's ``tools/`` (and the config
table into its ``tests/``).  It takes about a minute on two cores.

Covered:
  * ``classify`` reports of classify-distinct ops 0-119 for seeds 7, 13
    and 90210, and the report.json text the CLI would write for each;
  * ``classify`` reports of seven curves over cells (0,0)..(-4,-4) at
    n = 256, 257, 4095 and 4096 on closed-form chains (on the odd grids
    no odd-depth sample has a mirror sample to pair with), the diagonal
    down to (-6,-6), and cubic and tanh diagonals at n = 65536 and on
    numeric chains;
  * ``theorem_suite`` (one run over an ideal cubic that has only first
    derivatives) and ``mvt_point``;
  * ``phase_shift`` of the seven curves, each under its default drive and
    14 seeded drives of varied amplitude, offset and omega in
    {0.3, 1, 2.7, 13}, printed as ``float.hex`` of the ordinate and
    abscissa peak times and the shift, and the class;
  * ``float.hex`` of every root ``loci.refine_chain`` stores (each plane's
    abscissa zeros and transversal du/dt and dw/dt zeros, including the
    ones no report shows), of each plane's slope spans and peaks, and of
    every time and value of its landmark table, on closed-form and
    numeric chains of the seven curves to depths 0-4 at n = 256, 257,
    4095 and 4096;
  * ``float.hex`` of ``point_at`` at off-grid times, array and scalar, on
    closed-form loci of the seven curves at depths 0-4;
  * in-process CLI runs: ``analyze`` of the seven curves at thirteen cells
    (one, (-9,-1), deep enough that its labels count integral signs) on
    closed-form and numeric chains, of the cubic at (-2,-2) with grid_n
    256, 4095, 8191 and 16384 (4096 and 8192 rows are one and two whole
    blocks of the CSV writer), every figure, the default ``suite``
    and three configured ones (one with tolerances and grid_n), the
    ``suite --strict`` runs of suite-shared ops 0-29 for seed 13 (cubic,
    quintic, tanh, piecewise-linear, two-branch and degenerate curves,
    read from ``bench/workloads.py``), ``analyze``
    with format subsets from ``--formats`` or the config (and two bad
    ones), ``sweep`` over drive, descriptor, grid_n and numeric_chain axes
    (one trial ends in an error row), over the nine cells of depths 0-2 and
    over omega, three failing configs, and every config of
    ``tests/malformed_configs.py`` (one fault each, exit code 2);
  * a config file that is not UTF-8, ``analyze`` and ``suite`` with an
    output directory that is, or lies under, a file, and ``analyze``,
    ``figure fig2`` and ``suite`` with an output file name that a
    directory holds;
  * four argument lists argparse settles on its own (none, ``analyze``
    without its config, an unknown figure and ``--version``), first
    before every other CLI run and again after them all, with
    ``COLUMNS`` fixed so that usage wrapping does not follow the terminal;
  * then the grid contract: the error class and message for one odd,
    single-valued locus on three times off the grid (one extra sample, a
    smooth warp, a drift of 0.45e-9 per step), and ``float.hex`` of the
    ``valuedness`` gap and ``odd_symmetry`` violation of a caller-built
    copy, jet included, of the cubic's depth-2 locus on the default grid;
  * then ``float.hex`` of ``transform.jet_signals`` on one seeded batch per
    curve (t = 0, T/2, T and 29 random times, each at a random depth from
    0 to the curve's order and a random coordinate), and the error line of
    an ``analytic_locus`` on a grid over another drive's period;
  * last, the ``DomainError`` line of each time or abscissa that is not
    finite where the package once returned NaN or a value quietly:
    ``eval`` and ``derivative`` at NaN, and ``excite``, ``chain_ordinate``
    and ``point_at`` (on a closed-form and a finite-difference locus) at
    NaN, inf and -inf.

An error that escapes ``cli.run`` is fingerprinted as the run's exit line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import memelements  # noqa: E402
from memelements import (  # noqa: E402
    Excitation,
    LogisticCurve,
    PiecewiseLinearCurve,
    PolynomialCurve,
    TanhScaledCurve,
    TwoBranchCurve,
    cli,
)
from malformed_configs import MALFORMED  # noqa: E402
from workloads import ClassifyDistinct, SuiteShared  # noqa: E402

SEEDS = (7, 13, 90210)
OPS = 120
SUITE_SHARED_OPS = 30
CELLS = ((0, 0), (-1, 0), (0, -1), (-1, -1), (-2, -1), (-1, -2), (-2, -2),
         (-3, -2), (-2, -3), (-3, -3), (-4, -4), (-6, -6), (-9, -1))


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def emit(name: str, value: str) -> None:
    print(f"{name} {value}")


# a plane's max_pair_gap as a dataclass repr, a dict repr or JSON shows it
PAIR_GAP = re.compile(r"""(max_pair_gap['"]?(?:=|: ))([^,)}\s]+)""")


def emit_text(name: str, text: str) -> None:
    """The sha of text with every max_pair_gap masked, after the gaps in float.hex."""
    gaps = [float(value) for _, value in PAIR_GAP.findall(text)]
    if gaps:
        emit(f"{name}/max_pair_gap", " ".join(map(float.hex, gaps)))
    emit(name, sha(PAIR_GAP.sub(r"\1*", text)))


def outcome(fn, *args, **kwargs) -> str:
    """repr of the result, or the type and message of the error raised."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as err:  # a failure is a fingerprint too
        return f"{type(err).__name__}: {err}"


# curve specs in the CLI's config shape; the library curves are built from them
SPECS = {
    "cubic": {"family": "polynomial", "params": {"coefficients": [0, 1, 0, 1 / 3]},
              "max_derivative_order": 7},
    "quintic": {"family": "polynomial",
                "params": {"coefficients": [0, 0.8, 0.1, 0.3, 0, 0.05]},
                "max_derivative_order": 6},
    "tanh": {"family": "tanh_scaled", "params": {"a": 1.3, "b": 0.7},
             "max_derivative_order": 7},
    "logistic": {"family": "logistic", "range": [0.5, 2.0], "max_derivative_order": 6},
    "loop": {"family": "two_branch", "params": {
        "outgoing": {"family": "polynomial", "params": {"coefficients": [0, 1, 0, 1 / 3]}},
        "returning": {"family": "polynomial", "params": {"coefficients": [0, 4 / 3, 0.5]}}}},
    "kinked": {"family": "piecewise_linear",
               "params": {"knots": [[0, 0], [1, 0.5], [2, 2]]}},
    "flat": {"family": "piecewise_linear",
             "params": {"knots": [[0, 0], [0.1, 0], [2, 2]]}},
}
# ideal, but short of the second derivatives the depth-2 checks need
FIRST_ORDER_CUBIC = dict(SPECS["cubic"], max_derivative_order=1)
DRIVES = {"logistic": {"amplitude": 0.5, "offset": 1.0}}
OMEGAS = (0.3, 1.0, 2.7, 13.0)


def library() -> None:
    for seed in SEEDS:
        work = ClassifyDistinct(seed, Path(tempfile.mkdtemp()))
        for i in range(OPS):
            tag = f"classify-distinct/{seed}/{i}"
            try:
                rpt = work.run(work.op(i))
            except Exception as err:  # a failure is a fingerprint too
                emit(tag, sha(f"{type(err).__name__}: {err}"))
                continue
            emit_text(tag, repr(rpt))
            emit_text(f"{tag}/json", cli._dump_json(cli.report_to_dict(rpt)))
        shutil.rmtree(work.workdir)

    curves = {name: cli.curve_from_spec(spec) for name, spec in SPECS.items()}
    drives = {name: cli.excitation_from_spec(DRIVES.get(name)) for name in SPECS}
    cells = [(a, b) for a in range(0, -5, -1) for b in range(0, -5, -1)]
    diagonal = [(-k, -k) for k in range(7)]
    for name, curve in curves.items():
        for n in (256, 257, 4095, 4096):
            for cell in cells + diagonal[5:]:
                emit_text(f"classify/{name}/{cell[0]},{cell[1]}/n{n}",
                          outcome(memelements.classify, cell, curve, drives[name], grid_n=n))
    for name in ("cubic", "tanh"):
        for cell in diagonal:
            for n, numeric in ((65536, False), (4096, True), (16384, True)):
                emit_text(f"classify/{name}/{cell[0]},{cell[1]}/n{n}/numeric{int(numeric)}",
                          outcome(memelements.classify, cell, curves[name], grid_n=n,
                                  numeric_chain=numeric))

    stored_roots(curves, drives)
    off_grid_points(curves, drives)
    emit_text("theorem_suite/all", outcome(memelements.theorem_suite, list(curves.values())))
    emit_text("theorem_suite/drive", outcome(
        memelements.theorem_suite, [curves["cubic"], curves["tanh"]],
        Excitation(amplitude=0.7, omega=1.7)))
    emit_text("theorem_suite/first-order", outcome(
        memelements.theorem_suite, [cli.curve_from_spec(FIRST_ORDER_CUBIC)]))
    for name in ("cubic", "quintic", "tanh", "logistic"):
        lo, hi = curves[name].operating_range
        emit(f"mvt_point/{name}", sha(outcome(memelements.mvt_point, curves[name], lo, hi)))
    rng = random.Random(17)
    for name, curve in curves.items():
        for k, exc in enumerate(phase_drives(rng, drives[name], curve.operating_range)):
            emit(f"phase_shift/{name}/{k}", phase(curve, exc))


def phase(curve, exc) -> str:
    """float.hex of a phase report's peak times and shift, and its class."""
    try:
        rpt = memelements.loci.phase_shift(curve, exc)
    except Exception as err:  # a failure is a fingerprint too
        return f"{type(err).__name__}: {err}"
    times = (rpt.t_peak_ordinate, rpt.t_peak_abscissa, rpt.shift)
    return " ".join([*map(float.hex, times), rpt.classification.value])


def phase_drives(rng: random.Random, default: Excitation, operating_range) -> list:
    """The default drive, then 14 drives sweeping inside the operating range."""
    lo, hi = operating_range
    out = [default]
    for k in range(1, 15):
        amplitude = rng.uniform(0.05, 0.5) * (hi - lo)
        offset = rng.uniform(lo + amplitude, hi - amplitude)
        out.append(Excitation(amplitude=amplitude, omega=OMEGAS[k % 4], offset=offset))
    return out


def stored_roots(curves: dict, drives: dict) -> None:
    """Everything refine_chain stores but the pairs, whether a report shows it or not."""
    for kind in ("roots", "roots-numeric"):
        for name, curve in curves.items():
            for n in (256, 257, 4095, 4096):
                for depth in range(5):
                    tag = f"{kind}/{name}/depth{depth}/n{n}"
                    try:
                        g = memelements.grid(drives[name], n)
                        if kind == "roots":
                            chain = [memelements.analytic_locus(curve, drives[name], d, g)
                                     for d in range(depth + 1)]
                        else:
                            chain = [memelements.analytic_locus(curve, drives[name], 0, g)]
                            for _ in range(depth):
                                chain.append(memelements.numeric_transform(chain[-1]))
                        memelements.loci.refine_chain(chain)
                    except Exception as err:
                        emit(tag, f"{type(err).__name__}: {err}")
                        continue
                    for d, locus in enumerate(chain):
                        plane_roots(f"{tag}/plane{d}", memelements.loci._plane_roots(locus))


def plane_roots(tag: str, roots) -> None:
    """float.hex of a plane's roots, slope spans, peaks and landmark values."""
    for signal in ("abscissa", "du", "dw"):
        emit(f"{tag}/{signal}", " ".join(map(float.hex, getattr(roots, signal))) or "-")
    emit(f"{tag}/spans", " ".join(float.hex(v) for span in roots.spans for v in span))
    emit(f"{tag}/peak", " ".join(map(float.hex, roots.peak)))
    emit(f"{tag}/at", " ".join(float.hex(v) for t, values in roots.at.items()
                               for v in (t, *values)))


def off_grid_points(curves: dict, drives: dict) -> None:
    """Exact locus coordinates between the grid times, off each locus's jet."""
    phases = (0.0123, 0.25, 0.3141, 0.5, 0.777, 0.9999, 1.5)
    for name, curve in curves.items():
        exc = drives[name]
        t = [p * exc.period for p in phases]
        for depth in range(5):
            tag = f"point_at/{name}/depth{depth}"
            try:
                locus = memelements.analytic_locus(curve, exc, depth, memelements.grid(exc, 256))
                u, w = memelements.point_at(locus, t)
                scalar = memelements.point_at(locus, t[2])
            except Exception as err:
                emit(tag, f"{type(err).__name__}: {err}")
                continue
            emit(tag, " ".join(map(float.hex, [*u.tolist(), *w.tolist(), *scalar])))


def grid_contract() -> None:
    """Caller loci off the grid i*T/n are refused; one on it reads like the package's."""
    n = 1024
    s = np.linspace(0.0, 2.0 * np.pi, n + 1)
    steps = 1.0 + 0.45e-9 * np.sign(np.arange(n) - n / 4 + 0.5)
    for tag, t in (("one-extra-sample", np.sort(np.append(s, 1.0 + 2.0 ** -20))),
                   ("warped", s + 0.05 * np.sin(s)),
                   ("drifting", np.append(0.0, np.cumsum(steps)) / steps.sum() * (2.0 * np.pi))):
        emit(f"grid-contract/{tag}", outcome(memelements.ParametricLocus, t, np.sin(t),
                                             np.sin(t) + 0.1 * np.sin(3.0 * t), 1, ("u", "w")))
    cubic, exc = PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), Excitation()
    made = memelements.analytic_locus(cubic, exc, 2, memelements.grid(exc, 4096))
    copy = memelements.ParametricLocus(made.t_values, made.u_values, made.w_values, 2,
                                       ("u", "w"), jet=(cubic, exc))
    emit("grid-contract/caller-cubic-depth2", " ".join(map(float.hex, (
        memelements.valuedness(copy).max_gap, memelements.odd_symmetry(copy).max_violation))))


def jet_batches() -> None:
    """Mixed-depth jet_signals batches of the seven curves, and a grid of another period."""
    rng = np.random.default_rng(23)
    for name, spec in SPECS.items():
        curve, exc = cli.curve_from_spec(spec), cli.excitation_from_spec(DRIVES.get(name))
        t = np.append([0.0, 0.5 * exc.period, exc.period], rng.uniform(0.0, exc.period, 29))
        depth = rng.integers(0, curve.max_derivative_order + 1, t.size)
        ordinate = rng.random(t.size) < 0.5
        try:
            values = memelements.transform.jet_signals(curve, exc, t, depth, ordinate).tolist()
        except Exception as err:
            emit(f"jet_signals/{name}", f"{type(err).__name__}: {err}")
            continue
        emit(f"jet_signals/{name}", " ".join(map(float.hex, values)))
    emit("jet/another-period", outcome(
        memelements.analytic_locus, PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), Excitation(), 1,
        memelements.grid(Excitation(omega=2.0), 4096)))


def non_finite() -> None:
    """Times and abscissae that are not finite, each a DomainError naming the value."""
    cubic, exc = PolynomialCurve((0.0, 1.0, 0.0, 1.0 / 3.0)), Excitation()
    jet_locus = memelements.analytic_locus(cubic, exc, 1)
    numeric = memelements.numeric_transform(memelements.analytic_locus(cubic, exc, 0))
    for name, fn, values in (
            ("eval", cubic.eval, ("nan",)),
            ("derivative", lambda v: cubic.derivative([0.5, v], 1), ("nan",)),
            ("excite", lambda v: memelements.excite(exc, v), ("nan", "inf", "-inf")),
            ("chain_ordinate", lambda v: memelements.chain_ordinate(cubic, exc, v, 1),
             ("nan", "inf", "-inf")),
            ("point_at/jet", lambda v: memelements.point_at(jet_locus, v), ("nan", "inf", "-inf")),
            ("point_at/numeric", lambda v: memelements.point_at(numeric, [1.0, v]),
             ("nan", "inf", "-inf"))):
        for value in values:
            emit(f"non-finite/{name}/{value}", outcome(fn, float(value)))


def run_cli(name: str, argv: list[str], outdir: str | None) -> None:
    """Fingerprint one in-process run; outdir, unless None, goes in as --output-dir."""
    if outdir is not None:
        argv = argv + ["--output-dir", outdir]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # an error that escapes run is a fingerprint too
            code = f"raised {type(exc).__name__}: {exc}"
    emit(f"cli/{name}/exit", str(code))
    emit(f"cli/{name}/stdout", sha(out.getvalue()))
    emit(f"cli/{name}/stderr", sha(err.getvalue()))
    if outdir is not None and os.path.isdir(outdir):
        for path in sorted(Path(outdir).iterdir()):
            if path.is_file():
                emit_text(f"cli/{name}/{path.name}", path.read_text(encoding="utf-8"))
            else:
                emit(f"cli/{name}/{path.name}", "directory")
        shutil.rmtree(outdir)


def write(path: str, config: dict) -> str:
    Path(path).write_text(json.dumps(config), encoding="utf-8")
    return path


# argument lists argparse settles before any command runs
ARGV_ONLY = {"none": [], "analyze": ["analyze"], "figure-nofig": ["figure", "nofig"],
             "version": ["--version"]}


def commands() -> None:
    for tag, argv in ARGV_ONLY.items():
        run_cli(f"argv/{tag}/first", argv, None)
    for name, spec in SPECS.items():
        for alpha, beta in CELLS:
            for numeric in (False, True):
                cfg = {"descriptor": {"alpha": alpha, "beta": beta}, "curve": spec,
                       "excitation": DRIVES.get(name), "numeric_chain": numeric}
                tag = f"analyze/{name}/{alpha},{beta}/numeric{int(numeric)}"
                run_cli(tag, ["analyze", "--config", write("analyze.json", cfg)], "out")
    # 4096 and 8192 rows: one and two whole blocks of the CSV writer
    for n in (256, 4095, 8191, 16384):
        cfg = {"descriptor": {"alpha": -2, "beta": -2}, "curve": SPECS["cubic"], "grid_n": n}
        run_cli(f"analyze/cubic/-2,-2/n{n}", ["analyze", "--config", write("analyze.json", cfg)],
                "out")
    for fig in sorted(cli.FIGURES):
        run_cli(f"figure/{fig}", ["figure", fig], "out")
    run_cli("suite/default", ["suite", "--strict"], "out")
    cfg = {"curves": list(SPECS.values()), "excitation": {"amplitude": 0.9, "omega": 1.3}}
    run_cli("suite/config", ["suite", "--config", write("suite.json", cfg)], "out")
    cfg = {"curves": [SPECS["cubic"], SPECS["tanh"]], "grid_n": 1024,
           "tolerances": {"witness_tol": 1e-6, "slope_tol": 1e-7}}
    run_cli("suite/config-tolerances", ["suite", "--config", write("suite.json", cfg)], "out")
    cfg = {"curves": [FIRST_ORDER_CUBIC, SPECS["tanh"]]}
    run_cli("suite/first-order", ["suite", "--config", write("suite.json", cfg)], "out")
    suite_shared = SuiteShared(13, Path(tempfile.mkdtemp()))
    for i in range(SUITE_SHARED_OPS):
        run_cli(f"suite-shared/13/{i}", suite_shared.op(i).payload, "out")
    shutil.rmtree(suite_shared.workdir)
    formats()
    sweeps()
    failing = {
        "config-error": {"descriptor": {"alpha": 1, "beta": 0}, "curve": SPECS["cubic"]},
        "capability": {"descriptor": {"alpha": -6, "beta": -6},
                       "curve": {"family": "tanh_scaled"}},
        "range": {"descriptor": {"alpha": -1, "beta": -1}, "curve": SPECS["cubic"],
                  "excitation": {"amplitude": 2.0}},
    }
    for tag, cfg in failing.items():
        run_cli(f"analyze/{tag}", ["analyze", "--config", write("analyze.json", cfg)], "out")
    for tag, command, cfg, _ in MALFORMED:
        run_cli(f"malformed/{tag}", [command, "--config", write("malformed.json", cfg)], "out")
    unusable_paths()
    for tag, argv in ARGV_ONLY.items():
        run_cli(f"argv/{tag}/last", argv, None)


def unusable_paths() -> None:
    """A config that is not UTF-8, output directories that cannot be made and
    output files that cannot be written."""
    cfg = {"descriptor": {"alpha": -1, "beta": -1}, "curve": SPECS["cubic"]}
    Path("utf16.json").write_bytes(b"\xff\xfe" + json.dumps(cfg).encode("utf-16-le"))
    run_cli("analyze/non-utf8", ["analyze", "--config", "utf16.json"], "out")
    Path("blocker").write_text("a file\n", encoding="utf-8")
    for command, argv in (("analyze", ["analyze", "--config", write("analyze.json", cfg)]),
                          ("suite", ["suite"])):
        run_cli(f"{command}/output-dir-file", argv, "blocker")
        run_cli(f"{command}/output-dir-under-file", argv, "blocker/out")
    os.remove("blocker")
    # a directory holding the name of the last file written, or of the only one
    for command, argv, name in (
            ("analyze", ["analyze", "--config", write("analyze.json", cfg)], "report.json"),
            ("figure", ["figure", "fig2"], "fig2.svg"),
            ("suite", ["suite"], "suite_report.json")):
        os.makedirs(os.path.join("out", name))
        run_cli(f"{command}/unwritable-file", argv, "out")


def formats() -> None:
    """analyze with a subset of formats, from the flag or from the config."""
    base = {"descriptor": {"alpha": -2, "beta": -2}, "curve": SPECS["tanh"]}
    for tag, flag, cfg_formats in (("json", "json", None), ("csv,svg", "csv,svg", None),
                                   ("config", None, ["svg", "json"]),
                                   ("flag-over-config", "csv", ["json"]),
                                   ("bad", "json,pdf", None), ("bad-config", None, "tiff")):
        cfg = dict(base, formats=cfg_formats) if cfg_formats is not None else base
        argv = ["analyze", "--config", write("analyze.json", cfg)]
        run_cli(f"analyze/formats/{tag}", argv + (["--formats", flag] if flag else []), "out")


def sweeps() -> None:
    """sweep over a drive axis that ends in an error row, grid_n, numeric_chain,
    the descriptor cells of depths 0-2 and omega."""
    cubic = {"descriptor": {"alpha": -2, "beta": -2}, "curve": SPECS["cubic"],
             "excitation": {"amplitude": 1.0, "omega": 1.0}}
    for tag, axes in (
        ("2x2", [{"target": "excitation.amplitude", "values": [0.5, 1.0]},
                 {"target": "descriptor.alpha", "values": [-1, -3]}]),
        ("amplitude-error", [{"target": "excitation.amplitude", "values": [0.5, 2.0]},
                             {"target": "grid_n", "values": [256, 2048]}]),
        ("numeric", [{"target": "numeric_chain", "values": [False, True]},
                     {"target": "descriptor.beta", "values": [-1, -2]}]),
        ("cells", [{"target": "descriptor.alpha", "values": [0, -1, -2]},
                   {"target": "descriptor.beta", "values": [0, -1, -2]}]),
        ("omega", [{"target": "excitation.omega", "values": [0.3, 1.0, 13.0, 100.0]},
                   {"target": "descriptor.alpha", "values": [-2, -3]}]),
    ):
        cfg = dict(cubic, axes=axes)
        run_cli(f"sweep/{tag}", ["sweep", "--config", write("sweep.json", cfg)], "out")


def main() -> None:
    library()
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)  # relative paths keep stdout free of the temporary name
        os.environ["COLUMNS"] = "80"  # argparse wraps usage text at this width
        try:
            commands()
        finally:
            os.chdir(here)
    grid_contract()
    jet_batches()
    non_finite()


if __name__ == "__main__":
    main()
