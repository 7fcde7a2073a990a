"""Fingerprints of memelements' deterministic outputs, one line each.

Every line is ``<name> <value>``: the sha256 of a library report's repr,
of one file a CLI run wrote, or of its stdout or stderr, or the exit
code of a CLI run.  A change that must leave results untouched is
checked by running this script on two checkouts and diffing the output:

    python tools/fingerprint.py > after.txt
    (cd ../parent && python tools/fingerprint.py) > before.txt
    diff before.txt after.txt

The script imports the package from the ``src/`` next to it, the
classify-distinct inputs from ``bench/workloads.py`` and the malformed
configs from ``tests/malformed_configs.py``, so each checkout
fingerprints its own code; to fingerprint a commit older than the
script, copy the script into that checkout's ``tools/`` (and the config
table into its ``tests/``).  It takes about a minute on two cores.

Covered:
  * ``classify`` reports of classify-distinct ops 0-119 for seeds 7, 13
    and 90210, and the report.json text the CLI would write for each;
  * ``classify`` reports of seven curves over cells (0,0)..(-4,-4) at
    n = 256, 257, 4095 and 4096 on closed-form chains (the odd grids pair
    no odd-depth sample with a grid time), the diagonal down to (-6,-6),
    and cubic and tanh diagonals at n = 65536 and on numeric chains;
  * ``theorem_suite`` (one run over an ideal cubic that has only first
    derivatives) and ``mvt_point``;
  * ``phase_shift`` of the seven curves, each under its default drive and
    14 seeded drives of varied amplitude, offset and omega in
    {0.3, 1, 2.7, 13};
  * ``float.hex`` of every root ``loci.refine_chain`` stores (each plane's
    abscissa zeros and transversal du/dt and dw/dt zeros, including the
    ones no report shows) on closed-form chains of the seven curves to
    depths 0-4 at n = 256 and 4096;
  * ``float.hex`` of ``point_at`` at off-grid times, array and scalar, on
    closed-form loci of the seven curves at depths 0-4;
  * in-process CLI runs: ``analyze`` of the seven curves at twelve cells
    on closed-form and numeric chains, every figure, the default ``suite``
    and three configured ones (one with tolerances and grid_n), ``analyze``
    with format subsets from ``--formats`` or the config (and two bad
    ones), ``sweep`` over drive, descriptor, grid_n and numeric_chain axes
    (one trial ends in an error row), over the nine cells of depths 0-2 and
    over omega, three failing configs, and every config of
    ``tests/malformed_configs.py`` (one fault each, exit code 2);
  * a config file that is not UTF-8, and ``analyze`` and ``suite`` with an
    output directory that is, or lies under, a file;
  * four argument lists argparse settles on its own (none, ``analyze``
    without its config, an unknown figure and ``--version``), first
    before every other CLI run and again after them all, with
    ``COLUMNS`` fixed so that usage wrapping does not follow the terminal.

An error that escapes ``cli.run`` is fingerprinted as the run's exit line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

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
from workloads import ClassifyDistinct  # noqa: E402

SEEDS = (7, 13, 90210)
OPS = 120
CELLS = ((0, 0), (-1, 0), (0, -1), (-1, -1), (-2, -1), (-1, -2), (-2, -2),
         (-3, -2), (-2, -3), (-3, -3), (-4, -4), (-6, -6))


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def emit(name: str, value: str) -> None:
    print(f"{name} {value}")


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
            emit(tag, sha(repr(rpt)))
            emit(f"{tag}/json", sha(cli._dump_json(cli.report_to_dict(rpt))))
        shutil.rmtree(work.workdir)

    curves = {name: cli.curve_from_spec(spec) for name, spec in SPECS.items()}
    drives = {name: cli.excitation_from_spec(DRIVES.get(name)) for name in SPECS}
    cells = [(a, b) for a in range(0, -5, -1) for b in range(0, -5, -1)]
    diagonal = [(-k, -k) for k in range(7)]
    for name, curve in curves.items():
        for n in (256, 257, 4095, 4096):
            for cell in cells + diagonal[5:]:
                emit(f"classify/{name}/{cell[0]},{cell[1]}/n{n}",
                     sha(outcome(memelements.classify, cell, curve, drives[name], grid_n=n)))
    for name in ("cubic", "tanh"):
        for cell in diagonal:
            for n, numeric in ((65536, False), (4096, True), (16384, True)):
                emit(f"classify/{name}/{cell[0]},{cell[1]}/n{n}/numeric{int(numeric)}",
                     sha(outcome(memelements.classify, cell, curves[name], grid_n=n,
                                 numeric_chain=numeric)))

    stored_roots(curves, drives)
    off_grid_points(curves, drives)
    emit("theorem_suite/all", sha(outcome(memelements.theorem_suite, list(curves.values()))))
    emit("theorem_suite/drive", sha(outcome(
        memelements.theorem_suite, [curves["cubic"], curves["tanh"]],
        Excitation(amplitude=0.7, omega=1.7))))
    emit("theorem_suite/first-order", sha(outcome(
        memelements.theorem_suite, [cli.curve_from_spec(FIRST_ORDER_CUBIC)])))
    for name in ("cubic", "quintic", "tanh", "logistic"):
        lo, hi = curves[name].operating_range
        emit(f"mvt_point/{name}", sha(outcome(memelements.mvt_point, curves[name], lo, hi)))
    rng = random.Random(17)
    for name, curve in curves.items():
        for k, exc in enumerate(phase_drives(rng, drives[name], curve.operating_range)):
            emit(f"phase_shift/{name}/{k}",
                 sha(outcome(memelements.loci.phase_shift, curve, exc)))


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
    """Every root refine_chain stores, whether a report shows it or not."""
    for name, curve in curves.items():
        for n in (256, 4096):
            for depth in range(5):
                tag = f"roots/{name}/depth{depth}/n{n}"
                try:
                    g = memelements.grid(drives[name], n)
                    chain = [memelements.analytic_locus(curve, drives[name], d, g)
                             for d in range(depth + 1)]
                    memelements.loci.refine_chain(chain)
                except Exception as err:
                    emit(tag, f"{type(err).__name__}: {err}")
                    continue
                for d, locus in enumerate(chain):
                    roots = memelements.loci._plane_roots(locus)
                    for signal in ("abscissa", "du", "dw"):
                        values = getattr(roots, signal)
                        emit(f"{tag}/plane{d}/{signal}", " ".join(map(float.hex, values)) or "-")


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
            emit(f"cli/{name}/{path.name}", sha(path.read_bytes()))
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
    for n in (256, 16384):
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
    """A config that is not UTF-8, and output directories that cannot be made."""
    cfg = {"descriptor": {"alpha": -1, "beta": -1}, "curve": SPECS["cubic"]}
    Path("utf16.json").write_bytes(b"\xff\xfe" + json.dumps(cfg).encode("utf-16-le"))
    run_cli("analyze/non-utf8", ["analyze", "--config", "utf16.json"], "out")
    Path("blocker").write_text("a file\n", encoding="utf-8")
    for command, argv in (("analyze", ["analyze", "--config", write("analyze.json", cfg)]),
                          ("suite", ["suite"])):
        run_cli(f"{command}/output-dir-file", argv, "blocker")
        run_cli(f"{command}/output-dir-under-file", argv, "blocker/out")
    os.remove("blocker")


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


if __name__ == "__main__":
    main()
