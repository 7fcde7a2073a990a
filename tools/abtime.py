"""Paired timing of benchmark ops on two source trees, in one process.

    python tools/abtime.py BASE_SRC [CHANGE_SRC] [--seed 13] [--ops 240] [--best-of 6]
    python tools/abtime.py BASE_SRC [CHANGE_SRC] --csv [--seed 13] [--ops 240] [--best-of 6]
    python tools/abtime.py BASE_SRC [CHANGE_SRC] --suite [--seed 13] [--ops 240] [--best-of 6]
    python tools/abtime.py BASE_SRC [CHANGE_SRC] --emit [--seed 13] [--ops 240] [--best-of 6]

Any of these takes ``--peak`` and ``--verdicts`` as well.

BASE_SRC and CHANGE_SRC are ``src/`` directories, each holding a
``memelements`` package; CHANGE_SRC defaults to the ``src/`` next to this
script.  The change is loaded as ``memelements`` and the base, through
importlib, as ``memelements_base``, so both live in this process.  The
ops are read from ``bench/workloads.py`` in this checkout, which this
tool does not change, and each op is timed best-of-k on each side; the
side that runs first alternates op by op, so drift in the host's speed
falls on both sides alike.

By default the ops are the first ``--ops`` of classify-distinct.  Each
is rebuilt in both packages from its spec, with ``cli.curve_from_spec``
and ``Excitation``, and classified on each side.  Every report's JSON
(verdict, planes, witnesses) must be equal on both sides, else the run
stops naming the op.  Printed: each side's mean best-of-k op time, its
``loci.bisect`` brackets per classify call (the roots it bisects), its
``loci.jet_signals`` calls per classify call (the hook calls of the
root bisection; a tree older than the one-pass refinement also reads
its landmark values through one) and hook points per classify call (the
summed size of those calls' times, so two trees that must evaluate the
same midpoints show the same count), its ``transform._jet`` calls per
classify call (the grid jet, each hook call's ordinate jet, the landmark
values and any ``point_at``), and the ratio of the times, change over
base, all from the same runs.

With ``--csv`` the ops are the ``analyze`` ops among the first ``--ops``
of emit-fine.  Each op's loci are built once, by the change, and
``transform.locus_to_csv`` of each side makes the bytes of the op's
``depth{k}.csv`` files from those same loci: ``str.encode()`` of the text
a tree older than the byte-block writer returns, ``b"".join`` of the
blocks (a list, or an iterator that formats each block as it is
consumed) a newer one returns, so trees on either side of those API
changes compare.  Only those calls and the joins are timed.  The bytes
must be equal on both sides, else the run stops naming the op.  Printed:
each side's mean best-of-k time per op, and the ratio, change over base.

With ``--suite`` the ops are the first ``--ops`` of suite-shared: each
side runs the op's ``suite --strict`` command through its own
``cli.run``, stdout and stderr discarded, into an output directory of
its own.  The whole command is timed.  The exit codes and the
``suite_report.json`` bytes must be equal on both sides, else the run
stops naming the op.  Printed: each side's mean best-of-k time per op,
its ``loci.bisect`` brackets per op (the roots one suite refines), and
the ratio, change over base.

With ``--emit`` the ops are the first ``--ops`` of emit-fine, its
``analyze`` and ``figure`` commands, each run as ``--suite`` runs its
ops.  The exit codes and the bytes of every file written must be equal
on both sides, else the run stops naming the op.  Printed: each side's
mean and 90th percentile of the best-of-k op times, and the ratios,
change over base.

With ``--verdicts``, a change that moves the last bits of its results is
timed: the sides' outputs are not compared byte for byte.  Each op's
outcome is compared instead (a classify report's verdict, degeneration,
internal source and witness count; the names of the files a CLI command
writes and, in each ``report.json``, those four, and in a
``suite_report.json`` every check's status), and the workload's own
``check`` runs on the change's result (a CLI command of the change writes
into the workload's output directory for it), else the run stops naming
the op.

With ``--peak``, each op is run once more on each side, untimed, under
``tracemalloc``, and each side's line also prints the traced peak per op
(the most memory the op's own allocations held at once), its mean and
its largest over the ops of each kind: ``classify``, ``csv`` (the op's
``locus_to_csv`` calls), ``suite``, or emit-fine's ``analyze`` and each
figure.  The outputs of that run are compared too.  So a change to the
memory an op holds is A/B'd in one process, next to the times.

The ratio is an in-process diagnostic (for instance, the share of one
change in a larger one); the benchmark's end-to-end metrics come from
``bench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import importlib.util
import json
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load(name: str, src: Path):
    """The memelements package under src, imported as the top-level package name."""
    init = src / "memelements" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    if spec is None or not init.is_file():
        raise SystemExit(f"no memelements package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")  # a submodule the package does not import
    return module


def rebuild(pkg, expect: dict):
    """The op's (cell, curve, drive) in package pkg, from its spec."""
    drive = expect["drive"]
    exc = pkg.Excitation(amplitude=drive["amplitude"], omega=drive["omega"],
                         offset=drive.get("offset"))
    return tuple(expect["cell"]), pkg.cli.curve_from_spec(expect["spec"]), exc


def count_calls(name: str, *modules) -> list[int]:
    """Wrap the function name of modules[0], wherever modules hold it, to count its calls.

    The list holds the count of calls and the summed size of each call's
    third argument (the times, for jet_signals and _jet; the brackets' right
    ends, one per bracket, for bisect).
    """
    fn, calls = getattr(modules[0], name), [0, 0]

    def counted(*args, **kwargs):
        calls[0] += 1
        calls[1] += np.size(args[2])
        return fn(*args, **kwargs)

    for module in modules:
        setattr(module, name, counted)
    return calls


def best_of(fn, args, k: int) -> tuple[float, object]:
    """Least wall time of k calls of fn on args, and the last result."""
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def traced_peak(fn, args):
    """One call of fn on args under tracemalloc: the peak bytes it traced, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def peak_text(peaks: dict) -> str:
    """'  kind peak mean/max MB' per op kind, or nothing when no peak was traced."""
    return "".join(f"  {kind} peak {np.mean(v) / 1e6:.3f}/{max(v) / 1e6:.3f} MB mean/max"
                   for kind, v in sorted(peaks.items()))


def report_outcome(rpt) -> tuple:
    """What --verdicts compares of a classify report."""
    return (rpt.verdict.value, rpt.degeneration.value, rpt.internal_source.value,
            len(rpt.witnesses))


def files_outcome(files: dict) -> dict:
    """What --verdicts compares of the files a CLI command wrote, by name: a
    report.json's report_outcome, a suite_report.json's check statuses, else None."""
    out = {}
    for name, data in files.items():
        doc = json.loads(data) if name in ("report.json", "suite_report.json") else None
        if name == "report.json":
            out[name] = (doc["verdict"], doc["degeneration"], doc["internal_source"],
                         len(doc["witnesses"]))
        elif name == "suite_report.json":
            out[name] = [sorted((check, v["status"]) for check, v in inst["checks"].items())
                         for inst in doc["instances"]]
        else:
            out[name] = None
    return out


def compared(args, what: str) -> str:
    """What the printed header says was compared on both sides: what, or the outcomes."""
    return "outcomes equal, change's checks pass" if args.verdicts else f"{what} equal"


def classify_ab(sides, args, work: Path) -> None:
    """Time classify on classify-distinct's ops in both trees, and print the counts."""
    from workloads import ClassifyDistinct  # imports the change as memelements

    total, peaks = [0.0, 0.0], [{}, {}]
    signals = [count_calls("jet_signals", pkg.loci) for pkg in sides]
    brackets = [count_calls("bisect", pkg.loci) for pkg in sides]
    # loci imports _jet by name, for its own evaluations
    jets = [count_calls("_jet", pkg.transform, pkg.loci) for pkg in sides]
    ops = ClassifyDistinct(args.seed, work)
    for i in range(args.ops):
        op = ops.make(i)
        order = (0, 1) if i % 2 == 0 else (1, 0)
        reports = [None, None]
        gc.collect()
        for s in order:
            pkg = sides[s]

            def summary(rpt, pkg=pkg):
                return (report_outcome(rpt) if args.verdicts
                        else json.dumps(pkg.cli.report_to_dict(rpt), sort_keys=True))

            dt, rpt = best_of(pkg.classify, rebuild(pkg, op.expect), args.best_of)
            total[s] += dt
            reports[s] = summary(rpt)
            fault = ops.check(op, rpt) if args.verdicts and s == 1 else None
            if fault:
                raise SystemExit(f"op {i} (seed {args.seed}): the change's check: {fault}")
            if args.peak:
                peak, rpt = traced_peak(pkg.classify, rebuild(pkg, op.expect))
                peaks[s].setdefault("classify", []).append(peak)
                if summary(rpt) != reports[s]:
                    raise SystemExit(f"op {i} (seed {args.seed}): the traced report differs")
        if reports[0] != reports[1]:
            raise SystemExit(f"op {i} (seed {args.seed}): the reports differ"
                             + (f": {reports}" if args.verdicts else ""))
    base_ms, change_ms = (1e3 * s / args.ops for s in total)
    calls = args.ops * (args.best_of + args.peak)
    print(f"classify-distinct seed {args.seed}, {args.ops} ops, best of {args.best_of}: "
          + compared(args, "reports"))
    for label, ms, (n_signals, n_points), (_, n_brackets), (n_jets, _), peak in zip(
            ("base  ", "change"), (base_ms, change_ms), signals, brackets, jets, peaks):
        print(f"{label} {ms:.4f} ms/op  {n_brackets / calls:.3f} loci.bisect brackets/op  "
              f"{n_signals / calls:.3f} jet_signals calls/op  "
              f"{n_points / calls:.1f} hook points/op  {n_jets / calls:.3f} _jet calls/op"
              f"{peak_text(peak)}")
    print(f"ratio  {change_ms / base_ms:.4f}")


def csv_bytes(csv) -> bytes:
    """The file's bytes from what locus_to_csv returned: text, or byte blocks."""
    return csv.encode() if isinstance(csv, str) else b"".join(csv)


def csv_ab(sides, args, work: Path) -> None:
    """Time locus_to_csv on the loci of emit-fine's analyze ops in both trees."""
    from workloads import EmitFine  # imports the change as memelements

    change = sides[1]
    total, count, peaks = [0.0, 0.0], 0, [{}, {}]
    ops = EmitFine(args.seed, work)
    for i in range(args.ops):
        op = ops.make(i)
        if op.kind != "analyze":
            continue
        loci = change.classify(*change.cli._classify_args(op.expect)).loci
        order = (0, 1) if count % 2 == 0 else (1, 0)
        files = [None, None]
        gc.collect()
        for s in order:
            def write(pkg):
                return [csv_bytes(pkg.transform.locus_to_csv(lo)) for lo in loci]

            dt, files[s] = best_of(write, (sides[s],), args.best_of)
            total[s] += dt
            if args.peak:
                peak, traced = traced_peak(write, (sides[s],))
                peaks[s].setdefault("csv", []).append(peak)
                if traced != files[s]:
                    raise SystemExit(f"op {i} (seed {args.seed}): the traced CSV bytes differ")
        if files[0] != files[1]:
            raise SystemExit(f"op {i} (seed {args.seed}): the CSV bytes differ")
        count += 1
    if not count:
        raise SystemExit(f"no analyze op among the first {args.ops} emit-fine ops")
    base_ms, change_ms = (1e3 * s / count for s in total)
    print(f"emit-fine seed {args.seed}, {count} analyze ops of {args.ops}, "
          f"best of {args.best_of}: CSV bytes equal")
    for label, ms, peak in zip(("base  ", "change"), (base_ms, change_ms), peaks):
        print(f"{label} {ms:.4f} ms/op{peak_text(peak)}")
    print(f"ratio  {change_ms / base_ms:.4f}")


def cli_side(pkg, command: list[str], outdir: Path, k: int, peaks: dict | None = None,
             kind: str = "", check=None):
    """Least wall time of k runs of command by pkg's cli.run into outdir, with
    stdout and stderr discarded; its exit code; and the bytes of every file
    it wrote, by name.  check, when given, is called on the exit code before
    outdir is read, and what it returns is a fault that stops the run.
    outdir is removed afterwards.  With peaks, the
    command is run once more, untimed, into an empty outdir under
    tracemalloc, its peak appended to peaks[kind], and its exit code and
    files must be the timed runs'."""
    sink = io.StringIO()
    argv = command + ["--output-dir", str(outdir)]

    def files() -> dict:
        out = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())} if outdir.is_dir() else {}
        shutil.rmtree(outdir, ignore_errors=True)
        return out

    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        dt, code = best_of(pkg.cli.run, (argv,), k)
    fault = check(code) if check is not None else None
    if fault:
        raise SystemExit(f"{' '.join(command)}: the change's check: {fault}")
    written = files()
    if peaks is not None:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            peak, traced = traced_peak(pkg.cli.run, (argv,))
        peaks.setdefault(kind, []).append(peak)
        if (traced, files()) != (code, written):
            raise SystemExit(f"{' '.join(command)}: the traced run's exit code or files differ")
    return dt, code, written


def side_dir(args, ops, op, s: int, work: Path) -> Path:
    """Side s's output directory for a CLI op: the workload's own for the change
    under --verdicts, where its check reads the files, else one per side."""
    return ops.outdir(op) if args.verdicts and s == 1 else work / f"side{s}"


def side_check(args, ops, op, s: int):
    """cli_side's check for side s: the workload's, on the change under --verdicts."""
    return (lambda code: ops.check(op, code)) if args.verdicts and s == 1 else None


def suite_ab(sides, args, work: Path) -> None:
    """Time suite-shared's suite --strict ops in both trees, and print the brackets."""
    from workloads import SuiteShared  # imports the change as memelements

    total, brackets, peaks = [0.0, 0.0], [[0], [0]], [{}, {}]
    for pkg, count in zip(sides, brackets):
        bisect = pkg.loci.bisect

        def counted(fn, a, *rest, bisect=bisect, count=count, **kwargs):
            count[0] += np.size(a)
            return bisect(fn, a, *rest, **kwargs)

        pkg.loci.bisect = counted
    ops = SuiteShared(args.seed, work)
    for i in range(args.ops):
        op = ops.make(i)
        command = op.payload
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = [None, None]
        gc.collect()
        for s in order:
            dt, code, files = cli_side(sides[s], command, side_dir(args, ops, op, s, work),
                                       args.best_of, peaks[s] if args.peak else None, "suite",
                                       side_check(args, ops, op, s))
            total[s] += dt
            results[s] = (code, files_outcome(files) if args.verdicts
                          else files.get("suite_report.json"))
        if results[0] != results[1]:
            raise SystemExit(f"op {i} (seed {args.seed}): the exit codes or the "
                             "suite_report.json " + ("outcomes" if args.verdicts else "bytes")
                             + " differ")
    base_ms, change_ms = (1e3 * s / args.ops for s in total)
    calls = args.ops * (args.best_of + args.peak)
    print(f"suite-shared seed {args.seed}, {args.ops} ops, best of {args.best_of}: "
          + compared(args, "exit codes and suite_report.json bytes"))
    for label, ms, (count,), peak in zip(("base  ", "change"), (base_ms, change_ms), brackets,
                                         peaks):
        print(f"{label} {ms:.4f} ms/op  {count / calls:.2f} loci.bisect brackets/op"
              f"{peak_text(peak)}")
    print(f"ratio  {change_ms / base_ms:.4f}")


def emit_ab(sides, args, work: Path) -> None:
    """Time emit-fine's analyze and figure ops in both trees, comparing every file written."""
    from workloads import EmitFine  # imports the change as memelements

    times, peaks = [[], []], [{}, {}]
    ops = EmitFine(args.seed, work)
    for i in range(args.ops):
        op = ops.make(i)
        command = op.payload
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = [None, None]
        gc.collect()
        for s in order:
            dt, code, files = cli_side(sides[s], command, side_dir(args, ops, op, s, work),
                                       args.best_of, peaks[s] if args.peak else None, op.kind,
                                       side_check(args, ops, op, s))
            times[s].append(1e3 * dt)
            results[s] = (code, files_outcome(files) if args.verdicts else files)
        if results[0] != results[1]:
            raise SystemExit(f"op {i} (seed {args.seed}): the exit codes or the written "
                             + ("outcomes" if args.verdicts else "bytes") + " differ")
    means = [np.mean(t) for t in times]
    p90s = [np.percentile(t, 90) for t in times]
    print(f"emit-fine seed {args.seed}, {args.ops} ops, best of {args.best_of}: "
          + compared(args, "exit codes and written bytes"))
    for label, mean, p90, peak in zip(("base  ", "change"), means, p90s, peaks):
        print(f"{label} {mean:.4f} ms/op mean  {p90:.4f} ms/op p90{peak_text(peak)}")
    print(f"ratio  {means[1] / means[0]:.4f} mean  {p90s[1] / p90s[0]:.4f} p90")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="src/ directory of the base tree")
    ap.add_argument("change", type=Path, nargs="?", default=ROOT / "src",
                    help="src/ directory of the changed tree (default: this checkout's)")
    ap.add_argument("--csv", action="store_true",
                    help="time locus_to_csv on emit-fine's analyze ops, not classify, "
                         "and compare the files' bytes (encoded text or joined blocks)")
    ap.add_argument("--suite", action="store_true",
                    help="time suite-shared's suite --strict ops, not classify, and compare "
                         "their exit codes and suite_report.json bytes")
    ap.add_argument("--emit", action="store_true",
                    help="time emit-fine's analyze and figure ops, not classify, and compare "
                         "their exit codes and the bytes of every file they write")
    ap.add_argument("--peak", action="store_true",
                    help="also run each op once more per side, untimed, under tracemalloc, and "
                         "print its traced peak (mean and max per op kind)")
    ap.add_argument("--verdicts", action="store_true",
                    help="compare each op's outcome (verdict, degeneration, internal source, "
                         "witness count; a suite's check statuses), not its bytes, and run the "
                         "workload's check on the change's result")
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--ops", type=int, default=240)
    ap.add_argument("--best-of", type=int, default=6)
    args = ap.parse_args(argv)

    change = load("memelements", args.change.resolve())
    base = load("memelements_base", args.base.resolve())
    sys.path.insert(0, str(ROOT / "bench"))
    with tempfile.TemporaryDirectory() as work:
        run = (suite_ab if args.suite else csv_ab if args.csv else emit_ab if args.emit
               else classify_ab)
        run((base, change), args, Path(work))


if __name__ == "__main__":
    main()
