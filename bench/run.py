"""memelements benchmark: seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload classify-distinct --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                      # every workload, seed 1, untraced

Each workload runs in its own child process (``bench/child.py``), one at
a time; this process and every child run one thread.  A child is a
closed loop: one caller sends the next op only when the previous one has
finished.  The loop runs for ``--seconds`` of op time and at least
``--min-ops`` ops, so that ``op_p90_ms`` has ten ops beyond it.  Every
op's output is checked between ops, off the clock.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
of three set-ups (two set-up-only children and the measuring one).
``--trace 1`` prints the per-layer metrics instead: a child runs the
loop for half the time untraced, then the same ops again with the
outside-in tracer of ``bench/tracer.py`` installed, and a
``python -X importtime`` child gives the import breakdown behind
``setup_s``.  The traced/untraced time gap is printed as the tracing
overhead.

Timings are put on one scale.  On a shared machine the speed of a core
drifts by a third within minutes, which swamps the differences the
benchmark exists to show.  So between ops the child times a fixed speed
probe that never touches the package, and each op's time is multiplied
by ``PROBE_REF_S`` over the median of the probe runs nearest to it; set-up
times likewise.  The printed values are therefore times on a machine
whose probe takes ``PROBE_REF_S``; the raw times are printed beside them
and kept in the result file.

Every result is also written, with the run environment, to
``bench/_results/``; traced runs also leave their spans there.  Later
claims are confirmed on ``HELDOUT_SEED``, which tuning never used.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "_results"
WORK = BENCH / "_work"

WORKLOADS = ("classify-distinct", "suite-shared", "emit-fine")
HELDOUT_SEED = 90210
SETUP_RUNS = 3
# probe time that timings are scaled to: about its median on the 2-core
# Xeon the bounds were set on
PROBE_REF_S = 5.0e-3
# an op is scaled by the median of the probe runs this many places either
# side of it, which follows drift in machine speed within a run
PROBE_WINDOW = 2
IMPORT_RUNS = 3
MIN_OPS = 100
# the untraced half of a traced run needs only enough ops to compare against
TRACE_MIN_OPS = 10
# a single-workload run must end within this many seconds
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed with its counts but kept out of the result line: it is 0 on a
# passing run, and the line's ``failed``/``attempted`` carry it already
FAILED_RATIO = ("ops_failed_ratio", "ratio")

# traced functions, and whether every workload calls them; the self time
# of one that some workload never calls is printed but kept out of the
# result line, because it reads exactly 0 there on every run
FUNCTIONS = (
    ("constitutive.derivative", True),
    ("constitutive.check_ideality", True),
    ("excitation.excite", True),
    ("transform.analytic_locus", True),
    ("transform.numeric_transform", False),
    ("transform.chain_ordinate", True),
    ("transform.locus_to_csv", False),
    ("loci.origin_crossing", True),
    ("loci.valuedness", True),
    ("loci.odd_symmetry", True),
    ("loci.zero_tangent_points", True),
    ("loci.vertical_tangent_points", True),
    ("loci.negative_slope_arcs", True),
    ("loci.phase_shift", False),
    ("taxonomy.classify", True),
    ("taxonomy.theorem_suite", False),
    ("cli.report_to_dict", False),
    ("cli.suite_to_dict", False),
    ("cli.render_svg", False),
)
COUNTERS = (
    ("constitutive.derivative.scalar_calls", "calls/op"),
    ("transform.chain_ordinate.scalar_calls", "calls/op"),
    ("loci.roots_bracketed", "roots/op"),
    ("loci.hook_evals_per_root", "evals/root"),
    ("taxonomy.plane_analyses", "planes/op"),
    ("cli.bytes_written", "B/op"),
)
IMPORTED = (
    "memelements",
    "memelements.errors",
    "memelements.tolerances",
    "memelements.constitutive",
    "memelements.excitation",
    "memelements.transform",
    "memelements.loci",
    "memelements.taxonomy",
    "memelements.cli",
    "scipy.optimize",
)
OVERHEAD = ("trace.overhead_pct", "%")


def per_layer_metrics() -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(metrics in the result line, metrics only printed), as (name, unit)."""
    line: list[tuple[str, str]] = []
    printed: list[tuple[str, str]] = []
    for name, everywhere in FUNCTIONS:
        line.append((f"{name}.calls", "calls/op"))
        (line if everywhere else printed).append((f"{name}.self_ms", "ms/op"))
    line += list(COUNTERS)
    line += [(f"import.{module}_ms", "ms") for module in IMPORTED]
    line.append(OVERHEAD)
    return line, printed


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out: dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            tag = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{tag}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - _now()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"child timed out: {' '.join(cmd[:4])}") from err
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
    return proc


def run_child(workload: str, seed: int, mode: str, seconds: float, min_ops: int,
              deadline: float, spans: Path | None = None) -> dict:
    workdir = WORK / f"{workload}-{os.getpid()}"
    out = WORK / f"{workload}-{os.getpid()}-{mode}.json"
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--min-ops", str(min_ops), "--deadline", repr(deadline),
           "--workdir", str(workdir), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        _spawn(cmd + ["--spawned-at", repr(_now())], deadline)
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        out.unlink(missing_ok=True)


def import_times(deadline: float) -> dict[str, float]:
    """Median cumulative import time per module, from ``-X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORTED}
    cmd = [sys.executable, "-X", "importtime", "-c", "import memelements, memelements.cli"]
    for _ in range(IMPORT_RUNS):
        proc = _spawn(cmd, deadline)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = (part.strip() for part in line[12:].split("|"))
            if module in samples and cumulative.isdigit():
                samples[module].append(int(cumulative) / 1000.0)
    missing = [m for m, v in samples.items() if len(v) != IMPORT_RUNS]
    if missing:
        raise BenchError(f"no import time for {', '.join(missing)}")
    return {f"import.{m}_ms": statistics.median(v) for m, v in samples.items()}


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def _quantiles(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def _scale(probes: list[float]) -> float:
    """Factor that puts times taken beside these probe runs on the reference scale."""
    return PROBE_REF_S / statistics.median(probes)


def _scaled_latencies(loop: dict) -> list[float]:
    """Each op's time scaled by the probe runs nearest to it."""
    probes = loop["probes_s"]
    return [
        t * _scale(probes[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW + 1])
        for t, j in zip(loop["latencies_s"], loop["probe_at"])
    ]


def _timings(latencies: list[float], setups: list[float]) -> dict:
    p50, p90 = _quantiles(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setups),
    }


def measure(workload: str, seed: int, seconds: float, min_ops: int,
            deadline: float) -> dict:
    setups = [
        run_child(workload, seed, "setup", 0.0, 0, deadline)
        for _ in range(SETUP_RUNS - 1)
    ]
    main = run_child(workload, seed, "measure", seconds, min_ops, deadline)
    setup_scaled = [s["setup_s"] * _scale(s["probes_s"]) for s in setups]
    setup_scaled.append(main["setup_s"] * _scale(main["probes_s"][:2 * PROBE_WINDOW + 1]))
    metrics = _timings(_scaled_latencies(main), setup_scaled)
    raw = _timings(main["latencies_s"], [s["setup_s"] for s in setups + [main]])
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = main["peak_rss_mb"]
    return {
        "metrics": metrics,
        "raw_metrics": raw,
        "probe_ms": 1e3 * statistics.median(main["probes_s"]),
        "timed_ops": len(main["latencies_s"]),
        "attempted": main["attempted"] + sum(s["attempted"] for s in setups),
        "failures": main["failures"] + [f for s in setups for f in s["failures"]],
        "loop": {k: main[k] for k in ("latencies_s", "probes_s", "probe_at")},
    }


def trace(workload: str, seed: int, seconds: float, min_ops: int,
          deadline: float) -> dict:
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans = RESULTS / f"{workload}.spans.npz"
    main = run_child(workload, seed, "trace", seconds, min_ops, deadline, spans)
    metrics = dict(main["per_op"])
    traced, plain = main["traced"], main["untraced"]
    n = len(traced["latencies_s"])
    # both loops ran ops 1..n; compare their times on the probe's scale
    traced_s = sum(_scaled_latencies(traced))
    plain_s = sum(_scaled_latencies(plain)[:n])
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    metrics.update(import_times(deadline))
    line, printed = per_layer_metrics()
    for name, _ in line + printed:
        metrics.setdefault(name, 0.0)
    return {
        "metrics": metrics,
        "probe_ms": 1e3 * statistics.median(traced["probes_s"]),
        "timed_ops": n,
        "attempted": main["attempted"],
        "failures": main["failures"],
        "spans": main["spans"],
        "spans_file": str(spans.relative_to(ROOT)),
    }


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def _print_metrics(metrics: dict, names: list[tuple[str, str]]) -> None:
    for name, unit in names:
        print(f"  {name:<44} {metrics[name]!r} {unit}")


def report(workload: str, seed: int, traced: bool, res: dict, env: dict) -> list:
    """Print one workload's result; return its result-line metrics."""
    failed = len(res["failures"])
    print(f"workload {workload}  seed {seed}  held-out seed {HELDOUT_SEED}  "
          f"trace {int(traced)}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    print(f"  ops: {res['timed_ops']} timed ({'traced' if traced else 'p50/p90 samples'}), "
          f"{res['attempted']} attempted, {failed} failed")
    print(f"  {FAILED_RATIO[0]:<44} {failed / res['attempted']!r} {FAILED_RATIO[1]}"
          f" ({failed}/{res['attempted']})")
    for line in res["failures"][:10]:
        print(f"  FAILED {line}")
    if traced:
        line, printed = per_layer_metrics()
        _print_metrics(res["metrics"], line)
        print("  self time of functions some workloads never call:")
        _print_metrics(res["metrics"], printed)
        print(f"  spans: {res['spans']} written to {res['spans_file']}; "
              f"speed probe median {res['probe_ms']!r} ms")
        return line
    print(f"  speed probe median {res['probe_ms']!r} ms; times below are scaled to "
          f"the {PROBE_REF_S * 1e3!r} ms reference, raw in brackets")
    for name, unit in END_TO_END:
        print(f"  {name:<44} {res['metrics'][name]!r} {unit}"
              f"  [{res['raw_metrics'][name]!r}]")
    return list(END_TO_END)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--min-ops", type=int, default=MIN_OPS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (ROOT / "src" / "memelements" / "__init__.py").is_file():
        print(f"benchmark: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    line_metrics: dict[str, dict] = {}
    attempted = failed = 0
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        for workload in names:
            deadline = _now() + RUN_BUDGET_S
            run = trace if args.trace else measure
            min_ops = min(args.min_ops, TRACE_MIN_OPS) if args.trace else args.min_ops
            res = run(workload, args.seed, args.seconds, min_ops, deadline)
            listed = report(workload, args.seed, bool(args.trace), res, env)
            prefix = f"{workload}." if len(names) > 1 else ""
            for name, unit in listed:
                line_metrics[prefix + name] = {"value": res["metrics"][name], "unit": unit}
            attempted += res["attempted"]
            failed += len(res["failures"])
            record = {"workload": workload, "seed": args.seed, "heldout_seed": HELDOUT_SEED,
                      "trace": args.trace, "seconds": args.seconds,
                      "environment": env, **res}
            out = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": line_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
