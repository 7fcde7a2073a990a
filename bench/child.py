"""One workload in its own process: set up, run the closed loop, report.

Started by ``run.py``, not by hand.  The parent passes the monotonic
clock reading taken just before it started this process, so ``setup_s``
covers interpreter start, importing the package, generating the first
inputs and one warm-up op.  Results go to the JSON file named by
``--out``; standard output stays free for the parent.

Modes:
  setup    set up, time the speed probe, report and exit
  measure  closed loop without tracing for ``--seconds`` of op time and
           at least ``--min-ops`` ops
  trace    the same loop for half the time, then the same ops again with
           the tracer installed; reports per-op layer metrics

Between ops, off the clock, the loop times a ``SpeedProbe``: fixed work
that never touches the package.  Its times say how fast the machine ran
around each op, which ``run.py`` uses to put timings on one scale.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import memelements  # noqa: E402,F401
import memelements.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

# inputs generated during set-up; later ones are made between ops, off the clock
PREPARED_OPS = 64
# op time between two runs of the speed probe
PROBE_EVERY_S = 0.1
# probe runs after a set-up-only child's set-up
SETUP_PROBES = 10
# the loop stops early when the process gets this close to its deadline
DEADLINE_MARGIN_S = 15.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """Fixed work shaped like the package's own, that never touches it.

    Scalar numpy calls made one at a time, as in root refinement through
    the locus hooks; float formatting, as in CSV emission; array
    arithmetic and a sort, as in locus construction; and a Python loop
    over array elements, as in the per-sample scans.  Built after set-up,
    so that its data stays out of ``setup_s``.
    """

    def __init__(self) -> None:
        self.wave = np.sin(np.linspace(0.0, 10.0, 32768))

    def __call__(self) -> float:
        """Seconds the work took."""
        t0 = time.perf_counter()
        total = 0.0
        for i in range(120):
            x = np.asarray(i * 1e-3, dtype=float)
            total += float(np.where(x < 0.0, 0.0, np.polyval((1.0, 0.5, 0.25), x)))
        text = ",".join(f"{v!r}" for v in self.wave[:1500].tolist())
        order = np.argsort(np.diff(np.cos(self.wave) * self.wave)[:16384])
        for v in self.wave[:8000]:
            if float(v) > 2.0:
                total += 1.0
        elapsed = time.perf_counter() - t0
        if not (total > 0.0 and text and order.size):
            raise RuntimeError("speed probe computed nothing")
        return elapsed


def run_ops(wl, probe, indices, deadline, tracer=None, seconds=None, min_ops=0):
    """Closed loop: each op starts when the previous one and its check end.

    With ``seconds`` the loop runs until that much op time has passed
    and ``min_ops`` ops are done; otherwise it runs ``indices`` through.
    Only the op itself is timed: input generation, output checks,
    clean-up and the speed probe happen between ops, off the clock.
    """
    latencies: list[float] = []
    failures: list[str] = []
    probes: list[float] = []
    probe_at: list[int] = []
    written = 0
    clock = 0.0
    next_probe = 0.0
    for index in indices:
        if seconds is not None and clock >= seconds and len(latencies) >= min_ops:
            break
        if now() > deadline:
            break
        op = wl.op(index)
        probe_at.append(len(probes))
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            result, error = wl.run(op), None
        except Exception as err:  # a raising op is a failed op, not a crash
            result, error = None, f"raised {err!r}"
        dt = time.perf_counter() - t0
        clock += dt
        latencies.append(dt)
        if error is None:
            try:
                error = wl.check(op, result)
            except Exception as err:
                error = f"check raised {err!r}"
        if error is not None:
            failures.append(f"op {index} ({op.kind}): {error}")
        written += wl.bytes_written(op)
        wl.cleanup(op)
        if clock >= next_probe:
            probes.append(probe())
            next_probe = clock + PROBE_EVERY_S
    return {"latencies_s": latencies, "failures": failures, "probes_s": probes,
            "probe_at": probe_at, "bytes_written": written}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.prepare(PREPARED_OPS)
    warm = wl.op(0)
    warm_result = wl.run(warm)
    result: dict = {"setup_s": now() - args.spawned_at}
    warm_error = wl.check(warm, warm_result)
    wl.cleanup(warm)
    failures = [f"warm-up op 0 ({warm.kind}): {warm_error}"] if warm_error else []
    attempted = 1

    deadline = args.deadline - DEADLINE_MARGIN_S
    probe = SpeedProbe()
    if args.mode == "setup":
        result["probes_s"] = [probe() for _ in range(SETUP_PROBES)]
    elif args.mode == "measure":
        loop = run_ops(wl, probe, itertools.count(1), deadline,
                       seconds=args.seconds, min_ops=args.min_ops)
        result.update(latencies_s=loop["latencies_s"], probes_s=loop["probes_s"],
                      probe_at=loop["probe_at"])
        failures += loop["failures"]
        attempted += len(loop["latencies_s"])
    else:
        from tracer import Tracer

        plain = run_ops(wl, probe, itertools.count(1), deadline,
                        seconds=0.5 * args.seconds, min_ops=args.min_ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_ops(wl, probe, range(1, len(plain["latencies_s"]) + 1), deadline,
                             tracer=tracer)
        finally:
            tracer.uninstall()
        n = len(traced["latencies_s"])
        result.update(untraced=plain, traced=traced, spans=len(tracer.span_name))
        result["per_op"] = tracer.per_op(n)
        result["per_op"]["cli.bytes_written"] = traced["bytes_written"] / n
        if args.spans:
            tracer.save(args.spans)
        failures += plain["failures"] + traced["failures"]
        attempted += len(plain["latencies_s"]) + n
    result["attempted"] = attempted
    result["failures"] = failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
