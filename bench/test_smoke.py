"""Smoke test of the benchmark: every workload at tiny size, traced and not.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py

It checks that ``BENCHMARK.json`` and the benchmark's output name exactly
the workloads and metrics the benchmark is defined with, that every op of
a tiny run passes its output check, and that the benchmark refuses to run
without the package source.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"

WORKLOADS = {"classify-distinct", "suite-shared", "emit-fine"}
END_TO_END = {"ops_per_s", "op_p50_ms", "op_p90_ms", "ops_failed_ratio", "setup_s",
              "peak_rss_mb"}
FUNCTIONS = {
    "constitutive.derivative", "constitutive.check_ideality", "excitation.excite",
    "transform.analytic_locus", "transform.numeric_transform",
    "transform.chain_ordinate", "transform.locus_to_csv",
    "loci.origin_crossing", "loci.valuedness", "loci.odd_symmetry",
    "loci.zero_tangent_points", "loci.vertical_tangent_points",
    "loci.negative_slope_arcs", "loci.phase_shift",
    "taxonomy.classify", "taxonomy.theorem_suite",
    "cli.report_to_dict", "cli.suite_to_dict", "cli.render_svg",
}
COUNTERS = {
    "constitutive.derivative.scalar_calls", "transform.chain_ordinate.scalar_calls",
    "loci.roots_bracketed", "loci.hook_evals_per_root", "taxonomy.plane_analyses",
    "cli.bytes_written", "trace.overhead_pct",
}
MODULES = {"memelements", "memelements.cli", "memelements.constitutive",
           "memelements.errors", "memelements.excitation", "memelements.loci",
           "memelements.taxonomy", "memelements.tolerances", "memelements.transform",
           "scipy.optimize"}
PER_LAYER = ({f"{f}.calls" for f in FUNCTIONS} | {f"{f}.self_ms" for f in FUNCTIONS}
             | COUNTERS | {f"import.{m}_ms" for m in MODULES})

# Printed, but kept out of BENCHMARK.json and the result line: a ratio that
# is 0 on every passing run, and self times of functions that some
# workload never calls, which read exactly 0 there.
PRINTED_ONLY_E2E = {"ops_failed_ratio"}
PRINTED_ONLY_LAYER = {f"{f}.self_ms" for f in (
    "transform.numeric_transform", "transform.locus_to_csv", "loci.phase_shift",
    "taxonomy.theorem_suite", "cli.report_to_dict", "cli.suite_to_dict",
    "cli.render_svg")}


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args, timeout=180):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_spec_names_the_defined_workloads_and_metrics():
    spec = bench_spec()
    assert {w["name"] for w in spec["workloads"]} == WORKLOADS
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END - PRINTED_ONLY_E2E
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER - PRINTED_ONLY_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run(workload, trace):
    spec = bench_spec()
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--min-ops", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 4
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    names = PER_LAYER if trace == "1" else END_TO_END
    assert names | {"ops_failed_ratio"} <= printed


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_results", "_work", "__pycache__"))
    proc = run(tmp_path, "--workload", "classify-distinct", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
