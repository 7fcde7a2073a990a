import argparse
import csv
import dataclasses
import json
import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from memelements import (
    DEFAULT_GRID_N,
    __version__,
    Excitation,
    LogisticCurve,
    PiecewiseLinearCurve,
    PointKind,
    PolynomialCurve,
    TanhScaledCurve,
    ToleranceSet,
    TwoBranchCurve,
    analytic_locus,
    classify,
    grid,
    locus_to_csv,
    numeric_transform,
)
import memelements
from memelements import cli, loci, transform
from memelements.cli import (
    FIGURES,
    _set_path,
    build_parser,
    curve_from_spec,
    descriptor_from_spec,
    excitation_from_spec,
    report_to_dict,
    run,
    suite_to_dict,
    tolerances_from_spec,
)
from memelements.errors import ConfigError, DomainError, NumericalError
from malformed_configs import ANALYZE, MALFORMED, SUITE, SWEEP


def load_schema(name):
    import importlib.resources as ir

    text = ir.files("memelements.schema").joinpath(name).read_text()
    return json.loads(text)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# a flat run and a kink: not monotone, not continuously differentiable
FLAT_SPEC = {"family": "piecewise_linear", "params": {"knots": [[0, 0], [0.1, 0], [2, 2]]}}

MEMRISTOR_CFG = {
    "descriptor": {"alpha": -1, "beta": -1},
    "curve": {
        "family": "polynomial",
        "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
        "range": [0, 2],
    },
}


class TestConfigParsing:
    def test_polynomial_round_trip(self):
        curve = curve_from_spec(MEMRISTOR_CFG["curve"])
        assert isinstance(curve, PolynomialCurve)
        assert curve.operating_range == (0.0, 2.0)

    def test_two_branch_nesting(self):
        spec = {
            "family": "two_branch",
            "params": {
                "outgoing": {
                    "family": "polynomial",
                    "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
                },
                "returning": {
                    "family": "polynomial",
                    "params": {"coefficients": [0, 4.0 / 3.0, 0.5]},
                },
            },
        }
        curve = curve_from_spec(spec)
        assert curve.is_two_branch

    def test_unknown_family_names_the_path(self):
        with pytest.raises(ConfigError, match="curve.family"):
            curve_from_spec({"family": "spline"})

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match=r"coefficients\[1\]"):
            curve_from_spec(
                {"family": "polynomial", "params": {"coefficients": [0, "x"]}}
            )

    def test_curve_error_wrapped_as_config_error(self):
        with pytest.raises(ConfigError, match="origin"):
            curve_from_spec({"family": "polynomial", "params": {"coefficients": [1, 1]}})

    def test_excitation_defaults_and_overrides(self):
        assert excitation_from_spec(None) == Excitation()
        exc = excitation_from_spec({"amplitude": 2.0, "omega": 0.5})
        assert exc.amplitude == 2.0 and exc.omega == 0.5
        with pytest.raises(ConfigError, match="amplitude"):
            excitation_from_spec({"amplitude": "big"})

    def test_descriptor_requires_integers(self):
        with pytest.raises(ConfigError, match="alpha"):
            descriptor_from_spec({"alpha": -1.5, "beta": 0})
        with pytest.raises(ConfigError, match="beta"):
            descriptor_from_spec({"alpha": -1})

    def test_tolerance_overrides(self):
        tol = tolerances_from_spec({"pinch_tol": 1e-7}, numeric=False)
        assert tol.pinch_tol == 1e-7
        with pytest.raises(ConfigError, match="witnes"):
            tolerances_from_spec({"witnes_tol": 1.0}, numeric=False)

    @pytest.mark.parametrize("curve", [
        PolynomialCurve(coefficients=(0.0, 0.8, 0.1, 0.3), operating_range=(-1.0, 1.5)),
        TanhScaledCurve(a=1.3, b=0.7),
        LogisticCurve(operating_range=(0.25, 3.0)),
        PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)),
                             operating_range=(0.5, 2.0)),
        TwoBranchCurve(
            outgoing=PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0)),
            returning=PolynomialCurve(coefficients=(0.0, 4.0 / 3.0, 0.5))),
    ], ids=lambda curve: curve.family)
    def test_spec_round_trips(self, curve):
        # spec() writes every key, two-branch's derived range included
        assert curve_from_spec(json.loads(json.dumps(curve.spec()))) == curve


LOOP_SPEC = {"family": "two_branch", "params": {
    "outgoing": {"family": "polynomial", "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]}},
    "returning": {"family": "polynomial", "params": {"coefficients": [0, 4.0 / 3.0, 0.5]}}}}


class TestTwoBranchDerivedKeys:
    """A two-branch node's range must be the branches'."""

    def test_matching_keys_accepted(self):
        curve = curve_from_spec(dict(LOOP_SPEC, range=[0, 2]))
        assert curve == curve_from_spec(LOOP_SPEC)

    @pytest.mark.parametrize("key, value, message", [
        ("range", [0, 1.5], "curve.range"),
        ("range", [0, 2, 3], "curve.range"),
        ("range", [0, "2"], r"curve.range\[1\]"),
    ])
    def test_disagreeing_key_rejected(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            curve_from_spec(dict(LOOP_SPEC, **{key: value}))

    def test_exit_2(self, tmp_path, capsys):
        cfg = dict(MEMRISTOR_CFG, curve=dict(LOOP_SPEC, max_derivative_order=7))
        out = tmp_path / "out"
        assert run(["analyze", "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out)]) == 2
        assert "curve.max_derivative_order is not a known key" in capsys.readouterr().err
        assert not out.exists()


class TestNumericChainFlag:
    """numeric_chain is a JSON boolean, in a config and on a sweep axis alike."""

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_non_boolean_config_value(self, tmp_path, capsys, command, value):
        cfg = dict(MEMRISTOR_CFG, numeric_chain=value)
        if command == "sweep":
            cfg["axes"] = [{"target": "descriptor.alpha", "values": [-1]}]
        out = tmp_path / "out"
        assert run([command, "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out)]) == 2
        assert "config.numeric_chain must be a boolean" in capsys.readouterr().err
        assert not out.exists()

    def test_non_boolean_axis_value(self, tmp_path, capsys, monkeypatch):
        import memelements.cli as cli

        trials = []
        monkeypatch.setattr(cli, "classify", lambda *a, **k: trials.append(a))
        cfg = dict(MEMRISTOR_CFG, axes=[{"target": "numeric_chain", "values": [0, 1]}])
        out = tmp_path / "out"
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out)]) == 2
        assert trials == []
        assert "config.numeric_chain must be a boolean" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_axis_values_run(self, tmp_path):
        cfg = dict(MEMRISTOR_CFG, axes=[{"target": "numeric_chain", "values": [False, True]}])
        out = tmp_path / "out"
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "1.0"]


class TestUnknownKeys:
    """A key no reader reads is a config error naming its path, not a silent default."""

    TANH = {"family": "tanh_scaled", "params": {"a": 1.0}}
    LOOP = {"family": "two_branch", "params": {
        "outgoing": {"family": "polynomial", "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]}},
        "returning": {"family": "polynomial", "params": {"coefficients": [0, 4.0 / 3.0, 0.5]},
                      "rnage": [0, 2]}}}
    AXIS = {"target": "descriptor.alpha", "values": [-1]}

    CASES = [
        ("analyze", dict(MEMRISTOR_CFG, excitation={"amplitude": 0.5, "omgea": 1000}),
         "excitation.omgea"),
        ("analyze", dict(MEMRISTOR_CFG, curve=dict(TANH, params={"A": 5})), "curve.params.A"),
        ("analyze", dict(MEMRISTOR_CFG, grid=256), "config.grid"),
        ("analyze", dict(MEMRISTOR_CFG, descriptor={"alpha": -1, "beta": -1, "gamma": 1}),
         "descriptor.gamma"),
        ("analyze", dict(MEMRISTOR_CFG, curve=dict(TANH, rnage=[0, 1])), "curve.rnage"),
        ("analyze", dict(MEMRISTOR_CFG, curve={"family": "logistic", "params": {"a": 2}}),
         "curve.params.a"),
        ("analyze", dict(MEMRISTOR_CFG, curve=LOOP), "curve.params.returning.rnage"),
        ("analyze", dict(MEMRISTOR_CFG, axes=[AXIS]), "config.axes"),
        ("sweep", dict(MEMRISTOR_CFG, axes=[dict(AXIS, step=1)]), "config.axes[0].step"),
        ("sweep", dict(MEMRISTOR_CFG, axes=[AXIS], formats="json"), "config.formats"),
        ("sweep", dict(MEMRISTOR_CFG, axes=[AXIS], curve=dict(TANH, params={"c": 1})),
         "curve.params.c"),
        ("suite", {"curves": [TANH], "numeric_chain": True}, "config.numeric_chain"),
        ("suite", {"curves": [TANH], "excitation": {"offest": 0.5}}, "excitation.offest"),
        ("suite", {"curves": [TANH, dict(TANH, params={"B": 2})]}, "config.curves[1].params.B"),
        # a knob report schema "1" carried, which nothing read
        ("analyze", dict(MEMRISTOR_CFG, tolerances={"phase_tol": 1e-6}), "tolerances.phase_tol"),
    ]

    @pytest.mark.parametrize("command, cfg, where", CASES,
                             ids=[f"{command}-{where}" for command, _, where in CASES])
    def test_exit_2_naming_the_key(self, tmp_path, capsys, command, cfg, where):
        out = tmp_path / "out"
        assert run([command, "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out)]) == 2
        assert f"{where} is not a known key" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedConfigs:
    """Each config reader's messages, one fault per config: the exact stderr line, exit 2."""

    @pytest.mark.parametrize("command, cfg, message", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_stderr_line_and_exit_2(self, tmp_path, capsys, command, cfg, message):
        out = tmp_path / "out"
        assert run([command, "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestGridTooLargeToAllocate:
    """A grid_n numpy refuses to allocate is a config error, not a traceback.

    Only sizes numpy refuses without allocating are run: 10**15 samples ask
    7 PiB, and 10**19 pass its size limit.
    """

    @pytest.mark.parametrize("n", [10 ** 15, 10 ** 19])
    @pytest.mark.parametrize("command, cfg", [("analyze", ANALYZE), ("suite", SUITE),
                                              ("sweep", SWEEP)])
    def test_stderr_line_and_exit_2(self, tmp_path, capsys, command, cfg, n):
        assert run([command, "--config", write_config(tmp_path, dict(cfg, grid_n=n)),
                    "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: grid of {n} intervals is too large to allocate")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestSetPath:
    def test_plain_and_indexed(self):
        cfg = {"curve": {"params": {"coefficients": [0, 1, 0, 0.3]}}}
        _set_path(cfg, "curve.params.coefficients[3]", 0.7)
        assert cfg["curve"]["params"]["coefficients"][3] == 0.7

    def test_terminal_key(self):
        cfg = {"excitation": {"omega": 1.0}}
        _set_path(cfg, "excitation.omega", 2.0)
        assert cfg["excitation"]["omega"] == 2.0

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            _set_path({"a": {}}, "a.b", 1)

    def test_bad_index_rejected(self):
        with pytest.raises(ConfigError):
            _set_path({"a": [1, 2]}, "a[5]", 1)


class TestSchemasMatchTheCode:
    """The shipped schemas name what the code writes: point kinds, tolerance knobs, version."""

    def test_kinds_knobs_and_version(self):
        report = load_schema("classification_report.schema.json")
        suite = load_schema("suite_report.schema.json")
        kinds = report["$defs"]["point"]["properties"]["kind"]["enum"]
        assert sorted(kinds) == sorted(k.value for k in PointKind)
        tolerances = report["properties"]["tolerances"]
        knobs = sorted(f.name for f in dataclasses.fields(ToleranceSet))
        assert sorted(tolerances["required"]) == sorted(tolerances["properties"]) == knobs
        for schema in (report, suite):
            assert schema["properties"]["schema_version"] == {"const": cli.SCHEMA_VERSION}


class TestAnalyzeCommand:
    def test_writes_valid_report(self, tmp_path):
        cfg = write_config(tmp_path, MEMRISTOR_CFG)
        out = tmp_path / "out"
        assert run(["analyze", "--config", cfg, "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        schema = load_schema("classification_report.schema.json")
        jsonschema.Draft202012Validator.check_schema(schema)
        jsonschema.validate(report, schema)
        assert report["verdict"] == "locally_passive"
        assert (out / "depth0.csv").exists()
        assert (out / "depth1.csv").exists()
        assert (out / "loci.svg").exists()

    def test_deep_memristor_report(self, tmp_path):
        cfg = dict(MEMRISTOR_CFG, descriptor={"alpha": -6, "beta": -6})
        out = tmp_path / "out"
        assert run(["analyze", "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, load_schema("classification_report.schema.json"))
        assert report["provenance"] == "analytic"
        assert report["verdict"] == "locally_active"
        assert report["witnesses"]
        assert all(abs(abs(p["w"]) - 32.0) <= 1e-9 for p in report["witnesses"])

    def test_report_dict_matches_library_call(self, cubic, loop_curve):
        rpt = classify((-2, -2), cubic)
        payload = report_to_dict(rpt)
        assert payload["verdict"] == "locally_active"
        assert payload["degeneration"] == "negative_nonlinear_resistor"
        assert payload["grid_n"] == DEFAULT_GRID_N
        assert len(payload["planes"]) == 3
        # each report fills in a part of the schema that the others leave empty
        reports = {
            "memristor": rpt,
            "flat": classify((-1, -1), curve_from_spec(FLAT_SPEC)),
            "loop": classify((-2, -2), loop_curve),
            "inconclusive": classify((-2, -2), cubic, Excitation(amplitude=1e-3)),
            "numeric": classify((-2, -2), cubic, numeric_chain=True),
            "cell00": classify((0, 0), cubic),
        }
        schema = load_schema("classification_report.schema.json")
        payloads = {}
        for name, rpt in reports.items():
            payloads[name] = payload = report_to_dict(rpt)
            jsonschema.validate(payload, schema)
            assert payload["verdict"] == rpt.verdict.value
            assert payload["excitation"]["period"] == rpt.excitation.period
            assert payload["ideality"]["ideal"] is rpt.ideality.ideal
            assert len(payload["witnesses"]) == len(rpt.witnesses)
        assert payloads["flat"]["ideality"]["violating_interval"] == list(
            reports["flat"].ideality.violating_interval)
        assert payloads["flat"]["caveats"]
        assert payloads["loop"]["witnesses"]
        assert payloads["inconclusive"]["candidate_witness_magnitude"] > 0.0
        assert payloads["numeric"]["provenance"] == "numeric"
        assert len(payloads["cell00"]["planes"]) == 1

    def test_format_subset(self, tmp_path):
        cfg = write_config(tmp_path, MEMRISTOR_CFG)
        out = tmp_path / "json_only"
        assert run(
            ["analyze", "--config", cfg, "--output-dir", str(out),
             "--formats", "json"]
        ) == 0
        assert (out / "report.json").exists()
        assert not (out / "depth0.csv").exists()
        assert not (out / "loci.svg").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"descriptor": {"alpha": -1, "beta": -1}})
        assert run(["analyze", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert run(["analyze", "--config", missing, "--output-dir", str(tmp_path)]) == 2

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps(MEMRISTOR_CFG).encode("utf-16-le"))
        out = tmp_path / "out"
        assert run(["analyze", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {cfg} is not valid JSON: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_analysis_error_exit_code(self, tmp_path):
        bad = dict(MEMRISTOR_CFG)
        bad["curve"] = {
            "family": "polynomial",
            "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
            "range": [0, 1],
        }
        cfg = write_config(tmp_path, bad)
        assert run(["analyze", "--config", cfg, "--output-dir", str(tmp_path)]) == 1

    def test_drive_level_overflow_is_an_analysis_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MEMRISTOR_CFG, descriptor={"alpha": -2, "beta": -2},
                                          excitation={"omega": 1e155}))
        assert run(["analyze", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("analysis failed: drive level 2 ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_finite_difference_rate_overflow_is_an_analysis_error(self, tmp_path, capsys):
        # at omega 1e120 the verdict plane's rates pass float range: a numeric
        # chain's finite differences, and the closed-form chain's drive level 3
        for numeric, message in ((True, "depth 3 finite differences are beyond float range"),
                                 (False, "drive level 3 is beyond float range")):
            cfg = write_config(tmp_path, {
                "descriptor": {"alpha": -2, "beta": -2},
                "curve": MEMRISTOR_CFG["curve"],
                "excitation": {"omega": 1e120},
                "numeric_chain": numeric})
            assert run(["analyze", "--config", cfg,
                        "--output-dir", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"analysis failed: {message}")
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    def test_jet_overflow_is_an_analysis_error(self, tmp_path, capsys):
        # finite drive levels, but a depth-1 ordinate, or a depth-2 difference
        # quotient, beyond float range; a numeric chain reads plane 0's rates
        # off the jet, so its depth-1 ordinate is checked too
        wide = {"amplitude": 1e100, "omega": 1e50}
        for numeric, depth, drive, message in (
                (False, 1, wide, "depth 1 ordinate is beyond float range"),
                (True, 1, wide, "depth 1 ordinate is beyond float range"),
                (True, 2, {"amplitude": 1.0, "omega": 1e200},
                 "depth 2 finite differences are beyond float range")):
            cfg = write_config(tmp_path, {
                "descriptor": {"alpha": -depth, "beta": -depth},
                "curve": dict(MEMRISTOR_CFG["curve"], range=[0, 2e100]),
                "excitation": drive,
                "numeric_chain": numeric})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["analyze", "--config", cfg,
                            "--output-dir", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"analysis failed: {message}")
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("curve", {"family": "polynomial",
                       "params": {"coefficients": [0, 1, 0, float("nan")]}}),
            ("tolerances", {"witness_tol": float("nan")}),
            ("excitation", {"omega": float("inf")}),
            # an integer JSON number beyond float range
            ("curve", {"family": "polynomial",
                       "params": {"coefficients": [0, 1, 0, 10 ** 400]}}),
        ],
    )
    def test_non_finite_number_exit_code(self, tmp_path, capsys, key, value):
        cfg = dict(MEMRISTOR_CFG, **{key: value})
        assert run(
            ["analyze", "--config", write_config(tmp_path, cfg),
             "--output-dir", str(tmp_path / "out")]
        ) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert f"{key}." in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("numeric", [False, True])
    def test_csv_matches_independent_chain(self, tmp_path, numeric):
        cfg = dict(MEMRISTOR_CFG, descriptor={"alpha": -2, "beta": -2},
                   numeric_chain=numeric, grid_n=256)
        out = tmp_path / "out"
        assert run(["analyze", "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out), "--formats", "csv"]) == 0
        curve = curve_from_spec(cfg["curve"])
        exc = Excitation()
        g = grid(exc, 256)
        chain = [analytic_locus(curve, exc, 0, g)]
        for d in (1, 2):
            chain.append(
                numeric_transform(chain[-1]) if numeric
                else analytic_locus(curve, exc, d, g)
            )
        assert sorted(p.name for p in out.iterdir()) == [
            "depth0.csv", "depth1.csv", "depth2.csv"
        ]
        for locus in chain:
            written = (out / f"depth{locus.depth}.csv").read_bytes()
            assert written == b"".join(locus_to_csv(locus))

    def test_usage_error_exit_code(self, capsys):
        assert run([]) == 2
        assert run(["analyze"]) == 2
        capsys.readouterr()


class TestDepthCsvFiles:
    """Each of a report's depth CSVs is locus_to_csv of its locus."""

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_each_file_is_its_locus(self, tmp_path, depth, numeric):
        # two blocks of rows and one more
        cfg = dict(MEMRISTOR_CFG, descriptor={"alpha": -depth, "beta": -depth},
                   numeric_chain=numeric, grid_n=8192)
        out = tmp_path / "out"
        assert run(["analyze", "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out), "--formats", "csv"]) == 0
        rpt = classify((-depth, -depth), curve_from_spec(cfg["curve"]), grid_n=8192,
                       numeric_chain=numeric)
        assert len(rpt.loci) == depth + 1
        assert sorted(p.name for p in out.iterdir()) == [
            f"depth{k}.csv" for k in range(depth + 1)]
        for k, locus in enumerate(rpt.loci):
            assert (out / f"depth{k}.csv").read_bytes() == b"".join(locus_to_csv(locus))

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_each_table_is_one_dump_per_block(self, tmp_path, monkeypatch, depth):
        import orjson

        dumped = []
        dumps = orjson.dumps

        def counting_dumps(obj, *args, **kwargs):
            dumped.append(np.size(obj))
            return dumps(obj, *args, **kwargs)

        cfg = dict(MEMRISTOR_CFG, descriptor={"alpha": -depth, "beta": -depth}, grid_n=256)
        argv = ["analyze", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path / "out"), "--formats", "csv"]
        monkeypatch.setattr(orjson, "dumps", counting_dumps)
        assert run(argv) == 0
        # each of the depth + 1 tables formats its t, u and w rows in one dump
        assert dumped == [(1 + 2) * 257] * (depth + 1)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_each_file_is_one_locus_to_csv_call(self, tmp_path, monkeypatch, depth):
        # per-layer call counts of analyze's CSV work wrap cli.locus_to_csv;
        # its rows are formatted later, as _write consumes the blocks
        depths = []

        def counting_locus_to_csv(locus):
            depths.append(locus.depth)
            return locus_to_csv(locus)

        cfg = dict(MEMRISTOR_CFG, descriptor={"alpha": -depth, "beta": -depth}, grid_n=256)
        argv = ["analyze", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path / "out"), "--formats", "csv"]
        monkeypatch.setattr(cli, "locus_to_csv", counting_locus_to_csv)
        assert run(argv) == 0
        assert depths == list(range(depth + 1))

    def test_csv_peak_is_the_report_and_a_few_blocks(self, tmp_path):
        # each block is written and dropped before the next is formatted, and
        # classify stacks no copy of its chain, so analyze holds at most what
        # the report holds and a few blocks' text (as locus_to_csv alone does)
        cfg = dict(MEMRISTOR_CFG, descriptor={"alpha": -2, "beta": -2}, grid_n=16384)
        argv = ["analyze", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path / "out"), "--formats", "csv"]
        curve = curve_from_spec(cfg["curve"])
        assert run(argv) == 0  # imports and caches outside the trace
        rpt = classify((-2, -2), curve, grid_n=16384)
        block = max(len(b) for locus in rpt.loci for b in locus_to_csv(locus))
        del rpt
        (tmp_path / "out" / "depth2.csv").unlink()
        traced, results = [], []  # (current, peak) bytes after each call
        for call in (lambda: classify((-2, -2), curve, grid_n=16384), lambda: run(argv)):
            tracemalloc.start()
            try:
                results.append(call())
                traced.append(tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
        assert results[1] == 0
        assert (tmp_path / "out" / "depth2.csv").stat().st_size > 3 * block
        assert traced[1][1] <= traced[0][0] + 6 * block


class TestWrite:
    """_write writes text as UTF-8 and byte blocks as they are, in name order."""

    def test_blocks_and_text(self, tmp_path):
        out = tmp_path / "out"
        files = {"c.csv": [b"x\n"], "b.svg": "<svg>\u00b5</svg>\n",
                 "a.csv": [b"t,u\n", b"0.0,1.5\n1e-05,-0.0\n", b""]}
        assert cli._write(out, files) == "wrote: " + ", ".join(
            str(out / name) for name in ("a.csv", "b.svg", "c.csv"))
        assert (out / "a.csv").read_bytes() == b"t,u\n0.0,1.5\n1e-05,-0.0\n"
        assert (out / "b.svg").read_bytes() == b"<svg>\xc2\xb5</svg>\n"
        assert (out / "c.csv").read_bytes() == b"x\n"

    def test_unwritable_block_file(self, tmp_path):
        out = tmp_path / "out"
        (out / "b.csv").mkdir(parents=True)
        files = {"c.svg": "late\n", "b.csv": [b"x\n"], "a.csv": [b"early\n"]}
        with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(out / 'b.csv'))}: "):
            cli._write(out, files)
        # written in name order: the file before the failure, not the one after it
        assert sorted(p.name for p in out.iterdir() if p.is_file()) == ["a.csv"]
        assert (out / "a.csv").read_bytes() == b"early\n"


class TestOutputDirectory:
    """An output directory that cannot be made, or a file in it that cannot
    be written, is one config error line, exit 2."""

    @pytest.mark.parametrize("command", ["analyze", "suite"])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_unmakeable_directory_exit_2(self, tmp_path, capsys, command, under_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        out = blocker / "out" if under_file else blocker
        argv = [command, "--output-dir", str(out)]
        if command == "analyze":
            argv += ["--config", write_config(tmp_path, MEMRISTOR_CFG)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make output directory {out}: ")
        assert err.count("\n") == 1
        assert blocker.read_text() == "a file\n"

    @pytest.mark.parametrize("argv", [["analyze"], ["figure", "fig2"], ["suite"], ["sweep"]])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_checked_before_any_analysis(self, tmp_path, monkeypatch, capsys, argv, under_file):
        def no_analysis(*args, **kwargs):
            raise AssertionError("analysis ran before the output directory was checked")

        monkeypatch.setattr(cli, "classify", no_analysis)
        monkeypatch.setattr(cli, "theorem_suite", no_analysis)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        out = blocker / "out" if under_file else blocker
        if argv == ["analyze"]:
            argv = argv + ["--config", write_config(tmp_path, MEMRISTOR_CFG)]
        elif argv == ["sweep"]:
            axes = [{"target": "descriptor.alpha", "values": [-1, -2]}]
            argv = argv + ["--config", write_config(tmp_path, dict(MEMRISTOR_CFG, axes=axes))]
        assert run(argv + ["--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make output directory {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, blocked, before", [
        (["analyze"], "report.json", ["depth0.csv", "depth1.csv", "loci.svg"]),
        (["figure", "fig2"], "fig2.svg", ["fig2.depth0.csv", "fig2.depth1.csv"]),
        (["suite"], "suite_report.json", []),
        # a CSV file, written from byte blocks
        (["analyze"], "depth1.csv", ["depth0.csv"]),
        (["figure", "fig2"], "fig2.depth1.csv", ["fig2.depth0.csv"]),
    ])
    def test_unwritable_file_exit_2(self, tmp_path, capsys, argv, blocked, before):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        if argv == ["analyze"]:
            argv = argv + ["--config", write_config(tmp_path, MEMRISTOR_CFG)]
        assert run(argv + ["--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / blocked}: ")
        assert err.count("\n") == 1
        # the files sorted before the one that failed stay written
        assert sorted(p.name for p in out.iterdir() if p.is_file()) == before

    def test_permission_denied_exit_2(self, tmp_path, monkeypatch, capsys):
        argv = ["analyze", "--config", write_config(tmp_path, MEMRISTOR_CFG),
                "--output-dir", str(tmp_path / "out")]
        write_text = pathlib.Path.write_text

        def read_only(path, *args, **kwargs):
            if path.name == "loci.svg":
                raise PermissionError(13, "Permission denied", str(path))
            return write_text(path, *args, **kwargs)

        # a read-only directory refuses no one running as root, so the
        # error is raised where the file is written
        monkeypatch.setattr(pathlib.Path, "write_text", read_only)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: cannot write {tmp_path / 'out' / 'loci.svg'}: "
                       f"[Errno 13] Permission denied: '{tmp_path / 'out' / 'loci.svg'}'\n")


class TestParserReuse:
    """run builds the parser once per process, and reuse changes no output."""

    def test_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        counts = []
        for argv in ([], ["analyze"], ["--version"]):
            before = len(built)
            run(argv)
            counts.append(len(built) - before)
        capsys.readouterr()
        # the top-level parser and one per subcommand, on the first run alone
        assert counts == [5, 0, 0]

    def test_repeats_are_byte_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # usage wrapping follows the terminal width
        build_parser.cache_clear()
        argvs = ([], ["analyze"], ["figure", "nofig"], ["--version"])

        def outcome(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [outcome(argv) for argv in argvs]
        assert outcome(["suite", "--strict", "--output-dir", str(tmp_path)])[0] == 0
        assert [outcome(argv) for argv in argvs] == first
        assert [code for code, _, _ in first] == [2, 2, 2, 0]
        assert all(err.startswith("usage: memelements") for _, _, err in first[:3])
        assert first[3][1:] == (f"{__version__}\n", "")


class TestFigureCommand:
    @pytest.mark.parametrize("fig_id", sorted(FIGURES))
    def test_each_figure_writes_files(self, tmp_path, fig_id):
        out = tmp_path / fig_id
        assert run(["figure", fig_id, "--output-dir", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert any(name.endswith(".svg") for name in written)
        assert any(name.endswith(".csv") for name in written)
        svg = next(p for p in out.iterdir() if p.name.endswith(".svg"))
        text = svg.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("fig_id, curve", [
        ("fig6", PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0))),
        ("fig8", TanhScaledCurve()),
    ])
    def test_waveforms_are_read_off_phase_shift(self, tmp_path, monkeypatch, fig_id, curve):
        # the waveform and its peak heights come from phase_shift's refined
        # locus: no second locus is built, and its jet is read at the two peaks
        # alone, for the markers; its even samples are the default grid's
        # depth-1 locus
        locus = analytic_locus(curve, Excitation(), 1)
        want = b"".join(cli.columns_to_csv("t,ordinate,abscissa_rate", locus.t_values,
                                           locus.w_values, locus.u_values))
        ph = loci.phase_shift(curve, Excitation())
        peaks, point_at = [], loci.point_at

        def fail(*args, **kwargs):
            pytest.fail("waveform figure evaluated a locus again")

        def peak(at, t):
            peaks.append((at.depth, t))
            return point_at(at, t)

        for module in (memelements, transform, loci, cli):
            for name in ("analytic_locus", "point_at"):
                monkeypatch.setattr(module, name, fail, raising=False)
        monkeypatch.setattr(cli, "point_at", peak)
        out = tmp_path / fig_id
        assert run(["figure", fig_id, "--output-dir", str(out)]) == 0
        assert (out / f"{fig_id}.csv").read_bytes() == want
        assert peaks == [(1, ph.t_peak_ordinate), (1, ph.t_peak_abscissa)]

    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["figure", "fig6", "--output-dir", str(a)]) == 0
        assert run(["figure", "fig6", "--output-dir", str(b)]) == 0
        for name in ("fig6.csv", "fig6.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestRenderSvg:
    def test_polylines_scale_each_decimated_sample(self):
        # one titled panel spans x 56..786 and y 64..554
        rng = np.random.default_rng(5)
        panel = cli.Panel("p", "x", "y")
        for n in (7, 1500, 2048, 3001):
            panel.add_series(f"n={n}", rng.normal(size=n) * 1e3, rng.normal(size=n) ** 3)
        x0, x1, y0, y1 = panel._bounds()
        expected = []
        for _, xs, ys in panel.series:
            step = max(1, len(xs) // 1024)
            expected.append(" ".join(
                f"{56.0 + (x - x0) / (x1 - x0) * (786.0 - 56.0):.2f},"
                f"{554.0 - (y - y0) / (y1 - y0) * (554.0 - 64.0):.2f}"
                for x, y in zip(xs[::step].tolist(), ys[::step].tolist())))
        svg = cli.render_svg([panel], "title")
        assert re.findall(r'<polyline points="([^"]*)"', svg) == expected

    def test_empty_panel_raises(self):
        with pytest.raises(DomainError, match="panel 'a' has no sample or marker to draw"):
            cli.render_svg([cli.Panel("a", "x", "y")])

    @pytest.mark.parametrize("x, marker", [([0.0, np.inf], (0.0, 0.0)),
                                           ([0.0, 1.0], (np.nan, 0.0))])
    def test_non_finite_sample_or_marker_raises(self, x, marker):
        # refused, not drawn as "nan" coordinates, and without a RuntimeWarning
        drawable, panel = cli.Panel("b", "x", "y"), cli.Panel("a", "x", "y")
        drawable.add_series("s", [0.0, 1.0], [1.0, 2.0])
        panel.add_series("s", x, [1.0, 2.0])
        panel.add_marker(*marker, "m")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="panel 'a' has a sample or marker that is "
                                                  "not finite"):
                cli.render_svg([drawable, panel])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x, y", [([-1e308, 0.0, 1e308], [0.0, 1.0, 2.0]),
                                      ([0.0, 1.0, 2.0], [-1.7e308, 0.0, 1.7e308])])
    def test_range_too_wide_to_draw_raises(self, x, y):
        # finite samples whose padded span overflows: refused, not drawn as "nan"
        panel = cli.Panel("a", "x", "y")
        panel.add_series("s", x, y)
        with pytest.raises(DomainError, match="panel 'a' spans a range too wide to draw"):
            cli.render_svg([panel])

    def test_unequal_series_raises(self):
        with pytest.raises(DomainError, match=r"series 's' of panel 'a': .* shapes \(2,\) "
                                              r"and \(3,\)"):
            cli.Panel("a", "x", "y").add_series("s", [0.0, 1.0], [0.0, 1.0, 2.0])


def format_points(xs, ys):
    """The reference polyline text: each point through str.format."""
    return " ".join(map("{:.2f},{:.2f}".format, xs, ys))


def nudged(x, steps):
    """x moved steps floats up (steps > 0) or down."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_X_XX5 = np.array([0.005, 0.015, 0.285, 1.005, 1.115, 2.675, 421.125, 785.995, 999999.995])
# binary ties k + {1, 3, 5, 7}/8; x.xx5 and the floats next to it; values
# in (-0.005, 0) and both zeros; the 1e6 bound and its neighbours; values
# far past it, subnormals, values whose product 100 v overflows to inf,
# and the non-finite values
AWKWARD_COORDS = np.concatenate([
    np.add.outer([0.0, 1.0, 2.0, 421.0, -3.0, 123456.0], [1 / 8, 3 / 8, 5 / 8, 7 / 8]).ravel(),
    _X_XX5, np.nextafter(_X_XX5, 0.0), np.nextafter(_X_XX5, np.inf),
    [-0.004999, -0.001, -1e-300, -5e-324, -0.0, 0.0],
    [1e6, np.nextafter(1e6, 0.0), np.nextafter(1e6, np.inf), 999999.99, 1e15, 1e300],
    [5e-324, 1e-310, 2.2250738585072014e-308, 1e307, 1.7976931348623157e308],
    [np.inf, np.nan],
])
AWKWARD_COORDS = np.concatenate([AWKWARD_COORDS, -AWKWARD_COORDS])

_coords = st.one_of(
    st.floats(),
    st.floats(-1e3, 1e3),
    # the floats nearest x.xx5 and their neighbours, where a tie in 100 v
    # can round either way
    st.builds(nudged, st.integers(-10 ** 8, 10 ** 8).map(lambda k: (k + 0.5) / 100),
              st.integers(-2, 2)),
    st.sampled_from(AWKWARD_COORDS.tolist()),
)


class TestPolylinePoints:
    """cli._points writes each point as "{:.2f},{:.2f}".format does."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_coords, _coords), max_size=40))
    def test_matches_format(self, points):
        xs, ys = [p[0] for p in points], [p[1] for p in points]
        assert cli._points(np.array(xs), np.array(ys)) == format_points(xs, ys)

    def test_awkward_values(self):
        xs = AWKWARD_COORDS
        for ys in (xs[::-1], np.roll(xs, 7)):
            assert cli._points(xs, ys) == format_points(xs.tolist(), ys.tolist())

    def test_signed_zeros(self):
        assert cli._points(np.array([-0.0, -0.001, 0.0]),
                           np.array([0.0, -0.004999, -1e-300])) == (
            "-0.00,0.00 -0.00,-0.00 0.00,-0.00")

    def test_empty(self):
        assert cli._points(np.array([]), np.array([])) == ""


def json_text(obj):
    """The reference report text: the json module's, indented and key-sorted."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# text that reads like a number, or like a value line of the indented text
_NUMBER_LIKE = ["1e5", "0.00001", "a 2e-7 b", "1e-06", "-0.000015", " 1e16", "1e-6,", "x\n1e-6",
                ": 3e-5", "null", "NaN", "é ß 中 1e16", "  1e-7"]
_json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # repr writes these with an exponent, orjson positionally
    st.floats(1e-5, 1e-4, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v])),
    # subnormals included; orjson's exponent has no leading zero
    st.floats(-1e-5, 1e-5, exclude_min=True, exclude_max=True),
    # repr writes e+16, orjson e16
    st.floats(min_value=1e16, allow_infinity=False).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(1e15, 1e16),
    # and the positional text of values that holds "0.0000" after a digit
    st.sampled_from([0.0, -0.0, 1e-5, 1e-4, 1e16, 5e-324, 1.7976931348623157e308, 10.00001,
                     -20.0000125, 100.00007]),
)
_json_scalars = st.one_of(
    _json_floats,
    st.integers(-10 ** 16, 10 ** 16),
    st.integers(10 ** 15 - 10, 10 ** 15 + 10),
    st.none(),
    st.booleans(),
    st.text(),
    st.sampled_from(_NUMBER_LIKE),
)
_json_keys = st.one_of(st.text(), st.sampled_from(_NUMBER_LIKE))
_json_docs = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=6) | st.dictionaries(_json_keys, children,
                                                                       max_size=6),
    max_leaves=30,
).filter(lambda doc: isinstance(doc, (list, dict)))


class TestDumpJson:
    """cli._dump_json writes the json module's indented, key-sorted text."""

    @settings(max_examples=400, deadline=None)
    @given(_json_docs)
    def test_matches_json(self, doc):
        assert cli._dump_json(doc) == json_text(doc)

    def test_float_spelling_boundaries(self):
        values = [1e-5, -1.5e-5, 9.99e-5, 1e-4, 1e-6, 5e-324, 1e16, -1.5e16, 9999000000000000.0,
                  1e22, -0.0, 10 ** 15, 10.00001, "1e5", "0.00001", "a 2e-7 b"]
        text = cli._dump_json({"v": values, "1e-6": 3e-5})
        assert text == json_text({"v": values, "1e-6": 3e-5})
        assert '"1e-6": 3e-05' in text and "    1e+16," in text and '    "0.00001"' in text

    def test_non_finite_keeps_jsons_spelling(self):
        # orjson writes NaN and +-inf as null; the text never does
        doc = {"a": [math.nan, None, math.inf], "b": -math.inf, "c": None}
        text = cli._dump_json(doc)
        assert text == json_text(doc)
        assert text.count("null") == 2
        assert "NaN" in text and "    Infinity" in text and '"b": -Infinity' in text

    def test_what_orjson_refuses_takes_jsons_path(self):
        for doc in ({"big": 2 ** 70}, [-(2 ** 64)], {"surrogate": "\ud800"}, {1: "a", 2: "b"}):
            assert cli._dump_json(doc) == json_text(doc)


class TestReportDump:
    """A report's finiteness is read off report_to_dict's walk, not a second encoding."""

    def test_finite_report_with_nulls_is_not_encoded_twice(self, cubic, monkeypatch):
        payload = report_to_dict(classify((-2, -2), cubic))
        dumps, calls = json.dumps, []
        monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: calls.append(k) or dumps(*a, **k))
        text = cli._dump_json(payload)
        monkeypatch.undo()
        assert calls == []
        assert "null" in text
        assert text == json_text(payload)

    def test_non_finite_suite_data_keeps_jsons_spelling(self):
        from memelements.taxonomy import CheckResult, CheckStatus, SuiteInstance, SuiteReport

        check = CheckResult(CheckStatus.PASS, "forced", {"gap": math.inf, "none": None,
                                                         "nan": math.nan})
        rep = SuiteReport(instances=(SuiteInstance(0, "x", "polynomial", True, (),
                                                   {"check": check}),),
                          aggregate={}, counterexamples=(), all_passed=True)
        payload = suite_to_dict(rep)
        text = cli._dump_json(payload)
        assert text == json_text(payload)
        assert '"gap": Infinity' in text and '"nan": NaN' in text and '"none": null' in text


class TestSuiteCommand:
    def test_default_set_passes_strict(self, tmp_path):
        out = tmp_path / "suite"
        assert run(["suite", "--output-dir", str(out), "--strict"]) == 0
        payload = json.loads((out / "suite_report.json").read_text())
        schema = load_schema("suite_report.schema.json")
        jsonschema.Draft202012Validator.check_schema(schema)
        jsonschema.validate(payload, schema)
        assert payload["all_passed"]
        assert len(payload["instances"]) == 4

    def test_config_supplied_curves(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "curves": [
                    {
                        "family": "polynomial",
                        "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
                    }
                ]
            },
        )
        out = tmp_path / "suite"
        assert run(["suite", "--config", cfg, "--output-dir", str(out)]) == 0
        payload = json.loads((out / "suite_report.json").read_text())
        assert len(payload["instances"]) == 1
        checks = payload["instances"][0]["checks"]
        assert all(entry["status"] == "pass" for entry in checks.values())

    def test_drive_whose_third_level_overflows(self, tmp_path, capsys):
        # no check reads drive level 3, which is beyond float range at omega
        # 1e103, so the suite reports rather than failing its analysis
        cfg = write_config(tmp_path, {
            "curves": [{"family": "polynomial", "params": {"coefficients": [0, 1, 0, 1 / 3]}}],
            "excitation": {"amplitude": 1.0, "omega": 1e103},
        })
        out = tmp_path / "suite"
        assert run(["suite", "--config", cfg, "--output-dir", str(out)]) == 0
        checks = json.loads((out / "suite_report.json").read_text())["instances"][0]["checks"]
        for name in ("single_valued_after_two_transforms", "second_order_memristor_activity",
                     "second_order_mem_inductor_activity", "second_order_mem_capacitor_activity"):
            assert checks[name]["status"] == "pass"
        assert "analysis failed" not in capsys.readouterr().err

    def test_default_set_equals_its_specs(self, tmp_path):
        # the defaults of a config-less suite are the readers' defaults
        curves = [
            PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0)),
            TanhScaledCurve(),
            PolynomialCurve(coefficients=(0.0, 0.0, 0.5, -1.0 / 6.0)),
            PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0))),
        ]
        cfg = write_config(tmp_path, {"curves": [c.spec() for c in curves]})
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["suite", "--output-dir", str(a)]) == 0
        assert run(["suite", "--config", cfg, "--output-dir", str(b)]) == 0
        assert (a / "suite_report.json").read_bytes() == (b / "suite_report.json").read_bytes()

    def test_suite_dict_round_trip(self, cubic):
        from memelements import theorem_suite

        payload = suite_to_dict(theorem_suite([cubic]))
        assert payload["kind"] == "suite_report"
        assert payload["all_passed"] is True
        # a non-ideal curve skips every check
        payload = suite_to_dict(theorem_suite([cubic, curve_from_spec(FLAT_SPEC)]))
        jsonschema.validate(payload, load_schema("suite_report.schema.json"))
        assert [inst["ideal"] for inst in payload["instances"]] == [True, False]
        skipped = [[c["status"] == "skipped" for c in inst["checks"].values()]
                   for inst in payload["instances"]]
        assert not any(skipped[0]) and all(skipped[1])


class TestSweepCommand:
    def test_single_axis(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "descriptor": {"alpha": -2, "beta": -2},
                "curve": {
                    "family": "polynomial",
                    "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
                },
                "axes": [
                    {
                        "target": "curve.params.coefficients[3]",
                        "values": [0.2, 1.0 / 3.0, 0.8],
                    }
                ],
            },
        )
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("curve.params.coefficients[3],verdict")
        assert len(lines) == 4
        assert all("locally_active" in line for line in lines[1:])

    def test_two_axes_cross_product(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "descriptor": {"alpha": -1, "beta": -1},
                "curve": {
                    "family": "polynomial",
                    "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
                },
                "excitation": {"omega": 1.0},
                "axes": [
                    {"target": "curve.params.coefficients[1]", "values": [0.5, 1.0]},
                    {"target": "excitation.omega", "values": [1.0, 2.0, 3.0]},
                ],
            },
        )
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_error_rows_are_quoted(self, tmp_path, monkeypatch):
        # 1.5 passes the curve's operating range, whose message holds commas;
        # 1.0 raises a message with a comma and a quote
        message = 'no root in [0.0, 1.0]: "bracket" has one sign'
        real = cli.classify

        def classify_or_raise(*args):
            if args[2].amplitude == 1.0:
                raise NumericalError(message)
            return real(*args)

        monkeypatch.setattr(cli, "classify", classify_or_raise)
        cfg = write_config(tmp_path, dict(
            MEMRISTOR_CFG, grid_n=256, excitation={"amplitude": 1.0},
            axes=[{"target": "excitation.amplitude", "values": [0.5, 1.0, 1.5]}]))
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
        text = (out / "sweep.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert [len(row) for row in rows] == [6] * 4
        assert rows[2][1] == f"error: {message}"
        assert rows[3][1].startswith("error: drive sweep [0.0, 3.0] exceeds")
        # a row with no comma, quote or newline is written unquoted
        assert text.splitlines()[1] == ",".join(rows[1])
        assert '"' not in text.splitlines()[1]

    def test_bad_target_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "descriptor": {"alpha": -1, "beta": -1},
                "curve": {
                    "family": "polynomial",
                    "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
                },
                "axes": [{"target": "curve.nope", "values": [1]}],
            },
        )
        assert run(["sweep", "--config", cfg, "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("target, bad", [
        ("grid_n", "abc"),
        ("grid_n", 4096.7),
        ("curve.family", "tanh_scaled"),
        ("excitation", None),
        ("excitation", {"amplitude": 0.5}),
        ("curve.params.coefficients", [0, 1, 0, 0.5]),
    ])
    def test_axis_values_parse_like_analyze(self, tmp_path, capsys, monkeypatch, target, bad):
        # a value the CSV cannot write as a float, or a grid_n analyze would
        # reject, is a config error before any trial is classified
        import memelements.cli as cli

        trials = []
        monkeypatch.setattr(cli, "classify", lambda *a, **k: trials.append(a))
        cfg = write_config(tmp_path, dict(MEMRISTOR_CFG, axes=[
            {"target": "descriptor.alpha", "values": [-1]},
            {"target": target, "values": [bad]},
        ]))
        assert run(["sweep", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        assert trials == []
        assert not (tmp_path / "out").exists()
        where = "config.grid_n" if isinstance(bad, float) else "config.axes[1].values[0]"
        assert where in capsys.readouterr().err

    def test_axis_integer_beyond_float_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MEMRISTOR_CFG, excitation={"omega": 1.0}, axes=[
            {"target": "excitation.omega", "values": [1, 10 ** 400]}]))
        assert run(["sweep", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
        assert "config.axes[0].values[1] must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_three_axes_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "descriptor": {"alpha": -1, "beta": -1},
                "curve": {
                    "family": "polynomial",
                    "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
                },
                "axes": [
                    {"target": "excitation.omega", "values": [1]},
                    {"target": "excitation.amplitude", "values": [1]},
                    {"target": "grid_n", "values": [4096]},
                ],
            },
        )
        assert run(["sweep", "--config", cfg, "--output-dir", str(tmp_path)]) == 2
