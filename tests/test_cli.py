import argparse
import json
import warnings

import pytest

jsonschema = pytest.importorskip("jsonschema")

from memelements import (
    DEFAULT_GRID_N,
    __version__,
    Excitation,
    LogisticCurve,
    PiecewiseLinearCurve,
    PolynomialCurve,
    TanhScaledCurve,
    TwoBranchCurve,
    analytic_locus,
    classify,
    grid,
    locus_to_csv,
    numeric_transform,
)
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
from memelements.errors import ConfigError
from malformed_configs import MALFORMED


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
        PolynomialCurve(coefficients=(0.0, 0.8, 0.1, 0.3), operating_range=(-1.0, 1.5),
                        max_derivative_order=6),
        TanhScaledCurve(a=1.3, b=0.7, max_derivative_order=5),
        LogisticCurve(operating_range=(0.25, 3.0)),
        PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)),
                             operating_range=(0.5, 2.0)),
        TwoBranchCurve(
            outgoing=PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0),
                                     max_derivative_order=5),
            returning=PolynomialCurve(coefficients=(0.0, 4.0 / 3.0, 0.5))),
    ], ids=lambda curve: curve.family)
    def test_spec_round_trips(self, curve):
        # spec() writes every key, two-branch's derived range and order included
        assert curve_from_spec(json.loads(json.dumps(curve.spec()))) == curve


LOOP_SPEC = {"family": "two_branch", "params": {
    "outgoing": {"family": "polynomial", "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]}},
    "returning": {"family": "polynomial", "params": {"coefficients": [0, 4.0 / 3.0, 0.5]}}}}


class TestTwoBranchDerivedKeys:
    """A two-branch node's range and max_derivative_order must be the branches'."""

    def test_matching_keys_accepted(self):
        curve = curve_from_spec(dict(LOOP_SPEC, range=[0, 2], max_derivative_order=4))
        assert curve == curve_from_spec(LOOP_SPEC)

    @pytest.mark.parametrize("key, value, message", [
        ("range", [0, 1.5], "curve.range"),
        ("range", [0, 2, 3], "curve.range"),
        ("range", [0, "2"], r"curve.range\[1\]"),
        ("max_derivative_order", 3, "curve.max_derivative_order"),
        ("max_derivative_order", 4.0, "curve.max_derivative_order"),
    ])
    def test_disagreeing_key_rejected(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            curve_from_spec(dict(LOOP_SPEC, **{key: value}))

    def test_exit_2(self, tmp_path, capsys):
        cfg = dict(MEMRISTOR_CFG, curve=dict(LOOP_SPEC, max_derivative_order=7))
        out = tmp_path / "out"
        assert run(["analyze", "--config", write_config(tmp_path, cfg),
                    "--output-dir", str(out)]) == 2
        assert "curve.max_derivative_order" in capsys.readouterr().err
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
        cfg["curve"] = dict(cfg["curve"], max_derivative_order=7)
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

    def test_jet_overflow_is_an_analysis_error(self, tmp_path, capsys):
        # finite drive levels, but a depth-1 ordinate, or difference quotient,
        # beyond float range
        for numeric, message in ((False, "depth 1 ordinate is beyond float range"),
                                 (True, "depth 1 finite differences are beyond float range")):
            cfg = write_config(tmp_path, {
                "descriptor": {"alpha": -1, "beta": -1},
                "curve": dict(MEMRISTOR_CFG["curve"], range=[0, 2e100]),
                "excitation": {"amplitude": 1e100, "omega": 1e50},
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
            written = (out / f"depth{locus.depth}.csv").read_text()
            assert written == locus_to_csv(locus)

    def test_usage_error_exit_code(self, capsys):
        assert run([]) == 2
        assert run(["analyze"]) == 2
        capsys.readouterr()


class TestOutputDirectory:
    """An output directory that cannot be made is one config error line, exit 2."""

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

    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["figure", "fig6", "--output-dir", str(a)]) == 0
        assert run(["figure", "fig6", "--output-dir", str(b)]) == 0
        for name in ("fig6.csv", "fig6.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


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
        # a non-ideal curve and a first-order-only curve skip checks
        first_order = PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0),
                                      max_derivative_order=1)
        payload = suite_to_dict(theorem_suite([cubic, curve_from_spec(FLAT_SPEC), first_order]))
        jsonschema.validate(payload, load_schema("suite_report.schema.json"))
        assert [inst["ideal"] for inst in payload["instances"]] == [True, False, True]
        skipped = [[c["status"] == "skipped" for c in inst["checks"].values()]
                   for inst in payload["instances"]]
        assert not any(skipped[0]) and all(skipped[1]) and any(skipped[2])


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
