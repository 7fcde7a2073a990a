import json

import pytest

jsonschema = pytest.importorskip("jsonschema")

from memelements import (
    DEFAULT_GRID_N,
    Excitation,
    PolynomialCurve,
    analytic_locus,
    classify,
    grid,
    locus_to_csv,
    numeric_transform,
)
from memelements.cli import (
    FIGURES,
    _set_path,
    curve_from_spec,
    descriptor_from_spec,
    excitation_from_spec,
    report_to_dict,
    run,
    suite_to_dict,
    tolerances_from_spec,
)
from memelements.errors import ConfigError


def load_schema(name):
    import importlib.resources as ir

    text = ir.files("memelements.schema").joinpath(name).read_text()
    return json.loads(text)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_report_dict_matches_library_call(self, cubic):
        rpt = classify((-2, -2), cubic)
        payload = report_to_dict(rpt)
        assert payload["verdict"] == "locally_active"
        assert payload["degeneration"] == "negative_nonlinear_resistor"
        assert payload["grid_n"] == DEFAULT_GRID_N
        assert len(payload["planes"]) == 3

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

    def test_analysis_error_exit_code(self, tmp_path):
        bad = dict(MEMRISTOR_CFG)
        bad["curve"] = {
            "family": "polynomial",
            "params": {"coefficients": [0, 1, 0, 1.0 / 3.0]},
            "range": [0, 1],
        }
        cfg = write_config(tmp_path, bad)
        assert run(["analyze", "--config", cfg, "--output-dir", str(tmp_path)]) == 1

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

    def test_suite_dict_round_trip(self, cubic):
        from memelements import theorem_suite

        payload = suite_to_dict(theorem_suite([cubic]))
        assert payload["kind"] == "suite_report"
        assert payload["all_passed"] is True


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
